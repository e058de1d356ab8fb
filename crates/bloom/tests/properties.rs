//! Property-based tests for the Bloom filter toolkit.

use ghba_bloom::{
    analysis, hash, ops, BloomFilter, BloomFilterArray, CountingBloomFilter, FilterDelta,
    Fingerprint, Hit, LruBloomArray, SharedShapeArray,
};
use proptest::prelude::*;

fn arb_items() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z/]{1,24}", 0..200)
}

proptest! {
    /// Fundamental Bloom filter guarantee: anything inserted tests positive.
    #[test]
    fn no_false_negatives(items in arb_items(), seed in any::<u64>()) {
        let mut f = BloomFilter::new(8192, 5, seed);
        for item in &items {
            f.insert(item);
        }
        for item in &items {
            prop_assert!(f.contains(item));
        }
    }

    /// Union covers the membership of both operands (Property 1).
    #[test]
    fn union_covers_both(a_items in arb_items(), b_items in arb_items(), seed in any::<u64>()) {
        let mut a = BloomFilter::new(8192, 5, seed);
        let mut b = BloomFilter::new(8192, 5, seed);
        for item in &a_items { a.insert(item); }
        for item in &b_items { b.insert(item); }
        let u = ops::union(&a, &b).unwrap();
        for item in a_items.iter().chain(&b_items) {
            prop_assert!(u.contains(item));
        }
    }

    /// Intersection (bitwise AND) keeps everything present in both sets
    /// (Property 2: it over-approximates BF(A ∩ B)).
    #[test]
    fn intersection_keeps_common(common in arb_items(), seed in any::<u64>()) {
        let mut a = BloomFilter::new(8192, 5, seed);
        let mut b = BloomFilter::new(8192, 5, seed);
        for item in &common { a.insert(item); b.insert(item); }
        a.insert("only-in-a");
        b.insert("only-in-b");
        let i = ops::intersect(&a, &b).unwrap();
        for item in &common {
            prop_assert!(i.contains(item));
        }
    }

    /// XOR distance is a metric-ish: zero iff identical bit vectors,
    /// symmetric, and equals the popcount of the symmetric difference.
    #[test]
    fn xor_distance_consistency(a_items in arb_items(), b_items in arb_items()) {
        let mut a = BloomFilter::new(4096, 4, 9);
        let mut b = BloomFilter::new(4096, 4, 9);
        for item in &a_items { a.insert(item); }
        for item in &b_items { b.insert(item); }
        let d_ab = a.xor_distance(&b).unwrap();
        let d_ba = b.xor_distance(&a).unwrap();
        prop_assert_eq!(d_ab, d_ba);
        let sym = ops::symmetric_difference(&a, &b).unwrap();
        prop_assert_eq!(sym.ones(), d_ab);
        prop_assert_eq!(a.xor_distance(&a).unwrap(), 0);
    }

    /// Deltas reconstruct the target filter exactly, regardless of churn.
    #[test]
    fn delta_reconstructs(base in arb_items(), extra in arb_items()) {
        let mut old = BloomFilter::new(4096, 4, 2);
        for item in &base { old.insert(item); }
        let mut new = old.clone();
        for item in &extra { new.insert(item); }
        let delta = FilterDelta::between(&old, &new).unwrap();
        let mut replica = old.clone();
        delta.apply(&mut replica).unwrap();
        prop_assert_eq!(replica, new);
    }

    /// Flip-sparse `apply_delta(between(old, new))` on a column holding
    /// `old` equals `replace_filter(new)` bit for bit — at stride 1, 2 and
    /// 4, with a ragged last word, on a slot that was removed and reused —
    /// and leaves every other column alone. Flips are not wire payload,
    /// and one create flips at most `k` cells.
    #[test]
    fn flip_sparse_delta_matches_replace(
        base in arb_items(),
        gone in 0usize..200,
        extra in arb_items(),
        columns in prop_oneof![Just(3u16), Just(70u16), Just(200u16)],
    ) {
        let shape = ghba_bloom::FilterShape { bits: 1000, hashes: 4, seed: 2 };
        let filter_of = |items: &[String]| {
            let mut f = BloomFilter::new(shape.bits, shape.hashes, shape.seed);
            for item in items { f.insert(item); }
            f
        };
        let old = filter_of(&base);
        let new = filter_of(&[&base[gone.min(base.len())..], &extra[..]].concat());
        let mut sliced = SharedShapeArray::new(shape);
        for id in 0..columns {
            sliced.push_filter(id, if id % 2 == 0 { &old } else { &new }).unwrap();
        }
        sliced.remove(columns / 2);
        sliced.push_filter(columns, &old).unwrap(); // reuses the freed slot
        let mut expected = sliced.clone();
        expected.replace_filter(columns, &new).unwrap();

        let delta = FilterDelta::between(&old, &new).unwrap();
        prop_assert_eq!(delta.wire_bytes(), 24 + 12 * delta.len());
        sliced.apply_delta(columns, &delta).unwrap();
        for id in 0..=columns {
            prop_assert_eq!(sliced.extract(id), expected.extract(id), "column {}", id);
        }

        let mut one = old.clone();
        one.insert("one more create");
        let flips: u32 = FilterDelta::between(&old, &one)
            .unwrap()
            .changed_words()
            .iter()
            .map(|&(_, _, flips)| flips.count_ones())
            .sum();
        prop_assert!(flips <= shape.hashes);
    }

    /// Counting filters: inserting then removing every item restores
    /// definite absence for items inserted exactly once, as long as no
    /// counter saturates.
    #[test]
    fn counting_roundtrip(items in proptest::collection::hash_set("[a-z]{1,16}", 0..100)) {
        let mut f = CountingBloomFilter::new(16_384, 5, 3);
        for item in &items { f.insert(item); }
        prop_assume!(f.max_counter() < u8::MAX);
        for item in &items {
            f.remove(item).unwrap();
        }
        prop_assert!(f.is_empty());
        prop_assert_eq!(f.ones(), 0);
    }

    /// Serialization roundtrips exactly.
    #[test]
    fn serialization_roundtrip(items in arb_items(), seed in any::<u64>()) {
        let mut f = BloomFilter::new(2048, 3, seed);
        for item in &items { f.insert(item); }
        let decoded = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        prop_assert_eq!(f, decoded);
    }

    /// Arbitrary byte strings never panic the decoder.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = BloomFilter::from_bytes(&bytes);
    }

    /// Filter arrays: an inserted file's home is always among the
    /// candidates (no false negatives at array level).
    #[test]
    fn array_home_is_always_candidate(
        items in proptest::collection::vec(("[a-z]{1,12}", 0u16..8), 1..100),
    ) {
        let mut array: BloomFilterArray<u16> = (0u16..8)
            .map(|id| (id, BloomFilter::new(8192, 5, 77)))
            .collect();
        for (item, home) in &items {
            array.get_mut(*home).unwrap().insert(item);
        }
        for (item, home) in &items {
            let hit = array.query(item);
            prop_assert!(
                hit.candidates().contains(home),
                "home {home} missing from {hit:?} for {item}"
            );
        }
    }

    /// LRU array: the most recent `capacity` distinct items are always
    /// resident and their true home is among the candidates.
    #[test]
    fn lru_retains_recent(
        accesses in proptest::collection::vec((0u32..64, 0u16..4), 1..300),
        cap in 1usize..32,
    ) {
        let mut lru = LruBloomArray::new(cap, 8192, 5, 13);
        let mut last_home = std::collections::HashMap::new();
        for (file, home) in &accesses {
            lru.record(file, *home);
            last_home.insert(*file, *home);
        }
        prop_assert!(lru.len() <= cap);
        // Determine the `cap` most recently used distinct files.
        let mut seen = std::collections::HashSet::new();
        let mut recent = Vec::new();
        for (file, _) in accesses.iter().rev() {
            if seen.insert(*file) {
                recent.push(*file);
                if recent.len() == cap { break; }
            }
        }
        for file in recent {
            let hit = lru.query(&file);
            let home = last_home[&file];
            prop_assert!(
                hit.candidates().contains(&home),
                "recent file {file} lost its home {home}: {hit:?}"
            );
        }
    }

    /// Eq. (1) stays a probability for all sensible parameters.
    #[test]
    fn eq1_is_probability(theta in 0usize..500, bpi in 0.5f64..64.0) {
        let p = analysis::segment_false_hit(theta, bpi);
        prop_assert!((0.0..=1.0).contains(&p), "theta={theta} bpi={bpi} p={p}");
    }

    /// The standard false-positive formula is monotone: more items in the
    /// same geometry can only raise the false rate.
    #[test]
    fn fpp_monotone_in_items(m in 64usize..100_000, n in 0usize..10_000, k in 1u32..12) {
        let f_small = analysis::standard_fpp(m, n, k);
        let f_large = analysis::standard_fpp(m, n + 100, k);
        prop_assert!(f_large >= f_small);
    }

    /// Hash-once invariant: for any item, seed, and geometry, the probe
    /// sequence derived from a precomputed [`Fingerprint`] is identical to
    /// the direct `probe_indices` walk, and the `(h1, h2)` pair matches
    /// `index_pair`. This is what lets one digest serve every filter of a
    /// query.
    #[test]
    fn fingerprint_probes_equal_probe_indices(
        item in "[a-z/]{1,32}",
        seed in any::<u64>(),
        m in 1usize..20_000,
        k in 1u32..16,
    ) {
        let fp = Fingerprint::of(item.as_str());
        prop_assert_eq!(fp.pair(seed), hash::index_pair(item.as_str(), seed));
        let derived: Vec<usize> = fp.probes(seed, m, k).collect();
        let direct: Vec<usize> = hash::probe_indices(item.as_str(), seed, m, k).collect();
        prop_assert_eq!(derived, direct);
    }

    /// The fingerprint-accepting filter variants answer exactly like the
    /// item-hashing ones.
    #[test]
    fn fingerprint_variants_match_item_variants(
        items in arb_items(),
        probes in arb_items(),
        seed in any::<u64>(),
    ) {
        let mut by_item = BloomFilter::new(8192, 5, seed);
        let mut by_fp = BloomFilter::new(8192, 5, seed);
        for item in &items {
            by_item.insert(item);
            by_fp.insert_fp(&Fingerprint::of(item.as_str()));
        }
        prop_assert_eq!(&by_item, &by_fp);
        for probe in items.iter().chain(&probes) {
            let fp = Fingerprint::of(probe.as_str());
            prop_assert_eq!(by_item.contains(probe), by_item.contains_fp(&fp));
        }
    }

    /// A bit-sliced [`SharedShapeArray`] answers (`None`/`Unique`/
    /// `Multiple`, including candidate sets) exactly like a plain
    /// [`BloomFilterArray`] built from the same inserts.
    #[test]
    fn shared_shape_array_matches_plain_array(
        inserts in proptest::collection::vec(("[a-z]{1,12}", 0u16..70), 0..300),
        probes in proptest::collection::vec("[a-z]{1,12}", 0..60),
        seed in any::<u64>(),
        homes in 1u16..70,
    ) {
        let shape = ghba_bloom::FilterShape { bits: 8192, hashes: 5, seed };
        let mut plain: BloomFilterArray<u16> = (0..homes)
            .map(|id| (id, BloomFilter::new(shape.bits, shape.hashes, shape.seed)))
            .collect();
        let mut sliced = SharedShapeArray::new(shape);
        for id in 0..homes {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            let home = home % homes;
            plain.get_mut(home).unwrap().insert(item);
            sliced.insert(home, item).unwrap();
        }
        for probe in inserts.iter().map(|(item, _)| item).chain(&probes) {
            let fp = Fingerprint::of(probe.as_str());
            let expected = plain.query(probe);
            prop_assert_eq!(&sliced.query(probe), &expected, "item {}", probe);
            prop_assert_eq!(&sliced.query_fp(&fp), &expected, "fp of {}", probe);
            prop_assert_eq!(&plain.query_fp(&fp), &expected, "plain fp of {}", probe);
        }
    }

    /// Masked shared-shape queries agree with a plain array restricted to
    /// the same subset of filters.
    #[test]
    fn masked_query_matches_subset_array(
        inserts in proptest::collection::vec(("[a-z]{1,10}", 0u16..16), 0..150),
        subset in proptest::collection::vec(0u16..16, 0..16),
        probe in "[a-z]{1,10}",
    ) {
        let shape = ghba_bloom::FilterShape { bits: 4096, hashes: 4, seed: 3 };
        let mut sliced = SharedShapeArray::new(shape);
        let mut filters: Vec<BloomFilter> = (0..16)
            .map(|_| BloomFilter::new(shape.bits, shape.hashes, shape.seed))
            .collect();
        for id in 0u16..16 {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            filters[usize::from(*home)].insert(item);
            sliced.insert(*home, item).unwrap();
        }
        let mut unique_subset = subset.clone();
        unique_subset.sort_unstable();
        unique_subset.dedup();
        let restricted: BloomFilterArray<u16> = unique_subset
            .iter()
            .map(|&id| (id, filters[usize::from(id)].clone()))
            .collect();
        let fp = Fingerprint::of(probe.as_str());
        let expected = restricted.query(&probe);
        let mask = sliced.subset_mask(unique_subset.iter().copied());
        prop_assert_eq!(mask.len(), unique_subset.len());
        prop_assert_eq!(sliced.query_fp_masked(&fp, &mask), expected);
    }

    /// The PR-2 acceptance property: a [`ProbeBatch`] of B fingerprints
    /// returns bit-identical `Hit`s to B sequential `query_fp` /
    /// `query_fp_among` calls — across masks, pushes, and removals.
    #[test]
    fn probe_batch_matches_sequential(
        inserts in proptest::collection::vec(("[a-z]{1,12}", 0u16..70), 0..250),
        removals in proptest::collection::vec(0u16..70, 0..8),
        probes in proptest::collection::vec(("[a-z]{1,12}", proptest::collection::vec(0u16..70, 0..6)), 1..24),
        seed in any::<u64>(),
        homes in 1u16..70,
    ) {
        let shape = ghba_bloom::FilterShape { bits: 8192, hashes: 5, seed };
        let mut sliced = SharedShapeArray::new(shape);
        for id in 0..homes {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            sliced.insert(home % homes, item).unwrap();
        }
        for id in &removals {
            sliced.remove(id % homes);
        }
        // Half the probes are existing items, half arbitrary; every other
        // probe is masked to an arbitrary candidate subset (possibly
        // naming removed or never-pushed ids, which masks must ignore).
        let mut batch = ghba_bloom::ProbeBatch::new();
        let mut expected = Vec::new();
        for (i, (item, subset)) in probes.iter().enumerate() {
            let item = inserts.get(i).map_or(item.as_str(), |(it, _)| it.as_str());
            let fp = Fingerprint::of(item);
            if i % 2 == 0 {
                expected.push(sliced.query_fp(&fp));
                batch.push(fp);
            } else {
                expected.push(sliced.query_fp_among(&fp, subset.iter().copied()));
                batch.push_masked(fp, sliced.subset_mask(subset.iter().copied()));
            }
        }
        prop_assert_eq!(sliced.query_batch(&mut batch), expected);
    }

    /// A batch drowning in duplicate fingerprints (the flash-crowd shape)
    /// answers bit-identically to sequential queries, each duplicate
    /// under its own mask.
    #[test]
    fn probe_batch_dedup_matches_sequential(
        inserts in proptest::collection::vec(("[a-z]{1,10}", 0u16..40), 0..150),
        hot in "[a-z]{1,10}",
        pattern in proptest::collection::vec((0usize..4, 0u16..40), 1..48),
        seed in any::<u64>(),
    ) {
        let shape = ghba_bloom::FilterShape { bits: 4096, hashes: 5, seed };
        let mut sliced = SharedShapeArray::new(shape);
        for id in 0..40u16 {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            sliced.insert(*home, item).unwrap();
        }
        // Mostly the hot item (unmasked and under repeated masks), with a
        // sprinkle of distinct items: exercises lane-equal groups with
        // equal masks (fanned out), differing masks (one shared row-AND,
        // masks applied at classification), and the all-distinct fast
        // path in the same suite.
        let mut batch = ghba_bloom::ProbeBatch::new();
        let mut expected = Vec::new();
        for &(kind, id) in &pattern {
            let (item, subset): (&str, Vec<u16>) = match kind {
                0 => (hot.as_str(), vec![]),
                1 => (hot.as_str(), vec![id, id.wrapping_add(1) % 40]),
                2 => (inserts.get(usize::from(id)).map_or("cold", |(it, _)| it.as_str()), vec![]),
                _ => ("absent-item", vec![id]),
            };
            let fp = Fingerprint::of(item);
            if subset.is_empty() {
                expected.push(sliced.query_fp(&fp));
                batch.push(fp);
            } else {
                expected.push(sliced.query_fp_among(&fp, subset.iter().copied()));
                batch.push_masked(fp, sliced.subset_mask(subset.iter().copied()));
            }
        }
        prop_assert_eq!(sliced.query_batch(&mut batch), expected);
    }

    /// Cross-mask duplicates at wide stride:
    /// one hot fingerprint queued under many *different* candidate masks
    /// — the shape a flash crowd entering through different servers
    /// produces — answers bit-identically to sequential masked queries.
    #[test]
    fn probe_batch_cross_mask_dedup_matches_sequential(
        inserts in proptest::collection::vec(("[a-z]{1,10}", 0u16..130), 0..200),
        hot in "[a-z]{1,10}",
        hot_homes in proptest::collection::vec(0u16..130, 0..4),
        subsets in proptest::collection::vec(proptest::collection::vec(0u16..140, 0..12), 2..24),
        seed in any::<u64>(),
    ) {
        // 130 slots ⇒ stride 3: the wide-stride kernel with in-kernel
        // classification runs, and mixed-mask groups must bypass its
        // (unmasked) verdict for their masked members.
        let shape = ghba_bloom::FilterShape { bits: 4096, hashes: 5, seed };
        let mut sliced = SharedShapeArray::new(shape);
        for id in 0..130u16 {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            sliced.insert(*home, item).unwrap();
        }
        for home in &hot_homes {
            sliced.insert(*home, &hot).unwrap();
        }
        let fp = Fingerprint::of(&hot);
        let mut batch = ghba_bloom::ProbeBatch::new();
        let mut expected = Vec::new();
        for (i, subset) in subsets.iter().enumerate() {
            // Interleave unmasked duplicates so groups mix None with
            // Some masks too (subsets may name never-pushed ids ≥ 130,
            // which masks ignore).
            if i % 3 == 2 {
                expected.push(sliced.query_fp(&fp));
                batch.push(fp);
            } else {
                expected.push(sliced.query_fp_among(&fp, subset.iter().copied()));
                batch.push_masked(fp, sliced.subset_mask(subset.iter().copied()));
            }
        }
        prop_assert_eq!(sliced.query_batch(&mut batch), expected);
    }

    /// `ProbeBatch::derive_rows_into` yields exactly the per-fingerprint
    /// probe rows of `Fingerprint::probes`, for any shape.
    #[test]
    fn derive_rows_match_fingerprint_probes(
        items in proptest::collection::vec("[a-z/]{1,16}", 1..24),
        bits in 64usize..100_000,
        hashes in 1u32..12,
        seed in any::<u64>(),
    ) {
        let shape = ghba_bloom::FilterShape { bits, hashes, seed };
        let mut batch = ghba_bloom::ProbeBatch::new();
        let mut expected: Vec<u32> = Vec::new();
        for item in &items {
            let fp = Fingerprint::of(item.as_str());
            batch.push(fp);
            fp.probe_rows_into(seed, bits, hashes, &mut expected);
        }
        let mut rows = Vec::new();
        batch.derive_rows_into(shape, &mut rows);
        prop_assert_eq!(rows, expected);
    }

    /// Rows ≡ fingerprint: a counting filter and its plain projection
    /// mutated through `insert_rows` / `remove_rows` — rows from one
    /// `RowDeriver` — stay identical (counters, words, `item_count`) to
    /// twins mutated through `insert_fp` / `remove_fp`, after every op,
    /// on a deliberately tiny shape: 23 counters and k = 2, so items
    /// share counters and some probe one row twice (an odd width: the
    /// probe step is odd), after 3,400 files of ballast pinned counters
    /// at `u8::MAX`. Removing an absent item is
    /// refused by both without touching a counter.
    #[test]
    fn row_mutations_match_fingerprint_mutations(
        ops in proptest::collection::vec((any::<bool>(), 0u16..40), 1..300),
        seed in any::<u64>(),
    ) {
        let shape = ghba_bloom::FilterShape { bits: 23, hashes: 2, seed };
        let deriver = ghba_bloom::RowDeriver::new(shape);
        let mut by_fp = CountingBloomFilter::new(shape.bits, shape.hashes, seed);
        let mut by_rows = by_fp.clone();
        let mut plain_fp = BloomFilter::new(shape.bits, shape.hashes, seed);
        let mut plain_rows = plain_fp.clone();
        let mut rows = Vec::new();
        let ballast = (0..3_400u16).map(|file| (true, 1_000 + file));
        let mut twice = false;
        for (insert, file) in ballast.chain(ops) {
            let fp = Fingerprint::of(&file);
            rows.clear();
            deriver.rows_into(&fp, &mut rows);
            twice |= rows[0] == rows[1];
            let indices = rows.iter().map(|&row| row as usize);
            if insert {
                by_fp.insert_fp(&fp);
                plain_fp.insert_fp(&fp);
                by_rows.insert_rows(indices.clone());
                plain_rows.insert_rows(indices);
            } else {
                let before = by_rows.clone();
                let removed = by_rows.remove_rows(indices, Some(&mut plain_rows));
                prop_assert_eq!(by_fp.remove_fp(&fp, Some(&mut plain_fp)), removed.clone());
                if removed.is_err() {
                    prop_assert_eq!(&by_rows, &before);
                }
            }
            prop_assert_eq!(&by_rows, &by_fp);
            prop_assert_eq!(&plain_rows, &plain_fp);
            prop_assert_eq!(&plain_rows, &by_rows.to_bloom_filter());
        }
        prop_assert_eq!(by_rows.max_counter(), u8::MAX);
        prop_assert!(twice, "no ballast item probed one row twice");
    }

    /// The slab identity the pinned walk rests on: one unmasked row-AND
    /// (`and_rows`) read under any candidate mask (`positives_under`)
    /// answers exactly like a masked probe — same positive count, same id
    /// when unique, nothing on an early exit — at stride 1 and beyond,
    /// after removals and after a capacity growth; and a mask that
    /// predates the growth still panics instead of dropping slots.
    #[test]
    fn and_rows_under_mask_matches_masked_query(
        slots in 1u16..140,
        inserts in proptest::collection::vec(("[a-z]{1,10}", 0u16..140), 0..200),
        removed in proptest::collection::vec(0u16..140, 0..8),
        probes in proptest::collection::vec("[a-z]{1,10}", 1..24),
        subsets in proptest::collection::vec(proptest::collection::vec(0u16..150, 0..12), 1..6),
        seed in any::<u64>(),
    ) {
        let shape = ghba_bloom::FilterShape { bits: 2048, hashes: 5, seed };
        // Starts at one word of slots; more than 64 pushes grow it.
        let mut sliced = SharedShapeArray::new(shape);
        sliced.push(0u16).unwrap();
        let stale = sliced.subset_mask([0u16]);
        for id in 1..slots {
            sliced.push(id).unwrap();
        }
        for (item, home) in &inserts {
            let _ = sliced.insert(*home, item);
        }
        for id in &removed {
            sliced.remove(*id);
        }
        let masks: Vec<_> = subsets
            .iter()
            .map(|subset| sliced.subset_mask(subset.iter().copied()))
            .chain([sliced.mask_all_except(0)])
            .collect();
        let mut anded = Vec::new();
        for probe in probes.iter().chain(inserts.iter().map(|(item, _)| item)) {
            let fp = Fingerprint::of(probe.as_str());
            let survived = sliced.and_rows(fp.probes(shape.seed, shape.bits, shape.hashes), &mut anded);
            prop_assert_eq!(survived, anded.iter().any(|&word| word != 0));
            prop_assert_eq!(survived, sliced.query_fp(&fp) != Hit::None);
            for mask in &masks {
                let expected = sliced.query_fp_masked(&fp, mask);
                let (positives, unique) = sliced.positives_under(&anded, mask);
                prop_assert_eq!(positives as usize, expected.candidates().len());
                match expected {
                    Hit::Unique(id) => prop_assert_eq!(unique, Some(id)),
                    _ => prop_assert_eq!(unique, None),
                }
            }
        }
        if slots > 64 {
            let read_stale = std::panic::catch_unwind(|| sliced.positives_under(&anded, &stale));
            prop_assert!(read_stale.is_err(), "a pre-growth mask must be refused");
        }
    }

    /// Hit classification is consistent with candidate count.
    #[test]
    fn hit_classification(ids in proptest::collection::vec(any::<u16>(), 0..10)) {
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let hit = match uniq.len() {
            0 => Hit::None,
            1 => Hit::Unique(uniq[0]),
            _ => Hit::Multiple(uniq.clone()),
        };
        prop_assert_eq!(hit.candidates().len(), uniq.len());
        prop_assert_eq!(hit.is_unique(), uniq.len() == 1);
    }
}
