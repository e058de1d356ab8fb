//! Acceptance tests for the vectored operations API: mixed-op batches are
//! outcome-equivalent to sequential one-op-per-call execution on G-HBA,
//! HBA and BFA8 (the full mirror at 8 bits per file with no LRU level),
//! renames migrate end to end, and `replay()` never flushes its window
//! because a write arrived.

use ghba::core::{
    EntryPolicy, GhbaCluster, GhbaConfig, HbaCluster, MdsId, MetadataOp, MetadataService, OpBatch,
    OpOutcome, QueryOutcome,
};
use ghba::replay::replay;
use ghba::simnet::SimTime;
use ghba::trace::{MetaOp, TraceRecord};
use proptest::prelude::*;

fn config(seed: u64) -> GhbaConfig {
    GhbaConfig::default()
        .with_max_group_size(4)
        .with_filter_capacity(2_000)
        .with_bits_per_file(12.0)
        .with_update_threshold(64)
        .with_seed(seed)
}

/// `config` as a BFA8: 8 bits per file and no LRU level.
fn bfa8(config: GhbaConfig) -> GhbaConfig {
    config.with_bits_per_file(8.0).with_lru_capacity(0)
}

/// One generated op over a small path pool (duplicates are the point:
/// flash-crowd repeats, create/remove/rename collisions).
#[derive(Debug, Clone)]
enum GenOp {
    Lookup(u16),
    Create(u16),
    Remove(u16),
    Rename(u16, u16),
}

fn arb_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        6 => (0u16..40).prop_map(GenOp::Lookup),
        2 => (0u16..40).prop_map(GenOp::Create),
        1 => (0u16..40).prop_map(GenOp::Remove),
        1 => (0u16..40, 0u16..40).prop_map(|(a, b)| GenOp::Rename(a, b)),
    ]
}

fn path_of(f: u16) -> String {
    format!("/pool/f{f}")
}

fn batch_of(ops: &[GenOp], policy: EntryPolicy) -> OpBatch {
    let mut batch = OpBatch::new().with_entry(policy);
    for op in ops {
        match op {
            GenOp::Lookup(f) => batch.push_lookup(path_of(*f)),
            GenOp::Create(f) => batch.push_create(path_of(*f)),
            GenOp::Remove(f) => batch.push_remove(path_of(*f)),
            GenOp::Rename(a, b) => batch.push_rename(path_of(*a), format!("/renamed/f{b}")),
        }
    }
    batch
}

/// Executes the same ops one 1-op batch at a time — the sequential
/// baseline the mixed batch must match bit for bit. Under
/// `EntryPolicy::Random` both sides draw servers from the scheme RNG in
/// identical op order; under `RoundRobin` the per-op start is advanced so
/// op `i` maps to the same server either way.
fn sequential<S: MetadataService + ?Sized>(
    service: &mut S,
    ops: &[GenOp],
    policy: EntryPolicy,
) -> Vec<OpOutcome> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let policy = match policy {
                EntryPolicy::RoundRobin { start } => EntryPolicy::RoundRobin { start: start + i },
                other => other,
            };
            let batch = batch_of(std::slice::from_ref(op), policy);
            service
                .execute(&batch)
                .pop()
                .expect("one op in, one outcome out")
        })
        .collect()
}

/// Pre-populates a scheme with part of the pool and publishes.
fn seed_files<S: MetadataService + ?Sized>(service: &mut S) {
    let mut batch = OpBatch::new();
    for f in 0..30u16 {
        batch.push_create(path_of(f));
    }
    let _ = service.execute(&batch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole acceptance property: `execute` on a shuffled mixed
    /// batch is outcome-equivalent (homes, levels, latencies, messages)
    /// to the sequential one-op-per-call shim, on G-HBA, HBA and BFA8.
    #[test]
    fn mixed_batch_matches_sequential_all_schemes(
        ops in proptest::collection::vec(arb_op(), 1..80),
        seed in 0u64..500,
        servers in 4usize..16,
    ) {
        // G-HBA.
        let mut batched = GhbaCluster::with_servers(config(seed), servers);
        let mut one_by_one = GhbaCluster::with_servers(config(seed), servers);
        seed_files(&mut batched);
        seed_files(&mut one_by_one);
        let got = batched.execute(&batch_of(&ops, EntryPolicy::Random));
        let want = sequential(&mut one_by_one, &ops, EntryPolicy::Random);
        prop_assert_eq!(&got, &want, "G-HBA diverged");
        prop_assert_eq!(batched.stats().levels, one_by_one.stats().levels);

        // HBA.
        let mut batched = HbaCluster::with_servers(config(seed), servers);
        let mut one_by_one = HbaCluster::with_servers(config(seed), servers);
        seed_files(&mut batched);
        seed_files(&mut one_by_one);
        let got = batched.execute(&batch_of(&ops, EntryPolicy::Random));
        let want = sequential(&mut one_by_one, &ops, EntryPolicy::Random);
        prop_assert_eq!(&got, &want, "HBA diverged");

        // BFA8.
        let mut batched = HbaCluster::with_servers(bfa8(config(seed)), servers);
        let mut one_by_one = HbaCluster::with_servers(bfa8(config(seed)), servers);
        seed_files(&mut batched);
        seed_files(&mut one_by_one);
        let got = batched.execute(&batch_of(&ops, EntryPolicy::Random));
        let want = sequential(&mut one_by_one, &ops, EntryPolicy::Random);
        prop_assert_eq!(&got, &want, "BFA diverged");
    }

    /// The same equivalence under the deterministic round-robin policy
    /// (no RNG involved at all): op `i` is served by server
    /// `(start + i) % N` in both modes, on G-HBA and on HBA.
    #[test]
    fn mixed_batch_matches_sequential_round_robin(
        ops in proptest::collection::vec(arb_op(), 1..60),
        seed in 0u64..200,
        start in 0usize..32,
    ) {
        let policy = EntryPolicy::RoundRobin { start };
        let mut batched = GhbaCluster::with_servers(config(seed), 9);
        let mut one_by_one = GhbaCluster::with_servers(config(seed), 9);
        seed_files(&mut batched);
        seed_files(&mut one_by_one);
        let got = batched.execute(&batch_of(&ops, policy));
        let want = sequential(&mut one_by_one, &ops, policy);
        prop_assert_eq!(got, want, "G-HBA diverged");

        let mut batched = HbaCluster::with_servers(config(seed), 9);
        let mut one_by_one = HbaCluster::with_servers(config(seed), 9);
        seed_files(&mut batched);
        seed_files(&mut one_by_one);
        let got = batched.execute(&batch_of(&ops, policy));
        let want = sequential(&mut one_by_one, &ops, policy);
        prop_assert_eq!(got, want, "HBA diverged");
    }
}

/// Rename migrates metadata: the new path resolves at the reported new
/// home, the old path misses — for every scheme.
#[test]
fn rename_round_trip_all_schemes() {
    let mut grouped = GhbaCluster::with_servers(config(7), 10);
    let mut mirror = HbaCluster::with_servers(config(7), 10);
    let mut bfa = HbaCluster::with_servers(bfa8(config(7)), 10);
    let services: [&mut dyn MetadataService; 3] = [&mut grouped, &mut mirror, &mut bfa];
    for service in services {
        let mut batch = OpBatch::new();
        batch.push_create("/r/source");
        batch.push_rename("/r/source", "/r/target");
        batch.push_lookup("/r/target");
        batch.push_lookup("/r/source");
        let outcomes = service.execute(&batch);
        let name = service.scheme_name();
        let OpOutcome::Created { home: first_home } = outcomes[0] else {
            panic!("{name}: expected Created, got {:?}", outcomes[0]);
        };
        let OpOutcome::Renamed { old_home, new_home } = outcomes[1] else {
            panic!("{name}: expected Renamed, got {:?}", outcomes[1]);
        };
        assert_eq!(old_home, Some(first_home), "{name}: old home reported");
        assert!(new_home.is_some(), "{name}: new home reported");
        assert_eq!(
            outcomes[2].home(),
            new_home,
            "{name}: lookup-after-rename resolves the new home"
        );
        assert_eq!(outcomes[3].home(), None, "{name}: old path must miss");

        // Renaming a path that never existed is a no-op.
        assert_eq!(service.rename("/r/ghost", "/r/elsewhere"), (None, None));
        // And the legacy shims agree with the batch outcomes.
        assert_eq!(service.lookup("/r/target").home, new_home, "{name}");
    }
}

/// An instrumented service that records the shape of every `execute`
/// call, to prove replay admits mixed windows instead of flushing at
/// writes.
struct Recorder {
    inner: GhbaCluster,
    batches: Vec<Vec<&'static str>>,
}

impl MetadataService for Recorder {
    fn scheme_name(&self) -> &'static str {
        "recorder"
    }

    fn server_count(&self) -> usize {
        MetadataService::server_count(&self.inner)
    }

    fn execute(&mut self, batch: &OpBatch) -> Vec<OpOutcome> {
        self.batches.push(
            batch
                .ops()
                .iter()
                .map(|op| match op {
                    MetadataOp::Lookup(_) => "lookup",
                    MetadataOp::Create(_) => "create",
                    MetadataOp::Remove(_) => "remove",
                    MetadataOp::Rename { .. } => "rename",
                })
                .collect(),
        );
        self.inner.execute(batch)
    }

    fn execute_concurrent(&self, batch: &OpBatch) -> Vec<OpOutcome> {
        self.inner.execute_concurrent(batch)
    }

    fn filter_memory_per_mds(&self) -> usize {
        0
    }
}

fn record(op: MetaOp, path: &str) -> TraceRecord {
    TraceRecord {
        timestamp: SimTime::ZERO,
        op,
        path: path.to_owned(),
        rename_to: None,
        user: 0,
        host: 0,
        subtrace: 0,
    }
}

/// The replay acceptance criterion: a mixed create/lookup trace reaches
/// the service as whole mixed windows — writes never split the batch.
#[test]
fn replay_never_flushes_on_writes() {
    let mut recorder = Recorder {
        inner: GhbaCluster::with_servers(config(3), 8),
        batches: Vec::new(),
    };
    // 26 records interleaving stats and creates (plus an unlink and a
    // rename), well under one 128-op window.
    let mut records = Vec::new();
    for i in 0..12 {
        records.push(record(MetaOp::Stat, &format!("/w/f{}", i % 5)));
        records.push(record(MetaOp::Create, &format!("/w/new{i}")));
    }
    records.push(record(MetaOp::Unlink, "/w/new3"));
    records.push(record(MetaOp::Rename, "/w/new4"));
    let report = replay(&mut recorder, records);
    assert_eq!(report.operations, 26);
    // One execute call: every read and write of the trace in a single
    // mixed batch (the unlink contributes lookup + remove).
    assert_eq!(
        recorder.batches.len(),
        1,
        "writes must not flush the window"
    );
    let window = &recorder.batches[0];
    assert_eq!(window.len(), 27);
    assert!(window.contains(&"create") && window.contains(&"lookup"));
    assert!(window.contains(&"remove") && window.contains(&"rename"));
    // And the report still accounts the lookups (12 stats + 1 unlink
    // pre-lookup).
    assert_eq!(report.found + report.missing, 13);
}

/// Larger traces are split only at the 128-op window size, never at
/// op-kind boundaries.
#[test]
fn replay_windows_split_only_at_capacity() {
    const WINDOW: usize = 128; // replay's OP_WINDOW
    let mut recorder = Recorder {
        inner: GhbaCluster::with_servers(config(5), 8),
        batches: Vec::new(),
    };
    let mut records = Vec::new();
    for i in 0..400 {
        let op = if i % 3 == 0 {
            MetaOp::Create
        } else {
            MetaOp::Stat
        };
        records.push(record(op, &format!("/big/f{i}")));
    }
    let _ = replay(&mut recorder, records);
    assert!(recorder.batches.len() <= 400 / WINDOW + 1);
    for window in &recorder.batches[..recorder.batches.len() - 1] {
        assert!(
            window.len() >= WINDOW,
            "window flushed early: {}",
            window.len()
        );
    }
}

/// The shims and the batch agree on the pinned-entry policy.
#[test]
fn pinned_entry_serves_every_op_from_one_server() {
    let mut cluster = GhbaCluster::with_servers(config(11), 12);
    seed_files(&mut cluster);
    let entry = MdsId(2);
    let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(entry));
    for f in 0..10u16 {
        batch.push_lookup(path_of(f));
    }
    let outcomes = cluster.execute(&batch);
    for outcome in &outcomes {
        let query: &QueryOutcome = outcome.query().expect("lookup outcome");
        assert_eq!(query.entry, entry);
        assert!(query.found());
    }
}
