//! Bit-sliced, shared-shape Bloom filter arrays — the hot-path probe
//! structure behind every level of the G-HBA query hierarchy.
//!
//! # Layout
//!
//! A [`SharedShapeArray`] holds up to `C` filters (slots) that all share one
//! [`FilterShape`] `(m, k, seed)`. Instead of `C` independent bit vectors,
//! the bits are stored **interleaved by bit position**: for each of the `m`
//! bit positions there is a row of `ceil(C/64)` words (`stride`) holding
//! that position's bit for *every* slot. Membership bit `j` of slot `s`
//! lives at word `slab[j * stride + s / 64]`, bit `s % 64`.
//!
//! A query therefore needs the item's `k` probe rows only **once** for the
//! whole array: starting from the live-slot mask, it ANDs the `k` rows
//! together — `k × stride` word loads — and the surviving mask bits *are*
//! the positive slots. Compare the classic array-of-filters walk, which
//! costs `N` separate filter traversals (`N × k` scattered bit reads) plus
//! `N` hashes without the hash-once [`Fingerprint`] path.
//!
//! # Invariants
//!
//! * All slots share the array's `FilterShape`; filters pushed in must match
//!   it exactly ([`BloomError::IncompatibleFilters`] otherwise), so a slot's
//!   probe rows are the same for every slot and the AND-reduction is sound.
//! * Probe sequences come from [`Fingerprint`] seed-mixing and are *bit
//!   identical* to [`crate::hash::probe_indices`] / [`BloomFilter`] probes:
//!   a `SharedShapeArray` answers exactly like the same filters probed one
//!   by one (the property tests hold it to a reference array of plain
//!   filters).
//! * Freed slots are zeroed immediately and masked out of every query, so
//!   recycling a slot can never leak a predecessor's bits.
//!
//! # Twin arrays
//!
//! Two arrays of one shape can share a slot layout: one allocates
//! ([`push`](SharedShapeArray::push) returns the slot) and the other
//! follows ([`push_at`](SharedShapeArray::push_at)), so one slot index
//! names one filter in both. That is how a cluster keeps every server's
//! *live* filter in one array and its *published* filter in another:
//! [`copy_blocks_from`](SharedShapeArray::copy_blocks_from) publishes
//! the blocks of rows a column changed in, and
//! [`column_distance`](SharedShapeArray::column_distance) measures how far
//! the two columns of a slot drifted apart.
//!
//! # Concurrency
//!
//! The probe seam is deliberately **read-shared**: every query entry
//! point ([`SharedShapeArray::query_fp`], [`query_batch`],
//! [`and_rows`]) takes `&self`, and the working memory
//! of a probe (its rows, its row-AND words) is the caller's — a
//! [`ProbeBatch`] or the caller's own buffers. The array itself holds no
//! interior mutability anywhere (plain `Vec`s and a `HashMap`, no
//! atomics). `SharedShapeArray<I>` is therefore `Sync` whenever `I` is,
//! and N threads may probe one slab concurrently so long as each brings
//! its own buffers — exactly how a replica's connection threads each
//! walk their own batch against the shared published slab.
//! Compile-time assertions below pin the seam so
//! an accidental `Cell` can never silently revoke it.
//!
//! [`query_batch`]: SharedShapeArray::query_batch
//! [`and_rows`]: SharedShapeArray::and_rows
//!
//! # Examples
//!
//! ```
//! use ghba_bloom::{FilterShape, Fingerprint, Hit, SharedShapeArray};
//!
//! let shape = FilterShape { bits: 4096, hashes: 5, seed: 7 };
//! let mut array = SharedShapeArray::new(shape);
//! array.push(10u16)?;
//! array.push(11u16)?;
//! array.insert(10u16, "/projects/ghba/paper.tex")?;
//!
//! // Hash once, probe the whole array.
//! let fp = Fingerprint::of("/projects/ghba/paper.tex");
//! assert_eq!(array.query_fp(&fp), Hit::Unique(10));
//! assert_eq!(array.query("/somewhere/else"), Hit::None);
//! # Ok::<(), ghba_bloom::BloomError>(())
//! ```

use std::collections::HashMap;
use std::hash::Hash;

use crate::error::{BloomError, FilterShape};
use crate::filter::BloomFilter;
use crate::hash::Fingerprint;

/// Outcome of probing an array of filters: how many filters answered
/// positively.
///
/// Per §2.1 of the paper, only [`Hit::Unique`] counts as a success; both
/// [`Hit::None`] and [`Hit::Multiple`] escalate the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hit<I> {
    /// No filter matched; the item is definitely not represented here.
    None,
    /// Exactly one filter matched — the candidate home server.
    Unique(I),
    /// Two or more filters matched; ambiguous, must escalate.
    Multiple(Vec<I>),
}

impl<I> Hit<I> {
    /// `true` for [`Hit::Unique`].
    #[must_use]
    pub fn is_unique(&self) -> bool {
        matches!(self, Hit::Unique(_))
    }

    /// The unique candidate, if any.
    #[must_use]
    pub fn unique(&self) -> Option<&I> {
        match self {
            Hit::Unique(id) => Some(id),
            _ => None,
        }
    }

    /// All positive candidates (empty for [`Hit::None`]).
    #[must_use]
    pub fn candidates(&self) -> &[I] {
        match self {
            Hit::None => &[],
            Hit::Unique(id) => std::slice::from_ref(id),
            Hit::Multiple(ids) => ids,
        }
    }
}

/// A bit-sliced array of same-shape Bloom filters probed as one.
///
/// See the module-level docs in `shared.rs` for the layout and its
/// invariants. `I`
/// identifies the server a slot summarizes (an `MdsId` upstream).
#[derive(Debug, Clone)]
pub struct SharedShapeArray<I> {
    shape: FilterShape,
    /// Words per bit-position row (`ceil(slot capacity / 64)`).
    stride: usize,
    /// `shape.bits * stride` words, interleaved by bit position.
    slab: Vec<u64>,
    /// Slot index → id; `None` marks a free (zeroed) slot.
    slots: Vec<Option<I>>,
    /// Bitmask of live slots, `stride` words.
    live: Vec<u64>,
    /// Recycled slot indices.
    free: Vec<usize>,
    /// id → slot, so hot-path mask building and inserts avoid an O(C)
    /// scan over `slots`.
    index: HashMap<I, usize>,
    /// Per-slot inserted-item bookkeeping (upper bound, like
    /// [`BloomFilter::item_count`]).
    items: Vec<usize>,
}

/// A precomputed candidate-slot mask: the slots a row-AND is read under
/// ([`SharedShapeArray::positives_under`]).
///
/// Build one with [`SharedShapeArray::subset_mask`] or
/// [`SharedShapeArray::mask_all_except`]; masks stay valid until the array's
/// slot assignment changes (a push, remove, or capacity growth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMask {
    words: Vec<u64>,
}

impl SlotMask {
    /// Number of candidate slots in the mask.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no slot is selected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// A batch of fingerprints resolved together by
/// [`SharedShapeArray::query_batch`].
///
/// Metadata servers see many concurrent lookups at once (queued client
/// requests, a drained multicast mailbox); probing them one at a time pays
/// one hardware division per probe row and `k × stride` cold row loads per
/// fingerprint. A batch derives every fingerprint's probe rows up front
/// ([`derive_rows_into`](ProbeBatch::derive_rows_into): one shared-modulus
/// fastmod, no division), so a caller can prefetch the rows of the items
/// ahead while it reduces the current one — the schedule of the cluster's
/// pinned walk, and of `query_batch`.
///
/// Build once, [`clear`](ProbeBatch::clear), and reuse: the batch also
/// carries `query_batch`'s two scratch buffers (the row table and the
/// row-AND words), so a reused batch allocates only the result vector.
/// Duplicate fingerprints are not merged here — each queued item is
/// reduced and classified on its own; the cluster dedups a run upstream,
/// before it ever builds a batch.
#[derive(Debug, Clone, Default)]
pub struct ProbeBatch {
    fps: Vec<Fingerprint>,
    /// `query_batch` scratch: `k` probe rows per fingerprint, item-major.
    rows: Vec<u32>,
    /// `query_batch` scratch: the current item's row-AND, `stride` words.
    anded: Vec<u64>,
}

// The concurrent probe seam, enforced at compile time: a read-only slab
// shared across worker threads (`Sync`), with each worker's batch free
// to move to its thread (`Send`). See the module-level
// "Concurrency" section.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_sync::<SharedShapeArray<u16>>();
    assert_sync::<SlotMask>();
    assert_send::<SharedShapeArray<u16>>();
    assert_send::<ProbeBatch>();
};

impl ProbeBatch {
    /// Creates an empty batch.
    #[must_use]
    pub fn new() -> Self {
        ProbeBatch::default()
    }

    /// Creates an empty batch pre-sized for `capacity` fingerprints.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        ProbeBatch {
            fps: Vec::with_capacity(capacity),
            ..ProbeBatch::default()
        }
    }

    /// Queues `fp` against every live slot; returns its index in the
    /// batch's result vector.
    pub fn push(&mut self, fp: Fingerprint) -> usize {
        self.fps.push(fp);
        self.fps.len() - 1
    }

    /// Number of queued fingerprints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// Empties the batch, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.fps.clear();
    }

    /// Derives every queued fingerprint's `k` probe rows for the filter
    /// family `shape` into `out` (cleared first), fingerprint-major — the
    /// batch analogue of [`Fingerprint::probe_rows_into`], sharing one
    /// `FastMod` magic across the whole batch instead of one hardware
    /// division per probe.
    ///
    /// The rows serve every slab of the family alike
    /// ([`SharedShapeArray::prefetch_rows`],
    /// [`SharedShapeArray::and_rows`]): an L4 global sweep reads the live
    /// slab's row-AND with the rows the published slab's levels used, and
    /// a plain filter of the same family takes them too
    /// ([`BloomFilter::contains_rows`]). Row `j` of fingerprint `q` lands
    /// at `out[q * k + j]`, identical to
    /// [`Fingerprint::probes`](Fingerprint::probes) for the same shape.
    ///
    /// `shape` must be a slab's shape: [`SharedShapeArray::with_capacity`]
    /// is where its rows are checked to fit a `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `shape.bits` is zero.
    pub fn derive_rows_into(&self, shape: FilterShape, out: &mut Vec<u32>) {
        derive_rows(&self.fps, shape, out);
    }
}

/// [`ProbeBatch::derive_rows_into`] over a bare fingerprint slice.
fn derive_rows(fps: &[Fingerprint], shape: FilterShape, out: &mut Vec<u32>) {
    let deriver = RowDeriver::new(shape);
    out.clear();
    out.reserve(fps.len() * shape.hashes as usize);
    for fp in fps {
        deriver.rows_into(fp, out);
    }
}

/// The probe-row derivation of one filter family with its fastmod magic
/// computed once: whoever probes or mutates filters of one shape for
/// longer than a batch (a cluster's write path) keeps one and never
/// divides again. Yields exactly [`Fingerprint::probes`] for the shape.
#[derive(Debug, Clone, Copy)]
pub struct RowDeriver {
    fm: FastMod,
    seed: u64,
    hashes: u32,
}

impl RowDeriver {
    /// Precomputes the derivation for `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `shape.bits` is zero.
    #[must_use]
    pub fn new(shape: FilterShape) -> Self {
        assert!(shape.bits > 0, "filter must have at least one bit");
        debug_assert!(u32::try_from(shape.bits).is_ok(), "rows must fit a u32");
        RowDeriver {
            fm: FastMod::new(shape.bits as u64),
            seed: shape.seed,
            hashes: shape.hashes,
        }
    }

    /// Appends `fp`'s `k` probe rows to `out`.
    #[inline]
    pub fn rows_into(&self, fp: &Fingerprint, out: &mut Vec<u32>) {
        let (mut cursor, step) = fp.pair(self.seed);
        for _ in 0..self.hashes {
            out.push(self.fm.rem(cursor) as u32);
            cursor = cursor.wrapping_add(step);
        }
    }
}

/// ANDs `src` into `dst` and returns the OR of the resulting words (zero
/// means every candidate died and the query can stop early).
///
/// Explicit 4-wide `u64` chunks with independent accumulator lanes, a
/// shape LLVM autovectorizes to 256-bit ops when the target allows it.
#[inline(always)]
fn and_reduce_into(dst: &mut [u64], src: &[u64]) -> u64 {
    let mut any4 = [0u64; 4];
    let mut dst_chunks = dst.chunks_exact_mut(4);
    let mut src_chunks = src.chunks_exact(4);
    for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
        for lane in 0..4 {
            d[lane] &= s[lane];
            any4[lane] |= d[lane];
        }
    }
    let mut any = any4[0] | any4[1] | any4[2] | any4[3];
    for (d, s) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *d &= s;
        any |= *d;
    }
    any
}

/// Precomputed magic for Lemire's exact 64-bit **fastmod**: `n % d` as
/// three widening multiplies instead of a hardware division.
///
/// Every probe index of a batch reduces by the *same* modulus (the filter
/// width `m`), so the magic is computed once per
/// [`ProbeBatch::derive_rows_into`] call and the `B × k` index derivations
/// stay off the (long-latency, poorly pipelined) divider. Exact for every
/// `n` and `d > 0` — see Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation" (2019); the unit test pins it against `%` and the property
/// tests pin the batch path against the division-based sequential probes.
#[derive(Debug, Clone, Copy)]
struct FastMod {
    /// `2^128 / d + 1`.
    magic: u128,
    d: u64,
}

impl FastMod {
    #[inline]
    fn new(d: u64) -> Self {
        debug_assert!(d > 0, "modulus must be non-zero");
        // For d == 1 the magic wraps to 0, and rem() correctly returns 0.
        FastMod {
            magic: (u128::MAX / u128::from(d)).wrapping_add(1),
            d,
        }
    }

    /// `n % d`.
    #[inline(always)]
    fn rem(&self, n: u64) -> u64 {
        let lowbits = self.magic.wrapping_mul(u128::from(n));
        // High 64 bits of the 192-bit product `lowbits * d`.
        let d = u128::from(self.d);
        let bottom = (u128::from(lowbits as u64) * d) >> 64;
        let top = (lowbits >> 64) * d;
        ((bottom + top) >> 64) as u64
    }
}

/// Asks the kernel to back `words` with transparent huge pages
/// (`MADV_HUGEPAGE`), and to do so *before* the buffer is first touched so
/// page faults map 2 MiB pages synchronously.
///
/// A production-size slab (tens of MiB) probed at `k` random rows per
/// query blows the 4 KiB-page dTLB on almost every row load, and the
/// page-walk hardware — two walkers, deep hierarchies — becomes the probe
/// path's real serialization point. Huge pages shrink the slab to a
/// handful of TLB entries. Purely advisory: failure (non-Linux, THP
/// disabled) is ignored and everything still works on 4 KiB pages.
fn advise_hugepages(words: &[u64]) {
    #[cfg(target_os = "linux")]
    {
        const MADV_HUGEPAGE: i32 = 14;
        const PAGE: usize = 4096;
        mod libc_shim {
            extern "C" {
                pub fn madvise(addr: *mut core::ffi::c_void, length: usize, advice: i32) -> i32;
            }
        }
        let start = words.as_ptr() as usize;
        let end = start + words.len() * 8;
        let lo = start.next_multiple_of(PAGE);
        let hi = end & !(PAGE - 1);
        if hi > lo {
            // SAFETY: purely advisory syscall over a page-aligned range
            // inside this live allocation; the kernel never moves or
            // invalidates the memory.
            #[allow(unsafe_code)]
            unsafe {
                libc_shim::madvise(lo as *mut core::ffi::c_void, hi - lo, MADV_HUGEPAGE);
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = words;
}

/// Hints the prefetcher at `slice[at]` (into L1); an index past the end
/// — an empty slice included — is a no-op. The one prefetch hint: slab
/// rows ([`SharedShapeArray::prefetch_rows`]) and the metadata store's
/// buckets both go through it.
#[inline(always)]
pub fn prefetch_slot<T>(slice: &[T], at: usize) {
    let Some(slot) = slice.get(at) else {
        return;
    };
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure hint (no dereference) at a live element.
    #[allow(unsafe_code)]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch((slot as *const T).cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = slot;
}

/// Hints the prefetcher at a whole probe row (both cache lines when the
/// row spans more than one).
#[inline(always)]
fn prefetch_row(slab: &[u64], stride: usize, row: usize) {
    prefetch_slot(slab, row * stride);
    if stride > 8 {
        prefetch_slot(slab, row * stride + 8);
    }
}

impl<I: Copy + Eq + Hash> SharedShapeArray<I> {
    /// Creates an empty array whose slots will all use `shape`.
    ///
    /// # Panics
    ///
    /// Panics where [`with_capacity`](SharedShapeArray::with_capacity) does.
    #[must_use]
    pub fn new(shape: FilterShape) -> Self {
        Self::with_capacity(shape, 64)
    }

    /// Creates an empty array pre-sized for `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `shape.bits == 0`, `shape.hashes == 0`, or `shape.bits`
    /// does not fit in a `u32` (probe rows travel as `u32`s; see
    /// [`ProbeBatch::derive_rows_into`]).
    #[must_use]
    pub fn with_capacity(shape: FilterShape, capacity: usize) -> Self {
        assert!(shape.bits > 0, "filters must have at least one bit");
        assert!(shape.hashes > 0, "filters must use at least one hash");
        assert!(
            u32::try_from(shape.bits).is_ok(),
            "filter wider than u32 rows"
        );
        let stride = capacity.max(1).div_ceil(64);
        let slab = vec![0; shape.bits * stride];
        advise_hugepages(&slab);
        SharedShapeArray {
            shape,
            stride,
            slab,
            slots: Vec::new(),
            live: vec![0; stride],
            free: Vec::new(),
            index: HashMap::new(),
            items: Vec::new(),
        }
    }

    /// The shape shared by every slot.
    #[must_use]
    pub fn shape(&self) -> FilterShape {
        self.shape
    }

    /// Number of live slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` when no slot is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap footprint of the bit slab in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.slab.len() * 8
    }

    /// Live ids in slot order (insertion order when nothing was removed).
    pub fn ids(&self) -> impl Iterator<Item = I> + '_ {
        self.slots.iter().filter_map(|slot| *slot)
    }

    /// Live slots with their ids, in slot order. Slot `s` is bit `s % 64`
    /// of word `s / 64` of an [`and_rows`](SharedShapeArray::and_rows)
    /// result: a caller that maps its ids to slots once reads any id's
    /// verdict from that result with no id lookup.
    pub fn slot_ids(&self) -> impl Iterator<Item = (usize, I)> + '_ {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(slot, id)| id.map(|id| (slot, id)))
    }

    /// The ids of the live slots set in `words` — an
    /// [`and_rows`](SharedShapeArray::and_rows) result, or the same words
    /// of a twin array with this array's slot layout — in slot order.
    pub fn ids_in<'a>(&'a self, words: &'a [u64]) -> impl Iterator<Item = I> + 'a {
        let slots = words.iter().enumerate().flat_map(|(word, &bits)| {
            let mut remaining = bits;
            core::iter::from_fn(move || {
                let bit = (remaining != 0).then(|| remaining.trailing_zeros() as usize)?;
                remaining &= remaining - 1;
                Some(word * 64 + bit)
            })
        });
        slots.filter_map(|slot| self.id_at(slot))
    }

    /// The id whose filter `slot` holds, if the slot is live.
    fn id_at(&self, slot: usize) -> Option<I> {
        self.slots.get(slot).copied().flatten()
    }

    /// `true` if a slot for `id` is live.
    #[must_use]
    pub fn contains_id(&self, id: I) -> bool {
        self.slot_of(id).is_some()
    }

    /// `id`'s slot, if it is live. One id lookup: a hot path that asks
    /// about the same ids again maps them to slots once.
    #[must_use]
    pub fn slot_of(&self, id: I) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Doubles slot capacity, re-interleaving the slab.
    fn grow(&mut self) {
        let new_stride = self.stride * 2;
        let mut slab = vec![0u64; self.shape.bits * new_stride];
        advise_hugepages(&slab);
        for row in 0..self.shape.bits {
            let old = &self.slab[row * self.stride..(row + 1) * self.stride];
            slab[row * new_stride..row * new_stride + self.stride].copy_from_slice(old);
        }
        self.slab = slab;
        self.live.resize(new_stride, 0);
        self.stride = new_stride;
    }

    fn allocate_slot(&mut self, id: I) -> Result<usize, BloomError> {
        if self.contains_id(id) {
            return Err(BloomError::DuplicateId);
        }
        let slot = self.free.pop().unwrap_or(self.slots.len());
        self.occupy(slot, id);
        Ok(slot)
    }

    /// Gives the free (or not yet allocated) `slot` to `id`.
    fn occupy(&mut self, slot: usize, id: I) {
        while self.slots.len() <= slot {
            if self.slots.len() == self.stride * 64 {
                self.grow();
            }
            self.slots.push(None);
            self.items.push(0);
        }
        self.slots[slot] = Some(id);
        self.items[slot] = 0;
        self.live[slot / 64] |= 1 << (slot % 64);
        self.index.insert(id, slot);
    }

    /// Adds an empty filter slot for `id` and returns its slot.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::DuplicateId`] if `id` is already present.
    pub fn push(&mut self, id: I) -> Result<usize, BloomError> {
        self.allocate_slot(id)
    }

    /// Adds an empty filter slot for `id` at `slot`, which must be free
    /// or past the last slot: the array follows a slot layout a twin
    /// array decided (see *Twin arrays* in the module docs). Slots
    /// skipped on the way become free.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::DuplicateId`] if `id` is already present,
    /// [`BloomError::SlotTaken`] if another id holds `slot`.
    pub fn push_at(&mut self, id: I, slot: usize) -> Result<(), BloomError> {
        if self.contains_id(id) {
            return Err(BloomError::DuplicateId);
        }
        if self.id_at(slot).is_some() {
            return Err(BloomError::SlotTaken);
        }
        self.free.extend(self.slots.len()..slot);
        self.free.retain(|&free| free != slot);
        self.occupy(slot, id);
        Ok(())
    }

    /// Adds a slot for `id` holding a copy of `filter`'s bits.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IncompatibleFilters`] if `filter` does not
    /// match the array shape, or [`BloomError::DuplicateId`].
    pub fn push_filter(&mut self, id: I, filter: &BloomFilter) -> Result<(), BloomError> {
        self.check_shape(filter)?;
        let slot = self.allocate_slot(id)?;
        self.write_column(slot, filter);
        self.items[slot] = filter.item_count();
        Ok(())
    }

    /// Replaces the bits of `id`'s slot with `filter`'s.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IncompatibleFilters`] on a shape mismatch or
    /// [`BloomError::UnknownId`] if `id` is absent.
    pub fn replace_filter(&mut self, id: I, filter: &BloomFilter) -> Result<(), BloomError> {
        self.check_shape(filter)?;
        let slot = self.slot_of(id).ok_or(BloomError::UnknownId)?;
        self.clear_column(slot);
        self.write_column(slot, filter);
        self.items[slot] = filter.item_count();
        Ok(())
    }

    /// Removes `id`'s slot (zeroing its column); returns `false` when `id`
    /// was not present.
    pub fn remove(&mut self, id: I) -> bool {
        let Some(slot) = self.slot_of(id) else {
            return false;
        };
        self.clear_column(slot);
        self.slots[slot] = None;
        self.items[slot] = 0;
        self.live[slot / 64] &= !(1 << (slot % 64));
        self.free.push(slot);
        self.index.remove(&id);
        true
    }

    fn check_shape(&self, filter: &BloomFilter) -> Result<(), BloomError> {
        if filter.shape() == self.shape {
            Ok(())
        } else {
            Err(BloomError::IncompatibleFilters {
                left: self.shape,
                right: filter.shape(),
            })
        }
    }

    /// Writes many columns at once, each with
    /// [`replace_filter`](SharedShapeArray::replace_filter)'s semantics
    /// (its bits and its item count replace the slot's): the restore of a
    /// whole published slab in one pass over the rows.
    ///
    /// The slots of one slab word are loaded together. For each 64-bit
    /// word index of the filters, the words of up to 64 filters form a
    /// 64×64 bit block that one transpose turns into 64 slab rows,
    /// each written with one masked store — instead of one scattered
    /// read-modify-write per set bit and a full column pass per filter.
    /// An id named twice ends with its last filter, as sequential
    /// `replace_filter` calls would leave it.
    ///
    /// # Errors
    ///
    /// [`BloomError::IncompatibleFilters`] on a shape mismatch or
    /// [`BloomError::UnknownId`] for an absent id — both found before any
    /// column is touched.
    pub fn load_filters<'f>(
        &mut self,
        columns: impl IntoIterator<Item = (I, &'f BloomFilter)>,
    ) -> Result<(), BloomError> {
        let mut by_slot = Vec::new();
        for (id, filter) in columns {
            self.check_shape(filter)?;
            by_slot.push((self.slot_of(id).ok_or(BloomError::UnknownId)?, filter));
        }
        // Stable: a repeated slot keeps its call order, so the last wins.
        by_slot.sort_by_key(|&(slot, _)| slot);
        let bits = self.shape.bits;
        let mut block = [0u64; 64];
        for group in by_slot.chunk_by(|a, b| a.0 / 64 == b.0 / 64) {
            let word = group[0].0 / 64;
            let mut loaded = 0u64;
            for &(slot, filter) in group {
                loaded |= 1 << (slot % 64);
                self.items[slot] = filter.item_count();
            }
            for (w, first_row) in (0..bits).step_by(64).enumerate() {
                block.fill(0);
                for &(slot, filter) in group {
                    block[slot % 64] = filter.words()[w];
                }
                transpose64(&mut block);
                // A ragged last word's padding rows do not exist.
                let rows = (bits - first_row).min(64);
                for (row, &cells) in (first_row..).zip(&block[..rows]) {
                    let cell = &mut self.slab[row * self.stride + word];
                    *cell = (*cell & !loaded) | cells;
                }
            }
        }
        Ok(())
    }

    /// Transposes `filter`'s set bits into `slot`'s column.
    fn write_column(&mut self, slot: usize, filter: &BloomFilter) {
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        for (w, &src) in filter.words().iter().enumerate() {
            let mut remaining = src;
            while remaining != 0 {
                let row = w * 64 + remaining.trailing_zeros() as usize;
                self.slab[row * self.stride + word] |= bit;
                remaining &= remaining - 1;
            }
        }
    }

    fn clear_column(&mut self, slot: usize) {
        let (word, bit) = (slot / 64, !(1u64 << (slot % 64)));
        for row in 0..self.shape.bits {
            self.slab[row * self.stride + word] &= bit;
        }
    }

    /// The word holding bit `row` of column `slot`, and that bit.
    fn cell(&mut self, slot: usize, row: usize) -> (&mut u64, u64) {
        debug_assert!(row < self.shape.bits && slot < self.slots.len());
        (
            &mut self.slab[row * self.stride + slot / 64],
            1 << (slot % 64),
        )
    }

    /// Sets bit `row` of column `slot`; returns whether it was clear.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if `row` or `slot` is outside the array.
    pub fn set_cell(&mut self, slot: usize, row: usize) -> bool {
        let (cell, bit) = self.cell(slot, row);
        let flipped = *cell & bit == 0;
        *cell |= bit;
        flipped
    }

    /// Clears bit `row` of column `slot`.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if `row` or `slot` is outside the array.
    pub fn clear_cell(&mut self, slot: usize, row: usize) {
        let (cell, bit) = self.cell(slot, row);
        *cell &= !bit;
    }

    /// Copies columns from `source`, a twin array of this one's shape and
    /// slot layout, over the rows that may differ — the publish of a live
    /// array into the published one. Each origin is `(slot, blocks,
    /// items)`: bit `b` of `blocks` marks rows `64·b .. 64·b + 64` of the
    /// column at `slot` in both arrays; where a copy changed one of the
    /// column's 64-bit filter words, the slot's item count becomes
    /// `items`. Returns, per origin in call order, how many of its words
    /// changed — the size of the delta a replica would be sent.
    ///
    /// One pass over the marked blocks, however many origins share them.
    /// For each slab word and each 64 blocks, the origins' block bits are
    /// one 64×64 bit transpose: per block, the mask of origin slots to
    /// copy. Each row of a block is then one masked store, and the bits
    /// it flipped gather into a per-block mask that a second transpose
    /// turns back into one word per origin. A slot may be named once.
    ///
    /// # Errors
    ///
    /// [`BloomError::IncompatibleFilters`] on a shape mismatch,
    /// [`BloomError::UnknownId`] when a slot is not live in both arrays —
    /// both found before any cell is touched.
    pub fn copy_blocks_from(
        &mut self,
        source: &Self,
        origins: &[(usize, &[u64], usize)],
    ) -> Result<Vec<u32>, BloomError> {
        if source.shape != self.shape {
            return Err(BloomError::IncompatibleFilters {
                left: self.shape,
                right: source.shape,
            });
        }
        let mut by_slot = Vec::with_capacity(origins.len());
        for (at, &(slot, ..)) in origins.iter().enumerate() {
            if self.id_at(slot).is_none() || source.id_at(slot).is_none() {
                return Err(BloomError::UnknownId);
            }
            by_slot.push((slot, at));
        }
        by_slot.sort_unstable();
        let bits = self.shape.bits;
        let blocks = bits.div_ceil(64);
        let mut changed = vec![0u32; origins.len()];
        for group in by_slot.chunk_by(|a, b| a.0 / 64 == b.0 / 64) {
            let word = group[0].0 / 64;
            for first_block in (0..blocks).step_by(64) {
                let mut masks = [0u64; 64];
                for &(slot, at) in group {
                    masks[slot % 64] = origins[at].1.get(first_block / 64).copied().unwrap_or(0);
                }
                if masks.iter().all(|&mask| mask == 0) {
                    continue;
                }
                transpose64(&mut masks);
                let mut flipped = [0u64; 64];
                for (block, (&mask, flips)) in
                    (first_block..blocks).zip(masks.iter().zip(&mut flipped))
                {
                    if mask == 0 {
                        continue;
                    }
                    for row in block * 64..(block * 64 + 64).min(bits) {
                        let src = source.slab[row * source.stride + word];
                        let dst = &mut self.slab[row * self.stride + word];
                        let diff = (*dst ^ src) & mask;
                        *dst ^= diff;
                        *flips |= diff;
                    }
                }
                transpose64(&mut flipped);
                for &(slot, at) in group {
                    changed[at] += flipped[slot % 64].count_ones();
                }
            }
        }
        for (&(slot, _, items), &words) in origins.iter().zip(&changed) {
            if words != 0 {
                self.items[slot] = items;
            }
        }
        Ok(changed)
    }

    /// How many bits of column `slot` differ between this array and
    /// `other`, a twin of its shape and slot layout, within the 64-row
    /// blocks `blocks` marks (bit `b` ⇒ rows `64·b .. 64·b + 64`; marks
    /// past the last row are ignored) — the drift of a live column from
    /// its published one, paid only where it can be.
    ///
    /// # Panics
    ///
    /// Panics if `other` has another shape or `slot` is outside either
    /// array.
    #[must_use]
    pub fn column_distance(&self, other: &Self, slot: usize, blocks: &[u64]) -> usize {
        assert_eq!(self.shape, other.shape, "twin arrays share a shape");
        let (word, bit) = (slot / 64, slot % 64);
        let rows = self.shape.bits;
        let mut distance = 0;
        for (first_block, &marks) in (0..rows.div_ceil(64)).step_by(64).zip(blocks) {
            let mut remaining = marks;
            while remaining != 0 {
                let first = (first_block + remaining.trailing_zeros() as usize) * 64;
                remaining &= remaining - 1;
                for row in first..(first + 64).min(rows) {
                    let a = self.slab[row * self.stride + word];
                    let b = other.slab[row * other.stride + word];
                    distance += ((a ^ b) >> bit & 1) as usize;
                }
            }
        }
        distance
    }

    /// Reads many columns at once, as standalone filters in call order:
    /// the inverse of [`load_filters`](SharedShapeArray::load_filters).
    /// For each 64-bit word index of the filters, the slab words of up to
    /// 64 slots form a 64×64 bit block that one transpose turns
    /// into one word of each filter — instead of one strided pass over
    /// every row per column.
    ///
    /// # Errors
    ///
    /// [`BloomError::UnknownId`] for an absent id.
    pub fn extract_filters(
        &self,
        ids: impl IntoIterator<Item = I>,
    ) -> Result<Vec<BloomFilter>, BloomError> {
        let FilterShape { bits, hashes, seed } = self.shape;
        let mut by_slot = Vec::new();
        let mut filters = Vec::new();
        for (at, id) in ids.into_iter().enumerate() {
            let slot = self.slot_of(id).ok_or(BloomError::UnknownId)?;
            by_slot.push((slot, at));
            let mut filter = BloomFilter::new(bits, hashes, seed);
            filter.set_items(self.items[slot]);
            filters.push(filter);
        }
        by_slot.sort_unstable();
        let mut block = [0u64; 64];
        for group in by_slot.chunk_by(|a, b| a.0 / 64 == b.0 / 64) {
            let word = group[0].0 / 64;
            for (w, first_row) in (0..bits).step_by(64).enumerate() {
                block.fill(0);
                // A ragged last word's padding rows do not exist.
                for (cells, row) in block.iter_mut().zip(first_row..bits) {
                    *cells = self.slab[row * self.stride + word];
                }
                transpose64(&mut block);
                for &(slot, at) in group {
                    filters[at].words_mut()[w] = block[slot % 64];
                }
            }
        }
        Ok(filters)
    }

    /// Reconstructs `id`'s slot as a standalone [`BloomFilter`].
    #[must_use]
    pub fn extract(&self, id: I) -> Option<BloomFilter> {
        let slot = self.slot_of(id)?;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        let mut filter = BloomFilter::new(self.shape.bits, self.shape.hashes, self.shape.seed);
        for row in 0..self.shape.bits {
            if self.slab[row * self.stride + word] & bit != 0 {
                filter.words_mut()[row / 64] |= 1 << (row % 64);
            }
        }
        filter.set_items(self.items[slot]);
        Some(filter)
    }

    /// Sets `item`'s bits in `id`'s slot.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::UnknownId`] if `id` is absent.
    pub fn insert<T: Hash + ?Sized>(&mut self, id: I, item: &T) -> Result<(), BloomError> {
        self.insert_fp(id, &Fingerprint::of(item))
    }

    /// Hash-once variant of [`insert`](SharedShapeArray::insert).
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::UnknownId`] if `id` is absent.
    pub fn insert_fp(&mut self, id: I, fp: &Fingerprint) -> Result<(), BloomError> {
        let slot = self.slot_of(id).ok_or(BloomError::UnknownId)?;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        for row in fp.probes(self.shape.seed, self.shape.bits, self.shape.hashes) {
            self.slab[row * self.stride + word] |= bit;
        }
        self.items[slot] += 1;
        Ok(())
    }

    /// A mask selecting the live slots of the given ids (unknown ids are
    /// ignored).
    pub fn subset_mask<T: IntoIterator<Item = I>>(&self, ids: T) -> SlotMask {
        let mut words = vec![0u64; self.stride];
        for id in ids {
            if let Some(slot) = self.slot_of(id) {
                words[slot / 64] |= 1 << (slot % 64);
            }
        }
        SlotMask { words }
    }

    /// A mask selecting every live slot except `id`'s.
    #[must_use]
    pub fn mask_all_except(&self, id: I) -> SlotMask {
        let mut words = self.live.clone();
        if let Some(slot) = self.slot_of(id) {
            words[slot / 64] &= !(1 << (slot % 64));
        }
        SlotMask { words }
    }

    /// Probes every live slot with `item` and classifies the positives.
    #[must_use]
    pub fn query<T: Hash + ?Sized>(&self, item: &T) -> Hit<I> {
        self.query_fp(&Fingerprint::of(item))
    }

    /// Hash-once probe of every live slot: `k × stride` word loads plus an
    /// AND-reduction, regardless of how many filters the array holds.
    #[must_use]
    pub fn query_fp(&self, fp: &Fingerprint) -> Hit<I> {
        self.classify(&self.and_fp(fp))
    }

    /// [`query_fp`](SharedShapeArray::query_fp) with only the slots of
    /// `ids` as candidates (through a transient mask) — the reference a
    /// row-AND read under a mask
    /// ([`positives_under`](SharedShapeArray::positives_under)) is tested
    /// against.
    pub fn query_fp_among<T: IntoIterator<Item = I>>(&self, fp: &Fingerprint, ids: T) -> Hit<I> {
        let mask = self.subset_mask(ids);
        let mut anded = self.and_fp(fp);
        for (word, candidates) in anded.iter_mut().zip(&mask.words) {
            *word &= candidates;
        }
        self.classify(&anded)
    }

    /// Resolves a whole [`ProbeBatch`], returning one [`Hit`] per queued
    /// fingerprint, in push order.
    ///
    /// Answers are **bit-identical** to calling [`query_fp`] once per
    /// fingerprint (the property tests assert it). The work is the
    /// cluster's pinned walk's, primitive for primitive: every probe row
    /// derived up front ([`ProbeBatch::derive_rows_into`]), the rows of
    /// the item two ahead prefetched
    /// ([`prefetch_rows`](SharedShapeArray::prefetch_rows)), and one
    /// row-AND per item ([`and_rows`](SharedShapeArray::and_rows)) — so
    /// timing this times the production kernel. The batch's scratch is
    /// reused across calls; only the result vector is allocated.
    ///
    /// [`query_fp`]: SharedShapeArray::query_fp
    #[must_use]
    pub fn query_batch(&self, batch: &mut ProbeBatch) -> Vec<Hit<I>> {
        let ProbeBatch { fps, rows, anded } = batch;
        derive_rows(fps, self.shape, rows);
        let k = self.shape.hashes as usize;
        let mut hits = Vec::with_capacity(fps.len());
        for at in 0..fps.len() {
            if let Some(ahead) = rows.get((at + 2) * k..(at + 3) * k) {
                self.prefetch_rows(ahead);
            }
            let item = &rows[at * k..(at + 1) * k];
            self.and_rows(item.iter().map(|&row| row as usize), anded);
            hits.push(self.classify(anded));
        }
        hits
    }

    /// Hints the cache at the probe rows of an upcoming
    /// [`and_rows`](SharedShapeArray::and_rows) (rows outside the array
    /// are ignored): a caller that derived a whole run's rows up front
    /// issues this an item or two ahead, so the reduction finds its `k`
    /// scattered lines in L1 whether or not the slab still sits in this
    /// core's cache — which on a shared host is not the caller's to decide.
    pub fn prefetch_rows(&self, rows: &[u32]) {
        for &row in rows {
            if (row as usize) < self.shape.bits {
                prefetch_row(&self.slab, self.stride, row as usize);
            }
        }
    }

    /// The unmasked row-AND of one probe: fills `out` (resized to the
    /// array's stride) with `live ∧ rows[0] ∧ … ∧ rows[k-1]` and returns
    /// whether any slot survived (`false` = early exit, `out` all zero).
    /// `rows` are the item's probe rows for this array's shape
    /// ([`Fingerprint::probes`] or [`ProbeBatch::derive_rows_into`]).
    ///
    /// Because the reduction is monotone — `(mask ∧ live) ∧ rows ==
    /// mask ∧ (live ∧ rows)` — one such pass answers the item under
    /// *every* candidate mask: read each with
    /// [`positives_under`](SharedShapeArray::positives_under).
    pub fn and_rows<R>(&self, rows: R, out: &mut Vec<u64>) -> bool
    where
        R: IntoIterator<Item = usize>,
    {
        out.clear();
        out.extend_from_slice(&self.live);
        if self.stride == 1 {
            // Arrays of up to 64 slots: the whole mask lives in one
            // register.
            let mut mask = out[0];
            for row in rows {
                if mask == 0 {
                    break;
                }
                mask &= self.slab[row];
            }
            out[0] = mask;
            return mask != 0;
        }
        for row in rows {
            let slice = &self.slab[row * self.stride..(row + 1) * self.stride];
            if and_reduce_into(out, slice) == 0 {
                return false;
            }
        }
        true
    }

    /// The positives of an [`and_rows`](SharedShapeArray::and_rows)
    /// result under `mask`: how many slots of `anded ∧ mask` are set, and
    /// the id of the slot when exactly one is — the count and unique
    /// candidate [`query_fp_among`](SharedShapeArray::query_fp_among)
    /// reports for the mask's slots, without materializing a [`Hit`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` predates a capacity growth of this array.
    #[must_use]
    pub fn positives_under(&self, anded: &[u64], mask: &SlotMask) -> (u32, Option<I>) {
        assert_eq!(
            mask.words.len(),
            self.stride,
            "SlotMask predates a capacity growth; rebuild it"
        );
        let (positives, slot) = tally_bits(anded.iter().zip(&mask.words).map(|(a, m)| a & m));
        let unique = (positives == 1).then(|| self.slots[slot].expect("live slot has an id"));
        (positives, unique)
    }

    /// [`and_rows`](SharedShapeArray::and_rows) over `fp`'s own
    /// (division-derived) probe sequence.
    fn and_fp(&self, fp: &Fingerprint) -> Vec<u64> {
        let mut anded = Vec::with_capacity(self.stride);
        let rows = fp.probes(self.shape.seed, self.shape.bits, self.shape.hashes);
        self.and_rows(rows, &mut anded);
        anded
    }

    fn classify(&self, mask: &[u64]) -> Hit<I> {
        match tally_bits(mask.iter().copied()) {
            (0, _) => Hit::None,
            (1, slot) => Hit::Unique(self.slots[slot].expect("live slot has an id")),
            _ => Hit::Multiple(self.ids_in(mask).collect()),
        }
    }
}

/// Two arrays are equal when their shape, capacity, slot assignment, free
/// list, columns and item counts are (the id index follows from the
/// slots).
impl<I: Copy + Eq + Hash> PartialEq for SharedShapeArray<I> {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && self.stride == other.stride
            && self.slots == other.slots
            && self.free == other.free
            && self.live == other.live
            && self.items == other.items
            && self.slab == other.slab
    }
}

impl<I: Copy + Eq + Hash> Eq for SharedShapeArray<I> {}

/// Transposes a 64×64 bit matrix in place: bit `j` of `block[i]` becomes
/// bit `i` of `block[j]`. Six rounds of block swaps — 32×32 quadrants,
/// then 16×16, … down to single bits — each a mask-and-shift over 32
/// word pairs (Hacker's Delight §7-3, least-significant bit first).
fn transpose64(block: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while width != 0 {
        // Row `k` of each `2 × width` run pairs with row `k + width`.
        for run in block.chunks_exact_mut(2 * width) {
            let (low, high) = run.split_at_mut(width);
            for (a, b) in low.iter_mut().zip(high) {
                let swap = ((*a >> width) ^ *b) & mask;
                *b ^= swap;
                *a ^= swap << width;
            }
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// One pass over a surviving-slot mask: its popcount and the lowest slot
/// of its last non-zero word (for a unique hit, the hit).
fn tally_bits(words: impl Iterator<Item = u64>) -> (u32, usize) {
    let mut positives = 0u32;
    let mut slot = 0usize;
    for (word, bits) in words.enumerate() {
        if bits != 0 {
            positives += bits.count_ones();
            slot = word * 64 + bits.trailing_zeros() as usize;
        }
    }
    (positives, slot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> FilterShape {
        FilterShape {
            bits: 4096,
            hashes: 5,
            seed: 11,
        }
    }

    fn array_with(entries: &[(u16, &[&str])]) -> SharedShapeArray<u16> {
        let mut array = SharedShapeArray::new(shape());
        for &(id, items) in entries {
            array.push(id).unwrap();
            for item in items {
                array.insert(id, item).unwrap();
            }
        }
        array
    }

    /// A prefetch is a hint: rows past the array are skipped, not read,
    /// and so is a slot past the end of a slice, or of an empty one.
    #[test]
    fn prefetch_rows_ignores_rows_outside_the_array() {
        let array = array_with(&[(1, &["a"])]);
        let bits = shape().bits as u32;
        array.prefetch_rows(&[0, bits - 1, bits, u32::MAX]);
        assert_eq!(array.query("a"), Hit::Unique(1));
        let words = [7u64; 3];
        for at in [0, 2, 3, usize::MAX] {
            prefetch_slot(&words, at);
            prefetch_slot::<u64>(&[], at);
        }
        assert_eq!(words, [7; 3]);
    }

    #[test]
    fn unique_hit_names_the_home() {
        let array = array_with(&[(1, &["a", "b"]), (2, &["c"])]);
        assert_eq!(array.query("c"), Hit::Unique(2));
        assert_eq!(array.query("a"), Hit::Unique(1));
        assert_eq!(array.query("missing"), Hit::None);
    }

    #[test]
    fn multiple_hits_reported_in_slot_order() {
        let array = array_with(&[(5, &["dup"]), (3, &["dup"])]);
        match array.query("dup") {
            Hit::Multiple(ids) => assert_eq!(ids, vec![5, 3]),
            other => panic!("expected multiple, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut array = array_with(&[(1, &[])]);
        assert_eq!(array.push(1), Err(BloomError::DuplicateId));
    }

    #[test]
    fn mismatched_filter_shape_rejected() {
        let mut array = SharedShapeArray::<u16>::new(shape());
        let alien = BloomFilter::new(128, 2, 9);
        assert!(matches!(
            array.push_filter(1, &alien),
            Err(BloomError::IncompatibleFilters { .. })
        ));
    }

    #[test]
    fn push_filter_transposes_bits() {
        let mut filter = BloomFilter::new(4096, 5, 11);
        for item in ["x", "y", "z"] {
            filter.insert(item);
        }
        let mut array = SharedShapeArray::new(shape());
        array.push_filter(7u16, &filter).unwrap();
        for item in ["x", "y", "z"] {
            assert_eq!(array.query(item), Hit::Unique(7));
        }
        assert_eq!(array.extract(7).unwrap(), filter);
        // A column past the first word of slots (after a growth), too.
        for id in 100u16..170 {
            array.push(id).unwrap();
        }
        array.push_filter(8u16, &filter).unwrap();
        assert_eq!(array.query("y"), Hit::Multiple(vec![7, 8]));
        assert_eq!(array.extract(8).unwrap(), filter);
        assert_eq!(array.extract(7).unwrap(), filter);
    }

    #[test]
    fn replace_filter_swaps_column() {
        let mut old = BloomFilter::new(4096, 5, 11);
        old.insert("old");
        let mut new = BloomFilter::new(4096, 5, 11);
        new.insert("new");
        let mut array = SharedShapeArray::new(shape());
        array.push_filter(1u16, &old).unwrap();
        array.replace_filter(1u16, &new).unwrap();
        assert_eq!(array.query("new"), Hit::Unique(1));
        assert_eq!(array.query("old"), Hit::None);
        assert_eq!(array.replace_filter(9, &new), Err(BloomError::UnknownId));
    }

    #[test]
    fn remove_clears_column_before_reuse() {
        let mut array = array_with(&[(1, &["ghost"])]);
        assert!(array.remove(1));
        assert!(!array.remove(1));
        assert!(array.is_empty());
        array.push(2).unwrap();
        // Slot 0 is recycled; the ghost's bits must be gone.
        assert_eq!(array.query("ghost"), Hit::None);
        assert_eq!(array.len(), 1);
    }

    #[test]
    fn growth_past_64_slots_preserves_answers() {
        let mut array = SharedShapeArray::new(shape());
        for id in 0u16..130 {
            array.push(id).unwrap();
            array.insert(id, &format!("file-{id}")).unwrap();
        }
        assert_eq!(array.len(), 130);
        for id in 0u16..130 {
            let hit = array.query(&format!("file-{id}"));
            assert!(
                hit.candidates().contains(&id),
                "lost {id} after growth: {hit:?}"
            );
        }
    }

    /// `slot_ids` names the bit of each id's verdict in a row-AND: past
    /// the first word, and in a recycled slot.
    #[test]
    fn slot_ids_locate_each_verdict_in_a_row_and() {
        let mut array = SharedShapeArray::new(shape());
        for id in 0u16..70 {
            array.push(id).unwrap();
        }
        assert!(array.remove(3));
        array.push(300).unwrap();
        for id in array.ids().collect::<Vec<_>>() {
            array.insert(id, &format!("file-{id}")).unwrap();
        }
        let slots: Vec<(usize, u16)> = array.slot_ids().collect();
        assert!(slots.contains(&(3, 300)), "the freed slot is reused");
        let ids: Vec<u16> = slots.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, array.ids().collect::<Vec<_>>());
        let mut anded = Vec::new();
        for (slot, id) in slots {
            let fp = Fingerprint::of(&format!("file-{id}"));
            let shape = shape();
            array.and_rows(fp.probes(shape.seed, shape.bits, shape.hashes), &mut anded);
            assert_eq!(anded[slot / 64] >> (slot % 64) & 1, 1, "{id} at {slot}");
        }
    }

    #[test]
    fn masked_query_restricts_candidates() {
        let array = array_with(&[(1, &["dup"]), (2, &["dup"]), (3, &[])]);
        let fp = Fingerprint::of("dup");
        assert_eq!(array.query_fp_among(&fp, [1u16]), Hit::Unique(1));
        assert_eq!(array.query_fp_among(&fp, [3u16]), Hit::None);
        let mask = array.mask_all_except(1);
        assert_eq!(mask.len(), 2);
        let (shape, mut anded) = (shape(), Vec::new());
        array.and_rows(fp.probes(shape.seed, shape.bits, shape.hashes), &mut anded);
        assert_eq!(array.positives_under(&anded, &mask), (1, Some(2)));
    }

    /// Every duplicate gets its own answer: the batch merges nothing,
    /// whatever repeats in it.
    #[test]
    fn query_batch_answers_every_duplicate() {
        let array = array_with(&[(1, &["hot", "x"]), (2, &["cold"]), (3, &["hot"])]);
        let hot = Fingerprint::of("hot");
        let cold = Fingerprint::of("cold");
        let mut batch = ProbeBatch::new();
        // One fingerprint twice, with a distinct fingerprint in between.
        batch.push(hot);
        batch.push(cold);
        batch.push(hot);
        let hits = array.query_batch(&mut batch);
        assert_eq!(
            hits,
            vec![
                Hit::Multiple(vec![1, 3]),
                Hit::Unique(2),
                Hit::Multiple(vec![1, 3]),
            ]
        );
    }

    #[test]
    fn hit_candidates_accessor() {
        let hit = Hit::Multiple(vec![1u32, 2]);
        assert_eq!(hit.candidates(), &[1, 2]);
        assert!(Hit::<u32>::None.candidates().is_empty());
        assert_eq!(Hit::Unique(9u32).candidates(), &[9]);
        assert_eq!(Hit::Unique(9u32).unique(), Some(&9));
        assert!(Hit::Unique(9u32).is_unique());
    }

    /// A twin follows its leader's slots: past the first word (the skipped
    /// slots become free), into a freed slot, and never into a taken one.
    #[test]
    fn push_at_follows_a_twin_layout() {
        let mut leader = SharedShapeArray::new(shape());
        let mut twin = SharedShapeArray::new(shape());
        for id in 0u16..70 {
            let slot = leader.push(id).unwrap();
            if id % 3 != 1 {
                twin.push_at(id, slot).unwrap();
            }
        }
        assert!(leader.remove(5));
        assert!(twin.remove(5));
        let slot = leader.push(500).unwrap();
        assert_eq!(slot, 5, "the leader recycles the freed slot");
        twin.push_at(500, slot).unwrap();
        for id in (1u16..70).step_by(3) {
            twin.push_at(id, leader.slot_of(id).unwrap()).unwrap();
        }
        let pairs = |array: &SharedShapeArray<u16>| array.slot_ids().collect::<Vec<_>>();
        assert_eq!(pairs(&twin), pairs(&leader));
        assert_eq!(twin.push_at(900, 5), Err(BloomError::SlotTaken));
        assert_eq!(twin.push_at(500, 80), Err(BloomError::DuplicateId));
        // A slot far past the end grows the array and frees the gap.
        twin.push_at(901, 200).unwrap();
        assert_eq!(twin.push(902).unwrap(), 199, "the gap is free");
    }

    /// Cell writes land in their column only, report a flip once, and
    /// `ids_in` names the slots set in a row-AND.
    #[test]
    fn cell_writes_and_ids_in() {
        let mut array = array_with(&[(1, &[]), (2, &[]), (3, &["x"])]);
        let rows: Vec<usize> = Fingerprint::of("x")
            .probes(shape().seed, shape().bits, shape().hashes)
            .collect();
        let slot = array.slot_of(1).unwrap();
        let flips: Vec<bool> = rows.iter().map(|&row| array.set_cell(slot, row)).collect();
        assert!(flips.iter().any(|&flip| flip));
        assert!(rows.iter().all(|&row| !array.set_cell(slot, row)));
        let mut anded = Vec::new();
        array.and_rows(rows.iter().copied(), &mut anded);
        assert_eq!(array.ids_in(&anded).collect::<Vec<_>>(), vec![1, 3]);
        for &row in &rows {
            array.clear_cell(slot, row);
        }
        assert_eq!(array.query("x"), Hit::Unique(3));
    }

    /// The masked copy against its reference — extract both columns, copy
    /// the marked rows one by one, diff word by word: ragged 1000-bit
    /// shape, stride 2, origins sharing blocks and slab words, an origin
    /// whose marked blocks hold no difference, an unmarked difference
    /// left alone, item counts moving only with a changed word.
    #[test]
    fn copy_blocks_matches_a_row_by_row_reference() {
        let shape = FilterShape {
            bits: 1000,
            hashes: 4,
            seed: 2,
        };
        let filter_of = |tag: u32, n: u32| {
            let mut filter = BloomFilter::new(shape.bits, shape.hashes, shape.seed);
            for i in 0..n {
                filter.insert(&format!("{tag}/{i}"));
            }
            filter
        };
        let (mut published, mut live) =
            (SharedShapeArray::new(shape), SharedShapeArray::new(shape));
        for id in 0u16..100 {
            published
                .push_filter(id, &filter_of(u32::from(id), 20))
                .unwrap();
            live.push_filter(id, &filter_of(u32::from(id) + u32::from(id % 4 != 0), 25))
                .unwrap();
        }
        let blocks = shape.bits.div_ceil(64);
        let marks = |pick: fn(usize) -> bool| -> Vec<u64> {
            let mut words = vec![0u64; blocks.div_ceil(64)];
            for block in (0..blocks).filter(|&b| pick(b)) {
                words[block / 64] |= 1 << (block % 64);
            }
            words
        };
        let all = marks(|_| true);
        let odd = marks(|b| b % 2 == 1);
        let origins: Vec<(usize, &[u64], usize)> = vec![
            (3, &all, 31),
            (64, &odd, 32),
            (70, &all, 33),
            (8, &all, 34), // id 8: live == published
            (99, &odd, 35),
        ];
        let (live_8, published_8) = (live.extract(8).unwrap(), published.extract(8).unwrap());
        live.replace_filter(8, &published_8).unwrap();
        let mut expected = published.clone();
        let mut want = Vec::new();
        for &(slot, marked, items) in &origins {
            let id = slot as u16;
            let (from, mut to) = (live.extract(id).unwrap(), expected.extract(id).unwrap());
            let before = to.words().to_vec();
            for row in 0..shape.bits {
                if marked[row / 64 / 64] >> (row / 64 % 64) & 1 == 1 {
                    let bit = 1 << (row % 64);
                    to.words_mut()[row / 64] =
                        (to.words()[row / 64] & !bit) | (from.words()[row / 64] & bit);
                }
            }
            let words = before
                .iter()
                .zip(to.words())
                .filter(|(a, b)| a != b)
                .count();
            if words > 0 {
                to.set_items(items);
            }
            expected.replace_filter(id, &to).unwrap();
            want.push(words as u32);
        }
        assert_ne!(live_8, published_8, "a differing column made equal");
        assert_eq!(want[3], 0);
        assert_eq!(published.copy_blocks_from(&live, &origins), Ok(want));
        assert!(published == expected);
        assert_ne!(published.extract(99), live.extract(99), "odd blocks only");

        assert_eq!(
            published.copy_blocks_from(&live, &[(100, &all, 0)]),
            Err(BloomError::UnknownId)
        );
        let alien = SharedShapeArray::<u16>::new(FilterShape { bits: 128, ..shape });
        assert!(matches!(
            published.copy_blocks_from(&alien, &[]),
            Err(BloomError::IncompatibleFilters { .. })
        ));
    }

    /// The distance over marked blocks counts exactly the differing bits
    /// those blocks hold.
    #[test]
    fn column_distance_counts_marked_differences() {
        let mut a = array_with(&[(1, &["p", "q"]), (2, &["r"])]);
        let b = array_with(&[(1, &["p"]), (2, &["r", "s"])]);
        let all = vec![u64::MAX; 4096usize.div_ceil(64).div_ceil(64)];
        let full = |a: &SharedShapeArray<u16>, id| {
            let theirs = b.extract(id).unwrap();
            a.extract(id).unwrap().xor_distance(&theirs).unwrap()
        };
        a.insert(1, "t").unwrap();
        for id in [1, 2] {
            let slot = a.slot_of(id).unwrap();
            assert!(full(&a, id) > 0);
            assert_eq!(a.column_distance(&b, slot, &all), full(&a, id));
            assert_eq!(a.column_distance(&b, slot, &vec![0; all.len()]), 0);
        }
    }

    /// One bulk extraction equals `extract` per id, in call order, across
    /// two slab words and a ragged last filter word.
    #[test]
    fn extract_filters_matches_extract_per_column() {
        let shape = FilterShape {
            bits: 1000,
            hashes: 4,
            seed: 6,
        };
        let mut array = SharedShapeArray::new(shape);
        for id in 0u16..90 {
            let mut filter = BloomFilter::new(shape.bits, shape.hashes, shape.seed);
            for i in 0..u32::from(id % 7) * 9 {
                filter.insert(&(id, i));
            }
            array.push_filter(id, &filter).unwrap();
        }
        let ids = [70u16, 3, 89, 0, 64, 3];
        let got = array.extract_filters(ids).unwrap();
        let want: Vec<BloomFilter> = ids.iter().map(|&id| array.extract(id).unwrap()).collect();
        assert_eq!(got, want);
        assert_eq!(array.extract_filters([1, 500]), Err(BloomError::UnknownId));
    }

    /// The transpose against its definition, one bit at a time, on the
    /// identity, single bits, full rows and a pseudo-random block — and
    /// twice is the identity.
    #[test]
    fn transpose64_matches_the_bitwise_reference() {
        let reference = |block: &[u64; 64]| {
            let mut out = [0u64; 64];
            for (i, &word) in block.iter().enumerate() {
                for (j, cell) in out.iter_mut().enumerate() {
                    *cell |= (word >> j & 1) << i;
                }
            }
            out
        };
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut random = [0u64; 64];
        for word in &mut random {
            x = crate::hash::splitmix64(x);
            *word = x;
        }
        let identity: [u64; 64] = core::array::from_fn(|i| 1 << i);
        let single: [u64; 64] = core::array::from_fn(|i| u64::from(i == 5) << 62);
        let row: [u64; 64] = core::array::from_fn(|i| if i == 63 { u64::MAX } else { 0 });
        for block in [identity, single, row, random, [0; 64], [u64::MAX; 64]] {
            let mut got = block;
            transpose64(&mut got);
            assert_eq!(got, reference(&block));
            transpose64(&mut got);
            assert_eq!(got, block);
        }
    }

    /// One bulk load of columns across two slab words — a ragged 1000-bit
    /// shape, a recycled slot, a column loaded over old bits and one id
    /// named twice — equals one `replace_filter` per column; nothing is
    /// touched when any column is refused.
    #[test]
    fn load_filters_matches_replace_per_column() {
        let shape = FilterShape {
            bits: 1000,
            hashes: 4,
            seed: 2,
        };
        let filter_of = |tag: u32, n: u32| {
            let mut filter = BloomFilter::new(shape.bits, shape.hashes, shape.seed);
            for i in 0..n {
                filter.insert(&format!("{tag}/{i}"));
            }
            filter
        };
        let mut array = SharedShapeArray::new(shape);
        for id in 0u16..100 {
            array
                .push_filter(id, &filter_of(u32::from(id), 30))
                .unwrap();
        }
        array.remove(7);
        array.push(200).unwrap(); // recycles slot 7
        let load: Vec<(u16, BloomFilter)> = [(3, 40), (200, 20), (70, 0), (99, 60), (3, 10)]
            .into_iter()
            .map(|(id, n)| (id, filter_of(1_000 + u32::from(id), n)))
            .collect();
        let mut expected = array.clone();
        for (id, filter) in &load {
            expected.replace_filter(*id, filter).unwrap();
        }
        let before = array.clone();
        let alien = BloomFilter::new(128, 2, 9);
        assert!(matches!(
            array.load_filters([(3, &load[0].1), (4, &alien)]),
            Err(BloomError::IncompatibleFilters { .. })
        ));
        assert_eq!(
            array.load_filters([(3, &load[0].1), (500, &load[0].1)]),
            Err(BloomError::UnknownId)
        );
        assert!(array == before, "a refused load touches nothing");
        array
            .load_filters(load.iter().map(|(id, filter)| (*id, filter)))
            .unwrap();
        assert!(array == expected);
        assert_eq!(array.extract(3).unwrap(), load[4].1, "the last load wins");
    }

    #[test]
    fn fastmod_matches_hardware_remainder() {
        for d in [1u64, 2, 3, 5, 63, 64, 4096, 32_000, 320_001, u64::MAX] {
            let fm = FastMod::new(d);
            for n in [
                0u64,
                1,
                d - 1,
                d,
                d.wrapping_add(1),
                d.wrapping_mul(977).wrapping_add(12),
                0x9E37_79B9_7F4A_7C15,
                u64::MAX,
                u64::MAX - 1,
            ] {
                assert_eq!(fm.rem(n), n % d, "n={n} d={d}");
            }
            // A pseudo-random sweep per modulus.
            let mut x = 0x243F_6A88_85A3_08D3u64;
            for _ in 0..10_000 {
                x = crate::hash::splitmix64(x);
                assert_eq!(fm.rem(x), x % d, "n={x} d={d}");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_queries() {
        let array = array_with(&[(1, &["a", "dup"]), (2, &["b", "dup"]), (3, &[])]);
        let items = ["a", "b", "dup", "missing"];
        let mut batch = ProbeBatch::new();
        for item in items {
            batch.push(Fingerprint::of(item));
        }
        let hits = array.query_batch(&mut batch);
        for (item, hit) in items.iter().zip(&hits) {
            assert_eq!(*hit, array.query(item), "batch diverged on {item}");
        }
    }

    #[test]
    fn empty_batch_returns_nothing() {
        let array = array_with(&[(1, &["a"])]);
        assert!(array.query_batch(&mut ProbeBatch::new()).is_empty());
    }

    #[test]
    fn batch_survives_growth_and_removal() {
        let mut array = SharedShapeArray::new(shape());
        for id in 0u16..130 {
            array.push(id).unwrap();
            array.insert(id, &format!("file-{id}")).unwrap();
        }
        array.remove(64);
        let mut batch = ProbeBatch::with_capacity(130);
        for id in 0u16..130 {
            batch.push(Fingerprint::of(&format!("file-{id}")));
        }
        let hits = array.query_batch(&mut batch);
        for (id, hit) in (0u16..130).zip(&hits) {
            assert_eq!(
                *hit,
                array.query(&format!("file-{id}")),
                "batch diverged on {id} after growth/removal"
            );
        }
        assert_eq!(hits[64], Hit::None);
    }

    #[test]
    fn batch_reuse_after_clear() {
        let array = array_with(&[(1, &["a"]), (2, &["b"])]);
        let mut batch = ProbeBatch::new();
        batch.push(Fingerprint::of("a"));
        assert_eq!(array.query_batch(&mut batch), vec![Hit::Unique(1)]);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.push(Fingerprint::of("b")), 0);
        assert_eq!(array.query_batch(&mut batch), vec![Hit::Unique(2)]);
    }

    /// Probe rows travel as `u32`s, so a wider filter is refused where the
    /// slab is built (before its allocation), not on the first lookup.
    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "filter wider than u32 rows")]
    fn shape_wider_than_u32_rows_is_refused_at_construction() {
        let shape = FilterShape {
            bits: u32::MAX as usize + 1,
            ..shape()
        };
        let _ = SharedShapeArray::<u16>::with_capacity(shape, 64);
    }

    #[test]
    fn memory_matches_n_filters() {
        let mut array = SharedShapeArray::<u16>::new(shape());
        for id in 0..64u16 {
            array.push(id).unwrap();
        }
        // 64 slots × 4096 bits = one u64 per row.
        assert_eq!(array.memory_bytes(), 4096 * 8);
    }

    /// The read-sharing seam end to end: N threads probe one slab
    /// concurrently, each with its own `ProbeBatch`, and
    /// every thread's batched answers equal the sequential reference.
    #[test]
    fn concurrent_query_batches_match_sequential() {
        let mut array = SharedShapeArray::<u16>::new(shape());
        for id in 0..96u16 {
            array.push(id).unwrap();
            for item in 0..40u32 {
                array.insert(id, &format!("/c/{id}/{item}")).unwrap();
            }
        }
        let fps: Vec<Fingerprint> = (0..96u16)
            .flat_map(|id| (0..3u32).map(move |item| Fingerprint::of(&format!("/c/{id}/{item}"))))
            .collect();
        let expected: Vec<Hit<u16>> = fps.iter().map(|fp| array.query_fp(fp)).collect();
        let array = &array;
        let fps = &fps;
        let expected = &expected;
        std::thread::scope(|scope| {
            for worker in 0..4 {
                scope.spawn(move || {
                    let mut batch = ProbeBatch::with_capacity(fps.len());
                    for _ in 0..3 {
                        batch.clear();
                        for fp in fps {
                            batch.push(*fp);
                        }
                        let hits = array.query_batch(&mut batch);
                        assert_eq!(&hits, expected, "worker {worker} diverged");
                    }
                });
            }
        });
    }
}
