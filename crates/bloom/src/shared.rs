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
//!   a `SharedShapeArray` answers exactly like a [`BloomFilterArray`] built
//!   from the same inserts (the property tests assert this).
//! * Freed slots are zeroed immediately and masked out of every query, so
//!   recycling a slot can never leak a predecessor's bits.
//!
//! # Concurrency
//!
//! The probe seam is deliberately **read-shared**: every query entry
//! point ([`SharedShapeArray::query_fp`], [`query_fp_masked`],
//! [`query_batch`], [`and_rows`]) takes `&self`, and the working memory
//! of a probe (its rows, its row-AND words) is the caller's — a
//! [`ProbeBatch`] or the caller's own buffers. The array itself holds no
//! interior mutability anywhere (plain `Vec`s and a `HashMap`, no
//! atomics). `SharedShapeArray<I>` is therefore `Sync` whenever `I` is,
//! and N threads may probe one slab concurrently so long as each brings
//! its own buffers — exactly how the parallel batch execution engine
//! upstream fans one fused lookup run out across workers against the
//! shared published slab. Compile-time assertions below pin the seam so
//! an accidental `Cell` can never silently revoke it.
//!
//! [`query_fp_masked`]: SharedShapeArray::query_fp_masked
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

use crate::array::Hit;
use crate::error::{BloomError, FilterShape};
use crate::filter::BloomFilter;
use crate::hash::Fingerprint;
use crate::ops::FilterDelta;

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

/// A precomputed candidate-slot mask for masked queries.
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

/// A batch of fingerprints (each with an optional candidate [`SlotMask`])
/// resolved together by [`SharedShapeArray::query_batch`].
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
/// reduced and read under its own mask; the cluster dedups a run upstream,
/// before it ever builds a batch.
#[derive(Debug, Clone, Default)]
pub struct ProbeBatch {
    fps: Vec<Fingerprint>,
    masks: Vec<Option<SlotMask>>,
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
            masks: Vec::with_capacity(capacity),
            ..ProbeBatch::default()
        }
    }

    /// Queues `fp` against every live slot; returns its index in the
    /// batch's result vector.
    pub fn push(&mut self, fp: Fingerprint) -> usize {
        self.fps.push(fp);
        self.masks.push(None);
        self.fps.len() - 1
    }

    /// Queues `fp` restricted to the candidate slots of `mask` (the batch
    /// equivalent of [`SharedShapeArray::query_fp_masked`]); returns its
    /// index in the batch's result vector.
    pub fn push_masked(&mut self, fp: Fingerprint, mask: SlotMask) -> usize {
        self.fps.push(fp);
        self.masks.push(Some(mask));
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
        self.masks.clear();
    }

    /// Derives every queued fingerprint's `k` probe rows for the filter
    /// family `shape` into `out` (cleared first), fingerprint-major — the
    /// batch analogue of [`Fingerprint::probe_rows_into`], sharing one
    /// `FastMod` magic across the whole batch instead of one hardware
    /// division per probe.
    ///
    /// The rows serve the slab ([`SharedShapeArray::prefetch_rows`],
    /// [`SharedShapeArray::and_rows`]) and every *non-slab* filter of the
    /// same family alike: an L4 global sweep probes each server's live
    /// filter with the rows the slab levels used
    /// ([`BloomFilter::contains_rows`]). Row `j` of fingerprint `q`
    /// lands at `out[q * k + j]`, identical to
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

/// Hints the prefetcher at one slab word (into L1).
#[inline(always)]
fn prefetch_word(slab: &[u64], word_offset: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure hint (no dereference), and callers pass
    // offsets inside the slab.
    #[allow(unsafe_code)]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(slab.as_ptr().add(word_offset).cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slab, word_offset);
}

/// Hints the prefetcher at a whole probe row (both cache lines when the
/// row spans more than one).
#[inline(always)]
fn prefetch_row(slab: &[u64], stride: usize, row: usize) {
    prefetch_word(slab, row * stride);
    if stride > 8 {
        prefetch_word(slab, row * stride + 8);
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

    /// `true` if a slot for `id` is live.
    #[must_use]
    pub fn contains_id(&self, id: I) -> bool {
        self.slot_of(id).is_some()
    }

    fn slot_of(&self, id: I) -> Option<usize> {
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(id);
                slot
            }
            None => {
                if self.slots.len() == self.stride * 64 {
                    self.grow();
                }
                self.slots.push(Some(id));
                self.items.push(0);
                self.slots.len() - 1
            }
        };
        self.items[slot] = 0;
        self.live[slot / 64] |= 1 << (slot % 64);
        self.index.insert(id, slot);
        Ok(slot)
    }

    /// Adds an empty filter slot for `id`.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::DuplicateId`] if `id` is already present.
    pub fn push(&mut self, id: I) -> Result<(), BloomError> {
        self.allocate_slot(id).map(|_| ())
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

    /// Applies a sparse [`FilterDelta`] directly to `id`'s column, which
    /// must hold the delta's `old` side: only the cells of bits that
    /// flipped are written — `O(popcount(old ^ new))`, ≤ `k` per create —
    /// instead of the three full-column passes an extract/apply/replace
    /// round trip would cost.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IncompatibleFilters`] on a shape mismatch,
    /// [`BloomError::UnknownId`] if `id` is absent, or
    /// [`BloomError::Corrupt`] if the delta indexes past the filter.
    pub fn apply_delta(&mut self, id: I, delta: &FilterDelta) -> Result<(), BloomError> {
        if delta.shape() != self.shape {
            return Err(BloomError::IncompatibleFilters {
                left: self.shape,
                right: delta.shape(),
            });
        }
        let slot = self.slot_of(id).ok_or(BloomError::UnknownId)?;
        let word_count = self.shape.bits.div_ceil(64);
        if delta
            .changed_words()
            .iter()
            .any(|&(idx, ..)| idx as usize >= word_count)
        {
            return Err(BloomError::Corrupt("delta word index out of range"));
        }
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        for &(idx, new_word, flips) in delta.changed_words() {
            let mut remaining = flips;
            while remaining != 0 {
                let at = remaining.trailing_zeros() as usize;
                let row = idx as usize * 64 + at;
                if row >= self.shape.bits {
                    break; // padding of a ragged last word
                }
                let cell = &mut self.slab[row * self.stride + word];
                if new_word >> at & 1 == 1 {
                    *cell |= bit;
                } else {
                    *cell &= !bit;
                }
                remaining &= remaining - 1;
            }
        }
        self.items[slot] = delta.new_items();
        Ok(())
    }

    /// Reconstructs `id`'s slot as a standalone [`BloomFilter`] (used when
    /// shipping a replica or applying a [`crate::FilterDelta`]).
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

    /// Masked hash-once probe: only slots in `mask` are candidates.
    /// # Panics
    ///
    /// Panics if `mask` predates a capacity growth of this array (a stale
    /// mask would silently exclude every slot beyond the old capacity).
    #[must_use]
    pub fn query_fp_masked(&self, fp: &Fingerprint, mask: &SlotMask) -> Hit<I> {
        self.classify_under(&mut self.and_fp(fp), mask)
    }

    /// Convenience: probe only the slots of `ids` (builds a transient mask).
    pub fn query_fp_among<T: IntoIterator<Item = I>>(&self, fp: &Fingerprint, ids: T) -> Hit<I> {
        let mask = self.subset_mask(ids);
        self.query_fp_masked(fp, &mask)
    }

    /// Resolves a whole [`ProbeBatch`], returning one [`Hit`] per queued
    /// fingerprint, in push order.
    ///
    /// Answers are **bit-identical** to calling [`query_fp`] /
    /// [`query_fp_masked`] once per fingerprint (the property tests assert
    /// it). The work is the cluster's pinned walk's, primitive for
    /// primitive: every probe row derived up front
    /// ([`ProbeBatch::derive_rows_into`]), the rows of the item two ahead
    /// prefetched ([`prefetch_rows`](SharedShapeArray::prefetch_rows)),
    /// one unmasked row-AND per item
    /// ([`and_rows`](SharedShapeArray::and_rows)), and the survivors read
    /// under the item's own mask — so timing this times the production
    /// kernel. The batch's scratch is reused across calls; only the result
    /// vector is allocated.
    ///
    /// [`query_fp`]: SharedShapeArray::query_fp
    /// [`query_fp_masked`]: SharedShapeArray::query_fp_masked
    ///
    /// # Panics
    ///
    /// Panics if a queued [`SlotMask`] predates a capacity growth of this
    /// array (same rule as
    /// [`query_fp_masked`](SharedShapeArray::query_fp_masked)).
    #[must_use]
    pub fn query_batch(&self, batch: &mut ProbeBatch) -> Vec<Hit<I>> {
        let ProbeBatch {
            fps,
            masks,
            rows,
            anded,
        } = batch;
        derive_rows(fps, self.shape, rows);
        let k = self.shape.hashes as usize;
        let mut hits = Vec::with_capacity(masks.len());
        for (at, mask) in masks.iter().enumerate() {
            if let Some(ahead) = rows.get((at + 2) * k..(at + 3) * k) {
                self.prefetch_rows(ahead);
            }
            let item = &rows[at * k..(at + 1) * k];
            self.and_rows(item.iter().map(|&row| row as usize), anded);
            hits.push(match mask {
                Some(mask) => self.classify_under(anded, mask),
                None => self.classify(anded),
            });
        }
        hits
    }

    /// Hints the cache at the probe rows of an upcoming
    /// [`and_rows`](SharedShapeArray::and_rows) (rows outside the array
    /// are ignored): a caller that derived a whole chunk's rows up front
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
    /// candidate [`query_fp_masked`](SharedShapeArray::query_fp_masked)
    /// reports, without materializing a [`Hit`].
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

    /// Narrows an [`and_rows`](SharedShapeArray::and_rows) result to the
    /// candidates of `mask` in place and classifies what is left.
    fn classify_under(&self, anded: &mut [u64], mask: &SlotMask) -> Hit<I> {
        assert_eq!(
            mask.words.len(),
            self.stride,
            "SlotMask predates a capacity growth; rebuild it"
        );
        for (word, candidates) in anded.iter_mut().zip(&mask.words) {
            *word &= candidates;
        }
        self.classify(anded)
    }

    fn classify(&self, mask: &[u64]) -> Hit<I> {
        match tally_bits(mask.iter().copied()) {
            (0, _) => Hit::None,
            (1, slot) => Hit::Unique(self.slots[slot].expect("live slot has an id")),
            (positives, _) => {
                let mut ids = Vec::with_capacity(positives as usize);
                for (word, &bits) in mask.iter().enumerate() {
                    let mut remaining = bits;
                    while remaining != 0 {
                        let slot = word * 64 + remaining.trailing_zeros() as usize;
                        ids.push(self.slots[slot].expect("live slot has an id"));
                        remaining &= remaining - 1;
                    }
                }
                Hit::Multiple(ids)
            }
        }
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

    /// A prefetch is a hint: rows past the array are skipped, not read.
    #[test]
    fn prefetch_rows_ignores_rows_outside_the_array() {
        let array = array_with(&[(1, &["a"])]);
        let bits = shape().bits as u32;
        array.prefetch_rows(&[0, bits - 1, bits, u32::MAX]);
        assert_eq!(array.query("a"), Hit::Unique(1));
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

    #[test]
    fn masked_query_restricts_candidates() {
        let array = array_with(&[(1, &["dup"]), (2, &["dup"]), (3, &[])]);
        let fp = Fingerprint::of("dup");
        assert_eq!(array.query_fp_among(&fp, [1u16]), Hit::Unique(1));
        assert_eq!(array.query_fp_among(&fp, [3u16]), Hit::None);
        let mask = array.mask_all_except(1);
        assert_eq!(mask.len(), 2);
        assert_eq!(array.query_fp_masked(&fp, &mask), Hit::Unique(2));
    }

    /// Duplicates under differing masks each get their own mask's answer:
    /// the batch merges nothing, whatever repeats in it.
    #[test]
    fn query_batch_answers_duplicates_under_their_own_masks() {
        let array = array_with(&[(1, &["hot", "x"]), (2, &["cold"]), (3, &["hot"])]);
        let hot = Fingerprint::of("hot");
        let cold = Fingerprint::of("cold");
        let mut batch = ProbeBatch::new();
        // One fingerprint unmasked twice, under one mask twice and under
        // another mask, with a distinct fingerprint in between.
        batch.push(hot);
        batch.push(cold);
        batch.push(hot);
        batch.push_masked(hot, array.subset_mask([1u16]));
        batch.push_masked(hot, array.subset_mask([1u16]));
        batch.push_masked(hot, array.subset_mask([3u16]));
        let hits = array.query_batch(&mut batch);
        assert_eq!(
            hits,
            vec![
                Hit::Multiple(vec![1, 3]),
                Hit::Unique(2),
                Hit::Multiple(vec![1, 3]),
                Hit::Unique(1),
                Hit::Unique(1),
                Hit::Unique(3),
            ]
        );
    }

    #[test]
    fn apply_delta_matches_full_replace() {
        let mut old_filter = BloomFilter::new(4096, 5, 11);
        old_filter.insert("kept");
        let mut new_filter = old_filter.clone();
        for i in 0..40u32 {
            new_filter.insert(&format!("added-{i}"));
        }
        let delta = FilterDelta::between(&old_filter, &new_filter).unwrap();

        let mut array = SharedShapeArray::new(shape());
        array.push_filter(1u16, &old_filter).unwrap();
        array.push_filter(2u16, &new_filter).unwrap(); // bystander column
        array.apply_delta(1u16, &delta).unwrap();
        assert_eq!(array.extract(1).unwrap(), new_filter);
        assert_eq!(array.extract(2).unwrap(), new_filter);

        assert_eq!(array.apply_delta(9, &delta), Err(BloomError::UnknownId));
        let alien =
            FilterDelta::between(&BloomFilter::new(128, 2, 9), &BloomFilter::new(128, 2, 9))
                .unwrap();
        assert!(matches!(
            array.apply_delta(1, &alien),
            Err(BloomError::IncompatibleFilters { .. })
        ));
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
    fn batch_masks_match_query_fp_among() {
        let array = array_with(&[(1, &["dup"]), (2, &["dup"]), (3, &[])]);
        let fp = Fingerprint::of("dup");
        let mut batch = ProbeBatch::new();
        batch.push_masked(fp, array.subset_mask([1u16]));
        batch.push_masked(fp, array.subset_mask([3u16]));
        batch.push_masked(fp, array.mask_all_except(1));
        batch.push(fp);
        let hits = array.query_batch(&mut batch);
        assert_eq!(hits[0], array.query_fp_among(&fp, [1u16]));
        assert_eq!(hits[1], array.query_fp_among(&fp, [3u16]));
        assert_eq!(
            hits[2],
            array.query_fp_masked(&fp, &array.mask_all_except(1))
        );
        assert_eq!(hits[3], array.query_fp(&fp));
        assert_eq!(hits[0], Hit::Unique(1));
        assert_eq!(hits[1], Hit::None);
        assert_eq!(hits[2], Hit::Unique(2));
        assert_eq!(hits[3], Hit::Multiple(vec![1, 2]));
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

    #[test]
    #[should_panic(expected = "predates a capacity growth")]
    fn batch_stale_mask_panics() {
        let mut array = array_with(&[(1, &["a"])]);
        let mut batch = ProbeBatch::new();
        batch.push_masked(Fingerprint::of("a"), array.subset_mask([1u16]));
        for id in 10u16..90 {
            array.push(id).unwrap(); // forces a capacity growth
        }
        let _ = array.query_batch(&mut batch);
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
