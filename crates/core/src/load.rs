//! Per-group load telemetry: the measurement half of the adaptive
//! control plane.
//!
//! The paper derives an interior-optimal group size M* offline (fig6/
//! fig7); closing the loop online needs the cluster to *observe* where
//! its traffic lands. This module provides that observation surface in
//! three pieces:
//!
//! * `LoadRecorder` (private) — fixed-capacity tables of wait-free atomic
//!   counters, embedded in `ConcurrentStats`. The pinned walk's splice
//!   (every read entry, `&mut` or `&self`) counts each lookup occurrence
//!   into a plain `LoadTally`, folded in once per pin — per
//!   `execute_concurrent` batch, per run elsewhere — with one relaxed
//!   `fetch_add` per non-zero word. No locks, callable from
//!   `&self` while reconfiguration publishes successor snapshots.
//! * `LoadWindows` (private) — the owner-side fold state: each call to
//!   [`GhbaCluster::load_report`](crate::GhbaCluster::load_report)
//!   closes one *window* (swap-to-zero on the atomics) and folds it
//!   into exponentially decayed per-group rates, so a controller
//!   sampling on a cadence sees smoothed recent load, not a lifetime
//!   average and not one noisy tick.
//! * [`LoadReport`] — the stable snapshot handed to consumers: one
//!   [`GroupLoad`] row per live group (shape from the pinned routing
//!   snapshot, rates from the decayed windows), plus window totals.
//!
//! The recorder's group table is indexed directly by [`GroupId`] (ids
//! are monotonic and never recycled); ids at or past the table capacity
//! share the final slot, so an extremely long split history degrades to
//! aggregated accounting for the newest groups rather than unbounded
//! memory or a lock. The same scheme covers the per-entry-server table
//! that feeds member-imbalance rates.
//!
//! False-hit accounting is recorded with full fidelity. Mask-consult
//! rates cover the snapshot-resident shared cache, tagged and validated
//! per `(group, GroupEpoch)` — so a group's `mask_hit_rate` staying
//! ≥ 0.99 through someone *else's* reconfiguration is the observable
//! form of the per-group-epoch guarantee. The controller's decisions
//! deliberately depend only on traffic share, shape, and member
//! imbalance (see [`crate::adapt`]).

use core::sync::atomic::{AtomicU64, Ordering};
use std::collections::BTreeMap;

use crate::ids::{GroupId, MdsId, MembershipEpoch};
use crate::query::QueryLevel;

/// Group slots in the atomic table. Group ids `>= LOAD_GROUP_SLOTS - 1`
/// aggregate into the final slot.
pub(crate) const LOAD_GROUP_SLOTS: usize = 2048;
/// Entry-server slots; same overflow rule.
pub(crate) const LOAD_ENTRY_SLOTS: usize = 2048;

/// One group's wait-free counters for the current (open) window.
#[derive(Debug)]
struct GroupSlot {
    /// Walks whose entry server belonged to this group.
    lookups: AtomicU64,
    /// Of those, walks that escalated to the L3 group multicast.
    l3_walks: AtomicU64,
    /// Of those, walks that escalated to the L4 global multicast
    /// (including misses).
    l4_walks: AtomicU64,
    /// False hits charged to walks entering through this group.
    false_hits: AtomicU64,
    /// L2/L3 mask consults answered from a cache or a pin's plan.
    mask_hits: AtomicU64,
    /// L2/L3 mask consults that had to build the mask.
    mask_misses: AtomicU64,
}

impl GroupSlot {
    fn new() -> Self {
        GroupSlot {
            lookups: AtomicU64::new(0),
            l3_walks: AtomicU64::new(0),
            l4_walks: AtomicU64::new(0),
            false_hits: AtomicU64::new(0),
            mask_hits: AtomicU64::new(0),
            mask_misses: AtomicU64::new(0),
        }
    }
}

/// One group's raw counts for a just-closed window (see
/// [`LoadRecorder::drain_window`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RawGroupWindow {
    pub lookups: u64,
    pub l3_walks: u64,
    pub l4_walks: u64,
    pub false_hits: u64,
    pub mask_hits: u64,
    pub mask_misses: u64,
}

/// The raw contents of one closed window: per-slot group counts plus
/// per-slot entry-server lookup counts (only non-zero slots reported).
#[derive(Debug, Clone, Default)]
pub(crate) struct RawLoadWindow {
    pub groups: Vec<(usize, RawGroupWindow)>,
    pub entries: Vec<(usize, u64)>,
}

impl RawLoadWindow {
    /// Total walks recorded in this window.
    pub(crate) fn total_lookups(&self) -> u64 {
        self.groups.iter().map(|(_, g)| g.lookups).sum()
    }
}

/// One pin's load — walks and mask consults — counted in plain words by
/// its runs' splices and folded into the [`LoadRecorder`] once. Both
/// tables are indexed by recorder slot and grow on demand.
#[derive(Debug, Default)]
pub(crate) struct LoadTally {
    groups: Vec<RawGroupWindow>,
    entries: Vec<u64>,
}

impl LoadTally {
    fn group(&mut self, gid: GroupId) -> &mut RawGroupWindow {
        let slot = group_slot(gid);
        if self.groups.len() <= slot {
            self.groups.resize(slot + 1, RawGroupWindow::default());
        }
        &mut self.groups[slot]
    }

    /// Counts one finished walk attributed to entry group `gid`:
    /// traffic, escalation depth, and false hits.
    pub(crate) fn walk(&mut self, gid: GroupId, entry: MdsId, level: QueryLevel, false_hits: u64) {
        let window = self.group(gid);
        window.lookups += 1;
        match level {
            QueryLevel::L1Lru | QueryLevel::L2Segment => {}
            QueryLevel::L3Group => window.l3_walks += 1,
            QueryLevel::L4Global | QueryLevel::Nonexistent => {
                window.l3_walks += 1;
                window.l4_walks += 1;
            }
        }
        window.false_hits += false_hits;
        let slot = entry_slot(entry);
        if self.entries.len() <= slot {
            self.entries.resize(slot + 1, 0);
        }
        self.entries[slot] += 1;
    }

    /// Counts one L2/L3 mask consult attributed to group `gid`.
    pub(crate) fn mask(&mut self, gid: GroupId, hit: bool) {
        let window = self.group(gid);
        if hit {
            window.mask_hits += 1;
        } else {
            window.mask_misses += 1;
        }
    }
}

/// Fixed-capacity atomic tables recording per-group and per-entry
/// traffic from `&self`. Owned by
/// `ConcurrentStats`; see the module docs.
#[derive(Debug)]
pub(crate) struct LoadRecorder {
    groups: Box<[GroupSlot]>,
    entries: Box<[AtomicU64]>,
}

/// Folds a locally counted `n` into a shared statistic: no RMW for zero.
#[inline]
pub(crate) fn add_nonzero(word: &AtomicU64, n: u64) {
    if n > 0 {
        word.fetch_add(n, Ordering::Relaxed);
    }
}

#[inline]
fn group_slot(gid: GroupId) -> usize {
    (gid.0 as usize).min(LOAD_GROUP_SLOTS - 1)
}

#[inline]
fn entry_slot(entry: MdsId) -> usize {
    (entry.0 as usize).min(LOAD_ENTRY_SLOTS - 1)
}

impl LoadRecorder {
    pub(crate) fn new() -> Self {
        LoadRecorder {
            groups: (0..LOAD_GROUP_SLOTS).map(|_| GroupSlot::new()).collect(),
            entries: (0..LOAD_ENTRY_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds a pin's locally counted load into the open window: one RMW
    /// per non-zero word.
    pub(crate) fn absorb(&self, tally: &LoadTally) {
        for (slot, window) in self.groups.iter().zip(&tally.groups) {
            add_nonzero(&slot.lookups, window.lookups);
            add_nonzero(&slot.l3_walks, window.l3_walks);
            add_nonzero(&slot.l4_walks, window.l4_walks);
            add_nonzero(&slot.false_hits, window.false_hits);
            add_nonzero(&slot.mask_hits, window.mask_hits);
            add_nonzero(&slot.mask_misses, window.mask_misses);
        }
        for (slot, &count) in self.entries.iter().zip(&tally.entries) {
            add_nonzero(slot, count);
        }
    }

    /// Closes the open window: swaps every counter to zero and returns
    /// the non-zero slots. Wait-free recorders may interleave; a count
    /// recorded during the drain lands in exactly one window.
    pub(crate) fn drain_window(&self) -> RawLoadWindow {
        let mut raw = RawLoadWindow::default();
        for (index, slot) in self.groups.iter().enumerate() {
            let window = RawGroupWindow {
                lookups: slot.lookups.swap(0, Ordering::Relaxed),
                l3_walks: slot.l3_walks.swap(0, Ordering::Relaxed),
                l4_walks: slot.l4_walks.swap(0, Ordering::Relaxed),
                false_hits: slot.false_hits.swap(0, Ordering::Relaxed),
                mask_hits: slot.mask_hits.swap(0, Ordering::Relaxed),
                mask_misses: slot.mask_misses.swap(0, Ordering::Relaxed),
            };
            if window != RawGroupWindow::default() {
                raw.groups.push((index, window));
            }
        }
        for (index, slot) in self.entries.iter().enumerate() {
            let count = slot.swap(0, Ordering::Relaxed);
            if count > 0 {
                raw.entries.push((index, count));
            }
        }
        raw
    }
}

/// Decayed per-group rates, folded once per closed window.
#[derive(Debug, Clone, Copy, Default)]
struct DecayedGroup {
    lookups: f64,
    l3_walks: f64,
    l4_walks: f64,
    false_hits: f64,
    mask_hits: f64,
    mask_misses: f64,
}

/// Owner-side window fold state: exponentially decayed per-group and
/// per-entry rates. One instance per cluster, behind a mutex touched
/// only at report cadence (never on the walk hot path).
#[derive(Debug)]
pub(crate) struct LoadWindows {
    window: u64,
    /// Weight of history when a new window folds in: `decayed = alpha *
    /// decayed + fresh`. At the default 0.5 a group's rate halves every
    /// quiet window, so a flash crowd fades from the report within a
    /// few ticks of ending.
    alpha: f64,
    groups: BTreeMap<usize, DecayedGroup>,
    entries: BTreeMap<usize, f64>,
}

impl LoadWindows {
    pub(crate) fn new() -> Self {
        LoadWindows {
            window: 0,
            alpha: 0.5,
            groups: BTreeMap::new(),
            entries: BTreeMap::new(),
        }
    }

    /// Folds one closed raw window into the decayed rates and returns
    /// the new window index.
    pub(crate) fn fold(&mut self, raw: &RawLoadWindow) -> u64 {
        self.window += 1;
        for decayed in self.groups.values_mut() {
            decayed.lookups *= self.alpha;
            decayed.l3_walks *= self.alpha;
            decayed.l4_walks *= self.alpha;
            decayed.false_hits *= self.alpha;
            decayed.mask_hits *= self.alpha;
            decayed.mask_misses *= self.alpha;
        }
        for rate in self.entries.values_mut() {
            *rate *= self.alpha;
        }
        for &(slot, ref window) in &raw.groups {
            let decayed = self.groups.entry(slot).or_default();
            decayed.lookups += window.lookups as f64;
            decayed.l3_walks += window.l3_walks as f64;
            decayed.l4_walks += window.l4_walks as f64;
            decayed.false_hits += window.false_hits as f64;
            decayed.mask_hits += window.mask_hits as f64;
            decayed.mask_misses += window.mask_misses as f64;
        }
        for &(slot, count) in &raw.entries {
            *self.entries.entry(slot).or_default() += count as f64;
        }
        // Drop rows decayed to dust so dissolved groups and retired
        // servers do not accumulate forever.
        self.groups.retain(|_, d| d.lookups >= 1e-3);
        self.entries.retain(|_, rate| *rate >= 1e-3);
        self.window
    }

    fn group(&self, gid: GroupId) -> DecayedGroup {
        self.groups
            .get(&group_slot(gid))
            .copied()
            .unwrap_or_default()
    }

    fn entry_rate(&self, entry: MdsId) -> f64 {
        self.entries
            .get(&entry_slot(entry))
            .copied()
            .unwrap_or_default()
    }
}

/// One live group's row in a [`LoadReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupLoad {
    /// The group.
    pub gid: GroupId,
    /// Member count under the report's snapshot.
    pub members: usize,
    /// Window-decayed walks entering through this group.
    pub lookups: f64,
    /// This group's fraction of the report's total decayed traffic
    /// (zero when the cluster is idle).
    pub share: f64,
    /// Fraction of this group's walks escalating to the L3 group
    /// multicast or beyond.
    pub l3_share: f64,
    /// Fraction escalating all the way to the L4 global multicast.
    pub l4_share: f64,
    /// Window-decayed false hits per walk.
    pub false_hit_rate: f64,
    /// L2/L3 mask consults answered from cache (`1.0` when the group
    /// saw no consults — an idle group's caches are trivially warm).
    pub mask_hit_rate: f64,
    /// Max-over-mean entry traffic across the group's members (`1.0`
    /// for perfectly even or idle groups). A member answering all of
    /// its group's walks in a group of 4 scores `4.0`.
    pub imbalance: f64,
}

/// A stable snapshot of cluster load, one row per live group. Produced
/// by [`GhbaCluster::load_report`](crate::GhbaCluster::load_report)
/// (and the HBA baseline's mirror), consumed by
/// [`GroupController`](crate::adapt::GroupController).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Monotonic window index (one per report).
    pub window: u64,
    /// Membership epoch of the snapshot the shape was read from.
    pub epoch: MembershipEpoch,
    /// Raw walks recorded in the just-closed window (undecayed) — the
    /// controller's idle gate.
    pub fresh_lookups: u64,
    /// Total window-decayed traffic across all groups.
    pub total: f64,
    /// Per-group rows, ascending by group id.
    pub groups: Vec<GroupLoad>,
}

impl LoadReport {
    /// Total servers across all reported groups.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.groups.iter().map(|g| g.members).sum()
    }

    /// The row for `gid`, if live.
    #[must_use]
    pub fn group(&self, gid: GroupId) -> Option<&GroupLoad> {
        self.groups.iter().find(|g| g.gid == gid)
    }
}

/// Owner-side fold state for one cluster: closes the recorder's open
/// window and keeps the exponentially decayed rates. `GhbaCluster`
/// holds one behind a mutex touched only at report cadence; the HBA
/// baseline holds its own for the mirrored report.
#[derive(Debug)]
pub struct LoadFold {
    windows: LoadWindows,
}

impl Default for LoadFold {
    fn default() -> Self {
        LoadFold::new()
    }
}

impl LoadFold {
    /// Creates an empty fold (window 0, no history).
    #[must_use]
    pub fn new() -> Self {
        LoadFold {
            windows: LoadWindows::new(),
        }
    }

    /// Closes `stats`' open load window and folds it into the decayed
    /// rates, returning the raw walk count of the just-closed window.
    pub(crate) fn close_window(&mut self, stats: &crate::concurrent::ConcurrentStats) -> u64 {
        let raw = stats.load_recorder().drain_window();
        let fresh = raw.total_lookups();
        self.windows.fold(&raw);
        fresh
    }

    /// Builds the stable [`LoadReport`] snapshot from the folded rates
    /// plus the live shape `(gid, members)` and the window's raw walk
    /// count.
    #[must_use]
    pub fn report(
        &self,
        epoch: MembershipEpoch,
        fresh_lookups: u64,
        shape: &[(GroupId, Vec<MdsId>)],
    ) -> LoadReport {
        build_report(&self.windows, epoch, fresh_lookups, shape)
    }
}

/// Builds a [`LoadReport`] from the decayed windows plus the live shape
/// `(gid, members)` — shared by the G-HBA cluster and the HBA mirror.
pub(crate) fn build_report(
    windows: &LoadWindows,
    epoch: MembershipEpoch,
    fresh_lookups: u64,
    shape: &[(GroupId, Vec<MdsId>)],
) -> LoadReport {
    let total: f64 = shape
        .iter()
        .map(|&(gid, _)| windows.group(gid).lookups)
        .sum();
    let groups = shape
        .iter()
        .map(|(gid, members)| {
            let decayed = windows.group(*gid);
            let rates: Vec<f64> = members.iter().map(|&m| windows.entry_rate(m)).collect();
            let member_total: f64 = rates.iter().sum();
            let imbalance = if members.is_empty() || member_total <= f64::EPSILON {
                1.0
            } else {
                let mean = member_total / members.len() as f64;
                rates.iter().copied().fold(0.0_f64, f64::max) / mean
            };
            let consults = decayed.mask_hits + decayed.mask_misses;
            GroupLoad {
                gid: *gid,
                members: members.len(),
                lookups: decayed.lookups,
                share: if total > f64::EPSILON {
                    decayed.lookups / total
                } else {
                    0.0
                },
                l3_share: if decayed.lookups > f64::EPSILON {
                    decayed.l3_walks / decayed.lookups
                } else {
                    0.0
                },
                l4_share: if decayed.lookups > f64::EPSILON {
                    decayed.l4_walks / decayed.lookups
                } else {
                    0.0
                },
                false_hit_rate: if decayed.lookups > f64::EPSILON {
                    decayed.false_hits / decayed.lookups
                } else {
                    0.0
                },
                mask_hit_rate: if consults > f64::EPSILON {
                    decayed.mask_hits / consults
                } else {
                    1.0
                },
                imbalance,
            }
        })
        .collect();
    LoadReport {
        window: windows.window,
        epoch,
        fresh_lookups,
        total,
        groups,
    }
}

/// Unified L2/L3 mask-cache accounting: **one documented accessor, two
/// scopes**: the lifetime view (spanning every walk since
/// construction) and the reset-scoped view (the
/// [`ClusterStats`](crate::ClusterStats) fields, cleared by
/// `reset_stats`). Both also fold in consults still sitting in the
/// atomic recorders, so a `&self` reader — the load report, a
/// controller, a bench — sees every consult that has happened, drained
/// or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaskCacheStats {
    /// Consults answered from cache over the cluster's lifetime.
    pub lifetime_hits: u64,
    /// Consults that had to build their mask, lifetime.
    pub lifetime_misses: u64,
    /// Hits since the last `reset_stats` (the figure-binary scope).
    pub window_hits: u64,
    /// Misses since the last `reset_stats`.
    pub window_misses: u64,
}

impl MaskCacheStats {
    /// Assembles the unified view from the lifetime accumulator, the
    /// reset-scoped fold, and not-yet-folded atomic consults. Exposed
    /// so baselines mirroring the accessor assemble identically.
    #[must_use]
    pub fn assemble(
        lifetime: (u64, u64),
        window: (u64, u64),
        pending: (u64, u64),
    ) -> MaskCacheStats {
        MaskCacheStats {
            lifetime_hits: lifetime.0 + pending.0,
            lifetime_misses: lifetime.1 + pending.1,
            window_hits: window.0 + pending.0,
            window_misses: window.1 + pending.1,
        }
    }

    /// Lifetime hit rate (`1.0` when nothing was consulted).
    #[must_use]
    pub fn lifetime_rate(&self) -> f64 {
        rate(self.lifetime_hits, self.lifetime_misses)
    }

    /// Reset-scoped hit rate (`1.0` when nothing was consulted).
    #[must_use]
    pub fn window_rate(&self) -> f64 {
        rate(self.window_hits, self.window_misses)
    }

    /// Lifetime `(hits, misses)` — the shape the pre-unification
    /// accessor returned.
    #[must_use]
    pub fn lifetime(&self) -> (u64, u64) {
        (self.lifetime_hits, self.lifetime_misses)
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        1.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_attributes_walks_and_masks_per_group() {
        let recorder = LoadRecorder::new();
        let mut tally = LoadTally::default();
        tally.walk(GroupId(0), MdsId(0), QueryLevel::L2Segment, 0);
        tally.walk(GroupId(0), MdsId(1), QueryLevel::L3Group, 1);
        tally.walk(GroupId(2), MdsId(5), QueryLevel::L4Global, 2);
        tally.mask(GroupId(0), true);
        tally.mask(GroupId(0), false);
        recorder.absorb(&tally);
        let raw = recorder.drain_window();
        assert_eq!(raw.total_lookups(), 3);
        let g0 = raw.groups.iter().find(|&&(s, _)| s == 0).expect("g0").1;
        assert_eq!(g0.lookups, 2);
        assert_eq!(g0.l3_walks, 1);
        assert_eq!(g0.l4_walks, 0);
        assert_eq!(g0.false_hits, 1);
        assert_eq!((g0.mask_hits, g0.mask_misses), (1, 1));
        let g2 = raw.groups.iter().find(|&&(s, _)| s == 2).expect("g2").1;
        assert_eq!((g2.lookups, g2.l3_walks, g2.l4_walks), (1, 1, 1));
        assert_eq!(g2.false_hits, 2);
        // Drained: the next window is empty.
        assert!(recorder.drain_window().groups.is_empty());
    }

    #[test]
    fn overflow_ids_share_the_final_slot() {
        let recorder = LoadRecorder::new();
        let mut tally = LoadTally::default();
        tally.walk(GroupId(u16::MAX), MdsId(u16::MAX), QueryLevel::L2Segment, 0);
        tally.walk(
            GroupId((LOAD_GROUP_SLOTS - 1) as u16),
            MdsId(9),
            QueryLevel::L2Segment,
            0,
        );
        recorder.absorb(&tally);
        let raw = recorder.drain_window();
        assert_eq!(raw.groups.len(), 1);
        assert_eq!(raw.groups[0].0, LOAD_GROUP_SLOTS - 1);
        assert_eq!(raw.groups[0].1.lookups, 2);
    }

    #[test]
    fn windows_decay_and_reports_rank_hot_groups() {
        let recorder = LoadRecorder::new();
        let mut windows = LoadWindows::new();
        let shape = vec![
            (GroupId(0), vec![MdsId(0), MdsId(1)]),
            (GroupId(1), vec![MdsId(2), MdsId(3)]),
        ];
        // Window 1: group 0 hot, all traffic through mds0.
        let mut tally = LoadTally::default();
        for _ in 0..90 {
            tally.walk(GroupId(0), MdsId(0), QueryLevel::L3Group, 0);
        }
        for _ in 0..10 {
            tally.walk(GroupId(1), MdsId(2), QueryLevel::L2Segment, 0);
        }
        recorder.absorb(&tally);
        let raw = recorder.drain_window();
        windows.fold(&raw);
        let report = build_report(&windows, MembershipEpoch(3), raw.total_lookups(), &shape);
        assert_eq!(report.window, 1);
        assert_eq!(report.fresh_lookups, 100);
        assert_eq!(report.servers(), 4);
        let g0 = report.group(GroupId(0)).expect("g0");
        assert!((g0.share - 0.9).abs() < 1e-9);
        assert!((g0.l3_share - 1.0).abs() < 1e-9);
        assert!((g0.imbalance - 2.0).abs() < 1e-9, "one of two members hot");
        // Window 2: silence. Rates halve, shares persist.
        windows.fold(&recorder.drain_window());
        let report = build_report(&windows, MembershipEpoch(3), 0, &shape);
        let g0 = report.group(GroupId(0)).expect("g0");
        assert!((g0.lookups - 45.0).abs() < 1e-9, "alpha 0.5 halves");
        assert!((g0.share - 0.9).abs() < 1e-9);
        assert_eq!(report.fresh_lookups, 0);
    }

    #[test]
    fn idle_groups_report_neutral_rates() {
        let windows = LoadWindows::new();
        let shape = vec![(GroupId(7), vec![MdsId(0)])];
        let report = build_report(&windows, MembershipEpoch(0), 0, &shape);
        let g = report.group(GroupId(7)).expect("g7");
        assert_eq!(g.share, 0.0);
        assert_eq!(g.mask_hit_rate, 1.0);
        assert_eq!(g.imbalance, 1.0);
    }

    #[test]
    fn mask_cache_stats_unify_scopes() {
        let stats = MaskCacheStats::assemble((100, 10), (40, 5), (6, 4));
        assert_eq!(stats.lifetime(), (106, 14));
        assert_eq!((stats.window_hits, stats.window_misses), (46, 9));
        assert!(stats.lifetime_rate() > stats.window_rate());
        assert_eq!(MaskCacheStats::default().lifetime_rate(), 1.0);
    }
}
