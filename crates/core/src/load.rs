//! Per-group load telemetry: the measurement half of the adaptive
//! control plane.
//!
//! The paper derives an interior-optimal group size M* offline (fig6/
//! fig7); closing the loop online needs the cluster to *observe* where
//! its traffic lands. This module provides that observation surface in
//! two pieces, and hands consumers a [`LoadReport`]:
//!
//! * `LoadTally` (private) — plain per-group and per-entry-server counts.
//!   The pinned walk's splice (every read entry, `&mut` or `&self`)
//!   counts each lookup occurrence into the tally of the pin's arena;
//!   the pin's owner adds it once — per `execute_concurrent` batch, per
//!   run elsewhere — to the cluster's one unfolded tally, under the lock
//!   that guards the cluster's telemetry (one plain add per word).
//! * `LoadWindows` (private) — the decayed rates: each call to
//!   [`GhbaCluster::load_report`](crate::GhbaCluster::load_report)
//!   closes one *window* (takes the unfolded tally's counts and clears
//!   them) and folds it into exponentially decayed per-group rates, so a
//!   controller sampling on a cadence sees smoothed recent load, not a
//!   lifetime average and not one noisy tick. The report is one
//!   [`GroupLoad`] row per live group (shape from the pinned routing
//!   snapshot, rates from the decayed windows), plus window totals.
//!
//! A tally's group table is indexed directly by [`GroupId`] and grows on
//! demand. A new group takes the lowest id no live group holds, so the
//! table is as long as the most groups that were ever live at once, not
//! as the split history; and a report drops the decayed rows of groups
//! its shape does not list, so a reused id starts with no load history.
//! The per-entry-server table that feeds member-imbalance rates is
//! indexed by server id, and server ids are never reused: ids at or past
//! `LOAD_ENTRY_SLOTS - 1` share its final slot.
//!
//! False-hit accounting is recorded with full fidelity. Mask-consult
//! rates cover the snapshot's plan table, whose plans a successor
//! inherits per `(group, GroupEpoch)` — so a group's `mask_hit_rate`
//! staying ≥ 0.99 through someone *else's* reconfiguration is the
//! observable form of the per-group-epoch guarantee. The controller's decisions
//! deliberately depend only on traffic share, shape, and member
//! imbalance (see [`crate::adapt`]).

use std::collections::BTreeMap;

use crate::ids::{GroupId, MdsId, MembershipEpoch};
use crate::query::QueryLevel;

/// Entry-server slots a tally keeps. Server ids `>= LOAD_ENTRY_SLOTS -
/// 1` aggregate into the final slot.
pub(crate) const LOAD_ENTRY_SLOTS: usize = 2048;

/// One group's raw counts in the open window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RawGroupWindow {
    /// Walks whose entry server belonged to this group.
    lookups: u64,
    /// Of those, walks that escalated to the L3 group multicast.
    l3_walks: u64,
    /// Of those, walks that escalated to the L4 global multicast
    /// (including misses).
    l4_walks: u64,
    /// False hits charged to walks entering through this group.
    false_hits: u64,
    /// L2/L3 mask consults answered by a plan already built.
    mask_hits: u64,
    /// L2/L3 mask consults that had to build the plan.
    mask_misses: u64,
}

impl RawGroupWindow {
    fn add(&mut self, other: &RawGroupWindow) {
        self.lookups += other.lookups;
        self.l3_walks += other.l3_walks;
        self.l4_walks += other.l4_walks;
        self.false_hits += other.false_hits;
        self.mask_hits += other.mask_hits;
        self.mask_misses += other.mask_misses;
    }
}

/// Load — walks and mask consults — counted in plain words: a pin's
/// runs' splices count into one, and the cluster sums every pin's into
/// the one it folds at report cadence. Both tables grow on demand: the
/// group table is indexed by group id, the entry table by `entry_slot`.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoadTally {
    groups: Vec<RawGroupWindow>,
    entries: Vec<u64>,
}

impl LoadTally {
    fn group(&mut self, gid: GroupId) -> &mut RawGroupWindow {
        let slot = usize::from(gid.0);
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

    /// Adds `other`'s counts, slot by slot.
    pub(crate) fn add(&mut self, other: &LoadTally) {
        if self.groups.len() < other.groups.len() {
            self.groups
                .resize(other.groups.len(), RawGroupWindow::default());
        }
        for (mine, theirs) in self.groups.iter_mut().zip(&other.groups) {
            mine.add(theirs);
        }
        if self.entries.len() < other.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        for (mine, theirs) in self.entries.iter_mut().zip(&other.entries) {
            *mine += theirs;
        }
    }

    /// Walks counted.
    pub(crate) fn lookups(&self) -> u64 {
        self.groups.iter().map(|g| g.lookups).sum()
    }

    /// Forgets every count, keeping the tables' capacity.
    pub(crate) fn clear(&mut self) {
        self.groups.clear();
        self.entries.clear();
    }
}

#[inline]
fn entry_slot(entry: MdsId) -> usize {
    (entry.0 as usize).min(LOAD_ENTRY_SLOTS - 1)
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

/// Exponentially decayed per-group and per-entry rates, one window
/// folded in per load report. Kept beside the cluster's unfolded tally,
/// under its telemetry lock, and touched at report cadence only.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoadWindows {
    window: u64,
    groups: BTreeMap<GroupId, DecayedGroup>,
    entries: BTreeMap<usize, f64>,
}

/// Weight of history when a new window folds in: `decayed = ALPHA *
/// decayed + fresh`. A group's rate halves every quiet window, so a
/// flash crowd fades from the report within a few ticks of ending.
const ALPHA: f64 = 0.5;

impl LoadWindows {
    /// Folds one closed window's counts into the decayed rates, keeping
    /// the rows of the groups the live `shape` lists.
    pub(crate) fn fold(&mut self, closed: &LoadTally, shape: &[(GroupId, Vec<MdsId>)]) {
        self.window += 1;
        for decayed in self.groups.values_mut() {
            decayed.lookups *= ALPHA;
            decayed.l3_walks *= ALPHA;
            decayed.l4_walks *= ALPHA;
            decayed.false_hits *= ALPHA;
            decayed.mask_hits *= ALPHA;
            decayed.mask_misses *= ALPHA;
        }
        for rate in self.entries.values_mut() {
            *rate *= ALPHA;
        }
        let counted = (0..=u16::MAX).map(GroupId).zip(&closed.groups);
        for (gid, window) in counted.filter(|(_, w)| **w != RawGroupWindow::default()) {
            let decayed = self.groups.entry(gid).or_default();
            decayed.lookups += window.lookups as f64;
            decayed.l3_walks += window.l3_walks as f64;
            decayed.l4_walks += window.l4_walks as f64;
            decayed.false_hits += window.false_hits as f64;
            decayed.mask_hits += window.mask_hits as f64;
            decayed.mask_misses += window.mask_misses as f64;
        }
        for (slot, &count) in closed.entries.iter().enumerate().filter(|&(_, &n)| n > 0) {
            *self.entries.entry(slot).or_default() += count as f64;
        }
        // Drop dissolved groups' rows — their ids may be reused — and
        // retired servers' rows once they decay to dust.
        let live = |gid: &GroupId| shape.iter().any(|(live, _)| live == gid);
        self.groups.retain(|gid, d| live(gid) && d.lookups >= 1e-3);
        self.entries.retain(|_, rate| *rate >= 1e-3);
    }

    fn group(&self, gid: GroupId) -> DecayedGroup {
        self.groups.get(&gid).copied().unwrap_or_default()
    }

    fn entry_rate(&self, entry: MdsId) -> f64 {
        self.entries
            .get(&entry_slot(entry))
            .copied()
            .unwrap_or_default()
    }

    /// The [`LoadReport`] of the decayed rates under the live shape
    /// `(gid, members)`, for the window whose raw walk count was
    /// `fresh_lookups`.
    pub(crate) fn report(
        &self,
        epoch: MembershipEpoch,
        fresh_lookups: u64,
        shape: &[(GroupId, Vec<MdsId>)],
    ) -> LoadReport {
        let total: f64 = shape.iter().map(|&(gid, _)| self.group(gid).lookups).sum();
        let groups = shape
            .iter()
            .map(|(gid, members)| {
                let decayed = self.group(*gid);
                let rates: Vec<f64> = members.iter().map(|&m| self.entry_rate(m)).collect();
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
            window: self.window,
            epoch,
            fresh_lookups,
            total,
            groups,
        }
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
/// by [`Cluster::load_report`](crate::Cluster::load_report) (either
/// layout), consumed by
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

/// L2/L3 mask-cache accounting over every walk since construction
/// (`reset_stats` does not clear it), counting the consults still in the
/// cluster's unfolded tally too, so a `&self` reader — the load report,
/// a controller, a bench — sees every consult that has happened, drained
/// or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaskCacheStats {
    /// Consults answered by a plan already built, over the cluster's
    /// lifetime.
    pub lifetime_hits: u64,
    /// Consults that had to build their mask, lifetime.
    pub lifetime_misses: u64,
}

impl MaskCacheStats {
    /// Assembles the view from the lifetime accumulator and the
    /// not-yet-folded consults.
    #[must_use]
    pub(crate) fn assemble(lifetime: (u64, u64), pending: (u64, u64)) -> MaskCacheStats {
        MaskCacheStats {
            lifetime_hits: lifetime.0 + pending.0,
            lifetime_misses: lifetime.1 + pending.1,
        }
    }

    /// Lifetime `(hits, misses)` — the shape the pre-unification
    /// accessor returned.
    #[must_use]
    pub fn lifetime(&self) -> (u64, u64) {
        (self.lifetime_hits, self.lifetime_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_attribute_walks_and_masks_per_group() {
        let (mut tally, mut other) = (LoadTally::default(), LoadTally::default());
        tally.walk(GroupId(0), MdsId(0), QueryLevel::L2Segment, 0);
        tally.walk(GroupId(0), MdsId(1), QueryLevel::L3Group, 1);
        other.walk(GroupId(2), MdsId(5), QueryLevel::L4Global, 2);
        other.mask(GroupId(0), true);
        other.mask(GroupId(0), false);
        tally.add(&other);
        assert_eq!(tally.lookups(), 3);
        let g0 = tally.groups[0];
        assert_eq!(g0.lookups, 2);
        assert_eq!(g0.l3_walks, 1);
        assert_eq!(g0.l4_walks, 0);
        assert_eq!(g0.false_hits, 1);
        assert_eq!((g0.mask_hits, g0.mask_misses), (1, 1));
        assert_eq!(tally.groups[1], RawGroupWindow::default());
        let g2 = tally.groups[2];
        assert_eq!((g2.lookups, g2.l3_walks, g2.l4_walks), (1, 1, 1));
        assert_eq!(g2.false_hits, 2);
        assert_eq!(tally.entries, [1, 1, 0, 0, 0, 1]);
        // Cleared: the next window starts empty.
        tally.clear();
        assert_eq!(tally.lookups(), 0);
        assert!(tally.entries.is_empty());
    }

    #[test]
    fn overflow_entries_share_the_final_slot() {
        let mut tally = LoadTally::default();
        tally.walk(GroupId(0), MdsId(u16::MAX), QueryLevel::L2Segment, 0);
        tally.walk(GroupId(0), MdsId(9), QueryLevel::L2Segment, 0);
        assert_eq!(tally.entries.len(), LOAD_ENTRY_SLOTS);
        assert_eq!(tally.entries[LOAD_ENTRY_SLOTS - 1], 1);
        assert_eq!(tally.entries[9], 1);
    }

    /// A report keeps only the rows of the groups its shape lists, so a
    /// dissolved group's history is gone before its id is reused.
    #[test]
    fn dissolved_groups_leave_no_history_for_a_reused_id() {
        let mut windows = LoadWindows::default();
        let mut tally = LoadTally::default();
        tally.walk(GroupId(1), MdsId(2), QueryLevel::L2Segment, 0);
        let both = [(GroupId(0), vec![MdsId(0)]), (GroupId(1), vec![MdsId(2)])];
        windows.fold(&tally, &both);
        let report = windows.report(MembershipEpoch(0), 1, &both);
        assert_eq!(report.groups[1].lookups, 1.0);
        windows.fold(&LoadTally::default(), &both[..1]);
        let reused = windows.report(MembershipEpoch(1), 0, &both);
        assert_eq!(reused.groups[1].lookups, 0.0, "group 1 starts clean");
    }

    #[test]
    fn windows_decay_and_reports_rank_hot_groups() {
        let mut windows = LoadWindows::default();
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
        windows.fold(&tally, &shape);
        let report = windows.report(MembershipEpoch(3), tally.lookups(), &shape);
        assert_eq!(report.window, 1);
        assert_eq!(report.fresh_lookups, 100);
        assert_eq!(report.servers(), 4);
        let g0 = report.group(GroupId(0)).expect("g0");
        assert!((g0.share - 0.9).abs() < 1e-9);
        assert!((g0.l3_share - 1.0).abs() < 1e-9);
        assert!((g0.imbalance - 2.0).abs() < 1e-9, "one of two members hot");
        // Window 2: silence. Rates halve, shares persist.
        windows.fold(&LoadTally::default(), &shape);
        let report = windows.report(MembershipEpoch(3), 0, &shape);
        let g0 = report.group(GroupId(0)).expect("g0");
        assert!((g0.lookups - 45.0).abs() < 1e-9, "alpha 0.5 halves");
        assert!((g0.share - 0.9).abs() < 1e-9);
        assert_eq!(report.fresh_lookups, 0);
    }

    #[test]
    fn idle_groups_report_neutral_rates() {
        let windows = LoadWindows::default();
        let shape = vec![(GroupId(7), vec![MdsId(0)])];
        let report = windows.report(MembershipEpoch(0), 0, &shape);
        let g = report.group(GroupId(7)).expect("g7");
        assert_eq!(g.share, 0.0);
        assert_eq!(g.mask_hit_rate, 1.0);
        assert_eq!(g.imbalance, 1.0);
    }

    #[test]
    fn mask_cache_stats_count_pending_consults() {
        let stats = MaskCacheStats::assemble((100, 10), (6, 4));
        assert_eq!(stats.lifetime(), (106, 14));
    }
}
