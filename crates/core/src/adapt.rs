//! The online controller: closes the loop from [`LoadReport`]s to
//! live split/merge/rebalance through a [`ReconfigHandle`].
//!
//! The paper derives an interior-optimal group size M* offline and
//! assumes an administrator applies it. [`GroupController`] uses the
//! same model *online*: each tick it consumes one window-decayed
//! [`LoadReport`], compares every group's observed traffic share
//! against its fair share, and emits typed [`AdaptAction`]s. Actuation
//! goes through the existing [`ReconfigHandle`], so every applied
//! action is one pointer-swap publish: in-flight walks finish on their
//! pinned snapshot and untouched groups keep their per-group epochs —
//! and therefore their warm plans — through every decision.
//!
//! # The hysteresis / cooldown contract
//!
//! The controller is built so that **measurement noise and its own
//! actions can never drive an oscillation**:
//!
//! 1. **Shape drift alone never triggers an action.** Every trigger
//!    compares a group's *traffic* (share of decayed lookups, or
//!    member imbalance) against thresholds; the M* model only *gates*
//!    candidate actions (which groups may split, how large a merge may
//!    grow). A cluster whose group sizes differ from M* but whose load
//!    is uniform gets zero actions, and a report with fewer than
//!    [`min_window_lookups`](ControllerConfig::min_window_lookups)
//!    fresh walks is treated as idle and planned as empty.
//! 2. **The hot and cold thresholds are separated by construction.**
//!    A split requires share ≥ [`HOT_SHARE`] × fair (1.6×); a merge
//!    requires *both* partners at share ≤ [`COLD_SHARE`] × fair (0.5×).
//!    A freshly split group's halves inherit roughly half its share
//!    each, landing between the thresholds, so a split is never
//!    immediately undone — and a merged pair of cold groups sums to at
//!    most 2 × cold × fair ≤ fair, so a merge never creates a hot
//!    group. A merge never grows past ⌈[`MERGE_HEADROOM`] × M*⌉
//!    members, and a group is rebalanced only once its imbalance
//!    reaches [`IMBALANCE_LIMIT`] on at least [`MIN_REBALANCE_RATE`]
//!    decayed lookups per member.
//! 3. **Cooldowns.** Every group named by a planned action (including
//!    the id a split mints, registered at actuation) is barred from
//!    further actions for [`cooldown_ticks`](ControllerConfig::cooldown_ticks)
//!    ticks, giving the decayed windows time to re-converge on the new
//!    shape before the controller may touch it again.
//! 4. **A per-tick budget.** A plan never exceeds
//!    [`max_actions_per_tick`](ControllerConfig::max_actions_per_tick)
//!    actions regardless of the report, so churn cannot outrun the
//!    epoch machinery — each tick publishes at most a handful of
//!    snapshots, and the proptest suite holds this bound over
//!    arbitrary report sequences.
//!
//! Planning is pure and deterministic: the same controller state and
//! the same report always yield the same action list (groups are
//! scanned in ascending id order, candidates ranked by severity with
//! id tie-breaks, no randomness, no clocks). The reconfig-interleaving
//! property suite leans on this to drive lock-step cluster variants
//! through identical controller-chosen churn.

use std::collections::HashMap;

use crate::ids::GroupId;
use crate::load::LoadReport;
use crate::snapshot::ReconfigHandle;

/// One typed reconfiguration decision, actuated through
/// [`ReconfigHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptAction {
    /// Split this hot group per the paper's §3.2 rule.
    Split(GroupId),
    /// Merge the second (cold) group into the first.
    Merge(GroupId, GroupId),
    /// Re-spread replica load inside this skewed group.
    Rebalance(GroupId),
}

impl AdaptAction {
    /// Groups this action names (the merge names two).
    #[must_use]
    pub fn touches(&self) -> (GroupId, Option<GroupId>) {
        match *self {
            AdaptAction::Split(g) | AdaptAction::Rebalance(g) => (g, None),
            AdaptAction::Merge(a, b) => (a, Some(b)),
        }
    }

    /// Applies this action through `handle`, returning whether the
    /// handle accepted it (the shape may have changed since planning —
    /// a refusal is benign). Deterministic: the handle's operations
    /// use no randomness, so applying one action list to lock-step
    /// clusters keeps their shapes identical.
    pub fn apply(&self, handle: &ReconfigHandle) -> bool {
        match *self {
            AdaptAction::Split(g) => handle.split_group(g).is_some(),
            AdaptAction::Merge(a, b) => handle.merge_groups(a, b),
            AdaptAction::Rebalance(g) => handle.rebalance_group(g).is_some(),
        }
    }
}

/// How the controller derives its target group size M*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetM {
    /// Pin M* to a fixed value (the "static M" baseline).
    Fixed(usize),
    /// The paper's analytic optimum, tracked online as `round(√N)` of
    /// the *observed* server count — within ±1 of
    /// `ghba_analysis::AnalyticModel::optimal_m` across the paper's
    /// fig6/fig7 range (M* ≈ 6 at N=30, 9 at N=100, 14 at N=200); a
    /// cross-check test in `ghba-core` holds the two together.
    PaperModel,
}

impl TargetM {
    /// The target group size for a cluster of `servers`, clamped to
    /// `[2, max_group_size]`.
    #[must_use]
    pub fn group_size(&self, servers: usize, max_group_size: usize) -> usize {
        let raw = match *self {
            TargetM::Fixed(m) => m,
            TargetM::PaperModel => (servers as f64).sqrt().round() as usize,
        };
        raw.clamp(2, max_group_size.max(2))
    }
}

/// Split trigger: a group's share ≥ `HOT_SHARE` × its fair share.
pub const HOT_SHARE: f64 = 1.6;
/// Merge trigger: both partners at share ≤ `COLD_SHARE` × fair.
pub const COLD_SHARE: f64 = 0.5;
/// Rebalance trigger: member imbalance ≥ this (max/mean ≥ 1).
pub const IMBALANCE_LIMIT: f64 = 1.5;
/// Imbalance is a max/mean *estimator*: at low per-member rates it is
/// dominated by Poisson noise (relative spread ~1/√rate), and a
/// controller that rebalances on noise churns uniform traffic forever. A
/// group is considered for rebalance only once its window-decayed
/// lookups reach `MIN_REBALANCE_RATE × members`.
pub const MIN_REBALANCE_RATE: f64 = 32.0;
/// Merged groups may not exceed `ceil(MERGE_HEADROOM × M*)` members (and
/// never the handle's hard maximum).
pub const MERGE_HEADROOM: f64 = 1.25;

/// Tuning knobs for [`GroupController`]; with the thresholds above, the
/// defaults encode the hysteresis/cooldown contract in the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// How M* is derived each tick.
    pub target: TargetM,
    /// Ticks a group stays untouchable after an action names it.
    pub cooldown_ticks: u64,
    /// Hard per-tick cap on emitted actions.
    pub max_actions_per_tick: usize,
    /// Reports with fewer fresh walks than this are planned as empty.
    pub min_window_lookups: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            target: TargetM::PaperModel,
            cooldown_ticks: 2,
            max_actions_per_tick: 2,
            min_window_lookups: 64,
        }
    }
}

impl ControllerConfig {
    /// Replaces the M* source.
    #[must_use]
    pub fn with_target(mut self, target: TargetM) -> Self {
        self.target = target;
        self
    }

    /// Replaces the per-tick action budget (min 1).
    #[must_use]
    pub fn with_budget(mut self, max_actions_per_tick: usize) -> Self {
        self.max_actions_per_tick = max_actions_per_tick.max(1);
        self
    }

    /// Replaces the cooldown length.
    #[must_use]
    pub fn with_cooldown(mut self, ticks: u64) -> Self {
        self.cooldown_ticks = ticks;
        self
    }

    /// Replaces the idle gate.
    #[must_use]
    pub fn with_min_window_lookups(mut self, lookups: u64) -> Self {
        self.min_window_lookups = lookups;
        self
    }
}

/// The online controller. Feed it successive [`LoadReport`]s via
/// [`plan`](GroupController::plan) (pure) or
/// [`actuate`](GroupController::actuate) (plan + apply through a
/// [`ReconfigHandle`]); see the module docs for the stability
/// contract.
#[derive(Debug)]
pub struct GroupController {
    cfg: ControllerConfig,
    tick: u64,
    /// gid → first tick at which the group may be acted on again.
    cooldowns: HashMap<GroupId, u64>,
    actions_total: u64,
}

impl Default for GroupController {
    fn default() -> Self {
        GroupController::new(ControllerConfig::default())
    }
}

impl GroupController {
    /// Creates a controller with the given tuning.
    #[must_use]
    pub fn new(cfg: ControllerConfig) -> Self {
        GroupController {
            cfg,
            tick: 0,
            cooldowns: HashMap::new(),
            actions_total: 0,
        }
    }

    /// The tuning this controller runs with.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Ticks consumed so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Actions planned over the controller's lifetime.
    #[must_use]
    pub fn actions_total(&self) -> u64 {
        self.actions_total
    }

    fn on_cooldown(&self, gid: GroupId) -> bool {
        self.cooldowns
            .get(&gid)
            .is_some_and(|&until| self.tick < until)
    }

    fn start_cooldown(&mut self, gid: GroupId) {
        self.cooldowns
            .insert(gid, self.tick + self.cfg.cooldown_ticks);
    }

    /// Consumes one report and returns this tick's actions (possibly
    /// empty, never more than the budget). Pure decision logic — no
    /// actuation — but it *does* advance the tick, age cooldowns, and
    /// start cooldowns for every group the plan names, so callers
    /// applying the plan themselves (the lock-step property suite, the
    /// bench's shadow clusters) get the same follow-up behavior as
    /// [`actuate`](Self::actuate).
    pub fn plan(&mut self, report: &LoadReport, max_group_size: usize) -> Vec<AdaptAction> {
        self.tick += 1;
        self.cooldowns.retain(|_, &mut until| self.tick < until);
        if report.fresh_lookups < self.cfg.min_window_lookups || report.groups.is_empty() {
            return Vec::new();
        }
        let servers = report.servers();
        if servers == 0 || report.total <= f64::EPSILON {
            return Vec::new();
        }
        let target = self.cfg.target.group_size(servers, max_group_size);
        let merge_cap = ((MERGE_HEADROOM * target as f64).ceil() as usize).min(max_group_size);
        let split_floor = max_group_size / 2 + 1;

        let mut plan: Vec<AdaptAction> = Vec::new();
        let budget = self.cfg.max_actions_per_tick.max(1);

        // Hot groups, hottest first (id tie-break): split the ones the
        // handle's rule can actually split.
        let mut hot: Vec<_> = report
            .groups
            .iter()
            .filter(|g| {
                let fair = g.members as f64 / servers as f64;
                !self.on_cooldown(g.gid) && g.members > split_floor && g.share >= HOT_SHARE * fair
            })
            .collect();
        hot.sort_by(|a, b| b.share.total_cmp(&a.share).then(a.gid.0.cmp(&b.gid.0)));
        for g in hot {
            if plan.len() >= budget {
                break;
            }
            plan.push(AdaptAction::Split(g.gid));
        }

        // Cold groups, coldest first: pack adjacent pairs back toward
        // M*, never past the headroom or the hard maximum.
        let mut cold: Vec<_> = report
            .groups
            .iter()
            .filter(|g| {
                let fair = g.members as f64 / servers as f64;
                !self.on_cooldown(g.gid)
                    && !plan.iter().any(|a| a.touches().0 == g.gid)
                    && g.share <= COLD_SHARE * fair
            })
            .collect();
        cold.sort_by(|a, b| a.share.total_cmp(&b.share).then(a.gid.0.cmp(&b.gid.0)));
        let mut cold_iter = cold.into_iter().peekable();
        while let Some(a) = cold_iter.next() {
            if plan.len() >= budget {
                break;
            }
            let Some(b) = cold_iter.peek() else { break };
            if a.members + b.members <= merge_cap {
                let b = cold_iter.next().expect("peeked");
                plan.push(AdaptAction::Merge(a.gid, b.gid));
            }
        }

        // Skewed groups, most skewed first: internal rebalance.
        let mut skewed: Vec<_> = report
            .groups
            .iter()
            .filter(|g| {
                !self.on_cooldown(g.gid)
                    && g.members >= 2
                    && g.lookups >= MIN_REBALANCE_RATE * g.members as f64
                    && g.imbalance >= IMBALANCE_LIMIT
                    && !plan
                        .iter()
                        .any(|x| x.touches().0 == g.gid || x.touches().1 == Some(g.gid))
            })
            .collect();
        skewed.sort_by(|a, b| {
            b.imbalance
                .total_cmp(&a.imbalance)
                .then(a.gid.0.cmp(&b.gid.0))
        });
        for g in skewed {
            if plan.len() >= budget {
                break;
            }
            plan.push(AdaptAction::Rebalance(g.gid));
        }

        for action in &plan {
            let (a, b) = action.touches();
            self.start_cooldown(a);
            if let Some(b) = b {
                self.start_cooldown(b);
            }
        }
        self.actions_total += plan.len() as u64;
        plan
    }

    /// Plans against `report` and applies the plan through `handle`,
    /// returning the actions the handle accepted. A split's minted
    /// group id is put on cooldown too, so the new group gets the same
    /// settling time as its parent (and none a dissolved group that held
    /// the id left behind).
    pub fn actuate(&mut self, report: &LoadReport, handle: &ReconfigHandle) -> Vec<AdaptAction> {
        let plan = self.plan(report, handle.max_group_size());
        let mut applied = Vec::with_capacity(plan.len());
        for action in plan {
            let ok = match action {
                AdaptAction::Split(g) => match handle.split_group(g) {
                    Some(minted) => {
                        self.start_cooldown(minted);
                        true
                    }
                    None => false,
                },
                _ => action.apply(handle),
            };
            if ok {
                applied.push(action);
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MembershipEpoch;
    use crate::load::{GroupLoad, LoadReport};

    fn report(shares: &[(u16, usize, f64)]) -> LoadReport {
        let total = 1000.0;
        LoadReport {
            window: 1,
            epoch: MembershipEpoch(1),
            fresh_lookups: 1000,
            total,
            groups: shares
                .iter()
                .map(|&(gid, members, share)| GroupLoad {
                    gid: GroupId(gid),
                    members,
                    lookups: share * total,
                    share,
                    l3_share: 0.2,
                    l4_share: 0.0,
                    false_hit_rate: 0.0,
                    mask_hit_rate: 1.0,
                    imbalance: 1.0,
                })
                .collect(),
        }
    }

    #[test]
    fn uniform_load_plans_nothing() {
        let mut ctl = GroupController::default();
        // 3 groups × 4 members, each at exactly its fair share.
        let r = report(&[(0, 4, 1.0 / 3.0), (1, 4, 1.0 / 3.0), (2, 4, 1.0 / 3.0)]);
        for _ in 0..50 {
            assert!(ctl.plan(&r, 8).is_empty());
        }
        assert_eq!(ctl.actions_total(), 0);
    }

    #[test]
    fn idle_windows_plan_nothing_even_when_skewed() {
        let mut ctl = GroupController::default();
        let mut r = report(&[(0, 8, 0.9), (1, 4, 0.1)]);
        r.fresh_lookups = 3;
        assert!(ctl.plan(&r, 8).is_empty());
    }

    #[test]
    fn hot_large_group_splits_and_cools_down() {
        let mut ctl = GroupController::new(ControllerConfig::default().with_cooldown(3));
        // Group 0: 8 of 12 servers (fair 0.667), share 0.95 ≥ 1.6×… no —
        // 1.6 × 0.667 > 1. Use a hotter-than-fair mid-size group: 6 of
        // 16 servers, fair 0.375, hot bar 0.6.
        let r = report(&[(0, 6, 0.8), (1, 5, 0.1), (2, 5, 0.1)]);
        let plan = ctl.plan(&r, 8);
        assert_eq!(plan.first(), Some(&AdaptAction::Split(GroupId(0))));
        // Cooldown: the same report plans no further split of group 0.
        for _ in 0..2 {
            let plan = ctl.plan(&r, 8);
            assert!(
                !plan.iter().any(|a| a.touches().0 == GroupId(0)),
                "cooldown violated: {plan:?}"
            );
        }
        // After the cooldown expires it may fire again.
        let plan = ctl.plan(&r, 8);
        assert_eq!(plan.first(), Some(&AdaptAction::Split(GroupId(0))));
    }

    #[test]
    fn small_hot_groups_are_not_splittable() {
        let mut ctl = GroupController::default();
        // Hot but at the split floor (max 8 → floor 5): refuse.
        let r = report(&[(0, 5, 0.9), (1, 5, 0.05), (2, 6, 0.05)]);
        let plan = ctl.plan(&r, 8);
        assert!(!plan.iter().any(|a| matches!(a, AdaptAction::Split(_))));
    }

    #[test]
    fn cold_pairs_merge_within_headroom() {
        let mut ctl = GroupController::default();
        // 4 groups of 3 on 12 servers (fair 0.25, cold bar 0.125);
        // groups 2 and 3 nearly idle. M* = round(√12) = 3 with headroom
        // 1.25 → cap ceil(3.75) = 4 < 6 members: merge refused by cap.
        let r = report(&[(0, 3, 0.45), (1, 3, 0.45), (2, 3, 0.05), (3, 3, 0.05)]);
        assert!(
            !ctl.plan(&r, 8)
                .iter()
                .any(|a| matches!(a, AdaptAction::Merge(..))),
            "headroom cap must refuse a 6-member merge at M*=3"
        );
        // Pinning the target higher lifts the cap and the pair merges.
        let mut ctl =
            GroupController::new(ControllerConfig::default().with_target(TargetM::Fixed(6)));
        let plan = ctl.plan(&r, 8);
        assert!(
            plan.contains(&AdaptAction::Merge(GroupId(2), GroupId(3))),
            "{plan:?}"
        );
    }

    #[test]
    fn skew_triggers_rebalance() {
        let mut ctl = GroupController::default();
        let mut r = report(&[(0, 4, 0.5), (1, 4, 0.5)]);
        r.groups[1].imbalance = 3.0;
        let plan = ctl.plan(&r, 8);
        assert_eq!(plan, vec![AdaptAction::Rebalance(GroupId(1))]);
    }

    #[test]
    fn sparse_imbalance_is_noise_and_plans_nothing() {
        let mut ctl = GroupController::default();
        let mut r = report(&[(0, 4, 0.5), (1, 4, 0.5)]);
        // Same 3× skew as above, but at ~6 decayed lookups per member
        // the max/mean estimator is Poisson noise: hold still.
        r.total = 48.0;
        for g in &mut r.groups {
            g.lookups = 24.0;
        }
        r.groups[1].imbalance = 3.0;
        assert!(ctl.plan(&r, 8).is_empty());
    }

    #[test]
    fn budget_caps_every_plan() {
        let mut ctl = GroupController::new(ControllerConfig::default().with_budget(1));
        let mut r = report(&[
            (0, 6, 0.40),
            (1, 6, 0.40),
            (2, 6, 0.04),
            (3, 6, 0.04),
            (4, 6, 0.12),
        ]);
        for g in &mut r.groups {
            g.imbalance = 5.0;
        }
        let plan = ctl.plan(&r, 8);
        assert_eq!(plan.len(), 1, "{plan:?}");
    }

    #[test]
    fn paper_model_tracks_root_n() {
        assert_eq!(TargetM::PaperModel.group_size(30, 64), 5);
        assert_eq!(TargetM::PaperModel.group_size(100, 64), 10);
        assert_eq!(TargetM::PaperModel.group_size(200, 64), 14);
        assert_eq!(TargetM::PaperModel.group_size(4, 64), 2, "clamped up");
        assert_eq!(TargetM::PaperModel.group_size(200, 8), 8, "clamped down");
        assert_eq!(TargetM::Fixed(6).group_size(100, 64), 6);
    }
}
