//! Control-plane acceptance tests: the online [`GroupController`]
//! against real clusters and against adversarial synthetic telemetry.
//!
//! Four properties anchor the suite:
//!
//! * **No oscillation**: a stable uniform load — real traffic, spread
//!   evenly — produces *zero* actions, tick after tick, because every
//!   group sits between the hot and cold hysteresis thresholds.
//! * **Bounded actuation**: no `LoadReport` sequence, however
//!   adversarial, makes one tick exceed the configured action budget.
//! * **Model agreement**: the controller's online `PaperModel` target
//!   tracks the offline [`AnalyticModel`] optimum the analysis crate
//!   derives from the paper (both sit on the √N ridge).
//! * **A day's shape**: a flash crowd that migrates splits both hot
//!   regions, an overnight trough merges split remnants back toward M*,
//!   and every group no action names keeps its warm mask cache.

use ghba_analysis::AnalyticModel;
use ghba_core::{
    AdaptAction, ControllerConfig, EntryPolicy, GhbaCluster, GhbaConfig, GroupController, GroupId,
    GroupLoad, LoadReport, MdsId, MembershipEpoch, MetadataService, OpBatch, TargetM,
};
use ghba_simnet::DetRng;
use proptest::prelude::*;

fn config(seed: u64) -> GhbaConfig {
    GhbaConfig::default()
        .with_filter_capacity(4_000)
        .with_lru_capacity(0)
        .with_max_group_size(8)
        .with_seed(seed)
}

/// Executes `per_server` lookups pinned to every server in turn —
/// traffic as uniform as the cluster can see it.
fn uniform_traffic(cluster: &mut GhbaCluster, per_server: usize) {
    for id in cluster.server_ids() {
        let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(id));
        for i in 0..per_server {
            batch.push_lookup(format!("/u/s{}/f{i}", id.0));
        }
        cluster.execute(&batch);
    }
}

/// Satellite bar 1: stable uniform load ⇒ zero actions, forever. The
/// hysteresis gap (hot at 1.6× fair, cold at 0.5× fair) is what holds
/// the line — every group's share *is* fair here.
#[test]
fn stable_uniform_load_never_triggers_actions() {
    let mut cluster = GhbaCluster::with_servers(config(7), 24);
    let mut controller =
        GroupController::new(ControllerConfig::default().with_min_window_lookups(1));
    let handle = cluster.reconfig_handle();
    let epoch_before = cluster.membership_epoch();
    for tick in 0..20 {
        uniform_traffic(&mut cluster, 16);
        let report = cluster.load_report();
        let actions = controller.actuate(&report, &handle);
        assert!(
            actions.is_empty(),
            "tick {tick}: uniform load must plan nothing, got {actions:?}"
        );
    }
    assert_eq!(controller.actions_total(), 0);
    assert_eq!(
        cluster.membership_epoch(),
        epoch_before,
        "no action may have touched the routes"
    );
}

/// A hot group on a *real* cluster gets split by `actuate`, and the
/// untouched groups' lookups keep resolving identically afterwards.
#[test]
fn actuate_splits_the_hot_group_on_a_real_cluster() {
    let mut cluster = GhbaCluster::with_servers(config(11), 24);
    // 24 servers in 3 groups of 8; all traffic lands in MdsId(0)'s
    // group, giving it share 1.0 against a fair share of 1/3.
    let hot_gid = cluster.group_of(MdsId(0)).expect("grouped");
    let groups_before = cluster.group_count();
    for i in 0..96 {
        cluster.create(&format!("/hot/f{i}"));
    }
    let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(0)));
    for i in 0..96 {
        batch.push_lookup(format!("/hot/f{i}"));
    }
    cluster.execute(&batch);

    let mut controller =
        GroupController::new(ControllerConfig::default().with_min_window_lookups(1));
    let report = cluster.load_report();
    let hot_row = report.group(hot_gid).expect("hot group reported");
    assert!(hot_row.share > 0.9, "all traffic was pinned there");
    let handle = cluster.reconfig_handle();
    let actions = controller.actuate(&report, &handle);
    assert!(
        actions
            .iter()
            .any(|a| matches!(a, ghba_core::AdaptAction::Split(gid) if *gid == hot_gid)),
        "the hot group must split, got {actions:?}"
    );
    assert_eq!(cluster.group_count(), groups_before + 1);
    cluster.check_invariants().expect("routes stay sound");
    // The files are still found after the controller-driven split.
    for i in 0..96 {
        assert!(
            cluster.lookup(&format!("/hot/f{i}")).found(),
            "file {i} lost across the split"
        );
    }
}

/// Model agreement: the online `PaperModel` target and the analysis
/// crate's offline Γ-sweep optimum land on the same √N ridge at the
/// paper's three cluster sizes (within the spill-cliff wobble).
#[test]
fn paper_model_agrees_with_the_analytic_optimum() {
    for n in [30usize, 100, 200] {
        let online = TargetM::PaperModel.group_size(n, usize::MAX);
        let offline = AnalyticModel::new(n, 0.62).optimal_m(2 * online);
        let gap = online.abs_diff(offline);
        assert!(
            gap <= 2,
            "N={n}: online target {online} strayed from analytic optimum {offline}"
        );
    }
}

/// One phase of a simulated day: `windows` traffic windows, each
/// offering `intensity` × [`NOMINAL_OPS`] lookups, `hot_focus` of them
/// entering through the hot region — the first group's servers, or the
/// last group's once the crowd has moved (`late`).
struct Phase {
    name: &'static str,
    windows: u64,
    intensity: f64,
    hot_focus: f64,
    late: bool,
}

/// Lookups per window at intensity 1.0.
const NOMINAL_OPS: f64 = 400.0;

/// A working day with a flash crowd: a calm night, a ramp and a day
/// plateau, a 6× flash crowd 90 % of which enters through one region,
/// and a cooldown whose skew lands on a second region.
#[rustfmt::skip]
const FLASH_DAY: &[Phase] = &[
    Phase { name: "night",    windows: 12, intensity: 0.2, hot_focus: 0.0, late: false },
    Phase { name: "ramp",     windows: 9,  intensity: 1.0, hot_focus: 0.3, late: false },
    Phase { name: "day",      windows: 12, intensity: 2.0, hot_focus: 0.1, late: false },
    Phase { name: "flash",    windows: 9,  intensity: 6.0, hot_focus: 0.9, late: false },
    Phase { name: "cooldown", windows: 9,  intensity: 1.5, hot_focus: 0.4, late: true },
    Phase { name: "evening",  windows: 9,  intensity: 0.5, hot_focus: 0.0, late: true },
];

/// The night after a scale-out: dusk keeps a residual skew on the
/// day's region, the long trough leaves only a batch region busy (every
/// other group idles below the cold bar), and dawn is uniform.
#[rustfmt::skip]
const OVERNIGHT: &[Phase] = &[
    Phase { name: "dusk",     windows: 15, intensity: 1.0, hot_focus: 0.3, late: false },
    Phase { name: "trough",   windows: 30, intensity: 0.3, hot_focus: 0.8, late: true },
    Phase { name: "dawn",     windows: 15, intensity: 0.6, hot_focus: 0.0, late: true },
];

/// 48 servers in groups of at most `max_group_size`, holding 2,000
/// files spread over 61 directories.
fn day_cluster(max_group_size: usize) -> (GhbaCluster, Vec<String>) {
    let config = GhbaConfig::default()
        .with_filter_capacity(8_000)
        .with_lru_capacity(0)
        .with_max_group_size(max_group_size)
        .with_seed(0xD1A);
    let mut cluster = GhbaCluster::with_servers(config, 48);
    let paths: Vec<String> = (0..2_000)
        .map(|i| format!("/scn/d{}/f{i}", i % 61))
        .collect();
    let mut batch = OpBatch::new();
    for path in &paths {
        batch.push_create(path);
    }
    cluster.execute(&batch);
    cluster.flush_all_updates();
    (cluster, paths)
}

/// Drives `day` at `cluster`: per window, its lookups from `&self`,
/// then one controller tick. Returns every accepted action with its
/// window and phase. Both hot regions are frozen as server sets before
/// the first tick, so a split of the group holding one keeps it.
fn drive_day(
    cluster: &mut GhbaCluster,
    controller: &mut GroupController,
    day: &[Phase],
    paths: &[String],
) -> Vec<(u64, &'static str, AdaptAction)> {
    let servers = cluster.server_ids();
    let handle = cluster.reconfig_handle();
    let gids = handle.group_ids();
    let first = handle.group_members(gids[0]).expect("first group");
    let last = handle
        .group_members(gids[gids.len() - 1])
        .expect("last group");
    let mut actions = Vec::new();
    let mut window = 0u64;
    for phase in day {
        let region = if phase.late { &last } else { &first };
        for _ in 0..phase.windows {
            let mut rng = DetRng::new(0x5CE7A).fork(window);
            for _ in 0..(NOMINAL_OPS * phase.intensity).round() as u64 {
                let entry = if rng.chance(phase.hot_focus) {
                    region[rng.index(region.len())]
                } else {
                    servers[rng.index(servers.len())]
                };
                let path = &paths[rng.index(paths.len())];
                assert!(cluster.lookup_concurrent(entry, path).found(), "{path}");
            }
            let load = cluster.load_report();
            for action in controller.actuate(&load, &cluster.reconfig_handle()) {
                actions.push((window, phase.name, action));
            }
            window += 1;
        }
    }
    actions
}

/// Groups no action (nor `also_touched`) ever named kept their
/// per-group epochs, so their shared mask caches stayed warm (hit rate
/// ≥ 0.99) through every reconfiguration. Only groups still at their
/// original `members` count — minted groups start cold — and at least
/// `at_least` of them, so the assertion is not vacuous.
fn assert_untouched_groups_stay_warm(
    cluster: &GhbaCluster,
    actions: &[(u64, &'static str, AdaptAction)],
    also_touched: &[GroupId],
    members: usize,
    at_least: usize,
) {
    let touched: Vec<GroupId> = actions
        .iter()
        .flat_map(|(_, _, a)| {
            let (x, y) = a.touches();
            std::iter::once(x).chain(y)
        })
        .chain(also_touched.iter().copied())
        .collect();
    let mut untouched = 0;
    for g in &cluster.load_report().groups {
        if !touched.contains(&g.gid) && g.members == members {
            untouched += 1;
            assert!(
                g.mask_hit_rate >= 0.99,
                "group {:?} lost its warm mask cache through {actions:?}: {}",
                g.gid,
                g.mask_hit_rate
            );
        }
    }
    assert!(untouched >= at_least, "the assertion must not be vacuous");
}

/// A flash crowd splits the group it enters through; when its skew
/// moves to a second region, that region splits too. Calm phases
/// trigger nothing, and the group no split names stays warm.
#[test]
fn a_migrating_flash_crowd_splits_both_hot_regions() {
    let (mut cluster, paths) = day_cluster(16);
    let epoch = cluster.membership_epoch();
    let mut controller = GroupController::new(ControllerConfig::default());
    let actions = drive_day(&mut cluster, &mut controller, FLASH_DAY, &paths);

    let splits: Vec<GroupId> = actions
        .iter()
        .filter_map(|(_, _, a)| match a {
            AdaptAction::Split(gid) => Some(*gid),
            _ => None,
        })
        .collect();
    assert!(
        splits.contains(&GroupId(0)),
        "the flash crowd must split the first group, got {actions:?}"
    );
    assert!(
        splits.iter().any(|gid| *gid != GroupId(0)),
        "the migrated cooldown skew must split a second region, got {actions:?}"
    );
    assert!(
        cluster.membership_epoch().0 - epoch.0 >= 2,
        "each split publishes an epoch"
    );
    assert!(cluster.group_count() >= 5);
    cluster.check_invariants().expect("routes stay sound");
    for (w, phase, action) in &actions {
        assert!(
            !matches!(*phase, "night" | "evening"),
            "action {action:?} fired in a calm phase (window {w})"
        );
    }
    // Group 1 is never named, so it stays warm through both splits
    // (minted groups are smaller than the original 16).
    assert_untouched_groups_stay_warm(&cluster, &actions, &[], 16, 1);
}

/// After a flash-crowd day split three groups (8 → 3 + 5, nine groups
/// of mean 5.3, under M* = round(√48) = 7), the overnight trough merges
/// remnants back toward M*, only in the trough, without splitting, and
/// every group no merge names stays warm. The night replays exactly.
#[test]
fn an_overnight_trough_merges_back_toward_m_star() {
    let run = || {
        let (mut cluster, paths) = day_cluster(8);
        let handle = cluster.reconfig_handle();
        // The last minted group doubles as tonight's batch region, so
        // the trough's focus lands on a group too small to split.
        let day_split: Vec<GroupId> = handle.group_ids().into_iter().take(3).collect();
        for gid in &day_split {
            handle.split_group(*gid).expect("flash-crowd split");
        }
        assert_eq!(cluster.group_count(), 9);
        let epoch = cluster.membership_epoch();
        let mut controller = GroupController::new(ControllerConfig::default());
        let actions = drive_day(&mut cluster, &mut controller, OVERNIGHT, &paths);
        (cluster, day_split, epoch, actions)
    };
    let (cluster, day_split, epoch, actions) = run();

    let merges: Vec<_> = actions
        .iter()
        .filter(|(_, _, a)| matches!(a, AdaptAction::Merge(..)))
        .collect();
    assert!(
        !merges.is_empty(),
        "the trough must merge split remnants, got {actions:?}"
    );
    assert!(
        !actions
            .iter()
            .any(|(_, _, a)| matches!(a, AdaptAction::Split(_))),
        "a contraction pass must not expand, got {actions:?}"
    );
    for (w, phase, action) in &merges {
        assert_eq!(
            *phase, "trough",
            "merge {action:?} fired outside the trough (window {w})"
        );
    }
    let (target, pre_mean) = (7.0, 48.0 / 9.0);
    let post_mean = 48.0 / cluster.group_count() as f64;
    assert!(cluster.group_count() < 9);
    assert!(
        (post_mean - target).abs() < (pre_mean - target).abs(),
        "mean group size must move toward M*: {pre_mean:.2} → {post_mean:.2}"
    );
    assert!(cluster.membership_epoch().0 - epoch.0 >= merges.len() as u64);
    cluster.check_invariants().expect("routes stay sound");
    // Yesterday's splits count as touched too.
    assert_untouched_groups_stay_warm(&cluster, &actions, &day_split, 8, 3);

    let (_, _, _, twin) = run();
    assert_eq!(actions, twin, "same seed, same merges");
}

/// Builds a synthetic `LoadReport` from fuzzed rows: `groups` is a
/// list of (members, lookup-weight) pairs.
fn synth_report(window: u64, rows: &[(u8, u32)]) -> LoadReport {
    let lookups: Vec<f64> = rows.iter().map(|&(_, w)| f64::from(w) + 1.0).collect();
    let total: f64 = lookups.iter().sum();
    let groups = rows
        .iter()
        .zip(&lookups)
        .enumerate()
        .map(|(i, (&(members, _), &lookups))| GroupLoad {
            gid: GroupId(i as u16),
            members: usize::from(members.clamp(1, 12)),
            lookups,
            share: lookups / total,
            l3_share: 0.0,
            l4_share: 0.0,
            false_hit_rate: 0.0,
            mask_hit_rate: 1.0,
            imbalance: 1.0,
        })
        .collect();
    LoadReport {
        window,
        epoch: MembershipEpoch(window),
        fresh_lookups: u64::MAX,
        total,
        groups,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Satellite bar 2: no report sequence exceeds the per-tick action
    /// budget — not with zero cooldown, not with adversarial shares,
    /// not across an arbitrary number of ticks.
    #[test]
    fn action_budget_holds_for_arbitrary_report_sequences(
        reports in proptest::collection::vec(
            proptest::collection::vec((1u8..12, 0u32..10_000), 1..16),
            1..24,
        ),
        budget in 1usize..4,
        cooldown in 0u64..3,
        max_group_size in 2usize..10,
    ) {
        let mut controller = GroupController::new(
            ControllerConfig::default()
                .with_budget(budget)
                .with_cooldown(cooldown)
                .with_min_window_lookups(1),
        );
        let mut total = 0u64;
        for (window, rows) in reports.iter().enumerate() {
            let report = synth_report(window as u64, rows);
            let actions = controller.plan(&report, max_group_size);
            prop_assert!(
                actions.len() <= budget,
                "window {}: {} actions breach budget {}",
                window, actions.len(), budget
            );
            total += actions.len() as u64;
        }
        prop_assert_eq!(controller.actions_total(), total);
    }

    /// Cooldown contract: once a group is planned, it stays untouched
    /// for the configured number of ticks even under an unchanged
    /// all-hot report.
    #[test]
    fn cooldown_silences_replanning(cooldown in 1u64..5) {
        let mut controller = GroupController::new(
            ControllerConfig::default()
                .with_budget(1)
                .with_cooldown(cooldown)
                .with_min_window_lookups(1),
        );
        // One 8-member group carrying ~all traffic next to two cold
        // singletons: hot every window, splittable at max 8.
        let rows = [(8u8, 100_000u32), (1, 1), (1, 1)];
        let first = controller.plan(&synth_report(0, &rows), 8);
        prop_assert_eq!(first.len(), 1, "the hot group must be planned once");
        for tick in 1..=cooldown {
            let again = controller.plan(&synth_report(tick, &rows), 8);
            prop_assert!(
                again.iter().all(|a| a.touches().0 != GroupId(0)),
                "tick {}: group 0 replanned inside its cooldown", tick
            );
        }
    }
}
