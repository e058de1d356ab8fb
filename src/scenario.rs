//! Scenario ticks: drive a [`LoadCurve`] at a cluster on the simnet
//! event queue, with the online [`GroupController`] ticking in-band.
//!
//! [`replay`](crate::replay) answers "what does this *stream* cost?";
//! a scenario answers "what does this *day* look like?" — traffic whose
//! intensity and skew change over simulated time, with the control
//! plane reacting as it happens. The driver schedules two event kinds
//! on a deterministic [`EventQueue`]:
//!
//! * **`Window(w)`** — one traffic window: the active
//!   [`LoadPhase`](ghba_trace::LoadPhase)
//!   sets how many lookups arrive and what fraction of them enter
//!   through the hot region's servers;
//! * **`Tick(w)`** — one controller tick, immediately after the
//!   window: close the cluster's load window
//!   ([`GhbaCluster::load_report`]) and let the [`GroupController`]
//!   actuate through the [`ReconfigHandle`](ghba_core::ReconfigHandle).
//!
//! Everything is virtual-time and seeded, so a scenario replays
//! byte-identically: the same curve, spec, and seed produce the same
//! lookups, the same reports, and the same accepted actions — which is
//! what lets tests pin down *when* the flash crowd forces a split.
//!
//! Focused traffic needs a target: the driver aims it at the member
//! set of the cluster's first group through the curve's peak phase,
//! then at the last group's member set afterwards — a flash crowd that
//! migrates, forcing two independent control decisions per pass.

use core::time::Duration;

use ghba_core::{AdaptAction, GhbaCluster, GroupController, MdsId};
use ghba_simnet::{DetRng, EventQueue, SimTime};
use ghba_trace::LoadCurve;

/// Shape of one scenario run (see [`drive_curve`]).
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Traffic windows across the whole curve (one controller tick
    /// after each).
    pub windows: u64,
    /// Lookups offered per window at intensity 1.0; each window scales
    /// this by its phase's intensity.
    pub nominal_ops: u64,
    /// Simulated length of one window (sets the event-queue spacing;
    /// lookups themselves are instantaneous in virtual time).
    pub window_len: Duration,
    /// Seed for the entry/path draws.
    pub seed: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            windows: 60,
            nominal_ops: 400,
            window_len: Duration::from_millis(250),
            seed: 0x5CE7A,
        }
    }
}

/// What one scenario run did, phase by phase and action by action.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// Lookups executed.
    pub lookups: u64,
    /// Lookups that found their file.
    pub found: u64,
    /// Accepted controller actions, tagged with the window whose tick
    /// produced them (empty without a controller).
    pub actions: Vec<(u64, AdaptAction)>,
    /// Membership epochs advanced across the run.
    pub epoch_bumps: u64,
    /// Live groups when the run ended.
    pub final_groups: usize,
    /// Lookups per phase, in curve order.
    pub phase_lookups: Vec<(&'static str, u64)>,
}

/// One scheduled scenario event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Serve window `w`'s traffic.
    Window(u64),
    /// Tick the controller after window `w`.
    Tick(u64),
}

/// Drives `curve` at `cluster` for `spec.windows` windows, ticking
/// `controller` (when given) after every window. `paths` is the lookup
/// population (pre-create it; see [`replay::populate`](crate::replay::populate)).
///
/// Returns the per-phase traffic, every accepted action with the
/// window it landed in, and the epoch distance travelled — the
/// telemetry the scenario tests and the figure drivers assert on.
///
/// # Panics
///
/// Panics when `paths` is empty or the cluster has no servers.
pub fn drive_curve(
    cluster: &mut GhbaCluster,
    mut controller: Option<&mut GroupController>,
    curve: &LoadCurve,
    paths: &[String],
    spec: &ScenarioSpec,
) -> ScenarioReport {
    assert!(!paths.is_empty(), "a scenario needs a lookup population");
    let servers = cluster.server_ids();
    assert!(!servers.is_empty(), "a scenario needs servers");

    // Freeze the two focus regions before any action reshapes the
    // groups: the hot region is a set of *servers*, stable across
    // splits of the group that contains them.
    let handle = cluster.reconfig_handle();
    let gids = handle.group_ids();
    let first = gids.first().copied().expect("at least one group");
    let last = gids.last().copied().expect("at least one group");
    let region_a: Vec<MdsId> = handle.group_members(first).unwrap_or_default();
    let region_b: Vec<MdsId> = handle.group_members(last).unwrap_or_default();
    let peak_idx = curve
        .phases()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.intensity.total_cmp(&b.1.intensity))
        .map_or(0, |(i, _)| i);
    let epoch_start = cluster.membership_epoch();

    let mut queue: EventQueue<Event> = EventQueue::new();
    for w in 0..spec.windows {
        // Same timestamp, FIFO tie-break: the window's traffic is
        // always served before its tick closes the load window.
        let at = SimTime::ZERO + spec.window_len * u32::try_from(w).unwrap_or(u32::MAX);
        queue.schedule(at, Event::Window(w));
        queue.schedule(at, Event::Tick(w));
    }

    let mut report = ScenarioReport {
        phase_lookups: curve.phases().iter().map(|p| (p.name, 0)).collect(),
        ..ScenarioReport::default()
    };
    while let Some((_, event)) = queue.pop() {
        match event {
            Event::Window(w) => {
                let t = (w as f64 + 0.5) / spec.windows as f64;
                let phase = curve.phase_at(t);
                let phase_idx = curve
                    .phases()
                    .iter()
                    .position(|p| core::ptr::eq(p, phase))
                    .unwrap_or(0);
                let region = if phase_idx <= peak_idx {
                    &region_a
                } else {
                    &region_b
                };
                let offered = (spec.nominal_ops as f64 * phase.intensity).round() as u64;
                let mut rng = DetRng::new(spec.seed).fork(w);
                for _ in 0..offered {
                    let entry = if !region.is_empty() && rng.chance(phase.hot_focus) {
                        region[rng.index(region.len())]
                    } else {
                        servers[rng.index(servers.len())]
                    };
                    let path = &paths[rng.index(paths.len())];
                    let outcome = cluster.lookup_concurrent(entry, path);
                    report.lookups += 1;
                    report.found += u64::from(outcome.found());
                }
                report.phase_lookups[phase_idx].1 += offered;
            }
            Event::Tick(w) => {
                if let Some(controller) = controller.as_deref_mut() {
                    let load = cluster.load_report();
                    let handle = cluster.reconfig_handle();
                    for action in controller.actuate(&load, &handle) {
                        report.actions.push((w, action));
                    }
                }
            }
        }
    }

    report.epoch_bumps = cluster.membership_epoch().0 - epoch_start.0;
    report.final_groups = cluster.group_count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghba_core::{ControllerConfig, GhbaConfig, GroupId};

    fn cluster() -> (GhbaCluster, Vec<String>) {
        let config = GhbaConfig::default()
            .with_filter_capacity(8_000)
            .with_lru_capacity(0)
            .with_max_group_size(16)
            .with_seed(0xD1A);
        let mut cluster = GhbaCluster::with_servers(config, 48);
        let paths: Vec<String> = (0..2_000)
            .map(|i| format!("/scn/d{}/f{i}", i % 61))
            .collect();
        crate::replay::populate(&mut cluster, paths.iter().cloned());
        cluster.flush_all_updates();
        (cluster, paths)
    }

    /// Groups no action of `report` (nor `also_touched`) ever named kept
    /// their per-group epochs, so their shared mask caches must have
    /// stayed warm (hit rate ≥ 0.99) through every reconfiguration.
    /// Only groups still at their original `members` count — minted
    /// groups start cold — and at least `at_least` of them, so the
    /// assertion is not vacuous.
    fn assert_untouched_groups_stay_warm(
        cluster: &mut GhbaCluster,
        report: &ScenarioReport,
        also_touched: &[GroupId],
        members: usize,
        at_least: usize,
    ) {
        let touched: Vec<GroupId> = report
            .actions
            .iter()
            .flat_map(|(_, a)| {
                let (x, y) = a.touches();
                std::iter::once(x).chain(y)
            })
            .chain(also_touched.iter().copied())
            .collect();
        let load = cluster.load_report();
        let mut untouched = 0;
        for g in &load.groups {
            if !touched.contains(&g.gid) && g.members == members {
                untouched += 1;
                assert!(
                    g.mask_hit_rate >= 0.99,
                    "group {:?} lost its warm mask cache through {:?}: {}",
                    g.gid,
                    report.actions,
                    g.mask_hit_rate
                );
            }
        }
        assert!(untouched >= at_least, "the assertion must not be vacuous");
    }

    #[test]
    fn diurnal_flash_ticks_split_both_hot_regions() {
        let (mut cluster, paths) = cluster();
        let mut controller = GroupController::new(ControllerConfig::default());
        let spec = ScenarioSpec::default();
        let curve = LoadCurve::diurnal_flash();
        let report = drive_curve(&mut cluster, Some(&mut controller), &curve, &paths, &spec);

        assert_eq!(
            report.lookups, report.found,
            "every scenario lookup resolves"
        );
        let split_origins: Vec<GroupId> = report
            .actions
            .iter()
            .filter_map(|(_, a)| match a {
                AdaptAction::Split(gid) => Some(*gid),
                _ => None,
            })
            .collect();
        assert!(
            split_origins.contains(&GroupId(0)),
            "the flash crowd must split the first group, got {:?}",
            report.actions
        );
        assert!(
            split_origins.iter().any(|gid| *gid != GroupId(0)),
            "the migrated cooldown skew must split a second region, got {:?}",
            report.actions
        );
        assert!(report.epoch_bumps >= 2, "each split publishes an epoch");
        assert!(report.final_groups >= 5);
        cluster.check_invariants().expect("routes stay sound");
        // The trough and the uniform evening never trigger anything:
        // every action lands in a focused phase's window range.
        let phase_of = |w: u64| {
            let t = (w as f64 + 0.5) / spec.windows as f64;
            curve.phase_at(t).name
        };
        for (w, action) in &report.actions {
            assert!(
                !matches!(phase_of(*w), "night" | "evening"),
                "action {action:?} fired in a calm phase (window {w})"
            );
        }

        // Warm-retention, split side: group 1 is never named, so it
        // stays warm through both splits. (Minted groups are smaller
        // than the original 16 and start cold.)
        assert_untouched_groups_stay_warm(&mut cluster, &report, &[], 16, 1);
    }

    /// The contraction scenario (ROADMAP follow-on 2a): after a
    /// flash-crowd day split the shape into remnants well below M*,
    /// then drive the overnight trough at it. The controller's merge
    /// path must pack the remnants back toward M* = round(√48) = 7
    /// online — while every group the merges never touch keeps its
    /// warm [`SharedMaskCache`] (mask hit rate ≥ 0.99 end to end).
    #[test]
    fn overnight_trough_merges_back_toward_m_star() {
        let run = || {
            let config = GhbaConfig::default()
                .with_filter_capacity(8_000)
                .with_lru_capacity(0)
                .with_max_group_size(8)
                .with_seed(0xD1A);
            let mut cluster = GhbaCluster::with_servers(config, 48);
            let paths: Vec<String> = (0..2_000)
                .map(|i| format!("/scn/d{}/f{i}", i % 61))
                .collect();
            crate::replay::populate(&mut cluster, paths.iter().cloned());
            cluster.flush_all_updates();

            // Yesterday's flash crowd split three groups (8 → 3 + 5):
            // nine groups of mean 48/9 ≈ 5.3, well under M* = 7. The
            // last minted group doubles as tonight's batch region, so
            // the trough's focus lands on a group too small to split.
            let handle = cluster.reconfig_handle();
            let day_split: Vec<GroupId> = handle.group_ids().into_iter().take(3).collect();
            for gid in &day_split {
                handle.split_group(*gid).expect("flash-crowd split");
            }
            let pre_groups = cluster.group_count();
            assert_eq!(pre_groups, 9);

            let mut controller = GroupController::new(ControllerConfig::default());
            let spec = ScenarioSpec::default();
            let curve = ghba_trace::LoadCurve::overnight_trough();
            let report = drive_curve(&mut cluster, Some(&mut controller), &curve, &paths, &spec);
            (cluster, day_split, pre_groups, spec, curve, report)
        };
        let (mut cluster, day_split, pre_groups, spec, curve, report) = run();

        assert_eq!(report.lookups, report.found);
        let merges: Vec<_> = report
            .actions
            .iter()
            .filter(|(_, a)| matches!(a, AdaptAction::Merge(..)))
            .collect();
        assert!(
            !merges.is_empty(),
            "the trough must merge split remnants, got {:?}",
            report.actions
        );
        assert!(
            !report
                .actions
                .iter()
                .any(|(_, a)| matches!(a, AdaptAction::Split(_))),
            "a contraction pass must not expand, got {:?}",
            report.actions
        );
        // Every merge lands overnight: dusk's residual skew is too
        // mild to starve anyone and dawn is uniform.
        for (w, action) in &merges {
            let t = (*w as f64 + 0.5) / spec.windows as f64;
            assert_eq!(
                curve.phase_at(t).name,
                "trough",
                "merge {action:?} fired outside the trough (window {w})"
            );
        }
        // The merges move the mean group size toward M* = 7.
        let target = 7.0;
        let pre_mean = 48.0 / pre_groups as f64;
        let post_mean = 48.0 / report.final_groups as f64;
        assert!(report.final_groups < pre_groups);
        assert!(
            (post_mean - target).abs() < (pre_mean - target).abs(),
            "mean group size must move toward M*: {pre_mean:.2} → {post_mean:.2}"
        );
        assert!(report.epoch_bumps >= merges.len() as u64);
        cluster.check_invariants().expect("routes stay sound");

        // Warm-retention through every overnight merge; yesterday's
        // day splits count as touched too.
        assert_untouched_groups_stay_warm(&mut cluster, &report, &day_split, 8, 3);

        // And the whole pass replays byte-identically.
        let (_, _, _, _, _, twin) = run();
        assert_eq!(report.actions, twin.actions, "same seed, same merges");
        assert_eq!(report.phase_lookups, twin.phase_lookups);
    }

    #[test]
    fn scenarios_replay_deterministically() {
        let run = || {
            let (mut cluster, paths) = cluster();
            let mut controller = GroupController::new(ControllerConfig::default());
            drive_curve(
                &mut cluster,
                Some(&mut controller),
                &LoadCurve::diurnal_flash(),
                &paths,
                &ScenarioSpec::default(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.actions, b.actions, "same seed, same control decisions");
        assert_eq!(a.lookups, b.lookups);
        assert_eq!(a.phase_lookups, b.phase_lookups);
    }

    #[test]
    fn without_a_controller_the_shape_never_moves() {
        let (mut cluster, paths) = cluster();
        let epoch = cluster.membership_epoch();
        let report = drive_curve(
            &mut cluster,
            None,
            &LoadCurve::diurnal_flash(),
            &paths,
            &ScenarioSpec::default(),
        );
        assert!(report.actions.is_empty());
        assert_eq!(report.epoch_bumps, 0);
        assert_eq!(cluster.membership_epoch(), epoch);
        assert_eq!(report.lookups, report.found);
    }
}
