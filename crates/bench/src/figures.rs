//! The experiment behind each figure of the paper's evaluation (§4–5).
//!
//! Every `figN` function regenerates the corresponding figure's series as
//! a Markdown table on the given writer. Absolute values reflect the
//! simulated latency model, not the authors' 2007 testbed; the shapes —
//! who wins, by what factor, where the optimum or crossover sits — are
//! the reproduction targets (recorded in `EXPERIMENTS.md`).

use std::io::{self, Write};

use ghba::replay::{populate, replay};
use ghba_analysis::{AnalyticModel, MemoryModel};
use ghba_baselines::{expected_hash_migrations, HashPlacement, HbaCluster};
use ghba_core::{GhbaCluster, GhbaConfig, MdsId, MetadataService, UpdateReport};
use ghba_trace::{intensify, TraceRecord, TraceStats, WorkloadGenerator, WorkloadProfile};

use crate::common::{budget, filter_bytes, header, ms, p_lru_of, row, sim_config, sized};

/// Builds a populated G-HBA cluster for one (N, M, workload) cell and
/// measures mean lookup latency over a replay slice.
fn measure_cell(
    n: usize,
    m: usize,
    profile: &WorkloadProfile,
    mem_budget: Option<usize>,
    pop: usize,
    ops: usize,
) -> (core::time::Duration, [f64; 4]) {
    measure_cell_contended(n, m, profile, mem_budget, pop, ops, 0.0)
}

/// Like [`measure_cell`] with a per-message contention factor.
#[allow(clippy::too_many_arguments)]
fn measure_cell_contended(
    n: usize,
    m: usize,
    profile: &WorkloadProfile,
    mem_budget: Option<usize>,
    pop: usize,
    ops: usize,
    contention: f64,
) -> (core::time::Duration, [f64; 4]) {
    // The update threshold must fire at this op scale (the paper replays
    // billions of ops; we scale the trigger instead of the trace).
    let mut config = sim_config(0xF16 + n as u64 + ((m as u64) << 8))
        .with_max_group_size(m)
        .with_update_threshold(48)
        .with_lru_capacity(2_048)
        .with_contention(contention);
    if let Some(bytes) = mem_budget {
        config = config.with_memory_per_mds(bytes);
    }
    let mut cluster = GhbaCluster::with_servers(config, n);
    let mut generator = WorkloadGenerator::new(profile.clone(), 0x5EED + m as u64);
    populate(
        &mut cluster,
        (0..pop as u64).map(|i| generator.path_of(i % generator.initial_population())),
    );
    cluster.flush_all_updates();
    // Warm the LRU arrays before measuring, as a long-running system
    // would be: every entry server must have seen the hot set, so the
    // warm-up scales with N (the paper warms over millions of ops).
    let warmup = ops.max(n * sized(1_500, 300));
    let _ = replay(&mut cluster, generator.by_ref().take(warmup));
    cluster.flush_all_updates();
    cluster.reset_stats();
    let report = replay(&mut cluster, generator.take(ops));
    (
        report.mean_latency(),
        report.levels.cumulative_percentages(),
    )
}

/// Figure 6: normalized throughput Γ vs group size M at N = 30 and 100.
///
/// Methodology per §4.1 of the paper: Γ is "generated … with the aid of
/// simulation results, including hit rates and latency of multi-level
/// query operations" — so the L1 hit rate is *measured* from a trace
/// replay, then Equations 2–4 (with the spill/queueing latency terms of
/// [`AnalyticModel`]) are swept over M.
pub fn fig6(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "\n## Figure 6 — normalized throughput Γ vs group size M\n"
    )?;
    let pop = sized(3_000, 800);
    let ops = sized(9_000, 2_000);
    let m_values: Vec<usize> = (1..=15).collect();
    header(
        out,
        &[
            "workload",
            "N",
            "M",
            "measured P_LRU",
            "Γ (norm. throughput)",
            "optimal?",
        ],
    )?;
    for n in [30usize, 100] {
        for profile in WorkloadProfile::all() {
            // Measure the workload's L1 hit rate on a live cluster at the
            // paper's group size for this N.
            let probe_m = MemoryModel::paper_group_size(n);
            let (_, cumulative) = measure_cell(n, probe_m, &profile, None, pop, ops);
            let p_lru = (cumulative[0] / 100.0).clamp(0.05, 0.95);
            let model = AnalyticModel::new(n, p_lru);
            let sweep = model.sweep(15);
            let best = model.optimal_m(15);
            for &m in &m_values {
                let gamma = sweep
                    .iter()
                    .find(|(mm, _)| *mm == m)
                    .map_or(0.0, |&(_, g)| g);
                row(
                    out,
                    &[
                        profile.name.to_string(),
                        n.to_string(),
                        m.to_string(),
                        format!("{p_lru:.2}"),
                        format!("{gamma:.1}"),
                        if m == best {
                            "◀ optimal".into()
                        } else {
                            String::new()
                        },
                    ],
                )?;
            }
        }
    }
    writeln!(
        out,
        "\nPaper: optimal M ≈ 5–6 at N = 30 and ≈ 9 at N = 100, unimodal in M."
    )
}

/// Figure 7: optimal group size (and M/N ratio) vs number of MDSs,
/// from the calibrated analytic Γ model.
pub fn fig7(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "\n## Figure 7 — optimal group size vs number of MDSs\n"
    )?;
    header(out, &["N", "HP M*", "INS M*", "RES M*", "M/N (HP)"])?;
    for n in [10usize, 30, 60, 100, 150, 200] {
        let mut optima = Vec::new();
        for profile in WorkloadProfile::all() {
            let model = AnalyticModel::new(n, p_lru_of(&profile));
            optima.push(model.optimal_m(20));
        }
        row(
            out,
            &[
                n.to_string(),
                optima[0].to_string(),
                optima[1].to_string(),
                optima[2].to_string(),
                format!("{:.3}", optima[0] as f64 / n as f64),
            ],
        )?;
    }
    writeln!(
        out,
        "\nPaper: M* grows sublinearly (≈3 → ≈14–18); M/N falls 0.3 → 0.07."
    )
}

/// One latency cell per checkpoint for one scheme: populate `paths`,
/// `flush` every replica fresh, then replay `checkpoints` consecutive
/// slices of `chunk` records and report each slice's mean modelled
/// lookup latency.
fn checkpoint_latencies<S: MetadataService>(
    mut cluster: S,
    flush: fn(&mut S) -> UpdateReport,
    paths: &[String],
    mut records: impl Iterator<Item = TraceRecord>,
    checkpoints: usize,
    chunk: usize,
) -> Vec<String> {
    populate(&mut cluster, paths.iter().cloned());
    let _ = flush(&mut cluster);
    (0..checkpoints)
        .map(|_| {
            let report = replay(&mut cluster, records.by_ref().take(chunk));
            format!("{}ms", ms(report.mean_latency()))
        })
        .collect()
}

/// The HBA and G-HBA rows of a latency-vs-#ops table: both aliases of
/// the one engine, same configuration, population and record stream
/// (`records` starts the stream afresh for each).
fn hba_vs_ghba<I: Iterator<Item = TraceRecord>>(
    config: &GhbaConfig,
    n: usize,
    paths: &[String],
    records: impl Fn() -> I,
    checkpoints: usize,
    chunk: usize,
) -> [(&'static str, Vec<String>); 2] {
    let hba = checkpoint_latencies(
        HbaCluster::with_servers(config.clone(), n),
        HbaCluster::flush_all_updates,
        paths,
        records(),
        checkpoints,
        chunk,
    );
    let ghba = checkpoint_latencies(
        GhbaCluster::with_servers(config.clone(), n),
        GhbaCluster::flush_all_updates,
        paths,
        records(),
        checkpoints,
        chunk,
    );
    [("HBA", hba), ("G-HBA", ghba)]
}

/// Figures 8–10: average latency vs operations replayed, HBA vs G-HBA,
/// under shrinking memory.
pub fn fig8_9_10(out: &mut impl Write, figure: u8) -> io::Result<()> {
    let (profile, labels) = match figure {
        8 => (WorkloadProfile::hp(), ["1.2GB", "800MB", "500MB"]),
        9 => (WorkloadProfile::res(), ["800MB", "500MB", "300MB"]),
        _ => (WorkloadProfile::ins(), ["900MB", "600MB", "400MB"]),
    };
    writeln!(
        out,
        "\n## Figure {figure} — avg latency vs #ops under the {} trace\n",
        profile.name
    )?;
    let n = 30usize;
    let m = 6usize;
    let pop = sized(6_000, 1_500);
    let checkpoints = 6usize;
    let chunk = sized(4_000, 800);

    // Demand at end of replay for an HBA server: N−1 replicas + local
    // structures + LRU + the metadata cache of its share of touched
    // files. The largest memory label maps to 100 % of this demand (HBA
    // fully resident), smaller labels proportionally less.
    let plain = filter_bytes();
    let touched = pop + checkpoints * chunk / 12; // pop + ~8 % creates
    let demand = (n - 1) * plain
        + FILTER_LIVE_BYTES
        + n * 4_096
        + touched.div_ceil(n) * ghba_core::META_ENTRY_BYTES * 2;
    const FILTER_LIVE_BYTES: usize = 14_000;
    let max_gb: f64 = labels.iter().map(|l| parse_gb(l)).fold(0.0, f64::max);

    header(
        out,
        &["scheme", "memory", "@1", "@2", "@3", "@4", "@5", "@6"],
    )?;

    for label in labels {
        let gb = parse_gb(label);
        // Map the paper's absolute sizes onto the scaled demand: the
        // largest label ≈ everything fits, the smallest ≈ heavy spill.
        let bytes = ((demand as f64) * (gb / max_gb)).round() as usize;
        let config = sim_config(0xF800 + u64::from(figure))
            .with_max_group_size(m)
            .with_memory_per_mds(bytes);
        let generator = WorkloadGenerator::new(profile.clone(), 0xF80 + u64::from(figure));
        let paths: Vec<String> = (0..pop as u64)
            .map(|i| generator.path_of(i % generator.initial_population()))
            .collect();
        let rows = hba_vs_ghba(&config, n, &paths, || generator.clone(), checkpoints, chunk);
        for (scheme, latencies) in rows {
            let mut cells = vec![scheme.to_string(), label.to_string()];
            cells.extend(latencies);
            row(out, &cells)?;
        }
    }
    writeln!(
        out,
        "\nPaper: ample memory → HBA slightly ahead; shrinking memory → HBA's \
         latency climbs (replica/metadata spill) while G-HBA stays flat."
    )
}

/// Parses a "1.2GB"/"800MB" label into gigabytes.
fn parse_gb(label: &str) -> f64 {
    let trimmed = label.trim_end_matches("GB").trim_end_matches("MB");
    let v: f64 = trimmed.parse().expect("numeric label");
    if label.ends_with("GB") {
        v
    } else {
        v / 1000.0
    }
}

/// Figure 11: replicas migrated when one MDS joins, vs N.
pub fn fig11(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "\n## Figure 11 — replicas migrated on one MDS insertion\n"
    )?;
    header(
        out,
        &[
            "N",
            "HBA",
            "Hash (INS)",
            "Hash (HP)",
            "Hash (RES)",
            "G-HBA (measured)",
            "G-HBA (bound)",
        ],
    )?;
    for n in (10usize..=100).step_by(10) {
        let m = MemoryModel::paper_group_size(n);
        // HBA: the newcomer copies every existing replica.
        let hba = n;
        // Hash placement: re-hash the joined group's N−M′ replicas; seed
        // models the layout each workload induces.
        let mut hash_counts = Vec::new();
        for (i, _) in WorkloadProfile::all().iter().enumerate() {
            let members: Vec<MdsId> = (0..m as u16).map(MdsId).collect();
            let mut placement = HashPlacement::new(members, 0x4A5 + i as u64);
            let origins: Vec<MdsId> = (100..100 + (n - m) as u16).map(MdsId).collect();
            hash_counts.push(placement.join_and_count_migrations(MdsId(99), &origins));
        }
        // G-HBA: measured from a live cluster join. Splits are a separate
        // (amortized) event the paper's figure excludes, so take the first
        // non-split join.
        let config = sim_config(0xF11).with_max_group_size(m);
        let mut cluster = GhbaCluster::with_servers(config, n);
        cluster.reset_stats();
        let report = loop {
            let (_, report) = cluster.add_mds_reported();
            if !report.split {
                break report;
            }
        };
        let bound = (n - m) / (m + 1);
        row(
            out,
            &[
                n.to_string(),
                hba.to_string(),
                hash_counts[1].to_string(),
                hash_counts[0].to_string(),
                hash_counts[2].to_string(),
                report.migrated_replicas.to_string(),
                bound.to_string(),
            ],
        )?;
    }
    writeln!(
        out,
        "\nPaper: HBA = N; hash ≈ {:.0}% of N−M′ and rising with N; G-HBA ≈ (N−M′)/(M′+1), flattest.",
        expected_hash_migrations(100, 9) / 91.0 * 100.0
    )
}

/// Figure 12: latency of updating stale replicas, HBA vs G-HBA.
pub fn fig12(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "\n## Figure 12 — stale-replica update latency\n")?;
    header(
        out,
        &[
            "workload",
            "N",
            "M",
            "scheme",
            "updates",
            "avg latency (ms)",
        ],
    )?;
    let update_rounds = sized(90, 20);
    for profile in WorkloadProfile::all() {
        for (n, m) in [(30usize, 6usize), (100, 9)] {
            // G-HBA measured.
            let config = sim_config(0xF12).with_max_group_size(m);
            let mut grouped = GhbaCluster::with_servers(config.clone(), n);
            let generator = WorkloadGenerator::new(profile.clone(), 0xF12);
            let ids = grouped.server_ids();
            for k in 0..update_rounds {
                let home = ids[k % ids.len()];
                for i in 0..40 {
                    grouped.create_file_at(&generator.path_of((k * 40 + i) as u64), home);
                }
                grouped.push_update(home);
            }
            let ghba_avg = grouped.stats().update_latency.mean();
            // HBA measured.
            let mut mirror = HbaCluster::with_servers(config, n);
            for k in 0..update_rounds {
                let home = MdsId((k % n) as u16);
                for i in 0..40 {
                    mirror.create_file_at(&generator.path_of((k * 40 + i) as u64), home);
                }
                mirror.push_update(home);
            }
            let hba_avg = mirror.stats().update_latency.mean();
            for (scheme, avg) in [("G-HBA", ghba_avg), ("HBA", hba_avg)] {
                row(
                    out,
                    &[
                        profile.name.to_string(),
                        n.to_string(),
                        m.to_string(),
                        scheme.to_string(),
                        update_rounds.to_string(),
                        ms(avg),
                    ],
                )?;
            }
        }
    }
    writeln!(
        out,
        "\nPaper: G-HBA updates one MDS per group vs HBA's system-wide \
         broadcast — lower latency, gap widening with N."
    )
}

/// Figure 13: percentage of queries served by each level, vs N.
pub fn fig13(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "\n## Figure 13 — % of queries served per level\n")?;
    header(out, &["N", "M", "≤L1", "≤L2", "≤L3", "≤L4"])?;
    let profile = WorkloadProfile::hp();
    let pop = sized(4_000, 1_000);
    let ops = sized(12_000, 3_000);
    for n in (10usize..=100).step_by(10) {
        let m = MemoryModel::paper_group_size(n);
        let (_, cumulative) = measure_cell(n, m, &profile, None, pop, ops);
        row(
            out,
            &[
                n.to_string(),
                m.to_string(),
                format!("{:.1}%", cumulative[0]),
                format!("{:.1}%", cumulative[1]),
                format!("{:.1}%", cumulative[2]),
                format!("{:.1}%", cumulative[3]),
            ],
        )?;
    }
    writeln!(
        out,
        "\nPaper: L1+L2 ≥ ~80%, +L3 ≥ ~90% even at N = 100; the L4 share \
         grows slowly with N (staleness)."
    )
}

/// Figure 14: query latency under the intensified HP trace with a RAM
/// budget that holds a quarter of HBA's replicas.
///
/// The paper measures this on its 60-node prototype; here both rows come
/// from the one cluster engine (the system `ghba-net` deploys), so the
/// latencies are the engine's modelled ones and byte-deterministic.
pub fn fig14(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "\n## Figure 14 — query latency, intensified HP trace, constrained RAM\n"
    )?;
    let n = sized(60, 12);
    let tif = sized(60, 8) as u32;
    let pop = sized(3_000, 600);
    let checkpoints = 5usize;
    let chunk = sized(3_000, 500);
    header(out, &["scheme", "@1", "@2", "@3", "@4", "@5"])?;
    // One budget for both schemes: local structures, a full LRU array,
    // the metadata of every file touched (pop + ~8 % creates) and N/4
    // replica filters — all of G-HBA's ~N/M, a quarter of HBA's N − 1.
    // HBA fits only while its LRU array is still cold.
    let touched = pop + checkpoints * chunk / 12;
    let metacache = touched.div_ceil(n) * ghba_core::META_ENTRY_BYTES;
    let config = sim_config(0xF14)
        .with_update_threshold(128)
        .with_max_group_size(7)
        .with_memory_per_mds(budget(n, n / 4, metacache));
    let stream = || intensify(&WorkloadProfile::hp(), tif, 0xF14);
    let paths: Vec<String> = stream().hot_paths(pop as u64 / u64::from(tif)).collect();
    // Map every read record onto a pre-populated path so the figure
    // measures hit latency, as the paper does; writes pass through and
    // grow the metadata and LRU charges.
    let records = || {
        stream().map(|mut record| {
            if record.op.is_read() {
                let idx = ghba_bloom::hash::hash_one(&record.path, 7) as usize % paths.len();
                record.path.clone_from(&paths[idx]);
            }
            record
        })
    };
    let rows = hba_vs_ghba(&config, n, &paths, records, checkpoints, chunk);
    for (scheme, latencies) in rows {
        let mut cells = vec![scheme.to_string()];
        cells.extend(latencies);
        row(out, &cells)?;
    }
    writeln!(
        out,
        "\nPaper: G-HBA up to ~31% lower latency than HBA at the heaviest load."
    )
}

/// Figure 15: messages per node insertion, ten consecutive joins on each
/// alias of the one engine (`ReconfigReport::messages` is the deployed
/// system's only join-traffic accounting: a join never crosses the wire).
pub fn fig15(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "\n## Figure 15 — messages per node insertion\n")?;
    let n = sized(60, 12);
    header(out, &["new node #", "G-HBA msgs", "HBA msgs"])?;
    let config = sim_config(0xF15).with_max_group_size(7);
    let mut ghba = GhbaCluster::with_servers(config.clone(), n);
    let mut hba = HbaCluster::with_servers(config, n);
    for k in 1..=10 {
        let ghba_msgs = ghba.add_mds_reported().1.messages;
        let hba_msgs = hba.add_mds_reported().1.messages;
        row(
            out,
            &[k.to_string(), ghba_msgs.to_string(), hba_msgs.to_string()],
        )?;
    }
    writeln!(
        out,
        "\nPaper: HBA ≈ 2N messages per insertion and climbing; G-HBA several \
         times fewer (one replica install per group plus light migration)."
    )
}

/// Tables 3–4: intensified trace statistics.
pub fn tables34(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "\n## Tables 3–4 — intensified workload statistics\n")?;
    header(
        out,
        &[
            "trace",
            "TIF",
            "hosts",
            "users",
            "open%",
            "close%",
            "stat%",
            "sample size",
        ],
    )?;
    let sample = sized(120_000, 20_000);
    for profile in WorkloadProfile::all() {
        let tif = profile.paper_tif;
        let stats = TraceStats::collect(intensify(&profile, tif, 0x734).take(sample));
        let pct = |op| stats.count(op) as f64 / stats.records as f64 * 100.0;
        row(
            out,
            &[
                profile.name.to_string(),
                tif.to_string(),
                format!("{} (paper {})", stats.hosts, profile.hosts * tif),
                format!(
                    "{} (paper {})",
                    stats.users,
                    u64::from(profile.users) * u64::from(tif)
                ),
                format!("{:.1}%", pct(ghba_trace::MetaOp::Open)),
                format!("{:.1}%", pct(ghba_trace::MetaOp::Close)),
                format!("{:.1}%", pct(ghba_trace::MetaOp::Stat)),
                stats.records.to_string(),
            ],
        )?;
    }
    writeln!(
        out,
        "\nPaper Tables 3–4: INS×30 → 570 hosts / 9,780 users; RES×100 → \
         1,300 / 5,000; HP×40 → 1,280 active users; op mix preserved under TIF."
    )
}

/// Table 5: relative memory overhead per MDS, model vs live structures.
pub fn table5(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "\n## Table 5 — per-MDS memory normalized to BFA8\n")?;
    header(
        out,
        &[
            "N",
            "BFA8",
            "BFA16",
            "HBA",
            "G-HBA",
            "paper HBA",
            "paper G-HBA",
        ],
    )?;
    let model = MemoryModel::default();
    let paper = [
        (20, 1.0002, 0.2002),
        (40, 1.0004, 0.1670),
        (60, 1.0006, 0.1434),
        (80, 1.0008, 0.1258),
        (100, 1.0010, 0.1121),
    ];
    for (n, paper_hba, paper_ghba) in paper {
        let [b8, b16, hba, ghba] = model.table5_row(n);
        row(
            out,
            &[
                n.to_string(),
                format!("{b8:.4}"),
                format!("{b16:.4}"),
                format!("{hba:.4}"),
                format!("{ghba:.4}"),
                format!("{paper_hba:.4}"),
                format!("{paper_ghba:.4}"),
            ],
        )?;
    }
    writeln!(out, "\nModel reproduces the published table to ≤0.002.")
}
