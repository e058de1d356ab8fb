//! The `run` command: every workload, several rounds each, interleaved;
//! then one traced round per workload; one results file.
//!
//! Each round is a fresh child process of this one (pin, set up, warm,
//! time, print), so allocator state and peak memory belong to one
//! workload, and a slow stretch of the host lands on all workloads alike
//! because the rounds are ordered w1 w2 w3 w4 w1 … The value reported for
//! a metric is the median round, with minimum, maximum and the number of
//! rounds beside it.

use std::process::{Command, Stdio};

use crate::cli::RunOpts;
use crate::host::{self, Host};
use crate::json::Json;
use crate::metrics::{Workload, END_TO_END, FAILED_OP_SHARE, PER_LAYER};
use crate::recorder::median;
use crate::report::{host_json, parse_round, ParsedRound};

/// Spawns one round as a child process and parses what it prints.
fn spawn_round(opts: &RunOpts, workload: Workload, trace: bool) -> Result<ParsedRound, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find own binary: {err}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--scale", &opts.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // `output` waits for the child: no round outlives the run.
    let output = command
        .output()
        .map_err(|err| format!("cannot start a round: {err}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse_round(&stdout).map_err(|err| {
        format!(
            "{} round ({}) printed no result: {err}",
            workload.name(),
            output.status
        )
    })
}

fn summary(name: &str, unit: &str, values: &[f64]) -> Vec<(&'static str, Json)> {
    let (min, max) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    vec![
        ("name", Json::str(name)),
        ("unit", Json::str(unit)),
        ("value", median(values).into()),
        ("n", values.len().into()),
        ("min", min.into()),
        ("max", max.into()),
    ]
}

/// Runs everything and writes the results file. Returns `false` when any
/// round reported an incorrect outcome.
///
/// # Errors
///
/// A round that could not be started or printed no result, or a results
/// file that could not be written.
pub fn run(opts: &RunOpts) -> Result<bool, String> {
    let mut untraced: Vec<Vec<ParsedRound>> = vec![Vec::new(); opts.workloads.len()];
    for round in 0..opts.rounds {
        for (slot, &workload) in opts.workloads.iter().enumerate() {
            eprintln!(
                "round {}/{} {} (seed {}, {} s)",
                round + 1,
                opts.rounds,
                workload.name(),
                opts.seed,
                opts.seconds
            );
            untraced[slot].push(spawn_round(opts, workload, false)?);
        }
    }
    let mut traced = Vec::new();
    for &workload in &opts.workloads {
        eprintln!("traced round {}", workload.name());
        traced.push(spawn_round(opts, workload, true)?);
    }

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for ((&workload, rounds), traced) in opts.workloads.iter().zip(&untraced).zip(&traced) {
        let attempted: u64 = rounds.iter().map(|r| r.attempted).sum::<u64>() + traced.attempted;
        let failed: u64 = rounds.iter().map(|r| r.failed).sum::<u64>() + traced.failed;
        let correct = rounds.iter().all(|r| r.correct) && traced.correct;
        all_correct &= correct;
        let failure = rounds
            .iter()
            .chain(std::iter::once(traced))
            .find_map(|r| r.failure.clone());

        let mut metrics = Vec::new();
        for metric in &END_TO_END {
            let values: Vec<f64> = if metric.name == FAILED_OP_SHARE {
                rounds
                    .iter()
                    .map(|r| r.failed as f64 / r.attempted.max(1) as f64)
                    .collect()
            } else {
                rounds
                    .iter()
                    .filter_map(|r| r.metrics.iter().find(|(name, _, _)| name == metric.name))
                    .map(|(_, _, value)| *value)
                    .collect()
            };
            let mut row = summary(metric.name, metric.unit, &values);
            row.push(("better", Json::str(metric.better.as_str())));
            row.push(("bound", metric.bound.into()));
            metrics.push(Json::obj(row));
        }

        // The loop as measured, beside its quiet-phase reading.
        let raw = [
            (
                "raw_ops_per_s",
                "ops/s",
                rounds.iter().map(|r| r.raw_ops_per_s).collect::<Vec<_>>(),
            ),
            (
                "host_slowdown",
                "ratio",
                rounds.iter().map(|r| r.host_slowdown).collect(),
            ),
        ]
        .into_iter()
        .map(|(name, unit, values)| Json::obj(summary(name, unit, &values)))
        .collect();

        let per_layer = PER_LAYER
            .iter()
            .map(|layer| {
                let value = traced
                    .metrics
                    .iter()
                    .find(|(name, _, _)| name == layer.name)
                    .map_or(0.0, |(_, _, value)| *value);
                let mut row = summary(layer.name, layer.unit, &[value]);
                row.push(("exact", layer.exact_on(workload).into()));
                Json::obj(row)
            })
            .collect();

        workloads.push(Json::obj([
            ("name", Json::str(workload.name())),
            ("correct", correct.into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("failure", failure.as_deref().map_or(Json::Null, Json::str)),
            (
                "segments",
                Json::Arr(rounds.iter().map(|r| r.segments.into()).collect()),
            ),
            ("metrics", Json::Arr(metrics)),
            ("raw", Json::Arr(raw)),
            ("per_layer", Json::Arr(per_layer)),
        ]));
    }

    let host = untraced
        .first()
        .and_then(|rounds| rounds.first())
        .map_or_else(|| host_json(&Host::describe()), |r| r.host.clone());
    let results = Json::obj([
        ("bench", Json::str("ghba-benchmark")),
        ("git_rev", Json::str(host::git_rev())),
        ("host", host),
        ("seed", opts.seed.into()),
        ("rounds", opts.rounds.into()),
        ("seconds", opts.seconds.into()),
        ("scale", opts.scale.into()),
        (
            "note",
            Json::str(
                "loopback TCP and page-cache disk of a small sandbox: not a link, not a device",
            ),
        ),
        ("workloads", Json::Arr(workloads)),
    ]);
    std::fs::create_dir_all(&opts.out_dir).map_err(|err| err.to_string())?;
    let path = opts.out_dir.join("results.json");
    std::fs::write(&path, results.pretty())
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    print_tables(&results);
    println!("results: {}", path.display());
    Ok(all_correct)
}

/// Prints every metric of a results document by name, with its unit.
fn print_tables(results: &Json) {
    let text = |json: &Json, key: &str| {
        json.get(key)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let number = |json: &Json, key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    for workload in results
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        println!(
            "\n== {} — correct: {}, {} ops checked, {} failed",
            text(workload, "name"),
            workload
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            number(workload, "attempted"),
            number(workload, "failed"),
        );
        println!(
            "{:<36} {:>14} {:<6} {:>3} {:>14} {:>14}",
            "metric", "median", "unit", "n", "min", "max"
        );
        for section in ["metrics", "raw", "per_layer"] {
            for row in workload
                .get(section)
                .and_then(Json::as_array)
                .unwrap_or(&[])
            {
                println!(
                    "{:<36} {:>14.4} {:<6} {:>3} {:>14.4} {:>14.4}{}",
                    text(row, "name"),
                    number(row, "value"),
                    text(row, "unit"),
                    number(row, "n"),
                    number(row, "min"),
                    number(row, "max"),
                    if row.get("exact").and_then(Json::as_bool) == Some(true) {
                        "  exact"
                    } else {
                        ""
                    }
                );
            }
        }
    }
}
