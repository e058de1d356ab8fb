//! How a round's result is printed, and read back by the `run` command.
//!
//! A round prints two JSON lines. The last line is the result the
//! benchmark contract asks for — exactly `correct`, `attempted`, `failed`
//! and `metrics` — and the line before it carries what else a reader
//! wants: host, seed, segment count, the first failure.

use crate::host::Host;
use crate::json::Json;
use crate::metrics::{result_line_metrics, Workload, PER_LAYER};
use crate::round::RoundReport;

/// `(name, unit)` of every metric a round of this kind reports, in
/// catalogue order.
fn catalogue(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        result_line_metrics().map(|m| (m.name, m.unit)).collect()
    }
}

/// The host as JSON.
#[must_use]
pub fn host_json(host: &Host) -> Json {
    Json::obj([
        ("cores", host.cores.into()),
        ("pinned", host.pinned_cpu.is_some().into()),
        (
            "pinned_cpu",
            host.pinned_cpu.map_or(Json::Null, |cpu| cpu.into()),
        ),
        (
            "cpu_features",
            Json::Arr(host.cpu_features.iter().map(|f| Json::str(*f)).collect()),
        ),
    ])
}

/// The contract's result line. A traced round reports every per-layer
/// metric (0 for layers the workload does not run), an untraced round
/// every end-to-end metric.
#[must_use]
pub fn result_line(report: &RoundReport, trace: bool) -> Json {
    let metrics = catalogue(trace)
        .into_iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            (
                name,
                Json::obj([("value", value.into()), ("unit", Json::str(unit))]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("correct", report.correct().into()),
        ("attempted", report.attempted.into()),
        ("failed", report.failed.into()),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The line before the result: context for people and for `run`.
#[must_use]
pub fn info_line(report: &RoundReport, trace: bool) -> Json {
    Json::obj([(
        "round",
        Json::obj([
            ("workload", Json::str(report.workload.name())),
            ("seed", report.seed.into()),
            ("trace", trace.into()),
            ("segments", report.segment_ops_per_s.len().into()),
            (
                "segment_ops_per_s",
                Json::Arr(
                    report
                        .segment_ops_per_s
                        .iter()
                        .map(|&rate| rate.round().into())
                        .collect(),
                ),
            ),
            ("raw_ops_per_s", report.raw_ops_per_s.round().into()),
            ("host_slowdown", report.host_slowdown.into()),
            (
                "recovery_samples_ms",
                Json::Arr(
                    report
                        .recovery_samples_ms
                        .iter()
                        .map(|&ms| ms.round().into())
                        .collect(),
                ),
            ),
            ("host", host_json(&report.host)),
            (
                "failure",
                report.failure.as_deref().map_or(Json::Null, Json::str),
            ),
        ]),
    )])
}

/// A round's output as `run` reads it back from a child process.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRound {
    /// The workload.
    pub workload: Workload,
    /// `correct` of the result line.
    pub correct: bool,
    /// `attempted` of the result line.
    pub attempted: u64,
    /// `failed` of the result line.
    pub failed: u64,
    /// The first failure, if any.
    pub failure: Option<String>,
    /// Segments the round ran.
    pub segments: u64,
    /// Ops ÷ wall time of the timed loop as measured.
    pub raw_ops_per_s: f64,
    /// Measured wall time of the loop ÷ its wall time at the quiet phase.
    pub host_slowdown: f64,
    /// The host object, verbatim.
    pub host: Json,
    /// `(name, unit, value)` in catalogue order.
    pub metrics: Vec<(String, String, f64)>,
}

/// Parses the last two lines of a round's standard output.
///
/// # Errors
///
/// Output that is not the two lines a round prints.
pub fn parse_round(stdout: &str) -> Result<ParsedRound, String> {
    let mut lines = stdout.lines().rev().filter(|line| !line.trim().is_empty());
    let result = Json::parse(lines.next().ok_or("no output")?)?;
    let info = Json::parse(lines.next().ok_or("no info line")?)?;
    let round = info.get("round").ok_or("info line lacks `round`")?;
    let field = |json: &Json, key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number `{key}`"))
    };
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result lacks `metrics`")?
        .iter()
        .map(|(name, metric)| {
            Ok((
                name.clone(),
                metric
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                field(metric, "value")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ParsedRound {
        workload: round
            .get("workload")
            .and_then(Json::as_str)
            .and_then(Workload::parse)
            .ok_or("unknown workload")?,
        correct: result
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("result lacks `correct`")?,
        attempted: field(&result, "attempted")? as u64,
        failed: field(&result, "failed")? as u64,
        failure: round
            .get("failure")
            .and_then(Json::as_str)
            .map(str::to_string),
        segments: field(round, "segments")? as u64,
        raw_ops_per_s: field(round, "raw_ops_per_s")?,
        host_slowdown: field(round, "host_slowdown")?,
        host: round.get("host").cloned().unwrap_or(Json::Null),
        metrics,
    })
}
