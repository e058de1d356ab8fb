//! The `compare` command: two results files, one verdict per workload and
//! end-to-end metric.
//!
//! A pair is **worse** when the candidate's median is worse than the
//! baseline's by more than the metric's bound; that fails the comparison.
//! A pair within its bound whose rounds spread wider than the bound is
//! **unresolved**, not "unchanged": the files cannot tell — unless every
//! candidate round reads better than every baseline round.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;

/// The verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the rounds agree tightly enough to say so.
    Ok,
    /// Every candidate round beats every baseline round.
    Better,
    /// Within the bound, but the rounds' spread exceeds the bound.
    Unresolved,
    /// Worse than the bound allows.
    Worse,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Baseline median.
    pub baseline: f64,
    /// Candidate median.
    pub candidate: f64,
    /// `(candidate − baseline) / baseline`, signed so that positive is
    /// worse.
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Copy)]
struct Stat {
    value: f64,
    min: f64,
    max: f64,
}

fn stat(row: &Json) -> Option<Stat> {
    Some(Stat {
        value: row.get("value")?.as_f64()?,
        min: row.get("min")?.as_f64()?,
        max: row.get("max")?.as_f64()?,
    })
}

/// Judges one pair. `lower_is_better` orients the signs; `bound` is a
/// share of the baseline median (0 = any worsening fails).
#[must_use]
fn judge(a: Stat, b: Stat, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if a.value == 0.0 {
        if b.value == 0.0 {
            0.0
        } else {
            sign * f64::INFINITY * b.value.signum()
        }
    } else {
        sign * (b.value - a.value) / a.value.abs()
    };
    let all_better = if lower_is_better {
        b.max < a.min
    } else {
        b.min > a.max
    };
    let spread = |s: Stat| {
        if s.value == 0.0 {
            0.0
        } else {
            (s.max - s.min) / s.value.abs()
        }
    };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if all_better {
        Verdict::Better
    } else if spread(a).max(spread(b)) > bound && bound > 0.0 {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compares two parsed results documents.
///
/// # Errors
///
/// A document that is not a results file, or a workload or metric of the
/// baseline that the candidate lacks.
pub fn compare(baseline: &Json, candidate: &Json) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("not a results file: no `workloads`")?
            .to_vec())
    };
    let name_of = |json: &Json| json.get("name").and_then(Json::as_str).map(str::to_string);
    let candidates = workloads(candidate)?;
    let mut rows = Vec::new();
    for workload in workloads(baseline)? {
        let workload_name = name_of(&workload).ok_or("workload without a name")?;
        let other = candidates
            .iter()
            .find(|w| name_of(w).as_deref() == Some(&workload_name))
            .ok_or_else(|| format!("candidate lacks workload {workload_name}"))?;
        for metric in workload
            .get("metrics")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            let metric_name = name_of(metric).ok_or("metric without a name")?;
            let theirs = other
                .get("metrics")
                .and_then(Json::as_array)
                .and_then(|rows| {
                    rows.iter()
                        .find(|m| name_of(m).as_deref() == Some(&metric_name))
                })
                .ok_or_else(|| format!("candidate lacks {workload_name}/{metric_name}"))?;
            let (Some(a), Some(b)) = (stat(metric), stat(theirs)) else {
                return Err(format!(
                    "{workload_name}/{metric_name} has no value/min/max"
                ));
            };
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::as_str) != Some("higher");
            let (worse_by, verdict) = judge(a, b, lower, bound);
            rows.push(Row {
                workload: workload_name.clone(),
                metric: metric_name,
                unit: metric
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                baseline: a.value,
                candidate: b.value,
                worse_by,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Renders the rows as a table, one row per workload and metric.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<16} {:>14} {:>14} {:<6} {:>9} {:>7}  verdict\n",
        "workload", "metric", "baseline", "candidate", "unit", "worse by", "bound"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<16} {:<16} {:>14.4} {:>14.4} {:<6} {:>8.2}% {:>6.0}%  {}",
            row.workload,
            row.metric,
            row.baseline,
            row.candidate,
            row.unit,
            row.worse_by * 100.0,
            row.bound * 100.0,
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Better => "better",
                Verdict::Unresolved => "unresolved",
                Verdict::Worse => "WORSE",
            }
        );
    }
    out
}

/// Reads both files, prints the table, and returns `true` when no pair is
/// worse than its bound.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn compare_files(baseline: &Path, candidate: &Path) -> Result<bool, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))
            .and_then(|text| Json::parse(&text))
    };
    let rows = compare(&read(baseline)?, &read(candidate)?)?;
    print!("{}", render(&rows));
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} pairs: {worse} worse than their bound, {unresolved} unresolved",
        rows.len()
    );
    Ok(worse == 0)
}
