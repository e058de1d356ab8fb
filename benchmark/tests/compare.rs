//! The `compare` verdicts.

use ghba_benchmark::compare::{compare, render, Verdict};
use ghba_benchmark::json::Json;

fn results(rows: &[(&str, &str, f64, f64, f64, f64)]) -> Json {
    let metrics = rows
        .iter()
        .map(|&(name, better, value, min, max, bound)| {
            Json::obj([
                ("name", Json::str(name)),
                ("unit", Json::str("u")),
                ("value", value.into()),
                ("n", 5u64.into()),
                ("min", min.into()),
                ("max", max.into()),
                ("better", Json::str(better)),
                ("bound", bound.into()),
            ])
        })
        .collect();
    Json::obj([(
        "workloads",
        Json::Arr(vec![Json::obj([
            ("name", Json::str("read_hot")),
            ("metrics", Json::Arr(metrics)),
        ])]),
    )])
}

fn verdict(a: (f64, f64, f64), b: (f64, f64, f64), better: &str, bound: f64) -> Verdict {
    let base = results(&[("m", better, a.0, a.1, a.2, bound)]);
    let cand = results(&[("m", better, b.0, b.1, b.2, bound)]);
    compare(&base, &cand).unwrap()[0].verdict
}

#[test]
fn within_bound_and_tight_is_ok() {
    assert_eq!(
        verdict((100.0, 99.0, 101.0), (103.0, 102.0, 104.0), "lower", 0.10),
        Verdict::Ok
    );
    assert_eq!(
        verdict((100.0, 99.0, 101.0), (97.0, 96.0, 99.5), "higher", 0.10),
        Verdict::Ok
    );
}

#[test]
fn beyond_the_bound_is_worse_in_the_metrics_own_direction() {
    assert_eq!(
        verdict((100.0, 99.0, 101.0), (111.0, 110.0, 112.0), "lower", 0.10),
        Verdict::Worse
    );
    assert_eq!(
        verdict((100.0, 99.0, 101.0), (89.0, 88.0, 90.0), "higher", 0.10),
        Verdict::Worse
    );
    // The same numbers are an improvement the other way round.
    assert_eq!(
        verdict((100.0, 99.0, 101.0), (111.0, 110.0, 112.0), "higher", 0.10),
        Verdict::Better
    );
}

#[test]
fn rounds_that_spread_wider_than_the_bound_are_unresolved() {
    assert_eq!(
        verdict((100.0, 90.0, 115.0), (102.0, 95.0, 108.0), "lower", 0.10),
        Verdict::Unresolved
    );
    // … unless every candidate round beats every baseline round.
    assert_eq!(
        verdict((100.0, 90.0, 115.0), (80.0, 70.0, 89.0), "lower", 0.10),
        Verdict::Better
    );
}

#[test]
fn a_zero_bound_fails_any_worsening() {
    assert_eq!(
        verdict((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), "lower", 0.0),
        Verdict::Ok
    );
    assert_eq!(
        verdict((0.0, 0.0, 0.0), (0.001, 0.0, 0.002), "lower", 0.0),
        Verdict::Worse
    );
}

#[test]
fn one_row_per_workload_and_metric_and_missing_ones_are_errors() {
    let base = results(&[
        ("ops_per_s", "higher", 100.0, 99.0, 101.0, 0.1),
        ("setup_s", "lower", 1.0, 0.9, 1.1, 0.2),
    ]);
    let rows = compare(&base, &base).unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r.worse_by == 0.0));
    let table = render(&rows);
    assert!(table.contains("read_hot") && table.contains("setup_s"));
    let partial = results(&[("ops_per_s", "higher", 100.0, 99.0, 101.0, 0.1)]);
    assert!(compare(&base, &partial).is_err());
    assert!(compare(&Json::Null, &base).is_err());
}
