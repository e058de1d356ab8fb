//! `BENCHMARK.json` and the package agree on every name, unit, direction
//! and bound, and the file stays inside the contract's limits.

use ghba_benchmark::json::Json;
use ghba_benchmark::metrics::{result_line_metrics, Workload, END_TO_END, PER_LAYER};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json is JSON")
}

fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} of {row}"))
}

#[test]
fn workloads_match() {
    let doc = manifest();
    let rows = doc.get("workloads").and_then(Json::as_array).unwrap();
    let names: Vec<&str> = rows.iter().map(|r| text(r, "name")).collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for row in rows {
        let why = text(row, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
}

#[test]
fn end_to_end_metrics_match() {
    let doc = manifest();
    let rows = doc.get("end_to_end").and_then(Json::as_array).unwrap();
    // `failed_op_share` is 0 on a correct program; the contract takes no
    // metric that can be 0 and carries it as `attempted` / `failed`.
    assert_eq!(END_TO_END.len(), 7);
    assert_eq!(rows.len(), result_line_metrics().count());
    for (row, metric) in rows.iter().zip(result_line_metrics()) {
        assert_eq!(text(row, "name"), metric.name);
        assert_eq!(text(row, "unit"), metric.unit);
        assert_eq!(text(row, "better"), metric.better.as_str());
        let bound = row.get("bound").and_then(Json::as_f64).unwrap();
        assert_eq!(bound, metric.bound, "{}", metric.name);
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = rows.iter().find(|r| text(r, "name") == "setup_s").unwrap();
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
}

#[test]
fn per_layer_metrics_match() {
    let doc = manifest();
    let rows = doc.get("per_layer").and_then(Json::as_array).unwrap();
    assert!(rows.len() <= 128);
    assert_eq!(rows.len(), PER_LAYER.len());
    for (row, layer) in rows.iter().zip(&PER_LAYER) {
        assert_eq!(text(row, "name"), layer.name);
        assert_eq!(text(row, "unit"), layer.unit);
        assert_eq!(text(row, "better"), layer.better.as_str());
        assert_eq!(row.as_object().unwrap().len(), 3, "{}", layer.name);
    }
}

#[test]
fn names_and_units_stay_inside_the_contract() {
    let mut seen = std::collections::BTreeSet::new();
    let names = Workload::ALL
        .iter()
        .map(|w| (w.name(), "count"))
        .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in names {
        assert!(seen.insert(name), "{name} is used twice");
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(unit.len() <= 16 && !unit.is_empty());
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
}

#[test]
fn the_command_builds_from_the_benchmarks_own_directory() {
    let doc = manifest();
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|part| part.as_str().unwrap())
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|part| part.len() <= 200));
    assert!(command
        .iter()
        .all(|part| !part.starts_with('/') && !part.contains("..")));
    assert!(command.contains(&"benchmark/Cargo.toml"));
    let paths = doc.get("paths").and_then(Json::as_array).unwrap();
    assert_eq!(paths, [Json::str("benchmark")]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}
