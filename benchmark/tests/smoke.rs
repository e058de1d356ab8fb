//! Every workload runs end to end at a small scale, checks itself, and
//! reports every end-to-end metric; the result lines have the contract's
//! shape.

use std::path::PathBuf;

use ghba_benchmark::gen::Shape;
use ghba_benchmark::json::Json;
use ghba_benchmark::metrics::{result_line_metrics, Workload, PER_LAYER};
use ghba_benchmark::report::{info_line, parse_round, result_line};
use ghba_benchmark::round::{run_round, RoundOpts};

const SCALE: f64 = 0.03;
/// Three or four segments of every workload.
const SECONDS: f64 = 2.0;

fn opts(workload: Workload, trace: bool) -> RoundOpts {
    RoundOpts {
        workload,
        seed: 3,
        seconds: SECONDS,
        scale: SCALE,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "smoke-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
    }
}

#[test]
fn untraced_rounds_report_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let opts = opts(workload, false);
        let report = run_round(&opts).expect("round runs");
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.failure
        );
        assert!(report.attempted > 1_000);
        let segments = Shape::of(workload, SCALE).segments_for(SECONDS);
        assert!(segments >= 3);
        assert_eq!(report.segment_ops_per_s.len(), segments);
        assert_eq!(report.recovery_samples_ms.len(), 10);
        for metric in result_line_metrics() {
            let value = report.metrics[metric.name];
            assert!(
                value.is_finite() && value > 0.0,
                "{} {} = {value}",
                workload.name(),
                metric.name
            );
        }

        let line = result_line(&report, false);
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().as_object().unwrap().len(),
            result_line_metrics().count()
        );

        let printed = format!("noise\n{}\n{}\n", info_line(&report, false), line);
        let parsed = parse_round(&printed).expect("parses back");
        assert_eq!(parsed.workload, workload);
        assert!(parsed.correct);
        assert_eq!(parsed.attempted, report.attempted);
        assert_eq!(parsed.metrics.len(), result_line_metrics().count());

        // Scratch directories are gone; only the out dir itself remains.
        let left: Vec<_> = std::fs::read_dir(&opts.out_dir).unwrap().collect();
        assert!(left.is_empty(), "{} left {left:?}", workload.name());
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}

#[test]
fn traced_rounds_report_every_per_layer_metric_and_separate_the_layers() {
    let mut hit_rate = Vec::new();
    for workload in Workload::ALL {
        let opts = opts(workload, true);
        let report = run_round(&opts).expect("round runs");
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.failure
        );
        let line = result_line(&report, true);
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| report.metrics.get(name).copied().unwrap_or(0.0);

        assert!(value("op.admit_ns_per_op") > 0.0);
        assert!(value("bloom.probe_small_ns_per_fp") > 0.0);
        assert!(
            value("harness.span_coverage") > 0.8,
            "{}",
            value("harness.span_coverage")
        );
        let shares = ["l2", "l3", "l4", "miss"]
            .map(|l| value(&format!("cluster.level_{l}_share")))
            .iter()
            .sum::<f64>();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{}: shares add to {shares}",
            workload.name()
        );

        let drains = value("cluster.drain_share");
        let wire = value("proto.request_bytes_per_op");
        let actions = value("reconfig.actions");
        match workload {
            Workload::ReadHot => assert_eq!((drains, wire, actions), (0.0, 0.0, 0.0)),
            Workload::WriteChurn => {
                assert!(drains > 0.02);
                assert!(value("wal.bytes_per_write_op") > 0.0);
                assert!(value("wal.recover_records") > 0.0);
                assert!(value("concurrent.records_per_drain") > 0.0);
            }
            Workload::ReconfigReads => assert!(actions >= 1.0),
            Workload::NetMixed => {
                assert!(wire > 20.0);
                assert!(value("route.subbatches_per_batch") >= 2.0);
                assert!(value("serve.rtt_us_p50") > 0.0);
                assert!(value("replica.batches_served") > 0.0);
            }
        }
        hit_rate.push(value("cluster.mask_hit_rate"));

        let trace =
            std::fs::read_to_string(opts.out_dir.join(format!("trace-{}.json", workload.name())))
                .expect("trace file written");
        let trace = Json::parse(&trace).expect("trace is JSON");
        assert!(trace
            .get("spans")
            .and_then(Json::as_array)
            .is_some_and(|s| !s.is_empty()));
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
    // Reconfiguration leaves masks cold; a quiescent cluster keeps them.
    assert!(hit_rate[2] < hit_rate[0], "{hit_rate:?}");
}
