//! Same seed, same run: byte-identical op streams, identical exact
//! metrics, and a reconfiguration schedule that is a pure function of
//! seed and batch index.

use std::path::PathBuf;

use ghba_benchmark::gen::Generator;
use ghba_benchmark::metrics::{Workload, PER_LAYER};
use ghba_benchmark::round::{run_round, RoundOpts, RoundReport};
use ghba_benchmark::target::{scheduled_action, Action, ACTION_EVERY};

const SCALE: f64 = 0.02;

fn stream(workload: Workload, seed: u64) -> Vec<u8> {
    let mut gen = Generator::new(workload, seed, SCALE);
    let mut bytes = gen.populate(512).stream_bytes();
    for _ in 0..3 {
        bytes.extend(gen.next_segment().stream_bytes());
    }
    bytes.extend(gen.audit(512).stream_bytes());
    bytes
}

#[test]
fn op_streams_are_a_function_of_the_seed() {
    for workload in Workload::ALL {
        let a = stream(workload, 7);
        assert!(!a.is_empty());
        assert_eq!(a, stream(workload, 7), "{} drifted", workload.name());
        assert_ne!(
            a,
            stream(workload, 8),
            "{} ignores its seed",
            workload.name()
        );
    }
    // `reconfig_reads` is `read_hot`'s exact op stream.
    assert_eq!(
        stream(Workload::ReadHot, 7),
        stream(Workload::ReconfigReads, 7)
    );
    assert_ne!(stream(Workload::ReadHot, 7), stream(Workload::NetMixed, 7));
}

#[test]
fn the_reconfiguration_schedule_is_a_pure_function() {
    let plan = |seed: u64| -> Vec<(u64, Action)> {
        (0..=64 * ACTION_EVERY)
            .filter_map(|count| scheduled_action(seed, count).map(|a| (count, a)))
            .collect()
    };
    let a = plan(3);
    assert_eq!(a, plan(3));
    assert_ne!(a, plan(4));
    // One action every ACTION_EVERY batches, none in between or at 0.
    assert_eq!(a.len(), 64);
    assert!(a
        .iter()
        .all(|(count, _)| count % ACTION_EVERY == 0 && *count > 0));
    // Every 8th action splits; a merge follows 4 actions later; the rest
    // rebalance. So splits and merges pair up and the group count returns.
    for (i, (_, action)) in a.iter().enumerate() {
        let number = i as u64 + 1;
        match number % 8 {
            0 => assert!(matches!(action, Action::Split(_)), "action {number}"),
            4 => assert_eq!(*action, Action::Merge, "action {number}"),
            _ => assert!(matches!(action, Action::Rebalance(_)), "action {number}"),
        }
    }
}

fn traced_round(workload: Workload, seed: u64, tag: &str) -> RoundReport {
    let out_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("det-{}-{tag}", workload.name()));
    let report = run_round(&RoundOpts {
        workload,
        seed,
        // Enough batches for reconfig_reads to split, merge and rebalance.
        seconds: 6.0,
        scale: SCALE,
        trace: true,
        out_dir: out_dir.clone(),
    })
    .expect("round runs");
    assert!(
        report.correct(),
        "{}: {:?}",
        workload.name(),
        report.failure
    );
    assert!(out_dir
        .join(format!("trace-{}.json", workload.name()))
        .exists());
    let _ = std::fs::remove_dir_all(out_dir);
    report
}

#[test]
fn exact_metrics_repeat_bit_for_bit() {
    for workload in Workload::ALL {
        let a = traced_round(workload, 21, "a");
        let b = traced_round(workload, 21, "b");
        let mut exact = 0;
        for layer in PER_LAYER.iter().filter(|l| l.exact_on(workload)) {
            let (x, y) = (a.metrics.get(layer.name), b.metrics.get(layer.name));
            assert_eq!(
                x.map(|v| v.to_bits()),
                y.map(|v| v.to_bits()),
                "{} {} differs: {x:?} vs {y:?}",
                workload.name(),
                layer.name
            );
            exact += usize::from(x.is_some_and(|v| *v != 0.0));
        }
        assert!(
            exact >= 3,
            "{}: only {exact} exact metrics set",
            workload.name()
        );
        assert_eq!(a.attempted, b.attempted);
        if workload == Workload::ReconfigReads {
            assert!(a.metrics["reconfig.actions"] >= 8.0);
            assert_eq!(a.metrics["reconfig.actions"], b.metrics["reconfig.actions"]);
        }
    }
}

#[test]
fn another_seed_changes_the_exact_metrics() {
    let a = traced_round(Workload::WriteChurn, 21, "c");
    let b = traced_round(Workload::WriteChurn, 22, "d");
    assert_ne!(
        a.metrics["concurrent.records_per_drain"],
        b.metrics["concurrent.records_per_drain"]
    );
}
