//! The shadow namespace notices what it is there to notice.

use std::time::Duration;

use ghba_benchmark::gen::{Generator, OpKind};
use ghba_benchmark::metrics::Workload;
use ghba_benchmark::oracle::Oracle;
use ghba_core::{MdsId, MembershipEpoch, OpOutcome, QueryLevel, QueryOutcome};

fn resolved(home: Option<MdsId>, level: QueryLevel) -> OpOutcome {
    OpOutcome::Resolved(QueryOutcome {
        home,
        level,
        latency: Duration::from_micros(100),
        messages: 3,
        entry: MdsId(0),
        epoch: MembershipEpoch::default(),
    })
}

/// The outcome a correct system gives `op`, with every file homed at
/// `MdsId(id % 7)`.
fn truthful(kind: OpKind, id: u32, to_id: u32) -> OpOutcome {
    let home = |id: u32| MdsId((id % 7) as u16);
    match kind {
        OpKind::LookupLive => resolved(Some(home(id)), QueryLevel::L2Segment),
        OpKind::LookupMissing => resolved(None, QueryLevel::Nonexistent),
        OpKind::Create => OpOutcome::Created { home: home(id) },
        OpKind::Remove => OpOutcome::Removed {
            home: Some(home(id)),
        },
        OpKind::Rename => OpOutcome::Renamed {
            old_home: Some(home(id)),
            new_home: Some(home(to_id)),
        },
    }
}

#[test]
fn a_truthful_system_passes_every_workload_and_a_lie_is_counted() {
    for workload in Workload::ALL {
        let mut gen = Generator::new(workload, 11, 0.02);
        let mut oracle = Oracle::new();
        let population = gen.populate(512);
        let stream = gen.next_batches(40);
        for segment in [&population, &stream] {
            for ops in segment.batches() {
                let outcomes: Vec<OpOutcome> = ops
                    .iter()
                    .map(|op| truthful(op.kind, op.id, op.to_id))
                    .collect();
                oracle.check_batch(segment, ops, &outcomes);
            }
        }
        assert_eq!(
            oracle.failed,
            0,
            "{}: {:?}",
            workload.name(),
            oracle.first_failure()
        );
        assert_eq!(
            oracle.attempted as usize,
            population.op_count() + stream.op_count()
        );
        assert_eq!(oracle.live_count(), gen.live_ids().len());

        // The same audit, answered with one wrong home.
        let audit = gen.audit(64);
        let ops = audit.batches().next().unwrap();
        let mut outcomes: Vec<OpOutcome> = ops
            .iter()
            .map(|op| truthful(op.kind, op.id, op.to_id))
            .collect();
        outcomes[5] = resolved(Some(MdsId(99)), QueryLevel::L3Group);
        oracle.check_batch(&audit, ops, &outcomes);
        assert_eq!(oracle.failed, 1);
        assert!(oracle.first_failure().unwrap().contains("LookupLive"));
    }
}

#[test]
fn each_kind_of_wrong_answer_fails() {
    let mut gen = Generator::new(Workload::WriteChurn, 5, 0.02);
    let population = gen.populate(512);
    let ops = population.batches().next().unwrap();
    let op = &ops[0];
    let wrong: [(OpKind, OpOutcome); 6] = [
        // a file that exists resolves nowhere
        (OpKind::LookupLive, resolved(None, QueryLevel::Nonexistent)),
        // a file that does not exist resolves somewhere
        (
            OpKind::LookupMissing,
            resolved(Some(MdsId(1)), QueryLevel::L4Global),
        ),
        // a remove that found nothing to remove
        (OpKind::Remove, OpOutcome::Removed { home: None }),
        // a remove from the wrong home
        (
            OpKind::Remove,
            OpOutcome::Removed {
                home: Some(MdsId(6)),
            },
        ),
        // a rename whose source was "absent"
        (
            OpKind::Rename,
            OpOutcome::Renamed {
                old_home: None,
                new_home: None,
            },
        ),
        // the wrong kind of outcome altogether
        (OpKind::Create, OpOutcome::Removed { home: None }),
    ];
    for (kind, outcome) in wrong {
        let mut oracle = Oracle::new();
        oracle.check_batch(
            &population,
            &ops[..1],
            &[truthful(OpKind::Create, op.id, 0)],
        );
        let mut probe = *op;
        probe.kind = kind;
        oracle.check_batch(&population, &[probe], std::slice::from_ref(&outcome));
        assert_eq!(oracle.failed, 1, "{kind:?} answered {outcome:?} passed");
    }
    // Too few outcomes fail the whole batch.
    let mut oracle = Oracle::new();
    oracle.check_batch(&population, &ops[..4], &[]);
    assert_eq!((oracle.attempted, oracle.failed), (4, 4));
}

#[test]
fn levels_and_modelled_costs_are_tallied() {
    let mut gen = Generator::new(Workload::ReadHot, 1, 0.02);
    let population = gen.populate(512);
    let mut oracle = Oracle::new();
    for ops in population.batches() {
        let outcomes: Vec<OpOutcome> = ops.iter().map(|op| truthful(op.kind, op.id, 0)).collect();
        oracle.check_batch(&population, ops, &outcomes);
    }
    let stream = gen.next_batches(4);
    for ops in stream.batches() {
        let outcomes: Vec<OpOutcome> = ops.iter().map(|op| truthful(op.kind, op.id, 0)).collect();
        oracle.check_batch(&stream, ops, &outcomes);
    }
    let tally = oracle.levels;
    assert_eq!(tally.lookups, 4 * 128);
    assert_eq!(tally.l2 + tally.miss, tally.lookups);
    assert_eq!(tally.messages, 3 * tally.lookups);
    assert_eq!(tally.sim_latency_ns, 100_000 * u128::from(tally.lookups));
    assert_eq!(oracle.writes as usize, population.op_count());
}
