//! The shadow namespace: the second half of the correctness oracle.
//!
//! [`crate::gen`] decides which files exist; this module remembers where
//! the system said it put them — the home returned by the create or
//! rename — and checks every later outcome against that: a lookup must
//! name the same home, a remove or rename must report it as the old home,
//! and a path that does not exist must resolve nowhere.

use ghba_core::{MdsId, OpOutcome, QueryLevel};

use crate::gen::{OpKind, OpSpec, Segment, MISSING_ID};

/// How many lookups each level of the hierarchy resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelTally {
    /// Lookups checked.
    pub lookups: u64,
    /// Resolved by the entry server's LRU array.
    pub l1: u64,
    /// Resolved by the entry server's segment array.
    pub l2: u64,
    /// Resolved by the group multicast.
    pub l3: u64,
    /// Resolved by the system-wide multicast.
    pub l4: u64,
    /// Established as existing nowhere.
    pub miss: u64,
    /// Sum of the modelled message counts.
    pub messages: u64,
    /// Sum of the modelled latencies, in nanoseconds.
    pub sim_latency_ns: u128,
}

/// Homes by file id, plus running counts of what was checked.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    homes: Vec<Option<MdsId>>,
    /// Ops checked so far.
    pub attempted: u64,
    /// Ops whose outcome was an error or disagreed with the shadow.
    pub failed: u64,
    /// Mutating ops (create, remove, rename) checked so far.
    pub writes: u64,
    /// Per-level resolution counts of the lookups checked so far.
    pub levels: LevelTally,
    first_failure: Option<String>,
}

impl Oracle {
    /// An empty shadow namespace.
    #[must_use]
    pub fn new() -> Self {
        Oracle::default()
    }

    /// The recorded home of file `id`, if it exists.
    #[must_use]
    pub fn home(&self, id: u32) -> Option<MdsId> {
        self.homes.get(id as usize).copied().flatten()
    }

    /// Files the shadow believes exist.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.homes.iter().flatten().count()
    }

    /// The first disagreement seen, for the error message.
    #[must_use]
    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }

    fn set(&mut self, id: u32, home: Option<MdsId>) {
        if id == MISSING_ID {
            return;
        }
        if self.homes.len() <= id as usize {
            self.homes.resize(id as usize + 1, None);
        }
        self.homes[id as usize] = home;
    }

    /// Counts `ops` ops as attempted and failed: a batch the system
    /// answered with an error instead of outcomes.
    pub fn fail_batch(&mut self, ops: usize, why: &str) {
        self.attempted += ops as u64;
        self.failed += ops as u64;
        self.first_failure
            .get_or_insert_with(|| format!("batch failed: {why}"));
    }

    /// Checks the outcomes of one batch, op by op, and learns the homes
    /// its writes report.
    pub fn check_batch(&mut self, segment: &Segment, ops: &[OpSpec], outcomes: &[OpOutcome]) {
        if outcomes.len() != ops.len() {
            self.fail_batch(
                ops.len(),
                &format!("{} outcomes for {} ops", outcomes.len(), ops.len()),
            );
            return;
        }
        for (op, outcome) in ops.iter().zip(outcomes) {
            self.attempted += 1;
            if !self.check(op, outcome) {
                self.failed += 1;
                let recorded = self.home(op.id);
                self.first_failure.get_or_insert_with(|| {
                    format!(
                        "{:?} {} answered {outcome:?}; shadow home {recorded:?}",
                        op.kind,
                        segment.path(op)
                    )
                });
            }
        }
    }

    fn check(&mut self, op: &OpSpec, outcome: &OpOutcome) -> bool {
        match (op.kind, outcome) {
            (OpKind::LookupLive | OpKind::LookupMissing, OpOutcome::Resolved(query)) => {
                let tally = &mut self.levels;
                tally.lookups += 1;
                tally.messages += u64::from(query.messages);
                tally.sim_latency_ns += query.latency.as_nanos();
                match query.level {
                    QueryLevel::L1Lru => tally.l1 += 1,
                    QueryLevel::L2Segment => tally.l2 += 1,
                    QueryLevel::L3Group => tally.l3 += 1,
                    QueryLevel::L4Global => tally.l4 += 1,
                    QueryLevel::Nonexistent => tally.miss += 1,
                }
                match op.kind {
                    OpKind::LookupLive => query.home.is_some() && query.home == self.home(op.id),
                    _ => query.home.is_none(),
                }
            }
            (OpKind::Create, OpOutcome::Created { home }) => {
                self.writes += 1;
                self.set(op.id, Some(*home));
                true
            }
            (OpKind::Remove, OpOutcome::Removed { home }) => {
                self.writes += 1;
                let ok = home.is_some() && *home == self.home(op.id);
                self.set(op.id, None);
                ok
            }
            (OpKind::Rename, OpOutcome::Renamed { old_home, new_home }) => {
                self.writes += 1;
                let ok = old_home.is_some() && *old_home == self.home(op.id) && new_home.is_some();
                self.set(op.id, None);
                self.set(op.to_id, *new_home);
                ok
            }
            _ => false,
        }
    }
}
