//! Path-sharded federation routing: which replica serves which op, and
//! the two-wave rename plan that keeps cross-replica renames exact.
//!
//! The networked deployment shards the namespace across `R` replica
//! processes by fingerprint: op for path `p` goes to replica
//! `fp(p).lanes().0 % R` ([`replica_of`]). Each replica owns a full
//! [`GhbaCluster`] for its shard, so within a shard the whole G-HBA
//! hierarchy (L1 LRU → L2 segment → L3 group multicast → L4 sweep)
//! applies unchanged.
//!
//! [`execute_sharded`] is the **one** planner both deployments run:
//!
//! * the in-process [`Federation`] (ground truth for the loopback
//!   end-to-end tests), and
//! * the TCP [`NetClient`](crate::client::NetClient) talking to real
//!   replica processes,
//!
//! both implement [`BatchTransport`] and hand their batches to the same
//! partition/stitch logic — so "networked outcomes == in-process
//! outcomes" holds *by construction* for everything above the
//! transport.
//!
//! # The two-wave rename
//!
//! A rename whose `from` and `to` fingerprints land on different
//! replicas cannot ship as a native `Rename` (no replica sees both
//! sides). The planner splits it:
//!
//! 1. **Wave 1** — the `from` replica executes a `Remove(from)` in
//!    stream position, alongside every unsplit op.
//! 2. **Wave 2** — for each split rename whose remove reported
//!    `Some(old_home)` (the source existed), the `to` replica executes
//!    a `Create(to)`; renames of absent sources send nothing, exactly
//!    like the in-cluster pipeline's no-op rename.
//!
//! The planner then stitches `Renamed { old_home, new_home }` back into
//! the original op position. This mirrors the remove-then-create
//! decomposition the concurrent pipeline itself uses for cross-shard
//! renames (no op ever holds two shards), lifted one level to
//! cross-replica.
//!
//! # Picks: the planner borrows
//!
//! A wave is one list of [`Pick`]s per replica: positions in the
//! caller's batch (`Op(i)`), or one half of the split rename at `i`
//! (`RemoveFrom(i)`, `CreateTo(i)`). Planning clones no path. A wave
//! goes to [`BatchTransport::execute_wave`] whole, so a transport can
//! send every replica's frame before it reads any reply — the TCP
//! [`NetClient`](crate::client::NetClient) does, encoding each frame
//! straight from the borrowed batch. Wave 2 runs only when some split
//! rename's source existed; a split rename's slot keeps the index of its
//! wave-2 outcome, so stitching is one pass.

use ghba_core::{
    GhbaCluster, GhbaConfig, MetadataOp, MetadataService, OpBatch, OpOutcome, PathKey,
};

use crate::wire::WireError;

/// Salt mixing a replica's index into its cluster seed, so no two
/// replicas of a fleet share RNG streams or filter families.
const REPLICA_SEED_SALT: u64 = 0xA24B_AED4_963E_E407;

/// The replica index serving `key` in a fleet of `replicas`.
///
/// Uses the admission fingerprint's first lane — the path bytes are
/// never re-hashed to route.
///
/// # Panics
///
/// Panics if `replicas == 0`.
#[must_use]
pub fn replica_of(key: &PathKey, replicas: usize) -> usize {
    assert!(replicas > 0, "a fleet needs at least one replica");
    (key.fingerprint().lanes().0 % replicas as u64) as usize
}

/// The cluster configuration replica `replica` of a fleet runs: the
/// fleet's base config with a per-replica seed offset.
///
/// Every deployment of a fleet — the [`Federation`] ground truth, the
/// loopback harness, the `replica` binary — must derive its per-replica
/// configs through this one function, or their RNG streams (and thus
/// their `Random`-policy outcomes and filter families) diverge.
#[must_use]
pub fn replica_config(base: &GhbaConfig, replica: usize) -> GhbaConfig {
    let mut config = base.clone();
    config.seed = base
        .seed
        .wrapping_add(REPLICA_SEED_SALT.wrapping_mul(replica as u64 + 1));
    config
}

/// One op of a wave's per-replica list, named by its position in the
/// caller's batch: the planner borrows the batch and clones nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Op `i` of the batch, as it is.
    Op(usize),
    /// Wave 1's half of the split rename at op `i`: `Remove(from)`.
    RemoveFrom(usize),
    /// Wave 2's half of the split rename at op `i`: `Create(to)`.
    CreateTo(usize),
}

/// The `(from, to)` keys of a rename a split [`Pick`] names.
///
/// # Panics
///
/// Panics if `op` is not a rename: the planner only splits renames.
pub(crate) fn split_halves(op: &MetadataOp) -> (&PathKey, &PathKey) {
    match op {
        MetadataOp::Rename { from, to } => (from, to),
        _ => panic!("a split pick names a rename, not {op:?}"),
    }
}

/// A transport that can execute an [`OpBatch`] on one replica of a
/// fleet. [`execute_sharded`] is generic over this seam; everything
/// above it (partitioning, rename waves, stitching) is shared.
pub trait BatchTransport {
    /// Number of replicas in the fleet.
    fn replica_count(&self) -> usize;

    /// Executes `batch` on replica `replica`, returning one outcome per
    /// op in order.
    fn execute_on(&mut self, replica: usize, batch: &OpBatch) -> Result<Vec<OpOutcome>, WireError>;

    /// Executes one wave: `picks[r]` on replica `r`, each list as one
    /// sub-batch of `batch` under `batch`'s policy. Returns one outcome
    /// list per replica, empty for an empty list (which runs nowhere).
    ///
    /// The default materialises each non-empty list as an [`OpBatch`]
    /// and runs it through [`execute_on`](BatchTransport::execute_on),
    /// one replica after another; a transport that can send a wave
    /// from the borrowed batch overrides it.
    ///
    /// # Errors
    ///
    /// Propagates the first transport failure.
    fn execute_wave(
        &mut self,
        batch: &OpBatch,
        picks: &[Vec<Pick>],
    ) -> Result<Vec<Vec<OpOutcome>>, WireError> {
        let mut outcomes = Vec::with_capacity(picks.len());
        for (replica, list) in picks.iter().enumerate() {
            if list.is_empty() {
                outcomes.push(Vec::new());
                continue;
            }
            let mut sub = OpBatch::with_capacity(list.len()).with_entry(batch.entry_policy());
            for &pick in list {
                let (Pick::Op(i) | Pick::RemoveFrom(i) | Pick::CreateTo(i)) = pick;
                let op = &batch.ops()[i];
                sub.push(match pick {
                    Pick::Op(_) => op.clone(),
                    Pick::RemoveFrom(_) => MetadataOp::Remove(split_halves(op).0.clone()),
                    Pick::CreateTo(_) => MetadataOp::Create(split_halves(op).1.clone()),
                });
            }
            outcomes.push(self.execute_on(replica, &sub)?);
        }
        Ok(outcomes)
    }
}

/// How op `i` of the original batch is answered by the waves.
enum Slot {
    /// Answered directly by outcome `index` of wave 1 on `replica`.
    Direct { replica: usize, index: usize },
    /// A rename split across replicas: wave 1's `Remove(from)` is
    /// outcome `remove_index` on `from_replica`; wave 2's `Create(to)`,
    /// sent iff the source existed, is outcome `create_index` on
    /// `to_replica`.
    SplitRename {
        from_replica: usize,
        remove_index: usize,
        to_replica: usize,
        create_index: Option<usize>,
    },
}

/// Executes `batch` across the fleet behind `transport`: partition by
/// fingerprint, run wave 1 on every involved replica, run wave 2 for
/// the split renames whose source existed, stitch outcomes back into
/// original op order. The waves are lists of [`Pick`]s into `batch`;
/// no path is cloned to plan.
///
/// Sub-batches inherit `batch`'s [`EntryPolicy`](ghba_core::EntryPolicy)
/// verbatim; deterministic policies (`Pinned`, `RoundRobin`) therefore
/// resolve identically on any [`BatchTransport`] running the same plan.
///
/// # Errors
///
/// Propagates the first transport failure.
pub fn execute_sharded<T: BatchTransport + ?Sized>(
    transport: &mut T,
    batch: &OpBatch,
) -> Result<Vec<OpOutcome>, WireError> {
    let replicas = transport.replica_count();
    assert!(replicas > 0, "a fleet needs at least one replica");

    // Wave 1: partition ops into per-replica pick lists.
    let mut wave1: Vec<Vec<Pick>> = vec![Vec::new(); replicas];
    let mut slots: Vec<Slot> = Vec::with_capacity(batch.len());
    for (i, op) in batch.ops().iter().enumerate() {
        let (replica, pick) = match op {
            MetadataOp::Create(key) | MetadataOp::Lookup(key) | MetadataOp::Remove(key) => {
                (replica_of(key, replicas), Pick::Op(i))
            }
            MetadataOp::Rename { from, to } => {
                let from_replica = replica_of(from, replicas);
                let to_replica = replica_of(to, replicas);
                if from_replica == to_replica {
                    (from_replica, Pick::Op(i))
                } else {
                    slots.push(Slot::SplitRename {
                        from_replica,
                        remove_index: wave1[from_replica].len(),
                        to_replica,
                        create_index: None,
                    });
                    wave1[from_replica].push(Pick::RemoveFrom(i));
                    continue;
                }
            }
        };
        slots.push(Slot::Direct {
            replica,
            index: wave1[replica].len(),
        });
        wave1[replica].push(pick);
    }
    let wave1 = transport.execute_wave(batch, &wave1)?;

    // Wave 2: conditional creates for the split renames whose source
    // existed; skipped when none did.
    let mut wave2: Vec<Vec<Pick>> = Vec::new();
    for (i, slot) in slots.iter_mut().enumerate() {
        let Slot::SplitRename {
            from_replica,
            remove_index,
            to_replica,
            create_index,
        } = slot
        else {
            continue;
        };
        let OpOutcome::Removed { home } = &wave1[*from_replica][*remove_index] else {
            return Err(WireError::Protocol {
                detail: format!(
                    "replica {from_replica} answered a Remove with a non-Removed outcome"
                ),
            });
        };
        if home.is_some() {
            if wave2.is_empty() {
                wave2 = vec![Vec::new(); replicas];
            }
            *create_index = Some(wave2[*to_replica].len());
            wave2[*to_replica].push(Pick::CreateTo(i));
        }
    }
    let wave2 = if wave2.is_empty() {
        Vec::new()
    } else {
        transport.execute_wave(batch, &wave2)?
    };

    // Stitch.
    let mut outcomes: Vec<OpOutcome> = Vec::with_capacity(batch.len());
    for slot in &slots {
        match *slot {
            Slot::Direct { replica, index } => outcomes.push(wave1[replica][index].clone()),
            Slot::SplitRename {
                from_replica,
                remove_index,
                to_replica,
                create_index,
            } => {
                let OpOutcome::Removed { home: old_home } = wave1[from_replica][remove_index]
                else {
                    unreachable!("checked while planning wave 2");
                };
                let new_home = match create_index {
                    None => None,
                    Some(index) => {
                        let OpOutcome::Created { home } = wave2[to_replica][index] else {
                            return Err(WireError::Protocol {
                                detail: format!(
                                    "replica {to_replica} answered a Create with a non-Created \
                                     outcome"
                                ),
                            });
                        };
                        Some(home)
                    }
                };
                outcomes.push(OpOutcome::Renamed { old_home, new_home });
            }
        }
    }
    Ok(outcomes)
}

/// The in-process fleet: `R` independent [`GhbaCluster`]s, one per
/// shard, with seeds derived by [`replica_config`].
///
/// This is the loopback end-to-end tests' **ground truth**: the same
/// batches routed through [`execute_sharded`] over this transport must
/// produce bit-identical outcomes to the TCP deployment, because the
/// per-replica clusters are constructed identically and the plan is the
/// same code.
///
/// # Examples
///
/// ```
/// use ghba_core::{EntryPolicy, GhbaConfig, OpBatch};
/// use ghba_net::{execute_sharded, Federation};
///
/// let mut fleet = Federation::new(&GhbaConfig::default().with_filter_capacity(1_000), 3, 4);
/// let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
/// batch.push_create("/a/b");
/// batch.push_lookup("/a/b");
/// let outcomes = execute_sharded(&mut fleet, &batch).unwrap();
/// assert_eq!(outcomes[1].home(), outcomes[0].home());
/// ```
#[derive(Debug)]
pub struct Federation {
    clusters: Vec<GhbaCluster>,
}

impl Federation {
    /// Builds a fleet of `replicas` clusters with `servers` MDSs each.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` (cluster construction panics on
    /// `servers == 0`).
    #[must_use]
    pub fn new(base: &GhbaConfig, replicas: usize, servers: usize) -> Self {
        assert!(replicas > 0, "a fleet needs at least one replica");
        Federation {
            clusters: (0..replicas)
                .map(|r| GhbaCluster::with_servers(replica_config(base, r), servers))
                .collect(),
        }
    }

    /// Shard `replica`'s cluster.
    #[must_use]
    pub fn cluster(&self, replica: usize) -> &GhbaCluster {
        &self.clusters[replica]
    }

    /// Shard `replica`'s cluster, mutably (drains, reconfiguration).
    pub fn cluster_mut(&mut self, replica: usize) -> &mut GhbaCluster {
        &mut self.clusters[replica]
    }

    /// Drains every cluster's concurrent write shards and flushes all
    /// pending filter publishes — the in-process twin of broadcasting
    /// [`NetMessage::Drain`](crate::proto::NetMessage::Drain) to the
    /// fleet.
    pub fn drain_all(&mut self) {
        for cluster in &mut self.clusters {
            cluster.drain_concurrent();
            let _ = cluster.flush_all_updates();
        }
    }
}

impl BatchTransport for Federation {
    fn replica_count(&self) -> usize {
        self.clusters.len()
    }

    fn execute_on(&mut self, replica: usize, batch: &OpBatch) -> Result<Vec<OpOutcome>, WireError> {
        Ok(self.clusters[replica].execute_concurrent(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghba_core::EntryPolicy;

    fn config() -> GhbaConfig {
        GhbaConfig::default()
            .with_filter_capacity(10_000)
            .with_lru_capacity(0)
    }

    fn fleet() -> Federation {
        Federation::new(&config(), 3, 4)
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for i in 0..200 {
            let key = PathKey::new(format!("/d/f{i}"));
            let r = replica_of(&key, 3);
            assert!(r < 3);
            assert_eq!(r, replica_of(&key, 3));
        }
    }

    #[test]
    fn replica_configs_diverge_by_seed_only() {
        let base = config();
        let a = replica_config(&base, 0);
        let b = replica_config(&base, 1);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.seed, base.seed);
        assert_eq!(a.write_shards, base.write_shards);
    }

    #[test]
    fn create_then_lookup_round_trips_through_the_plan() {
        let mut fleet = fleet();
        let mut batch = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
        for i in 0..50 {
            batch.push_create(format!("/w/f{i}"));
        }
        let created = execute_sharded(&mut fleet, &batch).unwrap();
        fleet.drain_all();
        let mut reads = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
        for i in 0..50 {
            reads.push_lookup(format!("/w/f{i}"));
        }
        let resolved = execute_sharded(&mut fleet, &reads).unwrap();
        for (c, r) in created.iter().zip(&resolved) {
            assert_eq!(r.home(), c.home(), "lookup disagrees with create");
        }
    }

    #[test]
    fn cross_replica_rename_migrates_and_stitches() {
        let mut fleet = fleet();
        // Find a pair of paths landing on different replicas.
        let from = PathKey::new("/mv/src");
        let to = (0..1_000)
            .map(|i| PathKey::new(format!("/mv/dst{i}")))
            .find(|to| replica_of(to, 3) != replica_of(&from, 3))
            .expect("some path lands elsewhere");
        let mut setup = OpBatch::new().with_entry(EntryPolicy::Pinned(ghba_core::MdsId(0)));
        setup.push_create(from.path());
        execute_sharded(&mut fleet, &setup).unwrap();
        fleet.drain_all();

        let mut mv = OpBatch::new().with_entry(EntryPolicy::Pinned(ghba_core::MdsId(1)));
        mv.push(MetadataOp::Rename {
            from: from.clone(),
            to: to.clone(),
        });
        let outcomes = execute_sharded(&mut fleet, &mv).unwrap();
        let OpOutcome::Renamed { old_home, new_home } = outcomes[0] else {
            panic!("rename answered {:?}", outcomes[0]);
        };
        assert!(old_home.is_some(), "source existed");
        assert_eq!(new_home, Some(ghba_core::MdsId(1)), "pinned new home");
        fleet.drain_all();

        // The destination now resolves on its replica; the source is gone.
        let to_replica = replica_of(&to, 3);
        assert!(fleet
            .cluster(to_replica)
            .mds(ghba_core::MdsId(1))
            .expect("server exists")
            .stores(to.path()));
        let from_replica = replica_of(&from, 3);
        let from_cluster = fleet.cluster(from_replica);
        assert!(from_cluster
            .server_ids()
            .iter()
            .all(|&id| !from_cluster.mds(id).unwrap().stores(from.path())));
    }

    #[test]
    fn rename_of_absent_source_is_a_noop_everywhere() {
        let mut fleet = fleet();
        let from = PathKey::new("/ghost/src");
        let to = (0..1_000)
            .map(|i| PathKey::new(format!("/ghost/dst{i}")))
            .find(|to| replica_of(to, 3) != replica_of(&from, 3))
            .expect("some path lands elsewhere");
        let mut mv = OpBatch::new().with_entry(EntryPolicy::RoundRobin { start: 0 });
        mv.push(MetadataOp::Rename {
            from: from.clone(),
            to: to.clone(),
        });
        let outcomes = execute_sharded(&mut fleet, &mv).unwrap();
        assert_eq!(
            outcomes[0],
            OpOutcome::Renamed {
                old_home: None,
                new_home: None
            }
        );
    }

    #[test]
    fn empty_batch_executes_nowhere() {
        let mut fleet = fleet();
        let outcomes = execute_sharded(&mut fleet, &OpBatch::new()).unwrap();
        assert!(outcomes.is_empty());
    }
}
