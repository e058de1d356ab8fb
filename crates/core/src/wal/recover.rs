//! The cluster side of durability: attach and detach a [`Wal`], install
//! checkpoints through it, and rebuild a cluster from a WAL directory
//! ([`GhbaCluster::recover`]).

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use ghba_bloom::BloomFilter;

use super::checkpoint::ConfigGuard;
use super::{Checkpoint, Wal, WalError, WalEvent, WalOptions, MAX_FRAME_BYTES};
use crate::cluster::{Cluster, GhbaCluster, Topology};
use crate::concurrent::WriteKind;
use crate::config::GhbaConfig;
use crate::group::Group;
use crate::ids::{GroupEpoch, GroupId, MdsId, MembershipEpoch};
use crate::mds::published_shape;
use crate::snapshot::{RouteEdit, SlabOp};

impl<T: Topology> Cluster<T> {
    /// Installs an automatic checkpoint when the attached WAL's
    /// threshold has been reached (called at the end of every drain,
    /// when the cluster is momentarily clean).
    pub(crate) fn maybe_checkpoint(&mut self) {
        if self.wal.as_ref().is_some_and(|wal| wal.checkpoint_due()) {
            self.checkpoint_attached(MAX_FRAME_BYTES)
                .expect("checkpoint install failed: the log can no longer be bounded");
        }
    }

    /// Streams the current state (no pending concurrent writes) through
    /// the attached WAL as its new checkpoint, under frame cap `cap`;
    /// `Ok(false)` without a WAL.
    fn checkpoint_attached(&mut self, cap: usize) -> Result<bool, WalError> {
        let Some(mut wal) = self.wal.take() else {
            return Ok(false);
        };
        let result = wal.install_view(self.checkpoint_view(wal.last_seq()), cap);
        self.wal = Some(wal);
        result.map(|()| true)
    }
}

impl GhbaCluster {
    /// Attaches an open WAL: every subsequent shard-log drain and flush
    /// barrier is logged (and synced per the WAL's policy) before its
    /// effects apply. Pending concurrent writes are drained (unlogged —
    /// they pre-date the attachment) first.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.maybe_drain();
        self.wal = Some(Box::new(wal));
    }

    /// Detaches and returns the WAL, draining (and logging) any pending
    /// writes first.
    pub fn detach_wal(&mut self) -> Option<Wal> {
        self.maybe_drain();
        self.wal.take().map(|wal| *wal)
    }

    /// The attached WAL, if any.
    #[must_use]
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_deref()
    }

    /// Captures a durable snapshot of the current state (draining
    /// pending concurrent writes first). The watermark is the last
    /// WAL sequence when a WAL is attached, `0` otherwise.
    pub fn capture_checkpoint(&mut self) -> Checkpoint {
        self.maybe_drain();
        let wal_seq = self.wal.as_ref().map_or(0, |wal| wal.last_seq());
        self.checkpoint_view(wal_seq).into_owned()
    }

    /// Captures and installs a checkpoint through the attached WAL
    /// (truncating the log). Returns `false` (and does nothing) without
    /// an attached WAL.
    ///
    /// # Errors
    ///
    /// Propagates [`WalError::Io`] and [`WalError::TooLarge`] from the
    /// install (see [`Wal::install_checkpoint`]).
    pub fn checkpoint_now(&mut self) -> Result<bool, WalError> {
        self.maybe_drain();
        self.checkpoint_attached(MAX_FRAME_BYTES)
    }

    /// Rebuilds a serving cluster from a WAL directory: construct the
    /// deterministic startup shape, apply the installed checkpoint (if
    /// any), replay the log tail above the watermark through the same
    /// drain/flush paths original execution took, and attach the WAL
    /// for continued logging. An empty or absent directory yields a
    /// fresh cluster with a fresh log — first boot and restart share
    /// one entry point.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] for undecodable checkpoints, complete log
    /// frames that do not decode (see [`Wal::open`]) or records that
    /// name unknown servers; [`WalError::ConfigMismatch`] when the
    /// checkpoint's config guard or server roster differs from
    /// `config`/`servers`; [`WalError::Io`] on filesystem failures.
    /// Torn log tails are not errors (they truncate cleanly).
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn recover(
        config: GhbaConfig,
        servers: usize,
        dir: &Path,
        options: WalOptions,
    ) -> Result<GhbaCluster, WalError> {
        let (wal, recovery) = Wal::open(dir, options)?;
        let mut cluster = GhbaCluster::with_servers(config, servers);
        let watermark = recovery.checkpoint.as_ref().map_or(0, |c| c.wal_seq);
        if let Some(checkpoint) = recovery.checkpoint {
            cluster.restore_checkpoint(checkpoint)?;
        }
        for record in recovery.records {
            if record.seq <= watermark {
                continue;
            }
            cluster.replay_wal_event(record.event)?;
        }
        cluster.wal = Some(Box::new(wal));
        Ok(cluster)
    }

    fn restore_checkpoint(&mut self, checkpoint: Checkpoint) -> Result<(), WalError> {
        let guard = ConfigGuard::of(&self.config);
        if guard != checkpoint.guard {
            return Err(WalError::ConfigMismatch(format!(
                "checkpoint guard {:?} vs configured {:?}",
                checkpoint.guard, guard
            )));
        }
        let live_ids = self.server_ids();
        let ckpt_ids: Vec<MdsId> = checkpoint.servers.iter().map(|s| s.id).collect();
        if live_ids != ckpt_ids {
            return Err(WalError::ConfigMismatch(format!(
                "checkpoint rosters {ckpt_ids:?} vs configured {live_ids:?}"
            )));
        }
        let shape_matches = {
            let snap = self.routes.pin();
            checkpoint.epoch == snap.epoch.0
                && checkpoint.groups.len() == snap.groups.len()
                && checkpoint.groups.iter().all(|shape| {
                    snap.group_epoch(shape.gid).0 == shape.epoch
                        && snap
                            .groups
                            .get(&shape.gid)
                            .is_some_and(|live| live.members() == shape.members.as_slice())
                })
        };
        if !shape_matches {
            self.restore_group_shape(&checkpoint)?;
        }
        let expected_shape = published_shape(&self.config);
        let mut columns = Vec::with_capacity(checkpoint.servers.len());
        let mut live = Vec::with_capacity(checkpoint.servers.len());
        for state in checkpoint.servers {
            let published = BloomFilter::from_bytes(&state.published)
                .map_err(|err| WalError::Corrupt(format!("checkpoint filter: {err}")))?;
            if published.shape() != expected_shape {
                return Err(WalError::ConfigMismatch(
                    "checkpoint filter geometry differs from configuration".into(),
                ));
            }
            let mds = self.mdss.get_mut(&state.id).expect("roster validated");
            live.push((state.id, mds.restore_files(state.files, &self.rows)));
            mds.restore_counters(state.since_publish, state.since_drift);
            columns.push((state.id, published));
        }
        // Each slab takes its columns in one transposed pass over the
        // rows: the live slab the projections built while inserting
        // (dropped right after), the published slab the restored filters
        // (no epoch movement — a publish refreshes content under the
        // same layout).
        self.live
            .load_filters(live.iter().map(|(id, column)| (*id, column)))
            .expect("restored live columns match the live slab");
        drop(live);
        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes);
        edit.push_op(SlabOp::Load(columns));
        edit.commit();
        Ok(())
    }

    /// Restores a checkpointed group shape that differs from the
    /// deterministic startup shape (a controller reshaped the cluster
    /// before the capture): exact membership, group epochs and
    /// membership epoch; replica placement is rebuilt
    /// deterministically (see the module docs).
    fn restore_group_shape(&mut self, checkpoint: &Checkpoint) -> Result<(), WalError> {
        let mut seen: BTreeSet<MdsId> = BTreeSet::new();
        let mut gids: BTreeSet<GroupId> = BTreeSet::new();
        for shape in &checkpoint.groups {
            if shape.members.is_empty() {
                return Err(WalError::Corrupt(format!("empty group {}", shape.gid)));
            }
            if shape.gid.0 >= checkpoint.group_id_bound || !gids.insert(shape.gid) {
                return Err(WalError::Corrupt(format!(
                    "group {} is repeated or past the id bound",
                    shape.gid
                )));
            }
            for &member in &shape.members {
                if !seen.insert(member) {
                    return Err(WalError::Corrupt(format!(
                        "server {member} appears in two groups"
                    )));
                }
            }
        }
        if seen.iter().copied().collect::<Vec<_>>() != self.server_ids() {
            return Err(WalError::Corrupt(
                "group shape does not cover the server roster".into(),
            ));
        }
        let routes = Arc::clone(&self.routes);
        let mut edit = RouteEdit::begin(&routes);
        let old: Vec<GroupId> = edit.work.groups.keys().copied().collect();
        for gid in old {
            edit.remove_group(gid);
        }
        edit.work.group_of.clear();
        for shape in &checkpoint.groups {
            let mut group = Group::new(shape.gid);
            for &member in &shape.members {
                group.add_member(member);
                edit.work.group_of.insert(member, shape.gid);
            }
            edit.insert_group(group);
        }
        for shape in &checkpoint.groups {
            edit.rebuild_coverage(shape.gid);
        }
        edit.work.epoch = MembershipEpoch(checkpoint.epoch);
        for shape in &checkpoint.groups {
            edit.work
                .group_epochs
                .insert(shape.gid, GroupEpoch(shape.epoch));
        }
        edit.commit();
        Ok(())
    }

    /// Replays one logged event through the same paths the original
    /// execution took (the attached WAL must be `None` while replaying;
    /// [`recover`](GhbaCluster::recover) attaches it afterwards). The
    /// decoded records are consumed: a replayed create's path moves into
    /// its store exactly as a drained one's does.
    fn replay_wal_event(&mut self, event: WalEvent) -> Result<(), WalError> {
        match event {
            WalEvent::Drain { records } => {
                for record in &records {
                    if let WriteKind::Create(home) = record.kind {
                        if !self.mdss.contains_key(&home) {
                            return Err(WalError::Corrupt(format!(
                                "logged create targets unknown server {home}"
                            )));
                        }
                    }
                }
                self.apply_write_records(records);
            }
            WalEvent::FlushAll => {
                let _ = self.flush_all_updates();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use super::super::log::{CKPT_FILE, CKPT_TMP, LOG_FILE};
    use super::super::SyncPolicy;
    use super::*;
    use crate::{EntryPolicy, MetadataService, OpBatch};

    /// A refused checkpoint touches nothing: the installed checkpoint
    /// and the log tail above it are byte-identical afterwards, and the
    /// directory still recovers to the state before the attempt.
    #[test]
    fn a_refused_install_leaves_checkpoint_and_log_untouched() {
        let dir = std::env::temp_dir().join(format!("ghba-wal-unit-{}-cap", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = GhbaConfig::default()
            .with_filter_capacity(500)
            .with_lru_capacity(0);
        let options = WalOptions {
            sync: SyncPolicy::None,
            checkpoint_every: 0,
        };
        let (wal, _) = Wal::open(&dir, options).expect("fresh wal");
        let mut cluster = GhbaCluster::with_servers(config.clone(), 4);
        cluster.attach_wal(wal);
        let create = |cluster: &mut GhbaCluster, path: &str| {
            let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(0)));
            batch.push_create(path);
            cluster.execute_concurrent(&batch);
            cluster.drain_concurrent();
        };
        create(&mut cluster, "/cap/old");
        assert!(cluster.checkpoint_now().expect("first install"));
        create(&mut cluster, "/cap/tail");
        let read = |name: &str| fs::read(dir.join(name)).expect("file exists");
        let before = (read(CKPT_FILE), read(LOG_FILE));
        assert!(!before.1.is_empty(), "the log holds the tail record");

        assert!(matches!(
            cluster.checkpoint_attached(64),
            Err(WalError::TooLarge(_))
        ));
        let wal = cluster.detach_wal().expect("still attached");
        assert_eq!(wal.tail_len(), 1, "the tail is still owed a checkpoint");
        assert!(!dir.join(CKPT_TMP).exists());
        assert_eq!((read(CKPT_FILE), read(LOG_FILE)), before);

        let expected = cluster.capture_checkpoint();
        drop(wal);
        let mut recovered = GhbaCluster::recover(config, 4, &dir, options).expect("recovers");
        let mut state = recovered.capture_checkpoint();
        state.wal_seq = 0;
        assert_eq!(state, expected);
        let _ = fs::remove_dir_all(&dir);
    }
}
