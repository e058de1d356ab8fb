//! The checkpoint: its owned form ([`Checkpoint`]), the borrowed view
//! its one layout encoder reads (of a live cluster or of an owned
//! checkpoint), and its decoder.

use std::borrow::Cow;

use ghba_bloom::BloomFilter;

use super::record::{unframe, write_frame};
use super::{WalError, MAX_FRAME_BYTES, WAL_VERSION};
use crate::cluster::{Cluster, Topology};
use crate::codec::{ByteReader, CodecError};
use crate::config::GhbaConfig;
use crate::ids::{GroupId, MdsId};
use crate::mds::Mds;
use crate::metadata::CompactPath;

/// Magic prefix of the checkpoint body.
const CKPT_MAGIC: [u8; 4] = *b"GCKP";

/// The configuration facts a checkpoint was captured under. Recovery
/// refuses a checkpoint whose guard differs from the recovering
/// cluster's — replaying into a cluster with a different seed or filter
/// geometry would silently produce wrong filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigGuard {
    /// Cluster seed (drives every filter family).
    pub seed: u64,
    /// `max_group_size` (drives the deterministic startup shape).
    pub max_group_size: u64,
    /// Published-filter width in bits.
    pub filter_bits: u64,
    /// Published-filter hash count.
    pub filter_hashes: u32,
    /// Namespace write-shard count.
    pub write_shards: u64,
}

impl ConfigGuard {
    pub(super) fn of(config: &GhbaConfig) -> ConfigGuard {
        ConfigGuard {
            seed: config.seed,
            max_group_size: config.max_group_size as u64,
            filter_bits: config.filter_bits() as u64,
            filter_hashes: config.filter_hashes(),
            write_shards: config.write_shards as u64,
        }
    }
}

/// One group's durable shape: membership plus its configuration epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupShape {
    /// The group id.
    pub gid: GroupId,
    /// The group's [`GroupEpoch`](crate::GroupEpoch) at capture time.
    pub epoch: u64,
    /// Member servers, in group order.
    pub members: Vec<MdsId>,
}

/// One server's durable state: its namespace (paths only), its
/// published filter bytes, and the publish-cadence counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerState {
    /// The server id.
    pub id: MdsId,
    /// Mutations since the last publish (drift-gate cadence state).
    pub since_publish: u64,
    /// Mutations since the last exact drift check.
    pub since_drift: u64,
    /// Every stored path, in `(lane, path)` order — `lane` being the
    /// first lane of the path's [`Fingerprint`](ghba_bloom::Fingerprint),
    /// the one its store is keyed by. No lane is stored: restore hashes
    /// each path once.
    pub files: Vec<CompactPath>,
    /// [`BloomFilter::to_bytes`] of the published filter.
    pub published: Vec<u8>,
}

/// A full durable snapshot of a cluster: namespace shards, published
/// filter slab, membership/group shape, and the WAL sequence watermark
/// up to which the log is already folded in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The cluster's [`MembershipEpoch`](crate::MembershipEpoch) at
    /// capture time.
    pub epoch: u64,
    /// Records at or below this sequence number are part of the
    /// checkpoint; replay starts above it.
    pub wal_seq: u64,
    /// The configuration the checkpoint is only valid under.
    pub guard: ConfigGuard,
    /// One past the highest live group id (0 with no group): every
    /// shape's id is below it. Group ids are reused, so it is at most the
    /// number of servers.
    pub group_id_bound: u16,
    /// Every live group's shape, ascending by id.
    pub groups: Vec<GroupShape>,
    /// Every server's durable state, ascending by id: its paths in
    /// `(lane, path)` order, no fingerprint lane stored.
    pub servers: Vec<ServerState>,
}

/// A server's published filter as the checkpoint encoder reads it.
enum PublishedView<'a> {
    /// The server's column, read out of the published slab with every
    /// other one in one pass, serialized straight into the frame.
    Filter(BloomFilter),
    /// Already [`BloomFilter::to_bytes`] (an owned [`ServerState`]).
    Bytes(&'a [u8]),
}

/// One server as the checkpoint encoder reads it, borrowed from a live
/// [`Mds`] or from an owned [`ServerState`].
pub(super) struct ServerView<'a> {
    id: MdsId,
    since_publish: u64,
    since_drift: u64,
    /// Every stored path, in `(lane, path)` order.
    files: Vec<&'a [u8]>,
    published: PublishedView<'a>,
}

impl<'a> ServerView<'a> {
    /// Sorts the store by the lane it is keyed by, then the path bytes
    /// (`str`'s order is byte order): integer compares, a path read only
    /// when two lanes tie, and no path hashed or checked.
    fn of_mds(mds: &'a Mds, published: BloomFilter) -> Self {
        let mut keyed: Vec<(u64, &[u8])> = mds.store().keyed_paths().collect();
        keyed.sort_unstable();
        let (since_publish, since_drift) = mds.durable_counters();
        ServerView {
            id: mds.id(),
            since_publish,
            since_drift,
            files: keyed.into_iter().map(|(_, path)| path).collect(),
            published: PublishedView::Filter(published),
        }
    }

    fn of_state(state: &'a ServerState) -> Self {
        ServerView {
            id: state.id,
            since_publish: state.since_publish,
            since_drift: state.since_drift,
            files: state.files.iter().map(CompactPath::as_bytes).collect(),
            published: PublishedView::Bytes(&state.published),
        }
    }

    fn into_owned(self) -> ServerState {
        ServerState {
            id: self.id,
            since_publish: self.since_publish,
            since_drift: self.since_drift,
            files: self
                .files
                .into_iter()
                .map(|bytes| {
                    CompactPath::from(core::str::from_utf8(bytes).expect("a stored path is UTF-8"))
                })
                .collect(),
            published: match self.published {
                PublishedView::Filter(filter) => filter.to_bytes(),
                PublishedView::Bytes(bytes) => bytes.to_vec(),
            },
        }
    }
}

/// A checkpoint as its one layout encoder reads it: a borrowed view of
/// either a live cluster (the serving path — no path `String`, filter
/// or body is copied on the way into the frame) or an owned
/// [`Checkpoint`]. `servers` yields one [`ServerView`] at a time,
/// ascending by id, so only one server's sorted path list exists at once.
pub(super) struct CheckpointView<'a, S> {
    epoch: u64,
    wal_seq: u64,
    guard: ConfigGuard,
    group_id_bound: u16,
    groups: Cow<'a, [GroupShape]>,
    servers: S,
}

impl<'a, S: ExactSizeIterator<Item = ServerView<'a>>> CheckpointView<'a, S> {
    /// Appends the checkpoint to `out` as laid out on disk: one CRC
    /// frame around `["GCKP"][version][epoch][wal_seq][guard][shape]
    /// [servers]`. The only place that knows the layout.
    ///
    /// # Errors
    ///
    /// [`WalError::TooLarge`] when the body exceeds `cap` (`out` is left
    /// as it was).
    pub(super) fn encode_into(self, out: &mut Vec<u8>, cap: usize) -> Result<(), WalError> {
        write_frame(out, cap, |w| {
            w.bytes(&CKPT_MAGIC);
            w.u16(WAL_VERSION);
            w.u64(self.epoch);
            w.u64(self.wal_seq);
            w.u64(self.guard.seed);
            w.u64(self.guard.max_group_size);
            w.u64(self.guard.filter_bits);
            w.u32(self.guard.filter_hashes);
            w.u64(self.guard.write_shards);
            w.u16(self.group_id_bound);
            w.list(self.groups.iter(), |w, group| {
                w.u16(group.gid.0);
                w.u64(group.epoch);
                w.list(&group.members, |w, member| w.u16(member.0));
            });
            // A count over `u32::MAX` is a body over the cap, refused by
            // the frame writer.
            w.u32(self.servers.len() as u32);
            for server in self.servers {
                w.u16(server.id.0);
                w.u64(server.since_publish);
                w.u64(server.since_drift);
                w.list(server.files, |w, path| w.byte_str(path));
                // Length-prefixed like a frame: reserve, write, patch.
                let len = w.reserve_len(0);
                match &server.published {
                    PublishedView::Filter(filter) => filter.write_bytes_into(w.buffer()),
                    PublishedView::Bytes(bytes) => w.bytes(bytes),
                }
                w.patch_len(len, cap)?;
            }
            Ok(())
        })
    }

    pub(super) fn into_owned(self) -> Checkpoint {
        Checkpoint {
            epoch: self.epoch,
            wal_seq: self.wal_seq,
            guard: self.guard,
            group_id_bound: self.group_id_bound,
            groups: self.groups.into_owned(),
            servers: self.servers.map(ServerView::into_owned).collect(),
        }
    }
}

impl<T: Topology> Cluster<T> {
    /// The checkpoint view of the current state (which must have no
    /// pending concurrent writes — the owner drains before calling).
    /// Every published column is read in one transposed pass over the
    /// slab ([`SharedShapeArray::extract_filters`], the inverse of the
    /// restore's load).
    ///
    /// [`SharedShapeArray::extract_filters`]: ghba_bloom::SharedShapeArray::extract_filters
    pub(super) fn checkpoint_view(
        &self,
        wal_seq: u64,
    ) -> CheckpointView<'_, impl ExactSizeIterator<Item = ServerView<'_>>> {
        let snap = self.routes.pin();
        let published = snap
            .slab
            .extract_filters(self.mdss.keys().copied())
            .expect("every server of a durable cluster has a published column");
        let groups = snap
            .groups
            .iter()
            .map(|(&gid, group)| GroupShape {
                gid,
                epoch: snap.group_epoch(gid).0,
                members: group.members().to_vec(),
            })
            .collect();
        CheckpointView {
            epoch: snap.epoch.0,
            wal_seq,
            guard: ConfigGuard::of(&self.config),
            group_id_bound: snap.groups.keys().last().map_or(0, |gid| gid.0 + 1),
            groups: Cow::Owned(groups),
            servers: self
                .mdss
                .values()
                .zip(published)
                .map(|(mds, filter)| ServerView::of_mds(mds, filter)),
        }
    }
}

impl Checkpoint {
    pub(super) fn view(&self) -> CheckpointView<'_, impl ExactSizeIterator<Item = ServerView<'_>>> {
        CheckpointView {
            epoch: self.epoch,
            wal_seq: self.wal_seq,
            guard: self.guard.clone(),
            group_id_bound: self.group_id_bound,
            groups: Cow::Borrowed(&self.groups),
            servers: self.servers.iter().map(ServerView::of_state),
        }
    }

    /// Serializes the checkpoint as laid out on disk (one CRC frame; the
    /// encoder the serving path streams a live cluster through).
    ///
    /// # Panics
    ///
    /// Panics if the body exceeds the frame cap (256 MB);
    /// [`Wal::install_checkpoint`](super::Wal::install_checkpoint)
    /// returns the typed error instead.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.view()
            .encode_into(&mut out, MAX_FRAME_BYTES)
            .expect("checkpoint fits one frame");
        out
    }

    /// Decodes a checkpoint from [`to_bytes`](Checkpoint::to_bytes)
    /// output.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] on any malformed byte sequence (bit flips
    /// are caught by the CRC, logical truncation by the reader).
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, WalError> {
        let (body, consumed) = unframe(bytes)?;
        if consumed != bytes.len() {
            return Err(WalError::Corrupt("trailing bytes after checkpoint".into()));
        }
        let mut r = ByteReader::new(body);
        if r.take(4)? != CKPT_MAGIC {
            return Err(WalError::Corrupt("bad checkpoint magic".into()));
        }
        let version = r.u16()?;
        if version != WAL_VERSION {
            return Err(WalError::Corrupt(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let epoch = r.u64()?;
        let wal_seq = r.u64()?;
        let guard = ConfigGuard {
            seed: r.u64()?,
            max_group_size: r.u64()?,
            filter_bits: r.u64()?,
            filter_hashes: r.u32()?,
            write_shards: r.u64()?,
        };
        let group_id_bound = r.u16()?;
        // Struct fields are read in the order they are written.
        let groups = r.list(1 << 16, |r| {
            Ok::<_, CodecError>(GroupShape {
                gid: GroupId(r.u16()?),
                epoch: r.u64()?,
                members: r.list(1 << 16, |r| r.u16().map(MdsId))?,
            })
        })?;
        let servers = r.list(1 << 16, |r| {
            Ok::<_, CodecError>(ServerState {
                id: MdsId(r.u16()?),
                since_publish: r.u64()?,
                since_drift: r.u64()?,
                files: r.list(1 << 16, |r| r.str_ref().map(CompactPath::from))?,
                published: r.byte_str()?.to_vec(),
            })
        })?;
        r.finish()?;
        Ok(Checkpoint {
            epoch,
            wal_seq,
            guard,
            group_id_bound,
            groups,
            servers,
        })
    }
}
