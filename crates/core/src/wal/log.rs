//! The log itself: [`Wal`], the one place the durability path touches
//! the filesystem (open and scan, append, sync, the checkpoint's
//! tmp-write, rename and directory sync, and truncation).

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use super::checkpoint::{CheckpointView, ServerView};
use super::record::{decode_body, unframe, write_record};
use super::{Checkpoint, SyncPolicy, WalError, WalOptions, WalRecord, MAX_FRAME_BYTES};
use crate::concurrent::WriteRecord;

/// Log and checkpoint file names within a WAL directory.
pub(super) const LOG_FILE: &str = "wal.log";
pub(super) const CKPT_FILE: &str = "checkpoint.bin";
pub(super) const CKPT_TMP: &str = "checkpoint.tmp";

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// The installed checkpoint, if one exists.
    pub checkpoint: Option<Checkpoint>,
    /// Every surviving log record, ascending by sequence (possibly
    /// including records at or below the checkpoint watermark, when a
    /// crash landed between checkpoint install and log truncation).
    pub records: Vec<WalRecord>,
    /// Bytes of torn/corrupt tail that were truncated away on open.
    pub truncated_bytes: u64,
}

/// An open write-ahead log (one directory: `wal.log` +
/// `checkpoint.bin`). Attach to a cluster with
/// [`GhbaCluster::attach_wal`](crate::GhbaCluster::attach_wal) or obtain
/// one already replayed via
/// [`GhbaCluster::recover`](crate::GhbaCluster::recover).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    log: File,
    next_seq: u64,
    options: WalOptions,
    last_sync: Instant,
    /// Something was appended since the last sync.
    unsynced: bool,
    appended_since_checkpoint: u64,
    /// The one encode buffer: every record and checkpoint frame is
    /// built here in place and written from here, so an append
    /// allocates nothing once it has grown to a drain's size (and it
    /// keeps the size of the largest checkpoint installed through it).
    buf: Vec<u8>,
}

impl Wal {
    /// Opens (creating if needed) the WAL directory, reads the installed
    /// checkpoint, scans the log — truncating any torn or corrupt tail
    /// to the last complete, CRC-valid, sequence-monotonic record — and
    /// returns the log positioned for appending plus everything
    /// recovered.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on filesystem failures; [`WalError::Corrupt`]
    /// when an *installed checkpoint* is unreadable (a torn log tail is
    /// recovered from, but a damaged checkpoint has nothing to recover
    /// with and must not be silently ignored), or when a complete,
    /// CRC-valid log frame does not decode (another format version, an
    /// unknown kind or op): that is not tail damage, so nothing is
    /// truncated and `wal.log` is left byte for byte as found.
    pub fn open(dir: &Path, options: WalOptions) -> Result<(Wal, WalRecovery), WalError> {
        fs::create_dir_all(dir)?;
        // A leftover tmp file is a checkpoint install that never reached
        // its rename: the installed checkpoint (if any) is still intact.
        let _ = fs::remove_file(dir.join(CKPT_TMP));
        let checkpoint = match fs::read(dir.join(CKPT_FILE)) {
            Ok(bytes) => Some(Checkpoint::from_bytes(&bytes)?),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => None,
            Err(err) => return Err(err.into()),
        };
        let watermark = checkpoint.as_ref().map_or(0, |c| c.wal_seq);
        let log_path = dir.join(LOG_FILE);
        let bytes = match fs::read(&log_path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(err.into()),
        };
        let mut records = Vec::new();
        let mut good = 0usize;
        let mut prev_seq: Option<u64> = None;
        while good < bytes.len() {
            // A frame that is short, over-long or fails its checksum is a
            // torn tail (crash mid-append) or tail corruption: recover
            // to the last complete record, never panic.
            let Ok((body, consumed)) = unframe(&bytes[good..]) else {
                break;
            };
            // A complete, CRC-valid frame that does not decode was
            // written that way (another format version, an unknown
            // kind): refuse it and leave the log as it is.
            let record = decode_body(body)?;
            if prev_seq.is_some_and(|prev| record.seq <= prev) {
                // Sequence regressed: everything from here on is
                // stale or scrambled — treat as tail damage.
                break;
            }
            prev_seq = Some(record.seq);
            records.push(record);
            good += consumed;
        }
        let truncated_bytes = (bytes.len() - good) as u64;
        let mut log = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&log_path)?;
        if truncated_bytes > 0 {
            log.set_len(good as u64)?;
            log.sync_data()?;
        }
        log.seek(SeekFrom::Start(good as u64))?;
        let last_seq = records.last().map_or(watermark, |r| r.seq.max(watermark));
        let appended_since_checkpoint = records.iter().filter(|r| r.seq > watermark).count() as u64;
        let wal = Wal {
            dir: dir.to_path_buf(),
            log,
            next_seq: last_seq + 1,
            options,
            last_sync: Instant::now(),
            unsynced: false,
            appended_since_checkpoint,
            buf: Vec::new(),
        };
        Ok((
            wal,
            WalRecovery {
                checkpoint,
                records,
                truncated_bytes,
            },
        ))
    }

    /// The directory this log lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next append will use.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The sequence number of the last appended (or recovered) record;
    /// `0` when the log has never held one.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Appends one drain record (see [`WalEvent::Drain`](super::WalEvent::Drain)).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the append or sync fails;
    /// [`WalError::TooLarge`] (nothing written) for a batch beyond the
    /// frame cap.
    pub fn append_drain(&mut self, records: &[WriteRecord]) -> Result<u64, WalError> {
        self.append(Some(records))
    }

    /// Appends one flush-barrier record (see
    /// [`WalEvent::FlushAll`](super::WalEvent::FlushAll)).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the append or sync fails.
    pub fn append_flush(&mut self) -> Result<u64, WalError> {
        self.append(None)
    }

    fn append(&mut self, drain: Option<&[WriteRecord]>) -> Result<u64, WalError> {
        let seq = self.next_seq;
        self.buf.clear();
        write_record(&mut self.buf, seq, drain)?;
        self.log.write_all(&self.buf)?;
        self.unsynced = true;
        match self.options.sync {
            SyncPolicy::EveryBatch => self.sync()?,
            SyncPolicy::GroupCommit(_) => self.sync_if_due()?,
            SyncPolicy::None => {}
        }
        self.next_seq += 1;
        self.appended_since_checkpoint += 1;
        Ok(seq)
    }

    /// Forces everything appended so far to stable storage, whatever
    /// the sync policy.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.log.sync_data()?;
        self.last_sync = Instant::now();
        self.unsynced = false;
        Ok(())
    }

    /// The group-commit deadline, checked without an append: under
    /// [`SyncPolicy::GroupCommit`] only, syncs when something appended
    /// is still unsynced and the interval has passed since the last
    /// sync; a no-op otherwise. An idle flush calls it, so a tail that
    /// stopped growing still reaches disk one interval (plus one caller
    /// tick) after it was written.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the sync fails.
    pub fn sync_if_due(&mut self) -> Result<(), WalError> {
        match self.options.sync {
            SyncPolicy::GroupCommit(interval)
                if self.unsynced && self.last_sync.elapsed() >= interval =>
            {
                self.sync()
            }
            _ => Ok(()),
        }
    }

    /// Whether the automatic-checkpoint threshold has been reached.
    #[must_use]
    pub fn checkpoint_due(&self) -> bool {
        self.options.checkpoint_every > 0
            && self.appended_since_checkpoint >= self.options.checkpoint_every
    }

    /// Records appended (or recovered) above the installed checkpoint's
    /// watermark — the length of the replay tail a crash right now
    /// would incur.
    #[must_use]
    pub fn tail_len(&self) -> u64 {
        self.appended_since_checkpoint
    }

    /// Atomically installs `checkpoint` (tmp → fsync → rename → dir
    /// sync) and truncates the log. A crash between the rename and the
    /// truncation is safe: recovery skips records at or below the
    /// checkpoint's watermark.
    ///
    /// # Errors
    ///
    /// [`WalError::TooLarge`] for a checkpoint beyond the frame cap —
    /// refused before any file is touched, so the installed checkpoint
    /// and the full log still recover; [`WalError::Io`] when any step
    /// fails (an installed older checkpoint stays intact in that case).
    pub fn install_checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<(), WalError> {
        self.install_view(checkpoint.view(), MAX_FRAME_BYTES)
    }

    /// [`install_checkpoint`](Wal::install_checkpoint) of a borrowed
    /// view, encoded into the log's own buffer under frame cap `cap`.
    pub(super) fn install_view<'a>(
        &mut self,
        view: CheckpointView<'a, impl ExactSizeIterator<Item = ServerView<'a>>>,
        cap: usize,
    ) -> Result<(), WalError> {
        self.buf.clear();
        view.encode_into(&mut self.buf, cap)?;
        let tmp = self.dir.join(CKPT_TMP);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&self.buf)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(CKPT_FILE))?;
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        self.log.set_len(0)?;
        self.log.seek(SeekFrom::Start(0))?;
        self.sync()?;
        self.appended_since_checkpoint = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::{EntryPolicy, GhbaCluster, GhbaConfig, MdsId, MetadataService, OpBatch};

    /// An idle flush is the group-commit deadline: after a logged drain
    /// whose sync the interval deferred, a flush with nothing to publish
    /// appends nothing, syncs nothing while the interval runs, and syncs
    /// the tail once it has passed.
    #[test]
    fn an_idle_flush_syncs_a_due_group_commit_tail() {
        let dir = std::env::temp_dir().join(format!("ghba-wal-unit-{}-tick", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fn attached(cluster: &mut GhbaCluster) -> &mut Wal {
            cluster.wal.as_deref_mut().expect("attached")
        }
        let interval = Duration::from_secs(60);
        let options = WalOptions {
            sync: SyncPolicy::GroupCommit(interval),
            checkpoint_every: 0,
        };
        let (wal, _) = Wal::open(&dir, options).expect("fresh wal");
        let mut cluster = GhbaCluster::with_servers(GhbaConfig::default().with_lru_capacity(0), 4);
        cluster.attach_wal(wal);
        let mut batch = OpBatch::new().with_entry(EntryPolicy::Pinned(MdsId(1)));
        batch.push_create("/tick/a");
        cluster.execute_concurrent(&batch);
        cluster.flush_all_updates();
        assert_eq!(attached(&mut cluster).next_seq(), 3, "the drain, the flush");
        assert!(attached(&mut cluster).unsynced, "inside the interval");

        cluster.flush_all_updates();
        assert_eq!(attached(&mut cluster).next_seq(), 3, "an idle flush");
        assert!(attached(&mut cluster).unsynced, "still inside the interval");

        let due = Instant::now();
        attached(&mut cluster).last_sync = due.checked_sub(interval).expect("up a minute");
        cluster.flush_all_updates();
        let wal = attached(&mut cluster);
        assert_eq!(wal.next_seq(), 3, "an idle flush logs nothing");
        assert!(!wal.unsynced, "the due tail was synced");
        assert!(wal.last_sync >= due);
        let _ = fs::remove_dir_all(&dir);
    }
}
