//! Input generation: every path string and op of a run is a pure function
//! of `(workload, seed, scale)`, produced before the batches that use it
//! are timed.
//!
//! The generator is also the first half of the correctness oracle. It
//! tracks which files exist, so every op it emits carries its expected
//! result in its kind: a [`OpKind::LookupLive`] must resolve, a
//! [`OpKind::LookupMissing`] must not, a remove or rename always names a
//! live file. No op of any workload is expected to fail. The second half
//! ([`crate::oracle`]) learns the homes the system reports and checks
//! them.

use std::collections::VecDeque;

use ghba_simnet::DetRng;
use ghba_trace::Zipf;

use crate::metrics::Workload;

/// Zipf exponent of the read popularity distribution.
const ZIPF_S: f64 = 1.1;
/// Share of lookups that name a path which never existed.
const MISSING_SHARE: f64 = 0.02;
/// Recently written files kept for read-your-writes lookups.
const RECENT: usize = 256;
/// Marks "not live" in the id → position index.
const DEAD: u32 = u32::MAX;

/// What one op asks for, and thereby what it must answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Look up a file that exists: must resolve to its recorded home.
    LookupLive,
    /// Look up a path that does not exist (never created, or removed):
    /// must resolve nowhere.
    LookupMissing,
    /// Create a new file.
    Create,
    /// Remove a live file.
    Remove,
    /// Rename a live file to a new path.
    Rename,
}

/// One generated op. Paths live in the owning [`Segment`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// What the op does.
    pub kind: OpKind,
    /// File id of the primary path ([`MISSING_ID`] for never-created
    /// paths).
    pub id: u32,
    /// File id a rename moves to (unused otherwise).
    pub to_id: u32,
    path: (u32, u16),
    to_path: (u32, u16),
}

/// The id of paths that never existed.
pub const MISSING_ID: u32 = u32::MAX;

/// A run of generated batches: fixed batch length, paths in one arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Segment {
    arena: String,
    ops: Vec<OpSpec>,
    batch_len: usize,
}

impl Segment {
    fn new(batch_len: usize) -> Self {
        Segment {
            arena: String::new(),
            ops: Vec::new(),
            batch_len,
        }
    }

    fn intern(&mut self, path: &str) -> (u32, u16) {
        let at = self.arena.len() as u32;
        self.arena.push_str(path);
        (at, path.len() as u16)
    }

    fn push(&mut self, kind: OpKind, id: u32, path: &str) {
        let path = self.intern(path);
        self.ops.push(OpSpec {
            kind,
            id,
            to_id: MISSING_ID,
            path,
            to_path: (0, 0),
        });
    }

    fn push_rename(&mut self, id: u32, path: &str, to_id: u32, to: &str) {
        let path = self.intern(path);
        let to_path = self.intern(to);
        self.ops.push(OpSpec {
            kind: OpKind::Rename,
            id,
            to_id,
            path,
            to_path,
        });
    }

    /// The op's primary path (`from` for renames).
    #[must_use]
    pub fn path(&self, op: &OpSpec) -> &str {
        &self.arena[op.path.0 as usize..op.path.0 as usize + op.path.1 as usize]
    }

    /// A rename's destination path.
    #[must_use]
    pub fn to_path(&self, op: &OpSpec) -> &str {
        &self.arena[op.to_path.0 as usize..op.to_path.0 as usize + op.to_path.1 as usize]
    }

    /// The batches, in stream order.
    pub fn batches(&self) -> impl Iterator<Item = &[OpSpec]> {
        self.ops.chunks(self.batch_len.max(1))
    }

    /// Number of batches.
    #[must_use]
    pub fn batch_count(&self) -> usize {
        self.ops.len().div_ceil(self.batch_len.max(1))
    }

    /// Number of ops.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Every op, in stream order.
    #[must_use]
    pub fn ops(&self) -> &[OpSpec] {
        &self.ops
    }

    /// The op stream as bytes — kinds, ids and paths in order — so two
    /// streams can be compared for byte identity.
    #[must_use]
    pub fn stream_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.arena.len() + self.ops.len() * 10);
        for op in &self.ops {
            out.push(op.kind as u8);
            out.extend_from_slice(&op.id.to_le_bytes());
            out.extend_from_slice(self.path(op).as_bytes());
            out.push(0);
            if op.kind == OpKind::Rename {
                out.extend_from_slice(&op.to_id.to_le_bytes());
                out.extend_from_slice(self.to_path(op).as_bytes());
                out.push(0);
            }
        }
        out
    }
}

/// The path of file `id`: a few top-level volumes, a few hundred
/// directories each, ~20 bytes — the shape of the traces' pathnames.
#[must_use]
pub fn path_of(id: u32) -> String {
    format!("/v{}/d{:03}/f{id}", id % 13, (id / 13) % 257)
}

/// Op mix of one workload, as cumulative thresholds over `[0, 1)`.
#[derive(Debug, Clone, Copy)]
struct Mix {
    create: f64,
    remove: f64,
    rename: f64,
    /// Share of lookups that re-read a recently written file.
    read_your_writes: f64,
}

/// The shape of one workload: sizes at scale 1 and its op mix.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Files populated before timing.
    pub base_files: u32,
    /// Ops per batch.
    pub batch_len: usize,
    /// Batches per segment (one segment is the unit a run repeats).
    pub segment_batches: usize,
    /// Segments per second of `--seconds`, whatever the scale.
    pub segments_per_s: f64,
    /// Untimed warm-up batches after population.
    pub warmup_batches: usize,
    mix: Mix,
}

impl Shape {
    /// The shape of `workload` at `scale` (1.0 = the benchmark's own
    /// sizes; tests and `--smoke` shrink it). Batch length never scales.
    #[must_use]
    pub fn of(workload: Workload, scale: f64) -> Shape {
        let reads_only = Mix {
            create: 0.0,
            remove: 0.0,
            rename: 0.0,
            read_your_writes: 0.0,
        };
        // Creates and removes are balanced in both write mixes: the issue's
        // 35/25 and 5/3 grow the namespace by a tenth of the write ops, and
        // `write_churn` then ran 231k ops/s over 6 s but 137k over 15 s —
        // no steady state to read a throughput off.
        let (base_files, batch_len, segment_batches, batches_per_6s, mix) = match workload {
            // A segment of the two read workloads is a whole number of
            // reconfiguration cycles (8 actions × 40 batches).
            Workload::ReadHot | Workload::ReconfigReads => {
                (200_000, 128, 1_600, 20_000, reads_only)
            }
            Workload::WriteChurn => (
                50_000,
                64,
                2_000,
                16_000,
                Mix {
                    create: 0.30,
                    remove: 0.30,
                    rename: 0.10,
                    read_your_writes: 0.5,
                },
            ),
            Workload::NetMixed => (
                50_000,
                128,
                800,
                10_000,
                Mix {
                    create: 0.04,
                    remove: 0.04,
                    rename: 0.02,
                    read_your_writes: 0.0,
                },
            ),
        };
        let scaled = |n: usize, floor: usize| ((n as f64 * scale).round() as usize).max(floor);
        Shape {
            base_files: scaled(base_files as usize, 512) as u32,
            batch_len,
            segment_batches: scaled(segment_batches, 8),
            segments_per_s: batches_per_6s as f64 / 6.0 / segment_batches as f64,
            warmup_batches: scaled(500, 4),
            mix,
        }
    }

    /// Segments a run of `seconds` executes: a fixed number, so every
    /// count repeats exactly for a seed. The rate is the one this host
    /// ran the prototype at (the issue's batches per 6 s round); a faster
    /// or slower program measures for less or more than `seconds`, never
    /// over a different op stream.
    #[must_use]
    pub fn segments_for(&self, seconds: f64) -> usize {
        ((self.segments_per_s * seconds).round() as usize).max(1)
    }
}

/// The deterministic op stream of one workload.
#[derive(Debug, Clone)]
pub struct Generator {
    shape: Shape,
    rng: DetRng,
    zipf: Zipf,
    /// Popularity rank → position in `live`, fixed at construction: hot
    /// ranks are scattered over the id space (and so over home servers)
    /// instead of clustering on the first files created.
    scramble: Vec<u32>,
    /// Ids of live files, unordered (removal swaps the last one in).
    live: Vec<u32>,
    /// Id → position in `live`, or [`DEAD`].
    pos: Vec<u32>,
    next_id: u32,
    /// Ids of removed files, oldest first. New files take their paths
    /// from here before minting new ids, so the set of paths ever used —
    /// and with it the harness's and the filters' memory — does not grow
    /// with the length of a run.
    free: VecDeque<u32>,
    next_missing: u64,
    recent: VecDeque<u32>,
    /// Destinations of the current batch's renames. They become
    /// selectable only in the next batch: across replicas a rename's
    /// create runs in a second wave, after every other op of its batch.
    renamed: Vec<u32>,
}

impl Generator {
    /// The stream of `workload` for `seed` at `scale`. Nothing is live
    /// until [`Generator::populate`] has run.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, scale: f64) -> Self {
        let shape = Shape::of(workload, scale);
        // `reconfig_reads` replays `read_hot`'s exact stream: what differs
        // is what happens to the cluster between the batches.
        let stream = match workload {
            Workload::ReconfigReads => Workload::ReadHot,
            other => other,
        };
        let mut rng = DetRng::new(seed).fork(stream as u64 + 1);
        let mut scramble: Vec<u32> = (0..shape.base_files).collect();
        rng.shuffle(&mut scramble);
        Generator {
            shape,
            zipf: Zipf::new(u64::from(shape.base_files), ZIPF_S),
            rng,
            scramble,
            live: Vec::new(),
            pos: Vec::new(),
            next_id: 0,
            free: VecDeque::new(),
            next_missing: 0,
            recent: VecDeque::with_capacity(RECENT),
            renamed: Vec::new(),
        }
    }

    /// The workload's shape at this generator's scale.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Ids of the files that currently exist.
    #[must_use]
    pub fn live_ids(&self) -> &[u32] {
        &self.live
    }

    fn is_live(&self, id: u32) -> bool {
        self.pos.get(id as usize).is_some_and(|&p| p != DEAD)
    }

    fn add_live(&mut self, id: u32) {
        if self.pos.len() <= id as usize {
            self.pos.resize(id as usize + 1, DEAD);
        }
        self.pos[id as usize] = self.live.len() as u32;
        self.live.push(id);
    }

    fn kill(&mut self, id: u32) {
        let at = self.pos[id as usize] as usize;
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.pos[moved as usize] = at as u32;
        }
        self.pos[id as usize] = DEAD;
    }

    fn fresh_id(&mut self) -> u32 {
        self.free.pop_front().unwrap_or_else(|| {
            let id = self.next_id;
            self.next_id += 1;
            id
        })
    }

    fn remember(&mut self, id: u32) {
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(id);
    }

    /// The creates that populate the base files, in batches of
    /// `batch_len` ops.
    pub fn populate(&mut self, batch_len: usize) -> Segment {
        let mut segment = Segment::new(batch_len);
        for _ in 0..self.shape.base_files {
            let id = self.fresh_id();
            self.add_live(id);
            segment.push(OpKind::Create, id, &path_of(id));
        }
        segment
    }

    /// A popular live file: Zipf rank, scrambled, folded onto the files
    /// that exist now.
    fn popular(&mut self) -> u32 {
        let rank = self.zipf.sample(&mut self.rng) as usize;
        self.live[self.scramble[rank] as usize % self.live.len()]
    }

    fn push_lookup(&mut self, segment: &mut Segment) {
        let mix = self.shape.mix;
        let recent = (mix.read_your_writes > 0.0
            && !self.recent.is_empty()
            && self.rng.chance(mix.read_your_writes))
        .then(|| self.recent[self.rng.index(self.recent.len())])
        // A reused path that an earlier rename of this batch moves a
        // file to is in limbo until the batch ends.
        .filter(|id| !self.renamed.contains(id));
        if let Some(id) = recent {
            // A file written moments ago, possibly in this very batch and
            // possibly removed again since: the answer must reflect the
            // writes before it in the stream.
            let kind = if self.is_live(id) {
                OpKind::LookupLive
            } else {
                OpKind::LookupMissing
            };
            segment.push(kind, id, &path_of(id));
        } else if self.rng.chance(MISSING_SHARE) {
            let n = self.next_missing;
            self.next_missing += 1;
            segment.push(
                OpKind::LookupMissing,
                MISSING_ID,
                &format!("/nx/d{:03}/f{n}", n % 257),
            );
        } else {
            let id = self.popular();
            segment.push(OpKind::LookupLive, id, &path_of(id));
        }
    }

    /// The next `batches` batches of the stream.
    pub fn next_batches(&mut self, batches: usize) -> Segment {
        let mix = self.shape.mix;
        let mut segment = Segment::new(self.shape.batch_len);
        // Removed paths become reusable only in the next batch, for the
        // same reason rename destinations become selectable only then.
        let mut removed: Vec<u32> = Vec::new();
        for _ in 0..batches {
            for _ in 0..self.shape.batch_len {
                let roll = self.rng.next_f64();
                // Keep a floor of live files so removes never empty the
                // namespace at tiny scales.
                let can_shrink = self.live.len() > 64;
                if roll < mix.create {
                    let id = self.fresh_id();
                    self.add_live(id);
                    self.remember(id);
                    segment.push(OpKind::Create, id, &path_of(id));
                } else if roll < mix.create + mix.remove && can_shrink {
                    let id = self.live[self.rng.index(self.live.len())];
                    self.kill(id);
                    removed.push(id);
                    segment.push(OpKind::Remove, id, &path_of(id));
                } else if roll < mix.create + mix.remove + mix.rename && can_shrink {
                    let id = self.live[self.rng.index(self.live.len())];
                    self.kill(id);
                    removed.push(id);
                    let to_id = self.fresh_id();
                    self.renamed.push(to_id);
                    segment.push_rename(id, &path_of(id), to_id, &path_of(to_id));
                } else {
                    self.push_lookup(&mut segment);
                }
            }
            for id in std::mem::take(&mut self.renamed) {
                self.add_live(id);
                self.remember(id);
            }
            self.free.extend(removed.drain(..));
        }
        segment
    }

    /// The next whole segment of the stream.
    pub fn next_segment(&mut self) -> Segment {
        self.next_batches(self.shape.segment_batches)
    }

    /// Lookups of every live file, for the closing audit.
    #[must_use]
    pub fn audit(&self, batch_len: usize) -> Segment {
        let mut segment = Segment::new(batch_len);
        for &id in &self.live {
            segment.push(OpKind::LookupLive, id, &path_of(id));
        }
        segment
    }
}
