//! Crash-safe checkpointing of in-flight algorithm state.
//!
//! Long aggregations (LOCALSEARCH or SAMPLING on Census-scale inputs) can
//! outlive their process: the operator hits Ctrl-C, the batch scheduler
//! preempts the job, the machine dies. This module serializes enough
//! algorithm state to resume such a run **bit-identically** — the resumed
//! run produces exactly the labels, cost, and iteration count the
//! uninterrupted run would have.
//!
//! ## Snapshot format
//!
//! A snapshot file is a small binary envelope around a payload, all
//! little-endian:
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 8 | magic `"AGGCKPT\0"` |
//! | 8 | 4 | format version (`u32`, currently 1) |
//! | 12 | 8 | payload length in bytes (`u64`) |
//! | 20 | 4 | CRC32 (IEEE) of the payload |
//! | 24 | — | payload |
//!
//! The payload is a `stage` word (0 = main algorithm, 1 = LOCALSEARCH
//! refinement pass) followed by a tagged [`AlgorithmSnapshot`]. Decoding is
//! fully bounds-checked; any mismatch — bad magic, unknown version, short
//! file, CRC failure, inconsistent lengths — comes back as
//! [`SnapshotLoad::Corrupt`] with a reason, **never** a panic and never a
//! partially-decoded state.
//!
//! ## Atomic writes
//!
//! [`save_snapshot`] writes to `<path>.tmp`, fsyncs the file, renames it
//! over `<path>`, then best-effort fsyncs the parent directory. A crash at
//! any point leaves either the previous complete snapshot or the new one,
//! never a torn file. [`Checkpointer`] adds a wall-clock cadence and a
//! bounded, jittered exponential-backoff retry (3 attempts) on top.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::robust::RunBudget;
use crate::telemetry::{self, Cadence, Clock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Magic bytes identifying a snapshot file.
const MAGIC: [u8; 8] = *b"AGGCKPT\0";
/// Current snapshot format version.
const VERSION: u32 = 1;
/// Envelope size: magic + version + payload length + CRC32.
const HEADER_LEN: usize = 8 + 4 + 8 + 4;
/// Write attempts before a checkpoint save is reported as failed.
const SAVE_ATTEMPTS: u32 = 3;
/// Base backoff before the first retry; doubles per attempt, plus jitter.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------------------
// Snapshot state types
// ---------------------------------------------------------------------------

/// In-flight LOCALSEARCH state: enough to re-enter the pass loop at the
/// exact node where the run stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalSearchSnapshot {
    /// Current label of every object.
    pub labels: Vec<u32>,
    /// Zero-based index of the pass in progress.
    pub pass: u64,
    /// Next node the pass would have visited.
    pub next_node: u64,
    /// Whether any node moved earlier in the current pass (the pass-level
    /// convergence flag must survive the restart).
    pub moved_in_pass: bool,
    /// Budget iterations consumed so far (resumes the meter, so an
    /// iteration cap bounds total work across interrupts).
    pub iterations: u64,
    /// xoshiro256++ state of the init RNG (only the `Random` init draws
    /// from it; recorded so the snapshot fully determines the run).
    pub rng: [u64; 4],
}

/// One recorded merge of the agglomerative dendrogram, mirroring
/// [`crate::linkage::Merge`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeRecord {
    /// Node id of the deactivated side.
    pub a: u64,
    /// Node id of the surviving side.
    pub b: u64,
    /// Average-linkage distance at which the pair merged.
    pub height: f64,
    /// Size of the merged cluster.
    pub size: u64,
}

/// In-flight AGGLOMERATIVE state: the partial merge list plus the live
/// nearest-neighbor chain.
///
/// The chain matters for bit-identity: restarting NN-chain with an empty
/// chain discovers the remaining merges in a different order, and
/// [`crate::linkage::Dendrogram::cut_num_clusters`] breaks height ties by
/// discovery index.
#[derive(Clone, Debug, PartialEq)]
pub struct AgglomerativeSnapshot {
    /// Number of leaves (validated against the live instance on resume).
    pub n: u64,
    /// Merges performed so far, in discovery order.
    pub merges: Vec<MergeRecord>,
    /// The live NN-chain (row indices), bottom first.
    pub chain: Vec<u64>,
    /// Budget iterations consumed so far.
    pub iterations: u64,
}

/// In-flight SAMPLING state, checkpointable during the linear assignment
/// phase (phase 3) — the only phase whose cost grows with `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SamplingSnapshot {
    /// Number of objects (validated against the live instance on resume).
    pub n: u64,
    /// Sorted sampled node indices.
    pub sample: Vec<u64>,
    /// Cluster label of each sampled node.
    pub sample_labels: Vec<u32>,
    /// Labels assigned so far; `u32::MAX` marks a not-yet-assigned node.
    pub labels: Vec<u32>,
    /// Next non-sample node the assignment phase would have visited.
    pub next_node: u64,
    /// Budget iterations consumed so far.
    pub iterations: u64,
}

/// Which algorithm a snapshot captures, with its state.
#[derive(Clone, Debug, PartialEq)]
pub enum AlgorithmSnapshot {
    /// LOCALSEARCH (also used for the consensus refinement pass).
    LocalSearch(LocalSearchSnapshot),
    /// AGGLOMERATIVE.
    Agglomerative(AgglomerativeSnapshot),
    /// The SAMPLING meta-algorithm.
    Sampling(SamplingSnapshot),
}

/// A complete checkpoint: which pipeline stage was running, and the
/// algorithm state.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Pipeline stage: 0 = main algorithm, 1 = refinement pass.
    pub stage: u32,
    /// The captured algorithm state.
    pub state: AlgorithmSnapshot,
}

/// The outcome of [`load_snapshot`]. Corruption is data, not an error —
/// callers fall back to a fresh run with a warning.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapshotLoad {
    /// The file decoded and checksummed cleanly.
    Loaded(Snapshot),
    /// No snapshot file exists at the path.
    Missing,
    /// The file exists but is unreadable, truncated, version-mismatched,
    /// or fails its checksum; the reason is human-readable.
    Corrupt(String),
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-based — hand-rolled, the container has no crc crate
// ---------------------------------------------------------------------------

/// The standard reflected CRC32 polynomial.
const CRC32_POLY: u32 = 0xedb8_8320;

fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32 (IEEE 802.3) of `data` — the checksum guarding the payload.
pub fn crc32(data: &[u8]) -> u32 {
    // Build-once would need a OnceLock; the table is 1 KiB of shifts and
    // snapshot I/O is rare, so recomputing it per call is simpler and cheap.
    let table = crc32_table();
    let mut crc = 0xffff_ffffu32;
    for &byte in data {
        let idx = ((crc ^ byte as u32) & 0xff) as usize;
        crc = (crc >> 8) ^ table[idx];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Payload encoding / decoding
// ---------------------------------------------------------------------------

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u32(v);
        }
    }

    pub(crate) fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(format!(
                "truncated payload: {what} needs {n} bytes at offset {}, only {} available",
                self.pos,
                self.buf.len() - self.pos
            )),
        }
    }

    pub(crate) fn take_u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.bytes(1, what)?[0])
    }

    pub(crate) fn take_u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn take_u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn take_f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// A length prefix, validated against the bytes actually remaining so a
    /// corrupt length can never trigger a huge allocation.
    pub(crate) fn take_len(&mut self, item_bytes: usize, what: &str) -> Result<usize, String> {
        let len = self.take_u64(what)?;
        let len = usize::try_from(len).map_err(|_| format!("{what} length {len} overflows"))?;
        let needed = len
            .checked_mul(item_bytes)
            .filter(|&b| b <= self.remaining());
        if needed.is_none() {
            return Err(format!(
                "corrupt length: {what} claims {len} items but only {} payload bytes remain",
                self.remaining()
            ));
        }
        Ok(len)
    }

    pub(crate) fn take_u32_vec(&mut self, what: &str) -> Result<Vec<u32>, String> {
        let len = self.take_len(4, what)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.take_u32(what)?);
        }
        Ok(out)
    }

    pub(crate) fn take_u64_vec(&mut self, what: &str) -> Result<Vec<u64>, String> {
        let len = self.take_len(8, what)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.take_u64(what)?);
        }
        Ok(out)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// ---------------------------------------------------------------------------
// Envelope codec
// ---------------------------------------------------------------------------

/// Wrap `payload` in the standard envelope: `magic | version | payload length
/// (u64) | CRC32(payload) | payload`.
pub(crate) fn encode_envelope(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate the envelope around `bytes` and return the checksummed payload.
/// Every failure mode — short file, wrong magic, version mismatch, length
/// mismatch, CRC failure — is a reason string, never a panic.
pub(crate) fn decode_envelope<'a>(
    magic: &[u8; 8],
    version: u32,
    bytes: &'a [u8],
) -> Result<&'a [u8], String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!(
            "file too short: {} bytes, envelope needs {HEADER_LEN}",
            bytes.len()
        ));
    }
    if &bytes[..8] != magic {
        return Err("bad magic: not the expected file type".to_string());
    }
    let found = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if found != version {
        return Err(format!(
            "unsupported format version {found} (this build reads {version})"
        ));
    }
    let payload_len = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let stored_crc = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    let body = &bytes[HEADER_LEN..];
    if payload_len != body.len() as u64 {
        return Err(format!(
            "truncated file: header claims {payload_len} payload bytes, found {}",
            body.len()
        ));
    }
    let actual_crc = crc32(body);
    if actual_crc != stored_crc {
        return Err(format!(
            "checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        ));
    }
    Ok(body)
}

const TAG_LOCAL_SEARCH: u8 = 1;
const TAG_AGGLOMERATIVE: u8 = 2;
const TAG_SAMPLING: u8 = 3;

/// Serialize a snapshot into the on-disk byte format (envelope included).
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(snapshot.stage);
    match &snapshot.state {
        AlgorithmSnapshot::LocalSearch(s) => {
            w.put_u8(TAG_LOCAL_SEARCH);
            w.put_u32_slice(&s.labels);
            w.put_u64(s.pass);
            w.put_u64(s.next_node);
            w.put_u8(s.moved_in_pass as u8);
            w.put_u64(s.iterations);
            for word in s.rng {
                w.put_u64(word);
            }
        }
        AlgorithmSnapshot::Agglomerative(s) => {
            w.put_u8(TAG_AGGLOMERATIVE);
            w.put_u64(s.n);
            w.put_u64(s.merges.len() as u64);
            for m in &s.merges {
                w.put_u64(m.a);
                w.put_u64(m.b);
                w.put_f64(m.height);
                w.put_u64(m.size);
            }
            w.put_u64_slice(&s.chain);
            w.put_u64(s.iterations);
        }
        AlgorithmSnapshot::Sampling(s) => {
            w.put_u8(TAG_SAMPLING);
            w.put_u64(s.n);
            w.put_u64_slice(&s.sample);
            w.put_u32_slice(&s.sample_labels);
            w.put_u32_slice(&s.labels);
            w.put_u64(s.next_node);
            w.put_u64(s.iterations);
        }
    }
    encode_envelope(&MAGIC, VERSION, &w.buf)
}

/// Decode snapshot bytes (envelope included). Every failure mode returns a
/// reason string; this function never panics on any input.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, String> {
    let body = decode_envelope(&MAGIC, VERSION, bytes)?;
    let mut r = Reader::new(body);
    let stage = r.take_u32("stage")?;
    let tag = r.take_u8("algorithm tag")?;
    let state = match tag {
        TAG_LOCAL_SEARCH => {
            let labels = r.take_u32_vec("labels")?;
            let pass = r.take_u64("pass")?;
            let next_node = r.take_u64("next_node")?;
            let moved_in_pass = r.take_u8("moved_in_pass")? != 0;
            let iterations = r.take_u64("iterations")?;
            let mut rng = [0u64; 4];
            for word in &mut rng {
                *word = r.take_u64("rng state")?;
            }
            if next_node > labels.len() as u64 {
                return Err(format!(
                    "inconsistent state: next_node {next_node} past {} labels",
                    labels.len()
                ));
            }
            AlgorithmSnapshot::LocalSearch(LocalSearchSnapshot {
                labels,
                pass,
                next_node,
                moved_in_pass,
                iterations,
                rng,
            })
        }
        TAG_AGGLOMERATIVE => {
            let n = r.take_u64("n")?;
            let merge_count = r.take_len(8 * 4, "merges")?;
            let mut merges = Vec::with_capacity(merge_count);
            for _ in 0..merge_count {
                merges.push(MergeRecord {
                    a: r.take_u64("merge.a")?,
                    b: r.take_u64("merge.b")?,
                    height: r.take_f64("merge.height")?,
                    size: r.take_u64("merge.size")?,
                });
            }
            let chain = r.take_u64_vec("chain")?;
            let iterations = r.take_u64("iterations")?;
            if merges.len() as u64 >= n.max(1) {
                return Err(format!(
                    "inconsistent state: {} merges for n = {n}",
                    merges.len()
                ));
            }
            AlgorithmSnapshot::Agglomerative(AgglomerativeSnapshot {
                n,
                merges,
                chain,
                iterations,
            })
        }
        TAG_SAMPLING => {
            let n = r.take_u64("n")?;
            let sample = r.take_u64_vec("sample")?;
            let sample_labels = r.take_u32_vec("sample_labels")?;
            let labels = r.take_u32_vec("labels")?;
            let next_node = r.take_u64("next_node")?;
            let iterations = r.take_u64("iterations")?;
            if labels.len() as u64 != n
                || sample.len() != sample_labels.len()
                || next_node > n
                || sample.iter().any(|&s| s >= n)
            {
                return Err("inconsistent sampling state".to_string());
            }
            AlgorithmSnapshot::Sampling(SamplingSnapshot {
                n,
                sample,
                sample_labels,
                labels,
                next_node,
                iterations,
            })
        }
        other => return Err(format!("unknown algorithm tag {other}")),
    };
    if r.remaining() != 0 {
        return Err(format!("{} trailing payload bytes", r.remaining()));
    }
    Ok(Snapshot { stage, state })
}

// ---------------------------------------------------------------------------
// Atomic file I/O
// ---------------------------------------------------------------------------

/// Write `snapshot` to `path` atomically: `<path>.tmp` + fsync + rename,
/// then a best-effort fsync of the parent directory. A crash leaves either
/// the previous snapshot or the new one, never a torn file.
pub fn save_snapshot(path: &Path, snapshot: &Snapshot) -> std::io::Result<()> {
    let bytes = encode(snapshot);
    telemetry::metrics()
        .checkpoint_bytes_hist
        .observe_if_enabled(bytes.len() as f64);
    crate::iofs::write_file_atomic("snapshot", path, &bytes)
}

/// Read and validate the snapshot at `path`. Corruption of any kind —
/// including a file that is not a snapshot at all — is reported as
/// [`SnapshotLoad::Corrupt`], never an `Err` or a panic: the caller's
/// recovery is always "fall back to a fresh run with a warning".
pub fn load_snapshot(path: &Path) -> SnapshotLoad {
    let bytes = match crate::iofs::read("snapshot.read", path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return SnapshotLoad::Missing,
        Err(e) => {
            telemetry::metrics()
                .checkpoint_corruptions
                .incr_if_enabled();
            return SnapshotLoad::Corrupt(format!("unreadable: {e}"));
        }
    };
    match decode(&bytes) {
        Ok(snapshot) => SnapshotLoad::Loaded(snapshot),
        Err(reason) => {
            telemetry::metrics()
                .checkpoint_corruptions
                .incr_if_enabled();
            SnapshotLoad::Corrupt(reason)
        }
    }
}

// ---------------------------------------------------------------------------
// Retry with bounded, jittered exponential backoff
// ---------------------------------------------------------------------------

/// How transient-I/O retries behave: total attempts, base backoff, and
/// whether each sleep gains deterministic jitter.
///
/// The default — 3 attempts, 10 ms base, jitter on — serves checkpoint
/// writes and dataset reads, where transient I/O errors (NFS hiccup,
/// antivirus lock) resolve in milliseconds. The sleep before retry `i` is
/// `base * 2^i` plus (when jitter is on) up to 100% extra drawn from a
/// seeded RNG, so concurrent writers against the same contended resource
/// desynchronize without losing reproducibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries before the last error is returned (minimum 1).
    pub attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base: Duration,
    /// Add up to 100% seeded jitter to each backoff sleep.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: SAVE_ATTEMPTS,
            base: BACKOFF_BASE,
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// A policy with the given attempt count and the default base/jitter.
    pub fn with_attempts(attempts: u32) -> Self {
        RetryPolicy {
            attempts,
            ..Default::default()
        }
    }

    /// The sleep before retry number `attempt` (zero-based): `base * 2^i`,
    /// plus up to 100% jitter drawn from `rng` when jitter is enabled. The
    /// exponent saturates at 2^16 so huge attempt counts cannot overflow.
    fn backoff_delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let backoff = self.base.saturating_mul(1u32 << attempt.min(16));
        if !self.jitter {
            return backoff;
        }
        let jitter_ns = rng.gen_range(0..backoff.as_nanos().max(1) as u64);
        backoff + Duration::from_nanos(jitter_ns)
    }

    /// Run `op` until it succeeds or the attempt budget is exhausted,
    /// sleeping `base · 2^attempt` plus jitter between failures. Returns the first
    /// success or the last error. `jitter_seed` makes the jitter sequence
    /// reproducible.
    pub fn run<T, E>(
        &self,
        jitter_seed: u64,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        self.run_supervised(jitter_seed, None, &mut op)
    }

    /// [`RetryPolicy::run`] under deadline supervision: every backoff
    /// sleep is capped at `budget`'s remaining deadline, and once the
    /// deadline has expired the current error is returned *without*
    /// sleeping. Retrying exists to ride out transient I/O hiccups; it
    /// must never spend wall-clock time the run no longer has — before
    /// this cap, three exponential backoffs could overshoot a short
    /// `--deadline-ms` several times over.
    pub fn run_supervised<T, E>(
        &self,
        jitter_seed: u64,
        budget: Option<&RunBudget>,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let mut rng = StdRng::seed_from_u64(jitter_seed);
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if attempt + 1 >= self.attempts.max(1) => return Err(e),
                Err(e) => {
                    let mut delay = self.backoff_delay(attempt, &mut rng);
                    if let Some(remaining) = budget.and_then(RunBudget::remaining_deadline) {
                        if remaining.is_zero() {
                            // No time left to wait for the disk to heal:
                            // surface the error and let the anytime
                            // machinery produce best-so-far output.
                            return Err(e);
                        }
                        delay = delay.min(remaining);
                    }
                    std::thread::sleep(delay);
                    attempt += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpointer: cadence + retry around save_snapshot
// ---------------------------------------------------------------------------

/// Periodically persists algorithm state during a run.
///
/// Algorithms call [`Checkpointer::maybe_save`] once per unit of work; the
/// closure building the snapshot is only evaluated when the cadence is due,
/// so the steady-state cost is one clock read per call. Failed writes
/// retry with jittered exponential backoff (`SAVE_ATTEMPTS` = 3 attempts
/// in total) and are then recorded in [`Checkpointer::last_error`] rather
/// than aborting the run — a checkpointing failure must never take down the
/// computation it protects.
///
/// Cadence is a [`telemetry::Cadence`] on a [`telemetry::Clock`] — the
/// same ticker behind [`telemetry::Heartbeat`] — so tests can drive it
/// with a mock clock instead of real sleeps (see
/// [`Checkpointer::with_clock`]).
#[derive(Debug)]
pub struct Checkpointer {
    path: PathBuf,
    cadence: Cadence,
    stage: u32,
    rng: StdRng,
    saves: u64,
    last_error: Option<String>,
    budget: Option<RunBudget>,
}

impl Checkpointer {
    /// Checkpoint to `path` no more often than `every`. The first save
    /// becomes due `every` after construction.
    pub fn new(path: impl Into<PathBuf>, every: Duration) -> Self {
        Checkpointer {
            path: path.into(),
            cadence: Cadence::new(every),
            stage: 0,
            rng: StdRng::seed_from_u64(0xc4ec_4b01),
            saves: 0,
            last_error: None,
            budget: None,
        }
    }

    /// Replace the cadence clock (builder style). The cadence restarts at
    /// the new clock's current reading.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.cadence = Cadence::with_clock(clock, self.cadence.every());
        self
    }

    /// Supervise save retries with `budget` (builder style): backoff
    /// sleeps are capped at the budget's remaining deadline, so a failing
    /// disk cannot make checkpointing overshoot `--deadline-ms`.
    pub fn with_budget(mut self, budget: &RunBudget) -> Self {
        self.budget = Some(budget.clone());
        self
    }

    /// The snapshot file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Set the pipeline stage recorded in subsequent snapshots
    /// (0 = main algorithm, 1 = refinement pass).
    pub fn set_stage(&mut self, stage: u32) {
        self.stage = stage;
    }

    /// The pipeline stage currently recorded in snapshots.
    pub fn stage(&self) -> u32 {
        self.stage
    }

    /// Successful saves so far.
    pub fn saves(&self) -> u64 {
        self.saves
    }

    /// The most recent save failure, if the last attempted save failed.
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    /// Save a checkpoint if the cadence is due. `make` is evaluated only
    /// when a save actually happens. Returns `true` on a successful save.
    pub fn maybe_save(&mut self, make: impl FnOnce() -> AlgorithmSnapshot) -> bool {
        if !self.cadence.due() {
            return false;
        }
        self.save_now(make()).is_ok()
    }

    /// Save a checkpoint immediately (used for the final checkpoint when a
    /// run is interrupted), with retry. The cadence clock restarts either
    /// way so a persistently failing disk is retried at checkpoint cadence,
    /// not every meter tick.
    pub fn save_now(&mut self, state: AlgorithmSnapshot) -> std::io::Result<()> {
        let snapshot = Snapshot {
            stage: self.stage,
            state,
        };
        let jitter_seed = self.rng.gen::<u64>();
        let mut attempts = 0u64;
        let path = &self.path;
        let result =
            RetryPolicy::default().run_supervised(jitter_seed, self.budget.as_ref(), || {
                attempts += 1;
                save_snapshot(path, &snapshot)
            });
        self.cadence.reset();
        telemetry::metrics()
            .checkpoint_retries
            .add_if_enabled(attempts.saturating_sub(1));
        match result {
            Ok(()) => {
                self.saves += 1;
                self.last_error = None;
                telemetry::metrics().checkpoint_saves.incr_if_enabled();
                Ok(())
            }
            Err(e) => {
                self.last_error = Some(e.to_string());
                telemetry::metrics().checkpoint_failures.incr_if_enabled();
                crate::warn!(
                    "checkpoint save failed",
                    path = self.path.display().to_string(),
                    error = e.to_string()
                );
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            stage: 1,
            state: AlgorithmSnapshot::LocalSearch(LocalSearchSnapshot {
                labels: vec![0, 1, 1, 2, 0],
                pass: 3,
                next_node: 4,
                moved_in_pass: true,
                iterations: 17,
                rng: [1, 2, 3, 4],
            }),
        }
    }

    fn agglomerative_snapshot() -> Snapshot {
        Snapshot {
            stage: 0,
            state: AlgorithmSnapshot::Agglomerative(AgglomerativeSnapshot {
                n: 6,
                merges: vec![
                    MergeRecord {
                        a: 0,
                        b: 2,
                        height: 0.25,
                        size: 2,
                    },
                    MergeRecord {
                        a: 1,
                        b: 3,
                        height: 0.25,
                        size: 2,
                    },
                ],
                chain: vec![4, 5],
                iterations: 2,
            }),
        }
    }

    fn sampling_snapshot() -> Snapshot {
        Snapshot {
            stage: 0,
            state: AlgorithmSnapshot::Sampling(SamplingSnapshot {
                n: 8,
                sample: vec![1, 4, 6],
                sample_labels: vec![0, 1, 0],
                labels: vec![u32::MAX, 0, u32::MAX, u32::MAX, 1, u32::MAX, 0, u32::MAX],
                next_node: 2,
                iterations: 5,
            }),
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_all_variants() {
        for snap in [
            sample_snapshot(),
            agglomerative_snapshot(),
            sampling_snapshot(),
        ] {
            let bytes = encode(&snap);
            assert_eq!(decode(&bytes).expect("round trip"), snap);
        }
    }

    #[test]
    fn every_truncation_is_corrupt_not_panic() {
        let bytes = encode(&sample_snapshot());
        crate::test_support::for_each_truncation(&bytes, |len, prefix| {
            assert!(decode(prefix).is_err(), "prefix of {len} decoded");
        });
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode(&agglomerative_snapshot());
        let original = decode(&bytes).expect("clean");
        crate::test_support::for_each_bit_flip(
            &bytes,
            &crate::test_support::ALL_BITS,
            |byte, bit, corrupt| {
                // Either rejected, or (never, for a single flip over CRC32)
                // decoded back to the identical snapshot.
                if let Ok(decoded) = decode(corrupt) {
                    assert_eq!(
                        decoded, original,
                        "flip {byte}:{bit} silently changed state"
                    );
                }
            },
        );
    }

    #[test]
    fn stale_version_is_rejected_before_checksum() {
        let mut bytes = encode(&sample_snapshot());
        bytes[8] = 99;
        let reason = decode(&bytes).expect_err("stale version");
        assert!(reason.contains("version"), "{reason}");
    }

    #[test]
    fn huge_claimed_length_does_not_allocate() {
        let snap = sample_snapshot();
        let mut bytes = encode(&snap);
        // Overwrite the labels length (first payload field after stage+tag)
        // with u64::MAX and fix the CRC so only the length check can catch it.
        let label_len_at = HEADER_LEN + 4 + 1;
        bytes[label_len_at..label_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[20..24].copy_from_slice(&crc.to_le_bytes());
        let reason = decode(&bytes).expect_err("bogus length");
        assert!(reason.contains("length"), "{reason}");
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("aggclust_snapshot_test_rt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        let snap = sampling_snapshot();
        save_snapshot(&path, &snap).expect("save");
        assert_eq!(load_snapshot(&path), SnapshotLoad::Loaded(snap));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_corrupt_files_load_gracefully() {
        let dir = std::env::temp_dir().join("aggclust_snapshot_test_corrupt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let missing = dir.join("nope.bin");
        assert_eq!(load_snapshot(&missing), SnapshotLoad::Missing);
        let garbage = dir.join("garbage.bin");
        std::fs::write(&garbage, b"not a snapshot at all").expect("write");
        assert!(matches!(load_snapshot(&garbage), SnapshotLoad::Corrupt(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointer_respects_cadence_and_counts_saves() {
        let dir = std::env::temp_dir().join("aggclust_snapshot_test_cadence");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        let mut ckpt = Checkpointer::new(&path, Duration::from_secs(3600));
        // Not due yet: closure must not even run.
        let saved = ckpt.maybe_save(|| unreachable!("cadence not due"));
        assert!(!saved);
        assert_eq!(ckpt.saves(), 0);
        // Forced save works regardless of cadence.
        ckpt.set_stage(1);
        ckpt.save_now(sample_snapshot().state).expect("save_now");
        assert_eq!(ckpt.saves(), 1);
        match load_snapshot(&path) {
            SnapshotLoad::Loaded(snap) => assert_eq!(snap.stage, 1),
            other => panic!("expected loaded snapshot, got {other:?}"),
        }
        // Zero cadence: due immediately.
        let mut eager = Checkpointer::new(&path, Duration::ZERO);
        assert!(eager.maybe_save(|| sample_snapshot().state));
        assert_eq!(eager.saves(), 1);
        assert!(eager.last_error().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mock_clock_drives_the_cadence_without_sleeping() {
        let dir = std::env::temp_dir().join("aggclust_snapshot_test_mock_clock");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        let clock = Clock::mock();
        let mut ckpt = Checkpointer::new(&path, Duration::from_secs(60)).with_clock(clock.clone());
        assert!(!ckpt.maybe_save(|| unreachable!("cadence not due")));
        clock.advance(Duration::from_secs(59));
        assert!(!ckpt.maybe_save(|| unreachable!("cadence still not due")));
        clock.advance(Duration::from_secs(1));
        assert!(ckpt.maybe_save(|| sample_snapshot().state));
        assert_eq!(ckpt.saves(), 1);
        // The save restarts the cadence from the mock clock's reading.
        assert!(!ckpt.maybe_save(|| unreachable!("cadence restarted")));
        clock.advance(Duration::from_secs(60));
        assert!(ckpt.maybe_save(|| sample_snapshot().state));
        assert_eq!(ckpt.saves(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointer_reports_write_failures_without_panicking() {
        // A path whose parent cannot exist.
        let path = Path::new("/nonexistent_dir_aggclust/sub/ckpt.bin");
        let mut ckpt = Checkpointer::new(path, Duration::ZERO);
        assert!(!ckpt.maybe_save(|| sample_snapshot().state));
        assert!(ckpt.last_error().is_some());
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::ZERO,
            jitter: true,
        };
        let mut calls = 0;
        let result: Result<u32, &str> = policy.run(7, || {
            calls += 1;
            if calls < 3 {
                Err("transient")
            } else {
                Ok(42)
            }
        });
        assert_eq!(result, Ok(42));
        assert_eq!(calls, 3);

        let mut calls = 0;
        let result: Result<u32, &str> = policy.run(7, || {
            calls += 1;
            Err("permanent")
        });
        assert_eq!(result, Err("permanent"));
        assert_eq!(calls, 3);
    }

    #[test]
    fn retry_policy_default_matches_the_legacy_constants() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.attempts, SAVE_ATTEMPTS);
        assert_eq!(policy.base, BACKOFF_BASE);
        assert!(policy.jitter);
        assert_eq!(RetryPolicy::with_attempts(5).base, BACKOFF_BASE);
    }

    #[test]
    fn retry_policy_exhaustion_returns_the_last_error() {
        let mut calls = 0;
        let result: Result<(), String> = RetryPolicy::with_attempts(4).run(11, || {
            calls += 1;
            Err(format!("failure {calls}"))
        });
        assert_eq!(result, Err("failure 4".to_string()));
        assert_eq!(calls, 4);

        // Zero attempts still runs the op once (attempts.max(1)).
        let mut calls = 0;
        let result: Result<(), &str> = RetryPolicy {
            attempts: 0,
            base: Duration::ZERO,
            jitter: false,
        }
        .run(0, || {
            calls += 1;
            Err("never retried")
        });
        assert_eq!(result, Err("never retried"));
        assert_eq!(calls, 1);
    }

    #[test]
    fn retry_policy_succeeds_after_transient_failures() {
        let mut calls = 0;
        let result: Result<u32, &str> = RetryPolicy {
            attempts: 5,
            base: Duration::ZERO,
            jitter: true,
        }
        .run(99, || {
            calls += 1;
            if calls < 4 {
                Err("transient")
            } else {
                Ok(7)
            }
        });
        assert_eq!(result, Ok(7));
        assert_eq!(calls, 4);
    }

    #[test]
    fn supervised_retry_returns_immediately_once_the_deadline_is_spent() {
        // An expired budget must not buy the op any backoff sleeps: the
        // first error comes straight back. Before supervision, a retry
        // storm here would have slept through attempts.max(1) - 1 backoffs
        // after the run deadline had already passed.
        let clock = Clock::mock();
        let budget = RunBudget::unlimited()
            .with_clock(clock.clone())
            .with_deadline_ms(10);
        clock.advance(Duration::from_millis(11));
        let policy = RetryPolicy {
            attempts: 10,
            base: Duration::from_secs(3600),
            jitter: false,
        };
        let started = std::time::Instant::now();
        let mut calls = 0;
        let result: Result<(), &str> = policy.run_supervised(7, Some(&budget), || {
            calls += 1;
            Err("disk on fire")
        });
        assert_eq!(result, Err("disk on fire"));
        assert_eq!(calls, 1, "no retries once the deadline is spent");
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "must not sleep"
        );
    }

    #[test]
    fn supervised_retry_caps_each_backoff_at_the_remaining_budget() {
        // With 5ms left on the deadline and a 1-hour backoff base, each
        // sleep is clamped to the remaining window. The mock clock never
        // advances, so every attempt still runs — but in real milliseconds,
        // not hours.
        let clock = Clock::mock();
        let budget = RunBudget::unlimited()
            .with_clock(clock.clone())
            .with_deadline_ms(5);
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::from_secs(3600),
            jitter: false,
        };
        let started = std::time::Instant::now();
        let mut calls = 0;
        let result: Result<(), &str> = policy.run_supervised(7, Some(&budget), || {
            calls += 1;
            Err("transient")
        });
        assert_eq!(result, Err("transient"));
        assert_eq!(calls, 3, "attempts still exhausted, just without the wait");
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "backoff must be capped at the ~5ms remaining, not 1h doubling"
        );
    }

    #[test]
    fn retry_policy_jitter_stays_within_one_backoff_period() {
        let base = Duration::from_millis(10);
        let jittered = RetryPolicy {
            attempts: 3,
            base,
            jitter: true,
        };
        let plain = RetryPolicy {
            attempts: 3,
            base,
            jitter: false,
        };
        let mut rng = StdRng::seed_from_u64(42);
        for attempt in 0..6 {
            let expected = base.saturating_mul(1u32 << attempt.min(16));
            // No jitter: exactly the exponential schedule.
            assert_eq!(plain.backoff_delay(attempt, &mut rng), expected);
            // Jitter: within [backoff, 2 * backoff).
            for seed in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed);
                let delay = jittered.backoff_delay(attempt, &mut rng);
                assert!(delay >= expected, "attempt {attempt}: {delay:?} < base");
                assert!(
                    delay < expected * 2,
                    "attempt {attempt}: {delay:?} >= 2x base"
                );
            }
        }
    }

    #[test]
    fn envelope_round_trips_for_foreign_magic() {
        let magic = *b"AGGTILE\0";
        let payload = vec![1u8, 2, 3, 4, 5];
        let bytes = encode_envelope(&magic, 7, &payload);
        assert_eq!(
            decode_envelope(&magic, 7, &bytes).expect("round trip"),
            &payload[..]
        );
        // Wrong magic, wrong version, and any bit flip are all rejected.
        assert!(decode_envelope(&MAGIC, 7, &bytes).is_err());
        assert!(decode_envelope(&magic, 8, &bytes).is_err());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                if let Ok(decoded) = decode_envelope(&magic, 7, &corrupt) {
                    assert_eq!(decoded, &payload[..], "flip {byte}:{bit} changed payload");
                }
            }
        }
    }
}
