//! Out-of-core tile store for the condensed distance matrix.
//!
//! The dense oracle's matrix is `Θ(n²)` memory; when the memory
//! governor refuses that allocation, the consensus pipeline used to fall
//! straight to the lazy oracle (or clamped SAMPLING). This module inserts a
//! disk-backed step in between: the triangle is built as **fixed-size banded
//! tiles** — each tile one contiguous row range of the condensed layout —
//! written to a spill directory as CRC32-checksummed frames, with a small
//! LRU-pinned in-RAM cache serving [`DistanceOracle`] reads.
//!
//! ## Tile frame format
//!
//! Each tile is one file `tile-NNNNN.bin` wrapped in the same envelope as a
//! checkpoint (`magic | version | payload length | CRC32 | payload`, see
//! [`crate::snapshot`]), with magic `"AGGTILE\0"`. The payload is:
//!
//! | field | type | meaning |
//! |---|---|---|
//! | fingerprint | `u64` | FNV-1a over `n`, `m`, the missing policy, and every input label |
//! | n | `u64` | object count |
//! | tile_index | `u64` | tile number within the layout |
//! | row_start | `u64` | first row `u` the tile covers |
//! | row_end | `u64` | one past the last row |
//! | data | `u64` length + `f64` bit patterns | the tile's condensed entries |
//!
//! The fingerprint ties a frame to the exact instance that produced it, so
//! `--resume` can reclaim orphaned tiles from a killed run and a frame from
//! a *different* instance is treated as corrupt, not trusted.
//!
//! ## Recompute-on-corruption contract
//!
//! Every tile is a pure function of the packed [`LabelMatrix`]
//! (`crate::kernels`), which stays in RAM. Corruption is therefore
//! recoverable, not fatal: a CRC mismatch, torn read, truncation, or missing
//! frame triggers a **rebuild** of that tile from the labels (counted by the
//! `spill_tiles_rebuilt` metric) and a best-effort rewrite of the frame —
//! never an abort and never a wrong value. Only a *write* failure that
//! survives [`RetryPolicy`] retries during construction (ENOSPC, dead disk)
//! surfaces as [`SpillError::Io`]; the consensus chain then records a typed
//! warning and degrades one more step, to the lazy oracle.
//!
//! ## Bit-identity
//!
//! Tile entries are computed by the same kernels as the dense fill, and
//! every condensed entry is a pure per-pair function of the inputs — so a
//! value served from a pinned tile, re-read from disk, rebuilt after
//! corruption, or bypassed straight to the packed lazy kernel is
//! **bit-identical** at any thread count. A spilled run's labels equal the
//! unconstrained run's labels exactly.

use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::clustering::PartialClustering;
use crate::instance::{
    condensed_index, ClusteringsOracle, CorrelationInstance, DistanceOracle, MissingPolicy,
};
use crate::robust::{Interrupt, MemCharge, RunBudget};
use crate::snapshot::{decode_envelope, encode_envelope, Reader, RetryPolicy, Writer};
use crate::telemetry;

/// Magic bytes identifying a spilled tile frame.
const SPILL_MAGIC: [u8; 8] = *b"AGGTILE\0";
/// Current tile frame format version.
const SPILL_VERSION: u32 = 1;
/// Smallest tile payload the sizing heuristic will pick (bytes of `f64`s).
const MIN_TILE_BYTES: u64 = 4096;
/// Largest tile the sizing heuristic will pick: big enough to amortize one
/// file per tile, small enough that several tiles fit in a tight cache.
const DEFAULT_TILE_BYTES: u64 = 8 << 20;
/// Cache misses served by the lazy bypass between two evict-and-reload
/// cycles. Reloading a tile on *every* miss would turn a cache-hostile
/// access pattern (LOCALSEARCH scans every row against every tile) into
/// terabytes of re-reads; instead a miss normally computes the single pair
/// from the packed labels — bit-identical to the stored value — and only
/// every `RELOAD_PERIOD`-th miss rotates a fresh tile into the cache.
const RELOAD_PERIOD: u64 = 1 << 18;

/// Why a spill store could not be built or maintained.
#[derive(Debug)]
pub enum SpillError {
    /// The run budget tripped (deadline, cancellation) while tiles were
    /// being built; the consensus layer converts this into its usual
    /// anytime handling.
    Interrupted(Interrupt),
    /// Tile I/O failed persistently (out of disk space, unwritable
    /// directory) even after retries. The consensus layer records a typed
    /// warning and degrades to the lazy oracle.
    Io {
        /// The file or directory the failed operation touched.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        error: String,
    },
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Interrupted(i) => write!(f, "spill interrupted: {i:?}"),
            SpillError::Io { path, error } => {
                write!(f, "spill I/O failed at {}: {error}", path.display())
            }
        }
    }
}

/// Where and how to spill.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Directory receiving the tile frames (created if absent).
    pub dir: PathBuf,
    /// Tile payload size in bytes; `0` picks a size from the budget's
    /// memory headroom (`headroom / 4`, clamped to `[4 KiB, 8 MiB]`) so a
    /// few tiles can stay pinned under the cap.
    pub tile_bytes: u64,
    /// Retry policy for tile writes.
    pub retry: RetryPolicy,
}

impl SpillConfig {
    /// Spill into `dir` with auto-sized tiles and default retries.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            dir: dir.into(),
            tile_bytes: 0,
            retry: RetryPolicy::default(),
        }
    }

    /// Override the tile payload size (builder style).
    pub fn with_tile_bytes(mut self, bytes: u64) -> Self {
        self.tile_bytes = bytes;
        self
    }
}

/// One tile resident in RAM, holding its budget charge for as long as any
/// reader keeps it alive. Dropping the last [`Arc`] releases the charge.
#[derive(Debug)]
struct PinnedTile {
    data: Vec<f64>,
    _charge: Option<MemCharge>,
}

#[derive(Debug)]
struct CacheEntry {
    tile: Arc<PinnedTile>,
    last_used: u64,
}

/// The LRU-pinned tile cache. One mutex guards the map; the hot path
/// (repeated hits on the same tile) is served lock-free by a thread-local
/// memo of the last tile touched.
#[derive(Debug, Default)]
struct TileCache {
    entries: HashMap<u32, CacheEntry>,
    tick: u64,
}

impl TileCache {
    fn touch(&mut self, tile: u32) -> Option<Arc<PinnedTile>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&tile).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.tile)
        })
    }

    fn insert(&mut self, tile: u32, pinned: Arc<PinnedTile>) {
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(
            tile,
            CacheEntry {
                tile: pinned,
                last_used: tick,
            },
        );
    }

    /// Drop the least-recently-used entry. Returns `false` when empty.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&t, _)| t);
        match victim {
            Some(t) => {
                self.entries.remove(&t);
                telemetry::metrics().spill_evictions.incr_if_enabled();
                true
            }
            None => false,
        }
    }
}

thread_local! {
    // (oracle id, tile index, tile) — a Weak reference, so a memoized tile
    // never outlives its eviction: the cache dropping the last strong Arc
    // releases the memory charge immediately, and the memo just misses.
    static TILE_MEMO: std::cell::RefCell<(u64, u32, Weak<PinnedTile>)> =
        const { std::cell::RefCell::new((0, 0, Weak::new())) };
}

static NEXT_ORACLE_ID: AtomicU64 = AtomicU64::new(1);

/// A [`DistanceOracle`] over the full condensed matrix with the matrix
/// itself living on disk: checksummed tile frames in a spill directory, an
/// LRU-pinned in-RAM cache sized by the run budget, and the packed label
/// matrix as the recovery source for corrupt or missing tiles.
///
/// Reads are bit-identical to a [`crate::instance::DenseOracle`] built from
/// the same instance, at any thread count.
#[derive(Debug)]
pub struct SpilledOracle {
    id: u64,
    n: usize,
    lazy: ClusteringsOracle,
    fingerprint: u64,
    dir: PathBuf,
    retry: RetryPolicy,
    /// First row of each tile (ascending); tile `t` covers rows
    /// `row_starts[t]..row_starts[t + 1]` (or `..n − 1` for the last).
    row_starts: Vec<usize>,
    /// Global condensed offset where each tile's slice begins.
    pair_offsets: Vec<usize>,
    /// Pairs per tile.
    tile_pairs: Vec<usize>,
    cache: Mutex<TileCache>,
    misses: AtomicU64,
    budget: RunBudget,
    // Keeps the packed label matrix (the rebuild source) on the books for
    // as long as the oracle lives.
    _packed_charge: MemCharge,
}

impl SpilledOracle {
    /// Build the spill store for `instance`: lay the condensed triangle out
    /// as tiles, construct each tile with the same kernels as the dense
    /// fill, write it to `config.dir` as a checksummed frame (retried per
    /// `config.retry`), and pin as many tiles in RAM as `budget` allows —
    /// evicting least-recently-written tiles once the budget refuses more.
    ///
    /// Valid frames already present in the directory (orphans of a killed
    /// run, matched by fingerprint and layout) are **reclaimed**: their tile
    /// skips the build and the write. Budget deadline/cancellation is polled
    /// between tiles and reported as [`SpillError::Interrupted`]; a write
    /// that fails after retries is [`SpillError::Io`].
    pub fn try_build(
        instance: &CorrelationInstance,
        budget: &RunBudget,
        config: &SpillConfig,
    ) -> Result<SpilledOracle, SpillError> {
        let n = instance.len();
        let lazy = instance.lazy_oracle();
        let packed_charge = budget.mem_gauge().charge(lazy.packed_bytes());
        let fingerprint = instance_fingerprint(instance.inputs(), lazy.policy());
        let tile_bytes = if config.tile_bytes > 0 {
            config.tile_bytes
        } else {
            let headroom = budget.headroom_bytes().unwrap_or(DEFAULT_TILE_BYTES * 4);
            (headroom / 4).clamp(MIN_TILE_BYTES, DEFAULT_TILE_BYTES)
        };
        let (row_starts, pair_offsets, tile_pairs) = tile_layout(n, (tile_bytes / 8).max(1));
        crate::iofs::create_dir_all("spill.create_dir", &config.dir).map_err(|e| {
            SpillError::Io {
                path: config.dir.clone(),
                error: e.to_string(),
            }
        })?;

        let oracle = SpilledOracle {
            id: NEXT_ORACLE_ID.fetch_add(1, Ordering::Relaxed),
            n,
            lazy,
            fingerprint,
            dir: config.dir.clone(),
            retry: config.retry,
            row_starts,
            pair_offsets,
            tile_pairs,
            cache: Mutex::new(TileCache::default()),
            misses: AtomicU64::new(0),
            budget: budget.clone(),
            _packed_charge: packed_charge,
        };

        for t in 0..oracle.tiles() {
            budget.poll().map_err(SpillError::Interrupted)?;
            let path = oracle.tile_path(t as u32);
            // Reclaim a valid orphaned frame before spending the build.
            let data = match oracle.read_valid_frame(&path, t as u32) {
                Some(data) => {
                    telemetry::metrics().spill_tiles_read.incr_if_enabled();
                    data
                }
                None => {
                    let data = oracle.build_tile_data(t);
                    oracle.write_tile(&path, t as u32, &data)?;
                    data
                }
            };
            oracle.pin_with_eviction(t as u32, data);
        }
        Ok(oracle)
    }

    /// Number of tiles in the layout.
    pub fn tiles(&self) -> usize {
        self.row_starts.len()
    }

    /// The directory holding this oracle's tile frames.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The frame fingerprint tying tiles to this instance.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn tile_path(&self, tile: u32) -> PathBuf {
        self.dir.join(format!("tile-{tile:05}.bin"))
    }

    /// The tile covering row `u` (callers guarantee `u < n − 1`).
    fn tile_of_row(&self, u: usize) -> u32 {
        (self.row_starts.partition_point(|&s| s <= u) - 1) as u32
    }

    fn tile_rows(&self, tile: u32) -> Range<usize> {
        let t = tile as usize;
        let end = self
            .row_starts
            .get(t + 1)
            .copied()
            .unwrap_or(self.n.saturating_sub(1));
        self.row_starts[t]..end
    }

    /// Compute a tile's condensed slice from the packed labels — the same
    /// fill and the same per-pair values as the dense build, restricted to
    /// the tile's row range.
    fn build_tile_data(&self, tile: usize) -> Vec<f64> {
        // Account the tile's bytes on the gauge while it is being built
        // (transient scratch; pinning re-charges through try_reserve).
        let _scratch_charge = self
            .budget
            .mem_gauge()
            .charge((self.tile_pairs[tile] * 8) as u64);
        let rows = self.tile_rows(tile as u32);
        // An unlimited budget never trips: a tile rebuild serves a read.
        self.lazy
            .try_fill_rows(rows, &RunBudget::unlimited())
            .unwrap_or_default()
    }

    fn encode_frame(&self, tile: u32, data: &[f64]) -> Vec<u8> {
        let rows = self.tile_rows(tile);
        let mut w = Writer::new();
        w.put_u64(self.fingerprint);
        w.put_u64(self.n as u64);
        w.put_u64(u64::from(tile));
        w.put_u64(rows.start as u64);
        w.put_u64(rows.end as u64);
        w.put_u64(data.len() as u64);
        for &x in data {
            w.put_f64(x);
        }
        encode_envelope(&SPILL_MAGIC, SPILL_VERSION, &w.buf)
    }

    /// Decode and fully validate a frame against this oracle's layout.
    fn decode_frame(&self, tile: u32, bytes: &[u8]) -> Result<Vec<f64>, String> {
        let body = decode_envelope(&SPILL_MAGIC, SPILL_VERSION, bytes)?;
        let mut r = Reader::new(body);
        let fingerprint = r.take_u64("fingerprint")?;
        if fingerprint != self.fingerprint {
            return Err(format!(
                "fingerprint mismatch: frame {fingerprint:#018x}, instance {:#018x}",
                self.fingerprint
            ));
        }
        let n = r.take_u64("n")?;
        let frame_tile = r.take_u64("tile_index")?;
        let row_start = r.take_u64("row_start")?;
        let row_end = r.take_u64("row_end")?;
        let rows = self.tile_rows(tile);
        if n != self.n as u64
            || frame_tile != u64::from(tile)
            || row_start != rows.start as u64
            || row_end != rows.end as u64
        {
            return Err(format!(
                "layout mismatch: frame covers tile {frame_tile} rows {row_start}..{row_end} \
                 of n = {n}, expected tile {tile} rows {rows:?} of n = {}",
                self.n
            ));
        }
        let len = r.take_len(8, "tile data")?;
        if len != self.tile_pairs[tile as usize] {
            return Err(format!(
                "length mismatch: frame holds {len} pairs, tile {tile} has {}",
                self.tile_pairs[tile as usize]
            ));
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(r.take_f64("tile entry")?);
        }
        if r.remaining() != 0 {
            return Err(format!("{} trailing payload bytes", r.remaining()));
        }
        Ok(data)
    }

    /// Read a frame and return its data only if it validates completely;
    /// any failure (missing, torn, corrupt, wrong instance) is `None`.
    fn read_valid_frame(&self, path: &Path, tile: u32) -> Option<Vec<f64>> {
        let bytes = crate::iofs::read("spill.read", path).ok()?;
        self.decode_frame(tile, &bytes).ok()
    }

    /// Write a tile frame with retries; persistent failure is the one
    /// spill error that is not recoverable from the labels. Retry backoff
    /// is supervised by the run budget, so a dying disk cannot sleep the
    /// run past its deadline.
    fn write_tile(&self, path: &Path, tile: u32, data: &[f64]) -> Result<(), SpillError> {
        let bytes = self.encode_frame(tile, data);
        let seed = self.fingerprint ^ u64::from(tile);
        self.retry
            .run_supervised(seed, Some(&self.budget), || {
                crate::iofs::write_file_atomic("spill", path, &bytes)
            })
            .map_err(|e| SpillError::Io {
                path: path.to_path_buf(),
                error: e.to_string(),
            })?;
        let m = telemetry::metrics();
        m.spill_tiles_written.incr_if_enabled();
        m.spill_bytes_hist.observe_if_enabled(bytes.len() as f64);
        Ok(())
    }

    /// Pin `data` in the cache, evicting least-recently-used tiles while
    /// the budget refuses the reservation. If the cache is empty and the
    /// budget still refuses, the tile stays unpinned (disk + bypass serve
    /// it).
    fn pin_with_eviction(&self, tile: u32, data: Vec<f64>) -> Option<Arc<PinnedTile>> {
        let bytes = (data.len() * 8) as u64;
        let mut cache = lock_cache(&self.cache);
        loop {
            match self.budget.try_reserve(bytes) {
                Ok(charge) => {
                    let pinned = Arc::new(PinnedTile {
                        data,
                        _charge: Some(charge),
                    });
                    cache.insert(tile, Arc::clone(&pinned));
                    return Some(pinned);
                }
                Err(_) => {
                    if !cache.evict_lru() {
                        return None;
                    }
                }
            }
        }
    }

    /// Fetch a tile for a read miss, honoring the anti-thrash policy:
    /// pin without eviction when the budget has headroom, rotate the LRU
    /// tile out every [`RELOAD_PERIOD`] misses, and otherwise return
    /// `None` so the caller computes the pair from the packed labels.
    fn fetch_tile(&self, tile: u32) -> Option<Arc<PinnedTile>> {
        {
            let mut cache = lock_cache(&self.cache);
            if let Some(hit) = cache.touch(tile) {
                telemetry::metrics().spill_cache_hits.incr_if_enabled();
                return Some(hit);
            }
        }
        let bytes = (self.tile_pairs[tile as usize] * 8) as u64;
        // Free headroom: pin without evicting anyone.
        if let Ok(charge) = self.budget.try_reserve(bytes) {
            let data = self.load_or_rebuild(tile);
            let pinned = Arc::new(PinnedTile {
                data,
                _charge: Some(charge),
            });
            lock_cache(&self.cache).insert(tile, Arc::clone(&pinned));
            return Some(pinned);
        }
        // No headroom: only every RELOAD_PERIOD-th miss pays for an
        // evict-and-reload; the rest are served by the lazy bypass.
        let miss = self.misses.fetch_add(1, Ordering::Relaxed);
        if !miss.is_multiple_of(RELOAD_PERIOD) {
            return None;
        }
        let data = self.load_or_rebuild(tile);
        self.pin_with_eviction(tile, data)
    }

    /// Load a tile from its frame, rebuilding from the packed labels (and
    /// best-effort rewriting the frame) when the read does not validate.
    fn load_or_rebuild(&self, tile: u32) -> Vec<f64> {
        let path = self.tile_path(tile);
        match self.read_valid_frame(&path, tile) {
            Some(data) => {
                telemetry::metrics().spill_tiles_read.incr_if_enabled();
                data
            }
            None => {
                telemetry::metrics().spill_tiles_rebuilt.incr_if_enabled();
                crate::warn!(
                    "spilled tile unreadable or corrupt; rebuilding from labels",
                    tile = u64::from(tile),
                    path = path.display().to_string()
                );
                let data = self.build_tile_data(tile as usize);
                // Best-effort repair: a failed rewrite leaves the rebuild
                // path to serve future reads of this tile.
                if self.write_tile(&path, tile, &data).is_err() {
                    crate::warn!(
                        "could not rewrite rebuilt tile; keeping the in-RAM copy only",
                        tile = u64::from(tile)
                    );
                }
                data
            }
        }
    }
}

fn lock_cache(cache: &Mutex<TileCache>) -> std::sync::MutexGuard<'_, TileCache> {
    // A poisoned lock means a reader panicked between map operations, none
    // of which leaves the map structurally broken — recover and continue.
    cache
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl DistanceOracle for SpilledOracle {
    fn len(&self) -> usize {
        self.n
    }

    fn dist(&self, u: usize, v: usize) -> f64 {
        if u == v {
            return 0.0;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let tile = self.tile_of_row(a);
        let local = condensed_index(self.n, a, b) - self.pair_offsets[tile as usize];
        // Same-tile fast path: the last tile this thread touched, held
        // weakly so eviction is never delayed by the memo.
        let memoized = TILE_MEMO.with(|memo| {
            let m = memo.borrow();
            if m.0 == self.id && m.1 == tile {
                m.2.upgrade()
            } else {
                None
            }
        });
        if let Some(pinned) = memoized {
            let m = telemetry::metrics();
            m.spill_cache_hits.incr_if_enabled();
            m.oracle_dense_evals.incr_if_enabled();
            return pinned.data[local];
        }
        match self.fetch_tile(tile) {
            Some(pinned) => {
                let d = pinned.data[local];
                TILE_MEMO.with(|memo| {
                    *memo.borrow_mut() = (self.id, tile, Arc::downgrade(&pinned));
                });
                telemetry::metrics().oracle_dense_evals.incr_if_enabled();
                d
            }
            // Bypass: recompute the single pair from the packed labels —
            // bit-identical to the stored entry (both are the same pure
            // per-pair function of the inputs).
            None => {
                telemetry::metrics().spill_cache_bypass.incr_if_enabled();
                self.lazy.dist(a, b)
            }
        }
    }

    fn num_clusterings(&self) -> Option<usize> {
        Some(self.lazy.clusterings().len())
    }

    fn preferred_band(&self) -> usize {
        self.lazy.preferred_band()
    }
}

/// Greedy pair-balanced tile layout: walk rows `0..n − 1` accumulating
/// `n − 1 − u` pairs per row, cutting a tile whenever the running count
/// reaches `tile_pairs`. Returns (first row per tile, global condensed
/// offset per tile, pairs per tile). A single early row can exceed
/// `tile_pairs` by itself (row 0 alone holds `n − 1` pairs); such a row
/// becomes its own over-full tile rather than being split, keeping every
/// tile a contiguous row range.
fn tile_layout(n: usize, tile_pairs: u64) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut row_starts = Vec::new();
    let mut pair_offsets = Vec::new();
    let mut tile_sizes = Vec::new();
    let mut offset = 0usize;
    let mut u = 0usize;
    while u + 1 < n {
        row_starts.push(u);
        pair_offsets.push(offset);
        let mut pairs = 0usize;
        while u + 1 < n && (pairs == 0 || (pairs + (n - 1 - u)) as u64 <= tile_pairs) {
            pairs += n - 1 - u;
            u += 1;
        }
        tile_sizes.push(pairs);
        offset += pairs;
    }
    (row_starts, pair_offsets, tile_sizes)
}

/// FNV-1a 64 fingerprint of the instance content: `n`, `m`, the missing
/// policy, and every label of every input (missing = a sentinel). Two
/// instances share a fingerprint exactly when they would produce the same
/// tiles, which is what lets `--resume` safely reclaim orphaned frames.
fn instance_fingerprint(inputs: &[PartialClustering], policy: MissingPolicy) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    let n = inputs.first().map_or(0, |c| c.len());
    eat(n as u64);
    eat(inputs.len() as u64);
    match policy {
        MissingPolicy::Ignore => eat(1),
        MissingPolicy::Coin(p) => {
            eat(2);
            eat(p.to_bits());
        }
    }
    for clustering in inputs {
        for v in 0..clustering.len() {
            match clustering.label(v) {
                Some(label) => eat(u64::from(label)),
                None => eat(u64::from(u32::MAX) + 1),
            }
        }
    }
    h
}

/// Remove every tile frame (and in-flight `.tmp` write) from `dir`, then
/// the directory itself if it ends up empty. Errors are swallowed — spill
/// cleanup is best-effort and must never fail a converged run. Returns the
/// number of frames removed.
pub fn cleanup_spill_dir(dir: &Path) -> usize {
    let mut removed = 0usize;
    let entries = match crate::iofs::read_dir("spill.cleanup", dir) {
        Ok(entries) => entries,
        Err(_) => return 0,
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("tile-")
            && (name.ends_with(".bin") || name.ends_with(".bin.tmp"))
            && crate::iofs::remove_file("spill.cleanup", &entry.path()).is_ok()
        {
            removed += 1;
        }
    }
    let _ = crate::iofs::remove_dir("spill.cleanup", dir);
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use crate::parallel::with_num_threads;

    fn adversarial_instance(n: usize, m: usize) -> CorrelationInstance {
        let clusterings: Vec<Clustering> = (0..m)
            .map(|i| {
                Clustering::from_labels(
                    (0..n)
                        .map(|v| ((v * (i + 2) + i * 7) % (3 + i)) as u32)
                        .collect(),
                )
            })
            .collect();
        CorrelationInstance::from_clusterings(&clusterings)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aggclust_spill_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn tile_layout_partitions_the_triangle() {
        for n in [0usize, 1, 2, 3, 10, 97, 500] {
            for tile_pairs in [1u64, 7, 64, 10_000] {
                let (rows, offsets, sizes) = tile_layout(n, tile_pairs);
                assert_eq!(rows.len(), offsets.len());
                assert_eq!(rows.len(), sizes.len());
                let total: usize = sizes.iter().sum();
                assert_eq!(total, n * n.saturating_sub(1) / 2, "n={n} tp={tile_pairs}");
                let mut expect_offset = 0usize;
                let mut expect_row = 0usize;
                for ((&r, &o), &s) in rows.iter().zip(&offsets).zip(&sizes) {
                    assert_eq!(r, expect_row);
                    assert_eq!(o, expect_offset);
                    assert!(s > 0, "empty tile at n={n} tp={tile_pairs}");
                    // Advance expect_row by the rows this tile consumed.
                    let mut pairs = 0usize;
                    while pairs < s {
                        pairs += n - 1 - expect_row;
                        expect_row += 1;
                    }
                    assert_eq!(pairs, s, "tile not row-aligned");
                    expect_offset += s;
                }
            }
        }
    }

    #[test]
    fn spilled_oracle_matches_dense_bit_for_bit() {
        let _guard = crate::telemetry::global_state_lock();
        let instance = adversarial_instance(60, 5);
        let dense = instance.dense_oracle();
        let dir = temp_dir("match_dense");
        // A budget tight enough that only a tile or two stays pinned.
        let budget = RunBudget::unlimited().with_mem_limit_bytes(4096);
        let config = SpillConfig::new(&dir).with_tile_bytes(1024);
        let spilled = SpilledOracle::try_build(&instance, &budget, &config).expect("build");
        assert!(spilled.tiles() > 1);
        for u in 0..60 {
            for v in 0..60 {
                assert_eq!(
                    spilled.dist(u, v).to_bits(),
                    dense.dist(u, v).to_bits(),
                    "({u},{v})"
                );
            }
        }
        drop(spilled);
        assert!(cleanup_spill_dir(&dir) > 0);
        assert!(!dir.exists());
    }

    #[test]
    fn spilled_oracle_is_identical_across_thread_counts() {
        let _guard = crate::telemetry::global_state_lock();
        let instance = adversarial_instance(50, 4);
        let dir1 = temp_dir("threads_1");
        let dir4 = temp_dir("threads_4");
        let collect = |dir: &Path| {
            let budget = RunBudget::unlimited().with_mem_limit_bytes(2048);
            let config = SpillConfig::new(dir).with_tile_bytes(512);
            let spilled = SpilledOracle::try_build(&instance, &budget, &config).expect("build");
            let mut out = Vec::new();
            for u in 0..50 {
                for v in u + 1..50 {
                    out.push(spilled.dist(u, v).to_bits());
                }
            }
            out
        };
        let one = with_num_threads(1, || collect(&dir1));
        let four = with_num_threads(4, || collect(&dir4));
        assert_eq!(one, four);
        cleanup_spill_dir(&dir1);
        cleanup_spill_dir(&dir4);
    }

    #[test]
    fn partial_inputs_spill_identically_to_dense() {
        let _guard = crate::telemetry::global_state_lock();
        let p = |labels: &[i64]| {
            PartialClustering::from_labels(
                labels
                    .iter()
                    .map(|&l| if l < 0 { None } else { Some(l as u32) })
                    .collect(),
            )
        };
        let n = 40;
        let inputs: Vec<PartialClustering> = (0..4)
            .map(|i| {
                let labels: Vec<i64> = (0..n)
                    .map(|v| {
                        if (v + i) % 7 == 0 {
                            -1
                        } else {
                            ((v * (i + 2)) % 4) as i64
                        }
                    })
                    .collect();
                p(&labels)
            })
            .collect();
        let instance =
            CorrelationInstance::try_from_partial(inputs, MissingPolicy::Coin(0.25)).expect("ok");
        let dense = instance.dense_oracle();
        let dir = temp_dir("partial");
        let budget = RunBudget::unlimited().with_mem_limit_bytes(2048);
        let config = SpillConfig::new(&dir).with_tile_bytes(512);
        let spilled = SpilledOracle::try_build(&instance, &budget, &config).expect("build");
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    spilled.dist(u, v).to_bits(),
                    dense.dist(u, v).to_bits(),
                    "({u},{v})"
                );
            }
        }
        cleanup_spill_dir(&dir);
    }

    #[test]
    fn every_bit_flip_in_a_frame_rebuilds_to_correct_values() {
        let _guard = crate::telemetry::global_state_lock();
        let instance = adversarial_instance(12, 3);
        let dense = instance.dense_oracle();
        let dir = temp_dir("bitflip");
        let budget = RunBudget::unlimited().with_mem_limit_bytes(256);
        let config = SpillConfig::new(&dir).with_tile_bytes(128);
        let spilled = SpilledOracle::try_build(&instance, &budget, &config).expect("build");
        let path = spilled.tile_path(0);
        let clean = std::fs::read(&path).expect("read frame");
        crate::test_support::for_each_bit_flip(
            &clean,
            &crate::test_support::ALL_BITS,
            |byte, bit, corrupt| {
                std::fs::write(&path, corrupt).expect("write corrupt");
                // A fresh read either validates (flip was in slack the CRC
                // does not cover — impossible for a single flip) or
                // rebuilds; both must produce the dense values.
                let data = spilled.load_or_rebuild(0);
                let rows = spilled.tile_rows(0);
                let mut i = 0usize;
                for u in rows {
                    for v in u + 1..12 {
                        assert_eq!(
                            data[i].to_bits(),
                            dense.dist(u, v).to_bits(),
                            "flip {byte}:{bit} pair ({u},{v})"
                        );
                        i += 1;
                    }
                }
            },
        );
        // Truncations likewise: never a panic, always correct values.
        crate::test_support::for_each_truncation(&clean, |_len, prefix| {
            std::fs::write(&path, prefix).expect("write truncated");
            let data = spilled.load_or_rebuild(0);
            assert_eq!(data.len(), spilled.tile_pairs[0]);
        });
        cleanup_spill_dir(&dir);
    }

    #[test]
    fn orphaned_frames_are_reclaimed_not_rebuilt() {
        let _guard = crate::telemetry::global_state_lock();
        let instance = adversarial_instance(30, 3);
        let dir = temp_dir("reclaim");
        let budget = RunBudget::unlimited().with_mem_limit_bytes(2048);
        let config = SpillConfig::new(&dir).with_tile_bytes(512);
        let first = SpilledOracle::try_build(&instance, &budget, &config).expect("build");
        let tiles = first.tiles();
        drop(first);
        // Frames are still on disk — a second build must reclaim them.
        crate::telemetry::set_metrics_enabled(true);
        let before = crate::telemetry::MetricsSnapshot::capture();
        let budget2 = RunBudget::unlimited().with_mem_limit_bytes(2048);
        let second = SpilledOracle::try_build(&instance, &budget2, &config).expect("rebuild");
        let delta = crate::telemetry::MetricsSnapshot::capture().diff(&before);
        crate::telemetry::set_metrics_enabled(false);
        assert_eq!(second.tiles(), tiles);
        assert_eq!(delta.spill_tiles_read, tiles as u64, "all frames reclaimed");
        assert_eq!(delta.spill_tiles_written, 0, "no frame rewritten");
        // A *different* instance must not trust those frames.
        let other = adversarial_instance(30, 4);
        let dense = other.dense_oracle();
        drop(second);
        let budget3 = RunBudget::unlimited().with_mem_limit_bytes(2048);
        let third = SpilledOracle::try_build(&other, &budget3, &config).expect("build other");
        for u in 0..30 {
            for v in 0..30 {
                assert_eq!(third.dist(u, v).to_bits(), dense.dist(u, v).to_bits());
            }
        }
        cleanup_spill_dir(&dir);
    }

    #[test]
    fn unwritable_spill_dir_is_a_typed_io_error() {
        let _guard = crate::telemetry::global_state_lock();
        let instance = adversarial_instance(20, 3);
        let budget = RunBudget::unlimited().with_mem_limit_bytes(1024);
        // A file where the directory should be: create_dir_all fails.
        let blocker = std::env::temp_dir().join("aggclust_spill_blocker");
        std::fs::write(&blocker, b"not a directory").expect("write blocker");
        let config = SpillConfig::new(blocker.join("tiles")).with_tile_bytes(256);
        match SpilledOracle::try_build(&instance, &budget, &config) {
            Err(SpillError::Io { .. }) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn cancellation_interrupts_the_build() {
        let _guard = crate::telemetry::global_state_lock();
        let instance = adversarial_instance(40, 3);
        let token = crate::robust::CancelToken::new();
        token.cancel();
        let budget = RunBudget::unlimited()
            .with_mem_limit_bytes(1024)
            .with_cancel_token(token);
        let dir = temp_dir("cancel");
        let config = SpillConfig::new(&dir).with_tile_bytes(256);
        match SpilledOracle::try_build(&instance, &budget, &config) {
            Err(SpillError::Interrupted(Interrupt::Cancelled)) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        cleanup_spill_dir(&dir);
    }

    #[test]
    fn fingerprint_distinguishes_instances_and_policies() {
        let a = adversarial_instance(10, 3);
        let b = adversarial_instance(10, 4);
        let fa = instance_fingerprint(a.inputs(), MissingPolicy::Coin(0.5));
        assert_eq!(
            fa,
            instance_fingerprint(a.inputs(), MissingPolicy::Coin(0.5))
        );
        assert_ne!(
            fa,
            instance_fingerprint(b.inputs(), MissingPolicy::Coin(0.5))
        );
        assert_ne!(fa, instance_fingerprint(a.inputs(), MissingPolicy::Ignore));
        assert_ne!(
            fa,
            instance_fingerprint(a.inputs(), MissingPolicy::Coin(0.25))
        );
    }

    #[test]
    fn cache_hits_and_bypass_are_counted() {
        let _guard = crate::telemetry::global_state_lock();
        let instance = adversarial_instance(60, 5);
        // Roomy budget: every tile stays pinned from the build, so reads
        // are LRU/memo hits.
        let roomy_dir = temp_dir("hitcount-roomy");
        let roomy_budget = RunBudget::unlimited().with_mem_limit_bytes(1 << 20);
        let roomy_config = SpillConfig::new(&roomy_dir).with_tile_bytes(512);
        let roomy =
            SpilledOracle::try_build(&instance, &roomy_budget, &roomy_config).expect("build");
        crate::telemetry::set_metrics_enabled(true);
        let before = crate::telemetry::MetricsSnapshot::capture();
        let mut scan = 0.0;
        for u in 0..60 {
            for v in u + 1..60 {
                scan += roomy.dist(u, v);
            }
        }
        assert!(scan > 0.0);
        let delta = crate::telemetry::MetricsSnapshot::capture().diff(&before);
        crate::telemetry::set_metrics_enabled(false);
        assert!(
            delta.spill_cache_hits > 0,
            "resident-tile lookups must count as cache hits"
        );
        cleanup_spill_dir(&roomy_dir);

        // Tight cap: the scan runs past the pinned set and the anti-thrash
        // policy serves most misses from the lazy bypass.
        let tight_dir = temp_dir("hitcount-tight");
        let tight_budget = RunBudget::unlimited().with_mem_limit_bytes(2048);
        let tight_config = SpillConfig::new(&tight_dir).with_tile_bytes(512);
        let tight =
            SpilledOracle::try_build(&instance, &tight_budget, &tight_config).expect("build");
        assert!(tight.tiles() > 1, "need multiple tiles to observe misses");
        crate::telemetry::set_metrics_enabled(true);
        let before = crate::telemetry::MetricsSnapshot::capture();
        let mut scan = 0.0;
        for u in 0..60 {
            for v in u + 1..60 {
                scan += tight.dist(u, v);
            }
        }
        assert!(scan > 0.0);
        let delta = crate::telemetry::MetricsSnapshot::capture().diff(&before);
        crate::telemetry::set_metrics_enabled(false);
        assert!(
            delta.spill_cache_bypass > 0,
            "anti-thrash misses must count as bypasses"
        );
        cleanup_spill_dir(&tight_dir);
    }

    #[test]
    fn eviction_frees_budget_and_counts() {
        let _guard = crate::telemetry::global_state_lock();
        let instance = adversarial_instance(60, 5);
        let dir = temp_dir("evict");
        crate::telemetry::set_metrics_enabled(true);
        let before = crate::telemetry::MetricsSnapshot::capture();
        let budget = RunBudget::unlimited().with_mem_limit_bytes(4096);
        let config = SpillConfig::new(&dir).with_tile_bytes(1024);
        let spilled = SpilledOracle::try_build(&instance, &budget, &config).expect("build");
        let delta = crate::telemetry::MetricsSnapshot::capture().diff(&before);
        crate::telemetry::set_metrics_enabled(false);
        assert_eq!(delta.spill_tiles_written, spilled.tiles() as u64);
        assert!(
            delta.spill_evictions > 0,
            "write-through pinning under a tight cap must evict"
        );
        // The pinned set respects the cap.
        assert!(budget.mem_gauge().used_bytes() <= 4096 + spilled.lazy.packed_bytes());
        cleanup_spill_dir(&dir);
    }
}
