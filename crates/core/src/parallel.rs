//! Deterministic data-parallel execution layer.
//!
//! Every `O(n²)` kernel in this crate — oracle materialization, the cost
//! functions, and the per-node scans inside BALLS, FURTHEST, AGGLOMERATIVE
//! and LOCALSEARCH — funnels through the primitives in this module. The
//! design goal is *bit-identical results at any thread count*, so the
//! worker count can never change what an algorithm returns:
//!
//! * Work is split into **fixed chunks whose boundaries depend only on the
//!   problem size**, never on the number of worker threads.
//! * Floating-point reductions compute one partial per chunk (each partial
//!   accumulated in ascending index order) and combine the partials
//!   **sequentially in chunk order**. Arg-max combines keep the
//!   earliest-index winner on ties, matching a serial strict-comparison
//!   scan.
//! * At one thread the *same* chunked schedule runs sequentially on the
//!   calling thread, so one thread and many agree bit-for-bit.
//!
//! Threads are plain `std::thread::scope` workers draining a shared queue
//! of chunk jobs; the environment is expected to be offline, so no external
//! thread-pool crate is used. The worker count comes from, in order of
//! precedence: a scoped [`with_num_threads`] override (used by the
//! determinism tests to compare thread counts inside one process), the
//! `RAYON_NUM_THREADS` environment variable (read once), and
//! `std::thread::available_parallelism`. At a count of 1 no threads are
//! ever spawned.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

use crate::robust::{Interrupt, RunBudget};

/// Upper bound on the number of chunks a task is split into. More chunks
/// than threads keeps the shared queue effective at balancing uneven work;
/// the constant is fixed so chunk boundaries never depend on thread count.
const TARGET_CHUNKS: usize = 128;

/// Minimum elements per chunk for index-spaces (slices, rows): below this,
/// per-chunk scheduling overhead dominates the work.
const MIN_CHUNK_ITEMS: usize = 1024;

/// Minimum pairs per chunk for pair-spaces (`n(n−1)/2` triangles).
const MIN_CHUNK_PAIRS: usize = 8192;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

fn env_threads() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The number of worker threads parallel primitives may use on this thread.
///
/// Results never depend on this value — only wall-clock time does.
pub fn current_num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.get() {
        return n;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` with the worker-thread count pinned to `threads` (minimum 1) on
/// the current thread, restoring the previous setting afterwards (also on
/// panic). Intended for tests and benchmarks that compare thread counts
/// within one process; production callers should prefer the
/// `RAYON_NUM_THREADS` environment variable.
pub fn with_num_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.replace(Some(threads.max(1))));
    f()
}

/// Execute every job, in parallel when the thread count allows.
/// Job order of *execution* is unspecified; callers must make each job
/// write to disjoint state (typically a `&mut` chunk or partial slot).
fn run_jobs<T, F>(jobs: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    if jobs.len() > 1 {
        let threads = current_num_threads().min(jobs.len());
        if threads > 1 {
            let queue = std::sync::Mutex::new(jobs.into_iter());
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        // A worker can only have panicked inside `f`, which
                        // never leaves a partially-updated job; recover the
                        // queue so the remaining workers drain it.
                        let job = queue
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .next();
                        match job {
                            Some(job) => f(job),
                            None => break,
                        }
                    });
                }
            });
            return;
        }
    }
    for job in jobs {
        f(job);
    }
}

/// Chunk size for a `len`-element index space (function of `len` only).
fn chunk_size(len: usize) -> usize {
    len.div_ceil(TARGET_CHUNKS).max(MIN_CHUNK_ITEMS)
}

/// Split `0..len` into consecutive ranges of roughly equal total `weight`,
/// with at most `TARGET_CHUNKS` ranges and at least `min_weight` per
/// range. Boundaries are a pure function of the weights, so reductions
/// chunked this way are deterministic.
pub fn balanced_ranges(
    len: usize,
    min_weight: usize,
    weight: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let total: usize = (0..len).map(&weight).sum();
    let target = total.div_ceil(TARGET_CHUNKS).max(min_weight).max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for i in 0..len {
        acc += weight(i);
        if acc >= target {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < len {
        ranges.push(start..len);
    }
    ranges
}

/// Row ranges covering `0..n` such that each range holds roughly the same
/// number of pairs `(u, v)` with `u` in the range and `u < v < n`.
fn row_ranges(n: usize) -> Vec<Range<usize>> {
    balanced_ranges(n, MIN_CHUNK_PAIRS, |u| n - 1 - u)
}

/// In-place parallel update: calls `f(i, &mut out[i])` for every index.
pub fn update_slice<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let cs = chunk_size(out.len());
    let mut jobs: Vec<(usize, &mut [T])> = Vec::new();
    let mut start = 0usize;
    for chunk in out.chunks_mut(cs.max(1)) {
        let len = chunk.len();
        jobs.push((start, chunk));
        start += len;
    }
    run_jobs(jobs, |(start, chunk)| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            f(start + i, slot);
        }
    });
}

/// Parallel map into a slice: `out[i] = f(i)`.
pub fn fill_slice<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    update_slice(out, |i, slot| *slot = f(i));
}

/// Deterministic sum of `f(job)` over a fixed job list, one partial per
/// job, combined in job order. The caller fixes the job boundaries (e.g.
/// via [`balanced_ranges`]) so the grouping is independent of thread count.
pub fn sum_jobs<T, F>(jobs: Vec<T>, f: F) -> f64
where
    T: Send,
    F: Fn(T) -> f64 + Sync,
{
    let mut partials = vec![0.0f64; jobs.len()];
    let zipped: Vec<(T, &mut f64)> = jobs.into_iter().zip(partials.iter_mut()).collect();
    run_jobs(zipped, |(job, slot)| *slot = f(job));
    partials.into_iter().sum()
}

/// Deterministic sum of `f(u, v)` over all pairs `u < v < n`, chunked by
/// row ranges; within a chunk pairs are visited in `(u asc, v asc)` order.
pub fn sum_pairs<F>(n: usize, f: F) -> f64
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    sum_jobs(row_ranges(n), |rows| {
        let mut acc = 0.0;
        for u in rows {
            for v in u + 1..n {
                acc += f(u, v);
            }
        }
        acc
    })
}

/// Where [`try_fill_upper`] puts the pairs `(u, v)`, `u < v`, of row `u`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// The condensed `n(n−1)/2` triangle: row `u` holds its `n − 1 − u`
    /// pairs, `(u, v)` at offset `v − u − 1`.
    Condensed,
    /// The row-major `n × n` square: row `u` holds `n` entries, `(u, v)` at
    /// column `v`. Only the upper triangle is written; the diagonal and the
    /// lower triangle keep `T::default()`.
    Square,
}

impl Layout {
    /// Entries row `u` occupies.
    fn row_len(self, n: usize, u: usize) -> usize {
        match self {
            Layout::Condensed => n - 1 - u,
            Layout::Square => n,
        }
    }

    /// Offset of pair `(u, v)` within row `u`.
    fn col(self, u: usize, v: usize) -> usize {
        match self {
            Layout::Condensed => v - u - 1,
            Layout::Square => v,
        }
    }
}

/// Allocate the fill's output and pre-fault its pages under a
/// `condensed_alloc` span.
///
/// `vec![T::default(); len]` is served by lazily zeroed pages, so without
/// this the page faults — the tier-independent floor that dominates the
/// dense build at large `n` (~23 ms for the 50 MB `u16` square at
/// n=5000) — would fire at first write inside the worker fill jobs and be
/// smeared across `condensed_fill`. Touching one element per 4 KiB page
/// here moves that cost into its own span, so the run report's `timings`
/// block puts a number on the alloc/fault/write floor. The store goes
/// through [`std::hint::black_box`] so the write of "zero over fresh
/// zeroes" cannot be optimized out, taking the fault with it.
fn alloc_prefaulted<T: Copy + Default>(len: usize) -> Vec<T> {
    let _span = crate::span!("condensed_alloc", len = len);
    let mut data = vec![T::default(); len];
    let page_stride = (4096 / std::mem::size_of::<T>().max(1)).max(1);
    for i in (0..data.len()).step_by(page_stride) {
        data[i] = std::hint::black_box(T::default());
    }
    data
}

/// Fill the upper-triangle pairs of an `n`-object matrix: every pair
/// `(u, v)` with `u < v < n`, placed by `layout`. This is the crate's one
/// pair fill; an unbudgeted caller passes [`RunBudget::unlimited`], whose
/// poll never trips.
///
/// The rows are split into pair-balanced chunk jobs whose boundaries depend
/// only on `n`. Each job walks its columns in fixed `band`-wide
/// stripes (`for band: for u: for v in band`), so a short stripe of packed
/// label rows stays cache-resident while the job's rows stream against it;
/// a `band` of `n` or more is the plain row-major walk. Every `(row,
/// column-band)` intersection goes to `g(scratch, u, lo..hi, seg)`, where
/// `seg` holds the entries for pairs `(u, lo), …, (u, hi − 1)` and
/// `scratch` is the job's own `make_scratch()` value, reused across all of
/// its segments. Every entry is written exactly once at its place, so a `g`
/// that writes pure per-pair values produces the identical buffer at any
/// thread count, band width and row split.
///
/// Workers poll the budget's deadline and cancel token before each job, so
/// a trip is honored within one job's worth of work; the partly filled
/// buffer is then dropped and the interrupt returned. Iteration caps are
/// algorithm-level and are not consumed here, and memory is reserved by
/// the caller.
pub fn try_fill_upper<T, S, M, G>(
    n: usize,
    layout: Layout,
    band: usize,
    make_scratch: M,
    g: G,
    budget: &RunBudget,
) -> Result<Vec<T>, Interrupt>
where
    T: Copy + Default + Send,
    M: Fn() -> S + Sync,
    G: Fn(&mut S, usize, Range<usize>, &mut [T]) + Sync,
{
    let band = band.clamp(1, n.max(1));
    let entries = |rows: Range<usize>| -> usize { rows.map(|u| layout.row_len(n, u)).sum() };
    let len = entries(0..n);
    let mut data = alloc_prefaulted(len);
    let mut jobs: Vec<(Range<usize>, &mut [T])> = Vec::new();
    let mut rest: &mut [T] = &mut data;
    for rows in row_ranges(n) {
        let (head, tail) = rest.split_at_mut(entries(rows.clone()));
        jobs.push((rows, head));
        rest = tail;
    }
    // The first trip wins; later jobs see it and skip their work.
    let tripped: OnceLock<Interrupt> = OnceLock::new();
    let _fill = crate::span!("condensed_fill", len = len);
    run_jobs(jobs, |(rows, out)| {
        if tripped.get().is_some() {
            return;
        }
        if let Err(interrupt) = budget.poll() {
            let _ = tripped.set(interrupt);
            return;
        }
        let mut scratch = make_scratch();
        let mut band_start = rows.start + 1;
        while band_start < n {
            let band_end = (band_start + band).min(n);
            let mut off = 0usize;
            for u in rows.clone() {
                let lo = band_start.max(u + 1);
                if lo < band_end {
                    let idx0 = off + layout.col(u, lo);
                    g(
                        &mut scratch,
                        u,
                        lo..band_end,
                        &mut out[idx0..idx0 + (band_end - lo)],
                    );
                }
                off += layout.row_len(n, u);
            }
            band_start = band_end;
        }
    });
    match tripped.into_inner() {
        None => Ok(data),
        Some(interrupt) => Err(interrupt),
    }
}

/// Adapt a per-pair distance function to the segment callback of
/// [`try_fill_upper`]: each entry of a segment gets `f(u, v)`.
pub(crate) fn pairwise<T, F>(f: F) -> impl Fn(&mut (), usize, Range<usize>, &mut [T]) + Sync
where
    F: Fn(usize, usize) -> T + Sync,
{
    move |(): &mut (), u, vs, seg| {
        for (entry, v) in seg.iter_mut().zip(vs) {
            *entry = f(u, v);
        }
    }
}

/// The pair `u < v` maximizing `f(u, v)`, earliest pair (in `(u, v)`
/// lexicographic order) on ties — exactly the result of a serial strict-`>`
/// scan. `None` for `n < 2`.
pub fn max_pair<F>(n: usize, f: F) -> Option<(usize, usize, f64)>
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    if n < 2 {
        return None;
    }
    type Best<'a> = &'a mut Option<(usize, usize, f64)>;
    let ranges = row_ranges(n);
    let mut partials: Vec<Option<(usize, usize, f64)>> = vec![None; ranges.len()];
    let jobs: Vec<(Range<usize>, Best)> = ranges.into_iter().zip(partials.iter_mut()).collect();
    run_jobs(jobs, |(rows, slot)| {
        let mut best: Option<(usize, usize, f64)> = None;
        for u in rows {
            for v in u + 1..n {
                let d = f(u, v);
                if best.is_none_or(|(_, _, bd)| d > bd) {
                    best = Some((u, v, d));
                }
            }
        }
        *slot = best;
    });
    let mut best: Option<(usize, usize, f64)> = None;
    for candidate in partials.into_iter().flatten() {
        if best.is_none_or(|(_, _, bd)| candidate.2 > bd) {
            best = Some(candidate);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_slice_matches_serial_map() {
        let mut out = vec![0.0f64; 5000];
        fill_slice(&mut out, |i| (i as f64).sqrt());
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, (i as f64).sqrt());
        }
    }

    #[test]
    fn sums_identical_across_thread_counts() {
        let g = |u: usize, v: usize| ((u * 31 + v * 17) % 101) as f64 / 101.0;
        let one = with_num_threads(1, || sum_pairs(700, g));
        let four = with_num_threads(4, || sum_pairs(700, g));
        assert_eq!(one.to_bits(), four.to_bits());
    }

    #[test]
    fn max_pair_takes_earliest_on_ties() {
        // Constant function: the very first pair must win.
        assert_eq!(max_pair(5000, |_, _| 1.0), Some((0, 1, 1.0)));
        // A unique maximum is found regardless of position.
        let target = (4321usize, 4700usize);
        let f = move |u: usize, v: usize| {
            if (u, v) == target {
                2.0
            } else {
                1.0
            }
        };
        assert_eq!(max_pair(5000, f), Some((target.0, target.1, 2.0)));
        assert_eq!(max_pair(1, |_, _| 1.0), None);
    }

    #[test]
    fn balanced_ranges_cover_exactly_once() {
        for n in [0usize, 1, 7, 1000, 5000] {
            let ranges = balanced_ranges(n, 100, |i| i % 3 + 1);
            let mut covered = 0usize;
            for r in &ranges {
                assert_eq!(r.start, covered, "ranges must be consecutive");
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn fill_matches_the_row_major_reference_and_honors_the_budget() {
        use crate::robust::CancelToken;
        let f = |u: usize, v: usize| (u * 10_007 + v) as f64;
        let generous = RunBudget::unlimited().with_deadline_ms(60_000);
        let expired = RunBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let token = CancelToken::new();
        token.cancel();
        let cancelled = RunBudget::unlimited().with_cancel_token(token);
        // The segment callback keeps a per-job count in its scratch; the
        // count never reaches the output, so it must not change it.
        let g = |calls: &mut usize, u: usize, vs: Range<usize>, seg: &mut [f64]| {
            *calls += 1;
            for (entry, v) in seg.iter_mut().zip(vs) {
                *entry = f(u, v);
            }
        };
        for n in [0usize, 1, 2, 3, 129, 600] {
            for layout in [Layout::Condensed, Layout::Square] {
                let reference: Vec<f64> = (0..n)
                    .flat_map(|u| {
                        let first = if layout == Layout::Square { 0 } else { u + 1 };
                        (first..n).map(move |v| if v > u { f(u, v) } else { 0.0 })
                    })
                    .collect();
                for band in [1usize, 2, 7, 64, 512, 10_000] {
                    for threads in [1usize, 4] {
                        let fill = |budget: &RunBudget| {
                            with_num_threads(threads, || {
                                try_fill_upper(n, layout, band, || 0usize, g, budget)
                            })
                        };
                        let at = format!("n={n} {layout:?} band={band} threads={threads}");
                        let expected: Result<Vec<f64>, Interrupt> = Ok(reference.clone());
                        assert_eq!(fill(&RunBudget::unlimited()), expected, "{at}");
                        assert_eq!(fill(&generous), expected, "{at}");
                        // A matrix with no rows has no job to poll the budget.
                        let tripped = |interrupt| -> Result<Vec<f64>, Interrupt> {
                            if n == 0 {
                                Ok(Vec::new())
                            } else {
                                Err(interrupt)
                            }
                        };
                        assert_eq!(fill(&expired), tripped(Interrupt::Deadline), "{at}");
                        assert_eq!(fill(&cancelled), tripped(Interrupt::Cancelled), "{at}");
                    }
                }
            }
        }
        // The per-pair adapter writes exactly `f(u, v)`.
        let full = try_fill_upper(
            5,
            Layout::Condensed,
            2,
            || (),
            pairwise(f),
            &RunBudget::unlimited(),
        );
        assert_eq!(full.map(|d| d[0]), Ok(f(0, 1)));
    }

    #[test]
    fn override_is_scoped_and_restored() {
        let outer = current_num_threads();
        assert_eq!(with_num_threads(3, current_num_threads), 3);
        assert_eq!(current_num_threads(), outer);
    }
}
