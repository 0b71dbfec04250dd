//! Resource budgets, cooperative cancellation, and anytime-result plumbing.
//!
//! A [`RunBudget`] bundles the four ways a caller can bound an algorithm
//! run: a wall-clock deadline, an iteration cap, a [`CancelToken`] another
//! thread can flip, and a tracked memory ceiling. Every `*_budgeted` algorithm entry point
//! takes one and checks the time/iteration/cancel limits at `O(n)`-work
//! granularity (per node visit, merge, pivot, or center round) through a
//! [`BudgetMeter`], so a trip is noticed within one linear-time unit of
//! work — cheap enough that `Instant::now()` overhead is negligible
//! relative to the work between checks.
//!
//! The memory ceiling is enforced at allocation sites rather than check
//! sites: code about to make a large allocation (the condensed distance
//! matrix, label vectors, contingency tables) calls
//! [`RunBudget::try_reserve`] first, which either registers the bytes
//! with the budget's [`MemGauge`] and returns an RAII [`MemCharge`], or
//! refuses with [`Interrupt::MemoryExceeded`] so the caller can degrade to
//! a smaller representation instead of risking the OOM killer.
//!
//! When the budget trips, the anytime algorithms (LOCALSEARCH, annealing,
//! AGGLOMERATIVE, and the rest of the roster) do **not** error: they return
//! their best-so-far clustering inside a [`RunOutcome`] tagged
//! [`RunStatus::BudgetExceeded`] or [`RunStatus::Cancelled`]. The internal
//! [`Interrupt`] type carries the trip reason from the check site to the
//! wrap-up code.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clustering::Clustering;
use crate::snapshot::{AlgorithmSnapshot, Checkpointer};
use crate::telemetry::{self, Clock};

/// A shareable flag for cooperative cancellation. Clone it, hand the clone
/// to the running thread's [`RunBudget`], and call [`CancelToken::cancel`]
/// from anywhere; the run returns its best-so-far result at the next check.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a budgeted run stopped early. Internal currency between the check
/// sites and the per-algorithm wrap-up code; public so downstream crates
/// can write their own budgeted loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The wall-clock deadline passed.
    Deadline,
    /// The iteration cap was reached.
    IterationCap,
    /// The [`CancelToken`] fired.
    Cancelled,
    /// A [`RunBudget::try_reserve`] request would have pushed tracked
    /// memory past the cap. Callers typically degrade to a smaller
    /// representation rather than surfacing this as an anytime stop.
    MemoryExceeded {
        /// Bytes the refused allocation asked for.
        requested: u64,
        /// The configured memory ceiling in bytes.
        limit: u64,
    },
}

impl Interrupt {
    /// The [`RunStatus`] an anytime result should carry after this
    /// interrupt.
    ///
    /// This is the single point where a trip is converted into an anytime
    /// status, so it doubles as the telemetry hook counting interrupts by
    /// kind (see [`crate::telemetry::Metrics`]).
    pub fn status(self) -> RunStatus {
        telemetry::count_interrupt(self);
        match self {
            Interrupt::Deadline | Interrupt::IterationCap | Interrupt::MemoryExceeded { .. } => {
                RunStatus::BudgetExceeded
            }
            Interrupt::Cancelled => RunStatus::Cancelled,
        }
    }
}

/// How a budgeted run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The algorithm ran to its natural completion.
    Converged,
    /// The deadline or iteration cap tripped; the result is the best
    /// clustering found so far.
    BudgetExceeded,
    /// The [`CancelToken`] fired; the result is the best clustering found
    /// so far.
    Cancelled,
}

impl RunStatus {
    /// `true` for [`RunStatus::Converged`].
    pub fn is_converged(self) -> bool {
        self == RunStatus::Converged
    }

    /// The worse of two statuses (`Converged < BudgetExceeded < Cancelled`),
    /// used when a pipeline combines several budgeted phases.
    pub fn combine(self, other: RunStatus) -> RunStatus {
        fn rank(s: RunStatus) -> u8 {
            match s {
                RunStatus::Converged => 0,
                RunStatus::BudgetExceeded => 1,
                RunStatus::Cancelled => 2,
            }
        }
        if rank(other) > rank(self) {
            other
        } else {
            self
        }
    }
}

/// An anytime algorithm result: the clustering, how the run ended, and how
/// much work it did.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The returned clustering — the final result when
    /// [`RunStatus::Converged`], the best-so-far otherwise.
    pub clustering: Clustering,
    /// How the run ended.
    pub status: RunStatus,
    /// Budget iterations consumed (each is one `O(n)` unit of work; see
    /// [`BudgetMeter::tick`]).
    pub iterations: u64,
}

impl RunOutcome {
    /// A converged outcome (used by trivial early-exit paths).
    pub fn converged(clustering: Clustering) -> Self {
        RunOutcome {
            clustering,
            status: RunStatus::Converged,
            iterations: 0,
        }
    }
}

/// Everything a run draws on besides the oracle and the algorithm's own
/// parameters: the budget it may spend, a snapshot to resume from, and
/// where to checkpoint. [`crate::algorithms::Algorithm::run`] and the
/// SAMPLING, branch-and-bound and linkage entries all take one.
///
/// A snapshot of another algorithm, or one that does not fit the instance,
/// is ignored and the run starts fresh. Only the long-running algorithms
/// (AGGLOMERATIVE, LOCALSEARCH, SAMPLING) resume and checkpoint; the rest
/// finish within one checkpoint interval and use the budget alone.
#[derive(Debug)]
pub struct RunCtx<'a> {
    /// Deadline, iteration cap, memory cap and cancel token.
    pub budget: &'a RunBudget,
    /// State to resume from.
    pub resume: Option<&'a AlgorithmSnapshot>,
    /// Persists state at its cadence and once more when the budget trips.
    pub ckpt: Option<&'a mut Checkpointer>,
}

impl<'a> RunCtx<'a> {
    /// A fresh run under `budget`: nothing to resume, no checkpoints.
    pub fn new(budget: &'a RunBudget) -> Self {
        RunCtx {
            budget,
            resume: None,
            ckpt: None,
        }
    }
}

/// Tracked bytes for the handful of allocations large enough to matter
/// (condensed distance matrix, label vectors, contingency tables).
///
/// Clones share one counter, so a [`RunBudget`] cloned into worker
/// threads keeps a single account. The gauge only *counts*; the cap lives
/// on the budget and is enforced by [`RunBudget::try_reserve`].
#[derive(Clone, Debug, Default)]
pub struct MemGauge {
    used: Arc<AtomicU64>,
}

impl MemGauge {
    /// A fresh gauge with nothing charged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently charged across all live [`MemCharge`]s.
    pub fn used_bytes(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Record `bytes` against the gauge; the returned [`MemCharge`] releases
    /// them when dropped. This never refuses — cap enforcement is
    /// [`RunBudget::try_reserve`]'s job. The post-charge level feeds
    /// the telemetry high-water gauge.
    pub fn charge(&self, bytes: u64) -> MemCharge {
        let before = self.used.fetch_add(bytes, Ordering::Relaxed);
        telemetry::metrics()
            .mem_high_water_bytes
            .observe_if_enabled(before.saturating_add(bytes));
        MemCharge {
            gauge: self.clone(),
            bytes,
        }
    }
}

/// RAII receipt for bytes charged to a [`MemGauge`]; dropping it releases
/// the charge. Stored alongside the allocation it accounts for (e.g. inside
/// a governed distance matrix) so the books balance automatically.
#[derive(Debug)]
pub struct MemCharge {
    gauge: MemGauge,
    bytes: u64,
}

impl MemCharge {
    /// Bytes this charge holds against the gauge.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        self.gauge.used.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// Execution limits for one algorithm run. The default is unlimited.
///
/// ```
/// use aggclust_core::robust::RunBudget;
/// use std::time::Duration;
///
/// let budget = RunBudget::unlimited()
///     .with_deadline(Duration::from_millis(50))
///     .with_max_iters(1_000_000)
///     .with_mem_limit_mb(512);
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    // Absolute deadline in nanoseconds on `clock` (not an `Instant`, so a
    // mock clock can drive deadline tests without real sleeps).
    deadline_ns: Option<u64>,
    max_iters: Option<u64>,
    cancel: Option<CancelToken>,
    mem_limit: Option<u64>,
    gauge: MemGauge,
    clock: Clock,
}

impl RunBudget {
    /// No limits: every check passes.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Read time from `clock` instead of the OS monotonic clock. Set this
    /// **before** [`RunBudget::with_deadline`]: the deadline is fixed
    /// on whichever clock the budget holds when it is computed.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The clock this budget measures its deadline on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Stop after `duration` of wall-clock time from now (as told by the
    /// budget's [`Clock`]).
    pub fn with_deadline(mut self, duration: Duration) -> Self {
        let d = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        self.deadline_ns = Some(self.clock.now_ns().saturating_add(d));
        self
    }

    /// Stop after `ms` milliseconds of wall-clock time from now.
    pub fn with_deadline_ms(self, ms: u64) -> Self {
        self.with_deadline(Duration::from_millis(ms))
    }

    /// Stop after `max_iters` budget iterations (each roughly one `O(n)`
    /// unit of work — a node visit, merge, pivot, or center round).
    pub fn with_max_iters(mut self, max_iters: u64) -> Self {
        self.max_iters = Some(max_iters);
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Cap tracked memory at `bytes`; [`RunBudget::try_reserve`]
    /// refuses any request that would push the gauge past it.
    pub fn with_mem_limit_bytes(mut self, bytes: u64) -> Self {
        self.mem_limit = Some(bytes);
        self
    }

    /// Cap tracked memory at `mb` mebibytes.
    pub fn with_mem_limit_mb(self, mb: u64) -> Self {
        self.with_mem_limit_bytes(mb.saturating_mul(1024 * 1024))
    }

    /// The configured memory ceiling in bytes, if any.
    pub fn mem_limit_bytes(&self) -> Option<u64> {
        self.mem_limit
    }

    /// The gauge this budget charges tracked allocations against.
    pub fn mem_gauge(&self) -> &MemGauge {
        &self.gauge
    }

    /// Ask permission for a large allocation of `bytes`.
    ///
    /// With no memory cap this always succeeds (the bytes are still
    /// counted, so diagnostics see real usage). With a cap it refuses —
    /// returning [`Interrupt::MemoryExceeded`] and charging nothing — when
    /// the request would push the gauge past the ceiling; the caller is
    /// expected to degrade to a smaller representation.
    pub fn try_reserve(&self, bytes: u64) -> Result<MemCharge, Interrupt> {
        if let Some(limit) = self.mem_limit {
            if self.gauge.used_bytes().saturating_add(bytes) > limit {
                return Err(Interrupt::MemoryExceeded {
                    requested: bytes,
                    limit,
                });
            }
        }
        // An armed `alloc=fail:after_mb=N` failpoint simulates memory
        // pressure the gauge cannot see (the rest of the process, another
        // tenant): past the threshold, reserves refuse exactly as if a
        // cap were hit, driving the same degradation chain.
        if let Some(crate::failpoint::Fault::AllocFail { limit }) =
            crate::failpoint::alloc_check(bytes)
        {
            return Err(Interrupt::MemoryExceeded {
                requested: bytes,
                limit,
            });
        }
        Ok(self.gauge.charge(bytes))
    }

    /// Wall-clock time left before the deadline: `None` when no deadline
    /// is set, [`Duration::ZERO`] once it has passed. Retry/backoff
    /// supervision caps its sleeps with this (see
    /// [`crate::snapshot::RetryPolicy::run_supervised`]).
    pub fn remaining_deadline(&self) -> Option<Duration> {
        self.deadline_ns
            .map(|d| Duration::from_nanos(d.saturating_sub(self.clock.now_ns())))
    }

    /// `true` when no deadline, cap, token, or memory limit is set — checks
    /// are then branch-only and effectively free.
    pub fn is_unlimited(&self) -> bool {
        self.no_run_limits() && self.mem_limit.is_none()
    }

    /// `true` when no *per-iteration* limit (deadline, iteration cap, or
    /// cancel token) is set. The memory cap is excluded: it is enforced at
    /// allocation sites, so metering can stay on the free fast path.
    pub fn no_run_limits(&self) -> bool {
        self.deadline_ns.is_none() && self.max_iters.is_none() && self.cancel.is_none()
    }

    /// Check the deadline and the cancel token (but not the iteration cap,
    /// which only a [`BudgetMeter`] tracks). Used by parallel kernels whose
    /// workers share one budget.
    pub fn poll(&self) -> Result<(), Interrupt> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        if let Some(deadline_ns) = self.deadline_ns {
            if self.clock.now_ns() >= deadline_ns {
                return Err(Interrupt::Deadline);
            }
        }
        Ok(())
    }

    /// Start metering a run against this budget.
    pub fn meter(&self) -> BudgetMeter<'_> {
        self.meter_from(0)
    }

    /// Start metering with `start_iterations` units already on the clock.
    ///
    /// Used when resuming from a checkpoint: the iteration cap then bounds
    /// the *total* work across the interrupted run and its resumption, so a
    /// resumed run is bit-identical to the same run left uninterrupted.
    pub fn meter_from(&self, start_iterations: u64) -> BudgetMeter<'_> {
        BudgetMeter {
            budget: self,
            iterations: start_iterations,
        }
    }
}

/// Per-run iteration counter bound to a [`RunBudget`].
///
/// One *iteration* is one `O(n)` unit of algorithm work, so the deadline is
/// polled often enough to be honored within a linear-time slice while the
/// `Instant::now()` call stays amortized.
#[derive(Debug)]
pub struct BudgetMeter<'a> {
    budget: &'a RunBudget,
    iterations: u64,
}

impl BudgetMeter<'_> {
    /// Record one unit of work and check every limit.
    pub fn tick(&mut self) -> Result<(), Interrupt> {
        self.tick_n(1)
    }

    /// Record `n` units of work and check every limit.
    pub fn tick_n(&mut self, n: u64) -> Result<(), Interrupt> {
        self.iterations = self.iterations.saturating_add(n);
        if self.budget.no_run_limits() {
            return Ok(());
        }
        if let Some(cap) = self.budget.max_iters {
            if self.iterations > cap {
                return Err(Interrupt::IterationCap);
            }
        }
        self.budget.poll()
    }

    /// Units of work recorded so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = RunBudget::unlimited();
        let mut meter = budget.meter();
        for _ in 0..10_000 {
            assert!(meter.tick().is_ok());
        }
        assert_eq!(meter.iterations(), 10_000);
    }

    #[test]
    fn iteration_cap_trips_exactly() {
        let budget = RunBudget::unlimited().with_max_iters(5);
        let mut meter = budget.meter();
        for _ in 0..5 {
            assert!(meter.tick().is_ok());
        }
        assert_eq!(meter.tick(), Err(Interrupt::IterationCap));
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let budget = RunBudget::unlimited().with_deadline(Duration::ZERO);
        let mut meter = budget.meter();
        assert_eq!(meter.tick(), Err(Interrupt::Deadline));
        assert_eq!(budget.poll(), Err(Interrupt::Deadline));
    }

    #[test]
    fn mock_clock_drives_the_deadline_without_sleeping() {
        let clock = Clock::mock();
        let budget = RunBudget::unlimited()
            .with_clock(clock.clone())
            .with_deadline(Duration::from_millis(10));
        let mut meter = budget.meter();
        assert!(meter.tick().is_ok());
        clock.advance(Duration::from_millis(9));
        assert!(meter.tick().is_ok());
        clock.advance(Duration::from_millis(1));
        assert_eq!(meter.tick(), Err(Interrupt::Deadline));
        assert_eq!(budget.poll(), Err(Interrupt::Deadline));
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let budget = RunBudget::unlimited().with_cancel_token(token.clone());
        let mut meter = budget.meter();
        assert!(meter.tick().is_ok());
        token.cancel();
        assert_eq!(meter.tick(), Err(Interrupt::Cancelled));
        assert_eq!(budget.poll(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn cancellation_beats_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let budget = RunBudget::unlimited()
            .with_deadline(Duration::ZERO)
            .with_cancel_token(token);
        assert_eq!(budget.poll(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn interrupt_to_status() {
        assert_eq!(Interrupt::Deadline.status(), RunStatus::BudgetExceeded);
        assert_eq!(Interrupt::IterationCap.status(), RunStatus::BudgetExceeded);
        assert_eq!(Interrupt::Cancelled.status(), RunStatus::Cancelled);
    }

    #[test]
    fn status_combine_takes_the_worse() {
        use RunStatus::*;
        assert_eq!(Converged.combine(BudgetExceeded), BudgetExceeded);
        assert_eq!(BudgetExceeded.combine(Converged), BudgetExceeded);
        assert_eq!(BudgetExceeded.combine(Cancelled), Cancelled);
        assert_eq!(Converged.combine(Converged), Converged);
        assert!(Converged.is_converged());
        assert!(!Cancelled.is_converged());
    }

    #[test]
    fn tick_n_counts_in_bulk() {
        let budget = RunBudget::unlimited().with_max_iters(100);
        let mut meter = budget.meter();
        assert!(meter.tick_n(100).is_ok());
        assert_eq!(meter.tick_n(1), Err(Interrupt::IterationCap));
    }

    #[test]
    fn meter_from_counts_total_work_across_a_resume() {
        let budget = RunBudget::unlimited().with_max_iters(10);
        let mut meter = budget.meter_from(7);
        assert!(meter.tick_n(3).is_ok());
        assert_eq!(meter.iterations(), 10);
        assert_eq!(meter.tick(), Err(Interrupt::IterationCap));
    }

    #[test]
    fn mem_charges_are_raii_and_shared_across_clones() {
        let budget = RunBudget::unlimited().with_mem_limit_bytes(100);
        assert!(!budget.is_unlimited());
        let shared = budget.clone();
        let a = budget.try_reserve(60).expect("fits");
        assert_eq!(a.bytes(), 60);
        assert_eq!(shared.mem_gauge().used_bytes(), 60);
        // 60 + 50 > 100: refused, nothing charged.
        match shared.try_reserve(50) {
            Err(Interrupt::MemoryExceeded { requested, limit }) => {
                assert_eq!(requested, 50);
                assert_eq!(limit, 100);
            }
            other => panic!("expected MemoryExceeded, got {other:?}"),
        }
        assert_eq!(budget.mem_gauge().used_bytes(), 60);
        drop(a);
        assert_eq!(budget.mem_gauge().used_bytes(), 0);
        assert!(budget.try_reserve(100).is_ok());
    }

    #[test]
    fn uncapped_budget_still_counts_reservations() {
        let budget = RunBudget::unlimited();
        assert!(budget.is_unlimited());
        let charge = budget.try_reserve(1 << 40).expect("no cap, never refuses");
        assert_eq!(budget.mem_gauge().used_bytes(), 1 << 40);
        drop(charge);
        assert_eq!(budget.mem_gauge().used_bytes(), 0);
    }

    #[test]
    fn memory_cap_alone_does_not_trip_the_meter() {
        let budget = RunBudget::unlimited().with_mem_limit_mb(1);
        assert_eq!(budget.mem_limit_bytes(), Some(1024 * 1024));
        let mut meter = budget.meter();
        for _ in 0..1000 {
            assert!(meter.tick().is_ok());
        }
        assert_eq!(
            Interrupt::MemoryExceeded {
                requested: 1,
                limit: 1
            }
            .status(),
            RunStatus::BudgetExceeded
        );
    }
}
