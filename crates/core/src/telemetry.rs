//! Zero-dependency telemetry: structured spans, leveled events, and a
//! metrics registry of atomic counters.
//!
//! The build is offline, so this module plays the role the `tracing` +
//! `metrics` crates would normally play, with the same shape:
//!
//! * **Spans and events** — [`crate::span!`] opens a named, field-carrying
//!   span whose guard reports its wall-clock duration when dropped;
//!   [`crate::event!`] (and the [`crate::info!`] / [`crate::warn!`] /
//!   [`crate::debug!`] / [`crate::trace!`] shorthands) emit leveled
//!   one-shot events. Both are recorded by a pluggable [`Collector`]
//!   installed process-wide with [`install_collector`]. When no collector
//!   is installed the macros cost one relaxed atomic load and a branch —
//!   span fields are not even evaluated.
//! * **Metrics** — a fixed registry ([`Metrics`], reachable through
//!   [`metrics`]) of atomic counters, max-gauges, float sums, and
//!   fixed-bucket histograms that the hot paths increment when
//!   [`set_metrics_enabled`] has been flipped on. Counter totals are
//!   deterministic: the deterministic kernels perform the same multiset of
//!   counted operations at any `--threads` setting, and integer atomic
//!   adds commute, so totals are bit-identical across thread counts.
//! * **Span timings** — when metrics are enabled every closing span also
//!   records count / total-ns / self-ns / max-ns / histogram aggregates
//!   into a per-span-name [`SpanStats`] registry ([`span_stats`]),
//!   rendered as the `timings` block of the run report
//!   ([`TimingsSnapshot`]). Self time is elapsed time minus time spent in
//!   child spans on the same thread, so a parent's own work (e.g. the
//!   dense build's alloc/fault/write floor) gets its own number.
//! * **Heartbeats** — [`Heartbeat`] emits cadence-limited `progress`
//!   events (phase, done/total, memory, deadline remaining, ETA) from
//!   the algorithm loops; [`Cadence`] is the shared "has the period
//!   elapsed" ticker also used by [`crate::snapshot::Checkpointer`].
//! * **Sinks** — [`StderrSink`] (a leveled human logger, filterable via
//!   the `AGGCLUST_LOG` environment variable or CLI `--log-level`),
//!   [`JsonlSink`] (one JSON object per span/event for `--trace-out`),
//!   and [`TeeCollector`] to fan out to several sinks at once.
//!   [`MetricsSnapshot::to_json`] renders the registry as the
//!   machine-readable run report behind `--metrics-out`.
//! * **Clock** — [`Clock`] is the monotonic time source used by
//!   [`crate::robust::ResourceBudget`] deadlines and
//!   [`crate::snapshot::Checkpointer`] cadence; [`Clock::mock`] gives
//!   tests a manually advanced clock so deadline behavior can be tested
//!   without real sleeps.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Levels
// ---------------------------------------------------------------------------

/// Severity of an [`Event`] (and the filter threshold of the sinks),
/// ordered `Error < Warn < Info < Debug < Trace`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Unrecoverable or surprising failures.
    Error,
    /// Degradations and anytime stops the caller should know about.
    Warn,
    /// Run milestones (algorithm start/finish, checkpoint saved).
    Info,
    /// Per-phase details (pass finished, sample drawn).
    Debug,
    /// Per-unit details (span opens); very chatty.
    Trace,
}

impl Level {
    /// Parse a level name (case-insensitive); `None` for unknown names.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            "off" | "none" => None,
            _ => None,
        }
    }

    /// The level requested by the `AGGCLUST_LOG` environment variable, if
    /// set to a recognized name.
    pub fn from_env() -> Option<Level> {
        std::env::var("AGGCLUST_LOG")
            .ok()
            .and_then(|s| Level::parse(&s))
    }

    /// Lower-case display name (`"warn"`, `"info"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Field values
// ---------------------------------------------------------------------------

/// A structured field value attached to a span or event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl Value {
    /// Render as a JSON value (strings escaped, non-finite floats as
    /// `null`).
    pub fn to_json(&self) -> String {
        match self {
            Value::U64(x) => x.to_string(),
            Value::I64(x) => x.to_string(),
            Value::F64(x) => json_f64(*x),
            Value::Bool(x) => x.to_string(),
            Value::Str(s) => json_string(s),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(x) => write!(f, "{x}"),
            Value::I64(x) => write!(f, "{x}"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Bool(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::U64(x)
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::U64(x as u64)
    }
}
impl From<u32> for Value {
    fn from(x: u32) -> Self {
        Value::U64(u64::from(x))
    }
}
impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::I64(x)
    }
}
impl From<i32> for Value {
    fn from(x: i32) -> Self {
        Value::I64(i64::from(x))
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::F64(x)
    }
}
impl From<bool> for Value {
    fn from(x: bool) -> Self {
        Value::Bool(x)
    }
}
impl From<&str> for Value {
    fn from(x: &str) -> Self {
        Value::Str(x.to_owned())
    }
}
impl From<String> for Value {
    fn from(x: String) -> Self {
        Value::Str(x)
    }
}

// ---------------------------------------------------------------------------
// Events and spans
// ---------------------------------------------------------------------------

/// A one-shot leveled event dispatched to the installed [`Collector`].
#[derive(Debug)]
pub struct Event<'a> {
    /// Severity.
    pub level: Level,
    /// Short static message / event name.
    pub message: &'a str,
    /// Structured key–value fields.
    pub fields: &'a [(&'static str, Value)],
}

/// The data describing an open span: a name, an id unique within the
/// process, and structured fields captured at entry.
#[derive(Debug)]
pub struct SpanData {
    /// Span name (e.g. `"balls"`, `"consensus"`).
    pub name: &'static str,
    /// Process-unique id, for correlating start/end trace records.
    pub id: u64,
    /// Fields captured when the span was entered.
    pub fields: Vec<(&'static str, Value)>,
}

/// Receives spans and events. Implementations must be cheap and
/// non-blocking-ish: they run inline on the instrumented thread.
pub trait Collector: Send + Sync {
    /// `true` if events at `level` should be built and dispatched.
    fn enabled(&self, level: Level) -> bool;
    /// A one-shot event.
    fn event(&self, event: &Event<'_>);
    /// A span was entered.
    fn span_start(&self, span: &SpanData);
    /// A span closed after `elapsed`.
    fn span_end(&self, span: &SpanData, elapsed: Duration);
}

static COLLECTOR_ACTIVE: AtomicBool = AtomicBool::new(false);

fn collector_slot() -> &'static RwLock<Option<Arc<dyn Collector>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn Collector>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Install `collector` as the process-wide sink for spans and events,
/// replacing any previous one.
pub fn install_collector(collector: Arc<dyn Collector>) {
    if let Ok(mut slot) = collector_slot().write() {
        *slot = Some(collector);
        COLLECTOR_ACTIVE.store(true, Ordering::Release);
    }
}

/// Remove the installed collector; spans and events become free again.
pub fn clear_collector() {
    COLLECTOR_ACTIVE.store(false, Ordering::Release);
    if let Ok(mut slot) = collector_slot().write() {
        *slot = None;
    }
}

/// `true` when a collector is installed — the macros' fast-path gate.
#[inline]
pub fn collector_active() -> bool {
    COLLECTOR_ACTIVE.load(Ordering::Relaxed)
}

fn with_collector(f: impl FnOnce(&Arc<dyn Collector>)) {
    if let Ok(slot) = collector_slot().read() {
        if let Some(collector) = slot.as_ref() {
            f(collector);
        }
    }
}

/// Dispatch an event to the installed collector (macro plumbing; prefer
/// [`crate::event!`]).
pub fn dispatch_event(level: Level, message: &str, fields: &[(&'static str, Value)]) {
    with_collector(|c| {
        if c.enabled(level) {
            c.event(&Event {
                level,
                message,
                fields,
            });
        }
    });
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // One slot per open timed span on this thread: the accumulated
    // elapsed time of its already-closed children. Closing a span pops
    // its slot (its child time, for self-time) and adds its own elapsed
    // time to the new top — the parent's slot — so self/total
    // attribution needs no tree walk and no allocation per span.
    static SPAN_CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an open span; created by [`crate::span!`]. Reports the
/// span's duration to the collector when dropped, and — when metrics are
/// enabled — records it into the per-span-name [`SpanStats`] aggregates
/// (count, total ns, self ns, max, histogram). Inert (holds nothing,
/// does nothing) when neither a collector nor metrics were active at
/// entry. Guards must be dropped on the thread that created them: the
/// self-time bookkeeping is a per-thread stack.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    data: SpanData,
    start_ns: u64,
    dispatched: bool,
}

impl SpanGuard {
    /// Enter a span (macro plumbing; prefer [`crate::span!`]). The field
    /// closure is only evaluated when a collector is installed — a
    /// metrics-only span records timings but carries no fields.
    pub fn enter(
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) -> SpanGuard {
        let dispatched = collector_active();
        if !dispatched && !metrics_enabled() {
            return SpanGuard { inner: None };
        }
        let data = SpanData {
            name,
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            fields: if dispatched { fields() } else { Vec::new() },
        };
        if dispatched {
            with_collector(|c| c.span_start(&data));
        }
        SPAN_CHILD_NS.with(|s| s.borrow_mut().push(0));
        SpanGuard {
            inner: Some(SpanInner {
                data,
                start_ns: timing_now_ns(),
                dispatched,
            }),
        }
    }

    /// The span's process-unique id, or `None` for an inert guard.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.data.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let elapsed_ns = timing_now_ns().saturating_sub(inner.start_ns);
            let child_ns = SPAN_CHILD_NS.with(|s| {
                let mut stack = s.borrow_mut();
                let child = stack.pop().unwrap_or(0);
                if let Some(parent) = stack.last_mut() {
                    *parent = parent.saturating_add(elapsed_ns);
                }
                child
            });
            if metrics_enabled() {
                let stats = span_stats(inner.data.name);
                stats.count.incr();
                stats.total_ns.add(elapsed_ns);
                stats.self_ns.add(elapsed_ns.saturating_sub(child_ns));
                stats.max_ns.observe(elapsed_ns);
                stats.ns_hist.observe(elapsed_ns as f64);
            }
            if inner.dispatched {
                with_collector(|c| c.span_end(&inner.data, Duration::from_nanos(elapsed_ns)));
            }
        }
    }
}

/// Open a structured span: `let _g = span!("balls", n = n);`. The guard
/// reports the span's duration when dropped; bind it to a named variable
/// (not `_`) so it lives to the end of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::telemetry::SpanGuard::enter($name, || ::std::vec![
            $((stringify!($key), $crate::telemetry::Value::from($val)),)*
        ])
    };
}

/// Emit a leveled structured event:
/// `event!(Level::Info, "checkpoint saved", bytes = n);`.
#[macro_export]
macro_rules! event {
    ($level:expr, $msg:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::telemetry::collector_active() {
            $crate::telemetry::dispatch_event(
                $level,
                &$msg,
                &[$((stringify!($key), $crate::telemetry::Value::from($val)),)*],
            );
        }
    };
}

/// [`crate::event!`] at [`Level::Error`].
#[macro_export]
macro_rules! error_event {
    ($($tt:tt)*) => { $crate::event!($crate::telemetry::Level::Error, $($tt)*) };
}

/// [`crate::event!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($tt:tt)*) => { $crate::event!($crate::telemetry::Level::Warn, $($tt)*) };
}

/// [`crate::event!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($tt:tt)*) => { $crate::event!($crate::telemetry::Level::Info, $($tt)*) };
}

/// [`crate::event!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($tt:tt)*) => { $crate::event!($crate::telemetry::Level::Debug, $($tt)*) };
}

/// [`crate::event!`] at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($tt:tt)*) => { $crate::event!($crate::telemetry::Level::Trace, $($tt)*) };
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Nanoseconds since the process-wide monotonic epoch (first use).
fn system_now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A monotonic time source. The default ([`Clock::system`]) reads the OS
/// monotonic clock; [`Clock::mock`] returns a clock that only moves when
/// [`Clock::advance`] is called, so deadline and cadence tests need no
/// real sleeps. Clones of a mock clock share the same time.
#[derive(Clone, Debug, Default)]
pub struct Clock {
    mock: Option<Arc<AtomicU64>>,
}

impl Clock {
    /// The OS monotonic clock.
    pub fn system() -> Clock {
        Clock { mock: None }
    }

    /// A manually driven clock starting at 0 ns.
    pub fn mock() -> Clock {
        Clock {
            mock: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Nanoseconds since this clock's epoch. System clocks include any
    /// armed [`crate::failpoint`] skew (a `clock=skew:ms=N` clause); mock
    /// clocks are exempt so deadline tests keep full control of time.
    pub fn now_ns(&self) -> u64 {
        match &self.mock {
            Some(t) => t.load(Ordering::Relaxed),
            None => system_now_ns().saturating_add(crate::failpoint::clock_skew_ns()),
        }
    }

    /// Advance a [`Clock::mock`] clock by `d`. No effect on the system
    /// clock (real time cannot be steered).
    pub fn advance(&self, d: Duration) {
        if let Some(t) = &self.mock {
            let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            t.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// `true` for a [`Clock::mock`] clock.
    pub fn is_mock(&self) -> bool {
        self.mock.is_some()
    }
}

// ---------------------------------------------------------------------------
// Timing clock (span durations)
// ---------------------------------------------------------------------------

static TIMING_MOCKED: AtomicBool = AtomicBool::new(false);

fn timing_clock_slot() -> &'static RwLock<Clock> {
    static SLOT: OnceLock<RwLock<Clock>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(Clock::system()))
}

/// Replace the clock that timestamps span durations process-wide. Tests
/// hand in a [`Clock::mock`] so span timings become deterministic;
/// installing a system clock restores the default. The unmocked path
/// reads the raw monotonic clock and deliberately ignores any armed
/// failpoint skew — injected clock jumps must trip *deadlines*, not
/// corrupt the timing profile.
pub fn set_timing_clock(clock: Clock) {
    TIMING_MOCKED.store(clock.is_mock(), Ordering::Release);
    if let Ok(mut slot) = timing_clock_slot().write() {
        *slot = clock;
    }
}

/// Nanoseconds on the span-timing clock (see [`set_timing_clock`]).
#[inline]
pub fn timing_now_ns() -> u64 {
    if TIMING_MOCKED.load(Ordering::Relaxed) {
        timing_clock_slot().read().map(|c| c.now_ns()).unwrap_or(0)
    } else {
        system_now_ns()
    }
}

// ---------------------------------------------------------------------------
// Cadence and heartbeats
// ---------------------------------------------------------------------------

/// A "has the period elapsed" ticker over a [`Clock`]: [`Cadence::due`]
/// returns `true` at most once per period. This is the cadence machinery
/// shared by [`crate::snapshot::Checkpointer`] (checkpoint every N
/// seconds) and [`Heartbeat`] (progress event every N milliseconds);
/// both stay fully testable through a mock clock.
#[derive(Clone, Debug)]
pub struct Cadence {
    clock: Clock,
    every_ns: u64,
    last_ns: u64,
}

impl Cadence {
    /// A cadence on the system clock, first due after one `every` period.
    pub fn new(every: Duration) -> Cadence {
        Cadence::with_clock(Clock::system(), every)
    }

    /// A cadence on an explicit (possibly mock) clock.
    pub fn with_clock(clock: Clock, every: Duration) -> Cadence {
        let last_ns = clock.now_ns();
        Cadence {
            clock,
            every_ns: u64::try_from(every.as_nanos()).unwrap_or(u64::MAX),
            last_ns,
        }
    }

    /// `true` — and the countdown restarts — when at least one period has
    /// elapsed since construction or the last due tick.
    pub fn due(&mut self) -> bool {
        let now = self.clock.now_ns();
        if now.saturating_sub(self.last_ns) < self.every_ns {
            return false;
        }
        self.last_ns = now;
        true
    }

    /// Restart the countdown from now without firing (a caller did the
    /// periodic work through another path, e.g. `save_now`).
    pub fn reset(&mut self) {
        self.last_ns = self.clock.now_ns();
    }

    /// The period between due ticks.
    pub fn every(&self) -> Duration {
        Duration::from_nanos(self.every_ns)
    }

    /// The clock this cadence ticks on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
}

/// Default emission period for [`Heartbeat`] progress events.
pub const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// A budget-aware progress ticker for the algorithm loops: call
/// [`Heartbeat::tick`] once per unit of work and, at most once per
/// cadence period, a `progress` event is emitted at [`Level::Debug`]
/// with fields `phase`, `done`, `total`, `elapsed_ms`, `mem_bytes`, an
/// `eta_ms` extrapolation once progress is nonzero, and
/// `deadline_remaining_ms` when a budget with a deadline is attached.
///
/// With no collector installed a tick is one relaxed load and an untaken
/// branch — the same disabled-path cost contract as the metrics
/// counters, held to by the `telemetry_overhead` bench.
#[derive(Debug)]
pub struct Heartbeat<'a> {
    phase: &'static str,
    total: u64,
    cadence: Cadence,
    start_ns: u64,
    budget: Option<&'a crate::robust::ResourceBudget>,
}

impl<'a> Heartbeat<'a> {
    /// A heartbeat for `phase` expecting `total` units of work, on the
    /// system clock at the default cadence.
    pub fn new(phase: &'static str, total: u64) -> Heartbeat<'a> {
        Heartbeat::with_cadence(phase, total, Cadence::new(HEARTBEAT_EVERY))
    }

    /// A heartbeat on an explicit cadence (tests use a mock clock).
    pub fn with_cadence(phase: &'static str, total: u64, cadence: Cadence) -> Heartbeat<'a> {
        let start_ns = cadence.clock.now_ns();
        Heartbeat {
            phase,
            total,
            cadence,
            start_ns,
            budget: None,
        }
    }

    /// Attach the run's budget so heartbeats carry live memory usage and
    /// the remaining deadline.
    pub fn with_budget(mut self, budget: &'a crate::robust::ResourceBudget) -> Heartbeat<'a> {
        self.budget = Some(budget);
        self
    }

    /// Report `done` units complete. Free (one relaxed load and a
    /// branch) unless a collector is installed; rate-limited by the
    /// cadence otherwise.
    #[inline]
    pub fn tick(&mut self, done: u64) {
        if collector_active() {
            self.beat(done);
        }
    }

    #[cold]
    fn beat(&mut self, done: u64) {
        if !self.cadence.due() {
            return;
        }
        let elapsed_ns = self.cadence.clock.now_ns().saturating_sub(self.start_ns);
        let mut fields: Vec<(&'static str, Value)> = Vec::with_capacity(7);
        fields.push(("phase", Value::Str(self.phase.to_owned())));
        fields.push(("done", Value::U64(done)));
        fields.push(("total", Value::U64(self.total)));
        fields.push(("elapsed_ms", Value::U64(elapsed_ns / 1_000_000)));
        if done > 0 && self.total > done {
            let eta_ns = (u128::from(elapsed_ns) * u128::from(self.total - done) / u128::from(done))
                .min(u128::from(u64::MAX)) as u64;
            fields.push(("eta_ms", Value::U64(eta_ns / 1_000_000)));
        }
        match self.budget {
            Some(budget) => {
                fields.push(("mem_bytes", Value::U64(budget.mem_gauge().used_bytes())));
                if let Some(left) = budget.remaining_deadline() {
                    let ms = left.as_millis().min(u128::from(u64::MAX)) as u64;
                    fields.push(("deadline_remaining_ms", Value::U64(ms)));
                }
            }
            None => {
                fields.push((
                    "mem_bytes",
                    Value::U64(metrics().mem_high_water_bytes.get()),
                ));
            }
        }
        dispatch_event(Level::Debug, "progress", &fields);
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`, but only when metrics collection is enabled. The disabled
    /// path is a relaxed load and an untaken branch — cheap enough for hot
    /// loops.
    #[inline]
    pub fn add_if_enabled(&self, n: u64) {
        if metrics_enabled() {
            self.add(n);
        }
    }

    /// Add 1, but only when metrics collection is enabled.
    #[inline]
    pub fn incr_if_enabled(&self) {
        self.add_if_enabled(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge (plain atomic store/load).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that keeps the maximum value it has ever been offered
/// (high-water marks).
#[derive(Debug)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    const fn new() -> MaxGauge {
        MaxGauge(AtomicU64::new(0))
    }

    /// Raise the gauge to `v` if `v` exceeds the current maximum.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// [`MaxGauge::observe`], but only when metrics collection is enabled.
    #[inline]
    pub fn observe_if_enabled(&self, v: u64) {
        if metrics_enabled() {
            self.observe(v);
        }
    }

    /// Current maximum.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An exact `f64` accumulator stored as bits in an atomic (CAS loop). The
/// instrumented sites only add from one thread at a time, so the sum's
/// rounding order — and therefore its bits — is deterministic.
#[derive(Debug)]
pub struct FloatSum(AtomicU64);

impl FloatSum {
    const fn new() -> FloatSum {
        FloatSum(AtomicU64::new(0)) // 0u64 is the bit pattern of 0.0f64
    }

    /// Add `x` to the sum.
    pub fn add(&self, x: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// [`FloatSum::add`], but only when metrics collection is enabled.
    #[inline]
    pub fn add_if_enabled(&self, x: f64) {
        if metrics_enabled() {
            self.add(x);
        }
    }

    /// Current sum.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of buckets in a [`Histogram`] (one per bound, plus overflow).
pub const HISTOGRAM_BUCKETS: usize = 9;

/// A fixed-bucket histogram: bucket `i` counts observations
/// `<= bounds[i]`; the last bucket counts everything larger.
#[derive(Debug)]
pub struct Histogram {
    bounds: [f64; HISTOGRAM_BUCKETS - 1],
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    const fn new(bounds: [f64; HISTOGRAM_BUCKETS - 1]) -> Histogram {
        Histogram {
            bounds,
            counts: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }

    /// Record one observation.
    pub fn observe(&self, x: f64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(HISTOGRAM_BUCKETS - 1);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
    }

    /// [`Histogram::observe`], but only when metrics collection is enabled.
    #[inline]
    pub fn observe_if_enabled(&self, x: f64) {
        if metrics_enabled() {
            self.observe(x);
        }
    }

    /// The upper bucket bounds (the last bucket is unbounded).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Current per-bucket counts.
    pub fn counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, c) in out.iter_mut().zip(&self.counts) {
            *o = c.load(Ordering::Relaxed);
        }
        out
    }
}

/// How one kind of metric is snapshotted, diffed and rendered in the run
/// report. Each rule is written once per kind here; the metrics table only
/// names a metric's kind.
pub trait MetricKind {
    /// The kind's point-in-time value, as held in [`MetricsSnapshot`].
    type Value: Copy + Default + PartialEq + std::fmt::Debug;
    /// The current value.
    fn snapshot(&self) -> Self::Value;
    /// The change from an `earlier` to a `later` snapshot.
    fn delta(later: Self::Value, earlier: Self::Value) -> Self::Value;
    /// The value as a JSON token.
    fn json(value: Self::Value) -> String;
}

impl MetricKind for Counter {
    type Value = u64;
    fn snapshot(&self) -> u64 {
        self.get()
    }
    fn delta(later: u64, earlier: u64) -> u64 {
        later.saturating_sub(earlier)
    }
    fn json(value: u64) -> String {
        value.to_string()
    }
}

/// A gauge is a level, not accumulated work: its delta keeps the later value.
impl MetricKind for Gauge {
    type Value = u64;
    fn snapshot(&self) -> u64 {
        self.get()
    }
    fn delta(later: u64, _earlier: u64) -> u64 {
        later
    }
    fn json(value: u64) -> String {
        value.to_string()
    }
}

/// A high-water mark is a level, not accumulated work: its delta keeps the
/// later value.
impl MetricKind for MaxGauge {
    type Value = u64;
    fn snapshot(&self) -> u64 {
        self.get()
    }
    fn delta(later: u64, _earlier: u64) -> u64 {
        later
    }
    fn json(value: u64) -> String {
        value.to_string()
    }
}

impl MetricKind for FloatSum {
    type Value = f64;
    fn snapshot(&self) -> f64 {
        self.get()
    }
    fn delta(later: f64, earlier: f64) -> f64 {
        later - earlier
    }
    fn json(value: f64) -> String {
        json_f64(value)
    }
}

impl MetricKind for Histogram {
    type Value = [u64; HISTOGRAM_BUCKETS];
    fn snapshot(&self) -> Self::Value {
        self.counts()
    }
    fn delta(later: Self::Value, earlier: Self::Value) -> Self::Value {
        std::array::from_fn(|i| later[i].saturating_sub(earlier[i]))
    }
    fn json(value: Self::Value) -> String {
        let items: Vec<String> = value.iter().map(u64::to_string).collect();
        format!("[{}]", items.join(","))
    }
}

/// Generates the registry from one table: [`Metrics`] and its static,
/// [`Metrics::NAMES`], and [`MetricsSnapshot`] with `capture`, `diff` and
/// `to_json`. A table line is a doc comment plus `name: Kind;`, where
/// `Kind` is a [`MetricKind`] type and may carry its constructor
/// arguments (`Histogram(BOUNDS)`); `, json = f` replaces the kind's JSON
/// rule for that line. A `derived key = |s| expr;` line adds a JSON key
/// computed from the snapshot without declaring a metric. JSON keys appear
/// in table order.
macro_rules! metrics {
    (@munch [$($m:tt)*] [$($j:tt)*]
        derived $key:ident = |$s:ident| $value:expr; $($rest:tt)*) => {
        metrics!(@munch [$($m)*]
            [$($j)* (stringify!($key), |$s: &MetricsSnapshot| ($value).to_string())]
            $($rest)*);
    };
    (@munch [$($m:tt)*] [$($j:tt)*]
        $(#[doc = $doc:literal])*
        $name:ident: $kind:ident $(($($arg:expr),*))? $(, json = $render:path)?;
        $($rest:tt)*) => {
        metrics!(@munch
            [$($m)* [$(#[doc = $doc])* $name $kind ($($($arg),*)?)]]
            [$($j)* (stringify!($name), metrics!(@render $name $kind $($render)?))]
            $($rest)*);
    };
    (@render $name:ident $kind:ident) => {
        |s: &MetricsSnapshot| <$kind as MetricKind>::json(s.$name)
    };
    (@render $name:ident $kind:ident $render:path) => {
        |s: &MetricsSnapshot| $render(s.$name)
    };
    (@munch [$([$(#[doc = $doc:literal])* $name:ident $kind:ident ($($arg:expr),*)])*]
        [$(($key:expr, $render:expr))*]) => {
        /// The process-wide metrics registry: every instrumented quantity in
        /// the crate, by name. Increments are gated on [`metrics_enabled`]
        /// at the instrumentation sites, so the registry is free (one relaxed
        /// load and a branch per site) until a caller opts in.
        #[derive(Debug)]
        pub struct Metrics {
            $($(#[doc = $doc])* pub $name: $kind,)*
        }

        static METRICS: Metrics = Metrics {
            $($name: $kind::new($($arg),*),)*
        };

        impl Metrics {
            /// Every metric's name, in table order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name)),*];
        }

        /// A point-in-time copy of every metric, for delta computation and
        /// JSON reports.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])* pub $name: <$kind as MetricKind>::Value,)*
        }

        impl MetricsSnapshot {
            /// Snapshot the process-wide registry right now.
            pub fn capture() -> MetricsSnapshot {
                let m = metrics();
                MetricsSnapshot {
                    $($name: m.$name.snapshot(),)*
                }
            }

            /// The work done between `earlier` and `self`, by each kind's
            /// [`MetricKind::delta`]: counters and histogram buckets
            /// subtract (saturating), the float sum subtracts exactly, and
            /// gauges keep `self`'s value.
            pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: <$kind as MetricKind>::delta(self.$name, earlier.$name),)*
                }
            }

            /// Render as a stable JSON object (the `"metrics"` payload of the
            /// `--metrics-out` run report).
            pub fn to_json(&self) -> String {
                let entries: &[(&str, fn(&MetricsSnapshot) -> String)] =
                    &[$(($key, $render)),*];
                let body: Vec<String> = entries
                    .iter()
                    .map(|(key, render)| format!("{}:{}", json_string(key), render(self)))
                    .collect();
                format!("{{{}}}", body.join(","))
            }
        }
    };
    ($($table:tt)*) => {
        metrics!(@munch [] [] $($table)*);
    };
}

const POW10_BOUNDS: [f64; HISTOGRAM_BUCKETS - 1] = [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8];

/// The dispatch-tier gauge's JSON rule: the tier name, not its code.
fn tier_json(code: u64) -> String {
    json_string(crate::kernels::dispatch::tier_code_name(code))
}

metrics! {
    /// `O(1)` lookups served by a dense (precomputed) distance oracle.
    oracle_dense_evals: Counter;
    /// `O(m)` on-the-fly recomputations by the lazy clusterings oracle.
    oracle_lazy_evals: Counter;
    /// Pair evaluations served by the packed SWAR kernels
    /// ([`crate::kernels`]) — dense builds and packed lazy lookups both
    /// count here, in addition to their dense/lazy counter.
    oracle_packed_evals: Counter;
    /// Scalar-lane pair evaluations on the weighted oracle's unpacked
    /// tail (equal-weight groups too small for a packed block).
    kernels_fallback_scalar: Counter;
    /// `sep_row_into` batch invocations (one per row×band block in the
    /// cache-blocked fills).
    kernels_row_batches: Counter;
    /// Code of the SIMD dispatch tier the most recent [`crate::kernels::LabelMatrix`]
    /// was built with (see [`crate::kernels::dispatch::Tier::code`]; 0 =
    /// no packed kernel has run), rendered as the tier name in JSON.
    /// Recorded unconditionally — it is one store per matrix build, and
    /// traces must state which code path produced their numbers even when
    /// counters are off.
    kernels_dispatch_tier: Gauge, json = tier_json;
    // Total distance-oracle evaluations (dense + lazy): the quantity the
    // Figure 5 scaling claim is stated in. A report key, not a metric.
    derived oracle_evals_total = |s| s.oracle_dense_evals + s.oracle_lazy_evals;
    /// LOCALSEARCH full passes over the node set.
    ls_passes: Counter;
    /// LOCALSEARCH node visits (one move evaluation each).
    ls_nodes_visited: Counter;
    /// LOCALSEARCH accepted moves (node changed cluster).
    ls_moves: Counter;
    /// Total cost improvement accumulated by accepted LOCALSEARCH moves.
    ls_improvement: FloatSum;
    /// Per-move improvement distribution (power-of-ten buckets).
    ls_delta_hist: Histogram(POW10_BOUNDS);
    /// Agglomerative (NN-chain) merges performed.
    linkage_merges: Counter;
    /// Times the NN-chain went empty and had to be re-seeded.
    linkage_chain_rebuilds: Counter;
    /// BALLS balls carved off (multi-node clusters formed).
    balls_formed: Counter;
    /// FURTHEST centers placed across all rounds.
    furthest_centers: Counter;
    /// PIVOT pivots drawn.
    pivot_rounds: Counter;
    /// Branch-and-bound nodes expanded by the exact solver.
    exact_nodes: Counter;
    /// SAMPLING meta-runs started.
    sampling_runs: Counter;
    /// Objects drawn into SAMPLING's random sample.
    sampling_sampled: Counter;
    /// Objects placed by SAMPLING's per-node assignment phase.
    sampling_assigned: Counter;
    /// Leftover singletons re-clustered in SAMPLING's final phase.
    sampling_reclustered: Counter;
    /// Snapshot files written successfully.
    checkpoint_saves: Counter;
    /// Snapshot write attempts retried after an I/O failure.
    checkpoint_retries: Counter;
    /// Snapshot writes abandoned after exhausting retries.
    checkpoint_failures: Counter;
    /// Corrupt/unreadable snapshots detected at load time (run restarted
    /// fresh).
    checkpoint_corruptions: Counter;
    /// Encoded snapshot sizes in bytes (power-of-ten buckets).
    checkpoint_bytes_hist: Histogram(POW10_BOUNDS);
    /// Condensed-matrix tiles written to the spill directory.
    spill_tiles_written: Counter;
    /// Spilled tiles read back from disk into the pinned cache.
    spill_tiles_read: Counter;
    /// Spilled tiles rebuilt from the packed labels after a CRC mismatch,
    /// torn read, or missing frame.
    spill_tiles_rebuilt: Counter;
    /// Pinned tiles evicted from RAM to stay under the memory budget.
    spill_evictions: Counter;
    /// Spilled-oracle lookups served from a tile already pinned in RAM
    /// (the thread-local memo or the LRU cache) — no disk touch.
    spill_cache_hits: Counter;
    /// Spilled-oracle lookups that bypassed the tile store to the lazy
    /// `O(m)` oracle (tile not resident and the anti-thrash policy
    /// declined to reload it).
    spill_cache_bypass: Counter;
    /// Encoded spill-frame sizes in bytes (power-of-ten buckets).
    spill_bytes_hist: Histogram(POW10_BOUNDS);
    /// Anytime stops caused by the wall-clock deadline.
    interrupts_deadline: Counter;
    /// Anytime stops caused by the iteration cap.
    interrupts_iteration_cap: Counter;
    /// Anytime stops caused by cooperative cancellation.
    interrupts_cancelled: Counter;
    /// Refused allocations (memory ceiling would have been exceeded).
    interrupts_memory: Counter;
    /// Faults injected by an armed [`crate::failpoint`] plan.
    faults_injected: Counter;
    /// High-water mark of tracked [`crate::robust::MemGauge`] bytes.
    mem_high_water_bytes: MaxGauge;
}

static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide [`Metrics`] registry.
#[inline]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

/// Turn metric recording on or off. Off (the default) leaves every
/// instrumentation site as a relaxed load plus an untaken branch.
pub fn set_metrics_enabled(enabled: bool) {
    METRICS_ENABLED.store(enabled, Ordering::Release);
}

/// `true` when instrumentation sites should record.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Record the dispatch tier a freshly built packed matrix will use.
/// Deliberately *not* gated on [`metrics_enabled`]: one relaxed store per
/// matrix build, and run reports must state which code path ran even when
/// counters are off.
#[inline]
pub fn record_dispatch_tier(tier: crate::kernels::dispatch::Tier) {
    METRICS.kernels_dispatch_tier.set(tier.code());
}

/// Count an anytime stop by interrupt kind (called once per handled
/// interrupt, where the trip is converted into a run status).
pub fn count_interrupt(interrupt: crate::robust::Interrupt) {
    use crate::robust::Interrupt;
    let m = metrics();
    let counter = match interrupt {
        Interrupt::Deadline => &m.interrupts_deadline,
        Interrupt::IterationCap => &m.interrupts_iteration_cap,
        Interrupt::Cancelled => &m.interrupts_cancelled,
        Interrupt::MemoryExceeded { .. } => &m.interrupts_memory,
    };
    counter.incr_if_enabled();
}

// ---------------------------------------------------------------------------
// Span timing aggregates
// ---------------------------------------------------------------------------

/// Histogram bounds for span durations, in nanoseconds (1 µs … 10 s;
/// the 9th bucket catches anything longer).
pub const TIMING_NS_BOUNDS: [f64; HISTOGRAM_BUCKETS - 1] =
    [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];

/// Wall-clock aggregates for one span name, recorded by closing
/// [`SpanGuard`]s while metrics are enabled.
#[derive(Debug)]
pub struct SpanStats {
    /// Number of closes.
    pub count: Counter,
    /// Total elapsed nanoseconds across all closes, children included.
    pub total_ns: Counter,
    /// Elapsed nanoseconds minus time spent inside child spans on the
    /// same thread — the span's own work.
    pub self_ns: Counter,
    /// Longest single close, in nanoseconds.
    pub max_ns: MaxGauge,
    /// Distribution of per-close elapsed ns ([`TIMING_NS_BOUNDS`]).
    pub ns_hist: Histogram,
}

fn timings_registry() -> &'static RwLock<Vec<(&'static str, &'static SpanStats)>> {
    static REG: OnceLock<RwLock<Vec<(&'static str, &'static SpanStats)>>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(Vec::new()))
}

/// The [`SpanStats`] slot for `name`, created on first use. Slots are
/// leaked into `'static`: span names are a small closed set of string
/// literals, so the registry is bounded and the leak is the price of
/// lock-free recording on the hot drop path (a linear scan of a dozen
/// entries under a read lock, then plain relaxed atomics).
pub fn span_stats(name: &'static str) -> &'static SpanStats {
    let reg = timings_registry();
    {
        let read = match reg.read() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        if let Some(&(_, stats)) = read.iter().find(|(n, _)| *n == name) {
            return stats;
        }
    }
    let mut write = match reg.write() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    };
    if let Some(&(_, stats)) = write.iter().find(|(n, _)| *n == name) {
        return stats;
    }
    let stats: &'static SpanStats = Box::leak(Box::new(SpanStats {
        count: Counter::new(),
        total_ns: Counter::new(),
        self_ns: Counter::new(),
        max_ns: MaxGauge::new(),
        ns_hist: Histogram::new(TIMING_NS_BOUNDS),
    }));
    write.push((name, stats));
    stats
}

/// A point-in-time copy of one span name's timing aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTiming {
    /// Span name.
    pub name: &'static str,
    /// See [`SpanStats::count`].
    pub count: u64,
    /// See [`SpanStats::total_ns`].
    pub total_ns: u64,
    /// See [`SpanStats::self_ns`].
    pub self_ns: u64,
    /// See [`SpanStats::max_ns`].
    pub max_ns: u64,
    /// See [`SpanStats::ns_hist`].
    pub ns_hist: [u64; HISTOGRAM_BUCKETS],
}

/// A snapshot of every span name's timing aggregates, sorted by name —
/// the `timings` block of the run report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimingsSnapshot {
    /// Per-span-name aggregates, sorted by name.
    pub spans: Vec<SpanTiming>,
}

impl TimingsSnapshot {
    /// Snapshot the process-wide timing registry right now.
    pub fn capture() -> TimingsSnapshot {
        let read = match timings_registry().read() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        let mut spans: Vec<SpanTiming> = read
            .iter()
            .map(|&(name, s)| SpanTiming {
                name,
                count: s.count.get(),
                total_ns: s.total_ns.get(),
                self_ns: s.self_ns.get(),
                max_ns: s.max_ns.get(),
                ns_hist: s.ns_hist.counts(),
            })
            .collect();
        drop(read);
        spans.sort_by_key(|t| t.name);
        TimingsSnapshot { spans }
    }

    /// The aggregates for `name`, if that span has closed at least once.
    pub fn get(&self, name: &str) -> Option<&SpanTiming> {
        self.spans.iter().find(|t| t.name == name)
    }

    /// Render as a stable JSON object keyed by span name:
    /// `{"dense_build":{"count":1,"total_ns":…,"self_ns":…,"max_ns":…,
    /// "ns_hist":[…]}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + 128 * self.spans.len());
        s.push('{');
        for (i, t) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let hist: Vec<String> = t.ns_hist.iter().map(|c| c.to_string()).collect();
            s.push_str(&json_string(t.name));
            s.push_str(&format!(
                ":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"max_ns\":{},\"ns_hist\":[{}]}}",
                t.count,
                t.total_ns,
                t.self_ns,
                t.max_ns,
                hist.join(",")
            ));
        }
        s.push('}');
        s
    }
}

// ---------------------------------------------------------------------------
// Run reports
// ---------------------------------------------------------------------------

/// JSON object describing the host the process is running on: arch, OS,
/// CPU count, the CPU features relevant to kernel dispatch, and the
/// requested/selected SIMD tier. Embedded in every run report so a
/// benchmark number always states what hardware and code path produced it
/// (e.g. "speedup measured on a 1-CPU host" is machine-readable).
pub fn host_report_json() -> String {
    use crate::kernels::dispatch;
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<String> = dispatch::detected_features()
        .iter()
        .map(|f| json_string(f))
        .collect();
    format!(
        "{{\"arch\":{},\"os\":{},\"cpus\":{},\"features\":[{}],\"simd_requested\":{},\"simd_selected\":{}}}",
        json_string(std::env::consts::ARCH),
        json_string(std::env::consts::OS),
        cpus,
        features.join(","),
        json_string(dispatch::requested()),
        json_string(dispatch::selected().name()),
    )
}

/// The standard run report: schema tag, host block, per-span `timings`,
/// the `faults` injected by an armed failpoint plan (empty when none is
/// armed — a run report is self-describing about whether chaos was in
/// play), and the current metrics registry. This is the exact payload of
/// the CLI's `--metrics-out`, the bench binaries' `--metrics-out`, and
/// the `run_report` records embedded in `BENCH_*.json`.
pub fn run_report_json() -> String {
    let faults: Vec<String> = crate::failpoint::injection_log()
        .iter()
        .map(|f| json_string(f))
        .collect();
    format!(
        "{{\"schema\":\"aggclust-run-report-v1\",\"host\":{},\"timings\":{},\"faults\":[{}],\"metrics\":{}}}",
        host_report_json(),
        TimingsSnapshot::capture().to_json(),
        faults.join(","),
        MetricsSnapshot::capture().to_json()
    )
}

// ---------------------------------------------------------------------------
// JSON helpers (zero-dependency encoding)
// ---------------------------------------------------------------------------

/// Escape and quote `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // Ensure the token parses back as a number even for integral
        // values (a bare `5` is fine JSON; keep it simple).
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A small process-unique id for the calling thread (1-based, assigned
/// at the thread's first telemetry use). Stamped as `tid` on every JSONL
/// trace record so offline analysis can rebuild per-thread span stacks —
/// span nesting is only meaningful within one thread.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

fn fields_json(fields: &[(&'static str, Value)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&json_string(k));
        s.push(':');
        s.push_str(&v.to_json());
    }
    s.push('}');
    s
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// A leveled human logger writing one line per event to stderr. Span
/// closes are logged at [`Level::Debug`], span opens at [`Level::Trace`].
///
/// Line format follows CLI conventions so routing a message through the
/// logger is byte-identical to the `eprintln!` it replaces: errors are
/// prefixed `error: `, warnings `warning: `, info lines are bare.
/// Structured fields are appended only when the sink's threshold is
/// [`Level::Debug`] or chattier — the machine-readable home for fields is
/// [`JsonlSink`], not the human log.
#[derive(Debug)]
pub struct StderrSink {
    min: Level,
}

impl StderrSink {
    /// Log events at `min` and below (toward [`Level::Error`]).
    pub fn new(min: Level) -> StderrSink {
        StderrSink { min }
    }

    fn fields_suffix(&self, fields: &[(&'static str, Value)]) -> String {
        if self.min >= Level::Debug {
            fields_human(fields)
        } else {
            String::new()
        }
    }
}

fn fields_human(fields: &[(&'static str, Value)]) -> String {
    if fields.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!(" [{}]", parts.join(" "))
}

impl Collector for StderrSink {
    fn enabled(&self, level: Level) -> bool {
        level <= self.min
    }

    fn event(&self, event: &Event<'_>) {
        let prefix = match event.level {
            Level::Error => "error: ",
            Level::Warn => "warning: ",
            Level::Info => "",
            Level::Debug => "[debug] ",
            Level::Trace => "[trace] ",
        };
        // The stderr sink IS the error-reporting path for telemetry.
        eprintln!(
            "{prefix}{}{}",
            event.message,
            self.fields_suffix(event.fields)
        ); // lint:allow-eprintln
    }

    fn span_start(&self, span: &SpanData) {
        if self.enabled(Level::Trace) {
            eprintln!(
                "[trace] span {} opened{}",
                span.name,
                fields_human(&span.fields)
            ); // lint:allow-eprintln
        }
    }

    fn span_end(&self, span: &SpanData, elapsed: Duration) {
        if self.enabled(Level::Debug) {
            eprintln!(
                "[debug] span {} closed in {:.3} ms{}",
                span.name,
                elapsed.as_secs_f64() * 1e3,
                fields_human(&span.fields)
            ); // lint:allow-eprintln
        }
    }
}

/// Renders only the rate-limited `progress` heartbeats (see [`Heartbeat`])
/// as single human-readable stderr lines, ignoring every other event and
/// all spans. Meant to ride in a [`TeeCollector`] next to a quieter
/// [`StderrSink`]: the CLI's `--progress` flag without dragging the whole
/// debug firehose along.
///
/// Line shape (fields appear when the heartbeat carried them):
///
/// ```text
/// progress: local_search 2500/5000 (50.0%) elapsed 1.2s eta 1.3s mem 12.4 MB deadline 3.0s
/// ```
#[derive(Debug, Default)]
pub struct ProgressSink;

impl ProgressSink {
    /// A fresh progress renderer.
    pub fn new() -> ProgressSink {
        ProgressSink
    }
}

fn field_u64(fields: &[(&'static str, Value)], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        Value::U64(x) if *k == key => Some(*x),
        _ => None,
    })
}

fn human_secs(ms: u64) -> String {
    format!("{:.1}s", ms as f64 / 1e3)
}

impl Collector for ProgressSink {
    fn enabled(&self, level: Level) -> bool {
        // Heartbeats are emitted at Debug; chattier levels are not needed.
        level <= Level::Debug
    }

    fn event(&self, event: &Event<'_>) {
        if event.message != "progress" {
            return;
        }
        let phase = event
            .fields
            .iter()
            .find_map(|(k, v)| match v {
                Value::Str(s) if *k == "phase" => Some(s.as_str()),
                _ => None,
            })
            .unwrap_or("?");
        let done = field_u64(event.fields, "done").unwrap_or(0);
        let total = field_u64(event.fields, "total").unwrap_or(0);
        let mut line = format!("progress: {phase} {done}/{total}");
        if total > 0 {
            line.push_str(&format!(" ({:.1}%)", 100.0 * done as f64 / total as f64));
        }
        if let Some(ms) = field_u64(event.fields, "elapsed_ms") {
            line.push_str(&format!(" elapsed {}", human_secs(ms)));
        }
        if let Some(ms) = field_u64(event.fields, "eta_ms") {
            line.push_str(&format!(" eta {}", human_secs(ms)));
        }
        if let Some(bytes) = field_u64(event.fields, "mem_bytes") {
            line.push_str(&format!(" mem {:.1} MB", bytes as f64 / (1 << 20) as f64));
        }
        if let Some(ms) = field_u64(event.fields, "deadline_remaining_ms") {
            line.push_str(&format!(" deadline {}", human_secs(ms)));
        }
        eprintln!("{line}"); // lint:allow-eprintln
    }

    fn span_start(&self, _span: &SpanData) {}

    fn span_end(&self, _span: &SpanData, _elapsed: Duration) {}
}

/// A machine-readable trace sink: one JSON object per line (JSONL), one
/// line per event / span start / span end.
///
/// Record shapes (`tid` is [`current_tid`] — the key for rebuilding
/// per-thread span stacks offline):
///
/// ```json
/// {"type":"event","ts_ns":123,"tid":1,"level":"info","message":"...","fields":{...}}
/// {"type":"span_start","ts_ns":123,"tid":1,"span":"balls","id":7,"fields":{...}}
/// {"type":"span_end","ts_ns":456,"tid":1,"span":"balls","id":7,"elapsed_ns":333,"fields":{...}}
/// ```
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
    clock: Clock,
    max: Level,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").field("max", &self.max).finish()
    }
}

impl JsonlSink {
    /// Trace into any writer, recording events at `max` and below.
    pub fn new(out: Box<dyn Write + Send>, max: Level) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
            clock: Clock::system(),
            max,
        }
    }

    /// Trace into a freshly created (truncated) file.
    pub fn to_file(path: &std::path::Path, max: Level) -> std::io::Result<JsonlSink> {
        let file = crate::iofs::create("trace.create", path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(file)), max))
    }

    fn write_line(&self, line: String) {
        if let Ok(mut out) = self.out.lock() {
            // A full disk should not take the algorithm down with it.
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    }
}

impl Collector for JsonlSink {
    fn enabled(&self, level: Level) -> bool {
        level <= self.max
    }

    fn event(&self, event: &Event<'_>) {
        self.write_line(format!(
            "{{\"type\":\"event\",\"ts_ns\":{},\"tid\":{},\"level\":{},\"message\":{},\"fields\":{}}}",
            self.clock.now_ns(),
            current_tid(),
            json_string(event.level.as_str()),
            json_string(event.message),
            fields_json(event.fields),
        ));
    }

    fn span_start(&self, span: &SpanData) {
        self.write_line(format!(
            "{{\"type\":\"span_start\",\"ts_ns\":{},\"tid\":{},\"span\":{},\"id\":{},\"fields\":{}}}",
            self.clock.now_ns(),
            current_tid(),
            json_string(span.name),
            span.id,
            fields_json(&span.fields),
        ));
    }

    fn span_end(&self, span: &SpanData, elapsed: Duration) {
        self.write_line(format!(
            "{{\"type\":\"span_end\",\"ts_ns\":{},\"tid\":{},\"span\":{},\"id\":{},\"elapsed_ns\":{},\"fields\":{}}}",
            self.clock.now_ns(),
            current_tid(),
            json_string(span.name),
            span.id,
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            fields_json(&span.fields),
        ));
    }
}

/// Fans spans and events out to several collectors.
#[derive(Default)]
pub struct TeeCollector {
    sinks: Vec<Arc<dyn Collector>>,
}

impl std::fmt::Debug for TeeCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeCollector")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TeeCollector {
    /// An empty tee (drops everything until sinks are added).
    pub fn new() -> TeeCollector {
        TeeCollector::default()
    }

    /// Add a sink.
    pub fn push(&mut self, sink: Arc<dyn Collector>) {
        self.sinks.push(sink);
    }

    /// `true` when no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Collector for TeeCollector {
    fn enabled(&self, level: Level) -> bool {
        self.sinks.iter().any(|s| s.enabled(level))
    }

    fn event(&self, event: &Event<'_>) {
        for s in &self.sinks {
            if s.enabled(event.level) {
                s.event(event);
            }
        }
    }

    fn span_start(&self, span: &SpanData) {
        for s in &self.sinks {
            s.span_start(span);
        }
    }

    fn span_end(&self, span: &SpanData, elapsed: Duration) {
        for s in &self.sinks {
            s.span_end(span, elapsed);
        }
    }
}

/// A collector that records everything into memory — the test double.
#[derive(Debug, Default)]
pub struct MemoryCollector {
    records: Mutex<Vec<String>>,
}

impl MemoryCollector {
    /// A fresh, empty collector.
    pub fn new() -> MemoryCollector {
        MemoryCollector::default()
    }

    /// Every record captured so far, formatted as
    /// `event <level> <message>` / `span_start <name>` /
    /// `span_end <name>`.
    pub fn records(&self) -> Vec<String> {
        self.records.lock().map(|r| r.clone()).unwrap_or_default()
    }

    fn push(&self, s: String) {
        if let Ok(mut r) = self.records.lock() {
            r.push(s);
        }
    }
}

impl Collector for MemoryCollector {
    fn enabled(&self, _level: Level) -> bool {
        true
    }

    fn event(&self, event: &Event<'_>) {
        self.push(format!(
            "event {} {}{}",
            event.level,
            event.message,
            fields_human(event.fields)
        ));
    }

    fn span_start(&self, span: &SpanData) {
        self.push(format!(
            "span_start {}{}",
            span.name,
            fields_human(&span.fields)
        ));
    }

    fn span_end(&self, span: &SpanData, _elapsed: Duration) {
        self.push(format!(
            "span_end {}{}",
            span.name,
            fields_human(&span.fields)
        ));
    }
}

/// Serializes the library tests that touch process-global state: those
/// that flip the collector or the metrics switch, read global counter
/// deltas, or write spill tiles (which the spill counters see). The rest of
/// the suite runs in parallel threads.
#[cfg(test)]
pub(crate) fn global_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_and_order() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Debug < Level::Trace);
        assert_eq!(Level::Trace.to_string(), "trace");
    }

    #[test]
    fn clock_mock_advances_and_shares_time() {
        let clock = Clock::mock();
        assert!(clock.is_mock());
        assert_eq!(clock.now_ns(), 0);
        let twin = clock.clone();
        clock.advance(Duration::from_millis(5));
        assert_eq!(twin.now_ns(), 5_000_000);
        // Advancing the system clock is a documented no-op.
        let sys = Clock::system();
        assert!(!sys.is_mock());
        let a = sys.now_ns();
        sys.advance(Duration::from_secs(3600));
        assert!(sys.now_ns() < a + 1_000_000_000);
    }

    #[test]
    fn system_clock_is_monotone() {
        let clock = Clock::system();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn float_sum_accumulates() {
        let s = FloatSum::new();
        s.add(1.5);
        s.add(2.25);
        assert_eq!(s.get(), 3.75);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(POW10_BOUNDS);
        h.observe(0.0); // <= 1e-6
        h.observe(0.5); // <= 1.0
        h.observe(1e12); // overflow bucket
        let counts = h.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[3], 1);
        assert_eq!(counts[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    /// A snapshot with a distinct value in every field.
    fn distinct_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            oracle_dense_evals: 1001,
            oracle_lazy_evals: 2002,
            oracle_packed_evals: 3003,
            kernels_fallback_scalar: 4004,
            kernels_row_batches: 5005,
            kernels_dispatch_tier: 4,
            ls_passes: 7007,
            ls_nodes_visited: 8008,
            ls_moves: 9009,
            ls_improvement: 12.5,
            ls_delta_hist: [1100, 1101, 1102, 1103, 1104, 1105, 1106, 1107, 1108],
            linkage_merges: 12012,
            linkage_chain_rebuilds: 13013,
            balls_formed: 14014,
            furthest_centers: 15015,
            pivot_rounds: 16016,
            exact_nodes: 17017,
            sampling_runs: 18018,
            sampling_sampled: 19019,
            sampling_assigned: 20020,
            sampling_reclustered: 21021,
            checkpoint_saves: 22022,
            checkpoint_retries: 23023,
            checkpoint_failures: 24024,
            checkpoint_corruptions: 25025,
            checkpoint_bytes_hist: [2600, 2601, 2602, 2603, 2604, 2605, 2606, 2607, 2608],
            spill_tiles_written: 27027,
            spill_tiles_read: 28028,
            spill_tiles_rebuilt: 29029,
            spill_evictions: 30030,
            spill_cache_hits: 31031,
            spill_cache_bypass: 32032,
            spill_bytes_hist: [3300, 3301, 3302, 3303, 3304, 3305, 3306, 3307, 3308],
            interrupts_deadline: 34034,
            interrupts_iteration_cap: 35035,
            interrupts_cancelled: 36036,
            interrupts_memory: 37037,
            faults_injected: 38038,
            mem_high_water_bytes: 39039,
        }
    }

    #[test]
    fn snapshot_diff_isolates_deltas() {
        {
            let _guard = global_state_lock();
            let before = MetricsSnapshot::capture();
            set_metrics_enabled(true);
            metrics().oracle_dense_evals.add(7);
            metrics().ls_moves.incr();
            set_metrics_enabled(false);
            let after = MetricsSnapshot::capture();
            let delta = after.diff(&before);
            assert!(delta.oracle_dense_evals >= 7);
            assert!(delta.ls_moves >= 1);
        }

        // One metric of every kind, against its kind's rule.
        let later = distinct_snapshot();
        let earlier = MetricsSnapshot {
            oracle_dense_evals: 1,
            oracle_lazy_evals: u64::MAX,
            kernels_dispatch_tier: 2,
            mem_high_water_bytes: 50_000,
            ls_improvement: 2.25,
            ls_delta_hist: [100, 0, 0, 0, 0, 0, 0, 0, 5000],
            ..MetricsSnapshot::default()
        };
        let d = later.diff(&earlier);
        assert_eq!(d.oracle_dense_evals, 1000, "Counter subtracts");
        assert_eq!(d.oracle_lazy_evals, 0, "Counter saturates at zero");
        assert_eq!(d.kernels_dispatch_tier, 4, "Gauge keeps the later value");
        assert_eq!(
            d.mem_high_water_bytes, 39039,
            "MaxGauge keeps the later value"
        );
        assert_eq!(d.ls_improvement, 10.25, "FloatSum subtracts");
        assert_eq!(
            d.ls_delta_hist,
            [1000, 1101, 1102, 1103, 1104, 1105, 1106, 1107, 0],
            "Histogram subtracts per bucket, saturating"
        );
    }

    #[test]
    fn snapshot_json_is_parseable_shape() {
        let json = MetricsSnapshot::capture().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));

        // Recorded from the hand-written renderer the table replaced: the
        // run-report format, key order included, must not move.
        assert_eq!(
            distinct_snapshot().to_json(),
            concat!(
                r#"{"oracle_dense_evals":1001,"oracle_lazy_evals":2002,"oracle_packed_evals":3003,"#,
                r#""kernels_fallback_scalar":4004,"kernels_row_batches":5005,"#,
                r#""kernels_dispatch_tier":"avx2","oracle_evals_total":3003,"ls_passes":7007,"#,
                r#""ls_nodes_visited":8008,"ls_moves":9009,"ls_improvement":12.5,"#,
                r#""ls_delta_hist":[1100,1101,1102,1103,1104,1105,1106,1107,1108],"#,
                r#""linkage_merges":12012,"linkage_chain_rebuilds":13013,"balls_formed":14014,"#,
                r#""furthest_centers":15015,"pivot_rounds":16016,"exact_nodes":17017,"#,
                r#""sampling_runs":18018,"sampling_sampled":19019,"sampling_assigned":20020,"#,
                r#""sampling_reclustered":21021,"checkpoint_saves":22022,"checkpoint_retries":23023,"#,
                r#""checkpoint_failures":24024,"checkpoint_corruptions":25025,"#,
                r#""checkpoint_bytes_hist":[2600,2601,2602,2603,2604,2605,2606,2607,2608],"#,
                r#""spill_tiles_written":27027,"spill_tiles_read":28028,"spill_tiles_rebuilt":29029,"#,
                r#""spill_evictions":30030,"spill_cache_hits":31031,"spill_cache_bypass":32032,"#,
                r#""spill_bytes_hist":[3300,3301,3302,3303,3304,3305,3306,3307,3308],"#,
                r#""interrupts_deadline":34034,"interrupts_iteration_cap":35035,"#,
                r#""interrupts_cancelled":36036,"interrupts_memory":37037,"faults_injected":38038,"#,
                r#""mem_high_water_bytes":39039}"#,
            )
        );

        // The keys are exactly the registry's names plus the derived total,
        // each once. A string token is a key when a ':' follows it.
        let tokens: Vec<&str> = json.split('"').collect();
        let mut keys: Vec<&str> = (1..tokens.len())
            .step_by(2)
            .filter(|&i| tokens.get(i + 1).is_some_and(|next| next.starts_with(':')))
            .map(|i| tokens[i])
            .collect();
        let mut expected: Vec<&str> = Metrics::NAMES.to_vec();
        expected.push("oracle_evals_total");
        keys.sort_unstable();
        expected.sort_unstable();
        assert_eq!(keys, expected);
        assert_eq!(Metrics::NAMES.len(), 39);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(5.0), "5.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn memory_collector_captures_spans_and_events() {
        let _guard = global_state_lock();
        let collector = Arc::new(MemoryCollector::new());
        install_collector(collector.clone());
        {
            let _g = crate::span!("test_span", n = 3usize);
            crate::info!("hello", k = 1u64);
        }
        clear_collector();
        let records = collector.records();
        assert!(records.iter().any(|r| r == "span_start test_span [n=3]"));
        assert!(records.iter().any(|r| r == "event info hello [k=1]"));
        assert!(records.iter().any(|r| r == "span_end test_span [n=3]"));
        // After clearing, macros are inert.
        crate::info!("dropped");
        assert_eq!(collector.records().len(), records.len());
    }

    #[test]
    fn span_fields_not_evaluated_without_collector() {
        let _guard = global_state_lock();
        // No collector is installed while the lock is held: the field
        // expression must not run.
        let evaluated = std::cell::Cell::new(false);
        {
            let _g = SpanGuard::enter("free", || {
                evaluated.set(true);
                vec![]
            });
        }
        assert!(!evaluated.get());
    }

    #[test]
    fn jsonl_sink_emits_valid_lines() {
        use std::sync::Arc as StdArc;
        #[derive(Clone, Default)]
        struct Shared(StdArc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared::default();
        let sink = JsonlSink::new(Box::new(buf.clone()), Level::Trace);
        sink.event(&Event {
            level: Level::Info,
            message: "m\"sg",
            fields: &[("k", Value::F64(0.5))],
        });
        let span = SpanData {
            name: "s",
            id: 42,
            fields: vec![("n", Value::U64(9))],
        };
        sink.span_start(&span);
        sink.span_end(&span, Duration::from_nanos(77));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[0].contains("\"message\":\"m\\\"sg\""));
        assert!(lines[0].contains("\"k\":0.5"));
        assert!(lines[1].contains("\"type\":\"span_start\""));
        assert!(lines[1].contains("\"id\":42"));
        assert!(lines[2].contains("\"elapsed_ns\":77"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn cadence_fires_once_per_period() {
        let clock = Clock::mock();
        let mut cadence = Cadence::with_clock(clock.clone(), Duration::from_millis(10));
        assert!(!cadence.due(), "not due immediately after construction");
        clock.advance(Duration::from_millis(9));
        assert!(!cadence.due());
        clock.advance(Duration::from_millis(1));
        assert!(cadence.due());
        assert!(!cadence.due(), "due resets the countdown");
        clock.advance(Duration::from_millis(25));
        assert!(cadence.due());
        cadence.reset();
        clock.advance(Duration::from_millis(5));
        assert!(!cadence.due(), "reset restarts the countdown");
        assert_eq!(cadence.every(), Duration::from_millis(10));
    }

    #[test]
    fn heartbeat_emits_rate_limited_progress_events() {
        let _guard = global_state_lock();
        let collector = Arc::new(MemoryCollector::new());
        install_collector(collector.clone());
        let clock = Clock::mock();
        let cadence = Cadence::with_clock(clock.clone(), Duration::from_millis(10));
        let mut hb = Heartbeat::with_cadence("test_phase", 100, cadence);
        hb.tick(1); // cadence not yet due
        clock.advance(Duration::from_millis(10));
        hb.tick(25); // due: one event
        hb.tick(26); // immediately after: suppressed
        clock.advance(Duration::from_millis(10));
        hb.tick(50); // due again
        clear_collector();
        // Tests running in parallel may emit their own events while the
        // collector is installed; count only this heartbeat's.
        let records = collector.records();
        let progress: Vec<&String> = records
            .iter()
            .filter(|r| r.contains("progress") && r.contains("phase=test_phase"))
            .collect();
        assert_eq!(progress.len(), 2, "got {progress:?}");
        assert!(progress[0].contains("done=25"));
        assert!(progress[0].contains("total=100"));
        assert!(progress[0].contains("eta_ms="));
        // Without a collector a tick is inert regardless of cadence.
        clock.advance(Duration::from_secs(1));
        hb.tick(99);
        assert_eq!(collector.records().len(), records.len());
    }

    #[test]
    fn heartbeat_carries_budget_deadline() {
        let _guard = global_state_lock();
        let collector = Arc::new(MemoryCollector::new());
        install_collector(collector.clone());
        let clock = Clock::mock();
        let budget = crate::robust::ResourceBudget::unlimited()
            .with_clock(clock.clone())
            .with_deadline(Duration::from_secs(2));
        let cadence = Cadence::with_clock(clock.clone(), Duration::from_millis(1));
        let mut hb = Heartbeat::with_cadence("budgeted", 10, cadence).with_budget(&budget);
        clock.advance(Duration::from_millis(500));
        hb.tick(5);
        clear_collector();
        let records = collector.records();
        let line = records
            .iter()
            .find(|r| r.contains("progress") && r.contains("phase=budgeted"))
            .cloned()
            .unwrap_or_default();
        assert!(
            line.contains("deadline_remaining_ms=1500"),
            "missing deadline field: {line}"
        );
        assert!(line.contains("mem_bytes="), "missing mem field: {line}");
    }

    #[test]
    fn span_timings_attribute_self_and_total() {
        let _guard = global_state_lock();
        let clock = Clock::mock();
        set_timing_clock(clock.clone());
        set_metrics_enabled(true);
        let outer_before = TimingsSnapshot::capture()
            .get("timing_outer")
            .cloned()
            .unwrap_or(SpanTiming {
                name: "timing_outer",
                count: 0,
                total_ns: 0,
                self_ns: 0,
                max_ns: 0,
                ns_hist: [0; HISTOGRAM_BUCKETS],
            });
        {
            let _outer = crate::span!("timing_outer");
            clock.advance(Duration::from_nanos(100));
            {
                let _inner = crate::span!("timing_inner");
                clock.advance(Duration::from_nanos(40));
            }
            clock.advance(Duration::from_nanos(60));
        }
        set_metrics_enabled(false);
        set_timing_clock(Clock::system());
        let snap = TimingsSnapshot::capture();
        let outer = snap.get("timing_outer").cloned();
        let inner = snap.get("timing_inner").cloned();
        let outer = outer.as_ref().map(|t| {
            (
                t.count - outer_before.count,
                t.total_ns - outer_before.total_ns,
                t.self_ns - outer_before.self_ns,
            )
        });
        assert_eq!(outer, Some((1, 200, 160)), "outer self = total - child");
        let inner = inner.map(|t| (t.total_ns, t.self_ns));
        assert_eq!(inner, Some((40, 40)), "leaf self == total");
    }

    #[test]
    fn timings_snapshot_json_shape() {
        let _guard = global_state_lock();
        set_metrics_enabled(true);
        {
            let _g = crate::span!("timing_json_probe");
        }
        set_metrics_enabled(false);
        let json = TimingsSnapshot::capture().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"timing_json_probe\":{\"count\":"));
        assert!(json.contains("\"total_ns\":"));
        assert!(json.contains("\"self_ns\":"));
        assert!(json.contains("\"max_ns\":"));
        assert!(json.contains("\"ns_hist\":["));
        let report = run_report_json();
        assert!(report.contains("\"timings\":{"));
        assert!(report.contains("\"faults\":["));
    }

    #[test]
    fn current_tid_is_stable_and_distinct() {
        let here = current_tid();
        assert_eq!(here, current_tid());
        let other = std::thread::spawn(current_tid).join().unwrap_or_default();
        assert_ne!(here, other);
        assert!(other >= 1);
    }

    #[test]
    fn interrupt_counting_by_kind() {
        use crate::robust::Interrupt;
        let _guard = global_state_lock();
        let before = MetricsSnapshot::capture();
        set_metrics_enabled(true);
        count_interrupt(Interrupt::Deadline);
        count_interrupt(Interrupt::Cancelled);
        count_interrupt(Interrupt::MemoryExceeded {
            requested: 1,
            limit: 1,
        });
        set_metrics_enabled(false);
        let delta = MetricsSnapshot::capture().diff(&before);
        assert!(delta.interrupts_deadline >= 1);
        assert!(delta.interrupts_cancelled >= 1);
        assert!(delta.interrupts_memory >= 1);
    }
}
