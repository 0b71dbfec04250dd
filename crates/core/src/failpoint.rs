//! Deterministic failpoint injection: named sites, seeded fault plans.
//!
//! Robustness claims ("checkpoint failures degrade to warnings", "a torn
//! snapshot is detected, not trusted") are only as good as the failure
//! paths a test can actually reach. This module provides the missing
//! lever: a registry of **named injection sites** threaded through every
//! filesystem touch (via [`crate::iofs`]), the budget clock, and the
//! memory governor, driven by a **deterministic seeded fault plan** so a
//! failing storm replays byte-for-byte from its spec.
//!
//! # Cost model
//!
//! The design mirrors the telemetry layer: when no plan is armed, a site
//! check ([`check`] / the [`crate::fp!`] macro) is one relaxed atomic
//! load and an untaken branch — cheap enough to leave in release builds
//! and on hot paths. All bookkeeping lives behind the armed branch.
//!
//! # Plan grammar
//!
//! A plan is a comma-separated list of clauses, each
//! `site=kind[:param=value]...`:
//!
//! ```text
//! snapshot.rename=io_error:nth=3        fail the 3rd checkpoint rename
//! snapshot.write=torn:prob=0.25:seed=7  silently truncate ~25% of checkpoint writes
//! cli.input=enospc                      every dataset read reports ENOSPC
//! snapshot.fsync=delay:ms=40            each checkpoint fsync sleeps 40 ms
//! clock=skew:ms=50                      the budget clock runs 50 ms fast
//! alloc=fail:after_mb=32                refuse tracked reserves past 32 MiB
//! ```
//!
//! Kinds: `io_error` (a generic injected [`std::io::Error`]), `enospc`
//! (raw OS error 28), `torn` (the write *silently* stops at a seeded cut
//! — the checksum layers must catch it), `delay` (sleep `ms` inside the
//! site), `skew` (site must be `clock`; shifts [`crate::telemetry::Clock`]
//! system time forward), and `fail` (site must be `alloc`; makes
//! [`crate::robust::RunBudget::try_reserve`] refuse once `after_mb`
//! MiB of reserves have been observed).
//!
//! Activation params: `nth=K` fires on exactly the K-th hit of the site
//! (1-based); `prob=P` fires each hit independently with probability `P`
//! from a splitmix64 stream seeded by `seed` (default 0); with neither,
//! every hit fires. `path=SUBSTR` scopes a filesystem clause to paths
//! containing `SUBSTR`, so concurrent tests with private temp dirs never
//! see each other's storms.
//!
//! # Determinism
//!
//! Same plan + same seed ⇒ same injection sequence: activation state is
//! per-clause (hit counters and rng streams reset at [`arm`] time), cuts
//! and coin flips come from splitmix64, and nothing reads wall-clock
//! time. On a single-threaded workload the sequence of `fault injected`
//! events is therefore reproducible byte-for-byte; with worker threads
//! the *multiset* is plan-determined but interleaving may vary, which is
//! why the chaos harness pins `--threads 1` when diffing sequences.
//!
//! # Scope
//!
//! Arming is process-global but serialized: [`arm`] returns an RAII
//! [`ArmedGuard`] holding a static mutex, so two armed sections (e.g.
//! parallel `#[test]`s) never interleave. The `clock` and `alloc` clauses
//! additionally fire only on the arming thread — filesystem clauses are
//! scoped by `path=`, these two are scoped by thread — so an armed test
//! cannot trip an unrelated test's budget arithmetic.

use crate::error::AggError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

/// Fast-path gate: `true` while a plan is armed. Relaxed load on check,
/// Release store on arm/disarm (same discipline as the telemetry
/// collector gate).
static ARMED: AtomicBool = AtomicBool::new(false);

/// Clock skew (ns) added to `Clock::system()` readings while armed.
static CLOCK_SKEW_NS: AtomicU64 = AtomicU64::new(0);

/// Serializes armed sections across threads; the guard lives inside
/// [`ArmedGuard`].
static ARM_LOCK: Mutex<()> = Mutex::new(());

/// The armed plan plus its mutable activation state.
static ACTIVE: Mutex<Option<PlanState>> = Mutex::new(None);

/// `true` while a fault plan is armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Plan model
// ---------------------------------------------------------------------------

/// What a clause injects when it fires.
#[derive(Clone, Debug, PartialEq)]
enum Kind {
    /// Generic injected I/O error.
    IoError,
    /// "No space left on device" (raw OS error 28).
    Enospc,
    /// Silently stop the write at a seeded cut point.
    Torn,
    /// Sleep inside the site.
    Delay { ms: u64 },
    /// Shift the system clock forward (site `clock` only).
    Skew { ms: u64 },
    /// Refuse tracked reserves past a cumulative threshold (site `alloc`).
    AllocFail { after_mb: u64 },
}

impl Kind {
    fn name(&self) -> &'static str {
        match self {
            Kind::IoError => "io_error",
            Kind::Enospc => "enospc",
            Kind::Torn => "torn",
            Kind::Delay { .. } => "delay",
            Kind::Skew { .. } => "skew",
            Kind::AllocFail { .. } => "fail",
        }
    }
}

/// One `site=kind:params` clause of a parsed plan.
#[derive(Clone, Debug, PartialEq)]
struct Clause {
    site: String,
    kind: Kind,
    /// Fire on exactly the nth hit (1-based).
    nth: Option<u64>,
    /// Fire each hit with this probability.
    prob: Option<f64>,
    /// Seed for the clause's splitmix64 stream (cuts and coin flips).
    seed: u64,
    /// Only fire for paths containing this substring.
    path: Option<String>,
}

/// A parsed, not-yet-armed fault plan. Obtain one with
/// [`FaultPlan::parse`] (the `--fault-plan` / `AGGCLUST_FAULTS` spec
/// format) and activate it with [`arm`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    clauses: Vec<Clause>,
}

/// Per-clause mutable activation state, rebuilt fresh at [`arm`] time so
/// re-arming the same plan replays the same sequence.
#[derive(Debug)]
struct ClauseState {
    hits: u64,
    rng: u64,
    /// Cumulative bytes seen by the `alloc` clause.
    charged: u64,
}

#[derive(Debug)]
struct PlanState {
    plan: FaultPlan,
    states: Vec<ClauseState>,
    /// `site:kind` entries, in injection order.
    log: Vec<String>,
    /// Thread that armed the plan; `clock`/`alloc` clauses only fire here.
    owner: std::thread::ThreadId,
}

fn parse_u64(clause: &str, key: &str, value: &str) -> Result<u64, AggError> {
    value.parse().map_err(|_| {
        AggError::invalid_parameter(
            "fault-plan",
            format!("{key}= needs an unsigned integer in {clause:?}, got {value:?}"),
        )
    })
}

impl FaultPlan {
    /// Parse a plan spec (see the module docs for the grammar). Errors are
    /// typed [`AggError::InvalidParameter`]s so the CLI maps them to its
    /// usage exit code.
    pub fn parse(spec: &str) -> Result<FaultPlan, AggError> {
        let mut clauses = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            clauses.push(Self::parse_clause(raw)?);
        }
        if clauses.is_empty() {
            return Err(AggError::invalid_parameter(
                "fault-plan",
                format!("no clauses in {spec:?}"),
            ));
        }
        Ok(FaultPlan { clauses })
    }

    fn parse_clause(raw: &str) -> Result<Clause, AggError> {
        let (site, rest) = raw.split_once('=').ok_or_else(|| {
            AggError::invalid_parameter(
                "fault-plan",
                format!("expected site=kind[:param=value]..., got {raw:?}"),
            )
        })?;
        let site = site.trim();
        let mut parts = rest.split(':');
        let kind_name = parts.next().unwrap_or("").trim();
        let mut nth = None;
        let mut prob = None;
        let mut seed = 0u64;
        let mut ms = None;
        let mut after_mb = None;
        let mut path = None;
        for part in parts {
            let (key, value) = part.split_once('=').ok_or_else(|| {
                AggError::invalid_parameter(
                    "fault-plan",
                    format!("expected param=value, got {part:?} in {raw:?}"),
                )
            })?;
            match key.trim() {
                "nth" => {
                    let n = parse_u64(raw, "nth", value)?;
                    if n == 0 {
                        return Err(AggError::invalid_parameter(
                            "fault-plan",
                            format!("nth= is 1-based in {raw:?}"),
                        ));
                    }
                    nth = Some(n);
                }
                "prob" => {
                    let p: f64 = value.parse().map_err(|_| {
                        AggError::invalid_parameter(
                            "fault-plan",
                            format!("prob= needs a number in {raw:?}, got {value:?}"),
                        )
                    })?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(AggError::invalid_parameter(
                            "fault-plan",
                            format!("prob= must be in [0, 1] in {raw:?}, got {value}"),
                        ));
                    }
                    prob = Some(p);
                }
                "seed" => seed = parse_u64(raw, "seed", value)?,
                "ms" => ms = Some(parse_u64(raw, "ms", value)?),
                "after_mb" => after_mb = Some(parse_u64(raw, "after_mb", value)?),
                "path" => path = Some(value.to_string()),
                other => {
                    return Err(AggError::invalid_parameter(
                        "fault-plan",
                        format!("unknown param {other:?} in {raw:?}"),
                    ))
                }
            }
        }
        if nth.is_some() && prob.is_some() {
            return Err(AggError::invalid_parameter(
                "fault-plan",
                format!("nth= and prob= are mutually exclusive in {raw:?}"),
            ));
        }
        let kind = match kind_name {
            "io_error" => Kind::IoError,
            "enospc" => Kind::Enospc,
            "torn" => Kind::Torn,
            "delay" => Kind::Delay {
                ms: ms.ok_or_else(|| {
                    AggError::invalid_parameter("fault-plan", format!("delay needs ms= in {raw:?}"))
                })?,
            },
            "skew" => Kind::Skew {
                ms: ms.ok_or_else(|| {
                    AggError::invalid_parameter("fault-plan", format!("skew needs ms= in {raw:?}"))
                })?,
            },
            "fail" => Kind::AllocFail {
                after_mb: after_mb.ok_or_else(|| {
                    AggError::invalid_parameter(
                        "fault-plan",
                        format!("fail needs after_mb= in {raw:?}"),
                    )
                })?,
            },
            other => {
                return Err(AggError::invalid_parameter(
                    "fault-plan",
                    format!(
                        "unknown fault kind {other:?} in {raw:?} \
                         (expected io_error, enospc, torn, delay, skew or fail)"
                    ),
                ))
            }
        };
        match &kind {
            Kind::Skew { .. } if site != "clock" => {
                return Err(AggError::invalid_parameter(
                    "fault-plan",
                    format!("skew applies to the clock site only, got {raw:?}"),
                ))
            }
            Kind::AllocFail { .. } if site != "alloc" => {
                return Err(AggError::invalid_parameter(
                    "fault-plan",
                    format!("fail applies to the alloc site only, got {raw:?}"),
                ))
            }
            _ if site == "clock" && !matches!(kind, Kind::Skew { .. }) => {
                return Err(AggError::invalid_parameter(
                    "fault-plan",
                    format!("the clock site only supports skew, got {raw:?}"),
                ))
            }
            _ if site == "alloc" && !matches!(kind, Kind::AllocFail { .. }) => {
                return Err(AggError::invalid_parameter(
                    "fault-plan",
                    format!("the alloc site only supports fail, got {raw:?}"),
                ))
            }
            _ => {}
        }
        Ok(Clause {
            site: site.to_string(),
            kind,
            nth,
            prob,
            seed,
            path,
        })
    }

    /// Parse the plan in the `AGGCLUST_FAULTS` environment variable, if
    /// set. Unset (or empty) means no plan; a malformed spec is an error,
    /// not a silent no-op.
    pub fn from_env() -> Result<Option<FaultPlan>, AggError> {
        match std::env::var("AGGCLUST_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => Ok(Some(FaultPlan::parse(&spec)?)),
            _ => Ok(None),
        }
    }

    /// Number of clauses in the plan.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// `true` when the plan has no clauses (only reachable by `default()`).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Arming
// ---------------------------------------------------------------------------

/// RAII handle for an armed plan: dropping it disarms every site and
/// clears the clock skew. Holding the guard also holds a process-wide
/// lock, so armed sections from different threads (e.g. parallel tests)
/// run one at a time instead of corrupting each other's storms.
#[derive(Debug)]
pub struct ArmedGuard {
    _lock: MutexGuard<'static, ()>,
}

impl ArmedGuard {
    /// The injection log so far: one `site:kind` entry per injected
    /// fault, in order. Used by determinism tests (same plan + seed must
    /// reproduce the same log).
    pub fn injection_log(&self) -> Vec<String> {
        injection_log()
    }
}

/// The injection log of the currently armed plan: one `site:kind` entry
/// per injected fault, in order. Empty when no plan is armed — which
/// lets run reports embed the log unconditionally
/// ([`crate::telemetry::run_report_json`]'s `faults` array), making
/// chaos runs self-describing without scraping stderr.
pub fn injection_log() -> Vec<String> {
    match ACTIVE.lock() {
        Ok(active) => active.as_ref().map(|s| s.log.clone()).unwrap_or_default(),
        Err(_) => Vec::new(),
    }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Release);
        CLOCK_SKEW_NS.store(0, Ordering::Release);
        if let Ok(mut active) = ACTIVE.lock() {
            *active = None;
        }
    }
}

/// Arm `plan` process-wide and return the guard that keeps it armed.
/// Clause activation state (hit counters, rng streams, the alloc meter)
/// starts fresh, so arming the same plan twice replays the same storm.
pub fn arm(plan: FaultPlan) -> ArmedGuard {
    // A panic inside an armed section (exactly what fault tests provoke)
    // must not poison arming for every later test.
    let lock = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let states = plan
        .clauses
        .iter()
        .map(|c| ClauseState {
            hits: 0,
            // splitmix64 streams diverge immediately even for seed 0.
            rng: c.seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
            charged: 0,
        })
        .collect();
    let skew_ns: u64 = plan
        .clauses
        .iter()
        .filter_map(|c| match c.kind {
            Kind::Skew { ms } => Some(ms.saturating_mul(1_000_000)),
            _ => None,
        })
        .sum();
    if let Ok(mut active) = ACTIVE.lock() {
        *active = Some(PlanState {
            plan,
            states,
            log: Vec::new(),
            owner: std::thread::current().id(),
        });
    }
    CLOCK_SKEW_NS.store(skew_ns, Ordering::Release);
    ARMED.store(true, Ordering::Release);
    ArmedGuard { _lock: lock }
}

// ---------------------------------------------------------------------------
// Site checks
// ---------------------------------------------------------------------------

/// A fault the call site must act on (delays happen inside the check;
/// clock skew happens inside [`crate::telemetry::Clock`]).
#[derive(Debug)]
pub enum Fault {
    /// Fail the operation with this error.
    Io(std::io::Error),
    /// Silently stop the write after `cut` bytes — the durability layers'
    /// checksums are expected to catch the truncation later.
    Torn {
        /// Byte offset of the seeded cut, `< len`.
        cut: usize,
    },
    /// Refuse the tracked allocation.
    AllocFail {
        /// The clause's `after_mb` threshold, in bytes.
        limit: u64,
    },
}

/// Check a named site. Returns the fault to inject, if any. Disarmed
/// cost: one relaxed load and an untaken branch. `len` is the operation
/// size (bytes) used to place torn cuts; pass 0 when size-less.
#[inline]
pub fn check(site: &str, len: usize) -> Option<Fault> {
    if !armed() {
        return None;
    }
    hit(site, None, len)
}

/// [`check`] for two-segment sites named `{prefix}.{op}` (the atomic
/// writer's per-step sites) with a path filter, without allocating the
/// joined name.
#[inline]
pub fn check_op(prefix: &str, op: &str, path: &std::path::Path, len: usize) -> Option<Fault> {
    if !armed() {
        return None;
    }
    hit_scoped(prefix, Some(op), Some(path), len)
}

/// [`check`] with the touched path, for `path=`-scoped clauses.
#[inline]
pub fn check_path(site: &str, path: &std::path::Path, len: usize) -> Option<Fault> {
    if !armed() {
        return None;
    }
    hit_scoped(site, None, Some(path), len)
}

/// Consulted by [`crate::robust::RunBudget::try_reserve`]: should
/// this tracked reserve of `bytes` be refused? Only fires on the thread
/// that armed the plan (see the module docs on scope).
#[inline]
pub fn alloc_check(bytes: u64) -> Option<Fault> {
    if !armed() {
        return None;
    }
    alloc_hit(bytes)
}

/// Nanoseconds of injected clock skew (0 when disarmed). Added to
/// system-clock readings by [`crate::telemetry::Clock::now_ns`]; mock
/// clocks are exempt so deadline tests keep full control of time.
#[inline]
pub fn clock_skew_ns() -> u64 {
    if !armed() {
        return 0;
    }
    clock_skew_slow()
}

#[cold]
fn clock_skew_slow() -> u64 {
    // Thread-scoped like `alloc`: a skew armed by one test must not bend
    // time for a concurrently running one.
    let owner = match ACTIVE.lock() {
        Ok(active) => active.as_ref().map(|s| s.owner),
        Err(_) => None,
    };
    if owner == Some(std::thread::current().id()) {
        CLOCK_SKEW_NS.load(Ordering::Relaxed)
    } else {
        0
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cold]
fn hit(site: &str, path: Option<&std::path::Path>, len: usize) -> Option<Fault> {
    hit_scoped(site, None, path, len)
}

/// The slow path behind every armed check: match `site` (or
/// `{site}.{op}` when `op` is given) against each clause, advance its
/// activation state, and convert the first firing clause into a fault.
#[cold]
fn hit_scoped(
    site: &str,
    op: Option<&str>,
    path: Option<&std::path::Path>,
    len: usize,
) -> Option<Fault> {
    let mut active = match ACTIVE.lock() {
        Ok(a) => a,
        Err(_) => return None,
    };
    let state = active.as_mut()?;
    let mut injected: Option<(usize, Fault)> = None;
    for (i, clause) in state.plan.clauses.iter().enumerate() {
        if !site_matches(&clause.site, site, op) {
            continue;
        }
        if let Some(filter) = &clause.path {
            match path {
                Some(p) if p.to_string_lossy().contains(filter.as_str()) => {}
                _ => continue,
            }
        }
        let cs = &mut state.states[i];
        cs.hits += 1;
        let fire = if let Some(nth) = clause.nth {
            cs.hits == nth
        } else if let Some(prob) = clause.prob {
            // 53-bit uniform draw in [0, 1).
            let draw = (splitmix64(&mut cs.rng) >> 11) as f64 / (1u64 << 53) as f64;
            draw < prob
        } else {
            true
        };
        if !fire {
            continue;
        }
        let fault = match &clause.kind {
            Kind::IoError => Fault::Io(injected_io_error()),
            Kind::Enospc => Fault::Io(std::io::Error::from_raw_os_error(28)),
            Kind::Torn => Fault::Torn {
                cut: if len == 0 {
                    0
                } else {
                    (splitmix64(&mut cs.rng) % len as u64) as usize
                },
            },
            Kind::Delay { ms } => {
                let sleep = Duration::from_millis(*ms);
                let entry = record_injection(state, i, site, op);
                // Telemetry (and the sleep) must run outside the plan
                // lock: a trace sink reads the clock, and the clock reads
                // the plan's owner — re-locking here would deadlock.
                drop(active);
                announce_injection(&entry);
                std::thread::sleep(sleep);
                return None;
            }
            // clock/alloc clauses never match a filesystem site name.
            Kind::Skew { .. } | Kind::AllocFail { .. } => continue,
        };
        injected = Some((i, fault));
        break;
    }
    let (i, fault) = injected?;
    let entry = record_injection(state, i, site, op);
    drop(active);
    announce_injection(&entry);
    Some(fault)
}

#[cold]
fn alloc_hit(bytes: u64) -> Option<Fault> {
    let mut active = match ACTIVE.lock() {
        Ok(a) => a,
        Err(_) => return None,
    };
    let state = active.as_mut()?;
    if state.owner != std::thread::current().id() {
        return None;
    }
    let mut injected = None;
    for (i, clause) in state.plan.clauses.iter().enumerate() {
        let after_mb = match clause.kind {
            Kind::AllocFail { after_mb } => after_mb,
            _ => continue,
        };
        let cs = &mut state.states[i];
        cs.charged = cs.charged.saturating_add(bytes);
        if cs.charged > after_mb << 20 {
            injected = Some((
                i,
                Fault::AllocFail {
                    limit: after_mb << 20,
                },
            ));
            break;
        }
    }
    let (i, fault) = injected?;
    let entry = record_injection(state, i, "alloc", None);
    drop(active);
    announce_injection(&entry);
    Some(fault)
}

/// `clause_site` equals `site` (or `{site}.{op}` when `op` is given),
/// compared without allocating the joined name.
fn site_matches(clause_site: &str, site: &str, op: Option<&str>) -> bool {
    match op {
        None => clause_site == site,
        Some(op) => {
            clause_site.len() == site.len() + 1 + op.len()
                && clause_site.starts_with(site)
                && clause_site.as_bytes()[site.len()] == b'.'
                && clause_site.ends_with(op)
        }
    }
}

/// The generic injected I/O error. `ErrorKind::Other` keeps it distinct
/// from every real-world kind the handlers special-case (NotFound etc.).
fn injected_io_error() -> std::io::Error {
    std::io::Error::other("injected fault (failpoint)")
}

/// Append the `site:kind` entry to the plan's injection log (caller holds
/// the plan lock) and hand it back for [`announce_injection`], which must
/// run *after* the lock is released.
fn record_injection(state: &mut PlanState, clause: usize, site: &str, op: Option<&str>) -> String {
    let kind = state.plan.clauses[clause].kind.name();
    let entry = match op {
        Some(op) => format!("{site}.{op}:{kind}"),
        None => format!("{site}:{kind}"),
    };
    state.log.push(entry.clone());
    entry
}

/// Emit the injection's telemetry. Never called with the plan lock held:
/// a trace sink timestamps the event via [`crate::telemetry::Clock`],
/// whose skew check takes the same lock.
fn announce_injection(entry: &str) {
    crate::warn!(format!("fault injected at {entry}"));
    crate::telemetry::metrics()
        .faults_injected
        .incr_if_enabled();
}

/// Check a named failpoint site, yielding `Option<`[`Fault`]`>`. Forms:
/// `fp!("site")`, `fp!("site", len)` for sized operations. Disarmed cost
/// is one relaxed load and an untaken branch (see the module docs).
#[macro_export]
macro_rules! fp {
    ($site:expr) => {
        $crate::failpoint::check($site, 0)
    };
    ($site:expr, $len:expr) => {
        $crate::failpoint::check($site, $len)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("plan must parse")
    }

    #[test]
    fn grammar_round_trips_the_documented_examples() {
        for spec in [
            "snapshot.rename=io_error:nth=3",
            "snapshot.write=torn:prob=0.25:seed=7",
            "clock=skew:ms=50",
            "alloc=fail:after_mb=32",
            "cli.input=enospc",
            "snapshot.fsync=delay:ms=40",
            "snapshot.rename=io_error:nth=3,snapshot.write=torn:prob=0.25:seed=7",
            "snapshot.write=torn:path=/tmp/mine",
        ] {
            assert!(FaultPlan::parse(spec).is_ok(), "{spec:?} must parse");
        }
    }

    #[test]
    fn malformed_specs_are_typed_parameter_errors() {
        for spec in [
            "",
            "snapshot.rename",
            "snapshot.rename=explode",
            "snapshot.rename=io_error:nth=0",
            "snapshot.rename=io_error:nth=1:prob=0.5",
            "snapshot.rename=io_error:prob=1.5",
            "snapshot.rename=io_error:bogus=1",
            "snapshot.rename=delay",
            "clock=io_error",
            "clock=skew",
            "alloc=skew:ms=5",
            "alloc=fail",
            "snapshot.write=fail:after_mb=1",
        ] {
            match FaultPlan::parse(spec) {
                Err(AggError::InvalidParameter { .. }) => {}
                other => panic!("{spec:?} must be InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn disarmed_checks_are_none() {
        // Hold the arm lock directly so no sibling test has a plan armed
        // while this one asserts the disarmed fast path.
        let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!armed());
        assert!(check("snapshot.rename", 0).is_none());
        assert!(fp!("snapshot.rename").is_none());
        assert!(fp!("snapshot.write", 4096).is_none());
        assert!(alloc_check(1 << 30).is_none());
        assert_eq!(clock_skew_ns(), 0);
    }

    #[test]
    fn nth_fires_exactly_once_on_the_nth_hit() {
        let guard = arm(plan("s.write=io_error:nth=3"));
        for expect_hit in [false, false, true, false, false] {
            let fault = check("s.write", 0);
            assert_eq!(fault.is_some(), expect_hit);
        }
        assert_eq!(guard.injection_log(), vec!["s.write:io_error".to_string()]);
    }

    #[test]
    fn prob_stream_is_deterministic_per_seed() {
        let draws = |seed: u64| -> Vec<bool> {
            let spec = format!("s.op=io_error:prob=0.5:seed={seed}");
            let _guard = arm(plan(&spec));
            (0..64).map(|_| check("s.op", 0).is_some()).collect()
        };
        let a = draws(7);
        let b = draws(7);
        let c = draws(8);
        assert_eq!(a, b, "same seed must replay the same coin flips");
        assert_ne!(a, c, "different seeds must diverge");
        let fired = a.iter().filter(|&&f| f).count();
        assert!((8..=56).contains(&fired), "prob=0.5 fired {fired}/64");
    }

    #[test]
    fn torn_cuts_are_seeded_and_in_range() {
        let cuts = |seed: u64| -> Vec<usize> {
            let spec = format!("s.write=torn:seed={seed}");
            let _guard = arm(plan(&spec));
            (0..32)
                .map(|_| match check("s.write", 1000) {
                    Some(Fault::Torn { cut }) => cut,
                    other => panic!("expected a torn fault, got {other:?}"),
                })
                .collect()
        };
        let a = cuts(3);
        assert_eq!(a, cuts(3));
        assert_ne!(a, cuts(4));
        assert!(a.iter().all(|&c| c < 1000));
        assert!(a.windows(2).any(|w| w[0] != w[1]), "cuts must vary");
    }

    #[test]
    fn enospc_maps_to_raw_os_error_28() {
        let _guard = arm(plan("s.write=enospc"));
        match check("s.write", 10) {
            Some(Fault::Io(e)) => assert_eq!(e.raw_os_error(), Some(28)),
            other => panic!("expected ENOSPC, got {other:?}"),
        }
    }

    #[test]
    fn path_scoping_filters_foreign_paths() {
        let guard = arm(plan("s.write=io_error:path=mine"));
        let mine = std::path::Path::new("/tmp/mine/tile.bin");
        let theirs = std::path::Path::new("/tmp/theirs/tile.bin");
        assert!(check_path("s.write", theirs, 0).is_none());
        assert!(check_path("s.write", mine, 0).is_some());
        // A plain check without a path never matches a scoped clause.
        assert!(check("s.write", 0).is_none());
        assert_eq!(guard.injection_log().len(), 1);
    }

    #[test]
    fn two_segment_sites_match_without_allocation() {
        let _guard = arm(plan("snapshot.rename=io_error"));
        let p = std::path::Path::new("/tmp/x");
        assert!(check_op("snapshot", "rename", p, 0).is_some());
        assert!(check_op("snapshot", "write", p, 0).is_none());
        assert!(check_op("snap", "shot.rename", p, 0).is_none());
    }

    #[test]
    fn alloc_fail_trips_past_the_cumulative_threshold_on_owner_thread() {
        let _guard = arm(plan("alloc=fail:after_mb=1"));
        assert!(alloc_check(512 << 10).is_none(), "0.5 MiB is under");
        assert!(
            alloc_check(512 << 10).is_none(),
            "exactly 1 MiB is still under"
        );
        match alloc_check(1) {
            Some(Fault::AllocFail { limit }) => assert_eq!(limit, 1 << 20),
            other => panic!("expected AllocFail, got {other:?}"),
        }
        assert!(alloc_check(1).is_some(), "stays tripped once crossed");
        // A different thread is out of scope.
        let off_thread = std::thread::spawn(|| alloc_check(1 << 30).is_none())
            .join()
            .expect("thread must not panic");
        assert!(off_thread);
    }

    #[test]
    fn clock_skew_applies_to_owner_thread_system_clocks_only() {
        let _guard = arm(plan("clock=skew:ms=50"));
        assert_eq!(clock_skew_ns(), 50_000_000);
        let off_thread = std::thread::spawn(clock_skew_ns)
            .join()
            .expect("thread must not panic");
        assert_eq!(off_thread, 0);
        let mock = crate::telemetry::Clock::mock();
        assert_eq!(mock.now_ns(), 0, "mock clocks are exempt from skew");
        let system = crate::telemetry::Clock::system();
        assert!(
            system.now_ns() >= 50_000_000,
            "system clock must include the skew"
        );
    }

    #[test]
    fn disarm_clears_every_site() {
        {
            let _guard = arm(plan("s.write=io_error,clock=skew:ms=10"));
            assert!(armed());
            assert!(check("s.write", 0).is_some());
        }
        assert!(!armed());
        assert!(check("s.write", 0).is_none());
        assert_eq!(clock_skew_ns(), 0);
    }

    #[test]
    fn rearming_replays_the_same_storm() {
        let run = || -> Vec<String> {
            let guard = arm(plan(
                "s.write=torn:prob=0.4:seed=11,s.rename=io_error:nth=2",
            ));
            for _ in 0..16 {
                let _ = check("s.write", 256);
                let _ = check("s.rename", 0);
            }
            guard.injection_log()
        };
        let a = run();
        assert_eq!(a, run(), "same plan + seed must replay the same log");
        assert!(!a.is_empty());
    }
}
