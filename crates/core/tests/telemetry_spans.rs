//! Span nesting/timing properties under concurrency with a mock clock.
//!
//! Property (ISSUE 9): for a randomized tree of nested spans executed on
//! 1, 2 and 4 spawned threads sharing one [`Clock::mock`], the collector
//! stream and the timing registry stay mutually consistent:
//!
//! 1. **Per-thread pairing** — within each tid the span records form a
//!    balanced LIFO sequence: every `span_end` matches the most recent
//!    open `span_start` by id *and* name, and nothing stays open.
//! 2. **Id uniqueness** — span ids never repeat across threads.
//! 3. **Interval monotonicity** — each span's elapsed time covers the sum
//!    of its direct children's elapsed times (children nest inside the
//!    parent's interval on one monotone clock), and on a single thread
//!    the elapsed time equals exactly the mock-clock ticks the script
//!    performed inside the span.
//! 4. **Registry agreement** — the [`span_stats`] deltas reproduce the
//!    collector stream: per name, count = number of closes, total_ns =
//!    sum of elapsed, self_ns = sum of (elapsed − same-thread children),
//!    and self ≤ total.
//!
//! The collector, timing clock and registry are process-global, so every
//! case serializes on one mutex (same idiom as telemetry_determinism.rs).

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use aggclust_core::algorithms::sampling::{sampling, SamplingParams};
use aggclust_core::algorithms::{AgglomerativeParams, Algorithm, BallsParams};
use aggclust_core::distance::total_disagreement;
use aggclust_core::span;
use aggclust_core::telemetry::{
    clear_collector, current_tid, install_collector, set_metrics_enabled, set_timing_clock,
    span_stats, Clock, Collector, Event, Level, SpanData,
};
use aggclust_core::{Clustering, ConsensusBuilder, CorrelationInstance, RunBudget, RunCtx};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Span names form a small closed set: the registry interns `&'static str`
/// keys, so reusing these across cases keeps it bounded.
const NAMES: [&str; 3] = ["prop_span_a", "prop_span_b", "prop_span_c"];

#[derive(Clone, Debug)]
enum Rec {
    Start {
        tid: u64,
        name: &'static str,
        id: u64,
    },
    End {
        tid: u64,
        name: &'static str,
        id: u64,
        elapsed_ns: u64,
    },
}

/// Test double capturing the full span stream with the emitting thread's
/// tid (collectors run inline on the instrumented thread, so
/// [`current_tid`] here observes the same value the CLI's `--trace-out`
/// trace would stamp on the record).
#[derive(Default)]
struct RecordingCollector {
    recs: Mutex<Vec<Rec>>,
}

impl Collector for RecordingCollector {
    fn enabled(&self, _level: Level) -> bool {
        true
    }

    fn event(&self, _event: &Event<'_>) {}

    fn span_start(&self, data: &SpanData) {
        self.recs.lock().unwrap().push(Rec::Start {
            tid: current_tid(),
            name: data.name,
            id: data.id,
        });
    }

    fn span_end(&self, data: &SpanData, elapsed: Duration) {
        self.recs.lock().unwrap().push(Rec::End {
            tid: current_tid(),
            name: data.name,
            id: data.id,
            elapsed_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        });
    }
}

/// Run a uniform span tree: at each level open a span, tick the mock
/// clock, recurse into `fanout` children, tick again. Returns the number
/// of `advance` calls made, so the single-thread case can predict every
/// elapsed value exactly.
fn run_tree(clock: &Clock, depth: usize, fanout: usize, tick_ns: u64) -> u64 {
    if depth == 0 {
        return 0;
    }
    let _g = span!(NAMES[depth % NAMES.len()]);
    clock.advance(Duration::from_nanos(tick_ns));
    let mut ticks = 1;
    for _ in 0..fanout {
        ticks += run_tree(clock, depth - 1, fanout, tick_ns);
    }
    clock.advance(Duration::from_nanos(tick_ns));
    ticks + 1
}

/// One closed span reconstructed from the stream.
struct Closed {
    name: &'static str,
    elapsed_ns: u64,
    child_ns: u64,
}

/// Replay one thread's records through a LIFO stack, asserting pairing,
/// and return the closed spans with their direct-child elapsed sums.
fn replay_thread(tid: u64, recs: &[Rec]) -> Vec<Closed> {
    let mut stack: Vec<(u64, &'static str, u64)> = Vec::new(); // (id, name, child_ns)
    let mut closed = Vec::new();
    for rec in recs {
        match *rec {
            Rec::Start { name, id, .. } => stack.push((id, name, 0)),
            Rec::End {
                name,
                id,
                elapsed_ns,
                ..
            } => {
                let (top_id, top_name, child_ns) = stack
                    .pop()
                    .unwrap_or_else(|| panic!("tid {tid}: span_end {name} with empty stack"));
                assert_eq!(
                    (top_id, top_name),
                    (id, name),
                    "tid {tid}: non-LIFO span end"
                );
                assert!(
                    elapsed_ns >= child_ns,
                    "tid {tid}: span {name} elapsed {elapsed_ns} ns < children {child_ns} ns"
                );
                if let Some(parent) = stack.last_mut() {
                    parent.2 += elapsed_ns;
                }
                closed.push(Closed {
                    name,
                    elapsed_ns,
                    child_ns,
                });
            }
        }
    }
    assert!(
        stack.is_empty(),
        "tid {tid}: {} spans never closed",
        stack.len()
    );
    closed
}

fn check_span_tree(threads: usize, depth: usize, fanout: usize, tick_ns: u64) {
    let _guard = telemetry_lock();
    let clock = Clock::mock();
    set_timing_clock(clock.clone());
    set_metrics_enabled(true);
    let collector = Arc::new(RecordingCollector::default());
    install_collector(collector.clone());
    let before: Vec<(u64, u64, u64)> = NAMES
        .iter()
        .map(|name| {
            let s = span_stats(name);
            (s.count.get(), s.total_ns.get(), s.self_ns.get())
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..threads {
            let clock = clock.clone();
            // Stagger tick sizes so concurrent threads cannot mask each
            // other's arithmetic by symmetry.
            scope.spawn(move || run_tree(&clock, depth, fanout, tick_ns + t as u64));
        }
    });

    clear_collector();
    set_metrics_enabled(false);
    set_timing_clock(Clock::system());
    let recs = collector.recs.lock().unwrap().clone();

    // Ids are process-unique, not just thread-unique.
    let mut ids: Vec<u64> = recs
        .iter()
        .filter_map(|r| match r {
            Rec::Start { id, .. } => Some(*id),
            Rec::End { .. } => None,
        })
        .collect();
    let spans_per_thread: usize = (1..=depth).map(|d| fanout.pow((depth - d) as u32)).sum();
    assert_eq!(ids.len(), threads * spans_per_thread, "wrong span count");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), threads * spans_per_thread, "span ids reused");

    let mut tids: Vec<u64> = recs
        .iter()
        .map(|r| match r {
            Rec::Start { tid, .. } | Rec::End { tid, .. } => *tid,
        })
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), threads, "expected one tid per spawned thread");

    let mut closed = Vec::new();
    for &tid in &tids {
        let thread_recs: Vec<Rec> = recs
            .iter()
            .filter(|r| match r {
                Rec::Start { tid: t, .. } | Rec::End { tid: t, .. } => *t == tid,
            })
            .cloned()
            .collect();
        let thread_closed = replay_thread(tid, &thread_recs);
        if threads == 1 {
            // Alone on the mock clock, every elapsed value is exact. A
            // span entered at level L covers T(L) ticks where
            // T(L) = 2 + fanout·T(L-1), and fanout^(depth-L) such spans
            // exist, all named NAMES[L % 3] — compare as a multiset.
            let mut expected: Vec<(&str, u64)> = Vec::new();
            let mut ticks_at_level = 0u64;
            for level in 1..=depth {
                ticks_at_level = 2 + fanout as u64 * ticks_at_level;
                let copies = (fanout as u64).pow((depth - level) as u32);
                for _ in 0..copies {
                    expected.push((NAMES[level % NAMES.len()], ticks_at_level * tick_ns));
                }
            }
            let mut actual: Vec<(&str, u64)> = thread_closed
                .iter()
                .map(|c| (c.name, c.elapsed_ns))
                .collect();
            expected.sort_unstable();
            actual.sort_unstable();
            assert_eq!(actual, expected, "single-thread elapsed values inexact");
        }
        closed.extend(thread_closed);
    }

    // The timing registry must agree with the collector stream.
    for (i, name) in NAMES.iter().enumerate() {
        let s = span_stats(name);
        let (count, total, self_ns) = (
            s.count.get() - before[i].0,
            s.total_ns.get() - before[i].1,
            s.self_ns.get() - before[i].2,
        );
        let mine: Vec<&Closed> = closed.iter().filter(|c| c.name == *name).collect();
        assert_eq!(count, mine.len() as u64, "span {name}: count mismatch");
        let sum_elapsed: u64 = mine.iter().map(|c| c.elapsed_ns).sum();
        let sum_self: u64 = mine.iter().map(|c| c.elapsed_ns - c.child_ns).sum();
        assert_eq!(total, sum_elapsed, "span {name}: total_ns mismatch");
        assert_eq!(self_ns, sum_self, "span {name}: self_ns mismatch");
        assert!(self_ns <= total, "span {name}: self_ns exceeds total_ns");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The four span-stream invariants hold for random tree shapes on
    /// 1, 2 and 4 threads sharing one mock clock.
    #[test]
    fn span_streams_pair_and_time_consistently(
        depth in 1usize..5,
        fanout in 1usize..4,
        tick_ns in 1u64..1_000,
    ) {
        for threads in [1usize, 2, 4] {
            check_span_tree(threads, depth, fanout, tick_ns);
        }
    }
}

/// Pin the exact single-thread attribution on one hand-checked shape:
/// depth 2, fanout 2, 10 ns ticks. The root (level 2 → "prop_span_c")
/// runs 2 own ticks plus two children; each child ("prop_span_b") runs 2
/// ticks. So root elapsed = 60 ns with self = 20 ns, children 20 ns each.
#[test]
fn hand_checked_attribution_depth2() {
    let _guard = telemetry_lock();
    let clock = Clock::mock();
    set_timing_clock(clock.clone());
    set_metrics_enabled(true);
    let collector = Arc::new(RecordingCollector::default());
    install_collector(collector.clone());
    let root = span_stats("prop_span_c");
    let child = span_stats("prop_span_b");
    let before = (
        root.total_ns.get(),
        root.self_ns.get(),
        child.total_ns.get(),
        root.max_ns.get(),
    );

    run_tree(&clock, 2, 2, 10);

    clear_collector();
    set_metrics_enabled(false);
    set_timing_clock(Clock::system());
    assert_eq!(root.total_ns.get() - before.0, 60, "root total");
    assert_eq!(root.self_ns.get() - before.1, 20, "root self");
    assert_eq!(child.total_ns.get() - before.2, 40, "children total");
    assert!(root.max_ns.get() >= 60, "root max gauge");
    assert!(before.3 <= root.max_ns.get(), "max gauge is monotone");
}

/// Every oracle of total inputs prices `D(C)` exactly, the memory-capped
/// lazy one included, so `ConsensusBuilder::try_aggregate` recounts
/// nothing: no run opens a `disagreements` span, and the capped run's
/// `E_D` is the contingency count of its labels.
#[test]
fn a_capped_run_prices_its_disagreements_exactly_without_a_recount() {
    let _guard = telemetry_lock();
    let inputs: Vec<Clustering> = (0..3)
        .map(|i| Clustering::from_labels((0..40).map(|v| ((v + i) / 5 % 4) as u32).collect()))
        .collect();
    let spans = |builder: ConsensusBuilder| {
        let collector = Arc::new(RecordingCollector::default());
        install_collector(collector.clone());
        let result = builder.try_aggregate(&inputs).unwrap();
        clear_collector();
        assert!(!result.sampled);
        assert_eq!(
            result.disagreements,
            total_disagreement(&inputs, &result.clustering)
        );
        let tid = current_tid();
        let recs = collector.recs.lock().unwrap();
        let here: Vec<(bool, &'static str)> = recs
            .iter()
            .filter_map(|rec| match *rec {
                Rec::Start { tid: t, name, .. } if t == tid => Some((true, name)),
                Rec::End { tid: t, name, .. } if t == tid => Some((false, name)),
                _ => None,
            })
            .collect();
        here
    };
    // 40 objects' dense codes need 3 232 bytes: the capped run reads the
    // lazy oracle.
    let here = spans(
        ConsensusBuilder::new()
            .algorithm(Algorithm::LocalSearch(Default::default()))
            .budget(RunBudget::unlimited().with_mem_limit_bytes(3_000)),
    );
    let starts =
        |here: &[(bool, &str)], span: &str| here.iter().filter(|&&rec| rec == (true, span)).count();
    let uncapped = [
        ConsensusBuilder::new(),
        ConsensusBuilder::new().algorithm(Algorithm::LocalSearch(Default::default())),
    ];
    for here in std::iter::once(here).chain(uncapped.map(spans)) {
        assert_eq!(starts(&here, "disagreements"), 0, "{here:?}");
        assert_eq!(starts(&here, "consensus"), 1, "{here:?}");
    }
}

/// SAMPLING's two sub-runs do their `O(s²)` work under named spans, not in
/// the `sampling` span's self-time: AGGLOMERATIVE fills its triangle
/// inside `agglomerative`, and any other base's matrix is built inside
/// `dense_build`. Every pair fill (`condensed_alloc` and `condensed_fill`)
/// opened on this thread during the run has one of them as its parent,
/// one fill per sub-run.
#[test]
fn sampling_sub_runs_fill_their_pairs_under_named_spans() {
    let _guard = telemetry_lock();
    // A 12-block truth with a third of every input's labels redrawn, so
    // that some objects join no sample cluster and are reclustered.
    let mut rng = StdRng::seed_from_u64(5);
    let inputs: Vec<Clustering> = (0..5)
        .map(|_| {
            let labels = (0..1500u32).map(|v| {
                if rng.gen_bool(0.35) {
                    rng.gen_range(0..12)
                } else {
                    v % 12
                }
            });
            Clustering::from_labels(labels.collect())
        })
        .collect();
    let lazy = CorrelationInstance::from_clusterings(&inputs);
    for base in [
        Algorithm::Agglomerative(AgglomerativeParams::paper()),
        Algorithm::Balls(BallsParams::default()),
    ] {
        let collector = Arc::new(RecordingCollector::default());
        install_collector(collector.clone());
        let params = SamplingParams::new(200, base.clone(), 1);
        let details = sampling(&lazy, &params, &mut RunCtx::new(&RunBudget::unlimited())).unwrap();
        clear_collector();
        let reclustered = details.singletons_before_recluster;
        assert!(reclustered >= 2, "{}: no recluster", base.name());
        let owner = match base {
            Algorithm::Agglomerative(_) => "agglomerative",
            _ => "dense_build",
        };
        let tid = current_tid();
        let mut stack: Vec<&'static str> = Vec::new();
        let mut fills = 0;
        for rec in collector.recs.lock().unwrap().iter() {
            match *rec {
                Rec::Start { tid: t, name, .. } if t == tid => {
                    if name == "condensed_alloc" || name == "condensed_fill" {
                        assert_eq!(stack.last(), Some(&owner), "{name} in {stack:?}");
                        assert!(stack.contains(&"sampling"), "{name} in {stack:?}");
                        fills += usize::from(name == "condensed_fill");
                    }
                    stack.push(name);
                }
                Rec::End { tid: t, name, .. } if t == tid => {
                    assert_eq!(stack.pop(), Some(name));
                }
                _ => {}
            }
        }
        // The sample's sub-run and the recluster's.
        assert_eq!(fills, 2, "{}", base.name());
    }
}
