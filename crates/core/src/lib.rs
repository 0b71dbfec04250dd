//! # aggclust-core
//!
//! A from-scratch implementation of **clustering aggregation** and
//! **correlation clustering** as defined by Gionis, Mannila and Tsaparas,
//! *"Clustering Aggregation"*, ICDE 2005.
//!
//! ## The problem
//!
//! Given `m` clusterings `C_1, ..., C_m` of the same `n` objects, find a
//! single clustering `C` minimizing the total number of *disagreements*
//! `D(C) = Σ_i d_V(C_i, C)`, where [`distance::disagreement_distance`]
//! `d_V(C, C')` counts the object pairs that one clustering puts together
//! and the other separates.
//!
//! The problem reduces to **correlation clustering**: summarize the inputs
//! into pairwise distances `X_uv ∈ [0, 1]` (the fraction of input clusterings
//! separating `u` and `v`) and minimize
//!
//! ```text
//! d(C) = Σ_{C(u)=C(v)} X_uv  +  Σ_{C(u)≠C(v)} (1 − X_uv).
//! ```
//!
//! Both problems are NP-complete; this crate implements the paper's five
//! algorithms, all but one parameter-free:
//!
//! | Algorithm | Module | Guarantee |
//! |---|---|---|
//! | `BestClustering` | [`algorithms::best`] | `2(1 − 1/m)`-approximation |
//! | `Balls(α)` | [`algorithms::balls`] | 3-approximation at `α = 1/4` |
//! | `Agglomerative` | [`algorithms::agglomerative`] | 2-approximation for `m = 3` |
//! | `Furthest` | [`algorithms::furthest`] | heuristic (furthest-first traversal) |
//! | `LocalSearch` | [`algorithms::local_search`] | local optimum; also a post-processor |
//! | `Sampling` | [`algorithms::sampling`] | scales any of the above to large `n` |
//!
//! ## Quick start
//!
//! ```
//! use aggclust_core::algorithms::{AgglomerativeParams, Algorithm};
//! use aggclust_core::clustering::Clustering;
//! use aggclust_core::instance::CorrelationInstance;
//! use aggclust_core::{RunBudget, RunCtx};
//!
//! // The worked example from Figure 1 of the paper: three clusterings of
//! // six objects.
//! let c1 = Clustering::from_labels(vec![0, 0, 1, 1, 2, 2]);
//! let c2 = Clustering::from_labels(vec![0, 1, 0, 1, 2, 3]);
//! let c3 = Clustering::from_labels(vec![0, 1, 0, 1, 2, 2]);
//!
//! let instance = CorrelationInstance::from_clusterings(&[c1, c2, c3]);
//! let budget = RunBudget::unlimited();
//! let aggregated = Algorithm::Agglomerative(AgglomerativeParams::default())
//!     .run(&instance.dense_oracle(), &mut RunCtx::new(&budget))?
//!     .clustering;
//!
//! // The optimal aggregate groups {v1,v3}, {v2,v4}, {v5,v6}.
//! assert_eq!(aggregated.num_clusters(), 3);
//! assert_eq!(aggregated.label(0), aggregated.label(2));
//! assert_eq!(aggregated.label(1), aggregated.label(3));
//! assert_eq!(aggregated.label(4), aggregated.label(5));
//! # Ok::<(), aggclust_core::AggError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod algorithms;
pub mod assign;
pub mod clustering;
pub mod consensus;
pub mod cost;
pub mod distance;
pub mod error;
pub mod exact;
pub mod failpoint;
pub mod instance;
pub mod iofs;
pub mod kernels;
pub mod linkage;
pub mod parallel;
pub mod robust;
pub mod snapshot;
pub mod telemetry;
pub mod test_support;

/// Thin observability facade: one import (`use aggclust_core::obs;` or
/// `use aggclust_core::obs::*;`) brings in the span/event macros, the
/// [`telemetry::Collector`] plumbing, the metrics registry, the run report
/// and the mockable [`telemetry::Clock`]. The library ships no collector:
/// the `aggclust` CLI installs its own, which renders the stderr log, the
/// `--progress` lines and the `--trace-out` JSONL. Downstream crates (cli,
/// bench) use this facade instead of reaching into [`telemetry`]
/// piecemeal.
pub mod obs {
    pub use crate::kernels::dispatch as simd_dispatch;
    pub use crate::telemetry::{
        clear_collector, collector_active, current_tid, dispatch_event, host_report_json,
        install_collector, json_string, metrics, metrics_enabled, run_report_json,
        set_metrics_enabled, set_timing_clock, span_stats, timing_now_ns, Cadence, Clock,
        Collector, Counter, Event, Gauge, Heartbeat, Level, MaxGauge, MetricsSnapshot, SpanData,
        SpanGuard, SpanStats, SpanTiming, TimingsSnapshot, Value,
    };
    pub use crate::{event, info, span, warn};
}

pub use clustering::{Clustering, PartialClustering};
pub use consensus::{aggregate, ConsensusBuilder, ConsensusResult, Warning};
pub use error::{AggError, AggResult};
pub use failpoint::{ArmedGuard, Fault, FaultPlan};
pub use instance::{CorrelationInstance, DenseOracle, DistanceOracle, MissingPolicy};
pub use robust::{CancelToken, MemCharge, MemGauge, RunBudget, RunCtx, RunOutcome, RunStatus};
pub use snapshot::{Checkpointer, RetryPolicy, Snapshot, SnapshotLoad};
pub use telemetry::{Clock, Collector, Level, MetricsSnapshot};
