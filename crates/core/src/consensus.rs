//! High-level consensus API: aggregate a set of clusterings in one call.
//!
//! The lower-level modules expose each algorithm separately; this module
//! packages the paper's recommended pipeline behind a builder:
//!
//! ```
//! use aggclust_core::clustering::Clustering;
//! use aggclust_core::consensus::ConsensusBuilder;
//!
//! let inputs = vec![
//!     Clustering::from_labels(vec![0, 0, 1, 1, 2, 2]),
//!     Clustering::from_labels(vec![0, 1, 0, 1, 2, 3]),
//!     Clustering::from_labels(vec![0, 1, 0, 1, 2, 2]),
//! ];
//! let result = ConsensusBuilder::new().try_aggregate(&inputs)?;
//! assert_eq!(result.clustering.num_clusters(), 3);
//! assert_eq!(result.disagreements, 5);
//! # Ok::<(), aggclust_core::AggError>(())
//! ```
//!
//! Defaults follow the paper's practice: AGGLOMERATIVE (parameter-free,
//! strong on every dataset in §5) refined by a LOCALSEARCH pass (the
//! post-processing use the paper suggests), switching to SAMPLING
//! automatically above a size threshold where the dense `O(n²)` matrix
//! stops being reasonable.

use crate::algorithms::agglomerative::{self, Priced};
use crate::algorithms::sampling::{sampling, SamplingParams};
use crate::algorithms::{
    AgglomerativeParams, Algorithm, BallsParams, LocalSearchInit, LocalSearchParams,
};
use crate::clustering::{Clustering, PartialClustering};
use crate::cost::{self, ExactCost};
use crate::error::AggResult;
use crate::exact::{branch_and_bound, MAX_BNB_N};
use crate::instance::{CorrelationInstance, DistanceOracle, MissingPolicy};
use crate::linkage::CondensedMatrix;
use crate::robust::{Interrupt, RunBudget, RunCtx, RunStatus};
use crate::snapshot::{AlgorithmSnapshot, Checkpointer, Snapshot};
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// A graceful-degradation step taken during a consensus run, as a typed
/// value machine consumers can match on. `Display` reproduces the exact
/// human-readable strings that `ConsensusResult::warnings` carried when it
/// was a `Vec<String>`, so CLI output is byte-identical.
///
/// Each warning is also emitted as a [`crate::warn!`] telemetry event the
/// moment it is recorded.
#[derive(Clone, Debug, PartialEq)]
pub enum Warning {
    /// AGGLOMERATIVE's condensed triangle was refused by the memory cap
    /// and the run degraded to SAMPLING with a sample whose triangle fits.
    MemoryDegradedToSampling {
        /// Bytes AGGLOMERATIVE would have needed: its condensed triangle
        /// ([`CondensedMatrix::bytes`]), the run's one `O(n²)` structure.
        requested: u64,
        /// The configured memory cap in bytes.
        limit: u64,
        /// The clamped sample size actually used.
        sample_size: usize,
    },
    /// The dense distance matrix was refused by the memory cap and the run
    /// fell back to the `O(n·m)` lazy oracle.
    MemoryDegradedToLazyOracle {
        /// Bytes the dense matrix would have needed.
        requested: u64,
        /// The configured memory cap in bytes.
        limit: u64,
    },
    /// The budget tripped while the distance matrix was being built; the
    /// only valid anytime answer was the all-singletons clustering.
    MatrixBuildInterrupted,
    /// The SAMPLING run stopped early; unvisited objects were left as
    /// singletons.
    SamplingStoppedEarly {
        /// How the sampling run ended.
        status: RunStatus,
    },
    /// The exact branch-and-bound search stopped early; the result is the
    /// best incumbent, not a proven optimum.
    ExactSearchStoppedEarly,
    /// The instance exceeded [`MAX_BNB_N`]; the run fell back to the BALLS
    /// 3-approximation instead of erroring.
    ExactSearchTooLarge {
        /// The instance size that was rejected.
        n: usize,
    },
    /// The main stage stopped early under checkpointing, so refinement was
    /// skipped to keep the stage-0 snapshot resumable.
    RefinementSkippedForResume,
    /// The budget tripped during the LOCALSEARCH refinement pass; the
    /// partially refined consensus was returned.
    RefinementInterrupted,
}

impl Warning {
    /// Stable machine-readable tag for this warning kind (used as the
    /// telemetry event field; `Display` carries the prose).
    pub fn kind(&self) -> &'static str {
        match self {
            Warning::MemoryDegradedToSampling { .. } => "memory_degraded_to_sampling",
            Warning::MemoryDegradedToLazyOracle { .. } => "memory_degraded_to_lazy_oracle",
            Warning::MatrixBuildInterrupted => "matrix_build_interrupted",
            Warning::SamplingStoppedEarly { .. } => "sampling_stopped_early",
            Warning::ExactSearchStoppedEarly => "exact_search_stopped_early",
            Warning::ExactSearchTooLarge { .. } => "exact_search_too_large",
            Warning::RefinementSkippedForResume => "refinement_skipped_for_resume",
            Warning::RefinementInterrupted => "refinement_interrupted",
        }
    }
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Warning::MemoryDegradedToSampling {
                requested,
                limit,
                sample_size,
            } => write!(
                f,
                "memory budget: dense distance matrix needs {requested} bytes \
                 (cap {limit}); degrading to SAMPLING with sample size {sample_size}"
            ),
            Warning::MemoryDegradedToLazyOracle { requested, limit } => write!(
                f,
                "memory budget: dense distance matrix needs {requested} bytes \
                 (cap {limit}); using the O(n·m) lazy oracle instead \
                 (slower, no quadratic memory)"
            ),
            Warning::MatrixBuildInterrupted => f.write_str(
                "budget exhausted while building the distance matrix; \
                 returning the all-singletons clustering",
            ),
            Warning::SamplingStoppedEarly { status } => write!(
                f,
                "sampling run stopped early ({status:?}); unvisited objects were left as singletons"
            ),
            Warning::ExactSearchStoppedEarly => f.write_str(
                "exact search stopped early; the result is the best \
                 incumbent found, not a proven optimum",
            ),
            Warning::ExactSearchTooLarge { n } => write!(
                f,
                "instance too large for exact search (n = {n} > {MAX_BNB_N}); \
                 falling back to the BALLS 3-approximation"
            ),
            Warning::RefinementSkippedForResume => f.write_str(
                "main stage stopped early; skipping refinement so the checkpoint \
                 stays resumable",
            ),
            Warning::RefinementInterrupted => f.write_str(
                "budget exhausted during LOCALSEARCH refinement; \
                 returning the partially refined consensus",
            ),
        }
    }
}

/// Record a degradation step: emit it as a telemetry event, then keep it in
/// the result's warning list.
fn push_warning(warnings: &mut Vec<Warning>, warning: Warning) {
    crate::warn!(&warning.to_string(), kind = warning.kind());
    warnings.push(warning);
}

/// Outcome of a consensus run.
#[derive(Clone, Debug)]
pub struct ConsensusResult {
    /// The aggregated clustering.
    pub clustering: Clustering,
    /// Its correlation cost `d(C)` (expected pair disagreements per input).
    /// `NaN` when the run sampled — evaluating it would be `O(n²)`; use
    /// [`crate::cost::correlation_cost`] explicitly if you need it.
    pub cost: f64,
    /// Total disagreements `D(C)` with the inputs (exact when the inputs
    /// are total clusterings; rounded expectation otherwise; 0 when the
    /// run sampled, see `cost`).
    pub disagreements: u64,
    /// The instance-wide per-pair lower bound on `d(C)` — how close to
    /// unimprovable the result provably is. `None` when the run sampled
    /// (computing it would be `O(n²)`).
    pub lower_bound: Option<f64>,
    /// Whether the SAMPLING path was taken.
    pub sampled: bool,
    /// How the run ended: `Converged`, or `BudgetExceeded`/`Cancelled`
    /// when the configured budget tripped and the result is best-so-far.
    pub status: RunStatus,
    /// Graceful-degradation steps taken (exact solver skipped, refinement
    /// interrupted, …), as typed [`Warning`] values whose `Display` gives
    /// the human-readable note. Empty on a clean run.
    pub warnings: Vec<Warning>,
}

/// Builder for consensus clustering runs. All settings optional.
#[derive(Clone, Debug)]
pub struct ConsensusBuilder {
    algorithm: Algorithm,
    refine: bool,
    missing_policy: MissingPolicy,
    sampling_threshold: usize,
    sample_size: usize,
    seed: u64,
    budget: RunBudget,
    prefer_exact: bool,
    checkpoint_path: Option<PathBuf>,
    checkpoint_every: Duration,
    resume_from: Option<Snapshot>,
}

impl Default for ConsensusBuilder {
    fn default() -> Self {
        ConsensusBuilder {
            algorithm: Algorithm::Agglomerative(AgglomerativeParams::default()),
            refine: true,
            missing_policy: MissingPolicy::default(),
            sampling_threshold: 6_000,
            sample_size: 1_600,
            seed: 0,
            budget: RunBudget::unlimited(),
            prefer_exact: false,
            checkpoint_path: None,
            checkpoint_every: Duration::from_millis(250),
            resume_from: None,
        }
    }
}

impl ConsensusBuilder {
    /// Start from the defaults described in the module docs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use a specific aggregation algorithm instead of AGGLOMERATIVE.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Enable/disable the LOCALSEARCH refinement pass (default: on).
    pub fn refine(mut self, refine: bool) -> Self {
        self.refine = refine;
        self
    }

    /// Missing-value policy for partial inputs (default: fair coin).
    pub fn missing_policy(mut self, policy: MissingPolicy) -> Self {
        self.missing_policy = policy;
        self
    }

    /// Switch to SAMPLING above this many objects (default 6000; the dense
    /// matrix at the threshold is ~140 MB).
    pub fn sampling_threshold(mut self, n: usize) -> Self {
        self.sampling_threshold = n;
        self
    }

    /// Sample size used when sampling (default 1600, the paper's sweet
    /// spot on Mushrooms).
    pub fn sample_size(mut self, s: usize) -> Self {
        self.sample_size = s;
        self
    }

    /// Seed for the sampling RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run budget (deadline / iteration cap / cancel token / memory cap)
    /// honored with anytime semantics. Default: unlimited.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Prefer an exact branch-and-bound solve when the instance is small
    /// enough (`n <= 24`); above that the builder degrades to the BALLS
    /// 3-approximation with a warning instead of erroring. Default: off.
    pub fn prefer_exact(mut self, prefer_exact: bool) -> Self {
        self.prefer_exact = prefer_exact;
        self
    }

    /// Periodically persist in-flight algorithm state to `path` (atomic,
    /// checksummed writes — see [`crate::snapshot`]), no more often than
    /// `every`, plus a final save whenever the budget or cancel token trips
    /// mid-run. Only honored by the long-running stages (AGGLOMERATIVE
    /// merging, LOCALSEARCH passes, SAMPLING assignment); checkpoint
    /// failures are recorded, never fatal. Default: off.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: Duration) -> Self {
        self.checkpoint_path = Some(path.into());
        self.checkpoint_every = every;
        self
    }

    /// Resume from a snapshot previously loaded with
    /// [`crate::snapshot::load_snapshot`]. A snapshot that does not match
    /// this run's instance or configuration is silently ignored (the run
    /// starts fresh); load-time corruption is the *caller's* signal to warn.
    pub fn resume_from(mut self, snapshot: Snapshot) -> Self {
        self.resume_from = Some(snapshot);
        self
    }

    /// Aggregate total clusterings.
    ///
    /// Invalid input (empty set, mismatched object counts) comes back as a
    /// typed [`crate::AggError`] instead of a panic, and the configured
    /// [`RunBudget`] is honored with anytime semantics: a budget trip yields
    /// the best consensus found so far, tagged via `status` and explained in
    /// `warnings`.
    pub fn try_aggregate(&self, inputs: &[Clustering]) -> AggResult<ConsensusResult> {
        let instance = CorrelationInstance::try_from_clusterings(inputs)?;
        // No label is missing, so the policy never applies; an invalid one
        // is still refused, as for partial inputs.
        self.missing_policy.validate()?;
        self.aggregate_instance(instance)
    }

    /// Aggregate partial clusterings (missing labels allowed), with the same
    /// typed errors and anytime semantics as
    /// [`ConsensusBuilder::try_aggregate`].
    ///
    /// Graceful-degradation chain:
    /// 1. `n` over the sampling threshold → SAMPLING (budgeted).
    /// 2. Dense matrix refused by the **memory cap** → the instance read
    ///    as the `O(n·m)` lazy oracle (same answer, no quadratic memory).
    ///    It answers through the packed SWAR rows of
    ///    [`crate::kernels::LabelMatrix`] (`O(n·m/4)` words, bit-identical
    ///    to the dense values), so this fallback trades build time, not
    ///    per-distance cost. AGGLOMERATIVE builds no dense matrix for its
    ///    main stage: it fills its condensed triangle
    ///    ([`CondensedMatrix::bytes`]) straight from the packed labels, and
    ///    when the triangle does not fit the cap it degrades to SAMPLING
    ///    with the sample clamped so the sample's triangle fits. Its
    ///    refinement builds the dense matrix only once the triangle is
    ///    dropped, falling back to the lazy oracle in turn. Each step
    ///    leaves a warning.
    /// 3. Dense matrix (or AGGLOMERATIVE's triangle) build trips the time
    ///    budget → singleton clustering plus a warning (no time left to do
    ///    anything smarter).
    /// 4. `prefer_exact` on a too-large instance → warning, then the BALLS
    ///    3-approximation instead of an error.
    /// 5. Budget trips mid-refinement → the partially refined consensus is
    ///    returned with a warning rather than discarded.
    ///
    /// With [`ConsensusBuilder::checkpoint`] configured, the long-running
    /// stages persist their state (stage 0 = main algorithm, stage 1 =
    /// refinement) and a tripped main stage skips refinement so the final
    /// stage-0 snapshot survives for [`ConsensusBuilder::resume_from`].
    pub fn try_aggregate_partial(
        &self,
        inputs: Vec<PartialClustering>,
    ) -> AggResult<ConsensusResult> {
        self.aggregate_instance(CorrelationInstance::try_from_partial(
            inputs,
            self.missing_policy,
        )?)
    }

    /// The pipeline of [`ConsensusBuilder::try_aggregate_partial`] on a
    /// validated instance.
    fn aggregate_instance(&self, instance: CorrelationInstance) -> AggResult<ConsensusResult> {
        let (n, m) = (instance.len(), instance.num_clusterings());
        let _span = crate::span!(
            "consensus",
            n = n,
            m = m,
            algorithm = self.algorithm.name(),
            refine = self.refine
        );
        let mut ckpt = self
            .checkpoint_path
            .as_ref()
            .map(|p| Checkpointer::new(p, self.checkpoint_every).with_budget(&self.budget));

        // Split the resume snapshot by pipeline stage. A stage-1 snapshot
        // holds the refinement pass's own labels, so the main stage does
        // not need to re-run at all.
        let (resume_main, resume_refine) = match &self.resume_from {
            Some(s) if s.stage == 0 => (Some(&s.state), None),
            Some(s) if s.stage == 1 => match &s.state {
                AlgorithmSnapshot::LocalSearch(ls) if ls.labels.len() == n => {
                    (None, Some(&s.state))
                }
                _ => (None, None),
            },
            _ => (None, None),
        };

        if n > self.sampling_threshold {
            let params = SamplingParams::new(self.sample_size, self.algorithm.clone(), self.seed);
            return self.run_sampling(&instance, &params, Vec::new(), &mut ckpt, resume_main);
        }

        let mut warnings = Vec::new();
        if let (Algorithm::Agglomerative(params), false) = (&self.algorithm, self.prefer_exact) {
            // AGGLOMERATIVE merges in a condensed triangle (`u32` sums or
            // `f64` distances, `CondensedMatrix::bytes`) filled straight
            // from the instance's labels, its one O(n²) structure. When
            // the triangle does not fit the cap, it degrades to SAMPLING
            // with the sample clamped so *its* triangle fits what is left.
            if let Some(limit) = self.budget.mem_limit_bytes() {
                let scale = instance.exact_scale();
                let requested = CondensedMatrix::bytes(n, scale);
                let headroom = limit.saturating_sub(self.budget.mem_gauge().used_bytes());
                if requested > headroom {
                    let s = self
                        .sample_size
                        .min(largest_sample_within(headroom, scale))
                        .clamp(2, n.max(2));
                    push_warning(
                        &mut warnings,
                        Warning::MemoryDegradedToSampling {
                            requested,
                            limit,
                            sample_size: s,
                        },
                    );
                    let params = SamplingParams::new(s, self.algorithm.clone(), self.seed);
                    return self.run_sampling(&instance, &params, warnings, &mut ckpt, resume_main);
                }
            }
            // A stage-1 resume skips the main stage, and so the triangle.
            if !(self.refine && resume_refine.is_some()) {
                return self.agglomerate(&instance, *params, warnings, &mut ckpt, resume_main);
            }
        }
        let dense = match instance.try_dense_oracle(&self.budget) {
            Ok(dense) => dense,
            Err(Interrupt::MemoryExceeded { requested, limit }) => {
                push_warning(
                    &mut warnings,
                    Warning::MemoryDegradedToLazyOracle { requested, limit },
                );
                return self.finish_with_oracle(
                    &instance,
                    m,
                    warnings,
                    &mut ckpt,
                    resume_main,
                    resume_refine,
                );
            }
            Err(interrupt) => return Ok(build_interrupted(n, interrupt, warnings)),
        };
        self.finish_with_oracle(&dense, m, warnings, &mut ckpt, resume_main, resume_refine)
    }

    /// The run context of one pipeline stage: this builder's budget, the
    /// stage's snapshot, and the checkpointer.
    fn ctx<'a>(
        &'a self,
        resume: Option<&'a AlgorithmSnapshot>,
        ckpt: &'a mut Option<Checkpointer>,
    ) -> RunCtx<'a> {
        RunCtx {
            budget: &self.budget,
            resume,
            ckpt: ckpt.as_mut(),
        }
    }

    /// The SAMPLING leg shared by the size-threshold and memory-degradation
    /// paths: run (or resume) budgeted sampling and package the result.
    fn run_sampling<O: DistanceOracle + Sync>(
        &self,
        oracle: &O,
        params: &SamplingParams,
        mut warnings: Vec<Warning>,
        ckpt: &mut Option<Checkpointer>,
        resume_main: Option<&AlgorithmSnapshot>,
    ) -> AggResult<ConsensusResult> {
        if let Some(c) = ckpt.as_mut() {
            c.set_stage(0);
        }
        let outcome = sampling(oracle, params, &mut self.ctx(resume_main, ckpt))?;
        if !outcome.status.is_converged() {
            push_warning(
                &mut warnings,
                Warning::SamplingStoppedEarly {
                    status: outcome.status,
                },
            );
        }
        Ok(ConsensusResult {
            cost: f64::NAN,
            disagreements: 0,
            lower_bound: None,
            sampled: true,
            status: outcome.status,
            warnings,
            clustering: outcome.clustering,
        })
    }

    /// AGGLOMERATIVE from the instance's condensed triangle, priced from
    /// the fill and the merges ([`agglomerative::run_priced`]). With
    /// refinement, the dense matrix is built only after the triangle is
    /// dropped, so the run holds one `O(n²)` structure at a time; the
    /// refined result is priced on that matrix.
    fn agglomerate(
        &self,
        instance: &CorrelationInstance,
        params: AgglomerativeParams,
        mut warnings: Vec<Warning>,
        ckpt: &mut Option<Checkpointer>,
        resume_main: Option<&AlgorithmSnapshot>,
    ) -> AggResult<ConsensusResult> {
        let (n, m) = (instance.len(), instance.num_clusterings());
        if let Some(c) = ckpt.as_mut() {
            c.set_stage(0);
        }
        let ctx = &mut self.ctx(resume_main, ckpt);
        let Priced { outcome, exact } = match agglomerative::run_priced(instance, params, ctx)? {
            Ok(priced) => priced,
            Err(interrupt) => return Ok(build_interrupted(n, interrupt, warnings)),
        };
        let (clustering, mut status) = (outcome.clustering, outcome.status);
        if self.refine_now(status, ckpt, &mut warnings) {
            match instance.try_dense_oracle(&self.budget) {
                Ok(dense) => {
                    return self
                        .refine_and_price(&dense, m, clustering, status, warnings, ckpt, None)
                }
                Err(Interrupt::MemoryExceeded { requested, limit }) => {
                    push_warning(
                        &mut warnings,
                        Warning::MemoryDegradedToLazyOracle { requested, limit },
                    );
                    return self
                        .refine_and_price(instance, m, clustering, status, warnings, ckpt, None);
                }
                // No time left to build the matrix, so none to refine:
                // the main stage's result stands.
                Err(interrupt) => {
                    push_warning(&mut warnings, Warning::RefinementInterrupted);
                    status = status.combine(interrupt.status());
                }
            }
        }
        let price = match exact {
            Some((cost, bound)) => Price::from_integers(cost, bound, m),
            None => Price::on(instance, &clustering, m),
        };
        Ok(price.result(clustering, status, warnings))
    }

    /// The main-algorithm + refinement tail, generic over the oracle so the
    /// memory-degraded lazy path shares every line with the dense path.
    fn finish_with_oracle<O: DistanceOracle + Sync>(
        &self,
        oracle: &O,
        m: usize,
        mut warnings: Vec<Warning>,
        ckpt: &mut Option<Checkpointer>,
        resume_main: Option<&AlgorithmSnapshot>,
        resume_refine: Option<&AlgorithmSnapshot>,
    ) -> AggResult<ConsensusResult> {
        let n = oracle.len();
        // A refinement-stage snapshot already contains the labels the main
        // stage produced (and every refinement move since); re-running the
        // main stage would discard resumed work.
        let skip_main = self.refine && resume_refine.is_some();
        let (clustering, status) = if skip_main {
            (Clustering::singletons(n), RunStatus::Converged)
        } else if self.prefer_exact {
            if n <= MAX_BNB_N {
                let (exact, status) = branch_and_bound(oracle, &mut self.ctx(None, ckpt))?;
                if !status.is_converged() {
                    push_warning(&mut warnings, Warning::ExactSearchStoppedEarly);
                }
                (exact.clustering, status)
            } else {
                push_warning(&mut warnings, Warning::ExactSearchTooLarge { n });
                let outcome = Algorithm::Balls(BallsParams::default())
                    .run(oracle, &mut self.ctx(None, ckpt))?;
                (outcome.clustering, outcome.status)
            }
        } else {
            if let Some(c) = ckpt.as_mut() {
                c.set_stage(0);
            }
            let outcome = self
                .algorithm
                .run(oracle, &mut self.ctx(resume_main, ckpt))?;
            (outcome.clustering, outcome.status)
        };
        if self.refine_now(status, ckpt, &mut warnings) {
            return self.refine_and_price(
                oracle,
                m,
                clustering,
                status,
                warnings,
                ckpt,
                resume_refine,
            );
        }
        Ok(Price::on(oracle, &clustering, m).result(clustering, status, warnings))
    }

    /// Whether to refine a main stage that ended with `status`. When
    /// checkpointing, a tripped main stage keeps its final stage-0
    /// snapshot: running refinement now would overwrite it with a stage-1
    /// snapshot of the *partial* main result, and a later resume could then
    /// never finish the main stage.
    fn refine_now(
        &self,
        status: RunStatus,
        ckpt: &Option<Checkpointer>,
        warnings: &mut Vec<Warning>,
    ) -> bool {
        let refine_now = self.refine && (status.is_converged() || ckpt.is_none());
        if self.refine && !refine_now {
            push_warning(warnings, Warning::RefinementSkippedForResume);
        }
        refine_now
    }

    /// The LOCALSEARCH refinement pass over the main stage's `clustering`
    /// on `oracle`, resumed from `resume_refine` when given, then its
    /// price there.
    #[allow(clippy::too_many_arguments)]
    fn refine_and_price<O: DistanceOracle + Sync>(
        &self,
        oracle: &O,
        m: usize,
        clustering: Clustering,
        status: RunStatus,
        mut warnings: Vec<Warning>,
        ckpt: &mut Option<Checkpointer>,
        resume_refine: Option<&AlgorithmSnapshot>,
    ) -> AggResult<ConsensusResult> {
        if let Some(c) = ckpt.as_mut() {
            c.set_stage(1);
        }
        let refine = Algorithm::LocalSearch(LocalSearchParams {
            init: LocalSearchInit::Given(clustering),
            ..LocalSearchParams::default()
        });
        let refined = refine.run(oracle, &mut self.ctx(resume_refine, ckpt))?;
        if !refined.status.is_converged() {
            push_warning(&mut warnings, Warning::RefinementInterrupted);
        }
        let (clustering, status) = (refined.clustering, status.combine(refined.status));
        Ok(Price::on(oracle, &clustering, m).result(clustering, status, warnings))
    }
}

/// The result of a run whose budget tripped before it had distances: the
/// only valid anytime answer is the trivial clustering.
fn build_interrupted(
    n: usize,
    interrupt: Interrupt,
    mut warnings: Vec<Warning>,
) -> ConsensusResult {
    push_warning(&mut warnings, Warning::MatrixBuildInterrupted);
    ConsensusResult {
        clustering: Clustering::singletons(n),
        cost: f64::NAN,
        disagreements: 0,
        lower_bound: None,
        sampled: false,
        status: interrupt.status(),
        warnings,
    }
}

/// A result's cost, disagreements and lower bound.
struct Price {
    cost: f64,
    disagreements: u64,
    lower_bound: f64,
}

impl Price {
    /// `clustering` priced on `oracle`: exactly from the oracle's pair
    /// totals where it has a scale (the bound's share of the work, under
    /// `lower_bound`) and its within-cluster pairs (`cost_eval`), else one
    /// `f64` pair pass for both (`cost_eval`).
    fn on<O: DistanceOracle + Sync>(oracle: &O, clustering: &Clustering, m: usize) -> Self {
        let n = clustering.len();
        let totals = {
            let _span = crate::span!("lower_bound", n = n);
            cost::exact_totals(oracle)
        };
        let _span = crate::span!("cost_eval", n = n);
        match totals {
            Some((den, totals)) => Self::from_integers(
                cost::exact_cost_with(oracle, clustering, den, totals),
                totals.bound,
                m,
            ),
            None => {
                let (cost, lower_bound) = cost::cost_and_bound(oracle, clustering);
                Price {
                    cost,
                    disagreements: (cost * m as f64).round() as u64,
                    lower_bound,
                }
            }
        }
    }

    /// The exact `cost` with `den` times the lower bound, `bound`; for `m`
    /// total inputs (`den = m`) `disagreements` is `D(C)` itself.
    fn from_integers(cost: ExactCost, bound: u64, m: usize) -> Self {
        Price {
            cost: cost.value(),
            disagreements: cost.disagreements(m),
            lower_bound: bound as f64 / f64::from(cost.den),
        }
    }

    /// The consensus result of a dense run priced at `self`.
    fn result(
        self,
        clustering: Clustering,
        status: RunStatus,
        warnings: Vec<Warning>,
    ) -> ConsensusResult {
        ConsensusResult {
            disagreements: self.disagreements,
            lower_bound: Some(self.lower_bound),
            sampled: false,
            status,
            warnings,
            cost: self.cost,
            clustering,
        }
    }
}

/// Largest sample size whose AGGLOMERATIVE triangle
/// ([`CondensedMatrix::bytes`] at the oracle's exact `scale`) fits in
/// `bytes`. The triangle, not the sample's dense codes, is what the budget
/// charges. A triangle only grows with the sample size, so a binary search
/// finds the size exactly.
fn largest_sample_within(bytes: u64, scale: Option<u32>) -> usize {
    let fits =
        |s: u64| CondensedMatrix::bytes(usize::try_from(s).unwrap_or(usize::MAX), scale) <= bytes;
    // At least 4 bytes per pair: 2·s·(s−1) ≤ bytes bounds s by √bytes + 1.
    let (mut lo, mut hi) = (1u64, (bytes as f64).sqrt() as u64 + 2);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    usize::try_from(lo).unwrap_or(usize::MAX)
}

/// One-call consensus with the default pipeline
/// ([`ConsensusBuilder::try_aggregate`] on [`ConsensusBuilder::new`]).
///
/// ```
/// use aggclust_core::clustering::Clustering;
/// let a = Clustering::from_labels(vec![0, 0, 1, 1]);
/// let b = Clustering::from_labels(vec![0, 0, 1, 1]);
/// let c = Clustering::from_labels(vec![0, 1, 1, 1]);
/// let result = aggclust_core::consensus::aggregate(&[a.clone(), b, c])?;
/// assert_eq!(result.clustering, a); // the 2-of-3 majority wins
/// # Ok::<(), aggclust_core::AggError>(())
/// ```
pub fn aggregate(inputs: &[Clustering]) -> AggResult<ConsensusResult> {
    ConsensusBuilder::new().try_aggregate(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::BallsParams;

    fn c(labels: &[u32]) -> Clustering {
        Clustering::from_labels(labels.to_vec())
    }

    fn figure1() -> Vec<Clustering> {
        vec![
            c(&[0, 0, 1, 1, 2, 2]),
            c(&[0, 1, 0, 1, 2, 3]),
            c(&[0, 1, 0, 1, 2, 2]),
        ]
    }

    #[test]
    fn default_pipeline_solves_figure1() {
        let result = aggregate(&figure1()).unwrap();
        assert_eq!(result.clustering, c(&[0, 1, 0, 1, 2, 2]));
        assert_eq!(result.disagreements, 5);
        assert!((result.cost - 5.0 / 3.0).abs() < 1e-9);
        assert!(result.lower_bound.unwrap() <= result.cost + 1e-12);
        assert!(!result.sampled);
    }

    #[test]
    fn refinement_can_be_disabled() {
        let inputs = figure1();
        let with = ConsensusBuilder::new().try_aggregate(&inputs).unwrap();
        let without = ConsensusBuilder::new()
            .refine(false)
            .try_aggregate(&inputs)
            .unwrap();
        assert!(with.cost <= without.cost + 1e-12);
    }

    #[test]
    fn custom_algorithm() {
        let result = ConsensusBuilder::new()
            .algorithm(Algorithm::Balls(BallsParams::practical()))
            .try_aggregate(&figure1())
            .unwrap();
        assert_eq!(result.clustering, c(&[0, 1, 0, 1, 2, 2]));
    }

    #[test]
    fn sampling_path_kicks_in() {
        // 60 objects with a forced threshold of 30.
        let truth: Vec<u32> = (0..60).map(|v| v / 20).collect();
        let inputs = vec![c(&truth); 4];
        let result = ConsensusBuilder::new()
            .sampling_threshold(30)
            .sample_size(25)
            .try_aggregate(&inputs)
            .unwrap();
        assert!(result.sampled);
        assert!(result.lower_bound.is_none());
        assert_eq!(result.clustering, c(&truth));
    }

    #[test]
    fn partial_inputs_are_accepted() {
        let p1 = PartialClustering::from_labels(vec![Some(0), Some(0), Some(1), None]);
        let p2 = PartialClustering::from_labels(vec![Some(0), Some(0), None, Some(1)]);
        let result = ConsensusBuilder::new()
            .try_aggregate_partial(vec![p1, p2])
            .unwrap();
        assert!(result.clustering.same_cluster(0, 1));
        assert!(!result.sampled);
    }

    #[test]
    fn try_aggregate_matches_aggregate_when_unlimited() {
        // A live but generous budget polls every check site and still
        // reproduces the unlimited run.
        let inputs = figure1();
        let plain = aggregate(&inputs).unwrap();
        let tried = ConsensusBuilder::new()
            .budget(RunBudget::unlimited().with_deadline_ms(60_000))
            .try_aggregate(&inputs)
            .unwrap();
        assert_eq!(tried.clustering, plain.clustering);
        assert_eq!(tried.disagreements, plain.disagreements);
        assert!(tried.status.is_converged());
        assert!(tried.warnings.is_empty());
    }

    #[test]
    fn try_aggregate_rejects_empty_and_mismatched_inputs() {
        let empty = ConsensusBuilder::new().try_aggregate(&[]);
        assert!(matches!(empty, Err(crate::AggError::Degenerate { .. })));
        assert!(matches!(
            aggregate(&[]),
            Err(crate::AggError::Degenerate { .. })
        ));
        let mismatched = vec![c(&[0, 0, 1]), c(&[0, 1])];
        let err = ConsensusBuilder::new().try_aggregate(&mismatched);
        assert!(matches!(err, Err(crate::AggError::InvalidInstance { .. })));
    }

    #[test]
    fn prefer_exact_solves_small_instances() {
        let result = ConsensusBuilder::new()
            .prefer_exact(true)
            .try_aggregate(&figure1())
            .unwrap();
        assert_eq!(result.clustering, c(&[0, 1, 0, 1, 2, 2]));
        assert!(result.status.is_converged());
        assert!(result.warnings.is_empty());
    }

    #[test]
    fn prefer_exact_under_a_memory_cap_solves_on_the_lazy_oracle() {
        let _guard = crate::telemetry::global_state_lock();
        // The Figure-1 matrix needs 104 bytes; under a 100-byte cap the
        // exact search runs from the lazy oracle instead of the builder's
        // AGGLOMERATIVE default falling back to SAMPLING, and still finds
        // the optimum.
        let result = ConsensusBuilder::new()
            .prefer_exact(true)
            .budget(RunBudget::unlimited().with_mem_limit_bytes(100))
            .try_aggregate(&figure1())
            .unwrap();
        assert_eq!(result.clustering, c(&[0, 1, 0, 1, 2, 2]));
        assert_eq!(result.disagreements, 5);
        assert!(result.status.is_converged());
        assert!(!result.sampled);
        assert_eq!(
            result.warnings,
            vec![Warning::MemoryDegradedToLazyOracle {
                requested: 104,
                limit: 100,
            }]
        );
    }

    #[test]
    fn prefer_exact_degrades_to_balls_when_too_large() {
        // 30 objects > MAX_BNB_N = 24: must warn and fall back, not error.
        let truth: Vec<u32> = (0..30).map(|v| v / 10).collect();
        let inputs = vec![c(&truth); 3];
        let result = ConsensusBuilder::new()
            .prefer_exact(true)
            .try_aggregate(&inputs)
            .unwrap();
        assert_eq!(result.clustering, c(&truth));
        assert_eq!(result.warnings.len(), 1);
        assert!(result.warnings[0]
            .to_string()
            .contains("too large for exact search"));
        assert!(matches!(
            result.warnings[0],
            Warning::ExactSearchTooLarge { n: 30 }
        ));
        assert!(result.status.is_converged());
    }

    #[test]
    fn budget_trip_during_matrix_build_returns_singletons_with_warning() {
        let token = crate::robust::CancelToken::new();
        token.cancel();
        let result = ConsensusBuilder::new()
            .budget(RunBudget::unlimited().with_cancel_token(token))
            .try_aggregate(&figure1())
            .unwrap();
        assert_eq!(result.clustering, Clustering::singletons(6));
        assert_eq!(result.status, RunStatus::Cancelled);
        assert!(result.warnings[0].to_string().contains("distance matrix"));
    }

    #[test]
    fn memory_cap_degrades_localsearch_to_the_lazy_oracle() {
        // 40 objects: dense matrix = 40²·2 = 3200 bytes, plus a 4-entry
        // code table (32 bytes). A 3000-byte cap refuses it; LOCALSEARCH is
        // oracle-generic so the run degrades to the lazy oracle and still
        // produces the same labels.
        let truth: Vec<u32> = (0..40).map(|v| v / 10).collect();
        let inputs = vec![c(&truth); 3];
        let reference = ConsensusBuilder::new()
            .algorithm(Algorithm::LocalSearch(Default::default()))
            .try_aggregate(&inputs)
            .unwrap();
        let capped = ConsensusBuilder::new()
            .algorithm(Algorithm::LocalSearch(Default::default()))
            .budget(RunBudget::unlimited().with_mem_limit_bytes(3_000))
            .try_aggregate(&inputs)
            .unwrap();
        assert_eq!(capped.clustering, reference.clustering);
        assert!(capped.status.is_converged());
        assert!(!capped.sampled);
        assert!(
            capped
                .warnings
                .iter()
                .any(|w| w.to_string().contains("lazy oracle")),
            "{:?}",
            capped.warnings
        );
        // All tracked memory is released by the end of the run.
        assert_eq!(capped.cost, reference.cost);
    }

    #[test]
    fn memory_cap_degrades_agglomerative_to_sampling() {
        // AGGLOMERATIVE cannot run from a lazy oracle; under a cap that
        // refuses the full matrix it must switch to SAMPLING with a sample
        // whose matrix fits, and still cover every object.
        let truth: Vec<u32> = (0..40).map(|v| v / 10).collect();
        let inputs = vec![c(&truth); 3];
        let capped = ConsensusBuilder::new()
            .budget(RunBudget::unlimited().with_mem_limit_bytes(2_000))
            .try_aggregate(&inputs)
            .unwrap();
        assert!(capped.sampled);
        assert_eq!(capped.clustering.len(), 40);
        assert!(capped.status.is_converged());
        assert!(
            capped
                .warnings
                .iter()
                .any(|w| w.to_string().contains("degrading to SAMPLING")),
            "{:?}",
            capped.warnings
        );
        // Total inputs keep 4-byte sums: 2000 bytes → largest sample s
        // with 2s(s−1) ≤ 2000 is 32; the sample matrix must have been
        // admitted under the cap.
        assert!(capped.warnings[0].to_string().contains("sample size 32"));
        assert!(matches!(
            capped.warnings[0],
            Warning::MemoryDegradedToSampling {
                sample_size: 32,
                ..
            }
        ));
    }

    #[test]
    fn largest_sample_within_is_exact() {
        // `f64` copies: 8 bytes per pair.
        assert_eq!(largest_sample_within(0, None), 1);
        assert_eq!(largest_sample_within(7, None), 1);
        assert_eq!(largest_sample_within(8, None), 2);
        assert_eq!(largest_sample_within(2_000, None), 22);
        // `u32` sums: 4 bytes per pair.
        assert_eq!(largest_sample_within(3, Some(10)), 1);
        assert_eq!(largest_sample_within(4, Some(10)), 2);
        assert_eq!(largest_sample_within(2_000, Some(10)), 32);
        // Past the sums' `u32` bound the triangle takes 8 bytes per pair again:
        // at den = 2⁶ sums fit up to 16 383 objects (64·8 191·8 192 < 2³²).
        let at_bound = CondensedMatrix::bytes(16_383, Some(64));
        assert_eq!(at_bound, 4 * 16_383 * 16_382 / 2);
        assert_eq!(largest_sample_within(at_bound, Some(64)), 16_383);
        let past = CondensedMatrix::bytes(16_384, Some(64));
        assert_eq!(past, 8 * 16_384 * 16_383 / 2);
        assert_eq!(largest_sample_within(past - 1, Some(64)), 16_383);
        assert_eq!(largest_sample_within(past, Some(64)), 16_384);
        // Never panics or overflows at the extremes.
        assert!(largest_sample_within(u64::MAX, None) > 1_000_000);
        assert!(largest_sample_within(u64::MAX, Some(10)) > 1_000_000);
    }

    #[test]
    fn consensus_checkpoint_resume_matches_uninterrupted() {
        use crate::robust::CancelToken;
        use crate::snapshot::{load_snapshot, SnapshotLoad};

        let truth: Vec<u32> = (0..30).map(|v| v % 5).collect();
        let mut inputs = vec![c(&truth); 3];
        // Add disagreement so refinement has real work.
        let mut noisy = truth.clone();
        for l in noisy.iter_mut().step_by(7) {
            *l = (*l + 1) % 5;
        }
        inputs.push(c(&noisy));

        let reference = ConsensusBuilder::new().try_aggregate(&inputs).unwrap();

        let dir = std::env::temp_dir().join("aggclust_consensus_resume_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        // Interrupt at a range of iteration caps, resume unlimited; the
        // final labels must always match the uninterrupted pipeline.
        for cap in [1u64, 5, 20, 29, 30, 45, 70] {
            std::fs::remove_file(&path).ok();
            let partial = ConsensusBuilder::new()
                .budget(RunBudget::unlimited().with_max_iters(cap))
                .checkpoint(&path, Duration::ZERO)
                .try_aggregate(&inputs)
                .unwrap();
            if partial.status.is_converged() {
                assert_eq!(partial.clustering, reference.clustering);
                continue;
            }
            let snap = match load_snapshot(&path) {
                SnapshotLoad::Loaded(s) => s,
                other => panic!("cap {cap}: expected snapshot, got {other:?}"),
            };
            let resumed = ConsensusBuilder::new()
                .checkpoint(&path, Duration::ZERO)
                .resume_from(snap)
                .try_aggregate(&inputs)
                .unwrap();
            assert_eq!(
                resumed.clustering, reference.clustering,
                "cap {cap}: resumed consensus differs"
            );
            assert!(resumed.status.is_converged(), "cap {cap}");
            assert_eq!(resumed.cost, reference.cost, "cap {cap}");
        }

        // Cancellation mid-run behaves the same way: checkpoint, resume,
        // identical output.
        std::fs::remove_file(&path).ok();
        let token = CancelToken::new();
        token.cancel();
        let cancelled = ConsensusBuilder::new()
            .budget(RunBudget::unlimited().with_cancel_token(token))
            .checkpoint(&path, Duration::ZERO)
            .try_aggregate(&inputs)
            .unwrap();
        assert_eq!(cancelled.status, RunStatus::Cancelled);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warning_display_matches_the_legacy_strings_exactly() {
        // These strings were public output when `warnings` was a
        // `Vec<String>`; the typed enum must render them byte-for-byte.
        let cases = [
            (
                Warning::MemoryDegradedToSampling {
                    requested: 6240,
                    limit: 2000,
                    sample_size: 22,
                },
                "memory budget: dense distance matrix needs 6240 bytes (cap 2000); \
                 degrading to SAMPLING with sample size 22",
            ),
            (
                Warning::MemoryDegradedToLazyOracle {
                    requested: 6240,
                    limit: 6000,
                },
                "memory budget: dense distance matrix needs 6240 bytes (cap 6000); \
                 using the O(n·m) lazy oracle instead (slower, no quadratic memory)",
            ),
            (
                Warning::MatrixBuildInterrupted,
                "budget exhausted while building the distance matrix; \
                 returning the all-singletons clustering",
            ),
            (
                Warning::SamplingStoppedEarly {
                    status: RunStatus::BudgetExceeded,
                },
                "sampling run stopped early (BudgetExceeded); \
                 unvisited objects were left as singletons",
            ),
            (
                Warning::ExactSearchStoppedEarly,
                "exact search stopped early; the result is the best incumbent found, \
                 not a proven optimum",
            ),
            (
                Warning::ExactSearchTooLarge { n: 30 },
                "instance too large for exact search (n = 30 > 24); \
                 falling back to the BALLS 3-approximation",
            ),
            (
                Warning::RefinementSkippedForResume,
                "main stage stopped early; skipping refinement so the checkpoint \
                 stays resumable",
            ),
            (
                Warning::RefinementInterrupted,
                "budget exhausted during LOCALSEARCH refinement; \
                 returning the partially refined consensus",
            ),
        ];
        for (warning, expected) in cases {
            assert_eq!(warning.to_string(), expected, "{}", warning.kind());
        }
    }

    #[test]
    fn capped_run_matches_the_unconstrained_run_at_every_thread_count() {
        let _guard = crate::telemetry::global_state_lock();
        let n = 120;
        let inputs: Vec<Clustering> = (0..4)
            .map(|i| {
                c(&(0..n)
                    .map(|v| ((v * (i + 2) + i) % (4 + i)) as u32)
                    .collect::<Vec<_>>())
            })
            .collect();
        let build = || {
            ConsensusBuilder::new()
                .algorithm(Algorithm::Balls(BallsParams::practical()))
                .seed(7)
        };
        let unconstrained = build().try_aggregate(&inputs).unwrap();
        assert!(unconstrained.warnings.is_empty());
        for threads in [1usize, 2, 4] {
            let capped = crate::parallel::with_num_threads(threads, || {
                build()
                    .budget(RunBudget::unlimited().with_mem_limit_bytes(16 * 1024))
                    .try_aggregate(&inputs)
                    .unwrap()
            });
            assert_eq!(
                capped.clustering, unconstrained.clustering,
                "labels diverge at {threads} threads"
            );
            assert_eq!(
                capped.warnings,
                vec![Warning::MemoryDegradedToLazyOracle {
                    requested: 28_840,
                    limit: 16 * 1024,
                }],
                "at {threads} threads"
            );
            assert!(capped.status.is_converged());
            assert!(!capped.sampled);
        }
    }

    /// 80 objects under four shifted modular inputs; the dense matrix
    /// needs 2·80² + 8·5 = 12 840 bytes, over [`LAZY_CAP`].
    fn shifted_inputs() -> Vec<Clustering> {
        (0..4)
            .map(|i| {
                c(&(0..80)
                    .map(|v| ((v * (i + 2) + i) % (4 + i)) as u32)
                    .collect::<Vec<_>>())
            })
            .collect()
    }

    const LAZY_CAP: u64 = 8 * 1024;

    /// `capped` reports the bits of `reference`'s cost, lower bound and
    /// `E_D`: one price whichever oracle served it.
    fn assert_same_price(capped: &ConsensusResult, reference: &ConsensusResult, at: &str) {
        assert_eq!(capped.cost.to_bits(), reference.cost.to_bits(), "{at}");
        assert_eq!(
            capped.lower_bound.map(f64::to_bits),
            reference.lower_bound.map(f64::to_bits),
            "{at}"
        );
        assert!(capped.lower_bound.is_some(), "{at}");
        assert_eq!(capped.disagreements, reference.disagreements, "{at}");
    }

    #[test]
    fn total_and_partial_routes_aggregate_alike() {
        // `try_aggregate` packs the totals' labels directly,
        // `try_aggregate_partial` their `PartialClustering::from_total`
        // views: the same labels and the same price bits for every
        // algorithm, with and without refinement, at 1 and 2 threads, and
        // on the SAMPLING path.
        let inputs = shifted_inputs();
        let partial = || inputs.iter().map(PartialClustering::from_total).collect();
        let algorithms = [
            Algorithm::Agglomerative(Default::default()),
            Algorithm::Balls(BallsParams::practical()),
            Algorithm::Furthest(Default::default()),
            Algorithm::LocalSearch(Default::default()),
            Algorithm::Pivot(Default::default()),
            Algorithm::Annealing(crate::algorithms::AnnealingParams {
                sweeps: 10,
                ..Default::default()
            }),
        ];
        for algorithm in algorithms {
            for (refine, threshold) in [(true, 6000), (false, 6000), (true, 40)] {
                let builder = ConsensusBuilder::new()
                    .algorithm(algorithm.clone())
                    .refine(refine)
                    .sampling_threshold(threshold)
                    .sample_size(20)
                    .seed(3);
                for threads in [1, 2] {
                    let at = format!(
                        "{} refine {refine} n > {threshold} {threads}",
                        algorithm.name()
                    );
                    let (total, partial) = crate::parallel::with_num_threads(threads, || {
                        let total = builder.try_aggregate(&inputs).unwrap();
                        (total, builder.try_aggregate_partial(partial()).unwrap())
                    });
                    assert_eq!(total.clustering, partial.clustering, "{at}");
                    assert_eq!(total.cost.to_bits(), partial.cost.to_bits(), "{at}");
                    assert_eq!(
                        total.lower_bound.map(f64::to_bits),
                        partial.lower_bound.map(f64::to_bits),
                        "{at}"
                    );
                    assert_eq!(total.disagreements, partial.disagreements, "{at}");
                    assert_eq!(total.sampled, threshold < inputs[0].len(), "{at}");
                }
            }
        }
    }

    #[test]
    fn capped_run_matches_the_unconstrained_run_for_every_oracle_generic_algorithm() {
        let _guard = crate::telemetry::global_state_lock();
        let inputs = shifted_inputs();
        let algorithms = [
            Algorithm::Balls(BallsParams::practical()),
            Algorithm::Furthest(Default::default()),
            Algorithm::LocalSearch(Default::default()),
            Algorithm::Pivot(Default::default()),
            Algorithm::Annealing(crate::algorithms::AnnealingParams {
                sweeps: 10,
                ..Default::default()
            }),
        ];
        for algorithm in algorithms {
            let build = || ConsensusBuilder::new().algorithm(algorithm.clone()).seed(3);
            let unconstrained = build().try_aggregate(&inputs).unwrap();
            let capped = build()
                .budget(RunBudget::unlimited().with_mem_limit_bytes(LAZY_CAP))
                .try_aggregate(&inputs)
                .unwrap();
            let name = algorithm.name();
            assert_eq!(capped.clustering, unconstrained.clustering, "{name}");
            assert_same_price(&capped, &unconstrained, name);
            assert_eq!(
                capped.warnings,
                vec![Warning::MemoryDegradedToLazyOracle {
                    requested: 12_840,
                    limit: LAZY_CAP,
                }],
                "{name}"
            );
        }
    }

    #[test]
    fn capped_partial_inputs_match_the_unconstrained_run_under_both_policies() {
        let _guard = crate::telemetry::global_state_lock();
        // Every fifth object is unlabelled in one input, so the lazy
        // oracle serves the missing-value policy rather than plain counts.
        let partial = |inputs: &[Clustering]| -> Vec<PartialClustering> {
            inputs
                .iter()
                .enumerate()
                .map(|(i, input)| {
                    let labels =
                        (0..input.len()).map(|v| (i != 1 || v % 5 != 0).then_some(input.label(v)));
                    PartialClustering::from_labels(labels.collect())
                })
                .collect()
        };
        let inputs = shifted_inputs();
        for policy in [
            MissingPolicy::Ignore,
            MissingPolicy::Coin(0.5),
            MissingPolicy::Coin(0.3),
        ] {
            let build = || {
                ConsensusBuilder::new()
                    .algorithm(Algorithm::LocalSearch(Default::default()))
                    .missing_policy(policy)
            };
            let unconstrained = build().try_aggregate_partial(partial(&inputs)).unwrap();
            assert!(unconstrained.warnings.is_empty(), "{policy:?}");
            let capped = build()
                .budget(RunBudget::unlimited().with_mem_limit_bytes(LAZY_CAP))
                .try_aggregate_partial(partial(&inputs))
                .unwrap();
            assert_eq!(capped.clustering, unconstrained.clustering, "{policy:?}");
            assert_same_price(&capped, &unconstrained, &format!("{policy:?}"));
            assert!(
                matches!(
                    capped.warnings[..],
                    [Warning::MemoryDegradedToLazyOracle { .. }]
                ),
                "{policy:?}: {:?}",
                capped.warnings
            );
        }
    }

    #[test]
    fn capped_run_under_an_iteration_budget_still_labels_every_object() {
        let _guard = crate::telemetry::global_state_lock();
        let inputs = shifted_inputs();
        let capped = ConsensusBuilder::new()
            .algorithm(Algorithm::LocalSearch(Default::default()))
            .budget(
                RunBudget::unlimited()
                    .with_mem_limit_bytes(LAZY_CAP)
                    .with_max_iters(3),
            )
            .try_aggregate(&inputs)
            .unwrap();
        assert_eq!(capped.clustering.len(), 80);
        assert_eq!(capped.status, RunStatus::BudgetExceeded);
        assert!(matches!(
            capped.warnings.first(),
            Some(Warning::MemoryDegradedToLazyOracle { .. })
        ));
        assert!(!capped.sampled);
    }

    #[test]
    fn capped_run_releases_every_tracked_byte() {
        let _guard = crate::telemetry::global_state_lock();
        let budget = RunBudget::unlimited().with_mem_limit_bytes(LAZY_CAP);
        let capped = ConsensusBuilder::new()
            .algorithm(Algorithm::Balls(BallsParams::practical()))
            .budget(budget.clone())
            .try_aggregate(&shifted_inputs())
            .unwrap();
        assert!(!capped.warnings.is_empty());
        assert_eq!(budget.mem_gauge().used_bytes(), 0);
    }

    /// [`shifted_inputs`]' AGGLOMERATIVE footprint: the 4·80·79/2 =
    /// 12 640-byte triangle of `u32` sums (the inputs are total, so every
    /// distance is an exact multiple of ¼). The refinement's dense codes
    /// take 12 840 bytes, but only once the triangle is gone.
    const AGGLOMERATIVE_BYTES: u64 = 12_640;

    #[test]
    fn agglomerative_samples_when_its_triangle_does_not_fit() {
        let _guard = crate::telemetry::global_state_lock();
        // One byte short of the triangle. The rung is decided up front, so
        // the run samples instead of building the triangle and losing it
        // to the cap.
        let limit = AGGLOMERATIVE_BYTES - 1;
        let budget = RunBudget::unlimited().with_mem_limit_bytes(limit);
        let capped = ConsensusBuilder::new()
            .budget(budget.clone())
            .try_aggregate(&shifted_inputs())
            .unwrap();
        // 2·s·(s−1) ≤ 12 639 → s = 79.
        assert_eq!(
            capped.warnings,
            vec![Warning::MemoryDegradedToSampling {
                requested: AGGLOMERATIVE_BYTES,
                limit,
                sample_size: 79,
            }]
        );
        assert!(capped.sampled);
        assert!(capped.status.is_converged());
        assert_eq!(capped.clustering.len(), 80);
        assert_eq!(budget.mem_gauge().used_bytes(), 0);
    }

    #[test]
    fn agglomerative_runs_dense_exactly_when_its_triangle_fits() {
        let _guard = crate::telemetry::global_state_lock();
        let inputs = shifted_inputs();
        let at = |limit: u64, refine: bool| {
            let budget = RunBudget::unlimited().with_mem_limit_bytes(limit);
            let result = ConsensusBuilder::new()
                .refine(refine)
                .budget(budget.clone())
                .try_aggregate(&inputs)
                .unwrap();
            assert_eq!(budget.mem_gauge().used_bytes(), 0);
            assert!(result.status.is_converged());
            result
        };
        for refine in [false, true] {
            let unconstrained = ConsensusBuilder::new()
                .refine(refine)
                .try_aggregate(&inputs)
                .unwrap();
            // The refinement's codes fit once the triangle is dropped.
            let fits = at(12_840, refine);
            assert!(fits.warnings.is_empty(), "{:?}", fits.warnings);
            assert_eq!(fits.clustering, unconstrained.clustering);
            assert_eq!(fits.cost.to_bits(), unconstrained.cost.to_bits());
            // The triangle alone fits: the main stage runs dense, and the
            // refinement, whose codes do not fit, reads the lazy oracle.
            let tight = at(AGGLOMERATIVE_BYTES, refine);
            assert!(!tight.sampled);
            assert_eq!(tight.clustering, unconstrained.clustering);
            let expected = if refine {
                vec![Warning::MemoryDegradedToLazyOracle {
                    requested: 12_840,
                    limit: AGGLOMERATIVE_BYTES,
                }]
            } else {
                Vec::new()
            };
            assert_eq!(tight.warnings, expected);
            assert!(at(AGGLOMERATIVE_BYTES - 1, refine).sampled);
        }
    }

    #[test]
    fn capped_checkpointed_run_resumes_to_the_unconstrained_labels() {
        use crate::snapshot::{load_snapshot, SnapshotLoad};

        let _guard = crate::telemetry::global_state_lock();
        let inputs = shifted_inputs();
        let reference = ConsensusBuilder::new()
            .algorithm(Algorithm::LocalSearch(Default::default()))
            .try_aggregate(&inputs)
            .unwrap();
        let capped = || RunBudget::unlimited().with_mem_limit_bytes(LAZY_CAP);
        let dir = std::env::temp_dir().join("aggclust_consensus_capped_resume");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.bin");
        let build = || {
            ConsensusBuilder::new()
                .algorithm(Algorithm::LocalSearch(Default::default()))
                .checkpoint(&path, Duration::ZERO)
        };
        let mut resumed_runs = 0;
        for iters in [2u64, 40, 90] {
            std::fs::remove_file(&path).ok();
            let partial = build()
                .budget(capped().with_max_iters(iters))
                .try_aggregate(&inputs)
                .unwrap();
            if partial.status.is_converged() {
                assert_eq!(partial.clustering, reference.clustering, "cap {iters}");
                continue;
            }
            let snapshot = match load_snapshot(&path) {
                SnapshotLoad::Loaded(s) => s,
                other => panic!("cap {iters}: expected a snapshot, got {other:?}"),
            };
            let resumed = build()
                .budget(capped())
                .resume_from(snapshot)
                .try_aggregate(&inputs)
                .unwrap();
            assert_eq!(resumed.clustering, reference.clustering, "cap {iters}");
            assert!(resumed.status.is_converged(), "cap {iters}");
            assert!(
                matches!(
                    resumed.warnings[..],
                    [Warning::MemoryDegradedToLazyOracle { .. }]
                ),
                "cap {iters}: {:?}",
                resumed.warnings
            );
            resumed_runs += 1;
        }
        assert!(resumed_runs > 0, "no cap interrupted the run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn try_aggregate_counts_the_disagreements_exactly_with_or_without_a_recount() {
        let _guard = crate::telemetry::global_state_lock();
        let inputs = shifted_inputs();
        let algorithms = [
            Algorithm::Agglomerative(AgglomerativeParams::default()),
            Algorithm::LocalSearch(Default::default()),
            Algorithm::Balls(BallsParams::practical()),
        ];
        for algorithm in algorithms {
            let name = algorithm.name();
            for refine in [false, true] {
                let build = || {
                    ConsensusBuilder::new()
                        .algorithm(algorithm.clone())
                        .refine(refine)
                };
                // Priced exactly at `den = m`, `E_D` is the pipeline's own
                // count, also where a cap that refuses the dense codes (but
                // holds AGGLOMERATIVE's triangle) sends the run, or its
                // refinement, to the lazy oracle: nothing is recounted.
                let dense = build().try_aggregate(&inputs).unwrap();
                let capped = build()
                    .budget(RunBudget::unlimited().with_mem_limit_bytes(AGGLOMERATIVE_BYTES))
                    .try_aggregate(&inputs)
                    .unwrap();
                let at = format!("{name}, refine {refine}");
                assert_eq!(capped.clustering, dense.clustering, "{at}");
                assert_same_price(&capped, &dense, &at);
                for result in [dense, capped] {
                    assert!(!result.sampled, "{name}");
                    assert_eq!(
                        result.disagreements,
                        crate::distance::total_disagreement(&inputs, &result.clustering),
                        "{name}, refine {refine}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_path_respects_budget_and_stays_valid() {
        let truth: Vec<u32> = (0..60).map(|v| v / 20).collect();
        let inputs = vec![c(&truth); 4];
        let result = ConsensusBuilder::new()
            .sampling_threshold(30)
            .sample_size(25)
            .budget(RunBudget::unlimited().with_max_iters(3))
            .try_aggregate(&inputs)
            .unwrap();
        assert!(result.sampled);
        assert_eq!(result.clustering.len(), 60);
        assert_eq!(result.status, RunStatus::BudgetExceeded);
        assert!(!result.warnings.is_empty());
    }
}
