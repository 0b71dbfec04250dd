//! One job — the CLI `aggregate` path minus file I/O — and the checks every
//! job must pass.

use crate::workload::{self, Spec};
use aggclust_cli::csv;
use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::cost::{correlation_cost, lower_bound};
use aggclust_core::instance::{ClusteringsOracle, MissingPolicy};
use aggclust_core::{ConsensusResult, RunStatus, Warning};

/// What one job hands back.
pub struct JobOutput {
    /// The label file the CLI would write, one label per line.
    pub rendered: String,
    /// The consensus the labels were rendered from.
    pub result: ConsensusResult,
}

/// Parse the CSV, aggregate it with the workload's builder, render the
/// labels.
pub fn run_job(spec: &Spec, csv_text: &str) -> Result<JobOutput, String> {
    let inputs = csv::parse_label_matrix(csv_text, ',', false).map_err(|e| e.to_string())?;
    let result = spec
        .builder()
        .try_aggregate_partial(inputs)
        .map_err(|e| e.to_string())?;
    let rendered = csv::render_labels(&result.clustering);
    Ok(JobOutput { rendered, result })
}

/// `d(C)` over the lower bound. Dense runs carry both in their result; a
/// sampled run is priced on the fixed subsample, since all pairs would be
/// `O(n²)`.
pub fn cost_ratio(
    spec: &Spec,
    seed: u64,
    columns: &[Vec<Option<u32>>],
    result: &ConsensusResult,
) -> f64 {
    match result.lower_bound {
        Some(lb) if !result.sampled => result.cost / lb,
        _ => subsample_cost_ratio(spec, seed, columns, &result.clustering),
    }
}

/// [`cost_ratio`] of `clustering` restricted to the seed's
/// [`workload::SUBSAMPLE`] objects, served by the lazy oracle so the check
/// adds no quadratic memory.
pub fn subsample_cost_ratio(
    spec: &Spec,
    seed: u64,
    columns: &[Vec<Option<u32>>],
    clustering: &Clustering,
) -> f64 {
    let idx = workload::subsample(spec.n, workload::SUBSAMPLE, seed);
    let inputs: Vec<PartialClustering> = columns
        .iter()
        .map(|c| PartialClustering::from_labels(idx.iter().map(|&v| c[v]).collect()))
        .collect();
    let oracle = ClusteringsOracle::new(inputs, MissingPolicy::default());
    correlation_cost(&oracle, &clustering.restrict(&idx)) / lower_bound(&oracle)
}

/// Why a job failed, or `Ok` when it passed every check.
///
/// A job fails when it returned an error, did not converge, warned, wrote
/// a label count other than `n`, wrote labels that differ from `reference`
/// (the run's first job), or priced below the lower bound.
pub fn check_job(
    n: usize,
    job: &Result<JobOutput, String>,
    reference: Option<&str>,
    cost_ratio: f64,
) -> Result<(), String> {
    let out = job
        .as_ref()
        .map_err(|e| format!("job returned an error: {e}"))?;
    check_outcome(out.result.status, &out.result.warnings)?;
    check_labels(n, &out.rendered, reference)?;
    check_cost_ratio(cost_ratio)
}

/// The run must converge without a single degradation step.
pub fn check_outcome(status: RunStatus, warnings: &[Warning]) -> Result<(), String> {
    if status != RunStatus::Converged {
        return Err(format!("status {status:?}, not Converged"));
    }
    match warnings.first() {
        Some(w) => Err(format!("warning: {w}")),
        None => Ok(()),
    }
}

/// `n` labels, identical to `reference` when there is one.
pub fn check_labels(n: usize, rendered: &str, reference: Option<&str>) -> Result<(), String> {
    let count = rendered.lines().count();
    if count != n {
        return Err(format!("{count} labels, expected {n}"));
    }
    match reference {
        Some(r) if r != rendered => Err("labels differ from the run's first job".to_string()),
        _ => Ok(()),
    }
}

/// No clustering can cost less than the per-pair lower bound.
pub fn check_cost_ratio(ratio: f64) -> Result<(), String> {
    if ratio >= 1.0 {
        Ok(())
    } else {
        Err(format!("cost ratio {ratio} below the lower bound"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str, n: usize) -> (Spec, Vec<Vec<Option<u32>>>, JobOutput) {
        let spec = Spec::by_name(name).unwrap().with_n(n);
        let columns = workload::generate(&spec, 1);
        let out = run_job(&spec, &workload::render_csv(&columns)).unwrap();
        (spec, columns, out)
    }

    #[test]
    fn a_clean_job_passes_and_repeats() {
        let (spec, columns, out) = small("agglo-partial-5k", 400);
        let ratio = cost_ratio(&spec, 1, &columns, &out.result);
        let again = run_job(&spec, &workload::render_csv(&columns));
        assert_eq!(
            check_job(spec.n, &again, Some(&out.rendered), ratio),
            Ok(())
        );
    }

    #[test]
    fn a_perturbed_label_fails_the_job() {
        let (spec, columns, out) = small("ls-5k", 400);
        let ratio = cost_ratio(&spec, 1, &columns, &out.result);
        let reference = out.rendered.clone();
        let mut labels: Vec<u32> = out.result.clustering.labels().to_vec();
        labels[17] += 1000;
        let perturbed = JobOutput {
            rendered: csv::render_labels(&Clustering::from_labels(labels)),
            result: out.result,
        };
        let err = check_job(spec.n, &Ok(perturbed), Some(&reference), ratio).unwrap_err();
        assert!(err.contains("differ"), "{err}");
    }

    #[test]
    fn a_truncated_label_file_fails_the_job() {
        let (spec, columns, mut out) = small("ls-5k", 400);
        let ratio = cost_ratio(&spec, 1, &columns, &out.result);
        let cut = out.rendered.lines().take(spec.n - 1).count();
        out.rendered = out
            .rendered
            .lines()
            .take(cut)
            .map(|l| format!("{l}\n"))
            .collect();
        let err = check_job(spec.n, &Ok(out), None, ratio).unwrap_err();
        assert!(err.contains("399 labels"), "{err}");
    }

    #[test]
    fn errors_warnings_and_impossible_costs_fail_the_job() {
        assert!(check_job(3, &Err("boom".into()), None, 1.0).is_err());
        assert!(check_outcome(RunStatus::BudgetExceeded, &[]).is_err());
        assert!(check_outcome(RunStatus::Converged, &[Warning::RefinementInterrupted]).is_err());
        assert!(check_cost_ratio(0.999).is_err());
        assert!(check_cost_ratio(f64::NAN).is_err());
        assert!(check_cost_ratio(1.0).is_ok());
    }

    #[test]
    fn the_sampled_price_is_a_pure_function_of_the_seed() {
        // 7 000 objects cross the default sampling threshold.
        let (spec, columns, out) = small("sampling-50k", 7_000);
        assert!(out.result.sampled && spec.samples());
        let a = cost_ratio(&spec, 1, &columns, &out.result);
        assert_eq!(a, cost_ratio(&spec, 1, &columns, &out.result));
        assert!((1.0..1.5).contains(&a), "{a}");
        assert_ne!(
            a,
            subsample_cost_ratio(&spec, 2, &columns, &out.result.clustering)
        );
    }
}
