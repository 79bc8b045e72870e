//! Set-up (record, canonicalise, reload, check) and one experiment
//! (predict, then validate), each through the program's public calls.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use isopredict::{
    validate, PredictionOutcome, Predictor, PredictorConfig, Strategy, ValidationOutcome,
};
use isopredict_corpus::{hash::sha256_hex, LoadedTrace};
use isopredict_history::{serializability, History};
use isopredict_obs::Obs;
use isopredict_store::StoreMode;
use isopredict_workloads::{run, Schedule};

use crate::matrix::{Cell, Workload};

/// An observed execution in the form every analysis runs on: the history
/// rebuilt from the canonical trace, as campaigns do.
pub struct Observed {
    pub history: History,
    pub committed_indices: Vec<Vec<usize>>,
    /// SHA-256 of the canonical trace JSON.
    pub hash: String,
}

/// Where one set-up pass spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    pub record: Duration,
    pub corpus: Duration,
    pub check: Duration,
    pub txns: u64,
    pub bytes: u64,
}

/// Records every observed execution of `workload`, canonicalises and hashes
/// it, rebuilds the history from the canonical trace, and checks it
/// serializable with the program's checker.
pub fn set_up(workload: &Workload) -> Result<(Vec<Observed>, SetupCost), String> {
    let mut cost = SetupCost::default();
    let mut observed = Vec::with_capacity(workload.observations.len());
    for observation in &workload.observations {
        let start = Instant::now();
        let recorded = run(
            observation.benchmark,
            &observation.config,
            StoreMode::SerializableRecord,
            &Schedule::RoundRobin,
        );
        cost.record += start.elapsed();
        cost.txns += recorded.committed.len() as u64;

        let start = Instant::now();
        let trace = recorded.trace();
        let json = trace.to_canonical_json();
        let hash = sha256_hex(json.as_bytes());
        let loaded = LoadedTrace::new(trace).map_err(|e| format!("reloading a trace: {e}"))?;
        cost.corpus += start.elapsed();
        cost.bytes += json.len() as u64;

        let start = Instant::now();
        let serializable = serializability::check(&loaded.history).is_serializable();
        cost.check += start.elapsed();
        if !serializable {
            return Err(format!(
                "{} seed {}: observed history is not serializable",
                observation.benchmark.name(),
                observation.config.seed
            ));
        }
        observed.push(Observed {
            history: loaded.history,
            committed_indices: loaded.committed_indices,
            hash,
        });
    }
    Ok((observed, cost))
}

/// Why an experiment reached no verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The solver exhausted its conflict budget.
    Budget,
    /// Exact-Strict examined `max_exact_candidates` serializable candidates.
    CandidateCap,
    /// The program panicked.
    Panic,
    /// A snapshot-isolation prediction that the SI checker rejects.
    NonConforming,
}

impl Failure {
    pub const ALL: [Failure; 4] = [
        Failure::Budget,
        Failure::CandidateCap,
        Failure::Panic,
        Failure::NonConforming,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Failure::Budget => "budget",
            Failure::CandidateCap => "candidate_cap",
            Failure::Panic => "panic",
            Failure::NonConforming => "nonconforming",
        }
    }
}

/// How an experiment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A prediction whose validation replay was unserializable.
    Validated,
    /// A prediction whose validation replay was serializable.
    FailedValidation,
    /// A no-prediction proof.
    NoPrediction,
    Failed(Failure),
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Validated => "validated",
            Verdict::FailedValidation => "failed_validation",
            Verdict::NoPrediction => "no_prediction",
            Verdict::Failed(failure) => failure.name(),
        }
    }
}

/// One experiment's outputs, kept for the checks.
pub struct Experiment {
    pub verdict: Verdict,
    /// Wall time of predict plus validation replay.
    pub elapsed: Duration,
    pub outcome: Option<PredictionOutcome>,
    /// The validation replay's history and assessment.
    pub validation: Option<(History, ValidationOutcome)>,
}

/// Runs one experiment: `Predictor::predict_obs`, then, for a prediction,
/// the validation replay. `obs` receives a `predict` span (holding the
/// predictor's own spans and counters) and a `validate` span.
pub fn run_experiment(
    workload: &Workload,
    cell: &Cell,
    observed: &Observed,
    preprocess: bool,
    obs: &Obs,
) -> Experiment {
    let observation = &workload.observations[cell.observation];
    let predictor = Predictor::new(PredictorConfig {
        strategy: cell.strategy,
        isolation: cell.isolation,
        conflict_budget: Some(cell.budget),
        preprocess,
        ..PredictorConfig::default()
    });
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let predict_span = obs.span("predict");
        let outcome = predictor.predict_obs(&observed.history, predict_span.obs());
        predict_span.finish();
        let validation = outcome.prediction().map(|prediction| {
            let validate_span = obs.span("validate");
            let plan = validate::plan_validation(prediction, &observed.committed_indices);
            let replay = run(
                observation.benchmark,
                &observation.config,
                StoreMode::Controlled {
                    level: cell.isolation,
                    script: plan.script,
                },
                &Schedule::Explicit(plan.schedule),
            );
            let assessment = validate::assess(&replay.history, &replay.divergences);
            validate_span.finish();
            (replay.history, assessment)
        });
        (outcome, validation)
    }));
    let elapsed = start.elapsed();
    let Ok((outcome, validation)) = result else {
        return Experiment {
            verdict: Verdict::Failed(Failure::Panic),
            elapsed,
            outcome: None,
            validation: None,
        };
    };
    let verdict = match (&outcome, &validation) {
        (PredictionOutcome::NoPrediction { .. }, _) => Verdict::NoPrediction,
        (PredictionOutcome::Unknown { postmortem }, _) => {
            let exhausted = postmortem
                .as_ref()
                .is_some_and(|pm| pm.budget.is_some_and(|b| pm.conflicts_in_call >= b));
            if !exhausted && cell.strategy == Strategy::ExactStrict {
                Verdict::Failed(Failure::CandidateCap)
            } else {
                Verdict::Failed(Failure::Budget)
            }
        }
        (PredictionOutcome::Prediction(_), Some((_, assessment))) if assessment.validated => {
            Verdict::Validated
        }
        (PredictionOutcome::Prediction(_), _) => Verdict::FailedValidation,
    };
    Experiment {
        verdict,
        elapsed,
        outcome: Some(outcome),
        validation,
    }
}
