//! Per-layer accounting of traced experiments.
//!
//! The traced run hands each experiment a fresh enabled
//! `isopredict_obs::Registry`; the predictor fills it with its `encode`,
//! `solve` and `preprocess` spans and its `encode.*`, `solver.*`, `pp.*` and
//! `exact.candidates` counters, and the benchmark adds `predict` and
//! `validate` spans around its own calls. This module folds those snapshots
//! into per-round totals.

use std::collections::BTreeMap;

use isopredict_obs::Snapshot;

/// Program counters whose per-round totals must repeat exactly.
const WORK_COUNTERS: [&str; 17] = [
    "encode.clauses",
    "encode.variables",
    "encode.literals",
    "exact.candidates",
    "pp.eliminated",
    "pp.equivalences",
    "pp.fixed",
    "pp.probes",
    "pp.resolvents",
    "pp.restored",
    "pp.rounds",
    "pp.strengthened",
    "pp.subsumed",
    "solver.conflicts",
    "solver.decisions",
    "solver.propagations",
    "solver.theory_conflicts",
];

/// Span totals (microseconds) and counts over one traced round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRound {
    /// Summed span durations by path (`predict/encode`, …), in µs.
    span_us: BTreeMap<String, u64>,
    /// Number of spans by path.
    span_count: BTreeMap<String, u64>,
    /// Program work counters.
    counters: BTreeMap<String, u64>,
    /// Validation replays whose execution diverged from the prediction.
    pub diverged: u64,
    /// Wall time of the round's experiments, in seconds.
    pub experiment_s: f64,
}

impl LayerRound {
    /// Adds one experiment's telemetry.
    pub fn add(&mut self, snapshot: &Snapshot) {
        for record in &snapshot.spans {
            let Some(dur) = record.dur_us else { continue };
            let path = record.path(&snapshot.spans);
            *self.span_us.entry(path.clone()).or_default() += dur;
            *self.span_count.entry(path).or_default() += 1;
        }
        for (name, value) in &snapshot.counters {
            *self.counters.entry(name.clone()).or_default() += value;
        }
    }

    fn seconds(&self, path: &str) -> f64 {
        self.span_us.get(path).copied().unwrap_or(0) as f64 / 1e6
    }

    fn count(&self, path: &str) -> u64 {
        self.span_count.get(path).copied().unwrap_or(0)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The counts that must repeat exactly between traced rounds.
    pub fn work(&self) -> Vec<(String, u64)> {
        let mut work: Vec<(String, u64)> = WORK_COUNTERS
            .iter()
            .map(|name| ((*name).to_string(), self.counter(name)))
            .collect();
        work.push(("predict.solve_calls".into(), self.count("predict/solve")));
        work.push((
            "preprocess.calls".into(),
            self.count("predict/solve/preprocess"),
        ));
        work.push(("validate.replays".into(), self.count("validate")));
        work.push(("validate.diverged".into(), self.diverged));
        work
    }

    /// The program-layer times of the round, in seconds: `(name, self
    /// time)`. Together they cover each experiment's predict and validate
    /// spans.
    pub fn self_times(&self) -> [(&'static str, f64); 5] {
        let encode = self.seconds("predict/encode");
        let solve = self.seconds("predict/solve");
        let preprocess = self.seconds("predict/solve/preprocess");
        [
            ("encode.s", encode),
            ("preprocess.s", preprocess),
            ("search.s", solve - preprocess),
            ("predict.other_s", self.seconds("predict") - encode - solve),
            ("validate.s", self.seconds("validate")),
        ]
    }

    /// Every per-layer metric this round yields, `(name, unit, value)`.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let [encode, preprocess, search, other, validate] = self.self_times();
        let conflicts = self.counter("solver.conflicts") as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let named = encode.1 + preprocess.1 + search.1 + other.1 + validate.1;
        vec![
            ("encode.s", "s", encode.1),
            (
                "encode.feasibility_s",
                "s",
                self.seconds("predict/encode/feasibility"),
            ),
            (
                "encode.isolation_s",
                "s",
                self.seconds("predict/encode/isolation"),
            ),
            (
                "encode.unserializability_s",
                "s",
                self.seconds("predict/encode/unserializability"),
            ),
            (
                "encode.clauses",
                "count",
                self.counter("encode.clauses") as f64,
            ),
            (
                "encode.variables",
                "count",
                self.counter("encode.variables") as f64,
            ),
            ("preprocess.s", "s", preprocess.1),
            (
                "preprocess.calls",
                "count",
                self.count("predict/solve/preprocess") as f64,
            ),
            ("pp.rounds", "count", self.counter("pp.rounds") as f64),
            ("pp.probes", "count", self.counter("pp.probes") as f64),
            ("pp.fixed", "count", self.counter("pp.fixed") as f64),
            (
                "pp.eliminated",
                "count",
                self.counter("pp.eliminated") as f64,
            ),
            (
                "pp.resolvents",
                "count",
                self.counter("pp.resolvents") as f64,
            ),
            (
                "pp.fixed_per_probe",
                "ratio",
                ratio(
                    self.counter("pp.fixed") as f64,
                    self.counter("pp.probes") as f64,
                ),
            ),
            ("search.s", "s", search.1),
            ("solver.conflicts", "count", conflicts),
            (
                "solver.decisions",
                "count",
                self.counter("solver.decisions") as f64,
            ),
            (
                "solver.propagations",
                "count",
                self.counter("solver.propagations") as f64,
            ),
            ("search.conflicts_per_s", "1/s", ratio(conflicts, search.1)),
            (
                "search.decisions_per_conflict",
                "ratio",
                ratio(self.counter("solver.decisions") as f64, conflicts),
            ),
            (
                "solver.theory_conflicts",
                "count",
                self.counter("solver.theory_conflicts") as f64,
            ),
            (
                "order.theory_conflict_share",
                "ratio",
                ratio(self.counter("solver.theory_conflicts") as f64, conflicts),
            ),
            (
                "exact.candidates",
                "count",
                self.counter("exact.candidates") as f64,
            ),
            (
                "predict.solve_calls",
                "count",
                self.count("predict/solve") as f64,
            ),
            ("predict.other_s", "s", other.1),
            ("validate.s", "s", validate.1),
            ("validate.replays", "count", self.count("validate") as f64),
            ("validate.diverged", "count", self.diverged as f64),
            (
                "trace.layer_coverage",
                "ratio",
                ratio(named, self.experiment_s),
            ),
        ]
    }
}
