//! The benchmark's workloads: fixed matrices of experiment cells.
//!
//! An experiment cell is benchmark × recording seed × strategy × isolation
//! level. Every cell of a workload analyses an observed execution recorded
//! once at set-up; cells of one workload may share an observation.

use isopredict::{IsolationLevel, Strategy};
use isopredict_workloads::{Benchmark, WorkloadConfig};

/// One observed execution to record at set-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    pub benchmark: Benchmark,
    pub config: WorkloadConfig,
}

/// One experiment: predict over an observation, then validate.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into [`Workload::observations`].
    pub observation: usize,
    pub strategy: Strategy,
    pub isolation: IsolationLevel,
    /// Conflict budget per experiment.
    pub budget: u64,
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub observations: Vec<Observation>,
    pub cells: Vec<Cell>,
}

pub const WORKLOADS: [&str; 3] = ["paper-rc", "causal-search", "unsat-proofs"];

/// The predictor's default conflict budget, spelled out so the cell
/// listing names it.
pub const DEFAULT_BUDGET: u64 = 2_000_000;
/// The causal search budget: small enough that a budget-capped cell takes
/// about a seventh of a round.
pub const CAUSAL_BUDGET: u64 = 10_000;

/// One group of cells: `benchmarks` × recording seeds
/// `first_seed + seeds`, at one size, strategy and level.
struct Group<'a> {
    benchmarks: &'a [Benchmark],
    seeds: std::ops::Range<u64>,
    sessions: usize,
    txns: usize,
    strategy: Strategy,
    isolation: IsolationLevel,
    budget: u64,
}

impl Group<'_> {
    /// Approx-Relaxed over `sessions × txns` observations.
    fn relaxed(
        benchmarks: &[Benchmark],
        seeds: std::ops::Range<u64>,
        txns: usize,
        isolation: IsolationLevel,
        budget: u64,
    ) -> Group<'_> {
        Group {
            benchmarks,
            seeds,
            sessions: 3,
            txns,
            strategy: Strategy::ApproxRelaxed,
            isolation,
            budget,
        }
    }
}

impl Workload {
    /// The workload named `name`, with recording seeds shifted by
    /// `first_seed` (0 gives the reference matrix the README describes).
    pub fn named(name: &str, first_seed: u64) -> Option<Workload> {
        use Benchmark::{Overdraft, Smallbank, Tpcc, Voter, Wikipedia};
        use IsolationLevel::{Causal, ReadCommitted, Snapshot};
        let paper = [Smallbank, Voter, Tpcc, Wikipedia];
        let groups: Vec<Group<'_>> = match name {
            "paper-rc" => vec![
                Group::relaxed(&paper, 0..2, 4, ReadCommitted, DEFAULT_BUDGET),
                Group {
                    strategy: Strategy::ExactStrict,
                    ..Group::relaxed(&paper, 0..2, 3, ReadCommitted, DEFAULT_BUDGET)
                },
            ],
            "causal-search" => vec![Group::relaxed(
                &[Smallbank, Tpcc, Wikipedia, Voter],
                0..2,
                4,
                Causal,
                CAUSAL_BUDGET,
            )],
            "unsat-proofs" => vec![
                // Overdraft seed 1's SI proof alone takes about 18 s, longer
                // than a round, so the SI seeds are 0 and 2-3.
                Group::relaxed(&[Overdraft], 0..1, 2, Snapshot, DEFAULT_BUDGET),
                Group::relaxed(&[Overdraft], 2..4, 2, Snapshot, DEFAULT_BUDGET),
                Group::relaxed(&[Voter], 0..2, 2, Causal, DEFAULT_BUDGET),
                Group::relaxed(&[Overdraft], 0..1, 2, Causal, DEFAULT_BUDGET),
            ],
            _ => return None,
        };
        let name = WORKLOADS.iter().copied().find(|w| *w == name)?;
        let mut workload = Workload {
            name,
            observations: Vec::new(),
            cells: Vec::new(),
        };
        for group in &groups {
            for &benchmark in group.benchmarks {
                for seed in group.seeds.clone() {
                    let observation = Observation {
                        benchmark,
                        config: WorkloadConfig {
                            sessions: group.sessions,
                            txns_per_session: group.txns,
                            ..WorkloadConfig::small(first_seed + seed)
                        },
                    };
                    let index = match workload.observations.iter().position(|o| *o == observation) {
                        Some(index) => index,
                        None => {
                            workload.observations.push(observation);
                            workload.observations.len() - 1
                        }
                    };
                    workload.cells.push(Cell {
                        observation: index,
                        strategy: group.strategy,
                        isolation: group.isolation,
                        budget: group.budget,
                    });
                }
            }
        }
        Some(workload)
    }

    /// A one-line label for a cell.
    pub fn label(&self, cell: &Cell) -> String {
        let observation = &self.observations[cell.observation];
        format!(
            "{} {}x{} seed {} {} {}",
            observation.benchmark.name(),
            observation.config.sessions,
            observation.config.txns_per_session,
            observation.config.seed,
            cell.strategy,
            cell.isolation
        )
    }
}
