//! Time-to-verdict benchmark for IsoPredict.
//!
//! One process runs one workload: it records the workload's observed
//! executions (set-up), then repeats whole rounds of experiments — predict,
//! then validation replay — for `--seconds` seconds, one at a time on one
//! thread, checking every output against computations made apart from the
//! predictor. The last line of standard output is a JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! ```text
//! verdict_bench --workload paper-rc --seed 0 --seconds 20 --trace 0
//! verdict_bench --mode crosscheck --workload unsat-proofs
//! ```
//!
//! See README.md beside this crate for the workloads and metrics.

mod checks;
mod experiment;
mod layers;
mod matrix;

use std::process::ExitCode;
use std::time::Instant;

use isopredict_obs::{Obs, Registry};

use experiment::{run_experiment, set_up, Failure, Observed, Verdict};
use layers::LayerRound;
use matrix::{Workload, WORKLOADS};

/// Set-up passes made before the first round.
const SETUP_FIRST_PASSES: usize = 3;
/// After every experiment, set-up repeats until the run's set-up time is at
/// least this share of its experiment time; `setup_s` is the median pass.
const SETUP_SHARE: f64 = 0.03;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Timed rounds and the JSON result line.
    Run,
    /// Every cell with preprocessing on and off.
    Crosscheck,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: String,
    seed: u64,
    first_seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: verdict_bench --workload <paper-rc|causal-search|unsat-proofs> \
[--seed N] [--seconds S] [--trace 0|1] [--first-seed N] [--mode run|crosscheck]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: String::new(),
        seed: 0,
        first_seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = number(value)?,
            "--first-seed" => args.first_seed = number(value)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            "--mode" => {
                args.mode = match value {
                    "run" => Mode::Run,
                    "crosscheck" => Mode::Crosscheck,
                    _ => return Err(format!("--mode {value}: expected run or crosscheck")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("verdict_bench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = Workload::named(&args.workload, args.first_seed).expect("name was checked");
    let result = match args.mode {
        Mode::Run => run_rounds(&args, &workload),
        Mode::Crosscheck => crosscheck(&workload),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("verdict_bench: {error}");
            ExitCode::from(1)
        }
    }
}

/// The median of `values` (which must not be empty).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The order one run visits the cells in: a Fisher–Yates shuffle driven by
/// splitmix64 from `seed`, the same for every round of the run.
fn cell_order(cells: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..cells).collect();
    for i in (1..cells).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

/// One set-up pass: its wall seconds and where they went.
type SetupPass = (f64, experiment::SetupCost);

/// The run's set-up passes. They are spread over the whole run, so that
/// `setup_s` samples the same stretch of a shared host's time as the
/// experiments do, and every pass must yield the same canonical traces.
struct SetUps<'a> {
    workload: &'a Workload,
    hashes: Vec<String>,
    passes: Vec<SetupPass>,
    spent: f64,
}

impl<'a> SetUps<'a> {
    /// Makes [`SETUP_FIRST_PASSES`] passes and returns the observations.
    fn new(workload: &'a Workload) -> Result<(Vec<Observed>, SetUps<'a>), String> {
        let mut setups = SetUps {
            workload,
            hashes: Vec::new(),
            passes: Vec::new(),
            spent: 0.0,
        };
        let mut observed = setups.pass()?;
        for _ in 1..SETUP_FIRST_PASSES {
            observed = setups.pass()?;
        }
        Ok((observed, setups))
    }

    fn pass(&mut self) -> Result<Vec<Observed>, String> {
        let start = Instant::now();
        let (observed, cost) = set_up(self.workload)?;
        let wall = start.elapsed().as_secs_f64();
        let hashes: Vec<String> = observed.iter().map(|o| o.hash.clone()).collect();
        if self.hashes.is_empty() {
            self.hashes = hashes;
        } else if self.hashes != hashes {
            return Err("recording is not deterministic: trace hashes differ".into());
        }
        self.spent += wall;
        self.passes.push((wall, cost));
        Ok(observed)
    }

    /// Passes until set-up has taken [`SETUP_SHARE`] of `experiment_s`.
    fn keep_up(&mut self, experiment_s: f64) -> Result<(), String> {
        while self.spent < SETUP_SHARE * experiment_s {
            self.pass()?;
        }
        Ok(())
    }
}

/// Everything one timed or traced run measured.
struct RunTally {
    attempted: u64,
    failures: Vec<(Failure, u64)>,
    problems: Vec<String>,
    /// Per untraced round, each experiment's wall seconds, by cell index.
    untraced_times: Vec<Vec<f64>>,
    /// Per round: `(traced, experiment seconds, check seconds)`.
    rounds: Vec<(bool, f64, f64)>,
    layer_rounds: Vec<LayerRound>,
    first_verdicts: Vec<Verdict>,
}

impl RunTally {
    fn failed(&self) -> u64 {
        self.failures.iter().map(|(_, n)| n).sum()
    }

    fn note(&mut self, problem: String) {
        if self.problems.len() < 20 {
            eprintln!("check failed: {problem}");
        }
        self.problems.push(problem);
    }
}

/// Runs whole rounds for up to `seconds` (at least one): untraced only, or,
/// with `trace`, alternating untraced and traced rounds (ending on a traced
/// one). Set-up passes follow each experiment, untimed by the round.
fn timed_rounds(
    workload: &Workload,
    observed: &[Observed],
    setups: &mut SetUps<'_>,
    order: &[usize],
    seconds: f64,
    trace: bool,
) -> Result<RunTally, String> {
    let mut tally = RunTally {
        attempted: 0,
        failures: Failure::ALL.iter().map(|f| (*f, 0)).collect(),
        problems: Vec::new(),
        untraced_times: Vec::new(),
        rounds: Vec::new(),
        layer_rounds: Vec::new(),
        first_verdicts: Vec::new(),
    };
    let start = Instant::now();
    let mut run_experiment_s = 0.0;
    loop {
        let traced = trace && tally.rounds.len() % 2 == 1;
        let mut verdicts = vec![Verdict::NoPrediction; workload.cells.len()];
        let mut layer = LayerRound::default();
        let mut times = vec![0.0; order.len()];
        let (mut experiment_s, mut check_s) = (0.0, 0.0);
        for &index in order {
            let cell = &workload.cells[index];
            let registry = traced.then(Registry::new);
            let obs = registry.as_ref().map_or_else(Obs::off, Registry::obs);
            let observation = &observed[cell.observation];
            let experiment = run_experiment(workload, cell, observation, true, &obs);
            let wall = experiment.elapsed.as_secs_f64();
            experiment_s += wall;
            run_experiment_s += wall;
            tally.attempted += 1;
            if let Some(registry) = registry {
                layer.add(&registry.snapshot());
                if experiment
                    .validation
                    .as_ref()
                    .is_some_and(|(_, a)| a.diverged)
                {
                    layer.diverged += 1;
                }
            } else {
                times[index] = wall;
            }
            let check_start = Instant::now();
            let verdict = checks::check_experiment(workload, cell, observation, &experiment)
                .unwrap_or_else(|problem| {
                    tally.note(format!("{}: {problem}", workload.label(cell)));
                    experiment.verdict
                });
            check_s += check_start.elapsed().as_secs_f64();
            if let Verdict::Failed(failure) = verdict {
                tally
                    .failures
                    .iter_mut()
                    .filter(|(f, _)| *f == failure)
                    .for_each(|(_, n)| *n += 1);
            }
            verdicts[index] = verdict;
            setups.keep_up(run_experiment_s)?;
        }
        if tally.first_verdicts.is_empty() {
            tally.first_verdicts = verdicts;
        } else if tally.first_verdicts != verdicts {
            tally.note("verdicts differ between rounds".into());
        }
        if traced {
            layer.experiment_s = experiment_s;
            tally.layer_rounds.push(layer);
        } else {
            tally.untraced_times.push(times);
        }
        tally.rounds.push((traced, experiment_s, check_s));
        // Stop before a round (a round pair when tracing) that would end
        // past `seconds`, judged by the average round so far.
        let elapsed = start.elapsed().as_secs_f64();
        let step = elapsed / tally.rounds.len() as f64 * if trace { 2.0 } else { 1.0 };
        if (!trace || traced) && elapsed + step > seconds {
            return Ok(tally);
        }
    }
}

fn run_rounds(args: &Args, workload: &Workload) -> Result<bool, String> {
    let (observed, mut setups) = SetUps::new(workload)?;
    let order = cell_order(workload.cells.len(), args.seed);
    let mut observed_problems = Vec::new();
    for (observation, o) in workload.observations.iter().zip(&observed) {
        if checks::brute_force_serializable(&o.history) != Ok(true) {
            observed_problems.push(format!(
                "{} seed {}: observed history fails the serial-order search",
                observation.benchmark.name(),
                observation.config.seed
            ));
        }
    }
    let mut tally = timed_rounds(
        workload,
        &observed,
        &mut setups,
        &order,
        args.seconds,
        args.trace,
    )?;
    let setup = setups.passes;
    for problem in observed_problems {
        tally.note(problem);
    }
    if args.trace && !work_repeats(&tally.layer_rounds) {
        tally.note("work counters differ between traced rounds".into());
    }

    let mut counts: Vec<(Verdict, usize)> = Vec::new();
    for verdict in &tally.first_verdicts {
        match counts.iter_mut().find(|(v, _)| v == verdict) {
            Some((_, n)) => *n += 1,
            None => counts.push((*verdict, 1)),
        }
    }
    println!(
        "workload {}: {} experiments per round, {} rounds, order seed {}, first recording seed {}",
        workload.name,
        workload.cells.len(),
        tally.rounds.len(),
        args.seed,
        args.first_seed
    );
    let walls: Vec<String> = tally
        .rounds
        .iter()
        .map(|(traced, s, _)| format!("{s:.3}{}", if *traced { "t" } else { "" }))
        .collect();
    println!("round wall seconds (t: traced): {}", walls.join(" "));
    let per_round: Vec<String> = counts
        .iter()
        .map(|(v, n)| format!("{} {n}", v.name()))
        .collect();
    println!("verdicts per round: {}", per_round.join(", "));
    for (index, verdict) in tally.first_verdicts.iter().enumerate() {
        if let Verdict::Failed(failure) = verdict {
            println!(
                "  failed cell: {} ({})",
                workload.label(&workload.cells[index]),
                failure.name()
            );
        }
    }
    let causes: Vec<String> = tally
        .failures
        .iter()
        .map(|(f, n)| format!("{} {n}", f.name()))
        .collect();
    println!(
        "attempted {}, failed {} ({})",
        tally.attempted,
        tally.failed(),
        causes.join(", ")
    );

    let setup_walls: Vec<f64> = setup.iter().map(|(wall, _)| *wall).collect();
    let metrics: Vec<(String, &str, f64)> = if args.trace {
        per_layer_metrics(&tally, &setup)
    } else {
        // Each experiment's median over rounds, so a burst of load on a
        // shared host moves one sample, not the run's figure.
        let cell_medians: Vec<f64> = (0..workload.cells.len())
            .map(|cell| {
                let samples: Vec<f64> = tally.untraced_times.iter().map(|r| r[cell]).collect();
                median(&samples)
            })
            .collect();
        let validated = tally
            .first_verdicts
            .iter()
            .filter(|v| **v == Verdict::Validated)
            .count();
        vec![
            ("setup_s".into(), "s", median(&setup_walls)),
            (
                "experiments_per_s".into(),
                "1/s",
                cell_medians.len() as f64 / cell_medians.iter().sum::<f64>(),
            ),
            ("verdict_p50_s".into(), "s", median(&cell_medians)),
            ("peak_rss_mb".into(), "MiB", peak_rss_mb()?),
            ("predictions_validated".into(), "count", validated as f64),
        ]
    };
    for (name, unit, value) in &metrics {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    let correct = tally.problems.is_empty();
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        fields.join(", ")
    );
    Ok(correct)
}

/// The per-layer metrics of a traced run: medians over traced rounds (and
/// over set-up passes). Prints the per-layer self-time table.
fn per_layer_metrics(tally: &RunTally, setup: &[SetupPass]) -> Vec<(String, &'static str, f64)> {
    let layer_rounds = &tally.layer_rounds;
    let setup_median = |f: &dyn Fn(&experiment::SetupCost) -> f64| {
        median(&setup.iter().map(|(_, cost)| f(cost)).collect::<Vec<_>>())
    };
    let round_s = |traced: bool| {
        let walls: Vec<f64> = tally
            .rounds
            .iter()
            .filter(|(t, _, _)| *t == traced)
            .map(|(_, s, _)| *s)
            .collect();
        median(&walls)
    };
    let checks: Vec<f64> = tally.rounds.iter().map(|(_, _, c)| *c).collect();
    let mut metrics: Vec<(String, &'static str, f64)> = vec![
        (
            "record.s".into(),
            "s",
            setup_median(&|c| c.record.as_secs_f64()),
        ),
        (
            "record.txns".into(),
            "count",
            setup_median(&|c| c.txns as f64),
        ),
        (
            "corpus.s".into(),
            "s",
            setup_median(&|c| c.corpus.as_secs_f64()),
        ),
        (
            "corpus.bytes".into(),
            "B",
            setup_median(&|c| c.bytes as f64),
        ),
        (
            "setup.check_s".into(),
            "s",
            setup_median(&|c| c.check.as_secs_f64()),
        ),
        ("history.check_s".into(), "s", median(&checks)),
    ];
    let first = &layer_rounds[0];
    for (name, unit, _) in first.metrics() {
        let values: Vec<f64> = layer_rounds
            .iter()
            .map(|round| {
                round
                    .metrics()
                    .into_iter()
                    .find(|(n, _, _)| *n == name)
                    .map_or(0.0, |(_, _, v)| v)
            })
            .collect();
        metrics.push((name.into(), unit, median(&values)));
    }
    metrics.push((
        "trace.overhead".into(),
        "ratio",
        round_s(true) / round_s(false),
    ));

    let wall = median(
        &layer_rounds
            .iter()
            .map(|r| r.experiment_s)
            .collect::<Vec<_>>(),
    );
    println!("per-layer self time, median traced round ({wall:.3} s of experiments):");
    for (name, _) in first.self_times() {
        let seconds: Vec<f64> = layer_rounds
            .iter()
            .map(|r| {
                r.self_times()
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, s)| *s)
            })
            .collect();
        let s = median(&seconds);
        println!("  {name:<18} {s:>10.4} s {:>6.1}%", 100.0 * s / wall);
    }
    metrics
}

/// Whether every traced round did the same work; prints the first
/// difference.
fn work_repeats(rounds: &[LayerRound]) -> bool {
    let first = rounds[0].work();
    rounds.iter().skip(1).all(|round| {
        let work = round.work();
        if work != first {
            eprintln!("work counters differ between traced rounds: {first:?} vs {work:?}");
        }
        work == first
    })
}

/// Decides every cell with preprocessing on and off. A no-prediction
/// verdict must not change, since preprocessing is equisatisfiable; other
/// cells are listed for their timing (Exact-Strict may meet its candidates in
/// another order, so its verdicts may differ).
fn crosscheck(workload: &Workload) -> Result<bool, String> {
    let (observed, _) = SetUps::new(workload)?;
    let mut ok = true;
    let mut proofs = 0;
    for cell in &workload.cells {
        let observation = &observed[cell.observation];
        let on = run_experiment(workload, cell, observation, true, &Obs::off());
        let off = run_experiment(workload, cell, observation, false, &Obs::off());
        let proof = on.verdict == Verdict::NoPrediction;
        let agree = !proof || off.verdict == on.verdict;
        proofs += usize::from(proof);
        ok &= agree;
        println!(
            "{:<52} preprocess on: {:<17} {:>8.3} s   off: {:<17} {:>8.3} s{}",
            workload.label(cell),
            on.verdict.name(),
            on.elapsed.as_secs_f64(),
            off.verdict.name(),
            off.elapsed.as_secs_f64(),
            if agree { "" } else { "  MISMATCH" }
        );
    }
    println!(
        "{proofs} no-prediction cells re-decided without preprocessing: {}",
        if ok { "all agree" } else { "VERDICTS DIFFER" }
    );
    Ok(ok)
}
