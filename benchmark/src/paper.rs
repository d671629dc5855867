//! `paper-ga`: the paper's §4 protocol with the registry `ga` (population
//! 320, 200 generations, DKNUX).
//!
//! Set-up (repeated before every round) loads the 13 paper graphs and
//! the grown Table 3 graphs, then partitions each Table 3 base graph
//! with `rsb` — the prior partition
//! an incremental run starts from, as
//! `gapart_bench::runner::incremental_fixture` does. One round of the
//! measured phase is flat `ga` on the 13 graphs at k = 8 plus
//! `incremental_ga` on the 4 grown graphs at k = 2, 4, 8, seeded from
//! those priors. Rounds repeat with fresh derived seeds until the budget
//! is spent. `solve_s` is the round's wall time taken as the sum over its
//! 25 solves of each solve's median across rounds, so a burst of
//! interference on the shared host moves one sample, not the figure;
//! `total_cut` and `imbalance` come from round 0 only.
//!
//! Traced run: round 0 through the registry, then the flat set again by
//! driving `GaEngine::new` / `step` / `finish` by hand (the loop of
//! `GaEngine::run`), with a 1-thread baseline on the largest graphs.
//! The `rsb` prior, step and incremental-seeding figures are printed as
//! `layer` lines, not metrics: the other workloads do not run them.

use crate::host::HostSpeed;
use crate::inputs::{derive, grown_name, TABLE3};
use crate::report::{max_over_ideal, partition_checks, peak_rss_mb, Report};
use crate::stats::{mean, median, percentile};
use crate::{load_graph, timed, RunArgs, PARTS};
use gapart::partitioners::by_name;
use gapart_bench::runner::BASELINE_SEED;
use gapart_core::incremental::{extend_partition_balanced, incremental_ga};
use gapart_core::{GaConfig, GaEngine};
use gapart_graph::generators::PAPER_SIZES;
use gapart_graph::{CsrGraph, Partition};
use std::collections::BTreeMap;
use std::path::Path;

/// Part counts of the Table 3 columns.
const TABLE3_PARTS: [u32; 3] = [2, 4, 8];
/// Rounds per run at least; round 0 gives the quality metrics.
const MIN_ROUNDS: u64 = 3;
/// Set-ups before each round; `setup_s` is the median over the run. One
/// set-up takes about 0.1 s, so several are needed for a steady median.
const SETUPS_PER_ROUND: usize = 3;
/// Flat graphs (the largest ones) the 1-thread baseline re-runs.
const BASELINE_GRAPHS: usize = 4;

/// Everything set-up produces.
struct Fixture {
    flat: Vec<CsrGraph>,
    grown: Vec<CsrGraph>,
    /// `rsb` prior of each Table 3 base graph, by (base nodes, parts).
    priors: BTreeMap<(usize, u32), Partition>,
}

fn load_all(dir: &Path) -> Result<(Vec<CsrGraph>, Vec<CsrGraph>), String> {
    let flat = PAPER_SIZES
        .iter()
        .map(|n| load_graph(&dir.join(format!("paper-{n}.metis"))))
        .collect::<Result<Vec<_>, _>>()?;
    let grown = TABLE3
        .iter()
        .map(|&(b, a)| load_graph(&dir.join(grown_name(b, a))))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((flat, grown))
}

fn rsb_priors(flat: &[CsrGraph]) -> Result<BTreeMap<(usize, u32), Partition>, String> {
    let mut priors = BTreeMap::new();
    for &(base, _) in &TABLE3 {
        let graph = PAPER_SIZES
            .iter()
            .position(|&n| n == base)
            .map(|i| &flat[i])
            .ok_or_else(|| format!("Table 3 base {base} is not a paper size"))?;
        for k in TABLE3_PARTS {
            if priors.contains_key(&(base, k)) {
                continue;
            }
            let prior = by_name("rsb")
                .expect("rsb is registered")
                .partition(graph, k, BASELINE_SEED)
                .map_err(|e| format!("rsb prior {base}/{k}: {e}"))?;
            priors.insert((base, k), prior.partition);
        }
    }
    Ok(priors)
}

/// One set-up: loads every graph file and computes the `rsb` priors.
/// Returns the fixture and the (load, prior) seconds.
fn setup(dir: &Path) -> Result<(Fixture, f64, f64), String> {
    let (loaded, load_s) = timed(|| load_all(dir));
    let (flat, grown) = loaded?;
    let (priors, prior_s) = timed(|| rsb_priors(&flat));
    Ok((
        Fixture {
            flat,
            grown,
            priors: priors?,
        },
        load_s,
        prior_s,
    ))
}

/// What one round measured.
#[derive(Default)]
struct Round {
    /// Seconds of each solve, flat solves first, in a fixed order.
    solve_s: Vec<f64>,
    /// Summed cut over the round's solves.
    cut: u64,
    /// Max/ideal load of each solve.
    imbalances: Vec<f64>,
    /// Registry `ga` cut of each flat graph, for the traced cross-check.
    flat_cuts: Vec<u64>,
}

/// Seed of solve `index` in round `round`.
fn solve_seed(seed: u64, round: u64, index: usize) -> u64 {
    derive(seed, (round << 16) | index as u64)
}

/// One round of the measured phase, each solve timed, with its output
/// checks.
fn round(fx: &Fixture, seed: u64, r: u64, report: &mut Report) -> Round {
    let mut out = Round::default();
    let mut record = |graph: &CsrGraph, partition: &Partition, parts: u32, cut: u64, secs: f64| {
        report
            .checks
            .operation(&partition_checks(graph, partition, parts, cut));
        out.solve_s.push(secs);
        out.cut += cut;
        out.imbalances.push(max_over_ideal(graph, partition));
    };
    let mut errors = Vec::new();
    let mut flat_cuts = Vec::new();
    let ga = by_name("ga").expect("ga is registered");
    for (i, graph) in fx.flat.iter().enumerate() {
        match timed(|| ga.partition(graph, PARTS, solve_seed(seed, r, i))) {
            (Ok(rep), secs) => {
                flat_cuts.push(rep.metrics.total_cut);
                record(graph, &rep.partition, PARTS, rep.metrics.total_cut, secs);
            }
            (Err(e), _) => errors.push(e.to_string()),
        }
    }
    let mut index = fx.flat.len();
    for (graph, &(base, _)) in fx.grown.iter().zip(&TABLE3) {
        for k in TABLE3_PARTS {
            let config = GaConfig::paper_defaults(k).with_seed(solve_seed(seed, r, index));
            index += 1;
            match timed(|| incremental_ga(graph, &fx.priors[&(base, k)], config)) {
                (Ok(res), secs) => record(graph, &res.best_partition, k, res.best_cut, secs),
                (Err(e), _) => errors.push(e.to_string()),
            }
        }
    }
    for e in errors {
        report.checks.error("ga.solve", &e);
    }
    out.flat_cuts = flat_cuts;
    out
}

/// A round's wall time, robust to bursts of interference: the sum over
/// the round's solves of each solve's median time across rounds.
fn round_estimate(rounds: &[Round]) -> Option<f64> {
    let solves = rounds.iter().map(|r| r.solve_s.len()).min()?;
    (0..solves)
        .map(|j| median(&rounds.iter().map(|r| r.solve_s[j]).collect::<Vec<_>>()))
        .sum()
}

/// Set-up times of a run, in seconds.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    load: Vec<f64>,
    prior: Vec<f64>,
}

/// Runs `count` timed set-ups and returns the last fixture.
fn setups(
    dir: &Path,
    count: usize,
    times: &mut SetupTimes,
    report: &mut Report,
) -> Option<Fixture> {
    let mut fixture = None;
    for _ in 0..count {
        fixture = None; // free the previous copy before setting up again
        let (result, secs) = timed(|| setup(dir));
        times.total.push(secs);
        match result {
            Ok((fx, load, prior)) => {
                times.load.push(load);
                times.prior.push(prior);
                fixture = Some(fx);
            }
            Err(e) => report.checks.error("setup", &e),
        }
    }
    fixture
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let mut times = SetupTimes::default();

    if args.trace {
        let Some(fx) = setups(&args.inputs, SETUPS_PER_ROUND, &mut times, report) else {
            return;
        };
        let bytes: u64 = std::fs::read_dir(&args.inputs)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        report.metric_opt(
            "graph.io.load_ms",
            median(&times.load).map(|s| s * 1e3),
            "ms",
        );
        report.metric("graph.io.bytes", bytes as f64, "bytes");
        if let Some(prior) = median(&times.prior) {
            report.info("rsb.prior_ms", prior * 1e3, "ms");
        }
        traced(&fx, args.seed, report);
        return;
    }

    // Set-ups precede every round, so their samples spread over the run.
    let mut rounds = Vec::new();
    let mut round_s = Vec::new();
    let mut peak_rss = None;
    let start = std::time::Instant::now();
    let mut host = HostSpeed::default();
    for r in 0.. {
        let lap = std::time::Instant::now();
        let Some(fx) = setups(&args.inputs, SETUPS_PER_ROUND, &mut times, report) else {
            return;
        };
        let (out, secs) = timed(|| round(&fx, args.seed, r, report));
        rounds.push(out);
        round_s.push(secs);
        if r == 0 {
            // The peak of a fixed amount of work (set-ups and one round);
            // later rounds repeat it, as many as the host's speed allows.
            peak_rss = peak_rss_mb();
        }
        host.sample();
        let (spent, lap) = (start.elapsed().as_secs_f64(), lap.elapsed().as_secs_f64());
        if r + 1 >= MIN_ROUNDS && spent + lap > args.budget.as_secs_f64() {
            break;
        }
    }
    let setup_med = median(&times.total);
    println!("setups: n={} median={setup_med:.4?}s", times.total.len());
    println!("rounds: n={} wall={round_s:.3?}s", round_s.len());
    host.metric(report, "setup_s", setup_med);
    host.metric(report, "solve_s", round_estimate(&rounds));
    report.metric("total_cut", rounds[0].cut as f64, "count");
    report.metric_opt("imbalance", mean(&rounds[0].imbalances), "ratio");
    report.metric_opt("peak_rss_mb", peak_rss, "MB");
}

/// Step timings of hand-driven `GaEngine` runs.
#[derive(Default)]
struct EngineTrace {
    init_s: f64,
    step_s: Vec<f64>,
    finish_s: f64,
    improving: usize,
    evals: u64,
    cuts: Vec<u64>,
}

impl EngineTrace {
    fn total_s(&self) -> f64 {
        self.init_s + self.step_s.iter().sum::<f64>() + self.finish_s
    }
}

/// Drives `GaEngine` the way `GaEngine::run` does (no target cut is
/// configured, so every generation runs), timing each call.
fn drive(graphs: &[CsrGraph], seed: u64, report: &mut Report) -> EngineTrace {
    let mut t = EngineTrace::default();
    for (i, graph) in graphs.iter().enumerate() {
        let mut config = GaConfig::paper_defaults(2);
        config.num_parts = PARTS;
        config.seed = solve_seed(seed, 0, i);
        let (engine, secs) = timed(|| GaEngine::new(graph, config.clone()));
        t.init_s += secs;
        let mut engine = match engine {
            Ok(e) => e,
            Err(e) => {
                report.checks.error("ga.engine", &e.to_string());
                continue;
            }
        };
        let mut best = engine.best().fitness;
        for _ in 0..config.generations {
            let (fitness, secs) = timed(|| engine.step());
            t.step_s.push(secs);
            if fitness > best {
                t.improving += 1;
                best = fitness;
            }
        }
        let (result, secs) = timed(|| engine.finish());
        t.finish_s += secs;
        // The initial population, then each generation's offspring (the
        // elites carry over without a new evaluation).
        let pop = config.population_size as u64;
        t.evals += pop + config.generations as u64 * (pop - config.elitism as u64);
        report.checks.operation(&partition_checks(
            graph,
            &result.best_partition,
            PARTS,
            result.best_cut,
        ));
        t.cuts.push(result.best_cut);
    }
    t
}

fn traced(fx: &Fixture, seed: u64, report: &mut Report) {
    let registry = round(fx, seed, 0, report);
    let hand = drive(&fx.flat, seed, report);

    let seed_s: f64 = fx
        .grown
        .iter()
        .zip(&TABLE3)
        .flat_map(|(graph, &(base, _))| TABLE3_PARTS.map(|k| (graph, &fx.priors[&(base, k)])))
        .enumerate()
        .map(|(j, (graph, prior))| {
            let s = solve_seed(seed, 0, fx.flat.len() + j);
            timed(|| extend_partition_balanced(graph, prior, s)).1
        })
        .sum();

    let largest = &fx.flat[fx.flat.len() - BASELINE_GRAPHS..];
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim cannot fail to build a pool");
    // Both sides timed back to back, so they see the same host conditions.
    let two = drive(largest, seed, report);
    let one = one_thread.install(|| drive(largest, seed, report));

    let steps = hand.step_s.len().max(1) as f64;
    let nodes: usize = fx.flat.iter().map(CsrGraph::num_nodes).sum();
    report.metric("core.engine.ms", hand.total_s() * 1e3, "ms");
    report.metric("core.engine.nodes", nodes as f64, "count");
    report.metric(
        "core.engine.cut",
        hand.cuts.iter().sum::<u64>() as f64,
        "count",
    );
    report.metric(
        "core.engine.speedup_2t",
        one.total_s() / two.total_s(),
        "ratio",
    );
    report.info("core.engine.init_ms", hand.init_s * 1e3, "ms");
    for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
        if let Some(s) = percentile(&hand.step_s, q) {
            report.info(&format!("core.engine.step_ms_{name}"), s * 1e3, "ms");
        }
    }
    report.info("core.engine.evals", hand.evals as f64, "count");
    report.info(
        "core.engine.evals_per_s",
        hand.evals as f64 / hand.total_s(),
        "1/s",
    );
    report.info(
        "core.engine.improving_gen_frac",
        hand.improving as f64 / steps,
        "ratio",
    );
    report.info("core.incremental.seed_ms", seed_s * 1e3, "ms");
    let registry_flat_s: f64 = registry.solve_s.iter().take(fx.flat.len()).sum();
    report.metric(
        "trace.overhead_frac",
        hand.total_s() / registry_flat_s - 1.0,
        "ratio",
    );
    let consistent = hand.cuts == registry.flat_cuts && one.cuts == two.cuts;
    report.metric("trace.consistent", f64::from(u8::from(consistent)), "bool");
}
