//! `vcycle-grid-1m`: one-shot registry `mlga`, k = 8, on the 1000×1000
//! grid loaded from METIS text.
//!
//! End-to-end run: laps of one CLI invocation's work until the budget is
//! spent: the file load is the set-up, then a fresh `mlga` solve with a
//! seed derived from the workload seed.
//! `total_cut` and `imbalance` come from the first [`QUALITY_SOLVES`]
//! solves only, so they are the same work on every commit however fast
//! the solves get.
//!
//! Traced run: the registry solve, the same solve with its inner GA
//! wrapped in a timing `Partitioner` (`inner::resolve`), that inner solve
//! again on a 1-thread pool, and a shadow `coarsen_to_with_arena` with
//! the V-cycle's own arguments on the 2-thread and a 1-thread pool. The
//! coarsening and uncoarsening figures are printed as `layer` lines, not
//! metrics: the other workloads do not coarsen.

use crate::host::HostSpeed;
use crate::report::{max_over_ideal, partition_checks, peak_rss_mb, Report};
use crate::stats::{mean, median};
use crate::{inner, inputs, load_graph, timed, RunArgs, PARTS};
use gapart::partitioners::by_name;
use gapart_graph::coarsen::{coarsen_to_with_arena, LevelArena};
use gapart_graph::multilevel::MultilevelConfig;
use gapart_graph::partition::hash_labels;
use gapart_graph::partitioner::PartitionReport;
use gapart_graph::refine::RefineScheme;
use gapart_graph::CsrGraph;
use std::path::Path;

/// Solves whose cut and balance are reported (and the minimum per run).
const QUALITY_SOLVES: u64 = 5;
/// Grid loads before the traced run's solves.
const TRACE_LOADS: usize = 3;

/// One registry `mlga` solve, constructed fresh as the CLI does, with
/// its output checks. Returns the report (`None` on error) and the
/// solve seconds.
fn registry_solve(
    graph: &CsrGraph,
    seed: u64,
    report: &mut Report,
) -> (Option<PartitionReport>, f64) {
    let (result, secs) = timed(|| {
        by_name("mlga")
            .expect("mlga is registered")
            .partition(graph, PARTS, seed)
    });
    match result {
        Ok(r) => {
            report.checks.operation(&partition_checks(
                graph,
                &r.partition,
                PARTS,
                r.metrics.total_cut,
            ));
            (Some(r), secs)
        }
        Err(e) => {
            report.checks.error("mlga.solve", e.message());
            (None, secs)
        }
    }
}

/// Loads the grid as the CLI does, recording the load time.
fn load(path: &Path, load_s: &mut Vec<f64>, report: &mut Report) -> Option<CsrGraph> {
    let (graph, secs) = timed(|| load_graph(path));
    load_s.push(secs);
    graph
        .map_err(|e| report.checks.error("graph.load", &e))
        .ok()
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let path = args.inputs.join("grid.metis");
    let seed_of = |i: u64| inputs::derive(args.seed, i);
    let mut load_s = Vec::new();

    if args.trace {
        let mut graph = None;
        for _ in 0..TRACE_LOADS {
            drop(graph.take()); // free the previous copy before loading again
            graph = load(&path, &mut load_s, report);
        }
        let Some(graph) = graph else { return };
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        report.metric_opt("graph.io.load_ms", median(&load_s).map(|s| s * 1e3), "ms");
        report.metric("graph.io.bytes", bytes as f64, "bytes");
        traced(&graph, seed_of(0), report);
        return;
    }

    // Each lap loads the grid and solves it, as one CLI invocation would,
    // so the set-up samples spread over the whole run.
    let mut solve_s = Vec::new();
    let mut cuts = Vec::new();
    let mut imbalances = Vec::new();
    let start = std::time::Instant::now();
    let mut host = HostSpeed::default();
    for i in 0.. {
        let lap = std::time::Instant::now();
        let Some(graph) = load(&path, &mut load_s, report) else {
            return;
        };
        let (r, secs) = registry_solve(&graph, seed_of(i), report);
        solve_s.push(secs);
        if let Some(r) = r.filter(|_| i < QUALITY_SOLVES) {
            cuts.push(r.metrics.total_cut as f64);
            imbalances.push(max_over_ideal(&graph, &r.partition));
        }
        if i == 0 {
            // The peak of one lap (a load, then a solve), as one CLI
            // invocation sees it; later laps add memory the allocator kept.
            report.metric_opt("peak_rss_mb", peak_rss_mb(), "MB");
        }
        host.sample();
        let (spent, lap) = (start.elapsed().as_secs_f64(), lap.elapsed().as_secs_f64());
        if i + 1 >= QUALITY_SOLVES && spent + lap > args.budget.as_secs_f64() {
            break;
        }
    }
    println!("grid loads: n={} s={load_s:.3?}", load_s.len());
    println!("mlga solves: n={} s={solve_s:.3?}", solve_s.len());
    host.metric(report, "setup_s", median(&load_s));
    host.metric(report, "solve_s", median(&solve_s));
    report.metric_opt("total_cut", mean(&cuts), "count");
    report.metric_opt("imbalance", mean(&imbalances), "ratio");
}

/// The per-layer run: the V-cycle with its inner GA timed, a shadow
/// coarsening, the inner solve repeated on a 1-thread pool, and the
/// consistency checks between them and the registry solve.
fn traced(graph: &CsrGraph, seed: u64, report: &mut Report) {
    let (Some(plain), plain_s) = registry_solve(graph, seed, report) else {
        return;
    };

    let wrapped = inner::resolve("mlga", RefineScheme::default()).expect("mlga resolves");
    let (result, wrapped_s) = timed(|| wrapped.partition(graph, PARTS, seed));
    let traced = match result {
        Ok(r) => r,
        Err(e) => return report.checks.error("mlga.wrapped_solve", e.message()),
    };
    report.checks.operation(&partition_checks(
        graph,
        &traced.partition,
        PARTS,
        traced.metrics.total_cut,
    ));
    let Some(inner) = inner::take() else {
        return report
            .checks
            .error("mlga.wrapped_solve", "the inner GA did not run");
    };
    let (speedup, reproduced) = inner::speedup_2t(&inner);

    // Shadow coarsening with the V-cycle's own arguments, on the 2-thread
    // pool and on a 1-thread pool; best of two each.
    let config = MultilevelConfig::default();
    let target = config.coarsen_target.max(PARTS as usize * 2);
    let coarsen = || {
        timed(|| {
            coarsen_to_with_arena(
                graph,
                target,
                seed,
                config.match_scheme,
                &mut LevelArena::new(),
            )
        })
    };
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim cannot fail to build a pool");
    let mut two_s = f64::INFINITY;
    let mut one_s = f64::INFINITY;
    let mut levels = Vec::new();
    for _ in 0..2 {
        let (l, secs) = coarsen();
        two_s = two_s.min(secs);
        levels = l;
        one_s = one_s.min(one_thread.install(coarsen).1);
    }
    let sizes: Vec<usize> = std::iter::once(graph.num_nodes())
        .chain(levels.iter().map(|l| l.coarse.num_nodes()))
        .collect();
    let coarsest = *sizes.last().expect("sizes starts with the fine graph");
    let last_shrink = match sizes.len() {
        0 | 1 => 1.0,
        n => sizes[n - 1] as f64 / sizes[n - 2] as f64,
    };

    let consistent = hash_labels(plain.partition.labels())
        == hash_labels(traced.partition.labels())
        && inner.graph.num_nodes() == coarsest
        && reproduced;
    let coarsen_ms = two_s * 1e3;
    report.metric("core.engine.ms", inner.ms, "ms");
    report.metric("core.engine.nodes", inner.graph.num_nodes() as f64, "count");
    report.metric("core.engine.cut", inner.cut as f64, "count");
    report.metric("core.engine.speedup_2t", speedup, "ratio");
    report.info("graph.coarsen.ms", coarsen_ms, "ms");
    report.info("graph.coarsen.levels", levels.len() as f64, "count");
    report.info("graph.coarsen.coarsest_nodes", coarsest as f64, "count");
    report.info("graph.coarsen.last_shrink", last_shrink, "ratio");
    report.info("graph.coarsen.speedup_2t", one_s / two_s, "ratio");
    report.info(
        "graph.multilevel.uncoarsen_ms",
        wrapped_s * 1e3 - coarsen_ms - inner.ms,
        "ms",
    );
    report.info(
        "graph.multilevel.refine_gain",
        inner.cut as f64 - traced.metrics.total_cut as f64,
        "count",
    );
    report.metric("trace.overhead_frac", wrapped_s / plain_s - 1.0, "ratio");
    report.metric("trace.consistent", f64::from(u8::from(consistent)), "bool");
}
