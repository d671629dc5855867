//! `serve-mesh-growth`: the daemon in-process through `Daemon::execute`,
//! default spec and snapshot cadence, one closed-loop client.
//!
//! Each session is opened on the generated 20k-node mesh (the daemon
//! reads the files itself) and fed one of the generated `mesh-growth`
//! traces: every batch goes as `mutate` lines, then `commit`, then a
//! `query`. Sessions run one after another, cycling through the traces,
//! until the budget is spent and at least [`MIN_COMMITS`] commits are in,
//! so p99 has ten samples beyond it; each is closed and its tape deleted
//! before the next opens. The `open` is the set-up; `solve_s` is the
//! time to stream every trace once (the sum over the traces of each
//! trace's median stream time); `total_cut` and `imbalance` are means
//! over the first session on each trace. Commit and query latencies,
//! pooled over all sessions, are printed with their sample counts.
//!
//! A twin `DynamicSession`, opened through `SessionSpec::open` on the
//! same files and fed the same batches, checks every `cut=` reply and
//! the final `hash=` of the first session on each trace; later sessions
//! must end identically. In the traced run the twin opens with its inner
//! GA timed (`inner::resolve`) and runs interleaved with the daemon, with
//! shadow `apply_batch` / `DirtyRegion::frontier` calls before each of
//! its batches; those stream-path figures are printed as `layer` lines,
//! not metrics, because the other workloads do not stream.

use crate::host::HostSpeed;
use crate::inputs::{trace_name, TRACES};
use crate::report::{max_over_ideal, partition_checks, peak_rss_mb, Report};
use crate::stats::{describe, mean, median, percentile};
use crate::{inner, load_graph, timed, RunArgs, PARTS};
use gapart::partitioners::by_name_with;
use gapart_core::dynamic::{BatchAction, DynamicSession, MethodResolver, SessionSpec};
use gapart_graph::dynamic::apply_batch;
use gapart_graph::dynamic::trace::parse_trace;
use gapart_graph::io::{attach_coords, coords_from_text};
use gapart_graph::partition::hash_labels;
use gapart_graph::Mutation;
use gapart_serve::{Daemon, ServeConfig};
use std::path::{Path, PathBuf};

/// Commits a run makes at least (pooled over sessions).
pub const MIN_COMMITS: usize = 1000;
/// Mesh loads the traced run times.
const MESH_LOADS: usize = 3;

/// Latency samples of the daemon, pooled over sessions.
#[derive(Default)]
struct Samples {
    open_s: Vec<f64>,
    mutate_s: Vec<f64>,
    commit_s: Vec<f64>,
    snapshot_commit_s: Vec<f64>,
    query_s: Vec<f64>,
    /// Wall time of each session's batch loop (mutate + commit + query),
    /// per trace.
    stream_s: [Vec<f64>; TRACES],
    tape_bytes: Vec<f64>,
}

/// Twin-side per-layer samples (traced run only).
#[derive(Default)]
struct TwinTrace {
    rebuild_s: Vec<f64>,
    frontier_s: Vec<f64>,
    commit_s: Vec<f64>,
    frontier_nodes: Vec<f64>,
    refine_moves: usize,
    escalations: usize,
    migrated: usize,
    old_nodes: usize,
    /// Daemon commit time minus twin commit time, per batch.
    overhead_s: Vec<f64>,
}

/// What one session's stream replied.
struct Outcome {
    cuts: Vec<Option<u64>>,
    final_cut: Option<u64>,
    final_hash: Option<String>,
}

/// The value of `key=` in a reply.
fn reply_value<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// Executes one protocol line as a checked, timed operation.
fn execute(daemon: &mut Daemon, line: &str, report: &mut Report) -> (String, f64) {
    let ((reply, is_err, _), secs) = timed(|| daemon.execute(line));
    let ok = !is_err && reply.starts_with("ok");
    if !ok {
        eprintln!("{line} -> {reply}");
    }
    report.checks.operation(&[("serve.reply_ok", ok)]);
    (reply, secs)
}

fn load_mesh(dir: &Path) -> Result<gapart_graph::CsrGraph, String> {
    let graph = load_graph(&dir.join("mesh.metis"))?;
    let text = std::fs::read_to_string(dir.join("mesh.xy")).map_err(|e| e.to_string())?;
    let coords = coords_from_text(&text).map_err(|e| e.to_string())?;
    attach_coords(&graph, coords).map_err(|e| e.to_string())
}

fn open_twin(dir: &Path, resolver: MethodResolver) -> Result<DynamicSession, String> {
    SessionSpec::new(PARTS)
        .open(load_mesh(dir)?, resolver)
        .map_err(|e| e.to_string())
}

/// One twin batch, with the traced-run shadow calls when `trace` is set.
fn twin_batch(
    twin: &mut DynamicSession,
    batch: &[Mutation],
    trace: Option<&mut TwinTrace>,
) -> Result<u64, String> {
    let Some(t) = trace else {
        return twin
            .apply_batch(batch)
            .map(|r| r.cut_after)
            .map_err(|e| e.to_string());
    };
    let (shadow, rebuild_s) = timed(|| apply_batch(twin.graph(), batch));
    let (graph, dirty) = shadow.map_err(|e| e.to_string())?;
    let hops = twin.config().frontier_hops;
    let frontier_s = timed(|| dirty.frontier(&graph, hops)).1;
    drop(graph);
    let before = twin.partition().labels().to_vec();
    let (record, commit_s) = timed(|| twin.apply_batch(batch));
    let record = record.map_err(|e| e.to_string())?;
    let after = twin.partition().labels();
    t.migrated += before.iter().zip(after).filter(|(a, b)| a != b).count();
    t.old_nodes += before.len();
    t.rebuild_s.push(rebuild_s);
    t.frontier_s.push(frontier_s);
    t.commit_s.push(commit_s);
    t.frontier_nodes.push(record.frontier as f64);
    t.refine_moves += record.refine.moves;
    t.escalations += usize::from(record.action == BatchAction::FullRepartition);
    Ok(record.cut_after)
}

/// One generated trace: the protocol payloads and the parsed batches.
struct Trace {
    /// `mutate` payloads (wire lines), per batch.
    lines: Vec<Vec<String>>,
    /// The same batches, parsed, for the twin.
    batches: Vec<Vec<Mutation>>,
}

fn read_trace(path: &Path) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let batches = parse_trace(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    // Protocol payloads straight from the file: one `mutate` per wire
    // line, batches split at `commit`.
    let mut lines: Vec<Vec<String>> = vec![Vec::new()];
    for line in text.lines().map(str::trim) {
        match line {
            "" => {}
            _ if line.starts_with('#') => {}
            "commit" => lines.push(Vec::new()),
            _ => lines
                .last_mut()
                .expect("starts non-empty")
                .push(line.to_string()),
        }
    }
    lines.pop(); // the empty batch after the final commit
    Ok(Trace { lines, batches })
}

/// Where sessions open from and write their tapes to.
struct Stream<'a> {
    dir: &'a Path,
    tape_dir: PathBuf,
    snapshot_every: usize,
}

impl Stream<'_> {
    /// Opens session `name`, streams every batch of trace `t` through
    /// the daemon, and closes it (deleting its tape). With `twin`, each
    /// batch is also fed to the twin right after the daemon's query
    /// (traced interleaving).
    #[allow(clippy::too_many_arguments)]
    fn session(
        &self,
        daemon: &mut Daemon,
        name: &str,
        t: usize,
        trace: &Trace,
        samples: &mut Samples,
        mut twin: Option<(&mut DynamicSession, &mut TwinTrace)>,
        report: &mut Report,
    ) -> Outcome {
        let open = format!(
            "open {name} graph={} coords={} parts={PARTS}",
            self.dir.join("mesh.metis").display(),
            self.dir.join("mesh.xy").display()
        );
        let (_, secs) = execute(daemon, &open, report);
        samples.open_s.push(secs);
        let mut out = Outcome {
            cuts: Vec::with_capacity(trace.lines.len()),
            final_cut: None,
            final_hash: None,
        };
        let (commit_line, query_line) = (format!("commit {name}"), format!("query {name}"));
        let start = std::time::Instant::now();
        for (b, mutations) in trace.lines.iter().enumerate() {
            for m in mutations {
                let (_, secs) = execute(daemon, &format!("mutate {name} {m}"), report);
                samples.mutate_s.push(secs);
            }
            let (reply, commit_s) = execute(daemon, &commit_line, report);
            samples.commit_s.push(commit_s);
            if (b + 1) % self.snapshot_every == 0 {
                samples.snapshot_commit_s.push(commit_s);
            }
            let cut = reply_value(&reply, "cut").and_then(|v| v.parse().ok());
            out.cuts.push(cut);
            let (reply, secs) = execute(daemon, &query_line, report);
            samples.query_s.push(secs);
            if b + 1 == trace.lines.len() {
                out.final_cut = reply_value(&reply, "cut").and_then(|v| v.parse().ok());
                out.final_hash = reply_value(&reply, "hash").map(str::to_string);
            }
            if let Some((twin, t)) = twin.as_mut() {
                let timed_before = t.commit_s.len();
                let twin_cut = twin_batch(twin, &trace.batches[b], Some(t));
                check_twin_cut(twin_cut, cut, report);
                if let Some(twin_s) = t.commit_s.get(timed_before) {
                    t.overhead_s.push(commit_s - twin_s);
                }
            }
        }
        samples.stream_s[t].push(start.elapsed().as_secs_f64());
        execute(daemon, &format!("close {name}"), report);
        let tape = self.tape_dir.join(format!("{name}.tape"));
        samples
            .tape_bytes
            .push(std::fs::metadata(&tape).map_or(0.0, |m| m.len() as f64));
        let _ = std::fs::remove_file(&tape);
        out
    }
}

fn check_twin_cut(twin_cut: Result<u64, String>, daemon_cut: Option<u64>, report: &mut Report) {
    match twin_cut {
        Ok(c) => report
            .checks
            .operation(&[("serve.cut_matches_twin", Some(c) == daemon_cut)]),
        Err(e) => report.checks.error("twin.apply_batch", &e),
    }
}

/// Final checks of a stream against its twin: the `hash=` equals the
/// twin's, and the `cut=` equals the cut recomputed on the twin's graph.
fn check_final(twin: &DynamicSession, out: &Outcome, report: &mut Report) {
    let final_cut = out.final_cut.unwrap_or(u64::MAX);
    let mut results = partition_checks(twin.graph(), twin.partition(), PARTS, final_cut).to_vec();
    results.push((
        "serve.hash_matches_twin",
        out.final_hash.as_deref() == Some(hash_labels(twin.partition().labels()).as_str()),
    ));
    report.checks.operation(&results);
}

/// Replays `trace` into a fresh twin after the daemon streamed it, and
/// checks every `cut=` reply and the final state against it. Returns the
/// final partition's max load over ideal load.
fn check_against_twin(
    dir: &Path,
    trace: &Trace,
    out: &Outcome,
    report: &mut Report,
) -> Option<f64> {
    match open_twin(dir, by_name_with) {
        Ok(mut twin) => {
            for (batch, &cut) in trace.batches.iter().zip(&out.cuts) {
                check_twin_cut(twin_batch(&mut twin, batch, None), cut, report);
            }
            check_final(&twin, out, report);
            Some(max_over_ideal(twin.graph(), twin.partition()))
        }
        Err(e) => {
            report.checks.error("twin.open", &e);
            None
        }
    }
}

/// Wall time of streaming every trace once, robust to bursts of
/// interference: the sum over the traces of each trace's median stream
/// time across sessions.
fn streams_estimate(samples: &Samples) -> Option<f64> {
    samples.stream_s.iter().map(|s| median(s)).sum()
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let dir = &args.inputs;
    let traces = match (0..TRACES)
        .map(|i| read_trace(&dir.join(trace_name(i))))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(t) => t,
        Err(e) => return report.checks.error("trace.read", &e),
    };
    let config = ServeConfig::new(dir.join("tapes"));
    let stream = Stream {
        dir,
        tape_dir: config.tape_dir.clone(),
        snapshot_every: config.snapshot_every,
    };
    let mut daemon = match Daemon::new(config, by_name_with) {
        Ok(d) => d,
        Err(e) => return report.checks.error("daemon.new", &e.to_string()),
    };
    let mut samples = Samples::default();

    // The first session on each trace is checked against a twin replayed
    // after it; later sessions on the same trace must end identically.
    let start = std::time::Instant::now();
    let mut imbalances = Vec::new();
    let firsts: Vec<Outcome> = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let out = stream.session(
                &mut daemon,
                &format!("s{i}"),
                i,
                trace,
                &mut samples,
                None,
                report,
            );
            imbalances.extend(check_against_twin(dir, trace, &out, report));
            out
        })
        .collect();

    if args.trace {
        traced(&mut daemon, &stream, &traces, &firsts, report);
        return;
    }
    // The peak of a fixed amount of work: one session on each trace with
    // its twin replay. Later sessions repeat the same work, and how many
    // fit in the budget depends on the host's speed.
    let peak_rss = peak_rss_mb();
    let mut host = HostSpeed::default();
    host.sample();

    for i in TRACES.. {
        let spent = start.elapsed().as_secs_f64();
        let streams: Vec<f64> = samples.stream_s.iter().flatten().copied().collect();
        let per_session = mean(&streams).unwrap_or(0.0);
        if samples.commit_s.len() >= MIN_COMMITS && spent + per_session > args.budget.as_secs_f64()
        {
            break;
        }
        let t = i % TRACES;
        let out = stream.session(
            &mut daemon,
            &format!("s{i}"),
            t,
            &traces[t],
            &mut samples,
            None,
            report,
        );
        report.checks.operation(&[(
            "serve.sessions_agree",
            out.final_hash == firsts[t].final_hash && out.cuts == firsts[t].cuts,
        )]);
        host.sample();
    }

    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let (commit_ms, query_ms) = (ms(&samples.commit_s), ms(&samples.query_s));
    println!("{}", describe("open", "s", &samples.open_s));
    println!("{}", describe("commit", "ms", &commit_ms));
    println!("{}", describe("query", "ms", &query_ms));
    let final_cuts: Vec<f64> = firsts
        .iter()
        .filter_map(|o| o.final_cut)
        .map(|c| c as f64)
        .collect();
    let stream_total: f64 = samples.stream_s.iter().flatten().sum();
    println!(
        "sessions: n={} per trace={:?}",
        samples.open_s.len(),
        samples.stream_s.iter().map(Vec::len).collect::<Vec<_>>()
    );
    report.info(
        "commits_per_s",
        commit_ms.len() as f64 / stream_total,
        "1/s",
    );
    host.metric(report, "setup_s", median(&samples.open_s));
    host.metric(report, "solve_s", streams_estimate(&samples));
    report.metric_opt("total_cut", mean(&final_cuts), "count");
    report.metric_opt("imbalance", mean(&imbalances), "ratio");
    report.metric_opt("peak_rss_mb", peak_rss, "MB");
}

/// The traced run: after the checked first sessions, one pair per trace
/// of an untraced session and one with the twin interleaved batch by
/// batch; `trace.overhead_frac` compares their commit medians.
fn traced(
    daemon: &mut Daemon,
    stream: &Stream,
    traces: &[Trace],
    firsts: &[Outcome],
    report: &mut Report,
) {
    let dir = stream.dir;
    let mut plain = Samples::default();
    let mut samples = Samples::default();
    let mut t = TwinTrace::default();
    let mut consistent = true;
    let mut engine = None;
    for (i, (trace, first)) in traces.iter().zip(firsts).enumerate() {
        // The twin opens through the registry's `mlga` with its inner GA
        // timed; it must still end exactly like the daemon's sessions.
        let mut twin = match open_twin(dir, inner::resolve) {
            Ok(tw) => tw,
            Err(e) => return report.checks.error("twin.open", &e),
        };
        if engine.is_none() {
            engine = inner::take();
        }
        let untraced = stream.session(daemon, &format!("p{i}"), i, trace, &mut plain, None, report);
        let twin_pair = Some((&mut twin, &mut t));
        let out = stream.session(
            daemon,
            &format!("t{i}"),
            i,
            trace,
            &mut samples,
            twin_pair,
            report,
        );
        check_final(&twin, &out, report);
        for o in [&untraced, &out] {
            consistent &= o.final_hash == first.final_hash && o.cuts == first.cuts;
        }
    }
    let Some(engine) = engine else {
        return report.checks.error("twin.open", "the inner GA did not run");
    };
    let (speedup, reproduced) = inner::speedup_2t(&engine);
    let mut load_s = Vec::new();
    for _ in 0..MESH_LOADS {
        match timed(|| load_mesh(dir)) {
            (Ok(_), secs) => load_s.push(secs),
            (Err(e), _) => return report.checks.error("graph.load", &e),
        }
    }
    let bytes: f64 = ["mesh.metis", "mesh.xy"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map_or(0.0, |m| m.len() as f64))
        .sum();
    report.metric_opt("graph.io.load_ms", median(&load_s).map(|s| s * 1e3), "ms");
    report.metric("graph.io.bytes", bytes, "bytes");
    report.metric("core.engine.ms", engine.ms, "ms");
    report.metric(
        "core.engine.nodes",
        engine.graph.num_nodes() as f64,
        "count",
    );
    report.metric("core.engine.cut", engine.cut as f64, "count");
    report.metric("core.engine.speedup_2t", speedup, "ratio");

    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let info_p = |name: &str, v: &[f64], q: f64, unit: &str| {
        if let Some(x) = percentile(v, q) {
            report.info(name, x, unit);
        }
    };
    info_p("graph.dynamic.rebuild_ms_p50", &ms(&t.rebuild_s), 0.5, "ms");
    info_p(
        "graph.dynamic.rebuild_ms_p99",
        &ms(&t.rebuild_s),
        0.99,
        "ms",
    );
    info_p(
        "graph.dynamic.frontier_ms_p50",
        &ms(&t.frontier_s),
        0.5,
        "ms",
    );
    info_p("core.dynamic.commit_ms_p50", &ms(&t.commit_s), 0.5, "ms");
    info_p("core.dynamic.commit_ms_p99", &ms(&t.commit_s), 0.99, "ms");
    info_p(
        "core.dynamic.frontier_nodes_p50",
        &t.frontier_nodes,
        0.5,
        "count",
    );
    let mutate_us: Vec<f64> = samples.mutate_s.iter().map(|s| s * 1e6).collect();
    info_p("serve.protocol.mutate_us_p50", &mutate_us, 0.5, "us");
    info_p(
        "serve.commit_overhead_ms_p50",
        &ms(&t.overhead_s),
        0.5,
        "ms",
    );
    info_p(
        "serve.tape.snapshot_commit_ms_p50",
        &ms(&samples.snapshot_commit_s),
        0.5,
        "ms",
    );
    report.info("core.dynamic.refine_moves", t.refine_moves as f64, "count");
    report.info("core.dynamic.escalations", t.escalations as f64, "count");
    report.info(
        "core.dynamic.migrated_frac",
        t.migrated as f64 / t.old_nodes.max(1) as f64,
        "ratio",
    );
    let sessions = samples.tape_bytes.len().max(1) as f64;
    report.info(
        "serve.tape.snapshots",
        samples.snapshot_commit_s.len() as f64 / sessions,
        "count",
    );
    if let Some(b) = median(&samples.tape_bytes) {
        report.info("serve.tape.bytes", b, "bytes");
    }
    let overhead = match (
        percentile(&samples.commit_s, 0.5),
        percentile(&plain.commit_s, 0.5),
    ) {
        (Some(traced), Some(plain)) => Some(traced / plain - 1.0),
        _ => None,
    };
    report.metric_opt("trace.overhead_frac", overhead, "ratio");
    let consistent = consistent && reproduced;
    report.metric("trace.consistent", f64::from(u8::from(consistent)), "bool");
}
