//! The repository benchmark: three workloads over the public gapart API.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <vcycle-grid-1m|paper-ga|serve-mesh-growth> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The process generates the workload's
//! input files from `--seed` under `.bench_work/`, then starts itself
//! again on those files as the measured process (so its peak RSS is the
//! workload's own, not the generator's), relays its result line and
//! deletes the files. The last line of standard output is the JSON
//! result; with `--trace 0` it carries the end-to-end metrics, with
//! `--trace 1` the per-layer metrics. See `NOTES.md` for what each
//! metric measures and how steady it is.

mod host;
mod inner;
mod inputs;
mod paper;
mod report;
mod serve;
mod stats;
mod vcycle;

use gapart_graph::io::from_metis;
use gapart_graph::CsrGraph;
use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Worker threads of the pool every workload runs in.
pub const POOL_THREADS: usize = 2;
/// Parts every workload partitions into.
pub const PARTS: u32 = 8;

/// End-to-end metrics: every workload's untraced run reports each of
/// them, as listed in `BENCHMARK.json`.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "solve_s",
    "total_cut",
    "imbalance",
    "peak_rss_mb",
];

/// Per-layer metrics: every workload's traced run reports each of them,
/// as listed in `BENCHMARK.json`. Layers that only some workloads
/// exercise are printed as `layer` lines instead (`Report::info`).
pub const PER_LAYER: [&str; 8] = [
    "graph.io.load_ms",
    "graph.io.bytes",
    "core.engine.ms",
    "core.engine.nodes",
    "core.engine.cut",
    "core.engine.speedup_2t",
    "trace.overhead_frac",
    "trace.consistent",
];

/// Reads and parses a METIS file the way the CLI does.
pub fn load_graph(path: &Path) -> Result<CsrGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_metis(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = std::hint::black_box(f());
    (r, start.elapsed().as_secs_f64())
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot `mlga` on the 1000×1000 grid.
    VcycleGrid1m,
    /// The paper's §4 protocol with the registry `ga`.
    PaperGa,
    /// The serve daemon on a growing mesh.
    ServeMeshGrowth,
}

impl Workload {
    fn by_name(name: &str) -> Option<Workload> {
        match name {
            "vcycle-grid-1m" => Some(Workload::VcycleGrid1m),
            "paper-ga" => Some(Workload::PaperGa),
            "serve-mesh-growth" => Some(Workload::ServeMeshGrowth),
            _ => None,
        }
    }
}

/// What a measured run needs to know.
pub struct RunArgs {
    /// Input directory the generator filled.
    pub inputs: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measuring budget.
    pub budget: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    inputs: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inputs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--inputs" => inputs = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        inputs,
    })
}

/// The measured process: runs the workload on the generated files and
/// prints the result.
fn measure(workload: Workload, run: &RunArgs) -> ExitCode {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(POOL_THREADS)
        .build()
        .expect("the rayon shim cannot fail to build a pool");
    let mut report = Report::new(if run.trace { &PER_LAYER } else { &END_TO_END });
    pool.install(|| match workload {
        Workload::VcycleGrid1m => vcycle::run(run, &mut report),
        Workload::PaperGa => paper::run(run, &mut report),
        Workload::ServeMeshGrowth => serve::run(run, &mut report),
    });
    report.print();
    ExitCode::SUCCESS
}

/// The entry process: generate inputs, run the measured process on them,
/// clean up.
fn orchestrate(args: &Args, argv: &[String]) -> ExitCode {
    let work_root = Path::new(".bench_work");
    let dir = work_root.join(format!("{}-{}", args.seed, std::process::id()));
    let files = inputs::inputs(args.workload, args.seed);
    if let Err(e) = inputs::write(&dir, &files) {
        eprintln!("cannot write inputs to {}: {e}", dir.display());
        let _ = std::fs::remove_dir_all(&dir);
        return ExitCode::FAILURE;
    }
    drop(files);
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(argv)
            .arg("--inputs")
            .arg(&dir)
            .status()
    });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(work_root); // only if no other run uses it
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => {
            eprintln!("measured process failed: {s}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("cannot start the measured process: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <vcycle-grid-1m|paper-ga|serve-mesh-growth> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match &args.inputs {
        None => orchestrate(&args, &argv),
        Some(dir) => measure(
            args.workload,
            &RunArgs {
                inputs: dir.clone(),
                seed: args.seed,
                budget: Duration::from_secs(args.seconds),
                trace: args.trace,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The `"name"` values of one metric list of `BENCHMARK.json`.
    fn manifest_names(manifest: &str, list: &str) -> Vec<String> {
        let start = manifest
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("the list is closed")];
        body.split("\"name\"")
            .skip(1)
            .map(|item| item.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn the_reported_metrics_are_the_manifest_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(manifest_names(&manifest, "end_to_end"), END_TO_END);
        assert_eq!(manifest_names(&manifest, "per_layer"), PER_LAYER);
    }
}
