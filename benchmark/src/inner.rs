//! The GA engine inside a V-cycle, timed from outside.
//!
//! [`resolve`] builds the registry's `mlga` with its inner
//! `GaPartitioner(coarse_defaults)` wrapped in a timing `Partitioner`;
//! it has the shape of a `MethodResolver`, so a `DynamicSession` can open
//! through it as the serve daemon opens through `by_name_with`. Each
//! inner solve leaves an [`InnerRecord`] behind for [`take`], with the
//! coarsest graph and seed the V-cycle handed in, so the same solve can
//! be repeated on a 1-thread pool ([`speedup_2t`]).

use crate::timed;
use gapart::partitioners::multilevel_with;
use gapart_core::{GaConfig, GaPartitioner};
use gapart_graph::multilevel::MultilevelConfig;
use gapart_graph::partitioner::{PartitionReport, Partitioner, PartitionerError};
use gapart_graph::refine::RefineScheme;
use gapart_graph::CsrGraph;
use std::sync::Mutex;

/// What the timing wrapper saw of one inner solve.
pub struct InnerRecord {
    /// Wall time of the inner solve.
    pub ms: f64,
    /// Cut the inner solve returned on the coarsest graph.
    pub cut: u64,
    /// The coarsest graph the V-cycle handed in.
    pub graph: CsrGraph,
    /// The seed it handed in.
    pub seed: u64,
    /// The part count it asked for.
    pub parts: u32,
}

static LAST: Mutex<Option<InnerRecord>> = Mutex::new(None);

/// The record of the latest inner solve, if one ran since the last call.
pub fn take() -> Option<InnerRecord> {
    LAST.lock().map_or(None, |mut last| last.take())
}

fn coarse_ga() -> GaPartitioner {
    GaPartitioner::new(GaConfig::coarse_defaults(2))
}

/// Times the wrapped coarsest-level partitioner.
struct TimedInner(GaPartitioner);

impl Partitioner for TimedInner {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn partition(
        &self,
        graph: &CsrGraph,
        num_parts: u32,
        seed: u64,
    ) -> Result<PartitionReport, PartitionerError> {
        let (report, secs) = timed(|| self.0.partition(graph, num_parts, seed));
        let report = report?;
        if let Ok(mut last) = LAST.lock() {
            *last = Some(InnerRecord {
                ms: secs * 1e3,
                cut: report.metrics.total_cut,
                graph: graph.clone(),
                seed,
                parts: num_parts,
            });
        }
        Ok(report)
    }
}

/// `mlga` as the registry builds it for `scheme`, with the inner GA
/// timed; `None` for any other method name.
pub fn resolve(name: &str, scheme: RefineScheme) -> Option<Box<dyn Partitioner>> {
    (name == "mlga").then(|| {
        let config = MultilevelConfig {
            refine_scheme: scheme,
            ..MultilevelConfig::default()
        };
        multilevel_with("mlga", Box::new(TimedInner(coarse_ga())), config)
    })
}

/// Repeats the recorded inner solve on the current pool and on a
/// 1-thread pool, back to back. Returns one-thread time over
/// current-pool time, and whether both solves reproduced the recorded
/// cut.
pub fn speedup_2t(record: &InnerRecord) -> (f64, bool) {
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim cannot fail to build a pool");
    let solve = || timed(|| coarse_ga().partition(&record.graph, record.parts, record.seed));
    let (two, two_s) = solve();
    let (one, one_s) = one_thread.install(solve);
    let same = |r: Result<PartitionReport, PartitionerError>| {
        r.is_ok_and(|r| r.metrics.total_cut == record.cut)
    };
    (one_s / two_s, same(two) && same(one))
}
