//! Shared k-way greedy boundary refinement.
//!
//! A light Kernighan–Lin-flavoured delta-gain pass used by the multilevel
//! V-cycle ([`crate::multilevel`]) after each projection: repeatedly move
//! the boundary vertex with the best gain (cut-weight reduction) to a
//! neighbouring part, provided the move does not push load imbalance past
//! a tolerance. It maintains the same per-part loads that
//! [`crate::partition::PartitionMetrics`] reports and evaluates each
//! candidate move in `O(deg(v))` from the vertex's connectivity to the
//! parts it touches — no full re-tally per move.
//!
//! This is the classical cut/balance heuristic every multilevel
//! partitioner uses, distinct from the GA's fitness-driven hill climbing
//! in `gapart-core` (which optimizes the paper's composite objective, not
//! the cut under a hard balance cap). It works for any number of parts:
//! a vertex may move to whichever adjacent part it is most connected to.
//!
//! Two entry points share one sweep core: [`refine_kway`] visits every
//! vertex, and [`refine_kway_local`] visits only an explicit region —
//! the dirty frontier of a streaming update (see
//! [`crate::dynamic`]), where a full sweep would waste `O(V + E)` work
//! on untouched parts of the graph.
//!
//! # Two-phase parallel sweeps
//!
//! Each sweep runs in two phases. The **gain scan** walks every candidate
//! in parallel against a frozen snapshot of the labels and keeps the ones
//! with a strictly cut-improving move — the `O(V + E)` bulk of the work,
//! chunked across workers and reduced in index order. The **apply phase**
//! then revisits only those (typically few, boundary) winners
//! sequentially in ascending id order, re-deriving each move against the
//! live partition so balance, the never-empty-a-part rule, and the
//! never-worsen-the-cut guarantee hold exactly as they would for a
//! sequential sweep.
//!
//! Determinism: the scan is a pure per-vertex function of the frozen
//! snapshot collected in index order, and the apply phase is sequential,
//! so a refinement run is a pure function of
//! `(graph, partition, options)` (plus the region for the local variant)
//! — bit-identical for any worker-pool size.

use crate::csr::CsrGraph;
use crate::fm::{FmRefiner, ParallelFm};
use crate::partition::Partition;
use rayon::prelude::*;

/// Candidates per gain-scan chunk: vertices are cheap to score, so give
/// each worker invocation a sizeable slice and let small regions run
/// inline rather than paying thread-spawn overhead.
const SCAN_CHUNK: usize = 2048;

/// Which refinement engine a caller (the multilevel V-cycle, the
/// streaming session, the CLI's `--refine` flag) runs after each
/// projection or batch. [`RefinerSet::get`] maps a scheme to its warm
/// [`Refiner`] workspace; the V-cycle and the streaming session each own
/// one [`RefinerSet`], so engine buffers persist across levels, calls
/// and batches.
///
/// Every scheme shares [`RefineOptions`], never increases the cut,
/// respects the balance cap and the never-empty-a-part rule, reports
/// exact gains, and is bit-identical for any worker-pool size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefineScheme {
    /// The frozen-gain greedy sweep in this module ([`refine_kway`]):
    /// parallel scan of every vertex, sequential apply of the strictly
    /// improving winners. Cannot chain moves through locally-worse
    /// states.
    Sweep,
    /// The boundary-driven Fiduccia–Mattheyses engine
    /// ([`crate::fm`]): gain buckets over the cut boundary only,
    /// hill-climbing move chains with rollback to the best prefix,
    /// seeded tie-breaking. The default — strictly stronger on the
    /// V-cycle hot path and cheaper per pass on large graphs.
    #[default]
    BoundaryFm,
    /// The parallel boundary FM ([`crate::fm::ParallelFm`]): each pass
    /// applies conflict-free batches of edge-disjoint moves selected by
    /// seeded part-pair-colored keys — frozen-label gain evaluation in
    /// parallel, exact sequential apply in index order. Same invariants
    /// as [`RefineScheme::BoundaryFm`]; scales the last sequential
    /// V-cycle stage with cores. Rounds after a pass's first reuse an
    /// incrementally repaired evaluation table (`O(touched)` per round
    /// instead of `O(boundary)`).
    ParallelFm,
}

impl RefineScheme {
    /// CLI name of the scheme (`sweep` / `fm` / `pfm`).
    pub fn name(self) -> &'static str {
        match self {
            RefineScheme::Sweep => "sweep",
            RefineScheme::BoundaryFm => "fm",
            RefineScheme::ParallelFm => "pfm",
        }
    }

    /// Resolves a CLI name (`sweep` / `fm` / `pfm`); `None` for unknown
    /// names.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "sweep" => Some(RefineScheme::Sweep),
            "fm" => Some(RefineScheme::BoundaryFm),
            "pfm" => Some(RefineScheme::ParallelFm),
            _ => None,
        }
    }
}

/// A k-way refinement engine: one workspace that refines a partition in
/// place and may keep its buffers warm across calls.
///
/// Implementors supply [`Refiner::run`]; callers use the provided entry
/// points, which check their node lists against the graph once for every
/// engine. All entry points share one contract: the cut never grows, the
/// reported gain is the exact cut reduction, a move keeps its destination
/// within `(1 + balance_slack) × avg` load, and no move empties its
/// source part.
pub trait Refiner {
    /// The engine itself. `region`, when given, is the sorted,
    /// duplicate-free, in-range set of vertices allowed to move (loads
    /// stay global); otherwise every vertex may move. `hint`, when given,
    /// is an in-range superset of the cut boundary that the first pass
    /// scans instead of the whole graph. `primed` carries the partition's
    /// exact per-part loads and populations so the engine skips its own
    /// tally. `hint` and `primed` only save work: an engine may ignore
    /// them, and none may change its result because of them. `seed`
    /// drives seeded tie-breaking (the sweep ignores it).
    ///
    /// # Panics
    ///
    /// Panics if `partition` covers a different number of nodes than
    /// `graph`.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        seed: u64,
        region: Option<&[u32]>,
        hint: Option<&[u32]>,
        primed: Option<(Vec<u64>, Vec<usize>)>,
    ) -> RefineStats;

    /// A superset of the cut boundary the last call on this workspace
    /// left behind (empty when the engine does not track one). Valid for
    /// the graph/partition of that call until the next one.
    ///
    /// The multilevel V-cycle masks this instead of re-scanning the
    /// coarse graph before each projection: supersets compose, so hints
    /// built from it stay supersets of the fine boundary.
    fn last_boundary_superset(&self) -> &[u32];

    /// Refinement over the whole graph: every vertex is a candidate.
    ///
    /// # Panics
    ///
    /// Panics if `partition` covers a different number of nodes than
    /// `graph`.
    fn refine(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        seed: u64,
    ) -> RefineStats {
        self.run(graph, partition, opts, seed, None, None, None)
    }

    /// The multilevel fast path: [`Refiner::refine`] with a boundary
    /// `hint` (every vertex on the cut boundary, possibly more, duplicates
    /// tolerated) and the partition's per-part `loads` and `counts`.
    /// [`crate::coarsen::Coarsening::project_for_fm`] produces all three
    /// in the projection pass itself, so an uncoarsening level runs no
    /// boundary rediscovery and no re-tally. Moves are not restricted to
    /// the hint, and the result is bit-identical to [`Refiner::refine`].
    /// The caller owns the superset argument and the exactness of the
    /// tallies (debug-asserted by the FM engines).
    ///
    /// # Panics
    ///
    /// Panics if `partition` covers a different number of nodes than
    /// `graph`, or if `hint` contains a node id `≥ graph.num_nodes()`.
    #[allow(clippy::too_many_arguments)]
    fn refine_primed(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        seed: u64,
        hint: &[u32],
        loads: Vec<u64>,
        counts: Vec<usize>,
    ) -> RefineStats {
        if let Some(&max) = hint.iter().max() {
            assert!(
                (max as usize) < graph.num_nodes(),
                "hint node {max} out of range"
            );
        }
        self.run(
            graph,
            partition,
            opts,
            seed,
            None,
            Some(hint),
            Some((loads, counts)),
        )
    }

    /// Localized refinement: only vertices in `region` (deduplicated;
    /// order irrelevant) may move. Loads and part populations are still
    /// global, so the balance and never-empty-a-part rules hold for the
    /// whole partition. This is the streaming workhorse: after a
    /// mutation batch only the dirty frontier is re-examined.
    ///
    /// # Panics
    ///
    /// Panics if `partition` covers a different number of nodes than
    /// `graph`, or if `region` contains a node id `≥ graph.num_nodes()`.
    fn refine_local(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        seed: u64,
        region: &[u32],
    ) -> RefineStats {
        let mut nodes: Vec<u32> = region.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        if let Some(&last) = nodes.last() {
            assert!(
                (last as usize) < graph.num_nodes(),
                "region node {last} out of range"
            );
        }
        self.run(graph, partition, opts, seed, Some(&nodes), None, None)
    }
}

/// The frozen-gain sweep as a [`Refiner`]: stateless, seed-free, and
/// blind to boundary hints and primed tallies (it scans every candidate
/// and tallies loads itself), so it reports no boundary superset.
#[derive(Default)]
struct SweepRefiner;

impl Refiner for SweepRefiner {
    fn run(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        _seed: u64,
        region: Option<&[u32]>,
        _hint: Option<&[u32]>,
        _primed: Option<(Vec<u64>, Vec<usize>)>,
    ) -> RefineStats {
        sweep_region(graph, partition, opts, region)
    }

    fn last_boundary_superset(&self) -> &[u32] {
        &[]
    }
}

/// One warm workspace per [`RefineScheme`]. The multilevel V-cycle's
/// [`crate::coarsen::LevelArena`] and each streaming session own one, so
/// engine buffers are sized once and reused across levels, calls and
/// batches.
#[derive(Default)]
pub struct RefinerSet {
    sweep: SweepRefiner,
    fm: FmRefiner,
    pfm: ParallelFm,
}

impl RefinerSet {
    /// The engine `scheme` names.
    pub fn get(&mut self, scheme: RefineScheme) -> &mut dyn Refiner {
        match scheme {
            RefineScheme::Sweep => &mut self.sweep,
            RefineScheme::BoundaryFm => &mut self.fm,
            RefineScheme::ParallelFm => &mut self.pfm,
        }
    }
}

/// Knobs of a [`refine_kway`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// Allowed deviation of any part's load from the ideal average, as a
    /// fraction (e.g. `0.05` allows 5% overweight parts). A move is
    /// admissible only if the destination part stays within
    /// `(1 + balance_slack) × avg` afterwards.
    pub balance_slack: f64,
    /// Maximum sweeps over the vertices; refinement also stops as soon as
    /// a full sweep makes no move.
    pub max_passes: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            balance_slack: 0.05,
            max_passes: 4,
        }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineStats {
    /// Number of vertices moved.
    pub moves: usize,
    /// Total cut-weight reduction achieved.
    pub gain: u64,
}

/// Refines `partition` in place, greedily and k-way: each sweep scans
/// every vertex (in parallel, reduced in id order) and applies the best
/// strictly-improving, balance-respecting move to a part the vertex
/// already touches. A move is never allowed to empty its source part, so
/// no part ever ends a refinement without nodes — but a zero-weight
/// vertex in a populated part is free to move, since it cannot drain any
/// load.
///
/// Never increases the cut; per-part loads are tracked incrementally so a
/// sweep costs `O(V + E)` regardless of how many moves it makes, and the
/// result is bit-identical for any worker-pool size.
///
/// # Panics
///
/// Panics if `partition` covers a different number of nodes than `graph`.
pub fn refine_kway(
    graph: &CsrGraph,
    partition: &mut Partition,
    opts: &RefineOptions,
) -> RefineStats {
    sweep_region(graph, partition, opts, None)
}

/// Localized variant of [`refine_kway`]: sweeps only the vertices in
/// `region` (deduplicated and visited in ascending id order regardless of
/// the order given). Loads and part populations are still tracked
/// globally, so balance and the never-empty-a-part rule hold for the
/// whole partition — only the set of candidate moves shrinks.
///
/// This is the workhorse of the streaming subsystem: after a mutation
/// batch, only the dirty frontier needs re-examination, which turns an
/// `O(V + E)` sweep into `O(|region| + edges(region))` plus one `O(V)`
/// load tally.
///
/// # Panics
///
/// Panics if `partition` covers a different number of nodes than `graph`,
/// or if `region` contains a node id `≥ graph.num_nodes()`.
pub fn refine_kway_local(
    graph: &CsrGraph,
    partition: &mut Partition,
    opts: &RefineOptions,
    region: &[u32],
) -> RefineStats {
    SweepRefiner.refine_local(graph, partition, opts, 0, region)
}

/// Shared sweep core: `region = None` means every vertex, otherwise a
/// sorted, duplicate-free candidate list.
fn sweep_region(
    graph: &CsrGraph,
    partition: &mut Partition,
    opts: &RefineOptions,
    region: Option<&[u32]>,
) -> RefineStats {
    assert_eq!(graph.num_nodes(), partition.num_nodes());
    let n_parts = partition.num_parts() as usize;
    let avg = graph.total_node_weight() as f64 / n_parts as f64;
    let max_load = (avg * (1.0 + opts.balance_slack)).ceil() as u64;

    let mut loads = vec![0u64; n_parts];
    // Node counts per part back the only-forbid-emptying-the-part guard:
    // tracking load alone would pin zero-weight vertices forever.
    let mut counts = vec![0usize; n_parts];
    for v in 0..graph.num_nodes() as u32 {
        loads[partition.part(v) as usize] += graph.node_weight(v) as u64;
        counts[partition.part(v) as usize] += 1;
    }

    // The candidate list the gain scan chunks over; for a full sweep
    // that is every vertex, materialized once for the whole run.
    let all_nodes: Vec<u32>;
    let candidates: &[u32] = match region {
        Some(nodes) => nodes,
        None => {
            all_nodes = (0..graph.num_nodes() as u32).collect();
            &all_nodes
        }
    };

    let mut stats = RefineStats { moves: 0, gain: 0 };
    // Connectivity scratch for the apply phase: (part, edge weight into
    // that part). Boundary vertices touch very few parts, so a flat scan
    // beats a per-part array of size k.
    let mut conn: Vec<(u32, u64)> = Vec::with_capacity(8);
    for _ in 0..opts.max_passes {
        // Phase 1 — parallel gain scan. Against the frozen labels, keep
        // every candidate with a strictly cut-improving move (balance is
        // left to the apply phase: loads shift as moves land, so only
        // the live state can judge it). Chunked collection preserves
        // index order, making the winner list thread-count-independent.
        let winners: Vec<u32> = candidates
            .par_chunks(SCAN_CHUNK)
            .map(|chunk| {
                let mut local: Vec<u32> = Vec::new();
                let mut cw: Vec<(u32, u64)> = Vec::with_capacity(8);
                for &v in chunk {
                    let pv = partition.part(v);
                    cw.clear();
                    let mut internal = 0u64;
                    for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                        let pu = partition.part(u);
                        if pu == pv {
                            internal += w as u64;
                        } else {
                            match cw.iter_mut().find(|(p, _)| *p == pu) {
                                Some((_, c)) => *c += w as u64,
                                None => cw.push((pu, w as u64)),
                            }
                        }
                    }
                    if cw.iter().any(|&(_, c)| c > internal) {
                        local.push(v);
                    }
                }
                local
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();

        // Phase 2 — sequential apply in ascending id order. Each winner
        // is re-derived against the live partition (earlier applies may
        // have moved its neighbours), so every guarantee of the old
        // fully-sequential sweep holds move by move.
        let mut moved_this_pass = false;
        for v in winners {
            let pv = partition.part(v);
            conn.clear();
            let mut internal = 0u64;
            for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                let pu = partition.part(u);
                if pu == pv {
                    internal += w as u64;
                } else {
                    match conn.iter_mut().find(|(p, _)| *p == pu) {
                        Some((_, c)) => *c += w as u64,
                        None => conn.push((pu, w as u64)),
                    }
                }
            }
            // A move may never empty its source part — an empty part can
            // never be repopulated by cut-improving moves. Only the last
            // remaining vertex is pinned: a zero-weight vertex in a
            // populated part moves freely (it cannot drain any load).
            if counts[pv as usize] <= 1 {
                continue;
            }
            let wv = graph.node_weight(v) as u64;
            // Best strictly-improving, balance-respecting move.
            let mut best: Option<(u32, u64)> = None;
            for &(p, c) in &conn {
                if c > internal
                    && loads[p as usize] + wv <= max_load
                    && best.is_none_or(|(_, bc)| c > bc)
                {
                    best = Some((p, c));
                }
            }
            if let Some((p, c)) = best {
                loads[pv as usize] -= wv;
                loads[p as usize] += wv;
                counts[pv as usize] -= 1;
                counts[p as usize] += 1;
                partition.set(v, p);
                stats.moves += 1;
                stats.gain += c - internal;
                moved_this_pass = true;
            }
        }
        if !moved_this_pass {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generators::paper_graph;
    use crate::partition::{cut_size, PartitionMetrics};

    fn opts(balance_slack: f64, max_passes: usize) -> RefineOptions {
        RefineOptions {
            balance_slack,
            max_passes,
        }
    }

    #[test]
    fn fixes_an_obviously_misplaced_vertex() {
        // Path 0-1-2-3 with node 0 on the wrong side.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut p = Partition::new(vec![1, 0, 1, 1], 2).unwrap();
        let before = cut_size(&g, &p);
        let stats = refine_kway(&g, &mut p, &opts(0.6, 4));
        let after = cut_size(&g, &p);
        assert!(after < before, "no improvement: {before} -> {after}");
        assert_eq!(before - after, stats.gain);
        // A partition with no strictly-improving move stays untouched.
        let mut fixed = Partition::new(vec![0, 1, 1, 1], 2).unwrap();
        let s = refine_kway(&g, &mut fixed, &opts(0.0, 4));
        assert_eq!(s.moves, 0);
    }

    #[test]
    fn never_increases_cut() {
        let g = paper_graph(139);
        for seed in 0..3u64 {
            let mut p = random_partition(139, 4, seed);
            let before = cut_size(&g, &p);
            refine_kway(&g, &mut p, &opts(0.1, 8));
            let after = cut_size(&g, &p);
            assert!(after <= before, "cut increased {before} -> {after}");
        }
    }

    #[test]
    fn respects_balance_slack() {
        let g = paper_graph(144);
        let mut p = random_partition(144, 4, 9);
        refine_kway(&g, &mut p, &opts(0.05, 8));
        let m = PartitionMetrics::compute(&g, &p);
        let cap = (m.avg_load * 1.05).ceil() as u64;
        for &l in &m.part_loads {
            assert!(l <= cap, "load {l} exceeds cap {cap}");
        }
    }

    #[test]
    fn gain_matches_cut_delta_kway() {
        let g = paper_graph(98);
        let mut p = random_partition(98, 8, 4);
        let before = cut_size(&g, &p);
        let stats = refine_kway(&g, &mut p, &opts(0.2, 10));
        let after = cut_size(&g, &p);
        assert_eq!(before - after, stats.gain);
    }

    #[test]
    fn deterministic() {
        let g = paper_graph(167);
        let mut a = random_partition(167, 6, 2);
        let mut b = a.clone();
        let sa = refine_kway(&g, &mut a, &opts(0.1, 6));
        let sb = refine_kway(&g, &mut b, &opts(0.1, 6));
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn never_drains_a_part_to_zero() {
        // Regression: triangle with node 0 alone in part 0. Moving it to
        // part 1 improves the cut (2 -> 0) and respects the destination
        // cap at 100% slack, so the old code emptied part 0.
        let g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut p = Partition::new(vec![0, 1, 1], 2).unwrap();
        let stats = refine_kway(&g, &mut p, &opts(1.0, 4));
        assert_eq!(stats.moves, 0, "move emptied part 0");
        assert!(
            p.part_sizes().iter().all(|&s| s > 0),
            "{:?}",
            p.part_sizes()
        );
        // The guard is per-part, not global: a two-node part may still
        // shed one node.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]).unwrap();
        let mut p = Partition::new(vec![1, 0, 1, 1], 2).unwrap();
        refine_kway(&g, &mut p, &opts(1.0, 4));
        assert!(
            p.part_sizes().iter().all(|&s| s > 0),
            "{:?}",
            p.part_sizes()
        );
    }

    #[test]
    fn misplaced_zero_weight_vertex_gets_moved() {
        // Regression: the old drain guard (`loads[pv] <= wv`) pinned
        // every zero-weight vertex (`0 <= 0`), even though moving one can
        // only improve the cut and can never drain load. Zero weights are
        // unreachable through the builder, so construct the CSR directly,
        // as the streaming layers could.
        // Parts: {0, 1, 5} and {2, 3, 4}. The weightless vertex 5 has
        // both its edges into part 1; every weighted vertex is already
        // where it belongs, so the only improving move is 5 → part 1.
        let mut g = from_edges(6, &[(0, 1), (2, 3), (3, 4), (2, 4), (5, 2), (5, 3)]).unwrap();
        g.vweights = vec![2, 2, 2, 2, 2, 0];
        let mut p = Partition::new(vec![0, 0, 1, 1, 1, 0], 2).unwrap();
        let before = cut_size(&g, &p);
        let stats = refine_kway(&g, &mut p, &opts(0.2, 4));
        assert_eq!(p.part(5), 1, "zero-weight vertex stayed pinned");
        assert!(stats.moves >= 1);
        assert!(cut_size(&g, &p) < before);
        // Loads are untouched by the zero-weight move; no part is empty.
        assert!(p.part_sizes().iter().all(|&s| s > 0));

        // The guard still pins the *last* vertex of a part, even a
        // zero-weight one: emptying a part is never allowed.
        let mut g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        g.vweights = vec![0, 1, 1];
        let mut p = Partition::new(vec![0, 1, 1], 2).unwrap();
        let stats = refine_kway(&g, &mut p, &opts(1.0, 4));
        assert_eq!(stats.moves, 0, "sole occupant moved out of part 0");
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let g = paper_graph(611);
        for seed in 0..2u64 {
            let base = random_partition(611, 5, seed);
            let mut reference: Option<(Partition, RefineStats)> = None;
            for threads in [1usize, 2, 4, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut p = base.clone();
                let stats = pool.install(|| refine_kway(&g, &mut p, &opts(0.1, 6)));
                match &reference {
                    None => reference = Some((p, stats)),
                    Some((rp, rs)) => {
                        assert_eq!(&p, rp, "{threads}-thread refine diverged");
                        assert_eq!(&stats, rs);
                    }
                }
            }
        }
    }

    #[test]
    fn local_region_matches_full_sweep_when_region_is_everything() {
        let g = paper_graph(139);
        let all: Vec<u32> = (0..139u32).collect();
        for seed in 0..3u64 {
            let mut full = random_partition(139, 4, seed);
            let mut local = full.clone();
            let sf = refine_kway(&g, &mut full, &opts(0.1, 8));
            let sl = refine_kway_local(&g, &mut local, &opts(0.1, 8), &all);
            assert_eq!(full, local);
            assert_eq!(sf, sl);
        }
    }

    #[test]
    fn local_region_only_moves_region_nodes() {
        let g = paper_graph(144);
        let mut p = random_partition(144, 4, 5);
        let before = p.clone();
        let region: Vec<u32> = (40..80u32).collect();
        let stats = refine_kway_local(&g, &mut p, &opts(0.2, 6), &region);
        for v in 0..144u32 {
            if !region.contains(&v) {
                assert_eq!(p.part(v), before.part(v), "non-region node {v} moved");
            }
        }
        // The restricted sweep still finds *some* improving moves on a
        // random partition, and never increases the cut.
        assert!(stats.moves > 0);
        assert!(cut_size(&g, &p) <= cut_size(&g, &before));
    }

    #[test]
    fn local_region_is_order_insensitive_and_dedups() {
        let g = paper_graph(98);
        let mut a = random_partition(98, 4, 8);
        let mut b = a.clone();
        let fwd: Vec<u32> = (10..50u32).collect();
        let mut rev: Vec<u32> = fwd.iter().rev().copied().collect();
        rev.extend_from_slice(&fwd); // duplicates too
        let sa = refine_kway_local(&g, &mut a, &opts(0.2, 6), &fwd);
        let sb = refine_kway_local(&g, &mut b, &opts(0.2, 6), &rev);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn empty_region_is_a_no_op() {
        let g = paper_graph(78);
        let mut p = random_partition(78, 4, 1);
        let before = p.clone();
        let stats = refine_kway_local(&g, &mut p, &opts(0.1, 4), &[]);
        assert_eq!(stats, RefineStats { moves: 0, gain: 0 });
        assert_eq!(p, before);
    }

    fn random_partition(n: usize, parts: u32, seed: u64) -> Partition {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Partition::new((0..n).map(|_| rng.gen_range(0..parts)).collect(), parts).unwrap()
    }
}
