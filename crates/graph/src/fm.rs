//! Boundary-driven k-way Fiduccia–Mattheyses refinement with gain
//! buckets.
//!
//! This is the heavy-duty counterpart to the frozen-gain sweeps in
//! [`crate::refine`]: instead of revisiting every vertex per pass, it
//! keeps only the **cut boundary** in an O(1) bucket priority structure
//! and chains moves — including into locally-worse states — rolling back
//! to the best prefix seen when a pass ends. This is the standard move of
//! multilevel partitioners (METIS-style refinement) and the quality lever
//! of the V-cycle: the coarsest-level solution is cheap, projection is
//! exact, so the final cut is decided by how well each level refines.
//!
//! # Structure
//!
//! * **Gain buckets** — a doubly-linked list per gain value over the
//!   range `[-Δ, +Δ]` (`Δ` = the largest |gain| in the pass's initial
//!   boundary, clamped; gains drifting out of range mid-pass share the
//!   end buckets). Insert, remove, and reposition are O(1); pop-max
//!   amortizes the descending scan over the range plus the insertions.
//! * **Per-vertex degree caches** — each boundary vertex caches its
//!   external connectivity (`ed`, the weight into other parts) and its
//!   best-move gain (connectivity to the best adjacent part minus the
//!   internal degree). A vertex is *boundary* iff `ed > 0`; only
//!   boundary vertices live in the buckets, so a pass costs
//!   `O(boundary · deg)`, not `O(V + E)`.
//! * **Hill-climbing rollback** — a pass keeps popping the best-gain
//!   vertex and applying its move even when the gain is negative
//!   (bounded by a stall limit), logging every move. At pass end the
//!   partition rolls back to the shortest prefix that achieved the best
//!   cut seen, so a pass **never worsens the cut** — it merely explores
//!   past ridges a greedy sweep cannot cross. Each vertex moves at most
//!   once per pass (the classic FM lock).
//! * **Balance** — a move must keep the destination within
//!   `(1 + balance_slack) × avg` load and may never empty its source
//!   part (same contract as [`crate::refine::refine_kway`], including
//!   the zero-weight-vertex freedom).
//!
//! # Determinism
//!
//! The engine is strictly sequential — a pure function of
//! `(graph, partition, options, seed)` — so it is bit-identical for any
//! worker-pool size by construction (pinned alongside the parallel
//! pipeline in `tests/parallel_contract.rs`). Ties between equal-gain
//! vertices are broken by a seeded SplitMix64 key (the same mixer as the
//! PR 4 handshake matcher), so tie-breaking is reproducible yet free of
//! id-order bias.
//!
//! # Reuse
//!
//! [`FmRefiner`] owns every buffer the engine needs and recycles them
//! across calls; the streaming layer keeps one per session so a batch's
//! dirty-frontier refinement allocates nothing beyond first-use growth
//! (see `gapart_core::dynamic::DynamicSession`). Both engines in this
//! module implement [`Refiner`], whose provided methods are their entry
//! points. One-shot callers can use the [`refine_fm`] /
//! [`refine_fm_local`] conveniences.
//!
//! # Parallel FM
//!
//! [`ParallelFm`] is the deterministic parallel counterpart
//! (`RefineScheme::ParallelFm`, CLI `--refine pfm`): each pass is a
//! sequence of *rounds* that evaluate every unlocked boundary candidate
//! in parallel against frozen labels, select a conflict-free batch from
//! the round's top gain class (no two batch members share an edge —
//! conflicts resolve by a seeded part-pair-colored key), and apply the
//! batch sequentially in ascending vertex order with live
//! re-derivation — the same exact gain
//! accounting, balance cap, never-drain-a-part, and
//! rollback-to-best-prefix semantics as the sequential engine, and
//! bit-identical labels for any worker-pool size by construction. See
//! the `ParallelFm` docs for the determinism argument.

use crate::coarsen::splitmix64;
use crate::csr::CsrGraph;
use crate::partition::Partition;
use crate::refine::{RefineOptions, RefineStats, Refiner};
use rayon::prelude::*;

/// Sentinel for "no node" in the bucket links.
const NONE: u32 = u32::MAX;

/// A pass aborts after this many consecutive non-progressing moves: long
/// plateaus cost `O(deg²)` per move and rarely pay past this depth
/// (measured on the 320×320 grid bench: 64 keeps ~85% of the cut win of
/// an unbounded tail at a fraction of the move churn). A move *counts*
/// toward the budget only when it neither reaches a new best prefix nor
/// has strictly positive gain — a positive chain climbing back out of a
/// dip is progress and resets the counter, so the budget bounds genuine
/// stalls, not recovery length. The rollback makes the abort safe — the
/// committed prefix is unaffected.
const STALL_LIMIT: usize = 64;

/// Gains outside `±MAX_HALF_RANGE` share the end buckets (ordering among
/// them falls back to insertion order). Keeps the bucket array bounded on
/// graphs with huge weighted degrees.
const MAX_HALF_RANGE: i64 = 1 << 15;

/// Passes stop once a pass gains less than `observed cut / this` — the
/// diminishing-returns cutoff (a pass improving the cut by under ~1.5%
/// is churn, not progress; measured on the 320×320 grid bench this
/// keeps ~90% of the quality win of running every pass at the sweep
/// refiner's wall time). `RefineOptions::max_passes` remains the hard
/// cap.
const CONVERGENCE_DENOM: u64 = 64;

/// Vertex state during a pass.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// Not in the buckets (internal vertex, or not a candidate).
    Out,
    /// In the buckets, eligible to move.
    Queued,
    /// Moved (or skipped) this pass; ineligible until the next pass.
    Locked,
}

/// One applied move, kept for the rollback.
struct MoveRec {
    node: u32,
    from: u32,
    /// Exact cut reduction of the move (negative = the cut grew).
    gain: i64,
}

/// Reusable boundary-FM engine: owns the gain buckets, degree caches,
/// and scratch vectors, growing them on demand and recycling them across
/// calls. See the [module docs](self) for the algorithm.
pub struct FmRefiner {
    /// Bucket list links, indexed by node.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Cached best-move gain of each queued vertex (its priority).
    gain: Vec<i64>,
    /// Seeded tie key, computed per call.
    tie: Vec<u64>,
    state: Vec<State>,
    /// Bucket heads, indexed by `gain + half_range`.
    heads: Vec<u32>,
    /// Region membership stamps (`stamp[v] == generation` ⇔ in region).
    stamp: Vec<u64>,
    generation: u64,
    /// Dedup stamps for [`Self::active_list`] construction.
    active: Vec<u64>,
    active_gen: u64,
    /// Candidates of the next pass: only the previous pass's boundary
    /// and the neighbourhood of its moves can be on the new boundary,
    /// so later passes scan this list instead of the whole graph.
    active_list: Vec<u32>,
    /// Nodes whose `state` was touched this pass (for O(touched) reset).
    touched: Vec<u32>,
    /// Nodes a pass moved (committed or rolled back), for the
    /// next-pass active set.
    moved: Vec<u32>,
    /// Fill-scan buffer (the pass's initial boundary), recycled.
    fill: Vec<u32>,
    /// Connectivity scratch: `(part, edge weight into it)`.
    conn: Vec<(u32, u64)>,
    loads: Vec<u64>,
    counts: Vec<usize>,
    log: Vec<MoveRec>,
}

impl Default for FmRefiner {
    fn default() -> Self {
        Self::new()
    }
}

impl FmRefiner {
    /// An empty engine; buffers grow on first use.
    pub fn new() -> Self {
        FmRefiner {
            next: Vec::new(),
            prev: Vec::new(),
            gain: Vec::new(),
            tie: Vec::new(),
            state: Vec::new(),
            heads: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
            active: Vec::new(),
            active_gen: 0,
            active_list: Vec::new(),
            touched: Vec::new(),
            moved: Vec::new(),
            fill: Vec::new(),
            conn: Vec::new(),
            loads: Vec::new(),
            counts: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Grows the per-node buffers to cover `n` nodes.
    fn ensure_nodes(&mut self, n: usize) {
        if self.next.len() < n {
            self.next.resize(n, NONE);
            self.prev.resize(n, NONE);
            self.gain.resize(n, 0);
            self.tie.resize(n, 0);
            self.state.resize(n, State::Out);
            self.stamp.resize(n, 0);
            self.active.resize(n, 0);
        }
    }
}

/// Boundary FM: every candidate may move, but only the cut boundary
/// enters the buckets.
impl Refiner for FmRefiner {
    fn run(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        seed: u64,
        region: Option<&[u32]>,
        hint: Option<&[u32]>,
        primed: Option<(Vec<u64>, Vec<usize>)>,
    ) -> RefineStats {
        assert_eq!(graph.num_nodes(), partition.num_nodes());
        let n = graph.num_nodes();
        let n_parts = partition.num_parts() as usize;
        let mut stats = RefineStats { moves: 0, gain: 0 };
        // The boundary superset of the previous call must never leak
        // into this one (no-boundary runs leave it empty — correctly).
        self.active_list.clear();
        if n == 0 || n_parts < 2 {
            return stats;
        }
        self.ensure_nodes(n);

        // Region membership via generation stamps: O(|region|) setup, no
        // O(V) clearing between calls.
        self.generation += 1;
        let generation = self.generation;
        if let Some(nodes) = region {
            for &v in nodes {
                self.stamp[v as usize] = generation;
            }
        }
        let in_region =
            |stamp: &[u64], v: u32| -> bool { region.is_none() || stamp[v as usize] == generation };

        // Global load/population tally (same balance model as the sweep
        // refiner); primed loads also give the total weight, skipping
        // the O(V) re-sum.
        tally_parts(graph, partition, primed, &mut self.loads, &mut self.counts);
        let avg = self.loads.iter().sum::<u64>() as f64 / n_parts as f64;
        let max_load = (avg * (1.0 + opts.balance_slack)).ceil() as u64;
        // Diminishing-returns convergence: the first pass observes the
        // boundary cut for free (Σ external weight / 2); once a pass's
        // gain drops below that cut / CONVERGENCE_DENOM, further passes
        // are churn for sub-0.4% improvements and the budget stops
        // early. `max_passes` stays the hard cap.
        let mut observed_cut: u64 = 0;
        for pass_no in 0..opts.max_passes {
            // Scan domain of the pass: the region (local runs) or hint
            // (V-cycle runs) for the first pass — the whole graph when
            // neither is given — and the active list afterwards.
            let first = if pass_no == 0 {
                Some(region.or(hint))
            } else {
                None
            };
            let (kept, gain, boundary_cut) =
                self.pass(graph, partition, first, seed, max_load, &in_region);
            stats.moves += kept;
            stats.gain += gain;
            if pass_no == 0 {
                observed_cut = boundary_cut;
            }
            if kept == 0 || gain * CONVERGENCE_DENOM < observed_cut {
                break;
            }
        }
        stats
    }

    /// The final pass's queue plus the neighbourhood of its moves.
    fn last_boundary_superset(&self) -> &[u32] {
        &self.active_list
    }
}

impl FmRefiner {
    /// One FM pass: fill the buckets from the boundary, chain moves with
    /// hill climbing, roll back to the best prefix. Returns
    /// `(moves kept, exact cut reduction)`.
    ///
    /// The first pass scans every candidate for boundary membership; a
    /// later pass scans only the *active* set stamped by its
    /// predecessor — the previous boundary plus the neighbourhood of
    /// every (committed or rolled-back) move, a superset of everything
    /// whose boundary status can have changed. That keeps steady-state
    /// passes `O(boundary · deg)` instead of `O(V + E)`.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        first_domain: Option<Option<&[u32]>>,
        seed: u64,
        max_load: u64,
        in_region: &dyn Fn(&[u64], u32) -> bool,
    ) -> (usize, u64, u64) {
        self.log.clear();
        self.touched.clear();
        self.moved.clear();

        // Fill scan: every candidate of the pass's domain currently on
        // the cut boundary, at its best-move gain; seeded tie keys are
        // computed here, only for boundary vertices. The fill is a pure
        // function of the labels — its iteration order never matters
        // (it is re-sorted below), only its membership. The fill buffer
        // lives in the workspace so steady-state passes allocate
        // nothing.
        let mut fill = std::mem::take(&mut self.fill);
        fill.clear();
        // Total external weight of the filled boundary; /2 is the cut
        // the pass starts from (each cut edge is counted by both of its
        // — necessarily boundary — endpoints). Free convergence signal.
        let mut boundary_w: u64 = 0;
        let mut fill_one = |slf: &mut Self, fill: &mut Vec<u32>, v: u32| {
            if let Some((g, ed)) = best_gain(graph, partition, &mut slf.conn, v) {
                slf.gain[v as usize] = g;
                slf.tie[v as usize] = splitmix64(seed ^ (v as u64));
                boundary_w += ed;
                fill.push(v);
            }
        };
        match first_domain {
            Some(Some(nodes)) => {
                // Explicit domains (hints) may carry duplicates — the
                // API only demands a boundary superset. Dedup with the
                // active stamps: a double insert would corrupt the
                // bucket links and double-move the vertex.
                self.active_gen += 1;
                let gen = self.active_gen;
                for &v in nodes {
                    if self.active[v as usize] != gen {
                        self.active[v as usize] = gen;
                        fill_one(self, &mut fill, v);
                    }
                }
            }
            Some(None) => {
                for v in 0..graph.num_nodes() as u32 {
                    fill_one(self, &mut fill, v);
                }
            }
            None => {
                let mut domain = std::mem::take(&mut self.active_list);
                for &v in &domain {
                    fill_one(self, &mut fill, v);
                }
                // Hand the buffer back so the next-active rebuild below
                // reuses its capacity instead of growing from zero.
                domain.clear();
                self.active_list = domain;
            }
        }
        if fill.is_empty() {
            self.fill = fill;
            return (0, 0, 0);
        }
        // The fill's gain spread sizes the bucket array; gains that
        // drift outside it mid-pass share the end buckets (the clamp in
        // `bucket_index` — deterministic, and ordering inside a clamped
        // bucket degrades to insertion order only in that rare case).
        let half_range = fill
            .iter()
            .map(|&v| self.gain[v as usize].unsigned_abs())
            .max()
            .map_or(1, |m| (m as i64).clamp(1, MAX_HALF_RANGE));
        let buckets = (2 * half_range + 1) as usize;
        self.heads.clear();
        self.heads.resize(buckets, NONE);
        let mut max_idx: i64 = -1;

        // Inserting in descending seeded-key order makes each bucket's
        // head (LIFO) the smallest key, so equal-gain pops follow the
        // seeded order.
        fill.sort_unstable_by(|&a, &b| (self.tie[b as usize], b).cmp(&(self.tie[a as usize], a)));
        for &v in &fill {
            let g = self.gain[v as usize];
            bucket_insert(
                &mut self.heads,
                &mut self.next,
                &mut self.prev,
                &mut self.gain,
                &mut max_idx,
                half_range,
                v,
                g,
            );
            self.state[v as usize] = State::Queued;
            self.touched.push(v);
        }
        self.fill = fill;

        // Move loop.
        let mut cut_delta: i64 = 0; // running cut change (negative = better)
        let mut best_delta: i64 = 0;
        let mut best_len: usize = 0;
        let mut stall = 0usize;
        loop {
            // Pop the best-gain queued vertex.
            while max_idx >= 0 && self.heads[max_idx as usize] == NONE {
                max_idx -= 1;
            }
            if max_idx < 0 {
                break;
            }
            let v = self.heads[max_idx as usize];
            bucket_remove(
                &mut self.heads,
                &mut self.next,
                &mut self.prev,
                &self.gain,
                half_range,
                v,
            );
            self.state[v as usize] = State::Locked;

            // Re-derive the move against the live partition: best
            // strictly-feasible target (gain first, then lowest part id).
            let pv = partition.part(v);
            if self.counts[pv as usize] <= 1 {
                continue; // sole occupant: emptying a part is never allowed
            }
            let wv = graph.node_weight(v) as u64;
            let (internal, _) = collect_conn(graph, partition, &mut self.conn, v);
            let mut best: Option<(i64, u32)> = None;
            for &(p, c) in &self.conn {
                if self.loads[p as usize] + wv > max_load {
                    continue;
                }
                let g = c as i64 - internal as i64;
                if best.is_none_or(|(bg, bp)| g > bg || (g == bg && p < bp)) {
                    best = Some((g, p));
                }
            }
            let Some((g, target)) = best else {
                continue; // nothing feasible; stays locked this pass
            };

            // Apply, log, track the best prefix.
            partition.set(v, target);
            self.loads[pv as usize] -= wv;
            self.loads[target as usize] += wv;
            self.counts[pv as usize] -= 1;
            self.counts[target as usize] += 1;
            cut_delta -= g;
            self.moved.push(v);
            self.log.push(MoveRec {
                node: v,
                from: pv,
                gain: g,
            });
            if cut_delta < best_delta {
                best_delta = cut_delta;
                best_len = self.log.len();
                stall = 0;
            } else if g > 0 {
                // A strictly improving move is progress even while the
                // running delta is still repaying an earlier dip; only
                // genuinely non-improving moves spend the stall budget,
                // so a long positive chain climbing out of a valley is
                // never cut short (pinned by
                // `stall_budget_resets_on_positive_gain_chains`).
                stall = 0;
            } else {
                stall += 1;
                if stall >= STALL_LIMIT {
                    break;
                }
            }

            // Refresh the neighbours' cached gains against the live
            // labels: enter the boundary, leave it, or reposition.
            for &u in graph.neighbors(v) {
                if self.state[u as usize] == State::Locked || !in_region(&self.stamp, u) {
                    continue;
                }
                match best_gain(graph, partition, &mut self.conn, u) {
                    Some((g, _)) => {
                        if self.state[u as usize] == State::Queued {
                            if self.gain[u as usize] != g {
                                bucket_remove(
                                    &mut self.heads,
                                    &mut self.next,
                                    &mut self.prev,
                                    &self.gain,
                                    half_range,
                                    u,
                                );
                                bucket_insert(
                                    &mut self.heads,
                                    &mut self.next,
                                    &mut self.prev,
                                    &mut self.gain,
                                    &mut max_idx,
                                    half_range,
                                    u,
                                    g,
                                );
                            }
                        } else {
                            bucket_insert(
                                &mut self.heads,
                                &mut self.next,
                                &mut self.prev,
                                &mut self.gain,
                                &mut max_idx,
                                half_range,
                                u,
                                g,
                            );
                            self.state[u as usize] = State::Queued;
                            self.touched.push(u);
                        }
                    }
                    None => {
                        if self.state[u as usize] == State::Queued {
                            bucket_remove(
                                &mut self.heads,
                                &mut self.next,
                                &mut self.prev,
                                &self.gain,
                                half_range,
                                u,
                            );
                            self.state[u as usize] = State::Out;
                        }
                    }
                }
            }
        }

        // Roll back past the best prefix (in reverse, restoring loads and
        // populations exactly).
        for rec in self.log.drain(best_len..).rev() {
            let wv = graph.node_weight(rec.node) as u64;
            let to = partition.part(rec.node);
            partition.set(rec.node, rec.from);
            self.loads[to as usize] -= wv;
            self.loads[rec.from as usize] += wv;
            self.counts[to as usize] -= 1;
            self.counts[rec.from as usize] += 1;
        }
        debug_assert_eq!(
            -best_delta,
            self.log.iter().map(|r| r.gain).sum::<i64>(),
            "kept prefix gain must equal the best running delta"
        );
        for &v in &self.touched {
            self.state[v as usize] = State::Out;
        }

        // Collect the next pass's candidates: everything queued this
        // pass plus the (in-region) neighbourhood of every label change
        // — committed or rolled back — a superset of any vertex whose
        // boundary status can differ next pass. The stamps only dedup.
        self.active_gen += 1;
        let gen = self.active_gen;
        self.active_list.clear();
        for i in 0..self.touched.len() {
            let v = self.touched[i];
            if self.active[v as usize] != gen {
                self.active[v as usize] = gen;
                self.active_list.push(v);
            }
        }
        for i in 0..self.moved.len() {
            let v = self.moved[i];
            for &u in graph.neighbors(v) {
                if self.active[u as usize] != gen && in_region(&self.stamp, u) {
                    self.active[u as usize] = gen;
                    self.active_list.push(u);
                }
            }
        }
        (best_len, (-best_delta) as u64, boundary_w / 2)
    }
}

/// Fills `loads` / `counts` with the partition's per-part node weights
/// and populations: moved in from `primed` when the caller already
/// tallied them (exactness debug-asserted), counted here otherwise.
fn tally_parts(
    graph: &CsrGraph,
    partition: &Partition,
    primed: Option<(Vec<u64>, Vec<usize>)>,
    loads: &mut Vec<u64>,
    counts: &mut Vec<usize>,
) {
    let n_parts = partition.num_parts() as usize;
    match primed {
        Some((primed_loads, primed_counts)) => {
            debug_assert_eq!(primed_loads.len(), n_parts);
            debug_assert_eq!(primed_counts.len(), n_parts);
            debug_assert_eq!(
                primed_loads.iter().sum::<u64>(),
                graph.total_node_weight(),
                "primed loads do not tally the graph"
            );
            debug_assert_eq!(
                primed_counts.iter().sum::<usize>(),
                graph.num_nodes(),
                "primed counts mismatch"
            );
            *loads = primed_loads;
            *counts = primed_counts;
        }
        None => {
            loads.clear();
            loads.resize(n_parts, 0);
            counts.clear();
            counts.resize(n_parts, 0);
            for v in 0..graph.num_nodes() as u32 {
                loads[partition.part(v) as usize] += graph.node_weight(v) as u64;
                counts[partition.part(v) as usize] += 1;
            }
        }
    }
}

/// Accumulates `v`'s connectivity per foreign part into `conn` (cleared
/// first) and returns `(internal, external)` weighted degrees against
/// the live partition — the one neighbour scan both the bucket priority
/// and the move re-derivation are built from, so the gain model lives
/// in exactly one place.
fn collect_conn(
    graph: &CsrGraph,
    partition: &Partition,
    conn: &mut Vec<(u32, u64)>,
    v: u32,
) -> (u64, u64) {
    let pv = partition.part(v);
    conn.clear();
    let mut internal: u64 = 0;
    let mut external: u64 = 0;
    for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
        let pu = partition.part(u);
        if pu == pv {
            internal += w as u64;
        } else {
            external += w as u64;
            match conn.iter_mut().find(|(p, _)| *p == pu) {
                Some((_, c)) => *c += w as u64,
                None => conn.push((pu, w as u64)),
            }
        }
    }
    (internal, external)
}

/// Best unconstrained move gain of `v` against the live partition plus
/// its total external weight (`ed`), or `None` when `v` is not on the
/// cut boundary (no external edges). The gain — connectivity to the
/// best adjacent part minus the internal degree — is the bucket
/// priority; `ed` feeds the pass's free cut observation.
fn best_gain(
    graph: &CsrGraph,
    partition: &Partition,
    conn: &mut Vec<(u32, u64)>,
    v: u32,
) -> Option<(i64, u64)> {
    let (internal, external) = collect_conn(graph, partition, conn, v);
    conn.iter()
        .map(|&(_, c)| c as i64 - internal as i64)
        .max()
        .map(|g| (g, external))
}

/// [`best_gain`] that also names the target: the best unconstrained move
/// of `v` as `(gain, target part, external weight)` — gain first, lowest
/// part id on ties (the same preference order the sequential apply uses)
/// — or `None` when `v` is not on the cut boundary. The parallel
/// engine's frozen evaluation runs on this so its candidate moves carry
/// the part pair their batch key is colored by.
fn best_move(
    graph: &CsrGraph,
    partition: &Partition,
    conn: &mut Vec<(u32, u64)>,
    v: u32,
) -> Option<(i64, u32, u64)> {
    let (internal, external) = collect_conn(graph, partition, conn, v);
    let mut best: Option<(i64, u32)> = None;
    for &(p, c) in conn.iter() {
        let g = c as i64 - internal as i64;
        if best.is_none_or(|(bg, bp)| g > bg || (g == bg && p < bp)) {
            best = Some((g, p));
        }
    }
    best.map(|(g, p)| (g, p, external))
}

/// Seeded batch-selection key of a candidate move: a SplitMix64 hash of
/// the `(from, to)` part pair, re-mixed with the vertex id. Coloring the
/// key by the part-pair *region* decorrelates tie-breaking across the
/// distinct stretches of the cut (vertices contending for the same pair
/// of load counters hash from the same base), while the final vertex-id
/// mix keeps keys distinct within a region. Purely seed-derived — no
/// id-order bias, reproducible across runs and pool sizes.
fn move_key(seed: u64, v: u32, from: u32, to: u32) -> u64 {
    let pair = splitmix64(seed ^ (((from as u64) << 32) | to as u64));
    splitmix64(pair ^ v as u64)
}

/// Evicts `v`'s entry from the incremental evaluation table in `O(1)`
/// (swap-remove), fixing the slot map for the entry swapped into its
/// place. A no-op when `v` has no entry. Table *order* is free to churn:
/// batch selection is order-independent over the table as a set.
#[inline]
fn evict_eval(evals: &mut Vec<(u32, i64, u64, u64)>, epos: &mut [u32], v: u32) {
    let i = epos[v as usize];
    if i == NONE {
        return;
    }
    epos[v as usize] = NONE;
    evals.swap_remove(i as usize);
    if let Some(&(swapped, ..)) = evals.get(i as usize) {
        epos[swapped as usize] = i;
    }
}

/// Maps a gain to its bucket index, clamping into the end buckets.
#[inline]
fn bucket_index(gain: i64, half_range: i64) -> usize {
    (gain.clamp(-half_range, half_range) + half_range) as usize
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn bucket_insert(
    heads: &mut [u32],
    next: &mut [u32],
    prev: &mut [u32],
    gains: &mut [i64],
    max_idx: &mut i64,
    half_range: i64,
    v: u32,
    gain: i64,
) {
    gains[v as usize] = gain;
    let idx = bucket_index(gain, half_range);
    let head = heads[idx];
    next[v as usize] = head;
    prev[v as usize] = NONE;
    if head != NONE {
        prev[head as usize] = v;
    }
    heads[idx] = v;
    *max_idx = (*max_idx).max(idx as i64);
}

#[inline]
fn bucket_remove(
    heads: &mut [u32],
    next: &mut [u32],
    prev: &mut [u32],
    gains: &[i64],
    half_range: i64,
    v: u32,
) {
    let idx = bucket_index(gains[v as usize], half_range);
    let (p, nx) = (prev[v as usize], next[v as usize]);
    if p == NONE {
        heads[idx] = nx;
    } else {
        next[p as usize] = nx;
    }
    if nx != NONE {
        prev[nx as usize] = p;
    }
    next[v as usize] = NONE;
    prev[v as usize] = NONE;
}

/// Candidates per frozen-evaluation chunk (mirrors the sweep refiner's
/// scan chunking): candidates are cheap to score, so each worker
/// invocation gets a sizeable slice and small boundaries run inline
/// rather than paying thread-spawn overhead.
const EVAL_CHUNK: usize = 2048;

/// Deterministic parallel k-way FM: colored, conflict-free move batches
/// (`RefineScheme::ParallelFm`, CLI `--refine pfm`).
///
/// Each pass runs as a sequence of **rounds**:
///
/// 1. **Frozen evaluation (parallel)** — every unlocked candidate still
///    on the cut boundary is scored against a frozen snapshot of the
///    labels: its best unconstrained move `(gain, target)` plus a seeded
///    key (`move_key`) colored by the move's `(from, to)` part pair.
///    The scan is chunked in index order, so the evaluation list is a
///    pure function of the snapshot — thread-count-independent.
/// 2. **Batch selection (parallel)** — only the round's **top gain
///    class** batches, and only while that top gain is strictly
///    positive: the batch is the set of candidates carrying the round's
///    maximum gain that dominate every adjacent same-class candidate
///    under the strict order `(key, id)` — a local-maxima independent
///    set, so **no two batch moves share an edge** (two adjacent
///    survivors would each have to beat the other) and the batch is
///    never empty (the class's `(key, id)` maximum always survives).
///    This is the parallel analogue of the sequential engine always
///    popping a max-gain bucket head: every batched move is one the
///    sequential engine would also have committed at that gain. Once the
///    top gain reaches zero the round degenerates to the single best
///    candidate under `(gain, key, id)` — plateaus and ridges are
///    crossed one move at a time, because batching whole zero-gain
///    classes flips large plateau sets at once and batching
///    cut-worsening moves digs deeper in one step than the rollback
///    horizon recovers (both measurably hurt grid cuts).
/// 3. **Apply (sequential, ascending vertex order)** — each batch member
///    is locked and re-derived against the live partition: best feasible
///    target under the balance cap, never draining a part, exact gain
///    accounting into the move log, with the same best-prefix tracking
///    and stall budget as [`FmRefiner`]. Edge-disjointness makes the
///    frozen gains of a batch mutually consistent (no batch member's
///    connectivity changes while its peers apply); the live re-derivation
///    makes the accounting exact even where the balance cap diverts a
///    move.
///
/// At pass end the move log rolls back to the shortest best-cut prefix,
/// so a pass never worsens the cut.
///
/// # Incremental rounds
///
/// Only the first round of a pass pays the full frozen scan. Every later
/// round reuses the previous round's evaluation table and repairs just
/// the entries an apply invalidated: a cached `(gain, key, external)` is
/// a function of the labels in the vertex's closed 1-hop neighbourhood
/// only (the balance cap is judged at apply time, never at evaluation
/// time), so after a batch applies, the *dirty set* — unlocked
/// candidates adjacent to a label change — is exactly the set of stale
/// entries. Batch members are evicted (locked), dirty entries are
/// re-evaluated in parallel against the new frozen labels, and
/// everything else is carried over byte-for-byte. Selection in phase 2
/// is order-independent over the table (the top-gain class is a set, the
/// conflict test is per-element, and the single-move fallback is a
/// strict total order), so the incremental table produces bit-identical
/// batches to a full re-scan **by construction** — debug builds assert
/// the table equals a from-scratch scan every round. This turns a pass
/// from `O(rounds × boundary)` into `O(rounds × touched)`.
/// [`ParallelFm::full_rescan`] builds a reference engine that re-scans
/// every round (the pre-incremental behaviour) for cross-checking.
///
/// # Determinism
///
/// Every parallel phase reads only frozen state and reduces in index
/// order; every mutation happens in the sequential apply phase in
/// ascending vertex order. A refinement run is therefore a pure function
/// of `(graph, partition, options, seed)` — bit-identical for any
/// worker-pool size by construction (pinned adversarially in
/// `tests/fm_determinism.rs` and by the CI determinism matrix). The
/// result is *not* required to equal the sequential engine's move for
/// move — a batch commits several members of the top gain class where
/// the sequential engine commits one and re-evaluates — but both
/// satisfy identical invariants, and the determinism harness
/// cross-checks that the `mlga-pfm` pipeline matches or beats `mlga`'s
/// cut on the anchor scenarios.
///
/// # Reuse
///
/// Like [`FmRefiner`], the engine owns all of its buffers and recycles
/// them across calls (stamp generations avoid `O(V)` clears), so the
/// V-cycle and the streaming session keep one instance alive across
/// levels and batches.
pub struct ParallelFm {
    /// Round-stamped candidacy: `rstamp[v] == round` ⇔ `v` participates
    /// in the current round's conflict test (it carries the round's top
    /// gain), with its seeded key in `rkey`.
    rstamp: Vec<u64>,
    rkey: Vec<u64>,
    round: u64,
    /// FM lock stamps: `locked[v] == pass_gen` ⇔ `v` was consumed (moved
    /// or skipped) this pass.
    locked: Vec<u64>,
    pass_gen: u64,
    /// Candidate-list dedup stamps (re-using `pass_gen` as generation).
    cstamp: Vec<u64>,
    /// Region membership stamps (`stamp[v] == generation` ⇔ in region).
    stamp: Vec<u64>,
    generation: u64,
    /// Dedup stamps + list for the next-pass active set — also the
    /// boundary superset [`Refiner::last_boundary_superset`] reports.
    active: Vec<u64>,
    active_gen: u64,
    active_list: Vec<u32>,
    /// Candidate list of the running pass, recycled across passes.
    cand: Vec<u32>,
    conn: Vec<(u32, u64)>,
    loads: Vec<u64>,
    counts: Vec<usize>,
    log: Vec<MoveRec>,
    moved: Vec<u32>,
    /// The incremental evaluation table carried between rounds:
    /// `(vertex, frozen gain, seeded key, external weight)` for every
    /// unlocked candidate currently on the cut boundary.
    evals: Vec<(u32, i64, u64, u64)>,
    /// `epos[v]` is `v`'s index in `evals`, or [`NONE`] when absent —
    /// the slot map behind `O(1)` eviction. All-`NONE` between passes.
    epos: Vec<u32>,
    /// Per-round dirty-set dedup stamps (`estale[v] == dirty_gen` ⇔ `v`
    /// already queued for re-evaluation this round).
    estale: Vec<u64>,
    dirty_gen: u64,
    /// Dirty-candidate scratch list, recycled across rounds.
    dirty: Vec<u32>,
    /// Reference mode: re-scan the whole candidate list every round
    /// instead of repairing the table incrementally. Bit-identical
    /// results, pre-incremental (PR 6) cost profile.
    rescan_every_round: bool,
}

impl Default for ParallelFm {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelFm {
    /// An empty engine; buffers grow on first use. Rounds after the
    /// first of each pass reuse the evaluation table incrementally (see
    /// the type docs); [`ParallelFm::full_rescan`] builds the
    /// re-scan-every-round reference engine instead.
    pub fn new() -> Self {
        ParallelFm {
            rstamp: Vec::new(),
            rkey: Vec::new(),
            round: 0,
            locked: Vec::new(),
            pass_gen: 0,
            cstamp: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
            active: Vec::new(),
            active_gen: 0,
            active_list: Vec::new(),
            cand: Vec::new(),
            conn: Vec::new(),
            loads: Vec::new(),
            counts: Vec::new(),
            log: Vec::new(),
            moved: Vec::new(),
            evals: Vec::new(),
            epos: Vec::new(),
            estale: Vec::new(),
            dirty_gen: 0,
            dirty: Vec::new(),
            rescan_every_round: false,
        }
    }

    /// The full-rescan reference engine: every round re-evaluates the
    /// entire candidate list from scratch instead of repairing the
    /// table incrementally. Produces bit-identical results to
    /// [`ParallelFm::new`] (the incremental table is asserted against
    /// this very scan in debug builds). A test reference only: no
    /// [`crate::refine::RefineScheme`] selects it, and the determinism
    /// tests pin the equivalence against it at pipeline level.
    pub fn full_rescan() -> Self {
        ParallelFm {
            rescan_every_round: true,
            ..Self::new()
        }
    }

    /// Grows the per-node buffers to cover `n` nodes.
    fn ensure_nodes(&mut self, n: usize) {
        if self.rstamp.len() < n {
            self.rstamp.resize(n, 0);
            self.rkey.resize(n, 0);
            self.locked.resize(n, 0);
            self.cstamp.resize(n, 0);
            self.stamp.resize(n, 0);
            self.active.resize(n, 0);
            self.epos.resize(n, NONE);
            self.estale.resize(n, 0);
        }
    }

    /// Debug-build pin of the incremental-round invariant: the carried
    /// evaluation table must equal, as a set, what a full frozen scan of
    /// the candidate list would produce right now.
    #[cfg(debug_assertions)]
    fn debug_check_eval_table(
        &self,
        graph: &CsrGraph,
        partition: &Partition,
        cand: &[u32],
        evals: &[(u32, i64, u64, u64)],
        seed: u64,
    ) {
        let mut conn: Vec<(u32, u64)> = Vec::with_capacity(8);
        let mut expect: Vec<(u32, i64, u64, u64)> = Vec::new();
        for &v in cand {
            if self.locked[v as usize] == self.pass_gen {
                continue;
            }
            if let Some((g, target, ed)) = best_move(graph, partition, &mut conn, v) {
                let from = partition.part(v);
                expect.push((v, g, move_key(seed, v, from, target), ed));
            }
        }
        let mut got = evals.to_vec();
        got.sort_unstable_by_key(|&(v, ..)| v);
        expect.sort_unstable_by_key(|&(v, ..)| v);
        assert_eq!(
            got, expect,
            "incremental eval table diverged from a full frozen scan"
        );
    }
}

/// Parallel boundary FM: the same contract as [`FmRefiner`], with
/// colored conflict-free move batches applied per round.
impl Refiner for ParallelFm {
    fn run(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        seed: u64,
        region: Option<&[u32]>,
        hint: Option<&[u32]>,
        primed: Option<(Vec<u64>, Vec<usize>)>,
    ) -> RefineStats {
        assert_eq!(graph.num_nodes(), partition.num_nodes());
        let n = graph.num_nodes();
        let n_parts = partition.num_parts() as usize;
        let mut stats = RefineStats { moves: 0, gain: 0 };
        self.active_list.clear();
        if n == 0 || n_parts < 2 {
            return stats;
        }
        self.ensure_nodes(n);

        self.generation += 1;
        if let Some(nodes) = region {
            for &v in nodes {
                self.stamp[v as usize] = self.generation;
            }
        }

        // Same balance model as the sequential engine.
        tally_parts(graph, partition, primed, &mut self.loads, &mut self.counts);
        let avg = self.loads.iter().sum::<u64>() as f64 / n_parts as f64;
        let max_load = (avg * (1.0 + opts.balance_slack)).ceil() as u64;
        // Same diminishing-returns convergence cutoff as the sequential
        // engine: stop once a pass gains under observed cut /
        // CONVERGENCE_DENOM; `max_passes` stays the hard cap.
        let mut observed_cut: u64 = 0;
        for pass_no in 0..opts.max_passes {
            let first = if pass_no == 0 {
                Some(region.or(hint))
            } else {
                None
            };
            let (kept, gain, boundary_cut) =
                self.pass(graph, partition, first, seed, max_load, region.is_some());
            stats.moves += kept;
            stats.gain += gain;
            if pass_no == 0 {
                observed_cut = boundary_cut;
            }
            if kept == 0 || gain * CONVERGENCE_DENOM < observed_cut {
                break;
            }
        }
        stats
    }

    /// The same superset contract as [`FmRefiner`]'s, so the V-cycle
    /// chains boundary supersets identically for either engine.
    fn last_boundary_superset(&self) -> &[u32] {
        &self.active_list
    }
}

impl ParallelFm {
    /// One parallel-FM pass (rounds of evaluate → select → apply, then
    /// rollback to the best prefix). Returns
    /// `(moves kept, exact cut reduction, observed boundary cut)`.
    fn pass(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        first_domain: Option<Option<&[u32]>>,
        seed: u64,
        max_load: u64,
        use_region: bool,
    ) -> (usize, u64, u64) {
        self.log.clear();
        self.moved.clear();
        self.pass_gen += 1;
        let pass_gen = self.pass_gen;
        let generation = self.generation;

        // The pass's candidate list: the domain (first pass) or the
        // previous pass's active set, deduplicated via the pass-stamped
        // `cstamp`; rounds append the neighbourhood of applied moves.
        let mut cand = std::mem::take(&mut self.cand);
        cand.clear();
        match first_domain {
            Some(Some(nodes)) => {
                for &v in nodes {
                    if self.cstamp[v as usize] != pass_gen {
                        self.cstamp[v as usize] = pass_gen;
                        cand.push(v);
                    }
                }
            }
            Some(None) => {
                for v in 0..graph.num_nodes() as u32 {
                    self.cstamp[v as usize] = pass_gen;
                    cand.push(v);
                }
            }
            None => {
                let mut domain = std::mem::take(&mut self.active_list);
                for &v in &domain {
                    if self.cstamp[v as usize] != pass_gen {
                        self.cstamp[v as usize] = pass_gen;
                        cand.push(v);
                    }
                }
                domain.clear();
                self.active_list = domain;
            }
        }

        let mut boundary_w: u64 = 0;
        let mut first_round = true;
        let mut cut_delta: i64 = 0;
        let mut best_delta: i64 = 0;
        let mut best_len: usize = 0;
        let mut stall = 0usize;
        let mut stalled = false;

        let mut evals = std::mem::take(&mut self.evals);
        evals.clear();

        while !stalled {
            // Phase 1 — evaluation, in index order:
            // `(vertex, gain, key, external weight)` per unlocked
            // candidate still on the boundary. Only the pass's first
            // round (or every round, in the full-rescan reference
            // engine) pays the full frozen parallel scan; later rounds
            // reuse the table phase 4 repaired — bit-identical by the
            // staleness argument in the type docs, asserted against a
            // from-scratch scan in debug builds.
            if first_round || self.rescan_every_round {
                let frozen: &Partition = partition;
                let locked = &self.locked;
                evals = cand
                    .par_chunks(EVAL_CHUNK)
                    .map(|chunk| {
                        let mut local: Vec<(u32, i64, u64, u64)> = Vec::new();
                        let mut conn: Vec<(u32, u64)> = Vec::with_capacity(8);
                        for &v in chunk {
                            if locked[v as usize] == pass_gen {
                                continue;
                            }
                            if let Some((g, target, ed)) = best_move(graph, frozen, &mut conn, v) {
                                let from = frozen.part(v);
                                local.push((v, g, move_key(seed, v, from, target), ed));
                            }
                        }
                        local
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .flatten()
                    .collect();
                if !self.rescan_every_round {
                    for (i, &(v, ..)) in evals.iter().enumerate() {
                        self.epos[v as usize] = i as u32;
                    }
                }
            } else {
                #[cfg(debug_assertions)]
                self.debug_check_eval_table(graph, partition, &cand, &evals, seed);
            }
            if evals.is_empty() {
                break;
            }
            if first_round {
                // The pass's initial boundary; /2 is the cut it starts
                // from (each cut edge counted by both endpoints).
                boundary_w = evals.iter().map(|&(_, _, _, ed)| ed).sum();
                first_round = false;
            }

            // Phase 2 — batch selection. Only the round's *top gain
            // class* batches — the parallel analogue of the sequential
            // engine always popping a max-gain bucket head: every batch
            // member's move is one the bucket engine would also have
            // committed at this gain, so the orderings stay comparable
            // and quality tracks the sequential engine. Cut-worsening
            // ridge moves go one at a time, exactly as the sequential
            // engine pops its single best.
            let gmax = evals
                .iter()
                .map(|&(_, g, _, _)| g)
                .max()
                .expect("evals is non-empty");
            let mut batch: Vec<u32> = if gmax > 0 {
                self.round += 1;
                let round = self.round;
                for &(v, g, k, _) in &evals {
                    if g == gmax {
                        self.rstamp[v as usize] = round;
                        self.rkey[v as usize] = k;
                    }
                }
                let (rstamp, rkey) = (&self.rstamp, &self.rkey);
                evals
                    .par_chunks(EVAL_CHUNK)
                    .map(|chunk| {
                        chunk
                            .iter()
                            .filter(|&&(v, g, k, _)| {
                                g == gmax
                                    && graph.neighbors(v).iter().all(|&u| {
                                        rstamp[u as usize] != round
                                            || (k, v) > (rkey[u as usize], u)
                                    })
                            })
                            .map(|&(v, ..)| v)
                            .collect::<Vec<u32>>()
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .flatten()
                    .collect()
            } else {
                let &(v, ..) = evals
                    .iter()
                    .max_by_key(|&&(v, g, k, _)| (g, k, v))
                    .expect("evals is non-empty");
                vec![v]
            };
            batch.sort_unstable();

            // Phase 3 — sequential apply in ascending vertex order,
            // re-derived against the live partition (same guards and
            // bookkeeping as the sequential move loop).
            let moved_start = self.moved.len();
            for &v in &batch {
                self.locked[v as usize] = pass_gen;
                let pv = partition.part(v);
                if self.counts[pv as usize] <= 1 {
                    continue; // sole occupant: emptying a part is never allowed
                }
                let wv = graph.node_weight(v) as u64;
                let (internal, _) = collect_conn(graph, partition, &mut self.conn, v);
                let mut best: Option<(i64, u32)> = None;
                for &(p, c) in &self.conn {
                    if self.loads[p as usize] + wv > max_load {
                        continue;
                    }
                    let g = c as i64 - internal as i64;
                    if best.is_none_or(|(bg, bp)| g > bg || (g == bg && p < bp)) {
                        best = Some((g, p));
                    }
                }
                let Some((g, target)) = best else {
                    continue; // nothing feasible; stays locked this pass
                };
                partition.set(v, target);
                self.loads[pv as usize] -= wv;
                self.loads[target as usize] += wv;
                self.counts[pv as usize] -= 1;
                self.counts[target as usize] += 1;
                cut_delta -= g;
                self.moved.push(v);
                self.log.push(MoveRec {
                    node: v,
                    from: pv,
                    gain: g,
                });
                if cut_delta < best_delta {
                    best_delta = cut_delta;
                    best_len = self.log.len();
                    stall = 0;
                } else if g > 0 {
                    stall = 0; // same progress rule as the sequential engine
                } else {
                    stall += 1;
                    if stall >= STALL_LIMIT {
                        stalled = true;
                        break;
                    }
                }
                // Unlocked (in-region) neighbours may enter or re-enter
                // the boundary: extend the candidate list for later
                // rounds.
                for &u in graph.neighbors(v) {
                    if self.locked[u as usize] != pass_gen
                        && self.cstamp[u as usize] != pass_gen
                        && (!use_region || self.stamp[u as usize] == generation)
                    {
                        self.cstamp[u as usize] = pass_gen;
                        cand.push(u);
                    }
                }
            }
            if stalled {
                break; // the table is rebuilt next pass; skip the repair
            }

            // Phase 4 — table repair (incremental mode). Batch members
            // are locked now, so their entries leave the table. A cached
            // entry is a pure function of the labels in its closed 1-hop
            // neighbourhood, so the *dirty set* — unlocked candidates
            // adjacent to a label change, which also covers every
            // candidate phase 3 just appended (each is an unlocked,
            // pass-stamped neighbour of an applied move) — is exactly
            // the set of stale entries: evict and re-evaluate those in
            // parallel against the new frozen labels, carry the rest
            // over untouched.
            if !self.rescan_every_round {
                for &v in &batch {
                    evict_eval(&mut evals, &mut self.epos, v);
                }
                self.dirty_gen += 1;
                let dgen = self.dirty_gen;
                let mut dirty = std::mem::take(&mut self.dirty);
                dirty.clear();
                for i in moved_start..self.moved.len() {
                    let v = self.moved[i];
                    for &u in graph.neighbors(v) {
                        let ui = u as usize;
                        if self.locked[ui] != pass_gen
                            && self.cstamp[ui] == pass_gen
                            && self.estale[ui] != dgen
                        {
                            self.estale[ui] = dgen;
                            evict_eval(&mut evals, &mut self.epos, u);
                            dirty.push(u);
                        }
                    }
                }
                let frozen: &Partition = partition;
                let fresh: Vec<(u32, i64, u64, u64)> = dirty
                    .par_chunks(EVAL_CHUNK)
                    .map(|chunk| {
                        let mut local: Vec<(u32, i64, u64, u64)> = Vec::new();
                        let mut conn: Vec<(u32, u64)> = Vec::with_capacity(8);
                        for &v in chunk {
                            if let Some((g, target, ed)) = best_move(graph, frozen, &mut conn, v) {
                                let from = frozen.part(v);
                                local.push((v, g, move_key(seed, v, from, target), ed));
                            }
                        }
                        local
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .flatten()
                    .collect();
                for e in fresh {
                    self.epos[e.0 as usize] = evals.len() as u32;
                    evals.push(e);
                }
                dirty.clear();
                self.dirty = dirty;
            }
        }
        self.cand = cand;
        // Restore the between-pass slot-map invariant (all `NONE`) and
        // park the table buffer for the next pass.
        if !self.rescan_every_round {
            for &(v, ..) in &evals {
                self.epos[v as usize] = NONE;
            }
        }
        evals.clear();
        self.evals = evals;

        // Roll back past the best prefix, exactly as the sequential
        // engine does.
        for rec in self.log.drain(best_len..).rev() {
            let wv = graph.node_weight(rec.node) as u64;
            let to = partition.part(rec.node);
            partition.set(rec.node, rec.from);
            self.loads[to as usize] -= wv;
            self.loads[rec.from as usize] += wv;
            self.counts[to as usize] -= 1;
            self.counts[rec.from as usize] += 1;
        }
        debug_assert_eq!(
            -best_delta,
            self.log.iter().map(|r| r.gain).sum::<i64>(),
            "kept prefix gain must equal the best running delta"
        );

        // Next-pass candidates: the pass's candidate list plus the
        // (in-region) neighbourhood of every label change — committed or
        // rolled back — a superset of any vertex whose boundary status
        // can differ next pass.
        self.active_gen += 1;
        let gen = self.active_gen;
        self.active_list.clear();
        for i in 0..self.cand.len() {
            let v = self.cand[i];
            if self.active[v as usize] != gen {
                self.active[v as usize] = gen;
                self.active_list.push(v);
            }
        }
        for i in 0..self.moved.len() {
            let v = self.moved[i];
            for &u in graph.neighbors(v) {
                if self.active[u as usize] != gen
                    && (!use_region || self.stamp[u as usize] == generation)
                {
                    self.active[u as usize] = gen;
                    self.active_list.push(u);
                }
            }
        }
        (best_len, (-best_delta) as u64, boundary_w / 2)
    }
}

/// One-shot [`Refiner::refine`] on a fresh [`FmRefiner`].
pub fn refine_fm(
    graph: &CsrGraph,
    partition: &mut Partition,
    opts: &RefineOptions,
    seed: u64,
) -> RefineStats {
    FmRefiner::new().refine(graph, partition, opts, seed)
}

/// One-shot [`Refiner::refine_local`] on a fresh [`FmRefiner`].
pub fn refine_fm_local(
    graph: &CsrGraph,
    partition: &mut Partition,
    opts: &RefineOptions,
    seed: u64,
    region: &[u32],
) -> RefineStats {
    FmRefiner::new().refine_local(graph, partition, opts, seed, region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generators::paper_graph;
    use crate::partition::{cut_size, PartitionMetrics};
    use crate::refine::refine_kway;

    const SEED: u64 = 0x464d; // "FM"

    fn opts(balance_slack: f64, max_passes: usize) -> RefineOptions {
        RefineOptions {
            balance_slack,
            max_passes,
        }
    }

    fn random_partition(n: usize, parts: u32, seed: u64) -> Partition {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Partition::new((0..n).map(|_| rng.gen_range(0..parts)).collect(), parts).unwrap()
    }

    #[test]
    fn fixes_an_obviously_misplaced_vertex() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut p = Partition::new(vec![1, 0, 1, 1], 2).unwrap();
        let before = cut_size(&g, &p);
        let stats = refine_fm(&g, &mut p, &opts(0.6, 4), SEED);
        let after = cut_size(&g, &p);
        assert!(after < before, "no improvement: {before} -> {after}");
        assert_eq!((before - after) as u64, stats.gain);
    }

    #[test]
    fn never_increases_cut_and_gain_is_exact() {
        let g = paper_graph(139);
        for seed in 0..5u64 {
            let mut p = random_partition(139, 4, seed);
            let before = cut_size(&g, &p);
            let stats = refine_fm(&g, &mut p, &opts(0.1, 8), SEED ^ seed);
            let after = cut_size(&g, &p);
            assert!(after <= before, "cut increased {before} -> {after}");
            assert_eq!(before - after, stats.gain, "reported gain is not exact");
        }
    }

    #[test]
    fn respects_balance_slack() {
        let g = paper_graph(144);
        let mut p = random_partition(144, 4, 9);
        refine_fm(&g, &mut p, &opts(0.05, 8), SEED);
        let m = PartitionMetrics::compute(&g, &p);
        let cap = (m.avg_load * 1.05).ceil() as u64;
        for &l in &m.part_loads {
            assert!(l <= cap, "load {l} exceeds cap {cap}");
        }
    }

    #[test]
    fn never_drains_a_part_to_zero() {
        // Triangle with node 0 alone in part 0: the improving move would
        // empty the part, so FM must leave the partition untouched (its
        // zero/negative-gain explorations all roll back).
        let g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut p = Partition::new(vec![0, 1, 1], 2).unwrap();
        let stats = refine_fm(&g, &mut p, &opts(1.0, 4), SEED);
        assert_eq!(stats.moves, 0, "a committed move emptied part 0");
        assert!(
            p.part_sizes().iter().all(|&s| s > 0),
            "{:?}",
            p.part_sizes()
        );
    }

    #[test]
    fn misplaced_zero_weight_vertex_gets_moved() {
        // Same fixture as the sweep's regression test: the weightless
        // vertex 5 belongs in part 1 and draining no load must not pin it.
        let mut g = from_edges(6, &[(0, 1), (2, 3), (3, 4), (2, 4), (5, 2), (5, 3)]).unwrap();
        g.vweights = vec![2, 2, 2, 2, 2, 0];
        let mut p = Partition::new(vec![0, 0, 1, 1, 1, 0], 2).unwrap();
        let before = cut_size(&g, &p);
        let stats = refine_fm(&g, &mut p, &opts(0.2, 4), SEED);
        assert_eq!(p.part(5), 1, "zero-weight vertex stayed pinned");
        assert!(stats.moves >= 1);
        assert!(cut_size(&g, &p) < before);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn deterministic_and_workspace_reuse_is_clean() {
        let g = paper_graph(167);
        let mut engine = FmRefiner::new();
        for seed in 0..3u64 {
            let base = random_partition(167, 6, seed);
            // Fresh engine vs engine reused across differing graph calls.
            let mut a = base.clone();
            let sa = refine_fm(&g, &mut a, &opts(0.1, 6), SEED);
            let mut b = base.clone();
            let sb = engine.refine(&g, &mut b, &opts(0.1, 6), SEED);
            assert_eq!(a, b, "reused workspace diverged from fresh engine");
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn different_seeds_may_tie_break_differently_but_never_regress() {
        let g = paper_graph(98);
        let base = random_partition(98, 8, 4);
        let before = cut_size(&g, &base);
        for seed in 0..4u64 {
            let mut p = base.clone();
            let stats = refine_fm(&g, &mut p, &opts(0.2, 10), seed);
            assert_eq!(before - cut_size(&g, &p), stats.gain);
        }
    }

    #[test]
    fn at_least_matches_the_sweep_refiner_on_random_partitions() {
        // FM chains moves through plateaus the greedy sweep cannot cross,
        // so with an equal pass budget it must never lose — and on these
        // fixed seeds it strictly wins at least once (a determinism-backed
        // witness that the hill climbing does something).
        let g = paper_graph(213);
        let mut strict_wins = 0;
        for seed in 0..6u64 {
            let base = random_partition(213, 4, seed);
            let mut fm = base.clone();
            let mut sweep = base.clone();
            refine_fm(&g, &mut fm, &opts(0.1, 8), SEED);
            refine_kway(&g, &mut sweep, &opts(0.1, 8));
            let (cf, cs) = (cut_size(&g, &fm), cut_size(&g, &sweep));
            assert!(cf <= cs, "seed {seed}: FM cut {cf} worse than sweep {cs}");
            if cf < cs {
                strict_wins += 1;
            }
        }
        assert!(strict_wins > 0, "FM never beat the sweep on any seed");
    }

    /// Per-part loads and populations, tallied independently of the
    /// engines for their primed entry point.
    fn tallies(g: &CsrGraph, p: &Partition) -> (Vec<u64>, Vec<usize>) {
        (PartitionMetrics::compute(g, p).part_loads, p.part_sizes())
    }

    #[test]
    fn hinted_refine_is_bit_identical_to_full_refine() {
        // Any superset of the boundary — here the exact boundary, a
        // padded superset, and a shuffled one — must reproduce the
        // unhinted engine bit for bit: the hint only narrows the first
        // scan, never the behaviour.
        use crate::partition::boundary_nodes;
        let g = paper_graph(213);
        for seed in 0..3u64 {
            let base = random_partition(213, 4, seed);
            let mut full = base.clone();
            let sf = refine_fm(&g, &mut full, &opts(0.1, 6), SEED);

            let boundary = boundary_nodes(&g, &base);
            let mut padded = boundary.clone();
            padded.extend((0..40u32).filter(|v| !boundary.contains(v)));
            padded.reverse();
            // Duplicates are allowed by the hint contract and must not
            // corrupt the bucket links or double-move a vertex.
            let mut duplicated = boundary.clone();
            duplicated.extend_from_slice(&boundary);
            duplicated.push(boundary[0]);
            for hint in [&boundary, &padded, &duplicated] {
                let mut hinted = base.clone();
                let (loads, counts) = tallies(&g, &base);
                let sh = FmRefiner::new().refine_primed(
                    &g,
                    &mut hinted,
                    &opts(0.1, 6),
                    SEED,
                    hint,
                    loads,
                    counts,
                );
                assert_eq!(full, hinted, "hinted run diverged (seed {seed})");
                assert_eq!(sf, sh);
            }
        }
    }

    #[test]
    fn local_region_only_moves_region_nodes() {
        let g = paper_graph(144);
        let mut p = random_partition(144, 4, 5);
        let before = p.clone();
        let region: Vec<u32> = (40..80u32).collect();
        let stats = refine_fm_local(&g, &mut p, &opts(0.2, 6), SEED, &region);
        for v in 0..144u32 {
            if !region.contains(&v) {
                assert_eq!(p.part(v), before.part(v), "non-region node {v} moved");
            }
        }
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
        let sa = refine_fm_local(&g, &mut a, &opts(0.2, 6), SEED, &fwd);
        let sb = refine_fm_local(&g, &mut b, &opts(0.2, 6), SEED, &rev);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn degenerate_inputs_are_no_ops() {
        let g = paper_graph(78);
        let mut p = random_partition(78, 4, 1);
        let before = p.clone();
        let stats = refine_fm_local(&g, &mut p, &opts(0.1, 4), SEED, &[]);
        assert_eq!(stats, RefineStats { moves: 0, gain: 0 });
        assert_eq!(p, before);
        // Single part: no external edges can exist.
        let mut single = Partition::all_zero(78, 1);
        let stats = refine_fm(&g, &mut single, &opts(0.1, 4), SEED);
        assert_eq!(stats.moves, 0);
        // Edgeless graph: no boundary.
        let e = crate::builder::GraphBuilder::with_nodes(12)
            .build()
            .unwrap();
        let mut p = Partition::round_robin(12, 3);
        let stats = refine_fm(&e, &mut p, &opts(0.1, 4), SEED);
        assert_eq!(stats, RefineStats { moves: 0, gain: 0 });
    }

    #[test]
    fn weighted_edges_use_exact_weighted_gains() {
        // 0-1 heavy edge split across parts; the move must report the
        // weighted gain exactly.
        let g = crate::builder::GraphBuilder::with_nodes(4)
            .weighted_edge(0, 1, 7)
            .weighted_edge(1, 2, 1)
            .weighted_edge(2, 3, 1)
            .build()
            .unwrap();
        let mut p = Partition::new(vec![0, 1, 1, 0], 2).unwrap();
        let before = cut_size(&g, &p);
        let stats = refine_fm(&g, &mut p, &opts(1.0, 4), SEED);
        assert_eq!(before - cut_size(&g, &p), stats.gain);
        assert_eq!(p.part(0), p.part(1), "heavy edge left cut");
    }

    #[test]
    fn stall_budget_resets_on_positive_gain_chains() {
        // A weighted path whose optimum is reachable only through one
        // cut-worsening move followed by a 110-move chain of +1 gains:
        // p_111 moves first at gain −100, then each of p_110 .. p_1
        // follows at +1, for a net gain of +10. A stall budget charged
        // per *move* (the old bug) aborts the pass 64 moves in — still
        // 37 short of repaying the dip — and rolls everything back; the
        // budget must instead reset on every strictly-positive-gain
        // move so the chain completes.
        const M: usize = 112; // path nodes p_0..p_M, plus the anchor z
        const B: u32 = 200;
        const D: u32 = 100;
        let mut b = crate::builder::GraphBuilder::with_nodes(M + 2);
        for i in 0..M - 1 {
            b = b.weighted_edge(i as u32, i as u32 + 1, B + i as u32);
        }
        // The last path edge is light enough that moving p_{M-1} costs
        // exactly D; the heavy anchor edge pins p_M in part 1.
        let w_last = B + (M as u32 - 2) - D;
        b = b.weighted_edge(M as u32 - 1, M as u32, w_last);
        b = b.weighted_edge(M as u32, M as u32 + 1, D + w_last + 1000);
        let g = b.build().unwrap();
        let mut labels = vec![0u32; M + 2];
        labels[M] = 1;
        labels[M + 1] = 1;
        let mut p = Partition::new(labels, 2).unwrap();
        let before = cut_size(&g, &p);
        let stats = refine_fm(&g, &mut p, &opts(2.0, 4), SEED);
        assert_eq!(
            stats.moves,
            M - 1,
            "the positive chain was cut short (stall budget mischarged)"
        );
        assert_eq!(stats.gain, M as u64 - 2 - D as u64);
        assert_eq!(before - cut_size(&g, &p), stats.gain);
    }

    #[test]
    fn parallel_fm_never_increases_cut_and_gain_is_exact() {
        let g = paper_graph(139);
        for seed in 0..5u64 {
            let mut p = random_partition(139, 4, seed);
            let before = cut_size(&g, &p);
            let stats = ParallelFm::new().refine(&g, &mut p, &opts(0.1, 8), SEED ^ seed);
            let after = cut_size(&g, &p);
            assert!(after <= before, "cut increased {before} -> {after}");
            assert_eq!(before - after, stats.gain, "reported gain is not exact");
        }
    }

    #[test]
    fn parallel_fm_respects_balance_and_never_drains_a_part() {
        let g = paper_graph(144);
        let mut p = random_partition(144, 4, 9);
        ParallelFm::new().refine(&g, &mut p, &opts(0.05, 8), SEED);
        let m = PartitionMetrics::compute(&g, &p);
        let cap = (m.avg_load * 1.05).ceil() as u64;
        for &l in &m.part_loads {
            assert!(l <= cap, "load {l} exceeds cap {cap}");
        }
        // Same fixture as the sequential drain test: the improving move
        // would empty part 0, so nothing may commit.
        let g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut p = Partition::new(vec![0, 1, 1], 2).unwrap();
        let stats = ParallelFm::new().refine(&g, &mut p, &opts(1.0, 4), SEED);
        assert_eq!(stats.moves, 0, "a committed move emptied part 0");
        assert!(
            p.part_sizes().iter().all(|&s| s > 0),
            "{:?}",
            p.part_sizes()
        );
    }

    #[test]
    fn parallel_fm_is_bit_identical_across_pool_sizes() {
        let g = paper_graph(150);
        for seed in 0..3u64 {
            let base = random_partition(150, 4, seed);
            let mut reference: Option<(Partition, RefineStats)> = None;
            for threads in [1usize, 2, 4, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut p = base.clone();
                let stats = pool
                    .install(|| ParallelFm::new().refine(&g, &mut p, &opts(0.1, 6), SEED ^ seed));
                match &reference {
                    None => reference = Some((p, stats)),
                    Some((rp, rs)) => {
                        assert_eq!(rp, &p, "labels diverged at {threads} threads (seed {seed})");
                        assert_eq!(rs, &stats, "stats diverged at {threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_fm_hinted_matches_the_unhinted_run() {
        use crate::partition::boundary_nodes;
        let g = paper_graph(120);
        for seed in 0..3u64 {
            let base = random_partition(120, 3, seed);
            let boundary = boundary_nodes(&g, &base);
            let mut full = base.clone();
            let sf = ParallelFm::new().refine(&g, &mut full, &opts(0.1, 6), SEED);
            let mut hinted = base.clone();
            let (loads, counts) = tallies(&g, &base);
            let sh = ParallelFm::new().refine_primed(
                &g,
                &mut hinted,
                &opts(0.1, 6),
                SEED,
                &boundary,
                loads,
                counts,
            );
            assert_eq!(full, hinted, "hinted run diverged (seed {seed})");
            assert_eq!(sf, sh);
        }
    }

    #[test]
    fn parallel_fm_local_region_only_moves_region_nodes() {
        let g = paper_graph(144);
        let mut p = random_partition(144, 4, 5);
        let before = p.clone();
        let region: Vec<u32> = (40..80u32).collect();
        ParallelFm::new().refine_local(&g, &mut p, &opts(0.2, 6), SEED, &region);
        for v in 0..144u32 {
            if !region.contains(&v) {
                assert_eq!(p.part(v), before.part(v), "non-region node {v} moved");
            }
        }
        assert!(cut_size(&g, &p) <= cut_size(&g, &before));
    }

    #[test]
    fn parallel_fm_workspace_reuse_matches_a_fresh_engine() {
        // One engine serving many calls (the V-cycle / streaming usage)
        // must behave exactly like a fresh engine per call, including
        // after a run on a differently-sized graph dirtied every buffer.
        let g = paper_graph(130);
        let warm = paper_graph(88);
        let mut engine = ParallelFm::new();
        let mut wp = random_partition(88, 4, 2);
        engine.refine(&warm, &mut wp, &opts(0.2, 4), SEED);
        for seed in 0..3u64 {
            let base = random_partition(130, 4, seed);
            let mut reused = base.clone();
            let sr = engine.refine(&g, &mut reused, &opts(0.1, 6), SEED ^ seed);
            let mut fresh = base.clone();
            let sf = ParallelFm::new().refine(&g, &mut fresh, &opts(0.1, 6), SEED ^ seed);
            assert_eq!(
                reused, fresh,
                "workspace reuse changed the result (seed {seed})"
            );
            assert_eq!(sr, sf);
        }
    }
}
