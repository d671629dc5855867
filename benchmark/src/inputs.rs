//! Input generation. Every input file is a pure function of the
//! workload seed (and of fixed sizes), so the same seed gives
//! byte-identical files; the program under test only ever sees the files.

use crate::Workload;
use gapart_graph::dynamic::scenario::{generate, Scenario, TraceSpec};
use gapart_graph::dynamic::trace::trace_to_text;
use gapart_graph::generators::{grid2d, jittered_mesh, paper_graph, GridKind, PAPER_SIZES};
use gapart_graph::incremental::grow_local;
use gapart_graph::io::{coords_to_text, to_metis};
use std::path::Path;

/// Side of the `vcycle-grid-1m` grid.
pub const GRID_SIDE: usize = 1000;
/// Nodes of the `serve-mesh-growth` starting mesh.
pub const MESH_NODES: usize = 20_000;
/// Batches in each `serve-mesh-growth` trace (one session's stream).
pub const STREAM_BATCHES: usize = 256;
/// Distinct `serve-mesh-growth` traces; sessions cycle through them.
pub const TRACES: usize = 4;
/// Nodes each `mesh-growth` batch adds.
pub const BATCH_NODES: usize = 20;
/// The paper's Table 3 incremental cells: (base nodes, added nodes).
pub const TABLE3: [(usize, usize); 4] = [(118, 21), (118, 41), (183, 30), (183, 60)];

/// A generated input: file name and contents.
pub type InputFile = (String, String);

/// SplitMix64 of `seed` mixed with `tag`: independent sub-seeds for each
/// generated input and each solve of a run.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const TAG_GROW: u64 = 0x6772_6f77;
const TAG_MESH: u64 = 0x6d65_7368;
const TAG_TRACE: u64 = 0x7472_6163;

/// Name of the grown graph file for a Table 3 cell.
pub fn grown_name(base: usize, added: usize) -> String {
    format!("grown-{base}+{added}.metis")
}

/// The 1000×1000 4-connected grid, as METIS text. The grid does not
/// depend on the seed; the seed picks the solve seeds.
pub fn vcycle_inputs(side: usize) -> Vec<InputFile> {
    let grid = grid2d(side, side, GridKind::FourConnected);
    vec![("grid.metis".to_string(), to_metis(&grid))]
}

/// The paper's 13 graphs and the Table 3 graphs grown from their bases
/// by `grow_local` with a seed-derived growth seed.
pub fn paper_inputs(seed: u64) -> Vec<InputFile> {
    let mut files: Vec<InputFile> = PAPER_SIZES
        .iter()
        .map(|&n| (format!("paper-{n}.metis"), to_metis(&paper_graph(n))))
        .collect();
    for (i, &(base, added)) in TABLE3.iter().enumerate() {
        let grown = grow_local(&paper_graph(base), added, derive(seed, TAG_GROW + i as u64))
            .expect("paper graphs carry coordinates")
            .graph;
        files.push((grown_name(base, added), to_metis(&grown)));
    }
    files
}

/// Name of the `i`-th `mesh-growth` trace file.
pub fn trace_name(i: usize) -> String {
    format!("growth-{i}.trace")
}

/// A jittered mesh with coordinates and [`TRACES`] independent
/// `mesh-growth` traces on it.
pub fn serve_inputs(seed: u64, nodes: usize, batches: usize) -> Vec<InputFile> {
    let mesh = jittered_mesh(nodes, derive(seed, TAG_MESH));
    let coords = mesh.coords().expect("meshes carry coordinates");
    let mut files = vec![
        ("mesh.metis".to_string(), to_metis(&mesh)),
        ("mesh.xy".to_string(), coords_to_text(coords)),
    ];
    for i in 0..TRACES {
        let spec = TraceSpec {
            batches,
            ops_per_batch: BATCH_NODES,
            seed: derive(seed, TAG_TRACE + i as u64),
        };
        let trace = generate(&mesh, Scenario::MeshGrowth, &spec).expect("meshes carry coordinates");
        files.push((trace_name(i), trace_to_text(&trace)));
    }
    files
}

/// The inputs of `workload` at full size.
pub fn inputs(workload: Workload, seed: u64) -> Vec<InputFile> {
    match workload {
        Workload::VcycleGrid1m => vcycle_inputs(GRID_SIDE),
        Workload::PaperGa => paper_inputs(seed),
        Workload::ServeMeshGrowth => serve_inputs(seed, MESH_NODES, STREAM_BATCHES),
    }
}

/// Writes `files` into `dir` (created if absent).
pub fn write(dir: &Path, files: &[InputFile]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, text) in files {
        std::fs::write(dir.join(name), text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(vcycle_inputs(20), vcycle_inputs(20));
        assert_eq!(paper_inputs(7), paper_inputs(7));
        assert_eq!(serve_inputs(7, 400, 6), serve_inputs(7, 400, 6));
    }

    #[test]
    fn the_seed_changes_the_seeded_inputs() {
        let differs = |a: &[InputFile], b: &[InputFile], name: &str| {
            let get = |files: &[InputFile]| files.iter().find(|f| f.0 == name).cloned();
            get(a) != get(b)
        };
        let (a, b) = (paper_inputs(7), paper_inputs(8));
        assert!(
            !differs(&a, &b, "paper-78.metis"),
            "the paper graphs are fixed"
        );
        assert!(differs(&a, &b, &grown_name(118, 21)));
        let (a, b) = (serve_inputs(7, 400, 6), serve_inputs(8, 400, 6));
        assert!(differs(&a, &b, "mesh.xy"), "the seed jitters the mesh");
        assert!(differs(&a, &b, &trace_name(0)));
        assert!(
            differs(&a, &a[3..], &trace_name(0)) && a[2].1 != a[3].1,
            "traces differ"
        );
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|i| derive(0x5343_3934, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }
}
