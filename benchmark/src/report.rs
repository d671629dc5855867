//! Output checks, metrics, and the one-line JSON result.

use gapart_graph::partition::cut_size;
use gapart_graph::{CsrGraph, Partition};
use std::collections::BTreeMap;

/// Operation outcomes: every operation runs named checks, and fails when
/// any of them fails. Failed checks are tallied by name.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    by_name: BTreeMap<String, u64>,
}

impl Checks {
    /// Records one operation with its named check results.
    pub fn operation(&mut self, results: &[(&str, bool)]) {
        self.attempted += 1;
        let mut ok = true;
        for &(name, passed) in results {
            if !passed {
                ok = false;
                *self.by_name.entry(name.to_string()).or_default() += 1;
            }
        }
        if !ok {
            self.failed += 1;
        }
    }

    /// Records one operation that failed outright (an error return).
    pub fn error(&mut self, name: &str, message: &str) {
        eprintln!("error in {name}: {message}");
        self.operation(&[(name, false)]);
    }
}

/// Everything one workload run reports.
#[derive(Debug)]
pub struct Report {
    /// Operation checks.
    pub checks: Checks,
    /// Metric names the result line must carry, in `BENCHMARK.json`'s
    /// order.
    expected: &'static [&'static str],
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report whose result line must carry `expected`.
    pub fn new(expected: &'static [&'static str]) -> Report {
        Report {
            checks: Checks::default(),
            expected,
            metrics: Vec::new(),
        }
    }

    /// Adds a metric. A non-finite value is a failed check, not a metric:
    /// the result line must stay valid JSON.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name.to_string(), value, unit));
        } else {
            self.checks
                .operation(&[(&format!("metric.{name}.finite"), false)]);
        }
    }

    /// Adds a metric when the value exists (e.g. a supported percentile).
    pub fn metric_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.metric(name, v, unit),
            None => eprintln!("{name}: not enough samples, not reported"),
        }
    }

    /// Prints a figure that is not a metric of this run: a layer only
    /// this workload exercises. It goes on its own line, before the
    /// result.
    pub fn info(&self, name: &str, value: f64, unit: &str) {
        println!("layer {name} = {value:.4} {unit}");
    }

    /// Prints the failed checks by name, then the JSON result line. A
    /// metric that should be there and is not, or is there and should
    /// not be, is a failed check.
    pub fn print(&mut self) {
        let names: Vec<&str> = self.metrics.iter().map(|m| m.0.as_str()).collect();
        let missing: Vec<&str> = self
            .expected
            .iter()
            .copied()
            .filter(|n| !names.contains(n))
            .collect();
        let extra: Vec<String> = names
            .iter()
            .filter(|n| !self.expected.contains(n))
            .map(|n| n.to_string())
            .collect();
        for name in missing {
            self.checks
                .operation(&[(&format!("metric.{name}.reported"), false)]);
        }
        for name in extra {
            self.checks
                .operation(&[(&format!("metric.{name}.in_manifest"), false)]);
        }
        for (name, count) in &self.checks.by_name {
            println!("FAIL {name} x{count}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        );
    }
}

/// The output checks every partition goes through: labels in range and
/// covering the graph, no empty part, and the reported cut equal to the
/// cut recomputed from the graph.
pub fn partition_checks(
    graph: &CsrGraph,
    partition: &Partition,
    parts: u32,
    reported_cut: u64,
) -> [(&'static str, bool); 3] {
    let labels_ok = partition.num_nodes() == graph.num_nodes()
        && partition.num_parts() == parts
        && partition.labels().iter().all(|&l| l < parts);
    let no_empty = labels_ok && partition.part_sizes().iter().all(|&s| s > 0);
    let cut_ok = labels_ok && cut_size(graph, partition) == reported_cut;
    [
        ("partition.labels_in_range", labels_ok),
        ("partition.no_empty_part", no_empty),
        ("partition.cut_matches", cut_ok),
    ]
}

/// Max part load over the ideal load `total / parts`.
pub fn max_over_ideal(graph: &CsrGraph, partition: &Partition) -> f64 {
    let parts = partition.num_parts() as usize;
    let mut loads = vec![0u64; parts];
    for (v, &l) in partition.labels().iter().enumerate() {
        loads[l as usize] += graph.node_weight(v as u32) as u64;
    }
    let ideal = graph.total_node_weight() as f64 / parts as f64;
    loads.into_iter().max().unwrap_or(0) as f64 / ideal
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
