//! The host's own speed, measured with a fixed reference kernel, and
//! the end-to-end timings scaled to a nominal host speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by a fifth over minutes, so the same code read 11–33% apart in two
//! sets of runs made back to back. The kernel is the benchmark's own
//! code (no gapart code and no rayon), so a change to the program under
//! test cannot move it. It runs on one thread between the workload's
//! units of work, and each end-to-end timing is reported as
//! `raw × NOMINAL_S / kernel median`: the seconds it would take on a host
//! that runs the kernel in [`NOMINAL_S`]. The raw timing is printed
//! beside it.
//!
//! The kernel is single-threaded on purpose. Two copies on two threads
//! take from 1.05 to 2 times as long as one, as the host lends the
//! second vCPU or not, while `serve-mesh-growth`'s own timings did not
//! move with it.

use crate::report::Report;
use crate::stats::median;
use std::time::Instant;

/// Words of the kernel's table: 512 KiB, the size of a graph's hot
/// arrays at the coarser levels.
const TABLE: usize = 1 << 17;
/// Table updates per kernel call.
const STEPS: u32 = 4_000_000;
/// Nominal seconds of one kernel call: about its median on the host the
/// benchmark was tuned on (see `NOTES.md`).
pub const NOMINAL_S: f64 = 0.030;
/// Kernel samples taken after each unit of work.
const SAMPLES_PER_UNIT: usize = 3;

/// Random reads and writes over a table, with a data dependence from
/// each step to the next.
fn kernel(seed: u64) -> u64 {
    let mut table: Vec<u32> = (0..TABLE as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B1))
        .collect();
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x ^ acc) as usize & (TABLE - 1);
        acc = acc.wrapping_add(u64::from(table[i]));
        table[i] = table[i].wrapping_add(acc as u32);
    }
    acc
}

/// Reference-kernel timings taken over a run, in seconds.
#[derive(Debug, Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// Times the kernel a few times. Call it after a unit of work, so
    /// that the kernel's memory does not count in a peak RSS read at the
    /// unit's end.
    pub fn sample(&mut self) {
        for _ in 0..SAMPLES_PER_UNIT {
            let start = Instant::now();
            std::hint::black_box(kernel(self.0.len() as u64));
            self.0.push(start.elapsed().as_secs_f64());
        }
    }

    /// Reports the end-to-end timing `name` scaled to the nominal host
    /// speed, and prints the raw timing and the kernel medians.
    pub fn metric(&self, report: &mut Report, name: &str, raw_s: Option<f64>) {
        if let Some(raw) = raw_s {
            report.info(&format!("{name}.raw"), raw, "s");
        }
        let kernel_s = median(&self.0);
        if let Some(k) = kernel_s {
            report.info("host.kernel_ms", k * 1e3, "ms");
        }
        let scaled = raw_s.zip(kernel_s).map(|(raw, k)| raw * NOMINAL_S / k);
        report.metric_opt(name, scaled, "s");
    }
}
