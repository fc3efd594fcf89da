//! # ps-bench — the paper-reproduction harness
//!
//! One module per evaluation artifact: every table and figure in the
//! paper's §2 and §6 has a function here that regenerates it from the
//! simulation and prints paper-vs-measured rows. The `ps-bench` binary
//! dispatches to these; integration tests assert the shapes.

pub mod baseline;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod trace;
pub mod workloads;

use std::time::Instant;

/// Milliseconds of virtual time per throughput measurement. Raise for
/// smoother numbers, lower for faster runs.
pub(crate) fn window_ms() -> u64 {
    std::env::var("PS_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Print a rule line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Print an experiment header.
pub fn header(title: &str) {
    println!();
    rule(72);
    println!("{title}");
    rule(72);
}

/// Time a closure in wall-clock seconds (the harness reports how long
/// each reproduction took to simulate).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
