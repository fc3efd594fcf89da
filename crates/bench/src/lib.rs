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

/// Milliseconds of virtual time per throughput measurement
/// (`PS_BENCH_MS`, default 2). Raise for smoother numbers, lower for
/// faster runs.
///
/// # Panics
///
/// When `PS_BENCH_MS` is set to anything but a decimal or `0x`-hex
/// count of at least 1, naming the variable.
pub(crate) fn window_ms() -> u64 {
    match ps_rng::env_u64("PS_BENCH_MS") {
        None => 2,
        Some(0) => panic!("PS_BENCH_MS=0: a throughput window needs at least 1 ms"),
        Some(ms) => ms,
    }
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
