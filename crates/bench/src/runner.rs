//! The in-tree microbenchmark runner that replaced `criterion`: a
//! hermetic, zero-dependency harness producing wall-clock medians and
//! JSON output.
//!
//! Design (what the five `benches/*.rs` targets need and nothing
//! more):
//!
//! * per-benchmark iteration-count calibration to a target batch time,
//! * `PS_BENCH_SAMPLES` timed batches (default 11), median-of-batches
//!   per-iteration nanoseconds — the median is robust to scheduler
//!   noise, which is all criterion's statistics bought us here,
//! * optional throughput annotation (elements or bytes per iteration),
//! * virtual-clock metrics for simulation runs ([`Runner::record_virtual`]),
//! * one human-readable line per benchmark plus a final JSON document
//!   (stdout, and `PS_BENCH_JSON=<path>` to also write a file).

use std::time::Instant;

pub use std::hint::black_box;

/// Work performed per iteration, for rate reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iteration processes this many items.
    Elements(u64),
    /// Iteration processes this many bytes.
    Bytes(u64),
}

enum Metric {
    /// Wall-clock median ns/iter over calibrated batches.
    Wall {
        median_ns: f64,
        iters: u64,
        samples: usize,
        throughput: Option<Throughput>,
    },
    /// A virtual-clock (simulation) measurement, reported as-is.
    Virtual { value: f64, unit: String },
}

struct Record {
    id: String,
    metric: Metric,
}

/// A benchmark suite in flight.
pub struct Runner {
    suite: String,
    records: Vec<Record>,
    samples: usize,
    target_ns: u64,
}

impl Runner {
    /// A runner for the named suite. `PS_BENCH_SAMPLES` overrides the
    /// batch count, `PS_BENCH_TARGET_MS` the per-batch calibration
    /// target (default 5 ms).
    pub fn new(suite: &str) -> Runner {
        let samples = ps_rng::env_u64("PS_BENCH_SAMPLES").unwrap_or(11).max(3) as usize;
        let target_ns = ps_rng::env_u64("PS_BENCH_TARGET_MS").unwrap_or(5) * 1_000_000;
        println!(
            "suite {suite}: {samples} samples, ~{} ms/batch",
            target_ns / 1_000_000
        );
        Runner {
            suite: suite.to_string(),
            records: Vec::new(),
            samples,
            target_ns,
        }
    }

    /// Measure `f`, reporting median wall-clock ns per iteration.
    pub fn bench<R>(&mut self, id: &str, throughput: Option<Throughput>, mut f: impl FnMut() -> R) {
        // Warm up and calibrate: double the batch size until one batch
        // reaches the target time.
        let mut iters: u64 = 1;
        loop {
            let t = time_batch(&mut f, iters);
            if t >= self.target_ns as f64 || iters >= 1 << 28 {
                break;
            }
            // Jump close to the target, at least doubling.
            let guess = (self.target_ns as f64 / t.max(1.0) * iters as f64) as u64;
            iters = guess.clamp(iters * 2, iters * 16);
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| time_batch(&mut f, iters) / iters as f64)
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median_ns = per_iter[per_iter.len() / 2];

        let rate = throughput
            .map(|tp| format_rate(tp, median_ns))
            .unwrap_or_default();
        println!("  {id:<48} {median_ns:>12.1} ns/iter  {rate}");
        self.records.push(Record {
            id: id.to_string(),
            metric: Metric::Wall {
                median_ns,
                iters,
                samples: self.samples,
                throughput,
            },
        });
    }

    /// Record a virtual-clock measurement (e.g. simulated packets per
    /// virtual millisecond) produced by a deterministic run.
    pub fn record_virtual(&mut self, id: &str, value: f64, unit: &str) {
        println!("  {id:<48} {value:>12.1} {unit} (virtual clock)");
        self.records.push(Record {
            id: id.to_string(),
            metric: Metric::Virtual {
                value,
                unit: unit.to_string(),
            },
        });
    }

    /// Print the JSON document and (optionally) write it to
    /// `PS_BENCH_JSON`.
    pub fn finish(self) {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"suite\":{},\"results\":[",
            json_str(&self.suite)
        ));
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match &r.metric {
                Metric::Wall {
                    median_ns,
                    iters,
                    samples,
                    throughput,
                } => {
                    out.push_str(&format!(
                        "{{\"id\":{},\"kind\":\"wall\",\"median_ns\":{median_ns:.3},\
                         \"iters\":{iters},\"samples\":{samples}",
                        json_str(&r.id)
                    ));
                    match throughput {
                        Some(Throughput::Elements(n)) => {
                            out.push_str(&format!(",\"elements\":{n}"));
                        }
                        Some(Throughput::Bytes(n)) => out.push_str(&format!(",\"bytes\":{n}")),
                        None => {}
                    }
                    out.push('}');
                }
                Metric::Virtual { value, unit } => {
                    out.push_str(&format!(
                        "{{\"id\":{},\"kind\":\"virtual\",\"value\":{value},\"unit\":{}}}",
                        json_str(&r.id),
                        json_str(unit)
                    ));
                }
            }
        }
        out.push_str("]}");
        println!("{out}");
        if let Ok(path) = std::env::var("PS_BENCH_JSON") {
            if let Err(e) = std::fs::write(&path, &out) {
                eprintln!("ps-bench: cannot write {path}: {e}");
            }
        }
    }
}

fn time_batch<R>(f: &mut impl FnMut() -> R, iters: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t0.elapsed().as_nanos() as f64
}

fn format_rate(tp: Throughput, median_ns: f64) -> String {
    match tp {
        Throughput::Elements(n) => {
            let per_sec = n as f64 / median_ns * 1e9;
            format!("({:.1} Melem/s)", per_sec / 1e6)
        }
        Throughput::Bytes(n) => {
            let per_sec = n as f64 / median_ns * 1e9;
            format!("({:.2} Gbit/s)", per_sec * 8.0 / 1e9)
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\u000ay\"");
    }

    #[test]
    fn rate_formatting() {
        // 4096 elements at 4096 ns = 1 Gelem/s.
        assert_eq!(
            format_rate(Throughput::Elements(4096), 4096.0),
            "(1000.0 Melem/s)"
        );
        // 1000 bytes at 1000 ns = 8 Gbit/s.
        assert_eq!(
            format_rate(Throughput::Bytes(1000), 1000.0),
            "(8.00 Gbit/s)"
        );
    }

    #[test]
    fn bench_produces_a_wall_record() {
        std::env::remove_var("PS_BENCH_JSON");
        let mut r = Runner {
            suite: "test".into(),
            records: Vec::new(),
            samples: 3,
            target_ns: 10_000, // tiny target: keep the test fast
        };
        let mut acc = 0u64;
        r.bench("noop_add", Some(Throughput::Elements(1)), || {
            acc = acc.wrapping_add(1);
            acc
        });
        assert_eq!(r.records.len(), 1);
        match &r.records[0].metric {
            Metric::Wall {
                median_ns, iters, ..
            } => {
                assert!(*median_ns > 0.0);
                assert!(*iters >= 2);
            }
            Metric::Virtual { .. } => panic!("expected wall metric"),
        }
        r.finish();
    }

    #[test]
    fn virtual_records_pass_through() {
        let mut r = Runner {
            suite: "test".into(),
            records: Vec::new(),
            samples: 3,
            target_ns: 1,
        };
        r.record_virtual("sim/throughput", 39.5, "Gbps");
        match &r.records[0].metric {
            Metric::Virtual { value, unit } => {
                assert_eq!(*value, 39.5);
                assert_eq!(unit, "Gbps");
            }
            Metric::Wall { .. } => panic!("expected virtual metric"),
        }
    }
}
