//! `--compare FIRST SECOND`: the repeatability self-test behind
//! `check.sh`. Both files hold the output of a full run of the same
//! tree at the same seed. Count and sim metrics must read
//! identically; host metrics must agree within the bound
//! `BENCHMARK.json` gives them. Prints the observed distance for
//! every metric.

use std::process::ExitCode;

use crate::metrics::{self, Clock, Declared};
use crate::stats::rel_diff;

/// `(workload, metrics)` for every result line in `text`. The
/// workload is named by the `# workload NAME ...` header above it.
fn results(text: &str) -> Vec<(String, Vec<(String, f64)>)> {
    let mut out = Vec::new();
    let mut workload = String::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# workload ") {
            workload = rest.split(' ').next().unwrap_or("").to_string();
        } else if line.starts_with("{\"correct\":") {
            out.push((workload.clone(), metrics::parse_result_line(line)));
        }
    }
    out
}

/// One metric of one workload in both runs: `Ok(distance)` or
/// `Err(distance)` when it breaks its rule.
fn judge(clock: Clock, bound: f64, a: f64, b: f64) -> Result<f64, f64> {
    let d = rel_diff(a, b);
    let ok = match clock {
        Clock::Host => d <= bound,
        Clock::Sim | Clock::Count => a == b,
    };
    if ok {
        Ok(d)
    } else {
        Err(d)
    }
}

fn compare(first: &str, second: &str, declared: &[Declared]) -> (String, usize) {
    let (ra, rb) = (results(first), results(second));
    let mut report = String::new();
    let mut bad = 0;
    if ra.is_empty() || ra.len() != rb.len() {
        return (
            format!(
                "the two runs hold {} and {} result lines\n",
                ra.len(),
                rb.len()
            ),
            1,
        );
    }
    for ((wa, ma), (wb, mb)) in ra.iter().zip(&rb) {
        if wa != wb || ma.len() != mb.len() {
            report += &format!("{wa} / {wb}: result lines do not pair up\n");
            bad += 1;
            continue;
        }
        for ((name, a), (_, b)) in ma.iter().zip(mb) {
            let def = metrics::END_TO_END
                .iter()
                .chain(&metrics::PER_LAYER)
                .find(|d| d.name == name);
            let Some(def) = def else {
                report += &format!("{wa} {name}: not a known metric\n");
                bad += 1;
                continue;
            };
            // Per-layer metrics carry no bound: report, never fail.
            let bound = declared
                .iter()
                .find(|d| &d.name == name)
                .and_then(|d| d.bound);
            let (verdict, d) = match bound {
                None => ("info", rel_diff(*a, *b)),
                Some(bound) => match judge(def.clock, bound, *a, *b) {
                    Ok(d) => ("ok", d),
                    Err(d) => {
                        bad += 1;
                        ("FAIL", d)
                    }
                },
            };
            report += &format!(
                "{verdict:<4} {wa:<22} {name:<32} {:<5} {a:>16.6} {b:>16.6}  differ {:>8.4} %{}\n",
                def.clock.label(),
                d * 100.0,
                match (def.clock, bound) {
                    (Clock::Host, Some(b)) => format!("  (bound {} %)", b * 100.0),
                    (_, Some(_)) => "  (must be identical)".to_string(),
                    _ => String::new(),
                }
            );
        }
    }
    (report, bad)
}

pub fn files(first: &str, second: &str) -> ExitCode {
    let read = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| {
            eprintln!("{p}: {e}");
            ExitCode::from(2)
        })
    };
    let (a, b) = match (read(first), read(second)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let declared = metrics::declared(metrics::BENCHMARK_JSON, "end_to_end");
    let (report, bad) = compare(&a, &b, &declared);
    print!("{report}");
    if bad == 0 {
        println!("check passed: the two runs agree within the benchmark's own bounds");
        ExitCode::SUCCESS
    } else {
        println!("check FAILED: {bad} metric(s) outside their rule");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, Sheet};

    fn run_text(host: f64, events: f64) -> String {
        let mut s = Sheet::new(&metrics::END_TO_END);
        s.set("host_ns_per_pkt", host, "");
        s.set("events_per_pkt", events, "");
        s.zero_rest("");
        format!(
            "# workload minimal-64B-cpu seed 42 virtual 125 ms\nnoise\n{}\n",
            result_line(1, 0, &s.finish())
        )
    }

    fn declared() -> Vec<Declared> {
        metrics::declared(metrics::BENCHMARK_JSON, "end_to_end")
    }

    #[test]
    fn identical_runs_pass() {
        let t = run_text(400.0, 2.96);
        let (report, bad) = compare(&t, &t, &declared());
        assert_eq!(bad, 0, "{report}");
        assert!(report.contains("minimal-64B-cpu"));
    }

    #[test]
    fn host_metric_may_move_inside_its_bound_only() {
        let bound = declared()
            .iter()
            .find(|d| d.name == "host_ns_per_pkt")
            .and_then(|d| d.bound)
            .unwrap();
        let inside = run_text(400.0 * (1.0 + bound * 0.9), 2.96);
        let outside = run_text(400.0 * (1.0 + bound * 1.5), 2.96);
        assert_eq!(compare(&run_text(400.0, 2.96), &inside, &declared()).1, 0);
        assert_eq!(compare(&run_text(400.0, 2.96), &outside, &declared()).1, 1);
    }

    #[test]
    fn count_metric_must_be_identical() {
        let (report, bad) = compare(
            &run_text(400.0, 2.96),
            &run_text(400.0, 2.960_000_1),
            &declared(),
        );
        assert_eq!(bad, 1);
        assert!(report.contains("FAIL"));
    }

    #[test]
    fn missing_results_fail() {
        assert_eq!(compare("", "", &declared()).1, 1);
        assert_eq!(compare(&run_text(1.0, 1.0), "", &declared()).1, 1);
    }
}
