//! The metric vocabulary: every name the benchmark emits, with its
//! unit and the clock it is read from. `BENCHMARK.json` lists the
//! same names (a test holds the two together); the bounds live only
//! there and are parsed from the copy embedded at build time.

use std::fmt::Write as _;

/// The text of `BENCHMARK.json` this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which clock a number is read from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Wall time of the simulator itself; noisy on a shared host.
    Host,
    /// The modelled router's own result; exact per seed.
    Sim,
    /// An exact work count; repeats bit-for-bit.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

/// A metric's fixed part.
#[derive(Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
}

const fn def(name: &'static str, unit: &'static str, clock: Clock) -> Def {
    Def { name, unit, clock }
}

/// What a user of the simulator sees; the same set on every workload.
pub const END_TO_END: [Def; 11] = [
    def("host_ns_per_pkt", "ns/pkt", Clock::Host),
    def("setup_s", "s", Clock::Host),
    def("peak_rss_mb", "MiB", Clock::Host),
    def("events_per_pkt", "events/pkt", Clock::Count),
    def("allocs_per_pkt", "allocs/pkt", Clock::Count),
    def("alloc_bytes_per_pkt", "B/pkt", Clock::Count),
    def("sim_out_gbps", "Gbit/s", Clock::Sim),
    def("sim_delivered_ratio", "ratio", Clock::Sim),
    def("sim_rtt_p50_us", "us", Clock::Sim),
    def("sim_rtt_p99_us", "us", Clock::Sim),
    def("sim_rtt_p999_us", "us", Clock::Sim),
];

/// Single layers, from the traced run and the micro-probes. Layer
/// prefixes are the repository's modules.
pub const PER_LAYER: [Def; 47] = [
    // ps-sim scheduler
    def("sim.sched_ns_per_pkt", "ns/pkt", Clock::Host),
    def("sim.ns_per_event", "ns/event", Clock::Host),
    def("sim.probe_ns_per_event", "ns/event", Clock::Host),
    // ps-pktgen + router::rx::on_gen (+ NIC/IOH admission)
    def("gen.ns_per_pkt", "ns/pkt", Clock::Host),
    def("gen.events_per_pkt", "events/pkt", Clock::Count),
    def("gen.allocs_per_pkt", "allocs/pkt", Clock::Count),
    def("pktgen.next_meta_ns", "ns", Clock::Host),
    def("pktgen.materialize_ns", "ns", Clock::Host),
    // router::rx::on_rx_ready + ps-nic::Ring
    def("rx.ns_per_pkt", "ns/pkt", Clock::Host),
    def("rx.events_per_pkt", "events/pkt", Clock::Count),
    def("nic.ring_push_pop_ns", "ns", Clock::Host),
    def("nic.peak_ring_depth", "pkts", Clock::Sim),
    def("nic.admission_drops_per_kpkt", "1/kpkt", Clock::Sim),
    def("nic.ring_tail_drops_per_kpkt", "1/kpkt", Clock::Sim),
    // router::dispatch worker + TX
    def("worker.self_ns_per_pkt", "ns/pkt", Clock::Host),
    def("worker.events_per_pkt", "events/pkt", Clock::Count),
    def("worker.allocs_per_pkt", "allocs/pkt", Clock::Count),
    def("worker.rx_batch_mean", "pkts", Clock::Sim),
    def("tx.ns_per_pkt", "ns/pkt", Clock::Host),
    def("tx.events_per_pkt", "events/pkt", Clock::Count),
    // router::master
    def("master.self_ns_per_pkt", "ns/pkt", Clock::Host),
    def("master.events_per_pkt", "events/pkt", Clock::Count),
    def("master.useful_event_ratio", "ratio", Clock::Count),
    def("master.allocs_per_pkt", "allocs/pkt", Clock::Count),
    def("master.shade_batch_mean", "pkts", Clock::Sim),
    // ps-core::apps (+ ps-lookup, ps-crypto, ps-flow)
    def("app.pre_shade_ns_per_pkt", "ns/pkt", Clock::Host),
    def("app.process_cpu_ns_per_pkt", "ns/pkt", Clock::Host),
    def("app.shade_ns_per_pkt", "ns/pkt", Clock::Host),
    def("app.allocs_per_pkt", "allocs/pkt", Clock::Count),
    def("app.pre_shade_iso_ns", "ns", Clock::Host),
    def("app.process_cpu_iso_ns", "ns", Clock::Host),
    def("app.shade_iso_ns", "ns", Clock::Host),
    def("lookup.dir24_ns", "ns", Clock::Host),
    def("crypto.esp_ns_per_byte", "ns/B", Clock::Host),
    def("flow.lookup_hit_ns", "ns", Clock::Host),
    def("flow.insert_ns", "ns", Clock::Host),
    // ps-core::columns + ps-gpu
    def("gpu.kernels_per_kpkt", "1/kpkt", Clock::Sim),
    def("gpu.h2d_bytes_per_pkt", "B/pkt", Clock::Sim),
    def("gpu.d2h_bytes_per_pkt", "B/pkt", Clock::Sim),
    def("gpu.exec_ns_per_thread", "ns/thread", Clock::Host),
    def("gpu.timing_ns_per_launch", "ns/launch", Clock::Host),
    // router::parallel + ps-sim::shard
    def("shard.x2_wall_ratio", "ratio", Clock::Host),
    // run shape
    def("run.slice_ns_per_pkt_p50", "ns/pkt", Clock::Host),
    def("run.slice_ns_per_pkt_p95", "ns/pkt", Clock::Host),
    def("run.last_vs_first_quarter_ratio", "ratio", Clock::Host),
    def("trace.overhead_ratio", "ratio", Clock::Host),
    def("model.ceiling_err_vs_paper_pct", "%", Clock::Sim),
];

/// One emitted number.
pub struct Metric {
    pub def: Def,
    pub value: f64,
    /// What the value is a statistic of, e.g. "median of 7 repeats".
    pub samples: String,
}

/// The values of one list of definitions, filled in by name. Emitting
/// an unknown name, emitting one twice, or leaving one out is a bug
/// in the benchmark and panics.
pub struct Sheet {
    defs: &'static [Def],
    values: Vec<Option<(f64, String)>>,
}

impl Sheet {
    pub fn new(defs: &'static [Def]) -> Sheet {
        Sheet {
            defs,
            values: vec![None; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: impl Into<String>) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not defined"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        assert!(value.is_finite(), "metric {name} is not a finite number");
        self.values[i] = Some((value, samples.into()));
    }

    /// Every definition not yet set becomes 0 with `samples` as the
    /// note: the layer does not exist on this workload.
    pub fn zero_rest(&mut self, samples: &str) {
        for v in self.values.iter_mut().filter(|v| v.is_none()) {
            *v = Some((0.0, samples.to_string()));
        }
    }

    pub fn finish(self) -> Vec<Metric> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(&def, v)| {
                let (value, samples) = v.unwrap_or_else(|| panic!("metric {} not set", def.name));
                Metric {
                    def,
                    value,
                    samples,
                }
            })
            .collect()
    }
}

/// The human-readable table.
pub fn table(workload: &str, metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let _ = writeln!(
            s,
            "{workload:<22} {:<32} {:>18.6} {:<11} {:<5} {}",
            m.def.name,
            m.value,
            m.def.unit,
            m.def.clock.label(),
            m.samples
        );
    }
    s
}

/// The result line the contract asks for: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, every value with all its
/// digits.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.def.name, m.value, m.def.unit
        );
    }
    s.push_str("}}");
    s
}

/// `(name, value)` pairs back out of a [`result_line`]. Not a JSON
/// parser: it reads exactly the shape `result_line` writes.
pub fn parse_result_line(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(at) = line.find("\"metrics\": {") else {
        return out;
    };
    let mut rest = &line[at + 12..];
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(end) = after.find('"') else { break };
        let name = &after[..end];
        let Some(v) = after.find("\"value\": ") else {
            break;
        };
        let num = &after[v + 9..];
        let stop = num.find([',', '}']).unwrap_or(num.len());
        let Ok(value) = num[..stop].trim().parse::<f64>() else {
            break;
        };
        out.push((name.to_string(), value));
        let Some(close) = num.find('}') else { break };
        rest = &num[close + 1..];
    }
    out
}

/// One `end_to_end` / `per_layer` entry of `BENCHMARK.json`.
#[derive(Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// `None` for `per_layer` entries, which carry no bound.
    pub bound: Option<f64>,
}

fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let at = obj.find(&format!("\"{key}\":"))?;
    let v = obj[at + key.len() + 3..].trim_start();
    Some(match v.strip_prefix('"') {
        Some(s) => &s[..s.find('"')?],
        None => v[..v.find([',', '}']).unwrap_or(v.len())].trim(),
    })
}

/// The entries of top-level array `section` in `BENCHMARK.json`
/// text. Like [`parse_result_line`], a reader for one known shape:
/// a flat array of flat objects.
pub fn declared(json: &str, section: &str) -> Vec<Declared> {
    let Some(at) = json.find(&format!("\"{section}\":")) else {
        return Vec::new();
    };
    let body = &json[at..];
    let body = &body[body.find('[').map_or(0, |i| i + 1)..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split('{')
        .skip(1)
        .filter_map(|obj| {
            Some(Declared {
                name: field(obj, "name")?.to_string(),
                unit: field(obj, "unit")?.to_string(),
                better: field(obj, "better")?.to_string(),
                bound: field(obj, "bound").and_then(|b| b.parse().ok()),
            })
        })
        .collect()
}

/// The top-level `run_seconds` of `BENCHMARK.json`: how long one run
/// measures when `--seconds` is not given.
pub fn run_seconds(json: &str) -> f64 {
    field(json, "run_seconds")
        .and_then(|v| v.parse().ok())
        .expect("BENCHMARK.json has run_seconds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "name {}", d.name);
            assert!(unit_ok(d.unit), "unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} used twice", d.name);
        }
        for w in workloads::NAMES {
            assert!(name_ok(w) && seen.insert(w), "workload {w}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let decl = declared(BENCHMARK_JSON, section);
            let want: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            let got: Vec<(&str, &str)> = decl
                .iter()
                .map(|d| (d.name.as_str(), d.unit.as_str()))
                .collect();
            assert_eq!(got, want, "{section}");
            for d in &decl {
                assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
                match section {
                    "end_to_end" => {
                        let b = d.bound.unwrap_or_else(|| panic!("{} has no bound", d.name));
                        assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
                    }
                    _ => assert_eq!(d.bound, None, "{}", d.name),
                }
            }
        }
        let setup = declared(BENCHMARK_JSON, "end_to_end")
            .into_iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_workloads() {
        let at = BENCHMARK_JSON.find("\"workloads\":").unwrap();
        let body = &BENCHMARK_JSON[at..];
        let body = &body[..body.find(']').unwrap()];
        let got: Vec<&str> = body
            .split('{')
            .skip(1)
            .filter_map(|o| field(o, "name"))
            .collect();
        assert_eq!(got, workloads::NAMES);
        assert!(run_seconds(BENCHMARK_JSON) >= 1.0);
    }

    #[test]
    fn result_line_round_trips_and_keeps_every_digit() {
        let mut sheet = Sheet::new(&END_TO_END);
        sheet.set("host_ns_per_pkt", 1_234.567_890_123_4, "n=1");
        sheet.set("setup_s", 1.0e-5, "n=1");
        sheet.zero_rest("n/a");
        let line = result_line(10, 0, &sheet.finish());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.ends_with("}}"));
        let back = parse_result_line(&line);
        assert_eq!(back.len(), END_TO_END.len());
        assert_eq!(
            back[0],
            ("host_ns_per_pkt".to_string(), 1_234.567_890_123_4)
        );
        assert_eq!(back[1], ("setup_s".to_string(), 1.0e-5));
        assert!(result_line(10, 3, &[]).contains("\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not defined")]
    fn sheet_rejects_unknown_names() {
        Sheet::new(&END_TO_END).set("no.such.metric", 1.0, "");
    }

    #[test]
    #[should_panic(expected = "not set")]
    fn sheet_rejects_missing_values() {
        Sheet::new(&END_TO_END).finish();
    }
}
