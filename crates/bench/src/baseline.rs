//! `ps-bench --baseline` / `--compare` — the exact-count regression
//! gate — and `--scaling`, the shard scaling matrix.
//!
//! `BENCH_baseline.json` (`ps-bench-baseline/v2`) holds only what
//! reproduces bit-for-bit at a fixed seed on any host, as
//! `{id, metric, unit, value}` rows, and `--compare` gates every row
//! at **equality**: a one-packet or one-event drift fails on any
//! runner. Host time is claimed only with `benchmark/run.sh` under
//! its pairing rules, never here. Three row families:
//!
//! * per grid id: `pkts` delivered, scheduler `events` dispatched and
//!   packets `generated` over the window (`events / generated` is the
//!   benchmark's `events_per_pkt`), on the sequential path
//!   (`Router::new` + `Simulation::run_until`, the count
//!   `tests/event_budget.rs` reads) whatever `PS_SHARDS` says;
//! * `bytes-h2d/*` (staging bytes per staged packet per staging mode)
//!   and `latency-p99/*` (p99 RX→TX sojourn per latency mode and
//!   load), through `Router::run`: under `PS_SHARDS=2` they also show
//!   the sharded run reporting the same numbers.
//!
//! `--scaling` is the one place ps-bench reads a wall clock; nothing
//! of it is recorded (see [`scaling_verdicts`]).

use std::collections::BTreeMap;
use std::time::Instant;

use ps_core::apps::{ForwardPattern, IpsecApp, LbApp, MinimalApp, NatApp};
use ps_core::router::{shard_threads, Ev};
use ps_core::{App, LatencyConfig, Router, RouterConfig, RouterReport, Staging};
use ps_pktgen::{Generator, TrafficKind, TrafficSpec};
use ps_sim::time::Time;
use ps_sim::{Simulation, MILLIS};

use crate::experiments::nfv;
use crate::report::{self, Val};
use crate::workloads::{ipv4_app, ipv6_app, openflow_app, spec};
use crate::{header, window_ms};

/// The schema `--baseline` writes and `--compare` accepts.
pub(crate) const SCHEMA: &str = "ps-bench-baseline/v2";

/// One exact row. `value` is gated on its written text: a
/// [`Val::Int`], or a [`Val::F3`] at three decimals.
#[derive(Debug, Clone)]
pub struct Row {
    /// Stable workload id (`app/frame`, `sweep/...`, `bytes-h2d/...`).
    pub id: String,
    /// What is counted; `(id, metric)` is the row's identity.
    pub metric: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The count.
    pub value: Val<'static>,
}

fn fields(row: &Row) -> report::Fields<'_> {
    vec![
        ("id", Val::Str(&row.id)),
        ("metric", Val::Str(row.metric)),
        ("unit", Val::Str(row.unit)),
        ("value", row.value),
    ]
}

fn row(id: &str, metric: &'static str, unit: &'static str, value: Val<'static>) -> Row {
    Row {
        id: id.to_string(),
        metric,
        unit,
        value,
    }
}

/// Run one configuration on the sequential path and return
/// `[delivered, events dispatched, generated]`; the last is what the
/// open-loop generator emits in `[0, window)`, counted by replay.
fn counted<A: App>(cfg: RouterConfig, app: A, spec: TrafficSpec, window: Time) -> [u64; 3] {
    let mut sim = Simulation::new(Router::new(cfg, app, spec, window));
    sim.schedule(0, Ev::Gen);
    let events = sim.run_until(window);
    let delivered = sim.model.report(window - window / 5).delivered.packets;
    let mut gen = Generator::new(spec);
    let paced = std::iter::from_fn(|| (gen.next_time() < window).then(|| gen.skip_meta()));
    [delivered, events, paced.count() as u64]
}

/// The three count rows of grid id `id`, summed over its runs.
fn count_rows(out: &mut Vec<Row>, id: &str, runs: &[[u64; 3]]) {
    let sum = |i: usize| Val::Int(runs.iter().map(|r| r[i]).sum());
    out.push(row(id, "pkts", "pkts", sum(0)));
    out.push(row(id, "events", "events", sum(1)));
    out.push(row(id, "generated", "pkts", sum(2)));
}

/// Every row of the baseline, in file order. Table sizes are scaled
/// (not paper-sized) so setup stays small; what matters is that the
/// set is stable across builds.
pub(crate) fn run_workloads() -> Vec<Row> {
    let window = window_ms() * MILLIS;
    let mut out = Vec::new();
    let gpu = RouterConfig::paper_gpu();
    let mut streams = gpu; // §5.4: concurrent copy pays off for IPsec
    streams.concurrent_copy = true;
    let ipsec = || IpsecApp::new([0x42; 16], 0xD00D, b"ps-bench-hmac-key");

    // The four stateless applications at the two edge frame sizes,
    // CPU+GPU pipeline: the configuration every fig11 sweep runs.
    for frame in [64usize, 1514] {
        let v4 = spec(TrafficKind::Ipv4Udp, frame, 80.0);
        let v6 = spec(TrafficKind::Ipv6Udp, frame, 80.0);
        let mut of = v4;
        of.flows = Some(8192);
        let of_app = openflow_app(&of, 8192, 32);
        let mut add = |app: &str, run| count_rows(&mut out, &format!("{app}/{frame}B"), &[run]);
        add("ipv4", counted(gpu, ipv4_app(50_000, 1), v4, window));
        add("ipv6", counted(gpu, ipv6_app(20_000, 2), v6, window));
        add("ipsec", counted(streams, ipsec(), v4, window));
        add("openflow", counted(gpu, of_app, of, window));
    }

    // The stateful NFV tier (DESIGN.md §10) under its standard load:
    // IMIX blend, 512 heavy-tailed keyed flows.
    let imix = nfv::nfv_spec(40.0, 11);
    let nat = NatApp::new(8, 2, 1 << 20, 0);
    let lb = LbApp::new(nfv::backend_pool(), 8, 2, 1 << 20, 0);
    count_rows(&mut out, "nat/imix", &[counted(gpu, nat, imix, window)]);
    count_rows(&mut out, "lb/imix", &[counted(gpu, lb, imix, window)]);

    // Figure 5 sweep: minimal forwarding, 1 core / 2 ports, 64 B,
    // batch 1..128.
    let mut fig5 = spec(TrafficKind::Ipv4Udp, 64, 20.0);
    fig5.ports = 2;
    let runs = [1usize, 2, 4, 8, 16, 32, 64, 128].map(|batch| {
        let app = MinimalApp::new(ForwardPattern::SameNode, 2);
        counted(RouterConfig::fig5(batch), app, fig5, window)
    });
    count_rows(&mut out, "sweep/fig5-ipv4-64B", &runs);

    // IPsec 64 B, CPU-only then CPU+GPU (fig11d's worst cell).
    let v4 = spec(TrafficKind::Ipv4Udp, 64, 80.0);
    let runs = [RouterConfig::paper_cpu(), streams].map(|cfg| counted(cfg, ipsec(), v4, window));
    count_rows(&mut out, "sweep/ipsec-64B", &runs);

    // Host→device staging bytes per staged packet per staging mode:
    // any change to what the column layer ships over PCIe shows here.
    let mut of = v4;
    of.flows = Some(8192);
    for mode in [Staging::Frames, Staging::Soa, Staging::DirectDma] {
        let mut cfg = gpu;
        cfg.staging = mode;
        let of_app = openflow_app(&of, 8192, 32);
        let mut add = |app: &str, r: RouterReport| {
            let id = format!("bytes-h2d/{app}-64B-{}", mode.label());
            let bpp = Val::F3(r.h2d_bytes_per_pkt().unwrap_or(0.0));
            out.push(row(&id, "h2d_bytes_per_pkt", "B/pkt", bpp));
        };
        add("ipv4", Router::run(cfg, ipv4_app(50_000, 1), v4, window));
        add("openflow", Router::run(cfg, of_app, of, window));
    }

    out.extend(latency_p99_rows(window));
    out
}

/// p99 RX→TX sojourn for IPv4 64 B under the fixed and adaptive
/// latency profiles at half load (20 Gbps) and near-ceiling load
/// (40 Gbps), as `latency-p99/ipv4-64B-<load>-<mode>` rows in whole
/// nanoseconds: any change that moves the latency tail changes the
/// row. What the checked-in rows say about governance is narrower
/// than "adaptive wins": near the ceiling adaptive batching cuts the
/// p99 (fixed 194.4 µs, adaptive 122.9 µs), but at half load,
/// *without* opportunistic offload, it is slightly worse (fixed
/// 49.2 µs, adaptive 53.2 µs) — smaller fetches mean more, smaller
/// gathers. The 53.2 → 45.1 µs improvement EXPERIMENTS.md quotes at
/// half load is the adaptive + opportunistic profile of `ps-bench
/// overload`, not these rows.
pub(crate) fn latency_p99_rows(window: Time) -> Vec<Row> {
    let mut out = Vec::new();
    let modes = [
        ("fixed", LatencyConfig::off()),
        ("adaptive", LatencyConfig::adaptive()),
    ];
    for (load, gbps) in [("half", 20.0), ("full", 40.0)] {
        for (mode, latency) in modes {
            let mut cfg = RouterConfig::paper_gpu();
            cfg.latency = latency;
            let traffic = spec(TrafficKind::Ipv4Udp, 64, gbps);
            let r = Router::run(cfg, ipv4_app(50_000, 1), traffic, window);
            let id = format!("latency-p99/ipv4-64B-{load}-{mode}");
            out.push(row(&id, "sojourn_p99", "ns", Val::Int(r.sojourn.p99())));
        }
    }
    out
}

/// Serialize rows to the [`SCHEMA`] JSON.
pub(crate) fn to_json(rows: &[Row]) -> String {
    let window = ("window_ms", Val::Int(window_ms()));
    let rows: Vec<_> = rows.iter().map(fields).collect();
    report::to_json(&[("schema", Val::Str(SCHEMA)), window], &rows)
}

/// Print `title`, run the grid and print its rows.
fn run_and_print(title: &str) -> Vec<Row> {
    header(title);
    let rows = run_workloads();
    println!("{:<36} {:<17} {:>10} unit", "id", "metric", "value");
    for r in &rows {
        let value = r.value.to_string();
        println!("{:<36} {:<17} {value:>10} {}", r.id, r.metric, r.unit);
    }
    rows
}

/// `--baseline`: run the grid and write the JSON snapshot.
pub fn write_baseline(path: &str) -> std::io::Result<()> {
    let rows = run_and_print("Exact-count baseline (identical on every host at a fixed seed)");
    std::fs::write(path, to_json(&rows))?;
    println!("baseline: wrote {path} ({} rows)", rows.len());
    Ok(())
}

/// Read a baseline file into `"<id> <metric>"` → value text. `Err` is a
/// one-line reason the file cannot be compared at all: its header is
/// not what this run writes (an older schema, another window), a row
/// repeats, or a row lacks `id`, `metric` or `value` (named by its
/// position; a row never borrows a field from the next one).
pub(crate) fn parse_baseline(
    text: &str,
    window_ms: u64,
) -> Result<BTreeMap<String, String>, String> {
    let (head, rows) = report::parse(text)?;
    let want = format!("schema={SCHEMA} window_ms={window_ms}");
    let have: Vec<_> = head.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let have = have.join(" ");
    if have != want {
        let fix = "re-record with `ps-bench --baseline` or match PS_BENCH_MS";
        return Err(format!("header `{have}` is not `{want}`: {fix}"));
    }
    let mut out = BTreeMap::new();
    for (n, fields) in (1..).zip(&rows) {
        let missing = |key| format!("row {n} has no `{key}`: {fields:?}");
        let get = |key| report::get(fields, key).ok_or_else(|| missing(key));
        let key = format!("{} {}", get("id")?, get("metric")?);
        if out.insert(key, get("value")?.to_string()).is_some() {
            return Err(format!("row {n} repeats an earlier row: {fields:?}"));
        }
    }
    Ok(out)
}

/// Every difference between the recorded and the current rows, one
/// line each naming id and metric: a changed value, a current row the
/// file lacks, a recorded row the grid no longer produces.
pub fn drift(mut recorded: BTreeMap<String, String>, current: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    for r in current {
        let (key, value) = (format!("{} {}", r.id, r.metric), r.value);
        match recorded.remove(&key) {
            Some(was) if was == value.to_string() => {}
            Some(was) => out.push(format!("{key}: recorded {was}, current {value}")),
            None => out.push(format!("{key}: not in the file, current {value}")),
        }
    }
    let gone = recorded.iter();
    out.extend(gone.map(|(key, was)| format!("{key}: recorded {was}, no longer produced")));
    out
}

/// `--compare`: re-run the grid and gate every row at equality with
/// the file. `Ok(n)` is the number of rows that differ; `Err` means
/// the file cannot be compared (see `parse_baseline`).
pub fn compare(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let recorded = parse_baseline(&text, window_ms()).map_err(|e| format!("{path}: {e}"))?;
    let rows = run_and_print(&format!("Exact compare vs {path} (any difference fails)"));
    let diffs = drift(recorded, &rows);
    for d in &diffs {
        println!("DRIFT {d}");
    }
    println!("{} rows, {} differ from {path}", rows.len(), diffs.len());
    Ok(diffs.len())
}

/// One wall-clock measurement of the scaling matrix.
pub struct Sample {
    /// `shards/<workload>-xN`.
    pub id: String,
    /// Host seconds inside `Router::run_with_shards`, the minimum of
    /// three interleaved repeats.
    pub wall_secs: f64,
}

/// The shard counts the scaling matrix measures.
pub(crate) const SCALING_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Speedup over x1 a scaling row must show.
pub(crate) const SCALING_MIN: f64 = 1.2;

/// Run the replicated minimal workload at every [`SCALING_COUNTS`]
/// under identical offered load: one NUMA domain per shard at the
/// largest count (two ports and one worker core each), so every row
/// is a real N-way split, and keyed flows, so a replica skips an
/// unhosted packet with zero RNG work. Every count delivers the same
/// virtual-time result (asserted), so wall ratios between rows are
/// the speedup. The three repeats are interleaved (x1, x2, x4, x8,
/// x1, ...) so ambient drift spreads over every row's minimum.
pub(crate) fn run_scaling_matrix(window: Time) -> Vec<Sample> {
    let mut cfg = RouterConfig::paper_cpu();
    cfg.nodes = 8;
    cfg.workers_per_node = 1;
    cfg.ports = 16;
    let mut traffic = spec(TrafficKind::Ipv4Udp, 64, 80.0);
    traffic.ports = 16;
    traffic.flows = Some(8192);

    let mut best = [f64::INFINITY; SCALING_COUNTS.len()];
    let mut pkts = None;
    for _ in 0..3 {
        for (best, shards) in best.iter_mut().zip(SCALING_COUNTS) {
            let app = MinimalApp::new(ForwardPattern::SameNode, 16);
            let t0 = Instant::now();
            let report = Router::run_with_shards(cfg, app, traffic, window, shards);
            *best = best.min(t0.elapsed().as_secs_f64());
            let delivered = report.delivered.packets;
            assert_eq!(*pkts.get_or_insert(delivered), delivered);
        }
    }
    let ids = SCALING_COUNTS.map(|shards| format!("shards/minimal-64B-x{shards}"));
    let sample = |(id, wall_secs)| Sample { id, wall_secs };
    ids.into_iter().zip(best).map(sample).collect()
}

/// Parse a scaling row id (`shards/<workload>-xN`) into `N`.
fn scaling_count(id: &str) -> Option<usize> {
    let (_, tail) = id.strip_prefix("shards/")?.rsplit_once("-x")?;
    tail.parse().ok().filter(|&n| n >= 1)
}

/// One scaling-gate verdict.
pub struct ScalingVerdict {
    /// The `shards/...-xN` row the verdict is about.
    pub id: String,
    /// Whether the row passed; [`None`] when it was skipped.
    pub ok: Option<bool>,
    /// The measured ratio and the bar, or why the row was skipped.
    pub detail: String,
}

/// Judge each xN row (N > 1) **against the x1 row of the same run** —
/// identical offered load, build and host, so a uniformly slower
/// machine changes nothing: the row must run `min_speedup` times
/// faster than x1. A row is skipped, not passed, unless the host has
/// two hardware threads per shard (`threads_for(2 N) == 2 N`): with
/// fewer, shard threads share cores and the ratio measures the host,
/// not the runtime (the serialized-host cost is `shard.x2_wall_ratio`
/// in `benchmark/`). `threads_for` is injected so tests can exercise
/// both outcomes anywhere; production passes [`shard_threads`], the
/// replicated runner's own pool size, which reads only the host.
pub fn scaling_verdicts(
    samples: &[Sample],
    min_speedup: f64,
    threads_for: &dyn Fn(usize) -> usize,
) -> Vec<ScalingVerdict> {
    let count = |s: &Sample| scaling_count(&s.id);
    let Some(base) = samples.iter().find(|s| count(s) == Some(1)) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let wide = |s| Some((s, count(s).filter(|&n| n > 1)?));
    for (s, n) in samples.iter().filter_map(wide) {
        let host_threads = threads_for(2 * n);
        let speedup = base.wall_secs / s.wall_secs.max(1e-12);
        let judged = host_threads >= 2 * n;
        let detail = if judged {
            format!("speedup {speedup:.2}x vs x1 (need >= {min_speedup:.2}x)")
        } else {
            format!("host_threads {host_threads} < 2 x {n} shards: no verdict")
        };
        let (id, ok) = (s.id.clone(), judged.then_some(speedup >= min_speedup));
        out.push(ScalingVerdict { id, ok, detail });
    }
    out
}

/// `--scaling`: run the matrix, print it and its verdicts, and return
/// the number of failed gates.
pub fn scaling() -> usize {
    header("Shard scaling matrix (identical offered load, wall-clock)");
    let samples = run_scaling_matrix(window_ms() * MILLIS);
    for s in &samples {
        println!("{:<22} {:>9.1} ms", s.id, s.wall_secs * 1e3);
    }
    println!("host_threads: {}", shard_threads(usize::MAX));
    let verdicts = scaling_verdicts(&samples, SCALING_MIN, &shard_threads);
    for v in &verdicts {
        let flag = v.ok.map_or("SKIP", |ok| if ok { "ok" } else { "FAIL" });
        println!("{:<22} {flag:<4} {}", v.id, v.detail);
    }
    verdicts.iter().filter(|v| v.ok == Some(false)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            row("ipv4/64B", "pkts", "pkts", Val::Int(93025)),
            row("ipv4/64B", "events", "events", Val::Int(1000)),
            row(
                "bytes-h2d/ipv4-64B-soa",
                "h2d_bytes_per_pkt",
                "B/pkt",
                Val::F3(4.0),
            ),
        ]
    }

    fn recorded(json: &str) -> BTreeMap<String, String> {
        parse_baseline(json, window_ms()).unwrap()
    }

    #[test]
    fn json_round_trips_through_parser() {
        let json = to_json(&rows());
        assert!(json.starts_with("{\n  \"schema\": \"ps-bench-baseline/v2\",\n  \"window_ms\": "));
        assert!(json.contains(
            "    {\"id\": \"bytes-h2d/ipv4-64B-soa\", \"metric\": \"h2d_bytes_per_pkt\", \
             \"unit\": \"B/pkt\", \"value\": 4.000}\n"
        ));
        let back = recorded(&json);
        assert_eq!(back.len(), 3);
        assert_eq!(back["ipv4/64B pkts"], "93025");
        assert_eq!(back["ipv4/64B events"], "1000");
        assert_eq!(back["bytes-h2d/ipv4-64B-soa h2d_bytes_per_pkt"], "4.000");
    }

    #[test]
    fn clean_compare_reports_nothing() {
        assert!(drift(recorded(&to_json(&rows())), &rows()).is_empty());
    }

    #[test]
    fn a_value_off_by_one_fails_naming_the_row() {
        let mut now = rows();
        now[1].value = Val::Int(1001);
        assert_eq!(
            drift(recorded(&to_json(&rows())), &now),
            ["ipv4/64B events: recorded 1000, current 1001"]
        );
    }

    #[test]
    fn compare_fails_in_both_directions() {
        let file = recorded(&to_json(&rows()));
        // The grid produces a row the file lacks.
        let mut now = rows();
        now.push(row("lb/imix", "pkts", "pkts", Val::Int(5)));
        assert_eq!(
            drift(file.clone(), &now),
            ["lb/imix pkts: not in the file, current 5"]
        );
        // The file holds a row the grid no longer produces.
        assert_eq!(
            drift(file, &rows()[1..]),
            ["ipv4/64B pkts: recorded 93025, no longer produced"]
        );
    }

    #[test]
    fn another_window_is_not_comparable() {
        let other = window_ms() + 1;
        let e = parse_baseline(&to_json(&rows()), other).unwrap_err();
        let want = format!("is not `schema=ps-bench-baseline/v2 window_ms={other}`");
        assert!(e.contains(&want), "{e}");
        assert!(e.contains("PS_BENCH_MS"), "{e}");
    }

    #[test]
    fn v1_files_are_rejected_not_read_as_empty() {
        let v1 = "{\n  \"schema\": \"ps-bench-baseline/v1\",\n  \"window_ms\": 2,\n  \
                  \"workloads\": [\n    {\"id\": \"ipv4/64B\", \"ns_per_pkt\": 1144.901}\n  ]\n}\n";
        let e = parse_baseline(v1, 2).unwrap_err();
        assert!(
            e.starts_with("header `schema=ps-bench-baseline/v1 window_ms=2` is not"),
            "{e}"
        );
        assert!(e.contains("re-record with `ps-bench --baseline`"), "{e}");
        assert!(parse_baseline("{}", 2).is_err());
        assert!(parse_baseline("{\"rows\": []}", 2).is_err(), "no schema");
    }

    #[test]
    fn parser_names_the_malformed_row() {
        // Row 1 lacks its value; the old reader borrowed row 2's.
        let json = to_json(&rows()).replace(", \"value\": 93025", "");
        let e = parse_baseline(&json, window_ms()).unwrap_err();
        assert!(e.starts_with("row 1 has no `value`"), "{e}");
        assert!(e.contains("ipv4/64B"), "{e}");
    }

    #[test]
    fn scaling_ids_parse() {
        assert_eq!(scaling_count("shards/minimal-64B-x1"), Some(1));
        assert_eq!(scaling_count("shards/minimal-64B-x8"), Some(8));
        assert_eq!(scaling_count("ipv4/64B"), None);
        assert_eq!(scaling_count("sweep/ipsec-64B"), None);
        assert_eq!(scaling_count("shards/minimal-64B"), None);
    }

    #[test]
    fn production_threads_for_is_the_host_clamped_to_the_shards() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        for shards in [1, 2, 3, 4, 8, 16, 64, usize::MAX] {
            assert_eq!(shard_threads(shards), hw.min(shards), "{shards} shards");
        }
    }

    fn scaling_row(n: usize, ns: f64) -> Sample {
        Sample {
            id: format!("shards/minimal-64B-x{n}"),
            wall_secs: ns * 1e-6,
        }
    }

    #[test]
    fn threaded_hosts_gate_on_speedup() {
        // x2 is 1.5x faster, x4 only 1.1x: with two host threads per
        // shard the speedup gate passes x2 and fails x4.
        let samples = vec![
            scaling_row(1, 300.0),
            scaling_row(2, 200.0),
            scaling_row(4, 272.0),
        ];
        let v = scaling_verdicts(&samples, 1.2, &|n| n);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].ok, Some(true), "x2 at 1.5x speedup: {}", v[0].detail);
        assert_eq!(v[1].ok, Some(false), "x4 at 1.1x speedup: {}", v[1].detail);
    }

    #[test]
    fn rows_without_two_threads_per_shard_are_skipped_not_passed() {
        // Four host threads: x2 has two per shard and is judged (and
        // fails at 0.77x); x4 and x8 are skipped however slow or fast.
        let samples = vec![
            scaling_row(1, 300.0),
            scaling_row(2, 390.0),
            scaling_row(4, 540.0),
            scaling_row(8, 100.0),
        ];
        let v = scaling_verdicts(&samples, 1.2, &|n| n.min(4));
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].ok, Some(false), "{}", v[0].detail);
        for (v, n) in v[1..].iter().zip([4, 8]) {
            assert_eq!(v.ok, None, "neither ok nor a failure");
            assert!(v.detail.contains("host_threads 4"), "{}", v.detail);
            assert!(
                v.detail.contains(&format!("2 x {n} shards")),
                "{}",
                v.detail
            );
        }
    }

    #[test]
    fn absolute_drift_does_not_trip_scaling_rows() {
        // A uniformly 2x-slower machine: every scaling ratio is
        // unchanged, so no scaling gate may fire (that is the whole
        // point of gating on in-run ratios, not recorded ns/pkt).
        let fast = vec![scaling_row(1, 300.0), scaling_row(2, 200.0)];
        let slow = vec![scaling_row(1, 600.0), scaling_row(2, 400.0)];
        for samples in [fast, slow] {
            let v = scaling_verdicts(&samples, 1.2, &|n| n);
            assert!(
                v.iter().all(|x| x.ok == Some(true)),
                "ratio gates are drift-immune"
            );
        }
    }

    #[test]
    fn missing_x1_row_yields_no_verdicts() {
        let samples = vec![scaling_row(2, 200.0)];
        assert!(scaling_verdicts(&samples, 1.2, &|n| n).is_empty());
    }
}
