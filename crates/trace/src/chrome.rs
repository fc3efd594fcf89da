//! Chrome `trace_event` JSON export, plus a minimal parser used to
//! validate dumps and round-trip them in tests.
//!
//! The exported object follows the JSON-object format of the Trace
//! Event spec: a `traceEvents` array of complete (`"X"`), counter
//! (`"C"`), instant (`"i"`) and metadata (`"M"`) events. Timestamps
//! are microseconds, so virtual nanoseconds are written as `ns/1000`
//! with three decimal places — formatted with integer arithmetic to
//! keep dumps byte-identical across runs and platforms.
//!
//! Lanes map onto the viewer's process/thread tree: `pid` is the
//! category (one "process" per subsystem), `tid` the lane within it;
//! metadata events name both so Perfetto shows "stage", "gpu",
//! "fabric", "io" groups.

use std::fmt::Write as _;

use crate::collector::Collector;
use crate::event::{Category, Phase};

/// Fixed pid per category in the exported JSON.
pub fn pid_of(cat: Category) -> u32 {
    match cat {
        Category::Stage => 1,
        Category::Gpu => 2,
        Category::Fabric => 3,
        Category::Io => 4,
        Category::Fault => 5,
        Category::Flow => 6,
    }
}

/// Nanoseconds rendered as a microsecond decimal (`1234` → `1.234`)
/// using integer math only.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn write_args(out: &mut String, args: &[(&'static str, u64)]) {
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
    out.push('}');
}

/// Serialize the collector's buffered events, sorted by virtual time,
/// as a Chrome `trace_event` JSON object.
pub fn export(collector: &Collector) -> String {
    let events = collector.resolved();
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };

    // Metadata: name the per-category "processes" and their lanes.
    let mut lanes: Vec<(Category, u32)> = Vec::new();
    for ev in &events {
        if !lanes.contains(&(ev.cat, ev.lane)) {
            lanes.push((ev.cat, ev.lane));
        }
    }
    lanes.sort_by_key(|&(c, l)| (pid_of(c), l));
    let mut named: Vec<Category> = Vec::new();
    for &(cat, lane) in &lanes {
        if !named.contains(&cat) {
            named.push(cat);
            emit(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                    pid_of(cat),
                    cat.name()
                ),
                &mut out,
            );
        }
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{} {}\"}}}}",
                pid_of(cat),
                lane,
                cat.name(),
                lane
            ),
            &mut out,
        );
    }

    for ev in &events {
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
            ev.name,
            ev.cat.name(),
            pid_of(ev.cat),
            ev.lane,
            us(ev.ts)
        );
        match ev.phase {
            Phase::Complete { dur } => {
                let _ = write!(line, ",\"ph\":\"X\",\"dur\":{}", us(dur));
                write_args(&mut line, &ev.args);
            }
            Phase::Counter { value } => {
                let _ = write!(line, ",\"ph\":\"C\",\"args\":{{\"value\":{value}}}");
            }
            Phase::Instant => {
                line.push_str(",\"ph\":\"i\",\"s\":\"t\"");
                write_args(&mut line, &ev.args);
            }
        }
        line.push('}');
        emit(line, &mut out);
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"clock\":\"virtual\",\"dropped\":{}}}}}\n",
        collector.dropped
    );
    out
}

/// One event as read back by [`parse`]: enough structure to validate
/// a dump and recompute stage totals without a JSON library.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Event name.
    pub name: String,
    /// Category string.
    pub cat: String,
    /// Phase letter (`X`, `C`, `i`, `M`).
    pub ph: char,
    /// Timestamp in virtual nanoseconds.
    pub ts_ns: u64,
    /// Duration in virtual nanoseconds (0 unless `ph == 'X'`).
    pub dur_ns: u64,
    /// Process id (category lane group).
    pub pid: u32,
    /// Thread id (lane).
    pub tid: u32,
    /// Counter value (`ph == 'C'` only).
    pub value: Option<u64>,
}

fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

fn parse_us(s: &str) -> Option<u64> {
    // "12.345" microseconds -> 12345 ns; integer part alone is legal.
    let (int, frac) = s.split_once('.').unwrap_or((s, "0"));
    let int: u64 = int.parse().ok()?;
    let frac_padded = format!("{frac:0<3}");
    let frac: u64 = frac_padded.get(..3)?.parse().ok()?;
    Some(int * 1000 + frac)
}

/// Minimal `trace_event` JSON parser: splits the `traceEvents` array
/// into objects and extracts the fields [`ParsedEvent`] carries. It
/// understands exactly the subset [`export`] writes (no nested
/// objects except `args`, no escaped quotes), which is all the tests
/// and report tooling need. Returns `None` on structural mismatch.
pub fn parse(json: &str) -> Option<Vec<ParsedEvent>> {
    let start = json.find("\"traceEvents\":[")? + "\"traceEvents\":[".len();
    let end = json.rfind("],")?;
    let body = &json[start..end];
    let mut events = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = None;
    for (i, ch) in body.char_indices() {
        match ch {
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    let obj = &body[obj_start?..=i];
                    let ph = field(obj, "ph")?.chars().next()?;
                    events.push(ParsedEvent {
                        name: field(obj, "name")?.to_string(),
                        cat: field(obj, "cat").unwrap_or("").to_string(),
                        ph,
                        ts_ns: field(obj, "ts").and_then(parse_us).unwrap_or(0),
                        dur_ns: field(obj, "dur").and_then(parse_us).unwrap_or(0),
                        pid: field(obj, "pid")?.parse().ok()?,
                        tid: field(obj, "tid")?.parse().ok()?,
                        value: field(obj, "value").and_then(|v| v.parse().ok()),
                    });
                }
            }
            _ => {}
        }
    }
    (depth == 0).then_some(events)
}

/// The `dropped` count recorded in a dump's `otherData`, if present.
pub fn parsed_dropped(json: &str) -> Option<u64> {
    field(json.split("\"otherData\":").nth(1)?, "dropped")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, TraceConfig};
    use crate::event::Category;

    fn sample() -> Collector {
        let mut c = Collector::new(TraceConfig::all());
        c.complete(
            Category::Stage,
            "pre_shade",
            3,
            1_000,
            2_500,
            vec![("pkts", 64), ("bytes", 4096)],
        );
        c.counter(Category::Io, "ring_depth", 3, 1_000, 17);
        c.complete(
            Category::Gpu,
            "kernel",
            0,
            2_500,
            9_001,
            vec![("threads", 256)],
        );
        c.instant(Category::Fabric, "drop", 1, 500, vec![]);
        c
    }

    #[test]
    fn export_round_trips_through_parser() {
        let c = sample();
        let json = export(&c);
        let parsed = parse(&json).expect("valid dump");
        // 4 real events + metadata rows.
        let real: Vec<&ParsedEvent> = parsed.iter().filter(|e| e.ph != 'M').collect();
        assert_eq!(real.len(), 4);
        let pre = real.iter().find(|e| e.name == "pre_shade").unwrap();
        assert_eq!((pre.ts_ns, pre.dur_ns), (1_000, 1_500));
        assert_eq!((pre.cat.as_str(), pre.tid), ("stage", 3));
        let k = real.iter().find(|e| e.name == "kernel").unwrap();
        assert_eq!((k.ts_ns, k.dur_ns, k.ph), (2_500, 6_501, 'X'));
        let d = real.iter().find(|e| e.name == "ring_depth").unwrap();
        assert_eq!((d.ph, d.value), ('C', Some(17)));
        assert_eq!(parsed_dropped(&json), Some(0));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(export(&sample()), export(&sample()));
    }

    #[test]
    fn events_export_in_timestamp_order() {
        let json = export(&sample());
        let parsed = parse(&json).unwrap();
        let ts: Vec<u64> = parsed
            .iter()
            .filter(|e| e.ph != 'M')
            .map(|e| e.ts_ns)
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "unsorted: {ts:?}");
    }

    #[test]
    fn sub_microsecond_times_keep_ns_precision() {
        assert_eq!(us(1), "0.001");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(parse_us("1234.567"), Some(1_234_567));
        assert_eq!(parse_us("0.001"), Some(1));
        assert_eq!(parse_us("7"), Some(7_000));
    }

    #[test]
    fn empty_collector_exports_valid_json() {
        let c = Collector::new(TraceConfig::all());
        let json = export(&c);
        assert_eq!(parse(&json), Some(vec![]));
    }
}
