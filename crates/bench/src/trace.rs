//! Harness-side tracing glue: run a simulation under an installed
//! collector, export the timeline, and do the busy/idle accounting
//! the `reproduce` binary prints.

use std::collections::BTreeMap;

use ps_trace::chrome::ParsedEvent;
use ps_trace::{Category, Collector, Event, Phase, TraceConfig};

/// Run `f` with a fresh collector installed on this thread; returns
/// `f`'s result and the filled collector. Any previously installed
/// collector is restored afterwards.
pub fn traced<T>(cfg: TraceConfig, f: impl FnOnce() -> T) -> (T, Collector) {
    let prior = ps_trace::install(Collector::new(cfg));
    let out = f();
    let collector = ps_trace::take().expect("collector installed above");
    if let Some(p) = prior {
        ps_trace::install(p);
    }
    (out, collector)
}

/// The trace configuration the harness runs with: `PS_TRACE` /
/// `PS_TRACE_CAP` when set, everything otherwise.
pub fn config_from_env_or_all() -> TraceConfig {
    TraceConfig::from_env().unwrap_or_else(TraceConfig::all)
}

/// Export `collector` as Chrome `trace_event` JSON into `path`;
/// returns the byte length written.
pub fn write_chrome(collector: &Collector, path: &str) -> std::io::Result<usize> {
    let json = ps_trace::chrome::export(collector);
    std::fs::write(path, &json)?;
    Ok(json.len())
}

/// Busy/idle accounting for one pipeline-stage lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAccount {
    /// Stage lane (worker index, then master gather/shade lanes).
    pub lane: u32,
    /// Summed `stage` span time clamped to `[0, window]` (ns).
    pub busy: u64,
    /// `window - busy` (ns).
    pub idle: u64,
}

/// The `stage` spans of a run's own events, as `(lane, start, dur)`.
pub fn stage_spans(events: &[Event]) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
    events.iter().filter_map(|ev| match ev.phase {
        Phase::Complete { dur } if ev.cat == Category::Stage => Some((ev.lane, ev.ts, dur)),
        _ => None,
    })
}

/// The `stage` spans of a re-parsed Chrome dump, as `(lane, start,
/// dur)`: the dump writes the lane as `tid`.
pub fn parsed_stage_spans(events: &[ParsedEvent]) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
    let stage = Category::Stage.name();
    events
        .iter()
        .filter(move |e| e.ph == 'X' && e.cat == stage)
        .map(|e| (e.tid, e.ts_ns, e.dur_ns))
}

/// Per-lane accounting over `(lane, start, dur)` stage spans, clamped
/// to `[0, window]`. Each simulated thread works one interval at a
/// time, so the spans on one lane must be disjoint; spans that
/// overlap are an error naming the lane. The reproduce binary checks
/// that its dump, re-parsed, accounts exactly like the run itself.
pub fn stage_lane_accounting(
    spans: impl IntoIterator<Item = (u32, u64, u64)>,
    window: u64,
) -> Result<Vec<LaneAccount>, String> {
    let mut lanes: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for (lane, ts, dur) in spans {
        let span = (ts.min(window), (ts + dur).min(window));
        lanes.entry(lane).or_default().push(span);
    }
    lanes
        .into_iter()
        .map(|(lane, mut spans)| {
            spans.sort_unstable();
            let (mut busy, mut free_at) = (0, 0);
            for (start, end) in spans {
                if start < free_at {
                    return Err(format!(
                        "lane {lane}: stage spans overlap at {start} ns (the previous one ends at {free_at} ns)"
                    ));
                }
                busy += end - start;
                free_at = end;
            }
            let idle = window - busy;
            Ok(LaneAccount { lane, busy, idle })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_restores_prior_collector() {
        ps_trace::install(Collector::new(TraceConfig::all()));
        ps_trace::complete(Category::Io, "outer", 0, 0, 1, Vec::new);
        let ((), inner) = traced(TraceConfig::all(), || {
            ps_trace::complete(Category::Io, "inner", 0, 0, 1, Vec::new);
        });
        assert_eq!(inner.len(), 1);
        assert_eq!(inner.events().next().unwrap().name, "inner");
        let outer = ps_trace::take().unwrap();
        assert_eq!(outer.len(), 1);
        assert_eq!(outer.events().next().unwrap().name, "outer");
    }

    #[test]
    fn lane_accounting_sums_to_window() {
        let mut c = Collector::new(TraceConfig::all());
        c.complete(Category::Stage, "a", 0, 100, 400, vec![]);
        c.complete(Category::Stage, "b", 0, 400, 600, vec![]);
        // Runs past the window: clamped.
        c.complete(Category::Stage, "c", 1, 900, 1_500, vec![]);
        // Non-stage spans are ignored even when overlapping.
        c.complete(Category::Gpu, "kernel", 0, 0, 1_000, vec![]);
        let (events, _) = c.resolved();
        let acc = stage_lane_accounting(stage_spans(&events), 1_000).unwrap();
        assert_eq!(
            acc,
            vec![
                LaneAccount {
                    lane: 0,
                    busy: 500,
                    idle: 500
                },
                LaneAccount {
                    lane: 1,
                    busy: 100,
                    idle: 900
                },
            ]
        );
        // The dump, re-parsed, accounts the same.
        let parsed = ps_trace::chrome::parse(&ps_trace::chrome::export(&c)).unwrap();
        let from_dump = stage_lane_accounting(parsed_stage_spans(&parsed), 1_000);
        assert_eq!(from_dump, Ok(acc));
    }

    #[test]
    fn overlapping_stage_spans_are_an_error_naming_the_lane() {
        let mut c = Collector::new(TraceConfig::all());
        c.complete(Category::Stage, "a", 0, 0, 300, vec![]);
        c.complete(Category::Stage, "b", 2, 0, 600, vec![]);
        c.complete(Category::Stage, "c", 2, 400, 1_000, vec![]);
        let (events, _) = c.resolved();
        let err = stage_lane_accounting(stage_spans(&events), 1_000).unwrap_err();
        assert!(
            err.starts_with("lane 2: stage spans overlap at 400 ns"),
            "{err}"
        );
    }
}
