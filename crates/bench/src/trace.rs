//! Harness-side tracing glue: run a simulation under an installed
//! collector, export the timeline, and do the busy/idle accounting
//! the `reproduce` binary prints.

use std::collections::BTreeMap;

use ps_trace::chrome::ParsedEvent;
use ps_trace::{Category, CategoryMask, Collector, Event, Phase, TraceConfig};

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

/// The trace configuration `PS_TRACE` (a category list) and
/// `PS_TRACE_CAP` (the ring capacity) ask for. While `PS_TRACE` is
/// off, that is every category when `all_when_off` is set (a caller
/// that records anyway) and `None` otherwise; the capacity holds
/// either way.
///
/// # Panics
///
/// When `PS_TRACE` names an unknown category, or `PS_TRACE_CAP` is not
/// a decimal or `0x`-hex count of at least 1, naming the variable: a
/// mistyped value must not silently trace everything or nothing.
pub fn config_from_env(all_when_off: bool) -> Option<TraceConfig> {
    let list = std::env::var("PS_TRACE").ok();
    trace_config(
        list.as_deref(),
        ps_rng::env_u64("PS_TRACE_CAP"),
        all_when_off,
    )
}

/// The trace configuration a `PS_TRACE` value and a parsed
/// `PS_TRACE_CAP` value ask for. Unset, empty and `0` mean off.
fn trace_config(list: Option<&str>, cap: Option<u64>, all_when_off: bool) -> Option<TraceConfig> {
    let capacity = match cap {
        None => TraceConfig::default().capacity,
        Some(0) => panic!("PS_TRACE_CAP=0: the trace ring needs at least one slot"),
        Some(n) => usize::try_from(n).unwrap_or(usize::MAX),
    };
    let mask = match list.map(str::trim).filter(|l| !l.is_empty() && *l != "0") {
        Some(list) => CategoryMask::parse(list)
            .unwrap_or_else(|name| panic!("PS_TRACE={list}: unknown trace category `{name}`")),
        None if all_when_off => CategoryMask::ALL,
        None => return None,
    };
    Some(TraceConfig { mask, capacity })
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
pub fn stage_spans<'a>(events: &'a [&Event]) -> impl Iterator<Item = (u32, u64, u64)> + 'a {
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
    fn ps_trace_unset_empty_or_zero_is_off() {
        for list in [None, Some(""), Some(" "), Some("0")] {
            assert!(trace_config(list, None, false).is_none(), "{list:?}");
        }
    }

    #[test]
    fn ps_trace_cap_sizes_the_ring_while_ps_trace_is_off() {
        for list in [None, Some(""), Some("0")] {
            let cfg = trace_config(list, Some(1000), true).unwrap();
            assert_eq!(
                (cfg.mask, cfg.capacity),
                (CategoryMask::ALL, 1000),
                "{list:?}"
            );
        }
    }

    #[test]
    fn ps_trace_list_selects_exactly_its_categories() {
        let cfg = trace_config(Some("stage,gpu"), Some(64), false).unwrap();
        assert_eq!(
            cfg.mask,
            CategoryMask::of(&[Category::Stage, Category::Gpu])
        );
        assert_eq!(cfg.capacity, 64);
        let cfg = trace_config(Some("all"), None, true).unwrap();
        assert_eq!(cfg.mask, CategoryMask::ALL);
        assert_eq!(cfg.capacity, TraceConfig::default().capacity);
    }

    #[test]
    #[should_panic(expected = "PS_TRACE=stgae: unknown trace category `stgae`")]
    fn ps_trace_unknown_category_panics_naming_it() {
        trace_config(Some("stgae"), None, false);
    }

    #[test]
    #[should_panic(expected = "PS_TRACE_CAP=0")]
    fn ps_trace_cap_zero_panics_naming_it() {
        trace_config(None, Some(0), true);
    }

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
        let events = c.resolved();
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
        let events = c.resolved();
        let err = stage_lane_accounting(stage_spans(&events), 1_000).unwrap_err();
        assert!(
            err.starts_with("lane 2: stage spans overlap at 400 ns"),
            "{err}"
        );
    }
}
