//! The flat metrics exporter over a `ps-trace` event buffer.
//!
//! The Chrome JSON exporter (in `ps-trace` itself) preserves the full
//! timeline; this module reduces the same events to the numbers an
//! experiment report wants printed: per-stage latency distributions
//! (through the log-bucketed [`Histogram`]), queue-depth gauges, and
//! per-resource busy time/utilization. It lives in `ps-sim` rather
//! than `ps-trace` because `ps-trace` sits *below* this crate and
//! cannot see the histogram.

use std::collections::BTreeMap;

use ps_trace::{Category, Collector, Event, Phase};

use crate::stats::Histogram;
use crate::time::Time;

/// Aggregate over all complete spans sharing a `(category, name)`.
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Span category.
    pub cat: Category,
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub count: u64,
    /// Summed span duration (ns). Lanes may overlap, so this can
    /// exceed the run window.
    pub total_ns: u64,
    /// Summed `pkts` argument of the spans (0 for spans without one).
    pub pkts: u64,
    /// Span-duration distribution.
    pub hist: Histogram,
}

/// Aggregate over all counter samples sharing a `(category, name)`.
#[derive(Debug, Clone)]
pub struct GaugeStat {
    /// Gauge category.
    pub cat: Category,
    /// Gauge name.
    pub name: &'static str,
    /// Number of samples across all lanes.
    pub samples: u64,
    /// Smallest sampled value.
    pub min: u64,
    /// Largest sampled value.
    pub max: u64,
    /// Mean sampled value.
    pub mean: f64,
}

/// Per-kernel PCIe staging traffic, reduced from the cumulative
/// `pcie_h2d.*` / `pcie_d2h.*` / `pcie_pkts.*` counters the column
/// stage emits after every launch (`ps-core`'s `ColumnStage`). The
/// counters are monotone, so the per-run total is the largest sample
/// across lanes summed over lanes.
#[derive(Debug, Clone, Default)]
pub struct PcieStat {
    /// Kernel name (the counter suffix, e.g. `"ipv4-dir24"`).
    pub kernel: String,
    /// Packets staged through the column layer.
    pub pkts: u64,
    /// Host→device staging bytes.
    pub h2d_bytes: u64,
    /// Device→host result bytes.
    pub d2h_bytes: u64,
}

impl PcieStat {
    /// Host→device bytes per staged packet.
    pub(crate) fn h2d_per_pkt(&self) -> f64 {
        self.h2d_bytes as f64 / self.pkts.max(1) as f64
    }

    /// Device→host bytes per staged packet.
    pub(crate) fn d2h_per_pkt(&self) -> f64 {
        self.d2h_bytes as f64 / self.pkts.max(1) as f64
    }
}

/// Busy accounting for one labelled fabric resource instance.
#[derive(Debug, Clone)]
pub struct ResourceStat {
    /// Resource span name (e.g. `"ioh.d2h"`).
    pub name: &'static str,
    /// Instance lane.
    pub lane: u32,
    /// Transactions served.
    pub count: u64,
    /// Summed service time (ns); FIFO servers never overlap
    /// themselves, so this is true busy time.
    pub busy_ns: u64,
    /// Bytes served (from the spans' `bytes` argument).
    pub bytes: u64,
    /// `busy_ns / window`.
    pub utilization: f64,
}

/// The flat metrics summary: what `--trace-out` prints next to the
/// timeline dump.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Run window the utilization figures are relative to (ns).
    pub window: Time,
    /// Per-stage latency statistics, sorted by category then name.
    pub stages: Vec<StageStat>,
    /// Queue-depth (and other) gauges, sorted by category then name.
    /// `pcie_*` staging counters are factored out into
    /// [`TraceSummary::pcie`] instead of appearing here.
    pub gauges: Vec<GaugeStat>,
    /// Per-kernel PCIe staging traffic, sorted by kernel name.
    pub pcie: Vec<PcieStat>,
    /// Per-resource utilization, sorted by name then lane.
    pub resources: Vec<ResourceStat>,
}

/// Reduce resolved trace events to a [`TraceSummary`] over `window`
/// ns of virtual time.
pub fn summarize(events: &[&Event], window: Time) -> TraceSummary {
    let mut stages: BTreeMap<(&'static str, &'static str), StageStat> = BTreeMap::new();
    let mut gauges: BTreeMap<(&'static str, &'static str), (GaugeStat, u128)> = BTreeMap::new();
    let mut resources: BTreeMap<(&'static str, u32), ResourceStat> = BTreeMap::new();
    // Cumulative pcie_* counters: per-(name, lane) running max, so the
    // run total is the lane maxima summed over lanes.
    let mut pcie_max: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for ev in events {
        match ev.phase {
            Phase::Complete { dur } => {
                let s = stages
                    .entry((ev.cat.name(), ev.name))
                    .or_insert_with(|| StageStat {
                        cat: ev.cat,
                        name: ev.name,
                        count: 0,
                        total_ns: 0,
                        pkts: 0,
                        hist: Histogram::new(),
                    });
                s.count += 1;
                s.total_ns += dur;
                s.pkts += arg(ev, "pkts");
                s.hist.record(dur);
                if ev.cat == Category::Fabric {
                    let r = resources
                        .entry((ev.name, ev.lane))
                        .or_insert_with(|| ResourceStat {
                            name: ev.name,
                            lane: ev.lane,
                            count: 0,
                            busy_ns: 0,
                            bytes: 0,
                            utilization: 0.0,
                        });
                    r.count += 1;
                    r.busy_ns += dur;
                    r.bytes += arg(ev, "bytes");
                }
            }
            Phase::Counter { value } => {
                if ev.name.starts_with("pcie_") {
                    let m = pcie_max.entry((ev.name, ev.lane)).or_insert(0);
                    *m = (*m).max(value);
                    continue;
                }
                let (g, sum) = gauges.entry((ev.cat.name(), ev.name)).or_insert_with(|| {
                    (
                        GaugeStat {
                            cat: ev.cat,
                            name: ev.name,
                            samples: 0,
                            min: u64::MAX,
                            max: 0,
                            mean: 0.0,
                        },
                        0u128,
                    )
                });
                g.samples += 1;
                g.min = g.min.min(value);
                g.max = g.max.max(value);
                *sum += value as u128;
            }
            _ => {}
        }
    }
    let mut pcie: BTreeMap<&'static str, PcieStat> = BTreeMap::new();
    for (&(name, _lane), &total) in &pcie_max {
        let Some((field, kernel)) = name.split_once('.') else {
            continue;
        };
        let s = pcie.entry(kernel).or_insert_with(|| PcieStat {
            kernel: kernel.to_string(),
            ..PcieStat::default()
        });
        match field {
            "pcie_h2d" => s.h2d_bytes += total,
            "pcie_d2h" => s.d2h_bytes += total,
            "pcie_pkts" => s.pkts += total,
            _ => {}
        }
    }
    let window_f = window.max(1) as f64;
    TraceSummary {
        window,
        stages: stages.into_values().collect(),
        gauges: gauges
            .into_values()
            .map(|(mut g, sum)| {
                g.mean = sum as f64 / g.samples.max(1) as f64;
                g
            })
            .collect(),
        pcie: pcie.into_values().collect(),
        resources: resources
            .into_values()
            .map(|mut r| {
                r.utilization = r.busy_ns as f64 / window_f;
                r
            })
            .collect(),
    }
}

/// The value of `ev`'s argument `key`, 0 when absent.
fn arg(ev: &Event, key: &str) -> u64 {
    ev.args
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |&(_, v)| v)
}

/// Convenience: resolve a collector's buffer and summarize it.
pub fn summarize_collector(collector: &Collector, window: Time) -> TraceSummary {
    summarize(&collector.resolved(), window)
}

impl TraceSummary {
    /// Look up a stage by name (any category).
    pub fn stage(&self, name: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Render the flat text report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "category",
            "span",
            "count",
            "total_us",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "max_ns",
            "mean_ns"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>9} {:>12.1} {:>9} {:>9} {:>9} {:>9} {:>9.0}",
                s.cat.name(),
                s.name,
                s.count,
                s.total_ns as f64 / 1e3,
                s.hist.p50(),
                s.hist.p99(),
                s.hist.p999(),
                s.hist.max(),
                s.hist.mean()
            );
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>9} {:>9} {:>9} {:>9}",
                "category", "gauge", "samples", "min", "max", "mean"
            );
            for g in &self.gauges {
                let _ = writeln!(
                    out,
                    "{:<12} {:<12} {:>9} {:>9} {:>9} {:>9.1}",
                    g.cat.name(),
                    g.name,
                    g.samples,
                    g.min,
                    g.max,
                    g.mean
                );
            }
        }
        if !self.pcie.is_empty() {
            let _ = writeln!(
                out,
                "{:<24} {:>10} {:>10} {:>9} {:>10} {:>9}",
                "pcie staging", "pkts", "h2d_mb", "h2d_b/pkt", "d2h_mb", "d2h_b/pkt"
            );
            for p in &self.pcie {
                let _ = writeln!(
                    out,
                    "{:<24} {:>10} {:>10.2} {:>9.1} {:>10.2} {:>9.1}",
                    p.kernel,
                    p.pkts,
                    p.h2d_bytes as f64 / 1e6,
                    p.h2d_per_pkt(),
                    p.d2h_bytes as f64 / 1e6,
                    p.d2h_per_pkt()
                );
            }
        }
        if !self.resources.is_empty() {
            let _ = writeln!(
                out,
                "{:<12} {:>5} {:>9} {:>12} {:>12} {:>6}",
                "resource", "lane", "txns", "busy_us", "mbytes", "util"
            );
            for r in &self.resources {
                let _ = writeln!(
                    out,
                    "{:<12} {:>5} {:>9} {:>12.1} {:>12.2} {:>5.0}%",
                    r.name,
                    r.lane,
                    r.count,
                    r.busy_ns as f64 / 1e3,
                    r.bytes as f64 / 1e6,
                    r.utilization * 100.0
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_trace::{Collector, TraceConfig};

    fn collector_with_sample() -> Collector {
        let mut c = Collector::new(TraceConfig::all());
        c.complete(Category::Stage, "pre_shade", 0, 0, 1_000, vec![]);
        c.complete(Category::Stage, "pre_shade", 1, 500, 2_500, vec![]);
        c.complete(
            Category::Fabric,
            "ioh.d2h",
            0,
            0,
            4_000,
            vec![("bytes", 5_000)],
        );
        c.counter(Category::Io, "ring_depth", 0, 0, 10);
        c.counter(Category::Io, "ring_depth", 0, 100, 30);
        // Cumulative staging counters on two lanes (NUMA nodes).
        c.counter(Category::Gpu, "pcie_h2d.ipv4-dir24", 0, 10, 400);
        c.counter(Category::Gpu, "pcie_h2d.ipv4-dir24", 0, 20, 1_000);
        c.counter(Category::Gpu, "pcie_h2d.ipv4-dir24", 1, 20, 600);
        c.counter(Category::Gpu, "pcie_d2h.ipv4-dir24", 0, 20, 500);
        c.counter(Category::Gpu, "pcie_pkts.ipv4-dir24", 0, 20, 250);
        c.counter(Category::Gpu, "pcie_pkts.ipv4-dir24", 1, 20, 150);
        c
    }

    #[test]
    fn stage_totals_and_percentiles() {
        let s = summarize_collector(&collector_with_sample(), 10_000);
        let pre = s.stage("pre_shade").unwrap();
        assert_eq!(pre.count, 2);
        assert_eq!(pre.total_ns, 3_000);
        assert!((pre.hist.mean() - 1_500.0).abs() < 1.0);
    }

    #[test]
    fn resource_utilization_over_window() {
        let s = summarize_collector(&collector_with_sample(), 10_000);
        let ioh = s.resources.iter().find(|r| r.name == "ioh.d2h").unwrap();
        assert_eq!(ioh.bytes, 5_000);
        assert!((ioh.utilization - 0.4).abs() < 1e-9);
    }

    #[test]
    fn gauge_min_max_mean() {
        let s = summarize_collector(&collector_with_sample(), 10_000);
        let g = s.gauges.iter().find(|g| g.name == "ring_depth").unwrap();
        assert_eq!((g.samples, g.min, g.max), (2, 10, 30));
        assert!((g.mean - 20.0).abs() < 1e-9);
    }

    #[test]
    fn pcie_counters_reduce_to_lane_summed_maxima() {
        let s = summarize_collector(&collector_with_sample(), 10_000);
        let p = s.pcie.iter().find(|p| p.kernel == "ipv4-dir24").unwrap();
        // Cumulative per lane: lane 0 peaks at 1000, lane 1 at 600.
        assert_eq!(p.h2d_bytes, 1_600);
        assert_eq!(p.d2h_bytes, 500);
        assert_eq!(p.pkts, 400);
        assert!((p.h2d_per_pkt() - 4.0).abs() < 1e-9);
        // Staging counters stay out of the generic gauge table.
        assert!(s.gauges.iter().all(|g| !g.name.starts_with("pcie_")));
    }

    #[test]
    fn render_contains_every_section() {
        let s = summarize_collector(&collector_with_sample(), 10_000);
        let text = s.render();
        assert!(text.contains("p999_ns"));
        assert!(text.contains("max_ns"));
        assert!(text.contains("pre_shade"));
        assert!(text.contains("ring_depth"));
        assert!(text.contains("ioh.d2h"));
        assert!(text.contains("pcie staging"));
        assert!(text.contains("ipv4-dir24"));
    }
}
