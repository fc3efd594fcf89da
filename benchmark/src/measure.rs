//! The untraced measurement: R back-to-back repeats of one workload,
//! each a fresh application and router (timed as set-up) followed by
//! the run in [`SLICES`] equal slices of virtual time, each slice
//! timed on the host clock.

use std::time::Instant;

use ps_core::router::Ev;
use ps_core::{Router, RouterReport};
use ps_pktgen::{Generator, TrafficSpec};
use ps_sim::time::Time;
use ps_sim::{Model, Simulation};

use crate::alloc;
use crate::stats::{median, percentile};
use crate::workloads::Workload;

/// Host-timed slices per repeat.
pub const SLICES: usize = 50;

/// Packets the open-loop generator emits in `[0, duration)`: a second
/// generator replayed without building a single frame. This is the
/// denominator of every per-packet metric — *generated*, not
/// delivered, so a workload that drops half its load still divides by
/// the work the simulator was asked to do.
pub fn generated_packets(spec: TrafficSpec, duration: Time) -> u64 {
    let mut g = Generator::new(spec);
    let mut n = 0;
    while g.next_time() < duration {
        g.skip_meta();
        n += 1;
    }
    n
}

/// Run `sim` to `duration` in [`SLICES`] slices, writing each slice's
/// host time into `slice_ns`. Returns the events dispatched.
pub fn drive<M: Model<Event = Ev>>(
    sim: &mut Simulation<M>,
    duration: Time,
    slice_ns: &mut [u64; SLICES],
) -> u64 {
    let mut events = 0;
    for (k, ns) in slice_ns.iter_mut().enumerate() {
        let t = Instant::now();
        events += sim.run_until(duration * (k as u64 + 1) / SLICES as u64);
        *ns = t.elapsed().as_nanos() as u64;
    }
    events
}

/// The measurement window `Router::run_with_shards` reports over: the
/// last four fifths (the first fifth is warm-up).
pub fn window(duration: Time) -> Time {
    duration - duration / 5
}

/// Are two reports the same, histogram buckets included?
/// `RouterReport` has no `PartialEq`; its `Debug` form prints every
/// field, so equal text is equal reports.
pub fn same_report(a: &RouterReport, b: &RouterReport) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// One repeat's raw results.
pub struct Repeat {
    /// Host seconds from nothing to a router ready to run: a fresh
    /// application, `Router::new` (table build, GPU image upload) and
    /// the generator replay that counts `generated`.
    pub setup_s: f64,
    /// Packets the repeat is offered (see [`generated_packets`]).
    pub generated: u64,
    pub slice_ns: [u64; SLICES],
    pub events: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub report: RouterReport,
}

impl Repeat {
    /// Everything that must repeat bit-for-bit: the work counts and
    /// the whole virtual-time report (histogram buckets included).
    pub fn fingerprint(&self) -> String {
        format!(
            "{} {} {} {} {:?}",
            self.generated, self.events, self.allocs, self.alloc_bytes, self.report
        )
    }
}

/// One untraced repeat of `w` under `spec`.
pub fn repeat<W: Workload>(w: &W, spec: TrafficSpec, duration: Time) -> Repeat {
    let t = Instant::now();
    let router = Router::new(w.cfg(), w.app(), spec, duration);
    let generated = generated_packets(spec, duration);
    let setup_s = t.elapsed().as_secs_f64();

    let mut sim = Simulation::new(router);
    sim.schedule(0, Ev::Gen);
    let mut slice_ns = [0; SLICES];
    let (a0, b0) = alloc::snapshot();
    let events = drive(&mut sim, duration, &mut slice_ns);
    let (a1, b1) = alloc::snapshot();
    Repeat {
        setup_s,
        generated,
        slice_ns,
        events,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        report: sim.model.report(window(duration)),
    }
}

/// All repeats of one workload, reduced.
pub struct Untraced {
    pub repeats: Vec<Repeat>,
    /// True when every repeat produced the same fingerprint.
    pub repeats_agree: bool,
}

impl Untraced {
    /// Repeat until `budget_s` of host time is spent, at least
    /// `min_repeats` times.
    pub fn run<W: Workload>(
        w: &W,
        spec: TrafficSpec,
        duration: Time,
        budget_s: f64,
        min_repeats: usize,
    ) -> Untraced {
        let started = Instant::now();
        let mut repeats = Vec::new();
        while repeats.len() < min_repeats || started.elapsed().as_secs_f64() < budget_s {
            repeats.push(repeat(w, spec, duration));
        }
        let first = repeats[0].fingerprint();
        let repeats_agree = repeats.iter().all(|r| r.fingerprint() == first);
        Untraced {
            repeats,
            repeats_agree,
        }
    }

    pub fn first(&self) -> &Repeat {
        &self.repeats[0]
    }

    /// Generated packets per repeat (the same in every repeat).
    pub fn generated(&self) -> u64 {
        self.first().generated
    }

    /// Per slice position, the median across repeats. A burst of host
    /// noise lands in a few slices of one repeat; taking the median
    /// per position before summing rejects it where a median of
    /// whole-repeat totals would keep it.
    pub fn median_slices(&self) -> [f64; SLICES] {
        let mut out = [0.0; SLICES];
        for (k, m) in out.iter_mut().enumerate() {
            let col: Vec<f64> = self.repeats.iter().map(|r| r.slice_ns[k] as f64).collect();
            *m = median(&col);
        }
        out
    }

    /// Host wall time of one run: the per-position slice medians,
    /// summed.
    pub fn run_ns(&self) -> f64 {
        self.median_slices().iter().sum()
    }

    pub fn host_ns_per_pkt(&self) -> f64 {
        self.run_ns() / self.generated() as f64
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.repeats.iter().map(|r| r.setup_s).collect::<Vec<_>>())
    }

    /// Every slice of every repeat as ns per generated packet (the
    /// generator is paced, so each slice holds `generated / SLICES`).
    fn slice_ns_per_pkt(&self) -> Vec<f64> {
        let per_slice = self.generated() as f64 / SLICES as f64;
        self.repeats
            .iter()
            .flat_map(|r| r.slice_ns.iter().map(move |&ns| ns as f64 / per_slice))
            .collect()
    }

    pub fn slice_p50(&self) -> f64 {
        percentile(&self.slice_ns_per_pkt(), 0.50)
    }

    pub fn slice_p95(&self) -> f64 {
        percentile(&self.slice_ns_per_pkt(), 0.95)
    }

    /// Cost of the last quarter of the run over the first: 1.0 is a
    /// steady state, above it cost grows with simulated time.
    pub fn last_vs_first_quarter(&self) -> f64 {
        let m = self.median_slices();
        let q = SLICES / 4;
        m[SLICES - q..].iter().sum::<f64>() / m[..q].iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::MinimalCpu;
    use ps_sim::MICROS;

    #[test]
    fn generated_count_matches_the_routers_offered_count() {
        // Over the measurement window the router's own offered count
        // is what the replayed generator predicts for it.
        let w = MinimalCpu;
        let spec = w.spec(3);
        let d = 500 * MICROS;
        let r = repeat(&w, spec, d);
        let in_window = generated_packets(spec, d) - generated_packets(spec, d / 5);
        assert_eq!(r.report.offered.packets, in_window);
        assert!(r.events > 0 && r.allocs > 0);
    }

    #[test]
    fn repeats_are_bit_identical_and_slices_reduce_by_position() {
        let w = MinimalCpu;
        let u = Untraced::run(&w, w.spec(3), 200 * MICROS, 0.0, 3);
        assert_eq!(u.repeats.len(), 3);
        // (`repeats_agree` also covers the allocation counts, which
        // other test threads disturb here.)
        for r in &u.repeats {
            assert_eq!(r.events, u.first().events);
            assert!(same_report(&r.report, &u.first().report));
        }
        let m = u.median_slices();
        for (k, &mk) in m.iter().enumerate() {
            let mut col: Vec<u64> = u.repeats.iter().map(|r| r.slice_ns[k]).collect();
            col.sort_unstable();
            assert_eq!(mk, col[1] as f64);
        }
        assert!((u.run_ns() - m.iter().sum::<f64>()).abs() < 1e-6);
    }
}
