//! The bounded event collector.

use std::collections::VecDeque;

use crate::event::{Args, Category, CategoryMask, Event, Phase};
use crate::Time;

/// Collector configuration.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Enabled categories; emission sites check this before doing any
    /// work.
    pub mask: CategoryMask,
    /// Ring-buffer capacity in events. When full, the *oldest* events
    /// are overwritten (the tail of a run is usually the interesting
    /// part) and [`Collector::dropped`] counts the loss.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            mask: CategoryMask::ALL,
            capacity: 1 << 20,
        }
    }
}

impl TraceConfig {
    /// Everything on, default capacity.
    pub fn all() -> TraceConfig {
        TraceConfig::default()
    }

    /// Only the given categories.
    pub fn categories(cats: &[Category]) -> TraceConfig {
        TraceConfig {
            mask: CategoryMask::of(cats),
            ..TraceConfig::default()
        }
    }
}

/// Bounded, ordered store of trace events.
///
/// Events are kept in emission order, which for the deterministic
/// simulation is itself deterministic — the exported dump is
/// byte-identical across runs of the same seed.
#[derive(Debug)]
pub struct Collector {
    cfg: TraceConfig,
    events: VecDeque<Event>,
    /// Events evicted by the ring bound.
    pub dropped: u64,
}

impl Collector {
    /// An empty collector with the given configuration.
    pub fn new(cfg: TraceConfig) -> Collector {
        assert!(cfg.capacity > 0, "a trace ring needs at least one slot");
        Collector {
            cfg,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The collector's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Enabled-category mask (cached per thread by the global API).
    pub fn mask(&self) -> CategoryMask {
        self.cfg.mask
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or everything was
    /// evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, ev: Event) {
        if self.events.len() == self.cfg.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    fn enabled(&self, cat: Category) -> bool {
        self.cfg.mask.contains(cat)
    }

    /// Record a complete span `[start, end]`. `end < start` is a bug
    /// in the emitter and panics in debug builds; release builds clamp
    /// to a zero-length span.
    pub fn complete(
        &mut self,
        cat: Category,
        name: &'static str,
        lane: u32,
        start: Time,
        end: Time,
        args: Args,
    ) {
        if !self.enabled(cat) {
            return;
        }
        debug_assert!(end >= start, "span {name} ends before it starts");
        self.push(Event {
            ts: start,
            cat,
            name,
            lane,
            phase: Phase::Complete {
                dur: end.saturating_sub(start),
            },
            args,
        });
    }

    /// Record a gauge sample.
    pub fn counter(&mut self, cat: Category, name: &'static str, lane: u32, ts: Time, value: u64) {
        if !self.enabled(cat) {
            return;
        }
        self.push(Event {
            ts,
            cat,
            name,
            lane,
            phase: Phase::Counter { value },
            args: Vec::new(),
        });
    }

    /// Record a zero-duration marker.
    pub fn instant(&mut self, cat: Category, name: &'static str, lane: u32, ts: Time, args: Args) {
        if !self.enabled(cat) {
            return;
        }
        self.push(Event {
            ts,
            cat,
            name,
            lane,
            phase: Phase::Instant,
            args,
        });
    }

    /// The buffered events in timestamp order. The sort is stable:
    /// equal timestamps keep their deterministic emission order, so
    /// the dump is byte-stable.
    pub fn resolved(&self) -> Vec<&Event> {
        let mut out: Vec<&Event> = self.events.iter().collect();
        out.sort_by_key(|e| e.ts);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bound_evicts_oldest() {
        let mut c = Collector::new(TraceConfig {
            mask: CategoryMask::ALL,
            capacity: 2,
        });
        for i in 0..5u64 {
            c.complete(Category::Io, "x", 0, i, i + 1, vec![]);
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.dropped, 3);
        let ts: Vec<u64> = c.events().map(|e| e.ts).collect();
        assert_eq!(ts, vec![3, 4]);
    }

    #[test]
    fn disabled_categories_record_nothing() {
        let mut c = Collector::new(TraceConfig::categories(&[Category::Gpu]));
        c.complete(Category::Stage, "pre", 0, 0, 10, vec![]);
        c.counter(Category::Io, "depth", 0, 5, 3);
        c.instant(Category::Fabric, "wire", 0, 0, vec![]);
        assert!(c.is_empty());
        c.complete(Category::Gpu, "kernel", 0, 0, 10, vec![]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn resolved_sorts_by_timestamp_stably() {
        let mut c = Collector::new(TraceConfig::all());
        c.complete(Category::Gpu, "late", 0, 50, 60, vec![]);
        c.complete(Category::Gpu, "early", 0, 10, 20, vec![]);
        c.complete(Category::Gpu, "tie1", 0, 10, 15, vec![]);
        let r = c.resolved();
        let names: Vec<&str> = r.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["early", "tie1", "late"]);
    }
}
