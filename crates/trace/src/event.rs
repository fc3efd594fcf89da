//! The trace event model: categories, phases, spans and counters.
//!
//! One [`Event`] is one row of the timeline. Most instrumentation
//! emits *complete* spans — the simulation computes an operation's
//! start and completion time in the same handler, so both ends are
//! known at emission. Begin/end spans exist for stages whose end is
//! only learned by a later event handler; they pair by [`SpanId`], so
//! emission order does not matter.

/// Event categories — one per instrumented subsystem. Each can be
/// enabled independently; a disabled category costs one mask check
/// per emission site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Pipeline stages: pre-shader, shader, post-shader, CPU-path
    /// processing, master gather (emitted by `ps-core`).
    Stage,
    /// GPU engine operations: host↔device copies and kernel launches
    /// (emitted by `ps-gpu`).
    Gpu,
    /// Fabric resource acquisition: every transaction served by a
    /// labelled `ps-sim` bandwidth server — IOH DMA directions, NIC
    /// wires (PCIe occupancy rides the IOH and GPU events).
    Fabric,
    /// Packet I/O engine: RX/TX batch assembly and ring/buffer
    /// occupancy gauges (emitted by `ps-io` helpers).
    Io,
    /// Injected faults: one instant per fault the `ps-fault` plan
    /// fires (NIC starvation, link flaps, wire corruption, PCIe
    /// stalls, GPU aborts/stragglers). Fault-free runs emit none, so
    /// enabling the category costs nothing when no plan is armed.
    Fault,
    /// Stateful-NF flow cache: per-node occupancy, eviction/expiry
    /// totals and cuckoo displacement depth gauges (emitted by the
    /// NAT and load-balancer apps in `ps-core`).
    Flow,
}

impl Category {
    /// All categories, in export order.
    pub const ALL: [Category; 6] = [
        Category::Stage,
        Category::Gpu,
        Category::Fabric,
        Category::Io,
        Category::Fault,
        Category::Flow,
    ];

    #[inline]
    pub(crate) fn bit(self) -> u8 {
        match self {
            Category::Stage => 1 << 0,
            Category::Gpu => 1 << 1,
            Category::Fabric => 1 << 2,
            Category::Io => 1 << 3,
            Category::Fault => 1 << 4,
            Category::Flow => 1 << 5,
        }
    }

    /// Stable lowercase name used in `PS_TRACE` lists and the Chrome
    /// `cat` field.
    pub fn name(self) -> &'static str {
        match self {
            Category::Stage => "stage",
            Category::Gpu => "gpu",
            Category::Fabric => "fabric",
            Category::Io => "io",
            Category::Fault => "fault",
            Category::Flow => "flow",
        }
    }

    /// Parse a single category name as written in `PS_TRACE`.
    pub fn parse(s: &str) -> Option<Category> {
        match s.trim() {
            "stage" => Some(Category::Stage),
            "gpu" => Some(Category::Gpu),
            "fabric" => Some(Category::Fabric),
            "io" => Some(Category::Io),
            "fault" => Some(Category::Fault),
            "flow" => Some(Category::Flow),
            _ => None,
        }
    }
}

/// A set of enabled categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryMask(pub(crate) u8);

impl CategoryMask {
    /// Every category enabled.
    pub const ALL: CategoryMask = CategoryMask(0b111111);
    /// No category enabled.
    #[cfg(test)]
    pub(crate) const NONE: CategoryMask = CategoryMask(0);

    /// Mask with exactly the given categories.
    pub fn of(cats: &[Category]) -> CategoryMask {
        CategoryMask(cats.iter().fold(0, |m, c| m | c.bit()))
    }

    /// Parse a `PS_TRACE`-style list: comma-separated category names,
    /// or `all`/`1` for everything. Unknown names are ignored; an
    /// empty or unrecognized list yields the empty mask.
    pub fn parse(list: &str) -> CategoryMask {
        let list = list.trim();
        if list == "all" || list == "1" {
            return CategoryMask::ALL;
        }
        CategoryMask(
            list.split(',')
                .filter_map(Category::parse)
                .fold(0, |m, c| m | c.bit()),
        )
    }

    /// Whether `cat` is enabled in this mask.
    #[inline]
    pub fn contains(self, cat: Category) -> bool {
        self.0 & cat.bit() != 0
    }

    /// Whether no category is enabled.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Identifier pairing a begin event with its end event. Unique per
/// collector install.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) u64);

/// Event phase, mirroring the Chrome `trace_event` `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span: `[ts, ts + dur]` (`ph: "X"`).
    Complete {
        /// Span duration in virtual nanoseconds.
        dur: u64,
    },
    /// Span start, paired with the [`Phase::End`] carrying the same
    /// [`SpanId`].
    Begin {
        /// Pairing id.
        id: SpanId,
    },
    /// Span end, paired with the [`Phase::Begin`] carrying the same
    /// [`SpanId`].
    End {
        /// Pairing id.
        id: SpanId,
    },
    /// A gauge sample (`ph: "C"`).
    Counter {
        /// Sampled value.
        value: u64,
    },
    /// A zero-duration marker (`ph: "i"`).
    Instant,
}

/// Key/value arguments attached to an event. Keys are static names;
/// values are integers (counts, bytes, thread counts). Bounded so an
/// event never allocates more than one small `Vec`.
pub type Args = Vec<(&'static str, u64)>;

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Virtual timestamp (ns).
    pub ts: u64,
    /// Category (also the Chrome `pid` lane group).
    pub cat: Category,
    /// Event name (the Chrome `name` field).
    pub name: &'static str,
    /// Lane within the category: worker index, node index, port
    /// index… (the Chrome `tid` field).
    pub lane: u32,
    /// Phase and phase-specific payload.
    pub phase: Phase,
    /// Key/value arguments.
    pub args: Args,
}

impl Event {
    /// Span duration for complete events, 0 otherwise.
    pub fn dur(&self) -> u64 {
        match self.phase {
            Phase::Complete { dur } => dur,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_parse_handles_lists_and_all() {
        assert_eq!(CategoryMask::parse("all"), CategoryMask::ALL);
        assert_eq!(CategoryMask::parse("1"), CategoryMask::ALL);
        assert_eq!(
            CategoryMask::parse("stage,gpu"),
            CategoryMask::of(&[Category::Stage, Category::Gpu])
        );
        assert_eq!(CategoryMask::parse("bogus"), CategoryMask::NONE);
        assert!(CategoryMask::parse("").is_empty());
    }

    #[test]
    fn mask_contains_only_selected() {
        let m = CategoryMask::of(&[Category::Fabric]);
        assert!(m.contains(Category::Fabric));
        assert!(!m.contains(Category::Stage));
        assert!(!m.contains(Category::Io));
    }

    #[test]
    fn category_names_round_trip() {
        for c in Category::ALL {
            assert_eq!(Category::parse(c.name()), Some(c));
        }
    }
}
