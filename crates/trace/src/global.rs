//! The per-thread tracer the instrumented crates talk to.
//!
//! Emission sites cannot thread a `&mut Collector` through every
//! model (the bandwidth servers sit several layers below the code
//! that owns the collector), so the active collector is installed
//! per thread. The enabled mask is mirrored into a plain [`Cell`] so
//! the off path — no collector, or category disabled — is a single
//! load with no `RefCell` borrow and no allocation.

use std::cell::{Cell, RefCell};

use crate::collector::Collector;
use crate::event::{Args, Category};
use crate::Time;

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    /// Cached `CategoryMask` bits of the installed collector (0 when
    /// none), checked before touching the `RefCell`.
    static MASK: Cell<u8> = const { Cell::new(0) };
}

/// Install `collector` as this thread's tracer, replacing (and
/// returning) any previous one. Instrumented code all over the
/// workspace starts recording immediately.
pub fn install(collector: Collector) -> Option<Collector> {
    MASK.with(|m| m.set(collector.mask().0));
    COLLECTOR.with(|c| c.borrow_mut().replace(collector))
}

/// Remove and return this thread's tracer; emission becomes free
/// again.
pub fn take() -> Option<Collector> {
    MASK.with(|m| m.set(0));
    COLLECTOR.with(|c| c.borrow_mut().take())
}

/// Whether any tracer is installed on this thread.
pub fn is_installed() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Whether `cat` is enabled on this thread's tracer. This is the
/// fast path every emission helper takes first; with tracing off it
/// is one thread-local `Cell` load.
#[inline]
pub fn enabled(cat: Category) -> bool {
    MASK.with(|m| m.get()) & cat.bit() != 0
}

fn with(f: impl FnOnce(&mut Collector)) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            f(col);
        }
    });
}

/// Record a complete span on the installed tracer (no-op when off).
/// `args` is built lazily so the off path never allocates.
#[inline]
pub fn complete(
    cat: Category,
    name: &'static str,
    lane: u32,
    start: Time,
    end: Time,
    args: impl FnOnce() -> Args,
) {
    if !enabled(cat) {
        return;
    }
    let args = args();
    with(|c| c.complete(cat, name, lane, start, end, args));
}

/// Record a gauge sample on the installed tracer (no-op when off).
#[inline]
pub fn counter(cat: Category, name: &'static str, lane: u32, ts: Time, value: u64) {
    if !enabled(cat) {
        return;
    }
    with(|c| c.counter(cat, name, lane, ts, value));
}

/// Record a zero-duration marker on the installed tracer.
#[inline]
pub fn instant(
    cat: Category,
    name: &'static str,
    lane: u32,
    ts: Time,
    args: impl FnOnce() -> Args,
) {
    if !enabled(cat) {
        return;
    }
    let args = args();
    with(|c| c.instant(cat, name, lane, ts, args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceConfig;
    use crate::event::CategoryMask;

    // Each test thread has its own collector, so these tests are
    // isolated from each other and from any other test using the
    // global API.

    #[test]
    fn install_take_round_trip() {
        assert!(take().is_none());
        assert!(!is_installed());
        install(Collector::new(TraceConfig::all()));
        assert!(is_installed());
        assert!(enabled(Category::Stage));
        complete(Category::Stage, "s", 0, 1, 2, Vec::new);
        counter(Category::Io, "g", 0, 1, 7);
        let c = take().unwrap();
        assert_eq!(c.len(), 2);
        assert!(!enabled(Category::Stage));
    }

    #[test]
    fn emission_without_tracer_is_a_no_op() {
        assert!(!enabled(Category::Gpu));
        complete(Category::Gpu, "k", 0, 0, 1, || {
            panic!("args must not build")
        });
        instant(Category::Gpu, "k", 0, 0, || panic!("args must not build"));
    }

    #[test]
    fn mask_gates_categories_at_the_global_level() {
        install(Collector::new(TraceConfig {
            mask: CategoryMask::of(&[Category::Fabric]),
            capacity: 64,
        }));
        assert!(enabled(Category::Fabric));
        assert!(!enabled(Category::Stage));
        complete(Category::Stage, "s", 0, 0, 1, || panic!("gated"));
        complete(Category::Fabric, "wire", 0, 0, 1, Vec::new);
        assert_eq!(take().unwrap().len(), 1);
    }
}
