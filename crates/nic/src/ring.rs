//! Descriptor rings: fixed-capacity FIFO queues with drop-on-full
//! semantics, modelling the 82599's per-queue RX/TX rings.

use std::collections::VecDeque;

/// A fixed-capacity ring. `T` is whatever a descriptor points at — in
/// the simulation, an owned packet record.
#[derive(Debug)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    /// Deepest occupancy ever reached — the queue-growth gauge the
    /// overload experiments report (a full ring at peak means the
    /// run was admission-limited, not service-limited).
    pub peak: usize,
}

impl<T> Ring<T> {
    /// A ring holding up to `capacity` descriptors.
    pub fn new(capacity: usize) -> Ring<T> {
        assert!(capacity > 0);
        Ring {
            items: VecDeque::with_capacity(capacity),
            capacity,
            peak: 0,
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied descriptors.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when no descriptor is free.
    pub(crate) fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Free descriptors.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Enqueue; on a full ring the item is dropped (tail drop) and
    /// `Err` returns it to the caller, which accounts for it.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.items.push_back(item);
        self.peak = self.peak.max(self.items.len());
        Ok(())
    }

    /// Dequeue one.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Dequeue up to `max` items onto the end of `out` — the batched
    /// fetch at the heart of the I/O engine (§4.3: "the chunk size is
    /// not fixed but only capped"). The caller owns (and can recycle)
    /// the vector.
    pub fn pop_batch_into(&mut self, out: &mut Vec<T>, max: usize) {
        let n = max.min(self.items.len());
        out.extend(self.items.drain(..n));
    }

    /// [`Ring::pop_batch_into`] a fresh vector.
    pub fn pop_batch(&mut self, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        self.pop_batch_into(&mut out, max);
        out
    }

    /// Peek at the head without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut r = Ring::new(4);
        for i in 0..4 {
            r.push(i).unwrap();
        }
        assert_eq!(r.pop(), Some(0));
        assert_eq!(r.pop(), Some(1));
    }

    #[test]
    fn tail_drop_when_full() {
        let mut r = Ring::new(2);
        r.push('a').unwrap();
        r.push('b').unwrap();
        assert_eq!(r.push('c'), Err('c'));
        assert_eq!(r.len(), 2);
        assert!(r.is_full());
    }

    #[test]
    fn batch_pop_caps_at_available() {
        let mut r = Ring::new(64);
        for i in 0..10 {
            r.push(i).unwrap();
        }
        let batch = r.pop_batch(64);
        assert_eq!(batch, (0..10).collect::<Vec<_>>());
        assert!(r.is_empty());
        assert!(r.pop_batch(4).is_empty());
    }

    #[test]
    fn batch_pop_respects_max() {
        let mut r = Ring::new(64);
        for i in 0..10 {
            r.push(i).unwrap();
        }
        assert_eq!(r.pop_batch(4), vec![0, 1, 2, 3]);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn batch_pop_into_appends_and_keeps_the_allocation() {
        let mut r = Ring::new(64);
        for i in 0..10 {
            r.push(i).unwrap();
        }
        let mut out = Vec::with_capacity(16);
        let buf = out.as_ptr();
        r.pop_batch_into(&mut out, 4);
        r.pop_batch_into(&mut out, 64);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(out.as_ptr(), buf);
        assert!(r.is_empty());
    }

    #[test]
    fn peak_tracks_deepest_occupancy() {
        let mut r = Ring::new(8);
        for i in 0..5 {
            r.push(i).unwrap();
        }
        r.pop_batch(4);
        r.push(9).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.peak, 5);
    }

    #[test]
    fn free_slots_track_occupancy() {
        let mut r: Ring<u8> = Ring::new(8);
        assert_eq!(r.free(), 8);
        r.push(1).unwrap();
        assert_eq!(r.free(), 7);
        r.pop();
        assert_eq!(r.free(), 8);
    }

    #[test]
    fn wrap_around_many_times() {
        // Rings recycle descriptors indefinitely (huge-buffer cells
        // are reused "whenever the circular RX queues wrap up", §4.2).
        let mut r = Ring::new(3);
        for i in 0..1000 {
            r.push(i).unwrap();
            assert_eq!(r.pop(), Some(i));
        }
    }
}
