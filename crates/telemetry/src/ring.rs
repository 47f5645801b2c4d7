//! A bounded ring of recent events with a single writer.
//!
//! The ring is deliberately *not* thread-safe: each daemon shard owns one
//! behind the lock that already serializes the shard's operations, and
//! pushes and dumps happen under that lock. That keeps the ring itself
//! free of synchronization and the dump free of torn reads.

use std::collections::VecDeque;

/// A fixed-capacity ring of the most recent events.
#[derive(Clone, Debug)]
pub struct EventRing<T> {
    capacity: usize,
    recorded: u64,
    items: VecDeque<T>,
}

impl<T> EventRing<T> {
    /// A ring keeping at most `capacity` events (0 disables recording).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            capacity,
            recorded: 0,
            items: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends an event, evicting the oldest once full.
    pub fn push(&mut self, event: T) {
        if self.capacity == 0 {
            return;
        }
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(event);
        self.recorded = self.recorded.saturating_add(1);
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever pushed (held + evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events_in_order() {
        let mut ring = EventRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5u32 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut ring = EventRing::new(0);
        ring.push(7u32);
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 0);
    }
}
