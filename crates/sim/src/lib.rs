//! A deterministic discrete-event simulation (DES) kernel.
//!
//! This is the substrate that stands in for the paper's 16-node Chameleon
//! testbed: virtual time in nanoseconds, an event queue ordered by
//! `(time, insertion sequence)` so runs are bit-for-bit reproducible, and
//! FIFO *resources* that model serialized hardware (a disk, a NIC lane, a
//! recycle thread) by tracking when they next become free.
//!
//! Events are boxed continuations over a user-supplied world type `W`:
//!
//! ```
//! use tsue_sim::Sim;
//!
//! let mut sim: Sim<u64> = Sim::new();
//! sim.schedule(5, |w: &mut u64, sim: &mut Sim<u64>| {
//!     *w += 1;
//!     sim.schedule(10, |w: &mut u64, _: &mut Sim<u64>| *w += 10);
//! });
//! let mut world = 0u64;
//! sim.run(&mut world);
//! assert_eq!(world, 11);
//! assert_eq!(sim.now(), 15);
//! ```

#![warn(missing_docs)]

pub mod resource;

pub use resource::{FifoResource, MultiResource};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in nanoseconds.
pub type Time = u64;

/// One second in simulation ticks.
pub const SECOND: Time = 1_000_000_000;
/// One millisecond in simulation ticks.
pub const MILLISECOND: Time = 1_000_000;
/// One microsecond in simulation ticks.
pub const MICROSECOND: Time = 1_000;

/// A scheduled continuation.
type Event<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>)>;

struct Entry<W> {
    at: Time,
    seq: u64,
    event: Event<W>,
}

impl<W> PartialEq for Entry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Entry<W> {}
impl<W> PartialOrd for Entry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Entry<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The simulation executor: a virtual clock plus an event queue.
///
/// `Sim` is generic over the world `W` it drives; events receive
/// `(&mut W, &mut Sim<W>)` so they can mutate state and schedule follow-ups.
pub struct Sim<W> {
    now: Time,
    seq: u64,
    queue: BinaryHeap<Reverse<Entry<W>>>,
    events_executed: u64,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Sim {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            events_executed: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events executed so far (useful for budget guards).
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to run `delay` ticks from now. Events scheduled at
    /// the same instant run in insertion order, which keeps runs
    /// deterministic.
    pub fn schedule<F>(&mut self, delay: Time, event: F)
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Schedules `event` at the absolute virtual time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_at<F>(&mut self, at: Time, event: F)
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Entry {
            at,
            seq,
            event: Box::new(event),
        }));
    }

    /// Runs to quiescence (queue empty). Returns the final time.
    pub fn run(&mut self, world: &mut W) -> Time {
        while self.step(world) {}
        self.now
    }

    /// Runs until virtual time reaches `deadline` (events at exactly
    /// `deadline` still execute) or the queue drains. The clock is advanced
    /// to `deadline` afterwards so rate computations over the window are
    /// well-defined even if the last event fired earlier.
    pub fn run_until(&mut self, world: &mut W, deadline: Time) -> Time {
        while let Some(Reverse(event)) = self.queue.peek() {
            if event.at > deadline {
                break;
            }
            self.step(world);
        }
        self.now = self.now.max(deadline);
        self.now
    }

    /// Runs while `cond(world)` holds and events remain.
    pub fn run_while<F>(&mut self, world: &mut W, mut cond: F) -> Time
    where
        F: FnMut(&W) -> bool,
    {
        while cond(world) && self.step(world) {}
        self.now
    }

    /// Executes a single event. Returns false when the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.queue.pop() {
            Some(Reverse(entry)) => {
                debug_assert!(entry.at >= self.now, "time went backwards");
                self.now = entry.at;
                self.events_executed += 1;
                (entry.event)(world, self);
                true
            }
            None => false,
        }
    }

    /// Drops all pending events (used by failure-injection teardown).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        sim.schedule(30, |w: &mut Vec<u32>, _: &mut Sim<Vec<u32>>| w.push(3));
        sim.schedule(10, |w: &mut Vec<u32>, _: &mut Sim<Vec<u32>>| w.push(1));
        sim.schedule(20, |w: &mut Vec<u32>, _: &mut Sim<Vec<u32>>| w.push(2));
        let mut world = Vec::new();
        sim.run(&mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(sim.now(), 30);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn same_time_events_run_in_insertion_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        for i in 0..10 {
            sim.schedule(5, move |w: &mut Vec<u32>, _: &mut Sim<Vec<u32>>| w.push(i));
        }
        let mut world = Vec::new();
        sim.run(&mut world);
        assert_eq!(world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<u64> = Sim::new();
        fn tick(w: &mut u64, sim: &mut Sim<u64>) {
            *w += 1;
            if *w < 100 {
                sim.schedule(1, tick);
            }
        }
        sim.schedule(0, tick);
        let mut world = 0;
        sim.run(&mut world);
        assert_eq!(world, 100);
        assert_eq!(sim.now(), 99);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Sim<u64> = Sim::new();
        for t in (0..10).map(|i| i * 10) {
            sim.schedule(t, |w: &mut u64, _: &mut Sim<u64>| *w += 1);
        }
        let mut world = 0;
        sim.run_until(&mut world, 45);
        assert_eq!(world, 5); // events at 0,10,20,30,40
        assert!(sim.pending() > 0);
        sim.run(&mut world);
        assert_eq!(world, 10);
    }

    #[test]
    fn run_while_observes_condition() {
        let mut sim: Sim<u64> = Sim::new();
        for _ in 0..100 {
            sim.schedule(1, |w: &mut u64, _: &mut Sim<u64>| *w += 1);
        }
        let mut world = 0;
        sim.run_while(&mut world, |w| *w < 7);
        assert_eq!(world, 7);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim: Sim<()> = Sim::new();
        sim.schedule(10, |_: &mut (), sim: &mut Sim<()>| {
            sim.schedule_at(5, |_, _| {});
        });
        sim.run(&mut ());
    }

    #[test]
    fn clear_drops_pending() {
        let mut sim: Sim<u64> = Sim::new();
        sim.schedule(1, |w: &mut u64, _: &mut Sim<u64>| *w += 1);
        sim.clear();
        let mut w = 0;
        sim.run(&mut w);
        assert_eq!(w, 0);
    }
}
