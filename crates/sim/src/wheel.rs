//! An indexed calendar event wheel.

use std::collections::{BTreeMap, VecDeque};

use serde::{de, Deserialize, Serialize, Sink, Source, Token};

use crate::time::SimTime;

/// A timed event scheduler that keeps events **indexed by their instant**:
/// a sorted calendar of time buckets, each holding its events in arrival
/// order.
///
/// Semantically identical to a binary-heap priority queue — events
/// pop in non-decreasing time order with FIFO tie-breaking — but with a
/// different cost profile, tuned for the deployment loop's workload:
///
/// * **Pop is O(1) bucket-front** — the hot path of a long simulation is
///   `peek_time`/`pop` on the same leading bucket (both stations tick on
///   the same half-hour grid), which never rebalances a heap.
/// * **Recurring instants coalesce** — the half-hourly ticks of every
///   station land in one bucket per instant, so the calendar holds one
///   entry per *distinct* time, not per event.
/// * **Batch scheduling** — [`push_batch`](EventWheel::push_batch) files a
///   whole series of same-instant events with a single bucket lookup.
///
/// The FIFO tie-break is load-bearing for reproducibility: two stations
/// scheduled for the same midday window always run in the order they were
/// registered, which the equivalence proptests against a heap queue pin.
///
/// # Example
///
/// ```
/// use glacsweb_sim::{EventWheel, SimTime};
///
/// let t = SimTime::from_unix(100);
/// let mut w = EventWheel::new();
/// w.push(t, "base station");
/// w.push(t, "reference station");
/// assert_eq!(w.pop(), Some((t, "base station")));
/// assert_eq!(w.pop(), Some((t, "reference station")));
/// assert_eq!(w.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventWheel<E> {
    /// Calendar: instant → events due then, each tagged with its global
    /// arrival sequence so cross-bucket FIFO survives re-insertion.
    calendar: BTreeMap<SimTime, VecDeque<(u64, E)>>,
    /// Global arrival counter (never reused, monotone).
    seq: u64,
    /// Total scheduled events across all buckets.
    len: usize,
}

impl<E> EventWheel<E> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        EventWheel {
            calendar: BTreeMap::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.calendar
            .entry(time)
            .or_default()
            .push_back((seq, event));
        self.len += 1;
    }

    /// Schedules every event in `events` at `time` with one bucket
    /// lookup, preserving their order.
    ///
    /// An empty iterator is a no-op: no bucket is created, so `pop`,
    /// `peek_time` and `len` stay consistent (an empty calendar bucket
    /// would make `pop` return `None` while `peek_time` still reported
    /// pending work).
    pub fn push_batch(&mut self, time: SimTime, events: impl IntoIterator<Item = E>) {
        let mut events = events.into_iter().peekable();
        if events.peek().is_none() {
            return;
        }
        let bucket = self.calendar.entry(time).or_default();
        for event in events {
            let seq = self.seq;
            self.seq += 1;
            bucket.push_back((seq, event));
            self.len += 1;
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Within a bucket, events leave in ascending arrival sequence —
    /// pushes always append in sequence order, so the front of the deque
    /// is the oldest arrival.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut first = self.calendar.first_entry()?;
        let time = *first.key();
        let (_, event) = first.get_mut().pop_front()?;
        if first.get().is_empty() {
            first.remove();
        }
        self.len -= 1;
        Some((time, event))
    }

    /// The time of the earliest scheduled event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.calendar.keys().next().copied()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all scheduled events.
    pub fn clear(&mut self) {
        self.calendar.clear();
        self.len = 0;
    }

    /// Number of distinct instants currently holding events.
    pub fn buckets(&self) -> usize {
        self.calendar.len()
    }

    /// Visits every scheduled event in firing order (time, then arrival)
    /// without disturbing the wheel.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.calendar
            .iter()
            .flat_map(|(&t, bucket)| bucket.iter().map(move |(_, e)| (t, e)))
    }
}

impl<E> Default for EventWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventWheel<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (t, e) in iter {
            self.push(t, e);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventWheel<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut w = EventWheel::new();
        w.extend(iter);
        w
    }
}

// Hand-written (de)serialization: the wheel is generic, which the vendored
// derive does not support, and the FIFO arrival tags are load-bearing for
// reproducibility — a snapshot must carry every `(instant, tag, event)`
// triple plus the monotone arrival counter so a restored wheel pops in
// exactly the order the saved one would have.
impl<E: Serialize> Serialize for EventWheel<E> {
    fn stream_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        let Self { calendar, seq, len } = self;
        sink.map(2);
        sink.str("seq");
        seq.stream_to(sink);
        sink.str("entries");
        sink.seq(*len);
        for (t, bucket) in calendar {
            for (tag, event) in bucket {
                sink.seq(3);
                t.stream_to(sink);
                tag.stream_to(sink);
                event.stream_to(sink);
            }
        }
    }
}

impl<E> Deserialize for EventWheel<E>
where
    E: Deserialize,
{
    fn stream_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, de::Error> {
        let (mut seq, mut entries) = (None, None);
        let mut f = de::Fields::read(src, ["seq", "entries"], |f, src, i| {
            if i == 0 {
                f.decode(src, &mut seq)
            } else {
                let known = seq;
                f.decode_with(src, &mut entries, |src| read_entries(src, known))
            }
        })?;
        let seq: u64 = f.take(0, seq)?;
        let entries = f.take_or(1, entries, missing_entries)?;
        let len = entries.len();
        let mut calendar: BTreeMap<SimTime, VecDeque<(u64, E)>> = BTreeMap::new();
        for (t, tag, event) in entries {
            // Already checked unless `entries` came before `seq`.
            check_tag(tag, seq)?;
            calendar.entry(t).or_default().push_back((tag, event));
        }
        // Arrival tags must be strictly increasing within each bucket —
        // anything else would replay events in an order the saved run
        // never took.
        for bucket in calendar.values() {
            let ordered = bucket
                .iter()
                .zip(bucket.iter().skip(1))
                .all(|((a, _), (b, _))| a < b);
            if !ordered {
                return Err(de::Error::custom(
                    "event wheel bucket arrival tags out of FIFO order",
                ));
            }
        }
        Ok(EventWheel { calendar, seq, len })
    }
}

fn missing_entries() -> de::Error {
    de::Error::custom("event wheel: missing `entries` sequence")
}

/// Every `(instant, tag, event)` in wire order, each tag checked against
/// the arrival counter `seq` if it has been read already.
fn read_entries<E, S>(src: &mut S, seq: Option<u64>) -> Result<Vec<(SimTime, u64, E)>, de::Error>
where
    E: Deserialize,
    S: Source + ?Sized,
{
    let Token::Seq(n) = src.next()? else {
        return Err(missing_entries());
    };
    let mut entries = Vec::with_capacity(src.reserve(n));
    for _ in 0..n {
        let Token::Seq(3) = src.next()? else {
            return Err(de::Error::custom(
                "event wheel entry must be [time, tag, event]",
            ));
        };
        let t = SimTime::stream_from(src)?;
        let tag = u64::stream_from(src)?;
        if let Some(seq) = seq {
            check_tag(tag, seq)?;
        }
        entries.push((t, tag, E::stream_from(src)?));
    }
    Ok(entries)
}

fn check_tag(tag: u64, seq: u64) -> Result<(), de::Error> {
    if tag < seq {
        return Ok(());
    }
    // glacsweb: allow(perf-hygiene, reason = "restore-time error path; runs once per snapshot load, never per substep")
    Err(de::Error::custom(format!(
        "event wheel entry tag {tag} not below arrival counter {seq}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut w = EventWheel::new();
        w.push(SimTime::from_unix(30), "c");
        w.push(SimTime::from_unix(10), "a");
        w.push(SimTime::from_unix(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut w = EventWheel::new();
        let t = SimTime::from_unix(5);
        for i in 0..100 {
            w.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn batch_push_preserves_order_and_coalesces() {
        let mut w = EventWheel::new();
        let t = SimTime::from_unix(60);
        w.push(t, 0);
        w.push_batch(t, [1, 2, 3]);
        assert_eq!(w.len(), 4);
        assert_eq!(w.buckets(), 1, "same instant shares one bucket");
        let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [0, 1, 2, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut w: EventWheel<u32> = EventWheel::new();
        w.push_batch(SimTime::from_unix(10), std::iter::empty());
        assert!(w.is_empty());
        assert_eq!(w.buckets(), 0, "no phantom bucket");
        assert_eq!(w.peek_time(), None);
        assert_eq!(w.pop(), None);
        // A later real push at the same instant behaves normally.
        w.push_batch(SimTime::from_unix(10), std::iter::empty());
        w.push(SimTime::from_unix(10), 7);
        assert_eq!(w.peek_time(), Some(SimTime::from_unix(10)));
        assert_eq!(w.pop(), Some((SimTime::from_unix(10), 7)));
        assert!(w.is_empty());
    }

    #[test]
    fn peek_len_clear() {
        let mut w = EventWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
        w.push(SimTime::from_unix(7), ());
        w.push(SimTime::from_unix(3), ());
        assert_eq!(w.len(), 2);
        assert_eq!(w.peek_time(), Some(SimTime::from_unix(3)));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo() {
        // Re-scheduling after pops (the deployment loop's shape: pop a
        // tick, push the next one) must keep cross-bucket FIFO intact.
        let mut w = EventWheel::new();
        w.push(SimTime::from_unix(10), "tick-a");
        w.push(SimTime::from_unix(10), "tick-b");
        assert_eq!(w.pop(), Some((SimTime::from_unix(10), "tick-a")));
        w.push(SimTime::from_unix(10), "tick-a2");
        assert_eq!(w.pop(), Some((SimTime::from_unix(10), "tick-b")));
        assert_eq!(w.pop(), Some((SimTime::from_unix(10), "tick-a2")));
    }

    #[test]
    fn collects_from_iterator() {
        let w: EventWheel<u32> = (0..5u32)
            .map(|i| (SimTime::from_unix(u64::from(10 - i)), i))
            .collect();
        assert_eq!(w.len(), 5);
    }

    proptest! {
        /// The wheel is observationally identical to the reference
        /// `EventQueue` under any interleaving of pushes and pops.
        #[test]
        fn equivalent_to_event_queue(
            ops in proptest::collection::vec((0u64..50, 0u8..2), 1..300),
        ) {
            let mut w = EventWheel::new();
            let mut q = EventQueue::new();
            for (i, (t, is_pop)) in ops.iter().enumerate() {
                if *is_pop == 1 {
                    prop_assert_eq!(w.pop(), q.pop());
                } else {
                    w.push(SimTime::from_unix(*t), i);
                    q.push(SimTime::from_unix(*t), i);
                }
                prop_assert_eq!(w.len(), q.len());
                prop_assert_eq!(w.peek_time(), q.peek_time());
            }
            loop {
                let (a, b) = (w.pop(), q.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Batch scheduling equals the same events pushed one by one —
        /// including empty batches, which must leave no trace.
        #[test]
        fn batch_equals_singles(
            batches in proptest::collection::vec((0u64..20, 0usize..4), 1..50),
        ) {
            let mut batched = EventWheel::new();
            let mut singles = EventWheel::new();
            for (i, (t, size)) in batches.iter().enumerate() {
                let t = SimTime::from_unix(*t);
                batched.push_batch(t, (0..*size).map(|j| (i, j)));
                for j in 0..*size {
                    singles.push(t, (i, j));
                }
            }
            prop_assert_eq!(batched.len(), singles.len());
            prop_assert_eq!(batched.buckets(), singles.buckets());
            prop_assert_eq!(batched.peek_time(), singles.peek_time());
            loop {
                let (a, b) = (batched.pop(), singles.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
