//! The subscription registry: per-consumer bounded match-event channels.
//!
//! Shard workers publish the [`MatchEvent`]s of each drained batch to the
//! registry in one batched call per (batch, query); each subscriber owns
//! its *own* bounded queue with its own [`BackpressurePolicy`], so a slow
//! or stalled consumer lags or drops on its private channel without ever
//! stalling ingestion (use [`BackpressurePolicy::DropNewest`] for that
//! guarantee — a `Block` subscriber that never drains *will* eventually
//! park the shard workers, which is the explicit opt-in "lossless but
//! stalling" trade-off).
//!
//! Delivery is batched on both ends of a channel. A publish takes each
//! accepting subscriber's lock once, appends the whole run of events
//! (cloned for every accepting subscriber but the last, which takes them
//! by move) and wakes a waiting consumer once. The consumer swaps the
//! whole shared queue into a private buffer under one lock and pops from
//! that buffer without touching the shared lock again. Events in the
//! consumer buffer still count against `capacity`, so the memory bound
//! and the `Block`/`DropNewest` semantics are those of a single queue:
//! a publisher parks (or drops) only while queue plus buffer hold
//! `capacity` events, and a consumer pop wakes a parked publisher.
//!
//! Subscriptions filter per query ([`SubscriptionFilter::Query`]) or
//! receive everything ([`SubscriptionFilter::All`]). Dropping a
//! [`Subscription`] closes its queue; publishers skip closed queues and
//! the registry prunes them on the next subscribe. Runtime shutdown
//! closes every channel from the other side
//! ([`SubscriptionRegistry::close_all`]) — waking publishers parked on
//! full `Block` channels so the shard workers can exit — while events
//! already queued stay readable by the consumer.
//!
//! The registry's `delivery` histogram holds one sample per delivered
//! match: the wall time of the batched publish that carried it.

use super::BackpressurePolicy;
use crate::runtime::{MatchEvent, QueryId};
use cer_obs::Histogram;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// Which match events a subscription receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubscriptionFilter {
    /// Every query's events.
    All,
    /// Only one query's events.
    Query(QueryId),
}

impl SubscriptionFilter {
    fn accepts(&self, q: QueryId) -> bool {
        match self {
            SubscriptionFilter::All => true,
            SubscriptionFilter::Query(id) => *id == q,
        }
    }
}

struct SubInner {
    events: VecDeque<MatchEvent>,
    dropped: u64,
    /// Consumers parked on `not_empty`; publishers skip the wake (a
    /// futex syscall) when there are none.
    waiting: usize,
}

struct SubQueue {
    inner: Mutex<SubInner>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Events the consumer swapped out of `inner.events` and has not
    /// popped yet. Raised under the lock by a refill, lowered by each
    /// lock-free pop; publishers count it against `capacity`.
    buffered: AtomicUsize,
    /// Publishers parked on `not_full` that no reader has woken yet. A
    /// reader that frees space wakes them (and resets this) only when
    /// it is non-zero, so an unblocked channel costs readers no wake.
    parked: AtomicUsize,
    /// Set (under the lock) when either end closes the channel; read
    /// lock-free by publishers and the per-batch listening check.
    closed: AtomicBool,
    capacity: usize,
    policy: BackpressurePolicy,
    filter: SubscriptionFilter,
}

impl SubQueue {
    fn lock(&self) -> MutexGuard<'_, SubInner> {
        self.inner.lock().expect("subscription queue poisoned")
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Publisher side: append a run of events under one lock, waking a
    /// waiting consumer once per appended piece. `Block` appends as much
    /// as fits and parks for the rest (a channel smaller than the run
    /// takes it in capacity-sized pieces); `DropNewest` appends what
    /// fits and counts the rest as dropped.
    fn append(&self, mut events: impl ExactSizeIterator<Item = MatchEvent>) {
        let mut inner = self.lock();
        while events.len() > 0 && !self.is_closed() {
            let free = self.free(&inner);
            if free > 0 {
                inner.events.extend(events.by_ref().take(free));
                if inner.waiting > 0 {
                    self.not_empty.notify_one();
                }
                continue;
            }
            match self.policy {
                BackpressurePolicy::DropNewest => {
                    inner.dropped += events.len() as u64;
                    return;
                }
                BackpressurePolicy::Block => {
                    // Announce the park before the final check: a
                    // consumer pop lowers `buffered` and then reads
                    // `parked`, so either this check sees the freed
                    // slot or that pop sees the park and wakes us.
                    self.parked.fetch_add(1, Ordering::SeqCst);
                    if self.free(&inner) == 0 && !self.is_closed() {
                        inner = self
                            .not_full
                            .wait(inner)
                            .expect("subscription queue poisoned");
                    }
                }
            }
        }
    }

    /// Slots left for publishers: `capacity` minus the shared queue and
    /// the consumer's buffer.
    fn free(&self, inner: &SubInner) -> usize {
        let held = inner.events.len() + self.buffered.load(Ordering::SeqCst);
        self.capacity.saturating_sub(held)
    }

    /// Reader side, with the lock held: wake every parked publisher.
    fn wake_publishers(&self) {
        if self.parked.swap(0, Ordering::SeqCst) > 0 {
            self.not_full.notify_all();
        }
    }

    /// Close the channel and wake both ends.
    fn close(&self) {
        let _inner = self.lock();
        self.closed.store(true, Ordering::Release);
        self.parked.store(0, Ordering::SeqCst);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// The shared registry of live subscriptions. Publishing takes a read
/// lock, so shard workers publish concurrently; subscribing takes the
/// write lock and prunes queues whose `Subscription` was dropped.
#[derive(Default)]
pub(crate) struct SubscriptionRegistry {
    subs: RwLock<Vec<Arc<SubQueue>>>,
    /// One sample per delivered match: the wall time of the batched
    /// [`publish_batch`](Self::publish_batch) that carried it, including
    /// any park on a full `Block` subscriber channel — so a stalled
    /// lossless consumer shows up here as a fat delivery tail.
    pub delivery: Histogram,
}

impl SubscriptionRegistry {
    /// Open a subscription with the given filter, capacity (in events)
    /// and backpressure policy.
    pub fn subscribe(
        &self,
        filter: SubscriptionFilter,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Subscription {
        let queue = Arc::new(SubQueue {
            inner: Mutex::new(SubInner {
                events: VecDeque::new(),
                dropped: 0,
                waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            buffered: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            capacity: capacity.max(1),
            policy,
            filter,
        });
        let mut subs = self.subs.write().expect("subscription registry poisoned");
        subs.retain(|s| !s.is_closed());
        subs.push(queue.clone());
        Subscription {
            queue,
            buffer: Mutex::new(VecDeque::new()),
        }
    }

    /// Publish one query's completed matches, in position order, to
    /// every live subscriber that accepts the query: one registry read,
    /// one lock and at most one consumer wake per subscriber. Every
    /// accepting subscriber but the last gets clones; the last takes
    /// the events by move. `events` is left empty (its allocation is
    /// kept for reuse).
    pub fn publish_batch(&self, query: QueryId, events: &mut Vec<MatchEvent>) {
        let n = events.len() as u64;
        if n == 0 {
            return;
        }
        let at = Instant::now();
        {
            let subs = self.subs.read().expect("subscription registry poisoned");
            let mut takers = subs
                .iter()
                .filter(|s| s.filter.accepts(query) && !s.is_closed());
            let mut next = takers.next();
            while let Some(sub) = next {
                next = takers.next();
                if next.is_some() {
                    sub.append(events.iter().cloned());
                } else {
                    sub.append(events.drain(..));
                }
            }
        }
        events.clear();
        self.delivery.record_n(at.elapsed().as_nanos() as u64, n);
    }

    /// Close every subscriber channel and wake anyone parked on it:
    /// publishers parked in a publish on a full `Block` channel return
    /// immediately, and publishers skip closed channels afterwards.
    /// Called by the ingest pipeline's shutdown so a shard worker wedged
    /// on an undrained subscription cannot hang `Runtime::drop`. Events
    /// already queued stay readable; consumers waiting in
    /// `recv_timeout` return `None` early.
    pub fn close_all(&self) {
        let subs = self.subs.read().expect("subscription registry poisoned");
        for sub in subs.iter() {
            sub.close();
        }
    }

    /// Refill `mask` with, per query of `queries`, whether any live
    /// subscriber accepts its events — lets shard workers skip valuation
    /// cloning entirely on quiet queries. One registry read; no
    /// subscriber lock.
    pub fn fill_listening(&self, queries: impl Iterator<Item = QueryId>, mask: &mut Vec<bool>) {
        let subs = self.subs.read().expect("subscription registry poisoned");
        mask.clear();
        mask.extend(queries.map(|q| subs.iter().any(|s| s.filter.accepts(q) && !s.is_closed())));
    }
}

/// The consumer end of one match-event channel. Created by
/// `Runtime::subscribe`; dropping it closes the channel and publishers
/// stop delivering to it.
pub struct Subscription {
    queue: Arc<SubQueue>,
    /// Events swapped out of the shared queue in one lock, popped from
    /// here without it. Counted against the channel capacity through
    /// `SubQueue::buffered`.
    buffer: Mutex<VecDeque<MatchEvent>>,
}

impl Subscription {
    fn buffer(&self) -> MutexGuard<'_, VecDeque<MatchEvent>> {
        self.buffer.lock().expect("subscription buffer poisoned")
    }

    /// Pop the consumer buffer's head; refill the buffer from the shared
    /// queue (one lock, one swap) when it is empty. When both are empty,
    /// returns the shared queue's guard, still held.
    fn pop<'a>(
        &'a self,
        buffer: &mut VecDeque<MatchEvent>,
    ) -> Result<MatchEvent, MutexGuard<'a, SubInner>> {
        if buffer.is_empty() {
            let mut inner = self.queue.lock();
            if inner.events.is_empty() {
                return Err(inner);
            }
            std::mem::swap(buffer, &mut inner.events);
            self.queue.buffered.store(buffer.len(), Ordering::SeqCst);
        }
        let ev = buffer.pop_front().expect("buffer refilled above");
        // Lower the count, then look for a parked publisher: the
        // publisher side announces its park before its final check, so
        // one of the two sees the other.
        self.queue.buffered.fetch_sub(1, Ordering::SeqCst);
        if self.queue.parked.load(Ordering::SeqCst) > 0 {
            let _inner = self.queue.lock();
            self.queue.wake_publishers();
        }
        Ok(ev)
    }

    /// Take one event if one is queued.
    pub fn try_recv(&self) -> Option<MatchEvent> {
        self.pop(&mut self.buffer()).ok()
    }

    /// Wait up to `timeout` for one event. `Duration::MAX` (or any
    /// timeout past the clock's range) waits until an event arrives or
    /// the channel closes.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<MatchEvent> {
        // Read the clock only once the channel is found empty: a
        // consumer that keeps up never does.
        let mut deadline: Option<Option<Instant>> = None;
        loop {
            let mut buffer = self.buffer();
            let mut inner = match self.pop(&mut buffer) {
                Ok(ev) => return Some(ev),
                Err(inner) => inner,
            };
            // The buffer is empty; release it so `len`/`drain` on other
            // threads do not wait out this receive.
            drop(buffer);
            // A closed empty channel can never fill again (the runtime
            // shut down): return early instead of sleeping the timeout.
            if self.queue.is_closed() {
                return None;
            }
            // Queue and buffer are empty, so any publisher still parked
            // has room: wake it before this consumer sleeps.
            self.queue.wake_publishers();
            inner.waiting += 1;
            let deadline = *deadline.get_or_insert_with(|| Instant::now().checked_add(timeout));
            inner = match deadline {
                None => self
                    .queue
                    .not_empty
                    .wait(inner)
                    .expect("subscription queue poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        inner.waiting -= 1;
                        return None;
                    }
                    self.queue
                        .not_empty
                        .wait_timeout(inner, deadline - now)
                        .expect("subscription queue poisoned")
                        .0
                }
            };
            inner.waiting -= 1;
        }
    }

    /// Take everything currently queued, without waiting.
    pub fn drain(&self) -> Vec<MatchEvent> {
        let mut buffer = self.buffer();
        let mut inner = self.queue.lock();
        let out: Vec<MatchEvent> = buffer.drain(..).chain(inner.events.drain(..)).collect();
        self.queue.buffered.store(0, Ordering::SeqCst);
        self.queue.wake_publishers();
        out
    }

    /// Events currently queued, including those already in the
    /// consumer buffer.
    pub fn len(&self) -> usize {
        let buffer = self.buffer();
        buffer.len() + self.queue.lock().events.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped on this channel by
    /// [`BackpressurePolicy::DropNewest`].
    pub fn dropped(&self) -> u64 {
        self.queue.lock().dropped
    }

    /// The subscription's filter.
    pub fn filter(&self) -> SubscriptionFilter {
        self.queue.filter
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Wakes a publisher parked on a full queue so it observes the
        // close instead of waiting forever.
        self.queue.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::valuation::Valuation;

    fn ev(q: u32, pos: u64) -> MatchEvent {
        MatchEvent {
            position: pos,
            query: QueryId(q),
            valuation: Valuation::default(),
        }
    }

    /// Publish a single event (the shard worker's batches have one
    /// query each; these tests drive them one event at a time).
    fn publish(reg: &SubscriptionRegistry, e: MatchEvent) {
        reg.publish_batch(e.query, &mut vec![e]);
    }

    fn listening(reg: &SubscriptionRegistry, q: u32) -> bool {
        let mut mask = Vec::new();
        reg.fill_listening(std::iter::once(QueryId(q)), &mut mask);
        mask[0]
    }

    #[test]
    fn filters_and_drop_counting() {
        let reg = SubscriptionRegistry::default();
        let all = reg.subscribe(SubscriptionFilter::All, 2, BackpressurePolicy::DropNewest);
        let only1 = reg.subscribe(
            SubscriptionFilter::Query(QueryId(1)),
            8,
            BackpressurePolicy::DropNewest,
        );
        for pos in 0..4 {
            publish(&reg, ev((pos % 2) as u32, pos));
        }
        // `all` capped at 2, dropped the rest; `only1` saw only query 1.
        assert_eq!(all.len(), 2);
        assert_eq!(all.dropped(), 2);
        let got = only1.drain();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|e| e.query == QueryId(1)));
        assert_eq!(only1.dropped(), 0);
    }

    #[test]
    fn dropped_subscription_stops_receiving_and_is_pruned() {
        let reg = SubscriptionRegistry::default();
        let sub = reg.subscribe(SubscriptionFilter::All, 1, BackpressurePolicy::Block);
        assert!(listening(&reg, 0));
        drop(sub);
        assert!(!listening(&reg, 0));
        // Publishing to a closed full queue must not block.
        publish(&reg, ev(0, 0));
        let again = reg.subscribe(SubscriptionFilter::All, 1, BackpressurePolicy::Block);
        assert_eq!(reg.subs.read().unwrap().len(), 1, "closed queue pruned");
        drop(again);
    }

    #[test]
    fn close_all_wakes_parked_publishers_and_keeps_queued_events() {
        let reg = Arc::new(SubscriptionRegistry::default());
        let sub = reg.subscribe(SubscriptionFilter::All, 1, BackpressurePolicy::Block);
        publish(&reg, ev(0, 0));
        // A publisher parked on the full Block channel (this is the
        // shutdown-hang shape: a shard worker stuck in a publish).
        let publisher = {
            let reg = reg.clone();
            std::thread::spawn(move || publish(&reg, ev(0, 1)))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!publisher.is_finished());
        reg.close_all();
        publisher.join().unwrap();
        // The event queued before the close stays readable; the one the
        // parked publisher held is discarded; later publishes are
        // skipped and subscriber checks report no listeners.
        assert_eq!(sub.drain().len(), 1);
        publish(&reg, ev(0, 2));
        assert!(sub.is_empty());
        assert!(!listening(&reg, 0));
        // recv_timeout returns early on the closed empty channel.
        let t0 = Instant::now();
        assert!(sub.recv_timeout(Duration::from_secs(30)).is_none());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn blocked_publisher_wakes_on_consume_and_close() {
        let reg = Arc::new(SubscriptionRegistry::default());
        let sub = reg.subscribe(SubscriptionFilter::All, 1, BackpressurePolicy::Block);
        publish(&reg, ev(0, 0));
        let publisher = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                publish(&reg, ev(0, 1));
                publish(&reg, ev(0, 2));
            })
        };
        // Drain one slot at a time; the publisher advances each time.
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(5)).unwrap().position,
            0
        );
        assert_eq!(
            sub.recv_timeout(Duration::from_secs(5)).unwrap().position,
            1
        );
        // Close while the publisher may be parked on the last event.
        drop(sub);
        publisher.join().unwrap();
    }

    #[test]
    fn recv_timeout_max_waits_for_an_event_or_the_close() {
        let reg = Arc::new(SubscriptionRegistry::default());
        let sub = reg.subscribe(SubscriptionFilter::All, 4, BackpressurePolicy::Block);
        publish(&reg, ev(0, 7));
        assert_eq!(sub.recv_timeout(Duration::MAX).unwrap().position, 7);
        // An event published while the consumer waits wakes it.
        let publisher = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                publish(&reg, ev(0, 8));
            })
        };
        assert_eq!(sub.recv_timeout(Duration::MAX).unwrap().position, 8);
        publisher.join().unwrap();
        reg.close_all();
        assert!(sub.recv_timeout(Duration::MAX).is_none());
    }

    #[test]
    fn buffered_events_count_against_capacity() {
        let reg = SubscriptionRegistry::default();
        let sub = reg.subscribe(SubscriptionFilter::All, 3, BackpressurePolicy::DropNewest);
        reg.publish_batch(QueryId(0), &mut (0..3).map(|p| ev(0, p)).collect());
        // The first receive swaps all three into the consumer buffer;
        // the two still buffered keep one slot free, not three.
        assert_eq!(sub.try_recv().unwrap().position, 0);
        assert_eq!(sub.len(), 2);
        reg.publish_batch(QueryId(0), &mut (3..6).map(|p| ev(0, p)).collect());
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.dropped(), 2);
        let rest: Vec<u64> = sub.drain().iter().map(|e| e.position).collect();
        assert_eq!(rest, vec![1, 2, 3]);
    }
}
