//! Batched match delivery: shard workers publish each query's matches
//! of a drained batch in one call, and a subscription's consumer swaps
//! the whole shared queue into a private buffer under one lock.
//!
//! These tests pin what batching must not change: per-query position
//! order on tiny `Block` channels (where a missed wakeup between the
//! consumer buffer and a parked publisher would hang), exact
//! `DropNewest` drop counts with the consumer buffer counted against the
//! capacity, identical sequences for every subscriber of a query, and
//! exact histogram counts. Every case runs on a helper thread under a
//! deadline, so a lost wakeup fails here instead of hanging the suite.

use pcea::common::RelationId;
use pcea::prelude::*;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(20);

/// Run `f` on a helper thread and return its result, failing the test
/// if it does not finish within [`DEADLINE`].
fn within<T: Send + 'static>(case: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(out) => out,
        Err(RecvTimeoutError::Disconnected) => match helper.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("helper exited without a result"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("`{case}` did not finish within {DEADLINE:?}"),
    }
}

/// Schema with two unary relations: `E` and `F`.
fn schema() -> (Schema, RelationId, RelationId) {
    let mut schema = Schema::new();
    let e = schema.add_relation("E", 1).unwrap();
    let f = schema.add_relation("F", 1).unwrap();
    (schema, e, f)
}

/// Every `E` tuple is a match.
fn each_e(e: RelationId) -> Pcea {
    let mut b = PceaBuilder::new(1);
    let q0 = b.add_state();
    b.add_initial_transition(
        UnaryPredicate::Relation(e),
        LabelSet::singleton(Label(0)),
        q0,
    );
    b.mark_final(q0);
    b.build()
}

/// `E(x) ; F(x)`: every `F` tuple completes one match per `E` tuple with
/// the same `x` in the window — many matches at one position.
fn pairs(e: RelationId, f: RelationId) -> Pcea {
    let dot = LabelSet::singleton(Label(0));
    let mut b = PceaBuilder::new(1);
    let q0 = b.add_state();
    let q1 = b.add_state();
    b.add_initial_transition(UnaryPredicate::Relation(e), dot, q0);
    b.add_transition(
        vec![(q0, EqPredicate::on_positions(e, [0usize], f, [0usize]))],
        UnaryPredicate::Relation(f),
        dot,
        q1,
    );
    b.mark_final(q1);
    b.build()
}

/// `es` `E` tuples then `fs` `F` tuples, all with `x` in `0..2`.
fn burst(e: RelationId, f: RelationId, es: usize, fs: usize) -> Vec<Tuple> {
    let x = |i: usize| vec![Value::Int((i % 2) as i64)];
    (0..es)
        .map(|i| Tuple::new(e, x(i)))
        .chain((0..fs).map(|i| Tuple::new(f, x(i))))
        .collect()
}

const WINDOW: WindowPolicy = WindowPolicy::Count(100_000);

/// A runtime hosting `each_e` and `pairs` on two shards.
fn runtime(config: RuntimeConfig, e: RelationId, f: RelationId) -> (Runtime, QueryId, QueryId) {
    let mut rt = Runtime::new(config);
    let qe = rt
        .register(QuerySpec::new("each_e", each_e(e), WINDOW))
        .unwrap();
    let qp = rt
        .register(QuerySpec::new("pairs", pairs(e, f), WINDOW))
        .unwrap();
    (rt, qe, qp)
}

/// Sorted `(position, valuation)` outputs of one query over `stream`,
/// from an independent single-query evaluator.
fn reference(pcea: Pcea, stream: &[Tuple]) -> Vec<(u64, Valuation)> {
    let mut engine = StreamingEvaluator::with_window(pcea, WINDOW);
    let mut out = Vec::new();
    for (n, t) in stream.iter().enumerate() {
        for v in engine.push_collect(t) {
            out.push((n as u64, v));
        }
    }
    out.sort();
    out
}

/// One query's events, in delivery order.
fn of(events: &[MatchEvent], q: QueryId) -> Vec<MatchEvent> {
    events.iter().filter(|ev| ev.query == q).cloned().collect()
}

/// Assert `events` are in non-decreasing position order and, as a
/// multiset, equal `want`.
fn assert_ordered_and_complete(events: &[MatchEvent], want: &[(u64, Valuation)], what: &str) {
    assert!(
        events.windows(2).all(|w| w[0].position <= w[1].position),
        "{what}: delivered out of position order"
    );
    let mut got: Vec<(u64, Valuation)> = events
        .iter()
        .map(|ev| (ev.position, ev.valuation.clone()))
        .collect();
    got.sort();
    assert_eq!(got, want, "{what}: wrong match multiset");
}

/// Receive `n` events, alternating `try_recv` with `recv_timeout` so
/// both consumer paths refill from the shared queue.
fn receive(sub: &Subscription, n: usize) -> Vec<MatchEvent> {
    let mut got = Vec::with_capacity(n);
    while got.len() < n {
        let next = if got.len() % 2 == 0 {
            sub.try_recv()
        } else {
            None
        };
        match next.or_else(|| sub.recv_timeout(DEADLINE)) {
            Some(ev) => got.push(ev),
            None => panic!("channel went quiet after {} of {n} events", got.len()),
        }
    }
    got
}

/// `Block` channels of capacity 1 and 3, each behind single drained
/// batches that complete hundreds of matches per query, deliver every
/// match in per-query position order. The publisher parks again and
/// again while the consumer still holds events in its buffer; a wakeup
/// lost between the two would hang here.
#[test]
fn tiny_block_channels_deliver_every_match_in_order() {
    within("tiny block channels", || {
        let (_schema, e, f) = schema();
        let stream = burst(e, f, 60, 20);
        let want_e = reference(each_e(e), &stream);
        let want_p = reference(pairs(e, f), &stream);
        assert!(want_e.len() >= 60 && want_p.len() >= 100);
        let (rt, qe, qp) = runtime(RuntimeConfig::new(2), e, f);
        let total = want_e.len() + want_p.len();
        let consumers: Vec<_> = [1usize, 3]
            .into_iter()
            .map(|capacity| {
                let sub =
                    rt.subscribe_with(SubscriptionFilter::All, capacity, BackpressurePolicy::Block);
                std::thread::spawn(move || {
                    let got = receive(&sub, total);
                    assert!(sub.len() <= capacity);
                    (capacity, got)
                })
            })
            .collect();
        // One producer batch: each shard drains it in one go.
        rt.ingest_handle().push_batch(&stream).unwrap();
        for consumer in consumers {
            let (capacity, got) = consumer.join().unwrap();
            assert_ordered_and_complete(
                &of(&got, qe),
                &want_e,
                &format!("each_e, capacity {capacity}"),
            );
            assert_ordered_and_complete(
                &of(&got, qp),
                &want_p,
                &format!("pairs, capacity {capacity}"),
            );
        }
        rt.drain();
    });
}

/// `DropNewest` with capacity `k` keeps the first `k` events of an
/// undrained burst and drops exactly the rest; events the consumer has
/// swapped into its buffer but not yet taken still count, so `len()`
/// never exceeds `k`.
#[test]
fn drop_newest_drops_exactly_the_overflow_counting_the_consumer_buffer() {
    within("drop newest", || {
        let (_schema, e, f) = schema();
        let (rt, qe, _) = runtime(RuntimeConfig::new(2), e, f);
        let k = 10;
        let sub = rt.subscribe_with(
            SubscriptionFilter::Query(qe),
            k,
            BackpressurePolicy::DropNewest,
        );
        let handle = rt.ingest_handle();
        let n = 100;
        handle.push_batch(&burst(e, f, n, 0)).unwrap();
        rt.drain();
        assert_eq!(sub.len(), k);
        assert_eq!(sub.dropped(), (n - k) as u64);
        // Take one: the consumer buffer now holds the other k - 1.
        assert_eq!(sub.try_recv().unwrap().position, 0);
        assert_eq!(sub.len(), k - 1);
        // A second burst finds one free slot, not k.
        let m = 30;
        handle.push_batch(&burst(e, f, m, 0)).unwrap();
        rt.drain();
        assert_eq!(sub.len(), k);
        assert_eq!(sub.dropped(), (n - k + m - 1) as u64);
        let rest: Vec<u64> = sub.drain().iter().map(|ev| ev.position).collect();
        let mut want: Vec<u64> = (1..k as u64).collect();
        want.push(n as u64);
        assert_eq!(rest, want);
        assert!(sub.is_empty());
    });
}

/// An `All` subscriber and a `Query` subscriber of the same query see
/// identical sequences. For `each_e` the `All` channel comes first in
/// the registry (it gets clones, the `Query` channel gets the moved
/// events); for `pairs` the order is reversed.
#[test]
fn all_and_query_subscribers_receive_identical_sequences() {
    within("all vs query", || {
        let (_schema, e, f) = schema();
        let (rt, qe, qp) = runtime(RuntimeConfig::new(2), e, f);
        let only_p = rt.subscribe(SubscriptionFilter::Query(qp));
        let all = rt.subscribe(SubscriptionFilter::All);
        let only_e = rt.subscribe(SubscriptionFilter::Query(qe));
        let handle = rt.ingest_handle();
        let mut stream = Vec::new();
        for round in 0..6 {
            let part = burst(e, f, 8 + round, 3 + round);
            handle.push_batch(&part).unwrap();
            stream.extend(part);
        }
        rt.drain();
        let everything = all.drain();
        let (got_e, got_p) = (only_e.drain(), only_p.drain());
        assert_eq!(of(&everything, qe), got_e);
        assert_eq!(of(&everything, qp), got_p);
        assert_eq!(everything.len(), got_e.len() + got_p.len());
        assert_ordered_and_complete(&got_e, &reference(each_e(e), &stream), "each_e");
        assert_ordered_and_complete(&got_p, &reference(pairs(e, f), &stream), "pairs");
    });
}

/// The delivery histogram counts one sample per delivered match and the
/// e2e histogram exactly `ceil(matches / every)`, whatever the batch
/// sizes — including a batch whose one query completes more matches
/// than a shard worker holds back before a mid-batch publish.
#[test]
fn delivery_and_e2e_counts_are_exact_under_batching() {
    within("histogram counts", || {
        let (_schema, e, f) = schema();
        for every in [1u64, 3, 7] {
            let config = RuntimeConfig::new(2).with_e2e_sample_every(every);
            let (mut rt, _, _) = runtime(config, e, f);
            let mut delivered = 0u64;
            for (es, fs) in [(1, 0), (2, 1), (5, 4), (17, 9), (40, 0), (200, 200)] {
                delivered += rt.push_batch(&burst(e, f, es, fs)).len() as u64;
            }
            assert!(delivered > 1 << 14, "the last batch completes a large run");
            let snap = rt.metrics_snapshot();
            let count = |name: &str| match &snap.get(name, &[]).unwrap().value {
                MetricValue::Histogram(h) => h.count(),
                other => panic!("{name}: expected a histogram, got {other:?}"),
            };
            assert_eq!(count("cer_delivery_nanos"), delivered, "every {every}");
            assert_eq!(
                count("cer_e2e_nanos"),
                delivered.div_ceil(every),
                "every {every}"
            );
        }
    });
}
