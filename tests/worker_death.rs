//! A shard worker that dies must not hang the control plane.
//!
//! A `Custom` predicate closure that panics kills the shard worker
//! evaluating it. Every later call that needs that worker must return
//! within a deadline: control operations with
//! `ShardWorkerDied`, `drain`/`stats` with a panic, producers with
//! `RuntimeClosed`. Each call runs on a helper thread and the test
//! waits for its outcome under `recv_timeout`, so a regression fails
//! here instead of hanging the suite.

use pcea::common::RelationId;
use pcea::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(5);

fn tup(rel: RelationId, v: i64) -> Tuple {
    Tuple::new(rel, vec![Value::Int(v)])
}

/// One-state query on relation `rel` whose extra predicate is `extra`.
fn single(rel: RelationId, extra: UnaryPredicate) -> Pcea {
    let mut builder = PceaBuilder::new(1);
    let q0 = builder.add_state();
    builder.add_initial_transition(
        UnaryPredicate::Relation(rel).and(extra),
        LabelSet::singleton(Label(0)),
        q0,
    );
    builder.mark_final(q0);
    builder.build()
}

/// A runtime with two pinned queries on two shards: `boom` (shard 0)
/// panics on `A(13)`, `calm` (shard 1) never does. Returns the runtime,
/// both ids and the relations.
fn runtime() -> (Runtime, QueryId, QueryId, RelationId, RelationId) {
    let mut schema = Schema::new();
    let a = schema.add_relation("A", 1).unwrap();
    let b = schema.add_relation("B", 1).unwrap();
    let panics_on_13 = UnaryPredicate::Custom(Arc::new(|t: &Tuple| {
        assert!(t.values()[0] != Value::Int(13), "poisoned tuple");
        true
    }));
    let mut rt = Runtime::new(2);
    let boom = rt
        .register(QuerySpec::new(
            "boom",
            single(a, panics_on_13),
            WindowPolicy::Count(4),
        ))
        .unwrap();
    let calm = rt
        .register(QuerySpec::new(
            "calm",
            single(b, UnaryPredicate::True),
            WindowPolicy::Count(4),
        ))
        .unwrap();
    (rt, boom, calm, a, b)
}

/// Wait for the helper's next outcome, failing the test on a hang.
fn next(rx: &Receiver<(&'static str, String)>, op: &str) -> String {
    let (got, outcome) = rx
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("`{op}` did not return within {DEADLINE:?}"));
    assert_eq!(got, op);
    outcome
}

#[test]
fn control_ops_after_a_worker_panic_return_instead_of_hanging() {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let (mut rt, boom, calm, a, b) = runtime();
        let handle = rt.ingest_handle();
        // Shard 0 evaluates the poisoned tuple and dies.
        handle.push(&tup(a, 13)).unwrap();
        let send = |op, outcome: String| tx.send((op, outcome)).unwrap();
        send("deregister", format!("{:?}", rt.deregister(boom)));
        // The freed shard 0 is the least loaded: the new query homes
        // on the dead worker.
        let again = QuerySpec::new(
            "again",
            single(b, UnaryPredicate::True),
            WindowPolicy::Count(4),
        );
        send("register", format!("{:?}", rt.register(again)));
        send("snapshot", format!("{:?}", rt.snapshot().map(|_| ())));
        let drained = catch_unwind(AssertUnwindSafe(|| rt.drain()));
        send("drain", format!("panicked: {}", drained.is_err()));
        let stats = catch_unwind(AssertUnwindSafe(|| rt.stats()));
        send("stats", format!("panicked: {}", stats.is_err()));
        // `B` routes to `again` on the dead shard 0 (and `calm`).
        send("push", format!("{:?}", handle.push(&tup(b, 1)).map(drop)));
        // The live shard still answers its own query's control ops.
        send(
            "deregister calm",
            format!("{:?}", rt.deregister(calm).map(drop)),
        );
        send("rescale", format!("{:?}", rt.rescale(1)));
        drop(rt);
        send("drop", String::new());
    });
    let died = "Err(ShardWorkerDied)";
    assert_eq!(next(&rx, "deregister"), died);
    assert_eq!(next(&rx, "register"), died);
    assert_eq!(next(&rx, "snapshot"), died);
    assert_eq!(next(&rx, "drain"), "panicked: true");
    assert_eq!(next(&rx, "stats"), "panicked: true");
    assert_eq!(next(&rx, "push"), "Err(RuntimeClosed)");
    assert_eq!(next(&rx, "deregister calm"), "Ok(())");
    assert_eq!(next(&rx, "rescale"), died);
    next(&rx, "drop");
}
