//! The in-process rungs: the per-query `StreamingEvaluator` loop, the
//! synchronous `Runtime::push_batch` path, and the asynchronous pipeline
//! (`IngestHandle` producer, `Subscription(All)` consumer).

use crate::gen::{record, Schedule};
use crate::oracle::{self, Fingerprint};
use crate::trace::{span, Local, Tracer, NO_BATCH};
use crate::{compile, more_samples, Ctx, Load, SHARDS};
use pcea::engine::checkpoint::Snapshot;
use pcea::engine::config::RuntimeConfig;
use pcea::engine::ingest::{BackpressurePolicy, IngestConfig, Subscription, SubscriptionFilter};
use pcea::engine::runtime::{QuerySpec, Runtime};
use pcea::engine::window::WindowPolicy;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn config() -> RuntimeConfig {
    RuntimeConfig::new(SHARDS).with_ingest(IngestConfig {
        policy: BackpressurePolicy::Block,
        ..IngestConfig::default()
    })
}

/// Construct a runtime and compile + register every standing query from
/// text. Returns the runtime, compile ns and register ns per query.
fn build(ctx: &Ctx, local: &mut Option<Local>) -> Result<(Runtime, Vec<u64>, Vec<u64>), String> {
    let (mut rt, _) = span(local, "runtime", "new", NO_BATCH, || Runtime::new(config()));
    let mut schema = crate::gen::schema(&ctx.spec);
    let (mut compile_ns, mut register_ns) = (Vec::new(), Vec::new());
    for q in &ctx.queries {
        let (c, ns) = span(local, "compile", "parse_compile", NO_BATCH, || {
            compile(&mut schema, q)
        });
        compile_ns.push(ns);
        let spec = QuerySpec::new(&q.name, c?.pcea, WindowPolicy::Count(ctx.spec.window));
        let (r, ns) = span(local, "runtime", "register", NO_BATCH, || rt.register(spec));
        register_ns.push(ns);
        r.map_err(|e| format!("register {}: {e}", q.name))?;
    }
    Ok((rt, compile_ns, register_ns))
}

/// What one rung run measured. Fields a rung does not measure stay at
/// their defaults.
#[derive(Default)]
pub struct RunOut {
    pub setup_s: f64,
    pub throughput_tps: f64,
    /// Restart times, one per restart.
    pub recover_s: Vec<f64>,
    /// Detection latency of every match (paced runs), ns, per
    /// latency window of the send schedule ([`crate::gen::WINDOW_MATCHES`]).
    pub latency_ns: Vec<Vec<u64>>,
    /// How late each paced send ran, ns.
    pub late_ns: Vec<u64>,
    pub offered_tps: f64,
    pub attempted: u64,
    pub failed: u64,
    pub compile_ns: Vec<u64>,
    pub register_ns: Vec<u64>,
    /// Per-call time of the producer's push into the system, ns.
    pub push_ns: Vec<u64>,
    pub producer_wall_ns: u64,
    pub drain_ms: f64,
    pub queue_high_water: f64,
    pub reorder_high_water: f64,
    pub drain_batch_mean: f64,
    pub events: u64,
    pub consumer_wall_ns: u64,
    pub consumer_wait_ns: u64,
    pub dropped: u64,
    pub serve: crate::served::ServeExtras,
}

/// Single-threaded reference rung: every query's own evaluator over the
/// whole stream, batch by batch.
pub struct EvalOut {
    pub ns_total: u64,
    pub outputs: u64,
    pub extends: u64,
    pub unions: u64,
    pub arena_nodes: u64,
    pub failed: u64,
}

pub fn evaluator_rung(ctx: &Ctx, tracer: &Tracer) -> EvalOut {
    let mut local = Some(tracer.local());
    let window = WindowPolicy::Count(ctx.spec.window);
    let mut evs: Vec<_> = ctx
        .compiled
        .iter()
        .map(|c| {
            pcea::engine::evaluator::StreamingEvaluator::with_window(c.pcea.clone(), window.clone())
        })
        .collect();
    let mut counts = vec![0u64; evs.len()];
    let mut ns_total = 0;
    for (k, chunk) in ctx.stream.chunks(ctx.spec.batch).enumerate() {
        for (ev, n) in evs.iter_mut().zip(counts.iter_mut()) {
            let (c, ns) = span(
                &mut local,
                "evaluator",
                "push_slice_count",
                k as u64,
                || ev.push_slice_count(chunk),
            );
            *n += c as u64;
            ns_total += ns;
        }
    }
    tracer.finish(local);
    let stats: Vec<_> = evs.iter().map(|e| e.stats()).collect();
    EvalOut {
        ns_total,
        outputs: counts.iter().sum(),
        extends: stats.iter().map(|s| s.extends).sum(),
        unions: stats.iter().map(|s| s.unions).sum(),
        arena_nodes: stats.iter().map(|s| s.arena_nodes as u64).sum(),
        failed: counts
            .iter()
            .zip(&ctx.expected)
            .map(|(n, e)| n.abs_diff(e.count))
            .sum(),
    }
}

/// Synchronous rung: `Runtime::push_batch` on the same stream and shard
/// count. Returns the run and the runtime's shared-evaluation counters.
pub fn sync_rung(
    ctx: &Ctx,
    tracer: &Tracer,
) -> Result<(RunOut, pcea::engine::runtime::SharedEvalStats), String> {
    let mut local = Some(tracer.local());
    let (mut rt, compile_ns, register_ns) = build(ctx, &mut local)?;
    let mut fps = vec![Fingerprint::default(); ctx.queries.len()];
    let mut push_ns = Vec::new();
    for (k, chunk) in ctx.stream.chunks(ctx.spec.batch).enumerate() {
        let (events, ns) = span(&mut local, "runtime", "push_batch", k as u64, || {
            rt.push_batch(chunk)
        });
        push_ns.push(ns);
        for e in &events {
            slot(&mut fps, e.query.0).add(e.position, &e.valuation);
        }
    }
    let (stats, _) = span(&mut local, "runtime", "stats", NO_BATCH, || rt.stats());
    tracer.finish(local);
    let failed = oracle::mismatches(&ctx.expected, &fps);
    Ok((
        RunOut {
            compile_ns,
            register_ns,
            push_ns,
            attempted: ctx.expected_total(),
            failed,
            ..RunOut::default()
        },
        stats.shared,
    ))
}

/// From nothing to ready: a runtime with every query compiled from text
/// and registered, and the consumer's subscription. The returned run
/// record carries the setup timings.
pub fn setup(
    ctx: &Ctx,
    local: &mut Option<Local>,
) -> Result<(Runtime, Subscription, RunOut), String> {
    let t0 = Instant::now();
    let (rt, compile_ns, register_ns) = build(ctx, local)?;
    let (sub, _) = span(local, "subscribe", "subscribe", NO_BATCH, || {
        rt.subscribe(SubscriptionFilter::All)
    });
    let out = RunOut {
        setup_s: t0.elapsed().as_secs_f64(),
        compile_ns,
        register_ns,
        ..RunOut::default()
    };
    Ok((rt, sub, out))
}

/// The asynchronous pipeline: setup, then the stream pushed by one
/// producer (firehose or paced), matches taken by one consumer thread
/// and checked against the reference, then a restart from a snapshot.
pub fn async_run(ctx: &Ctx, load: Load, tracer: Option<&Tracer>) -> Result<RunOut, String> {
    let mut local = tracer.map(Tracer::local);
    let batch = ctx.spec.batch;
    let n = ctx.stream.len();

    let (mut rt, sub, mut out) = setup(ctx, &mut local)?;
    let handle = rt.ingest_handle();

    let expected_total = ctx.expected_total();
    let fenced = AtomicBool::new(false);
    let schedule = match load {
        Load::Paced(tps) => Some(Schedule::new(batch, tps, ctx.window_batches())),
        Load::Firehose => None,
    };
    let (fps, consumer) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut local = tracer.map(Tracer::local);
            let mut fps = vec![Fingerprint::default(); ctx.queries.len()];
            let mut c = Consumed::default();
            let start = Instant::now();
            while c.got < expected_total {
                // Read the flag first: once the fence has returned, every
                // match is already queued, so an empty wait means done.
                let fenced = fenced.load(Ordering::SeqCst);
                let (ev, ns) = span(&mut local, "subscribe", "recv_timeout", NO_BATCH, || {
                    sub.recv_timeout(Duration::from_millis(50))
                });
                c.wait_ns += ns;
                let now = Instant::now();
                match ev {
                    Some(e) => {
                        c.last_arrival = Some(now);
                        c.got += 1;
                        if let Some(s) = &schedule {
                            let k = e.position as usize / batch;
                            let lat = now.saturating_duration_since(s.due(k)).as_nanos();
                            record(&mut c.latency_ns, s.window(k), lat as u64);
                        }
                        slot(&mut fps, e.query.0).add(e.position, &e.valuation);
                    }
                    None if fenced => break,
                    None => {}
                }
            }
            c.wall_ns = start.elapsed().as_nanos() as u64;
            if let Some(t) = tracer {
                t.finish(local);
            }
            (fps, c)
        });

        let start = Instant::now();
        for (k, chunk) in ctx.stream.chunks(batch).enumerate() {
            if let Some(s) = &schedule {
                out.late_ns.push(s.wait(k).as_nanos() as u64);
            }
            let (r, ns) = span(&mut local, "ingest", "push_batch", k as u64, || {
                handle.push_batch(chunk)
            });
            out.push_ns.push(ns);
            out.attempted += 1;
            match r {
                Ok(rc) if rc.positions.start == (k * batch) as u64 && rc.dropped == 0 => {}
                _ => out.failed += 1,
            }
        }
        out.producer_wall_ns = start.elapsed().as_nanos() as u64;
        if let Some(s) = &schedule {
            let sent = s.start.elapsed().as_secs_f64();
            out.offered_tps = n as f64 / sent.max(1e-9);
        }
        let (_, ns) = span(&mut local, "runtime", "drain", NO_BATCH, || rt.drain());
        out.drain_ms = ns as f64 / 1e6;
        fenced.store(true, Ordering::SeqCst);
        let (fps, c) = consumer.join().expect("consumer thread panicked");
        out.throughput_tps = n as f64 / c.elapsed_since(start);
        (fps, c)
    });
    let mut fps = fps;
    // Anything still queued after the fence is an extra match.
    for e in sub.drain() {
        slot(&mut fps, e.query.0).add(e.position, &e.valuation);
    }
    out.attempted += expected_total;
    out.failed += oracle::mismatches(&ctx.expected, &fps);
    out.failed += sub.dropped() + handle.total_dropped();
    out.dropped = sub.dropped();
    out.take_consumed(consumer);

    let (stats, _) = span(&mut local, "runtime", "stats", NO_BATCH, || rt.stats());
    let q = &stats.shard_queues;
    out.queue_high_water = q.iter().map(|s| s.high_water).max().unwrap_or(0) as f64;
    out.reorder_high_water = q.iter().map(|s| s.reorder_high_water).max().unwrap_or(0) as f64;
    let (tuples, batches) = q.iter().fold((0, 0), |(t, b), s| {
        (t + s.drained_tuples, b + s.drained_batches)
    });
    out.drain_batch_mean = tuples as f64 / batches.max(1) as f64;

    // Restart: an in-memory runtime restarts from snapshot bytes.
    let bytes = rt
        .snapshot()
        .and_then(|s| s.to_bytes())
        .map_err(|e| format!("snapshot: {e}"))?;
    drop(sub);
    drop(rt);
    let restarts = Instant::now();
    while more_samples(out.recover_s.len(), 3, restarts) {
        let t0 = Instant::now();
        let (restored, _) = span(&mut local, "runtime", "restore", NO_BATCH, || {
            Snapshot::from_bytes(&bytes).and_then(|s| Runtime::restore_with(&s, config()))
        });
        let restored = restored.map_err(|e| format!("restore: {e}"))?;
        let _ = restored.stats();
        out.recover_s.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        if restored.next_position() != n as u64 {
            out.failed += 1;
        }
    }
    if let Some(t) = tracer {
        t.finish(local);
    }
    Ok(out)
}

/// What a consumer thread saw.
#[derive(Default)]
pub struct Consumed {
    pub got: u64,
    /// Arrival of the last expected match.
    pub last_arrival: Option<Instant>,
    pub latency_ns: Vec<Vec<u64>>,
    pub wall_ns: u64,
    pub wait_ns: u64,
    /// Receive errors.
    pub failed: u64,
}

impl Consumed {
    /// Seconds from `start` to the last expected match (infinite when
    /// none arrived).
    pub fn elapsed_since(&self, start: Instant) -> f64 {
        self.last_arrival
            .map_or(f64::INFINITY, |t| (t - start).as_secs_f64())
    }
}

impl RunOut {
    pub fn take_consumed(&mut self, c: Consumed) {
        self.events = c.got;
        self.latency_ns = c.latency_ns;
        self.consumer_wall_ns = c.wall_ns;
        self.consumer_wait_ns = c.wait_ns;
    }
}

/// The fingerprint slot of query `id`, growing the table for ids the
/// benchmark did not register (which then fail the oracle).
pub fn slot(fps: &mut Vec<Fingerprint>, id: u32) -> &mut Fingerprint {
    let i = id as usize;
    if i >= fps.len() {
        fps.resize(i + 1, Fingerprint::default());
    }
    &mut fps[i]
}
