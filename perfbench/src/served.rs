//! The serve rung: a durable `cer_serve::Server` on loopback, one ingest
//! connection that also issues the control ops of a [`ControlPlan`], one
//! subscriber connection for every query, then a restart on the same
//! data directory.

use crate::gen::{record, relations, ControlPlan, Schedule};
use crate::oracle::{self, Fingerprint};
use crate::pipeline::{slot, Consumed, RunOut};
use crate::trace::{span, Local, Tracer, NO_BATCH};
use crate::{more_samples, Ctx, Load, SHARDS};
use pcea::common::Tuple;
use pcea::engine::config::RuntimeConfig;
use pcea::engine::ingest::BackpressurePolicy;
use pcea::engine::window::WindowPolicy;
use pcea::serve::protocol::encode_message;
use pcea::serve::{Client, Request, ServeConfig, Server};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long the subscriber waits for a missing match after the fence.
const QUIET: Duration = Duration::from_secs(5);

/// What only the serve rung measures.
#[derive(Default)]
pub struct ServeExtras {
    pub control_ns: Vec<u64>,
    pub rescale_ns: Vec<u64>,
    pub checkpoint_ns: Vec<u64>,
    pub checkpoint_bytes: u64,
    pub delta_ratio_bp: u64,
    pub wal_bytes: u64,
    pub wal_records: u64,
    pub frame_bytes: u64,
    pub replayed_tuples: u64,
}

fn err(what: &str) -> impl Fn(pcea::serve::ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn bind(dir: &Path) -> Result<Server, String> {
    let config = ServeConfig::from(RuntimeConfig::new(SHARDS)).with_data_dir(dir);
    Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))
}

/// A ready server: the ingest connection, the subscriber connection and
/// the ids of the standing queries.
pub struct Served {
    pub server: Server,
    pub ingest: Client,
    pub subscriber: Client,
    pub ids: Vec<u32>,
}

/// From nothing to ready: a fresh durable server in `dir`, relations
/// declared, every query submitted as text, all queries subscribed. The
/// returned run record carries the setup timings.
pub fn setup(ctx: &Ctx, dir: &Path, local: &mut Option<Local>) -> Result<(Served, RunOut), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut out = RunOut::default();
    let window = WindowPolicy::Count(ctx.spec.window);
    let t0 = Instant::now();
    let (server, _) = span(local, "durability", "bind_open_durable", NO_BATCH, || {
        bind(dir)
    });
    let server = server?;
    let addr = server.local_addr();
    let mut ingest = Client::connect(addr).map_err(err("connect"))?;
    for (i, (name, arity)) in relations(&ctx.spec).iter().enumerate() {
        let id = ingest
            .declare_relation(name, *arity)
            .map_err(err("declare"))?;
        if id.0 as usize != i {
            return Err(format!("relation {name} got id {}, want {i}", id.0));
        }
    }
    let mut ids = Vec::new();
    for q in &ctx.queries {
        let (id, ns) = span(local, "serve", "submit_query", NO_BATCH, || {
            ingest.submit_query(&q.name, q.frontend, &q.text, window.clone(), None)
        });
        out.compile_ns.push(ns);
        ids.push(id.map_err(err("submit"))?.0);
    }
    let mut subscriber = Client::connect(addr).map_err(err("connect"))?;
    span(local, "serve", "subscribe", NO_BATCH, || {
        subscriber.subscribe(None, 0, BackpressurePolicy::Block)
    })
    .0
    .map_err(err("subscribe"))?;
    out.setup_s = t0.elapsed().as_secs_f64();
    Ok((
        Served {
            server,
            ingest,
            subscriber,
            ids,
        },
        out,
    ))
}

/// Serve the first `tuples` tuples of the stream through a fresh durable
/// server in `dir`, checking every delivered match, then restart it.
pub fn serve_run(
    ctx: &Ctx,
    tuples: usize,
    load: Load,
    dir: &Path,
    tracer: Option<&Tracer>,
) -> Result<RunOut, String> {
    let mut local = tracer.map(Tracer::local);
    let batch = ctx.spec.batch;
    let batches: Vec<Vec<Tuple>> = ctx.stream[..tuples]
        .chunks(batch)
        .map(<[Tuple]>::to_vec)
        .collect();
    let plan = ControlPlan::for_batches(batches.len());
    let mut out = RunOut::default();
    if tracer.is_some() {
        for b in &batches {
            let req = Request::IngestBatch { tuples: b.clone() };
            out.serve.frame_bytes += encode_message(&req).map_err(|e| e.to_string())?.len() as u64;
        }
    }
    let (
        Served {
            server,
            mut ingest,
            mut subscriber,
            ids,
        },
        setup_out,
    ) = setup(ctx, dir, &mut local)?;
    out.setup_s = setup_out.setup_s;
    out.compile_ns = setup_out.compile_ns;

    // Expected matches: the standing queries over the whole prefix, the
    // churn query (a copy of query 0) from its registration position to
    // its deregistration position.
    let mut expected = vec![Fingerprint::default(); ids.iter().max().map_or(0, |m| m + 1) as usize];
    for (i, id) in ids.iter().enumerate() {
        expected[*id as usize] = ctx.expected_prefix(i, tuples);
    }
    let churn_fp = oracle::reference(
        &ctx.compiled[0].pcea,
        ctx.spec.window,
        &ctx.stream,
        plan.submit * batch,
        plan.deregister * batch,
    );
    let expected_total: u64 = expected.iter().map(|f| f.count).sum::<u64>() + churn_fp.count;

    let schedule = match load {
        Load::Paced(tps) => Some(Schedule::new(batch, tps, ctx.window_batches())),
        Load::Firehose => None,
    };
    let fenced = AtomicBool::new(false);
    let mut churn_id = None;
    let mut last_checkpoint = 0u64;
    let (fps, consumed) = std::thread::scope(|scope| -> Result<_, String> {
        let consumer = scope.spawn(|| {
            let mut local = tracer.map(Tracer::local);
            let mut fps: Vec<Fingerprint> = Vec::new();
            let mut c = Consumed::default();
            let start = Instant::now();
            let mut last_any = start;
            loop {
                let fenced = fenced.load(Ordering::SeqCst);
                // Past the expected count, keep listening after the fence
                // so extra matches are caught too.
                if c.got >= expected_total && !fenced {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let (ev, ns) = span(&mut local, "serve", "next_event", NO_BATCH, || {
                    subscriber.next_event(Duration::from_millis(50))
                });
                c.wait_ns += ns;
                let now = Instant::now();
                match ev {
                    Ok(Some(e)) => {
                        last_any = now;
                        if c.got < expected_total {
                            c.last_arrival = Some(now);
                        }
                        c.got += 1;
                        if let Some(s) = &schedule {
                            let k = e.position as usize / batch;
                            let lat = now.saturating_duration_since(s.due(k)).as_nanos();
                            record(&mut c.latency_ns, s.window(k), lat as u64);
                        }
                        slot(&mut fps, e.query.0).add(e.position, &e.valuation);
                    }
                    // Events still on the wire after the fence arrive
                    // back to back; a quiet socket means they are done.
                    Ok(None) if fenced && (c.got >= expected_total || now - last_any > QUIET) => {
                        break
                    }
                    Ok(None) => {}
                    Err(_) => {
                        c.failed += 1;
                        break;
                    }
                }
            }
            if let Some(t) = tracer {
                t.finish(local);
            }
            c.wall_ns = start.elapsed().as_nanos() as u64;
            (fps, c)
        });

        let start = Instant::now();
        for (k, b) in batches.into_iter().enumerate() {
            let control = control_op(
                k,
                &plan,
                ctx,
                &mut ingest,
                &mut local,
                &mut out,
                &mut churn_id,
            );
            out.attempted += u64::from(control.is_some());
            match control {
                Some(Ok(Some(position))) => last_checkpoint = position,
                Some(Err(_)) => out.failed += 1,
                _ => {}
            }
            if let Some(s) = &schedule {
                out.late_ns.push(s.wait(k).as_nanos() as u64);
            }
            let len = b.len() as u64;
            let (r, ns) = span(&mut local, "serve", "ingest", k as u64, || ingest.ingest(b));
            out.push_ns.push(ns);
            out.attempted += 1;
            let first = (k * batch) as u64;
            if r.ok() != Some((first, first + len, 0)) {
                out.failed += 1;
            }
        }
        out.producer_wall_ns = start.elapsed().as_nanos() as u64;
        if let Some(s) = &schedule {
            out.offered_tps = tuples as f64 / s.start.elapsed().as_secs_f64().max(1e-9);
        }
        let (drained, ns) = span(&mut local, "serve", "drain", NO_BATCH, || ingest.drain());
        out.drain_ms = ns as f64 / 1e6;
        // Set even when the drain failed, so the subscriber stops.
        fenced.store(true, Ordering::SeqCst);
        let (fps, c) = consumer.join().expect("subscriber thread panicked");
        drained.map_err(err("drain"))?;
        out.throughput_tps = tuples as f64 / c.elapsed_since(start);
        Ok((fps, c))
    })?;
    if let Some(id) = churn_id {
        *slot(&mut expected, id) = churn_fp;
    }
    out.attempted += expected_total;
    out.failed += consumed.failed + oracle::mismatches(&expected, &fps);
    out.take_consumed(consumed);

    let status = ingest
        .durability_status()
        .map_err(err("durability_status"))?;
    out.serve.wal_bytes = status.wal_bytes;
    out.serve.wal_records = status.wal_records;
    let text = ingest.metrics_text().map_err(err("metrics_text"))?;
    out.serve.delta_ratio_bp = text
        .lines()
        .find_map(|l| l.strip_prefix("cer_checkpoint_delta_ratio_bp "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0) as u64;
    drop(ingest);
    drop(subscriber);
    server.stop();

    // Restart on the same directory: ready at the first successful stats.
    let restarts = Instant::now();
    while more_samples(out.recover_s.len(), 3, restarts) {
        let t0 = Instant::now();
        let (restarted, _) = span(&mut local, "durability", "bind_recover", NO_BATCH, || {
            bind(dir)
        });
        let restarted = restarted?;
        let mut client = Client::connect(restarted.local_addr()).map_err(err("connect"))?;
        let (stats, _) = span(&mut local, "serve", "stats", NO_BATCH, || client.stats());
        out.recover_s.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        if stats.map_err(err("stats"))?.next_position != tuples as u64 {
            out.failed += 1;
        }
        drop(client);
        restarted.stop();
    }
    out.serve.replayed_tuples = tuples as u64 - last_checkpoint;
    let _ = std::fs::remove_dir_all(dir);
    if let Some(t) = tracer {
        t.finish(local);
    }
    Ok(out)
}

/// Issue the control op planned before batch `k`, if any. Returns
/// `None` when nothing is planned, else the op's outcome (the position
/// of a checkpoint it cut).
fn control_op(
    k: usize,
    plan: &ControlPlan,
    ctx: &Ctx,
    client: &mut Client,
    local: &mut Option<Local>,
    out: &mut RunOut,
    churn_id: &mut Option<u32>,
) -> Option<Result<Option<u64>, String>> {
    let extras = &mut out.serve;
    let r = if k == plan.submit {
        let q = &ctx.queries[0];
        let window = WindowPolicy::Count(ctx.spec.window);
        let (r, ns) = span(local, "serve", "submit_churn", k as u64, || {
            client.submit_query("churn", q.frontend, &q.text, window, None)
        });
        extras.control_ns.push(ns);
        r.map(|id| {
            *churn_id = Some(id.0);
            None
        })
        .map_err(|e| e.to_string())
    } else if k == plan.deregister {
        let id = (*churn_id)?;
        let (r, ns) = span(local, "serve", "deregister_churn", k as u64, || {
            client.deregister(pcea::engine::runtime::QueryId(id))
        });
        extras.control_ns.push(ns);
        r.map(|_| None).map_err(|e| e.to_string())
    } else if k == plan.checkpoint1 || k == plan.checkpoint2 {
        let (r, ns) = span(local, "durability", "checkpoint", k as u64, || {
            client.checkpoint()
        });
        extras.checkpoint_ns.push(ns);
        r.map(|(position, _, bytes, _)| {
            extras.checkpoint_bytes = bytes;
            Some(position)
        })
        .map_err(|e| e.to_string())
    } else if k == plan.shrink || k == plan.grow {
        let to = if k == plan.shrink { SHARDS - 1 } else { SHARDS };
        let (r, _) = span(local, "runtime", "rescale", k as u64, || client.rescale(to));
        r.map(|(_, _, nanos)| {
            extras.rescale_ns.push(nanos);
            None
        })
        .map_err(|e| e.to_string())
    } else {
        return None;
    };
    Some(r)
}
