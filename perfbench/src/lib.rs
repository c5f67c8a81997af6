//! The repository's benchmark: seeded workloads run through the whole
//! stack, with end-to-end metrics from untraced runs and per-layer
//! metrics from a traced run up the layer ladder. See `README.md`.

pub mod gen;
pub mod oracle;
pub mod pipeline;
pub mod served;
pub mod trace;

use gen::{Path, QueryText, Spec};
use oracle::Fingerprint;
use pcea::automata::pcea::Pcea;
use pcea::common::{Schema, Tuple};
use pcea::cq::query::ConjunctiveQuery;
use pcea::serve::Frontend;
use pipeline::RunOut;
use std::time::Instant;
use trace::Tracer;

/// Worker shards of every runtime and server: the core count the
/// workloads were sized for.
pub const SHARDS: usize = 2;

/// Whether to take another sample of a quick measurement (a set-up, a
/// restart): at least `min`, then more (up to 200) while 100 ms last, so
/// figures of a millisecond or less are medians of many.
pub fn more_samples(taken: usize, min: usize, since: Instant) -> bool {
    taken < min || (taken < 200 && since.elapsed() < std::time::Duration::from_millis(100))
}

/// Tuples of the prefix on which the reference evaluator is itself
/// checked against the independent baselines.
const CROSS_CHECK_PREFIX: usize = 1500;

/// Producer load of one run.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Closed loop: push as fast as `Block` backpressure admits.
    Firehose,
    /// Open loop at a fixed offered rate, tuples/s.
    Paced(f64),
}

/// One query compiled locally, for the reference evaluators.
pub struct Compiled {
    pub pcea: Pcea,
    /// The parsed query, for HCQ-front-end queries.
    pub cq: Option<ConjunctiveQuery>,
}

/// Parse and compile one query text against `schema`.
pub fn compile(schema: &mut Schema, q: &QueryText) -> Result<Compiled, String> {
    match q.frontend {
        Frontend::Hcq => {
            let cq = pcea::cq::parser::parse_query(schema, &q.text)
                .map_err(|e| format!("{}: {e}", q.name))?;
            let compiled = pcea::cq::compile::compile_hcq(schema, &cq)
                .map_err(|e| format!("{}: {e}", q.name))?;
            Ok(Compiled {
                pcea: compiled.pcea,
                cq: Some(cq),
            })
        }
        Frontend::Pattern => {
            let compiled = pcea::lang::pattern_to_pcea(schema, &q.text)
                .map_err(|e| format!("{}: {e}", q.name))?;
            Ok(Compiled {
                pcea: compiled.pcea,
                cq: None,
            })
        }
    }
}

/// A workload made ready for runs: its stream, queries and the
/// reference outputs, all computed before any timed region.
pub struct Ctx {
    pub spec: Spec,
    pub stream: Vec<Tuple>,
    pub queries: Vec<QueryText>,
    pub compiled: Vec<Compiled>,
    /// Reference fingerprint of every query over the whole stream.
    pub expected: Vec<Fingerprint>,
    /// Positions where the reference disagreed with a baseline.
    pub cross_check_failures: u64,
}

impl Ctx {
    pub fn new(spec: Spec, seed: u64) -> Result<Ctx, String> {
        let stream = gen::stream(&spec, seed);
        let queries = gen::queries(&spec);
        let mut schema = gen::schema(&spec);
        let compiled = queries
            .iter()
            .map(|q| compile(&mut schema, q))
            .collect::<Result<Vec<_>, _>>()?;
        let expected = compiled
            .iter()
            .map(|c| oracle::reference(&c.pcea, spec.window, &stream, 0, stream.len()))
            .collect();
        let prefix = &stream[..CROSS_CHECK_PREFIX.min(stream.len())];
        let cross_check_failures = compiled
            .iter()
            .map(|c| oracle::cross_check(&c.pcea, c.cq.as_ref(), spec.window, prefix))
            .sum();
        Ok(Ctx {
            spec,
            stream,
            queries,
            compiled,
            expected,
            cross_check_failures,
        })
    }

    pub fn expected_total(&self) -> u64 {
        self.expected.iter().map(|f| f.count).sum()
    }

    /// Batches per latency window: enough for [`gen::WINDOW_MATCHES`]
    /// expected matches.
    pub fn window_batches(&self) -> usize {
        let per_batch = self.expected_total() * self.spec.batch as u64 / self.stream.len() as u64;
        gen::WINDOW_MATCHES.div_ceil(per_batch.max(1)) as usize
    }

    /// Reference fingerprint of query `i` over the first `tuples` tuples.
    pub fn expected_prefix(&self, i: usize, tuples: usize) -> Fingerprint {
        if tuples == self.stream.len() {
            return self.expected[i];
        }
        oracle::reference(
            &self.compiled[i].pcea,
            self.spec.window,
            &self.stream,
            0,
            tuples,
        )
    }
}

/// One metric as printed: name, value, unit, and the number of samples
/// it summarizes.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    fn absorb(&mut self, run: &RunOut) {
        self.attempted += run.attempted;
        self.failed += run.failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last stdout line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `q`-quantile of `v` (nearest rank); sorts `v`.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median across latency windows of each window's p50 and p99, over the
/// windows with at least 1000 samples (ten beyond the p99). Falls back to
/// the pooled samples when no window is that full (tiny test streams).
/// Returns `(p50, p99, samples)` in ns.
pub fn windowed_percentiles(windows: Vec<Vec<u64>>) -> (f64, f64, usize) {
    let samples = windows.iter().map(Vec::len).sum();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for mut w in windows.iter().filter(|w| w.len() >= 1000).cloned() {
        p50.push(quantile(&mut w, 0.50));
        p99.push(quantile(&mut w, 0.99));
    }
    if p50.is_empty() {
        let mut all: Vec<u64> = windows.into_iter().flatten().collect();
        return (quantile(&mut all, 0.50), quantile(&mut all, 0.99), samples);
    }
    (median(&p50), median(&p99), samples)
}

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Where a run keeps scratch files (server data directories, traces):
/// a directory under the current one, removed again where possible.
pub fn scratch_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(".perfbench");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn data_dir(tag: &str) -> std::path::PathBuf {
    scratch_dir().join(format!("data-{}-{tag}", std::process::id()))
}

/// One run of the workload's own path: the async pipeline or the server.
fn own_run(ctx: &Ctx, load: Load, tracer: Option<&Tracer>) -> Result<RunOut, String> {
    match ctx.spec.path {
        Path::InProcess => pipeline::async_run(ctx, load, tracer),
        Path::Served => served::serve_run(ctx, ctx.stream.len(), load, &data_dir("own"), tracer),
    }
}

/// Set the workload's own path up from nothing, then tear it down.
fn setup_only(ctx: &Ctx) -> Result<f64, String> {
    match ctx.spec.path {
        Path::InProcess => Ok(pipeline::setup(ctx, &mut None)?.2.setup_s),
        Path::Served => {
            let dir = data_dir("setup");
            let (served, out) = served::setup(ctx, &dir, &mut None)?;
            drop(served.ingest);
            drop(served.subscriber);
            served.server.stop();
            let _ = std::fs::remove_dir_all(&dir);
            Ok(out.setup_s)
        }
    }
}

/// End-to-end mode: after a warm-up run, closed-loop firehose runs for
/// the first third of the time budget, open-loop paced runs for the rest
/// (latency percentiles spread more between runs than throughput does).
/// Every run sets up from nothing, checks every match and restarts.
pub fn run_e2e(ctx: &Ctx, seconds: f64) -> Result<Report, String> {
    let mut report = Report {
        attempted: 1,
        failed: ctx.cross_check_failures,
        ..Report::default()
    };
    let start = Instant::now();
    let (mut tps, mut setup, mut recover) = (Vec::new(), Vec::new(), Vec::new());
    while more_samples(setup.len(), 10, start) {
        setup.push(setup_only(ctx)?);
    }
    // Warm-up: the first run pays one-off costs (page faults, the file
    // cache under the data directory); it is checked but not timed.
    report.absorb(&own_run(ctx, Load::Firehose, None)?);
    let mut latency = Vec::new();
    while tps.len() < 3 || start.elapsed().as_secs_f64() < seconds / 3.0 {
        let run = own_run(ctx, Load::Firehose, None)?;
        report.absorb(&run);
        tps.push(run.throughput_tps);
        setup.push(run.setup_s);
        recover.extend(&run.recover_s);
    }
    let mut paced_runs = 0;
    while paced_runs < 1 || start.elapsed().as_secs_f64() < seconds {
        let mut run = own_run(ctx, Load::Paced(ctx.spec.paced_tps), None)?;
        report.absorb(&run);
        setup.push(run.setup_s);
        recover.extend(&run.recover_s);
        latency.append(&mut run.latency_ns);
        paced_runs += 1;
    }
    let ok = 1.0 - report.failed as f64 / report.attempted as f64;
    report.push("throughput_tps", median(&tps), "tuples/s", tps.len());
    let (p50, p99, samples) = windowed_percentiles(latency);
    report.push("latency_p50_ms", p50 / 1e6, "ms", samples);
    report.push("latency_p99_ms", p99 / 1e6, "ms", samples);
    report.push("ok_frac", ok, "frac", report.attempted as usize);
    report.push("setup_s", median(&setup), "s", setup.len());
    report.push("recover_s", median(&recover), "s", recover.len());
    Ok(report)
}

/// Traced mode: the workload's stream up the ladder — per-query
/// evaluators, synchronous runtime, asynchronous pipeline, durable
/// serving — with spans around every layer call. Untraced and traced
/// runs of the workload's own path alternate to measure the tracing
/// overhead.
pub fn run_traced(
    ctx: &Ctx,
    seconds: f64,
    trace_file: Option<&std::path::Path>,
) -> Result<Report, String> {
    let mut report = Report {
        attempted: 1,
        failed: ctx.cross_check_failures,
        ..Report::default()
    };
    let start = Instant::now();
    let tracer = Tracer::new();
    let n = ctx.stream.len() as f64;
    let q = ctx.queries.len() as f64;

    // compile: parse + compile every query text, a few rounds.
    let mut local = Some(tracer.local());
    let mut compile_ns = Vec::new();
    for _ in 0..5 {
        let mut schema = gen::schema(&ctx.spec);
        for qt in &ctx.queries {
            let (r, ns) = trace::span(
                &mut local,
                "compile",
                "parse_compile",
                trace::NO_BATCH,
                || compile(&mut schema, qt),
            );
            r?;
            compile_ns.push(ns);
        }
    }
    tracer.finish(local);

    // evaluator rung.
    let ev = pipeline::evaluator_rung(ctx, &tracer);
    report.attempted += ev.outputs.max(1);
    report.failed += ev.failed;

    // runtime rung (synchronous push_batch).
    let (sync, shared) = pipeline::sync_rung(ctx, &tracer)?;
    report.absorb(&sync);

    // The workload's own path, untraced and traced in turn; then a traced
    // paced run for the generator's schedule slip.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last_traced = None;
    while plain.len() < 2 || start.elapsed().as_secs_f64() < seconds * 0.6 {
        let p = own_run(ctx, Load::Firehose, None)?;
        report.absorb(&p);
        plain.push(p.throughput_tps);
        let t = own_run(ctx, Load::Firehose, Some(&tracer))?;
        report.absorb(&t);
        traced.push(t.throughput_tps);
        last_traced = Some(t);
    }
    let own_traced = last_traced.expect("at least one traced run");
    let paced = own_run(ctx, Load::Paced(ctx.spec.paced_tps), Some(&tracer))?;
    report.absorb(&paced);

    // The rungs the own path does not cover: the async pipeline for the
    // served workload, serving for the in-process ones (on a prefix: one
    // socket is slow).
    let (fire, serve) = match ctx.spec.path {
        Path::InProcess => {
            let s = served::serve_run(
                ctx,
                ctx.spec.serve_prefix,
                Load::Firehose,
                &data_dir("serve"),
                Some(&tracer),
            )?;
            (own_traced, s)
        }
        Path::Served => (
            pipeline::async_run(ctx, Load::Firehose, Some(&tracer))?,
            own_traced,
        ),
    };
    report.absorb(match ctx.spec.path {
        Path::InProcess => &serve,
        Path::Served => &fire,
    });

    let (mut late, mut push, mut rtt) =
        (paced.late_ns, fire.push_ns.clone(), serve.push_ns.clone());
    let served_tuples = (serve.push_ns.len() * ctx.spec.batch) as u64;
    let s = &serve.serve;
    let evals = shared.prefilter_evals_saved + shared.prefilter_evals_done;
    #[rustfmt::skip]
    let rows: [(&str, f64, &'static str, usize); 37] = [
        ("gen.late_p99_ms", quantile(&mut late, 0.99) / 1e6, "ms", late.len()),
        ("gen.offered_tps", paced.offered_tps, "tuples/s", 1),
        ("compile.us_per_query", mean(&compile_ns) / 1e3, "us", compile_ns.len()),
        ("runtime.register_us", mean(&sync.register_ns) / 1e3, "us", sync.register_ns.len()),
        ("evaluator.ns_per_tuple", ev.ns_total as f64 / (n * q), "ns", 1),
        ("evaluator.ns_per_output", ratio(ev.ns_total, ev.outputs), "ns", 1),
        ("evaluator.outputs", ev.outputs as f64, "count", 1),
        ("evaluator.extends", ev.extends as f64, "count", 1),
        ("evaluator.unions", ev.unions as f64, "count", 1),
        ("evaluator.arena_nodes", ev.arena_nodes as f64, "count", 1),
        ("runtime.sync_ns_per_tuple", sync.push_ns.iter().sum::<u64>() as f64 / n, "ns", 1),
        ("runtime.drain_ms", fire.drain_ms, "ms", 1),
        ("shared.dedup_ratio", ratio(shared.referenced_predicates as u64, shared.distinct_predicates as u64), "ratio", 1),
        ("shared.evals_saved_frac", ratio(shared.prefilter_evals_saved, evals), "frac", 1),
        ("ingest.push_us_p50", quantile(&mut push, 0.50) / 1e3, "us", push.len()),
        ("ingest.push_us_p99", quantile(&mut push, 0.99) / 1e3, "us", push.len()),
        ("ingest.blocked_frac", ratio(fire.push_ns.iter().sum(), fire.producer_wall_ns), "frac", 1),
        ("ingest.queue_high_water", fire.queue_high_water, "tuples", 1),
        ("ingest.reorder_high_water", fire.reorder_high_water, "tuples", 1),
        ("ingest.drain_batch_mean", fire.drain_batch_mean, "tuples", 1),
        ("subscribe.events_per_s", 1e9 * ratio(fire.events, fire.consumer_wall_ns), "1/s", 1),
        ("subscribe.wait_frac", ratio(fire.consumer_wait_ns, fire.consumer_wall_ns), "frac", 1),
        ("subscribe.dropped", fire.dropped as f64, "count", 1),
        ("serve.ingest_rtt_us_p50", quantile(&mut rtt, 0.50) / 1e3, "us", rtt.len()),
        ("serve.ingest_rtt_us_p99", quantile(&mut rtt, 0.99) / 1e3, "us", rtt.len()),
        ("serve.events_per_s", 1e9 * ratio(serve.events, serve.consumer_wall_ns), "1/s", 1),
        ("serve.event_wait_frac", ratio(serve.consumer_wait_ns, serve.consumer_wall_ns), "frac", 1),
        ("serve.frame_bytes_per_tuple", ratio(s.frame_bytes, served_tuples), "bytes", 1),
        ("serve.control_rtt_ms", mean(&s.control_ns) / 1e6, "ms", s.control_ns.len()),
        ("runtime.rescale_ms", mean(&s.rescale_ns) / 1e6, "ms", s.rescale_ns.len()),
        ("checkpoint.ms", mean(&s.checkpoint_ns) / 1e6, "ms", s.checkpoint_ns.len()),
        ("wal.bytes_per_tuple", ratio(s.wal_bytes, served_tuples), "bytes", 1),
        ("wal.records", s.wal_records as f64, "count", 1),
        ("checkpoint.bytes", s.checkpoint_bytes as f64, "bytes", 1),
        ("checkpoint.delta_ratio_bp", s.delta_ratio_bp as f64, "bp", 1),
        ("recover.tuples_per_s", s.replayed_tuples as f64 / median(&serve.recover_s), "tuples/s", serve.recover_s.len()),
        ("trace.overhead_frac", 1.0 - median(&traced) / median(&plain), "frac", plain.len()),
    ];
    for (name, value, unit, samples) in rows {
        report.push(name, value, unit, samples);
    }
    let self_ns = tracer.self_ns();
    for layer in LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        report.push(&format!("{layer}.self_ms"), ns as f64 / 1e6, "ms", 1);
    }
    if let Some(path) = trace_file {
        tracer
            .write(path)
            .map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(report)
}

/// The layers the traced run attributes self time to.
pub const LAYERS: &[&str] = &[
    "compile",
    "evaluator",
    "runtime",
    "ingest",
    "subscribe",
    "durability",
    "serve",
];

fn mean(v: &[u64]) -> f64 {
    ratio(v.iter().sum(), v.len() as u64)
}

/// `a / b`, with an empty denominator counted as 1.
fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}
