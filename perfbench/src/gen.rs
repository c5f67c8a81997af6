//! The load generator: workload definitions, seeded streams, standing
//! query texts and the paced send schedule.
//!
//! Everything here runs before any timed region. The program under test
//! only ever sees the generated tuples and the query texts.

use pcea::common::{RelationId, Schema, Tuple, Value};
use pcea::serve::Frontend;
use std::time::{Duration, Instant};

/// How a workload reaches the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `Runtime` + `IngestHandle` producer + `Subscription` consumer.
    InProcess,
    /// A durable `cer_serve::Server` on loopback TCP.
    Served,
}

/// One workload: stream shape, standing queries and load settings.
#[derive(Clone, Debug)]
pub struct Spec {
    pub path: Path,
    /// Relation families `T{f}(x)`, `S{f}(x, y)`, `R{f}(x, y)`.
    pub families: usize,
    /// Standing queries per family.
    pub variants: usize,
    pub x_domain: i64,
    pub y_domain: i64,
    /// Count window of every query.
    pub window: u64,
    /// Stream length at scale 1.
    pub tuples: usize,
    /// Tuples per producer call.
    pub batch: usize,
    /// Offered rate of the open-loop paced phase, about a third of the
    /// closed-loop throughput measured when the benchmark was defined.
    pub paced_tps: f64,
    /// Tuples the traced serve rung pushes for in-process workloads
    /// (their full streams would take too long over one socket).
    pub serve_prefix: usize,
}

/// Every defined workload. `BENCHMARK.json` gates two of them;
/// `many_queries` runs the same way but is left out there (see README).
pub const WORKLOADS: &[&str] = &["many_queries", "dense_output", "served_durable_churn"];

/// The named workload, with its stream length divided by `shrink`
/// (1 for real runs; tests use a tiny stream).
pub fn spec(name: &str, shrink: usize) -> Option<Spec> {
    let mut s = match name {
        "many_queries" => Spec {
            path: Path::InProcess,
            families: 4,
            variants: 16,
            x_domain: 64,
            y_domain: 8,
            window: 1024,
            tuples: 200_000,
            batch: 2048,
            paced_tps: 60_000.0,
            serve_prefix: 40_000,
        },
        "dense_output" => Spec {
            path: Path::InProcess,
            families: 2,
            variants: 1,
            x_domain: 8,
            y_domain: 2,
            window: 512,
            tuples: 20_000,
            batch: 256,
            paced_tps: 4_000.0,
            serve_prefix: 4_000,
        },
        "served_durable_churn" => Spec {
            path: Path::Served,
            families: 2,
            variants: 4,
            x_domain: 128,
            y_domain: 8,
            window: 1024,
            tuples: 200_000,
            batch: 2048,
            paced_tps: 80_000.0,
            serve_prefix: 200_000,
        },
        _ => return None,
    };
    let shrink = shrink.max(1);
    s.tuples = (s.tuples / shrink).max(s.batch * 16);
    s.serve_prefix = (s.serve_prefix / shrink).clamp(s.batch * 16, s.tuples);
    Some(s)
}

/// One standing query, as text in one of the two front-end languages.
#[derive(Clone, Debug)]
pub struct QueryText {
    pub name: String,
    pub frontend: Frontend,
    pub text: String,
}

/// Relation names in declaration order, with arities. Declaring them in
/// this order into an empty schema yields ids `0..`, on both the local
/// schema and a fresh server's.
pub fn relations(spec: &Spec) -> Vec<(String, usize)> {
    (0..spec.families)
        .flat_map(|f| {
            [
                (format!("T{f}"), 1),
                (format!("S{f}"), 2),
                (format!("R{f}"), 2),
            ]
        })
        .collect()
}

pub fn schema(spec: &Spec) -> Schema {
    let mut schema = Schema::new();
    for (name, arity) in relations(spec) {
        schema
            .add_relation(&name, arity)
            .expect("generated relation names are distinct");
    }
    schema
}

/// The σ0-shaped standing queries. Variant `v` of family `f` uses the
/// pattern front-end when `f + v` is even, the HCQ front-end otherwise;
/// `j = v / 2` sets its selectivity (a `y >= j` filter in the pattern,
/// a `y = j` constant in the HCQ, `j = 0` meaning unfiltered).
pub fn queries(spec: &Spec) -> Vec<QueryText> {
    let mut out = Vec::new();
    for f in 0..spec.families {
        for v in 0..spec.variants {
            let j = (v / 2) as i64 % spec.y_domain;
            let (frontend, text) = if (f + v) % 2 == 0 {
                (
                    Frontend::Pattern,
                    format!("T{f}(x) && S{f}(x, y)[1 >= {j}] ; R{f}(x, y)"),
                )
            } else if j == 0 {
                (
                    Frontend::Hcq,
                    format!("Q(x, y) <- T{f}(x), S{f}(x, y), R{f}(x, y)"),
                )
            } else {
                (
                    Frontend::Hcq,
                    format!("Q(x) <- T{f}(x), S{f}(x, {j}), R{f}(x, {j})"),
                )
            };
            out.push(QueryText {
                name: format!("f{f}v{v}"),
                frontend,
                text,
            });
        }
    }
    out
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The workload's stream: relations uniform over every family's three
/// relations, `x` and `y` uniform over their domains.
pub fn stream(spec: &Spec, seed: u64) -> Vec<Tuple> {
    let mut rng = Rng::new(seed);
    let rels = 3 * spec.families as u64;
    (0..spec.tuples)
        .map(|_| {
            let rel = rng.below(rels) as u32;
            let x = Value::Int(rng.below(spec.x_domain as u64) as i64);
            let y = Value::Int(rng.below(spec.y_domain as u64) as i64);
            match rel % 3 {
                0 => Tuple::new(RelationId(rel), vec![x]),
                _ => Tuple::new(RelationId(rel), vec![x, y]),
            }
        })
        .collect()
}

/// Detection latencies are summarized per window of consecutive batches
/// expected to hold at least this many matches (so a window's p99 has 15
/// matches beyond it), and then across windows by the median: a stall of
/// the shared host moves the windows it hits, not the run's figure.
pub const WINDOW_MATCHES: u64 = 1500;

/// Record `latency_ns` of a match whose batch was due in `window`.
pub fn record(windows: &mut Vec<Vec<u64>>, window: usize, latency_ns: u64) {
    if window >= windows.len() {
        windows.resize_with(window + 1, Vec::new);
    }
    windows[window].push(latency_ns);
}

/// The fixed send schedule of the paced phase: batch `k` is due at
/// `start + k * interval`, whatever the system does.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
    /// Batches per latency window.
    pub window_batches: usize,
}

impl Schedule {
    pub fn new(batch: usize, tps: f64, window_batches: usize) -> Self {
        Schedule {
            // A short lead so the first send is not already late.
            start: Instant::now() + Duration::from_millis(5),
            interval: Duration::from_secs_f64(batch as f64 / tps),
            window_batches: window_batches.max(1),
        }
    }

    pub fn due(&self, k: usize) -> Instant {
        self.start + self.interval * k as u32
    }

    /// The latency window batch `k` falls in.
    pub fn window(&self, k: usize) -> usize {
        k / self.window_batches
    }

    /// Sleep until batch `k` is due; returns how late the send runs.
    pub fn wait(&self, k: usize) -> Duration {
        let due = self.due(k);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        Instant::now().saturating_duration_since(due)
    }
}

/// The control ops the served path issues between data batches, by
/// batch index: a churn query lives from `submit` to `deregister`, two
/// checkpoints (a full one, then a delta), and a rescale 2 -> 1 -> 2.
#[derive(Clone, Copy, Debug)]
pub struct ControlPlan {
    pub submit: usize,
    pub checkpoint1: usize,
    pub shrink: usize,
    pub grow: usize,
    pub checkpoint2: usize,
    pub deregister: usize,
}

impl ControlPlan {
    pub fn for_batches(n: usize) -> Self {
        ControlPlan {
            submit: n / 8,
            checkpoint1: n / 4,
            shrink: 3 * n / 8,
            grow: n / 2,
            checkpoint2: 5 * n / 8,
            deregister: 3 * n / 4,
        }
    }
}
