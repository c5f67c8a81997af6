//! Spans around every call the benchmark makes into a layer's public
//! functions.
//!
//! Each thread records into its own [`Local`] buffer: a span has a layer,
//! a name, start and end (ns since the tracer's origin), its parent span
//! on the same thread and the batch it served. Self time (a span's
//! duration minus its direct children's) is summed per layer as spans
//! close, so it stays exact even after the raw-span buffer is full. The
//! buffers are merged and written out once, at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans kept per thread; the rest only feed the self-time sums.
const KEEP_PER_THREAD: usize = 20_000;

pub const NO_BATCH: u64 = u64::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    id: u32,
    parent: Option<u32>,
    layer: &'static str,
    name: &'static str,
    batch: u64,
    start: u64,
    end: u64,
}

struct Open {
    id: u32,
    layer: &'static str,
    name: &'static str,
    batch: u64,
    start: u64,
    child_ns: u64,
}

/// One thread's span buffer.
pub struct Local {
    thread: u32,
    origin: Instant,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    self_ns: BTreeMap<&'static str, u64>,
    total: u64,
}

impl Local {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, batch: u64) {
        let start = self.now();
        self.next_id += 1;
        self.stack.push(Open {
            id: self.next_id,
            layer,
            name,
            batch,
            start,
            child_ns: 0,
        });
    }

    /// Close the innermost open span; returns its duration in ns.
    pub fn end(&mut self) -> u64 {
        let end = self.now();
        let open = self.stack.pop().expect("end without begin");
        let dur = end - open.start;
        *self.self_ns.entry(open.layer).or_default() += dur - open.child_ns.min(dur);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        self.total += 1;
        if self.spans.len() < KEEP_PER_THREAD {
            self.spans.push(Span {
                id: open.id,
                parent,
                layer: open.layer,
                name: open.name,
                batch: open.batch,
                start: open.start,
                end,
            });
        }
        dur
    }
}

/// Run `f` inside a span when tracing; time it either way. Returns the
/// result and the call's duration in ns.
pub fn span<R>(
    local: &mut Option<Local>,
    layer: &'static str,
    name: &'static str,
    batch: u64,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    match local {
        Some(l) => {
            l.begin(layer, name, batch);
            let r = f();
            (r, l.end())
        }
        None => {
            let t = Instant::now();
            let r = f();
            (r, t.elapsed().as_nanos() as u64)
        }
    }
}

/// The collector every thread's buffer is merged into.
pub struct Tracer {
    origin: Instant,
    done: Mutex<Vec<Local>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A buffer for one thread; hand it back with [`finish`](Self::finish).
    pub fn local(&self) -> Local {
        Local {
            thread: 0,
            origin: self.origin,
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            self_ns: BTreeMap::new(),
            total: 0,
        }
    }

    pub fn finish(&self, local: Option<Local>) {
        if let Some(mut l) = local {
            while !l.stack.is_empty() {
                l.end();
            }
            let mut done = self.done.lock().expect("tracer poisoned");
            l.thread = done.len() as u32;
            done.push(l);
        }
    }

    /// Self time per layer over every finished buffer, in ns.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for l in self.done.lock().expect("tracer poisoned").iter() {
            for (layer, ns) in &l.self_ns {
                *out.entry(*layer).or_default() += ns;
            }
        }
        out
    }

    /// Write every kept span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for l in self.done.lock().expect("tracer poisoned").iter() {
            writeln!(
                w,
                "{{\"thread\":{},\"spans_total\":{},\"spans_kept\":{}}}",
                l.thread,
                l.total,
                l.spans.len()
            )?;
            for s in &l.spans {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let batch = if s.batch == NO_BATCH {
                    "null".to_string()
                } else {
                    s.batch.to_string()
                };
                writeln!(
                    w,
                    "{{\"thread\":{},\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"batch\":{batch},\"start_ns\":{},\"end_ns\":{}}}",
                    l.thread, s.id, s.layer, s.name, s.start, s.end
                )?;
            }
        }
        w.flush()
    }
}
