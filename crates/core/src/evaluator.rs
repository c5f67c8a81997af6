//! The streaming evaluation algorithm (Section 5, Algorithm 1 /
//! Theorem 5.1).
//!
//! Evaluates an unambiguous PCEA with equality predicates over a stream
//! under a sliding window of size `w`, with
//! `O(|P|·|t| + |P|·log|P| + |P|·log w)` update time and output-linear
//! delay enumeration. The algorithm is composed from explicit stages,
//! each owned by its own module:
//!
//! * **ingest/window** ([`crate::window`]) — [`WindowClock`] maps each
//!   arriving tuple to the expiry bound `lo` of its position;
//! * **FireTransitions** and **UpdateIndices** (`crate::fire`) — for
//!   every transition `(P, U, B, L, q)`, if the current tuple satisfies
//!   `U` and every source slot `p ∈ P` has a stored run whose join key
//!   `⃗B_p` matches the tuple's `⃖B_p`, the gathered runs are `extend`ed
//!   into a fresh `DS_w` node at `q`; every node created this position
//!   is indexed in the look-up table `H` under
//!   `(transition, slot, ⃗B_p(t))`, melding with previous entries via
//!   the persistent `union`;
//! * **Enumerate** ([`crate::enumerate`]) — nodes that reached a final
//!   state this position hold exactly the *new* outputs `⟦P⟧^w_i(S)`,
//!   enumerated with output-linear delay (Theorem 5.2).
//!
//! Windowing never scans old state: expired subtrees are dropped lazily
//! during `union` and enumeration (heap condition (‡)), and a periodic
//! copying collector ([`StreamingEvaluator::set_gc_every`]) keeps memory
//! proportional to the live window on unbounded streams.
//!
//! # One evaluation path, and why slicing cannot change outputs
//!
//! Algorithm 1 is stated tuple-at-a-time. Here every entry point —
//! [`StreamingEvaluator::push`], [`StreamingEvaluator::push_at`], the
//! per-tuple output variants, the `push_slice_*` batch calls and the
//! runtime's shard workers — is a thin wrapper over one private core
//! that evaluates a *positioned slice*: tuples with their stream
//! positions, in increasing position order. A per-tuple call is a
//! one-element slice. The core restructures the *work* of Algorithm 1,
//! never its *outputs*:
//!
//! 1. **Unary predicates from a cache.** Before the per-position loop
//!    the core ensures the automaton's predicate slots in a predicate
//!    cache (`crate::shared`): the evaluator's own one-query cache when
//!    it runs standalone, the shard's cache shared by every hosted query
//!    inside a [`Runtime`](crate::runtime::Runtime). Each distinct
//!    predicate is evaluated once per tuple of the slice, and
//!    FireTransitions reads transition `e`'s outcome for tuple `j`
//!    through the slot table. The bits are the same `matches()`
//!    outcomes a tuple-at-a-time test computes — unary predicates are
//!    pure — so every firing decision is identical.
//! 2. **Exact per-position bookkeeping.** The bound `lo` comes from
//!    [`WindowClock::observe`] at every position, firing, indexing and
//!    enumeration run at every position over that position's `N_p`
//!    lists, and the `N_p` clear walks only the states touched at the
//!    previous position.
//! 3. **Amortized GC.** The garbage-collection cadence check runs once
//!    per call, at the slice boundary. Collection is fully transparent
//!    to outputs (it only drops expired or unreachable nodes), so
//!    deferring it within a slice cannot change any enumeration; it
//!    only lets the arena grow by at most one slice's worth of nodes
//!    past the configured cadence. For a one-element slice this is the
//!    per-tuple check of Algorithm 1.
//!
//! Hence the outputs are **bit-identical** — same valuations, same
//! positions, same per-position grouping — however the stream is cut
//! into slices. `tests/batch_vectorized.rs` checks this differentially
//! across engines, baselines, batch sizes and window policies; the
//! baselines evaluate predicates with `matches()` directly, so they stay
//! the independent check.
//!
//! For hosting *many* queries over one stream — with relation-based
//! routing and key-partitioned sharding across worker threads — see
//! [`crate::runtime`].

use crate::api::Evaluator;
use crate::ds::EnumStructure;
use crate::enumerate;
use crate::fire::FireStage;
use crate::shared::PredicateCache;
use crate::window::WindowClock;
pub use crate::window::WindowPolicy;
use cer_automata::pcea::Pcea;
use cer_automata::valuation::Valuation;
use cer_common::Tuple;

/// Counters exposed for benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Positions processed so far.
    pub positions: u64,
    /// Nodes currently allocated in the arena.
    pub arena_nodes: usize,
    /// Entries in the look-up table `H`.
    pub index_entries: usize,
    /// `extend` calls performed.
    pub extends: u64,
    /// `union` calls performed.
    pub unions: u64,
    /// Garbage collections run.
    pub collections: u64,
    /// Out-of-order timestamps the time-window clock clamped (always 0
    /// for count windows). Non-zero means the stream violated the
    /// non-decreasing-timestamp contract — under key-partitioned
    /// sharding its outputs may then depend on the shard count; see the
    /// hazard note in [`crate::window`].
    pub ts_regressions: u64,
}

/// The streaming evaluator of Theorem 5.1.
///
/// ```
/// use cer_automata::pcea::paper_p0;
/// use cer_common::gen::sigma0_prefix;
/// use cer_common::Schema;
/// use cer_core::evaluator::StreamingEvaluator;
///
/// let (_, r, s, t) = Schema::sigma0();
/// let mut engine = StreamingEvaluator::new(paper_p0(r, s, t), 100);
/// let mut total = 0;
/// for tuple in sigma0_prefix(r, s, t) {
///     total += engine.push_count(&tuple);
/// }
/// assert_eq!(total, 2); // ντ0 and ντ1 of Example 3.3
/// ```
#[derive(Clone, Debug)]
pub struct StreamingEvaluator {
    pcea: Pcea,
    clock: WindowClock,
    ds: EnumStructure,
    stage: FireStage,
    /// Next position to read (the paper's `i + 1`).
    next_pos: u64,
    /// Expiry bound computed for the current position.
    current_lo: u64,
    gc_every: u64,
    /// Positions processed since the last collection.
    since_gc: u64,
    stats: EngineStats,
    /// The standalone predicate path: a one-query cache and the
    /// automaton's slot table into it, built by the first standalone
    /// push and dropped whenever the automaton changes. A runtime-hosted
    /// evaluator reads the shard's cache instead ([`ShardPredicates`])
    /// and never builds one.
    own: Option<OwnPredicates>,
}

/// A one-query [`PredicateCache`] with the slot table of one automaton.
#[derive(Clone, Debug)]
struct OwnPredicates {
    cache: PredicateCache,
    slots: Vec<u32>,
}

impl OwnPredicates {
    fn new(pcea: &Pcea) -> Self {
        let mut cache = PredicateCache::default();
        let slots = cache.intern_transitions(pcea);
        OwnPredicates { cache, slots }
    }
}

/// A shard's predicate cache as seen by one hosted query: the cache
/// (whose batch the shard worker began), the query's slot table into
/// it, and the shard's stage histograms, which split a call into the
/// predicate phase and the fire/index/enumerate tail (three `Instant`
/// reads per call, not per tuple).
pub(crate) struct ShardPredicates<'a> {
    pub(crate) cache: &'a mut PredicateCache,
    pub(crate) slots: &'a [u32],
    pub(crate) timers: (&'a cer_obs::Histogram, &'a cer_obs::Histogram),
}

/// The tuples one core call evaluates: which entries of the batch the
/// predicate pool is laid out over, at which stream positions.
#[derive(Clone, Copy)]
enum Positioned<'t> {
    /// Every `tuples[j]`, at position `start + j`.
    Run { start: u64, tuples: &'t [Tuple] },
    /// The stamped tuples `tuples[sel[k]]`, in `sel` order.
    Stamped {
        tuples: &'t [(u64, Tuple)],
        sel: &'t [u32],
    },
}

impl<'t> Positioned<'t> {
    /// Tuples in the underlying batch.
    fn batch_len(self) -> usize {
        match self {
            Positioned::Run { tuples, .. } => tuples.len(),
            Positioned::Stamped { tuples, .. } => tuples.len(),
        }
    }

    /// Tuple `j` of the underlying batch.
    fn tuple(self, j: usize) -> &'t Tuple {
        match self {
            Positioned::Run { tuples, .. } => &tuples[j],
            Positioned::Stamped { tuples, .. } => &tuples[j].1,
        }
    }

    /// Entries to evaluate.
    fn len(self) -> usize {
        match self {
            Positioned::Run { tuples, .. } => tuples.len(),
            Positioned::Stamped { sel, .. } => sel.len(),
        }
    }

    /// Entry `k`: its batch index, stream position and tuple.
    fn get(self, k: usize) -> (usize, u64, &'t Tuple) {
        match self {
            Positioned::Run { start, tuples } => (k, start + k as u64, &tuples[k]),
            Positioned::Stamped { tuples, sel } => {
                let j = sel[k] as usize;
                (j, tuples[j].0, &tuples[j].1)
            }
        }
    }
}

impl StreamingEvaluator {
    /// Create an evaluator for `pcea` under window size `w`.
    ///
    /// The algorithm's guarantees (no duplicate outputs, output-linear
    /// delay) require `pcea` to be unambiguous with equality predicates,
    /// as in Theorem 5.1; this is not checked here (see
    /// `ReferenceEval::check_unambiguous`).
    pub fn new(pcea: Pcea, w: u64) -> Self {
        Self::with_window(pcea, WindowPolicy::Count(w))
    }

    /// Create an evaluator with a time window: positions whose timestamp
    /// (the integer at `ts_pos` of every tuple) is older than
    /// `now − duration` expire. Timestamps must be non-decreasing;
    /// out-of-order timestamps are clamped up to the latest seen.
    pub fn new_timed(pcea: Pcea, duration: i64, ts_pos: usize) -> Self {
        assert!(duration >= 0, "window duration must be non-negative");
        Self::with_window(pcea, WindowPolicy::Time { duration, ts_pos })
    }

    /// Create an evaluator with an explicit window policy.
    pub fn with_window(pcea: Pcea, window: WindowPolicy) -> Self {
        let n_states = pcea.num_states();
        StreamingEvaluator {
            pcea,
            clock: WindowClock::new(window),
            ds: EnumStructure::new(),
            stage: FireStage::new(n_states),
            next_pos: 0,
            current_lo: 0,
            gc_every: 0,
            since_gc: 0,
            stats: EngineStats::default(),
            own: None,
        }
    }

    /// Run the copying collector every `every` positions (0 = automatic:
    /// every `max(w, 1024)` positions).
    pub fn set_gc_every(&mut self, every: u64) -> &mut Self {
        self.gc_every = every;
        self
    }

    /// The automaton being evaluated.
    pub fn pcea(&self) -> &Pcea {
        &self.pcea
    }

    /// The window policy.
    pub fn window(&self) -> &WindowPolicy {
        self.clock.policy()
    }

    /// The position the *next* tuple will occupy (when pushed without an
    /// explicit position).
    pub fn next_position(&self) -> u64 {
        self.next_pos
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            arena_nodes: self.ds.len(),
            index_entries: self.stage.index_entries(),
            ts_regressions: self.clock.ts_regressions(),
            ..self.stats
        }
    }

    /// Update phase of Algorithm 1 for one tuple. Returns the position it
    /// occupied. Call an output method afterwards — or use the combined
    /// [`push_for_each`](Self::push_for_each) /
    /// [`push_collect`](Self::push_collect) / [`push_count`](Self::push_count).
    pub fn push(&mut self, t: &Tuple) -> u64 {
        self.push_at(t, self.next_pos)
    }

    /// Update phase for a tuple occupying an *explicit* stream position.
    ///
    /// Positions must be pushed in strictly increasing order but may
    /// have gaps: a sharded evaluator inside the multi-query
    /// [`Runtime`](crate::runtime::Runtime) only sees the tuples routed
    /// to it, yet output valuations must carry global stream positions.
    /// Count windows keep their *global* meaning (`lo = i − w`), so
    /// outputs match an evaluator that saw every position.
    ///
    /// Panics if `i` is behind a position already pushed.
    pub fn push_at(&mut self, t: &Tuple, i: u64) -> u64 {
        let one = Positioned::Run {
            start: i,
            tuples: std::slice::from_ref(t),
        };
        self.push_positioned(one, None, None, |_, _| {});
        i
    }

    /// The one evaluation core behind every push (see the module docs
    /// for the restructuring and its exactness argument): ensure the
    /// automaton's predicate slots — in `shard`'s cache, or in the
    /// evaluator's own (built on first use) after beginning a batch
    /// there — then per position
    /// compute `lo`, fire transitions by reading pool bits through the
    /// slot table, update the indices and, when `labels` is `Some(n)`,
    /// enumerate the new outputs with `n` labels into
    /// `f(position, valuation)` (`n = 0` yields placeholder valuations,
    /// enough to count). The GC cadence is checked once, at the end.
    fn push_positioned<F: FnMut(u64, &Valuation)>(
        &mut self,
        batch: Positioned<'_>,
        shard: Option<ShardPredicates<'_>>,
        labels: Option<usize>,
        mut f: F,
    ) {
        if batch.len() == 0 {
            return;
        }
        let (cache, slots, timers) = match shard {
            Some(sh) => (sh.cache, sh.slots, Some(sh.timers)),
            None => {
                let own = self
                    .own
                    .get_or_insert_with(|| OwnPredicates::new(&self.pcea));
                own.cache.begin_batch(batch.batch_len());
                (&mut own.cache, &own.slots[..], None)
            }
        };
        let timed = timers.map(|timers| (timers, std::time::Instant::now()));
        cache.ensure(slots, |j| batch.tuple(j));
        let timed = timed.map(|((predicates, tail), started)| {
            let now = std::time::Instant::now();
            predicates.record_duration(now.duration_since(started));
            (tail, now)
        });
        let cache = &*cache;
        for k in 0..batch.len() {
            let (j, i, t) = batch.get(k);
            assert!(
                i >= self.next_pos,
                "positions must increase: got {i}, expected at least {}",
                self.next_pos
            );
            self.next_pos = i + 1;
            self.stats.positions += 1;
            let lo = self.clock.observe(i, t);
            self.current_lo = lo;
            self.stage.begin_position();
            self.stats.extends += self.stage.fire(
                &self.pcea,
                &mut self.ds,
                |e| cache.accepts(slots[e], j),
                t,
                i,
                lo,
            );
            self.stage
                .update_indices(&self.pcea, &mut self.ds, t, lo, &mut self.stats);
            self.since_gc += 1;
            if let Some(n_labels) = labels {
                for q in self.pcea.finals() {
                    for &n in self.stage.nodes_at(q.index()) {
                        enumerate::for_each_valuation_from(
                            &self.ds,
                            n,
                            lo,
                            n_labels,
                            &mut |v: &Valuation| f(i, v),
                        );
                    }
                }
            }
        }
        // Amortized GC: the cadence check runs once per call. Collection
        // is transparent to outputs, so deferring it within the slice
        // only lets the arena overshoot by at most one slice.
        let gc_every = if self.gc_every == 0 {
            self.clock.default_gc_every()
        } else {
            self.gc_every
        };
        if self.since_gc >= gc_every {
            self.since_gc = 0;
            self.stats.collections += 1;
            self.stage.collect_garbage(&mut self.ds, self.current_lo);
        }
        if let Some((tail, at)) = timed {
            tail.record_duration(at.elapsed());
        }
    }

    /// Batch update: push a whole slice at consecutive positions,
    /// calling `f(position, valuation)` for each new output.
    ///
    /// Outputs are bit-identical to pushing the tuples one at a time —
    /// enumeration still happens at every position — but each distinct
    /// unary predicate is evaluated once per tuple for the whole slice,
    /// and the GC cadence check is amortized to the slice boundary. See
    /// the module docs for the exactness argument.
    pub fn push_slice_for_each<F: FnMut(u64, &Valuation)>(&mut self, batch: &[Tuple], f: F) {
        let labels = Some(self.pcea.num_labels());
        self.push_positioned(self.run(batch), None, labels, f);
    }

    /// Push a whole slice and collect the new outputs as
    /// `(position, valuation)` pairs.
    pub fn push_slice_collect(&mut self, batch: &[Tuple]) -> Vec<(u64, Valuation)> {
        let mut out = Vec::new();
        self.push_slice_for_each(batch, |i, v| out.push((i, v.clone())));
        out
    }

    /// Push a whole slice and count the new outputs without
    /// materializing them.
    pub fn push_slice_count(&mut self, batch: &[Tuple]) -> usize {
        let mut n = 0usize;
        self.push_positioned(self.run(batch), None, Some(0), |_, _| n += 1);
        n
    }

    /// `batch` at the next consecutive positions.
    fn run<'t>(&self, batch: &'t [Tuple]) -> Positioned<'t> {
        Positioned::Run {
            start: self.next_pos,
            tuples: batch,
        }
    }

    /// The shard worker's push: evaluate the stamped tuples `tuples[j]`
    /// for `j` in `sel` (increasing positions), reading unary predicates
    /// from the shard's cache, whose batch over `tuples` the worker has
    /// begun. `enumerate` gates output enumeration — a shard skips it
    /// when no subscriber listens.
    pub(crate) fn push_stamped<F: FnMut(u64, &Valuation)>(
        &mut self,
        tuples: &[(u64, Tuple)],
        sel: &[u32],
        shard: ShardPredicates<'_>,
        enumerate: bool,
        f: F,
    ) {
        let labels = enumerate.then(|| self.pcea.num_labels());
        let batch = Positioned::Stamped { tuples, sel };
        self.push_positioned(batch, Some(shard), labels, f);
    }

    /// Checkpoint encoding of every cross-position piece of this
    /// evaluator: the window clock, position cursors, engine counters,
    /// the `DS_w` arena and the look-up table `H`. The per-position
    /// `N_p` lists and all scratch are excluded — they are only
    /// meaningful *within* a position, and a snapshot is always taken
    /// at a position boundary (see [`crate::checkpoint`]).
    ///
    /// Runs the copying collector first so the snapshot carries only
    /// state reachable from live `H` entries.
    pub(crate) fn snapshot_bytes(&mut self) -> Result<Vec<u8>, cer_common::wire::WireError> {
        self.stats.collections += 1;
        self.since_gc = 0;
        self.stage.collect_garbage(&mut self.ds, self.current_lo);
        let mut w = cer_common::wire::WireWriter::new();
        self.clock.encode(&mut w)?;
        w.put_u64(self.next_pos);
        w.put_u64(self.current_lo);
        w.put_u64(self.gc_every);
        w.put_u64(self.since_gc);
        w.put_u64(self.stats.positions);
        w.put_u64(self.stats.extends);
        w.put_u64(self.stats.unions);
        w.put_u64(self.stats.collections);
        self.ds.encode(&mut w)?;
        self.stage.encode(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Rebuild an evaluator from [`snapshot_bytes`](Self::snapshot_bytes)
    /// output and the (separately serialized) automaton.
    pub(crate) fn from_snapshot_bytes(
        pcea: Pcea,
        bytes: &[u8],
    ) -> Result<Self, cer_common::wire::WireError> {
        let mut r = cer_common::wire::WireReader::new(bytes);
        let clock = WindowClock::decode(&mut r)?;
        let next_pos = r.get_u64()?;
        let current_lo = r.get_u64()?;
        let gc_every = r.get_u64()?;
        let since_gc = r.get_u64()?;
        let mut stats = EngineStats {
            positions: r.get_u64()?,
            extends: r.get_u64()?,
            unions: r.get_u64()?,
            ..EngineStats::default()
        };
        stats.collections = r.get_u64()?;
        let ds = crate::ds::EnumStructure::decode(&mut r)?;
        let stage = FireStage::decode(&mut r, pcea.num_states(), ds.len())?;
        if !r.is_exhausted() {
            return Err(cer_common::wire::WireError::Corrupt(
                "trailing bytes after evaluator state",
            ));
        }
        Ok(StreamingEvaluator {
            pcea,
            clock,
            ds,
            stage,
            next_pos,
            current_lo,
            gc_every,
            since_gc,
            stats,
            own: None,
        })
    }

    /// Merge another shard replica of the *same* query into this
    /// evaluator (restore-time shard-count change,
    /// [`crate::checkpoint`]): arenas concatenate with remapped ids,
    /// `H` tables union (replica key sets are disjoint under sound key
    /// partitioning), window clocks interleave, and counters sum. The
    /// replicas share one automaton, so this evaluator's own predicate
    /// cache, if built, stays valid.
    pub(crate) fn absorb_replica(&mut self, other: StreamingEvaluator) {
        let offset = self.ds.absorb(other.ds);
        self.stage
            .absorb(other.stage, offset, &mut self.ds, &mut self.stats);
        self.clock.absorb(other.clock);
        self.next_pos = self.next_pos.max(other.next_pos);
        self.current_lo = self.current_lo.max(other.current_lo);
        self.since_gc = self.since_gc.max(other.since_gc);
        self.stats.positions += other.stats.positions;
        self.stats.extends += other.stats.extends;
        self.stats.unions += other.stats.unions;
        self.stats.collections += other.stats.collections;
    }

    /// Restrict this evaluator to the key slice shard `shard` owns
    /// under a `(pos, n_shards)` key partition, dropping every run
    /// whose join key hashes elsewhere.
    ///
    /// Called on each home's copy when merged `ByKey` state is
    /// redistributed (restore into a different shard count,
    /// `Runtime::rescale`). The dropped state is exactly the slice the
    /// tuple router never sends this shard, so outputs are unchanged —
    /// but the pruning is what keeps replicas *disjoint*, which
    /// [`absorb_replica`](Self::absorb_replica) relies on: merging
    /// un-pruned full copies would duplicate every in-window run on the
    /// next rescale or snapshot.
    pub(crate) fn retain_key_shard(&mut self, pos: usize, shard: usize, n_shards: usize) {
        self.stats.collections += 1;
        self.since_gc = 0;
        self.stage.retain_key_shard(
            &self.pcea,
            pos,
            shard,
            n_shards,
            &cer_common::hash::FxBuildHasher::default(),
            &mut self.ds,
        );
    }

    /// Zero the counters of a restore-time replica clone so per-query
    /// stats (summed across shards) are not multiplied by the shard
    /// count when merged state is replicated.
    pub(crate) fn clear_replica_stats(&mut self) {
        self.stats = EngineStats::default();
        self.clock.reset_regressions();
    }

    /// Set the position the next pushed tuple must occupy (restore-time
    /// alignment with the runtime's resumed sequencer position).
    pub(crate) fn set_resume_position(&mut self, pos: u64) {
        assert!(pos >= self.next_pos, "cannot resume behind captured state");
        self.next_pos = pos;
    }

    /// Hand this evaluator's accumulated state to a recompiled query
    /// (`Runtime::replace` hot-swap). The caller must have verified
    /// [`Pcea::skeleton_compatible`]; the window handoff goes through
    /// [`WindowClock::migrate`], which returns `None` — surfaced here —
    /// when the window *kind* changes (count vs. time, or a moved
    /// timestamp attribute). Within a kind, any resize is accepted:
    /// widening cannot resurrect runs already pruned under the old
    /// bound (it converges within one old window), narrowing re-prunes
    /// lazily at the next position.
    pub(crate) fn replace_automaton(
        self,
        pcea: Pcea,
        window: WindowPolicy,
        gc_every: u64,
    ) -> Option<Self> {
        debug_assert!(self.pcea.skeleton_compatible(&pcea));
        let clock = self.clock.migrate(window)?;
        Some(StreamingEvaluator {
            pcea,
            clock,
            gc_every,
            own: None,
            ..self
        })
    }

    /// Enumerate this position's new outputs (`⟦P⟧^w_i(S)`), calling `f`
    /// once per valuation. Must follow [`push`](Self::push) for the same
    /// position.
    pub fn for_each_output<F: FnMut(&Valuation)>(&self, mut f: F) {
        for q in self.pcea.finals() {
            for &n in self.stage.nodes_at(q.index()) {
                enumerate::for_each_valuation_from(
                    &self.ds,
                    n,
                    self.current_lo,
                    self.pcea.num_labels(),
                    &mut f,
                );
            }
        }
    }

    /// Push a tuple and collect the new outputs.
    pub fn push_collect(&mut self, t: &Tuple) -> Vec<Valuation> {
        let mut out = Vec::new();
        self.push_for_each(t, |v| out.push(v.clone()));
        out
    }

    /// Push a tuple and count the new outputs without materializing them.
    pub fn push_count(&mut self, t: &Tuple) -> usize {
        self.push_slice_count(std::slice::from_ref(t))
    }

    /// Push a tuple, calling `f` for each new output.
    pub fn push_for_each<F: FnMut(&Valuation)>(&mut self, t: &Tuple, mut f: F) {
        self.push_slice_for_each(std::slice::from_ref(t), |_, v| f(v));
    }
}

impl Evaluator for StreamingEvaluator {
    fn push_collect(&mut self, t: &Tuple) -> Vec<Valuation> {
        StreamingEvaluator::push_collect(self, t)
    }

    fn push_count(&mut self, t: &Tuple) -> usize {
        StreamingEvaluator::push_count(self, t)
    }

    fn push_for_each(&mut self, t: &Tuple, f: &mut dyn FnMut(&Valuation)) {
        StreamingEvaluator::push_for_each(self, t, f);
    }

    fn push_slice(&mut self, batch: &[Tuple], f: &mut dyn FnMut(usize, &Valuation)) {
        let start = self.next_pos;
        self.push_slice_for_each(batch, |i, v| f((i - start) as usize, v));
    }
}

/// Convenience driver: evaluate a PCEA over a finite stream, returning
/// `(position, outputs)` for every position with at least one output.
pub fn run_to_end(pcea: Pcea, w: u64, stream: &[Tuple]) -> Vec<(u64, Vec<Valuation>)> {
    let mut engine = StreamingEvaluator::new(pcea, w);
    let mut out = Vec::new();
    for t in stream {
        let vs = engine.push_collect(t);
        if !vs.is_empty() {
            out.push((engine.next_position() - 1, vs));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::ccea::paper_c0;
    use cer_automata::pcea::{paper_p0, PceaBuilder};
    use cer_automata::predicate::{
        AtomPattern, CmpOp, EqPredicate, PatTerm, PosGroup, UnaryPredicate,
    };
    use cer_automata::reference::ReferenceEval;
    use cer_automata::valuation::{Label, LabelSet};
    use cer_common::gen::sigma0_prefix;
    use cer_common::tuple::tup;
    use cer_common::{Schema, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Differential harness: engine output == reference oracle at every
    /// position and for several window sizes.
    fn check_against_reference(pcea: &Pcea, stream: &[Tuple], windows: &[u64]) {
        let reference = ReferenceEval::new(pcea, stream);
        for &w in windows {
            let mut engine = StreamingEvaluator::new(pcea.clone(), w);
            for (n, t) in stream.iter().enumerate() {
                let mut got = engine.push_collect(t);
                got.sort();
                got.dedup();
                let want = reference.windowed_outputs_at(n, w);
                assert_eq!(got, want, "w={w}, position {n}");
            }
        }
    }

    #[test]
    fn example_3_3_on_the_engine() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        check_against_reference(&paper_p0(r, s, t), &stream, &[0, 2, 4, 5, 100]);
    }

    #[test]
    fn ccea_embedding_on_the_engine() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        check_against_reference(&paper_c0(r, s, t).to_pcea(), &stream, &[1, 3, 100]);
    }

    #[test]
    fn outputs_fire_exactly_at_completion() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let mut engine = StreamingEvaluator::new(paper_p0(r, s, t), 100);
        let counts: Vec<usize> = stream.iter().map(|t| engine.push_count(t)).collect();
        assert_eq!(counts, vec![0, 0, 0, 0, 0, 2, 0, 0]);
    }

    #[test]
    fn window_cuts_long_spans() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        // Span of ντ0 is 4, of ντ1 is 5.
        for (w, expect) in [(5u64, 2usize), (4, 1), (3, 0)] {
            let mut engine = StreamingEvaluator::new(paper_p0(r, s, t), w);
            let total: usize = stream.iter().map(|t| engine.push_count(t)).sum();
            assert_eq!(total, expect, "w={w}");
        }
    }

    #[test]
    fn long_stream_with_gc_matches_no_gc() {
        use cer_common::gen::Sigma0Gen;
        use cer_common::Stream;
        let (_, r, s, t) = Schema::sigma0();
        let mut gen = Sigma0Gen::new(r, s, t, 42).with_domains(4, 4);
        let stream: Vec<Tuple> = (0..400).map(|_| gen.next_tuple().unwrap()).collect();
        let pcea = paper_p0(r, s, t);
        let w = 16;

        let mut eager = StreamingEvaluator::new(pcea.clone(), w);
        eager.set_gc_every(7);
        let mut lazy = StreamingEvaluator::new(pcea, w);
        lazy.set_gc_every(1_000_000);
        for tu in &stream {
            let mut a = eager.push_collect(tu);
            let mut b = lazy.push_collect(tu);
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
        assert!(eager.stats().collections > 0);
        assert!(eager.stats().arena_nodes < lazy.stats().arena_nodes);
    }

    #[test]
    fn memory_stays_bounded_under_gc() {
        use cer_common::gen::Sigma0Gen;
        use cer_common::Stream;
        let (_, r, s, t) = Schema::sigma0();
        let mut gen = Sigma0Gen::new(r, s, t, 7).with_domains(8, 8);
        let pcea = paper_p0(r, s, t);
        let w = 32;
        let mut engine = StreamingEvaluator::new(pcea, w);
        engine.set_gc_every(w);
        let mut peak = 0usize;
        for _ in 0..2000 {
            let tu = gen.next_tuple().unwrap();
            engine.push(&tu);
            peak = peak.max(engine.stats().arena_nodes);
        }
        // Live state is O(|∆| · w); allow a generous constant.
        assert!(peak < 64 * (w as usize) * 3, "arena peaked at {peak} nodes");
    }

    #[test]
    fn stats_track_work() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let mut engine = StreamingEvaluator::new(paper_p0(r, s, t), 100);
        for tu in &stream {
            engine.push(tu);
        }
        let st = engine.stats();
        assert_eq!(st.positions, 8);
        // 6 initial fires (the S and T tuples) + 1 join fire (R(2,11)).
        assert_eq!(st.extends, 7);
        assert!(st.index_entries > 0);
    }

    #[test]
    fn run_to_end_reports_positions() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let results = run_to_end(paper_p0(r, s, t), 100, &stream);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, 5);
        assert_eq!(results[0].1.len(), 2);
    }

    #[test]
    fn push_at_skips_positions_but_keeps_global_windows() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        // Feed the same tuples at their global positions, with gaps, and
        // compare to the contiguous run.
        let mut dense = StreamingEvaluator::new(paper_p0(r, s, t), 5);
        let dense_out: Vec<_> = stream.iter().map(|tu| dense.push_collect(tu)).collect();
        let mut gapped = StreamingEvaluator::new(paper_p0(r, s, t), 5);
        for (n, tu) in stream.iter().enumerate() {
            gapped.push_at(tu, n as u64);
            let mut got = Vec::new();
            gapped.for_each_output(|v| got.push(v.clone()));
            assert_eq!(got, dense_out[n], "position {n}");
        }
        // A sparse subsequence at global positions: window w=5 measured
        // in *global* positions, so the span 0..5 of ντ1 still fits.
        let mut sparse = StreamingEvaluator::new(paper_p0(r, s, t), 5);
        let picks = [0usize, 1, 3, 5];
        let mut total = 0usize;
        for &n in &picks {
            sparse.push_at(&stream[n], n as u64);
            sparse.for_each_output(|_| total += 1);
        }
        assert_eq!(total, 2, "both matches complete at global position 5");
    }

    #[test]
    fn push_slice_matches_per_tuple_across_chunkings() {
        use cer_common::gen::Sigma0Gen;
        use cer_common::Stream;
        let (_, r, s, t) = Schema::sigma0();
        let mut gen = Sigma0Gen::new(r, s, t, 11).with_domains(3, 3);
        let stream: Vec<Tuple> = (0..300).map(|_| gen.next_tuple().unwrap()).collect();
        let pcea = paper_p0(r, s, t);
        let w = 12;

        let mut scalar = StreamingEvaluator::new(pcea.clone(), w);
        scalar.set_gc_every(5);
        let mut want = Vec::new();
        for (n, tu) in stream.iter().enumerate() {
            for v in scalar.push_collect(tu) {
                want.push((n as u64, v));
            }
        }

        // Chunk size 1 exercises the batch path's degenerate case; 7 is
        // deliberately coprime with the GC cadence; 300 is one slice.
        for chunk in [1usize, 7, 64, 300] {
            let mut batched = StreamingEvaluator::new(pcea.clone(), w);
            batched.set_gc_every(5);
            let mut got = Vec::new();
            for slice in stream.chunks(chunk) {
                got.extend(batched.push_slice_collect(slice));
            }
            assert_eq!(got, want, "chunk={chunk}");
            assert_eq!(batched.next_position(), stream.len() as u64);
            // Amortized GC still runs (at batch boundaries).
            assert!(batched.stats().collections > 0, "chunk={chunk}");
        }

        // Counting without materializing agrees too.
        let mut counter = StreamingEvaluator::new(pcea, w);
        counter.set_gc_every(5);
        let total: usize = stream.chunks(13).map(|c| counter.push_slice_count(c)).sum();
        assert_eq!(total, want.len());
    }

    #[test]
    fn push_slice_handles_empty_and_time_windows() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        // Timestamp = attribute 0 is not monotone in σ0; use a wide
        // duration so clamping stays irrelevant, and compare paths.
        let mut scalar = StreamingEvaluator::new_timed(paper_p0(r, s, t), 1_000, 0);
        let mut batched = StreamingEvaluator::new_timed(paper_p0(r, s, t), 1_000, 0);
        batched.push_slice_for_each(&[], |_, _| panic!("no outputs from an empty slice"));
        let mut want = Vec::new();
        for tu in &stream {
            want.extend(scalar.push_collect(tu));
        }
        let got = batched.push_slice_collect(&stream);
        assert_eq!(got.len(), want.len());
        assert_eq!(got.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>(), want);
    }

    /// One initial transition carrying `pred` into a final state: the
    /// automaton outputs at position `i` iff `pred` accepts tuple `i`.
    fn one_predicate(pred: UnaryPredicate) -> Pcea {
        let mut b = PceaBuilder::new(1);
        let q = b.add_state();
        b.add_initial_transition(pred, LabelSet::singleton(Label(0)), q);
        b.mark_final(q);
        b.build()
    }

    /// 70 σ0 tuples (more than one 64-bit pool word), relations mixed.
    fn mixed_tuples() -> Vec<Tuple> {
        let (_, r, s, t) = Schema::sigma0();
        (0..70i64)
            .map(|i| match i % 3 {
                0 => tup(r, [i % 3, i % 4]),
                1 => tup(s, [i % 2, i % 5]),
                _ => tup(t, [i % 4]),
            })
            .collect()
    }

    /// Every closed form of [`UnaryPredicate`], plus a `Custom` closure.
    fn every_form() -> Vec<UnaryPredicate> {
        let (_, r, s, t) = Schema::sigma0();
        let cmp = |pos, op, v: i64| UnaryPredicate::Cmp {
            pos,
            op,
            value: Value::Int(v),
        };
        vec![
            UnaryPredicate::True,
            UnaryPredicate::Relation(s),
            UnaryPredicate::OneOf(Box::new([r, t])),
            UnaryPredicate::Atom(AtomPattern {
                relation: r,
                terms: Box::new([PatTerm::Var(0), PatTerm::Var(0)]),
            }),
            UnaryPredicate::Groups {
                relation: s,
                arity: 2,
                groups: Box::new([PosGroup {
                    positions: Box::new([1]),
                    constant: Some(Value::Int(1)),
                }]),
            },
            cmp(1, CmpOp::Ge, 2),
            UnaryPredicate::Relation(r).and(cmp(0, CmpOp::Lt, 2)),
            UnaryPredicate::Custom(Arc::new(|t: &Tuple| t.get(0) == &Value::Int(0))),
        ]
    }

    #[test]
    fn one_predicate_path_equals_matches_for_every_form() {
        let tuples = mixed_tuples();
        // Stamped batch with position gaps and a selected subset.
        let stamped: Vec<(u64, Tuple)> = tuples
            .iter()
            .enumerate()
            .map(|(j, t)| (100 + 2 * j as u64, t.clone()))
            .collect();
        let sel: Vec<u32> = (0..70).filter(|j| j % 3 != 1).collect();
        let mut shard = PredicateCache::default();
        let mut hosted = Vec::new();
        for pred in every_form() {
            let want = |ts: &[Tuple], base: u64| -> Vec<u64> {
                (0..ts.len() as u64)
                    .filter(|&j| pred.matches(&ts[j as usize]))
                    .map(|j| base + j)
                    .collect()
            };
            let positions =
                |out: Vec<(u64, Valuation)>| out.into_iter().map(|(i, _)| i).collect::<Vec<_>>();
            // One-tuple batches.
            let mut single = StreamingEvaluator::new(one_predicate(pred.clone()), 1_000);
            let got: Vec<u64> = (0..70u64)
                .filter(|_| single.push_count(&tuples[single.next_position() as usize]) == 1)
                .collect();
            assert_eq!(got, want(&tuples, 0), "{pred:?}: one-tuple batches");
            // A mixed-relation batch, then a 70-tuple batch.
            let mut sliced = StreamingEvaluator::new(one_predicate(pred.clone()), 1_000);
            let got = positions(sliced.push_slice_collect(&tuples[..10]));
            assert_eq!(got, want(&tuples[..10], 0), "{pred:?}: mixed batch");
            let got = positions(sliced.push_slice_collect(&tuples));
            assert_eq!(got, want(&tuples, 10), "{pred:?}: 70-tuple batch");
            // Hosted on a shard cache shared with every other form.
            let eval = StreamingEvaluator::new(one_predicate(pred.clone()), 1_000);
            let slots = shard.intern_transitions(eval.pcea());
            hosted.push((pred, eval, slots));
        }
        shard.begin_batch(stamped.len());
        let hist = cer_obs::Histogram::new();
        for (pred, eval, slots) in &mut hosted {
            let mut got = Vec::new();
            let preds = ShardPredicates {
                cache: &mut shard,
                slots,
                timers: (&hist, &hist),
            };
            eval.push_stamped(&stamped, &sel, preds, true, |i, _| got.push(i));
            let want: Vec<u64> = sel
                .iter()
                .map(|&j| &stamped[j as usize])
                .filter(|(_, t)| pred.matches(t))
                .map(|(i, _)| *i)
                .collect();
            assert_eq!(got, want, "{pred:?}: selected subset");
        }
    }

    #[test]
    fn shared_custom_closure_runs_once_per_tuple_per_batch() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = calls.clone();
        let pred = UnaryPredicate::Custom(Arc::new(move |t: &Tuple| {
            counter.fetch_add(1, Ordering::Relaxed);
            t.get(0) == &Value::Int(0)
        }));
        let stamped: Vec<(u64, Tuple)> = mixed_tuples()
            .into_iter()
            .zip(0..)
            .map(|(t, i)| (i, t))
            .collect();
        let mut shard = PredicateCache::default();
        let mut queries: Vec<_> = (0..2)
            .map(|_| {
                let eval = StreamingEvaluator::new(one_predicate(pred.clone()), 1_000);
                let slots = shard.intern_transitions(eval.pcea());
                (eval, slots)
            })
            .collect();
        assert_eq!(
            queries[0].1, queries[1].1,
            "one slot for the shared closure"
        );
        let sel: Vec<u32> = (0..70).collect();
        let hist = cer_obs::Histogram::new();
        for batch in [&stamped[..1], &stamped[1..11], &stamped[11..]] {
            let before = calls.load(Ordering::Relaxed);
            shard.begin_batch(batch.len());
            let mut outputs = 0;
            for (eval, slots) in &mut queries {
                let preds = ShardPredicates {
                    cache: &mut shard,
                    slots,
                    timers: (&hist, &hist),
                };
                eval.push_stamped(batch, &sel[..batch.len()], preds, true, |_, _| outputs += 1);
            }
            assert_eq!(calls.load(Ordering::Relaxed) - before, batch.len());
            let want = batch
                .iter()
                .filter(|(_, t)| t.get(0) == &Value::Int(0))
                .count();
            assert_eq!(outputs, 2 * want);
        }
    }

    /// `P0` with the unary predicate of its `R` transition replaced: the
    /// same skeleton, so it can take over a `P0` evaluator's state.
    fn p0_with_r_predicate(pred: UnaryPredicate) -> Pcea {
        let (_, r, s, t) = Schema::sigma0();
        let dot = LabelSet::singleton(Label(0));
        let mut b = PceaBuilder::new(1);
        let q = b.add_states(3);
        b.add_initial_transition(UnaryPredicate::Relation(t), dot, q[0]);
        b.add_initial_transition(UnaryPredicate::Relation(s), dot, q[1]);
        b.add_transition(
            vec![
                (q[0], EqPredicate::on_positions(t, [0usize], r, [0usize])),
                (
                    q[1],
                    EqPredicate::on_positions(s, [0usize, 1], r, [0usize, 1]),
                ),
            ],
            pred,
            dot,
            q[2],
        );
        b.mark_final(q[2]);
        b.build()
    }

    #[test]
    fn owned_slot_tables_follow_rebuilt_automata() {
        use cer_common::gen::Sigma0Gen;
        use cer_common::Stream;
        let (_, r, s, t) = Schema::sigma0();
        let w = 30;
        // Prefix values stay below 2, so `P0` and the swapped automaton
        // (R tuples only with x < 2) agree on it; the suffix differs.
        let mut narrow = Sigma0Gen::new(r, s, t, 5).with_domains(2, 2);
        let mut wide = Sigma0Gen::new(r, s, t, 6).with_domains(4, 4);
        let prefix: Vec<Tuple> = (0..60).map(|_| narrow.next_tuple().unwrap()).collect();
        let suffix: Vec<Tuple> = (0..200).map(|_| wide.next_tuple().unwrap()).collect();
        let old = paper_p0(r, s, t);
        let new = p0_with_r_predicate(UnaryPredicate::Relation(r).and(UnaryPredicate::Cmp {
            pos: 0,
            op: CmpOp::Lt,
            value: Value::Int(2),
        }));
        let run = |mut e: StreamingEvaluator| -> Vec<(u64, Valuation)> {
            let mut out = Vec::new();
            for (k, tu) in suffix.iter().enumerate() {
                if k % 2 == 0 {
                    let i = e.next_position();
                    out.extend(e.push_collect(tu).into_iter().map(|v| (i, v)));
                } else {
                    out.extend(e.push_slice_collect(std::slice::from_ref(tu)));
                }
            }
            out
        };
        let fed = |pcea: &Pcea| {
            let mut e = StreamingEvaluator::new(pcea.clone(), w);
            e.push_slice_count(&prefix);
            e
        };
        // The uninterrupted evaluator of the new automaton.
        let want = run(fed(&new));
        assert!(!want.is_empty());
        assert_ne!(run(fed(&old)), want, "the swap changes the suffix outputs");

        let swapped = fed(&old)
            .replace_automaton(new.clone(), WindowPolicy::Count(w), 0)
            .expect("same window kind");
        assert_eq!(run(swapped), want, "replace_automaton");
        for pcea in [&old, &new] {
            let bytes = fed(pcea).snapshot_bytes().unwrap();
            let restored = StreamingEvaluator::from_snapshot_bytes(new.clone(), &bytes).unwrap();
            assert_eq!(run(restored), want, "from_snapshot_bytes");
        }
        let bytes = fed(&old).snapshot_bytes().unwrap();
        let restored = StreamingEvaluator::from_snapshot_bytes(old, &bytes).unwrap();
        let swapped = restored
            .replace_automaton(new, WindowPolicy::Count(w), 0)
            .expect("same window kind");
        assert_eq!(run(swapped), want, "restore, then replace_automaton");
    }

    #[test]
    #[should_panic(expected = "positions must increase")]
    fn push_at_rejects_rewinds() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let mut engine = StreamingEvaluator::new(paper_p0(r, s, t), 5);
        engine.push_at(&stream[0], 3);
        engine.push_at(&stream[1], 3);
    }
}
