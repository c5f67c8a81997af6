//! The unary-predicate cache: the one place a transition's unary
//! predicate is evaluated.
//!
//! FireTransitions (Algorithm 1) tests `t ∈ U` for every transition
//! `(P, U, B, L, q)`. Most unary predicates are referenced by *many*
//! transitions — within one automaton and, on a shard hosting thousands
//! of standing queries, across queries — and are often the very same
//! structural predicate (relation tests above all). Testing
//! `tr.unary.matches(t)` once per referencing transition per tuple
//! would make the cost scale with the number of transitions even when
//! the distinct-predicate population is tiny.
//!
//! [`PredicateCache`] interns every transition's unary predicate under
//! its structural [`PredicateKey`] and, once per batch, evaluates each
//! *distinct* predicate at most once per tuple into a slot-major bitmask
//! pool. An evaluator maps its transitions to slots through a slot table
//! ([`intern_transitions`](PredicateCache::intern_transitions)) and
//! reads each transition's bit straight from the pool
//! ([`accepts`](PredicateCache::accepts)) — no re-evaluation, no copy.
//!
//! The cache has two owners but one code path. A shard worker keeps one
//! cache for every query it hosts and begins a batch per drained slice;
//! a standalone [`StreamingEvaluator`](crate::evaluator::StreamingEvaluator)
//! owns a one-query cache and begins a batch per push call, a
//! per-tuple push being a one-tuple batch. The cache reads the caller's
//! tuples in place through an index accessor.
//!
//! Evaluation of a slot is **lazy** (only slots some evaluator ensures
//! this batch are computed) and **relation-confined**: a predicate
//! confined to known relations ([`UnaryPredicate::relations`]) calls
//! `matches()` only on tuples of those relations, found by comparing
//! relation ids; exact relation tests and `True` fill their masks
//! without calling `matches()` at all. Either way the pool bit for
//! `(slot, tuple)` is exactly `pred.matches(tuple)`: unary predicates
//! are pure.

use cer_automata::pcea::Pcea;
use cer_automata::predicate::{PredicateKey, UnaryPredicate};
use cer_common::hash::FxHashMap;
use cer_common::{RelationId, Tuple};

/// One live interned predicate.
#[derive(Clone, Debug)]
struct Slot {
    pred: UnaryPredicate,
    /// Confining relations ([`UnaryPredicate::relations`]), computed at
    /// intern time.
    rels: Option<Vec<RelationId>>,
    /// How many registered transitions reference this slot.
    refs: u32,
    /// The batch number whose pool words this slot holds (`0`: none).
    computed_in: u64,
}

/// Predicate dedup cache over one batch at a time. See the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct PredicateCache {
    /// Structural key → slot index, for live slots.
    interned: FxHashMap<PredicateKey, u32>,
    /// Slot table; `None` marks a freed slot awaiting reuse.
    slots: Vec<Option<Slot>>,
    /// Freed slot indices.
    free: Vec<u32>,
    /// Slot-major bitmask pool: slot `s` owns words
    /// `s * stride .. (s + 1) * stride`; bit `j % 64` of word `j / 64`
    /// within that window is set iff the predicate accepts tuple `j` of
    /// the current batch.
    pool: Vec<u64>,
    /// Words per slot for the current batch.
    stride: usize,
    /// Tuples in the current batch.
    batch_len: usize,
    /// Number of the current batch, counted from 1.
    batch: u64,
    /// Cumulative `(slot, batch)` computations performed.
    distinct_computes: u64,
    /// Cumulative slot references [`ensure`](Self::ensure)d (one per
    /// referencing transition per batch).
    referenced: u64,
    /// Cumulative `matches()` calls actually performed.
    evals_done: u64,
    /// Cumulative `matches()` calls avoided versus one call per
    /// referencing transition per batch tuple.
    evals_saved: u64,
}

impl PredicateCache {
    /// Intern a predicate under its structural key, returning its slot.
    /// Reference-counted: structurally identical predicates share one
    /// slot no matter how many transitions/queries reference them.
    pub fn intern(&mut self, pred: &UnaryPredicate) -> u32 {
        let key = pred.canonical_key();
        if let Some(&s) = self.interned.get(&key) {
            self.slots[s as usize]
                .as_mut()
                .expect("interned key points at a live slot")
                .refs += 1;
            return s;
        }
        let slot = Slot {
            pred: pred.clone(),
            rels: pred.relations(),
            refs: 1,
            computed_in: 0,
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(slot);
                s
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        self.interned.insert(key, s);
        s
    }

    /// Intern the unary predicate of every transition of `pcea`,
    /// returning the automaton's slot table: transition index → slot.
    pub fn intern_transitions(&mut self, pcea: &Pcea) -> Vec<u32> {
        pcea.transitions()
            .iter()
            .map(|tr| self.intern(&tr.unary))
            .collect()
    }

    /// Drop one reference to a slot (query deregistered/replaced); the
    /// slot is freed for reuse when the last reference goes.
    pub fn release(&mut self, s: u32) {
        let entry = self.slots[s as usize]
            .as_mut()
            .expect("released slot is live");
        entry.refs -= 1;
        if entry.refs == 0 {
            let key = entry.pred.canonical_key();
            self.interned.remove(&key);
            self.slots[s as usize] = None;
            self.free.push(s);
        }
    }

    /// Start a batch of `len` tuples: every slot's pool words become
    /// stale. `O(1)` apart from growing the pool, so a one-tuple batch
    /// stays cheap.
    pub fn begin_batch(&mut self, len: usize) {
        self.batch_len = len;
        self.stride = len.div_ceil(64).max(1);
        self.batch += 1;
        // Stale words from a previous batch layout are harmless: a slot
        // is read only after `ensure` recomputed it for this batch.
        self.pool.resize(self.slots.len() * self.stride, 0);
    }

    /// Make every slot of `slots` (one automaton's slot table) valid for
    /// the current batch, computing each slot on its first reference.
    /// `tuple_at(j)` is tuple `j` of the batch announced by
    /// [`begin_batch`](Self::begin_batch), read in place.
    pub fn ensure<'t>(&mut self, slots: &[u32], tuple_at: impl Fn(usize) -> &'t Tuple) {
        let (len, stride, batch) = (self.batch_len, self.stride, self.batch);
        // `matches()` calls actually paid, against `len` per reference.
        let mut paid = 0u64;
        for &s in slots {
            let entry = self.slots[s as usize]
                .as_mut()
                .expect("ensured slot is live");
            if entry.computed_in == batch {
                continue;
            }
            entry.computed_in = batch;
            self.distinct_computes += 1;
            let words = &mut self.pool[s as usize * stride..(s as usize + 1) * stride];
            let pred = &entry.pred;
            if matches!(pred, UnaryPredicate::True) {
                // Every tuple, without touching one.
                for (w, word) in words.iter_mut().enumerate() {
                    let rest = len.saturating_sub(w * 64);
                    *word = if rest >= 64 { !0 } else { (1 << rest) - 1 };
                }
                continue;
            }
            words.fill(0);
            // Only tuples of the confining relations can match (every
            // tuple, for `Cmp` and `Custom`); for an exact relation test
            // that is the whole answer.
            let exact = matches!(pred, UnaryPredicate::Relation(_));
            for j in 0..len {
                let t = tuple_at(j);
                if let Some(rels) = &entry.rels {
                    if !rels.contains(&t.relation()) {
                        continue;
                    }
                }
                if !exact {
                    paid += 1;
                    if !pred.matches(t) {
                        continue;
                    }
                }
                words[j / 64] |= 1 << (j % 64);
            }
        }
        self.referenced += slots.len() as u64;
        self.evals_done += paid;
        self.evals_saved += slots.len() as u64 * len as u64 - paid;
    }

    /// Whether slot `s` accepts tuple `j` of the current batch. The slot
    /// must have been [`ensure`](Self::ensure)d for this batch.
    #[inline]
    pub fn accepts(&self, s: u32, j: usize) -> bool {
        debug_assert!(self.slots[s as usize]
            .as_ref()
            .is_some_and(|e| e.computed_in == self.batch));
        self.pool[s as usize * self.stride + j / 64] >> (j % 64) & 1 == 1
    }

    /// Live distinct predicates (slots currently interned).
    pub fn distinct_predicates(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Total references held by registered transitions.
    pub fn referenced_predicates(&self) -> usize {
        self.slots.iter().flatten().map(|e| e.refs as usize).sum()
    }

    /// Cumulative `matches()` calls performed.
    pub fn evals_done(&self) -> u64 {
        self.evals_done
    }

    /// Cumulative `matches()` calls avoided versus one call per
    /// referencing transition per batch tuple.
    pub fn evals_saved(&self) -> u64 {
        self.evals_saved
    }

    /// Cumulative `(slot, batch)` computations.
    #[cfg(test)]
    pub fn distinct_computes(&self) -> u64 {
        self.distinct_computes
    }

    /// Cumulative `ensure` calls.
    #[cfg(test)]
    pub fn references(&self) -> u64 {
        self.referenced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::predicate::CmpOp;
    use cer_common::tuple::tup;
    use cer_common::{Schema, Value};

    /// The tuples of the current batch slot `s` accepts.
    fn ones(cache: &PredicateCache, s: u32) -> Vec<u32> {
        (0..cache.batch_len)
            .filter(|&j| cache.accepts(s, j))
            .map(|j| j as u32)
            .collect()
    }

    /// Ensure slot `s` over `batch` and return what it accepts.
    fn ensured(cache: &mut PredicateCache, s: u32, batch: &[(u64, Tuple)]) -> Vec<u32> {
        cache.ensure(&[s], |j| &batch[j].1);
        ones(cache, s)
    }

    #[test]
    fn hit_counters_match_hand_counted_dedup() {
        let (_, r, s, t) = Schema::sigma0();
        // Base batch: 3×T, 3×S, 2×R = 8 tuples, also repeated 9 times
        // to span two pool words.
        let base: Vec<Tuple> = vec![
            tup(t, [1i64]),
            tup(s, [1i64, 10]),
            tup(t, [2i64]),
            tup(s, [2i64, 20]),
            tup(r, [1i64, 10]),
            tup(t, [3i64]),
            tup(s, [3i64, 5]),
            tup(r, [2i64, 20]),
        ];
        for reps in [1u64, 9] {
            let batch: Vec<(u64, Tuple)> = (0..reps)
                .flat_map(|_| base.iter().cloned())
                .zip(0..)
                .map(|(t, i)| (i, t))
                .collect();
            let n = batch.len() as u64;
            let at = |offsets: &[u32]| -> Vec<u32> {
                let mut v: Vec<u32> = (0..reps as u32)
                    .flat_map(|k| offsets.iter().map(move |o| 8 * k + o))
                    .collect();
                v.sort_unstable();
                v
            };
            let mut cache = PredicateCache::default();
            let rel_t = cache.intern(&UnaryPredicate::Relation(t));
            let rel_t2 = cache.intern(&UnaryPredicate::Relation(t));
            assert_eq!(rel_t, rel_t2, "structural duplicates share a slot");
            let s_ge = cache.intern(&UnaryPredicate::Relation(s).and(UnaryPredicate::Cmp {
                pos: 1,
                op: CmpOp::Ge,
                value: Value::Int(10),
            }));
            let any = cache.intern(&UnaryPredicate::Cmp {
                pos: 0,
                op: CmpOp::Ge,
                value: Value::Int(2),
            });
            assert_eq!(cache.distinct_predicates(), 3);
            assert_eq!(cache.referenced_predicates(), 4);

            cache.begin_batch(batch.len());
            // Exact relation test: decided by the relation alone, zero
            // matches() calls, all saved vs one call per tuple.
            assert_eq!(ensured(&mut cache, rel_t, &batch), at(&[0, 2, 5]));
            assert_eq!((cache.evals_done(), cache.evals_saved()), (0, n));
            // Second reference to the same slot: pure cache hit.
            assert_eq!(ensured(&mut cache, rel_t, &batch), at(&[0, 2, 5]));
            assert_eq!((cache.evals_done(), cache.evals_saved()), (0, 2 * n));
            // Confined conjunction: only the S tuples are candidates.
            assert_eq!(ensured(&mut cache, s_ge, &batch), at(&[1, 3]));
            let done = 3 * reps;
            assert_eq!(
                (cache.evals_done(), cache.evals_saved()),
                (done, 3 * n - done)
            );
            // Unconfined Cmp: every tuple inspected, nothing saved.
            assert_eq!(ensured(&mut cache, any, &batch), at(&[2, 3, 5, 6, 7]));
            assert_eq!(
                (cache.evals_done(), cache.evals_saved()),
                (done + n, 3 * n - done)
            );
            assert_eq!(cache.distinct_computes(), 3);
            assert_eq!(cache.references(), 4);

            // Next batch invalidates: the same slot recomputes once.
            cache.begin_batch(2);
            assert_eq!(ensured(&mut cache, rel_t, &batch), vec![0]);
            assert_eq!(ensured(&mut cache, rel_t, &batch), vec![0]);
            assert_eq!(cache.distinct_computes(), 4);
        }
    }

    #[test]
    fn release_frees_and_reuses_slots() {
        let (_, r, s, _) = Schema::sigma0();
        let mut cache = PredicateCache::default();
        let a = cache.intern(&UnaryPredicate::Relation(r));
        let b = cache.intern(&UnaryPredicate::Relation(r));
        assert_eq!(a, b);
        let c = cache.intern(&UnaryPredicate::Relation(s));
        assert_ne!(a, c);
        assert_eq!(cache.distinct_predicates(), 2);
        cache.release(a);
        assert_eq!(cache.distinct_predicates(), 2, "one reference remains");
        cache.release(b);
        assert_eq!(cache.distinct_predicates(), 1);
        // The freed slot is reused; a fresh intern of the same structure
        // is a new, independent entry.
        let d = cache.intern(&UnaryPredicate::Relation(r));
        assert_eq!(d, a, "freed slot reused");
        assert_eq!(cache.distinct_predicates(), 2);
    }

    #[test]
    fn true_predicate_fills_without_tuple_access() {
        let (_, _, _, t) = Schema::sigma0();
        let batch: Vec<(u64, Tuple)> = (0..70).map(|i| (i, tup(t, [i as i64]))).collect();
        let mut cache = PredicateCache::default();
        let slot = cache.intern(&UnaryPredicate::True);
        cache.begin_batch(batch.len());
        cache.ensure(&[slot], |j| &batch[j].1);
        assert_eq!(cache.stride, 2, "70 tuples span two words");
        assert_eq!(ones(&cache, slot).len(), 70, "every tuple accepted");
        assert_eq!(
            cache.pool[slot as usize * 2 + 1] >> (70 - 64),
            0,
            "tail bits cleared"
        );
        assert_eq!(cache.evals_done(), 0);
        assert_eq!(cache.evals_saved(), 70);
    }
}
