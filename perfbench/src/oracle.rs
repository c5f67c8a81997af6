//! The output oracle: delivered matches per query against a
//! single-threaded `StreamingEvaluator` over that query's live interval.
//!
//! Each query's outputs are compared as a multiset fingerprint — count
//! plus two wrapping sums of independent hashes of `(position,
//! valuation)` — so millions of matches are checked without storing
//! them, and a missing match that a duplicate replaces still changes the
//! sums.

use pcea::automata::pcea::Pcea;
use pcea::automata::valuation::Valuation;
use pcea::baselines::{NaiveRunsEvaluator, RecomputeEvaluator};
use pcea::common::hash::FxHasher;
use pcea::common::Tuple;
use pcea::cq::query::ConjunctiveQuery;
use pcea::engine::evaluator::StreamingEvaluator;
use pcea::engine::window::WindowPolicy;
use std::hash::{Hash, Hasher};

/// Multiset fingerprint of one query's matches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub count: u64,
    sum: u64,
    sum_mixed: u64,
}

impl Fingerprint {
    pub fn add(&mut self, position: u64, valuation: &Valuation) {
        let mut h = FxHasher::default();
        position.hash(&mut h);
        valuation.hash(&mut h);
        let h = h.finish();
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.sum_mixed = self.sum_mixed.wrapping_add(mix(h));
    }
}

/// The SplitMix64 finalizer: a second hash independent of the first.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Wrong matches between what was delivered and what was expected, per
/// query slot: the count difference, or 1 when the counts agree but the
/// matches differ. Slots missing on either side count as empty.
pub fn mismatches(expected: &[Fingerprint], delivered: &[Fingerprint]) -> u64 {
    let n = expected.len().max(delivered.len());
    (0..n)
        .map(|i| {
            let e = expected.get(i).copied().unwrap_or_default();
            let d = delivered.get(i).copied().unwrap_or_default();
            if e == d {
                0
            } else {
                e.count.abs_diff(d.count).max(1)
            }
        })
        .sum()
}

/// Feed `stream[from..to]` at its global positions (the way the runtime
/// feeds a query registered at `from`), calling `f` for every output.
pub fn evaluate<F: FnMut(u64, &Valuation)>(
    pcea: &Pcea,
    window: u64,
    stream: &[Tuple],
    from: usize,
    to: usize,
    mut f: F,
) {
    let mut ev = StreamingEvaluator::with_window(pcea.clone(), WindowPolicy::Count(window));
    if from < to {
        ev.push_at(&stream[from], from as u64);
        ev.for_each_output(|v| f(from as u64, v));
        ev.push_slice_for_each(&stream[from + 1..to], &mut f);
    }
}

/// The reference fingerprint of one query over `stream[from..to]`.
pub fn reference(
    pcea: &Pcea,
    window: u64,
    stream: &[Tuple],
    from: usize,
    to: usize,
) -> Fingerprint {
    let mut fp = Fingerprint::default();
    evaluate(pcea, window, stream, from, to, |p, v| fp.add(p, v));
    fp
}

/// Cross-check the reference evaluator itself on a prefix against the
/// independent baselines: the naive run-set evaluator for every query,
/// and full recomputation for queries from the HCQ front-end. Returns
/// the number of positions where some output set differs.
pub fn cross_check(
    pcea: &Pcea,
    cq: Option<&ConjunctiveQuery>,
    window: u64,
    prefix: &[Tuple],
) -> u64 {
    let mut ev = StreamingEvaluator::with_window(pcea.clone(), WindowPolicy::Count(window));
    let mut naive = NaiveRunsEvaluator::new(pcea.clone(), window);
    let mut recompute = cq.map(|q| RecomputeEvaluator::new(q.clone(), window));
    let mut bad = 0;
    for t in prefix {
        let mut want = ev.push_collect(t);
        want.sort();
        let mut got = naive.push_collect(t);
        got.sort();
        let mut ok = got == want;
        if let Some(r) = recompute.as_mut() {
            let mut got = r.push_collect(t);
            got.sort();
            ok &= got == want;
        }
        bad += u64::from(!ok);
    }
    bad
}
