//! Short mode: every workload on a tiny stream, in both modes, must be
//! correct and print exactly the metric names `BENCHMARK.json` lists;
//! and the oracle must reject a tampered output set.

use pcea::automata::valuation::Valuation;
use perfbench::oracle::{self, Fingerprint};
use perfbench::{gen, run_e2e, run_traced, Ctx};

/// Stream length divisor for the tiny streams.
const SHRINK: usize = 50;

/// The `name`s listed in `BENCHMARK.json` between `section` and the next
/// top-level key.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |i| i + 1);
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn names(report: &perfbench::Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_prints_every_metric() {
    let mut end_to_end = listed("end_to_end");
    let mut per_layer = listed("per_layer");
    end_to_end.sort();
    per_layer.sort();
    for w in listed("workloads") {
        assert!(gen::WORKLOADS.contains(&w.as_str()), "{w} is defined");
    }
    for w in gen::WORKLOADS {
        let ctx = Ctx::new(gen::spec(w, SHRINK).expect("known workload"), 7).expect("ctx");
        assert!(ctx.expected_total() > 0, "{w}: the tiny stream has matches");

        let e2e = run_e2e(&ctx, 0.0).expect("e2e run");
        assert!(
            e2e.correct(),
            "{w}: e2e failed {} of {}",
            e2e.failed,
            e2e.attempted
        );
        let mut got = names(&e2e);
        got.sort();
        assert_eq!(got, end_to_end, "{w}: end-to-end names");
        assert!(e2e.json().starts_with("{\"correct\": true"));

        let traced = run_traced(&ctx, 0.0, None).expect("traced run");
        assert!(
            traced.correct(),
            "{w}: traced failed {} of {}",
            traced.failed,
            traced.attempted
        );
        let mut got = names(&traced);
        got.sort();
        assert_eq!(got, per_layer, "{w}: per-layer names");
    }
}

#[test]
fn oracle_rejects_a_missing_match_replaced_by_a_duplicate() {
    let spec = gen::spec("dense_output", SHRINK).expect("known workload");
    let ctx = Ctx::new(spec, 3).expect("ctx");
    let mut outputs = Vec::new();
    oracle::evaluate(
        &ctx.compiled[0].pcea,
        ctx.spec.window,
        &ctx.stream,
        0,
        ctx.stream.len(),
        |p, v| outputs.push((p, v.clone())),
    );
    assert!(outputs.len() >= 2);
    let fingerprint = |set: &[(u64, Valuation)]| {
        let mut fp = Fingerprint::default();
        for (p, v) in set {
            fp.add(*p, v);
        }
        vec![fp]
    };
    let expected = vec![ctx.expected[0]];
    assert_eq!(oracle::mismatches(&expected, &fingerprint(&outputs)), 0);

    let mut tampered = outputs.clone();
    tampered.remove(0);
    tampered.push(tampered[0].clone());
    assert_eq!(tampered.len(), outputs.len());
    assert!(oracle::mismatches(&expected, &fingerprint(&tampered)) > 0);
}

#[test]
fn reference_agrees_with_the_baselines() {
    for w in gen::WORKLOADS {
        let ctx = Ctx::new(gen::spec(w, SHRINK).expect("known workload"), 11).expect("ctx");
        assert_eq!(ctx.cross_check_failures, 0, "{w}");
    }
}
