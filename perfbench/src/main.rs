//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and the metrics (end-to-end
//! with `--trace 0`, per-layer with `--trace 1`). Exits non-zero when
//! any output was wrong or an operation failed.

use perfbench::{gen, run_e2e, run_traced, scratch_dir, Ctx};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = gen::spec(&args.workload, 1) else {
        eprintln!(
            "perfbench: unknown workload {} (have {:?})",
            args.workload,
            gen::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let ctx = match Ctx::new(spec, args.seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        let path = scratch_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        run_traced(&ctx, args.seconds, Some(&path))
    } else {
        run_e2e(&ctx, args.seconds)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "# {} seed {}: {} tuples, {} queries, {} reference matches",
        args.workload,
        args.seed,
        ctx.stream.len(),
        ctx.queries.len(),
        ctx.expected_total()
    );
    for m in &report.metrics {
        println!(
            "# {:<28} {:>16.4} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
