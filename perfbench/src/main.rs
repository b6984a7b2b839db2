//! The SRL engine benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-warm|serve-cold|batch-experiments> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` makes the same untraced measurement,
//! then replays the same requests with a span around every call into a
//! layer and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (each metric a `value` and a `unit`). Lines starting with `#`
//! before it are a human-readable account of the run. Any wrong answer
//! makes the exit code 1.

mod batch;
mod inputs;
mod replay;
mod report;
mod serve;

use std::process::ExitCode;
use std::time::Instant;

use srl_core::eval::Evaluator;
use srl_core::{Env, EvalError, ExecBackend, LoweredExpr, Value};

use crate::replay::{Layer, Trace};
use crate::report::Metrics;

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Spans of the request path (serve: the timed requests; batch: the
    /// set-up requests).
    pub frontend: &'a Trace,
    /// Spans and counts of the evaluations.
    pub eval: &'a Trace,
    /// Cache (hits, misses, evictions).
    pub cache: (u64, u64, u64),
    pub speedup: f64,
    pub unattributed_us: f64,
    pub lag_p99_us: f64,
    pub overhead_frac: f64,
}

pub fn per_layer(m: &mut Metrics, l: LayerInputs) {
    for layer in Layer::ALL {
        let source = if layer == Layer::Eval {
            l.eval
        } else {
            l.frontend
        };
        m.push(layer.metric(), source.mean_us(layer), "us");
    }
    let (hits, misses, evictions) = l.cache;
    m.push(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.push("cache.evictions", evictions as f64, "count");
    let c = &l.eval.counts;
    let per_eval = |n: u64| n as f64 / c.evaluations.max(1) as f64;
    m.push("eval.steps", per_eval(c.steps), "count");
    m.push(
        "eval.reduce_iterations",
        per_eval(c.reduce_iterations),
        "count",
    );
    m.push(
        "eval.max_accumulator_weight",
        c.max_accumulator_weight as f64,
        "count",
    );
    m.push("parallel.sharded_folds", per_eval(c.sharded_folds), "count");
    m.push("parallel.speedup", l.speedup, "x");
    m.push("setrepr.tier_atoms", per_eval(c.tiers.atoms), "count");
    m.push("setrepr.tier_bits", per_eval(c.tiers.bits), "count");
    m.push("setrepr.tier_rows", per_eval(c.tiers.rows), "count");
    m.push("serve.unattributed_us", l.unattributed_us, "us");
    m.push("loadgen.lag_p99_us", l.lag_p99_us, "us");
    m.push("trace.overhead_frac", l.overhead_frac, "frac");
}

/// One repeatable evaluation on a compiled program.
#[derive(Clone)]
pub enum Work {
    /// Call a definition on argument values.
    Call {
        call: &'static str,
        args: Vec<Value>,
    },
    /// Evaluate an expression lowered once against `env`.
    Expr { lowered: LoweredExpr, env: Env },
}

impl Work {
    pub fn run(&self, evaluator: &mut Evaluator) -> Result<Value, EvalError> {
        evaluator.reset_stats();
        match self {
            Work::Call { call, args } => evaluator.call(call, args),
            Work::Expr { lowered, env } => evaluator.eval_lowered(lowered, env),
        }
    }
}

/// Sequential-VM time over `nproc`-thread VM time for the same queries;
/// per query the median of a few evaluations at each width.
pub fn speedup(probes: &mut [(Evaluator, Work)], nproc: usize) -> f64 {
    let mut total = [0.0f64; 2];
    for (evaluator, work) in probes {
        for (slot, threads) in [1, nproc].into_iter().enumerate() {
            evaluator.set_backend(ExecBackend::vm_with_threads(threads));
            let times = (0..5)
                .map(|_| {
                    let start = Instant::now();
                    let _ = std::hint::black_box(work.run(evaluator));
                    start.elapsed().as_secs_f64()
                })
                .collect();
            total[slot] += report::median(times);
        }
    }
    total[0] / total[1]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? == 1,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| match a.workload.as_str() {
        "serve-warm" => serve::run(false, a.seed, a.seconds, a.trace),
        "serve-cold" => serve::run(true, a.seed, a.seconds, a.trace),
        "batch-experiments" => batch::run(a.seed, a.seconds, a.trace),
        other => Err(format!(
            "unknown workload `{other}` (serve-warm | serve-cold | batch-experiments)"
        )),
    });
    match outcome {
        Ok((metrics, attempted, failed)) => {
            metrics.print_table();
            println!(
                "# failed_frac = {}",
                failed as f64 / attempted.max(1) as f64
            );
            println!("{}", metrics.result_line(attempted, failed));
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
