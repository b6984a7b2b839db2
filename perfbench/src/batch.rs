//! The `batch-experiments` workload: a closed loop in one process with no
//! server. Set-up submits the experiments once as request lines through the
//! request path, the way `srl-bench`'s harness prepares them: inputs bound
//! by name, programs compiled through the cache and called once, the E5 and
//! E9 queries lowered once against the bound inputs, and each program's fold
//! analysis checked against its committed golden. That is the compile-once.
//! The timed loop then evaluates the compiled queries directly on the VM
//! with `threads = nproc`, one query of each kind per round in a seeded
//! order.

use std::time::{Duration, Instant};

use srl_core::eval::Evaluator;
use srl_core::pipeline::{Compiled, PipelineConfig};
use srl_core::{Env, EvalLimits, Value};

use crate::inputs::{self, Expect, Family, Rng};
use crate::replay::{comparable, Layer, Replayer, Trace};
use crate::report::{self, Metrics};
use crate::{per_layer, LayerInputs, Work};

const TENANT: &str = "batch";

/// A query compiled for the timed loop.
struct Ready {
    family: Family,
    label: &'static str,
    expect: Expect,
    /// The artifact the evaluator runs (for fresh evaluators).
    artifact: Compiled,
    evaluator: Evaluator,
    work: Work,
}

fn result_of(body: &str) -> Option<Value> {
    let fields = comparable(body)?;
    let (_, result) = fields.into_iter().find(|(k, _)| k == "result")?;
    srl_syntax::parse_value(result.as_str()?).ok()
}

/// Runs one set-up request and checks it did not fail.
fn submit(replayer: &mut Replayer, line: String) -> Result<String, String> {
    let body = replayer.handle(&line);
    match comparable(&body) {
        Some(fields) if fields.iter().all(|(k, _)| k != "error") => Ok(body),
        _ => Err(format!("set-up request failed: {body:.300}")),
    }
}

/// Submits every experiment once through the request path, checking each
/// answer; returns the compiled queries and the replayer that made them.
fn set_up(seed: u64, nproc: usize, traced: bool) -> Result<(Vec<Ready>, Replayer), String> {
    let mut rng = Rng::new(seed);
    let calls = [
        inputs::apath(8, &mut rng),
        inputs::powerset(10, &mut rng),
        inputs::add(80, &mut rng),
        inputs::tm(32, &mut rng),
    ];
    let (mut bindings, closures) = inputs::closure_exprs(6, &mut rng);
    let (join_bindings, join) = inputs::company_join(50, seed);
    bindings.extend(join_bindings);

    let config = PipelineConfig::new()
        .with_limits(EvalLimits::benchmark())
        .threads(nproc);
    let mut replayer = Replayer::new(config, 16);
    if traced {
        replayer.trace = Some(Trace::default());
    }
    let mut ready = Vec::new();
    for (name, value) in &bindings {
        submit(
            &mut replayer,
            inputs::bind_line(TENANT, name, &value.to_string()),
        )?;
    }
    for q in calls {
        let body = submit(
            &mut replayer,
            inputs::run_line(TENANT, &q.program, q.call, &q.args),
        )?;
        if !result_of(&body).is_some_and(|v| q.expect.holds(&v)) {
            return Err(format!("{}: wrong set-up answer: {body:.300}", q.label));
        }
        let fingerprint = replayer.last_fingerprint.expect("run resolved a program");
        let artifact = replayer
            .tenant(TENANT)
            .cache
            .entry_mut(fingerprint)
            .artifact
            .clone();
        ready.push(Ready {
            family: q.family,
            label: q.label,
            expect: q.expect,
            evaluator: artifact.evaluator(),
            artifact,
            work: Work::Call {
                call: q.call,
                args: q.args,
            },
        });
    }
    let env = bindings.iter().fold(Env::new(), |env, (name, value)| {
        env.bind(*name, value.clone())
    });
    let empty = replayer.tenant(TENANT).empty_artifact().clone();
    for q in closures.into_iter().chain([join]) {
        let body = submit(&mut replayer, inputs::expr_line(TENANT, &q.expr))?;
        if !result_of(&body).is_some_and(|v| q.expect.holds(&v)) {
            return Err(format!("{}: wrong set-up answer: {body:.300}", q.label));
        }
        let expr = srl_syntax::parse_expr(&q.expr).map_err(|e| e.to_string())?;
        let evaluator = empty.evaluator();
        let lowered = evaluator.lower(&expr, &env);
        ready.push(Ready {
            family: q.family,
            label: q.label,
            expect: q.expect,
            evaluator,
            artifact: empty.clone(),
            work: Work::Expr {
                lowered,
                env: env.clone(),
            },
        });
    }
    for (program, golden) in [
        (inputs::APATH_SRL, inputs::APATH_ANALYSIS),
        (inputs::POWERSET_SRL, inputs::POWERSET_ANALYSIS),
        (inputs::ARITH_SRL, inputs::ARITH_ANALYSIS),
    ] {
        let body = submit(
            &mut replayer,
            inputs::program_line("analyze", TENANT, program),
        )?;
        if !comparable(&body).is_some_and(|f| inputs::analysis_matches(&f, golden)) {
            return Err(format!("analysis differs from its golden: {body:.300}"));
        }
    }
    Ok((ready, replayer))
}

/// Per-query times of a run of rounds.
struct Loop {
    /// `times[k]`: every time of query kind `k`, in round order.
    times: Vec<Vec<Duration>>,
    /// Gaps between one query's end and the next one's start.
    gaps: Vec<Duration>,
    rounds: usize,
    wall: Duration,
    failed: u64,
}

/// Runs rounds until `budget` has passed (or exactly `rounds` rounds),
/// checking the first answer of each kind against its expectation and
/// every later one against the first.
fn run_loop(
    ready: &mut [Ready],
    seed: u64,
    budget: Duration,
    rounds: Option<usize>,
    mut trace: Option<&mut Trace>,
) -> Loop {
    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut order: Vec<usize> = (0..ready.len()).collect();
    let mut first: Vec<Option<Value>> = vec![None; ready.len()];
    let mut out = Loop {
        times: vec![Vec::new(); ready.len()],
        gaps: Vec::new(),
        rounds: 0,
        wall: Duration::ZERO,
        failed: 0,
    };
    let start = Instant::now();
    let mut last_end: Option<Instant> = None;
    while rounds.map_or(start.elapsed() < budget, |r| out.rounds < r) {
        rng.shuffle(&mut order);
        for &k in &order {
            let r = &mut ready[k];
            let began = Instant::now();
            let value = std::hint::black_box(r.work.run(&mut r.evaluator));
            let took = began.elapsed();
            if let Some(end) = last_end {
                out.gaps.push(began - end);
            }
            out.times[k].push(took);
            if let Some(trace) = trace.as_deref_mut() {
                trace.add(Layer::Eval, took);
                trace.end_request();
                trace.counts.record(r.evaluator.stats(), &r.evaluator);
            }
            let ok = match (value, &first[k]) {
                (Ok(v), Some(expected)) => &v == expected,
                (Ok(v), None) => {
                    let ok = r.expect.holds(&v);
                    first[k] = Some(v);
                    ok
                }
                (Err(_), _) => false,
            };
            if !ok {
                out.failed += 1;
            }
            last_end = Some(Instant::now());
        }
        out.rounds += 1;
    }
    out.wall = start.elapsed();
    out
}

fn all_us(times: &[Vec<Duration>]) -> Vec<f64> {
    report::sorted(times.iter().flatten().map(|d| report::us(*d)).collect())
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<(Metrics, u64, u64), String> {
    let nproc = report::nproc();
    println!(
        "# batch-experiments: nproc {nproc}, VM threads {nproc}, closed loop for {seconds} s, seed {seed}"
    );
    let budget = Duration::from_secs(seconds);
    let mut m = Metrics::default();
    if !traced {
        let (setup_s, (mut ready, _)) = report::repeat_setup(|| set_up(seed, nproc, false), drop)?;
        let lp = run_loop(&mut ready, seed, budget, None, None);
        let all = all_us(&lp.times);
        let busy: Duration = lp.times.iter().flatten().sum();
        println!("# {} rounds of {} queries", lp.rounds, ready.len());
        for (r, times) in ready.iter().zip(&lp.times) {
            let median = report::median(times.iter().map(|d| report::ms(*d)).collect());
            println!("# {:<12} median {median:.3} ms", r.label);
        }
        m.push("setup_s", setup_s, "s");
        m.percentile("latency_p50_us", &all, 50.0)?;
        report::print_percentile("latency p99", &all, 99.0);
        m.push(
            "throughput_qps",
            all.len() as f64 / busy.as_secs_f64(),
            "1/s",
        );
        for family in Family::ALL {
            // One time per round: the family's queries of that round summed.
            let per_round: Vec<f64> = (0..lp.rounds)
                .map(|round| {
                    ready
                        .iter()
                        .zip(&lp.times)
                        .filter(|(r, _)| r.family == family)
                        .map(|(_, t)| report::ms(t[round]))
                        .sum()
                })
                .collect();
            m.push(family.metric(), report::trimmed_mean(per_round), "ms");
        }
        m.push("peak_rss_mb", report::peak_rss_mb(), "MB");
        let attempted = (lp.rounds * ready.len()) as u64;
        return Ok((m, attempted, lp.failed));
    }

    // Traced run: set-up with spans on the request path, an untraced loop,
    // then its first third again with a span around every evaluation.
    let (mut ready, replayer) = set_up(seed, nproc, true)?;
    let setup_trace = replayer.trace.as_ref().expect("traced set-up");
    let plain = run_loop(&mut ready, seed, budget, None, None);
    let mut eval_trace = Trace::default();
    let rounds = (plain.rounds / 3).max(1);
    let traced = run_loop(
        &mut ready,
        seed,
        budget,
        Some(rounds),
        Some(&mut eval_trace),
    );
    let plain_wall = plain.wall.as_secs_f64() * rounds as f64 / plain.rounds as f64;
    let replayed = report::sorted(
        eval_trace
            .request_totals
            .iter()
            .map(|d| report::us(*d))
            .collect(),
    );
    let gaps = report::sorted(plain.gaps.iter().map(|d| report::us(*d)).collect());
    let mut probes: Vec<(Evaluator, Work)> = ready
        .iter()
        .map(|r| (r.artifact.evaluator(), r.work.clone()))
        .collect();
    per_layer(
        &mut m,
        LayerInputs {
            frontend: setup_trace,
            eval: &eval_trace,
            cache: replayer.cache_counters(),
            speedup: crate::speedup(&mut probes, nproc),
            unattributed_us: report::percentile(&all_us(&plain.times), 50.0).0
                - report::percentile(&replayed, 50.0).0,
            lag_p99_us: report::percentile(&gaps, 99.0).0,
            overhead_frac: traced.wall.as_secs_f64() / plain_wall - 1.0,
        },
    );
    let attempted = ((plain.rounds + traced.rounds) * ready.len()) as u64;
    Ok((m, attempted, plain.failed + traced.failed))
}
