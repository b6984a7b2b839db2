//! Fault-injection tests: drive the hardened recovery paths deterministically
//! through `srl_core::faultpoint` and prove the promises the module docs
//! make — a panicking shard worker becomes a structured `EvalError::Internal`
//! without killing the process or the pool, a deadline firing mid-fold
//! reports exact partial statistics, and an evaluator that failed answers
//! its next query byte-identically to a fresh one.
//!
//! The fault registry is process-global, so every test here serializes on
//! one mutex and disarms on entry and exit (a paired guard would also work,
//! but an explicit `disarm_all` at both ends keeps a panicking assertion
//! from poisoning the next test's registry view).

use std::sync::{Arc, Mutex, MutexGuard};

use srl_core::dsl::*;
use srl_core::{
    faultpoint, Env, EvalError, EvalLimits, EvalStats, Evaluator, ExecBackend, Program, Value,
};
use srl_integration_tests::{atom_set, root_fold, shard_cardinality};
use srl_stdlib::derived::map_set;

/// Pool width for the sharded runs (matches `par_differential.rs`).
const THREADS: usize = 4;

/// Serializes the tests in this binary around the process-global registry.
fn serialized() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::disarm_all();
    guard
}

/// A projection fold over `n` pairs: proper-hom, `insert-app` class (the
/// same workload `par_differential.rs` uses to prove engagement).
fn projection(n: u64) -> (Program, srl_core::Expr, Env) {
    let program = Program::srl();
    let pairs = Value::set((0..n).map(|i| Value::tuple([Value::atom(i), Value::atom(i + n)])));
    let env = Env::new().bind("S", pairs);
    let expr = map_set(var("S"), lam("x", "t", sel(var("x"), 2)), empty_set());
    (program, expr, env)
}

/// The projection at the fewest pairs whose fold work reaches
/// `PAR_WORK_THRESHOLD`, so the pool shards it.
fn sharded_projection() -> (Program, srl_core::Expr, Env) {
    let (program, expr, _) = projection(0);
    projection(shard_cardinality(
        root_fold(&program, &expr, &["S"]).unit_cost,
    ))
}

/// A fresh evaluator over a shared compiled form.
fn evaluator(program: &Program, limits: EvalLimits, backend: ExecBackend) -> Evaluator {
    let compiled = Arc::new(program.compile());
    Evaluator::with_compiled(program, compiled, limits)
        .expect("compiled from this program")
        .with_backend(backend)
}

/// Runs `expr` on a fresh evaluator and returns the outcome with stats.
fn fresh_run(
    program: &Program,
    expr: &srl_core::Expr,
    env: &Env,
    limits: EvalLimits,
    backend: ExecBackend,
) -> Result<(Value, EvalStats), EvalError> {
    let mut ev = evaluator(program, limits, backend);
    let value = ev.eval(expr, env)?;
    Ok((value, *ev.stats()))
}

#[test]
fn worker_panic_becomes_internal_and_the_pool_stays_usable() {
    let _g = serialized();
    let (program, expr, env) = sharded_projection();
    let mut ev = evaluator(
        &program,
        EvalLimits::benchmark(),
        ExecBackend::vm_with_threads(THREADS),
    );

    // Shard 1 of the sharded fold panics on entry. The panic output is
    // expected noise; silence the hook for the faulted run only.
    faultpoint::arm(faultpoint::WORKER_PANIC, 1);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = ev.eval(&expr, &env).expect_err("shard 1 panics");
    std::panic::set_hook(hook);
    faultpoint::disarm_all();

    // The panic surfaces as a structured internal error naming the shard…
    match &err {
        EvalError::Internal { detail } => {
            assert!(detail.contains("shard 1"), "{detail}");
            assert!(detail.contains("worker_panic@shard_1"), "{detail}");
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(err.kind(), "internal");

    // …the failed run rolled its stats back…
    assert_eq!(*ev.stats(), EvalStats::default());

    // …and the same evaluator (and its worker pool) answers the next query
    // byte-identically to a fresh one.
    let retry = ev
        .eval(&expr, &env)
        .expect("pool is reusable after a panic");
    let (fresh_value, fresh_stats) = fresh_run(
        &program,
        &expr,
        &env,
        EvalLimits::benchmark(),
        ExecBackend::vm_with_threads(THREADS),
    )
    .expect("healthy workload");
    assert_eq!(retry, fresh_value);
    assert_eq!(*ev.stats(), fresh_stats, "stats drifted after recovery");
}

#[test]
fn worker_panic_cancels_the_sibling_shards() {
    let _g = serialized();
    // Sibling cancellation is best-effort, but the *verdict* must always be
    // the Internal error, never the Cancelled the panicking shard induced
    // in its siblings (the merge ranks Internal first).
    let (program, expr, env) = sharded_projection();
    for shard in 0..2u64 {
        faultpoint::arm(faultpoint::WORKER_PANIC, shard);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = evaluator(
            &program,
            EvalLimits::benchmark(),
            ExecBackend::vm_with_threads(THREADS),
        )
        .eval(&expr, &env)
        .expect_err("a shard panics");
        std::panic::set_hook(hook);
        faultpoint::disarm_all();
        assert!(
            matches!(err, EvalError::Internal { .. }),
            "shard {shard}: got {err:?}"
        );
    }
}

#[test]
fn deadline_mid_fold_reports_exact_partial_stats() {
    let _g = serialized();
    let (program, expr, env) = projection(1200);
    let limits = EvalLimits::benchmark().with_deadline_ms(3_600_000);
    let mut ev = evaluator(&program, limits, ExecBackend::vm());

    // The fault makes the 100th fold iteration behave as if the armed
    // wall-clock deadline expired — deterministic, unlike the clock.
    faultpoint::arm(faultpoint::DEADLINE_MID_FOLD, 100);
    let err = ev.eval(&expr, &env).expect_err("deadline fires mid-fold");
    faultpoint::disarm_all();

    assert_eq!(
        err,
        EvalError::DeadlineExceeded {
            limit_ms: 3_600_000
        }
    );
    assert_eq!(err.kind(), "deadline_exceeded");
    // Cumulative stats rolled back; the partial snapshot shows the fold
    // stopped at exactly the faulted iteration.
    assert_eq!(*ev.stats(), EvalStats::default());
    let partial = *ev.last_error_stats().expect("failed run leaves a snapshot");
    assert_eq!(partial.reduce_iterations, 100);
    assert!(partial.steps > 0);

    // The evaluator stays reusable and byte-identical to fresh.
    let retry = ev.eval(&expr, &env).expect("deadline was simulated only");
    let (fresh_value, fresh_stats) =
        fresh_run(&program, &expr, &env, limits, ExecBackend::vm()).expect("healthy workload");
    assert_eq!(retry, fresh_value);
    assert_eq!(*ev.stats(), fresh_stats);
    // The snapshot is diagnostics, documented to persist until the next
    // reset or failure — a later clean run must not erase it.
    assert_eq!(ev.last_error_stats(), Some(&partial));
    ev.reset_stats();
    assert_eq!(ev.last_error_stats(), None, "reset clears the snapshot");
}

#[test]
fn deadline_inside_the_product_stops_every_engine_at_that_iteration() {
    let _g = serialized();
    // The fused product replays the iterations of the three folds it
    // replaces one by one: a deadline at any of them stops the VM exactly
    // where the tree-walk stops.
    let program = Program::srl();
    let pairs = Value::set((0..7).map(|i| Value::tuple([Value::atom(i), Value::atom(i + 1)])));
    let env = Env::new().bind("A", atom_set(0..6)).bind("B", pairs);
    let expr = srl_stdlib::derived::cartesian(var("A"), var("B"));
    let limits = EvalLimits::benchmark().with_deadline_ms(3_600_000);
    let (_, full) = fresh_run(&program, &expr, &env, limits, ExecBackend::TreeWalk)
        .expect("the product fits the benchmark budget");
    // Six outer iterations, then per element of A seven to build its slice
    // and seven to union it in.
    assert_eq!(full.reduce_iterations, 6 + 2 * 6 * 7);
    for k in 1..=full.reduce_iterations {
        for backend in [
            ExecBackend::TreeWalk,
            ExecBackend::vm(),
            ExecBackend::vm_with_threads(THREADS),
        ] {
            let mut ev = evaluator(&program, limits, backend);
            faultpoint::arm(faultpoint::DEADLINE_MID_FOLD, k);
            let err = ev
                .eval(&expr, &env)
                .expect_err("deadline fires mid-product");
            faultpoint::disarm_all();
            assert_eq!(err.kind(), "deadline_exceeded", "{backend:?} at {k}");
            let partial = ev.last_error_stats().expect("failed run leaves a snapshot");
            assert_eq!(partial.reduce_iterations, k, "{backend:?} at {k}");
        }
    }
}

#[test]
fn deadline_mid_fold_under_the_pool_is_still_a_deadline() {
    let _g = serialized();
    let (program, expr, env) = sharded_projection();
    let limits = EvalLimits::benchmark().with_deadline_ms(3_600_000);
    faultpoint::arm(faultpoint::DEADLINE_MID_FOLD, 100);
    let err = evaluator(&program, limits, ExecBackend::vm_with_threads(THREADS))
        .eval(&expr, &env)
        .expect_err("deadline fires in some worker");
    faultpoint::disarm_all();
    // Which worker trips first is scheduling-dependent, but the verdict is
    // always DeadlineExceeded with the configured budget.
    assert_eq!(
        err,
        EvalError::DeadlineExceeded {
            limit_ms: 3_600_000
        }
    );
}

#[test]
fn merge_delay_changes_nothing_observable() {
    let _g = serialized();
    let (program, expr, env) = sharded_projection();
    let baseline = fresh_run(
        &program,
        &expr,
        &env,
        EvalLimits::benchmark(),
        ExecBackend::vm_with_threads(THREADS),
    )
    .expect("healthy workload");
    faultpoint::arm(faultpoint::MERGE_DELAY, 10);
    let delayed = fresh_run(
        &program,
        &expr,
        &env,
        EvalLimits::benchmark(),
        ExecBackend::vm_with_threads(THREADS),
    )
    .expect("a slow merge is still a merge");
    faultpoint::disarm_all();
    assert_eq!(baseline, delayed, "merge timing leaked into the results");
}

#[test]
fn disarmed_registry_keeps_thread_counts_indistinguishable() {
    let _g = serialized();
    let (program, expr, env) = sharded_projection();
    let seq = fresh_run(
        &program,
        &expr,
        &env,
        EvalLimits::benchmark(),
        ExecBackend::vm(),
    )
    .expect("sequential");
    let par = fresh_run(
        &program,
        &expr,
        &env,
        EvalLimits::benchmark(),
        ExecBackend::vm_with_threads(THREADS),
    )
    .expect("sharded");
    assert_eq!(seq, par, "threads must be invisible with no fault armed");
}

/// The reuse-after-error contract, satellite form: for each way a query can
/// be interrupted (step budget, size budget, simulated deadline) and each
/// backend (tree-walk, sequential VM, pooled VM), the evaluator that failed
/// must answer the next query with EvalStats byte-identical to a fresh
/// evaluator that never saw the failure.
#[test]
fn reuse_after_every_error_kind_matches_a_fresh_evaluator() {
    let _g = serialized();
    let (program, expr, env) = sharded_projection();
    let healthy = EvalLimits::benchmark();
    let backends = [
        ExecBackend::TreeWalk,
        ExecBackend::vm(),
        ExecBackend::vm_with_threads(THREADS),
    ];

    // (label, starved limits to fail under, fault to arm)
    let step_starved = EvalLimits::benchmark().with_max_steps(50);
    let size_starved = EvalLimits::benchmark().with_max_value_weight(40);
    let cases: [(&str, EvalLimits, Option<u64>); 3] = [
        ("step limit", step_starved, None),
        ("size limit", size_starved, None),
        ("deadline", healthy.with_deadline_ms(3_600_000), Some(25)),
    ];

    for backend in backends {
        for (label, limits, fault) in &cases {
            let mut ev = evaluator(&program, *limits, backend);
            if let Some(k) = fault {
                faultpoint::arm(faultpoint::DEADLINE_MID_FOLD, *k);
            }
            let err = ev
                .eval(&expr, &env)
                .expect_err("starved or faulted run fails");
            faultpoint::disarm_all();
            match (*label, &err) {
                ("step limit", EvalError::StepLimitExceeded { .. })
                | ("size limit", EvalError::SizeLimitExceeded { .. })
                | ("deadline", EvalError::DeadlineExceeded { .. }) => {}
                other => panic!("{backend:?}/{label}: unexpected error {other:?}"),
            }
            assert!(
                ev.last_error_stats().is_some(),
                "{backend:?}/{label}: no partial snapshot"
            );

            // A small healthy query on the *same* evaluator. It still runs
            // under the starved limits, so keep it tiny.
            let small = Env::new().bind("S", atom_set(0..3));
            let probe = map_set(var("S"), lam("x", "t", var("x")), empty_set());
            let retried = ev.eval(&probe, &small).expect("tiny query fits any budget");
            let mut fresh = evaluator(&program, *limits, backend);
            let fresh_value = fresh.eval(&probe, &small).expect("tiny query");
            assert_eq!(retried, fresh_value, "{backend:?}/{label}: values differ");
            assert_eq!(
                ev.stats(),
                fresh.stats(),
                "{backend:?}/{label}: stats after recovery differ from fresh"
            );
        }
    }
}
