//! Differential test for the fold kernels' ownership discipline.
//!
//! Three things the VM's per-element fold path does that no result may
//! show (see `srl_core::vm`'s module docs):
//!
//! * the fused kinds with an app block park `extra` in its slot once per
//!   fold and once per shard, so an app that returns its `extra` must read
//!   it by copy;
//! * a sequential fold consumes an input set it holds the only reference
//!   to, and must leave a shared one intact;
//! * a `select`-shaped filter (`[x, pred]` or `[pred, x]`) runs `pred`
//!   alone and replays the charges of the element read and the pair it
//!   skips; near misses build their pair as written.
//!
//! Every case runs through the shared engine matrix
//! (`srl_integration_tests::Matrix`): the tree-walk and the VM at 1, 2 and
//! 4 threads, each with the columnar tiers on and off. Every run must agree
//! on the value, its printed form and `EvalStats` — or, when a budget
//! trips, on the `EvalError`.

use std::sync::Arc;

use srl_core::bytecode::{ElidedPair, ReduceInsn, ReduceKind};
use srl_core::dsl::*;
use srl_core::{Dialect, Env, EvalLimits, Evaluator, ExecBackend, Expr, Program, Value};
use srl_integration_tests::{atom_set, expr_folds, root_fold, shard_cardinality, Matrix};
use srl_stdlib::derived::{
    cartesian, difference, forall, forsome, intersection, join, map_set, member, select,
};

fn agree(program: &Program, expr: &Expr, env: &Env, label: &str) -> Value {
    Matrix::new(program).eval(label, expr, env).value()
}

/// The `Filter` folds of `expr`, in block order.
fn filters(program: &Program, expr: &Expr, scope: &[&str]) -> Vec<ReduceInsn> {
    expr_folds(program, expr, scope)
        .into_iter()
        .filter(|r| matches!(r.kind, ReduceKind::Filter { .. }))
        .collect()
}

/// Whether `r` is a join filter, walking the product it reads in place.
fn is_join(r: &ReduceInsn) -> bool {
    matches!(r.kind, ReduceKind::Filter { join: Some(_), .. })
}

fn pair_of(r: &ReduceInsn) -> Option<ElidedPair> {
    match r.kind {
        ReduceKind::Filter { pair, .. } => pair,
        ref other => panic!("not a filter: {other:?}"),
    }
}

/// `S` (atoms), `T` (atoms, overlapping `S`) and `P` (pairs of atoms).
fn small_env() -> Env {
    Env::new()
        .bind("S", atom_set([1, 2, 3, 5, 8, 13, 21]))
        .bind("T", atom_set([2, 3, 4, 8, 16]))
        .bind(
            "P",
            Value::set((0..6u64).flat_map(|a| {
                (0..4u64).map(move |b| Value::tuple([Value::atom(a), Value::atom(a * b % 5)]))
            })),
        )
}

/// `lambda(p, acc) if p.ci then insert(p.vi, acc) else acc`: a filter's
/// accumulator with the flag at `ci` and the kept value at `vi`.
fn keep(ci: usize, vi: usize) -> srl_core::Lambda {
    lam(
        "p",
        "acc",
        if_(
            sel(var("p"), ci),
            insert(sel(var("p"), vi), var("acc")),
            var("acc"),
        ),
    )
}

fn filter_fold(set: Expr, app: srl_core::Lambda, ci: usize, vi: usize, extra: Expr) -> Expr {
    set_reduce(set, app, keep(ci, vi), empty_set(), extra)
}

#[test]
fn select_shaped_filters_are_elided_and_agree() {
    let program = Program::srl();
    let below = |k: u64| lam("x", "e", leq(var("x"), atom(k)));
    let cases = [
        ("select", select(var("S"), below(8), empty_set())),
        (
            "select reading extra",
            select(
                var("S"),
                lam("x", "t", member(var("x"), var("t"))),
                var("T"),
            ),
        ),
        (
            "select over pairs",
            select(
                var("P"),
                lam("q", "e", eq(sel(var("q"), 2), atom(0))),
                empty_set(),
            ),
        ),
        ("intersection", intersection(var("S"), var("T"))),
        ("difference", difference(var("S"), var("T"))),
        (
            "join",
            join(
                var("S"),
                var("T"),
                lam("a", "b", leq(var("b"), var("a"))),
                lam("a", "b", tuple([var("b"), var("a")])),
            ),
        ),
        // `[pred, x]`: the element read comes after the predicate.
        (
            "flag first",
            filter_fold(
                var("S"),
                lam("x", "t", tuple([member(var("x"), var("t")), var("x")])),
                1,
                2,
                var("T"),
            ),
        ),
        // The predicate is the parked `extra` itself.
        (
            "flag is extra",
            filter_fold(
                var("S"),
                lam("x", "e", tuple([var("x"), var("e")])),
                2,
                1,
                bool_(true),
            ),
        ),
    ];
    for (label, expr) in &cases {
        let folds = filters(&program, expr, &["S", "T", "P"]);
        assert!(!folds.is_empty(), "{label}: no filter fold");
        assert!(
            folds.iter().all(|r| pair_of(r).is_some()),
            "{label}: a select-shaped filter built its pair"
        );
        agree(&program, expr, &small_env(), label);
    }
    let first = filters(&program, &cases[6].1, &["S", "T"]);
    assert_eq!(pair_of(&first[0]).map(|p| p.elem_first), Some(false));
}

#[test]
fn near_miss_pairs_are_built_as_written() {
    let program = Program::srl();
    let cases = [
        // A selector of the element, not the element.
        (
            "[x.1, pred]",
            filter_fold(
                var("P"),
                lam(
                    "x",
                    "e",
                    tuple([sel(var("x"), 1), eq(sel(var("x"), 2), atom(0))]),
                ),
                2,
                1,
                empty_set(),
            ),
        ),
        (
            "[pred, x.2]",
            filter_fold(
                var("P"),
                lam(
                    "x",
                    "e",
                    tuple([leq(sel(var("x"), 1), atom(3)), sel(var("x"), 2)]),
                ),
                1,
                2,
                empty_set(),
            ),
        ),
        // The element sits where the flag is read: `if p.1 … insert(p.2)`
        // over `[x, pred]` is not a select.
        (
            "indices swapped",
            filter_fold(
                var("S"),
                lam("x", "e", tuple([var("x"), bool_(true)])),
                1,
                2,
                empty_set(),
            ),
        ),
        // A triple, and the app that returns its `extra` pair whole.
        (
            "triple",
            filter_fold(
                var("S"),
                lam(
                    "x",
                    "t",
                    tuple([var("x"), member(var("x"), var("t")), var("x")]),
                ),
                2,
                1,
                var("T"),
            ),
        ),
        (
            "app returns extra",
            filter_fold(
                var("S"),
                lam("x", "e", var("e")),
                2,
                1,
                tuple([atom(7), bool_(true)]),
            ),
        ),
    ];
    for (label, expr) in cases {
        let folds = filters(&program, &expr, &["S", "T", "P"]);
        assert_eq!(folds.len(), 1, "{label}");
        assert_eq!(pair_of(&folds[0]), None, "{label}: a near miss was elided");
        let runs = Matrix::new(&program).eval(label, &expr, &small_env());
        // "indices swapped" tests an atom as the flag: every engine fails
        // with the same shape error.
        if label == "indices swapped" {
            assert_eq!(runs.error().kind(), "shape");
        }
    }
}

#[test]
fn apps_that_return_their_extra_read_the_parked_value() {
    let program = Program::srl();
    let cases = [
        (
            "insert-app",
            map_set(var("S"), lam("x", "e", var("e")), var("T")),
        ),
        (
            "insert-app, extra after a nested fold",
            map_set(
                var("S"),
                lam(
                    "x",
                    "e",
                    if_(member(var("x"), var("e")), var("e"), empty_set()),
                ),
                var("T"),
            ),
        ),
        (
            "bool-acc and",
            forall(var("S"), lam("x", "e", var("e")), bool_(true)),
        ),
        (
            "bool-acc or",
            forsome(var("S"), lam("x", "e", var("e")), bool_(false)),
        ),
        (
            "scan",
            set_reduce(
                var("S"),
                lam("x", "e", tuple([var("e"), leq(var("x"), atom(5))])),
                lam(
                    "p",
                    "acc",
                    if_(sel(var("p"), 2), sel(var("p"), 1), var("acc")),
                ),
                empty_set(),
                var("T"),
            ),
        ),
    ];
    let expected_kinds = ["insert-app", "insert-app", "bool-acc", "bool-acc", "scan"];
    for ((label, expr), kind) in cases.iter().zip(expected_kinds) {
        assert_eq!(root_fold(&program, expr, &["S", "T"]).kind.label(), kind);
        agree(&program, expr, &small_env(), label);
    }
    // Every element sees the whole `extra`, not a placeholder left by the
    // previous one.
    let value = agree(&program, &cases[0].1, &small_env(), "insert-app");
    assert_eq!(value, Value::set([atom_set([2, 3, 4, 8, 16])]));
    let value = agree(&program, &cases[2].1, &small_env(), "bool-acc and");
    assert_eq!(value, Value::Bool(true));
}

#[test]
fn unique_and_shared_inputs_fold_alike() {
    let program = Program::srl();
    let pred = || lam("q", "e", leq(sel(var("q"), 2), sel(var("q"), 1)));
    let square = || cartesian(var("S"), var("S"));
    let cases = [
        // A fresh product, held by the filter alone (consumed), and the
        // fresh filter output under a map (consumed again).
        ("fresh filter", select(square(), pred(), empty_set())),
        (
            "fresh map of a fresh filter",
            map_set(
                select(square(), pred(), empty_set()),
                lam("q", "e", sel(var("q"), 1)),
                empty_set(),
            ),
        ),
        (
            "fresh bool-acc",
            forall(
                square(),
                lam("q", "e", leq(sel(var("q"), 1), atom(99))),
                empty_set(),
            ),
        ),
        (
            "fresh generic",
            set_reduce(
                square(),
                lam("q", "e", sel(var("q"), 2)),
                lam(
                    "v",
                    "acc",
                    if_(
                        member(var("v"), var("acc")),
                        var("acc"),
                        insert(var("v"), var("acc")),
                    ),
                ),
                empty_set(),
                empty_set(),
            ),
        ),
        // The same product bound once and folded twice, then returned: a
        // fold that consumed a shared input would empty the later reads.
        (
            "shared by a let",
            let_in(
                "Q",
                square(),
                tuple([
                    select(var("Q"), pred(), empty_set()),
                    map_set(var("Q"), lam("q", "e", sel(var("q"), 2)), empty_set()),
                    var("Q"),
                ]),
            ),
        ),
        // An input bound in the environment, folded and returned.
        (
            "shared input binding",
            tuple([select(var("P"), pred(), empty_set()), var("P")]),
        ),
    ];
    for (label, expr) in &cases {
        agree(&program, expr, &small_env(), label);
    }
    // The fresh filters' predicates read `q` itself, so they are no joins:
    // each filters a product built for it alone, and consumes it.
    for (label, expr) in &cases[..2] {
        let folds = filters(&program, expr, &["S", "T", "P"]);
        assert!(!folds.iter().any(is_join), "{label} became a join");
    }
    let shared = agree(&program, &cases[4].1, &small_env(), "shared by a let");
    let Value::Tuple(parts) = shared else {
        panic!("a triple")
    };
    assert_eq!(parts[2].as_set().map(|s| s.len()), Some(49));
}

#[test]
fn the_closure_and_join_workloads_elide_every_select() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;
    use workloads::tables::CompanyDatabase;

    let program = Program::new(Dialect::full());
    for (label, expr, scope) in [
        ("E5 TC", queries::tc_query(), &["D", "E"][..]),
        ("E5 DTC", queries::dtc_query(), &["D", "E"][..]),
        ("E9 join", queries::company_join(), &["EMP", "DEPT"][..]),
    ] {
        let folds = filters(&program, &expr, scope);
        assert!(!folds.is_empty(), "{label}");
        assert!(folds.iter().all(|r| pair_of(r).is_some()), "{label}");
        // Every pivot join walks its product in place.
        assert!(folds.iter().any(is_join), "{label}: no join");
    }
    // A select over a product whose predicate reads the pair itself
    // filters the built product.
    let reads_pair = select(
        cartesian(var("D"), var("D")),
        lam(
            "p",
            "u",
            let_in("a", sel(var("p"), 1), eq(var("a"), sel(var("p"), 2))),
        ),
        empty_set(),
    );
    let folds = filters(&program, &reads_pair, &["D"]);
    assert_eq!(folds.len(), 1);
    assert!(pair_of(&folds[0]).is_some() && !is_join(&folds[0]));
    let g = Digraph::random(7, 0.3, 5);
    let graph = Env::new()
        .bind("D", g.vertices_value())
        .bind("E", g.edges_value());
    agree(&program, &queries::tc_query(), &graph, "E5 TC");
    agree(&program, &queries::dtc_query(), &graph, "E5 DTC");
    let db = CompanyDatabase::generate(24, 6, 3, 11);
    let tables = Env::new()
        .bind("EMP", db.employees_value())
        .bind("DEPT", db.departments_value());
    agree(&program, &queries::company_join(), &tables, "E9 join");
}

#[test]
fn an_elided_select_above_the_gate_shards_and_agrees() {
    let program = Program::srl();
    let expr = select(
        var("S"),
        lam("x", "t", member(var("x"), var("t"))),
        var("T"),
    );
    let fold = root_fold(&program, &expr, &["S", "T"]);
    assert!(pair_of(&fold).is_some());
    let n = shard_cardinality(fold.unit_cost);
    let env = Env::new()
        .bind("S", atom_set((0..n).map(|i| i * 3)))
        .bind("T", atom_set((0..64).map(|i| i * 5)));
    let runs = Matrix::new(&program).eval("sharded select", &expr, &env);
    for run in &runs.runs {
        assert_eq!(run.sharded > 0, run.pooled(), "{}", run.config);
    }
}

#[test]
fn budgets_that_trip_mid_filter_fail_alike() {
    let program = Program::srl();
    let expr = select(
        cartesian(var("S"), var("S")),
        lam("q", "t", member(sel(var("q"), 2), var("t"))),
        var("T"),
    );
    let env = small_env();
    let full = Matrix::new(&program).eval("unlimited", &expr, &env).stats();
    // The product is charged first; the filter's charges end the run. So
    // every budget from past the product to one short of the end trips
    // inside the filter, at a different element or charge of it.
    let before = Matrix::new(&program)
        .eval("product alone", &cartesian(var("S"), var("S")), &env)
        .stats();
    let steps = (before.steps + 1..full.steps)
        .step_by(97)
        .chain([full.steps - 1]);
    for max_steps in steps {
        let limits = EvalLimits {
            max_steps,
            ..EvalLimits::benchmark()
        };
        let label = format!("max_steps {max_steps}");
        let runs = Matrix::new(&program)
            .limits(limits)
            .eval(&label, &expr, &env);
        assert_eq!(runs.error().kind(), "step_limit_exceeded", "{label}");
    }
    let weights = (before.max_value_weight + 1..full.max_value_weight)
        .step_by(5)
        .chain([full.max_value_weight - 1]);
    for max_value_weight in weights {
        let limits = EvalLimits {
            max_value_weight,
            ..EvalLimits::benchmark()
        };
        let label = format!("max_value_weight {max_value_weight}");
        let runs = Matrix::new(&program)
            .limits(limits)
            .eval(&label, &expr, &env);
        assert_eq!(runs.error().kind(), "size_limit_exceeded", "{label}");
    }
}

/// The smallest budget under which the sequential VM gets past every limit
/// to the predicate's own error, with the partial steps and allocation
/// high-water it reports there.
fn first_budget_reaching_the_error(
    expr: &Expr,
    limits: impl Fn(u64) -> EvalLimits,
) -> (u64, u64, usize) {
    let compiled = Arc::new(Program::srl().compile());
    let env = Env::new()
        .bind("S", atom_set([1, 2, 3, 5, 8, 13]))
        .bind("T", atom_set([2, 3, 4, 8, 16]));
    for budget in 1..10_000 {
        let mut ev = Evaluator::from_compiled(Arc::clone(&compiled), limits(budget))
            .with_backend(ExecBackend::vm());
        let err = ev.eval(expr, &env).expect_err("the predicate fails on d5");
        if !err.is_limit() {
            assert_eq!(err.kind(), "choose_from_empty_set");
            let partial = ev.last_error_stats().expect("partial stats are kept");
            return (budget, partial.steps, partial.max_value_weight);
        }
    }
    panic!("no budget reaches the predicate's error")
}

/// Where the element read and the pair's step and leaf are charged decides
/// which error wins when a budget runs out next to a failing predicate. An
/// elided pair replays them in the order the built pair charged them, so
/// the sequential VM stops at the same budgets with the same partial
/// counters as when it built the pair (the pinned numbers are what it
/// reported then). The tree-walk charges a parent before its children, so
/// its partial counters differ by design and are not compared here.
#[test]
fn elided_pairs_fail_where_the_built_pairs_failed() {
    // Fails inside the predicate block on the fourth element, d5.
    let pred = || {
        if_(
            eq(var("x"), atom(5)),
            eq(choose(empty_set()), var("x")),
            leq(var("x"), atom(8)),
        )
    };
    let cases = [
        (
            "[x, pred]",
            select(var("S"), lam("x", "t", pred()), var("T")),
            (59, 59, 6),
            (6, 59, 6),
        ),
        (
            "[pred, x]",
            filter_fold(
                var("S"),
                lam("x", "t", tuple([pred(), var("x")])),
                1,
                2,
                var("T"),
            ),
            (58, 58, 6),
            (6, 58, 6),
        ),
    ];
    for (label, expr, steps, size) in &cases {
        let fold = root_fold(&Program::srl(), expr, &["S", "T"]);
        assert!(pair_of(&fold).is_some(), "{label}");
        let by_steps = first_budget_reaching_the_error(expr, |b| EvalLimits {
            max_steps: b,
            ..EvalLimits::benchmark()
        });
        assert_eq!(by_steps, *steps, "{label}: step budgets");
        let by_size = first_budget_reaching_the_error(expr, |b| EvalLimits {
            max_value_weight: b as usize,
            ..EvalLimits::benchmark()
        });
        assert_eq!(by_size, *size, "{label}: size budgets");
    }
}
