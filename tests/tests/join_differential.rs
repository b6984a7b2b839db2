//! Differential test for the fused join.
//!
//! A `select` over `cartesian` whose predicate only unpacks each pair —
//! `let a = p.1 in let b = p.2 in body`, the shape `derived::join` prints
//! — compiles to a product that charges A × B but hands A and B over, and
//! a join filter that walks A × B in place, building `[a, b]` only for the
//! pairs it keeps (see `srl_core::vm`'s module docs). Everything else
//! builds the product as written.
//!
//! Every case runs through the shared engine matrix
//! (`srl_integration_tests::Matrix`): the tree-walk and the VM at 1, 2 and
//! 4 threads, each with the columnar tiers on and off. Every run must agree
//! on the value, its printed form and `EvalStats`, or on the `EvalError`.

use srl_core::bytecode::ReduceKind;
use srl_core::dsl::*;
use srl_core::{Env, EvalLimits, Expr, Lambda, Program, Value};
use srl_integration_tests::{atom_set, expr_folds, Gen, Matrix};
use srl_stdlib::derived::{cartesian, join, member, select};

const SCOPE: [&str; 3] = ["A", "B", "S"];

/// Whether `expr` compiles to the fused join. Every join filter must read
/// a product that hands off to it, and every such product must have one.
fn fuses(expr: &Expr) -> bool {
    let folds = expr_folds(&Program::srl(), expr, &SCOPE);
    let handoffs = folds
        .iter()
        .filter(|r| matches!(r.kind, ReduceKind::Product { join: true }))
        .count();
    let joins = folds
        .iter()
        .filter(|r| matches!(r.kind, ReduceKind::Filter { join: Some(_), .. }))
        .count();
    assert_eq!(handoffs, joins, "a product hands off to each join filter");
    joins > 0
}

/// The join predicates, as `lambda(a, b) body`.
fn predicates() -> Vec<(&'static str, Lambda)> {
    vec![
        // Composition: takes both branches on most relations.
        (
            "a.2 = b.1",
            lam("a", "b", eq(sel(var("a"), 2), sel(var("b"), 1))),
        ),
        ("b <= a", lam("a", "b", leq(var("b"), var("a")))),
        ("keep all", lam("a", "b", bool_(true))),
        ("keep none", lam("a", "b", bool_(false))),
        // A nested fold over an outer binding.
        ("a in S", lam("a", "b", member(var("a"), var("S")))),
        (
            "branching",
            lam(
                "a",
                "b",
                if_(
                    eq(sel(var("a"), 1), sel(var("b"), 2)),
                    leq(sel(var("b"), 1), sel(var("a"), 2)),
                    bool_(false),
                ),
            ),
        ),
        // The body hands back `b` in tail position: the kernel's slot must
        // still hold it when the pair is kept.
        ("b itself", lam("a", "b", var("b"))),
    ]
}

/// An element: mostly a pair of small atoms, sometimes an atom or a
/// boolean, so that selectors and `if` conditions meet the wrong shape.
fn element(g: &mut Gen) -> Value {
    match g.below(8) {
        0 => Value::atom(g.below(5)),
        1 => Value::Bool(g.below(2) == 1),
        _ => Value::tuple([Value::atom(g.below(5)), Value::atom(g.below(5))]),
    }
}

/// A relation of up to `max` elements, all pairs or (one time in four)
/// all drawn by [`element`]; empty now and then.
fn relation(g: &mut Gen, max: u64) -> Value {
    let mixed = g.below(4) == 0;
    let len = g.below(max + 1);
    let mut items = Vec::new();
    for _ in 0..len {
        items.push(if mixed {
            element(g)
        } else {
            Value::tuple([Value::atom(g.below(5)), Value::atom(g.below(5))])
        });
    }
    Value::set(items)
}

#[test]
fn generated_joins_fuse_and_agree() {
    let program = Program::srl();
    let matrix = Matrix::new(&program);
    let combine = || lam("a", "b", tuple([var("b"), var("a")]));
    let mut g = Gen::new(28);
    let (mut kept_some, mut kept_all, mut kept_none, mut failed) = (0, 0, 0, 0);
    for case in 0..160 {
        let preds = predicates();
        let (name, pred) = preds[g.below(preds.len() as u64) as usize].clone();
        let a = relation(&mut g, 6);
        // B is A itself, another relation, a set of booleans, or no set.
        let (b_name, b) = match g.below(8) {
            0 => ("A", a.clone()),
            1 => ("B", Value::set([Value::Bool(false), Value::Bool(true)])),
            2 => ("B", Value::atom(3)),
            _ => ("B", relation(&mut g, 6)),
        };
        let expr = join(var("A"), var(b_name), pred, combine());
        assert!(fuses(&expr), "case {case}: {name} did not fuse");
        let s = Value::set((0..3).map(|_| element(&mut g)));
        let env = Env::new().bind("A", a).bind("B", b).bind("S", s);
        let label = format!("case {case}: {name} over A × {b_name}");
        let runs = matrix.eval(&label, &expr, &env);
        match &runs.runs[0].outcome {
            Err(e) => {
                assert_eq!(e.kind(), "shape", "{label}");
                failed += 1;
            }
            Ok((v, _)) => {
                // `combine` is one-to-one, so the result has one element
                // per kept pair.
                let pairs = match (env.get("A"), env.get(b_name)) {
                    (Some(Value::Set(a)), Some(Value::Set(b))) => a.len() * b.len(),
                    _ => 0,
                };
                let kept = v.as_set().map_or(0, |s| s.len());
                if pairs > 0 && kept == 0 {
                    kept_none += 1;
                } else if pairs > 0 && kept == pairs {
                    kept_all += 1;
                } else if kept > 0 {
                    kept_some += 1;
                }
            }
        }
    }
    for (what, count) in [
        ("kept some pairs", kept_some),
        ("kept every pair", kept_all),
        ("kept no pair", kept_none),
        ("failed", failed),
    ] {
        assert!(count >= 5, "only {count} generated joins {what}");
    }
}

#[test]
fn empty_and_non_set_operands_fail_or_pass_alike() {
    let program = Program::srl();
    let expr = join(
        var("A"),
        var("B"),
        lam("a", "b", eq(sel(var("a"), 2), sel(var("b"), 1))),
        lam("a", "b", tuple([var("a"), var("b")])),
    );
    assert!(fuses(&expr));
    let pairs = Value::set((0..4).map(|i| Value::tuple([Value::atom(i), Value::atom(i + 1)])));
    let env = |a: Value, b: Value| Env::new().bind("A", a).bind("B", b);
    let matrix = Matrix::new(&program);
    // An empty operand: no pair, whatever the other one is.
    for (label, a, b) in [
        ("empty A", Value::set([]), pairs.clone()),
        ("empty B", pairs.clone(), Value::set([])),
        ("empty A, non-set B", Value::set([]), Value::atom(3)),
    ] {
        let v = matrix.eval(label, &expr, &env(a, b)).value();
        assert_eq!(v, Value::set([]), "{label}");
    }
    // A non-set B fails in the product's first slice; atoms where pairs
    // are expected fail in the predicate's first selector.
    let runs = matrix.eval("non-set B", &expr, &env(pairs.clone(), Value::atom(3)));
    assert_eq!(runs.error().kind(), "shape");
    let runs = matrix.eval("atoms in A", &expr, &env(atom_set(0..3), pairs));
    assert_eq!(runs.error().kind(), "shape");
}

#[test]
fn budgets_that_trip_inside_a_join_fail_alike() {
    let program = Program::srl();
    let expr = join(
        var("A"),
        var("B"),
        lam("a", "b", eq(sel(var("a"), 2), sel(var("b"), 1))),
        lam("a", "b", tuple([sel(var("a"), 1), sel(var("b"), 2)])),
    );
    assert!(fuses(&expr));
    let chain = |from: u64| {
        Value::set((from..from + 6).map(|i| Value::tuple([Value::atom(i), Value::atom(i + 1)])))
    };
    let env = Env::new().bind("A", chain(0)).bind("B", chain(1));
    let full = Matrix::new(&program).eval("unlimited", &expr, &env).stats();
    let product = Matrix::new(&program)
        .eval("product alone", &cartesian(var("A"), var("B")), &env)
        .stats();
    // Every budget from the first step to one short of the end: inside
    // the product's batched charges, the filter's per-pair charges and the
    // map after it.
    let steps =
        (1..full.steps)
            .step_by(3)
            .chain([product.steps, product.steps + 1, full.steps - 1]);
    for max_steps in steps {
        let label = format!("max_steps {max_steps}");
        let runs = Matrix::new(&program)
            .limits(EvalLimits::benchmark().with_max_steps(max_steps))
            .eval(&label, &expr, &env);
        assert_eq!(runs.error().kind(), "step_limit_exceeded", "{label}");
    }
    for max_value_weight in 1..full.max_value_weight {
        let label = format!("max_value_weight {max_value_weight}");
        let runs = Matrix::new(&program)
            .limits(EvalLimits::benchmark().with_max_value_weight(max_value_weight))
            .eval(&label, &expr, &env);
        assert_eq!(runs.error().kind(), "size_limit_exceeded", "{label}");
    }
}

#[test]
fn near_misses_of_the_join_build_their_product() {
    let program = Program::srl();
    let unpack = |first: (&str, usize), second: (&str, usize), body: Expr| {
        lam(
            "p",
            "u",
            let_in(
                first.0,
                sel(var("p"), first.1),
                let_in(second.0, sel(var("p"), second.1), body),
            ),
        )
    };
    let a_le_b = || leq(var("a"), var("b"));
    let square = || cartesian(var("A"), var("B"));
    let cases = [
        (
            "the body reads the pair",
            select(
                square(),
                unpack(("a", 1), ("b", 2), eq(sel(var("p"), 1), var("a"))),
                empty_set(),
            ),
        ),
        (
            "the lets swapped",
            select(square(), unpack(("b", 2), ("a", 1), a_le_b()), empty_set()),
        ),
        (
            "one component twice",
            select(square(), unpack(("a", 1), ("b", 1), a_le_b()), empty_set()),
        ),
        (
            "the predicate reads the pair directly",
            select(
                square(),
                lam("p", "u", leq(sel(var("p"), 1), sel(var("p"), 2))),
                empty_set(),
            ),
        ),
        (
            "not over a product",
            select(var("A"), unpack(("a", 1), ("b", 2), a_le_b()), empty_set()),
        ),
        // The product is one branch of the set, the last one compiled.
        (
            "a product in one branch",
            select(
                if_(eq(var("A"), var("B")), var("A"), square()),
                unpack(("a", 1), ("b", 2), a_le_b()),
                empty_set(),
            ),
        ),
    ];
    let chain = Value::set((0..5).map(|i| Value::tuple([Value::atom(i), Value::atom(i + 1)])));
    let env = Env::new()
        .bind("A", chain.clone())
        .bind("B", chain)
        .bind("S", Value::set([]));
    for (label, expr) in &cases {
        assert!(!fuses(expr), "{label} fused");
        Matrix::new(&program).eval(label, expr, &env).value();
    }
}

#[test]
fn flag_first_and_negated_joins_fuse_and_agree() {
    let program = Program::srl();
    let unpacked = || {
        let_in(
            "a",
            sel(var("p"), 1),
            let_in(
                "b",
                sel(var("p"), 2),
                leq(sel(var("a"), 2), sel(var("b"), 1)),
            ),
        )
    };
    // `if q.ci then insert(q.vi, acc) else acc`, or with the branches
    // swapped when `keep` is false.
    let acc = |ci: usize, vi: usize, keep: bool| {
        let grow = insert(sel(var("q"), vi), var("acc"));
        let (then, other) = if keep {
            (grow, var("acc"))
        } else {
            (var("acc"), grow)
        };
        lam("q", "acc", if_(sel(var("q"), ci), then, other))
    };
    let square = || cartesian(var("A"), var("B"));
    let cases = [
        (
            "[pred, p]",
            set_reduce(
                square(),
                lam("p", "u", tuple([unpacked(), var("p")])),
                acc(1, 2, true),
                empty_set(),
                empty_set(),
            ),
        ),
        (
            "keep on false",
            set_reduce(
                square(),
                lam("p", "u", tuple([var("p"), unpacked()])),
                acc(2, 1, false),
                empty_set(),
                empty_set(),
            ),
        ),
    ];
    let mut g = Gen::new(7);
    for (label, expr) in &cases {
        assert!(fuses(expr), "{label} did not fuse");
        for round in 0..8 {
            let env = Env::new()
                .bind("A", relation(&mut g, 5))
                .bind("B", relation(&mut g, 5));
            Matrix::new(&program).eval(&format!("{label}, round {round}"), expr, &env);
        }
    }
}
