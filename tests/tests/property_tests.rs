//! Property-style tests on the core invariants.
//!
//! The build runs offline (no proptest), so these drive the same properties
//! with the shared deterministic case generator (`srl_integration_tests::Gen`,
//! SplitMix64): one stream per test seed, 64 cases per property — failures
//! print the generating seed so the case can be replayed exactly.

use srl_core::dsl::*;
use srl_core::eval::eval_expr;
use srl_core::{BigNat, Env, EvalLimits, Value};
use srl_integration_tests::{atom_set, Gen};
use srl_stdlib::derived::{difference, intersection, member, set_eq, subset, union};
use srl_stdlib::hom;
use workloads::orderings::DomainRenaming;

const CASES: u64 = 64;

/// A vector of up to 9 atom ranks drawn from `0..24` (duplicates kept, as
/// proptest's `vec(0u64..24, 0..10)` would produce).
fn small_set(g: &mut Gen) -> Vec<u64> {
    let len = g.below(10);
    (0..len).map(|_| g.below(24)).collect()
}

fn eval(expr: &srl_core::Expr, env: &Env) -> Value {
    eval_expr(expr, env, EvalLimits::default()).expect("evaluation succeeds")
}

#[test]
fn bignat_addition_is_commutative_and_matches_u64() {
    let mut g = Gen::new(1);
    for case in 0..CASES {
        let a = g.below(1_000_000);
        let b = g.below(1_000_000);
        let x = BigNat::from_u64(a);
        let y = BigNat::from_u64(b);
        assert_eq!(x.add(&y), y.add(&x), "case {case}: a={a} b={b}");
        assert_eq!(x.add(&y).to_u64(), Some(a + b), "case {case}: a={a} b={b}");
        assert_eq!(x.mul(&y), y.mul(&x), "case {case}: a={a} b={b}");
    }
}

#[test]
fn bignat_shifts_invert() {
    let mut g = Gen::new(2);
    for case in 0..CASES {
        let a = g.next_u64();
        let k = g.below(100) as usize;
        let x = BigNat::from_u64(a);
        assert_eq!(x.shl(k).shr(k), x, "case {case}: a={a} k={k}");
    }
}

#[test]
fn srl_union_is_commutative_idempotent_and_matches_native() {
    let mut g = Gen::new(3);
    for case in 0..CASES {
        let a = small_set(&mut g);
        let b = small_set(&mut g);
        let env = Env::new()
            .bind("A", atom_set(a.clone()))
            .bind("B", atom_set(b.clone()));
        let ab = eval(&union(var("A"), var("B")), &env);
        let ba = eval(&union(var("B"), var("A")), &env);
        assert_eq!(ab, ba, "case {case}: a={a:?} b={b:?}");
        let native: std::collections::BTreeSet<u64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(ab.len(), Some(native.len()), "case {case}: a={a:?} b={b:?}");
        let aa = eval(&union(var("A"), var("A")), &env);
        assert_eq!(aa, atom_set(a.clone()), "case {case}: a={a:?}");
    }
}

#[test]
fn srl_set_algebra_matches_native() {
    let mut g = Gen::new(4);
    for case in 0..CASES {
        let a = small_set(&mut g);
        let b = small_set(&mut g);
        let env = Env::new()
            .bind("A", atom_set(a.clone()))
            .bind("B", atom_set(b.clone()));
        let sa: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        let sb: std::collections::BTreeSet<u64> = b.iter().copied().collect();
        let inter = eval(&intersection(var("A"), var("B")), &env);
        assert_eq!(
            inter,
            atom_set(sa.intersection(&sb).copied().collect::<Vec<_>>()),
            "case {case}: a={a:?} b={b:?}"
        );
        let diff = eval(&difference(var("A"), var("B")), &env);
        assert_eq!(
            diff,
            atom_set(sa.difference(&sb).copied().collect::<Vec<_>>()),
            "case {case}: a={a:?} b={b:?}"
        );
        let sub = eval(&subset(var("A"), var("B")), &env);
        assert_eq!(sub, Value::bool(sa.is_subset(&sb)), "case {case}");
        let eq_sets = eval(&set_eq(var("A"), var("B")), &env);
        assert_eq!(eq_sets, Value::bool(sa == sb), "case {case}");
    }
}

#[test]
fn srl_membership_matches_native() {
    let mut g = Gen::new(5);
    for case in 0..CASES {
        let a = small_set(&mut g);
        let probe = g.below(24);
        let env = Env::new().bind("A", atom_set(a.clone()));
        let v = eval(&member(atom(probe), var("A")), &env);
        assert_eq!(
            v,
            Value::bool(a.contains(&probe)),
            "case {case}: a={a:?} probe={probe}"
        );
    }
}

#[test]
fn proper_hom_queries_are_invariant_under_renaming() {
    let mut g = Gen::new(6);
    for case in 0..CASES {
        let a = small_set(&mut g);
        let seed = g.below(1000);
        let s = atom_set(a.clone());
        let renaming = DomainRenaming::random(24, seed);
        let env = Env::new().bind("S", s.clone());
        let renamed_env = Env::new().bind("S", renaming.apply(&s));
        // EVEN via proper hom: same boolean either way.
        assert_eq!(
            eval(&hom::even(var("S")), &env),
            eval(&hom::even(var("S")), &renamed_env),
            "case {case}: a={a:?} seed={seed}"
        );
        // Union-style rebuild corresponds modulo the renaming.
        let rebuilt = eval(&union(var("S"), empty_set()), &env);
        let rebuilt_renamed = eval(&union(var("S"), empty_set()), &renamed_env);
        assert_eq!(
            renaming.apply(&rebuilt),
            rebuilt_renamed,
            "case {case}: a={a:?} seed={seed}"
        );
    }
}

#[test]
fn basrl_arithmetic_matches_native_addition() {
    let mut g = Gen::new(7);
    for case in 0..CASES {
        let n = 6 + g.below(18);
        let a = g.below(12) % n;
        let b = g.below(12) % n;
        let program = srl_stdlib::arith::arithmetic_program();
        let (value, _) = srl_core::eval::run_program(
            &program,
            srl_stdlib::arith::names::ADD,
            &[srl_stdlib::arith::domain(n), Value::atom(a), Value::atom(b)],
            EvalLimits::benchmark(),
        )
        .unwrap();
        assert_eq!(
            value,
            Value::atom((a + b).min(n - 1)),
            "case {case}: n={n} a={a} b={b}"
        );
    }
}

#[test]
fn evaluation_is_deterministic() {
    let mut g = Gen::new(8);
    for case in 0..CASES {
        let a = small_set(&mut g);
        let env = Env::new().bind("A", atom_set(a.clone()));
        let q = hom::count(var("A"));
        let program = srl_core::Program::new(srl_core::Dialect::full());
        let mut ev1 = srl_core::Evaluator::new(&program, EvalLimits::default());
        let mut ev2 = srl_core::Evaluator::new(&program, EvalLimits::default());
        assert_eq!(
            ev1.eval(&q, &env).unwrap(),
            ev2.eval(&q, &env).unwrap(),
            "case {case}: a={a:?}"
        );
    }
}
