//! Order-(in)dependence analysis (Section 7 and the Conclusions).
//!
//! The paper's position: use a language that includes all of P (so the order
//! is available operationally), and *prove* of individual queries that their
//! results do not depend on it — originally with Sheard's extended
//! Boyer–Moore prover, which is not available to us. This module substitutes
//! a conservative, mechanical checker with the same soundness contract:
//!
//! * a **syntactic proper-hom check**: a reduce whose accumulator is built
//!   from a known commutative–associative combiner shape and whose `app`
//!   ignores nothing it shouldn't, is order-independent (Section 7's "proper
//!   hom");
//! * a **randomised algebraic check** of the accumulator (commutativity and
//!   associativity on sampled values), which upgrades "unknown" verdicts to
//!   strong evidence;
//! * a **permutation test** of the whole query: evaluate it on the same
//!   abstract database presented under several random domain renamings and
//!   compare results (modulo the renaming). A mismatch is a *proof* of order
//!   dependence, with the renaming as witness.
//!
//! The verdict is three-valued, exactly like the original prover's:
//! proved independent / proved dependent (witness) / unknown.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use srl_core::ast::{Expr, Lambda};
use srl_core::dialect::Dialect;
use srl_core::eval::{Evaluator, ExecBackend};
use srl_core::limits::EvalLimits;
use srl_core::program::{Env, Program};
use srl_core::value::Value;

use workloads::orderings::DomainRenaming;

/// The outcome of an order-independence analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderVerdict {
    /// Every reduce in the expression has a provably order-insensitive
    /// combiner (proper-hom shape), so the result cannot depend on the order.
    ProvedIndependent,
    /// A concrete domain renaming changes the result: the query is
    /// order-dependent.
    ProvedDependent {
        /// The renaming that witnesses the dependence.
        witness_seed: u64,
    },
    /// Neither a proof nor a counterexample was found.
    Unknown,
}

/// Syntactic shapes of accumulators known to be commutative and associative
/// (and therefore order-insensitive): boolean OR / AND / XOR folds, set
/// union by insertion, natural-number sums and products, max/min by
/// comparison.
fn combiner_is_proper(acc: &Lambda) -> bool {
    let x = acc.x.as_str();
    let y = acc.y.as_str();
    match classify_combiner(&acc.body, x, y) {
        Some(
            CombinerKind::Or
            | CombinerKind::And
            | CombinerKind::Xor
            | CombinerKind::Insert
            | CombinerKind::NatAdd
            | CombinerKind::NatMul
            | CombinerKind::Max
            | CombinerKind::Min,
        ) => true,
        // `insert(y, x)` is a recognized shape but NOT proper: the fold
        // step becomes `acc' = h(x) ∪ {acc}` — it nests the accumulator
        // inside the new element's set, so the result's nesting structure
        // encodes the traversal order. With elements a, b and base ∅:
        // a-then-b yields `b ∪ {a ∪ {∅}}`, b-then-a yields `a ∪ {b ∪ {∅}}`.
        // The permutation test refutes it with a concrete witness (see the
        // unit tests); classifying it proper would be unsound.
        Some(CombinerKind::InsertSwapped) | None => false,
    }
}

#[derive(Debug, PartialEq, Eq)]
enum CombinerKind {
    Or,
    And,
    Xor,
    Insert,
    /// `insert(y, x)` — the operand-swapped insert: recognized so the
    /// analyzer can name it, but order-*dependent* (see
    /// [`combiner_is_proper`]).
    InsertSwapped,
    NatAdd,
    NatMul,
    Max,
    Min,
}

fn classify_combiner(body: &Expr, x: &str, y: &str) -> Option<CombinerKind> {
    let is_var = |e: &Expr, name: &str| matches!(e, Expr::Var(v) if v == name);
    match body {
        // or: if x then true else y        (or symmetrically)
        Expr::If(c, t, e) => {
            if is_var(c, x) {
                // x as condition.
                match (&**t, &**e) {
                    (Expr::Bool(true), other) if is_var(other, y) => Some(CombinerKind::Or),
                    (other, Expr::Bool(false)) if is_var(other, y) => Some(CombinerKind::And),
                    // xor: if x then (if y then false else true) else y
                    (Expr::If(c2, t2, e2), other)
                        if is_var(other, y)
                            && is_var(c2, y)
                            && matches!(&**t2, Expr::Bool(false))
                            && matches!(&**e2, Expr::Bool(true)) =>
                    {
                        Some(CombinerKind::Xor)
                    }
                    _ => None,
                }
            } else if let Expr::Leq(a, b) = &**c {
                // max: if y ≤ x then x else y (or min symmetrically).
                let xy = is_var(a, y) && is_var(b, x);
                let yx = is_var(a, x) && is_var(b, y);
                match (&**t, &**e) {
                    (tt, ee) if xy && is_var(tt, x) && is_var(ee, y) => Some(CombinerKind::Max),
                    (tt, ee) if yx && is_var(tt, x) && is_var(ee, y) => Some(CombinerKind::Min),
                    _ => None,
                }
            } else {
                None
            }
        }
        Expr::Insert(e, s) if is_var(e, x) && is_var(s, y) => Some(CombinerKind::Insert),
        Expr::Insert(e, s) if is_var(e, y) && is_var(s, x) => Some(CombinerKind::InsertSwapped),
        Expr::NatAdd(a, b) if (is_var(a, x) && is_var(b, y)) || (is_var(a, y) && is_var(b, x)) => {
            Some(CombinerKind::NatAdd)
        }
        Expr::NatMul(a, b) if (is_var(a, x) && is_var(b, y)) || (is_var(a, y) && is_var(b, x)) => {
            Some(CombinerKind::NatMul)
        }
        _ => None,
    }
}

/// Syntactic check: every `set-reduce` in the expression (with calls expanded
/// against `program`) has a proper combiner, and no order-observing primitive
/// (`choose`, `rest`, `≤`, `list-reduce`) occurs.
pub fn provably_order_independent(program: &Program, expr: &Expr) -> bool {
    fn go(program: &Program, e: &Expr, seen: &mut Vec<String>) -> bool {
        match e {
            Expr::Choose(_) | Expr::Rest(_) | Expr::Leq(..) | Expr::ListReduce { .. } => {
                return false
            }
            Expr::SetReduce { app, acc, .. } => {
                if !combiner_is_proper(acc) {
                    return false;
                }
                if !go(program, &app.body, seen) || !go(program, &acc.body, seen) {
                    return false;
                }
            }
            Expr::Call(name, _) if !seen.contains(name) => {
                seen.push(name.clone());
                if let Some(def) = program.lookup(name) {
                    if !go(program, &def.body, seen) {
                        return false;
                    }
                }
            }
            _ => {}
        }
        e.children().iter().all(|c| go(program, c, seen))
    }
    go(program, expr, &mut Vec::new())
}

/// Randomised algebraic check that a combiner lambda is commutative and
/// associative on sampled boolean/atom/nat arguments. Evidence, not proof.
pub fn combiner_seems_commutative_associative(acc: &Lambda, samples: u32, seed: u64) -> bool {
    let program = Program::new(Dialect::full());
    let mut evaluator = Evaluator::new(&program, EvalLimits::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let apply = |evaluator: &mut Evaluator, a: &Value, b: &Value| -> Option<Value> {
        let env = Env::new()
            .bind(acc.x.clone(), a.clone())
            .bind(acc.y.clone(), b.clone());
        evaluator.eval(&acc.body, &env).ok()
    };
    for _ in 0..samples {
        let sample = |rng: &mut StdRng| -> Value {
            match rng.gen_range(0..3) {
                0 => Value::bool(rng.gen_bool(0.5)),
                1 => Value::atom(rng.gen_range(0..8)),
                _ => Value::nat(rng.gen_range(0..8)),
            }
        };
        let (a, b, c) = (sample(&mut rng), sample(&mut rng), sample(&mut rng));
        // Only compare when both orientations evaluate (ill-typed samples are
        // skipped rather than counted against the combiner).
        if let (Some(ab), Some(ba)) = (apply(&mut evaluator, &a, &b), apply(&mut evaluator, &b, &a))
        {
            if ab != ba {
                return false;
            }
            if let (Some(ab_c), Some(bc)) = (
                apply(&mut evaluator, &ab, &c),
                apply(&mut evaluator, &b, &c),
            ) {
                if let Some(a_bc) = apply(&mut evaluator, &a, &bc) {
                    if ab_c != a_bc {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Permutation testing: evaluate the query on the original environment and on
/// `trials` randomly renamed presentations of it, on `backend`; report a
/// dependence witness if any result fails to correspond.
pub fn permutation_test(
    backend: ExecBackend,
    program: &Program,
    expr: &Expr,
    env: &Env,
    domain_size: usize,
    trials: u64,
) -> OrderVerdict {
    // Lower the program and the query once; each trial gets a fresh
    // evaluator over the shared compiled form and re-evaluates the lowered
    // query (a renamed env binds the same names in the same order, which is
    // what `eval_lowered` requires).
    let compiled = Arc::new(program.compile());
    let mint = || {
        Evaluator::from_compiled(Arc::clone(&compiled), EvalLimits::default_budget())
            .with_backend(backend)
    };
    let mut evaluator = mint();
    let lowered = evaluator.lower(expr, env);
    let original = match evaluator.eval_lowered(&lowered, env) {
        Ok(v) => v,
        Err(_) => return OrderVerdict::Unknown,
    };
    for seed in 0..trials {
        let renaming = DomainRenaming::random(domain_size, seed);
        let renamed_env = renaming.apply_env(env);
        let mut evaluator = mint();
        match evaluator.eval_lowered(&lowered, &renamed_env) {
            Ok(renamed_result) => {
                if renaming.apply(&original) != renamed_result {
                    return OrderVerdict::ProvedDependent { witness_seed: seed };
                }
            }
            Err(_) => return OrderVerdict::Unknown,
        }
    }
    OrderVerdict::Unknown
}

/// The combined analysis: syntactic proof first, then permutation testing (on
/// `backend`) for a counterexample.
pub fn analyze_order_dependence(
    backend: ExecBackend,
    program: &Program,
    expr: &Expr,
    env: &Env,
    domain_size: usize,
    trials: u64,
) -> OrderVerdict {
    if provably_order_independent(program, expr) {
        return OrderVerdict::ProvedIndependent;
    }
    permutation_test(backend, program, expr, env, domain_size, trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srl_core::dsl::*;
    use srl_stdlib::derived::{member, union};
    use srl_stdlib::hom;

    fn atoms(items: impl IntoIterator<Item = u64>) -> Value {
        Value::set(items.into_iter().map(Value::atom))
    }

    #[test]
    fn proper_combiners_recognised() {
        assert!(combiner_is_proper(&lam("a", "b", or(var("a"), var("b")))));
        assert!(combiner_is_proper(&lam("a", "b", and(var("a"), var("b")))));
        assert!(combiner_is_proper(&lam(
            "a",
            "b",
            insert(var("a"), var("b"))
        )));
        assert!(combiner_is_proper(&lam(
            "a",
            "b",
            nat_add(var("a"), var("b"))
        )));
        assert!(combiner_is_proper(&lam(
            "a",
            "b",
            if_(leq(var("b"), var("a")), var("a"), var("b"))
        )));
        // "keep left" is not proper.
        assert!(!combiner_is_proper(&lam("a", "b", var("a"))));
        // Cons is not proper.
        assert!(!combiner_is_proper(&lam(
            "a",
            "b",
            cons(var("a"), var("b"))
        )));
    }

    #[test]
    fn nat_mul_is_proper_in_both_operand_orders() {
        assert!(combiner_is_proper(&lam(
            "a",
            "b",
            nat_mul(var("a"), var("b"))
        )));
        assert!(combiner_is_proper(&lam(
            "a",
            "b",
            nat_mul(var("b"), var("a"))
        )));
        // The randomised checker reaches the same verdict.
        assert!(combiner_seems_commutative_associative(
            &lam("a", "b", nat_mul(var("a"), var("b"))),
            64,
            4
        ));
    }

    #[test]
    fn swapped_insert_is_recognised_but_rejected() {
        // The shape is named by the classifier...
        assert_eq!(
            classify_combiner(&insert(var("b"), var("a")), "a", "b"),
            Some(CombinerKind::InsertSwapped)
        );
        // ...but it is not proper: `insert(acc, x)` nests the accumulator
        // inside each element, so the result encodes traversal order.
        assert!(!combiner_is_proper(&lam(
            "a",
            "b",
            insert(var("b"), var("a"))
        )));
        // The permutation test backs the rejection with a concrete witness:
        // folding set-valued elements with the swapped insert produces a
        // nesting that changes under a domain renaming.
        let p = Program::srl();
        let expr = set_reduce(
            var("S"),
            lam("x", "T", var("x")),
            lam("a", "b", insert(var("b"), var("a"))),
            empty_set(),
            empty_set(),
        );
        assert!(!provably_order_independent(&p, &expr));
        let env = Env::new().bind("S", Value::set([atoms([1]), atoms([2, 3])]));
        let verdict = analyze_order_dependence(ExecBackend::default(), &p, &expr, &env, 12, 16);
        assert!(matches!(verdict, OrderVerdict::ProvedDependent { .. }));
    }

    #[test]
    fn stdlib_queries_prove_independent() {
        let p = Program::srl();
        assert!(provably_order_independent(&p, &member(atom(1), var("S"))));
        assert!(provably_order_independent(&p, &union(var("A"), var("B"))));
        assert!(provably_order_independent(&p, &hom::even(var("S"))));
        assert!(provably_order_independent(&p, &hom::count(var("S"))));
    }

    #[test]
    fn order_observing_queries_do_not_prove() {
        let p = Program::srl();
        assert!(!provably_order_independent(
            &p,
            &hom::purple_first(var("S"), var("P"))
        ));
        assert!(!provably_order_independent(&p, &choose(var("S"))));
        assert!(!provably_order_independent(&p, &leq(atom(1), atom(2))));
    }

    #[test]
    fn algebraic_testing_agrees_with_syntax_on_common_cases() {
        assert!(combiner_seems_commutative_associative(
            &lam("a", "b", or(var("a"), var("b"))),
            64,
            1
        ));
        assert!(combiner_seems_commutative_associative(
            &lam("a", "b", nat_add(var("a"), var("b"))),
            64,
            2
        ));
        // Keep-left fails commutativity quickly.
        assert!(!combiner_seems_commutative_associative(
            &lam("a", "b", var("a")),
            64,
            3
        ));
    }

    #[test]
    fn permutation_test_finds_purple_first_witness() {
        let p = Program::srl();
        let env = Env::new().bind("S", atoms([2, 9])).bind("P", atoms([9]));
        let verdict = analyze_order_dependence(
            ExecBackend::default(),
            &p,
            &hom::purple_first(var("S"), var("P")),
            &env,
            12,
            16,
        );
        assert!(matches!(verdict, OrderVerdict::ProvedDependent { .. }));
    }

    #[test]
    fn permutation_test_cannot_refute_independent_queries() {
        let p = Program::srl();
        let env = Env::new().bind("S", atoms([2, 5, 9]));
        let verdict = analyze_order_dependence(
            ExecBackend::default(),
            &p,
            &hom::even(var("S")),
            &env,
            12,
            8,
        );
        assert_eq!(verdict, OrderVerdict::ProvedIndependent);
        // A query that is order-independent but not syntactically proper
        // (it uses choose twice in a way that cancels) stays Unknown rather
        // than being wrongly condemned.
        let cancelling = eq(choose(var("S")), choose(var("S")));
        let verdict =
            analyze_order_dependence(ExecBackend::default(), &p, &cancelling, &env, 12, 8);
        assert_eq!(verdict, OrderVerdict::Unknown);
    }
}
