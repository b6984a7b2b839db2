//! Differential tests: the sorted-vec set backend (`srl_core::SetRepr`)
//! against a `BTreeSet<Value>` oracle — the representation it replaced.
//!
//! The backend swap promised that nothing observable changes: membership,
//! insert deduplication (first-wins), the choose/rest ascending order, the
//! `set-reduce` fold order and every `EvalStats` counter. These tests drive
//! both structures through the same randomized operation sequences
//! (deterministic streams of the shared SplitMix64 `Gen`) and demand
//! exact agreement, including on partially-drained sets whose slice window
//! has advanced.

use std::collections::BTreeSet;
use std::sync::Arc;

use srl_core::dsl::*;
use srl_core::eval::eval_expr_with_stats;
use srl_core::{Env, EvalLimits, Lambda, SetRepr, Value};
use srl_integration_tests::Gen;

const CASES: u64 = 64;

/// A value of mixed shape: atoms (sometimes named, to exercise first-wins
/// deduplication of equal-but-distinguishable values), bools, nats,
/// pairs, and small sets of atoms (nesting exercises the recursive
/// `Value` order).
fn value(g: &mut Gen) -> Value {
    match g.below(6) {
        0 => Value::bool(g.below(2) == 0),
        1 => Value::atom(g.below(12)),
        2 => Value::named_atom(g.below(12), "n"),
        3 => Value::nat(g.below(40)),
        4 => Value::tuple([Value::atom(g.below(6)), Value::atom(g.below(6))]),
        _ => Value::set((0..g.below(4)).map(|_| Value::atom(g.below(8)))),
    }
}

fn elements(repr: &SetRepr) -> Vec<Value> {
    repr.iter().collect()
}

fn oracle_elements(oracle: &BTreeSet<Value>) -> Vec<Value> {
    oracle.iter().cloned().collect()
}

#[test]
fn insert_and_membership_agree_with_btreeset() {
    let mut g = Gen::new(11);
    for case in 0..CASES {
        let mut repr = SetRepr::new();
        let mut oracle: BTreeSet<Value> = BTreeSet::new();
        for step in 0..1 + g.below(30) {
            let v = value(&mut g);
            let novel_repr = repr.insert(v.clone());
            let novel_oracle = oracle.insert(v.clone());
            assert_eq!(
                novel_repr, novel_oracle,
                "case {case} step {step}: insert novelty differs for {v}"
            );
            assert_eq!(repr.len(), oracle.len(), "case {case} step {step}");
            let probe = value(&mut g);
            assert_eq!(
                repr.contains(&probe),
                oracle.contains(&probe),
                "case {case} step {step}: membership differs for {probe}"
            );
        }
        assert_eq!(
            elements(&repr),
            oracle_elements(&oracle),
            "case {case}: iteration order differs"
        );
        assert_eq!(repr.first(), oracle.iter().next().cloned(), "case {case}");
    }
}

#[test]
fn duplicate_inserts_keep_the_first_element_like_btreeset() {
    // `Value::atom(k)` and `Value::named_atom(k, …)` compare equal but
    // display differently, so which one the set keeps is observable.
    let mut g = Gen::new(12);
    for case in 0..CASES {
        let mut repr = SetRepr::new();
        let mut oracle: BTreeSet<Value> = BTreeSet::new();
        for _ in 0..12 {
            let k = g.below(4);
            let v = if g.below(2) == 0 {
                Value::atom(k)
            } else {
                Value::named_atom(k, format!("a{k}"))
            };
            repr.insert(v.clone());
            oracle.insert(v);
        }
        let got: Vec<String> = elements(&repr).iter().map(|v| format!("{v:?}")).collect();
        let want: Vec<String> = oracle_elements(&oracle)
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        assert_eq!(got, want, "case {case}: kept different representatives");
    }
}

#[test]
fn choose_rest_drain_agrees_with_btreeset_and_cow_is_invisible() {
    let mut g = Gen::new(13);
    for case in 0..CASES {
        let values: Vec<Value> = (0..g.below(20)).map(|_| value(&mut g)).collect();
        let mut repr: Arc<SetRepr> = Arc::new(values.iter().cloned().collect());
        let mut oracle: BTreeSet<Value> = values.iter().cloned().collect();
        let mut held: Vec<(Arc<SetRepr>, Vec<Value>)> = Vec::new();
        while !oracle.is_empty() {
            // Occasionally take a shared handle mid-drain: the later pops
            // must copy-on-write, leaving the handle's view frozen.
            if g.below(3) == 0 {
                held.push((Arc::clone(&repr), elements(&repr)));
            }
            let popped_repr = Arc::make_mut(&mut repr).pop_first();
            let min = oracle.iter().next().cloned().expect("non-empty");
            oracle.remove(&min);
            assert_eq!(popped_repr, Some(min), "case {case}: pop order differs");
            assert_eq!(elements(&repr), oracle_elements(&oracle), "case {case}");
        }
        assert_eq!(Arc::make_mut(&mut repr).pop_first(), None, "case {case}");
        for (handle, snapshot) in held {
            assert_eq!(
                elements(&handle),
                snapshot,
                "case {case}: a shared handle observed a later mutation"
            );
        }
    }
}

#[test]
fn set_reduce_fold_order_matches_btreeset_ascending_order() {
    // Collect the elements through the reduce accumulator into a list; the
    // accumulator meets elements in ascending order, so prepending yields
    // the descending list — exactly the oracle's order reversed.
    let collect = set_reduce(
        var("S"),
        Lambda::identity(),
        lam("x", "acc", cons(var("x"), var("acc"))),
        empty_list(),
        empty_set(),
    );
    let mut g = Gen::new(14);
    for case in 0..CASES {
        let values: Vec<Value> = (0..g.below(16)).map(|_| value(&mut g)).collect();
        let oracle: BTreeSet<Value> = values.iter().cloned().collect();
        let env = Env::new().bind("S", Value::set(values));
        let (folded, _) =
            eval_expr_with_stats(&collect, &env, EvalLimits::default()).expect("reduce evaluates");
        let want: Vec<Value> = oracle.iter().rev().cloned().collect();
        assert_eq!(
            folded,
            Value::list(want),
            "case {case}: fold order differs from the BTreeSet order"
        );
    }
}

#[test]
fn stats_are_identical_across_representation_states() {
    // The same logical set can sit in different physical states: freshly
    // collected, rebuilt by inserts, or a drained slice window (the result
    // of rest()). The cost model must not see the difference.
    let rebuild = set_reduce(
        var("S"),
        Lambda::identity(),
        lam("x", "acc", insert(var("x"), var("acc"))),
        empty_set(),
        empty_set(),
    );
    let mut g = Gen::new(15);
    for case in 0..CASES {
        let values: Vec<Value> = (0..1 + g.below(12)).map(|_| value(&mut g)).collect();
        let literal = Value::set(values.clone());

        let mut inserted = SetRepr::new();
        for v in &values {
            inserted.insert(v.clone());
        }

        // Drain one element through rest() and put it back with insert():
        // same contents, but the backing window has advanced.
        let (windowed, _) = eval_expr_with_stats(
            &insert(choose(var("S")), rest(var("S"))),
            &Env::new().bind("S", literal.clone()),
            EvalLimits::default(),
        )
        .expect("choose/rest/insert evaluates");

        let mut outcomes = Vec::new();
        for (state, input) in [
            ("literal", literal.clone()),
            ("inserted", Value::Set(Arc::new(inserted))),
            ("windowed", windowed),
        ] {
            assert_eq!(
                input, literal,
                "case {case}: {state} state differs as a value"
            );
            let env = Env::new().bind("S", input);
            let (value, stats) = eval_expr_with_stats(&rebuild, &env, EvalLimits::default())
                .expect("rebuild evaluates");
            outcomes.push((state, value, stats));
        }
        let (_, first_value, first_stats) = &outcomes[0];
        for (state, value, stats) in &outcomes {
            assert_eq!(value, first_value, "case {case}: result differs in {state}");
            assert_eq!(stats, first_stats, "case {case}: stats differ in {state}");
        }
    }
}
