//! E0 — evaluator overhead: isolates the representation costs the zero-copy
//! refactor (PR 1) and the sorted-vec set backend (PR 2) removed, on a
//! nested-set reduce (the worst case for deep cloning: every element is
//! itself a set).
//!
//! Measurements per size n (a set of n sets of n atoms):
//!
//! * `srl_rebuild_reduce` — the real evaluator running
//!   `set-reduce(S, id, insert, {}, {})` over a pre-compiled program,
//!   which clones every element into the accumulator. With `Arc`-shared
//!   payloads each clone is O(1).
//! * `native_share_sortedvec` — the same traversal hand-written against the
//!   live set backend (`SetRepr`): `elem.clone()` (reference-count bump) +
//!   binary-search insert into a sorted vector.
//! * `native_share_btreeset` — identical loop accumulating into a
//!   `BTreeSet<Value>`, the pre-PR-2 backend. The gap to
//!   `native_share_sortedvec` is the isolated node-churn cost the sorted
//!   vector removed.
//! * `native_deep_clone` — identical loop, but every element is copied
//!   structurally, emulating what the pre-PR-1 representation paid per
//!   iteration.
//!
//! A `rest_chain` pair does the same for `rest(rest(…))`: the slice-window
//! `pop_first` on a COW sorted vector versus the seed's rebuild of the set
//! minus its minimum each step (BTreeSet clone + remove).

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srl_core::ast::Lambda;
use srl_core::dsl::*;
use srl_core::eval::Evaluator;
use srl_core::limits::EvalLimits;
use srl_core::program::{Env, Program};
use srl_core::setrepr::SetRepr;
use srl_core::value::Value;

/// Structural copy of a value — the cost model of the pre-refactor
/// representation, where `clone()` copied every node.
fn deep_copy(v: &Value) -> Value {
    match v {
        Value::Bool(_) | Value::Atom(_) | Value::Nat(_) => v.clone(),
        Value::Tuple(items) => Value::tuple(items.iter().map(deep_copy)),
        Value::Set(items) => Value::set(items.iter().map(|e| deep_copy(&e))),
        Value::List(items) => Value::list(items.iter().map(deep_copy)),
    }
}

fn nested_set(n: u64) -> Value {
    Value::set((0..n).map(|i| Value::set((0..n).map(|j| Value::atom(i * n + j)))))
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e0_eval_overhead");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    // Compile once; the measured region is evaluation alone.
    let program = Program::new(srl_core::Dialect::full());
    let compiled = std::sync::Arc::new(program.compile());
    for n in [8u64, 16, 32] {
        let input = nested_set(n);
        let rebuild = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            empty_set(),
            empty_set(),
        );
        let env = Env::new().bind("S", input.clone());
        let mut ev = Evaluator::with_compiled(
            &program,
            std::sync::Arc::clone(&compiled),
            EvalLimits::benchmark(),
        )
        .expect("compiled from this program");
        let lowered = ev.lower(&rebuild, &env);
        group.bench_with_input(BenchmarkId::new("srl_rebuild_reduce", n), &n, |b, _| {
            b.iter(|| {
                ev.reset_stats();
                ev.eval_lowered(&lowered, &env).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("native_share_sortedvec", n), &n, |b, _| {
            b.iter(|| {
                let items = input.as_set().unwrap();
                let mut acc = SetRepr::new();
                for elem in items {
                    acc.insert(elem.clone());
                }
                acc.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("native_share_btreeset", n), &n, |b, _| {
            b.iter(|| {
                let items = input.as_set().unwrap();
                let mut acc: BTreeSet<Value> = BTreeSet::new();
                for elem in items {
                    acc.insert(elem.clone());
                }
                acc.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("native_deep_clone", n), &n, |b, _| {
            b.iter(|| {
                let items = input.as_set().unwrap();
                let mut acc = SetRepr::new();
                for elem in items {
                    acc.insert(deep_copy(&elem));
                }
                acc.len()
            })
        });
        // rest(rest(…)) until empty: slice-window pop_first vs the seed's
        // full rebuild per step (both native, so only the representation
        // cost differs — exactly two implementations of the evaluator's
        // `Rest` operator).
        let flat = Value::set((0..n * n).map(Value::atom));
        group.bench_with_input(BenchmarkId::new("rest_chain_cow", n), &n, |b, _| {
            b.iter(|| {
                let mut s = flat.clone();
                let mut steps = 0u64;
                while let Value::Set(ref mut items) = s {
                    if items.is_empty() {
                        break;
                    }
                    std::sync::Arc::make_mut(items).pop_first();
                    steps += 1;
                }
                steps
            })
        });
        group.bench_with_input(BenchmarkId::new("rest_chain_rebuild", n), &n, |b, _| {
            b.iter(|| {
                let mut s: BTreeSet<Value> = flat.as_set().unwrap().iter().collect();
                let mut steps = 0u64;
                while let Some(min) = s.iter().next().cloned() {
                    // The seed's rest(): copy the whole set, then remove.
                    let mut copy = s.clone();
                    copy.remove(&min);
                    s = copy;
                    steps += 1;
                }
                steps
            })
        });
        // Skewed bulk union over atom pairs (generic tuple storage): this
        // pins the galloping fast path of the in-place sorted-vector merge.
        // The long side has n*n elements, the short side 8 spread across
        // its range — above the skew threshold the merge locates the long
        // runs by exponential probe and moves them wholesale, so the
        // balanced variant (two halves of the same elements) is the
        // linear-merge contrast. Each iteration merges into a fresh copy of
        // the left operand, the path a shared accumulator takes
        // (`Arc::make_mut`, then in place).
        let pair = |i: u64| Value::tuple([Value::atom(i), Value::atom(i + 1)]);
        let long: SetRepr = {
            let mut s = SetRepr::new();
            for i in 0..n * n {
                s.insert(pair(2 * i));
            }
            s
        };
        let short: SetRepr = {
            let mut s = SetRepr::new();
            for k in 0..8u64 {
                s.insert(pair(2 * (k * (n * n / 8).max(1)) + 1));
            }
            s
        };
        let half = |r: std::ops::Range<u64>| {
            let mut s = SetRepr::new();
            for i in r {
                s.insert(pair(2 * i));
            }
            s
        };
        let (left, right) = (half(0..n * n / 2), half(n * n / 2..n * n));
        group.bench_with_input(BenchmarkId::new("skewed_merge_union", n), &n, |b, _| {
            b.iter(|| {
                let mut u = long.clone();
                u.merge_union(&short);
                u.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("balanced_merge_union", n), &n, |b, _| {
            b.iter(|| {
                let mut u = left.clone();
                u.merge_union(&right);
                u.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
