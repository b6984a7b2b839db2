//! E2 — Example 3.12: the exponential cost of set-height 2 (powerset), versus
//! the linear cost of a same-shaped set-height-1 query (rebuilding the set).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srl_core::eval::Evaluator;
use srl_core::limits::EvalLimits;
use srl_core::value::Value;
use srl_stdlib::blowup::{names, powerset_program};

fn bench(c: &mut Criterion) {
    // Compiled once; the measured region is evaluation alone.
    let program = powerset_program();
    let compiled = Arc::new(program.compile());
    let mut group = c.benchmark_group("e2_powerset");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    for n in [2u64, 4, 6, 8, 10] {
        let input = Value::set((0..n).map(Value::atom));
        let mut ev =
            Evaluator::with_compiled(&program, Arc::clone(&compiled), EvalLimits::benchmark())
                .expect("compiled from this program");
        group.bench_with_input(BenchmarkId::new("srl_powerset", n), &n, |b, _| {
            b.iter(|| {
                ev.reset_stats();
                ev.call(names::POWERSET, std::slice::from_ref(&input))
                    .unwrap()
            })
        });
        // Backend axis: the unsuffixed variant above runs the default
        // backend (the bytecode VM); this one pins the reference tree-walk.
        let mut tree =
            Evaluator::with_compiled(&program, Arc::clone(&compiled), EvalLimits::benchmark())
                .expect("compiled from this program")
                .with_backend(srl_core::ExecBackend::TreeWalk);
        group.bench_with_input(BenchmarkId::new("srl_powerset_tree", n), &n, |b, _| {
            b.iter(|| {
                tree.reset_stats();
                tree.call(names::POWERSET, std::slice::from_ref(&input))
                    .unwrap()
            })
        });
        // Par axis: the VM with a 4-worker pool. sift's inner fold threads
        // its accumulator through finsert's spine parameter, so the
        // interprocedural summary proves it a proper hom and it shards once
        // the input clears `PAR_WORK_THRESHOLD`; the outer fold stays
        // ordered (it passes its accumulator into sift's folded set).
        let mut par =
            Evaluator::with_compiled(&program, Arc::clone(&compiled), EvalLimits::benchmark())
                .expect("compiled from this program")
                .with_backend(srl_core::ExecBackend::vm_with_threads(4));
        group.bench_with_input(BenchmarkId::new("srl_powerset_par", n), &n, |b, _| {
            b.iter(|| {
                par.reset_stats();
                par.call(names::POWERSET, std::slice::from_ref(&input))
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("native_powerset", n), &n, |b, _| {
            b.iter(|| {
                let items: Vec<u64> = (0..n).collect();
                let mut subsets: Vec<Vec<u64>> = vec![vec![]];
                for &x in &items {
                    let mut extended: Vec<Vec<u64>> = subsets
                        .iter()
                        .cloned()
                        .map(|mut s| {
                            s.push(x);
                            s
                        })
                        .collect();
                    subsets.append(&mut extended);
                }
                subsets.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
