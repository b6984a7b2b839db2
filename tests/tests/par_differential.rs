//! Differential test: sequential vs. sharded execution of proper-hom folds.
//!
//! `ExecBackend::Vm { threads }` promises that the worker-pool width is
//! pure execution strategy: **identical `Value` results and byte-identical
//! `EvalStats`** for every thread count on every successful evaluation, and
//! matching error kinds on failures (`srl-core::parallel` documents how the
//! ordered shard merge reconstructs the sequential counters). This suite
//! drives `threads = 1` against a multi-thread pool over every srl-bench
//! query workload (E1–E9), verifies the parallel path actually *engages*
//! where it should (via the `Evaluator::parallel_folds` diagnostic) and
//! provably stays out where it must (order-sensitive folds, degenerate
//! shard counts), and stresses the budget-limit paths.

use std::sync::Arc;

use srl_core::bytecode::ReduceKind;
use srl_core::dsl::*;
use srl_core::parallel::PAR_WORK_THRESHOLD;
use srl_core::setrepr::with_atom_tier;
use srl_core::{
    Dialect, Env, EvalError, EvalLimits, EvalStats, Evaluator, ExecBackend, Expr, Lambda, Program,
    Value,
};
use srl_integration_tests::{atom_set, def_fold, expr_folds, root_fold, shard_cardinality};
use srl_stdlib::derived::{difference, forall, intersection, map_set, select, union};

/// The pool width the parallel side of every differential pair runs with.
/// Wider than the container's core count on purpose: correctness must not
/// depend on shards actually running concurrently.
const THREADS: usize = 4;

/// Runs `f` under the sequential VM and the pooled VM over one shared
/// compiled program; returns the two outcomes plus the pooled evaluator's
/// parallel-fold count.
#[allow(clippy::type_complexity)]
fn both(
    program: &Program,
    limits: EvalLimits,
    threads: usize,
    mut f: impl FnMut(&mut Evaluator) -> Result<Value, EvalError>,
) -> (
    Result<(Value, EvalStats), EvalError>,
    Result<(Value, EvalStats), EvalError>,
    u64,
) {
    let compiled = Arc::new(program.compile());
    let mut run = |backend: ExecBackend| {
        let mut ev = Evaluator::from_compiled(Arc::clone(&compiled), limits).with_backend(backend);
        let result = f(&mut ev).map(|v| (v, *ev.stats()));
        (result, ev.parallel_folds())
    };
    let (seq, seq_folds) = run(ExecBackend::vm());
    assert_eq!(seq_folds, 0, "threads=1 must never shard");
    let (par, par_folds) = run(ExecBackend::vm_with_threads(threads));
    (seq, par, par_folds)
}

/// Asserts value + stats byte-identity between 1 and `THREADS` threads;
/// returns the value and whether any fold was sharded.
fn assert_identical(
    program: &Program,
    limits: EvalLimits,
    label: &str,
    f: impl FnMut(&mut Evaluator) -> Result<Value, EvalError>,
) -> (Value, u64) {
    let (seq, par, par_folds) = both(program, limits, THREADS, f);
    let (seq_value, seq_stats) = seq.unwrap_or_else(|e| panic!("{label}: sequential failed: {e}"));
    let (par_value, par_stats) = par.unwrap_or_else(|e| panic!("{label}: parallel failed: {e}"));
    assert_eq!(seq_value, par_value, "{label}: values differ");
    assert_eq!(seq_stats, par_stats, "{label}: EvalStats differ");
    (seq_value, par_folds)
}

fn assert_expr_identical(program: &Program, expr: &Expr, env: &Env, label: &str) -> (Value, u64) {
    assert_identical(program, EvalLimits::benchmark(), label, |ev| {
        ev.eval(expr, env)
    })
}

/// Asserts both thread counts fail with the same error kind; returns the
/// pooled evaluator's sharded-fold count.
fn assert_same_error(
    program: &Program,
    limits: EvalLimits,
    label: &str,
    f: impl FnMut(&mut Evaluator) -> Result<Value, EvalError>,
) -> u64 {
    let (seq, par, par_folds) = both(program, limits, THREADS, f);
    let seq_err = match seq {
        Err(e) => e,
        Ok((v, _)) => panic!("{label}: sequential unexpectedly succeeded with {v}"),
    };
    let par_err = match par {
        Err(e) => e,
        Ok((v, _)) => panic!("{label}: parallel unexpectedly succeeded with {v}"),
    };
    assert_eq!(
        std::mem::discriminant(&seq_err),
        std::mem::discriminant(&par_err),
        "{label}: error kinds differ (seq: {seq_err:?}, par: {par_err:?})"
    );
    par_folds
}

// ---------------------------------------------------------------------------
// The srl-bench query workloads, E1–E9: thread count must be unobservable.
// ---------------------------------------------------------------------------

#[test]
fn e1_apath_agrees() {
    use srl_stdlib::agap::{apath_program, names};
    use workloads::altgraph::AlternatingGraph;

    let program = apath_program();
    for n in [4usize, 6] {
        let graph = AlternatingGraph::random(n, 0.25, 7 + n as u64);
        let args = [graph.nodes_value(), graph.edges_value(), graph.ands_value()];
        assert_identical(&program, EvalLimits::benchmark(), "E1 APATH", |ev| {
            ev.call(names::APATH, &args)
        });
    }
}

/// The fewest atoms whose powerset runs a sift fold at or above the gate.
/// Folding in the `k`-th atom sifts the `2^(k-1)` subsets of the atoms
/// before it, so the last sift traverses `2^(n-1)` subsets.
fn powerset_shard_atoms(program: &Program) -> u64 {
    use srl_stdlib::blowup::names;

    let subsets = shard_cardinality(def_fold(program, names::SIFT).unit_cost);
    1 + u64::from(subsets.next_power_of_two().trailing_zeros())
}

#[test]
fn e2_powerset_agrees() {
    use srl_stdlib::blowup::{names, powerset_program};

    let program = powerset_program();
    let sharded = powerset_shard_atoms(&program);
    for n in [0u64, 1, 3, sharded] {
        let input = atom_set(0..n);
        let (v, par_folds) =
            assert_identical(&program, EvalLimits::default(), "E2 powerset", |ev| {
                ev.call(names::POWERSET, std::slice::from_ref(&input))
            });
        assert_eq!(v.len(), Some(1 << n));
        if n == sharded {
            // The headline assertion of the interprocedural summary: sift's
            // call-threaded fold (through finsert's spine) is proved a
            // proper hom and actually reaches the pool once the inner sets
            // clear the work threshold.
            assert!(
                par_folds > 0,
                "E2 n={n} must engage the pool (call-threaded spine proved), got 0 sharded folds"
            );
        }
    }
}

#[test]
fn e2_powerset_is_identical_across_pool_widths() {
    use srl_stdlib::blowup::{names, powerset_program};

    // Byte-identity must hold at every pool width, not just the suite's
    // default pair: 2 and 4 threads partition the inner sift folds
    // differently, so each width exercises a different merge shape.
    let program = powerset_program();
    let input = atom_set(0..powerset_shard_atoms(&program));
    let mut outcomes = Vec::new();
    for threads in [1usize, 2, 4] {
        let (seq, par, par_folds) = both(&program, EvalLimits::default(), threads.max(2), |ev| {
            ev.call(names::POWERSET, std::slice::from_ref(&input))
        });
        let which = if threads == 1 { seq } else { par };
        let (value, stats) = which.unwrap_or_else(|e| panic!("E2 threads={threads} failed: {e}"));
        if threads > 1 {
            assert!(par_folds > 0, "E2 threads={threads} must shard");
        }
        outcomes.push((value, stats));
    }
    let (v1, s1) = &outcomes[0];
    for (i, (v, s)) in outcomes.iter().enumerate().skip(1) {
        assert_eq!(v1, v, "E2 value differs at width index {i}");
        assert_eq!(s1, s, "E2 EvalStats differ at width index {i}");
    }
}

#[test]
fn e3_basrl_arithmetic_agrees() {
    use srl_stdlib::arith::{arithmetic_program, domain, names};

    let program = arithmetic_program();
    let d = domain(16);
    for (name, extra) in [
        (names::ADD, vec![5u64, 4]),
        (names::MULT, vec![3, 4]),
        (names::BIT, vec![1, 5]),
    ] {
        let mut args = vec![d.clone()];
        args.extend(extra.iter().map(|&x| Value::atom(x)));
        assert_identical(&program, EvalLimits::benchmark(), name, |ev| {
            ev.call(name, &args)
        });
    }
}

#[test]
fn e4_permutation_product_agrees() {
    use srl_stdlib::perm::{names, padded_domain, perm_program};
    use workloads::permutation::IteratedProductInstance;

    let program = perm_program();
    let n = 6usize;
    let instance = IteratedProductInstance::random(n, n, 11 + n as u64);
    let args = [
        padded_domain(&instance),
        instance.to_srl_value(),
        Value::atom(2),
    ];
    assert_identical(&program, EvalLimits::benchmark(), "E4 IP", |ev| {
        ev.call(names::IP, &args)
    });
}

#[test]
fn e5_tc_dtc_agree_and_shard() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    let program = Program::new(Dialect::full());
    // Each pivot's join filters the cartesian square of the closure so
    // far, which holds at least the `n` reflexive pairs. From the `n` whose
    // square clears the gate, every join shards.
    let filter_cost = expr_folds(&program, &queries::tc_query(), &["D", "E"])
        .into_iter()
        .find(|r| matches!(r.kind, ReduceKind::Filter { .. }))
        .expect("the pivot join filters its product")
        .unit_cost;
    let pairs = shard_cardinality(filter_cost);
    let sharded = (1..).find(|n| n * n >= pairs).unwrap() as usize;
    // The report's random graphs (n = 6, 14) check agreement. At the
    // sharded size a perfect matching keeps the closure, and so the test,
    // small.
    let graphs = [6usize, 14]
        .map(|n| (n, Digraph::random(n, 2.0 / n as f64, 23 + n as u64)))
        .into_iter()
        .chain([(
            sharded,
            Digraph::new(sharded, (0..sharded / 2).map(|i| (2 * i, 2 * i + 1))),
        )]);
    for (n, g) in graphs {
        let env = Env::new()
            .bind("D", g.vertices_value())
            .bind("E", g.edges_value());
        for (label, expr) in [
            ("E5 TC", queries::tc_query()),
            ("E5 DTC", queries::dtc_query()),
        ] {
            let (_, par_folds) = assert_identical(&program, EvalLimits::benchmark(), label, |ev| {
                let lowered = ev.lower(&expr, &env);
                ev.eval_lowered(&lowered, &env)
            });
            // The select-over-cartesian folds clear the work threshold at
            // this size: the pool really engages, it is not quietly falling
            // back to sequential.
            if n == sharded {
                assert!(par_folds > 0, "{label}: expected sharded folds at n={n}");
            }
        }
    }
}

#[test]
fn e6_primrec_and_lrl_doubling_agree() {
    use machines::primrec::library;
    use srl_stdlib::blowup::{lrl_doubling_program, names as blow_names};
    use srl_stdlib::primrec_compile::{compile, encode_nat};

    let add = compile(&library::add()).expect("add compiles");
    let args = [encode_nat(5), encode_nat(3)];
    let entry = add.entry.clone();
    assert_identical(&add.program, EvalLimits::benchmark(), "E6 PR add", |ev| {
        ev.call(&entry, &args)
    });

    let doubling = lrl_doubling_program();
    let input = Value::list((0..5u64).map(Value::atom));
    assert_identical(&doubling, EvalLimits::default(), "E6 LRL doubling", |ev| {
        ev.call(blow_names::DOUBLING, std::slice::from_ref(&input))
    });
}

#[test]
fn e7_tm_simulation_agrees() {
    use machines::tm::library::{even_parity, SYM_A, SYM_B};
    use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};

    let program = compile(&even_parity());
    for n in [4usize, 16] {
        let input: Vec<u8> = (0..n)
            .map(|i| if i % 3 == 0 { SYM_A } else { SYM_B })
            .collect();
        let args = [position_domain(n), encode_input(&input)];
        assert_identical(&program, EvalLimits::benchmark(), "E7 accepts", |ev| {
            ev.call(names::ACCEPTS, &args)
        });
    }
}

#[test]
fn e8_order_dependence_probes_agree() {
    use srl_stdlib::hom;

    let program = Program::srl();
    let env = Env::new()
        .bind("S", atom_set([0, 2, 4, 6]))
        .bind("P", atom_set([6]));
    assert_expr_identical(
        &program,
        &hom::purple_first(var("S"), var("P")),
        &env,
        "E8 purple_first",
    );
    assert_expr_identical(&program, &hom::even(var("S")), &env, "E8 even");
}

#[test]
fn e9_relational_queries_agree() {
    use srl_bench::queries;
    use workloads::tables::CompanyDatabase;

    let program = Program::new(Dialect::full());
    let db = CompanyDatabase::generate(64, 16, 4, 47);
    let env = Env::new()
        .bind("EMP", db.employees_value())
        .bind("DEPT", db.departments_value());
    assert_expr_identical(&program, &queries::company_join(), &env, "E9 join");
    assert_expr_identical(
        &program,
        &queries::employees_in_department(db.departments[0].id),
        &env,
        "E9 select/project",
    );
}

// ---------------------------------------------------------------------------
// Engagement: the hom kinds really shard (per kind), proven by the
// diagnostic counter — and the stats still match byte-for-byte.
// ---------------------------------------------------------------------------

/// A set big and expensive enough that every hom kind clears
/// `PAR_WORK_THRESHOLD`: `S` is sized from the cheapest fold of
/// [`hom_kind_cases`] (each kind's lambda hides a nested membership fold,
/// so its static unit cost is high).
fn big_env() -> Env {
    let program = Program::srl();
    let cost = hom_kind_cases()
        .iter()
        .map(|(_, expr)| root_fold(&program, expr, &["S", "T"]).unit_cost)
        .min()
        .expect("cases are listed");
    Env::new()
        .bind("S", atom_set((0..shard_cardinality(cost)).map(|i| i * 3)))
        .bind("T", atom_set((0..48).map(|i| i * 5)))
}

/// One fold over `S` per shardable kind, each testing membership in `T`.
fn hom_kind_cases() -> Vec<(&'static str, Expr)> {
    vec![
        // Filter: select(S, member(x, T)) — intersection's fused shape.
        ("filter", intersection(var("S"), var("T"))),
        ("filter-negated", difference(var("S"), var("T"))),
        // BoolAcc: forall(S, member(x, T)).
        (
            "bool-acc",
            forall(
                var("S"),
                lam("x", "t", srl_stdlib::derived::member(var("x"), var("t"))),
                var("T"),
            ),
        ),
        // InsertApp: map with a membership test inside the built tuple.
        (
            "insert-app",
            map_set(
                var("S"),
                lam(
                    "x",
                    "t",
                    tuple([var("x"), srl_stdlib::derived::member(var("x"), var("t"))]),
                ),
                var("T"),
            ),
        ),
        // Local spine: branching insert bodies into the accumulator — a
        // Generic fold the spine proof upgrades to a proper hom.
        (
            "local-spine",
            set_reduce(
                var("S"),
                lam(
                    "x",
                    "t",
                    tuple([var("x"), srl_stdlib::derived::member(var("x"), var("t"))]),
                ),
                lam(
                    "p",
                    "acc",
                    if_(
                        sel(var("p"), 2),
                        insert(tuple([sel(var("p"), 1), sel(var("p"), 1)]), var("acc")),
                        insert(sel(var("p"), 1), var("acc")),
                    ),
                ),
                empty_set(),
                var("T"),
            ),
        ),
    ]
}

#[test]
fn each_hom_kind_shards_and_stays_identical() {
    let program = Program::srl();
    let env = big_env();
    for (label, expr) in hom_kind_cases() {
        let (_, par_folds) = assert_expr_identical(&program, &expr, &env, label);
        assert!(par_folds > 0, "{label}: parallel path did not engage");
    }

    // Accumulators that cross `ACCUMULATOR_WEIGHT_CAP` (4096): every
    // set-building kind notes the capped weight, 4097, on every engine,
    // pool width and tier setting. The apps are cheap (no nested member
    // scan) so the tree-walk stays fast at this size.
    let program = Program::srl().define("grow", ["x", "T"], insert(var("x"), var("T")));
    let pair_spine = lam(
        "p",
        "acc",
        if_(
            sel(var("p"), 2),
            insert(sel(var("p"), 1), var("acc")),
            insert(tuple([sel(var("p"), 1)]), var("acc")),
        ),
    );
    let flagged = lam("x", "t", tuple([var("x"), leq(var("t"), var("x"))]));
    let cap_cases: Vec<(&str, Expr)> = vec![
        (
            "insert-app",
            map_set(
                var("S"),
                lam("x", "t", tuple([var("x"), var("t")])),
                atom(0),
            ),
        ),
        (
            "filter",
            select(var("S"), lam("x", "t", leq(var("t"), var("x"))), atom(0)),
        ),
        ("union", union(var("S"), var("T"))),
        (
            "local-spine",
            set_reduce(var("S"), flagged, pair_spine, empty_set(), atom(2000)),
        ),
        (
            "call-spine",
            set_reduce(
                var("S"),
                Lambda::identity(),
                lam("x", "acc", call("grow", [var("x"), var("acc")])),
                empty_set(),
                empty_set(),
            ),
        ),
    ];
    // `S` crosses the cap and is large enough that every kind but the
    // never-sharded union also clears the gate.
    let n = cap_cases
        .iter()
        .filter(|(label, _)| *label != "union")
        .map(|(_, expr)| shard_cardinality(root_fold(&program, expr, &["S", "T"]).unit_cost))
        .max()
        .expect("cases are listed")
        .max(4200);
    let cap_env = || {
        Env::new()
            .bind("S", atom_set(0..n))
            .bind("T", atom_set(n..n + 100))
    };
    for (label, expr) in cap_cases {
        let runs = engine_matrix(&program, |ev| {
            ev.eval(&expr, &cap_env()).map(|v| (v, *ev.stats()))
        });
        let (first, reference, _) = &runs[0];
        let (_, stats) = reference
            .as_ref()
            .unwrap_or_else(|e| panic!("{label} on {first}: {e}"));
        assert_eq!(stats.max_accumulator_weight, 4097, "{label}: capped weight");
        for (config, run, sharded) in &runs[1..] {
            assert_eq!(run, reference, "{label}: {config} differs from {first}");
            // The fused union is one bulk merge and never shards; every
            // other kind takes the shard merge on a pool.
            let pooled = config.starts_with("vm[2]") || config.starts_with("vm[4]");
            assert_eq!(
                *sharded > 0,
                pooled && label != "union",
                "{label}: {config}"
            );
        }
    }
}

/// Runs `f` on the tree-walk and the VM at 1, 2 and 4 threads, each with
/// the columnar tiers on and off (inputs built by `f` under that setting);
/// returns every outcome, labelled, with its sharded-fold count.
fn engine_matrix<R>(
    program: &Program,
    mut f: impl FnMut(&mut Evaluator) -> R,
) -> Vec<(String, R, u64)> {
    let compiled = Arc::new(program.compile());
    let mut runs = Vec::new();
    for tier_on in [true, false] {
        with_atom_tier(tier_on, || {
            for (name, backend) in [
                ("tree", ExecBackend::TreeWalk),
                ("vm[1]", ExecBackend::vm()),
                ("vm[2]", ExecBackend::vm_with_threads(2)),
                ("vm[4]", ExecBackend::vm_with_threads(4)),
            ] {
                let mut ev =
                    Evaluator::from_compiled(Arc::clone(&compiled), EvalLimits::benchmark())
                        .with_backend(backend);
                let result = f(&mut ev);
                runs.push((
                    format!("{name} tier={tier_on}"),
                    result,
                    ev.parallel_folds(),
                ));
            }
        });
    }
    runs
}

#[test]
fn local_spine_over_a_non_set_base_fails_like_the_tree_walk() {
    // The spine's first insert meets the boolean base: a shape error after
    // one iteration's charges, identical on every engine and tier.
    let program = Program::srl();
    let expr = set_reduce(
        var("S"),
        Lambda::identity(),
        lam(
            "x",
            "acc",
            if_(
                leq(var("x"), atom(5)),
                insert(var("x"), var("acc")),
                insert(tuple([var("x")]), var("acc")),
            ),
        ),
        bool_(false),
        empty_set(),
    );
    let runs = engine_matrix(&program, |ev| {
        let err = ev
            .eval(&expr, &Env::new().bind("S", atom_set(0..5000)))
            .expect_err("insert into a boolean");
        (err, *ev.last_error_stats().expect("partial stats"))
    });
    let (first, (_, reference), _) = &runs[0];
    assert_eq!(reference.reduce_iterations, 1, "{reference:?}");
    for (config, (err, stats), sharded) in &runs {
        assert!(
            matches!(
                err,
                EvalError::Shape {
                    operator: "insert",
                    ..
                }
            ),
            "{config}: {err:?}"
        );
        assert_eq!(*sharded, 0, "{config}: a non-set base never shards");
        assert_eq!(stats, reference, "{config} vs {first}: partial stats");
    }
}

#[test]
fn named_atom_first_wins_survives_shard_merges() {
    // Equal-comparing values that differ only in display (named vs. plain
    // atoms): value equality cannot see the difference, so this test
    // compares the *printed* results. The projection collides every third
    // element onto the same atom rank under a different name; sequential
    // first-wins keeps the copy from the earliest element, and the ordered
    // shard merge must keep exactly the same copy across shard boundaries.
    let program = Program::srl();
    let expr = map_set(var("S"), lam("x", "t", sel(var("x"), 2)), empty_set());
    let n = shard_cardinality(root_fold(&program, &expr, &["S"]).unit_cost);
    let pairs = Value::set(
        (0..n).map(|i| Value::tuple([Value::atom(i), Value::named_atom(i / 3, format!("v{i}"))])),
    );
    let env = Env::new().bind("S", pairs);
    let compiled = Arc::new(program.compile());
    let mut shown = Vec::new();
    for backend in [ExecBackend::vm(), ExecBackend::vm_with_threads(THREADS)] {
        let mut ev = Evaluator::from_compiled(Arc::clone(&compiled), EvalLimits::benchmark())
            .with_backend(backend);
        let v = ev.eval(&expr, &env).expect("projection evaluates");
        if backend != ExecBackend::vm() {
            assert!(ev.parallel_folds() > 0, "projection fold should shard");
        }
        shown.push(format!("{v}"));
    }
    assert_eq!(
        shown[0], shown[1],
        "displayed copies drifted across the merge"
    );
    assert!(shown[0].contains("v0#0"), "{}", shown[0]);
}

#[test]
fn the_gate_shards_from_exactly_par_work_threshold() {
    // An insert-app fold whose app is four instructions, so its unit cost
    // (4 + 4) divides the gate and one cardinality lands exactly on it.
    // One element fewer, `PAR_WORK_THRESHOLD - 8` units, is the most work
    // below the gate this fold can have: it must stay sequential, and the
    // gate itself must shard.
    let program = Program::srl();
    let expr = map_set(
        var("S"),
        lam("x", "t", tuple([var("x"), var("x"), var("t")])),
        atom(0),
    );
    let fold = root_fold(&program, &expr, &["S"]);
    assert!(
        matches!(fold.kind, ReduceKind::InsertApp { .. }),
        "{:?}",
        fold.kind
    );
    let cost = u64::from(fold.unit_cost);
    let at = shard_cardinality(fold.unit_cost);
    assert_eq!(at * cost, PAR_WORK_THRESHOLD, "unit cost {cost}");
    for n in [at - 1, at] {
        let env = Env::new().bind("S", atom_set(0..n));
        let (seq, par, par_folds) = both(&program, EvalLimits::benchmark(), 2, |ev| {
            ev.eval(&expr, &env)
        });
        let seq = seq.unwrap_or_else(|e| panic!("n={n}: sequential failed: {e}"));
        let par = par.unwrap_or_else(|e| panic!("n={n}: pooled failed: {e}"));
        assert_eq!(seq, par, "n={n}: value or EvalStats differ");
        if n * cost < PAR_WORK_THRESHOLD {
            assert_eq!(par_folds, 0, "{} units is below the gate", n * cost);
        } else {
            assert!(par_folds > 0, "{} units is at the gate", n * cost);
        }
    }
}

// ---------------------------------------------------------------------------
// Adversarial: order-sensitive folds must stay sequential.
// ---------------------------------------------------------------------------

/// Scan fold (keep-last-match): order-sensitive, `FoldClass::Ordered`.
fn scan_fold() -> Expr {
    set_reduce(
        var("T"),
        lam(
            "c",
            "p",
            tuple([sel(var("c"), 2), eq(sel(var("c"), 1), var("p"))]),
        ),
        lam(
            "pr",
            "acc",
            if_(sel(var("pr"), 2), sel(var("pr"), 1), var("acc")),
        ),
        atom(99),
        var("p"),
    )
}

/// Generic fold (cons-collect): order-sensitive, `FoldClass::Ordered`.
fn cons_collect_fold() -> Expr {
    set_reduce(
        var("S"),
        Lambda::identity(),
        lam("x", "acc", cons(var("x"), var("acc"))),
        empty_list(),
        empty_set(),
    )
}

#[test]
fn non_hom_folds_never_shard() {
    let program = Program::new(Dialect::full());
    let compiled = program.compile();

    // Compile-time: the disassembler shows the FoldClass the executor obeys.
    let scan_lowered = compiled.lower_expr(&scan_fold(), &["T", "p"]);
    let scan_text = srl_syntax::disasm_lowered(&compiled, &scan_lowered);
    assert!(
        scan_text.contains("reduce[scan") && scan_text.contains("class=ordered"),
        "scan fold must be classified ordered:\n{scan_text}"
    );
    let generic_lowered = compiled.lower_expr(&cons_collect_fold(), &["S"]);
    let generic_text = srl_syntax::disasm_lowered(&compiled, &generic_lowered);
    assert!(
        generic_text.contains("reduce[generic") && generic_text.contains("class=ordered"),
        "cons-collect fold must be classified ordered:\n{generic_text}"
    );
    // And the hom shapes really carry the splittable class.
    let filter_lowered = compiled.lower_expr(&intersection(var("S"), var("T")), &["S", "T"]);
    let filter_text = srl_syntax::disasm_lowered(&compiled, &filter_lowered);
    assert!(
        filter_text.contains("class=proper-hom"),
        "intersection must be classified proper-hom:\n{filter_text}"
    );

    // Run-time: even at a wide pool and large inputs the ordered folds
    // never engage the pool (and results match trivially).
    let tuples =
        Value::set((0..600u64).map(|i| Value::tuple([Value::atom(i), Value::atom(i * 2)])));
    let env = Env::new()
        .bind("T", tuples)
        .bind("p", Value::atom(17))
        .bind("S", atom_set(0..600));
    for (label, expr) in [("scan", scan_fold()), ("generic", cons_collect_fold())] {
        let (_, par_folds) = assert_expr_identical(&program, &expr, &env, label);
        assert_eq!(par_folds, 0, "{label}: ordered fold must not shard");
    }
}

// ---------------------------------------------------------------------------
// Shard-count edge cases and nested-fold stress under budgets.
// ---------------------------------------------------------------------------

#[test]
fn shard_count_edge_cases_agree() {
    let program = Program::srl();
    for n in [0u64, 1, 3] {
        // Fewer elements than threads (and the empty/singleton degenerate
        // cases): sequential fallback or degenerate sharding, either way
        // byte-identical.
        let env = Env::new()
            .bind("S", atom_set(0..n))
            .bind("T", atom_set(0..((n * 7) % 11)));
        for (label, expr) in [
            ("edge intersection", intersection(var("S"), var("T"))),
            ("edge union", union(var("S"), var("T"))),
            (
                "edge forall",
                forall(
                    var("S"),
                    lam("x", "t", srl_stdlib::derived::member(var("x"), var("t"))),
                    var("T"),
                ),
            ),
        ] {
            assert_expr_identical(&program, &expr, &env, &format!("{label} n={n}"));
        }
    }
    // One more: n exactly equal to the pool width.
    let env = Env::new()
        .bind("S", atom_set(0..THREADS as u64))
        .bind("T", atom_set(0..3));
    assert_expr_identical(
        &program,
        &intersection(var("S"), var("T")),
        &env,
        "n == threads",
    );
}

#[test]
fn nested_hom_folds_agree_under_limits() {
    // An outer insert-app fold whose app runs an inner filter fold per
    // element: the outer fold shards, the inner folds run sequentially on
    // the workers — under a real budget, with byte-identical stats.
    let program = Program::srl();
    let expr = set_reduce(
        var("S"),
        lam("x", "t", intersection(var("t"), var("t"))),
        lam("inner", "acc", insert(var("inner"), var("acc"))),
        empty_set(),
        var("T"),
    );
    let n = shard_cardinality(root_fold(&program, &expr, &["S", "T"]).unit_cost);
    let env = Env::new()
        .bind("S", atom_set(0..n))
        .bind("T", atom_set(0..24));
    let limits = EvalLimits::default();
    let (_, par_folds) =
        assert_identical(&program, limits, "nested folds", |ev| ev.eval(&expr, &env));
    assert!(par_folds > 0, "outer fold should shard");

    // The same program against budgets that cross mid-fold: the error kind
    // must match the sequential run's (partial counters may differ).
    for (label, limits) in [
        (
            "nested step limit",
            EvalLimits::default().with_max_steps(5_000),
        ),
        (
            "nested size limit",
            EvalLimits::default().with_max_value_weight(40),
        ),
    ] {
        assert_same_error(&program, limits, label, |ev| ev.eval(&expr, &env));
    }
}

#[test]
fn limit_and_shape_error_kinds_agree() {
    let program = Program::srl();
    let env = big_env();
    // Shape error deep in a sharded fold: the app result of a bool-acc is
    // not a boolean for exactly one element.
    let poisoned = set_reduce(
        var("S"),
        lam(
            "x",
            "t",
            if_(
                eq(var("x"), atom(141)),
                tuple([var("x")]),
                srl_stdlib::derived::member(var("x"), var("t")),
            ),
        ),
        lam("h", "acc", or(var("h"), var("acc"))),
        bool_(false),
        var("T"),
    );
    let cases = [
        ("poisoned bool-acc", EvalLimits::benchmark(), poisoned),
        // Step limit crossing inside a sharded filter fold.
        (
            "sharded step limit",
            EvalLimits::default().with_max_steps(3_000),
            intersection(var("S"), var("T")),
        ),
        // Allocation limit crossing inside a sharded map fold.
        (
            "sharded size limit",
            EvalLimits::default().with_max_value_weight(64),
            map_set(
                var("S"),
                lam(
                    "x",
                    "t",
                    tuple([var("x"), srl_stdlib::derived::member(var("x"), var("t"))]),
                ),
                var("T"),
            ),
        ),
    ];
    for (label, limits, expr) in cases {
        let par_folds = assert_same_error(&program, limits, label, |ev| ev.eval(&expr, &env));
        // The failure must come from inside the pool, not from a fold that
        // quietly ran sequentially below the gate.
        assert!(par_folds > 0, "{label}: the failing fold did not shard");
    }
}

#[test]
fn tree_walk_still_matches_the_pooled_vm() {
    // Transitivity spot-check across the full engine matrix: tree-walk,
    // sequential VM, pooled VM — one workload, three engines, one answer.
    let program = Program::srl();
    let env = big_env();
    let expr = intersection(var("S"), var("T"));
    let compiled = Arc::new(program.compile());
    let mut results = Vec::new();
    for backend in [
        ExecBackend::TreeWalk,
        ExecBackend::vm(),
        ExecBackend::vm_with_threads(THREADS),
    ] {
        let mut ev = Evaluator::from_compiled(Arc::clone(&compiled), EvalLimits::benchmark())
            .with_backend(backend);
        let v = ev.eval(&expr, &env).expect("evaluates");
        results.push((v, *ev.stats()));
        if let ExecBackend::Vm { threads: 2.. } = backend {
            assert!(ev.parallel_folds() > 0, "the pooled VM must shard");
        }
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}
