//! Differential test: sequential vs. sharded execution of proper-hom folds.
//!
//! `ExecBackend::Vm { threads }` promises that the worker-pool width is
//! pure execution strategy: **identical `Value` results and byte-identical
//! `EvalStats`** for every thread count on every successful evaluation, and
//! an identical `EvalError` on failures (`srl-core::parallel` documents how
//! the ordered shard merge reconstructs the sequential counters). Every case
//! runs through the shared engine matrix (`srl_integration_tests::Matrix`),
//! whose pooled engines are the VM at 2 and 4 threads. This suite checks
//! that the parallel path actually *engages* where it should (the matrix's
//! per-run shard counts) and provably stays out where it must
//! (order-sensitive folds, degenerate shard counts), and that a fold failing
//! inside the pool leaves the sequential run's partial counters.

use srl_core::bytecode::ReduceKind;
use srl_core::dsl::*;
use srl_core::parallel::PAR_WORK_THRESHOLD;
use srl_core::{Dialect, Env, EvalError, EvalLimits, ExecBackend, Expr, Lambda, Program, Value};
use srl_integration_tests::{
    atom_set, def_fold, expr_folds, root_fold, shard_cardinality, Matrix, Run, Runs,
};
use srl_stdlib::derived::{difference, forall, intersection, map_set, select, union};

/// Asserts that every pooled run sharded at least one fold.
fn assert_pooled_shard(label: &str, runs: &Runs) {
    for run in runs.runs.iter().filter(|r| r.pooled()) {
        assert!(run.sharded > 0, "{label} [{}]: no fold sharded", run.config);
    }
}

/// Asserts that the pooled VMs' partial statistics equal the sequential
/// VM's under the same tier setting, in every counter but
/// `max_accumulator_weight`: a sharded fold notes its own accumulator
/// weight only after a full merge.
fn assert_pooled_partials_match_sequential(label: &str, runs: &Runs) {
    let partial = |run: &Run| {
        run.partial
            .unwrap_or_else(|| panic!("{label} [{}]: no partial stats", run.config))
    };
    for run in runs.runs.iter().filter(|r| r.pooled()) {
        let sequential = runs
            .runs
            .iter()
            .find(|r| r.backend == ExecBackend::vm() && r.tier_on == run.tier_on)
            .map(partial)
            .expect("the matrix runs the sequential VM");
        let mut stats = partial(run);
        stats.max_accumulator_weight = sequential.max_accumulator_weight;
        assert_eq!(stats, sequential, "{label} [{}]: partial stats", run.config);
    }
}

// ---------------------------------------------------------------------------
// The srl-bench query workloads, E1–E9: thread count must be unobservable.
// An input runs in one suite only; this suite holds the sharded sizes.
// ---------------------------------------------------------------------------

#[test]
fn e1_apath_agrees() {
    use srl_stdlib::agap::{apath_program, names};
    use workloads::altgraph::AlternatingGraph;

    let graph = AlternatingGraph::random(5, 0.25, 12);
    let args = [graph.nodes_value(), graph.edges_value(), graph.ands_value()];
    Matrix::new(&apath_program()).call("E1 APATH", names::APATH, &args);
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

    // The degenerate sizes: no atom, one atom, fewer atoms than threads.
    let matrix = Matrix::new(&powerset_program()).limits(EvalLimits::default());
    for n in [0u64, 1, 3] {
        let v = matrix
            .call("E2 powerset", names::POWERSET, &[atom_set(0..n)])
            .value();
        assert_eq!(v.len(), Some(1 << n));
    }
}

#[test]
fn e2_powerset_is_identical_across_pool_widths() {
    use srl_stdlib::blowup::{names, powerset_program};

    // The headline assertion of the interprocedural summary: sift's
    // call-threaded fold (through finsert's spine) is proved a proper hom
    // and reaches the pool once the inner sets clear the work threshold.
    // 2 and 4 threads partition the inner sift folds differently, so each
    // width exercises a different merge shape.
    let program = powerset_program();
    let n = powerset_shard_atoms(&program);
    let runs = Matrix::new(&program).limits(EvalLimits::default()).call(
        "E2 powerset",
        names::POWERSET,
        &[atom_set(0..n)],
    );
    assert_eq!(runs.value().len(), Some(1 << n));
    assert_pooled_shard("E2 powerset", &runs);
}

#[test]
fn e3_basrl_arithmetic_agrees() {
    use srl_stdlib::arith::{arithmetic_program, domain, names};

    let matrix = Matrix::new(&arithmetic_program());
    for (name, x, y) in [(names::ADD, 5, 2), (names::MULT, 3, 2), (names::BIT, 1, 5)] {
        matrix.call(name, name, &[domain(8), Value::atom(x), Value::atom(y)]);
    }
}

#[test]
fn e4_permutation_product_agrees() {
    use srl_stdlib::perm::{names, padded_domain, perm_program};
    use workloads::permutation::IteratedProductInstance;

    let instance = IteratedProductInstance::random(4, 4, 15);
    let args = [
        padded_domain(&instance),
        instance.to_srl_value(),
        Value::atom(2),
    ];
    Matrix::new(&perm_program()).call("E4 IP", names::IP, &args);
}

#[test]
fn e5_tc_dtc_joins_above_the_gate_agree_and_run_in_place() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    let program = Program::new(Dialect::full());
    // Each pivot's join filters the cartesian square of the closure so
    // far, which holds at least the `n` reflexive pairs. From the `n` whose
    // square clears the gate at the join's unit cost, a filter over the
    // built square would shard; the join walks the square in place
    // instead, sequentially on every engine. A perfect matching keeps the
    // closure, and so the test, small.
    let join_cost = expr_folds(&program, &queries::tc_query(), &["D", "E"])
        .into_iter()
        .find(|r| matches!(r.kind, ReduceKind::Filter { join: Some(_), .. }))
        .expect("the pivot join walks its product in place")
        .unit_cost;
    let pairs = shard_cardinality(join_cost);
    let n = (1..).find(|n| n * n >= pairs).unwrap() as usize;
    let g = Digraph::new(n, (0..n / 2).map(|i| (2 * i, 2 * i + 1)));
    let env = Env::new()
        .bind("D", g.vertices_value())
        .bind("E", g.edges_value());
    let matrix = Matrix::new(&program).without_tree_walk();
    for (label, expr) in [
        ("E5 TC", queries::tc_query()),
        ("E5 DTC", queries::dtc_query()),
    ] {
        for run in &matrix.eval(label, &expr, &env).runs {
            assert_eq!(run.sharded, 0, "{label} [{}]: a fold sharded", run.config);
        }
    }
}

#[test]
fn e6_primrec_and_lrl_doubling_agree() {
    use machines::primrec::library;
    use srl_stdlib::blowup::{lrl_doubling_program, names as blow_names};
    use srl_stdlib::primrec_compile::{compile, encode_nat};

    let add = compile(&library::add()).expect("add compiles");
    Matrix::new(&add.program).call("E6 PR add", &add.entry, &[encode_nat(2), encode_nat(6)]);
    Matrix::new(&lrl_doubling_program())
        .limits(EvalLimits::default())
        .call(
            "E6 LRL doubling",
            blow_names::DOUBLING,
            &[Value::list((0..3u64).map(Value::atom))],
        );
}

#[test]
fn e7_tm_simulation_agrees() {
    use machines::tm::library::{even_parity, SYM_A, SYM_B};
    use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};

    let n = 4;
    let input: Vec<u8> = (0..n)
        .map(|i| if i % 3 == 0 { SYM_A } else { SYM_B })
        .collect();
    let args = [position_domain(n), encode_input(&input)];
    Matrix::new(&compile(&even_parity())).call("E7 accepts", names::ACCEPTS, &args);
}

#[test]
fn e8_order_dependence_probes_agree() {
    use srl_stdlib::hom;

    let matrix = Matrix::new(&Program::srl());
    let env = Env::new()
        .bind("S", atom_set([1, 3, 5, 7, 9]))
        .bind("P", atom_set([5]));
    matrix.eval(
        "E8 purple_first",
        &hom::purple_first(var("S"), var("P")),
        &env,
    );
    matrix.eval("E8 even", &hom::even(var("S")), &env);
}

#[test]
fn e9_relational_queries_agree() {
    use srl_bench::queries;
    use workloads::tables::CompanyDatabase;

    let matrix = Matrix::new(&Program::new(Dialect::full()));
    let db = CompanyDatabase::generate(64, 16, 4, 47);
    let env = Env::new()
        .bind("EMP", db.employees_value())
        .bind("DEPT", db.departments_value());
    matrix.eval("E9 join", &queries::company_join(), &env);
    matrix.eval(
        "E9 select/project",
        &queries::employees_in_department(db.departments[0].id),
        &env,
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
    let matrix = Matrix::new(&Program::srl()).without_tree_walk();
    let env = big_env();
    // The filter kind is `tree_walk_still_matches_the_pooled_vm`'s case.
    for (label, expr) in hom_kind_cases().into_iter().skip(1) {
        assert_pooled_shard(label, &matrix.eval(label, &expr, &env));
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
    let cap_env = Env::new()
        .bind("S", atom_set(0..n))
        .bind("T", atom_set(n..n + 100));
    let matrix = Matrix::new(&program);
    for (label, expr) in cap_cases {
        let runs = matrix.eval(label, &expr, &cap_env);
        assert_eq!(
            runs.stats().max_accumulator_weight,
            4097,
            "{label}: capped weight"
        );
        // The fused union is one bulk merge and never shards; every other
        // kind takes the shard merge on a pool.
        for run in &runs.runs {
            let sharded = run.pooled() && label != "union";
            assert_eq!(run.sharded > 0, sharded, "{label} [{}]", run.config);
        }
    }
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
    let env = Env::new().bind("S", atom_set(0..5000));
    let runs = Matrix::new(&program).eval("non-set base", &expr, &env);
    assert!(
        matches!(
            runs.error(),
            EvalError::Shape {
                operator: "insert",
                ..
            }
        ),
        "{:?}",
        runs.error()
    );
    let reference = runs.runs[0].partial.expect("partial stats");
    assert_eq!(reference.reduce_iterations, 1, "{reference:?}");
    for run in &runs.runs {
        assert_eq!(
            run.sharded, 0,
            "{}: a non-set base never shards",
            run.config
        );
        assert_eq!(
            run.partial,
            Some(reference),
            "{}: partial stats",
            run.config
        );
    }
}

#[test]
fn named_atom_first_wins_survives_shard_merges() {
    // Equal-comparing values that differ only in display (named vs. plain
    // atoms): value equality cannot see the difference, so the matrix
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
    let runs = Matrix::new(&program).without_tree_walk().eval(
        "projection",
        &expr,
        &Env::new().bind("S", pairs),
    );
    assert_pooled_shard("projection", &runs);
    let shown = runs.value().to_string();
    assert!(shown.contains("v0#0"), "{shown}");
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
    let matrix = Matrix::new(&program).without_tree_walk();
    for n in [at - 1, at] {
        let label = format!("{} units", n * cost);
        let runs = matrix.eval(&label, &expr, &Env::new().bind("S", atom_set(0..n)));
        for run in runs.runs.iter().filter(|r| r.pooled()) {
            let at_gate = n * cost >= PAR_WORK_THRESHOLD;
            assert_eq!(run.sharded > 0, at_gate, "{label} [{}]", run.config);
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
    let matrix = Matrix::new(&program);
    for (label, expr) in [("scan", scan_fold()), ("generic", cons_collect_fold())] {
        for run in matrix.eval(label, &expr, &env).runs {
            assert_eq!(
                run.sharded, 0,
                "{label} [{}]: ordered fold sharded",
                run.config
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-count edge cases and nested-fold stress under budgets.
// ---------------------------------------------------------------------------

#[test]
fn shard_count_edge_cases_agree() {
    let matrix = Matrix::new(&Program::srl());
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
            matrix.eval(&format!("{label} n={n}"), &expr, &env);
        }
    }
    // One more: n exactly equal to the widest pool.
    let env = Env::new()
        .bind("S", atom_set(0..4))
        .bind("T", atom_set(0..3));
    matrix.eval("n == threads", &intersection(var("S"), var("T")), &env);
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
    let runs =
        Matrix::new(&program)
            .limits(EvalLimits::default())
            .eval("nested folds", &expr, &env);
    assert_pooled_shard("nested folds", &runs);

    // The same program against budgets that cross mid-fold: every engine
    // raises the same error, and the pooled VMs leave the sequential VM's
    // partial counters.
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
        let runs = Matrix::new(&program)
            .limits(limits)
            .eval(label, &expr, &env);
        assert!(runs.error().is_limit(), "{label}: {:?}", runs.error());
        assert_pooled_shard(label, &runs);
        assert_pooled_partials_match_sequential(label, &runs);
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
        let runs = Matrix::new(&program)
            .limits(limits)
            .eval(label, &expr, &env);
        // The failure must come from inside the pool, not from a fold that
        // quietly ran sequentially below the gate.
        assert_pooled_shard(label, &runs);
        assert_pooled_partials_match_sequential(label, &runs);
    }
}

#[test]
fn tree_walk_still_matches_the_pooled_vm() {
    // One workload with a known answer: the sharded intersection over the
    // big inputs is the native one on every engine.
    let env = big_env();
    let runs = Matrix::new(&Program::srl()).eval("filter", &intersection(var("S"), var("T")), &env);
    assert_pooled_shard("filter", &runs);
    let (s, t) = (
        env.get("S").and_then(Value::as_set).expect("S is a set"),
        env.get("T").and_then(Value::as_set).expect("T is a set"),
    );
    assert_eq!(runs.value(), Value::set(s.iter().filter(|x| t.contains(x))));
}
