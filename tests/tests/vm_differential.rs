//! Differential test: the bytecode VM against the tree-walking evaluator.
//!
//! The VM backend (`srl_core::ExecBackend::Vm`) promises **identical
//! `Value` results and byte-identical `EvalStats`** on every successful
//! evaluation — superinstruction fusion, batched accounting and last-use
//! register moves are pure machine-level changes. This suite drives both
//! backends over every srl-bench query workload (E1–E9), the derived-operator
//! library, deterministic property-style random programs, and the error
//! paths, comparing results and statistics field-for-field (and, for error
//! cases, the error kind).

use std::sync::Arc;

use srl_core::dsl::*;
use srl_core::{
    Dialect, Env, EvalError, EvalLimits, EvalStats, Evaluator, ExecBackend, Expr, Lambda, Program,
    Value,
};
use srl_integration_tests::atom_set;

/// Runs `f` under both backends over one shared compiled program and
/// returns the two `(result, stats)` outcomes.
#[allow(clippy::type_complexity)]
fn both<R>(
    program: &Program,
    limits: EvalLimits,
    mut f: impl FnMut(&mut Evaluator) -> Result<R, EvalError>,
) -> (
    Result<(R, EvalStats), EvalError>,
    Result<(R, EvalStats), EvalError>,
) {
    let compiled = Arc::new(program.compile());
    let mut run = |backend: ExecBackend| {
        let mut ev = Evaluator::with_compiled(program, Arc::clone(&compiled), limits)
            .expect("compiled from this program")
            .with_backend(backend);
        let value = f(&mut ev)?;
        Ok((value, *ev.stats()))
    };
    (run(ExecBackend::TreeWalk), run(ExecBackend::vm()))
}

/// Asserts both backends succeed with the same value and byte-identical
/// statistics; returns the value.
fn assert_identical<R: PartialEq + std::fmt::Debug>(
    program: &Program,
    limits: EvalLimits,
    label: &str,
    f: impl FnMut(&mut Evaluator) -> Result<R, EvalError>,
) -> R {
    let (tree, vm) = both(program, limits, f);
    let (tree_value, tree_stats) =
        tree.unwrap_or_else(|e| panic!("{label}: tree-walk failed: {e}"));
    let (vm_value, vm_stats) = vm.unwrap_or_else(|e| panic!("{label}: VM failed: {e}"));
    assert_eq!(tree_value, vm_value, "{label}: values differ");
    assert_eq!(tree_stats, vm_stats, "{label}: EvalStats differ");
    tree_value
}

/// Asserts both backends fail with the same error kind.
fn assert_same_error(
    program: &Program,
    limits: EvalLimits,
    label: &str,
    f: impl FnMut(&mut Evaluator) -> Result<Value, EvalError>,
) -> EvalError {
    let (tree, vm) = both(program, limits, f);
    let tree_err = match tree {
        Err(e) => e,
        Ok((v, _)) => panic!("{label}: tree-walk unexpectedly succeeded with {v}"),
    };
    let vm_err = match vm {
        Err(e) => e,
        Ok((v, _)) => panic!("{label}: VM unexpectedly succeeded with {v}"),
    };
    assert_eq!(
        std::mem::discriminant(&tree_err),
        std::mem::discriminant(&vm_err),
        "{label}: error kinds differ (tree: {tree_err:?}, vm: {vm_err:?})"
    );
    tree_err
}

fn assert_expr_identical(program: &Program, expr: &Expr, env: &Env, label: &str) -> Value {
    assert_identical(program, EvalLimits::benchmark(), label, |ev| {
        ev.eval(expr, env)
    })
}

// ---------------------------------------------------------------------------
// The srl-bench query workloads, E1–E9.
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

#[test]
fn e2_powerset_agrees() {
    use srl_stdlib::blowup::{names, powerset_program};

    let program = powerset_program();
    for n in [0u64, 1, 3, 6, 8] {
        let input = atom_set(0..n);
        let v = assert_identical(&program, EvalLimits::default(), "E2 powerset", |ev| {
            ev.call(names::POWERSET, std::slice::from_ref(&input))
        });
        assert_eq!(v.len(), Some(1 << n));
    }
}

#[test]
fn e3_basrl_arithmetic_agrees() {
    use srl_stdlib::arith::{arithmetic_program, domain, names};

    let program = arithmetic_program();
    let n = 16u64;
    let d = domain(n);
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
fn e5_tc_dtc_agree_lowered_and_direct() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    let program = Program::new(Dialect::full());
    for n in [6usize, 10] {
        let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
        let env = Env::new()
            .bind("D", g.vertices_value())
            .bind("E", g.edges_value());
        for (label, expr) in [
            ("E5 TC", queries::tc_query()),
            ("E5 DTC", queries::dtc_query()),
        ] {
            // The lower-once / evaluate-many path both times.
            assert_identical(&program, EvalLimits::benchmark(), label, |ev| {
                let lowered = ev.lower(&expr, &env);
                ev.eval_lowered(&lowered, &env)
            });
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
    for n in [4usize, 9, 16] {
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
fn e9_relational_queries_agree() {
    use srl_bench::queries;
    use workloads::tables::CompanyDatabase;

    let program = Program::new(Dialect::full());
    let db = CompanyDatabase::generate(16, 4, 4, 47);
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

// ---------------------------------------------------------------------------
// The derived-operator library (which the fused folds target directly).
// ---------------------------------------------------------------------------

/// SplitMix64, as in `property_tests.rs`.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn small_set(&mut self) -> Value {
        let len = self.next_u64() % 10;
        atom_set((0..len).map(|_| self.next_u64() % 24).collect::<Vec<_>>())
    }
}

#[test]
fn derived_operators_agree_on_random_sets() {
    use srl_stdlib::derived::{
        big_union, cartesian, difference, intersection, is_empty, member, set_eq, subset, union,
    };

    let program = Program::srl();
    let mut g = Gen(42);
    for case in 0..24 {
        let env = Env::new()
            .bind("A", g.small_set())
            .bind("B", g.small_set())
            .bind("x", Value::atom(g.next_u64() % 24));
        for (label, expr) in [
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            ("member", member(var("x"), var("A"))),
            ("subset", subset(var("A"), var("B"))),
            ("set_eq", set_eq(var("A"), var("B"))),
            ("is_empty", is_empty(var("A"))),
            ("cartesian", cartesian(var("A"), var("B"))),
        ] {
            let v = assert_expr_identical(&program, &expr, &env, &format!("{label} (case {case})"));
            // The evaluated Fact 2.4 operators must agree with direct set
            // computations: the VM's fused union fold runs on merge_union,
            // and the derived difference keeps exactly the elements of A
            // that are not members of B.
            let (a, b) = (
                env.get("A").unwrap().as_set().unwrap(),
                env.get("B").unwrap().as_set().unwrap(),
            );
            match label {
                "union" => {
                    let mut merged = b.clone();
                    merged.merge_union(a);
                    assert_eq!(
                        v,
                        Value::Set(Arc::new(merged)),
                        "merge_union drifted from the evaluated union (case {case})"
                    )
                }
                "difference" => assert_eq!(
                    v,
                    Value::set(a.iter().filter(|v| !b.contains(v))),
                    "the evaluated difference drifted from the element-wise filter (case {case})"
                ),
                _ => {}
            }
        }
        let nested = Env::new().bind(
            "SS",
            Value::set([g.small_set(), g.small_set(), g.small_set()]),
        );
        assert_expr_identical(
            &program,
            &big_union(var("SS")),
            &nested,
            &format!("big_union (case {case})"),
        );
    }
}

#[test]
fn first_wins_deduplication_survives_the_merge_fold() {
    use srl_stdlib::derived::union;

    // Equal atoms that differ in display: the union fold must keep the
    // accumulator's copy, under both the per-element and merge paths.
    let program = Program::srl();
    let env = Env::new()
        .bind("A", Value::set([Value::atom(1), Value::atom(2)]))
        .bind(
            "B",
            Value::set([Value::named_atom(2, "kept"), Value::named_atom(3, "b")]),
        );
    let v = assert_expr_identical(&program, &union(var("A"), var("B")), &env, "named union");
    let shown = format!("{v}");
    assert!(shown.contains("kept#2"), "{shown}");
}

// ---------------------------------------------------------------------------
// Core-form coverage: folds, takes, shadowing, lists, nats, new.
// ---------------------------------------------------------------------------

#[test]
fn accumulator_through_calls_stays_correct() {
    // The powerset shape in miniature: the accumulator is threaded through a
    // Call in the acc lambda (the VM moves it; the tree-walk clones it).
    let program = Program::srl().define(
        "grow",
        ["x", "T"],
        insert(var("x"), insert(tuple([var("x"), var("x")]), var("T"))),
    );
    let fold = set_reduce(
        var("S"),
        Lambda::identity(),
        lam("x", "T", call("grow", [var("x"), var("T")])),
        empty_set(),
        empty_set(),
    );
    let env = Env::new().bind("S", atom_set([3, 1, 4, 1, 5]));
    let v = assert_expr_identical(&program, &fold, &env, "call-threaded fold");
    assert_eq!(v.len(), Some(8));
}

#[test]
fn folds_reading_enclosing_state_agree() {
    // The acc lambda ignores its accumulator and reads/builds from the
    // *enclosing* S — the take optimization must not steal outer slots.
    let program = Program::srl();
    let fold = set_reduce(
        var("S"),
        Lambda::identity(),
        lam("x", "acc", insert(var("x"), var("S"))),
        empty_set(),
        empty_set(),
    );
    let env = Env::new().bind("S", atom_set([1, 2, 3]));
    let v = assert_expr_identical(&program, &fold, &env, "outer-state fold");
    assert_eq!(v, atom_set([1, 2, 3]));
}

#[test]
fn reduce_base_moves_only_when_nothing_else_reads_it() {
    // A union of slices (the cartesian's combiner): an inner union folds
    // each slice into the outer accumulator, whose slot the VM moves into
    // the union.
    let program = Program::srl();
    let env = Env::new().bind(
        "SS",
        Value::set([atom_set([1, 2]), atom_set([2, 3]), atom_set([5])]),
    );
    let moved = set_reduce(
        var("SS"),
        Lambda::identity(),
        lam(
            "slice",
            "acc",
            set_reduce(
                var("slice"),
                Lambda::identity(),
                lam("e", "a", insert(var("e"), var("a"))),
                var("acc"),
                empty_set(),
            ),
        ),
        empty_set(),
        empty_set(),
    );
    let v = assert_expr_identical(&program, &moved, &env, "moved union base");
    assert_eq!(v, atom_set([1, 2, 3, 5]));
    // `extra` reads the base slot after the base is evaluated: no move.
    let extra_reads = set_reduce(
        var("SS"),
        Lambda::identity(),
        lam(
            "slice",
            "acc",
            set_reduce(
                var("slice"),
                Lambda::identity(),
                lam("e", "a", insert(var("e"), var("a"))),
                var("acc"),
                var("acc"),
            ),
        ),
        empty_set(),
        empty_set(),
    );
    let v = assert_expr_identical(&program, &extra_reads, &env, "extra reads the base");
    assert_eq!(v, atom_set([1, 2, 3, 5]));
    // The app lambda reads the base slot on every element: no move.
    let app_reads = set_reduce(
        var("SS"),
        Lambda::identity(),
        lam(
            "slice",
            "acc",
            set_reduce(
                var("slice"),
                lam("e", "x", tuple([var("e"), var("acc")])),
                lam("p", "a", insert(sel(var("p"), 1), var("a"))),
                var("acc"),
                empty_set(),
            ),
        ),
        empty_set(),
        empty_set(),
    );
    let v = assert_expr_identical(&program, &app_reads, &env, "app reads the base");
    assert_eq!(v, atom_set([1, 2, 3, 5]));
}

#[test]
fn big_naturals_weigh_the_same_on_every_backend() {
    // A natural of b bits weighs 1 + b/64 in `Value::weight`; the
    // tree-walk's per-iteration accumulator weight once charged it 1 while
    // the VM's union fold charged the full weight.
    let program = Program::new(Dialect::full()).define(
        "big",
        ["S"],
        set_reduce(
            var("S"),
            lam("x", "e", var("x")),
            lam("y", "acc", insert(var("y"), var("acc"))),
            empty_set(),
            empty_set(),
        ),
    );
    let input = Value::set([64, 65, 66].map(|k| Value::Nat(srl_core::BigNat::pow2(k))));
    let args = [input.clone()];
    let compiled = Arc::new(program.compile());
    let run = |backend: ExecBackend| {
        let mut ev =
            Evaluator::with_compiled(&program, Arc::clone(&compiled), EvalLimits::default())
                .expect("compiled from this program")
                .with_backend(backend);
        let v = ev.call("big", &args).expect("big(S) evaluates");
        (v, *ev.stats())
    };
    let tree = run(ExecBackend::TreeWalk);
    assert_eq!(tree.0, input);
    // The empty base weighs 1; each 65–67-bit natural weighs 2.
    assert_eq!(tree.1.max_accumulator_weight, 7);
    for backend in [ExecBackend::vm(), ExecBackend::vm_with_threads(2)] {
        assert_eq!(run(backend), tree, "{backend:?} differs from the tree-walk");
    }
}

#[test]
fn call_with_duplicate_argument_slots_agrees() {
    // call(pair, acc, acc): only the last use may be moved.
    let program = Program::srl().define("pair", ["a", "b"], tuple([var("a"), var("b")]));
    let fold = set_reduce(
        var("S"),
        Lambda::identity(),
        lam("x", "acc", sel(call("pair", [var("acc"), var("acc")]), 1)),
        const_v(Value::atom(9)),
        empty_set(),
    );
    let env = Env::new().bind("S", atom_set([1, 2]));
    let v = assert_expr_identical(&program, &fold, &env, "duplicate call args");
    assert_eq!(v, Value::atom(9));
}

#[test]
fn choose_rest_worklist_agrees() {
    let program = Program::srl();
    // Two steps of a worklist: pull the minimum twice via let-bound rests.
    let expr = let_in(
        "m1",
        choose(var("S")),
        let_in(
            "R",
            rest(var("S")),
            let_in(
                "m2",
                choose(var("R")),
                tuple([var("m1"), var("m2"), rest(var("R"))]),
            ),
        ),
    );
    let env = Env::new().bind("S", atom_set([7, 3, 9, 5]));
    let v = assert_expr_identical(&program, &expr, &env, "choose/rest worklist");
    assert_eq!(
        v,
        Value::tuple([Value::atom(3), Value::atom(5), atom_set([7, 9])])
    );
}

#[test]
fn shadowed_lets_and_reused_slots_agree() {
    let program = Program::srl();
    let expr = tuple([
        let_in("a", atom(1), insert(var("a"), empty_set())),
        let_in("a", atom(2), insert(var("a"), empty_set())),
        let_in("a", atom(3), let_in("a", atom(4), var("a"))),
    ]);
    let v = assert_expr_identical(&program, &expr, &Env::new(), "slot reuse");
    assert_eq!(
        v,
        Value::tuple([atom_set([1]), atom_set([2]), Value::atom(4)])
    );
}

#[test]
fn nat_arithmetic_and_new_agree() {
    let program = Program::new(Dialect::full());
    let env = Env::new().bind("S", atom_set([3, 7]));
    for (label, expr) in [
        ("nat add", nat_add(nat(2), nat(3))),
        ("nat mul", nat_mul(nat(6), nat(7))),
        ("succ", succ(nat(41))),
        ("new", new_value(var("S"))),
        ("succ-set", insert(new_value(var("S")), var("S"))),
    ] {
        assert_expr_identical(&program, &expr, &env, label);
    }
}

#[test]
fn lists_agree() {
    let program = Program::new(Dialect::lrl());
    let l = cons(atom(1), cons(atom(2), cons(atom(1), empty_list())));
    let rebuild = list_reduce(
        l.clone(),
        Lambda::identity(),
        lam("x", "acc", cons(var("x"), var("acc"))),
        empty_list(),
        empty_set(),
    );
    let env = Env::new();
    for (label, expr) in [
        ("list literal", l.clone()),
        ("head", head(l.clone())),
        ("tail", tail(l)),
        ("list rebuild", rebuild),
    ] {
        assert_expr_identical(&program, &expr, &env, label);
    }
}

#[test]
fn scan_fold_keeps_last_match() {
    // read_cell's shape: [value, flag] pairs, keep the flagged value.
    let program = Program::srl();
    let fold = set_reduce(
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
    );
    let env = Env::new()
        .bind(
            "T",
            Value::set([
                Value::tuple([Value::atom(0), Value::atom(10)]),
                Value::tuple([Value::atom(1), Value::atom(11)]),
                Value::tuple([Value::atom(2), Value::atom(12)]),
            ]),
        )
        .bind("p", Value::atom(1));
    let v = assert_expr_identical(&program, &fold, &env, "scan fold");
    assert_eq!(v, Value::atom(11));
}

// ---------------------------------------------------------------------------
// Error-path parity (kinds must match; partial stats may differ).
// ---------------------------------------------------------------------------

#[test]
fn error_kinds_agree() {
    let srl = Program::srl();
    let full = Program::new(Dialect::full());
    let env_s = Env::new().bind("S", atom_set(0..64));

    let cases: Vec<(&str, &Program, Expr, Env, EvalLimits)> = vec![
        (
            "choose empty",
            &srl,
            choose(empty_set()),
            Env::new(),
            EvalLimits::default(),
        ),
        (
            "unbound variable",
            &srl,
            var("nope"),
            Env::new(),
            EvalLimits::default(),
        ),
        (
            "unknown call",
            &srl,
            call("nope", [atom(1)]),
            Env::new(),
            EvalLimits::default(),
        ),
        (
            "dialect violation",
            &srl,
            new_value(empty_set()),
            Env::new(),
            EvalLimits::default(),
        ),
        (
            "if non-boolean",
            &srl,
            if_(atom(1), atom(1), atom(2)),
            Env::new(),
            EvalLimits::default(),
        ),
        (
            "selector out of range",
            &srl,
            sel(tuple([atom(1)]), 3),
            Env::new(),
            EvalLimits::default(),
        ),
        (
            "insert into non-set",
            &srl,
            insert(atom(1), atom(2)),
            Env::new(),
            EvalLimits::default(),
        ),
        (
            "step limit",
            &srl,
            set_reduce(
                var("S"),
                Lambda::identity(),
                lam("x", "acc", insert(var("x"), var("acc"))),
                empty_set(),
                empty_set(),
            ),
            env_s.clone(),
            EvalLimits::default().with_max_steps(50),
        ),
        (
            "size limit",
            &srl,
            set_reduce(
                var("S"),
                Lambda::identity(),
                lam("x", "acc", insert(var("x"), var("acc"))),
                empty_set(),
                empty_set(),
            ),
            env_s,
            EvalLimits::default().with_max_value_weight(10),
        ),
        (
            "nat width limit",
            &full,
            nat_mul(nat(1 << 7), nat(1 << 7)),
            Env::new(),
            EvalLimits::default().with_max_nat_bits(8),
        ),
        (
            "union fold into non-set base",
            &srl,
            set_reduce(
                var("S"),
                Lambda::identity(),
                lam("x", "acc", insert(var("x"), var("acc"))),
                atom(1),
                empty_set(),
            ),
            Env::new().bind("S", atom_set([1, 2])),
            EvalLimits::default(),
        ),
    ];
    for (label, program, expr, env, limits) in cases {
        assert_same_error(program, limits, label, |ev| ev.eval(&expr, &env));
    }

    // Arity mismatch through the compiled call path.
    let program = Program::srl().define("pair", ["a", "b"], tuple([var("a"), var("b")]));
    assert_same_error(&program, EvalLimits::default(), "arity mismatch", |ev| {
        ev.eval(&call("pair", [atom(1)]), &Env::new())
    });
}

#[test]
fn depth_limit_kind_agrees() {
    let program = Program::srl();
    let mut e = atom(0);
    for _ in 0..100 {
        e = tuple([e]);
    }
    assert_same_error(
        &program,
        EvalLimits::default().with_max_depth(10),
        "depth limit",
        |ev| ev.eval(&e, &Env::new()),
    );
}
