//! Differential test: the bytecode VM against the tree-walking evaluator.
//!
//! The VM backend (`srl_core::ExecBackend::Vm`) promises **identical
//! `Value` results and byte-identical `EvalStats`** on every successful
//! evaluation — superinstruction fusion, batched accounting and last-use
//! register moves are pure machine-level changes — and an identical
//! `EvalError` on every failure. This suite drives every case through the
//! shared engine matrix (`srl_integration_tests::Matrix`): the srl-bench
//! query workloads (E1–E9), the derived-operator library, deterministic
//! property-style random programs, and the error paths.

use std::sync::Arc;

use srl_core::dsl::*;
use srl_core::{Dialect, Env, EvalError, EvalLimits, Expr, Lambda, Program, Value};
use srl_integration_tests::{atom_set, Gen, Matrix};

fn assert_expr_identical(program: &Program, expr: &Expr, env: &Env, label: &str) -> Value {
    Matrix::new(program).eval(label, expr, env).value()
}

// ---------------------------------------------------------------------------
// The srl-bench query workloads, E1–E9. An input runs in one suite only:
// the other differential suites hold the family's other sizes.
// ---------------------------------------------------------------------------

#[test]
fn e1_apath_agrees() {
    use srl_stdlib::agap::{apath_program, names};
    use workloads::altgraph::AlternatingGraph;

    let matrix = Matrix::new(&apath_program());
    for n in [4usize, 6] {
        let graph = AlternatingGraph::random(n, 0.25, 7 + n as u64);
        let args = [graph.nodes_value(), graph.edges_value(), graph.ands_value()];
        matrix.call("E1 APATH", names::APATH, &args);
    }
}

#[test]
fn e2_powerset_agrees() {
    use srl_stdlib::blowup::{names, powerset_program};

    let matrix = Matrix::new(&powerset_program()).limits(EvalLimits::default());
    let v = matrix
        .call("E2 powerset", names::POWERSET, &[atom_set(0..6)])
        .value();
    assert_eq!(v.len(), Some(1 << 6));
}

#[test]
fn e3_basrl_arithmetic_agrees() {
    use srl_stdlib::arith::{arithmetic_program, domain, names};

    let matrix = Matrix::new(&arithmetic_program());
    for (name, x, y) in [(names::ADD, 5, 4), (names::MULT, 3, 4), (names::BIT, 1, 5)] {
        matrix.call(name, name, &[domain(16), Value::atom(x), Value::atom(y)]);
    }
}

#[test]
fn e4_permutation_product_agrees() {
    use srl_stdlib::perm::{names, padded_domain, perm_program};
    use workloads::permutation::IteratedProductInstance;

    let instance = IteratedProductInstance::random(6, 6, 17);
    let args = [
        padded_domain(&instance),
        instance.to_srl_value(),
        Value::atom(2),
    ];
    Matrix::new(&perm_program()).call("E4 IP", names::IP, &args);
}

#[test]
fn e5_tc_dtc_agree_lowered_and_direct() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    let matrix = Matrix::new(&Program::new(Dialect::full()));
    let g = Digraph::random(6, 2.0 / 6.0, 29);
    let inputs = [g.vertices_value(), g.edges_value()];
    for (label, expr) in [
        ("E5 TC", queries::tc_query()),
        ("E5 DTC", queries::dtc_query()),
    ] {
        // The lower-once / evaluate-many path.
        matrix.run(label, &inputs, |ev, inputs| {
            let env = Env::new()
                .bind("D", inputs[0].clone())
                .bind("E", inputs[1].clone());
            let lowered = ev.lower(&expr, &env);
            ev.eval_lowered(&lowered, &env)
        });
    }
}

#[test]
fn e6_primrec_and_lrl_doubling_agree() {
    use machines::primrec::library;
    use srl_stdlib::blowup::{lrl_doubling_program, names as blow_names};
    use srl_stdlib::primrec_compile::{compile, encode_nat};

    let add = compile(&library::add()).expect("add compiles");
    Matrix::new(&add.program).call("E6 PR add", &add.entry, &[encode_nat(5), encode_nat(3)]);
    Matrix::new(&lrl_doubling_program())
        .limits(EvalLimits::default())
        .call(
            "E6 LRL doubling",
            blow_names::DOUBLING,
            &[Value::list((0..5u64).map(Value::atom))],
        );
}

#[test]
fn e7_tm_simulation_agrees() {
    use machines::tm::library::{even_parity, SYM_A, SYM_B};
    use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};

    let n = 9;
    let input: Vec<u8> = (0..n)
        .map(|i| if i % 3 == 0 { SYM_A } else { SYM_B })
        .collect();
    let args = [position_domain(n), encode_input(&input)];
    Matrix::new(&compile(&even_parity())).call("E7 accepts", names::ACCEPTS, &args);
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

fn small_set(g: &mut Gen) -> Value {
    let len = g.next_u64() % 10;
    atom_set((0..len).map(|_| g.next_u64() % 24).collect::<Vec<_>>())
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
            .bind("A", small_set(&mut g))
            .bind("B", small_set(&mut g))
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
            Value::set([small_set(&mut g), small_set(&mut g), small_set(&mut g)]),
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
    let runs = Matrix::new(&program).limits(EvalLimits::default()).call(
        "big naturals",
        "big",
        std::slice::from_ref(&input),
    );
    assert_eq!(runs.value(), input);
    // The empty base weighs 1; each 65–67-bit natural weighs 2.
    assert_eq!(runs.stats().max_accumulator_weight, 7);
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
// Error-path parity: every engine raises the same `EvalError`, payload
// included; partial stats may differ.
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
        Matrix::new(program)
            .limits(limits)
            .eval(label, &expr, &env)
            .error();
    }

    // Arity mismatch through the compiled call path.
    let program = Program::srl().define("pair", ["a", "b"], tuple([var("a"), var("b")]));
    Matrix::new(&program)
        .limits(EvalLimits::default())
        .eval("arity mismatch", &call("pair", [atom(1)]), &Env::new())
        .error();
}

#[test]
fn depth_limit_kind_agrees() {
    let program = Program::srl();
    let mut e = atom(0);
    for _ in 0..100 {
        e = tuple([e]);
    }
    let runs = Matrix::new(&program)
        .limits(EvalLimits::default().with_max_depth(10))
        .eval("depth limit", &e, &Env::new());
    assert_eq!(runs.error(), &EvalError::DepthLimitExceeded { limit: 10 });
}
