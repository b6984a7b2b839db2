//! Differential test: programs over *tuple sets*, across backends and the
//! columnar-tier toggle.
//!
//! Sets of tuples live in the generic tiers (inline and spilled); the
//! columnar tiers hold plain atoms only. For every program in this suite
//! the results must be identical `Value`s, identical *printed* results
//! (named-component copies included), and byte-identical `EvalStats`
//! whether the columnar tier is enabled or disabled, on every backend.
//! Every case runs through the shared engine matrix
//! (`srl_integration_tests::Matrix`), which also checks that the disabled
//! tier never engages and the retired `rows` tier never does. The suite
//! covers the E1–E9 srl-bench workloads through their *relational* lens —
//! pair-edge closures (E5), table joins (E9), product relations — and
//! stresses the shape edges of the storage decisions (arity changes
//! mid-fold, non-atom components, named duplicates, the inline-capacity
//! threshold, tuple ∪ atom mixes).

use srl_core::dsl::*;
use srl_core::{Dialect, Env, EvalLimits, Expr, Program, Value};
use srl_integration_tests::{atom_set, Gen, Matrix, Run};
use srl_stdlib::derived::{difference, intersection, member, union};

/// A set of pair tuples `(i, j)` — the canonical relation inhabitant.
fn pair_set(pairs: impl IntoIterator<Item = (u64, u64)>) -> Value {
    Value::set(
        pairs
            .into_iter()
            .map(|(i, j)| Value::tuple([Value::atom(i), Value::atom(j)])),
    )
}

// ---------------------------------------------------------------------------
// The srl-bench workloads, E1–E9, through their relational lens: the
// tier toggle must be unobservable in values, display, and stats. An input
// runs in one suite only; this suite holds its own sizes.
// ---------------------------------------------------------------------------

#[test]
fn e1_apath_agrees() {
    use srl_stdlib::agap::{apath_program, names};
    use workloads::altgraph::AlternatingGraph;

    // The alternating-path edges are pair tuples: the traversed relation
    // lives on the generic tier on every backend.
    let graph = AlternatingGraph::random(8, 0.25, 15);
    let args = [graph.nodes_value(), graph.edges_value(), graph.ands_value()];
    Matrix::new(&apath_program()).call("E1 APATH", names::APATH, &args);
}

#[test]
fn e2_powerset_of_a_relation_agrees() {
    use srl_stdlib::blowup::{names, powerset_program};

    // Powerset over a *pair-tuple* ground set: the subsets are tuple sets
    // that spill as they cross the inline capacity.
    let v = Matrix::new(&powerset_program())
        .limits(EvalLimits::default())
        .call(
            "E2 powerset(pairs)",
            names::POWERSET,
            &[pair_set((0..5u64).map(|i| (i, i + 1)))],
        )
        .value();
    assert_eq!(v.len(), Some(1usize << 5));
}

#[test]
fn e3_basrl_arithmetic_agrees() {
    use srl_stdlib::arith::{arithmetic_program, domain, names};

    Matrix::new(&arithmetic_program()).call(
        "E3 add",
        names::ADD,
        &[domain(12), Value::atom(5), Value::atom(4)],
    );
}

#[test]
fn e4_permutation_product_agrees() {
    use srl_stdlib::perm::{names, padded_domain, perm_program};
    use workloads::permutation::IteratedProductInstance;

    // Permutations are tuple relations: the iterated product is the E4
    // tuple-accumulating workload.
    let instance = IteratedProductInstance::random(8, 8, 19);
    let args = [
        padded_domain(&instance),
        instance.to_srl_value(),
        Value::atom(2),
    ];
    Matrix::new(&perm_program()).call("E4 IP", names::IP, &args);
}

#[test]
fn e5_tc_dtc_agree() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    // The E5 closures accumulate the pair *relation*.
    let matrix = Matrix::new(&Program::new(Dialect::full()));
    let g = Digraph::random(10, 2.0 / 10.0, 33);
    let env = Env::new()
        .bind("D", g.vertices_value())
        .bind("E", g.edges_value());
    matrix.eval("E5 TC n=10", &queries::tc_query(), &env);
    matrix.eval("E5 DTC n=10", &queries::dtc_query(), &env);
}

#[test]
fn e6_lrl_doubling_agrees() {
    use srl_stdlib::blowup::{lrl_doubling_program, names};

    Matrix::new(&lrl_doubling_program())
        .limits(EvalLimits::default())
        .call(
            "E6 LRL doubling",
            names::DOUBLING,
            &[Value::list((0..6u64).map(Value::atom))],
        );
}

#[test]
fn e7_tm_simulation_agrees() {
    use machines::tm::library::{even_parity, SYM_A, SYM_B};
    use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};

    // TM configurations are tuples threaded through the simulation folds.
    let n = 12;
    let input: Vec<u8> = (0..n)
        .map(|i| if i % 3 == 0 { SYM_A } else { SYM_B })
        .collect();
    let args = [position_domain(n), encode_input(&input)];
    Matrix::new(&compile(&even_parity())).call("E7 accepts", names::ACCEPTS, &args);
}

#[test]
fn e8_order_dependence_probes_agree_on_tuples() {
    use srl_stdlib::hom;

    // The E8 hom probes over *tuple* ground sets: scans and keep-last
    // folds must observe exactly the same traversal order either way.
    let matrix = Matrix::new(&Program::srl());
    let env = Env::new()
        .bind("S", pair_set([(0, 1), (2, 3), (4, 5), (6, 7)]))
        .bind("P", pair_set([(6, 7)]));
    matrix.eval(
        "E8 purple_first(pairs)",
        &hom::purple_first(var("S"), var("P")),
        &env,
    );
    matrix.eval("E8 even(pairs)", &hom::even(var("S")), &env);
}

#[test]
fn e9_relational_queries_agree() {
    use srl_bench::queries;
    use workloads::tables::CompanyDatabase;

    // The E9 tables are fixed-arity atom-tuple relations; the join
    // traverses one and produces another.
    let matrix = Matrix::new(&Program::new(Dialect::full()));
    let db = CompanyDatabase::generate(8, 2, 4, 47);
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

#[test]
fn product_relation_agrees() {
    use srl_bench::queries;

    // A × B: every accumulated element is a plain pair, built by bulk
    // unions of pair blocks.
    let env = Env::new()
        .bind("A", atom_set(0..12u64))
        .bind("B", atom_set(0..10u64));
    let v = Matrix::new(&Program::new(Dialect::full()))
        .eval("A × B", &queries::product_relation(), &env)
        .value();
    assert_eq!(v.len(), Some(120));
}

// ---------------------------------------------------------------------------
// Mixed-shape adversaries: shape changes and cross-tier merges
// mid-evaluation.
// ---------------------------------------------------------------------------

#[test]
fn arity_change_mid_fold_agrees() {
    // The combiner inserts the pair for members of T and its first
    // component (a bare atom) otherwise: the accumulator mixes pairs and
    // bare atoms from the first foreign shape on. Identity must survive on
    // every backend.
    let expr = set_reduce(
        var("S"),
        lam("x", "t", tuple([var("x"), member(var("x"), var("t"))])),
        lam(
            "p",
            "acc",
            if_(
                sel(var("p"), 2),
                insert(sel(var("p"), 1), var("acc")),
                insert(sel(sel(var("p"), 1), 1), var("acc")),
            ),
        ),
        empty_set(),
        var("T"),
    );
    let env = Env::new()
        .bind("S", pair_set((0..48u64).map(|i| (i, i + 1))))
        .bind("T", pair_set((0..24u64).map(|i| (2 * i, 2 * i + 1))));
    Matrix::new(&Program::srl()).eval("arity flip", &expr, &env);
}

#[test]
fn widening_tuple_contents_agree() {
    // Mixed-arity unions, nat-component tuples, and tuple∪atom mixes:
    // cross-shape merges, including against a columnar atom operand.
    let matrix = Matrix::new(&Program::srl());
    let unary = Value::set((0..20u64).map(|i| Value::tuple([Value::atom(i)])));
    let pairs = pair_set((0..20u64).map(|i| (i, i)));
    let with_nats = Value::set((0..20u64).map(|i| Value::tuple([Value::atom(i), Value::nat(i)])));
    for (label, a, b) in [
        ("unary ∪ pairs", unary.clone(), pairs.clone()),
        ("pairs ∪ unary", pairs.clone(), unary.clone()),
        ("pairs ∪ nats", pairs.clone(), with_nats.clone()),
        ("pairs ∪ atoms", pairs.clone(), atom_set(0..20u64)),
        ("pairs ∖ nats", pairs.clone(), with_nats),
    ] {
        let expr = if label.contains('∖') {
            difference(var("A"), var("B"))
        } else {
            union(var("A"), var("B"))
        };
        matrix.eval(label, &expr, &Env::new().bind("A", a).bind("B", b));
    }
}

#[test]
fn named_component_first_wins_survives_the_tier() {
    // Tuples with named components are equal to their plain-rank twins
    // but display differently; first-wins must keep exactly the same copy
    // whatever the toggle (a named duplicate must not replace the stored
    // plain copy).
    let matrix = Matrix::new(&Program::srl());
    let named = Value::set(
        (0..15u64)
            .map(|i| Value::tuple([Value::named_atom(i, format!("v{i}")), Value::atom(i + 1)])),
    );
    let env = Env::new()
        .bind("A", pair_set((0..30u64).map(|i| (i, i + 1))))
        .bind("N", named);
    // `union(x, y)` folds over `x` inserting into `y`: the base set's
    // copies arrive first and win. With N as base the named copies stay…
    let v = matrix
        .eval("fold A into N", &union(var("A"), var("N")), &env)
        .value();
    assert_eq!(v.len(), Some(30));
    assert!(format!("{v}").contains("v0"), "{v}");
    // …and with A as base the plain ranks stay: a named duplicate is
    // answered `false`.
    let v = matrix
        .eval("fold N into A", &union(var("N"), var("A")), &env)
        .value();
    assert_eq!(v.len(), Some(30));
    assert!(!format!("{v}").contains("v0"), "{v}");
}

// ---------------------------------------------------------------------------
// Promotion edges: the storage decision flips at the inline capacity.
// ---------------------------------------------------------------------------

#[test]
fn tuple_storage_threshold_edges_agree() {
    let matrix = Matrix::new(&Program::srl());
    let cases: Vec<(&str, Vec<(u64, u64)>)> = vec![
        // Inline capacity edge: 4 stays inline, 5 spills.
        ("len 3", (0..3).map(|i| (i, i + 1)).collect()),
        ("len 4", (0..4).map(|i| (i, i + 1)).collect()),
        ("len 5", (0..5).map(|i| (i, i + 1)).collect()),
        // Shared first components: ties broken by the second.
        ("shared prefix", (0..40).map(|i| (i / 8, i)).collect()),
        // Wide arity-3-like spread via big second components.
        ("wide ids", (0..40).map(|i| (i, i * 1_000)).collect()),
    ];
    for (label, ps) in cases {
        let env = Env::new()
            .bind("A", pair_set(ps.iter().copied()))
            .bind("B", pair_set(ps.iter().map(|&(i, j)| (i, j + 1))));
        let probe = ps.last().copied().unwrap_or((0, 0));
        for (op, expr) in [
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            (
                "member",
                member(tuple([atom(probe.0), atom(probe.1)]), var("A")),
            ),
        ] {
            matrix.eval(&format!("{label} {op}"), &expr, &env);
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests: random tuple sets across arities, the full matrix,
// cross-checked against native sets.
// ---------------------------------------------------------------------------

/// Up to 60 tuples of the given arity, drawn dense (small universe) or
/// sparse (wide universe), so generated sets are both inline and spilled.
fn tuple_set(g: &mut Gen, arity: usize) -> Vec<Vec<u64>> {
    let len = g.below(60);
    let universe = if g.below(2) == 0 { 16 } else { 100_000 };
    (0..len)
        .map(|_| (0..arity).map(|_| g.below(universe)).collect())
        .collect()
}

fn tuples_value(rows: &[Vec<u64>]) -> Value {
    Value::set(
        rows.iter()
            .map(|r| Value::tuple(r.iter().map(|&i| Value::atom(i)))),
    )
}

#[test]
fn random_tuple_set_algebra_is_tier_invariant() {
    let matrix = Matrix::new(&Program::srl());
    let mut g = Gen::new(29);
    for case in 0..16 {
        let arity = 1 + (case % 3);
        let a = tuple_set(&mut g, arity);
        let b = tuple_set(&mut g, arity);
        let probe: Vec<u64> = (0..arity as u64).map(|_| g.below(16)).collect();
        let env = Env::new()
            .bind("A", tuples_value(&a))
            .bind("B", tuples_value(&b));
        for (op, expr) in [
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            (
                "member",
                member(tuple(probe.iter().map(|&i| atom(i))), var("A")),
            ),
        ] {
            let v = matrix
                .eval(&format!("case {case} {op}"), &expr, &env)
                .value();
            // Cross-check against native sets: the tier must not change
            // *what* is computed either.
            let sa: std::collections::BTreeSet<&Vec<u64>> = a.iter().collect();
            let sb: std::collections::BTreeSet<&Vec<u64>> = b.iter().collect();
            match op {
                "member" => assert_eq!(
                    v,
                    Value::Bool(sa.contains(&probe)),
                    "case {case} member: a={a:?} probe={probe:?}"
                ),
                _ => {
                    let expect: Vec<Vec<u64>> = match op {
                        "union" => sa.union(&sb).map(|r| (*r).clone()).collect(),
                        "intersection" => sa.intersection(&sb).map(|r| (*r).clone()).collect(),
                        _ => sa.difference(&sb).map(|r| (*r).clone()).collect(),
                    };
                    assert_eq!(
                        v,
                        tuples_value(&expect),
                        "case {case} {op}: a={a:?} b={b:?}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fused product: `cartesian`, `join` and `tc` over generated operands
// of every element shape, and the failures that stop inside the product.
// ---------------------------------------------------------------------------

/// A product operand: 0 to 9 elements (crossing the inline capacity) of
/// one drawn shape — none, plain atoms, named atoms, atom pairs,
/// mixed-arity tuples, or nested sets.
fn product_operand(g: &mut Gen) -> Value {
    let shape = g.below(6);
    let len = if shape == 0 { 0 } else { g.below(10) };
    Value::set((0..len).map(|_| product_element(g, shape)))
}

fn product_element(g: &mut Gen, shape: u64) -> Value {
    let i = g.below(12);
    match shape {
        1 => Value::atom(i),
        2 => Value::named_atom(i, format!("n{i}")),
        3 => Value::tuple([Value::atom(i), Value::atom(g.below(12))]),
        4 => Value::tuple((0..=g.below(3)).map(|_| Value::atom(g.below(12)))),
        _ => Value::set((0..g.below(4)).map(|_| Value::atom(g.below(12)))),
    }
}

fn product_join() -> Expr {
    srl_stdlib::derived::join(
        var("A"),
        var("B"),
        lam("x", "y", leq(var("x"), var("y"))),
        lam("x", "y", tuple([var("y"), var("x")])),
    )
}

#[test]
fn generated_products_agree_on_every_engine_and_tier() {
    use srl_stdlib::derived::cartesian;
    use srl_stdlib::tc::transitive_closure;

    let matrix = Matrix::new(&Program::new(Dialect::full()));
    let mut g = Gen::new(41);
    for case in 0..24 {
        let (a, b) = (product_operand(&mut g), product_operand(&mut g));
        let env = Env::new().bind("A", a.clone()).bind("B", b.clone());
        let label = format!("case {case}: A={a} B={b}");
        let v = matrix
            .eval(
                &format!("cartesian {label}"),
                &cartesian(var("A"), var("B")),
                &env,
            )
            .value();
        let elems = |v: &Value| match v {
            Value::Set(items) => items.iter().collect::<Vec<_>>(),
            other => panic!("operand is not a set: {other}"),
        };
        let expect = Value::set(elems(&a).into_iter().flat_map(|x| {
            elems(&b)
                .into_iter()
                .map(move |y| Value::tuple([x.clone(), y]))
        }));
        assert_eq!(v, expect, "cartesian {label}");
        assert_eq!(format!("{v}"), format!("{expect}"), "cartesian {label}");
        matrix.eval(&format!("join {label}"), &product_join(), &env);

        // The closure joins its edge relation with itself on every pivot.
        let n = 1 + g.below(6);
        let edges = pair_set((0..g.below(10)).map(|_| (g.below(n), g.below(n))));
        let label = format!("tc case {case}: E={edges}");
        let env = Env::new().bind("D", atom_set(0..n)).bind("E", edges);
        matrix.eval(&label, &transitive_closure(var("D"), var("E")), &env);
    }
}

#[test]
fn failures_inside_the_product_stop_at_the_same_iteration() {
    use srl_stdlib::derived::cartesian;

    let program = Program::new(Dialect::full());
    let product = cartesian(var("A"), var("B"));
    let env = |b: Value| Env::new().bind("A", atom_set(0..6)).bind("B", b);
    let relation = env(pair_set((0..7).map(|i| (i, i + 1))));

    // A non-set `B` fails in the first slice with the inner fold's shape
    // error; an empty `A` never looks at it.
    let runs = Matrix::new(&program).eval("non-set B", &product, &env(Value::atom(3)));
    assert_eq!(runs.error().kind(), "shape");
    assert_same_partial_iterations("non-set B", &runs.runs, 1);
    let empty_a = Env::new()
        .bind("A", Value::set([]))
        .bind("B", Value::atom(3));
    let v = Matrix::new(&program)
        .eval("empty A, non-set B", &product, &empty_a)
        .value();
    assert_eq!(v, Value::set([]));

    // Starve the step and the size budget at offsets spread across the
    // whole product: every engine stops at the same fold iteration.
    let full = Matrix::new(&program)
        .eval("the product", &product, &relation)
        .stats();
    for k in 1..8u64 {
        let steps = full.steps * k / 8;
        let weight = full.max_value_weight * k as usize / 8;
        for (label, limits, kind) in [
            (
                "max_steps",
                EvalLimits::benchmark().with_max_steps(steps),
                "step_limit_exceeded",
            ),
            (
                "max_value_weight",
                EvalLimits::benchmark().with_max_value_weight(weight),
                "size_limit_exceeded",
            ),
        ] {
            let label = format!("{label} at {k}/8");
            let runs = Matrix::new(&program)
                .limits(limits)
                .eval(&label, &product, &relation);
            assert_eq!(runs.error().kind(), kind, "{label}");
            let iterations = runs.runs[0]
                .partial
                .expect("partial stats")
                .reduce_iterations;
            assert!(
                iterations > 0 && iterations < full.reduce_iterations,
                "{label} did not stop inside the product: {iterations} iterations"
            );
            assert_same_partial_iterations(&label, &runs.runs, iterations);
        }
    }
}

/// Asserts that every run failed after `iterations` fold iterations.
fn assert_same_partial_iterations(label: &str, runs: &[Run], iterations: u64) {
    for run in runs {
        let partial = run
            .partial
            .unwrap_or_else(|| panic!("{label} [{}]: no partial stats", run.config));
        assert_eq!(
            partial.reduce_iterations, iterations,
            "{label} [{}]: partial reduce_iterations",
            run.config
        );
    }
}
