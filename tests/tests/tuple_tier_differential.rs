//! Differential test: programs over *tuple sets*, across backends and the
//! columnar-tier toggle.
//!
//! Sets of tuples live in the generic tiers (inline and spilled); the
//! columnar tiers hold plain atoms only. For every program in this suite
//! the results must be identical `Value`s, identical *printed* results
//! (named-component copies included), and byte-identical `EvalStats`
//! whether the columnar tier is enabled or disabled, on every backend
//! (tree-walk, sequential VM, pooled VM at 2 and 4 threads). The suite
//! drives the full 2×4 matrix over the E1–E9 srl-bench workloads through
//! their *relational* lens — pair-edge closures (E5), table joins (E9),
//! product relations — pins the per-tier engagement breakdown
//! (`Evaluator::tier_engagement_breakdown`): no engagement when the tier
//! is disabled, and `rows` always 0, and stresses the shape edges of the
//! storage decisions (arity changes mid-fold, non-atom components, named
//! duplicates, the inline-capacity threshold, tuple ∪ atom mixes).
//!
//! The toggle (scoped by `with_atom_tier`) gates every columnar tier; inputs
//! are rebuilt under each configuration's toggle so the "off" runs really
//! evaluate generic-tier values.

use std::sync::Arc;

use srl_core::dsl::*;
use srl_core::setrepr::with_atom_tier;
use srl_core::{
    Dialect, Env, EvalError, EvalLimits, EvalStats, Evaluator, ExecBackend, Expr, Program,
    TierEngagements, Value,
};
use srl_integration_tests::atom_set;
use srl_stdlib::derived::{difference, intersection, member, union};

/// Deep structural rebuild: every set in the result is re-constructed
/// under the *current* toggle, so the value's storage tiers reflect the
/// configuration under measurement rather than the one it was built in.
fn rebuild(v: &Value) -> Value {
    match v {
        Value::Bool(_) | Value::Atom(_) | Value::Nat(_) => v.clone(),
        Value::Tuple(items) => Value::tuple(items.iter().map(rebuild)),
        Value::Set(items) => Value::set(items.iter().map(|e| rebuild(&e))),
        Value::List(items) => Value::list(items.iter().map(rebuild)),
    }
}

/// A set of pair tuples `(i, j)` — the canonical relation inhabitant.
fn pair_set(pairs: impl IntoIterator<Item = (u64, u64)>) -> Value {
    Value::set(
        pairs
            .into_iter()
            .map(|(i, j)| Value::tuple([Value::atom(i), Value::atom(j)])),
    )
}

fn backends() -> Vec<(&'static str, ExecBackend)> {
    vec![
        ("tree-walk", ExecBackend::TreeWalk),
        ("vm[1]", ExecBackend::vm()),
        ("vm[2]", ExecBackend::vm_with_threads(2)),
        ("vm[4]", ExecBackend::vm_with_threads(4)),
    ]
}

struct Outcome {
    config: String,
    tier_on: bool,
    result: Result<(Value, EvalStats), EvalError>,
    /// The partial statistics a failed run left behind.
    partial: Option<EvalStats>,
    engagements: TierEngagements,
}

/// Runs `f` under every (tier, backend) configuration over one shared
/// compiled program. `inputs` are rebuilt under each configuration's
/// toggle and handed to `f` in order.
fn run_matrix(
    program: &Program,
    limits: EvalLimits,
    inputs: &[Value],
    mut f: impl FnMut(&mut Evaluator, &[Value]) -> Result<Value, EvalError>,
) -> Vec<Outcome> {
    let compiled = Arc::new(program.compile());
    let mut out = Vec::new();
    for tier_on in [true, false] {
        with_atom_tier(tier_on, || {
            let rebuilt: Vec<Value> = inputs.iter().map(rebuild).collect();
            for (name, backend) in backends() {
                let mut ev = Evaluator::with_compiled(program, Arc::clone(&compiled), limits)
                    .expect("compiled from this program")
                    .with_backend(backend);
                let result = f(&mut ev, &rebuilt).map(|v| (v, *ev.stats()));
                out.push(Outcome {
                    config: format!("tier-{} {name}", if tier_on { "on" } else { "off" }),
                    tier_on,
                    result,
                    partial: ev.last_error_stats().copied(),
                    engagements: ev.tier_engagement_breakdown(),
                });
            }
        });
    }
    out
}

/// Asserts every configuration produced the same value (structurally
/// *and* as printed — named-atom copies must not drift), byte-identical
/// `EvalStats`, that the disabled tier never reported an engagement on
/// *any* tier, and that no configuration reported a `rows` engagement (the
/// documented contract of `TierEngagements::rows`). Returns the value.
fn assert_tier_identical(label: &str, outcomes: &[Outcome]) -> Value {
    let (first, rest) = outcomes.split_first().expect("matrix is non-empty");
    let (v0, s0) = first
        .result
        .as_ref()
        .unwrap_or_else(|e| panic!("{label} [{}]: failed: {e}", first.config));
    for o in rest {
        let (v, s) = o
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{label} [{}]: failed: {e}", o.config));
        assert_eq!(v0, v, "{label} [{}]: values differ", o.config);
        assert_eq!(
            format!("{v0}"),
            format!("{v}"),
            "{label} [{}]: printed values differ",
            o.config
        );
        assert_eq!(s0, s, "{label} [{}]: EvalStats differ", o.config);
    }
    for o in outcomes.iter().filter(|o| !o.tier_on) {
        assert_eq!(
            o.engagements.total(),
            0,
            "{label} [{}]: disabled tier reported engagements",
            o.config
        );
    }
    for o in outcomes {
        assert_eq!(
            o.engagements.rows, 0,
            "{label} [{}]: the retired rows tier reported engagements",
            o.config
        );
    }
    v0.clone()
}

/// Asserts every configuration failed with the same error kind and the
/// same partial `reduce_iterations`; returns the first configuration's
/// error and partial statistics.
fn assert_same_failure(label: &str, outcomes: &[Outcome]) -> (EvalError, EvalStats) {
    let failure = |o: &Outcome| match (&o.result, o.partial) {
        (Err(e), Some(partial)) => (e.clone(), partial),
        (Ok(_), _) => panic!("{label} [{}]: expected a failure", o.config),
        (Err(e), None) => panic!("{label} [{}]: {e} left no partial stats", o.config),
    };
    let (e0, p0) = failure(&outcomes[0]);
    for o in &outcomes[1..] {
        let (e, p) = failure(o);
        assert_eq!(
            e0.kind(),
            e.kind(),
            "{label} [{}]: error kinds differ",
            o.config
        );
        assert_eq!(
            p0.reduce_iterations, p.reduce_iterations,
            "{label} [{}]: partial reduce_iterations differ",
            o.config
        );
    }
    (e0, p0)
}

/// Runs an expression with named inputs under `limits` on every
/// configuration.
fn run_expr(
    program: &Program,
    limits: EvalLimits,
    names: &[&str],
    inputs: &[Value],
    expr: &Expr,
) -> Vec<Outcome> {
    run_matrix(program, limits, inputs, |ev, vals| {
        let mut env = Env::new();
        for (name, value) in names.iter().zip(vals) {
            env.insert(*name, value.clone());
        }
        ev.eval(expr, &env)
    })
}

/// Identity over an expression with named inputs, under benchmark limits.
fn assert_expr_identical(
    program: &Program,
    names: &[&str],
    inputs: &[Value],
    expr: &Expr,
    label: &str,
) -> Value {
    let outcomes = run_expr(program, EvalLimits::benchmark(), names, inputs, expr);
    assert_tier_identical(label, &outcomes)
}

// ---------------------------------------------------------------------------
// The srl-bench workloads, E1–E9, through their relational lens: the
// tier toggle must be unobservable in values, display, and stats.
// ---------------------------------------------------------------------------

#[test]
fn e1_apath_agrees() {
    use srl_stdlib::agap::{apath_program, names};
    use workloads::altgraph::AlternatingGraph;

    // The alternating-path edges are pair tuples: the traversed relation
    // lives on the generic tier on every backend.
    let program = apath_program();
    let graph = AlternatingGraph::random(6, 0.25, 13);
    let inputs = [graph.nodes_value(), graph.edges_value(), graph.ands_value()];
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        ev.call(names::APATH, vals)
    });
    assert_tier_identical("E1 APATH", &outcomes);
}

#[test]
fn e2_powerset_of_a_relation_agrees() {
    use srl_stdlib::blowup::{names, powerset_program};

    // Powerset over a *pair-tuple* ground set: the subsets are tuple sets
    // that spill as they cross the inline capacity.
    let program = powerset_program();
    let inputs = [pair_set((0..5u64).map(|i| (i, i + 1)))];
    let outcomes = run_matrix(&program, EvalLimits::default(), &inputs, |ev, vals| {
        ev.call(names::POWERSET, vals)
    });
    let v = assert_tier_identical("E2 powerset(pairs)", &outcomes);
    assert_eq!(v.len(), Some(1usize << 5));
}

#[test]
fn e3_basrl_arithmetic_agrees() {
    use srl_stdlib::arith::{arithmetic_program, domain, names};

    let program = arithmetic_program();
    let d = domain(16);
    let inputs = vec![d, Value::atom(5), Value::atom(4)];
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        ev.call(names::ADD, vals)
    });
    assert_tier_identical("E3 add", &outcomes);
}

#[test]
fn e4_permutation_product_agrees() {
    use srl_stdlib::perm::{names, padded_domain, perm_program};
    use workloads::permutation::IteratedProductInstance;

    // Permutations are tuple relations: the iterated product is the E4
    // tuple-accumulating workload.
    let program = perm_program();
    let instance = IteratedProductInstance::random(5, 5, 17);
    let inputs = [
        padded_domain(&instance),
        instance.to_srl_value(),
        Value::atom(2),
    ];
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        ev.call(names::IP, vals)
    });
    assert_tier_identical("E4 IP", &outcomes);
}

#[test]
fn e5_tc_dtc_agree() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    // The E5 closures accumulate the pair *relation*.
    let program = Program::new(Dialect::full());
    for n in [6usize, 14] {
        let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
        let inputs = [g.vertices_value(), g.edges_value()];
        for (label, expr) in [
            ("E5 TC", queries::tc_query()),
            ("E5 DTC", queries::dtc_query()),
        ] {
            assert_expr_identical(
                &program,
                &["D", "E"],
                &inputs,
                &expr,
                &format!("{label} n={n}"),
            );
        }
    }
}

#[test]
fn e6_lrl_doubling_agrees() {
    use srl_stdlib::blowup::{lrl_doubling_program, names};

    let program = lrl_doubling_program();
    let inputs = [Value::list((0..5u64).map(Value::atom))];
    let outcomes = run_matrix(&program, EvalLimits::default(), &inputs, |ev, vals| {
        ev.call(names::DOUBLING, vals)
    });
    assert_tier_identical("E6 LRL doubling", &outcomes);
}

#[test]
fn e7_tm_simulation_agrees() {
    use machines::tm::library::{even_parity, SYM_A, SYM_B};
    use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};

    // TM configurations are tuples threaded through the simulation folds.
    let program = compile(&even_parity());
    let n = 12usize;
    let input: Vec<u8> = (0..n)
        .map(|i| if i % 3 == 0 { SYM_A } else { SYM_B })
        .collect();
    let inputs = [position_domain(n), encode_input(&input)];
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        ev.call(names::ACCEPTS, vals)
    });
    assert_tier_identical("E7 accepts", &outcomes);
}

#[test]
fn e8_order_dependence_probes_agree_on_tuples() {
    use srl_stdlib::hom;

    // The E8 hom probes over *tuple* ground sets: scans and keep-last
    // folds must observe exactly the same traversal order either way.
    let program = Program::srl();
    let inputs = [
        pair_set([(0, 1), (2, 3), (4, 5), (6, 7)]),
        pair_set([(6, 7)]),
    ];
    assert_expr_identical(
        &program,
        &["S", "P"],
        &inputs,
        &hom::purple_first(var("S"), var("P")),
        "E8 purple_first(pairs)",
    );
    assert_expr_identical(
        &program,
        &["S", "P"],
        &inputs,
        &hom::even(var("S")),
        "E8 even(pairs)",
    );
}

#[test]
fn e9_relational_queries_agree() {
    use srl_bench::queries;
    use workloads::tables::CompanyDatabase;

    // The E9 tables are fixed-arity atom-tuple relations; the join
    // traverses one and produces another.
    let program = Program::new(Dialect::full());
    let db = CompanyDatabase::generate(32, 8, 4, 47);
    let inputs = [db.employees_value(), db.departments_value()];
    assert_expr_identical(
        &program,
        &["EMP", "DEPT"],
        &inputs,
        &queries::company_join(),
        "E9 join",
    );
    assert_expr_identical(
        &program,
        &["EMP", "DEPT"],
        &inputs,
        &queries::employees_in_department(db.departments[0].id),
        "E9 select/project",
    );
}

#[test]
fn product_relation_agrees() {
    use srl_bench::queries;

    // A × B: every accumulated element is a plain pair, built by bulk
    // unions of pair blocks.
    let program = Program::new(Dialect::full());
    let inputs = [atom_set(0..12u64), atom_set(0..10u64)];
    let v = assert_expr_identical(
        &program,
        &["A", "B"],
        &inputs,
        &queries::product_relation(),
        "A × B",
    );
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
    let program = Program::srl();
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
    let pairs = pair_set((0..48u64).map(|i| (i, i + 1)));
    let members = pair_set((0..24u64).map(|i| (2 * i, 2 * i + 1)));
    let inputs = [pairs, members];
    assert_expr_identical(&program, &["S", "T"], &inputs, &expr, "arity flip");
}

#[test]
fn widening_tuple_contents_agree() {
    // Mixed-arity unions, nat-component tuples, and tuple∪atom mixes:
    // cross-shape merges, including against a columnar atom operand.
    let program = Program::srl();
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
        let inputs = [a, b];
        let expr = if label.contains('∖') {
            difference(var("A"), var("B"))
        } else {
            union(var("A"), var("B"))
        };
        assert_expr_identical(&program, &["A", "B"], &inputs, &expr, label);
    }
}

#[test]
fn named_component_first_wins_survives_the_tier() {
    // Tuples with named components are equal to their plain-rank twins
    // but display differently; first-wins must keep exactly the same copy
    // whatever the toggle (a named duplicate must not replace the stored
    // plain copy).
    let program = Program::srl();
    let named = Value::set(
        (0..15u64)
            .map(|i| Value::tuple([Value::named_atom(i, format!("v{i}")), Value::atom(i + 1)])),
    );
    let plain = pair_set((0..30u64).map(|i| (i, i + 1)));
    let inputs = [plain, named];
    // `union(x, y)` folds over `x` inserting into `y`: the base set's
    // copies arrive first and win. With N as base the named copies stay…
    let v = assert_expr_identical(
        &program,
        &["A", "N"],
        &inputs,
        &union(var("A"), var("N")),
        "fold A into N",
    );
    assert_eq!(v.len(), Some(30));
    assert!(format!("{v}").contains("v0"), "{v}");
    // …and with A as base the plain ranks stay: a named duplicate is
    // answered `false`.
    let v = assert_expr_identical(
        &program,
        &["A", "N"],
        &inputs,
        &union(var("N"), var("A")),
        "fold N into A",
    );
    assert_eq!(v.len(), Some(30));
    assert!(!format!("{v}").contains("v0"), "{v}");
}

// ---------------------------------------------------------------------------
// Promotion edges: the storage decision flips at the inline capacity.
// ---------------------------------------------------------------------------

#[test]
fn tuple_storage_threshold_edges_agree() {
    let program = Program::srl();
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
        let inputs = [
            pair_set(ps.iter().copied()),
            pair_set(ps.iter().map(|&(i, j)| (i, j + 1))),
        ];
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
            assert_expr_identical(
                &program,
                &["A", "B"],
                &inputs,
                &expr,
                &format!("{label} {op}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests: random tuple sets across arities, the full matrix,
// cross-checked against native sets.
// ---------------------------------------------------------------------------

/// Deterministic case stream (SplitMix64 — same construction as the other
/// property suites; failures print the case index for exact replay).
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Up to 60 tuples of the given arity, drawn dense (small universe) or
    /// sparse (wide universe), so generated sets are both inline and
    /// spilled.
    fn tuple_set(&mut self, arity: usize) -> Vec<Vec<u64>> {
        let len = self.below(60);
        let universe = if self.below(2) == 0 { 16 } else { 100_000 };
        (0..len)
            .map(|_| (0..arity).map(|_| self.below(universe)).collect())
            .collect()
    }
}

fn tuples_value(rows: &[Vec<u64>]) -> Value {
    Value::set(
        rows.iter()
            .map(|r| Value::tuple(r.iter().map(|&i| Value::atom(i)))),
    )
}

#[test]
fn random_tuple_set_algebra_is_tier_invariant() {
    let program = Program::srl();
    let mut g = Gen::new(29);
    for case in 0..16 {
        let arity = 1 + (case % 3);
        let a = g.tuple_set(arity);
        let b = g.tuple_set(arity);
        let probe: Vec<u64> = (0..arity as u64).map(|_| g.below(16)).collect();
        let inputs = [tuples_value(&a), tuples_value(&b)];
        for (op, expr) in [
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            (
                "member",
                member(tuple(probe.iter().map(|&i| atom(i))), var("A")),
            ),
        ] {
            let v = assert_expr_identical(
                &program,
                &["A", "B"],
                &inputs,
                &expr,
                &format!("case {case} {op}"),
            );
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

impl Gen {
    /// A product operand: 0 to 9 elements (crossing the inline capacity)
    /// of one drawn shape — none, plain atoms, named atoms, atom pairs,
    /// mixed-arity tuples, or nested sets.
    fn product_operand(&mut self) -> Value {
        let shape = self.below(6);
        let len = if shape == 0 { 0 } else { self.below(10) };
        Value::set((0..len).map(|_| self.product_element(shape)))
    }

    fn product_element(&mut self, shape: u64) -> Value {
        let i = self.below(12);
        match shape {
            1 => Value::atom(i),
            2 => Value::named_atom(i, format!("n{i}")),
            3 => Value::tuple([Value::atom(i), Value::atom(self.below(12))]),
            4 => Value::tuple((0..=self.below(3)).map(|_| Value::atom(self.below(12)))),
            _ => Value::set((0..self.below(4)).map(|_| Value::atom(self.below(12)))),
        }
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

    let program = Program::new(Dialect::full());
    let mut g = Gen::new(41);
    for case in 0..24 {
        let (a, b) = (g.product_operand(), g.product_operand());
        let inputs = [a.clone(), b.clone()];
        let label = format!("case {case}: A={a} B={b}");
        let v = assert_expr_identical(
            &program,
            &["A", "B"],
            &inputs,
            &cartesian(var("A"), var("B")),
            &format!("cartesian {label}"),
        );
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
        assert_expr_identical(
            &program,
            &["A", "B"],
            &inputs,
            &product_join(),
            &format!("join {label}"),
        );

        // The closure joins its edge relation with itself on every pivot.
        let n = 1 + g.below(6);
        let edges = (0..g.below(10)).map(|_| (g.below(n), g.below(n)));
        let inputs = [atom_set(0..n), pair_set(edges)];
        assert_expr_identical(
            &program,
            &["D", "E"],
            &inputs,
            &transitive_closure(var("D"), var("E")),
            &format!("tc case {case}: E={}", inputs[1]),
        );
    }
}

#[test]
fn failures_inside_the_product_stop_at_the_same_iteration() {
    use srl_stdlib::derived::cartesian;

    let program = Program::new(Dialect::full());
    let a = atom_set(0..6);
    let b = pair_set((0..7).map(|i| (i, i + 1)));
    let names = ["A", "B"];
    let product = cartesian(var("A"), var("B"));

    // A non-set `B` fails in the first slice with the inner fold's shape
    // error; an empty `A` never looks at it.
    let outcomes = run_expr(
        &program,
        EvalLimits::benchmark(),
        &names,
        &[a.clone(), Value::atom(3)],
        &product,
    );
    let (e, partial) = assert_same_failure("non-set B", &outcomes);
    assert_eq!(e.kind(), "shape");
    assert_eq!(partial.reduce_iterations, 1);
    let v = assert_tier_identical(
        "empty A, non-set B",
        &run_expr(
            &program,
            EvalLimits::benchmark(),
            &names,
            &[Value::set([]), Value::atom(3)],
            &product,
        ),
    );
    assert_eq!(v, Value::set([]));

    // Starve the step and the size budget at offsets spread across the
    // whole product: every engine stops at the same fold iteration.
    let outcomes = run_expr(
        &program,
        EvalLimits::benchmark(),
        &names,
        &[a.clone(), b.clone()],
        &product,
    );
    let (_, full) = outcomes[0]
        .result
        .clone()
        .expect("the product fits the benchmark budget");
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
            let outcomes = run_expr(&program, limits, &names, &[a.clone(), b.clone()], &product);
            let (e, partial) = assert_same_failure(&format!("{label} at {k}/8"), &outcomes);
            assert_eq!(e.kind(), kind, "{label} at {k}/8");
            assert!(
                partial.reduce_iterations > 0 && partial.reduce_iterations < full.reduce_iterations,
                "{label} at {k}/8 did not stop inside the product: {partial:?}"
            );
        }
    }
}
