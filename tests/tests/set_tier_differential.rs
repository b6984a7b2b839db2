//! Differential test: generic vs. columnar set storage.
//!
//! The columnar small-atom tier (`srl-core::setrepr`: sorted-u32 `Atoms`
//! and dense `Bits` storage) promises to be **pure representation**: for
//! every program, identical `Value` results, identical *printed* results
//! (named-atom copies included), and byte-identical `EvalStats` whether
//! the tier is enabled or disabled, on every backend (tree-walk,
//! sequential VM, pooled VM at 2 and 4 threads). This suite drives the
//! full 2×4 matrix — tier {on, off} × backend — over every srl-bench
//! query workload (E1–E9), proves the tier actually *engages* where it
//! should (via the `Evaluator::tier_engagement_breakdown` diagnostic) and provably
//! stays out when disabled, and stresses the promotion/demotion edges and
//! mixed-tier adversaries the adaptive storage decisions hinge on.
//!
//! The toggle (scoped by `with_atom_tier`) is thread-local; inputs are
//! rebuilt under each configuration's toggle so the "off" runs really
//! evaluate generic-tier values, not columnar values built earlier.

use std::sync::Arc;

use srl_core::dsl::*;
use srl_core::setrepr::with_atom_tier;
use srl_core::{
    Dialect, Env, EvalError, EvalLimits, EvalStats, Evaluator, ExecBackend, Expr, Program, Value,
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
    engagements: u64,
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
                    engagements: ev.tier_engagement_breakdown().total(),
                });
            }
        });
    }
    out
}

/// Asserts every configuration produced the same value (structurally
/// *and* as printed — named-atom copies must not drift), byte-identical
/// `EvalStats`, and that the disabled tier never reported an engagement.
/// Returns the value and the minimum engagement count over the tier-on
/// configurations (so callers can assert the tier provably engaged on
/// every backend, not just one).
fn assert_tier_identical(label: &str, outcomes: &[Outcome]) -> (Value, u64) {
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
            o.engagements, 0,
            "{label} [{}]: disabled tier reported engagements",
            o.config
        );
    }
    let on_min = outcomes
        .iter()
        .filter(|o| o.tier_on)
        .map(|o| o.engagements)
        .min()
        .expect("tier-on configurations exist");
    (v0.clone(), on_min)
}

/// Identity over an expression with named inputs, under benchmark limits.
fn assert_expr_identical(
    program: &Program,
    names: &[&str],
    inputs: &[Value],
    expr: &Expr,
    label: &str,
) -> (Value, u64) {
    let outcomes = run_matrix(program, EvalLimits::benchmark(), inputs, |ev, vals| {
        let mut env = Env::new();
        for (name, value) in names.iter().zip(vals) {
            env.insert(*name, value.clone());
        }
        ev.eval(expr, &env)
    });
    assert_tier_identical(label, &outcomes)
}

// ---------------------------------------------------------------------------
// The srl-bench query workloads, E1–E9: the storage tier must be
// unobservable in values, display, and stats.
// ---------------------------------------------------------------------------

#[test]
fn e1_apath_agrees() {
    use srl_stdlib::agap::{apath_program, names};
    use workloads::altgraph::AlternatingGraph;

    let program = apath_program();
    let graph = AlternatingGraph::random(6, 0.25, 13);
    let inputs = [graph.nodes_value(), graph.edges_value(), graph.ands_value()];
    let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
        ev.call(names::APATH, vals)
    });
    assert_tier_identical("E1 APATH", &outcomes);
}

#[test]
fn e2_powerset_agrees_and_engages() {
    use srl_stdlib::blowup::{names, powerset_program};

    let program = powerset_program();
    for n in [0u64, 1, 3, 8] {
        let inputs = [atom_set(0..n)];
        let outcomes = run_matrix(&program, EvalLimits::default(), &inputs, |ev, vals| {
            ev.call(names::POWERSET, vals)
        });
        let (v, on_min) = assert_tier_identical("E2 powerset", &outcomes);
        assert_eq!(v.len(), Some(1usize << n));
        if n == 8 {
            // The outer fold traverses the columnar input set on every
            // backend: the tier provably engages.
            assert!(on_min > 0, "E2 n=8: tier did not engage on some backend");
        }
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
        let mut inputs = vec![d.clone()];
        inputs.extend(extra.iter().map(|&x| Value::atom(x)));
        let outcomes = run_matrix(&program, EvalLimits::benchmark(), &inputs, |ev, vals| {
            ev.call(name, vals)
        });
        assert_tier_identical(name, &outcomes);
    }
}

#[test]
fn e4_permutation_product_agrees() {
    use srl_stdlib::perm::{names, padded_domain, perm_program};
    use workloads::permutation::IteratedProductInstance;

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
fn e5_reachability_agrees_and_engages() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    // The vertex-set core of E5: a round-driven reachability whose
    // accumulator is a set of atoms — the shape the columnar tier is for.
    let program = Program::new(Dialect::full());
    let n = 256usize;
    let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
    let inputs = [
        g.vertices_value(),
        g.edges_value(),
        atom_set(0..8u64), // rounds
    ];
    let (_, on_min) = assert_expr_identical(
        &program,
        &["D", "E", "K"],
        &inputs,
        &queries::reach_query(),
        "E5 reach",
    );
    assert!(on_min > 0, "E5 reach: tier did not engage on some backend");
}

#[test]
fn e6_primrec_and_lrl_doubling_agree() {
    use machines::primrec::library;
    use srl_stdlib::blowup::{lrl_doubling_program, names as blow_names};
    use srl_stdlib::primrec_compile::{compile, encode_nat};

    let add = compile(&library::add()).expect("add compiles");
    let entry = add.entry.clone();
    let inputs = [encode_nat(5), encode_nat(3)];
    let outcomes = run_matrix(
        &add.program,
        EvalLimits::benchmark(),
        &inputs,
        |ev, vals| ev.call(&entry, vals),
    );
    assert_tier_identical("E6 PR add", &outcomes);

    let doubling = lrl_doubling_program();
    let inputs = [Value::list((0..5u64).map(Value::atom))];
    let outcomes = run_matrix(&doubling, EvalLimits::default(), &inputs, |ev, vals| {
        ev.call(blow_names::DOUBLING, vals)
    });
    assert_tier_identical("E6 LRL doubling", &outcomes);
}

#[test]
fn e7_tm_simulation_agrees() {
    use machines::tm::library::{even_parity, SYM_A, SYM_B};
    use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};

    let program = compile(&even_parity());
    let n = 16usize;
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
fn e8_order_dependence_probes_agree() {
    use srl_stdlib::hom;

    let program = Program::srl();
    let inputs = [atom_set([0, 2, 4, 6]), atom_set([6])];
    assert_expr_identical(
        &program,
        &["S", "P"],
        &inputs,
        &hom::purple_first(var("S"), var("P")),
        "E8 purple_first",
    );
    assert_expr_identical(
        &program,
        &["S", "P"],
        &inputs,
        &hom::even(var("S")),
        "E8 even",
    );
}

#[test]
fn e9_relational_queries_agree() {
    use srl_bench::queries;
    use workloads::tables::CompanyDatabase;

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
fn e9_id_intersection_agrees_and_engages() {
    use srl_bench::queries;

    // The id-set core of E9: intersecting an id column with a dense
    // universe — a Filter fold whose probes hit the bitset tier.
    let program = Program::new(Dialect::full());
    let inputs = [
        atom_set(0..512u64),
        atom_set((0..512u64).filter(|i| i % 4 != 3)),
    ];
    let (v, on_min) = assert_expr_identical(
        &program,
        &["IDS", "UNIV"],
        &inputs,
        &queries::id_intersection(),
        "E9 inter-ids",
    );
    assert_eq!(v.len(), Some(384));
    assert!(
        on_min > 0,
        "E9 inter-ids: tier did not engage on some backend"
    );
}

#[test]
fn dense_universe_union_agrees_and_engages() {
    use srl_bench::queries;

    // The dense-universe probe: interleaved even/odd atom sets whose union
    // is one bulk merge — word-parallel on the bitset tier.
    let program = Program::new(Dialect::full());
    let inputs = [
        atom_set((0..256u64).map(|i| 2 * i)),
        atom_set((0..256u64).map(|i| 2 * i + 1)),
    ];
    let (v, on_min) = assert_expr_identical(
        &program,
        &["A", "B"],
        &inputs,
        &queries::dense_union(),
        "dense universe",
    );
    assert_eq!(v.len(), Some(512));
    assert!(
        on_min > 0,
        "dense universe: tier did not engage on some backend"
    );
}

// ---------------------------------------------------------------------------
// Mixed-tier adversaries: elements of different shapes force promotions,
// demotions, and cross-tier merges mid-evaluation.
// ---------------------------------------------------------------------------

#[test]
fn cross_tier_union_with_tuples_agrees() {
    // A columnar atom set unioned with a generic tuple set: the merge
    // crosses tiers and the result must widen to generic storage.
    let program = Program::srl();
    let tuples = Value::set((0..40u64).map(|i| Value::tuple([Value::atom(i), Value::atom(i + 1)])));
    let inputs = [atom_set(0..40u64), tuples];
    for (label, expr) in [
        ("atoms ∪ tuples", union(var("A"), var("B"))),
        ("tuples ∪ atoms", union(var("B"), var("A"))),
        ("atoms ∖ tuples", difference(var("A"), var("B"))),
    ] {
        assert_expr_identical(&program, &["A", "B"], &inputs, &expr, label);
    }
}

#[test]
fn mid_fold_promotion_then_demotion_agrees() {
    // The combiner inserts the bare atom for members of T and the whole
    // tuple otherwise: the accumulator promotes to columnar storage while
    // the early (member) inserts land, then demotes in place on the first
    // tuple. Identity must survive the round trip on every backend.
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
                insert(var("p"), var("acc")),
            ),
        ),
        empty_set(),
        var("T"),
    );
    let inputs = [
        atom_set(0..48u64),
        atom_set((0..24u64).map(|i| i * 2)), // evens are members
    ];
    assert_expr_identical(&program, &["S", "T"], &inputs, &expr, "promote-demote");
}

#[test]
fn named_atom_first_wins_survives_the_tier() {
    // Named atoms are equal to their plain ranks but display differently;
    // first-wins must keep exactly the same copy whether the target set is
    // columnar or generic (a named duplicate must not widen a columnar set
    // or replace its plain copy). `assert_tier_identical` compares the
    // printed results, which is where a drifted copy would show.
    let program = Program::srl();
    let named = Value::set((0..30u64).map(|i| Value::named_atom(i, format!("v{i}"))));
    let inputs = [atom_set(0..60u64), named];
    // `union(x, y)` folds over `x` inserting into `y`: the base set's
    // copies arrive first and win. With N as base the named copies stay…
    let (v, _) = assert_expr_identical(
        &program,
        &["A", "N"],
        &inputs,
        &union(var("A"), var("N")),
        "fold A into N",
    );
    assert_eq!(v.len(), Some(60));
    assert!(format!("{v}").contains("v0"), "{v}");

    // …and with the columnar A as base the plain ranks stay: a named
    // duplicate answered `false` without widening the storage.
    let (v, _) = assert_expr_identical(
        &program,
        &["A", "N"],
        &inputs,
        &union(var("N"), var("A")),
        "fold N into A",
    );
    assert_eq!(v.len(), Some(60));
    assert!(!format!("{v}").contains("v0"), "{v}");
}

// ---------------------------------------------------------------------------
// Promotion/demotion edges: the storage decisions flip at exact sizes
// (inline capacity, the bitset length floor, the density spread bound).
// ---------------------------------------------------------------------------

#[test]
fn storage_threshold_edges_agree() {
    let program = Program::srl();
    let cases: Vec<(&str, Vec<u64>)> = vec![
        // Inline capacity edge: 4 stays inline, 5 promotes to sorted ids.
        ("len 3", (0..3).collect()),
        ("len 4", (0..4).collect()),
        ("len 5", (0..5).collect()),
        // Bitset length floor: 63 stays sorted ids, 64 may densify.
        ("len 63", (0..63).collect()),
        ("len 64", (0..64).collect()),
        ("len 65", (0..65).collect()),
        // Density spread bound at len 64: ids to 1008 are dense enough,
        // ids to 1071 are not.
        ("spread dense", (0..64).map(|i| i * 16).collect()),
        ("spread sparse", (0..64).map(|i| i * 17).collect()),
    ];
    for (label, ids) in cases {
        let inputs = [
            atom_set(ids.iter().copied()),
            atom_set(ids.iter().map(|i| i + 1)),
        ];
        for (op, expr) in [
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            (
                "member",
                member(atom(ids.last().copied().unwrap_or(0)), var("A")),
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

#[test]
fn declared_set_of_atom_folds_agree_with_untyped_ones() {
    use srl_core::setrepr::INLINE_CAP;
    use srl_core::types::Type;
    use srl_core::Lambda;

    // A `set(atom)` declaration is not a tier decision: the copy fold's
    // accumulator starts generic either way and the adaptive storage
    // promotes it, so the typed fold and the untyped one must agree with
    // each other and across the whole matrix.
    let copy = || {
        set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            empty_set(),
            empty_set(),
        )
    };
    let typed = Program::srl().define_typed("copy", [("S", Type::set_of(Type::Atom))], copy());
    let untyped = Program::srl().define("copy", ["S"], copy());
    for n in [3u64, 5, 100] {
        let inputs = [atom_set(0..n)];
        let mut seen = Vec::new();
        for (label, program) in [("typed", &typed), ("untyped", &untyped)] {
            let outcomes = run_matrix(program, EvalLimits::default(), &inputs, |ev, vals| {
                ev.call("copy", vals)
            });
            let (v, on_min) = assert_tier_identical(&format!("{label} copy n={n}"), &outcomes);
            assert_eq!(v.len(), Some(n as usize));
            if n as usize > INLINE_CAP {
                assert!(
                    on_min > 0,
                    "{label} copy n={n}: tier did not engage on some backend"
                );
            }
            let stats = outcomes[0].result.as_ref().map(|(_, s)| *s).ok();
            seen.push((format!("{v}"), v, stats));
        }
        assert_eq!(
            seen[0], seen[1],
            "copy n={n}: typed and untyped folds differ"
        );
    }
}

// ---------------------------------------------------------------------------
// Property tests: random id sets across densities, the full matrix.
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

    /// Up to 80 ids drawn dense (small universe) or sparse (wide universe),
    /// so generated sets land on every storage tier.
    fn id_set(&mut self) -> Vec<u64> {
        let len = self.below(80);
        let universe = if self.below(2) == 0 { 128 } else { 100_000 };
        (0..len).map(|_| self.below(universe)).collect()
    }
}

#[test]
fn random_id_set_algebra_is_tier_invariant() {
    let program = Program::srl();
    let mut g = Gen::new(11);
    for case in 0..24 {
        let a = g.id_set();
        let b = g.id_set();
        let probe = g.below(128);
        let inputs = [atom_set(a.clone()), atom_set(b.clone())];
        for (op, expr) in [
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            ("member", member(atom(probe), var("A"))),
        ] {
            let (v, _) = assert_expr_identical(
                &program,
                &["A", "B"],
                &inputs,
                &expr,
                &format!("case {case} {op}"),
            );
            // Cross-check against native sets: the tier must not change
            // *what* is computed either.
            let sa: std::collections::BTreeSet<u64> = a.iter().copied().collect();
            let sb: std::collections::BTreeSet<u64> = b.iter().copied().collect();
            let expect: Value = match op {
                "union" => atom_set(sa.union(&sb).copied().collect::<Vec<_>>()),
                "intersection" => atom_set(sa.intersection(&sb).copied().collect::<Vec<_>>()),
                "difference" => atom_set(sa.difference(&sb).copied().collect::<Vec<_>>()),
                _ => Value::Bool(sa.contains(&probe)),
            };
            assert_eq!(v, expect, "case {case} {op}: a={a:?} b={b:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Property test: the cached set weight under every mutation and tier move.
// ---------------------------------------------------------------------------

/// The weight `Value::weight` stands for, by a full walk that never reads a
/// set's cached sum.
fn walked_weight(v: &Value) -> usize {
    match v {
        Value::Bool(_) | Value::Atom(_) => 1,
        Value::Nat(n) => 1 + n.bit_len() / 64,
        Value::Tuple(items) => 1 + items.iter().map(walked_weight).sum::<usize>(),
        Value::List(items) => 1 + items.iter().map(walked_weight).sum::<usize>(),
        Value::Set(items) => 1 + items.iter().map(|e| walked_weight(&e)).sum::<usize>(),
    }
}

/// Which element shapes an episode draws, so every storage tier fills up.
#[derive(Clone, Copy, Debug)]
enum Shape {
    DenseAtoms,
    SparseAtoms,
    Pairs,
    Mixed,
}

impl Gen {
    /// One element of the given shape; `Mixed` draws the foreign ones
    /// (named atoms, naturals past 64 bits, nested sets, odd tuples) that
    /// demote a columnar set.
    fn element(&mut self, shape: Shape) -> Value {
        match shape {
            Shape::DenseAtoms => Value::atom(self.below(100)),
            Shape::SparseAtoms => Value::atom(self.below(100_000)),
            Shape::Pairs => {
                Value::tuple([Value::atom(self.below(12)), Value::atom(self.below(12))])
            }
            Shape::Mixed => match self.below(5) {
                0 => Value::named_atom(self.below(100), "n"),
                1 => Value::Nat(srl_core::BigNat::pow2(self.below(140) as usize)),
                2 => atom_set((0..self.below(6)).map(|_| self.below(20))),
                3 => Value::tuple([Value::named_atom(self.below(12), "t"), Value::atom(1)]),
                _ => Value::tuple([Value::atom(self.below(12))]),
            },
        }
    }

    /// The episode's shape, or — one time in `odds` — a foreign one.
    fn shape_or_foreign(&mut self, shape: Shape, odds: u64) -> Shape {
        if self.below(odds) == 0 {
            Shape::Mixed
        } else {
            shape
        }
    }

    fn set_of(&mut self, shape: Shape, max_len: u64) -> srl_core::SetRepr {
        let shape = self.shape_or_foreign(shape, 6);
        (0..self.below(max_len))
            .map(|_| self.element(shape))
            .collect()
    }
}

#[test]
fn cached_set_weights_survive_every_mutation_and_tier_move() {
    use srl_core::eval::weight_capped;
    use srl_core::SetRepr;
    use std::collections::{BTreeSet, HashSet};

    with_atom_tier(true, || {
        let mut g = Gen::new(29);
        let mut tiers_seen = HashSet::new();
        for episode in 0..60 {
            let shape = [
                Shape::DenseAtoms,
                Shape::SparseAtoms,
                Shape::Pairs,
                Shape::Mixed,
            ][g.below(4) as usize];
            // Half the episodes start from an empty columnar store: eight
            // atoms drained back to nothing.
            let mut s = if g.below(2) == 0 {
                SetRepr::new()
            } else {
                let mut drained: SetRepr = (0..8).map(Value::atom).collect();
                assert_eq!(drained.tier_label(), "atoms", "episode {episode}");
                while drained.pop_first().is_some() {}
                drained
            };
            // The reference: `BTreeSet::insert` keeps the stored copy of an
            // equal element, the first-wins rule every set operation follows.
            let mut model: BTreeSet<Value> = BTreeSet::new();
            for step in 0..40 {
                let at = format!("episode {episode} ({shape:?}) step {step}");
                match g.below(6) {
                    0 | 1 => {
                        let v = {
                            let shape = g.shape_or_foreign(shape, 8);
                            g.element(shape)
                        };
                        assert_eq!(s.insert(v.clone()), model.insert(v), "{at}: insert");
                    }
                    2 => assert_eq!(s.pop_first(), model.pop_first(), "{at}: pop_first"),
                    3 | 4 => {
                        // Union through a shared handle (copy-on-write), then
                        // the same union in place on the uniquely held base.
                        let other = g.set_of(shape, 90);
                        let novel: usize = other
                            .iter()
                            .filter(|v| !model.contains(v))
                            .map(|v| walked_weight(&v))
                            .sum();
                        let before = format!("{:?}", s);
                        let before_weight = s.weight_sum();
                        let base = Arc::new(s);
                        let mut shared = Arc::clone(&base);
                        Arc::make_mut(&mut shared).merge_union(&other);
                        assert_eq!(format!("{base:?}"), before, "{at}: shared base changed");
                        let mut unique = Arc::try_unwrap(base).expect("the copy made it unique");
                        unique.merge_union(&other);
                        assert_eq!(
                            (unique.weight_sum(), shared.weight_sum()),
                            (before_weight + novel, before_weight + novel),
                            "{at}: novel weight"
                        );
                        assert_eq!(
                            format!("{unique:?}"),
                            format!("{shared:?}"),
                            "{at}: in-place and copying unions differ"
                        );
                        s = unique;
                        for v in other.iter() {
                            model.insert(v);
                        }
                    }
                    _ => {
                        // Promote or demote: a clone re-tiers under the current
                        // toggle, so flipping it moves the set between tiers.
                        let on = g.below(2) == 0;
                        s = with_atom_tier(on, || s.clone());
                    }
                }
                tiers_seen.insert(s.tier_label());
                let walked = model.iter().map(walked_weight).sum::<usize>();
                assert_eq!(s.weight_sum(), walked, "{at}: cached weight");
                let set = Value::Set(Arc::new(s.clone()));
                assert_eq!(set.weight(), 1 + walked, "{at}: Value::weight");
                let cap = g.below(walked as u64 + 4) as usize;
                assert_eq!(
                    weight_capped(&set, cap),
                    (1 + walked).min(cap + 1),
                    "{at}: weight_capped at cap {cap}"
                );
                // Same elements, and the same printed copies of equal ones.
                let expect = format!("{:?}", model.iter().cloned().collect::<SetRepr>());
                assert_eq!(format!("{s:?}"), expect, "{at}: contents");
            }
        }
        for tier in ["inline", "spilled", "atoms", "bits"] {
            assert!(tiers_seen.contains(tier), "never reached the {tier} tier");
        }
    });
}
