//! Differential test: generic vs. columnar set storage.
//!
//! The columnar small-atom tier (`srl-core::setrepr`: sorted-u32 `Atoms`
//! and dense `Bits` storage) promises to be **pure representation**: for
//! every program, identical `Value` results, identical *printed* results
//! (named-atom copies included), and byte-identical `EvalStats` whether
//! the tier is enabled or disabled, on every backend. Every case runs
//! through the shared engine matrix (`srl_integration_tests::Matrix`),
//! which rebuilds its inputs under each tier setting and checks that the
//! disabled tier never engages. This suite proves the tier actually
//! *engages* where it should (the matrix's per-run tier engagements), and
//! stresses the promotion/demotion edges and mixed-tier adversaries the
//! adaptive storage decisions hinge on.

use std::sync::Arc;

use srl_core::dsl::*;
use srl_core::setrepr::with_atom_tier;
use srl_core::{Dialect, Env, EvalLimits, Program, Value};
use srl_integration_tests::{atom_set, Gen, Matrix, Runs};
use srl_stdlib::derived::{difference, intersection, member, union};

/// Asserts that the tier engaged on every engine that had it on.
fn assert_engaged(label: &str, runs: &Runs) {
    for run in runs.runs.iter().filter(|r| r.tier_on) {
        assert!(
            run.tiers.total() > 0,
            "{label} [{}]: tier did not engage",
            run.config
        );
    }
}

// ---------------------------------------------------------------------------
// The srl-bench query workloads, E1–E9: the storage tier must be
// unobservable in values, display, and stats. An input runs in one suite
// only; this suite holds the sizes that fill the columnar tiers.
// ---------------------------------------------------------------------------

#[test]
fn e1_apath_agrees() {
    use srl_stdlib::agap::{apath_program, names};
    use workloads::altgraph::AlternatingGraph;

    let graph = AlternatingGraph::random(7, 0.25, 14);
    let args = [graph.nodes_value(), graph.edges_value(), graph.ands_value()];
    Matrix::new(&apath_program()).call("E1 APATH", names::APATH, &args);
}

#[test]
fn e2_powerset_agrees_and_engages() {
    use srl_stdlib::blowup::{names, powerset_program};

    // The outer fold traverses the columnar input set on every backend:
    // the tier provably engages.
    let runs = Matrix::new(&powerset_program())
        .limits(EvalLimits::default())
        .call("E2 powerset", names::POWERSET, &[atom_set(0..8)]);
    assert_eq!(runs.value().len(), Some(1 << 8));
    assert_engaged("E2 powerset n=8", &runs);
}

#[test]
fn e3_basrl_arithmetic_agrees() {
    use srl_stdlib::arith::{arithmetic_program, domain, names};

    // A domain of 64 atoms is long and dense enough for the bitset tier.
    let runs = Matrix::new(&arithmetic_program()).call(
        "E3 add",
        names::ADD,
        &[domain(64), Value::atom(40), Value::atom(17)],
    );
    assert_engaged("E3 add", &runs);
}

#[test]
fn e4_permutation_product_agrees() {
    use srl_stdlib::perm::{names, padded_domain, perm_program};
    use workloads::permutation::IteratedProductInstance;

    let instance = IteratedProductInstance::random(5, 5, 17);
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

    let matrix = Matrix::new(&Program::new(Dialect::full()));
    let g = Digraph::random(14, 2.0 / 14.0, 37);
    let env = Env::new()
        .bind("D", g.vertices_value())
        .bind("E", g.edges_value());
    matrix.eval("E5 TC n=14", &queries::tc_query(), &env);
    matrix.eval("E5 DTC n=14", &queries::dtc_query(), &env);
}

#[test]
fn e5_reachability_agrees_and_engages() {
    use srl_bench::queries;
    use workloads::digraph::Digraph;

    // The vertex-set core of E5: a round-driven reachability whose
    // accumulator is a set of atoms — the shape the columnar tier is for.
    let n = 256usize;
    let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
    let env = Env::new()
        .bind("D", g.vertices_value())
        .bind("E", g.edges_value())
        .bind("K", atom_set(0..8u64)); // rounds
    let runs =
        Matrix::new(&Program::new(Dialect::full())).eval("E5 reach", &queries::reach_query(), &env);
    assert_engaged("E5 reach", &runs);
}

#[test]
fn e6_primrec_and_lrl_doubling_agree() {
    use machines::primrec::library;
    use srl_stdlib::blowup::{lrl_doubling_program, names as blow_names};
    use srl_stdlib::primrec_compile::{compile, encode_nat};

    let add = compile(&library::add()).expect("add compiles");
    Matrix::new(&add.program).call("E6 PR add", &add.entry, &[encode_nat(4), encode_nat(0)]);
    Matrix::new(&lrl_doubling_program())
        .limits(EvalLimits::default())
        .call(
            "E6 LRL doubling",
            blow_names::DOUBLING,
            &[Value::list((0..4u64).map(Value::atom))],
        );
}

#[test]
fn e7_tm_simulation_agrees() {
    use machines::tm::library::{even_parity, SYM_A, SYM_B};
    use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};

    let n = 16;
    let input: Vec<u8> = (0..n)
        .map(|i| if i % 3 == 0 { SYM_A } else { SYM_B })
        .collect();
    let args = [position_domain(n), encode_input(&input)];
    Matrix::new(&compile(&even_parity())).call("E7 accepts", names::ACCEPTS, &args);
}

#[test]
fn e8_order_dependence_probes_agree() {
    use srl_stdlib::hom;

    // 64 even atoms: the probes traverse a bitset-tier set.
    let matrix = Matrix::new(&Program::srl());
    let env = Env::new()
        .bind("S", atom_set((0..64).map(|i| 2 * i)))
        .bind("P", atom_set([6]));
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
    let db = CompanyDatabase::generate(32, 8, 4, 47);
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
fn e9_id_intersection_agrees_and_engages() {
    use srl_bench::queries;

    // The id-set core of E9: intersecting an id column with a dense
    // universe — a Filter fold whose probes hit the bitset tier.
    let env = Env::new()
        .bind("IDS", atom_set(0..512u64))
        .bind("UNIV", atom_set((0..512u64).filter(|i| i % 4 != 3)));
    let runs = Matrix::new(&Program::new(Dialect::full())).eval(
        "E9 inter-ids",
        &queries::id_intersection(),
        &env,
    );
    assert_eq!(runs.value().len(), Some(384));
    assert_engaged("E9 inter-ids", &runs);
}

#[test]
fn dense_universe_union_agrees_and_engages() {
    use srl_bench::queries;

    // The dense-universe probe: interleaved even/odd atom sets whose union
    // is one bulk merge — word-parallel on the bitset tier.
    let env = Env::new()
        .bind("A", atom_set((0..256u64).map(|i| 2 * i)))
        .bind("B", atom_set((0..256u64).map(|i| 2 * i + 1)));
    let runs = Matrix::new(&Program::new(Dialect::full())).eval(
        "dense universe",
        &queries::dense_union(),
        &env,
    );
    assert_eq!(runs.value().len(), Some(512));
    assert_engaged("dense universe", &runs);
}

// ---------------------------------------------------------------------------
// Mixed-tier adversaries: elements of different shapes force promotions,
// demotions, and cross-tier merges mid-evaluation.
// ---------------------------------------------------------------------------

#[test]
fn cross_tier_union_with_tuples_agrees() {
    // A columnar atom set unioned with a generic tuple set: the merge
    // crosses tiers and the result must widen to generic storage.
    let matrix = Matrix::new(&Program::srl());
    let tuples = Value::set((0..40u64).map(|i| Value::tuple([Value::atom(i), Value::atom(i + 1)])));
    let env = Env::new().bind("A", atom_set(0..40u64)).bind("B", tuples);
    for (label, expr) in [
        ("atoms ∪ tuples", union(var("A"), var("B"))),
        ("tuples ∪ atoms", union(var("B"), var("A"))),
        ("atoms ∖ tuples", difference(var("A"), var("B"))),
    ] {
        matrix.eval(label, &expr, &env);
    }
}

#[test]
fn mid_fold_promotion_then_demotion_agrees() {
    // The combiner inserts the bare atom for members of T and the whole
    // tuple otherwise: the accumulator promotes to columnar storage while
    // the early (member) inserts land, then demotes in place on the first
    // tuple. Identity must survive the round trip on every backend.
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
    let env = Env::new()
        .bind("S", atom_set(0..48u64))
        .bind("T", atom_set((0..24u64).map(|i| i * 2))); // evens are members
    Matrix::new(&Program::srl()).eval("promote-demote", &expr, &env);
}

#[test]
fn named_atom_first_wins_survives_the_tier() {
    // Named atoms are equal to their plain ranks but display differently;
    // first-wins must keep exactly the same copy whether the target set is
    // columnar or generic (a named duplicate must not widen a columnar set
    // or replace its plain copy). The matrix compares the printed results,
    // which is where a drifted copy would show.
    let matrix = Matrix::new(&Program::srl());
    let named = Value::set((0..30u64).map(|i| Value::named_atom(i, format!("v{i}"))));
    let env = Env::new().bind("A", atom_set(0..60u64)).bind("N", named);
    // `union(x, y)` folds over `x` inserting into `y`: the base set's
    // copies arrive first and win. With N as base the named copies stay…
    let v = matrix
        .eval("fold A into N", &union(var("A"), var("N")), &env)
        .value();
    assert_eq!(v.len(), Some(60));
    assert!(format!("{v}").contains("v0"), "{v}");

    // …and with the columnar A as base the plain ranks stay: a named
    // duplicate answered `false` without widening the storage.
    let v = matrix
        .eval("fold N into A", &union(var("N"), var("A")), &env)
        .value();
    assert_eq!(v.len(), Some(60));
    assert!(!format!("{v}").contains("v0"), "{v}");
}

// ---------------------------------------------------------------------------
// Promotion/demotion edges: the storage decisions flip at exact sizes
// (inline capacity, the bitset length floor, the density spread bound).
// ---------------------------------------------------------------------------

#[test]
fn storage_threshold_edges_agree() {
    let matrix = Matrix::new(&Program::srl());
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
        let env = Env::new()
            .bind("A", atom_set(ids.iter().copied()))
            .bind("B", atom_set(ids.iter().map(|i| i + 1)));
        for (op, expr) in [
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            (
                "member",
                member(atom(ids.last().copied().unwrap_or(0)), var("A")),
            ),
        ] {
            matrix.eval(&format!("{label} {op}"), &expr, &env);
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
        let mut seen = Vec::new();
        for (label, program) in [("typed", &typed), ("untyped", &untyped)] {
            let label = format!("{label} copy n={n}");
            let runs = Matrix::new(program).limits(EvalLimits::default()).call(
                &label,
                "copy",
                &[atom_set(0..n)],
            );
            let v = runs.value();
            assert_eq!(v.len(), Some(n as usize));
            if n as usize > INLINE_CAP {
                assert_engaged(&label, &runs);
            }
            seen.push((format!("{v}"), v, runs.stats()));
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

/// Up to 80 ids drawn dense (small universe) or sparse (wide universe), so
/// generated sets land on every storage tier.
fn id_set(g: &mut Gen) -> Vec<u64> {
    let len = g.below(80);
    let universe = if g.below(2) == 0 { 128 } else { 100_000 };
    (0..len).map(|_| g.below(universe)).collect()
}

#[test]
fn random_id_set_algebra_is_tier_invariant() {
    let matrix = Matrix::new(&Program::srl());
    let mut g = Gen::new(11);
    for case in 0..24 {
        let a = id_set(&mut g);
        let b = id_set(&mut g);
        let probe = g.below(128);
        let env = Env::new()
            .bind("A", atom_set(a.clone()))
            .bind("B", atom_set(b.clone()));
        for (op, expr) in [
            ("union", union(var("A"), var("B"))),
            ("intersection", intersection(var("A"), var("B"))),
            ("difference", difference(var("A"), var("B"))),
            ("member", member(atom(probe), var("A"))),
        ] {
            let v = matrix
                .eval(&format!("case {case} {op}"), &expr, &env)
                .value();
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
// The closed-form quantifier kernel: `∃`/`∀` over `x = y`, `y = x`,
// `x <= y` and `y <= x` against the fold's extra, decided from the set's
// ends on every tier.
// ---------------------------------------------------------------------------

/// The sets the quantifier kernel runs over, each with the extras it is
/// compared against: below the minimum, the minimum, strictly inside (a
/// member and, where there is a gap, a non-member), the maximum, above the
/// maximum, and values of other kinds (the order is total across kinds).
fn quantifier_cases() -> Vec<(&'static str, Value, Vec<Value>)> {
    let a = Value::atom;
    let pair = |i, j| Value::tuple([a(i), a(j)]);
    let mut cases = vec![
        ("empty", Value::empty_set(), vec![a(5)]),
        ("singleton", atom_set([5]), vec![a(4), a(5), a(6)]),
        ("two", atom_set([3, 7]), vec![a(2), a(3), a(5), a(7), a(8)]),
        // The bitset tier.
        (
            "80 dense atoms",
            atom_set(1..=80),
            vec![a(0), a(1), a(40), a(80), a(81)],
        ),
        // The sorted-id tier.
        (
            "sparse atoms",
            atom_set((1..=20).map(|i| i * 10)),
            vec![a(5), a(10), a(15), a(100), a(200), a(205)],
        ),
        // Named atoms stay in a value tier; the plain `d5` is a duplicate of
        // `b#5` and the first copy wins. Equality ignores names.
        (
            "named atoms",
            Value::set([
                Value::named_atom(3, "a"),
                Value::named_atom(5, "b"),
                a(5),
                Value::named_atom(9, "c"),
                Value::named_atom(12, "d"),
                Value::named_atom(20, "e"),
            ]),
            vec![a(2), Value::named_atom(3, "z"), a(5), a(7), a(20), a(21)],
        ),
        (
            "tuples",
            Value::set([pair(1, 2), pair(1, 5), pair(3, 0), pair(4, 4), pair(6, 1)]),
            vec![
                pair(0, 9),
                pair(1, 2),
                pair(2, 2),
                pair(3, 0),
                pair(6, 1),
                pair(6, 2),
            ],
        ),
        (
            "sets of sets",
            Value::set([
                atom_set([1]),
                atom_set([1, 2]),
                atom_set([3]),
                atom_set([3, 4]),
                atom_set([6]),
            ]),
            vec![
                Value::empty_set(),
                atom_set([1]),
                atom_set([2]),
                atom_set([3]),
                atom_set([6]),
                atom_set([7]),
            ],
        ),
    ];
    for (_, _, ys) in &mut cases {
        ys.extend([Value::Bool(true), Value::nat(3), Value::tuple([a(1)])]);
    }
    cases
}

#[test]
fn comparison_quantifiers_agree_on_every_tier() {
    use srl_core::bytecode::{QuantTest, ReduceKind};
    use srl_integration_tests::root_fold;

    let program = Program::srl();
    let matrix = Matrix::new(&program);
    let forms = [
        (eq(var("x"), var("t")), QuantTest::Eq, "x = y"),
        (eq(var("t"), var("x")), QuantTest::Eq, "y = x"),
        (leq(var("x"), var("t")), QuantTest::XLeqY, "x <= y"),
        (leq(var("t"), var("x")), QuantTest::YLeqX, "y <= x"),
    ];
    for (app, test, form) in forms {
        for is_or in [true, false] {
            let acc = if is_or {
                or(var("h"), var("acc"))
            } else {
                and(var("h"), var("acc"))
            };
            let expr = set_reduce(
                var("S"),
                lam("x", "t", app.clone()),
                lam("h", "acc", acc),
                var("B"),
                var("Y"),
            );
            let quant = if is_or { "exists" } else { "forall" };
            // A silent fallback to a per-element kind fails here.
            let kind = root_fold(&program, &expr, &["S", "B", "Y"]).kind;
            assert!(
                matches!(kind, ReduceKind::Quantifier { is_or: o, test: t } if o == is_or && t == test),
                "{quant} {form}: compiled to {kind:?}"
            );
            // The boolean identity, and a base of weight > 1 that the
            // untyped policy admits: it is the result when nothing flips.
            for base in [Value::Bool(!is_or), atom_set([1, 2, 3])] {
                for (set_label, set, ys) in quantifier_cases() {
                    for y in ys {
                        let label =
                            format!("{quant} {form} over {set_label}, y = {y}, base {base}");
                        let env = Env::new()
                            .bind("S", set.clone())
                            .bind("B", base.clone())
                            .bind("Y", y.clone());
                        let runs = matrix.eval(&label, &expr, &env);
                        let flips = set
                            .as_set()
                            .expect("a set")
                            .iter()
                            .any(|x| test.holds(&x, &y) == is_or);
                        let expect = if flips {
                            Value::Bool(is_or)
                        } else {
                            base.clone()
                        };
                        assert_eq!(runs.value(), expect, "{label}");
                        match set_label {
                            "80 dense atoms" => {
                                assert!(runs.runs.iter().all(|r| !r.tier_on || r.tiers.bits > 0))
                            }
                            "sparse atoms" => {
                                assert!(runs.runs.iter().all(|r| !r.tier_on || r.tiers.atoms > 0))
                            }
                            _ => {}
                        }
                    }
                }
            }
            // A step budget that runs out halfway through the batch fails
            // with the same error on every engine.
            let env = Env::new()
                .bind("S", atom_set(1..=80))
                .bind("B", Value::Bool(!is_or))
                .bind("Y", Value::atom(40));
            let full = matrix.eval("full", &expr, &env).stats();
            let starved = EvalLimits::benchmark().with_max_steps(full.steps - 6 * 40);
            let label = format!("{quant} {form} under a step budget");
            let runs = Matrix::new(&program)
                .limits(starved)
                .eval(&label, &expr, &env);
            assert_eq!(runs.error().kind(), "step_limit_exceeded", "{label}");
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

/// One element of the given shape; `Mixed` draws the foreign ones
/// (named atoms, naturals past 64 bits, nested sets, odd tuples) that
/// demote a columnar set.
fn element(g: &mut Gen, shape: Shape) -> Value {
    match shape {
        Shape::DenseAtoms => Value::atom(g.below(100)),
        Shape::SparseAtoms => Value::atom(g.below(100_000)),
        Shape::Pairs => Value::tuple([Value::atom(g.below(12)), Value::atom(g.below(12))]),
        Shape::Mixed => match g.below(5) {
            0 => Value::named_atom(g.below(100), "n"),
            1 => Value::Nat(srl_core::BigNat::pow2(g.below(140) as usize)),
            2 => atom_set((0..g.below(6)).map(|_| g.below(20))),
            3 => Value::tuple([Value::named_atom(g.below(12), "t"), Value::atom(1)]),
            _ => Value::tuple([Value::atom(g.below(12))]),
        },
    }
}

/// The episode's shape, or — one time in `odds` — a foreign one.
fn shape_or_foreign(g: &mut Gen, shape: Shape, odds: u64) -> Shape {
    if g.below(odds) == 0 {
        Shape::Mixed
    } else {
        shape
    }
}

fn set_of(g: &mut Gen, shape: Shape, max_len: u64) -> srl_core::SetRepr {
    let shape = shape_or_foreign(g, shape, 6);
    (0..g.below(max_len)).map(|_| element(g, shape)).collect()
}

/// An element for the ordered-arrival episodes: an atom set, a set of
/// atom sets, or an atom that is named or unnamed at random, so equal
/// atoms arrive in both spellings.
fn arrival(g: &mut Gen) -> Value {
    match g.below(4) {
        0 => atom_set((0..g.below(5)).map(|_| g.below(8))),
        1 => Value::set((0..g.below(3)).map(|_| atom_set((0..g.below(3)).map(|_| g.below(4))))),
        2 => Value::named_atom(g.below(16), "n"),
        _ => Value::atom(g.below(16)),
    }
}

/// E2's insert order: `sift(x, T)` walks `T`, the subsets of the atoms
/// below `x`, ascending and inserts `y ∪ {x}`, then `y`.
fn powerset_arrivals(g: &mut Gen) -> Vec<Value> {
    let mut base: Vec<u64> = (0..2 + g.below(5)).map(|_| g.below(20)).collect();
    base.sort_unstable();
    base.dedup();
    let x = base.pop().expect("at least two draws");
    let mut subsets: Vec<Vec<u64>> = (0..1u32 << base.len())
        .map(|mask| {
            (0..base.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| base[i])
                .collect()
        })
        .collect();
    subsets.sort();
    subsets
        .iter()
        .flat_map(|y| [atom_set(y.iter().copied().chain([x])), atom_set(y.clone())])
        .collect()
}

/// Asserts that `s` holds exactly `model`'s elements, element by element
/// and in printed form (so first-wins kept the same copies), and that its
/// cached weight sum, `Value::weight` and `weight_capped` agree with a walk.
fn assert_matches_model(
    s: &srl_core::SetRepr,
    model: &std::collections::BTreeSet<Value>,
    g: &mut Gen,
    at: &str,
) {
    use srl_core::eval::weight_capped;
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
    assert_eq!(s.len(), model.len(), "{at}: length");
    for (i, (mine, theirs)) in s.iter().zip(model).enumerate() {
        assert_eq!(&mine, theirs, "{at}: element {i}");
        assert_eq!(format!("{mine}"), format!("{theirs}"), "{at}: element {i}");
    }
    assert_eq!(format!("{s:?}"), format!("{model:?}"), "{at}: contents");
}

#[test]
fn cached_set_weights_survive_every_mutation_and_tier_move() {
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
                            let shape = shape_or_foreign(&mut g, shape, 8);
                            element(&mut g, shape)
                        };
                        assert_eq!(s.insert(v.clone()), model.insert(v), "{at}: insert");
                    }
                    2 => assert_eq!(s.pop_first(), model.pop_first(), "{at}: pop_first"),
                    3 | 4 => {
                        // Union through a shared handle (copy-on-write), then
                        // the same union in place on the uniquely held base.
                        let other = set_of(&mut g, shape, 90);
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
                assert_matches_model(&s, &model, &mut g, &at);
            }
        }
        for tier in ["inline", "spilled", "atoms", "bits"] {
            assert!(tiers_seen.contains(tier), "never reached the {tier} tier");
        }

        // Ordered arrivals: runs of inserts in ascending, descending,
        // random and powerset order, each under a random tier setting,
        // with a different mutation between runs, so every run starts its
        // spilled-tier searches from a hint that a pop, an in-place union,
        // a clone or a tier move left behind.
        for episode in 0..48 {
            let mut s = SetRepr::new();
            let mut model: BTreeSet<Value> = BTreeSet::new();
            for run in 0..8 {
                let order = ["ascending", "descending", "random", "powerset"][(episode + run) % 4];
                let mut arrivals: Vec<Value> = match order {
                    "powerset" => powerset_arrivals(&mut g),
                    _ => (0..4 + g.below(24)).map(|_| arrival(&mut g)).collect(),
                };
                match order {
                    // Stable sorts: equal atoms keep their arrival order.
                    "ascending" => arrivals.sort(),
                    "descending" => arrivals.sort_by(|a, b| b.cmp(a)),
                    _ => {}
                }
                with_atom_tier(g.below(2) == 0, || {
                    for (i, v) in arrivals.into_iter().enumerate() {
                        let at = format!("episode {episode} run {run} ({order}) insert {i} of {v}");
                        assert_eq!(s.insert(v.clone()), model.insert(v), "{at}");
                        assert_matches_model(&s, &model, &mut g, &at);
                    }
                });
                let mutation = ["pop_first", "merge_union", "clone", "tier move"][run % 4];
                let at = format!("episode {episode} run {run}: {mutation}");
                match mutation {
                    "pop_first" => {
                        for _ in 0..1 + g.below(6) {
                            assert_eq!(s.pop_first(), model.pop_first(), "{at}");
                        }
                    }
                    "merge_union" => {
                        let other: SetRepr = (0..g.below(12)).map(|_| arrival(&mut g)).collect();
                        s.merge_union(&other);
                        model.extend(other.iter());
                    }
                    "clone" => s = s.clone(),
                    _ => {
                        let on = g.below(2) == 0;
                        s = with_atom_tier(on, || s.clone());
                    }
                }
                assert_matches_model(&s, &model, &mut g, &at);
            }
        }
    });
}
