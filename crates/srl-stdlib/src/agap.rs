//! Alternating reachability in SRL (Lemma 3.6).
//!
//! Lemma 3.6 expresses APATH — the alternating-path relation of
//! Definition 3.4 — as an SRL function of set-height 1, by writing the
//! monotone operator
//!
//! ```text
//! F(R)[x, y] = (x = y) ∨ [ (∃z)(E(x,z) ∧ R(z,y)) ∧ (A(x) → (∀z)(E(x,z) → R(z,y))) ]
//! ```
//!
//! in SRL and iterating it with `set-reduce`. Because AGAP (`APATH(v₀,
//! v_max)`) is P-complete under first-order reductions (Fact 3.5), this is
//! the constructive half of `P ⊆ ℒ(SRL)` (Theorem 3.10).
//!
//! The program here takes the alternating graph as three inputs — `NODES`
//! (the vertex set), `EDGES` (the `[from, to]` pairs) and `ANDS` (the set of
//! universal vertices; the paper obtains it from the labelled edge set with
//! `project(select(...))`, which [`ands_from_labelled_edges`] also provides)
//! — and iterates one full round of `F` per vertex. A round processes every
//! pair `(x, y)` and accumulates into `R` immediately, so `|NODES|` rounds
//! reach the fixpoint (the stage of a pair for a fixed target is bounded by
//! the number of vertices); the paper's more generous `n²` iterations are
//! available through [`apath_program_with_rounds`].

use srl_core::ast::{Expr, Lambda};
use srl_core::dialect::Dialect;
use srl_core::dsl::*;
use srl_core::program::Program;

use crate::derived::{forall, forsome, map_set, member, project, select};

/// Names of the definitions produced by [`apath_program`].
pub mod names {
    /// `f_holds(NODES, EDGES, ANDS, x, y, R) → bool` — the operator F.
    pub const F_HOLDS: &str = "f_holds";
    /// `f_round(NODES, EDGES, ANDS, R) → relation` — one full round of F over
    /// all pairs.
    pub const F_ROUND: &str = "f_round";
    /// `apath(NODES, EDGES, ANDS) → relation` — the least fixed point.
    pub const APATH: &str = "apath";
    /// `agap(NODES, EDGES, ANDS) → bool` — `APATH(v₀, v_max)`.
    pub const AGAP: &str = "agap";
    /// `max_node(NODES) → atom` — the last vertex in the ordering.
    pub const MAX_NODE: &str = "max_node";
}

/// The body of the operator `F(x, y, R)`, as an expression with the free
/// variables `NODES`, `EDGES`, `ANDS`, `x`, `y`, `R`.
fn f_holds_body() -> Expr {
    // ∃z. E(x, z) ∧ R(z, y): scan EDGES, matching on the source and looking
    // the target up in R. The context tuple [x, y, R] travels in `extra`.
    let exists_step = forsome(
        var("EDGES"),
        lam(
            "e",
            "ctx",
            and(
                eq(sel(var("e"), 1), sel(var("ctx"), 1)),
                member(
                    tuple([sel(var("e"), 2), sel(var("ctx"), 2)]),
                    sel(var("ctx"), 3),
                ),
            ),
        ),
        tuple([var("x"), var("y"), var("R")]),
    );
    // A(x) → ∀z. E(x, z) → R(z, y).
    let universal_ok = or(
        not(member(var("x"), var("ANDS"))),
        forall(
            var("EDGES"),
            lam(
                "e",
                "ctx",
                or(
                    not(eq(sel(var("e"), 1), sel(var("ctx"), 1))),
                    member(
                        tuple([sel(var("e"), 2), sel(var("ctx"), 2)]),
                        sel(var("ctx"), 3),
                    ),
                ),
            ),
            tuple([var("x"), var("y"), var("R")]),
        ),
    );
    or(eq(var("x"), var("y")), and(exists_step, universal_ok))
}

/// Builds the APATH/AGAP program with `|NODES|` fixpoint rounds (sufficient;
/// see the module documentation).
pub fn apath_program() -> Program {
    apath_program_impl(false)
}

/// Builds the APATH/AGAP program that iterates `|NODES|²` rounds, matching
/// the paper's `ITERATE()` construction literally. Asymptotically wasteful
/// but useful for validating that the extra rounds change nothing.
pub fn apath_program_with_rounds() -> Program {
    apath_program_impl(true)
}

fn apath_program_impl(square_rounds: bool) -> Program {
    let program = Program::new(Dialect::srl());

    // max_node(NODES): the greatest vertex in the ordering.
    let program = program.define(
        names::MAX_NODE,
        ["NODES"],
        set_reduce(
            var("NODES"),
            Lambda::identity(),
            lam(
                "d",
                "best",
                if_(leq(var("best"), var("d")), var("d"), var("best")),
            ),
            choose(var("NODES")),
            empty_set(),
        ),
    );

    // f_holds(NODES, EDGES, ANDS, x, y, R).
    let program = program.define(
        names::F_HOLDS,
        ["NODES", "EDGES", "ANDS", "x", "y", "R"],
        f_holds_body(),
    );

    // f_round(NODES, EDGES, ANDS, R): for every pair (x, y) in NODES × NODES,
    // insert [x, y] when F(x, y) holds of the accumulated relation.
    let inner = set_reduce(
        var("NODES"),
        Lambda::identity(),
        lam(
            "y",
            "R2",
            if_(
                member(tuple([var("x"), var("y")]), var("R2")),
                var("R2"),
                if_(
                    call(
                        names::F_HOLDS,
                        [
                            var("NODES"),
                            var("EDGES"),
                            var("ANDS"),
                            var("x"),
                            var("y"),
                            var("R2"),
                        ],
                    ),
                    insert(tuple([var("x"), var("y")]), var("R2")),
                    var("R2"),
                ),
            ),
        ),
        var("R1"),
        empty_set(),
    );
    let program = program.define(
        names::F_ROUND,
        ["NODES", "EDGES", "ANDS", "R"],
        set_reduce(
            var("NODES"),
            Lambda::identity(),
            lam("x", "R1", inner),
            var("R"),
            empty_set(),
        ),
    );

    // apath(NODES, EDGES, ANDS): iterate f_round once per vertex (or once per
    // pair of vertices in the literal variant), starting from the empty
    // relation.
    let one_sweep = |base: Expr| {
        set_reduce(
            var("NODES"),
            Lambda::identity(),
            lam(
                "round",
                "Racc",
                call(
                    names::F_ROUND,
                    [var("NODES"), var("EDGES"), var("ANDS"), var("Racc")],
                ),
            ),
            base,
            empty_set(),
        )
    };
    let apath_body = if square_rounds {
        set_reduce(
            var("NODES"),
            Lambda::identity(),
            lam("outer_round", "Router", one_sweep(var("Router"))),
            empty_set(),
            empty_set(),
        )
    } else {
        one_sweep(empty_set())
    };
    let program = program.define(names::APATH, ["NODES", "EDGES", "ANDS"], apath_body);

    // agap(NODES, EDGES, ANDS) = member([v0, vmax], apath).
    program.define(
        names::AGAP,
        ["NODES", "EDGES", "ANDS"],
        member(
            tuple([choose(var("NODES")), call(names::MAX_NODE, [var("NODES")])]),
            call(names::APATH, [var("NODES"), var("EDGES"), var("ANDS")]),
        ),
    )
}

/// The paper's derivation of the AND-labelled vertex set from the labelled
/// edge encoding (`ANDS = project(select(EDGES, λx. x.label = AND), from)`),
/// as an expression over a labelled edge set `[[from, to], label]` and the
/// AND label value.
pub fn ands_from_labelled_edges(labelled_edges: Expr, and_label: Expr) -> Expr {
    project_from(select(
        labelled_edges,
        lam("t", "lbl", eq(sel(var("t"), 2), var("lbl"))),
        and_label,
    ))
}

/// `project(…, from)` for the labelled edge encoding: the set of `from`
/// components of the inner `[from, to]` pairs.
fn project_from(labelled: Expr) -> Expr {
    map_set(
        labelled,
        lam("t", "unused", sel(sel(var("t"), 1), 1)),
        empty_set(),
    )
}

/// The plain `[from, to]` edge set from the labelled encoding.
pub fn edges_from_labelled(labelled_edges: Expr) -> Expr {
    project(labelled_edges, 1)
}

#[cfg(test)]
mod tests {
    use super::names::*;
    use super::*;
    use srl_core::eval::run_program;
    use srl_core::limits::EvalLimits;
    use srl_core::typecheck::check_program;
    use srl_core::value::Value;
    use workloads::altgraph::AlternatingGraph;

    fn run_agap(graph: &AlternatingGraph) -> bool {
        let program = apath_program();
        let (value, _) = run_program(
            &program,
            AGAP,
            &[graph.nodes_value(), graph.edges_value(), graph.ands_value()],
            EvalLimits::benchmark(),
        )
        .expect("agap evaluation");
        value.as_bool().expect("agap returns a boolean")
    }

    fn run_apath(graph: &AlternatingGraph) -> Vec<Vec<bool>> {
        let program = apath_program();
        let (value, _) = run_program(
            &program,
            APATH,
            &[graph.nodes_value(), graph.edges_value(), graph.ands_value()],
            EvalLimits::benchmark(),
        )
        .expect("apath evaluation");
        AlternatingGraph::apath_from_value(&value, graph.n).expect("relation shape")
    }

    #[test]
    fn program_validates_and_typechecks_would_need_types() {
        let p = apath_program();
        assert!(p.validate().is_ok());
        // The untyped definitions cannot be fully type-checked (no declared
        // parameter types), but the structural validation plus evaluation
        // tests below cover the paper's claim; the typed variants live in the
        // integration tests.
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn existential_graph_is_plain_reachability() {
        let g = AlternatingGraph::new(4, [(0, 1), (1, 2), (2, 3)], [false; 4]);
        assert!(run_agap(&g));
        let m = run_apath(&g);
        let native = g.apath_all();
        assert_eq!(m, native);
    }

    #[test]
    fn universal_vertex_requires_all_successors() {
        let g = AlternatingGraph::new(4, [(0, 1), (0, 2), (1, 3)], [true, false, false, false]);
        assert!(!run_agap(&g));
        let g2 = AlternatingGraph::new(
            4,
            [(0, 1), (0, 2), (1, 3), (2, 3)],
            [true, false, false, false],
        );
        assert!(run_agap(&g2));
    }

    #[test]
    fn matches_native_solver_on_random_graphs() {
        for seed in 0..4u64 {
            let g = AlternatingGraph::random(6, 0.25, seed);
            let srl = run_apath(&g);
            let native = g.apath_all();
            assert_eq!(srl, native, "seed {seed}");
        }
    }

    #[test]
    fn matches_native_solver_on_layered_games() {
        for (layers, width) in [(2, 2), (3, 2)] {
            let g = AlternatingGraph::layered_game(layers, width);
            assert!(run_agap(&g), "layers={layers} width={width}");
            assert_eq!(run_apath(&g), g.apath_all());
        }
    }

    #[test]
    fn literal_square_iteration_agrees() {
        let g = AlternatingGraph::random(5, 0.3, 42);
        let fast = apath_program();
        let slow = apath_program_with_rounds();
        let args = [g.nodes_value(), g.edges_value(), g.ands_value()];
        let (a, _) = run_program(&fast, APATH, &args, EvalLimits::benchmark()).unwrap();
        let (b, _) = run_program(&slow, APATH, &args, EvalLimits::benchmark()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn labelled_edge_encoding_derives_ands() {
        let g = AlternatingGraph::new(3, [(0, 1), (1, 2)], [false, true, false]);
        let labelled = g.labelled_edges_value();
        let and_label = Value::atom(3); // the encoding reserves atom n for AND
        let expr = ands_from_labelled_edges(var("L"), const_v(and_label));
        let env = srl_core::program::Env::new().bind("L", labelled.clone());
        let v = srl_core::eval::eval_expr(&expr, &env, EvalLimits::default()).unwrap();
        // Vertex 1 is universal and has an outgoing edge, so it appears.
        assert_eq!(v, Value::set([Value::atom(1)]));
        // The plain edge projection recovers the [from, to] pairs.
        let edges = edges_from_labelled(var("L"));
        let v = srl_core::eval::eval_expr(&edges, &env, EvalLimits::default()).unwrap();
        assert_eq!(v, g.edges_value());
    }

    #[test]
    fn stats_show_polynomial_iteration_counts() {
        // |NODES| rounds × |NODES|² pairs: reduce iterations grow
        // polynomially, not exponentially.
        let program = apath_program();
        let mut iterations = Vec::new();
        for n in [3usize, 4, 5] {
            let g = AlternatingGraph::random(n, 0.3, 7);
            let (_, stats) = run_program(
                &program,
                APATH,
                &[g.nodes_value(), g.edges_value(), g.ands_value()],
                EvalLimits::benchmark(),
            )
            .unwrap();
            iterations.push(stats.reduce_iterations);
        }
        assert!(iterations[0] < iterations[1]);
        assert!(iterations[1] < iterations[2]);
        // Loose polynomial envelope: far below n⁶ even for these tiny sizes.
        assert!(iterations[2] < 5u64.pow(6));
    }
}
