//! # srl-bench — the experiment harness
//!
//! One experiment per constructive claim of the paper: each
//! `experiment_e1` … `experiment_e9` names the result it reproduces, and
//! `crates/README.md` maps the crates they draw on. The functions
//! here produce the *semantic* measurements (agreement with the native
//! baselines, growth of iteration counts, accumulator sizes) that the
//! `report` binary prints and that `BENCH_1.json` pins. Wall clock is
//! measured elsewhere: the `perfprobe` binary gates engine-vs-engine
//! ratios, and the repository benchmark in `perfbench/` measures end to
//! end.
//!
//! Every experiment pushes its program through the staged compile pipeline
//! **once** (via `Harness`, over `srl_core::pipeline::Pipeline`) and
//! reuses the compiled form across all measured sizes and repetitions —
//! the compile-once / evaluate-many discipline `srl-analysis`'s
//! `permutation_test` established. Recompiling inside the measured region
//! (what the original `run_program`-per-measurement harnesses did) charges
//! lowering to every reported number; the statistics are unaffected (they
//! only count evaluation work) but wall-clock comparisons are skewed.
//!
//! Each experiment that evaluates SRL takes the [`ExecBackend`] to run on
//! (the benchmark's **backend axis**, extended with the **par axis** — the
//! VM's worker-pool width; E8 hands it to `srl-analysis`'s permutation
//! test). The semantic rows
//! are invariant along both axes, so `report --json` must diff clean
//! against `BENCH_1.json` under any setting (CI checks the default, the
//! tree-walk and a multi-threaded pool).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use srl_core::api::escape;
use srl_core::ast::Expr;
use srl_core::error::EvalError;
use srl_core::eval::Evaluator;
use srl_core::limits::{EvalLimits, EvalStats};
use srl_core::lower::LoweredExpr;
use srl_core::pipeline::{Compiled, PipelineConfig, TypePolicy};
use srl_core::program::{Env, Program};
use srl_core::value::Value;
use srl_core::ExecBackend;

/// A program pushed once through the staged compile pipeline
/// ([`srl_core::pipeline::Pipeline`]) per experiment, with one long-lived
/// [`Evaluator`] shared by every measured run.
///
/// Statistics are reset before each run (so they cover exactly one
/// evaluation, as `run_program` reported them), but nothing is re-lowered,
/// re-validated or re-fingerprinted per measurement — the construction cost
/// is paid exactly once. The evaluator runs on the backend the experiment
/// was given.
struct Harness {
    artifact: Compiled,
    evaluator: Evaluator,
}

impl Harness {
    fn new(program: Program, limits: EvalLimits, backend: ExecBackend) -> Self {
        let artifact = PipelineConfig::new()
            .with_limits(limits)
            .with_backend(backend)
            .with_type_policy(TypePolicy::Skip)
            .pipeline()
            .prepare(program)
            .expect("experiment programs are structurally well-formed");
        let evaluator = artifact.evaluator();
        Harness {
            artifact,
            evaluator,
        }
    }

    /// Calls a named definition; returns the result and the statistics of
    /// this call alone.
    fn run(&mut self, name: &str, args: &[Value]) -> Result<(Value, EvalStats), EvalError> {
        self.evaluator.reset_stats();
        let value = self.evaluator.call(name, args)?;
        Ok((value, *self.evaluator.stats()))
    }

    /// Lowers a stand-alone expression once against `scope` (the input names,
    /// in environment binding order) for repeated evaluation.
    fn lower(&self, expr: &Expr, scope: &[&str]) -> LoweredExpr {
        self.artifact.lower_expr(expr, scope)
    }

    /// Evaluates a pre-lowered expression against an environment binding the
    /// lowered scope's names in the same order.
    fn eval_lowered(
        &mut self,
        lowered: &LoweredExpr,
        env: &Env,
    ) -> Result<(Value, EvalStats), EvalError> {
        self.evaluator.reset_stats();
        let value = self.evaluator.eval_lowered(lowered, env)?;
        Ok((value, *self.evaluator.stats()))
    }

    /// Lowers and evaluates an expression whose shape varies per measurement
    /// (the program stays amortised; only the query itself is lowered).
    fn eval_expr(&mut self, expr: &Expr, env: &Env) -> Result<(Value, EvalStats), EvalError> {
        self.evaluator.reset_stats();
        let value = self.evaluator.eval(expr, env)?;
        Ok((value, *self.evaluator.stats()))
    }
}

/// Query ASTs shared by the experiments and the `perfprobe` binary, so
/// every harness measures exactly the expressions the semantic report
/// validates (a drifting copy would silently time a different query than
/// the one checked against the native baselines).
pub mod queries {
    use srl_core::ast::Expr;
    use srl_core::dsl::{
        atom, choose, empty_set, eq, if_, insert, lam, sel, set_reduce, tuple, var,
    };
    use srl_stdlib::derived::{intersection, join, member, project, select, union};
    use srl_stdlib::tc;

    /// E5: transitive closure of edge set `E` over domain `D`.
    pub fn tc_query() -> Expr {
        tc::transitive_closure(var("D"), var("E"))
    }

    /// E5: deterministic transitive closure of `E` over domain `D`.
    pub fn dtc_query() -> Expr {
        tc::deterministic_transitive_closure(var("D"), var("E"))
    }

    /// E9: join employees (`EMP`) with departments (`DEPT`) on the
    /// department id, projecting the employee and manager ids.
    pub fn company_join() -> Expr {
        join(
            var("EMP"),
            var("DEPT"),
            lam("e", "d", eq(sel(var("e"), 2), sel(var("d"), 1))),
            lam("e", "d", tuple([sel(var("e"), 1), sel(var("d"), 2)])),
        )
    }

    /// E5 (atom-set core): the set of vertices reachable from `choose(D)`
    /// along `E`, by one frontier-expansion round per element of the driver
    /// set `K` (a diameter bound). Unlike [`tc_query`], whose accumulator is
    /// the pair *relation*, the accumulator here is the vertex *set* — the
    /// workload the columnar atom tier targets: per edge one membership
    /// probe against the reach set, then one bulk union per round.
    pub fn reach_query() -> Expr {
        // One round, the current reach set threaded through `extra`:
        // {e.2 | e ∈ E, e.1 ∈ R}.
        let step = set_reduce(
            var("E"),
            lam(
                "__re_e",
                "__re_r",
                tuple([
                    sel(var("__re_e"), 2),
                    member(sel(var("__re_e"), 1), var("__re_r")),
                ]),
            ),
            lam(
                "__re_p",
                "__re_acc",
                if_(
                    sel(var("__re_p"), 2),
                    insert(sel(var("__re_p"), 1), var("__re_acc")),
                    var("__re_acc"),
                ),
            ),
            empty_set(),
            var("__rr_acc"),
        );
        set_reduce(
            var("K"),
            lam("__rr_k", "__rr_unused", var("__rr_k")),
            lam("__rr_round", "__rr_acc", union(var("__rr_acc"), step)),
            insert(choose(var("D")), empty_set()),
            empty_set(),
        )
    }

    /// E9 (dense-id core): intersection of an employee-id set with a dense
    /// id universe — per element one membership probe against the dense set
    /// and one insert into a `set(atom)` accumulator, the shape the columnar
    /// bitset tier answers in O(1) words.
    pub fn id_intersection() -> Expr {
        intersection(var("IDS"), var("UNIV"))
    }

    /// Dense-universe probe: bulk union of two interleaved atom sets that
    /// together tile `0..2n` — one fused `SetMerge` per evaluation, columnar
    /// word-parallel against the generic element merge.
    pub fn dense_union() -> Expr {
        union(var("A"), var("B"))
    }

    /// E5 (pair-relation core): the reachability *relation* from
    /// `choose(D)` along `E` — the pairs `(s, v)` with `v` reachable from
    /// the chosen source — by one frontier-expansion round per element of
    /// the driver set `K`. The pair twin of [`reach_query`]: the
    /// accumulator is a fixed-arity atom-tuple relation, so per edge the
    /// round probes one pair tuple against it (a binary search), and each
    /// round ends in one bulk union.
    pub fn pair_reach_query() -> Expr {
        // One round, the accumulated relation threaded through `extra`:
        // {(s, e.2) | e ∈ E, (s, e.1) ∈ R}.
        let step = set_reduce(
            var("E"),
            lam(
                "__pr_e",
                "__pr_r",
                tuple([
                    sel(var("__pr_e"), 2),
                    member(tuple([var("__pr_s"), sel(var("__pr_e"), 1)]), var("__pr_r")),
                ]),
            ),
            lam(
                "__pr_p",
                "__pr_acc",
                if_(
                    sel(var("__pr_p"), 2),
                    insert(
                        tuple([var("__pr_s"), sel(var("__pr_p"), 1)]),
                        var("__pr_acc"),
                    ),
                    var("__pr_acc"),
                ),
            ),
            empty_set(),
            var("__pc_acc"),
        );
        let rounds = set_reduce(
            var("K"),
            lam("__pc_k", "__pc_unused", var("__pc_k")),
            lam("__pc_round", "__pc_acc", union(var("__pc_acc"), step)),
            insert(tuple([var("__pr_s"), var("__pr_s")]), empty_set()),
            empty_set(),
        );
        // Bind the source once by folding over the singleton {choose(D)}:
        // the combiner parameter `__pr_s` scopes the source for the rounds
        // (the same capture trick [`product_relation`] uses for `__xp_a`).
        set_reduce(
            insert(choose(var("D")), empty_set()),
            lam("__pr_s0", "__pr_u", var("__pr_s0")),
            lam("__pr_s", "__pr_out", rounds),
            empty_set(),
            empty_set(),
        )
    }

    /// Product relation: `A × B` as pair tuples — every insert is an
    /// arity-2 plain-atom tuple, and the accumulator grows by one
    /// galloping bulk union per outer element.
    pub fn product_relation() -> Expr {
        let row = set_reduce(
            var("B"),
            lam("__xp_b", "__xp_u", tuple([var("__xp_a"), var("__xp_b")])),
            lam("__xp_p", "__xp_acc", insert(var("__xp_p"), var("__xp_acc"))),
            empty_set(),
            empty_set(),
        );
        set_reduce(
            var("A"),
            lam("__xp_e", "__xp_u0", var("__xp_e")),
            lam("__xp_a", "__xp_out", union(var("__xp_out"), row)),
            empty_set(),
            empty_set(),
        )
    }

    /// E9: ids of the employees in department `dept` (select + project).
    pub fn employees_in_department(dept: u64) -> Expr {
        project(
            select(
                var("EMP"),
                lam("e", "x", eq(sel(var("e"), 2), atom(dept))),
                empty_set(),
            ),
            1,
        )
    }
}

/// One measured row of an experiment.
#[derive(Clone, Debug)]
pub struct Row {
    /// Experiment id (e.g. "E1").
    pub experiment: &'static str,
    /// Workload description.
    pub workload: String,
    /// The size parameter swept.
    pub n: usize,
    /// Did the SRL construction agree with the native baseline?
    pub agrees_with_baseline: bool,
    /// Reduce iterations performed by the SRL evaluation.
    pub reduce_iterations: u64,
    /// Largest accumulator weight observed (the logspace signature).
    pub max_accumulator_weight: usize,
    /// Total value leaves allocated (the blow-up signature).
    pub allocated_leaves: usize,
    /// Extra, experiment-specific note.
    pub note: String,
}

impl Row {
    fn new(experiment: &'static str, workload: impl Into<String>, n: usize) -> Self {
        Row {
            experiment,
            workload: workload.into(),
            n,
            agrees_with_baseline: true,
            reduce_iterations: 0,
            max_accumulator_weight: 0,
            allocated_leaves: 0,
            note: String::new(),
        }
    }

    fn with_stats(mut self, stats: &EvalStats) -> Self {
        self.reduce_iterations = stats.reduce_iterations;
        self.max_accumulator_weight = stats.max_accumulator_weight;
        self.allocated_leaves = stats.max_value_weight;
        self
    }
}

/// Renders rows as a pretty-printed JSON array (the schema is the `Row`
/// struct field-for-field; strings go through the wire codec's
/// [`escape`]).
pub fn to_json(rows: &[Row]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\n    \"experiment\": \"{}\",\n    \"workload\": \"{}\",\n    \"n\": {},\n    \"agrees_with_baseline\": {},\n    \"reduce_iterations\": {},\n    \"max_accumulator_weight\": {},\n    \"allocated_leaves\": {},\n    \"note\": \"{}\"\n  }}",
            escape(r.experiment),
            escape(&r.workload),
            r.n,
            r.agrees_with_baseline,
            r.reduce_iterations,
            r.max_accumulator_weight,
            r.allocated_leaves,
            escape(&r.note)
        ));
    }
    out.push_str("\n]");
    out
}

/// Renders rows as a markdown table.
pub fn to_markdown(rows: &[Row]) -> String {
    let mut out = String::from(
        "| exp | workload | n | agrees | reduce iters | max acc weight | allocated leaves | note |\n|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.experiment,
            r.workload,
            r.n,
            if r.agrees_with_baseline { "yes" } else { "NO" },
            r.reduce_iterations,
            r.max_accumulator_weight,
            r.allocated_leaves,
            r.note
        ));
    }
    out
}

/// E1 — Lemma 3.6 / Theorem 3.10: APATH in SRL vs. the native alternating
/// reachability solver and the FO+LFP baseline.
pub fn experiment_e1(backend: ExecBackend, sizes: &[usize]) -> Vec<Row> {
    use srl_stdlib::agap::{apath_program, names};
    use workloads::altgraph::AlternatingGraph;

    let mut harness = Harness::new(apath_program(), EvalLimits::benchmark(), backend);
    let mut rows = Vec::new();
    for &n in sizes {
        let graph = AlternatingGraph::random(n, 0.25, 7 + n as u64);
        let native = graph.apath_all();
        let lfp_structure =
            fo_logic::Structure::from_alternating_graph(graph.n, &graph.edges, &graph.universal);
        let lfp_agrees = fo_logic::formula::eval_sentence(
            &lfp_structure,
            &fo_logic::formula::library::agap_sentence(),
        ) == graph.agap();
        let (value, stats) = harness
            .run(
                names::APATH,
                &[graph.nodes_value(), graph.edges_value(), graph.ands_value()],
            )
            .expect("APATH evaluates");
        let srl = AlternatingGraph::apath_from_value(&value, graph.n).expect("relation shape");
        let mut row = Row::new("E1", "random alternating graph (p=0.25)", n).with_stats(&stats);
        row.agrees_with_baseline = srl == native && lfp_agrees;
        row.note = format!("AGAP = {}", graph.agap());
        rows.push(row);
    }
    rows
}

/// E2 — Example 3.12: powerset blow-up at set-height 2.
pub fn experiment_e2(backend: ExecBackend, sizes: &[usize]) -> Vec<Row> {
    use srl_stdlib::blowup::{names, powerset_program};

    let mut harness = Harness::new(powerset_program(), EvalLimits::default(), backend);
    let mut rows = Vec::new();
    for &n in sizes {
        let input = Value::set((0..n as u64).map(Value::atom));
        let result = harness.run(names::POWERSET, &[input]);
        let mut row = Row::new("E2", "powerset of {0..n}", n);
        match result {
            Ok((value, stats)) => {
                row = row.with_stats(&stats);
                row.agrees_with_baseline = value.len() == Some(1 << n);
                row.note = format!("|P(S)| = {}", value.len().unwrap_or(0));
            }
            Err(e) => {
                row.agrees_with_baseline = true;
                row.note = format!("resource wall: {e}");
            }
        }
        rows.push(row);
    }
    rows
}

/// E3 — Proposition 4.5 / Lemma 4.6: BASRL arithmetic vs. native arithmetic,
/// with the accumulator-size evidence for Theorem 4.13.
pub fn experiment_e3(backend: ExecBackend, sizes: &[usize]) -> Vec<Row> {
    use srl_stdlib::arith::{arithmetic_program, domain, names};

    let mut harness = Harness::new(arithmetic_program(), EvalLimits::benchmark(), backend);
    let mut rows = Vec::new();
    for &n in sizes {
        let d = domain(n as u64);
        let a = (n as u64 / 3).max(1);
        let b = (n as u64 / 4).max(1);
        let mut agrees = true;
        let mut total_stats = EvalStats::default();
        for (name, args, expected) in [
            (names::ADD, vec![a, b], (a + b).min(n as u64 - 1)),
            (names::MULT, vec![3, b], (3 * b).min(n as u64 - 1)),
            (names::BIT, vec![1, a], u64::MAX), // checked separately below
        ] {
            let mut call_args = vec![d.clone()];
            call_args.extend(args.iter().map(|&x| Value::atom(x)));
            let (value, stats) = harness.run(name, &call_args).expect("arith");
            total_stats.absorb(&stats);
            if name == names::BIT {
                agrees &= value == Value::bool((a >> 1) & 1 == 1);
            } else {
                agrees &= value == Value::atom(expected);
            }
        }
        let mut row = Row::new("E3", "BASRL add/mult/bit over |D| = n", n).with_stats(&total_stats);
        row.agrees_with_baseline = agrees;
        rows.push(row);
    }
    rows
}

/// E4 — Lemma 4.10 / Theorem 4.13: iterated permutation product in BASRL.
pub fn experiment_e4(backend: ExecBackend, sizes: &[usize]) -> Vec<Row> {
    use srl_stdlib::perm::{names, padded_domain, perm_program};
    use workloads::permutation::IteratedProductInstance;

    let mut harness = Harness::new(perm_program(), EvalLimits::benchmark(), backend);
    let mut rows = Vec::new();
    for &n in sizes {
        let instance = IteratedProductInstance::random(n, n, 11 + n as u64);
        let product = instance.product();
        let mut agrees = true;
        let mut total_stats = EvalStats::default();
        for point in 0..n.min(4) {
            let (value, stats) = harness
                .run(
                    names::IP,
                    &[
                        padded_domain(&instance),
                        instance.to_srl_value(),
                        Value::atom(point as u64),
                    ],
                )
                .expect("IP evaluates");
            total_stats.absorb(&stats);
            let image = value.as_tuple().unwrap()[1].as_atom().unwrap().index;
            agrees &= image == product.apply(point) as u64;
        }
        let mut row =
            Row::new("E4", "IMₛₙ: n permutations of degree n", n).with_stats(&total_stats);
        row.agrees_with_baseline = agrees;
        rows.push(row);
    }
    rows
}

/// E5 — Corollaries 4.2 / 4.4: TC and DTC in SRL vs. native closures and the
/// FO+TC / FO+DTC formulas.
pub fn experiment_e5(backend: ExecBackend, sizes: &[usize]) -> Vec<Row> {
    use workloads::digraph::Digraph;

    // The queries are fixed expressions over inputs named D and E: lower them
    // once, evaluate them against every sized environment.
    let mut harness = Harness::new(
        Program::new(srl_core::Dialect::full()),
        EvalLimits::benchmark(),
        backend,
    );
    let tc_lowered = harness.lower(&queries::tc_query(), &["D", "E"]);
    let dtc_lowered = harness.lower(&queries::dtc_query(), &["D", "E"]);
    let mut rows = Vec::new();
    for &n in sizes {
        let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
        let env = Env::new()
            .bind("D", g.vertices_value())
            .bind("E", g.edges_value());
        let (tc_value, tc_stats) = harness
            .eval_lowered(&tc_lowered, &env)
            .expect("TC evaluates");
        let (dtc_value, dtc_stats) = harness
            .eval_lowered(&dtc_lowered, &env)
            .expect("DTC evaluates");
        let tc_ok = Digraph::closure_from_value(&tc_value, n) == Some(g.transitive_closure());
        let dtc_ok = Digraph::closure_from_value(&dtc_value, n)
            == Some(g.deterministic_transitive_closure());
        let mut stats = tc_stats;
        stats.absorb(&dtc_stats);
        let mut row = Row::new("E5", "random digraph, ~2 edges per vertex", n).with_stats(&stats);
        row.agrees_with_baseline = tc_ok && dtc_ok;
        rows.push(row);
    }
    rows
}

/// E6 — Theorem 5.2 / Corollary 5.5: primitive recursion compiled to SRL+new,
/// and the LRL blow-up.
pub fn experiment_e6(backend: ExecBackend, sizes: &[usize]) -> Vec<Row> {
    use machines::primrec::library;
    use srl_stdlib::blowup::{lrl_doubling_program, names as blow_names};
    use srl_stdlib::primrec_compile::{compile, decode_nat, encode_nat};

    let add = compile(&library::add()).expect("add compiles");
    let mul = compile(&library::mul()).expect("mul compiles");
    let add_entry = add.entry.clone();
    let mul_entry = mul.entry.clone();
    let mut add_harness = Harness::new(add.program, EvalLimits::benchmark(), backend);
    let mut mul_harness = Harness::new(mul.program, EvalLimits::benchmark(), backend);
    let mut doubling_harness = Harness::new(lrl_doubling_program(), EvalLimits::default(), backend);
    // `eval_compiled` re-lowers the compiled-PR program per call; run the
    // entry point through the shared compiled form instead.
    let pr_eval = |harness: &mut Harness, entry: &str, args: &[u64]| -> Option<u64> {
        let encoded: Vec<Value> = args.iter().map(|&a| encode_nat(a)).collect();
        let (value, _) = harness.run(entry, &encoded).ok()?;
        decode_nat(&value)
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let a = n as u64;
        let b = (n as u64 / 2).max(1);
        let add_ok = pr_eval(&mut add_harness, &add_entry, &[a, b]) == Some(a + b);
        let mul_ok = pr_eval(&mut mul_harness, &mul_entry, &[a.min(8), b.min(8)])
            == Some(a.min(8) * b.min(8));
        let input = Value::list((0..n as u64).map(Value::atom));
        let result = doubling_harness.run(blow_names::DOUBLING, &[input]);
        let mut row = Row::new("E6", "PR add/mul via SRL+new; LRL 2ⁿ blow-up", n);
        match result {
            Ok((v, stats)) => {
                row = row.with_stats(&stats);
                row.agrees_with_baseline =
                    add_ok && mul_ok && v.as_list().map(|l| l.len()) == Some(1 << n);
                row.note = format!("LRL list length = {}", v.len().unwrap_or(0));
            }
            Err(e) => {
                row.agrees_with_baseline = add_ok && mul_ok;
                row.note = format!("LRL resource wall: {e}");
            }
        }
        rows.push(row);
    }
    rows
}

/// E7 — Proposition 6.2 / Corollary 6.3: the compiled Turing-machine
/// simulation vs. the native runner.
pub fn experiment_e7(backend: ExecBackend, sizes: &[usize]) -> Vec<Row> {
    use machines::tm::library::{even_parity, SYM_A, SYM_B};
    use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};

    let machine = even_parity();
    let mut harness = Harness::new(compile(&machine), EvalLimits::benchmark(), backend);
    let mut rows = Vec::new();
    for &n in sizes {
        let input: Vec<u8> = (0..n)
            .map(|i| if i % 3 == 0 { SYM_A } else { SYM_B })
            .collect();
        let native = machine.accepts(&input, 10_000);
        let (value, stats) = harness
            .run(names::ACCEPTS, &[position_domain(n), encode_input(&input)])
            .expect("simulation evaluates");
        let mut row = Row::new("E7", "even-parity DTM, input length n", n).with_stats(&stats);
        row.agrees_with_baseline = value == Value::bool(native);
        row.note = format!("native accept = {native}");
        rows.push(row);
    }
    rows
}

/// E8 — Section 7: order-dependence of `Purple(First(S))`, order-independence
/// of count/EVEN, and the CFI pairs' WL-indistinguishability. The
/// order-dependence search's permutation test runs on `backend`.
pub fn experiment_e8(backend: ExecBackend, sizes: &[usize]) -> Vec<Row> {
    use srl_analysis::{analyze_order_dependence, OrderVerdict};
    use srl_core::dsl::var;
    use srl_stdlib::hom;
    use workloads::cfi::{cfi_pair, BaseGraph};
    use workloads::wl::wl1_equivalent;

    let mut rows = Vec::new();
    for &n in sizes {
        let program = srl_core::program::Program::srl();
        let s = Value::set((0..n as u64).map(|i| Value::atom(i * 2)));
        let purple = Value::set([Value::atom((n as u64 - 1) * 2)]);
        let env = Env::new().bind("S", s).bind("P", purple);
        let dependent = analyze_order_dependence(
            backend,
            &program,
            &hom::purple_first(var("S"), var("P")),
            &env,
            2 * n,
            16,
        );
        let independent =
            analyze_order_dependence(backend, &program, &hom::even(var("S")), &env, 2 * n, 8);
        let (g, h) = cfi_pair(&BaseGraph::cycle(n.max(3)));
        let wl_blind = wl1_equivalent(&g.graph, &h.graph);
        let components_differ = g.connected_components() != h.connected_components();
        let mut row = Row::new("E8", "Purple(First) vs EVEN; CFI over Cₙ", n);
        row.agrees_with_baseline = matches!(dependent, OrderVerdict::ProvedDependent { .. })
            && independent == OrderVerdict::ProvedIndependent
            && wl_blind
            && components_differ;
        row.note = format!(
            "CFI: 1-WL equivalent = {wl_blind}, component counts differ = {components_differ}"
        );
        rows.push(row);
    }
    rows
}

/// E9 — Fact 2.4 / Proposition 3.3: relational operators in SRL on the
/// company workload, and closure under a first-order interpretation.
pub fn experiment_e9(backend: ExecBackend, sizes: &[usize]) -> Vec<Row> {
    use fo_logic::interpretation::library::graph_square;
    use workloads::tables::CompanyDatabase;

    // The join query is fixed; the select/project query embeds a per-size
    // department constant, so only the former can be lowered once. The
    // (empty) program behind both is still compiled exactly once.
    let mut harness = Harness::new(
        Program::new(srl_core::Dialect::full()),
        EvalLimits::benchmark(),
        backend,
    );
    let joined_lowered = harness.lower(&queries::company_join(), &["EMP", "DEPT"]);
    let mut rows = Vec::new();
    for &n in sizes {
        let db = CompanyDatabase::generate(n, (n / 4).max(1), 4, 31 + n as u64);
        let env = Env::new()
            .bind("EMP", db.employees_value())
            .bind("DEPT", db.departments_value());
        // Join employees with their department's manager and project the ids.
        let (value, stats) = harness
            .eval_lowered(&joined_lowered, &env)
            .expect("join evaluates");
        let native: std::collections::BTreeSet<(u64, u64)> =
            db.employee_manager_join().into_iter().collect();
        let srl_pairs: std::collections::BTreeSet<(u64, u64)> = value
            .as_set()
            .unwrap()
            .iter()
            .map(|t| {
                let tt = t.as_tuple().unwrap();
                (
                    tt[0].as_atom().unwrap().index,
                    tt[1].as_atom().unwrap().index,
                )
            })
            .collect();
        // A select/project query for good measure.
        let dept0 = db.departments[0].id;
        let in_dept0 = queries::employees_in_department(dept0);
        let (sel_value, _) = harness.eval_expr(&in_dept0, &env).expect("select");
        let native_dept: Vec<u64> = db.employees_in_department(dept0);
        let srl_dept: Vec<u64> = sel_value
            .as_set()
            .unwrap()
            .iter()
            .map(|a| a.as_atom().unwrap().index)
            .collect();
        // Closure under FO interpretations: squaring a path keeps reachability
        // answers consistent (checked via the interpretation library).
        let path = fo_logic::Structure::from_digraph(
            n.max(2),
            &(1..n.max(2)).map(|i| (i - 1, i)).collect::<Vec<_>>(),
        );
        let squared = graph_square().apply(&path);
        let interp_ok = squared.relation_size("E") == n.max(2).saturating_sub(2);

        let mut row =
            Row::new("E9", "company join/select/project; FO interpretation", n).with_stats(&stats);
        row.agrees_with_baseline = srl_pairs == native && srl_dept == native_dept && interp_ok;
        rows.push(row);
    }
    rows
}
