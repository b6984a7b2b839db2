//! Cross-crate integration tests: each test exercises one of the paper's
//! claims end to end, crossing at least two crates (the SRL construction on
//! one side and a native baseline on the other).

use fo_logic::formula::library::agap_sentence;
use fo_logic::{eval_sentence, Structure};
use srl_analysis::{classify_program, Fragment};
use srl_core::eval::run_program;
use srl_core::{EvalLimits, Value};
use srl_integration_tests::atom_set;
use srl_stdlib::agap::{apath_program, names as agap_names};
use srl_stdlib::arith::{arithmetic_program, domain, names as arith_names};
use srl_stdlib::perm::{names as perm_names, padded_domain, perm_program};
use srl_stdlib::primrec_compile::{compile as compile_pr, eval_compiled};
use srl_stdlib::tm_sim::{self, names as tm_names};
use workloads::altgraph::AlternatingGraph;
use workloads::permutation::IteratedProductInstance;

#[test]
fn theorem_3_10_agap_agrees_with_lfp_and_native_solver() {
    let program = apath_program();
    for seed in 0..3u64 {
        let g = AlternatingGraph::random(6, 0.3, seed);
        let (srl, _) = run_program(
            &program,
            agap_names::AGAP,
            &[g.nodes_value(), g.edges_value(), g.ands_value()],
            EvalLimits::benchmark(),
        )
        .unwrap();
        let native = g.agap();
        let structure = Structure::from_alternating_graph(g.n, &g.edges, &g.universal);
        let lfp = eval_sentence(&structure, &agap_sentence());
        assert_eq!(srl, Value::bool(native), "seed {seed}");
        assert_eq!(lfp, native, "seed {seed}");
    }
}

#[test]
fn theorem_4_13_permutation_product_in_basrl_with_bounded_accumulator() {
    let program = perm_program();
    assert_eq!(classify_program(&program, 1).fragment, Fragment::Basrl);
    let instance = IteratedProductInstance::random(5, 5, 3);
    let product = instance.product();
    for point in 0..5usize {
        let (value, stats) = run_program(
            &program,
            perm_names::IP,
            &[
                padded_domain(&instance),
                instance.to_srl_value(),
                Value::atom(point as u64),
            ],
            EvalLimits::benchmark(),
        )
        .unwrap();
        assert_eq!(
            value.as_tuple().unwrap()[1],
            Value::atom(product.apply(point) as u64)
        );
        assert!(stats.max_accumulator_weight <= 8);
    }
}

#[test]
fn lemma_4_6_bit_agrees_with_the_fo_bit_predicate() {
    let program = arithmetic_program();
    let n = 16u64;
    for a in [3u64, 9, 13] {
        for i in 0..4u64 {
            let (value, _) = run_program(
                &program,
                arith_names::BIT,
                &[domain(n), Value::atom(i), Value::atom(a)],
                EvalLimits::benchmark(),
            )
            .unwrap();
            // Compare against the fo-logic BIT predicate on a structure of
            // the same universe size.
            let structure = Structure::from_digraph(n as usize, &[]);
            let fo_bit = fo_logic::eval(
                &structure,
                &fo_logic::Formula::Bit(
                    fo_logic::Term::Const(i as usize),
                    fo_logic::Term::Const(a as usize),
                ),
                &fo_logic::Assignment::new(),
            );
            assert_eq!(value, Value::bool(fo_bit), "BIT({i}, {a})");
        }
    }
}

#[test]
fn theorem_5_2_compiled_primitive_recursion_matches_ground_truth() {
    use machines::primrec::library;
    for (term, args) in [
        (library::add(), vec![6u64, 7]),
        (library::mul(), vec![3, 5]),
        (library::monus(), vec![4, 9]),
        (library::factorial(), vec![4]),
    ] {
        let compiled = compile_pr(&term).unwrap();
        let expected = term.eval_u64(&args).unwrap().to_u64().unwrap();
        let got = eval_compiled(&compiled, &args, EvalLimits::benchmark()).unwrap();
        assert_eq!(got, expected, "{args:?}");
    }
}

#[test]
fn proposition_6_2_simulation_matches_machine_on_both_library_machines() {
    use machines::tm::library::{copy_input, encode_word, even_parity};
    for machine in [even_parity(), copy_input()] {
        let program = tm_sim::compile(&machine);
        for word in ["ab", "aab", "abba"] {
            let input = encode_word(word);
            let native = machine.accepts(&input, 10_000);
            let (value, _) = run_program(
                &program,
                tm_names::ACCEPTS,
                &[
                    tm_sim::position_domain(input.len()),
                    tm_sim::encode_input(&input),
                ],
                EvalLimits::benchmark(),
            )
            .unwrap();
            assert_eq!(value, Value::bool(native), "{} on {word:?}", machine.name);
        }
    }
}

#[test]
fn section_6_classifier_places_the_paper_programs_in_their_fragments() {
    assert_eq!(
        classify_program(&arithmetic_program(), 1).fragment,
        Fragment::Basrl
    );
    assert_eq!(
        classify_program(&apath_program(), 1).fragment,
        Fragment::Srl
    );
    assert_eq!(
        classify_program(&srl_stdlib::blowup::powerset_program(), 1).fragment,
        Fragment::UnrestrictedSrl
    );
    assert_eq!(
        classify_program(&srl_stdlib::blowup::lrl_doubling_program(), 0).fragment,
        Fragment::PrimitiveRecursive
    );
}

#[test]
fn section_7_order_verdicts_match_renaming_behaviour() {
    use srl_analysis::{analyze_order_dependence, OrderVerdict};
    use srl_core::dsl::var;
    use srl_core::{Env, Program};
    use srl_integration_tests::ENGINES;
    use srl_stdlib::hom;

    let program = Program::srl();
    let env = Env::new()
        .bind("S", atom_set([1, 6, 11]))
        .bind("P", atom_set([11]));
    for (_, backend) in ENGINES {
        assert_eq!(
            analyze_order_dependence(backend, &program, &hom::even(var("S")), &env, 16, 8),
            OrderVerdict::ProvedIndependent,
            "{backend:?}"
        );
        assert!(
            matches!(
                analyze_order_dependence(
                    backend,
                    &program,
                    &hom::purple_first(var("S"), var("P")),
                    &env,
                    16,
                    16
                ),
                OrderVerdict::ProvedDependent { .. }
            ),
            "{backend:?}"
        );
    }
}

#[test]
fn proposition_3_3_closure_under_fo_interpretations() {
    // Reduce plain reachability to AGAP via the interpretation library, and
    // check that the SRL AGAP program answers the reachability question.
    use fo_logic::interpretation::library::reachability_to_agap;
    use workloads::digraph::Digraph;

    let program = apath_program();
    for (graph, expected) in [
        (Digraph::path(5), true),
        (Digraph::new(5, [(1, 0), (2, 1), (3, 2), (4, 3)]), false),
    ] {
        let source = Structure::from_digraph(graph.n, &graph.edges);
        let reduced = reachability_to_agap().apply(&source);
        // Rebuild an AlternatingGraph from the reduced structure.
        let edges: Vec<(usize, usize)> = reduced.tuples("E").map(|t| (t[0], t[1])).collect();
        let universal: Vec<bool> = (0..reduced.universe)
            .map(|v| reduced.holds("A", &[v]))
            .collect();
        let alt = AlternatingGraph::new(reduced.universe, edges, universal);
        let (value, _) = run_program(
            &program,
            agap_names::AGAP,
            &[alt.nodes_value(), alt.edges_value(), alt.ands_value()],
            EvalLimits::benchmark(),
        )
        .unwrap();
        assert_eq!(value, Value::bool(expected));
    }
}
