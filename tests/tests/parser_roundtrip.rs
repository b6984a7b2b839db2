//! Round-trip identity of the text front end.
//!
//! For every stdlib / workload program used by experiments E1–E9, and for
//! every stand-alone query expression the bench harness evaluates:
//!
//! * `parse(print(p))` is **structurally equal** to `p`;
//! * re-printing the parsed program reproduces the text byte-for-byte
//!   (the printer is a fixpoint of print ∘ parse);
//! * running the text-built program produces `EvalStats` byte-identical to
//!   the DSL-built program, on both execution backends.
//!
//! Also here: golden tests for the parse diagnostics (bad token, unbalanced
//! parenthesis, operator arity), asserting the span position and the
//! caret-rendered excerpt, and goldens pinning the committed
//! `examples/srl/*.srl` files to the printer's output for the programs they
//! mirror (regenerate with `SRL_REGEN=1 cargo test -p srl-integration-tests
//! --test parser_roundtrip`).

use srl_core::ast::Expr;
use srl_core::pipeline::Pipeline;
use srl_core::program::Program;
use srl_core::{EvalLimits, ExecBackend, Value};
use srl_syntax::parser::{parse_expr, parse_program_in, ParseErrorKind};
use srl_syntax::printer::{print_expr, print_program};
use srl_syntax::Span;

/// Every whole program the E1–E9 experiments evaluate.
fn experiment_programs() -> Vec<(&'static str, Program)> {
    use machines::primrec::library;
    use machines::tm::library::even_parity;
    vec![
        ("E1 apath", srl_stdlib::agap::apath_program()),
        ("E2 powerset", srl_stdlib::blowup::powerset_program()),
        ("E3 arithmetic", srl_stdlib::arith::arithmetic_program()),
        ("E4 permutations", srl_stdlib::perm::perm_program()),
        (
            "E6 primrec add",
            srl_stdlib::primrec_compile::compile(&library::add())
                .unwrap()
                .program,
        ),
        (
            "E6 primrec mul",
            srl_stdlib::primrec_compile::compile(&library::mul())
                .unwrap()
                .program,
        ),
        (
            "E6 lrl doubling",
            srl_stdlib::blowup::lrl_doubling_program(),
        ),
        (
            "E7 tm simulation",
            srl_stdlib::tm_sim::compile(&even_parity()),
        ),
    ]
}

/// Every stand-alone query expression the harness evaluates (E5, E8, E9).
fn experiment_queries() -> Vec<(&'static str, Expr)> {
    use srl_core::dsl::var;
    vec![
        ("E5 tc", srl_bench::queries::tc_query()),
        ("E5 dtc", srl_bench::queries::dtc_query()),
        (
            "E8 purple-first",
            srl_stdlib::hom::purple_first(var("S"), var("P")),
        ),
        ("E8 even", srl_stdlib::hom::even(var("S"))),
        ("E8 count", srl_stdlib::hom::count(var("S"))),
        ("E9 join", srl_bench::queries::company_join()),
        (
            "E9 select-project",
            srl_bench::queries::employees_in_department(3),
        ),
    ]
}

#[test]
fn every_experiment_program_roundtrips() {
    for (name, program) in experiment_programs() {
        let text = print_program(&program);
        let parsed = parse_program_in(&text, program.dialect)
            .unwrap_or_else(|e| panic!("{name}: {e}\n--- text ---\n{text}"));
        assert_eq!(parsed, program, "{name}: parse(print(p)) must equal p");
        assert_eq!(
            print_program(&parsed),
            text,
            "{name}: print must be a fixpoint"
        );
    }
}

#[test]
fn every_experiment_query_roundtrips() {
    for (name, expr) in experiment_queries() {
        let text = print_expr(&expr);
        let parsed =
            parse_expr(&text).unwrap_or_else(|e| panic!("{name}: {e}\n--- text ---\n{text}"));
        assert_eq!(parsed, expr, "{name}: parse(print(e)) must equal e");
        assert_eq!(
            print_expr(&parsed),
            text,
            "{name}: print must be a fixpoint"
        );
    }
}

#[test]
fn derived_operator_library_roundtrips() {
    use srl_core::dsl::{lam, sel, var};
    use srl_stdlib::derived;
    let exprs = vec![
        derived::union(var("A"), var("B")),
        derived::intersection(var("A"), var("B")),
        derived::difference(var("A"), var("B")),
        derived::member(var("x"), var("S")),
        derived::project(var("R"), 1),
        derived::select(
            var("R"),
            lam("t", "e", srl_core::dsl::eq(sel(var("t"), 1), var("e"))),
            var("k"),
        ),
    ];
    for expr in exprs {
        let text = print_expr(&expr);
        let parsed = parse_expr(&text).unwrap_or_else(|e| panic!("{e}\n--- text ---\n{text}"));
        assert_eq!(parsed, expr, "round trip of `{text}`");
    }
}

/// The acceptance gate: a program that flows in as *text* evaluates with
/// `EvalStats` byte-identical to the same program built from the DSL, on
/// both backends.
#[test]
fn text_programs_match_dsl_stats_on_both_backends() {
    let program = srl_stdlib::blowup::powerset_program();
    let text = print_program(&program);
    let input = Value::set((0..6).map(Value::atom));
    for backend in [ExecBackend::TreeWalk, ExecBackend::vm()] {
        let pipeline = Pipeline::new()
            .with_limits(EvalLimits::default())
            .with_backend(backend);
        let from_dsl = pipeline.prepare(program.clone()).unwrap();
        let from_text = pipeline
            .prepare(parse_program_in(&text, program.dialect).unwrap())
            .unwrap();
        let (dsl_value, dsl_stats) = from_dsl
            .call(
                srl_stdlib::blowup::names::POWERSET,
                std::slice::from_ref(&input),
            )
            .unwrap();
        let (text_value, text_stats) = from_text
            .call(
                srl_stdlib::blowup::names::POWERSET,
                std::slice::from_ref(&input),
            )
            .unwrap();
        assert_eq!(dsl_value, text_value, "{backend:?}");
        assert_eq!(
            dsl_stats, text_stats,
            "{backend:?}: EvalStats must be byte-identical between text and DSL"
        );
    }
}

// ---------------------------------------------------------------------
// Diagnostics goldens
// ---------------------------------------------------------------------

#[test]
fn golden_bad_token_diagnostic() {
    let src = "f(x) =\n  insert(x, $)\n";
    let err = srl_syntax::parse_program(src).unwrap_err();
    assert!(matches!(
        err.kind,
        ParseErrorKind::UnexpectedChar { found: '$' }
    ));
    assert_eq!(err.span, Span::new(19, 20));
    let rendered = err.to_diagnostic("bad.srl", src).to_string();
    assert!(
        rendered.contains("error: unexpected character `$`"),
        "{rendered}"
    );
    assert!(rendered.contains("bad.srl:2:13"), "{rendered}");
    assert!(rendered.contains("2 |   insert(x, $)"), "{rendered}");
    // The caret sits under the `$` (column 13 → 12 spaces into the line).
    assert!(
        rendered.contains(&format!(" | {}^", " ".repeat(12))),
        "{rendered}"
    );
}

#[test]
fn golden_unbalanced_paren_diagnostic() {
    let src = "f(x) =\n  insert(x, emptyset\n";
    let err = srl_syntax::parse_program(src).unwrap_err();
    assert_eq!(
        err.kind,
        ParseErrorKind::UnclosedDelimiter { delimiter: "(" }
    );
    // The span points at the `(` that was never closed, not at end of input.
    assert_eq!(err.span, Span::new(15, 16));
    let rendered = err.to_diagnostic("open.srl", src).to_string();
    assert!(
        rendered.contains("error: this `(` is never closed"),
        "{rendered}"
    );
    assert!(rendered.contains("open.srl:2:9"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");
}

#[test]
fn golden_arity_diagnostic() {
    let src = "f(x) = insert(x)";
    let err = srl_syntax::parse_program(src).unwrap_err();
    assert_eq!(
        err.kind,
        ParseErrorKind::OperatorArity {
            operator: "insert",
            expected: 2,
            found: 1
        }
    );
    // The span covers the whole application, head through closing paren.
    assert_eq!(err.span, Span::new(7, 16));
    let rendered = err.to_diagnostic("arity.srl", src).to_string();
    assert!(
        rendered.contains("error: `insert` expects 2 argument(s) but was given 1"),
        "{rendered}"
    );
    assert!(rendered.contains("arity.srl:1:8"), "{rendered}");
    assert!(rendered.contains("^^^^^^^^^"), "{rendered}");
}

// ---------------------------------------------------------------------
// Committed .srl example files
// ---------------------------------------------------------------------

/// E5's closure queries as one program: `tc`, `dtc`, and `tc_dtc` answering
/// both for the same graph (the program the repository benchmark serves).
fn closure_program() -> Program {
    use srl_core::dsl::{call, tuple, var};
    use srl_stdlib::tc::{deterministic_transitive_closure, transitive_closure};
    let both = || [var("D"), var("E")];
    Program::new(srl_core::Dialect::full())
        .define("tc", ["D", "E"], transitive_closure(var("D"), var("E")))
        .define(
            "dtc",
            ["D", "E"],
            deterministic_transitive_closure(var("D"), var("E")),
        )
        .define(
            "tc_dtc",
            ["D", "E"],
            tuple([call("tc", both()), call("dtc", both())]),
        )
}

/// The committed text examples that mirror DSL-built programs must be
/// byte-identical to what the printer emits for those programs (so `srl run`
/// on the file evaluates exactly the program the experiments measure).
/// `SRL_REGEN=1` rewrites them from the current printer output.
#[test]
fn example_srl_files_are_in_sync_with_the_printer() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/srl");
    let cases: Vec<(&str, Program)> = vec![
        ("powerset.srl", srl_stdlib::blowup::powerset_program()),
        ("arith.srl", srl_stdlib::arith::arithmetic_program()),
        ("apath.srl", srl_stdlib::agap::apath_program()),
        ("closure.srl", closure_program()),
        (
            "tm.srl",
            srl_stdlib::tm_sim::compile(&machines::tm::library::even_parity()),
        ),
    ];
    for (file, program) in cases {
        let path = format!("{dir}/{file}");
        let expected = format!(
            "// {file} — generated from the DSL construction by the printer;\n\
             // regenerate with: SRL_REGEN=1 cargo test -p srl-integration-tests --test parser_roundtrip\n{}",
            print_program(&program)
        );
        if std::env::var_os("SRL_REGEN").is_some() {
            std::fs::write(&path, &expected).unwrap();
            continue;
        }
        let actual = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} (run with SRL_REGEN=1 to generate)"));
        assert_eq!(
            actual, expected,
            "{file} is stale; regenerate with SRL_REGEN=1"
        );
    }
}

#[test]
fn example_srl_files_parse_and_run() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/srl");
    for entry in std::fs::read_dir(dir).expect("examples/srl exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("srl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let program =
            srl_syntax::parse_program(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        Pipeline::new()
            .prepare(program)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    // The handwritten membership example actually runs.
    let text = std::fs::read_to_string(format!("{dir}/membership.srl")).unwrap();
    let artifact = Pipeline::new()
        .prepare(srl_syntax::parse_program(&text).unwrap())
        .unwrap();
    let (value, _) = artifact.call("main", &[]).unwrap();
    assert_eq!(value, Value::bool(true));
}
