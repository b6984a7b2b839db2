//! Golden interprocedural-classification tests: the per-reduce fold class
//! for every experiment workload (E1–E9) and the powerset, pinned so a
//! codegen or summary change that reclassifies a fold — and therefore
//! changes execution strategy — fails loudly here instead of silently
//! altering what `run --threads N` shards.
//!
//! The pinned class is the *fold-level* verdict (may this one reduce be
//! sharded?), which is deliberately more conservative than whole-query
//! order-independence: `purple_first`'s inner membership fold is a proper
//! hom even though the query around it (via `choose`) is order-dependent,
//! and `even`'s parity fold reads its accumulator (ordered) even though
//! the whole query is order-independent by symmetry.

use srl_analysis::interproc::{analyze_compiled, analyze_expression, FoldRow};
use srl_core::program::Program;
use srl_core::Expr;

/// Compact golden form of a fold row: `def kind class` (def `-` for
/// expression chunks, `list-` prefix for list folds).
fn brief(rows: &[FoldRow]) -> Vec<String> {
    rows.iter()
        .map(|f| {
            format!(
                "{} {}{} {}",
                f.def.as_deref().unwrap_or("-"),
                if f.is_list { "list-" } else { "" },
                f.kind,
                f.class.label(),
            )
        })
        .collect()
}

fn program_rows(program: &Program) -> Vec<FoldRow> {
    let compiled = program.compile();
    let report = analyze_compiled(&compiled);
    for f in &report.folds {
        assert!(
            !f.reason.is_empty(),
            "every verdict carries a reason: {f:?}"
        );
    }
    report.folds
}

fn expr_brief(program: &Program, expr: &Expr, scope: &[&str]) -> Vec<String> {
    let compiled = program.compile();
    let lowered = compiled.lower_expr(expr, scope);
    let rows = analyze_expression(&compiled, &lowered);
    for f in &rows {
        assert!(
            !f.reason.is_empty(),
            "every verdict carries a reason: {f:?}"
        );
    }
    brief(&rows)
}

#[test]
fn e2_powerset_classification_pinned() {
    // The tentpole case: sift's fold is Generic by shape but proved a
    // proper hom interprocedurally (accumulator threaded through finsert's
    // spine parameter); powerset's outer fold stays ordered because sift
    // itself inspects the set it receives the accumulator as.
    let rows = program_rows(&srl_stdlib::blowup::powerset_program());
    assert_eq!(
        brief(&rows),
        vec!["sift generic proper-hom", "powerset generic ordered"]
    );
    assert!(rows[0].reason.contains("`finsert`"), "{}", rows[0].reason);
    assert!(
        rows[0].reason.contains("interprocedural"),
        "{}",
        rows[0].reason
    );
    assert!(rows[1].reason.contains("`sift`"), "{}", rows[1].reason);
}

#[test]
fn e1_apath_classification_pinned() {
    let rows = program_rows(&srl_stdlib::agap::apath_program());
    assert_eq!(
        brief(&rows),
        vec![
            "max_node generic ordered",
            "f_holds member proper-hom",
            "f_holds member proper-hom",
            "f_holds bool-acc proper-hom",
            "f_holds member proper-hom",
            "f_holds bool-acc proper-hom",
            "f_round member proper-hom",
            "f_round generic ordered",
            "f_round generic ordered",
            "apath generic ordered",
            "agap member proper-hom",
        ]
    );
}

#[test]
fn e3_arith_classification_pinned() {
    // BASRL arithmetic: the accumulators carry machine state forward, so
    // beyond the quantifier folds everything is (correctly) ordered.
    let rows = program_rows(&srl_stdlib::arith::arithmetic_program());
    assert_eq!(
        brief(&rows),
        vec![
            "is_min bool-acc proper-hom",
            "is_max bool-acc proper-hom",
            "inc_state generic ordered",
            "dec generic ordered",
            "add generic ordered",
            "mult generic ordered",
            "exp generic ordered",
            "shift generic ordered",
            "rem generic ordered",
        ]
    );
}

#[test]
fn e4_perm_classification_pinned() {
    let rows = program_rows(&srl_stdlib::perm::perm_program());
    assert_eq!(
        brief(&rows),
        vec![
            "is_min bool-acc proper-hom",
            "is_max bool-acc proper-hom",
            "inc_state generic ordered",
            "dec generic ordered",
            "add generic ordered",
            "mult generic ordered",
            "exp generic ordered",
            "shift generic ordered",
            "rem generic ordered",
            "apply_perm generic ordered",
            "ip generic ordered",
        ]
    );
}

#[test]
fn e5_closure_queries_classification_pinned() {
    let p = Program::new(srl_core::Dialect::full());
    assert_eq!(
        expr_brief(&p, &srl_bench::queries::tc_query(), &["D", "E"]),
        vec![
            "- product proper-hom",
            "- filter proper-hom",
            "- insert-app proper-hom",
            "- union proper-hom",
            "- insert-app proper-hom",
            "- union proper-hom",
            "- generic ordered",
        ]
    );
    assert_eq!(
        expr_brief(&p, &srl_bench::queries::dtc_query(), &["D", "E"]),
        vec![
            "- bool-acc proper-hom",
            "- product proper-hom",
            "- filter proper-hom",
            "- insert-app proper-hom",
            "- union proper-hom",
            "- filter proper-hom",
            "- insert-app proper-hom",
            "- union proper-hom",
            "- generic ordered",
        ]
    );
}

#[test]
fn e6_blowup_and_primrec_classification_pinned() {
    // List folds are ordered by semantics, and the reason says so.
    let rows = program_rows(&srl_stdlib::blowup::lrl_doubling_program());
    assert_eq!(
        brief(&rows),
        vec![
            "append list-generic ordered",
            "double_per_element list-generic ordered",
        ]
    );
    assert!(
        rows[0].reason.contains("list semantics"),
        "{}",
        rows[0].reason
    );

    let add = srl_stdlib::primrec_compile::compile(&machines::primrec::library::add()).unwrap();
    assert_eq!(
        brief(&program_rows(&add.program)),
        vec!["pr_primrec_4 generic ordered"]
    );
}

#[test]
fn e7_tm_simulation_classification_pinned() {
    // The TM simulator layers the arithmetic library under tape handling:
    // the tape write/init folds are local insert spines (generic folds
    // proved proper homs), read_cell is the order-sensitive keep-last scan.
    let rows = program_rows(&srl_stdlib::tm_sim::compile(
        &machines::tm::library::even_parity(),
    ));
    assert_eq!(
        brief(&rows),
        vec![
            "is_min bool-acc proper-hom",
            "is_max bool-acc proper-hom",
            "inc_state generic ordered",
            "dec generic ordered",
            "add generic ordered",
            "mult generic ordered",
            "exp generic ordered",
            "shift generic ordered",
            "rem generic ordered",
            "read_cell scan ordered",
            "write_cell generic proper-hom",
            "init_work generic proper-hom",
            "simulate generic ordered",
            "simulate_square generic ordered",
            "simulate_square generic ordered",
        ]
    );
}

#[test]
fn e8_hom_queries_classification_pinned() {
    use srl_core::dsl::var;
    let p = Program::srl();
    assert_eq!(
        expr_brief(&p, &srl_stdlib::hom::even(var("S")), &["S"]),
        vec!["- generic ordered"]
    );
    assert_eq!(
        expr_brief(
            &p,
            &srl_stdlib::hom::purple_first(var("S"), var("P")),
            &["S", "P"]
        ),
        vec!["- member proper-hom"]
    );
}

#[test]
fn e9_company_queries_classification_pinned() {
    let p = Program::new(srl_core::Dialect::full());
    assert_eq!(
        expr_brief(&p, &srl_bench::queries::company_join(), &["EMP", "DEPT"]),
        vec![
            "- product proper-hom",
            "- filter proper-hom",
            "- insert-app proper-hom",
        ]
    );
    assert_eq!(
        expr_brief(
            &p,
            &srl_bench::queries::employees_in_department(3),
            &["EMP", "DEPT"]
        ),
        vec!["- filter proper-hom", "- insert-app proper-hom"]
    );
}
