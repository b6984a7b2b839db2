//! Rendering of the `analyze` report for the shared wire contract.
//!
//! `srl analyze [--json]` and the `srl-serve` line protocol's `analyze`
//! request both return this exact body (the JSON form is golden-diffed by
//! CI against `examples/srl/analysis/*.analyze.json`), so the rendering
//! lives here — beside the report types — rather than in either front end.
//! The JSON envelope and escaping come from `srl_core::api`, the one
//! definition of the versioned response format.

use srl_core::api;

use crate::interproc::InterprocReport;
use crate::syntactic::Classification;

/// The `analyze` report as a versioned JSON body with a stable field order
/// (`v`, `fragment`, `definitions`, `folds`), so CI can golden-diff it
/// across commits.
pub fn analyze_json(verdict: &Classification, report: &InterprocReport) -> String {
    analyze_json_with(verdict, report, &[])
}

/// [`analyze_json`] with trailing extra fields — the server appends its
/// `cache` object and the echoed request `id` after the pinned report
/// fields, keeping the CLI body a strict prefix of the served one.
pub fn analyze_json_with(
    verdict: &Classification,
    report: &InterprocReport,
    extras: &[(&str, String)],
) -> String {
    let defs: Vec<String> = report
        .spines
        .iter()
        .map(|s| {
            format!(
                "    {{ \"def\": \"{}\", \"spine_param\": {} }}",
                api::escape(&s.def),
                match &s.spine_param {
                    Some(p) => format!("\"{}\"", api::escape(p)),
                    None => "null".to_string(),
                },
            )
        })
        .collect();
    let folds: Vec<String> = report
        .folds
        .iter()
        .map(|f| {
            format!(
                "    {{ \"def\": {}, \"block\": {}, \"kind\": \"{}{}\", \"class\": \"{}\", \"order_independent\": {}, \"unit_cost\": {}, \"reason\": \"{}\" }}",
                match &f.def {
                    Some(d) => format!("\"{}\"", api::escape(d)),
                    None => "null".to_string(),
                },
                f.block,
                if f.is_list { "list-" } else { "" },
                f.kind,
                f.class.label(),
                f.order_independent(),
                f.unit_cost,
                api::escape(&f.reason),
            )
        })
        .collect();
    let wrap = |items: Vec<String>| {
        if items.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n  ]", items.join(",\n"))
        }
    };
    let mut fields = vec![
        (
            "fragment",
            format!("\"{}\"", api::escape(&verdict.fragment.to_string())),
        ),
        ("definitions", wrap(defs)),
        ("folds", wrap(folds)),
    ];
    fields.extend(extras.iter().map(|(n, v)| (*n, v.clone())));
    api::versioned(&fields)
}

/// The `analyze` report as text: the Section 6 fragment, one line per
/// definition with its spine-summary parameter, and one entry per reduce
/// instruction with the class the executor acts on and the reason.
pub fn analyze_table(verdict: &Classification, report: &InterprocReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fragment: {}\n  {}\n",
        verdict.fragment, verdict.explanation
    ));
    out.push_str("spine summaries:\n");
    for s in &report.spines {
        match &s.spine_param {
            Some(p) => out.push_str(&format!("  {}: spine parameter `{p}`\n", s.def)),
            None => out.push_str(&format!("  {}: no spine parameter\n", s.def)),
        }
    }
    if report.folds.is_empty() {
        out.push_str("folds: none\n");
        return out;
    }
    out.push_str("folds:\n");
    for f in &report.folds {
        let place = match &f.def {
            Some(d) => format!("{d} b{}", f.block),
            None => format!("b{}", f.block),
        };
        out.push_str(&format!(
            "  [{place}] {}{} class={} cost={} order-independent={}\n      {}\n",
            if f.is_list { "list-" } else { "" },
            f.kind,
            f.class.label(),
            f.unit_cost,
            if f.order_independent() { "yes" } else { "no" },
            f.reason,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_compiled, classify_program};
    use srl_core::dsl::*;
    use srl_core::{Lambda, Program};

    fn program() -> Program {
        Program::srl().define(
            "collect",
            ["S"],
            set_reduce(
                var("S"),
                Lambda::identity(),
                lam("x", "acc", insert(var("x"), var("acc"))),
                empty_set(),
                empty_set(),
            ),
        )
    }

    #[test]
    fn json_report_is_versioned_with_stable_field_order() {
        let program = program();
        let compiled = program.compile();
        let verdict = classify_program(&program, 1);
        let report = analyze_compiled(&compiled);
        let json = analyze_json(&verdict, &report);
        let v = json.find("\"v\": 1").unwrap();
        let fragment = json.find("\"fragment\"").unwrap();
        let defs = json.find("\"definitions\"").unwrap();
        let folds = json.find("\"folds\"").unwrap();
        assert!(v < fragment && fragment < defs && defs < folds, "{json}");
        assert!(json.contains("\"class\": \"proper-hom\""), "{json}");
        assert!(json.contains("\"order_independent\": true"), "{json}");
        // Extras land after the pinned report fields.
        let with = analyze_json_with(&verdict, &report, &[("id", "7".to_string())]);
        assert!(
            with.find("\"folds\"").unwrap() < with.find("\"id\": 7").unwrap(),
            "{with}"
        );
    }

    #[test]
    fn table_report_names_fragment_spines_and_folds() {
        let program = program();
        let compiled = program.compile();
        let verdict = classify_program(&program, 1);
        let report = analyze_compiled(&compiled);
        let table = analyze_table(&verdict, &report);
        assert!(table.contains("fragment:"), "{table}");
        assert!(table.contains("spine summaries:"), "{table}");
        assert!(table.contains("folds:"), "{table}");
        assert!(table.contains("class="), "{table}");
    }
}
