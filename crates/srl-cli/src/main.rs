//! `srl` — the SRL command line.
//!
//! Drives the staged compile pipeline end to end from text: parse (with
//! caret diagnostics), check, compile, and run on either execution backend.
//!
//! ```text
//! srl run <file.srl> [--call NAME] [--arg VALUE]... [--backend vm|tree]
//!                    [--threads N] [--limits default|small|benchmark]
//!                    [--timeout-ms N] [--json]
//! srl check <file.srl> [--json]
//! srl analyze <file.srl> [--json]
//! srl print <file.srl>
//! srl disasm <file.srl>
//! srl serve [--addr HOST:PORT] [--max-inflight N] [--cache-cap N]
//!           [--tenant-config FILE] [--session-threads N]
//! srl repl [--backend vm|tree] [--threads N] [--timeout-ms N]
//! ```
//!
//! The engine settings (`--backend`, `--threads`, `--limits`,
//! `--timeout-ms`, the REPL's `:backend` and `:timeout`, and the fields of
//! a `--tenant-config` file) share one parser,
//! `PipelineConfig::with_settings`: the same word is accepted or rejected
//! with the same message everywhere, and flag order never matters.
//!
//! `run` calls `--call NAME` (or a zero-parameter `main` definition) with
//! `--arg` values written in value-literal syntax (`d3`, `42`, `{d0, d1}`,
//! `[d1, d2]`, `<d1, d2>`); `--json` emits the versioned (`"v": 1`) body
//! defined by `srl_core::api` — the result and the `EvalStats` in a stable
//! field order, byte-identical across backends *and* across `--threads`
//! settings (CI diffs backend pairs and thread pairs), and the exact body
//! the `srl serve` line protocol returns for the same query.
//! `--threads N` shards provably order-insensitive `set-reduce` folds whose
//! estimated work clears the gate across an `N`-worker pool (VM backend
//! only; see `srl-core::parallel`).
//! The REPL accepts definitions (`f(x) = …`), input bindings
//! (`S := {d1, d2}`), and expressions over both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;

use srl_core::api;
use srl_core::pipeline::{PipelineConfig, Source};
use srl_syntax::frontend::{FrontendError, TextFrontend};

mod repl;
mod serve_cmd;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    match command {
        "run" => run(rest),
        "check" => check(rest),
        "analyze" => analyze(rest),
        "print" => print_cmd(rest),
        "disasm" => disasm(rest),
        "serve" => serve_cmd::serve(rest),
        "repl" => repl::repl(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
srl — the set-reduce language of Immerman, Patnaik and Stemple (PODS 1991)

USAGE:
  srl run <file.srl> [--call NAME] [--arg VALUE]... [--backend vm|tree]
                     [--threads N] [--limits default|small|benchmark]
                     [--timeout-ms N] [--json]
  srl check <file.srl> [--json]   parse, validate, and classify a program
  srl analyze <file.srl> [--json] per-fold classification report: spine
                                  summaries, fold class, and the reason
  srl print <file.srl>            parse and re-print in canonical form
  srl disasm <file.srl>           show the VM bytecode of every definition
  srl serve [--addr HOST:PORT] [--max-inflight N] [--cache-cap N]
            [--tenant-config FILE] [--session-threads N]
                                  long-lived line-protocol server
  srl repl [--backend vm|tree] [--threads N] [--timeout-ms N]
                                  interactive session

`analyze` compiles the program and reports, for every set/list fold, the
strategy the VM will use (member, union, filter, generic, ...), whether
its combiner was proved a proper homomorphism (order-independent, so
`run --threads N` may shard it), and why — including insert-spine proofs,
local to the combiner or threaded through a callee's spine parameter.

`run` calls the definition named by --call (default: a zero-parameter
`main`), passing each --arg parsed as a value literal: d3, 42, true,
[d1, d2] (tuple), {d0, d1} (set), <d1, d2> (list). With --json the result
and EvalStats print as the versioned v1 body (byte-identical across
backends and across --threads settings). --threads N shards proper-hom
set-reduce folds whose estimated work clears the gate over an N-worker
pool (vm backend only; --threads with --backend tree is an error, in
either order). --timeout-ms N (N >= 1) arms a wall-clock deadline; an
overrunning query aborts with exit code 7 and, with --json, a structured
error object carrying the partial stats.

`serve` answers the same requests over TCP, one JSON request per line,
with per-tenant pipelines, input bindings that persist across queries,
a fingerprint-keyed compiled-program cache, and load shedding past
--max-inflight (a structured `overloaded` error, wire code 9).

EXIT CODES:
  0  success                       5  runtime evaluation error
  2  usage or I/O error            6  resource limit exceeded
  3  parse error                   7  wall-clock timeout
  4  check (validation) error      8  internal error
";

/// Exit code and stable kind string for a frontend (parse/check) error.
fn frontend_exit(e: &FrontendError) -> (u8, &'static str) {
    match e {
        FrontendError::Parse(_) => (api::EXIT_PARSE, "parse"),
        FrontendError::Check(_) => (api::EXIT_CHECK, "check"),
    }
}

/// Parsed common options of the file-taking subcommands.
#[derive(Debug)]
struct Options {
    file: String,
    call: Option<String>,
    args: Vec<String>,
    config: PipelineConfig,
    json: bool,
}

/// The [`PipelineConfig::with_settings`] name an engine-setting flag sets.
/// `srl run` takes all four flags, `srl repl` all but `--limits`.
fn setting_name(flag: &str) -> Option<&'static str> {
    match flag {
        "--backend" => Some("backend"),
        "--threads" => Some("threads"),
        "--limits" => Some("limits"),
        "--timeout-ms" => Some("deadline_ms"),
        _ => None,
    }
}

/// Flags each subcommand accepts; anything else is a usage error (so e.g.
/// `srl check file.srl --json` fails loudly instead of silently ignoring
/// the flag).
fn allowed_flags(command: &str) -> &'static [&'static str] {
    match command {
        "run" => &[
            "--call",
            "--arg",
            "--backend",
            "--threads",
            "--limits",
            "--timeout-ms",
            "--json",
        ],
        "check" | "analyze" => &["--json"],
        _ => &[],
    }
}

fn parse_options(rest: &[String], command: &str) -> Result<Options, String> {
    let allowed = allowed_flags(command);
    let mut file = None;
    let mut call = None;
    let mut args = Vec::new();
    let mut settings = Vec::new();
    let mut json = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with('-') && !allowed.contains(&arg.as_str()) {
            return Err(format!("`srl {command}` does not take `{arg}`"));
        }
        if let Some(name) = setting_name(arg) {
            // A missing operand is the empty word, which the setting
            // parser reports in its own words.
            settings.push((name, it.next().map_or("", String::as_str)));
            continue;
        }
        match arg.as_str() {
            "--call" => {
                call = Some(
                    it.next()
                        .ok_or("--call needs a definition name")?
                        .to_string(),
                )
            }
            "--arg" => args.push(it.next().ok_or("--arg needs a value literal")?.to_string()),
            "--json" => json = true,
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}` to `srl {command}`")),
        }
    }
    Ok(Options {
        file: file.ok_or_else(|| format!("`srl {command}` needs a .srl file"))?,
        call,
        args,
        config: PipelineConfig::new().with_settings(&settings)?,
        json,
    })
}

fn load_source(path: &str) -> Result<Source, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(Source::new(path, text))
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::from(2)
}

fn run(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest, "run") {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let source = match load_source(&opts.file) {
        Ok(s) => s,
        Err(e) => return usage_error(&e),
    };
    let pipeline = opts.config.pipeline();
    let artifact = match pipeline.compile_source(&source) {
        Ok(a) => a,
        Err(e) => {
            let (exit, kind) = frontend_exit(&e);
            if opts.json {
                println!("{}", api::error_json(kind, &e.to_string(), exit, None, &[]));
            }
            eprintln!("{}", e.render(&source));
            return ExitCode::from(exit);
        }
    };
    let entry = match &opts.call {
        Some(name) => name.clone(),
        None => {
            let main_def = artifact
                .program()
                .lookup("main")
                .filter(|def| def.params.is_empty());
            match main_def {
                Some(def) => def.name.clone(),
                None => {
                    return usage_error(
                        "no --call given and the program has no zero-parameter `main`",
                    )
                }
            }
        }
    };
    let mut values = Vec::new();
    for (i, literal) in opts.args.iter().enumerate() {
        match srl_syntax::parse_value(literal) {
            Ok(v) => values.push(v),
            Err(e) => {
                eprintln!(
                    "error in --arg {}: {}",
                    i + 1,
                    e.to_diagnostic("<arg>", literal)
                );
                return ExitCode::from(api::EXIT_PARSE);
            }
        }
    }
    // Run through an explicit evaluator (not `Compiled::call`) so the
    // partial statistics of a failed run stay observable for --json.
    let mut evaluator = artifact.evaluator();
    match evaluator.call(&entry, &values) {
        Ok(value) => {
            let stats = *evaluator.stats();
            let tiers = evaluator.tier_engagement_breakdown();
            if opts.json {
                println!("{}", api::run_json(&value, &stats, &tiers, &[]));
            } else {
                println!("{value}");
                eprintln!("{}", stats_table(&stats));
                eprintln!(
                    "tier engagements: atoms {}  bits {}",
                    tiers.atoms, tiers.bits
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            let exit = api::exit_code(&e);
            if opts.json {
                println!(
                    "{}",
                    api::error_json(
                        e.kind(),
                        &e.to_string(),
                        exit,
                        evaluator.last_error_stats(),
                        &[]
                    )
                );
            }
            eprintln!("evaluation error: {e}");
            ExitCode::from(exit)
        }
    }
}

fn check(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest, "check") {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let source = match load_source(&opts.file) {
        Ok(s) => s,
        Err(e) => return usage_error(&e),
    };
    match opts.config.pipeline().check_source(&source) {
        Ok(checked) => {
            let program = checked.program();
            let verdict = srl_analysis::classify_program(program, 1);
            if opts.json {
                println!(
                    "{}",
                    api::check_json(
                        &program.def_names(),
                        &verdict.fragment.to_string(),
                        &verdict.explanation,
                        &[]
                    )
                );
            } else {
                println!(
                    "ok: {} definition(s): {}",
                    program.defs.len(),
                    program.def_names().join(", ")
                );
                println!("fragment: {}", verdict.fragment);
                println!("  {}", verdict.explanation);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            let (exit, kind) = frontend_exit(&e);
            if opts.json {
                println!("{}", api::error_json(kind, &e.to_string(), exit, None, &[]));
            }
            eprintln!("{}", e.render(&source));
            ExitCode::from(exit)
        }
    }
}

fn analyze(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest, "analyze") {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let source = match load_source(&opts.file) {
        Ok(s) => s,
        Err(e) => return usage_error(&e),
    };
    match opts.config.pipeline().compile_source(&source) {
        Ok(artifact) => {
            let verdict = srl_analysis::classify_program(artifact.program(), 1);
            let report = srl_analysis::analyze_compiled(artifact.compiled());
            if opts.json {
                println!("{}", srl_analysis::analyze_json(&verdict, &report));
            } else {
                print!("{}", srl_analysis::analyze_table(&verdict, &report));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            let (exit, kind) = frontend_exit(&e);
            if opts.json {
                println!("{}", api::error_json(kind, &e.to_string(), exit, None, &[]));
            }
            eprintln!("{}", e.render(&source));
            ExitCode::from(exit)
        }
    }
}

fn print_cmd(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest, "print") {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let source = match load_source(&opts.file) {
        Ok(s) => s,
        Err(e) => return usage_error(&e),
    };
    match srl_syntax::parse_program(&source.text) {
        Ok(program) => {
            print!("{}", srl_syntax::print_program(&program));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}", e.to_diagnostic(&source.name, &source.text));
            ExitCode::from(api::EXIT_PARSE)
        }
    }
}

fn disasm(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest, "disasm") {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let source = match load_source(&opts.file) {
        Ok(s) => s,
        Err(e) => return usage_error(&e),
    };
    match opts.config.pipeline().compile_source(&source) {
        Ok(artifact) => {
            print!("{}", srl_syntax::disasm_program(artifact.compiled()));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}", e.render(&source));
            ExitCode::from(frontend_exit(&e).0)
        }
    }
}

fn stats_table(stats: &srl_core::EvalStats) -> String {
    format!(
        "steps: {}  reduce iterations: {}  inserts: {}  max value weight: {}  max accumulator weight: {}  max depth: {}  new values: {}",
        stats.steps,
        stats.reduce_iterations,
        stats.inserts,
        stats.max_value_weight,
        stats.max_accumulator_weight,
        stats.max_depth,
        stats.new_values
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use srl_core::{EvalLimits, EvalStats, ExecBackend, TierEngagements, Value};

    #[test]
    fn options_parse_flags_and_file() {
        let rest: Vec<String> = [
            "prog.srl",
            "--call",
            "powerset",
            "--arg",
            "{d0, d1}",
            "--backend",
            "tree",
            "--limits",
            "benchmark",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_options(&rest, "run").unwrap();
        assert_eq!(opts.file, "prog.srl");
        assert_eq!(opts.call.as_deref(), Some("powerset"));
        assert_eq!(opts.args, vec!["{d0, d1}".to_string()]);
        assert_eq!(opts.config.backend, ExecBackend::TreeWalk);
        assert_eq!(opts.config.limits, EvalLimits::benchmark());
        assert!(opts.json);
    }

    #[test]
    fn options_reject_unknown_flags_and_missing_file() {
        assert!(parse_options(&["--wat".to_string()], "run").is_err());
        assert!(parse_options(&[], "run").is_err());
    }

    #[test]
    fn threads_flag_selects_the_worker_pool() {
        let rest: Vec<String> = ["prog.srl", "--threads", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_options(&rest, "run").unwrap();
        assert_eq!(opts.config.backend, ExecBackend::vm_with_threads(4));
        // Order-independent with an explicit vm backend.
        let rest: Vec<String> = ["prog.srl", "--threads", "2", "--backend", "vm"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_options(&rest, "run").unwrap();
        assert_eq!(opts.config.backend, ExecBackend::vm_with_threads(2));
    }

    #[test]
    fn threads_flag_rejects_bad_values_and_the_tree_walk() {
        for bad in [
            vec!["prog.srl", "--threads", "0"],
            vec!["prog.srl", "--threads", "many"],
            vec!["prog.srl", "--threads"],
            vec!["prog.srl", "--threads", "2", "--backend", "tree"],
            vec!["prog.srl", "--backend", "tree", "--threads", "2"],
        ] {
            let rest: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_options(&rest, "run").is_err(), "{bad:?}");
        }
    }

    #[test]
    fn run_only_flags_are_rejected_by_other_commands() {
        for command in ["print", "disasm"] {
            let rest: Vec<String> = ["file.srl", "--json"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = parse_options(&rest, command).unwrap_err();
            assert!(err.contains("--json"), "{command}: {err}");
        }
        for command in ["check", "analyze", "print", "disasm"] {
            let rest: Vec<String> = ["file.srl", "--call", "main"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = parse_options(&rest, command).unwrap_err();
            assert!(err.contains("--call"), "{command}: {err}");
        }
        // The file argument itself still parses everywhere.
        assert_eq!(
            parse_options(&["file.srl".to_string()], "check")
                .unwrap()
                .file,
            "file.srl"
        );
    }

    #[test]
    fn check_and_analyze_take_json() {
        for command in ["check", "analyze"] {
            let rest: Vec<String> = ["file.srl", "--json"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let opts = parse_options(&rest, command).unwrap();
            assert!(opts.json, "{command}");
        }
    }

    #[test]
    fn json_bodies_are_versioned_with_stable_field_order() {
        let stats = EvalStats::default();
        let json = api::run_json(&Value::atom(1), &stats, &TierEngagements::default(), &[]);
        let v = json.find("\"v\": 1").unwrap();
        let steps = json.find("\"steps\"").unwrap();
        let iters = json.find("\"reduce_iterations\"").unwrap();
        let new_values = json.find("\"new_values\"").unwrap();
        assert!(v < steps && steps < iters && iters < new_values);
    }

    #[test]
    fn timeout_flag_arms_a_deadline() {
        let rest: Vec<String> = ["prog.srl", "--timeout-ms", "250"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_options(&rest, "run").unwrap();
        assert_eq!(
            opts.config.limits.deadline,
            Some(std::time::Duration::from_millis(250))
        );
        // Composes with --limits regardless of flag order.
        let rest: Vec<String> = ["prog.srl", "--timeout-ms", "250", "--limits", "small"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_options(&rest, "run").unwrap();
        assert_eq!(
            opts.config.limits,
            EvalLimits::small().with_deadline_ms(250),
            "--timeout-ms must survive a later --limits"
        );
    }

    #[test]
    fn timeout_flag_rejects_bad_values() {
        for bad in [
            vec!["prog.srl", "--timeout-ms", "0"],
            vec!["prog.srl", "--timeout-ms", "soon"],
            vec!["prog.srl", "--timeout-ms"],
        ] {
            let rest: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_options(&rest, "run").is_err(), "{bad:?}");
        }
    }

    #[test]
    fn error_json_has_stable_field_order_and_optional_stats() {
        let json = api::error_json(
            "deadline_exceeded",
            "too slow",
            api::EXIT_TIMEOUT,
            None,
            &[],
        );
        let v = json.find("\"v\"").unwrap();
        let kind = json.find("\"kind\"").unwrap();
        let message = json.find("\"message\"").unwrap();
        let exit = json.find("\"exit\"").unwrap();
        assert!(v < kind && kind < message && message < exit, "{json}");
        assert!(!json.contains("\"stats\""));
        assert!(json.contains("\"exit\": 7"));

        let stats = EvalStats {
            steps: 9,
            ..EvalStats::default()
        };
        let json = api::error_json(
            "deadline_exceeded",
            "stop",
            api::EXIT_TIMEOUT,
            Some(&stats),
            &[],
        );
        assert!(json.contains("\"stats\""));
        assert!(json.contains("\"steps\": 9"));
        assert!(json.find("\"error\"").unwrap() < json.find("\"stats\"").unwrap());
    }
}
