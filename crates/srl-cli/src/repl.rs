//! A tiny interactive session over the pipeline.
//!
//! Three kinds of input line:
//!
//! * `f(x, y) = body` — adds (or replaces) a definition in the session
//!   program; the whole line set is re-validated through the pipeline, and
//!   rejected definitions leave the session unchanged;
//! * `S := {d1, d2}` — binds an input name to a value literal (the
//!   environment queries evaluate against);
//! * anything else — parsed as an expression and evaluated, with free
//!   variables resolved against the bound inputs.
//!
//! Colon commands: `:help`, `:defs`, `:env`, `:backend vm [threads]|tree`,
//! `:timeout MS|off`, `:load FILE`, `:disasm`, `:classify`,
//! `:complete [PARTIAL]`, `:quit`. Reads stdin to exhaustion, so it is
//! scriptable: `echo 'choose({d3, d5})' | srl repl`.
//!
//! `:complete` is the completion engine a line editor would call on Tab,
//! exposed as a command because the loop reads plain stdin: a partial line
//! starting with `:` completes the command vocabulary, anything else
//! completes its trailing identifier against the session's definition and
//! input-binding names.

use std::io::{BufRead, IsTerminal, Write};
use std::process::ExitCode;
use std::sync::Arc;

use srl_core::pipeline::{Compiled, PipelineConfig, Source};
use srl_core::program::Program;
use srl_core::{Dialect, Env, ExecBackend};
use srl_syntax::frontend::TextFrontend;

const REPL_HELP: &str = "\
definitions   f(x) = insert(x, emptyset)
inputs        S := {d1, d2}
expressions   f(choose(S))
commands      :help :defs :env :backend vm [threads]|tree :timeout MS|off
              :load FILE :disasm :classify :complete [PARTIAL] :quit
";

/// The colon-command vocabulary, for completion (alphabetical; aliases like
/// `:q` resolve in `handle_command` but only canonical names complete).
const COMMANDS: &[&str] = &[
    "backend", "classify", "complete", "defs", "disasm", "env", "help", "load", "quit", "timeout",
];

/// Completion candidates for a partial input line — the pure engine behind
/// `:complete` (and behind Tab, should the loop ever grow a line editor).
///
/// * a line starting with `:` completes the colon-command vocabulary (only
///   the command word itself: arguments like file paths are not completed);
/// * any other line completes its **trailing identifier** against the
///   session's definition names and input-binding names.
///
/// Each candidate is the whole line with the partial word completed, so a
/// caller can substitute it for the input directly. An empty partial word
/// offers every name, which doubles as a vocabulary listing.
fn completions(session: &Session, line: &str) -> Vec<String> {
    if let Some(partial) = line.strip_prefix(':') {
        if partial.contains(char::is_whitespace) {
            return Vec::new();
        }
        return COMMANDS
            .iter()
            .filter(|c| c.starts_with(partial))
            .map(|c| format!(":{c}"))
            .collect();
    }
    // The trailing identifier: the longest ident-shaped suffix (the same
    // alphabet `looks_like_definition` accepts for definition heads).
    let start = line
        .char_indices()
        .rev()
        .find(|(_, c)| !(c.is_alphanumeric() || *c == '_' || *c == '-'))
        .map(|(i, c)| i + c.len_utf8())
        .unwrap_or(0);
    let (head, partial) = line.split_at(start);
    let mut names: Vec<&str> = session
        .program
        .defs
        .iter()
        .map(|d| d.name.as_str())
        .chain(session.env.iter().map(|(name, _)| name))
        .filter(|name| name.starts_with(partial))
        .collect();
    names.sort_unstable();
    names.dedup();
    names.into_iter().map(|n| format!("{head}{n}")).collect()
}

/// Parses a backend word (plus an optional thread count for the VM) the way
/// `:backend` and `--backend` accept it; the error names the offending word
/// and lists every valid option, so a typo round-trips into something
/// actionable instead of a bare usage line.
fn parse_backend(word: Option<&str>, threads: Option<&str>) -> Result<ExecBackend, String> {
    let backend = match word {
        Some("vm") => ExecBackend::vm(),
        Some("tree") | Some("tree-walk") => ExecBackend::TreeWalk,
        Some(other) => {
            return Err(format!(
                "unknown backend `{other}` (valid backends: vm, tree, tree-walk)"
            ))
        }
        None => {
            return Err("missing backend name (valid backends: vm, tree, tree-walk)".to_string())
        }
    };
    match (threads, backend) {
        (None, backend) => Ok(backend),
        (Some(word), ExecBackend::Vm { .. }) => match word.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(ExecBackend::vm_with_threads(n)),
            _ => Err(format!("thread count must be a number ≥ 1, got `{word}`")),
        },
        (Some(_), ExecBackend::TreeWalk) => {
            Err("the tree-walk backend has no worker pool (threads apply to vm only)".to_string())
        }
    }
}

/// Parses a `:timeout` / `--timeout-ms` operand: a positive millisecond
/// count arms a wall-clock deadline, `off` or `0` disarms it.
fn parse_timeout(word: Option<&str>) -> Result<Option<u64>, String> {
    match word {
        Some("off") | Some("0") => Ok(None),
        Some(word) => match word.parse::<u64>() {
            Ok(ms) => Ok(Some(ms)),
            Err(_) => Err(format!(
                "timeout must be a millisecond count or `off`, got `{word}`"
            )),
        },
        None => Err("missing timeout (a millisecond count, or `off`)".to_string()),
    }
}

/// Short display form of a backend for the `:backend` confirmation line.
fn backend_name(backend: ExecBackend) -> String {
    match backend {
        ExecBackend::TreeWalk => "tree-walk".to_string(),
        ExecBackend::Vm { threads } if threads <= 1 => "vm".to_string(),
        ExecBackend::Vm { threads } => format!("vm ({threads} threads)"),
    }
}

/// The interactive session: the same tenant state `srl serve` keeps per
/// tenant — a [`PipelineConfig`], a definition set, and an input-binding
/// environment — driven from stdin instead of a socket.
struct Session {
    config: PipelineConfig,
    program: Program,
    artifact: Option<Compiled>,
    env: Env,
}

impl Session {
    fn new(backend: ExecBackend) -> Self {
        Session {
            config: PipelineConfig::new().with_backend(backend),
            program: Program::new(Dialect::full()),
            artifact: None,
            env: Env::new(),
        }
    }

    /// Arms (or, with `None`, disarms) the per-query wall-clock deadline.
    /// The cached artifact captured the old limits, so it must be rebuilt.
    fn set_timeout(&mut self, ms: Option<u64>) {
        self.config.limits = match ms {
            Some(ms) => self.config.limits.with_deadline_ms(ms),
            None => self.config.limits.with_deadline(None),
        };
        self.artifact = None;
    }

    /// The compiled artifact for the current program, built on demand and
    /// cached until the program changes.
    fn artifact(&mut self) -> &Compiled {
        if self.artifact.is_none() {
            self.artifact = Some(
                self.config
                    .pipeline()
                    .prepare(self.program.clone())
                    .expect("session program was validated when it was built"),
            );
        }
        self.artifact.as_ref().unwrap()
    }

    /// Merges `incoming` definitions (replacing same-named ones) and
    /// re-validates; on error the session keeps its previous program.
    fn merge_defs(&mut self, incoming: Program) -> Result<Vec<String>, String> {
        let mut candidate = self.program.clone();
        let mut added = Vec::new();
        for def in incoming.defs {
            candidate.defs.retain(|d| d.name != def.name);
            added.push(def.name.clone());
            candidate.defs.push(Arc::clone(&def));
        }
        match self.config.pipeline().prepare(candidate) {
            Ok(artifact) => {
                self.program = artifact.program().clone();
                self.artifact = Some(artifact);
                Ok(added)
            }
            Err(e) => Err(format!("error: {e}")),
        }
    }
}

/// `srl repl [--backend vm|tree] [--threads N] [--timeout-ms N]`.
pub fn repl(rest: &[String]) -> ExitCode {
    // Flags are collected first and combined once, order-independently, so
    // `--backend tree --threads 4` is rejected like `srl run` rejects it
    // instead of one flag silently overriding the other.
    let mut backend_word: Option<&str> = None;
    let mut threads_word: Option<&str> = None;
    let mut timeout_word: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--backend" => match it.next() {
                Some(word) => backend_word = Some(word.as_str()),
                None => {
                    eprintln!("error: missing backend name (valid backends: vm, tree, tree-walk)");
                    return ExitCode::from(2);
                }
            },
            "--threads" => match it.next() {
                Some(word) => threads_word = Some(word.as_str()),
                None => {
                    eprintln!("error: --threads needs a worker count");
                    return ExitCode::from(2);
                }
            },
            "--timeout-ms" => match it.next() {
                Some(word) => timeout_word = Some(word.as_str()),
                None => {
                    eprintln!("error: --timeout-ms needs a millisecond count");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unexpected argument `{other}` to `srl repl`");
                return ExitCode::from(2);
            }
        }
    }
    let backend = match parse_backend(backend_word.or(Some("vm")), threads_word) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let timeout = match timeout_word {
        Some(word) => match parse_timeout(Some(word)) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let interactive = std::io::stdin().is_terminal();
    if interactive {
        println!("srl repl — :help for commands, :quit to leave");
    }
    let mut session = Session::new(backend);
    if timeout.is_some() {
        session.set_timeout(timeout);
    }
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        if interactive {
            print!("srl> ");
            let _ = std::io::stdout().flush();
        }
        let Some(Ok(line)) = lines.next() else { break };
        if !handle_line(&mut session, line.trim()) {
            break;
        }
    }
    ExitCode::SUCCESS
}

/// Processes one line; returns `false` to leave the loop.
fn handle_line(session: &mut Session, line: &str) -> bool {
    if line.is_empty() || line.starts_with("//") {
        return true;
    }
    if let Some(command) = line.strip_prefix(':') {
        return handle_command(session, command);
    }
    // `name := value` binds an input. The name must be referenceable as a
    // variable afterwards — a keyword or atom-shaped word (`d3`) would bind
    // successfully but could never be read back in an expression.
    if let Some((name, literal)) = line.split_once(":=") {
        let name = name.trim();
        let literal = literal.trim();
        if !matches!(
            srl_syntax::parse_expr(name),
            Ok(srl_core::Expr::Var(v)) if v == name
        ) {
            eprintln!(
                "error: `{name}` cannot be used as an input name (it is not a plain variable)"
            );
            return true;
        }
        match srl_syntax::parse_value(literal) {
            Ok(value) => {
                println!("{name} = {value}");
                session.env.insert(name, value);
            }
            Err(e) => eprintln!("{}", e.to_diagnostic("<repl>", literal)),
        }
        return true;
    }
    // A definition if an ident-headed parameter list is followed by `=`.
    if looks_like_definition(line) {
        match srl_syntax::parse_program(line) {
            Ok(incoming) => match session.merge_defs(incoming) {
                Ok(added) => println!("defined {}", added.join(", ")),
                Err(e) => eprintln!("{e}"),
            },
            Err(e) => eprintln!("{}", e.to_diagnostic("<repl>", line)),
        }
        return true;
    }
    // Otherwise: an expression over the bound inputs.
    match srl_syntax::parse_expr(line) {
        Ok(expr) => {
            let env = session.env.clone();
            // An explicit evaluator (not `Compiled::eval`) keeps the
            // columnar-tier engagement diagnostics observable.
            let mut evaluator = session.artifact().evaluator();
            match evaluator.eval(&expr, &env) {
                Ok(value) => {
                    let stats = *evaluator.stats();
                    let tiers = evaluator.tier_engagement_breakdown();
                    println!("{value}");
                    println!(
                        "  [steps {} | reduce iterations {} | inserts {}]",
                        stats.steps, stats.reduce_iterations, stats.inserts
                    );
                    if tiers.total() > 0 {
                        println!("  [tiers: atoms {} | bits {}]", tiers.atoms, tiers.bits);
                    }
                }
                Err(e) => eprintln!("evaluation error: {e}"),
            }
        }
        Err(e) => eprintln!("{}", e.to_diagnostic("<repl>", line)),
    }
    true
}

fn handle_command(session: &mut Session, command: &str) -> bool {
    let mut words = command.split_whitespace();
    match words.next() {
        Some("q") | Some("quit") | Some("exit") => return false,
        Some("help") => print!("{REPL_HELP}"),
        Some("defs") => {
            if session.program.defs.is_empty() {
                println!("(no definitions)");
            } else {
                for def in &session.program.defs {
                    let params: Vec<&str> = def.params.iter().map(|p| p.name.as_str()).collect();
                    println!("{}({})", def.name, params.join(", "));
                }
            }
        }
        Some("env") => {
            if session.env.is_empty() {
                println!("(no inputs bound)");
            } else {
                for (name, value) in session.env.iter() {
                    println!("{name} = {value}");
                }
            }
        }
        Some("backend") => match parse_backend(words.next(), words.next()) {
            Ok(backend) => {
                session.config.backend = backend;
                session.artifact = None;
                println!("backend: {}", backend_name(backend));
            }
            Err(e) => eprintln!("error: {e} — usage: :backend vm [threads]|tree"),
        },
        Some("timeout") => match parse_timeout(words.next()) {
            Ok(Some(ms)) => {
                session.set_timeout(Some(ms));
                println!("timeout: {ms} ms");
            }
            Ok(None) => {
                session.set_timeout(None);
                println!("timeout: off");
            }
            Err(e) => eprintln!("error: {e} — usage: :timeout MS|off"),
        },
        Some("load") => match words.next() {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => {
                    let source = Source::new(path, text);
                    match session.config.pipeline().check_source(&source) {
                        Ok(checked) => match session.merge_defs(checked.program().clone()) {
                            Ok(added) => println!("loaded {}: {}", path, added.join(", ")),
                            Err(e) => eprintln!("{e}"),
                        },
                        Err(e) => eprintln!("{}", e.render(&source)),
                    }
                }
                Err(e) => eprintln!("cannot read `{path}`: {e}"),
            },
            None => eprintln!("usage: :load FILE"),
        },
        Some("disasm") => {
            print!(
                "{}",
                srl_syntax::disasm_program(session.artifact().compiled())
            );
        }
        Some("complete") => {
            // The raw remainder, not the whitespace-split words: the partial
            // line being completed may itself contain spaces.
            let partial = command
                .strip_prefix("complete")
                .map(str::trim_start)
                .unwrap_or("");
            let candidates = completions(session, partial);
            if candidates.is_empty() {
                println!("(no completions)");
            }
            for candidate in candidates {
                println!("{candidate}");
            }
        }
        Some("classify") => {
            let report = srl_analysis::analyze_compiled(session.artifact().compiled());
            if report.spines.is_empty() {
                println!("(no definitions)");
            }
            for s in &report.spines {
                match &s.spine_param {
                    Some(p) => println!("{}: spine parameter `{p}`", s.def),
                    None => println!("{}: no spine parameter", s.def),
                }
            }
            for f in &report.folds {
                let place = match &f.def {
                    Some(d) => format!("{d} b{}", f.block),
                    None => format!("b{}", f.block),
                };
                println!(
                    "[{place}] {}{} class={} cost={} — {}",
                    if f.is_list { "list-" } else { "" },
                    f.kind,
                    f.class.label(),
                    f.unit_cost,
                    f.reason,
                );
            }
        }
        _ => eprintln!("unknown command `:{command}` (:help lists commands)"),
    }
    true
}

/// `name(p1, …) = …` — an identifier, a parenthesised parameter list, `=`.
/// (`(a = b)` starts with `(`; a call `f(x)` has no `=` after the list.)
fn looks_like_definition(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'-')
    {
        i += 1;
    }
    if i == 0 {
        return false;
    }
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= bytes.len() || bytes[i] != b'(' {
        return false;
    }
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    let rest = line[i + 1..].trim_start();
                    return rest.starts_with('=');
                }
            }
            _ => {}
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use srl_core::Value;

    #[test]
    fn definition_lines_are_recognised() {
        assert!(looks_like_definition("f(x) = x"));
        assert!(looks_like_definition("set_union(A, B) =\n  x"));
        assert!(!looks_like_definition("f(x)"));
        assert!(!looks_like_definition("(a = b)"));
        assert!(!looks_like_definition("insert(x, emptyset)"));
        assert!(!looks_like_definition(":defs"));
    }

    #[test]
    fn session_defines_binds_and_evaluates() {
        let mut session = Session::new(ExecBackend::default());
        assert!(handle_line(
            &mut session,
            "singleton(x) = insert(x, emptyset)"
        ));
        assert!(handle_line(&mut session, "S := {d1, d2}"));
        assert_eq!(session.program.defs.len(), 1);
        assert_eq!(
            session.env.get("S"),
            Some(&Value::set([Value::atom(1), Value::atom(2)]))
        );
        // Expressions evaluate against the environment.
        let env = session.env.clone();
        let expr = srl_syntax::parse_expr("singleton(choose(S))").unwrap();
        let (value, _) = session.artifact().eval(&expr, &env).unwrap();
        assert_eq!(value, Value::set([Value::atom(1)]));
    }

    #[test]
    fn unreferenceable_input_names_are_rejected() {
        let mut session = Session::new(ExecBackend::default());
        for bad in ["if", "d3", "x.1", "insert", ""] {
            assert!(handle_line(&mut session, &format!("{bad} := {{d1}}")));
        }
        assert!(session.env.is_empty(), "no bad name may bind");
        assert!(handle_line(&mut session, "S := {d1}"));
        assert_eq!(session.env.len(), 1);
    }

    #[test]
    fn bad_definitions_leave_the_session_unchanged() {
        let mut session = Session::new(ExecBackend::default());
        assert!(handle_line(&mut session, "f(x) = x"));
        // Recursive definition is rejected by the pipeline's check stage...
        assert!(handle_line(&mut session, "g(x) = g(x)"));
        // ...so the session still has exactly the first definition.
        assert_eq!(session.program.def_names(), vec!["f"]);
    }

    #[test]
    fn redefinition_replaces() {
        let mut session = Session::new(ExecBackend::default());
        assert!(handle_line(&mut session, "f(x) = x"));
        assert!(handle_line(&mut session, "f(x) = [x, x]"));
        assert_eq!(session.program.defs.len(), 1);
        assert_eq!(
            session.program.lookup("f").unwrap().body,
            srl_core::dsl::tuple([srl_core::dsl::var("x"), srl_core::dsl::var("x")])
        );
    }

    #[test]
    fn backend_words_parse_with_optional_threads() {
        assert_eq!(parse_backend(Some("vm"), None), Ok(ExecBackend::vm()));
        assert_eq!(parse_backend(Some("tree"), None), Ok(ExecBackend::TreeWalk));
        assert_eq!(
            parse_backend(Some("vm"), Some("4")),
            Ok(ExecBackend::vm_with_threads(4))
        );
        // Unknown names round-trip into an error that names the word and
        // lists the valid options (the :backend bugfix).
        let err = parse_backend(Some("turbo"), None).unwrap_err();
        assert!(err.contains("`turbo`"), "{err}");
        assert!(err.contains("vm, tree, tree-walk"), "{err}");
        let err = parse_backend(None, None).unwrap_err();
        assert!(err.contains("valid backends"), "{err}");
        assert!(parse_backend(Some("vm"), Some("0")).is_err());
        assert!(parse_backend(Some("tree"), Some("4")).is_err());
    }

    #[test]
    fn backend_command_reports_unknown_names() {
        let mut session = Session::new(ExecBackend::default());
        // A bad name must not change the session backend…
        assert!(handle_line(&mut session, ":backend turbo"));
        assert_eq!(session.config.backend, ExecBackend::default());
        // …while valid names (with an optional thread count) do.
        assert!(handle_line(&mut session, ":backend tree"));
        assert_eq!(session.config.backend, ExecBackend::TreeWalk);
        assert!(handle_line(&mut session, ":backend vm 4"));
        assert_eq!(session.config.backend, ExecBackend::vm_with_threads(4));
    }

    #[test]
    fn timeout_words_parse() {
        assert_eq!(parse_timeout(Some("250")), Ok(Some(250)));
        assert_eq!(parse_timeout(Some("off")), Ok(None));
        assert_eq!(parse_timeout(Some("0")), Ok(None));
        let err = parse_timeout(Some("soon")).unwrap_err();
        assert!(err.contains("`soon`"), "{err}");
        assert!(parse_timeout(None).is_err());
    }

    #[test]
    fn timeout_command_arms_and_disarms_the_deadline() {
        let mut session = Session::new(ExecBackend::default());
        assert_eq!(session.config.limits.deadline, None);
        assert!(handle_line(&mut session, ":timeout 250"));
        assert_eq!(
            session.config.limits.deadline,
            Some(std::time::Duration::from_millis(250))
        );
        // A bad operand must not change the armed deadline…
        assert!(handle_line(&mut session, ":timeout soon"));
        assert_eq!(
            session.config.limits.deadline,
            Some(std::time::Duration::from_millis(250))
        );
        // …and `off` disarms it.
        assert!(handle_line(&mut session, ":timeout off"));
        assert_eq!(session.config.limits.deadline, None);
    }

    #[test]
    fn timeout_change_invalidates_the_cached_artifact() {
        let mut session = Session::new(ExecBackend::default());
        assert!(handle_line(&mut session, "f(x) = x"));
        assert!(session.artifact.is_some(), "merge_defs caches an artifact");
        assert!(handle_line(&mut session, ":timeout 250"));
        assert!(
            session.artifact.is_none(),
            ":timeout must drop the artifact compiled under the old limits"
        );
        // The rebuilt artifact evaluates under the new deadline.
        assert_eq!(
            session.artifact().limits().deadline,
            Some(std::time::Duration::from_millis(250))
        );
    }

    #[test]
    fn classify_command_reports_the_session_program() {
        let mut session = Session::new(ExecBackend::default());
        assert!(handle_line(&mut session, "grow(x, T) = insert(x, T)"));
        assert!(handle_line(
            &mut session,
            "collect(S) = set-reduce(S, lambda(x, e) x, lambda(x, acc) grow(x, acc), emptyset, emptyset)"
        ));
        // The command runs against the cached artifact without error…
        assert!(handle_line(&mut session, ":classify"));
        // …and the report it prints shows the call-threaded spine proof.
        let report = srl_analysis::analyze_compiled(session.artifact().compiled());
        assert_eq!(report.spines.len(), 2);
        assert_eq!(report.spines[0].spine_param.as_deref(), Some("T"));
        let fold = &report.folds[0];
        assert!(fold.order_independent());
        assert!(fold.reason.contains("`grow`"), "{}", fold.reason);
    }

    #[test]
    fn colon_commands_complete_from_the_vocabulary() {
        let session = Session::new(ExecBackend::default());
        assert_eq!(completions(&session, ":d"), vec![":defs", ":disasm"]);
        assert_eq!(completions(&session, ":qu"), vec![":quit"]);
        assert_eq!(completions(&session, ":zz"), Vec::<String>::new());
        // A bare `:` lists the whole vocabulary…
        assert_eq!(completions(&session, ":").len(), COMMANDS.len());
        // …and arguments are not completed (only the command word is).
        assert_eq!(completions(&session, ":load exam"), Vec::<String>::new());
    }

    #[test]
    fn identifiers_complete_against_defs_and_bindings() {
        let mut session = Session::new(ExecBackend::default());
        assert!(handle_line(
            &mut session,
            "singleton(x) = insert(x, emptyset)"
        ));
        assert!(handle_line(&mut session, "sift(x, T) = insert(x, T)"));
        assert!(handle_line(&mut session, "Stuff := {d1, d2}"));
        // The trailing identifier completes; the head of the line survives.
        assert_eq!(
            completions(&session, "insert(si"),
            vec!["insert(sift", "insert(singleton"]
        );
        assert_eq!(completions(&session, "choose(St"), vec!["choose(Stuff"]);
        // An empty partial word offers everything, sorted and deduplicated.
        assert_eq!(
            completions(&session, ""),
            vec!["Stuff", "sift", "singleton"]
        );
        assert_eq!(
            completions(&session, "union("),
            vec!["union(Stuff", "union(sift", "union(singleton"]
        );
        // No candidate → empty, and the command prints its placeholder.
        assert_eq!(completions(&session, "zebra"), Vec::<String>::new());
        assert!(handle_line(&mut session, ":complete si"));
        assert!(handle_line(&mut session, ":complete"));
    }

    #[test]
    fn rebinding_an_input_does_not_duplicate_its_completion() {
        let mut session = Session::new(ExecBackend::default());
        assert!(handle_line(&mut session, "S := {d1}"));
        assert!(handle_line(&mut session, "S := {d2}"));
        assert_eq!(completions(&session, "S"), vec!["S"]);
    }

    #[test]
    fn quit_commands_end_the_loop() {
        let mut session = Session::new(ExecBackend::default());
        assert!(!handle_line(&mut session, ":quit"));
        assert!(!handle_line(&mut session, ":q"));
        assert!(handle_line(&mut session, ":help"));
        assert!(handle_line(&mut session, "// comment"));
        assert!(handle_line(&mut session, ""));
    }
}
