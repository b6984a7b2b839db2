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
//! `srl repl [--backend vm|tree] [--threads N] [--timeout-ms N]` sets the
//! session's starting config; `:backend` and `:timeout` change it later.
//! Flags and commands hand their words to `PipelineConfig::with_settings`,
//! the parser `srl run` and tenant-config files use too, so a word is
//! accepted or rejected with the same message on every surface: a timeout
//! is a millisecond count ≥ 1 (`:timeout off` clears it), and threads
//! with the tree-walk are an error in either flag order.
//!
//! `:complete` is the completion engine a line editor would call on Tab,
//! exposed as a command because the loop reads plain stdin: a partial line
//! starting with `:` completes the command vocabulary, anything else
//! completes its trailing identifier against the session's definition and
//! input-binding names.

use std::io::{self, BufRead, IsTerminal, Write};
use std::process::ExitCode;
use std::sync::Arc;

use srl_core::pipeline::{Compiled, PipelineConfig, Source};
use srl_core::program::Program;
use srl_core::{Dialect, Env};
use srl_syntax::frontend::TextFrontend;

const REPL_HELP: &str = "\
definitions   f(x) = insert(x, emptyset)
inputs        S := {d1, d2}
expressions   f(choose(S))
commands      :help :defs :env :backend vm [threads]|tree :timeout MS|off
              :load FILE :disasm :classify :complete [PARTIAL] :quit
flags         srl repl [--backend vm|tree] [--threads N] [--timeout-ms N]
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
    fn new(config: PipelineConfig) -> Self {
        Session {
            config,
            program: Program::new(Dialect::full()),
            artifact: None,
            env: Env::new(),
        }
    }

    /// Applies engine settings (see [`PipelineConfig::with_settings`]) to
    /// the session's config; a rejected setting changes nothing. The
    /// cached artifact captured the old config, so it must be rebuilt.
    fn apply(&mut self, settings: &[(&str, &str)]) -> Result<(), String> {
        self.config = self.config.clone().with_settings(settings)?;
        self.artifact = None;
        Ok(())
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

/// The session's starting config from `srl repl`'s flags: `srl run`'s
/// engine-setting flags but `--limits`.
fn startup_config(rest: &[String]) -> Result<PipelineConfig, String> {
    let mut settings = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let name = crate::setting_name(flag)
            .filter(|_| flag != "--limits")
            .ok_or_else(|| format!("unexpected argument `{flag}` to `srl repl`"))?;
        settings.push((name, it.next().map_or("", String::as_str)));
    }
    PipelineConfig::new().with_settings(&settings)
}

/// `srl repl [--backend vm|tree] [--threads N] [--timeout-ms N]`.
pub fn repl(rest: &[String]) -> ExitCode {
    let config = match startup_config(rest) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match session_loop(Session::new(config), &mut io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader of our answers went away (`srl repl | head -1`): there
        // is no one left to answer, which ends the session, not an error.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write the answer: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads stdin to exhaustion (or `:quit`), answering each line on `out`.
fn session_loop(mut session: Session, out: &mut dyn Write) -> io::Result<()> {
    let interactive = io::stdin().is_terminal();
    if interactive {
        writeln!(out, "srl repl — :help for commands, :quit to leave")?;
    }
    let mut lines = io::stdin().lock().lines();
    loop {
        if interactive {
            write!(out, "srl> ")?;
            out.flush()?;
        }
        let Some(Ok(line)) = lines.next() else { break };
        if !handle_line(&mut session, line.trim(), out)? {
            break;
        }
    }
    out.flush()
}

/// Processes one line, writing its answer to `out` (diagnostics go to
/// stderr); returns `false` to leave the loop, or the error that writing
/// the answer raised.
fn handle_line(session: &mut Session, line: &str, out: &mut dyn Write) -> io::Result<bool> {
    if line.is_empty() || line.starts_with("//") {
        return Ok(true);
    }
    if let Some(command) = line.strip_prefix(':') {
        return handle_command(session, command, out);
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
            return Ok(true);
        }
        match srl_syntax::parse_value(literal) {
            Ok(value) => {
                writeln!(out, "{name} = {value}")?;
                session.env.insert(name, value);
            }
            Err(e) => eprintln!("{}", e.to_diagnostic("<repl>", literal)),
        }
        return Ok(true);
    }
    // A definition if an ident-headed parameter list is followed by `=`.
    if looks_like_definition(line) {
        match srl_syntax::parse_program(line) {
            Ok(incoming) => match session.merge_defs(incoming) {
                Ok(added) => writeln!(out, "defined {}", added.join(", "))?,
                Err(e) => eprintln!("{e}"),
            },
            Err(e) => eprintln!("{}", e.to_diagnostic("<repl>", line)),
        }
        return Ok(true);
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
                    writeln!(out, "{value}")?;
                    writeln!(
                        out,
                        "  [steps {} | reduce iterations {} | inserts {}]",
                        stats.steps, stats.reduce_iterations, stats.inserts
                    )?;
                    if tiers.total() > 0 {
                        writeln!(
                            out,
                            "  [tiers: atoms {} | bits {}]",
                            tiers.atoms, tiers.bits
                        )?;
                    }
                }
                Err(e) => eprintln!("evaluation error: {e}"),
            }
        }
        Err(e) => eprintln!("{}", e.to_diagnostic("<repl>", line)),
    }
    Ok(true)
}

fn handle_command(session: &mut Session, command: &str, out: &mut dyn Write) -> io::Result<bool> {
    let mut words = command.split_whitespace();
    match words.next() {
        Some("q") | Some("quit") | Some("exit") => return Ok(false),
        Some("help") => write!(out, "{REPL_HELP}")?,
        Some("defs") => {
            if session.program.defs.is_empty() {
                writeln!(out, "(no definitions)")?;
            } else {
                for def in &session.program.defs {
                    let params: Vec<&str> = def.params.iter().map(|p| p.name.as_str()).collect();
                    writeln!(out, "{}({})", def.name, params.join(", "))?;
                }
            }
        }
        Some("env") => {
            if session.env.is_empty() {
                writeln!(out, "(no inputs bound)")?;
            } else {
                for (name, value) in session.env.iter() {
                    writeln!(out, "{name} = {value}")?;
                }
            }
        }
        Some("backend") => {
            let mut settings = vec![("backend", words.next().unwrap_or(""))];
            settings.extend(words.next().map(|threads| ("threads", threads)));
            match session.apply(&settings) {
                Ok(()) => writeln!(out, "backend: {}", session.config.backend)?,
                Err(e) => eprintln!("error: {e} — usage: :backend vm [threads]|tree"),
            }
        }
        Some("timeout") => {
            let applied = match words.next() {
                Some("off") => {
                    session.config.limits = session.config.limits.with_deadline(None);
                    session.artifact = None;
                    Ok(())
                }
                word => session.apply(&[("deadline_ms", word.unwrap_or(""))]),
            };
            match (applied, session.config.limits.deadline) {
                (Ok(()), Some(deadline)) => writeln!(out, "timeout: {} ms", deadline.as_millis())?,
                (Ok(()), None) => writeln!(out, "timeout: off")?,
                (Err(e), _) => eprintln!("error: {e} — usage: :timeout MS|off"),
            }
        }
        Some("load") => match words.next() {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => {
                    let source = Source::new(path, text);
                    match session.config.pipeline().check_source(&source) {
                        Ok(checked) => match session.merge_defs(checked.program().clone()) {
                            Ok(added) => writeln!(out, "loaded {}: {}", path, added.join(", "))?,
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
            write!(
                out,
                "{}",
                srl_syntax::disasm_program(session.artifact().compiled())
            )?;
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
                writeln!(out, "(no completions)")?;
            }
            for candidate in candidates {
                writeln!(out, "{candidate}")?;
            }
        }
        Some("classify") => {
            let report = srl_analysis::analyze_compiled(session.artifact().compiled());
            if report.spines.is_empty() {
                writeln!(out, "(no definitions)")?;
            }
            for s in &report.spines {
                match &s.spine_param {
                    Some(p) => writeln!(out, "{}: spine parameter `{p}`", s.def)?,
                    None => writeln!(out, "{}: no spine parameter", s.def)?,
                }
            }
            for f in &report.folds {
                let place = match &f.def {
                    Some(d) => format!("{d} b{}", f.block),
                    None => format!("b{}", f.block),
                };
                writeln!(
                    out,
                    "[{place}] {}{} class={} cost={} — {}",
                    if f.is_list { "list-" } else { "" },
                    f.kind,
                    f.class.label(),
                    f.unit_cost,
                    f.reason,
                )?;
            }
        }
        _ => eprintln!("unknown command `:{command}` (:help lists commands)"),
    }
    Ok(true)
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
    use srl_core::{ExecBackend, Value};

    /// One session line with its answer discarded.
    fn feed(session: &mut Session, text: &str) -> bool {
        handle_line(session, text, &mut io::sink()).expect("a sink never fails")
    }

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
        let mut session = Session::new(PipelineConfig::new());
        assert!(feed(&mut session, "singleton(x) = insert(x, emptyset)"));
        assert!(feed(&mut session, "S := {d1, d2}"));
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
        let mut session = Session::new(PipelineConfig::new());
        for bad in ["if", "d3", "x.1", "insert", ""] {
            assert!(feed(&mut session, &format!("{bad} := {{d1}}")));
        }
        assert!(session.env.is_empty(), "no bad name may bind");
        assert!(feed(&mut session, "S := {d1}"));
        assert_eq!(session.env.len(), 1);
    }

    #[test]
    fn bad_definitions_leave_the_session_unchanged() {
        let mut session = Session::new(PipelineConfig::new());
        assert!(feed(&mut session, "f(x) = x"));
        // Recursive definition is rejected by the pipeline's check stage...
        assert!(feed(&mut session, "g(x) = g(x)"));
        // ...so the session still has exactly the first definition.
        assert_eq!(session.program.def_names(), vec!["f"]);
    }

    #[test]
    fn redefinition_replaces() {
        let mut session = Session::new(PipelineConfig::new());
        assert!(feed(&mut session, "f(x) = x"));
        assert!(feed(&mut session, "f(x) = [x, x]"));
        assert_eq!(session.program.defs.len(), 1);
        assert_eq!(
            session.program.lookup("f").unwrap().body,
            srl_core::dsl::tuple([srl_core::dsl::var("x"), srl_core::dsl::var("x")])
        );
    }

    fn words(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn backend_words_parse_with_optional_threads() {
        let mut session = Session::new(PipelineConfig::new());
        for (line, expected) in [
            (":backend tree", ExecBackend::TreeWalk),
            (":backend vm 4", ExecBackend::vm_with_threads(4)),
            (":backend vm", ExecBackend::vm()),
        ] {
            assert!(feed(&mut session, line));
            assert_eq!(session.config.backend, expected, "{line}");
        }
        // Unknown names round-trip into an error that names the word and
        // lists the valid options (the :backend bugfix).
        let err = session.apply(&[("backend", "turbo")]).unwrap_err();
        assert!(err.contains("`turbo`"), "{err}");
        assert!(err.contains("vm, tree, tree-walk"), "{err}");
        let err = session.apply(&[("backend", "")]).unwrap_err();
        assert!(err.contains("valid backends"), "{err}");
        assert!(session
            .apply(&[("backend", "vm"), ("threads", "0")])
            .is_err());
        assert!(session
            .apply(&[("backend", "tree"), ("threads", "4")])
            .is_err());
        assert_eq!(session.config.backend, ExecBackend::vm());
        // The startup flags combine whatever their order.
        assert_eq!(
            startup_config(&words(&["--threads", "2", "--backend", "vm"])),
            Ok(PipelineConfig::new().threads(2))
        );
        assert_eq!(
            startup_config(&words(&["--threads", "2", "--backend", "tree"])),
            startup_config(&words(&["--backend", "tree", "--threads", "2"]))
        );
        assert!(startup_config(&words(&["--backend", "tree", "--threads", "2"])).is_err());
        assert!(startup_config(&words(&["--limits", "small"])).is_err());
    }

    #[test]
    fn backend_command_reports_unknown_names() {
        let mut session = Session::new(PipelineConfig::new());
        // A bad name must not change the session backend…
        assert!(feed(&mut session, ":backend turbo"));
        assert_eq!(session.config.backend, ExecBackend::default());
        // …while valid names (with an optional thread count) do.
        assert!(feed(&mut session, ":backend tree"));
        assert_eq!(session.config.backend, ExecBackend::TreeWalk);
        assert!(feed(&mut session, ":backend vm 4"));
        assert_eq!(session.config.backend, ExecBackend::vm_with_threads(4));
    }

    #[test]
    fn timeout_words_parse() {
        let mut session = Session::new(PipelineConfig::new());
        assert_eq!(session.apply(&[("deadline_ms", "250")]), Ok(()));
        let armed = Some(std::time::Duration::from_millis(250));
        assert_eq!(session.config.limits.deadline, armed);
        let err = session.apply(&[("deadline_ms", "soon")]).unwrap_err();
        assert!(err.contains("`soon`"), "{err}");
        assert!(session.apply(&[("deadline_ms", "")]).is_err());
        // A zero timeout is rejected, as on every surface; `:timeout off`
        // is how a deadline is cleared.
        let err = session.apply(&[("deadline_ms", "0")]).unwrap_err();
        assert!(err.contains("`0`"), "{err}");
        assert!(feed(&mut session, ":timeout 0"));
        assert_eq!(session.config.limits.deadline, armed);
        assert!(startup_config(&words(&["--timeout-ms", "0"])).is_err());
    }

    #[test]
    fn timeout_command_arms_and_disarms_the_deadline() {
        let mut session = Session::new(PipelineConfig::new());
        assert_eq!(session.config.limits.deadline, None);
        assert!(feed(&mut session, ":timeout 250"));
        assert_eq!(
            session.config.limits.deadline,
            Some(std::time::Duration::from_millis(250))
        );
        // A bad operand must not change the armed deadline…
        assert!(feed(&mut session, ":timeout soon"));
        assert_eq!(
            session.config.limits.deadline,
            Some(std::time::Duration::from_millis(250))
        );
        // …and `off` disarms it.
        assert!(feed(&mut session, ":timeout off"));
        assert_eq!(session.config.limits.deadline, None);
    }

    #[test]
    fn timeout_change_invalidates_the_cached_artifact() {
        let mut session = Session::new(PipelineConfig::new());
        assert!(feed(&mut session, "f(x) = x"));
        assert!(session.artifact.is_some(), "merge_defs caches an artifact");
        assert!(feed(&mut session, ":timeout 250"));
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
        let mut session = Session::new(PipelineConfig::new());
        assert!(feed(&mut session, "grow(x, T) = insert(x, T)"));
        assert!(feed(
            &mut session,
            "collect(S) = set-reduce(S, lambda(x, e) x, lambda(x, acc) grow(x, acc), emptyset, emptyset)"
        ));
        // The command runs against the cached artifact without error…
        assert!(feed(&mut session, ":classify"));
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
        let session = Session::new(PipelineConfig::new());
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
        let mut session = Session::new(PipelineConfig::new());
        assert!(feed(&mut session, "singleton(x) = insert(x, emptyset)"));
        assert!(feed(&mut session, "sift(x, T) = insert(x, T)"));
        assert!(feed(&mut session, "Stuff := {d1, d2}"));
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
        assert!(feed(&mut session, ":complete si"));
        assert!(feed(&mut session, ":complete"));
    }

    #[test]
    fn rebinding_an_input_does_not_duplicate_its_completion() {
        let mut session = Session::new(PipelineConfig::new());
        assert!(feed(&mut session, "S := {d1}"));
        assert!(feed(&mut session, "S := {d2}"));
        assert_eq!(completions(&session, "S"), vec!["S"]);
    }

    #[test]
    fn quit_commands_end_the_loop() {
        let mut session = Session::new(PipelineConfig::new());
        assert!(!feed(&mut session, ":quit"));
        assert!(!feed(&mut session, ":q"));
        assert!(feed(&mut session, ":help"));
        assert!(feed(&mut session, "// comment"));
        assert!(feed(&mut session, ""));
    }
}
