//! End-to-end smoke tests for the `srl` binary: the exit-code contract, the
//! `--json` error object, `--timeout-ms`, and the `SRL_FAULTS` environment
//! hook all exercised through real process spawns.
//!
//! The exit codes asserted here are the documented contract from `srl`'s
//! usage text (0 ok, 2 usage/IO, 3 parse, 4 check, 5 runtime, 6 limit,
//! 7 wall-clock timeout, 8 internal) — scripts and the serving layer
//! branch on them, so a failure here means a breaking interface change.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use srl_core::api;
use srl_core::bytecode::Insn;
use srl_core::parallel::PAR_WORK_THRESHOLD;
use srl_core::{PipelineConfig, Program};

const SRL: &str = env!("CARGO_BIN_EXE_srl");

/// `examples/srl/<name>` resolved relative to the workspace root.
fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/srl")
        .join(name)
}

/// Writes `text` to a fresh temp file and returns its path.
fn temp_program(stem: &str, text: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("srl_cli_smoke_{stem}_{}.srl", std::process::id()));
    std::fs::write(&path, text).expect("temp dir is writable");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(SRL).args(args).output().expect("srl spawns")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("srl exits (not signalled)")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A `powerset(S)` call on `n` atoms: exponential work that a small budget
/// or a short deadline must interrupt.
fn powerset_main(n: usize) -> String {
    let atoms: Vec<String> = (1..=n).map(|i| format!("d{i}")).collect();
    let program = std::fs::read_to_string(example("powerset.srl")).expect("example exists");
    format!(
        "{program}\nmain() =\n  powerset({{{}}})\n",
        atoms.join(", ")
    )
}

#[test]
fn happy_path_is_exit_zero_and_thread_count_invisible() {
    let file = example("membership.srl");
    let file = file.to_str().unwrap();
    let one = run(&["run", file, "--json", "--threads", "1"]);
    assert_eq!(exit_code(&one), 0, "{one:?}");
    assert!(stdout(&one).contains("\"result\""), "{one:?}");
    // The acceptance bar for the worker pool: --json output byte-identical
    // across thread counts.
    let four = run(&["run", file, "--json", "--threads", "4"]);
    assert_eq!(exit_code(&four), 0);
    assert_eq!(
        stdout(&one),
        stdout(&four),
        "stats must not depend on --threads"
    );
}

/// `srl analyze --json` must reproduce the committed per-fold verdict tables
/// byte for byte: a codegen or summary change that reclassifies a fold (and
/// so changes what `--threads N` shards) fails here. Regenerate a golden
/// with `srl analyze --json examples/srl/<f>.srl >
/// examples/srl/analysis/<f>.analyze.json`.
#[test]
fn analyze_json_matches_the_committed_goldens() {
    for name in ["powerset", "membership", "apath", "arith", "closure", "tm"] {
        let file = example(&format!("{name}.srl"));
        let out = run(&["analyze", "--json", file.to_str().unwrap()]);
        assert_eq!(exit_code(&out), 0, "{name}: {out:?}");
        let golden = example(&format!("analysis/{name}.analyze.json"));
        let golden = std::fs::read_to_string(&golden).expect("golden exists");
        assert_eq!(stdout(&out), golden, "{name}: analyze --json drifted");
    }
}

#[test]
fn usage_errors_are_exit_two() {
    assert_eq!(exit_code(&run(&["run"])), 2, "missing file");
    let file = example("membership.srl");
    assert_eq!(
        exit_code(&run(&["run", file.to_str().unwrap(), "--wat"])),
        2,
        "unknown flag"
    );
    assert_eq!(
        exit_code(&run(&["run", "/no/such/file.srl"])),
        2,
        "unreadable file"
    );
}

#[test]
fn parse_errors_are_exit_three() {
    let file = temp_program("parse", "main() = insert(\n");
    let out = run(&["run", file.to_str().unwrap(), "--json"]);
    assert_eq!(exit_code(&out), 3, "{out:?}");
    assert!(stdout(&out).contains("\"kind\": \"parse\""), "{out:?}");
    // `check` reports the same class of failure with the same code.
    assert_eq!(exit_code(&run(&["check", file.to_str().unwrap()])), 3);
    let _ = std::fs::remove_file(file);
}

#[test]
fn check_errors_are_exit_four() {
    // Recursion is rejected by the pipeline's check stage, not the parser.
    let file = temp_program("check", "g(x) = g(x)\n");
    let out = run(&["run", file.to_str().unwrap(), "--json"]);
    assert_eq!(exit_code(&out), 4, "{out:?}");
    assert!(stdout(&out).contains("\"kind\": \"check\""), "{out:?}");
    assert_eq!(exit_code(&run(&["check", file.to_str().unwrap()])), 4);
    let _ = std::fs::remove_file(file);
}

#[test]
fn limit_errors_are_exit_six_with_partial_stats() {
    let file = temp_program("limit", &powerset_main(16));
    let out = run(&["run", file.to_str().unwrap(), "--limits", "small", "--json"]);
    assert_eq!(exit_code(&out), 6, "{out:?}");
    let json = stdout(&out);
    assert!(json.contains("\"error\""), "{json}");
    assert!(json.contains("limit_exceeded"), "{json}");
    assert!(json.contains("\"exit\": 6"), "{json}");
    // The partial stats of the interrupted run ride along.
    assert!(json.contains("\"stats\""), "{json}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn timeouts_are_exit_seven_and_prompt() {
    // Under the benchmark budget this powerset would run for minutes; the
    // 50 ms deadline must kill it within ~2× of itself plus process
    // overhead (generous bound: two seconds). Under `--threads 4` its sift
    // folds shard from 11 atoms up, and every shard must stop on its own
    // poll of the inherited deadline.
    let file = temp_program("timeout", &powerset_main(26));
    for extra in [&[][..], &["--threads", "4"][..]] {
        let mut args = vec![
            "run",
            file.to_str().unwrap(),
            "--limits",
            "benchmark",
            "--timeout-ms",
            "50",
            "--json",
        ];
        args.extend_from_slice(extra);
        let started = Instant::now();
        let out = run(&args);
        let elapsed = started.elapsed();
        assert_eq!(exit_code(&out), 7, "{extra:?}: {out:?}");
        assert!(
            elapsed < Duration::from_secs(2),
            "{extra:?}: took {elapsed:?} to honour a 50 ms deadline"
        );
        let json = stdout(&out);
        assert!(
            json.contains("\"kind\": \"deadline_exceeded\""),
            "{extra:?}: {json}"
        );
        assert!(json.contains("\"exit\": 7"), "{extra:?}: {json}");
        assert!(
            json.contains("\"stats\""),
            "{extra:?}: partial stats expected: {json}"
        );
    }
    let _ = std::fs::remove_file(file);
}

/// A proper-hom `insert-app` fold projecting the pairs in `S`.
const PROJECTION_EXPR: &str =
    "set-reduce(S, lambda(x, e) x.2, lambda(y, acc) insert(y, acc), emptyset, emptyset)";

/// The fewest pairs whose projection fold work reaches
/// `PAR_WORK_THRESHOLD`, so `--threads 4` shards it: the gate over the
/// fold's unit cost, read from the compiled code.
fn sharded_pairs() -> usize {
    let expr = srl_syntax::parse_expr(PROJECTION_EXPR).expect("the projection parses");
    let compiled = Program::srl().compile();
    let lowered = compiled.lower_expr(&expr, &["S"]);
    let chunk = lowered.code(&compiled);
    let cost = chunk
        .block(chunk.main())
        .code()
        .iter()
        .find_map(|insn| match insn {
            Insn::Reduce(r) => Some(r.unit_cost),
            _ => None,
        })
        .expect("the projection is one fold");
    PAR_WORK_THRESHOLD.div_ceil(u64::from(cost)) as usize
}

/// The projection over `n` pairs as a program whose `main` applies it.
fn projection_main(n: usize) -> String {
    let pairs: Vec<String> = (1..=n).map(|i| format!("[d{i}, d{}]", i + n)).collect();
    format!(
        "proj(S) =\n  {PROJECTION_EXPR}\n\nmain() =\n  proj({{{}}})\n",
        pairs.join(", ")
    )
}

#[test]
fn injected_worker_panics_are_exit_eight() {
    // `SRL_FAULTS=worker_panic@1` panics shard 1 of the first parallel fold;
    // the worker pool must convert that into a structured internal error —
    // a clean exit 8, not an abort or a hung process.
    let file = temp_program("fault", &projection_main(sharded_pairs()));
    let file_str = file.to_str().unwrap();
    let out = Command::new(SRL)
        .args(["run", file_str, "--threads", "4", "--json"])
        .env("SRL_FAULTS", "worker_panic@1")
        .output()
        .expect("srl spawns");
    assert_eq!(exit_code(&out), 8, "{out:?}");
    let json = stdout(&out);
    assert!(json.contains("\"kind\": \"internal\""), "{json}");
    assert!(json.contains("worker panicked"), "{json}");
    assert!(json.contains("\"exit\": 8"), "{json}");
    // The identical invocation with no fault armed succeeds: the registry
    // is opt-in per process, and the workload itself is healthy.
    let clean = run(&["run", file_str, "--threads", "4", "--json"]);
    assert_eq!(exit_code(&clean), 0, "{clean:?}");
    let _ = std::fs::remove_file(file);
}

// ---------------------------------------------------------------------------
// One setting vocabulary
// ---------------------------------------------------------------------------

/// `srl repl` started with `flags` and fed `script` on stdin.
fn repl(flags: &[&str], script: &str) -> Output {
    let mut child = Command::new(SRL)
        .arg("repl")
        .args(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("srl repl spawns");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(script.as_bytes())
        .expect("write the script");
    child.wait_with_output().expect("srl repl exits")
}

/// `srl serve` with a tenant-config file whose `default` tenant is
/// `tenant`. A rejected file stops the server before it binds; one that is
/// accepted would serve forever, so the child is killed after 10 s.
fn serve_with_default_tenant(stem: &str, tenant: &str) -> Output {
    let config = temp_program(stem, &format!("{{\"default\": {tenant}}}"));
    let mut child = Command::new(SRL)
        .args(["serve", "--addr", "127.0.0.1:0", "--tenant-config"])
        .arg(&config)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("srl serve spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll srl serve").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = std::fs::remove_file(config);
    child.wait_with_output().expect("srl serve exits")
}

/// The same setting words through `srl run` flags, `srl repl` flags, the
/// REPL's `:backend`/`:timeout` and a `--tenant-config` file: each surface
/// that takes a setting rejects a bad word with the one message
/// `PipelineConfig::with_settings` gives, whatever the order of the words.
#[test]
fn every_surface_rejects_a_bad_setting_with_one_message() {
    let file = example("membership.srl");
    let file = file.to_str().unwrap();
    // (name, settings, flags, REPL script, tenant object)
    type Case<'a> = (
        &'a str,
        &'a [(&'a str, &'a str)],
        &'a [&'a str],
        Option<&'a str>,
        &'a str,
    );
    let cases: [Case; 3] = [
        (
            "tree_threads",
            &[("backend", "tree"), ("threads", "2")],
            &["--threads", "2", "--backend", "tree"],
            Some(":backend tree 2\n"),
            "{\"threads\": 2, \"backend\": \"tree\"}",
        ),
        (
            "zero_timeout",
            &[("deadline_ms", "0")],
            &["--timeout-ms", "0"],
            Some(":timeout 0\n"),
            "{\"deadline_ms\": 0}",
        ),
        (
            "huge_limits",
            &[("limits", "huge")],
            &["--limits", "huge"],
            None,
            "{\"limits\": \"huge\"}",
        ),
    ];
    for (stem, settings, flags, script, tenant) in cases {
        let message = PipelineConfig::new()
            .with_settings(settings)
            .expect_err(stem);
        let mut outcomes = vec![
            ("srl run", run(&[&["run", file], flags].concat())),
            ("srl serve", serve_with_default_tenant(stem, tenant)),
        ];
        if let Some(script) = script {
            outcomes.push(("srl repl flags", repl(flags, "")));
            let session = repl(&[], script);
            assert_eq!(exit_code(&session), 0, "{stem}: {session:?}");
            let stderr = String::from_utf8_lossy(&session.stderr);
            assert!(stderr.contains(&message), "{stem} in the repl: {stderr}");
        }
        for (surface, out) in outcomes {
            assert_eq!(exit_code(&out), 2, "{stem} via {surface}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&message),
                "{stem} via {surface}: expected `{message}`, got {stderr}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// `srl serve`
// ---------------------------------------------------------------------------

/// A running `srl serve` child process, killed on drop. The bound port is
/// read from the `listening on HOST:PORT` line the server prints on stdout.
struct ServeProc {
    child: Child,
    addr: String,
}

impl ServeProc {
    fn spawn(extra_args: &[&str], env: &[(&str, &str)]) -> ServeProc {
        let mut cmd = Command::new(SRL);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped());
        for (key, value) in env {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().expect("srl serve spawns");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("the server announces its port");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
            .to_string();
        ServeProc { child, addr }
    }

    fn connect(&self) -> ServeClient {
        let stream = TcpStream::connect(&self.addr).expect("connect to srl serve");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        ServeClient {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .expect("send request");
    }

    fn receive(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response line");
        line.trim().to_string()
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.receive()
    }
}

#[test]
fn serve_round_trips_with_cli_parity() {
    let server = ServeProc::spawn(&[], &[]);
    let mut client = server.connect();

    // Success parity: serving a program returns the byte-compacted form of
    // exactly what `srl run --json` prints locally, plus the trailing
    // `cache` object — the CLI body is a strict prefix of the served one.
    let file = example("membership.srl");
    let text = std::fs::read_to_string(&file).expect("example exists");
    let local = run(&["run", file.to_str().unwrap(), "--json"]);
    assert_eq!(exit_code(&local), 0, "{local:?}");
    let local_body = api::compact(stdout(&local).trim());
    let served = client.request(&format!(
        "{{\"v\": 1, \"kind\": \"run\", \"program\": \"{}\"}}",
        api::escape(&text)
    ));
    let prefix = local_body
        .strip_suffix('}')
        .expect("a JSON body ends with a brace");
    assert!(
        served.starts_with(prefix),
        "served response diverged from the CLI body:\n cli: {local_body}\nsrv: {served}"
    );
    assert!(served.contains("\"cache\""), "{served}");

    // Error parity: same text, same taxonomy, same code — the served error
    // body is byte-identical to the compacted CLI one (exit 4 = check).
    let bad = temp_program("serve_check", "g(x) = g(x)\n");
    let local = run(&["run", bad.to_str().unwrap(), "--json"]);
    assert_eq!(exit_code(&local), 4);
    let served = client.request(
        "{\"v\": 1, \"kind\": \"run\", \"program\": \"g(x) = g(x)\", \"call\": \"g\", \"args\": [\"d1\"]}",
    );
    assert_eq!(served, api::compact(stdout(&local).trim()));
    let _ = std::fs::remove_file(bad);

    // Bindings persist across queries on the connection's tenant.
    let bound =
        client.request("{\"v\": 1, \"kind\": \"bind\", \"name\": \"S\", \"value\": \"{d1, d2}\"}");
    assert!(bound.contains("\"ok\": true"), "{bound}");
    let over = client.request("{\"v\": 1, \"kind\": \"run\", \"expr\": \"insert(d3, S)\"}");
    assert!(over.contains("\"result\": \"{d1, d2, d3}\""), "{over}");
}

#[test]
fn serve_sheds_past_max_inflight() {
    // One admission slot; the armed `merge_delay` holds tenant a's sharded
    // query in the merge for a full second, so tenant b's concurrent query
    // is deterministically shed with the `overloaded` taxonomy (exit 9).
    let config = temp_program("serve_tenants", "{\"default\": {\"threads\": 4}}");
    let server = ServeProc::spawn(
        &[
            "--max-inflight",
            "1",
            "--session-threads",
            "2",
            "--tenant-config",
            config.to_str().unwrap(),
        ],
        &[("SRL_FAULTS", "merge_delay@1000")],
    );
    let mut a = server.connect();
    let mut b = server.connect();
    let n = sharded_pairs();
    let pairs: Vec<String> = (0..n).map(|i| format!("[d{i}, d{}]", i + n)).collect();
    for (client, tenant) in [(&mut a, "a"), (&mut b, "b")] {
        let bound = client.request(&format!(
            "{{\"v\": 1, \"kind\": \"bind\", \"tenant\": \"{tenant}\", \"name\": \"S\", \"value\": \"{{{}}}\"}}",
            pairs.join(", ")
        ));
        assert!(bound.contains("\"ok\": true"), "{bound}");
    }
    let query = |tenant: &str| {
        format!(
            "{{\"v\": 1, \"kind\": \"run\", \"tenant\": \"{tenant}\", \"expr\": \"{PROJECTION_EXPR}\"}}"
        )
    };
    a.send(&query("a"));
    std::thread::sleep(Duration::from_millis(300));
    let shed = b.request(&query("b"));
    assert!(shed.contains("\"kind\": \"overloaded\""), "{shed}");
    assert!(shed.contains("\"exit\": 9"), "{shed}");
    // The held query is unaffected by the shed one.
    let slow = a.receive();
    assert!(slow.contains("\"result\""), "{slow}");
    let _ = std::fs::remove_file(config);
}
