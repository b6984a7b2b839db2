//! End-to-end tests of the line-protocol server over real TCP connections:
//! request/response round trips, program-cache accounting (hits, misses,
//! LRU eviction, cross-tenant isolation, reuse-after-error), admission
//! control (deterministic shedding via the `merge_delay` fault point), and
//! the hardened-execution paths driven through a live connection
//! (`worker_panic` → structured `internal` response with the pool still
//! serving; a mid-fold deadline → partial stats in the error body).
//!
//! The fault registry is process-global, so every test serializes on one
//! mutex and disarms on entry and exit (the convention of
//! `tests/tests/fault_injection.rs`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use srl_core::api::Json;
use srl_core::bytecode::Insn;
use srl_core::faultpoint;
use srl_core::parallel::PAR_WORK_THRESHOLD;
use srl_core::pipeline::PipelineConfig;
use srl_core::Program;
use srl_serve::{ServeConfig, Server, ServerHandle};

/// Serializes the tests in this binary around the process-global registry
/// (and the global panic hook the worker-panic test replaces).
fn serialized() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let guard = GUARD.lock().unwrap_or_else(|p| p.into_inner());
    faultpoint::disarm_all();
    guard
}

/// Spawns a server on an OS-assigned port.
fn spawn(config: ServeConfig) -> ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    };
    Server::bind(config)
        .expect("bind 127.0.0.1:0")
        .spawn()
        .expect("spawn session threads")
}

/// One client connection speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// Sends one request line without waiting for the response.
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .expect("send");
    }

    /// Reads one response line and parses it.
    fn receive(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response line");
        assert!(
            line.ends_with('\n'),
            "framing: exactly one line per response"
        );
        Json::parse(line.trim()).expect("response is valid JSON")
    }

    /// Round trip.
    fn request(&mut self, line: &str) -> Json {
        self.send(line);
        self.receive()
    }
}

/// The `error.kind` of a response, if it is an error body.
fn error_kind(response: &Json) -> Option<&str> {
    response.get("error")?.get("kind")?.as_str()
}

/// The `error.exit` of a response, if it is an error body.
fn error_exit(response: &Json) -> Option<u64> {
    response.get("error")?.get("exit")?.as_u64()
}

const SINGLETON: &str = "singleton(x) = insert(x, emptyset)";

/// A run request over `SINGLETON` as one escaped request line.
fn singleton_run(arg: &str) -> String {
    format!(
        "{{\"v\": 1, \"kind\": \"run\", \"program\": \"{SINGLETON}\", \
         \"call\": \"singleton\", \"args\": [\"{arg}\"]}}"
    )
}

/// The projection workload of the fault-injection suite over `n` pairs, as
/// a `bind` + bare-`expr` pair.
fn projection_bind_line(n: u64) -> String {
    let pairs: Vec<String> = (0..n).map(|i| format!("[d{i}, d{}]", i + n)).collect();
    format!(
        "{{\"v\": 1, \"kind\": \"bind\", \"name\": \"S\", \"value\": \"{{{}}}\"}}",
        pairs.join(", ")
    )
}

const PROJECTION_EXPR: &str =
    "set-reduce(S, lambda(x, e) x.2, lambda(y, acc) insert(y, acc), emptyset, emptyset)";

fn projection_run_line() -> String {
    format!("{{\"v\": 1, \"kind\": \"run\", \"expr\": \"{PROJECTION_EXPR}\"}}")
}

/// The fewest pairs whose projection fold work reaches
/// `PAR_WORK_THRESHOLD`, so a pooled tenant shards it: the gate over the
/// fold's unit cost, read from the compiled code.
fn sharded_pairs() -> u64 {
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
    PAR_WORK_THRESHOLD.div_ceil(u64::from(cost))
}

#[test]
fn run_round_trips_with_cache_accounting_and_id_echo() {
    let _g = serialized();
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(&handle);

    let first = client.request(&singleton_run("d3").replace("\"kind\"", "\"id\": 7, \"kind\""));
    assert_eq!(first.get("v").and_then(Json::as_u64), Some(1));
    assert_eq!(first.get("result").and_then(Json::as_str), Some("{d3}"));
    assert!(first.get("stats").is_some());
    assert!(first.get("tiers").is_some());
    assert_eq!(first.get("id").and_then(Json::as_u64), Some(7));
    let cache = first
        .get("cache")
        .expect("run responses carry the cache object");
    assert_eq!(cache.get("hit").and_then(Json::as_bool), Some(false));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));

    // Byte-identical resend: a hit (and a second connection shares it —
    // tenant state is per tenant, not per connection).
    let mut other = Client::connect(&handle);
    let second = other.request(&singleton_run("d5"));
    assert_eq!(second.get("result").and_then(Json::as_str), Some("{d5}"));
    let cache = second.get("cache").expect("cache object");
    assert_eq!(cache.get("hit").and_then(Json::as_bool), Some(true));
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));

    handle.shutdown();
}

#[test]
fn bind_persists_across_connections_and_tenants_are_isolated() {
    let _g = serialized();
    let handle = spawn(ServeConfig::default());

    let mut alice = Client::connect(&handle);
    let bound = alice.request(
        "{\"v\": 1, \"kind\": \"bind\", \"tenant\": \"alice\", \"name\": \"S\", \"value\": \"{d1, d2}\"}",
    );
    assert_eq!(bound.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(bound.get("value").and_then(Json::as_str), Some("{d1, d2}"));

    // A later connection sees alice's binding…
    let mut later = Client::connect(&handle);
    let run = later.request(
        "{\"v\": 1, \"kind\": \"run\", \"tenant\": \"alice\", \"expr\": \"insert(d9, S)\"}",
    );
    assert_eq!(
        run.get("result").and_then(Json::as_str),
        Some("{d1, d2, d9}")
    );

    // …while tenant bob does not: his environment has no S.
    let unbound = later
        .request("{\"v\": 1, \"kind\": \"run\", \"tenant\": \"bob\", \"expr\": \"insert(d9, S)\"}");
    assert_eq!(error_exit(&unbound), Some(5), "{unbound:?}");

    // Cross-tenant cache isolation: alice compiles a program; bob's first
    // run of the same text is still a miss in *his* cache.
    let compiled =
        later.request(&singleton_run("d1").replace("\"kind\"", "\"tenant\": \"alice\", \"kind\""));
    assert_eq!(
        compiled
            .get("cache")
            .and_then(|c| c.get("hit"))
            .and_then(Json::as_bool),
        Some(false)
    );
    let bob =
        later.request(&singleton_run("d1").replace("\"kind\"", "\"tenant\": \"bob\", \"kind\""));
    assert_eq!(
        bob.get("cache")
            .and_then(|c| c.get("hit"))
            .and_then(Json::as_bool),
        Some(false),
        "tenant caches must be disjoint"
    );

    handle.shutdown();
}

#[test]
fn cache_evicts_lru_at_capacity_and_stats_reports_it() {
    let _g = serialized();
    let handle = spawn(ServeConfig {
        cache_cap: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&handle);

    let programs = ["a(x) = x", "b(x) = [x, x]", "c(x) = insert(x, emptyset)"];
    for (i, program) in programs.iter().enumerate() {
        let response = client.request(&format!(
            "{{\"v\": 1, \"kind\": \"run\", \"program\": \"{program}\", \
             \"call\": \"{}\", \"args\": [\"d1\"]}}",
            ["a", "b", "c"][i]
        ));
        assert!(response.get("result").is_some(), "{response:?}");
    }
    let stats = client.request("{\"v\": 1, \"kind\": \"stats\"}");
    let cache = stats.get("cache").expect("stats carries the cache block");
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(3));
    assert_eq!(cache.get("evictions").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("queries").and_then(Json::as_u64), Some(3));

    // The evicted program (`a`, the least recently used) recompiles.
    let again = client.request(
        "{\"v\": 1, \"kind\": \"run\", \"program\": \"a(x) = x\", \"call\": \"a\", \"args\": [\"d1\"]}",
    );
    assert_eq!(
        again
            .get("cache")
            .and_then(|c| c.get("hit"))
            .and_then(Json::as_bool),
        Some(false)
    );

    handle.shutdown();
}

#[test]
fn reuse_after_error_leaves_the_pooled_evaluator_byte_identical_to_fresh() {
    let _g = serialized();
    let handle = spawn(ServeConfig::default());

    // One program with a failing and a healthy entry point, so both runs
    // exercise the same cached evaluator.
    const PROGRAM: &str =
        "boom(S) = choose(S)\\ncollect(S) = set-reduce(S, lambda(x, e) x, lambda(y, acc) insert(y, acc), emptyset, emptyset)";
    let run = |client: &mut Client, tenant: &str, call: &str, arg: &str| -> Json {
        client.request(&format!(
            "{{\"v\": 1, \"kind\": \"run\", \"tenant\": \"{tenant}\", \"program\": \"{PROGRAM}\", \
                 \"call\": \"{call}\", \"args\": [\"{arg}\"]}}"
        ))
    };

    let mut client = Client::connect(&handle);
    // A runtime error on the pooled evaluator (choose on the empty set)…
    let failed = run(&mut client, "pooled", "boom", "{}");
    assert_eq!(error_exit(&failed), Some(5), "{failed:?}");

    // …then the same cached evaluator answers the next query with the same
    // bytes a fresh tenant's evaluator produces (result, stats and tiers;
    // the cache counters legitimately differ).
    let reused = run(&mut client, "pooled", "collect", "{d1, d2, d3}");
    let fresh = run(&mut client, "fresh", "collect", "{d1, d2, d3}");
    for field in ["result", "stats", "tiers"] {
        assert_eq!(
            reused.get(field),
            fresh.get(field),
            "`{field}` drifted after the error"
        );
    }

    handle.shutdown();
}

#[test]
fn shed_past_max_inflight_with_bind_and_stats_still_served() {
    let _g = serialized();
    // One admission slot, several session threads: while tenant A evaluates
    // (held in the shard merge by the fault point for a full second), tenant
    // B's run is deterministically shed but its bind and stats still
    // answer. The tenants differ because a tenant is a shard — same-tenant
    // requests serialize on its mutex by design; the admission gate bounds
    // *cross-tenant* concurrency.
    let handle = spawn(ServeConfig {
        max_inflight: 1,
        session_threads: 3,
        default_config: PipelineConfig::new().threads(4),
        ..ServeConfig::default()
    });
    let tenanted = |line: &str, tenant: &str| {
        line.replacen(
            "\"v\": 1",
            &format!("\"v\": 1, \"tenant\": \"{tenant}\""),
            1,
        )
    };
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);
    let bind = projection_bind_line(sharded_pairs());
    let bound = a.request(&tenanted(&bind, "a"));
    assert_eq!(bound.get("ok").and_then(Json::as_bool), Some(true));
    let bound = b.request(&tenanted(&bind, "b"));
    assert_eq!(bound.get("ok").and_then(Json::as_bool), Some(true));

    faultpoint::arm(faultpoint::MERGE_DELAY, 1000);
    let started = Instant::now();
    a.send(&tenanted(&projection_run_line(), "a"));
    // Give A's request time to be admitted before B knocks.
    std::thread::sleep(Duration::from_millis(300));

    let shed = b.request(&tenanted(&projection_run_line(), "b"));
    assert_eq!(error_kind(&shed), Some("overloaded"), "{shed:?}");
    assert_eq!(error_exit(&shed), Some(9));
    assert!(
        started.elapsed() < Duration::from_millis(950),
        "shedding must not wait for the in-flight query"
    );

    // Constant-time requests bypass admission control.
    let bound = b.request(&tenanted(
        "{\"v\": 1, \"kind\": \"bind\", \"name\": \"T\", \"value\": \"{d1}\"}",
        "b",
    ));
    assert_eq!(bound.get("ok").and_then(Json::as_bool), Some(true));
    let stats = b.request(&tenanted("{\"v\": 1, \"kind\": \"stats\"}", "b"));
    assert_eq!(stats.get("shed").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("inflight").and_then(Json::as_u64), Some(1));

    // A's held query completes normally…
    let slow = a.receive();
    faultpoint::disarm_all();
    assert!(slow.get("result").is_some(), "{slow:?}");
    // …and with the slot free, B's retry is admitted.
    let retry = b.request(&tenanted(&projection_run_line(), "b"));
    assert!(retry.get("result").is_some(), "{retry:?}");

    handle.shutdown();
}

#[test]
fn worker_panic_returns_internal_and_the_pool_keeps_serving() {
    let _g = serialized();
    let handle = spawn(ServeConfig {
        default_config: PipelineConfig::new().threads(4),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&handle);
    let pairs = sharded_pairs();
    client.request(&projection_bind_line(pairs));

    // Shard 1 of the sharded fold panics on entry; the panic output is
    // expected noise, so silence the hook for the faulted request only.
    faultpoint::arm(faultpoint::WORKER_PANIC, 1);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let failed = client.request(&projection_run_line());
    std::panic::set_hook(hook);
    faultpoint::disarm_all();

    assert_eq!(error_kind(&failed), Some("internal"), "{failed:?}");
    assert_eq!(error_exit(&failed), Some(8));

    // The same connection — same tenant, same pooled evaluator, same worker
    // pool — answers the retry.
    let retry = client.request(&projection_run_line());
    assert!(retry.get("result").is_some(), "{retry:?}");
    let stats = retry.get("stats").expect("stats");
    assert_eq!(
        stats.get("reduce_iterations").and_then(Json::as_u64),
        Some(pairs)
    );

    handle.shutdown();
}

#[test]
fn mid_fold_deadline_reports_partial_stats_in_the_error_body() {
    let _g = serialized();
    // The deadline must be armed for the fault to have a budget to report;
    // a single-threaded VM keeps the faulted iteration count exact.
    let handle = spawn(ServeConfig {
        default_config: PipelineConfig::new().deadline_ms(3_600_000),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&handle);
    client.request(&projection_bind_line(1200));

    faultpoint::arm(faultpoint::DEADLINE_MID_FOLD, 100);
    let failed = client.request(&projection_run_line());
    faultpoint::disarm_all();

    assert_eq!(error_kind(&failed), Some("deadline_exceeded"), "{failed:?}");
    assert_eq!(error_exit(&failed), Some(7));
    let partial = failed
        .get("stats")
        .expect("a deadline error carries the partial stats of the interrupted run");
    assert_eq!(
        partial.get("reduce_iterations").and_then(Json::as_u64),
        Some(100),
        "the fold stopped at exactly the faulted iteration"
    );

    // The evaluator is reusable after the simulated deadline.
    let retry = client.request(&projection_run_line());
    assert!(retry.get("result").is_some(), "{retry:?}");

    handle.shutdown();
}

#[test]
fn check_analyze_and_protocol_errors_round_trip() {
    let _g = serialized();
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(&handle);

    let checked = client.request(&format!(
        "{{\"v\": 1, \"kind\": \"check\", \"program\": \"{SINGLETON}\"}}"
    ));
    assert_eq!(checked.get("ok").and_then(Json::as_bool), Some(true));
    assert!(checked.get("fragment").is_some());

    let analyzed = client.request(&format!(
        "{{\"v\": 1, \"kind\": \"analyze\", \"id\": 3, \"program\": \"{SINGLETON}\"}}"
    ));
    assert!(analyzed.get("folds").is_some());
    assert_eq!(analyzed.get("id").and_then(Json::as_u64), Some(3));
    assert!(
        analyzed.get("cache").is_some(),
        "analyze compiles through the cache"
    );

    // Frontend failures carry the parse/check taxonomy and exit codes.
    let bad_parse = client.request("{\"v\": 1, \"kind\": \"check\", \"program\": \"f(x = \"}");
    assert_eq!(error_kind(&bad_parse), Some("parse"));
    assert_eq!(error_exit(&bad_parse), Some(3));
    let bad_check = client.request("{\"v\": 1, \"kind\": \"check\", \"program\": \"f(x) = f(x)\"}");
    assert_eq!(error_kind(&bad_check), Some("check"));
    assert_eq!(error_exit(&bad_check), Some(4));

    // Protocol errors answer (kind proto, wire code 2) and keep the
    // connection open.
    for bad in [
        "this is not json",
        "{\"kind\": \"run\"}",
        "{\"v\": 2, \"kind\": \"run\"}",
        "{\"v\": 1, \"kind\": \"destroy\"}",
        "{\"v\": 1, \"kind\": \"run\", \"porgram\": \"x\"}",
        "{\"v\": 1, \"kind\": \"run\"}",
        "{\"v\": 1, \"kind\": \"run\", \"expr\": \"d1\", \"call\": \"f\"}",
        "{\"v\": 1, \"kind\": \"bind\", \"name\": \"S\"}",
        "{\"v\": 1, \"kind\": \"bind\", \"name\": \"d9\", \"value\": \"{d1}\"}",
    ] {
        let response = client.request(bad);
        assert_eq!(error_kind(&response), Some("proto"), "{bad}");
        assert_eq!(error_exit(&response), Some(2), "{bad}");
    }
    let alive = client.request(&singleton_run("d1"));
    assert!(alive.get("result").is_some(), "connection survived");

    handle.shutdown();
}

#[test]
fn a_read_timeout_inside_a_multibyte_character_keeps_the_request() {
    let _g = serialized();
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(&handle);

    // The tenant name carries an `é` (0xC3 0xA9); the line is sent in two
    // writes split between those two bytes, with a pause longer than the
    // server's 100 ms read timeout in between.
    let line = singleton_run("d4").replace("\"kind\"", "\"tenant\": \"café\", \"kind\"") + "\n";
    let bytes = line.as_bytes();
    let split = line.find('é').expect("the line has an é") + 1;
    client
        .writer
        .write_all(&bytes[..split])
        .expect("first half");
    client.writer.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(250));
    client
        .writer
        .write_all(&bytes[split..])
        .expect("second half");
    client.writer.flush().expect("flush");
    let response = client.receive();
    assert_eq!(response.get("result").and_then(Json::as_str), Some("{d4}"));

    // Bytes that are not UTF-8 at all get a structured protocol error, and
    // the connection keeps serving.
    client
        .writer
        .write_all(b"{\"v\": 1, \xff}\n")
        .expect("send");
    let response = client.receive();
    assert_eq!(error_kind(&response), Some("proto"));
    assert_eq!(error_exit(&response), Some(2));
    let alive = client.request(&singleton_run("d1"));
    assert_eq!(alive.get("result").and_then(Json::as_str), Some("{d1}"));

    handle.shutdown();
}

#[test]
fn an_over_long_request_line_is_refused_and_the_connection_keeps_serving() {
    let _g = serialized();
    let handle = spawn(ServeConfig::default());
    let mut client = Client::connect(&handle);

    // One line past the limit gets exactly one protocol error; the rest of
    // it is discarded up to its newline, and the next request on the same
    // connection gets a normal answer.
    client.send(&"x".repeat(srl_serve::MAX_REQUEST_BYTES + 100));
    let response = client.receive();
    assert_eq!(error_kind(&response), Some("proto"));
    assert_eq!(error_exit(&response), Some(2));
    let alive = client.request(&singleton_run("d2"));
    assert_eq!(alive.get("result").and_then(Json::as_str), Some("{d2}"));

    handle.shutdown();
}

#[test]
fn tenant_config_document_applies_per_tenant_limits() {
    let _g = serialized();
    let config = ServeConfig::default()
        .with_tenant_document(
            "{\"default\": {\"limits\": \"default\"}, \
              \"tenants\": {\"tiny\": {\"limits\": \"small\", \"max_steps\": 5}}}",
        )
        .expect("valid tenant document");
    let handle = spawn(config);
    let mut client = Client::connect(&handle);

    // The pre-configured tenant runs under its tiny step budget…
    let limited = client.request(
        "{\"v\": 1, \"kind\": \"run\", \"tenant\": \"tiny\", \"program\": \
         \"collect(S) = set-reduce(S, lambda(x, e) x, lambda(y, acc) insert(y, acc), emptyset, emptyset)\", \
         \"call\": \"collect\", \"args\": [\"{d1, d2, d3, d4, d5, d6, d7, d8}\"]}",
    );
    assert_eq!(error_exit(&limited), Some(6), "{limited:?}");

    // …while an unnamed tenant gets the default template.
    let free = client.request(&singleton_run("d1"));
    assert!(free.get("result").is_some());

    // Bad documents are rejected with the offending field named.
    for bad in [
        "{\"wat\": 1}",
        "{\"tenants\": []}",
        "{\"tenants\": {\"x\": {\"limits\": \"huge\"}}}",
        "not json",
    ] {
        assert!(
            ServeConfig::default().with_tenant_document(bad).is_err(),
            "{bad}"
        );
    }

    handle.shutdown();
}
