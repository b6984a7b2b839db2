//! The TCP line-protocol server.
//!
//! One JSON request per line, one JSON response per line (bodies are the
//! `srl_core::api` renderings passed through [`api::compact`], so a server
//! response is the byte-compacted form of exactly what `srl run --json`
//! prints locally — plus trailing `cache`/`id` fields). Connections are
//! handled by a fixed pool of session-accepting threads; per-query
//! parallelism comes from each tenant's evaluator worker pool, multiplexed
//! over `srl-core::parallel`.
//!
//! ## Admission control and shedding
//!
//! Evaluating requests (`run`/`check`/`analyze`) pass an in-flight gate: if
//! `max_inflight` such queries are already executing, the request is
//! **shed** with a structured `overloaded` error (wire exit code 9, a code
//! disjoint from every local failure family) and the connection stays open
//! — the client decides whether to back off or retry. `bind` and `stats`
//! are constant-time and are always served, so an operator can inspect a
//! saturated server. The second admission lever is per-tenant: the tenant
//! config's `deadline_ms` arms a wall-clock deadline that the evaluator
//! polls every few thousand steps, so one tenant's runaway query returns
//! `deadline_exceeded` (with the partial stats of the interrupted run)
//! instead of holding a session thread forever.
//!
//! ## Fault isolation
//!
//! A panicking shard worker inside the engine is already isolated at the
//! pool (`EvalError::Internal`); a panic anywhere in the serving layer is
//! additionally caught per connection, so a poisoned request kills one
//! session, never the acceptor loop.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use srl_core::api::{self, Json, Request, RequestKind};
use srl_core::pipeline::{PipelineConfig, Source};
use srl_core::setrepr::with_atom_tier;
use srl_core::{EvalStats, Expr, Value};
use srl_syntax::frontend::{FrontendError, TextFrontend};

use crate::tenant::Tenant;

/// The tenant used when a request names none.
pub const DEFAULT_TENANT: &str = "default";

/// The longest request line the server reads, in bytes before the newline.
/// Real requests are a few KB (a program text and its arguments); the bound
/// only stops a client that never sends a newline from growing server
/// memory without limit. A longer line is answered with one `proto` error
/// and discarded up to its newline, and the connection keeps serving.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// How the server is configured: the socket, the admission bounds, and the
/// per-tenant pipeline configurations.
#[derive(Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:7878` by default; port `0` picks one).
    pub addr: String,
    /// Maximum concurrently evaluating `run`/`check`/`analyze` queries.
    pub max_inflight: usize,
    /// Compiled-program cache capacity per tenant.
    pub cache_cap: usize,
    /// Number of session-accepting threads (= concurrent connections).
    pub session_threads: usize,
    /// Configuration for tenants not named in `tenants` (they are created
    /// on first use from this template).
    pub default_config: PipelineConfig,
    /// Pre-configured named tenants.
    pub tenants: Vec<(String, PipelineConfig)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            max_inflight: 64,
            cache_cap: 128,
            session_threads: 4,
            default_config: PipelineConfig::default(),
            tenants: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// Applies a tenant-configuration document:
    ///
    /// ```json
    /// { "default": { "limits": "small" },
    ///   "tenants": { "alice": { "threads": 2, "deadline_ms": 250 } } }
    /// ```
    ///
    /// `default` re-templates unnamed tenants; each entry under `tenants`
    /// pre-creates a named tenant. Unknown top-level fields are rejected.
    pub fn with_tenant_document(mut self, text: &str) -> Result<Self, String> {
        let json = Json::parse(text)?;
        let Some(fields) = json.as_object() else {
            return Err("a tenant-config document is a JSON object".to_string());
        };
        for (key, value) in fields {
            match key.as_str() {
                "default" => self.default_config = api::pipeline_config_from_json(value)?,
                "tenants" => {
                    let Some(tenants) = value.as_object() else {
                        return Err("\"tenants\" must be an object".to_string());
                    };
                    for (name, config) in tenants {
                        let config = api::pipeline_config_from_json(config)
                            .map_err(|e| format!("tenant \"{name}\": {e}"))?;
                        self.tenants.push((name.clone(), config));
                    }
                }
                other => return Err(format!("unknown tenant-config field \"{other}\"")),
            }
        }
        Ok(self)
    }
}

/// Shared server state: the tenant map and the admission gate.
struct Ctx {
    default_config: PipelineConfig,
    cache_cap: usize,
    max_inflight: usize,
    inflight: AtomicUsize,
    tenants: Mutex<HashMap<String, Arc<Mutex<Tenant>>>>,
}

impl Ctx {
    /// The tenant for `name`, created from the default template on first
    /// use. The map lock is held only for the lookup; queries then lock the
    /// individual tenant (its shard).
    fn tenant(&self, name: &str) -> Arc<Mutex<Tenant>> {
        let mut map = self.tenants.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| {
            Arc::new(Mutex::new(Tenant::new(
                name,
                self.default_config.clone(),
                self.cache_cap,
            )))
        }))
    }

    /// Tries to admit one evaluating query; `None` means shed.
    fn admit(&self) -> Option<AdmitGuard<'_>> {
        self.inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.max_inflight).then_some(n + 1)
            })
            .ok()
            .map(|_| AdmitGuard { ctx: self })
    }
}

/// Holds one admission slot; releases it on drop (including on panic, so a
/// caught connection panic cannot leak the server into permanent overload).
struct AdmitGuard<'a> {
    ctx: &'a Ctx,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.ctx.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A bound, not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    session_threads: usize,
    ctx: Arc<Ctx>,
}

/// A running server: the bound address and a shutdown handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (with the real port when the
    /// config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks every session thread to stop and joins them. In-progress
    /// queries finish; idle sessions notice within their poll interval.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Release);
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

impl Server {
    /// Binds the configured address and pre-creates the named tenants.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let ctx = Arc::new(Ctx {
            default_config: config.default_config.clone(),
            cache_cap: config.cache_cap,
            max_inflight: config.max_inflight.max(1),
            inflight: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
        });
        {
            let mut map = ctx.tenants.lock().expect("new mutex");
            for (name, tenant_config) in &config.tenants {
                map.insert(
                    name.clone(),
                    Arc::new(Mutex::new(Tenant::new(
                        name,
                        tenant_config.clone(),
                        config.cache_cap,
                    ))),
                );
            }
        }
        Ok(Server {
            listener,
            session_threads: config.session_threads.max(1),
            ctx,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the session-accepting thread pool and returns immediately.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(self.session_threads);
        for i in 0..self.session_threads {
            let listener = self.listener.try_clone()?;
            let ctx = Arc::clone(&self.ctx);
            let shutdown = Arc::clone(&shutdown);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("srl-serve-session-{i}"))
                    .spawn(move || accept_loop(&listener, &ctx, &shutdown))
                    .expect("spawning a session thread"),
            );
        }
        Ok(ServerHandle {
            addr,
            shutdown,
            workers,
        })
    }

    /// Serves until the process ends (the CLI `srl serve` entry point).
    pub fn run(self) -> std::io::Result<()> {
        let handle = self.spawn()?;
        for worker in handle.workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// One session thread: accept a connection, serve it to close, repeat.
fn accept_loop(listener: &TcpListener, ctx: &Ctx, shutdown: &AtomicBool) {
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // A panic in the serving layer kills this session only; the
                // loop (and the engine's own worker pools) keep serving.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_connection(stream, ctx, shutdown)
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Serves one connection: one JSON request per line, one response per line.
/// Protocol errors (an over-long line is one, see [`MAX_REQUEST_BYTES`])
/// answer and keep the connection; I/O errors close it.
fn serve_connection(stream: TcpStream, ctx: &Ctx, shutdown: &AtomicBool) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    // A finite read timeout keeps shutdown responsive while a client idles;
    // no Nagle — a response is one small write and must not wait out a
    // delayed ACK.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Raw bytes, decoded once per complete line: a read timeout can land
    // inside a multi-byte character, and the bytes read before it must
    // survive to the next read (`read_line` into a `String` would drop
    // them and fail the connection on the remainder).
    let mut line: Vec<u8> = Vec::new();
    // Set once an over-long line has been answered: its remaining bytes are
    // dropped up to the next newline.
    let mut discarding = false;
    loop {
        // At most one byte past the limit, so an over-long line shows as a
        // line longer than the limit with no newline.
        let room = (MAX_REQUEST_BYTES + 1).saturating_sub(line.len()) as u64;
        let body = match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(_) if line.ends_with(b"\n") => {
                let body = if std::mem::take(&mut discarding) {
                    // The tail of an over-long line, answered already.
                    None
                } else {
                    match std::str::from_utf8(&line).map(str::trim) {
                        Ok("") => None,
                        Ok(text) => Some(handle_line(ctx, text)),
                        Err(_) => Some(proto_error("request line is not valid UTF-8", &[])),
                    }
                };
                line.clear();
                body
            }
            Ok(_) if line.len() > MAX_REQUEST_BYTES => {
                line.clear();
                if discarding {
                    None
                } else {
                    discarding = true;
                    let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                    Some(proto_error(&message, &[]))
                }
            }
            // EOF, or EOF in the middle of an unterminated request line
            // (a timeout returns an error, never a short `Ok`).
            Ok(_) => return,
            // Timed out, possibly mid-line: the bytes read so far stay in
            // `line` and the next read continues it.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                None
            }
            Err(_) => return,
        };
        if let Some(mut body) = body {
            // One write per response: body and newline in a single segment
            // (two small writes would re-trigger Nagle).
            body.push('\n');
            let ok = writer
                .write_all(body.as_bytes())
                .and_then(|()| writer.flush());
            if ok.is_err() {
                return;
            }
        }
    }
}

/// The trailing extras every response carries: the echoed request id.
fn id_extras(request: &Request) -> Vec<(&'static str, String)> {
    match request.id {
        Some(id) => vec![("id", id.to_string())],
        None => Vec::new(),
    }
}

/// A compacted protocol-error body (`kind: "proto"`, wire code 2).
fn proto_error(message: &str, extras: &[(&str, String)]) -> String {
    api::compact(&api::error_json(
        "proto",
        message,
        api::EXIT_USAGE,
        None,
        extras,
    ))
}

/// Dispatches one request line to a compacted one-line response body.
fn handle_line(ctx: &Ctx, line: &str) -> String {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(e) => return proto_error(&e, &[]),
    };
    let extras = id_extras(&request);
    let kind = request.kind.expect("Request::parse requires a kind");
    let tenant = ctx.tenant(request.tenant.as_deref().unwrap_or(DEFAULT_TENANT));
    match kind {
        // Constant-time requests are served even under overload.
        RequestKind::Bind => bind(&mut lock_tenant(&tenant), &request, &extras),
        RequestKind::Stats => stats(ctx, &lock_tenant(&tenant), &extras),
        RequestKind::Run | RequestKind::Check | RequestKind::Analyze => {
            let Some(_slot) = ctx.admit() else {
                let mut t = lock_tenant(&tenant);
                t.stats.shed += 1;
                return api::compact(&api::error_json(
                    "overloaded",
                    "in-flight query bound reached; retry later",
                    api::EXIT_OVERLOADED,
                    None,
                    &extras,
                ));
            };
            let mut t = lock_tenant(&tenant);
            t.stats.queries += 1;
            // The columnar-tier toggle is thread-local state; apply the
            // tenant's setting around this query only, restoring the
            // session thread for whichever tenant it serves next — also
            // when the query panics and `accept_loop` keeps the thread.
            with_atom_tier(t.config.tiers, || match kind {
                RequestKind::Run => run(&mut t, &request, &extras),
                RequestKind::Check => check(&mut t, &request, &extras),
                RequestKind::Analyze => analyze(&mut t, &request, &extras),
                _ => unreachable!("bind/stats handled above"),
            })
        }
    }
}

fn lock_tenant(tenant: &Arc<Mutex<Tenant>>) -> MutexGuard<'_, Tenant> {
    // A tenant mutex can only be poisoned by a panic inside the engine,
    // which rolls evaluator state back before unwinding; the tenant data is
    // still coherent, so serving beats refusing the tenant forever.
    tenant.lock().unwrap_or_else(|p| p.into_inner())
}

/// Renders a frontend (parse/check) failure.
fn frontend_error(t: &mut Tenant, e: &FrontendError, extras: &[(&str, String)]) -> String {
    t.stats.errors += 1;
    let (exit, kind) = match e {
        FrontendError::Parse(_) => (api::EXIT_PARSE, "parse"),
        FrontendError::Check(_) => (api::EXIT_CHECK, "check"),
    };
    api::compact(&api::error_json(kind, &e.to_string(), exit, None, extras))
}

/// Renders an evaluation failure with the partial stats of the interrupted
/// run, when the evaluator kept a snapshot.
fn eval_error(
    t: &mut Tenant,
    e: &srl_core::EvalError,
    partial: Option<EvalStats>,
    extras: &[(&str, String)],
) -> String {
    t.stats.errors += 1;
    api::compact(&api::error_json(
        e.kind(),
        &e.to_string(),
        api::exit_code(e),
        partial.as_ref(),
        extras,
    ))
}

/// Parses the value-literal arguments of a `run` request.
fn parse_args(args: &[String]) -> Result<Vec<Value>, String> {
    let mut values = Vec::with_capacity(args.len());
    for (i, literal) in args.iter().enumerate() {
        match srl_syntax::parse_value(literal) {
            Ok(v) => values.push(v),
            Err(e) => return Err(format!("args[{i}]: {e}")),
        }
    }
    Ok(values)
}

/// `run`: compile `program` through the tenant cache (or use the resident
/// empty artifact for a bare `expr`), then call a definition or evaluate an
/// expression against the tenant environment.
fn run(t: &mut Tenant, request: &Request, extras: &[(&str, String)]) -> String {
    if request.call.is_some() && request.expr.is_some() {
        return proto_error("\"call\" and \"expr\" are mutually exclusive", extras);
    }
    let expr = match &request.expr {
        Some(text) => match srl_syntax::parse_expr(text) {
            Ok(expr) => Some(expr),
            Err(e) => {
                t.stats.errors += 1;
                return api::compact(&api::error_json(
                    "parse",
                    &format!("expr: {e}"),
                    api::EXIT_PARSE,
                    None,
                    extras,
                ));
            }
        },
        None => None,
    };
    let args = match parse_args(&request.args) {
        Ok(values) => values,
        Err(message) => {
            t.stats.errors += 1;
            return api::compact(&api::error_json(
                "parse",
                &message,
                api::EXIT_PARSE,
                None,
                extras,
            ));
        }
    };
    match &request.program {
        Some(text) => {
            let pipeline = t.config.pipeline();
            let (fingerprint, hit) = match t.cache.lookup_or_compile(&pipeline, text) {
                Ok(resolved) => resolved,
                Err(e) => return frontend_error(t, &e, extras),
            };
            let mut full_extras = vec![(
                "cache",
                format!(
                    "{{ \"hit\": {hit}, \"hits\": {}, \"misses\": {}, \"evictions\": {} }}",
                    t.cache.hits, t.cache.misses, t.cache.evictions
                ),
            )];
            full_extras.extend(extras.iter().map(|(n, v)| (*n, v.clone())));
            let env = t.env.clone();
            let entry = t.cache.entry_mut(fingerprint);
            let outcome = match &expr {
                Some(expr) => {
                    entry.evaluator.reset_stats();
                    entry.evaluator.eval(expr, &env)
                }
                None => {
                    let name = match &request.call {
                        Some(name) => name.clone(),
                        None => {
                            let main_def = entry
                                .artifact
                                .program()
                                .lookup("main")
                                .filter(|def| def.params.is_empty());
                            match main_def {
                                Some(def) => def.name.clone(),
                                None => {
                                    return proto_error(
                                        "no \"call\" given and the program has no zero-parameter `main`",
                                        &full_extras,
                                    )
                                }
                            }
                        }
                    };
                    entry.evaluator.reset_stats();
                    entry.evaluator.call(&name, &args)
                }
            };
            match outcome {
                Ok(value) => {
                    let stats = *entry.evaluator.stats();
                    let tiers = entry.evaluator.tier_engagement_breakdown();
                    api::compact(&api::run_json(&value, &stats, &tiers, &full_extras))
                }
                Err(e) => {
                    let partial = entry.evaluator.last_error_stats().copied();
                    eval_error(t, &e, partial, &full_extras)
                }
            }
        }
        None => {
            // Bare expression over the tenant environment.
            let Some(expr) = expr else {
                return proto_error("\"run\" needs \"program\", \"expr\", or both", extras);
            };
            if !args.is_empty() {
                return proto_error("\"args\" requires \"program\" and \"call\"", extras);
            }
            run_bare_expr(t, &expr, extras)
        }
    }
}

/// Evaluates a bare expression with the tenant's resident evaluator.
fn run_bare_expr(t: &mut Tenant, expr: &Expr, extras: &[(&str, String)]) -> String {
    let env = t.env.clone();
    let evaluator = t.expr_evaluator();
    match evaluator.eval(expr, &env) {
        Ok(value) => {
            let stats = *evaluator.stats();
            let tiers = evaluator.tier_engagement_breakdown();
            api::compact(&api::run_json(&value, &stats, &tiers, extras))
        }
        Err(e) => {
            let partial = evaluator.last_error_stats().copied();
            eval_error(t, &e, partial, extras)
        }
    }
}

/// `check`: parse, validate and classify; no cache involvement (nothing is
/// compiled, so there is nothing worth keeping resident).
fn check(t: &mut Tenant, request: &Request, extras: &[(&str, String)]) -> String {
    let Some(text) = &request.program else {
        return proto_error("\"check\" needs \"program\"", extras);
    };
    let source = Source::new("<request>", text.clone());
    match t.config.pipeline().check_source(&source) {
        Ok(checked) => {
            let program = checked.program();
            let verdict = srl_analysis::classify_program(program, 1);
            api::compact(&api::check_json(
                &program.def_names(),
                &verdict.fragment.to_string(),
                &verdict.explanation,
                extras,
            ))
        }
        Err(e) => frontend_error(t, &e, extras),
    }
}

/// `analyze`: the per-fold classification report, compiled through the
/// tenant cache (an analyze of a hot program is free).
fn analyze(t: &mut Tenant, request: &Request, extras: &[(&str, String)]) -> String {
    let Some(text) = &request.program else {
        return proto_error("\"analyze\" needs \"program\"", extras);
    };
    let pipeline = t.config.pipeline();
    let (fingerprint, hit) = match t.cache.lookup_or_compile(&pipeline, text) {
        Ok(resolved) => resolved,
        Err(e) => return frontend_error(t, &e, extras),
    };
    let mut full_extras = vec![(
        "cache",
        format!(
            "{{ \"hit\": {hit}, \"hits\": {}, \"misses\": {}, \"evictions\": {} }}",
            t.cache.hits, t.cache.misses, t.cache.evictions
        ),
    )];
    full_extras.extend(extras.iter().map(|(n, v)| (*n, v.clone())));
    let entry = t.cache.entry_mut(fingerprint);
    let verdict = srl_analysis::classify_program(entry.artifact.program(), 1);
    let report = srl_analysis::analyze_compiled(entry.artifact.compiled());
    api::compact(&srl_analysis::analyze_json_with(
        &verdict,
        &report,
        &full_extras,
    ))
}

/// `bind`: adds an input binding to the tenant environment. Served even
/// under overload (constant-time, no evaluation).
fn bind(t: &mut Tenant, request: &Request, extras: &[(&str, String)]) -> String {
    let (Some(name), Some(literal)) = (&request.name, &request.value) else {
        return proto_error("\"bind\" needs \"name\" and \"value\"", extras);
    };
    // The name must be readable back as a variable (same rule as the REPL):
    // a keyword or atom-shaped word would bind but never resolve.
    if !matches!(
        srl_syntax::parse_expr(name),
        Ok(srl_core::Expr::Var(v)) if v == *name
    ) {
        return proto_error(
            &format!("`{name}` cannot be used as an input name (not a plain variable)"),
            extras,
        );
    }
    match srl_syntax::parse_value(literal) {
        Ok(value) => {
            let rendered = value.to_string();
            t.env.insert(name, value);
            let mut fields = vec![
                ("ok", "true".to_string()),
                ("name", format!("\"{}\"", api::escape(name))),
                ("value", format!("\"{}\"", api::escape(&rendered))),
            ];
            fields.extend(extras.iter().map(|(n, v)| (*n, v.clone())));
            api::compact(&api::versioned(&fields))
        }
        Err(e) => {
            t.stats.errors += 1;
            api::compact(&api::error_json(
                "parse",
                &format!("value: {e}"),
                api::EXIT_PARSE,
                None,
                extras,
            ))
        }
    }
}

/// `stats`: tenant counters and cache occupancy. Served even under
/// overload so a saturated server stays observable.
fn stats(ctx: &Ctx, t: &Tenant, extras: &[(&str, String)]) -> String {
    let mut fields = vec![
        ("tenant", format!("\"{}\"", api::escape(&t.name))),
        ("queries", t.stats.queries.to_string()),
        ("errors", t.stats.errors.to_string()),
        ("shed", t.stats.shed.to_string()),
        ("bindings", t.env.len().to_string()),
        (
            "cache",
            format!(
                "{{ \"entries\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {} }}",
                t.cache.len(),
                t.cache.hits,
                t.cache.misses,
                t.cache.evictions
            ),
        ),
        ("inflight", ctx.inflight.load(Ordering::Acquire).to_string()),
        ("max_inflight", ctx.max_inflight.to_string()),
    ];
    fields.extend(extras.iter().map(|(n, v)| (*n, v.clone())));
    api::compact(&api::versioned(&fields))
}
