//! In-process replay of request lines through the same public calls
//! `srl-serve` makes for each request (`server.rs`'s `handle_line`), with
//! an optional span around every call into a layer.
//!
//! The engine carries no spans of its own, so the traced replay measures
//! each layer from outside, by timing the public function that enters it:
//!
//! | layer      | calls timed                                                  |
//! |------------|--------------------------------------------------------------|
//! | `api`      | `Request::parse` (decode); `run_json`/`check_json`/… + `compact` (render) |
//! | `syntax`   | `parse_program`, `parse_value`, `parse_expr`                 |
//! | `pipeline` | `Pipeline::check`                                            |
//! | `lower`    | `Pipeline::compile`, `Evaluator::lower`                      |
//! | `bytecode` | `CompiledProgram::code`, `LoweredExpr::code` (first use)     |
//! | `cache`    | `ProgramCache::lookup_or_compile`, minus the front end on misses |
//! | `analysis` | `classify_program`, `analyze_compiled`                       |
//! | `eval`     | `Evaluator::call`, `Evaluator::eval_lowered`                 |
//!
//! A cache miss compiles inside `lookup_or_compile`, out of reach of an
//! outside timer. The traced replay therefore re-runs the front end of each
//! miss on the same text right after it (the *shadow* compile), books those
//! spans to `syntax`/`pipeline`/`lower`, and books the rest of the lookup to
//! `cache`. Shadow time is kept apart and left out of the traced wall time.
//! The first `code()` of a freshly compiled program is called explicitly
//! before evaluation, so codegen is booked to `bytecode` rather than `eval`;
//! the total work is the same as on the served path, where it happens lazily.
//!
//! An untraced replay makes exactly the same calls without reading a clock.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use srl_core::api::{self, Json, Request, RequestKind};
use srl_core::eval::{Evaluator, TierEngagements};
use srl_core::pipeline::{Pipeline, PipelineConfig};
use srl_core::setrepr::set_atom_tier_enabled;
use srl_core::{EvalError, EvalStats, LoweredExpr, Value};
use srl_serve::{ProgramCache, Tenant, DEFAULT_TENANT};

/// The layers a span can be booked to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Decode,
    Render,
    ParseProgram,
    ParseValue,
    ParseExpr,
    Check,
    Compile,
    LowerExpr,
    Codegen,
    CacheLookup,
    Classify,
    Analyze,
    Eval,
}

impl Layer {
    pub const ALL: [Layer; 13] = [
        Layer::Decode,
        Layer::Render,
        Layer::ParseProgram,
        Layer::ParseValue,
        Layer::ParseExpr,
        Layer::Check,
        Layer::Compile,
        Layer::LowerExpr,
        Layer::Codegen,
        Layer::CacheLookup,
        Layer::Classify,
        Layer::Analyze,
        Layer::Eval,
    ];

    /// The per-layer metric reporting this layer's mean busy time per
    /// request.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Decode => "api.decode_us",
            Layer::Render => "api.render_us",
            Layer::ParseProgram => "syntax.parse_program_us",
            Layer::ParseValue => "syntax.parse_value_us",
            Layer::ParseExpr => "syntax.parse_expr_us",
            Layer::Check => "pipeline.check_us",
            Layer::Compile => "lower.compile_us",
            Layer::LowerExpr => "lower.expr_us",
            Layer::Codegen => "bytecode.codegen_us",
            Layer::CacheLookup => "cache.lookup_us",
            Layer::Classify => "analysis.classify_us",
            Layer::Analyze => "analysis.analyze_us",
            Layer::Eval => "eval.us",
        }
    }
}

/// Counts read from the evaluator after each evaluation.
#[derive(Clone, Copy, Default, Debug)]
pub struct EvalCounts {
    pub evaluations: u64,
    pub steps: u64,
    pub reduce_iterations: u64,
    pub max_accumulator_weight: usize,
    pub sharded_folds: u64,
    pub tiers: TierEngagements,
}

impl EvalCounts {
    pub fn record(&mut self, stats: &EvalStats, evaluator: &Evaluator) {
        self.evaluations += 1;
        self.steps += stats.steps;
        self.reduce_iterations += stats.reduce_iterations;
        self.max_accumulator_weight = self
            .max_accumulator_weight
            .max(stats.max_accumulator_weight);
        self.sharded_folds += evaluator.parallel_folds();
        self.tiers += evaluator.tier_engagement_breakdown();
    }
}

/// The spans and counts of a traced replay.
#[derive(Default)]
pub struct Trace {
    /// Busy time per layer, summed over requests.
    pub busy: [Duration; Layer::ALL.len()],
    /// Per request: the sum of its spans.
    pub request_totals: Vec<Duration>,
    pub counts: EvalCounts,
    /// Time spent in shadow compiles (not part of any request).
    pub shadow: Duration,
    current: Duration,
}

impl Trace {
    pub fn add(&mut self, layer: Layer, d: Duration) {
        self.busy[layer as usize] += d;
        self.current += d;
    }

    /// Closes the current request.
    pub fn end_request(&mut self) {
        self.request_totals.push(std::mem::take(&mut self.current));
    }

    pub fn requests(&self) -> usize {
        self.request_totals.len()
    }

    /// Mean busy time of `layer` per request, in microseconds.
    pub fn mean_us(&self, layer: Layer) -> f64 {
        self.busy[layer as usize].as_secs_f64() * 1e6 / self.requests().max(1) as f64
    }
}

/// Runs `f`, booking its duration to `layer` when tracing.
fn span<T>(trace: &mut Option<Trace>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match trace {
        None => f(),
        Some(trace) => {
            let start = Instant::now();
            let out = f();
            trace.add(layer, start.elapsed());
            out
        }
    }
}

/// Per-tenant serving state, driven in process.
pub struct Replayer {
    config: PipelineConfig,
    cache_cap: usize,
    tenants: HashMap<String, Tenant>,
    /// `Some` while spans are being recorded.
    pub trace: Option<Trace>,
    /// The cache fingerprint the last `run`/`analyze` resolved to.
    pub last_fingerprint: Option<u64>,
}

impl Replayer {
    pub fn new(config: PipelineConfig, cache_cap: usize) -> Self {
        Replayer {
            config,
            cache_cap,
            tenants: HashMap::new(),
            trace: None,
            last_fingerprint: None,
        }
    }

    pub fn tenant(&mut self, name: &str) -> &mut Tenant {
        let (config, cap) = (&self.config, self.cache_cap);
        self.tenants
            .entry(name.to_string())
            .or_insert_with(|| Tenant::new(name, config.clone(), cap))
    }

    /// Summed cache counters over all tenants: (hits, misses, evictions).
    pub fn cache_counters(&self) -> (u64, u64, u64) {
        self.tenants.values().fold((0, 0, 0), |(h, m, e), t| {
            (h + t.cache.hits, m + t.cache.misses, e + t.cache.evictions)
        })
    }

    /// Handles one request line, returning the compacted response body.
    pub fn handle(&mut self, line: &str) -> String {
        let request = span(&mut self.trace, Layer::Decode, || Request::parse(line));
        let body = match request {
            Err(e) => error_body("proto", &e, api::EXIT_USAGE, &[]),
            Ok(request) => {
                let name = request
                    .tenant
                    .as_deref()
                    .unwrap_or(DEFAULT_TENANT)
                    .to_string();
                self.tenant(&name);
                let Replayer {
                    tenants,
                    trace,
                    last_fingerprint,
                    ..
                } = self;
                let t = tenants.get_mut(&name).expect("tenant created above");
                match request.kind.expect("Request::parse requires a kind") {
                    RequestKind::Bind => bind(t, &request, trace),
                    RequestKind::Stats => error_body("proto", "not replayed", api::EXIT_USAGE, &[]),
                    kind => {
                        let previous = set_atom_tier_enabled(t.config.tiers);
                        let body = match kind {
                            RequestKind::Run => run(t, &request, trace, last_fingerprint),
                            RequestKind::Check => check(t, &request, trace),
                            _ => analyze(t, &request, trace, last_fingerprint),
                        };
                        set_atom_tier_enabled(previous);
                        body
                    }
                }
            }
        };
        if let Some(trace) = self.trace.as_mut() {
            trace.end_request();
        }
        body
    }
}

fn error_body(kind: &str, message: &str, exit: u8, extras: &[(&str, String)]) -> String {
    api::compact(&api::error_json(kind, message, exit, None, extras))
}

fn eval_error(e: &EvalError, extras: &[(&str, String)]) -> String {
    error_body(e.kind(), &e.to_string(), api::exit_code(e), extras)
}

/// `ProgramCache::lookup_or_compile`, with the front end of a miss split
/// out by a shadow compile and the first codegen made explicit.
fn lookup(
    t: &mut Tenant,
    pipeline: &Pipeline,
    text: &str,
    trace: &mut Option<Trace>,
) -> Result<(u64, bool), String> {
    let Some(tr) = trace.as_mut() else {
        return t
            .cache
            .lookup_or_compile(pipeline, text)
            .map_err(|e| e.to_string());
    };
    let start = Instant::now();
    let resolved = t.cache.lookup_or_compile(pipeline, text);
    let total = start.elapsed();
    let (fingerprint, hit) = resolved.map_err(|e| e.to_string())?;
    tr.current += total;
    if hit {
        tr.busy[Layer::CacheLookup as usize] += total;
        return Ok((fingerprint, hit));
    }
    let shadow = Instant::now();
    let (parse, check, compile) = shadow_compile(pipeline, text);
    tr.shadow += shadow.elapsed();
    tr.busy[Layer::ParseProgram as usize] += parse;
    tr.busy[Layer::Check as usize] += check;
    tr.busy[Layer::Compile as usize] += compile;
    tr.busy[Layer::CacheLookup as usize] += total.saturating_sub(parse + check + compile);
    span(trace, Layer::Codegen, || {
        t.cache.entry_mut(fingerprint).artifact.compiled().code();
    });
    Ok((fingerprint, hit))
}

/// Re-runs the front end the cache ran on a miss, timing each stage.
fn shadow_compile(pipeline: &Pipeline, text: &str) -> (Duration, Duration, Duration) {
    let start = Instant::now();
    let program = srl_syntax::parse_program(text).expect("the cache compiled this text");
    let parsed = Instant::now();
    let checked = pipeline
        .check(program)
        .expect("the cache checked this text");
    let checked_at = Instant::now();
    let compiled = pipeline.compile(checked);
    let done = Instant::now();
    drop(compiled);
    (parsed - start, checked_at - parsed, done - checked_at)
}

fn cache_extras(cache: &ProgramCache, hit: bool) -> Vec<(&'static str, String)> {
    vec![(
        "cache",
        format!(
            "{{ \"hit\": {hit}, \"hits\": {}, \"misses\": {}, \"evictions\": {} }}",
            cache.hits, cache.misses, cache.evictions
        ),
    )]
}

/// Evaluates a lowered expression with its chunk generated up front.
fn eval_expr(
    evaluator: &mut Evaluator,
    compiled: &srl_core::CompiledProgram,
    expr: &srl_core::Expr,
    env: &srl_core::Env,
    trace: &mut Option<Trace>,
) -> Result<Value, EvalError> {
    let lowered: LoweredExpr = span(trace, Layer::LowerExpr, || evaluator.lower(expr, env));
    span(trace, Layer::Codegen, || {
        lowered.code(compiled);
    });
    span(trace, Layer::Eval, || evaluator.eval_lowered(&lowered, env))
}

fn finish(
    outcome: Result<Value, EvalError>,
    evaluator: &Evaluator,
    extras: &[(&str, String)],
    trace: &mut Option<Trace>,
) -> String {
    match outcome {
        Ok(value) => {
            let stats = *evaluator.stats();
            let tiers = evaluator.tier_engagement_breakdown();
            if let Some(tr) = trace.as_mut() {
                tr.counts.record(&stats, evaluator);
            }
            span(trace, Layer::Render, || {
                api::compact(&api::run_json(&value, &stats, &tiers, extras))
            })
        }
        Err(e) => eval_error(&e, extras),
    }
}

fn run(
    t: &mut Tenant,
    request: &Request,
    trace: &mut Option<Trace>,
    last_fingerprint: &mut Option<u64>,
) -> String {
    let expr = match &request.expr {
        Some(text) => match span(trace, Layer::ParseExpr, || srl_syntax::parse_expr(text)) {
            Ok(expr) => Some(expr),
            Err(e) => return error_body("parse", &format!("expr: {e}"), api::EXIT_PARSE, &[]),
        },
        None => None,
    };
    let args: Result<Vec<Value>, String> = span(trace, Layer::ParseValue, || {
        request
            .args
            .iter()
            .map(|literal| srl_syntax::parse_value(literal).map_err(|e| e.to_string()))
            .collect()
    });
    let args = match args {
        Ok(args) => args,
        Err(e) => return error_body("parse", &e, api::EXIT_PARSE, &[]),
    };
    let Some(text) = &request.program else {
        let Some(expr) = expr else {
            return error_body("proto", "\"run\" needs \"program\" or \"expr\"", 2, &[]);
        };
        let env = t.env.clone();
        let compiled = std::sync::Arc::clone(t.empty_artifact().compiled());
        let evaluator = t.expr_evaluator();
        let outcome = eval_expr(evaluator, &compiled, &expr, &env, trace);
        return finish(outcome, evaluator, &[], trace);
    };
    let pipeline = t.config.pipeline();
    let (fingerprint, hit) = match lookup(t, &pipeline, text, trace) {
        Ok(resolved) => resolved,
        Err(e) => return error_body("check", &e, api::EXIT_CHECK, &[]),
    };
    *last_fingerprint = Some(fingerprint);
    let extras = span(trace, Layer::Render, || cache_extras(&t.cache, hit));
    let env = t.env.clone();
    let entry = t.cache.entry_mut(fingerprint);
    entry.evaluator.reset_stats();
    let outcome = match &expr {
        Some(expr) => eval_expr(
            &mut entry.evaluator,
            entry.artifact.compiled(),
            expr,
            &env,
            trace,
        ),
        None => {
            let name = request.call.as_deref().unwrap_or("main");
            span(trace, Layer::Eval, || entry.evaluator.call(name, &args))
        }
    };
    finish(outcome, &entry.evaluator, &extras, trace)
}

fn check(t: &mut Tenant, request: &Request, trace: &mut Option<Trace>) -> String {
    let Some(text) = &request.program else {
        return error_body("proto", "\"check\" needs \"program\"", api::EXIT_USAGE, &[]);
    };
    let program = match span(trace, Layer::ParseProgram, || {
        srl_syntax::parse_program(text)
    }) {
        Ok(program) => program,
        Err(e) => return error_body("parse", &e.to_string(), api::EXIT_PARSE, &[]),
    };
    let pipeline = t.config.pipeline();
    let checked = match span(trace, Layer::Check, || pipeline.check(program)) {
        Ok(checked) => checked,
        Err(e) => return error_body("check", &e.to_string(), api::EXIT_CHECK, &[]),
    };
    let program = checked.program();
    let verdict = span(trace, Layer::Classify, || {
        srl_analysis::classify_program(program, 1)
    });
    span(trace, Layer::Render, || {
        api::compact(&api::check_json(
            &program.def_names(),
            &verdict.fragment.to_string(),
            &verdict.explanation,
            &[],
        ))
    })
}

fn analyze(
    t: &mut Tenant,
    request: &Request,
    trace: &mut Option<Trace>,
    last_fingerprint: &mut Option<u64>,
) -> String {
    let Some(text) = &request.program else {
        return error_body(
            "proto",
            "\"analyze\" needs \"program\"",
            api::EXIT_USAGE,
            &[],
        );
    };
    let pipeline = t.config.pipeline();
    let (fingerprint, hit) = match lookup(t, &pipeline, text, trace) {
        Ok(resolved) => resolved,
        Err(e) => return error_body("check", &e, api::EXIT_CHECK, &[]),
    };
    *last_fingerprint = Some(fingerprint);
    let extras = span(trace, Layer::Render, || cache_extras(&t.cache, hit));
    let entry = t.cache.entry_mut(fingerprint);
    let verdict = span(trace, Layer::Classify, || {
        srl_analysis::classify_program(entry.artifact.program(), 1)
    });
    let report = span(trace, Layer::Analyze, || {
        srl_analysis::analyze_compiled(entry.artifact.compiled())
    });
    span(trace, Layer::Render, || {
        api::compact(&srl_analysis::analyze_json_with(&verdict, &report, &extras))
    })
}

fn bind(t: &mut Tenant, request: &Request, trace: &mut Option<Trace>) -> String {
    let (Some(name), Some(literal)) = (&request.name, &request.value) else {
        return error_body("proto", "\"bind\" needs \"name\" and \"value\"", 2, &[]);
    };
    let plain = span(
        trace,
        Layer::ParseExpr,
        || matches!(srl_syntax::parse_expr(name), Ok(srl_core::Expr::Var(v)) if v == *name),
    );
    if !plain {
        return error_body("proto", "not a plain variable", api::EXIT_USAGE, &[]);
    }
    match span(trace, Layer::ParseValue, || {
        srl_syntax::parse_value(literal)
    }) {
        Ok(value) => {
            let rendered = span(trace, Layer::Render, || value.to_string());
            t.env.insert(name, value);
            span(trace, Layer::Render, || {
                api::compact(&api::versioned(&[
                    ("ok", "true".to_string()),
                    ("name", format!("\"{}\"", api::escape(name))),
                    ("value", format!("\"{}\"", api::escape(&rendered))),
                ]))
            })
        }
        Err(e) => error_body("parse", &format!("value: {e}"), api::EXIT_PARSE, &[]),
    }
}

/// The fields of a response body that must agree between a served and a
/// replayed answer: everything except the per-tenant `cache` counters
/// (their running values depend on how concurrent requests interleaved)
/// and the echoed `id`.
pub fn comparable(body: &str) -> Option<Vec<(String, Json)>> {
    let json = Json::parse(body).ok()?;
    Some(
        json.as_object()?
            .iter()
            .filter(|(k, _)| k != "cache" && k != "id")
            .cloned()
            .collect(),
    )
}
