//! The versioned request/response wire contract (`v: 1`).
//!
//! Before this module, every consumer of the engine invented its own JSON:
//! the CLI hand-rolled `--json` objects in `main.rs`, the bench report had a
//! second emitter, and a serving front end would have needed a third. This
//! module is now the **single** definition of the wire format — the `srl`
//! CLI (`run`/`check`/`analyze --json`) and the `srl-serve` line-protocol
//! server both render through it, so a field added here shows up everywhere
//! and a field renamed here fails every golden at once.
//!
//! ## The contract
//!
//! Every body is a JSON object whose first field is the protocol version,
//! [`PROTOCOL_VERSION`] (`"v": 1`). Success bodies carry the payload fields
//! of their request kind (`result`/`stats`/`tiers` for `run`, `ok`/
//! `definitions`/`fragment`/`explanation` for `check`, …); failure bodies
//! carry an `error` object:
//!
//! ```json
//! { "v": 1,
//!   "error": { "kind": "deadline_exceeded", "message": "…", "exit": 7 },
//!   "stats": { …partial stats of the interrupted run… } }
//! ```
//!
//! `kind` is the stable [`EvalError::kind`] taxonomy extended with the
//! frontend kinds `"parse"` / `"check"` and the server kinds `"proto"` /
//! `"overloaded"`; `exit` is the documented CLI exit code for that family
//! (the server echoes the code the same query would have exited with
//! locally, so clients can branch on one table — see [`exit_code`]).
//!
//! Field order is **stable and load-bearing**: CI diffs rendered bodies
//! byte-for-byte across execution backends and thread counts, and the
//! committed `examples/srl/analysis/*.analyze.json` goldens pin the
//! `analyze` shape. Renderers here emit the human-readable multi-line form;
//! the line-protocol server passes bodies through [`compact`] so each
//! response occupies exactly one line.
//!
//! **Removed in v1: the static tier fields.** The `analyze` fold rows no
//! longer carry their two storage-tier keys (the traversed set's `tier` and
//! the accumulator's), and `srl disasm` reduce lines no longer print
//! `tier=<set>/<acc>`. Both reported a compile-time storage stamp that
//! needed declared `set(atom)` parameters, which surface syntax cannot
//! write, so no program reaching the CLI or the wire ever read anything
//! but `generic`. Storage tiers are picked at run time; `run`'s
//! `tiers` object and its engagement counts are unchanged.
//!
//! The module also contains the other half of the wire: a small
//! dependency-free JSON **parser** ([`Json`]) and the typed [`Request`]
//! envelope the server accepts (`kind` = `run` / `check` / `analyze` /
//! `bind` / `stats`), plus [`PipelineConfig`] deserialization
//! ([`pipeline_config_from_json`]) for per-tenant configuration files.

use crate::error::EvalError;
use crate::eval::TierEngagements;
use crate::limits::EvalStats;
use crate::pipeline::PipelineConfig;
use crate::value::Value;

/// The wire protocol version every body opens with (`"v": 1`).
pub const PROTOCOL_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Exit-code taxonomy
// ---------------------------------------------------------------------------

/// Success.
pub const EXIT_OK: u8 = 0;
/// Usage or I/O error (CLI) / malformed protocol request (server).
pub const EXIT_USAGE: u8 = 2;
/// The program text did not parse.
pub const EXIT_PARSE: u8 = 3;
/// The program failed validation or type checking.
pub const EXIT_CHECK: u8 = 4;
/// A runtime evaluation error (shape, unbound name, empty choose, …).
pub const EXIT_RUNTIME: u8 = 5;
/// A deterministic resource budget ([`EvalLimits`](crate::EvalLimits)) was exhausted.
pub const EXIT_LIMIT: u8 = 6;
/// The wall-clock deadline ([`EvalLimits::deadline`](crate::EvalLimits::deadline)) fired.
pub const EXIT_TIMEOUT: u8 = 7;
/// An internal error (e.g. a panicked worker, isolated at the pool).
pub const EXIT_INTERNAL: u8 = 8;
/// Server only: the query was shed because the in-flight bound was reached.
/// Never a process exit code — it exists so `overloaded` responses carry a
/// code disjoint from every local failure family.
pub const EXIT_OVERLOADED: u8 = 9;

/// The exit code of an evaluation error, per the documented contract
/// (deadline 7, internal 8, deterministic limits 6, the rest 5).
pub fn exit_code(e: &EvalError) -> u8 {
    match e {
        EvalError::DeadlineExceeded { .. } => EXIT_TIMEOUT,
        EvalError::Internal { .. } => EXIT_INTERNAL,
        e if e.is_limit() => EXIT_LIMIT,
        _ => EXIT_RUNTIME,
    }
}

// ---------------------------------------------------------------------------
// Response rendering (stable field order)
// ---------------------------------------------------------------------------

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a versioned body: `"v": 1` first, then each `(name, value)`
/// field in order, one per line, values pre-rendered JSON.
pub fn versioned(fields: &[(&str, String)]) -> String {
    let mut out = format!("{{\n  \"v\": {PROTOCOL_VERSION}");
    for (name, value) in fields {
        out.push_str(&format!(",\n  \"{name}\": {value}"));
    }
    out.push_str("\n}");
    out
}

/// The `EvalStats` object, fields in the pinned order (byte-identical
/// across backends and thread counts by the stats-determinism contract).
pub fn stats_json(stats: &EvalStats) -> String {
    format!(
        "{{ \"steps\": {}, \"reduce_iterations\": {}, \"inserts\": {}, \"max_value_weight\": {}, \"max_accumulator_weight\": {}, \"max_depth\": {}, \"new_values\": {} }}",
        stats.steps,
        stats.reduce_iterations,
        stats.inserts,
        stats.max_value_weight,
        stats.max_accumulator_weight,
        stats.max_depth,
        stats.new_values
    )
}

/// The per-tier engagement breakdown (stats-adjacent diagnostics: which
/// folds ran on which columnar storage tier).
pub fn tiers_json(tiers: &TierEngagements) -> String {
    format!(
        "{{ \"atoms\": {}, \"bits\": {}, \"rows\": {} }}",
        tiers.atoms, tiers.bits, tiers.rows
    )
}

/// A successful `run` body: result, stats, tier engagements, then any
/// caller extras (the server appends `cache` and an echoed `id`; the CLI
/// appends nothing, keeping its output a strict prefix of the server's).
pub fn run_json(
    value: &Value,
    stats: &EvalStats,
    tiers: &TierEngagements,
    extras: &[(&str, String)],
) -> String {
    let mut fields = vec![
        ("result", format!("\"{}\"", escape(&value.to_string()))),
        ("stats", stats_json(stats)),
        ("tiers", tiers_json(tiers)),
    ];
    fields.extend(extras.iter().map(|(n, v)| (*n, v.clone())));
    versioned(&fields)
}

/// A failure body: the error object (stable `kind` taxonomy + exit code),
/// the partial stats of the interrupted run when the evaluator kept them,
/// then any caller extras.
pub fn error_json(
    kind: &str,
    message: &str,
    exit: u8,
    partial: Option<&EvalStats>,
    extras: &[(&str, String)],
) -> String {
    let mut fields = vec![(
        "error",
        format!(
            "{{ \"kind\": \"{}\", \"message\": \"{}\", \"exit\": {exit} }}",
            escape(kind),
            escape(message)
        ),
    )];
    if let Some(stats) = partial {
        fields.push(("stats", stats_json(stats)));
    }
    fields.extend(extras.iter().map(|(n, v)| (*n, v.clone())));
    versioned(&fields)
}

/// A successful `check` body: `ok`, the definition names, the Section 6
/// fragment and its explanation.
pub fn check_json(
    definitions: &[&str],
    fragment: &str,
    explanation: &str,
    extras: &[(&str, String)],
) -> String {
    let names: Vec<String> = definitions
        .iter()
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    let mut fields = vec![
        ("ok", "true".to_string()),
        ("definitions", format!("[{}]", names.join(", "))),
        ("fragment", format!("\"{}\"", escape(fragment))),
        ("explanation", format!("\"{}\"", escape(explanation))),
    ];
    fields.extend(extras.iter().map(|(n, v)| (*n, v.clone())));
    versioned(&fields)
}

/// Collapses a pretty-rendered body onto one line for the line protocol:
/// newlines and the indentation after them are dropped, everything inside
/// string literals is preserved verbatim (rendered strings never contain a
/// raw newline — [`escape`] guarantees it — so this is exact).
pub fn compact(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut in_str = false;
    let mut escaped = false;
    let mut skipping = false;
    for c in json.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '\n' => skipping = true,
            ' ' if skipping => {}
            c => {
                skipping = false;
                if c == '"' {
                    in_str = true;
                }
                out.push(c);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// JSON parsing
// ---------------------------------------------------------------------------

/// Maximum nesting depth [`Json::parse`] accepts — requests come from the
/// network, so a bracket bomb must fail structurally, not by stack overflow.
const MAX_JSON_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their field order (the wire contract
/// is order-sensitive on output; on input the order is merely preserved for
/// error messages).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53, ample for the wire).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_JSON_DEPTH {
            return Err(format!("nesting deeper than {MAX_JSON_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Scan a run of plain (non-escape, non-quote) bytes at once so
            // multi-byte UTF-8 passes through untouched.
            let run_start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[run_start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                // A high surrogate must be followed by
                                // `\uDCxx`; combine the pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(c).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(cp).ok_or("bad \\u escape")?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the escape
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(format!("raw control byte 0x{b:02x} in string")),
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|_| "bad \\u escape")?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
        self.pos = end;
        Ok(cp)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// What a request asks the server to do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RequestKind {
    /// Compile (through the per-tenant cache) and evaluate.
    Run,
    /// Parse, validate and classify a program.
    Check,
    /// The per-fold classification report.
    Analyze,
    /// Bind an input name to a value in the tenant environment.
    Bind,
    /// Tenant/server statistics (cache counters, shed count, …).
    Stats,
}

impl RequestKind {
    /// The wire name of the kind.
    pub fn name(&self) -> &'static str {
        match self {
            RequestKind::Run => "run",
            RequestKind::Check => "check",
            RequestKind::Analyze => "analyze",
            RequestKind::Bind => "bind",
            RequestKind::Stats => "stats",
        }
    }
}

/// One parsed line-protocol request.
///
/// ```json
/// {"v": 1, "kind": "run", "tenant": "alice", "id": 7,
///  "program": "main() = …", "call": "main", "args": ["{d1, d2}"]}
/// {"v": 1, "kind": "run", "expr": "union(S, {d9})"}
/// {"v": 1, "kind": "bind", "name": "S", "value": "{d1, d2}"}
/// {"v": 1, "kind": "stats"}
/// ```
///
/// `program`, `args` elements, `expr` and `value` carry SRL surface syntax
/// (the same value-literal grammar `srl run --arg` accepts); the JSON layer
/// never interprets them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Request {
    /// What to do.
    pub kind: Option<RequestKind>,
    /// Request id, echoed verbatim into the response when present.
    pub id: Option<u64>,
    /// Tenant name; the server's default tenant when absent.
    pub tenant: Option<String>,
    /// SRL program text (definitions), for `run`/`check`/`analyze`.
    pub program: Option<String>,
    /// Definition to call (`run`); defaults to a zero-parameter `main`.
    pub call: Option<String>,
    /// Value-literal arguments for `call`.
    pub args: Vec<String>,
    /// Expression to evaluate against the tenant environment (`run`);
    /// mutually exclusive with `call`.
    pub expr: Option<String>,
    /// Input name to bind (`bind`).
    pub name: Option<String>,
    /// Value literal to bind (`bind`).
    pub value: Option<String>,
}

impl Request {
    /// The request kind, defaulted for error paths.
    fn kind_field(kind: &Json) -> Result<RequestKind, String> {
        match kind.as_str() {
            Some("run") => Ok(RequestKind::Run),
            Some("check") => Ok(RequestKind::Check),
            Some("analyze") => Ok(RequestKind::Analyze),
            Some("bind") => Ok(RequestKind::Bind),
            Some("stats") => Ok(RequestKind::Stats),
            Some(other) => Err(format!(
                "unknown kind `{other}` (expected run|check|analyze|bind|stats)"
            )),
            None => Err("\"kind\" must be a string".to_string()),
        }
    }

    /// Parses one request line. Rejects unknown versions, unknown kinds and
    /// unknown fields (a typo like `"porgram"` should fail loudly, not run
    /// an empty program).
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = Json::parse(line)?;
        let Some(fields) = json.as_object() else {
            return Err("a request is a JSON object".to_string());
        };
        match json.get("v").and_then(Json::as_u64) {
            Some(v) if v == u64::from(PROTOCOL_VERSION) => {}
            Some(v) => return Err(format!("unsupported protocol version {v} (this is v1)")),
            None => return Err("missing protocol version (\"v\": 1)".to_string()),
        }
        let mut request = Request::default();
        for (key, value) in fields {
            match key.as_str() {
                "v" => {}
                "kind" => request.kind = Some(Self::kind_field(value)?),
                "id" => {
                    request.id = Some(
                        value
                            .as_u64()
                            .ok_or("\"id\" must be a non-negative integer")?,
                    )
                }
                "tenant" => {
                    request.tenant = Some(
                        value
                            .as_str()
                            .ok_or("\"tenant\" must be a string")?
                            .to_string(),
                    )
                }
                "program" => {
                    request.program = Some(
                        value
                            .as_str()
                            .ok_or("\"program\" must be a string")?
                            .to_string(),
                    )
                }
                "call" => {
                    request.call = Some(
                        value
                            .as_str()
                            .ok_or("\"call\" must be a string")?
                            .to_string(),
                    )
                }
                "expr" => {
                    request.expr = Some(
                        value
                            .as_str()
                            .ok_or("\"expr\" must be a string")?
                            .to_string(),
                    )
                }
                "name" => {
                    request.name = Some(
                        value
                            .as_str()
                            .ok_or("\"name\" must be a string")?
                            .to_string(),
                    )
                }
                "value" => {
                    request.value = Some(
                        value
                            .as_str()
                            .ok_or("\"value\" must be a string")?
                            .to_string(),
                    )
                }
                "args" => {
                    let items = value.as_array().ok_or("\"args\" must be an array")?;
                    for item in items {
                        request.args.push(
                            item.as_str()
                                .ok_or("\"args\" elements must be strings")?
                                .to_string(),
                        );
                    }
                }
                other => return Err(format!("unknown request field \"{other}\"")),
            }
        }
        if request.kind.is_none() {
            return Err("missing \"kind\"".to_string());
        }
        Ok(request)
    }
}

// ---------------------------------------------------------------------------
// PipelineConfig deserialization
// ---------------------------------------------------------------------------

/// Parses a [`PipelineConfig`] from its JSON object form — the per-tenant
/// configuration unit of a serving deployment:
///
/// ```json
/// { "dialect": "srl", "type_policy": "require", "limits": "small",
///   "max_steps": 100000, "deadline_ms": 250, "threads": 2,
///   "backend": "vm", "tiers": true }
/// ```
///
/// Every field is optional (the default is [`PipelineConfig::default`]);
/// unknown fields are rejected. Each value is a JSON scalar handed to
/// [`PipelineConfig::with_settings`] as a word, which owns the vocabulary
/// and the combination rules: field order never matters, `max_steps` and
/// `deadline_ms` survive a `limits` preset, `deadline_ms` and `threads`
/// are at least 1, and `threads` with the tree-walk backend is an error.
pub fn pipeline_config_from_json(json: &Json) -> Result<PipelineConfig, String> {
    let Some(fields) = json.as_object() else {
        return Err("a pipeline config is a JSON object".to_string());
    };
    let mut words = Vec::with_capacity(fields.len());
    for (key, value) in fields {
        let word = match value {
            Json::Str(s) => s.clone(),
            Json::Num(n) => n.to_string(),
            Json::Bool(b) => b.to_string(),
            _ => return Err(format!("\"{key}\" must be a string, number or boolean")),
        };
        words.push((key.as_str(), word));
    }
    let settings: Vec<(&str, &str)> = words
        .iter()
        .map(|(key, word)| (*key, word.as_str()))
        .collect();
    PipelineConfig::new().with_settings(&settings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::EvalLimits;
    use crate::pipeline::TypePolicy;
    use crate::Dialect;

    #[test]
    fn versioned_bodies_open_with_the_protocol_version() {
        let body = versioned(&[("ok", "true".to_string())]);
        assert!(body.starts_with("{\n  \"v\": 1,\n  \"ok\": true"), "{body}");
        assert!(body.ends_with("\n}"), "{body}");
    }

    #[test]
    fn stats_fields_keep_the_pinned_order() {
        let json = stats_json(&EvalStats::default());
        let steps = json.find("\"steps\"").unwrap();
        let iters = json.find("\"reduce_iterations\"").unwrap();
        let new_values = json.find("\"new_values\"").unwrap();
        assert!(steps < iters && iters < new_values);
    }

    #[test]
    fn run_bodies_order_result_stats_tiers_then_extras() {
        let body = run_json(
            &Value::atom(3),
            &EvalStats::default(),
            &TierEngagements::default(),
            &[("cache", "{ \"hit\": true }".to_string())],
        );
        let v = body.find("\"v\"").unwrap();
        let result = body.find("\"result\"").unwrap();
        let stats = body.find("\"stats\"").unwrap();
        let tiers = body.find("\"tiers\"").unwrap();
        let cache = body.find("\"cache\"").unwrap();
        assert!(v < result && result < stats && stats < tiers && tiers < cache);
    }

    #[test]
    fn error_bodies_carry_kind_exit_and_optional_partial_stats() {
        let body = error_json("deadline_exceeded", "too slow", EXIT_TIMEOUT, None, &[]);
        assert!(body.contains("\"kind\": \"deadline_exceeded\""));
        assert!(body.contains("\"exit\": 7"));
        assert!(!body.contains("\"stats\""));
        let stats = EvalStats {
            steps: 9,
            ..EvalStats::default()
        };
        let body = error_json("deadline_exceeded", "stop", EXIT_TIMEOUT, Some(&stats), &[]);
        assert!(body.contains("\"steps\": 9"));
        assert!(body.find("\"error\"").unwrap() < body.find("\"stats\"").unwrap());
    }

    #[test]
    fn exit_codes_follow_the_documented_contract() {
        assert_eq!(
            exit_code(&EvalError::DeadlineExceeded { limit_ms: 10 }),
            EXIT_TIMEOUT
        );
        assert_eq!(
            exit_code(&EvalError::Internal {
                detail: "boom".into()
            }),
            EXIT_INTERNAL
        );
        assert_eq!(
            exit_code(&EvalError::StepLimitExceeded { limit: 1 }),
            EXIT_LIMIT
        );
        assert_eq!(
            exit_code(&EvalError::UnboundVariable("x".into())),
            EXIT_RUNTIME
        );
    }

    #[test]
    fn escape_handles_quotes_backslashes_and_control_bytes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn compact_collapses_rendered_bodies_onto_one_line() {
        let body = run_json(
            &Value::atom(3),
            &EvalStats::default(),
            &TierEngagements::default(),
            &[],
        );
        let line = compact(&body);
        assert!(!line.contains('\n'));
        // Round-trips through the parser as the same structure.
        assert_eq!(Json::parse(&line), Json::parse(&body));
        // Inline spacing inside objects survives; indentation does not.
        assert!(line.starts_with("{\"v\": 1,\"result\""), "{line}");
    }

    #[test]
    fn compact_preserves_string_contents_exactly() {
        let tricky = "with \\n escape, \\\" quote, and   spaces";
        let body = versioned(&[("s", format!("\"{tricky}\""))]);
        assert!(compact(&body).contains(tricky));
    }

    #[test]
    fn json_parses_scalars_arrays_and_objects() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            Json::parse("\"a\\u0041\\n\"").unwrap(),
            Json::Str("aA\n".to_string())
        );
        assert_eq!(
            Json::parse("[1, [2], {}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(vec![])
            ])
        );
        let obj = Json::parse("{\"a\": 1, \"b\": \"x\"}").unwrap();
        assert_eq!(obj.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(obj.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn json_surrogate_pairs_combine() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone high surrogate");
    }

    #[test]
    fn json_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1,}",
            "\"\u{1}\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        // A bracket bomb fails structurally, not by stack overflow.
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn requests_parse_with_every_field() {
        let line = "{\"v\": 1, \"kind\": \"run\", \"id\": 7, \"tenant\": \"alice\", \
                    \"program\": \"main() = choose({d1})\", \"call\": \"main\", \
                    \"args\": [\"d3\", \"{d1, d2}\"]}";
        let request = Request::parse(line).unwrap();
        assert_eq!(request.kind, Some(RequestKind::Run));
        assert_eq!(request.id, Some(7));
        assert_eq!(request.tenant.as_deref(), Some("alice"));
        assert_eq!(request.call.as_deref(), Some("main"));
        assert_eq!(request.args, vec!["d3", "{d1, d2}"]);
    }

    #[test]
    fn requests_reject_bad_versions_kinds_and_unknown_fields() {
        let err = Request::parse("{\"kind\": \"run\"}").unwrap_err();
        assert!(err.contains("version"), "{err}");
        let err = Request::parse("{\"v\": 2, \"kind\": \"run\"}").unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
        // 2^32 + 1 must not truncate to v1.
        let err = Request::parse("{\"v\": 4294967297, \"kind\": \"stats\"}").unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
        let err = Request::parse("{\"v\": 1, \"kind\": \"destroy\"}").unwrap_err();
        assert!(err.contains("destroy"), "{err}");
        let err = Request::parse("{\"v\": 1}").unwrap_err();
        assert!(err.contains("kind"), "{err}");
        let err = Request::parse("{\"v\": 1, \"kind\": \"run\", \"porgram\": \"x\"}").unwrap_err();
        assert!(err.contains("porgram"), "{err}");
        assert!(Request::parse("[]").is_err());
        assert!(Request::parse("not json").is_err());
    }

    /// Every ordering of `fields`, each joined into one JSON object.
    fn every_ordering(fields: &[&str]) -> Vec<String> {
        if fields.len() <= 1 {
            return vec![format!("{{{}}}", fields.join(""))];
        }
        let mut objects = Vec::new();
        for (i, first) in fields.iter().enumerate() {
            let mut rest = fields.to_vec();
            rest.remove(i);
            for tail in every_ordering(&rest) {
                let tail = &tail[1..tail.len() - 1];
                objects.push(format!("{{{first}, {tail}}}"));
            }
        }
        objects
    }

    fn parse_config(object: &str) -> Result<PipelineConfig, String> {
        pipeline_config_from_json(&Json::parse(object).unwrap())
    }

    #[test]
    fn pipeline_config_parses_every_field() {
        let fields = [
            "\"dialect\": \"basrl\"",
            "\"type_policy\": \"skip\"",
            "\"limits\": \"small\"",
            "\"max_steps\": 1234",
            "\"deadline_ms\": 250",
            "\"threads\": 2",
            "\"tiers\": false",
        ];
        let objects = every_ordering(&fields);
        assert_eq!(objects.len(), 5040);
        for object in objects {
            let config = parse_config(&object).unwrap();
            assert_eq!(config.dialect, Some(Dialect::basrl()), "{object}");
            assert_eq!(config.type_policy, TypePolicy::Skip, "{object}");
            assert_eq!(
                config.limits,
                EvalLimits::small()
                    .with_max_steps(1234)
                    .with_deadline_ms(250),
                "field order in the config file must not matter: {object}"
            );
            assert_eq!(config.backend, crate::ExecBackend::vm_with_threads(2));
            assert!(!config.tiers, "{object}");
        }
    }

    #[test]
    fn pipeline_config_pairs_combine_whatever_their_order() {
        for (pair, expected) in [
            (
                ["\"backend\": \"tree\"", "\"threads\": 2"],
                Err(
                    "the tree-walk backend has no worker pool (threads apply to vm only)"
                        .to_string(),
                ),
            ),
            (
                ["\"backend\": \"vm\"", "\"threads\": 2"],
                Ok(PipelineConfig::new().threads(2)),
            ),
            (
                ["\"max_steps\": 1234", "\"limits\": \"small\""],
                Ok(PipelineConfig::new().with_limits(EvalLimits::small().with_max_steps(1234))),
            ),
        ] {
            for object in every_ordering(&pair) {
                assert_eq!(parse_config(&object), expected, "{object}");
            }
        }
    }

    #[test]
    fn pipeline_config_deadline_survives_a_later_limits_preset() {
        let json = Json::parse("{\"deadline_ms\": 99, \"limits\": \"benchmark\"}").unwrap();
        let config = pipeline_config_from_json(&json).unwrap();
        assert_eq!(
            config.limits,
            EvalLimits::benchmark().with_deadline_ms(99),
            "field order in the config file must not matter"
        );
    }

    #[test]
    fn pipeline_config_rejects_unknown_fields_and_values() {
        for bad in [
            "{\"dialect\": \"klingon\"}",
            "{\"type_policy\": \"maybe\"}",
            "{\"limits\": \"huge\"}",
            "{\"threads\": 0}",
            "{\"threads\": 2.5}",
            "{\"deadline_ms\": 0}",
            "{\"max_steps\": -1}",
            "{\"tiers\": \"maybe\"}",
            "{\"backend\": null}",
            "{\"wat\": 1}",
            "[]",
        ] {
            let json = Json::parse(bad).unwrap();
            assert!(pipeline_config_from_json(&json).is_err(), "{bad}");
        }
    }

    #[test]
    fn empty_config_is_the_default() {
        let json = Json::parse("{}").unwrap();
        let config = pipeline_config_from_json(&json).unwrap();
        assert_eq!(config.type_policy, PipelineConfig::default().type_policy);
        assert_eq!(config.limits, PipelineConfig::default().limits);
        assert!(config.tiers);
    }
}
