//! The `serve-warm` and `serve-cold` workloads: an open loop over TCP into
//! an in-process `srl-serve`, and (traced runs) an in-process replay of the
//! same request lines.
//!
//! The loop is open: request `i` is due at `i / RATE` seconds after the
//! start, whatever happened to earlier requests, and its latency is timed
//! from when it was due, so a stall also counts against the requests queued
//! behind it. Each sender owns one connection and the requests `i ≡ lane
//! (mod lanes)`; it sleeps until shortly before a request is due and spins
//! the rest of the way. How late a sender wrote a request is the
//! generator's lag. Senders, session threads and the server's VM threads
//! are each at most `nproc`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use srl_core::api::Json;
use srl_core::eval::Evaluator;
use srl_core::pipeline::{PipelineConfig, Source};
use srl_core::Value;
use srl_serve::{ServeConfig, Server, ServerHandle};
use srl_syntax::TextFrontend;

use crate::inputs::{self, Expect, Family, Query, Rng};
use crate::replay::{comparable, Replayer, Trace};
use crate::report::{self, Metrics};
use crate::{per_layer, LayerInputs, Work};

/// Requests per second: far below what the one CPU the serving process is
/// pinned to can serve on either workload, so latency reflects service time
/// rather than a backlog.
pub const RATE: f64 = 100.0;
pub const TENANTS: usize = 4;
/// The per-tenant program cache capacity (the server's default).
const CACHE_CAP: usize = 128;

/// What one request kind of the mix sends, and what a correct answer is.
enum Request {
    /// `run` a program's definition on arguments.
    Run(Query),
    /// `run` the projection `expr` over the bound relation `S`.
    Projection(Expect),
    /// `analyze` the powerset program: the report of its golden.
    Analyze,
    /// `check` the APATH program: the definitions and fragment of its golden.
    Check,
    /// `bind` a fresh set to `W`: an acknowledgement echoing it.
    Bind,
}

struct Kind {
    label: &'static str,
    /// How many requests of each cycle of the mix are of this kind.
    weight: usize,
    request: Request,
}

impl Kind {
    fn family(&self) -> Option<Family> {
        match &self.request {
            Request::Run(q) => Some(q.family),
            Request::Projection(_) => Some(Family::E9),
            _ => None,
        }
    }

    /// Whether the request compiles a program through the cache.
    fn compiles(&self) -> bool {
        matches!(self.request, Request::Run(_) | Request::Analyze)
    }

    /// The request line for `tenant`; on the cold workload its program is
    /// made unique by `tag`. `bind` lines are built by the caller.
    fn line(&self, tenant: &str, cold: bool, tag: &str) -> String {
        let text = |program: &str| {
            if cold {
                unique(program, tag)
            } else {
                program.to_string()
            }
        };
        match &self.request {
            Request::Run(q) => inputs::run_line(tenant, &text(&q.program), q.call, &q.args),
            Request::Projection(_) => inputs::expr_line(tenant, PROJECTION),
            Request::Analyze => {
                inputs::program_line("analyze", tenant, &text(inputs::POWERSET_SRL))
            }
            Request::Check => inputs::program_line("check", tenant, &text(inputs::APATH_SRL)),
            Request::Bind => unreachable!("bind lines carry a fresh value"),
        }
    }
}

/// One request of the timed phase.
struct Line {
    text: String,
    kind: usize,
    /// The bound literal, for `bind` lines.
    literal: Option<String>,
}

struct Scenario {
    kinds: Vec<Kind>,
    /// Binds and cache warm-up, sent before timing starts.
    setup: Vec<String>,
    timed: Vec<Line>,
}

const PROJECTION: &str =
    "set-reduce(S, lambda(x, e) x.2, lambda(y, acc) insert(y, acc), emptyset, emptyset)";

/// A program text made unique by one appended definition, so it misses
/// the cache. Appending keeps the block ids of the original definitions.
fn unique(program: &str, tag: &str) -> String {
    format!("{program}\n{tag}(cx) =\n  cx\n")
}

impl Scenario {
    fn build(seed: u64, seconds: u64, cold: bool) -> Scenario {
        let mut rng = Rng::new(seed);
        let run = |label, weight, query| Kind {
            label,
            weight,
            request: Request::Run(query),
        };
        // The six kinds of `srl-bench`'s `loadgen` mix, in its equal shares
        // and sizes (powerset of 7 atoms, add over 12). E5 and E7 are not
        // in that mix; they ride along at the smallest share that still
        // gives every run well over a hundred samples of each, so that
        // `e5_tc_dtc_ms` and `e7_tm_ms` exist on every workload. `bind`
        // writes are a small share beside the reads.
        let mut kinds = vec![
            run("e2_powerset", 5, inputs::powerset(7, &mut rng)),
            run("e3_add", 5, inputs::add(12, &mut rng)),
            run("e1_member", 5, inputs::membership(16, &mut rng)),
        ];
        let closure = inputs::closure(4, &mut rng);
        let tm = inputs::tm(6, &mut rng);
        let (relation, projected) = inputs::projection_relation(300, &mut rng);
        kinds.extend([
            Kind {
                label: "e9_projection",
                weight: 5,
                request: Request::Projection(projected),
            },
            Kind {
                label: "analyze",
                weight: 5,
                request: Request::Analyze,
            },
            Kind {
                label: "check",
                weight: 5,
                request: Request::Check,
            },
            run("e5_tc_dtc", 2, closure),
            run("e7_tm", 2, tm),
            Kind {
                label: "bind",
                weight: 2,
                request: Request::Bind,
            },
        ]);

        let tenants: Vec<String> = (0..TENANTS).map(|t| format!("t{t}")).collect();
        let compiling: Vec<&Kind> = kinds.iter().filter(|k| k.compiles()).collect();
        let mut setup = Vec::new();
        for tenant in &tenants {
            setup.push(inputs::bind_line(tenant, "S", &relation.to_string()));
            // Warm: every program of the mix resident. Cold: the cache
            // filled to capacity, so every timed lookup misses and evicts.
            let warmups = if cold { CACHE_CAP } else { compiling.len() };
            for w in 0..warmups {
                let kind = compiling[w % compiling.len()];
                setup.push(kind.line(tenant, cold, &format!("warm_{w}")));
            }
        }

        let n = (RATE * seconds as f64).round() as usize;
        let cycle: Vec<usize> = kinds
            .iter()
            .enumerate()
            .flat_map(|(k, kind)| std::iter::repeat_n(k, kind.weight))
            .collect();
        let mut timed = Vec::with_capacity(n);
        while timed.len() < n {
            let mut order = cycle.clone();
            rng.shuffle(&mut order);
            for k in order.into_iter().take(n - timed.len()) {
                let i = timed.len();
                let tenant = &tenants[i % TENANTS];
                let (text, literal) = match kinds[k].request {
                    Request::Bind => {
                        let value = Value::set(rng.distinct(4, 64).into_iter().map(Value::atom));
                        let literal = value.to_string();
                        (inputs::bind_line(tenant, "W", &literal), Some(literal))
                    }
                    _ => (kinds[k].line(tenant, cold, &format!("cold_{i}")), None),
                };
                timed.push(Line {
                    text,
                    kind: k,
                    literal,
                });
            }
        }
        Scenario {
            kinds,
            setup,
            timed,
        }
    }
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect to the in-process server");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
    (reader, stream)
}

fn round_trip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("send a request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read a response");
    response.trim_end().to_string()
}

fn is_error(body: &str) -> bool {
    comparable(body).is_none_or(|fields| fields.iter().any(|(k, _)| k == "error"))
}

/// Spawns a server and sends the setup lines; returns the running server.
fn set_up(scenario: &Scenario, nproc: usize) -> Result<ServerHandle, String> {
    let handle = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        session_threads: nproc,
        cache_cap: CACHE_CAP,
        default_config: PipelineConfig::new(),
        ..ServeConfig::default()
    })
    .and_then(Server::spawn)
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let (mut reader, mut writer) = connect(handle.addr());
    for line in &scenario.setup {
        let body = round_trip(&mut reader, &mut writer, line);
        if is_error(&body) {
            return Err(format!("set-up request failed: {body}"));
        }
    }
    Ok(handle)
}

struct Sample {
    latency: Duration,
    lag: Duration,
    body: String,
}

/// How long before a request is due its sender stops sleeping and starts
/// spinning. A sleeping thread's wake-up on a virtual machine is late by a
/// host-dependent amount (about 90 us at the median where this was tuned);
/// spinning through it sends on time and keeps the CPU awake.
const SPIN: Duration = Duration::from_micros(500);

/// Sends every timed line on its schedule over `lanes` connections;
/// returns the samples and the CPU time the senders spent spinning.
fn open_loop(addr: SocketAddr, lines: &[Line], lanes: usize) -> (Vec<Sample>, Duration) {
    let base = Instant::now() + Duration::from_millis(50);
    let mut samples: Vec<Option<Sample>> = (0..lines.len()).map(|_| None).collect();
    let spun = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    let (mut reader, mut writer) = connect(addr);
                    let mut out = Vec::new();
                    let mut spun = Duration::ZERO;
                    for i in (lane..lines.len()).step_by(lanes) {
                        let due = base + Duration::from_secs_f64(i as f64 / RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                            std::thread::sleep(wait);
                        }
                        let spin_start = report::thread_cpu_time();
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        spun += report::thread_cpu_time() - spin_start;
                        let sent = Instant::now();
                        let body = round_trip(&mut reader, &mut writer, &lines[i].text);
                        let done = Instant::now();
                        out.push((
                            i,
                            Sample {
                                latency: done - due,
                                lag: sent.saturating_duration_since(due),
                                body,
                            },
                        ));
                    }
                    (out, spun)
                })
            })
            .collect();
        let mut spun = Duration::ZERO;
        for worker in workers {
            let (out, lane_spun) = worker.join().expect("sender lane");
            spun += lane_spun;
            for (i, sample) in out {
                samples[i] = Some(sample);
            }
        }
        spun
    });
    let samples = samples
        .into_iter()
        .map(|s| s.expect("every request was sent"))
        .collect();
    (samples, spun)
}

/// Whether a served body answers its request kind correctly.
fn correct(kind: &Kind, line: &Line, body: &str) -> bool {
    let Some(fields) = comparable(body) else {
        return false;
    };
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    if get("error").is_some() {
        return false;
    }
    let result = || {
        get("result")
            .and_then(Json::as_str)
            .and_then(|text| srl_syntax::parse_value(text).ok())
    };
    match &kind.request {
        Request::Run(Query { expect, .. }) | Request::Projection(expect) => {
            result().is_some_and(|value| expect.holds(&value))
        }
        Request::Analyze => inputs::analysis_matches(&fields, inputs::POWERSET_ANALYSIS),
        Request::Check => inputs::check_matches(&fields, inputs::APATH_ANALYSIS),
        Request::Bind => {
            get("ok").and_then(Json::as_bool) == Some(true)
                && get("value").and_then(Json::as_str) == line.literal.as_deref()
        }
    }
}

/// Summed cache counters of every tenant, from the server's own `stats`.
fn served_cache_counters(addr: SocketAddr) -> (u64, u64, u64) {
    let (mut reader, mut writer) = connect(addr);
    let mut sums = (0, 0, 0);
    for t in 0..TENANTS {
        let body = round_trip(
            &mut reader,
            &mut writer,
            &format!("{{\"v\": 1, \"kind\": \"stats\", \"tenant\": \"t{t}\"}}"),
        );
        let json = Json::parse(&body).unwrap_or(Json::Null);
        let count = |name| {
            json.get("cache")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        sums.0 += count("hits");
        sums.1 += count("misses");
        sums.2 += count("evictions");
    }
    sums
}

/// Replays the setup and timed lines in process; returns the timed bodies,
/// the wall time of the timed phase, and the replayer with its trace. The
/// trace covers every line the server saw, warm-up included, like the
/// server's own cache counters.
fn replay(scenario: &Scenario, traced: bool) -> (Vec<String>, Duration, Replayer) {
    let mut replayer = Replayer::new(PipelineConfig::new(), CACHE_CAP);
    if traced {
        replayer.trace = Some(Trace::default());
    }
    for line in &scenario.setup {
        replayer.handle(line);
    }
    let shadow_before = replayer.trace.as_ref().map_or(Duration::ZERO, |t| t.shadow);
    let start = Instant::now();
    let bodies = scenario
        .timed
        .iter()
        .map(|l| replayer.handle(&l.text))
        .collect();
    let mut wall = start.elapsed();
    if let Some(trace) = &replayer.trace {
        wall = wall.saturating_sub(trace.shadow - shadow_before);
    }
    (bodies, wall, replayer)
}

/// The thread-count speedup of the mix's `run` queries.
fn speedup(kinds: &[Kind], nproc: usize) -> f64 {
    let pipeline = PipelineConfig::new().pipeline();
    let mut work: Vec<(Evaluator, Work)> = kinds
        .iter()
        .filter_map(|kind| match &kind.request {
            Request::Run(q) => Some(q),
            _ => None,
        })
        .map(|q| {
            let artifact = pipeline
                .compile_source(&Source::new("probe", q.program.clone()))
                .expect("mix programs compile");
            let work = Work::Call {
                call: q.call,
                args: q.args.clone(),
            };
            (artifact.evaluator(), work)
        })
        .collect();
    crate::speedup(&mut work, nproc)
}

pub fn run(
    cold: bool,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Metrics, u64, u64), String> {
    let nproc = report::nproc();
    let cpu = report::first_allowed_cpu();
    println!(
        "# serve-{}: nproc {nproc}, senders {nproc}, session threads {nproc}, VM threads 1, \
         all pinned to CPU {cpu}; {TENANTS} tenants, open loop at {RATE} req/s for {seconds} s, seed {seed}",
        if cold { "cold" } else { "warm" }
    );
    let scenario = Scenario::build(seed, seconds, cold);
    // Measured before pinning: the shards of a parallel fold inherit the
    // spawning thread's CPUs.
    let speedup = traced.then(|| speedup(&scenario.kinds, nproc));
    // One CPU for the server and its clients: threads spawned from here on
    // inherit it. A wake-up that crosses CPUs costs tens of microseconds on
    // a virtual machine, and whether a sender and its session thread share
    // a CPU would otherwise change from run to run.
    report::pin_to(cpu);
    let (setup_s, server) =
        report::repeat_setup(|| set_up(&scenario, nproc), ServerHandle::shutdown)?;
    let cpu_before = report::process_cpu_time();
    let (samples, spun) = open_loop(server.addr(), &scenario.timed, nproc);
    let cpu_time = report::process_cpu_time() - cpu_before - spun;
    let served_counters = served_cache_counters(server.addr());
    server.shutdown();

    let mut failed = 0u64;
    for (line, sample) in scenario.timed.iter().zip(&samples) {
        if !correct(&scenario.kinds[line.kind], line, &sample.body) {
            failed += 1;
            if failed <= 3 {
                eprintln!(
                    "wrong response to {}: {}",
                    line.text.chars().take(120).collect::<String>(),
                    sample.body.chars().take(300).collect::<String>()
                );
            }
        }
    }
    let mut attempted = samples.len() as u64;
    let latencies = report::sorted(samples.iter().map(|s| report::us(s.latency)).collect());
    let lags = report::sorted(samples.iter().map(|s| report::us(s.lag)).collect());
    let mut m = Metrics::default();

    println!(
        "# lag p50 {:.1} us, p99 {:.1} us; latency p90 {:.1} us, p999 {:.1} us",
        report::percentile(&lags, 50.0).0,
        report::percentile(&lags, 99.0).0,
        report::percentile(&latencies, 90.0).0,
        report::percentile(&latencies, 99.9).0
    );
    if !traced {
        m.push("setup_s", setup_s, "s");
        m.percentile("latency_p50_us", &latencies, 50.0)?;
        report::print_percentile("latency p99", &latencies, 99.0);
        // Per second of the process's CPU time (server and senders, less
        // the senders' spinning): the open loop fixes requests per
        // wall-clock second at the rate.
        m.push(
            "throughput_qps",
            samples.len() as f64 / cpu_time.as_secs_f64(),
            "1/s",
        );
        for (k, kind) in scenario.kinds.iter().enumerate() {
            let times: Vec<f64> = scenario
                .timed
                .iter()
                .zip(&samples)
                .filter(|(l, _)| l.kind == k)
                .map(|(_, s)| report::us(s.latency))
                .collect();
            println!(
                "# {:<14} {} requests, median {:.1} us",
                kind.label,
                times.len(),
                report::median(times)
            );
        }
        for family in Family::ALL {
            let times: Vec<f64> = scenario
                .timed
                .iter()
                .zip(&samples)
                .filter(|(l, _)| scenario.kinds[l.kind].family() == Some(family))
                .map(|(_, s)| report::ms(s.latency))
                .collect();
            m.push(family.metric(), report::lower_quartile(times), "ms");
        }
        m.push("peak_rss_mb", report::peak_rss_mb(), "MB");
        return Ok((m, attempted, failed));
    }

    // Traced run: the same lines replayed in process, untraced before and
    // after the traced replay (the faster of the two is the untraced time,
    // so warming the process up does not count as tracing overhead).
    let (before_bodies, before_wall, _) = replay(&scenario, false);
    let (traced_bodies, traced_wall, replayer) = replay(&scenario, true);
    let (after_bodies, after_wall, _) = replay(&scenario, false);
    let plain_wall = before_wall.min(after_wall);
    for (i, sample) in samples.iter().enumerate() {
        attempted += 3;
        let served = comparable(&sample.body);
        let replayed = [&before_bodies[i], &traced_bodies[i], &after_bodies[i]];
        if served.is_none() || replayed.iter().any(|body| comparable(body) != served) {
            failed += 1;
        }
    }
    if replayer.cache_counters() != served_counters {
        eprintln!(
            "replayed cache counters {:?} differ from served {:?}",
            replayer.cache_counters(),
            served_counters
        );
        failed += 1;
    }
    let trace = replayer.trace.as_ref().expect("traced replay");
    let timed_totals = &trace.request_totals[scenario.setup.len()..];
    let replayed = report::sorted(timed_totals.iter().map(|d| report::us(*d)).collect());
    let served_p50 = report::percentile(&latencies, 50.0).0;
    per_layer(
        &mut m,
        LayerInputs {
            frontend: trace,
            eval: trace,
            cache: replayer.cache_counters(),
            speedup: speedup.expect("measured for traced runs"),
            unattributed_us: served_p50 - report::percentile(&replayed, 50.0).0,
            lag_p99_us: report::percentile(&lags, 99.0).0,
            overhead_frac: traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0,
        },
    );
    Ok((m, attempted, failed))
}
