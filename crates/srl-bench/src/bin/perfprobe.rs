//! Quick wall-clock probe for the reduce-heavy experiments (E2 powerset,
//! E5 TC/DTC, E9 relational join) and the E7 TM simulation at their largest
//! report sizes, used to compare pre/post-refactor timings in the same
//! environment (see `crates/README.md` and `BENCH_*.json` for the recorded
//! numbers).
//!
//! Every probe runs on a **backend axis** — the same compiled program and
//! lowered expressions under `ExecBackend::TreeWalk` and the sequential VM —
//! on the **par axis**: the VM with a worker pool (default 4 threads,
//! `SRL_PAR_THREADS` overrides) sharding proper-hom folds — and on the
//! **tier axis**: the sequential VM with the columnar atom tier disabled
//! and every input rebuilt on the generic tier, the honest pre-tier
//! baseline. Statistics are byte-identical along all three axes (the
//! vm_differential, par_differential and set_tier_differential suites pin
//! that); only wall clock may differ.
//!
//! ```text
//! perfprobe [--json] [--only SUBSTR]... [--check BENCH_FILE]...
//! ```
//!
//! `--json` emits the probe table as machine-readable JSON (the schema the
//! `BENCH_*.json` trajectory points embed). `--only SUBSTR` (repeatable)
//! restricts the run to probes whose name contains a given substring —
//! the slow probes never build or run, which makes single-probe timing
//! loops cheap while calibrating sizes. `--check FILE` turns the probe
//! into a **soft perf-regression gate**: each measured probe is compared
//! against the probe of the same name recorded in `FILE`, and the process
//! exits non-zero if a tracked *speedup ratio* (tree-walk/VM,
//! sequential-VM/pooled-VM, or tier-off/tier-on) regressed by more than the
//! threshold (`SRL_PERF_REGRESSION_PCT`, default 25). `--check` may repeat:
//! the probes run once and are gated against every named trajectory point
//! (measured probes a file does not record are skipped). Ratios, not
//! milliseconds: absolute wall clock shifts with the machine, while the
//! engine-vs-engine ratios on one machine are what a code regression
//! actually moves.
//!
//! The gate never passes vacuously. Exit 2, before or instead of any
//! verdict, when `--only` or `--check` has no value, when
//! `SRL_PERF_REGRESSION_PCT` is set but is not a number in (0, 100), when
//! an `--only` filter matches no probe, or when a checked file records a
//! probe that the filter selects but this binary did not measure (a probe
//! renamed or dropped here would otherwise escape the gate). Exit 1 means
//! a tracked ratio regressed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use srl_core::api::Json;
use srl_core::eval::Evaluator;
use srl_core::limits::EvalLimits;
use srl_core::lower::LoweredExpr;
use srl_core::program::{Env, Program};
use srl_core::setrepr::with_atom_tier;
use srl_core::value::Value;
use srl_core::ExecBackend;

/// One probe's measurements across the engine configurations.
struct Probe {
    name: String,
    runs: u32,
    tree: Duration,
    vm: Duration,
    vm_par: Duration,
    /// Sequential VM with the columnar atom tier disabled and the inputs
    /// rebuilt on the generic tier — the tier-axis baseline.
    vm_tier_off: Duration,
    par_threads: usize,
}

impl Probe {
    /// Tree-walk time over sequential-VM time: the backend-axis speedup.
    fn vm_speedup(&self) -> f64 {
        self.tree.as_secs_f64() / self.vm.as_secs_f64().max(1e-9)
    }

    /// Sequential-VM time over pooled-VM time: the par-axis speedup
    /// (≈ 1.0 on a single-core host, > 1 with real cores to fan out to).
    fn par_speedup(&self) -> f64 {
        self.vm.as_secs_f64() / self.vm_par.as_secs_f64().max(1e-9)
    }

    /// Generic-tier time over columnar-tier time on the sequential VM: the
    /// tier-axis speedup (≈ 1.0 on workloads with no atom sets to
    /// columnarise).
    fn tier_speedup(&self) -> f64 {
        self.vm_tier_off.as_secs_f64() / self.vm.as_secs_f64().max(1e-9)
    }
}

/// Deep-rebuilds a value under the *ambient* tier toggle. The tier-off
/// baseline must not inherit columnar sets built while the tier was still
/// on, or it would measure generic code over columnar inputs rather than
/// the pre-tier representation.
fn rebuild(v: &Value) -> Value {
    match v {
        Value::Set(items) => Value::set(items.iter().map(|e| rebuild(&e))),
        Value::Tuple(items) => Value::tuple(items.iter().map(rebuild)),
        Value::List(items) => Value::list(items.iter().map(rebuild)),
        other => other.clone(),
    }
}

fn par_threads() -> usize {
    std::env::var("SRL_PAR_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

fn backends() -> [(ExecBackend, &'static str); 3] {
    [
        (ExecBackend::TreeWalk, "tree-walk"),
        (ExecBackend::vm(), "vm"),
        (ExecBackend::vm_with_threads(par_threads()), "vm-par"),
    ]
}

/// Times `runs` calls of a named definition under all engine configurations.
fn probe_call(
    probe: &str,
    program: &Program,
    name: &str,
    args: &[Value],
    limits: EvalLimits,
    runs: u32,
) -> Probe {
    let compiled = Arc::new(program.compile());
    let mut times = [Duration::ZERO; 3];
    for (i, (backend, _)) in backends().iter().enumerate() {
        let mut ev = Evaluator::from_compiled(Arc::clone(&compiled), limits).with_backend(*backend);
        // Warm the lazily-generated bytecode outside the timed region, like
        // the compile step itself.
        ev.reset_stats();
        ev.call(name, args).expect("probe evaluates");
        let t = Instant::now();
        for _ in 0..runs {
            ev.reset_stats();
            ev.call(name, args).expect("probe evaluates");
        }
        times[i] = t.elapsed();
    }
    let [tree, vm, vm_par] = times;
    let vm_tier_off = with_atom_tier(false, || {
        let off_args: Vec<Value> = args.iter().map(rebuild).collect();
        let mut ev =
            Evaluator::from_compiled(Arc::clone(&compiled), limits).with_backend(ExecBackend::vm());
        ev.reset_stats();
        ev.call(name, &off_args).expect("probe evaluates");
        let t = Instant::now();
        for _ in 0..runs {
            ev.reset_stats();
            ev.call(name, &off_args).expect("probe evaluates");
        }
        t.elapsed()
    });
    Probe {
        name: probe.to_string(),
        runs,
        tree,
        vm,
        vm_par,
        vm_tier_off,
        par_threads: par_threads(),
    }
}

/// Times `runs` evaluations of pre-lowered expressions under all engine
/// configurations.
fn probe_lowered(
    probe: &str,
    program: &Program,
    exprs: &[srl_core::ast::Expr],
    env: &Env,
    limits: EvalLimits,
    runs: u32,
) -> Probe {
    let compiled = Arc::new(program.compile());
    let mut times = [Duration::ZERO; 3];
    for (i, (backend, _)) in backends().iter().enumerate() {
        let mut ev = Evaluator::from_compiled(Arc::clone(&compiled), limits).with_backend(*backend);
        let lowered: Vec<LoweredExpr> = exprs.iter().map(|e| ev.lower(e, env)).collect();
        for l in &lowered {
            ev.reset_stats();
            ev.eval_lowered(l, env).expect("probe evaluates");
        }
        let t = Instant::now();
        for _ in 0..runs {
            for l in &lowered {
                ev.reset_stats();
                ev.eval_lowered(l, env).expect("probe evaluates");
            }
        }
        times[i] = t.elapsed();
    }
    let [tree, vm, vm_par] = times;
    let vm_tier_off = with_atom_tier(false, || {
        let mut off_env = Env::new();
        for (name, value) in env.iter() {
            off_env.insert(name.to_string(), rebuild(value));
        }
        let mut ev =
            Evaluator::from_compiled(Arc::clone(&compiled), limits).with_backend(ExecBackend::vm());
        let lowered: Vec<LoweredExpr> = exprs.iter().map(|e| ev.lower(e, &off_env)).collect();
        for l in &lowered {
            ev.reset_stats();
            ev.eval_lowered(l, &off_env).expect("probe evaluates");
        }
        let t = Instant::now();
        for _ in 0..runs {
            for l in &lowered {
                ev.reset_stats();
                ev.eval_lowered(l, &off_env).expect("probe evaluates");
            }
        }
        t.elapsed()
    });
    Probe {
        name: probe.to_string(),
        runs,
        tree,
        vm,
        vm_par,
        vm_tier_off,
        par_threads: par_threads(),
    }
}

/// True when `name` passes the `--only` filter (empty filter = run all).
fn selected(only: &[String], name: &str) -> bool {
    only.is_empty() || only.iter().any(|s| name.contains(s.as_str()))
}

fn run_probes(only: &[String]) -> Vec<Probe> {
    let mut probes = Vec::new();
    // E2 powerset at n = 12 (largest report seed size).
    if selected(only, "E2 powerset n=12") {
        use srl_stdlib::blowup::{names, powerset_program};
        let program = powerset_program();
        let input = Value::set((0..12u64).map(Value::atom));
        // Since the interprocedural spine summary, sift's call-threaded fold
        // is a proved proper hom: this probe now exercises Generic-fold
        // sharding on the par axis (par_differential pins the engagement).
        // 3 runs (not 1): the CI regression gate compares speedup ratios
        // from this probe, and a single sample per engine would make the
        // gate reflect scheduler noise rather than code.
        probes.push(probe_call(
            "E2 powerset n=12",
            &program,
            names::POWERSET,
            &[input],
            EvalLimits::default(),
            3,
        ));
    }
    // E5 TC/DTC at n = 14 (largest report seed size), lowered once.
    if selected(only, "E5 tc+dtc n=14") {
        use workloads::digraph::Digraph;
        let n = 14usize;
        let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
        let env = Env::new()
            .bind("D", g.vertices_value())
            .bind("E", g.edges_value());
        let program = Program::new(srl_core::Dialect::full());
        let exprs = [
            srl_bench::queries::tc_query(),
            srl_bench::queries::dtc_query(),
        ];
        probes.push(probe_lowered(
            "E5 tc+dtc n=14",
            &program,
            &exprs,
            &env,
            EvalLimits::benchmark(),
            5,
        ));
    }
    // E7 TM simulation at n = 32 (largest report seed size).
    if selected(only, "E7 tm_sim n=32") {
        use machines::tm::library::{even_parity, SYM_A, SYM_B};
        use srl_stdlib::tm_sim::{compile, encode_input, names, position_domain};
        let machine = even_parity();
        let program = compile(&machine);
        let n = 32usize;
        let input: Vec<u8> = (0..n)
            .map(|i| if i % 3 == 0 { SYM_A } else { SYM_B })
            .collect();
        let args = [position_domain(n), encode_input(&input)];
        probes.push(probe_call(
            "E7 tm_sim n=32",
            &program,
            names::ACCEPTS,
            &args,
            EvalLimits::benchmark(),
            10,
        ));
    }
    // E9 relational join at n = 64 (largest bench size), lowered once.
    if selected(only, "E9 join n=64") {
        use workloads::tables::CompanyDatabase;
        let n = 64usize;
        let db = CompanyDatabase::generate(n, (n / 4).max(1), 4, 31 + n as u64);
        let env = Env::new()
            .bind("EMP", db.employees_value())
            .bind("DEPT", db.departments_value());
        let program = Program::new(srl_core::Dialect::full());
        let exprs = [srl_bench::queries::company_join()];
        probes.push(probe_lowered(
            "E9 join n=64",
            &program,
            &exprs,
            &env,
            EvalLimits::benchmark(),
            20,
        ));
    }
    // E5 atom-set core: reachability with a vertex-set accumulator — per
    // edge one membership probe against the (columnar) reach set, one bulk
    // union per round. This is the E5-family probe the tier axis tracks.
    if selected(only, "E5 reach n=4096") {
        use workloads::digraph::Digraph;
        let n = 4096usize;
        let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
        let env = Env::new()
            .bind("D", g.vertices_value())
            .bind("E", g.edges_value())
            // Round driver: 16 frontier expansions bound the diameter the
            // probe explores; the accumulator still reaches thousands of
            // vertices, which is what the tier axis measures.
            .bind("K", Value::set((0..16u64).map(Value::atom)));
        let program = Program::new(srl_core::Dialect::full());
        let exprs = [srl_bench::queries::reach_query()];
        probes.push(probe_lowered(
            "E5 reach n=4096",
            &program,
            &exprs,
            &env,
            EvalLimits::benchmark(),
            3,
        ));
    }
    // E9 dense-id core: intersection of an id set with a dense id universe —
    // per element one membership probe (O(1) words on the bitset tier) and
    // one insert into a set(atom) accumulator.
    if selected(only, "E9 inter-ids n=8192") {
        let n = 8192u64;
        let env = Env::new()
            .bind("IDS", Value::set((0..n).map(Value::atom)))
            .bind(
                "UNIV",
                Value::set((0..n).filter(|i| i % 4 != 3).map(Value::atom)),
            );
        let program = Program::new(srl_core::Dialect::full());
        let exprs = [srl_bench::queries::id_intersection()];
        probes.push(probe_lowered(
            "E9 inter-ids n=8192",
            &program,
            &exprs,
            &env,
            EvalLimits::benchmark(),
            3,
        ));
    }
    // Dense-universe probe: one fused SetMerge per evaluation over two
    // interleaved atom sets tiling 0..2n — the bulk columnar operation in
    // isolation (word-parallel union + O(1)-word novelty vs the generic
    // element-cursor merge).
    if selected(only, "dense_universe n=4096") {
        let n = 4096u64;
        let env = Env::new()
            .bind("A", Value::set((0..n).map(|i| Value::atom(2 * i))))
            .bind("B", Value::set((0..n).map(|i| Value::atom(2 * i + 1))));
        let program = Program::new(srl_core::Dialect::full());
        let exprs = [srl_bench::queries::dense_union()];
        probes.push(probe_lowered(
            "dense_universe n=4096",
            &program,
            &exprs,
            &env,
            EvalLimits::benchmark(),
            50,
        ));
    }
    // E5 pair-relation core: the reachability *relation* (pairs, not a
    // vertex set) at a size where the accumulated relation dwarfs the
    // inline tier — the accumulator and every round's frontier live in
    // generic tuple storage (per-edge pair-membership binary searches,
    // in-place round unions). The name is kept as a BENCH key.
    if selected(only, "E5 pair-reach n=1024") {
        use workloads::digraph::Digraph;
        let n = 1024usize;
        let g = Digraph::random(n, 2.0 / n as f64, 23 + n as u64);
        let env = Env::new()
            .bind("D", g.vertices_value())
            .bind("E", g.edges_value())
            .bind("K", Value::set((0..16u64).map(Value::atom)));
        let program = Program::new(srl_core::Dialect::full());
        let exprs = [srl_bench::queries::pair_reach_query()];
        probes.push(probe_lowered(
            "E5 pair-reach n=1024",
            &program,
            &exprs,
            &env,
            EvalLimits::benchmark(),
            3,
        ));
    }
    // E9 join core at 4x table size: both tables and the projected result
    // are tuple sets in generic storage — per probe one membership per
    // candidate pair and a tuple-accumulating filter fold. The name is
    // kept as a BENCH key.
    if selected(only, "E9 join-rows n=256") {
        use workloads::tables::CompanyDatabase;
        let n = 256usize;
        let db = CompanyDatabase::generate(n, (n / 4).max(1), 4, 31 + n as u64);
        let env = Env::new()
            .bind("EMP", db.employees_value())
            .bind("DEPT", db.departments_value());
        let program = Program::new(srl_core::Dialect::full());
        let exprs = [srl_bench::queries::company_join()];
        probes.push(probe_lowered(
            "E9 join-rows n=256",
            &program,
            &exprs,
            &env,
            EvalLimits::benchmark(),
            3,
        ));
    }
    // Dense-relation probe: one fused SetMerge per evaluation over two
    // interleaved pair relations — the tuple twin of `dense_universe`.
    // The generic merge pays a boxed tuple compare and an Arc clone per
    // element. The name is kept as a BENCH key.
    if selected(only, "E9 union-rows n=8192") {
        let n = 8192u64;
        let env = Env::new()
            .bind(
                "A",
                Value::set((0..n).map(|i| Value::tuple([Value::atom(2 * i), Value::atom(i)]))),
            )
            .bind(
                "B",
                Value::set((0..n).map(|i| Value::tuple([Value::atom(2 * i + 1), Value::atom(i)]))),
            );
        let program = Program::new(srl_core::Dialect::full());
        let exprs = [srl_bench::queries::dense_union()];
        probes.push(probe_lowered(
            "E9 union-rows n=8192",
            &program,
            &exprs,
            &env,
            EvalLimits::benchmark(),
            50,
        ));
    }
    // E9 pair-relation core: intersection of two *pair relations* — the
    // tuple twin of `E9 inter-ids`. Per element of the left relation one
    // membership binary search and one append into the accumulated
    // relation, all in generic tuple storage. The name is kept as a BENCH
    // key.
    if selected(only, "E9 inter-pairs n=4096") {
        let n = 4096u64;
        let env = Env::new()
            .bind(
                "IDS",
                Value::set((0..n).map(|i| Value::tuple([Value::atom(i), Value::atom(i + 1)]))),
            )
            .bind(
                "UNIV",
                Value::set(
                    (0..n)
                        .filter(|i| i % 4 != 3)
                        .map(|i| Value::tuple([Value::atom(i), Value::atom(i + 1)])),
                ),
            );
        let program = Program::new(srl_core::Dialect::full());
        let exprs = [srl_bench::queries::id_intersection()];
        probes.push(probe_lowered(
            "E9 inter-pairs n=4096",
            &program,
            &exprs,
            &env,
            EvalLimits::benchmark(),
            3,
        ));
    }
    // Product-relation probe: A × B built by bulk unions of pair blocks —
    // every accumulated element is an arity-2 plain-atom tuple in generic
    // storage, and each block re-merges into the whole accumulator.
    if selected(only, "product 96x64") {
        let (na, nb) = (96u64, 64u64);
        let env = Env::new()
            .bind("A", Value::set((0..na).map(Value::atom)))
            .bind("B", Value::set((0..nb).map(Value::atom)));
        let program = Program::new(srl_core::Dialect::full());
        let exprs = [srl_bench::queries::product_relation()];
        probes.push(probe_lowered(
            "product 96x64",
            &program,
            &exprs,
            &env,
            EvalLimits::benchmark(),
            3,
        ));
    }
    probes
}

fn print_table(probes: &[Probe]) {
    for p in probes {
        println!(
            "{} ({} runs): tree-walk {:?}, vm {:?}, vm-par[{}] {:?}, tier-off {:?}  ->  vm {:.2}x, par {:.2}x, tier {:.2}x",
            p.name,
            p.runs,
            p.tree,
            p.vm,
            p.par_threads,
            p.vm_par,
            p.vm_tier_off,
            p.vm_speedup(),
            p.par_speedup(),
            p.tier_speedup(),
        );
    }
}

fn print_json(probes: &[Probe]) {
    let mut out = String::from("[");
    for (i, p) in probes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{ \"probe\": \"{}\", \"runs\": {}, \"tree_walk_ms\": {:.1}, \"vm_ms\": {:.1}, \"vm_par_ms\": {:.1}, \"tier_off_ms\": {:.1}, \"par_threads\": {}, \"vm_speedup\": {:.2}, \"par_speedup\": {:.2}, \"tier_speedup\": {:.2} }}",
            p.name,
            p.runs,
            p.tree.as_secs_f64() * 1e3,
            p.vm.as_secs_f64() * 1e3,
            p.vm_par.as_secs_f64() * 1e3,
            p.vm_tier_off.as_secs_f64() * 1e3,
            p.par_threads,
            p.vm_speedup(),
            p.par_speedup(),
            p.tier_speedup(),
        ));
    }
    out.push_str("\n]");
    println!("{out}");
}

/// Every object carrying a `"probe"` name, in document order.
fn recorded_probes<'a>(json: &'a Json, out: &mut Vec<(&'a str, &'a Json)>) {
    if let Some(name) = json.get("probe").and_then(Json::as_str) {
        out.push((name, json));
    }
    match json {
        Json::Obj(fields) => fields.iter().for_each(|(_, v)| recorded_probes(v, out)),
        Json::Arr(items) => items.iter().for_each(|v| recorded_probes(v, out)),
        _ => {}
    }
}

/// The soft regression gate: compares the measured speedup ratios against
/// the probes recorded in a committed `BENCH_*.json` trajectory point.
/// Returns the number of regressions beyond the threshold, or an error
/// naming the recorded probes that pass the `only` filter but are missing
/// from `probes`.
fn check_against(
    probes: &[Probe],
    recorded: &Json,
    only: &[String],
    threshold_pct: f64,
) -> Result<usize, String> {
    let mut entries = Vec::new();
    recorded_probes(recorded, &mut entries);
    let unmeasured: Vec<&str> = entries
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| selected(only, name) && !probes.iter().any(|p| p.name == *name))
        .collect();
    if !unmeasured.is_empty() {
        return Err(format!(
            "recorded probe(s) selected but not measured: {}",
            unmeasured.join(", ")
        ));
    }
    let floor = 1.0 - threshold_pct / 100.0;
    let mut regressions = 0;
    for p in probes {
        let Some(&(_, entry)) = entries.iter().find(|(name, _)| *name == p.name) else {
            println!(
                "  [gate] {}: not tracked in the recorded trajectory, skipped",
                p.name
            );
            continue;
        };
        for (axis, key, measured) in [
            ("vm speedup", "vm_speedup", p.vm_speedup()),
            ("par speedup", "par_speedup", p.par_speedup()),
            ("tier speedup", "tier_speedup", p.tier_speedup()),
            // Older trajectory points (BENCH_3) record the backend-axis
            // ratio under "speedup".
            ("vm speedup", "speedup", p.vm_speedup()),
        ] {
            let Some(recorded_value) = entry.get(key).and_then(Json::as_f64) else {
                continue;
            };
            let required = recorded_value * floor;
            if measured < required {
                println!(
                    "  [gate] REGRESSION {}: {axis} {measured:.2}x < {required:.2}x (recorded {recorded_value:.2}x, threshold {threshold_pct}%)",
                    p.name
                );
                regressions += 1;
            } else {
                println!(
                    "  [gate] ok {}: {axis} {measured:.2}x vs recorded {recorded_value:.2}x",
                    p.name
                );
            }
        }
    }
    Ok(regressions)
}

/// Every value given to `flag`. A flag with nothing after it, or with
/// another `--` flag after it, is an error.
fn flag_values(args: &[String], flag: &str) -> Result<Vec<String>, String> {
    let mut values = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => values.push(value.clone()),
                _ => return Err(format!("{flag} expects a value")),
            }
        }
    }
    Ok(values)
}

/// The gate threshold in percent from `SRL_PERF_REGRESSION_PCT`'s value:
/// 25 when unset, an error unless it parses to a number in (0, 100).
fn regression_threshold(var: Option<&str>) -> Result<f64, String> {
    let Some(text) = var else {
        return Ok(25.0);
    };
    match text.trim().parse::<f64>() {
        Ok(pct) if pct > 0.0 && pct < 100.0 => Ok(pct),
        _ => Err(format!(
            "SRL_PERF_REGRESSION_PCT must be a number in (0, 100), got `{text}`"
        )),
    }
}

/// Prints a usage error and exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let (checks, only) = match (flag_values(&args, "--check"), flag_values(&args, "--only")) {
        (Ok(checks), Ok(only)) => (checks, only),
        (Err(e), _) | (_, Err(e)) => usage_error(&e),
    };
    let threshold =
        std::env::var_os("SRL_PERF_REGRESSION_PCT").map(|v| v.to_string_lossy().into_owned());
    let threshold = regression_threshold(threshold.as_deref()).unwrap_or_else(|e| usage_error(&e));
    // Every checked file is read before the probes run, so a bad path
    // costs nothing.
    let recorded: Vec<(&String, Json)> = checks
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                usage_error(&format!("cannot read recorded trajectory `{path}`: {e}"))
            });
            let parsed = Json::parse(&text).unwrap_or_else(|e| {
                usage_error(&format!("cannot parse recorded trajectory `{path}`: {e}"))
            });
            (path, parsed)
        })
        .collect();

    let probes = run_probes(&only);
    if let Some(filter) = only
        .iter()
        .find(|f| !probes.iter().any(|p| p.name.contains(f.as_str())))
    {
        usage_error(&format!("--only {filter:?} matches no probe"));
    }
    if json {
        print_json(&probes);
    } else {
        print_table(&probes);
    }
    let mut regressions = 0;
    for (path, recorded) in &recorded {
        println!("perf gate against {path} (threshold {threshold}%):");
        regressions += check_against(&probes, recorded, &only, threshold)
            .unwrap_or_else(|e| usage_error(&format!("{path}: {e}")));
        if regressions == 0 {
            println!("perf gate clean");
        }
    }
    if regressions > 0 {
        eprintln!("{regressions} tracked speedup(s) regressed beyond the threshold");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAME: &str = "E2 powerset n=12";

    fn recorded(vm_speedup: f64) -> Json {
        Json::parse(&format!(
            r#"{{"probes": [{{"probe": "{NAME}", "vm_speedup": {vm_speedup}, "par_speedup": 1.0, "tier_speedup": 1.0}}]}}"#
        ))
        .expect("valid JSON")
    }

    /// A probe whose VM runs `vm_speedup` times faster than the tree-walk
    /// and whose par and tier axes read 1.0.
    fn measured(vm_speedup: u64) -> Probe {
        let vm = Duration::from_millis(10);
        Probe {
            name: NAME.into(),
            runs: 1,
            tree: vm * vm_speedup as u32,
            vm,
            vm_par: vm,
            vm_tier_off: vm,
            par_threads: 1,
        }
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn a_recorded_probe_that_was_not_measured_fails_the_gate() {
        let err = check_against(&[], &recorded(3.0), &[], 40.0).unwrap_err();
        assert!(err.contains(NAME), "{err}");
        let only = args(&["E2 powerset"]);
        assert!(check_against(&[], &recorded(3.0), &only, 40.0).is_err());
    }

    #[test]
    fn a_recorded_probe_the_filter_deselects_is_not_required() {
        let only = args(&["E5"]);
        assert_eq!(check_against(&[], &recorded(3.0), &only, 40.0), Ok(0));
    }

    #[test]
    fn measured_ratios_are_gated_against_the_recorded_floor() {
        // 40% below a recorded 3.0x leaves a 1.8x floor.
        assert_eq!(
            check_against(&[measured(2)], &recorded(3.0), &[], 40.0),
            Ok(0)
        );
        assert_eq!(
            check_against(&[measured(1)], &recorded(3.0), &[], 40.0),
            Ok(1)
        );
    }

    #[test]
    fn the_threshold_defaults_to_25_and_rejects_what_does_not_parse() {
        assert_eq!(regression_threshold(None), Ok(25.0));
        assert_eq!(regression_threshold(Some("40")), Ok(40.0));
        assert_eq!(regression_threshold(Some("12.5")), Ok(12.5));
        for bad in ["40%", "", "abc", "0", "100", "-5", "NaN", "inf"] {
            let err = regression_threshold(Some(bad)).unwrap_err();
            assert!(err.contains("SRL_PERF_REGRESSION_PCT"), "{bad}: {err}");
        }
    }

    #[test]
    fn a_flag_without_a_value_is_an_error() {
        let words = args(&[
            "perfprobe",
            "--only",
            "E2",
            "--check",
            "BENCH_9.json",
            "--only",
            "E5",
        ]);
        assert_eq!(flag_values(&words, "--only"), Ok(args(&["E2", "E5"])));
        assert_eq!(flag_values(&words, "--check"), Ok(args(&["BENCH_9.json"])));
        for words in [
            &["perfprobe", "--only"][..],
            &["perfprobe", "--check", "--json"],
        ] {
            let flag = words[1];
            assert_eq!(
                flag_values(&args(words), flag),
                Err(format!("{flag} expects a value"))
            );
        }
    }
}
