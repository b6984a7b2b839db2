//! Shared helpers for the cross-crate integration tests.
//!
//! The tests live under `tests/`. This library gives them:
//!
//! * [`Matrix`], the one engine matrix every differential suite runs its
//!   cases through: the tree-walk and the VM at 1, 2 and 4 threads, each
//!   with the columnar set tiers on and off. It pins the byte-identity
//!   contract — equal values, printed forms and `EvalStats` on success, an
//!   equal `EvalError` (payload included) on failure — and hands back each
//!   run's shard count, tier engagements and partial statistics for the
//!   suite to assert. A new engine axis is added here, once.
//! * [`Gen`], the one SplitMix64 case stream the property-style suites
//!   draw from; their drawers stay in the suites as functions over it.
//! * small value constructors and readers of the compiled code.

use std::sync::Arc;

use srl_core::bytecode::{BlockId, Chunk, Insn, ReduceInsn};
use srl_core::parallel::PAR_WORK_THRESHOLD;
use srl_core::setrepr::with_atom_tier;
use srl_core::value::Value;
use srl_core::{
    CompiledProgram, Env, EvalError, EvalLimits, EvalStats, Evaluator, ExecBackend, Expr, Program,
    TierEngagements,
};

/// A set of unnamed atoms.
pub fn atom_set(items: impl IntoIterator<Item = u64>) -> Value {
    Value::set(items.into_iter().map(Value::atom))
}

/// Deep structural rebuild: every set in `v` is re-constructed under the
/// current tier setting, so a run with the tiers off really evaluates
/// generic-tier inputs rather than columnar values built earlier.
fn rebuild(v: &Value) -> Value {
    match v {
        Value::Bool(_) | Value::Atom(_) | Value::Nat(_) => v.clone(),
        Value::Tuple(items) => Value::tuple(items.iter().map(rebuild)),
        Value::Set(items) => Value::set(items.iter().map(|e| rebuild(&e))),
        Value::List(items) => Value::list(items.iter().map(rebuild)),
    }
}

/// The engines of the matrix: the tree-walk and the VM at 1, 2 and 4
/// threads. Four threads can outnumber the host's cores on purpose:
/// agreement must not depend on shards running concurrently.
pub const ENGINES: [(&str, ExecBackend); 4] = [
    ("tree", ExecBackend::TreeWalk),
    ("vm[1]", ExecBackend::Vm { threads: 1 }),
    ("vm[2]", ExecBackend::Vm { threads: 2 }),
    ("vm[4]", ExecBackend::Vm { threads: 4 }),
];

/// One run of the matrix: one engine under one tier setting.
#[derive(Debug)]
pub struct Run {
    /// The engine and tier setting, e.g. `vm[2] tier=off`.
    pub config: String,
    pub backend: ExecBackend,
    pub tier_on: bool,
    /// The value and statistics, or the error.
    pub outcome: Result<(Value, EvalStats), EvalError>,
    /// The statistics a failed run left behind (`last_error_stats`).
    pub partial: Option<EvalStats>,
    /// How many folds the run sharded (`parallel_folds`).
    pub sharded: u64,
    /// The run's columnar tier engagements.
    pub tiers: TierEngagements,
}

impl Run {
    /// Whether the run had a worker pool (the VM at 2 or 4 threads).
    pub fn pooled(&self) -> bool {
        matches!(self.backend, ExecBackend::Vm { threads: 2.. })
    }
}

/// Every run of one case, already checked to agree.
#[derive(Debug)]
pub struct Runs {
    label: String,
    /// Tiers on, then off; within each, the [`ENGINES`] in order (the
    /// tree-walk left out under [`Matrix::without_tree_walk`]).
    pub runs: Vec<Run>,
}

impl Runs {
    /// The value every engine returned; panics if the case failed.
    pub fn value(&self) -> Value {
        self.success().0.clone()
    }

    /// The `EvalStats` every engine reported; panics if the case failed.
    pub fn stats(&self) -> EvalStats {
        self.success().1
    }

    /// The error every engine raised; panics if the case succeeded.
    pub fn error(&self) -> &EvalError {
        match &self.runs[0].outcome {
            Err(e) => e,
            Ok((v, _)) => panic!("{}: expected a failure, got {v}", self.label),
        }
    }

    fn success(&self) -> &(Value, EvalStats) {
        match &self.runs[0].outcome {
            Ok(success) => success,
            Err(e) => panic!("{}: failed with {e:?}", self.label),
        }
    }
}

/// The engine matrix over one compiled program: every engine of
/// [`ENGINES`], each with the columnar tiers on and off.
pub struct Matrix {
    compiled: Arc<CompiledProgram>,
    limits: EvalLimits,
    tree_walk: bool,
}

impl Matrix {
    /// The matrix over `program` under the benchmark budget.
    pub fn new(program: &Program) -> Self {
        Matrix {
            compiled: Arc::new(program.compile()),
            limits: EvalLimits::benchmark(),
            tree_walk: true,
        }
    }

    /// The same matrix under `limits`.
    pub fn limits(self, limits: EvalLimits) -> Self {
        Matrix { limits, ..self }
    }

    /// The same matrix without the tree-walk, for the sharded-size inputs
    /// it takes seconds to minutes on: it copies a fold's shared
    /// accumulator on every insert, so its cost there is quadratic in the
    /// accumulator's size.
    pub fn without_tree_walk(self) -> Self {
        Matrix {
            tree_walk: false,
            ..self
        }
    }

    /// Runs `f` on every engine and tier setting, handing it `inputs`
    /// rebuilt under that setting, and asserts that every run agrees:
    ///
    /// * on success, equal values, printed forms and `EvalStats`;
    /// * on failure, an equal `EvalError`, payload included;
    /// * with the tiers off, no tier engagement; `rows` is always 0;
    /// * the tree-walk and the sequential VM never shard.
    ///
    /// Partial statistics, shard counts and tier engagements are returned
    /// for the caller to assert: partial statistics legitimately differ
    /// between the tree-walk and the VM, which charge a parent's step on
    /// opposite sides of its operands.
    pub fn run(
        &self,
        label: &str,
        inputs: &[Value],
        mut f: impl FnMut(&mut Evaluator, &[Value]) -> Result<Value, EvalError>,
    ) -> Runs {
        let mut runs = Vec::new();
        for tier_on in [true, false] {
            with_atom_tier(tier_on, || {
                let inputs: Vec<Value> = inputs.iter().map(rebuild).collect();
                for (name, backend) in ENGINES {
                    if backend == ExecBackend::TreeWalk && !self.tree_walk {
                        continue;
                    }
                    let mut ev = Evaluator::from_compiled(Arc::clone(&self.compiled), self.limits)
                        .with_backend(backend);
                    let outcome = f(&mut ev, &inputs).map(|v| (v, *ev.stats()));
                    runs.push(Run {
                        config: format!("{name} tier={}", if tier_on { "on" } else { "off" }),
                        backend,
                        tier_on,
                        outcome,
                        partial: ev.last_error_stats().copied(),
                        sharded: ev.parallel_folds(),
                        tiers: ev.tier_engagement_breakdown(),
                    });
                }
            });
        }
        let first = &runs[0];
        for run in &runs {
            let at = format!("{label} [{}]", run.config);
            match (&first.outcome, &run.outcome) {
                (Ok((v0, s0)), Ok((v, s))) => {
                    assert_eq!(v0, v, "{at}: values differ from [{}]", first.config);
                    assert_eq!(
                        v0.to_string(),
                        v.to_string(),
                        "{at}: printed forms differ from [{}]",
                        first.config
                    );
                    assert_eq!(s0, s, "{at}: EvalStats differ from [{}]", first.config);
                }
                (Err(e0), Err(e)) => {
                    assert_eq!(e0, e, "{at}: errors differ from [{}]", first.config)
                }
                (a, b) => panic!(
                    "{at}: [{}] gave {:?} but this run gave {:?}",
                    first.config,
                    a.as_ref().map(|(v, _)| v.to_string()),
                    b.as_ref().map(|(v, _)| v.to_string()),
                ),
            }
            if !run.tier_on {
                assert_eq!(run.tiers.total(), 0, "{at}: disabled tier engaged");
            }
            assert_eq!(run.tiers.rows, 0, "{at}: the retired rows tier engaged");
            if !run.pooled() {
                assert_eq!(run.sharded, 0, "{at}: a sequential engine sharded");
            }
        }
        Runs {
            label: label.to_string(),
            runs,
        }
    }

    /// Calls definition `name` on `args` on every engine; see [`Matrix::run`].
    pub fn call(&self, label: &str, name: &str, args: &[Value]) -> Runs {
        self.run(label, args, |ev, args| ev.call(name, args))
    }

    /// Evaluates `expr` over `env`'s bindings on every engine; see
    /// [`Matrix::run`].
    pub fn eval(&self, label: &str, expr: &Expr, env: &Env) -> Runs {
        let (names, values): (Vec<&str>, Vec<Value>) =
            env.iter().map(|(name, v)| (name, v.clone())).unzip();
        self.run(label, &values, |ev, values| {
            let mut env = Env::new();
            for (name, v) in names.iter().zip(values) {
                env.insert(*name, v.clone());
            }
            ev.eval(expr, &env)
        })
    }
}

/// SplitMix64: the deterministic case stream of the property-style suites.
/// Failures print their case index, so a case replays exactly. `Gen(state)`
/// starts from a raw state; [`Gen::new`] mixes a seed into it first.
pub struct Gen(pub u64);

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (from `0..1` when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The smallest input cardinality at which a fold whose static
/// per-element cost is `unit_cost` reaches `PAR_WORK_THRESHOLD`, so a pool
/// of two or more threads shards it. Inputs sized with this move with the
/// gate when it is recalibrated.
pub fn shard_cardinality(unit_cost: u32) -> u64 {
    PAR_WORK_THRESHOLD.div_ceil(u64::from(unit_cost))
}

/// The fused folds of one block of `chunk`, in code order.
fn block_folds(chunk: &Chunk, block: BlockId) -> impl Iterator<Item = &ReduceInsn> {
    chunk
        .block(block)
        .code()
        .iter()
        .filter_map(|insn| match insn {
            Insn::Reduce(r) => Some(&**r),
            _ => None,
        })
}

/// Every fused fold of `expr` compiled against `program` with the input
/// names `scope`, in block order.
pub fn expr_folds(program: &Program, expr: &Expr, scope: &[&str]) -> Vec<ReduceInsn> {
    let compiled = program.compile();
    let lowered = compiled.lower_expr(expr, scope);
    let chunk = lowered.code(&compiled);
    (0..chunk.blocks().len() as BlockId)
        .flat_map(|b| block_folds(chunk, b))
        .cloned()
        .collect()
}

/// The fold that computes `expr`: the last fold of its lowered root block.
pub fn root_fold(program: &Program, expr: &Expr, scope: &[&str]) -> ReduceInsn {
    let compiled = program.compile();
    let lowered = compiled.lower_expr(expr, scope);
    let chunk = lowered.code(&compiled);
    block_folds(chunk, chunk.main())
        .last()
        .expect("the expression's root is a fold")
        .clone()
}

/// The last fold in the body of definition `name`.
pub fn def_fold(program: &Program, name: &str) -> ReduceInsn {
    let compiled = program.compile();
    let def = compiled.def_id(name).expect("definition exists");
    let chunk = compiled.code();
    block_folds(chunk, chunk.defs()[def as usize].block)
        .last()
        .expect("the definition's body runs a fold")
        .clone()
}
