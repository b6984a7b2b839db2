//! The evaluator: a direct implementation of the Section 2 semantics.
//!
//! The semantics equations are implemented literally:
//!
//! ```text
//! (if true then e1 else e2)  = e1
//! (if false then e1 else e2) = e2
//! sel_i([e1, …, en])         = e_i
//! set-reduce(s, app, acc, base, extra) =
//!     if s = emptyset then base
//!     else acc(app(choose(s), extra), set-reduce(rest(s), app, acc, base, extra))
//! ```
//!
//! where `choose(S)` is the minimal element of `S` in the value order and
//! `rest(S)` is `S` without it. The recursion is evaluated iteratively, with
//! the accumulator combining elements **in ascending order** (the base value
//! meets `choose(S)` first): this is the traversal order every concrete
//! program in the paper assumes — `increment` "changes the second false to
//! true on the next step when we remember a + 1", and the `IP` scan of
//! Lemma 4.10 applies the permutations in index order. The Rust stack never
//! grows with the cardinality of the set.
//!
//! ## Zero-copy evaluation
//!
//! The evaluator does not walk the name-based [`Expr`] AST directly: at
//! construction it lowers the program once through [`crate::lower`] and then
//! runs the slot-indexed [`LExpr`] IR.
//!
//! * Variable access is `locals[frame_base + slot]` — no string comparison,
//!   no reverse scan of an association list.
//! * Calls borrow the compiled callee body through a shared
//!   [`CompiledProgram`]; the seed implementation deep-cloned the callee's
//!   entire AST on **every** call.
//! * `Value` payloads are `Arc`-shared (see [`crate::value`]), so the clones
//!   the semantics equations require — each element and the `extra` value per
//!   reduce iteration, the result of `choose` — are reference-count bumps,
//!   and `rest`/`insert` mutate uniquely-owned sets in place via
//!   [`Arc::make_mut`] instead of rebuilding them.
//!
//! None of this changes observable behaviour: the lowered tree mirrors the
//! AST node-for-node, so evaluation order, results, errors and every
//! [`EvalStats`] counter are identical to the tree-walking evaluator — the
//! logspace experiments (E3/E4) depend on those counters byte-for-byte.
//!
//! Evaluation is resource-bounded by [`EvalLimits`] and instrumented by
//! [`EvalStats`]; both are essential to the experiments: the statistics carry
//! the paper's cost model (`|S|` iterations, `T_ins` inserts, accumulator
//! size), and the limits keep the deliberately-exponential programs
//! (Example 3.12, the LRL blow-up) from exhausting memory.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::ast::Expr;
use crate::dialect::Dialect;
use crate::error::EvalError;
use crate::limits::{EvalLimits, EvalStats};
use crate::lower::{CompiledProgram, LExpr, LId, LLambda, LoweredExpr};
use crate::program::{Env, Program};
use crate::setrepr::{ColumnarKind, SetRepr};
use crate::value::{nat_weight, Value};

/// Cap used when measuring accumulator sizes: accumulators larger than this
/// are recorded as "at least the cap", which is all the logspace experiments
/// need to know, and keeps measurement from dominating evaluation time.
pub(crate) const ACCUMULATOR_WEIGHT_CAP: usize = 4_096;

/// Per-tier breakdown of the columnar engagement diagnostic: how many
/// `set-reduce` folds traversed or produced a set on each columnar tier
/// (see [`crate::setrepr`]). A fold counts **once**, under the traversed
/// set's tier when that is columnar, else under the produced set's, and
/// [`TierEngagements::total`] is the number of engaged folds. Deliberately
/// **not** part of [`EvalStats`]: the statistics are byte-identical
/// whether or not any tier engages, while this reports the storage
/// strategy.
///
/// A fused VM fold counts as the one fold it executes: the
/// [`ReduceKind::Product`](crate::bytecode::ReduceKind::Product) that
/// replaces the stdlib `cartesian`'s three nested folds records at most
/// one engagement where the tree-walk records one per nested fold, so on
/// programs that build a product the counts can differ between the VM and
/// the tree-walk. `EvalStats` do not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierEngagements {
    /// Folds engaging the sorted-`u32` atoms tier.
    pub atoms: u64,
    /// Folds engaging the dense bitset tier.
    pub bits: u64,
    /// Always 0. The struct-of-arrays rows tier it counted is retired:
    /// sets of tuples live in the generic tiers. Kept so existing readers
    /// and the v1 `tiers` object keep their three keys.
    pub rows: u64,
}

impl TierEngagements {
    /// Engagements across all columnar tiers.
    pub fn total(&self) -> u64 {
        self.atoms + self.bits
    }
}

impl std::ops::AddAssign for TierEngagements {
    fn add_assign(&mut self, rhs: Self) {
        self.atoms += rhs.atoms;
        self.bits += rhs.bits;
    }
}

/// Which execution engine an [`Evaluator`] runs.
///
/// Both backends execute the same compiled form ([`CompiledProgram`]) under
/// the same [`EvalLimits`] budget and produce **byte-identical results and
/// [`EvalStats`]** on every successful evaluation — the statistics carry the
/// paper's cost model, so they are part of the semantics, not a tuning knob
/// (`tests/tests/vm_differential.rs` pins this across the benchmark suite).
/// On error paths the error kind matches while partial counters may differ
/// by instruction reordering — with one caveat: a program that would cross
/// the step **and** depth budget inside the same fused batch may report
/// either limit error depending on the backend (see
/// `EvalCore::bump_batch`'s ordering note); which limits are exceeded is
/// still identical, as are all values and statistics whenever evaluation
/// succeeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecBackend {
    /// The recursive tree-walk over the lowered arena (this module) — the
    /// reference engine, still selectable everywhere.
    TreeWalk,
    /// The register bytecode VM (`crate::vm`) with superinstruction
    /// fusion ([`crate::bytecode`]); chunks are generated lazily, once per
    /// compiled program / lowered expression. The **default** backend (with
    /// `threads: 1`): it produces byte-identical results and statistics to
    /// the tree-walk (CI-gated both ways) and runs the benchmark suite
    /// 2.1–19.9× faster (`BENCH_3.json`).
    Vm {
        /// Worker-pool width for provably-splittable `set-reduce` folds
        /// (see [`crate::parallel`]). `0` and `1` both mean sequential
        /// execution; `n > 1` lets the VM shard proper-hom folds across up
        /// to `n` scoped threads. The thread count never changes results or
        /// [`EvalStats`] — the stats-determinism contract holds across the
        /// whole axis, exactly as it does across backends.
        threads: usize,
    },
}

impl Default for ExecBackend {
    fn default() -> Self {
        ExecBackend::vm()
    }
}

impl ExecBackend {
    /// The bytecode VM, sequential (`threads: 1`) — the default backend.
    pub fn vm() -> Self {
        ExecBackend::Vm { threads: 1 }
    }

    /// The bytecode VM with a worker pool of `threads` (normalized to at
    /// least 1; `vm_with_threads(1)` is exactly [`ExecBackend::vm`]).
    pub fn vm_with_threads(threads: usize) -> Self {
        ExecBackend::Vm {
            threads: threads.max(1),
        }
    }

    /// The effective worker-pool width: 1 for the tree-walk and the
    /// sequential VM, the configured count otherwise.
    pub fn threads(&self) -> usize {
        match self {
            ExecBackend::TreeWalk => 1,
            ExecBackend::Vm { threads } => (*threads).max(1),
        }
    }
}

/// The short name the REPL confirms a backend choice with: `vm`,
/// `vm (4 threads)` or `tree-walk`.
impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecBackend::TreeWalk => f.write_str("tree-walk"),
            ExecBackend::Vm { threads } if *threads <= 1 => f.write_str("vm"),
            ExecBackend::Vm { threads } => write!(f, "vm ({threads} threads)"),
        }
    }
}

/// A resource-bounded evaluator for a single [`Program`].
///
/// Construction lowers the program to the slot-indexed IR once; evaluation
/// then never touches names or clones definition bodies — the evaluator
/// runs entirely off the compiled form, which can be shared between
/// evaluators via [`Evaluator::from_compiled`]. The execution engine is
/// selected by [`ExecBackend`] (the bytecode VM by default; see
/// [`Evaluator::with_backend`]).
pub struct Evaluator {
    compiled: Arc<CompiledProgram>,
    core: EvalCore,
    backend: ExecBackend,
}

/// The mutable evaluation state, split from the compiled program so that the
/// interpreter loop can borrow a definition body (`&CompiledProgram`) and the
/// state (`&mut EvalCore`) simultaneously — calls are pure borrows, with no
/// per-call clone or reference-count traffic. Shared by both backends: the
/// bytecode VM uses `locals` as its register file (frames are slot registers
/// plus temporaries) and charges through the same accounting methods, which
/// is what keeps the two engines' statistics byte-identical.
pub(crate) struct EvalCore {
    pub(crate) limits: EvalLimits,
    pub(crate) stats: EvalStats,
    pub(crate) allocated_leaves: usize,
    /// The value stack: one slot per live binding (definition parameters,
    /// `let`s, lambda parameters), pushed in binding order. The VM widens
    /// each frame with its statically-sized temporary registers.
    pub(crate) locals: Vec<Value>,
    /// Start of the current call frame within `locals`.
    pub(crate) frame_base: usize,
    /// Diagnostic (not part of [`EvalStats`]): how many folds actually ran
    /// sharded across the worker pool. Lets tests and tools verify the
    /// parallel path engaged without perturbing the byte-identical stats.
    pub(crate) parallel_folds: u64,
    /// Diagnostic (not part of [`EvalStats`]): how many folds traversed or
    /// produced a columnar (atoms/bits tier) set, broken down by
    /// tier. Lets the differential suites prove the columnar tiers
    /// actually engaged on a workload without perturbing the
    /// byte-identical stats.
    pub(crate) tier_engagements: TierEngagements,
    /// The armed wall-clock deadline of the in-flight root evaluation
    /// ([`EvalLimits::deadline`] resolved to an instant at entry). Parallel
    /// shard workers inherit it, so each shard stops on the same clock.
    pub(crate) deadline_at: Option<Instant>,
    /// Step count at which the next deadline poll fires — the hot loop pays
    /// one integer compare per step; the clock read happens once per
    /// [`POLL_STRIDE`] steps.
    pub(crate) next_poll: u64,
    /// Snapshot of the statistics at the moment the last evaluation failed
    /// (deadline, limit, or any other error). The public stats
    /// roll back on failure so the evaluator stays reusable; this keeps the
    /// partial counters observable for logging and `--json` output.
    pub(crate) last_error_stats: Option<EvalStats>,
}

/// How many steps pass between deadline polls. Small enough
/// that a deadline overshoots by microseconds on ordinary programs, large
/// enough that the per-step cost is one predictable branch.
pub(crate) const POLL_STRIDE: u64 = 4_096;

impl Evaluator {
    /// Creates an evaluator over `program` with the given budget, lowering
    /// the program's definitions to the slot-indexed IR.
    pub fn new(program: &Program, limits: EvalLimits) -> Self {
        Self::from_compiled(Arc::new(CompiledProgram::compile(program)), limits)
    }

    /// Creates an evaluator over an already-compiled program (see
    /// [`Program::compile`]), so one compile serves many evaluators. The
    /// evaluator reads nothing but `compiled`: calls resolve through its
    /// definition table.
    pub fn from_compiled(compiled: Arc<CompiledProgram>, limits: EvalLimits) -> Self {
        Evaluator {
            compiled,
            core: EvalCore {
                limits,
                stats: EvalStats::default(),
                allocated_leaves: 0,
                locals: Vec::new(),
                frame_base: 0,
                parallel_folds: 0,
                tier_engagements: TierEngagements::default(),
                deadline_at: None,
                next_poll: POLL_STRIDE,
                last_error_stats: None,
            },
            backend: ExecBackend::default(),
        }
    }

    /// Selects the execution backend (builder form). Both backends honour
    /// the same limits and produce byte-identical results and statistics;
    /// the VM generates its bytecode lazily on first use and reuses it for
    /// the life of the shared [`CompiledProgram`] / [`LoweredExpr`].
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the execution backend in place.
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.backend = backend;
    }

    /// The currently selected execution backend.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &EvalStats {
        &self.core.stats
    }

    /// Diagnostic counter: how many `set-reduce` folds were actually
    /// executed sharded across the worker pool. It stays 0 under
    /// `threads ≤ 1`, under the tree-walk backend, and for folds whose
    /// `n × unit_cost` is below [`crate::parallel::PAR_WORK_THRESHOLD`]
    /// (about 1 ms of sequential work), which covers every fold of the
    /// E1–E9 queries at perfbench's batch sizes. Deliberately **not** part
    /// of [`EvalStats`]: the statistics are byte-identical across thread
    /// counts, while this counter reports the execution strategy.
    pub fn parallel_folds(&self) -> u64 {
        self.core.parallel_folds
    }

    /// Diagnostic counters: how many `set-reduce` folds traversed a
    /// columnar input or produced a columnar accumulator, per columnar tier
    /// (the sorted-`u32` atoms tier or the dense bitset tier, see
    /// [`crate::setrepr`]) — the traversed set's tier when columnar, else
    /// the produced set's. Like [`Evaluator::parallel_folds`], deliberately
    /// **not** part of [`EvalStats`]: the statistics are byte-identical
    /// whether or not the tier engages, while these counters report the
    /// storage strategy (and, unlike the statistics, may differ between
    /// backends on a fused product; see [`TierEngagements`]).
    pub fn tier_engagement_breakdown(&self) -> TierEngagements {
        self.core.tier_engagements
    }

    /// Resets the statistics and allocation counters (the budget stays).
    pub fn reset_stats(&mut self) {
        self.core.stats = EvalStats::default();
        self.core.allocated_leaves = 0;
        self.core.parallel_folds = 0;
        self.core.tier_engagements = TierEngagements::default();
        self.core.last_error_stats = None;
    }

    /// The statistics at the moment the most recent evaluation failed, if
    /// any. On failure the cumulative [`Evaluator::stats`] roll back to
    /// their pre-call values (so the evaluator answers the next query as if
    /// the failed one never ran); the partial counters of the failed run
    /// stay observable here until the next reset or failure.
    pub fn last_error_stats(&self) -> Option<&EvalStats> {
        self.core.last_error_stats.as_ref()
    }

    /// Evaluates an expression whose free variables are bound by `env`.
    ///
    /// This is the convenience one-shot path: it lowers `expr` against
    /// `env`'s names and evaluates immediately, so the scope/environment
    /// pairing cannot drift. For repeated evaluation, lower once with
    /// [`Evaluator::lower`] and call [`Evaluator::eval_lowered`].
    pub fn eval(&mut self, expr: &Expr, env: &Env) -> Result<Value, EvalError> {
        let lowered = self.lower(expr, env);
        self.eval_lowered(&lowered, env)
    }

    /// Lowers `expr` against the **names** of `env` for repeated evaluation
    /// via [`Evaluator::eval_lowered`] — the lower-once / evaluate-many
    /// path.
    ///
    /// Lowering is *scope*-dependent, not value-dependent: the environment's
    /// names (in binding order) become frame slots, so every free name of
    /// `expr` resolves **at lowering time** — a name missing from the scope
    /// becomes a poison node that errors if evaluated, never a late lookup.
    /// The resulting [`LoweredExpr`] records the scope it was lowered
    /// against; [`Evaluator::eval_lowered`] asserts (in debug builds) that
    /// the environment it is given binds those names in that order. Rebound
    /// *values* are fine — that is the repeated-evaluation use case.
    pub fn lower(&self, expr: &Expr, env: &Env) -> LoweredExpr {
        let scope: Vec<&str> = env.iter().map(|(n, _)| n).collect();
        self.compiled.lower_expr(expr, &scope)
    }

    /// Evaluates an already-lowered expression. **Contract:** `env` must
    /// bind the same names, in the same order, as the scope `lowered` was
    /// lowered against (slot indices are positional) — checked by a
    /// `debug_assert` against the recorded scope. Renamed *values* are fine.
    pub fn eval_lowered(&mut self, lowered: &LoweredExpr, env: &Env) -> Result<Value, EvalError> {
        debug_assert!(
            lowered.scope_names().len() == env.len()
                && lowered
                    .scope_names()
                    .iter()
                    .zip(env.iter())
                    .all(|(scope_name, (env_name, _))| scope_name == env_name),
            "eval_lowered: environment binds {:?} but the expression was lowered against {:?} — \
             free names resolve at lowering time, so the frames must agree positionally",
            env.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            lowered.scope_names(),
        );
        let compiled = &self.compiled;
        match self.backend {
            ExecBackend::TreeWalk => self
                .core
                .in_root_frame(env.iter().map(|(_, v)| v.clone()), |core| {
                    core.eval_in(compiled, lowered.nodes(), lowered.root_node(), 0)
                }),
            ExecBackend::Vm { .. } => {
                let ctx = crate::vm::VmCtx {
                    program: compiled,
                    pchunk: compiled.code(),
                    threads: self.backend.threads(),
                };
                let chunk = lowered.code(compiled);
                self.core
                    .in_root_frame(env.iter().map(|(_, v)| v.clone()), |core| {
                        crate::vm::run_expr(core, &ctx, chunk)
                    })
            }
        }
    }

    /// Calls a named definition on argument values.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        let def_id = self
            .compiled
            .def_id(name)
            .ok_or_else(|| EvalError::UnknownFunction(name.to_string()))?;
        let def = &self.compiled.defs()[def_id as usize];
        if def.params.len() != args.len() {
            return Err(EvalError::Shape {
                operator: "call",
                expected: "matching argument count",
                found: format!(
                    "{name}: {} parameter(s), {} argument(s)",
                    def.params.len(),
                    args.len()
                ),
            });
        }
        let compiled = &self.compiled;
        match self.backend {
            ExecBackend::TreeWalk => {
                let body = def.body;
                self.core.in_root_frame(args.iter().cloned(), |core| {
                    let nodes = compiled.nodes();
                    core.eval_in(compiled, nodes, &nodes[body.index()], 0)
                })
            }
            ExecBackend::Vm { .. } => {
                let ctx = crate::vm::VmCtx {
                    program: compiled,
                    pchunk: compiled.code(),
                    threads: self.backend.threads(),
                };
                self.core.in_root_frame(args.iter().cloned(), |core| {
                    crate::vm::run_def(core, &ctx, def_id)
                })
            }
        }
    }
}

impl EvalCore {
    /// Records one fold's tier engagement: a fold that traversed or
    /// produced a columnar set counts once, under the traversed set's tier
    /// when that is columnar, else under the produced set's. Shared by the
    /// tree-walk and both VM reduce paths, so every backend counts the
    /// folds it executes the same way (a fused product is one fold, see
    /// [`TierEngagements`]).
    pub(crate) fn record_tier_engagement(&mut self, items: &SetRepr, produced: &Value) {
        let kind = items.columnar_kind().or_else(|| match produced {
            Value::Set(s) => s.columnar_kind(),
            _ => None,
        });
        match kind {
            Some(ColumnarKind::Atoms) => self.tier_engagements.atoms += 1,
            Some(ColumnarKind::Bits) => self.tier_engagements.bits += 1,
            None => {}
        }
    }

    /// Installs a fresh root frame holding `inputs`, runs `body`, and drops
    /// the frame eagerly — shared by [`Evaluator::eval_lowered`] and
    /// [`Evaluator::call`]. Dropping before returning (not at the next
    /// evaluation) matters twice over: a long-lived evaluator must not pin
    /// the inputs' payloads, and stale references would force needless
    /// copy-on-write later.
    ///
    /// It is also the hardening boundary: entry resolves
    /// [`EvalLimits::deadline`] to a concrete instant; on failure the
    /// statistics and allocation counters roll back to their entry values
    /// (the partial counters are preserved in `last_error_stats`), so an
    /// evaluator that timed out or hit a budget answers its next query
    /// exactly like a fresh one.
    fn in_root_frame(
        &mut self,
        inputs: impl Iterator<Item = Value>,
        body: impl FnOnce(&mut Self) -> Result<Value, EvalError>,
    ) -> Result<Value, EvalError> {
        self.locals.clear();
        self.frame_base = 0;
        self.deadline_at = self.limits.deadline.map(|d| Instant::now() + d);
        self.next_poll = self.stats.steps.saturating_add(POLL_STRIDE);
        let entry_stats = self.stats;
        let entry_leaves = self.allocated_leaves;
        self.locals.reserve(128);
        self.locals.extend(inputs);
        let result = body(self);
        self.locals.clear();
        self.deadline_at = None;
        if result.is_err() {
            self.last_error_stats = Some(self.stats);
            self.stats = entry_stats;
            self.allocated_leaves = entry_leaves;
        }
        result
    }

    #[inline]
    pub(crate) fn bump_step(&mut self, depth: usize) -> Result<(), EvalError> {
        self.stats.steps += 1;
        if self.stats.steps > self.limits.max_steps {
            return Err(EvalError::StepLimitExceeded {
                limit: self.limits.max_steps,
            });
        }
        if depth > self.limits.max_depth {
            return Err(EvalError::DepthLimitExceeded {
                limit: self.limits.max_depth,
            });
        }
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if self.stats.steps >= self.next_poll {
            self.poll_deadline()?;
        }
        Ok(())
    }

    /// Charges `count` steps whose deepest visit is `max_depth` in one
    /// batch — the VM's fused folds use this for step sequences whose
    /// counts are value-independent. Sound because both budgets are
    /// monotone: the batch total crosses the step limit iff some single
    /// bump inside it would have, and some visit exceeds the depth limit
    /// iff the deepest one does. (When a batch would trip *both* limits,
    /// the step error wins; the tree-walk reports whichever its
    /// interleaving reached first — error kinds on such double-limit
    /// programs may differ, values and success-path statistics cannot.)
    #[inline]
    pub(crate) fn bump_batch(&mut self, count: u64, max_depth: usize) -> Result<(), EvalError> {
        self.stats.steps += count;
        if self.stats.steps > self.limits.max_steps {
            return Err(EvalError::StepLimitExceeded {
                limit: self.limits.max_steps,
            });
        }
        if max_depth > self.limits.max_depth {
            return Err(EvalError::DepthLimitExceeded {
                limit: self.limits.max_depth,
            });
        }
        self.stats.max_depth = self.stats.max_depth.max(max_depth);
        if self.stats.steps >= self.next_poll {
            self.poll_deadline()?;
        }
        Ok(())
    }

    /// The amortized deadline poll: consulted every [`POLL_STRIDE`] steps by
    /// [`EvalCore::bump_step`] / [`EvalCore::bump_batch`], it reads the wall
    /// clock only when a deadline is armed.
    #[cold]
    fn poll_deadline(&mut self) -> Result<(), EvalError> {
        self.next_poll = self.stats.steps.saturating_add(POLL_STRIDE);
        match self.deadline_at {
            Some(at) if Instant::now() >= at => Err(self.deadline_error()),
            _ => Ok(()),
        }
    }

    /// The `DeadlineExceeded` error carrying the configured budget.
    pub(crate) fn deadline_error(&self) -> EvalError {
        let limit_ms = self
            .limits
            .deadline
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        EvalError::DeadlineExceeded { limit_ms }
    }

    /// Counts one per-element fold iteration. Also the hook where the
    /// [`crate::faultpoint::DEADLINE_MID_FOLD`] fault point deterministically
    /// simulates a deadline expiry on the k-th iteration (one relaxed load
    /// per element when no fault is armed).
    #[inline]
    pub(crate) fn note_iteration(&mut self) -> Result<(), EvalError> {
        self.stats.reduce_iterations += 1;
        if crate::faultpoint::armed(crate::faultpoint::DEADLINE_MID_FOLD)
            .is_some_and(|k| self.stats.reduce_iterations >= k)
        {
            return Err(self.deadline_error());
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn charge_allocation(&mut self, leaves: usize) -> Result<(), EvalError> {
        self.allocated_leaves = self.allocated_leaves.saturating_add(leaves);
        self.stats.max_value_weight = self.stats.max_value_weight.max(self.allocated_leaves);
        if self.allocated_leaves > self.limits.max_value_weight {
            return Err(EvalError::SizeLimitExceeded {
                limit: self.limits.max_value_weight,
            });
        }
        Ok(())
    }

    /// Records an accumulator weight observation (the per-iteration update
    /// of `max_accumulator_weight`).
    #[inline]
    pub(crate) fn note_accumulator_weight(&mut self, w: usize) {
        self.stats.max_accumulator_weight = self.stats.max_accumulator_weight.max(w);
    }

    /// Borrows a VM register of the current frame.
    #[inline]
    pub(crate) fn reg(&self, r: u16) -> &Value {
        &self.locals[self.frame_base + r as usize]
    }

    /// Moves a VM register's value out, leaving a placeholder.
    #[inline]
    pub(crate) fn take_reg(&mut self, r: u16) -> Value {
        let index = self.frame_base + r as usize;
        std::mem::replace(&mut self.locals[index], Value::Bool(false))
    }

    /// Writes a VM register.
    #[inline]
    pub(crate) fn set_reg(&mut self, r: u16, v: Value) {
        let index = self.frame_base + r as usize;
        self.locals[index] = v;
    }

    /// Drops the values left in a reduce's lambda-parameter slots after the
    /// loop (the tree-walk pops them per application; a long-lived frame
    /// must not pin the last element's payload).
    #[inline]
    pub(crate) fn clear_lambda_slots(&mut self, x: u16) {
        self.set_reg(x, Value::Bool(false));
        self.set_reg(x + 1, Value::Bool(false));
    }

    /// `insert(elem, set)` with the paper's accounting — shape check first
    /// (like the tree-walk's match), then one insert counted and the
    /// element's weight charged, then the copy-on-write insert. Returns the
    /// grown set. Shared by both backends so the shape error, the stats
    /// order and the COW discipline cannot diverge.
    pub(crate) fn insert_value(&mut self, elem: Value, set: Value) -> Result<Value, EvalError> {
        match set {
            Value::Set(mut items) => {
                self.stats.inserts += 1;
                let weight = elem.weight();
                self.charge_allocation(weight)?;
                // Copy-on-write: in place when uniquely owned.
                Arc::make_mut(&mut items).insert_weighted(elem, weight);
                Ok(Value::Set(items))
            }
            other => Err(EvalError::Shape {
                operator: "insert",
                expected: "a set as second argument",
                found: other.to_string(),
            }),
        }
    }

    /// `cons(elem, list)` with the paper's accounting; shared by both
    /// backends like [`EvalCore::insert_value`].
    pub(crate) fn cons_value(&mut self, elem: Value, list: Value) -> Result<Value, EvalError> {
        match list {
            Value::List(mut items) => {
                self.stats.inserts += 1;
                self.charge_allocation(elem.weight())?;
                Arc::make_mut(&mut items).insert(0, elem);
                Ok(Value::List(items))
            }
            other => Err(EvalError::Shape {
                operator: "cons",
                expected: "a list as second argument",
                found: other.to_string(),
            }),
        }
    }

    /// Borrows a frame slot (peephole paths that never need ownership).
    #[inline]
    fn local_ref(&self, slot: u32) -> Result<&Value, EvalError> {
        self.locals
            .get(self.frame_base + slot as usize)
            .ok_or_else(|| EvalError::UnboundVariable(format!("<slot {slot}>")))
    }

    /// Reads a frame slot. Lowering guarantees the slot is in range whenever
    /// the compile-time scope matched the runtime frame, so a miss is an
    /// internal invariant violation, reported as an unbound variable rather
    /// than a panic.
    #[inline]
    fn local(&self, slot: u32) -> Result<Value, EvalError> {
        self.locals
            .get(self.frame_base + slot as usize)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable(format!("<slot {slot}>")))
    }

    fn eval_in(
        &mut self,
        compiled: &CompiledProgram,
        nodes: &[LExpr],
        expr: &LExpr,
        depth: usize,
    ) -> Result<Value, EvalError> {
        self.bump_step(depth)?;
        match expr {
            LExpr::Bool(b) => Ok(Value::Bool(*b)),
            LExpr::Const(v) => Ok(v.clone()),
            LExpr::Local(slot) => self.local(*slot),
            LExpr::UnboundVar(name) => Err(EvalError::UnboundVariable(name.clone())),
            LExpr::If(c, t, e) => {
                let cond = self.eval_in(compiled, nodes, &nodes[c.index()], depth + 1)?;
                match cond {
                    Value::Bool(true) => {
                        self.eval_in(compiled, nodes, &nodes[t.index()], depth + 1)
                    }
                    Value::Bool(false) => {
                        self.eval_in(compiled, nodes, &nodes[e.index()], depth + 1)
                    }
                    other => Err(EvalError::Shape {
                        operator: "if",
                        expected: "a boolean condition",
                        found: other.to_string(),
                    }),
                }
            }
            LExpr::Tuple(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval_in(compiled, nodes, &nodes[item.index()], depth + 1)?);
                }
                self.charge_allocation(1)?;
                Ok(Value::Tuple(Arc::from(out)))
            }
            LExpr::Sel(index, e) => {
                // Peephole: `sel_i(x)` on a variable borrows the frame slot
                // and clones only the selected component — the common case
                // in every accumulator-scanning program. Steps, depths and
                // errors are identical to evaluating the `Local` child.
                if let LExpr::Local(slot) = &nodes[e.index()] {
                    self.bump_step(depth + 1)?;
                    return sel_component(self.local_ref(*slot)?, *index);
                }
                let v = self.eval_in(compiled, nodes, &nodes[e.index()], depth + 1)?;
                sel_component(&v, *index)
            }
            LExpr::Eq(a, b) => self.eval_comparison(compiled, nodes, *a, *b, depth, |x, y| x == y),
            LExpr::Leq(a, b) => self.eval_comparison(compiled, nodes, *a, *b, depth, |x, y| x <= y),
            LExpr::EmptySet => Ok(Value::empty_set()),
            LExpr::Insert(elem, set) => {
                let v = self.eval_in(compiled, nodes, &nodes[elem.index()], depth + 1)?;
                let s = self.eval_in(compiled, nodes, &nodes[set.index()], depth + 1)?;
                self.insert_value(v, s)
            }
            LExpr::Choose(e) => {
                // Peephole: `choose(x)` on a variable borrows the slot and
                // clones only the minimum element.
                if let LExpr::Local(slot) = &nodes[e.index()] {
                    self.bump_step(depth + 1)?;
                    return choose_min(self.local_ref(*slot)?);
                }
                let s = self.eval_in(compiled, nodes, &nodes[e.index()], depth + 1)?;
                choose_min(&s)
            }
            LExpr::Rest(e) => {
                let s = self.eval_in(compiled, nodes, &nodes[e.index()], depth + 1)?;
                rest_value(s)
            }
            LExpr::SetReduce {
                set,
                app,
                acc,
                base,
                extra,
            } => {
                let set_v = self.eval_in(compiled, nodes, &nodes[set.index()], depth + 1)?;
                let base_v = self.eval_in(compiled, nodes, &nodes[base.index()], depth + 1)?;
                let extra_v = self.eval_in(compiled, nodes, &nodes[extra.index()], depth + 1)?;
                let items = match set_v {
                    Value::Set(items) => items,
                    other => {
                        return Err(EvalError::Shape {
                            operator: "set-reduce",
                            expected: "a set as first argument",
                            found: other.to_string(),
                        })
                    }
                };
                // The accumulator combines the elements in the choose/rest
                // order (ascending): base first meets the minimal element.
                // `elem.clone()` / `extra_v.clone()` are O(1) Arc bumps.
                let mut accumulator = base_v;
                for elem in items.iter() {
                    self.note_iteration()?;
                    let applied = self.apply(
                        compiled,
                        nodes,
                        *app,
                        elem.clone(),
                        extra_v.clone(),
                        depth + 1,
                    )?;
                    accumulator =
                        self.apply(compiled, nodes, *acc, applied, accumulator, depth + 1)?;
                    let w = weight_capped(&accumulator, ACCUMULATOR_WEIGHT_CAP);
                    self.stats.max_accumulator_weight = self.stats.max_accumulator_weight.max(w);
                }
                // Diagnostic parity with the VM: a fold that traversed or
                // produced a columnar set counts as one tier engagement.
                self.record_tier_engagement(&items, &accumulator);
                Ok(accumulator)
            }
            LExpr::ListReduce {
                list,
                app,
                acc,
                base,
                extra,
            } => {
                require_dialect(
                    &compiled.dialect,
                    compiled.dialect.allow_lists,
                    "list-reduce",
                )?;
                let list_v = self.eval_in(compiled, nodes, &nodes[list.index()], depth + 1)?;
                let base_v = self.eval_in(compiled, nodes, &nodes[base.index()], depth + 1)?;
                let extra_v = self.eval_in(compiled, nodes, &nodes[extra.index()], depth + 1)?;
                let items = match list_v {
                    Value::List(items) => items,
                    other => {
                        return Err(EvalError::Shape {
                            operator: "list-reduce",
                            expected: "a list as first argument",
                            found: other.to_string(),
                        })
                    }
                };
                // Lists are traversed in their stored order (head first),
                // exactly like the set case but without sorting.
                let mut accumulator = base_v;
                for elem in items.iter() {
                    self.note_iteration()?;
                    let applied = self.apply(
                        compiled,
                        nodes,
                        *app,
                        elem.clone(),
                        extra_v.clone(),
                        depth + 1,
                    )?;
                    accumulator =
                        self.apply(compiled, nodes, *acc, applied, accumulator, depth + 1)?;
                    let w = weight_capped(&accumulator, ACCUMULATOR_WEIGHT_CAP);
                    self.stats.max_accumulator_weight = self.stats.max_accumulator_weight.max(w);
                }
                Ok(accumulator)
            }
            LExpr::Call { def, args } => {
                // Borrow the compiled body — the seed evaluator deep-cloned
                // the callee's AST here.
                let callee = &compiled.defs()[*def as usize];
                if callee.params.len() != args.len() {
                    return Err(EvalError::Shape {
                        operator: "call",
                        expected: "matching argument count",
                        found: format!(
                            "{}: {} parameter(s), {} argument(s)",
                            compiled.def_name(callee),
                            callee.params.len(),
                            args.len()
                        ),
                    });
                }
                // Arguments are buffered before any is pushed: a binder
                // (`let`, a reduce lambda) inside a later argument resolves
                // its slots against the *caller's* frame layout, which must
                // not yet contain the earlier arguments' values.
                let mut arg_values = Vec::with_capacity(args.len());
                for a in args {
                    arg_values.push(self.eval_in(compiled, nodes, &nodes[a.index()], depth + 1)?);
                }
                let saved_base = self.frame_base;
                let new_base = self.locals.len();
                self.locals.append(&mut arg_values);
                self.frame_base = new_base;
                let result = self.eval_in(
                    compiled,
                    compiled.nodes(),
                    &compiled.nodes()[callee.body.index()],
                    depth + 1,
                );
                self.locals.truncate(new_base);
                self.frame_base = saved_base;
                result
            }
            LExpr::CallUnknown(name) => Err(EvalError::UnknownFunction(name.clone())),
            LExpr::Let { value, body } => {
                let v = self.eval_in(compiled, nodes, &nodes[value.index()], depth + 1)?;
                self.locals.push(v);
                let result = self.eval_in(compiled, nodes, &nodes[body.index()], depth + 1);
                self.locals.pop();
                result
            }
            LExpr::New(e) => {
                require_dialect(&compiled.dialect, compiled.dialect.allow_new, "new")?;
                let v = self.eval_in(compiled, nodes, &nodes[e.index()], depth + 1)?;
                self.stats.new_values += 1;
                Ok(Value::Atom(crate::value::Atom::new(next_fresh_index(&v))))
            }
            LExpr::NatConst(n) => {
                require_dialect(
                    &compiled.dialect,
                    compiled.dialect.allow_nat,
                    "nat constant",
                )?;
                Ok(Value::Nat(n.clone()))
            }
            LExpr::Succ(e) => {
                require_dialect(&compiled.dialect, compiled.dialect.allow_nat, "succ")?;
                let n = self.expect_nat(compiled, nodes, e, depth, "succ")?;
                self.check_nat_width(n.bit_len() + 1)?;
                Ok(Value::Nat(n.succ()))
            }
            LExpr::NatAdd(a, b) => {
                require_dialect(
                    &compiled.dialect,
                    compiled.dialect.allow_nat_add,
                    "nat addition",
                )?;
                let na = self.expect_nat(compiled, nodes, a, depth, "+")?;
                let nb = self.expect_nat(compiled, nodes, b, depth, "+")?;
                self.check_nat_width(na.bit_len().max(nb.bit_len()) + 1)?;
                Ok(Value::Nat(na.add(&nb)))
            }
            LExpr::NatMul(a, b) => {
                require_dialect(
                    &compiled.dialect,
                    compiled.dialect.allow_nat_mul,
                    "nat multiplication",
                )?;
                let na = self.expect_nat(compiled, nodes, a, depth, "*")?;
                let nb = self.expect_nat(compiled, nodes, b, depth, "*")?;
                self.check_nat_width(na.bit_len() + nb.bit_len())?;
                Ok(Value::Nat(na.mul(&nb)))
            }
            LExpr::EmptyList => {
                require_dialect(&compiled.dialect, compiled.dialect.allow_lists, "emptylist")?;
                Ok(Value::empty_list())
            }
            LExpr::Cons(elem, list) => {
                require_dialect(&compiled.dialect, compiled.dialect.allow_lists, "cons")?;
                let v = self.eval_in(compiled, nodes, &nodes[elem.index()], depth + 1)?;
                let l = self.eval_in(compiled, nodes, &nodes[list.index()], depth + 1)?;
                self.cons_value(v, l)
            }
            LExpr::Head(e) => {
                require_dialect(&compiled.dialect, compiled.dialect.allow_lists, "head")?;
                let l = self.eval_in(compiled, nodes, &nodes[e.index()], depth + 1)?;
                head_value(l)
            }
            LExpr::Tail(e) => {
                require_dialect(&compiled.dialect, compiled.dialect.allow_lists, "tail")?;
                let l = self.eval_in(compiled, nodes, &nodes[e.index()], depth + 1)?;
                tail_value(l)
            }
        }
    }

    /// `Eq`/`Leq` share one code path so the stats byte-identity contract is
    /// protected by a single implementation. Peephole: comparing two
    /// variables borrows both slots — no clones — with step/depth accounting
    /// identical to evaluating the two `Local` children.
    #[inline]
    fn eval_comparison(
        &mut self,
        compiled: &CompiledProgram,
        nodes: &[LExpr],
        a: LId,
        b: LId,
        depth: usize,
        compare: impl Fn(&Value, &Value) -> bool,
    ) -> Result<Value, EvalError> {
        if let (LExpr::Local(sa), LExpr::Local(sb)) = (&nodes[a.index()], &nodes[b.index()]) {
            self.bump_step(depth + 1)?;
            self.bump_step(depth + 1)?;
            let va = self.local_ref(*sa)?;
            let vb = self.local_ref(*sb)?;
            return Ok(Value::Bool(compare(va, vb)));
        }
        let va = self.eval_in(compiled, nodes, &nodes[a.index()], depth + 1)?;
        let vb = self.eval_in(compiled, nodes, &nodes[b.index()], depth + 1)?;
        Ok(Value::Bool(compare(&va, &vb)))
    }

    fn apply(
        &mut self,
        compiled: &CompiledProgram,
        nodes: &[LExpr],
        lambda: LLambda,
        x: Value,
        y: Value,
        depth: usize,
    ) -> Result<Value, EvalError> {
        self.locals.push(x);
        self.locals.push(y);
        let result = self.eval_in(compiled, nodes, &nodes[lambda.body.index()], depth + 1);
        self.locals.pop();
        self.locals.pop();
        result
    }

    fn expect_nat(
        &mut self,
        compiled: &CompiledProgram,
        nodes: &[LExpr],
        e: &LId,
        depth: usize,
        operator: &'static str,
    ) -> Result<crate::bignat::BigNat, EvalError> {
        match self.eval_in(compiled, nodes, &nodes[e.index()], depth + 1)? {
            Value::Nat(n) => Ok(n),
            other => Err(EvalError::Shape {
                operator,
                expected: "a natural number",
                found: other.to_string(),
            }),
        }
    }

    pub(crate) fn check_nat_width(&self, bits: usize) -> Result<(), EvalError> {
        if bits > self.limits.max_nat_bits {
            Err(EvalError::NatWidthExceeded {
                limit_bits: self.limits.max_nat_bits,
            })
        } else {
            Ok(())
        }
    }
}

/// Rejects `operator` when the dialect does not allow it.
pub(crate) fn require_dialect(
    dialect: &Dialect,
    allowed: bool,
    operator: &str,
) -> Result<(), EvalError> {
    if allowed {
        Ok(())
    } else {
        Err(EvalError::DialectViolation {
            operator: operator.to_string(),
            dialect: dialect.name.to_string(),
        })
    }
}

/// `sel_i(v)` borrowing the component: shared by the tree-walk, the
/// Local-slot peephole and the VM's fused operands, so none can diverge.
pub(crate) fn sel_component_ref(v: &Value, index: usize) -> Result<&Value, EvalError> {
    match v {
        Value::Tuple(items) => {
            if index == 0 || index > items.len() {
                Err(EvalError::SelectorOutOfRange {
                    index,
                    arity: items.len(),
                })
            } else {
                Ok(&items[index - 1])
            }
        }
        other => Err(EvalError::Shape {
            operator: "sel",
            expected: "a tuple",
            found: other.to_string(),
        }),
    }
}

/// `sel_i(v)`: the i-th tuple component (1-based), cloned.
fn sel_component(v: &Value, index: usize) -> Result<Value, EvalError> {
    sel_component_ref(v, index).cloned()
}

/// `rest(v)`: the set without its minimum — one traversal pops it, with no
/// rebuild when the payload is uniquely owned. Shared by both backends.
pub(crate) fn rest_value(v: Value) -> Result<Value, EvalError> {
    match v {
        Value::Set(mut items) => {
            if items.is_empty() {
                return Err(EvalError::ChooseFromEmptySet);
            }
            Arc::make_mut(&mut items).pop_first();
            Ok(Value::Set(items))
        }
        other => Err(EvalError::Shape {
            operator: "rest",
            expected: "a set",
            found: other.to_string(),
        }),
    }
}

/// `head(v)`: the first list element, cloned. Shared by both backends.
pub(crate) fn head_value(v: Value) -> Result<Value, EvalError> {
    match v {
        Value::List(items) => items.first().cloned().ok_or(EvalError::ChooseFromEmptySet),
        other => Err(EvalError::Shape {
            operator: "head",
            expected: "a list",
            found: other.to_string(),
        }),
    }
}

/// `tail(v)`: the list without its head — removed in place when uniquely
/// owned, rebuilt in one pass (instead of make_mut's full copy + shift)
/// when shared. Shared by both backends.
pub(crate) fn tail_value(v: Value) -> Result<Value, EvalError> {
    match v {
        Value::List(mut items) => {
            if items.is_empty() {
                Err(EvalError::ChooseFromEmptySet)
            } else if let Some(unique) = Arc::get_mut(&mut items) {
                unique.remove(0);
                Ok(Value::List(items))
            } else {
                Ok(Value::List(Arc::new(items[1..].to_vec())))
            }
        }
        other => Err(EvalError::Shape {
            operator: "tail",
            expected: "a list",
            found: other.to_string(),
        }),
    }
}

/// `choose(v)`: the minimal element of a non-empty set, shared by the
/// general evaluation path, the Local-slot peephole and the VM.
pub(crate) fn choose_min(v: &Value) -> Result<Value, EvalError> {
    match v {
        Value::Set(items) => items.first().ok_or(EvalError::ChooseFromEmptySet),
        other => Err(EvalError::Shape {
            operator: "choose",
            expected: "a set",
            found: other.to_string(),
        }),
    }
}

/// The smallest atom rank not occurring anywhere in `v` (and at least one
/// larger than every atom that does occur) — the deterministic realisation of
/// the paper's `new(D) ∉ D`.
pub(crate) fn next_fresh_index(v: &Value) -> u64 {
    fn max_atom(v: &Value, cur: &mut Option<u64>) {
        match v {
            Value::Atom(a) => {
                *cur = Some(cur.map_or(a.index, |c| c.max(a.index)));
            }
            Value::Bool(_) | Value::Nat(_) => {}
            Value::Tuple(items) => {
                for i in items.iter() {
                    max_atom(i, cur);
                }
            }
            Value::List(items) => {
                for i in items.iter() {
                    max_atom(i, cur);
                }
            }
            Value::Set(items) => {
                // Columnar tiers know their maximum id without a walk.
                if let Some(max) = items.columnar_max_id() {
                    if let Some(m) = max {
                        *cur = Some(cur.map_or(m, |c| c.max(m)));
                    }
                } else {
                    for i in items.value_slice().expect("non-columnar set") {
                        max_atom(i, cur);
                    }
                }
            }
        }
    }
    let mut cur = None;
    max_atom(v, &mut cur);
    cur.map_or(0, |c| c + 1)
}

/// `min(v.weight(), cap + 1)`: exact while the weight stays within `cap`,
/// `cap + 1` beyond. Sets charge their cached element weight in one step,
/// so only tuples and lists are walked, and never past the cap.
pub fn weight_capped(v: &Value, cap: usize) -> usize {
    fn take(n: usize, budget: &mut usize) -> bool {
        if n <= *budget {
            *budget -= n;
            true
        } else {
            *budget = 0;
            false
        }
    }
    fn go(v: &Value, budget: &mut usize) -> bool {
        match v {
            Value::Bool(_) | Value::Atom(_) => take(1, budget),
            Value::Nat(n) => take(nat_weight(n), budget),
            Value::Tuple(items) => take(1, budget) && items.iter().all(|i| go(i, budget)),
            Value::List(items) => take(1, budget) && items.iter().all(|i| go(i, budget)),
            Value::Set(items) => take(1 + items.weight_sum(), budget),
        }
    }
    let mut budget = cap;
    if go(v, &mut budget) {
        cap - budget
    } else {
        cap + 1
    }
}

/// Evaluates a stand-alone expression (no named definitions) against an
/// environment, in the `full` dialect.
pub fn eval_expr(expr: &Expr, env: &Env, limits: EvalLimits) -> Result<Value, EvalError> {
    let program = Program::new(Dialect::full());
    let mut evaluator = Evaluator::new(&program, limits);
    evaluator.eval(expr, env)
}

/// Evaluates a stand-alone expression and also returns the statistics.
pub fn eval_expr_with_stats(
    expr: &Expr,
    env: &Env,
    limits: EvalLimits,
) -> Result<(Value, EvalStats), EvalError> {
    let program = Program::new(Dialect::full());
    let mut evaluator = Evaluator::new(&program, limits);
    let value = evaluator.eval(expr, env)?;
    Ok((value, *evaluator.stats()))
}

/// Calls a named definition of `program` on `args` and returns the result and
/// statistics.
pub fn run_program(
    program: &Program,
    name: &str,
    args: &[Value],
    limits: EvalLimits,
) -> Result<(Value, EvalStats), EvalError> {
    let mut evaluator = Evaluator::new(program, limits);
    let value = evaluator.call(name, args)?;
    Ok((value, *evaluator.stats()))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Lambda;
    use crate::dsl::*;

    fn eval_full(expr: &Expr, env: &Env) -> Result<Value, EvalError> {
        eval_expr(expr, env, EvalLimits::default())
    }

    fn eval_closed(expr: &Expr) -> Value {
        eval_full(expr, &Env::new()).expect("evaluation should succeed")
    }

    #[test]
    fn booleans_and_if() {
        assert_eq!(eval_closed(&bool_(true)), Value::bool(true));
        assert_eq!(
            eval_closed(&if_(bool_(true), atom(1), atom(2))),
            Value::atom(1)
        );
        assert_eq!(
            eval_closed(&if_(bool_(false), atom(1), atom(2))),
            Value::atom(2)
        );
    }

    #[test]
    fn if_requires_boolean_condition() {
        let err = eval_full(&if_(atom(1), atom(1), atom(2)), &Env::new()).unwrap_err();
        assert!(matches!(err, EvalError::Shape { operator: "if", .. }));
    }

    #[test]
    fn tuples_and_selectors() {
        let t = tuple([atom(10), atom(20), atom(30)]);
        assert_eq!(eval_closed(&sel(t.clone(), 1)), Value::atom(10));
        assert_eq!(eval_closed(&sel(t.clone(), 3)), Value::atom(30));
        let err = eval_full(&sel(t, 4), &Env::new()).unwrap_err();
        assert!(matches!(
            err,
            EvalError::SelectorOutOfRange { index: 4, arity: 3 }
        ));
    }

    #[test]
    fn equality_and_order() {
        assert_eq!(eval_closed(&eq(atom(1), atom(1))), Value::bool(true));
        assert_eq!(eval_closed(&eq(atom(1), atom(2))), Value::bool(false));
        assert_eq!(eval_closed(&leq(atom(1), atom(2))), Value::bool(true));
        assert_eq!(eval_closed(&leq(atom(2), atom(1))), Value::bool(false));
        assert_eq!(eval_closed(&leq(atom(2), atom(2))), Value::bool(true));
    }

    #[test]
    fn insert_builds_sets_without_duplicates() {
        let e = insert(atom(1), insert(atom(2), insert(atom(1), empty_set())));
        assert_eq!(
            eval_closed(&e),
            Value::set([Value::atom(1), Value::atom(2)])
        );
    }

    #[test]
    fn choose_and_rest_follow_the_order() {
        let s = set_lit([atom(5), atom(3), atom(9)]);
        assert_eq!(eval_closed(&choose(s.clone())), Value::atom(3));
        assert_eq!(
            eval_closed(&rest(s)),
            Value::set([Value::atom(5), Value::atom(9)])
        );
        assert!(matches!(
            eval_full(&choose(empty_set()), &Env::new()),
            Err(EvalError::ChooseFromEmptySet)
        ));
    }

    #[test]
    fn set_reduce_identity_union_collects_elements() {
        // set-reduce(S, identity, insert, {}, {}) rebuilds S.
        let s = Value::set([Value::atom(4), Value::atom(1), Value::atom(7)]);
        let expr = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            empty_set(),
            empty_set(),
        );
        let env = Env::new().bind("S", s.clone());
        assert_eq!(eval_full(&expr, &env).unwrap(), s);
    }

    #[test]
    fn set_reduce_respects_fold_order() {
        // Collect the elements into a *list* through the accumulator. The
        // accumulator meets the elements in ascending order (choose/rest
        // order), so prepending each one yields the reversed — descending —
        // list: the traversal order is observable, which is exactly the
        // Section 7 point about order-dependent queries.
        let expr = list_reduce_like_collect();
        let env = Env::new().bind(
            "S",
            Value::set([Value::atom(3), Value::atom(1), Value::atom(2)]),
        );
        let program = Program::new(Dialect::full());
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        let v = ev.eval(&expr, &env).unwrap();
        assert_eq!(
            v,
            Value::list([Value::atom(3), Value::atom(2), Value::atom(1)])
        );
    }

    fn list_reduce_like_collect() -> Expr {
        set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", cons(var("x"), var("acc"))),
            empty_list(),
            empty_set(),
        )
    }

    #[test]
    fn set_reduce_on_empty_set_returns_base() {
        let expr = set_reduce(
            empty_set(),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            const_v(Value::atom(42)),
            empty_set(),
        );
        assert_eq!(eval_closed(&expr), Value::atom(42));
    }

    #[test]
    fn extra_is_threaded_to_app() {
        // forall-style: check every element equals the extra value.
        let expr = set_reduce(
            var("S"),
            lam("x", "e", eq(var("x"), var("e"))),
            lam("p", "acc", and(var("p"), var("acc"))),
            bool_(true),
            var("target"),
        );
        let env = Env::new()
            .bind("S", Value::set([Value::atom(2), Value::atom(2)]))
            .bind("target", Value::atom(2));
        assert_eq!(eval_full(&expr, &env).unwrap(), Value::bool(true));
        let env2 = Env::new()
            .bind("S", Value::set([Value::atom(2), Value::atom(3)]))
            .bind("target", Value::atom(2));
        assert_eq!(eval_full(&expr, &env2).unwrap(), Value::bool(false));
    }

    #[test]
    fn let_and_var_scoping() {
        let expr = let_in("a", atom(1), let_in("a", atom(2), var("a")));
        assert_eq!(eval_closed(&expr), Value::atom(2));
        let expr = let_in(
            "a",
            atom(1),
            tuple([var("a"), let_in("a", atom(2), var("a")), var("a")]),
        );
        assert_eq!(
            eval_closed(&expr),
            Value::tuple([Value::atom(1), Value::atom(2), Value::atom(1)])
        );
    }

    #[test]
    fn unbound_variable_errors() {
        assert!(matches!(
            eval_full(&var("nope"), &Env::new()),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn calls_bind_only_parameters() {
        let program = Program::new(Dialect::full()).define(
            "pair_with_self",
            ["x"],
            tuple([var("x"), var("x")]),
        );
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        let v = ev.call("pair_with_self", &[Value::atom(3)]).unwrap();
        assert_eq!(v, Value::tuple([Value::atom(3), Value::atom(3)]));
        // Wrong arity is an error.
        assert!(ev.call("pair_with_self", &[]).is_err());
        // Unknown function is an error.
        assert!(ev.call("nope", &[]).is_err());
    }

    #[test]
    fn binders_inside_later_call_arguments_resolve_correctly() {
        // Regression: argument values must not occupy the caller's frame
        // while later arguments are still being evaluated — a `let` (or a
        // reduce lambda) inside the second argument would otherwise resolve
        // its slot to the first argument's value.
        let program =
            Program::new(Dialect::full()).define("pair", ["a", "b"], tuple([var("b"), var("a")]));
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        let expr = call("pair", [atom(1), let_in("y", atom(2), var("y"))]);
        let v = ev.eval(&expr, &Env::new()).unwrap();
        assert_eq!(v, Value::tuple([Value::atom(2), Value::atom(1)]));
        // Same shape with a reduce lambda in the second argument.
        let expr = call(
            "pair",
            [
                atom(1),
                set_reduce(
                    const_v(Value::set([Value::atom(7)])),
                    Lambda::identity(),
                    lam("x", "acc", var("x")),
                    atom(0),
                    empty_set(),
                ),
            ],
        );
        let v = ev.eval(&expr, &Env::new()).unwrap();
        assert_eq!(v, Value::tuple([Value::atom(7), Value::atom(1)]));
    }

    #[test]
    fn nested_calls_compose() {
        let program = Program::new(Dialect::full())
            .define("fst", ["t"], sel(var("t"), 1))
            .define("snd", ["t"], sel(var("t"), 2))
            .define(
                "swap",
                ["t"],
                tuple([call("snd", [var("t")]), call("fst", [var("t")])]),
            );
        let (v, _) = run_program(
            &program,
            "swap",
            &[Value::tuple([Value::atom(1), Value::atom(2)])],
            EvalLimits::default(),
        )
        .unwrap();
        assert_eq!(v, Value::tuple([Value::atom(2), Value::atom(1)]));
    }

    #[test]
    fn new_produces_fresh_atoms() {
        let program = Program::new(Dialect::srl_new());
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        let env = Env::new().bind("S", Value::set([Value::atom(3), Value::atom(7)]));
        let v = ev.eval(&new_value(var("S")), &env).unwrap();
        assert_eq!(v, Value::atom(8));
        // succ(S) = insert(new(S), S) (Section 5).
        let succ_expr = insert(new_value(var("S")), var("S"));
        let v = ev.eval(&succ_expr, &env).unwrap();
        assert_eq!(v.len(), Some(3));
        // new of a set with no atoms starts at 0.
        let v = ev.eval(&new_value(empty_set()), &Env::new()).unwrap();
        assert_eq!(v, Value::atom(0));
    }

    #[test]
    fn new_is_rejected_in_plain_srl() {
        let program = Program::srl();
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        let err = ev.eval(&new_value(empty_set()), &Env::new()).unwrap_err();
        assert!(matches!(err, EvalError::DialectViolation { .. }));
    }

    #[test]
    fn nat_arithmetic() {
        let program = Program::new(Dialect::full());
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        let env = Env::new();
        assert_eq!(
            ev.eval(&nat_add(nat(2), nat(3)), &env).unwrap(),
            Value::nat(5)
        );
        assert_eq!(
            ev.eval(&nat_mul(nat(6), nat(7)), &env).unwrap(),
            Value::nat(42)
        );
        assert_eq!(ev.eval(&succ(nat(41)), &env).unwrap(), Value::nat(42));
    }

    #[test]
    fn nat_operators_rejected_in_srl() {
        let program = Program::srl();
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        assert!(matches!(
            ev.eval(&nat(1), &Env::new()).unwrap_err(),
            EvalError::DialectViolation { .. }
        ));
        let program = Program::new(Dialect::srl_with_addition());
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        assert!(ev.eval(&nat_add(nat(1), nat(1)), &Env::new()).is_ok());
        assert!(matches!(
            ev.eval(&nat_mul(nat(2), nat(2)), &Env::new()).unwrap_err(),
            EvalError::DialectViolation { .. }
        ));
    }

    #[test]
    fn lists_and_list_reduce() {
        let program = Program::new(Dialect::lrl());
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        let env = Env::new();
        let l = cons(atom(1), cons(atom(2), cons(atom(1), empty_list())));
        let v = ev.eval(&l, &env).unwrap();
        assert_eq!(
            v,
            Value::list([Value::atom(1), Value::atom(2), Value::atom(1)])
        );
        assert_eq!(ev.eval(&head(l.clone()), &env).unwrap(), Value::atom(1));
        assert_eq!(
            ev.eval(&tail(l.clone()), &env).unwrap(),
            Value::list([Value::atom(2), Value::atom(1)])
        );
        // list-reduce preserves duplicates: rebuild the list.
        let rebuild = list_reduce(
            l,
            Lambda::identity(),
            lam("x", "acc", cons(var("x"), var("acc"))),
            empty_list(),
            empty_set(),
        );
        let v = ev.eval(&rebuild, &env).unwrap();
        assert_eq!(
            v,
            Value::list([Value::atom(1), Value::atom(2), Value::atom(1)])
        );
    }

    #[test]
    fn list_operators_rejected_in_srl() {
        let program = Program::srl();
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        assert!(matches!(
            ev.eval(&empty_list(), &Env::new()).unwrap_err(),
            EvalError::DialectViolation { .. }
        ));
    }

    #[test]
    fn step_limit_enforced() {
        let s = Value::set((0..100).map(Value::atom));
        let expr = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            empty_set(),
            empty_set(),
        );
        let env = Env::new().bind("S", s);
        let err = eval_expr(&expr, &env, EvalLimits::default().with_max_steps(50)).unwrap_err();
        assert!(matches!(err, EvalError::StepLimitExceeded { limit: 50 }));
    }

    #[test]
    fn size_limit_enforced() {
        let s = Value::set((0..1000).map(Value::atom));
        let expr = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            empty_set(),
            empty_set(),
        );
        let env = Env::new().bind("S", s);
        let err = eval_expr(
            &expr,
            &env,
            EvalLimits::default().with_max_value_weight(100),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::SizeLimitExceeded { limit: 100 }));
    }

    #[test]
    fn depth_limit_enforced() {
        // Deeply nested tuples exceed a tiny depth budget.
        let mut e = atom(0);
        for _ in 0..100 {
            e = tuple([e]);
        }
        let err = eval_expr(&e, &Env::new(), EvalLimits::default().with_max_depth(10)).unwrap_err();
        assert!(matches!(err, EvalError::DepthLimitExceeded { limit: 10 }));
    }

    #[test]
    fn nat_width_limit_enforced() {
        let program = Program::new(Dialect::full());
        let mut ev = Evaluator::new(&program, EvalLimits::default().with_max_nat_bits(8));
        let big = nat_mul(nat(1 << 7), nat(1 << 7));
        assert!(matches!(
            ev.eval(&big, &Env::new()).unwrap_err(),
            EvalError::NatWidthExceeded { .. }
        ));
    }

    #[test]
    fn stats_track_iterations_and_accumulator() {
        let s = Value::set((0..10).map(Value::atom));
        let expr = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            empty_set(),
            empty_set(),
        );
        let env = Env::new().bind("S", s);
        let (_, stats) = eval_expr_with_stats(&expr, &env, EvalLimits::default()).unwrap();
        assert_eq!(stats.reduce_iterations, 10);
        assert_eq!(stats.inserts, 10);
        // The accumulator grows up to the full set (weight 11 = 10 atoms + set node).
        assert!(stats.max_accumulator_weight >= 10);
        assert!(stats.steps > 0);
        assert!(stats.max_depth > 0);
    }

    #[test]
    fn fresh_index_walks_nested_values() {
        assert_eq!(next_fresh_index(&Value::empty_set()), 0);
        assert_eq!(next_fresh_index(&Value::atom(4)), 5);
        let nested = Value::set([
            Value::tuple([Value::atom(2), Value::atom(9)]),
            Value::atom(1),
        ]);
        assert_eq!(next_fresh_index(&nested), 10);
        assert_eq!(next_fresh_index(&Value::nat(99)), 0);
    }

    #[test]
    fn weight_capped_saturates() {
        let big = Value::set((0..100).map(Value::atom));
        assert_eq!(weight_capped(&big, 10), 11);
        assert_eq!(weight_capped(&Value::atom(1), 10), 1);
        assert_eq!(weight_capped(&big, 1000), big.weight());
    }

    #[test]
    fn reset_stats_clears_counters() {
        let program = Program::new(Dialect::full());
        let mut ev = Evaluator::new(&program, EvalLimits::default());
        ev.eval(&tuple([atom(1), atom(2)]), &Env::new()).unwrap();
        assert!(ev.stats().steps > 0);
        ev.reset_stats();
        assert_eq!(ev.stats().steps, 0);
    }
}
