//! The staged compile path: `Source → Program → Checked → Compiled`.
//!
//! Before this module, every consumer wired the stages together by hand —
//! `Program::validate` here, `check_program` there, `Program::compile` plus
//! `Evaluator::from_compiled` somewhere else — and each harness picked its
//! own subset. A [`PipelineConfig`] owns the cross-cutting choices (dialect
//! override, type-checking policy, [`EvalLimits`] budget, [`ExecBackend`])
//! and drives every program through the same audited sequence:
//!
//! ```text
//! Source ──parse──▶ Program ──check──▶ Checked ──compile──▶ Compiled
//!  (text)           (AST)              (validated,          (lowered arena,
//!                                       type-checked         interner, lazy
//!                                       per policy)          bytecode chunks)
//! ```
//!
//! The *parse* stage lives in the `srl-syntax` crate (this crate has no
//! dependency on the text syntax): `srl-syntax`'s `TextFrontend` extension
//! trait turns a [`Source`] into a `Program` and hands it to
//! [`PipelineConfig::check`]. DSL-built programs enter at the same point,
//! so text input and Rust-built input flow through one path from there on.
//!
//! A [`Compiled`] artifact owns the shared [`CompiledProgram`] (which holds
//! the symbol interner and lazily caches the VM's bytecode chunks) together
//! with the limits and backend the pipeline chose, so
//! [`Compiled::evaluator`] hands out correctly-configured evaluators over
//! the one compiled form.

use std::sync::Arc;

use crate::ast::Expr;
use crate::dialect::Dialect;
use crate::error::{CheckError, EvalError};
use crate::eval::{Evaluator, ExecBackend};
use crate::limits::{EvalLimits, EvalStats};
use crate::lower::{CompiledProgram, LoweredExpr};
use crate::program::{Env, Program};
use crate::typecheck::check_program;
use crate::value::Value;

/// A named piece of source text — the entry stage of the pipeline. Parsing
/// it into a [`Program`] is the `srl-syntax` crate's job; the name travels
/// along so diagnostics can point at `powerset.srl:3:14` rather than at
/// anonymous text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Source {
    /// Display name of the source (file path, `<repl>`, `<inline>`, …).
    pub name: String,
    /// The program text.
    pub text: String,
}

impl Source {
    /// Wraps a name and text.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        Source {
            name: name.into(),
            text: text.into(),
        }
    }
}

/// When the checking stage runs the type checker.
///
/// The paper's typing rules need declared parameter types, but most
/// reconstructed programs are built untyped (the evaluator is dynamically
/// checked and the surface syntax has no type annotations), so requiring
/// types everywhere would reject almost every real input.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TypePolicy {
    /// Type-check always; programs with untyped parameters are rejected.
    Require,
    /// Type-check exactly the programs whose parameters all carry declared
    /// types; validate (well-formedness) everything else. The default.
    #[default]
    IfTyped,
    /// Never type-check; structural validation only.
    Skip,
}

/// The staged compile path with its cross-cutting configuration, as one
/// plain, cloneable value — the unit of tenant configuration.
///
/// Every long-lived consumer (the CLI, the REPL session, the bench
/// `Harness`, an `srl-serve` tenant) holds, compares, clones and transports
/// these choices, and pushes programs through [`PipelineConfig::check`],
/// [`PipelineConfig::compile`] and [`PipelineConfig::prepare`] directly.
/// `srl_core::api::pipeline_config_from_json` deserializes one from the
/// JSON object form used by per-tenant server configuration files.
///
/// `tiers` is the columnar-storage-tier switch. It is deliberately *not*
/// consumed by the stages: the toggle is thread-local state (see
/// [`crate::setrepr::set_atom_tier_enabled`]), so the consumer that owns the
/// evaluating thread applies it around each query.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Dialect override for every entering program; `None` keeps each
    /// program's own dialect (the parse stage records [`Dialect::full`]; a
    /// service enforcing e.g. BASRL submissions would set it here).
    pub dialect: Option<Dialect>,
    /// When the check stage runs the type checker.
    pub type_policy: TypePolicy,
    /// The evaluation budget configured into produced evaluators (including
    /// the wall-clock deadline, the admission-control knob of a serving
    /// deployment).
    pub limits: EvalLimits,
    /// The execution backend configured into produced evaluators, including
    /// the worker-pool width.
    pub backend: ExecBackend,
    /// Whether the columnar set-storage tiers may engage (default true).
    pub tiers: bool,
}

/// The name most call sites (and `perfbench`) build with
/// (`Pipeline::new()…prepare(…)`), kept as an alias of the one
/// configuration type so they compile unchanged.
pub type Pipeline = PipelineConfig;

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            dialect: None,
            type_policy: TypePolicy::default(),
            limits: EvalLimits::default(),
            backend: ExecBackend::default(),
            tiers: true,
        }
    }
}

impl PipelineConfig {
    /// Default limits, the default execution backend, no dialect override,
    /// the [`TypePolicy::IfTyped`] checking policy, and the tiers on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the dialect override.
    pub fn with_dialect(mut self, dialect: Dialect) -> Self {
        self.dialect = Some(dialect);
        self
    }

    /// Sets the type-checking policy.
    pub fn with_type_policy(mut self, policy: TypePolicy) -> Self {
        self.type_policy = policy;
        self
    }

    /// Sets the evaluation budget.
    pub fn with_limits(mut self, limits: EvalLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Arms a wall-clock deadline of `ms` milliseconds on every evaluation
    /// run by produced evaluators (shorthand for
    /// [`EvalLimits::with_deadline_ms`] on the configured budget). A query
    /// that overruns it fails with
    /// [`EvalError::DeadlineExceeded`](crate::error::EvalError::DeadlineExceeded)
    /// and leaves the evaluator reusable.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.limits = self.limits.with_deadline_ms(ms);
        self
    }

    /// Sets the execution backend.
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the worker-pool width for provably-splittable `set-reduce`
    /// folds (see [`crate::parallel`]): produced evaluators run the VM
    /// backend with `n` threads (`n ≤ 1` means sequential). Selecting a
    /// pool implies the VM backend — the tree-walk has no sharded
    /// execution path — so this overrides a previously chosen
    /// [`ExecBackend::TreeWalk`]. The thread count is pure execution
    /// strategy: results and `EvalStats` are byte-identical across the
    /// whole axis.
    pub fn threads(mut self, n: usize) -> Self {
        self.backend = ExecBackend::vm_with_threads(n);
        self
    }

    /// Enables or disables the columnar storage tiers.
    pub fn with_tiers(mut self, on: bool) -> Self {
        self.tiers = on;
        self
    }

    /// A copy of these choices, kept because callers (`perfbench` among
    /// them) still ask a config for its pipeline this way.
    pub fn pipeline(&self) -> Pipeline {
        self.clone()
    }

    /// The check stage: applies the dialect override, validates structural
    /// well-formedness (no recursion, no unbound names, no duplicates), and
    /// type-checks according to the [`TypePolicy`].
    pub fn check(&self, mut program: Program) -> Result<Checked, CheckError> {
        if let Some(dialect) = self.dialect {
            program.dialect = dialect;
        }
        program.validate()?;
        let typed = match self.type_policy {
            TypePolicy::Require => true,
            TypePolicy::IfTyped => {
                // Opting in requires at least one declared parameter type:
                // a program of zero-parameter definitions carries no
                // annotations (the surface syntax cannot even write them),
                // so `all(…)` holding vacuously must not force the checker.
                let mut saw_typed = false;
                let mut saw_untyped = false;
                for param in program.defs.iter().flat_map(|def| def.params.iter()) {
                    match param.ty {
                        Some(_) => saw_typed = true,
                        None => saw_untyped = true,
                    }
                }
                saw_typed && !saw_untyped
            }
            TypePolicy::Skip => false,
        };
        if typed {
            check_program(&program)?;
        }
        Ok(Checked { program })
    }

    /// The compile stage: lowers a checked program once into the shared
    /// slot-indexed arena (interned symbols; bytecode chunks are generated
    /// lazily on first VM use) and pairs it with the configured limits and
    /// backend.
    pub fn compile(&self, checked: Checked) -> Compiled {
        let compiled = Arc::new(checked.program.compile());
        Compiled {
            program: checked.program,
            compiled,
            limits: self.limits,
            backend: self.backend,
        }
    }

    /// Check + compile in one step — the common path.
    pub fn prepare(&self, program: Program) -> Result<Compiled, CheckError> {
        Ok(self.compile(self.check(program)?))
    }
}

/// A program that has passed the check stage: structurally valid, dialect
/// recorded, and well-typed whenever the [`TypePolicy`] ran the checker.
#[derive(Clone, Debug)]
pub struct Checked {
    program: Program,
}

impl Checked {
    /// The validated program.
    pub fn program(&self) -> &Program {
        &self.program
    }
}

/// The end of the pipeline: a validated program plus its shared compiled
/// form, limits, and backend — everything needed to mint evaluators.
#[derive(Clone, Debug)]
pub struct Compiled {
    program: Program,
    compiled: Arc<CompiledProgram>,
    limits: EvalLimits,
    backend: ExecBackend,
}

impl Compiled {
    /// The validated program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The shared compiled form (lowered arena, interner, lazy chunks).
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    /// The evaluation budget evaluators are minted with.
    pub fn limits(&self) -> EvalLimits {
        self.limits
    }

    /// The execution backend evaluators are minted with.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// A fresh evaluator over the shared compiled form, configured with the
    /// pipeline's limits and backend. Compilation cost is amortised: every
    /// evaluator from this artifact borrows the same arena and bytecode.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator::from_compiled(Arc::clone(&self.compiled), self.limits).with_backend(self.backend)
    }

    /// One-shot convenience: calls a named definition on argument values
    /// with a fresh evaluator, returning the result and the statistics of
    /// this call alone.
    pub fn call(&self, name: &str, args: &[Value]) -> Result<(Value, EvalStats), EvalError> {
        let mut evaluator = self.evaluator();
        let value = evaluator.call(name, args)?;
        Ok((value, *evaluator.stats()))
    }

    /// One-shot convenience: evaluates an expression whose free variables
    /// are bound by `env`.
    pub fn eval(&self, expr: &Expr, env: &Env) -> Result<(Value, EvalStats), EvalError> {
        let mut evaluator = self.evaluator();
        let value = evaluator.eval(expr, env)?;
        Ok((value, *evaluator.stats()))
    }

    /// Lowers a stand-alone expression against `scope` (input names in
    /// binding order) for repeated evaluation — see
    /// [`Evaluator::eval_lowered`].
    pub fn lower_expr(&self, expr: &Expr, scope: &[&str]) -> LoweredExpr {
        self.compiled.lower_expr(expr, scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::types::Type;

    fn member_program() -> Program {
        Program::srl().define(
            "member",
            ["S", "t"],
            set_reduce(
                var("S"),
                lam("x", "e", eq(var("x"), var("e"))),
                lam("found", "acc", or(var("found"), var("acc"))),
                bool_(false),
                var("t"),
            ),
        )
    }

    #[test]
    fn prepare_validates_and_compiles() {
        let artifact = Pipeline::new().prepare(member_program()).unwrap();
        let set = Value::set([Value::atom(1), Value::atom(4)]);
        let (v, stats) = artifact.call("member", &[set, Value::atom(4)]).unwrap();
        assert_eq!(v, Value::bool(true));
        assert!(stats.reduce_iterations > 0);
    }

    #[test]
    fn check_stage_rejects_malformed_programs() {
        let recursive = Program::srl().define("f", ["x"], call("f", [var("x")]));
        assert!(matches!(
            Pipeline::new().check(recursive),
            Err(CheckError::RecursiveDefinition(_))
        ));
    }

    #[test]
    fn dialect_override_is_applied() {
        let pipeline = Pipeline::new().with_dialect(Dialect::basrl());
        let checked = pipeline.check(member_program()).unwrap();
        assert_eq!(checked.program().dialect, Dialect::basrl());
    }

    /// `f(x) = {x, d1, 5}`: dynamically fine, but the static rules reject
    /// the heterogeneous set whatever `x`'s type.
    fn heterogeneous_set_program(param_ty: Option<Type>) -> Program {
        let body = insert(var("x"), insert(atom(1), insert(nat(5), empty_set())));
        let program = Program::new(Dialect::full());
        match param_ty {
            Some(ty) => program.define_typed("f", [("x", ty)], body),
            None => program.define("f", ["x"], body),
        }
    }

    #[test]
    fn untyped_programs_skip_type_checking_under_if_typed() {
        let untyped = heterogeneous_set_program(None);
        assert!(matches!(
            Pipeline::new()
                .with_type_policy(TypePolicy::Require)
                .check(untyped.clone()),
            Err(CheckError::TypeMismatch { .. })
        ));
        let artifact = Pipeline::new().prepare(untyped).unwrap();
        let (v, _) = artifact.call("f", &[Value::atom(2)]).unwrap();
        assert_eq!(
            v,
            Value::set([Value::atom(1), Value::atom(2), Value::nat(5)])
        );
    }

    #[test]
    fn zero_parameter_programs_are_not_vacuously_typed() {
        // All-zero-param defs make `params.all(typed)` hold vacuously; the
        // checker must still be skipped — this body is dynamically fine but
        // the static rules reject the heterogeneous set.
        let program = Program::new(Dialect::full()).define(
            "main",
            Vec::<String>::new(),
            insert(atom(1), insert(nat(5), empty_set())),
        );
        let artifact = Pipeline::new().prepare(program).unwrap();
        let (v, _) = artifact.call("main", &[]).unwrap();
        assert_eq!(v, Value::set([Value::atom(1), Value::nat(5)]));
    }

    #[test]
    fn typed_programs_are_checked_under_if_typed() {
        let typed = heterogeneous_set_program(Some(Type::Atom));
        assert!(matches!(
            Pipeline::new().check(typed.clone()),
            Err(CheckError::TypeMismatch { .. })
        ));
        assert!(Pipeline::new()
            .with_type_policy(TypePolicy::Skip)
            .check(typed)
            .is_ok());
        let well_typed = Program::srl().define_typed(
            "first",
            [("t", Type::tuple_of([Type::Atom, Type::Atom]))],
            sel(var("t"), 1),
        );
        assert!(Pipeline::new().check(well_typed).is_ok());
    }

    #[test]
    fn require_policy_rejects_untyped_parameters() {
        let result = Pipeline::new()
            .with_type_policy(TypePolicy::Require)
            .check(member_program());
        assert!(matches!(result, Err(CheckError::TypeMismatch { .. })));
    }

    #[test]
    fn both_backends_agree_through_the_pipeline() {
        let program = member_program();
        let set = Value::set((0..16).map(Value::atom));
        let args = [set, Value::atom(11)];
        let mut results = Vec::new();
        for backend in [ExecBackend::TreeWalk, ExecBackend::vm()] {
            let artifact = Pipeline::new()
                .with_backend(backend)
                .prepare(program.clone())
                .unwrap();
            results.push(artifact.call("member", &args).unwrap());
        }
        assert_eq!(results[0], results[1], "value and stats must match");
    }

    #[test]
    fn pipeline_config_builds_an_equivalent_pipeline() {
        let config = PipelineConfig::new()
            .with_dialect(Dialect::basrl())
            .with_type_policy(TypePolicy::Skip)
            .with_limits(EvalLimits::small())
            .deadline_ms(250)
            .threads(3)
            .with_tiers(false);
        assert_eq!(config.dialect, Some(Dialect::basrl()));
        assert_eq!(config.type_policy, TypePolicy::Skip);
        assert_eq!(config.limits, EvalLimits::small().with_deadline_ms(250));
        assert_eq!(config.backend, ExecBackend::vm_with_threads(3));
        assert!(!config.tiers);
        // The config stays comparable and cloneable, and `pipeline()` is a
        // plain copy.
        assert_eq!(config.pipeline(), config);
        assert_ne!(config, PipelineConfig::default());
    }

    #[test]
    fn evaluators_share_one_compiled_form() {
        let artifact = Pipeline::new().prepare(member_program()).unwrap();
        let before = Arc::strong_count(artifact.compiled());
        let _e1 = artifact.evaluator();
        let _e2 = artifact.evaluator();
        assert_eq!(Arc::strong_count(artifact.compiled()), before + 2);
    }
}
