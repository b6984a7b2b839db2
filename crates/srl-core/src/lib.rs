//! # srl-core — the set-reduce language
//!
//! A from-scratch implementation of **SRL**, the finite-set database language
//! of Immerman, Patnaik and Stemple, *"The Expressiveness of a Family of
//! Finite Set Languages"* (PODS 1991; TCS 155, 1996).
//!
//! SRL is a tiny, typed, purely functional language whose only iteration
//! construct is the higher-order `set-reduce` operator — a fold over a finite
//! set, traversed in the implementation-supplied order of its element type.
//! The paper's central results relate syntactic restrictions of the language
//! to complexity classes:
//!
//! * set-height ≤ 1 (**SRL**) captures exactly **P**;
//! * additionally bounding accumulators to tuples (**BASRL**) captures **L**;
//! * the unrestricted language, or SRL plus invented values (`new`), or the
//!   list variant LRL, captures the **primitive recursive** functions.
//!
//! This crate provides the language itself:
//!
//! * [`value::Value`] — booleans, ordered atoms, naturals, tuples, ordered
//!   finite sets and lists, with the total order that `choose`/`rest` follow;
//! * [`types::Type`] — the type language with the paper's `set-height`,
//!   tuple-width and tuple-nesting measures;
//! * [`ast::Expr`] — the abstract syntax (grammar rules 1–10 plus the studied
//!   extensions), and [`dsl`] — builder combinators;
//! * [`program::Program`] — named definitions closed under composition;
//! * [`typecheck`] — the typing rules plus dialect enforcement;
//! * [`dialect::Dialect`] — which optional operators are available
//!   (SRL, BASRL, u-SRL, SRL+new, LRL, arithmetic extensions);
//! * [`eval`] — a resource-bounded evaluator implementing the Section 2
//!   semantics equations literally, instrumented with the paper's cost model;
//! * [`pipeline`] — the staged compile path
//!   (`Source → Program → Checked → Compiled`) that text input (parsed by
//!   `srl-syntax`), DSL input, type checking, lowering, and bytecode caching
//!   all flow through.
//!
//! The companion crates build on this one: `srl-stdlib` reconstructs every
//! program in the paper, `srl-analysis` reads complexity off the syntax
//! (Section 6) and checks order-independence (Section 7), `srl-syntax` adds a
//! textual surface form, and `srl-bench` reproduces the paper's results as
//! measurements.
//!
//! ## Quick example
//!
//! ```
//! use srl_core::dsl::*;
//! use srl_core::eval::eval_expr;
//! use srl_core::limits::EvalLimits;
//! use srl_core::program::Env;
//! use srl_core::value::Value;
//!
//! // forsome(S, λx. x = target): is `target` a member of S?
//! let member = set_reduce(
//!     var("S"),
//!     lam("x", "t", eq(var("x"), var("t"))),
//!     lam("found", "acc", or(var("found"), var("acc"))),
//!     bool_(false),
//!     var("target"),
//! );
//! let env = Env::new()
//!     .bind("S", Value::set([Value::atom(1), Value::atom(4), Value::atom(9)]))
//!     .bind("target", Value::atom(4));
//! assert_eq!(eval_expr(&member, &env, EvalLimits::default()).unwrap(), Value::bool(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod api;
pub mod ast;
pub mod bignat;
pub mod bytecode;
pub mod dialect;
pub mod dsl;
pub mod error;
pub mod eval;
pub mod faultpoint;
pub mod intern;
pub mod limits;
pub mod lower;
pub mod parallel;
pub mod pipeline;
pub mod program;
pub mod setrepr;
pub mod typecheck;
pub mod types;
pub mod value;
pub(crate) mod vm;

pub use analysis::{spine_verdict, DefSummaries, SpineBlock};
pub use ast::{Expr, Lambda};
pub use bignat::BigNat;
pub use bytecode::{Chunk, FoldClass, FoldOrigin};
pub use dialect::Dialect;
pub use error::{CheckError, EvalError, SrlError};
pub use eval::{
    eval_expr, eval_expr_with_stats, run_program, Evaluator, ExecBackend, TierEngagements,
};
pub use intern::{Symbol, SymbolTable};
pub use limits::{EvalLimits, EvalStats};
pub use lower::{CompiledDef, CompiledProgram, LExpr, LLambda, LoweredExpr};
pub use pipeline::{Pipeline, PipelineConfig, Source, TypePolicy};
pub use program::{Env, FunDef, Param, Program};
pub use setrepr::SetRepr;
pub use typecheck::{check_expr, check_program, CheckedProgram, FunSig, TypeChecker};
pub use types::Type;
pub use value::{domain_set, leq_relation, Atom, Value, ValueSet};
