//! # srl-analysis — reading complexity and order-dependence off SRL syntax
//!
//! Two analyses from the paper:
//!
//! * [`syntactic`] — Section 6: the width/depth/set-height measures, the
//!   fragment classifier (BASRL ⊆ L, SRL ⊆ P, unrestricted SRL, SRL+new/LRL ⊆
//!   PrimRec), and the Proposition 6.1 time bound `O(n^{a·d}·T_ins)`.
//! * [`order`] — Section 7 / Conclusions: a conservative order-independence
//!   checker standing in for the Boyer–Moore-based prover the authors used —
//!   syntactic proper-hom recognition, randomised algebraic testing of
//!   combiners, and whole-query permutation testing that produces concrete
//!   order-dependence witnesses.
//!
//! Plus one analysis over the *compiled* artifact:
//!
//! * [`interproc`] — the report layer for the compiler's interprocedural
//!   fold classification (`srl_core::analysis`): per-definition spine
//!   summaries and one verdict row per reduce instruction, with the reason
//!   (fused shape, local or call-threaded spine, or named obstacle)
//!   rendered for `srl analyze` and the REPL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interproc;
pub mod order;
pub mod report;
pub mod syntactic;

pub use interproc::{analyze_compiled, analyze_expression, FoldRow, InterprocReport, SpineRow};
pub use order::{
    analyze_order_dependence, combiner_seems_commutative_associative, permutation_test,
    provably_order_independent, OrderVerdict,
};
pub use report::{analyze_json, analyze_json_with, analyze_table};
pub use syntactic::{
    analyze_expr, analyze_program, classify, classify_program, Classification, Fragment, Measures,
};
