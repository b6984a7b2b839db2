//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live under `tests/`; this library only provides small
//! constructors they share.

use srl_core::bytecode::{BlockId, Chunk, Insn, ReduceInsn};
use srl_core::parallel::PAR_WORK_THRESHOLD;
use srl_core::value::Value;
use srl_core::{Expr, Program};

/// A set of unnamed atoms.
pub fn atom_set(items: impl IntoIterator<Item = u64>) -> Value {
    Value::set(items.into_iter().map(Value::atom))
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
