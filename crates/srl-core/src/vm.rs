//! The register VM: the dispatch loop over [`crate::bytecode`] chunks.
//!
//! Execution state is the same [`EvalCore`] the tree-walking evaluator uses —
//! one `Vec<Value>` register file with a frame base, the [`EvalStats`]
//! counters and the [`EvalLimits`] budget — so the two backends share every
//! accounting helper and cannot drift in what they charge. The contract (see
//! the `bytecode` module docs): on successful evaluations the VM's results
//! *and statistics* are byte-identical to the tree-walk's; on error paths the
//! error kind matches while partial counters may differ by instruction
//! reordering (with the double-limit caveat documented on
//! [`ExecBackend`](crate::eval::ExecBackend): a batch crossing both the step
//! and depth budget reports the step error first).
//!
//! The interesting work is in the fused [`ReduceKind`]s, which replay the
//! tree-walk's per-iteration accounting in closed form (batched step/depth
//! charges, arithmetic accumulator-weight tracking) while the data path runs
//! as a look at the set's first and last elements, plus a binary search for
//! `member` ([`ReduceKind::Quantifier`]), a bulk sorted merge
//! ([`ReduceKind::Union`] over [`SetRepr::merge_union`]), or an in-place
//! insert loop on a uniquely-held accumulator (the other fused kinds).
//! Batching is sound because every limit counter is monotone: a batch total
//! crosses the budget if and only if some step inside the batch crossed it.
//! The batched kinds (`Quantifier`, `Union`, `Product`) count their
//! iterations through `EvalCore::note_iterations` and charge their leaves
//! through `EvalCore::charge_batch_allocation`. A batch that stops early,
//! on a `DEADLINE_MID_FOLD` fault armed inside it or on the step or size
//! budget, stops at the iteration the per-element loop stops at, and says
//! how many iterations completed before it; the kind notes their
//! accumulator weights, so the partial `max_accumulator_weight` is the
//! per-element loop's too.
//!
//! The `Union` merge is in place too: codegen moves a last-use base into
//! the reduce (see `bytecode`'s last-use moves), so the accumulator arrives
//! uniquely owned and a union costs its incoming set, not its accumulator —
//! accumulator elements below the incoming minimum are not touched, the
//! rest are moved rather than cloned, and the added weight comes back from
//! the merge itself. A shared base is copied first (`Arc::make_mut`).
//! Accumulator weights are O(1) reads of the set's cached weight sum, so
//! the per-iteration [`weight_capped`] of a `Generic` fold does not walk
//! its accumulator either.
//!
//! [`ReduceKind::Product`] goes one step further for the stdlib
//! `cartesian`: it charges the three folds it replaces in closed form per
//! element of A ([`product_charges`]) and, instead of building one slice
//! per element and merging each into the accumulator, pushes every pair
//! into one vector in order and builds the set once ([`product_set`]).
//! Under a join it builds nothing (see below).
//!
//! ## Ownership in the fold loops
//!
//! The per-element path owns what it can instead of sharing it, because a
//! shared `Value` costs an atomic `Arc` increment and decrement per copy.
//! Four rules, none of which changes a value, a printed form or a
//! counter:
//!
//! * **Parked `extra`.** `InsertApp`, `Filter`, `BoolAcc` and `Scan` move
//!   `extra` into slot `x + 1` once per fold (and a shard worker clones it
//!   there once per shard) instead of cloning it there per element. Codegen
//!   guarantees that their app blocks leave the slot alone: a tail read of
//!   it compiles to a `Copy`, never a `Take`, and nothing else writes it.
//!   `Generic` still writes it per element, because its acc block reuses
//!   the slot for the accumulator.
//! * **Consumed input.** After `crate::parallel::try_run` declines, a set
//!   that `Arc::get_mut` proves this fold holds alone, stored in a value
//!   tier, is emptied and its elements move into slot `x` one by one
//!   ([`Elems`]); a shared or columnar input is walked by clone. The fresh
//!   output of E5's and E9's join filters feeds the map after them this
//!   way, as does a fresh product under a filter that is no join (one
//!   whose predicate reads the pair itself).
//! * **Elided `select` pair.** A `Filter` whose app is `[x, pred]` or
//!   `[pred, x]` runs a block for `pred` alone
//!   ([`ElidedPair`]): the flag is the block's value and
//!   the kept value is the element, moved back out of slot `x`, so no
//!   2-tuple is built, read and dropped per element. [`filter_element`]
//!   replays the skipped nodes' charges where the pair's block made them:
//!   the element read (one step at its depth) before the block for
//!   `[x, pred]` and after it for `[pred, x]`, then the tuple (one step at
//!   its depth and one allocated leaf). The fold's `unit_cost` still counts
//!   the two skipped instructions.
//! * **Join in place.** A `select` over `cartesian` whose predicate is
//!   `let a = p.1 in let b = p.2 in body`, with a `body` that does not
//!   read `p` (the stdlib `join`), never builds A × B. Its product charges
//!   as always where it stands in the instruction stream, but leaves `[A,
//!   B]` in its destination, a temporary only the join filter reads. The
//!   filter ([`join_fold`]) writes `a` into the first `let`'s slot once
//!   per element of A and `b` into the second's once per pair (codegen
//!   keeps `body`'s block from moving either out), replays the skipped
//!   `let`s' steps from their [`JoinPrologue`] inside the elided pair's
//!   charges, and builds `[a, b]` only for a pair it keeps. So E5's and
//!   E9's joins allocate per kept pair, not per pair of A × B. The join
//!   runs sequentially: it never reaches `crate::parallel::try_run`.

use std::sync::Arc;

use crate::bytecode::{
    BlockId, Chunk, DialectOp, ElidedPair, Insn, JoinPrologue, Operand, QuantTest, ReduceInsn,
    ReduceKind,
};
use crate::error::EvalError;
use crate::eval::{
    choose_min, head_value, next_fresh_index, require_dialect, rest_value, sel_component_ref,
    tail_value, weight_capped, EvalCore, ACCUMULATOR_WEIGHT_CAP,
};
use crate::lower::CompiledProgram;
use crate::setrepr::{SetIter, SetRepr};
use crate::value::{Atom, Value};

/// Everything a running chunk resolves through: the compiled program (for
/// dialect flags and definition names in diagnostics), the program chunk
/// (for callee blocks), and the worker-pool width for splittable folds.
pub(crate) struct VmCtx<'a> {
    pub(crate) program: &'a CompiledProgram,
    pub(crate) pchunk: &'a Chunk,
    /// Worker-pool width for proper-hom folds (see `crate::parallel`);
    /// `1` means sequential. Shard workers always run with `threads: 1` —
    /// nested folds inside a sharded lambda never spawn again.
    pub(crate) threads: usize,
}

impl<'a> VmCtx<'a> {
    /// The same resolution context with the worker pool disabled — what
    /// shard workers run under.
    pub(crate) fn sequential(&self) -> VmCtx<'a> {
        VmCtx {
            program: self.program,
            pchunk: self.pchunk,
            threads: 1,
        }
    }
}

const PAD: Value = Value::Bool(false);

/// Runs an expression chunk's main block in the current root frame (the
/// environment inputs are already in slots `0..n`); returns the result.
pub(crate) fn run_expr(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
) -> Result<Value, EvalError> {
    pad_frame(core, chunk.main_frame());
    run_block(core, ctx, chunk, chunk.main(), 0)?;
    Ok(core.take_reg(chunk.block(chunk.main()).result()))
}

/// Runs a definition's block in the current root frame (the arguments are
/// already in slots `0..arity`); returns the result.
pub(crate) fn run_def(core: &mut EvalCore, ctx: &VmCtx<'_>, def: u32) -> Result<Value, EvalError> {
    let entry = ctx.pchunk.defs()[def as usize];
    pad_frame(core, entry.frame_size);
    run_block(core, ctx, ctx.pchunk, entry.block, 0)?;
    Ok(core.take_reg(ctx.pchunk.block(entry.block).result()))
}

fn pad_frame(core: &mut EvalCore, frame_size: u16) {
    let want = core.frame_base + frame_size as usize;
    while core.locals.len() < want {
        core.locals.push(PAD);
    }
}

/// Grows a running accumulator weight by a novel element's weight, capped
/// exactly like [`weight_capped`]: exact while `≤ cap`, pinned to
/// `cap + 1` beyond. [`product_charges`] keeps running weights: it never
/// materialises the intermediate sets whose weight it replays.
#[inline]
fn cap_add(acc_w: usize, w: usize) -> usize {
    acc_w.saturating_add(w).min(ACCUMULATOR_WEIGHT_CAP + 1)
}

/// Charges the fused steps of an [`Operand`] (the child visits the tree-walk
/// performed), then validates it so shape errors surface in operand order.
fn operand_prep(core: &mut EvalCore, op: Operand, node_depth: usize) -> Result<(), EvalError> {
    match op {
        Operand::Temp(_) => Ok(()),
        Operand::Slot(_) | Operand::Const(_) => core.bump_step(node_depth + 1),
        Operand::SlotSel(slot, index) => {
            core.bump_step(node_depth + 1)?;
            core.bump_step(node_depth + 2)?;
            sel_component_ref(core.reg(slot), index).map(|_| ())
        }
    }
}

/// Borrows the operand's value (after [`operand_prep`] validated it).
fn operand_val<'v>(core: &'v EvalCore, chunk: &'v Chunk, op: Operand) -> &'v Value {
    match op {
        Operand::Temp(r) | Operand::Slot(r) => core.reg(r),
        Operand::SlotSel(slot, index) => {
            sel_component_ref(core.reg(slot), index).expect("validated by operand_prep")
        }
        Operand::Const(i) => &chunk.consts()[i as usize],
    }
}

/// Executes one block. Results are left in the block's result register; the
/// caller takes them.
pub(crate) fn run_block(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    block: BlockId,
    base: usize,
) -> Result<(), EvalError> {
    let code = chunk.block(block).code();
    let mut pc = 0usize;
    while pc < code.len() {
        match &code[pc] {
            Insn::LoadBool { dst, value, depth } => {
                core.bump_step(base + *depth as usize)?;
                core.set_reg(*dst, Value::Bool(*value));
            }
            Insn::LoadConst { dst, index, depth } => {
                core.bump_step(base + *depth as usize)?;
                core.set_reg(*dst, chunk.consts()[*index as usize].clone());
            }
            Insn::LoadEmptySet { dst, depth } => {
                core.bump_step(base + *depth as usize)?;
                core.set_reg(*dst, Value::empty_set());
            }
            Insn::LoadEmptyList { dst, depth } => {
                core.bump_step(base + *depth as usize)?;
                let dialect = &ctx.program.dialect;
                require_dialect(dialect, dialect.allow_lists, "emptylist")?;
                core.set_reg(*dst, Value::empty_list());
            }
            Insn::LoadNat { dst, index, depth } => {
                core.bump_step(base + *depth as usize)?;
                let dialect = &ctx.program.dialect;
                require_dialect(dialect, dialect.allow_nat, "nat constant")?;
                core.set_reg(*dst, Value::Nat(chunk.nats()[*index as usize].clone()));
            }
            Insn::Copy { dst, src, depth } => {
                core.bump_step(base + *depth as usize)?;
                let v = core.reg(*src).clone();
                core.set_reg(*dst, v);
            }
            Insn::Take { dst, src, depth } => {
                core.bump_step(base + *depth as usize)?;
                let v = core.take_reg(*src);
                core.set_reg(*dst, v);
            }
            Insn::FailUnbound { name, depth } => {
                core.bump_step(base + *depth as usize)?;
                return Err(EvalError::UnboundVariable(
                    chunk.names()[*name as usize].clone(),
                ));
            }
            Insn::FailUnknownCall { name, depth } => {
                core.bump_step(base + *depth as usize)?;
                return Err(EvalError::UnknownFunction(
                    chunk.names()[*name as usize].clone(),
                ));
            }
            Insn::FailArity { def, nargs, depth } => {
                core.bump_step(base + *depth as usize)?;
                let callee = &ctx.program.defs()[*def as usize];
                return Err(EvalError::Shape {
                    operator: "call",
                    expected: "matching argument count",
                    found: format!(
                        "{}: {} parameter(s), {} argument(s)",
                        ctx.program.def_name(callee),
                        callee.params.len(),
                        nargs
                    ),
                });
            }
            Insn::Bump { depth } => core.bump_step(base + *depth as usize)?,
            Insn::Guard { op, name, depth } => {
                core.bump_step(base + *depth as usize)?;
                let dialect = &ctx.program.dialect;
                let allowed = match op {
                    DialectOp::New => dialect.allow_new,
                    DialectOp::Lists => dialect.allow_lists,
                    DialectOp::Nat => dialect.allow_nat,
                    DialectOp::NatAdd => dialect.allow_nat_add,
                    DialectOp::NatMul => dialect.allow_nat_mul,
                };
                require_dialect(dialect, allowed, name)?;
            }
            Insn::Branch {
                cond,
                else_to,
                depth,
            } => {
                core.bump_step(base + *depth as usize)?;
                match core.reg(*cond) {
                    Value::Bool(true) => {}
                    Value::Bool(false) => {
                        pc = *else_to as usize;
                        continue;
                    }
                    other => {
                        return Err(EvalError::Shape {
                            operator: "if",
                            expected: "a boolean condition",
                            found: other.to_string(),
                        })
                    }
                }
            }
            Insn::Jump { to } => {
                pc = *to as usize;
                continue;
            }
            Insn::MakeTuple {
                dst,
                start,
                len,
                depth,
            } => {
                core.bump_step(base + *depth as usize)?;
                core.charge_allocation(1)?;
                let mut out = Vec::with_capacity(*len as usize);
                for i in 0..*len {
                    out.push(core.take_reg(*start + i));
                }
                core.set_reg(*dst, Value::Tuple(Arc::from(out)));
            }
            Insn::Sel {
                dst,
                index,
                op,
                depth,
            } => {
                let d = base + *depth as usize;
                core.bump_step(d)?;
                operand_prep(core, *op, d)?;
                let v = sel_component_ref(operand_val(core, chunk, *op), *index)?.clone();
                core.set_reg(*dst, v);
            }
            Insn::Cmp {
                dst,
                a,
                b,
                leq,
                depth,
            } => {
                let d = base + *depth as usize;
                core.bump_step(d)?;
                operand_prep(core, *a, d)?;
                operand_prep(core, *b, d)?;
                let va = operand_val(core, chunk, *a);
                let vb = operand_val(core, chunk, *b);
                let result = if *leq { va <= vb } else { va == vb };
                core.set_reg(*dst, Value::Bool(result));
            }
            Insn::Insert {
                dst,
                elem,
                set,
                depth,
            } => {
                core.bump_step(base + *depth as usize)?;
                let v = core.take_reg(*elem);
                let s = core.take_reg(*set);
                let grown = core.insert_value(v, s)?;
                core.set_reg(*dst, grown);
            }
            Insn::Choose { dst, op, depth } => {
                let d = base + *depth as usize;
                core.bump_step(d)?;
                operand_prep(core, *op, d)?;
                let v = choose_min(operand_val(core, chunk, *op))?;
                core.set_reg(*dst, v);
            }
            Insn::Rest { dst, src, depth } => {
                core.bump_step(base + *depth as usize)?;
                let v = rest_value(core.take_reg(*src))?;
                core.set_reg(*dst, v);
            }
            Insn::Cons { dst, elem, list } => {
                let v = core.take_reg(*elem);
                let l = core.take_reg(*list);
                let grown = core.cons_value(v, l)?;
                core.set_reg(*dst, grown);
            }
            Insn::Head { dst, src } => {
                let v = head_value(core.take_reg(*src))?;
                core.set_reg(*dst, v);
            }
            Insn::Tail { dst, src } => {
                let v = tail_value(core.take_reg(*src))?;
                core.set_reg(*dst, v);
            }
            Insn::New { dst, src } => {
                let v = core.take_reg(*src);
                core.stats.new_values += 1;
                core.set_reg(*dst, Value::Atom(Atom::new(next_fresh_index(&v))));
            }
            Insn::Succ { dst, src } => match core.take_reg(*src) {
                Value::Nat(n) => {
                    core.check_nat_width(n.bit_len() + 1)?;
                    core.set_reg(*dst, Value::Nat(n.succ()));
                }
                other => {
                    return Err(EvalError::Shape {
                        operator: "succ",
                        expected: "a natural number",
                        found: other.to_string(),
                    })
                }
            },
            Insn::CheckNat { src, op } => {
                if !matches!(core.reg(*src), Value::Nat(_)) {
                    return Err(EvalError::Shape {
                        operator: op,
                        expected: "a natural number",
                        found: core.reg(*src).to_string(),
                    });
                }
            }
            Insn::NatAdd { dst, a, b } => {
                let (na, nb) = take_nats(core, *a, *b, "+")?;
                core.check_nat_width(na.bit_len().max(nb.bit_len()) + 1)?;
                core.set_reg(*dst, Value::Nat(na.add(&nb)));
            }
            Insn::NatMul { dst, a, b } => {
                let (na, nb) = take_nats(core, *a, *b, "*")?;
                core.check_nat_width(na.bit_len() + nb.bit_len())?;
                core.set_reg(*dst, Value::Nat(na.mul(&nb)));
            }
            Insn::Call {
                dst,
                def,
                args,
                nargs,
                depth,
            } => {
                core.bump_step(base + *depth as usize)?;
                let entry = ctx.pchunk.defs()[*def as usize];
                let saved_base = core.frame_base;
                let new_base = core.locals.len();
                for i in 0..*nargs {
                    let v = core.take_reg(*args + i);
                    core.locals.push(v);
                }
                core.frame_base = new_base;
                pad_frame(core, entry.frame_size);
                let result = run_block(
                    core,
                    ctx,
                    ctx.pchunk,
                    entry.block,
                    base + *depth as usize + 1,
                )
                .map(|()| core.take_reg(ctx.pchunk.block(entry.block).result()));
                core.locals.truncate(new_base);
                core.frame_base = saved_base;
                core.set_reg(*dst, result?);
            }
            Insn::Reduce(r) => run_reduce(core, ctx, chunk, r, base)?,
        }
        pc += 1;
    }
    Ok(())
}

fn take_nats(
    core: &mut EvalCore,
    a: u16,
    b: u16,
    op: &'static str,
) -> Result<(crate::bignat::BigNat, crate::bignat::BigNat), EvalError> {
    let na = match core.take_reg(a) {
        Value::Nat(n) => n,
        other => {
            return Err(EvalError::Shape {
                operator: op,
                expected: "a natural number",
                found: other.to_string(),
            })
        }
    };
    let nb = match core.take_reg(b) {
        Value::Nat(n) => n,
        other => {
            return Err(EvalError::Shape {
                operator: op,
                expected: "a natural number",
                found: other.to_string(),
            })
        }
    };
    Ok((na, nb))
}

/// Runs one app-lambda application: the element into slot `x`, the block,
/// and the applied value out of the result register. The fold's `extra` is
/// already in slot `x + 1`: the fused kinds park it there once per fold
/// (codegen keeps their app blocks from moving it out), and
/// [`generic_element`] rewrites it per element.
fn apply_app(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    app: BlockId,
    x: u16,
    elem: Value,
    lambda_base: usize,
) -> Result<Value, EvalError> {
    core.set_reg(x, elem);
    run_block(core, ctx, chunk, app, lambda_base)?;
    Ok(core.take_reg(chunk.block(app).result()))
}

// ---------------------------------------------------------------------------
// Per-element fold bodies, shared verbatim by the sequential loops below and
// the shard workers in `crate::parallel`. One implementation per fused kind
// is what makes the thread axis a pure execution-strategy change: a shard
// worker charges exactly the step/depth/insert/allocation sequence the
// sequential loop charges for the same element, so summing worker statistics
// in shard order reproduces the sequential totals byte-for-byte.
// ---------------------------------------------------------------------------

/// One `BoolAcc` iteration: the app block, the fused `if`-accumulator
/// charges, and the boolean shape check. Returns whether the predicate hit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn boolacc_element(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    app: BlockId,
    x: u16,
    elem: Value,
    lambda_base: usize,
    d: usize,
) -> Result<bool, EvalError> {
    core.note_iteration()?;
    let applied = apply_app(core, ctx, chunk, app, x, elem, lambda_base)?;
    // if at d+2, condition slot read at d+3 …
    core.bump_batch(2, d + 3)?;
    let hit = match &applied {
        Value::Bool(b) => *b,
        other => {
            return Err(EvalError::Shape {
                operator: "if",
                expected: "a boolean condition",
                found: other.to_string(),
            })
        }
    };
    // … then the taken branch (boolean literal or accumulator read), one
    // step either way.
    core.bump_batch(1, d + 3)?;
    Ok(hit)
}

/// One `InsertApp` iteration up to (not including) the accumulator insert:
/// the app block plus the fused insert-body charges. The caller feeds the
/// returned value to [`EvalCore::insert_value`] on its accumulator.
#[allow(clippy::too_many_arguments)]
pub(crate) fn insertapp_element(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    app: BlockId,
    x: u16,
    elem: Value,
    lambda_base: usize,
    d: usize,
) -> Result<Value, EvalError> {
    core.note_iteration()?;
    let applied = apply_app(core, ctx, chunk, app, x, elem, lambda_base)?;
    // insert at d+2, two slot reads at d+3.
    core.bump_batch(3, d + 3)?;
    Ok(applied)
}

/// One `Filter` iteration up to the accumulator insert: app block, flag
/// charges and shape checks, and — when the element is kept — the selected
/// value (the caller inserts it). `None` means the element was dropped.
///
/// With an [`ElidedPair`] the block computes the flag alone and the kept
/// value is the element itself, moved back out of slot `x`; the skipped
/// element read and tuple are charged where the tuple's block charged
/// them, so every counter and every limit crossing stays in place.
#[allow(clippy::too_many_arguments)]
pub(crate) fn filter_element(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    app: BlockId,
    keep_on_true: bool,
    cond_index: usize,
    value_index: usize,
    pair: Option<ElidedPair>,
    x: u16,
    elem: Value,
    lambda_base: usize,
    d: usize,
) -> Result<Option<Value>, EvalError> {
    core.note_iteration()?;
    match pair {
        None => {
            let applied = apply_app(core, ctx, chunk, app, x, elem, lambda_base)?;
            filter_decide(core, &applied, Some(cond_index), keep_on_true, d, |_| {
                sel_component_ref(&applied, value_index).cloned()
            })
        }
        Some(pair) => {
            core.set_reg(x, elem);
            let flag = elided_pair_flag(core, ctx, chunk, app, pair, None, lambda_base)?;
            filter_decide(core, &flag, None, keep_on_true, d, |core| {
                Ok(core.take_reg(x))
            })
        }
    }
}

/// Runs the predicate block of an [`ElidedPair`] and returns the flag,
/// replaying the skipped nodes' charges where the pair's block made them:
/// the element read before the predicate (`[x, pred]`) or after it
/// (`[pred, x]`), then the tuple's step and leaf. A join's skipped `let`s
/// ([`JoinPrologue`]) open the predicate.
fn elided_pair_flag(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    app: BlockId,
    pair: ElidedPair,
    join: Option<JoinPrologue>,
    lambda_base: usize,
) -> Result<Value, EvalError> {
    let read = lambda_base + pair.read_depth as usize;
    if pair.elem_first {
        core.bump_step(read)?;
    }
    if let Some(join) = join {
        core.bump_batch(join.steps.into(), lambda_base + join.depth as usize)?;
    }
    run_block(core, ctx, chunk, app, lambda_base)?;
    if !pair.elem_first {
        core.bump_step(read)?;
    }
    core.bump_step(lambda_base + pair.tuple_depth as usize)?;
    core.charge_allocation(1)?;
    Ok(core.take_reg(chunk.block(app).result()))
}

/// The fused filter accumulator's charges for one applied element: the
/// `if`, the flag's shape checks (the flag is component `cond_index` of
/// `applied`, or `applied` itself for an elided pair), and for a kept
/// element the insert body's charges around `kept`, which yields the value
/// to insert.
fn filter_decide(
    core: &mut EvalCore,
    applied: &Value,
    cond_index: Option<usize>,
    keep_on_true: bool,
    d: usize,
    kept: impl FnOnce(&mut EvalCore) -> Result<Value, EvalError>,
) -> Result<Option<Value>, EvalError> {
    // if at d+2, flag selector at d+3, its slot read at d+4.
    core.bump_batch(3, d + 4)?;
    let flag = match cond_index {
        Some(index) => sel_component_ref(applied, index)?,
        None => applied,
    };
    let flag = match flag {
        Value::Bool(b) => *b,
        other => {
            return Err(EvalError::Shape {
                operator: "if",
                expected: "a boolean condition",
                found: other.to_string(),
            })
        }
    };
    if flag == keep_on_true {
        // insert at d+3, value selector at d+4, its slot read at d+5 …
        core.bump_batch(3, d + 5)?;
        let v = kept(core)?;
        // … then the accumulator slot read at d+4.
        core.bump_batch(1, d + 4)?;
        Ok(Some(v))
    } else {
        // The untaken branch reads the accumulator slot at d+3.
        core.bump_batch(1, d + 3)?;
        Ok(None)
    }
}

/// One `Generic` iteration: `extra` into slot `x + 1` (the acc block
/// overwrote it with the accumulator), the app block, then the acc block
/// applied to `(applied, accumulator)`. Returns the new accumulator. The
/// caller owns the per-iteration accumulator-weight observation: the
/// sequential loop notes `weight_capped` after every element, while shard
/// workers (which only see spine-proved folds, local or call-threaded,
/// whose accumulator only grows) skip it and let the merge note the final
/// weight, the trajectory's maximum.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generic_element(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    app: BlockId,
    acc: BlockId,
    x: u16,
    elem: Value,
    extra: &Value,
    lambda_base: usize,
    accumulator: Value,
) -> Result<Value, EvalError> {
    core.note_iteration()?;
    core.set_reg(x + 1, extra.clone());
    let applied = apply_app(core, ctx, chunk, app, x, elem, lambda_base)?;
    core.set_reg(x, applied);
    core.set_reg(x + 1, accumulator);
    run_block(core, ctx, chunk, acc, lambda_base)?;
    Ok(core.take_reg(chunk.block(acc).result()))
}

fn run_reduce(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    r: &ReduceInsn,
    base: usize,
) -> Result<(), EvalError> {
    let d = base + r.depth as usize;
    if !r.is_list {
        // The list form's step (and dialect check) was pre-charged by its
        // Guard instruction.
        core.bump_step(d)?;
    }
    let set_v = core.take_reg(r.set);
    let base_v = core.take_reg(r.base);
    let extra_v = core.take_reg(r.extra);
    let x = r.x_slot;
    // Lambda bodies run two levels below the reduce node: apply() at d+1,
    // the body at d+2 — block offsets are relative to the body root.
    let lb = d + 2;

    if r.is_list {
        let items = match set_v {
            Value::List(items) => items,
            other => {
                return Err(EvalError::Shape {
                    operator: "list-reduce",
                    expected: "a list as first argument",
                    found: other.to_string(),
                })
            }
        };
        let (app, acc) = match &r.kind {
            ReduceKind::Generic { app, acc } => (*app, *acc),
            other => unreachable!("list folds compile to Generic, got {other:?}"),
        };
        let result = generic_fold(
            core,
            ctx,
            chunk,
            app,
            acc,
            x,
            items.iter().cloned(),
            base_v,
            &extra_v,
            lb,
        )?;
        core.set_reg(r.dst, result);
        return Ok(());
    }

    // A join filter's set register holds what its product handed over, A
    // and B, not a set: it walks A × B itself, sequentially, and never
    // reaches the shard gate below.
    if let ReduceKind::Filter { join: Some(_), .. } = r.kind {
        core.set_reg(x + 1, extra_v);
        let result = join_fold(core, ctx, chunk, r, set_v, base_v, d)?;
        // The pairs it walks are tuples, never stored in a columnar tier.
        core.record_tier_engagement(&SetRepr::new(), &result);
        core.set_reg(r.dst, result);
        return Ok(());
    }

    let mut items = match set_v {
        Value::Set(items) => items,
        other => {
            return Err(EvalError::Shape {
                operator: "set-reduce",
                expected: "a set as first argument",
                found: other.to_string(),
            })
        }
    };
    let n = items.len();

    // Proper-hom folds with enough per-element work shard across the worker
    // pool; `try_run` declines (returning `None`) whenever sequential
    // execution is the right strategy, and the sequential arms below remain
    // the single source of truth for what one iteration charges (the shard
    // workers run the same per-element helpers).
    if let Some(result) =
        crate::parallel::try_run(core, ctx, chunk, r, d, &items, &base_v, &extra_v)
    {
        let result = result?;
        core.record_tier_engagement(&items, &result);
        core.set_reg(r.dst, result);
        return Ok(());
    }

    let result = match &r.kind {
        ReduceKind::Generic { app, acc } => generic_fold(
            core,
            ctx,
            chunk,
            *app,
            *acc,
            x,
            elems(&mut items),
            base_v,
            &extra_v,
            lb,
        )?,
        ReduceKind::Product { join } => {
            let total = product_charges(core, &items, &extra_v, d)?;
            if *join {
                // The join filter that reads this register walks A × B.
                Value::tuple([Value::Set(Arc::clone(&items)), extra_v])
            } else {
                product_set(&items, &extra_v, total)
            }
        }
        ReduceKind::Quantifier { is_or, test } => {
            // Per element: app `x ⋈ y` is 3 steps (the comparison at d+2,
            // two slot reads at d+3), acc `or`/`and` is 3 steps (if at d+2,
            // cond at d+3, taken branch at d+3) — value-independent, so the
            // whole scan batches and the ends of the set decide the rest.
            if n == 0 {
                base_v
            } else {
                let w0 = weight_capped(&base_v, ACCUMULATOR_WEIGHT_CAP);
                // Once an element flips the accumulator it is a boolean for
                // every later iteration.
                let weight = |first_flips: bool, any_flips: bool| {
                    if first_flips {
                        1
                    } else if any_flips {
                        w0.max(1)
                    } else {
                        w0
                    }
                };
                core.note_iterations(n as u64, 6, d + 3).map_err(|stop| {
                    // The iterations before the stop noted their weights.
                    let mut flips = items
                        .iter()
                        .take(stop.completed as usize)
                        .map(|e| test.holds(&e, &extra_v) == *is_or);
                    if let Some(first) = flips.next() {
                        core.note_accumulator_weight(weight(first, first || flips.any(|f| f)));
                    }
                    stop.error
                })?;
                let (first_flips, any_flips) = quantifier_flips(&items, &extra_v, *is_or, *test);
                core.note_accumulator_weight(weight(first_flips, any_flips));
                if any_flips {
                    Value::Bool(*is_or)
                } else {
                    base_v
                }
            }
        }
        ReduceKind::Union => {
            if n == 0 {
                base_v
            } else {
                match base_v {
                    Value::Set(mut b) => {
                        // Per element: identity app is 1 step at d+2, the
                        // insert body 3 steps (insert at d+2, two slot reads
                        // at d+3); each insert charges the element's weight.
                        core.note_iterations(n as u64, 4, d + 3)
                            .and_then(|()| {
                                core.stats.inserts += n as u64;
                                let leaves = items.iter().map(|e| e.weight());
                                core.charge_batch_allocation(n, items.weight_sum(), leaves)
                            })
                            .map_err(|stop| {
                                // The iterations before the stop grew the
                                // accumulator by their novel elements.
                                if stop.completed > 0 {
                                    let prefix = items.iter().take(stop.completed as usize);
                                    let grown = prefix
                                        .filter(|e| !b.contains(e))
                                        .fold(cap_add(1, b.weight_sum()), |w, e| {
                                            cap_add(w, e.weight())
                                        });
                                    core.note_accumulator_weight(grown);
                                }
                                stop.error
                            })?;
                        // One bulk merge into the accumulator — in place
                        // when codegen moved it here uniquely owned, into a
                        // copy otherwise. Ties keep the accumulator's copy,
                        // exactly like the insert fold; the accumulator only
                        // grows, so its final weight is the maximum.
                        Arc::make_mut(&mut b).merge_union(&items);
                        let merged = Value::Set(b);
                        core.note_accumulator_weight(weight_capped(
                            &merged,
                            ACCUMULATOR_WEIGHT_CAP,
                        ));
                        merged
                    }
                    other => {
                        // First iteration, replayed: the identity app, then
                        // the insert body's steps, then its shape error.
                        core.note_iteration()?;
                        core.bump_batch(4, d + 3)?;
                        return Err(EvalError::Shape {
                            operator: "insert",
                            expected: "a set as second argument",
                            found: other.to_string(),
                        });
                    }
                }
            }
        }
        ReduceKind::InsertApp { app } => {
            // The accumulator is held by the loop, never cloned back into a
            // slot, so after the first copy-on-write every insert is in
            // place; a non-set base fails at the first iteration's insert,
            // exactly like the tree-walk.
            core.set_reg(x + 1, extra_v);
            let mut acc = base_v;
            for elem in elems(&mut items) {
                let applied = insertapp_element(core, ctx, chunk, *app, x, elem, lb, d)?;
                acc = core.insert_value(applied, acc)?;
                core.note_accumulator_weight(weight_capped(&acc, ACCUMULATOR_WEIGHT_CAP));
            }
            core.clear_lambda_slots(x);
            acc
        }
        ReduceKind::Filter {
            app,
            keep_on_true,
            cond_index,
            value_index,
            pair,
            ..
        } => {
            core.set_reg(x + 1, extra_v);
            let mut acc = base_v;
            for elem in elems(&mut items) {
                let kept = filter_element(
                    core,
                    ctx,
                    chunk,
                    *app,
                    *keep_on_true,
                    *cond_index,
                    *value_index,
                    *pair,
                    x,
                    elem,
                    lb,
                    d,
                )?;
                if let Some(v) = kept {
                    acc = core.insert_value(v, acc)?;
                }
                core.note_accumulator_weight(weight_capped(&acc, ACCUMULATOR_WEIGHT_CAP));
            }
            core.clear_lambda_slots(x);
            acc
        }
        ReduceKind::Scan {
            app,
            cond_index,
            value_index,
        } => {
            core.set_reg(x + 1, extra_v);
            let mut acc = base_v;
            for elem in elems(&mut items) {
                core.note_iteration()?;
                let applied = apply_app(core, ctx, chunk, *app, x, elem, lb)?;
                core.bump_batch(3, d + 4)?;
                let flag = match sel_component_ref(&applied, *cond_index)? {
                    Value::Bool(b) => *b,
                    other => {
                        return Err(EvalError::Shape {
                            operator: "if",
                            expected: "a boolean condition",
                            found: other.to_string(),
                        })
                    }
                };
                if flag {
                    // value selector at d+3, its slot read at d+4.
                    core.bump_batch(2, d + 4)?;
                    acc = sel_component_ref(&applied, *value_index)?.clone();
                } else {
                    core.bump_batch(1, d + 3)?;
                }
                core.note_accumulator_weight(weight_capped(&acc, ACCUMULATOR_WEIGHT_CAP));
            }
            core.clear_lambda_slots(x);
            acc
        }
        ReduceKind::BoolAcc { app, is_or } => {
            let w0 = weight_capped(&base_v, ACCUMULATOR_WEIGHT_CAP);
            core.set_reg(x + 1, extra_v);
            let mut acc = base_v;
            let mut w_now = w0;
            for elem in elems(&mut items) {
                let hit = boolacc_element(core, ctx, chunk, *app, x, elem, lb, d)?;
                if *is_or {
                    if hit {
                        acc = Value::Bool(true);
                        w_now = 1;
                    }
                } else if !hit {
                    acc = Value::Bool(false);
                    w_now = 1;
                }
                core.note_accumulator_weight(w_now);
            }
            core.clear_lambda_slots(x);
            acc
        }
    };
    // Diagnostic: a fold engaged the columnar tier when it traversed a
    // columnar set or produced one. Not part of `EvalStats` — values and
    // stats are tier-invariant; only this counter observes the tier.
    core.record_tier_engagement(&items, &result);
    core.set_reg(r.dst, result);
    Ok(())
}

/// The [`ReduceKind::Quantifier`] decision over a non-empty set: whether
/// its first element flips the accumulator, and whether any element does.
/// An element flips an `or` fold when `test` holds and an `and` fold when
/// it fails. Over the ascending order `x = y` holds on at most one element,
/// `x <= y` on a prefix and `y <= x` on a suffix, so the first and last
/// elements settle both facts; only `∃`/`=` needs a search (`contains`: a
/// binary search, or one word probe on the bitset tier).
fn quantifier_flips(items: &SetRepr, y: &Value, is_or: bool, test: QuantTest) -> (bool, bool) {
    let holds = |end: Option<Value>| test.holds(&end.expect("the set is non-empty"), y);
    if is_or {
        let some_holds = match test {
            QuantTest::Eq => items.contains(y),
            QuantTest::XLeqY => holds(items.first()),
            QuantTest::YLeqX => holds(items.last()),
        };
        let first_holds = some_holds && (test == QuantTest::XLeqY || holds(items.first()));
        (first_holds, some_holds)
    } else {
        let first_fails = !holds(items.first());
        let some_fails = first_fails
            || match test {
                QuantTest::Eq | QuantTest::XLeqY => !holds(items.last()),
                QuantTest::YLeqX => false,
            };
        (first_fails, some_fails)
    }
}

/// The elements a sequential set fold walks. An input this fold holds the
/// only reference to, in a value tier, is consumed: its elements move into
/// slot `x` one by one instead of being cloned out of a set that is dropped
/// right after the fold (one `Arc` bump and drop saved per tuple or set
/// element). Columnar tiers have no `Value`s to move, and a shared input
/// must stay intact, so both are walked by clone.
enum Elems<'a> {
    Owned(std::vec::IntoIter<Value>),
    Shared(SetIter<'a>),
}

impl Iterator for Elems<'_> {
    type Item = Value;

    #[inline]
    fn next(&mut self) -> Option<Value> {
        match self {
            Elems::Owned(it) => it.next(),
            Elems::Shared(it) => it.next(),
        }
    }
}

fn elems(items: &mut Arc<SetRepr>) -> Elems<'_> {
    match Arc::get_mut(items) {
        Some(set) if set.value_slice().is_some() => Elems::Owned(std::mem::take(set).into_iter()),
        _ => Elems::Shared(items.iter()),
    }
}

/// The [`ReduceKind::Product`] charges: what `cartesian(A, B)`'s three
/// nested folds charge, in closed form per element of A, in the VM's usual
/// order of a node's operands before the node (`d` is the outer reduce's
/// depth). Returns the summed weight of the pairs.
///
/// * per `a`: the outer iteration, then the app's inner map — its `bs`,
///   `emptyset` and `a` operands at `d + 3` and its reduce node at `d + 2`,
///   where a non-set `B` raises the inner reduce's shape error;
/// * per `b`, batched: the map's iteration, the `[aa, b]` tuple (two slot
///   reads at `d + 5`, the tuple at `d + 4`, one allocation), the insert
///   body (three steps to `d + 5`), the insert with the pair's weight, and
///   the slice's weight;
/// * per `a` again: the acc's union — its `slice`, `acc` and `emptyset`
///   operands at `d + 3`, its reduce node at `d + 2` — and then, batched,
///   per pair of the slice its iteration, the identity app and insert body
///   (four steps to `d + 5`), the insert, and the accumulator's weight.
///
/// Every insert is novel and the pair `[a, b]` weighs `1 + |a| + |b|`, so
/// both weights are running sums and a slice sums to `m·(1 + |a|) + |B|`
/// over `m = |B|` pairs. A batch that stops early notes the weights its
/// completed pairs reached, so a limit or `DEADLINE_MID_FOLD` inside the
/// product leaves the partial `max_accumulator_weight` the tree-walk
/// leaves.
fn product_charges(
    core: &mut EvalCore,
    items: &SetRepr,
    bs: &Value,
    d: usize,
) -> Result<usize, EvalError> {
    let empty_w = weight_capped(&Value::empty_set(), ACCUMULATOR_WEIGHT_CAP);
    let mut acc_w = empty_w;
    let mut total = 0usize;
    for a in items.iter() {
        core.note_iteration()?;
        core.bump_batch(4, d + 3)?;
        let Value::Set(bs) = bs else {
            return Err(EvalError::Shape {
                operator: "set-reduce",
                expected: "a set as first argument",
                found: bs.to_string(),
            });
        };
        let m = bs.len();
        let wa = a.weight();
        let pair_w = |b: Value| 1 + wa + b.weight();
        let slice_sum = m.saturating_mul(1 + wa).saturating_add(bs.weight_sum());
        // One batched pass over the slice: `steps` and, besides the pair's
        // weight, `leaves` allocated per pair; the running weight grows
        // from `from`. A stopped pass notes the weights its completed
        // pairs reached.
        let pass = |core: &mut EvalCore, steps: u64, leaves: usize, from: usize| {
            if m == 0 {
                return Ok(from);
            }
            core.note_iterations(m as u64, steps, d + 5)
                .and_then(|()| {
                    core.stats.inserts += m as u64;
                    let per_pair = bs.iter().map(|b| leaves + pair_w(b));
                    core.charge_batch_allocation(m, m * leaves + slice_sum, per_pair)
                })
                .map_err(|stop| {
                    if stop.completed > 0 {
                        let prefix = bs.iter().take(stop.completed as usize);
                        core.note_accumulator_weight(
                            prefix.fold(from, |w, b| cap_add(w, pair_w(b))),
                        );
                    }
                    stop.error
                })?;
            let grown = cap_add(from, slice_sum);
            core.note_accumulator_weight(grown);
            Ok(grown)
        };
        // The map's pairs: the tuple's leaf and the insert of its weight.
        pass(core, 6, 1, empty_w)?;
        core.bump_batch(4, d + 3)?;
        // The union's inserts of the same pairs.
        acc_w = pass(core, 4, 0, acc_w)?;
        // The outer fold's own observation, the only one when `B` is empty.
        core.note_accumulator_weight(acc_w);
        total = total.saturating_add(slice_sum);
    }
    Ok(total)
}

/// The standalone [`ReduceKind::Product`]'s set, once its charges are
/// made: the pairs `[a, b]` come out in ascending order (A and B are walked
/// in order, tuples compare lexicographically) and are pairwise distinct,
/// so they go into one vector and the set is built once, on the tier a
/// fresh build picks. `B` is a set unless `A` is empty.
fn product_set(items: &SetRepr, bs: &Value, total: usize) -> Value {
    let mut pairs = Vec::new();
    if let Value::Set(bs) = bs {
        pairs.reserve(items.len() * bs.len());
        for a in items.iter() {
            pairs.extend(bs.iter().map(|b| Value::tuple([a.clone(), b])));
        }
    }
    Value::Set(Arc::new(SetRepr::from_sorted_vec(pairs, Some(total))))
}

/// The join [`ReduceKind::Filter`] kernel: the filter over A × B, walked in
/// place from the `[A, B]` its product handed over (`handoff`), the charges
/// of each pair's predicate and accumulator made exactly as the filter over
/// the built product makes them. The pair is never built to be taken
/// apart: `a` goes into the first `let`'s slot once per element of A, `b`
/// into the second's per pair, the skipped `let`s are replayed from their
/// [`JoinPrologue`], and `[a, b]` is built only when the filter keeps it.
/// `extra` is already parked in slot `x + 1`.
fn join_fold(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    r: &ReduceInsn,
    handoff: Value,
    base_v: Value,
    d: usize,
) -> Result<Value, EvalError> {
    let ReduceKind::Filter {
        app,
        keep_on_true,
        pair: Some(pair),
        join: Some(join),
        ..
    } = r.kind
    else {
        unreachable!(
            "codegen sets a join only on an elided pair, got {:?}",
            r.kind
        )
    };
    let Value::Tuple(ab) = handoff else {
        unreachable!("a join filter's set is its product's hand-off, got {handoff}")
    };
    let (x, lambda_base) = (r.x_slot, d + 2);
    let (a_slot, b_slot) = (x + 2, x + 3);
    let mut acc = base_v;
    // `B` is a set unless `A` is empty: the product checked it.
    if let (Value::Set(a_set), Value::Set(bs)) = (&ab[0], &ab[1]) {
        for a in a_set.iter() {
            core.set_reg(a_slot, a);
            for b in bs.iter() {
                core.note_iteration()?;
                core.set_reg(b_slot, b);
                let flag = elided_pair_flag(core, ctx, chunk, app, pair, Some(join), lambda_base)?;
                let kept = filter_decide(core, &flag, None, keep_on_true, d, |core| {
                    Ok(Value::tuple([
                        core.reg(a_slot).clone(),
                        core.take_reg(b_slot),
                    ]))
                })?;
                if let Some(v) = kept {
                    acc = core.insert_value(v, acc)?;
                }
                core.note_accumulator_weight(weight_capped(&acc, ACCUMULATOR_WEIGHT_CAP));
            }
        }
    }
    core.clear_lambda_slots(x);
    core.clear_lambda_slots(a_slot);
    Ok(acc)
}

/// The tree-walk reduce loop over blocks: both lambdas dispatched per
/// element, the accumulator weight walked per iteration.
#[allow(clippy::too_many_arguments)]
fn generic_fold(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    app: BlockId,
    acc: BlockId,
    x: u16,
    items: impl Iterator<Item = Value>,
    base_v: Value,
    extra_v: &Value,
    lambda_base: usize,
) -> Result<Value, EvalError> {
    let mut accumulator = base_v;
    for elem in items {
        accumulator = generic_element(
            core,
            ctx,
            chunk,
            app,
            acc,
            x,
            elem,
            extra_v,
            lambda_base,
            accumulator,
        )?;
        let w = weight_capped(&accumulator, ACCUMULATOR_WEIGHT_CAP);
        core.note_accumulator_weight(w);
    }
    core.clear_lambda_slots(x);
    Ok(accumulator)
}
