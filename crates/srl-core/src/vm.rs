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
//! as a binary search ([`ReduceKind::Member`]), a bulk sorted merge
//! ([`ReduceKind::Union`] over [`SetRepr::merge_union`]), or an in-place
//! insert loop on a uniquely-held accumulator (the other fused kinds).
//! Batching is sound because every limit counter is monotone: a batch total
//! crosses the budget if and only if some step inside the batch crossed it.
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
//! `cartesian`: instead of building one slice per element and merging each
//! into the accumulator, it pushes every pair into one vector in order and
//! builds the set once (see [`product_fold`]).

use std::sync::Arc;

use crate::bytecode::{BlockId, Chunk, DialectOp, Insn, Operand, ReduceInsn, ReduceKind, SetTier};
use crate::error::EvalError;
use crate::eval::{
    choose_min, head_value, next_fresh_index, require_dialect, rest_value, sel_component_ref,
    tail_value, weight_capped, EvalCore, ACCUMULATOR_WEIGHT_CAP,
};
use crate::lower::CompiledProgram;
use crate::setrepr::SetRepr;
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
/// `cap + 1` beyond. Only [`product_fold`] keeps a running weight: it never
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

/// Runs one app-lambda application: element and extra into the parameter
/// slots, the block, and the applied value out of the result register.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_app(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    app: BlockId,
    x: u16,
    elem: Value,
    extra: &Value,
    lambda_base: usize,
) -> Result<Value, EvalError> {
    core.set_reg(x, elem);
    core.set_reg(x + 1, extra.clone());
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
    extra: &Value,
    lambda_base: usize,
    d: usize,
) -> Result<bool, EvalError> {
    core.note_iteration()?;
    let applied = apply_app(core, ctx, chunk, app, x, elem, extra, lambda_base)?;
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
    extra: &Value,
    lambda_base: usize,
    d: usize,
) -> Result<Value, EvalError> {
    core.note_iteration()?;
    let applied = apply_app(core, ctx, chunk, app, x, elem, extra, lambda_base)?;
    // insert at d+2, two slot reads at d+3.
    core.bump_batch(3, d + 3)?;
    Ok(applied)
}

/// One `Filter` iteration up to the accumulator insert: app block, flag
/// charges and shape checks, and — when the element is kept — the selected
/// value (the caller inserts it). `None` means the element was dropped.
#[allow(clippy::too_many_arguments)]
pub(crate) fn filter_element(
    core: &mut EvalCore,
    ctx: &VmCtx<'_>,
    chunk: &Chunk,
    app: BlockId,
    keep_on_true: bool,
    cond_index: usize,
    value_index: usize,
    x: u16,
    elem: Value,
    extra: &Value,
    lambda_base: usize,
    d: usize,
) -> Result<Option<Value>, EvalError> {
    core.note_iteration()?;
    let applied = apply_app(core, ctx, chunk, app, x, elem, extra, lambda_base)?;
    // if at d+2, flag selector at d+3, its slot read at d+4.
    core.bump_batch(3, d + 4)?;
    let flag = match sel_component_ref(&applied, cond_index)? {
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
        let v = sel_component_ref(&applied, value_index)?.clone();
        // … then the accumulator slot read at d+4.
        core.bump_batch(1, d + 4)?;
        Ok(Some(v))
    } else {
        // The untaken branch reads the accumulator slot at d+3.
        core.bump_batch(1, d + 3)?;
        Ok(None)
    }
}

/// One `Generic` iteration: the app block, then the acc block applied to
/// `(applied, accumulator)`. Returns the new accumulator. The caller owns
/// the per-iteration accumulator-weight observation: the sequential loop
/// notes `weight_capped` after every element, while shard workers (which
/// only see spine-proved folds, local or call-threaded, whose accumulator
/// only grows) skip it and let the merge note the final weight, the
/// trajectory's maximum.
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
    let applied = apply_app(core, ctx, chunk, app, x, elem, extra, lambda_base)?;
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
    let mut base_v = core.take_reg(r.base);
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
    let n = items.len();

    // Static tier pre-promotion: when codegen proved the fold's result is a
    // `set(atom)` (or a fixed-arity atom-tuple set) and the base is the
    // empty generic set, start the accumulator on the matching columnar
    // tier so inserts stay u32-columnar from the first element.
    // Stats-neutral: all representations of the empty set weigh zero and
    // charge nothing. A wrong (advisory) stamp only costs the fast path —
    // the first non-conforming insert demotes in place.
    match r.acc_tier {
        SetTier::Atom => {
            if let Value::Set(b) = &base_v {
                if b.is_empty() && !b.is_columnar() {
                    base_v = Value::Set(Arc::new(crate::setrepr::SetRepr::new_atoms()));
                }
            }
        }
        SetTier::Tuple { arity } => {
            if let Value::Set(b) = &base_v {
                if b.is_empty() && !b.is_columnar() {
                    base_v =
                        Value::Set(Arc::new(crate::setrepr::SetRepr::new_rows(arity as usize)));
                }
            }
        }
        SetTier::Generic => {}
    }

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
            items.iter(),
            base_v,
            &extra_v,
            lb,
        )?,
        ReduceKind::Product => product_fold(core, &items, &extra_v, d)?,
        ReduceKind::Member => {
            // Per element: app `x = y` is 3 steps (Eq at d+2, two slot reads
            // at d+3), acc `or` is 3 steps (if at d+2, cond at d+3, taken
            // branch at d+3) — value-independent, so the whole scan batches
            // and the hit test is one binary search.
            if n == 0 {
                base_v
            } else {
                core.stats.reduce_iterations += n as u64;
                core.bump_batch(6 * n as u64, d + 3)?;
                let w0 = weight_capped(&base_v, ACCUMULATOR_WEIGHT_CAP);
                // Tier-aware membership: a binary search on the sorted
                // tiers, one word probe on the dense bitset tier.
                if items.contains(&extra_v) {
                    if items.first().is_some_and(|m| m == extra_v) {
                        // Hit on the first element: the accumulator is a
                        // boolean after every iteration.
                        core.note_accumulator_weight(1);
                    } else {
                        core.note_accumulator_weight(w0.max(1));
                    }
                    Value::Bool(true)
                } else {
                    core.note_accumulator_weight(w0);
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
                        core.stats.reduce_iterations += n as u64;
                        core.bump_batch(4 * n as u64, d + 3)?;
                        core.stats.inserts += n as u64;
                        core.charge_allocation(items.weight_sum())?;
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
            let mut acc = base_v;
            for elem in items.iter() {
                let applied = insertapp_element(core, ctx, chunk, *app, x, elem, &extra_v, lb, d)?;
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
        } => {
            let mut acc = base_v;
            for elem in items.iter() {
                let kept = filter_element(
                    core,
                    ctx,
                    chunk,
                    *app,
                    *keep_on_true,
                    *cond_index,
                    *value_index,
                    x,
                    elem,
                    &extra_v,
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
            let mut acc = base_v;
            for elem in items.iter() {
                core.note_iteration()?;
                let applied = apply_app(core, ctx, chunk, *app, x, elem, &extra_v, lb)?;
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
            let mut acc = base_v;
            let mut w_now = w0;
            for elem in items.iter() {
                let hit = boolacc_element(core, ctx, chunk, *app, x, elem, &extra_v, lb, d)?;
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

/// The [`ReduceKind::Product`] kernel: `cartesian(A, B)` as one nested
/// loop. The pairs `[a, b]` come out in ascending order (A and B are walked
/// in order, tuples compare lexicographically) and are pairwise distinct, so
/// they go into one vector and the set is built once, on the tier a fresh
/// build picks.
///
/// The charges replay, per pair, what the three folds it replaces charge,
/// in the VM's usual order of a node's operands before the node (`d` is
/// the outer reduce's depth):
///
/// * per `a`: the outer iteration, then the app's inner map — its `bs`,
///   `emptyset` and `a` operands at `d + 3` and its reduce node at `d + 2`,
///   where a non-set `B` raises the inner reduce's shape error;
/// * per `b`: the map's iteration, the `[aa, b]` tuple (two slot reads at
///   `d + 5`, the tuple at `d + 4`, one allocation), the insert body (three
///   steps to `d + 5`), the insert with the pair's weight, and the slice's
///   weight;
/// * per `a` again: the acc's union — its `slice`, `acc` and `emptyset`
///   operands at `d + 3`, its reduce node at `d + 2` — and then per pair of
///   the slice its iteration, the identity app and insert body (four steps
///   to `d + 5`), the insert, and the accumulator's weight.
///
/// Every insert is novel, so both weights are running sums. The union's
/// charges go per pair rather than in [`ReduceKind::Union`]'s one batch;
/// totals are the same, and a limit or `DEADLINE_MID_FOLD` that trips
/// inside the product stops at the same iteration as on the tree-walk.
fn product_fold(
    core: &mut EvalCore,
    items: &SetRepr,
    bs: &Value,
    d: usize,
) -> Result<Value, EvalError> {
    let empty_w = weight_capped(&Value::empty_set(), ACCUMULATOR_WEIGHT_CAP);
    let mut acc_w = empty_w;
    let mut pairs = Vec::new();
    let mut slice_weights = Vec::new();
    let mut total = 0usize;
    for a in items.iter() {
        core.note_iteration()?;
        core.bump_batch(3, d + 3)?;
        core.bump_step(d + 2)?;
        let Value::Set(bs) = bs else {
            return Err(EvalError::Shape {
                operator: "set-reduce",
                expected: "a set as first argument",
                found: bs.to_string(),
            });
        };
        let wa = a.weight();
        let mut slice_w = empty_w;
        slice_weights.clear();
        for b in bs.iter() {
            core.note_iteration()?;
            core.bump_batch(2, d + 5)?;
            core.bump_step(d + 4)?;
            core.charge_allocation(1)?;
            core.bump_batch(3, d + 5)?;
            core.stats.inserts += 1;
            // `Value::weight` of the pair `[a, b]`.
            let w = 1 + wa + b.weight();
            core.charge_allocation(w)?;
            slice_w = cap_add(slice_w, w);
            core.note_accumulator_weight(slice_w);
            pairs.push(Value::tuple([a.clone(), b]));
            slice_weights.push(w);
        }
        core.bump_batch(3, d + 3)?;
        core.bump_step(d + 2)?;
        for &w in &slice_weights {
            core.note_iteration()?;
            core.bump_batch(4, d + 5)?;
            core.stats.inserts += 1;
            core.charge_allocation(w)?;
            acc_w = cap_add(acc_w, w);
            core.note_accumulator_weight(acc_w);
            total += w;
        }
        // The outer fold's own observation, the only one when `B` is empty.
        core.note_accumulator_weight(acc_w);
    }
    Ok(Value::Set(Arc::new(SetRepr::from_sorted_vec(
        pairs,
        Some(total),
    ))))
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
