//! The register bytecode: instruction set, chunks, and the codegen pass from
//! the lowered arena.
//!
//! The tree-walking evaluator ([`crate::eval`]) re-dispatches through a
//! `match` on [`LExpr`] for every node visit, every iteration of every
//! `set-reduce`. This module compiles the lowered arena one step further,
//! into straight-line **register code**: each definition body (and each
//! stand-alone lowered expression) becomes a [`Block`] of [`Insn`]s operating
//! on a flat register frame, with `if` as explicit branches and the reduce
//! lambdas as nested blocks. The dispatch loop lives in `crate::vm`.
//!
//! ## Register frames
//!
//! One frame per definition activation (and one for the root expression).
//! The frame layout extends the lowering's slot discipline:
//!
//! * registers `0 .. max_lexical_height` are the **lexical slots** — exactly
//!   the frame slots [`LExpr::Local`] indexes: definition parameters from
//!   register 0, then `let` bindings and reduce-lambda parameters at their
//!   static heights. Lambda bodies execute in the enclosing frame (they see
//!   enclosing bindings), with their two parameters at the next two slots.
//! * registers `max_lexical_height .. frame_size` are **temporaries**,
//!   allocated by codegen with a stack discipline.
//!
//! ## The `EvalStats` contract
//!
//! Every instruction that corresponds to an [`LExpr`] node visit carries the
//! node's **static depth offset** within its block and charges exactly one
//! step at `base_depth + offset` when executed — the same accounting
//! [`EvalCore::bump_step`](crate::eval) performs per `eval_in` entry. Codegen
//! reorders *when* a parent's step is charged (after its operands instead of
//! before), which cannot change the totals, the high-water marks, or whether
//! a monotone limit is crossed; nodes whose tree-walk arm can fail *before*
//! evaluating children (dialect guards, static arity mismatches) keep their
//! pre-order position via explicit [`Insn::Guard`]/fail instructions. The
//! result: on every successful evaluation the VM's [`EvalStats`](crate::limits::EvalStats) are
//! **byte-identical** to the tree-walk's, and on error paths the
//! [`EvalError`](crate::error::EvalError) matches, payload included, while
//! the partial counters may differ by the reordering. The shared engine
//! matrix in `tests/lib.rs`, which every differential suite runs, enforces
//! both.
//!
//! ## Superinstructions
//!
//! Codegen fuses the hot shapes of the paper's programs so the dispatch loop
//! executes one instruction where the tree-walk visited several nodes:
//!
//! * **operand fusion** — `sel_i(x)`, `x = y`, `x ≤ y`, `sel_i(x) = sel_j(y)`,
//!   comparisons against constants, and `choose(x)` on frame slots become a
//!   single [`Insn::Cmp`]/[`Insn::Sel`]/[`Insn::Choose`] with
//!   [`Operand`]-encoded children (borrowed from the frame, never cloned),
//!   including the `choose`/`rest`-on-a-slot pair ([`Insn::Choose`] +
//!   [`Insn::Rest`] over a [`Insn::Take`]n slot);
//! * **last-use moves** — a `Local` read in tail position whose slot is dead
//!   afterwards compiles to [`Insn::Take`] instead of a clone, so the
//!   accumulator threaded through an `insert`-fold (or through a call like
//!   the powerset's `finsert`) stays uniquely owned and every
//!   `Arc::make_mut` mutates in place instead of copying. The base of a
//!   reduce in tail position counts as such a read when neither `extra`
//!   nor the lambdas read its slot: a combiner `union(slice, acc)` then
//!   receives its accumulator uniquely owned and [`ReduceKind::Union`]
//!   merges the slice into it in place;
//! * **fold superinstructions** — a `set-reduce` whose lambdas match one of
//!   the stdlib's shapes compiles to a single fused [`ReduceKind`]:
//!   [`ReduceKind::Quantifier`] (an `∃`/`∀` over `x = y`, `x <= y` or
//!   `y <= x` against the extra — the `member` scan, BASRL's
//!   `is_min`/`is_max` — is decided from the set's first and last
//!   elements, plus one binary search for `member`),
//!   [`ReduceKind::Union`] (the `union` insert-fold becomes one bulk
//!   `SetMerge` over [`SetRepr::merge_union`](crate::setrepr::SetRepr)),
//!   [`ReduceKind::Product`] (the stdlib `cartesian` — a fold of per-element
//!   map slices unioned into the accumulator, three nested folds in all —
//!   charges in closed form per element of A and becomes one nested loop
//!   that pushes the pairs in order and builds the set once, or, read by a
//!   join filter, hands A and B to it and builds nothing),
//!   and [`ReduceKind::InsertApp`]/[`ReduceKind::Filter`]/
//!   [`ReduceKind::Scan`]/[`ReduceKind::BoolAcc`] (`map`/`select`/
//!   `difference`-style folds with the accumulator lambda emulated
//!   arithmetically). Each fused kind replays the tree-walk's per-iteration
//!   step/depth/insert/allocation accounting in closed form, so the
//!   statistics stay byte-identical while the data path runs at memory
//!   speed. Insert-only accumulator bodies (local or call-threaded spines)
//!   do not fuse: they run as [`ReduceKind::Generic`], and the spine proof
//!   only upgrades their [`FoldClass`];
//! * **owned fold operands** — the app block of every fused kind that has
//!   one leaves slot `x + 1` alone, so the VM parks `extra` there once per
//!   fold (`Codegen::gen_parked_app_block`), and a `Filter` whose app is
//!   the stdlib `select` pair `[x, pred]` (or `[pred, x]`) compiles `pred`
//!   alone and records the skipped nodes' depths in an [`ElidedPair`], so
//!   the kernel keeps the element instead of building a pair around it;
//! * **joins** — such a filter over a product whose `pred` only unpacks
//!   the pair (`let a = x.1 in let b = x.2 in body`, the stdlib `join`)
//!   compiles `body` alone with the two `let` slots held by its kernel,
//!   and records the skipped `let`s' steps in a [`JoinPrologue`]; the
//!   product before it leaves A and B in its destination register, so A ×
//!   B is walked in place and `[a, b]` built only for the pairs kept.

use crate::analysis::{self, DefSummaries, SpineBlock};
use crate::bignat::BigNat;
use crate::lower::{CompiledProgram, LExpr, LId, LLambda, LoweredExpr};
use crate::value::Value;
use std::ops::Range;

/// A register index within the current frame.
pub type Reg = u16;

/// A block index within a [`Chunk`].
pub type BlockId = u32;

/// A fused operand of a comparison / selection / choose instruction: where
/// the value comes from without a separate instruction (and, for everything
/// but [`Operand::Temp`], without cloning it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// A temporary computed by preceding instructions (already charged).
    Temp(Reg),
    /// A frame slot, borrowed (one step at `depth + 1`).
    Slot(Reg),
    /// `sel_i` of a frame slot, borrowed (steps at `depth + 1`, `depth + 2`).
    SlotSel(Reg, usize),
    /// A constant from the chunk's constant table (one step at `depth + 1`).
    Const(u32),
}

/// The dialect feature a [`Insn::Guard`] checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DialectOp {
    /// `allow_new`.
    New,
    /// `allow_lists`.
    Lists,
    /// `allow_nat`.
    Nat,
    /// `allow_nat_add`.
    NatAdd,
    /// `allow_nat_mul`.
    NatMul,
}

/// One bytecode instruction. `depth` fields are static offsets from the
/// enclosing block's base depth; instructions without one were pre-charged by
/// a [`Insn::Guard`].
#[derive(Clone, Debug)]
pub enum Insn {
    /// `dst = bool`.
    LoadBool {
        /// Destination register.
        dst: Reg,
        /// The literal.
        value: bool,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = consts[index]` (an O(1) Arc-payload clone).
    LoadConst {
        /// Destination register.
        dst: Reg,
        /// Constant-table index.
        index: u32,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = {}`.
    LoadEmptySet {
        /// Destination register.
        dst: Reg,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = <>` (guards `allow_lists` itself — it has no children).
    LoadEmptyList {
        /// Destination register.
        dst: Reg,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = nats[index]` (guards `allow_nat` itself).
    LoadNat {
        /// Destination register.
        dst: Reg,
        /// Natural-constant-table index.
        index: u32,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = clone(src)` — a `Local` read whose slot stays live.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source frame slot.
        src: Reg,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = move(src)` — a `Local` read in tail position whose slot is
    /// dead afterwards; keeps Arc payloads uniquely owned.
    Take {
        /// Destination register.
        dst: Reg,
        /// Source frame slot (left holding a placeholder).
        src: Reg,
        /// Static depth offset.
        depth: u32,
    },
    /// An `UnboundVar` poison node: raises `EvalError::UnboundVariable`.
    FailUnbound {
        /// Name-table index of the original spelling.
        name: u32,
        /// Static depth offset.
        depth: u32,
    },
    /// A `CallUnknown` poison node: raises `EvalError::UnknownFunction`.
    FailUnknownCall {
        /// Name-table index of the called name.
        name: u32,
        /// Static depth offset.
        depth: u32,
    },
    /// A call whose arity mismatch is known statically: raises the
    /// tree-walk's shape error *before* evaluating any argument.
    FailArity {
        /// Callee definition index.
        def: u32,
        /// Number of arguments at the call site.
        nargs: u16,
        /// Static depth offset.
        depth: u32,
    },
    /// Charges one step (used for `let`, whose value/body need no joining
    /// instruction of their own).
    Bump {
        /// Static depth offset.
        depth: u32,
    },
    /// Charges one step and checks a dialect flag — emitted *before* the
    /// node's children, preserving the tree-walk's error order.
    Guard {
        /// The feature required.
        op: DialectOp,
        /// Operator name for the `DialectViolation` error.
        name: &'static str,
        /// Static depth offset.
        depth: u32,
    },
    /// `if`: charges the `if` node's step, requires `cond` to hold a
    /// boolean, and jumps to `else_to` when it is false.
    Branch {
        /// Condition register.
        cond: Reg,
        /// Jump target (instruction index in this block) when false.
        else_to: u32,
        /// Static depth offset.
        depth: u32,
    },
    /// Unconditional jump within the block.
    Jump {
        /// Target instruction index.
        to: u32,
    },
    /// `dst = [regs[start], …, regs[start+len-1]]`, moving the components.
    MakeTuple {
        /// Destination register.
        dst: Reg,
        /// First component register.
        start: Reg,
        /// Number of components.
        len: u16,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = sel_index(op)`, borrowing fused operands.
    Sel {
        /// Destination register.
        dst: Reg,
        /// 1-based component index.
        index: usize,
        /// The tuple operand.
        op: Operand,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = (a = b)` or `(a ≤ b)`, borrowing fused operands.
    Cmp {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// `true` for `≤`, `false` for `=`.
        leq: bool,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = insert(elem, set)`, consuming both registers.
    Insert {
        /// Destination register.
        dst: Reg,
        /// Element register (moved).
        elem: Reg,
        /// Set register (moved; mutated in place when uniquely owned).
        set: Reg,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = choose(op)`, borrowing a fused operand.
    Choose {
        /// Destination register.
        dst: Reg,
        /// The set operand.
        op: Operand,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = rest(src)`, consuming the register (paired with
    /// [`Insn::Take`] this pops the minimum in place).
    Rest {
        /// Destination register.
        dst: Reg,
        /// Set register (moved).
        src: Reg,
        /// Static depth offset.
        depth: u32,
    },
    /// `dst = cons(elem, list)` (guarded).
    Cons {
        /// Destination register.
        dst: Reg,
        /// Element register (moved).
        elem: Reg,
        /// List register (moved).
        list: Reg,
    },
    /// `dst = head(src)` (guarded).
    Head {
        /// Destination register.
        dst: Reg,
        /// List register (moved).
        src: Reg,
    },
    /// `dst = tail(src)` (guarded).
    Tail {
        /// Destination register.
        dst: Reg,
        /// List register (moved).
        src: Reg,
    },
    /// `dst = new(src)` (guarded).
    New {
        /// Destination register.
        dst: Reg,
        /// Operand register (moved).
        src: Reg,
    },
    /// `dst = succ(src)` (guarded).
    Succ {
        /// Destination register.
        dst: Reg,
        /// Operand register (moved).
        src: Reg,
    },
    /// Requires `src` to hold a natural — the tree-walk checks the first
    /// operand of `+`/`*` before evaluating the second.
    CheckNat {
        /// Register to check (borrowed).
        src: Reg,
        /// Operator name for the shape error.
        op: &'static str,
    },
    /// `dst = a + b` on naturals (guarded).
    NatAdd {
        /// Destination register.
        dst: Reg,
        /// Left operand register (moved).
        a: Reg,
        /// Right operand register (moved).
        b: Reg,
    },
    /// `dst = a * b` on naturals (guarded).
    NatMul {
        /// Destination register.
        dst: Reg,
        /// Left operand register (moved).
        a: Reg,
        /// Right operand register (moved).
        b: Reg,
    },
    /// Call a definition: moves `nargs` argument registers starting at
    /// `args` into a fresh frame and runs the callee's block.
    Call {
        /// Destination register.
        dst: Reg,
        /// Callee definition index (resolved through the program chunk).
        def: u32,
        /// First argument register.
        args: Reg,
        /// Number of arguments.
        nargs: u16,
        /// Static depth offset.
        depth: u32,
    },
    /// A `set-reduce`/`list-reduce`, possibly fused (see [`ReduceKind`]).
    Reduce(Box<ReduceInsn>),
}

/// The operands and fold strategy of a reduce instruction.
#[derive(Clone, Debug)]
pub struct ReduceInsn {
    /// Destination register.
    pub dst: Reg,
    /// Register holding the traversed set/list (moved).
    pub set: Reg,
    /// Register holding the base value (moved).
    pub base: Reg,
    /// Register holding the `extra` value (moved).
    pub extra: Reg,
    /// Frame slot of the lambdas' first parameter (`y` is `x_slot + 1`).
    pub x_slot: Reg,
    /// Static depth offset of the reduce node.
    pub depth: u32,
    /// True for `list-reduce` (whose dialect guard was pre-charged).
    pub is_list: bool,
    /// The algebraic class of the fold's combiner, decided at compile time
    /// (see [`FoldClass`]). [`FoldClass::ProperHom`] folds may be sharded
    /// across the worker pool (`crate::parallel`); everything else must run
    /// sequentially.
    pub class: FoldClass,
    /// Where the classification came from: a fused shape, the
    /// interprocedural spine summary, a named obstacle, or list semantics.
    /// Pure provenance — the disassembler, `srl analyze`, and the REPL
    /// report it; execution reads only `class` and `kind`.
    pub origin: FoldOrigin,
    /// Static estimate of the work one fold iteration performs (weighted
    /// instruction count of the lambda blocks; nested reduces and calls
    /// weigh heavily). The parallel executor multiplies it by the input
    /// cardinality and shards only when the product reaches
    /// [`crate::parallel::PAR_WORK_THRESHOLD`].
    pub unit_cost: u32,
    /// The fold strategy.
    pub kind: ReduceKind,
}

/// The compile-time algebraic classification of a fold — `srl-analysis`'s
/// Section 7 proper-hom machinery (`order::combiner_is_proper`) carried down
/// to the lowered IR, where it gates *execution strategy* instead of an
/// order-independence verdict.
///
/// A `set-reduce` whose combiner is a **proper homomorphism** — a
/// commutative, associative accumulator step (boolean or/and, set union by
/// insertion, including the conditional-insert shapes where the inserted
/// material never reads the accumulator) — computes the same value for any
/// traversal split, so contiguous shards of the input can be folded
/// independently and merged in shard order. The recognized fused shapes map
/// as follows:
///
/// * [`ReduceKind::Quantifier`], [`ReduceKind::Union`],
///   [`ReduceKind::Product`] — proper homs whose data path is already a
///   single closed-form operation (a look at the set's ends or one binary
///   search / bulk merge / one ordered pass over `A × B`);
///   splittable in principle, nothing left to parallelize. The product's
///   combiner is a union of slices, hence commutative-associative, but its
///   per-pair work is a push, so it is never sharded.
/// * [`ReduceKind::InsertApp`], [`ReduceKind::Filter`],
///   [`ReduceKind::BoolAcc`] — proper homs with real per-element lambda
///   work: these are the shapes the worker pool shards.
/// * [`ReduceKind::Scan`] (keep-last-match) — order-sensitive: sequential,
///   always.
/// * [`ReduceKind::Generic`] — sequential by shape, *unless* the spine
///   proof ([`crate::analysis::spine_verdict`]) showed the combiner only
///   threads its accumulator into insert-spine position, locally or
///   through a callee's spine parameter ([`FoldOrigin::Spine`]). The
///   combiner is then `y ∪ g(x)` with `g` independent of the accumulator,
///   hence commutative-associative: a proper hom with per-element lambda
///   work that shards like the fused hom kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldClass {
    /// Combiner provably order-insensitive (commutative-associative):
    /// eligible for sharded execution.
    ProperHom,
    /// Order-sensitive or not provably a proper hom: sequential execution
    /// only.
    Ordered,
}

impl FoldClass {
    /// Classifies a fused fold strategy (see the variant mapping above).
    /// List folds are always [`FoldClass::Ordered`]: lists keep duplicates
    /// and stored order, so even an or-fold observes the traversal.
    pub fn of(kind: &ReduceKind, is_list: bool) -> FoldClass {
        if is_list {
            return FoldClass::Ordered;
        }
        match kind {
            ReduceKind::Quantifier { .. }
            | ReduceKind::Union
            | ReduceKind::Product { .. }
            | ReduceKind::InsertApp { .. }
            | ReduceKind::Filter { .. }
            | ReduceKind::BoolAcc { .. } => FoldClass::ProperHom,
            ReduceKind::Scan { .. } | ReduceKind::Generic { .. } => FoldClass::Ordered,
        }
    }

    /// Classifies a fold given its provenance: [`FoldClass::of`] plus the
    /// spine path — a `Generic` *set* fold whose accumulator was proved an
    /// insert spine ([`FoldOrigin::Spine`]), local or call-threaded, is a
    /// proper hom even though its shape did not fuse.
    pub fn with_origin(kind: &ReduceKind, is_list: bool, origin: &FoldOrigin) -> FoldClass {
        match (FoldClass::of(kind, is_list), origin) {
            (FoldClass::Ordered, FoldOrigin::Spine { .. }) if !is_list => FoldClass::ProperHom,
            (class, _) => class,
        }
    }

    /// Short lowercase label (`proper-hom` / `ordered`) for the
    /// disassembler and diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            FoldClass::ProperHom => "proper-hom",
            FoldClass::Ordered => "ordered",
        }
    }
}

/// Where a reduce's [`FoldClass`] verdict came from — recorded on every
/// [`ReduceInsn`] so the disassembler, `srl analyze`, and the REPL can
/// report the *reason* alongside the class, not just the verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldOrigin {
    /// The combiner matched one of the fused shapes; the [`ReduceKind`]
    /// itself names the algebra (or, for `Scan`, the order dependence).
    Shape,
    /// A `Generic` set fold whose accumulator body is an insert spine
    /// `y ∪ g(x)`: proved a proper hom by [`crate::analysis::spine_verdict`].
    Spine {
        /// `None` for a purely local spine (inserts, `if` branches and
        /// `let` bodies in the lambda itself); `Some(def)` when the thread
        /// passes through the spine parameter of definition `def` (an
        /// index into [`CompiledProgram::defs`]), whose interprocedural
        /// summary ([`crate::analysis::DefSummaries`]) carried the proof
        /// across the call boundary.
        via: Option<u32>,
    },
    /// The fold stayed `Ordered` because the spine proof failed; the
    /// [`SpineBlock`] names the first obstacle found.
    Unproven(SpineBlock),
    /// A `list-reduce`: ordered by list semantics (duplicates and stored
    /// order are observable), no proof attempted.
    List,
}

/// How a reduce executes: generic two-block dispatch, or one of the fused
/// superinstruction forms (see the module docs).
#[derive(Clone, Debug)]
pub enum ReduceKind {
    /// Arbitrary lambdas: run both blocks per element, walk the accumulator
    /// weight per iteration — the tree-walk loop, minus tree dispatch.
    Generic {
        /// Block of the `app` lambda body.
        app: BlockId,
        /// Block of the `acc` lambda body.
        acc: BlockId,
    },
    /// `app = λ(x,y). x ⋈ y` with `⋈` one of `=`, `x <= y`, `y <= x`
    /// (operands in either order), `acc = or`/`and`: a quantifier over a
    /// comparison of each element `x` with the fold's extra `y` — the
    /// `member` scan (`∃`, `=`) and BASRL's `is_min`/`is_max` (`∀`, `≤`).
    /// Fully arithmetic: over the ascending scan `x = y` holds on at most
    /// one element, `x <= y` on a prefix and `y <= x` on a suffix, so the
    /// result and the accumulator's weight trajectory follow from the set's
    /// first and last elements (and, for `∃`/`=`, one binary search).
    Quantifier {
        /// True for `or` (`∃`), false for `and` (`∀`).
        is_or: bool,
        /// The comparison of the element with the extra.
        test: QuantTest,
    },
    /// `app = identity`, `acc = λ(x,y). insert(x, y)`: the `union`
    /// insert-fold. One bulk sorted merge (`SetRepr::merge_union`).
    Union,
    /// The stdlib `cartesian(A, B)`, exactly as `derived::cartesian`
    /// prints it: `set-reduce(A, λ(a, bs) set-reduce(bs, λ(b, aa) [aa, b],
    /// λ(o, s) insert(o, s), emptyset, a), λ(slice, acc) set-reduce(slice,
    /// λ(x, y) x, λ(e, s) insert(e, s), acc, emptyset), emptyset, B)`. The
    /// charges of the three folds it replaces are made in closed form per
    /// element of A; one nested loop pushes every `[a, b]` in order and
    /// builds the set once.
    Product {
        /// Set when the fold's only reader is a join [`ReduceKind::Filter`]
        /// (see [`JoinPrologue`]): the product still charges everything,
        /// but leaves A and B in its destination register, a temporary
        /// nothing but that filter reads, instead of building A × B.
        join: bool,
    },
    /// Arbitrary `app`, `acc = λ(x,y). insert(x, y)`: map-style folds. The
    /// accumulator lambda is emulated arithmetically; inserts land in a
    /// uniquely-held accumulator.
    InsertApp {
        /// Block of the `app` lambda body.
        app: BlockId,
    },
    /// Arbitrary `app` producing `[value, flag]` pairs,
    /// `acc = λ(p,y). if sel_ci(p) then insert(sel_vi(p), y) else y` (or the
    /// negated form): `select`/`difference`-style filters.
    Filter {
        /// Block of the `app` lambda body — of the predicate alone when
        /// `pair` is set.
        app: BlockId,
        /// True when the insert happens on a true flag (`select`); false for
        /// the negated `difference` form.
        keep_on_true: bool,
        /// 1-based component holding the flag.
        cond_index: usize,
        /// 1-based component holding the inserted value.
        value_index: usize,
        /// Set when the app is the stdlib `select` pair `[x, pred]` (or
        /// `[pred, x]`) whose flag is `pred` and whose value is the element
        /// itself: no pair is built, see [`ElidedPair`].
        pair: Option<ElidedPair>,
        /// Set when the filter is a join: its set is a
        /// [`ReduceKind::Product`] that hands it A and B, `pair` is set,
        /// and `pred` is `let a = x.1 in let b = x.2 in body` with a body
        /// that does not read `x`. The filter walks A × B in place and
        /// `app` is the block of `body` alone; see [`JoinPrologue`].
        join: Option<JoinPrologue>,
    },
    /// Arbitrary `app`, `acc = or`/`and`: quantifier folds
    /// (`forall`/`forsome`/`subset`).
    BoolAcc {
        /// Block of the `app` lambda body.
        app: BlockId,
        /// True for `or`, false for `and`.
        is_or: bool,
    },
    /// Arbitrary `app` producing `[value, flag]` pairs,
    /// `acc = λ(p,y). if sel_ci(p) then sel_vi(p) else y`: scan folds that
    /// keep the last matching value (the TM simulator's `read_cell`).
    Scan {
        /// Block of the `app` lambda body.
        app: BlockId,
        /// 1-based component holding the flag.
        cond_index: usize,
        /// 1-based component holding the replacement value.
        value_index: usize,
    },
}

/// The comparison a [`ReduceKind::Quantifier`] fold applies to each element
/// `x` and the fold's extra `y`. Each one's truth set is contiguous in the
/// ascending order, which is what lets the kernel decide the fold from the
/// set's ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantTest {
    /// `x = y` (or `y = x`): at most one element.
    Eq,
    /// `x <= y`: a prefix.
    XLeqY,
    /// `y <= x`: a suffix.
    YLeqX,
}

impl QuantTest {
    /// Whether element `x` passes against the extra `y`.
    pub fn holds(self, x: &Value, y: &Value) -> bool {
        match self {
            QuantTest::Eq => x == y,
            QuantTest::XLeqY => x <= y,
            QuantTest::YLeqX => y <= x,
        }
    }

    /// The comparison as the source writes it, for the disassembler.
    pub fn label(self) -> &'static str {
        match self {
            QuantTest::Eq => "x = y",
            QuantTest::XLeqY => "x <= y",
            QuantTest::YLeqX => "y <= x",
        }
    }
}

/// The part of a `select`-shaped [`ReduceKind::Filter`] app that codegen
/// did not compile: the element read `x` and the tuple `[x, pred]` around
/// the predicate. The app block computes `pred` alone (at the depth it had
/// inside the tuple), the kernel keeps the owned element in slot `x` and
/// inserts it when the flag says so, and it replays the two skipped
/// nodes' charges in the order the tuple would have made them: the
/// element read's step before the block (`[x, pred]`) or after it
/// (`[pred, x]`), then the tuple's step and its one allocated leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElidedPair {
    /// True for `[x, pred]`, false for `[pred, x]`.
    pub elem_first: bool,
    /// Static depth offset of the skipped element read.
    pub read_depth: u32,
    /// Static depth offset of the skipped tuple node.
    pub tuple_depth: u32,
}

/// The part of a join [`ReduceKind::Filter`]'s predicate that codegen did
/// not compile: `let a = x.1 in let b = x.2 in`, which unpacks each pair
/// `x = [a, b]` of the product. The kernel never builds the pair. It writes
/// `a` into the first `let`'s slot (`x + 2`) once per element of A, and `b`
/// into the second's (`x + 3`) once per pair; the block of the body leaves
/// both slots alone, as it leaves the parked `extra` in `x + 1`. Before
/// the block it replays the skipped nodes' steps: one per node visit (each
/// `let`, its selector and the selector's read of `x`), six in all. `[a,
/// b]` is built only for a pair the predicate keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinPrologue {
    /// Steps the skipped nodes charge per pair.
    pub steps: u32,
    /// Static depth offset of the deepest of them.
    pub depth: u32,
}

impl ReduceKind {
    /// Short lowercase label naming the fold strategy (`generic`, `member`,
    /// `quantifier`, `union`, `product`, `insert-app`, `filter`, `bool-acc`,
    /// `scan`) for diagnostics and the `srl analyze` report. The
    /// [`ReduceKind::Quantifier`] kind keeps the name `member` for its
    /// `∃`/`=` form, the membership scan.
    pub fn label(&self) -> &'static str {
        match self {
            ReduceKind::Generic { .. } => "generic",
            ReduceKind::Quantifier {
                is_or: true,
                test: QuantTest::Eq,
            } => "member",
            ReduceKind::Quantifier { .. } => "quantifier",
            ReduceKind::Union => "union",
            ReduceKind::Product { .. } => "product",
            ReduceKind::InsertApp { .. } => "insert-app",
            ReduceKind::Filter { .. } => "filter",
            ReduceKind::BoolAcc { .. } => "bool-acc",
            ReduceKind::Scan { .. } => "scan",
        }
    }
}

/// A straight-line instruction sequence with a result register.
#[derive(Clone, Debug)]
pub struct Block {
    code: Vec<Insn>,
    result: Reg,
}

impl Block {
    /// The instructions.
    pub fn code(&self) -> &[Insn] {
        &self.code
    }

    /// The register holding the block's result after execution.
    pub fn result(&self) -> Reg {
        self.result
    }
}

/// The compiled form of one definition within a program chunk.
#[derive(Clone, Copy, Debug)]
pub struct DefCode {
    /// The definition body's block.
    pub block: BlockId,
    /// Registers in the definition's frame (parameters + lexical slots +
    /// temporaries).
    pub frame_size: u16,
}

/// A compiled unit: the blocks of either a whole program (one entry per
/// definition) or a stand-alone lowered expression (a `main` block whose
/// calls resolve through the program chunk).
#[derive(Clone, Debug, Default)]
pub struct Chunk {
    blocks: Vec<Block>,
    consts: Vec<Value>,
    nats: Vec<BigNat>,
    names: Vec<String>,
    defs: Vec<DefCode>,
    main: BlockId,
    main_frame: u16,
}

impl Chunk {
    /// The blocks, indexed by [`BlockId`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Resolves a block id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id as usize]
    }

    /// The constant table.
    pub fn consts(&self) -> &[Value] {
        &self.consts
    }

    /// The natural-number constant table.
    pub fn nats(&self) -> &[BigNat] {
        &self.nats
    }

    /// The name table (unbound-variable / unknown-call spellings).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Per-definition entry points (program chunks; empty for expression
    /// chunks, whose calls resolve through the program chunk).
    pub fn defs(&self) -> &[DefCode] {
        &self.defs
    }

    /// The root block of an expression chunk.
    pub fn main(&self) -> BlockId {
        self.main
    }

    /// Frame size of an expression chunk's root block.
    pub fn main_frame(&self) -> u16 {
        self.main_frame
    }
}

/// Compiles every definition body of an already-lowered program.
pub(crate) fn codegen_program(program: &CompiledProgram) -> Chunk {
    let mut cg = Codegen {
        program,
        nodes: program.nodes(),
        summaries: DefSummaries::compute(program),
        chunk: Chunk::default(),
        parked: None,
    };
    for def in program.defs() {
        let arity = def.params.len() as u16;
        let (block, frame_size) = cg.gen_frame(def.body, arity);
        cg.chunk.defs.push(DefCode { block, frame_size });
    }
    cg.chunk
}

/// Compiles a stand-alone lowered expression against its program (whose
/// chunk resolves the calls at run time).
pub(crate) fn codegen_expr(program: &CompiledProgram, lowered: &LoweredExpr) -> Chunk {
    let mut cg = Codegen {
        program,
        nodes: lowered.nodes(),
        summaries: DefSummaries::compute(program),
        chunk: Chunk::default(),
        parked: None,
    };
    let (main, main_frame) = cg.gen_frame(lowered.root(), lowered.scope_names().len() as u16);
    cg.chunk.main = main;
    cg.chunk.main_frame = main_frame;
    cg.chunk
}

/// Register bookkeeping for one frame: lexical slots grow from 0 (mirroring
/// the lowering's scope stack), temporaries stack-allocate above the frame's
/// maximum lexical height.
struct FrameState {
    height: u16,
    next_temp: u16,
    frame_size: u16,
}

impl FrameState {
    fn alloc(&mut self) -> Reg {
        self.alloc_n(1)
    }

    /// Allocates `n` contiguous temporaries. Frames are `u16`-indexed, so a
    /// pathological program needing more than 65 535 registers in one frame
    /// is rejected loudly here (in every build profile) rather than wrapping
    /// into aliased registers — the tree-walk backend has no such bound, so
    /// silent wrap-around would break the backend-equivalence contract.
    fn alloc_n(&mut self, n: usize) -> Reg {
        let r = self.next_temp;
        let next = (r as usize).checked_add(n);
        self.next_temp = match next {
            Some(next) if next <= u16::MAX as usize => next as u16,
            _ => panic!(
                "bytecode codegen: frame exceeds {} registers (program too wide for the VM backend)",
                u16::MAX
            ),
        };
        self.frame_size = self.frame_size.max(self.next_temp);
        r
    }

    fn free(&mut self, n: usize) {
        self.next_temp -= n as u16;
    }
}

struct Codegen<'a> {
    program: &'a CompiledProgram,
    nodes: &'a [LExpr],
    summaries: DefSummaries,
    chunk: Chunk,
    /// The slots the kernel of the innermost app block being compiled
    /// writes itself: the parked `extra`, and a join's unpacked pair (see
    /// [`Codegen::gen_parked_app_block`]). Reads of them stay copies.
    parked: Option<Range<Reg>>,
}

/// The recognized `app` lambda shapes.
enum AppShape {
    Identity,
    /// A comparison of the element with the extra.
    Compare(QuantTest),
    Other,
}

/// The recognized `acc` lambda shapes.
enum AccShape {
    InsertXY,
    OrXY,
    AndXY,
    Filter {
        keep_on_true: bool,
        cond_index: usize,
        value_index: usize,
    },
    Scan {
        cond_index: usize,
        value_index: usize,
    },
    Spine {
        via: Option<u32>,
    },
    Other(SpineBlock),
}

impl<'a> Codegen<'a> {
    fn node(&self, id: LId) -> &'a LExpr {
        &self.nodes[id.index()]
    }

    fn push_block(&mut self, code: Vec<Insn>, result: Reg) -> BlockId {
        self.chunk.blocks.push(Block { code, result });
        (self.chunk.blocks.len() - 1) as BlockId
    }

    fn intern_const(&mut self, v: Value) -> u32 {
        self.chunk.consts.push(v);
        (self.chunk.consts.len() - 1) as u32
    }

    fn intern_nat(&mut self, n: BigNat) -> u32 {
        self.chunk.nats.push(n);
        (self.chunk.nats.len() - 1) as u32
    }

    fn intern_name(&mut self, s: &str) -> u32 {
        if let Some(i) = self.chunk.names.iter().position(|n| n == s) {
            return i as u32;
        }
        self.chunk.names.push(s.to_string());
        (self.chunk.names.len() - 1) as u32
    }

    /// Compiles a frame root (definition body or expression root) into its
    /// own block; returns the block and the frame size.
    fn gen_frame(&mut self, root: LId, base_height: u16) -> (BlockId, u16) {
        let max_h = max_lexical_height(self.nodes, root, base_height);
        let mut fs = FrameState {
            height: base_height,
            next_temp: max_h,
            frame_size: max_h,
        };
        let mut code = Vec::new();
        let result = fs.alloc();
        self.gen(&mut fs, &mut code, 0, root, 0, result, true);
        fs.free(1);
        let id = self.push_block(code, result);
        (id, fs.frame_size.max(1))
    }

    /// Compiles a reduce-lambda body into its own block sharing the frame.
    fn gen_lambda_block(&mut self, fs: &mut FrameState, lambda: &LLambda) -> BlockId {
        self.gen_lambda_body(fs, lambda.body, 2, 0, true)
    }

    /// Compiles `body` (a lambda body, or the part of one at depth offset
    /// `d`) into its own block with `bound` binders at the next slots: the
    /// lambda's two parameters, then, for a join, the two `let`s its
    /// kernel replays.
    fn gen_lambda_body(
        &mut self,
        fs: &mut FrameState,
        body: LId,
        bound: u16,
        d: u32,
        tail: bool,
    ) -> BlockId {
        let floor = fs.height;
        fs.height += bound;
        let result = fs.alloc();
        let mut code = Vec::new();
        self.gen(fs, &mut code, floor, body, d, result, tail);
        fs.free(1);
        fs.height -= bound;
        self.push_block(code, result)
    }

    /// Compiles the app block of a fused kind whose kernel writes `extra`
    /// into slot `x + 1` once per fold (and once per shard) instead of once
    /// per element: `InsertApp`, `Filter`, `BoolAcc` and `Scan`. A join
    /// filter's kernel also writes the two `let` slots after it (`bound`
    /// is 4; see [`JoinPrologue`]). The block must leave those slots as it
    /// found them, so a tail read of one compiles to a [`Insn::Copy`]
    /// rather than a [`Insn::Take`]; both charge the same step. Nothing
    /// else in the block writes them: temporaries sit above every lexical
    /// slot, and nested binders start at `x + bound`.
    fn gen_parked_app_block(
        &mut self,
        fs: &mut FrameState,
        body: LId,
        bound: u16,
        d: u32,
        tail: bool,
    ) -> BlockId {
        let outer = self.parked.replace(fs.height + 1..fs.height + bound);
        let block = self.gen_lambda_body(fs, body, bound, d, tail);
        self.parked = outer;
        block
    }

    /// The main codegen recursion. Emits instructions computing node `id`
    /// (whose static depth offset is `d`) into register `dst`.
    ///
    /// `floor` is the lowest frame slot owned by the enclosing block: takes
    /// below it would destroy state that outlives the block (an enclosing
    /// frame slot read by later loop iterations). `tail` means nothing in
    /// this block executes after this node, so a `Local` at or above the
    /// floor may be moved out of its slot.
    #[allow(clippy::too_many_arguments)]
    fn gen(
        &mut self,
        fs: &mut FrameState,
        code: &mut Vec<Insn>,
        floor: u16,
        id: LId,
        d: u32,
        dst: Reg,
        tail: bool,
    ) {
        match self.node(id) {
            LExpr::Bool(b) => code.push(Insn::LoadBool {
                dst,
                value: *b,
                depth: d,
            }),
            LExpr::Const(v) => {
                let index = self.intern_const(v.clone());
                code.push(Insn::LoadConst {
                    dst,
                    index,
                    depth: d,
                });
            }
            LExpr::Local(slot) => {
                let src = *slot as Reg;
                if tail && src >= floor && !self.parked.as_ref().is_some_and(|p| p.contains(&src)) {
                    code.push(Insn::Take { dst, src, depth: d });
                } else {
                    code.push(Insn::Copy { dst, src, depth: d });
                }
            }
            LExpr::UnboundVar(name) => {
                let name = self.intern_name(name);
                code.push(Insn::FailUnbound { name, depth: d });
            }
            LExpr::If(c, t, e) => {
                let rc = fs.alloc();
                self.gen(fs, code, floor, *c, d + 1, rc, false);
                fs.free(1);
                let branch_at = code.len();
                code.push(Insn::Branch {
                    cond: rc,
                    else_to: 0,
                    depth: d,
                });
                self.gen(fs, code, floor, *t, d + 1, dst, tail);
                let jump_at = code.len();
                code.push(Insn::Jump { to: 0 });
                let else_to = code.len() as u32;
                if let Insn::Branch { else_to: slot, .. } = &mut code[branch_at] {
                    *slot = else_to;
                }
                self.gen(fs, code, floor, *e, d + 1, dst, tail);
                let end = code.len() as u32;
                if let Insn::Jump { to } = &mut code[jump_at] {
                    *to = end;
                }
            }
            LExpr::Tuple(items) => {
                let start = fs.alloc_n(items.len());
                for (i, item) in items.iter().enumerate() {
                    self.gen(fs, code, floor, *item, d + 1, start + i as Reg, false);
                }
                code.push(Insn::MakeTuple {
                    dst,
                    start,
                    len: items.len() as u16,
                    depth: d,
                });
                fs.free(items.len());
            }
            LExpr::Sel(index, e) => {
                let op = self.classify_operand(fs, code, floor, *e, d);
                code.push(Insn::Sel {
                    dst,
                    index: *index,
                    op,
                    depth: d,
                });
                if let Operand::Temp(_) = op {
                    fs.free(1);
                }
            }
            LExpr::Eq(a, b) => self.gen_cmp(fs, code, floor, *a, *b, false, d, dst),
            LExpr::Leq(a, b) => self.gen_cmp(fs, code, floor, *a, *b, true, d, dst),
            LExpr::EmptySet => code.push(Insn::LoadEmptySet { dst, depth: d }),
            LExpr::Insert(e, s) => {
                let elem = fs.alloc();
                self.gen(fs, code, floor, *e, d + 1, elem, false);
                let set = fs.alloc();
                self.gen(fs, code, floor, *s, d + 1, set, tail);
                code.push(Insn::Insert {
                    dst,
                    elem,
                    set,
                    depth: d,
                });
                fs.free(2);
            }
            LExpr::Choose(e) => {
                let op = self.classify_operand(fs, code, floor, *e, d);
                code.push(Insn::Choose { dst, op, depth: d });
                if let Operand::Temp(_) = op {
                    fs.free(1);
                }
            }
            LExpr::Rest(e) => {
                let src = fs.alloc();
                self.gen(fs, code, floor, *e, d + 1, src, tail);
                code.push(Insn::Rest { dst, src, depth: d });
                fs.free(1);
            }
            LExpr::SetReduce {
                set,
                app,
                acc,
                base,
                extra,
            } => {
                self.gen_reduce(
                    fs, code, floor, *set, app, acc, *base, *extra, d, dst, tail, false,
                );
            }
            LExpr::ListReduce {
                list,
                app,
                acc,
                base,
                extra,
            } => {
                code.push(Insn::Guard {
                    op: DialectOp::Lists,
                    name: "list-reduce",
                    depth: d,
                });
                self.gen_reduce(
                    fs, code, floor, *list, app, acc, *base, *extra, d, dst, tail, true,
                );
            }
            LExpr::Call { def, args } => {
                let callee = &self.program.defs()[*def as usize];
                if callee.params.len() != args.len() {
                    code.push(Insn::FailArity {
                        def: *def,
                        nargs: args.len() as u16,
                        depth: d,
                    });
                    return;
                }
                let base = fs.alloc_n(args.len());
                for (i, a) in args.iter().enumerate() {
                    // Only the final argument may move values out of frame
                    // slots: earlier arguments' subtrees run before later
                    // ones that could still read the same slot.
                    let arg_tail = tail && i + 1 == args.len();
                    self.gen(fs, code, floor, *a, d + 1, base + i as Reg, arg_tail);
                }
                code.push(Insn::Call {
                    dst,
                    def: *def,
                    args: base,
                    nargs: args.len() as u16,
                    depth: d,
                });
                fs.free(args.len());
            }
            LExpr::CallUnknown(name) => {
                let name = self.intern_name(name);
                code.push(Insn::FailUnknownCall { name, depth: d });
            }
            LExpr::Let { value, body } => {
                code.push(Insn::Bump { depth: d });
                let slot = fs.height;
                debug_assert!(slot < fs.next_temp, "let slot below the temp base");
                self.gen(fs, code, floor, *value, d + 1, slot, false);
                fs.height += 1;
                self.gen(fs, code, floor, *body, d + 1, dst, tail);
                fs.height -= 1;
            }
            LExpr::New(e) => {
                code.push(Insn::Guard {
                    op: DialectOp::New,
                    name: "new",
                    depth: d,
                });
                let src = fs.alloc();
                self.gen(fs, code, floor, *e, d + 1, src, tail);
                code.push(Insn::New { dst, src });
                fs.free(1);
            }
            LExpr::NatConst(n) => {
                let index = self.intern_nat(n.clone());
                code.push(Insn::LoadNat {
                    dst,
                    index,
                    depth: d,
                });
            }
            LExpr::Succ(e) => {
                code.push(Insn::Guard {
                    op: DialectOp::Nat,
                    name: "succ",
                    depth: d,
                });
                let src = fs.alloc();
                self.gen(fs, code, floor, *e, d + 1, src, tail);
                code.push(Insn::Succ { dst, src });
                fs.free(1);
            }
            LExpr::NatAdd(a, b) => {
                code.push(Insn::Guard {
                    op: DialectOp::NatAdd,
                    name: "nat addition",
                    depth: d,
                });
                self.gen_nat_binop(fs, code, floor, *a, *b, d, dst, "+", false);
            }
            LExpr::NatMul(a, b) => {
                code.push(Insn::Guard {
                    op: DialectOp::NatMul,
                    name: "nat multiplication",
                    depth: d,
                });
                self.gen_nat_binop(fs, code, floor, *a, *b, d, dst, "*", true);
            }
            LExpr::EmptyList => code.push(Insn::LoadEmptyList { dst, depth: d }),
            LExpr::Cons(e, l) => {
                code.push(Insn::Guard {
                    op: DialectOp::Lists,
                    name: "cons",
                    depth: d,
                });
                let elem = fs.alloc();
                self.gen(fs, code, floor, *e, d + 1, elem, false);
                let list = fs.alloc();
                self.gen(fs, code, floor, *l, d + 1, list, tail);
                code.push(Insn::Cons { dst, elem, list });
                fs.free(2);
            }
            LExpr::Head(e) => {
                code.push(Insn::Guard {
                    op: DialectOp::Lists,
                    name: "head",
                    depth: d,
                });
                let src = fs.alloc();
                self.gen(fs, code, floor, *e, d + 1, src, tail);
                code.push(Insn::Head { dst, src });
                fs.free(1);
            }
            LExpr::Tail(e) => {
                code.push(Insn::Guard {
                    op: DialectOp::Lists,
                    name: "tail",
                    depth: d,
                });
                let src = fs.alloc();
                self.gen(fs, code, floor, *e, d + 1, src, tail);
                code.push(Insn::Tail { dst, src });
                fs.free(1);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn gen_nat_binop(
        &mut self,
        fs: &mut FrameState,
        code: &mut Vec<Insn>,
        floor: u16,
        a: LId,
        b: LId,
        d: u32,
        dst: Reg,
        op: &'static str,
        mul: bool,
    ) {
        let ra = fs.alloc();
        self.gen(fs, code, floor, a, d + 1, ra, false);
        // The tree-walk checks the first operand's shape before evaluating
        // the second.
        code.push(Insn::CheckNat { src: ra, op });
        let rb = fs.alloc();
        self.gen(fs, code, floor, b, d + 1, rb, false);
        code.push(if mul {
            Insn::NatMul { dst, a: ra, b: rb }
        } else {
            Insn::NatAdd { dst, a: ra, b: rb }
        });
        fs.free(2);
    }

    #[allow(clippy::too_many_arguments)]
    fn gen_cmp(
        &mut self,
        fs: &mut FrameState,
        code: &mut Vec<Insn>,
        floor: u16,
        a: LId,
        b: LId,
        leq: bool,
        d: u32,
        dst: Reg,
    ) {
        // Fuse only when *both* operands are borrowable — a mixed form would
        // evaluate the temp side's code before the other side's fused steps,
        // reordering error positions across the two operands.
        let (a_op, b_op) = match (self.borrowable_operand(a), self.borrowable_operand(b)) {
            (Some(a_op), Some(b_op)) => {
                let a_op = self.realize_operand(a_op);
                let b_op = self.realize_operand(b_op);
                (a_op, b_op)
            }
            _ => {
                let ra = fs.alloc();
                self.gen(fs, code, floor, a, d + 1, ra, false);
                let rb = fs.alloc();
                self.gen(fs, code, floor, b, d + 1, rb, false);
                fs.free(2);
                (Operand::Temp(ra), Operand::Temp(rb))
            }
        };
        code.push(Insn::Cmp {
            dst,
            a: a_op,
            b: b_op,
            leq,
            depth: d,
        });
    }

    /// A pending fused operand (constants are interned on realization, so a
    /// half-matching comparison does not leak table entries).
    fn borrowable_operand(&self, id: LId) -> Option<PendingOperand<'a>> {
        match self.node(id) {
            LExpr::Local(slot) => Some(PendingOperand::Slot(*slot as Reg)),
            LExpr::Sel(index, e) => match self.node(*e) {
                LExpr::Local(slot) => Some(PendingOperand::SlotSel(*slot as Reg, *index)),
                _ => None,
            },
            LExpr::Const(v) => Some(PendingOperand::Const(v)),
            LExpr::Bool(b) => Some(PendingOperand::Bool(*b)),
            _ => None,
        }
    }

    fn realize_operand(&mut self, p: PendingOperand<'a>) -> Operand {
        match p {
            PendingOperand::Slot(r) => Operand::Slot(r),
            PendingOperand::SlotSel(r, i) => Operand::SlotSel(r, i),
            PendingOperand::Const(v) => Operand::Const(self.intern_const(v.clone())),
            PendingOperand::Bool(b) => Operand::Const(self.intern_const(Value::Bool(b))),
        }
    }

    /// Emits the operand of a `sel`/`choose`: borrowed when it is a frame
    /// slot (the tree-walk peephole), computed otherwise. The caller frees
    /// the temp when one was allocated.
    fn classify_operand(
        &mut self,
        fs: &mut FrameState,
        code: &mut Vec<Insn>,
        floor: u16,
        e: LId,
        d: u32,
    ) -> Operand {
        match self.node(e) {
            LExpr::Local(slot) => Operand::Slot(*slot as Reg),
            _ => {
                let r = fs.alloc();
                self.gen(fs, code, floor, e, d + 1, r, false);
                Operand::Temp(r)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn gen_reduce(
        &mut self,
        fs: &mut FrameState,
        code: &mut Vec<Insn>,
        floor: u16,
        set: LId,
        app: &LLambda,
        acc: &LLambda,
        base: LId,
        extra: LId,
        d: u32,
        dst: Reg,
        tail: bool,
        is_list: bool,
    ) {
        let rset = fs.alloc();
        self.gen(fs, code, floor, set, d + 1, rset, false);
        // The product fold that is the set, if one is: a join filter over
        // it takes A and B from it instead of A × B. The set node itself
        // must be the fold (its instruction then comes last), not an `if`
        // or `let` with a product in it.
        let product = code.len().checked_sub(1).filter(|&at| {
            matches!(self.node(set), LExpr::SetReduce { .. })
                && matches!(&code[at], Insn::Reduce(r)
                    if r.dst == rset && matches!(r.kind, ReduceKind::Product { .. }))
        });
        // Last-use move of the base: a reduce in tail position whose base
        // is a slot that nothing after it reads (neither `extra`, evaluated
        // next, nor either lambda) hands the fold its accumulator uniquely
        // owned, so a fused union merges into it in place.
        let base_moves = tail
            && matches!(self.node(base), LExpr::Local(s) if *s >= floor as u32
                && ![extra, app.body, acc.body]
                    .iter()
                    .any(|&id| reads_slot(self.nodes, id, *s as u16)));
        let rbase = fs.alloc();
        self.gen(fs, code, floor, base, d + 1, rbase, base_moves);
        let rextra = fs.alloc();
        self.gen(fs, code, floor, extra, d + 1, rextra, false);
        let x_slot = fs.height;
        let (kind, origin) = if is_list {
            // List folds are rare (LRL experiments only); generic execution
            // keeps duplicates/stored-order semantics in one code path.
            (
                ReduceKind::Generic {
                    app: self.gen_lambda_block(fs, app),
                    acc: self.gen_lambda_block(fs, acc),
                },
                FoldOrigin::List,
            )
        } else {
            self.fuse_set_fold(fs, app, acc, base, x_slot, product.is_some())
        };
        if let (ReduceKind::Filter { join: Some(_), .. }, Some(at)) = (&kind, product) {
            if let Insn::Reduce(r) = &mut code[at] {
                r.kind = ReduceKind::Product { join: true };
            }
        }
        let class = FoldClass::with_origin(&kind, is_list, &origin);
        let unit_cost = self.unit_cost(&kind);
        code.push(Insn::Reduce(Box::new(ReduceInsn {
            dst,
            set: rset,
            base: rbase,
            extra: rextra,
            x_slot,
            depth: d,
            is_list,
            class,
            origin,
            unit_cost,
            kind,
        })));
        fs.free(3);
    }

    /// Static per-iteration work estimate of a fold: the weighted
    /// instruction count of the lambda blocks it runs per element. A nested
    /// reduce or a call hides an unknown amount of work behind one
    /// instruction, so both weigh far more than a plain instruction. The
    /// weights are flat: a nested fused `Quantifier` (one binary search at
    /// most) weighs as much as a nested fold over a whole relation.
    fn unit_cost(&self, kind: &ReduceKind) -> u32 {
        const BASE: u32 = 4; // the fused accumulator arithmetic per element
        match kind {
            ReduceKind::Quantifier { .. } | ReduceKind::Union | ReduceKind::Product { .. } => 0,
            // An elided `select` pair counts as the two instructions (the
            // element read and the tuple) its source lambda compiles to, so
            // the shard gate sees the same cost either way; a join's two
            // `let`s count as theirs, a `bump` and a `sel` each.
            ReduceKind::Filter {
                app,
                pair: Some(_),
                join,
                ..
            } => BASE
                .saturating_add(self.block_cost(*app))
                .saturating_add(if join.is_some() { 2 + 4 } else { 2 }),
            ReduceKind::InsertApp { app }
            | ReduceKind::Filter { app, .. }
            | ReduceKind::BoolAcc { app, .. }
            | ReduceKind::Scan { app, .. } => BASE.saturating_add(self.block_cost(*app)),
            ReduceKind::Generic { app, acc } => BASE
                .saturating_add(self.block_cost(*app))
                .saturating_add(self.block_cost(*acc)),
        }
    }

    /// Weighted instruction count of one block (no recursion into callee or
    /// nested-fold blocks; their weight constants stand in for it).
    fn block_cost(&self, id: BlockId) -> u32 {
        self.chunk
            .block(id)
            .code()
            .iter()
            .map(|insn| match insn {
                Insn::Reduce(_) => 256u32,
                Insn::Call { .. } => 64,
                _ => 1,
            })
            .fold(0u32, u32::saturating_add)
    }

    /// Matches the fold lambdas against the fused shapes (module docs) and
    /// records where the classification came from. `over_product` says the
    /// set is computed by a [`ReduceKind::Product`] fold, which a join
    /// filter reads from.
    fn fuse_set_fold(
        &mut self,
        fs: &mut FrameState,
        app: &LLambda,
        acc: &LLambda,
        base: LId,
        x: u16,
        over_product: bool,
    ) -> (ReduceKind, FoldOrigin) {
        if self.is_product(app, acc, base, x) {
            return (ReduceKind::Product { join: false }, FoldOrigin::Shape);
        }
        let y = x + 1;
        let app_shape = self.app_shape(app.body, x, y);
        let acc_shape = self.acc_shape(acc.body, x, y);
        let kind = match (app_shape, acc_shape) {
            (AppShape::Compare(test), acc @ (AccShape::OrXY | AccShape::AndXY)) => {
                ReduceKind::Quantifier {
                    is_or: matches!(acc, AccShape::OrXY),
                    test,
                }
            }
            (AppShape::Identity, AccShape::InsertXY) => ReduceKind::Union,
            (_, AccShape::InsertXY) => ReduceKind::InsertApp {
                app: self.gen_parked_app_block(fs, app.body, 2, 0, true),
            },
            (
                _,
                AccShape::Filter {
                    keep_on_true,
                    cond_index,
                    value_index,
                },
            ) => {
                let pair = self.select_pair(app.body, x, cond_index, value_index);
                let join = pair
                    .filter(|_| over_product)
                    .and_then(|(pred, pair)| self.join_lets(pred, x, pair.tuple_depth + 1));
                let app = match (pair, join) {
                    // The body keeps the depth it had below the skipped
                    // `let`s, in tail position: the slots its kernel writes
                    // are parked, so none of them is moved out.
                    (_, Some((body, depth, _))) => {
                        self.gen_parked_app_block(fs, body, 4, depth, true)
                    }
                    // The predicate keeps its depth and non-tail position
                    // inside the tuple: slot `x` must still hold the element
                    // after it.
                    (Some((pred, pair)), None) => {
                        self.gen_parked_app_block(fs, pred, 2, pair.tuple_depth + 1, false)
                    }
                    (None, _) => self.gen_parked_app_block(fs, app.body, 2, 0, true),
                };
                ReduceKind::Filter {
                    app,
                    keep_on_true,
                    cond_index,
                    value_index,
                    pair: pair.map(|(_, pair)| pair),
                    join: join.map(|(_, _, prologue)| prologue),
                }
            }
            (
                _,
                AccShape::Scan {
                    cond_index,
                    value_index,
                },
            ) => ReduceKind::Scan {
                app: self.gen_parked_app_block(fs, app.body, 2, 0, true),
                cond_index,
                value_index,
            },
            (_, AccShape::OrXY) => ReduceKind::BoolAcc {
                app: self.gen_parked_app_block(fs, app.body, 2, 0, true),
                is_or: true,
            },
            (_, AccShape::AndXY) => ReduceKind::BoolAcc {
                app: self.gen_parked_app_block(fs, app.body, 2, 0, true),
                is_or: false,
            },
            // A spine, local or call-threaded, runs as `Generic`: the proof
            // upgrades the *class*, which is what gates sharding.
            (_, AccShape::Spine { via }) => {
                let kind = ReduceKind::Generic {
                    app: self.gen_lambda_block(fs, app),
                    acc: self.gen_lambda_block(fs, acc),
                };
                return (kind, FoldOrigin::Spine { via });
            }
            (_, AccShape::Other(block)) => {
                let kind = ReduceKind::Generic {
                    app: self.gen_lambda_block(fs, app),
                    acc: self.gen_lambda_block(fs, acc),
                };
                return (kind, FoldOrigin::Unproven(block));
            }
        };
        (kind, FoldOrigin::Shape)
    }

    /// Whether a filter's app body is the stdlib `select` pair: a 2-tuple
    /// of the element `x` itself and a predicate, whose flag the filter
    /// tests and whose element it inserts. Returns the predicate and the
    /// skipped nodes' depths (the body root sits at offset 0). Anything
    /// else — a selector of `x` in place of `x`, or indices the other way
    /// round — builds its pair as written.
    fn select_pair(
        &self,
        body: LId,
        x: u16,
        cond_index: usize,
        value_index: usize,
    ) -> Option<(LId, ElidedPair)> {
        let LExpr::Tuple(items) = self.node(body) else {
            return None;
        };
        let (elem_first, pred) = match (items.as_slice(), cond_index, value_index) {
            ([elem, pred], 2, 1) if self.is_local(*elem, x) => (true, *pred),
            ([pred, elem], 1, 2) if self.is_local(*elem, x) => (false, *pred),
            _ => return None,
        };
        let pair = ElidedPair {
            elem_first,
            read_depth: 1,
            tuple_depth: 0,
        };
        Some((pred, pair))
    }

    /// Whether a select predicate at depth offset `d` is a join's: `let a
    /// = x.1 in let b = x.2 in body`, with a body that does not read `x`.
    /// Returns the body, its depth offset, and the skipped nodes' charges:
    /// one step per node visit (each `let`, its selector and the
    /// selector's read of `x`) at the node's depth, as the tree-walk
    /// charges them.
    fn join_lets(&self, pred: LId, x: u16, d: u32) -> Option<(LId, u32, JoinPrologue)> {
        let mut prologue = JoinPrologue { steps: 0, depth: d };
        let (mut node, mut depth) = (pred, d);
        for index in [1, 2] {
            let LExpr::Let { value, body } = self.node(node) else {
                return None;
            };
            if !matches!(self.node(*value), LExpr::Sel(i, p) if *i == index && self.is_local(*p, x))
            {
                return None;
            }
            // The `let`, then its selector one level down and the
            // selector's read of `x` one below that.
            prologue.steps += 3;
            prologue.depth = prologue.depth.max(depth + 2);
            (node, depth) = (*body, depth + 1);
        }
        (!reads_slot(self.nodes, node, x)).then_some((node, depth, prologue))
    }

    fn is_local(&self, id: LId, slot: u16) -> bool {
        matches!(self.node(id), LExpr::Local(s) if *s == slot as u32)
    }

    fn is_insert_of(&self, id: LId, elem: u16, set: u16) -> bool {
        matches!(self.node(id), LExpr::Insert(e, s) if self.is_local(*e, elem) && self.is_local(*s, set))
    }

    /// Whether the fold is the stdlib `cartesian` ([`ReduceKind::Product`]),
    /// matched node for node: the outer base is the `emptyset` literal, the
    /// app maps its extra `bs` to the slice `{[a, b] | b ∈ bs}` from an
    /// `emptyset` base, and the acc unions that slice into the accumulator.
    /// The inner lambdas' parameters sit at `x + 2` and `x + 3`.
    fn is_product(&self, app: &LLambda, acc: &LLambda, base: LId, x: u16) -> bool {
        let (y, ix, iy) = (x + 1, x + 2, x + 3);
        let fold = |id: LId| match self.node(id) {
            LExpr::SetReduce {
                set,
                app,
                acc,
                base,
                extra,
            } => Some((*set, app.body, acc.body, *base, *extra)),
            _ => None,
        };
        let is_empty = |id: LId| matches!(self.node(id), LExpr::EmptySet);
        // app: set-reduce(bs, λ(b, aa) [aa, b], λ(o, s) insert(o, s), emptyset, a)
        // acc: set-reduce(slice, λ(x, y) x, λ(e, s) insert(e, s), acc, emptyset)
        let (Some((bs, pair, grow, slice_base, a)), Some((sl, elem, merge, into, union_extra))) =
            (fold(app.body), fold(acc.body))
        else {
            return false;
        };
        let pair_is_a_b = matches!(self.node(pair), LExpr::Tuple(c)
            if c.len() == 2 && self.is_local(c[0], iy) && self.is_local(c[1], ix));
        is_empty(base)
            && self.is_local(bs, y)
            && pair_is_a_b
            && self.is_insert_of(grow, ix, iy)
            && is_empty(slice_base)
            && self.is_local(a, x)
            && self.is_local(sl, x)
            && self.is_local(elem, ix)
            && self.is_insert_of(merge, ix, iy)
            && self.is_local(into, y)
            && is_empty(union_extra)
    }

    fn app_shape(&self, body: LId, x: u16, y: u16) -> AppShape {
        match self.node(body) {
            LExpr::Local(s) if *s == x as u32 => AppShape::Identity,
            // Every form charges the same three steps: the comparison and
            // its two slot reads. Value equality is symmetric.
            LExpr::Eq(a, b) | LExpr::Leq(a, b) => {
                let eq = matches!(self.node(body), LExpr::Eq(..));
                let xy = self.is_local(*a, x) && self.is_local(*b, y);
                let yx = self.is_local(*a, y) && self.is_local(*b, x);
                match (eq, xy, yx) {
                    (true, true, _) | (true, _, true) => AppShape::Compare(QuantTest::Eq),
                    (false, true, _) => AppShape::Compare(QuantTest::XLeqY),
                    (false, _, true) => AppShape::Compare(QuantTest::YLeqX),
                    _ => AppShape::Other,
                }
            }
            _ => AppShape::Other,
        }
    }

    fn acc_shape(&self, body: LId, x: u16, y: u16) -> AccShape {
        match self.node(body) {
            LExpr::Insert(..) if self.is_insert_of(body, x, y) => AccShape::InsertXY,
            LExpr::If(c, t, e) => {
                // or(x, y) = if x then true else y; and(x, y) = if x then y
                // else false (the dsl's desugarings).
                if self.is_local(*c, x) {
                    if matches!(self.node(*t), LExpr::Bool(true)) && self.is_local(*e, y) {
                        return AccShape::OrXY;
                    }
                    if self.is_local(*t, y) && matches!(self.node(*e), LExpr::Bool(false)) {
                        return AccShape::AndXY;
                    }
                }
                // Pair-driven filters and scans: the condition is a selector
                // on the applied pair.
                if let LExpr::Sel(ci, cp) = self.node(*c) {
                    if self.is_local(*cp, x) {
                        if let Some(vi) = self.sel_of_x(*t, x) {
                            if self.is_local(*e, y) {
                                return AccShape::Scan {
                                    cond_index: *ci,
                                    value_index: vi,
                                };
                            }
                        }
                        if let Some(vi) = self.insert_sel_of_x_into_y(*t, x, y) {
                            if self.is_local(*e, y) {
                                return AccShape::Filter {
                                    keep_on_true: true,
                                    cond_index: *ci,
                                    value_index: vi,
                                };
                            }
                        }
                        if self.is_local(*t, y) {
                            if let Some(vi) = self.insert_sel_of_x_into_y(*e, x, y) {
                                return AccShape::Filter {
                                    keep_on_true: false,
                                    cond_index: *ci,
                                    value_index: vi,
                                };
                            }
                        }
                    }
                }
                self.spine_shape(body, y)
            }
            _ => self.spine_shape(body, y),
        }
    }

    /// The spine verdict for an unfused accumulator body: a spine (local,
    /// or call-threaded through the callee whose summary carries the proof)
    /// or the first obstacle found, for diagnostics.
    fn spine_shape(&self, body: LId, y: u16) -> AccShape {
        match analysis::spine_verdict(self.program, &self.summaries, self.nodes, body, y) {
            Ok(via) => AccShape::Spine { via },
            Err(block) => AccShape::Other(block),
        }
    }

    /// `sel_i(x)` → `Some(i)`.
    fn sel_of_x(&self, id: LId, x: u16) -> Option<usize> {
        match self.node(id) {
            LExpr::Sel(i, e) if self.is_local(*e, x) => Some(*i),
            _ => None,
        }
    }

    /// `insert(sel_i(x), y)` → `Some(i)`.
    fn insert_sel_of_x_into_y(&self, id: LId, x: u16, y: u16) -> Option<usize> {
        match self.node(id) {
            LExpr::Insert(e, s) if self.is_local(*s, y) => self.sel_of_x(*e, x),
            _ => None,
        }
    }
}

enum PendingOperand<'a> {
    Slot(Reg),
    SlotSel(Reg, usize),
    Const(&'a Value),
    Bool(bool),
}

/// Whether the subtree at `id` reads frame slot `slot`. Slot indices are
/// absolute within the frame, so nested binders (which only add higher
/// slots) need no scope bookkeeping. Shared with [`crate::analysis`], whose
/// spine walk uses the same absolute-slot discipline.
pub(crate) fn reads_slot(nodes: &[LExpr], id: LId, slot: u16) -> bool {
    let node = &nodes[id.index()];
    match node {
        LExpr::Local(s) => *s == slot as u32,
        LExpr::Bool(_)
        | LExpr::Const(_)
        | LExpr::UnboundVar(_)
        | LExpr::EmptySet
        | LExpr::EmptyList
        | LExpr::NatConst(_)
        | LExpr::CallUnknown(_) => false,
        LExpr::If(a, b, c) => {
            reads_slot(nodes, *a, slot)
                || reads_slot(nodes, *b, slot)
                || reads_slot(nodes, *c, slot)
        }
        LExpr::Tuple(items) => items.iter().any(|i| reads_slot(nodes, *i, slot)),
        LExpr::Sel(_, e)
        | LExpr::Choose(e)
        | LExpr::Rest(e)
        | LExpr::New(e)
        | LExpr::Succ(e)
        | LExpr::Head(e)
        | LExpr::Tail(e) => reads_slot(nodes, *e, slot),
        LExpr::Eq(a, b)
        | LExpr::Leq(a, b)
        | LExpr::Insert(a, b)
        | LExpr::NatAdd(a, b)
        | LExpr::NatMul(a, b)
        | LExpr::Cons(a, b) => reads_slot(nodes, *a, slot) || reads_slot(nodes, *b, slot),
        LExpr::SetReduce {
            set,
            app,
            acc,
            base,
            extra,
        } => {
            reads_slot(nodes, *set, slot)
                || reads_slot(nodes, app.body, slot)
                || reads_slot(nodes, acc.body, slot)
                || reads_slot(nodes, *base, slot)
                || reads_slot(nodes, *extra, slot)
        }
        LExpr::ListReduce {
            list,
            app,
            acc,
            base,
            extra,
        } => {
            reads_slot(nodes, *list, slot)
                || reads_slot(nodes, app.body, slot)
                || reads_slot(nodes, acc.body, slot)
                || reads_slot(nodes, *base, slot)
                || reads_slot(nodes, *extra, slot)
        }
        LExpr::Call { args, .. } => args.iter().any(|a| reads_slot(nodes, *a, slot)),
        LExpr::Let { value, body } => {
            reads_slot(nodes, *value, slot) || reads_slot(nodes, *body, slot)
        }
    }
}

/// Grows a lexical height, rejecting (loudly, in every build profile) the
/// pathological programs whose binder nesting would overflow the `u16`
/// register space — see [`FrameState::alloc_n`].
fn deeper(h: u16, by: u16) -> u16 {
    h.checked_add(by).unwrap_or_else(|| {
        panic!(
            "bytecode codegen: binder nesting exceeds {} frame slots (program too deep for the VM backend)",
            u16::MAX
        )
    })
}

/// The deepest lexical slot index any descendant of `id` can occupy, given
/// the node itself sits at height `h` — the boundary between slot registers
/// and temporaries.
fn max_lexical_height(nodes: &[LExpr], id: LId, h: u16) -> u16 {
    let node = &nodes[id.index()];
    match node {
        LExpr::Bool(_)
        | LExpr::Const(_)
        | LExpr::Local(_)
        | LExpr::UnboundVar(_)
        | LExpr::EmptySet
        | LExpr::EmptyList
        | LExpr::NatConst(_)
        | LExpr::CallUnknown(_) => h,
        LExpr::If(a, b, c) => max_lexical_height(nodes, *a, h)
            .max(max_lexical_height(nodes, *b, h))
            .max(max_lexical_height(nodes, *c, h)),
        LExpr::Tuple(items) => items
            .iter()
            .map(|i| max_lexical_height(nodes, *i, h))
            .max()
            .unwrap_or(h),
        LExpr::Sel(_, e)
        | LExpr::Choose(e)
        | LExpr::Rest(e)
        | LExpr::New(e)
        | LExpr::Succ(e)
        | LExpr::Head(e)
        | LExpr::Tail(e) => max_lexical_height(nodes, *e, h),
        LExpr::Eq(a, b)
        | LExpr::Leq(a, b)
        | LExpr::Insert(a, b)
        | LExpr::NatAdd(a, b)
        | LExpr::NatMul(a, b)
        | LExpr::Cons(a, b) => {
            max_lexical_height(nodes, *a, h).max(max_lexical_height(nodes, *b, h))
        }
        LExpr::SetReduce {
            set,
            app,
            acc,
            base,
            extra,
        }
        | LExpr::ListReduce {
            list: set,
            app,
            acc,
            base,
            extra,
        } => max_lexical_height(nodes, *set, h)
            .max(max_lexical_height(nodes, *base, h))
            .max(max_lexical_height(nodes, *extra, h))
            .max(max_lexical_height(nodes, app.body, deeper(h, 2)))
            .max(max_lexical_height(nodes, acc.body, deeper(h, 2))),
        LExpr::Call { args, .. } => args
            .iter()
            .map(|a| max_lexical_height(nodes, *a, h))
            .max()
            .unwrap_or(h),
        LExpr::Let { value, body } => {
            max_lexical_height(nodes, *value, h).max(max_lexical_height(nodes, *body, deeper(h, 1)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Lambda};
    use crate::dsl::*;
    use crate::program::Program;

    fn expr_chunk(e: &crate::ast::Expr, scope: &[&str]) -> (CompiledProgram, Chunk) {
        let p = Program::srl();
        let c = CompiledProgram::compile(&p);
        let lowered = c.lower_expr(e, scope);
        let chunk = codegen_expr(&c, &lowered);
        (c, chunk)
    }

    fn main_kind(chunk: &Chunk) -> &ReduceKind {
        &main_reduce(chunk).kind
    }

    fn main_reduce(chunk: &Chunk) -> &ReduceInsn {
        block_reduce(chunk, chunk.main())
    }

    fn block_reduce(chunk: &Chunk, block: BlockId) -> &ReduceInsn {
        match chunk.block(block).code().last() {
            Some(Insn::Reduce(r)) => r,
            other => panic!("block does not end in a reduce: {other:?}"),
        }
    }

    #[test]
    fn union_fold_fuses_to_the_merge_superinstruction() {
        let e = set_reduce(
            var("A"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            var("B"),
            empty_set(),
        );
        let (_, chunk) = expr_chunk(&e, &["A", "B"]);
        assert!(matches!(main_kind(&chunk), ReduceKind::Union));
    }

    #[test]
    fn member_fold_fuses_to_binary_search() {
        let e = set_reduce(
            var("S"),
            lam("x", "t", eq(var("x"), var("t"))),
            lam("h", "acc", or(var("h"), var("acc"))),
            bool_(false),
            var("target"),
        );
        let (_, chunk) = expr_chunk(&e, &["S", "target"]);
        let kind = main_kind(&chunk);
        assert!(matches!(
            kind,
            ReduceKind::Quantifier {
                is_or: true,
                test: QuantTest::Eq
            }
        ));
        assert_eq!(kind.label(), "member");
    }

    #[test]
    fn comparison_quantifiers_fuse_to_one_kind() {
        let quantifier = |app: Expr, is_or: bool| {
            let acc = if is_or {
                or(var("h"), var("acc"))
            } else {
                and(var("h"), var("acc"))
            };
            let e = set_reduce(
                var("S"),
                lam("x", "t", app),
                lam("h", "acc", acc),
                bool_(!is_or),
                var("target"),
            );
            let (_, chunk) = expr_chunk(&e, &["S", "target"]);
            let r = main_reduce(&chunk);
            (r.kind.clone(), r.unit_cost)
        };
        let cases = [
            (eq(var("x"), var("t")), QuantTest::Eq),
            (eq(var("t"), var("x")), QuantTest::Eq),
            (leq(var("x"), var("t")), QuantTest::XLeqY),
            (leq(var("t"), var("x")), QuantTest::YLeqX),
        ];
        for (app, want) in cases {
            for is_or in [true, false] {
                let (kind, unit_cost) = quantifier(app.clone(), is_or);
                assert!(
                    matches!(kind, ReduceKind::Quantifier { is_or: o, test } if o == is_or && test == want),
                    "{kind:?}"
                );
                assert_eq!(unit_cost, 0, "no app block runs");
                let member = is_or && want == QuantTest::Eq;
                assert_eq!(kind.label(), if member { "member" } else { "quantifier" });
            }
        }
        // A comparison that does not read the extra stays a per-element fold.
        let (kind, _) = quantifier(leq(var("x"), var("x")), false);
        assert!(matches!(kind, ReduceKind::BoolAcc { .. }), "{kind:?}");
    }

    #[test]
    fn select_fold_fuses_to_filter() {
        let e = set_reduce(
            var("S"),
            lam("t", "e", tuple([var("t"), eq(sel(var("t"), 2), atom(5))])),
            lam(
                "p",
                "acc",
                if_(
                    sel(var("p"), 2),
                    insert(sel(var("p"), 1), var("acc")),
                    var("acc"),
                ),
            ),
            empty_set(),
            empty_set(),
        );
        let (_, chunk) = expr_chunk(&e, &["S"]);
        match main_kind(&chunk) {
            ReduceKind::Filter {
                keep_on_true,
                cond_index,
                value_index,
                ..
            } => {
                assert!(*keep_on_true);
                assert_eq!((*cond_index, *value_index), (2, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn map_fold_fuses_to_insert_app_and_quantifier_to_bool_acc() {
        let e = set_reduce(
            var("S"),
            lam("x", "e", tuple([var("x"), var("x")])),
            lam("o", "acc", insert(var("o"), var("acc"))),
            empty_set(),
            empty_set(),
        );
        let (_, chunk) = expr_chunk(&e, &["S"]);
        assert!(matches!(main_kind(&chunk), ReduceKind::InsertApp { .. }));
        let e = set_reduce(
            var("S"),
            lam("x", "e", leq(atom(0), var("x"))),
            lam("ok", "acc", and(var("ok"), var("acc"))),
            bool_(true),
            empty_set(),
        );
        let (_, chunk) = expr_chunk(&e, &["S"]);
        assert!(matches!(
            main_kind(&chunk),
            ReduceKind::BoolAcc { is_or: false, .. }
        ));
    }

    #[test]
    fn branching_insert_fold_is_monotone() {
        // write_cell's shape: both branches insert into the accumulator. No
        // fused kind; the local spine proof makes the Generic fold a proper
        // hom.
        let e = set_reduce(
            var("T"),
            Lambda::identity(),
            lam(
                "c",
                "acc",
                if_(
                    eq(sel(var("c"), 1), var("p")),
                    insert(tuple([var("p"), var("s")]), var("acc")),
                    insert(var("c"), var("acc")),
                ),
            ),
            empty_set(),
            empty_set(),
        );
        let (_, chunk) = expr_chunk(&e, &["T", "p", "s"]);
        let r = main_reduce(&chunk);
        assert!(matches!(r.kind, ReduceKind::Generic { .. }));
        assert_eq!(r.class, FoldClass::ProperHom);
        assert_eq!(r.origin, FoldOrigin::Spine { via: None });
    }

    #[test]
    fn fold_on_outer_state_stays_generic() {
        // The accumulator lambda inserts into an *enclosing* binding, not
        // its own accumulator parameter: no fusion, no takes of outer slots.
        let e = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("S"))),
            empty_set(),
            empty_set(),
        );
        let (_, chunk) = expr_chunk(&e, &["S"]);
        match main_kind(&chunk) {
            ReduceKind::Generic { acc, .. } => {
                let block = chunk.block(*acc);
                assert!(
                    block
                        .code()
                        .iter()
                        .all(|i| !matches!(i, Insn::Take { src: 0, .. })),
                    "the enclosing slot S must be cloned, not moved: {:?}",
                    block.code()
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn call_threaded_spine_fold_classifies_proper_hom() {
        // The powerset (Example 3.12): sift's inner fold threads its
        // accumulator through finsert — a call-threaded spine the
        // interprocedural summary proves, upgrading the Generic fold's
        // class. The outer fold passes its accumulator into sift's folded
        // set, which sift inspects: no proof, and the origin says why.
        let p = Program::srl()
            .define(
                "finsert",
                ["p", "T"],
                insert(
                    sel(var("p"), 1),
                    insert(insert(sel(var("p"), 2), sel(var("p"), 1)), var("T")),
                ),
            )
            .define(
                "sift",
                ["x", "T"],
                set_reduce(
                    var("T"),
                    lam("y", "e", tuple([var("y"), var("e")])),
                    lam("pair", "acc", call("finsert", [var("pair"), var("acc")])),
                    empty_set(),
                    var("x"),
                ),
            )
            .define(
                "powerset",
                ["S"],
                set_reduce(
                    var("S"),
                    lam("x", "y", var("x")),
                    lam("x", "T", call("sift", [var("x"), var("T")])),
                    insert(empty_set(), empty_set()),
                    empty_set(),
                ),
            );
        let c = p.compile();
        let chunk = codegen_program(&c);
        let finsert = c.def_id("finsert").unwrap();
        let sift = c.def_id("sift").unwrap();

        let inner = block_reduce(&chunk, chunk.defs()[sift as usize].block);
        assert!(matches!(inner.kind, ReduceKind::Generic { .. }));
        assert_eq!(inner.class, FoldClass::ProperHom);
        assert_eq!(inner.origin, FoldOrigin::Spine { via: Some(finsert) });

        let pow = c.def_id("powerset").unwrap();
        let outer = block_reduce(&chunk, chunk.defs()[pow as usize].block);
        assert!(matches!(outer.kind, ReduceKind::Generic { .. }));
        assert_eq!(outer.class, FoldClass::Ordered);
        assert_eq!(
            outer.origin,
            FoldOrigin::Unproven(SpineBlock::CalleeNoSpine(sift))
        );
    }

    #[test]
    fn fold_origins_name_the_obstacle() {
        // A fused shape records Shape.
        let e = set_reduce(
            var("A"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            var("B"),
            empty_set(),
        );
        let (_, chunk) = expr_chunk(&e, &["A", "B"]);
        assert_eq!(main_reduce(&chunk).origin, FoldOrigin::Shape);

        // A combiner that consumes its accumulator (cons) is Inspected.
        let e = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", cons(var("x"), var("acc"))),
            empty_list(),
            empty_set(),
        );
        let (_, chunk) = expr_chunk(&e, &["S"]);
        let r = main_reduce(&chunk);
        assert_eq!(r.class, FoldClass::Ordered);
        assert_eq!(r.origin, FoldOrigin::Unproven(SpineBlock::Inspected));

        // A combiner that drops its accumulator is NotThreaded.
        let e = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("S"))),
            empty_set(),
            empty_set(),
        );
        let (_, chunk) = expr_chunk(&e, &["S"]);
        assert_eq!(
            main_reduce(&chunk).origin,
            FoldOrigin::Unproven(SpineBlock::NotThreaded)
        );

        // List folds record List and stay ordered.
        let e = list_reduce(
            var("L"),
            Lambda::identity(),
            lam("x", "acc", cons(var("x"), var("acc"))),
            empty_list(),
            empty_set(),
        );
        let p = Program::new(crate::dialect::Dialect::unrestricted());
        let c = p.compile();
        let lowered = c.lower_expr(&e, &["L"]);
        let chunk = codegen_expr(&c, &lowered);
        let r = main_reduce(&chunk);
        assert_eq!(r.class, FoldClass::Ordered);
        assert_eq!(r.origin, FoldOrigin::List);
    }

    #[test]
    fn comparisons_of_slots_selectors_and_constants_fuse() {
        let e = eq(sel(var("e"), 2), sel(var("d"), 1));
        let (_, chunk) = expr_chunk(&e, &["e", "d"]);
        let code = chunk.block(chunk.main()).code();
        assert_eq!(code.len(), 1, "{code:?}");
        assert!(matches!(
            code[0],
            Insn::Cmp {
                a: Operand::SlotSel(0, 2),
                b: Operand::SlotSel(1, 1),
                leq: false,
                ..
            }
        ));
        let e = leq(var("x"), atom(7));
        let (_, chunk) = expr_chunk(&e, &["x"]);
        let code = chunk.block(chunk.main()).code();
        assert!(matches!(
            code[0],
            Insn::Cmp {
                a: Operand::Slot(0),
                b: Operand::Const(0),
                leq: true,
                ..
            }
        ));
    }

    #[test]
    fn static_arity_mismatch_compiles_to_a_fail() {
        let p = Program::srl().define("pair", ["a", "b"], tuple([var("a"), var("b")]));
        let c = CompiledProgram::compile(&p);
        let lowered = c.lower_expr(&call("pair", [atom(1)]), &[]);
        let chunk = codegen_expr(&c, &lowered);
        let code = chunk.block(chunk.main()).code();
        assert!(matches!(code[0], Insn::FailArity { nargs: 1, .. }));
    }

    #[test]
    fn frames_reserve_slots_below_temps() {
        // let a = … in insert(a, {}) — the let slot is register 0 (below the
        // temp base), and the frame covers both.
        let e = let_in("a", atom(1), insert(var("a"), empty_set()));
        let (_, chunk) = expr_chunk(&e, &[]);
        assert!(chunk.main_frame() >= 2);
        let code = chunk.block(chunk.main()).code();
        assert!(matches!(code[0], Insn::Bump { depth: 0 }));
        assert!(matches!(code[1], Insn::LoadConst { dst: 0, .. }));
    }
}
