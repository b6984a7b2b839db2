//! Interprocedural insert-spine analysis over the lowered IR.
//!
//! A fold combiner whose accumulator parameter is only ever threaded
//! through `insert` into the result is a proper hom. [`spine_verdict`]
//! proves that for a combiner body: *locally*, when the inserts sit in the
//! lambda itself (the TM simulator's `write_cell`), and across calls, when
//! the accumulator is passed into a callee's spine parameter (the
//! powerset's `λ(x, T). sift(x, T)`, where `sift` ultimately folds
//! `finsert`, a pure insert spine).
//!
//! For the call-threaded case this module computes per-definition **spine
//! summaries** bottom-up across
//! the call graph: for each definition, the first parameter (if any) that is
//! used only in *monotone spine position* — threaded through `insert` (or
//! through a callee's own spine parameter) into the result, never inspected
//! by a condition, selector, equality, reduce, or any other consuming
//! primitive. A fold combiner whose accumulator flows through such a chain
//! computes `base ∪ {inserted elements}`: a commutative-associative
//! extension of its set argument, hence a proper homomorphism in the
//! Section 7 sense, safe to shard and merge in any partition.
//!
//! The summary is deliberately a *may-not-observe* proof, not a full
//! abstract interpretation: any construct the walk does not recognise blocks
//! the proof (`SpineBlock` says which), so the analysis is sound by
//! construction — it can only fail to prove, never prove falsely.
//! Recursion (rejected by `Program::validate`, but constructible via
//! `Program::define`) is handled with an in-progress marker: a cycle simply
//! yields no summary.

use crate::bytecode::reads_slot;
use crate::lower::{CompiledProgram, LExpr, LId};

/// Why a spine proof failed, recorded per reduce instruction so `disasm`,
/// `srl analyze`, and the REPL can report the obstacle, not just the verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpineBlock {
    /// The combiner's result does not thread the accumulator parameter on
    /// every path (it is dropped or replaced, so the fold may forget
    /// prior elements and the order of arrival becomes observable).
    NotThreaded,
    /// The accumulator parameter is read outside spine position — inspected
    /// by a condition, selector, equality, fold, or other consuming
    /// primitive whose result can depend on what arrived earlier.
    Inspected,
    /// The accumulator is passed to a call on the result path, but the
    /// callee (by definition index) has no spine-parameter summary, so the
    /// proof cannot cross that call.
    CalleeNoSpine(u32),
}

/// Per-definition spine summaries for a compiled program.
///
/// `spine_param(def)` is the first parameter slot of `def` proved to be used
/// only in monotone spine position (see module docs), or `None` when no
/// parameter has that property.
#[derive(Clone, Debug, Default)]
pub struct DefSummaries {
    spine: Vec<Option<u16>>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Unvisited,
    InProgress,
    Done(Option<u16>),
}

impl DefSummaries {
    /// Computes summaries for every definition, bottom-up across the call
    /// graph (definitions may forward-reference, so this memoizes on
    /// demand; a call cycle marks the definitions involved as summary-free
    /// rather than looping).
    pub fn compute(program: &CompiledProgram) -> DefSummaries {
        let mut b = Builder {
            program,
            state: vec![State::Unvisited; program.defs().len()],
        };
        let spine = (0..program.defs().len() as u32)
            .map(|d| b.spine_param(d))
            .collect();
        DefSummaries { spine }
    }

    /// The proved spine parameter slot of `def`, if any.
    pub fn spine_param(&self, def: u32) -> Option<u16> {
        self.spine.get(def as usize).copied().flatten()
    }
}

struct Builder<'a> {
    program: &'a CompiledProgram,
    state: Vec<State>,
}

impl Builder<'_> {
    fn spine_param(&mut self, def: u32) -> Option<u16> {
        match self.state[def as usize] {
            State::Done(s) => s,
            // A cycle: no proof for anything on it (sound — recursion can
            // re-inspect the accumulator through arbitrarily many frames).
            State::InProgress => None,
            State::Unvisited => {
                self.state[def as usize] = State::InProgress;
                let d = &self.program.defs()[def as usize];
                let (body, arity) = (d.body, d.params.len() as u16);
                let found = (0..arity).find(|&p| {
                    walk(self.program, self.program.nodes(), body, p, &mut |c| {
                        self.spine_param(c)
                    })
                    .is_ok()
                });
                self.state[def as usize] = State::Done(found);
                found
            }
        }
    }
}

/// Decides whether slot `y` is used only in insert-spine position in the
/// expression tree rooted at `id` (an arena index into `nodes`). Codegen
/// records the verdict as the fold's
/// [`FoldOrigin`](crate::bytecode::FoldOrigin): `Ok(via)` becomes
/// `FoldOrigin::Spine { via }`, which makes the `Generic` fold a proper
/// hom, and `Err(block)` becomes `FoldOrigin::Unproven(block)`.
///
/// - `Ok(None)` — a purely local spine: `y` is threaded through `insert`
///   chains, `if` branches (condition not reading `y`), and `let` bodies
///   straight into the result.
/// - `Ok(Some(via))` — a call-threaded spine: the same shape, except the
///   thread passes through the spine parameter of definition `via`
///   (the outermost such call), whose own summary carries the proof.
/// - `Err(block)` — no proof; `block` names the first obstacle found.
pub fn spine_verdict(
    program: &CompiledProgram,
    summaries: &DefSummaries,
    nodes: &[LExpr],
    id: LId,
    y: u16,
) -> Result<Option<u32>, SpineBlock> {
    walk(program, nodes, id, y, &mut |def| summaries.spine_param(def))
}

/// The shared walk: `lookup` resolves callee spine summaries, either from a
/// frozen [`DefSummaries`] or recursively during [`DefSummaries::compute`].
fn walk(
    program: &CompiledProgram,
    nodes: &[LExpr],
    id: LId,
    y: u16,
    lookup: &mut dyn FnMut(u32) -> Option<u16>,
) -> Result<Option<u32>, SpineBlock> {
    match &nodes[id.index()] {
        LExpr::Local(s) if *s == u32::from(y) => Ok(None),
        LExpr::Insert(e, s) => {
            if reads_slot(nodes, *e, y) {
                return Err(SpineBlock::Inspected);
            }
            walk(program, nodes, *s, y, lookup)
        }
        LExpr::If(c, t, e) => {
            if reads_slot(nodes, *c, y) {
                return Err(SpineBlock::Inspected);
            }
            let vt = walk(program, nodes, *t, y, lookup)?;
            let ve = walk(program, nodes, *e, y, lookup)?;
            Ok(vt.or(ve))
        }
        LExpr::Let { value, body } => {
            if reads_slot(nodes, *value, y) {
                return Err(SpineBlock::Inspected);
            }
            walk(program, nodes, *body, y, lookup)
        }
        LExpr::Call { def, args } => {
            let callee = &program.defs()[*def as usize];
            match lookup(*def) {
                // The callee threads its parameter `j` through its own
                // spine; the call is on *our* spine iff `y` flows only
                // into that argument. (An arity mismatch compiles to
                // `FailArity`, so the summary must not apply.)
                Some(j) if callee.params.len() == args.len() => {
                    let j = usize::from(j);
                    for (i, a) in args.iter().enumerate() {
                        if i != j && reads_slot(nodes, *a, y) {
                            return Err(SpineBlock::Inspected);
                        }
                    }
                    let inner = walk(program, nodes, args[j], y, lookup)?;
                    Ok(Some(inner.unwrap_or(*def)))
                }
                _ => {
                    if args.iter().any(|a| reads_slot(nodes, *a, y)) {
                        Err(SpineBlock::CalleeNoSpine(*def))
                    } else {
                        Err(SpineBlock::NotThreaded)
                    }
                }
            }
        }
        _ => {
            if reads_slot(nodes, id, y) {
                Err(SpineBlock::Inspected)
            } else {
                Err(SpineBlock::NotThreaded)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::program::Program;

    fn finsert_body() -> crate::ast::Expr {
        insert(
            sel(var("p"), 1),
            insert(insert(sel(var("p"), 2), sel(var("p"), 1)), var("T")),
        )
    }

    fn sift_body() -> crate::ast::Expr {
        set_reduce(
            var("T"),
            lam("y", "e", tuple([var("y"), var("e")])),
            lam("pair", "acc", call("finsert", [var("pair"), var("acc")])),
            empty_set(),
            var("x"),
        )
    }

    #[test]
    fn insert_spine_parameter_is_summarised() {
        // finsert threads T (slot 1) through a pure insert chain.
        let p = Program::srl().define("finsert", ["p", "T"], finsert_body());
        let s = DefSummaries::compute(&p.compile());
        assert_eq!(s.spine_param(0), Some(1));
    }

    #[test]
    fn call_threaded_spine_is_proved_across_the_graph() {
        // sift folds finsert over T: sift's own T is *inspected* (it is the
        // folded set), so sift has no spine param — but the fold combiner
        // inside it threads its accumulator through finsert's spine.
        let p = Program::srl()
            .define("finsert", ["p", "T"], finsert_body())
            .define("sift", ["x", "T"], sift_body());
        let s = DefSummaries::compute(&p.compile());
        assert_eq!(s.spine_param(0), Some(1), "finsert spines T");
        assert_eq!(s.spine_param(1), None, "sift folds over its T");
    }

    #[test]
    fn inspected_and_dropped_parameters_are_rejected() {
        let p = Program::srl()
            .define(
                "inspect",
                ["S"],
                if_(
                    eq(var("S"), empty_set()),
                    var("S"),
                    insert(atom(0), var("S")),
                ),
            )
            .define("drop", ["S"], empty_set())
            .define("choose_it", ["S"], insert(choose(var("S")), rest(var("S"))));
        let s = DefSummaries::compute(&p.compile());
        // `inspect` reads S in the condition; `drop` never threads it;
        // `choose_it` passes S through order-observing primitives.
        assert_eq!(s.spine_param(0), None);
        assert_eq!(s.spine_param(1), None);
        assert_eq!(s.spine_param(2), None);
    }

    #[test]
    fn identity_and_branching_spines_are_accepted() {
        let p = Program::srl().define("id", ["S"], var("S")).define(
            "maybe",
            ["x", "S"],
            if_(eq(var("x"), atom(0)), insert(atom(1), var("S")), var("S")),
        );
        let s = DefSummaries::compute(&p.compile());
        assert_eq!(s.spine_param(0), Some(0));
        assert_eq!(s.spine_param(1), Some(1));
    }

    #[test]
    fn recursive_definitions_do_not_loop_and_get_no_summary() {
        // Program::define does not validate, so a recursive def is
        // constructible; the cycle guard must terminate without a proof.
        let p = Program::srl().define("spin", ["S"], call("spin", [insert(atom(0), var("S"))]));
        let s = DefSummaries::compute(&p.compile());
        assert_eq!(s.spine_param(0), None);
    }

    #[test]
    fn verdicts_carry_the_blocking_reason() {
        let p = Program::srl()
            .define("finsert", ["p", "T"], finsert_body())
            .define("sift", ["x", "T"], sift_body());
        let cp = p.compile();
        let summaries = DefSummaries::compute(&cp);

        // λ(x, T). sift(x, T): T flows into sift's folded-set argument and
        // sift has no spine — the proof stops at that call.
        let e = cp.lower_expr(&call("sift", [var("x"), var("T")]), &["x", "T"]);
        assert_eq!(
            spine_verdict(&cp, &summaries, e.nodes(), e.root(), 1),
            Err(SpineBlock::CalleeNoSpine(cp.def_id("sift").unwrap()))
        );

        // λ(x, T). finsert(x, T): a call-threaded spine via finsert.
        let e = cp.lower_expr(&call("finsert", [var("x"), var("T")]), &["x", "T"]);
        assert_eq!(
            spine_verdict(&cp, &summaries, e.nodes(), e.root(), 1),
            Ok(Some(cp.def_id("finsert").unwrap()))
        );

        // The element parameter x is inspected by finsert, not spined.
        assert_eq!(
            spine_verdict(&cp, &summaries, e.nodes(), e.root(), 0),
            Err(SpineBlock::Inspected)
        );
    }
}
