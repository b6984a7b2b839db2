//! Static set-shape inference for the columnar storage tier.
//!
//! The columnar small-atom tier of [`crate::setrepr`] engages *adaptively*
//! whenever a set turns out to hold only plain atoms. This module is the
//! **static** half of the tier selection: a conservative shape inference
//! over the lowered IR that proves, at codegen time, that an operand or a
//! fold result has type `set(atom)` — so the fused `Reduce` instructions
//! can be stamped with [`crate::bytecode::SetTier::Atom`], the VM can start
//! fold accumulators directly in columnar storage, and `srl disasm` /
//! `srl analyze` can report which folds the tier covers.
//!
//! ## Soundness budget
//!
//! The inference is deliberately *advisory*. Declared parameter types
//! ([`crate::lower::CompiledDef::param_types`]) are trusted without runtime
//! checking, and `Const` set shapes are judged by their first element — so
//! a stamp can be wrong in adversarial programs. That is safe by design:
//! the representation widens itself on the first non-atom insert
//! (`SetRepr::demote_for`), values and `EvalStats` are tier-invariant, and
//! a wrong [`SetTier::Atom`](crate::bytecode::SetTier) stamp can only cost
//! the fast path, never correctness. The differential suite
//! (`tests/tests/set_tier_differential.rs`) pins this down.
//!
//! ## What is inferred
//!
//! A small monotone type domain: `Option<Type>` where `None` means
//! "unknown shape". [`join`] combines branch results with type-variable
//! absorption (`set('a0)` — the shape of `emptyset` — joins with
//! `set(atom)` to `set(atom)`). `set-reduce` results are solved by a
//! two-iteration fixpoint of the accumulator lambda's shape; call returns
//! are memoized per callee under its declared parameter types, with a
//! cycle guard (programs are non-recursive by validation, but lowering
//! tolerates arbitrary call graphs). Lists stay out of scope (`None`):
//! the columnar tier is a set representation.

use std::collections::HashMap;

use crate::lower::{CompiledProgram, LExpr, LId, LLambda};
use crate::types::Type;
use crate::value::Value;

/// Memoized callee return shapes, shared across every inference query of
/// one codegen run. `in_progress` guards against call cycles (which
/// lowering tolerates even though validation rejects them).
#[derive(Default)]
pub(crate) struct ReturnMemo {
    memo: HashMap<u32, Option<Type>>,
    in_progress: Vec<u32>,
}

/// Shape-inference context over one node arena. Callee bodies always live
/// in the *program* arena, so [`ShapeCtx::infer`] re-roots itself there
/// when it crosses a call boundary.
pub(crate) struct ShapeCtx<'a> {
    program: &'a CompiledProgram,
    nodes: &'a [LExpr],
}

/// Joins two inferred shapes: equal shapes stand, type variables absorb
/// into anything, everything else is a conflict (`None`).
pub(crate) fn join(a: &Type, b: &Type) -> Option<Type> {
    match (a, b) {
        (Type::Var(_), t) | (t, Type::Var(_)) => Some(t.clone()),
        (Type::Bool, Type::Bool) => Some(Type::Bool),
        (Type::Atom, Type::Atom) => Some(Type::Atom),
        (Type::Nat, Type::Nat) => Some(Type::Nat),
        (Type::Set(x), Type::Set(y)) => join(x, y).map(Type::set_of),
        (Type::List(x), Type::List(y)) => join(x, y).map(Type::list_of),
        (Type::Tuple(xs), Type::Tuple(ys)) if xs.len() == ys.len() => xs
            .iter()
            .zip(ys)
            .map(|(x, y)| join(x, y))
            .collect::<Option<Vec<_>>>()
            .map(Type::Tuple),
        _ => None,
    }
}

fn join_opt(a: Option<Type>, b: Option<Type>) -> Option<Type> {
    match (a, b) {
        (Some(a), Some(b)) => join(&a, &b),
        _ => None,
    }
}

/// The shape of a constant. Set shapes are judged cheaply: a columnar
/// store *proves* `set(atom)` (that is the representation invariant), any
/// other non-empty set is judged by its minimum element, and the empty set
/// gets the polymorphic `set('a0)`.
pub(crate) fn shape_of_value(v: &Value) -> Option<Type> {
    match v {
        Value::Bool(_) => Some(Type::Bool),
        Value::Atom(_) => Some(Type::Atom),
        Value::Nat(_) => Some(Type::Nat),
        Value::Tuple(items) => items
            .iter()
            .map(shape_of_value)
            .collect::<Option<Vec<_>>>()
            .map(Type::Tuple),
        Value::Set(items) => {
            if items.is_columnar() {
                return Some(Type::set_of(Type::Atom));
            }
            match items.first() {
                None => Some(Type::set_of(Type::Var(0))),
                Some(first) => shape_of_value(&first).map(Type::set_of),
            }
        }
        Value::List(_) => None,
    }
}

impl<'a> ShapeCtx<'a> {
    /// A context over `nodes` (a program arena or an expression arena
    /// lowered against `program`).
    pub(crate) fn new(program: &'a CompiledProgram, nodes: &'a [LExpr]) -> Self {
        ShapeCtx { program, nodes }
    }

    /// Infers the shape of node `id` under the lexical slot shapes in
    /// `slots` (absolute frame indices, like [`LExpr::Local`]). `slots` is
    /// used as a stack — binders push and pop — and is restored on return.
    pub(crate) fn infer(
        &self,
        id: LId,
        slots: &mut Vec<Option<Type>>,
        memo: &mut ReturnMemo,
    ) -> Option<Type> {
        match &self.nodes[id.index()] {
            LExpr::Bool(_) | LExpr::Eq(..) | LExpr::Leq(..) => Some(Type::Bool),
            LExpr::Const(v) => shape_of_value(v),
            LExpr::Local(n) => slots.get(*n as usize).cloned().flatten(),
            LExpr::UnboundVar(_) | LExpr::CallUnknown(_) => None,
            LExpr::If(_, t, e) => {
                let tt = self.infer(*t, slots, memo);
                let ee = self.infer(*e, slots, memo);
                join_opt(tt, ee)
            }
            LExpr::Tuple(items) => items
                .iter()
                .map(|i| self.infer(*i, slots, memo))
                .collect::<Option<Vec<_>>>()
                .map(Type::Tuple),
            LExpr::Sel(i, e) => match self.infer(*e, slots, memo) {
                Some(Type::Tuple(ts)) => i.checked_sub(1).and_then(|k| ts.into_iter().nth(k)),
                _ => None,
            },
            LExpr::EmptySet => Some(Type::set_of(Type::Var(0))),
            LExpr::Insert(e, s) => {
                let et = self.infer(*e, slots, memo)?;
                match self.infer(*s, slots, memo)? {
                    Type::Set(inner) => join(&inner, &et).map(Type::set_of),
                    _ => None,
                }
            }
            LExpr::Choose(s) => match self.infer(*s, slots, memo)? {
                Type::Set(inner) => match *inner {
                    Type::Var(_) => None,
                    t => Some(t),
                },
                _ => None,
            },
            // `rest` preserves the set type.
            LExpr::Rest(s) => self.infer(*s, slots, memo),
            LExpr::SetReduce {
                set,
                app,
                acc,
                base,
                extra,
            } => {
                let set_ty = self.infer(*set, slots, memo);
                self.reduce_result(set_ty.as_ref(), app, acc, *base, *extra, slots, memo)
            }
            LExpr::Call { def, .. } => self.callee_return(*def, memo),
            LExpr::Let { value, body } => {
                let vt = self.infer(*value, slots, memo);
                slots.push(vt);
                let bt = self.infer(*body, slots, memo);
                slots.pop();
                bt
            }
            LExpr::New(_) => Some(Type::Atom),
            LExpr::NatConst(_) | LExpr::Succ(_) | LExpr::NatAdd(..) | LExpr::NatMul(..) => {
                Some(Type::Nat)
            }
            LExpr::EmptyList
            | LExpr::Cons(..)
            | LExpr::Head(_)
            | LExpr::Tail(_)
            | LExpr::ListReduce { .. } => None,
        }
    }

    /// The element shape of a set shape (`None` when it is unknown or still
    /// polymorphic).
    pub(crate) fn elem_of(set_ty: Option<&Type>) -> Option<Type> {
        match set_ty {
            Some(Type::Set(inner)) => match &**inner {
                Type::Var(_) => None,
                t => Some(t.clone()),
            },
            _ => None,
        }
    }

    /// The shape of a fold's `app` result: the `app` lambda body under
    /// `x = element`, `y = extra`.
    pub(crate) fn app_result(
        &self,
        elem: Option<Type>,
        extra_ty: Option<Type>,
        app: &LLambda,
        slots: &mut Vec<Option<Type>>,
        memo: &mut ReturnMemo,
    ) -> Option<Type> {
        slots.push(elem);
        slots.push(extra_ty);
        let t = self.infer(app.body, slots, memo);
        slots.pop();
        slots.pop();
        t
    }

    /// The shape of a whole `set-reduce`: a two-iteration fixpoint of the
    /// accumulator lambda's shape over `x = app result`, `y = running
    /// result`, seeded with the base shape. Two iterations suffice: the
    /// first resolves the base's type variables against the step shape,
    /// the second either confirms stability or collapses to `None`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reduce_result(
        &self,
        set_ty: Option<&Type>,
        app: &LLambda,
        acc: &LLambda,
        base: LId,
        extra: LId,
        slots: &mut Vec<Option<Type>>,
        memo: &mut ReturnMemo,
    ) -> Option<Type> {
        let elem = Self::elem_of(set_ty);
        let extra_ty = self.infer(extra, slots, memo);
        let app_ty = self.app_result(elem, extra_ty, app, slots, memo);
        let mut result = self.infer(base, slots, memo);
        for _ in 0..2 {
            slots.push(app_ty.clone());
            slots.push(result.clone());
            let step = self.infer(acc.body, slots, memo);
            slots.pop();
            slots.pop();
            let joined = join_opt(result.clone(), step);
            if joined == result {
                break;
            }
            result = joined;
        }
        result
    }

    /// The memoized return shape of definition `def`, inferred from its
    /// body under its *declared* parameter types (untyped parameters are
    /// unknown). Cycle-guarded: a re-entrant query answers `None`.
    fn callee_return(&self, def: u32, memo: &mut ReturnMemo) -> Option<Type> {
        if let Some(t) = memo.memo.get(&def) {
            return t.clone();
        }
        if memo.in_progress.contains(&def) {
            return None;
        }
        let d = self.program.defs().get(def as usize)?;
        let mut slots: Vec<Option<Type>> = d.param_types.clone();
        let body = d.body;
        memo.in_progress.push(def);
        let callee_ctx = ShapeCtx::new(self.program, self.program.nodes());
        let ret = callee_ctx.infer(body, &mut slots, memo);
        memo.in_progress.pop();
        memo.memo.insert(def, ret.clone());
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::program::Program;

    fn infer_expr(e: &crate::ast::Expr, scope: &[(&str, Option<Type>)]) -> Option<Type> {
        let p = Program::srl();
        let c = p.compile();
        let names: Vec<&str> = scope.iter().map(|(n, _)| *n).collect();
        let lowered = c.lower_expr(e, &names);
        let ctx = ShapeCtx::new(&c, lowered.nodes());
        let mut slots: Vec<Option<Type>> = scope.iter().map(|(_, t)| t.clone()).collect();
        ctx.infer(lowered.root(), &mut slots, &mut ReturnMemo::default())
    }

    #[test]
    fn constants_and_primitives_have_their_obvious_shapes() {
        assert_eq!(infer_expr(&atom(3), &[]), Some(Type::Atom));
        assert_eq!(infer_expr(&bool_(true), &[]), Some(Type::Bool));
        assert_eq!(
            infer_expr(&empty_set(), &[]),
            Some(Type::set_of(Type::Var(0)))
        );
        assert_eq!(infer_expr(&eq(atom(1), atom(2)), &[]), Some(Type::Bool));
    }

    #[test]
    fn insert_resolves_the_empty_set_variable() {
        let e = insert(atom(1), empty_set());
        assert_eq!(infer_expr(&e, &[]), Some(Type::set_of(Type::Atom)));
        // Conflicting element shapes collapse to unknown.
        let e = insert(atom(1), insert(tuple([atom(1), atom(2)]), empty_set()));
        assert_eq!(infer_expr(&e, &[]), None);
    }

    #[test]
    fn declared_slots_flow_through_let_choose_and_rest() {
        let s = Some(Type::set_of(Type::Atom));
        assert_eq!(
            infer_expr(&choose(var("S")), &[("S", s.clone())]),
            Some(Type::Atom)
        );
        assert_eq!(infer_expr(&rest(var("S")), &[("S", s.clone())]), s.clone());
        let e = let_in("a", choose(var("S")), insert(var("a"), empty_set()));
        assert_eq!(infer_expr(&e, &[("S", s)]), Some(Type::set_of(Type::Atom)));
    }

    #[test]
    fn fold_results_fixpoint_over_the_accumulator_shape() {
        // A union-of-atoms fold over a declared set(atom): set(atom).
        let e = set_reduce(
            var("S"),
            lam("x", "e", var("x")),
            lam("x", "y", insert(var("x"), var("y"))),
            empty_set(),
            empty_set(),
        );
        assert_eq!(
            infer_expr(&e, &[("S", Some(Type::set_of(Type::Atom)))]),
            Some(Type::set_of(Type::Atom))
        );
        // The same fold over an undeclared set: unknown.
        assert_eq!(infer_expr(&e, &[("S", None)]), None);
        // A projection fold producing tuples is not set(atom).
        let e = set_reduce(
            var("S"),
            lam("x", "e", tuple([var("x"), var("x")])),
            lam("x", "y", insert(var("x"), var("y"))),
            empty_set(),
            empty_set(),
        );
        assert_eq!(
            infer_expr(&e, &[("S", Some(Type::set_of(Type::Atom)))]),
            Some(Type::set_of(Type::tuple_of([Type::Atom, Type::Atom])))
        );
    }

    #[test]
    fn call_returns_are_inferred_under_declared_param_types() {
        let p = Program::srl()
            .define_typed(
                "firsts",
                [("R", Type::relation(2))],
                set_reduce(
                    var("R"),
                    lam("t", "e", sel(var("t"), 1)),
                    lam("x", "y", insert(var("x"), var("y"))),
                    empty_set(),
                    empty_set(),
                ),
            )
            .define("untyped", ["R"], var("R"));
        let c = p.compile();
        let e = call("firsts", [var("R")]);
        let lowered = c.lower_expr(&e, &["R"]);
        let ctx = ShapeCtx::new(&c, lowered.nodes());
        let mut memo = ReturnMemo::default();
        assert_eq!(
            ctx.infer(lowered.root(), &mut vec![None], &mut memo),
            Some(Type::set_of(Type::Atom))
        );
        // Memoized: a second query hits the cache.
        assert_eq!(
            ctx.infer(lowered.root(), &mut vec![None], &mut memo),
            Some(Type::set_of(Type::Atom))
        );
        // The untyped definition's parameter shape is unknown.
        let e = call("untyped", [var("R")]);
        let lowered = c.lower_expr(&e, &["R"]);
        let ctx = ShapeCtx::new(&c, lowered.nodes());
        assert_eq!(ctx.infer(lowered.root(), &mut vec![None], &mut memo), None);
    }

    #[test]
    fn join_absorbs_variables_and_rejects_conflicts() {
        assert_eq!(
            join(&Type::set_of(Type::Var(0)), &Type::set_of(Type::Atom)),
            Some(Type::set_of(Type::Atom))
        );
        assert_eq!(join(&Type::Atom, &Type::Nat), None);
        assert_eq!(
            join(
                &Type::tuple_of([Type::Atom, Type::Var(1)]),
                &Type::tuple_of([Type::Atom, Type::Bool])
            ),
            Some(Type::tuple_of([Type::Atom, Type::Bool]))
        );
    }

    #[test]
    fn columnar_constants_prove_set_of_atom() {
        let dense = Value::set((0..100).map(Value::atom));
        assert_eq!(shape_of_value(&dense), Some(Type::set_of(Type::Atom)));
    }
}
