//! Builder combinators for constructing SRL expressions from Rust.
//!
//! Every program in the paper is reconstructed programmatically (mostly in
//! the `srl-stdlib` crate); these free functions keep those constructions
//! readable. Boolean connectives are provided as the `if-then-else`
//! desugarings the paper notes ("boolean and, or, and not can easily be
//! defined with the if-then-else function").
//!
//! Names used here (variables, definitions) are purely for construction and
//! display: build-time lowering ([`crate::lower`]) interns every name to a
//! `u32` symbol and resolves every variable to a frame slot, so spelling
//! choices have zero run-time cost — pick the paper's names for
//! readability.

use crate::ast::{Expr, Lambda};
use crate::bignat::BigNat;
use crate::value::Value;

/// `true` / `false` literal.
pub fn bool_(b: bool) -> Expr {
    Expr::Bool(b)
}

/// A constant value.
pub fn const_v(v: Value) -> Expr {
    Expr::Const(v)
}

/// An atom constant with the given domain rank.
pub fn atom(i: u64) -> Expr {
    Expr::Const(Value::atom(i))
}

/// A variable reference.
pub fn var(name: impl Into<String>) -> Expr {
    Expr::Var(name.into())
}

/// `if c then t else e`.
pub fn if_(c: Expr, t: Expr, e: Expr) -> Expr {
    Expr::If(Box::new(c), Box::new(t), Box::new(e))
}

/// Tuple construction `[e1, …, en]`.
pub fn tuple(items: impl IntoIterator<Item = Expr>) -> Expr {
    Expr::Tuple(items.into_iter().collect())
}

/// Component selection, 1-based: `sel(e, 2)` is the paper's `e.2`.
pub fn sel(e: Expr, index: usize) -> Expr {
    Expr::Sel(index, Box::new(e))
}

/// Equality `e1 = e2`.
pub fn eq(a: Expr, b: Expr) -> Expr {
    Expr::Eq(Box::new(a), Box::new(b))
}

/// Domain order `e1 ≤ e2`.
pub fn leq(a: Expr, b: Expr) -> Expr {
    Expr::Leq(Box::new(a), Box::new(b))
}

/// The empty set.
pub fn empty_set() -> Expr {
    Expr::EmptySet
}

/// `insert(element, set)`.
pub fn insert(element: Expr, set: Expr) -> Expr {
    Expr::Insert(Box::new(element), Box::new(set))
}

/// A set literal `{e1, …, en}`, built from repeated inserts.
pub fn set_lit(items: impl IntoIterator<Item = Expr>) -> Expr {
    items.into_iter().fold(empty_set(), |acc, e| insert(e, acc))
}

/// `set-reduce(set, app, acc, base, extra)`.
pub fn set_reduce(set: Expr, app: Lambda, acc: Lambda, base: Expr, extra: Expr) -> Expr {
    Expr::SetReduce {
        set: Box::new(set),
        app,
        acc,
        base: Box::new(base),
        extra: Box::new(extra),
    }
}

/// `choose(set)`.
pub fn choose(set: Expr) -> Expr {
    Expr::Choose(Box::new(set))
}

/// `rest(set)`.
pub fn rest(set: Expr) -> Expr {
    Expr::Rest(Box::new(set))
}

/// A call to a named definition.
pub fn call(name: impl Into<String>, args: impl IntoIterator<Item = Expr>) -> Expr {
    Expr::Call(name.into(), args.into_iter().collect())
}

/// `let name = value in body`.
pub fn let_in(name: impl Into<String>, value: Expr, body: Expr) -> Expr {
    Expr::Let {
        name: name.into(),
        value: Box::new(value),
        body: Box::new(body),
    }
}

/// `new(set)` — an invented value (Section 5).
pub fn new_value(set: Expr) -> Expr {
    Expr::New(Box::new(set))
}

/// A natural-number constant.
pub fn nat(n: u64) -> Expr {
    Expr::NatConst(BigNat::from_u64(n))
}

/// `succ(e)` on naturals.
pub fn succ(e: Expr) -> Expr {
    Expr::Succ(Box::new(e))
}

/// `e1 + e2` on naturals.
pub fn nat_add(a: Expr, b: Expr) -> Expr {
    Expr::NatAdd(Box::new(a), Box::new(b))
}

/// `e1 * e2` on naturals.
pub fn nat_mul(a: Expr, b: Expr) -> Expr {
    Expr::NatMul(Box::new(a), Box::new(b))
}

/// The empty list.
pub fn empty_list() -> Expr {
    Expr::EmptyList
}

/// `cons(element, list)`.
pub fn cons(element: Expr, list: Expr) -> Expr {
    Expr::Cons(Box::new(element), Box::new(list))
}

/// `head(list)`.
pub fn head(list: Expr) -> Expr {
    Expr::Head(Box::new(list))
}

/// `tail(list)`.
pub fn tail(list: Expr) -> Expr {
    Expr::Tail(Box::new(list))
}

/// `list-reduce(list, app, acc, base, extra)`.
pub fn list_reduce(list: Expr, app: Lambda, acc: Lambda, base: Expr, extra: Expr) -> Expr {
    Expr::ListReduce {
        list: Box::new(list),
        app,
        acc,
        base: Box::new(base),
        extra: Box::new(extra),
    }
}

/// A two-parameter lambda `λ(x, y). body`.
pub fn lam(x: impl Into<String>, y: impl Into<String>, body: Expr) -> Lambda {
    Lambda::new(x, y, body)
}

/// Boolean negation, desugared to `if e then false else true`.
pub fn not(e: Expr) -> Expr {
    if_(e, bool_(false), bool_(true))
}

/// Boolean conjunction, desugared to `if a then b else false`.
pub fn and(a: Expr, b: Expr) -> Expr {
    if_(a, b, bool_(false))
}

/// Boolean disjunction, desugared to `if a then true else b`.
pub fn or(a: Expr, b: Expr) -> Expr {
    if_(a, bool_(true), b)
}

/// n-ary conjunction (true when empty).
pub fn and_all(items: impl IntoIterator<Item = Expr>) -> Expr {
    let mut iter = items.into_iter();
    match iter.next() {
        None => bool_(true),
        Some(first) => iter.fold(first, and),
    }
}

/// n-ary disjunction (false when empty).
pub fn or_any(items: impl IntoIterator<Item = Expr>) -> Expr {
    let mut iter = items.into_iter();
    match iter.next() {
        None => bool_(false),
        Some(first) => iter.fold(first, or),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_literal_builds_nested_inserts() {
        let e = set_lit([atom(1), atom(2)]);
        assert_eq!(e.operator_name(), "insert");
        assert_eq!(e.node_count(), 5); // insert(2, insert(1, {})) has 5 nodes
    }

    #[test]
    fn boolean_desugarings_shape() {
        assert_eq!(not(bool_(true)).operator_name(), "if");
        assert_eq!(and(bool_(true), bool_(false)).operator_name(), "if");
        assert_eq!(or(bool_(true), bool_(false)).operator_name(), "if");
    }

    #[test]
    fn nary_connectives_handle_empty_and_singleton() {
        assert_eq!(and_all([]), bool_(true));
        assert_eq!(or_any([]), bool_(false));
        assert_eq!(and_all([var("p")]), var("p"));
        assert_eq!(or_any([var("p")]), var("p"));
        assert_eq!(and_all([var("p"), var("q")]).operator_name(), "if");
    }

    #[test]
    fn lambda_helpers() {
        let l = lam("a", "b", var("a"));
        assert_eq!(l.x, "a");
        assert_eq!(l.y, "b");
        assert_eq!(*l.body, var("a"));
    }

    #[test]
    fn selector_is_one_based_by_convention() {
        let e = sel(var("t"), 1);
        match e {
            Expr::Sel(1, _) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
