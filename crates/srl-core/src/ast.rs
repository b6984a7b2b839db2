//! Abstract syntax of the set-reduce language.
//!
//! The constructors follow the grammar of Section 2 of the paper, rules 1–10,
//! plus the extensions the paper studies:
//!
//! * `choose` / `rest` — the primitives the formal specification (\[35\] in the
//!   paper) uses to give `set-reduce` its semantics;
//! * `new` — invented values (Section 5);
//! * lists with `cons` / `list-reduce` — the LRL variant (Sections 3 and 5);
//! * natural numbers with `succ`, `+`, `*` — the arithmetic extension
//!   discussed after Theorem 3.10;
//! * `≤` — the order predicate on the domain that the paper makes available
//!   ("we have made available to us an ordering relation (denoted by ≤)");
//! * `let` and named function calls — convenience forms for composition,
//!   which Definition 2.1 closes the function class under.
//!
//! Expressions are plain data; programs are built either with these
//! constructors directly, with the combinators in [`crate::dsl`], or by
//! parsing the surface syntax in the `srl-syntax` crate.
//!
//! This name-based AST is the *construction* surface only: before evaluation
//! it is lowered once by [`crate::lower`] into a slot-indexed IR with
//! interned symbols ([`crate::intern`]), so no string is compared and no
//! body is cloned on the evaluator's hot path. Whole-value constants embed
//! [`Value`]s, whose collection payloads are `Arc`-shared — cloning an
//! `Expr::Const` is O(1).

use crate::bignat::BigNat;
use crate::value::Value;

/// A two-parameter lambda abstraction, written `lambda(x, y) body` in the
/// paper (rule 9). Both the `app` and `acc` arguments of `set-reduce` have
/// this shape; only the two parameters may occur free in the body (everything
/// else must be routed through the `extra` argument — the paper's mechanism
/// for keeping "all reference local").
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Lambda {
    /// First parameter name (the element / the value of `app`).
    pub x: String,
    /// Second parameter name (the extra argument / the recursive result).
    pub y: String,
    /// Body expression.
    pub body: Box<Expr>,
}

impl Lambda {
    /// Builds a lambda.
    pub fn new(x: impl Into<String>, y: impl Into<String>, body: Expr) -> Self {
        Lambda {
            x: x.into(),
            y: y.into(),
            body: Box::new(body),
        }
    }

    /// The identity on the first parameter, `λ(x, y). x` — used throughout
    /// the paper as the `app` function when no per-element transformation is
    /// needed.
    pub fn identity() -> Self {
        Lambda::new("x", "y", Expr::Var("x".into()))
    }

    /// `λ(x, y). y`: projects the second parameter.
    pub fn second() -> Self {
        Lambda::new("x", "y", Expr::Var("y".into()))
    }
}

/// An expression of the set-reduce language.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// Rule 1: `true` / `false`.
    Bool(bool),
    /// Rule 3: a constant of an equality type (atoms, naturals, tuples
    /// thereof; also whole input sets injected as constants by harnesses).
    Const(Value),
    /// A variable (a lambda parameter, a `let` binding, a definition
    /// parameter, or a free input name bound by the evaluation environment).
    Var(String),
    /// Rule 2: `if b then e1 else e2`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Rule 4: tuple construction `[e1, …, en]`.
    Tuple(Vec<Expr>),
    /// Rule 5: component selection `sel_i(e)`, 1-based as in the paper
    /// (`t.1`, `t.2`, …).
    Sel(usize, Box<Expr>),
    /// Rule 6: equality on an equality type.
    Eq(Box<Expr>, Box<Expr>),
    /// The domain order `e1 ≤ e2` (available per Section 2's closing remark).
    Leq(Box<Expr>, Box<Expr>),
    /// Rule 7: `emptyset`.
    EmptySet,
    /// Rule 8: `insert(e, s)`.
    Insert(Box<Expr>, Box<Expr>),
    /// Rule 9: `set-reduce(s, app, acc, base, extra)`.
    SetReduce {
        /// The set to traverse.
        set: Box<Expr>,
        /// Applied to `(element, extra)` for each element.
        app: Lambda,
        /// Combines `(app result, recursive result)`.
        acc: Lambda,
        /// Value for the empty set.
        base: Box<Expr>,
        /// Extra value threaded to every `app` application.
        extra: Box<Expr>,
    },
    /// `choose(s)`: the minimal element of a non-empty set (from the formal
    /// specification of finite sets the paper builds on).
    Choose(Box<Expr>),
    /// `rest(s)`: the set minus its minimal element.
    Rest(Box<Expr>),
    /// A call to a named, previously defined function (composition).
    Call(String, Vec<Expr>),
    /// `let name = value in body` — sugar for composition, convenient when
    /// building the paper's larger programs.
    Let {
        /// Bound name.
        name: String,
        /// Bound value.
        value: Box<Expr>,
        /// Body in which the name is visible.
        body: Box<Expr>,
    },
    /// `new(s)`: an element not occurring in `s` (Section 5). Our
    /// implementation returns the atom whose rank is one larger than the
    /// largest atom rank occurring anywhere in `s` (so `new` is deterministic
    /// and `insert(new(S), S)` implements the unbounded successor).
    New(Box<Expr>),
    /// A natural-number constant (ℕ extension).
    NatConst(BigNat),
    /// `succ(e)` on naturals.
    Succ(Box<Expr>),
    /// `e1 + e2` on naturals.
    NatAdd(Box<Expr>, Box<Expr>),
    /// `e1 * e2` on naturals.
    NatMul(Box<Expr>, Box<Expr>),
    /// The empty list (LRL extension).
    EmptyList,
    /// `cons(e, l)`: prepend an element to a list.
    Cons(Box<Expr>, Box<Expr>),
    /// `head(l)` of a non-empty list.
    Head(Box<Expr>),
    /// `tail(l)` of a non-empty list.
    Tail(Box<Expr>),
    /// `list-reduce(l, app, acc, base, extra)` — identical to `set-reduce`
    /// except that it traverses a list in its stored order (Section 3).
    ListReduce {
        /// The list to traverse.
        list: Box<Expr>,
        /// Applied to `(element, extra)` for each element.
        app: Lambda,
        /// Combines `(app result, recursive result)`.
        acc: Lambda,
        /// Value for the empty list.
        base: Box<Expr>,
        /// Extra value threaded to every `app` application.
        extra: Box<Expr>,
    },
}

impl Expr {
    /// Short name of the operator at the root of this expression, used in
    /// error messages, dialect checks, and the syntactic analyses.
    pub fn operator_name(&self) -> &'static str {
        match self {
            Expr::Bool(_) => "bool",
            Expr::Const(_) => "const",
            Expr::Var(_) => "var",
            Expr::If(..) => "if",
            Expr::Tuple(_) => "tuple",
            Expr::Sel(..) => "sel",
            Expr::Eq(..) => "eq",
            Expr::Leq(..) => "leq",
            Expr::EmptySet => "emptyset",
            Expr::Insert(..) => "insert",
            Expr::SetReduce { .. } => "set-reduce",
            Expr::Choose(_) => "choose",
            Expr::Rest(_) => "rest",
            Expr::Call(..) => "call",
            Expr::Let { .. } => "let",
            Expr::New(_) => "new",
            Expr::NatConst(_) => "nat-const",
            Expr::Succ(_) => "succ",
            Expr::NatAdd(..) => "nat-add",
            Expr::NatMul(..) => "nat-mul",
            Expr::EmptyList => "emptylist",
            Expr::Cons(..) => "cons",
            Expr::Head(_) => "head",
            Expr::Tail(_) => "tail",
            Expr::ListReduce { .. } => "list-reduce",
        }
    }

    /// Immediate sub-expressions, *excluding* lambda bodies.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Bool(_)
            | Expr::Const(_)
            | Expr::Var(_)
            | Expr::EmptySet
            | Expr::EmptyList
            | Expr::NatConst(_) => vec![],
            Expr::If(a, b, c) => vec![a, b, c],
            Expr::Tuple(items) => items.iter().collect(),
            Expr::Sel(_, e)
            | Expr::Choose(e)
            | Expr::Rest(e)
            | Expr::New(e)
            | Expr::Succ(e)
            | Expr::Head(e)
            | Expr::Tail(e) => vec![e],
            Expr::Eq(a, b)
            | Expr::Leq(a, b)
            | Expr::Insert(a, b)
            | Expr::NatAdd(a, b)
            | Expr::NatMul(a, b)
            | Expr::Cons(a, b) => vec![a, b],
            Expr::SetReduce {
                set, base, extra, ..
            } => vec![set, base, extra],
            Expr::ListReduce {
                list, base, extra, ..
            } => vec![list, base, extra],
            Expr::Call(_, args) => args.iter().collect(),
            Expr::Let { value, body, .. } => vec![value, body],
        }
    }

    /// The lambdas directly attached to this node (the `app` and `acc` of a
    /// reduce), if any.
    pub fn lambdas(&self) -> Vec<&Lambda> {
        match self {
            Expr::SetReduce { app, acc, .. } | Expr::ListReduce { app, acc, .. } => {
                vec![app, acc]
            }
            _ => vec![],
        }
    }

    /// Calls `f` on this expression and every sub-expression, including
    /// lambda bodies, in pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
        for l in self.lambdas() {
            l.body.walk(f);
        }
    }

    /// Total number of AST nodes (including lambda bodies).
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Names of all functions called anywhere in the expression.
    pub fn called_functions(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Call(name, _) = e {
                out.push(name.clone());
            }
        });
        out.sort();
        out.dedup();
        out
    }

    /// Free variables of the expression (variables not bound by an enclosing
    /// lambda or `let` within the expression itself).
    pub fn free_variables(&self) -> Vec<String> {
        fn go(e: &Expr, bound: &mut Vec<String>, out: &mut Vec<String>) {
            match e {
                Expr::Var(v) => {
                    if !bound.iter().any(|b| b == v) && !out.iter().any(|o| o == v) {
                        out.push(v.clone());
                    }
                }
                Expr::Let { name, value, body } => {
                    go(value, bound, out);
                    bound.push(name.clone());
                    go(body, bound, out);
                    bound.pop();
                }
                Expr::SetReduce {
                    set,
                    app,
                    acc,
                    base,
                    extra,
                }
                | Expr::ListReduce {
                    list: set,
                    app,
                    acc,
                    base,
                    extra,
                } => {
                    go(set, bound, out);
                    go(base, bound, out);
                    go(extra, bound, out);
                    for lam in [app, acc] {
                        bound.push(lam.x.clone());
                        bound.push(lam.y.clone());
                        go(&lam.body, bound, out);
                        bound.pop();
                        bound.pop();
                    }
                }
                _ => {
                    for c in e.children() {
                        go(c, bound, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// The paper's `depth` measure (Lemma 3.9 / Proposition 6.1): base
    /// functions have depth 0; a `set-reduce` has depth
    /// `1 + max(depth of set, app, acc, base, extra)`; all other composite
    /// forms take the maximum over their parts.
    pub fn reduce_depth(&self) -> usize {
        let child_max = self
            .children()
            .iter()
            .map(|c| c.reduce_depth())
            .chain(self.lambdas().iter().map(|l| l.body.reduce_depth()))
            .max()
            .unwrap_or(0);
        match self {
            Expr::SetReduce { .. } | Expr::ListReduce { .. } => 1 + child_max,
            _ => child_max,
        }
    }

    /// True if the expression contains a `set-reduce` or `list-reduce`.
    pub fn contains_reduce(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::SetReduce { .. } | Expr::ListReduce { .. }) {
                found = true;
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn operator_names() {
        assert_eq!(Expr::Bool(true).operator_name(), "bool");
        assert_eq!(Expr::EmptySet.operator_name(), "emptyset");
        assert_eq!(var("x").operator_name(), "var");
        assert_eq!(eq(var("x"), var("y")).operator_name(), "eq");
    }

    #[test]
    fn children_and_lambdas() {
        let e = set_reduce(
            var("S"),
            Lambda::identity(),
            Lambda::second(),
            EmptySetExpr(),
            var("R"),
        );
        assert_eq!(e.children().len(), 3);
        assert_eq!(e.lambdas().len(), 2);
        assert_eq!(e.node_count(), 1 + 3 + 2); // root + S, {}, R + two lambda bodies
    }

    #[test]
    fn free_variables_respect_binders() {
        let e = set_reduce(
            var("S"),
            Lambda::new("x", "y", eq(var("x"), var("y"))),
            Lambda::new("t", "acc", insert(var("t"), var("acc"))),
            EmptySetExpr(),
            var("extra_in"),
        );
        let fv = e.free_variables();
        assert!(fv.contains(&"S".to_string()));
        assert!(fv.contains(&"extra_in".to_string()));
        assert!(!fv.contains(&"x".to_string()));
        assert!(!fv.contains(&"t".to_string()));
        assert!(!fv.contains(&"acc".to_string()));
    }

    #[test]
    fn let_binds_its_name() {
        let e = let_in("a", var("input"), tuple([var("a"), var("b")]));
        let fv = e.free_variables();
        assert_eq!(fv, vec!["input".to_string(), "b".to_string()]);
    }

    #[test]
    fn reduce_depth_matches_lemma_3_9() {
        // Base functions have depth 0.
        assert_eq!(var("x").reduce_depth(), 0);
        assert_eq!(insert(var("x"), var("S")).reduce_depth(), 0);
        // One reduce: depth 1.
        let inner = set_reduce(
            var("S"),
            Lambda::identity(),
            Lambda::second(),
            EmptySetExpr(),
            EmptySetExpr(),
        );
        assert_eq!(inner.reduce_depth(), 1);
        // A reduce whose acc body contains another reduce: depth 2.
        let outer = set_reduce(
            var("S"),
            Lambda::identity(),
            Lambda::new("x", "y", inner.clone()),
            EmptySetExpr(),
            EmptySetExpr(),
        );
        assert_eq!(outer.reduce_depth(), 2);
        // Depth of an `if` is the max of its parts.
        assert_eq!(if_(Expr::Bool(true), inner, var("x")).reduce_depth(), 1);
    }

    #[test]
    fn called_functions_collects_and_dedups() {
        let e = call(
            "union",
            [call("project", [var("R")]), call("union", [var("S")])],
        );
        assert_eq!(
            e.called_functions(),
            vec!["project".to_string(), "union".to_string()]
        );
    }

    #[test]
    fn contains_reduce() {
        assert!(!var("x").contains_reduce());
        let e = set_reduce(
            var("S"),
            Lambda::identity(),
            Lambda::second(),
            EmptySetExpr(),
            EmptySetExpr(),
        );
        assert!(e.contains_reduce());
        assert!(if_(Expr::Bool(true), e, var("x")).contains_reduce());
    }

    #[allow(non_snake_case)]
    fn EmptySetExpr() -> Expr {
        Expr::EmptySet
    }
}
