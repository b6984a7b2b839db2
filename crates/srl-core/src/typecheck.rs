//! Static checking: types (the typing rules of Section 2) and dialect
//! restrictions (the syntactic conditions of Sections 3–5).
//!
//! The paper's grammar is typed; rule 9 in particular fixes the types of the
//! `app` and `acc` lambdas of a `set-reduce`:
//!
//! ```text
//! set-reduce(s, app, acc, base, extra) : T'
//!   where s : set(T), base : T', extra : extype,
//!         app : (T, extype) → A,  acc : (A, T') → T'
//! ```
//!
//! `emptyset : set(alpha)` is polymorphic; a small unification engine
//! resolves the `alpha`s. After inference, the checker enforces the active
//! [`Dialect`]: operator availability, the set-height bound (Definition 2.2 /
//! Theorem 3.10), and — for BASRL — that every accumulator returns a value of
//! set-height 0 (Section 4).

use std::collections::BTreeMap;

use crate::ast::{Expr, Lambda};
use crate::dialect::Dialect;
use crate::error::CheckError;
use crate::program::Program;
use crate::types::Type;
use crate::value::Value;

/// The signature of a checked definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunSig {
    /// Parameter types, in order.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
}

/// The result of checking a whole program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckedProgram {
    /// Signature of every definition, keyed by name.
    pub signatures: BTreeMap<String, FunSig>,
}

/// Type checker state (one per `check_program` / `check_expr` call).
pub struct TypeChecker<'p> {
    program: &'p Program,
    subst: Vec<Option<Type>>,
    signatures: BTreeMap<String, FunSig>,
}

impl<'p> TypeChecker<'p> {
    /// Creates a checker for `program`.
    pub fn new(program: &'p Program) -> Self {
        TypeChecker {
            program,
            subst: Vec::new(),
            signatures: BTreeMap::new(),
        }
    }

    /// Checks every definition of the program, in order. All parameters must
    /// carry declared types. Returns the inferred signatures.
    pub fn check_program(mut self) -> Result<CheckedProgram, CheckError> {
        self.program.validate()?;
        for def in &self.program.defs {
            let mut env: Vec<(String, Type)> = Vec::new();
            let mut param_types = Vec::new();
            for p in &def.params {
                let ty = p.ty.clone().ok_or_else(|| CheckError::TypeMismatch {
                    expected: Type::Var(0),
                    found: Type::Var(0),
                    context: format!(
                        "definition `{}`: parameter `{}` needs a declared type for checking",
                        def.name, p.name
                    ),
                })?;
                self.check_type_allowed(&ty, &format!("parameter `{}` of `{}`", p.name, def.name))?;
                env.push((p.name.clone(), ty.clone()));
                param_types.push(ty);
            }
            let ret = self.infer(&def.body, &mut env)?;
            let ret = self.resolve(&ret);
            self.check_type_allowed(&ret, &format!("return type of `{}`", def.name))?;
            self.signatures.insert(
                def.name.clone(),
                FunSig {
                    params: param_types,
                    ret,
                },
            );
        }
        Ok(CheckedProgram {
            signatures: self.signatures,
        })
    }

    /// Checks a stand-alone expression whose free variables have the given
    /// types (the query's input relations), returning its resolved type.
    /// Definitions of the program must already be typed if they are called.
    pub fn check_expr(
        mut self,
        expr: &Expr,
        inputs: &[(String, Type)],
    ) -> Result<Type, CheckError> {
        // Make the signatures of typed definitions available for calls.
        let defs = self.program.defs.clone();
        for def in &defs {
            if def.params.iter().all(|p| p.ty.is_some()) {
                let mut env: Vec<(String, Type)> = def
                    .params
                    .iter()
                    .map(|p| (p.name.clone(), p.ty.clone().expect("checked above")))
                    .collect();
                let param_types: Vec<Type> = env.iter().map(|(_, t)| t.clone()).collect();
                let ret = self.infer(&def.body, &mut env)?;
                let ret = self.resolve(&ret);
                self.signatures.insert(
                    def.name.clone(),
                    FunSig {
                        params: param_types,
                        ret,
                    },
                );
            }
        }
        let mut env: Vec<(String, Type)> = inputs.to_vec();
        for (name, ty) in inputs {
            self.check_type_allowed(ty, &format!("input `{name}`"))?;
        }
        let t = self.infer(expr, &mut env)?;
        let t = self.resolve(&t);
        self.check_type_allowed(&t, "result")?;
        Ok(t)
    }

    fn fresh(&mut self) -> Type {
        let id = self.subst.len() as u32;
        self.subst.push(None);
        Type::Var(id)
    }

    fn resolve(&self, t: &Type) -> Type {
        match t {
            Type::Var(i) => match self.subst.get(*i as usize).and_then(|s| s.clone()) {
                Some(bound) => self.resolve(&bound),
                None => Type::Var(*i),
            },
            Type::Tuple(ts) => Type::Tuple(ts.iter().map(|t| self.resolve(t)).collect()),
            Type::Set(t) => Type::set_of(self.resolve(t)),
            Type::List(t) => Type::list_of(self.resolve(t)),
            other => other.clone(),
        }
    }

    fn occurs(&self, var: u32, t: &Type) -> bool {
        match self.resolve(t) {
            Type::Var(i) => i == var,
            Type::Tuple(ts) => ts.iter().any(|t| self.occurs(var, t)),
            Type::Set(t) | Type::List(t) => self.occurs(var, &t),
            _ => false,
        }
    }

    fn unify(&mut self, a: &Type, b: &Type, context: &str) -> Result<(), CheckError> {
        let ra = self.resolve(a);
        let rb = self.resolve(b);
        match (&ra, &rb) {
            (Type::Var(i), Type::Var(j)) if i == j => Ok(()),
            (Type::Var(i), other) | (other, Type::Var(i)) => {
                if self.occurs(*i, other) {
                    return Err(CheckError::InfiniteType);
                }
                self.subst[*i as usize] = Some(other.clone());
                Ok(())
            }
            (Type::Bool, Type::Bool) | (Type::Atom, Type::Atom) | (Type::Nat, Type::Nat) => Ok(()),
            (Type::Tuple(xs), Type::Tuple(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.unify(x, y, context)?;
                }
                Ok(())
            }
            (Type::Set(x), Type::Set(y)) | (Type::List(x), Type::List(y)) => {
                self.unify(x, y, context)
            }
            _ => Err(CheckError::TypeMismatch {
                expected: ra,
                found: rb,
                context: context.to_string(),
            }),
        }
    }

    fn dialect(&self) -> &Dialect {
        &self.program.dialect
    }

    fn check_operator_allowed(&self, expr: &Expr) -> Result<(), CheckError> {
        let d = self.dialect();
        let violation = |op: &str| CheckError::DialectViolation {
            operator: op.to_string(),
            dialect: d.name.to_string(),
        };
        match expr {
            Expr::New(_) if !d.allow_new => Err(violation("new")),
            Expr::NatConst(_) | Expr::Succ(_) if !d.allow_nat => Err(violation("nat")),
            Expr::NatAdd(..) if !d.allow_nat_add => Err(violation("nat addition")),
            Expr::NatMul(..) if !d.allow_nat_mul => Err(violation("nat multiplication")),
            Expr::EmptyList
            | Expr::Cons(..)
            | Expr::Head(_)
            | Expr::Tail(_)
            | Expr::ListReduce { .. }
                if !d.allow_lists =>
            {
                Err(violation("lists"))
            }
            _ => Ok(()),
        }
    }

    fn check_type_allowed(&self, t: &Type, context: &str) -> Result<(), CheckError> {
        if let Some(max) = self.dialect().max_set_height {
            if t.set_height() > max {
                return Err(CheckError::TypeMismatch {
                    expected: Type::set_of(Type::Var(0)),
                    found: t.clone(),
                    context: format!(
                        "{context}: set-height {} exceeds the dialect bound of {max}",
                        t.set_height()
                    ),
                });
            }
        }
        Ok(())
    }

    fn infer_lambda(
        &mut self,
        lambda: &Lambda,
        x_ty: Type,
        y_ty: Type,
        env: &mut Vec<(String, Type)>,
    ) -> Result<Type, CheckError> {
        env.push((lambda.x.clone(), x_ty));
        env.push((lambda.y.clone(), y_ty));
        let result = self.infer(&lambda.body, env);
        env.pop();
        env.pop();
        result
    }

    fn infer(&mut self, expr: &Expr, env: &mut Vec<(String, Type)>) -> Result<Type, CheckError> {
        self.check_operator_allowed(expr)?;
        match expr {
            Expr::Bool(_) => Ok(Type::Bool),
            Expr::Const(v) => Ok(self.type_of_value(v)),
            Expr::Var(name) => env
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, t)| t.clone())
                .ok_or_else(|| CheckError::UnboundVariable(name.clone())),
            Expr::If(c, t, e) => {
                let ct = self.infer(c, env)?;
                self.unify(&ct, &Type::Bool, "if condition")?;
                let tt = self.infer(t, env)?;
                let et = self.infer(e, env)?;
                self.unify(&tt, &et, "if branches")?;
                Ok(tt)
            }
            Expr::Tuple(items) => {
                let mut ts = Vec::with_capacity(items.len());
                for item in items {
                    ts.push(self.infer(item, env)?);
                }
                Ok(Type::Tuple(ts))
            }
            Expr::Sel(index, e) => {
                let t = self.infer(e, env)?;
                match self.resolve(&t) {
                    Type::Tuple(ts) => {
                        if *index == 0 || *index > ts.len() {
                            Err(CheckError::BadSelector {
                                index: *index,
                                on: Type::Tuple(ts),
                            })
                        } else {
                            Ok(ts[*index - 1].clone())
                        }
                    }
                    other => Err(CheckError::BadSelector {
                        index: *index,
                        on: other,
                    }),
                }
            }
            Expr::Eq(a, b) => {
                let ta = self.infer(a, env)?;
                let tb = self.infer(b, env)?;
                self.unify(&ta, &tb, "equality operands")?;
                let resolved = self.resolve(&ta);
                if resolved.is_ground() && !resolved.has_primitive_equality() {
                    return Err(CheckError::EqualityOnNonEqType(resolved));
                }
                Ok(Type::Bool)
            }
            Expr::Leq(a, b) => {
                let ta = self.infer(a, env)?;
                let tb = self.infer(b, env)?;
                self.unify(&ta, &tb, "≤ operands")?;
                let resolved = self.resolve(&ta);
                if resolved.is_ground() && !resolved.has_primitive_order() {
                    return Err(CheckError::OrderOnNonOrdType(resolved));
                }
                Ok(Type::Bool)
            }
            Expr::EmptySet => {
                let elem = self.fresh();
                Ok(Type::set_of(elem))
            }
            Expr::Insert(e, s) => {
                let te = self.infer(e, env)?;
                let ts = self.infer(s, env)?;
                self.unify(&ts, &Type::set_of(te.clone()), "insert")?;
                let resolved = self.resolve(&ts);
                self.check_type_allowed(&resolved, "insert result")?;
                Ok(resolved)
            }
            Expr::Choose(s) => {
                let ts = self.infer(s, env)?;
                let elem = self.fresh();
                self.unify(&ts, &Type::set_of(elem.clone()), "choose")?;
                Ok(self.resolve(&elem))
            }
            Expr::Rest(s) => {
                let ts = self.infer(s, env)?;
                let elem = self.fresh();
                self.unify(&ts, &Type::set_of(elem), "rest")?;
                Ok(self.resolve(&ts))
            }
            Expr::SetReduce {
                set,
                app,
                acc,
                base,
                extra,
            } => {
                let set_ty = self.infer(set, env)?;
                let elem_ty = self.fresh();
                self.unify(&set_ty, &Type::set_of(elem_ty.clone()), "set-reduce set")?;
                let base_ty = self.infer(base, env)?;
                let extra_ty = self.infer(extra, env)?;
                let app_ty = self.infer_lambda(app, elem_ty, extra_ty, env)?;
                let acc_ty = self.infer_lambda(acc, app_ty, base_ty.clone(), env)?;
                self.unify(&acc_ty, &base_ty, "set-reduce accumulator")?;
                let result = self.resolve(&base_ty);
                self.check_type_allowed(&result, "set-reduce result")?;
                if self.dialect().bounded_accumulator
                    && result.is_ground()
                    && result.set_height() > 0
                {
                    return Err(CheckError::TypeMismatch {
                        expected: Type::tuple_of([Type::Atom]),
                        found: result,
                        context: "BASRL requires accumulators of set-height 0 (bounded tuples)"
                            .to_string(),
                    });
                }
                Ok(result)
            }
            Expr::ListReduce {
                list,
                app,
                acc,
                base,
                extra,
            } => {
                let list_ty = self.infer(list, env)?;
                let elem_ty = self.fresh();
                self.unify(
                    &list_ty,
                    &Type::list_of(elem_ty.clone()),
                    "list-reduce list",
                )?;
                let base_ty = self.infer(base, env)?;
                let extra_ty = self.infer(extra, env)?;
                let app_ty = self.infer_lambda(app, elem_ty, extra_ty, env)?;
                let acc_ty = self.infer_lambda(acc, app_ty, base_ty.clone(), env)?;
                self.unify(&acc_ty, &base_ty, "list-reduce accumulator")?;
                Ok(self.resolve(&base_ty))
            }
            Expr::Call(name, args) => {
                let sig = self
                    .signatures
                    .get(name)
                    .cloned()
                    .ok_or_else(|| CheckError::UnknownFunction(name.clone()))?;
                if sig.params.len() != args.len() {
                    return Err(CheckError::ArityMismatch {
                        name: name.clone(),
                        expected: sig.params.len(),
                        found: args.len(),
                    });
                }
                for (i, (arg, pty)) in args.iter().zip(&sig.params).enumerate() {
                    let at = self.infer(arg, env)?;
                    self.unify(&at, pty, &format!("argument {} of `{name}`", i + 1))?;
                }
                Ok(sig.ret)
            }
            Expr::Let { name, value, body } => {
                let vt = self.infer(value, env)?;
                env.push((name.clone(), vt));
                let bt = self.infer(body, env);
                env.pop();
                bt
            }
            Expr::New(s) => {
                let ts = self.infer(s, env)?;
                let elem = self.fresh();
                self.unify(&ts, &Type::set_of(elem), "new")?;
                Ok(Type::Atom)
            }
            Expr::NatConst(_) => Ok(Type::Nat),
            Expr::Succ(e) => {
                let t = self.infer(e, env)?;
                self.unify(&t, &Type::Nat, "succ")?;
                Ok(Type::Nat)
            }
            Expr::NatAdd(a, b) | Expr::NatMul(a, b) => {
                let ta = self.infer(a, env)?;
                let tb = self.infer(b, env)?;
                self.unify(&ta, &Type::Nat, "arithmetic")?;
                self.unify(&tb, &Type::Nat, "arithmetic")?;
                Ok(Type::Nat)
            }
            Expr::EmptyList => {
                let elem = self.fresh();
                Ok(Type::list_of(elem))
            }
            Expr::Cons(e, l) => {
                let te = self.infer(e, env)?;
                let tl = self.infer(l, env)?;
                self.unify(&tl, &Type::list_of(te), "cons")?;
                Ok(self.resolve(&tl))
            }
            Expr::Head(l) => {
                let tl = self.infer(l, env)?;
                let elem = self.fresh();
                self.unify(&tl, &Type::list_of(elem.clone()), "head")?;
                Ok(self.resolve(&elem))
            }
            Expr::Tail(l) => {
                let tl = self.infer(l, env)?;
                let elem = self.fresh();
                self.unify(&tl, &Type::list_of(elem), "tail")?;
                Ok(self.resolve(&tl))
            }
        }
    }

    fn type_of_value(&mut self, v: &Value) -> Type {
        match v {
            Value::Bool(_) => Type::Bool,
            Value::Atom(_) => Type::Atom,
            Value::Nat(_) => Type::Nat,
            Value::Tuple(items) => {
                Type::Tuple(items.iter().map(|i| self.type_of_value(i)).collect())
            }
            Value::Set(items) => match items.iter().next() {
                Some(first) => Type::set_of(self.type_of_value(&first)),
                None => Type::set_of(self.fresh()),
            },
            Value::List(items) => match items.first() {
                Some(first) => Type::list_of(self.type_of_value(first)),
                None => Type::list_of(self.fresh()),
            },
        }
    }
}

/// Convenience: type-checks a whole program.
pub fn check_program(program: &Program) -> Result<CheckedProgram, CheckError> {
    TypeChecker::new(program).check_program()
}

/// Convenience: type-checks a stand-alone expression against typed inputs.
pub fn check_expr(
    program: &Program,
    expr: &Expr,
    inputs: &[(String, Type)],
) -> Result<Type, CheckError> {
    TypeChecker::new(program).check_expr(expr, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    fn inputs(items: &[(&str, Type)]) -> Vec<(String, Type)> {
        items
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect()
    }

    #[test]
    fn literals_and_if() {
        let p = Program::srl();
        assert_eq!(check_expr(&p, &bool_(true), &[]), Ok(Type::Bool));
        assert_eq!(
            check_expr(&p, &if_(bool_(true), atom(1), atom(2)), &[]),
            Ok(Type::Atom)
        );
        assert!(matches!(
            check_expr(&p, &if_(atom(1), atom(1), atom(2)), &[]),
            Err(CheckError::TypeMismatch { .. })
        ));
        assert!(matches!(
            check_expr(&p, &if_(bool_(true), atom(1), bool_(false)), &[]),
            Err(CheckError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn tuples_and_selectors() {
        let p = Program::srl();
        let t = tuple([atom(1), bool_(true)]);
        assert_eq!(
            check_expr(&p, &t, &[]),
            Ok(Type::tuple_of([Type::Atom, Type::Bool]))
        );
        assert_eq!(check_expr(&p, &sel(t.clone(), 2), &[]), Ok(Type::Bool));
        assert!(matches!(
            check_expr(&p, &sel(t.clone(), 3), &[]),
            Err(CheckError::BadSelector { index: 3, .. })
        ));
        assert!(matches!(
            check_expr(&p, &sel(atom(1), 1), &[]),
            Err(CheckError::BadSelector { .. })
        ));
    }

    #[test]
    fn equality_allows_eq_types_only() {
        let p = Program::srl();
        assert_eq!(check_expr(&p, &eq(atom(1), atom(2)), &[]), Ok(Type::Bool));
        assert!(matches!(
            check_expr(&p, &eq(atom(1), bool_(true)), &[]),
            Err(CheckError::TypeMismatch { .. })
        ));
        // Equality on sets must be rejected: the paper requires it to be
        // expressed via set-reduce.
        let e = eq(var("A"), var("B"));
        let ins = inputs(&[("A", Type::relation(1)), ("B", Type::relation(1))]);
        assert!(matches!(
            check_expr(&p, &e, &ins),
            Err(CheckError::EqualityOnNonEqType(_))
        ));
    }

    #[test]
    fn insert_and_emptyset_unify() {
        let p = Program::srl();
        let e = insert(atom(1), insert(atom(2), empty_set()));
        assert_eq!(check_expr(&p, &e, &[]), Ok(Type::set_of(Type::Atom)));
        // Inserting mixed types fails.
        let bad = insert(bool_(true), insert(atom(2), empty_set()));
        assert!(check_expr(&p, &bad, &[]).is_err());
    }

    #[test]
    fn choose_and_rest() {
        let p = Program::srl();
        let ins = inputs(&[("S", Type::set_of(Type::Atom))]);
        assert_eq!(check_expr(&p, &choose(var("S")), &ins), Ok(Type::Atom));
        assert_eq!(
            check_expr(&p, &rest(var("S")), &ins),
            Ok(Type::set_of(Type::Atom))
        );
    }

    #[test]
    fn set_reduce_typing_rule_9() {
        let p = Program::srl();
        // Rebuild a set: app = identity, acc = insert.
        let e = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            empty_set(),
            empty_set(),
        );
        let ins = inputs(&[("S", Type::set_of(Type::Atom))]);
        assert_eq!(check_expr(&p, &e, &ins), Ok(Type::set_of(Type::Atom)));

        // forall-style reduce returns bool.
        let all_eq = set_reduce(
            var("S"),
            lam("x", "e", eq(var("x"), var("e"))),
            lam("b", "acc", and(var("b"), var("acc"))),
            bool_(true),
            var("target"),
        );
        let ins = inputs(&[("S", Type::set_of(Type::Atom)), ("target", Type::Atom)]);
        assert_eq!(check_expr(&p, &all_eq, &ins), Ok(Type::Bool));
    }

    #[test]
    fn set_reduce_acc_must_match_base() {
        let p = Program::srl();
        // acc returns an atom but base is a boolean: ill-typed.
        let e = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", var("x")),
            bool_(true),
            empty_set(),
        );
        let ins = inputs(&[("S", Type::set_of(Type::Atom))]);
        assert!(check_expr(&p, &e, &ins).is_err());
    }

    #[test]
    fn srl_rejects_set_height_two() {
        let p = Program::srl();
        // Building a set of sets exceeds set-height 1 in the SRL dialect.
        let e = insert(var("S"), empty_set());
        let ins = inputs(&[("S", Type::set_of(Type::Atom))]);
        let err = check_expr(&p, &e, &ins).unwrap_err();
        assert!(matches!(err, CheckError::TypeMismatch { .. }));
        // The same expression is fine in unrestricted SRL.
        let p = Program::new(Dialect::unrestricted());
        assert_eq!(
            check_expr(&p, &e, &ins),
            Ok(Type::set_of(Type::set_of(Type::Atom)))
        );
    }

    #[test]
    fn srl_rejects_set_height_two_inputs() {
        let p = Program::srl();
        let ins = inputs(&[("S", Type::set_of(Type::set_of(Type::Atom)))]);
        assert!(check_expr(&p, &var("S"), &ins).is_err());
    }

    #[test]
    fn basrl_rejects_set_valued_accumulators() {
        let p = Program::new(Dialect::basrl());
        let e = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", insert(var("x"), var("acc"))),
            empty_set(),
            empty_set(),
        );
        let ins = inputs(&[("S", Type::set_of(Type::Atom))]);
        let err = check_expr(&p, &e, &ins).unwrap_err();
        assert!(matches!(err, CheckError::TypeMismatch { .. }));

        // A bounded-tuple accumulator is accepted.
        let ok = set_reduce(
            var("S"),
            Lambda::identity(),
            lam("x", "acc", tuple([var("x"), sel(var("acc"), 1)])),
            tuple([atom(0), atom(0)]),
            empty_set(),
        );
        assert_eq!(
            check_expr(&p, &ok, &ins),
            Ok(Type::tuple_of([Type::Atom, Type::Atom]))
        );
    }

    #[test]
    fn dialect_gates_operators() {
        let p = Program::srl();
        assert!(matches!(
            check_expr(&p, &new_value(empty_set()), &[]),
            Err(CheckError::DialectViolation { .. })
        ));
        assert!(matches!(
            check_expr(&p, &nat(3), &[]),
            Err(CheckError::DialectViolation { .. })
        ));
        assert!(matches!(
            check_expr(&p, &empty_list(), &[]),
            Err(CheckError::DialectViolation { .. })
        ));
        let p = Program::new(Dialect::full());
        assert_eq!(check_expr(&p, &new_value(empty_set()), &[]), Ok(Type::Atom));
        assert_eq!(check_expr(&p, &nat_add(nat(1), nat(2)), &[]), Ok(Type::Nat));
        assert_eq!(check_expr(&p, &succ(nat(1)), &[]), Ok(Type::Nat));
    }

    #[test]
    fn list_operations_typing() {
        let p = Program::new(Dialect::lrl());
        let l = cons(atom(1), cons(atom(2), empty_list()));
        assert_eq!(check_expr(&p, &l, &[]), Ok(Type::list_of(Type::Atom)));
        assert_eq!(check_expr(&p, &head(l.clone()), &[]), Ok(Type::Atom));
        assert_eq!(
            check_expr(&p, &tail(l.clone()), &[]),
            Ok(Type::list_of(Type::Atom))
        );
        let rebuilt = list_reduce(
            l,
            Lambda::identity(),
            lam("x", "acc", cons(var("x"), var("acc"))),
            empty_list(),
            empty_set(),
        );
        assert_eq!(check_expr(&p, &rebuilt, &[]), Ok(Type::list_of(Type::Atom)));
    }

    #[test]
    fn program_checking_with_signatures() {
        let p = Program::srl()
            .define_typed(
                "fst",
                [("t", Type::tuple_of([Type::Atom, Type::Atom]))],
                sel(var("t"), 1),
            )
            .define_typed(
                "swap",
                [("t", Type::tuple_of([Type::Atom, Type::Atom]))],
                tuple([sel(var("t"), 2), call("fst", [var("t")])]),
            );
        let checked = check_program(&p).unwrap();
        assert_eq!(checked.signatures["fst"].ret, Type::Atom);
        assert_eq!(
            checked.signatures["swap"].ret,
            Type::tuple_of([Type::Atom, Type::Atom])
        );
    }

    #[test]
    fn program_checking_requires_declared_param_types() {
        let p = Program::srl().define("id", ["x"], var("x"));
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn call_arity_and_argument_types_checked() {
        let p = Program::srl().define_typed("needs_atom", [("x", Type::Atom)], tuple([var("x")]));
        let err = check_expr(&p, &call("needs_atom", [bool_(true)]), &[]).unwrap_err();
        assert!(matches!(err, CheckError::TypeMismatch { .. }));
        let err = check_expr(&p, &call("needs_atom", [atom(1), atom(2)]), &[]).unwrap_err();
        assert!(matches!(err, CheckError::ArityMismatch { .. }));
        let err = check_expr(&p, &call("missing", []), &[]).unwrap_err();
        assert!(matches!(err, CheckError::UnknownFunction(_)));
    }

    #[test]
    fn let_scoping_types() {
        let p = Program::srl();
        let e = let_in("a", atom(1), eq(var("a"), atom(2)));
        assert_eq!(check_expr(&p, &e, &[]), Ok(Type::Bool));
        let e = let_in("a", atom(1), var("missing"));
        assert!(matches!(
            check_expr(&p, &e, &[]),
            Err(CheckError::UnboundVariable(_))
        ));
    }

    #[test]
    fn relation_inputs_typecheck_member_style_query() {
        // member([x, y], EDGES)-style lookup: does the pair set contain a pair?
        let p = Program::srl();
        let e = set_reduce(
            var("EDGES"),
            lam("t", "pair", eq(var("t"), var("pair"))),
            lam("found", "acc", or(var("found"), var("acc"))),
            bool_(false),
            tuple([var("a"), var("b")]),
        );
        let ins = inputs(&[
            ("EDGES", Type::relation(2)),
            ("a", Type::Atom),
            ("b", Type::Atom),
        ]);
        assert_eq!(check_expr(&p, &e, &ins), Ok(Type::Bool));
    }
}
