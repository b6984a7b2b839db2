//! Programs: ordered collections of named function definitions.
//!
//! Definition 2.1 closes the class of set-reduce functions under
//! *composition* and the set-reduce operation — not under general recursion.
//! A [`Program`] therefore is a list of definitions in which each definition
//! may call only *earlier* definitions; validation rejects self-reference,
//! forward reference, and mutual recursion. Evaluating a program means
//! calling one of its definitions on argument values, or evaluating a main
//! expression whose free variables name the input sets/relations
//! ("the input to any set-reduce expression is a structure or database
//! specified by the name(s) of set(s) or relation(s)").

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ast::Expr;
use crate::dialect::Dialect;
use crate::error::CheckError;
use crate::lower::CompiledProgram;
use crate::types::Type;
use crate::value::Value;

/// A formal parameter of a definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type, if any. Type checking requires declared types; the
    /// evaluator does not.
    pub ty: Option<Type>,
}

impl Param {
    /// An untyped parameter.
    pub fn untyped(name: impl Into<String>) -> Self {
        Param {
            name: name.into(),
            ty: None,
        }
    }

    /// A typed parameter.
    pub fn typed(name: impl Into<String>, ty: Type) -> Self {
        Param {
            name: name.into(),
            ty: Some(ty),
        }
    }
}

/// A named function definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FunDef {
    /// Function name.
    pub name: String,
    /// Formal parameters, in order.
    pub params: Vec<Param>,
    /// Body expression; its free variables must be parameter names.
    pub body: Expr,
}

/// A program: a dialect plus an ordered list of definitions.
///
/// Definitions are held behind [`Arc`] so that programs — which are routinely
/// spliced together with [`Program::extend_with`] and cloned into harnesses —
/// share their ASTs instead of deep-copying them. The evaluator never touches
/// these at run time: [`Program::compile`] lowers them once into a
/// [`CompiledProgram`] (interned names, slot-indexed variables).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// The dialect the program claims to live in.
    pub dialect: Dialect,
    /// Definitions, in dependency order (later may call earlier).
    pub defs: Vec<Arc<FunDef>>,
}

impl Program {
    /// An empty program in the given dialect.
    pub fn new(dialect: Dialect) -> Self {
        Program {
            dialect,
            defs: Vec::new(),
        }
    }

    /// An empty program in the paper's default dialect (SRL).
    pub fn srl() -> Self {
        Self::new(Dialect::srl())
    }

    /// Adds a definition with untyped parameters and returns `self` for
    /// chaining.
    pub fn define<S: Into<String>>(
        mut self,
        name: impl Into<String>,
        params: impl IntoIterator<Item = S>,
        body: Expr,
    ) -> Self {
        self.defs.push(Arc::new(FunDef {
            name: name.into(),
            params: params.into_iter().map(|p| Param::untyped(p)).collect(),
            body,
        }));
        self
    }

    /// Adds a definition with typed parameters and returns `self`.
    pub fn define_typed(
        mut self,
        name: impl Into<String>,
        params: impl IntoIterator<Item = (&'static str, Type)>,
        body: Expr,
    ) -> Self {
        self.defs.push(Arc::new(FunDef {
            name: name.into(),
            params: params
                .into_iter()
                .map(|(n, t)| Param::typed(n, t))
                .collect(),
            body,
        }));
        self
    }

    /// Appends every definition of `other` (used to splice stdlib prologues
    /// in front of paper programs). Sharing, not copying: each appended
    /// definition is an `Arc` clone.
    pub fn extend_with(mut self, other: &Program) -> Self {
        for def in &other.defs {
            if self.lookup(&def.name).is_none() {
                self.defs.push(Arc::clone(def));
            }
        }
        self
    }

    /// Looks up a definition by name (first definition wins).
    pub fn lookup(&self, name: &str) -> Option<&FunDef> {
        self.defs.iter().find(|d| d.name == name).map(|d| &**d)
    }

    /// Lowers the program once into its compiled form: interned definition
    /// and parameter names, slot-indexed variables, definition-indexed calls.
    /// Infallible — dangling names become poison nodes that only error if
    /// evaluated (see [`crate::lower`]). Use with
    /// [`Evaluator::from_compiled`](crate::eval::Evaluator::from_compiled) to
    /// amortise lowering across many evaluations.
    pub fn compile(&self) -> CompiledProgram {
        CompiledProgram::compile(self)
    }

    /// Names of all definitions, in order.
    pub fn def_names(&self) -> Vec<&str> {
        self.defs.iter().map(|d| d.name.as_str()).collect()
    }

    /// Total AST size over all definitions.
    pub fn node_count(&self) -> usize {
        self.defs.iter().map(|d| d.body.node_count()).sum()
    }

    /// Checks structural well-formedness:
    ///
    /// * no duplicate definition names;
    /// * every call inside a definition body resolves to a *strictly earlier*
    ///   definition (so composition is available but recursion is not);
    /// * every free variable of a definition body is one of its parameters.
    pub fn validate(&self) -> Result<(), CheckError> {
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, def) in self.defs.iter().enumerate() {
            if seen.contains_key(def.name.as_str()) {
                return Err(CheckError::DuplicateDefinition(def.name.clone()));
            }
            for called in def.body.called_functions() {
                match seen.get(called.as_str()) {
                    Some(&j) if j < i => {}
                    Some(_) | None => {
                        if called == def.name {
                            return Err(CheckError::RecursiveDefinition(def.name.clone()));
                        }
                        // Forward reference or unknown — both are rejected, and a
                        // forward reference to a later def is reported as recursion
                        // (it is what would make the call graph cyclic in general).
                        if self.lookup(&called).is_some() {
                            return Err(CheckError::RecursiveDefinition(def.name.clone()));
                        }
                        return Err(CheckError::UnknownFunction(called));
                    }
                }
            }
            let params: Vec<&str> = def.params.iter().map(|p| p.name.as_str()).collect();
            for fv in def.body.free_variables() {
                if !params.contains(&fv.as_str()) {
                    return Err(CheckError::UnboundVariable(format!(
                        "{fv} (in definition `{}`)",
                        def.name
                    )));
                }
            }
            seen.insert(def.name.as_str(), i);
        }
        Ok(())
    }

    /// Checks arity of a prospective call.
    pub fn check_call_arity(&self, name: &str, nargs: usize) -> Result<(), CheckError> {
        let def = self
            .lookup(name)
            .ok_or_else(|| CheckError::UnknownFunction(name.to_string()))?;
        if def.params.len() != nargs {
            return Err(CheckError::ArityMismatch {
                name: name.to_string(),
                expected: def.params.len(),
                found: nargs,
            });
        }
        Ok(())
    }
}

/// An input environment: bindings from free variable names (the input
/// relations / sets / constants of a query) to values.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Env {
    bindings: Vec<(String, Value)>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Returns a copy with an extra binding (later bindings shadow earlier
    /// ones).
    pub fn bind(mut self, name: impl Into<String>, value: Value) -> Self {
        self.bindings.push((name.into(), value));
        self
    }

    /// Adds a binding in place.
    pub fn insert(&mut self, name: impl Into<String>, value: Value) {
        self.bindings.push((name.into(), value));
    }

    /// Looks up a name (later bindings shadow earlier ones).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Removes the most recent binding (used by the evaluator's scoping).
    pub fn pop(&mut self) {
        self.bindings.pop();
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True if there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Iterates over all bindings, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.bindings.iter().map(|(n, v)| (n.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn define_and_lookup() {
        let p = Program::srl()
            .define("first", ["t"], sel(var("t"), 1))
            .define("second", ["t"], sel(var("t"), 2));
        assert!(p.lookup("first").is_some());
        assert!(p.lookup("third").is_none());
        assert_eq!(p.def_names(), vec!["first", "second"]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let p = Program::srl()
            .define("f", ["x"], var("x"))
            .define("f", ["y"], var("y"));
        assert_eq!(
            p.validate(),
            Err(CheckError::DuplicateDefinition("f".into()))
        );
    }

    #[test]
    fn recursion_rejected() {
        let p = Program::srl().define("f", ["x"], call("f", [var("x")]));
        assert_eq!(
            p.validate(),
            Err(CheckError::RecursiveDefinition("f".into()))
        );
    }

    #[test]
    fn forward_reference_rejected() {
        let p = Program::srl()
            .define("f", ["x"], call("g", [var("x")]))
            .define("g", ["x"], var("x"));
        assert!(matches!(
            p.validate(),
            Err(CheckError::RecursiveDefinition(_)) | Err(CheckError::UnknownFunction(_))
        ));
    }

    #[test]
    fn unknown_call_rejected() {
        let p = Program::srl().define("f", ["x"], call("nope", [var("x")]));
        assert_eq!(
            p.validate(),
            Err(CheckError::UnknownFunction("nope".into()))
        );
    }

    #[test]
    fn free_variable_outside_params_rejected() {
        let p = Program::srl().define("f", ["x"], var("y"));
        assert!(matches!(p.validate(), Err(CheckError::UnboundVariable(_))));
    }

    #[test]
    fn lambda_parameters_are_not_free() {
        let p = Program::srl().define(
            "elems",
            ["s"],
            set_reduce(
                var("s"),
                lam("x", "e", var("x")),
                lam("v", "acc", insert(var("v"), var("acc"))),
                empty_set(),
                empty_set(),
            ),
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn call_arity_checked() {
        let p = Program::srl().define("pair", ["a", "b"], tuple([var("a"), var("b")]));
        assert!(p.check_call_arity("pair", 2).is_ok());
        assert!(matches!(
            p.check_call_arity("pair", 1),
            Err(CheckError::ArityMismatch { .. })
        ));
        assert!(matches!(
            p.check_call_arity("nope", 0),
            Err(CheckError::UnknownFunction(_))
        ));
    }

    #[test]
    fn extend_with_skips_existing_names() {
        let base = Program::srl().define("f", ["x"], var("x"));
        let other =
            Program::srl()
                .define("f", ["x"], sel(var("x"), 1))
                .define("g", ["x"], var("x"));
        let merged = base.extend_with(&other);
        assert_eq!(merged.def_names(), vec!["f", "g"]);
        // The original `f` is kept, not overwritten.
        assert_eq!(merged.lookup("f").unwrap().body, var("x"));
    }

    #[test]
    fn env_shadowing_and_iteration() {
        let mut env = Env::new()
            .bind("S", Value::empty_set())
            .bind("x", Value::atom(1));
        assert_eq!(env.get("x"), Some(&Value::atom(1)));
        env.insert("x", Value::atom(2));
        assert_eq!(env.get("x"), Some(&Value::atom(2)));
        env.pop();
        assert_eq!(env.get("x"), Some(&Value::atom(1)));
        assert_eq!(env.len(), 2);
        assert!(!env.is_empty());
        assert_eq!(env.iter().count(), 2);
        assert_eq!(env.get("missing"), None);
    }

    #[test]
    fn node_count_sums_defs() {
        let p = Program::srl().define("f", ["x"], var("x")).define(
            "g",
            ["x"],
            tuple([var("x"), var("x")]),
        );
        assert_eq!(p.node_count(), 1 + 3);
    }
}
