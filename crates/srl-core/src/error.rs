//! Error types shared across the SRL core.

use std::fmt;

use crate::types::Type;

/// Errors raised while statically checking a program (type checking, dialect
/// checking, or program well-formedness).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A variable was used that is not bound by a lambda, a definition
    /// parameter, or the input environment.
    UnboundVariable(String),
    /// A function was called that is not defined (or is defined later than
    /// its use, which would permit recursion the language does not have).
    UnknownFunction(String),
    /// A function was called with the wrong number of arguments.
    ArityMismatch {
        /// The function name.
        name: String,
        /// Number of declared parameters.
        expected: usize,
        /// Number of arguments supplied.
        found: usize,
    },
    /// Two types failed to unify.
    TypeMismatch {
        /// What was expected by the context.
        expected: Type,
        /// What was found.
        found: Type,
        /// Human-readable location description.
        context: String,
    },
    /// A tuple selector `sel_i` was applied out of range or to a non-tuple.
    BadSelector {
        /// 1-based selector index.
        index: usize,
        /// The type it was applied to.
        on: Type,
    },
    /// Equality was used on a type whose equality is not axiomatised
    /// (sets and lists — the paper requires it to be expressed in SRL).
    EqualityOnNonEqType(Type),
    /// `≤` was used on a type with no primitive order.
    OrderOnNonOrdType(Type),
    /// An operator was used that the active dialect forbids.
    DialectViolation {
        /// The operator in question.
        operator: String,
        /// The dialect's name.
        dialect: String,
    },
    /// An occurs-check failure during unification (infinite type).
    InfiniteType,
    /// A definition name was declared twice.
    DuplicateDefinition(String),
    /// A recursive (or forward) call between definitions. SRL functions are
    /// closed under composition, not general recursion (Definition 2.1).
    RecursiveDefinition(String),
    /// A lambda body referred to a variable other than its own parameters.
    /// Rule 9 of the grammar: "in which only x and y can appear free".
    NonLocalLambdaReference {
        /// The offending variable.
        variable: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            CheckError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            CheckError::ArityMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "function `{name}` expects {expected} argument(s) but was given {found}"
            ),
            CheckError::TypeMismatch {
                expected,
                found,
                context,
            } => write!(f, "type mismatch in {context}: expected {expected}, found {found}"),
            CheckError::BadSelector { index, on } => {
                write!(f, "selector .{index} cannot be applied to a value of type {on}")
            }
            CheckError::EqualityOnNonEqType(t) => write!(
                f,
                "equality is not axiomatised on type {t}; express it with set-reduce (see srl-stdlib::setops::set_eq)"
            ),
            CheckError::OrderOnNonOrdType(t) => {
                write!(f, "`≤` is not available on type {t}")
            }
            CheckError::DialectViolation { operator, dialect } => {
                write!(f, "operator `{operator}` is not allowed in dialect {dialect}")
            }
            CheckError::InfiniteType => write!(f, "occurs check failed (infinite type)"),
            CheckError::DuplicateDefinition(n) => write!(f, "duplicate definition `{n}`"),
            CheckError::RecursiveDefinition(n) => write!(
                f,
                "definition `{n}` calls itself or a later definition; SRL has no general recursion"
            ),
            CheckError::NonLocalLambdaReference { variable } => write!(
                f,
                "lambda body refers to `{variable}`, which is not one of its parameters; pass it through the `extra` argument instead"
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// Errors raised while evaluating an expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding at run time (should be prevented by the
    /// checker; kept for robustness of the dynamically-typed entry points).
    UnboundVariable(String),
    /// A function had no definition at run time.
    UnknownFunction(String),
    /// A runtime value did not have the shape an operator required.
    Shape {
        /// The operator being evaluated.
        operator: &'static str,
        /// Description of what was expected.
        expected: &'static str,
        /// Display form of the offending value.
        found: String,
    },
    /// A tuple selector was out of range.
    SelectorOutOfRange {
        /// 1-based selector index.
        index: usize,
        /// Tuple arity.
        arity: usize,
    },
    /// The step budget was exhausted.
    StepLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// A constructed value exceeded the size budget.
    SizeLimitExceeded {
        /// The configured limit (in value leaves).
        limit: usize,
    },
    /// Expression nesting exceeded the recursion-depth budget.
    DepthLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A natural number exceeded the configured bit-length budget.
    NatWidthExceeded {
        /// The configured limit in bits.
        limit_bits: usize,
    },
    /// `choose`/`rest` was applied to an empty set.
    ChooseFromEmptySet,
    /// An operator forbidden by the dialect was reached at run time (only
    /// possible when evaluation is run without a prior check).
    DialectViolation {
        /// The operator in question.
        operator: String,
        /// The dialect's name.
        dialect: String,
    },
    /// The wall-clock deadline configured in
    /// [`EvalLimits::deadline`](crate::limits::EvalLimits::deadline) expired.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
    /// The engine itself misbehaved — e.g. a parallel shard worker panicked.
    /// The panic is caught at the shard boundary and converted into this
    /// structured error so the process and the evaluator both survive.
    Internal {
        /// Human-readable description of what went wrong.
        detail: String,
    },
}

impl EvalError {
    /// A short, stable, machine-readable name for the error kind, used by the
    /// CLI's `--json` error objects. These strings are part of the CLI
    /// contract; do not rename.
    pub fn kind(&self) -> &'static str {
        match self {
            EvalError::UnboundVariable(_) => "unbound_variable",
            EvalError::UnknownFunction(_) => "unknown_function",
            EvalError::Shape { .. } => "shape",
            EvalError::SelectorOutOfRange { .. } => "selector_out_of_range",
            EvalError::StepLimitExceeded { .. } => "step_limit_exceeded",
            EvalError::SizeLimitExceeded { .. } => "size_limit_exceeded",
            EvalError::DepthLimitExceeded { .. } => "depth_limit_exceeded",
            EvalError::NatWidthExceeded { .. } => "nat_width_exceeded",
            EvalError::ChooseFromEmptySet => "choose_from_empty_set",
            EvalError::DialectViolation { .. } => "dialect_violation",
            EvalError::DeadlineExceeded { .. } => "deadline_exceeded",
            EvalError::Internal { .. } => "internal",
        }
    }

    /// Whether this error is one of the deterministic budget limits
    /// ([`EvalLimits`](crate::limits::EvalLimits) excluding the wall-clock
    /// deadline).
    pub fn is_limit(&self) -> bool {
        matches!(
            self,
            EvalError::StepLimitExceeded { .. }
                | EvalError::SizeLimitExceeded { .. }
                | EvalError::DepthLimitExceeded { .. }
                | EvalError::NatWidthExceeded { .. }
        )
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable `{v}` at run time"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function `{n}` at run time"),
            EvalError::Shape {
                operator,
                expected,
                found,
            } => write!(f, "{operator}: expected {expected}, found {found}"),
            EvalError::SelectorOutOfRange { index, arity } => {
                write!(
                    f,
                    "selector .{index} out of range for a tuple of arity {arity}"
                )
            }
            EvalError::StepLimitExceeded { limit } => {
                write!(f, "evaluation exceeded the step budget of {limit} steps")
            }
            EvalError::SizeLimitExceeded { limit } => {
                write!(
                    f,
                    "a constructed value exceeded the size budget of {limit} leaves"
                )
            }
            EvalError::DepthLimitExceeded { limit } => {
                write!(f, "expression nesting exceeded the depth budget of {limit}")
            }
            EvalError::NatWidthExceeded { limit_bits } => {
                write!(
                    f,
                    "a natural number exceeded the width budget of {limit_bits} bits"
                )
            }
            EvalError::ChooseFromEmptySet => write!(f, "choose/rest applied to the empty set"),
            EvalError::DialectViolation { operator, dialect } => {
                write!(
                    f,
                    "operator `{operator}` is not allowed in dialect {dialect}"
                )
            }
            EvalError::DeadlineExceeded { limit_ms } => {
                write!(
                    f,
                    "evaluation exceeded the wall-clock deadline of {limit_ms} ms"
                )
            }
            EvalError::Internal { detail } => {
                write!(f, "internal evaluator error: {detail}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Top-level error type for the crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SrlError {
    /// A static checking error.
    Check(CheckError),
    /// A runtime evaluation error.
    Eval(EvalError),
}

impl fmt::Display for SrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SrlError::Check(e) => write!(f, "check error: {e}"),
            SrlError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for SrlError {}

impl From<CheckError> for SrlError {
    fn from(e: CheckError) -> Self {
        SrlError::Check(e)
    }
}

impl From<EvalError> for SrlError {
    fn from(e: EvalError) -> Self {
        SrlError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_check_errors() {
        let e = CheckError::UnboundVariable("x".into());
        assert!(e.to_string().contains("unbound variable"));
        let e = CheckError::TypeMismatch {
            expected: Type::Bool,
            found: Type::Atom,
            context: "if condition".into(),
        };
        assert!(e.to_string().contains("if condition"));
        assert!(e.to_string().contains("bool"));
        let e = CheckError::EqualityOnNonEqType(Type::set_of(Type::Atom));
        assert!(e.to_string().contains("set-reduce"));
    }

    #[test]
    fn display_eval_errors() {
        let e = EvalError::StepLimitExceeded { limit: 100 };
        assert!(e.to_string().contains("100"));
        let e = EvalError::SelectorOutOfRange { index: 3, arity: 2 };
        assert!(e.to_string().contains(".3"));
        let e = EvalError::DeadlineExceeded { limit_ms: 250 };
        assert!(e.to_string().contains("250 ms"));
        let e = EvalError::Internal {
            detail: "shard 1 panicked".into(),
        };
        assert!(e.to_string().contains("shard 1 panicked"));
    }

    #[test]
    fn kinds_are_stable_and_limits_are_classified() {
        assert_eq!(
            EvalError::DeadlineExceeded { limit_ms: 1 }.kind(),
            "deadline_exceeded"
        );
        assert_eq!(
            EvalError::Internal { detail: "x".into() }.kind(),
            "internal"
        );
        assert_eq!(
            EvalError::StepLimitExceeded { limit: 1 }.kind(),
            "step_limit_exceeded"
        );
        assert!(EvalError::StepLimitExceeded { limit: 1 }.is_limit());
        assert!(EvalError::SizeLimitExceeded { limit: 1 }.is_limit());
        assert!(!EvalError::DeadlineExceeded { limit_ms: 1 }.is_limit());
        assert!(!EvalError::ChooseFromEmptySet.is_limit());
    }

    #[test]
    fn conversions_into_srl_error() {
        let c: SrlError = CheckError::InfiniteType.into();
        assert!(matches!(c, SrlError::Check(_)));
        let e: SrlError = EvalError::ChooseFromEmptySet.into();
        assert!(matches!(e, SrlError::Eval(_)));
        assert!(c.to_string().contains("check error"));
        assert!(e.to_string().contains("evaluation error"));
    }
}
