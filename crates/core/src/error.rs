//! Error types shared across the crate.
//!
//! The paper distinguishes the *error value* `⊥` (a first-class object
//! used by the optimizer to express partiality, e.g. in the `β^p` rule)
//! from host-level failures. `⊥` is [`crate::value::Value::Bottom`] and
//! propagates strictly through evaluation; the errors here are genuine
//! host failures (unbound names, resource exhaustion, ill-typed
//! programs reaching the evaluator, failing external primitives).

use std::fmt;

use aql_store::error::ErrorClass;
use aql_store::{Interrupt, StoreError};

use crate::stack::TooDeep;
use crate::types::Type;

/// A failure while typechecking an NRCA expression.
#[allow(missing_docs)] // variant fields are described on the variants
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A variable was used without being bound.
    Unbound(String),
    /// Two types failed to unify.
    Mismatch { expected: String, found: String },
    /// The occurs check failed (infinite type).
    Occurs,
    /// Projection index out of range for the product arity.
    BadProjection { index: usize, arity: usize },
    /// Arithmetic/order applied at a non-admissible type.
    NotNumeric(Type),
    /// A non-object type (function / unresolved) where an object type is
    /// required, e.g. as a set element.
    NotObject(Type),
    /// The type could not be fully inferred.
    Ambiguous(String),
    /// A row-major array literal whose static item count does not match
    /// the product of its static dimensions (§3: "undefined if the
    /// number of value expressions doesn't match").
    LiteralShape { expect: u64, got: usize },
    /// Array subscript arity does not match the array dimensionality.
    SubscriptArity { dims: usize, given: usize },
    /// Anything else, with a message.
    Other(String),
    /// The term nests too deep for this thread's stack.
    TooDeep,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Unbound(x) => write!(f, "unbound variable `{x}`"),
            TypeError::Mismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            TypeError::Occurs => write!(f, "occurs check failed: infinite type"),
            TypeError::BadProjection { index, arity } => {
                write!(f, "projection #{index} out of range for {arity}-tuple")
            }
            TypeError::NotNumeric(t) => write!(f, "arithmetic at non-numeric type {t}"),
            TypeError::NotObject(t) => write!(f, "{t} is not an object type"),
            TypeError::Ambiguous(what) => write!(f, "cannot infer type of {what}"),
            TypeError::LiteralShape { expect, got } => write!(
                f,
                "array literal shape mismatch: dimensions require {expect} values, got {got}"
            ),
            TypeError::SubscriptArity { dims, given } => write!(
                f,
                "subscript arity mismatch: array has {dims} dimension(s), {given} index(es) given"
            ),
            TypeError::Other(m) => write!(f, "{m}"),
            TypeError::TooDeep => fmt::Display::fmt(&TooDeep, f),
        }
    }
}

impl std::error::Error for TypeError {}

/// A host-level failure while evaluating a compiled NRCA expression.
#[allow(missing_docs)] // variant fields are described on the variants
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// An unbound global `val` or external primitive (a session-level
    /// registration is missing).
    UnboundGlobal(String),
    /// Natural-number arithmetic overflowed `u64`.
    Overflow,
    /// A tabulation / `gen` / `index` would materialise more elements
    /// than the configured limit.
    ResourceLimit { requested: u64, limit: u64 },
    /// The step budget was exhausted (guards runaway queries in tests).
    StepLimit,
    /// The cooperative wall-clock deadline expired (see
    /// `Limits::timeout`); checked on the step-count path.
    Deadline,
    /// Evaluation was cancelled via the cooperative cancellation flag
    /// (see `Limits::cancel`).
    Cancelled,
    /// An external primitive failed.
    External { name: String, message: String },
    /// A value of the wrong shape reached an operation; this indicates
    /// an ill-typed term was evaluated (e.g. optimizer bug).
    IllTyped(String),
    /// A lazily chunked array failed to load elements from its backing
    /// store (I/O failure, corrupt chunk data, an open circuit
    /// breaker): the storage layer's own error, untranslated. Boxed:
    /// inline, its nested layout slowed the `Ok` path of every
    /// evaluation step by ≈ 4 % (EXPERIMENTS.md S11).
    Storage(Box<StoreError>),
    /// An internal invariant of the evaluator was violated (e.g. a
    /// compiled de-Bruijn index outran the environment). Always a bug
    /// in compilation or optimization, never a user error — but
    /// reported as an error rather than a panic so a session survives
    /// it.
    Internal(String),
    /// The term nests too deep for this thread's stack.
    TooDeep,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundGlobal(x) => write!(f, "unbound global or external `{x}`"),
            EvalError::Overflow => write!(f, "natural-number overflow"),
            EvalError::ResourceLimit { requested, limit } => write!(
                f,
                "resource limit exceeded: {requested} elements requested, limit {limit}"
            ),
            EvalError::StepLimit => write!(f, "evaluation step limit exhausted"),
            EvalError::Deadline => write!(f, "evaluation deadline exceeded"),
            EvalError::Cancelled => write!(f, "evaluation cancelled"),
            EvalError::External { name, message } => {
                write!(f, "external primitive `{name}` failed: {message}")
            }
            EvalError::IllTyped(m) => write!(f, "ill-typed value at runtime: {m}"),
            EvalError::Storage(e) => write!(f, "array storage failure: {e}"),
            EvalError::Internal(m) => write!(f, "internal evaluator error: {m}"),
            EvalError::TooDeep => fmt::Display::fmt(&TooDeep, f),
        }
    }
}

impl EvalError {
    /// What the journal, an incident and `\doctor` call this failure
    /// (DESIGN.md §12).
    pub fn class(&self) -> ErrorClass {
        match self {
            EvalError::Storage(e) => e.error_class(),
            EvalError::ResourceLimit { .. } | EvalError::StepLimit => ErrorClass::ResourceExhausted,
            EvalError::Deadline => ErrorClass::Deadline,
            EvalError::Cancelled => ErrorClass::Cancelled,
            EvalError::TooDeep => ErrorClass::TooDeep,
            EvalError::UnboundGlobal(_)
            | EvalError::Overflow
            | EvalError::External { .. }
            | EvalError::IllTyped(_)
            | EvalError::Internal(_) => ErrorClass::Error,
        }
    }
}

impl std::error::Error for EvalError {}

impl From<StoreError> for EvalError {
    fn from(e: StoreError) -> EvalError {
        match e {
            // Shape errors indicate the layout and the access disagree
            // — a bug in the binding code, not a user-visible failure.
            StoreError::Shape(m) => EvalError::Internal(format!("storage shape: {m}")),
            StoreError::Interrupted(Interrupt::Deadline) => EvalError::Deadline,
            StoreError::Interrupted(Interrupt::Cancelled) => EvalError::Cancelled,
            // A failure of the source keeps its type.
            source => EvalError::Storage(Box::new(source)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let e = TypeError::Mismatch {
            expected: "nat".into(),
            found: "bool".into(),
        };
        assert!(e.to_string().contains("expected nat"));
        let e = EvalError::ResourceLimit {
            requested: 100,
            limit: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("limit 10"));
    }

    #[test]
    fn a_storage_failure_keeps_its_type_and_names_its_own_class() {
        let open = StoreError::Unavailable { source: "s".into(), retry_after_ms: 5 };
        let e = EvalError::from(open.clone());
        assert_eq!(e, EvalError::Storage(Box::new(open)));
        assert_eq!(e.class(), ErrorClass::Unavailable);
        assert!(!e.to_string().contains("transient"), "{e}");
        // The statement's own limits keep their typed targets.
        let late = EvalError::from(StoreError::Interrupted(Interrupt::Deadline));
        assert_eq!(late, EvalError::Deadline);
        let over = EvalError::ResourceLimit { requested: 8, limit: 4 };
        assert_eq!(over.class(), ErrorClass::ResourceExhausted);
        assert_eq!(EvalError::StepLimit.class(), ErrorClass::ResourceExhausted);
        assert_eq!(EvalError::UnboundGlobal("budget".into()).class(), ErrorClass::Error);
        // The `Err` of every evaluation step did not grow.
        assert!(std::mem::size_of::<EvalError>() <= 48);
    }
}
