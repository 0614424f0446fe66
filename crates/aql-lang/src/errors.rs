//! Error types for the surface language and session.

use std::fmt;

use aql_core::error::{EvalError, TypeError};
use aql_core::stack::TooDeep;
use aql_journal::ErrorClass;

/// Any failure while lexing, parsing, desugaring, or executing an AQL
/// statement.
#[derive(Debug, Clone)]
pub enum LangError {
    /// Lexical error with position.
    Lex {
        /// Byte offset; the input's length when it ended inside a
        /// comment, a string or an escape.
        offset: usize,
        /// 1-based line.
        line: usize,
        /// Message.
        message: String,
    },
    /// Parse error with position.
    Parse {
        /// 1-based line.
        line: usize,
        /// Message.
        message: String,
    },
    /// Desugaring error (bad pattern, unknown builtin arity, …).
    Desugar(String),
    /// A statement, or a value a reader parsed, nests too deep for this
    /// thread's stack: one pass's [`aql_core::stack`] guard fired.
    TooDeep,
    /// The typechecker rejected the query.
    Type(TypeError),
    /// Evaluation failed at the host level.
    Eval(EvalError),
    /// A session-level problem: unknown reader/writer, duplicate name,
    /// I/O failure, macro cycle, …
    Session(String),
    /// The rewrite-soundness gate rejected an optimizer rule's output
    /// (verify mode): the rewrite introduced an unbound variable,
    /// produced an ill-formed term, or changed the query's type. The
    /// query is aborted; the session remains usable.
    Unsound {
        /// The optimizer phase the rule belongs to.
        phase: String,
        /// The offending rule.
        rule: String,
        /// What the verifier objected to.
        message: String,
    },
    /// An untrusted extension (reader, writer, or optimizer rule)
    /// panicked. The panic was caught at the session boundary; the
    /// session remains usable.
    ExtensionPanic {
        /// What kind of extension panicked (`"reader"`, `"writer"`,
        /// `"optimizer rule"`, …).
        kind: &'static str,
        /// The registered name of the extension.
        name: String,
        /// The panic payload, best-effort stringified.
        message: String,
    },
}

impl LangError {
    /// Construct a lexical error.
    pub fn lex(offset: usize, line: usize, message: impl Into<String>) -> LangError {
        LangError::Lex { offset, line, message: message.into() }
    }

    /// Construct a parse error.
    pub fn parse(line: usize, message: impl Into<String>) -> LangError {
        LangError::Parse { line, message: message.into() }
    }

    /// Construct a desugaring error.
    pub fn desugar(message: impl Into<String>) -> LangError {
        LangError::Desugar(message.into())
    }

    /// Construct a session error.
    pub fn session(message: impl Into<String>) -> LangError {
        LangError::Session(message.into())
    }

    /// What the journal, an incident and `\doctor` call this failure
    /// (DESIGN.md §12).
    pub fn class(&self) -> ErrorClass {
        match self {
            LangError::Eval(e) => e.class(),
            LangError::Unsound { .. } => ErrorClass::Unsound,
            LangError::TooDeep => ErrorClass::TooDeep,
            LangError::Lex { .. }
            | LangError::Parse { .. }
            | LangError::Desugar(_)
            | LangError::Type(_)
            | LangError::Session(_)
            | LangError::ExtensionPanic { .. } => ErrorClass::Error,
        }
    }

    /// Construct an extension-panic error.
    pub fn extension_panic(
        kind: &'static str,
        name: impl Into<String>,
        message: impl Into<String>,
    ) -> LangError {
        LangError::ExtensionPanic { kind, name: name.into(), message: message.into() }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { line, message, .. } => {
                write!(f, "lexical error (line {line}): {message}")
            }
            LangError::Parse { line, message } => {
                write!(f, "parse error (line {line}): {message}")
            }
            LangError::Desugar(m) => write!(f, "desugaring error: {m}"),
            LangError::TooDeep => fmt::Display::fmt(&TooDeep, f),
            LangError::Type(e) => write!(f, "type error: {e}"),
            LangError::Eval(e) => write!(f, "evaluation error: {e}"),
            LangError::Session(m) => write!(f, "session error: {m}"),
            LangError::Unsound { phase, rule, message } => {
                write!(
                    f,
                    "unsound rewrite by rule `{rule}` (phase `{phase}`): {message}"
                )
            }
            LangError::ExtensionPanic { kind, name, message } => {
                write!(f, "{kind} `{name}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for LangError {}

impl From<TooDeep> for LangError {
    fn from(_: TooDeep) -> Self {
        LangError::TooDeep
    }
}

/// Every pass's guard is one error, whichever pass it fired in.
impl From<TypeError> for LangError {
    fn from(e: TypeError) -> Self {
        match e {
            TypeError::TooDeep => LangError::TooDeep,
            e => LangError::Type(e),
        }
    }
}

impl From<EvalError> for LangError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::TooDeep => LangError::TooDeep,
            e => LangError::Eval(e),
        }
    }
}

/// A storage failure a reader or writer meets keeps its type: the same
/// error, and class, as when a subscript meets it.
impl From<aql_store::StoreError> for LangError {
    fn from(e: aql_store::StoreError) -> Self {
        LangError::Eval(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = LangError::parse(7, "expected `;`");
        assert!(e.to_string().contains("line 7"));
        let e: LangError = TypeError::Unbound("x".into()).into();
        assert!(e.to_string().contains("type error"));
    }

    #[test]
    fn the_class_is_the_values_not_the_messages() {
        // A message may spell any class's vocabulary; only the value counts.
        for word in ["budget", "exhausted", "deadline", "interrupt", "checksum", "corrupt"] {
            let e: LangError = TypeError::Unbound(word.into()).into();
            assert_eq!(e.class(), ErrorClass::Error, "{e}");
            assert_eq!(LangError::session(word).class(), ErrorClass::Error);
        }
        let e: LangError = aql_store::StoreError::Corrupt("x".into()).into();
        assert_eq!(e.class(), ErrorClass::Corruption);
        assert_eq!(LangError::Eval(EvalError::Deadline).class(), ErrorClass::Deadline);
    }
}
