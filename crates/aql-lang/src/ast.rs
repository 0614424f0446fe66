//! The surface abstract syntax of AQL (§3): expressions with
//! comprehensions, patterns and blocks, plus top-level statements.

/// A literal constant usable inside patterns.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Natural.
    Nat(u64),
    /// Real.
    Real(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// A pattern `P ::= (P1,…,Pk) | _ | c | x | \x` (§3). `Var` is a
/// *non-binding* occurrence that matches only the current value of an
/// already-bound variable; `Bind` is the binding occurrence `\x`.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// `_` — matches anything.
    Wild,
    /// `\x` — matches anything and binds it.
    Bind(String),
    /// `x` — matches the current value of `x`.
    Var(String),
    /// A constant — matches only itself.
    Const(Lit),
    /// `(P1, …, Pk)` — matches k-tuples componentwise.
    Tuple(Vec<Pattern>),
}

impl Pattern {
    /// Is this a *lambda pattern* `P' ::= (P'1,…,P'n) | _ | \x` (§3)?
    /// Lambda and `let` patterns are irrefutable: no constants or
    /// non-binding variables.
    pub fn is_lambda_pattern(&self) -> bool {
        match self {
            Pattern::Wild | Pattern::Bind(_) => true,
            Pattern::Var(_) | Pattern::Const(_) => false,
            Pattern::Tuple(ps) => ps.iter().all(Pattern::is_lambda_pattern),
        }
    }

    /// The names bound by this pattern, in order.
    pub fn bound_names(&self) -> Vec<String> {
        match self {
            Pattern::Bind(x) => vec![x.clone()],
            Pattern::Tuple(ps) => ps.iter().flat_map(Pattern::bound_names).collect(),
            _ => Vec::new(),
        }
    }
}

/// A qualifier inside a comprehension: generator, array generator,
/// binding, or filter (§3).
#[derive(Debug, Clone, PartialEq)]
pub enum Qual {
    /// `P <- e` — set generator.
    Gen(Pattern, SExpr),
    /// `[P1 : P2] <- e` — array generator: `P1` matches the index,
    /// `P2` the value (§3).
    ArrGen(Pattern, Pattern, SExpr),
    /// `P :== e` (also written `P == e`) — binding, shorthand for
    /// `P <- {e}`.
    Bind(Pattern, SExpr),
    /// A Boolean filter.
    Filter(SExpr),
}

/// Binary operators of the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SBinOp {
    /// `+`
    Add,
    /// `-` (monus at `nat`)
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
    /// `in` — set membership
    In,
    /// `union` — set union
    Union,
    /// `bunion` — bag union
    Bunion,
}

/// A surface expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    /// Identifier (variable, macro, external, global, or builtin).
    Var(String),
    /// Natural literal.
    Nat(u64),
    /// Real literal.
    Real(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// Tuple `(e1, …, ek)`, `k ≥ 2`.
    Tuple(Vec<SExpr>),
    /// Set literal `{e1, …, en}` (possibly empty).
    SetLit(Vec<SExpr>),
    /// Bag literal `{|e1, …, en|}`.
    BagLit(Vec<SExpr>),
    /// Set comprehension `{e | q1, …, qn}`.
    SetComp {
        /// Head expression.
        head: Box<SExpr>,
        /// Qualifiers.
        quals: Vec<Qual>,
    },
    /// Bag comprehension `{|e | q1, …, qn|}`.
    BagComp {
        /// Head expression.
        head: Box<SExpr>,
        /// Qualifiers.
        quals: Vec<Qual>,
    },
    /// 1-d array literal `[[e1, …, en]]`, n ≥ 1.
    ArrayLit(Vec<SExpr>),
    /// Row-major literal `[[n1, …, nk; e0, …]]` (§3).
    ArrayRowMajor {
        /// Dimension expressions.
        dims: Vec<SExpr>,
        /// Row-major items.
        items: Vec<SExpr>,
    },
    /// Tabulation `[[e | \i1 < e1, …, \ik < ek]]`.
    ArrayTab {
        /// Head expression.
        head: Box<SExpr>,
        /// Index binders and bounds.
        idx: Vec<(String, SExpr)>,
    },
    /// Subscript `e[e1, …, ek]`.
    Subscript(Box<SExpr>, Vec<SExpr>),
    /// Application `f!e` or `f(e1, …, en)`.
    App(Box<SExpr>, Box<SExpr>),
    /// `fn P => e`.
    Lam(Pattern, Box<SExpr>),
    /// `let val P1 = e1 … val Pn = en in e end`.
    LetBlock(Vec<(Pattern, SExpr)>, Box<SExpr>),
    /// `if c then t else f`.
    If(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    /// Binary operation.
    Binop(SBinOp, Box<SExpr>, Box<SExpr>),
    /// `not e`.
    Not(Box<SExpr>),
}

impl SExpr {
    /// Boxed self.
    pub fn boxed(self) -> Box<SExpr> {
        Box::new(self)
    }

    /// Push the direct subexpressions onto `out`.
    pub fn push_children<'a>(&'a self, out: &mut Vec<&'a SExpr>) {
        match self {
            SExpr::Var(_) | SExpr::Nat(_) | SExpr::Real(_) | SExpr::Str(_) | SExpr::Bool(_) => {}
            SExpr::Tuple(v) | SExpr::SetLit(v) | SExpr::BagLit(v) | SExpr::ArrayLit(v) => out.extend(v),
            SExpr::ArrayRowMajor { dims, items } => out.extend(dims.iter().chain(items)),
            SExpr::SetComp { head, quals } | SExpr::BagComp { head, quals } => {
                out.push(head);
                out.extend(quals.iter().map(|q| match q {
                    Qual::Gen(_, e) | Qual::ArrGen(_, _, e) | Qual::Bind(_, e) | Qual::Filter(e) => e,
                }));
            }
            SExpr::ArrayTab { head, idx } => out.extend(idx.iter().map(|(_, b)| b).chain([&**head])),
            SExpr::Subscript(a, v) => out.extend(v.iter().chain([&**a])),
            SExpr::App(a, b) | SExpr::Binop(_, a, b) => out.extend([a, b].map(|e| &**e)),
            SExpr::Lam(_, e) | SExpr::Not(e) => out.push(e),
            SExpr::LetBlock(binds, body) => out.extend(binds.iter().map(|(_, e)| e).chain([&**body])),
            SExpr::If(c, t, f) => out.extend([c, t, f].map(|e| &**e)),
        }
    }

    /// The left operand of a binary operator, an application's function
    /// or a subscript's array: the child the parser's loops chain on.
    fn spine(&mut self) -> Option<&mut SExpr> {
        match self {
            SExpr::Binop(_, l, _) | SExpr::App(l, _) | SExpr::Subscript(l, _) => Some(l),
            _ => None,
        }
    }
}

/// The parser builds `a + b + …`, `f!x!…` and `a[i][j]…` in a loop, as
/// deep as the statement is long: they are taken apart in a loop too.
/// Every other child is as deep as the parser's guarded recursion.
impl Drop for SExpr {
    fn drop(&mut self) {
        let mut next = self.spine().map(|l| std::mem::replace(l, SExpr::Nat(0)));
        while let Some(mut e) = next {
            next = e.spine().map(|l| std::mem::replace(l, SExpr::Nat(0)));
        }
    }
}

/// A top-level statement of the AQL read-eval-print loop (§4).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `val \x = e;` — evaluate and remember a complex object.
    Val(String, SExpr),
    /// `macro \f = e;` — register a query macro.
    MacroDef(String, SExpr),
    /// `readval \x using R at e;` — input through a registered reader.
    ReadVal {
        /// Target variable.
        name: String,
        /// Reader name.
        reader: String,
        /// Argument expression.
        arg: SExpr,
    },
    /// `writeval e using W at e2;` — output through a writer.
    WriteVal {
        /// The value expression to write.
        value: SExpr,
        /// Writer name.
        writer: String,
        /// Argument expression.
        arg: SExpr,
    },
    /// A bare query `e;`.
    Query(SExpr),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_pattern_classification() {
        assert!(Pattern::Wild.is_lambda_pattern());
        assert!(Pattern::Bind("x".into()).is_lambda_pattern());
        assert!(!Pattern::Var("x".into()).is_lambda_pattern());
        assert!(!Pattern::Const(Lit::Nat(0)).is_lambda_pattern());
        assert!(Pattern::Tuple(vec![Pattern::Bind("a".into()), Pattern::Wild])
            .is_lambda_pattern());
        assert!(!Pattern::Tuple(vec![Pattern::Const(Lit::Nat(1))]).is_lambda_pattern());
    }

    #[test]
    fn bound_names_in_order() {
        let p = Pattern::Tuple(vec![
            Pattern::Bind("a".into()),
            Pattern::Wild,
            Pattern::Tuple(vec![Pattern::Bind("b".into()), Pattern::Var("c".into())]),
        ]);
        assert_eq!(p.bound_names(), vec!["a".to_string(), "b".to_string()]);
    }
}
