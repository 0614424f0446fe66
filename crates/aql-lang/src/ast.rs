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

impl Stmt {
    /// The statement's kind, as its trace span, journal records and
    /// reports label it.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Stmt::Val(..) => "val",
            Stmt::MacroDef(..) => "macro",
            Stmt::Query(..) => "query",
            Stmt::ReadVal { .. } => "readval",
            Stmt::WriteVal { .. } => "writeval",
        }
    }

    /// FNV-1a 64 over the statement's nodes in pre-order, each as its
    /// variant, its own scalars (names, literals, operators, qualifier
    /// kinds) and its arity, patterns included: a stable fingerprint for
    /// grouping slow-log records of the same statement without logging
    /// query text verbatim; reports print it `{:016x}`. The walk keeps its
    /// own stack, as no guarded pass has seen the statement yet.
    pub(crate) fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        use std::mem::discriminant;
        struct Fnv(u64);
        impl Hasher for Fnv {
            fn write(&mut self, bytes: &[u8]) {
                for b in bytes {
                    self.0 = (self.0 ^ *b as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
            fn finish(&self) -> u64 {
                self.0
            }
        }
        enum Node<'a> {
            E(&'a SExpr),
            P(&'a Pattern),
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        self.kind().hash(&mut h);
        match self {
            Stmt::Val(x, _) | Stmt::MacroDef(x, _) => x.hash(&mut h),
            Stmt::ReadVal { name, reader, .. } => (name, reader).hash(&mut h),
            Stmt::WriteVal { writer, .. } => writer.hash(&mut h),
            Stmt::Query(_) => {}
        }
        let mut todo: Vec<Node> = match self {
            Stmt::Val(_, e) | Stmt::MacroDef(_, e) | Stmt::Query(e) | Stmt::ReadVal { arg: e, .. } => vec![Node::E(e)],
            Stmt::WriteVal { value, arg, .. } => vec![Node::E(value), Node::E(arg)],
        };
        let mut kids = Vec::new();
        while let Some(node) = todo.pop() {
            let e = match node {
                Node::P(p) => {
                    discriminant(p).hash(&mut h);
                    match p {
                        Pattern::Wild => {}
                        Pattern::Bind(x) | Pattern::Var(x) => x.hash(&mut h),
                        Pattern::Const(Lit::Nat(n)) => (0u8, n).hash(&mut h),
                        Pattern::Const(Lit::Real(r)) => (1u8, r.to_bits()).hash(&mut h),
                        Pattern::Const(Lit::Str(s)) => (2u8, s).hash(&mut h),
                        Pattern::Const(Lit::Bool(b)) => (3u8, b).hash(&mut h),
                        Pattern::Tuple(ps) => {
                            ps.len().hash(&mut h);
                            todo.extend(ps.iter().map(Node::P));
                        }
                    }
                    continue;
                }
                Node::E(e) => e,
            };
            discriminant(e).hash(&mut h);
            match e {
                SExpr::Var(s) | SExpr::Str(s) => s.hash(&mut h),
                SExpr::Nat(n) => n.hash(&mut h),
                SExpr::Real(r) => r.to_bits().hash(&mut h),
                SExpr::Bool(b) => b.hash(&mut h),
                SExpr::Binop(op, ..) => (*op as u8).hash(&mut h),
                SExpr::ArrayRowMajor { dims, .. } => dims.len().hash(&mut h),
                SExpr::ArrayTab { idx, .. } => idx.iter().for_each(|(i, _)| i.hash(&mut h)),
                SExpr::Lam(p, _) => todo.push(Node::P(p)),
                SExpr::LetBlock(binds, _) => todo.extend(binds.iter().map(|(p, _)| Node::P(p))),
                SExpr::SetComp { quals, .. } | SExpr::BagComp { quals, .. } => {
                    for q in quals {
                        discriminant(q).hash(&mut h);
                        match q {
                            Qual::Gen(p, _) | Qual::Bind(p, _) => todo.push(Node::P(p)),
                            Qual::ArrGen(i, v, _) => todo.extend([Node::P(i), Node::P(v)]),
                            Qual::Filter(_) => {}
                        }
                    }
                }
                _ => {}
            }
            e.push_children(&mut kids);
            kids.len().hash(&mut h);
            todo.extend(kids.drain(..).map(Node::E));
        }
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

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

    #[test]
    fn stmt_hash_tells_statements_apart_and_walks_a_chain_without_recursing() {
        // Every statement of the paper's §4.2 sunset session, the §1
        // heat-index query, and a `writeval` so each kind is covered.
        let paper = r#"
            val \months = [[0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30]];
            macro \days_since_1_1 = fn (\m, \d, \y) =>
                d + summap(fn \i => months[i])!(gen!m) +
                (if m > 2 and y % 4 = 0 then 1 else 0);
            days_since_1_1!(6, 1, 95);
            val \NYlat = 40.7; val \NYlon = -74.0;
            macro \lat_index = fn \x => 2; macro \lon_index = fn \x => 2;
            readval \T using NETCDF3 at
               ("temp.nc", "temp",
                (days_since_1_1!(6, 1, 95) * 24, lat_index!(NYlat), lon_index!(NYlon)),
                (days_since_1_1!(6, 30, 95) * 24, lat_index!(NYlat), lon_index!(NYlon)));
            {d | [(\h, _, _) : \t] <- T, \d == h/24 + 1,
                 h > june_sunset!(NYlat, NYlon, d), t > 85.0};
            {d | \d <- gen!30,
                 \WS' == evenpos!(proj_col!(WS, 0)),
                 \TRW == zip_3!(T, RH, WS'),
                 \A == subseq!(TRW, d*24, d*24+23),
                 heatindex!(A) > threshold};
            writeval T using COFILE at "t.co";
        "#;
        let stmts = parse_program(paper).expect("the paper's statements parse");
        assert_eq!(stmts.len(), 11);
        let again = parse_program(paper).expect("the paper's statements parse");
        let mut hashes: Vec<u64> = stmts.iter().map(Stmt::fingerprint).collect();
        assert_eq!(hashes, again.iter().map(Stmt::fingerprint).collect::<Vec<_>>(), "a statement's hash is its own");
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 11, "each statement has its own hash");
        // Statements that differ only in a pattern, a qualifier's kind
        // or an index name.
        for pair in [
            ["{x | (\\x, 0) <- R};", "{x | (\\x, 1) <- R};"],
            ["fn \\x => x;", "fn \\y => x;"],
            ["{x | \\x <- R};", "{x | \\x == R};"],
            ["{x | [\\x : _] <- R};", "{x | [_ : \\x] <- R};"],
            ["[[ i | \\i < 3 ]];", "[[ i | \\j < 3 ]];"],
            ["let val \\a = 1 in a end;", "let val (\\a, _) = 1 in a end;"],
        ] {
            let [a, b] = pair.map(|src| parse_program(src).expect("parses")[0].fingerprint());
            assert_ne!(a, b, "{pair:?}");
        }
        // A chain the parser builds in a loop is hashed (and dropped)
        // without recursing, on a test thread's stack.
        let chain = parse_program(&format!("{}1;", "1 + ".repeat(1_000_000))).expect("a chain parses");
        assert_ne!(chain[0].fingerprint(), parse_program("1 + 1;").expect("parses")[0].fingerprint());
    }
}
