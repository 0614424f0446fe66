//! The abstract syntax of NRCA — the constructs of Fig. 1, plus the
//! ranked unions of §6 and their bag analogues, plus `let` (used by the
//! optimizer's code-motion phase; it is β-equivalent to `(λx.e2)(e1)`).
//!
//! This is the *named* representation the optimizer rewrites. The
//! evaluator first compiles it to a de-Bruijn form (see
//! [`crate::eval`](mod@crate::eval)), mirroring the paper's query-module pipeline
//! (parse → translate → typecheck → optimize → evaluate, Fig. 3).

pub mod builder;
pub mod children;
pub mod display;
pub mod free;

use std::rc::Rc;

/// Variable names. Freshly generated names contain `%`, which the
/// surface language cannot produce, so they never collide with user
/// variables.
pub type Name = Rc<str>;

/// Make a [`Name`] from a string.
pub fn name(s: &str) -> Name {
    Rc::from(s)
}

/// Comparison operators (Fig. 1, Booleans): defined at *every* object
/// type via the canonical order `≤_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `≠`
    Ne,
    /// `<`
    Lt,
    /// `<=` / `≤`
    Le,
    /// `>`
    Gt,
    /// `>=` / `≥`
    Ge,
}

impl CmpOp {
    /// The surface spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators (Fig. 1, Naturals): `+`, monus `∸`, `*`,
/// integer division `/`, mod `%`. Overloaded at `real`, where monus is
/// ordinary subtraction and `%` is `f64::rem`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// monus: `a ∸ b = max(a - b, 0)` on naturals, `a - b` on reals
    Monus,
    /// `*`
    Mul,
    /// integer division on naturals (`⊥` on zero divisor), `/` on reals
    Div,
    /// remainder (`⊥` on zero divisor at `nat`)
    Mod,
}

impl ArithOp {
    /// The surface spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Monus => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        }
    }
}

/// Derived operators promoted to primitives "to make them known to the
/// code generator so a more efficient query plan can be generated" (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    /// `x ∈ S` — membership, O(log n) on canonical sets.
    Member,
    /// `min(S)` — least element of a non-empty set (`⊥` on empty).
    MinSet,
    /// `max(S)` — greatest element of a non-empty set (`⊥` on empty).
    MaxSet,
}

impl Prim {
    /// The surface name.
    pub fn name(self) -> &'static str {
        match self {
            Prim::Member => "member",
            Prim::MinSet => "min",
            Prim::MaxSet => "max",
        }
    }

    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            Prim::Member => 2,
            Prim::MinSet | Prim::MaxSet => 1,
        }
    }
}

/// An NRCA expression.
#[allow(missing_docs)] // variant fields are described on the variants
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    // ---- λ-calculus fragment -------------------------------------
    /// A variable.
    Var(Name),
    /// A reference to a session-level `val` binding.
    Global(Name),
    /// A registered external primitive, used as a function value.
    Ext(Name),
    /// `λx.e`
    Lam(Name, Box<Expr>),
    /// `e1(e2)`
    App(Box<Expr>, Box<Expr>),
    /// `let x = e1 in e2` — core-level let (β-equivalent to
    /// `(λx.e2)(e1)`; kept explicit so code motion can introduce it).
    Let(Name, Box<Expr>, Box<Expr>),

    // ---- products -------------------------------------------------
    /// `(e1, …, ek)`, `k ≥ 2`
    Tuple(Vec<Expr>),
    /// `π_{i,k}(e)`, `1 ≤ i ≤ k`
    Proj(usize, usize, Box<Expr>),

    // ---- sets -----------------------------------------------------
    /// `{}`
    Empty,
    /// `{e}`
    Single(Box<Expr>),
    /// `e1 ∪ e2`
    Union(Box<Expr>, Box<Expr>),
    /// `⋃{ head | var ∈ src }`
    BigUnion { head: Box<Expr>, var: Name, src: Box<Expr> },
    /// `∪_r{ head | var_rank ∈ src }` — the ranked union of §6:
    /// `var` ranges over the elements of `src` in canonical order and
    /// `rank` over 1, 2, … in step.
    BigUnionRank { head: Box<Expr>, var: Name, rank: Name, src: Box<Expr> },

    // ---- bags (§6, NBC) --------------------------------------------
    /// `{||}`
    BagEmpty,
    /// `{|e|}`
    BagSingle(Box<Expr>),
    /// `e1 ⊎ e2` — additive union
    BagUnion(Box<Expr>, Box<Expr>),
    /// `⨄{| head | var ∈ src |}`
    BigBagUnion { head: Box<Expr>, var: Name, src: Box<Expr> },
    /// `⨄_r{| head | var_rank ∈ src |}` — occurrences of equal values
    /// receive consecutive ranks (§6).
    BigBagUnionRank { head: Box<Expr>, var: Name, rank: Name, src: Box<Expr> },

    // ---- booleans ---------------------------------------------------
    /// `true` / `false`
    Bool(bool),
    /// `if e1 then e2 else e3`
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `e1 op e2` at any object type
    Cmp(CmpOp, Box<Expr>, Box<Expr>),

    // ---- naturals (and overloaded reals) ----------------------------
    /// A natural literal.
    Nat(u64),
    /// A real literal.
    Real(f64),
    /// A string literal.
    Str(Rc<str>),
    /// `e1 op e2`
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// `gen(e) = {0, …, e-1}`
    Gen(Box<Expr>),
    /// `Σ{ head | var ∈ src }` — summation over the *distinct*
    /// elements of the set `src`.
    Sum { head: Box<Expr>, var: Name, src: Box<Expr> },

    // ---- arrays ------------------------------------------------------
    /// `[[ head | i1 < b1, …, ik < bk ]]` — tabulation. The bounds
    /// `b_j` do not see the index variables (Fig. 1 typing rule).
    Tab { head: Box<Expr>, idx: Vec<(Name, Expr)> },
    /// `e[e1, …, ek]` — subscripting; `⊥` when out of bounds.
    /// A single index expression of type `N^k` subscripts a k-d array.
    Sub(Box<Expr>, Vec<Expr>),
    /// `dim_k(e)` — the dimension vector (a `nat` when k = 1). The
    /// rank subscript `k` is part of the construct, as in the paper.
    Dim(usize, Box<Expr>),
    /// `[[n1, …, nk; e0, …, e_{n1·…·nk - 1}]]` — the O(n) row-major
    /// literal construct of §3.
    ArrayLit { dims: Vec<Expr>, items: Vec<Expr> },
    /// `index_k(e) : {N^k × t} → [[{t}]]_k` — the inverse of `graph`,
    /// with holes filled by `{}` and colliding keys grouped (§2).
    Index(usize, Box<Expr>),

    // ---- errors -------------------------------------------------------
    /// `get(e)` — the unique element of a singleton set, `⊥` otherwise.
    Get(Box<Expr>),
    /// The error value `⊥`.
    Bottom,

    // ---- promoted derived operators -----------------------------------
    /// A built-in primitive applied to its arguments.
    Prim(Prim, Vec<Expr>),
}

/// Declares [`Head`] and [`Expr::head`] from one list of constructor
/// names, so the tag cannot drift from the enum it mirrors.
macro_rules! heads {
    ($($h:ident),* $(,)?) => {
        /// The root constructor of an [`Expr`] with its payload dropped:
        /// what a rewrite rule's pattern opens with, and the key the
        /// optimizer dispatches rules on.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Head { $(#[allow(missing_docs)] $h),* }

        impl Head {
            /// Every head, in declaration order (`h as usize` indexes it).
            pub const ALL: &'static [Head] = &[$(Head::$h),*];
        }

        impl Expr {
            /// This node's root constructor.
            pub fn head(&self) -> Head {
                match self { $(Expr::$h { .. } => Head::$h),* }
            }
        }
    };
}

heads! {
    Var, Global, Ext, Lam, App, Let, Tuple, Proj, Empty, Single, Union, BigUnion,
    BigUnionRank, BagEmpty, BagSingle, BagUnion, BigBagUnion, BigBagUnionRank, Bool, If,
    Cmp, Nat, Real, Str, Arith, Gen, Sum, Tab, Sub, Dim, ArrayLit, Index, Get, Bottom, Prim,
}

impl Expr {
    /// Boxed self, for building nested expressions.
    pub fn boxed(self) -> Box<Expr> {
        Box::new(self)
    }

    /// Move this node out, leaving `⊥` in its place (which allocates
    /// nothing): how a rewrite takes a part of the term it owns.
    pub fn take(&mut self) -> Expr {
        std::mem::replace(self, Expr::Bottom)
    }

    /// Count AST nodes (used by the optimizer's convergence checks and
    /// cost reporting).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// The node count and the depth, or `None` for a term too deep to
    /// walk on this thread's stack ([`crate::stack`]).
    pub fn extent(&self) -> Option<(usize, usize)> {
        crate::stack::check().ok()?;
        let (mut size, mut depth, mut whole) = (1, 0, true);
        children::for_each_child(self, &mut |_, c| match c.extent() {
            Some((s, d)) => (size, depth) = (size + s, depth.max(d)),
            None => whole = false,
        });
        whole.then_some((size, depth + 1))
    }

    /// Visit every sub-expression (including `self`), pre-order — but
    /// none past this thread's stack ([`crate::stack`]): of a term too
    /// deep to walk, `f` sees a prefix.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        if crate::stack::check().is_err() {
            return;
        }
        f(self);
        children::for_each_child(self, &mut |_, c| c.walk(f));
    }
}

#[cfg(test)]
mod tests {
    use super::builder::*;
    use super::*;

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Expr::Nat(1).size(), 1);
        let e = add(Expr::Nat(1), Expr::Nat(2));
        assert_eq!(e.size(), 3);
        let e = lam("x", add(var("x"), Expr::Nat(1)));
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn walk_visits_binders_and_bounds() {
        let e = tab1("i", var("n"), sub(var("a"), vec![var("i")]));
        let mut vars = Vec::new();
        e.walk(&mut |x| {
            if let Expr::Var(v) = x {
                vars.push(v.to_string());
            }
        });
        assert_eq!(vars, vec!["a", "i", "n"]);
    }

    #[test]
    fn heads_index_their_own_table() {
        for (i, h) in Head::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
        assert_eq!(lam("x", var("x")).head(), Head::Lam);
        assert_eq!(tab1("i", nat(3), var("i")).head(), Head::Tab);
        assert_eq!(Expr::Bottom.head(), Head::Bottom);
    }

    #[test]
    fn op_symbols() {
        assert_eq!(CmpOp::Le.symbol(), "<=");
        assert_eq!(ArithOp::Monus.symbol(), "-");
        assert_eq!(Prim::Member.name(), "member");
        assert_eq!(Prim::Member.arity(), 2);
    }
}
