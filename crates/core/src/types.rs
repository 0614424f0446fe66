//! The type system of NRCA (Fig. 1 of the paper).
//!
//! Object types are
//! `t ::= b | bool | nat | t1 × … × tk | {t} | {|t|} | [[t]]_k`
//! and object function types are `t1 → t2`.
//!
//! Compared to the paper we instantiate the uninterpreted base types `b`
//! with `real` and `string` (both used by the paper's own example
//! sessions), and we add the bag type `{|t|}` needed for the
//! expressiveness results of §6 (the language `NBC_r`).
//!
//! `Type::Var` is an inference variable used internally by the
//! typechecker; fully-checked programs never contain it.

use std::fmt;
use std::rc::Rc;

/// A type of the NRCA calculus.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// The Booleans `B`.
    Bool,
    /// The natural numbers `N` (represented as `u64`).
    Nat,
    /// IEEE-754 doubles, standing in for an uninterpreted base type.
    Real,
    /// Strings, standing in for an uninterpreted base type.
    Str,
    /// A named uninterpreted base type `b` (values are opaque atoms).
    Base(Rc<str>),
    /// The k-ary product `t1 × … × tk`, `k ≥ 2`.
    Tuple(Rc<[Type]>),
    /// Finite sets `{t}`.
    Set(Rc<Type>),
    /// Finite bags `{|t|}` (§6, the language NBC).
    Bag(Rc<Type>),
    /// k-dimensional arrays `[[t]]_k`, `k ≥ 1`.
    Array(Rc<Type>, usize),
    /// Object function types `t1 → t2`.
    Fun(Rc<Type>, Rc<Type>),
    /// Typechecker inference variable.
    Var(u32),
}

impl Type {
    /// Shorthand for a one-dimensional array `[[t]]`.
    pub fn array1(t: Type) -> Type {
        Type::Array(Rc::new(t), 1)
    }

    /// Shorthand for `[[t]]_k`.
    pub fn array(t: Type, k: usize) -> Type {
        assert!(k >= 1, "arrays must have at least one dimension");
        Type::Array(Rc::new(t), k)
    }

    /// Shorthand for `{t}`.
    pub fn set(t: Type) -> Type {
        Type::Set(Rc::new(t))
    }

    /// Shorthand for `{|t|}`.
    pub fn bag(t: Type) -> Type {
        Type::Bag(Rc::new(t))
    }

    /// Shorthand for the product of the given component types.
    pub fn tuple(ts: Vec<Type>) -> Type {
        assert!(ts.len() >= 2, "products have arity ≥ 2");
        Type::Tuple(ts.into())
    }

    /// Shorthand for `s → t`.
    pub fn fun(s: Type, t: Type) -> Type {
        Type::Fun(Rc::new(s), Rc::new(t))
    }

    /// `N^k`: `nat` when `k = 1`, otherwise the k-ary product of `nat`s.
    pub fn nat_power(k: usize) -> Type {
        assert!(k >= 1);
        if k == 1 {
            Type::Nat
        } else {
            Type::tuple(vec![Type::Nat; k])
        }
    }

    /// Is this an *object* type, i.e. free of function types and
    /// inference variables? Only object types may appear inside sets,
    /// bags, arrays and tuples that are compared or stored.
    pub fn is_object(&self) -> bool {
        match self {
            Type::Bool | Type::Nat | Type::Real | Type::Str | Type::Base(_) => true,
            Type::Tuple(ts) => ts.iter().all(Type::is_object),
            Type::Set(t) | Type::Bag(t) | Type::Array(t, _) => t.is_object(),
            Type::Fun(..) | Type::Var(_) => false,
        }
    }

    /// Does the type contain any unresolved inference variable?
    pub fn has_var(&self) -> bool {
        match self {
            Type::Var(_) => true,
            Type::Bool | Type::Nat | Type::Real | Type::Str | Type::Base(_) => false,
            Type::Tuple(ts) => ts.iter().any(Type::has_var),
            Type::Set(t) | Type::Bag(t) | Type::Array(t, _) => t.has_var(),
            Type::Fun(s, t) => s.has_var() || t.has_var(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Products and arrows need parenthesisation: arrow is weakest,
        // then product, then the atoms.
        fn prod_component(t: &Type, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match t {
                Type::Tuple(_) | Type::Fun(..) => write!(f, "({t})"),
                _ => write!(f, "{t}"),
            }
        }
        match self {
            Type::Bool => write!(f, "bool"),
            Type::Nat => write!(f, "nat"),
            Type::Real => write!(f, "real"),
            Type::Str => write!(f, "string"),
            Type::Base(b) => write!(f, "{b}"),
            Type::Tuple(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    prod_component(t, f)?;
                }
                Ok(())
            }
            Type::Set(t) => write!(f, "{{{t}}}"),
            Type::Bag(t) => write!(f, "{{|{t}|}}"),
            Type::Array(t, k) => write!(f, "[[{t}]]_{k}"),
            Type::Fun(s, t) => match &**s {
                Type::Fun(..) => write!(f, "({s}) -> {t}"),
                _ => write!(f, "{s} -> {t}"),
            },
            Type::Var(v) => write!(f, "'t{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_session_output() {
        // The paper prints `typ months : [[int]]_1` (we call it nat) and
        // `typ days_since_1_1 : nat * nat * nat -> nat`.
        assert_eq!(Type::array1(Type::Nat).to_string(), "[[nat]]_1");
        let t = Type::fun(
            Type::tuple(vec![Type::Nat, Type::Nat, Type::Nat]),
            Type::Nat,
        );
        assert_eq!(t.to_string(), "nat * nat * nat -> nat");
        assert_eq!(Type::array(Type::Real, 3).to_string(), "[[real]]_3");
        assert_eq!(Type::set(Type::Nat).to_string(), "{nat}");
    }

    #[test]
    fn nested_products_parenthesise() {
        let t = Type::tuple(vec![
            Type::tuple(vec![Type::Nat, Type::Bool]),
            Type::Real,
        ]);
        assert_eq!(t.to_string(), "(nat * bool) * real");
    }

    #[test]
    fn arrow_display_associativity() {
        let t = Type::fun(Type::Nat, Type::fun(Type::Nat, Type::Bool));
        assert_eq!(t.to_string(), "nat -> nat -> bool");
        let t = Type::fun(Type::fun(Type::Nat, Type::Nat), Type::Bool);
        assert_eq!(t.to_string(), "(nat -> nat) -> bool");
    }

    #[test]
    fn object_type_classification() {
        assert!(Type::set(Type::tuple(vec![Type::Nat, Type::Real])).is_object());
        assert!(!Type::fun(Type::Nat, Type::Nat).is_object());
        assert!(!Type::set(Type::fun(Type::Nat, Type::Nat)).is_object());
        assert!(!Type::Var(0).is_object());
        assert!(Type::array(Type::set(Type::Str), 2).is_object());
    }

    #[test]
    fn nat_power() {
        assert_eq!(Type::nat_power(1), Type::Nat);
        assert_eq!(
            Type::nat_power(3),
            Type::tuple(vec![Type::Nat, Type::Nat, Type::Nat])
        );
    }

    #[test]
    fn has_var_detection() {
        assert!(Type::set(Type::Var(3)).has_var());
        assert!(!Type::set(Type::Nat).has_var());
        assert!(Type::fun(Type::Var(1), Type::Nat).has_var());
    }
}
