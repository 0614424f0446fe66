//! A first-order unifier over [`Type`] with inference variables.
//!
//! Monomorphic Hindley–Milner-style unification: enough to infer the
//! types of all the paper's example queries without annotations
//! (including the polymorphic-looking `{}` and `⊥`, which receive
//! fresh variables that context then pins down).

use std::rc::Rc;

use crate::error::TypeError;
use crate::types::Type;

/// Union-find style binding store for inference variables.
#[derive(Debug, Default)]
pub struct Unifier {
    bindings: Vec<Option<Type>>,
}

impl Unifier {
    /// A unifier with no variables.
    pub fn new() -> Unifier {
        Unifier::default()
    }

    /// Allocate a fresh inference variable.
    pub fn fresh(&mut self) -> Type {
        let v = self.bindings.len() as u32;
        self.bindings.push(None);
        Type::Var(v)
    }

    /// Follow variable bindings one level (path-shortening reads).
    pub(crate) fn shallow(&self, t: &Type) -> Type {
        let mut t = t.clone();
        while let Type::Var(v) = t {
            match &self.bindings[v as usize] {
                Some(next) => t = next.clone(),
                None => return t,
            }
        }
        t
    }

    /// Fully substitute bindings into a type.
    pub fn resolve(&self, t: &Type) -> Type {
        let t = self.shallow(t);
        match t {
            Type::Bool | Type::Nat | Type::Real | Type::Str | Type::Base(_) | Type::Var(_) => t,
            Type::Tuple(ts) => {
                Type::Tuple(ts.iter().map(|x| self.resolve(x)).collect::<Vec<_>>().into())
            }
            Type::Set(t) => Type::Set(Rc::new(self.resolve(&t))),
            Type::Bag(t) => Type::Bag(Rc::new(self.resolve(&t))),
            Type::Array(t, k) => Type::Array(Rc::new(self.resolve(&t)), k),
            Type::Fun(s, t) => Type::Fun(Rc::new(self.resolve(&s)), Rc::new(self.resolve(&t))),
        }
    }

    /// Does variable `v` occur in `t` (after resolution)?
    fn occurs(&self, v: u32, t: &Type) -> bool {
        match self.shallow(t) {
            Type::Var(w) => v == w,
            Type::Bool | Type::Nat | Type::Real | Type::Str | Type::Base(_) => false,
            Type::Tuple(ts) => ts.iter().any(|x| self.occurs(v, x)),
            Type::Set(t) | Type::Bag(t) | Type::Array(t, _) => self.occurs(v, &t),
            Type::Fun(s, t) => self.occurs(v, &s) || self.occurs(v, &t),
        }
    }

    /// Bind variable `v` to `t` (occurs-checked).
    fn bind(&mut self, v: u32, t: Type) -> Result<(), TypeError> {
        if let Type::Var(w) = t {
            if w == v {
                return Ok(());
            }
        }
        if self.occurs(v, &t) {
            return Err(TypeError::Occurs);
        }
        self.bindings[v as usize] = Some(t);
        Ok(())
    }

    /// Unify two types, recording variable bindings.
    pub fn unify(&mut self, a: &Type, b: &Type) -> Result<(), TypeError> {
        let a = self.shallow(a);
        let b = self.shallow(b);
        match (&a, &b) {
            (Type::Var(v), _) => self.bind(*v, b),
            (_, Type::Var(v)) => self.bind(*v, a),
            (Type::Bool, Type::Bool)
            | (Type::Nat, Type::Nat)
            | (Type::Real, Type::Real)
            | (Type::Str, Type::Str) => Ok(()),
            (Type::Base(x), Type::Base(y)) if x == y => Ok(()),
            (Type::Tuple(xs), Type::Tuple(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys.iter()) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            (Type::Set(x), Type::Set(y)) | (Type::Bag(x), Type::Bag(y)) => self.unify(x, y),
            (Type::Array(x, j), Type::Array(y, k)) if j == k => self.unify(x, y),
            (Type::Fun(s1, t1), Type::Fun(s2, t2)) => {
                self.unify(s1, s2)?;
                self.unify(t1, t2)
            }
            _ => Err(TypeError::Mismatch {
                expected: self.resolve(&a).to_string(),
                found: self.resolve(&b).to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_var_with_concrete() {
        let mut u = Unifier::new();
        let v = u.fresh();
        u.unify(&v, &Type::Nat).unwrap();
        assert_eq!(u.resolve(&v), Type::Nat);
    }

    #[test]
    fn unify_through_structure() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        u.unify(
            &Type::set(Type::tuple(vec![a.clone(), Type::Bool])),
            &Type::set(Type::tuple(vec![Type::Nat, b.clone()])),
        )
        .unwrap();
        assert_eq!(u.resolve(&a), Type::Nat);
        assert_eq!(u.resolve(&b), Type::Bool);
    }

    #[test]
    fn chains_resolve() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        u.unify(&a, &b).unwrap();
        u.unify(&b, &Type::Real).unwrap();
        assert_eq!(u.resolve(&a), Type::Real);
    }

    #[test]
    fn mismatch_reported() {
        let mut u = Unifier::new();
        let err = u.unify(&Type::Nat, &Type::Bool).unwrap_err();
        assert!(matches!(err, TypeError::Mismatch { .. }));
        // Array ranks must match.
        let err = u
            .unify(&Type::array(Type::Nat, 1), &Type::array(Type::Nat, 2))
            .unwrap_err();
        assert!(matches!(err, TypeError::Mismatch { .. }));
    }

    #[test]
    fn occurs_check() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let err = u.unify(&a, &Type::set(a.clone())).unwrap_err();
        assert_eq!(err, TypeError::Occurs);
    }

    #[test]
    fn self_unification_is_fine() {
        let mut u = Unifier::new();
        let a = u.fresh();
        u.unify(&a, &a).unwrap();
        assert!(matches!(u.resolve(&a), Type::Var(_)));
    }
}
