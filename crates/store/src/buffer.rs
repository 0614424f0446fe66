//! Typed flat buffers: unboxed element storage for homogeneous arrays.
//!
//! An AQL array whose elements are all reals does not need a `Vec` of
//! boxed enum values — a flat `Vec<f64>` holds the same information in
//! an eighth of the space and with no pointer chasing. [`ScalarBuf`] is
//! that representation; [`Scalar`] is a single element pulled out of
//! one, and [`ScalarKind`] names the element type without carrying
//! data (used to validate that a chunk source returns the kind the
//! layout promised).

use std::fmt;

/// The element type of a typed buffer, without any data attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    /// 64-bit IEEE float.
    F64,
    /// 64-bit signed integer.
    I64,
    /// Boolean.
    Bool,
}

impl fmt::Display for ScalarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarKind::F64 => write!(f, "f64"),
            ScalarKind::I64 => write!(f, "i64"),
            ScalarKind::Bool => write!(f, "bool"),
        }
    }
}

/// A single unboxed scalar element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// 64-bit IEEE float.
    F64(f64),
    /// 64-bit signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
}

impl Scalar {
    /// The kind of this scalar.
    pub fn kind(&self) -> ScalarKind {
        match self {
            Scalar::F64(_) => ScalarKind::F64,
            Scalar::I64(_) => ScalarKind::I64,
            Scalar::Bool(_) => ScalarKind::Bool,
        }
    }
}

/// A flat, homogeneous buffer of scalars in row-major element order.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarBuf {
    /// 64-bit IEEE floats.
    F64(Vec<f64>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl ScalarBuf {
    /// An empty buffer of the given kind.
    pub fn empty(kind: ScalarKind) -> ScalarBuf {
        match kind {
            ScalarKind::F64 => ScalarBuf::F64(Vec::new()),
            ScalarKind::I64 => ScalarBuf::I64(Vec::new()),
            ScalarKind::Bool => ScalarBuf::Bool(Vec::new()),
        }
    }

    /// An empty buffer of the given kind with reserved capacity.
    pub fn with_capacity(kind: ScalarKind, cap: usize) -> ScalarBuf {
        match kind {
            ScalarKind::F64 => ScalarBuf::F64(Vec::with_capacity(cap)),
            ScalarKind::I64 => ScalarBuf::I64(Vec::with_capacity(cap)),
            ScalarKind::Bool => ScalarBuf::Bool(Vec::with_capacity(cap)),
        }
    }

    /// A buffer of `len` zero (`false`) elements of the given kind —
    /// the destination of positioned [`copy_run`](ScalarBuf::copy_run)s.
    pub fn zeroed(kind: ScalarKind, len: usize) -> ScalarBuf {
        match kind {
            ScalarKind::F64 => ScalarBuf::F64(vec![0.0; len]),
            ScalarKind::I64 => ScalarBuf::I64(vec![0; len]),
            ScalarKind::Bool => ScalarBuf::Bool(vec![false; len]),
        }
    }

    /// The element kind of this buffer.
    pub fn kind(&self) -> ScalarKind {
        match self {
            ScalarBuf::F64(_) => ScalarKind::F64,
            ScalarBuf::I64(_) => ScalarKind::I64,
            ScalarBuf::Bool(_) => ScalarKind::Bool,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ScalarBuf::F64(v) => v.len(),
            ScalarBuf::I64(v) => v.len(),
            ScalarBuf::Bool(v) => v.len(),
        }
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-memory size in bytes of the element payload (the figure the
    /// cache's byte budget accounts in): 8 bytes per `f64`/`i64`
    /// element, 1 per `bool`.
    pub fn byte_len(&self) -> u64 {
        match self {
            ScalarBuf::F64(v) => v.len() as u64 * 8,
            ScalarBuf::I64(v) => v.len() as u64 * 8,
            ScalarBuf::Bool(v) => v.len() as u64,
        }
    }

    /// The element at linear offset `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<Scalar> {
        match self {
            ScalarBuf::F64(v) => v.get(i).copied().map(Scalar::F64),
            ScalarBuf::I64(v) => v.get(i).copied().map(Scalar::I64),
            ScalarBuf::Bool(v) => v.get(i).copied().map(Scalar::Bool),
        }
    }

    /// Append a scalar of the matching kind. Returns `false` (and
    /// leaves the buffer unchanged) on a kind mismatch.
    pub fn push(&mut self, s: Scalar) -> bool {
        match (self, s) {
            (ScalarBuf::F64(v), Scalar::F64(x)) => v.push(x),
            (ScalarBuf::I64(v), Scalar::I64(x)) => v.push(x),
            (ScalarBuf::Bool(v), Scalar::Bool(x)) => v.push(x),
            _ => return false,
        }
        true
    }

    /// Overwrite `len` elements starting at `at` with the `len`
    /// elements of `src` starting at `from` — one `copy_from_slice`.
    /// Returns `false` (and leaves the buffer unchanged) when the kinds
    /// differ or either range runs past its buffer's end.
    pub fn copy_run(&mut self, at: usize, src: &ScalarBuf, from: usize, len: usize) -> bool {
        fn run<T: Copy>(dst: &mut [T], at: usize, src: &[T], from: usize, len: usize) -> bool {
            let dst = at.checked_add(len).and_then(|end| dst.get_mut(at..end));
            let src = from.checked_add(len).and_then(|end| src.get(from..end));
            match (dst, src) {
                (Some(dst), Some(src)) => {
                    dst.copy_from_slice(src);
                    true
                }
                _ => false,
            }
        }
        match (self, src) {
            (ScalarBuf::F64(d), ScalarBuf::F64(s)) => run(d, at, s, from, len),
            (ScalarBuf::I64(d), ScalarBuf::I64(s)) => run(d, at, s, from, len),
            (ScalarBuf::Bool(d), ScalarBuf::Bool(s)) => run(d, at, s, from, len),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_len_accounts_per_kind() {
        assert_eq!(ScalarBuf::F64(vec![0.0; 3]).byte_len(), 24);
        assert_eq!(ScalarBuf::I64(vec![0; 3]).byte_len(), 24);
        assert_eq!(ScalarBuf::Bool(vec![true; 3]).byte_len(), 3);
    }

    #[test]
    fn get_and_push_respect_kind() {
        let mut b = ScalarBuf::empty(ScalarKind::F64);
        assert!(b.push(Scalar::F64(1.5)));
        assert!(!b.push(Scalar::Bool(true)));
        assert_eq!(b.get(0), Some(Scalar::F64(1.5)));
        assert_eq!(b.get(1), None);
        assert_eq!(b.len(), 1);
        assert_eq!(b.kind(), ScalarKind::F64);
    }

    #[test]
    fn copy_run_checks_kind_and_both_ranges() {
        let src = ScalarBuf::I64(vec![1, 2, 3, 4]);
        let mut dst = ScalarBuf::zeroed(ScalarKind::I64, 5);
        assert!(dst.copy_run(2, &src, 1, 3));
        assert_eq!(dst, ScalarBuf::I64(vec![0, 0, 2, 3, 4]));
        assert!(dst.copy_run(5, &src, 4, 0), "empty run at either end is in range");
        assert!(!dst.copy_run(3, &src, 0, 3), "destination too short");
        assert!(!dst.copy_run(0, &src, 2, 3), "source too short");
        assert!(!dst.copy_run(usize::MAX, &src, 0, 2), "offset overflow");
        assert!(!dst.copy_run(0, &ScalarBuf::Bool(vec![true]), 0, 1), "kind mismatch");
        assert_eq!(dst, ScalarBuf::I64(vec![0, 0, 2, 3, 4]), "failed copies change nothing");
    }
}
