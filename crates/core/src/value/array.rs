//! K-dimensional arrays: materialized, typed-flat, or lazily chunked.
//!
//! In the calculus an array of type `[[t]]_k` is a partial function
//! from `N^k` to `t` whose domain is the "rectangular" product
//! `gen(n_1) × … × gen(n_k)` (§2). The runtime representation is a
//! dimension vector `[n_1, …, n_k]` plus one of several element
//! stores ([`ArrayData`]):
//!
//! * `Materialized` — the function fully tabulated as boxed [`Value`]s
//!   in row-major order (the historical representation);
//! * `Flat` — homogeneous `real`, `nat` or `bool` arrays tabulated as
//!   one unboxed buffer, a [`Column`] (an eighth of the memory, no
//!   pointer chasing);
//! * `Columns` — arrays of records (`zip`, `zip_3`, the §1 query's
//!   triples): every cell a tuple of one arity whose each position
//!   holds one scalar kind, stored as one column per component — `k`
//!   buffers where boxing takes `n` tuples;
//! * `Lazy` — the function *not* tabulated: an `aql-store`
//!   [`LazyArray`] that fetches row-major chunks from a
//!   [`ChunkSource`](aql_store::ChunkSource) through a budgeted LRU
//!   cache, so only the elements a query touches ever leave disk.
//!
//! [`ArrayVal::new`] picks the flat or columnar store whenever the
//! cells allow it, however the array was built, so the store is never
//! observable: element access is uniform across all variants via
//! [`ArrayVal::get`] / [`ArrayVal::value_at`] (a column array's cell is
//! boxed on the way out; [`ArrayVal::component_at`] reads one component
//! without boxing), and equality, ordering and printing go through it.
//! Lazy reads can fail in the storage layer;
//! fallible callers (the evaluator's subscript path) use
//! [`ArrayVal::try_get`] and surface a proper
//! [`EvalError::Storage`], while infallible contexts (ordering,
//! printing, equality) map storage errors to the error value `⊥` —
//! consistent with the paper's treatment of partiality.

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use aql_store::{LazyArray, PrefetchStats, Scalar};

use crate::error::EvalError;

use super::Value;

/// The element store behind an [`ArrayVal`].
#[derive(Debug, Clone)]
pub enum ArrayData {
    /// Boxed values in row-major order (heterogeneous or non-scalar
    /// element types).
    Materialized(Vec<Value>),
    /// Scalars of one kind, unboxed, in row-major order.
    Flat(Column),
    /// Tuples of scalars: one column per component (at least one), each
    /// as long as the array, in row-major order.
    Columns(Vec<Column>),
    /// A chunked on-demand array; shared so cloning an array value
    /// shares one cache rather than duplicating it.
    Lazy(Rc<RefCell<LazyArray>>),
}

/// An unboxed buffer of one scalar kind: a flat array's cells, or one
/// component of a tuple array's.
#[derive(Debug, Clone)]
pub enum Column {
    /// Reals.
    F64(Vec<f64>),
    /// Naturals.
    Nat(Vec<u64>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl Column {
    /// An empty column of `v`'s kind with room for `n` cells; `None`
    /// when `v` is not a scalar.
    fn of(v: &Value, n: usize) -> Option<Column> {
        Some(match v {
            Value::Real(_) => Column::F64(Vec::with_capacity(n)),
            Value::Nat(_) => Column::Nat(Vec::with_capacity(n)),
            Value::Bool(_) => Column::Bool(Vec::with_capacity(n)),
            _ => return None,
        })
    }

    /// Append `v`; `None` when it is not of the column's kind.
    fn push(&mut self, v: &Value) -> Option<()> {
        match (self, v) {
            (Column::F64(c), Value::Real(x)) => c.push(*x),
            (Column::Nat(c), Value::Nat(n)) => c.push(*n),
            (Column::Bool(c), Value::Bool(b)) => c.push(*b),
            _ => return None,
        }
        Some(())
    }

    fn len(&self) -> usize {
        match self {
            Column::F64(c) => c.len(),
            Column::Nat(c) => c.len(),
            Column::Bool(c) => c.len(),
        }
    }

    /// The cell at `off`, which the caller has checked is in range.
    fn value_at(&self, off: usize) -> Value {
        match self {
            Column::F64(c) => Value::Real(c[off]),
            Column::Nat(c) => Value::Nat(c[off]),
            Column::Bool(c) => Value::Bool(c[off]),
        }
    }
}

impl PartialEq for Column {
    /// Cell for cell under the canonical order: reals bitwise (which is
    /// `total_cmp` equality); columns of two kinds are never equal.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Column::F64(a), Column::F64(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Column::Nat(a), Column::Nat(b)) => a == b,
            (Column::Bool(a), Column::Bool(b)) => a == b,
            _ => false,
        }
    }
}

/// A k-dimensional array value: dimensions plus row-major elements.
#[derive(Debug, Clone)]
pub struct ArrayVal {
    dims: Vec<u64>,
    len: usize,
    data: ArrayData,
}

/// A lazy array's storage residency, as reported by
/// [`ArrayVal::store_info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Source label I/O is attributed to (`netcdf:<var>`,
    /// `aqf:<file>`, `mem`), when the binding set one.
    pub label: Option<String>,
    /// Payload bytes resident in this array's chunk cache.
    pub bytes_held: u64,
    /// The cache's byte budget.
    pub budget_bytes: u64,
    /// Chunks resident in the cache.
    pub chunks_held: usize,
    /// Read-ahead effectiveness, when a prefetcher is attached.
    pub prefetch: Option<PrefetchStats>,
}

/// Convert a storage scalar to a value. Non-negative integers come
/// back as `nat` — so a `nat` array saved to AQF (which stores I64
/// chunks) reopens with its original type — while negative integers,
/// which have no value-model counterpart, widen to `real`. (NetCDF
/// never produces `I64` scalars: its driver widens every numeric
/// external type to `F64` at the source.)
fn scalar_to_value(s: Scalar) -> Value {
    match s {
        Scalar::F64(x) => Value::Real(x),
        Scalar::I64(x) => {
            if x >= 0 {
                Value::Nat(x as u64)
            } else {
                Value::Real(x as f64)
            }
        }
        Scalar::Bool(b) => Value::Bool(b),
    }
}

/// A cell's components: a tuple's (for `tuples`), else the scalar
/// itself as the only one.
fn row(v: &Value, tuples: bool) -> Option<&[Value]> {
    match v {
        Value::Tuple(t) => tuples.then_some(&t[..]),
        v => (!tuples).then_some(std::slice::from_ref(v)),
    }
}

/// The cells' rows as typed columns, if every row has the first one's
/// length, at least one, and each position one scalar kind.
fn columns(data: &[Value], tuples: bool) -> Option<Vec<Column>> {
    let first = row(data.first()?, tuples)?;
    let mut cols = first.iter().map(|v| Column::of(v, data.len())).collect::<Option<Vec<_>>>()?;
    if cols.is_empty() {
        return None;
    }
    for cell in data {
        let parts = row(cell, tuples)?;
        if parts.len() != cols.len() {
            return None;
        }
        for (col, v) in cols.iter_mut().zip(parts) {
            col.push(v)?;
        }
    }
    Some(cols)
}

/// Collapse homogeneous scalars into one typed column, and tuples of
/// scalars into one per component; anything else — a `⊥` cell, two
/// kinds at one position, a nested tuple, unequal arities — stays
/// materialized.
fn specialize(data: Vec<Value>) -> ArrayData {
    let tuples = matches!(data.first(), Some(Value::Tuple(_)));
    match columns(&data, tuples) {
        None => ArrayData::Materialized(data),
        Some(cols) if tuples => ArrayData::Columns(cols),
        Some(mut cols) => ArrayData::Flat(cols.swap_remove(0)),
    }
}

/// The check every eager constructor makes: `dims` is non-empty
/// (`k ≥ 1`) and its product is `len`, which is handed back.
fn check_shape(dims: &[u64], len: usize) -> Result<usize, EvalError> {
    if dims.is_empty() {
        return Err(EvalError::IllTyped("array with zero dimensions".into()));
    }
    let expect = checked_product(dims)?;
    if expect != len as u64 {
        return Err(EvalError::IllTyped(format!(
            "array shape mismatch: dims {dims:?} require {expect} values, got {len}"
        )));
    }
    Ok(len)
}

impl ArrayVal {
    /// Create an array, checking that `data.len()` equals the product
    /// of `dims`. `dims` must be non-empty (`k ≥ 1`). Homogeneous
    /// scalar data is stored as an unboxed flat buffer, tuples of
    /// scalars as one per component.
    pub fn new(dims: Vec<u64>, data: Vec<Value>) -> Result<ArrayVal, EvalError> {
        let len = check_shape(&dims, data.len())?;
        Ok(ArrayVal { dims, len, data: specialize(data) })
    }

    /// Create an array directly over an unboxed real buffer.
    pub fn from_f64(dims: Vec<u64>, data: Vec<f64>) -> Result<ArrayVal, EvalError> {
        let len = check_shape(&dims, data.len())?;
        Ok(ArrayVal { dims, len, data: ArrayData::Flat(Column::F64(data)) })
    }

    /// Create an array directly over an unboxed natural buffer.
    pub fn from_nat(dims: Vec<u64>, data: Vec<u64>) -> Result<ArrayVal, EvalError> {
        let len = check_shape(&dims, data.len())?;
        Ok(ArrayVal { dims, len, data: ArrayData::Flat(Column::Nat(data)) })
    }

    /// Create an array directly over an unboxed boolean buffer.
    pub fn from_bool(dims: Vec<u64>, data: Vec<bool>) -> Result<ArrayVal, EvalError> {
        let len = check_shape(&dims, data.len())?;
        Ok(ArrayVal { dims, len, data: ArrayData::Flat(Column::Bool(data)) })
    }

    /// Create a tuple array directly over its columns: at least one, all
    /// of the array's length, and that not zero (an empty array has no
    /// cell to give it an arity, and is stored boxed).
    pub(crate) fn from_columns(dims: Vec<u64>, cols: Vec<Column>) -> Result<ArrayVal, EvalError> {
        let len = check_shape(&dims, cols.first().map_or(0, Column::len))?;
        if len == 0 || cols.iter().any(|c| c.len() != len) {
            return Err(EvalError::IllTyped("tuple columns must be non-empty and equal".into()));
        }
        Ok(ArrayVal { dims, len, data: ArrayData::Columns(cols) })
    }

    /// Create a lazy array over an `aql-store` [`LazyArray`]. The
    /// dimension vector is the layout's; elements are fetched on
    /// demand, chunk at a time.
    pub fn lazy(lazy: LazyArray) -> Result<ArrayVal, EvalError> {
        let dims = lazy.layout().dims().to_vec();
        if dims.is_empty() {
            return Err(EvalError::IllTyped("array with zero dimensions".into()));
        }
        let len = checked_product(&dims)? as usize;
        Ok(ArrayVal { dims, len, data: ArrayData::Lazy(Rc::new(RefCell::new(lazy))) })
    }

    /// Number of dimensions `k`.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The dimension vector `(n_1, …, n_k)` — the meaning of `dim_k`.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the array empty (some dimension is zero)?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element store behind this array.
    pub fn array_data(&self) -> &ArrayData {
        &self.data
    }

    /// Is this array lazily chunked (as opposed to resident)?
    pub fn is_lazy(&self) -> bool {
        matches!(self.data, ArrayData::Lazy(_))
    }

    /// Storage residency snapshot of the backing chunk cache, for
    /// lazy arrays — what the REPL's `\store;` report renders.
    pub fn store_info(&self) -> Option<StoreInfo> {
        match &self.data {
            ArrayData::Lazy(l) => {
                let l = l.borrow();
                Some(StoreInfo {
                    label: l.label().map(str::to_string),
                    bytes_held: l.cache_bytes_held(),
                    budget_bytes: l.cache_budget_bytes(),
                    chunks_held: l.chunks_held(),
                    prefetch: l.prefetch_stats(),
                })
            }
            _ => None,
        }
    }

    /// The row-major data, materializing typed or lazy stores on the
    /// fly. Lazy elements that fail to load surface as `⊥`. Prefer
    /// [`value_at`](ArrayVal::value_at) / [`get`](ArrayVal::get) in
    /// new code — they avoid materializing the whole array.
    pub fn data(&self) -> Cow<'_, [Value]> {
        match &self.data {
            ArrayData::Materialized(v) => Cow::Borrowed(v.as_slice()),
            _ => Cow::Owned((0..self.len).map(|o| self.value_at(o)).collect()),
        }
    }

    /// Row-major offset of a multi-index, or `None` when any component
    /// is out of bounds (subscripting is *partial*: the caller maps
    /// `None` to `⊥`).
    pub fn offset(&self, idx: &[u64]) -> Option<usize> {
        if idx.len() != self.dims.len() {
            return None;
        }
        let mut off: u64 = 0;
        for (i, d) in idx.iter().zip(self.dims.iter()) {
            if i >= d {
                return None;
            }
            off = off * d + i;
        }
        Some(off as usize)
    }

    /// Value at a row-major offset. Out-of-range offsets and lazy
    /// load failures yield `⊥`.
    pub fn value_at(&self, off: usize) -> Value {
        self.try_value_at(off).map_or(Value::Bottom, |v| v.unwrap_or(Value::Bottom))
    }

    /// Value at a row-major offset; `Ok(None)` when out of range,
    /// `Err` when a lazy load fails in the storage layer.
    pub fn try_value_at(&self, off: usize) -> Result<Option<Value>, EvalError> {
        if off >= self.len {
            return Ok(None);
        }
        match &self.data {
            ArrayData::Materialized(v) => Ok(Some(v[off].clone())),
            ArrayData::Flat(c) => Ok(Some(c.value_at(off))),
            ArrayData::Columns(cols) => {
                Ok(Some(Value::Tuple(cols.iter().map(|c| c.value_at(off)).collect())))
            }
            ArrayData::Lazy(l) => {
                let s = l.borrow_mut().get_linear(off as u64).map_err(EvalError::from)?;
                Ok(s.map(scalar_to_value))
            }
        }
    }

    /// Component `i` of the tuple at a row-major offset; `None` when the
    /// offset is out of range, the cell is not a tuple or has no
    /// component `i`. A column array answers without boxing the tuple.
    pub fn component_at(&self, off: usize, i: usize) -> Option<Value> {
        if off >= self.len {
            return None;
        }
        match &self.data {
            ArrayData::Columns(cols) => Some(cols.get(i)?.value_at(off)),
            ArrayData::Materialized(v) => row(&v[off], true)?.get(i).cloned(),
            _ => None,
        }
    }

    /// Value at a multi-index; `None` when out of bounds. Lazy load
    /// failures yield `Some(⊥)` — use [`try_get`](ArrayVal::try_get)
    /// to observe them.
    pub fn get(&self, idx: &[u64]) -> Option<Value> {
        self.offset(idx).map(|o| self.value_at(o))
    }

    /// Value at a multi-index; `Ok(None)` when out of bounds, `Err`
    /// when a lazy load fails in the storage layer.
    pub fn try_get(&self, idx: &[u64]) -> Result<Option<Value>, EvalError> {
        match self.offset(idx) {
            None => Ok(None),
            Some(o) => self.try_value_at(o),
        }
    }

    /// Iterate `(multi-index, value)` pairs in row-major order — the
    /// graph of the array viewed as a function (`graph_k` in §2).
    /// Elements are produced on demand, so taking a prefix of a lazy
    /// array only touches the chunks that prefix lives in.
    pub fn iter_indexed(&self) -> IndexedIter<'_> {
        IndexedIter { arr: self, next: 0 }
    }

    /// Decode a row-major offset into a multi-index.
    pub fn unoffset(&self, mut off: u64) -> Vec<u64> {
        let mut idx = vec![0u64; self.dims.len()];
        for j in (0..self.dims.len()).rev() {
            let d = self.dims[j];
            if d > 0 {
                idx[j] = off % d;
                off /= d;
            }
        }
        idx
    }
}

impl PartialEq for ArrayVal {
    fn eq(&self, other: &Self) -> bool {
        if self.dims != other.dims {
            return false;
        }
        // Typed fast paths (two empty flat arrays are equal whatever
        // their columns' kinds; a column array is never empty).
        match (&self.data, &other.data) {
            (ArrayData::Flat(a), ArrayData::Flat(b)) if self.len > 0 => return a == b,
            (ArrayData::Columns(a), ArrayData::Columns(b)) => return a == b,
            _ => {}
        }
        (0..self.len).all(|o| self.value_at(o) == other.value_at(o))
    }
}

/// Iterator over `(multi-index, value)` pairs of an array.
pub struct IndexedIter<'a> {
    arr: &'a ArrayVal,
    next: usize,
}

impl Iterator for IndexedIter<'_> {
    type Item = (Vec<u64>, Value);
    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.arr.len {
            return None;
        }
        let idx = self.arr.unoffset(self.next as u64);
        let v = self.arr.value_at(self.next);
        self.next += 1;
        Some((idx, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.arr.len - self.next;
        (rem, Some(rem))
    }
}

/// Product of a dimension vector with overflow detection.
pub fn checked_product(dims: &[u64]) -> Result<u64, EvalError> {
    let mut p: u64 = 1;
    for &d in dims {
        p = p.checked_mul(d).ok_or(EvalError::Overflow)?;
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_store::{ChunkLayout, ChunkSource, ScalarBuf, ScalarKind, StoreError};

    fn nat_array(dims: Vec<u64>, ns: Vec<u64>) -> ArrayVal {
        ArrayVal::new(dims, ns.into_iter().map(Value::Nat).collect()).unwrap()
    }

    #[test]
    fn shape_checked_on_construction() {
        assert!(ArrayVal::new(vec![2, 3], vec![Value::Nat(0); 6]).is_ok());
        assert!(ArrayVal::new(vec![2, 3], vec![Value::Nat(0); 5]).is_err());
        assert!(ArrayVal::new(vec![], vec![]).is_err());
    }

    #[test]
    fn homogeneous_scalars_specialize() {
        let a = nat_array(vec![3], vec![1, 2, 3]);
        assert!(matches!(a.array_data(), ArrayData::Flat(Column::Nat(_))));
        let a = ArrayVal::new(vec![2], vec![Value::Real(1.0), Value::Real(2.0)]).unwrap();
        assert!(matches!(a.array_data(), ArrayData::Flat(Column::F64(_))));
        let a = ArrayVal::new(vec![2], vec![Value::Bool(true), Value::Bool(false)]).unwrap();
        assert!(matches!(a.array_data(), ArrayData::Flat(Column::Bool(_))));
        // Mixed data stays materialized.
        let a = ArrayVal::new(vec![2], vec![Value::Nat(1), Value::Bottom]).unwrap();
        assert!(matches!(a.array_data(), ArrayData::Materialized(_)));
    }

    #[test]
    fn specialization_is_invisible() {
        let typed = nat_array(vec![2, 3], vec![0, 1, 2, 10, 11, 12]);
        let boxed = ArrayVal {
            dims: vec![2, 3],
            len: 6,
            data: ArrayData::Materialized(
                [0u64, 1, 2, 10, 11, 12].iter().map(|&n| Value::Nat(n)).collect(),
            ),
        };
        assert_eq!(typed, boxed);
        assert_eq!(typed.data(), boxed.data());
        // Two empty arrays are equal whatever kind of buffer each has.
        let (reals, nats) = (ArrayVal::from_f64(vec![0], vec![]), ArrayVal::from_nat(vec![0], vec![]));
        assert_eq!(reals.unwrap(), nats.unwrap());
    }

    /// `cells` stored boxed whatever they are: the twin a specialized
    /// array is held against.
    fn boxed(dims: &[u64], cells: Vec<Value>) -> ArrayVal {
        ArrayVal { dims: dims.to_vec(), len: cells.len(), data: ArrayData::Materialized(cells) }
    }

    /// Deterministic draws from a proptest seed.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }

        /// A scalar of `kind` (nat, real, bool) from a pool small enough
        /// that two draws often agree, with NaN and both zeros.
        fn scalar(&mut self, kind: u64) -> Value {
            match kind {
                0 => Value::Nat([0, 1, 7, u64::MAX][self.below(4) as usize]),
                1 => Value::Real([0.0, -0.0, f64::NAN, 1.5, -2.25][self.below(5) as usize]),
                _ => Value::Bool(self.below(2) == 1),
            }
        }

        /// Tuple cells with one component of each of `kinds`.
        fn cells(&mut self, n: u64, kinds: &[u64]) -> Vec<Value> {
            (0..n).map(|_| Value::Tuple(kinds.iter().map(|&k| self.scalar(k)).collect())).collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn columns_are_invisible(seed in 0u64..u64::MAX, arity in 1usize..5, rank in 1usize..4) {
            use crate::value::{ord::canonical_cmp, parse::parse_value, print::session_string};
            use crate::value::tyof::type_of_value;
            use proptest::prelude::*;
            let mut d = Draw(seed);
            // Extents 0–3, so some arrays have no cell at all.
            let dims: Vec<u64> = (0..rank).map(|_| d.below(4)).collect();
            let kinds: Vec<u64> = (0..arity).map(|_| d.below(3)).collect();
            let n = dims.iter().product();
            let (xs, ys) = (d.cells(n, &kinds), d.cells(n, &kinds));
            let a = ArrayVal::new(dims.clone(), xs.clone()).unwrap();
            let b = ArrayVal::new(dims.clone(), ys.clone()).unwrap();
            let (a_twin, b_twin) = (boxed(&dims, xs), boxed(&dims, ys));
            // Columns whenever there is a cell to give the arity.
            prop_assert_eq!(matches!(a.array_data(), ArrayData::Columns(_)), n > 0);

            // Equality both ways, and the typed fast path between two
            // column arrays agrees with the boxed comparison.
            prop_assert!(a == a_twin);
            prop_assert!(a_twin == a);
            prop_assert!(a == a.clone());
            prop_assert_eq!(a == b, a_twin == b_twin);
            prop_assert_eq!(b == a, b_twin == a_twin);
            let val = |x: &ArrayVal| Value::Array(Rc::new(x.clone()));
            let (va, vb, va_twin, vb_twin) = (val(&a), val(&b), val(&a_twin), val(&b_twin));
            prop_assert_eq!(canonical_cmp(&va, &va_twin), std::cmp::Ordering::Equal);
            prop_assert_eq!(canonical_cmp(&va, &vb), canonical_cmp(&va_twin, &vb_twin));
            prop_assert_eq!(canonical_cmp(&vb_twin, &va), canonical_cmp(&vb, &va_twin));
            // A set of arrays deduplicates across stores, and finds either.
            let mixed = Value::set(vec![va.clone(), vb_twin.clone(), va_twin.clone(), vb.clone()]);
            let twins = Value::set(vec![va_twin.clone(), vb_twin.clone()]);
            prop_assert_eq!(&mixed, &twins);
            let (mixed, twins) = (mixed.as_set().unwrap(), twins.as_set().unwrap());
            prop_assert!(twins.contains(&va) && twins.contains(&vb) && mixed.contains(&va_twin));

            // Both printers; the exchange format read back, and the type
            // (a 1-tuple has neither a literal nor a type).
            prop_assert_eq!(va.to_string(), va_twin.to_string());
            prop_assert_eq!(session_string(&va, 5), session_string(&va_twin, 5));
            if arity > 1 {
                prop_assert_eq!(type_of_value(&va), type_of_value(&va_twin));
                let back = parse_value(&va.to_string()).unwrap();
                prop_assert_eq!(&back, &va);
                let Value::Array(back) = back else { unreachable!("an array literal") };
                prop_assert_eq!(matches!(back.array_data(), ArrayData::Columns(_)), n > 0);
            }

            // Element access, past the end included.
            prop_assert_eq!(a.data(), a_twin.data());
            prop_assert!(a.iter_indexed().eq(a_twin.iter_indexed()));
            for off in 0..=a.len() {
                prop_assert_eq!(a.value_at(off), a_twin.value_at(off));
                for i in 0..=arity {
                    prop_assert_eq!(a.component_at(off, i), a_twin.component_at(off, i));
                }
            }
            // Every index whose components run up to their extents: in
            // range, and out of it on one axis or more.
            let mut idx = vec![0u64; rank];
            loop {
                prop_assert_eq!(a.try_get(&idx).unwrap(), a_twin.try_get(&idx).unwrap());
                let Some(j) = (0..rank).rev().find(|&j| idx[j] < dims[j]) else { break };
                idx[j] += 1;
                idx[j + 1..].iter_mut().for_each(|i| *i = 0);
            }
        }
    }

    #[test]
    fn cells_no_column_can_hold_stay_boxed() {
        let (nat, real) = (Value::Nat(1), Value::Real(2.0));
        let pair = |x: &Value, y: &Value| Value::Tuple(vec![x.clone(), y.clone()].into());
        let cases = [
            // A `⊥` cell, and a `⊥` component.
            vec![pair(&nat, &real), Value::Bottom],
            vec![pair(&nat, &real), pair(&nat, &Value::Bottom)],
            // Two kinds at one position.
            vec![pair(&nat, &real), pair(&real, &real)],
            // A nested tuple, a string, unequal arities, arity 0.
            vec![pair(&nat, &pair(&nat, &real))],
            vec![pair(&Value::str("a"), &real)],
            vec![pair(&nat, &real), Value::Tuple(vec![nat.clone(); 3].into())],
            vec![Value::Tuple(Vec::new().into())],
        ];
        for cells in cases {
            let a = ArrayVal::new(vec![cells.len() as u64], cells.clone()).unwrap();
            assert!(matches!(a.array_data(), ArrayData::Materialized(_)), "{cells:?}");
        }
        // And a column array's own constructor checks its columns.
        let ragged = vec![Column::Nat(vec![1, 2]), Column::F64(vec![0.5])];
        assert!(ArrayVal::from_columns(vec![2], ragged).is_err());
        assert!(ArrayVal::from_columns(vec![0], vec![Column::Nat(Vec::new())]).is_err());
        assert!(ArrayVal::from_columns(vec![2], Vec::new()).is_err());
    }

    #[test]
    fn row_major_offsets() {
        let a = nat_array(vec![2, 3], vec![0, 1, 2, 10, 11, 12]);
        assert_eq!(a.get(&[0, 0]).unwrap().as_nat().unwrap(), 0);
        assert_eq!(a.get(&[0, 2]).unwrap().as_nat().unwrap(), 2);
        assert_eq!(a.get(&[1, 0]).unwrap().as_nat().unwrap(), 10);
        assert_eq!(a.get(&[1, 2]).unwrap().as_nat().unwrap(), 12);
    }

    #[test]
    fn out_of_bounds_is_none() {
        let a = nat_array(vec![2, 3], vec![0, 1, 2, 3, 4, 5]);
        assert!(a.get(&[2, 0]).is_none());
        assert!(a.get(&[0, 3]).is_none());
        assert!(a.get(&[0]).is_none(), "wrong arity");
        assert!(a.get(&[0, 0, 0]).is_none(), "wrong arity");
    }

    #[test]
    fn indexed_iteration_roundtrips_offsets() {
        let a = nat_array(vec![2, 2, 2], (0..8).collect());
        for (i, (idx, v)) in a.iter_indexed().enumerate() {
            assert_eq!(a.offset(&idx).unwrap(), i);
            assert_eq!(v.as_nat().unwrap(), i as u64);
        }
        assert_eq!(a.iter_indexed().count(), 8);
    }

    #[test]
    fn empty_arrays() {
        let a = ArrayVal::new(vec![0; 3], vec![]).unwrap();
        assert_eq!(a.rank(), 3);
        assert_eq!(a.dims(), &[0, 0, 0]);
        assert!(a.is_empty());
        assert!(a.get(&[0, 0, 0]).is_none());
        // A zero dimension anywhere forces zero elements.
        assert!(ArrayVal::new(vec![3, 0], vec![]).is_ok());
    }

    #[test]
    fn checked_product_overflow() {
        assert!(checked_product(&[u64::MAX, 2]).is_err());
        assert_eq!(checked_product(&[3, 4, 5]).unwrap(), 60);
        assert_eq!(checked_product(&[]).unwrap(), 1);
    }

    #[test]
    fn unoffset_handles_zero_dims() {
        let a = ArrayVal::new(vec![0; 2], vec![]).unwrap();
        assert_eq!(a.unoffset(0), vec![0, 0]);
    }

    /// A chunk source over an in-memory iota sequence.
    struct IotaSource {
        dims: Vec<u64>,
    }

    impl ChunkSource for IotaSource {
        fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
            let n: u64 = count.iter().product();
            let mut out = Vec::with_capacity(n as usize);
            if n > 0 {
                let mut idx = start.to_vec();
                'outer: loop {
                    let mut off = 0u64;
                    for (&d, &i) in self.dims.iter().zip(idx.iter()) {
                        off = off * d + i;
                    }
                    out.push(off as f64);
                    let mut j = self.dims.len();
                    loop {
                        if j == 0 {
                            break 'outer;
                        }
                        j -= 1;
                        idx[j] += 1;
                        if idx[j] < start[j] + count[j] {
                            break;
                        }
                        idx[j] = start[j];
                    }
                }
            }
            Ok(ScalarBuf::F64(out))
        }
    }

    fn lazy_iota(dims: Vec<u64>, chunk: Vec<u64>) -> ArrayVal {
        let layout = ChunkLayout::new(dims.clone(), chunk).unwrap();
        let la = LazyArray::new(layout, ScalarKind::F64, Box::new(IotaSource { dims }), 1 << 16);
        ArrayVal::lazy(la).unwrap()
    }

    #[test]
    fn lazy_equals_eager() {
        let lazy = lazy_iota(vec![3, 4], vec![2, 2]);
        let eager =
            ArrayVal::from_f64(vec![3, 4], (0..12).map(|i| i as f64).collect()).unwrap();
        assert_eq!(lazy, eager);
        assert_eq!(lazy.get(&[2, 3]).unwrap(), Value::Real(11.0));
        assert!(lazy.get(&[3, 0]).is_none());
        assert!(lazy.is_lazy() && !eager.is_lazy());
    }

    #[test]
    fn lazy_point_read_touches_one_chunk() {
        let (lazy, base) = (lazy_iota(vec![10, 10], vec![2, 10]), aql_store::stats::global());
        assert_eq!(lazy.try_get(&[5, 5]).unwrap(), Some(Value::Real(55.0)));
        let stats = aql_store::stats::global().delta_since(&base);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.bytes_read, 20 * 8);
    }

    #[test]
    fn lazy_value_at_matches_get_for_any_rank() {
        // Rank 1, rank 3, rank 10 (no fixed-size index buffer to
        // outgrow), all with clipped edge chunks.
        let cases: [(Vec<u64>, Vec<u64>); 3] = [
            (vec![7], vec![3]),
            (vec![5, 4, 3], vec![2, 3, 2]),
            (vec![2, 3, 1, 2, 2, 1, 3, 2, 1, 2], vec![1, 2, 1, 2, 1, 1, 2, 2, 1, 1]),
        ];
        for (dims, chunk) in cases {
            let a = lazy_iota(dims.clone(), chunk);
            for off in 0..a.len() {
                let idx = a.unoffset(off as u64);
                let by_offset = a.try_value_at(off).unwrap();
                assert_eq!(by_offset, Some(Value::Real(off as f64)), "{dims:?} @ {off}");
                // The store's own index path, which never sees the offset.
                let ArrayData::Lazy(l) = a.array_data() else { unreachable!("bound lazily") };
                let by_index = l.borrow_mut().get(&idx).unwrap();
                assert_eq!(by_index, Some(Scalar::F64(off as f64)), "{dims:?} @ {idx:?}");
            }
        }
        // The last element of the array is the last element of the
        // chunk clipped on every axis.
        let a = lazy_iota(vec![5, 4, 3], vec![2, 3, 2]);
        assert_eq!(a.try_value_at(59).unwrap(), Some(Value::Real(59.0)));
        assert_eq!(a.try_get(&[4, 3, 2]).unwrap(), Some(Value::Real(59.0)));
    }

    #[test]
    fn lazy_value_at_past_the_end_never_reaches_the_cache() {
        let base = aql_store::stats::global();
        let a = lazy_iota(vec![5, 4, 3], vec![2, 3, 2]);
        for off in [60, 61, usize::MAX] {
            assert_eq!(a.try_value_at(off).unwrap(), None);
        }
        // Zero-extent dimensions: every offset is past the end.
        let empty = lazy_iota(vec![4, 0, 3], vec![2, 2, 2]);
        assert!(empty.is_empty());
        assert_eq!(empty.try_value_at(0).unwrap(), None);
        assert_eq!(empty.try_get(&[0, 0, 0]).unwrap(), None);
        let s = aql_store::stats::global().delta_since(&base);
        assert_eq!((s.hits, s.misses), (0, 0), "no lookup was recorded");
    }

    #[test]
    fn lazy_load_failure_is_bottom_or_error() {
        struct FailSource;
        impl ChunkSource for FailSource {
            fn read_chunk(&mut self, _s: &[u64], _c: &[u64]) -> Result<ScalarBuf, StoreError> {
                Err(StoreError::io("disk on fire"))
            }
        }
        let layout = ChunkLayout::new(vec![4], vec![2]).unwrap();
        let la = LazyArray::new(layout, ScalarKind::F64, Box::new(FailSource), 1 << 10);
        let a = ArrayVal::lazy(la).unwrap();
        assert_eq!(a.value_at(0), Value::Bottom);
        assert!(matches!(a.try_get(&[0]), Err(EvalError::Storage { .. })));
        assert!(a.try_get(&[9]).unwrap().is_none(), "OOB beats storage error");
    }
}
