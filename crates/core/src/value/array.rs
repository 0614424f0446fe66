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
//! * `F64` / `Nat` / `Bool` — homogeneous arrays tabulated as unboxed
//!   flat buffers (an eighth of the memory, no pointer chasing);
//! * `Lazy` — the function *not* tabulated: an `aql-store`
//!   [`LazyArray`] that fetches row-major chunks from a
//!   [`ChunkSource`](aql_store::ChunkSource) through a budgeted LRU
//!   cache, so only the elements a query touches ever leave disk.
//!
//! Element access is uniform across all variants via [`ArrayVal::get`]
//! / [`ArrayVal::value_at`]. Lazy reads can fail in the storage layer;
//! fallible callers (the evaluator's subscript path) use
//! [`ArrayVal::try_get`] and surface a proper
//! [`EvalError::Storage`], while infallible contexts (ordering,
//! printing, equality) map storage errors to the error value `⊥` —
//! consistent with the paper's treatment of partiality.

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use aql_store::{CacheStats, LazyArray, PrefetchStats, Scalar};

use crate::error::EvalError;

use super::Value;

/// The element store behind an [`ArrayVal`].
#[derive(Debug, Clone)]
pub enum ArrayData {
    /// Boxed values in row-major order (heterogeneous or non-scalar
    /// element types).
    Materialized(Vec<Value>),
    /// Unboxed reals in row-major order.
    F64(Vec<f64>),
    /// Unboxed naturals in row-major order.
    Nat(Vec<u64>),
    /// Unboxed booleans in row-major order.
    Bool(Vec<bool>),
    /// A chunked on-demand array; shared so cloning an array value
    /// shares one cache rather than duplicating it.
    Lazy(Rc<RefCell<LazyArray>>),
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
    /// The cache's lifetime counters.
    pub stats: CacheStats,
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

/// Collapse a homogeneous scalar vector into a typed flat buffer;
/// heterogeneous or non-scalar data stays materialized.
fn specialize(data: Vec<Value>) -> ArrayData {
    match data.first() {
        Some(Value::Real(_)) if data.iter().all(|v| matches!(v, Value::Real(_))) => {
            ArrayData::F64(
                data.iter()
                    .map(|v| match v {
                        Value::Real(x) => *x,
                        _ => unreachable!(),
                    })
                    .collect(),
            )
        }
        Some(Value::Nat(_)) if data.iter().all(|v| matches!(v, Value::Nat(_))) => {
            ArrayData::Nat(
                data.iter()
                    .map(|v| match v {
                        Value::Nat(n) => *n,
                        _ => unreachable!(),
                    })
                    .collect(),
            )
        }
        Some(Value::Bool(_)) if data.iter().all(|v| matches!(v, Value::Bool(_))) => {
            ArrayData::Bool(
                data.iter()
                    .map(|v| match v {
                        Value::Bool(b) => *b,
                        _ => unreachable!(),
                    })
                    .collect(),
            )
        }
        _ => ArrayData::Materialized(data),
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
    /// scalar data is stored as an unboxed flat buffer.
    pub fn new(dims: Vec<u64>, data: Vec<Value>) -> Result<ArrayVal, EvalError> {
        let len = check_shape(&dims, data.len())?;
        Ok(ArrayVal { dims, len, data: specialize(data) })
    }

    /// Create an array directly over an unboxed real buffer.
    pub fn from_f64(dims: Vec<u64>, data: Vec<f64>) -> Result<ArrayVal, EvalError> {
        let len = check_shape(&dims, data.len())?;
        Ok(ArrayVal { dims, len, data: ArrayData::F64(data) })
    }

    /// Create an array directly over an unboxed natural buffer.
    pub fn from_nat(dims: Vec<u64>, data: Vec<u64>) -> Result<ArrayVal, EvalError> {
        let len = check_shape(&dims, data.len())?;
        Ok(ArrayVal { dims, len, data: ArrayData::Nat(data) })
    }

    /// Create an array directly over an unboxed boolean buffer.
    pub fn from_bool(dims: Vec<u64>, data: Vec<bool>) -> Result<ArrayVal, EvalError> {
        let len = check_shape(&dims, data.len())?;
        Ok(ArrayVal { dims, len, data: ArrayData::Bool(data) })
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

    /// Cache counters of the backing chunk cache, for lazy arrays.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match &self.data {
            ArrayData::Lazy(l) => Some(l.borrow().stats()),
            _ => None,
        }
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
                    stats: l.stats(),
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
            ArrayData::F64(v) => Ok(Some(Value::Real(v[off]))),
            ArrayData::Nat(v) => Ok(Some(Value::Nat(v[off]))),
            ArrayData::Bool(v) => Ok(Some(Value::Bool(v[off]))),
            ArrayData::Lazy(l) => {
                let s = l.borrow_mut().get_linear(off as u64).map_err(EvalError::from)?;
                Ok(s.map(scalar_to_value))
            }
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
        // Typed fast paths; `total_cmp` equality for reals is bitwise.
        match (&self.data, &other.data) {
            (ArrayData::F64(a), ArrayData::F64(b)) => {
                return a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            }
            (ArrayData::Nat(a), ArrayData::Nat(b)) => return a == b,
            (ArrayData::Bool(a), ArrayData::Bool(b)) => return a == b,
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
        assert!(matches!(a.array_data(), ArrayData::Nat(_)));
        let a = ArrayVal::new(vec![2], vec![Value::Real(1.0), Value::Real(2.0)]).unwrap();
        assert!(matches!(a.array_data(), ArrayData::F64(_)));
        let a = ArrayVal::new(vec![2], vec![Value::Bool(true), Value::Bool(false)]).unwrap();
        assert!(matches!(a.array_data(), ArrayData::Bool(_)));
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
        let lazy = lazy_iota(vec![10, 10], vec![2, 10]);
        assert_eq!(lazy.try_get(&[5, 5]).unwrap(), Some(Value::Real(55.0)));
        let stats = lazy.cache_stats().unwrap();
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
        let a = lazy_iota(vec![5, 4, 3], vec![2, 3, 2]);
        for off in [60, 61, usize::MAX] {
            assert_eq!(a.try_value_at(off).unwrap(), None);
        }
        // Zero-extent dimensions: every offset is past the end.
        let empty = lazy_iota(vec![4, 0, 3], vec![2, 2, 2]);
        assert!(empty.is_empty());
        assert_eq!(empty.try_value_at(0).unwrap(), None);
        assert_eq!(empty.try_get(&[0, 0, 0]).unwrap(), None);
        for arr in [&a, &empty] {
            let s = arr.cache_stats().unwrap();
            assert_eq!((s.hits, s.misses), (0, 0), "no lookup was recorded");
        }
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
