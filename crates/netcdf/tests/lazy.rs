//! Lazy chunked binding vs. the materialized hyperslab path, and
//! fault propagation through the chunk cache.
//!
//! Two suites:
//!
//! * property tests — a lazily bound array must agree
//!   element-for-element with `SlabReader::read_slab` over random
//!   subslabs and chunk shapes, including edge chunks;
//! * fault-injection tests — a `FaultyIo`-backed chunk source, under
//!   the resilience stack every reader binds it in, must heal a
//!   transient fault within one chunk load, propagate persistent and
//!   corrupt failures, and never poison chunks already cached.

use std::cell::Cell;
use std::io::Cursor;
use std::rc::Rc;

use proptest::prelude::*;

use aql_netcdf::chunk::NcChunkSource;
use aql_netcdf::format::{NcType, VERSION_CLASSIC};
use aql_netcdf::io::{FaultPlan, FaultyIo};
use aql_netcdf::model::{NcFile, NcValues};
use aql_netcdf::read::SlabReader;
use aql_netcdf::write::to_bytes;
use aql_store::{
    ChunkLayout, LazyArray, ResiliencePolicy, ResilientSource, Scalar, ScalarKind, StoreError,
};

/// A 6×5×4 double variable with distinct values.
fn sample_bytes() -> Vec<u8> {
    let mut f = NcFile::new();
    let a = f.add_dim("a", 6);
    let b = f.add_dim("b", 5);
    let c = f.add_dim("c", 4);
    let vals: Vec<f64> = (0..6 * 5 * 4).map(|i| i as f64 * 0.25).collect();
    f.add_var("v", vec![a, b, c], NcType::Double, vec![], NcValues::Double(vals)).unwrap();
    to_bytes(&f, VERSION_CLASSIC).unwrap()
}

/// Bind `(start, count)` of variable `v` lazily with the given chunk
/// shape.
fn bind_lazy(bytes: Vec<u8>, start: Vec<u64>, count: Vec<u64>, chunk: Vec<u64>) -> LazyArray {
    let layout = ChunkLayout::new(count, chunk).unwrap();
    let source = NcChunkSource::new(move || Ok(Cursor::new(bytes.clone())), "v", start);
    LazyArray::new(layout, ScalarKind::F64, Box::new(source), 1 << 16)
}

/// Random in-bounds subslab of the 6×5×4 variable plus a chunk shape.
fn arb_slab() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<u64>)> {
    (
        (0u64..6, 0u64..5, 0u64..4),
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        (1u64..4, 1u64..4, 1u64..4),
    )
        .prop_map(|((s0, s1, s2), (f0, f1, f2), (c0, c1, c2))| {
            let dims = [6u64, 5, 4];
            let start = vec![s0, s1, s2];
            let count: Vec<u64> = start
                .iter()
                .zip([f0, f1, f2])
                .zip(dims)
                .map(|((&s, f), d)| 1 + ((f * (d - s) as f64).floor() as u64).min(d - s - 1))
                .collect();
            (start, count, vec![c0, c1, c2])
        })
}

proptest! {
    /// Every element of a lazily bound subslab equals the
    /// corresponding element of the eagerly materialized slab.
    #[test]
    fn lazy_binding_matches_read_slab((start, count, chunk) in arb_slab()) {
        let bytes = sample_bytes();
        let mut reader = SlabReader::from_source(Cursor::new(bytes.clone())).unwrap();
        let want = reader.read_slab("v", &start, &count).unwrap();
        let mut lazy = bind_lazy(bytes, start, count.clone(), chunk);

        let n: u64 = count.iter().product();
        for off in 0..n {
            let got = lazy.get_linear(off).unwrap().unwrap();
            let Scalar::F64(x) = got else { panic!("f64 variable") };
            prop_assert_eq!(x, want.get_f64(off as usize).unwrap());
        }
        // Full-slab extraction agrees too (exercises edge chunks).
        let buf = lazy.read_slab(&[0; 3], &count).unwrap();
        for off in 0..n as usize {
            let Scalar::F64(x) = buf.get(off).unwrap() else { panic!("f64 variable") };
            prop_assert_eq!(x, want.get_f64(off).unwrap());
        }
    }
}

#[test]
fn transient_fault_retries_within_one_chunk_load() {
    let bytes = sample_bytes();
    let attempts = Rc::new(Cell::new(0u32));
    let a2 = Rc::clone(&attempts);
    let layout = ChunkLayout::new(vec![6, 5, 4], vec![2, 5, 4]).unwrap();
    let source = NcChunkSource::new(
        move || {
            let n = a2.get() + 1;
            a2.set(n);
            // First attempt of the first chunk load fails transiently.
            let plan =
                if n == 1 { FaultPlan::new().transient_at(0) } else { FaultPlan::new() };
            Ok(FaultyIo::new(Cursor::new(bytes.clone()), plan))
        },
        "v",
        vec![0, 0, 0],
    );
    // Bound the way the driver binds it: the store's stack is what
    // retries, the source reads once per request.
    let source = ResilientSource::new(source, "netcdf:v", ResiliencePolicy::default());
    let mut lazy = LazyArray::new(layout, ScalarKind::F64, Box::new(source), 1 << 16);

    assert_eq!(lazy.get(&[0, 0, 0]).unwrap(), Some(Scalar::F64(0.0)));
    assert_eq!(attempts.get(), 2, "one failed attempt + one retry");
    let s = lazy.stats();
    assert_eq!((s.misses, s.load_errors), (1, 0), "retry is invisible to the cache");

    // The chunk was cached despite the bumpy load: no further opens.
    assert_eq!(lazy.get(&[1, 4, 3]).unwrap(), Some(Scalar::F64(39.0 * 0.25)));
    assert_eq!(attempts.get(), 2);
    assert_eq!(lazy.stats().hits, 1);
}

#[test]
fn persistent_fault_propagates_without_poisoning_cache() {
    let bytes = sample_bytes();
    // Chunks are 2×5×4 = 40 elements: chunk 0 covers a ∈ {0,1},
    // chunk 1 covers a ∈ {2,3}, chunk 2 covers a ∈ {4,5}.
    let layout = ChunkLayout::new(vec![6, 5, 4], vec![2, 5, 4]).unwrap();
    let failing = Rc::new(Cell::new(false));
    let f2 = Rc::clone(&failing);
    let source = NcChunkSource::new(
        move || {
            let plan = if f2.get() {
                FaultPlan::new().persistent_from(0)
            } else {
                FaultPlan::new()
            };
            Ok(FaultyIo::new(Cursor::new(bytes.clone()), plan))
        },
        "v",
        vec![0, 0, 0],
    );
    let mut lazy = LazyArray::new(layout, ScalarKind::F64, Box::new(source), 1 << 16);

    // Healthy load of chunk 0.
    assert_eq!(lazy.get(&[0, 0, 0]).unwrap(), Some(Scalar::F64(0.0)));

    // The device goes down: chunk 1 fails persistently (no retry).
    failing.set(true);
    let err = lazy.get(&[2, 0, 0]).unwrap_err();
    assert!(matches!(err, StoreError::Io { transient: false, .. }), "got {err:?}");
    assert_eq!(lazy.stats().load_errors, 1);

    // Chunk 0 is still served from cache — the failed load poisoned
    // nothing.
    assert_eq!(lazy.get(&[1, 0, 0]).unwrap(), Some(Scalar::F64(20.0 * 0.25)));
    assert_eq!(lazy.stats().hits, 1);

    // The device recovers: chunk 1 loads and caches normally.
    failing.set(false);
    assert_eq!(lazy.get(&[2, 0, 0]).unwrap(), Some(Scalar::F64(40.0 * 0.25)));
    assert_eq!(lazy.get(&[2, 0, 1]).unwrap(), Some(Scalar::F64(41.0 * 0.25)));
    let s = lazy.stats();
    assert_eq!((s.misses, s.load_errors, s.hits), (3, 1, 2));
}

#[test]
fn corrupt_header_fails_as_corrupt_not_cached() {
    let bytes = sample_bytes();
    // Flip a byte in the magic so the per-chunk open parses garbage.
    let layout = ChunkLayout::new(vec![6, 5, 4], vec![6, 5, 4]).unwrap();
    let source = NcChunkSource::new(
        move || {
            Ok(FaultyIo::new(
                Cursor::new(bytes.clone()),
                FaultPlan::new().corrupt_byte(0, 0xFF),
            ))
        },
        "v",
        vec![0, 0, 0],
    );
    let mut lazy = LazyArray::new(layout, ScalarKind::F64, Box::new(source), 1 << 16);
    let err = lazy.get(&[0, 0, 0]).unwrap_err();
    // A mangled header surfaces as a non-transient storage failure
    // (corrupt or format, depending on where parsing trips), and the
    // cache records the failed load without caching anything.
    assert_eq!(err.class(), aql_store::FaultClass::Fatal, "got {err:?}");
    let s = lazy.stats();
    assert_eq!((s.misses, s.load_errors, s.bytes_read), (1, 1, 0));
}
