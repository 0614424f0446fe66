//! Property tests for histogram bucket arithmetic and a multi-thread
//! stress test for the metrics registry.
//!
//! The bucket properties pin down the log2 scheme: every value round
//! trips through `bucket_of` / `bounds_of`, buckets tile `u64` without
//! gaps or overlaps, and estimated quantiles are monotone in `q` and
//! bracketed by the observed extremes' buckets. The stress test proves
//! that a counter's one relaxed atomic loses no increment under
//! concurrency.

use aql_journal::metrics::{
    bounds_of, bucket_of, counter, histogram, BUCKETS, HistogramSnapshot,
};
use proptest::prelude::*;

proptest! {
    /// value → bucket → bounds round trip: every value lies inside the
    /// bounds of the bucket it maps to.
    #[test]
    fn bucket_bounds_contain_value(v in 0u64..u64::MAX) {
        let b = bucket_of(v);
        prop_assert!(b < BUCKETS);
        let (lo, hi) = bounds_of(b);
        prop_assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}] (bucket {b})");
    }

    /// Bucket bounds tile the u64 line: bucket i+1 starts exactly one
    /// past where bucket i ends.
    #[test]
    fn buckets_tile_without_gaps(i in 0usize..BUCKETS - 1) {
        let (_, hi) = bounds_of(i);
        let (lo_next, _) = bounds_of(i + 1);
        prop_assert_eq!(lo_next, hi + 1);
    }

    /// Boundary values land in the right bucket: a bucket's lower and
    /// upper bound both map back to it.
    #[test]
    fn bucket_boundaries_map_to_self(i in 0usize..BUCKETS) {
        let (lo, hi) = bounds_of(i);
        prop_assert_eq!(bucket_of(lo), i);
        prop_assert_eq!(bucket_of(hi), i);
    }

    /// Quantile estimates are monotone in q, and bounded by the
    /// buckets of the observed minimum and maximum.
    #[test]
    fn quantiles_monotone_and_bracketed(values in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut snap = HistogramSnapshot { buckets: [0; BUCKETS], sum: 0 };
        for &v in &values {
            snap.buckets[bucket_of(v)] += 1;
            snap.sum += v;
        }
        prop_assert_eq!(snap.count(), values.len() as u64);

        let qs = [0.0, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0];
        let mut prev = 0u64;
        for &q in &qs {
            let est = snap.quantile(q).expect("nonempty histogram");
            prop_assert!(est >= prev, "quantile({q}) = {est} < {prev}");
            prev = est;
        }
        let min = *values.iter().min().expect("nonempty");
        let max = *values.iter().max().expect("nonempty");
        let p0 = snap.quantile(0.0).expect("nonempty");
        let p100 = snap.quantile(1.0).expect("nonempty");
        prop_assert!(p0 >= bounds_of(bucket_of(min)).0, "{p0} vs min {min}");
        prop_assert!(p100 <= bounds_of(bucket_of(max)).1, "{p100} vs max {max}");
    }

    /// With every observation in one bucket, the estimate stays inside
    /// that bucket for every q.
    #[test]
    fn single_bucket_quantiles_stay_inside(v in 0u64..u64::MAX, n in 1u64..50) {
        let mut snap = HistogramSnapshot { buckets: [0; BUCKETS], sum: 0 };
        let b = bucket_of(v);
        snap.buckets[b] = n;
        let (lo, hi) = bounds_of(b);
        for &q in &[0.0, 0.5, 0.95, 1.0] {
            let est = snap.quantile(q).expect("nonempty");
            prop_assert!(lo <= est && est <= hi, "q={q}: {est} outside [{lo}, {hi}]");
        }
    }
}

/// The registry loses no increments under concurrency: many
/// threads hammering the same counter and histogram sum exactly.
#[test]
fn concurrent_increments_are_never_lost() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;

    let c = counter("t_stress_total", "Stress counter.");
    let h = histogram("t_stress_hist", "Stress histogram.");
    let before_c = c.get();
    let before_h = h.snapshot();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    c.add(1);
                    // Spread observations over many buckets.
                    h.observe((t as u64 + 1) * (i % 1024));
                }
            });
        }
    });

    assert_eq!(
        c.get() - before_c,
        THREADS as u64 * PER_THREAD,
        "lost counter increments"
    );
    let after = h.snapshot();
    assert_eq!(
        after.count() - before_h.count(),
        THREADS as u64 * PER_THREAD,
        "lost histogram observations"
    );
    let expected_sum: u64 = (0..THREADS as u64)
        .map(|t| (0..PER_THREAD).map(|i| (t + 1) * (i % 1024)).sum::<u64>())
        .sum();
    assert_eq!(after.sum - before_h.sum, expected_sum, "lost histogram sum");
}

/// Registration from many threads at once converges on one metric per
/// name (and never deadlocks or poisons the registry).
#[test]
fn concurrent_registration_is_safe() {
    const THREADS: usize = 8;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..32 {
                    // Leak-bounded: the same 32 names every thread.
                    let name = format!("t_reg_race_{i}_total");
                    counter(&name, "Race-registered.").add(1);
                }
            });
        }
    });
    for i in 0..32 {
        let name = format!("t_reg_race_{i}_total");
        assert_eq!(counter(&name, "Race-registered.").get(), THREADS as u64);
    }
}
