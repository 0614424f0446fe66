//! # aql-metrics — process-lifetime metrics
//!
//! The aggregate counterpart of `aql-trace`: where a trace describes
//! *one* query in full detail and dies with it, this crate keeps
//! **durable, process-wide aggregates** — the numbers an operator of a
//! long-running session needs (total statements, cache hit ratios,
//! I/O fault rates, phase latency distributions) without profiling
//! anything.
//!
//! Three metric kinds live in one global registry:
//!
//! * [`Counter`] — a monotonically increasing `u64`, **sharded** over
//!   cache-line-padded atomics so concurrent writers on different
//!   threads do not contend (reads sum the shards).
//! * [`Gauge`] — a settable `i64` (last write wins).
//! * [`Histogram`] — log2-bucketed `u64` samples (bucket *i* ≥ 1 holds
//!   values in `[2^(i-1), 2^i)`; bucket 0 holds zero) with a sharded
//!   sum, supporting [`Histogram::quantile`] estimation (p50/p95/p99)
//!   by interpolation inside the bucket containing the rank.
//!
//! ## Overhead contract
//!
//! Recording against a resolved handle (a `&'static` [`Counter`],
//! [`Gauge`] or [`Histogram`], or a [`LazyCounter`]) is one relaxed
//! `fetch_add` — no locking, no allocation, no formatting. Looking a
//! name up (`counter`, `counter_with`, …) takes the registry mutex, and
//! the first use of a name leaks the metric: handles are `&'static`
//! and live for the process. Hot call sites resolve a handle once and
//! keep it; [`registry_locks`] lets a test hold them to that.
//!
//! ## Cardinality rules
//!
//! Label values must come from small closed sets (pipeline phase
//! names, optimizer rule names, statement kinds). Never label by
//! query text, file path, or anything user-controlled — each distinct
//! label set is a new time series that lives forever.
//!
//! ## Exposition
//!
//! [`render_prometheus`] renders the whole registry in the Prometheus
//! text format (version 0.0.4); [`http::serve`] exposes it over a
//! std-only `GET /metrics` endpoint.
//!
//! ```
//! use aql_metrics as m;
//! static QUERIES: m::LazyCounter =
//!     m::LazyCounter::new("doc_queries_total", "Queries served.");
//! QUERIES.add(1);
//! assert!(m::render_prometheus().contains("doc_queries_total 1"));
//! ```

#![warn(missing_docs)]

pub(crate) mod dashboard;
pub mod http;

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Number of write shards per counter / histogram sum. Eight padded
/// slots cover typical worker-thread counts without false sharing.
pub const SHARDS: usize = 8;

/// Number of histogram buckets: one for zero plus one per power of
/// two up to `2^64`.
pub const BUCKETS: usize = 65;

// ---- shard selection -------------------------------------------------

/// Each thread gets a fixed shard slot, assigned round-robin at first
/// use, so a thread's increments always hit the same cache line.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SLOT.with(|s| *s)
}

/// A cache-line-padded atomic, so adjacent shards never share a line.
#[repr(align(64))]
#[derive(Default)]
struct Pad(AtomicU64);

// ---- metric kinds ----------------------------------------------------

/// A monotonically increasing counter, sharded across padded atomics.
#[derive(Default)]
pub struct Counter {
    shards: [Pad; SHARDS],
}

impl Counter {
    /// Add `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if delta == 0 {
            return;
        }
        self.shards[shard_index()].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (sum over shards).
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A last-write-wins signed gauge.
#[derive(Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.v.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// The bucket index a value falls into: bucket 0 holds exactly zero;
/// bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive `[lo, hi]` range of values recorded in bucket `i`.
/// Inverse of [`bucket_of`]: `bounds_of(bucket_of(v))` contains `v`.
pub fn bounds_of(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

/// A log2-bucketed histogram of `u64` samples.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: [Pad; SHARDS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: Default::default(),
        }
    }
}

/// A point-in-time copy of a histogram, for rank arithmetic that must
/// not tear against concurrent writers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum[shard_index()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Copy out the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.iter().map(|s| s.0.load(Ordering::Relaxed)).sum(),
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`), or `None` when empty.
    /// See [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): find the bucket holding
    /// the rank-`⌈q·n⌉` observation and interpolate inside its
    /// `[lo, hi]` bounds, placing the rank-th observation at the
    /// midpoint of its `1/c` slice (so one observation reads as the
    /// bucket midpoint, not the bucket's upper bound). Never off by
    /// more than the bucket width (a factor of two). Monotone in `q`
    /// by construction: the rank, the bucket scan, and the in-bucket
    /// offset are each non-decreasing in `q`. Returns `None` when no
    /// observations were recorded; a NaN `q` is treated as the median.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.5 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bounds_of(i);
                let within = rank - seen; // 1 ..= c
                let frac = (within as f64 - 0.5) / c as f64;
                // Saturate and clamp: the f64 round trip can round the
                // top bucket's width up past `hi`.
                let off = ((hi - lo) as f64 * frac) as u64;
                return Some(lo.saturating_add(off).min(hi));
            }
            seen += c;
        }
        // Unreachable in practice (rank ≤ n); cover it conservatively.
        Some(bounds_of(BUCKETS - 1).1)
    }
}

// ---- the registry ----------------------------------------------------

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// One registered time series: the metric family name, its (sorted)
/// label pairs, and the help text given at registration.
struct Entry {
    family: String,
    labels: Vec<(String, String)>,
    help: String,
    metric: Metric,
}

/// Full key of a series: `family` or `family{k="v",…}` with labels
/// sorted by key — the exact string exposition uses.
fn series_key(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut ls: Vec<_> = labels.to_vec();
    ls.sort();
    let body: Vec<String> =
        ls.iter().map(|(k, v)| format!("{k}={:?}", v)).collect();
    format!("{family}{{{}}}", body.join(","))
}

thread_local! {
    static REGISTRY_LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Times this thread has taken the registry mutex — one per name
/// lookup, snapshot or exposition. Test hook: a path that claims to
/// work from resolved handles must leave it unchanged.
#[doc(hidden)]
pub fn registry_locks() -> u64 {
    REGISTRY_LOCKS.with(std::cell::Cell::get)
}

fn registry() -> MutexGuard<'static, HashMap<String, Entry>> {
    static REG: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();
    REGISTRY_LOCKS.with(|c| c.set(c.get() + 1));
    REG.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn register_with<T>(
    family: &str,
    labels: &[(&str, &str)],
    help: &str,
    make: impl Fn() -> Metric,
    pick: impl Fn(&Metric) -> Option<T>,
) -> T {
    let key = series_key(family, labels);
    let mut reg = registry();
    let entry = reg.entry(key).or_insert_with(|| {
        let mut ls: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        ls.sort();
        Entry {
            family: family.to_string(),
            labels: ls,
            help: help.to_string(),
            metric: make(),
        }
    });
    // A name re-registered as a different kind yields a fresh detached
    // metric rather than a panic: the misuse is visible (the detached
    // handle never appears in exposition) but can't take the host down.
    pick(&entry.metric).unwrap_or_else(|| {
        let m = make();
        pick(&m).unwrap_or_else(|| unreachable!("make and pick agree on the kind")) // lint-wall: allow
    })
}

/// Get or register the counter `name` (no labels).
pub fn counter(name: &str, help: &str) -> &'static Counter {
    counter_with(name, &[], help)
}

/// Get or register the counter `name{labels…}`. Label values must be
/// low-cardinality (see the module docs).
pub fn counter_with(name: &str, labels: &[(&str, &str)], help: &str) -> &'static Counter {
    register_with(
        name,
        labels,
        help,
        || Metric::Counter(Box::leak(Box::default())),
        |m| match m {
            Metric::Counter(c) => Some(*c),
            _ => None,
        },
    )
}

/// Get or register the gauge `name`.
pub fn gauge(name: &str, help: &str) -> &'static Gauge {
    register_with(
        name,
        &[],
        help,
        || Metric::Gauge(Box::leak(Box::default())),
        |m| match m {
            Metric::Gauge(g) => Some(*g),
            _ => None,
        },
    )
}

/// Get or register the histogram `name` (no labels).
pub fn histogram(name: &str, help: &str) -> &'static Histogram {
    histogram_with(name, &[], help)
}

/// Get or register the histogram `name{labels…}`.
pub fn histogram_with(name: &str, labels: &[(&str, &str)], help: &str) -> &'static Histogram {
    register_with(
        name,
        labels,
        help,
        || Metric::Histogram(Box::leak(Box::default())),
        |m| match m {
            Metric::Histogram(h) => Some(*h),
            _ => None,
        },
    )
}

/// Sum of every counter series in `family` (e.g. all
/// `aql_opt_rule_fires_total{phase,rule}` series). Zero if none.
pub fn family_total(family: &str) -> u64 {
    registry()
        .values()
        .filter(|e| e.family == family)
        .filter_map(|e| match e.metric {
            Metric::Counter(c) => Some(c.get()),
            _ => None,
        })
        .sum()
}

// ---- cached handles for hot call sites -------------------------------

/// A `static`-friendly counter handle: the registry lookup happens
/// once, on first use, after which it dereferences to the registered
/// [`Counter`] — an `add` is one sharded `fetch_add`.
pub struct LazyCounter {
    name: &'static str,
    help: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// Declare a counter bound lazily to `name`.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        LazyCounter { name, help, cell: OnceLock::new() }
    }
}

impl std::ops::Deref for LazyCounter {
    type Target = Counter;

    /// Resolve the underlying counter (registering it if needed).
    fn deref(&self) -> &Counter {
        self.cell.get_or_init(|| counter(self.name, self.help))
    }
}

// ---- snapshots and exposition ----------------------------------------

/// The values label `label` takes over the series of `family`, as they
/// were registered, sorted.
pub(crate) fn label_values(family: &str, label: &str) -> Vec<String> {
    let reg = registry();
    let mut out: Vec<String> = reg
        .values()
        .filter(|e| e.family == family)
        .filter_map(|e| e.labels.iter().find(|(k, _)| k == label).map(|(_, v)| v.clone()))
        .collect();
    out.sort();
    out
}

/// A flat numeric snapshot of the registry: every counter and gauge as
/// its series key, every histogram as `<key>_count` / `<key>_sum` /
/// `<key>_p50` / `<key>_p95` / `<key>_p99`. Sorted by key; gauges
/// clamp below zero. This is what `QueryReport` embeds.
pub fn snapshot() -> Vec<(String, u64)> {
    let reg = registry();
    let mut out: Vec<(String, u64)> = Vec::with_capacity(reg.len());
    for (key, e) in reg.iter() {
        match e.metric {
            Metric::Counter(c) => out.push((key.clone(), c.get())),
            Metric::Gauge(g) => out.push((key.clone(), g.get().max(0) as u64)),
            Metric::Histogram(h) => {
                let s = h.snapshot();
                out.push((format!("{key}_count"), s.count()));
                out.push((format!("{key}_sum"), s.sum));
                for (q, tag) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
                    out.push((format!("{key}_{tag}"), s.quantile(q).unwrap_or(0)));
                }
            }
        }
    }
    out.sort();
    out
}

/// Render the whole registry in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers per family, one line
/// per series, histograms as cumulative `_bucket{le=…}` plus `_sum`
/// and `_count`. Output is sorted (family, then labels) so it is
/// deterministic for a fixed registry state.
pub fn render_prometheus() -> String {
    use std::fmt::Write as _;
    let reg = registry();
    // Sort by (family, series key) so every family's series are
    // contiguous and get exactly one HELP/TYPE header, even when one
    // family name is a prefix of another.
    let mut keys: Vec<(&String, &String)> =
        reg.iter().map(|(k, e)| (&e.family, k)).collect();
    keys.sort();
    let mut out = String::new();
    let mut last_family = String::new();
    for (_, key) in keys {
        let Some(e) = reg.get(key) else { continue };
        if e.family != last_family {
            let kind = match e.metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            let help = if e.help.is_empty() { "(no help)" } else { &e.help };
            let _ = writeln!(out, "# HELP {} {}", e.family, help);
            let _ = writeln!(out, "# TYPE {} {}", e.family, kind);
            last_family = e.family.clone();
        }
        match e.metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "{key} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "{key} {}", g.get());
            }
            Metric::Histogram(h) => {
                let s = h.snapshot();
                let highest =
                    s.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
                let mut cum = 0u64;
                for (i, &c) in s.buckets.iter().enumerate().take(highest + 1) {
                    cum += c;
                    let le = bounds_of(i).1;
                    let _ = writeln!(
                        out,
                        "{} {cum}",
                        series_with(&e.family, &e.labels, "_bucket", Some(&le.to_string()))
                    );
                }
                let _ = writeln!(
                    out,
                    "{} {}",
                    series_with(&e.family, &e.labels, "_bucket", Some("+Inf")),
                    s.count()
                );
                let _ = writeln!(
                    out,
                    "{} {}",
                    series_with(&e.family, &e.labels, "_sum", None),
                    s.sum
                );
                let _ = writeln!(
                    out,
                    "{} {}",
                    series_with(&e.family, &e.labels, "_count", None),
                    s.count()
                );
            }
        }
    }
    out
}

/// `family<suffix>{labels…,le="…"}` — a histogram component series.
fn series_with(
    family: &str,
    labels: &[(String, String)],
    suffix: &str,
    le: Option<&str>,
) -> String {
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    if let Some(le) = le {
        parts.push(format!("le={le:?}"));
    }
    if parts.is_empty() {
        format!("{family}{suffix}")
    } else {
        format!("{family}{suffix}{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let a = counter("t_lib_hits_total", "Test counter.");
        let b = counter("t_lib_hits_total", "Test counter.");
        let before = a.get();
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), before + 7);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let x = counter_with("t_lib_fires_total", &[("rule", "beta")], "f");
        let y = counter_with("t_lib_fires_total", &[("rule", "delta")], "f");
        x.add(2);
        y.add(5);
        assert_eq!(family_total("t_lib_fires_total"), 7);
        // Label order does not matter for identity.
        let x2 = counter_with(
            "t_lib_two_labels_total",
            &[("b", "2"), ("a", "1")],
            "f",
        );
        let x3 = counter_with(
            "t_lib_two_labels_total",
            &[("a", "1"), ("b", "2")],
            "f",
        );
        x2.add(1);
        assert_eq!(x3.get(), 1);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = gauge("t_lib_gauge", "g");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = histogram("t_lib_hist_ns", "h");
        for v in [0u64, 1, 1, 2, 3, 900, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 7);
        assert_eq!(s.sum, 1907);
        assert_eq!(s.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(s.buckets[1], 2, "ones in [1,1]");
        assert_eq!(s.buckets[2], 2, "2 and 3 in [2,3]");
        assert_eq!(s.buckets[10], 2, "900 and 1000 in [512,1023]");
        // Quantiles are within the containing bucket's bounds.
        let p99 = s.quantile(0.99).expect("nonempty");
        assert!((512..=1023).contains(&p99), "{p99}");
        assert_eq!(histogram("t_lib_empty_hist", "h").quantile(0.5), None);
    }

    #[test]
    fn quantile_zero_samples_is_none_for_all_q() {
        let h = histogram("t_q_empty_ns", "h");
        for q in [0.0, 0.5, 0.95, 0.99, 1.0, f64::NAN, -1.0, 2.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
    }

    #[test]
    fn quantile_single_sample_is_flat_and_in_bucket() {
        let h = histogram("t_q_single_ns", "h");
        h.observe(700); // bucket [512, 1023]
        let s = h.snapshot();
        let p50 = s.quantile(0.5).expect("nonempty");
        // With one observation every quantile is the same estimate…
        assert_eq!(s.quantile(0.95), Some(p50));
        assert_eq!(s.quantile(0.99), Some(p50));
        assert_eq!(s.quantile(0.0), Some(p50));
        assert_eq!(s.quantile(1.0), Some(p50));
        // …and it sits inside the sample's bucket, at its midpoint
        // rather than pinned to the bucket's upper bound.
        assert!((512..=1023).contains(&p50), "{p50}");
        assert_eq!(p50, 512 + (1023 - 512) / 2);
    }

    #[test]
    fn quantile_all_in_one_bucket_is_monotone_within_bounds() {
        let h = histogram("t_q_onebucket_ns", "h");
        for _ in 0..100 {
            h.observe(3000); // bucket [2048, 4095]
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5).expect("nonempty");
        let p95 = s.quantile(0.95).expect("nonempty");
        let p99 = s.quantile(0.99).expect("nonempty");
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        for p in [p50, p95, p99] {
            assert!((2048..=4095).contains(&p), "{p}");
        }
        // Degenerate bucket 0 (all zeros) stays exact.
        let hz = histogram("t_q_zeros_ns", "h");
        for _ in 0..10 {
            hz.observe(0);
        }
        assert_eq!(hz.quantile(0.5), Some(0));
        assert_eq!(hz.quantile(0.99), Some(0));
    }

    #[test]
    fn quantile_is_monotone_in_q_and_nan_is_median() {
        let h = histogram("t_q_monotone_ns", "h");
        for v in [1u64, 5, 9, 80, 700, 700, 6000, 50_000, 50_000, 1 << 40] {
            h.observe(v);
        }
        let s = h.snapshot();
        let mut last = 0u64;
        for i in 0..=100 {
            let v = s.quantile(i as f64 / 100.0).expect("nonempty");
            assert!(v >= last, "q={i}%: {v} < {last}");
            last = v;
        }
        assert_eq!(s.quantile(f64::NAN), s.quantile(0.5));
        // Out-of-range q clamps to the extremes.
        assert_eq!(s.quantile(-3.0), s.quantile(0.0));
        assert_eq!(s.quantile(7.0), s.quantile(1.0));
    }

    #[test]
    fn prometheus_rendering_shapes() {
        counter("t_expo_a_total", "A test counter.").add(2);
        let h = histogram_with("t_expo_lat_ns", &[("phase", "eval")], "Latency.");
        h.observe(3);
        h.observe(100);
        let text = render_prometheus();
        assert!(text.contains("# HELP t_expo_a_total A test counter."), "{text}");
        assert!(text.contains("# TYPE t_expo_a_total counter"), "{text}");
        assert!(text.contains("t_expo_a_total 2"), "{text}");
        assert!(text.contains("# TYPE t_expo_lat_ns histogram"), "{text}");
        assert!(
            text.contains("t_expo_lat_ns_bucket{phase=\"eval\",le=\"3\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("t_expo_lat_ns_bucket{phase=\"eval\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("t_expo_lat_ns_sum{phase=\"eval\"} 103"), "{text}");
        assert!(text.contains("t_expo_lat_ns_count{phase=\"eval\"} 2"), "{text}");
    }

    #[test]
    fn snapshot_is_sorted_and_covers_histograms() {
        counter("t_snap_c_total", "c").add(1);
        histogram("t_snap_h_ns", "h").observe(7);
        let snap = snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "snapshot must be sorted");
        assert!(snap.iter().any(|(k, v)| k == "t_snap_c_total" && *v >= 1));
        assert!(snap.iter().any(|(k, _)| k == "t_snap_h_ns_count"));
        assert!(snap.iter().any(|(k, _)| k == "t_snap_h_ns_p99"));
    }

    #[test]
    fn lazy_handles_resolve_once() {
        static C: LazyCounter = LazyCounter::new("t_lazy_total", "lazy");
        C.add(2);
        C.inc();
        assert_eq!(C.get(), 3);
        // Only a name lookup takes the registry lock.
        let locks = registry_locks();
        C.add(1);
        assert_eq!(registry_locks(), locks, "a resolved handle never looks its name up again");
        counter("t_lazy_total", "lazy");
        assert_eq!(registry_locks(), locks + 1);
    }

    #[test]
    fn bucket_bounds_invert() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let (lo, hi) = bounds_of(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} not in [{lo}, {hi}]");
        }
    }
}
