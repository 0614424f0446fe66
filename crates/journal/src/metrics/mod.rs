//! Process-lifetime metrics.
//!
//! The aggregate counterpart of `aql-trace`: where a trace describes
//! *one* query in full detail and dies with it, this module keeps
//! **durable, process-wide aggregates** — the numbers an operator of a
//! long-running session needs (total statements, cache hit ratios,
//! I/O fault rates, phase latency distributions) without profiling
//! anything.
//!
//! Three metric kinds live in one global registry:
//!
//! * [`Counter`] — a monotonically increasing `u64`: one relaxed atomic.
//! * [`Gauge`] — an `i64` high-water mark (the largest value raised to).
//! * [`Histogram`] — log2-bucketed `u64` samples (bucket *i* ≥ 1 holds
//!   values in `[2^(i-1), 2^i)`; bucket 0 holds zero) with an atomic
//!   sum, supporting [`Histogram::quantile`] estimation (p50/p95/p99)
//!   by interpolation inside the bucket containing the rank.
//!
//! ## Overhead contract
//!
//! Recording against a resolved handle (a `&'static` [`Counter`],
//! [`Gauge`] or [`Histogram`], or a [`LazyCounter`]) is one relaxed
//! `fetch_add` — no locking, no allocation, no formatting. A session
//! records from its one thread (values are `Rc`); a configured read-ahead
//! worker is the only other writer, so there is no contention to shard
//! for. Looking a name up (`counter`, `counter_with`, …) takes the
//! registry mutex, and the first use of a name leaks the metric:
//! handles are `&'static` and live for the process. Hot call sites
//! resolve a handle once and keep it; [`registry_locks`] lets a test
//! hold them to that.
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
//! std-only `GET /metrics` endpoint, beside the dashboard and the
//! flight recorder's live profile.
//!
//! ```
//! use aql_journal::metrics as m;
//! static QUERIES: m::LazyCounter =
//!     m::LazyCounter::new("doc_queries_total", "Queries served.");
//! QUERIES.add(1);
//! assert!(m::render_prometheus().contains("doc_queries_total 1"));
//! ```

mod dashboard;
pub mod http;

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Number of histogram buckets: one for zero plus one per power of
/// two up to `2^64`.
pub const BUCKETS: usize = 65;

// ---- metric kinds ----------------------------------------------------

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if delta == 0 {
            return;
        }
        self.v.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A signed high-water mark: the largest value raised to.
#[derive(Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Raise the gauge to `v`, if `v` is larger.
    pub fn raise(&self, v: i64) {
        self.v.fetch_max(v, Ordering::Relaxed);
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
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
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
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Copy out the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
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

impl Metric {
    /// The values [`snapshot`] lists for the series, with their key
    /// suffixes.
    fn read(&self) -> (&'static [&'static str], [u64; 5]) {
        match *self {
            Metric::Counter(c) => (&[""], [c.get(), 0, 0, 0, 0]),
            Metric::Gauge(g) => (&[""], [g.get().max(0) as u64, 0, 0, 0, 0]),
            Metric::Histogram(h) => {
                let (s, keys) = (h.snapshot(), &["_count", "_sum", "_p50", "_p95", "_p99"]);
                let q = |q| s.quantile(q).unwrap_or(0);
                (keys, [s.count(), s.sum, q(0.5), q(0.95), q(0.99)])
            }
        }
    }
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
    let mut ls: Vec<_> = labels.to_vec();
    ls.sort();
    series(family, "", &ls)
}

/// `family<suffix>{k="v",…}` with `labels` in the order given, or
/// `family<suffix>` when there are none.
fn series(family: &str, suffix: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return format!("{family}{suffix}");
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    format!("{family}{suffix}{{{}}}", body.join(","))
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
    let is_counter = |e: &&Entry| e.family == family && matches!(e.metric, Metric::Counter(_));
    registry().values().filter(is_counter).map(|e| e.metric.read().1[0]).sum()
}

// ---- cached handles for hot call sites -------------------------------

/// A `static`-friendly counter handle: the registry lookup happens
/// once, on first use, after which it dereferences to the registered
/// [`Counter`] — an `add` is one `fetch_add`.
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
/// clamp below zero. The REPL's `\metrics;` and the dashboard read it.
pub fn snapshot() -> Vec<(String, u64)> {
    let reg = registry();
    let mut out: Vec<(String, u64)> = Vec::with_capacity(reg.len());
    for (key, e) in reg.iter() {
        let (suffixes, vals) = e.metric.read();
        out.extend(suffixes.iter().zip(vals).map(|(sfx, v)| (format!("{key}{sfx}"), v)));
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
    let mut keys: Vec<(&String, &String, &Entry)> = reg.iter().map(|(k, e)| (&e.family, k, e)).collect();
    keys.sort_by_key(|&(family, key, _)| (family, key));
    let mut out = String::new();
    let mut last_family = String::new();
    for (_, key, e) in keys {
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
                let mut line = |suffix, le: Option<&str>, v: u64| {
                    let labels = e.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                    let labels: Vec<_> = labels.chain(le.map(|le| ("le", le))).collect();
                    let _ = writeln!(out, "{} {v}", series(&e.family, suffix, &labels));
                };
                let highest = s.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
                let mut cum = 0u64;
                for (i, &c) in s.buckets.iter().enumerate().take(highest + 1) {
                    cum += c;
                    line("_bucket", Some(&bounds_of(i).1.to_string()), cum);
                }
                line("_bucket", Some("+Inf"), s.count());
                line("_sum", None, s.sum);
                line("_count", None, s.count());
            }
        }
    }
    out
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
    fn a_gauge_keeps_the_largest_value() {
        let g = gauge("t_lib_gauge", "g");
        g.raise(5);
        g.raise(3);
        assert_eq!(g.get(), 5);
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
