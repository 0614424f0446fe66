//! Sample arithmetic and `/proc` readings.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of an ascending-sorted slice.
pub fn quantile_sorted<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile, if at least ten samples lie beyond it — a
/// percentile with fewer is one or two outliers, not a measurement.
pub fn supported_quantile<T: Copy + Default>(sorted: &[T], q: f64) -> Option<T> {
    ((sorted.len() as f64) * (1.0 - q) >= 10.0).then(|| quantile_sorted(sorted, q))
}

/// The reported timing of a run: the median of its quietest round,
/// given every round's median.
///
/// On a shared machine other tenants only ever add time (memory-bound
/// work here runs up to 1.5× slower for seconds at a stretch while an
/// ALU loop holds within 1 %), so the median over a whole run follows
/// the neighbours, and the quietest round's median follows the code.
pub fn quietest(round_medians: &[f64]) -> f64 {
    round_medians
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .unwrap_or(0.0)
}

/// How well the quietest round is corroborated: the gap from it to the
/// fifth-quietest, as a share of it. A run that never saw a quiet
/// moment has a wide gap (and 1.0 with fewer than five rounds).
pub fn round_spread(round_medians: &[f64]) -> f64 {
    let mut meds = round_medians.to_vec();
    meds.sort_by(f64::total_cmp);
    match (meds.first(), meds.get(4)) {
        (Some(&lo), Some(&fifth)) if lo > 0.0 => (fifth - lo) / lo,
        _ => 1.0,
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// On-CPU seconds of this process so far: every thread, exited ones
/// included, at nanosecond resolution (`/proc/self/stat` counts the
/// same time in 10 ms ticks, too coarse for one round).
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, and `Timespec` has that struct's layout on 64-bit Linux
    // (two 64-bit signed fields); the pointer is to a live local.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size in MB (`VmHWM`, reported in kB) from the
/// text of `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mb(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 200 samples: p95 leaves 10 beyond, p99 leaves 2.
        let v: Vec<u32> = (1..=200).collect();
        assert_eq!(supported_quantile(&v, 0.95), Some(190));
        assert_eq!(supported_quantile(&v, 0.99), None);
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(supported_quantile(&v, 0.99), Some(990));
        assert_eq!(quantile_sorted(&v, 0.5), 500);
        assert_eq!(quantile_sorted::<u32>(&[], 0.5), 0);
    }

    #[test]
    fn quietest_round_and_its_corroboration() {
        // A round's median, as the runner takes it.
        assert_eq!(median(&[1.0, 2.0, 30.0]), 2.0);
        let mut rounds = vec![2.0, 4.0, 3.0];
        assert_eq!(quietest(&rounds), 2.0);
        // Fewer than five rounds corroborate nothing.
        assert_eq!(round_spread(&rounds), 1.0);
        rounds.extend([2.5, 2.2, 9.0]);
        // Ascending: 2, 2.2, 2.5, 3, 4, 9 — the fifth is 4.
        assert_eq!(quietest(&rounds), 2.0);
        assert!((round_spread(&rounds) - 1.0).abs() < 1e-12);
        assert_eq!(quietest(&[]), 0.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = cpu_seconds();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(cpu_seconds() > t0, "{x}");
    }

    #[test]
    fn proc_status_hwm() {
        let status = "Name:\tx\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(20.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
    }
}
