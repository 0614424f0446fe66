//! Continuous span-sampling profiler for the AQL engine.
//!
//! `aql-trace` gives exact per-span timings, but only for runs started
//! with tracing enabled, and only after the fact. This crate answers
//! the live question — *where is the engine spending time right now* —
//! by sampling, at a configurable frequency, every registered thread's
//! currently-open span path (published lock-free by
//! [`aql_trace::livepath`]) and accumulating collapsed folded-stack
//! counts.
//!
//! Why span-sampling instead of stack-walking: a real stack unwinder
//! needs frame pointers or DWARF plus `unsafe` signal handling, and its
//! frames name compiler artifacts (`core::ops::function::FnOnce`), not
//! engine phases. The span stack *is* the engine's own notion of "what
//! am I doing" — `statement → eval → cache.load` — already maintained
//! by every instrumented phase, readable with one seqlock read, and
//! meaningful without symbolization.
//!
//! ```
//! let sampler = aql_profile::Sampler::start(997).expect("spawn");
//! // ... run queries on any thread ...
//! let profile = sampler.stop();
//! print!("{}", profile.folded_text());
//! let _svg = profile.to_svg("my workload");
//! ```

#![warn(missing_docs)]

mod svg;

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use aql_trace::livepath;

/// Default sampling frequency (Hz). 99 rather than 100 so the sampler
/// does not alias with common 10 ms periodic work.
pub const DEFAULT_HZ: u32 = 99;

/// An accumulated profile: collapsed folded-stack counts plus sampler
/// bookkeeping (tick count, skid).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    folded: BTreeMap<String, u64>,
    /// Samples that observed at least one open span.
    pub samples: u64,
    /// Total sampler wakeups (includes ticks that saw idle threads).
    pub ticks: u64,
    /// Ticks that fired more than half an interval late (scheduler
    /// skid); a high ratio means the requested frequency was not met.
    pub late_ticks: u64,
    /// Wall-clock time the sampler ran.
    pub duration: Duration,
    /// Requested sampling frequency.
    pub hz: u32,
}

impl Profile {
    /// True when no sample observed an open span.
    pub fn is_empty(&self) -> bool {
        self.folded.is_empty()
    }

    /// The collapsed stacks: `"root;child;leaf"` → sample count.
    pub fn folded(&self) -> &BTreeMap<String, u64> {
        &self.folded
    }

    /// Record one observed span path (root first). Exposed so callers
    /// can build profiles from their own sampling loops or tests.
    pub fn record(&mut self, frames: &[&str], count: u64) {
        if frames.is_empty() {
            return;
        }
        *self.folded.entry(frames.join(";")).or_insert(0) += count;
        self.samples += count;
    }

    /// Merge another profile's counts into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (k, v) in &other.folded {
            *self.folded.entry(k.clone()).or_insert(0) += v;
        }
        self.samples += other.samples;
        self.ticks += other.ticks;
        self.late_ticks += other.late_ticks;
        self.duration += other.duration;
    }

    /// The standard folded-stacks text format, one
    /// `path;to;frame count` line per stack, sorted by path. Feeds
    /// directly into any flamegraph tool.
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (path, n) in &self.folded {
            out.push_str(path);
            out.push(' ');
            out.push_str(&n.to_string());
            out.push('\n');
        }
        out
    }

    /// The `n` hottest stacks, by sample count descending (ties by
    /// path, for determinism).
    pub fn top(&self, n: usize) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> =
            self.folded.iter().map(|(k, &c)| (k.as_str(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(n);
        v
    }

    /// Render the profile as a self-contained SVG flamegraph (widths
    /// proportional to sample counts, hover titles with percentages).
    pub fn to_svg(&self, title: &str) -> String {
        svg::render(&self.folded, title, self.samples)
    }
}

/// A running background sampler. Create with [`Sampler::start`], then
/// [`Sampler::stop`] to retrieve the accumulated [`Profile`]. Dropping
/// without calling `stop` also shuts the thread down (discarding the
/// profile).
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<Profile>>,
}

impl Sampler {
    /// Spawn a sampler thread at `hz` samples per second (clamped to
    /// 1..=10_000) and turn on span-path publication for its lifetime.
    pub fn start(hz: u32) -> io::Result<Sampler> {
        let hz = hz.clamp(1, 10_000);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        livepath::publish_begin();
        let spawned = thread::Builder::new()
            .name("aql-profile-sampler".to_string())
            .spawn(move || run_sampler(hz, &flag));
        match spawned {
            Ok(handle) => Ok(Sampler { stop, handle: Some(handle) }),
            Err(e) => {
                livepath::publish_end();
                Err(e)
            }
        }
    }

    /// Signal the sampler to stop, join it, and return the profile.
    pub fn stop(mut self) -> Profile {
        self.shutdown().unwrap_or_default()
    }

    fn shutdown(&mut self) -> Option<Profile> {
        let handle = self.handle.take()?;
        self.stop.store(true, Ordering::SeqCst);
        handle.join().ok()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn run_sampler(hz: u32, stop: &AtomicBool) -> Profile {
    let interval = Duration::from_nanos(1_000_000_000 / u64::from(hz));
    let started = Instant::now();
    let mut next = started + interval;
    let mut profile = Profile { hz, ..Profile::default() };
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now < next {
            thread::sleep(next - now);
        } else if now > next + interval / 2 {
            profile.late_ticks += 1;
            // Re-anchor rather than replaying missed ticks in a burst.
            next = now;
        }
        next += interval;
        profile.ticks += 1;
        for sample in livepath::sample_all() {
            if !sample.frames.is_empty() {
                profile.record(&sample.frames, 1);
            }
        }
    }
    profile.duration = started.elapsed();
    livepath::publish_end();
    profile
}

/// Sample for `window` at `hz` on a background thread, blocking the
/// caller; convenience for one-shot live windows (the dashboard's
/// `GET /profile?seconds=N` endpoint).
pub fn sample_for(window: Duration, hz: u32) -> io::Result<Profile> {
    let sampler = Sampler::start(hz)?;
    thread::sleep(window);
    Ok(sampler.stop())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_folded_text() {
        let mut p = Profile::default();
        p.record(&["statement", "eval"], 3);
        p.record(&["statement", "eval", "cache.load"], 1);
        p.record(&[], 99); // ignored
        assert_eq!(p.samples, 4);
        assert_eq!(
            p.folded_text(),
            "statement;eval 3\nstatement;eval;cache.load 1\n"
        );
        assert_eq!(p.top(1), vec![("statement;eval", 3)]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Profile::default();
        a.record(&["x"], 2);
        let mut b = Profile::default();
        b.record(&["x"], 1);
        b.record(&["y"], 5);
        a.merge(&b);
        assert_eq!(a.folded().get("x"), Some(&3));
        assert_eq!(a.folded().get("y"), Some(&5));
        assert_eq!(a.samples, 8);
    }

    #[test]
    fn sampler_captures_a_busy_thread() {
        use std::sync::mpsc;
        // Publication is on for the whole test, so the worker's one
        // span is there to be seen whenever a sampler looks.
        livepath::publish_begin();
        let (opened, wait_for_opened) = mpsc::channel();
        let (release, wait_for_release) = mpsc::channel::<()>();
        let worker = thread::spawn(move || {
            let _s = aql_trace::span("pf-busy-loop");
            opened.send(()).expect("the test is waiting");
            let _ = wait_for_release.recv();
        });
        wait_for_opened.recv().expect("the span is open");
        // The span outlives every sampler below, so one that ticked at
        // all saw it. One stopped before its first tick — the only race
        // left, and it decides nothing — is started again.
        let profile = loop {
            let sampler = Sampler::start(997).expect("sampler");
            thread::sleep(Duration::from_millis(2));
            let profile = sampler.stop();
            if profile.ticks > 0 {
                break profile;
            }
        };
        release.send(()).expect("the worker is waiting");
        worker.join().expect("worker");
        livepath::publish_end();
        assert!(
            profile.folded().keys().any(|k| k.contains("pf-busy-loop")),
            "expected pf-busy-loop in {:?}",
            profile.folded()
        );
    }

    #[test]
    fn sampler_stop_is_idempotent_with_drop() {
        let s = Sampler::start(500).expect("spawn");
        drop(s); // must not hang or double-end publication
        let s2 = Sampler::start(500).expect("spawn");
        let p = s2.stop();
        assert_eq!(p.hz, 500);
    }

    #[test]
    fn svg_renders_nonempty_flamegraph() {
        let mut p = Profile::default();
        p.record(&["statement", "eval"], 90);
        p.record(&["statement", "eval", "cache.load"], 10);
        p.record(&["statement", "optimize"], 5);
        let svg = p.to_svg("unit");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("cache.load"));
        assert!(svg.contains("eval"));
        // Every rect has a hover title with a percentage.
        assert!(svg.contains("samples,"));
    }

    #[test]
    fn svg_escapes_markup_in_names() {
        let mut p = Profile::default();
        p.record(&["a<b>&\"q\""], 1);
        let svg = p.to_svg("esc");
        assert!(!svg.contains("a<b>"));
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;q&quot;"));
    }
}
