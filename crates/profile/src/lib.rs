//! Flamegraphs of accounts the engine already keeps.
//!
//! A [`Profile`] is a set of collapsed stacks — `root;child;leaf` →
//! nanoseconds — with a text rendering any flamegraph tool reads and a
//! dependency-free SVG renderer. It measures nothing itself: the stacks
//! are a fold of a recorded [`aql_trace::Trace`] ([`Profile::from_trace`],
//! each span path weighted by its exact self time; `\flame` in the
//! REPL) or of the flight recorder's window
//! ([`Profile::from_folded`] over `aql_journal::Journal::folded`;
//! `GET /profile`). The frames are the engine's own span names —
//! `statement → eval → cache.load` — so they need no symbolization.
//!
//! ```
//! aql_trace::enable();
//! {
//!     let _root = aql_trace::span("statement");
//!     let _child = aql_trace::span("eval");
//! }
//! let profile = aql_profile::Profile::from_trace(&aql_trace::disable());
//! assert!(profile.folded().contains_key("statement;eval"));
//! let _svg = profile.to_svg("my statement");
//! ```

#![warn(missing_docs)]

mod svg;

use std::collections::BTreeMap;

/// Collapsed stacks weighted in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    folded: BTreeMap<String, u64>,
}

impl Profile {
    /// The profile of a recorded trace: [`aql_trace::Trace::folded`],
    /// so each stack weighs exactly its span path's self time.
    pub fn from_trace(trace: &aql_trace::Trace) -> Profile {
        Profile::from_folded(trace.folded())
    }

    /// A profile of already-collapsed `(path, ns)` stacks.
    pub fn from_folded(stacks: impl IntoIterator<Item = (String, u64)>) -> Profile {
        let mut profile = Profile::default();
        for (path, ns) in stacks {
            profile.add(path, ns);
        }
        profile
    }

    fn add(&mut self, path: String, ns: u64) {
        *self.folded.entry(path).or_insert(0) += ns;
    }

    /// Sum of every stack's weight, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.folded.values().sum()
    }

    /// The collapsed stacks: `"root;child;leaf"` → nanoseconds.
    pub fn folded(&self) -> &BTreeMap<String, u64> {
        &self.folded
    }

    /// Add `ns` to the stack of one span path (root first).
    pub fn record(&mut self, frames: &[&str], ns: u64) {
        if !frames.is_empty() {
            self.add(frames.join(";"), ns);
        }
    }

    /// Merge another profile's stacks into this one.
    pub fn merge(&mut self, other: &Profile) {
        for (path, ns) in &other.folded {
            self.add(path.clone(), *ns);
        }
    }

    /// The standard folded-stacks text format, one
    /// `path;to;frame ns` line per stack, sorted by path. Feeds
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

    /// The `n` heaviest stacks, descending (ties by path, for
    /// determinism).
    pub fn top(&self, n: usize) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> =
            self.folded.iter().map(|(k, &c)| (k.as_str(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(n);
        v
    }

    /// Render the profile as a self-contained SVG flamegraph (widths
    /// proportional to time, hover titles with durations and
    /// percentages).
    pub fn to_svg(&self, title: &str) -> String {
        svg::render(&self.folded, title)
    }
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
        assert_eq!(p.total_ns(), 4);
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
        assert_eq!(a.total_ns(), 8);
    }

    #[test]
    fn from_trace_is_the_traces_fold() {
        aql_trace::enable();
        {
            let _root = aql_trace::span("statement");
            let _a = aql_trace::span("eval");
        }
        let trace = aql_trace::disable();
        let p = Profile::from_trace(&trace);
        let want: BTreeMap<String, u64> = trace.folded().into_iter().collect();
        assert_eq!(p.folded(), &want);
        assert_eq!(Some(p.total_ns()), trace.spans[0].dur_ns);
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
        // Every rect has a hover title with a duration and a percentage.
        assert!(svg.contains("<title>eval (100ns, 95.2%)</title>"), "{svg}");
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
