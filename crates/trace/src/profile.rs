//! Flamegraphs of accounts the engine already keeps.
//!
//! A [`Profile`] is a set of collapsed stacks — `root;child;leaf` →
//! nanoseconds — with a text rendering any flamegraph tool reads and a
//! dependency-free SVG renderer. It measures nothing itself: the stacks
//! are a fold of a recorded [`Trace`] ([`Profile::from_trace`], each
//! span path weighted by its exact self time; `\flame` in the REPL) or
//! of the flight recorder's window ([`Profile::from_folded`] over
//! `aql_journal::Journal::folded`; `GET /profile`). The frames are the
//! engine's own span names — `statement → eval → cache.load` — so they
//! need no symbolization.
//!
//! ```
//! aql_trace::enable();
//! {
//!     let _root = aql_trace::span("statement");
//!     let _child = aql_trace::span("eval");
//! }
//! let profile = aql_trace::profile::Profile::from_trace(&aql_trace::disable());
//! assert!(profile.folded().contains_key("statement;eval"));
//! let _svg = profile.to_svg("my statement");
//! ```

mod svg;

use std::collections::BTreeMap;

use crate::Trace;

/// Collapsed stacks weighted in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    folded: BTreeMap<String, u64>,
}

impl Profile {
    /// The profile of a recorded trace: [`Trace::folded`], so each
    /// stack weighs exactly its span path's self time.
    pub fn from_trace(trace: &Trace) -> Profile {
        Profile::from_folded(trace.folded())
    }

    /// A profile of already-collapsed `(path, ns)` stacks.
    pub fn from_folded(stacks: impl IntoIterator<Item = (String, u64)>) -> Profile {
        let mut folded = BTreeMap::new();
        for (path, ns) in stacks {
            *folded.entry(path).or_insert(0) += ns;
        }
        Profile { folded }
    }

    /// Sum of every stack's weight, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.folded.values().sum()
    }

    /// The collapsed stacks: `"root;child;leaf"` → nanoseconds.
    pub fn folded(&self) -> &BTreeMap<String, u64> {
        &self.folded
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

    fn profile(stacks: &[(&str, u64)]) -> Profile {
        Profile::from_folded(stacks.iter().map(|&(path, ns)| (path.to_string(), ns)))
    }

    #[test]
    fn from_folded_and_folded_text() {
        // A path met twice adds up.
        let p = profile(&[
            ("statement;eval", 2),
            ("statement;eval;cache.load", 1),
            ("statement;eval", 1),
        ]);
        assert_eq!(p.total_ns(), 4);
        assert_eq!(
            p.folded_text(),
            "statement;eval 3\nstatement;eval;cache.load 1\n"
        );
        assert_eq!(p.top(1), vec![("statement;eval", 3)]);
    }

    #[test]
    fn from_trace_is_the_traces_fold() {
        crate::enable();
        {
            let _root = crate::span("statement");
            let _a = crate::span("eval");
        }
        let trace = crate::disable();
        let p = Profile::from_trace(&trace);
        let want: BTreeMap<String, u64> = trace.folded().into_iter().collect();
        assert_eq!(p.folded(), &want);
        assert_eq!(Some(p.total_ns()), trace.spans[0].dur_ns);
    }

    #[test]
    fn svg_renders_nonempty_flamegraph() {
        let p = profile(&[
            ("statement;eval", 90),
            ("statement;eval;cache.load", 10),
            ("statement;optimize", 5),
        ]);
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
        let p = profile(&[("a<b>&\"q\"", 1)]);
        let svg = p.to_svg("esc");
        assert!(!svg.contains("a<b>"));
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;q&quot;"));
    }
}
