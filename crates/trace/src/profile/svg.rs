//! Hand-rolled SVG flamegraph renderer (no dependencies, no scripts).
//!
//! Classic flamegraph layout: one row per stack depth, one rectangle
//! per frame, width proportional to the frame's inclusive time,
//! children stacked above their parent. Deterministic output:
//! children are laid out in name order and colors are hashed from the
//! frame name, so the same profile always renders the same bytes.

use std::collections::BTreeMap;

const WIDTH: f64 = 1200.0;
const PAD: f64 = 10.0;
const ROW_H: f64 = 17.0;
const FONT_PX: f64 = 12.0;
/// Approximate glyph advance at `FONT_PX` for a monospace font; used
/// only to decide how much of a label fits.
const CHAR_W: f64 = 7.2;
const HEADER_H: f64 = 36.0;

struct Node {
    name: String,
    total: u64,
    children: Vec<Node>,
}

impl Node {
    fn child(&mut self, name: &str) -> &mut Node {
        // Keep children sorted by name for deterministic layout.
        match self.children.binary_search_by(|c| c.name.as_str().cmp(name)) {
            Ok(i) => &mut self.children[i],
            Err(i) => {
                self.children.insert(
                    i,
                    Node { name: name.to_string(), total: 0, children: Vec::new() },
                );
                &mut self.children[i]
            }
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.iter().map(Node::depth).max().unwrap_or(0)
    }
}

fn build_tree(folded: &BTreeMap<String, u64>) -> Node {
    let mut root = Node { name: "all".to_string(), total: 0, children: Vec::new() };
    for (path, &count) in folded {
        root.total += count;
        let mut cur = &mut root;
        for frame in path.split(';') {
            cur = cur.child(frame);
            cur.total += count;
        }
    }
    root
}

/// Escape text for inclusion in SVG/XML content and attributes.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(ch),
        }
    }
    out
}

/// A warm, deterministic fill color from the frame name (FNV-1a hash
/// spread over a red-to-yellow band, the conventional flame palette).
fn color(name: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let r = 205 + (h % 50) as u32; // 205..255
    let g = 60 + ((h >> 8) % 130) as u32; // 60..190
    let b = (h >> 16) % 40; // 0..40
    format!("rgb({r},{g},{b})")
}

fn render_node(
    out: &mut String,
    node: &Node,
    x: f64,
    row: usize,
    scale: f64,
    rows: usize,
    grand_total: u64,
) {
    let w = node.total as f64 * scale;
    if w < 0.3 {
        return; // sub-subpixel; children are narrower still
    }
    // Row 0 (the root) sits at the bottom, flames grow upward.
    let y = HEADER_H + (rows - 1 - row) as f64 * ROW_H;
    let pct = if grand_total == 0 {
        0.0
    } else {
        node.total as f64 * 100.0 / grand_total as f64
    };
    let name = esc(&node.name);
    out.push_str(&format!(
        "<g><title>{name} ({}, {pct:.1}%)</title>\
         <rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{h:.1}\" \
         fill=\"{fill}\" rx=\"1\"/>",
        crate::fmt_dur(node.total),
        h = ROW_H - 1.0,
        fill = color(&node.name),
    ));
    let max_chars = (w / CHAR_W) as usize;
    if max_chars >= 3 {
        let label: String = if node.name.chars().count() <= max_chars {
            name
        } else {
            let cut: String =
                node.name.chars().take(max_chars.saturating_sub(2)).collect();
            format!("{}..", esc(&cut))
        };
        out.push_str(&format!(
            "<text x=\"{tx:.1}\" y=\"{ty:.1}\" font-size=\"{FONT_PX}\" \
             font-family=\"monospace\" fill=\"#111\">{label}</text>",
            tx = x + 3.0,
            ty = y + ROW_H - 5.0,
        ));
    }
    out.push_str("</g>\n");
    let mut cx = x;
    for c in &node.children {
        render_node(out, c, cx, row + 1, scale, rows, grand_total);
        cx += c.total as f64 * scale;
    }
}

/// Render folded stacks as a complete standalone SVG document.
pub(crate) fn render(folded: &BTreeMap<String, u64>, title: &str) -> String {
    let root = build_tree(folded);
    let rows = root.depth();
    let height = HEADER_H + rows as f64 * ROW_H + PAD;
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" \
         height=\"{height:.0}\" viewBox=\"0 0 {WIDTH} {height:.0}\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#fcfcf7\"/>\n\
         <text x=\"{PAD}\" y=\"22\" font-size=\"15\" font-family=\"monospace\" \
         fill=\"#333\">flamegraph: {t} ({total})</text>\n",
        t = esc(title),
        total = crate::fmt_dur(root.total),
    ));
    if root.total > 0 {
        let scale = (WIDTH - 2.0 * PAD) / root.total as f64;
        render_node(&mut out, &root, PAD, 0, scale, rows, root.total);
    } else {
        out.push_str(&format!(
            "<text x=\"{PAD}\" y=\"{y:.0}\" font-size=\"{FONT_PX}\" \
             font-family=\"monospace\" fill=\"#777\">no samples</text>\n",
            y = HEADER_H + ROW_H,
        ));
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_output() {
        let mut folded = BTreeMap::new();
        folded.insert("a;b".to_string(), 10);
        folded.insert("a;c".to_string(), 5);
        let one = render(&folded, "t");
        let two = render(&folded, "t");
        assert_eq!(one, two);
    }

    #[test]
    fn empty_profile_renders_placeholder() {
        let svg = render(&BTreeMap::new(), "empty");
        assert!(svg.contains("no samples"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn children_partition_parent_width() {
        let mut folded = BTreeMap::new();
        folded.insert("p;l".to_string(), 50);
        folded.insert("p;r".to_string(), 50);
        let svg = render(&folded, "t");
        // Both children render and each title carries 50.0%.
        assert_eq!(svg.matches("(50ns, 50.0%)").count(), 2);
        assert!(svg.contains("(100ns, 100.0%)"));
    }
}
