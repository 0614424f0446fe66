//! Rendering an [`Analysis`] for humans: the body of the REPL's
//! `\analyze` command.

use std::collections::HashSet;
use std::fmt::Write as _;

use aql_core::eval::{bounds, compile_observed};
use aql_core::expr::Expr;

use crate::analyze::Analysis;
use crate::cost;
use crate::elide::marks;

/// One loop nest of a term, with the kernel planner's verdict on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nest {
    /// The planner took it: it runs as a bulk kernel.
    pub kernel: bool,
    /// The nest, cut to one line (`describe`).
    pub desc: String,
}

/// The loop nests of `e` — tabulations, `Σ`s, `min!`/`max!` of a
/// comprehension — innermost first, each as [`crate::eval_elided`]
/// would compile it: planned under the same [`marks`] (`a` is the
/// analysis of `e`). A nest inside a planned nest is not listed, since
/// that kernel runs it.
pub fn nests(e: &Expr, a: &Analysis) -> Vec<Nest> {
    let (mark, on) = (marks(a), bounds::enabled());
    let mut out: Vec<(usize, Nest)> = Vec::new();
    // A term that does not compile does not run either: what compiled
    // before the error is the listing.
    let _ = compile_observed(e, &|site| if on { mark(site) } else { None }, &mut |nest, kernel| {
        if let Expr::Prim(_, args) = nest {
            if !matches!(args.as_slice(), [Expr::BigUnion { .. }]) {
                return;
            }
        }
        if kernel {
            // Nests are observed innermost first, so the ones inside
            // this one are the listing's tail.
            let mut inside = HashSet::new();
            nest.walk(&mut |n| {
                inside.insert(n as *const Expr as usize);
            });
            while out.last().is_some_and(|(at, _)| inside.contains(at)) {
                out.pop();
            }
        }
        out.push((nest as *const Expr as usize, Nest { kernel, desc: describe(nest) }));
    });
    out.into_iter().map(|(_, n)| n).collect()
}

/// Render the analysis summary of `root`, the term `a` is the analysis
/// of: inferred shape, the subscript-verdict tally, and each loop nest
/// with whether it runs as a kernel ([`nests`]).
pub fn render(a: &Analysis, root: &Expr) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "shape  : {}", a.result);
    let _ = writeln!(out, "cells  : ~{}", cost::cardinality(&a.result));
    let c = a.sub_counts();
    if c.total == 0 {
        let _ = writeln!(out, "bounds : no subscript sites");
    } else {
        let _ = writeln!(
            out,
            "bounds : {} subscript site(s): {} provably in-bounds, {} unknown, {} provably out",
            c.total, c.in_bounds, c.unknown, c.provably_out
        );
    }
    let nests = nests(root, a);
    if nests.is_empty() {
        let _ = writeln!(out, "nests  : no loop nests");
    } else {
        let kernels = nests.iter().filter(|n| n.kernel).count();
        let interpreted = nests.len() - kernels;
        let _ = writeln!(
            out,
            "nests  : {} loop nest(s): {kernels} kernel, {interpreted} interpreted",
            nests.len()
        );
        for n in &nests {
            let how = if n.kernel { "kernel" } else { "interpreted" };
            let _ = writeln!(out, "  - {how}: {}", n.desc);
        }
    }
    out
}

/// Truncated one-line rendering of a node for reports.
fn describe(e: &Expr) -> String {
    /// Keeps the first 61 characters and then fails the write, so a
    /// large term is not rendered in full only to be cut.
    struct Head(String, usize);
    impl std::fmt::Write for Head {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for c in s.chars() {
                if self.1 > 60 {
                    return Err(std::fmt::Error);
                }
                self.0.push(c);
                self.1 += 1;
            }
            Ok(())
        }
    }
    let mut head = Head(String::new(), 0);
    let _ = write!(head, "{e}");
    if head.1 <= 60 {
        head.0
    } else {
        let mut t: String = head.0.chars().take(57).collect();
        t.push('…');
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use aql_core::expr::builder::*;
    use std::collections::BTreeMap;

    fn report(e: &Expr) -> String {
        render(&analyze(e, &BTreeMap::new()), e)
    }

    #[test]
    fn report_lists_verdicts_and_the_plan() {
        let e = tab1("i", dim(1, var("A")), sub(var("A"), vec![var("i")]));
        let r = report(&e);
        assert!(r.contains("shape  : array[dim(A,0)] of ?"), "{r}");
        assert!(r.contains("1 provably in-bounds"), "{r}");
        assert!(r.contains("nests  : 1 loop nest(s): 1 kernel, 0 interpreted"), "{r}");
        assert!(r.contains("  - kernel: [[A[i] | \\i < dim_1!A]]"), "{r}");
        // An unproven site is not marked, and an unmarked nest is the
        // interpreter's.
        let e = tab1("i", nat(3), sub(var("A"), vec![var("i")]));
        let r = report(&e);
        assert!(r.contains("0 provably in-bounds, 1 unknown"), "{r}");
        assert!(r.contains("1 loop nest(s): 0 kernel, 1 interpreted\n  - interpreted: "), "{r}");
    }

    #[test]
    fn a_nest_inside_a_kernel_is_not_listed_but_one_beside_it_is() {
        // [[ Σ{ A[x] | x ∈ gen(dim A) } | i < 4 ]]: one kernel runs both.
        let inner = || sum("x", gen(dim(1, var("A"))), sub(var("A"), vec![var("x")]));
        let listed = |e: &Expr| nests(e, &analyze(e, &BTreeMap::new()));
        let got = listed(&tab1("i", nat(4), inner()));
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].kernel && got[0].desc.starts_with("[["), "{got:?}");
        // Beside an interpreted head (a set is not a kernel's cell), the
        // Σ is listed on its own.
        let got = listed(&tab1("i", nat(4), tuple(vec![single(var("i")), inner()])));
        let kinds: Vec<bool> = got.iter().map(|n| n.kernel).collect();
        assert_eq!(kinds, [true, false], "{got:?}");
    }

    #[test]
    fn report_is_sensible_for_scalars() {
        let r = report(&add(nat(1), nat(2)));
        assert!(r.contains("no subscript sites"), "{r}");
        assert!(r.contains("nests  : no loop nests"), "{r}");
        // `member` is a primitive, not a loop nest.
        let r = report(&member(nat(1), gen(nat(3))));
        assert!(r.contains("nests  : no loop nests"), "{r}");
    }

    #[test]
    fn nest_descriptions_are_cut_at_sixty_characters() {
        // Terms rendering to every length around the cut: whole up to
        // 60 characters, otherwise the first 57 and an ellipsis.
        let mut e = var("x");
        for _ in 0..40 {
            let (whole, got) = (e.to_string(), describe(&e));
            if whole.chars().count() <= 60 {
                assert_eq!(got, whole);
            } else {
                let head: String = whole.chars().take(57).collect();
                assert_eq!(got, format!("{head}…"));
            }
            e = add(e, nat(1));
        }
    }
}
