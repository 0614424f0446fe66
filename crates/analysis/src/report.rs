//! Rendering an [`Analysis`] for humans: the body of the REPL's
//! `\analyze` command.

use std::fmt::Write as _;

use aql_core::expr::Expr;

use crate::analyze::Analysis;
use crate::cost;

/// Render the analysis summary: inferred shape, effect class, the
/// subscript-verdict tally, and the fusibility report marking which
/// loop nests could compile to bulk kernels. `root` is the term `a` is
/// the analysis of (the nests are described from it).
pub fn render(a: &Analysis, root: &Expr) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "shape  : {}", a.result);
    let _ = writeln!(out, "effect : {}", a.effect.name());
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
    if a.kernels.is_empty() {
        let _ = writeln!(out, "fusion : no loop nests");
    } else {
        let fusible = a.kernels.iter().filter(|k| k.fusible).count();
        let _ = writeln!(
            out,
            "fusion : {} loop nest(s), {} kernel-compilable",
            a.kernels.len(),
            fusible
        );
        for k in &a.kernels {
            if k.fusible {
                let _ = writeln!(out, "  - {} kernel (fusible): {}", k.kind.name(), k.desc(root));
            } else {
                let _ = writeln!(
                    out,
                    "  - {} nest (blocked: {} head): {}",
                    k.kind.name(),
                    k.head_effect.name(),
                    k.desc(root)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use aql_core::expr::builder::*;
    use std::collections::BTreeMap;

    #[test]
    fn report_lists_verdicts_and_kernels() {
        let e = tab1("i", dim(1, var("A")), sub(var("A"), vec![var("i")]));
        let a = analyze(&e, &BTreeMap::new());
        let r = render(&a, &e);
        assert!(r.contains("shape  : array[dim(A,0)] of ?"), "{r}");
        assert!(r.contains("effect : materializing"), "{r}");
        assert!(r.contains("1 provably in-bounds"), "{r}");
        assert!(r.contains("map kernel (fusible)"), "{r}");
    }

    #[test]
    fn report_is_sensible_for_scalars() {
        let e = add(nat(1), nat(2));
        let a = analyze(&e, &BTreeMap::new());
        let r = render(&a, &e);
        assert!(r.contains("no subscript sites"), "{r}");
        assert!(r.contains("no loop nests"), "{r}");
        assert!(r.contains("effect : pure-elementwise"), "{r}");
    }
}
