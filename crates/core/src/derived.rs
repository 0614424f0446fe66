//! The derived operations of §2–§3, each defined *inside* the calculus.
//!
//! The paper's central language-design claim is that three array
//! constructs (tabulate, subscript, dim) suffice: `map`, `zip`,
//! `subseq`, `reverse`, `evenpos`, `transpose`, `proj_col`, matrix
//! multiply, `nest`, `filter`, the histograms of §2, and the monoid
//! `empty/singleton/append` of §3 are all definable. This module
//! constructs those definitions as [`Expr`] values so the tests (the
//! counted claims of `tests/paper_claims.rs` among them) and the
//! optimizer can exercise them exactly as written in the paper.
//!
//! All helpers take argument *expressions* and generate fresh internal
//! binder names, so they can be composed without variable capture.
//! Arguments that are used more than once are `let`-bound first to
//! avoid recomputation.

use crate::expr::builder::*;
use crate::expr::free::fresh;
use crate::expr::Expr;

/// `min` of two naturals as an expression (used by `zip`):
/// `min{a, b}` via the `min` set primitive on `{a} ∪ {b}`.
pub fn min2(a: Expr, b: Expr) -> Expr {
    set_min(union(single(a), single(b)))
}

/// `map f A = [[ f(A[i]) | i < len(A) ]]` (§2).
pub fn map_arr(f: Expr, a: Expr) -> Expr {
    let va = fresh("A");
    let i = fresh("i");
    let_(
        &va,
        a,
        tab1(
            &i,
            len(var(&va)),
            app(f, sub(var(&va), vec![var(&i)])),
        ),
    )
}

/// `zip(A, B) = [[ (A[i], B[i]) | i < min{len A, len B} ]]` (§2).
pub fn zip(a: Expr, b: Expr) -> Expr {
    let va = fresh("A");
    let vb = fresh("B");
    let i = fresh("i");
    let_(
        &va,
        a,
        let_(
            &vb,
            b,
            tab1(
                &i,
                min2(len(var(&va)), len(var(&vb))),
                tuple(vec![
                    sub(var(&va), vec![var(&i)]),
                    sub(var(&vb), vec![var(&i)]),
                ]),
            ),
        ),
    )
}

/// `zip_3(A, B, C)`: ternary zip used by the §1 heat-index query.
pub fn zip3(a: Expr, b: Expr, c: Expr) -> Expr {
    let va = fresh("A");
    let vb = fresh("B");
    let vc = fresh("C");
    let i = fresh("i");
    let_(
        &va,
        a,
        let_(
            &vb,
            b,
            let_(
                &vc,
                c,
                tab1(
                    &i,
                    min2(min2(len(var(&va)), len(var(&vb))), len(var(&vc))),
                    tuple(vec![
                        sub(var(&va), vec![var(&i)]),
                        sub(var(&vb), vec![var(&i)]),
                        sub(var(&vc), vec![var(&i)]),
                    ]),
                ),
            ),
        ),
    )
}

/// `subseq(A, i, j) = [[ A[i+k] | k < (j+1) ∸ i ]]` (§2): the
/// inclusive slice from index `i` to `j`.
pub fn subseq(a: Expr, i: Expr, j: Expr) -> Expr {
    let va = fresh("A");
    let vi = fresh("lo");
    let k = fresh("k");
    let_(
        &va,
        a,
        let_(
            &vi,
            i,
            tab1(
                &k,
                monus(add(j, nat(1)), var(&vi)),
                sub(var(&va), vec![add(var(&vi), var(&k))]),
            ),
        ),
    )
}

/// `reverse A = [[ A[len(A) ∸ i ∸ 1] | i < len(A) ]]` (§2).
pub fn reverse(a: Expr) -> Expr {
    let va = fresh("A");
    let i = fresh("i");
    let_(
        &va,
        a,
        tab1(
            &i,
            len(var(&va)),
            sub(
                var(&va),
                vec![monus(monus(len(var(&va)), var(&i)), nat(1))],
            ),
        ),
    )
}

/// `evenpos A = [[ A[i*2] | i < len(A)/2 ]]` (§1–§2): the paper uses
/// it to adjust the half-hourly wind grid to hourly.
pub fn evenpos(a: Expr) -> Expr {
    let va = fresh("A");
    let i = fresh("i");
    let_(
        &va,
        a,
        tab1(
            &i,
            div(len(var(&va)), nat(2)),
            sub(var(&va), vec![mul(var(&i), nat(2))]),
        ),
    )
}

/// `transpose M = [[ M[i,j] | j < dim_{2,2}(M), i < dim_{1,2}(M) ]]`
/// (§2). Note the index-variable order in the binder list.
pub fn transpose(m: Expr) -> Expr {
    let vm = fresh("M");
    let i = fresh("i");
    let j = fresh("j");
    let_(
        &vm,
        m,
        tab(
            vec![
                (&*j, dim_ik(2, 2, var(&vm))),
                (&*i, dim_ik(1, 2, var(&vm))),
            ],
            sub(var(&vm), vec![var(&i), var(&j)]),
        ),
    )
}

/// `proj_col(M, j) = [[ M[i,j] | i < dim_{1,2}(M) ]]` (§2): projects a
/// matrix column into a one-dimensional array (used in §1 to drop the
/// altitude dimension of the wind-speed array).
pub fn proj_col(m: Expr, j: Expr) -> Expr {
    let vm = fresh("M");
    let i = fresh("i");
    let_(
        &vm,
        m,
        tab1(
            &i,
            dim_ik(1, 2, var(&vm)),
            sub(var(&vm), vec![var(&i), j]),
        ),
    )
}

/// Matrix multiplication (§2):
/// `⊥` on inner-dimension mismatch, otherwise
/// `[[ Σ{M[i,j]·N[j,k] | j ∈ gen(dim_{2,2} M)} | i < dim_{1,2} M, k < dim_{2,2} N ]]`.
pub fn matmul(m: Expr, n: Expr) -> Expr {
    let vm = fresh("M");
    let vn = fresh("N");
    let i = fresh("i");
    let j = fresh("j");
    let k = fresh("k");
    let_(
        &vm,
        m,
        let_(
            &vn,
            n,
            iff(
                cmp(
                    crate::expr::CmpOp::Ne,
                    dim_ik(2, 2, var(&vm)),
                    dim_ik(1, 2, var(&vn)),
                ),
                bottom(),
                tab(
                    vec![
                        (&*i, dim_ik(1, 2, var(&vm))),
                        (&*k, dim_ik(2, 2, var(&vn))),
                    ],
                    sum(
                        &j,
                        gen(dim_ik(2, 2, var(&vm))),
                        mul(
                            sub(var(&vm), vec![var(&i), var(&j)]),
                            sub(var(&vn), vec![var(&j), var(&k)]),
                        ),
                    ),
                ),
            ),
        ),
    )
}

/// `filter P X = ⋃{ if P(x) then {x} else {} | x ∈ X }` (§2).
pub fn filter_set(p: Expr, x: Expr) -> Expr {
    let v = fresh("x");
    big_union(
        &v,
        x,
        iff(app(p, var(&v)), single(var(&v)), empty()),
    )
}

/// `Π_{i,k} X = ⋃{ {π_{i,k}(x)} | x ∈ X }` (§2).
pub fn proj_set(i: usize, k: usize, x: Expr) -> Expr {
    let v = fresh("x");
    big_union(&v, x, single(proj(i, k, var(&v))))
}

/// `X × Y` (§2).
pub fn cart_prod(x: Expr, y: Expr) -> Expr {
    let vx = fresh("x");
    let vy = fresh("y");
    let bx = fresh("X");
    let_(
        &bx,
        x,
        big_union(
            &vy,
            y,
            big_union(&vx, var(&bx), single(tuple(vec![var(&vx), var(&vy)]))),
        ),
    )
}

/// `nest : {s × t} → {s × {t}}` (§2–§3, in its comprehension form):
/// `nest X = {(x, {y | (x, \y) <- X}) | (\x, _) <- X}`.
pub fn nest(x: Expr) -> Expr {
    let bx = fresh("X");
    let p = fresh("p");
    let q = fresh("q");
    let_(
        &bx,
        x,
        big_union(
            &p,
            var(&bx),
            single(tuple(vec![
                fst(var(&p)),
                big_union(
                    &q,
                    var(&bx),
                    iff(
                        eq(fst(var(&q)), fst(var(&p))),
                        single(snd(var(&q))),
                        empty(),
                    ),
                ),
            ])),
        ),
    )
}

/// `count(X) = Σ{1 | x ∈ X}` (§2).
pub fn count(x: Expr) -> Expr {
    let v = fresh("x");
    sum(&v, x, nat(1))
}

/// `∀x ∈ X. P ≡ Σ{if P then 0 else 1 | x ∈ X} = 0` (§2). `p` is a
/// function expression applied to each element.
pub fn forall(x: Expr, p: Expr) -> Expr {
    let v = fresh("x");
    eq(
        sum(&v, x, iff(app(p, var(&v)), nat(0), nat(1))),
        nat(0),
    )
}

/// `∃x ∈ X. P` as `Σ{if P then 1 else 0 | x ∈ X} > 0`.
pub fn exists(x: Expr, p: Expr) -> Expr {
    let v = fresh("x");
    gt(
        sum(&v, x, iff(app(p, var(&v)), nat(1), nat(0))),
        nat(0),
    )
}

/// `min(X) = get(filter (λy. ∀x ∈ X. y ≤ x) X)` (§2) — the paper's
/// *derived* definition; `set_min` is
/// the promoted primitive.
pub fn min_derived(x: Expr) -> Expr {
    let bx = fresh("X");
    let y = fresh("y");
    let v = fresh("x");
    let_(
        &bx,
        x,
        get(filter_set(
            lam(
                &y,
                eq(
                    sum(
                        &v,
                        var(&bx),
                        iff(le(var(&y), var(&v)), nat(0), nat(1)),
                    ),
                    nat(0),
                ),
            ),
            var(&bx),
        )),
    )
}

/// `dom(e) = gen(len(e))` for one-dimensional arrays (§2).
pub fn dom1(a: Expr) -> Expr {
    gen(len(a))
}

/// `dom_2(e) = gen(dim_{1,2} e) × gen(dim_{2,2} e)` (§2).
pub fn dom2(a: Expr) -> Expr {
    let va = fresh("A");
    let_(
        &va,
        a,
        cart_prod(
            gen(dim_ik(1, 2, var(&va))),
            gen(dim_ik(2, 2, var(&va))),
        ),
    )
}

/// `rng(e) = ⋃{ {e[i]} | i ∈ dom(e) }` (§2, 1-d).
pub fn rng(a: Expr) -> Expr {
    let va = fresh("A");
    let i = fresh("i");
    let_(
        &va,
        a,
        big_union(&i, dom1(var(&va)), single(sub(var(&va), vec![var(&i)]))),
    )
}

/// `graph(e) = ⋃{ {(i, e[i])} | i ∈ dom(e) }` (§2, 1-d): the graph of
/// the array viewed as a function.
pub fn graph1(a: Expr) -> Expr {
    let va = fresh("A");
    let i = fresh("i");
    let_(
        &va,
        a,
        big_union(
            &i,
            dom1(var(&va)),
            single(tuple(vec![var(&i), sub(var(&va), vec![var(&i)])])),
        ),
    )
}

/// `graph_2(e)` for two-dimensional arrays: `{((i,j), e[i,j])}`.
pub fn graph2(a: Expr) -> Expr {
    let va = fresh("A");
    let p = fresh("p");
    let_(
        &va,
        a,
        big_union(
            &p,
            dom2(var(&va)),
            single(tuple(vec![var(&p), sub(var(&va), vec![var(&p)])])),
        ),
    )
}

/// `hist e = [[ Σ{if e[j] = i then 1 else 0 | j ∈ dom(e)} | i < max(rng(e)) ]]`
/// — the O(n·m) histogram of §2, verbatim (note the paper tabulates up
/// to `max(rng e)` *exclusive*, so the maximum value itself falls
/// outside; we reproduce that faithfully).
pub fn hist(a: Expr) -> Expr {
    let va = fresh("A");
    let i = fresh("i");
    let j = fresh("j");
    let_(
        &va,
        a,
        tab1(
            &i,
            set_max(rng(var(&va))),
            sum(
                &j,
                dom1(var(&va)),
                iff(
                    eq(sub(var(&va), vec![var(&j)]), var(&i)),
                    nat(1),
                    nat(0),
                ),
            ),
        ),
    )
}

/// `hist' e = map(count)(index(⋃{ {(e[j], j)} | j ∈ dom(e) }))` — the
/// O(m + n log n) histogram via the implicit group-by of `index` (§2).
pub fn hist_indexed(a: Expr) -> Expr {
    let va = fresh("A");
    let j = fresh("j");
    let g = fresh("g");
    let_(
        &va,
        a,
        map_arr(
            lam(&g, count(var(&g))),
            index(
                1,
                big_union(
                    &j,
                    dom1(var(&va)),
                    single(tuple(vec![sub(var(&va), vec![var(&j)]), var(&j)])),
                ),
            ),
        ),
    )
}

/// Zip *without* arrays: encode both arrays as graphs, join them with a
/// quadratic cross-product (the only way in a collection language,
/// §1), and re-index. This is the baseline for experiment E1.
pub fn zip_via_sets(a: Expr, b: Expr) -> Expr {
    let ga = fresh("GA");
    let gb = fresh("GB");
    let p = fresh("p");
    let q = fresh("q");
    let i = fresh("i");
    let joined = big_union(
        &p,
        var(&ga),
        big_union(
            &q,
            var(&gb),
            iff(
                eq(fst(var(&p)), fst(var(&q))),
                single(tuple(vec![
                    fst(var(&p)),
                    tuple(vec![snd(var(&p)), snd(var(&q))]),
                ])),
                empty(),
            ),
        ),
    );
    let_(
        &ga,
        graph1(a),
        let_(
            &gb,
            graph1(b),
            map_arr(lam(&i, get(var(&i))), index(1, joined)),
        ),
    )
}

/// The array monoid of §3: `empty = [[x | x < 0]]` — here via the
/// row-major literal, which denotes the same empty array.
pub fn arr_empty() -> Expr {
    array_lit(vec![nat(0)], vec![])
}

/// Array singleton `[[e]]` (§3).
pub fn arr_single(e: Expr) -> Expr {
    let i = fresh("i");
    let v = fresh("v");
    let_(&v, e, tab1(&i, nat(1), var(&v)))
}

/// Array append `A @ B` (§3):
/// `[[ if i < len A then A[i] else B[i ∸ len A] | i < len A + len B ]]`.
pub fn append(a: Expr, b: Expr) -> Expr {
    let va = fresh("A");
    let vb = fresh("B");
    let i = fresh("i");
    let_(
        &va,
        a,
        let_(
            &vb,
            b,
            tab1(
                &i,
                add(len(var(&va)), len(var(&vb))),
                iff(
                    lt(var(&i), len(var(&va))),
                    sub(var(&va), vec![var(&i)]),
                    sub(var(&vb), vec![monus(var(&i), len(var(&va)))]),
                ),
            ),
        ),
    )
}

/// `[[e_1, …, e_n]] = [[e_1]] @ … @ [[e_n]]` — the O(n²) literal
/// construction the row-major construct exists to avoid (§3).
/// Experiment E4 measures exactly this contrast.
pub fn literal_via_append(items: Vec<Expr>) -> Expr {
    let mut acc = arr_empty();
    for it in items {
        acc = append(acc, arr_single(it));
    }
    acc
}

/// Reshape a one-dimensional array into an `r × c` matrix in row-major
/// order — the very operation §1 asks "why not include primitives
/// for…?" and answers with tabulation:
/// `[[ A[i·c + j] | i < r, j < c ]]`.
pub fn reshape2(a: Expr, r: Expr, c: Expr) -> Expr {
    let va = fresh("A");
    let vc = fresh("c");
    let i = fresh("i");
    let j = fresh("j");
    let_(
        &va,
        a,
        let_(
            &vc,
            c,
            tab(
                vec![(&*i, r), (&*j, var(&vc))],
                sub(
                    var(&va),
                    vec![add(mul(var(&i), var(&vc)), var(&j))],
                ),
            ),
        ),
    )
}

/// Flatten a matrix into a one-dimensional array in row-major order:
/// `[[ M[i / c, i % c] | i < r·c ]]`.
pub fn flatten2(m: Expr) -> Expr {
    let vm = fresh("M");
    let i = fresh("i");
    let_(
        &vm,
        m,
        tab1(
            &i,
            mul(dim_ik(1, 2, var(&vm)), dim_ik(2, 2, var(&vm))),
            sub(
                var(&vm),
                vec![
                    div(var(&i), dim_ik(2, 2, var(&vm))),
                    modulo(var(&i), dim_ik(2, 2, var(&vm))),
                ],
            ),
        ),
    )
}

/// `rank(X) = ∪_r{ {(x, i)} | x_i ∈ X }` (§6): pairs each element with
/// its 1-based rank in the canonical order.
pub fn rank_set(x: Expr) -> Expr {
    let v = fresh("x");
    let i = fresh("i");
    big_union_rank(
        &v,
        &i,
        x,
        single(tuple(vec![var(&v), var(&i)])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::typecheck_closed;
    use crate::eval::eval_closed;
    use crate::value::Value;

    fn arr(ns: &[u64]) -> Expr {
        array1_lit(ns.iter().map(|&n| nat(n)).collect())
    }

    fn run(e: &Expr) -> Value {
        typecheck_closed(e).unwrap_or_else(|err| panic!("typecheck: {err} in {e}"));
        eval_closed(e).expect("eval")
    }

    fn as_nats(v: &Value) -> Vec<u64> {
        v.as_array()
            .unwrap()
            .data()
            .iter()
            .map(|x| x.as_nat().unwrap())
            .collect()
    }

    #[test]
    fn map_doubles() {
        let e = map_arr(lam("x", mul(var("x"), nat(2))), arr(&[1, 2, 3]));
        assert_eq!(as_nats(&run(&e)), vec![2, 4, 6]);
    }

    #[test]
    fn zip_truncates_to_shorter() {
        let e = zip(arr(&[1, 2, 3]), arr(&[10, 20]));
        let v = run(&e);
        let a = v.as_array().unwrap();
        assert_eq!(a.dims(), &[2]);
        assert_eq!(
            a.get(&[1]).unwrap(),
            Value::tuple(vec![Value::Nat(2), Value::Nat(20)])
        );
    }

    #[test]
    fn zip3_combines() {
        let e = zip3(arr(&[1, 2]), arr(&[3, 4]), arr(&[5, 6]));
        let v = run(&e);
        assert_eq!(
            v.as_array().unwrap().get(&[0]).unwrap(),
            Value::tuple(vec![Value::Nat(1), Value::Nat(3), Value::Nat(5)])
        );
    }

    #[test]
    fn subseq_inclusive() {
        let e = subseq(arr(&[0, 10, 20, 30, 40]), nat(1), nat(3));
        assert_eq!(as_nats(&run(&e)), vec![10, 20, 30]);
        // Degenerate: j < i yields empty… except (j+1)∸i with j=i gives 1.
        let e = subseq(arr(&[0, 10, 20]), nat(2), nat(2));
        assert_eq!(as_nats(&run(&e)), vec![20]);
        let e = subseq(arr(&[0, 10, 20]), nat(2), nat(0));
        assert_eq!(as_nats(&run(&e)), Vec::<u64>::new());
    }

    #[test]
    fn reverse_and_evenpos() {
        assert_eq!(as_nats(&run(&reverse(arr(&[1, 2, 3])))), vec![3, 2, 1]);
        assert_eq!(
            as_nats(&run(&evenpos(arr(&[0, 1, 2, 3, 4, 5])))),
            vec![0, 2, 4]
        );
        assert_eq!(as_nats(&run(&evenpos(arr(&[9])))), Vec::<u64>::new());
    }

    #[test]
    fn transpose_2x3() {
        let m = array_lit(
            vec![nat(2), nat(3)],
            vec![nat(1), nat(2), nat(3), nat(4), nat(5), nat(6)],
        );
        let v = run(&transpose(m));
        let a = v.as_array().unwrap();
        assert_eq!(a.dims(), &[3, 2]);
        assert_eq!(as_nats(&v), vec![1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn transpose_involutive() {
        let m = array_lit(
            vec![nat(2), nat(2)],
            vec![nat(1), nat(2), nat(3), nat(4)],
        );
        let e = transpose(transpose(m.clone()));
        assert_eq!(run(&e), run(&m));
    }

    #[test]
    fn proj_col_extracts() {
        let m = array_lit(
            vec![nat(2), nat(3)],
            vec![nat(1), nat(2), nat(3), nat(4), nat(5), nat(6)],
        );
        assert_eq!(as_nats(&run(&proj_col(m, nat(1)))), vec![2, 5]);
    }

    #[test]
    fn matmul_small() {
        // [1 2; 3 4] × [5 6; 7 8] = [19 22; 43 50]
        let m = array_lit(vec![nat(2), nat(2)], vec![nat(1), nat(2), nat(3), nat(4)]);
        let n = array_lit(vec![nat(2), nat(2)], vec![nat(5), nat(6), nat(7), nat(8)]);
        assert_eq!(as_nats(&run(&matmul(m, n))), vec![19, 22, 43, 50]);
    }

    #[test]
    fn matmul_mismatch_is_bottom() {
        let m = array_lit(vec![nat(2), nat(3)], vec![nat(0); 6]);
        let n = array_lit(vec![nat(2), nat(2)], vec![nat(0); 4]);
        assert_eq!(eval_closed(&matmul(m, n)).unwrap(), Value::Bottom);
    }

    #[test]
    fn nest_groups() {
        // nest {(1,a),(1,b),(2,c)} = {(1,{a,b}),(2,{c})}
        let x = union(
            union(
                single(tuple(vec![nat(1), strlit("a")])),
                single(tuple(vec![nat(1), strlit("b")])),
            ),
            single(tuple(vec![nat(2), strlit("c")])),
        );
        let v = run(&nest(x));
        let s = v.as_set().unwrap();
        assert_eq!(s.len(), 2);
        let first = s.iter().next().unwrap().as_tuple().unwrap();
        assert_eq!(first[0], Value::Nat(1));
        assert_eq!(first[1].as_set().unwrap().len(), 2);
    }

    #[test]
    fn aggregates() {
        assert_eq!(run(&count(gen(nat(7)))), Value::Nat(7));
        let all_small = forall(gen(nat(5)), lam("x", lt(var("x"), nat(5))));
        assert_eq!(run(&all_small), Value::Bool(true));
        let some_big = exists(gen(nat(5)), lam("x", gt(var("x"), nat(3))));
        assert_eq!(run(&some_big), Value::Bool(true));
        let none_big = exists(gen(nat(3)), lam("x", gt(var("x"), nat(3))));
        assert_eq!(run(&none_big), Value::Bool(false));
    }

    #[test]
    fn min_derived_agrees_with_primitive() {
        let xs = union(union(single(nat(5)), single(nat(2))), single(nat(9)));
        assert_eq!(run(&min_derived(xs.clone())), Value::Nat(2));
        assert_eq!(run(&set_min(xs)), Value::Nat(2));
    }

    #[test]
    fn dom_rng_graph() {
        let a = arr(&[7, 8, 7]);
        assert_eq!(
            run(&dom1(a.clone())),
            Value::set(vec![Value::Nat(0), Value::Nat(1), Value::Nat(2)])
        );
        assert_eq!(
            run(&rng(a.clone())),
            Value::set(vec![Value::Nat(7), Value::Nat(8)])
        );
        let g = run(&graph1(a));
        assert_eq!(g.as_set().unwrap().len(), 3);
        assert!(g
            .as_set()
            .unwrap()
            .contains(&Value::tuple(vec![Value::Nat(2), Value::Nat(7)])));
    }

    #[test]
    fn dom2_is_rectangular() {
        let m = array_lit(vec![nat(2), nat(3)], vec![nat(0); 6]);
        let v = run(&dom2(m));
        assert_eq!(v.as_set().unwrap().len(), 6);
    }

    #[test]
    fn graph2_roundtrips_through_index() {
        let m = array_lit(vec![nat(2), nat(2)], vec![nat(9), nat(8), nat(7), nat(6)]);
        // index_2(graph_2 M) has singleton sets matching M.
        let e = index(2, graph2(m.clone()));
        let v = run(&e);
        let a = v.as_array().unwrap();
        assert_eq!(a.dims(), &[2, 2]);
        assert!(a.get(&[0, 1]).unwrap().as_set().unwrap().contains(&Value::Nat(8)));
    }

    #[test]
    fn histograms_agree() {
        // Values 0..4 with repeats; both histograms tabulate counts for
        // i < max(rng) = 4.
        let a = arr(&[0, 1, 1, 3, 3, 3, 4]);
        let h1 = run(&hist(a.clone()));
        assert_eq!(as_nats(&h1), vec![1, 2, 0, 3]);
        let h2 = run(&hist_indexed(a));
        // hist' tabulates count per occupied index; dims = max key + 1 = 5.
        assert_eq!(as_nats(&h2), vec![1, 2, 0, 3, 1]);
        // They agree on the shared prefix (the paper's max-exclusive
        // tabulation drops the last bucket).
        assert_eq!(as_nats(&h1)[..], as_nats(&h2)[..4]);
    }

    #[test]
    fn zip_via_sets_agrees_with_zip() {
        let a = arr(&[1, 2, 3]);
        let b = arr(&[10, 20, 30]);
        let fast = run(&zip(a.clone(), b.clone()));
        let slow = run(&zip_via_sets(a, b));
        assert_eq!(fast, slow);
    }

    #[test]
    fn array_monoid() {
        let e = append(arr(&[1, 2]), arr(&[3]));
        assert_eq!(as_nats(&run(&e)), vec![1, 2, 3]);
        // Identity laws.
        let e = append(arr_empty(), arr(&[5]));
        assert_eq!(as_nats(&run(&e)), vec![5]);
        let e = append(arr(&[5]), arr_empty());
        assert_eq!(as_nats(&run(&e)), vec![5]);
        // Associativity on values.
        let lhs = append(append(arr(&[1]), arr(&[2])), arr(&[3]));
        let rhs = append(arr(&[1]), append(arr(&[2]), arr(&[3])));
        assert_eq!(run(&lhs), run(&rhs));
    }

    #[test]
    fn literal_via_append_matches_row_major() {
        let slow = literal_via_append(vec![nat(4), nat(5), nat(6)]);
        let fast = array1_lit(vec![nat(4), nat(5), nat(6)]);
        assert_eq!(run(&slow), run(&fast));
    }

    #[test]
    fn reshape_and_flatten() {
        let a = arr(&[1, 2, 3, 4, 5, 6]);
        let m = run(&reshape2(a.clone(), nat(2), nat(3)));
        let ma = m.as_array().unwrap();
        assert_eq!(ma.dims(), &[2, 3]);
        assert_eq!(ma.get(&[1, 0]).unwrap().as_nat().unwrap(), 4);
        // flatten ∘ reshape = identity.
        let back = run(&flatten2(reshape2(a.clone(), nat(2), nat(3))));
        assert_eq!(back, run(&a));
        // Short source: out-of-range reads poison the result with ⊥.
        let bad = reshape2(arr(&[1, 2]), nat(2), nat(3));
        assert_eq!(eval_closed(&bad).unwrap(), Value::Bottom);
        // reshape to a wider-than-needed shape of an exact multiple.
        let sq = run(&reshape2(arr(&[9, 8, 7, 6]), nat(2), nat(2)));
        assert_eq!(sq.as_array().unwrap().dims(), &[2, 2]);
    }

    #[test]
    fn reshape_fuses_under_optimizer_roundtrip() {
        // Semantic preservation sanity (full optimizer check lives in
        // the aql-opt tests): both evaluate equal.
        let e = flatten2(reshape2(arr(&[0, 1, 2, 3, 4, 5]), nat(3), nat(2)));
        let v = run(&e);
        assert_eq!(
            v,
            run(&arr(&[0, 1, 2, 3, 4, 5]))
        );
    }

    #[test]
    fn rank_set_assigns_positions() {
        let x = union(union(single(nat(30)), single(nat(10))), single(nat(20)));
        let v = run(&rank_set(x));
        let expect = Value::set(vec![
            Value::tuple(vec![Value::Nat(10), Value::Nat(1)]),
            Value::tuple(vec![Value::Nat(20), Value::Nat(2)]),
            Value::tuple(vec![Value::Nat(30), Value::Nat(3)]),
        ]);
        assert_eq!(v, expect);
    }

    #[test]
    fn composition_is_capture_safe() {
        // Compose operations that all use internal binders; any capture
        // would corrupt the result.
        let e = reverse(evenpos(append(arr(&[0, 1, 2]), arr(&[3, 4, 5]))));
        assert_eq!(as_nats(&run(&e)), vec![4, 2, 0]);
    }
}
