"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance here is exact (integer or rational equality), and
each criterion carries its stated runtime budget.
"""

import random
import time
from fractions import Fraction
from math import comb, prod

from tropceresa import intlinalg as la
from tropceresa.catalog import builtin_curve, builtin_table
from tropceresa.ceresa import (
    ambient_order,
    analyze,
    build_context,
    ceresa_order,
    in_Abar_test,
    u_class,
    v_class,
)
from tropceresa.exterior import (
    AbelianGroupDescriptor,
    A_group,
    Abar_group,
    B_group,
    Bbar_group,
    Filtration,
    WedgeVector,
    apply_matrix,
    embed_H_in_L,
    graded_map,
    vector_wedge,
    wedge_basis,
)
from tropceresa.graph_core import (
    is_hyperelliptic,
    scaled_to_integer,
    spanning_trees,
    stabilize,
    symanzik,
)
from tropceresa.johnson import JohnsonTable, coboundary_shift, transform_table
from tropceresa.symplectic import (
    basis_change_matrix,
    delta_from_Q,
    homology_basis,
    polarization_Q,
)

from helpers import (
    banana_curve,
    det_fraction,
    k4_curve,
    lattice_intersection,
    loop_chain_curve,
    random_curve,
    random_posdef,
    tl3_curve,
)
from test_ceresa import k4_closed_form, tl3_v_expected


def report(n, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s (budget {budget}s)"
    print(f"criterion {n:2d}: PASS ({elapsed:.2f}s) {detail}")


def y_units(g, h=None):
    h = g if h is None else h
    return [[int(t == g + i) for t in range(2 * g)] for i in range(h)]


def test_criterion_01_k4_fixture():
    t0 = time.time()
    curve = builtin_curve("k4")
    rep = analyze(curve, builtin_table("k4", curve))
    assert list(rep.invariant_factors) == [1, 4, 4]
    assert rep.groups["Bbar"].order == 512
    assert rep.verdict == "nontrivial"
    assert rep.order_bbar == 16
    report(1, time.time() - t0, 1.0,
           "K4 unit lengths: factors (1,4,4), |Bbar|=512, nontrivial, order 16")


def test_criterion_02_k4_closed_form():
    t0 = time.time()
    rng = random.Random(202)
    for _ in range(50):
        c = tuple(rng.randint(1, 20) for _ in range(6))
        curve = k4_curve(c)
        ctx = build_context(curve)
        u = u_class(ctx, v_class(ctx, builtin_table("k4", curve)))
        d = det_fraction(ctx.q_matrix)
        got = {t: x * d for t, x in u.coeffs.items()}
        assert got == {t: Fraction(x) for t, x in k4_closed_form(c).items()}
    report(2, time.time() - t0, 10.0,
           "det(Q)*u matches the nine-term closed form at 50 random tuples")


def test_criterion_03_tl3_sampled():
    t0 = time.time()
    rng = random.Random(303)
    for _ in range(200):
        c = tuple(rng.randint(1, 20) for _ in range(9))
        curve = tl3_curve(c)
        ctx = build_context(curve)
        table = builtin_table("tl3", curve)
        v = v_class(ctx, table)
        assert v == tl3_v_expected(c)
        rep = analyze(curve, table, with_groups=False, with_zharkov=False)
        assert rep.verdict == "nontrivial"
    # the three simultaneous vanishing conditions have no positive solution:
    # the eliminant is a positive combination, checked at many random points
    for _ in range(10_000):
        c1, c2, c5, c6, c9 = (rng.randint(1, 50) for _ in range(5))
        val = (
            c1 * c2 * c5 + c1 * c2 * c6 + c1 * c5 * c6 + c2 * c5 * c6
            + 2 * c1 * c2 * c9 + 2 * c1 * c5 * c9 + 2 * c2 * c6 * c9
            + 2 * c5 * c6 * c9
        )
        assert val > 0
    report(3, time.time() - t0, 30.0,
           "TL3 nontrivial at 200 random tuples, v exact; eliminant positive at 10^4 points")


def test_criterion_04_theta_membership():
    t0 = time.time()
    curve = builtin_curve("theta-w1")
    ctx = build_context(curve)
    res = in_Abar_test(ctx, v_class(ctx, builtin_table("theta-w1", curve)))
    assert res == {"in_Abar": False, "least_multiple": 3}
    report(4, time.time() - t0, 1.0,
           "theta with weights: not in Abar, least multiple exactly 3")


def test_criterion_05_size_formula_oracle():
    t0 = time.time()
    rng = random.Random(505)
    count = 0
    for trial in range(34):
        for g in (2, 3, 4):
            if count >= 100:
                break
            q = random_posdef(g, rng)
            delta = delta_from_Q(q)
            y = y_units(g)
            a = A_group(delta, y, 2)
            b = B_group(delta, y, 2)
            ab = Abar_group(delta, y)
            bb = Bbar_group(delta, y)
            qf = la.invariant_factor_diagonal(q)
            detq = prod(qf)
            tail = prod(qf[i] ** comb(g - 1 - i, 2) for i in range(g))
            assert a.order == 2 ** comb(g, 3) * detq ** comb(g, 2) * tail
            assert b.order == 2 ** comb(g, 3) * detq ** comb(g, 2)
            assert ab.order == 2 ** comb(g, 3) * detq ** (comb(g, 2) - 1) * tail
            assert bb.order == 2 ** comb(g, 3) * detq ** (comb(g, 2) - 1)
            assert a.order == b.order * tail
            assert a.order == ab.order * detq
            assert b.order == bb.order * detq
            count += 1
    assert count == 100
    report(5, time.time() - t0, 120.0,
           "group sizes match the closed formulas on 100 random Q, g in {2,3,4}")


def test_criterion_06_structure_oracle():
    t0 = time.time()
    rng = random.Random(606)
    for trial in range(50):
        g = 3 if trial % 2 else 4
        qf = la.invariant_factor_diagonal(random_posdef(g, rng))
        q = [[qf[i] if i == j else 0 for j in range(g)] for i in range(g)]
        delta = delta_from_Q(q)
        got = B_group(delta, y_units(g), 2)
        orders = []
        for i in range(g):
            orders.extend([qf[i]] * (g - 1))
        for i in range(g):
            for j in range(i + 1, g):
                for k in range(j + 1, g):
                    orders.extend([qf[i], qf[i], 2 * qf[j] * qf[k] // qf[i]])
        assert got == AbelianGroupDescriptor.from_cyclic_orders(orders)
    report(6, time.time() - t0, 60.0,
           "B invariant factors match the explicit product on 50 diagonal Q, g in {3,4}")


def test_criterion_07_filtration_property_suite():
    t0 = time.time()
    rng = random.Random(707)

    # (a) containment: (delta-I) F_q <= F_{q+1}; graded_map aborts otherwise
    ran = 0
    while ran < 100:
        g = rng.choice([2, 3])
        q = random_posdef(g, rng)
        delta = delta_from_Q(q)
        k = rng.randint(1, min(5, 2 * g))
        level = rng.randint(1, k)
        graded_map(delta, y_units(g), level, k)
        ran += 1

    # (b) rational surjectivity of gr_{q-1} -> gr_q for q > k/2, k = 3 and 5
    ran = 0
    while ran < 100:
        k = rng.choice([3, 5])
        g = rng.choice([3, 4])
        q = random_posdef(g, rng)
        delta = delta_from_Q(q)
        level = rng.randint(k // 2 + 1, k)
        gm = graded_map(delta, y_units(g), level, k)
        if gm and gm[0]:
            assert la.matrix_rank(gm) == len(gm)
        ran += 1

    # (c) injectivity of the first two degree-3 graded maps at maximal rank
    for trial in range(100):
        g = rng.choice([2, 3, 4])
        q = random_posdef(g, rng)
        delta = delta_from_Q(q)
        for level in (1, 2):
            gm = graded_map(delta, y_units(g), level, 3)
            if gm and gm[0]:
                assert la.matrix_rank(gm) == len(gm[0])

    # (d) (delta-I)(F_{q-2}) & F_q == (delta-I) F_{q-1} under injectivity
    for trial in range(100):
        g = rng.choice([2, 3])
        q = random_posdef(g, rng)
        delta = delta_from_Q(q)
        filt = Filtration.from_Y(y_units(g), 2 * g)
        basis = wedge_basis(2 * g, 3)

        def images(monos):
            out = []
            for t in monos:
                m = WedgeVector.monomial(2 * g, t)
                w = apply_matrix(delta, m) - m
                coords = w.to_coords(basis)
                if any(coords):
                    out.append(coords)
            return out

        lhs = lattice_intersection(
            images(filt.monomials(3, 0)),
            [WedgeVector.monomial(2 * g, t).to_coords(basis) for t in filt.monomials(3, 2)],
            len(basis),
        )
        rhs = images(filt.monomials(3, 1))
        assert la.lattice_eq(lhs, rhs, len(basis))

    # (e) image ^ kernel wedges have explicit integral preimages
    done = 0
    while done < 100:
        g = rng.choice([2, 3])
        q = random_posdef(g, rng)
        delta = delta_from_Q(q)
        n = 2 * g
        m = [[delta[i][j] - (i == j) for j in range(n)] for i in range(n)]
        cols = [c for c in la.columns(m) if any(c)]
        ker = la.kernel_basis(m)
        if not cols or len(ker) < 2:
            continue
        yv = cols[rng.randrange(len(cols))]
        zs = [ker[i] for i in rng.sample(range(len(ker)), 2)]
        target = vector_wedge([yv] + zs, n)
        if target.is_zero():
            continue
        x = la.solve_int(m, yv)
        pre = vector_wedge([x] + zs, n)
        assert apply_matrix(delta, pre) - pre == target
        done += 1

    report(7, time.time() - t0, 120.0,
           "filtration, rank, intersection, and preimage properties: 5 x >=100 instances")


def test_criterion_08_symanzik_identity():
    t0 = time.time()
    rng = random.Random(808)
    for _ in range(100):
        curve = random_curve(rng, max_edges=8)
        scaled, _ = scaled_to_integer(curve)
        b = homology_basis(scaled)
        q = polarization_Q(scaled, b)
        blk = [row[: b.h] for row in q[: b.h]]
        assert det_fraction(blk) == Fraction(symanzik(scaled))
    report(8, time.time() - t0, 60.0,
           "tree polynomial equals det of the cycle block on 100 random graphs")


def test_criterion_09_hyperelliptic_suite():
    t0 = time.time()
    rng = random.Random(909)
    cases = [
        builtin_curve("theta0"),
        builtin_curve("theta0", lengths=(2, 3, 5)),
        banana_curve(3),
        banana_curve(4,  (1, 2, 3, 4)),
        banana_curve(5),
        loop_chain_curve(2),
        loop_chain_curve(3),
        builtin_curve("3balloon"),
    ]
    for curve in cases:
        basis = homology_basis(scaled_to_integer(curve)[0])
        zero = JohnsonTable(basis=basis, entries={}, provenance="builtin", name="zero")
        rep = analyze(curve, zero, with_groups=False, with_zharkov=False)
        assert rep.verdict == "hyperelliptic-trivial", curve
    for _ in range(25):
        c = tuple(rng.randint(1, 9) for _ in range(6))
        assert not is_hyperelliptic(stabilize(k4_curve(c)))
    assert not is_hyperelliptic(k4_curve((3,) * 6))
    report(9, time.time() - t0, 60.0,
           "theta, bananas, chains, 3-balloon hyperelliptic-trivial; K4 never")


def test_criterion_10_invariance_suite():
    t0 = time.time()
    rng = random.Random(1010)

    # scaling by 2 and 7 on every built-in fixture
    fixtures = ("k4", "tl3", "theta-w1", "3balloon")
    for name in fixtures:
        curve = builtin_curve(name)
        table = builtin_table(name, curve)
        base = analyze(curve, table, with_groups=False, with_zharkov=False)
        for m in (2, 7):
            cur = curve.with_lengths({e.id: e.length * m for e in curve.edges})
            rep = analyze(
                cur, builtin_table(name, cur), with_groups=False, with_zharkov=False
            )
            assert rep.verdict == base.verdict, (name, m)
            assert rep.order_bbar == base.order_bbar
            assert rep.least_multiple == base.least_multiple

    # ten random coboundary shifts with classes in F1 + H
    for name in ("k4", "tl3", "theta-w1"):
        curve = builtin_curve(name)
        ctx = build_context(curve)
        table = builtin_table(name, curve)
        v0 = v_class(ctx, table)
        g = ctx.g
        if ctx.maximal_rank:
            base = (ceresa_order(ctx, v0), ambient_order(ctx, v0))
        else:
            base = in_Abar_test(ctx, v0)["least_multiple"]
        for _ in range(10):
            coeffs = {}
            for _ in range(3):
                i, j, k = rng.randrange(g), rng.randrange(g), rng.randrange(g)
                if i < j:
                    coeffs[(i, j, g + k)] = rng.randint(-3, 3)
                p, qq = sorted((rng.randrange(g), rng.randrange(g)))
                if p < qq:
                    coeffs[(rng.randrange(g), g + p, g + qq)] = rng.randint(-3, 3)
            t = WedgeVector(2 * g, 3, coeffs) + embed_H_in_L(
                [rng.randint(-2, 2) for _ in range(2 * g)], g
            )
            shifted = coboundary_shift(table, t)
            v1 = v_class(ctx, shifted)
            if ctx.maximal_rank:
                assert (ceresa_order(ctx, v1), ambient_order(ctx, v1)) == base
            else:
                assert in_Abar_test(ctx, v1)["least_multiple"] == base

    # five random spanning-tree re-choices, with the table transported
    for name in ("k4", "tl3", "theta-w1"):
        curve = builtin_curve(name)
        base_ctx = build_context(curve)
        base_tab = builtin_table(name, curve)
        v0 = v_class(base_ctx, base_tab)
        if base_ctx.maximal_rank:
            base = (ceresa_order(base_ctx, v0), ambient_order(base_ctx, v0))
        else:
            base = in_Abar_test(base_ctx, v0)["least_multiple"]
        trees = spanning_trees(curve)
        picks = trees if len(trees) <= 5 else rng.sample(trees, 5)
        for tree in picks:
            ctx2 = build_context(curve, tree=tree)
            s = basis_change_matrix(base_ctx.basis, ctx2.basis)
            tab2 = transform_table(base_tab, ctx2.basis, s)
            v2 = v_class(ctx2, tab2)
            if ctx2.maximal_rank:
                assert (ceresa_order(ctx2, v2), ambient_order(ctx2, v2)) == base
            else:
                assert in_Abar_test(ctx2, v2)["least_multiple"] == base

    report(10, time.time() - t0, 120.0,
           "verdicts and orders invariant under scaling, coboundaries, tree re-choice")
