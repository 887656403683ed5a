import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, inf, lcm, prod
from pathlib import Path
from types import SimpleNamespace

import pytest

from tropceresa import ceresa, exterior
from tropceresa import intlinalg as la
from tropceresa.catalog import BUILTIN_GRAPHS, BUILTIN_TABLES, builtin_curve, builtin_table
from tropceresa.ceresa import (
    PipelineContext,
    ambient_order,
    analyze,
    build_context,
    ceresa_order,
    forced_order,
    group_table,
    in_Abar_test,
    is_pure_gr2,
    nontriviality_verdict,
    u_class,
    v_class,
    zharkov_test,
)
from tropceresa.errors import PreconditionError, SchemaError
from tropceresa.exterior import (
    A_group,
    Abar_group,
    B_group,
    Bbar_group,
    GradedImages,
    WedgeVector,
    apply_columns,
    apply_matrix,
    embed_H_in_L,
    omega,
)
from tropceresa.graph_core import (
    genus,
    load_curve,
    spanning_trees,
    tropical_curve,
    with_sorted_lengths,
)
from tropceresa.johnson import JohnsonTable, coboundary_shift, table_from_json, transform_table
from tropceresa.symplectic import basis_change_matrix, delta_from_Q, homology_basis, intersection

import helpers
from helpers import banana_curve, k4_curve, k4_doubled, loop_chain_curve, tl3_curve


def k4_v_expected(c, n=6):
    """Reference expression: c2 * a1b1b2 + c5 * (-a2b1b2 - a2b2b3 + a2b1b3)."""
    c1, c2, c3, c4, c5, c6 = c
    return WedgeVector(
        n,
        3,
        {
            (0, 3, 4): c2,
            (1, 3, 4): -c5,
            (1, 4, 5): -c5,
            (1, 3, 5): c5,
        },
    )


def tl3_v_expected(c, n=8):
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = c
    a1, a2 = 0, 1
    b1, b2, b3, b4 = 4, 5, 6, 7
    coeffs = {
        (a2, b1, b2): -c6,
        (a1, b1, b2): -c5,
        (a1, b1, b3): -c5 - c7 + c8 - c9,
        (a1, b1, b4): -c5 - c7 + c8 - c9,
        (a2, b2, b3): c6 - c7 + c8 + c9,
        (a2, b2, b4): c6 - c7 + c8 + c9,
    }
    return WedgeVector(n, 3, coeffs)


# -- v assembly -----------------------------------------------------------------


def test_k4_v_class_matches_reference():
    rng = random.Random(0)
    for _ in range(25):
        c = tuple(rng.randint(1, 20) for _ in range(6))
        curve = k4_curve(c)
        ctx = build_context(curve)
        table = builtin_table("k4", curve)
        assert v_class(ctx, table) == k4_v_expected(c)


def test_tl3_v_class_matches_reference():
    rng = random.Random(1)
    # unit lengths: the four coefficient groups come out (-1, -1, -2, +2)
    curve = tl3_curve()
    ctx = build_context(curve)
    assert v_class(ctx, builtin_table("tl3", curve)) == tl3_v_expected((1,) * 9)
    for _ in range(25):
        c = tuple(rng.randint(1, 20) for _ in range(9))
        curve = tl3_curve(c)
        ctx = build_context(curve)
        assert v_class(ctx, builtin_table("tl3", curve)) == tl3_v_expected(c)


def test_zero_table_gives_zero_class():
    curve = builtin_curve("3balloon")
    ctx = build_context(curve)
    table = builtin_table("3balloon", curve)
    assert v_class(ctx, table).is_zero()


def test_basis_mismatch_rejected():
    curve = builtin_curve("k4")
    other = builtin_curve("tl3")
    table = builtin_table("tl3", other)
    ctx = build_context(curve)
    with pytest.raises(SchemaError):
        v_class(ctx, table)


# -- u and the closed form --------------------------------------------------------


def k4_closed_form(c):
    """det(Q) * u with two independently recomputed coefficients (see ledger)."""
    c1, c2, c3, c4, c5, c6 = c
    return {
        (0, 1, 3): -(
            c1 * c2 * c3 + c1 * c2 * c4 + c1 * c2 * c5 + c2 * c3 * c5
            + c2 * c4 * c5 + c2 * c3 * c6 + c2 * c4 * c6 + c2 * c5 * c6
            + c3 * c5 * c6
        ),
        (0, 2, 3): -c2 * c4 * (c1 + c5 + c6),
        (1, 2, 3): -c1 * c5 * c6,
        (0, 1, 4): (
            c2 * c3 * c5 + c2 * c4 * c5 + c3 * c4 * c5 + c2 * c3 * c6
            + c2 * c4 * c6 + c2 * c5 * c6 + c3 * c5 * c6
        ),
        (0, 2, 4): c2 * c4 * c6,
        (1, 2, 4): c1 * c5 * (c2 + c4 + c6),
        (0, 1, 5): -c3 * c4 * c5,
        (0, 2, 5): c2 * c4 * c5,
        (1, 2, 5): -c1 * c4 * c5,
    }


def test_k4_all_one_u_fixture():
    curve = k4_curve()
    ctx = build_context(curve)
    u = u_class(ctx, v_class(ctx, builtin_table("k4", curve)))
    assert u.coeffs == {
        (0, 1, 3): Fraction(-9, 16),
        (0, 2, 3): Fraction(-3, 16),
        (1, 2, 3): Fraction(-1, 16),
        (0, 1, 4): Fraction(7, 16),
        (0, 2, 4): Fraction(1, 16),
        (1, 2, 4): Fraction(3, 16),
        (0, 1, 5): Fraction(-1, 16),
        (0, 2, 5): Fraction(1, 16),
        (1, 2, 5): Fraction(-1, 16),
    }


def test_k4_closed_form_random_tuples():
    rng = random.Random(2)
    from helpers import det_fraction
    for _ in range(25):
        c = tuple(rng.randint(1, 20) for _ in range(6))
        curve = k4_curve(c)
        ctx = build_context(curve)
        u = u_class(ctx, v_class(ctx, builtin_table("k4", curve)))
        d = det_fraction(ctx.q_matrix)
        got = {t: x * d for t, x in u.coeffs.items()}
        assert got == {t: Fraction(x) for t, x in k4_closed_form(c).items()}


def test_u_rejected_for_singular_Q():
    """At deficient rank Q has zero weight rows, and u and the Bbar order
    are refused by the one singular-Q check of `delta_inverse_gr2`."""
    message = "Q is singular; use the membership test for deficient rank"
    for name in ("theta-w1", "3balloon"):
        curve = builtin_curve(name)
        ctx = build_context(curve)
        v = v_class(ctx, builtin_table(name, curve))
        for read in (u_class, ceresa_order):
            with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
                read(ctx, v)


@pytest.mark.parametrize("name", BUILTIN_GRAPHS)
def test_context_derives_filtration_and_wedge_basis(name):
    """Y is b_1..b_h, read off g and h (h < g on theta-w1 and 3balloon); the
    context holds no graded-image engine and no route into one."""
    ctx = build_context(builtin_curve(name))
    g, h = ctx.g, ctx.basis.h
    assert (h < g) == (name in ("theta-w1", "3balloon"))
    assert ctx.filt.y_positions == frozenset(range(g, g + h))
    assert ctx.filt == exterior.Filtration.from_Y(helpers.y_units(g, h), 2 * g)
    assert not {"engine", "frame_class"} & set(dir(ctx))


# -- orders and membership ---------------------------------------------------------


def test_k4_order_sixteen():
    curve = k4_curve()
    ctx = build_context(curve)
    v = v_class(ctx, builtin_table("k4", curve))
    assert ceresa_order(ctx, v) == 16
    assert ambient_order(ctx, v) == 16


def test_zero_class_has_order_one():
    curve = builtin_curve("3balloon")
    ctx = build_context(curve)
    v = v_class(ctx, builtin_table("3balloon", curve))
    assert in_Abar_test(ctx, v) == {"in_Abar": True, "least_multiple": 1}


def test_k4_order_divides_group_order_regression():
    curve = k4_curve((1, 1, 1, 1, 1, 2))
    ctx = build_context(curve)
    v = v_class(ctx, builtin_table("k4", curve))
    order = ceresa_order(ctx, v)
    from helpers import det_fraction
    bbar_size = 2 * int(det_fraction(ctx.q_matrix)) ** 2
    assert bbar_size % order == 0
    assert order == 24  # frozen regression value


def test_theta_membership_fixture():
    curve = builtin_curve("theta-w1")
    ctx = build_context(curve)
    v = v_class(ctx, builtin_table("theta-w1", curve))
    res = in_Abar_test(ctx, v)
    assert res == {"in_Abar": False, "least_multiple": 3}


def test_f2_plus_image_plus_h_membership():
    # a wedge of one image vector with kernel vectors has an exact preimage
    curve = builtin_curve("theta-w1")
    ctx = build_context(curve)
    g = ctx.g
    # a3 ^ b3 ^ (2b1 + b2): the last factor is (delta-I) a1
    w = WedgeVector(2 * g, 3, {(2, 6, 4): 2, (2, 6, 5): 1})
    res = in_Abar_test(ctx, w)
    assert res["in_Abar"] is True


def test_order_agrees_with_u_side_route():
    # dual route: the graded order of v equals the least n making n*u
    # integral modulo the projected copy of H inside the one-Y-factor level
    rng = random.Random(8)
    from math import lcm

    from tropceresa.exterior import wedge_basis

    for make, count in ((k4_curve, 6), (tl3_curve, 6)):
        for _ in range(count):
            c = tuple(rng.randint(1, 9) for _ in range(len(make().edges)))
            curve = make(c)
            ctx = build_context(curve)
            table = builtin_table(
                "k4" if make is k4_curve else "tl3", curve
            )
            v = v_class(ctx, table)
            u = u_class(ctx, v)
            g = ctx.g
            basis3 = wedge_basis(2 * g, 3)
            denom = lcm(*(Fraction(x).denominator for x in u.coeffs.values()))
            target = [int(x * denom) for x in u.scale(1).to_coords(basis3)]
            gr1 = [t for t in basis3 if sum(1 for i in t if i >= g) == 1]
            gens = []
            for t in gr1:
                vec = [0] * len(basis3)
                vec[basis3.index(t)] = denom
                gens.append(vec)
            for hv in helpers.embedded_H_generators(g):
                proj = [
                    denom * x if sum(1 for i in t if i >= g) == 1 else 0
                    for t, x in zip(basis3, hv)
                ]
                if any(proj):
                    gens.append(proj)
            u_route = helpers.coset_order(la.Lattice(len(basis3), gens), target)
            assert u_route == ceresa_order(ctx, v), (c, u_route)


# -- verdicts ------------------------------------------------------------------------


def test_k4_nontrivial_at_200_samples():
    rng = random.Random(3)
    for _ in range(200):
        c = tuple(rng.randint(1, 20) for _ in range(6))
        curve = k4_curve(c)
        report = analyze(
            curve, builtin_table("k4", curve), with_groups=False, with_zharkov=False
        )
        assert report.verdict == "nontrivial"
        assert report.decided_by == "u-nonintegral"


def test_hyperelliptic_trivial_fixtures():
    for name in ("theta0", "3balloon"):
        curve = builtin_curve(name)
        basis = homology_basis(curve)
        table = JohnsonTable(basis=basis, entries={}, provenance="builtin", name="zero")
        report = analyze(curve, table, with_groups=False, with_zharkov=False)
        assert report.verdict == "hyperelliptic-trivial"


def test_paired_table_on_hyperelliptic_curve_is_trivial():
    # entries paired with opposite signs across a two-edge orbit cancel when
    # the lengths respect the involution
    wmid = tropical_curve(
        [("u", 0), ("v", 0), ("m1", 1), ("m2", 1), ("m3", 1)],
        [
            ("a1", ("u", "m1"), 1),
            ("z1", ("m1", "v"), 1),
            ("a2", ("u", "m2"), 1),
            ("z2", ("m2", "v"), 1),
            ("a3", ("u", "m3"), 1),
            ("z3", ("m3", "v"), 1),
        ],
    )
    basis = homology_basis(wmid)
    g = basis.g
    val = WedgeVector(2 * g, 3, {(0, g, g + 1): 1})
    table = JohnsonTable(
        basis=basis,
        entries={"a1": val, "z1": val.scale(-1)},
        provenance="builtin",
        name="paired",
    )
    ctx = build_context(wmid)
    assert v_class(ctx, table).is_zero()
    report = analyze(wmid, table, with_groups=False, with_zharkov=False)
    assert report.verdict == "hyperelliptic-trivial"
    # bananas and chains carry only flipped or separating edges: zero tables
    for curve in (banana_curve(4), loop_chain_curve(3)):
        b = homology_basis(curve)
        zero = JohnsonTable(basis=b, entries={}, provenance="builtin", name="zero")
        rep = analyze(curve, zero, with_groups=False, with_zharkov=False)
        assert rep.verdict == "hyperelliptic-trivial"


@pytest.mark.parametrize("name,route", [
    ("tl3", "u-nonintegral"), ("theta-w1", "not-in-Abar"),
])
def test_hyperelliptic_quotient_takes_precedence_over_a_decisive_route(name, route):
    """A class some route certifies nontrivial is still reported
    hyperelliptic-trivial when the curve has a tree quotient."""
    ctx = build_context(builtin_curve(name))
    v = v_class(ctx, builtin_table(name))
    assert ceresa.nontriviality_verdict(ctx, v, False)["decided_by"] == route
    out = ceresa.nontriviality_verdict(ctx, v, True)
    assert (out["verdict"], out["decided_by"]) == (
        "hyperelliptic-trivial", "hyperelliptic quotient"
    )

def test_user_table_flagged():
    curve = k4_curve()
    basis = homology_basis(curve)
    table = JohnsonTable(basis=basis, entries={}, provenance="user", name="blank")
    report = analyze(curve, table, with_groups=False, with_zharkov=False)
    assert report.verdict == "indeterminate"
    assert any("user table" in n for n in report.notes)


# -- obstruction test -----------------------------------------------------------------


def zharkov_reference_generators(c):
    c1, c2, c3, c4, c5, c6 = c
    return [
        2 * (c1 * c4 - c2 * c5),
        2 * (c1 * c4 - c3 * c6),
        2 * (c2 * c5 + c4 * c5 + c4 * c6 + c5 * c6),
        2 * (c2 * c5 + c1 * c2 + c1 * c6 + c2 * c6),
        2 * (c2 * c5 + c1 * c3 + c1 * c5 + c3 * c5),
        2 * (c2 * c5 + c2 * c3 + c2 * c4 + c3 * c4),
    ]


def test_zharkov_all_one():
    curve = k4_curve()
    ctx = build_context(curve)
    v = v_class(ctx, builtin_table("k4", curve))
    res = zharkov_test(ctx, v)
    assert res["obstructed"] is True
    assert res["w"].coeffs == {(3, 4, 5): -2}  # -2 c2 c5 at unit lengths
    gens = zharkov_reference_generators((1,) * 6)
    assert gcd(*gens) == 8
    # same subgroup of Z as the oracle's generator list
    impl = [x.coeffs.get((3, 4, 5), 0) for x in helpers.zharkov_w_and_generators(ctx, v)[1]]
    assert gcd(*impl) == gcd(*gens)


def test_zharkov_matches_reference_generators_randomly():
    rng = random.Random(4)
    for _ in range(30):
        c = tuple(rng.randint(1, 9) for _ in range(6))
        curve = k4_curve(c)
        ctx = build_context(curve)
        v = v_class(ctx, builtin_table("k4", curve))
        res = zharkov_test(ctx, v)
        impl = [x.coeffs.get((3, 4, 5), 0) for x in helpers.zharkov_w_and_generators(ctx, v)[1]]
        ref = zharkov_reference_generators(c)
        assert gcd(*impl) == gcd(*ref)
        w = res["w"].coeffs.get((3, 4, 5), 0)
        assert w == -2 * c[1] * c[4]
        assert res["obstructed"] == (w % gcd(*ref) != 0)


def test_zharkov_zero_not_obstructed():
    curve = builtin_curve("3balloon")
    # zero class on a maximal-rank curve: use K4 with an all-zero table
    curve = k4_curve()
    ctx = build_context(curve)
    basis = homology_basis(curve)
    zero = JohnsonTable(basis=basis, entries={}, provenance="builtin", name="zero")
    res = zharkov_test(ctx, v_class(ctx, zero))
    assert res["obstructed"] is False


def test_zharkov_inconclusive_tuple_exists():
    # search small tuples where the gcd divides 2 c2 c5: the obstruction is
    # silent there while u-integrality still decides
    found = None
    for c1 in range(1, 4):
        for c2 in range(1, 4):
            for c4 in range(1, 4):
                for c5 in range(1, 4):
                    c = (c1, c2, 1, c4, c5, 1)
                    gens = zharkov_reference_generators(c)
                    g_ = gcd(*gens)
                    if g_ and (2 * c2 * c5) % g_ == 0:
                        found = c
                        break
    assert found is not None
    curve = k4_curve(found)
    ctx = build_context(curve)
    v = v_class(ctx, builtin_table("k4", curve))
    assert zharkov_test(ctx, v)["obstructed"] is False
    rep = analyze(curve, builtin_table("k4", curve), with_groups=False, with_zharkov=False)
    assert rep.verdict == "nontrivial"


def test_zharkov_rejects_deficient_rank():
    curve = builtin_curve("theta-w1")
    ctx = build_context(curve)
    with pytest.raises(PreconditionError):
        zharkov_test(ctx, v_class(ctx, builtin_table("theta-w1", curve)))


def _generic_zharkov_cases():
    """(g, ctx, kind, v, squares, top) on random Q at g = 2..6: a random
    class of pure Y-degree 2 and the gr_2 part of an integral image, so one
    whose w is a relation; `squares` holds the nonzero (delta - I)^2 images
    of the gr_1 monomials by the generic induced action of delta_from_Q(Q),
    in their order, and `top` the monomials of wedge^3 Y."""
    rng = random.Random(15)
    for g in (2, 3, 4, 5, 6):
        n = 2 * g
        for _ in range(8):
            q = helpers.random_posdef(g, rng)
            ctx = _q_context(q)
            delta = delta_from_Q(q)
            top = ctx.filt.monomials(3, 3)

            def step(x):
                return helpers.apply_matrix(delta, x) - x

            gr1 = [WedgeVector.monomial(n, t) for t in ctx.filt.monomials(3, 1, exact=True)]
            squares = [y for x in gr1 if not (y := step(step(x))).is_zero()]
            gr2 = ctx.filt.monomials(3, 2, exact=True)
            for kind in ("random", "relation"):
                if kind == "random":  # integral, halves and thirds
                    v = WedgeVector(n, 3, {
                        t: rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2),
                                       Fraction(rng.randint(-3, 3), 3)])
                        for t in rng.sample(gr2, rng.randint(1, len(gr2)))
                    })
                else:  # gr_2 part of an integral image, so w is a relation
                    x = WedgeVector.zero(n, 3)
                    for mono in rng.sample(gr1, rng.randint(1, len(gr1))):
                        x = x + mono.scale(rng.randint(-3, 3))
                    image = step(x).coeffs
                    v = WedgeVector(n, 3, {t: c for t, c in image.items() if t in gr2})
                yield g, ctx, kind, v, squares, top


def test_zharkov_closed_forms_match_generic_images():
    """w equals (delta - I) v by the generic induced action of
    delta_from_Q(Q), and `obstructed` agrees with the echelon membership
    oracle `helpers.in_span` of w in the span of the (delta - I)^2 images
    of the gr_1 monomials, on the C(g, 3) coordinates of wedge^3 Y, where
    both live; random Q at g = 2..6.  Both outcomes occur with some d_p > 1.
    The oracle relations `helpers.zharkov_w_and_generators` lists are those
    generic images.  The frame closed form the verdict reads, sum c' d_m
    b_m ^ b_p ^ b_r over the terms c' a_m ^ b_p ^ b_r of wedge^3(P) v,
    equals wedge^3(P) w."""
    outcomes = set()
    for g, ctx, kind, v, squares, top in _generic_zharkov_cases():
        n = 2 * g
        res = zharkov_test(ctx, v)
        delta = delta_from_Q(ctx.q_matrix)
        assert res["w"] == helpers.apply_matrix(delta, v) - v
        assert helpers.zharkov_w_and_generators(ctx, v)[1] == squares
        assert set(res["w"].coeffs) <= set(top)
        gens = [x.to_coords(top) for x in squares]
        member = helpers.in_span(res["w"].to_coords(top), gens, len(top))
        assert res["obstructed"] is not member
        frame = helpers.dense_columns(ctx.frame)
        framed = helpers.apply_matrix(frame, v).coeffs
        closed = WedgeVector(n, 3, {
            (g + m, p, r): c * ctx.q_diagonal[m] for (m, p, r), c in framed.items()
        })
        assert closed == helpers.apply_matrix(frame, res["w"])
        outcomes.add((g > 2, kind, res["obstructed"], max(ctx.q_diagonal) > 1))
    assert {(True, "random", True), (True, "random", False), (True, "relation", False)} <= {
        o[:3] for o in outcomes
    }
    assert {(True, "random", True, True), (True, "random", False, True)} <= outcomes


def test_zharkov_witness_is_the_least_failing_frame_coordinate():
    """The witness is the least monomial (p, q, r), in sorted order, of
    wedge^3(P) w whose coefficient 2 gcd(d_p d_q, d_p d_r, d_q d_r) does not
    divide (README, the Zharkov paragraph), with that coefficient and
    divisor, and None exactly when `helpers.in_span` puts w in the span of
    the relations; on the cases of test_zharkov_closed_forms_match_generic_images.
    Some cases fail at several coordinates, and some pass at the least
    coordinate of wedge^3(P) w and fail at a later one."""
    seen = {"several": 0, "least passes": 0, "obstructed": 0, "clean": 0}
    for g, ctx, kind, v, squares, top in _generic_zharkov_cases():
        res = zharkov_test(ctx, v)
        d = ctx.q_diagonal
        framed = helpers.apply_matrix(helpers.dense_columns(ctx.frame), res["w"]).coeffs
        divisor = {t: 2 * gcd(*(d[i - g] * d[j - g] for i, j in combinations(t, 2))) for t in framed}
        failing = sorted(t for t, c in framed.items() if c % divisor[t])
        gens = [x.to_coords(top) for x in squares]
        member = helpers.in_span(res["w"].to_coords(top), gens, len(top))
        assert (res["witness"] is None) is member is (not failing)
        assert res["obstructed"] is (res["witness"] is not None)
        if failing:
            t = failing[0]
            assert res["witness"] == {"monomial": t, "value": framed[t], "divisor": divisor[t]}
            seen["obstructed"] += 1
            seen["several"] += len(failing) > 1
            seen["least passes"] += t != min(framed)
        else:
            seen["clean"] += bool(framed)
    assert min(seen.values()) >= 3, seen


def test_obstruction_forces_bbar_order_not_u_nonintegral():
    """An obstruction forces a Bbar order above 1 (README, "Verdict"), but
    not a non-integral qualifying coordinate of u: here u = (1/2) a1^a2^b2
    has none, the order is 2, and w = -4 b1^b2^b3 lies outside the span of
    the generic (delta - I)^2 images, whose gcd on b1^b2^b3 is 8."""
    ctx = _q_context([[2, 0, 0], [0, 4, 2], [0, 2, 4]])
    v = WedgeVector(6, 3, {(0, 4, 5): -1, (1, 3, 4): -1})
    assert u_class(ctx, v) == WedgeVector(6, 3, {(0, 1, 4): Fraction(1, 2)})
    res = zharkov_test(ctx, v)
    assert res["w"] == WedgeVector(6, 3, {(3, 4, 5): -4})
    _assert_oracle_relations_are_generic_images(ctx)
    gens = [x.coeffs.get((3, 4, 5), 0) for x in helpers.zharkov_w_and_generators(ctx, v)[1]]
    assert gcd(*gens) == 8 and res["obstructed"]
    decision = nontriviality_verdict(ctx, v, False)
    assert (decision["decided_by"], decision["order_bbar"]) == ("order-in-Bbar", 2)


def test_zharkov_relations_have_the_closed_form_smith_diagonal():
    """The original-frame relation matrix has rank C(g, 3) and the invariant
    factors of the coordinate lattice 2 gcd(d_p d_q, d_p d_r, d_q d_r),
    p < q < r, with d the invariant factors of Q from the textbook Smith
    form; random Q at g = 3..7.  The invariant factors a report prints, read
    off the diagonal D, are those of Q_h itself."""
    rng = random.Random(17)
    contexts = []
    for g in (3, 4, 5, 6, 7):
        for _ in range(12):
            q = helpers.random_posdef(g, rng)
            ctx = _q_context(q)
            top = ctx.filt.monomials(3, 3)
            v = WedgeVector.monomial(2 * g, ctx.filt.monomials(3, 2, exact=True)[0])
            gens = [x.to_coords(top) for x in helpers.zharkov_w_and_generators(ctx, v)[1]]
            rank, orders = la.snf_diagonal_orders(gens)
            assert rank == comb(g, 3)
            for d in (helpers.smith_normal_form(q).diag, ctx.q_diagonal):
                closed = [2 * gcd(x * y, x * z, y * z) for x, y, z in combinations(d, 3)]
                assert helpers.invariant_factors_from_orders(orders) == (
                    helpers.invariant_factors_from_orders(closed)
                )
            contexts.append(ctx)
    # the reported invariant factors, read off D, are those of Q_h; also at
    # deficient rank (zero weight slots), with shared factors and at h = 0
    for g in (2, 4, 6):
        for h, m in ((g, 6), (g - 1, 1), (g // 2, 4), (0, 1)):
            q = [[m * x for x in row] + [0] * (g - h) for row in helpers.random_posdef(h, rng)]
            basis = SimpleNamespace(g=g, h=h)
            contexts.append(PipelineContext(None, 1, basis, q + [[0] * g] * (g - h)))
    for ctx in contexts:
        h = ctx.basis.h
        q_h = [row[:h] for row in ctx.q_matrix[:h]]
        assert ctx.invariant_factors == helpers.smith_normal_form(q_h).diag


def test_pair_sum_products_match_per_monomial_oracles():
    """zharkov_test's w (one wedge per Y-pair) and u (one set of wedges per
    Y-pair) equal the per-monomial products, on 200 pure gr_2 classes at
    g = 2..6 with several monomials on most pairs, integral and rational;
    the oracle's relation generators are the generic (delta - I)^2 images,
    checked once per Q."""
    rng = random.Random(36)
    stats = {"classes": 0, "shared pairs": 0, "fractional": 0, "obstructed": 0}
    for g in range(2, 7):
        n = 2 * g
        pairs = list(combinations(range(g, n), 2))
        for trial in range(40):
            if trial % 8 == 0:
                ctx = _q_context(helpers.random_posdef(g, rng))
                _assert_oracle_relations_are_generic_images(ctx)
            coeffs = {}
            for p, r in rng.sample(pairs, rng.randint(1, min(4, len(pairs)))):
                ms = rng.sample(range(g), rng.randint(min(2, g), g))
                stats["shared pairs"] += 1
                for m in ms:
                    coeffs[m, p, r] = rng.choice(
                        [rng.randint(-5, 5) or 2, Fraction(rng.randint(-5, 5) or 1, rng.randint(2, 4))]
                    )
            v = WedgeVector(n, 3, coeffs)
            res = zharkov_test(ctx, v)
            assert res["w"] == helpers.zharkov_w_and_generators(ctx, v)[0], v
            assert u_class(ctx, v) == helpers.delta_inverse_gr2_by_monomial(ctx.q_matrix, v)
            stats["classes"] += 1
            stats["fractional"] += any(Fraction(c).denominator > 1 for c in v.coeffs.values())
            stats["obstructed"] += res["obstructed"]
    assert stats["classes"] == 200 and stats["shared pairs"] >= 300, stats
    assert stats["fractional"] >= 100 and stats["obstructed"] >= 20, stats


def _shared_pair_class(g, rng, fractional):
    """A pure gr_2 class with up to five Y-pairs, two to four monomials on
    each, and integral or fractional coefficients."""
    pairs = list(combinations(range(g, 2 * g), 2))
    coeffs = {}
    for p, r in rng.sample(pairs, 5):
        for m in rng.sample(range(g), rng.randint(2, 4)):
            coeffs[m, p, r] = (
                Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 7))
                if fractional else rng.randint(-9, 9) or 1
            )
    return WedgeVector(2 * g, 3, coeffs)


def _assert_oracle_relations_are_generic_images(ctx):
    """The relations of `helpers.zharkov_w_and_generators` are the nonzero
    (delta - I)^2 images of the gr_1 monomials by the generic induced action
    of delta_from_Q(Q), in their order."""
    n = 2 * ctx.g
    delta = delta_from_Q(ctx.q_matrix)

    def step(x):
        return exterior.apply_matrix(delta, x) - x

    squares = (step(step(WedgeVector.monomial(n, t))) for t in ctx.filt.monomials(3, 1, exact=True))
    gens = helpers.zharkov_w_and_generators(ctx, WedgeVector.zero(n, 3))[1]
    assert gens == [x for x in squares if not x.is_zero()]


def _assert_minor_forms_match_oracles(ctx, v):
    assert zharkov_test(ctx, v)["w"] == helpers.zharkov_w_and_generators(ctx, v)[0], v
    u = u_class(ctx, v)
    assert u == helpers.delta_inverse_gr2_by_monomial(ctx.q_matrix, v), v
    return u


@pytest.mark.parametrize("g", [7, 8, 9, 10, 11, 12])
def test_minor_forms_match_per_monomial_oracles_on_ladders(monkeypatch, g):
    """u and zharkov_test's w equal the per-monomial wedge products, and the
    oracle's relation generators the generic (delta - I)^2 images, on the
    Gram matrices of a prism and a Moebius ladder of genus g at seeded
    lengths 1..30, for integral and fractional classes; the rank cap is
    lifted for this test only."""
    monkeypatch.setattr(exterior, "MAX_RANK", 2 * g)
    rng = random.Random(270 + g)
    for twisted in (False, True):
        q = helpers.ladder_gram(g - 1, [rng.randint(1, 30) for _ in range(3 * g - 3)], twisted)
        ctx = _q_context(q)
        _assert_oracle_relations_are_generic_images(ctx)
        for fractional in (False, True):
            u = _assert_minor_forms_match_oracles(ctx, _shared_pair_class(g, rng, fractional))
            assert any(Fraction(c).denominator > 1 for c in u.coeffs.values())


def test_minor_forms_match_per_monomial_oracles_on_the_g5_golden_q():
    """The same on the genus-5 golden curve, whose Smith diagonal is
    (1, 1, 1, 1, 304), so Q^-1 has denominator 304: its own class and
    fractional classes, u's denominators taking the factor 19 of 304."""
    curve, table = _g5_golden()
    ctx = build_context(curve)
    assert ctx.q_diagonal == [1, 1, 1, 1, 304]
    _assert_oracle_relations_are_generic_images(ctx)
    classes = [v_class(ctx, table)]
    rng = random.Random(305)
    classes += [_shared_pair_class(5, rng, fractional=True) for _ in range(20)]
    nineteens = 0
    for v in classes:
        u = _assert_minor_forms_match_oracles(ctx, v)
        nineteens += any(Fraction(c).denominator % 19 == 0 for c in u.coeffs.values())
    assert nineteens >= 15, nineteens


def test_zharkov_test_builds_no_lattice(monkeypatch):
    cases = []
    for name in ("k4", "tl3"):
        curve = builtin_curve(name)
        ctx = build_context(curve)
        ctx.frame  # the Smith frame inverts V on its own tagged rows
        cases.append((ctx, v_class(ctx, builtin_table(name, curve))))
    built = []
    init = la.Lattice.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(la.Lattice, "__init__", counted_init)
    for ctx, v in cases:
        assert zharkov_test(ctx, v)["obstructed"] is True
    assert built == []


def _forbid_engines(monkeypatch):
    """Make the build of any graded-image engine fail the test."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a graded-image engine was built")

    monkeypatch.setattr(GradedImages, "__init__", refuse)


def test_zharkov_test_builds_the_frame_and_no_engine(monkeypatch):
    """The Zharkov verdict reads the Smith frame, built once on first read,
    and never a graded-image engine."""
    _forbid_engines(monkeypatch)
    calls = []
    smith_frame = ceresa.smith_frame

    def counting(*args):
        calls.append(args)
        return smith_frame(*args)

    monkeypatch.setattr(ceresa, "smith_frame", counting)
    for name in ("k4", "tl3"):
        calls.clear()
        ctx = build_context(builtin_curve(name))
        v = v_class(ctx, builtin_table(name))
        assert calls == [] and "frame" not in vars(ctx)
        assert zharkov_test(ctx, v)["obstructed"] is True
        assert len(calls) == 1 and "frame" in vars(ctx)


@pytest.mark.parametrize("name", ["k4", "tl3", "g5"])
def test_verdict_only_analyze_builds_no_smith_frame(monkeypatch, name):
    """A maximal-rank report without groups and the Zharkov test, as `order`
    and `sample` ask for, reads u and Q, and u reads the fraction-free
    inverse of Q: its context reduces Q_h once, for the invariant factors
    the report prints, and never builds the Smith frame or a graded-image
    engine."""
    curve, table = (
        _g5_golden() if name == "g5" else (builtin_curve(name), builtin_table(name))
    )
    frames = []
    smith_frame = ceresa.smith_frame

    def counting(*args):
        frames.append(args)
        return smith_frame(*args)

    monkeypatch.setattr(ceresa, "smith_frame", counting)
    _forbid_engines(monkeypatch)
    reduced, contexts = helpers.record_q_reductions(monkeypatch)
    report = analyze(curve, table, with_groups=False, with_zharkov=False)
    assert report.ctx.rank_status == "maximal" and report.invariant_factors
    assert frames == [] and contexts == [report.ctx]
    assert "frame" not in vars(contexts[0])
    helpers.assert_q_reductions_per_context(reduced, contexts, 1)


@pytest.mark.parametrize("name", [*BUILTIN_GRAPHS, "g5"])
def test_a_full_report_reduces_q_once(monkeypatch, name):
    """A full report, verdict, groups, Zharkov test and both renderings
    included, Smith-reduces the cycle block Q_h of its one context exactly
    once: u, the frame, the group tables and the printed invariant factors
    all read that reduction.  theta0 has no built-in table, so it gets the
    zero table."""
    if name == "g5":
        curve, table = _g5_golden()
    else:
        curve = builtin_curve(name)
        table = (
            builtin_table(name, curve) if name in BUILTIN_TABLES
            else JohnsonTable(basis=homology_basis(curve), entries={}, provenance="builtin")
        )
    reduced, contexts = helpers.record_q_reductions(monkeypatch)
    report = analyze(curve, table)
    assert report.to_json()["invariant_factors"] == report.invariant_factors
    assert "invariant factors of Q" in report.to_text()
    assert len(contexts) == 1 and report.ctx is contexts[0]
    helpers.assert_q_reductions_per_context(reduced, contexts, 1)


def test_context_inverse_of_q_matches_gauss_jordan():
    """The fraction-free inverse (den, den Q^-1) of the context's Q equals
    den times the Gauss-Jordan inverse over Q, whose least common
    denominator is den: on 420 seeded Q at g = 1..6, one in three scaled by
    3 so that the Smith diagonal entries d_i share factors and den =
    lcm(d) < det Q, and on prism and Moebius-ladder Gram matrices at
    g = 8..16 (seeded lengths 1..30)."""
    rng = random.Random(290)
    qs = [
        [[(3 if t % 3 == 0 else 1) * x for x in row] for row in helpers.random_posdef(g, rng)]
        for g in range(1, 7)
        for t in range(70)
    ]
    for g in range(8, 17):
        qs += [
            helpers.ladder_gram(g - 1, [rng.randint(1, 30) for _ in range(3 * g - 3)], twisted)
            for twisted in (False, True)
        ]
    shared = 0
    for q in qs:
        ctx = _q_context(q)
        den, scaled = la.scaled_inverse(ctx.q_matrix)
        oracle = helpers.frac_inverse(q)
        assert den == lcm(*(x.denominator for row in oracle for x in row)), q
        assert scaled == [[x * den for x in row] for row in oracle], q
        shared += sum(d > 1 for d in ctx.q_diagonal) > 1
    assert len(qs) == 438 and shared >= 50, shared


def test_analyze_and_sample_build_no_graded_image_engine(capsys, monkeypatch):
    """A full report and `sample` draws at every rank, maximal (k4, tl3, the
    genus-5 golden) and deficient (theta-w1, 3balloon), verdict, orders,
    groups and Zharkov test included, build their contexts and no
    graded-image engine: the orders and the groups are read off D block by
    block."""
    from tropceresa.cli import main

    built = []

    def counting(cls):
        init = cls.__init__

        def counted_init(self, *args, **kwargs):
            built.append(cls)
            init(self, *args, **kwargs)

        return counted_init

    for cls in (GradedImages, PipelineContext):  # each has its own __init__
        monkeypatch.setattr(cls, "__init__", counting(cls))
    cases = [(name, builtin_curve(name), builtin_table(name)) for name in BUILTIN_TABLES]
    cases.append(("g5", *_g5_golden()))
    ranks = set()
    for name, curve, table in cases:
        built.clear()
        report = analyze(curve, table)
        ranks.add(report.ctx.rank_status)
        assert report.groups is not None
        assert (report.zharkov is not None) == (report.ctx.rank_status == "maximal")
        assert built == [PipelineContext]
    assert ranks == {"maximal", "deficient"}
    for name in BUILTIN_TABLES:
        built.clear()
        assert main([
            "sample", "--graph", f"builtin:{name}", "--table", f"builtin:{name}",
            "--count", "4", "--seed", "5", "--workers", "1",
        ]) == 0
        assert built == [PipelineContext] * 4
    capsys.readouterr()


# -- invariances ---------------------------------------------------------------------


def test_scaling_invariance():
    for name, make in (("k4", k4_curve), ("tl3", tl3_curve)):
        base = make()
        base_rep = analyze(
            base, builtin_table(name, base), with_groups=False, with_zharkov=False
        )
        for m in (2, 7):
            cur = make(tuple(m for _ in base.edges))
            rep = analyze(
                cur, builtin_table(name, cur), with_groups=False, with_zharkov=False
            )
            assert rep.verdict == base_rep.verdict
            assert rep.order_bbar == base_rep.order_bbar
    tw = builtin_curve("theta-w1")
    base = analyze(tw, builtin_table("theta-w1", tw), with_groups=False, with_zharkov=False)
    for m in (2, 7):
        cur = tw.with_lengths({e.id: e.length * m for e in tw.edges})
        rep = analyze(cur, builtin_table("theta-w1", cur), with_groups=False, with_zharkov=False)
        assert (rep.verdict, rep.least_multiple) == (base.verdict, base.least_multiple)


def test_rational_lengths_scaled_and_invariant():
    curve = k4_curve((Fraction(1, 2),) * 6)
    rep = analyze(curve, builtin_table("k4", curve), with_groups=False, with_zharkov=False)
    assert rep.ctx.scale == 2
    assert rep.verdict == "nontrivial"
    assert rep.order_bbar == 16


def test_coboundary_invariance():
    rng = random.Random(5)
    curve = k4_curve()
    ctx = build_context(curve)
    table = builtin_table("k4", curve)
    v0 = v_class(ctx, table)
    base = (ceresa_order(ctx, v0), ambient_order(ctx, v0))
    g = 3
    for _ in range(10):
        coeffs = {}
        for _ in range(3):
            i, j, k = rng.randrange(g), rng.randrange(g), rng.randrange(g)
            if i < j:
                coeffs[(i, j, g + k)] = rng.randint(-3, 3)
            p, q = sorted((rng.randrange(g), rng.randrange(g)))
            if p < q:
                coeffs[(rng.randrange(g), g + p, g + q)] = rng.randint(-3, 3)
        t = WedgeVector(2 * g, 3, coeffs) + embed_H_in_L(
            [rng.randint(-2, 2) for _ in range(2 * g)], g
        )
        shifted = coboundary_shift(table, t)
        v1 = v_class(ctx, shifted)
        assert (ceresa_order(ctx, v1), ambient_order(ctx, v1)) == base


def test_tree_rechoice_invariance():
    rng = random.Random(6)
    lengths = tuple(rng.randint(1, 20) for _ in range(6))
    curve = k4_curve(lengths)
    base_ctx = build_context(curve)
    base_tab = builtin_table("k4", curve)
    vb = v_class(base_ctx, base_tab)
    base = (ceresa_order(base_ctx, vb), ambient_order(base_ctx, vb))
    for tree in rng.sample(spanning_trees(curve), 5):
        ctx2 = build_context(curve, tree=tree)
        assert ctx2.basis.tree_edges == tuple(sorted(tree))
        s = basis_change_matrix(base_ctx.basis, ctx2.basis)
        tab2 = transform_table(base_tab, ctx2.basis, s)
        v2 = v_class(ctx2, tab2)
        assert (ceresa_order(ctx2, v2), ambient_order(ctx2, v2)) == base


def test_tree_rechoice_theta_membership():
    curve = builtin_curve("theta-w1")
    base_ctx = build_context(curve)
    base_tab = builtin_table("theta-w1", curve)
    for tree in (("t1",), ("u2",), ("u3",)):
        ctx2 = build_context(curve, tree=tree)
        assert ctx2.basis.tree_edges == tuple(sorted(tree))
        s = basis_change_matrix(base_ctx.basis, ctx2.basis)
        tab2 = transform_table(base_tab, ctx2.basis, s)
        res = in_Abar_test(ctx2, v_class(ctx2, tab2))
        assert res == {"in_Abar": False, "least_multiple": 3}


# -- reports ----------------------------------------------------------------------


def test_report_json_round_trips():
    import json

    curve = k4_curve()
    rep = analyze(curve, builtin_table("k4", curve))
    data = rep.to_json()
    assert json.loads(json.dumps(data)) == data
    assert data["verdict"] == "nontrivial"
    assert data["order_in_Bbar"] == 16
    assert data["groups"]["Bbar"]["order"] == 512
    assert data["invariant_factors"] == [1, 4, 4]
    text = rep.to_text()
    assert "verdict: nontrivial" in text
    assert "order of v in Bbar: 16" in text


def test_report_invariant_nontrivial_implies_witness():
    rng = random.Random(7)
    for _ in range(10):
        c = tuple(rng.randint(1, 9) for _ in range(6))
        curve = k4_curve(c)
        rep = analyze(curve, builtin_table("k4", curve), with_groups=False, with_zharkov=False)
        if rep.verdict == "nontrivial":
            assert (
                rep.order_bbar and rep.order_bbar > 1
            ) or helpers.nonintegral_qualifying_coordinates(build_context(curve), rep.u)


def test_qualifying_coordinates_have_a_y_index_unpaired_with_their_a_indices():
    """Among the gr_1 coordinates a_i ^ a_j ^ b_k of u, only those with k
    distinct from i and j qualify."""
    ctx = build_context(builtin_curve("k4"))  # g = 3: a = 0..2, b = 3..5
    half = Fraction(1, 2)
    u = WedgeVector(6, 3, {
        (0, 1, 3): half,  # a1 a2 b1: b1 pairs with a1
        (0, 1, 4): half,  # a1 a2 b2: b2 pairs with a2
        (0, 1, 5): half,  # a1 a2 b3: qualifies
        (0, 2, 4): 3,     # a1 a3 b2: qualifies, but integral
    })
    assert helpers.nonintegral_qualifying_coordinates(ctx, u) == [((0, 1, 5), half)]

@pytest.mark.parametrize("name", ["k4", "tl3", "theta-w1"])
def test_context_generators_match_fresh_computation(name):
    """The cached (delta-I) images of a context's Smith-frame engine and its
    embedded H, omega' ^ H with omega' = wedge^2(P) omega, equal a fresh
    computation by the sorting oracles."""
    curve = builtin_curve(name)
    ctx = build_context(curve)
    eng = helpers.smith_frame_engine(ctx)
    for level in (None, 1):
        monos = eng.wedge if level is None else ctx.filt.monomials(3, level, exact=True)
        fresh = [
            w.to_coords(eng.wedge)
            for w in helpers._delta_minus_I_images(eng.delta, ctx.filt, monos)
            if not w.is_zero()
        ]
        assert helpers.image_generators(eng, level) == fresh
    omega_p = helpers.apply_matrix(helpers.dense_columns(ctx.frame), omega(ctx.g))
    assert helpers.h_generators(eng) == [
        helpers.wedge_vector(omega_p, unit).to_coords(eng.wedge)
        for unit in la.identity(2 * ctx.g)
    ]


@pytest.mark.parametrize("name", BUILTIN_GRAPHS)
def test_group_table_matches_exterior_groups(name):
    """The Smith-frame groups equal the module-level groups of the original
    delta."""
    ctx = build_context(builtin_curve(name))
    y = helpers.y_units(ctx.g, ctx.basis.h)
    delta = delta_from_Q(ctx.q_matrix)
    assert group_table(ctx) == {
        "A": A_group(delta, y, 2),
        "B": B_group(delta, y, 2),
        "Abar": Abar_group(delta, y),
        "Bbar": Bbar_group(delta, y),
    }


# -- the Smith frame against the original-frame engine ----------------------------


def _q_context(q, g=None):
    """The context of a Gram matrix q alone: at maximal rank, or with q as
    the cycle block Q_h of a genus-g curve whose last g - h slots are
    weights."""
    g = len(q) if g is None else g
    basis = SimpleNamespace(g=g, h=len(q))
    return PipelineContext(curve=None, scale=1, basis=basis, q_matrix=helpers.padded(q, g))


def _original_engine(ctx):
    """The original-frame engine of the context's Q: the oracle."""
    h = len(ctx.filt.y_positions)
    return GradedImages.build(delta_from_Q(ctx.q_matrix), helpers.y_units(ctx.g, h), 3)


def _engine_groups(eng):
    return {
        "A": eng.A_group(2),
        "B": eng.B_group(2),
        "Abar": eng.Abar_group(),
        "Bbar": eng.Bbar_group(),
    }


def _original_orders(eng, v, maximal_rank):
    """Order in Bbar (None off F2 + H, and at deficient rank, where
    `ceresa_order` is undefined), ambient order and least multiple in Abar,
    read off the original-frame lattices."""
    coords = eng.graded_coords(v.coeffs, len(eng.wedge))
    head = eng.graded_coords(v.coeffs, eng.start(3))
    f3 = (c for i, c in coords.items() if i not in head)
    inside = maximal_rank and all(Fraction(c).denominator == 1 for c in f3) and (
        helpers.coset_order(eng.bbar_lattice, head, eng.start(2)) == 1
    )
    return (
        helpers.coset_order(eng.bbar_lattice, head) if inside else None,
        helpers.coset_order(eng.abar_lattice, coords),
        helpers.coset_order(eng.abar_lattice, coords, eng.start(2)),
    )


def _pipeline_orders(ctx, v):
    try:
        bbar = ceresa_order(ctx, v)
    except PreconditionError:
        bbar = None
    return bbar, ambient_order(ctx, v), in_Abar_test(ctx, v)["least_multiple"]


def _order_kind(x):
    return "none" if x is None else "1" if x == 1 else "inf" if x == inf else ">1"


def _assert_matches_original_frame(ctx, rng, classes, seen):
    """Groups and orders of random classes (plus `classes`) agree; `seen`
    collects (route, kind of order) pairs for coverage."""
    eng = _original_engine(ctx)
    assert group_table(ctx) == _engine_groups(eng)
    kinds = ("F2+H", "relations", "F2 sixths", "random")
    classes = list(classes) + [_random_sixths_class(eng, rng, kinds[t % 4]) for t in range(8)]
    for v in classes:
        got = _pipeline_orders(ctx, v)
        assert got == _original_orders(eng, v, ctx.maximal_rank)
        seen.update(zip(("bbar", "ambient", "abar"), map(_order_kind, got)))


@pytest.mark.parametrize("g", [3, 4, 5])
def test_smith_frame_matches_original_frame_on_random_q(g):
    """Groups and the three verdict orders of the Smith-frame context equal
    those of the original-frame engine, on seeded positive definite Q."""
    seen = set()
    for seed in range(3):
        rng = random.Random(100 * g + seed)
        ctx = _q_context(helpers.random_posdef(g, rng))
        _assert_matches_original_frame(ctx, rng, [], seen)
    assert {("bbar", "none"), ("bbar", ">1"), ("ambient", "inf"), ("abar", ">1")} <= seen


def test_smith_frame_matches_original_frame_on_fixtures():
    """The same at random lengths on every fixture, with the fixture's own
    class; theta-w1 and 3balloon run at deficient rank."""
    rng = random.Random(14)
    seen, ranks = set(), set()
    for name in BUILTIN_GRAPHS:
        for _ in range(2):
            base = builtin_curve(name)
            lengths = [rng.randint(1, 20) for _ in base.edges]
            curve = with_sorted_lengths(base, lengths)
            ctx = build_context(curve)
            ranks.add((name, ctx.rank_status))
            classes = []
            if name in BUILTIN_TABLES:
                classes.append(v_class(ctx, builtin_table(name, curve)))
            _assert_matches_original_frame(ctx, rng, classes, seen)
    assert {("theta-w1", "deficient"), ("3balloon", "deficient"), ("tl3", "maximal")} <= ranks
    assert {("bbar", ">1"), ("abar", ">1"), ("ambient", ">1")} <= seen


def test_untransported_omega_changes_the_h_quotients():
    """On this Q the diagonal frame needs omega' = wedge^2(P) omega: with the
    standard omega its Abar and Bbar differ from the original ones, while A
    and B, which do not see H, agree."""
    ctx = _q_context(helpers.random_posdef(5, random.Random(7)))
    eng = _original_engine(ctx)
    framed = helpers.smith_frame_engine(ctx)
    plain = GradedImages.build(framed.delta, helpers.y_units(5, 5), 3)
    want = _engine_groups(eng)
    assert _engine_groups(framed) == want
    got = _engine_groups(plain)
    assert (got["A"], got["B"]) == (want["A"], want["B"])
    assert got["Abar"] != want["Abar"] and got["Bbar"] != want["Bbar"]



@pytest.mark.parametrize("doubled", [2, 3, 4, 5])
def test_group_table_closed_forms_at_genus_5_to_8(doubled):
    """Criterion 5's closed-form orders, read through the block route of
    one maximal-rank context, from D and omega' (criterion 5 itself calls
    the module-level groups, one engine each).
    The curve is K4 with `doubled` edges doubled, at seeded lengths."""
    rng = random.Random(50 + doubled)
    curve = k4_doubled(doubled, [rng.randint(1, 9) for _ in range(6 + doubled)])
    ctx = build_context(curve)
    g = ctx.g
    assert (g, ctx.maximal_rank) == (3 + doubled, True)
    qf = la.invariant_factor_diagonal(ctx.q_matrix)
    detq = prod(qf)
    tail = prod(qf[i] ** comb(g - 1 - i, 2) for i in range(g))
    base = 2 ** comb(g, 3)
    orders = {k: grp.order for k, grp in group_table(ctx).items()}
    assert orders == {
        "A": base * detq ** comb(g, 2) * tail,
        "B": base * detq ** comb(g, 2),
        "Abar": base * detq ** (comb(g, 2) - 1) * tail,
        "Bbar": base * detq ** (comb(g, 2) - 1),
    }


# -- groups by blocks, against whole-wedge^3 lattices ------------------------------


def _module_groups(q, g=None):
    """The module-level groups of delta_Q in the original frame, for q the
    cycle block Q_h padded with g - h weight slots as in `_q_context`: the
    oracle of the block route."""
    g = len(q) if g is None else g
    y = helpers.y_units(g, len(q))
    delta = delta_from_Q(helpers.padded(q, g))
    return {
        "A": A_group(delta, y, 2),
        "B": B_group(delta, y, 2),
        "Abar": Abar_group(delta, y),
        "Bbar": Bbar_group(delta, y),
    }


def _is_chain(d) -> bool:
    return all(b % a == 0 for a, b in zip(d, d[1:]))


def _assert_gcd_split(groups, d):
    """A = B + T and Abar = Bbar + T, with T the sum of the Z/gcd(d_i, d_j, d_k)
    over i < j < k (README, "Groups")."""
    t = [gcd(d[i], d[j], d[k]) for i, j, k in combinations(range(len(d)), 3)]
    for big, small in (("A", "B"), ("Abar", "Bbar")):
        orders = list(groups[small].torsion) + t
        assert groups[big].torsion == tuple(la.invariant_factors_from_orders(orders))


@pytest.mark.parametrize("g, count", [(2, 66), (3, 60), (4, 52), (5, 20), (6, 2)])
def test_block_groups_match_original_frame_on_seeded_q(monkeypatch, g, count):
    """group_table reads the groups off D (and omega' at maximal rank) block
    by block, and builds no engine; they equal the module-level groups of
    delta_Q in the original frame on seeded positive definite Q.  At
    maximal rank every third Q is scaled by 3, so that the d_i share a
    factor.  At each deficient rank h < g the Q_h of `_q_context` are
    seeded apart, and every third is scaled by 6, so that pairs and triples
    of d_1..d_h share factors; there group_table builds no engine, no frame
    and no Lattice past the reduction of Q, and the coverage floors reach
    h = 0 and 1, two or more weight slots, T != 0 at h >= 3 and a pair with
    gcd(d_i, d_j) != d_i."""
    rng = random.Random(2600 + g)
    chains = set()
    for t in range(count):
        q = helpers.random_posdef(g, rng)
        if t % 3 == 2:
            q = [[3 * x for x in row] for row in q]
        ctx = _q_context(q)
        want = _module_groups(q)
        assert group_table(ctx) == want, q
        chains.add(_is_chain(ctx.q_diagonal))
        _assert_gcd_split(want, ctx.q_diagonal)
    if g in (3, 4):
        assert chains == {True, False}  # D need not be a divisibility chain
    rng = random.Random(2700 + g)
    built = _count_lattices(monkeypatch)
    seen = set()
    for t in range(max(4, count // 5)):
        for h in range(g):
            q = helpers.random_posdef(h, rng)
            if t % 3 == 2:
                q = [[6 * x for x in row] for row in q]
            ctx = _q_context(q, g)
            want = _module_groups(q, g)
            assert ctx.smith  # the curve's one reduction of Q, shared with the verdict
            built.clear()
            assert group_table(ctx) == want, (q, g)
            assert built == [] and not {"frame", "omega_frame"} & set(vars(ctx))
            d = ctx.q_diagonal[:h]
            _assert_gcd_split(want, d)
            seen.update({"h0"} if h == 0 else {"h1"} if h == 1 else set())
            seen.update({"wide"} if g - h >= 2 else set())
            if any(gcd(d[i], d[j], d[k]) > 1 for i, j, k in combinations(range(h), 3)):
                seen.add("T")
            if any(gcd(d[i], d[j]) != d[i] for i, j in combinations(range(h), 2)):
                seen.add("pair")
    assert {"h0", "h1", "wide"} <= seen
    assert ("T" in seen) == (g >= 4) and ("pair" in seen) == (g >= 3)


@pytest.mark.parametrize("d", [[2, 3], [6, 10, 15], [1, 2, 1, 18], [4, 6, 9, 2, 3]])
def test_block_groups_on_diagonals_that_are_no_divisibility_chain(d):
    """A diagonal Q is its own Smith diagonal, so here D = Q is no
    divisibility chain, and the blocks' gcds and Smith transforms differ
    from block to block."""
    q = [[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)]
    ctx = _q_context(q)
    assert ctx.q_diagonal == d
    want = _module_groups(q)
    assert group_table(ctx) == want
    _assert_gcd_split(want, d)


@pytest.mark.parametrize("g", [8, 9, 10, 11, 12])
def test_block_groups_match_whole_wedge_engine_on_ladders(monkeypatch, g):
    """On the Gram matrices of a prism and a Moebius ladder of genus g, at
    seeded lengths 1..30, group_table equals the four groups of the
    context's Smith-frame engine, the whole-wedge^3 route it replaces.  The
    original frame costs 6 to 10 s a case from g = 8 on, so the engine is
    the oracle here; the rank cap is lifted for this test only.  Weighted
    copies put the ladders of genus g - 1 and g - 2 on the cycle slots of a
    genus-g curve, at deficient rank h = g - 1 and g - 2.  forced_order,
    with q None and 2, equals the coset orders in the same engine's Abar
    lattice on sparse classes with coefficients in (1/6)Z, moved into the
    frame by P for the engine."""
    monkeypatch.setattr(exterior, "MAX_RANK", 2 * g)
    rng = random.Random(260 + g)
    grams = [
        helpers.ladder_gram(g - 1, [rng.randint(1, 30) for _ in range(3 * g - 3)], twisted)
        for twisted in (False, True)
    ]
    weighted = [
        helpers.ladder_gram(h - 1, [rng.randint(1, 30) for _ in range(3 * h - 3)], twisted)
        for h in (g - 1, g - 2)
        for twisted in (False, True)
    ]
    kinds = set()
    for q in grams + weighted:
        ctx = _q_context(q, g)
        eng = helpers.smith_frame_engine(ctx)
        assert group_table(ctx) == _engine_groups(eng)
        for trial in range(4):
            v = _sparse_sixths_class(ctx, rng, trial)
            framed = apply_matrix(helpers.dense_columns(ctx.frame), v)
            for order_q in (2, None):
                want = helpers.abar_order(eng, framed.coeffs, order_q)
                assert forced_order(ctx, v, order_q) == want, (q, v, order_q)
                kinds.add((len(q) < g, order_q, _order_kind(want)))
    assert {(True, 2, ">1"), (True, None, ">1"), (False, None, ">1")} <= kinds, kinds


def _sparse_sixths_class(ctx, rng, trial):
    """A sparse class in (1/6)Z of the original frame, built from the
    generators that decide the orders: F_2 monomials, H and (delta-I)
    images of monomials (`_random_sixths_class` densifies them, which costs
    too much from g = 8 on)."""
    n = 2 * ctx.g
    delta = delta_from_Q(ctx.q_matrix)
    units = la.identity(n)
    monos = list(combinations(range(n), 3))
    f2 = [t for t in monos if ctx.filt.y_degree(t) >= 2]
    h = [omega(ctx.g).wedge_vector(units[j]) for j in rng.sample(range(n), 2)]
    images = [
        apply_matrix(delta, WedgeVector.monomial(n, t)) - WedgeVector.monomial(n, t)
        for t in rng.sample(monos, 3)
    ]
    pick = [
        [(WedgeVector.monomial(n, t), 1) for t in rng.sample(f2, 3)] + [(x, 1) for x in h],
        [(x, 6) for x in images + h],
        [(WedgeVector.monomial(n, t), 6) for t in rng.sample(f2, 3)] + [(x, 1) for x in h],
        [(WedgeVector.monomial(n, t), 6) for t in rng.sample(monos, 2)],
    ][trial % 4]
    v = WedgeVector.zero(n, 3)
    for x, den in pick:
        v = v + x.scale(Fraction(rng.randint(1, 6), den))
    return v


def test_group_table_reuses_cached_images(monkeypatch):
    ctx = build_context(builtin_curve("tl3"))
    assert ctx.omega_frame.coeffs  # omega' is mapped on first read
    calls = []

    def counted(*args):
        calls.append(args)
        return apply_columns(*args)

    monkeypatch.setattr(exterior, "apply_columns", counted)
    monkeypatch.setattr(ceresa, "apply_columns", counted)
    group_table(ctx)
    assert len(calls) == 0
    # the Zharkov verdict moves w, never v, into the Smith frame once and
    # applies no delta
    v = v_class(ctx, builtin_table("tl3"))
    result = zharkov_test(ctx, v)
    assert calls == [(ctx.frame, result["w"])]


def _random_sixths_class(ctx, rng, kind):
    """A class with coefficients in (1/6)Z, built from the generators that
    decide the routes: F2 units, H, (delta-I) images and plain monomials."""
    f2, h = helpers.f_units(ctx, 2), helpers.h_generators(ctx)
    if kind == "F2+H":  # integral, inside the graded domain
        parts = [(f2 + h, 1)]
    elif kind == "relations":  # inside the rational span of (delta-I)L + H
        parts = [(helpers.image_generators(ctx) + h, 6)]
    elif kind == "F2 sixths":  # denominators only on F2 coordinates
        parts = [(f2 + h, 1), (f2, 6)]
    else:
        parts = [(helpers.f_units(ctx, 0), 6)]
    coords = [0] * len(ctx.wedge)
    for gens, den in parts:
        for gen in rng.sample(gens, min(len(gens), rng.randint(1, 4))):
            c = Fraction(rng.randint(-6, 6), den)
            coords = [x + c * y for x, y in zip(coords, gen)]
    return WedgeVector(ctx.filt.n, 3, dict(zip(ctx.wedge, coords)))


def test_verdict_routes_match_fresh_lattice_oracles():
    """ceresa_order, a closed form of u and Q at maximal rank, and
    ambient_order and in_Abar_test, read block by block (`forced_order`),
    and the coset orders in the Abar lattice of the original-frame engine
    (`helpers.abar_order`), against the same questions put to freshly
    echelonised original-frame relation sets in wedge order.  At deficient
    rank ceresa_order raises, as u_class does."""
    rng = random.Random(31)
    seen = dict.fromkeys(
        ("rejected", "bbar 1", "bbar >1", "bbar deficient", "ambient inf", "ambient >1",
         "in Abar", "Abar >1", "Abar inf", "theta-w1 F2 sixths"), 0
    )
    for name in BUILTIN_GRAPHS:
        ctx = build_context(builtin_curve(name))
        eng = _original_engine(ctx)
        for trial in range(32):
            kind = ("F2+H", "relations", "F2 sixths", "random")[trial % 4]
            v = _random_sixths_class(eng, rng, kind)
            if not ctx.maximal_rank:
                with pytest.raises(PreconditionError, match="Q is singular"):
                    ceresa_order(ctx, v)
                seen["bbar deficient"] += 1
            else:
                try:
                    want = helpers.ceresa_order(eng, v)
                except PreconditionError as exc:
                    with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                        ceresa_order(ctx, v)
                    seen["rejected"] += 1
                else:
                    assert ceresa_order(ctx, v) == want
                    seen["bbar 1" if want == 1 else "bbar >1"] += 1
            want = helpers.ambient_order(eng, v)
            assert ambient_order(ctx, v) == helpers.abar_order(eng, v.coeffs) == want
            seen["ambient inf" if want == inf else "ambient >1"] += want > 1
            want = helpers.abar_least_multiple(eng, v)
            assert in_Abar_test(ctx, v) == {"in_Abar": want == 1, "least_multiple": want}
            assert helpers.abar_order(eng, v.coeffs, 2) == want
            seen["in Abar" if want == 1 else "Abar inf" if want == inf else "Abar >1"] += 1
            seen["theta-w1 F2 sixths"] += (
                name == "theta-w1" and kind == "F2 sixths" and want != inf
            )
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_forced_order_matches_original_frame_on_seeded_q(g):
    """forced_order, with q None and 2, equals the coset order in the Abar
    lattice of the original-frame engine (`helpers.abar_order`) on seeded
    Q_h at every rank h = 0..g, every third scaled by 6 so that the d_i
    share factors, and on classes with coefficients in (1/6)Z of the four
    kinds of `_random_sixths_class`.  At h = g and q = 2 it reads no
    omega', since omega ^ Y lies in F_2.  1152 classes in all.  Coverage
    floors: orders 1, > 1 and, from g = 3, inf, for each q, at h = 0, at
    g - h >= 2 (from g = 3) and at h = g."""
    rng = random.Random(3300 + g)
    seen = set()
    for t in range(4):
        for h in range(g + 1):
            q = helpers.random_posdef(h, rng)
            if t % 3 == 2:
                q = [[6 * x for x in row] for row in q]
            ctx = _q_context(q, g)
            eng = _original_engine(ctx)
            place = "h0" if h == 0 else "full" if h == g else "wide" if g - h >= 2 else "h=g-1"
            for trial in range(16):
                kind = ("F2+H", "relations", "F2 sixths", "random")[trial % 4]
                v = _random_sixths_class(eng, rng, kind)
                for order_q in (2, None):
                    want = helpers.abar_order(eng, v.coeffs, order_q)
                    assert forced_order(ctx, v, order_q) == want, (q, v, order_q)
                    if trial == 0 and order_q == 2:
                        assert "omega_frame" not in vars(ctx)
                    seen.add((place, order_q, _order_kind(want)))
    places = ["h0", "full"] + (["wide"] if g >= 3 else [])
    kinds = ("1", ">1", "inf") if g >= 3 else ("1", ">1")  # omega ^ H spans wedge^3 at g = 2
    want = {(place, order_q, kind) for place in places for order_q in (2, None) for kind in kinds}
    assert want <= seen, want - seen


def _framed_reference(ctx, v) -> tuple:
    """(s, y, s v - omega ^ y in the frame) of README "Orders" at deficient
    rank, by the oracles: y on the forced slots is the contraction
    Lambda(den(v) v) read off the intersection form, on the cycle b slots s
    times the coefficient of b_i ^ a_{h+1} ^ b_{h+1}; omega ^ y is wedged by
    the sorting oracle and moved by the dense closed-form P."""
    g, h, n = ctx.g, ctx.basis.h, 2 * ctx.g
    den = lcm(*(Fraction(c).denominator for c in v.coeffs.values()))
    s = (g - 1) * den
    units = la.identity(n)
    y = [0] * n
    for (p, q, r), c in v.coeffs.items():
        for x, z, w, sign in ((p, q, r, 1), (p, r, q, -1), (q, r, p, 1)):
            y[w] += int(sign * intersection(units[x], units[z], g) * c * den)
    for i in range(h):
        (key, sign), = WedgeVector(n, 3, {(g + i, h, g + h): 1}).coeffs.items()
        y[g + i] = int(s * sign * v.coeffs.get(key, 0))
    sx = v.scale(s) - helpers.wedge_vector(omega(g), y)
    frame = helpers.dense_smith_frame(ctx.q_matrix, *ctx.smith[:2])
    return s, y, helpers.apply_matrix(frame, sx)


def test_framed_class_matches_the_dense_frame_reference():
    """`framed_class` gives s, y and s v - omega ^ y in the Smith frame, by
    block key, as `_framed_reference` does with the dense P: on theta-w1
    (its class and 3 times it), on k4_w1 with both of its tables, and on
    classes in (1/6)Z of seeded deficient Q at g = 3..5, h = 0..g-1."""
    data = Path(__file__).parent / "data"
    cases = []
    ctx = build_context(builtin_curve("theta-w1"))
    v = v_class(ctx, builtin_table("theta-w1"))
    cases += [(ctx, v), (ctx, v.scale(3))]
    curve = load_curve(str(data / "k4_w1.json"))
    ctx = build_context(curve)
    for name in ("k4_w1_table", "k4_w1_table_fifth"):
        table = json.loads((data / f"{name}.json").read_text())
        cases.append((ctx, v_class(ctx, table_from_json(table, ctx.basis))))
    rng = random.Random(3901)
    for g in (3, 4, 5):
        for h in range(g):
            ctx = _q_context(helpers.random_posdef(h, rng), g)
            eng = _original_engine(ctx)
            for kind in ("F2+H", "relations", "F2 sixths", "random"):
                cases.append((ctx, _random_sixths_class(eng, rng, kind)))
    nonzero = 0
    for ctx, v in cases:
        assert not ctx.maximal_rank
        s, y, blocks = ceresa.framed_class(ctx, v)
        want_s, want_y, want = _framed_reference(ctx, v)
        assert (s, y) == (want_s, want_y)
        assert {t: c for tag in blocks.values() for t, c in tag.items()} == want.coeffs
        for key, tag in blocks.items():
            assert all(key == tuple(sorted(i % ctx.g for i in t)) for t in tag)
        nonzero += any(y[ctx.g + i] for i in range(ctx.basis.h))
    assert len(cases) == 4 + 4 * (3 + 4 + 5) and nonzero >= 5


def _fraction_verdict(ctx, v):
    """(u, order, decided_by) of the maximal-rank verdict on a class of pure
    Y-degree 2, in Fractions: u by the per-monomial oracle, the order as an
    lcm of denominators, u-nonintegral by reading each qualifying coordinate;
    None for a class that is not integral, so not in F2 + H."""
    if any(Fraction(c).denominator != 1 for c in v.coeffs.values()):
        return None
    u = helpers.delta_inverse_gr2_by_monomial(ctx.q_matrix, v)
    order = helpers.bbar_order_by_denominators(ctx, u)
    if helpers.nonintegral_qualifying_coordinates(ctx, u):
        return u, order, "u-nonintegral"
    return u, order, "order-in-Bbar" if order > 1 else "order-ambient"


def _assert_integer_verdict_matches(ctx, v, seen):
    assert ctx.maximal_rank and is_pure_gr2(ctx, v)
    want = _fraction_verdict(ctx, v)
    if want is None:
        with pytest.raises(PreconditionError, match="class does not lie in F2 [+] H"):
            nontriviality_verdict(ctx, v, hyperelliptic=False)
        seen["refused"] += 1
        return
    got = nontriviality_verdict(ctx, v, hyperelliptic=False)
    u = ceresa._u_fractions(ctx, *got["u_num"])
    assert (u, got["order_bbar"], got["decided_by"]) == want, v
    assert ceresa_order(ctx, v) == want[1]
    seen[want[2]] += 1
    seen["order > 2"] += want[1] > 2


def _image_class(ctx, rng):
    """v = gr_2((delta-I)u), made integral, for u = x + (y + omega ^ c_a) / k
    with x integral in gr_1 and y integral on the coordinates a_i^b_i^a_l
    alone: no qualifying coordinate of u is fractional, and its order is
    read off the differences s_il - c_l and Q c."""
    g = ctx.g
    u = {(i, j, g + m): rng.randint(-3, 3) for i, j in combinations(range(g), 2)
         for m in range(g) if rng.random() < 0.3}
    k = rng.randint(2, 6)
    gamma = [rng.randint(-5, 5) for _ in range(g)]
    for i in range(g):
        for l in range(g):
            if l != i:
                y = rng.randint(-5, 5) if rng.random() < 0.3 else 0
                u[i, g + i, l] = Fraction(gamma[l] + y, k)
    u = WedgeVector(2 * g, 3, u)
    w = apply_matrix(delta_from_Q(ctx.q_matrix), u) - u
    v = WedgeVector(2 * g, 3, {t: c for t, c in w.coeffs.items() if ctx.filt.y_degree(t) == 2})
    return v.scale(lcm(*(Fraction(c).denominator for c in v.coeffs.values())))


def test_integer_verdict_matches_fraction_oracles():
    """u, the Bbar order and decided_by of the maximal-rank verdict, read
    off integer numerators over one scale by one gcd and one remainder,
    equal the Fraction oracles: on seeded k4 and tl3 draws; on fuzz tables
    at g = 3..5 with fractional coefficients (vden > 1), refused, and their
    integral multiples; and on prism and Moebius-ladder Gram matrices at
    g = 6..8, some with lengths sharing a factor c so that c divides every
    d_i, with integral, fractional and image classes."""
    from test_pipeline_fuzz import random_table

    rng = random.Random(3131)
    seen = dict.fromkeys(
        ("u-nonintegral", "order-in-Bbar", "order-ambient", "refused", "order > 2"), 0
    )
    for name, n_edges in (("k4", 6), ("tl3", 9)):
        for _ in range(40):
            lengths = [rng.randint(1, 20) for _ in range(n_edges)]
            curve = with_sorted_lengths(builtin_curve(name), lengths)
            ctx = build_context(curve)
            _assert_integer_verdict_matches(ctx, v_class(ctx, builtin_table(name, curve)), seen)
    fuzz = 0
    while fuzz < 30:
        curve = helpers.random_curve(rng, max_edges=9, min_genus=3, weights=False)
        if genus(curve) > 5:
            continue
        fuzz += 1
        ctx = build_context(curve)
        table = random_table(curve, rng)
        k = Fraction(1, rng.randint(2, 6))
        table = replace(table, entries={e: w.scale(k) for e, w in table.entries.items()})
        v = v_class(ctx, table)
        _assert_integer_verdict_matches(ctx, v, seen)
        vden = lcm(*(Fraction(c).denominator for c in v.coeffs.values()))
        _assert_integer_verdict_matches(ctx, v.scale(vden), seen)
    for g in (6, 7, 8):
        for twisted, c in ((False, 1), (True, 2), (False, 3)):
            lengths = [c * rng.randint(1, 30) for _ in range(3 * g - 3)]
            ctx = _q_context(helpers.ladder_gram(g - 1, lengths, twisted))
            for fractional in (False, True):
                _assert_integer_verdict_matches(ctx, _shared_pair_class(g, rng, fractional), seen)
            for _ in range(3):
                _assert_integer_verdict_matches(ctx, _image_class(ctx, rng), seen)
    assert min(seen.values()) >= 5, seen


def _count_lattices(monkeypatch):
    built = []

    class Counted(la.Lattice):
        def __init__(self, n, vectors=()):
            built.append(n)
            super().__init__(n, vectors)

    monkeypatch.setattr(la, "Lattice", Counted)
    return built


def test_ceresa_order_accepts_class_in_H_through_lattice(monkeypatch):
    """omega ^ a_1 has monomials of Y-degree 1, and they are omega ^ h_a with
    h_a = a_1 integral, so it lies in H and its order is 1.  The check reads
    its coordinates, and u reads the fraction-free inverse of Q: no Smith
    reduction of Q is made and no lattice is built."""
    ctx = build_context(builtin_curve("tl3"))
    g = ctx.g
    v = embed_H_in_L([int(t == 0) for t in range(2 * g)], g)
    assert any(ctx.filt.y_degree(t) < 2 for t in v.coeffs)
    built = _count_lattices(monkeypatch)
    assert ceresa_order(ctx, v) == 1
    assert built == []
    assert "smith" not in vars(ctx) and "frame" not in vars(ctx)


def test_verdict_and_groups_reuse_one_lattice_per_relation_set(monkeypatch):
    """The four groups of the Smith-frame engine echelonise its full-length
    A relation set and its B(2) relation set, and each of them again
    extended by H for Abar and Bbar, once each and in one pass.  The
    verdict routes echelonise no relation set of wedge^3: past the Smith
    reduction of Q and the frame, ceresa_order builds no lattice;
    in_Abar_test, where y_b is set to 0, none either, as it reads each
    block in closed form; and the ambient order at maximal rank, where a
    free y_b couples the blocks, one lattice on the coupled blocks and the
    tags (k, y_b), with no row of H.  (`group_table` reads
    no engine at any rank; the module-level groups read these four.)"""
    ctx = build_context(builtin_curve("tl3"))
    v = v_class(ctx, builtin_table("tl3"))
    eng = helpers.smith_frame_engine(ctx)
    ctx.smith, ctx.frame, ctx.omega_frame  # their Hermite steps build lattices
    built = _count_lattices(monkeypatch)
    _engine_groups(eng)
    assert built.count(len(eng.wedge)) == 2  # the A and Abar relation sets
    assert built.count(eng.start(3)) == 2  # the B(2) and Bbar relation sets
    built.clear()
    ceresa_order(ctx, v)  # u reads the fraction-free inverse of Q
    assert built == []
    in_Abar_test(ctx, v)
    assert built == []
    ambient_order(ctx, v)
    assert len(built) == 1 and built[0] <= len(eng.wedge) + 1 + ctx.g


@pytest.mark.parametrize("name, multiple", [("tl3", 1), ("theta-w1", 3)])
def test_verdict_maps_into_the_frame_once_per_order(monkeypatch, name, multiple):
    """On the maximal-rank route the verdict reads the Bbar order, which is
    also the ambient order, off u and Q and maps nothing into the frame.
    Off it, Abar membership and the ambient order share one map of the
    class less its forced omega part into the frame (`framed_class`):
    three times the theta-w1 class lies in Abar, so both are read."""
    ctx = build_context(builtin_curve(name))
    v = v_class(ctx, builtin_table(name)).scale(multiple)
    calls = []

    def counting(mat, w):
        calls.append((mat, w))
        return apply_columns(mat, w)

    monkeypatch.setattr(ceresa, "apply_columns", counting)
    out = nontriviality_verdict(ctx, v, hyperelliptic=False)
    assert len(calls) == (0 if ctx.maximal_rank else 1)
    assert all(mat is ctx.frame and w.k == 3 for mat, w in calls)
    assert out["in_abar"] and out["order_ambient"] is not None
    assert (out["order_bbar"] is not None) == ctx.maximal_rank


def _g5_golden():
    data = Path(__file__).parent / "data"
    curve = load_curve(str(data / "g5_k24.json"))
    table = json.loads((data / "g5_table.json").read_text())
    return curve, table_from_json(table, homology_basis(curve))


def test_genus_6_petersen_golden_matches_the_engine_oracles():
    """The genus-6 trivalent golden (the Petersen graph, 15 edges, with the
    seeded lengths and fuzz table of tests/data/petersen*.json): its three
    orders equal the coset orders of the original-frame engine, and its
    groups the engine's groups.  One seeded draw made the recording: 15
    lengths in 1..5, then `random_table`."""
    from test_pipeline_fuzz import random_table

    data = Path(__file__).parent / "data"
    curve = load_curve(str(data / "petersen.json"))
    table = table_from_json(
        json.loads((data / "petersen_table.json").read_text()), homology_basis(curve)
    )
    rng = random.Random(6)
    assert [e.length for e in curve.sorted_edges()] == [rng.randint(1, 5) for _ in range(15)]
    assert table.entries == random_table(curve, rng).entries
    report = analyze(curve, table)
    ctx = report.ctx
    eng = _original_engine(ctx)
    want = _original_orders(eng, report.v, True)
    assert (report.order_bbar, report.order_ambient, report.least_multiple) == want
    assert want == (1528464, 1528464, 1) and not report.hyperelliptic
    assert report.groups == _engine_groups(eng)


@pytest.mark.parametrize("name", ["tl3", "g5"])
def test_analyze_moves_the_class_into_the_frame_once(monkeypatch, name):
    """A full maximal-rank report, verdict and Zharkov test included, makes
    one wedge^3(P) map into the Smith frame, on the Zharkov w, and none on
    v: the verdict reads u and Q.  The group tables map omega' by wedge^2(P)."""
    curve, table = (
        _g5_golden() if name == "g5" else (builtin_curve(name), builtin_table(name))
    )
    v = v_class(build_context(curve), table)
    framed = []

    def counting(mat, w):
        framed.append(w)
        return apply_columns(mat, w)

    monkeypatch.setattr(ceresa, "apply_columns", counting)
    report = analyze(curve, table)
    assert report.ctx.rank_status == "maximal" and report.zharkov is not None
    assert sorted(w.k for w in framed) == [2, 3]  # omega' and w
    assert report.zharkov["w"] in framed and v not in framed


def _pure_gr2_classes(ctx, rng, count):
    """Integral classes of Y-degree exactly 2 on a maximal-rank context, in
    the original frame: gr_2 parts of (delta-I) images of gr_1 monomials,
    omega ^ b_j pieces and, for two classes in three, a multiple of random
    gr_2 monomials.  Without the last, a class lies in (delta-I)F_1 + F_3 + H."""
    g, n = ctx.g, 2 * ctx.g
    eng = _original_engine(ctx)
    deg = ctx.filt.y_degree
    gr2 = ctx.filt.monomials(3, 2, exact=True)
    rels = [
        WedgeVector(n, 3, {s: c for s, c in eng.monomial_images[t].items() if deg(s) == 2})
        for t in ctx.filt.monomials(3, 1, exact=True)
    ]
    omega_b = [embed_H_in_L([int(t == g + j) for t in range(n)], g) for j in range(g)]
    out = []
    for t in range(count):
        v = WedgeVector.zero(n, 3)
        for r in rng.sample(rels, min(len(rels), 3)):
            v = v + r.scale(rng.randint(-3, 3))
        for h in rng.sample(omega_b, rng.randint(0, 2)):
            v = v + h.scale(rng.randint(-3, 3))
        if t % 3:
            monos = rng.sample(gr2, min(len(gr2), rng.randint(1, 3)))
            v = v + WedgeVector(n, 3, {x: rng.randint(-3, 3) for x in monos}).scale(
                rng.randint(1, 4)
            )
        assert all(deg(x) == 2 for x in v.coeffs)
        out.append(v)
    return out


def _random_maximal_rank_contexts(rng, g, count):
    """Contexts of seeded random curves of genus g, all at maximal rank."""
    for _ in range(count):
        curve = helpers.random_curve(rng, max_edges=10, min_genus=g, weights=False)
        while genus(curve) != g:
            curve = helpers.random_curve(rng, max_edges=10, min_genus=g, weights=False)
        ctx = build_context(curve)
        assert ctx.maximal_rank
        yield ctx


def test_ambient_order_is_bbar_order_at_maximal_rank():
    """At maximal rank the order of an integral pure-gr_2 class modulo
    (delta-I)L + H equals its order in Bbar (README, "Verdict"), read by the
    lattice oracle `helpers.ceresa_order` on the original-frame engine, on
    1200 seeded classes over random curves of genus 2 to 6.  Half a gr_2
    monomial is not in F2 + H, and the verdict still rejects it."""
    rng = random.Random(7)
    seen = {"1": 0, ">1": 0}
    for g in range(2, 7):
        for ctx in _random_maximal_rank_contexts(rng, g, 8):
            eng = _original_engine(ctx)
            for v in _pure_gr2_classes(ctx, rng, 30):
                order = helpers.ceresa_order(eng, v)
                assert ambient_order(ctx, v) == order
                seen["1" if order == 1 else ">1"] += 1
    assert min(seen.values()) >= 200, seen
    half = WedgeVector(2 * g, 3, {ctx.filt.monomials(3, 2, exact=True)[0]: Fraction(1, 2)})
    with pytest.raises(PreconditionError, match="class does not lie in F2 \\+ H"):
        nontriviality_verdict(ctx, half, hyperelliptic=False)


def _f2_plus_h_classes(ctx, rng, count):
    """Integral classes in F2 + H on a maximal-rank context, in the original
    frame: those of `_pure_gr2_classes`, plus omega ^ a_j pieces (gr_1, in
    H) and, for two classes in three, integral F_3 parts."""
    g, n = ctx.g, 2 * ctx.g
    omega_a = [embed_H_in_L([int(t == j) for t in range(n)], g) for j in range(g)]
    f3 = ctx.filt.monomials(3, 3)
    out = []
    for t, v in enumerate(_pure_gr2_classes(ctx, rng, count)):
        for h in rng.sample(omega_a, rng.randint(0, 2)):
            v = v + h.scale(rng.randint(-3, 3))
        if t % 3 and f3:
            monos = rng.sample(f3, min(len(f3), 2))
            v = v + WedgeVector(n, 3, {x: rng.randint(-3, 3) for x in monos})
        out.append(v)
    return out


def _classes_outside_f2_plus_h(ctx, rng):
    """A class in F2 + H plus one piece that takes it out: half a gr_2
    monomial, half of omega ^ a_l (a fractional h_a) and, from genus 3, a
    gr_1 monomial, omega ^ a_l less one term (gr_1 parts that are not
    omega ^ h_a), a gr_0 monomial and half an F_3 monomial."""
    g, n = ctx.g, 2 * ctx.g
    base = _f2_plus_h_classes(ctx, rng, 1)[0]
    l = rng.randrange(g)
    omega_a = embed_H_in_L([int(t == l) for t in range(n)], g)
    dropped = rng.choice(sorted(omega_a.coeffs))
    pieces = [
        (rng.choice(ctx.filt.monomials(3, 2, exact=True)), Fraction(1, 2)),
        omega_a.scale(Fraction(1, 2)),
    ]
    if g >= 3:
        pieces += [
            (rng.choice(ctx.filt.monomials(3, 1, exact=True)), 1),
            WedgeVector(n, 3, {t: c for t, c in omega_a.coeffs.items() if t != dropped}),
            (rng.choice(ctx.filt.monomials(3, 0, exact=True)), 1),
            (rng.choice(ctx.filt.monomials(3, 3)), Fraction(1, 2)),
        ]
    for piece in pieces:
        if isinstance(piece, tuple):
            piece = WedgeVector.monomial(n, *piece)
        yield base + piece


def test_bbar_closed_form_matches_lattice_oracle():
    """ceresa_order, the closed form of u and Q, equals the lattice oracle
    `helpers.ceresa_order` on the original-frame engine, on 1050 seeded
    classes at genus 2 to 6 carrying omega ^ b and omega ^ a pieces of H,
    integral F_3 parts, gr_2 parts of relations and random gr_2 monomials,
    over random curves and over random Q scaled by 2 or 3.  Every class
    outside F2 + H is rejected with the oracle's message."""
    rng = random.Random(22)
    seen = {"1": 0, ">1": 0, "rejected": 0}
    for g in range(2, 7):
        contexts = list(_random_maximal_rank_contexts(rng, g, 4))
        for m in (2, 3):
            q = helpers.random_posdef(g, rng)
            contexts.append(_q_context([[m * x for x in row] for row in q]))
        for ctx in contexts:
            eng = _original_engine(ctx)
            for v in _f2_plus_h_classes(ctx, rng, 35):
                order = ceresa_order(ctx, v)
                assert order == helpers.ceresa_order(eng, v)
                seen["1" if order == 1 else ">1"] += 1
            for v in _classes_outside_f2_plus_h(ctx, rng):
                with pytest.raises(PreconditionError) as oracle:
                    helpers.ceresa_order(eng, v)
                with pytest.raises(PreconditionError, match=re.escape(str(oracle.value))):
                    ceresa_order(ctx, v)
                seen["rejected"] += 1
    assert seen["1"] + seen[">1"] == 1050 and min(seen["1"], seen[">1"]) >= 200, seen
    assert seen["rejected"] == 6 * (2 + 6 * 4), seen


@pytest.mark.parametrize("name", ["k4", "tl3", "g5", "theta-w1"])
def test_maximal_rank_verdict_reads_no_abar_lattice(monkeypatch, name):
    """At maximal rank the verdict builds no relation lattice and maps
    nothing into the Smith frame: no frame, and apply_matrix never sees v.
    Its ambient order is the Bbar order, equal to the Abar order on a fresh
    context.  At deficient rank (theta-w1) the verdict maps v less its
    forced omega part into the frame, once for membership, and neither
    transports omega nor builds an engine; ceresa_order raises."""
    curve, table = (
        _g5_golden() if name == "g5" else (builtin_curve(name), builtin_table(name))
    )
    ctx = build_context(curve)
    v = v_class(ctx, table)
    seen = []

    def counting(mat, w):
        seen.append(w)
        return apply_columns(mat, w)

    for module in (ceresa, exterior):
        monkeypatch.setattr(module, "apply_columns", counting)
    _forbid_engines(monkeypatch)
    out = nontriviality_verdict(ctx, v, hyperelliptic=False)
    monkeypatch.undo()
    if ctx.maximal_rank:
        assert seen == [] and "frame" not in vars(ctx)
        assert out["order_ambient"] == out["order_bbar"] == ambient_order(build_context(curve), v)
    else:
        assert len(seen) == 1 and seen[0].k == 3 and out["least_multiple"] == 3
        assert "frame" in vars(ctx) and "omega_frame" not in vars(ctx)
        with pytest.raises(PreconditionError, match="Q is singular"):
            ceresa_order(ctx, v)


def test_ceresa_order_skips_lattice_inside_F2(monkeypatch):
    ctx = build_context(builtin_curve("tl3"))
    v = v_class(ctx, builtin_table("tl3"))
    assert v.coeffs and all(ctx.filt.y_degree(t) >= 2 for t in v.coeffs)
    built = _count_lattices(monkeypatch)
    order = ceresa_order(ctx, v)
    assert built == []  # u reads the fraction-free inverse of Q
    assert "smith" not in vars(ctx) and "frame" not in vars(ctx)
    eng = _original_engine(ctx)
    assert order == helpers.class_order(
        v.to_coords(eng.wedge), helpers.bbar_relations(eng), len(eng.wedge)
    )


def test_ceresa_order_rejects_class_outside_F2_plus_H():
    ctx = build_context(builtin_curve("tl3"))
    v = WedgeVector(2 * ctx.g, 3, {(0, 1, 2): 1})  # a_1 ^ a_2 ^ a_3
    with pytest.raises(PreconditionError, match="class does not lie in F2 \\+ H"):
        ceresa_order(ctx, v)


def test_ceresa_order_rejects_fractional_class_inside_F2():
    """Half a gr_2 monomial has Y-degree 2 but is not integral, so it is
    not in F2 + H, whose gr_2 part is integral."""
    ctx = build_context(builtin_curve("tl3"))
    mono = ctx.filt.monomials(3, 2, exact=True)[0]
    v = WedgeVector(2 * ctx.g, 3, {mono: Fraction(1, 2)})
    with pytest.raises(PreconditionError, match="class does not lie in F2 \\+ H"):
        ceresa_order(ctx, v)
