import random
from fractions import Fraction
from pathlib import Path

import pytest

from tropceresa import intlinalg as la
from tropceresa.errors import PreconditionError
from tropceresa.graph_core import (
    scaled_to_integer,
    spanning_trees,
    symanzik,
    tropical_curve,
)
from tropceresa import exterior, graph_core, symplectic
from tropceresa.catalog import BUILTIN_GRAPHS, builtin_curve
from tropceresa.symplectic import (
    basis_change_matrix,
    basis_report,
    delta_from_Q,
    homology_basis,
    invariant_factors,
    polarization_Q,
    smith_frame,
    smith_reduction,
    twist_action,
)
from helpers import (
    brute_spanning_trees,
    dense_columns,
    dense_smith_frame,
    det_fraction,
    image_saturation,
    is_zero_matrix,
    k4_curve,
    loop_chain_curve,
    mat_mul,
    multitwist_action,
    padded,
    random_curve,
    random_posdef,
    tl3_curve,
    y_units,
)


def theta_w1():
    return tropical_curve(
        [("u", 1), ("v", 1)],
        [("t1", ("u", "v"), 1), ("u2", ("u", "v"), 1), ("u3", ("u", "v"), 1)],
    )


def symplectic_form(g):
    j = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        j[i][g + i] = 1
        j[g + i][i] = -1
    return j


# -- homology basis ------------------------------------------------------------


def test_two_loops_basis():
    c = tropical_curve(
        [("p", 0)], [("l1", ("p", "p"), 3), ("l2", ("p", "p"), 7)]
    )
    b = homology_basis(c)
    assert (b.g, b.h) == (2, 2)
    assert polarization_Q(c, b) == [[3, 0], [0, 7]]


def test_theta_w1_basis():
    b = homology_basis(theta_w1())
    assert (b.g, b.h) == (4, 2)
    q = polarization_Q(theta_w1(), b)
    assert q == [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def test_supplied_tree_is_checked_without_enumerating_trees(monkeypatch):
    """Validating one tree costs a size and connectivity check, not the
    C(E, V-1) subsets of an enumeration."""
    k = k4_curve()
    trees = spanning_trees(k)

    def boom(curve):
        raise AssertionError("spanning trees enumerated")

    monkeypatch.setattr(graph_core, "spanning_trees", boom)
    monkeypatch.setattr(symplectic, "spanning_trees", boom, raising=False)
    for tree in trees:
        assert homology_basis(k, tree=reversed(tree)).tree_edges == tree
    for bad in (
        ("t4", "t5"),                # too few edges
        ("t4", "t5", "t6", "u1"),    # too many edges
        ("u1", "u2", "u3"),          # a cycle, leaving d out
        ("t4", "t5", "zz"),          # an id that is no edge
    ):
        with pytest.raises(PreconditionError, match="not a spanning tree"):
            homology_basis(k, tree=bad)
    chain = loop_chain_curve(2)  # loops l0, l1 and the path edge p1
    assert homology_basis(chain, tree=["p1"]).tree_edges == ("p1",)
    with pytest.raises(PreconditionError, match="not a spanning tree"):
        homology_basis(chain, tree=["l0"])


def test_supplied_tree_check_matches_brute_force():
    rng = random.Random(17)
    accepted = rejected = 0
    for _ in range(60):
        curve = random_curve(rng, max_edges=7)
        ids = sorted(e.id for e in curve.edges)
        trees = set(brute_spanning_trees(curve))
        for _ in range(6):
            size = min(len(ids), len(curve.vertices) - 1)
            pick = tuple(sorted(rng.sample(ids, size)))
            if pick in trees:
                accepted += 1
                assert homology_basis(curve, tree=pick).tree_edges == pick
            else:
                rejected += 1
                with pytest.raises(PreconditionError, match="not a spanning tree"):
                    homology_basis(curve, tree=pick)
    assert accepted >= 50 and rejected >= 50, (accepted, rejected)


def test_cycles_are_the_fundamental_cycles_of_the_tree():
    """Each cycle has zero boundary, +1 on its chord and support in the tree
    plus that chord; these pin the fundamental cycle, whatever walk built it."""
    rng = random.Random(23)
    checked = 0
    for _ in range(200):
        curve = random_curve(rng)
        ends = {e.id: e.ends for e in curve.edges}
        trees = spanning_trees(curve)
        for tree in (None, rng.choice(trees)):
            b = homology_basis(curve, tree=tree)
            assert tree is None or b.tree_edges == tree
            for chord, cyc in zip(b.nontree_edges, b.cycle_dicts()):
                boundary = dict.fromkeys((v.id for v in curve.vertices), 0)
                for eid, c in cyc.items():
                    boundary[ends[eid][0]] -= c
                    boundary[ends[eid][1]] += c
                assert not any(boundary.values())
                assert cyc[chord] == 1
                assert set(cyc) <= set(b.tree_edges) | {chord}
                checked += 1
    assert checked >= 400, checked


def test_k4_reference_polarization():
    c = (3, 5, 7, 11, 13, 17)
    k = k4_curve(c)
    b = homology_basis(k)
    assert b.tree_edges == ("t4", "t5", "t6")
    assert b.nontree_edges == ("u1", "u2", "u3")
    c1, c2, c3, c4, c5, c6 = c
    assert polarization_Q(k, b) == [
        [c1 + c5 + c6, -c6, -c5],
        [-c6, c2 + c4 + c6, -c4],
        [-c5, -c4, c3 + c4 + c5],
    ]


def test_tl3_reference_polarization():
    c = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    t = tl3_curve(c)
    b = homology_basis(t)
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = c
    tail = c5 + c6 + c7 + c8 + c9
    assert polarization_Q(t, b) == [
        [c1 + c6, 0, c6, c6],
        [0, c2 + c5, c5, c5],
        [c6, c5, c3 + tail, tail],
        [c6, c5, tail, c4 + tail],
    ]


def test_genus_guard():
    loop = tropical_curve([("p", 0)], [("l", ("p", "p"), 1)])
    with pytest.raises(PreconditionError):
        homology_basis(loop)


def test_non_integer_lengths_rejected():
    c = tropical_curve(
        [("p", 0)], [("l1", ("p", "p"), "3/2"), ("l2", ("p", "p"), 7)]
    )
    with pytest.raises(PreconditionError):
        polarization_Q(c, homology_basis(c))


# -- delta and twists -----------------------------------------------------------


def test_delta_examples():
    assert delta_from_Q([[0, 0], [0, 0]]) == la.identity(4)
    d = delta_from_Q([[1, 0], [0, 1]])
    assert [d[i][0] for i in range(4)] == [1, 0, 1, 0]  # a1 -> a1 + b1
    assert [d[i][2] for i in range(4)] == [0, 0, 1, 0]  # b1 fixed
    k = k4_curve()
    dk = delta_from_Q(polarization_Q(k, homology_basis(k)))
    assert [row[:3] for row in dk[3:]] == [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]


def test_delta_is_symplectic_and_square_unipotent():
    rng = random.Random(0)
    for _ in range(40):
        c = random_curve(rng)
        sc, _ = scaled_to_integer(c)
        b = homology_basis(sc)
        d = delta_from_Q(polarization_Q(sc, b))
        g = b.g
        j = symplectic_form(g)
        assert mat_mul(mat_mul(la.columns(d), j), d) == j
        m = [[d[i][t] - (i == t) for t in range(2 * g)] for i in range(2 * g)]
        assert is_zero_matrix(mat_mul(m, m))


def test_twist_examples():
    g = 3
    b1 = [0, 0, 0, 1, 0, 0]
    t = twist_action(b1, 1, g)
    assert [t[i][0] for i in range(6)] == [1, 0, 0, 1, 0, 0]  # a1 -> a1 + b1
    assert [t[i][4] for i in range(6)] == [0, 0, 0, 0, 1, 0]  # b2 fixed


def test_multitwist_requires_isotropic_support():
    with pytest.raises(PreconditionError):
        multitwist_action(
            [([1, 0, 0, 0], 1), ([0, 0, 1, 0], 1)], 2
        )


def test_multitwist_equals_monodromy():
    rng = random.Random(1)
    for _ in range(50):
        c = random_curve(rng)
        sc, _ = scaled_to_integer(c)
        b = homology_basis(sc)
        q = polarization_Q(sc, b)
        g = b.g
        twists = [
            ([0] * g + list(b.edge_loop_class[e.id]), e.length.numerator)
            for e in sc.sorted_edges()
        ]
        assert multitwist_action(twists, g) == delta_from_Q(q)


# -- positivity and the tree polynomial -----------------------------------------


def test_polarization_positivity():
    rng = random.Random(2)
    for _ in range(40):
        c = random_curve(rng)
        sc, _ = scaled_to_integer(c)
        b = homology_basis(sc)
        q = polarization_Q(sc, b)
        # Gram form: nonnegative on random vectors, zero on weight slots
        for _ in range(10):
            x = [rng.randint(-4, 4) for _ in range(b.g)]
            val = sum(q[i][j] * x[i] * x[j] for i in range(b.g) for j in range(b.g))
            assert val >= 0
        blk = [row[: b.h] for row in q[: b.h]]
        assert det_fraction(blk) > 0  # cycle block is definite
        for i in range(b.h, b.g):
            assert all(q[i][j] == 0 for j in range(b.g))
    # definite iff no weight: detect via the weight count
    k = k4_curve()
    q = polarization_Q(k, homology_basis(k))
    assert det_fraction(q) > 0


def test_symanzik_equals_cycle_block_determinant():
    rng = random.Random(3)
    for _ in range(60):
        c = random_curve(rng)
        sc, scale = scaled_to_integer(c)
        b = homology_basis(sc)
        q = polarization_Q(sc, b)
        blk = [row[: b.h] for row in q[: b.h]]
        assert det_fraction(blk) == Fraction(symanzik(sc))


# -- saturation -------------------------------------------------------------------


def test_image_saturation_examples():
    d = delta_from_Q([[2, 0], [0, 0]])
    assert la.lattice_eq(image_saturation(d), [[0, 0, 1, 0]], 4)
    assert image_saturation(la.identity(6)) == []
    tw = theta_w1()
    d = delta_from_Q(polarization_Q(tw, homology_basis(tw)))
    sat = image_saturation(d)
    units = [[int(t == 4) for t in range(8)], [int(t == 5) for t in range(8)]]
    assert la.lattice_eq(sat, units, 8)
    m = [[d[i][j] - (i == j) for j in range(8)] for i in range(8)]
    assert [x for x in la.invariant_factor_diagonal(m) if x] == [1, 3]


def test_image_saturation_is_cycle_span():
    """The pipeline's Y, the unit vectors b_1..b_h, is the saturated image
    of delta - I."""
    rng = random.Random(4)
    for _ in range(30):
        c = random_curve(rng)
        sc, _ = scaled_to_integer(c)
        b = homology_basis(sc)
        d = delta_from_Q(polarization_Q(sc, b))
        g = b.g
        units = y_units(g, b.h)
        if b.h:
            assert la.lattice_eq(image_saturation(d), units, 2 * g)
        else:
            assert image_saturation(d) == []


def test_non_unipotent_rejected():
    m = [[2, 0], [0, 1]]
    with pytest.raises(PreconditionError):
        image_saturation(m)


def test_invariant_factor_examples():
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    k = k4_curve()
    assert invariant_factors(polarization_Q(k, homology_basis(k))) == [1, 4, 4]
    assert invariant_factors([[0, 0], [0, 0]]) == [0, 0]


def test_smith_frame_conjugates_delta_and_keeps_the_grading():
    """The reduction of Q_h, padded on the weight slots, has U Q V = D
    diagonal with U and V unimodular; P delta_from_Q(Q) P^-1 = delta_from_Q(D)
    for its frame P = diag(V^-1, U), which maps the a-span and the b-span to
    themselves and fixes the weight slots, so Y = span(b_1..b_h) and every
    Y-degree are kept."""
    rng = random.Random(15)
    cases = [(random_posdef(g, rng), g) for g in range(1, 6)]
    for name in ("k4", "tl3", "theta-w1", "3balloon"):
        curve = builtin_curve(name)
        basis = homology_basis(curve)
        cases.append((polarization_Q(curve, basis), basis.h))
    assert {len(q) - h for q, h in cases} == {0, 2, 3}
    for q, h in cases:
        g = len(q)
        d, u, v = smith_reduction(q, h)
        p = dense_columns(smith_frame(q, d, u))
        assert len(d) == g and all(x > 0 for x in d[:h]) and not any(d[h:])
        dq = [[x if i == j else 0 for j in range(g)] for i, x in enumerate(d)]
        assert mat_mul(mat_mul(u, q), v) == dq
        for m in (u, v):
            la.int_inverse(m)  # raises unless m is unimodular
        assert mat_mul(mat_mul(p, delta_from_Q(q)), la.int_inverse(p)) == delta_from_Q(dq)
        for i in range(2 * g):
            for j in range(2 * g):
                if (i < g) != (j < g) or h <= i % g or h <= j % g:
                    assert p[i][j] == int(i == j)


def test_smith_frame_columns_match_the_dense_frame():
    """`smith_frame` returns the sparse columns of the dense closed-form
    frame P = diag(V^-1, U) (`helpers.dense_smith_frame`), on seeded Q at
    g = 2..6 and every cycle rank h <= g, and on every fixture curve."""
    rng = random.Random(39)
    cases = [(padded(random_posdef(h, rng), g), h) for g in range(2, 7) for h in range(g + 1)]
    data = Path(__file__).parent / "data"
    curves = [builtin_curve(name) for name in BUILTIN_GRAPHS]
    curves += [
        graph_core.load_curve(str(data / f"{name}.json"))
        for name in ("k4_w1", "g5_k24", "petersen", "cube", "prism16")
    ]
    for curve in curves:
        curve = scaled_to_integer(curve)[0]
        basis = homology_basis(curve)
        cases.append((polarization_Q(curve, basis), basis.h))
    divided = 0
    for q, h in cases:
        d, u, _ = smith_reduction(q, h)
        want = dense_smith_frame(q, d, u)
        assert smith_frame(q, d, u) == exterior._sparse_columns(want), (q, h)
        divided += any(x > 1 for x in d)
    assert divided and set(range(7)) <= {h for _, h in cases}


# -- basis change -----------------------------------------------------------------


def test_basis_change_is_symplectic_and_conjugates_delta():
    rng = random.Random(5)
    k = k4_curve((2, 3, 4, 5, 6, 7))
    base = homology_basis(k)
    d_base = delta_from_Q(polarization_Q(k, base))
    for tree in rng.sample(spanning_trees(k), 6):
        alt = homology_basis(k, tree=tree)
        s = basis_change_matrix(base, alt)
        j = symplectic_form(3)
        assert mat_mul(mat_mul(la.columns(s), j), s) == j
        d_alt = delta_from_Q(polarization_Q(k, alt))
        assert mat_mul(mat_mul(la.int_inverse(s), d_base), s) == d_alt


def test_basis_report_shape():
    k = k4_curve()
    rep = basis_report(k, homology_basis(k))
    assert rep["g"] == 3 and rep["h"] == 3
    assert rep["labels"] == ["a1", "a2", "a3", "b1", "b2", "b3"]
    assert set(rep["edge_loop_classes"]) == {e.id for e in k.edges}
    assert "twists composed with sign -1" in rep["convention"]


def test_verdict_relevant_tie_break_is_documented():
    # non-tree edges are ordered by id; the first pair is u1
    b = homology_basis(k4_curve())
    assert b.nontree_edges[0] == "u1"


def test_delta_from_q_refuses_a_non_symmetric_q():
    with pytest.raises(PreconditionError, match="Q must be symmetric"):
        delta_from_Q([[2, 1], [0, 2]])


def test_basis_change_matrix_refuses_bases_of_different_curves():
    with pytest.raises(PreconditionError, match="different curves"):
        basis_change_matrix(
            homology_basis(builtin_curve("k4")), homology_basis(builtin_curve("theta0"))
        )
