import random
import re
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, inf, prod

import pytest
from hypothesis import given, settings, strategies as st

from tropceresa import intlinalg as la
from tropceresa.errors import FiltrationError, PreconditionError
from tropceresa.exterior import (
    AbelianGroupDescriptor,
    A_group,
    Abar_group,
    B_group,
    Bbar_group,
    Filtration,
    GradedImages,
    WedgeVector,
    apply_columns,
    apply_matrix,
    delta_inverse_gr2,
    embed_H_in_L,
    graded_map,
    _wedge_terms,
    omega,
    vector_wedge,
    wedge_basis,
)
from tropceresa.symplectic import delta_from_Q

import helpers
from helpers import (
    is_zero_matrix,
    lattice_intersection,
    mat_mul,
    quotient_invariants,
    random_posdef,
    random_unimodular,
    sort_with_sign,
)


def y_units(g, h=None):
    h = g if h is None else h
    return [[int(t == g + i) for t in range(2 * g)] for i in range(h)]


def sheared(delta0, rng):
    """(S^-1 delta0 S, S, S^-1) for a random unimodular S: delta0 written
    in the coordinates S^-1 x, in which the b-span is sheared."""
    s = random_unimodular(len(delta0), rng)
    sinv = la.int_inverse(s)
    return mat_mul(mat_mul(sinv, delta0), s), s, sinv


def cycle_delta(g, h, rng):
    """[[I, 0], [Q, I]] for a Q that is positive definite on its first h
    slots and zero on the last g - h (weight) slots, so that b_1..b_h span
    the saturated image of delta - I."""
    q = [[0] * g for _ in range(g)]
    for i, row in enumerate(random_posdef(h, rng)):
        q[i][:h] = row
    return delta_from_Q(q)


def induced(mat, k):
    """Matrix of `apply_matrix` on wedge^k, over the sorted-tuple basis."""
    n = len(mat)
    basis = wedge_basis(n, k)
    return la.columns(
        [apply_matrix(mat, WedgeVector.monomial(n, t)).to_coords(basis) for t in basis]
    )


def coker(mat):
    """Cokernel of an integer matrix acting on Z^rows, as `Lattice.section`."""
    return AbelianGroupDescriptor(*la.Lattice(len(mat), la.columns(mat)).section(0))


# -- wedge basics -----------------------------------------------------------


def test_sort_with_sign():
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1)) == (None, 0)


@given(st.permutations(range(5)))
def test_sort_sign_is_permutation_parity(perm):
    tup, sign = sort_with_sign(tuple(perm))
    assert tup == (0, 1, 2, 3, 4)
    inversions = sum(
        1 for i in range(5) for j in range(i + 1, 5) if perm[i] > perm[j]
    )
    assert sign == (-1) ** inversions


def _oracle_wedge_vector(n, k, coeffs):
    """The constructor's canonical keys by `sort_with_sign`; every key is
    checked, repeated indices included."""
    clean = {}
    for idx, c in coeffs.items():
        if len(idx) != k or any(not 0 <= i < n for i in idx):
            raise ValueError(f"bad index tuple {idx}")
        if c == 0:
            continue
        tup, sign = sort_with_sign(tuple(idx))
        if tup is None:
            continue
        clean[tup] = clean.get(tup, 0) + sign * c
    return {t: c for t, c in clean.items() if c != 0}


def test_wedge_keys_match_wedge_of_unit_vectors():
    """The constructor keys a term by its sorted indices with the sign
    (-1)^(number of inversions); that is the wedge of the unit vectors it
    names (`_wedge_terms`), on every ordering of every 3-subset of range(6)
    and on every key with a repeated index, which gives no term."""
    keys = [p for s in combinations(range(6), 3) for p in permutations(s)]
    repeated = [(a, b, c) for a in range(6) for b in range(6) for c in range(6)
                if len({a, b, c}) < 3]
    assert (len(keys), len(repeated)) == (120, 96)
    for idx in keys + repeated:
        want = _wedge_terms([(i, 1)] for i in idx)
        for c in (1, Fraction(-2, 3)):
            assert WedgeVector(6, 3, {idx: c}).coeffs == {t: s * c for t, s in want.items()}
    coeffs = {idx: idx[0] + 1 for idx in keys + repeated}  # all at once
    total = {}
    for idx in keys:
        for t, s in _wedge_terms([(i, 1)] for i in idx).items():
            total[t] = total.get(t, 0) + s * coeffs[idx]
    assert WedgeVector(6, 3, coeffs).coeffs == {t: c for t, c in total.items() if c}


def test_wedge_terms_start_from_the_first_vector():
    """The wedge of no vectors is {(): 1}.  The first vector's entries are
    the first terms, so an entry that accumulated to zero there gives no
    term, alone or under later factors; `apply_columns` feeds such sums
    (the summed last columns at k = 1)."""
    assert _wedge_terms([]) == _wedge_terms(iter(())) == {(): 1}
    assert _wedge_terms([[(0, 0), (2, 3)]]) == {(2,): 3}
    assert _wedge_terms([[(0, 0), (2, 3)], [(0, 1), (1, 2)]]) == {(0, 2): -3, (1, 2): -6}
    assert _wedge_terms([[(0, 0)], [(1, 1)]]) == {}
    cols = [[(0, 1)], [(0, -1)], [(1, 1)]]
    assert apply_columns(cols, WedgeVector(3, 1, {(0,): 1, (1,): 1})).coeffs == {}
    want = WedgeVector(3, 1, {(0,): 2, (1,): 1})
    assert apply_columns(cols, WedgeVector(3, 1, {(0,): 2, (2,): 1})) == want


def test_wedge_keys_and_products_match_sort_with_sign():
    """Permuted, repeated and out-of-range keys, and two right-wedges by
    `wedge_vector`, against the bubble-sort sign rule."""
    rng = random.Random(31)
    seen = {"permuted": 0, "repeated": 0, "bad": 0, "cancelled": 0, "wedge": 0}
    for _ in range(600):
        n, k = rng.randint(1, 6), rng.randint(0, 4)
        coeffs = {}
        for _ in range(rng.randint(0, 6)):
            idx = tuple(rng.randrange(n) for _ in range(k))
            if rng.random() < 0.1:
                idx = idx[:-1] + (rng.choice([-1, n]),) if idx else (n,)
            coeffs[idx] = rng.choice(
                [rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)]
            )
            if k >= 2 and len(set(idx)) == k and rng.random() < 0.3:
                # the transposed key with the same coefficient cancels it
                coeffs[(idx[1], idx[0]) + idx[2:]] = coeffs[idx]
        try:
            expected = _oracle_wedge_vector(n, k, coeffs)
        except ValueError as exc:
            seen["bad"] += 1
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                WedgeVector(n, k, coeffs)
            continue
        assert WedgeVector(n, k, coeffs).coeffs == expected
        if any(len(set(t)) < len(t) for t in coeffs):
            seen["repeated"] += 1
        if any(list(t) != sorted(t) for t in coeffs):
            seen["permuted"] += 1
        if len(expected) < len({tuple(sorted(t)) for t, c in coeffs.items()
                                if c and len(set(t)) == len(t)}):
            seen["cancelled"] += 1

        x, y = ([rng.randint(-2, 2) for _ in range(n)] for _ in range(2))
        w, o = WedgeVector(n, k, coeffs), helpers.vector_wedge([x, y], n)
        product = {}
        for t, c in w.coeffs.items():
            for s, d in o.coeffs.items():
                tup, sign = sort_with_sign(t + s)
                if tup is not None:
                    product[tup] = product.get(tup, 0) + sign * c * d
        expected = {t: c for t, c in product.items() if c}
        assert w.wedge_vector(x).wedge_vector(y).coeffs == expected
        seen["wedge"] += bool(product)
    assert all(count >= 20 for count in seen.values()), seen


def test_wedge_basis_examples():
    assert wedge_basis(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    with pytest.raises(PreconditionError):
        wedge_basis(3, 4)
    with pytest.raises(PreconditionError):
        wedge_basis(18, 3)


def test_induced_action_examples():
    assert induced(la.identity(5), 3) == la.identity(comb(5, 3))
    assert induced([[1, 2], [3, 4]], 2) == [[-2]]
    p = la.identity(4)
    p[0], p[1] = p[1], p[0]
    ind = induced(p, 3)
    wb = wedge_basis(4, 3)
    j = wb.index((0, 1, 2))
    assert ind[j][j] == -1  # swapping two basis vectors flips the sign


@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_induced_action_functorial(n, k, seed):
    if k > n:
        return
    rng = random.Random(seed)
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    assert induced(mat_mul(a, b), k) == mat_mul(induced(a, k), induced(b, k))


wedge_pair = st.integers(0, 10_000).map(lambda s: random.Random(s))


def _wedge(a, b):
    """a ^ b through the package's right-wedge: each monomial of b is put on
    a one unit vector at a time by `wedge_vector`."""
    units = la.identity(a.n)
    out = WedgeVector.zero(a.n, a.k + b.k)
    for s, d in b.coeffs.items():
        term = a
        for i in s:
            term = term.wedge_vector(units[i])
        out = out + term.scale(d)
    return out


@given(wedge_pair)
@settings(max_examples=60, deadline=None)
def test_wedge_algebra_laws(rng):
    n = rng.randint(3, 6)
    def rand_wedge(k):
        coeffs = {}
        for _ in range(3):
            idx = tuple(rng.sample(range(n), k))
            coeffs[idx] = coeffs.get(idx, 0) + rng.randint(-4, 4)
        return WedgeVector(n, k, coeffs)
    k1 = rng.randint(1, 2)
    k2 = rng.randint(1, 2)
    k3 = rng.randint(1, max(1, n - k1 - k2))
    a, b, c = rand_wedge(k1), rand_wedge(k2), rand_wedge(k3)
    # graded anticommutativity and associativity
    assert _wedge(a, b) == _wedge(b, a).scale((-1) ** (k1 * k2))
    if k1 + k2 + k3 <= n:
        assert _wedge(_wedge(a, b), c) == _wedge(a, _wedge(b, c))
    # bilinearity
    assert _wedge(a + a, b) == _wedge(a, b).scale(2)
    if k2 == k3:
        assert _wedge(a, b + c) == _wedge(a, b) + _wedge(a, c)


def test_omega_and_embedding():
    assert omega(1).coeffs == {(0, 1): 1}
    assert omega(2).coeffs == {(0, 2): 1, (1, 3): 1}
    # g=2: omega ^ b1 = -a2^b1^b2, omega ^ a1 = a1^a2^b2
    assert embed_H_in_L([0, 0, 1, 0], 2).coeffs == {(1, 2, 3): -1}
    assert embed_H_in_L([1, 0, 0, 0], 2).coeffs == {(0, 1, 3): 1}
    with pytest.raises(PreconditionError):
        embed_H_in_L([1, 1], 1)


def test_embedding_is_injective():
    rng = random.Random(0)
    for g in (2, 3):
        gens = helpers.embedded_H_generators(g)
        assert la.matrix_rank([[v[r] for v in gens] for r in range(len(gens[0]))]) == 2 * g


# -- filtration ---------------------------------------------------------------


def test_filtration_basis_dimensions():
    filt = Filtration.from_Y(y_units(2), 4)
    assert len(filt.monomials(3, 0)) == comb(4, 3)
    # monomials with >= 2 factors from span(b1, b2): a1^b1^b2, a2^b1^b2
    assert len(filt.monomials(3, 2)) == 2
    assert len(filt.monomials(2, 2)) == 1
    got = len(Filtration.from_Y(y_units(3), 6).monomials(3, 2))
    assert got == comb(3, 2) * comb(3, 1) + comb(3, 3)


def test_filtration_requires_saturated_Y():
    """Y must be distinct signed unit vectors of length n: a coordinate,
    hence saturated, sublattice."""
    bad = ([[2, 0, 0, 0]], [[1, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, -1, 0]], [[0, 0, 1]])
    for y in bad:
        with pytest.raises(PreconditionError):
            Filtration.from_Y(y, 4)
    assert Filtration.from_Y([[0, 0, -1, 0], [0, 1, 0, 0]], 4).y_positions == {1, 2}


def test_filtration_stability_fuzz():
    """(delta-I) F_q lies in F_{q+1}: graded_map checks it for delta0 with
    Y = b_1..b_r.  It holds after a random unimodular change of basis S,
    where F_q, carried by wedge^k S^-1, is no coordinate sublattice, and the
    images computed there, carried back by wedge^k S, are the engine's."""
    rng = random.Random(1)
    for _ in range(120):
        g = rng.choice([2, 3])
        r = rng.randint(1, g)
        delta0 = cycle_delta(g, r, rng)
        delta, s, sinv = sheared(delta0, rng)
        n = 2 * g
        k = rng.randint(1, min(4, n))
        q = rng.randint(0, k - 1)
        y = y_units(g, r)
        assert la.lattice_eq(helpers.image_saturation(delta0), y, n)
        # graded_map raises on any filtration violation
        graded_map(delta0, y, q + 1, k)
        eng = GradedImages.build(delta0, y, k)
        basis = eng.wedge

        def carried(t):
            return helpers.apply_matrix(sinv, WedgeVector.monomial(n, t))

        above = la.Lattice(
            len(basis), (carried(t).to_coords(basis) for t in eng.filt.monomials(k, q + 1))
        )
        for t in eng.filt.monomials(k, q, exact=True):
            w = carried(t)
            img = helpers.apply_matrix(delta, w) - w
            assert helpers.coset_order(above, img.to_coords(basis)) == 1
            assert helpers.apply_matrix(s, img).coeffs == eng.monomial_images[t]


def test_graded_map_zero_for_identity():
    gm = graded_map(la.identity(4), y_units(2), 2, 3)
    assert is_zero_matrix(gm)


def test_graded_map_rational_surjectivity():
    # full rank of gr_{q-1} -> gr_q for q > k/2
    rng = random.Random(2)
    for k, g in ((3, 2), (3, 3), (5, 3), (5, 4)):
        for _ in range(8):
            qmat = random_posdef(g, rng)
            delta = delta_from_Q(qmat)
            y = y_units(g)
            for q in range(k // 2 + 1, k + 1):
                gm = graded_map(delta, y, q, k)
                if gm and gm[0]:
                    assert la.matrix_rank(gm) == len(gm)


def test_graded_injectivity_at_maximal_rank():
    rng = random.Random(3)
    for g in (2, 3, 4):
        for _ in range(10):
            qmat = random_posdef(g, rng)
            delta = delta_from_Q(qmat)
            for q in (1, 2):
                gm = graded_map(delta, y_units(g), q, 3)
                if gm and gm[0]:
                    assert la.matrix_rank(gm) == len(gm[0])


def test_block_vanishing_at_maximal_rank():
    # the level-0 part of (delta-I) on a level-0 monomial sits entirely in
    # level 1: crossing two levels at once never happens for diagonal Q
    rng = random.Random(4)
    g = 3
    qmat = [[2, 0, 0], [0, 3, 0], [0, 0, 4]]
    delta = delta_from_Q(qmat)
    filt = Filtration.from_Y(y_units(g), 2 * g)
    for t in filt.monomials(3, 0, exact=True):
        img = apply_matrix(delta, WedgeVector.monomial(6, t)) - WedgeVector.monomial(6, t)
        levels = {filt.y_degree(s) for s in img.coeffs}
        assert 0 not in levels


def test_intersection_identity():
    # (delta-I)(F_{q-2}) & F_q == (delta-I) F_{q-1} when the graded map
    # one level down is injective
    rng = random.Random(5)
    for trial in range(100):
        g = rng.choice([2, 3])
        qmat = random_posdef(g, rng)
        delta = delta_from_Q(qmat)
        y = y_units(g)
        filt = Filtration.from_Y(y, 2 * g)
        k, q = 3, 2
        basis = wedge_basis(2 * g, k)
        def images(monos):
            out = []
            for t in monos:
                w = apply_matrix(delta, WedgeVector.monomial(2 * g, t)) - WedgeVector.monomial(2 * g, t)
                coords = w.to_coords(basis)
                if any(coords):
                    out.append(coords)
            return out
        lhs = lattice_intersection(
            images(filt.monomials(k, q - 2)),
            [WedgeVector.monomial(2 * g, t).to_coords(basis) for t in filt.monomials(k, q)],
            len(basis),
        )
        rhs = images(filt.monomials(k, q - 1))
        assert la.lattice_eq(lhs, rhs, len(basis))


def test_kernel_image_wedges_have_preimages():
    rng = random.Random(6)
    for trial in range(100):
        g = rng.choice([2, 3])
        delta = sheared(cycle_delta(g, rng.randint(1, g), rng), rng)[0]
        n = 2 * g
        m = [[delta[i][j] - (i == j) for j in range(n)] for i in range(n)]
        img_cols = [c for c in la.columns(m) if any(c)]
        ker = la.kernel_basis(m)
        if not img_cols or len(ker) < 2:
            continue
        k = rng.randint(2, min(3, len(ker) + 1))
        y_vec = img_cols[rng.randrange(len(img_cols))]
        zs = [ker[i] for i in rng.sample(range(len(ker)), k - 1)]
        target = vector_wedge([y_vec] + zs, n)
        if target.is_zero():
            continue
        # explicit preimage: x ^ z_1 ^ ... with (delta-I) x = y
        x = la.solve_int(m, y_vec)
        assert x is not None
        pre = vector_wedge([x] + zs, n)
        image = apply_matrix(delta, pre) - pre
        assert image == target


# -- group structure ------------------------------------------------------------


def test_descriptor_basics():
    d = AbelianGroupDescriptor(0, (4, 4, 32))
    assert d.order == 512
    assert str(d) == "Z/4 x Z/4 x Z/32"
    assert AbelianGroupDescriptor(1, ()).order == inf
    with pytest.raises(ValueError):
        AbelianGroupDescriptor(0, (4, 6))
    assert AbelianGroupDescriptor.from_cyclic_orders([2, 3, 4]) == AbelianGroupDescriptor(0, (2, 12))
    assert d.to_json() == {"free_rank": 0, "torsion": [4, 4, 32]}


def test_coker_structure_examples():
    assert coker([[1, 0, 0], [0, 4, 0], [0, 0, 4]]) == AbelianGroupDescriptor(0, (4, 4))
    assert coker([[0, 0], [0, 0]]) == AbelianGroupDescriptor(2, ())


def test_class_order_examples():
    rel = [[1, 0, 0], [0, 4, 0], [0, 0, 4]]
    lat = la.Lattice(3, [list(c) for c in zip(*rel)])
    assert helpers.coset_order(lat, [0, 1, 1]) == 4
    assert helpers.coset_order(lat, [1, 0, 0]) == 1
    assert helpers.coset_order(la.Lattice(2), [1, 0]) == inf


def test_membership():
    v = WedgeVector(4, 2, {(0, 1): 2})
    basis = [WedgeVector(4, 2, {(0, 1): 1}).to_coords()]
    lattice = la.Lattice(len(basis[0]), basis)
    assert helpers.coset_order(lattice, v.to_coords()) == 1
    assert helpers.coset_order(lattice, WedgeVector(4, 2, {(2, 3): 1}).to_coords()) != 1


def test_infinite_group_reported():
    # identity action with a caller-supplied nonzero Y: A_1 = Y is free
    d = la.identity(4)
    a = A_group(d, [[0, 0, 1, 0]], 1)
    assert a.free_rank == 1 and a.order == inf


def test_group_sizes_against_formulas():
    rng = random.Random(7)
    for g in (2, 3):
        for _ in range(6):
            qmat = random_posdef(g, rng)
            delta = delta_from_Q(qmat)
            y = y_units(g)
            qf = la.invariant_factor_diagonal(qmat)
            detq = prod(qf)
            a = A_group(delta, y, 2)
            b = B_group(delta, y, 2)
            ab = Abar_group(delta, y)
            bb = Bbar_group(delta, y)
            assert b.order == 2 ** comb(g, 3) * detq ** comb(g, 2)
            assert bb.order == 2 ** comb(g, 3) * detq ** (comb(g, 2) - 1)
            assert a.order == b.order * prod(
                qf[i] ** comb(g - 1 - i, 2) for i in range(g)
            )
            assert a.order == ab.order * detq


def _intersection_groups(delta, sinv):
    """A_1, A_2, B_2, Abar and Bbar by their defining formulas: tagged
    lattice intersections and quotients of nested spans (test oracles).

    delta acts in the coordinates S^-1 x.  The filtration by Y = b-span and
    the embedded H are carried there by wedge powers of S^-1, so F_q is a
    coordinate sublattice only when S is the identity."""
    n = len(delta)
    filt = Filtration.from_Y(y_units(n // 2), n)

    def units(basis, monos):
        return [apply_matrix(sinv, WedgeVector.monomial(n, t)).to_coords(basis) for t in monos]

    def images(basis, monos):
        out = []
        for t in monos:
            m = apply_matrix(sinv, WedgeVector.monomial(n, t))
            coords = (apply_matrix(delta, m) - m).to_coords(basis)
            if any(coords):
                out.append(coords)
        return out

    out = {}
    for q in (1, 2):
        k = 2 * q - 1
        basis = wedge_basis(n, k)
        num = units(basis, filt.monomials(k, q))
        den = lattice_intersection(images(basis, wedge_basis(n, k)), num, len(basis))
        out[f"A{q}"] = quotient_invariants(num, den, len(basis))
    basis = wedge_basis(n, 3)
    dim = len(basis)
    f2, f3 = units(basis, filt.monomials(3, 2)), units(basis, filt.monomials(3, 3))
    image1 = images(basis, filt.monomials(3, 1, exact=True))
    out["B2"] = quotient_invariants(f2, image1 + f3, dim)
    h = [apply_matrix(sinv, embed_H_in_L(e, n // 2)).to_coords(basis) for e in la.identity(n)]
    big = images(basis, basis) + h
    out["Abar"] = quotient_invariants(f2 + h, lattice_intersection(big, f2 + h, dim), dim)
    out["Bbar"] = quotient_invariants(f2 + h, image1 + f3 + h, dim)
    return out


def test_section_groups_match_intersection_oracle():
    """The coordinate-section route on delta0 with Y the b-span equals the
    intersection formulas, in unit coordinates and in the coordinates of a
    unimodular change of basis S, where Y is sheared."""
    rng = random.Random(12)
    kinds = {"unit": 0, "sheared": 0}
    for g in (2, 3, 4):
        for trial in range(10 if g < 4 else 4):
            delta0 = delta_from_Q(random_posdef(g, rng))
            delta, sinv = delta0, la.identity(2 * g)
            if trial % 3:
                delta, _, sinv = sheared(delta0, rng)
            kinds["sheared" if trial % 3 else "unit"] += 1
            want = {
                k: AbelianGroupDescriptor(free, tuple(tor))
                for k, (free, tor) in _intersection_groups(delta, sinv).items()
            }
            y = y_units(g)
            got = {
                "A1": A_group(delta0, y, 1),
                "A2": A_group(delta0, y, 2),
                "B2": B_group(delta0, y, 2),
                "Abar": Abar_group(delta0, y),
                "Bbar": Bbar_group(delta0, y),
            }
            assert got == want, (g, trial)
    assert kinds["unit"] >= 10 and kinds["sheared"] >= 10, kinds


def test_k4_group_fixture():
    qmat = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    delta = delta_from_Q(qmat)
    y = y_units(3)
    assert B_group(delta, y, 2).order == 8192
    assert Bbar_group(delta, y).order == 512
    assert A_group(delta, y, 2) == B_group(delta, y, 2)  # q1 = 1 kills the factor
    assert Abar_group(delta, y) == Bbar_group(delta, y)


def test_structure_matches_explicit_product():
    rng = random.Random(8)
    for g in (3, 4):
        for _ in range(6):
            qf = la.invariant_factor_diagonal(random_posdef(g, rng))
            qmat = [[qf[i] if i == j else 0 for j in range(g)] for i in range(g)]
            delta = delta_from_Q(qmat)
            got = B_group(delta, y_units(g), 2)
            orders = []
            for i in range(g):
                orders.extend([qf[i]] * (g - 1))  # coker(Q)^{g-1}
            for i in range(g):
                for j in range(i + 1, g):
                    for k in range(j + 1, g):
                        orders.extend([qf[i], qf[i], 2 * qf[j] * qf[k] // qf[i]])
            assert got == AbelianGroupDescriptor.from_cyclic_orders(orders)


def test_block_structure_for_diagonal_chain():
    # split the degree-3 monomials by how the x and y indices interlock and
    # check the full block profile of delta - I when Q = diag(q1|q2|...):
    # three blocks are nonsingular with prescribed cokernels, the rest of
    # the grid vanishes
    rng = random.Random(11)
    for trial in range(12):
        g = rng.choice([3, 4])
        qs = [rng.randint(1, 3)]
        while len(qs) < g:
            qs.append(qs[-1] * rng.randint(1, 3))
        qmat = [[qs[i] if i == j else 0 for j in range(g)] for i in range(g)]
        delta = delta_from_Q(qmat)
        n = 2 * g

        def klass(t):
            xs = [i for i in t if i < g]
            ys = [i - g for i in t if i >= g]
            if len(ys) == 0:
                return 1
            if len(ys) == 1:
                return 2 if ys[0] in xs else 3
            if len(ys) == 2:
                return 4 if xs[0] in ys else 5
            return 6

        groups = {c: [] for c in range(1, 7)}
        for t in wedge_basis(n, 3):
            groups[klass(t)].append(t)
        index = {t: (klass(t), i) for c in groups for i, t in enumerate(groups[c])}

        blocks = {(r, c): la.zero_matrix(len(groups[r]), len(groups[c]))
                  for r in range(1, 7) for c in range(1, 7)}
        for c in range(1, 7):
            for jcol, t in enumerate(groups[c]):
                m = WedgeVector.monomial(n, t)
                img = apply_matrix(delta, m) - m
                for s, coeff in img.coeffs.items():
                    r, irow = index[s]
                    blocks[(r, c)][irow][jcol] = coeff

        # flows allowed for diagonal Q: one graded level up through the
        # prescribed pattern, plus the higher-order corrections out of V1
        # and V3; in particular V1->V2, V2->V5, V3->V4, V4->V6 all vanish
        allowed = {(3, 1), (5, 1), (6, 1), (4, 2), (5, 3), (6, 3), (6, 5)}
        for r in range(1, 7):
            for c in range(1, 7):
                if (r, c) not in allowed:
                    assert is_zero_matrix(blocks[(r, c)]), (r, c)

        # V1 -> V3 is injective; V2 -> V4 and V3 -> V5 are square nonsingular
        assert la.matrix_rank(blocks[(3, 1)]) == len(groups[1])
        for (r, c) in ((4, 2), (5, 3)):
            blk = blocks[(r, c)]
            assert len(blk) == len(blk[0])
            assert la.matrix_rank(blk) == len(blk)

        assert coker(blocks[(4, 2)]) == AbelianGroupDescriptor.from_cyclic_orders(
            [q for q in qs for _ in range(g - 1)]
        )
        triple_orders = []
        for i in range(g):
            for j in range(i + 1, g):
                for k in range(j + 1, g):
                    triple_orders.extend(
                        [qs[i], qs[i], 2 * qs[j] * qs[k] // qs[i]]
                    )
        assert coker(blocks[(5, 3)]) == AbelianGroupDescriptor.from_cyclic_orders(
            triple_orders
        )
        tail_orders = []
        for i in range(g - 2):
            tail_orders.extend([qs[i]] * comb(g - 1 - i, 2))
        assert coker(blocks[(6, 5)]) == AbelianGroupDescriptor.from_cyclic_orders(
            tail_orders
        )


# -- graded inverse ---------------------------------------------------------------


def _gr2_preimage(q, v):
    """`delta_inverse_gr2` on Q, as the Fraction wedge vector N / s."""
    nums, scale = delta_inverse_gr2(q, v)
    return WedgeVector(2 * len(q), 3, {t: Fraction(x, scale) for t, x in nums.items()})


def test_delta_inverse_round_trip():
    rng = random.Random(9)
    for _ in range(40):
        g = rng.choice([2, 3, 4])
        qmat = random_posdef(g, rng)
        delta = delta_from_Q(qmat)
        filt = Filtration.from_Y(y_units(g), 2 * g)
        v = WedgeVector.zero(2 * g, 3)
        for _ in range(4):
            a, p, r = rng.randrange(g), rng.randrange(g), rng.randrange(g)
            if p != r:
                v = v + WedgeVector.monomial(2 * g, (a, g + p, g + r), rng.randint(-5, 5))
        u = _gr2_preimage(qmat, v)
        img = apply_matrix(delta, u) - u
        got = WedgeVector(
            2 * g, 3, {t: c for t, c in img.coeffs.items() if filt.y_degree(t) == 2}
        )
        assert got == WedgeVector(2 * g, 3, {t: Fraction(c) for t, c in v.coeffs.items()})


def test_delta_inverse_integral_round_trip():
    # image of an integral class pulls back to it modulo nothing: the graded
    # map is injective at maximal rank
    rng = random.Random(10)
    g = 3
    qmat = random_posdef(g, rng)
    delta = delta_from_Q(qmat)
    filt = Filtration.from_Y(y_units(g), 2 * g)
    x = WedgeVector(2 * g, 3, {(0, 1, 3): 2, (1, 2, 4): -1})
    img = apply_matrix(delta, x) - x
    v = WedgeVector(2 * g, 3, {t: c for t, c in img.coeffs.items() if filt.y_degree(t) == 2})
    u = _gr2_preimage(qmat, v)
    assert u == WedgeVector(2 * g, 3, {t: Fraction(c) for t, c in x.coeffs.items()})


def test_delta_inverse_rejects_singular():
    with pytest.raises(PreconditionError):
        _gr2_preimage([[1, 0], [0, 0]], WedgeVector(4, 3, {(0, 2, 3): 1}))


# -- sparse kernels against the sorting oracles ----------------------------------


def _random_coeff(rng):
    return rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])


def test_sparse_wedge_kernels_match_sorting_oracle():
    """vector_wedge and apply_matrix (on a class and on every monomial)
    equal the per-term sorting versions at k = 1..5, with integer and
    Fraction entries."""
    rng = random.Random(31)
    kinds = {"zero wedge": 0, "nonzero wedge": 0, "fractional": 0}
    for k in range(1, 6):
        for trial in range(40):
            n = rng.randint(k, 7)
            frac = trial % 2 == 1
            entry = (lambda: _random_coeff(rng)) if frac else (lambda: rng.randint(-3, 3))
            mat = [[entry() if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
            vectors = [row[:] for row in mat[:k]]
            if trial % 5 == 0:
                vectors[-1] = vectors[0][:]  # a repeated factor wedges to zero
            w = WedgeVector(n, k, {
                tuple(rng.sample(range(n), k)): _random_coeff(rng) for _ in range(3)
            })
            wedge = vector_wedge(vectors, n)
            assert wedge == helpers.vector_wedge(vectors, n)
            assert apply_matrix(mat, w) == helpers.apply_matrix(mat, w)
            basis = wedge_basis(n, k)
            want = la.columns([
                helpers.apply_matrix(mat, WedgeVector.monomial(n, t)).to_coords(basis)
                for t in basis
            ])
            assert induced(mat, k) == want
            kinds["zero wedge" if wedge.is_zero() else "nonzero wedge"] += 1
            kinds["fractional"] += frac
    assert min(kinds.values()) >= 40, kinds


def test_delta_minus_I_images_match_sorting_oracle():
    """The sparse (delta-I) images, the graded maps and the embedded H of
    delta0 with Y = b_1..b_h equal the per-term sorting versions, for
    g = 2..5 with weight slots.  On odd trials the oracle works in the
    coordinates of a random unimodular change of basis S, where Y is
    sheared, and carries its images back."""
    rng = random.Random(32)
    counts = {"weights": 0, "sheared": 0, "unit": 0}
    per_genus = {g: 0 for g in range(2, 6)}
    for g in range(2, 6):
        for trial in range(6):
            h = g if trial % 3 == 0 else rng.randint(1, g)
            delta0, y = cycle_delta(g, h, rng), y_units(g, h)
            delta, shear = delta0, None
            if trial % 2:
                delta, s, sinv = sheared(delta0, rng)
                shear = (s, sinv)
            n = 2 * g
            filt = Filtration.from_Y(y, n)
            counts["weights"] += h < g
            counts["sheared" if shear else "unit"] += 1
            for k in (1, 3, 5):
                if k > n:
                    continue
                basis = wedge_basis(n, k)
                eng = GradedImages.build(delta0, y, k)
                got = list(eng.monomial_images.values())
                want = helpers._delta_minus_I_images(delta, filt, basis, shear)
                assert got == [w.coeffs for w in want], (g, h, k)
                images = dict(zip(basis, want))
                for q in range(1, k + 1):
                    src = filt.monomials(k, q - 1, exact=True)
                    dst = filt.monomials(k, q, exact=True)
                    want_map = la.zero_matrix(len(dst), len(src))
                    for j, t in enumerate(src):
                        for i, s in enumerate(dst):
                            want_map[i][j] = images[t].coeffs.get(s, 0)
                    assert graded_map(delta0, y, q, k) == want_map, (g, h, k, q)
            eng = GradedImages.build(delta0, y, 3)
            assert helpers.h_generators(eng) == helpers.embedded_H_generators(g)
            per_genus[g] += 1
    assert all(c == 6 for c in per_genus.values()), per_genus
    assert counts["weights"] >= 6 and counts["sheared"] >= 8 and counts["unit"] >= 8, counts


def test_delta_inverse_gr2_matches_fraction_oracle():
    """The integer-adjugate preimage equals the Fraction computation, for
    nonsingular symmetric Q at g = 2..5 and classes with Fraction
    coefficients; both raise the same errors."""
    rng = random.Random(33)
    cases = {g: 0 for g in range(2, 6)}
    fractional = 0
    for g in range(2, 6):
        while cases[g] < 25:
            q = [[0] * g for _ in range(g)]
            for i in range(g):
                for j in range(i + 1):
                    q[i][j] = q[j][i] = rng.randint(-4, 4)
            if la.matrix_rank(q) < g:
                continue
            n = 2 * g
            v = WedgeVector.zero(n, 3)
            for _ in range(rng.randint(1, 4)):
                m, p, r = rng.randrange(g), rng.randrange(g), rng.randrange(g)
                if p != r:
                    coeff = rng.choice([rng.randint(-6, 6), Fraction("1/2"), _random_coeff(rng)])
                    v = v + WedgeVector.monomial(n, (m, g + p, g + r), coeff)
            fractional += any(Fraction(c).denominator > 1 for c in v.coeffs.values())
            assert _gr2_preimage(q, v) == helpers.delta_inverse_gr2(q, v), (q, v)
            cases[g] += 1
    assert fractional >= 30, fractional
    bad = WedgeVector(6, 3, {(0, 1, 3): 1})
    q3 = [[2, 1, 0], [1, 2, 0], [0, 0, 1]]
    for fn in (_gr2_preimage, helpers.delta_inverse_gr2):
        with pytest.raises(PreconditionError, match=r"coordinate \(0, 1, 3\) does not"):
            fn(q3, bad)
        with pytest.raises(PreconditionError, match="Q is singular"):
            fn([[1, 1], [1, 1]], WedgeVector(4, 3, {(0, 2, 3): Fraction(1, 2)}))


def test_monomial_images_extend_shared_prefixes_like_full_wedges():
    """The (delta-I) images, built on the cached wedge of each monomial's
    first k-1 columns, equal the full per-monomial wedges, on random
    unipotent deltas [[I, 0], [M, I]] with integer or Fraction M (zero on
    the weight rows) at g = 2..5 and k = 1..5."""
    rng = random.Random(34)
    shared = 0
    for trial in range(60):
        g = rng.randint(2, 5)
        h = rng.randint(1, g)
        n = 2 * g
        m = [[0] * g for _ in range(g)]
        for i in range(h):
            for j in range(g):
                if rng.random() < 0.7:
                    m[i][j] = _random_coeff(rng) if trial % 2 else rng.randint(-4, 4)
        delta = [
            [int(i == j) for j in range(g)] + [0] * g for i in range(g)
        ] + [m[i] + [int(i == j) for j in range(g)] for i in range(g)]
        k = rng.randint(1, min(5, n))
        eng = GradedImages.build(delta, y_units(g, h), k)
        want = helpers.monomial_images_by_monomial(delta, eng.wedge)
        assert eng.monomial_images == want, (trial, g, h, k)
        shared += k >= 3
    assert shared >= 20, shared


def test_delta_inverse_gr2_pair_sums_match_per_monomial_oracle():
    """The preimage built with one set of wedges per Y-pair (p, r) equals
    the per-monomial integer computation and the Fraction oracle, for
    nonsingular Q at g = 2..6 and classes with several monomials on each
    pair, integral and rational.  Every numerator it keeps sits on a
    monomial with exactly one Y index, so u lies in gr_1 with no check in
    the package."""
    rng = random.Random(35)
    stats = {"classes": 0, "shared pairs": 0, "fractional": 0}
    for g in range(2, 7):
        n = 2 * g
        while stats["classes"] < 42 * (g - 1):
            q = [[0] * g for _ in range(g)]
            for i in range(g):
                for j in range(i + 1):
                    q[i][j] = q[j][i] = rng.randint(-4, 4)
            if la.matrix_rank(q) < g:
                continue
            coeffs = {}
            pairs = list(combinations(range(g), 2))
            for p, r in rng.sample(pairs, rng.randint(1, min(3, len(pairs)))):
                ms = rng.sample(range(g), rng.randint(1, g))
                stats["shared pairs"] += len(ms) > 1
                for m in ms:
                    coeffs[m, g + p, g + r] = rng.choice(
                        [rng.randint(-6, 6) or 1, Fraction(rng.randint(1, 7), rng.randint(2, 5))]
                    )
            v = WedgeVector(n, 3, coeffs)
            stats["fractional"] += any(Fraction(c).denominator > 1 for c in v.coeffs.values())
            nums, _ = delta_inverse_gr2(q, v)
            assert all(sum(i >= g for i in t) == 1 for t in nums), (q, v)
            u = _gr2_preimage(q, v)
            assert u == helpers.delta_inverse_gr2_by_monomial(q, v), (q, v)
            if g <= 4:
                assert u == helpers.delta_inverse_gr2(q, v), (q, v)
            stats["classes"] += 1
    assert stats["classes"] >= 200 and stats["shared pairs"] >= 200, stats
    assert stats["fractional"] >= 100, stats


def test_to_json_writes_each_coefficient_as_its_fraction_string():
    """str(c) prints every int and Fraction coefficient as str(Fraction(c))
    did: integers, negative integers, Fractions with denominator 1 and
    proper Fractions."""
    values = [1, -1, 7, -12, 10**30, Fraction(4, 1), Fraction(-6, 2), Fraction(0 + 5, 5),
              Fraction(1, 2), Fraction(-7, 3), Fraction(22, 6)]
    terms = list(combinations(range(6), 3))
    w = WedgeVector(6, 3, dict(zip(terms, values)))
    assert len(w.coeffs) == len(values)
    assert w.to_json() == {
        "(" + ",".join(str(i + 1) for i in t) + ")": str(Fraction(c))
        for t, c in sorted(w.coeffs.items())
    }
    assert list(w.to_json().values()) == [
        "1", "-1", "7", "-12", str(10**30), "4", "-3", "1", "1/2", "-7/3", "11/3"
    ]


def test_random_posdef_raises_after_its_draw_bound(monkeypatch):
    """Positive definite draws grow too rare to wait for from g = 9 on, so
    random_posdef raises a ValueError naming g once its draws run out."""
    monkeypatch.setattr(helpers, "POSDEF_DRAWS", 50)
    with pytest.raises(ValueError, match=r"at g = 9 in 50 draws"):
        random_posdef(9, random.Random(1))
    assert len(random_posdef(2, random.Random(1))) == 2


def test_filtration_check_rejects_unstable_delta():
    """delta = [[I, I], [0, I]] sends b_j to b_j + a_j, so with Y the b-span
    the image of a_1 ^ b_1 ^ b_2 drops to level 1."""
    g = 2
    delta = [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    y = y_units(g)
    message = r"\(delta-I\) image of \(0, 2, 3\) has component at level 1"
    with pytest.raises(FiltrationError, match=message):
        graded_map(delta, y, 3, 3)
    with pytest.raises(FiltrationError, match=message):
        A_group(delta, y, 2)
