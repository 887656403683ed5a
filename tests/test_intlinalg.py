import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tropceresa import ceresa
from tropceresa import intlinalg as la
from tropceresa.catalog import builtin_curve
from tropceresa.graph_core import load_curve
from tropceresa.symplectic import delta_from_Q

import helpers
from helpers import (
    class_order,
    invariant_factors_from_orders,
    lattice_intersection,
    mat_mul,
    mat_vec,
    naive_snf_diag,
    quotient_invariants,
    random_unimodular,
    saturation_basis,
    smith_normal_form,
    solve_frac_gauss,
)

small_matrix = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_snf_transforms(a):
    s = smith_normal_form(a)
    m, n = len(a), len(a[0])
    d = mat_mul(mat_mul(s.U, a), s.V)
    for i in range(m):
        for j in range(n):
            assert d[i][j] == (s.diag[i] if i == j else 0)
    assert mat_mul(s.U, s.Uinv) == la.identity(m)
    assert mat_mul(s.V, s.Vinv) == la.identity(n)
    for a_, b_ in zip(s.diag, s.diag[1:]):
        if b_:
            assert a_ and b_ % a_ == 0


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_alternating_hnf_matches_naive_snf(a):
    rank, orders = la.snf_diagonal_orders(a)
    naive = [abs(d) for d in naive_snf_diag(a) if d]
    assert rank == len(naive)
    assert la.invariant_factors_from_orders(orders) == la.invariant_factors_from_orders(naive)


def test_smith_diagonal_gives_unimodular_transforms():
    """U a V is diagonal with U and V unimodular, on symmetric, non-symmetric,
    singular, non-square and 1x1 input, and its entries give the invariant
    factors of the textbook oracle."""
    rng = random.Random(14)
    cases = [[[5]], [[-3]], [[0]], [[0, 0], [0, 0]], [[2, 4], [4, 8]], [[1, 2], [3, 4]]]
    cases += [helpers.random_posdef(g, rng) for g in range(1, 7)]
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.4:  # singular: a row copied from another
            a[-1] = a[0][:]
        cases.append(a)
    kinds = set()
    for a in cases:
        m, n = len(a), len(a[0])
        d, u, v = la.smith_diagonal(a)
        assert len(d) == min(m, n)
        assert mat_mul(mat_mul(u, a), v) == [
            [d[i] if i == j else 0 for j in range(n)] for i in range(m)
        ]
        assert abs(helpers.det_fraction(u)) == 1 and abs(helpers.det_fraction(v)) == 1
        naive = naive_snf_diag(a)
        assert la.diagonal_invariant_factors(d) == [abs(x) for x in naive]
        shape = (
            "1x1" if m * n == 1
            else "symmetric" if a == la.columns(a)
            else "square" if m == n
            else "non-square"
        )
        kinds.add(shape + " singular" * (0 in d))
    assert {"1x1", "1x1 singular", "symmetric", "symmetric singular", "square",
            "square singular", "non-square", "non-square singular"} <= kinds


def test_invariant_factor_examples():
    assert la.invariant_factor_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert la.invariant_factor_diagonal([[0, 0], [0, 0]]) == [0, 0]
    q = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    assert la.invariant_factor_diagonal(q) == [1, 4, 4]


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_kernel_and_solve(a):
    for k in la.kernel_basis(a):
        assert all(x == 0 for x in mat_vec(a, k))
    rng = random.Random(7)
    x0 = [rng.randint(-4, 4) for _ in a[0]]
    b = mat_vec(a, x0)
    x = la.solve_int(a, b)
    assert x is not None and mat_vec(a, x) == b


def test_lattice_membership_against_solver():
    rng = random.Random(0)
    for _ in range(300):
        gens = [[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(rng.randint(1, 3))]
        lat = la.Lattice(2, gens)
        cols = [[g[r] for g in gens] for r in range(2)]
        for _ in range(20):
            v = [rng.randint(-8, 8), rng.randint(-8, 8)]
            assert (helpers.coset_order(lat, v) == 1) == (la.solve_int(cols, v) is not None)


def test_lattice_rejects_vectors_of_the_wrong_length():
    """An overlong vector leading at or past n could never be reduced, and a
    short one was stored as given; both are refused."""
    for vec, size in (([0, 0, 0, 2], 4), ([1, 2], 2)):
        with pytest.raises(ValueError, match=rf"length {size} .* Z\^3"):
            la.Lattice(3).add(vec)


def test_lattice_canonical_is_basis_independent():
    rng = random.Random(1)
    for _ in range(200):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        gens = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        gens2 = [row[:] for row in gens]
        for _ in range(10):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                q = rng.randint(-2, 2)
                gens2[i] = [x + q * y for x, y in zip(gens2[i], gens2[j])]
        rng.shuffle(gens2)
        assert la.lattice_eq(gens, gens2, n)



def _assert_hermite_reduced(lat):
    basis = lat.basis()
    for s, (row, p) in enumerate(zip(basis, lat.pivots)):
        assert not any(row[:p]) and row[p] > 0
        assert all(0 <= above[p] < row[p] for above in basis[:s])
    assert lat.pivots == sorted(set(lat.pivots))
    assert all(all(row.values()) for row in lat.rows)  # no stored zero


def test_every_add_leaves_a_hermite_reduced_basis():
    """Re-reduction reduces each pivot row into the rows above it that an
    add inserted, rewrote or changed on the way, or into all rows above if
    the pivot row is one of those; after each add the pivots are positive
    and each entry above a pivot lies in [0, pivot).  Sparse vectors leave
    most rows untouched, as the relation sets of a diagonal Q do."""
    rng = random.Random(13)
    rewrites = 0
    for trial in range(90):
        n = rng.randint(2, 6) if trial < 60 else rng.randint(8, 14)
        density = 0.7 if trial < 60 else 0.25
        lat = la.Lattice(n)
        for _ in range(3 * n):
            vec = [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
            before = lat.canonical()
            lat.add(vec)
            rewrites += lat.rank == len(before) and lat.canonical() != before
            _assert_hermite_reduced(lat)
    assert rewrites >= 80


def _sparse(vec) -> dict:
    return {j: x for j, x in enumerate(vec) if x}


def test_sparse_lattice_matches_dense_oracle(monkeypatch):
    """`Lattice` keeps each row as {column: nonzero value} and runs the dense
    kernel's algorithm on it.  On seeded generator sets, given as lists and
    as dicts (explicit zeros included), its rows, pivots, canonical basis,
    back-substitutions, coset orders and sections, and its rows after one
    more insertion, equal those of the dense oracle `helpers.DenseLattice`."""
    seen = dict.fromkeys(
        ("xgcd", "negative pivot", "deficient", "zero vector", "d=0", "d=n"), 0
    )
    steps = {"xgcd": 0, "negative pivot": 0}
    xgcd = helpers._xgcd

    def counting_xgcd(a, b):
        steps["xgcd"] += 1
        return xgcd(a, b)

    class Oracle(helpers.DenseLattice):
        def _reduce_rows(self, touched):
            rows, pivots = self.rows, self.pivots
            steps["negative pivot"] += any(rows[s][pivots[s]] < 0 for s in touched)
            super()._reduce_rows(touched)

    monkeypatch.setattr(helpers, "_xgcd", counting_xgcd)
    rng = random.Random(19)
    for trial in range(1200):
        n = rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 0.9))
        gens = [
            [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(rng.randint(0, 2 * n))
        ]
        if len(gens) > 1 and trial % 3 == 0:
            gens[-1] = [2 * x - 3 * y for x, y in zip(gens[0], gens[1])]
        if trial % 4 == 0:
            gens.insert(rng.randint(0, len(gens)), [0] * n)
        steps.update(dict.fromkeys(steps, 0))
        dense = Oracle(n, gens)
        for key, count in steps.items():
            seen[key] += count > 0
        given = [dict(enumerate(g)) for g in gens] if trial % 2 else gens
        lat = la.Lattice(n, given)
        assert lat.pivots == dense.pivots
        assert lat.rows == [_sparse(row) for row in dense.rows]
        assert lat.basis() == dense.basis() and lat.canonical() == dense.canonical()
        seen["deficient"] += lat.rank < len(gens)
        seen["zero vector"] += [0] * n in gens

        d = rng.choice((0, n, rng.randint(0, n)))
        seen["d=0"] += d == 0
        seen["d=n"] += d == n
        assert lat.section(d) == dense.section(d)
        vecs = [[0] * n, [rng.randint(-6, 6) for _ in range(n)]]
        vecs.append([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)])
        if gens:
            cs = [rng.randint(-3, 3) for _ in gens]
            vecs.append([sum(c * g[t] for c, g in zip(cs, gens)) for t in range(n)])
        for vec in vecs:
            for stop in (d, None):
                want = dense.back_substitute(vec, stop)
                for form in (vec, _sparse(vec)):
                    rest, den = lat.back_substitute(form, stop)
                    assert (rest, den) == (_sparse(want[1]), want[2])
                    assert helpers.coset_order(lat, form, stop) == dense.coset_order(vec, stop)

        extra = [rng.randint(-9, 9) for _ in range(n)]
        lat.add(_sparse(extra))
        dense.add(extra)
        assert lat.rows == [_sparse(row) for row in dense.rows]
    assert min(seen.values()) >= 40, seen
    with pytest.raises(ValueError, match=r"columns 0\.\.3 .* Z\^3"):
        la.Lattice(3).add({0: 1, 3: 2})


@pytest.mark.parametrize("name", ["tl3", "theta-w1", "3balloon"])
def test_h_extended_echelons_match_fresh_shuffled_builds(monkeypatch, name):
    """The Abar and Bbar lattices of a context's Smith-frame engine are the
    A and B(2) relations extended by omega' ^ H, each echelonised in one
    pass, with no echelon shared with the A and B groups; their canonical
    bases equal fresh builds of the same generators, in filtration order
    and shuffled."""
    ctx = ceresa.build_context(builtin_curve(name))
    g, d, eng = ctx.g, ctx.q_diagonal, helpers.smith_frame_engine(ctx)
    assert eng.delta == delta_from_Q([[x * (i == j) for j in range(g)] for i, x in enumerate(d)])
    built = []
    init = la.Lattice.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(la.Lattice, "__init__", counted_init)
    eng.A_group(2), eng.B_group(2)
    built.clear()
    eng.abar_lattice, eng.bbar_lattice
    monkeypatch.undo()
    deg = ctx.filt.y_degree
    assert built == [len(eng.wedge), eng.start(3)]
    order = sorted(range(len(eng.wedge)), key=lambda i: deg(eng.wedge[i]))
    rng = random.Random(name)
    cases = [
        (eng.abar_lattice, helpers.abar_relations(eng), len(eng.wedge)),
        (
            eng.bbar_lattice,
            helpers.image_generators(eng, 1) + helpers.h_generators(eng),
            sum(deg(t) < 3 for t in eng.wedge),
        ),
    ]
    for lat, gens, stop in cases:
        rows = [[g[i] for i in order[:stop]] for g in gens]
        rng.shuffle(rows)
        assert lat.n == stop
        assert lat.canonical() == la.Lattice(stop, rows).canonical()


def test_class_order_brute_force():
    rng = random.Random(2)
    for _ in range(250):
        n = 3
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        v = [rng.randint(-3, 3) for _ in range(n)]
        lat = la.Lattice(n, gens)
        got = helpers.coset_order(lat, v)
        brute = math.inf
        for k in range(1, 300):
            if helpers.coset_order(lat, [k * x for x in v]) == 1:
                brute = k
                break
        assert got == brute


def test_class_order_examples():
    lat = la.Lattice(2, [[4, 0], [0, 3]])
    assert helpers.coset_order(lat, [1, 0]) == 4
    assert helpers.coset_order(lat, [1, 1]) == 12
    assert helpers.coset_order(la.Lattice(2, [[0, 3]]), [1, 0]) == math.inf
    assert helpers.coset_order(la.Lattice(2), [0, 0]) == 1


def test_quotient_invariants():
    fr, tor = quotient_invariants([[1, 0], [0, 1]], [[2, 0], [0, 4]], 2)
    assert (fr, tor) == (0, [2, 4])
    fr, tor = quotient_invariants([[1, 0, 0], [0, 1, 0]], [[2, 0, 0]], 3)
    assert (fr, tor) == (1, [2])
    with pytest.raises(ValueError):
        quotient_invariants([[2, 0]], [[1, 0]], 2)


def test_quotient_order_is_determinant():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(1, 4)
        while True:
            sub = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            rank, orders = la.snf_diagonal_orders(sub)
            if rank == n:
                break
        fr, tor = quotient_invariants(la.identity(n), sub, n)
        assert fr == 0
        assert la.group_order(fr, tor) == math.prod(orders)


def section_quotient(vectors, section, n):
    """Structure of Z^section / (span_Z(vectors) & Z^section), read by
    `Lattice.section` with the coordinates of Z^section ordered last."""
    inside = sorted(set(section))
    order = sorted(set(range(n)) - set(inside)) + inside
    lat = la.Lattice(n, ([v[j] for j in order] for v in vectors))
    return lat.section(n - len(inside))


def test_section_quotient_matches_intersection_oracle():
    rng = random.Random(13)
    free = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        section = rng.sample(range(n), rng.randint(0, n))
        vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n + 2))]
        units = [[int(t == j) for t in range(n)] for j in section]
        den = lattice_intersection(vecs, units, n)
        want = quotient_invariants(units, den, n)
        assert section_quotient(vecs, section, n) == want
        free += want[0] > 0
    assert free >= 50
    assert section_quotient([[1, 2, 0], [0, 4, 6]], [1, 2], 3) == (1, [2])
    assert section_quotient([[2, 1], [0, 3]], [1], 2) == (0, [3])


def test_coset_order_and_section_match_oracles():
    """Both readings of one echelon basis, for every suffix start d:
    `coset_order(v, d)` against the fresh-lattice class order over the
    generators plus e_d..e_{n-1}, and `section(d)` against the quotient of
    Z^{d..n-1} by its intersection with the generators' span."""
    rng = random.Random(21)
    seen = {"deficient": 0, "suffix_fraction": 0, "inf": 0, "torsion": 0, "free": 0}
    for _ in range(150):
        n = rng.randint(1, 7)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        if gens and rng.random() < 0.4:  # force a dependent generator
            gens.append([2 * x - y for x, y in zip(gens[0], gens[-1])])
        lat = la.Lattice(n, gens)
        seen["deficient"] += lat.rank < n
        for d in range(n + 1):
            if gens and rng.random() < 0.5:  # in the rational span
                v = [0] * n
                for gen in gens:
                    c = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6)))
                    v = [x + c * y for x, y in zip(v, gen)]
            else:
                v = [rng.randint(-5, 5) for _ in range(n)]
            if rng.random() < 0.5:  # denominators in the suffix
                v[d:] = [Fraction(rng.randint(-6, 6), 6) for _ in range(d, n)]
            units = [[int(t == j) for t in range(n)] for j in range(d, n)]
            want = class_order(v, gens + units, n)
            assert helpers.coset_order(lat, v, d) == want
            seen["inf"] += want == math.inf
            seen["suffix_fraction"] += want != math.inf and any(
                Fraction(x).denominator > 1 for x in v[d:]
            )
            section = quotient_invariants(units, lattice_intersection(gens, units, n), n)
            assert lat.section(d) == section
            seen["free"] += section[0] > 0
            seen["torsion"] += bool(section[1])
        assert helpers.coset_order(lat, v) == class_order(v, gens, n)
    assert min(seen.values()) >= 60 and seen["suffix_fraction"] >= 200, seen


def _seeded_lattice(rng):
    """(n, generators, d): dense small generators (mostly unit pivots) or
    scaled unit vectors with sparse tails, scales all 1, all non-units or
    mixed; sometimes a dependent generator, and d = 0 or n a third of the
    time."""
    n = rng.randint(1, 8)
    scales = rng.choice((None, (1,), (2, 3, 4, 6), (1, 2, 3)))
    gens = []
    for _ in range(rng.randint(0, n + 1)):
        if scales is None:
            gens.append([rng.randint(-3, 3) for _ in range(n)])
            continue
        j = rng.randrange(n)
        v = [0] * n
        v[j] = rng.choice(scales) * rng.choice((1, -1))
        for t in range(j + 1, n):
            if rng.random() < 0.3:
                v[t] = rng.choice(scales) * rng.randint(-2, 2)
        gens.append(v)
    if gens and rng.random() < 0.3:
        a, b = rng.choice(gens), rng.choice(gens)
        gens.append([2 * x - 3 * y for x, y in zip(a, b)])
    r = rng.random()
    return n, gens, 0 if r < 0.15 else n if r < 0.3 else rng.randint(0, n)


def test_section_split_matches_full_tail_oracle():
    """`section` with its unit pivots split off equals the Smith reduction
    of the whole tail (`helpers.full_tail_section`) on seeded lattices."""
    rng = random.Random(16)
    seen = dict.fromkeys(
        ("mixed", "non-unit", "all-unit", "empty", "d=0", "d=n", "deficient"), 0
    )
    for _ in range(1200):
        n, gens, d = _seeded_lattice(rng)
        lat = la.Lattice(n, gens)
        assert lat.section(d) == helpers.full_tail_section(lat, d), (n, gens, d)
        pivots = {row[p] for row, p in zip(lat.rows, lat.pivots) if p >= d}
        seen["mixed"] += 1 in pivots and len(pivots) > 1
        seen["non-unit"] += bool(pivots) and 1 not in pivots
        seen["all-unit"] += pivots == {1}
        seen["empty"] += not pivots
        seen["d=0"] += d == 0
        seen["d=n"] += d == n
        seen["deficient"] += lat.rank < min(len(gens), n)
    assert min(seen.values()) >= 40, seen


SECTION_CURVES = {
    "g5": lambda: load_curve(Path(__file__).parent / "data" / "g5_k24.json"),
    "k4-doubled-2": lambda: helpers.k4_doubled(2, [1, 2, 3, 1, 2, 3, 4, 5]),
    "k4-doubled-3": lambda: helpers.k4_doubled(3, [2, 1, 3, 1, 1, 2, 3, 1, 2]),
}


@pytest.mark.parametrize("name", SECTION_CURVES)
def test_group_sections_match_full_tail_oracle(monkeypatch, name):
    """The four sections behind the Smith-frame engine's A, B, Abar and Bbar
    of real curves, and the one section behind the block route's Abar and
    Bbar (`ceresa.group_table` at maximal rank), each against the full-tail
    oracle."""
    ctx = ceresa.build_context(SECTION_CURVES[name]())
    eng = helpers.smith_frame_engine(ctx)
    sections = []
    section = la.Lattice.section

    def recording(lat, d):
        sections.append((lat, d))
        return section(lat, d)

    monkeypatch.setattr(la.Lattice, "section", recording)
    eng.A_group(2), eng.B_group(2), eng.Abar_group(), eng.Bbar_group()
    assert len(sections) == 4
    ceresa.group_table(ctx)
    assert len(sections) == 5
    for lat, d in sections:
        assert section(lat, d) == helpers.full_tail_section(lat, d)


def test_lattice_intersection():
    inter = lattice_intersection([[2, 0], [0, 2]], [[3, 0], [0, 3]], 2)
    assert la.lattice_eq(inter, [[6, 0], [0, 6]], 2)
    rng = random.Random(4)
    for _ in range(100):
        n = 3
        va = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        vb = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        inter = lattice_intersection(va, vb, n)
        la_, lb = la.Lattice(n, va), la.Lattice(n, vb)
        for v in inter:
            assert helpers.coset_order(la_, v) == 1 and helpers.coset_order(lb, v) == 1
        # everything in both lattices within a small box is generated
        li = la.Lattice(n, inter)
        for _ in range(30):
            v = [rng.randint(-4, 4) for _ in range(n)]
            if helpers.coset_order(la_, v) == 1 and helpers.coset_order(lb, v) == 1:
                assert helpers.coset_order(li, v) == 1


def test_refactorization():
    assert la.invariant_factors_from_orders([2, 3, 4]) == [2, 12]
    assert la.invariant_factors_from_orders([1, 1]) == []
    assert la.invariant_factors_from_orders([6, 4]) == [2, 12]
    assert la.invariant_factors_from_orders([4, 4, 2, 32]) == [2, 4, 4, 32]


def test_invariant_factors_match_factoring_oracle():
    """The coprime-base chain equals the prime-by-prime chain on seeded lists of
    orders built from a few shared primes, so chains of equal, nested and
    coprime factors all occur."""
    rng = random.Random(41)
    primes = [2, 3, 5, 7, 11, 13]
    kinds = {"empty": 0, "units": 0, "chain": 0, "long": 0}
    for trial in range(600):
        size = trial % 12
        orders = [
            math.prod(p ** rng.randint(0, 3) for p in rng.sample(primes, rng.randint(0, 4)))
            for _ in range(size)
        ]
        want = invariant_factors_from_orders(orders)
        assert la.invariant_factors_from_orders(orders) == want, orders
        kinds["empty"] += not want
        kinds["units"] += 1 in orders
        kinds["chain"] += len(want) >= 2
        kinds["long"] += len(want) >= 4
    assert min(kinds.values()) >= 40, kinds
    with pytest.raises(ValueError, match="cyclic orders must be positive"):
        la.invariant_factors_from_orders([3, 0])


def test_invariant_factors_over_repeated_orders_match_factoring_oracle():
    """On 1200 seeded multisets of up to 300 orders drawn from a few
    distinct values, with repeats, large shared primes and values that
    share factors pairwise (6, 10, 15, ...), so the coprime base must
    split them, the chain equals the prime-by-prime oracle."""
    rng = random.Random(42)
    primes = [2, 3, 5, 7, 11, 97, 101]
    stats = {"repeats": 0, "split": 0, "long": 0}
    for trial in range(1200):
        values = [
            math.prod(p ** rng.randint(1, 3) for p in rng.sample(primes, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 5))
        ] + [1]
        orders = [rng.choice(values) for _ in range(rng.randint(0, 300))]
        want = invariant_factors_from_orders(orders)
        assert la.invariant_factors_from_orders(orders) == want, orders
        distinct = set(orders) - {1}
        stats["repeats"] += len(distinct) < len(orders)
        stats["split"] += any(1 < math.gcd(a, b) < min(a, b) for a in distinct for b in distinct)
        stats["long"] += len(want) >= 50
    assert min(stats.values()) >= 300, stats


def test_invariant_factors_of_the_genus_16_block_groups(monkeypatch):
    """Every multiset of cyclic orders that the group table of Q = 2I at
    genus 16 reduces (2480 of them for A, all 2 or 4) gives the oracle's
    chain."""
    seen = []
    reduce = la.invariant_factors_from_orders

    def recording(orders):
        seen.append(list(orders))
        return reduce(seen[-1])

    monkeypatch.setattr(la, "invariant_factors_from_orders", recording)
    g = 16
    q = [[2 * (i == j) for j in range(g)] for i in range(g)]
    ctx = ceresa.PipelineContext(None, 1, SimpleNamespace(g=g, h=g), q)
    groups = ceresa.group_table(ctx)
    assert len(groups["A"].torsion) == 2480
    assert max(map(len, seen)) == 2480
    for orders in seen:
        assert reduce(orders) == invariant_factors_from_orders(orders)


def test_unimodular_inverse():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = la.identity(n)
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-2, 2)
                for t in range(n):
                    m[i][t] += q * m[j][t]
        assert mat_mul(m, la.int_inverse(m)) == la.identity(n)
        den, inv = la.scaled_inverse(m)
        assert den == 1 and mat_mul(m, inv) == la.identity(n)


def test_saturation_basis():
    sat = saturation_basis([[2, 0], [0, 3], [0, 0]])
    assert la.lattice_eq(sat, [[1, 0, 0], [0, 1, 0]], 3)


def test_solve_frac_gauss():
    rng = random.Random(6)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        b = mat_vec(a, x0)
        x = solve_frac_gauss(a, b)
        assert x is not None
        assert mat_vec(a, x) == b


def test_class_order_matches_gauss_oracle():
    """Back-substitution on the echelon basis against Gauss-Jordan on the
    same basis: rank-deficient lattices, non-members and zero vectors."""
    rng = random.Random(8)
    seen = {"torsion": 0, "inf": 0, "deficient": 0, "zero": 0}
    for _ in range(400):
        n = rng.randint(1, 8)
        k = rng.randint(0, n + 1)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        if gens and rng.random() < 0.3:  # force a dependent generator
            gens.append([2 * x - y for x, y in zip(gens[0], gens[-1])])
        roll = rng.random()
        if roll < 0.1:
            v = [0] * n
        elif roll < 0.6 and gens:  # integer vector in the rational span
            v = [0] * n
            for gen in gens:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 6))
                v = [x + c * y for x, y in zip(v, gen)]
            den = math.lcm(*(Fraction(x).denominator for x in v))
            v = [int(x * den) for x in v]
        else:
            v = [rng.randint(-5, 5) for _ in range(n)]
        basis = la.Lattice(n, gens).basis()
        got = helpers.coset_order(la.Lattice(n, gens), v)
        if not any(v):
            expected = 1
            seen["zero"] += 1
        elif not basis:
            expected = math.inf
        else:
            x = solve_frac_gauss([[b[r] for b in basis] for r in range(n)], v)
            expected = math.inf if x is None else math.lcm(*(c.denominator for c in x))
        if len(basis) < n:
            seen["deficient"] += 1
        if expected == math.inf:
            seen["inf"] += 1
        elif expected > 1:
            seen["torsion"] += 1
        assert got == expected, (gens, v)
    assert all(count >= 20 for count in seen.values()), seen


def _random_int_matrix(rng, kind):
    """m x n matrix up to 7 x 7: zero, rank-deficient (a product through a
    thinner middle) or random (full rank almost surely).

    Entries stay small because the pivoting oracle's entries explode on
    larger ones (see test_tagged_hermite_on_smith_blowup_input).
    """
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    if kind == "zero":
        return [[0] * n for _ in range(m)]
    if kind == "deficient":
        r = rng.randint(1, max(1, min(m, n) - 1))
        left = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(r)]
        return mat_mul(left, right)
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]


def test_tagged_hermite_kernels_match_smith_oracle():
    """kernel_basis, the saturation (kernel of the left kernel), solve_int
    and int_inverse against the pivoting Smith form's transforms."""
    rng = random.Random(11)
    seen = {"zero": 0, "deficient": 0, "full": 0, "solvable": 0,
            "unsolvable": 0, "unimodular": 0, "singular": 0}
    for trial in range(600):
        a = _random_int_matrix(rng, ("zero", "deficient", "full")[trial % 3])
        m, n = len(a), len(a[0])
        snf = smith_normal_form(a)
        rank = snf.rank
        seen["zero" if rank == 0 else "full" if rank == min(m, n) else "deficient"] += 1

        kernel = la.kernel_basis(a)
        oracle_kernel = [[snf.V[r][j] for r in range(n)] for j in range(rank, n)]
        assert len(kernel) == n - rank
        assert la.lattice_eq(kernel, oracle_kernel, n), a

        sat = saturation_basis(a)
        oracle_sat = [[snf.Uinv[r][j] for r in range(m)] for j in range(rank)]
        assert len(sat) == rank
        assert la.lattice_eq(sat, oracle_sat, m), a

        if rng.random() < 0.5:
            b = mat_vec(a, [rng.randint(-4, 4) for _ in range(n)])
        else:
            b = [rng.randint(-6, 6) for _ in range(m)]
        w = mat_vec(snf.U, b)
        oracle_solvable = all(
            (wi % snf.diag[i] == 0) if i < rank else wi == 0
            for i, wi in enumerate(w)
        )
        x = la.solve_int(a, b)
        assert (x is not None) == oracle_solvable, (a, b)
        if x is not None:
            seen["solvable"] += 1
            assert mat_vec(a, x) == b
        else:
            seen["unsolvable"] += 1

        unimodular = random_unimodular(m, rng, shears=rng.randint(0, 12))
        for square in ([a] if m == n else []) + [unimodular]:
            oracle = smith_normal_form(square)
            if all(d == 1 for d in oracle.diag):
                seen["unimodular"] += 1
                inverse = la.int_inverse(square)
                assert inverse == mat_mul(oracle.V, oracle.U)
                assert mat_mul(square, inverse) == la.identity(m)
            else:
                seen["singular"] += 1
                with pytest.raises(ValueError, match="not unimodular"):
                    la.int_inverse(square)
    assert all(count >= 40 for count in seen.values()), seen


def test_tagged_hermite_on_smith_blowup_input():
    """A 7 x 7 matrix of rank 6 on which the pivoting Smith form's entries grow
    past 500 bits; it did not finish in ten minutes (CPython 3.11, one core
    of a 2-core VM).  The Hermite-based routines answer in under a
    millisecond, checked here without any Smith oracle."""
    a = [
        [0, 3, -2, -6, 2, 0, 5],
        [-6, -5, 5, -1, -2, 7, 1],
        [-1, -1, 0, 2, -4, 3, -5],
        [3, 2, -11, -5, -1, -1, -2],
        [-10, -4, 8, -4, 0, -6, 4],
        [0, -1, 2, 0, 2, 3, 10],
        [-3, -1, -5, -5, -1, -8, -4],
    ]
    rank = la.matrix_rank(a)
    kernel = la.kernel_basis(a)
    assert len(kernel) == 7 - rank
    assert all(not any(mat_vec(a, k)) for k in kernel)
    sat = saturation_basis(a)
    assert len(sat) == rank
    assert all(helpers.coset_order(la.Lattice(7, sat), col) == 1 for col in la.columns(a))
    x0 = [1, -2, 0, 3, 1, 0, -1]
    b = mat_vec(a, x0)
    x = la.solve_int(a, b)
    assert x is not None and mat_vec(a, x) == b


def test_back_substitution_reads_match_elimination_oracles():
    """solve_int and membership, each one read of
    `Lattice.back_substitute`, against greedy reduction; and the
    fraction-free inverse den a^-1 against Gauss-Jordan over Q, on square
    matrices that are not symmetric."""
    rng = random.Random(23)
    seen = {"invertible": 0, "singular": 0, "dependent": 0, "not_full": 0,
            "member": 0, "nonmember": 0, "solvable": 0, "unsolvable": 0}
    for trial in range(400):
        n = rng.randint(1, 5)
        square = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:  # force a dependent row
            square[-1] = [sum(x) for x in zip(*square[:-1])] if n > 1 else [0]
        try:
            oracle = helpers.frac_inverse(square)
        except ValueError:
            seen["singular"] += 1
            with pytest.raises(ValueError, match="singular matrix"):
                la.scaled_inverse(square)
        else:
            seen["invertible"] += 1
            den, inv = la.scaled_inverse(square)
            assert den == math.lcm(*(x.denominator for row in oracle for x in row))
            assert inv == [[den * x for x in row] for row in oracle]

        dim, k = rng.randint(1, 5), rng.randint(0, 5)
        gens = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        if k > 1 and trial % 2:  # 2 g_0 - g_1 makes the gens dependent
            gens[-1] = [2 * x - y for x, y in zip(gens[0], gens[1])]
        lat = la.Lattice(dim, gens)
        seen["dependent"] += lat.rank < k
        seen["not_full"] += lat.rank < dim
        for _ in range(5):
            if rng.random() < 0.5 and gens:
                cs = [rng.randint(-3, 3) for _ in gens]
                vec = [sum(c * g[t] for c, g in zip(cs, gens)) for t in range(dim)]
            else:
                vec = [rng.randint(-6, 6) for _ in range(dim)]
            member = not any(helpers.lattice_reduce(lat, vec))
            seen["member" if member else "nonmember"] += 1
            assert (helpers.coset_order(lat, vec) == 1) == member
            rest, den = lat.back_substitute(vec)
            assert (den == 1 and not rest) == (helpers.lattice_coords_of(lat, vec) is not None)

            cols = [[g[t] for g in gens] for t in range(dim)] if gens else []
            if cols:
                x = la.solve_int(cols, vec)
                oracle_x = helpers.solve_int(cols, vec)
                assert (x is None) == (oracle_x is None) == (not member)
                seen["unsolvable" if x is None else "solvable"] += 1
                if x is not None:
                    assert mat_vec(cols, x) == vec
    assert all(count >= 50 for count in seen.values()), seen


def test_scaled_inverse_matches_gauss_jordan_through_swaps_and_signs():
    """`scaled_inverse` against Gauss-Jordan over Q on 400 seeded n x n
    matrices, n = 1..7: den is the lcm of the oracle's denominators and the
    matrix is den times the oracle.  Every other matrix has a zero leading
    entry, so the elimination swaps rows; every third is scaled by 2 or 3,
    so the gcd with the adjugate leaves den < |det|; every seventh has a
    dependent row and must be refused."""
    rng = random.Random(37)
    seen = {"swap": 0, "negative det": 0, "den < |det|": 0, "singular": 0}
    for trial in range(400):
        n = rng.randint(1, 7)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if trial % 2:
            a[0][0] = 0
        if trial % 3 == 0:
            a = [[rng.choice((2, 3)) * x for x in row] for row in a]
        if trial % 7 == 0 and n > 1:
            a[-1] = [x - y for x, y in zip(a[0], a[1])]
        det = helpers.det_fraction(a)
        if det == 0:
            seen["singular"] += 1
            with pytest.raises(ValueError, match="singular matrix"):
                la.scaled_inverse(a)
            continue
        oracle = helpers.frac_inverse(a)
        den, inv = la.scaled_inverse(a)
        assert den == math.lcm(*(x.denominator for row in oracle for x in row)), a
        assert inv == [[den * x for x in row] for row in oracle], a
        seen["swap"] += a[0][0] == 0
        seen["negative det"] += det < 0
        seen["den < |det|"] += den < abs(det)
    assert all(count >= 40 for count in seen.values()), seen
