"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import inf, lcm, prod

from tropceresa import intlinalg as la
from tropceresa.ceresa import PipelineContext, nontriviality_verdict
from tropceresa.errors import FiltrationError, PreconditionError
from tropceresa import exterior
from tropceresa.exterior import Filtration, WedgeVector, embed_H_in_L, wedge_basis
from tropceresa.graph_core import (
    Involution,
    TropicalCurve,
    genus,
    is_hyperelliptic,
    scaled_to_integer,
    stabilize,
    tropical_curve,
)
from tropceresa.intlinalg import Lattice, Matrix, Vector, identity
from tropceresa.symplectic import (
    delta_from_Q,
    homology_basis,
    intersection,
    polarization_Q,
    twist_action,
)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols_b = len(b[0]) if b else 0
    return [
        [sum(x * b[t][j] for t, x in enumerate(row) if x) for j in range(cols_b)]
        for row in a
    ]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def is_zero_matrix(a: Matrix) -> bool:
    return not any(any(row) for row in a)


def det_fraction(mat) -> Fraction:
    """Plain fraction Gaussian determinant; independent of the package SNF."""
    n = len(mat)
    mm = [[Fraction(x) for x in row] for row in mat]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mm[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mm[col], mm[piv] = mm[piv], mm[col]
            d = -d
        d *= mm[col][col]
        inv = 1 / mm[col][col]
        for r in range(col + 1, n):
            if mm[r][col]:
                f = mm[r][col] * inv
                mm[r] = [x - f * y for x, y in zip(mm[r], mm[col])]
    return d


def solve_frac_gauss(a: Matrix, b: Vector):
    """Rational solution of a @ x = b by fraction Gaussian elimination."""
    m = len(a)
    n = len(a[0]) if m else 0
    work = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(m):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = work[i][n]
    for i in range(r, m):
        if work[i][n]:
            return None
    # verify (free columns were set to zero)
    for i in range(m):
        if sum(Fraction(a[i][j]) * x[j] for j in range(n)) != b[i]:
            return None
    return x


# The lattice kernel as it was before its rows became sparse maps: dense rows
# of length n, each update over every column from the pivot on.  Kept only as
# the oracle for `intlinalg.Lattice`, which must give the same rows, pivots,
# readings and sections.


class DenseLattice:
    """Z-span of vectors in Z^n, kept in Hermite-reduced echelon form.

    Membership needs divisibility at every pivot, so the echelon rows are a
    genuine lattice basis, not just a rational one.  Rows are re-reduced
    after every insertion, wherever it inserted, rewrote or changed a row;
    without that, chains of gcd combinations blow up doubly exponentially
    on lattices of this package's working size.

    Invariant: each row is zero before its pivot, and the pivots increase.
    Every update of a row by another therefore starts at the other row's
    pivot column, and every reading of a vector against the rows is one
    back-substitution along the pivots.
    """

    def __init__(self, n: int, vectors=()):
        self.n = n
        self.rows: list[Vector] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.add(v)

    def add(self, vec: Vector) -> None:
        vec = list(vec)
        if len(vec) != self.n:
            raise ValueError(
                f"vector of length {len(vec)} added to a lattice in Z^{self.n}"
            )
        # the rows rewritten, then the row inserted; each step zeroes vec at
        # its lead, so the next lead lies beyond it and positions increase
        touched = []
        lead = 0
        while True:
            lead = next((j for j in range(lead, self.n) if vec[j]), None)
            if lead is None:
                break
            pos = bisect_left(self.pivots, lead)
            if pos == len(self.pivots) or self.pivots[pos] != lead:
                self.rows.insert(pos, vec)
                self.pivots.insert(pos, lead)
                touched.append(pos)
                break
            row = self.rows[pos]
            a, b = row[lead], vec[lead]
            if b % a == 0:
                q = b // a
                for t in range(lead, self.n):
                    vec[t] -= q * row[t]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                for t in range(lead, self.n):
                    rt, vt = row[t], vec[t]
                    row[t] = x * rt + y * vt
                    vec[t] = -bg * rt + ag * vt
                touched.append(pos)
        self._reduce_rows(touched)

    def _reduce_rows(self, touched) -> None:
        """Hermite discipline after an insertion: positive pivots, entries
        above reduced.

        Two rows that are both untouched (neither inserted nor rewritten by
        `add`, nor changed by this pass so far) were reduced against each
        other by the last pass, so each pivot row s is reduced into the
        dirty rows above it only, or into all of them if s itself is dirty.
        Row s is zero before its pivot p, so a row above it only changes
        from column p on, and later pivots never undo the reduction at p.
        """
        rows, pivots = self.rows, self.pivots
        dirty = set(touched)
        for s in range(touched[0] if touched else len(pivots), len(pivots)):
            p = pivots[s]
            rs = rows[s]
            if s in dirty:
                if rs[p] < 0:
                    rs[p:] = [-x for x in rs[p:]]
                above = range(s)
            else:
                above = [r for r in dirty if r < s]
            piv = rs[p]
            tail = rs[p:]
            for r in above:
                row = rows[r]
                q = row[p] // piv
                if q:
                    row[p:] = [x - q * y for x, y in zip(row[p:], tail)]
                    dirty.add(r)

    def back_substitute(self, vec: Vector, d: int | None = None):
        """Rational coefficients of vec along the rows pivoting before d
        (d = n by default), the residual, and the lcm of the coefficients'
        denominators.

        At each pivot the coefficient is forced, since earlier rows have been
        subtracted and later rows vanish there.  vec lies in the rational
        span of these rows plus Q^{d..n-1} exactly when the residual is zero
        before d.
        """
        d = self.n if d is None else d
        rest = list(vec)
        coeffs = []
        den = 1
        for row, p in zip(self.rows, self.pivots):
            if p >= d:
                break
            c = rest[p]
            if c:
                c = Fraction(c, row[p])
                den = lcm(den, c.denominator)
                for t in range(p, self.n):
                    if row[t]:
                        rest[t] -= c * row[t]
            coeffs.append(c)
        return coeffs, rest, den

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> list[Vector]:
        return [row[:] for row in self.rows]

    def canonical(self) -> tuple:
        """Hermite-reduced basis, unique for the lattice (maintained by add)."""
        return tuple(tuple(row) for row in self.rows)

    def coset_order(self, vec: Vector, d: int | None = None):
        """Least k >= 1 with k*vec in the lattice + Z^{d..n-1} (d = n by
        default); math.inf if none exists.

        A nonzero residual before d means vec is outside the rational span;
        otherwise the order is the lcm of the coefficient denominators and of
        the residual's from d on.
        """
        d = self.n if d is None else d
        _, rest, den = self.back_substitute(vec, d)
        if any(rest[:d]):
            return inf
        return lcm(den, *(x.denominator for x in rest[d:]))

    def section(self, d: int) -> tuple[int, list[int]]:
        """Structure of Z^{d..n-1} / (lattice & Z^{d..n-1}).

        The rows pivoting from d on are zero before it and span the
        intersection: a combination that uses a row pivoting earlier is
        nonzero at the first such pivot.  Returns (free_rank, invariant
        factors >= 2 in a divisibility chain).

        A unit pivot is the only nonzero entry of its column in the Hermite
        basis (entries above it are reduced into [0, 1), rows below are zero
        there), so its row and column split off a trivial factor: the
        quotient is that of the remaining columns by the other rows, which
        alone reach the Smith form, and the free rank counts those columns.
        """
        units = {p for row, p in zip(self.rows, self.pivots) if p >= d and row[p] == 1}
        keep = [j for j in range(d, self.n) if j not in units]
        core = [
            [row[j] for j in keep]
            for row, p in zip(self.rows, self.pivots)
            if p >= d and p not in units
        ]
        # the core, the tail without its unit pivots, is still in Hermite
        # form; start with the column pass
        rank, orders = la.snf_diagonal_orders(la.columns(core))
        return len(keep) - rank, la.invariant_factors_from_orders(orders)


def _xgcd(a: int, b: int):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


# The eliminations the package had before every echelon reading became a
# back-substitution along `Lattice.back_substitute`: Gauss-Jordan inversion
# over Q, and greedy reduction along the pivots (subtract a row only where
# its pivot divides).  Kept as independent oracles for the inverse that
# `intlinalg.scaled_inverse` computes fraction-free, `Lattice.coords_of`,
# membership and `solve_int`.


def frac_inverse(a: Matrix) -> Matrix:
    """Inverse of a nonsingular matrix over Q (Gauss-Jordan)."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def lattice_reduce(lat: Lattice, vec: Vector) -> Vector:
    """Residual of vec after greedy reduction; zero iff vec is in the lattice."""
    vec = list(vec)
    for row, p in zip(lat.basis(), lat.pivots):
        x = vec[p]
        if x and x % row[p] == 0:
            q = x // row[p]
            for t in range(p, lat.n):
                vec[t] -= q * row[t]
    return vec


def lattice_coords_of(lat: Lattice, vec: Vector):
    """Express vec over the echelon basis rows; None if not in the lattice."""
    vec = list(vec)
    coeffs = [0] * lat.rank
    for i, (row, p) in enumerate(zip(lat.basis(), lat.pivots)):
        x = vec[p]
        if x:
            if x % row[p]:
                return None
            q = x // row[p]
            coeffs[i] = q
            for t in range(p, lat.n):
                vec[t] -= q * row[t]
    if any(vec):
        return None
    return coeffs


def solve_int(a: Matrix, b: Vector):
    """Integer solution x of a @ x = b, or None.

    Echelon on the tagged rows column_j ++ e_j; b ++ 0 reduces to 0 ++ -x
    exactly when a @ x = b has an integer solution.
    """
    m = len(a)
    cols = la.columns(a)
    k = len(cols)
    lat = Lattice(m + k, [c + e for c, e in zip(cols, identity(k))])
    rest = lattice_reduce(lat, list(b) + [0] * k)
    if any(rest[:m]):
        return None
    return [-x for x in rest[m:]]


def naive_snf_diag(mat) -> list[int]:
    """Textbook row/column reduction, used only as an oracle on small inputs."""
    a = [row[:] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best, piv = abs(a[i][j]), (i, j)
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        for row in a:
            row[t], row[piv[1]] = row[piv[1]], row[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for c in range(t, n):
                        a[i][c] -= q * a[t][c]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for r in range(m):
                        a[r][j] -= q * a[r][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if dirty:
                continue
            fix = None
            for i in range(t + 1, m):
                if any(a[i][j] % a[t][t] for j in range(t + 1, n)):
                    fix = i
                    break
            if fix is None:
                break
            for c in range(t, n):
                a[t][c] += a[fix][c]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return [a[i][i] for i in range(min(m, n))]


# Lattice intersections by tagged Hermite forms and quotients of nested
# spans, kept as an independent oracle for the obstruction groups, which
# the package computes as coordinate sections.


def lattice_intersection(vecs_a, vecs_b, n: int) -> list[Vector]:
    """Generators of span_Z(vecs_a) & span_Z(vecs_b)."""
    va = [list(v) for v in vecs_a]
    vb = [list(v) for v in vecs_b]
    if not va or not vb:
        return []
    gens = []
    for rel in la.vector_relations(va + [[-x for x in v] for v in vb], n):
        vec = [0] * n
        for coeff, v in zip(rel[: len(va)], va):
            if coeff:
                for r in range(n):
                    vec[r] += coeff * v[r]
        if any(vec):
            gens.append(vec)
    return gens


def quotient_invariants(num_vecs, den_vecs, n: int) -> tuple[int, list[int]]:
    """Structure of span(num_vecs) / span(den_vecs), which must be contained.

    Returns (free_rank, invariant factors >= 2 in a divisibility chain).
    """
    lat = la.Lattice(n, num_vecs)
    basis = lat.basis()
    if not basis:
        for v in den_vecs:
            if any(v):
                raise ValueError("denominator lattice not contained in numerator")
        return 0, []
    coords = []
    for v in den_vecs:
        c = lattice_coords_of(lat, v)
        if c is None:
            raise ValueError("denominator lattice not contained in numerator")
        coords.append(c)
    if not coords:
        return len(basis), []
    rank, orders = la.snf_diagonal_orders(coords)
    torsion = la.invariant_factors_from_orders(orders)
    return len(basis) - rank, torsion


def full_tail_section(lat: Lattice, d: int) -> tuple[int, list[int]]:
    """`Lattice.section(d)` as it was before unit pivots were split off: the
    Smith reduction of every row pivoting from d on, unit pivots included."""
    tail = [row[d:] for row, p in zip(lat.basis(), lat.pivots) if p >= d]
    rank, orders = la.snf_diagonal_orders(la.columns(tail))
    return lat.n - d - rank, la.invariant_factors_from_orders(orders)


# Coset orders in a lattice, as the verdict read them before its orders
# left the relation lattices of wedge^3 (`ceresa.forced_order`): by
# back-substitution along a `Lattice`, and, as it was before that, over a
# fresh lattice per call, along every pivot.  Kept as the oracles for the
# verdict routes, each over its own echelonised relation set.


def coset_order(lat: Lattice, vec, d: int | None = None):
    """Least k >= 1 with k*vec in the lattice + Z^{d..n-1} (d = n by
    default); math.inf if none exists.

    A residual before d means vec is outside the rational span; otherwise
    the order is the lcm of the coefficient denominators and of the
    residual's from d on.
    """
    d = lat.n if d is None else d
    rest, den = lat.back_substitute(vec, d)
    if any(t < d for t in rest):
        return inf
    return lcm(den, *(x.denominator for x in rest.values()))


def class_order(vec: Vector, den_vecs, n: int):
    """Least k >= 1 with k*vec in span_Z(den_vecs); math.inf if none exists.
    den_vecs may also be a Lattice already spanned by them.

    Back-substitution along the pivots of the echelon basis: at each pivot
    the rational coordinate is forced, since earlier rows have been
    subtracted and later rows vanish there.  The order is the lcm of the
    coordinate denominators; a nonzero residual means vec is outside the
    rational span.
    """
    if not any(vec):
        return 1
    lat = den_vecs if isinstance(den_vecs, Lattice) else Lattice(n, den_vecs)
    rest = list(vec)
    order = 1
    for row, p in zip(lat.basis(), lat.pivots):
        if rest[p]:
            c = Fraction(rest[p], row[p])
            order = lcm(order, c.denominator)
            for t in range(p, n):
                if row[t]:
                    rest[t] -= c * row[t]
    return inf if any(rest) else order


# The relation sets of a graded-image engine (`exterior.GradedImages`) as
# coordinate lists in its `wedge` order, read from its cached monomial images
# and embedded H.


def image_generators(eng, level=None) -> list:
    """(delta-I) images of the monomials at Y-degree `level` (all if None)."""
    deg = eng.filt.y_degree
    return [
        [img.get(s, 0) for s in eng.wedge]
        for t, img in eng.monomial_images.items()
        if img and level in (None, deg(t))
    ]


def h_generators(eng) -> list:
    return [[h.get(s, 0) for s in eng.wedge] for h in eng._h_terms]


def f_units(eng, q: int) -> list:
    """Unit coordinates of the monomials spanning F_q."""
    deg = eng.filt.y_degree
    return [[int(s == t) for s in eng.wedge] for t in eng.wedge if deg(t) >= q]


def abar_relations(eng) -> list:
    """(delta-I) L + H."""
    return image_generators(eng) + h_generators(eng)


def bbar_relations(eng) -> list:
    """(delta-I) F_1 L + F_3 L + H."""
    return image_generators(eng, 1) + f_units(eng, 3) + h_generators(eng)


def abar_order(eng, coeffs: dict, q: int | None = None):
    """Order of the class {monomial: coeff} modulo the engine's
    (delta-I) L + H, and modulo F_q too when q is given."""
    stop = None if q is None else eng.start(q)
    return coset_order(eng.abar_lattice, eng.graded_coords(coeffs, len(eng.wedge)), stop)


def smith_frame_engine(ctx):
    """The graded-image engine of a context's Smith frame: delta_from_Q(D),
    with omega' = wedge^2(P) omega as its form.  Its whole-wedge^3 lattices
    are the route that the block readings of `ceresa.group_table` and
    `ceresa.forced_order` replace."""
    d = ctx.q_diagonal
    diag = [[x if i == j else 0 for j in range(len(d))] for i, x in enumerate(d)]
    return exterior.GradedImages(ctx.filt, delta_from_Q(diag), 3, omega=ctx.omega_frame)


def padded(q: Matrix, g: int) -> Matrix:
    """The g x g Q of cycle block q (h x h) and g - h zero weight slots."""
    h = len(q)
    return [row + [0] * (g - h) for row in q] + [[0] * g for _ in range(g - h)]


def dense_smith_frame(q: Matrix, d: list, u: Matrix) -> Matrix:
    """The dense 2g x 2g frame P = diag(V^-1, U) of a reduction (d, U, V)
    of Q, rows of V^-1 = D^-1 U Q on the cycle slots and unit rows on the
    weight slots: the oracle of `symplectic.smith_frame`'s sparse columns."""
    g = len(q)
    cols = la.columns(q)
    v_inv = [
        [sum(a * b for a, b in zip(row, col)) // x for col in cols] if x else unit
        for row, x, unit in zip(u, d, identity(g))
    ]
    return [row + [0] * g for row in v_inv] + [[0] * g + row for row in u]


def dense_columns(cols: list) -> Matrix:
    """The square matrix with the sparse columns `cols` [[(row, entry)]],
    such as a context's Smith frame, for the dense oracles."""
    out = la.zero_matrix(len(cols), len(cols))
    for j, col in enumerate(cols):
        for i, x in col:
            out[i][j] = x
    return out


def _engine_lattice(eng, name: str, vectors):
    """Lattice(len(eng.wedge), vectors()), echelonised on the first call for
    this engine and name and kept on the engine: the many classes an oracle
    test reads on one engine share it."""
    cache = vars(eng).setdefault("_oracle_lattices", {})
    if name not in cache:
        cache[name] = Lattice(len(eng.wedge), vectors())
    return cache[name]


def ceresa_order(ctx, v: WedgeVector):
    """Order of v modulo `bbar_relations`, after a membership test in the
    F2 + H domain lattice for classes not plainly integral inside F2."""
    coords = v.to_coords(ctx.wedge)
    if any(
        ctx.filt.y_degree(t) < 2 or Fraction(c).denominator != 1
        for t, c in v.coeffs.items()
    ):
        dom = _engine_lattice(ctx, "F2 + H", lambda: f_units(ctx, 2) + h_generators(ctx))
        if any(lattice_reduce(dom, coords)):
            raise PreconditionError(
                "class does not lie in F2 + H; its graded order is undefined"
            )
    rels = _engine_lattice(ctx, "Bbar relations", lambda: bbar_relations(ctx))
    return class_order(coords, rels, len(ctx.wedge))


def nonintegral_qualifying_coordinates(ctx, u: WedgeVector):
    """Coordinates a_i^a_j^b_k, all indices distinct, with non-integral
    coefficient; these certify nontriviality outright.  u must come from
    `u_class`, whose coordinates each have exactly one Y index, the last."""
    g = ctx.g
    out = []
    for t, c in sorted(u.coeffs.items()):
        i, j, k = t
        if (k - g) in (i, j):
            continue
        if Fraction(c).denominator != 1:
            out.append((t, c))
    return out


def bbar_order_by_denominators(ctx, u: WedgeVector):
    """The Bbar order of a class of pure Y-degree 2 at maximal rank, in
    Fractions: the lcm of the denominators of u's qualifying coordinates,
    of every s_il - c_l and of every (Q c)_j, with c_l = s_il for the
    first i != l (README, "Verdict")."""
    g = ctx.g
    s = [
        [(-1 if i < l else 1) * Fraction(u.coeffs.get((min(i, l), max(i, l), g + i), 0))
         for i in range(g) if i != l]
        for l in range(g)
    ]
    c = [row[0] for row in s]
    x = [Fraction(y) for t, y in u.coeffs.items() if t[2] - g not in t[:2]]
    x += [y - row[0] for row in s for y in row[1:]]
    qc = [sum(q * y for q, y in zip(row, c)) for row in ctx.q_matrix]
    return lcm(*(y.denominator for y in x + qc))


def ambient_order(ctx, v: WedgeVector):
    return class_order(v.to_coords(ctx.wedge), abar_relations(ctx), len(ctx.wedge))


def abar_least_multiple(ctx, v: WedgeVector):
    """Least k with k*v in F2 L + (delta-I)L + H."""
    rels = f_units(ctx, 2) + abar_relations(ctx)
    return class_order(v.to_coords(ctx.wedge), rels, len(ctx.wedge))


def embedded_H_generators(g: int) -> list[list]:
    """Coordinates of omega ^ e_j for the standard basis of H."""
    basis = wedge_basis(2 * g, 3)
    return [embed_H_in_L(unit, g).to_coords(basis) for unit in identity(2 * g)]


# The saturated image of delta - I, which the pipeline takes to be the unit
# vectors b_1..b_h, and the multitwist along the edges, which the pipeline
# writes down as [[I, 0], [Q, I]] from the Gram form.


def saturation_basis(a: Matrix) -> list[Vector]:
    """Basis of the saturation of the column span of a: the kernel of its
    left kernel."""
    m = len(a)
    left = la.vector_relations(a, len(a[0]) if m else 0)
    return la.kernel_basis(left) if left else identity(m)


def image_saturation(delta: Matrix) -> list[list[int]]:
    """Basis of the saturation of image(delta - I); requires (delta-I)^2 = 0."""
    n = len(delta)
    m = [[delta[i][j] - (i == j) for j in range(n)] for i in range(n)]
    if not is_zero_matrix(mat_mul(m, m)):
        raise PreconditionError("(delta - I)^2 != 0")
    return saturation_basis(m)


def y_units(g: int, h: int) -> list[list[int]]:
    """The unit vectors b_1..b_h of rank 2g, spanning Y, the saturated image
    of delta - I at cycle rank h."""
    return [[int(t == g + i) for t in range(2 * g)] for i in range(h)]


def multitwist_action(twists, g: int) -> Matrix:
    """Composite of commuting twists; requires pairwise isotropic classes."""
    classes = [list(l) for l, _ in twists]
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if intersection(classes[i], classes[j], g):
                raise PreconditionError("multitwist support must be pairwise isotropic")
    mat = identity(2 * g)
    for l, c in twists:
        mat = mat_mul(twist_action(l, c, g), mat)
    return mat


# The bounding-pair value of the Johnson homomorphism, kept as the oracle
# for the nonzero entries of the built-in k4 table.


def symplectic_basis_of(w_vectors, g: int):
    """Symplectic basis (a_1, b_1, ..., a_m, b_m) of the span of w_vectors.

    Integer symplectic Gram-Schmidt; requires the restricted pairing to be
    unimodular, otherwise the offending Gram determinant is reported.
    """
    vecs = [list(v) for v in w_vectors]
    if not vecs:
        return []
    gram = [[intersection(u, v, g) for v in vecs] for u in vecs]
    # skew-symmetric Gram: det = Pf^2 >= 0, the product of the invariant factors
    det = prod(la.invariant_factor_diagonal(gram))
    if abs(det) != 1:
        raise PreconditionError(
            f"restricted form is not unimodular: Gram determinant {det}"
        )
    basis = []
    while vecs:
        gram = [[intersection(u, v, g) for v in vecs] for u in vecs]
        i, j = _smallest_pairing(gram)
        d = gram[i][j]
        # unimodular skew forms always reduce to a +-1 pairing
        while abs(d) != 1:
            vecs = _improve_pairing(vecs, gram, i, j)
            gram = [[intersection(u, v, g) for v in vecs] for u in vecs]
            i, j = _smallest_pairing(gram)
            d = gram[i][j]
        a = vecs[i]
        b = vecs[j] if d == 1 else [-x for x in vecs[j]]
        rest = []
        for t, v in enumerate(vecs):
            if t in (i, j):
                continue
            ca = intersection(a, v, g)
            cb = intersection(b, v, g)
            rest.append([x + cb * ai - ca * bi for x, ai, bi in zip(v, a, b)])
        basis.extend([a, b])
        vecs = rest
    return basis


def _smallest_pairing(gram):
    best = None
    pick = None
    for i in range(len(gram)):
        for j in range(len(gram)):
            x = gram[i][j]
            if x and (best is None or abs(x) < best):
                best, pick = abs(x), (i, j)
    if pick is None:
        raise PreconditionError("restricted form is degenerate")
    return pick


def _improve_pairing(vecs, gram, i, j):
    d = gram[i][j]
    for t in range(len(vecs)):
        if t != j and gram[i][t] % d:
            q = gram[i][t] // d
            vecs[t] = [x - q * y for x, y in zip(vecs[t], vecs[j])]
            return vecs
        if t != i and gram[t][j] % d:
            q = gram[t][j] // d
            vecs[t] = [x - q * y for x, y in zip(vecs[t], vecs[i])]
            return vecs
    raise PreconditionError("pairing reduction stalled; form not unimodular")


@dataclass(frozen=True)
class BoundingPairDatum:
    """Subsurface homology image W (a unimodular symplectic sublattice)
    and the class of the bounding curve."""

    w_basis: tuple
    curve_class: tuple


def johnson_bpm(datum: BoundingPairDatum, g: int) -> WedgeVector:
    """Value on a bounding-pair map: omega_W wedged with the curve class."""
    sympl = symplectic_basis_of(datum.w_basis, g)
    n = 2 * g
    out = WedgeVector.zero(n, 3)
    for t in range(0, len(sympl), 2):
        out = out + vector_wedge([sympl[t], sympl[t + 1], datum.curve_class], n)
    return out


# The pivoting Smith form with all four transforms, kept as an independent
# oracle for the kernels, solutions, saturations and inverses that the
# package reads off tagged Hermite forms.


@dataclass
class SmithForm:
    """U @ A @ V == D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    diag: list         # full min(m, n) diagonal, zeros last
    rank: int
    U: Matrix
    Uinv: Matrix
    V: Matrix
    Vinv: Matrix


def smith_normal_form(a: Matrix) -> SmithForm:
    m = len(a)
    n = len(a[0]) if m else 0
    d = [row[:] for row in a]
    u, uinv = identity(m), identity(m)
    v, vinv = identity(n), identity(n)

    def row_axpy(i, j, q):  # row_i -= q * row_j
        di, dj = d[i], d[j]
        for t in range(n):
            if dj[t]:
                di[t] -= q * dj[t]
        ui, uj = u[i], u[j]
        for t in range(m):
            if uj[t]:
                ui[t] -= q * uj[t]
        for r in range(m):
            if uinv[r][i]:
                uinv[r][j] += q * uinv[r][i]

    def col_axpy(j, i, q):  # col_j -= q * col_i
        for r in range(m):
            if d[r][i]:
                d[r][j] -= q * d[r][i]
        for r in range(n):
            if v[r][i]:
                v[r][j] -= q * v[r][i]
        vi, vj = vinv[i], vinv[j]
        for t in range(n):
            if vj[t]:
                vi[t] += q * vj[t]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in range(m):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def col_swap(i, j):
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in range(m):
            uinv[r][i] = -uinv[r][i]

    mn = min(m, n)
    t = 0
    while t < mn:
        # locate a pivot of minimal absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best:
                        best, piv = ax, (i, j)
                        if ax == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])

        while True:
            # clear column t; a nonzero remainder becomes the smaller pivot
            dirty = False
            for i in range(t + 1, m):
                x = d[i][t]
                if x:
                    q = x // d[t][t]
                    if q:
                        row_axpy(i, t, q)
                    if d[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                x = d[t][j]
                if x:
                    q = x // d[t][t]
                    if q:
                        col_axpy(j, t, q)
                    if d[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            fix = None
            dt = d[t][t]
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, n):
                    if row[j] % dt:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            row_axpy(t, fix, -1)
        if d[t][t] < 0:
            row_negate(t)
        t += 1

    diag = [d[i][i] for i in range(mn)]
    return SmithForm(diag=diag, rank=t, U=u, Uinv=uinv, V=v, Vinv=vinv)


def in_span(vec: Vector, gens, n: int) -> bool:
    """Whether vec is an integer combination of the rank-n vectors gens.

    A row echelon by division with remainder alone: in each column the row
    with the smallest nonzero entry reduces the others until one is left.
    vec is reduced along each pivot as it appears, so every coefficient is
    forced.  No extended gcd, no Hermite reduction and no `Lattice`.
    """
    if any(Fraction(x).denominator != 1 for x in vec):
        return False
    vec = [int(x) for x in vec]
    rows = [list(gen) for gen in gens if any(gen)]
    for col in range(n):
        live = [row for row in rows if row[col]]
        while len(live) > 1:
            piv = min(live, key=lambda row: abs(row[col]))
            for row in live:
                if row is not piv:
                    q = row[col] // piv[col]
                    for t in range(col, n):
                        row[t] -= q * piv[t]
            live = [row for row in live if row[col]]
        if not live:
            if vec[col]:
                return False
            continue
        piv = live[0]
        rows = [row for row in rows if row is not piv]
        if vec[col] % piv[col]:
            return False
        q = vec[col] // piv[col]
        for t in range(col, n):
            vec[t] -= q * piv[t]
    return True


def k4_curve(c=(1, 1, 1, 1, 1, 1)) -> TropicalCurve:
    """K4 with lengths in the conventional parameter order c1..c6."""
    c1, c2, c3, c4, c5, c6 = c
    return tropical_curve(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0)],
        [
            ("t4", ("a", "d"), c4),
            ("t5", ("b", "d"), c5),
            ("t6", ("c", "d"), c6),
            ("u1", ("b", "c"), c1),
            ("u2", ("c", "a"), c2),
            ("u3", ("a", "b"), c3),
        ],
    )


def tl3_curve(c=(1,) * 9) -> TropicalCurve:
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = c
    return tropical_curve(
        [(f"w{i}", 0) for i in range(6)],
        [
            ("t5", ("w0", "w1"), c5),
            ("t6", ("w1", "w2"), c6),
            ("t7", ("w2", "w3"), c7),
            ("t8", ("w3", "w4"), c8),
            ("t9", ("w4", "w5"), c9),
            ("u1", ("w2", "w1"), c1),
            ("u2", ("w1", "w0"), c2),
            ("u3", ("w5", "w0"), c3),
            ("u4", ("w5", "w0"), c4),
        ],
    )


K4_PAIRS = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]


def k4_doubled(d: int, lengths) -> TropicalCurve:
    """K4 with its first d edges doubled by a parallel copy."""
    pairs = K4_PAIRS + K4_PAIRS[:d]
    return tropical_curve(
        [(v, 0) for v in "abcd"],
        [(f"e{i}", p, lengths[i]) for i, p in enumerate(pairs)],
    )


def banana_curve(n_edges: int, lengths=None) -> TropicalCurve:
    lengths = [1] * n_edges if lengths is None else lengths
    return tropical_curve(
        [("u", 0), ("v", 0)],
        [(f"e{i}", ("u", "v"), lengths[i]) for i in range(n_edges)],
    )


def loop_chain_curve(n_loops: int, lengths=None) -> TropicalCurve:
    """Loops at consecutive vertices of a path."""
    edges = []
    verts = [(f"v{i}", 0) for i in range(n_loops)]
    for i in range(n_loops):
        edges.append((f"l{i}", (f"v{i}", f"v{i}"), 1))
        if i:
            edges.append((f"p{i}", (f"v{i-1}", f"v{i}"), 1))
    curve = tropical_curve(verts, edges)
    if lengths is not None:
        ids = [e.id for e in curve.sorted_edges()]
        curve = curve.with_lengths(dict(zip(ids, map(Fraction, lengths))))
    return curve


def random_curve(rng: random.Random, max_edges=8, min_genus=2, weights=True):
    """Random connected multigraph with the requested genus floor."""
    while True:
        nv = rng.randint(1, 5)
        vids = [f"v{i}" for i in range(nv)]
        edges = []
        eid = 0
        for i in range(1, nv):
            j = rng.randrange(i)
            edges.append((f"e{eid:02d}", (vids[i], vids[j]), rng.randint(1, 20)))
            eid += 1
        extra = rng.randint(1, max(1, max_edges - len(edges)))
        for _ in range(extra):
            u, v = rng.choice(vids), rng.choice(vids)
            edges.append((f"e{eid:02d}", (u, v), rng.randint(1, 20)))
            eid += 1
        if len(edges) > max_edges:
            continue
        wchoices = [0, 0, 0, 1] if weights else [0]
        curve = tropical_curve(
            [(v, rng.choice(wchoices)) for v in vids], edges
        )
        if genus(curve) >= min_genus:
            return curve


POSDEF_DRAWS = 20_000  # 27x the most draws a test needs (743, at g = 7)


def random_posdef(g: int, rng: random.Random, spread=5):
    """Random symmetric positive definite integer matrix, entries in [-5, 5].

    Matrices are drawn until one has positive leading minors.  The share
    that do falls fast with g, so after POSDEF_DRAWS draws, which g = 8
    seldom needs and g >= 9 usually exceeds, a ValueError names g;
    `graph_gram` and `ladder_gram` give positive definite Q at any genus.
    """
    for _ in range(POSDEF_DRAWS):
        q = [[0] * g for _ in range(g)]
        for i in range(g):
            q[i][i] = rng.randint(1, spread)
            for j in range(i):
                q[i][j] = q[j][i] = rng.randint(-2, 2)
        if all(det_fraction([row[:t] for row in q[:t]]) > 0 for t in range(1, g + 1)):
            return q
    raise ValueError(
        f"random_posdef: no positive definite draw at g = {g} in {POSDEF_DRAWS} "
        "draws; use graph_gram or ladder_gram at this genus"
    )


def graph_gram(n_vertices: int, edges) -> Matrix:
    """Gram matrix of the fundamental cycles of a connected graph on the
    vertices 0..n_vertices-1, with edges (u, v, length) oriented u -> v.

    The tree is grown by depth-first search from vertex 0; each other edge
    closes one cycle, its signed edge vector, and Q_ij sums length * c_i * c_j
    over the edges.  Any cycle basis of a graph with positive lengths gives
    a positive definite Q, at every genus.
    """
    adj = [[] for _ in range(n_vertices)]
    for k, (u, v, _) in enumerate(edges):
        adj[u].append((k, v, 1))
        adj[v].append((k, u, -1))
    path = {0: {}}  # vertex -> signed tree edges from vertex 0
    stack, tree = [0], set()
    while stack:
        x = stack.pop()
        for k, y, s in adj[x]:
            if y not in path:
                path[y] = {**path[x], k: s}
                tree.add(k)
                stack.append(y)
    cycles = []
    for k, (u, v, _) in enumerate(edges):
        if k not in tree:
            cyc = dict(path[u])
            cyc[k] = cyc.get(k, 0) + 1
            for e, s in path[v].items():
                cyc[e] = cyc.get(e, 0) - s
            cycles.append(cyc)
    return [
        [sum(edges[e][2] * s * c.get(e, 0) for e, s in a.items()) for c in cycles]
        for a in cycles
    ]


def ladder_gram(n: int, lengths, twisted: bool = False) -> Matrix:
    """Gram matrix of the prism C_n x K_2, or of the Moebius ladder when
    `twisted`, with its 3n edge lengths: genus n + 1.  Rungs u_i v_i come
    first, then the rails u_i u_i+1 and v_i v_i+1, then the two closing
    edges, u_n-1 u_0 and v_n-1 v_0 or, twisted, u_n-1 v_0 and v_n-1 u_0."""
    ends = [(i, n + i) for i in range(n)]
    ends += [(i, i + 1) for i in range(n - 1)] + [(n + i, n + i + 1) for i in range(n - 1)]
    ends += [(n - 1, n), (2 * n - 1, 0)] if twisted else [(n - 1, 0), (2 * n - 1, n)]
    return graph_gram(2 * n, [(u, v, x) for (u, v), x in zip(ends, lengths, strict=True)])


def random_unimodular(n: int, rng: random.Random, shears=8):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            for t in range(n):
                m[i][t] += q * m[j][t]
    return m


def brute_spanning_trees(curve: TropicalCurve):
    """Independent enumeration over all edge subsets of size |V|-1."""
    nonloop = [e for e in curve.edges if e.ends[0] != e.ends[1]]
    need = len(curve.vertices) - 1
    found = []
    for combo in combinations(nonloop, need):
        parent = {v.id: v.id for v in curve.vertices}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        acyclic = True
        for e in combo:
            ru, rv = find(e.ends[0]), find(e.ends[1])
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic and len({find(v.id) for v in curve.vertices}) == 1:
            found.append(tuple(sorted(e.id for e in combo)))
    return sorted(found) if need else [()]


def separating_edges(curve: TropicalCurve) -> set[str]:
    """Bridges by brute force: the edges whose removal disconnects the graph."""
    out = set()
    for cut in curve.edges:
        adj = {v.id: set() for v in curve.vertices}
        for e in curve.edges:
            if e is not cut:
                adj[e.ends[0]].add(e.ends[1])
                adj[e.ends[1]].add(e.ends[0])
        seen, stack = {cut.ends[0]}, [cut.ends[0]]
        while stack:
            for w in adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        if len(seen) < len(adj):
            out.add(cut.id)
    return out


def table_to_json(table) -> dict:
    """The table file that johnson.table_from_json reads back."""
    return {
        "basis_ref": {
            "g": table.basis.g,
            "h": table.basis.h,
            "nontree_edges": list(table.basis.nontree_edges),
            "convention": table.basis.convention,
        },
        "provenance": table.provenance,
        "name": table.name,
        "entries": {
            eid: w.to_json() for eid, w in sorted(table.entries.items())
        },
    }


def _pairings(items, fixable, pairable):
    """Involutions of a list as dicts: each item is fixed, where fixable(x),
    or swapped with a later item y, where pairable(x, y)."""
    if not items:
        yield {}
        return
    x, rest = items[0], items[1:]
    if fixable(x):
        for sub in _pairings(rest, fixable, pairable):
            yield {x: x, **sub}
    for j, y in enumerate(rest):
        if pairable(x, y):
            for sub in _pairings(rest[:j] + rest[j + 1 :], fixable, pairable):
                yield {x: y, y: x, **sub}


def _unflipped_involutions(curve: TropicalCurve):
    """(vertex map, edge map, fixed loops) of every involutive automorphism
    with no loop reflected: every vertex involution fixing positive weights
    and every length- and incidence-preserving edge involution over it."""
    weight = {v.id: v.weight for v in curve.vertices}
    edges = curve.sorted_edges()
    for vmap in _pairings(
        sorted(weight), lambda v: True, lambda v, u: weight[v] == weight[u] == 0
    ):
        image = {e: {vmap[x] for x in e.ends} for e in edges}
        for pairing in _pairings(
            edges,
            lambda e: image[e] == set(e.ends),
            lambda e, f: e.length == f.length and set(f.ends) == image[e],
        ):
            emap = {e.id: f.id for e, f in pairing.items()}
            # a fixed loop has a fixed base vertex, so it may be reflected
            loops = [e.id for e, f in pairing.items() if e == f and e.ends[0] == e.ends[1]]
            yield vmap, emap, loops


def involutions(curve: TropicalCurve) -> list[Involution]:
    """Every involutive automorphism (identity included), exhaustively and
    with no pruning: each of `_unflipped_involutions` with every subset of
    its fixed loops reflected.  Shares no code with the package's
    hyperelliptic search.
    """
    return [
        Involution(vmap, emap, frozenset(flips))
        for vmap, emap, loops in _unflipped_involutions(curve)
        for r in range(len(loops) + 1)
        for flips in combinations(loops, r)
    ]


def is_identity(inv: Involution) -> bool:
    return (
        all(k == v for k, v in inv.vertex_map.items())
        and all(k == v for k, v in inv.edge_map.items())
        and not inv.flipped_loops
    )


def quotient_genus(curve: TropicalCurve, inv: Involution) -> int:
    """First Betti number of the quotient graph, counted from its cells: one
    vertex per vertex orbit and one edge per edge orbit, plus a tip vertex
    for each fixed edge folded in half (ends swapped, or a reflected loop).
    The quotient of a connected graph is connected."""
    vm, em = inv.vertex_map, inv.edge_map
    vertices = {frozenset((v, vm[v])) for v in vm}
    edges = {frozenset((e, em[e])) for e in em}
    folded = sum(
        em[e.id] == e.id
        and (e.id in inv.flipped_loops if e.ends[0] == e.ends[1] else vm[e.ends[0]] != e.ends[0])
        for e in curve.edges
    )
    return len(edges) - len(vertices) - folded + 1


def brute_hyperelliptic_involutions(curve: TropicalCurve):
    """Exhaustive oracle: every involution whose quotient graph is a tree.
    Reflecting a fixed loop folds it, which lowers the quotient genus by
    exactly 1, so of each unflipped involution only the flip sets as large
    as its quotient genus are tried."""
    out = []
    for vmap, emap, loops in _unflipped_involutions(curve):
        size = quotient_genus(curve, Involution(vmap, emap, frozenset()))
        for flips in combinations(loops, size):
            inv = Involution(vmap, emap, frozenset(flips))
            if quotient_genus(curve, inv) == 0:
                out.append(inv)
    return out


# The wedge kernels as they were before the sparse bisect product: every
# term goes through `sort_with_sign` and a fresh `WedgeVector`.  Kept as
# independent oracles for `vector_wedge`, `apply_matrix`, the (delta-I)
# images, the graded inverse and the `WedgeVector` key canonicalisation.


def sort_with_sign(idx):
    """Sorted tuple and permutation sign; (None, 0) on a repeated index."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


def wedge_vector(w: WedgeVector, vec) -> WedgeVector:
    """Right-wedge with a rank-n vector, raising the degree by one."""
    out: dict = {}
    for t, c in w.coeffs.items():
        for i, x in enumerate(vec):
            if x and i not in t:
                tup, sign = sort_with_sign(t + (i,))
                out[tup] = out.get(tup, 0) + sign * c * x
    # the keys are sorted already, so the constructor's canonicalisation is skipped
    return WedgeVector._from_sorted(w.n, w.k + 1, {t: c for t, c in out.items() if c})


def vector_wedge(vectors, n: int) -> WedgeVector:
    """Wedge of rank-n vectors, in the given order."""
    out = WedgeVector(n, 0, {(): 1})
    for v in vectors:
        out = wedge_vector(out, v)
    return out


def apply_matrix(mat, w: WedgeVector) -> WedgeVector:
    """Image of w under the action induced on wedge^k by mat."""
    cols = la.columns(mat)
    out = WedgeVector.zero(w.n, w.k)
    for t, c in w.coeffs.items():
        out = out + vector_wedge([cols[i] for i in t], w.n).scale(c)
    return out


def _delta_minus_I_images(delta, filt: Filtration, monos, shear=None):
    """(delta - I)-images of monomials, with filtration check.

    With shear = (S, S^-1), delta acts in the coordinates S^-1 x: each
    monomial is carried there by wedge^k S^-1, and its image is carried
    back by wedge^k S before the check.
    """
    n = filt.n
    images = []
    for t in monos:
        mono = WedgeVector.monomial(n, t)
        if shear is None:
            img = apply_matrix(delta, mono) - mono
        else:
            carried = apply_matrix(shear[1], mono)
            img = apply_matrix(shear[0], apply_matrix(delta, carried) - carried)
        qmin = filt.y_degree(t)
        for s in img.coeffs:
            if filt.y_degree(s) <= qmin:
                raise FiltrationError(
                    f"(delta-I) image of {t} has component at level {filt.y_degree(s)}"
                )
        images.append(img)
    return images


def delta_inverse_gr2(q_matrix, v: WedgeVector) -> WedgeVector:
    """Rational preimage under gr_1 -> gr_2 of a two-Y-factor wedge vector.

    Works in the standard basis (a_1..a_g, b_1..b_g) with Y the full b-span;
    requires Q nonsingular.  For a monomial b_p ^ b_r ^ a_m the preimage is
    (1/2) (Q^-1 b_p ^ b_r ^ a_m + b_p ^ Q^-1 b_r ^ a_m
           - Q^-1 b_p ^ Q^-1 b_r ^ Q a_m).
    """
    g = len(q_matrix)
    n = 2 * g
    if v.n != n or v.k != 3:
        raise PreconditionError("expected a degree-3 wedge vector on rank 2g")
    try:
        qinv = frac_inverse(q_matrix)
    except ValueError as exc:
        raise PreconditionError(
            "Q is singular; use the membership test for deficient rank"
        ) from exc

    def x_vec(col):  # Q^-1 applied to b_col, an X-side vector
        return [qinv[s][col] for s in range(g)] + [Fraction(0)] * g

    def qa_vec(col):  # Q applied to a_col, a Y-side vector
        return [Fraction(0)] * g + [Fraction(q_matrix[s][col]) for s in range(g)]

    def b_unit(col):
        return [Fraction(int(t == g + col)) for t in range(n)]

    def a_unit(col):
        return [Fraction(int(t == col)) for t in range(n)]

    out = WedgeVector.zero(n, 3)
    for idx, c in v.coeffs.items():
        ys = [i - g for i in idx if i >= g]
        xs = [i for i in idx if i < g]
        if len(ys) != 2 or len(xs) != 1:
            raise PreconditionError(
                f"coordinate {idx} does not have exactly two Y factors"
            )
        m = xs[0]
        p, r = ys
        # a_m ^ b_p ^ b_r == b_p ^ b_r ^ a_m (cyclic), so signs match
        term = (
            vector_wedge([x_vec(p), b_unit(r), a_unit(m)], n)
            + vector_wedge([b_unit(p), x_vec(r), a_unit(m)], n)
            - vector_wedge([x_vec(p), x_vec(r), qa_vec(m)], n)
        )
        out = out + term.scale(Fraction(c, 2))
    for idx in out.coeffs:
        if sum(1 for i in idx if i >= g) != 1:
            raise FiltrationError("preimage left gr_1")
    return out


# The per-monomial forms of the products that the package builds on shared
# prefixes: every wedge is expanded from its first factor, once per monomial,
# with the package's own sign rule.


def monomial_images_by_monomial(delta, wedge) -> dict:
    """Monomial -> sparse (delta-I) image {tuple: coeff}, each image the
    full wedge of its monomial's columns."""
    cols = exterior._sparse_columns(delta)
    out = {}
    for t in wedge:
        img = exterior._wedge_terms(cols[i] for i in t)
        c = img.get(t, 0) - 1
        if c:
            img[t] = c
        else:
            img.pop(t, None)
        out[t] = img
    return out


def delta_inverse_gr2_by_monomial(q_matrix, v: WedgeVector) -> WedgeVector:
    """`exterior.delta_inverse_gr2` with its three integer wedges run once
    per monomial b_p ^ b_r ^ a_m of v, not once per pair (p, r)."""
    g = len(q_matrix)
    n = 2 * g
    if v.n != n or v.k != 3:
        raise PreconditionError("expected a degree-3 wedge vector on rank 2g")
    try:
        qinv = frac_inverse(q_matrix)
    except ValueError as exc:
        raise PreconditionError(
            "Q is singular; use the membership test for deficient rank"
        ) from exc
    den = lcm(*(x.denominator for row in qinv for x in row))
    adj = [[int(x * den) for x in row] for row in qinv]
    vden = lcm(*(Fraction(c).denominator for c in v.coeffs.values()))
    qinv_b = exterior._sparse_columns(adj)  # den * Q^-1 b_j on the a side
    # Q a_j on the b side
    qa = [[(g + u, q) for u, q in col] for col in exterior._sparse_columns(q_matrix)]
    acc: dict = {}
    for idx, c in v.coeffs.items():
        ys = [i - g for i in idx if i >= g]
        xs = [i for i in idx if i < g]
        if len(ys) != 2 or len(xs) != 1:
            raise PreconditionError(
                f"coordinate {idx} does not have exactly two Y factors"
            )
        m = xs[0]
        p, r = ys
        # a_m ^ b_p ^ b_r == b_p ^ b_r ^ a_m (cyclic)
        cn = int(c * vden)
        bp, br, am = [(g + p, 1)], [(g + r, 1)], [(m, 1)]
        for factors, weight in (
            ((qinv_b[p], br, am), cn * den),
            ((bp, qinv_b[r], am), cn * den),
            ((qinv_b[p], qinv_b[r], qa[m]), -cn),
        ):
            for key, d in exterior._wedge_terms(factors).items():
                acc[key] = acc.get(key, 0) + weight * d
    scale = 2 * vden * den * den
    out = WedgeVector._from_sorted(
        n, 3, {t: Fraction(x, scale) for t, x in acc.items() if x}
    )
    for idx in out.coeffs:
        if sum(1 for i in idx if i >= g) != 1:
            raise FiltrationError("preimage left gr_1")
    return out


def zharkov_w_and_generators(ctx, v: WedgeVector) -> tuple:
    """(w, relation generators) of `ceresa.zharkov_test`, with one full
    wedge per monomial of v and per gr_1 monomial a_i ^ a_j ^ b_k."""
    g, n = ctx.g, 2 * ctx.g
    units = la.identity(n)
    qa = [[0] * g + col for col in la.columns(ctx.q_matrix)]  # Q a_j on the b side
    w = WedgeVector.zero(n, 3)
    for (m, p, r), c in v.coeffs.items():
        w = w + exterior.vector_wedge([qa[m], units[p], units[r]], n).scale(c)
    gens = []
    for i, j, k in ctx.filt.monomials(3, 1, exact=True):
        gen = exterior.vector_wedge([qa[i], qa[j], units[k]], n).scale(2)
        if not gen.is_zero():
            gens.append(gen)
    return w, gens


# Invariant factors by prime factorization, kept as an independent oracle
# for the package's gcd/lcm sweep.  Trial division makes it unusable on
# orders with large prime factors.


def _factorize(n: int) -> dict[int, int]:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors_from_orders(orders) -> list[int]:
    """Rewrite a product of cyclic groups Z/n_1 x ... as invariant factors.

    Output is the ascending divisibility chain with unit factors dropped.
    """
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        if n < 1:
            raise ValueError("cyclic orders must be positive")
        for p, e in _factorize(n).items():
            by_prime.setdefault(p, []).append(e)
    depth = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for slot in range(depth):
        f = 1
        for p, exps in by_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if slot < len(exps_sorted):
                f *= p ** exps_sorted[slot]
        factors.append(f)
    return sorted(f for f in factors if f > 1)


# Counting the Smith reductions of Q: a `PipelineContext` reduces its cycle
# block Q_h at most once, where D, the frame or the printed invariant
# factors are read; u reads the fraction-free inverse of Q instead.


def record_q_reductions(monkeypatch) -> tuple[list, list]:
    """(reduced, contexts): from now on, every matrix that
    `intlinalg.smith_diagonal` reduces and every `PipelineContext` built."""
    reduced, contexts = [], []
    smith_diagonal, init = la.smith_diagonal, PipelineContext.__init__

    def counting(a):
        reduced.append(a)
        return smith_diagonal(a)

    def recording(self, *args, **kwargs):
        contexts.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(la, "smith_diagonal", counting)
    monkeypatch.setattr(PipelineContext, "__init__", recording)
    return reduced, contexts


def count_ceresa_lattices(monkeypatch) -> list:
    """From now on, (function, columns) of every `Lattice` that code in
    `tropceresa.ceresa` builds itself; intlinalg's inner Hermite steps are
    not counted."""
    built = []

    class Counted(la.Lattice):
        def __init__(self, n, vectors=()):
            caller = sys._getframe(1)
            if caller.f_globals["__name__"] == "tropceresa.ceresa":
                built.append((caller.f_code.co_name, n))
            super().__init__(n, vectors)

    monkeypatch.setattr(la, "Lattice", Counted)
    return built


def assert_q_reductions_per_context(reduced, contexts, each: int) -> None:
    """Each context reduced its Q_h `each` times, 0 or 1, and no other Q_h
    was reduced.  The only other matrices reduced, the 3x3 blocks of the
    maximal-rank group tables, have a zero diagonal entry, which no Gram
    block has."""
    blocks = [[row[: c.basis.h] for row in c.q_matrix[: c.basis.h]] for c in contexts]
    assert contexts and all(("smith" in vars(c)) == bool(each) for c in contexts)
    assert sum(a in blocks for a in reduced) == each * len(contexts)


# ---------------------------------------------------------------------------
# the verdict, curve by curve


def verdict_by_curve(curve: TropicalCurve, table) -> tuple:
    """(context, v, hyperelliptic, verdict) of one curve, composed the way
    the pipeline did before `ceresa.graph_plan`: the context of the curve
    itself, its basis by `homology_basis` and Q by `polarization_Q`, v by
    `v_by_entries`, and the length-aware involution search on its stable
    model.  The oracle of the plan."""
    scaled, scale = scaled_to_integer(curve)
    basis = homology_basis(scaled)
    ctx = PipelineContext(scaled, scale, basis, polarization_Q(scaled, basis))
    v = v_by_entries(ctx, table)
    hyper = is_hyperelliptic(stabilize(ctx.curve))
    certified = table.provenance == "builtin"
    return ctx, v, hyper, nontriviality_verdict(ctx, v, hyper, certified)


def v_by_entries(ctx, table) -> WedgeVector:
    """The class v = sum_e l_e J_e as a sum of scaled `WedgeVector`s, edge
    by edge in id order: the oracle of `ceresa.v_class`, whose terms it
    leaves in the same order."""
    total = WedgeVector.zero(2 * ctx.g, 3)
    for e in ctx.curve.sorted_edges():
        total = total + table.entry(e.id).scale(e.length.numerator)
    return total


def block_relations(pattern: tuple, slots: tuple, q: int | None) -> tuple:
    """The relations of one block of wedge^3 in the Smith frame, with index
    multiset `pattern` over local slots (d_p, cycle slot): its monomials,
    a's then b's, and by monomial number the (delta'-I) image of each, the
    wedge (`vector_wedge`) of the images a_p + d_p b_p and b_p of its
    factors less the monomial, and the unit rows on F_q."""
    m = len(slots)
    units = identity(2 * m)
    cols = [[x + dp * y for x, y in zip(units[p], units[m + p])] for p, (dp, _) in enumerate(slots)]
    cols += units[m:]
    monos = [t for t in combinations(range(2 * m), 3) if sorted(i % m for i in t) == [*pattern]]
    number = {t: c for c, t in enumerate(monos)}
    rels = []
    for t in monos:
        img = dict(vector_wedge([cols[i] for i in t], 2 * m).coeffs)
        img[t] -= 1
        rels.append({number[s]: e for s, e in img.items() if e})
        if q is not None and sum(i >= m and slots[i - m][1] for i in t) >= q:
            rels.append({number[t]: 1})
    return monos, rels


def lattice_block_order(pattern: tuple, slots: tuple, q: int | None, tag: dict, scale: int) -> int:
    """Least k > 0 with k tag in `scale` times the relations of one block
    (`block_relations`), or 0 if there is none, read off one `Lattice` on
    the block's monomials and a tag column for k: the per-block reading
    that `ceresa.forced_order` made before its closed forms.  `tag` maps
    local monomials to integers."""
    monos, rels = block_relations(pattern, slots, q)
    pos = {t: c for c, t in enumerate(monos)}
    rows = [{c: scale * e for c, e in rel.items()} for rel in rels]
    n = len(pos)
    lat = Lattice(n + 1, rows + [{pos[t]: c for t, c in tag.items()} | {n: 1}])
    return next((row[n] for row, p in zip(lat.rows, lat.pivots) if p == n), 0)


def coupled_lattice_order(d: list, scale: int, parts: list, keys: set) -> int:
    """Least k > 0 of the blocks `keys` that the free y'_l couple at h = g,
    q = None, or 0, for the Smith diagonal d: the class part parts[0] and
    each y'_l column parts[1:], tagged by k and y'_l, echelonised with
    `scale` times the blocks' relations (`block_relations`) in one `Lattice`
    over their monomials, the tags last.  The row that pivots at k holds the
    least k.  The reading of the coupled blocks before they were read as
    congruences (`ceresa._blocks_order`)."""
    g = len(d)
    pos, rows = {}, []
    for key in keys:
        idx = sorted(set(key))
        monos, rels = block_relations(tuple(map(idx.index, key)), tuple((d[i], True) for i in idx), None)
        base = len(pos)
        for c, t in enumerate(monos):
            pos[tuple(idx[i % len(idx)] + g * (i >= len(idx)) for i in t)] = base + c
        rows += [{base + c: scale * e for c, e in rel.items()} for rel in rels]
    n = len(pos)
    tags = [{pos[t]: c for key in keys for t, c in part.get(key, {}).items()} for part in parts]
    lat = Lattice(n + len(parts), rows + [tag | {n + j: 1} for j, tag in enumerate(tags)])
    return next((row[n] for row, p in zip(lat.rows, lat.pivots) if p == n), 0)
