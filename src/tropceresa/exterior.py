"""Exterior powers of H with the Y-filtration and its finite quotients.

Wedge vectors are sparse maps from sorted index tuples to exact coefficients.
Products of vectors are built one factor at a time (`_wedge_step`, the one
sign rule): each new index is inserted into the sorted tuple by bisection,
with the sign of the larger indices it passes, so no term is ever re-sorted.
A product that many terms share up to its last factor is built once and
extended: the (delta-I) images share the wedge of their first k-1 columns.
The graded preimage u (here) and the Zharkov w and relations
(`ceresa.zharkov_test`) need no general product: their coordinates are
2x2 minors of Q, Q^-1 and the class, summed over each pair of Y indices,
keyed by sorted tuples or extended by one wedge step.
For a unipotent delta with (delta-I)^2 = 0 and Y the saturation of its image,
the descending filtration F_q = (wedge^q Y) ^ (wedge^{k-q} H) is stable under
delta - I, and the associated finite groups (cokernels of graded maps, and
their versions modulo the embedded copy of H) carry the obstruction theory.
Y is always spanned by signed unit vectors (b_1..b_h in the pipeline), so
F_q is spanned by the monomials with at least q indices in Y.

Quotients modulo H are always realized by adjoining the embedded-H generators
to relation lattices; no coset representatives are ever chosen.  The
module-level groups take any unipotent delta.  The pipeline builds no
such lattice: it reads the groups (`ceresa.group_table`) and the orders
(`ceresa.forced_order`) off the diagonal form of its delta block by block.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import lcm

from . import intlinalg as la
from .errors import FiltrationError, PreconditionError

MAX_RANK = 16


# ---------------------------------------------------------------------------
# abelian group descriptors


@dataclass(frozen=True)
class AbelianGroupDescriptor:
    """Finitely generated abelian group: free rank and invariant factors."""

    free_rank: int
    torsion: tuple[int, ...]  # ascending divisibility chain, entries >= 2

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion is not a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion entries must be >= 2")

    @property
    def order(self):
        return la.group_order(self.free_rank, self.torsion)

    @classmethod
    def from_cyclic_orders(cls, orders):
        return cls(0, la.invariant_factors_from_orders(orders))

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " x ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# wedge vectors


def _sparse(vec, n: int | None = None) -> list:
    """(index, coefficient) pairs of the nonzero entries of a vector; with n
    given, every such index must be below n."""
    out = [(i, x) for i, x in enumerate(vec) if x]
    if n is not None and out and out[-1][0] >= n:
        raise ValueError(f"bad index {out[-1][0]} for rank {n}")
    return out


def _wedge_step(terms: dict, vec) -> dict:
    """Right-wedge of sorted-tuple terms with a sparse vector [(i, x), ...].

    Index i lands at its bisection point in t; moving it there from the end
    passes the len(t) - pos larger indices, which gives the sign.  Repeated
    indices vanish, and so do cancelled coefficients.
    """
    out: dict = {}
    get = out.get
    for t, c in terms.items():
        size = len(t)
        for i, x in vec:
            pos = bisect_left(t, i)
            if pos < size and t[pos] == i:
                continue
            key = t[:pos] + (i,) + t[pos:]
            out[key] = get(key, 0) + (c * x if (size - pos) % 2 == 0 else -c * x)
    return {t: c for t, c in out.items() if c}


def _wedge_terms(sparse_vectors) -> dict:
    """Terms of the wedge of sparse vectors, in the given order: the first
    vector's nonzero entries, then one `_wedge_step` per further vector;
    {(): 1} for none.  A sparse vector names each index at most once."""
    vectors = iter(sparse_vectors)
    first = next(vectors, None)
    if first is None:
        return {(): 1}
    terms = {(i,): x for i, x in first if x}
    for vec in vectors:
        terms = _wedge_step(terms, vec)
    return terms


def check_wedge_caps(n: int) -> None:
    """Refuse wedge powers of rank n past the rank cap, which bounds every basis."""
    if n > MAX_RANK:
        raise PreconditionError(f"wedge machinery capped at rank {MAX_RANK}")


def wedge_basis(n: int, k: int):
    """Sorted k-index tuples in lexicographic order."""
    if k > n:
        raise PreconditionError(f"wedge degree {k} exceeds rank {n}")
    check_wedge_caps(n)
    return list(combinations(range(n), k))


@dataclass
class WedgeVector:
    """Sparse element of wedge^k Z^n (or Q^n): sorted tuples -> coefficients."""

    n: int
    k: int
    coeffs: dict

    def __post_init__(self):
        """Key each coefficient by its sorted index tuple, with the sign of
        the sorting permutation: (-1)^(number of inversions).  Every key
        must name k indices in range(n); a repeated index then gives no
        term."""
        clean = {}
        for idx, c in self.coeffs.items():
            if len(idx) != self.k or any(not 0 <= i < self.n for i in idx):
                raise ValueError(f"bad index tuple {idx}")
            if c == 0 or len(set(idx)) < self.k:
                continue
            key = tuple(sorted(idx))
            inversions = sum(a > b for a, b in combinations(idx, 2))
            clean[key] = clean.get(key, 0) + (-c if inversions % 2 else c)
        self.coeffs = {t: c for t, c in clean.items() if c != 0}

    @classmethod
    def _from_sorted(cls, n: int, k: int, coeffs: dict) -> "WedgeVector":
        """Wrap coefficients already keyed by sorted k-tuples, none zero."""
        w = cls.__new__(cls)
        w.n, w.k, w.coeffs = n, k, coeffs
        return w

    # -- algebra ------------------------------------------------------------

    @classmethod
    def zero(cls, n: int, k: int) -> "WedgeVector":
        return cls(n, k, {})

    @classmethod
    def monomial(cls, n: int, idx, coeff=1) -> "WedgeVector":
        return cls(n, len(tuple(idx)), {tuple(idx): coeff})

    def __add__(self, other: "WedgeVector") -> "WedgeVector":
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, 0) + c
        return WedgeVector._from_sorted(
            self.n, self.k, {t: c for t, c in out.items() if c}
        )

    def __sub__(self, other: "WedgeVector") -> "WedgeVector":
        return self + other.scale(-1)

    def scale(self, s) -> "WedgeVector":
        return WedgeVector._from_sorted(
            self.n, self.k, {t: s * c for t, c in self.coeffs.items()} if s else {}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def wedge_vector(self, vec) -> "WedgeVector":
        """Right-wedge with a rank-n vector, raising the degree by one."""
        return WedgeVector._from_sorted(
            self.n, self.k + 1, _wedge_step(self.coeffs, _sparse(vec, self.n))
        )

    # -- coordinates ----------------------------------------------------------

    def to_coords(self, basis=None):
        basis = wedge_basis(self.n, self.k) if basis is None else basis
        return [self.coeffs.get(t, 0) for t in basis]

    def to_json(self) -> dict:
        return {_json_key(t): str(c) for t, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, n: int, k: int, data) -> "WedgeVector":
        coeffs = {}
        for key, val in data.items():
            idx = tuple(int(p) - 1 for p in key.strip("() ").split(","))
            frac = Fraction(str(val))
            coeffs[idx] = frac if frac.denominator != 1 else frac.numerator
        return cls(n, k, coeffs)


@cache
def _json_key(t: tuple) -> str:
    """The JSON key "(i,j,k)" of a sorted index tuple, 1-based; one string
    per tuple, of which a rank-n wedge^3 has at most C(n, 3)."""
    return "(" + ",".join(str(i + 1) for i in t) + ")"


def vector_wedge(vectors, n: int) -> WedgeVector:
    """Wedge of rank-n vectors, in the given order."""
    vectors = list(vectors)
    return WedgeVector._from_sorted(
        n, len(vectors), _wedge_terms(_sparse(v, n) for v in vectors)
    )


def _sparse_columns(mat) -> list:
    """Sparse columns of mat; the image of a monomial t under mat is the
    wedge of the columns it picks."""
    return [_sparse(col) for col in la.columns(mat)]


def apply_matrix(mat, w: WedgeVector) -> WedgeVector:
    """Image of w under the action induced on wedge^k by mat
    (`apply_columns` on its sparse columns)."""
    return apply_columns(_sparse_columns(mat), w)


def apply_columns(cols: list, w: WedgeVector) -> WedgeVector:
    """Image of w under the action induced on wedge^k by the matrix with
    sparse columns `cols` [[(row, entry), ...], ...], such as the Smith
    frame (`symplectic.smith_frame`).  Terms that share their first k-1
    indices are wedged onto one sum of last columns."""
    lasts: dict = {}
    for t, c in w.coeffs.items():
        acc = lasts.setdefault(t[:-1], {})
        for i, x in cols[t[-1]]:
            acc[i] = acc.get(i, 0) + c * x
    out: dict = {}
    for s, acc in lasts.items():
        for key, d in _wedge_terms([*(cols[i] for i in s), acc.items()]).items():
            out[key] = out.get(key, 0) + d
    return WedgeVector._from_sorted(w.n, w.k, {s: c for s, c in out.items() if c})


# ---------------------------------------------------------------------------
# the symplectic form and the embedding of H


def omega(g: int) -> WedgeVector:
    """Sum of a_i ^ b_i; independent of the symplectic basis choice."""
    return WedgeVector._from_sorted(2 * g, 2, {(i, g + i): 1 for i in range(g)})


def embed_H_in_L(hvec, g: int) -> WedgeVector:
    """h -> omega ^ h, the standard copy of H inside wedge^3 H (g >= 2)."""
    if g < 2:
        raise PreconditionError("embedding needs g >= 2")
    return omega(g).wedge_vector(hvec)


# ---------------------------------------------------------------------------
# the Y-filtration


@dataclass
class Filtration:
    """Ambient rank n with Y spanned by the unit vectors at `y_positions`.

    Y is a coordinate sublattice, hence saturated, and F_q of wedge^k is
    spanned by the monomials with at least q indices in `y_positions`.
    """

    n: int
    y_positions: frozenset

    @classmethod
    def from_Y(cls, y_vectors, n: int) -> "Filtration":
        """Y from distinct signed unit vectors of length n; anything else is
        refused, since it would not span a coordinate sublattice."""
        positions = set()
        for v in y_vectors:
            support = [i for i, x in enumerate(v) if x]
            if len(v) != n or len(support) != 1 or abs(v[support[0]]) != 1:
                raise PreconditionError(
                    f"Y vector {list(v)} is not a signed unit vector of length {n}"
                )
            if support[0] in positions:
                raise PreconditionError(f"Y repeats position {support[0]}")
            positions.add(support[0])
        return cls(n, frozenset(positions))

    def y_degree(self, idx) -> int:
        return sum(1 for i in idx if i in self.y_positions)

    def monomials(self, k: int, q: int, exact: bool = False):
        return [
            t
            for t in wedge_basis(self.n, k)
            if (self.y_degree(t) == q if exact else self.y_degree(t) >= q)
        ]


# ---------------------------------------------------------------------------
# the finite groups attached to a unipotent delta


@dataclass
class GradedImages:
    """delta - I on wedge^k H, graded by the coordinate Y-filtration: the
    one source of (delta-I) images, of the embedded H and of the relation
    lattices behind A, B, Abar and Bbar.

    `delta` is used as given, and `wedge`, the sorted-tuple basis of
    wedge^k, is derived from n = `filt.n` and k.  H embeds as `omega` ^ H,
    with `omega` the standard sum of a_i ^ b_i unless given: a change of
    basis of H carries the form along with delta, as the Smith frame of a
    pipeline context does (`ceresa.PipelineContext.omega_frame`).  Images
    and H are computed on first use and cached.

    Lattices order coordinates by Y-degree, then by wedge index, so every
    F_q is the suffix from `start(q)`, a layout no other module reads.  One
    cached map from monomial to position gives the sparse coordinates
    {position: coeff} (`graded_coords`) in which images, H terms and
    classes enter the lattices, so none of them is ever densified; the
    starts are cached with it.  Each relation set, H included, is
    echelonised in one pass over its generators and gives its group as a
    coordinate section (`Lattice.section`).  The module-level groups below
    read this engine; the pipeline reads none (`ceresa.group_table` and
    `ceresa.forced_order` read D).
    """

    filt: Filtration
    delta: list
    k: int
    omega: WedgeVector | None = None

    @classmethod
    def build(cls, delta, y_vectors, k: int):
        """Engine for (delta, Y, k), with Y given by signed unit vectors and
        the standard omega."""
        return cls(Filtration.from_Y(y_vectors, len(delta)), delta, k)

    @cached_property
    def wedge(self) -> list:
        """The sorted-tuple basis of wedge^k, on the filtration's rank."""
        return wedge_basis(self.filt.n, self.k)

    @cached_property
    def _degrees(self) -> dict:
        """Monomial -> its Y-degree, for every wedge^k monomial."""
        return {t: self.filt.y_degree(t) for t in self.wedge}

    @cached_property
    def monomial_images(self) -> dict:
        """Monomial -> sparse (delta-I) image {tuple: coeff}, for every
        wedge^k monomial.  The wedge of the first k-1 columns is built once
        per prefix and extended by each last column.  The filtration check
        runs once, here: every term of an image sits above its monomial's
        level."""
        cols = _sparse_columns(self.delta)
        deg = self._degrees
        heads: dict = {}  # t[:-1] -> wedge of its columns
        out = {}
        for t in self.wedge:
            key = t[:-1]
            if key not in heads:
                heads[key] = _wedge_terms(cols[i] for i in key)
            img = _wedge_step(heads[key], cols[t[-1]])
            c = img.get(t, 0) - 1
            if c:
                img[t] = c
            else:
                img.pop(t, None)
            qmin = deg[t]
            for s in img:
                if deg[s] <= qmin:
                    raise FiltrationError(
                        f"(delta-I) image of {t} has component at level {deg[s]}"
                    )
            out[t] = img
        return out

    @cached_property
    def _h_terms(self) -> tuple:
        """omega ^ e_j for the standard basis of H (k = 3)."""
        n = self.filt.n
        if n % 2:
            raise PreconditionError("H must have even rank")
        form = omega(n // 2) if self.omega is None else self.omega
        return tuple(form.wedge_vector(unit).coeffs for unit in la.identity(n))

    @cached_property
    def _positions(self) -> dict:
        """Monomial -> its filtration-order coordinate, in that order (a
        stable sort of `wedge` by Y-degree)."""
        return {t: i for i, t in enumerate(sorted(self.wedge, key=self._degrees.get))}

    @cached_property
    def _starts(self) -> list:
        """start(q) for q = 0..k+1."""
        degrees = [self._degrees[t] for t in self._positions]
        return [bisect_left(degrees, q) for q in range(self.k + 2)]

    def start(self, q: int) -> int:
        """First filtration-order coordinate of F_q."""
        return self._starts[min(q, self.k + 1)]

    def graded_coords(self, coeffs: dict, stop: int) -> dict:
        """Sparse filtration-order coordinates {position: coeff} of
        {monomial: coeff}, those before `stop`."""
        pos = self._positions
        return {i: c for t, c in coeffs.items() if (i := pos[t]) < stop}

    def _relations(self, level, stop: int, with_h: bool = False) -> la.Lattice:
        """One-pass echelon of the images at Y-degree `level` (all if None),
        and of H when `with_h`, in filtration order cut at `stop`."""
        gens = self._images(level) + (list(self._h_terms) if with_h else [])
        return la.Lattice(stop, (self.graded_coords(c, stop) for c in gens))

    def _images(self, level=None) -> list:
        """Sparse nonzero images of the monomials at Y-degree `level` (all if None)."""
        deg = self._degrees
        items = self.monomial_images.items()
        return [img for t, img in items if img and level in (None, deg[t])]

    # -- relation lattices and the four groups -------------------------------

    @cached_property
    def abar_lattice(self) -> la.Lattice:
        """(delta-I) L + H, in filtration order."""
        return self._relations(None, len(self.wedge), with_h=True)

    @cached_property
    def bbar_lattice(self) -> la.Lattice:
        """(delta-I) F_1 L + H, in filtration order, truncated below F_3."""
        return self._relations(1, self.start(3), with_h=True)

    def A_group(self, q: int) -> AbelianGroupDescriptor:
        lat = self._relations(None, len(self.wedge))
        return AbelianGroupDescriptor(*lat.section(self.start(q)))

    def B_group(self, q: int) -> AbelianGroupDescriptor:
        lat = self._relations(q - 1, self.start(q + 1))
        return AbelianGroupDescriptor(*lat.section(self.start(q)))

    def Abar_group(self) -> AbelianGroupDescriptor:
        return AbelianGroupDescriptor(*self.abar_lattice.section(self.start(2)))

    def Bbar_group(self) -> AbelianGroupDescriptor:
        return AbelianGroupDescriptor(*self.bbar_lattice.section(self.start(2)))


def graded_map(delta, y_vectors, q: int, k: int):
    """Matrix of gr_{q-1} -> gr_q induced by delta - I, on monomial bases."""
    eng = GradedImages.build(delta, y_vectors, k)
    filt = eng.filt
    src = filt.monomials(k, q - 1, exact=True)
    dst = filt.monomials(k, q, exact=True)
    dst_index = {t: i for i, t in enumerate(dst)}
    out = la.zero_matrix(len(dst), len(src))
    for j, t in enumerate(src):
        for s, c in eng.monomial_images[t].items():
            if filt.y_degree(s) == q:
                out[dst_index[s]][j] = c
    return out


def A_group(delta, y_vectors, q: int) -> AbelianGroupDescriptor:
    """F_q / ((delta-I) wedge^{2q-1} H  intersect  F_q), with k = 2q - 1.

    F_q is a coordinate sublattice, so the intersection is the coordinate
    section of the image lattice.  Finite when the graded
    maps are rationally surjective down to level q; an infinite answer is
    reported through a positive free rank.
    """
    return GradedImages.build(delta, y_vectors, 2 * q - 1).A_group(q)


def B_group(delta, y_vectors, q: int) -> AbelianGroupDescriptor:
    """F_q / ((delta-I) F_{q-1} + F_{q+1}), with k = 2q - 1.

    The relations lie in F_q, so their section is their own span.
    """
    return GradedImages.build(delta, y_vectors, 2 * q - 1).B_group(q)


def Abar_group(delta, y_vectors) -> AbelianGroupDescriptor:
    """(F_2 L + H) / (((delta-I)L + H) & (F_2 L + H)), computed as
    F_2 L / (F_2 L & ((delta-I)L + H)).

    H lies in F_2 L + H, so by the modular law the denominator is
    H + ((delta-I)L & (F_2 L + H)), which contains H.  F_2 L then maps onto
    the quotient, and by the second isomorphism theorem its kernel is
    F_2 L & ((delta-I)L + H): a coordinate section, as for A.
    """
    return GradedImages.build(delta, y_vectors, 3).Abar_group()


def Bbar_group(delta, y_vectors) -> AbelianGroupDescriptor:
    """(F_2 L + H) / ((delta-I) F_1 L + F_3 L + H), computed as
    F_2 L / (F_2 L & ((delta-I) F_1 L + F_3 L + H)).

    The denominator contains H and lies in F_2 L + H, so F_2 L maps onto
    the quotient with that section as kernel (second isomorphism theorem).
    """
    return GradedImages.build(delta, y_vectors, 3).Bbar_group()


# ---------------------------------------------------------------------------
# explicit rational inverse of the graded map gr_1 -> gr_2 (maximal rank)


def delta_inverse_gr2(q_matrix, v: WedgeVector) -> tuple[dict, int]:
    """Rational preimage u = N / s under gr_1 -> gr_2 of a two-Y-factor
    wedge vector, as integer numerators N over one scale s.

    Works in the standard basis (a_1..a_g, b_1..b_g) with Y the full b-span,
    and Q must be nonsingular.  For a monomial b_p ^ b_r ^ a_m the preimage is
    (1/2) (Q^-1 b_p ^ b_r ^ a_m + b_p ^ Q^-1 b_r ^ a_m
           - Q^-1 b_p ^ Q^-1 b_r ^ Q a_m).
    Each term is linear in a_m, so v's coefficients are summed per Y-pair
    (p, r) into x = sum_m c_mpr a_m.  The sum runs over the integers:
    Q^-1 = adj / den with den the least common denominator of Q^-1, so adj
    is integral (`intlinalg.scaled_inverse`), v = v' / vden with v'
    integral, alpha = adj b_p and beta = adj b_r are a-side columns, x is
    scaled by vden, and the whole is scaled by 2 vden den^2.  With
    (y ^ z)_ij = y_i z_j - y_j z_i for i < j, the three terms are the 2x2
    minors
        -den (alpha ^ x)_ij a_i^a_j^b_r,  +den (beta ^ x)_ij a_i^a_j^b_p,
        -(alpha ^ beta)_ij (Q x)_k a_i^a_j^b_k,
    keyed by sorted tuples since every a index lies below every b index;
    each key has one Y index, so u lies in gr_1.  Q is symmetric, so
    Q x = sum_m x_m Q[m] is summed over x's nonzero entries.  N keeps the nonzero
    sums, unreduced, over the one scale s = 2 vden den^2.
    """
    g = len(q_matrix)
    if v.n != 2 * g or v.k != 3:
        raise PreconditionError("expected a degree-3 wedge vector on rank 2g")
    try:
        den, adj = la.scaled_inverse(q_matrix)
    except ValueError as exc:
        raise PreconditionError(
            "Q is singular; use the membership test for deficient rank"
        ) from exc
    adj = la.columns(adj)  # den * Q^-1 b_j
    vden = lcm(*(c.denominator for c in v.coeffs.values()))
    pairs: dict = {}  # (p, r) -> vden * sum_m c_mpr a_m, dense on the a side
    for (m, p, r), c in v.coeffs.items():
        if not m < g <= p:  # a sorted key with two Y factors
            raise PreconditionError(
                f"coordinate {(m, p, r)} does not have exactly two Y factors"
            )
        pairs.setdefault((p - g, r - g), [0] * g)[m] = int(c * vden)
    a_pairs = list(combinations(range(g), 2))
    acc: dict = {}
    get = acc.get
    for (p, r), x in pairs.items():
        qx = [0] * g  # Q x = sum_m x_m Q[m], as Q is symmetric
        for m, c in enumerate(x):
            if c:
                qx = [y + c * q for y, q in zip(qx, q_matrix[m])]
        qx = [(g + k, y) for k, y in enumerate(qx) if y]
        alpha, beta = adj[p], adj[r]
        for i, j in a_pairs:
            ai, aj, bi, bj, xi, xj = alpha[i], alpha[j], beta[i], beta[j], x[i], x[j]
            if m := ai * xj - aj * xi:
                t = (i, j, g + r)
                acc[t] = get(t, 0) - den * m
            if m := bi * xj - bj * xi:
                t = (i, j, g + p)
                acc[t] = get(t, 0) + den * m
            if m := ai * bj - aj * bi:
                for k, y in qx:
                    t = (i, j, k)
                    acc[t] = get(t, 0) - m * y
    return {t: x for t, x in acc.items() if x}, 2 * vden * den * den
