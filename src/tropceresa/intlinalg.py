"""Exact integer and rational linear algebra.

Everything here works over Z (arbitrary-precision ints) or Q (fractions):
echelon-form (Hermite) lattices with canonical bases; kernels, integer
solutions and unimodular inverses read off the Hermite form of tagged
matrices; quotients of coordinate sublattices by their sections with a
span; and the structure of finitely generated abelian quotients through
one Smith diagonal, computed by alternating Hermite reduction and turned
into invariant factors over a coprime base, with no integer factorization.
Rational inverses come from fraction-free Gauss-Jordan elimination, as one
integer matrix over the least common denominator (`scaled_inverse`).  One
echelon basis serves each relation set: its rows pivoting in a coordinate
suffix span the section there, so no intersection is needed.  One
back-substitution (`Lattice.back_substitute`), in integers over one common
denominator, gives integer solutions.  No floating point.

`Lattice`, the one lattice kernel, stores each echelon row sparsely as
{column: nonzero int}.  The relation lattices of the module-level groups
have a few nonzeros a row among C(2g, 3) columns, so every insertion,
Hermite re-reduction and back-substitution runs over the supports of the
rows it combines.  Vectors enter as dense sequences or as such maps, and
residuals come back as maps; `basis()` and `canonical()` are the dense
views that the Smith reduction and the tagged solvers read.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, inf, lcm, prod

Matrix = list  # list of rows, each a list of ints (or Fractions)
Vector = list


# ---------------------------------------------------------------------------
# basic matrix helpers


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i)
    )


def columns(a: Matrix) -> list[Vector]:
    """The columns of a as lists, which is also its transpose."""
    return [list(col) for col in zip(*a)] if a else []


# ---------------------------------------------------------------------------
# invariant factors; kernels, solutions and inverses from tagged Hermite
# forms


def invariant_factor_diagonal(a: Matrix) -> list:
    """Full SNF diagonal of a (unit factors kept, zeros last)."""
    m = len(a)
    n = len(a[0]) if m else 0
    rank, orders = snf_diagonal_orders(a)
    return diagonal_invariant_factors(orders + [0] * (min(m, n) - rank))


def diagonal_invariant_factors(diag) -> list:
    """Full SNF diagonal of the diagonal matrix with entries `diag`: unit
    factors first, then the invariant factors, zeros last."""
    orders = [abs(x) for x in diag if x]
    chain = invariant_factors_from_orders(orders)
    return [1] * (len(orders) - len(chain)) + chain + [0] * (len(diag) - len(orders))


def matrix_rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return Lattice(len(a[0]), a).rank


def kernel_basis(a: Matrix) -> list[Vector]:
    """Basis of the integer kernel {x : a @ x = 0}; spans a saturated lattice."""
    if not a or not a[0]:
        return []
    return vector_relations(columns(a), len(a))


def solve_int(a: Matrix, b: Vector):
    """Integer solution x of a @ x = b, or None.

    Echelon on the tagged rows column_j ++ e_j: back-substituting b ++ 0
    along the rows pivoting before m leaves 0 ++ -x with integral
    coefficients exactly when a @ x = b has an integer solution.
    """
    m = len(a)
    cols = columns(a)
    k = len(cols)
    lat = Lattice(m + k, [c + e for c, e in zip(cols, identity(k))])
    rest, den = lat.back_substitute(list(b) + [0] * k, m)
    if den != 1 or any(j < m for j in rest):
        return None
    return [int(-rest.get(m + j, 0)) for j in range(k)]


def int_inverse(a: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, over Z.

    The Hermite form of [a | I] is [I | a^-1] exactly when a is unimodular.
    """
    n = len(a)
    k = len(a[0]) if n else 0
    rows = hnf_rows([list(row) + e for row, e in zip(a, identity(n))])
    if [row[:k] for row in rows] != identity(n):
        diag = invariant_factor_diagonal(a)
        raise ValueError("matrix is not unimodular: SNF diagonal %r" % (diag,))
    return [row[k:] for row in rows]


# ---------------------------------------------------------------------------
# lattices as Z-spans of vectors, kept in echelon form


class Lattice:
    """Z-span of vectors in Z^n, kept in Hermite-reduced echelon form.

    Each row is stored sparsely, as a dict {column: nonzero int}.  Vectors
    may be given as dense sequences of length n or as such dicts (zero
    values are dropped); `basis()` and `canonical()` are dense views.

    Membership needs divisibility at every pivot, so the echelon rows are a
    genuine lattice basis, not just a rational one.  Rows are re-reduced
    after every insertion, wherever it inserted, rewrote or changed a row;
    without that, chains of gcd combinations blow up doubly exponentially
    on lattices of this package's working size.

    Invariant: each row is zero before its pivot, the pivots increase, and
    no row stores a zero.  Every update of a row by another therefore runs
    over the two rows' supports, which start at the other row's pivot
    column, and every reading of a vector against the rows is one
    back-substitution along the pivots.
    """

    def __init__(self, n: int, vectors=()):
        self.n = n
        self.rows: list[dict] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.add(v)

    def _entries(self, vec) -> dict:
        """A fresh {column: nonzero value} map of vec, checked against Z^n."""
        if isinstance(vec, dict):
            out = {j: x for j, x in vec.items() if x}
            if out and (min(out) < 0 or max(out) >= self.n):
                raise ValueError(
                    f"vector on columns {min(out)}..{max(out)} given to a lattice in Z^{self.n}"
                )
            return out
        vec = list(vec)
        if len(vec) != self.n:
            raise ValueError(f"vector of length {len(vec)} given to a lattice in Z^{self.n}")
        return {j: x for j, x in enumerate(vec) if x}

    def add(self, vec) -> None:
        vec = self._entries(vec)
        rows, pivots = self.rows, self.pivots
        # the rows rewritten, then the row inserted; each step zeroes vec at
        # its lead, so the next lead lies beyond it and positions increase
        touched = []
        while vec:
            lead = min(vec)
            pos = bisect_left(pivots, lead)
            if pos == len(pivots) or pivots[pos] != lead:
                rows.insert(pos, vec)
                pivots.insert(pos, lead)
                touched.append(pos)
                break
            row = rows[pos]
            a, b = row[lead], vec[lead]
            if b % a == 0:
                q = b // a
                for t, x in row.items():
                    y = vec.get(t, 0) - q * x
                    if y:
                        vec[t] = y
                    else:
                        del vec[t]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                for t in row.keys() | vec.keys():
                    rt, vt = row.get(t, 0), vec.get(t, 0)
                    new_rt, new_vt = x * rt + y * vt, -bg * rt + ag * vt
                    if new_rt:
                        row[t] = new_rt
                    else:
                        row.pop(t, None)
                    if new_vt:
                        vec[t] = new_vt
                    else:
                        vec.pop(t, None)
                touched.append(pos)
        self._reduce_rows(touched)

    def _reduce_rows(self, touched) -> None:
        """Hermite discipline after an insertion: positive pivots, entries
        above reduced.

        Two rows that are both untouched (neither inserted nor rewritten by
        `add`, nor changed by this pass so far) were reduced against each
        other by the last pass, so each pivot row s is reduced into the
        dirty rows above it only, or into all of them if s itself is dirty;
        a row with no entry at the pivot needs nothing.  Row s is zero
        before its pivot p, so a row above it only changes from column p on,
        and later pivots never undo the reduction at p.
        """
        rows, pivots = self.rows, self.pivots
        dirty = set(touched)
        for s in range(touched[0] if touched else len(pivots), len(pivots)):
            p = pivots[s]
            rs = rows[s]
            if s in dirty:
                if rs[p] < 0:
                    for t in rs:
                        rs[t] = -rs[t]
                above = range(s)
            else:
                above = [r for r in dirty if r < s]
            piv = rs[p]
            for r in above:
                row = rows[r]
                if p not in row:
                    continue
                q = row[p] // piv
                if q:
                    for t, x in rs.items():
                        y = row.get(t, 0) - q * x
                        if y:
                            row[t] = y
                        else:
                            del row[t]
                    dirty.add(r)

    def back_substitute(self, vec, d: int | None = None):
        """The residual of vec after the rows pivoting before d (d = n by
        default), as {column: nonzero value}, and the lcm of the
        denominators of the rational coefficients those rows take.

        At each pivot the coefficient is forced, since earlier rows have been
        subtracted and later rows vanish there.  vec lies in the rational
        span of these rows plus Q^{d..n-1} exactly when the residual has no
        column before d.  The residual is carried as integers over one
        common denominator, which grows only where a pivot does not divide;
        one gcd reduces each coefficient's denominator, with no Fraction.
        """
        d = self.n if d is None else d
        rest = self._entries(vec)
        scale = lcm(*(x.denominator for x in rest.values()))
        rest = {t: int(x * scale) for t, x in rest.items()}
        den = 1
        for row, p in zip(self.rows, self.pivots):
            if p >= d:
                break
            r = rest.get(p, 0)
            if r:
                # c = q / (scale * m): rest - c * row == (rest * m - q * row) / (scale * m)
                g = gcd(r, row[p])
                m, q = row[p] // g, r // g
                den = lcm(den, scale * m // gcd(q, scale * m))
                if m != 1:
                    scale *= m
                    for t in rest:
                        rest[t] *= m
                for t, x in row.items():
                    y = rest.get(t, 0) - q * x
                    if y:
                        rest[t] = y
                    else:
                        del rest[t]
        if scale != 1:
            rest = {t: Fraction(x, scale) for t, x in rest.items()}
        return rest, den

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _dense(self, row: dict) -> Vector:
        out = [0] * self.n
        for j, x in row.items():
            out[j] = x
        return out

    def basis(self) -> list[Vector]:
        """The rows as dense lists."""
        return [self._dense(row) for row in self.rows]

    def canonical(self) -> tuple:
        """Hermite-reduced basis as dense tuples, unique for the lattice
        (maintained by add)."""
        return tuple(tuple(row) for row in self.basis())

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
            [row.get(j, 0) for j in keep]
            for row, p in zip(self.rows, self.pivots)
            if p >= d and p not in units
        ]
        # the core, the tail without its unit pivots, is still in Hermite
        # form; start with the column pass
        rank, orders = snf_diagonal_orders(columns(core))
        return len(keep) - rank, invariant_factors_from_orders(orders)


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


def hnf_rows(mat) -> list[Vector]:
    """Canonical row Hermite form of the row span; zero rows dropped.

    Entries stay reduced, so this is the growth-safe workhorse for the
    bigger eliminations (naive Smith reduction can blow up doubly
    exponentially).
    """
    if not mat:
        return []
    return Lattice(len(mat[0]), mat).basis()


def _is_monomial_matrix(mat) -> bool:
    """At most one nonzero entry in each row and in each column."""
    col_used = set()
    for row in mat:
        support = [j for j, x in enumerate(row) if x]
        if len(support) > 1 or support and support[0] in col_used:
            return False
        col_used.update(support)
    return True


def _alternating_hermite(work, tags=None):
    """Alternate row Hermite reduction and transposition until `work` is a
    (partial) monomial matrix W, and return W in the orientation of the
    input.  Keeps entries polynomially bounded, unlike direct pivoting.

    Untagged, zero rows are dropped.  With tags = [L, R^T] for the input
    A = L·M·R, every row step runs on the rows tagged by the side it
    multiplies (L on even rounds, where work is L·M·R; R^T on odd ones,
    where it is its transpose), so no row vanishes and at the end W = L·M·R
    for the updated tags.
    """
    rounds = 0
    while work:
        n = len(work[0])
        if tags is None:
            work = hnf_rows(work)
        else:
            side = rounds % 2
            rows = hnf_rows([r + t for r, t in zip(work, tags[side])])
            work, tags[side] = [r[:n] for r in rows], [r[n:] for r in rows]
        if _is_monomial_matrix(work):
            break
        work = columns(work)
        rounds += 1
        if rounds > 10_000:
            raise RuntimeError("alternating Hermite reduction failed to settle")
    return columns(work) if rounds % 2 else work


def snf_diagonal_orders(mat) -> tuple[int, list[int]]:
    """Rank and the multiset of nonzero SNF diagonal entries of mat.

    The entries of the monomial matrix left by the alternating Hermite
    reduction need not divide one another; `invariant_factors_from_orders`
    turns them into the invariant factors over a coprime base.
    """
    work = _alternating_hermite([list(r) for r in mat if any(r)])
    orders = sorted(abs(x) for row in work for x in row if x)
    return len(orders), orders


def smith_diagonal(a: Matrix) -> tuple[list, Matrix, Matrix]:
    """A diagonal D = U·a·V with U and V unimodular: (diagonal of D, U, V).

    The alternating Hermite reduction of `snf_diagonal_orders`, on rows
    tagged with the transforms, leaves a monomial matrix; permuting its
    nonzero entries onto the diagonal gives D.  D has min(m, n) entries,
    the nonzero ones positive and first; they need not divide one another.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    tags = [identity(m), identity(n)]
    work = _alternating_hermite([list(r) for r in a], tags)
    cells = [(i, j) for i, row in enumerate(work) for j, x in enumerate(row) if x]
    rows, cols = [i for i, _ in cells], [j for _, j in cells]
    rows += [i for i in range(m) if i not in rows]
    cols += [j for j in range(n) if j not in cols]
    u = [tags[0][i] for i in rows]
    v = [[tags[1][j][i] for j in cols] for i in range(n)]
    diag = [work[i][j] for i, j in cells] + [0] * (min(m, n) - len(cells))
    return diag, u, v


def scaled_inverse(a: Matrix) -> tuple[int, Matrix]:
    """(den, den * a^-1) for a square integer matrix a, where den, the least
    common denominator of a^-1, is |det a| / gcd(det a, adj a).

    Fraction-free Gauss-Jordan (Bareiss) on [a | I]: step k swaps in a row
    with a nonzero entry in column k, then replaces every other row r by
    (p_k r - r[k] row_k) / p_(k-1), p_k the k-th pivot and p_(-1) = 1.  The
    division is exact: afterwards rows 0..k hold (k+1)-minors of [a | I] and
    the others (k+2)-minors (Sylvester's identity).  This leaves
    [p I | p a^-1] with p = p_(n-1) = +-det a.  A singular a raises."""
    n = len(a)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        swap = next((i for i in range(k, n) if rows[i][k]), None)
        if swap is None:
            raise ValueError("singular matrix")
        rows[k], rows[swap] = rows[swap], rows[k]
        top = rows[k]
        pivot = top[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
    adj = [row[n:] for row in rows]  # p a^-1
    common = gcd(prev, *(x for row in adj for x in row))
    if prev < 0:
        common = -common
    return prev // common, [[x // common for x in row] for row in adj]


def lattice_eq(vecs_a, vecs_b, n: int) -> bool:
    return Lattice(n, vecs_a).canonical() == Lattice(n, vecs_b).canonical()


def vector_relations(vectors, n: int) -> list[Vector]:
    """Basis of {c : sum_i c_i v_i = 0}, via echelon on tagged vectors."""
    k = len(vectors)
    lat = Lattice(n + k)
    for i, v in enumerate(vectors):
        lat.add(list(v) + [int(t == i) for t in range(k)])
    return [row[n:] for row in lat.basis() if not any(row[:n])]


# ---------------------------------------------------------------------------
# invariant factors from a list of cyclic orders


def invariant_factors_from_orders(orders) -> list[int]:
    """Rewrite a product of cyclic groups Z/n_1 x ... as invariant factors.

    The distinct orders are split into a coprime base: pairwise coprime
    b_1, b_2, ... of which every order is a product of powers (`_coprime_base`).
    By the Chinese remainder theorem Z/n is the sum of the Z/b^e over the
    powers b^e in n, and each prime divides one b only, so sorting the
    exponents of each b, counted with the multiplicities of the orders,
    gives the chain: its s-th largest factor is the product of the b^e with
    e the s-th largest exponent of b.  No order is factored.  Output is the
    ascending divisibility chain with unit factors dropped.
    """
    counts: dict = {}
    for c in orders:
        if c < 1:
            raise ValueError("cyclic orders must be positive")
        counts[c] = counts.get(c, 0) + 1
    counts.pop(1, None)
    chain: list = []
    for b in _coprime_base(counts):
        exps = []
        for c, k in counts.items():
            e = 0
            while c % b == 0:
                c //= b
                e += 1
            if e:
                exps += [e] * k
        exps.sort(reverse=True)
        chain += [1] * (len(exps) - len(chain))
        for s, e in enumerate(exps):
            chain[s] *= b**e
    return chain[::-1]


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product of
    powers: a pair with a common factor d is replaced by d and its two
    cofactors until none is left, which ends since each such step divides
    the product of what is left by d."""
    base: list = []
    todo = list(values)
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for i, b in enumerate(base):
            d = gcd(x, b)
            if d > 1:
                del base[i]
                todo += [d, b // d, x // d]
                break
        else:
            base.append(x)
    return base


def group_order(free_rank: int, torsion) -> int | float:
    return inf if free_rank else prod(torsion, start=1)
