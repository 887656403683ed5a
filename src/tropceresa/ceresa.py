"""End-to-end obstruction pipeline for a curve plus a twist table.

The graph alone fixes the basis, Q's per-edge terms, the stable model and
its involutions: one table-free `GraphPlan` per curve, off which every
context is read.  A table meets the plan at one basis check, where the
degree-3 class v is summed from its entries and the edge lengths.  The
pipeline inverts the graded map when the cycle rank is maximal, and
decides triviality with this precedence: a hyperelliptic quotient trumps
everything; then a non-integral coordinate of u of the form a_i^a_j^b_k
with k distinct from i and j certifies nontriviality; the exact orders in
the finite quotients settle the rest.  u reads the fraction-free inverse
of Q (`intlinalg.scaled_inverse`).  Q is Smith-reduced, once per curve and
only where D, the frame or the invariant factors are read: D = U Q V, and
the Smith frame P = diag(V^-1, U), where delta is [[I, 0], [D, I]].  At
maximal rank the order in Bbar, which is also the ambient order there, is
a closed form of u (`ceresa_order`), with no Smith reduction, no relation
lattice and no Smith frame.  The Zharkov verdict is read off the frame
through closed forms, and the groups off D block by block at every rank.
The other orders are read in that frame, every block as congruences, by
one routine: the order of the class in one finite group, whose blocks only
the free H part at maximal rank couples (`forced_order`).
`PipelineContext` builds the reduction and the frame on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import chain, combinations, permutations
from math import gcd, inf, lcm, prod

from . import intlinalg as la
from .errors import PreconditionError, SchemaError
from .exterior import (
    AbelianGroupDescriptor,
    Filtration,
    WedgeVector,
    _json_key,
    _sparse,
    _wedge_step,
    apply_columns,
    check_wedge_caps,
    delta_inverse_gr2,
    omega,
)
from .graph_core import (
    TropicalCurve,
    curve_to_json,
    genus,
    hyperelliptic_involutions,
    scaled_to_integer,
    stable_model,
)
from .johnson import JohnsonTable
from .symplectic import (
    HomologyBasis,
    homology_basis,
    smith_frame,
    smith_reduction,
)

VERDICTS = ("trivial", "nontrivial", "hyperelliptic-trivial", "indeterminate")


@dataclass
class PipelineContext:
    """The curve data that every class computation on one curve shares:
    the curve with integer lengths, its basis and its Gram matrix Q, read
    off the curve's `GraphPlan` at those lengths.  Only reports read the
    curve, so a `sample` draw leaves it None.  All else is derived: the
    Y-filtration from g and h, and the rest from Q and its one Smith
    reduction D = U Q V (`symplectic.smith_reduction`).

    The reduction and the Smith frame P = diag(V^-1, U), which takes delta
    to delta_from_Q(D) and omega to omega' = wedge^2(P) omega, are built on
    first read; P is held as sparse columns, V^-1 = D^-1 U Q on the cycle
    slots, with no elimination and no dense P (`smith_frame`).  A
    maximal-rank verdict reads u, which reads the fraction-free inverse of
    Q, so a verdict-only `analyze` (`order`, `sample`) builds neither; the
    printed invariant factors and the deficient-rank groups read D, and the
    Zharkov verdict, the maximal-rank groups and `framed_class` the frame:
    a class goes into it once for both orders of `forced_order`.  No
    lattice of wedge^3 is built.
    """

    curve: TropicalCurve | None   # integer lengths
    scale: int
    basis: HomologyBasis
    q_matrix: list                # original frame

    @property
    def g(self) -> int:
        return len(self.q_matrix)

    @property
    def maximal_rank(self) -> bool:
        return self.basis.h == self.basis.g

    @property
    def rank_status(self) -> str:
        return "maximal" if self.maximal_rank else "deficient"

    @cached_property
    def filt(self) -> Filtration:
        """The Y-filtration, Y = b_1..b_h."""
        return Filtration(2 * self.g, frozenset(range(self.g, self.g + self.basis.h)))

    @cached_property
    def smith(self) -> tuple:
        """(d, U, V) with diag(d) = U Q V: the one Smith reduction of Q."""
        return smith_reduction(self.q_matrix, self.basis.h)

    @property
    def q_diagonal(self) -> list:
        """D, zeros on the weight slots."""
        return self.smith[0]

    @property
    def invariant_factors(self) -> list:
        """Invariant factors of the cycle block Q_h, which reports and
        `groups` print: those of its diagonal D, as U and V are unimodular."""
        return la.diagonal_invariant_factors(self.q_diagonal[: self.basis.h])

    @cached_property
    def frame(self) -> list:
        """P = diag(V^-1, U), graded for the Y-filtration, as sparse columns."""
        return smith_frame(self.q_matrix, *self.smith[:2])

    @cached_property
    def omega_frame(self) -> WedgeVector:
        """omega' = wedge^2(P) omega, the form that embeds H in the frame."""
        return apply_columns(self.frame, omega(self.g))


def build_context(curve: TropicalCurve, tree=None) -> PipelineContext:
    """The context of a curve at its lengths scaled to integers, on the
    basis of `tree` (the greedy tree when None), read off its graph plan."""
    return graph_plan(curve, tree=tree).context(*integer_lengths(curve))


def integer_lengths(curve: TropicalCurve) -> tuple:
    """(lengths, scaled, scale): the curve scaled to integer lengths
    (`scaled_to_integer`) and those lengths in id-sorted edge order."""
    scaled, scale = scaled_to_integer(curve)
    return [e.length.numerator for e in scaled.sorted_edges()], scaled, scale


@dataclass
class GraphPlan:
    """What every context and verdict on one graph shares, built once per
    curve by `graph_plan`; it holds no table.  `context` and `v`, where a
    table meets it, read one tuple of integer lengths in id-sorted edge order.

    Q = sum_e l_e c_e c_e^T over the loop classes c_e and v = sum_e l_e J_e
    over the table entries, so both are sums of per-edge terms.  The stable
    model merges the same edges at any lengths, and the -1 rule forces the
    same maps: lengths only end a walk (README, "Hyperellipticity").  So a
    draw is hyperelliptic exactly when one of the tree-quotient involutions
    of the stable graph, found with the lengths ignored, swaps only stable
    edges of equal length.
    """

    curve: TropicalCurve  # the graph; its lengths are not read
    basis: HomologyBasis
    ids: list           # the edge ids, sorted
    q_terms: dict       # (i, j) -> [(edge number, c_ei c_ej)] for i <= j < h

    def context(self, lengths, curve=None, scale=1) -> PipelineContext:
        """The context at these lengths; `curve` is the curve a report prints."""
        q = [[0] * self.basis.g for _ in range(self.basis.g)]
        for (i, j), terms in self.q_terms.items():
            q[i][j] = q[j][i] = sum(lengths[k] * x for k, x in terms)
        return PipelineContext(curve, scale, self.basis, q)

    def v(self, table: JohnsonTable, lengths) -> WedgeVector:
        return _entry_sum(table, self.basis, self.ids, lengths)

    @cached_property
    def stable(self) -> tuple:
        """(merged, swaps): per stable edge, the numbers of the edges it
        merges, and per tree-quotient involution of the stable graph at unit
        lengths, the stable edge pairs it swaps; each involution certified
        once by its quotient.  Built on first read, so only verdicts search."""
        stable, parts = stable_model(self.curve)  # its edges are sorted by id
        number = {e: k for k, e in enumerate(self.ids)}
        slot = {e.id: s for s, e in enumerate(stable.edges)}
        unit = stable.with_lengths(dict.fromkeys(slot, 1))
        return [[number[x] for x in parts[e.id]] for e in stable.edges], [
            [(slot[a], slot[b]) for a, b in inv.edge_map.items() if a < b]
            for inv in hyperelliptic_involutions(unit)
        ]

    def hyperelliptic(self, lengths) -> bool:
        merged, swaps = self.stable
        stable = [sum(lengths[k] for k in ks) for ks in merged]
        return any(all(stable[s] == stable[t] for s, t in pairs) for pairs in swaps)

    def decide(self, table: JohnsonTable, lengths, curve=None, scale=1) -> tuple:
        """(context, v, hyperelliptic, `nontriviality_verdict`) at these
        lengths; `curve` is the curve that a report prints."""
        v = self.v(table, lengths)
        ctx = self.context(lengths, curve, scale)
        hyper = self.hyperelliptic(lengths)
        return ctx, v, hyper, nontriviality_verdict(ctx, v, hyper, table.provenance == "builtin")


def graph_plan(curve: TropicalCurve, basis: HomologyBasis | None = None, tree=None) -> GraphPlan:
    """The graph plan of a curve on `basis`, by default `tree`'s (`homology_basis`)."""
    check_wedge_caps(2 * genus(curve))  # before the basis, the quadratic Q and delta
    basis = basis or homology_basis(curve, tree=tree)
    ids = [e.id for e in curve.sorted_edges()]
    q_terms: dict = {}
    for k, e in enumerate(ids):
        c = [(i, x) for i, x in enumerate(basis.edge_loop_class[e]) if x]
        for a, (i, x) in enumerate(c):
            for j, y in c[a:]:
                q_terms.setdefault((i, j), []).append((k, x * y))
    return GraphPlan(curve, basis, ids, q_terms)


def group_table(ctx: PipelineContext) -> dict:
    """The finite obstruction groups A, B, Abar, Bbar of the curve, the groups
    of `exterior.A_group`, `B_group`, `Abar_group` and `Bbar_group` on the
    original delta, read off the Smith diagonal D block by block (README,
    "Groups"), with no wedge^3 lattice.

    In the Smith frame delta - I sends a_i to d_i b_i, so wedge^3 H and the
    relations split into blocks by the multiset of indices mod g.  Over the
    cycle indices i, j, k < h, a block {i, i, j} adds Z/d_j to A and to B
    through a_i ^ b_i ^ b_j.  A block {i < j < k} adds coker M_S to B, on
    the F_2 coordinates bba, bab, abb (positional), and coker M_S + Z/G to
    A, the Z/G on bbb.  Each of the 2(g - h) weight units w adds
    Z/gcd(d_i, d_j) for i < j < h to A and to B, on b_i ^ b_j ^ w.

    At maximal rank Bbar is B modulo the classes of omega' ^ b_l, l < g,
    which are read in the cyclic coordinates x V mod e of U M_S V = diag(e);
    omega' has only a ^ b terms, so these classes miss every bbb and Abar
    is Bbar + the Z/G.  At deficient rank no class of H meets F_2 outside
    the relations, so Abar = A and Bbar = B.
    """
    g, h, d = ctx.g, ctx.basis.h, ctx.q_diagonal
    pairs = list(permutations(range(h), 2))  # the blocks {i, i, j}
    triples = list(combinations(range(h), 3))  # the blocks {i < j < k}
    t_orders = [gcd(d[i], d[j], d[k]) for i, j, k in triples]
    b_orders = [d[j] for _, j in pairs]
    for (i, j, k), big in zip(triples, t_orders):
        # M_S has entries of gcd G, 2x2 minors of gcd G^2 and determinant 2 di dj dk
        b_orders += [big, big, 2 * d[i] * d[j] * d[k] // (big * big)]
    b_orders += [gcd(d[i], d[j]) for i, j in combinations(range(h), 2)] * (2 * (g - h))
    a = AbelianGroupDescriptor.from_cyclic_orders(b_orders + t_orders)
    b = AbelianGroupDescriptor.from_cyclic_orders(b_orders)
    if h < g:
        return {"A": a, "B": b, "Abar": a, "Bbar": b}
    orders = [d[j] for _, j in pairs]  # the cyclic coordinates of B, by column
    # F_2 monomial -> [(column, coefficient)]
    slots = {tuple(sorted((i, g + i, g + j))): [(c, 1)] for c, (i, j) in enumerate(pairs)}
    for i, j, k in triples:
        e, v = _triple_smith(d[i], d[j], d[k])
        # bba = +(k, b_i, b_j), bab = -(j, b_i, b_k), abb = +(i, b_j, b_k)
        for (t, sign), row in zip(
            (((k, g + i, g + j), 1), ((j, g + i, g + k), -1), ((i, g + j, g + k), 1)), v
        ):
            slots[t] = [(len(orders) + c, sign * x) for c, x in enumerate(row) if x]
        orders += e
    classes = []
    for l in range(g):
        row: dict = {}
        for t, c in _wedge_step(ctx.omega_frame.coeffs, [(g + l, 1)]).items():
            for col, x in slots[t]:
                row[col] = row.get(col, 0) + c * x
        classes.append(row)
    bbar = _cyclic_quotient(orders, classes)
    return {
        "A": a,
        "B": b,
        "Abar": AbelianGroupDescriptor.from_cyclic_orders(bbar + t_orders),
        "Bbar": AbelianGroupDescriptor.from_cyclic_orders(bbar),
    }


def _cyclic_quotient(orders, rows) -> list:
    """Cyclic orders of `group_table`'s Bbar, (+ Z/e_c) / <rows>, for positive
    orders e_c and sparse rows {column: value} over their columns c.

    The columns of one order e are column-echelonised first: e I commutes
    with GL_m(Z), so the quotient keeps its structure, and the columns that
    come out zero split off as Z/e.  At most len(rows) columns of each
    order are left for one lattice section.
    """
    by_order: dict = {}
    for col, e in enumerate(orders):
        if e != 1:
            by_order.setdefault(e, []).append(col)
    split, core = [], []  # orders split off; (order, column over the rows)
    for e, cols in by_order.items():
        echelon = la.Lattice(len(rows), (
            {r: row[col] % e for r, row in enumerate(rows) if row.get(col, 0) % e}
            for col in cols
        ))
        split += [e] * (len(cols) - echelon.rank)
        core += [(e, col) for col in echelon.rows]
    gens = [{c: e} for c, (e, _) in enumerate(core)]
    gens += [{c: col[r] for c, (_, col) in enumerate(core) if r in col} for r in range(len(rows))]
    return split + la.Lattice(len(core), gens).section(0)[1]


def enc_order(x):
    """JSON form of an order or group size: None, an int, or "infinite"."""
    if x is None:
        return None
    return "infinite" if x == inf else int(x)


def groups_to_json(groups: dict) -> dict:
    return {k: v.to_json() | {"order": enc_order(v.order)} for k, v in groups.items()}


def group_lines(groups: dict) -> list:
    return [f"{k}: {grp} (order {grp.order})" for k, grp in groups.items()]


def zharkov_to_json(result: dict) -> dict:
    """w, the verdict and its witness, keyed and printed as w's terms are."""
    wit = result["witness"]
    if wit is not None:
        wit = {k: str(x) for k, x in wit.items()} | {"monomial": _json_key(wit["monomial"])}
    return {"obstructed": result["obstructed"], "w": result["w"].to_json(), "witness": wit}


# ---------------------------------------------------------------------------
# the class and its invariants


def v_class(ctx: PipelineContext, table: JohnsonTable) -> WedgeVector:
    """Length-weighted sum of the table entries at the context's curve."""
    edges = ctx.curve.sorted_edges()
    return _entry_sum(table, ctx.basis, [e.id for e in edges], [e.length.numerator for e in edges])


def _entry_sum(table: JohnsonTable, basis: HomologyBasis, ids, lengths) -> WedgeVector:
    """sum_e l_e J_e over the edges `ids` with integer lengths `lengths`.

    The table was checked when it was built; its basis must equal the
    curve's `basis` (the same tree, chords and cycles), so its entries name
    this curve's edges and vanish on its bridges.
    """
    if table.basis != basis:
        raise SchemaError("table basis does not match the curve's basis")
    total: dict = {}
    for e, l in zip(ids, lengths):
        if e in table.entries:
            for t, c in table.entries[e].coeffs.items():
                if x := total.get(t, 0) + l * c:
                    total[t] = x
                else:
                    del total[t]
    return WedgeVector._from_sorted(2 * basis.g, 3, total)


def is_pure_gr2(ctx: PipelineContext, v: WedgeVector) -> bool:
    return all(ctx.filt.y_degree(t) == 2 for t in v.coeffs)


def _by_y_degree(ctx: PipelineContext, v: WedgeVector) -> list:
    """v's terms by Y-degree: [{monomial: coefficient}] for degrees 0..3."""
    parts = [{}, {}, {}, {}]
    degree = ctx.filt.y_degree
    for t, c in v.coeffs.items():
        parts[degree(t)][t] = c
    return parts


def u_class(ctx: PipelineContext, v: WedgeVector) -> WedgeVector:
    """Rational preimage of v under the graded map; Q must be nonsingular."""
    return _u_fractions(ctx, *delta_inverse_gr2(ctx.q_matrix, v))


def _u_fractions(ctx: PipelineContext, nums: dict, scale: int) -> WedgeVector:
    """u = N / scale as the Fraction wedge vector that reports print."""
    u = {t: Fraction(x, scale) for t, x in nums.items()}
    return WedgeVector._from_sorted(2 * ctx.g, 3, u)


def _u_and_order(ctx: PipelineContext, parts: list):
    """((N, scale), order, nonintegral) at maximal rank for the class v with
    Y-degree parts `parts` (`_by_y_degree`): u = N / scale = gr^-1 of the
    gr_2 part r_2 of v, the order of v in Bbar (README, "Verdict"), and
    whether a qualifying numerator of u is not 0 mod scale.

    Each coordinate of a gr_1 class w is a_i^a_j^b_k.  Those with k apart
    from i and j qualify; the others are the coefficients s_il of
    a_i^b_i^a_l, i != l, and omega ^ c_a has s_il = c_l.  So w = x + omega ^ c_a
    with c_l = s_il for the first i != l, and x holds the qualifying
    coefficients and the differences s_il - c_l.  v lies in F_2 + H when it
    has no gr_0 part, its gr_1 part r_1 is omega ^ h_a with h_a integral
    (x = 0, c = h_a) and r_2, r_3 are integral; then omega ^ h_a lies in H
    and r_3 in F_3, and the order is that of r_2: the lcm of the
    denominators of x for u = x + omega ^ c_a, which is scale / gcd(scale,
    their numerators), as lcm(scale / g_i) = scale / gcd(g_i) for g_i | scale.
    Q c adds nothing: k r_2 - gr(k x) = omega ^ k Q c is integral with k x.
    """
    g = ctx.g
    nums, scale = delta_inverse_gr2(ctx.q_matrix, WedgeVector._from_sorted(2 * g, 3, parts[2]))

    def split(w: dict):
        s = [
            [(-1 if i < l else 1) * w.get((min(i, l), max(i, l), g + i), 0)
             for i in range(g) if i != l]
            for l in range(g)
        ]
        qual = [c for t, c in w.items() if t[2] - g not in t[:2]]
        return qual, [y - row[0] for row in s for y in row[1:]], [row[0] for row in s]

    qual, diffs, h_a = split(parts[1]) if parts[1] else ((), (), ())
    integral = chain(h_a, parts[2].values(), parts[3].values())
    if parts[0] or any(qual) or any(diffs) or any(c.denominator != 1 for c in integral):
        raise PreconditionError(
            "class does not lie in F2 + H; its graded order is undefined"
        )
    qual, diffs, _ = split(nums)
    order = scale // gcd(scale, *qual, *diffs)
    return (nums, scale), order, any(n % scale for n in qual)


def ceresa_order(ctx: PipelineContext, v: WedgeVector):
    """Order of v in the graded quotient (F2 L + H)/((delta-I)F1 L + F3 L + H),
    for any class at maximal rank; deficient rank raises PreconditionError."""
    return _u_and_order(ctx, _by_y_degree(ctx, v))[1]


def framed_class(ctx: PipelineContext, v: WedgeVector) -> tuple:
    """(s, y, blocks) for the orders of v (README, "Orders"): the scale
    s = (g-1) den(v), y = s y* with y* the forced H part, and
    s (v - omega ^ y*) in the Smith frame, by block key: its monomials'
    sorted indices mod g.  s v - omega ^ y is one dict, the terms of
    -omega ^ y merged in by one wedge step with zeros dropped, and goes
    into the frame by its sparse columns.  Both orders of a class read
    this one image."""
    g, h = ctx.g, ctx.basis.h
    den = lcm(*(c.denominator for c in v.coeffs.values()))
    num = {t: int(c * den) for t, c in v.coeffs.items()}
    div = g - 1
    y = [0] * (2 * g)  # Lambda(den v), then the b slots of C
    for (p, r, t), c in num.items():
        y[t] += c * (r == p + g)
        y[r] -= c * (t == p + g)
        y[p] += c * (t == r + g)
    for i in range(h):
        y[g + i] = -div * num.get((h, g + i, g + h), 0) if h < g else 0
    terms = {t: div * c for t, c in num.items()}  # s v, less omega ^ y below
    for t, c in _wedge_step({(i, g + i): -1 for i in range(g)}, _sparse(y)).items():
        if x := terms.get(t, 0) + c:
            terms[t] = x
        else:
            del terms[t]
    sx = WedgeVector._from_sorted(2 * g, 3, terms)
    return div * den, y, _by_block(apply_columns(ctx.frame, sx).coeffs, g)


def _by_block(terms: dict, g: int) -> dict:
    """Terms {monomial: coefficient} by block key: {key: {monomial: coefficient}}."""
    blocks: dict = {}
    for t, c in terms.items():
        blocks.setdefault(tuple(sorted(i % g for i in t)), {})[t] = c
    return blocks


def forced_order(ctx: PipelineContext, v: WedgeVector, q: int | None = None, framed=None):
    """Least k > 0 with k v in (delta-I)L + H, or in (delta-I)L + F_q L + H
    when q is given; math.inf if there is none (README, "Orders").
    `framed` is v's `framed_class`, built here when not given.

    In k v = (delta-I) z + f + omega ^ y, y = k y* is forced but for y_b at
    h = g when q is None, where y'_l = (U y_b)_l matters mod d_l only: its
    column is -s omega' ^ b_l.  Every block and its part of these columns
    is read as congruences from its pattern, its cycle slots, q and the
    d-values, with no lattice of wedge^3 (`_block_plan`, `_blocks_order`).
    The order is the lcm of den(y*) and the blocks' least k.
    """
    if q not in (None, 2):
        raise ValueError("forced_order reads q = 2 or q = None")
    g, h, d = ctx.g, ctx.basis.h, ctx.q_diagonal
    scale, y, blocks = framed or framed_class(ctx, v)
    k = scale // gcd(scale, *y)
    columns: dict = {}  # block key -> {l: the block's part of the y'_l column}
    if h == g and q is None:
        form = ctx.omega_frame.coeffs
        for l in (l for l in range(g) if d[l] != 1):
            for key, part in _by_block(_wedge_step(form, [(g + l, -scale)]), g).items():
                columns.setdefault(key, {})[l] = part
    if columns:
        blocks = dict.fromkeys(columns, {}) | blocks
    tags = (_block_tag(key, tag, columns.get(key, {}), d, h, q) for key, tag in blocks.items())
    return lcm(k, _blocks_order(tags, scale)) or inf


def _block_tag(key: tuple, tag: dict, columns: dict, d: list, h: int, q: int | None) -> tuple:
    """(reading, tag, d-values, columns) of the block at `key` on a context
    with Smith diagonal d and cycle rank h, the tag {monomial: coefficient}
    and y'_l columns {l: tag} in local indices, as `_blocks_order` reads it."""
    idx, local, reading = _block_plan(key, len(d), h, q)
    if columns:
        columns = {l: {local[t]: c for t, c in col.items()} for l, col in columns.items()}
    return reading, {local[t]: c for t, c in tag.items()}, [d[i] for i in idx], columns


@lru_cache(maxsize=4096)
def _block_plan(key: tuple, g: int, h: int, q: int | None) -> tuple:
    """(slots, local, reading) of a block key on a context of genus g and
    cycle rank h: its sorted distinct slots, the map from its monomials to
    local ones (indices a's, then b's) and its `_block_reading` at q,
    resolved once per key; shared, so read only."""
    idx = tuple(sorted(set(key)))
    m = len(idx)
    index = {x: p for p, x in enumerate(idx)} | {g + x: m + p for p, x in enumerate(idx)}
    local = {t: tuple(map(index.get, t)) for t in combinations(index, 3)
             if tuple(sorted(i % g for i in t)) == key}
    return idx, local, _block_reading(tuple(map(idx.index, key)), tuple(i < h for i in idx), q)


@cache
def _block_reading(pattern: tuple, cycle: tuple, q: int | None) -> tuple:
    """How a block of wedge^3 in the Smith frame is read, by its index
    pattern over local slots, which of them are cycle slots (d_p != 0,
    b_p in Y) and q (README, "Orders").  A local monomial is a sorted
    triple over the block's m slots, a_p = p and b_p = m + p.

    (zeros, units, diagonal, rank_one, triple): the coordinates with no
    relation, which must vanish; the F_q coordinates, each read mod s; the
    (monomial, slots) read mod s gcd(d_p, p in slots); the rank-one rows,
    each [(monomial, sign, slot)] with coefficients sign d_slot; and for
    three cycle slots at q = None, the signed singles, pairs (bba, bab, abb)
    and bbb that meet M_S, or None; such a block has no other coordinates
    but its zero aaa.  Weight slots and a doubled index keep their factor,
    so each block is copies of one active part on its cycle slots;
    positional signs are those of sorting."""
    m = len(cycle)
    zeros, units, diagonal, rank_one, triple = [], [], [], [], None

    def mono(bs):  # the monomial with b's at the slots bs, and its sign
        seq = [p + m * (p in bs) for p in range(m)]
        return tuple(sorted(seq)), (-1) ** sum(x > y for x, y in combinations(seq, 2))

    if m == 2:  # a_r ^ b_r ^ x_p: a_r ^ b_r is fixed
        r = pattern[1]
        p = 1 - r
        zeros.append(tuple(sorted((r, m + r, p))))
        t = tuple(sorted((r, m + r, m + p)))
        if not cycle[p]:
            zeros.append(t)
        elif q == 2 and cycle[r]:
            units.append(t)
        else:
            diagonal.append((t, (p,)))
        return zeros, units, diagonal, rank_one, triple
    act = tuple(p for p in range(m) if cycle[p])
    weight = [p for p in range(m) if not cycle[p]]
    for bw in chain.from_iterable(combinations(weight, n) for n in range(len(weight) + 1)):
        zeros.append(mono(bw)[0])
        singles = [(*mono(bw + (p,)), p) for p in act]
        if len(act) == 1:
            diagonal.append((singles[0][0], act))
        elif len(act) == 3 and q is None:
            pairs = [mono(ps) for ps in ((0, 1), (0, 2), (1, 2))]
            triple = [t[:2] for t in singles], pairs, mono(act)
        elif act:
            rank_one.append(singles)
            for n in range(2, len(act) + 1):
                for ps in combinations(act, n):
                    t = mono(bw + ps)[0]
                    if q == 2:
                        units.append(t)
                    else:
                        diagonal.append((t, ps))
    return zeros, units, diagonal, rank_one, triple


def _block_congruences(reading: tuple, tag: dict, d: list, s: int) -> tuple | None:
    """(K0, [(E, x)]) of a block's tag t, read by its `_block_reading`: k t
    lies in s R_S exactly when k = K0 n with n x = 0 mod E for every pair,
    each E > 0 (README, "Orders"); None when only k = 0 does.  Each x is
    linear in t but on the three-cycle-slot blocks, whose K0 and c' term
    come from t's singles."""
    zeros, units, diagonal, rank_one, triple = reading
    if any(t in tag for t in zeros):
        return None
    if triple:
        return _triple_congruences(triple, tag, d, s)
    out = [(s, tag.get(t, 0)) for t in units]  # k w_c = 0 mod s on F_q
    out += [(s * gcd(*(d[p] for p in ps)), tag.get(t, 0)) for t, ps in diagonal]
    for row in rank_one:
        xs = [sign * tag.get(t, 0) for t, sign, _ in row]
        ds = [d[p] for *_, p in row]
        if any(x * dy != y * dx for (x, dx), (y, dy) in combinations(zip(xs, ds), 2)):
            return None
        e = s * gcd(*ds)
        out += [(e, x) for x in xs]
    return 1, out


def _triple_congruences(triple: tuple, tag: dict, d: list, s: int) -> tuple | None:
    """`_block_congruences` of a block {i < j < k} of three cycle slots at
    q = None (README, "Orders").  Its singles t_1 must be c p, p = d / G,
    else None; then K0 = s G / gcd(s G, c), and n w = 0 modulo
    s (M_S + G bbb) for w = K0 T - s c' rho, c' = c / gcd(s G, c), T the
    pairs and bbb, rho the pair and bbb part of the image of aaa: the
    coordinates (w V_S)_c mod s e_c and w_bbb mod s G."""
    singles, pairs, (bbb, sign) = triple
    t1 = [sgn * tag.get(t, 0) for t, sgn in singles]
    if any(x * dy != y * dx for (x, dx), (y, dy) in combinations(zip(t1, d), 2)):
        return None
    big = gcd(*d)
    sg = s * big
    c = t1[0] * big // d[0]
    k0 = sg // gcd(sg, c)
    c1 = c // gcd(sg, c)
    rho = [d[0] * d[1], d[0] * d[2], d[1] * d[2]]
    w = [k0 * sgn * tag.get(t, 0) - s * c1 * r for (t, sgn), r in zip(pairs, rho)]
    e, vm = _triple_smith(*d)
    out = [(s * ec, sum(wa * row[col] for wa, row in zip(w, vm))) for col, ec in enumerate(e)]
    return k0, out + [(sg, k0 * sign * tag.get(bbb, 0) - s * c1 * prod(d))]


@lru_cache(maxsize=1024)
def _triple_smith(di: int, dj: int, dk: int) -> tuple:
    """(e, V) of the Smith form U M_S V = diag(e) of a block {i < j < k}
    (`intlinalg.smith_diagonal`), M_S = [[dj, dk, 0], [di, 0, dk],
    [0, di, dj]] in the coordinates (bba, bab, abb): coker M_S is
    Z/e_1 + Z/e_2 + Z/e_3 through x -> x V mod e.  Read by `group_table`
    and `forced_order`."""
    e, _, v = la.smith_diagonal([[dj, dk, 0], [di, 0, dk], [0, di, dj]])
    return tuple(e), tuple(map(tuple, v))


def _blocks_order(blocks, s: int) -> int:
    """Least k > 0 with k t in s R + <y'> over all blocks, or 0 if there is
    none, for blocks (reading, tag t, d-values, y'_l columns) as `_block_tag`
    gives them and the scale s (README, "Orders", "Result").

    Every tag and y'_l column reads as congruences (`_block_congruences`), a
    column as linear with K0 = 1.  So k = K n for K = lcm(K0), n the order
    of x, the class column scaled by K / K0, in G = (+ Z/E) / <y'>.  A
    coordinate that no column touches mod E splits off G; read unscaled, it
    gives K0 E / gcd(E, x), whose lcm with K is the same.  The rest span one
    full-rank `Lattice` with the E e_c and the y' columns: their n is the
    den of x's back-substitution.
    """
    k, big, core, ys = 1, 1, [], {}  # core: (E, x, K0); ys: l -> {core coordinate: y'_l}
    for reading, tag, d, columns in blocks:
        read = _block_congruences(reading, tag, d, s)
        if read is None:
            return 0
        k0, split = read
        if columns:
            big = lcm(big, k0)
            cols = [(l, _block_congruences(reading, col, d, s)[1])
                    for l, col in columns.items()]
            rest = []
            for c, (e, x) in enumerate(split):
                if hit := [(l, y) for l, col in cols if (y := col[c][1] % e)]:
                    for l, y in hit:
                        ys.setdefault(l, {})[len(core)] = y
                    core.append((e, x, k0))
                else:  # Z/E splits off G
                    rest.append((e, x))
            split = rest
        k = lcm(k, k0 * lcm(*(e // gcd(e, x) for e, x in split)))
    if core:
        rows = [{c: e} for c, (e, _, _) in enumerate(core)] + list(ys.values())
        scaled = {c: big // k0 * x for c, (_, x, k0) in enumerate(core)}  # x by K / K0
        k = lcm(k, big * la.Lattice(len(core), rows).back_substitute(scaled)[1])
    return k


def ambient_order(ctx: PipelineContext, v: WedgeVector):
    """Order of v in wedge^3 H / ((delta-I) wedge^3 H + H)."""
    return forced_order(ctx, v)


def in_Abar_test(ctx: PipelineContext, j_total: WedgeVector) -> dict:
    """Membership of the total class in F2 L + (delta-I)L + H, with the
    least positive multiple that lands inside."""
    least = forced_order(ctx, j_total, 2)
    return {"in_Abar": least == 1, "least_multiple": least}


def zharkov_test(ctx: PipelineContext, v: WedgeVector) -> dict:
    """Push v one graded level further and test it against the relations
    (delta-I)^2 (a_i ^ a_j ^ b_k) = 2 Q a_i ^ Q a_j ^ b_k; an obstruction
    here certifies nontriviality.  Returns w, whether it is obstructed, and
    the witness: the least coordinate (p, q, r) of wedge^3(P) w that its
    divisor 2 gcd(d_p d_q, d_p d_r, d_q d_r) does not divide, with its value
    and divisor, or None.

    delta - I kills every b_k and sends a_j to Q a_j, so w = (delta-I) v
    takes each a_m ^ b_p ^ b_r of v to Q a_m ^ b_p ^ b_r: one wedge step
    b_p ^ b_r ^ (sum_m c_mpr Q a_m) per Y-pair (p, r).  w lies in wedge^3 Y,
    where P acts as wedge^3 U, and as U Q Z^g = D Z^g, wedge^3 U maps the
    relations' span onto that of the 2 d_p d_q b_p ^ b_q ^ b_r: one
    divisibility per coordinate of wedge^3(P) w, and no relation is built.
    """
    if not ctx.maximal_rank:
        raise PreconditionError("obstruction test needs maximal rank")
    if not is_pure_gr2(ctx, v):
        raise PreconditionError("obstruction test expects a two-Y-factor class")
    g = ctx.g
    qa = [[(g + s, x) for s, x in enumerate(col) if x] for col in la.columns(ctx.q_matrix)]
    sums: dict = {}  # (p, r) -> sum_m c_mpr Q a_m, on the b side
    for (m, p, r), c in v.coeffs.items():
        col = sums.setdefault((p, r), {})
        for i, x in qa[m]:
            col[i] = col.get(i, 0) + c * x
    w: dict = {}
    for pair, col in sums.items():
        for t, c in _wedge_step({pair: 1}, col.items()).items():
            w[t] = w.get(t, 0) + c
    w = WedgeVector._from_sorted(2 * g, 3, {t: c for t, c in w.items() if c})
    d = {g + i: x for i, x in enumerate(ctx.q_diagonal)}  # by b position
    witness = None
    for (p, q, r), c in sorted(apply_columns(ctx.frame, w).coeffs.items()):
        divisor = 2 * gcd(d[p] * d[q], d[p] * d[r], d[q] * d[r])
        if c % divisor:
            witness = {"monomial": (p, q, r), "value": c, "divisor": divisor}
            break
    return {"obstructed": witness is not None, "w": w, "witness": witness}


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class CeresaReport:
    ctx: PipelineContext
    table: JohnsonTable
    hyperelliptic: bool
    v: WedgeVector
    u_num: tuple | None  # (N, scale) with u = N / scale, at maximal rank
    verdict: str
    decided_by: str
    order_bbar: int | float | None
    order_ambient: int | float | None
    in_abar: bool | None
    least_multiple: int | float | None
    zharkov: dict | None
    groups: dict | None
    notes: list = field(default_factory=list)

    @cached_property
    def u(self) -> WedgeVector | None:
        """u as Fractions, built only when read."""
        return None if self.u_num is None else _u_fractions(self.ctx, *self.u_num)

    @property
    def invariant_factors(self) -> list:
        return self.ctx.invariant_factors

    def to_json(self) -> dict:
        ctx = self.ctx
        return {
            "curve": curve_to_json(ctx.curve),
            "length_scale": ctx.scale,
            "convention": ctx.basis.convention,
            "table": {"name": self.table.name, "provenance": self.table.provenance},
            "rank_status": ctx.rank_status,
            "hyperelliptic": self.hyperelliptic,
            "invariant_factors": list(self.invariant_factors),
            "v": self.v.to_json(),
            "u": None if self.u is None else self.u.to_json(),
            "verdict": self.verdict,
            "decided_by": self.decided_by,
            "order_in_Bbar": enc_order(self.order_bbar),
            "order_ambient": enc_order(self.order_ambient),
            "in_Abar": self.in_abar,
            "least_multiple_in_Abar": enc_order(self.least_multiple),
            "zharkov": None if self.zharkov is None else zharkov_to_json(self.zharkov),
            "groups": None if self.groups is None else groups_to_json(self.groups),
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        ctx = self.ctx
        g = ctx.g
        lines = [
            f"curve: {len(ctx.curve.vertices)} vertices, "
            f"{len(ctx.curve.edges)} edges, genus {genus(ctx.curve)} "
            f"(cycle rank {ctx.basis.h})",
            f"rank: {ctx.rank_status}; hyperelliptic: {self.hyperelliptic}",
            f"convention: {ctx.basis.convention}",
            f"invariant factors of Q: {tuple(self.invariant_factors)}",
            f"v = {render_wedge(self.v, g)}",
        ]
        if self.u is not None:
            lines.append(f"u = {render_wedge(self.u, g)}")
        if self.order_bbar is not None:
            lines.append(f"order of v in Bbar: {self.order_bbar}")
        if self.in_abar is not None:
            lines.append(f"in Abar: {self.in_abar} (least multiple {self.least_multiple})")
        if self.order_ambient is not None:
            lines.append(f"order modulo (delta-1)L + H: {self.order_ambient}")
        if self.zharkov is not None:
            lines.append(f"zharkov obstruction: {self.zharkov['obstructed']}")
        if self.groups is not None:
            lines.extend(group_lines(self.groups))
        lines.append(f"verdict: {self.verdict} (decided by {self.decided_by})")
        lines += [f"note: {note}" for note in self.notes]
        return "\n".join(lines)


def render_wedge(w: WedgeVector, g: int) -> str:
    if w.is_zero():
        return "0"
    parts = []
    for t, c in sorted(w.coeffs.items()):
        mono = "^".join(f"a{i + 1}" if i < g else f"b{i - g + 1}" for i in t)
        sign = "+" if c > 0 else "-"
        parts.append(f"{sign} {mono}" if abs(c) == 1 else f"{sign} {abs(c)}*{mono}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def nontriviality_verdict(
    ctx: PipelineContext, v: WedgeVector, hyperelliptic: bool, certified: bool = True
) -> dict:
    """Decide the verdict for an assembled class.

    Precedence: a hyperelliptic quotient trumps everything; on the
    maximal-rank path a non-integral qualifying coordinate of u certifies
    nontriviality, then the exact orders decide; off it, membership in the
    graded subgroup and the ambient order decide.  `certified` is False for
    user-supplied tables, downgrading a clean order-1 result to
    indeterminate (the table is not known to come from an involution).
    At maximal rank the ambient order is the Bbar order, read off u with
    no relation lattice (README, "Verdict"); the other branch reads both
    orders by `forced_order`.
    """
    out = dict.fromkeys(("u_num", "order_bbar", "order_ambient", "in_abar", "least_multiple"))
    decisive = None  # a route that certifies nontriviality before the ambient order
    parts = _by_y_degree(ctx, v) if ctx.maximal_rank else None
    if parts and not (parts[0] or parts[1] or parts[3]):  # v is pure gr_2
        out["u_num"], order, nonintegral = _u_and_order(ctx, parts)
        out["order_bbar"] = out["order_ambient"] = order
        out["in_abar"], out["least_multiple"] = True, 1
        if nonintegral:
            decisive = "u-nonintegral"
        elif order > 1:
            decisive = "order-in-Bbar"
    else:
        framed = framed_class(ctx, v)
        least = forced_order(ctx, v, 2, framed)
        out["in_abar"], out["least_multiple"] = least == 1, least
        if least != 1:
            decisive = "not-in-Abar"
        else:
            out["order_ambient"] = forced_order(ctx, v, None, framed)
    if hyperelliptic:
        verdict, decided = "hyperelliptic-trivial", "hyperelliptic quotient"
    elif decisive:
        verdict, decided = "nontrivial", decisive
    elif out["order_ambient"] > 1:
        verdict, decided = "nontrivial", "order-ambient"
    else:
        verdict, decided = ("trivial" if certified else "indeterminate"), "order-ambient"
    assert verdict in VERDICTS
    out["verdict"] = verdict
    out["decided_by"] = decided
    return out


def analyze(
    curve: TropicalCurve,
    table: JohnsonTable,
    with_groups: bool = True,
    with_zharkov: bool = True,
    plan: GraphPlan | None = None,
) -> CeresaReport:
    """Full pipeline: assemble v, decide the verdict, report everything.
    The verdict is the one `sample` draws read: the curve's graph plan
    (`graph_plan`, built here when not given) at its integer lengths."""
    plan = plan or graph_plan(curve)
    notes = []
    if table.provenance != "builtin":
        notes.append(
            "user table: accepted without topological validation; the verdict "
            "is relative to the supplied values"
        )
    ctx, v, hyper, decision = plan.decide(table, *integer_lengths(curve))
    if decision["verdict"] == "indeterminate":
        notes.append(
            "order 1 relative to a user table does not certify an actual "
            "involution; reporting indeterminate"
        )
    zh = None
    if with_zharkov and decision["u_num"] is not None:
        zh = zharkov_test(ctx, v)
    return CeresaReport(
        ctx=ctx,
        table=table,
        hyperelliptic=hyper,
        v=v,
        zharkov=zh,
        groups=group_table(ctx) if with_groups else None,
        notes=notes,
        **decision,
    )
