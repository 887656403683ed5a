"""Symplectic homology data of a tropical curve.

Fixes a symplectic basis (a_1..a_g, b_1..b_g) of the rank-2g lattice H:
pairs i <= h come from cycles of the graph (a_i the fundamental cycle over a
spanning tree, b_i the loop class of the i-th non-tree edge), and the last
g - h pairs are weight slots on which the edge-length form vanishes.  The
monodromy of the curve is the block-unipotent matrix [[I, 0], [Q, I]].

Sign convention: with the intersection pairing normalized to i(a_k, b_k) = 1,
single twists are composed with TWIST_SIGN = -1 so that the assembled
multitwist reproduces +Q in the lower-left block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from . import intlinalg as la
from .errors import PreconditionError
from .graph_core import TropicalCurve, _connected_with_edges, genus, graph_genus

TWIST_SIGN = -1
CONVENTION = "i(a_k,b_k)=+1; twists composed with sign -1 (monodromy block +Q)"


@dataclass(frozen=True)
class HomologyBasis:
    g: int
    h: int
    tree_edges: tuple[str, ...]
    nontree_edges: tuple[str, ...]          # pair i <-> nontree_edges[i]
    cycles: tuple[tuple[tuple[str, int], ...], ...]  # signed edge vectors
    edge_loop_class: dict                   # edge id -> g-vector of b-coords
    convention: ClassVar[str] = CONVENTION

    def cycle_dicts(self) -> list[dict]:
        return [dict(c) for c in self.cycles]


def homology_basis(curve: TropicalCurve, tree=None) -> HomologyBasis:
    """Deterministic symplectic basis; the tree defaults to the greedy
    lexicographic-by-id choice and any explicit spanning tree may be passed
    (|V| - 1 edge ids that connect the graph).

    One walk of the tree from the first vertex records each vertex's signed
    tree path from there; the cycle of a chord from tail to head is the
    chord plus the tail's path minus the head's, whose common prefix cancels.
    """
    if genus(curve) < 2:
        raise PreconditionError("homology basis requires genus >= 2")
    h = graph_genus(curve)
    g = genus(curve)
    edges = curve.sorted_edges()
    if tree is None:
        tree_ids = _greedy_tree(curve)
    else:
        tree_ids = set(tree)
        if not (
            tree_ids <= {e.id for e in edges}
            and len(tree_ids) == len(curve.vertices) - 1
            and _connected_with_edges(curve, tree_ids)
        ):
            raise PreconditionError("supplied edge set is not a spanning tree")
    adj: dict[str, list] = {}
    for e in edges:
        if e.id in tree_ids:
            u, v = e.ends
            adj.setdefault(u, []).append((v, e.id, 1))
            adj.setdefault(v, []).append((u, e.id, -1))
    first = curve.vertices[0].id
    root = {first: {}}  # vertex -> signed tree path from the first vertex
    stack = [first]
    while stack:
        cur = stack.pop()
        for nxt, eid, sgn in adj.get(cur, ()):
            if nxt not in root:
                root[nxt] = root[cur] | {eid: sgn}
                stack.append(nxt)
    nontree = [e for e in edges if e.id not in tree_ids]
    cycles = []
    for e in nontree:
        cyc = {e.id: 1, **root[e.ends[0]]}
        for eid, sgn in root[e.ends[1]].items():
            cyc[eid] = cyc.get(eid, 0) - sgn
        cycles.append({k: v for k, v in cyc.items() if v})
    loop_class = {}
    for e in edges:
        vec = [cycles[i].get(e.id, 0) for i in range(h)] + [0] * (g - h)
        loop_class[e.id] = tuple(vec)
    return HomologyBasis(
        g=g,
        h=h,
        tree_edges=tuple(sorted(tree_ids)),
        nontree_edges=tuple(e.id for e in nontree),
        cycles=tuple(tuple(sorted(c.items())) for c in cycles),
        edge_loop_class=loop_class,
    )


def _greedy_tree(curve: TropicalCurve) -> set[str]:
    parent = {v.id: v.id for v in curve.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for e in curve.sorted_edges():
        ru, rv = find(e.ends[0]), find(e.ends[1])
        if ru != rv:
            parent[ru] = rv
            tree.add(e.id)
    return tree


# ---------------------------------------------------------------------------
# polarization and monodromy


def polarization_Q(curve: TropicalCurve, basis: HomologyBasis) -> la.Matrix:
    """Gram matrix of the edge-length form on cycles; zero on weight slots."""
    lengths = {}
    for e in curve.edges:
        if e.length.denominator != 1:
            raise PreconditionError(
                f"edge {e.id} has non-integer length {e.length}; scale first"
            )
        lengths[e.id] = e.length.numerator
    g, h = basis.g, basis.h
    cycles = basis.cycle_dicts()
    q = la.zero_matrix(g, g)
    for i in range(h):
        for j in range(i, h):
            s = 0
            for eid, ci in cycles[i].items():
                cj = cycles[j].get(eid, 0)
                if cj:
                    s += lengths[eid] * ci * cj
            q[i][j] = s
            q[j][i] = s
    return q


def delta_from_Q(q: la.Matrix) -> la.Matrix:
    """Unipotent symplectic matrix [[I, 0], [Q, I]]; needs Q symmetric."""
    if not la.is_symmetric(q):
        raise PreconditionError("Q must be symmetric")
    g = len(q)
    d = la.identity(2 * g)
    for i in range(g):
        for j in range(g):
            d[g + i][j] = q[i][j]
    return d


def smith_reduction(q: la.Matrix, h: int) -> tuple[list, la.Matrix, la.Matrix]:
    """(d, U, V) with diag(d) = U Q V and U, V unimodular: the reduction
    `intlinalg.smith_diagonal` of the cycle block Q_h, extended by zeros in
    d and by the identity in U and V on the weight slots, where Q vanishes."""
    g = len(q)
    d, u, v = la.smith_diagonal([row[:h] for row in q[:h]])
    eye = la.identity(g)
    u, v = ([row + [0] * (g - h) for row in m] + eye[h:] for m in (u, v))
    return d + [0] * (g - h), u, v


def smith_frame(q: la.Matrix, d: list, u: la.Matrix) -> la.Matrix:
    """The frame change P = diag(V^-1, U) of a reduction (d, U, V) of Q
    (`smith_reduction`), which takes the monodromy of Q to that of D = diag(d):
    P delta_from_Q(Q) P^-1 = delta_from_Q(D).

    V^-1 is read in closed form, with no elimination: U Q_h V = D with Q_h
    nonsingular gives V^-1 = D^-1 U Q on the cycle slots, row i of U Q
    divided exactly by d_i, and V is the identity on the weight slots, where
    d_i = 0.  U and V are the identity there, so P keeps the a-span and
    Y = span(b_1..b_h) and is graded for the Y-filtration.  P is not
    symplectic.
    """
    g = len(q)
    cols = la.columns(q)
    v_inv = [
        [sum(a * b for a, b in zip(row, col)) // x for col in cols] if x else unit
        for row, x, unit in zip(u, d, la.identity(g))
    ]
    return [row + [0] * g for row in v_inv] + [[0] * g + row for row in u]


def intersection(u, v, g: int):
    """Algebraic intersection pairing with i(a_k, b_k) = +1."""
    return sum(u[k] * v[g + k] - u[g + k] * v[k] for k in range(g))


def twist_action(loop_class, power, g: int) -> la.Matrix:
    """Action on H of the power-th twist along a class;
    h -> h + TWIST_SIGN*c*i(l,h)*l."""
    n = 2 * g
    mat = la.identity(n)
    for j in range(n):
        basis_vec = [int(t == j) for t in range(n)]
        coef = TWIST_SIGN * power * intersection(loop_class, basis_vec, g)
        if coef:
            for i in range(n):
                mat[i][j] += coef * loop_class[i]
    return mat


def invariant_factors(mat: la.Matrix) -> list[int]:
    """Smith normal form diagonal: divisibility chain, zeros last."""
    return la.invariant_factor_diagonal(mat)


# ---------------------------------------------------------------------------
# basis change between two tree choices


def basis_change_matrix(
    old: HomologyBasis, new: HomologyBasis
) -> la.Matrix:
    """Columns are the new basis vectors written in the old basis."""
    if (old.g, old.h) != (new.g, new.h):
        raise PreconditionError("bases belong to different curves")
    g, h = old.g, old.h
    n = 2 * g
    cols = []
    new_cycles = new.cycle_dicts()
    old_nontree = old.nontree_edges
    for i in range(g):
        col = [0] * n
        if i < h:
            cyc = new_cycles[i]
            for j, eid in enumerate(old_nontree):
                col[j] = cyc.get(eid, 0)
        else:
            col[i] = 1
        cols.append(col)
    for i in range(g):
        col = [0] * n
        if i < h:
            lc = old.edge_loop_class[new.nontree_edges[i]]
            for j in range(g):
                col[g + j] = lc[j]
        else:
            col[g + i] = 1
        cols.append(col)
    return la.columns(cols)


def basis_report(curve: TropicalCurve, basis: HomologyBasis) -> dict:
    """JSON-ready description of the basis, for table interpretation."""
    labels = [f"a{i+1}" for i in range(basis.g)] + [
        f"b{i+1}" for i in range(basis.g)
    ]
    return {
        "g": basis.g,
        "h": basis.h,
        "labels": labels,
        "tree_edges": list(basis.tree_edges),
        "nontree_edges": list(basis.nontree_edges),
        "cycles": [
            {eid: sgn for eid, sgn in cyc} for cyc in basis.cycles
        ],
        "edge_loop_classes": {
            eid: list(vec) for eid, vec in sorted(basis.edge_loop_class.items())
        },
        "convention": basis.convention,
    }
