"""Vertex-weighted metric multigraphs and their combinatorial operations.

A tropical curve is a connected multigraph (loops and parallel edges allowed)
with a non-negative integer weight on each vertex and a positive rational
length on each edge.  Genus is the first Betti number plus the total weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from . import intlinalg as la
from .errors import PreconditionError, SchemaError

MAX_SEARCH_EDGES = 12  # exhaustive automorphism searches stay desk-sized


@dataclass(frozen=True)
class Vertex:
    id: str
    weight: int


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, str]  # ordered; the orientation seeds cycle signs
    length: Fraction


@dataclass(frozen=True)
class TropicalCurve:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        vids = [v.id for v in self.vertices]
        if len(set(vids)) != len(vids):
            raise SchemaError("duplicate vertex ids")
        eids = [e.id for e in self.edges]
        if len(set(eids)) != len(eids):
            raise SchemaError("duplicate edge ids")
        vset = set(vids)
        for e in self.edges:
            if e.ends[0] not in vset or e.ends[1] not in vset:
                raise SchemaError(f"edge {e.id} has unknown endpoint")
            if e.length <= 0:
                raise SchemaError(f"edge {e.id} must have positive length")
        for v in self.vertices:
            if v.weight < 0:
                raise SchemaError(f"vertex {v.id} has negative weight")
        if not self.vertices:
            raise SchemaError("empty vertex set")
        if not _is_connected(vids, [e.ends for e in self.edges]):
            raise SchemaError("graph is not connected")

    # -- convenience views ---------------------------------------------------

    def sorted_vertices(self) -> list[Vertex]:
        return sorted(self.vertices, key=lambda v: v.id)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=lambda e: e.id)

    def valence(self, vid: str) -> int:
        val = 0
        for e in self.edges:
            val += (e.ends[0] == vid) + (e.ends[1] == vid)
        return val

    def total_weight(self) -> int:
        return sum(v.weight for v in self.vertices)

    def with_lengths(self, lengths: dict[str, Fraction]) -> "TropicalCurve":
        missing = {e.id for e in self.edges} - set(lengths)
        if missing:
            raise SchemaError(f"lengths missing for edges {sorted(missing)}")
        edges = tuple(
            Edge(e.id, e.ends, Fraction(lengths[e.id])) for e in self.edges
        )
        return TropicalCurve(self.vertices, edges)


def tropical_curve(vertices, edges) -> TropicalCurve:
    """Build a curve from (id, weight) and (id, (u, v), length) tuples."""
    vs = tuple(Vertex(str(i), int(w)) for i, w in vertices)
    es = tuple(
        Edge(str(i), (str(u), str(v)), Fraction(l)) for i, (u, v), l in edges
    )
    return TropicalCurve(vs, es)


def with_sorted_lengths(curve: TropicalCurve, lengths) -> TropicalCurve:
    """The curve with new edge lengths, listed in id-sorted edge order."""
    ids = [e.id for e in curve.sorted_edges()]
    if len(lengths) != len(ids):
        raise SchemaError(f"graph has {len(ids)} edges, got {len(lengths)} lengths")
    return curve.with_lengths(dict(zip(ids, lengths)))


def _is_connected(vertex_ids, end_pairs) -> bool:
    if not vertex_ids:
        return False
    adj = {v: set() for v in vertex_ids}
    for u, v in end_pairs:
        adj[u].add(v)
        adj[v].add(u)
    seen = {vertex_ids[0]}
    stack = [vertex_ids[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertex_ids)


def _connected_with_edges(curve: TropicalCurve, keep) -> bool:
    return _is_connected(
        [v.id for v in curve.vertices],
        [e.ends for e in curve.edges if e.id in keep],
    )


# ---------------------------------------------------------------------------
# genus, stabilization, scaling


def graph_genus(curve: TropicalCurve) -> int:
    """First Betti number h = |E| - |V| + 1."""
    return len(curve.edges) - len(curve.vertices) + 1


def genus(curve: TropicalCurve) -> int:
    return graph_genus(curve) + curve.total_weight()


def is_stable(curve: TropicalCurve) -> bool:
    return all(2 * v.weight - 2 + curve.valence(v.id) > 0 for v in curve.vertices)


def stabilize(curve: TropicalCurve) -> TropicalCurve:
    """Contract to the unique stable model, preserving the metric space.

    Weight-0 leaves are deleted and weight-0 two-valent vertices suppressed
    (their edges merge, lengths adding) until every vertex v satisfies
    2*w(v) - 2 + val(v) > 0.  Defined for genus >= 2 only.
    """
    if genus(curve) < 2:
        raise PreconditionError("stable model requires genus >= 2")
    verts = {v.id: v.weight for v in curve.vertices}
    edges = {e.id: (e.ends, e.length) for e in curve.edges}
    while True:
        incident = {vid: [] for vid in verts}  # a loop is listed twice
        for eid, ((u, w), _) in edges.items():
            incident[u].append(eid)
            incident[w].append(eid)
        zero = [vid for vid in sorted(verts) if verts[vid] == 0]
        leaf = next((vid for vid in zero if len(incident[vid]) == 1), None)
        if leaf is not None:
            del edges[incident[leaf][0]]
            del verts[leaf]
            continue
        # a loop vertex has one edge twice; genus >= 2 rules out the bare circle
        vid = next((v for v in zero if len(set(incident[v])) == len(incident[v]) == 2), None)
        if vid is None:
            break
        ia, ib = sorted(incident[vid])
        (ua, wa), la = edges.pop(ia)
        (ub, wb), lb = edges.pop(ib)
        merged = f"{ia}+{ib}"
        while merged in edges:
            merged += "'"
        edges[merged] = ((wa if ua == vid else ua, wb if ub == vid else ub), la + lb)
        del verts[vid]
    return TropicalCurve(
        tuple(Vertex(i, w) for i, w in sorted(verts.items())),
        tuple(Edge(i, ends, l) for i, (ends, l) in sorted(edges.items())),
    )


def scaled_to_integer(curve: TropicalCurve) -> tuple[TropicalCurve, int]:
    """Clear denominators; returns (scaled curve, scale factor)."""
    scale = lcm(*(e.length.denominator for e in curve.edges)) if curve.edges else 1
    if scale == 1:
        return curve, 1
    edges = tuple(Edge(e.id, e.ends, e.length * scale) for e in curve.edges)
    return TropicalCurve(curve.vertices, edges), scale


# ---------------------------------------------------------------------------
# spanning trees and the Symanzik polynomial


def spanning_trees(curve: TropicalCurve) -> list[tuple[str, ...]]:
    """All spanning trees as sorted edge-id tuples.  Loops never occur."""
    nonloop = [e for e in curve.sorted_edges() if e.ends[0] != e.ends[1]]
    need = len(curve.vertices) - 1
    trees = []
    for combo in combinations(nonloop, need):
        ids = {e.id for e in combo}
        if _connected_with_edges(curve, ids):
            trees.append(tuple(sorted(ids)))
    return trees


def symanzik(curve: TropicalCurve) -> Fraction:
    """Sum over spanning trees T of the product of lengths of edges not in T.

    That is prod_e l_e times det L, by Kirchhoff's matrix-tree theorem, for L
    the Laplacian with edge weights 1/l_e less one vertex's row and column.
    Loops lie in no tree: they stay in the product and out of L.  The
    weights c/l_e, c the lcm of the numerators, are integral; the product of
    the Smith diagonal of that Laplacian is c^(|V|-1) det L.
    """
    index = {v.id: i for i, v in enumerate(curve.vertices)}
    c = lcm(*(e.length.numerator for e in curve.edges))
    lap = [[0] * len(index) for _ in index]
    for e in curve.edges:
        i, j = (index[x] for x in e.ends)
        if i != j:
            w = int(c / e.length)
            for s, t, x in ((i, i, w), (j, j, w), (i, j, -w), (j, i, -w)):
                lap[s][t] += x
    reduced = [row[1:] for row in lap[1:]]
    det = prod(la.invariant_factor_diagonal(reduced))
    return prod((e.length for e in curve.edges), start=Fraction(det, c ** len(reduced)))


# ---------------------------------------------------------------------------
# involutions, quotients, hyperellipticity


@dataclass(frozen=True)
class Involution:
    """Order <= 2 automorphism: length-preserving, fixing positive weights.

    flipped_loops marks fixed loops on which the involution reverses the
    circle; for non-loop edges the flip status follows from the vertex map.
    """

    vertex_map: dict = field(compare=True)
    edge_map: dict = field(compare=True)
    flipped_loops: frozenset = field(default_factory=frozenset)


def validate_involution(curve: TropicalCurve, inv: Involution) -> None:
    vm, em = inv.vertex_map, inv.edge_map
    vertices = {v.id: v for v in curve.vertices}
    edges = {e.id: e for e in curve.edges}
    if set(vm) != set(vertices) or set(vm.values()) != set(vm):
        raise SchemaError("vertex map is not a permutation")
    if set(em) != set(edges) or set(em.values()) != set(em):
        raise SchemaError("edge map is not a permutation")
    for v, img in vm.items():
        if vm[img] != v:
            raise SchemaError("vertex map is not an involution")
        if vertices[v].weight != vertices[img].weight:
            raise SchemaError("vertex map does not preserve weights")
        if vertices[v].weight > 0 and img != v:
            raise SchemaError("positive-weight vertex moved")
    for e, img in em.items():
        if em[img] != e:
            raise SchemaError("edge map is not an involution")
        a, b = edges[e].ends
        if {vm[a], vm[b]} != set(edges[img].ends):
            raise SchemaError("edge map incompatible with incidence")
        if edges[e].length != edges[img].length:
            raise SchemaError("edge map does not preserve lengths")
    for e in inv.flipped_loops:
        edge = edges.get(e)
        if edge is None or edge.ends[0] != edge.ends[1] or em[e] != e:
            raise SchemaError("flipped_loops must be fixed loop edges")


def _vertex_involutions(curve: TropicalCurve):
    """Vertex involutions that fix positive weights and pair only vertices
    with equal profiles (weight, sorted incidences), each as a fresh dict.
    An incidence is (length tag, is loop); a loop gives two."""
    if len(curve.edges) > MAX_SEARCH_EDGES:
        raise PreconditionError(
            f"involution search capped at {MAX_SEARCH_EDGES} edges"
        )
    weight = {v.id: v.weight for v in curve.vertices}
    incidences: dict = {v: [] for v in weight}
    tags: dict = {}  # a small int per distinct length sorts faster than a Fraction
    for e in curve.edges:
        tag = tags.setdefault(e.length, len(tags))
        for x in e.ends:
            incidences[x].append((tag, e.ends[0] == e.ends[1]))
    profiles = {v: (weight[v], sorted(inc)) for v, inc in incidences.items()}
    vids = sorted(weight)

    def extend(i, vmap):
        if i == len(vids):
            yield dict(vmap)
            return
        v = vids[i]
        if v in vmap:
            yield from extend(i + 1, vmap)
            return
        candidates = [v] + [
            u
            for u in vids[i + 1 :]
            if u not in vmap and profiles[u] == profiles[v] and weight[v] == 0
        ]
        for u in candidates:
            vmap[v] = u
            vmap[u] = v
            yield from extend(i + 1, vmap)
            del vmap[v]
            if u != v:
                del vmap[u]

    yield from extend(0, {})


def quotient_curve(curve: TropicalCurve, inv: Involution) -> TropicalCurve:
    """Metric quotient by an involution.

    Swapped edge pairs give one edge, pointwise-fixed edges persist, and a
    fixed edge with swapped endpoints (or a reflected loop) folds onto a
    half-length pendant edge.
    """
    validate_involution(curve, inv)
    vm, em = inv.vertex_map, inv.edge_map
    orbit = {v: min(v, vm[v]) for v in vm}
    verts = {orbit[v.id]: v.weight for v in curve.vertices}
    edges = []
    seen = set()
    for e in curve.sorted_edges():
        if e.id in seen:
            continue
        img = em[e.id]
        u, w = e.ends
        seen.update((e.id, img))
        folded = img == e.id and (
            e.id in inv.flipped_loops if u == w else vm[u] != u
        )
        if folded:
            tip = f"{e.id}__tip"
            while tip in verts:  # the curve may already use the name
                tip += "'"
            verts[tip] = 0
            edges.append((e.id, (orbit[u], tip), e.length / 2))
        else:
            edges.append((e.id, (orbit[u], orbit[w]), e.length))
    return TropicalCurve(
        tuple(Vertex(i, w) for i, w in sorted(verts.items())),
        tuple(Edge(i, ends, l) for i, ends, l in edges),
    )


def _tree_quotient_candidates(curve: TropicalCurve):
    """The involutions whose quotient is a tree: at most one per vertex
    involution, whose edge map the vertex map forces by the -1 rule.

    H_1(G/iota; Q) is the iota-invariant part of H_1(G; Q) (the transfer,
    once the edges iota reverses are subdivided), so the connected quotient
    is a tree exactly when iota acts as -1 on H_1.  With c_e the loop class
    of edge e and iota sending oriented e to eps * f (eps = -1 when it
    reverses e), that holds exactly when c_f = -eps * c_e for every edge:
    f is keyed (image ends, length, -c_e) or (image ends reversed, length,
    c_e).  At most one edge has either key: two parallel edges with equal
    oriented classes would give every cycle equal coefficients on both,
    which the cycle through the pair refutes, and two bridges (c = 0) are
    never parallel.  A loop's class is the unit vector of its own chord, so
    a loop goes to itself, reflected, and has no image where its vertex
    moves.  e is the edge keyed for the image of f, so the edge map is an
    involution with no check.
    """
    from .symplectic import homology_basis  # symplectic imports this module

    loop_class = homology_basis(curve).edge_loop_class
    index = {(e.ends, e.length, loop_class[e.id]): e.id for e in curve.edges}
    loops = frozenset(e.id for e in curve.edges if e.ends[0] == e.ends[1])
    for vmap in _vertex_involutions(curve):
        emap = {}
        for ((u, w), length, c), eid in index.items():
            a, b = vmap[u], vmap[w]
            minus = tuple(-x for x in c)
            f = index.get(((a, b), length, minus), index.get(((b, a), length, c)))
            if f is None:
                break
            emap[eid] = f
        else:
            yield Involution(vmap, emap, loops)


def _hyperelliptic_search(curve: TropicalCurve):
    """Tree-quotient involutions of a stable curve, each certified by
    building its quotient with `quotient_curve`, lazily."""
    if not is_stable(curve):
        raise PreconditionError("hyperellipticity test expects a stable curve")
    for inv in _tree_quotient_candidates(curve):
        if graph_genus(quotient_curve(curve, inv)) != 0:
            raise RuntimeError(f"the -1 rule and the quotient disagree on {inv}")
        yield inv


def hyperelliptic_involutions(curve: TropicalCurve) -> list[Involution]:
    """Involutions fixing positive weights whose metric quotient is a tree.

    Each vertex involution forces at most one edge map, the one acting as
    -1 on H_1 (see `_tree_quotient_candidates`); each involution returned
    is still checked by `quotient_curve`.
    """
    return list(_hyperelliptic_search(curve))


def is_hyperelliptic(curve: TropicalCurve) -> bool:
    """Whether a tree-quotient involution exists; stops at the first one."""
    return next(_hyperelliptic_search(curve), None) is not None


# ---------------------------------------------------------------------------
# JSON schema


def curve_to_json(curve: TropicalCurve) -> dict:
    return {
        "vertices": [
            {"id": v.id, "weight": v.weight} for v in curve.sorted_vertices()
        ],
        "edges": [
            {"id": e.id, "ends": list(e.ends), "length": str(e.length)}
            for e in curve.sorted_edges()
        ],
    }


def curve_from_json(data) -> TropicalCurve:
    verts, edges = [], []
    try:
        for v in data["vertices"]:
            w = v["weight"]
            if isinstance(w, bool) or not isinstance(w, int):
                raise ValueError(f"vertex weight {w!r} is not an integer")
            verts.append(Vertex(str(v["id"]), w))
        for e in data["edges"]:
            ends = e["ends"]
            if not (isinstance(ends, list) and len(ends) == 2):
                raise ValueError(f"edge ends {ends!r} are not a two-element list")
            length = Fraction(str(e["length"]))
            edges.append(Edge(str(e["id"]), (str(ends[0]), str(ends[1])), length))
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed graph JSON: {exc}") from exc
    return TropicalCurve(tuple(verts), tuple(edges))


def load_curve(path: str) -> TropicalCurve:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return curve_from_json(data)
