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
    return stable_model(curve)[0]


def stable_model(curve: TropicalCurve) -> tuple[TropicalCurve, dict]:
    """The stable model (`stabilize`) and, per stable edge id, the ids of
    the edges of `curve` whose lengths add up to its length.  Which edges
    are deleted and which merge depends on the weights and valences alone,
    not on the lengths."""
    if genus(curve) < 2:
        raise PreconditionError("stable model requires genus >= 2")
    verts = {v.id: v.weight for v in curve.vertices}
    edges = {e.id: (e.ends, e.length, (e.id,)) for e in curve.edges}
    while True:
        incident = {vid: [] for vid in verts}  # a loop is listed twice
        for eid, ((u, w), _, _) in edges.items():
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
        (ua, wa), la, pa = edges.pop(ia)
        (ub, wb), lb, pb = edges.pop(ib)
        merged = f"{ia}+{ib}"
        while merged in edges:
            merged += "'"
        edges[merged] = ((wa if ua == vid else ua, wb if ub == vid else ub), la + lb, pa + pb)
        del verts[vid]
    stable = TropicalCurve(
        tuple(Vertex(i, w) for i, w in sorted(verts.items())),
        tuple(Edge(i, ends, l) for i, (ends, l, _) in sorted(edges.items())),
    )
    return stable, {i: parts for i, (_, _, parts) in edges.items()}


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
    """The involutions of a stable curve whose quotient is a tree: at most
    one per image of the first vertex, which forces the whole map.

    H_1(G/iota; Q) is the iota-invariant part of H_1(G; Q) (the transfer,
    once the edges iota reverses are subdivided), so the connected quotient
    is a tree exactly when iota acts as -1 on H_1: the edge leaving x with
    loop class c goes to the edge leaving iota(x) with class -c.  README,
    "Hyperellipticity", proves what makes that a walk:
    - at most one edge leaves x with a given class c != 0, and a loop's
      class is the unit vector of its own chord, so a loop is fixed and
      reflected;
    - a bridge (c = 0) is fixed with its ends;
    - where x and y are paired, each edge at x and its image pair their far
      ends, so from the pair start <-> image the vertex map is an
      involution, and so is the edge map, keyed alike from both ends.
    """
    from .symplectic import homology_basis  # symplectic imports this module

    loop_class = homology_basis(curve).edge_loop_class
    weight = {v.id: v.weight for v in curve.vertices}
    fixed = {x for x, w in weight.items() if w}  # fixed by every candidate, as are bridge ends
    out = {x: [] for x in weight}  # x -> (class of e oriented out of x, its negative, e, far end)
    for e in curve.edges:
        (u, w), c = e.ends, loop_class[e.id]
        minus = tuple(-t for t in c)
        out[u].append((c, minus, e, w))
        out[w].append((minus, c, e, u))
        if not any(c):
            fixed.update(e.ends)
    index = {(x, c): (e, far) for x in out for c, _, e, far in out[x] if any(c)}
    loops = frozenset(e.id for e in curve.edges if e.ends[0] == e.ends[1])
    start = min(weight)

    def forced(image):
        """The vertex and edge maps that start <-> image forces, or None."""
        vm, em = {start: image, image: start}, {}
        queue = list(vm)
        for x in queue:
            for c, minus, e, far in out[x]:
                if any(c):
                    f, to = index.get((vm[x], minus), (None, None))
                else:
                    f, to = e, far
                if f is None or f.length != e.length or vm.get(far, to) != to:
                    return None
                if far not in vm:
                    vm[far] = to
                    queue.append(far)
                em[e.id] = f.id
        return vm, em

    for image in [start] if start in fixed else sorted(weight.keys() - fixed):
        maps = forced(image)
        if maps and all(x == y or not weight[x] for x, y in maps[0].items()):
            yield Involution(*maps, loops)


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

    The image of one vertex forces the whole map by the -1 rule (see
    `_tree_quotient_candidates`); each involution returned is still checked
    by `quotient_curve`.
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
