"""Built-in example curves and twist tables.

Edge ids are chosen so that the greedy lexicographic spanning tree matches
the conventional presentation of each example: tree edges sort first (t*),
chords after (u*).  The digit in each id is the index of the length
parameter in the standard labeling of that example, so `t5` carries c5.

Built-in tables are expressed in the basis produced by homology_basis() for
the built-in curve; callers supplying their own lengths reuse the same basis
because the combinatorial tree choice does not depend on lengths.
"""

from __future__ import annotations

from .errors import SchemaError
from .graph_core import TropicalCurve, genus, tropical_curve, with_sorted_lengths
from .johnson import JohnsonTable
from .exterior import WedgeVector
from .symplectic import homology_basis

BUILTIN_GRAPHS = ("k4", "tl3", "theta-w1", "3balloon", "theta0")
BUILTIN_TABLES = ("k4", "tl3", "theta-w1", "3balloon")


def builtin_curve(name: str, lengths=None) -> TropicalCurve:
    """A built-in curve, optionally with lengths (id-sorted order)."""
    try:
        curve = _GRAPHS[name]()
    except KeyError:
        raise SchemaError(
            f"unknown builtin graph {name!r}; have {', '.join(BUILTIN_GRAPHS)}"
        ) from None
    return curve if lengths is None else with_sorted_lengths(curve, lengths)


def builtin_table(name: str, curve: TropicalCurve | None = None) -> JohnsonTable:
    """A built-in twist table, bound to the basis of the given curve.

    The curve must be the table's own graph at any lengths: the same vertex
    ids and weights, and the same edge ids with the same ordered ends.  A
    built-in table is certified for that graph only, so any other curve,
    even one that names the same edges, is a schema error.
    """
    if name not in _TABLES:
        raise SchemaError(
            f"unknown builtin table {name!r}; have {', '.join(BUILTIN_TABLES)}"
        )
    own = builtin_curve(name)
    curve = own if curve is None else curve
    g, need = genus(curve), genus(own)
    if g != need:
        raise SchemaError(
            f"builtin table {name!r} needs a genus-{need} curve, got genus {g}"
        )
    if _shape(curve) != _shape(own):
        raise SchemaError(
            f"builtin table {name!r} binds only to builtin:{name} (same vertices, "
            "weights, edge ids and ordered ends; lengths are free)"
        )
    basis = homology_basis(curve)
    entries = {
        eid: WedgeVector(2 * g, 3, dict(coeffs))
        for eid, coeffs in _TABLES[name]().items()
    }
    return JohnsonTable(
        basis=basis, entries=entries, provenance="builtin", name=name
    )


def _shape(curve: TropicalCurve) -> tuple:
    """The curve without its lengths: its vertices, and its edge ids with ordered ends."""
    return curve.sorted_vertices(), [(e.id, e.ends) for e in curve.sorted_edges()]


# ---------------------------------------------------------------------------
# graphs


def _k4() -> TropicalCurve:
    # star at d is the tree; chords u1=(b,c), u2=(c,a), u3=(a,b)
    return tropical_curve(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0)],
        [
            ("t4", ("a", "d"), 1),
            ("t5", ("b", "d"), 1),
            ("t6", ("c", "d"), 1),
            ("u1", ("b", "c"), 1),
            ("u2", ("c", "a"), 1),
            ("u3", ("a", "b"), 1),
        ],
    )


def _tl3() -> TropicalCurve:
    # path w0..w5 is the tree; u1, u2 double two path edges, u3, u4 close it
    return tropical_curve(
        [(f"w{i}", 0) for i in range(6)],
        [
            ("t5", ("w0", "w1"), 1),
            ("t6", ("w1", "w2"), 1),
            ("t7", ("w2", "w3"), 1),
            ("t8", ("w3", "w4"), 1),
            ("t9", ("w4", "w5"), 1),
            ("u1", ("w2", "w1"), 1),
            ("u2", ("w1", "w0"), 1),
            ("u3", ("w5", "w0"), 1),
            ("u4", ("w5", "w0"), 1),
        ],
    )


def _theta_w1() -> TropicalCurve:
    return tropical_curve(
        [("u", 1), ("v", 1)],
        [("t1", ("u", "v"), 1), ("u2", ("u", "v"), 1), ("u3", ("u", "v"), 1)],
    )


def _theta0() -> TropicalCurve:
    return tropical_curve(
        [("u", 0), ("v", 0)],
        [("t1", ("u", "v"), 1), ("u2", ("u", "v"), 1), ("u3", ("u", "v"), 1)],
    )


def _3balloon() -> TropicalCurve:
    # hub with three weight-1 balloons on bridges; every twist is separating
    return tropical_curve(
        [("z", 0), ("v1", 1), ("v2", 1), ("v3", 1)],
        [("b1", ("z", "v1"), 1), ("b2", ("z", "v2"), 1), ("b3", ("z", "v3"), 1)],
    )


_GRAPHS = {
    "k4": _k4,
    "tl3": _tl3,
    "theta-w1": _theta_w1,
    "theta0": _theta0,
    "3balloon": _3balloon,
}


# ---------------------------------------------------------------------------
# tables (0-based indices: a_i = i-1, b_i = g+i-1)


def _k4_table():
    a1, a2 = 0, 1
    b1, b2, b3 = 3, 4, 5
    return {
        # chord u2 (parameter c2): a1^b1^b2
        "u2": {(a1, b1, b2): 1},
        # tree edge t5 (parameter c5): -a2^b1^b2 - a2^b2^b3 + a2^b1^b3
        "t5": {(a2, b1, b2): -1, (a2, b2, b3): -1, (a2, b1, b3): 1},
    }


def _tl3_table():
    a1, a2 = 0, 1
    b1, b2, b3, b4 = 4, 5, 6, 7
    plus = {(a1, b1, b3): 1, (a1, b1, b4): 1, (a2, b2, b3): 1, (a2, b2, b4): 1}
    minus = {t: -c for t, c in plus.items()}
    return {
        "t5": {(a1, b1, b2): -1, (a1, b1, b3): -1, (a1, b1, b4): -1},
        "t6": {(a2, b1, b2): -1, (a2, b2, b3): 1, (a2, b2, b4): 1},
        "t7": dict(minus),
        "t8": dict(plus),
        "t9": {(a1, b1, b3): -1, (a1, b1, b4): -1, (a2, b2, b3): 1, (a2, b2, b4): 1},
    }


def _theta_w1_table():
    # Unit-length fixture, split across the three edges.  In this basis the
    # image of delta - I is spanned by 2b1+b2 = (delta-I)a1 and b1+2b2, the
    # primitive vector y2 = 2b1+b2 has integral preimage a1, and 3*y3 with
    # y3 = b1+b2 is the image of a1+a2.  The weight pair (a3, b3) spans the
    # inert slot the total leans on.
    a1, a3 = 0, 2
    b1, b2, b3 = 4, 5, 6
    return {
        # a3 ^ b3 ^ (2 b1 + b2)
        "t1": {(a3, b3, b1): 2, (a3, b3, b2): 1},
        # a3 ^ b3 ^ (b1 + b2)
        "u2": {(a3, b3, b1): 1, (a3, b3, b2): 1},
        # a1 ^ (2b1+b2) ^ (b1+b2) = a1 ^ b1 ^ b2
        "u3": {(a1, b1, b2): 1},
    }


def _3balloon_table():
    # all three twists are separating, so every value vanishes
    return {}


_TABLES = {
    "k4": _k4_table,
    "tl3": _tl3_table,
    "theta-w1": _theta_w1_table,
    "3balloon": _3balloon_table,
}
