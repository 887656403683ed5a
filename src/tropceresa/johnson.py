"""Johnson-homomorphism data: twist tables.

A twist table stores, per edge of a curve, the degree-3 wedge class of the
commutator of that edge's twist with a fixed hyperelliptic quasi-involution.
The involution itself is never represented; only the table is data, and the
downstream obstruction classes depend on it precisely through coboundaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from . import intlinalg as la
from .errors import PreconditionError, SchemaError
from .exterior import WedgeVector, apply_matrix
from .symplectic import HomologyBasis, twist_action


# ---------------------------------------------------------------------------
# twist tables


@dataclass
class JohnsonTable:
    """Per-edge degree-3 wedge values relative to a declared basis.

    A table is checked once, when it is built: every entry names an edge of
    the basis and is a degree-3 wedge class of H, and every bridge carries a
    zero entry.  A bridge is an edge on no cycle, so its loop class is zero,
    and a twist along a separating curve acts trivially on H.
    """

    basis: HomologyBasis
    entries: dict  # edge id -> WedgeVector
    provenance: str = "user"
    name: str = ""

    def __post_init__(self):
        n = 2 * self.basis.g
        loops = self.basis.edge_loop_class
        for eid, w in self.entries.items():
            if eid not in loops:
                raise SchemaError(f"table entry for unknown edge {eid}")
            if (w.n, w.k) != (n, 3):
                raise SchemaError(f"entry for {eid} has wrong degree or rank")
        for eid, loop in loops.items():
            if not any(loop) and not self.entry(eid).is_zero():
                raise SchemaError(
                    f"separating edge {eid} must have a zero table entry"
                )

    def entry(self, edge_id: str) -> WedgeVector:
        return self.entries.get(
            edge_id, WedgeVector.zero(2 * self.basis.g, 3)
        )


def edge_twist_matrix(basis: HomologyBasis, edge_id: str, power: int = 1):
    """Action on H of the (power-th) twist along one edge's loop class."""
    g = basis.g
    loop = [0] * g + list(basis.edge_loop_class[edge_id])
    return twist_action(loop, power, g)


def coboundary_shift(table: JohnsonTable, t: WedgeVector) -> JohnsonTable:
    """Shift every entry by (edge twist - 1) . t; models changing the
    quasi-involution by the group element with value t."""
    g = table.basis.g
    if (t.n, t.k) != (2 * g, 3):
        raise PreconditionError("shift class must live in degree 3")
    entries = {}
    for eid in table.basis.edge_loop_class:
        mat = edge_twist_matrix(table.basis, eid)
        shifted = table.entry(eid) + (apply_matrix(mat, t) - t)
        if not shifted.is_zero():
            entries[eid] = shifted
    return replace(table, entries=entries)


# ---------------------------------------------------------------------------
# JSON


def table_from_json(data, basis: HomologyBasis, name="") -> JohnsonTable:
    try:
        ref = data["basis_ref"]
        if ref["g"] != basis.g or ref["h"] != basis.h:
            raise SchemaError("table basis_ref does not match the curve basis")
        if list(ref["nontree_edges"]) != list(basis.nontree_edges):
            raise SchemaError("table basis_ref lists different non-tree edges")
        entries = {
            str(eid): WedgeVector.from_json(2 * basis.g, 3, wdata)
            for eid, wdata in data["entries"].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"malformed table JSON: {exc}") from exc
    return JohnsonTable(
        basis=basis,
        entries=entries,
        provenance=str(data.get("provenance", "user")),
        name=name or str(data.get("name", "")),
    )


def load_table(path: str, basis: HomologyBasis) -> JohnsonTable:
    """A table read from a file.  Its provenance is "user" whatever the file
    declares: only the built-in catalog certifies a table."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return replace(table_from_json(data, basis), provenance="user")


def transform_table(table: JohnsonTable, new_basis: HomologyBasis, s_matrix):
    """Re-express entries in a new basis; s columns are new vectors in old."""
    s_inv = la.int_inverse(s_matrix)
    images = ((eid, apply_matrix(s_inv, w)) for eid, w in table.entries.items())
    entries = {eid: w for eid, w in images if not w.is_zero()}
    return replace(table, basis=new_basis, entries=entries)
