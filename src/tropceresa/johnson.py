"""Johnson-homomorphism data: bounding-pair values and twist tables.

A twist table stores, per edge of a curve, the degree-3 wedge class of the
commutator of that edge's twist with a fixed hyperelliptic quasi-involution.
The involution itself is never represented; only the table is data, and the
downstream obstruction classes depend on it precisely through coboundaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod

from . import intlinalg as la
from .errors import PreconditionError, SchemaError
from .exterior import WedgeVector, apply_matrix
from .graph_core import TropicalCurve, separating_edges
from .symplectic import HomologyBasis, intersection, twist_action


# ---------------------------------------------------------------------------
# symplectic sublattices and the bounding-pair formula


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
            rest.append(
                [x + cb * ai - ca * bi for x, ai, bi in zip(v, a, b)]
            )
        basis.append((a, b))
        vecs = rest
    out = []
    for a, b in basis:
        out.extend([a, b])
    return out


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
    omega_w = WedgeVector.zero(n, 2)
    for t in range(0, len(sympl), 2):
        omega_w = omega_w + WedgeVector(
            n, 1, {(i,): x for i, x in enumerate(sympl[t]) if x}
        ).wedge(WedgeVector(n, 1, {(i,): x for i, x in enumerate(sympl[t + 1]) if x}))
    return omega_w.wedge_vector(list(datum.curve_class))


# ---------------------------------------------------------------------------
# crossed-homomorphism evaluation


def cocycle_eval(values, word) -> WedgeVector:
    """Fold a crossed homomorphism along a word.

    values: list of (matrix on H, wedge value); word: (index, +-1) letters.
    Uses m(xy) = m(x) + x.m(y) and m(x^-1) = -x^-1.m(x).
    """
    if not values:
        raise PreconditionError("no letter values supplied")
    n = values[0][1].n
    k = values[0][1].k
    acc = la.identity(n)
    total = WedgeVector.zero(n, k)
    for idx, sign in word:
        mat, val = values[idx]
        if len(mat) != n:
            raise PreconditionError("matrix dimension mismatch")
        if sign == 1:
            total = total + apply_matrix(acc, val)
            acc = la.mat_mul(acc, mat)
        elif sign == -1:
            inv = la.int_inverse(mat)
            total = total - apply_matrix(la.mat_mul(acc, inv), val)
            acc = la.mat_mul(acc, inv)
        else:
            raise SchemaError("letter signs must be +-1")
    return total


# ---------------------------------------------------------------------------
# twist tables


@dataclass
class JohnsonTable:
    """Per-edge degree-3 wedge values relative to a declared basis."""

    basis: HomologyBasis
    entries: dict  # edge id -> WedgeVector
    provenance: str = "user"
    name: str = ""

    def entry(self, edge_id: str) -> WedgeVector:
        return self.entries.get(
            edge_id, WedgeVector.zero(2 * self.basis.g, 3)
        )


def validate_table(curve: TropicalCurve, table: JohnsonTable) -> None:
    basis = table.basis
    n = 2 * basis.g
    ids = {e.id for e in curve.edges}
    for eid, w in table.entries.items():
        if eid not in ids:
            raise SchemaError(f"table entry for unknown edge {eid}")
        if (w.n, w.k) != (n, 3):
            raise SchemaError(f"entry for {eid} has wrong degree or rank")
    for eid in separating_edges(curve):
        if not table.entry(eid).is_zero():
            raise SchemaError(
                f"separating edge {eid} must have a zero table entry"
            )


def basis_matches(a: HomologyBasis, b: HomologyBasis) -> bool:
    return (
        a.g == b.g
        and a.h == b.h
        and a.nontree_edges == b.nontree_edges
        and a.cycles == b.cycles
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
    return JohnsonTable(
        basis=table.basis,
        entries=entries,
        provenance=table.provenance,
        name=table.name,
    )


# ---------------------------------------------------------------------------
# JSON


def table_to_json(table: JohnsonTable) -> dict:
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
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return table_from_json(data, basis)


def transform_table(table: JohnsonTable, new_basis: HomologyBasis, s_matrix):
    """Re-express entries in a new basis; s columns are new vectors in old."""
    s_inv = la.int_inverse(s_matrix)
    entries = {
        eid: apply_matrix(s_inv, w) for eid, w in table.entries.items()
    }
    return JohnsonTable(
        basis=new_basis,
        entries={e: w for e, w in entries.items() if not w.is_zero()},
        provenance=table.provenance,
        name=table.name,
    )
