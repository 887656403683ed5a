import random

import pytest

from tropceresa import intlinalg as la
from tropceresa.catalog import builtin_curve, builtin_table
from tropceresa.ceresa import build_context, v_class
from tropceresa.errors import PreconditionError, SchemaError
from tropceresa.exterior import WedgeVector, embed_H_in_L
from tropceresa.johnson import (
    JohnsonTable,
    coboundary_shift,
    edge_twist_matrix,
    table_from_json,
    transform_table,
)
from tropceresa.graph_core import tropical_curve
from tropceresa.symplectic import (
    basis_change_matrix,
    delta_from_Q,
    homology_basis,
    intersection,
)

import helpers
from helpers import (
    BoundingPairDatum,
    johnson_bpm,
    mat_mul,
    random_unimodular,
    symplectic_basis_of,
    table_to_json,
)


def unit(i, g=3):
    return [int(t == i) for t in range(2 * g)]


# -- symplectic sublattice bases ---------------------------------------------


def test_standard_pair_is_fixed():
    assert symplectic_basis_of([unit(0), unit(3)], 3) == [unit(0), unit(3)]


def test_mixed_basis_normalizes():
    g = 3
    w = [
        [1, 0, 0, 0, 1, 0],  # a1 + b2
        [0, 0, 0, 1, 0, 0],  # b1
        [0, 1, 0, 0, 0, 0],  # a2
        [0, 0, 0, 0, 1, 0],  # b2
    ]
    sb = symplectic_basis_of(w, g)
    assert len(sb) == 4
    for i in range(2):
        for j in range(2):
            assert intersection(sb[2 * i], sb[2 * j], g) == 0
            assert intersection(sb[2 * i + 1], sb[2 * j + 1], g) == 0
            assert intersection(sb[2 * i], sb[2 * j + 1], g) == (i == j)
    assert la.lattice_eq(w, sb, 2 * g)


def test_non_unimodular_rejected():
    with pytest.raises(PreconditionError) as err:
        symplectic_basis_of([[2, 0, 0, 0, 0, 0], unit(3)], 3)
    assert "4" in str(err.value)
    with pytest.raises(PreconditionError) as err:
        symplectic_basis_of([[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]], 3)
    assert str(err.value) == "restricted form is not unimodular: Gram determinant 0"


# -- bounding pair values -------------------------------------------------------


def test_bpm_examples():
    g = 3
    val = johnson_bpm(
        BoundingPairDatum((tuple(unit(0)), tuple(unit(3))), tuple(unit(4))), g
    )
    assert val.coeffs == {(0, 3, 4): 1}  # a1^b1^b2
    val = johnson_bpm(
        BoundingPairDatum((tuple(unit(0)), tuple(unit(3))), tuple(unit(0))), g
    )
    assert val.is_zero()  # repeated factor


def test_bpm_independent_of_w_basis():
    rng = random.Random(0)
    g = 3
    w4 = [unit(0), unit(3), unit(1), unit(4)]
    a = [2, -1, 0, 1, 0, 3]
    base = johnson_bpm(BoundingPairDatum(tuple(map(tuple, w4)), tuple(a)), g)
    for _ in range(20):
        m = random_unimodular(4, rng)
        w4r = [
            [sum(m[r][s] * w4[s][t] for s in range(4)) for t in range(2 * g)]
            for r in range(4)
        ]
        again = johnson_bpm(BoundingPairDatum(tuple(map(tuple, w4r)), tuple(a)), g)
        assert again == base


def test_k4_arrangement_value():
    # the nonzero entries of the built-in table are bounding-pair values
    curve = builtin_curve("k4")
    table = builtin_table("k4", curve)
    g = 3
    val = johnson_bpm(
        BoundingPairDatum((tuple(unit(0)), tuple(unit(3))), tuple(unit(4))), g
    )
    assert table.entry("u2") == val  # a1^b1^b2


# -- tables ------------------------------------------------------------------------


def test_builtin_tables_validate():
    """Every built-in table passes the constructor's checks, and they run on
    its basis: an entry for an edge the basis lacks is refused."""
    for name in ("k4", "tl3", "theta-w1", "3balloon"):
        table = builtin_table(name, builtin_curve(name))
        assert table.provenance == "builtin"
        extra = {"zz": WedgeVector(2 * table.basis.g, 3, {(0, 1, 2): 1})}
        with pytest.raises(SchemaError, match="^table entry for unknown edge zz$"):
            JohnsonTable(basis=table.basis, entries=table.entries | extra)


def test_separating_entries_must_vanish():
    basis = homology_basis(builtin_curve("3balloon"))
    message = "^separating edge b1 must have a zero table entry$"
    with pytest.raises(SchemaError, match=message):
        JohnsonTable(
            basis=basis,
            entries={"b1": WedgeVector(2 * basis.g, 3, {(0, 1, 2): 1})},
        )


def test_entries_must_have_degree_3_in_rank_2g():
    basis = homology_basis(builtin_curve("k4"))
    message = "^entry for u2 has wrong degree or rank$"
    for bad in (WedgeVector(6, 2, {(0, 3): 1}), WedgeVector(8, 3, {(0, 4, 5): 1})):
        with pytest.raises(SchemaError, match=message):
            JohnsonTable(basis=basis, entries={"u2": bad})


def test_v_class_rejects_a_basis_with_a_renamed_bridge():
    """Two bases that differ only in a bridge's id have the same chords and
    cycles but name different edges, so they do not match."""
    curve = builtin_curve("3balloon")
    renamed = tropical_curve(
        [(v.id, v.weight) for v in curve.vertices],
        [("b4" if e.id == "b1" else e.id, e.ends, e.length) for e in curve.edges],
    )
    table = JohnsonTable(basis=homology_basis(renamed), entries={})
    with pytest.raises(SchemaError, match="table basis does not match"):
        v_class(build_context(curve), table)


def test_table_json_round_trip():
    curve = builtin_curve("k4")
    table = builtin_table("k4", curve)
    data = table_to_json(table)
    back = table_from_json(data, table.basis, name="k4")
    assert back.entries == table.entries
    assert back.provenance == "builtin"


def test_coboundary_shift_identity():
    curve = builtin_curve("k4")
    table = builtin_table("k4", curve)
    zero = WedgeVector.zero(6, 3)
    assert coboundary_shift(table, zero).entries == table.entries


def test_coboundary_shift_embedded_h_is_invisible_mod_h():
    # shifting by omega ^ h moves every entry inside the embedded copy of H
    curve = builtin_curve("k4")
    table = builtin_table("k4", curve)
    g = 3
    t = embed_H_in_L([1, 0, -2, 0, 1, 0], g)
    shifted = coboundary_shift(table, t)
    h_gens = [embed_H_in_L(unit(i), g).to_coords() for i in range(2 * g)]
    lat = la.Lattice(len(h_gens[0]), h_gens)
    for eid in {e.id for e in curve.edges}:
        diff = shifted.entry(eid) - table.entry(eid)
        assert helpers.coset_order(lat, diff.to_coords()) == 1


def test_shift_and_transform_keep_name_and_provenance():
    """A coboundary shift and a change of tree keep a built-in table's name
    and provenance, so a report on the result stays certified."""
    curve = builtin_curve("k4")
    table = builtin_table("k4", curve)
    base = homology_basis(curve)
    other = homology_basis(curve, tree=("t4", "t5", "u1"))
    s = basis_change_matrix(base, other)
    t = embed_H_in_L(unit(0), 3) + WedgeVector(6, 3, {(0, 1, 3): 2})
    for out in (coboundary_shift(table, t), transform_table(table, other, s)):
        assert (out.name, out.provenance) == ("k4", "builtin")
    assert transform_table(table, other, s).basis is other


def test_edge_twist_matrices_compose_to_delta():
    from tropceresa.symplectic import polarization_Q

    curve = builtin_curve("k4")
    basis = homology_basis(curve)
    g = basis.g
    total = la.identity(2 * g)
    for e in curve.sorted_edges():
        total = mat_mul(
            edge_twist_matrix(basis, e.id, e.length.numerator), total
        )
    assert total == delta_from_Q(polarization_Q(curve, basis))


# -- refusals -------------------------------------------------------------------


def test_coboundary_shift_refuses_a_class_of_another_degree():
    table = builtin_table("k4")
    with pytest.raises(PreconditionError, match="degree 3"):
        coboundary_shift(table, WedgeVector(6, 2, {(0, 3): 1}))


@pytest.mark.parametrize(
    "ref, message",
    [
        ({"g": 4}, "does not match the curve basis"),
        ({"h": 2}, "does not match the curve basis"),
        ({"nontree_edges": ["u3", "u2", "u1"]}, "lists different non-tree edges"),
    ],
)
def test_table_basis_ref_must_match_the_curve(ref, message):
    basis = homology_basis(builtin_curve("k4"))
    data = table_to_json(builtin_table("k4"))
    data["basis_ref"].update(ref)
    with pytest.raises(SchemaError, match=message):
        table_from_json(data, basis)
