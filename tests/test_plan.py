"""The graph plan against the per-curve verdict it replaces.

`ceresa.graph_plan` does the graph-only work once per curve, with no
table: the basis, the edge terms of Q, the stabilization map, and the
tree-quotient involutions of the stable graph at unit lengths.  A table
meets it at each draw.  At every draw of lengths it must give what
`helpers.verdict_by_curve` gives on the curve with those lengths: the same
Q, the same v (coefficients and their order), the same hyperellipticity
and the same verdict, u included.
"""

import random
from collections import Counter
from itertools import product

import pytest

from tropceresa import ceresa
from tropceresa.catalog import BUILTIN_TABLES, builtin_curve, builtin_table
from tropceresa.errors import PreconditionError, SchemaError
from tropceresa.graph_core import is_stable, tropical_curve, with_sorted_lengths
from tropceresa.johnson import JohnsonTable
from tropceresa.symplectic import homology_basis

import helpers
from test_pipeline_fuzz import random_table


def _outcome(run):
    try:
        ctx, v, hyper, decision = run()
    except PreconditionError as exc:
        return str(exc)
    return ctx.q_matrix, ctx.basis, list(v.coeffs.items()), hyper, decision


def _assert_plan_matches(plan, curve, table, lengths):
    """The plan's outcome with `table` at `lengths`, checked against the oracle's."""
    sample = with_sorted_lengths(curve, lengths)
    want = _outcome(lambda: helpers.verdict_by_curve(sample, table))
    assert _outcome(lambda: plan.decide(table, lengths)) == want, lengths
    return want


@pytest.mark.parametrize("name", BUILTIN_TABLES)
def test_plan_matches_the_per_curve_verdict_on_builtin_draws(name):
    curve = builtin_curve(name)
    table = builtin_table(name, curve)
    plan = ceresa.graph_plan(curve, table.basis)
    rng = random.Random(f"plan/{name}")
    for _ in range(300):
        _assert_plan_matches(plan, curve, table, [rng.randint(1, 20) for _ in curve.edges])


def test_plan_matches_the_per_curve_verdict_on_random_curves():
    """Seeded curves, stable and not, with `random_table` tables.  Lengths
    1..2 make stable edges of equal length common, so among the draws
    whose stable graph has a blind candidate, the length filter keeps one
    in some and rejects every one in others."""
    rng = random.Random(351)
    seen = Counter()
    for _ in range(80):
        curve = helpers.random_curve(rng, max_edges=7)
        table = random_table(curve, rng)
        plan = ceresa.graph_plan(curve)
        seen["stable" if is_stable(curve) else "unstable"] += 1
        for _ in range(8):
            out = _assert_plan_matches(
                plan, curve, table, [rng.randint(1, 2) for _ in curve.edges]
            )
            if any(plan.stable[1]) and not isinstance(out, str):
                seen["kept" if out[3] else "filtered"] += 1
    assert all(seen[k] >= 20 for k in ("stable", "unstable", "kept", "filtered")), seen


def test_plan_rejects_a_table_of_another_basis():
    """Another curve's table is refused, and so is one whose basis differs
    only in a bridge's id, with the same chords and cycles."""
    curve = builtin_curve("3balloon")
    renamed = tropical_curve(
        [(v.id, v.weight) for v in curve.vertices],
        [("b4" if e.id == "b1" else e.id, e.ends, e.length) for e in curve.edges],
    )
    for table in (
        builtin_table("k4"),
        JohnsonTable(basis=homology_basis(renamed), entries={}, provenance="builtin"),
    ):
        with pytest.raises(SchemaError, match="table basis does not match"):
            ceresa.graph_plan(curve).decide(table, [1] * len(curve.edges))
        with pytest.raises(SchemaError, match="table basis does not match"):
            ceresa.analyze(curve, table)


def test_block_shapes_instantiate_to_the_direct_relations():
    """Every pattern and d_p in 1..5, the coupled blocks' case (h = g,
    q = None): the cached shapes give the relations `helpers.block_relations`
    builds, and the cache holds one shape per pattern, whatever the
    d-values."""
    ceresa._block_shape.cache_clear()
    for pattern in ((0, 0, 1), (0, 1, 1), (0, 1, 2)):
        m = len(set(pattern))
        for ds in product(range(1, 6), repeat=m):
            monos, rels = ceresa._block_relations(pattern, ds)
            want = helpers.block_relations(pattern, tuple((x, True) for x in ds), None)
            assert (list(monos), rels) == want, (pattern, ds)
    assert ceresa._block_shape.cache_info().currsize == 3
