"""The verdict plan against the per-curve verdict it replaces.

`ceresa.verdict_plan` does the graph-only work once per (graph, table):
the edge terms of Q and v, the stabilization map, and the tree-quotient
involutions of the stable graph at unit lengths.  At every draw of lengths
it must give what `helpers.verdict_by_curve` gives on the curve with those
lengths: the same Q, the same v (coefficients and their order), the same
hyperellipticity and the same verdict, u included.
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
    """The plan's outcome at `lengths`, checked against the oracle's."""
    sample = with_sorted_lengths(curve, lengths)
    want = _outcome(lambda: helpers.verdict_by_curve(sample, table))
    assert _outcome(lambda: plan.decide(lengths)) == want, lengths
    return want


@pytest.mark.parametrize("name", BUILTIN_TABLES)
def test_plan_matches_the_per_curve_verdict_on_builtin_draws(name):
    curve = builtin_curve(name)
    table = builtin_table(name, curve)
    plan = ceresa.verdict_plan(curve, table)
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
        plan = ceresa.verdict_plan(curve, table)
        seen["stable" if is_stable(curve) else "unstable"] += 1
        for _ in range(8):
            out = _assert_plan_matches(
                plan, curve, table, [rng.randint(1, 2) for _ in curve.edges]
            )
            if any(plan.swaps) and not isinstance(out, str):
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
            ceresa.verdict_plan(curve, table)
        with pytest.raises(SchemaError, match="table basis does not match"):
            ceresa.analyze(curve, table)


def test_block_shapes_instantiate_to_the_direct_relations():
    """Every pattern, d_p in 0..5, Y flags and q in {None, 2}: the cached
    shapes give the relations `helpers.block_relations` builds, and the
    cache holds one shape per (pattern, zero d_p, Y flags, q), 192 in all,
    whatever the d-values."""
    ceresa._block_shape.cache_clear()
    for pattern in ((0, 0, 1), (0, 1, 1), (0, 1, 2)):
        m = len(set(pattern))
        for ds, ys, q in product(
            product(range(6), repeat=m), product((False, True), repeat=m), (None, 2)
        ):
            slots = tuple(zip(ds, ys))
            monos, rels = ceresa._block_relations(pattern, slots, q)
            want = helpers.block_relations(pattern, slots, q)
            assert (list(monos), rels) == want, (pattern, slots, q)
    assert ceresa._block_shape.cache_info().currsize == 2 * 4 * 4 * 2 + 8 * 8 * 2
