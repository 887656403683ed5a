"""Whole-pipeline fuzzing: random curves with random admissible tables.

The verdicts cannot be checked against an oracle here; the point is that
every path runs to completion with consistent exact invariants.
"""

import json
import random
from collections import Counter
from math import inf
from pathlib import Path

from tropceresa.ceresa import analyze, build_context, v_class
from tropceresa.exterior import WedgeVector
from tropceresa.graph_core import scaled_to_integer
from tropceresa.johnson import JohnsonTable
from tropceresa.symplectic import homology_basis

from helpers import random_curve, separating_edges


def random_table(curve, rng):
    scaled, _ = scaled_to_integer(curve)
    basis = homology_basis(scaled)
    g = basis.g
    seps = separating_edges(scaled)
    entries = {}
    for e in scaled.sorted_edges():
        if e.id in seps or rng.random() < 0.4:
            continue
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            a = rng.randrange(g)
            p, q = sorted(rng.sample(range(g), 2)) if g >= 2 else (0, 0)
            if p != q:
                coeffs[(a, g + p, g + q)] = rng.randint(-3, 3)
        w = WedgeVector(2 * g, 3, coeffs)
        if not w.is_zero():
            entries[e.id] = w
    return JohnsonTable(basis=basis, entries=entries, provenance="builtin", name="fuzz")


def test_pipeline_runs_on_random_inputs():
    rng = random.Random(99)
    for trial in range(40):
        curve = random_curve(rng, max_edges=7)
        table = random_table(curve, rng)
        rep = analyze(curve, table, with_groups=(trial % 4 == 0))
        assert rep.verdict in ("trivial", "nontrivial", "hyperelliptic-trivial")
        if rep.order_bbar is not None:
            assert rep.order_bbar == 1 or rep.order_bbar > 1
            # the graded order always divides the ambient-quotient order's
            # lcm partner: both are finite here
            assert rep.order_bbar != inf
        if rep.groups is not None:
            for grp in rep.groups.values():
                assert grp.free_rank == 0
        # verdicts survive a uniform doubling of all lengths
        doubled = curve.with_lengths(
            {e.id: e.length * 2 for e in curve.edges}
        )
        again = analyze(doubled, table, with_groups=False, with_zharkov=False)
        assert again.verdict == rep.verdict


def test_genus_five_scale():
    # one desk-scale instance beyond the fixtures: 120-dimensional wedge
    # lattices, group sizes still matching the closed formula
    from math import comb, prod

    from fractions import Fraction
    from tropceresa import intlinalg as la
    from tropceresa.graph_core import symanzik, tropical_curve

    edges = []
    k = 0
    for u in ("p", "q"):
        for v in ("w", "x", "y", "z"):
            edges.append((f"e{k}", (u, v), 1))
            k += 1
    edges.append((f"e{k}", ("p", "w"), 2))
    edges.append((f"e{k + 1}", ("q", "z"), 3))
    curve = tropical_curve([(v, 0) for v in ("p", "q", "w", "x", "y", "z")], edges)
    ctx = build_context(curve)
    g = ctx.g
    assert g == 5
    rep = analyze(curve, random_table(curve, random.Random(0)))
    qf = la.invariant_factor_diagonal(ctx.q_matrix)
    detq = prod(qf)
    assert Fraction(detq) == symanzik(curve)
    assert rep.groups["Bbar"].order == 2 ** comb(g, 3) * detq ** (comb(g, 2) - 1)
    assert rep.groups["B"].order == 2 ** comb(g, 3) * detq ** comb(g, 2)
    tail = prod(qf[i] ** comb(g - 1 - i, 2) for i in range(g))
    assert rep.groups["A"].order == rep.groups["B"].order * tail
    assert rep.groups["Abar"].order == rep.groups["A"].order // detq


def test_zero_tables_never_nontrivial():
    rng = random.Random(100)
    for _ in range(15):
        curve = random_curve(rng, max_edges=6)
        scaled, _ = scaled_to_integer(curve)
        basis = homology_basis(scaled)
        table = JohnsonTable(basis=basis, entries={}, provenance="builtin", name="zero")
        rep = analyze(curve, table, with_groups=False, with_zharkov=False)
        assert rep.verdict in ("trivial", "hyperelliptic-trivial")
        ctx = build_context(curve)
        assert v_class(ctx, table).is_zero()


def _recorded_reports():
    """The recorded `ceresa` reports: genus 5, Petersen and the four
    fixtures."""
    data = Path(__file__).parent / "data"
    reports = [json.loads((data / name).read_text()) for name in ("ceresa_g5.json", "ceresa_petersen.json")]
    # one JSON document per fixture, each closed by a "}" in column 0
    fixtures = json.loads("[" + (data / "fixture_reports.json").read_text().replace("}\n{", "},{") + "]")
    return reports + [rep for doc in fixtures for rep in doc.values()]


def test_obstructed_reports_are_nontrivial_or_hyperelliptic():
    """A Zharkov obstruction forces a Bbar order above 1 (README, "Verdict"),
    so an obstructed report is nontrivial or hyperelliptic-trivial, and its
    witness is printed exactly when it is obstructed: on the recorded
    reports and on 400 seeded random curves of genus <= 8 with fuzz tables,
    whose Gram matrices are those of the curves."""
    recorded = [r for r in _recorded_reports() if r["zharkov"] is not None]
    assert len(recorded) == 4
    for rep in recorded:
        assert rep["zharkov"]["obstructed"] is (rep["zharkov"]["witness"] is not None)
        if rep["zharkov"]["obstructed"]:
            assert rep["verdict"] in ("nontrivial", "hyperelliptic-trivial")
            assert rep["order_in_Bbar"] > 1
    rng = random.Random(36)
    routes = Counter()
    for _ in range(400):
        curve = random_curve(rng, max_edges=10)
        table = random_table(curve, rng)
        if table.basis.g > 8:
            continue
        rep = analyze(curve, table, with_groups=False)
        if rep.zharkov is None:
            continue
        assert rep.zharkov["obstructed"] is (rep.zharkov["witness"] is not None)
        if rep.zharkov["obstructed"]:
            assert rep.verdict in ("nontrivial", "hyperelliptic-trivial")
            assert rep.order_bbar > 1
            routes[rep.decided_by] += 1
        else:
            routes["unobstructed"] += 1
    assert routes["u-nonintegral"] >= 30 and routes["hyperelliptic quotient"] >= 10, routes
    assert routes["unobstructed"] >= 30, routes
