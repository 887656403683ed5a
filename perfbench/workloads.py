"""Seeded inputs, CLI operations and output checks for the three workloads.

A run is a sequence of rounds; a round is a fixed mix of operations, each
one in-process `tropceresa` CLI call.  The inputs of round r are a function
of (seed, r) alone, so a traced run can repeat the exact work of an
untraced one.

Why these workloads (the layer each exercises / bypasses):

- sample: the verdict-only loop (`tropceresa sample`) on TL3 (maximal rank:
  u_class, ceresa_order, ambient_order) and on the weighted theta graph
  (deficient rank: in_Abar_test), so intlinalg.class_order and
  solve_frac_gauss are used two ways.  No group tables are built.  TL3 also
  runs with --workers 2 to show the process pool.
- report: full `tropceresa ceresa` reports (groups, Zharkov test, verdict,
  JSON) at genus 3, 4 and 5.  Lattice.add, lattice_intersection and
  snf_diagonal_orders dominate; class_order is a small share.
- hyperelliptic: `tropceresa hyperelliptic` on symmetric stable curves of at
  most 12 edges.  graph_core.involutions does nearly all the work and no
  lattice code runs, so a lattice change must leave it unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

VERDICTS = ("trivial", "nontrivial", "hyperelliptic-trivial", "indeterminate")

# Built-in fixtures of the package, copied here so that every check is made
# against the benchmark's own description of the input: (vertices with
# weights, edges as (id, u, v)).
FIXTURES = {
    "k4": (
        [("a", 0), ("b", 0), ("c", 0), ("d", 0)],
        [("t4", "a", "d"), ("t5", "b", "d"), ("t6", "c", "d"),
         ("u1", "b", "c"), ("u2", "c", "a"), ("u3", "a", "b")],
    ),
    "tl3": (
        [(f"w{i}", 0) for i in range(6)],
        [("t5", "w0", "w1"), ("t6", "w1", "w2"), ("t7", "w2", "w3"),
         ("t8", "w3", "w4"), ("t9", "w4", "w5"), ("u1", "w2", "w1"),
         ("u2", "w1", "w0"), ("u3", "w5", "w0"), ("u4", "w5", "w0")],
    ),
    "theta-w1": (
        [("u", 1), ("v", 1)],
        [("t1", "u", "v"), ("u2", "u", "v"), ("u3", "u", "v")],
    ),
    "3balloon": (
        [("z", 0), ("v1", 1), ("v2", 1), ("v3", 1)],
        [("b1", "z", "v1"), ("b2", "z", "v2"), ("b3", "z", "v3")],
    ),
}
GENUS = {"k4": 3, "3balloon": 3, "tl3": 4, "theta-w1": 4}

# The genus-5 curve of the package's genus-five scale test: K_{2,4} plus a
# parallel edge at each hub.
G5_VERTICES = [(v, 0) for v in ("p", "q", "w", "x", "y", "z")]
G5_EDGES = [(f"e{k}", u, v) for k, (u, v) in enumerate(
    [(u, v) for u in ("p", "q") for v in ("w", "x", "y", "z")]
    + [("p", "w"), ("q", "z")]
)]

SAMPLE_LENGTHS = (1, 20)   # the CLI defaults --length-min/--length-max
SAMPLE_COUNTS = {"tl3": 16, "theta-w1": 32}
REPORT_LENGTHS = (1, 20)
# Lengths of the two parallel edges e8 and e9 (the other edges have length
# 1): the scale test's instance is e8 = 2, e9 = 3.  Varying every edge would
# spread the cost of one report over a factor of about 1.5.
G5_EXTRA_LENGTHS = (1, 2, 3)
HYPER_LENGTHS = (1, 2, 3)


@dataclass
class Op:
    """One CLI call: `items` units of work, checked by `check(stdout)`,
    which returns an error message or None."""

    case: str
    argv: list
    items: int
    check: Callable[[str], str | None]
    workers: int = 1


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(f"{seed}/" + "/".join(map(str, salt)))


def _curve_json(vertices, edges, lengths) -> dict:
    """The package's canonical curve JSON for the given integer lengths."""
    return {
        "vertices": [{"id": v, "weight": w} for v, w in sorted(vertices)],
        "edges": [
            {"id": e, "ends": [u, v], "length": str(lengths[e])}
            for e, u, v in sorted(edges)
        ],
    }


def _gram(vertices, edges, lengths):
    return oracles.cycle_gram(
        [v for v, _ in vertices], [(e, u, v, lengths[e]) for e, u, v in edges]
    )


# ---------------------------------------------------------------------------
# sample


def sample_round(seed: int, r: int, workdir: Path) -> list[Op]:
    """TL3 and theta-w1 sampling at --workers 1, then TL3 again at
    --workers 2 with the same seed, whose stdout must be byte-identical."""
    rng = _rng(seed, "sample", r)
    seeds = {name: rng.randrange(2**31) for name in SAMPLE_COUNTS}
    outputs: dict = {}
    ops = []
    for name, count in SAMPLE_COUNTS.items():
        ops.append(Op(
            case=name,
            argv=_sample_argv(name, count, seeds[name], 1),
            items=count,
            check=_sample_check(name, count, outputs),
        ))
    ops.append(Op(
        case="tl3_w2",
        argv=_sample_argv("tl3", SAMPLE_COUNTS["tl3"], seeds["tl3"], 2),
        items=SAMPLE_COUNTS["tl3"],
        check=lambda out: None if out == outputs.get("tl3")
        else "--workers 2 stdout differs from --workers 1",
        workers=2,
    ))
    return ops


def _sample_argv(name, count, seed, workers):
    lo, hi = SAMPLE_LENGTHS
    return [
        "sample", "--graph", f"builtin:{name}", "--table", f"builtin:{name}",
        "--count", str(count), "--seed", str(seed), "--workers", str(workers),
        "--length-min", str(lo), "--length-max", str(hi),
    ]


def _sample_check(name, count, outputs):
    vertices, edges = FIXTURES[name]
    ids = sorted(e for e, _, _ in edges)

    def check(out: str):
        outputs[name] = out
        data = json.loads(out)
        if data["count"] != count or len(data["samples"]) != count:
            return f"expected {count} samples"
        for s in data["samples"]:
            lengths = s["lengths"]
            if len(lengths) != len(ids) or not all(
                SAMPLE_LENGTHS[0] <= x <= SAMPLE_LENGTHS[1] for x in lengths
            ):
                return f"bad lengths {lengths}"
            if name == "tl3" and s["verdict"] != "nontrivial":
                return f"TL3 verdict {s['verdict']} at {lengths}"
            if name == "theta-w1":
                # the least multiple landing in Abar divides the exponent
                # of coker Q, hence det Q
                det_q = oracles.det(_gram(vertices, edges, dict(zip(ids, lengths))))
                order = s["order"]
                if not isinstance(order, int) or order < 1 or det_q % order:
                    return f"least multiple {order} does not divide det Q = {det_q}"
                if order > 1 and s["verdict"] != "nontrivial":
                    return f"not in Abar but verdict {s['verdict']}"
        return None

    return check


# ---------------------------------------------------------------------------
# report


def report_round(seed: int, r: int, workdir: Path) -> list[Op]:
    """The four fixtures at unit and at seeded lengths, then the genus-5
    curve with seeded lengths and a seeded user table."""
    rng = _rng(seed, "report", r)
    ops = []
    for random_lengths in (False, True):
        for name in ("k4", "3balloon", "tl3", "theta-w1"):
            vertices, edges = FIXTURES[name]
            ids = sorted(e for e, _, _ in edges)
            values = [rng.randint(*REPORT_LENGTHS) if random_lengths else 1 for _ in ids]
            argv = ["ceresa", "--graph", f"builtin:{name}", "--table", f"builtin:{name}"]
            if random_lengths:
                argv += ["--lengths", ",".join(map(str, values))]
            ops.append(Op(
                case=f"g{GENUS[name]}",
                argv=argv,
                items=1,
                check=_report_check(
                    name, vertices, edges, dict(zip(ids, values)), unit=not random_lengths
                ),
            ))
    lengths = {e: 1 for e, _, _ in G5_EDGES}
    lengths["e8"], lengths["e9"] = (rng.choice(G5_EXTRA_LENGTHS) for _ in range(2))
    graph = workdir / "g5.json"
    table = workdir / "g5_table.json"
    graph.write_text(json.dumps(_curve_json(G5_VERTICES, G5_EDGES, lengths)))
    table.write_text(json.dumps(_g5_table(rng)))
    ops.append(Op(
        case="g5",
        argv=["ceresa", "--graph", str(graph), "--table", str(table)],
        items=1,
        check=_report_check("g5", G5_VERTICES, G5_EDGES, lengths, unit=False),
    ))
    return ops


def _greedy_nontree(vertices, edges):
    """Non-tree edges of the greedy spanning tree by edge id (the package's
    documented basis convention, which user tables must reference)."""
    parent = {v: v for v, _ in vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    out = []
    for e, u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            out.append(e)
        else:
            parent[ru] = rv
    return out


def _g5_table(rng: random.Random) -> dict:
    """A user table with two-Y-factor entries a_i ^ b_p ^ b_q, so the class
    stays in the graded piece the maximal-rank path inverts."""
    g = 5
    entries = {}
    for e, _, _ in sorted(G5_EDGES):
        if rng.random() < 0.4:
            continue
        terms = {}
        for _ in range(rng.randint(1, 3)):
            a = rng.randrange(g)
            p, q = sorted(rng.sample(range(g), 2))
            c = rng.randint(-3, 3)
            if c:
                terms[f"({a + 1},{g + p + 1},{g + q + 1})"] = str(c)
        if terms:
            entries[e] = terms
    return {
        "basis_ref": {"g": g, "h": g, "nontree_edges": _greedy_nontree(G5_VERTICES, G5_EDGES)},
        "provenance": "user",
        "name": "bench-g5",
        "entries": entries,
    }


def _report_check(name, vertices, edges, lengths, unit):
    h = len(edges) - len(vertices) + 1
    g = h + sum(w for _, w in vertices)
    expected_curve = _curve_json(vertices, edges, lengths)

    def check(out: str):
        rep = json.loads(out)
        if rep["curve"] != expected_curve or rep["length_scale"] != 1:
            return "report curve differs from the input"
        if rep["verdict"] not in VERDICTS:
            return f"unknown verdict {rep['verdict']}"
        factors = oracles.invariant_factors(_gram(vertices, edges, lengths))
        if rep["invariant_factors"] != factors:
            return f"invariant factors {rep['invariant_factors']} != {factors}"
        if rep["rank_status"] != ("maximal" if h == g else "deficient"):
            return f"rank status {rep['rank_status']} for h={h}, g={g}"
        if h == g:
            want = oracles.group_orders(g, factors)
            got = {k: v["order"] for k, v in rep["groups"].items()}
            if got != want:
                return f"group orders {got} != closed form {want}"
            if rep["zharkov"] is None:
                return "maximal-rank report without the Zharkov test"
        if name == "tl3" and rep["verdict"] != "nontrivial":
            return f"TL3 verdict {rep['verdict']}"
        if name == "k4" and rep["hyperelliptic"]:
            return "K4 reported hyperelliptic"
        if name == "3balloon" and rep["verdict"] != "hyperelliptic-trivial":
            return f"3balloon verdict {rep['verdict']}"
        if name == "theta-w1" and rep["in_Abar"] is False:
            det_q = oracles.det(_gram(vertices, edges, lengths))
            if det_q % rep["least_multiple_in_Abar"]:
                return "least multiple does not divide det Q"
        if unit and name == "k4" and (
            factors != [1, 4, 4]
            or rep["groups"]["Bbar"]["order"] != 512
            or rep["order_in_Bbar"] != 16
            or rep["verdict"] != "nontrivial"
        ):
            return "K4 at unit lengths differs from the reference table"
        if unit and name == "theta-w1" and (
            rep["in_Abar"] is not False or rep["least_multiple_in_Abar"] != 3
        ):
            return "theta-w1 at unit lengths: expected least multiple 3"
        return None

    return check


# ---------------------------------------------------------------------------
# hyperelliptic


def _banana(n):
    return [("u", 0), ("v", 0)], [(f"e{i}", "u", "v") for i in range(n)]


def _loop_chain(n):
    edges = [(f"l{i}", f"v{i}", f"v{i}") for i in range(n)]
    edges += [(f"p{i}", f"v{i - 1}", f"v{i}") for i in range(1, n)]
    return [(f"v{i}", 0) for i in range(n)], edges


def _simple(pairs):
    vertices = sorted({x for p in pairs for x in p})
    return [(v, 0) for v in vertices], [
        (f"e{i:02d}", u, v) for i, (u, v) in enumerate(pairs)
    ]


_K4 = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
_PRISM = [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"),
          ("z", "x"), ("a", "x"), ("b", "y"), ("c", "z")]
_K33 = [(u, v) for u in "abc" for v in "xyz"]
_CUBE = [(f"c{i}", f"c{i ^ b}") for i in range(8) for b in (1, 2, 4) if i < i ^ b]


def hyperelliptic_catalogue():
    """(name, vertices, edges, expected answer): bananas and loop chains are
    hyperelliptic at every length; K4 with doubled edges, the prism, K3,3
    and the cube never are."""
    out = [(f"banana{n}", *_banana(n), True) for n in range(3, 11)]
    out += [(f"chain{n}", *_loop_chain(n), True) for n in range(2, 7)]
    out += [(f"k4x{d}", *_simple(_K4 + _K4[:d]), False) for d in range(7)]
    out += [("prism", *_simple(_PRISM), False), ("k33", *_simple(_K33), False),
            ("cube", *_simple(_CUBE), False)]
    return out


def hyperelliptic_round(seed: int, r: int, workdir: Path) -> list[Op]:
    """The whole catalogue; each curve gets one length for all its edges,
    drawn from a small set, so every symmetry survives."""
    rng = _rng(seed, "hyperelliptic", r)
    ops = []
    for name, vertices, edges, expected in hyperelliptic_catalogue():
        length = rng.choice(HYPER_LENGTHS)
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(
            _curve_json(vertices, edges, {e: length for e, _, _ in edges})
        ))
        ops.append(Op(
            case=name,
            argv=["hyperelliptic", "--graph", str(path)],
            items=1,
            check=_hyper_check(expected),
        ))
    return ops


def _hyper_check(expected: bool):
    def check(out: str):
        data = json.loads(out)
        if data["hyperelliptic"] is not expected:
            return f"hyperelliptic {data['hyperelliptic']}, expected {expected}"
        if (data["involutions"] > 0) is not expected:
            return f"{data['involutions']} tree-quotient involutions"
        return None

    return check


# ---------------------------------------------------------------------------

ROUNDS = {
    "sample": sample_round,
    "report": report_round,
    "hyperelliptic": hyperelliptic_round,
}
# The costliest case of each workload, reported as heavy_p50_ms.
HEAVY_CASE = {"sample": "tl3", "report": "g5", "hyperelliptic": "banana10"}
