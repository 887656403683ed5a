"""Batch command line front-end.

Exit codes: 0 success, 2 schema/parse errors, 3 mathematical precondition
failures.  All diagnostics go to stderr; reports go to stdout as JSON
(default) or text.  Graphs and tables are file paths or builtin:NAME.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import catalog, graph_core, johnson
from .ceresa import (
    analyze,
    build_context,
    enc_order,
    graph_plan,
    group_lines,
    group_table,
    groups_to_json,
    integer_lengths,
    zharkov_test,
    zharkov_to_json,
)
from .errors import PreconditionError, SchemaError
from .exterior import check_wedge_caps
from .graph_core import genus, graph_genus, stabilize, symanzik
from .symplectic import basis_report

WORKERS_ENV = "TROPCERESA_WORKERS"


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # lengths and orders may pass 4300 digits
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[args.func](args)  # looked up per call: the parser is cached
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every later
    `main` call in the process (not at import, which stays cheap)."""
    parser = argparse.ArgumentParser(
        prog="tropceresa",
        description="exact tropical Ceresa classes of vertex-weighted metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # name, help, handler, and whether it takes --table
    commands = (
        ("genus", "genus and cycle rank", cmd_genus, False),
        ("stabilize", "contract to the stable model", cmd_stabilize, False),
        ("symanzik", "spanning-tree polynomial of the lengths", cmd_symanzik, False),
        ("hyperelliptic", "test for a tree quotient involution", cmd_hyperelliptic,
         False),
        ("basis", "symplectic basis report", cmd_basis, False),
        ("groups", "finite obstruction groups", cmd_groups, False),
        ("ceresa", "full class pipeline and verdict", cmd_ceresa, True),
        ("order", "order of the class in the graded quotient", cmd_order, True),
        ("zharkov", "degree-3 minor obstruction test", cmd_zharkov, True),
        ("sample", "verdicts over random integer lengths", cmd_sample, True),
    )
    parsers = {}
    for name, help_, func, table in commands:
        p = parsers[name] = sub.add_parser(name, help=help_)
        p.add_argument("--graph", required=True, help="path or builtin:NAME")
        p.add_argument(
            "--lengths",
            help="comma-separated rational lengths, edges in id-sorted order",
        )
        p.add_argument("--format", choices=("json", "text"), default="json")
        if table:
            p.add_argument("--table", required=True, help="path or builtin:NAME")
        p.set_defaults(func=func.__name__)

    p = parsers["sample"]
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--length-min", type=int, default=1)
    p.add_argument("--length-max", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        help=f"process count, 1..cpu count (default ${WORKERS_ENV} or 1)",
    )

    return parser


# ---------------------------------------------------------------------------
# argument loading


def load_graph(args) -> graph_core.TropicalCurve:
    source = args.graph
    if source.startswith("builtin:"):
        curve = catalog.builtin_curve(source.removeprefix("builtin:"))
    else:
        curve = graph_core.load_curve(source)
    if args.lengths is not None:
        values = [_parse_length(x) for x in args.lengths.split(",")]
        curve = graph_core.with_sorted_lengths(curve, values)
    return curve


def _parse_length(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"--lengths: bad value {token!r}") from None


def load_table(args, curve) -> tuple:
    """(plan, table): the curve's graph plan and the table on its basis.  A
    built-in table checks its genus and shape before any basis is built,
    and the plan takes its basis; a user table reads the plan's."""
    check_wedge_caps(2 * genus(curve))  # before the basis pads loops to length g
    source = args.table
    if source.startswith("builtin:"):
        table = catalog.builtin_table(source.removeprefix("builtin:"), curve)
        return graph_plan(curve, table.basis), table
    plan = graph_plan(curve)
    return plan, johnson.load_table(source, plan.basis)


def emit(args, payload, text=None) -> int:
    """Print the JSON `payload`, or in text mode `text` (the same JSON when
    None).  Either may be a function, called only if its format is printed."""
    if args.format == "text" and text is not None:
        print(text() if callable(text) else text)
    else:
        data = payload() if callable(payload) else payload
        print(json.dumps(data, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_genus(args) -> int:
    curve = load_graph(args)
    g, h = genus(curve), graph_genus(curve)
    return emit(
        args,
        {"genus": g, "graph_genus": h, "total_weight": g - h},
        f"genus {g} (cycle rank {h}, total weight {g - h})",
    )


def cmd_stabilize(args) -> int:
    curve = load_graph(args)
    stable = stabilize(curve)
    return emit(args, graph_core.curve_to_json(stable))


def cmd_symanzik(args) -> int:
    curve = load_graph(args)
    value = symanzik(curve)
    return emit(args, {"symanzik": str(value)}, f"symanzik = {value}")


def cmd_hyperelliptic(args) -> int:
    curve = load_graph(args)
    stable = stabilize(curve)
    count = len(graph_core.hyperelliptic_involutions(stable))
    result = count > 0
    return emit(
        args,
        {"hyperelliptic": result, "involutions": count},
        f"hyperelliptic: {result} ({count} tree-quotient involutions)",
    )


def cmd_basis(args) -> int:
    ctx = build_context(load_graph(args))
    rep = basis_report(ctx.curve, ctx.basis)
    rep["length_scale"] = ctx.scale
    return emit(args, rep)


def cmd_groups(args) -> int:
    ctx = build_context(load_graph(args))
    groups = group_table(ctx)
    payload = {
        "invariant_factors": ctx.invariant_factors,
        "rank_status": ctx.rank_status,
        "groups": groups_to_json(groups),
    }
    text = "\n".join([f"rank: {payload['rank_status']}"] + group_lines(groups))
    return emit(args, payload, text)


def cmd_ceresa(args) -> int:
    curve = load_graph(args)
    plan, table = load_table(args, curve)
    report = analyze(curve, table, plan=plan)
    return emit(args, report.to_json, report.to_text)


def cmd_order(args) -> int:
    curve = load_graph(args)
    plan, table = load_table(args, curve)
    report = analyze(curve, table, with_groups=False, with_zharkov=False, plan=plan)
    if report.order_bbar is not None:
        payload = {
            "order_in_Bbar": enc_order(report.order_bbar),
            "verdict": report.verdict,
        }
        text = f"order in Bbar: {report.order_bbar} ({report.verdict})"
    else:
        payload = {
            "in_Abar": report.in_abar,
            "least_multiple_in_Abar": enc_order(report.least_multiple),
            "verdict": report.verdict,
        }
        text = (
            f"not in Abar; least multiple {report.least_multiple} ({report.verdict})"
            if not report.in_abar
            else f"in Abar; ambient order {report.order_ambient} ({report.verdict})"
        )
    return emit(args, payload, text)


def cmd_zharkov(args) -> int:
    curve = load_graph(args)
    plan, table = load_table(args, curve)
    lengths = integer_lengths(curve)[0]
    result = zharkov_test(plan.context(lengths), plan.v(table, lengths))
    return emit(args, zharkov_to_json(result), f"obstructed: {result['obstructed']}")


def _sample_one(plan, table, lengths):
    """One draw: the verdict of the plan's graph and the table at these
    integer lengths, in id-sorted edge order, and the order `sample` prints."""
    decision = plan.decide(table, lengths)[3]
    order = decision["order_bbar"]
    if order is None:
        order = decision["least_multiple"]
    return {
        "lengths": list(lengths),
        "verdict": decision["verdict"],
        "order": enc_order(order),
    }


_worker = None  # a pool worker's (plan, table), set once by `_init_worker`


def _init_worker(plan, table) -> None:
    global _worker
    _worker = plan, table


def _sample_in_worker(lengths):
    return _sample_one(*_worker, lengths)


def _sample_workers(args) -> int:
    """Check the sample options before any work; return the worker count."""
    if args.lengths is not None:
        raise SchemaError("sample draws its own lengths; --lengths is not accepted")
    if args.count < 1:
        raise SchemaError(f"--count must be at least 1, got {args.count}")
    if not 1 <= args.length_min <= args.length_max:
        raise SchemaError(
            "need 1 <= --length-min <= --length-max, got "
            f"{args.length_min} and {args.length_max}"
        )
    workers = args.workers
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise SchemaError(f"${WORKERS_ENV} must be an integer, got {raw!r}") from None
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise SchemaError(f"workers must lie in 1..{cpus}, got {workers}")
    return workers


def cmd_sample(args) -> int:
    workers = _sample_workers(args)
    curve = load_graph(args)
    plan, table = load_table(args, curve)
    rng = random.Random(args.seed)
    draws = [
        tuple(rng.randint(args.length_min, args.length_max) for _ in curve.edges)
        for _ in range(args.count)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the plan, its involutions searched here, and the table go to each
        # worker once; the draws go in a few chunks each
        plan.stable
        chunk = -(-len(draws) // (4 * workers))
        with ProcessPoolExecutor(
            workers, initializer=_init_worker, initargs=(plan, table)
        ) as pool:
            results = list(pool.map(_sample_in_worker, draws, chunksize=chunk))
    else:
        results = [_sample_one(plan, table, lengths) for lengths in draws]
    counts: dict = {}
    for r in results:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    payload = {
        "seed": args.seed,
        "count": args.count,
        "verdict_counts": dict(sorted(counts.items())),
        "samples": results,
    }
    text = "\n".join(
        [f"{k}: {v}" for k, v in sorted(counts.items())]
        + [f"(seed {args.seed}, {args.count} samples)"]
    )
    return emit(args, payload, text)


if __name__ == "__main__":
    sys.exit(main())
