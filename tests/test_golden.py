"""Byte-identity of the fixture reports, seeded samples and group tables.

The expected outputs in tests/data/ were recorded from the command line:

    python scripts/fixture_reports.py [--json]
    tropceresa sample --graph builtin:G --table builtin:G --count 20 --seed 4
    tropceresa sample --graph builtin:G --table builtin:G --count 300 --seed 4
    tropceresa groups --graph builtin:G [--format text]
    tropceresa zharkov --graph builtin:G --table builtin:G
    tropceresa basis --graph builtin:G
    tropceresa order --graph builtin:G --table builtin:G [--format text]
    tropceresa ceresa --graph g5_k24.json --table g5_table.json [--format text]
    tropceresa groups --graph g5_k24.json [--format text]
    tropceresa basis --graph g5_k24.json
    tropceresa groups --graph k4_w1.json [--format text]
    tropceresa groups --graph builtin:theta-w1 --lengths 2,8,8 [--format text]
    tropceresa ceresa --graph petersen.json --table petersen_table.json [--format text]

g5_k24.json is the genus-5 curve K_{2,4} plus a parallel edge at each hub,
with lengths e8 = 2, e9 = 3 and all other edges 1; g5_table.json is a fixed
user table of two-Y-factor entries.  k4_w1.json is K4 with vertex a of
weight 1 and lengths 2, 4, 6, 2, 4, 6: a deficient-rank curve (g = 4,
h = 3) whose Q has invariant factors 2, 2, 240 (Smith diagonal D = [2, 6,
80], no divisibility chain), and where A and B differ.  petersen.json is
the Petersen graph (genus 6, trivalent, 15 edges) with seeded lengths in
1..5, and petersen_table.json a seeded fuzz user table
(`test_pipeline_fuzz.random_table`); tests/test_ceresa.py checks its orders
and groups against the original-frame engine.

The 300-draw samples of all four built-in tables were recorded before
`sample` read its draws off a verdict plan, and are compared at --workers
1 and 2.

A refactor that changes any of these bytes changes a published result.
"""

import contextlib
import importlib.util
import io
import os
from pathlib import Path

import pytest

from tropceresa import cli

DATA = Path(__file__).parent / "data"
SCRIPT = Path(__file__).parents[1] / "scripts" / "fixture_reports.py"
FIXTURES = ("k4", "tl3", "theta-w1", "3balloon")
BUILTINS = FIXTURES + ("theta0",)


def _fixture_reports(argv):
    spec = importlib.util.spec_from_file_location("fixture_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


CASES = [
    ("fixture_reports.txt", _fixture_reports, []),
    ("fixture_reports.json", _fixture_reports, ["--json"]),
] + [
    (
        f"sample_{g}_seed4.json",
        cli.main,
        ["sample", "--graph", f"builtin:{g}", "--table", f"builtin:{g}",
         "--count", "20", "--seed", "4"],
    )
    for g in ("tl3", "theta-w1")
] + [
    (f"groups_{g}.{ext}", cli.main, ["groups", "--graph", f"builtin:{g}", "--format", fmt])
    for g in FIXTURES
    for ext, fmt in (("json", "json"), ("txt", "text"))
] + [
    (f"zharkov_{g}.json", cli.main,
     ["zharkov", "--graph", f"builtin:{g}", "--table", f"builtin:{g}"])
    for g in ("k4", "tl3")
] + [
    (f"basis_{g}.json", cli.main, ["basis", "--graph", f"builtin:{g}"])
    for g in BUILTINS
] + [
    ("basis_g5.json", cli.main, ["basis", "--graph", str(DATA / "g5_k24.json")]),
] + [
    (f"order_{g}.{ext}", cli.main,
     ["order", "--graph", f"builtin:{g}", "--table", f"builtin:{g}", "--format", fmt])
    for g in FIXTURES
    for ext, fmt in (("json", "json"), ("txt", "text"))
] + [
    (f"{cmd}_g5.{ext}", cli.main,
     [cmd, "--graph", str(DATA / "g5_k24.json"), "--format", fmt] + table)
    for cmd, table in (
        ("ceresa", ["--table", str(DATA / "g5_table.json")]),
        ("groups", []),
    )
    for ext, fmt in (("json", "json"), ("txt", "text"))
] + [
    (f"ceresa_petersen.{ext}", cli.main,
     ["ceresa", "--graph", str(DATA / "petersen.json"),
      "--table", str(DATA / "petersen_table.json"), "--format", fmt])
    for ext, fmt in (("json", "json"), ("txt", "text"))
] + [
    (f"groups_{name}.{ext}", cli.main, ["groups", "--graph", graph, "--format", fmt] + extra)
    for name, graph, extra in (
        ("k4_w1", str(DATA / "k4_w1.json"), []),
        ("theta-w1_2_8_8", "builtin:theta-w1", ["--lengths", "2,8,8"]),
    )
    for ext, fmt in (("json", "json"), ("txt", "text"))
]


@pytest.mark.parametrize("name,run,argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_recording(name, run, argv, monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert out.getvalue() == (DATA / name).read_text()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", FIXTURES)
def test_sample_300_matches_recording(name, workers, monkeypatch):
    if workers > (os.cpu_count() or 1):
        pytest.skip("needs two cores")
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([
            "sample", "--graph", f"builtin:{name}", "--table", f"builtin:{name}",
            "--count", "300", "--seed", "4", "--workers", str(workers),
        ]) == 0
    assert out.getvalue() == (DATA / f"sample_{name}_seed4_300.json").read_text()
