import argparse
import concurrent.futures
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tropceresa import catalog, ceresa, cli, exterior, graph_core, johnson, symplectic
from tropceresa import intlinalg as la
from tropceresa.catalog import (
    BUILTIN_GRAPHS,
    BUILTIN_TABLES,
    builtin_curve,
    builtin_table,
)
from tropceresa.cli import WORKERS_ENV, main
from tropceresa.graph_core import curve_to_json, genus, tropical_curve

import helpers
from helpers import banana_curve, k4_curve, table_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ceresa_k4_fixture(capsys):
    code, out, err = run(
        capsys,
        "ceresa",
        "--graph", "builtin:k4",
        "--table", "builtin:k4",
        "--lengths", "1,1,1,1,1,1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "nontrivial"
    assert data["order_in_Bbar"] == 16
    assert data["invariant_factors"] == [1, 4, 4]
    assert data["groups"]["Bbar"]["order"] == 512


def test_symanzik(capsys):
    code, out, _ = run(
        capsys, "symanzik", "--graph", "builtin:k4", "--lengths", "1,1,1,1,1,1"
    )
    assert code == 0
    assert json.loads(out) == {"symanzik": "16"}


def test_hyperelliptic(capsys):
    code, out, _ = run(capsys, "hyperelliptic", "--graph", "builtin:theta0")
    assert code == 0
    assert json.loads(out)["hyperelliptic"] is True
    code, out, _ = run(capsys, "hyperelliptic", "--graph", "builtin:k4")
    assert json.loads(out)["hyperelliptic"] is False



def test_hyperelliptic_searches_once_per_call(monkeypatch, capsys):
    calls = []
    tree_quotient_candidates = graph_core._tree_quotient_candidates

    def counting(curve):
        calls.append(curve)
        return tree_quotient_candidates(curve)

    monkeypatch.setattr(graph_core, "_tree_quotient_candidates", counting)
    for fmt in ("json", "text"):
        calls.clear()
        code, _, _ = run(capsys, "hyperelliptic", "--graph", "builtin:theta0", "--format", fmt)
        assert code == 0 and len(calls) == 1


def test_main_calls_share_one_parser(monkeypatch, capsys):
    """The argparse tree is built once per process; a call that exits 2 on
    a parse error leaves it as a fresh one would be."""
    valid = ["order", "--graph", "builtin:k4", "--table", "builtin:k4", "--format", "text"]
    cli.build_parser.cache_clear()
    alone = run(capsys, *valid)
    assert alone[0] == 0

    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["order", "--graph", "builtin:k4", "--lengths", "1"])  # no --table
    assert exc.value.code == 2 and "--table" in capsys.readouterr().err
    assert run(capsys, *valid) == alone
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_main_runs_the_handler_bound_on_the_module(monkeypatch, capsys):
    """The shared parser names its handlers, so a `cmd_*` rebound on the
    module after the parser was built is the one `main` runs."""
    assert run(capsys, "genus", "--graph", "builtin:k4")[0] == 0
    seen = []

    def patched(args):
        seen.append(args.graph)
        return 0

    monkeypatch.setattr(cli, "cmd_genus", patched)
    assert run(capsys, "genus", "--graph", "builtin:tl3") == (0, "", "")
    assert seen == ["builtin:tl3"]


def test_hyperelliptic_banana10(tmp_path, capsys):
    path = tmp_path / "banana10.json"
    path.write_text(json.dumps(curve_to_json(banana_curve(10))))
    code, out, _ = run(capsys, "hyperelliptic", "--graph", str(path))
    assert code == 0
    assert json.loads(out) == {"hyperelliptic": True, "involutions": 1}


def test_hyperelliptic_banana13(tmp_path, capsys):
    """Past 12 edges the search still decides: no edge cap exits 3."""
    path = tmp_path / "banana13.json"
    path.write_text(json.dumps(curve_to_json(banana_curve(13))))
    code, out, err = run(capsys, "hyperelliptic", "--graph", str(path))
    assert code == 0 and err == ""
    assert json.loads(out) == {"hyperelliptic": True, "involutions": 1}


def test_groups_rank_cap_fires_before_homology(tmp_path, capsys, monkeypatch):
    """Genus 4002 would need a 4002 x 4002 Gram form, and `basis` would pad
    every loop class to length 4002; the cap refuses both before any
    homology is built."""
    def unreachable(*args, **kwargs):
        raise AssertionError("homology basis built past the rank cap")

    for module in (symplectic, ceresa):
        monkeypatch.setattr(module, "homology_basis", unreachable)
    heavy = tropical_curve(
        [("u", 4000), ("v", 0)], [(f"e{i}", ("u", "v"), 1) for i in range(3)]
    )
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(curve_to_json(heavy)))
    for command in ("groups", "basis"):
        code, out, err = run(capsys, command, "--graph", str(path))
        assert code == 3 and out == ""
        assert "wedge machinery capped at rank 16" in err


@pytest.mark.parametrize("command", ["ceresa", "order", "zharkov", "sample"])
def test_table_commands_rank_cap_fires_before_homology(tmp_path, capsys, monkeypatch, command):
    """A theta graph with vertex weight 10^4 has genus 10002; every table
    command refuses it, for a built-in and a user table, before any basis
    is built (the basis pads each loop class to length g)."""
    def unreachable(*args, **kwargs):
        raise AssertionError("homology basis built past the rank cap")

    for module in (symplectic, catalog, ceresa):
        monkeypatch.setattr(module, "homology_basis", unreachable)
    heavy = tropical_curve(
        [("u", 10**4), ("v", 0)], [(f"e{i}", ("u", "v"), 1) for i in range(3)]
    )
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(curve_to_json(heavy)))
    user = Path(__file__).parent / "data" / "g5_table.json"
    for table in ("builtin:k4", str(user)):
        code, out, err = run(capsys, command, "--graph", str(path), "--table", table)
        assert code == 3 and out == ""
        assert "wedge machinery capped at rank 16" in err


def test_genus_and_basis(capsys):
    code, out, _ = run(capsys, "genus", "--graph", "builtin:theta-w1")
    assert code == 0
    assert json.loads(out) == {"genus": 4, "graph_genus": 2, "total_weight": 2}
    code, out, _ = run(capsys, "basis", "--graph", "builtin:k4")
    data = json.loads(out)
    assert data["nontree_edges"] == ["u1", "u2", "u3"]


@pytest.mark.parametrize("name, lengths, scale", [
    ("k4", "1/2,3,5/3,7,2/5,1", 30),
    ("tl3", "1,2/3,3,4,5/7,6,7,8,9/2", 42),
    ("theta-w1", "1/2,2/3,3/4", 12),
    ("theta0", "2,3,4", 1),
])
def test_basis_reports_the_scaled_curve(capsys, name, lengths, scale):
    """`basis --lengths` prints the basis of the curve scaled to integer
    lengths, and as `length_scale` the lcm of the length denominators."""
    code, out, err = run(capsys, "basis", "--graph", f"builtin:{name}", "--lengths", lengths)
    assert (code, err) == (0, "")
    curve = graph_core.with_sorted_lengths(
        builtin_curve(name), [Fraction(x) for x in lengths.split(",")]
    )
    scaled = graph_core.with_sorted_lengths(
        curve, [e.length * scale for e in curve.sorted_edges()]
    )
    assert all(e.length.denominator == 1 for e in scaled.edges)
    want = symplectic.basis_report(scaled, symplectic.homology_basis(scaled))
    assert json.loads(out) == want | {"length_scale": scale}


@pytest.mark.parametrize("command", ["basis", "groups"])
def test_genus_one_is_refused(tmp_path, capsys, command):
    path = tmp_path / "banana2.json"
    path.write_text(json.dumps(curve_to_json(banana_curve(2))))
    code, out, err = run(capsys, command, "--graph", str(path))
    assert (code, out) == (3, "")
    assert err == "error: homology basis requires genus >= 2\n"


def test_order_and_groups(capsys):
    code, out, _ = run(
        capsys, "order", "--graph", "builtin:k4", "--table", "builtin:k4"
    )
    assert code == 0 and json.loads(out)["order_in_Bbar"] == 16
    code, out, _ = run(capsys, "groups", "--graph", "builtin:k4")
    assert json.loads(out)["groups"]["B"]["order"] == 8192


def test_theta_membership(capsys):
    code, out, _ = run(
        capsys, "order", "--graph", "builtin:theta-w1", "--table", "builtin:theta-w1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["in_Abar"] is False and data["least_multiple_in_Abar"] == 3


def test_order_encodes_infinite_multiple_as_in_report(tmp_path, capsys):
    """A class outside the rational span of F2 + (delta-I)L + H has no
    multiple in Abar: `order` writes "infinite", as `ceresa` does, and its
    text form is unchanged."""
    table = {
        "basis_ref": {"g": 4, "h": 2, "nontree_edges": ["u2", "u3"]},
        "entries": {"u2": {"(1,2,3)": "1"}},
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    argv = ("order", "--graph", "builtin:theta-w1", "--table", str(path))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["least_multiple_in_Abar"] == "infinite"
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 0
    assert out == "not in Abar; least multiple inf (nontrivial)\n"
    code, out, _ = run(capsys, "ceresa", *argv[1:])
    assert json.loads(out)["least_multiple_in_Abar"] == "infinite"


def test_exit_code_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "genus", "--graph", str(bad))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "genus", "--graph", str(tmp_path / "missing.json"))
    assert code == 2
    code, _, err = run(
        capsys, "genus", "--graph", "builtin:k4", "--lengths", "1,2"
    )
    assert code == 2


def test_exit_code_precondition(capsys):
    code, _, err = run(
        capsys, "zharkov", "--graph", "builtin:theta-w1", "--table", "builtin:theta-w1"
    )
    assert code == 3 and "error" in err


def test_graph_file_round_trip(tmp_path, capsys):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(curve_to_json(k4_curve((2, 2, 2, 2, 2, 2)))))
    code, out, _ = run(capsys, "symanzik", "--graph", str(path))
    assert code == 0
    assert json.loads(out)["symanzik"] == str(16 * 2 ** 3)


def test_stabilize_output_parses(capsys):
    code, out, _ = run(capsys, "stabilize", "--graph", "builtin:k4")
    assert code == 0
    from tropceresa.graph_core import curve_from_json

    assert curve_from_json(json.loads(out)) == k4_curve()


def test_sample_deterministic(capsys):
    args = (
        "sample",
        "--graph", "builtin:k4",
        "--table", "builtin:k4",
        "--count", "6",
        "--seed", "11",
    )
    code, out1, _ = run(capsys, *args)
    code, out2, _ = run(capsys, *args)
    assert code == 0 and out1 == out2
    data = json.loads(out1)
    assert data["verdict_counts"] == {"nontrivial": 6}
    assert len(data["samples"]) == 6


def test_user_table_file(tmp_path, capsys):
    # a user-supplied table: zero entries, flagged and indeterminate
    table = {
        "basis_ref": {"g": 3, "h": 3, "nontree_edges": ["u1", "u2", "u3"]},
        "entries": {},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, _ = run(
        capsys, "ceresa", "--graph", "builtin:k4", "--table", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "indeterminate"
    assert data["table"]["provenance"] == "user"


def test_table_file_cannot_claim_builtin_provenance(tmp_path, capsys):
    """A table read from a file is a user table whatever it declares: the
    k4 table emptied of entries stays indeterminate, with both notes."""
    table = table_to_json(builtin_table("k4"))
    table["entries"] = {}
    assert table["provenance"] == "builtin"
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, _ = run(
        capsys, "ceresa", "--graph", "builtin:k4", "--table", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["table"]["provenance"] == "user"
    assert (data["verdict"], data["decided_by"]) == ("indeterminate", "order-ambient")
    assert len(data["notes"]) == 2


BAD_TABLES = [
    ("3balloon", {"b2": {"(1,2,3)": "1"}}, "separating edge b2 must have a zero table entry"),
    ("k4", {"zz": {"(1,4,5)": "1"}}, "table entry for unknown edge zz"),
]


@pytest.mark.parametrize("graph, entries, message", BAD_TABLES)
@pytest.mark.parametrize(
    "command",
    [["ceresa"], ["order"], ["zharkov"], ["sample", "--workers", "1"], ["sample", "--workers", "2"]],
)
def test_invalid_user_table_exits_2(
    tmp_path, capsys, no_pool, monkeypatch, graph, entries, message, command
):
    """A user table with a nonzero bridge entry or an entry for an unknown
    edge is refused when it is read, with the same message from every
    command that takes a table."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    table = table_to_json(builtin_table(graph))
    table["entries"] = entries
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, *command, "--graph", f"builtin:{graph}", "--table", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("key,value", [("(9,9,1)", "1"), ("(1,1)", "2")])
def test_table_key_with_repeated_index_is_schema_error(tmp_path, capsys, key, value):
    """A key is checked for length and range before a repeated index can
    turn it into zero."""
    table = {
        "basis_ref": {"g": 3, "h": 3, "nontree_edges": ["u1", "u2", "u3"]},
        "entries": {"t6": {key: value}},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run(
        capsys, "order", "--graph", "builtin:k4", "--table", str(path)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: malformed table JSON: bad index tuple")


def test_user_table_with_fractional_class_exits_3(tmp_path, capsys):
    # half of a two-Y-factor monomial lies outside F2 + H: no graded order
    table = {
        "basis_ref": {"g": 3, "h": 3, "nontree_edges": ["u1", "u2", "u3"]},
        "entries": {"u2": {"(1,4,5)": "1/2"}},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, _, err = run(
        capsys, "ceresa", "--graph", "builtin:k4", "--table", str(path)
    )
    assert code == 3
    assert "class does not lie in F2 + H" in err


@pytest.mark.parametrize("entry, verdict, decided_by, ambient", [
    ({"(4,5,6)": "1"}, "indeterminate", "order-ambient", 1),  # b1 b2 b3: F3
    ({"(1,2,6)": "1"}, "nontrivial", "not-in-Abar", None),  # a1 a2 b3: gr1
    ({"(1,4,5)": "1", "(4,5,6)": "1"}, "nontrivial", "order-ambient", 32),
])
def test_maximal_rank_user_table_off_gr2_is_decided_in_Abar(
    tmp_path, capsys, entry, verdict, decided_by, ambient
):
    """A class with an F3 or gr1 term has no u, even at maximal rank:
    membership in Abar and the ambient order decide it."""
    table = {
        "basis_ref": {"g": 3, "h": 3, "nontree_edges": ["u1", "u2", "u3"]},
        "entries": {"u2": entry},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, _ = run(capsys, "ceresa", "--graph", "builtin:k4", "--table", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["rank_status"] == "maximal"
    assert data["u"] is None and data["order_in_Bbar"] is None and data["zharkov"] is None
    assert (data["verdict"], data["decided_by"]) == (verdict, decided_by)
    assert data["order_ambient"] == ambient


def test_text_format(capsys):
    code, out, _ = run(
        capsys,
        "ceresa",
        "--graph", "builtin:k4",
        "--table", "builtin:k4",
        "--format", "text",
    )
    assert code == 0
    assert "verdict: nontrivial" in out


def test_table_genus_mismatch_is_schema_error(capsys):
    code, _, err = run(
        capsys, "ceresa", "--graph", "builtin:theta0", "--table", "builtin:k4"
    )
    assert code == 2
    assert "error:" in err and "'k4'" in err and "genus-3" in err


def test_builtin_table_refuses_a_foreign_graph(tmp_path, capsys):
    """A genus-3 graph that names K4's edges, with other ends, is not K4: the
    built-in table does not bind to it, although its genus and edge ids fit."""
    foreign = tropical_curve(
        [("a", 0), ("b", 0), ("c", 0), ("d", 0)],
        [("t4", ("a", "b"), 1), ("t5", ("b", "c"), 2), ("t6", ("c", "d"), 3),
         ("u1", ("d", "a"), 4), ("u2", ("a", "c"), 5), ("u3", ("b", "d"), 6)],
    )
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(curve_to_json(foreign)))
    code, out, err = run(
        capsys, "ceresa", "--graph", str(path), "--table", "builtin:k4", "--format", "text"
    )
    assert (code, out) == (2, "")
    assert "error:" in err and "binds only to builtin:k4" in err
    # the same graph at other lengths still binds
    k4 = graph_core.with_sorted_lengths(builtin_curve("k4"), [1, 2, 3, 4, 5, 6])
    path.write_text(json.dumps(curve_to_json(k4)))
    code, out, _ = run(capsys, "ceresa", "--graph", str(path), "--table", "builtin:k4")
    assert code == 0 and json.loads(out)["table"]["provenance"] == "builtin"


@pytest.mark.parametrize("bad", ["a", "1/0", "", "inf"])
def test_malformed_lengths_are_schema_errors(capsys, bad):
    lengths = ",".join([bad] + ["1"] * 5)
    code, _, err = run(capsys, "genus", "--graph", "builtin:k4", "--lengths", lengths)
    assert code == 2
    assert "error:" in err and repr(bad) in err


@pytest.mark.parametrize("command", ["genus", "ceresa"])
def test_empty_lengths_is_schema_error(capsys, command):
    table = ["--table", "builtin:k4"] if command == "ceresa" else []
    code, out, err = run(
        capsys, command, "--graph", "builtin:k4", "--lengths", "", *table
    )
    assert code == 2 and out == ""
    assert err == "error: --lengths: bad value ''\n"


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "entries",
    [
        pytest.param(lambda e: [], id="entries-list"),
        pytest.param(lambda e: {**e, "e0": "x"}, id="entry-not-object"),
        pytest.param(lambda e: {**e, "e0": {"(1,7,9)": "1/0"}}, id="zero-denominator"),
    ],
)
def test_malformed_table_entries_are_schema_errors(tmp_path, capsys, entries):
    table = json.loads((DATA / "g5_table.json").read_text())
    table["entries"] = entries(table["entries"])
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, _, err = run(
        capsys, "ceresa", "--graph", str(DATA / "g5_k24.json"), "--table", str(path)
    )
    assert code == 2
    assert err.startswith("error: malformed table JSON: ")


def _set_first(key, field, value):
    def mutate(data):
        data[key][0][field] = value
        return data
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(_set_first("edges", "length", "1/0"), id="zero-denominator"),
        pytest.param(_set_first("edges", "ends", ["a", "d", "b"]), id="three-ends"),
        pytest.param(_set_first("edges", "ends", "ad"), id="ends-string"),
        pytest.param(_set_first("vertices", "weight", 1.5), id="weight-float"),
        pytest.param(_set_first("vertices", "weight", True), id="weight-bool"),
    ],
)
def test_malformed_graph_json_is_schema_error(tmp_path, capsys, mutate):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(mutate(curve_to_json(k4_curve()))))
    code, out, err = run(capsys, "genus", "--graph", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed graph JSON: ")


def _duplicate_first(key):
    def mutate(data):
        data[key][1]["id"] = data[key][0]["id"]
        return data
    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(_duplicate_first("vertices"), "duplicate vertex ids", id="vertex-ids"),
        pytest.param(_duplicate_first("edges"), "duplicate edge ids", id="edge-ids"),
        pytest.param(_set_first("vertices", "weight", -1), "vertex a has negative weight",
                     id="negative-weight"),
    ],
)
def test_invalid_graph_exits_2(tmp_path, capsys, mutate, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(mutate(curve_to_json(k4_curve()))))
    code, out, err = run(capsys, "genus", "--graph", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "ref, message",
    [
        ({"g": 4}, "table basis_ref does not match the curve basis"),
        ({"nontree_edges": ["u3", "u2", "u1"]}, "table basis_ref lists different non-tree edges"),
    ],
)
def test_table_basis_ref_mismatch_exits_2(tmp_path, capsys, ref, message):
    table = table_to_json(builtin_table("k4"))
    table["basis_ref"].update(ref)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, "order", "--graph", "builtin:k4", "--table", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_table_file_with_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "order", "--graph", "builtin:k4", "--table", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid JSON in {path}: ")


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if anything tries to start a process pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.delenv(WORKERS_ENV, raising=False)


SAMPLE = ("sample", "--graph", "builtin:k4", "--table", "builtin:k4", "--count", "2")


@pytest.mark.parametrize(
    "extra",
    [
        ("--count", "-3"),
        ("--count", "0"),
        ("--length-min", "5", "--length-max", "1"),
        ("--length-min", "0"),
        ("--workers", "0"),
        ("--workers", "-2"),
    ],
)
def test_sample_options_rejected_before_work(capsys, no_pool, extra):
    code, out, err = run(capsys, *SAMPLE, *extra)
    assert code == 2 and out == "" and "error:" in err


def test_sample_rejects_lengths(capsys, no_pool):
    code, out, err = run(capsys, *SAMPLE, "--lengths", "1,2,3,4,5,6")
    assert code == 2 and out == ""
    assert "error: sample draws its own lengths" in err


def test_sample_workers_bounded_by_cpu_count(capsys, no_pool, monkeypatch):
    cpus = os.cpu_count() or 1
    code, out, err = run(capsys, *SAMPLE, "--workers", str(cpus + 1))
    assert code == 2 and out == "" and "error:" in err
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, _, err = run(capsys, *SAMPLE, "--workers", "2")
    assert code == 2 and "1..1" in err
    code, out, _ = run(capsys, *SAMPLE, "--workers", "1")
    assert code == 0 and json.loads(out)["count"] == 2


def test_workers_env_validated_lazily(capsys, no_pool, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "many")
    code, out, _ = run(capsys, "genus", "--graph", "builtin:k4")
    assert code == 0 and json.loads(out)["genus"] == 3
    code, out, err = run(capsys, *SAMPLE)
    assert code == 2 and out == "" and WORKERS_ENV in err
    monkeypatch.setenv(WORKERS_ENV, "1")
    code, _, _ = run(capsys, *SAMPLE)
    assert code == 0


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
@pytest.mark.parametrize("name", ["tl3", "theta-w1"])
def test_sample_pool_matches_serial(capsys, name):
    argv = (
        "sample", "--graph", f"builtin:{name}", "--table", f"builtin:{name}",
        "--count", "20", "--seed", "4",
    )
    code1, serial, _ = run(capsys, *argv, "--workers", "1")
    code2, pooled, _ = run(capsys, *argv, "--workers", "2")
    assert code1 == code2 == 0
    assert pooled == serial


def test_sample_reads_graph_and_table_once(tmp_path, capsys, no_pool, monkeypatch):
    graph = tmp_path / "k4.json"
    graph.write_text(json.dumps(curve_to_json(builtin_curve("k4"))))
    table = tmp_path / "k4_table.json"
    table.write_text(json.dumps(table_to_json(builtin_table("k4"))))
    calls = {"graph": 0, "table": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    load_curve, load_table = graph_core.load_curve, johnson.load_table
    monkeypatch.setattr(graph_core, "load_curve", counting("graph", load_curve))
    monkeypatch.setattr(johnson, "load_table", counting("table", load_table))
    code, out, _ = run(
        capsys, "sample", "--graph", str(graph), "--table", str(table), "--count", "5"
    )
    assert code == 0 and len(json.loads(out)["samples"]) == 5
    assert calls == {"graph": 1, "table": 1}


@pytest.mark.parametrize("name, frames", [("tl3", 0), ("k4", 0), ("theta-w1", 1)])
def test_sample_builds_a_smith_frame_only_at_deficient_rank(capsys, monkeypatch, name, frames):
    """A maximal-rank draw reads u and Q, and u the fraction-free inverse of
    Q, so it neither Smith-reduces Q nor builds the Smith frame; a
    deficient-rank draw (theta-w1) reduces its Q_h once and builds the frame
    once, for both of its orders (`forced_order`)."""
    calls = []
    smith_frame = ceresa.smith_frame

    def counting(*args):
        calls.append(args)
        return smith_frame(*args)

    monkeypatch.setattr(ceresa, "smith_frame", counting)
    reduced, contexts = helpers.record_q_reductions(monkeypatch)
    code, _, _ = run(
        capsys, "sample", "--graph", f"builtin:{name}", "--table", f"builtin:{name}",
        "--count", "6", "--seed", "3", "--workers", "1",
    )
    assert code == 0
    assert len(calls) == 6 * frames and len(contexts) == 6
    helpers.assert_q_reductions_per_context(reduced, contexts, frames)
    assert all(("frame" in vars(ctx)) == bool(frames) for ctx in contexts)


def test_deficient_rank_sample_draws_transpose_no_matrix(capsys, monkeypatch):
    """A theta-w1 draw maps its class into the Smith frame, which
    `smith_frame` builds as sparse columns: no draw reads the columns of a
    dense matrix (`exterior._sparse_columns`)."""
    calls = []
    sparse_columns = exterior._sparse_columns

    def counting(mat):
        calls.append(mat)
        return sparse_columns(mat)

    monkeypatch.setattr(exterior, "_sparse_columns", counting)
    contexts = helpers.record_q_reductions(monkeypatch)[1]
    code, _, _ = run(
        capsys, "sample", "--graph", "builtin:theta-w1", "--table", "builtin:theta-w1",
        "--count", "6", "--seed", "3", "--workers", "1",
    )
    assert code == 0 and calls == []
    assert len(contexts) == 6 and all("frame" in vars(ctx) for ctx in contexts)


def _count_graph_work(monkeypatch) -> dict:
    """From now on, the calls to `homology_basis`, `stabilize` and
    `stable_model`, wherever a tropceresa module binds them."""
    calls = {"homology_basis": 0, "stabilize": 0, "stable_model": 0}
    for name in calls:
        original = getattr(symplectic if name == "homology_basis" else graph_core, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("tropceresa") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_sample_does_its_graph_only_work_once_per_run(capsys, monkeypatch):
    """The homology basis and the stable model depend on the graph alone:
    `sample` builds them as often for 50 draws as for 5, once for the table,
    whose basis the graph plan takes, and once on the stable graph."""
    calls = _count_graph_work(monkeypatch)
    seen = []
    for count in (5, 50):
        calls.update(dict.fromkeys(calls, 0))
        code, out, _ = run(
            capsys, "sample", "--graph", "builtin:tl3", "--table", "builtin:tl3",
            "--count", str(count), "--workers", "1",
        )
        assert code == 0 and len(json.loads(out)["samples"]) == count
        seen.append(dict(calls))
    assert seen[0] == seen[1] == {"homology_basis": 2, "stabilize": 0, "stable_model": 1}


@pytest.mark.parametrize("argv, bases, stable", [
    (["ceresa", "--graph", "builtin:tl3", "--table", "builtin:tl3"], 2, 1),
    (["order", "--graph", "builtin:theta-w1", "--table", "builtin:theta-w1"], 2, 1),
    (["zharkov", "--graph", "builtin:tl3", "--table", "builtin:tl3"], 1, 0),
    (["ceresa", "--graph", str(DATA / "k4_w1.json"),
      "--table", str(DATA / "k4_w1_table.json")], 2, 1),
    (["order", "--graph", str(DATA / "g5_k24.json"),
      "--table", str(DATA / "g5_table.json")], 2, 1),
    (["zharkov", "--graph", str(DATA / "g5_k24.json"),
      "--table", str(DATA / "g5_table.json")], 1, 0),
    (["basis", "--graph", "builtin:k4"], 1, 0),
    (["groups", "--graph", "builtin:theta-w1"], 1, 0),
    (["hyperelliptic", "--graph", "builtin:tl3"], 1, 1),
])
def test_each_command_builds_one_basis_per_graph(capsys, monkeypatch, argv, bases, stable):
    """A table command builds one graph plan, on the built-in table's basis
    or with the basis a user table is read on; only a verdict searches the
    stable graph for involutions, which builds its basis."""
    calls = _count_graph_work(monkeypatch)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert calls["homology_basis"] == bases
    assert calls["stable_model"] == stable


@pytest.mark.parametrize("command", ["ceresa", "order", "zharkov", "sample"])
def test_genus_one_table_errors_keep_their_precedence(tmp_path, capsys, command):
    """A built-in table checks the genus before any basis is built (exit 2);
    a user table is read on the curve's basis, which genus 1 lacks (exit 3)."""
    path = tmp_path / "banana2.json"
    path.write_text(json.dumps(curve_to_json(banana_curve(2))))
    code, out, err = run(capsys, command, "--graph", str(path), "--table", "builtin:k4")
    assert (code, out) == (2, "") and "needs a genus-3 curve" in err
    user = str(DATA / "g5_table.json")
    code, out, err = run(capsys, command, "--graph", str(path), "--table", user)
    assert (code, out) == (3, "") and err == "error: homology basis requires genus >= 2\n"


@pytest.mark.parametrize("argv, reductions", [
    (["sample", "--graph", "builtin:tl3", "--table", "builtin:tl3",
      "--count", "4", "--workers", "1"], 0),
    (["sample", "--graph", "builtin:theta-w1", "--table", "builtin:theta-w1",
      "--count", "4", "--workers", "1"], 0),
    (["order", "--graph", "builtin:tl3", "--table", "builtin:tl3"], 0),
    (["order", "--graph", "builtin:theta-w1", "--table", "builtin:theta-w1"], 0),
    (["ceresa", "--graph", "builtin:tl3", "--table", "builtin:tl3"], 1),
    (["ceresa", "--graph", "builtin:tl3", "--table", "builtin:tl3", "--format", "text"], 1),
    (["groups", "--graph", "builtin:theta-w1"], 1),
    (["groups", "--graph", "builtin:k4"], 1),
])
def test_q_is_reduced_only_where_its_invariant_factors_are_printed(
    capsys, monkeypatch, argv, reductions
):
    """`sample` and `order` print no invariant factors, so they never reduce
    the diagonal D to its divisibility chain; a report and the group table
    do that once.  A context, one per `sample` draw, Smith-reduces its Q_h
    once where it prints the invariant factors or decides at deficient rank
    (`forced_order` reads the frame), and not at all for a maximal-rank
    verdict (tl3), whose u reads the fraction-free inverse of Q."""
    calls = []
    reduce = la.diagonal_invariant_factors

    def counting(diag):
        calls.append(diag)
        return reduce(diag)

    monkeypatch.setattr(la, "diagonal_invariant_factors", counting)
    reduced, contexts = helpers.record_q_reductions(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == reductions
    assert len(contexts) == (4 if argv[0] == "sample" else 1)
    each = 0 if argv[0] in ("sample", "order") and contexts[0].maximal_rank else 1
    helpers.assert_q_reductions_per_context(reduced, contexts, each)


@pytest.mark.parametrize("fmt, unused", [("json", "to_text"), ("text", "to_json")])
def test_ceresa_renders_only_the_format_it_prints(capsys, monkeypatch, fmt, unused):
    def refuse(self):
        raise AssertionError(f"CeresaReport.{unused} called")

    monkeypatch.setattr(ceresa.CeresaReport, unused, refuse)
    code, out, _ = run(
        capsys, "ceresa", "--graph", "builtin:k4", "--table", "builtin:k4", "--format", fmt
    )
    assert code == 0 and "verdict" in out


@pytest.mark.parametrize("command", ["stabilize", "basis"])
def test_json_only_commands_print_the_same_json_in_text_mode(capsys, command):
    outs = [
        run(capsys, command, "--graph", "builtin:theta-w1", "--format", fmt)
        for fmt in ("json", "text")
    ]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert json.loads(outs[0][1])


FUZZ_BASES = [
    ["genus", "--graph", "builtin:k4"],
    ["stabilize", "--graph", "builtin:theta0", "--format", "text"],
    ["symanzik", "--graph", "builtin:k4", "--lengths", "1,2,3,4,5,6"],
    ["hyperelliptic", "--graph", "builtin:theta0"],
    ["basis", "--graph", "builtin:theta-w1"],
    ["groups", "--graph", "builtin:k4"],
    ["ceresa", "--graph", "builtin:k4", "--table", "builtin:k4"],
    ["order", "--graph", "builtin:theta-w1", "--table", "builtin:theta-w1"],
    ["zharkov", "--graph", "builtin:k4", "--table", "builtin:k4"],
    ["sample", "--graph", "builtin:k4", "--table", "builtin:k4", "--count", "2"],
    ["symanzik", "--graph", "builtin:k4", "--lengths", ",".join(["9" * 1501] * 6)],
]
FUZZ_JUNK = ["", "-3", "0", "1", "2", "7", "x", "1/0", "2.5", "-1/2", "nan", "--"]
FUZZ_SOURCES = (
    [f"builtin:{name}" for name in BUILTIN_GRAPHS + BUILTIN_TABLES]
    + ["builtin:", "builtin:nope", "no/such/file.json"]
)
FUZZ_FLAGS = ["--count", "--length-min", "--length-max", "--seed", "--format"]
FUZZ_LONG = ["9" * 1501, "1" + "0" * 5000]  # past the 4300-digit int limit once multiplied


def _mutate(rng: random.Random, argv: list) -> list:
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(7)
        if op == 0 and len(argv) > 1:  # drop a token
            del argv[rng.randrange(len(argv))]
        elif op == 1:  # duplicate a flag with its value
            flags = [i for i, x in enumerate(argv[:-1]) if x.startswith("--")]
            if flags:
                i = rng.choice(flags)
                argv += argv[i : i + 2]
        elif op == 2 and len(argv) > 1:  # junk value
            argv[rng.randrange(1, len(argv))] = rng.choice(FUZZ_JUNK)
        elif op == 3:  # graph and table, matched or drawn independently
            graph = rng.choice(FUZZ_SOURCES)
            argv += ["--graph", graph]
            if rng.random() < 0.7:
                argv += ["--table", rng.choice([graph] + FUZZ_SOURCES)]
        elif op == 4:  # lengths: empty, wrong count or junk tokens
            n = rng.randint(0, 10)
            pool = ["1", "2", "3", "1/2"] * 3 + FUZZ_JUNK + FUZZ_LONG
            argv += ["--lengths", ",".join(rng.choice(pool) for _ in range(n))]
        elif op == 5:  # a sample option with a junk or negative number
            argv += [rng.choice(FUZZ_FLAGS), rng.choice(FUZZ_JUNK)]
        else:  # another subcommand in front
            argv[0] = rng.choice(FUZZ_BASES)[0]
    if argv and argv[0] == "sample":
        argv += ["--workers", "1"]
    return argv


def test_cli_exit_contract_fuzz(capsys, no_pool):
    """Mutated command lines end in 0, 2 or 3, never in a traceback."""
    rng = random.Random(20)
    codes = {}
    for _ in range(200):
        argv = _mutate(rng, rng.choice(FUZZ_BASES))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code or 0
        except Exception as exc:  # noqa: BLE001 - the contract forbids any
            pytest.fail(f"{argv!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), argv
        if code:
            assert "error:" in err, argv
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(0) and codes.get(2), codes


HUGE_LENGTHS = ",".join(str(10**1500 + 37 * i + 1) for i in range(6))


def _longest_int(text: str) -> int:
    return max(len(x) for x in re.findall(r"\d+", text))


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", [
    ["groups", "--graph", "builtin:k4"],
    ["ceresa", "--graph", "builtin:k4", "--table", "builtin:k4"],
    ["symanzik", "--graph", "builtin:k4"],
])
def test_integers_past_the_str_digit_limit_print(capsys, command, fmt):
    """Six 1501-digit lengths on K4 give group orders and a Symanzik value
    of more than 4300 digits, past Python's default int-to-str limit; main
    lifts that limit, so they print and the command exits 0."""
    code, out, err = run(capsys, *command, "--lengths", HUGE_LENGTHS, "--format", fmt)
    assert code == 0, err
    assert _longest_int(out) > 4300
    if fmt == "json":
        json.loads(out)


def _prism(n: int, lengths) -> graph_core.TropicalCurve:
    """C_n x K_2 of genus n + 1: rungs r_i, and u_i u_i+1 and v_i v_i+1."""
    ends = []
    for i in range(n):
        j = (i + 1) % n
        ends += [(f"u{i}", f"v{i}"), (f"u{i}", f"u{j}"), (f"v{i}", f"v{j}")]
    return tropical_curve(
        [(f"{s}{i}", 0) for s in "uv" for i in range(n)],
        [(f"e{k:02}", uv, x) for k, (uv, x) in enumerate(zip(ends, lengths, strict=True))],
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_groups_on_a_genus_8_prism_with_30_digit_lengths(capsys, tmp_path, fmt):
    """A curve inside every cap whose group orders pass 4300 digits."""
    rng = random.Random(8)
    curve = _prism(7, [rng.randrange(10**29, 10**30) for _ in range(21)])
    assert genus(curve) == 8
    path = tmp_path / "prism8.json"
    path.write_text(json.dumps(curve_to_json(curve)))
    code, out, err = run(capsys, "groups", "--graph", str(path), "--format", fmt)
    assert code == 0, err
    assert _longest_int(out) > 4300
    if fmt == "json":
        assert json.loads(out)["rank_status"] == "maximal"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_sample_with_1501_digit_length_bounds(capsys, no_pool, fmt):
    """Draws between 1501-digit bounds print their lengths and orders."""
    lo, hi = 10**1500, 3 * 10**1500
    code, out, err = run(
        capsys, *SAMPLE, "--length-min", str(lo), "--length-max", str(hi),
        "--workers", "1", "--format", fmt,
    )
    assert code == 0, err
    if fmt == "json":
        samples = json.loads(out)["samples"]
        assert all(lo <= x <= hi for s in samples for x in s["lengths"])
        assert _longest_int(out) > 4300
    else:
        assert out.endswith("(seed 0, 2 samples)\n")


LARGE_LENGTHS = "4615174,3782609,3793146,5853735,6262196,4336809"


@pytest.mark.parametrize("command", [
    ["groups", "--graph", "builtin:k4"],
    ["ceresa", "--graph", "builtin:k4", "--table", "builtin:k4"],
])
def test_large_lengths_finish(command):
    """An invariant factor of Q here has the prime factor
    320249599633641551; reading the group structure must not factor it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tropceresa.cli", *command, "--lengths", LARGE_LENGTHS],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    groups = json.loads(proc.stdout)["groups"]
    assert groups["A"]["torsion"] == [
        1697322878058300220300, 1697322878058300220300, 3394645756116600440600
    ]
