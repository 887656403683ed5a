"""Benchmark of the tropceresa command line, one workload per run.

    python3 perfbench/run.py --workload sample|report|hyperelliptic|all \
        --seed N --seconds S --trace 0|1

The package is imported from src/ of the checkout that holds this file.
Each operation is one in-process `tropceresa` CLI call in a single-client
closed loop (the next call starts when the previous one has returned).
Every output is checked; an exception, a traceback, a nonzero exit or a
wrong answer counts as a failed operation and the run goes on.

--trace 0 repeats rounds of the workload for --seconds and prints the
end-to-end metrics, with times rescaled to a nominal host speed (see
HostClock).  --trace 1 runs round 0 untraced, then again with per-function
spans (workers 1 only, since spans from pool workers are not collected),
checks that both produce the same stdout, and prints the per-layer metrics.
Detail lines start with '#'; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

LAYERS = ("cli", "ceresa", "catalog", "johnson", "symplectic", "exterior",
          "intlinalg", "graph_core")
SETUP_REPEATS = 7
# TL3 --workers 1/2 pairs behind cli.sample.scaling_eff in a traced run; one
# pair straddles too few host speed phases.  The rates are raw: the sampler
# shares a core with the pool workers, so it misreads their speed.
SCALING_PAIRS = 3


def import_package():
    """Import tropceresa from ./src; exit with status 1 when the checkout lacks it."""
    os.environ.pop("TROPCERESA_WORKERS", None)  # --workers is always explicit
    if not (SRC / "tropceresa" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'tropceresa'}")
    sys.path.insert(0, str(SRC))
    import tropceresa.cli  # noqa: F401

    if Path(sys.modules["tropceresa"].__file__).resolve().parent != (SRC / "tropceresa").resolve():
        sys.exit("error: tropceresa was not imported from ./src")
    return sys.modules["tropceresa.cli"]


# ---------------------------------------------------------------------------
# host-speed normalisation

# On a shared 2-core Xeon VM the speed of one core swings by up to 1.7x
# within seconds and drifts over minutes as other tenants come and go: ten
# identical genus-5 reports took 2.2 to 3.5 s.  While a run measures, a fixed reference kernel is timed every
# SAMPLE_INTERVAL_S from a SIGALRM handler, which runs in the main thread
# and so on the same core as the operation it interrupts.  An operation's
# time, minus the handler's, is rescaled by the mean speed sampled during it
# to a host on which the kernel takes REF_NOMINAL_S.  Rescaled, those ten
# reports varied by 1.6% (coefficient of variation) against 15% raw.  Raw
# times are printed too.
REF_NOMINAL_S = 0.002
SAMPLE_INTERVAL_S = 0.05


def reference_kernel():
    """Fixed pure-Python work like the package's: int, dict, Fraction, list."""
    x, acc = 0, {}
    for i in range(1, 2400):
        x = (x * 31 + i * i) % 1_000_000_007
        acc[i & 63] = acc.get(i & 63, 0) + (x << 40) // (i + 1)
    f = Fraction(0)
    for i in range(1, 160):
        f += Fraction(i, i + 7)
    row = [i * 3 for i in range(800)]
    return x, f, [a - 2 * b for a, b in zip(row, row[1:])]


class HostClock:
    """Times calls in raw seconds and in seconds at nominal host speed.

    Use as a context manager: sampling runs between __enter__ and __exit__.
    """

    def __init__(self):
        self.refs: list[float] = []  # reference kernel seconds, in time order
        self.paused_s = 0.0  # time spent in the sampling handler
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        self.refs.append(time.perf_counter() - t0)
        self._busy = False
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """(result, raw seconds, normalised seconds) of fn()."""
        first = max(len(self.refs) - 1, 0)  # the last sample before the call
        paused = self.paused_s
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            raw = time.perf_counter() - t0 - (self.paused_s - paused)
        speeds = [REF_NOMINAL_S / r for r in self.refs[first:]]
        return result, raw, raw * statistics.fmean(speeds) if speeds else raw


# ---------------------------------------------------------------------------
# running operations


def call(cli, argv, clock):
    """One CLI call: (raw seconds, normalised seconds, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()

    def run():
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            return None if rc == 0 else f"exit {rc}: {err.getvalue().strip()[-200:]}"
        except SystemExit as exc:
            return f"SystemExit {exc.code}: {err.getvalue().strip()[-200:]}"
        except Exception as exc:  # a traceback is a failed operation, not a crash
            return f"{type(exc).__name__}: {exc}"

    error, raw, norm = clock.timed(run)
    return raw, norm, out.getvalue(), error


class Tally:
    """Attempted and failed operations, and per case (raw s, normalised s, items)."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cases: dict[str, list[tuple[float, float, int]]] = {}

    def run(self, cli, op) -> str:
        """Run and check one operation; returns its stdout."""
        raw, norm, out, error = call(cli, op.argv, self.clock)
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:  # malformed output
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.case} {' '.join(op.argv)}: {error}")
        else:
            self.cases.setdefault(op.case, []).append((raw, norm, op.items))
        return out

    def _runs(self, cases):
        return [x for c in cases for x in self.cases.get(c, [])]

    def rate(self, *cases, norm=False) -> float:
        runs = self._runs(cases)
        busy = sum(x[1] if norm else x[0] for x in runs)
        return sum(x[2] for x in runs) / busy if busy else 0.0

    def per_item(self, *cases, norm=False) -> list[float]:
        return [(x[1] if norm else x[0]) / x[2] for x in self._runs(cases)]

    def busy(self, *cases, norm=False) -> float:
        return sum(x[1] if norm else x[0] for x in self._runs(cases))


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else p50(values)


# ---------------------------------------------------------------------------
# set-up


def setup_once(workload, seed, workdir, clock) -> tuple[float, float]:
    """Import the package afresh and generate round 0's inputs: (raw s, normalised s).

    The modules are re-executed in this process, so the host-speed samples
    come from the same core; the original modules are put back afterwards
    (the process pool pickles functions by their module path).
    """
    saved = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "tropceresa"}

    def work():
        for name in saved:
            del sys.modules[name]
        importlib.import_module("tropceresa.cli")
        workdir.mkdir()
        workloads.ROUNDS[workload](seed, 0, workdir)

    try:
        _, raw, norm = clock.timed(work)
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] == "tropceresa"]:
            del sys.modules[name]
        sys.modules.update(saved)
    return raw, norm


def environment(workers) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tropceresa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "workers": workers,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(cli, workload, seed, seconds, workdir):
    """Rounds until --seconds have passed; end-to-end metrics.

    Times are normalised (see HostClock); the issue-named rates and medians
    in raw seconds are printed as detail.  Set-up runs are spread between
    rounds.
    """
    clock = HostClock()
    tally = Tally(clock)
    setups = []
    start = time.perf_counter()
    rounds = 0
    with clock:
        while rounds == 0 or time.perf_counter() - start < seconds:
            roundir = workdir / f"r{rounds}"
            roundir.mkdir()
            for op in workloads.ROUNDS[workload](seed, rounds, roundir):
                tally.run(cli, op)
            shutil.rmtree(roundir)
            rounds += 1
            if len(setups) < SETUP_REPEATS:
                setups.append(setup_once(workload, seed, workdir / f"setup{len(setups)}", clock))
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_once(workload, seed, workdir / f"setup{len(setups)}", clock))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cases = [c for c in tally.cases if not c.endswith("_w2")]
    heavy = workloads.HEAVY_CASE[workload]
    metrics = {
        "setup_s": (p50([n for _, n in setups]), "s"),
        "throughput": (tally.rate(*cases, norm=True), "1/s"),
        "heavy_ms": (1000 * p50(tally.per_item(heavy, norm=True)), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "rounds": (rounds, "count"),
        "host.ref_p50_ms": (1000 * p50(clock.refs), "ms"),
        "raw.setup_s": (p50([r for r, _ in setups]), "s"),
        "raw.throughput": (tally.rate(*cases), "1/s"),
        "raw.heavy_ms": (1000 * p50(tally.per_item(heavy)), "ms"),
    }
    if workload == "sample":
        detail |= {
            "sample.tl3.rate": (tally.rate("tl3"), "1/s"),
            "sample.theta-w1.rate": (tally.rate("theta-w1"), "1/s"),
            "sample.tl3.rate_w2": (tally.rate("tl3_w2"), "1/s"),
        }
    elif workload == "report":
        for g in ("g3", "g4", "g5"):
            detail[f"report.{g}.p50_s"] = (p50(tally.per_item(g)), "s")
    else:
        detail |= {
            "hyperelliptic.rate": (tally.rate(*cases), "1/s"),
            "hyperelliptic.p50_s": (p50(tally.per_item(*cases)), "s"),
        }
    return tally, metrics, detail


def traced(cli, workload, seed, workdir):
    """Round 0 untraced, then traced; per-layer metrics.

    Span times are raw seconds, and include the host-speed sampler's few
    percent spread evenly over them; the trace overhead is normalised.
    """
    from tracer import Tracer

    ops = workloads.ROUNDS[workload](seed, 0, workdir)
    clock = HostClock()
    plain = Tally(clock)
    tracer = Tracer()
    tally = Tally(clock)
    with clock:
        outputs = [plain.run(cli, op) for op in ops]
        cases = [c for c in plain.cases if not c.endswith("_w2")]
        untraced_s = plain.busy(*cases, norm=True)
        # TL3 at --workers 1 and 2 back to back, for the scaling efficiency
        pair = [op for op in ops if op.case in ("tl3", "tl3_w2")]
        for _ in range(SCALING_PAIRS - 1):
            for op in pair:
                plain.run(cli, op)
        serial = [(op, out) for op, out in zip(ops, outputs) if op.workers == 1]
        tracer.install()
        try:
            for op, out in serial:
                check = op.check
                op.check = lambda got, out=out, check=check: (
                    check(got) if got == out else "traced stdout differs from untraced"
                )
                tally.run(cli, op)
        finally:
            tracer.uninstall()
    traced_s = tally.busy(*tally.cases, norm=True)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.errors = plain.errors + tally.errors

    layers = tracer.layer_self()
    busy = sum(layers.values()) or 1.0
    t = tracer
    rate_w1 = plain.rate("tl3")
    one = t.durations.get("cli.sample_one", [])
    metrics = {}
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layers.get(layer, 0.0), "s")
        metrics[f"layer.{layer}.share"] = (layers.get(layer, 0.0) / busy, "ratio")
    metrics |= {
        "intlinalg.class_order.calls": (t.calls("intlinalg.class_order"), "count"),
        "intlinalg.class_order.self_s": (t.self_s("intlinalg.class_order"), "s"),
        "intlinalg.class_order.total_s": (t.total_s("intlinalg.class_order"), "s"),
        "intlinalg.solve_frac_gauss.self_s": (t.self_s("intlinalg.solve_frac_gauss"), "s"),
        "intlinalg.Lattice.add.calls": (t.calls("intlinalg.Lattice.add"), "count"),
        "intlinalg.Lattice.add.self_s": (t.self_s("intlinalg.Lattice.add"), "s"),
        "intlinalg.lattice_intersection.self_s": (t.self_s("intlinalg.lattice_intersection"), "s"),
        "intlinalg.snf_diagonal_orders.self_s": (t.self_s("intlinalg.snf_diagonal_orders"), "s"),
        "intlinalg.snf_diagonal_orders.rounds": (t.counters["snf_rounds"], "count"),
        "intlinalg.Lattice.max_rank": (t.counters["lattice_max_rank"], "count"),
        "intlinalg.max_coeff_bits": (t.counters["max_coeff_bits"], "bits"),
        "exterior.apply_matrix.calls": (t.calls("exterior.apply_matrix"), "count"),
        "exterior.apply_matrix.self_s": (t.self_s("exterior.apply_matrix"), "s"),
        "exterior.sort_with_sign.calls": (t.calls("exterior.sort_with_sign"), "count"),
        "exterior.groups.self_s": (t.self_s(*(f"exterior.{n}_group" for n in ("A", "B", "Abar", "Bbar"))), "s"),
        "exterior.delta_inverse_gr2.self_s": (t.self_s("exterior.delta_inverse_gr2"), "s"),
        "symplectic.homology_basis.self_s": (t.self_s("symplectic.homology_basis"), "s"),
        "symplectic.polarization_Q.self_s": (t.self_s("symplectic.polarization_Q"), "s"),
        "catalog.builtin_table.calls": (t.calls("catalog.builtin_table"), "count"),
        "catalog.builtin_table.self_s": (t.self_s("catalog.builtin_table"), "s"),
        "johnson.validate_table.self_s": (t.self_s("johnson.validate_table"), "s"),
        "ceresa.build_context.self_s": (t.self_s("ceresa.build_context"), "s"),
        "ceresa.v_class.self_s": (t.self_s("ceresa.v_class"), "s"),
        "ceresa.zharkov_test.self_s": (t.self_s("ceresa.zharkov_test"), "s"),
        "graph_core.involutions.self_s": (t.self_s("graph_core.involutions"), "s"),
        "graph_core.involutions.found": (t.counters["involutions_found"], "count"),
        "graph_core.hyperelliptic_ratio": (
            t.counters["hyperelliptic_found"] / t.counters["involutions_found"]
            if t.counters["involutions_found"] else 0.0, "ratio"),
        "graph_core.stabilize.self_s": (t.self_s("graph_core.stabilize"), "s"),
        "cli.sample_one.count": (len(one), "count"),
        "cli.sample_one.p50_s": (p50(one), "s"),
        "cli.sample_one.p90_s": (p90(one), "s"),
        "cli.emit.self_s": (t.self_s("cli.emit"), "s"),
        "cli.sample.scaling_eff": (plain.rate("tl3_w2") / (2 * rate_w1) if rate_w1 else 0.0, "ratio"),
        "trace.overhead_ratio": (traced_s / untraced_s if untraced_s else 0.0, "ratio"),
    }
    top = sorted(t.table().items(), key=lambda kv: -kv[1]["self_s"])[:8]
    detail = {
        "trace.probe_s": (t.probe_s, "s"),
    }
    detail |= {f"top.{k}.self_s": (v["self_s"], "s") for k, v in top}
    return tally, metrics, detail, t.table()


# ---------------------------------------------------------------------------


def run_workload(cli, args, workload) -> dict:
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        env = environment({"w1": 1, "w2": 2 if workload == "sample" else None})
        print(f"# env {json.dumps(env, sort_keys=True)}")
        if args.trace:
            tally, metrics, detail, spans = traced(cli, workload, args.seed, workdir)
            print(f"# spans {json.dumps(spans, sort_keys=True)}")
        else:
            tally, metrics, detail = measure(cli, workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still holds it
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# {workload}: attempted {tally.attempted}, failed {tally.failed}, failed_ratio {ratio}")
    for err in tally.errors:
        print(f"# failure: {err}")
    for name, (value, unit) in (detail | metrics).items():
        print(f"# {name} = {value} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.ROUNDS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    cli = import_package()
    if args.workload != "all":
        print(json.dumps(run_workload(cli, args, args.workload)))
        return 0
    results = {w: run_workload(cli, args, w) for w in workloads.ROUNDS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
