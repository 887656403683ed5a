"""Self-check of the benchmark itself; exits 1 on the first failed check.

    python3 perfbench/selfcheck.py [--seed N]

- one traced round of every workload: all output checks pass, traced and
  untraced stdout agree, and a second traced run repeats every count;
- every output check rejects a corrupted copy of a real output;
- an exception, a nonzero exit and an argument error each count as one
  failed operation, and the next operation still runs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads

COUNT_UNITS = ("count", "bits")


class CheckFailed(Exception):
    pass


def expect(condition, message) -> None:
    if not condition:
        raise CheckFailed(message)


def corrupt(workload: str, out: str) -> str:
    data = json.loads(out)
    if workload == "sample":
        data["samples"][0]["verdict"] = "trivial"
        data["samples"][0]["order"] = 0
    elif workload == "report":
        data["invariant_factors"] = data["invariant_factors"] + [7]
    else:
        data["hyperelliptic"] = not data["hyperelliptic"]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def check_traced(cli, workload, seed, workdir) -> None:
    counts = []
    for attempt in range(2):
        sub = workdir / f"{workload}{attempt}"
        sub.mkdir()
        tally, metrics, _, _ = run.traced(cli, workload, seed, sub)
        expect(tally.attempted > 0 and tally.failed == 0, tally.errors)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS})
    expect(counts[0] == counts[1], f"counts differ between runs: {counts}")
    print(f"PASS {workload}: {tally.attempted} operations checked, traced == untraced, "
          f"{len(counts[0])} counts repeat")


def check_rejects(cli, workload, seed, workdir) -> None:
    sub = workdir / f"{workload}-corrupt"
    sub.mkdir()
    ops = workloads.ROUNDS[workload](seed, 0, sub)
    tally = run.Tally(run.HostClock())
    outputs = [tally.run(cli, op) for op in ops]
    expect(tally.failed == 0, tally.errors)
    # after the real outputs, since the TL3 check records what --workers 2 must match
    for op, out in zip(ops, outputs):
        bad = corrupt(workload, out) if op.workers == 1 else out + " "
        expect(op.check(bad) is not None, f"{op.case}: corrupted output accepted")
    print(f"PASS {workload}: {len(ops)} checks reject corrupted outputs")


def check_containment(cli) -> None:
    good = workloads.Op("good", ["genus", "--graph", "builtin:k4"], 1, lambda out: None)
    bad = [
        ["sample", "--graph", "builtin:k4", "--table", "builtin:k4", "--count", "1",
         "--length-min", "5", "--length-max", "1", "--workers", "1"],  # traceback
        ["ceresa", "--graph", "builtin:nope", "--table", "builtin:k4"],  # exit 2
        ["ceresa", "--no-such-flag"],  # argparse exit
    ]
    tally = run.Tally(run.HostClock())
    for argv in bad:
        tally.run(cli, workloads.Op("bad", argv, 1, lambda out: None))
        tally.run(cli, good)
    expect((tally.attempted, tally.failed) == (6, 3), (tally.attempted, tally.failed, tally.errors))
    print("PASS containment: 3 failing calls counted, the run went on")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    cli = run.import_package()
    workdir = run.ROOT / ".perfbench_work" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for workload in workloads.ROUNDS:
            check_traced(cli, workload, args.seed, workdir)
            check_rejects(cli, workload, args.seed, workdir)
        check_containment(cli)
    except CheckFailed as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("selfcheck: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
