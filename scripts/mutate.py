#!/usr/bin/env python3
"""Mutation gate for the decision routes.

Each mutation below changes one line of the package and names the tier-1
test file (under tests/) expected to kill it.  For every mutation the
script copies the project (without .git) to a temporary directory, applies
the mutation there, and runs the named file against that copy with -x; only
if it passes does it run the whole tier-1 suite with -x.  A mutant is killed
exactly when a tier-1 test fails: the named file only finds that failure
sooner, so a stale name costs time, never a verdict.  A mutant killed by the
whole suite alone is listed at the end.  The working tree is never
modified.

Usage: python3 scripts/mutate.py

Exits 1 if any mutant survives and 2 if a mutation no longer matches exactly
one place in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "tropceresa"

# (name, file under src/tropceresa, original text, mutated text, test file)
MUTATIONS = [
    ("wedge-sign", "exterior.py",
     "(c * x if (size - pos) % 2 == 0 else -c * x)",
     "(c * x if (size - pos) % 2 == 1 else -c * x)",
     "test_acceptance.py"),
    ("wedge-key-parity", "exterior.py",
     "(-c if inversions % 2 else c)",
     "(c if inversions % 2 else -c)",
     "test_johnson.py"),
    ("back-substitute-lcm", "intlinalg.py",
     "den = lcm(den, scale * m // gcd(q, scale * m))",
     "den = max(den, scale * m // gcd(q, scale * m))",
     "test_intlinalg.py"),
    ("back-substitute-den-unreduced", "intlinalg.py",
     "den = lcm(den, scale * m // gcd(q, scale * m))",
     "den = lcm(den, scale * m)",
     "test_intlinalg.py"),
    ("back-substitute-no-rescale", "intlinalg.py",
     "rest[t] *= m",
     "rest[t] *= 1",
     "test_intlinalg.py"),
    ("pivot-sign", "intlinalg.py",
     "if rs[p] < 0:",
     "if rs[p] < -1:",
     "test_golden.py"),
    ("monomial-image-minus-one", "exterior.py",
     "c = img.get(t, 0) - 1",
     "c = img.get(t, 0)",
     "test_acceptance.py"),
    ("scaled-inverse-den-unreduced", "intlinalg.py",
     "common = gcd(prev, *(x for row in adj for x in row))",
     "common = 1",
     "test_intlinalg.py"),
    ("scaled-inverse-no-pivot-swap", "intlinalg.py",
     "rows[k], rows[swap] = rows[swap], rows[k]",
     "swap = k",
     "test_intlinalg.py"),
    ("scaled-inverse-no-pivot-division", "intlinalg.py",
     "rows[i] = [(pivot * x - f * y) // prev for x, y in zip(row, top)]",
     "rows[i] = [(pivot * x - f * y) for x, y in zip(row, top)]",
     "test_intlinalg.py"),
    ("symanzik-loops-dropped", "graph_core.py",
     "prod((e.length for e in curve.edges), start",
     "prod((e.length for e in curve.edges if e.ends[0] != e.ends[1]), start",
     "test_symplectic.py"),
    ("symanzik-weight-not-inverted", "graph_core.py",
     "w = int(c / e.length)",
     "w = int(e.length)",
     "test_cli.py"),
    ("gr2-inverse-half", "exterior.py",
     "if x}, 2 * vden * den * den",
     "if x}, vden * den * den",
     "test_golden.py"),
    ("verdict-ambient-from-abar", "ceresa.py",
     'out["order_bbar"] = out["order_ambient"] = order',
     'out["order_bbar"], out["order_ambient"] = order, ambient_order(ctx, v)',
     "test_cli.py"),
    ("bbar-difference-dropped", "ceresa.py",
     "for y in row[1:]]",
     "for y in row[2:]]",
     "test_ceresa.py"),
    ("bbar-c-in-gcd", "ceresa.py",
     "qual, diffs, _ = split(nums)\n    order = scale // gcd(scale, *qual, *diffs)",
     "qual, diffs, c = split(nums)\n    order = scale // gcd(scale, *qual, *diffs, *c)",
     "test_ceresa.py"),
    ("bbar-qualifying-skipped", "ceresa.py",
     "qual = [c for t, c in w.items() if t[2] - g not in t[:2]]",
     "qual = []",
     "test_ceresa.py"),
    ("u-nonintegral-any-coordinate", "ceresa.py",
     "any(n % scale for n in qual)",
     "any(n % scale for n in nums.values())",
     "test_ceresa.py"),
    ("bbar-h-integrality-dropped", "ceresa.py",
     "integral = chain(h_a, parts[2].values(), parts[3].values())",
     "integral = chain(parts[2].values(), parts[3].values())",
     "test_ceresa.py"),
    ("verdict-branch-not-pure-gr2", "ceresa.py",
     "if parts and not (parts[0] or parts[1] or parts[3]):",
     "if parts:",
     "test_cli.py"),
    ("certified-downgrade", "ceresa.py",
     '("trivial" if certified else "indeterminate")',
     '"trivial"',
     "test_cli.py"),
    ("verdict-precedence", "ceresa.py",
     "if hyperelliptic:",
     "if hyperelliptic and not decisive:",
     "test_ceresa.py"),
    ("invariant-factor-exponent-order", "intlinalg.py",
     "exps.sort(reverse=True)",
     "exps.sort()",
     "test_pipeline_fuzz.py"),
    ("coprime-base-cofactor-dropped", "intlinalg.py",
     "todo += [d, b // d, x // d]",
     "todo += [d, x // d]",
     "test_golden.py"),
    ("minus-one-class-sign", "graph_core.py",
     "index.get((vm[x], minus), (None, None))",
     "index.get((vm[x], c), (None, None))",
     "test_pipeline_fuzz.py"),
    ("minus-one-reversed-image-dropped", "graph_core.py",
     "for c, _, e, far in out[x] if any(c)}",
     "for c, _, e, far in out[x] if any(c) and x == e.ends[0]}",
     "test_graph_core.py"),
    ("minus-one-loop-unreflected", "graph_core.py",
     "yield Involution(*maps, loops)",
     "yield Involution(*maps, frozenset())",
     "test_pipeline_fuzz.py"),
    ("minus-one-length-dropped", "graph_core.py",
     "if f is None or f.length != e.length or vm.get(far, to) != to:",
     "if f is None or vm.get(far, to) != to:",
     "test_graph_core.py"),
    ("minus-one-conflict-accepted", "graph_core.py",
     "if f is None or f.length != e.length or vm.get(far, to) != to:",
     "if f is None or f.length != e.length:",
     "test_graph_core.py"),
    ("minus-one-bridge-image-free", "graph_core.py",
     "f, to = e, far",
     "f, to = e, vm.get(far, far)",
     "test_graph_core.py"),
    ("minus-one-weight-check-dropped", "graph_core.py",
     "if maps and all(x == y or not weight[x] for x, y in maps[0].items()):",
     "if maps:",
     "test_graph_core.py"),
    ("minus-one-start-fixed", "graph_core.py",
     "for image in [start] if start in fixed else sorted(weight.keys() - fixed):",
     "for image in [start]:",
     "test_graph_core.py"),
    ("bbar-truncation", "exterior.py",
     "return self._relations(1, self.start(3), with_h=True)",
     "return self._relations(1, self.start(4), with_h=True)",
     "test_acceptance.py"),
    ("sparse-zero-kept", "intlinalg.py",
     "del row[t]",
     "row[t] = y",
     "test_acceptance.py"),
    ("sparse-xgcd-row-support", "intlinalg.py",
     "for t in row.keys() | vec.keys():",
     "for t in list(row):",
     "test_golden.py"),
    ("hermite-dirty-rows", "intlinalg.py",
     "dirty.add(r)",
     "dirty.discard(r)",
     "test_symplectic.py"),
    ("hermite-clean-pivot-rows", "intlinalg.py",
     "above = [r for r in dirty if r < s]",
     "above = []",
     "test_johnson.py"),
    ("h-extension-last-row", "exterior.py",
     "(list(self._h_terms) if with_h else [])",
     "(list(self._h_terms[:-1]) if with_h else [])",
     "test_acceptance.py"),
    ("omega-not-transported", "ceresa.py",
     "return apply_columns(self.frame, omega(self.g))",
     "return omega(self.g)",
     "test_ceresa.py"),
    ("block-invariant-no-two", "ceresa.py",
     "b_orders += [big, big, 2 * d[i] * d[j] * d[k] // (big * big)]",
     "b_orders += [big, big, d[i] * d[j] * d[k] // (big * big)]",
     "test_golden.py"),
    ("block-pair-skipped", "ceresa.py",
     "b_orders = [d[j] for _, j in pairs]",
     "b_orders = [d[j] for _, j in pairs[1:]]",
     "test_golden.py"),
    ("block-quotient-g-minus-1", "ceresa.py",
     "for l in range(g):\n        row: dict = {}",
     "for l in range(g - 1):\n        row: dict = {}",
     "test_golden.py"),
    ("block-a-without-gcd", "ceresa.py",
     "a = AbelianGroupDescriptor.from_cyclic_orders(b_orders + t_orders)",
     "a = AbelianGroupDescriptor.from_cyclic_orders(b_orders)",
     "test_ceresa.py"),
    ("block-deficient-abar-is-b", "ceresa.py",
     'return {"A": a, "B": b, "Abar": a, "Bbar": b}',
     'return {"A": a, "B": b, "Abar": b, "Bbar": b}',
     "test_golden.py"),
    ("block-deficient-pair-gcd-is-d-i", "ceresa.py",
     "[gcd(d[i], d[j]) for i, j in combinations(range(h), 2)]",
     "[d[i] for i, j in combinations(range(h), 2)]",
     "test_golden.py"),
    ("block-deficient-weight-units-halved", "ceresa.py",
     "* (2 * (g - h))",
     "* (g - h)",
     "test_golden.py"),
    ("block-deficient-branch-late", "ceresa.py",
     "if h < g:",
     "if h < g - 1:",
     "test_golden.py"),
    ("block-bab-sign", "ceresa.py",
     "((j, g + i, g + k), -1)",
     "((j, g + i, g + k), 1)",
     "test_golden.py"),
    ("context-y-all-b", "ceresa.py",
     "range(self.g, self.g + self.basis.h)",
     "range(self.g, 2 * self.g)",
     "test_ceresa.py"),
    ("class-not-in-frame", "ceresa.py",
     "_by_block(apply_columns(ctx.frame, sx).coeffs, g)",
     "_by_block(sx.coeffs, g)",
     "test_ceresa.py"),
    ("forced-lambda-middle-sign", "ceresa.py",
     "y[r] -= c * (t == p + g)",
     "y[r] += c * (t == p + g)",
     "test_ceresa.py"),
    ("block-plan-keyed-without-h", "ceresa.py",
     # the first h seen for (key, g, q) wins, as in a cache keyed without h
     "_block_plan(key, g, h, q)",
     "_block_plan(key, g, vars(_block_plan).setdefault((key, g, q), h), q)",
     "test_ceresa.py"),
    ("frame-inverse-undivided", "symplectic.py",
     "[(i, x // d[i]) for i in cycle if",
     "[(i, x) for i in cycle if",
     "test_golden.py"),
    ("frame-entry-divided-by-d-j", "symplectic.py",
     "[(i, x // d[i]) for i in cycle if",
     "[(i, x // d[j]) for i in cycle if",
     "test_symplectic.py"),
    ("frame-weight-unit-column-dropped", "symplectic.py",
     "if d[j] else [(j, 1)]",
     "if d[j] else []",
     "test_symplectic.py"),
    ("frame-u-column-transposed", "symplectic.py",
     "[(g + i, row[j]) for i, row in enumerate(u) if row[j]]",
     "[(g + i, u[j][i]) for i, row in enumerate(u) if u[j][i]]",
     "test_symplectic.py"),
    ("smith-transform-index", "intlinalg.py",
     "v = [[tags[1][j][i] for j in cols] for i in range(n)]",
     "v = [[tags[1][i][j] for j in cols] for i in range(n)]",
     "test_golden.py"),
    ("zharkov-w-a-factor-mapped", "ceresa.py",
     "for i, x in qa[m]:",
     "for i, x in [(m, 1)]:",
     "test_pipeline_fuzz.py"),
    ("zharkov-pair-sum-last-only", "ceresa.py",
     "col[i] = col.get(i, 0) + c * x",
     "col[i] = c * x",
     "test_golden.py"),
    ("image-prefix-key-short", "exterior.py",
     "key = t[:-1]",
     "key = t[:-2]",
     "test_acceptance.py"),
    ("gr2-inverse-pair-sum-last-only", "exterior.py",
     "pairs.setdefault((p - g, r - g), [0] * g)[m] = int(c * vden)",
     "pairs[p - g, r - g] = [int(c * vden) if i == m else 0 for i in range(g)]",
     "test_golden.py"),
    ("gr2-inverse-qx-last-only", "exterior.py",
     "qx = [y + c * q for y, q in zip(qx, q_matrix[m])]",
     "qx = [y + c * q for y, q in zip(qx, q_matrix[m])] if m == g - 1 else qx",
     "test_golden.py"),
    ("gr2-inverse-term1-sign", "exterior.py",
     "acc[t] = get(t, 0) - den * m",
     "acc[t] = get(t, 0) + den * m",
     "test_golden.py"),
    ("gr2-inverse-pair-swapped", "exterior.py",
     "t = (i, j, g + r)\n                acc[t] = get(t, 0) - den * m\n"
     "            if m := bi * xj - bj * xi:\n                t = (i, j, g + p)",
     "t = (i, j, g + p)\n                acc[t] = get(t, 0) - den * m\n"
     "            if m := bi * xj - bj * xi:\n                t = (i, j, g + r)",
     "test_golden.py"),
    ("gr2-inverse-minor-plus", "exterior.py",
     "if m := ai * bj - aj * bi:",
     "if m := ai * bj + aj * bi:",
     "test_golden.py"),
    ("json-key-prefix", "exterior.py",
     "{_json_key(t): str(c)",
     "{_json_key(t[:-1]): str(c)",
     "test_golden.py"),
    ("zharkov-divisor-no-two", "ceresa.py",
     "divisor = 2 * gcd(d[p] * d[q], d[p] * d[r], d[q] * d[r])",
     "divisor = gcd(d[p] * d[q], d[p] * d[r], d[q] * d[r])",
     "test_golden.py"),
    ("zharkov-gcd-one-pair", "ceresa.py",
     "gcd(d[p] * d[q], d[p] * d[r], d[q] * d[r])",
     "gcd(d[p] * d[q])",
     "test_ceresa.py"),
    ("zharkov-w-not-framed", "ceresa.py",
     "sorted(apply_columns(ctx.frame, w).coeffs.items())",
     "sorted(w.coeffs.items())",
     "test_ceresa.py"),
    ("zharkov-divisor-q-diagonal", "ceresa.py",
     "d = {g + i: x for i, x in enumerate(ctx.q_diagonal)}",
     "d = {g + i: ctx.q_matrix[i][i] for i in range(g)}",
     "test_ceresa.py"),
    ("zharkov-witness-last-failing", "ceresa.py",
     '"divisor": divisor}\n            break\n',
     '"divisor": divisor}\n',
     "test_ceresa.py"),
    ("zharkov-witness-ignores-value", "ceresa.py",
     "if c % divisor:",
     "if c:",
     "test_ceresa.py"),
    ("zharkov-witness-value-is-remainder", "ceresa.py",
     '"value": c, "divisor"',
     '"value": c % divisor, "divisor"',
     "test_ceresa.py"),
    ("zharkov-frame-transposed", "ceresa.py",
     "apply_columns(ctx.frame, w)",
     "apply_columns([[(j, x) for j, col in enumerate(ctx.frame) for i, x in col if i == r]"
     " for r in range(2 * g)], w)",
     "test_ceresa.py"),
    ("wedge-terms-first-zero-kept", "exterior.py",
     "terms = {(i,): x for i, x in first if x}",
     "terms = {(i,): x for i, x in first}",
     "test_exterior.py"),
    ("apply-matrix-unsummed", "exterior.py",
     "acc[i] = acc.get(i, 0) + c * x",
     "acc[i] = c * x",
     "test_exterior.py"),
    ("coupled-tags-one-key", "ceresa.py",
     "for key in keys for t, c in part.get(key, {}).items()",
     "for key in list(keys)[:1] for t, c in part.get(key, {}).items()",
     "test_ceresa.py"),
    ("forced-fq-congruence-dropped", "ceresa.py",
     "for t in units:  # k w_c = 0 mod s on F_q",
     "for t in ():  # k w_c = 0 mod s on F_q",
     "test_orders.py"),
    ("forced-rank-one-parallel-skipped", "ceresa.py",
     "if any(x * dy != y * dx for (x, dx), (y, dy) in combinations(zip(xs, ds), 2)):",
     "if False:",
     "test_orders.py"),
    ("forced-rank-one-g3-two-d", "ceresa.py",
     "e = s * gcd(*ds)",
     "e = s * gcd(*ds[:2])",
     "test_orders.py"),
    ("forced-triple-g3-two-d", "ceresa.py",
     "big = gcd(*d)",
     "big = gcd(d[0], d[1])",
     "test_orders.py"),
    ("forced-triple-v-column-swapped", "ceresa.py",
     "x = sum(wa * row[col] for wa, row in zip(w, vm))",
     "x = sum(wa * row[2 - col] for wa, row in zip(w, vm))",
     "test_orders.py"),
    ("block-shape-factor-dropped", "ceresa.py",
     "sign * prod(d[p] for p in ps)",
     "sign * prod(d[p] for p in ps[1:])",
     "test_plan.py"),
    ("block-shape-sign-dropped", "ceresa.py",
     "sign = (-1) ** sum(a > b for a, b in combinations(img, 2))",
     "sign = 1",
     "test_plan.py"),
    ("plan-length-filter-skipped", "ceresa.py",
     "return any(all(stable[s] == stable[t] for s, t in pairs) for pairs in self.swaps)",
     "return any(True for pairs in self.swaps)",
     "test_plan.py"),
    ("plan-filter-unstabilized-lengths", "ceresa.py",
     "stable = [sum(lengths[k] for k in ks) for ks in self.stable_edges]",
     "stable = [lengths[ks[0]] for ks in self.stable_edges]",
     "test_plan.py"),
    ("plan-basis-match-cycles-only", "ceresa.py",
     "if homology_basis(curve) != basis:",
     "if homology_basis(curve).cycles != basis.cycles:",
     "test_plan.py"),
    ("forced-divisor-g", "ceresa.py",
     "div = g - 1",
     "div = g",
     "test_ceresa.py"),
    ("forced-cycle-yb-sign", "ceresa.py",
     "y[g + i] = -div * num.get(",
     "y[g + i] = div * num.get(",
     "test_ceresa.py"),
    ("forced-yb-forced-at-full-rank", "ceresa.py",
     "if h < g else 0",
     "if h < g else y[g + i]",
     "test_ceresa.py"),
    ("forced-yb-free-at-q2", "ceresa.py",
     "if h == g and q is None:",
     "if h == g:",
     "test_ceresa.py"),
    ("forced-yb-dropped", "ceresa.py",
     "if d[l] != 1)",
     "if d[l] == 0)",
     "test_ceresa.py"),
    ("forced-den-dropped", "ceresa.py",
     "k = scale // gcd(scale, *y)",
     "k = 1",
     "test_ceresa.py"),
    ("bbar-order-no-f3-check", "ceresa.py",
     "integral = chain(h_a, parts[2].values(), parts[3].values())",
     "integral = chain(h_a, parts[2].values())",
     "test_ceresa.py"),
    ("section-split-non-unit", "intlinalg.py",
     "if p >= d and row[p] == 1}",
     "if p >= d and row[p] <= 2}",
     "test_golden.py"),
    ("section-keep-unit-columns", "intlinalg.py",
     "keep = [j for j in range(d, self.n) if j not in units]",
     "keep = list(range(d, self.n))",
     "test_acceptance.py"),
    ("section-free-rank-n-d", "intlinalg.py",
     "return len(keep) - rank, invariant_factors_from_orders(orders)",
     "return self.n - d - rank, invariant_factors_from_orders(orders)",
     "test_acceptance.py"),
    ("table-bridge-inverted", "johnson.py",
     "if not any(loop) and",
     "if any(loop) and",
     "test_golden.py"),
    ("table-unknown-edge-dropped", "johnson.py",
     "if eid not in loops:",
     "if False:",
     "test_johnson.py"),
    ("basis-match-cycles-only", "ceresa.py",
     "if ctx.basis != table.basis:",
     "if ctx.basis.cycles != table.basis.cycles:",
     "test_johnson.py"),
    ("basis-root-path-sign", "symplectic.py",
     "cyc[eid] = cyc.get(eid, 0) - sgn",
     "cyc[eid] = cyc.get(eid, 0) + sgn",
     "test_symplectic.py"),
    ("cli-int-digit-limit-kept", "cli.py",
     "sys.set_int_max_str_digits(0)",
     "sys.set_int_max_str_digits(4300)",
     "test_cli.py"),
    ("basis-length-scale", "cli.py",
     'rep["length_scale"] = ctx.scale',
     'rep["length_scale"] = 1',
     "test_cli.py"),
    ("shift-drops-provenance", "johnson.py",
     "return replace(table, entries=entries)",
     "return JohnsonTable(basis=table.basis, entries=entries)",
     "test_johnson.py"),
]

TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")


def mutated_copy(dest: Path, file: str, old: str, new: str) -> None:
    shutil.copytree(ROOT, dest, ignore=SKIP)
    path = dest / PACKAGE / file
    text = path.read_text()
    count = text.count(old)
    if count != 1:
        raise LookupError(f"{file}: {old!r} matches {count} places, not 1")
    path.write_text(text.replace(old, new))


def run_suite(tree: Path, test: str | None = None) -> tuple[bool, str]:
    """(passed, last line of the pytest summary) for the suite in `tree`, or
    for its file tests/`test` alone."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", "import tropceresa; print(tropceresa.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    if not Path(probe.stdout.strip()).is_relative_to(tree):
        raise RuntimeError(f"tropceresa imports from {probe.stdout.strip()}, not the copy")
    files = [f"tests/{test}"] if test else []
    proc = subprocess.run(
        [sys.executable, *TIER1, *files], cwd=tree, env=env, capture_output=True, text=True
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode == 0, (failed or lines or ["no output"])[-1]


def main() -> int:
    survivors, suite_only = [], []
    start = time.perf_counter()
    for name, file, old, new, test in MUTATIONS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            tree = Path(tmp) / "tree"
            try:
                mutated_copy(tree, file, old, new)
            except LookupError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
            passed, summary = run_suite(tree, test)
            by = "named"
            if passed:
                passed, summary = run_suite(tree)
                by = "suite"
        status = "SURVIVED" if passed else f"killed ({by})"
        print(f"{name:32} {status:15} {time.perf_counter() - t0:6.1f} s  {summary}",
              flush=True)
        if passed:
            survivors.append(name)
        elif by == "suite":
            suite_only.append(name)
    print(f"{len(MUTATIONS)} mutants in {time.perf_counter() - start:.0f} s")
    if suite_only:
        print(f"killed by the whole suite alone: {', '.join(suite_only)}")
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTATIONS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
