"""Per-function spans around the package's public functions, from outside.

`Tracer.install` wraps every public function and method of the package's
modules and rebinds each name wherever it is looked up: module attributes,
names other modules brought in with `from ... import`, and methods on their
classes.  No source file changes.  Spans are aggregated in memory per
function (calls, self time, inclusive time); self time is a span's duration
minus the time its child spans cover.  `uninstall` restores every binding.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from types import FunctionType, ModuleType

# Private names that are layer boundaries in their own right, and the key
# they are reported under.
EXTRA = {"_sample_one": "sample_one"}
# Dunder methods that do real work on the package's value types.
DUNDERS = {"__post_init__", "__add__", "__sub__", "__eq__", "__contains__"}


class Tracer:
    def __init__(self, package: str = "tropceresa"):
        self.package = package
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self_s, total_s
        self.durations = defaultdict(list)  # per-call seconds, EXTRA keys only
        self.counters = defaultdict(int)
        self.probe_s = 0.0  # time spent reading lattice sizes, excluded from spans
        self._stack: list[float] = []  # child time of each open span
        self._snf_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._after = self._hooks()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, key: str, fn, keep_durations: bool = False):
        stats = self.stats[key]
        stack = self._stack
        keep = self.durations[key] if keep_durations else None
        after = self._after.get(key)
        in_snf = key == "intlinalg.snf_diagonal_orders"

        def span(*args, **kwargs):
            if in_snf:
                self._snf_depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt - child
                stats[2] += dt
                if stack:
                    stack[-1] += dt
                if keep is not None:
                    keep.append(dt)
                if in_snf:
                    self._snf_depth -= 1
            if after is not None:
                t1 = perf_counter()
                after(args, result)
                probe = perf_counter() - t1
                self.probe_s += probe
                if stack:
                    stack[-1] += probe
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", key)
        return span

    def _hooks(self):
        counters = self.counters

        def lattice_add(args, _):
            rows = args[0].rows
            counters["lattice_max_rank"] = max(counters["lattice_max_rank"], len(rows))
            bits = max((abs(x).bit_length() for row in rows for x in row), default=0)
            counters["max_coeff_bits"] = max(counters["max_coeff_bits"], bits)

        def hnf_rows(args, _):
            if self._snf_depth:
                counters["snf_rounds"] += 1

        def found(name):
            def hook(args, result):
                counters[name] += len(result)
            return hook

        return {
            "intlinalg.Lattice.add": lattice_add,
            "intlinalg.hnf_rows": hnf_rows,
            "graph_core.involutions": found("involutions_found"),
            "graph_core.hyperelliptic_involutions": found("hyperelliptic_found"),
        }

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if isinstance(m, ModuleType)
            and (name == self.package or name.startswith(self.package + "."))
        ]
        wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, span)
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__:
                    if not name.startswith("_") or name in EXTRA:
                        key = f"{short}.{EXTRA.get(name, name)}"
                        span = self._wrap(key, obj, keep_durations=name in EXTRA)
                        wrapped[id(obj)] = (obj, span)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_methods(short, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def _wrap_methods(self, short: str, cls: type) -> None:
        source = sys.modules[cls.__module__].__file__
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            kind = type(obj) if isinstance(obj, (classmethod, staticmethod)) else None
            fn = obj.__func__ if kind else obj
            # skip properties and dataclass-generated methods
            if not isinstance(fn, FunctionType) or fn.__code__.co_filename != source:
                continue
            span = self._wrap(f"{short}.{cls.__name__}.{name}", fn)
            self._set(cls, name, kind(span) if kind else span)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        """Self seconds per module."""
        out: dict[str, float] = defaultdict(float)
        for key, (_, self_s, _) in self.stats.items():
            out[key.partition(".")[0]] += self_s
        return dict(out)

    def calls(self, key: str) -> int:
        return self.stats[key][0] if key in self.stats else 0

    def self_s(self, *keys: str) -> float:
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def total_s(self, key: str) -> float:
        return self.stats[key][2] if key in self.stats else 0.0

    def table(self) -> dict:
        """Every span key with its calls, self and inclusive seconds."""
        return {
            k: {"calls": c, "self_s": s, "total_s": t}
            for k, (c, s, t) in sorted(self.stats.items())
            if c
        }
