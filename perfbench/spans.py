"""Spans around entbound's public functions, recorded from outside the package.

`Tracer.install()` replaces each target function, in every loaded entbound
module that refers to it, with a wrapper. A SPANNED function's wrapper
records (name, start, end, parent), so calls between entbound functions
nest. A COUNTED function's wrapper only counts its calls: it pushes no span,
so its time stays in the caller's self time. `summary()` turns the records
of one or more processes into self time and call counts per name.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

SPANNED = {
    "simulator": (
        "rotate_x", "exact_moments", "optimal_squeezing_rotation", "sample_shots",
        "split_state_moments",
    ),
    "operators": ("collective_spin",),
    "moments": ("save_shots", "load_shots", "estimate_moments", "estimate_bipartite_moments"),
    "bounds": ("wineland_bounds", "giovannetti_bounds"),
    "oracle": ("gr_ppt", "bsa_upper", "min_over_product_states"),
    "verify": ("run_checks",),
}
COUNTED = {
    "bounds": ("gr_from_product",),
    "criteria": ("product_value", "spectral_constants"),
}

# Spans whose peak-memory rise is recorded: the first large allocation of
# the process happens inside them.
PEAK_SPANS = ("simulator.rotate_x", "moments.load_shots")
# Spans whose first argument's length counts shot records.
RECORD_SPANS = ("moments.estimate_moments", "moments.estimate_bipartite_moments")
# Counted calls whose BoundResult carries the golden-section iteration count.
ITERATION_COUNTS = ("bounds.gr_from_product",)


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        # name, start, end, parent index, extras
        self.spans: list[list] = []
        # name -> {"calls": ..., and "iterations" where recorded}
        self.counts: dict[str, dict] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        peak = name in PEAK_SPANS
        records = name in RECORD_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extras = {}
            if peak:
                extras["rss_before_mb"] = _rss_mb()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, time.perf_counter(), None, parent, extras]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if peak:
                extras["peak_mb"] = _maxrss_mb() - extras.pop("rss_before_mb")
            if records:
                extras["records"] = len(args[0])
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        entry = self.counts.setdefault(name, {"calls": 0})
        iterations = name in ITERATION_COUNTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry["calls"] += 1
            result = fn(*args, **kwargs)
            if iterations:
                entry["iterations"] = (
                    entry.get("iterations", 0) + result.diagnostics.get("iterations", 0))
            return result

        return wrapper

    def install(self) -> None:
        import entbound  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items() if k == "entbound" or k.startswith("entbound.")]
        for targets, make in ((SPANNED, self.span_wrapper), (COUNTED, self.count_wrapper)):
            for layer, names in targets.items():
                home = sys.modules[f"entbound.{layer}"]
                for name in names:
                    original = getattr(home, name)
                    wrapper = make(f"{layer}.{name}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._restore.append((mod, attr, original))
                                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def record(self) -> dict:
        """The spans and counts, as plain JSON-ready data."""
        return {"spans": self.spans, "counts": self.counts}


def _add(entry: dict, key: str, value) -> None:
    if key == "peak_mb":
        entry[key] = max(entry.get(key, 0.0), value)
    else:
        entry[key] = entry.get(key, 0) + value


def summary(records) -> dict:
    """Self time, call count and extras per name, over several `record()`s."""
    out: dict = {}
    for rec in records:
        spans = rec["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (name, start, end, _, extras) in enumerate(spans):
            entry = out.setdefault(name, {})
            _add(entry, "self_s", (end - start) - child_time[k])
            _add(entry, "calls", 1)
            for key, value in extras.items():
                _add(entry, key, value)
        for name, counts in rec["counts"].items():
            entry = out.setdefault(name, {})
            for key, value in counts.items():
                _add(entry, key, value)
    return out


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one call gains from a span wrapper and from a count wrapper.

    Each is the best of `repeats` loops of `calls` calls to a no-op through
    the wrapper, minus the same loop without it.
    """
    def noop(x):
        return x

    probe = Tracer()

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for i in range(calls):
                fn(i)
            best = min(best, time.perf_counter() - start)
            probe.spans.clear()
        return best / calls

    base = per_call(noop)
    span = per_call(probe.span_wrapper("probe", noop)) - base
    count = per_call(probe.count_wrapper("probe", noop)) - base
    return span, count


def overhead_s(summ: dict) -> float:
    """Time the wrappers added: calls through each kind times its per-call cost."""
    span_cost, count_cost = wrapper_cost()
    counted = {f"{layer}.{name}" for layer, names in COUNTED.items() for name in names}
    total = 0.0
    for name, entry in summ.items():
        total += entry.get("calls", 0) * (count_cost if name in counted else span_cost)
    return total
