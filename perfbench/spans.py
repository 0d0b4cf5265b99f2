"""Span recorder that wraps glpsim's public functions from outside the package.

The glpsim modules call each other through module attributes and module
globals (``process.run``, ``community.simple_edges``, ``hitting.crossing_times``),
and a module's globals are its attribute dict, so replacing an attribute with
a recording wrapper also catches the calls made inside the package.  Nothing
in ``src/`` is edited; ``Tracer.restore`` puts the originals back.

Each span records its name, start, end, parent span, workload-run id, the
counters measured at that boundary and, if the call raised, the exception
class.  Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    error: str | None = None


def _file_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, bytes, os.PathLike)) else 0


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _slot_pairs(args, kwargs) -> int:
    graph = args[0]
    at_time = _arg(args, kwargs, 1, "at_time")
    return (graph.t if at_time is None else int(at_time)) + 1


# (module, function) -> counters taken at that boundary from (args, kwargs,
# result); functions listed without counters are wrapped for their time only.
WRAPPED = {
    ("process", "run"): lambda a, k, r: {"steps": int(a[0].steps)},
    ("process", "export_edges"): lambda a, k, r: {"bytes": _file_bytes(a[1])},
    ("process", "read_edges"): lambda a, k, r: {"bytes": _file_bytes(a[0])},
    ("analytics", "degree_histogram"): None,
    ("analytics", "fit_power_law"): None,
    ("analytics", "upper_bound_check"): None,
    ("analytics", "martingale_check"): lambda a, k, r: {"accepted": r.replicas},
    ("hitting", "empirical_hit_times"): None,
    ("hitting", "crossing_times"): None,
    ("hitting", "sample_dominating"): lambda a, k, r: {
        "samples": int(_arg(a, k, 2, "size", 1) or 1)
    },
    ("hitting", "domination_test"): None,
    ("community", "simple_edges"): lambda a, k, r: {
        "pairs_in": _slot_pairs(a, k),
        "edges_out": int(r.shape[0]),
    },
    ("community", "count_triangles"): None,
    ("community", "leaders"): None,
    ("community", "is_clique"): None,
    ("community", "max_clique_topk"): None,
    ("ensemble", "run_ensemble"): lambda a, k, r: {
        "replicas": len(a[0].p_grid) * a[0].replicas,
        "failed_replicas": len(r.failures),
    },
    ("ensemble", "write_report"): None,
    ("ensemble", "write_rows_csv"): None,
}


class Tracer:
    """Installs span-recording wrappers on the glpsim modules while active."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[Span] = []
        self._raised: list[BaseException] = []
        self._saved: list[tuple] = []

    def _record(self, name: str, fn, args, kwargs, counters):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run_id, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.end = time.perf_counter()
            span.error = type(exc).__name__
            if not any(e is exc for e in self._raised):
                self._raised.append(exc)
            raise
        else:
            span.end = time.perf_counter()
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result
        finally:
            self._stack.pop()

    def _wrap(self, module, attr: str, name_of, counters):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))

        def wrapper(*args, **kwargs):
            return self._record(name_of(args), original, args, kwargs, counters)

        setattr(module, attr, wrapper)

    def install(self) -> None:
        for (mod, attr), counters in WRAPPED.items():
            self._wrap(self.modules[mod], attr, lambda a, n=f"{mod}.{attr}": n, counters)
        # One span per CLI command, named after the subcommand.
        self._wrap(
            self.modules["cli"],
            "main",
            lambda a: "cli." + (a[0][0] if a and a[0] else "none"),
            lambda a, k, r: {"exit_code": int(r)},
        )

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def glp_errors(self, glp_error_type) -> list[str]:
        """Class names of the GlpError exceptions raised inside wrapped calls,
        counted once each, at the innermost span that raised them."""
        return [
            type(exc).__name__ for exc in self._raised if isinstance(exc, glp_error_type)
        ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [(s.end - s.start) - _covered(children.get(s.id, [])) for s in spans]


def _quantile_ms(durations: list[float], q: float) -> float:
    """Quantile in ms, or 0 unless at least ten samples lie beyond it."""
    n = len(durations)
    if n == 0 or n * (1.0 - q) < 10:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[min(n - 1, int(q * n))]


CLI_COMMANDS = ("generate", "stats", "clique", "hitting", "ensemble")

# Span name -> quantities reported as ``<span name>.<quantity>``: ``calls``,
# ``s`` (total time), ``self_s`` or a counter, each summed per traced pass.
PLAIN = {
    "process.run": ("calls", "steps", "self_s"),
    "process.export_edges": ("s", "bytes"),
    "process.read_edges": ("s", "bytes"),
    "analytics.degree_histogram": ("s",),
    "analytics.fit_power_law": ("s",),
    "analytics.upper_bound_check": ("s",),
    "analytics.martingale_check": ("self_s",),
    "hitting.empirical_hit_times": ("self_s",),
    "hitting.crossing_times": ("calls", "s"),
    "hitting.sample_dominating": ("s", "samples"),
    "hitting.domination_test": ("s",),
    "community.simple_edges": ("s", "pairs_in", "edges_out"),
    "community.count_triangles": ("self_s",),
    "community.leaders": ("s",),
    "community.is_clique": ("s",),
    "community.max_clique_topk": ("s",),
    "ensemble.run_ensemble": ("self_s", "replicas", "failed_replicas"),
    "ensemble.write_report": ("s",),
    "ensemble.write_rows_csv": ("s",),
}


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``passes`` traced passes.

    Times and counts are per traced pass; the ``process.run`` percentiles
    pool every call.  A layer the workload never calls reads 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name, what):
        idx = by_name.get(name, [])
        if what == "calls":
            v = len(idx)
        elif what == "s":
            v = sum(spans[i].end - spans[i].start for i in idx)
        elif what == "self_s":
            v = sum(selfs[i] for i in idx)
        else:
            v = sum(spans[i].counters.get(what, 0) for i in idx)
        return v / passes

    def ancestor(i: int, prefix: str) -> str | None:
        parent = spans[i].parent
        while parent is not None:
            if spans[parent].name.startswith(prefix):
                return spans[parent].name
            parent = spans[parent].parent
        return None

    runs = by_name.get("process.run", [])
    run_ms = [spans[i].end - spans[i].start for i in runs]
    m = {f"{name}.{what}": total(name, what)
         for name, whats in PLAIN.items() for what in whats}
    m["process.run.p50_ms"] = _quantile_ms(run_ms, 0.50)
    m["process.run.p99_ms"] = _quantile_ms(run_ms, 0.99)

    # Accepted replicas over the process.run calls made inside the check.
    accepted = sum(spans[i].counters.get("accepted", 0) for i in by_name.get(
        "analytics.martingale_check", []))
    attempts = sum(
        1 for i in runs
        if spans[i].parent is not None
        and spans[spans[i].parent].name == "analytics.martingale_check"
    )
    m["analytics.martingale_check.accept_ratio"] = accepted / attempts if attempts else 0.0

    for cmd in CLI_COMMANDS:
        name = f"cli.{cmd}"
        inside = [i for i in runs if ancestor(i, "cli.") == name]
        m[f"{name}.self_s"] = total(name, "self_s")
        m[f"{name}.process_run_calls"] = len(inside) / passes
        m[f"{name}.process_run_steps"] = sum(
            spans[i].counters["steps"] for i in inside
        ) / passes
    return m
