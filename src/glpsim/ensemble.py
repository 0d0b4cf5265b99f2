"""Replica orchestration: seed fans, parallel execution, reports on disk.

``EXPERIMENTS`` is the one table of experiments: each name maps to a
function from the graph of one run and its parameters to metric rows
``(t, metric, value)``, and to the parameters it reads with their defaults.
``EnsembleConfig`` rejects any parameter its experiment does not read.
``run_ensemble`` fans the experiment out over a grid of ``p`` values and
replica seeds (replica ``r`` uses ``base_seed + r`` and is generated once),
optionally across processes, and aggregates rows into deterministic per
``(p, t, metric)`` summaries.  Replica failures are captured per seed
instead of aborting the batch.

Reports serialize to JSON under the schema tag ``glp-report/1``, with the
row data additionally available as CSV.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import community, process
from ._version import __version__
from .errors import BatchError, CapacityError, ConfigError, ParameterError, ParseError

__all__ = [
    "SCHEMA",
    "EXPERIMENTS",
    "EnsembleConfig",
    "MetricRow",
    "EnsembleReport",
    "run_ensemble",
    "write_report",
    "read_report",
    "write_rows_csv",
]

SCHEMA = "glp-report/1"


# ----------------------------------------------------------------------
# experiment registry


def _exp_maxdeg(graph, snapshot_times):
    times = snapshot_times or (graph.t,)
    return [(t, "max_degree", float(graph.at(t).max_degree())) for t in times]


def _exp_triangles(graph, snapshot_times):
    times = snapshot_times or (graph.t,)
    return [(t, "triangles", float(community.count_triangles(graph.at(t)))) for t in times]


def _exp_arrival(graph, vertex):
    return [(graph.t, f"arrival_time_{vertex}", float(graph.arrival_time(vertex)))]


def _exp_cliquegrowth(graph, t_values, **kw):
    ts = t_values or (graph.t // 2,)
    out = []
    for r in community.clique_growth_rows(graph, ts, **kw):
        out.append((r.t, "pair_fraction", float(r.pair_fraction)))
        out.append((r.t, "clique_size", float(r.clique_size)))
        out.append((r.t, "topk_clique_size", float(r.topk_clique_size)))
    return out


# Each experiment's function and the parameters it reads, with their defaults.
EXPERIMENTS = {
    "maxdeg": (_exp_maxdeg, {"snapshot_times": ()}),
    "triangles": (_exp_triangles, {"snapshot_times": ()}),
    "arrival": (_exp_arrival, {"vertex": 2}),
    "cliquegrowth": (_exp_cliquegrowth, {"t_values": (), **community.CLIQUE_DEFAULTS}),
}


# ----------------------------------------------------------------------
# configuration and report types


@dataclass(frozen=True)
class EnsembleConfig:
    """An experiment run at each ``p`` of ``p_grid`` over ``replicas`` seeds
    from ``base_seed``, in ``width`` processes.  Every field and parameter is
    checked here, before any run, and a bad one raises ``ConfigError``;
    ``steps``, ``replicas`` and ``width`` must be integers ``>= 1``, stored
    as ints like ``base_seed`` and the integer parameters ``vertex``, ``m``,
    ``topk`` and the time lists (``4.0`` included)."""

    experiment: str
    p_grid: tuple[float, ...]
    steps: int
    replicas: int
    base_seed: int = 0
    width: int = 1
    min_success: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"known: {sorted(EXPERIMENTS)}"
            )
        defaults = EXPERIMENTS[self.experiment][1]
        unread = sorted(set(self.params) - set(defaults))
        if unread:
            raise ConfigError(f"experiment {self.experiment!r} does not read "
                              f"{', '.join(unread)}; it reads {', '.join(defaults)}")
        if not self.p_grid or len(set(self.p_grid)) != len(self.p_grid):
            raise ConfigError(f"p grid must be non-empty without repeats, got {list(self.p_grid)}")
        if not (0.0 < self.min_success <= 1.0):
            raise ConfigError(f"min_success must lie in (0, 1], got {self.min_success}")
        kw = {**defaults, **self.params}
        try:
            replicas = process._check_int(self.replicas, "replicas")
            width = process._check_int(self.width, "width")
            if not (0 <= self.base_seed <= 2**64 - replicas):
                raise ConfigError(
                    f"base_seed must lie in [0, 2**64 - replicas] so that every "
                    f"replica seed is a 64-bit natural, got {self.base_seed}"
                )
            for p in self.p_grid:
                process.ProcessParams(p, self.steps, self.base_seed, kw.get("snapshot_times", ()))
            steps = process._check_int(self.steps, "steps")
            v = kw.get("vertex")
            if v is not None and not process._integral(v, 1, steps + 2):
                raise ConfigError(f"vertex must be an integer in [1, {steps + 1}], got {v}")
            if self.experiment == "cliquegrowth":
                ts = tuple(kw["t_values"]) or (steps // 2,)
                if steps != 2 * max(ts) or not all(process._integral(t, 1) for t in ts):
                    raise ConfigError(
                        f"cliquegrowth needs integer t_values >= 1 and "
                        f"steps == 2 * max(t_values), got steps={steps} and t_values={list(ts)}"
                    )
                process._check_int(kw["m"], "m")
                process._check_int(kw["topk"], "topk")
                for p in self.p_grid:
                    for t in ts:
                        community.leader_block_range(t, p, kw["eps"], kw["eps_prime"])
        except (ParameterError, CapacityError) as exc:
            raise ConfigError(str(exc)) from exc
        # stored as ints, so that rows' seeds, metric names and the echoed
        # config are ints: vertex 2.0 names its metric arrival_time_2
        params = dict(self.params)
        for k in params.keys() & {"vertex", "m", "topk"}:
            params[k] = int(params[k])
        for k in params.keys() & {"snapshot_times", "t_values"}:
            params[k] = tuple(map(int, params[k]))
        for name, n in (("steps", steps), ("replicas", replicas), ("width", width),
                        ("base_seed", int(self.base_seed)), ("params", params)):
            object.__setattr__(self, name, n)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["p_grid"] = list(self.p_grid)
        d["params"] = {k: _jsonable(v) for k, v in sorted(self.params.items())}
        return d


def _jsonable(v):
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


@dataclass(frozen=True)
class MetricRow:
    p: float
    seed: int
    t: int
    metric: str
    value: float


@dataclass(frozen=True)
class EnsembleReport:
    schema: str
    version: str
    experiment: str
    config: dict
    rows: tuple[MetricRow, ...]
    failures: tuple[dict, ...]
    aggregates: tuple[dict, ...]

    @property
    def replica_count(self) -> int:
        return len(self.config["p_grid"]) * self.config["replicas"]

    @property
    def success_fraction(self) -> float:
        return 1.0 - len(self.failures) / self.replica_count

    def gate_passed(self) -> bool:
        return self.success_fraction >= self.config["min_success"]


# ----------------------------------------------------------------------
# execution


def _run_task(task):
    experiment, p, steps, seed, params = task
    fn, defaults = EXPERIMENTS[experiment]
    try:
        graph = process.run(process.ProcessParams(p=p, steps=steps, seed=seed)).graph
        rows = fn(graph, **{**defaults, **params})
        return (p, seed, [(int(t), str(m), float(v)) for t, m, v in rows], None)
    except Exception as exc:  # noqa: BLE001 (replica isolation is the point)
        return (p, seed, None, f"{type(exc).__name__}: {exc}")


def _aggregate(rows: list[MetricRow]) -> list[dict]:
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r.p, r.t, r.metric), []).append(r.value)
    out = []
    for (p, t, metric), vals in sorted(groups.items()):
        n = len(vals)
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        out.append(
            {"p": p, "t": t, "metric": metric, "mean": mean, "stderr": stderr, "n": n}
        )
    return out


def run_ensemble(config: EnsembleConfig) -> EnsembleReport:
    """Execute all replicas of the configured experiment and aggregate.

    The result is independent of execution order and of ``width``: rows are
    keyed and sorted by ``(p, seed, t, metric)`` and each replica's seed is
    fixed up front.  Raises ``BatchError`` when not a single replica
    succeeds.
    """
    tasks = [
        (config.experiment, p, config.steps, config.base_seed + r, config.params)
        for p in config.p_grid
        for r in range(config.replicas)
    ]
    if config.width > 1:
        from concurrent.futures import ProcessPoolExecutor

        # one chunk per worker, so that a few tasks still spread over all
        chunk = -(-len(tasks) // config.width)
        with ProcessPoolExecutor(max_workers=config.width) as pool:
            results = list(pool.map(_run_task, tasks, chunksize=chunk))
    else:
        results = [_run_task(t) for t in tasks]

    rows: list[MetricRow] = []
    failures: list[dict] = []
    for p, seed, payload, err in results:
        if err is not None:
            failures.append({"p": p, "seed": seed, "error": err})
        else:
            rows.extend(
                MetricRow(p=p, seed=seed, t=t, metric=m, value=v)
                for t, m, v in payload
            )
    if not rows:
        raise BatchError(
            f"all {len(tasks)} replicas failed; first error: "
            f"{failures[0]['error'] if failures else 'none recorded'}"
        )
    rows.sort(key=lambda r: (r.p, r.seed, r.t, r.metric))
    failures.sort(key=lambda f: (f["p"], f["seed"]))
    return EnsembleReport(
        schema=SCHEMA,
        version=__version__,
        experiment=config.experiment,
        config=config.as_dict(),
        rows=tuple(rows),
        failures=tuple(failures),
        aggregates=tuple(_aggregate(rows)),
    )


# ----------------------------------------------------------------------
# persistence


def write_report(report: EnsembleReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


_REAL = (int, float)
# The fields that ``read_report`` checks in each part of a report, with the
# exact types each may load as: a JSON ``true`` is a ``bool``, not an ``int``.
_FIELDS = {
    "row": {"p": _REAL, "seed": (int,), "t": (int,), "metric": (str,), "value": _REAL},
    "failure": {"p": _REAL, "seed": (int,), "error": (str,)},
    "config": {"p_grid": (list,), "replicas": (int,), "min_success": _REAL},
    "aggregate": {},
}


def _checked(path, kind: str, obj) -> dict:
    """``obj``, once it is a JSON object whose ``_FIELDS[kind]`` are present
    with their types; raises ``ParseError`` otherwise."""
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: {kind} is not a JSON object, got {type(obj).__name__}")
    for name, types in _FIELDS[kind].items():
        if name not in obj:
            raise ParseError(f"{path}: {kind} field {name!r} is missing")
        if type(obj[name]) not in types:
            raise ParseError(f"{path}: {kind} field {name!r} has type {type(obj[name]).__name__}")
    return obj


def read_report(path) -> EnsembleReport:
    with open(path, "r") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
            ) from exc
        except (ValueError, RecursionError) as exc:  # undecodable bytes, deep nesting
            raise ParseError(f"{path}: unreadable JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key in ("schema", "version", "experiment", "config", "rows", "failures", "aggregates"):
        if key not in doc:
            raise ParseError(f"{path}: missing field {key!r}")
    for key in ("rows", "failures", "aggregates"):
        if not isinstance(doc[key], list):
            raise ParseError(f"{path}: field {key!r} is not a list")
    if doc["schema"] != SCHEMA:
        raise ParseError(f"{path}: schema {doc['schema']!r}, expected {SCHEMA!r}")
    try:
        rows = tuple(MetricRow(**_checked(path, "row", r)) for r in doc["rows"])
    except TypeError as exc:  # a field that a row does not have
        raise ParseError(f"{path}: malformed row ({exc})") from exc
    config = _checked(path, "config", doc["config"])
    if not config["p_grid"] or any(type(p) not in _REAL for p in config["p_grid"]):
        raise ParseError(f"{path}: config field 'p_grid' is not a non-empty list of reals")
    if config["replicas"] < 1:
        raise ParseError(f"{path}: config field 'replicas' is below 1")
    return EnsembleReport(
        schema=doc["schema"],
        version=doc["version"],
        experiment=doc["experiment"],
        config=config,
        rows=rows,
        failures=tuple(_checked(path, "failure", f) for f in doc["failures"]),
        aggregates=tuple(_checked(path, "aggregate", a) for a in doc["aggregates"]),
    )


def write_rows_csv(report: EnsembleReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "seed", "t", "metric", "value"])
        for r in report.rows:
            w.writerow([repr(r.p), r.seed, r.t, r.metric, repr(r.value)])
