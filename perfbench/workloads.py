"""The benchmark's workloads: one pass of each is a fixed list of operations.

An operation is one public glpsim call or one ``glp`` command, run in this
process.  Pass ``k`` of a run takes its seeds from ``pass_seed(seed, k)``, so
the same ``--seed`` gives the same inputs.  Every operation has an invariant
check, which holds at any seed, and a digest of its seeded outputs, which the
benchmark compares with ``digests.json`` at the reference seed.

Why each workload exists (sizes are rescaled from the gate shapes so that a
30-second run repeats each operation several times):

* ``large-run``: ``process.run`` at 4e6 steps is DRAM-bound (about 0.5 GB of
  working arrays against a 105 MB L3), so the generator's copy resolution and
  memory layout dominate; ``glp stats``-style analytics add under 5%.
* ``replica-sweep``: thousands of library replicas at <= 2**14 steps (plus
  the 1e5-step ensemble) fit in L2, so per-call overhead and RNG draws
  dominate; a large-n generator change should leave it unchanged.
* ``cli-pipeline``: the ``glp`` commands users run, with an edge list written
  then read back, ``community`` at two sizes, and the CLI's duplicated runs
  (``clique`` runs its 2t-step process twice, ``hitting --csv`` every
  replica twice).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from glpsim import analytics, cli, community, ensemble, hitting, process

P = 0.5
LARGE_STEPS = 4_000_000
DECADES = tuple(10**k for k in range(1, 7))

HIT = dict(p=P, m=4, j=260, k=16, t_grid=[2**i for i in range(8, 15)])
HIT_DOM_SAMPLES = 100_000
HIT_GAMMA = 0.4
SWEEP_HIT_REPLICAS = 250
SWEEP_MART_REPLICAS = 250
SWEEP_COND_REPLICAS = 100
SWEEP_ENS_REPLICAS = 8
MART_CHECKPOINTS = (100, 1000, 10_000)
P_GRID = (0.25, 0.5, 0.75)

CLI_GEN_STEPS = 200_000
CLI_CLIQUE_T = 100_000
CLI_HIT_REPLICAS = 100
CLI_HIT_DOM_SAMPLES = 20_000
CLI_ENS_STEPS = 20_000
CLI_ENS_REPLICAS = 3


def pass_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


@dataclass
class Op:
    """One operation of a pass.

    ``call`` does the work and returns its output; ``check`` lists broken
    invariants of that output (empty when fine); ``digest`` maps output
    names to sha256 digests; ``work`` counts the steps or replicas the
    call was asked for, for the rate lines.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], dict[str, str]]
    work: float = 1.0


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _graph_problems(graph, steps: int) -> list[str]:
    bad = []
    if graph.t != steps:
        bad.append(f"graph has t={graph.t}, expected {steps}")
    if graph.total_degree() != 2 * (steps + 1) or int(graph.degrees.sum()) != 2 * (steps + 1):
        bad.append(f"total degree is not 2*(t+1) at t={steps}")
    return bad


# ----------------------------------------------------------------------
# large-run


def large_run(seed: int, workdir: str) -> list[Op]:
    state = {}

    def run():
        res = process.run(
            process.ProcessParams(p=P, steps=LARGE_STEPS, seed=seed, snapshot_times=DECADES)
        )
        state["graph"] = res.graph
        return res

    def check_run(res):
        bad = _graph_problems(res.graph, LARGE_STEPS)
        maxima = [s.max_degree for s in res.snapshots]
        if [s.t for s in res.snapshots] != list(DECADES) or maxima != sorted(maxima):
            bad.append("snapshots are not the decades with nondecreasing max degree")
        return bad

    def stats():
        graph = state.pop("graph")
        hist = analytics.degree_histogram(graph)
        fit = analytics.fit_power_law(hist, x_min=10)
        violations = analytics.upper_bound_check(graph, 4.0)
        return graph, hist, fit, violations

    def check_stats(out):
        graph, hist, fit, _ = out
        bad = []
        if hist.total_degree != graph.total_degree() or hist.vertex_count != graph.num_vertices:
            bad.append("degree histogram does not add up to the graph")
        if not (1.0 < fit.estimate < 12.0 and math.isfinite(fit.stderr)):
            bad.append(f"power-law fit out of range: {fit.estimate}")
        return bad

    return [
        Op("run", run, check_run,
           lambda res: {
               "run.endpoints": _sha(res.graph.endpoints.tobytes()),
               "run.snapshots": _sha(repr([(s.t, s.max_degree) for s in res.snapshots])),
           },
           work=LARGE_STEPS),
        Op("stats", stats, check_stats,
           lambda out: {
               "stats.histogram": _sha(out[1].values.tobytes() + out[1].counts.tobytes()),
               "stats.fit": _sha(repr((out[2].estimate, out[2].stderr))),
               "stats.violations": _sha(out[3].tobytes()),
           }),
    ]


# ----------------------------------------------------------------------
# replica-sweep


def _martingale_op(label, seed, replicas, **cond) -> Op:
    def call():
        return analytics.martingale_check(
            P, MART_CHECKPOINTS, replicas=replicas, base_seed=seed, **cond
        )

    def check(rep):
        if rep.replicas != replicas or [r.t for r in rep.rows] != list(MART_CHECKPOINTS):
            return ["martingale report has the wrong shape"]
        if not all(math.isfinite(r.ratio) and r.ratio > 0 for r in rep.rows):
            return ["martingale ratios are not finite and positive"]
        return []

    return Op("martingale", call, check,
              lambda rep: {f"{label}.rows": _sha(repr(rep.rows))}, work=replicas)


def replica_sweep(seed: int, workdir: str) -> list[Op]:
    def dom():
        return hitting.domination_experiment(
            **HIT, replicas=SWEEP_HIT_REPLICAS, dominating_samples=HIT_DOM_SAMPLES,
            base_seed=seed, gamma=HIT_GAMMA,
        )

    def check_dom(rep):
        emp = [r.empirical for r in rep.rows]
        if [r.t for r in rep.rows] != HIT["t_grid"] or rep.replicas != SWEEP_HIT_REPLICAS:
            return ["domination report has the wrong shape"]
        if emp != sorted(emp, reverse=True) or not all(0.0 <= e <= 1.0 for e in emp):
            return ["empirical survival is not a nonincreasing probability"]
        return []

    config = ensemble.EnsembleConfig(
        experiment="maxdeg", p_grid=P_GRID, steps=100_000, replicas=SWEEP_ENS_REPLICAS,
        base_seed=seed, width=1, params={"snapshot_times": (10_000, 100_000)},
    )

    def check_ens(rep):
        if rep.failures or len(rep.rows) != len(P_GRID) * SWEEP_ENS_REPLICAS * 2:
            return [f"ensemble has {len(rep.failures)} failures, {len(rep.rows)} rows"]
        return []

    return [
        Op("hitting", dom, check_dom, lambda rep: {"hitting.rows": _sha(repr(rep.rows))},
           work=SWEEP_HIT_REPLICAS),
        _martingale_op("martingale", seed, SWEEP_MART_REPLICAS),
        _martingale_op("martingale_cond", seed, SWEEP_COND_REPLICAS,
                       vertex=2, arrival_step=1),
        Op("ensemble", lambda: ensemble.run_ensemble(config), check_ens,
           lambda rep: {"ensemble.report": _sha(repr((rep.rows, rep.aggregates)))},
           work=len(P_GRID) * SWEEP_ENS_REPLICAS),
    ]


# ----------------------------------------------------------------------
# cli-pipeline


@contextlib.contextmanager
def _in_dir(path):
    back = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(back)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]


def _cli_op(workdir, argv, outputs, verdict_ok=False, check=None) -> Op:
    """``glp <argv>`` in ``workdir``; exit 1 is a statistical verdict only
    for the commands that have one, exit 2 is always a failure."""

    def call():
        for name in outputs:  # so that a failed command cannot pass on stale files
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(workdir, name))
        out, err = io.StringIO(), io.StringIO()
        with _in_dir(workdir), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        files = {}
        for name in outputs:
            path = os.path.join(workdir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        return CliResult(code, out.getvalue(), err.getvalue(), files)

    def full_check(res):
        if res.code != 0 and not (verdict_ok and res.code == 1):
            return [f"glp {argv[0]} exited {res.code}: {res.stderr.strip()[:200]}"]
        return check(res) if check else []

    def digest(res):
        d = {f"{argv[0]}.stdout": _sha(res.stdout)}
        d.update({f"{argv[0]}:{name}": _sha(data) for name, data in res.files.items()})
        return d

    return Op(argv[0], call, full_check, digest)


def cli_pipeline(seed: int, workdir: str) -> list[Op]:
    s = str(seed)
    grid = ",".join(str(t) for t in HIT["t_grid"])
    reports = [f"ens/triangles_{p!r}_{CLI_ENS_STEPS}.{ext}"
               for p in P_GRID for ext in ("json", "csv")]

    def check_stats(res):
        doc = json.loads(res.files["stats.json"])
        if doc["t"] != CLI_GEN_STEPS or doc["total_degree"] != 2 * (CLI_GEN_STEPS + 1):
            return ["edge list read back with the wrong t or total degree"]
        return []

    def check_clique(res):
        doc = json.loads(res.files["clique.json"])
        if not (0.0 <= doc["pair_fraction"] <= 1.0 and doc["topk_clique_size"] >= 1):
            return ["clique report out of range"]
        return []

    def check_hitting(res):
        rows = res.files["hit.csv"].count(b"\n")
        if rows != 1 + CLI_HIT_REPLICAS + CLI_HIT_DOM_SAMPLES:
            return [f"hitting csv has {rows} lines"]
        return []

    def check_ensemble(res):
        for name in reports[::2]:
            rep = ensemble.read_report(os.path.join(workdir, name))
            if rep.failures or len(rep.rows) != CLI_ENS_REPLICAS * 2:
                return [f"{name}: {len(rep.failures)} failures, {len(rep.rows)} rows"]
        return []

    return [
        _cli_op(workdir, ["generate", "--p", str(P), "--steps", str(CLI_GEN_STEPS),
                          "--seed", s, "--out", "run.edges"], ["run.edges"]),
        _cli_op(workdir, ["stats", "--in", "run.edges", "--xmin", "10", "--c1", "4",
                          "--out", "stats.json", "--csv", "stats.csv"],
                ["stats.json", "stats.csv"], verdict_ok=True, check=check_stats),
        _cli_op(workdir, ["clique", "--p", str(P), "--steps", str(CLI_CLIQUE_T),
                          "--seed", s, "--out", "clique.json"], ["clique.json"],
                check=check_clique),
        _cli_op(workdir, ["hitting", "--p", str(P), "--j", "260", "--m", "4", "--k", "16",
                          "--grid", grid, "--replicas", str(CLI_HIT_REPLICAS),
                          "--dom-samples", str(CLI_HIT_DOM_SAMPLES),
                          "--gamma", str(HIT_GAMMA),
                          "--seed", s, "--out", "hit.json", "--csv", "hit.csv"],
                ["hit.json", "hit.csv"], verdict_ok=True, check=check_hitting),
        _cli_op(workdir, ["ensemble", "--experiment", "triangles",
                          "--p-grid", ",".join(str(p) for p in P_GRID),
                          "--steps", str(CLI_ENS_STEPS), "--replicas", str(CLI_ENS_REPLICAS),
                          "--snapshots", f"{CLI_ENS_STEPS // 10},{CLI_ENS_STEPS}",
                          "--base-seed", s,
                          "--threads", "1", "--out-dir", "ens"], reports,
                check=check_ensemble),
    ]


# ----------------------------------------------------------------------
# invariants on small fixtures, at any seed


def fixture_problems(seed: int, workdir: str) -> list[str]:
    bad = []
    k4 = process.GlpGraph.from_endpoints([1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4])
    if community.count_triangles(k4) != 4:
        bad.append("count_triangles on K4 is not 4")

    graph = process.run(process.ProcessParams(p=P, steps=10_000, seed=seed)).graph
    bad += _graph_problems(graph, 10_000)
    path = os.path.join(workdir, "roundtrip.edges")
    process.export_edges(graph, path)
    back = process.read_edges(path)
    if not np.array_equal(back.endpoints, graph.endpoints):
        bad.append("read_edges(export_edges(g)) changed the endpoints")

    graph = process.run(process.ProcessParams(p=P, steps=100_000, seed=seed)).graph
    clique = community.max_clique_topk(graph, 64)
    if community.is_clique(graph, clique).pair_fraction != 1.0:
        bad.append("max_clique_topk returned a set that is not a clique")
    return bad


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, str], list[Op]]
    largest_run_steps: int
    # Per-operation lines printed before the result:
    # name -> (op kind, "rate" for work per second or "s" for seconds per pass).
    named: dict
    # Whether the workload's time goes mostly to arrays larger than the
    # last-level cache; its reference kernel then adds a DRAM-bound part.
    dram_bound: bool = False


WORKLOADS = {
    "large-run": Workload(large_run, LARGE_STEPS, {"gen_steps_per_s": ("run", "rate")},
                          dram_bound=True),
    "replica-sweep": Workload(replica_sweep, 100_000, {
        "hitting_replicas_per_s": ("hitting", "rate"),
        "martingale_replicas_per_s": ("martingale", "rate"),
        "ensemble_replicas_per_s": ("ensemble", "rate"),
    }),
    "cli-pipeline": Workload(cli_pipeline, max(2 * CLI_CLIQUE_T, CLI_GEN_STEPS), {
        f"cli_{cmd}_s": (cmd, "s")
        for cmd in ("generate", "stats", "clique", "hitting", "ensemble")
    }),
}
