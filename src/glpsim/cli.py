"""Command line front end.

Subcommands: generate, stats, hitting, clique, ensemble.  Every option can
also come from a flat ``key=value`` config file (``--config``); explicit
flags win over the file, the file wins over defaults.  All outputs echo the
effective configuration and are byte-identical across reruns with the same
arguments.  Exit codes: 0 success, 1 a statistical gate failed, 2 bad usage
or configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analytics, community, ensemble, hitting, process
from .errors import BatchError, ConfigError, FitError, GlpError, StatisticsError


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; integral floats such as ``1e3`` are accepted,
    ``1.5``, ``inf`` and ``nan`` are not."""
    try:
        vals = [float(tok) for tok in str(text).split(",") if tok.strip()]
        if all(v.is_integer() for v in vals):
            return tuple(int(v) for v in vals)
    except ValueError:
        pass
    raise ConfigError(f"expected a comma-separated integer list, got {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated float list, got {text!r}") from exc


def read_config_file(path: str) -> dict[str, str]:
    """Flat ``key=value`` file; blank lines and ``#`` comments are skipped."""
    cfg: dict[str, str] = {}
    try:
        with open(path, "rb") as fh:
            for lineno, data in enumerate(fh, start=1):
                try:
                    raw = data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ConfigError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return cfg


class _Resolver:
    """Merge explicit flags, config file entries and defaults."""

    def __init__(self, args: argparse.Namespace, cfg: dict[str, str], known: set[str]):
        self.args = args
        self.cfg = cfg
        unknown = set(cfg) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.effective: dict = {}

    def get(self, name: str, cast, default=None, required: bool = False):
        flag = getattr(self.args, name)
        if flag is not None:
            value = flag
        elif name in self.cfg:
            raw = self.cfg[name]
            try:
                value = cast(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {name}={raw!r}: {exc}") from exc
        else:
            value = default
        if value is None and required:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")
        self.effective[name] = value if not isinstance(value, tuple) else list(value)
        return value


def _dump_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_generate(res: _Resolver) -> int:
    p = res.get("p", float, required=True)
    steps = res.get("steps", int, required=True)
    seed = res.get("seed", int, 0)
    out = res.get("out", str, required=True)
    result = process.run(process.ProcessParams(p=p, steps=steps, seed=seed))
    process.export_edges(result.graph, out)
    _dump_json(
        {
            "command": "generate",
            "config": res.effective,
            "t": result.graph.t,
            "vertices": result.graph.num_vertices,
            "max_degree": result.graph.max_degree(),
            "out": out,
        },
        None,
    )
    return 0


def _cmd_stats(res: _Resolver) -> int:
    src = res.get("infile", str)
    xmin = res.get("xmin", int, 10)
    c1 = res.get("c1", float)
    out = res.get("out", str)
    csv_path = res.get("csv", str)
    if src is not None:
        graph = process.read_edges(src)
        res.effective.update({"p": graph.p, "seed": graph.seed, "steps": graph.t})
    else:
        p = res.get("p", float, required=True)
        steps = res.get("steps", int, required=True)
        seed = res.get("seed", int, 0)
        graph = process.run(process.ProcessParams(p=p, steps=steps, seed=seed)).graph

    hist = analytics.degree_histogram(graph)
    try:
        fit = analytics.fit_power_law(hist, x_min=xmin)
        power_law = {
            "exponent": fit.estimate,
            "stderr": fit.stderr,
            "x_min": xmin,
            "hint": analytics.derived_constants(graph.p).powerlaw_exponent_hint,
        }
    except (StatisticsError, FitError) as exc:
        power_law = {"error": str(exc), "x_min": xmin}

    bound = None
    violations: list[int] = []
    if c1 is not None:
        violations = analytics.upper_bound_check(graph, c1).tolist()
        bound = {"c1": c1, "violation_count": len(violations), "violations": violations[:50]}

    _dump_json(
        {
            "command": "stats",
            "config": res.effective,
            "p": graph.p,
            "seed": graph.seed,
            "t": graph.t,
            "vertex_count": graph.num_vertices,
            "max_degree": graph.max_degree(),
            "total_degree": graph.total_degree(),
            "power_law": power_law,
            "bound": bound,
        },
        out,
    )
    if csv_path:
        import csv as _csv

        with open(csv_path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["p", "seed", "t", "statistic", "estimate", "stderr"])
            w.writerow([repr(graph.p), graph.seed, graph.t, "max_degree",
                        graph.max_degree(), 0])
            if "exponent" in power_law:
                w.writerow([repr(graph.p), graph.seed, graph.t, "powerlaw_exponent",
                            repr(power_law["exponent"]), repr(power_law["stderr"])])
    return 1 if violations else 0


def _cmd_hitting(res: _Resolver) -> int:
    p = res.get("p", float, required=True)
    j = res.get("j", int, required=True)
    m = res.get("m", int, required=True)
    k = res.get("k", int, required=True)
    grid = res.get("grid", _int_list, required=True)
    replicas = res.get("replicas", int, 1000)
    dom_samples = res.get("dom_samples", int, 10000)
    seed = res.get("seed", int, 0)
    gamma = res.get("gamma", float)
    steps = res.get("steps", int)
    out = res.get("out", str)
    csv_path = res.get("csv", str)

    report = hitting.domination_experiment(
        p=p, m=m, j=j, k=k, t_grid=grid, replicas=replicas,
        dominating_samples=dom_samples, base_seed=seed, gamma=gamma, steps=steps,
    )
    doc = {
        "command": "hitting",
        "config": res.effective,
        "gamma": report.params.gamma,
        "rows": [
            {
                "t": r.t,
                "empirical": r.empirical,
                "empirical_se": r.empirical_se,
                "dominating": r.dominating,
                "dominating_se": r.dominating_se,
                "ok": r.ok,
            }
            for r in report.rows
        ],
        "passed": report.passed,
    }
    _dump_json(doc, out)
    if csv_path:
        import csv as _csv

        with open(csv_path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["source", "p", "m", "j", "k", "replica", "hit_time"])
            for i, v in enumerate(report.empirical_times):
                w.writerow(["empirical", repr(p), m, j, k, i,
                            "censored" if math.isinf(v) else int(v)])
            for i, v in enumerate(report.dominating_times):
                w.writerow(["dominating", repr(p), m, j, k, i, repr(float(v))])
    return 0 if report.passed else 1


def _cmd_clique(res: _Resolver) -> int:
    p = res.get("p", float, required=True)
    t_ref = res.get("steps", int, required=True)
    seed = res.get("seed", int, 0)
    m = res.get("m", int, 10)
    eps = res.get("eps", float, 0.1)
    eps_prime = res.get("eps_prime", float, 0.05)
    topk = res.get("topk", int, 64)
    out = res.get("out", str)

    graph = process.run(process.ProcessParams(p=p, steps=2 * t_ref, seed=seed)).graph
    row = community.clique_growth_rows(graph, [t_ref], m, eps, eps_prime, topk)[0]
    _dump_json(
        {
            "command": "clique",
            "config": res.effective,
            "p": p,
            "seed": seed,
            "t": t_ref,
            "m": m,
            "j_lo": row.j_lo,
            "j_hi": row.j_hi,
            "leader_count": row.leader_count,
            "pair_fraction": row.pair_fraction,
            "clique_size": row.clique_size,
            "topk_clique_size": row.topk_clique_size,
            "triangles": community.count_triangles(graph),
        },
        out,
    )
    return 0


def _cmd_ensemble(res: _Resolver) -> int:
    experiment = res.get("experiment", str, required=True)
    p_grid = res.get("p_grid", _float_list, required=True)
    steps = res.get("steps", int, required=True)
    replicas = res.get("replicas", int, required=True)
    base_seed = res.get("base_seed", int, 0)
    min_success = res.get("min_success", float, 1.0)
    out_dir = res.get("out_dir", str, required=True)
    threads = res.get("threads", int)
    if threads is None:
        raw = os.environ.get("GLP_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ConfigError(f"GLP_THREADS={raw!r} is not an integer") from exc
    res.effective["threads"] = threads

    params: dict = {}
    snapshots = res.get("snapshots", _int_list)
    if experiment in ("maxdeg", "triangles") and snapshots:
        params["snapshot_times"] = snapshots
    if experiment == "arrival":
        vertex = res.get("vertex", int, 2)
        params["vertex"] = vertex
    if experiment == "cliquegrowth":
        t_values = res.get("t_values", _int_list)
        if t_values:
            params["t_values"] = t_values
        params["m"] = res.get("m", int, 10)
        params["eps"] = res.get("eps", float, 0.1)
        params["eps_prime"] = res.get("eps_prime", float, 0.05)
        params["topk"] = res.get("topk", int, 64)

    os.makedirs(out_dir, exist_ok=True)
    all_passed = True
    written = []
    for p in p_grid:
        config = ensemble.EnsembleConfig(
            experiment=experiment,
            p_grid=(p,),
            steps=steps,
            replicas=replicas,
            base_seed=base_seed,
            width=threads,
            min_success=min_success,
            params=params,
        )
        report = ensemble.run_ensemble(config)
        stem = os.path.join(out_dir, f"{experiment}_{p!r}_{steps}")
        ensemble.write_report(report, stem + ".json")
        ensemble.write_rows_csv(report, stem + ".csv")
        written.append(stem + ".json")
        all_passed = all_passed and report.gate_passed()
    _dump_json(
        {
            "command": "ensemble",
            "config": res.effective,
            "written": written,
            "passed": all_passed,
        },
        None,
    )
    return 0 if all_passed else 1


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="glp",
        description="Simulate a degree-proportional growth process and check its statistics.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(parser, *names, **kw):
        kw.setdefault("default", None)
        parser.add_argument(*names, **kw)

    g = sub.add_parser("generate", help="run the process and write an edge list")
    add(g, "--p", type=float)
    add(g, "--steps", type=int)
    add(g, "--seed", type=int)
    add(g, "--out", type=str)
    add(g, "--config", type=str)

    s = sub.add_parser("stats", help="degree statistics, tail fit, bound check")
    add(s, "--p", type=float)
    add(s, "--steps", type=int)
    add(s, "--seed", type=int)
    add(s, "--in", dest="infile", type=str, help="edge list to analyze instead of generating")
    add(s, "--xmin", type=int)
    add(s, "--c1", type=float, help="envelope constant; any violation exits 1")
    add(s, "--out", type=str)
    add(s, "--csv", type=str)
    add(s, "--config", type=str)

    h = sub.add_parser("hitting", help="block hitting times against the dominating law")
    add(h, "--p", type=float)
    add(h, "--j", type=int)
    add(h, "--m", type=int)
    add(h, "--k", type=int)
    add(h, "--grid", type=_int_list)
    add(h, "--replicas", type=int)
    add(h, "--dom-samples", dest="dom_samples", type=int)
    add(h, "--gamma", type=float)
    add(h, "--steps", type=int)
    add(h, "--seed", type=int)
    add(h, "--out", type=str)
    add(h, "--csv", type=str)
    add(h, "--config", type=str)

    c = sub.add_parser("clique", help="leader clique density at time t, adjacency at 2t")
    add(c, "--p", type=float)
    add(c, "--steps", type=int, help="reference time t; the run itself has 2t steps")
    add(c, "--seed", type=int)
    add(c, "--m", type=int)
    add(c, "--eps", type=float)
    add(c, "--eps-prime", dest="eps_prime", type=float)
    add(c, "--topk", type=int)
    add(c, "--out", type=str)
    add(c, "--config", type=str)

    e = sub.add_parser("ensemble", help="replica sweeps over a p grid")
    add(e, "--experiment", type=str, choices=sorted(ensemble.EXPERIMENTS))
    add(e, "--p-grid", dest="p_grid", type=_float_list)
    add(e, "--steps", type=int)
    add(e, "--replicas", type=int)
    add(e, "--base-seed", dest="base_seed", type=int)
    add(e, "--threads", type=int, help="worker processes; falls back to GLP_THREADS")
    add(e, "--min-success", dest="min_success", type=float)
    add(e, "--out-dir", dest="out_dir", type=str)
    add(e, "--snapshots", type=_int_list)
    add(e, "--vertex", type=int)
    add(e, "--t-values", dest="t_values", type=_int_list)
    add(e, "--m", type=int)
    add(e, "--eps", type=float)
    add(e, "--eps-prime", dest="eps_prime", type=float)
    add(e, "--topk", type=int)
    add(e, "--config", type=str)

    return top


_HANDLERS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "hitting": _cmd_hitting,
    "clique": _cmd_clique,
    "ensemble": _cmd_ensemble,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    known = {k for k in vars(args) if k not in ("command", "config")}
    try:
        cfg = read_config_file(args.config) if getattr(args, "config", None) else {}
        res = _Resolver(args, cfg, known)
        return _HANDLERS[args.command](res)
    except BatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GlpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try fewer steps or replicas", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
