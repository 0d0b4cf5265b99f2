"""Command line front end.

Subcommands: generate, stats, hitting, clique, ensemble.  Each option is
declared once, in ``_COMMANDS``, with its type in ``_TYPES``.  Every option
can also come from a flat ``key=value`` config file (``--config``); explicit
flags win over the file, the file wins over defaults.  An option that the
run does not read (see ``_UNREAD``) is rejected, as a flag or as a config
key.  All outputs echo the effective configuration and are byte-identical
across reruns with the same arguments.  Exit codes: 0 success, 1 a
statistical gate failed, 2 bad usage or configuration.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

from . import analytics, community, ensemble, hitting, process
from .errors import BatchError, ConfigError, FitError, GlpError, StatisticsError


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; integral floats such as ``1e3`` are accepted,
    ``1.5``, ``inf`` and ``nan`` are not."""
    try:
        vals = [float(tok) for tok in str(text).split(",") if tok.strip()]
        if all(process._integral(abs(v)) for v in vals):
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


# ----------------------------------------------------------------------
# option tables

# The type of every option: argparse's ``type=`` for its flag and the cast
# for its config-file value.
_TYPES = {
    "p": float, "steps": int, "seed": int, "out": str, "infile": str, "xmin": int,
    "c1": float, "csv": str, "j": int, "m": int, "k": int, "grid": _int_list,
    "replicas": int, "dom_samples": int, "gamma": float, "experiment": str,
    "p_grid": _float_list, "base_seed": int, "threads": int, "min_success": float,
    "out_dir": str, "snapshots": _int_list, "vertex": int, "t_values": _int_list,
    "eps": float, "eps_prime": float, "topk": int,
}

_REQUIRED = object()  # default marker of an option that must be given
_CLIQUE = community.CLIQUE_DEFAULTS  # m, eps, eps_prime, topk

# Each parameter of the ensemble experiments with its default, and the
# ``glp ensemble`` flag that sets it: the flag of its name, except
# ``--snapshots`` for ``snapshot_times``.
_PARAM_DEFAULT = {n: d for _, ds in ensemble.EXPERIMENTS.values() for n, d in ds.items()}
_PARAM = {("snapshots" if n == "snapshot_times" else n): n for n in _PARAM_DEFAULT}

# Each subcommand's help text and options, with their defaults.
_COMMANDS = {
    "generate": ("run the process and write an edge list", {
        "p": _REQUIRED, "steps": _REQUIRED, "seed": 0, "out": _REQUIRED,
    }),
    "stats": ("degree statistics, tail fit, bound check", {
        "p": _REQUIRED, "steps": _REQUIRED, "seed": 0, "infile": None, "xmin": 10,
        "c1": None, "out": None, "csv": None,
    }),
    "hitting": ("block hitting times against the dominating law", {
        "p": _REQUIRED, "j": _REQUIRED, "m": _REQUIRED, "k": _REQUIRED, "grid": _REQUIRED,
        "replicas": 1000, "dom_samples": 10000, "gamma": None, "steps": None, "seed": 0,
        "out": None, "csv": None,
    }),
    "clique": ("leader clique density at time t, adjacency at 2t", {
        "p": _REQUIRED, "steps": _REQUIRED, "seed": 0, **_CLIQUE, "out": None,
    }),
    "ensemble": ("replica sweeps over a p grid", {
        "experiment": _REQUIRED, "p_grid": _REQUIRED, "steps": _REQUIRED,
        "replicas": _REQUIRED, "base_seed": 0, "threads": None, "min_success": 1.0,
        "out_dir": _REQUIRED,  # then the experiment flags, unset for an empty time list
        **{f: None if _PARAM_DEFAULT[n] == () else _PARAM_DEFAULT[n] for f, n in _PARAM.items()},
    }),
}

_HELP = {
    ("stats", "infile"): "edge list to analyze instead of generating",
    ("stats", "c1"): "envelope constant; any violation exits 1",
    ("clique", "steps"): "reference time t; the run itself has 2t steps",
    ("ensemble", "threads"): "worker processes; falls back to GLP_THREADS",
}

# Options that a setting does not read, keyed by (command, setting): for
# ``stats`` whether ``--in`` is given (its header sets p, steps and seed),
# for ``ensemble`` the experiment.
_UNREAD = {
    ("stats", True): ("p", "steps", "seed"),
    **{("ensemble", experiment): tuple(f for f, name in _PARAM.items() if name not in defaults)
       for experiment, (_, defaults) in ensemble.EXPERIMENTS.items()},
}


def _flag(name: str) -> str:
    return "--in" if name == "infile" else "--" + name.replace("_", "-")


def _resolve(args: argparse.Namespace, cfg: dict[str, str]) -> dict:
    """The options this run reads, flag over config file over default; raises
    ``ConfigError`` on an unknown config key, an unread option or a missing one."""
    command = args.command
    options = _COMMANDS[command][1]
    unknown = set(cfg) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for name, default in options.items():
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
        elif name in cfg:
            try:
                values[name] = _TYPES[name](cfg[name])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {name}={cfg[name]!r}: {exc}") from exc
        else:
            values[name] = default
    setting = values["infile"] is not None if command == "stats" else values.get("experiment")
    unread = _UNREAD.get((command, setting), ())
    given = [_flag(n) for n in unread if getattr(args, n) is not None or n in cfg]
    if given:
        how = "--in" if command == "stats" else f"--experiment {setting}"
        raise ConfigError(f"glp {command} {how} does not read {', '.join(given)}")
    values = {name: v for name, v in values.items() if name not in unread}
    missing = [name for name, v in values.items() if v is _REQUIRED]
    if missing:
        raise ConfigError(f"missing required option {_flag(missing[0])}")
    return values


def _dump_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommand handlers; each takes the resolved options and echoes them


def _cmd_generate(opts: dict) -> int:
    params = process.ProcessParams(p=opts["p"], steps=opts["steps"], seed=opts["seed"])
    result = process.run(params)
    process.export_edges(result.graph, opts["out"])
    _dump_json(
        {
            "command": "generate",
            "config": opts,
            "t": result.graph.t,
            "vertices": result.graph.num_vertices,
            "max_degree": result.graph.max_degree(),
            "out": opts["out"],
        },
        None,
    )
    return 0


def _cmd_stats(opts: dict) -> int:
    xmin, c1 = opts["xmin"], opts["c1"]
    if opts["infile"] is not None:
        graph = process.read_edges(opts["infile"])
        opts.update({"p": graph.p, "seed": graph.seed, "steps": graph.t})
    else:
        params = process.ProcessParams(p=opts["p"], steps=opts["steps"], seed=opts["seed"])
        graph = process.run(params).graph

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
            "config": opts,
            "p": graph.p,
            "seed": graph.seed,
            "t": graph.t,
            "vertex_count": graph.num_vertices,
            "max_degree": graph.max_degree(),
            "total_degree": graph.total_degree(),
            "power_law": power_law,
            "bound": bound,
        },
        opts["out"],
    )
    if opts["csv"]:
        with open(opts["csv"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p", "seed", "t", "statistic", "estimate", "stderr"])
            w.writerow([repr(graph.p), graph.seed, graph.t, "max_degree",
                        graph.max_degree(), 0])
            if "exponent" in power_law:
                w.writerow([repr(graph.p), graph.seed, graph.t, "powerlaw_exponent",
                            repr(power_law["exponent"]), repr(power_law["stderr"])])
    return 1 if violations else 0


def _cmd_hitting(opts: dict) -> int:
    p, m, j, k = opts["p"], opts["m"], opts["j"], opts["k"]
    report = hitting.domination_experiment(
        p=p, m=m, j=j, k=k, t_grid=opts["grid"], replicas=opts["replicas"],
        dominating_samples=opts["dom_samples"], base_seed=opts["seed"], gamma=opts["gamma"],
        steps=opts["steps"],
    )
    doc = {
        "command": "hitting",
        "config": opts,
        "gamma": report.params.gamma,
        "rows": [{**dataclasses.asdict(r), "ok": r.ok} for r in report.rows],
        "passed": report.passed,
    }
    _dump_json(doc, opts["out"])
    if opts["csv"]:
        # the rows ``csv.writer`` would write: no field needs quoting
        with open(opts["csv"], "w", newline="") as fh:
            fh.write("source,p,m,j,k,replica,hit_time\r\n")
            hits = ["censored" if math.isinf(v) else int(v)
                    for v in report.empirical_times.tolist()]
            _write_rows(fh, f"empirical,{p!r},{m},{j},{k},%d,%s\r\n", hits)
            _write_rows(fh, f"dominating,{p!r},{m},{j},{k},%d,%r\r\n",
                        report.dominating_times.tolist())
    return 0 if report.passed else 1


# Rows per formatted write: bounds the temporary string at any sample count.
_WRITE_CHUNK = 2**16


def _write_rows(fh, row: str, values: list) -> None:
    """Write ``row % (i, values[i])`` for every ``i``, a chunk at a time."""
    for a in range(0, len(values), _WRITE_CHUNK):
        chunk = values[a : a + _WRITE_CHUNK]
        fields = [x for pair in zip(range(a, a + len(chunk)), chunk) for x in pair]
        fh.write(row * len(chunk) % tuple(fields))


def _cmd_clique(opts: dict) -> int:
    t_ref = opts["steps"]
    graph = process.run(process.ProcessParams(opts["p"], 2 * t_ref, opts["seed"])).graph
    row = community.clique_growth_rows(graph, [t_ref], **{k: opts[k] for k in _CLIQUE})[0]
    _dump_json(
        {"command": "clique", "config": opts, **dataclasses.asdict(row), "m": opts["m"],
         "triangles": community.count_triangles(graph)},
        opts["out"],
    )
    return 0


def _cmd_ensemble(opts: dict) -> int:
    if opts["threads"] is None:
        raw = os.environ.get("GLP_THREADS", "1")
        try:
            opts["threads"] = int(raw)
        except ValueError as exc:
            raise ConfigError(f"GLP_THREADS={raw!r} is not an integer") from exc
    experiment, steps = opts["experiment"], opts["steps"]
    # the experiment's own parameters: _resolve dropped the flags it does not
    # read, and an absent or empty time list leaves the default
    params = {name: opts[f] for f, name in _PARAM.items() if opts.get(f) not in (None, ())}
    full = ensemble.EnsembleConfig(
        experiment=experiment, p_grid=opts["p_grid"], steps=steps, replicas=opts["replicas"],
        base_seed=opts["base_seed"], width=opts["threads"], min_success=opts["min_success"],
        params=params,
    )
    configs = [dataclasses.replace(full, p_grid=(p,)) for p in full.p_grid]

    os.makedirs(opts["out_dir"], exist_ok=True)
    all_passed = True
    written = []
    for config in configs:
        report = ensemble.run_ensemble(config)
        stem = os.path.join(opts["out_dir"], f"{experiment}_{config.p_grid[0]!r}_{steps}")
        ensemble.write_report(report, stem + ".json")
        ensemble.write_rows_csv(report, stem + ".csv")
        written.append(stem + ".json")
        all_passed = all_passed and report.gate_passed()
    _dump_json({"command": "ensemble", "config": opts, "written": written, "passed": all_passed},
               None)
    return 0 if all_passed else 1


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="glp",
        description="Simulate a degree-proportional growth process and check its statistics.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        parser = sub.add_parser(command, help=help_text)
        for name in options:
            choices = sorted(ensemble.EXPERIMENTS) if name == "experiment" else None
            parser.add_argument(_flag(name), dest=name, type=_TYPES[name], choices=choices,
                                help=_HELP.get((command, name)))
        parser.add_argument("--config", type=str)
    return top


_HANDLERS = {"generate": _cmd_generate, "stats": _cmd_stats, "hitting": _cmd_hitting,
             "clique": _cmd_clique, "ensemble": _cmd_ensemble}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = read_config_file(args.config) if args.config else {}
        return _HANDLERS[args.command](_resolve(args, cfg))
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
