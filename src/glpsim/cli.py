"""Command line front end.

Subcommands: generate, stats, hitting, clique, ensemble.  Each option is
declared once, in ``_COMMANDS``, with its type in ``_TYPES``.  Every option
can also come from a flat ``key=value`` config file (``--config``); explicit
flags win over the file, the file wins over defaults.  An option that the
run does not read (see ``_UNREAD``) is rejected, as a flag or as a config
key.  Each handler ``_cmd_<command>`` takes the resolved options, writes
the command's own files and returns ``(exit_code, fields)``; ``main`` then
writes the one JSON document ``{"command", "config", **fields}`` to
``--out`` (stdout when unset, and always for ``generate``, whose ``--out``
is the edge list), where ``config`` echoes the options as the handler left
them.  Every output is byte-identical across reruns with the same
arguments.  A call declares only the options of the subcommand it names
(``build_parser(command)``); its usage, help and error text are those of
the full parser.  Exit codes: 0 success, 1 a statistical gate failed, 2 bad
usage or configuration.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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


# ----------------------------------------------------------------------
# subcommand handlers; each returns its exit code and its document's fields


def _cmd_generate(opts: dict) -> tuple[int, dict]:
    params = process.ProcessParams(p=opts["p"], steps=opts["steps"], seed=opts["seed"])
    graph = process.run(params).graph
    process.export_edges(graph, opts["out"])
    return 0, {"t": graph.t, "vertices": graph.num_vertices,
               "max_degree": graph.max_degree(), "out": opts["out"]}


def _cmd_stats(opts: dict) -> tuple[int, dict]:
    xmin, c1 = opts["xmin"], opts["c1"]
    process._check_int(xmin, "x_min")
    if c1 is not None:
        analytics._check_c1(c1)
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

    if opts["csv"]:
        with open(opts["csv"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p", "seed", "t", "statistic", "estimate", "stderr"])
            run = [repr(graph.p), graph.seed, graph.t]
            w.writerow([*run, "max_degree", graph.max_degree(), 0])
            if "exponent" in power_law:
                w.writerow([*run, "powerlaw_exponent", repr(fit.estimate), repr(fit.stderr)])
    return 1 if violations else 0, {
        "p": graph.p, "seed": graph.seed, "t": graph.t, "vertex_count": graph.num_vertices,
        "max_degree": graph.max_degree(), "total_degree": graph.total_degree(),
        "power_law": power_law, "bound": bound,
    }


def _cmd_hitting(opts: dict) -> tuple[int, dict]:
    p, m, j, k = opts["p"], opts["m"], opts["j"], opts["k"]
    report = hitting.domination_experiment(
        p=p, m=m, j=j, k=k, t_grid=opts["grid"], replicas=opts["replicas"],
        dominating_samples=opts["dom_samples"], base_seed=opts["seed"], gamma=opts["gamma"],
        steps=opts["steps"],
    )
    if opts["csv"]:
        # the rows ``csv.writer`` would write: no field needs quoting
        head = f"{p!r},{m},{j},{k},"
        with open(opts["csv"], "wb") as fh:
            fh.write(b"source,p,m,j,k,replica,hit_time\r\n")
            row = f"empirical,{head}%d,%s\r\n"
            hits = ["censored" if math.isinf(v) else int(v)
                    for v in report.empirical_times.tolist()]
            for a in range(0, len(hits), _WRITE_CHUNK):
                chunk = enumerate(hits[a : a + _WRITE_CHUNK], a)
                fh.write("".join(row % pair for pair in chunk).encode())
            dom = report.dominating_times
            for a in range(0, dom.size, _WRITE_CHUNK):
                fh.write(_repr_rows(f"dominating,{head}", a, dom[a : a + _WRITE_CHUNK]))
    return 0 if report.passed else 1, {
        "gamma": report.params.gamma, "passed": report.passed,
        "rows": [{**dataclasses.asdict(r), "ok": r.ok} for r in report.rows],
    }


# Rows per formatted write: bounds the temporaries at any sample count.
_WRITE_CHUNK = 2**14

# The exact doubles 10**s, and the high and low halves of each by Veltkamp's
# split (``_halves``), for Dekker's exact product.
_POW10 = np.array([float(10**s) for s in range(18)])
_SPLIT = 2.0**27 + 1
# The margin kept by every digit decision (see ``_shortest_digits``).
_DELTA = 2.0**-40


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``x == hi + lo`` with both halves of at most 26 bits."""
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _probe(v, vh, vl, half, s) -> tuple[np.ndarray, ...]:
    """``(n, d, h)`` for each ``v`` (with its ``_halves`` and half an ulp)
    and ``s`` in ``[0, 16]``: ``n = near + step`` (two integral doubles), the
    integer nearest ``v * 10**s``, ``d`` its computed distance from it and
    ``h = 10**s * half``."""
    hi = v * _POW10[s]
    lo = vh * _POW10_HI[s]  # Dekker's two-product: v * 10**s == hi + lo
    lo -= hi
    lo += vh * _POW10_LO[s]
    lo += vl * _POW10_HI[s]
    lo += vl * _POW10_LO[s]
    near = np.rint(hi)
    r = hi - near
    r += lo
    step = np.rint(r)
    r -= step
    return (near, step), np.abs(r), half * _POW10[s]


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(ok, n, size, e10)``: for each ``x[i]`` where ``ok`` holds, in
    order, ``repr(x[i])`` is the ``size`` digits of ``n`` with the point
    after the first ``e10 + 1`` of them (``x[i]`` lies in
    ``[10**e10, 10**(e10 + 1))``).

    Only a finite ``x`` in ``[1, 10**15)`` whose mantissa is not ``2**52``
    is tried, so that its rounding interval is ``x`` plus or minus half an
    ulp.  ``repr`` gives the shortest digit string that reads back as ``x``,
    and the one nearest ``x`` among those.  The nearest ``P``-digit decimal
    is ``n / 10**s``, ``s = P - 1 - e10``, with ``n`` the integer nearest
    ``x * 10**s``.  It reads back iff ``d = |x * 10**s - n|`` is below
    ``h = 10**s`` half-ulps (at ``d == h`` the read breaks a tie to even).
    If ``P`` digits read back, so do ``P + 1``, and 17 always do, so the
    probes run down from 16 until one fails.  The length probe, at the last
    ``P`` that reads back (17 if none does), is then computed again for
    every value to give ``n``.

    Each probe is exact up to one rounding: ``10**s`` (``s <= 16``) and ``h``
    are exact doubles, Dekker's two-product gives ``x * 10**s = hi + lo``
    exactly, and ``hi - rint(hi)`` is exact, as is taking the nearest
    integer off the sum.  Adding ``lo`` rounds once, by at most ``2**-54``,
    since the sum is below 1 unless ``hi >= 2**52``, where it is ``lo``
    itself.  So the computed ``d`` is
    within ``2**-54`` of the distance to ``n``, and each test of
    ``d + _DELTA`` or ``d - _DELTA`` rounds by at most ``2**-54`` more:
    far inside ``_DELTA = 2**-40``.  A probe reads back if
    ``d + _DELTA < h``, fails if ``d - _DELTA > h``, and is undecided
    otherwise.  A failing probe whose ``n`` is the wrong one of two nearly
    equidistant integers is still sound: both are farther than ``h``.

    ``ok`` is false, and the caller must use ``repr``, for a value outside
    the class above; one with an undecided probe; one whose probe at
    ``s = 0`` reads back (it might be shorter, with trailing zeros); one
    whose length probe has ``d + _DELTA >= min(h, 1/2)`` (it is not
    certified, or ``n`` may be the wrong one of two nearly equidistant
    integers); and one with ``n == 10**P``.
    """
    ok = (x >= 1.0) & (x < 1e15)  # false for nan
    ok &= np.frexp(x)[0] != 0.5
    v = x[ok]
    e10 = np.log10(v).astype(np.int64)  # the floor, or one off beside a power of ten
    e10 -= v < _POW10[e10]
    e10 += v >= _POW10[e10 + 1]
    vh, vl = _halves(v)
    half = np.spacing(v) / 2  # a power of two
    size = np.full(v.size, 17)
    sure = np.ones(v.size, dtype=bool)
    live = np.arange(v.size)  # the values whose length is not yet known
    for digits in range(16, 0, -1):
        s = digits - 1 - e10[live]
        _, d, h = _probe(v[live], vh[live], vl[live], half[live], s)
        back = d + _DELTA < h
        fail = d - _DELTA > h
        sure[live[~(back | fail) | (back & (s == 0))]] = False
        size[live[fail]] = digits + 1
        live = live[back & (s > 0)]
        if not live.size:
            break
    (near, step), d, h = _probe(v, vh, vl, half, size - 1 - e10)
    n = near.astype(np.int64)
    n += step.astype(np.int64)
    sure &= (d + _DELTA < np.minimum(h, 0.5)) & (n != 10**size)
    ok[ok] = sure
    return ok, n[sure], size[sure], e10[sure]


def _repr_rows(head: str, first: int, x: np.ndarray) -> np.ndarray:
    r"""The ASCII bytes of ``f"{head}{first + i},{x[i]!r}\r\n"`` for every
    ``i``, as a uint8 array; ``x`` is not empty, ``head`` at least 15 bytes.

    The values that ``_shortest_digits`` certifies are written by
    ``process._put_digits``, whose spare zeros land at most 15 bytes back,
    on the row's comma, index or head.  Every other value is ``repr``'d one
    at a time.  The indices (spares in the head) and the fixed bytes go in
    last.
    """
    ok, n, size, e10 = _shortest_digits(x)
    slow = np.flatnonzero(~ok)
    texts = [repr(v) for v in x[slow].tolist()]
    width = np.empty(x.size, np.int64)  # the value's bytes, point included
    width[ok] = size + 1
    width[slow] = [len(t) for t in texts]
    index = np.arange(first, first + x.size, dtype=np.int64)
    digits = np.ones(x.size, np.int64)
    for k in range(1, len(str(first + x.size - 1))):
        digits += index >= 10**k
    end = np.cumsum(width + digits + (len(head) + 3))
    end -= 2  # each value's end: its row's "\r"
    buf = np.empty(int(end[-1]) + 2, dtype=np.uint8)
    at = end[ok]
    s = size - 1 - e10
    process._put_digits(buf, n, at, s)
    buf[at - s - 1] = ord(".")
    if texts:
        text = np.frombuffer("".join(texts).encode(), dtype=np.uint8)
        lens = width[slow]
        buf[np.repeat(end[slow] - np.cumsum(lens), lens) + np.arange(text.size)] = text
    comma = end - width - 1
    process._put_digits(buf, index, comma)
    buf[comma] = ord(",")
    buf[end] = ord("\r")
    buf[end + 1] = ord("\n")
    comma -= digits + len(head)  # each row's start
    for byte in head.encode():
        buf[comma] = byte
        comma += 1
    return buf


def _cmd_clique(opts: dict) -> tuple[int, dict]:
    t_ref, clique = opts["steps"], {k: opts[k] for k in _CLIQUE}
    params = process.ProcessParams(opts["p"], 2 * t_ref, opts["seed"])
    community._check_clique((params.p,), (t_ref,), **clique)
    graph = process.run(params).graph
    row = community.clique_growth_rows(graph, [t_ref], **clique)[0]
    return 0, {**dataclasses.asdict(row), "m": opts["m"],
               "triangles": community.count_triangles(graph)}


def _cmd_ensemble(opts: dict) -> tuple[int, dict]:
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
    return 0 if all_passed else 1, {"written": written, "passed": all_passed}


# ----------------------------------------------------------------------
# parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``glp`` parser; a known ``command`` declares that subcommand only,
    with the same usage, help and error text."""
    top = argparse.ArgumentParser(
        prog="glp",
        description="Simulate a degree-proportional growth process and check its statistics.",
    )
    one = command in _COMMANDS
    # the usage line names all five either way; a metavar on the full parser
    # would rename ``command`` in its missing or invalid choice errors
    sub = top.add_subparsers(dest="command", required=True,
                             metavar="{" + ",".join(_COMMANDS) + "}" if one else None)
    for name, (help_text, options) in _COMMANDS.items():
        if one and name != command:
            continue
        parser = sub.add_parser(name, help=help_text)
        for option in options:
            choices = sorted(ensemble.EXPERIMENTS) if option == "experiment" else None
            parser.add_argument(_flag(option), dest=option, type=_TYPES[option],
                                choices=choices, help=_HELP.get((name, option)))
        parser.add_argument("--config", type=str)
    return top


_HANDLERS = {"generate": _cmd_generate, "stats": _cmd_stats, "hitting": _cmd_hitting,
             "clique": _cmd_clique, "ensemble": _cmd_ensemble}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = read_config_file(args.config) if args.config else {}
        opts = _resolve(args, cfg)
        code, fields = _HANDLERS[args.command](opts)
        out = None if args.command == "generate" else opts.get("out") or None
        ensemble._write_json({"command": args.command, "config": opts, **fields}, out)
        return code
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
