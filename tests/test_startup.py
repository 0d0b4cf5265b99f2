"""Start-up cost: ``import glpsim`` loads none of its submodules, ``glp
generate`` and ``count_triangles`` load neither scipy nor the process pool,
``glp hitting --csv`` neither scipy, ``decimal`` nor ``fractions``; the
calls that need them load them on first use.

pytest has already imported scipy in this process, so each check runs in a
fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import glpsim as g
from glpsim import analytics, cli

SRC = str(Path(g.__file__).resolve().parents[1])

# Prints the modules that a lazy import would have loaded too early.
_LOADED = (
    "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
    " or m == 'concurrent.futures.process'))"
)

# Prints the glpsim modules loaded so far.
_OWN = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'glpsim'))"


def _fresh(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def _in_process(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _fresh_cli(argv):
    return _fresh(f"import sys; from glpsim import cli; sys.exit(cli.main({argv!r}))")


PUBLIC = [
    "BatchError", "BlockSpec", "CapacityError", "CliqueReport", "ConfigError",
    "DegreeHistogram", "DerivedConstants", "DominatingLawParams", "DominationReport",
    "DominationRow", "EnsembleConfig", "EnsembleReport", "ExponentFit", "FitError",
    "GlpError", "GlpGraph", "GrowthRow", "LeaderSet", "MartingaleReport", "MartingaleRow",
    "MetricRow", "ParameterError", "ParseError", "PreconditionError", "ProcessParams",
    "RunResult", "Snapshot", "StatisticsError", "UnknownVertexError", "analytics", "c_p",
    "clique_growth_rows", "community", "count_triangles", "crossing_times",
    "default_gamma", "degree_histogram", "derived_constants", "domination_experiment",
    "domination_test", "empirical_hit_times", "ensemble", "errors", "export_edges",
    "fit_exponent", "fit_power_law", "hitting", "is_clique", "leader_block_range",
    "leaders", "make_rng", "martingale_check", "max_clique_topk", "phi", "phi_tilde",
    "process", "read_edges", "read_report", "replicas", "run", "run_ensemble",
    "sample_arrival", "sample_dominating", "sample_endpoint", "simple_edges",
    "survival_curve", "upper_bound_check", "write_report", "write_rows_csv",
]


def test_package_loads_submodules_on_first_use():
    proc = _fresh(f"import glpsim; {_OWN}; from glpsim import process; {_OWN}; "
                  f"glpsim.run; {_OWN}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['glpsim']",
        "['glpsim', 'glpsim.errors', 'glpsim.process']",
        "['glpsim', 'glpsim.errors', 'glpsim.process']",
    ]


def test_public_names_are_their_modules_names():
    assert sorted(g.__all__) == PUBLIC
    assert g.run is g.process.run
    for name in PUBLIC:
        obj = getattr(g, name)
        if name in g._EXPORTS:
            assert obj is importlib.import_module(f"glpsim.{name}")
        else:
            assert obj is getattr(importlib.import_module(obj.__module__), name)
    assert set(PUBLIC) <= set(dir(g))


# The names that only a module exports: its star import takes them, the
# package namespace does not.
MODULE_ONLY = {"process": {"MAX_STEPS", "step_kinds"}, "ensemble": {"SCHEMA", "EXPERIMENTS"}}


def test_exports_are_in_their_modules_all():
    # the names ``from glpsim.<module> import *`` takes: __all__, where a module has one
    for module, names in g._EXPORTS.items():
        mod = importlib.import_module(f"glpsim.{module}")
        star = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
        missing = set(names) - set(star)
        assert not missing, f"{module}.__all__ lacks {sorted(missing)}"
        assert set(star) - set(names) == MODULE_ONLY.get(module, set())
        # every name of __all__, the module-only ones included, resolves
        namespace = {}
        exec(f"from glpsim.{module} import *", namespace)
        del namespace["__builtins__"]
        assert namespace.keys() == set(star)
        assert all(namespace[n] is getattr(mod, n) for n in star)


def test_import_and_generate_load_no_scipy_or_pool(tmp_path):
    argv = ["generate", "--p", "0.5", "--steps", "2000", "--seed", "1",
            "--out", str(tmp_path / "g.edges")]
    proc = _fresh(
        f"import glpsim; {_LOADED}; from glpsim import cli; "
        f"assert cli.main({argv!r}) == 0; {_LOADED}"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert json.loads("\n".join(lines[1:-1]))["t"] == 2000
    assert lines[-1] == "[]"


def test_hitting_csv_loads_no_scipy_decimal_or_fractions(tmp_path, capsys):
    """The CSV's float column is formatted in numpy, without the exact
    arithmetic of ``decimal`` or ``fractions``, and the same bytes come out
    of a fresh interpreter as out of this one."""
    path = tmp_path / "hits.csv"
    argv = ["hitting", "--p", "0.5", "--j", "260", "--m", "4", "--k", "8", "--grid", "256,2048",
            "--replicas", "20", "--dom-samples", "3000", "--seed", "5", "--csv", str(path)]
    code, out = _in_process(capsys, argv)
    rows = path.read_bytes()
    path.unlink()
    proc = _fresh(
        f"import sys; from glpsim import cli; code = cli.main({argv!r}); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('scipy', 'decimal', '_decimal', '_pydecimal', 'fractions'))); sys.exit(code)"
    )
    assert code == proc.returncode and code in (0, 1), proc.stderr
    *doc, loaded = proc.stdout.splitlines()
    assert loaded == "[]"
    assert "\n".join(doc) + "\n" == out
    assert path.read_bytes() == rows and rows.count(b"\n") == 1 + 20 + 3000


def test_count_triangles_loads_no_scipy():
    proc = _fresh(
        "import glpsim as g; gr = g.run(g.ProcessParams(p=0.5, steps=5000, seed=2)).graph; "
        f"print(g.count_triangles(gr)); {_LOADED}"
    )
    assert proc.returncode == 0, proc.stderr
    count, loaded = proc.stdout.splitlines()
    assert int(count) > 0
    assert loaded == "[]"


def test_stats_in_fresh_interpreter_matches_in_process(tmp_path, capsys):
    path = tmp_path / "g.edges"
    assert cli.main(["generate", "--p", "0.5", "--steps", "20000", "--seed", "3",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    argv = ["stats", "--in", str(path)]
    code, out = _in_process(capsys, argv)
    assert "exponent" in json.loads(out)["power_law"]
    proc = _fresh_cli(argv)
    assert code == proc.returncode == 0, proc.stderr
    assert proc.stdout == out


def test_clique_in_fresh_interpreter_matches_in_process(capsys):
    argv = ["clique", "--p", "0.5", "--steps", "5000", "--seed", "2"]
    code, out = _in_process(capsys, argv)
    assert json.loads(out)["triangles"] > 0
    proc = _fresh_cli(argv)
    assert code == proc.returncode == 0, proc.stderr
    assert proc.stdout == out


def test_phi_log_gamma_branch_in_fresh_interpreter():
    proc = _fresh("from glpsim import analytics; print(repr(analytics.phi(2000, 0.5)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(analytics.phi(2000, 0.5)) + "\n"
