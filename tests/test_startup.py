"""Start-up cost: ``import glpsim``, ``glp generate`` and ``count_triangles``
load neither scipy nor the process pool; the calls that need them load them on
first use.

pytest has already imported scipy in this process, so each check runs in a
fresh interpreter.
"""

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
