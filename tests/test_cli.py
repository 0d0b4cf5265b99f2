import csv
import importlib
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import glpsim as g
from glpsim import cli, process
from glpsim.errors import ConfigError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------------
# exit codes


def test_generate_ok(tmp_path, capsys):
    out_file = tmp_path / "g.edges"
    code, out, err = run_cli(
        capsys, "generate", "--p", "0.5", "--steps", "200", "--seed", "42",
        "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "generate"
    assert doc["config"]["p"] == 0.5
    assert doc["t"] == 200
    assert out_file.exists()
    back = g.read_edges(out_file)
    assert back.t == 200 and back.seed == 42


def test_generate_bad_p(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "generate", "--p", "1.5", "--steps", "10",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "error:" in err


def test_missing_required_flag(capsys):
    code, _, err = run_cli(capsys, "generate", "--p", "0.5", "--steps", "10")
    assert code == 2
    assert "--out" in err


def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_stats_missing_input_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "stats", "--in", str(tmp_path / "nope.edges"))
    assert code == 2


@pytest.mark.parametrize(
    "body", [f"1 {2**31}\n".encode(), b"1 \xff\n"], ids=["id-overflow", "not-utf8"]
)
def test_stats_unparsable_edge_list(tmp_path, capsys, body):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"# glp v1 p=0.5 steps=1 seed=0\n1 1\n" + body)
    code, _, err = run_cli(capsys, "stats", "--in", str(path))
    assert code == 2
    assert "error:" in err


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(params):
        raise MemoryError

    monkeypatch.setattr(process, "run", exhausted)
    code, _, err = run_cli(
        capsys, "generate", "--p", "0.5", "--steps", "10", "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert err.startswith("error: out of memory")


# Flags after these override them.
_REQUIRED = {
    "hitting": ["--p", "0.5", "--j", "260", "--m", "4", "--k", "6"],
    "ensemble": ["--experiment", "maxdeg", "--p-grid", "0.5", "--steps", "100",
                 "--replicas", "2"],
    "clique": ["--p", "0.5", "--steps", "1000"],
}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["hitting", "--grid", "inf"], ""),
        (["hitting"], "grid = 64,inf\n"),
        (["hitting", "--grid", "64,1.5"], ""),
        (["hitting", "--grid", "64", "--replicas", "-1"], ""),
        (["hitting", "--grid", "64", "--dom-samples", "-1"], ""),
        (["ensemble", "--snapshots", "inf"], ""),
        (["ensemble"], "snapshots = 10,nan\n"),
        (["ensemble", "--base-seed", "-5"], ""),
        (["ensemble", "--snapshots", "500"], ""),
        (["ensemble", "--snapshots", "-5"], ""),
        (["ensemble", "--snapshots", "50,10"], ""),
        (["ensemble", "--experiment", "arrival", "--vertex", "0"], ""),
        (["ensemble", "--experiment", "arrival", "--vertex", "500"], ""),
        (["ensemble", "--experiment", "cliquegrowth", "--steps", "1000",
          "--t-values", "100"], ""),
        (["ensemble", "--experiment", "cliquegrowth", "--steps", "10001"], ""),
        (["clique", "--eps", "nan"], ""),
        (["clique", "--eps-prime", "nan"], ""),
        (["clique", "--eps-prime", "inf"], ""),
        (["hitting", "--p", "1", "--grid", "64"], ""),
        (["ensemble", "--experiment", "cliquegrowth", "--steps", "1000", "--eps", "nan"], ""),
        (["ensemble", "--experiment", "cliquegrowth", "--steps", "1000",
          "--eps-prime", "inf"], ""),
        (["ensemble", "--experiment", "cliquegrowth", "--steps", "1000", "--topk", "0"], ""),
        (["ensemble", "--experiment", "cliquegrowth", "--steps", "1000"], "m = 0\n"),
        (["ensemble", "--experiment", "cliquegrowth", "--steps", "1000",
          "--p-grid", "0.5,1"], ""),
        (["ensemble", "--experiment", "cliquegrowth", "--steps", "1000"],
         "t-values = -5,500\n"),
        (["ensemble", "--steps", "3000000000"], ""),
    ],
    ids=["grid-inf", "grid-inf-config", "grid-fraction", "replicas-negative",
         "dom-samples-negative", "snapshots-inf", "snapshots-nan-config",
         "base-seed-negative", "snapshots-beyond-steps", "snapshots-negative",
         "snapshots-decreasing", "vertex-zero", "vertex-beyond-steps",
         "t-values-mismatch", "t-values-default-odd", "eps-nan", "eps-prime-nan",
         "eps-prime-inf", "gamma-default-p1", "cliquegrowth-eps-nan",
         "cliquegrowth-eps-prime-inf", "cliquegrowth-topk-zero", "cliquegrowth-m-zero-config",
         "cliquegrowth-no-leader-window", "cliquegrowth-t-negative", "steps-beyond-capacity"],
)
def test_bad_numbers_exit_2(tmp_path, capsys, argv, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    extra = ["--out-dir", str(tmp_path / "ens")] if argv[0] == "ensemble" else []
    code, _, err = run_cli(
        capsys, argv[0], *_REQUIRED[argv[0]], *argv[1:], *extra, "--config", str(cfg)
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, config, flag",
    [
        (["ensemble", "--vertex", "7"], "", "--vertex"),
        (["ensemble", "--m", "3"], "", "--m"),
        (["ensemble", "--t-values", "5"], "", "--t-values"),
        (["ensemble", "--experiment", "arrival", "--snapshots", "10"], "", "--snapshots"),
        (["ensemble", "--experiment", "cliquegrowth", "--steps", "1000", "--vertex", "3"], "",
         "--vertex"),
        (["stats", "--p", "0.9"], "", "--p"),
        (["ensemble"], "vertex = 9\n", "--vertex"),
    ],
    ids=["maxdeg-vertex", "maxdeg-m", "maxdeg-t-values", "arrival-snapshots",
         "cliquegrowth-vertex", "stats-in-p", "maxdeg-vertex-config"],
)
def test_unused_options_exit_2(tmp_path, capsys, argv, config, flag):
    """An option the run would not read is rejected before any work or output."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out_path = tmp_path / "out"
    if argv[0] == "stats":
        edges = tmp_path / "run.edges"
        graph = process.run(process.ProcessParams(p=0.5, steps=50, seed=1)).graph
        process.export_edges(graph, edges)
        extra = ["--in", str(edges), "--out", str(out_path)]
    else:
        extra = [*_REQUIRED["ensemble"], "--out-dir", str(out_path)]
    code, out, err = run_cli(capsys, argv[0], *extra, *argv[1:], "--config", str(cfg))
    assert code == 2
    assert f"does not read {flag}" in err
    assert out == "" and not out_path.exists()


def test_readme_commands_resolve():
    """Every ``glp`` command in the README's "Command line" section parses
    and resolves; none is run."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("glp ")]
    assert len(commands) >= 6
    for argv in commands:
        cli._resolve(cli.build_parser().parse_args(argv), {})


# ----------------------------------------------------------------------
# config files


def test_config_file_fills_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 0.5\nsteps = 300   # inline comment\nseed = 9\n\n# full comment\n")
    out_file = tmp_path / "g.edges"
    code, out, _ = run_cli(
        capsys, "generate", "--config", str(cfg), "--steps", "100",
        "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["steps"] == 100  # flag beats file
    assert doc["config"]["seed"] == 9     # file beats default
    assert doc["config"]["p"] == 0.5


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run_cli(
        capsys, "generate", "--config", str(cfg), "--p", "0.5",
        "--steps", "10", "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "bogus" in err


def test_config_dashed_keys(tmp_path, capsys):
    cfg = tmp_path / "h.cfg"
    cfg.write_text("dom-samples = 500\nreplicas = 40\n")
    code, out, _ = run_cli(
        capsys, "hitting", "--config", str(cfg), "--p", "0.5", "--j", "260",
        "--m", "4", "--k", "6", "--grid", "64,256,1024",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["dom_samples"] == 500
    assert doc["config"]["replicas"] == 40


def test_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals\n")
    code, _, err = run_cli(
        capsys, "generate", "--config", str(cfg), "--p", "0.5",
        "--steps", "10", "--out", str(tmp_path / "x"),
    )
    assert code == 2

    cfg.write_bytes(b"steps = 10\np = 0.5\xff\n")  # not UTF-8 on line 2
    code, _, err = run_cli(
        capsys, "generate", "--config", str(cfg), "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert f"{cfg}:2: not UTF-8 text" in err


_CONFIG_LINES = st.one_of(
    st.sampled_from([b"p = 0.5", b"steps=10", b"# note", b"", b"=", b"key", b"a = b = c",
                     b"x = 1 # c", b"\xff", b"\xef\xbb\xbfp = 1", b"\r", b"\x00=\x00"]),
    st.binary(max_size=20),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_CONFIG_LINES, max_size=6), end=st.sampled_from([b"", b"\n"]))
def test_read_config_file_fuzz(tmp_path, lines, end):
    """Any bytes give a flat str -> str mapping or a ``ConfigError``."""
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_bytes(b"\n".join(lines) + end)
    try:
        got = cli.read_config_file(str(cfg))
    except ConfigError:
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in got.items())


# ----------------------------------------------------------------------
# reproducibility


def test_generate_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    code1, out1, _ = run_cli(
        capsys, "generate", "--p", "0.75", "--steps", "500", "--seed", "3",
        "--out", str(a),
    )
    code2, out2, _ = run_cli(
        capsys, "generate", "--p", "0.75", "--steps", "500", "--seed", "3",
        "--out", str(b),
    )
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    # stdout differs only in the echoed --out path; normalize it away
    assert out1.replace(str(a), "OUT") == out2.replace(str(b), "OUT")


def test_stats_byte_identical(tmp_path, capsys):
    args = ["stats", "--p", "0.5", "--steps", "400", "--seed", "5", "--xmin", "3"]
    outs = []
    for path in (tmp_path / "s1.json", tmp_path / "s2.json"):
        code, _, _ = run_cli(capsys, *args, "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    a = outs[0].replace(str(tmp_path / "s1.json").encode(), b"OUT")
    b = outs[1].replace(str(tmp_path / "s2.json").encode(), b"OUT")
    assert a == b


def test_ensemble_outputs_byte_identical(tmp_path, capsys):
    dirs = [tmp_path / "e1", tmp_path / "e2"]
    for d in dirs:
        code, _, _ = run_cli(
            capsys, "ensemble", "--experiment", "maxdeg", "--p-grid", "0.5",
            "--steps", "200", "--replicas", "3", "--out-dir", str(d),
            "--snapshots", "100,200",
        )
        assert code == 0
    for name in ("maxdeg_0.5_200.json", "maxdeg_0.5_200.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# ----------------------------------------------------------------------
# stats behaviors


def test_stats_bound_gate(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--p", "0.5", "--steps", "1000", "--seed", "1",
        "--c1", "0.001",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["bound"]["violation_count"] > 0
    code0, out0, _ = run_cli(
        capsys, "stats", "--p", "0.5", "--steps", "1000", "--seed", "1",
        "--c1", "100",
    )
    assert code0 == 0
    assert json.loads(out0)["bound"]["violation_count"] == 0


def test_stats_csv(tmp_path, capsys):
    csv_path = tmp_path / "fit.csv"
    code, _, _ = run_cli(
        capsys, "stats", "--p", "0.5", "--steps", "20000", "--seed", "2",
        "--xmin", "5", "--csv", str(csv_path),
    )
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "seed", "t", "statistic", "estimate", "stderr"]
    stats = {r[3] for r in rows[1:]}
    assert "max_degree" in stats and "powerlaw_exponent" in stats


def test_stats_reads_exported_file(tmp_path, capsys):
    out_file = tmp_path / "g.edges"
    run_cli(capsys, "generate", "--p", "0.5", "--steps", "300", "--seed", "8",
            "--out", str(out_file))
    code, out, _ = run_cli(capsys, "stats", "--in", str(out_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == 300
    assert doc["p"] == 0.5
    assert doc["total_degree"] == 2 * 301


# ----------------------------------------------------------------------
# hitting subcommand


def test_hitting_json_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "hits.csv"
    code, out, _ = run_cli(
        capsys, "hitting", "--p", "0.5", "--j", "260", "--m", "4", "--k", "8",
        "--grid", "256,1024,4096", "--replicas", "50", "--dom-samples", "500",
        "--csv", str(csv_path),
    )
    doc = json.loads(out)
    assert code == (0 if doc["passed"] else 1)
    assert len(doc["rows"]) == 3
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source", "p", "m", "j", "k", "replica", "hit_time"]
    sources = {r[0] for r in rows[1:]}
    assert sources == {"empirical", "dominating"}
    assert len(rows) - 1 == 50 + 500
    # the CSV carries the very samples of the experiment, seeded as documented
    emp = g.empirical_hit_times(0.5, 4096, g.BlockSpec(260, 4, (8,)), 8, 50, 0)
    law = g.DominatingLawParams(p=0.5, m=4, j=260, k=8, gamma=doc["gamma"])
    dom = g.sample_dominating(law, g.make_rng(0 + 50), size=500)
    assert [r[6] for r in rows[1:51]] == [
        "censored" if math.isinf(v) else str(int(v)) for v in emp
    ]
    assert [float(r[6]) for r in rows[51:]] == dom.tolist()


def test_hitting_precondition_exit(capsys):
    code, _, err = run_cli(
        capsys, "hitting", "--p", "0.5", "--j", "10", "--m", "4", "--k", "8",
        "--grid", "256,1024", "--replicas", "10", "--dom-samples", "10",
    )
    assert code == 2
    assert "error:" in err


# ----------------------------------------------------------------------
# clique subcommand


def test_clique_matches_community_module(capsys):
    code, out, _ = run_cli(
        capsys, "clique", "--p", "0.5", "--steps", "1000", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    row = g.clique_growth_experiment(
        0.5, (1000,), seeds=1, base_seed=7, m=10, eps=0.1, eps_prime=0.05, topk=64
    )[0]
    assert doc["pair_fraction"] == row.pair_fraction
    assert doc["clique_size"] == row.clique_size
    assert doc["topk_clique_size"] == row.topk_clique_size
    assert doc["j_lo"] == row.j_lo and doc["j_hi"] == row.j_hi
    assert doc["leader_count"] == row.leader_count
    assert doc["t"] == 1000
    graph = g.run(g.ProcessParams(p=0.5, steps=2000, seed=7)).graph
    assert doc["triangles"] == g.count_triangles(graph)


# ----------------------------------------------------------------------
# ensemble subcommand


def test_ensemble_writes_per_p_files(tmp_path, capsys):
    out_dir = tmp_path / "ens"
    code, out, _ = run_cli(
        capsys, "ensemble", "--experiment", "maxdeg", "--p-grid", "0.25,0.5",
        "--steps", "150", "--replicas", "2", "--out-dir", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    for p in ("0.25", "0.5"):
        jpath = out_dir / f"maxdeg_{p}_150.json"
        assert jpath.exists()
        assert (out_dir / f"maxdeg_{p}_150.csv").exists()
        rep = g.read_report(jpath)
        assert rep.config["p_grid"] == [float(p)]


def test_ensemble_gate_failure_exit(tmp_path, capsys):
    # p=0 replicas all fail on an unreachable vertex -> batch error -> exit 1
    code, _, err = run_cli(
        capsys, "ensemble", "--experiment", "arrival", "--p-grid", "0.0",
        "--steps", "30", "--replicas", "2", "--vertex", "5",
        "--out-dir", str(tmp_path / "fail"),
    )
    assert code == 1


def test_ensemble_threads_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GLP_THREADS", "2")
    code, out, _ = run_cli(
        capsys, "ensemble", "--experiment", "maxdeg", "--p-grid", "0.5",
        "--steps", "100", "--replicas", "2", "--out-dir", str(tmp_path / "env"),
    )
    assert code == 0
    assert json.loads(out)["config"]["threads"] == 2

    monkeypatch.setenv("GLP_THREADS", "abc")
    code, _, err = run_cli(
        capsys, "ensemble", "--experiment", "maxdeg", "--p-grid", "0.5",
        "--steps", "100", "--replicas", "2", "--out-dir", str(tmp_path / "env"),
    )
    assert code == 2
    assert "GLP_THREADS" in err


# ----------------------------------------------------------------------
# console entry point


def test_console_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "glpsim.cli", "generate", "--p", "0.5",
         "--steps", "50", "--seed", "0", "--out", str(tmp_path / "g.edges")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["t"] == 50


# ----------------------------------------------------------------------
# benchmark tracing contract


def test_traced_functions_exist(monkeypatch, tmp_path):
    """`perfbench/spans.py` wraps these by name; a rename breaks `--trace 1`.
    The benchmark's own fixture checks must also hold."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    spans = importlib.import_module("perfbench.spans")
    for module, name in [*spans.WRAPPED, ("cli", "main")]:
        assert callable(getattr(importlib.import_module(f"glpsim.{module}"), name, None)), (
            f"glpsim.{module}.{name}"
        )
    workloads = importlib.import_module("perfbench.workloads")
    assert workloads.fixture_problems(1, str(tmp_path)) == []
