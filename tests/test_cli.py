import csv
import importlib
import io
import json
import math
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import glpsim as g
from bad_values import BAD_TEXT
from glpsim import cli, ensemble, hitting, process
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
    "stats": ["--p", "0.5", "--steps", "2000"],
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ensemble_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, threads):
    # running out of memory is not one replica's failure, at any width
    def exhausted(p, steps, seed):
        raise MemoryError

    monkeypatch.setattr(process, "_generate", exhausted)
    out_dir = tmp_path / "ens"
    code, out, err = run_cli(capsys, "ensemble", *_REQUIRED["ensemble"],
                             "--out-dir", str(out_dir), "--threads", threads)
    assert code == 2
    assert out == "" and list(out_dir.iterdir()) == []
    assert err.startswith("error: out of memory")


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
        (["ensemble", "--p-grid", ","], ""),
        (["ensemble", "--p-grid", "0.5,0.5"], ""),
        (["stats", "--c1", "nan"], ""),
        (["stats", "--c1", "inf"], ""),
        (["hitting"], "grid = 64,abc\n"),
        (["ensemble", "--p-grid", "0.5,abc"], ""),
    ],
    ids=["grid-inf", "grid-inf-config", "grid-fraction", "replicas-negative",
         "dom-samples-negative", "snapshots-inf", "snapshots-nan-config",
         "base-seed-negative", "snapshots-beyond-steps", "snapshots-negative",
         "snapshots-decreasing", "vertex-zero", "vertex-beyond-steps",
         "t-values-mismatch", "t-values-default-odd", "eps-nan", "eps-prime-nan",
         "eps-prime-inf", "gamma-default-p1", "cliquegrowth-eps-nan",
         "cliquegrowth-eps-prime-inf", "cliquegrowth-topk-zero", "cliquegrowth-m-zero-config",
         "cliquegrowth-no-leader-window", "cliquegrowth-t-negative", "steps-beyond-capacity",
         "p-grid-empty", "p-grid-repeated", "c1-nan", "c1-inf", "grid-word-config",
         "p-grid-word"],
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
    assert not (tmp_path / "ens").exists()


@pytest.mark.parametrize("parse, text, message", [
    (cli._int_list, "64,abc", "expected a comma-separated integer list, got '64,abc'"),
    (cli._float_list, "0.5,abc", "expected a comma-separated float list, got '0.5,abc'"),
])
def test_list_options_reject_words(parse, text, message):
    with pytest.raises(ConfigError) as info:
        parse(text)
    assert str(info.value) == message


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


# Every option draws its bad values from ``BAD_TEXT``, whatever its type.
# Valid values by type, then by name where a value sets a size or names a
# file: an example stays at a few MB and starts at most 3 workers.
_GOOD = {float: ["0.5", "0.25", "0.05"], int: ["1", "2", "3", "8", "20"],
         cli._int_list: ["8", "4,8"], cli._float_list: ["0.5", "0.25,0.75"], str: ["out"]}
_GOOD_BY_NAME = {"steps": ["8", "64", "200"], "replicas": ["1", "2", "3"],
                 "dom_samples": ["1", "10", "100"], "threads": ["1"], "grid": ["8,16", "64"],
                 "t_values": ["4", "32"], "experiment": sorted(ensemble.EXPERIMENTS),
                 "j": ["2", "20", "100"], "m": ["1", "2"], "k": ["2", "3", "8"],
                 "infile": ["in.edges"], "csv": ["out.csv"], "out_dir": ["reports"]}


def _small_sweep(config, run_ensemble=ensemble.run_ensemble):
    """``run_ensemble``, for the sweeps of at most 3 replicas that the fuzz
    gives valid values for; a larger one should have been refused."""
    assert config.replicas <= 3, f"a sweep of {config.replicas} replicas started"
    return run_ensemble(config)


@st.composite
def _glp_calls(draw):
    """A subcommand with valid values for its required options and for half
    of the others, then up to two options made bad or left out, each given
    as a flag or as a config-file key."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[command][1]
    given = {name: draw(st.sampled_from(_GOOD_BY_NAME.get(name, _GOOD[cli._TYPES[name]])))
             for name, default in options.items()
             if default is cli._REQUIRED or draw(st.booleans())}
    for name in draw(st.lists(st.sampled_from(list(options)), max_size=2)):
        given[name] = draw(st.sampled_from([*BAD_TEXT, None]))
    given = {name: value for name, value in given.items() if value is not None}
    # the options that the setting does not read are rejected; mostly leave them out
    setting = "infile" in given if command == "stats" else given.get("experiment")
    if draw(st.integers(0, 7)):
        for name in cli._UNREAD.get((command, setting), ()):
            given.pop(name, None)
    argv, cfg = [command], []
    for name, value in given.items():
        if draw(st.booleans()):
            argv.append(f"{cli._flag(name)}={value}")
        else:
            cfg.append(f"{name} = {value}")
    return argv, cfg


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(call=_glp_calls())
# numpy's ValueError from np.arange(m, k) in DominatingLawParams.rates
@example(call=(["hitting", "--p=0.5", "--j=2", "--m=1", f"--k={2**64}", "--grid=8"], []))
# seeds 0 .. 2**64 - 1 are all 64-bit naturals: the task list filled memory
@example(call=(["ensemble", "--experiment=maxdeg", "--p-grid=0.5", "--steps=8",
                "--out-dir=reports"], [f"replicas = {2**64}"]))
# numpy's overflow warning from i**gamma in DominatingLawParams.delta
@example(call=(["hitting", "--p=0.5", "--j=2", "--m=1", "--k=3", "--grid=8", "--replicas=2",
                "--dom-samples=2", f"--gamma={2**64}"], []))
def test_exit_code_contract_fuzz(tmp_path, capsys, monkeypatch, call):
    """No exception escapes ``main`` and no warning is printed; exit 1 is a
    statistical verdict, which only ``stats --c1``, ``hitting`` and
    ``ensemble`` give, and exit 2 says what went wrong."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GLP_THREADS", raising=False)
    monkeypatch.setattr(ensemble, "run_ensemble", _small_sweep)
    if not Path("in.edges").exists():
        process.export_edges(process.run(process.ProcessParams(0.5, 50, 1)).graph, "in.edges")
    argv, cfg = call
    if cfg:
        Path("fuzz.cfg").write_text("\n".join(cfg) + "\n")
        argv = [*argv, "--config", "fuzz.cfg"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 1:
        c1 = any(a.startswith("--c1=") for a in argv) or any(c.startswith("c1 ") for c in cfg)
        assert argv[0] in ("hitting", "ensemble") or (argv[0] == "stats" and c1), err
    if code == 2:
        assert "error" in err


def test_readme_commands_resolve():
    """Every ``glp`` command in the README's "Command line" section parses
    and resolves, through its own subcommand's parser as ``main`` builds it
    and through the full one, to the same namespace; none is run."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("glp ")]
    assert len(commands) >= 6
    for argv in commands:
        args = cli.build_parser(argv[0]).parse_args(argv)
        assert args == cli.build_parser().parse_args(argv)
        cli._resolve(args, {})


# ----------------------------------------------------------------------
# one subcommand's parser


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_command_parser_matches_full_parser(command, capsys):
    """``main`` declares only the named subcommand; its top-level usage line,
    its subcommand help and its parse of valid options are the full parser's."""
    one, full = cli.build_parser(command), cli.build_parser()
    assert one.format_usage() == full.format_usage()
    helps = []
    for parser in (one, full):
        with pytest.raises(SystemExit) as info:
            parser.parse_args([command, "--help"])
        helps.append((info.value.code, capsys.readouterr()))
    assert helps[0] == helps[1]
    argv = [command, *_REQUIRED.get(command, ["--p", "0.5", "--steps", "10", "--out", "x"])]
    assert one.parse_args(argv) == full.parse_args(argv)


@pytest.mark.parametrize("argv", [[], ["--help"], ["frobnicate"], ["hitting", "--bogus"],
                                  ["hitting", "--p", "abc"]],
                         ids=["none", "help", "unknown", "bogus-flag", "bad-float"])
def test_main_usage_errors_match_full_parser(argv, capsys, monkeypatch):
    """Usage, help and error text and exit codes are the same as when every
    subcommand is declared."""
    got = run_cli(capsys, *argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert got == run_cli(capsys, *argv)


def test_readme_library_quick_start(capsys):
    """The README's "Library quick start" block runs as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == code.count("print(")


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

    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli(
        capsys, "generate", "--config", str(missing), "--out", str(tmp_path / "x"),
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read config file {missing}: ")
    with pytest.raises(ConfigError, match="^cannot read config file"):
        cli.read_config_file(str(tmp_path))  # a directory


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
    emp = g.empirical_hit_times(0.5, 4096, 260, 4, 8, 50, 0)
    law = g.DominatingLawParams(p=0.5, m=4, j=260, k=8, gamma=doc["gamma"])
    dom = g.sample_dominating(law, g.make_rng(0 + 50), size=500)
    assert [r[6] for r in rows[1:51]] == [
        "censored" if math.isinf(v) else str(int(v)) for v in emp
    ]
    assert [float(r[6]) for r in rows[51:]] == dom.tolist()


def test_hitting_csv_bytes_match_csv_writer(tmp_path, capsys, monkeypatch):
    # 4096 steps leave most replicas short of k = 8: censored rows; a
    # small chunk makes both sections span several formatted writes
    monkeypatch.setattr(cli, "_WRITE_CHUNK", 7)
    csv_path = tmp_path / "hits.csv"
    code, out, _ = run_cli(
        capsys, "hitting", "--p", "0.5", "--j", "260", "--m", "4", "--k", "8",
        "--grid", "256,4096", "--replicas", "40", "--dom-samples", "300",
        "--seed", "3", "--csv", str(csv_path),
    )
    assert code in (0, 1)
    emp = g.empirical_hit_times(0.5, 4096, 260, 4, 8, 40, 3)
    assert np.isinf(emp).any() and np.isfinite(emp).any()
    law = g.DominatingLawParams(p=0.5, m=4, j=260, k=8, gamma=json.loads(out)["gamma"])
    dom = g.sample_dominating(law, g.make_rng(3 + 40), size=300)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["source", "p", "m", "j", "k", "replica", "hit_time"])
    for i, v in enumerate(emp):
        w.writerow(["empirical", repr(0.5), 4, 260, 8, i,
                    "censored" if math.isinf(v) else int(v)])
    for i, v in enumerate(dom):
        w.writerow(["dominating", repr(0.5), 4, 260, 8, i, repr(float(v))])
    assert csv_path.read_bytes() == ref.getvalue().encode()


# The hitting CSV's float column against ``repr``: the head of its dominating
# rows, and the dominating law of the benchmark's hitting runs and of gate 07.
_HEAD = "dominating,0.5,4,260,16,"
_BENCH_LAW = g.DominatingLawParams(p=0.5, m=4, j=260, k=16, gamma=0.4)


def _repr_reference(first, x):
    return "".join(f"{_HEAD}{first + i},{v!r}\r\n" for i, v in enumerate(x.tolist())).encode()


_FLOATS = st.one_of(
    st.floats(),  # nan, the infinities, negatives, subnormals, values below 1
    st.floats(1.0, 1e15, exclude_max=True),
    st.floats(1e15, 1e300),
    st.integers(1, 2**53).map(float),
    st.integers(-1074, 1023).map(lambda e: 2.0**e),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_FLOATS, min_size=1, max_size=30), first=st.integers(0, 10**12))
@example(values=[math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.5, 1e15, 2.0**40, 123.0,
                 1e300, 999999999999999.9, 1.5, 1.25], first=0)
def test_repr_rows_match_repr(values, first):
    x = np.array(values)
    assert cli._repr_rows(_HEAD, first, x).tobytes() == _repr_reference(first, x)


def test_repr_rows_match_repr_in_bulk():
    """1.25 million values, written a chunk at a time as the CSV is: every
    class that the vector path takes, and some that it leaves to ``repr``."""
    rng = np.random.default_rng(2026)
    p10 = 10.0 ** np.arange(1, 16)
    classes = [
        g.sample_dominating(_BENCH_LAW, g.make_rng(1), 20_000),  # the benchmark's count
        g.sample_dominating(_BENCH_LAW, g.make_rng(2), 100_000),  # gate 07's count
        rng.uniform(1.0, 1e15, 200_000),
        np.exp(rng.uniform(0.0, np.log(1e15), 200_000)),  # log-uniform
        np.round(rng.uniform(1.0, 1e4, 150_000), 3),
        np.round(rng.uniform(1.0, 1e4, 150_000), 4),
        np.concatenate([np.nextafter(p10, 0.0), p10, np.nextafter(p10, np.inf)]),
        rng.integers(8, 2**53, 150_000) / 8.0,
        np.ldexp(rng.integers(2**52, 2**53, 180_000) / 2.0**52, rng.integers(0, 50, 180_000)),
        rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),  # any bits
    ]
    x = np.concatenate(classes)
    assert x.size >= 10**6
    for a in range(0, x.size, cli._WRITE_CHUNK):
        chunk = x[a : a + cli._WRITE_CHUNK]
        assert cli._repr_rows(_HEAD, a, chunk).tobytes() == _repr_reference(a, chunk)


@pytest.mark.parametrize("size, seed", [(20_000, 1), (100_000, 2)])
def test_dominating_samples_take_the_vector_path(size, seed):
    # a fallback to ``repr`` that took most values would keep the bytes and lose the speed
    x = g.sample_dominating(_BENCH_LAW, g.make_rng(seed), size)
    assert cli._shortest_digits(x)[0].mean() >= 0.99


def test_hitting_csv_writer_peak_is_one_chunk(tmp_path, capsys, monkeypatch):
    """At 10**6 dominating samples the writer holds one chunk's temporaries
    (about 165 B a row), not a Python float per sample (32 MB)."""
    dom = g.sample_dominating(_BENCH_LAW, g.make_rng(3), 10**6)
    report = g.domination_test(_BENCH_LAW, [math.inf, 300.0], dom, [256])
    monkeypatch.setattr(hitting, "domination_experiment", lambda **kw: report)
    path = tmp_path / "hits.csv"
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "hitting", "--p", "0.5", "--j", "260", "--m", "4",
                             "--k", "16", "--grid", "256", "--csv", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    lines = path.read_bytes().split(b"\r\n")
    assert len(lines) == 1 + 2 + 10**6 + 1
    assert lines[-2] == f"{_HEAD}{10**6 - 1},{float(dom[-1])!r}".encode()
    assert peak < 256 * cli._WRITE_CHUNK


def test_hitting_precondition_exit(capsys):
    code, _, err = run_cli(
        capsys, "hitting", "--p", "0.5", "--j", "10", "--m", "4", "--k", "8",
        "--grid", "256,1024", "--replicas", "10", "--dom-samples", "10",
    )
    assert code == 2
    assert "error:" in err


def test_hitting_sampler_seed_past_the_last_exits_2(capsys):
    # the dominating sampler takes the seed after the last replica's
    code, out, err = run_cli(
        capsys, "hitting", *_REQUIRED["hitting"], "--grid", "64,128", "--replicas", "2",
        "--dom-samples", "10", "--seed", str(2**64 - 2),
    )
    assert code == 2 and out == ""
    assert "base_seed must lie in [0, 2**64 - 3], got 18446744073709551614" in err


def test_arrival_waits_numpy_cannot_draw_exit_2_before_any_replica(capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("a replica ran before the sampler's parameters were checked")

    monkeypatch.setattr(process, "replicas", no_run)
    code, out, err = run_cli(
        capsys, "hitting", "--p", "1e-300", "--j", "2", "--m", "1", "--k", "16", "--grid", "10",
        "--replicas", "5", "--dom-samples", "1", "--gamma", "0.2", "--steps", "50",
    )
    assert code == 2 and out == ""
    assert "error: p=1e-300 is too small to draw the sum of 1 geometric waits" in err


def test_cliquegrowth_eps_prime_overflow_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("a replica ran before the leader window was checked")

    monkeypatch.setattr(process, "replicas", no_run)
    monkeypatch.setattr(process, "run", no_run)
    code, out, err = run_cli(
        capsys, "ensemble", "--experiment", "cliquegrowth", "--p-grid", "0.5", "--steps", "100",
        "--replicas", "2", "--eps-prime", "2e3", "--out-dir", str(tmp_path),
    )
    assert code == 2 and out == ""
    assert "error: empty block range at t=50: t**eps_prime overflows a float" in err


@pytest.mark.parametrize("source, flags, message", [
    *(pytest.param(source, ["--c1", c1], f"c1 must be finite and >= 0, got {float(c1)!r}",
                   id=f"{source}-{c1}")
      for source in ("run", "file") for c1 in ("nan", "inf", "-1")),
    *(pytest.param(source, ["--xmin", "0"], "x_min must be >= 1 and an integer, got 0",
                   id=f"{source}-xmin-0") for source in ("run", "file")),
    pytest.param("clique", ["--eps", "1.5"], "eps must lie in (0, 1), got 1.5", id="clique-eps"),
    pytest.param("clique", ["--eps-prime", "nan"], "eps_prime must be finite and >= 0, got nan",
                 id="clique-eps-prime"),
    pytest.param("clique", ["--m", "0"], "m must be >= 1 and an integer, got 0", id="clique-m"),
    pytest.param("clique", ["--topk", "0"], "topk must be >= 1 and an integer, got 0",
                 id="clique-topk"),
    # a later flag wins: t = 0 leaves no leader window
    pytest.param("clique", ["--steps", "0"], "empty block range at t=0", id="clique-steps-0"),
    # block 63 of the window at t = 10**6 needs more vertices than t + 1
    pytest.param("clique", ["--m", "100000"], "error: block 63 needs vertex 6300000, but a run "
                 "holds at most 1000001 vertices at t=1000000", id="clique-window-unfilled"),
    # t**eps_prime overflows a float: the window is empty
    pytest.param("clique", ["--steps", "100", "--eps-prime", "2e3"],
                 "error: empty block range at t=100: t**eps_prime overflows a float",
                 id="clique-eps-prime-overflow"),
    pytest.param("hitting", ["--steps", "100"],
                 "error: steps must reach the last grid point 1024, got 100", id="hitting-steps"),
    pytest.param("hitting", ["--steps", str(2**31)], "exceeds the 32-bit id budget",
                 id="hitting-steps-capacity"),
])
def test_stats_bad_c1_exits_2_before_any_work(tmp_path, capsys, monkeypatch, source, flags,
                                              message):
    """A bad ``glp stats --c1`` or ``--xmin``, a bad ``glp clique`` option or
    a ``glp hitting --steps`` short of the grid exits 2 before any run, file
    read or dominating draw."""
    path = tmp_path / "g.edges"
    path.write_text("# glp v1 p=0.5 steps=0 seed=0\n1 1\n")

    def no_work(*args):
        raise AssertionError("the graph was built before its options were checked")

    monkeypatch.setattr(process, "run", no_work)
    monkeypatch.setattr(process, "read_edges", no_work)
    monkeypatch.setattr(hitting, "sample_dominating", no_work)
    given = {"run": ["stats", "--p", "0.5", "--steps", "2000000"],
             "file": ["stats", "--in", str(path)],
             "clique": ["clique", "--p", "0.5", "--steps", "1000000"],
             "hitting": ["hitting", "--p", "0.5", "--j", "260", "--m", "4", "--k", "16",
                         "--grid", "256,1024", "--dom-samples", "2000000",
                         "--replicas", "10"]}[source]
    code, out, err = run_cli(capsys, *given, *flags)
    assert code == 2 and out == ""
    assert message in err


# ----------------------------------------------------------------------
# clique subcommand


def test_clique_matches_community_module(capsys):
    code, out, _ = run_cli(
        capsys, "clique", "--p", "0.5", "--steps", "1000", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    graph = g.run(g.ProcessParams(p=0.5, steps=2000, seed=7)).graph
    (row,) = g.clique_growth_rows(graph, (1000,), m=10, eps=0.1, eps_prime=0.05, topk=64)
    assert doc["pair_fraction"] == row.pair_fraction
    assert doc["clique_size"] == row.clique_size
    assert doc["topk_clique_size"] == row.topk_clique_size
    assert doc["j_lo"] == row.j_lo and doc["j_hi"] == row.j_hi
    assert doc["leader_count"] == row.leader_count
    assert doc["t"] == 1000
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
