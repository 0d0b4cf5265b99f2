import csv
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import glpsim as g
from glpsim import cli
from glpsim.ensemble import EXPERIMENTS
from glpsim.errors import BatchError, ConfigError, ParseError
from glpsim.process import MAX_STEPS


def maxdeg_config(**over):
    base = dict(
        experiment="maxdeg",
        p_grid=(0.5,),
        steps=400,
        replicas=3,
        base_seed=0,
        width=1,
        min_success=1.0,
        params={"snapshot_times": (100, 400)},
    )
    base.update(over)
    return g.EnsembleConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        maxdeg_config(experiment="nope")
    with pytest.raises(ConfigError):
        maxdeg_config(p_grid=())
    with pytest.raises(ConfigError, match="repeats"):
        maxdeg_config(p_grid=(0.5, 0.25, 0.5))
    with pytest.raises(ConfigError):
        maxdeg_config(replicas=0)
    with pytest.raises(ConfigError):
        maxdeg_config(width=0)
    with pytest.raises(ConfigError):
        maxdeg_config(min_success=1.5)
    replicas = maxdeg_config().replicas
    assert maxdeg_config(base_seed=2**64 - replicas).base_seed == 2**64 - replicas
    for seed in (-5, 2**64 - replicas + 1):
        with pytest.raises(ConfigError, match="base_seed"):
            maxdeg_config(base_seed=seed)
    # a seed is an integer: 1.5 would run as 1 while its rows said 1.5
    for seed in (1.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="seed"):
            maxdeg_config(base_seed=seed)
    # an integral float is a seed, and the rows' seeds stay ints for read_report
    assert type(maxdeg_config(base_seed=2.0).base_seed) is int
    with pytest.raises(ConfigError, match="32-bit"):
        maxdeg_config(steps=MAX_STEPS + 1, params={})
    with pytest.raises(ConfigError, match="32-bit"):
        maxdeg_config(steps=float("inf"), params={})
    with pytest.raises(ConfigError, match="non-negative integer"):
        maxdeg_config(steps=float("nan"), params={})
    # times and ids must be integers, as steps must
    with pytest.raises(ConfigError, match="integers"):
        maxdeg_config(params={"snapshot_times": (2.5,)})
    with pytest.raises(ConfigError, match="integer t_values"):
        maxdeg_config(experiment="cliquegrowth", steps=1001, params={"t_values": (500.5,)})
    with pytest.raises(ConfigError, match="integer in"):
        maxdeg_config(experiment="arrival", params={"vertex": 2.5})


def test_single_replica_aggregate_identity():
    rep = g.run_ensemble(maxdeg_config(replicas=1))
    assert rep.replica_count == 1
    for agg in rep.aggregates:
        matching = [r for r in rep.rows if (r.t, r.metric) == (agg["t"], agg["metric"])]
        assert len(matching) == 1
        assert agg["mean"] == matching[0].value
        assert agg["stderr"] == 0.0
        assert agg["n"] == 1


def test_aggregates_match_sequential_runs():
    rep = g.run_ensemble(maxdeg_config(replicas=5))
    # oracle: the snapshot maxima of each replica run directly
    snap = {}
    for r in range(5):
        res = g.run(g.ProcessParams(p=0.5, steps=400, seed=r, snapshot_times=(100, 400)))
        snap.update({(r, s.t): s.max_degree for s in res.snapshots})
    assert {(row.seed, row.t): row.value for row in rep.rows} == snap
    for agg in rep.aggregates:
        vals = [snap[r, agg["t"]] for r in range(5)]
        assert agg["mean"] == pytest.approx(sum(vals) / 5)
        assert agg["n"] == 5


def test_parallel_equals_serial():
    serial = g.run_ensemble(maxdeg_config(replicas=4, width=1))
    parallel = g.run_ensemble(maxdeg_config(replicas=4, width=2))
    assert serial.rows == parallel.rows
    assert serial.aggregates == parallel.aggregates


@pytest.mark.parametrize("replicas,width", [(3, 2), (4, 2), (10, 2), (5, 4), (2, 3)])
def test_parallel_chunks_spread_over_workers(monkeypatch, replicas, width):
    import concurrent.futures

    chunks = []

    class SerialPool:
        def __init__(self, max_workers):
            assert max_workers == width

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            chunks.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    rep = g.run_ensemble(maxdeg_config(replicas=replicas, width=width))
    assert len(chunks) == 1 and chunks[0] <= -(-replicas // width)
    assert rep.rows == g.run_ensemble(maxdeg_config(replicas=replicas)).rows


def test_same_config_same_report():
    a = g.run_ensemble(maxdeg_config())
    b = g.run_ensemble(maxdeg_config())
    assert a == b


def test_report_round_trip(tmp_path):
    rep = g.run_ensemble(maxdeg_config())
    path = tmp_path / "report.json"
    g.write_report(rep, path)
    back = g.read_report(path)
    assert back == rep


def test_csv_row_count(tmp_path):
    rep = g.run_ensemble(maxdeg_config(replicas=4))
    path = tmp_path / "rows.csv"
    g.write_rows_csv(rep, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    # header + replicas x metrics (2 snapshot times -> 2 metric rows each)
    assert rows[0] == ["p", "seed", "t", "metric", "value"]
    assert len(rows) - 1 == 4 * 2 == len(rep.rows)


def test_read_report_diagnostics(tmp_path):
    rep = g.run_ensemble(maxdeg_config())
    path = tmp_path / "report.json"
    g.write_report(rep, path)

    text = path.read_text()
    truncated = tmp_path / "trunc.json"
    truncated.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError):
        g.read_report(truncated)

    doc = json.loads(text)
    doc["schema"] = "glp-report/999"
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="schema"):
        g.read_report(wrong)

    del doc["schema"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="missing field"):
        g.read_report(missing)

    doc2 = json.loads(text)
    doc2["rows"][0] = {"bogus": 1}
    bad = tmp_path / "badrow.json"
    bad.write_text(json.dumps(doc2))
    with pytest.raises(ParseError, match="row"):
        g.read_report(bad)

    for field, value in [("p", None), ("seed", "s"), ("t", 1.5), ("metric", 3),
                         ("value", "x"), ("seed", True), ("value", False)]:
        doc3 = json.loads(text)
        doc3["rows"][0][field] = value
        bad.write_text(json.dumps(doc3))
        with pytest.raises(ParseError, match=f"row field '{field}'"):
            g.read_report(bad)

    doc4 = json.loads(text)
    doc4["aggregates"] = [7]
    bad.write_text(json.dumps(doc4))
    with pytest.raises(ParseError, match="aggregate"):
        g.read_report(bad)

    failure = {"p": 0.5, "seed": 1, "error": "E: x"}
    for part, value, match in [
        ("failures", [7], "failure is not a JSON object"),
        ("failures", [{"p": 0.5, "seed": 1}], "failure field 'error' is missing"),
        ("failures", [{**failure, "seed": 1.0}], "failure field 'seed'"),
        ("failures", [{**failure, "p": None}], "failure field 'p'"),
        ("config", [1], "config is not a JSON object"),
        ("p_grid", 0.5, "config field 'p_grid'"),
        ("p_grid", [], "config field 'p_grid'"),
        ("p_grid", ["0.5"], "config field 'p_grid'"),
        ("replicas", 0, "config field 'replicas'"),
        ("replicas", True, "config field 'replicas'"),
        ("min_success", "1", "config field 'min_success'"),
    ]:
        doc5 = json.loads(text)
        if part in doc5:
            doc5[part] = value
        else:
            doc5["config"][part] = value
        bad.write_text(json.dumps(doc5))
        with pytest.raises(ParseError, match=match):
            g.read_report(bad)
    doc5 = json.loads(text)
    del doc5["config"]["replicas"]
    bad.write_text(json.dumps(doc5))
    with pytest.raises(ParseError, match="config field 'replicas' is missing"):
        g.read_report(bad)

    for text in ("5", "[]", '"x"'):
        scalar = tmp_path / "scalar.json"
        scalar.write_text(text)
        with pytest.raises(ParseError, match="expected a JSON object"):
            g.read_report(scalar)


@pytest.fixture(scope="module")
def report_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "report.json"
    g.write_report(g.run_ensemble(maxdeg_config(replicas=2)), path)
    return path.read_text()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_read_report_fuzz(tmp_path, report_text, data):
    """Malformed reports raise ``ParseError`` and nothing else."""
    text = report_text
    kind = data.draw(st.sampled_from(
        ["truncate", "bytes", "field", "row", "aggregate", "failure", "config"]))
    if kind == "truncate":
        raw = text[: data.draw(st.integers(0, len(text)))].encode()
    elif kind == "bytes":
        pos = data.draw(st.integers(0, len(text)))
        noise = data.draw(st.binary(min_size=1, max_size=4))
        raw = text[:pos].encode() + noise + text[pos:].encode()
    elif kind == "aggregate":
        doc = json.loads(text)
        doc["aggregates"][0] = data.draw(_JSON_VALUES)
        raw = json.dumps(doc).encode()
    else:
        doc = json.loads(text)
        doc["failures"] = [{"p": 0.5, "seed": 1, "error": "E: x"}]
        target = {"field": doc, "row": doc["rows"][0], "failure": doc["failures"][0],
                  "config": doc["config"]}[kind]
        key = data.draw(st.sampled_from(sorted(target)))
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(_JSON_VALUES)
        raw = json.dumps(doc).encode()
    path = tmp_path / "fuzz.json"
    path.write_bytes(raw)
    try:
        rep = g.read_report(path)
    except ParseError:
        return
    for r in rep.rows:
        for v, types in [(r.p, (int, float)), (r.seed, int), (r.t, int), (r.metric, str),
                         (r.value, (int, float))]:
            assert isinstance(v, types) and not isinstance(v, bool)
    assert all(isinstance(a, dict) for a in rep.aggregates)
    for f in rep.failures:
        assert isinstance(f["p"], (int, float)) and type(f["seed"]) is int
        assert isinstance(f["error"], str)
    assert isinstance(rep.gate_passed(), bool)


def test_failure_isolation_and_gate():
    # cliquegrowth demands steps == 2 * max(t_values); half the grid violates
    # nothing here -- instead use arrival with an unreachable vertex to fail
    cfg = g.EnsembleConfig(
        experiment="arrival",
        p_grid=(1.0, 0.0),
        steps=50,
        replicas=2,
        params={"vertex": 10},
    )
    rep = g.run_ensemble(cfg)
    # p=1.0 works (vertex 10 arrives at step 9); p=0.0 never grows
    assert len(rep.failures) == 2
    assert all(f["p"] == 0.0 for f in rep.failures)
    assert rep.success_fraction == pytest.approx(0.5)
    assert not rep.gate_passed()
    relaxed = g.EnsembleConfig(
        experiment="arrival",
        p_grid=(1.0, 0.0),
        steps=50,
        replicas=2,
        min_success=0.5,
        params={"vertex": 10},
    )
    assert g.run_ensemble(relaxed).gate_passed()


def test_all_failures_raise_batch_error():
    cfg = g.EnsembleConfig(
        experiment="arrival", p_grid=(0.0,), steps=20, replicas=3,
        params={"vertex": 5},
    )
    with pytest.raises(BatchError):
        g.run_ensemble(cfg)
    # a repeated snapshot time would count every replica twice
    for experiment in ("maxdeg", "triangles"):
        with pytest.raises(ConfigError, match="strictly increasing"):
            g.EnsembleConfig(
                experiment=experiment, p_grid=(0.5,), steps=20, replicas=2,
                params={"snapshot_times": (10, 10)},
            )


def test_version_and_schema_fields():
    rep = g.run_ensemble(maxdeg_config())
    assert rep.schema == "glp-report/1"
    assert rep.version == g.__version__
    assert rep.config["experiment"] == "maxdeg"


def test_cliquegrowth_experiment_steps_contract():
    cfg = g.EnsembleConfig(
        experiment="cliquegrowth", p_grid=(0.5,), steps=1000, replicas=1,
        params={"t_values": (200, 500), "m": 5, "topk": 8},
    )
    rep = g.run_ensemble(cfg)
    metrics = {r.metric for r in rep.rows}
    assert metrics == {"pair_fraction", "clique_size", "topk_clique_size"}
    with pytest.raises(ConfigError, match="steps == 2"):
        g.EnsembleConfig(
            experiment="cliquegrowth", p_grid=(0.5,), steps=999, replicas=1,
            params={"t_values": (200, 500), "m": 5, "topk": 8},
        )


@pytest.mark.parametrize(
    "experiment, key",
    [("maxdeg", "vertex"), ("maxdeg", "m"), ("triangles", "t_values"),
     ("arrival", "snapshot_times"), ("cliquegrowth", "vertex"), ("maxdeg", "bogus")],
)
def test_unread_params_rejected(experiment, key):
    """A parameter the experiment does not read fails at construction, not
    in every replica."""
    with pytest.raises(ConfigError, match=f"does not read {key}"):
        g.EnsembleConfig(experiment=experiment, p_grid=(0.5,), steps=100, replicas=2,
                         params={key: 3})


def test_cli_flags_reach_every_experiment_parameter():
    params = {name for _, defaults in EXPERIMENTS.values() for name in defaults}
    assert sorted(cli._PARAM.values()) == sorted(params)
    assert set(cli._PARAM) <= set(cli._COMMANDS["ensemble"][1])
