import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glpsim as g
from glpsim import process
from glpsim.errors import CapacityError, ParameterError, ParseError, UnknownVertexError


def scalar_replay(p, steps, seed):
    """Apply the documented draw stream one step at a time.

    Independent of the vectorized resolver: same raw uniforms, but each slot
    index is looked up against the endpoint list as it exists at that step.
    """
    rng = g.make_rng(seed)
    z = rng.random(steps) < p
    bounds = np.repeat(2 * np.arange(1, steps + 1, dtype=np.int64), 2)
    draws = rng.integers(0, bounds)
    ep = [1, 1]
    nv = 1
    for t in range(steps):
        a = ep[draws[2 * t]]
        if z[t]:
            nv += 1
            ep.extend([a, nv])
        else:
            ep.extend([a, ep[draws[2 * t + 1]]])
    return np.array(ep, dtype=np.int32)


def kind_arrivals(p, steps, seed):
    """Arrival step of each vertex from the documented kind stream alone:
    vertex 1 at 0, then one vertex at each (1-based) vertex-step."""
    z = g.make_rng(seed).random(steps) < p
    return np.concatenate(([0], np.flatnonzero(z) + 1))


def probe_ids(first_slot):
    """1-based ids to probe for ``first_slot`` (each id's first slot, in id
    order): 1, 2, the last, and the ids whose first slot sits either side of
    each ``_MAX_BLOCK`` slot edge, the chunk edges of the arrival search."""
    edges = np.arange(0, first_slot[-1] + 1, process._MAX_BLOCK)
    after = np.searchsorted(first_slot, edges)
    picks = np.concatenate(([0, 1, first_slot.size - 1], after, after - 1))
    return np.unique(picks.clip(0, first_slot.size - 1)) + 1


# ----------------------------------------------------------------------
# initial graph and parameter validation


def test_initial_graph():
    gr = g.run(g.ProcessParams(p=0.5, steps=0, seed=0)).graph
    assert gr.t == 0
    assert gr.num_vertices == 1
    assert gr.total_degree() == 2
    assert gr.max_degree() == 2
    assert gr.degree(1) == 2
    assert gr.arrival_time(1) == 0
    assert [tuple(e) for e in gr.edges()] == [(1, 1)]


@pytest.mark.parametrize("bad", [-0.1, 1.0001, float("nan")])
def test_p_out_of_range(bad):
    with pytest.raises(ParameterError):
        g.ProcessParams(p=bad, steps=10, seed=0)


def test_param_validation():
    with pytest.raises(ParameterError):
        g.ProcessParams(p=0.5, steps=-1, seed=0)
    with pytest.raises(CapacityError):
        g.ProcessParams(p=0.5, steps=2**31, seed=0)
    with pytest.raises(ParameterError):
        g.ProcessParams(p=0.5, steps=10, seed=-1)
    with pytest.raises(ParameterError):
        g.ProcessParams(p=0.5, steps=10, seed=0, snapshot_times=(5, 20))
    with pytest.raises(ParameterError):
        g.ProcessParams(p=0.5, steps=10, seed=0, snapshot_times=(7, 7))
    with pytest.raises(ParameterError, match="integers"):
        g.ProcessParams(p=0.5, steps=10, seed=0, snapshot_times=(2.5,))
    # an integral float is a time, as it is a step count
    whole = g.run(g.ProcessParams(p=0.5, steps=10, seed=0, snapshot_times=(5.0,)))
    assert whole.snapshots == g.run(g.ProcessParams(0.5, 10, 0, (5,))).snapshots


def test_unknown_vertex():
    gr = g.run(g.ProcessParams(p=0.5, steps=50, seed=1)).graph
    with pytest.raises(UnknownVertexError):
        gr.degree(0)
    with pytest.raises(UnknownVertexError):
        gr.degree(gr.num_vertices + 1)
    with pytest.raises(UnknownVertexError):
        gr.arrival_time(gr.num_vertices + 1)
    for query in (gr.degree, gr.arrival_time):
        for bad in (2.5, float("nan")):
            with pytest.raises(UnknownVertexError):
                query(bad)
        assert query(2.0) == query(2)


# ----------------------------------------------------------------------
# conservation and determinism


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    steps=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_conservation_property(p, steps, seed):
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
    assert gr.endpoints.size == 2 * (steps + 1)
    assert gr.total_degree() == 2 * (steps + 1)
    assert gr.degrees.sum() == 2 * (steps + 1)
    # every id in 1..V appears, and V is the largest id
    seen = np.unique(gr.endpoints)
    assert seen[0] == 1 and seen[-1] == gr.num_vertices
    assert seen.size == gr.num_vertices
    # arrivals: vertex 1 at 0, then one vertex per vertex-step of the kind stream
    arr = [gr.arrival_time(j) for j in range(1, gr.num_vertices + 1)]
    assert arr == kind_arrivals(p, steps, seed).tolist()


def test_vertex_count_matches_kind_stream():
    # the documented protocol draws kinds first; recount them independently
    for p, seed in [(0.3, 5), (0.5, 6), (0.9, 7)]:
        steps = 2000
        gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
        z = g.make_rng(seed).random(steps) < p
        assert gr.num_vertices == 1 + int(z.sum())


def test_determinism_and_seed_sensitivity():
    params = g.ProcessParams(p=0.5, steps=400, seed=11)
    a = g.run(params).graph.endpoints
    b = g.run(params).graph.endpoints
    assert np.array_equal(a, b)
    c = g.run(g.ProcessParams(p=0.5, steps=400, seed=12)).graph.endpoints
    assert not np.array_equal(a, c)


def test_replicas_are_runs_at_consecutive_seeds():
    graphs = list(g.replicas(0.5, 300, 40, 4))
    assert len(graphs) == 4
    for r, gr in enumerate(graphs):
        ref = g.run(g.ProcessParams(p=0.5, steps=300, seed=40 + r)).graph
        assert gr.seed == 40 + r and gr.t == 300
        assert np.array_equal(gr.endpoints, ref.endpoints)


def _assert_slot_draws_match(seed, lo, hi, pre_draw):
    ours, ref = g.make_rng(seed), g.make_rng(seed)
    if pre_draw:  # leaves a buffered high half in both states
        ours.integers(0, np.array([10]))
        ref.integers(0, np.array([10]))
    got = process._slot_draws(ours, lo, hi)
    want = ref.integers(0, np.arange(lo, hi) & ~1)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert ours.bit_generator.state == ref.bit_generator.state
    # the streams go on alike, through both kinds of later draw
    bounds = np.arange(lo, hi) & ~1
    assert np.array_equal(ours.integers(0, bounds), ref.integers(0, bounds))
    assert ours.random() == ref.random()


@pytest.mark.parametrize("pre_draw", [False, True])
@pytest.mark.parametrize(
    "lo, hi",
    [(2, 2**15), (2**16, 2**17 + 7),
     (3 * 2**30, 3 * 2**30 + 3001),  # about 25% of draws rejected
     (2**31 + 1, 2**31 + 9001),  # about 50%
     (2**32 - 5000, 2**32 - 1), (2, 3)],
)
def test_slot_draws_match_numpy(lo, hi, pre_draw):
    for seed in (0, 1, 2):
        _assert_slot_draws_match(seed, lo, hi, pre_draw)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), lo=st.integers(2, 2**32 - 2),
       length=st.integers(1, 3 * process._DRAW_WINDOW), pre_draw=st.booleans())
def test_slot_draws_property(seed, lo, length, pre_draw):
    _assert_slot_draws_match(seed, lo, min(lo + length, 2**32 - 1), pre_draw)


# Step counts on the resolver's block edges: the tiny runs, either side of
# the end of the first block (2**16 slots), either side of the last block
# that ``_slot_draws`` fills (ending at 2**19 slots), and a run whose tail
# spans several blocks capped at 2**18 slots.
BLOCK_EDGE_STEPS = (0, 1, 2, 3, 2**15 - 2, 2**15 - 1, 2**15, 2**18 - 1, 2**18,
                    2**19 + 3)


@pytest.mark.parametrize(
    "p, seed, steps",
    # explicit ids keep the names of the 500-step cases stable
    [pytest.param(p, seed, 500, id=f"{seed}-{p}")
     for seed in (0, 17) for p in (0.0, 0.3, 0.5, 0.75, 1.0)]
    + [pytest.param(p, 0, steps, id=f"0-{p}-steps{steps}")
       for p in (0.0, 0.5, 1.0) for steps in BLOCK_EDGE_STEPS],
)
def test_scalar_replay_matches_run(p, seed, steps):
    got = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph.endpoints
    assert np.array_equal(got, scalar_replay(p, steps, seed))


@pytest.mark.parametrize(
    "p, steps",
    [(p, steps) for p in (0.0, 0.5, 1.0)
     for steps in BLOCK_EDGE_STEPS + (3 * process._MAX_BLOCK + 5,)],
)
def test_degrees_and_arrivals_match_the_endpoints(p, steps):
    # the last size spans four chunks of the arrival search
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=9)).graph
    ids, first_slot = np.unique(gr.endpoints, return_index=True)
    assert np.array_equal(ids, np.arange(1, gr.num_vertices + 1))
    arrivals = first_slot // 2
    assert np.array_equal(arrivals, kind_arrivals(p, steps, 9))
    for graph in (gr, gr.at(steps // 2)):
        assert graph.degrees.dtype == np.int64
        assert np.array_equal(graph.degrees, np.bincount(graph.endpoints)[1:])
        assert graph.num_vertices == np.count_nonzero(arrivals <= graph.t)
        for j in probe_ids(first_slot[: graph.num_vertices]):
            assert graph.arrival_time(j) == arrivals[j - 1]
    # vertex counts either side of each chunk edge
    for edge in range(process._MAX_BLOCK, 2 * steps + 2, process._MAX_BLOCK):
        for t in (edge // 2 - 1, edge // 2):
            assert gr.at(t).num_vertices == np.count_nonzero(arrivals <= t)


def test_generation_peak_bytes_per_step():
    # Working arrays stay within one block or chunk, so at this size the
    # peak is the two arrays the graph keeps: the int32 endpoints
    # (8 B/step) and the int64 degrees (about 4 B/step at p = 0.5).
    steps = 2**21
    tracemalloc.start()
    try:
        g.run(g.ProcessParams(p=0.5, steps=steps, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / steps <= 13


def test_from_endpoints_peak_bytes_per_step():
    # One int32 copy of the input (8 B/step), the int64 degrees (about
    # 4 B/step at p = 0.5), and one chunk of the first-appearance check.
    steps = 2**20
    ep = g.run(g.ProcessParams(p=0.5, steps=steps, seed=0)).graph.endpoints.copy()
    tracemalloc.start()
    try:
        g.GlpGraph.from_endpoints(ep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / steps <= 18


# ----------------------------------------------------------------------
# step kinds at the deterministic ends


def test_p_one_is_a_growing_tree():
    gr = g.run(g.ProcessParams(p=1.0, steps=50, seed=2)).graph
    assert gr.num_vertices == 51
    edges = list(gr.edges())
    # only the initial loop; every later edge attaches a brand-new vertex
    assert tuple(edges[0]) == (1, 1)
    for t, e in enumerate(edges[1:], start=1):
        assert e[1] == t + 1
        assert e[0] < e[1]
    assert gr.arrival_time(51) == 50


def test_p_zero_stays_on_the_root():
    gr = g.run(g.ProcessParams(p=0.0, steps=80, seed=3)).graph
    assert gr.num_vertices == 1
    assert gr.degree(1) == 2 * 81
    assert all(tuple(e) == (1, 1) for e in gr.edges())


# ----------------------------------------------------------------------
# attachment sampling distribution


def test_sample_endpoint_proportions():
    # degrees (2, 4, 4) select with probabilities (0.2, 0.4, 0.4)
    ep = np.array([1, 1, 2, 3, 2, 3, 2, 3, 2, 3], dtype=np.int64)
    gr = g.GlpGraph.from_endpoints(ep, p=0.5, seed=0)
    assert gr.degree(1) == 2 and gr.degree(2) == 4 and gr.degree(3) == 4
    rng = g.make_rng(123)
    n = 200_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[g.sample_endpoint(gr, rng)] += 1
    emp = counts[1:] / n
    tv = 0.5 * np.abs(emp - np.array([0.2, 0.4, 0.4])).sum()
    assert tv < 0.01  # ~3e-3 expected at this n


def test_interarrival_gaps_are_geometric():
    """Chi-square GOF at the 1% level on vertex inter-arrival gaps."""
    from scipy import stats

    p = 0.5
    gr = g.run(g.ProcessParams(p=p, steps=4000, seed=21)).graph
    # between consecutive vertex-steps
    gaps = np.diff([gr.arrival_time(j) for j in range(3, gr.num_vertices + 1)])
    kmax = 8
    obs = np.bincount(np.minimum(gaps, kmax), minlength=kmax + 1)[1:]
    probs = np.array(
        [(1 - p) ** (k - 1) * p for k in range(1, kmax)] + [(1 - p) ** (kmax - 1)]
    )
    chi2 = ((obs - gaps.size * probs) ** 2 / (gaps.size * probs)).sum()
    assert chi2 < stats.chi2.ppf(0.99, df=kmax - 1)


# ----------------------------------------------------------------------
# snapshots and time-indexed views


def test_snapshots_match_prefix_views():
    params = g.ProcessParams(p=0.5, steps=1000, seed=8, snapshot_times=(0, 10, 500, 1000))
    res = g.run(params)
    gr = res.graph
    arrivals = kind_arrivals(0.5, 1000, 8)
    assert [s.t for s in res.snapshots] == [0, 10, 500, 1000]
    for s in res.snapshots:
        past = gr.at(s.t)
        ref = g.GlpGraph.from_endpoints(gr.endpoints[: 2 * (s.t + 1)])
        assert past.t == s.t
        assert np.array_equal(past.endpoints, ref.endpoints)
        assert np.array_equal(past.degrees, ref.degrees)
        assert past.num_vertices == ref.num_vertices == np.count_nonzero(arrivals <= s.t)
        arr = [past.arrival_time(j) for j in range(1, past.num_vertices + 1)]
        assert arr == arrivals[: past.num_vertices].tolist()
        assert s.max_degree == past.max_degree() == ref.degrees.max()
        assert past.degrees.sum() == 2 * (s.t + 1)
    assert gr.at(0).num_vertices == 1
    assert gr.at(1000) is gr
    assert np.array_equal(gr.at(500.0).endpoints, gr.at(500).endpoints)
    for bad in (-1, gr.t + 1, 2.5):
        with pytest.raises(ParameterError, match=f"time {bad} outside"):
            gr.at(bad)


def test_vertex_count_at_is_monotone():
    gr = g.run(g.ProcessParams(p=0.7, steps=300, seed=14)).graph
    counts = [gr.at(t).num_vertices for t in range(0, 301, 25)]
    assert counts == sorted(counts)


# ----------------------------------------------------------------------
# edge-list round trip


def test_export_read_round_trip(tmp_path):
    gr = g.run(g.ProcessParams(p=0.75, steps=333, seed=4)).graph
    path = tmp_path / "edges.txt"
    g.export_edges(gr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# glp v1 p=0.75 steps=333 seed=4"
    assert lines[1] == "1 1"
    back = g.read_edges(path)
    assert back.p == gr.p and back.seed == gr.seed and back.t == gr.t
    # a well-formed body never needs the line scan
    body = path.read_text().split("\n", 1)[1]
    assert np.array_equal(process._load_pairs(body, gr.t), gr.endpoints)
    assert np.array_equal(back.endpoints, gr.endpoints)
    assert np.array_equal(back.degrees, gr.degrees)
    arr = [back.arrival_time(j) for j in range(1, back.num_vertices + 1)]
    assert arr == kind_arrivals(0.75, 333, 4).tolist()


def test_read_edges_diagnostics(tmp_path):
    path = tmp_path / "bad.txt"

    path.write_text("")
    with pytest.raises(ParseError):
        g.read_edges(path)

    path.write_text("# wrong header\n1 1\n")
    with pytest.raises(ParseError):
        g.read_edges(path)

    path.write_text("# glp v1 p=0.5 steps=2 seed=0\n1 1\n1 2\n")
    with pytest.raises(ParseError, match="does not match header"):
        g.read_edges(path)

    path.write_text("# glp v1 p=0.5 steps=1 seed=0\n1 1\n1 x\n")
    with pytest.raises(ParseError, match="line 3"):
        g.read_edges(path)

    path.write_text(f"# glp v1 p=0.5 steps=1 seed=0\n1 1\n1 {2**31}\n")
    with pytest.raises(ParseError, match="line 3"):
        g.read_edges(path)

    path.write_bytes(b"# glp v1 p=0.5 steps=1 seed=0\n1 1\n1 \xff\n")
    with pytest.raises(ParseError, match="text"):
        g.read_edges(path)


def test_from_endpoints_validation():
    with pytest.raises(ParameterError):
        g.GlpGraph.from_endpoints([1, 1, 3, 3])  # id 2 missing
    with pytest.raises(ParameterError):
        g.GlpGraph.from_endpoints([1, 1, 2])  # odd length
    with pytest.raises(ParameterError):
        g.GlpGraph.from_endpoints([2, 2, 1, 1])  # not ordered by first appearance
    with pytest.raises(ParameterError):
        g.GlpGraph.from_endpoints([0, 1])
    # a skipped id right after the first chunk of the first-appearance check
    head = np.ones(process._MAX_BLOCK, dtype=np.int32)
    with pytest.raises(ParameterError, match="first appearance"):
        g.GlpGraph.from_endpoints(np.concatenate([head, [3, 2]]))


@pytest.mark.parametrize("steps", [process._MAX_BLOCK // 2 - 1, process._MAX_BLOCK // 2,
                                   process._MAX_BLOCK + 5])
def test_from_endpoints_across_chunks(steps):
    gr = g.run(g.ProcessParams(p=0.5, steps=steps, seed=3)).graph
    back = g.GlpGraph.from_endpoints(gr.endpoints)
    assert back.endpoints.dtype == np.int32
    assert not np.shares_memory(back.endpoints, gr.endpoints)
    assert np.array_equal(back.endpoints, gr.endpoints)
    assert np.array_equal(back.degrees, gr.degrees)
    arrivals = kind_arrivals(0.5, steps, 3)
    assert back.num_vertices == arrivals.size
    _, first_slot = np.unique(gr.endpoints, return_index=True)
    for j in probe_ids(first_slot):
        assert back.arrival_time(j) == arrivals[j - 1]


@settings(max_examples=30, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    steps=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_from_endpoints_rebuilds_run_output(p, steps, seed):
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
    back = g.GlpGraph.from_endpoints(gr.endpoints, p=p, seed=seed)
    assert np.array_equal(back.degrees, gr.degrees)
    arr = [back.arrival_time(j) for j in range(1, back.num_vertices + 1)]
    assert arr == kind_arrivals(p, steps, seed).tolist()


# Edge counts either side of the export chunk (``2**16`` edges) and of two.
_CHUNK_EDGE_STEPS = (2**16 - 2, 2**16 - 1, 2**16, 2**17 - 1)


@settings(max_examples=20, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    steps=st.one_of(st.sampled_from((0,) + _CHUNK_EDGE_STEPS), st.integers(0, 3000)),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(p=0.0, steps=0, seed=0)
@example(p=1.0, steps=0, seed=0)
@example(p=0.0, steps=2**16 - 1, seed=1)
@example(p=1.0, steps=2**16, seed=2)
@example(p=0.5, steps=2**17 - 1, seed=3)
def test_export_matches_savetxt(p, steps, seed):
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
    got = io.StringIO()
    g.export_edges(gr, got)
    header, _ = got.getvalue().split("\n", 1)
    ref = io.StringIO()
    ref.write(header + "\n")
    np.savetxt(ref, gr.edges(), fmt="%d")
    assert got.getvalue() == ref.getvalue()


def _read_outcome(text):
    """What ``read_edges`` makes of ``text``: a graph's fields or the
    ``ParseError`` message.  Any other exception propagates."""
    try:
        gr = g.read_edges(io.StringIO(text))
    except ParseError as exc:
        return ("error", str(exc))
    return ("graph", gr.p, gr.seed, gr.endpoints.tolist())


_TOKENS = ("#", "", "+", "+1", "1.0", "-1", "0", str(2**31), "1_0", "\uff11",
           "\t", "\r", "\r\n", "\x00", "1 2 3")

_RESPELL = (
    lambda line: "+" + line,
    lambda line: "0" + line,
    lambda line: line.replace(" ", "\t"),
    lambda line: " " + line.replace(" ", "\x0c ") + " ",
    lambda line: line + "\r",
    lambda line: line.translate({ord("0") + d: 0xFF10 + d for d in range(10)}),  # full width
)


@st.composite
def mutated_edge_lists(draw):
    p = draw(st.sampled_from([0.0, 0.5, 1.0]))
    steps = draw(st.integers(0, 40))
    buf = io.StringIO()
    g.export_edges(g.run(g.ProcessParams(p=p, steps=steps, seed=steps)).graph, buf)
    text = buf.getvalue()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["truncate", "token", "no-newline", "column", "replace", "respell"]
        ))
        if kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        elif kind == "token":
            pos = draw(st.integers(0, len(text)))
            sep = draw(st.sampled_from(["", " ", "\n"]))
            text = text[:pos] + sep + draw(st.sampled_from(_TOKENS)) + sep + text[pos:]
        elif kind == "no-newline":
            text = text.rstrip("\n")
        else:
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            if kind == "column":
                lines[i] += " " + draw(st.sampled_from(["1", "2", "7"]))
            elif kind == "replace":  # one id becomes a token, the column count kept
                parts = lines[i].split(" ")
                parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_TOKENS))
                lines[i] = " ".join(parts)
            else:  # the same edge, spelled in a way the line scan accepts
                lines[i] = draw(st.sampled_from(_RESPELL))(lines[i])
            text = "\n".join(lines)
    return text


@settings(max_examples=300, deadline=None)
@given(text=mutated_edge_lists())
def test_read_edges_bulk_parse_agrees_with_line_scan(text):
    """Every input reads as the line scan alone reads it: the same graph or
    the same ``ParseError``, and nothing else."""
    got = _read_outcome(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(process, "_load_pairs", lambda body, steps: None)
        assert got == _read_outcome(text)
