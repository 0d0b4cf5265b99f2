import io
import itertools
import os
import tempfile
import tracemalloc
import warnings

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
    each ``_BLOCK`` slot edge, the chunk edges of ``gain_steps``."""
    edges = np.arange(0, first_slot[-1] + 1, process._BLOCK)
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
    with pytest.raises(CapacityError):
        g.ProcessParams(p=0.5, steps=float("inf"), seed=0)
    for bad in (float("nan"), float("-inf"), 2.5):
        with pytest.raises(ParameterError, match="non-negative integer"):
            g.ProcessParams(p=0.5, steps=bad, seed=0)
    # the range test comes before ``int()``, and the seed must be integral
    for bad in (-1, 2**64, float("nan"), float("inf"), 1.5):
        with pytest.raises(ParameterError, match="seed must be a 64-bit natural"):
            g.ProcessParams(p=0.5, steps=10, seed=bad)
        with pytest.raises(ParameterError, match="seed must be a 64-bit natural"):
            g.make_rng(bad)
    assert g.ProcessParams(p=0.5, steps=10, seed=3.0).seed == 3
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


def test_step_kinds_are_the_documented_kind_draw():
    n = process._BLOCK + 3
    for p in (0.0, 0.3, 1.0):
        rng, ref = g.make_rng(5), g.make_rng(5)
        assert np.array_equal(process.step_kinds(rng, p, n), ref.random(n) < p)
        assert rng.bit_generator.state == ref.bit_generator.state


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
    graphs = list(g.replicas(0.5, 300, process._seed_fan(40, 4)[:4]))
    assert len(graphs) == 4
    for r, gr in enumerate(graphs):
        ref = g.run(g.ProcessParams(p=0.5, steps=300, seed=40 + r)).graph
        assert gr.seed == 40 + r and gr.t == 300
        assert np.array_equal(gr.endpoints, ref.endpoints)
    fan = process._seed_fan(2**64 - 3, 3)
    assert [gr.seed for gr in g.replicas(0.5, 10, fan[:3])] == [2**64 - 3, 2**64 - 2, 2**64 - 1]
    assert len(fan) == 3  # the fan stops at the last 64-bit seed
    assert list(g.replicas(0.5, 10, process._seed_fan(0, 0)[:0])) == []


def test_seed_fan_holds_at_most_max_steps_seeds():
    assert len(process._seed_fan(0, process.MAX_STEPS)[: process.MAX_STEPS]) == process.MAX_STEPS
    # every one of 2**64 seeds from 0 is a 64-bit natural, but no sweep runs them
    for n in (process.MAX_STEPS + 1, 2**64):
        message = f"^a sweep takes at most 2147483645 seeds, got {n}$"
        with pytest.raises(ParameterError, match=message):
            process._seed_fan(0, n)


def test_replicas_check_the_last_seed_before_the_first_run(monkeypatch):
    runs = []
    real = process._generate

    def counted(p, steps, seed):
        runs.append(seed)
        return real(p, steps, seed)

    monkeypatch.setattr(process, "_generate", counted)
    with pytest.raises(ParameterError, match="seed must be a 64-bit natural"):
        next(g.replicas(0.5, 100, process._seed_fan(2**64 - 2, 3)[:3]))
    with pytest.raises(ParameterError, match="seed must be a 64-bit natural"):
        g.empirical_hit_times(0.5, 100, 2, 2, 4, 3, 2**64 - 2)
    assert runs == []


def test_replicas_check_their_parameters_once(monkeypatch):
    built = []
    real = process.ProcessParams

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(process, "ProcessParams", counted)
    for n in (0, 1, 5):
        built.clear()
        assert len(list(g.replicas(0.5, 3, range(n)))) == n
        assert built == [(0.5, 3, 0)]


def _assert_slot_draws_match(seed, lo, hi, pre_draw):
    ours, ref = g.make_rng(seed), g.make_rng(seed)
    if pre_draw:  # leaves a buffered high half in both states
        ours.integers(0, np.array([10]))
        ref.integers(0, np.array([10]))
    state = ours.bit_generator.state
    got, carry = process._slot_draws(ours, lo, hi, (state["has_uint32"], state["uinteger"]))
    want = ref.integers(0, np.arange(lo, hi) & ~1)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    process._put_carry(ours, carry)
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


def test_slot_draws_window_bytes():
    # The bounds and products are computed inside ``out``, so beyond it
    # only the bool mask (2 * 2**14 entries) and one window of raw outputs
    # remain, with the copy that joins a carry to them: 164-227 KiB across
    # seeds 0-4.  The carry is copied, so a window's raw outputs are freed
    # before the next are drawn.
    rng = g.make_rng(0)
    buf = np.empty(2**16, dtype=np.int64)
    tracemalloc.start()
    try:
        process._slot_draws(rng, 2**17, 2**17 + 2**16, (0, 0), out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 240 * 2**10, f"{peak} B"


_W = process._DRAW_WINDOW


@pytest.mark.parametrize("pre_draw", [False, True])
@pytest.mark.parametrize("length", [_W - 1, _W, _W + 1, 2 * _W + 1])
@pytest.mark.parametrize("lo", [2, 2**20 + 1])
def test_slot_draws_fill_a_slice(lo, length, pre_draw):
    # As the first block draws into ``full[lo:]``: the windows are computed
    # inside the slice, and nothing around it is written.
    ours, ref = g.make_rng(lo + length), g.make_rng(lo + length)
    if pre_draw:
        ours.integers(0, np.array([10]))
        ref.integers(0, np.array([10]))
    state = ours.bit_generator.state
    buf = np.full(3 + length + 5, -1, dtype=np.int64)
    got, carry = process._slot_draws(ours, lo, lo + length,
                                     (state["has_uint32"], state["uinteger"]), out=buf[3:-5])
    assert np.shares_memory(got, buf) and got.size == length
    assert np.array_equal(got, ref.integers(0, np.arange(lo, lo + length) & ~1))
    assert (buf[:3] == -1).all() and (buf[-5:] == -1).all()
    process._put_carry(ours, carry)
    assert ours.bit_generator.state == ref.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), lo=st.integers(2, 2**32 - 2),
       length=st.integers(1, 3 * process._DRAW_WINDOW), pre_draw=st.booleans())
def test_slot_draws_property(seed, lo, length, pre_draw):
    _assert_slot_draws_match(seed, lo, min(lo + length, 2**32 - 1), pre_draw)


# Slot counts ``2 * (steps + 1)`` on the resolver's block edges.  Blocks that
# start below ``_DRAW_CUTOFF`` (``_C``) end at multiples of ``_BLOCK // 2``
# (``_H``), later ones at multiples of ``_BLOCK`` (``_B``), and a remainder
# shorter than half the current block joins it.
_B, _C = process._BLOCK, process._DRAW_CUTOFF
_H, _Q = _B // 2, _B // 4
BLOCK_EDGE_SLOTS = (
    2, 4, 6, 8,  # the tiny runs
    _H + _Q - 2,  # the longest run of one block: the first takes a Q - 2 slot remainder
    _H + _Q,  # the shortest run of two blocks, and two generators
    2 * _H - 2, 2 * _H, 2 * _H + 2,  # either side of two half blocks; a 2-slot remainder joins
    3 * _H - 2, 3 * _H,  # a third half block cut short and whole
    _C,  # the last half block before the cutoff ends at it
    _C + 2, _C + _Q - 2,  # joined remainders that carry that half block past the cutoff
    _C + _B,  # the first whole block after the cutoff
    2 * _C + 8,  # a tail of several whole blocks past the cutoff
)
BLOCK_EDGE_STEPS = tuple(slots // 2 - 1 for slots in BLOCK_EDGE_SLOTS)


def block_layout(monkeypatch, steps):
    """The ``(lo, hi)`` of each block that ``_fill_block`` resolves in a run."""
    blocks = []
    real = process._fill_block

    def recorded(endpoints, z, rng, lo, hi, nv, carry):
        blocks.append((lo, hi))
        return real(endpoints, z, rng, lo, hi, nv, carry)

    monkeypatch.setattr(process, "_fill_block", recorded)
    process._generate(0.5, steps, 0)
    return blocks


# Every edge size but 0, and two runs whose block at the cutoff stops short,
# at a quarter and at half a whole block.
@pytest.mark.parametrize("steps", tuple(s for s in BLOCK_EDGE_STEPS if s)
                         + ((_C + _Q) // 2 - 1, (_C + _H) // 2 - 1))
def test_block_layout(monkeypatch, steps):
    blocks = block_layout(monkeypatch, steps)
    nslots = 2 * (steps + 1)
    assert [lo for lo, _ in blocks] == [2] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == nslots
    for lo, hi in blocks:
        size = _H if lo < _C else _B
        edge = lo - lo % size + size  # the next multiple of the block size
        if hi < nslots:  # what follows is no short remainder
            assert hi == edge and nslots - hi >= size // 2
        else:  # the last block takes a short remainder, or stops short
            assert nslots - edge < size // 2


def test_block_layout_at_the_edges(monkeypatch):
    assert block_layout(monkeypatch, 0) == []  # the initial loop alone
    assert block_layout(monkeypatch, (_H + _Q - 2) // 2 - 1) == [(2, _H + _Q - 2)]
    assert block_layout(monkeypatch, (_H + _Q) // 2 - 1) == [(2, _H), (_H, _H + _Q)]
    assert block_layout(monkeypatch, (_C + _Q - 2) // 2 - 1)[-2:] == [(_C - 2 * _H, _C - _H),
                                                                      (_C - _H, _C + _Q - 2)]
    assert block_layout(monkeypatch, (_C + _B) // 2 - 1)[-2:] == [(_C - _H, _C), (_C, _C + _B)]
    assert block_layout(monkeypatch, (_C + _B + _H - 2) // 2 - 1)[-1] == (_C, _C + _B + _H - 2)


def test_carry_is_written_back_once_past_the_cutoff(monkeypatch):
    # Blocks up to the cutoff hand the spare uint32 on among themselves; the
    # generator's state is written only for the first ``rng.integers`` block.
    writes = []
    real = process._put_carry

    def recorded(rng, carry):
        writes.append(carry)
        real(rng, carry)

    monkeypatch.setattr(process, "_put_carry", recorded)
    for steps, count in ((_C // 2 - 1, 0), ((_C + _B) // 2 - 1, 1), (2 * _C, 1)):
        writes.clear()
        process._generate(0.5, steps, 0)
        assert len(writes) == count


def doubled(ptr):
    """Plain pointer doubling of ``ptr`` run to convergence: the oracle."""
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            return ptr
        ptr = nxt


def check_resolution(ptr, base):
    """The first-block resolution of the forest ``ptr`` (slot ``s`` at
    ``ptr[s]``, every non-root at an earlier slot, every root at itself) and
    ``_follow`` of its slots from ``base`` on, with the slots below ``base``
    final, against plain doubling."""
    got = ptr.copy()
    process._resolve_first(got)
    assert np.array_equal(got, doubled(ptr))
    # a later block's pointers stop at the first final slot on their chain,
    # as they would if every final slot were a root
    stopped = ptr.copy()
    stopped[:base] = np.arange(base)
    block = ptr[base:].copy()
    process._follow(block, np.flatnonzero(block >= base), base)
    assert np.array_equal(block, doubled(stopped)[base:])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000), reach=st.integers(1, 64),
       base=st.integers(0, 2000))
def test_resolution_is_pointer_doubling(seed, n, reach, base):
    # slot s points back by fewer than ``reach`` slots, a root where that is
    # 0; a long reach makes roots rare and chains longer than the four
    # doubling passes
    ptr = np.arange(n) - np.random.default_rng(seed).integers(0, reach, n)
    early = ptr < 0  # no slot before 0 to point at: a root
    ptr[early] = np.flatnonzero(early)
    check_resolution(ptr, min(base, n))


def test_resolution_of_the_longest_chains():
    # s -> s - 2 through a whole block, from slots 0 and 1 on and past a
    # final prefix of a block
    for n, base in ((_B, 0), (2 * _B, _B)):
        ptr = np.arange(n, dtype=np.int64) - 2
        ptr[:2] = 0, 1
        check_resolution(ptr, base)


@pytest.mark.parametrize("steps", BLOCK_EDGE_STEPS)
def test_advance_is_the_kind_draw(steps):
    # A run of more than one block takes its slot draws from a second
    # generator advanced past the kinds: every kind uses one raw output,
    # and neither ``advance`` nor the kind draws leave a buffered half.
    for seed in (0, 1, 2**64 - 1):
        moved, drawn = g.make_rng(seed), g.make_rng(seed)
        moved.bit_generator.advance(steps)
        process.step_kinds(drawn, 0.5, steps)
        assert moved.bit_generator.state == drawn.bit_generator.state


@pytest.mark.parametrize("steps", BLOCK_EDGE_STEPS)
def test_replicas_match_run_at_the_block_edges(steps):
    for p in (0.0, 0.5, 1.0):
        got = list(g.replicas(p, steps, (0, 2**64 - 1)))
        for seed, gr in zip((0, 2**64 - 1), got, strict=True):
            ref = g.run(g.ProcessParams(p, steps, seed)).graph
            assert gr.endpoints.dtype == ref.endpoints.dtype == np.int32
            assert gr.endpoints.tobytes() == ref.endpoints.tobytes()
            assert (gr.num_vertices, gr.p, gr.seed) == (ref.num_vertices, ref.p, ref.seed)


@pytest.mark.parametrize(
    "p, seed, steps",
    # explicit ids keep the names of the 500-step cases stable
    [pytest.param(p, seed, 500, id=f"{seed}-{p}")
     for seed in (0, 17) for p in (0.0, 0.3, 0.5, 0.75, 1.0)]
    + [pytest.param(p, 0, steps, id=f"0-{p}-steps{steps}")
       for p in (0.0, 0.5, 1.0) for steps in BLOCK_EDGE_STEPS]
    # later blocks with few and with many new-vertex roots
    + [pytest.param(p, 0, 2**19 + 3, id=f"0-{p}-steps{2**19 + 3}") for p in (0.25, 0.9)],
)
def test_scalar_replay_matches_run(p, seed, steps):
    got = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph.endpoints
    assert np.array_equal(got, scalar_replay(p, steps, seed))


@pytest.mark.parametrize(
    "p, steps",
    [(p, steps) for p in (0.0, 0.5, 1.0)
     for steps in BLOCK_EDGE_STEPS + (3 * process._BLOCK + 5,)],
)
def test_degrees_and_arrivals_match_the_endpoints(p, steps):
    # the last size spans seven chunks of ``gain_steps``
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=9)).graph
    ids, first_slot = np.unique(gr.endpoints, return_index=True)
    assert np.array_equal(ids, np.arange(1, gr.num_vertices + 1))
    arrivals = first_slot // 2
    assert np.array_equal(arrivals, kind_arrivals(p, steps, 9))
    for t in (steps // 2, steps):
        want = np.bincount(gr.endpoints[: 2 * (t + 1)])[1:]
        # Degrees are counted on first read, so each read below but the
        # last two runs on a graph that has not counted them yet: ``at(t)``
        # is a new graph for t < steps, and ``gr`` has counted nothing.
        assert gr.at(t).degree(want.size) == want[-1]
        assert gr.at(t).max_degree() == want.max()
        graph = gr.at(t)
        assert np.array_equal(graph.degrees, want)
        assert graph.degrees.dtype == np.int64
        assert graph.degree(1) == want[0]
        assert graph.num_vertices == np.count_nonzero(arrivals <= graph.t)
        for j in probe_ids(first_slot[: graph.num_vertices]):
            assert graph.arrival_time(j) == arrivals[j - 1]
        ep, nv = graph.endpoints, graph.num_vertices
        for lo, hi in ((1, 1), (nv, nv), (nv // 2 + 1, nv // 2 + 1), (2, max(2, nv // 3)),
                       (nv // 2 + 1, nv + 5)):
            want_steps = np.flatnonzero((ep >= lo) & (ep <= hi)) // 2
            assert np.array_equal(graph.gain_steps(lo, hi), want_steps)
        for v in (1, nv):
            born = arrivals[v - 1]
            times = np.unique([born, (born + t) // 2, t])
            got = np.searchsorted(graph.gain_steps(v, v), times, side="right")
            assert got.tolist() == [gr.at(u).degree(v) for u in times]
            assert np.searchsorted(graph.gain_steps(v, v), born - 1, side="right") == 0
        above = graph.gain_steps(nv + 1, nv + 10)
        assert above.size == 0 and above.dtype == np.int64
    # vertex counts either side of each chunk edge
    for edge in range(process._BLOCK, 2 * steps + 2, process._BLOCK):
        for t in (edge // 2 - 1, edge // 2):
            assert gr.at(t).num_vertices == np.count_nonzero(arrivals <= t)


@pytest.fixture
def count_calls(monkeypatch):
    """Vertex counts passed to ``process._count_degrees`` from here on."""
    calls = []
    real = process._count_degrees

    def counted(endpoints, nv):
        calls.append(nv)
        return real(endpoints, nv)

    monkeypatch.setattr(process, "_count_degrees", counted)
    return calls


def test_degrees_are_counted_once_on_first_read(count_calls):
    steps = 5000
    gr = g.run(g.ProcessParams(p=0.4, steps=steps, seed=3)).graph
    kinds = process.step_kinds(g.make_rng(3), 0.4, steps)
    assert gr.num_vertices == 1 + np.count_nonzero(kinds)
    assert gr.at(steps // 2).num_vertices == 1 + np.count_nonzero(kinds[: steps // 2])
    assert count_calls == []
    first = gr.degrees
    assert np.array_equal(gr.degrees, first)
    assert count_calls == [gr.num_vertices]


def test_endpoint_readers_count_no_degrees(count_calls):
    g.empirical_hit_times(0.5, 2**10, j=20, m=4, k=4, replicas=5, base_seed=0)
    g.martingale_check(0.5, (10, 100, 1000), replicas=5, vertex=1)
    assert count_calls == []


def test_imported_graphs_count_no_degrees_until_read(count_calls, tmp_path):
    gr = g.run(g.ProcessParams(p=0.5, steps=3000, seed=2)).graph
    path = tmp_path / "edges.txt"
    g.export_edges(gr, path)
    back = g.GlpGraph.from_endpoints(gr.endpoints)
    read = g.read_edges(path)
    assert back.num_vertices == read.num_vertices == gr.num_vertices
    assert count_calls == []
    assert np.array_equal(back.degrees, np.bincount(gr.endpoints)[1:])
    assert read.max_degree() == back.max_degree()
    assert count_calls == [gr.num_vertices] * 2


def run_peak_bytes_per_step(steps):
    """Traced peak of a second ``run`` at ``p = 0.5``, per step."""
    params = g.ProcessParams(p=0.5, steps=steps, seed=0)
    g.run(params)
    tracemalloc.start()
    try:
        g.run(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / steps


def test_generation_peak_bytes_per_step():
    # Working arrays stay within one block or chunk of 2**16 slots, each
    # block draws its own kinds and the degrees are not counted, so the peak
    # sits inside the fill: the int32 endpoints (8 B/step) and the last
    # block's ``rng.integers`` draw, whose int64 bounds and values (512 KiB
    # each for a whole block) come to 1.1 MB above them, about 8.52 B/step
    # at this size.
    peak = run_peak_bytes_per_step(2**21)
    assert peak <= 8.6, f"{peak:.2f} B/step"


def test_later_block_peak_bytes_per_step():
    # At 2 * 10**5 steps one block's working set still weighs: about
    # 10.9 B/step with the endpoints' 8.  The first block's doubling passes
    # set the peak: its two int64 buffers (256 KiB each), its kinds and the
    # mask and list of the pointers they leave moving.  The last half
    # block, which has taken the short remainder, comes close while
    # ``_slot_draws`` fills its int64 pointers (316 KB for its 39,554
    # slots) beside its kinds, mask and raw draws.
    peak = run_peak_bytes_per_step(2 * 10**5)
    assert peak <= 11.3, f"{peak:.2f} B/step"


def test_replica_run_peak_bytes_per_step():
    # The size of the replica sweeps: six blocks of 2**15 slots, the last
    # with the remainder.  The peak comes in the first block's doubling
    # passes: its two int64 buffers (512 KiB together), its kinds and the
    # mask and list of the pointers they leave moving, about 0.59 MB over
    # the endpoints' 8 B/step: 13.83-13.91 B/step across seeds 0-4.  A later
    # block's draws (its int64 pointers, the mask and raw draws) stay below.
    peak = run_peak_bytes_per_step(10**5)
    assert peak <= 14.2, f"{peak:.2f} B/step"


def test_first_block_peak_bytes_per_step():
    # A run in one block peaks in its doubling passes: the two int64
    # buffers (32 B/step together), the endpoints, the kinds and the mask
    # and list of the pointers the passes leave moving, 43.6-44.1 B/step
    # across seeds 0-4.  ``_slot_draws``, which fills one buffer with only
    # its mask and raw draws beside it, stays below.
    peak = run_peak_bytes_per_step(2**14)
    assert peak <= 45, f"{peak:.2f} B/step"


def test_short_run_peak_bytes():
    # ``_slot_draws``' mask is no longer than twice the block, so a 100-step
    # run traces about 7 KB, not the 32 KiB of a whole window's mask.
    assert run_peak_bytes_per_step(100) * 100 <= 32 * 2**10


def test_from_endpoints_peak_bytes_per_step():
    # One int32 copy of the input (8 B/step) and one chunk of the
    # first-appearance check; the degrees are not counted until read.
    steps = 2**20
    ep = g.run(g.ProcessParams(p=0.5, steps=steps, seed=0)).graph.endpoints.copy()
    tracemalloc.start()
    try:
        g.GlpGraph.from_endpoints(ep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / steps <= 11


def test_read_edges_peak_bytes_per_step(tmp_path):
    # The text (about 10 B/step here), the int32 ids (8 B/step) and one
    # parse chunk set the peak; the text is freed before ``from_endpoints``,
    # whose int32 copy and check chunk stay below it.
    steps = 2 * 10**5
    path = tmp_path / "edges.txt"
    g.export_edges(g.run(g.ProcessParams(p=0.5, steps=steps, seed=0)).graph, path)
    tracemalloc.start()
    try:
        g.read_edges(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / steps <= 35


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

    for seed in (-1, 10**23):
        path.write_text(f"# glp v1 p=0.5 steps=1 seed={seed}\n1 1\n1 2\n")
        with pytest.raises(ParseError, match="seed must be a 64-bit natural"):
            g.read_edges(path)


@pytest.mark.parametrize("text, error", [
    ("# glp v1 p=0.5 steps=1000000000000 seed=0\n1 1\n1 2\n", "does not match header"),
    # two slots cannot hold ids 1..2**31 - 1, so no 2**31 degrees are counted
    (f"# glp v1 p=0.0 steps=0 seed=0\n{2**31 - 1} 1\n", "contiguous range"),
], ids=["header-steps", "largest-id"])
def test_read_edges_sizes_nothing_from_the_file(tmp_path, text, error):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=error):
            g.read_edges(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_from_endpoints_validation():
    with pytest.raises(ParameterError, match="contiguous range"):
        g.GlpGraph.from_endpoints([1, 1, 3, 3])  # id 2 missing
    with pytest.raises(ParameterError):
        g.GlpGraph.from_endpoints([1, 1, 2])  # odd length
    with pytest.raises(ParameterError):
        g.GlpGraph.from_endpoints([2, 2, 1, 1])  # not ordered by first appearance
    with pytest.raises(ParameterError):
        g.GlpGraph.from_endpoints([0, 1])
    # ids that the int32 copy would change, with no numpy warning or
    # OverflowError on the way (numpy holds 2**70 in an object array)
    for bad in (np.array([1, 2**32 + 1]), np.array([1.0, 1.9]), [1, 2**32 + 1], [1, 2**70],
                [1.0, float("nan")], [1.0, float("inf")], [1.0, 1e10]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="integers below 2"):
                g.GlpGraph.from_endpoints(bad)
    assert g.GlpGraph.from_endpoints(np.array([1.0, 2.0])).num_vertices == 2
    with pytest.raises(ParameterError, match="seed must be a 64-bit natural"):
        g.GlpGraph.from_endpoints([1, 1], seed=-1)
    # a skipped id right after the first chunk of the first-appearance check
    head = np.ones(process._BLOCK, dtype=np.int32)
    with pytest.raises(ParameterError, match="first appearance"):
        g.GlpGraph.from_endpoints(np.concatenate([head, [3, 2]]))


def first_appearance_count(seq):
    """V if ``seq`` is a flat sequence of even length >= 2 whose ids are
    1..V in order of first appearance, else None: the rule, one slot at a
    time in pure Python."""
    if len(seq) < 2 or len(seq) % 2:
        return None
    seen = 0
    for x in seq:
        if x == seen + 1:
            seen += 1
        elif not 1 <= x <= seen:
            return None
    return seen


def check_against_the_rule(seq, rule_of=None):
    """``from_endpoints`` accepts ``seq`` iff the rule does (applied to
    ``rule_of``, an equivalent short sequence, when given), with the rule's
    vertex count and ``np.bincount``'s degrees."""
    want = first_appearance_count(seq if rule_of is None else rule_of)
    if want is None:
        with pytest.raises(ParameterError):
            g.GlpGraph.from_endpoints(seq)
        return
    gr = g.GlpGraph.from_endpoints(seq)
    assert gr.num_vertices == want
    assert np.array_equal(gr.degrees, np.bincount(seq)[1:])


def test_from_endpoints_follows_the_first_appearance_rule():
    # every sequence of length 2, 4 and 6 over the ids 0..4
    for n in (2, 4, 6):
        for seq in itertools.product(range(5), repeat=n):
            check_against_the_rule(np.array(seq))
    rng = np.random.default_rng(7)
    for _ in range(3000):
        # a sequence the rule accepts, then in half the cases one id moved
        # by -1, 0 or +1; a few lengths are odd
        n = int(rng.integers(1, 13))
        seq = [1]
        while len(seq) < n:
            top = max(seq)
            seq.append(top + 1 if rng.random() < 0.4 else int(rng.integers(1, top + 1)))
        if rng.random() < 0.5:
            seq[rng.integers(0, n)] += int(rng.integers(-1, 2))
        check_against_the_rule(np.array(seq))
    # across the edge of the check's first chunk: a prefix of ones acts
    # as the loop ``1 1`` before the tail
    head = np.ones(process._BLOCK - 2, dtype=np.int64)
    for tail in itertools.product(range(4), repeat=4):
        check_against_the_rule(np.concatenate([head, tail]), rule_of=(1, 1) + tail)


@pytest.mark.parametrize("steps", [2 * process._BLOCK - 1, 2 * process._BLOCK,
                                   4 * process._BLOCK + 5])
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


# Edge counts either side of the export chunk (``_WRITE_CHUNK`` edges) and of two.
_W = process._WRITE_CHUNK
_CHUNK_EDGE_STEPS = (_W - 2, _W - 1, _W, 2 * _W - 1)


@settings(max_examples=20, deadline=None)
@given(
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    steps=st.one_of(st.sampled_from((0,) + _CHUNK_EDGE_STEPS), st.integers(0, 3000)),
    seed=st.integers(min_value=0, max_value=10**6),
)
@example(p=0.0, steps=0, seed=0)
@example(p=1.0, steps=0, seed=0)
@example(p=0.0, steps=_W - 1, seed=1)
@example(p=1.0, steps=_W, seed=2)
@example(p=0.5, steps=2 * _W - 1, seed=3)
def test_export_matches_savetxt(p, steps, seed):
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
    got = io.StringIO()
    g.export_edges(gr, got)
    header, body = got.getvalue().split("\n", 1)
    ref = io.StringIO()
    ref.write(header + "\n")
    np.savetxt(ref, gr.edges(), fmt="%d")
    assert got.getvalue() == ref.getvalue()
    # the larger bodies span several parse chunks
    assert np.array_equal(process._load_pairs(body, steps), gr.endpoints)


# Either side of each digit count, up to the largest id.
_BOUNDARY_IDS = [1] + [v for n in range(1, 10) for v in (10**n - 1, 10**n)] + [2**31 - 1]


@pytest.mark.parametrize("order", ["rising", "falling", "shuffled"])
@pytest.mark.parametrize("top", [10**9 - 1, 2**31 - 1])
def test_format_and_parse_at_digit_boundaries(order, top):
    """Ids of every width side by side in one chunk, written as ``%d`` writes
    them and read back, with and without ten-digit ids."""
    ids = np.array([v for v in _BOUNDARY_IDS if v <= top], dtype=np.int32)
    if order == "falling":
        ids = ids[::-1]
    elif order == "shuffled":
        ids = np.random.default_rng(0).permutation(np.repeat(ids, 3))
    ids = ids[: ids.size // 2 * 2]
    text = process._format_edges(ids)
    assert text == ("%d %d\n" * (ids.size // 2)) % tuple(ids.tolist())
    assert np.array_equal(process._load_pairs(text, ids.size // 2 - 1), ids)


def _read_outcome(text, path=None):
    """What ``read_edges`` makes of ``text``, or of the file at ``path``
    when one is given: a graph's fields or the ``ParseError`` message.  Any
    other exception propagates."""
    try:
        gr = g.read_edges(io.StringIO(text) if path is None else path)
    except ParseError as exc:
        return ("error", str(exc))
    return ("graph", gr.p, gr.seed, gr.endpoints.tolist())


_TOKENS = ("#", "", "+", "+1", "1.0", "-1", "0", str(2**31), str(2**31 - 1), "0" * 10 + "1",
           "1_0", "\uff11", "\t", "\r", "\r\n", "\x00", "\x0b", "\x1c", "\xa0", "1 2 3")

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
@example(text="# glp v1 p=0.5 steps=0 seed=0\n1 \n")  # an empty id
@example(text="# glp v1 p=0.5 steps=0 seed=0\n1 00000000001\n")  # an id of 11 digits
@example(text="# glp v1 p=0.5 steps=1 seed=0\r1 1\r1 2\r")  # lone \r newlines
@example(text="# glp v1 p=0.5 steps=1 seed=0\n1 1\r\n1 2\r\n")  # \r\n in the body only
def test_read_edges_bulk_parse_agrees_with_line_scan(text):
    """Every input reads as the line scan alone reads it: the same graph or
    the same ``ParseError``, and nothing else.  Written byte-exact to a
    file, it reads as the line scan reads the file's text-mode decoding,
    universal newlines (``\\r\\n`` and a lone ``\\r``) included."""
    got = _read_outcome(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.txt")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        got_file = _read_outcome(None, path)
        with open(path) as fh:
            decoded = fh.read()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(process, "_load_pairs", lambda body, steps, start=0: None)
        assert got == _read_outcome(text)
        assert got_file == _read_outcome(decoded)


@pytest.mark.parametrize("line, outcome", [
    ("1 \n", ("error", "line 2: expected 'u v', got '1'")),
    ("1 00000000001\n", ("graph", 0.5, 0, [1, 1])),
])
def test_bulk_parse_hands_ids_of_no_or_11_digits_to_the_line_scan(line, outcome):
    assert process._parse_ids(np.frombuffer(line.encode(), dtype=np.uint8)) is None
    assert _read_outcome("# glp v1 p=0.5 steps=0 seed=0\n" + line) == outcome
