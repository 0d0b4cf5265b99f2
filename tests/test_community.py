import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glpsim as g
from glpsim import community
from glpsim.community import _clique_among, _edge_keys, _topk_ids
from glpsim.errors import GlpError, ParameterError


def graph_from_simple_edges(n, edges):
    """Build a graph whose simple projection is exactly the given edge set.

    Vertices 1..n are introduced in order via a chain so that the
    first-appearance constraint holds, then the requested edges follow.
    Chain edges (i, i+1) are part of the projection, so tests list them
    explicitly in `edges` when they matter.
    """
    ep = [1, 1]
    for v in range(2, n + 1):
        ep.extend([v - 1, v])
    for u, v in edges:
        ep.extend([u, v])
    return g.GlpGraph.from_endpoints(np.array(ep, dtype=np.int64), p=0.5, seed=0)


def dp_max_clique(n, adj_masks):
    """Exhaustive subset DP, independent of the package implementation."""
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        best[mask] = max(best[rest], 1 + best[rest & adj_masks[v]])
    return best[(1 << n) - 1]


def induced_adjacency(graph, ids):
    """Bitmask adjacency over `ids` built straight from the edge list."""
    pos = {v: i for i, v in enumerate(ids)}
    masks = [0] * len(ids)
    for u, v in graph.endpoints.reshape(-1, 2):
        u, v = int(u), int(v)
        if u != v and u in pos and v in pos:
            masks[pos[u]] |= 1 << pos[v]
            masks[pos[v]] |= 1 << pos[u]
    return masks


# ----------------------------------------------------------------------
# leaders


def test_leaders_m1_identity():
    gr = g.run(g.ProcessParams(p=0.5, steps=300, seed=1)).graph
    ls = g.leaders(gr, m=1, j_lo=2, j_hi=8)
    assert list(ls.vertices) == [2, 3, 4, 5, 6, 7, 8]
    for v, d in zip(ls.vertices, ls.degrees):
        assert d == gr.degree(int(v))


def test_leaders_tie_breaks_to_smallest_id():
    # star into vertex 1 gives vertices 2..5 degree 1 each
    gr = graph_from_simple_edges(5, [])
    ls = g.leaders(gr, m=2, j_lo=1, j_hi=2)
    # block 1 = {1,2}: vertex 1 dominates; block 2 = {3,4}: tie at degree 2
    assert list(ls.vertices) == [1, 3]


def test_leaders_degenerate_block():
    # p=0-style: one vertex holds all the block degree
    gr = g.run(g.ProcessParams(p=0.0, steps=40, seed=0)).graph
    ls = g.leaders(gr, m=1, j_lo=1, j_hi=1)
    assert list(ls.vertices) == [1]
    assert ls.degrees[0] == 2 * 41


def test_leaders_validation():
    gr = g.run(g.ProcessParams(p=0.5, steps=100, seed=2)).graph
    with pytest.raises(ParameterError):
        g.leaders(gr, m=1, j_lo=5, j_hi=4)
    with pytest.raises(ParameterError):
        g.leaders(gr, m=10, j_lo=1, j_hi=10**6)  # beyond the vertex count


def test_leaders_at_reference_time():
    gr = g.run(g.ProcessParams(p=0.5, steps=2000, seed=3)).graph
    ls = g.leaders(gr.at(500), m=5, j_lo=1, j_hi=4)
    assert ls.t_ref == 500
    deg500 = np.bincount(gr.endpoints[: 2 * 501])  # id-indexed, slot 0 unused
    for jdx, v in enumerate(ls.vertices):
        lo = jdx * 5 + 1
        block = deg500[lo : lo + 5]
        assert ls.degrees[jdx] == block.max()
        assert v == lo + int(np.argmax(block))


def test_leader_block_range():
    assert g.leader_block_range(10**4, 0.5, 0.1, 0.05) == (2, 15)
    assert g.leader_block_range(10**6, 0.5, 0.1, 0.05) == (2, 63)
    with pytest.raises(ParameterError):
        g.leader_block_range(10, 0.9, 0.1, 0.5)  # empty range
    for eps, eps_prime in ((np.nan, 0.05), (0.0, 0.05), (1.0, 0.05), (0.1, np.nan),
                           (0.1, np.inf), (0.1, -1.0)):
        with pytest.raises(ParameterError):
            g.leader_block_range(10**4, 0.5, eps, eps_prime)


@pytest.mark.parametrize("eps_prime", [2e3, 2000], ids=["float", "int"])
def test_leader_block_range_overflow(eps_prime):
    """``t**eps_prime`` past the float range is an empty window, an int
    exponent included, which is not raised to an exact integer power."""
    with pytest.raises(ParameterError, match="^empty block range at t=100: t\\*\\*eps_prime "
                                             "overflows a float"):
        g.leader_block_range(100, 0.5, 0.1, eps_prime)


def test_leader_degree_floor():
    """Leaders of early blocks keep a t^0.45/m degree floor at t=1e5.

    Calibrated floor: the 0.55 exponent variant fails for most seeds at
    this scale, 0.45 holds with margin across 30 seeds.
    """
    t, m, beta = 10**5, 10, 0.45
    floor = t**beta / m
    worst = np.inf
    for seed in range(30):
        gr = g.run(g.ProcessParams(p=0.5, steps=t, seed=600 + seed)).graph
        ls = g.leaders(gr, m=m, j_lo=2, j_hi=50)
        worst = min(worst, ls.degrees.min())
    assert worst >= floor


# ----------------------------------------------------------------------
# clique checks


def test_is_clique_triangle():
    gr = graph_from_simple_edges(3, [(1, 3)])  # chain 1-2-3 plus closing edge
    rep = g.is_clique(gr, [1, 2, 3])
    assert rep.pair_fraction == 1.0
    assert rep.missing_pairs == ()
    assert rep.largest_clique_size == 3


def test_is_clique_missing_pair():
    gr = graph_from_simple_edges(3, [])  # chain only: 1-2, 2-3
    rep = g.is_clique(gr, [1, 2, 3])
    assert rep.pair_fraction == pytest.approx(2 / 3)
    assert rep.missing_pairs == ((1, 3),)
    assert rep.largest_clique_size == 2


def test_is_clique_edgeless_set():
    gr = graph_from_simple_edges(6, [])
    rep = g.is_clique(gr, [1, 3, 5])  # chain edges never join these
    assert rep.pair_fraction == 0.0
    assert rep.largest_clique_size == 1


@pytest.mark.parametrize("ids, message", [
    ([], "empty candidate set"),
    ([0, 1], "candidate ids outside the graph"),
    ([1, 4], "candidate ids outside the graph"),
])
def test_is_clique_rejects_empty_and_foreign_ids(ids, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        g.is_clique(graph_from_simple_edges(3, []), ids)


def test_is_clique_single_vertex():
    # one id, given twice: no pair to count, a clique of one
    rep = g.is_clique(graph_from_simple_edges(3, []), [2, 2.0])
    assert rep == g.CliqueReport(1, 1.0, (), 1)


def test_is_clique_ignores_loops_and_multiplicity():
    ep = [1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 1, 3]
    gr = g.GlpGraph.from_endpoints(np.array(ep), p=0.5, seed=0)
    rep = g.is_clique(gr, [1, 2, 3])
    assert rep.pair_fraction == 1.0


def test_is_clique_rejects_ids_beyond_int64():
    # numpy holds a list with an id of 2**64 or more in an object array
    gr = graph_from_simple_edges(3, [])
    for bad in ([1, 2**70], [2**64, 1, 2]):
        with pytest.raises(ParameterError, match="integers"):
            g.is_clique(gr, bad)


def test_is_clique_counts_every_pair_of_a_large_set():
    """160 candidates (12,720 pairs) are counted exactly, pair by pair."""
    gr = g.run(g.ProcessParams(p=0.5, steps=3000, seed=4)).graph
    vs = list(range(1, 161))
    rep = g.is_clique(gr, vs)
    masks = induced_adjacency(gr, vs)
    absent = [(vs[a], vs[b]) for a in range(160) for b in range(a + 1, 160)
              if not masks[a] >> b & 1]
    assert rep.pair_fraction == (12_720 - len(absent)) / 12_720
    assert rep.missing_pairs == tuple(absent[:100])
    assert rep.largest_clique_size >= 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    perm_seed=st.integers(min_value=0, max_value=10**6),
)
def test_is_clique_permutation_invariant(seed, perm_seed):
    gr = g.run(g.ProcessParams(p=0.5, steps=120, seed=seed)).graph
    vs = list(range(1, min(12, gr.num_vertices) + 1))
    base = g.is_clique(gr, vs)
    rng = np.random.default_rng(perm_seed)
    shuffled = [int(v) for v in rng.permutation(vs)]
    other = g.is_clique(gr, shuffled)
    assert other.pair_fraction == base.pair_fraction
    assert other.largest_clique_size == base.largest_clique_size
    assert set(other.missing_pairs) == set(base.missing_pairs)


# ----------------------------------------------------------------------
# maximum clique


def test_max_clique_on_planted_k5():
    k5 = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    gr = graph_from_simple_edges(8, k5)
    got = g.max_clique_topk(gr, 8)
    assert len(got) == 5
    assert g.is_clique(gr, got).pair_fraction == 1.0


def test_max_clique_edgeless_candidates():
    gr = graph_from_simple_edges(4, [])
    got = g.max_clique_topk(gr, 2)  # top vertices by degree, chain-adjacent
    assert 1 <= len(got) <= 2


def test_max_clique_result_is_a_verified_clique():
    gr = g.run(g.ProcessParams(p=0.5, steps=20_000, seed=5)).graph
    got = g.max_clique_topk(gr, 40)
    assert g.is_clique(gr, got).pair_fraction == 1.0


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([0.1, 0.3, 0.5, 0.8]),
    steps=st.integers(min_value=20, max_value=3000),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_clique_sizes_match_networkx(p, steps, seed):
    nx = pytest.importorskip("networkx")
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
    full = nx.Graph()
    full.add_nodes_from(range(1, gr.num_vertices + 1))
    full.add_edges_from(g.simple_edges(gr).tolist())

    def nx_clique_size(ids):
        return max(len(c) for c in nx.find_cliques(full.subgraph(ids)))

    vs = list(range(1, min(40, gr.num_vertices) + 1))
    rep = g.is_clique(gr, vs)
    assert rep.largest_clique_size == nx_clique_size(vs)
    if len(vs) > 1:
        assert rep.pair_fraction == pytest.approx(nx.density(full.subgraph(vs)))
    k = min(30, gr.num_vertices)
    top = g.max_clique_topk(gr, k)
    deg = gr.degrees
    order = np.lexsort((np.arange(1, deg.size + 1), -deg))[:k]
    assert len(top) == nx_clique_size([int(v) + 1 for v in order])
    assert full.subgraph(top).number_of_edges() == len(top) * (len(top) - 1) // 2


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([0.1, 0.5, 0.9]),
    steps=st.sampled_from([5, 50, 500, 3000]),
    k=st.sampled_from([8, 64]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_max_clique_topk_matches_networkx(p, steps, k, seed):
    """The top-k clique has the size of networkx's largest maximal clique in
    the simple projection induced on the same candidates.  Fixed sizes from
    5 to 3000 steps put k above the vertex count and put degree ties at the
    cut."""
    nx = pytest.importorskip("networkx")
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
    deg = gr.degrees
    ids = [int(v) + 1 for v in np.lexsort((np.arange(1, deg.size + 1), -deg))[:k]]
    full = nx.Graph()
    full.add_nodes_from(range(1, gr.num_vertices + 1))
    full.add_edges_from(g.simple_edges(gr).tolist())
    expected = max(len(c) for c in nx.find_cliques(full.subgraph(ids)))
    assert len(g.max_clique_topk(gr, k)) == expected


@pytest.mark.parametrize("seed", range(8))
def test_max_clique_matches_subset_dp(seed):
    """Branch-and-bound equals the exhaustive DP on the same candidates."""
    gr = g.run(g.ProcessParams(p=0.5, steps=4000, seed=800 + seed)).graph
    k = 16
    got = g.max_clique_topk(gr, k)
    deg = gr.degrees
    order = np.lexsort((np.arange(1, deg.size + 1), -deg))[:k]
    ids = sorted(int(v) + 1 for v in order)
    masks = induced_adjacency(gr, ids)
    assert len(got) == dp_max_clique(len(ids), masks)


def test_max_clique_exact_above_128_candidates():
    """Branch and bound stays exact on candidate sets beyond 128 vertices."""
    nx = pytest.importorskip("networkx")
    gr = g.run(g.ProcessParams(p=0.2, steps=20_000, seed=6)).graph
    k = 200
    got = g.max_clique_topk(gr, k)
    deg = gr.degrees
    ids = [int(v) + 1 for v in np.lexsort((np.arange(1, deg.size + 1), -deg))[:k]]
    full = nx.Graph(g.simple_edges(gr).tolist())
    top = full.subgraph(ids)
    assert len(got) == max(len(c) for c in nx.find_cliques(top))
    assert top.subgraph(got).number_of_edges() == len(got) * (len(got) - 1) // 2
    assert g.is_clique(gr, ids).largest_clique_size == len(got)


def test_topk_ties_at_the_cut_go_to_the_smallest_ids():
    """On a complete graph every top-k set is a clique, so the result is
    exactly the selected ids; loops set the degrees, with many ties at
    every cut."""
    loops = [3, 0, 1, 1, 0, 1, 2, 1, 0, 1, 1, 2, 0, 1]
    n = len(loops)
    kn = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    ep = [x for u, v in kn for x in (u, v)]
    for v, count in enumerate(loops, start=1):
        ep += [v, v] * count
    gr = g.GlpGraph.from_endpoints(np.array(ep), p=0.5, seed=0)
    deg = gr.degrees
    assert np.array_equal(deg, n - 1 + 2 * np.array(loops))
    for k in range(1, n + 3):
        order = np.lexsort((np.arange(1, n + 1), -deg))[:k]
        assert g.max_clique_topk(gr, k) == tuple(sorted(int(v) + 1 for v in order))


# ----------------------------------------------------------------------
# triangles


def test_triangles_k4():
    k4 = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
    gr = graph_from_simple_edges(4, k4)
    assert g.count_triangles(gr) == 4


# Vertex counts at the key shift's boundaries: ranks run 0 .. V - 1, so
# the shift steps up between V = 2**k and 2**k + 1; ids run 0 .. V, so it
# steps between V = 2**k - 1 and 2**k.
_BOUNDARY_SIZES = sorted({2, 3} | {v for k in (2, 3, 4, 5, 6) for v in (2**k - 1, 2**k, 2**k + 1)})


def _wedge_counts(monkeypatch):
    """Record how many wedges each call of the wedge enumerator gets: the
    hub-table wedges first, then the searched ones."""
    wedges = []
    real = community._wedges

    def spy(first, later, hi):
        wedges.append(int(later[first].sum()))
        return real(first, later, hi)

    monkeypatch.setattr(community, "_wedges", spy)
    return wedges


def _check_complete_graphs(monkeypatch):
    """K_n has E = n(n-1)/2 >= n**2 / _HUB_BYTES edges, so every rank is a
    hub and every wedge closes in the table."""
    wedges = _wedge_counts(monkeypatch)
    for n in (*_BOUNDARY_SIZES, 30):
        kn = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        gr = graph_from_simple_edges(n, kn)
        assert g.count_triangles(gr) == n * (n - 1) * (n - 2) // 6
        assert wedges[-2:] == [n * (n - 1) * (n - 2) // 6, 0]


def test_triangles_complete_graphs_without_hubs(monkeypatch):
    """With no hub ranks every wedge of K_n is a key search, at every size
    where the key shift steps."""
    monkeypatch.setattr(community, "_HUB_BYTES", 0)
    for n in _BOUNDARY_SIZES:
        kn = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        assert g.count_triangles(graph_from_simple_edges(n, kn)) == math.comb(n, 3), n


def test_triangles_complete_graph_formula(monkeypatch):
    _check_complete_graphs(monkeypatch)


def test_triangles_complete_graph_in_tiny_wedge_chunks(monkeypatch):
    monkeypatch.setattr(community, "_WEDGE_CHUNK", 7)
    _check_complete_graphs(monkeypatch)


def test_triangles_tree_and_path():
    gr = g.run(g.ProcessParams(p=1.0, steps=2000, seed=7)).graph
    assert g.count_triangles(gr) == 0
    path = graph_from_simple_edges(10, [])
    assert g.count_triangles(path) == 0


def test_triangles_ignore_loops_and_parallels():
    tri = [(1, 3)]
    gr_simple = graph_from_simple_edges(3, tri)
    noisy = [1, 1, 1, 2, 2, 3, 1, 3, 1, 3, 2, 2, 3, 3, 2, 1]
    gr_noisy = g.GlpGraph.from_endpoints(np.array(noisy), p=0.5, seed=0)
    assert g.count_triangles(gr_noisy) == g.count_triangles(gr_simple) == 1


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]),
    steps=st.integers(min_value=0, max_value=3000),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_triangles_match_networkx(p, steps, seed):
    nx = pytest.importorskip("networkx")
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
    full = nx.Graph()
    full.add_nodes_from(range(1, gr.num_vertices + 1))
    full.add_edges_from(g.simple_edges(gr).tolist())
    assert g.count_triangles(gr) == sum(nx.triangles(full).values()) // 3


def _check_chord_path(monkeypatch, hub_bytes):
    """A path with a chord (i, i+2) at every third i has exactly one
    triangle per chord; its 70,001 wedges, one at each triangle's
    lowest-ranked corner and one open, fill more than one wedge chunk.
    The last chords are among the hub ranks; with no hub ranks, no wedge is
    a hub wedge."""
    monkeypatch.setattr(community, "_HUB_BYTES", hub_bytes)
    wedges = _wedge_counts(monkeypatch)
    n = 210_000
    chords = [(i, i + 2) for i in range(1, n - 1, 3)]
    gr = graph_from_simple_edges(n, chords)
    assert g.count_triangles(gr) == len(chords)
    assert (wedges[0] == 0) == (hub_bytes == 0) and wedges[1] > community._WEDGE_CHUNK


def test_triangles_across_row_blocks(monkeypatch):
    _check_chord_path(monkeypatch, community._HUB_BYTES)


def test_triangles_across_row_blocks_without_hubs(monkeypatch):
    _check_chord_path(monkeypatch, 0)


def test_triangles_in_tiny_wedge_chunks(monkeypatch):
    gr = g.run(g.ProcessParams(p=0.5, steps=50_000, seed=4)).graph
    whole = g.count_triangles(gr)
    monkeypatch.setattr(community, "_WEDGE_CHUNK", 7)
    assert g.count_triangles(gr) == whole > 0
    monkeypatch.setattr(community, "_HUB_BYTES", 0)
    assert g.count_triangles(gr) == whole


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("chunk", [None, 7])
def test_triangles_hub_table_agrees_with_search(monkeypatch, p, chunk):
    """No hub ranks (every wedge searched) and every rank a hub (every
    wedge from the table) give the default split's count."""
    gr = g.run(g.ProcessParams(p=p, steps=5000, seed=11)).graph
    whole = g.count_triangles(gr)
    if chunk:
        monkeypatch.setattr(community, "_WEDGE_CHUNK", chunk)
    wedges = _wedge_counts(monkeypatch)
    counts = []
    for hub_bytes in (0, gr.num_vertices**2):  # E >= 1, so isqrt(V**2 * E) >= V
        monkeypatch.setattr(community, "_HUB_BYTES", hub_bytes)
        counts.append(g.count_triangles(gr))
    assert counts == [whole, whole] and whole > 0
    assert wedges[0] == wedges[3] == 0 and wedges[1] == wedges[2] > 0


def test_triangles_peak_bytes_per_step():
    # The sorted edge keys (8 B per simple edge) with their rows, columns and
    # counts of later entries (4 B each), the hub table (at most 4 B per
    # simple edge) and the key sort's temporaries; one chunk of wedges is
    # fixed memory.  Measured 46 B/step.
    steps = 200_000
    gr = g.run(g.ProcessParams(p=0.5, steps=steps, seed=0)).graph
    tracemalloc.start()
    try:
        g.count_triangles(gr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / steps <= 60


def test_triangles_prefix_time():
    gr = g.run(g.ProcessParams(p=0.5, steps=3000, seed=8)).graph
    counts = [g.count_triangles(gr.at(t)) for t in (100, 1000, 3000)]
    assert counts == sorted(counts)
    assert counts[-1] == g.count_triangles(gr)


@pytest.mark.parametrize("hub_bytes", [community._HUB_BYTES, 0])
def test_triangles_chord_paths_at_shift_boundaries(monkeypatch, hub_bytes):
    """A path with a chord (i, i + 2) at every third i has one triangle per
    chord, at boundary sizes up to 2**17 + 1."""
    monkeypatch.setattr(community, "_HUB_BYTES", hub_bytes)
    for n in [*_BOUNDARY_SIZES, 2**17 - 1, 2**17, 2**17 + 1]:
        chords = [(i, i + 2) for i in range(1, n - 1, 3)]
        assert g.count_triangles(graph_from_simple_edges(n, chords)) == len(chords), n


def _simple_edge_set(graph):
    return sorted({(min(u, v), max(u, v)) for u, v in graph.edges().tolist() if u != v})


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    steps=st.integers(min_value=0, max_value=3000),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_simple_edges_match_a_set_of_tuples(p, steps, seed):
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
    edges = g.simple_edges(gr)
    assert edges.dtype == np.int64 and edges.shape == (edges.shape[0], 2)
    assert [tuple(e) for e in edges.tolist()] == _simple_edge_set(gr)


def test_simple_edges_at_shift_boundaries():
    for n in _BOUNDARY_SIZES:
        gr = graph_from_simple_edges(n, [(1, n), (2, n), (n - 1, 1)] if n > 2 else [])
        assert [tuple(e) for e in g.simple_edges(gr).tolist()] == _simple_edge_set(gr), n


# ----------------------------------------------------------------------
# simple projection plumbing


def test_simple_edges_canonical_unique():
    ep = [1, 1, 1, 2, 2, 1, 2, 3, 3, 3, 1, 3]
    gr = g.GlpGraph.from_endpoints(np.array(ep), p=0.5, seed=0)
    edges = g.simple_edges(gr)
    assert edges.tolist() == [[1, 2], [1, 3], [2, 3]]
    # idempotence: projecting the projection changes nothing
    again = []
    for u, v in edges:
        again.extend([u, v])
    gr2 = g.GlpGraph.from_endpoints(np.array(again), p=0.5, seed=0)
    assert g.simple_edges(gr2).tolist() == edges.tolist()


@pytest.mark.parametrize("p, steps, seed", [(0.5, 3000, 1), (0.2, 800, 2), (0.9, 400, 3)])
def test_edge_keys_match_isin_filter(p, steps, seed):
    gr = g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
    nv = gr.num_vertices
    rng = np.random.default_rng(seed)
    pairs = gr.endpoints.reshape(-1, 2)
    for size in (1, 2, 5, min(64, nv)):
        ids = np.unique(np.concatenate(([1, nv], rng.integers(1, nv + 1, size))))
        kept = pairs[np.isin(pairs[:, 0], ids) & np.isin(pairs[:, 1], ids)].astype(np.int64)
        u, v = kept.min(axis=1), kept.max(axis=1)
        # keys pack u above v's nv.bit_length() bits: ids run 0 .. nv
        want = np.unique(u[u != v] << nv.bit_length() | v[u != v])
        assert np.array_equal(_edge_keys(gr, ids), want)


def test_growth_experiment_rows():
    rows = []
    for seed in range(2):
        graph = g.run(g.ProcessParams(p=0.5, steps=4000, seed=seed)).graph
        rows += g.clique_growth_rows(graph, (1000, 2000), m=5, eps=0.1, eps_prime=0.05, topk=16)
    assert len(rows) == 4
    for r in rows:
        assert r.p == 0.5
        assert r.t in (1000, 2000)
        assert 0.0 <= r.pair_fraction <= 1.0
        assert 1 <= r.clique_size <= r.leader_count
        assert r.topk_clique_size >= 1
    by_seed = {}
    for r in rows:
        by_seed.setdefault(r.seed, []).append(r.t)
    assert all(sorted(ts) == [1000, 2000] for ts in by_seed.values())


def test_growth_rows_exact_above_141_leaders():
    """p=0.05 at t=10^5 selects about 150 leaders, more than 10,000 pairs."""
    gr = g.run(g.ProcessParams(p=0.05, steps=2 * 10**5, seed=1)).graph
    (row,) = g.clique_growth_rows(gr, [10**5], m=10, eps=0.1, eps_prime=0.05, topk=16)
    assert row.leader_count > 141
    assert 1 <= row.clique_size <= row.leader_count
    assert 0.0 < row.pair_fraction < 1.0


def _separate_rows(graph, t_values, m, eps, eps_prime, topk):
    """``clique_growth_rows`` from separate ``is_clique`` and
    ``max_clique_topk`` calls, each scanning for its own ids; and whether
    the leaders and the top-k ids overlap at each t."""
    rows, overlaps = [], []
    for t in t_values:
        j_lo, j_hi = g.leader_block_range(t, graph.p, eps, eps_prime)
        led = g.leaders(graph.at(t), m=m, j_lo=j_lo, j_hi=j_hi)
        later = graph.at(2 * t)
        rep = g.is_clique(later, led.vertices)
        top = g.max_clique_topk(later, topk)
        rows.append(g.GrowthRow(graph.p, graph.seed, t, j_lo, j_hi, int(led.vertices.size),
                                rep.pair_fraction, rep.largest_clique_size, len(top)))
        deg = later.degrees
        topk_ids = np.lexsort((np.arange(1, deg.size + 1), -deg))[:topk] + 1
        overlaps.append(bool(np.intersect1d(led.vertices, topk_ids).size))
    return rows, overlaps


def test_growth_rows_match_separate_clique_calls():
    """One scan for the union of both candidate sets gives the rows of two
    separate scans, when the sets overlap and when they are disjoint."""
    overlaps = []
    for p, seed, topk, eps_prime in [(0.5, 1, 64, 0.05), (0.25, 2, 16, 0.05), (0.75, 3, 64, 0.05),
                                     (0.5, 4, 1, 0.05), (0.1, 1, 3, 0.3), (0.9, 6, 8, 0.05)]:
        graph = g.run(g.ProcessParams(p=p, steps=20_000, seed=seed)).graph
        kw = dict(m=5, eps=0.1, eps_prime=eps_prime, topk=topk)
        ts = [t for t in (1000, 4000, 10_000) if _window_fills(graph, t, kw)]
        rows, seen = _separate_rows(graph, ts, **kw)
        assert g.clique_growth_rows(graph, ts, **kw) == rows
        overlaps += seen
    assert True in overlaps and False in overlaps


def _window_fills(graph, t, kw):
    """Whether the run holds every leader block of time ``t``."""
    try:
        j_lo, j_hi = g.leader_block_range(t, graph.p, kw["eps"], kw["eps_prime"])
        g.leaders(graph.at(t), kw["m"], j_lo, j_hi)
    except ParameterError:
        return False
    return True


@pytest.mark.parametrize("seed", range(4))
def test_clique_calls_read_keys_on_a_superset(seed):
    """Handed the edge keys of the whole graph, ``is_clique`` and the
    top-k clique search keep only the edges among their own ids."""
    gr = g.run(g.ProcessParams(p=0.5, steps=3000, seed=seed)).graph
    keys = _edge_keys(gr)
    rng = np.random.default_rng(seed)
    for size in (2, 10, 40):
        ids = rng.choice(np.arange(1, gr.num_vertices + 1), size, replace=False)
        assert g.is_clique(gr, ids, _keys=keys) == g.is_clique(gr, ids)
    for k in (1, 8, 64):
        assert _clique_among(gr, _topk_ids(gr, k), keys) == g.max_clique_topk(gr, k)


# ----------------------------------------------------------------------
# the library twin of the exit-code fuzz

# The exit-code fuzz's bad alphabet (``tests/test_cli.py``), both as the
# strings a command line passes and as the numbers they read as.
_BAD_TEXT = ["nan", "inf", "-inf", "-1", "0", "4.0", "1e400", str(2**64), "", "word", "1e-300"]


def _as_number(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


_BAD = [*_BAD_TEXT, *(_as_number(t) for t in _BAD_TEXT if _as_number(t) is not t), None]
_FUZZ_GRAPHS = [g.run(g.ProcessParams(p=p, steps=steps, seed=seed)).graph
                for p, steps, seed in ((0.5, 0, 1), (0.0, 20, 2), (1.0, 50, 3), (0.5, 300, 4),
                                       (0.2, 2500, 5))]
# Each public function's arguments after the graph (``leader_block_range`` takes
# none); ``_good_values`` gives the valid values of each.
_COMMUNITY_CALLS = {
    "count_triangles": (),
    "is_clique": ("vertices",),
    "max_clique_topk": ("k",),
    "leaders": ("m", "j_lo", "j_hi"),
    "leader_block_range": ("t", "p", "eps", "eps_prime"),
    "clique_growth_rows": ("t_values", "m", "eps", "eps_prime", "topk"),
}


def _good_values(graph):
    nv, half = graph.num_vertices, max(1, graph.t // 2)
    return {
        "vertices": st.lists(st.integers(1, nv), min_size=1, max_size=12),
        "k": st.integers(1, 70), "topk": st.integers(1, 70),
        "m": st.integers(1, 4), "j_lo": st.integers(1, 3), "j_hi": st.integers(3, 6),
        "t": st.sampled_from([1, 100, 1000, 10**4]), "p": st.sampled_from([0.25, 0.5, 0.75]),
        "eps": st.sampled_from([0.1, 0.2]), "eps_prime": st.sampled_from([0.0, 0.05]),
        "t_values": st.lists(st.integers(1, half), min_size=1, max_size=3),
    }


@st.composite
def _community_calls(draw):
    """A public ``community`` function on a small run, with valid values for
    its arguments, then up to two of them bad: a value from the bad
    alphabet, given alone or, for a list argument, inside a valid list."""
    name = draw(st.sampled_from(sorted(_COMMUNITY_CALLS)))
    graph = draw(st.sampled_from(_FUZZ_GRAPHS))
    names = _COMMUNITY_CALLS[name]
    good = _good_values(graph)
    args = {arg: draw(good[arg]) for arg in names}
    for arg in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)) if names else ():
        bad = draw(st.sampled_from(_BAD))
        if arg in ("vertices", "t_values") and draw(st.booleans()):
            bad = [*args[arg], bad]
        args[arg] = bad
    return name, graph, args


@settings(max_examples=300, deadline=None)
@given(call=_community_calls())
def test_community_raises_only_package_errors(call):
    """Whatever the values, a public ``community`` function returns or
    raises a ``GlpError``, and prints no warning."""
    name, graph, args = call
    fn = getattr(g, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(**args) if name == "leader_block_range" else fn(graph, **args)
        except GlpError:
            pass
