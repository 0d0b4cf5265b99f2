import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glpsim as g
from glpsim import community
from glpsim.community import _edge_keys
from glpsim.errors import ParameterError


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


def test_triangles_complete_graph_formula():
    for n in (5, 7):
        kn = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        gr = graph_from_simple_edges(n, kn)
        assert g.count_triangles(gr) == n * (n - 1) * (n - 2) // 6


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


def test_triangles_across_row_blocks():
    """A path with a chord (i, i+2) at every third i has exactly one
    triangle per chord; its 70,000 wedges, one at each triangle's
    lowest-ranked corner, fill more than one wedge chunk."""
    n = 210_000
    chords = [(i, i + 2) for i in range(1, n - 1, 3)]
    gr = graph_from_simple_edges(n, chords)
    assert g.count_triangles(gr) == len(chords)


def test_triangles_in_tiny_wedge_chunks(monkeypatch):
    gr = g.run(g.ProcessParams(p=0.5, steps=50_000, seed=4)).graph
    whole = g.count_triangles(gr)
    monkeypatch.setattr(community, "_WEDGE_CHUNK", 7)
    assert g.count_triangles(gr) == whole > 0


def test_triangles_peak_bytes_per_step():
    # The sorted edge keys with their rows, columns and running wedge counts
    # (8 B each per simple edge) and the key sort's temporaries; one chunk of
    # wedges is fixed memory.  Measured 51 B/step.
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
        want = np.unique(u[u != v] * (nv + 1) + v[u != v])
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
