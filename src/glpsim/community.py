"""Leaders, cliques and triangles on the simple projection.

Everything here works on the simple projection of the multigraph: loops are
dropped and parallel edges collapse to one.  Adjacency is built on demand
for the vertex sets under study, never as a global (sparse) matrix.

Leaders are per-block maximum-degree vertices (ties broken toward the
smaller id).  Every function reads the graph it is given; to select leaders
at time ``t`` of a run and inspect their adjacency at ``2t``, pass
``graph.at(t)`` and then ``graph.at(2 * t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import process
from .analytics import derived_constants
from .errors import ParameterError

__all__ = [
    "LeaderSet",
    "leaders",
    "CliqueReport",
    "is_clique",
    "max_clique_topk",
    "count_triangles",
    "simple_edges",
    "GrowthRow",
    "clique_growth_rows",
]


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct keys ``lo*n + hi`` (``lo < hi < n``) of the non-loop
    pairs ``(u[i], v[i])``."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    key = np.multiply(lo[keep], n, dtype=np.int64)
    key += hi[keep]
    key.sort()
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return key[new]


def _edge_keys(graph: process.GlpGraph, ids: np.ndarray | None = None) -> np.ndarray:
    """Sorted distinct keys ``u*(V+1) + v`` (``u < v``) of the simple
    projection; with ``ids`` given, only the edges with both ends in it."""
    pairs = graph.edges()
    if ids is not None:
        member = np.zeros(graph.num_vertices + 1, dtype=bool)
        member[ids] = True
        pairs = pairs[member[pairs[:, 0]] & member[pairs[:, 1]]]
    return _pair_keys(pairs[:, 0], pairs[:, 1], graph.num_vertices + 1)


def simple_edges(graph: process.GlpGraph) -> np.ndarray:
    """Distinct non-loop edges as an (E, 2) array with u < v, in
    lexicographic order."""
    return np.column_stack(divmod(_edge_keys(graph), graph.num_vertices + 1))


@dataclass(frozen=True)
class LeaderSet:
    m: int
    j_lo: int
    j_hi: int
    t_ref: int
    vertices: np.ndarray
    degrees: np.ndarray


def leaders(graph: process.GlpGraph, m: int, j_lo: int, j_hi: int) -> LeaderSet:
    """Max-degree vertex of each block ``j_lo .. j_hi`` of ``graph``.

    Block ``j`` covers ids ``(j-1)*m + 1 .. j*m``.  Ties go to the smaller
    id.  ``m``, ``j_lo`` and ``j_hi`` must be integers (``4.0`` included)
    with ``1 <= j_lo <= j_hi``, and every block must be fully populated;
    ``t_ref`` is ``graph.t``.
    """
    m = process._check_int(m, "block width")
    j_lo = process._check_int(j_lo, "j_lo")
    j_hi = process._check_int(j_hi, "j_hi", j_lo)
    if j_hi * m > graph.num_vertices:
        raise ParameterError(
            f"block {j_hi} needs vertex {j_hi * m}, but only "
            f"{graph.num_vertices} vertices exist at t={graph.t}"
        )
    deg = graph.degrees  # deg[j-1] is vertex j
    lo = (j_lo - 1) * m + 1
    window = deg[lo - 1 : j_hi * m].reshape(j_hi - j_lo + 1, m)
    offsets = window.argmax(axis=1)  # argmax picks the first, hence smallest id
    ids = lo + np.arange(window.shape[0], dtype=np.int64) * m + offsets
    return LeaderSet(
        m=m,
        j_lo=j_lo,
        j_hi=j_hi,
        t_ref=graph.t,
        vertices=ids,
        degrees=deg[ids - 1].astype(np.int64),
    )


# ----------------------------------------------------------------------
# cliques


@dataclass(frozen=True)
class CliqueReport:
    candidate_count: int
    pair_fraction: float
    missing_pairs: tuple[tuple[int, int], ...]
    largest_clique_size: int


def _induced_masks(graph, ids: np.ndarray) -> list[int]:
    """Bitmask adjacency rows of the simple projection induced on the
    sorted ``ids``."""
    u, v = divmod(_edge_keys(graph, ids), graph.num_vertices + 1)
    pos_a = np.searchsorted(ids, u)
    pos_b = np.searchsorted(ids, v)
    masks = [0] * len(ids)
    for a, b in zip(pos_a.tolist(), pos_b.tolist()):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def _greedy_clique_mask(masks: list[int], order) -> int:
    clique = 0
    for v in order:
        if masks[v] & clique == clique:
            clique |= 1 << v
    return clique


def _max_clique_mask(masks: list[int]) -> int:
    """Exact maximum clique on bitmask adjacency, branch and bound.

    Candidates are greedily colored; the color count bounds the clique size
    reachable from a branch, and branches are expanded in reverse color
    order so strong bounds apply first.
    """
    n = len(masks)
    deg_order = sorted(range(n), key=lambda v: -masks[v].bit_count())
    best_mask = _greedy_clique_mask(masks, deg_order)
    best = best_mask.bit_count()

    def expand(r_mask: int, r_size: int, cand: int):
        nonlocal best, best_mask
        order: list[tuple[int, int]] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            q = rest
            while q:
                v = (q & -q).bit_length() - 1
                order.append((v, color))
                bit = 1 << v
                rest ^= bit
                q &= ~(masks[v] | bit)
        for v, color in reversed(order):
            if r_size + color <= best:
                return
            bit = 1 << v
            new_cand = cand & masks[v]
            if new_cand:
                expand(r_mask | bit, r_size + 1, new_cand)
            elif r_size + 1 > best:
                best = r_size + 1
                best_mask = r_mask | bit
            cand ^= bit
        return

    expand(0, 0, (1 << n) - 1)
    return best_mask


def is_clique(graph: process.GlpGraph, vertices) -> CliqueReport:
    """How close a vertex set is to a clique in the simple projection.

    Every candidate pair is counted.  The report carries the size of the
    largest complete subset (exact, by branch and bound) and the first 100
    missing pairs in lexicographic order.  Every id must be an integer
    (``4.0`` included), else ``ParameterError``.
    """
    src = np.asarray(vertices)
    if src.dtype == object:  # how numpy holds a list with an id of 2**64 or more
        raise ParameterError("candidate ids must be integers below 2**63")
    with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
        ids = src.astype(np.int64)
    if not np.array_equal(ids, src):
        raise ParameterError("candidate ids must be integers")
    ids = np.unique(ids)
    if ids.size < 1:
        raise ParameterError("empty candidate set")
    if ids.min() < 1 or ids.max() > graph.num_vertices:
        raise ParameterError("candidate ids outside the graph")
    s = int(ids.size)
    npairs = s * (s - 1) // 2
    if npairs == 0:
        return CliqueReport(1, 1.0, (), 1)

    masks = _induced_masks(graph, ids)
    present = sum(m.bit_count() for m in masks) // 2
    missing = []
    full = (1 << s) - 1
    for a in range(s - 1):
        gaps = (full ^ masks[a]) >> (a + 1)  # bit i set: pair (a, a + 1 + i) absent
        while gaps and len(missing) < 100:
            low = gaps & -gaps
            missing.append((int(ids[a]), int(ids[a + low.bit_length()])))
            gaps ^= low
    largest = _max_clique_mask(masks).bit_count()
    return CliqueReport(s, present / npairs, tuple(missing), largest)


def max_clique_topk(graph: process.GlpGraph, k: int) -> tuple[int, ...]:
    """Largest clique among the ``k`` highest-degree vertices.

    Candidates are ranked by degree in ``graph`` (ties toward the smaller
    id).  Exact branch and bound at any ``k``, which must be an integer
    ``>= 1``.  Returns the clique as a sorted id tuple.
    """
    deg = graph.degrees
    k = min(process._check_int(k, "k"), deg.size)
    kth = np.partition(deg, deg.size - k)[deg.size - k]  # the k-th largest degree
    above = np.flatnonzero(deg > kth)
    ties = np.flatnonzero(deg == kth)[: k - above.size]  # smallest ids first
    ids = np.sort(np.concatenate((above, ties))).astype(np.int64) + 1
    mask = _max_clique_mask(_induced_masks(graph, ids))
    return tuple(int(ids[i]) for i in range(k) if mask >> i & 1)


# ----------------------------------------------------------------------
# triangles


# Wedges tested per chunk of the triangle count; bounds its temporaries.
_WEDGE_CHUNK = 2**16


def count_triangles(graph: process.GlpGraph) -> int:
    """Triangle count of the simple projection, by wedge enumeration.

    Vertices are ranked by degree, ties to the smaller id (one sort of the
    distinct keys ``degree * V + id - 1``, which stay below ``2 * (t+1)**2
    < 2**63`` under ``MAX_STEPS``), and each edge is a row entry of its
    lower-ranked end.  Each triangle is then counted once, at its
    lowest-ranked corner: two entries ``a < b`` of a row form a wedge, which
    closes when ``(a, b)`` is an edge.  Any order gives the same count; the
    degree order keeps the wedges few on skewed graphs.  Wedges are tested
    ``_WEDGE_CHUNK`` at a time.
    """
    n = graph.num_vertices
    rank = np.empty(n + 1, dtype=np.int32)
    order = np.multiply(graph.degrees, n)
    order += np.arange(n)
    order.sort()
    order %= n  # the ids - 1, by rank
    rank[1:][order] = np.arange(n, dtype=np.int32)
    del order
    pairs = graph.edges()
    keys = _pair_keys(rank[pairs[:, 0]], rank[pairs[:, 1]], n)
    lo, hi = np.divmod(keys, n)
    # Edge e forms a wedge with each later edge of its row; ends[e] counts
    # the wedges of edges 0..e.
    ends = np.cumsum(np.cumsum(np.bincount(lo, minlength=n))[lo] - np.arange(1, lo.size + 1))
    total = a = done = 0
    while a < keys.size:
        b = max(a + 1, int(np.searchsorted(ends, done + _WEDGE_CHUNK, side="right")))
        c = np.diff(ends[a:b], prepend=done)
        # wedge w of the chunk pairs edge e with edge w + jump[e]
        jump = np.arange(a + 1, b + 1) - (ends[a:b] - c - done)
        q = np.repeat(hi[a:b] * n, c) + hi[np.arange(ends[b - 1] - done) + np.repeat(jump, c)]
        q.sort()  # sorted queries walk ``keys`` in order: fewer cache misses
        at = np.minimum(np.searchsorted(keys, q), keys.size - 1)
        total += int(np.count_nonzero(keys[at] == q))
        a, done = b, int(ends[b - 1])
    return total


# ----------------------------------------------------------------------
# growth experiment


@dataclass(frozen=True)
class GrowthRow:
    p: float
    seed: int
    t: int
    j_lo: int
    j_hi: int
    leader_count: int
    pair_fraction: float
    clique_size: int
    topk_clique_size: int


def leader_block_range(t: int, p: float, eps: float, eps_prime: float) -> tuple[int, int]:
    """Block index window ``[ceil(t**eps_prime), floor(t**alpha)]`` where
    ``alpha`` is the clique exponent of ``derived_constants(p, eps)``."""
    alpha = derived_constants(p, eps).clique_exponent
    if not (0.0 <= eps_prime < math.inf):
        raise ParameterError(f"eps_prime must be finite and >= 0, got {eps_prime}")
    j_lo = max(1, math.ceil(t**eps_prime))
    j_hi = math.floor(t**alpha)
    if j_hi < j_lo:
        raise ParameterError(
            f"empty block range at t={t}: [{j_lo}, {j_hi}] (p={p}, eps={eps})"
        )
    return j_lo, j_hi


# Defaults of the clique growth parameters, shared by the ensemble and the
# command line.
CLIQUE_DEFAULTS = {"m": 10, "eps": 0.1, "eps_prime": 0.05, "topk": 64}


def clique_growth_rows(
    graph: process.GlpGraph, t_values, m: int, eps: float, eps_prime: float, topk: int
) -> list[GrowthRow]:
    """Leader clique density and top-degree clique size of one run.

    For each ``t``, leaders are selected from the degrees at time ``t`` and
    their pairwise adjacency is read from the state at time ``2t``, as is
    the clique among the ``topk`` highest-degree vertices; the run must
    therefore reach ``2 * max(t)``.
    """
    rows = []
    for t in t_values:
        j_lo, j_hi = leader_block_range(t, graph.p, eps, eps_prime)
        led = leaders(graph.at(t), m=m, j_lo=j_lo, j_hi=j_hi)
        later = graph.at(2 * t)
        rep = is_clique(later, led.vertices)
        top = max_clique_topk(later, topk)
        rows.append(
            GrowthRow(
                p=graph.p,
                seed=graph.seed,
                t=t,
                j_lo=j_lo,
                j_hi=j_hi,
                leader_count=int(led.vertices.size),
                pair_fraction=rep.pair_fraction,
                clique_size=rep.largest_clique_size,
                topk_clique_size=len(top),
            )
        )
    return rows
