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

from . import _EXPORTS, process
from .analytics import derived_constants
from .errors import ParameterError

__all__ = _EXPORTS["community"]


# Index entries per ``take`` of ``_gather``: ``take`` copies an int32 index to
# intp, and a chunk bounds that copy at 512 KiB.
_GATHER_CHUNK = 2**16


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table.take(index)``, a ``_GATHER_CHUNK`` of the index at a time."""
    out = np.empty(index.size, dtype=table.dtype)
    for a in range(0, index.size, _GATHER_CHUNK):
        table.take(index[a : a + _GATHER_CHUNK], out=out[a : a + _GATHER_CHUNK])
    return out


def _shift(n: int) -> int:
    """Bits of the low half of a pair key over the range ``0 .. n - 1``:
    ``(n - 1).bit_length()``, at least 1.  Ids and ranks stay below
    ``2**31`` under ``MAX_STEPS``, so a key stays below ``2**62``."""
    return max(1, (n - 1).bit_length())


def _pair_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct keys ``lo << s | hi`` (``lo < hi < n``, ``s =
    _shift(n)``) of the non-loop pairs ``(u[i], v[i])``; their order is
    the lexicographic order of the pairs."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    key = np.left_shift(lo[keep], _shift(n), dtype=np.int64)
    key |= hi[keep]
    key.sort()
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return key[new]


def _edge_keys(graph: process.GlpGraph, ids: np.ndarray | None = None) -> np.ndarray:
    """Sorted distinct keys ``u << s | v`` (``u < v``, ``s = _shift(V +
    1)``) of the simple projection; with ``ids`` given, only the edges with
    both ends in it."""
    ep = graph.endpoints
    u, v = ep[0::2], ep[1::2]
    if ids is not None:
        member = np.zeros(graph.num_vertices + 1, dtype=bool)
        member[ids] = True
        both = _gather(member, ep)
        both = both[0::2] & both[1::2]
        u, v = u[both], v[both]
    return _pair_keys(u, v, graph.num_vertices + 1)


def _edge_ends(keys: np.ndarray, graph: process.GlpGraph) -> tuple[np.ndarray, np.ndarray]:
    """The ends ``(u, v)`` of ``graph``'s edge keys, as int64 arrays."""
    s = _shift(graph.num_vertices + 1)
    return keys >> s, keys & ((1 << s) - 1)


def simple_edges(graph: process.GlpGraph) -> np.ndarray:
    """Distinct non-loop edges as an (E, 2) array with u < v, in
    lexicographic order."""
    return np.column_stack(_edge_ends(_edge_keys(graph), graph))


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


def _induced_masks(graph, ids: np.ndarray, keys: np.ndarray | None = None) -> list[int]:
    """Bitmask adjacency rows of the simple projection induced on the
    sorted ``ids``, read from ``keys``: ``graph``'s edge keys on a superset
    of ``ids`` (``_edge_keys``), by default those on ``ids`` itself."""
    u, v = _edge_ends(_edge_keys(graph, ids) if keys is None else keys, graph)
    pos_a = np.searchsorted(ids, u)
    pos_b = np.searchsorted(ids, v)
    both = ids.take(pos_a, mode="clip") == u
    both &= ids.take(pos_b, mode="clip") == v
    masks = [0] * len(ids)
    for a, b in zip(pos_a[both].tolist(), pos_b[both].tolist()):
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


def is_clique(graph: process.GlpGraph, vertices, *, _keys=None) -> CliqueReport:
    """How close a vertex set is to a clique in the simple projection.

    Every candidate pair is counted.  The report carries the size of the
    largest complete subset (exact, by branch and bound) and the first 100
    missing pairs in lexicographic order.  Every id must be an integer
    (``4.0`` included), else ``ParameterError``.  ``_keys``, which only
    ``clique_growth_rows`` passes, is ``_edge_keys`` of ``graph`` on a
    superset of the ids.
    """
    ids = np.unique(process._int_array(vertices, np.int64, "candidate ids"))
    if ids.size < 1:
        raise ParameterError("empty candidate set")
    if ids.min() < 1 or ids.max() > graph.num_vertices:
        raise ParameterError("candidate ids outside the graph")
    s = int(ids.size)
    npairs = s * (s - 1) // 2
    if npairs == 0:
        return CliqueReport(1, 1.0, (), 1)

    masks = _induced_masks(graph, ids, _keys)
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


def _topk_ids(graph: process.GlpGraph, k) -> np.ndarray:
    """The sorted ids of the ``k`` highest-degree vertices (ties toward the
    smaller id), or all of them when ``k`` exceeds the vertex count."""
    deg = graph.degrees
    k = min(process._check_int(k, "k"), deg.size)
    kth = np.partition(deg, deg.size - k)[deg.size - k]  # the k-th largest degree
    above = np.flatnonzero(deg > kth)
    ties = np.flatnonzero(deg == kth)[: k - above.size]  # smallest ids first
    return np.sort(np.concatenate((above, ties))).astype(np.int64) + 1


def max_clique_topk(graph: process.GlpGraph, k: int, *, _keys=None) -> tuple[int, ...]:
    """Largest clique among the ``k`` highest-degree vertices.

    Candidates are ranked by degree in ``graph`` (ties toward the smaller
    id).  Exact branch and bound at any ``k``, which must be an integer
    ``>= 1``.  Returns the clique as a sorted id tuple.  ``_keys`` is as in
    ``is_clique``.
    """
    ids = _topk_ids(graph, k)
    mask = _max_clique_mask(_induced_masks(graph, ids, _keys))
    return tuple(int(ids[i]) for i in range(ids.size) if mask >> i & 1)


# ----------------------------------------------------------------------
# triangles


# Wedges tested per chunk of the triangle count; bounds its temporaries.
_WEDGE_CHUNK = 2**16
# Bytes of the triangle count's hub table per simple edge: the top
# ``H = isqrt(_HUB_BYTES * E)`` ranks get an ``H x H`` boolean adjacency table.
_HUB_BYTES = 4


def _wedges(first: np.ndarray, later: np.ndarray, hi: np.ndarray):
    """The wedges that start at the row entries ``first``, as chunks of
    ``(hi[e], hi[f])`` column pairs: entry ``e`` forms a wedge with each of
    the ``later[e]`` entries ``f`` after it in its row.  About
    ``_WEDGE_CHUNK`` wedges a chunk."""
    ends = np.cumsum(later.take(first), dtype=np.int64)  # the wedges of first[:i + 1]
    a = done = 0
    while a < first.size:
        b = max(a + 1, int(np.searchsorted(ends, done + _WEDGE_CHUNK, side="right")))
        e = first[a:b]
        c = later.take(e)
        # wedge w of the chunk pairs entry e[i] with entry w + jump[i]
        jump = e + 1 - (ends[a:b] - c - done)
        yield np.repeat(hi.take(e), c), hi.take(
            np.arange(ends[b - 1] - done) + np.repeat(jump, c))
        a, done = b, int(ends[b - 1])


def count_triangles(graph: process.GlpGraph) -> int:
    """Triangle count of the simple projection, by wedge enumeration.

    Vertices are ranked by degree, ties to the smaller id (one sort of the
    distinct keys ``degree << s | id - 1`` with ``s = _shift(V)``: a degree
    stays below ``2**32`` and ``s <= 31`` under ``MAX_STEPS``, so a key
    stays below ``2**63``), and each edge is a row entry of its
    lower-ranked end.  Each triangle is then counted once, at its
    lowest-ranked corner: two entries ``a < b`` of a row form a wedge, which
    closes when ``(a, b)`` is an edge.  Any order gives the same count; the
    degree order keeps the wedges few on skewed graphs.

    A row's entries are sorted, so a wedge whose ``a`` is among the top
    ``H`` ranks (``H`` from ``_HUB_BYTES``) has ``b`` there too; on a
    skewed graph most wedges are such hub wedges, and each closes with one
    lookup in an ``H x H`` table of the edges among those ranks.  Every
    other wedge is a binary search among the sorted edge keys ``a << s | b``
    (``s = _shift(V)``).  Wedges are tested ``_WEDGE_CHUNK`` at a time.
    """
    n = graph.num_vertices
    s = _shift(n)
    rank = np.empty(n + 1, dtype=np.int32)
    order = np.left_shift(graph.degrees, s)
    order |= np.arange(n)
    order.sort()
    order &= (1 << s) - 1  # the ids - 1, by rank
    rank[1:][order] = np.arange(n, dtype=np.int32)
    del order
    ranked = _gather(rank, graph.endpoints)  # the endpoints, as ranks
    keys = _pair_keys(ranked[0::2], ranked[1::2], n)
    del ranked
    lo = np.empty(keys.size, dtype=np.int32)  # each entry's row
    hi = np.empty(keys.size, dtype=np.int32)  # and column
    np.right_shift(keys, s, out=lo, casting="unsafe")
    np.bitwise_and(keys, (1 << s) - 1, out=hi, casting="unsafe")
    later = _gather(np.cumsum(np.bincount(lo, minlength=n)).astype(np.int32), lo)
    later -= np.arange(1, keys.size + 1, dtype=np.int32)  # entries after it in its row
    h = min(n, math.isqrt(_HUB_BYTES * keys.size))
    base = n - h  # the lowest hub rank
    top = int(np.searchsorted(keys, base << s))  # the first edge of a row >= base
    table = np.zeros((h, h), dtype=bool)
    table[lo[top:] - base, hi[top:] - base] = True
    table = table.ravel()
    del lo
    starts = later > 0  # the entries that start a wedge
    hub = hi >= base
    hub &= starts
    starts ^= hub
    total = 0
    for a, b in _wedges(np.flatnonzero(hub), later, hi):
        a -= base
        b -= base
        at = np.multiply(a, h, dtype=np.int64)  # (a - base) * h overflows int32 past h = 46,340
        at += b
        total += int(np.count_nonzero(table.take(at)))
    for a, b in _wedges(np.flatnonzero(starts), later, hi):
        q = np.left_shift(a, s, dtype=np.int64)
        q |= b
        q.sort()  # sorted queries walk ``keys`` in order: fewer cache misses
        at = np.minimum(np.searchsorted(keys, q), keys.size - 1)
        total += int(np.count_nonzero(keys.take(at) == q))
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
    ``alpha`` is the clique exponent of ``derived_constants(p, eps)``; ``t``
    must be an integer ``>= 0`` (``4.0`` included)."""
    alpha = derived_constants(p, eps).clique_exponent
    try:
        ok = 0.0 <= eps_prime < math.inf
    except TypeError:  # a string or None
        ok = False
    if not ok:
        raise ParameterError(f"eps_prime must be finite and >= 0, got {eps_prime}")
    t = process._check_int(t, "t", 0)
    try:  # in floats: an int power of an int would be computed exactly
        j_lo = max(1, math.ceil(float(t) ** eps_prime))
    except OverflowError:
        raise ParameterError(f"empty block range at t={t}: t**eps_prime overflows a float "
                             f"(eps_prime={eps_prime})") from None
    j_hi = math.floor(t**alpha)
    if j_hi < j_lo:
        raise ParameterError(
            f"empty block range at t={t}: [{j_lo}, {j_hi}] (p={p}, eps={eps})"
        )
    return j_lo, j_hi


# Defaults of the clique growth parameters, shared by the ensemble and the
# command line.
CLIQUE_DEFAULTS = {"m": 10, "eps": 0.1, "eps_prime": 0.05, "topk": 64}


def _check_clique(p_grid, t_values, m, eps, eps_prime, topk) -> None:
    """``ParameterError`` unless ``m`` and ``topk`` are integers ``>= 1`` and
    every ``(p, t)`` has a leader window that a run can fill: block ``j_hi``
    needs vertex ``j_hi * m``, and a run holds at most ``t + 1`` vertices at
    time ``t``.  The ensemble and ``glp clique`` call this before any run."""
    m = process._check_int(m, "m")
    process._check_int(topk, "topk")
    for p in p_grid:
        for t in t_values:
            j_hi = leader_block_range(t, p, eps, eps_prime)[1]
            if j_hi * m > t + 1:
                raise ParameterError(f"block {j_hi} needs vertex {j_hi * m}, but a run "
                                     f"holds at most {t + 1} vertices at t={t}")


def clique_growth_rows(
    graph: process.GlpGraph, t_values, m: int, eps: float, eps_prime: float, topk: int
) -> list[GrowthRow]:
    """Leader clique density and top-degree clique size of one run.

    For each ``t``, leaders are selected from the degrees at time ``t`` and
    their pairwise adjacency is read from the state at time ``2t``, as is
    the clique among the ``topk`` highest-degree vertices, with one scan of
    that state's edges for both sets; the run must therefore reach
    ``2 * max(t)``.
    """
    try:
        t_values = list(t_values)
    except TypeError:
        raise ParameterError(f"t_values must be a collection of times, got {t_values!r}") from None
    rows = []
    for t in t_values:
        j_lo, j_hi = leader_block_range(t, graph.p, eps, eps_prime)
        led = leaders(graph.at(t), m=m, j_lo=j_lo, j_hi=j_hi)
        later = graph.at(2 * t)
        # one induced scan serves both candidate sets
        keys = _edge_keys(later, np.concatenate((led.vertices, _topk_ids(later, topk))))
        rep = is_clique(later, led.vertices, _keys=keys)
        top = max_clique_topk(later, topk, _keys=keys)
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
