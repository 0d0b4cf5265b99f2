"""Growth process with degree-proportional attachment and edge-steps.

The process starts from a single vertex carrying one loop.  At every step,
with probability ``p`` a new vertex joins and attaches to an existing vertex
chosen proportionally to degree (a vertex-step); otherwise an extra edge is
drawn between two existing vertices, each endpoint chosen independently and
proportionally to degree (an edge-step).  Loops and parallel edges are kept.

The multigraph is stored as a flat sequence of edge endpoints, two entries
per edge.  A vertex appears in that sequence exactly ``degree`` times, so
degree-proportional sampling is just a uniform draw of one slot.  That
representation is what makes full runs vectorizable: the slot count after
``t`` steps is deterministically ``2*(t+1)``, so every slot index's bound is
known before any kind is drawn, and whole blocks of steps are drawn at once.

Randomness comes from numpy's PCG64 bit generator, a fixed published
algorithm whose stream for a given seed is identical on every platform.
``run`` consumes the stream in a fixed documented layout (see its docstring),
so identical ``(p, steps, seed)`` reproduce identical endpoint sequences.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError, ParseError, UnknownVertexError

__all__ = [
    "MAX_STEPS",
    "ProcessParams",
    "Snapshot",
    "RunResult",
    "GlpGraph",
    "make_rng",
    "step_kinds",
    "sample_endpoint",
    "run",
    "replicas",
    "export_edges",
    "read_edges",
]

# Vertex ids are 32-bit and the slot count must stay below 2**32.
MAX_STEPS = 2**31 - 3


def _integral(x, lo=0, hi=math.inf) -> bool:
    """Whether ``x`` is an integer, ``4.0`` included, in ``[lo, hi)``; NaN and
    the infinities fail the range test before ``int()``."""
    return lo <= x < hi and int(x) == x


def _check_int(x, what: str, lo: int = 1) -> int:
    """``x`` as an int, or ``ParameterError`` unless ``_integral(x, lo)``."""
    if not _integral(x, lo):
        raise ParameterError(f"{what} must be >= {lo} and an integer, got {x!r}")
    return int(x)


def _time_grid(times, what: str) -> list[int]:
    """``times`` sorted, as ints, or ``ParameterError`` naming them ``what``
    unless they are a non-empty collection of non-negative integers."""
    grid = sorted(times)
    if not grid or not all(_integral(t) for t in grid):
        raise ParameterError(f"{what} must be non-empty non-negative integers, got {grid}")
    return [int(t) for t in grid]


def _check_seed(seed) -> int:
    if not _integral(seed, 0, 2**64):
        raise ParameterError(f"seed must be a 64-bit natural, got {seed!r}")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-wide generator: PCG64 seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(_check_seed(seed)))


def _check_p(p: float) -> float:
    p = float(p)
    if not (0.0 <= p <= 1.0):  # also rejects NaN
        raise ParameterError(f"p must lie in [0, 1], got {p!r}")
    return p


@dataclass(frozen=True)
class ProcessParams:
    """Immutable description of one run.

    Parameters
    ----------
    p : float
        Vertex-step probability, in [0, 1].
    steps : int
        Number of growth steps; 0 yields just the initial graph.
    seed : int
        64-bit seed; replica ``r`` of an ensemble uses ``seed + r``.
    snapshot_times : tuple of int
        Strictly increasing times (each <= steps) at which the run records
        the maximum degree.
    """

    p: float
    steps: int
    seed: int
    snapshot_times: tuple[int, ...] = ()

    def __post_init__(self):
        _check_p(self.p)
        if self.steps > MAX_STEPS:  # also inf
            raise CapacityError(f"steps={self.steps} exceeds the 32-bit id budget ({MAX_STEPS})")
        if not _integral(self.steps):
            raise ParameterError(f"steps must be a non-negative integer, got {self.steps!r}")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        times = list(self.snapshot_times)
        increasing = all(a < b for a, b in zip(times, times[1:]))
        if not increasing or not all(_integral(t, 0, self.steps + 1) for t in times):
            raise ParameterError(f"snapshot times must be strictly increasing integers in "
                                 f"[0, {self.steps}], got {times}")


@dataclass(frozen=True)
class Snapshot:
    t: int
    max_degree: int


@dataclass
class RunResult:
    graph: "GlpGraph"
    snapshots: list[Snapshot]


class GlpGraph:
    """Multigraph produced by the growth process, built whole by ``run`` or
    ``from_endpoints`` and read-only afterwards.

    Edge ``i`` (0-based) occupies endpoint slots ``2i`` and ``2i+1``; slot
    pairs appear in creation order, so the prefix of the first ``2*(t+1)``
    slots is exactly the state of this run at time ``t``, which ``at(t)``
    returns as a graph.  Vertex ids are 1-based and assigned in arrival
    order, so a vertex arrives at the step of its first slot and the largest
    id of a prefix is its vertex count.

    Every graph, however built, keeps its int32 endpoints (8 bytes per
    step) and vertex count.  Its int64 degrees (8 bytes per vertex) are
    counted when ``degrees``, ``degree`` or ``max_degree`` first reads them
    and kept, so a caller that reads only the endpoints never pays for them.
    """

    __slots__ = ("p", "seed", "_ep", "_nv", "_deg")

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def _from_arrays(cls, p, seed, endpoints, nv: int) -> "GlpGraph":
        g = cls.__new__(cls)
        g.p, g.seed, g._ep, g._nv, g._deg = _check_p(p), _check_seed(seed), endpoints, nv, None
        return g

    @classmethod
    def from_endpoints(cls, endpoints, p: float = 0.5, seed: int = 0) -> "GlpGraph":
        """Wrap an explicit endpoint sequence (analysis helper and importer).

        Ids must be int32 values that form a contiguous range 1..V ordered by
        first appearance.  The graph keeps an int32 copy of them.
        """
        src = np.asarray(endpoints)
        if src.ndim != 1 or src.size < 2 or src.size % 2:
            raise ParameterError("endpoint sequence must be flat with even length >= 2")
        if src.dtype == object:  # how numpy holds a list with an id of 2**64 or more
            raise ParameterError("vertex ids must be integers below 2**31")
        if src.min() < 1:
            raise ParameterError("vertex ids must be >= 1")
        with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
            ep = src.astype(np.int32)
        # In first-appearance order the running maximum (0 before slot 0)
        # rises by at most 1 a slot.  That is enough: each rise is at a slot
        # holding the new maximum, so all ids 1..V appear (V the last maximum)
        # and V <= slots.  The int32 diffs skip ``np.diff``'s int64 prepend.
        top = 0
        for a in range(0, ep.size, _BLOCK):
            if not np.array_equal(ep[a : a + _BLOCK], src[a : a + _BLOCK]):
                raise ParameterError("vertex ids must be integers below 2**31")
            r = np.maximum.accumulate(ep[a : a + _BLOCK])
            np.maximum(r, top, out=r)
            if r[0] > top + 1 or (r[1:] - r[:-1] > 1).any():
                raise ParameterError(
                    "vertex ids must form a contiguous range 1..V ordered by first appearance")
            top = int(r[-1])
        return cls._from_arrays(p, seed, ep, top)

    # ------------------------------------------------------------------
    # queries

    @property
    def t(self) -> int:
        """Number of steps taken so far."""
        return self._ep.size // 2 - 1

    @property
    def num_vertices(self) -> int:
        return self._nv

    def _degrees(self) -> np.ndarray:
        """Degrees indexed by id ``0..V``, counted on first use."""
        if self._deg is None:
            self._deg = _count_degrees(self._ep, self._nv)
        return self._deg

    @property
    def endpoints(self) -> np.ndarray:
        """Flat endpoint sequence, two slots per edge, read-only view."""
        view = self._ep[:]
        view.flags.writeable = False
        return view

    @property
    def degrees(self) -> np.ndarray:
        """Degrees indexed by vertex: ``degrees[j-1]`` is vertex ``j``, read-only."""
        view = self._degrees()[1:]
        view.flags.writeable = False
        return view

    def edges(self) -> np.ndarray:
        """Edge list as an (E, 2) array in creation order."""
        return self.endpoints.reshape(-1, 2)

    def _vertex(self, j) -> int:
        """``j`` as an int, or ``UnknownVertexError`` if it is no vertex id."""
        if not _integral(j, 1, self._nv + 1):
            raise UnknownVertexError(j)
        return int(j)

    def degree(self, v: int) -> int:
        return int(self._degrees()[self._vertex(v)])

    def total_degree(self) -> int:
        return self._ep.size

    def max_degree(self) -> int:
        return int(self._degrees()[1:].max())

    def gain_steps(self, lo: int, hi: int) -> np.ndarray:
        """Sorted int64 steps at which a vertex with an id in ``lo..hi`` gains
        degree, one entry per endpoint slot that holds such an id.

        Slot ``s`` is written at step ``s // 2`` (the initial loop at step
        0), so the range's degree at time ``t`` is the number of entries
        ``<= t``.  The slots are read ``_BLOCK`` at a time, so no temporary
        outgrows one chunk, and a run of fewer than ``_BLOCK // 2`` steps is
        one chunk.  ``lo`` and ``hi`` must be integers ``>= 1``; a range that
        holds no vertex gives an empty array.
        """
        lo, hi = _check_int(lo, "lo"), _check_int(hi, "hi")
        parts = []
        for a in range(0, self._ep.size, _BLOCK):
            chunk = self._ep[a : a + _BLOCK]
            slots = np.flatnonzero(chunk == lo if lo == hi else (chunk >= lo) & (chunk <= hi))
            slots += a
            parts.append(slots)
        steps = parts[0] if len(parts) == 1 else np.concatenate(parts)
        steps >>= 1
        return steps

    def arrival_time(self, j: int) -> int:
        """Step at which vertex ``j`` was created, its first degree gain;
        vertex 1 arrives at 0."""
        j = self._vertex(j)
        return int(self.gain_steps(j, j)[0])

    def at(self, t: int) -> "GlpGraph":
        """The graph as it stood at time ``t`` of this run.

        Its endpoint sequence is a view of this graph's first ``2*(t+1)``
        slots; its vertex count is the largest id there, and its degrees are
        counted afresh when first read.  ``at(self.t)`` is ``self``.
        """
        if t == self.t:
            return self
        if not _integral(t, 0, self.t + 1):
            raise ParameterError(f"time {t} outside the integers 0..{self.t}")
        ep = self._ep[: 2 * (int(t) + 1)]
        return GlpGraph._from_arrays(self.p, self.seed, ep, int(ep.max()))


def _count_degrees(endpoints: np.ndarray, nv: int) -> np.ndarray:
    """int64 degrees indexed by id ``0..nv`` of endpoints in ``[1, nv]``;
    ``np.add.at`` reads the int32 endpoints in place, with no intp copy."""
    degrees = np.zeros(nv + 1, dtype=np.int64)
    np.add.at(degrees, endpoints, 1)
    return degrees


def sample_endpoint(graph: GlpGraph, rng: np.random.Generator) -> int:
    """Draw one vertex with probability degree / total degree.

    One uniform slot of the endpoint sequence is drawn (a single bounded
    integer from the stream), so the probability of returning ``v`` is
    exactly ``degree(v) / (2*(t+1))``.
    """
    return int(graph._ep[rng.integers(0, graph._ep.size)])


# Slot blocks of the resolver that start below ``_DRAW_CUTOFF`` end at the
# multiples of ``_BLOCK // 2``, later ones at the multiples of ``_BLOCK``,
# except that a remainder shorter than half the current block joins it.  A
# whole block's int64 pointers (512 KiB) and temporaries fit in a 2 MiB L2.
# Half blocks halve the working set of short runs, where it weighs most
# beside the endpoints; past the cutoff, whole blocks halve the number of
# DRAM-bound ``rng.integers`` draws.
# ``_BLOCK`` is also the chunk of kind uniforms and of the endpoint scans.
# Blocks ending at most ``_DRAW_CUTOFF`` slots draw their slot indices with
# ``_slot_draws``; above it Lemire rejections (about one per 2**33 / bound
# draws) restart its windows so often that ``rng.integers`` is faster.
_BLOCK = 2**16
_DRAW_CUTOFF = 2**19

# ``_slot_draws`` works through the uint32 stream this many draws at a time,
# so its uint64 temporaries stay in cache.
_DRAW_WINDOW = 2**14
_EVEN = np.arange(_DRAW_WINDOW + 1, dtype=np.uint64) & np.uint64(2**64 - 2)
_LOW32 = np.uint64(2**32 - 1)


def _slot_draws(rng: np.random.Generator, lo: int, hi: int, out=None) -> np.ndarray:
    """``rng.integers(0, np.arange(lo, hi) & ~1)``, values and stream alike,
    for ``2 <= lo < hi < 2**32``, written into ``out`` (a new int64 array
    of ``hi - lo`` entries if not given) and returned.

    numpy draws a bound ``b < 2**32`` by Lemire's method: a uint32 ``x``
    gives ``m = x * b`` and the value ``m >> 32``, and the draw takes the
    next uint32 instead while ``m % 2**32 < 2**32 % b``.  Each PCG64 output
    supplies two uint32, low half first; an unused high half waits in the
    state (``has_uint32``, ``uinteger``).  Here a window of draws is
    computed at once in two uint64 windows, the bounds and the products,
    plus a bool mask: the values ``m >> 32`` go straight into ``out``, and
    the products are then cut to ``m % 2**32`` in place.  Only the mask's
    rare candidates (``m % 2**32 < b``) get the modulo.  A rejection
    restarts the window at the rejected draw, one uint32 further on.  Raw
    outputs are taken only as they are needed, and the buffered half is
    written back at the end, so the generator's state ends exactly where
    numpy's would.
    """
    bg = rng.bit_generator
    state = bg.state
    last = state["uinteger"]
    carry = np.array([last] if state["has_uint32"] else [], dtype=np.uint32)
    if out is None:
        out = np.empty(hi - lo, dtype=np.int64)
    size = min(_DRAW_WINDOW, hi - lo)  # no window outgrows a short block
    bounds = np.empty(size, dtype=np.uint64)
    m = np.empty(size, dtype=np.uint64)
    small = np.empty(size, dtype=bool)
    i = lo
    while i < hi:
        w = min(_DRAW_WINDOW, hi - i)
        need = w - carry.size
        if need > 0:
            raw = bg.random_raw((need + 1) // 2).astype("<u8", copy=False).view("<u4")
            x = np.concatenate((carry, raw)) if carry.size else raw
        else:
            x = carry
        odd = i & 1
        bw, mw = bounds[:w], m[:w]
        np.add(_EVEN[odd : odd + w], i - odd, out=bw)  # (i + k) & ~1
        np.multiply(x[:w], bw, out=mw)
        # Every value is written; those past a rejection are written again
        # by the next window.  The products then keep only their low halves.
        np.right_shift(mw, 32, out=out[i - lo : i - lo + w].view(np.uint64))
        np.bitwise_and(mw, _LOW32, out=mw)
        cand = np.flatnonzero(np.less(mw, bw, out=small[:w]))
        rejected = cand[mw[cand] < np.uint64(2**32) % bw[cand]]
        n = int(rejected[0]) if rejected.size else w
        carry = x[n + (n < w) :].copy()  # frees the window's raw draws
        last = x[-1]
        i += n
    # Every uint32 drawn but ``carry`` is used; the stream's last element
    # is a high half, which numpy keeps in ``uinteger`` even once it is used.
    state = bg.state
    state["has_uint32"] = int(carry.size)
    state["uinteger"] = int(last)
    bg.state = state
    return out


def _follow(ptr, act, base: int) -> None:
    """Follow the pointers ``ptr[act]`` in place until each reaches a root or
    a slot below ``base``.

    ``ptr[i]`` is the pointer of slot ``base + i``; it holds a slot index,
    and a root holds its own.  Each round moves every pointer in ``act``
    to its target's pointer, ``ptr[s] = ptr[ptr[s]]``, which doubles the
    distance it has come, and keeps only those that have not yet stopped.
    """
    while act.size:
        cur = ptr[act]
        cur -= base
        nxt = ptr[cur]
        ptr[act] = nxt
        nxt -= base
        act = act[(nxt >= 0) & (nxt != cur)]  # nxt == cur only at a root
        del cur, nxt


def _resolve_first(full) -> None:
    """Resolve a first block's pointers ``full`` in place, slot ``s`` at
    ``full[s]``, in which every root points at itself.

    Four pointer-doubling passes go unchecked, each gathering into the
    other of two buffers, so the fourth lands back in ``full``.  A non-root
    points to an earlier slot, so a chain stops only at its root: a pointer
    that the fourth pass leaves alone is already there, and only those it
    moved go on to ``_follow``.  Every index is in range, so mode "wrap"
    never wraps; unlike the default "raise", it writes straight into
    ``out`` instead of a buffered copy.
    """
    spare = np.empty_like(full)
    for _ in range(2):
        full.take(full, out=spare, mode="wrap")
        spare.take(spare, out=full, mode="wrap")
    act = np.flatnonzero(full != spare)
    del spare
    _follow(full, act, 0)


def _fill_block(endpoints, z, rng, lo: int, hi: int, nv: int) -> int:
    """Draw the slot indices of slots ``[lo, hi)``, resolve them against the
    final prefix ``endpoints[:lo]`` and write them; return the vertex count.
    ``z`` holds the kinds of the block's own steps, ``lo // 2 - 1`` on."""
    # slot s belongs to step s//2 - 1 and copies slot ptr[s - lo] < s & ~1
    if lo == 2:
        # The first block's pointers cover slots [0, hi): the draws go in
        # behind slots 0 and 1, which point at themselves.
        full = np.empty(hi, dtype=np.int64)
        full[:2] = 0, 1
        _slot_draws(rng, lo, hi, out=full[lo:])
    elif hi <= _DRAW_CUTOFF:
        ptr = _slot_draws(rng, lo, hi)
    else:
        ptr = rng.integers(0, np.arange(lo, hi) & ~1)
    # Each array is dropped once the resolver has read it for the last
    # time, before the next one is allocated.
    # roots: the odd slots of vertex-steps, which hold a brand-new vertex
    roots = lo + 1 + 2 * np.flatnonzero(z)
    nroots = roots.size
    endpoints[roots] = np.arange(nv + 1, nv + 1 + nroots, dtype=np.int32)

    if lo == 2:
        # No final prefix yet: the roots point at themselves too.
        full[roots] = roots
        del roots
        _resolve_first(full)
        ptr = full[lo:]
    else:
        # Follow only the pointers that land inside the block.  They are
        # found from the raw draws, before the roots are written, so most
        # roots never enter the loop; a root whose discarded draw landed
        # inside points at itself and leaves after one round.
        act = np.flatnonzero(ptr >= lo)
        ptr[roots - lo] = roots
        del roots
        _follow(ptr, act, lo)
        del act
    # Every index is in range, but ``out`` overlaps the source, so numpy
    # gathers into a copy of the block first (4 bytes a slot).  The copy
    # stays below the block's peak, which comes while its slots are drawn.
    endpoints.take(ptr, out=endpoints[lo:hi], mode="wrap")
    return nv + nroots


def step_kinds(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """Kinds of ``n`` steps drawn from ``rng``, ``True`` at a vertex-step:
    ``rng.random(n) < p``, ``_BLOCK`` uniforms at a time.  A double uses one
    raw output, so these are the first ``n`` kinds of any longer run."""
    z = np.empty(n, dtype=bool)
    for a in range(0, n, _BLOCK):
        b = min(n, a + _BLOCK)
        np.less(rng.random(b - a), p, out=z[a:b])
    return z


def _generate(p: float, steps: int, seed: int):
    """Vectorized endpoint-sequence generation.

    Stream layout (fixed; changing it changes every seeded run):

    1. ``rng.random(steps)`` compared against ``p`` decides the step kinds.
    2. ``rng.integers(0, bounds)`` with ``bounds = [2,2,4,4,...,2s,2s]``
       yields two uniform slot indices per step.  A vertex-step consumes
       only the first of its pair; the second is discarded so the layout
       stays rectangular.

    Both draws are taken block by block as the endpoints are resolved, each
    block's kinds just before its slot indices, which leaves the values
    unchanged: a run of one block reads both from one generator, and a
    longer run reads them through two cursors on the stream, ``kinds`` at
    its start and ``slots`` made with ``bit_generator.advance(steps)``.
    That is exactly where one generator stands after the kinds, since a
    kind draw uses one raw output and neither a fresh generator nor
    ``advance`` holds a buffered uint32 half.  ``rng.integers`` defines
    the slot draws.  Blocks ending at most ``_DRAW_CUTOFF`` slots take them
    from ``_slot_draws``, which reproduces its values and its generator
    state exactly; ``tests/test_process.py`` checks that against
    ``rng.integers``, and the ``advance`` step against the kind draw.

    Every non-root slot holds a copy of an earlier slot, so the sequence is
    resolved block by block, streaming through the slots.  A block that
    starts below ``_DRAW_CUTOFF`` ends at the next multiple of
    ``_BLOCK // 2`` slots, a later one at the next multiple of ``_BLOCK``,
    except that a remainder shorter than half the current block joins it;
    a short block of its own would cost more per slot.  A run of up to
    24,574 steps (49,150 slots) is therefore one block and reads one
    generator.  The first block, ``[2, _BLOCK // 2)``, has no final prefix
    and is resolved by pointer doubling over the block, its slot draws
    written straight into the doubling buffer.  In each later block
    ``[lo, hi)``, with ``[0, lo)`` final, only the pointers that land inside
    the block are followed, until they reach a final slot or a new-vertex
    root; one gather then fills the block.  The first block's pointers that
    four doubling passes leave unresolved go through the same follow loop.
    No working array outgrows one and a half blocks, and the share of
    pointers that land inside a block falls as the prefix grows.

    Returns the endpoints and the vertex count; the degrees are left to
    ``GlpGraph``, which counts them when first read.  The peak therefore
    comes during the fill, when the endpoints (8 bytes per step) and one
    block's kinds and the temporaries it still reads are alive: about 8.52
    bytes per step at ``2**21`` steps and 8.3 at ``4 * 10**6``, where the
    last block's ``rng.integers`` draw sets it.  Runs of a few blocks peak
    higher per step while a half block's slots are drawn: about 50 at
    ``2**14`` steps, 15.2-15.9 at ``10**5`` and 11.8-12.1 at ``2 * 10**5``.
    """
    n = int(steps)
    nslots = 2 * (n + 1)
    kinds = make_rng(seed)
    if nslots - _BLOCK // 2 < _BLOCK // 4:  # one block: its kinds, then its slots
        slots = kinds
    else:
        slots = make_rng(seed)
        slots.bit_generator.advance(n)
    endpoints = np.empty(nslots, dtype=np.int32)
    endpoints[:2] = 1
    nv = 1
    lo = 2
    while lo < nslots:
        size = _BLOCK // 2 if lo < _DRAW_CUTOFF else _BLOCK
        hi = lo - lo % size + size
        if nslots - hi < size // 2:  # a short remainder joins this block
            hi = nslots
        z = step_kinds(kinds, p, (hi - lo) // 2)
        nv = _fill_block(endpoints, z, slots, lo, hi, nv)
        lo = hi
    return endpoints, nv


def run(params: ProcessParams) -> RunResult:
    """Run the full process described by ``params``.

    Returns the final graph plus one snapshot per requested time.  Identical
    ``(p, steps, seed)`` produce bit-identical endpoint sequences; see
    ``_generate`` for the exact stream layout.
    """
    endpoints, nv = _generate(params.p, params.steps, params.seed)
    graph = GlpGraph._from_arrays(params.p, params.seed, endpoints, nv)

    snapshots = [
        Snapshot(t=int(t), max_degree=graph.at(t).max_degree())
        for t in params.snapshot_times
    ]
    return RunResult(graph=graph, snapshots=snapshots)


def replicas(p: float, steps: int, base_seed: int, n: int):
    """Yield the graphs of ``n`` independent runs; replica ``r`` is the run
    at seed ``base_seed + r``.

    Lazy: a caller that stops iterating early (a rejection loop that has
    accepted enough runs) generates no further replica.  A last seed beyond
    ``2**64 - 1`` raises ``ParameterError`` before the first run.
    """
    if n > 0:
        _check_seed(base_seed + n - 1)
    for r in range(n):
        yield run(ProcessParams(p=p, steps=steps, seed=base_seed + r)).graph


# ----------------------------------------------------------------------
# import / export

_HEADER = "# glp v1 p={p} steps={steps} seed={seed}"
_MAX_ID = 2**31 - 1


# Edges per formatted write and bytes of whole lines per parse.  Each bounds
# the temporaries at any ``t``, and keeps them small enough for the cache.
_WRITE_CHUNK = 2**14
_READ_CHUNK = 2**16

# A uint32 id has at most 10 digits; the writer's buffer starts with one pad
# byte per digit column (see ``_format_edges``).
_DIGITS = 10


def _format_edges(flat: np.ndarray) -> str:
    r"""``"%d %d\n" * (flat.size // 2) % tuple(flat)`` for ids in
    ``[0, 2**32)``, formatted as ASCII bytes in numpy.

    Each id ends at its separator byte, whose position is a running sum of
    digit counts plus one.  Digit column ``k`` (``k = 0`` the units) of every
    id is written ``k + 1`` bytes before its separator, highest column
    first.  An id shorter than ``k + 1`` digits writes its spare zero over an
    earlier byte, which that byte's owner rewrites with a lower column or
    its separator later; the first id's spares land in the pad.
    """
    x = flat.astype(np.uint32)
    ncol = len(str(int(x.max())))
    width = np.full(x.size, 2, dtype=np.uint8)  # digits + separator
    for k in range(1, ncol):
        width += x >= 10**k
    sep = np.cumsum(width, dtype=np.int64)
    sep += _DIGITS - 1
    buf = np.empty(int(sep[-1]) + 1, dtype=np.uint8)
    cols = []
    for _ in range(ncol):
        q = x // 10
        x -= q * 10
        x += ord("0")
        cols.append(x.astype(np.uint8))
        x = q
    at = np.empty_like(sep)
    for k in reversed(range(ncol)):
        np.subtract(sep, k + 1, out=at)
        buf[at] = cols[k]
    buf[sep[0::2]] = ord(" ")
    buf[sep[1::2]] = ord("\n")
    return buf[_DIGITS:].tobytes().decode("ascii")


def export_edges(graph: GlpGraph, sink) -> None:
    """Write the edge list in creation order: a header line then ``u v`` lines.

    The body is formatted ``_WRITE_CHUNK`` edges at a time by
    :func:`_format_edges`, byte-identical to
    ``np.savetxt(fh, graph.edges(), fmt="%d")``.
    """
    own = isinstance(sink, (str, bytes, os.PathLike))
    fh = open(sink, "w") if own else sink
    try:
        fh.write(_HEADER.format(p=repr(graph.p), steps=graph.t, seed=graph.seed) + "\n")
        flat = graph.endpoints
        for a in range(0, flat.size, 2 * _WRITE_CHUNK):
            fh.write(_format_edges(flat[a : a + 2 * _WRITE_CHUNK]))
    finally:
        if own:
            fh.close()


def _parse_ids(chunk: np.ndarray) -> np.ndarray | None:
    r"""The ids of ``chunk``, ASCII bytes of whole ``u v\n`` lines with ids
    of 1 to 10 digits, or ``None`` if it is anything else.

    The separators are the bytes that are not digits; they must alternate
    ``' '``, ``'\n'`` and end the chunk.  An id's ``k``-th digit from the
    right sits ``k`` bytes before its separator; an id shorter than ``k``
    digits reads the separator before it instead, zeroed.  The ids are
    summed highest column first, ``ids = 10 * ids + digit``, in int64.
    """
    d = chunk - np.uint8(ord("0"))  # wraps, so every non-digit is >= 10
    sep = np.flatnonzero(d >= 10)
    if (not sep.size or sep.size % 2 or sep[-1] != chunk.size - 1
            or not (chunk[sep[0::2]] == ord(" ")).all()
            or not (chunk[sep[1::2]] == ord("\n")).all()):
        return None
    prev = np.empty_like(sep)
    prev[0] = -1  # reads d[-1], the chunk's last separator, zeroed below
    prev[1:] = sep[:-1]
    at = sep - prev  # digits + 1
    if at.min() < 2 or at.max() > _DIGITS + 1:
        return None
    d[sep] = 0
    ids = np.zeros(sep.size, dtype=np.int64)
    digit = np.empty(sep.size, dtype=np.uint8)
    for k in reversed(range(int(at.max()) - 1)):
        np.subtract(sep, k + 1, out=at)
        np.maximum(at, prev, out=at)
        d.take(at, out=digit)
        ids *= 10
        ids += digit
    return ids


def _load_pairs(body: str, steps: int) -> np.ndarray | None:
    r"""Parse the edge-list body as ASCII bytes, about ``_READ_CHUNK`` bytes
    of whole lines at a time.

    Accepts only the form :func:`export_edges` writes: exactly
    ``steps + 1`` lines of ``u v\n`` with ids of 1 to 10 digits in
    ``[1, _MAX_ID]``.  Returns the flat int32 endpoints, or ``None`` for any
    other body (non-ASCII, a tab, ``\r``, a blank line, no final newline),
    which :func:`_scan_pairs` then reads or words the error for.  Whatever
    this accepts, :func:`_scan_pairs` accepts with the same values.  Arrays
    are sized from the body's line count, never from ``steps``.
    """
    try:
        text = body.encode("ascii")
    except UnicodeEncodeError:
        return None
    data = np.frombuffer(text, dtype=np.uint8)
    # counted a chunk at a time: ``bytes.count`` is about nine times slower,
    # and a mask of the whole body would add 1 B/char to the peak
    lines = sum(int(np.count_nonzero(data[a : a + _READ_CHUNK] == ord("\n")))
                for a in range(0, data.size, _READ_CHUNK))
    if lines != steps + 1:
        return None
    flat = np.empty(2 * lines, dtype=np.int32)
    a = n = 0
    while a < data.size:
        b = text.find(b"\n", a + _READ_CHUNK) + 1 or data.size
        ids = _parse_ids(data[a:b])
        if ids is None or ids.min() < 1 or ids.max() > _MAX_ID:
            return None
        # each whole line holds two ids, so the lines fill ``flat`` exactly
        flat[n : n + ids.size] = ids
        n += ids.size
        a = b
    return flat


def _scan_pairs(body: str, steps: int) -> np.ndarray:
    """Parse the edge-list body line by line, raising a ``ParseError`` that
    names the first bad line; blank lines are skipped."""
    flat = []
    for lineno, line in enumerate(io.StringIO(body), start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer endpoint in {line!r}") from exc
        if not (0 < u <= _MAX_ID and 0 < v <= _MAX_ID):
            raise ParseError(f"line {lineno}: vertex id outside [1, {_MAX_ID}] in {line!r}")
        flat.append(u)
        flat.append(v)
    if len(flat) != 2 * (steps + 1):
        raise ParseError(f"edge count {len(flat) // 2} does not match header steps={steps}")
    return np.array(flat, dtype=np.int32)


def read_edges(source) -> GlpGraph:
    """Parse a file produced by :func:`export_edges` back into a graph.

    The body is parsed in bulk when it is in the form ``export_edges``
    writes; any other body is scanned line by line, which reads other
    spellings of the same ids (tabs, signs, blank lines) and words the error.
    """
    own = isinstance(source, (str, bytes, os.PathLike))
    fh = open(source, "r") if own else source
    try:
        header = fh.readline()
        if not header.startswith("# glp v1 "):
            raise ParseError(f"line 1: expected '# glp v1 ...' header, got {header[:40]!r}")
        fields = dict(
            tok.split("=", 1) for tok in header[len("# glp v1 ") :].split() if "=" in tok
        )
        try:
            p = float(fields["p"])
            steps = int(fields["steps"])
            seed = int(fields["seed"])
        except (KeyError, ValueError) as exc:
            raise ParseError(f"line 1: bad header field ({exc})") from exc
        body = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not {exc.encoding} text ({exc.reason})") from exc
    finally:
        if own:
            fh.close()
    flat = _load_pairs(body, steps)
    if flat is None:
        flat = _scan_pairs(body, steps)
    del body  # free the text before the graph copies the ids
    try:
        return GlpGraph.from_endpoints(flat, p=p, seed=seed)
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc
