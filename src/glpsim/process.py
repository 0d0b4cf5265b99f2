"""Growth process with degree-proportional attachment and edge-steps.

The process starts from a single vertex carrying one loop.  At every step,
with probability ``p`` a new vertex joins and attaches to an existing vertex
chosen proportionally to degree (a vertex-step); otherwise an extra edge is
drawn between two existing vertices, each endpoint chosen independently and
proportionally to degree (an edge-step).  Loops and parallel edges are kept.

The multigraph is stored as a flat sequence of edge endpoints, two entries
per edge.  A vertex appears in that sequence exactly ``degree`` times, so
degree-proportional sampling is just a uniform draw of one slot.  That
representation is what makes full runs vectorizable: all step kinds and slot
indices can be drawn up front because the slot count after ``t`` steps is
deterministically ``2*(t+1)``.

Randomness comes from numpy's PCG64 bit generator, a fixed published
algorithm whose stream for a given seed is identical on every platform.
``run`` consumes the stream in a fixed documented layout (see its docstring),
so identical ``(p, steps, seed)`` reproduce identical endpoint sequences.
"""

from __future__ import annotations

import io
import os
import warnings
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
    "sample_endpoint",
    "run",
    "replicas",
    "export_edges",
    "read_edges",
]

# Vertex ids are 32-bit and the slot count must stay below 2**32.
MAX_STEPS = 2**31 - 3


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-wide generator: PCG64 seeded with ``seed``."""
    if not (0 <= int(seed) < 2**64):
        raise ParameterError(f"seed must be a 64-bit natural, got {seed!r}")
    return np.random.Generator(np.random.PCG64(int(seed)))


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
        if int(self.steps) != self.steps or self.steps < 0:
            raise ParameterError(f"steps must be a non-negative integer, got {self.steps!r}")
        if self.steps > MAX_STEPS:
            raise CapacityError(
                f"steps={self.steps} exceeds the 32-bit id budget ({MAX_STEPS})"
            )
        if not (0 <= int(self.seed) < 2**64):
            raise ParameterError(f"seed must be a 64-bit natural, got {self.seed!r}")
        times = list(self.snapshot_times)
        increasing = all(a < b for a, b in zip(times, times[1:]))
        if not increasing or not all(0 <= t <= self.steps and int(t) == t for t in times):
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
    """

    __slots__ = ("p", "seed", "_ep", "_deg")

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def _from_arrays(cls, p, seed, endpoints, degrees) -> "GlpGraph":
        g = cls.__new__(cls)
        g.p = _check_p(p)
        g.seed = int(seed)
        g._ep = endpoints
        g._deg = degrees
        return g

    @classmethod
    def from_endpoints(cls, endpoints, p: float = 0.5, seed: int = 0) -> "GlpGraph":
        """Wrap an explicit endpoint sequence (analysis helper and importer).

        Ids must form a contiguous range 1..V ordered by first appearance.
        """
        ep = np.array(endpoints, dtype=np.int32)
        if ep.ndim != 1 or ep.size < 2 or ep.size % 2:
            raise ParameterError("endpoint sequence must be flat with even length >= 2")
        if ep.min() < 1:
            raise ParameterError("vertex ids must be >= 1")
        nv = int(ep.max())
        deg = _count_degrees(ep, nv)
        if (deg[1:] == 0).any():
            raise ParameterError("vertex ids must form a contiguous range 1..V")
        # In first-appearance order each new id is one above the largest
        # id seen so far, so the running maximum (0 before slot 0) rises by
        # at most 1 a slot.  It is carried across ``_MAX_BLOCK``-slot chunks.
        top = 0
        for a in range(0, ep.size, _MAX_BLOCK):
            r = np.maximum.accumulate(ep[a : a + _MAX_BLOCK])
            np.maximum(r, top, out=r)
            if (np.diff(r, prepend=top) > 1).any():
                raise ParameterError("vertex ids must be ordered by first appearance")
            top = int(r[-1])
        return cls._from_arrays(p, seed, ep, deg)

    # ------------------------------------------------------------------
    # queries

    @property
    def t(self) -> int:
        """Number of steps taken so far."""
        return self._ep.size // 2 - 1

    @property
    def num_vertices(self) -> int:
        return self._deg.size - 1

    @property
    def endpoints(self) -> np.ndarray:
        """Flat endpoint sequence, two slots per edge, read-only view."""
        view = self._ep[:]
        view.flags.writeable = False
        return view

    @property
    def degrees(self) -> np.ndarray:
        """Degrees indexed by vertex: ``degrees[j-1]`` is vertex ``j``, read-only."""
        view = self._deg[1:]
        view.flags.writeable = False
        return view

    def edges(self) -> np.ndarray:
        """Edge list as an (E, 2) array in creation order."""
        return self.endpoints.reshape(-1, 2)

    def _vertex(self, j) -> int:
        """``j`` as an int, or ``UnknownVertexError`` if it is no vertex id."""
        if not (1 <= j <= self.num_vertices) or int(j) != j:
            raise UnknownVertexError(j)
        return int(j)

    def degree(self, v: int) -> int:
        return int(self._deg[self._vertex(v)])

    def total_degree(self) -> int:
        return self._ep.size

    def max_degree(self) -> int:
        return int(self._deg[1:].max())

    def arrival_time(self, j: int) -> int:
        """Step at which vertex ``j`` was created; vertex 1 arrives at 0.

        That is the index of the edge that holds ``j``'s first slot (edge
        ``i`` is made at step ``i``), found a ``_MAX_BLOCK``-slot chunk at a
        time.
        """
        j = self._vertex(j)
        for a in range(0, self._ep.size, _MAX_BLOCK):
            hit = self._ep[a : a + _MAX_BLOCK] == j
            i = int(hit.argmax())
            if hit[i]:
                return (a + i) // 2

    def at(self, t: int) -> "GlpGraph":
        """The graph as it stood at time ``t`` of this run.

        Its endpoint sequence is a view of this graph's first ``2*(t+1)``
        slots; its degrees are counted afresh.  ``at(self.t)`` is ``self``.
        """
        if t == self.t:
            return self
        if not (0 <= t <= self.t) or int(t) != t:
            raise ParameterError(f"time {t} outside the integers 0..{self.t}")
        ep = self._ep[: 2 * (int(t) + 1)]
        nv = int(ep.max())
        return GlpGraph._from_arrays(self.p, self.seed, ep, _count_degrees(ep, nv))


def _count_degrees(endpoints: np.ndarray, nv: int) -> np.ndarray:
    """int64 degrees indexed by id ``0..nv`` of an endpoint sequence whose
    ids lie in ``[1, nv]``.

    ``np.add.at`` reads the int32 endpoints in place: no intp copy of
    them (8 bytes per slot) is made.
    """
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


# Slot blocks of the resolver: the first block ends at ``_FIRST_BLOCK``;
# every later block at most doubles the resolved prefix and holds at most
# ``_MAX_BLOCK`` slots.  ``_MAX_BLOCK`` is also the chunk of kind uniforms.
# Blocks ending at most ``_DRAW_CUTOFF`` slots draw their slot indices with
# ``_slot_draws``; above it Lemire rejections (about one per 2**33 / bound
# draws) restart its windows so often that ``rng.integers`` is faster.
_FIRST_BLOCK = 2**16
_MAX_BLOCK = 2**18
_DRAW_CUTOFF = 2**19

# ``_slot_draws`` works through the uint32 stream this many draws at a time,
# so its uint64 temporaries stay in cache.
_DRAW_WINDOW = 2**14
_EVEN = np.arange(_DRAW_WINDOW + 1, dtype=np.uint64) & np.uint64(2**64 - 2)
_LOW32 = np.uint64(2**32 - 1)


def _slot_draws(rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
    """``rng.integers(0, np.arange(lo, hi) & ~1)``, values and stream alike,
    for ``2 <= lo < hi < 2**32``.

    numpy draws a bound ``b < 2**32`` by Lemire's method: a uint32 ``x``
    gives ``m = x * b`` and the value ``m >> 32``, and the draw takes the
    next uint32 instead while ``m % 2**32 < 2**32 % b``.  Each PCG64 output
    supplies two uint32, low half first; an unused high half waits in the
    state (``has_uint32``, ``uinteger``).  Here a window of draws is
    computed at once and only its rare candidates (``m % 2**32 < b``) get the
    modulo.  A rejection restarts the window at the rejected draw, one
    uint32 further on.  Raw outputs are taken only as they are needed, and
    the buffered half is written back at the end, so the generator's state
    ends exactly where numpy's would.
    """
    bg = rng.bit_generator
    state = bg.state
    last = state["uinteger"]
    carry = np.array([last] if state["has_uint32"] else [], dtype=np.uint32)
    out = np.empty(hi - lo, dtype=np.int64)
    bounds = np.empty(_DRAW_WINDOW, dtype=np.uint64)
    m = np.empty(_DRAW_WINDOW, dtype=np.uint64)
    low = np.empty(_DRAW_WINDOW, dtype=np.uint64)
    small = np.empty(_DRAW_WINDOW, dtype=bool)
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
        bw, mw, lw = bounds[:w], m[:w], low[:w]
        np.add(_EVEN[odd : odd + w], i - odd, out=bw)  # (i + k) & ~1
        np.multiply(x[:w], bw, out=mw)
        np.bitwise_and(mw, _LOW32, out=lw)
        cand = np.flatnonzero(np.less(lw, bw, out=small[:w]))
        rejected = cand[lw[cand] < np.uint64(2**32) % bw[cand]]
        n = int(rejected[0]) if rejected.size else w
        np.right_shift(mw[:n], 32, out=out[i - lo : i - lo + n].view(np.uint64))
        carry = x[n + (n < w) :]
        last = x[-1]
        i += n
    # Every uint32 drawn but ``carry`` is used; the stream's last element
    # is a high half, which numpy keeps in ``uinteger`` even once it is used.
    state = bg.state
    state["has_uint32"] = int(carry.size)
    state["uinteger"] = int(last)
    bg.state = state
    return out


def _fill_block(endpoints, z, rng, lo: int, hi: int, nv: int) -> int:
    """Draw the slot indices of slots ``[lo, hi)``, resolve them against the
    final prefix ``endpoints[:lo]`` and write them; return the vertex count."""
    # slot s belongs to step s//2 - 1 and copies slot ptr[s - lo] < s & ~1
    if hi <= _DRAW_CUTOFF:
        ptr = _slot_draws(rng, lo, hi)
    else:
        ptr = rng.integers(0, np.arange(lo, hi) & ~1)
    # roots: the odd slots of vertex-steps, which hold a brand-new vertex
    roots = lo + 1 + 2 * np.flatnonzero(z[lo // 2 - 1 : hi // 2 - 1])
    ptr[roots - lo] = roots
    endpoints[roots] = np.arange(nv + 1, nv + 1 + roots.size)

    if lo == 2:
        # No final prefix yet: pointer doubling over slots [0, hi), in which
        # slots 0 and 1 and the roots point at themselves.
        ptr = np.concatenate(([0, 1], ptr))
        while True:
            nxt = ptr[ptr]
            if np.array_equal(nxt, ptr):
                break
            ptr = nxt
        ptr = ptr[2:]
    else:
        # Jump only the pointers that land inside the block.
        act = np.flatnonzero(ptr >= lo)
        while act.size:
            cur = ptr[act]
            nxt = ptr[cur - lo]
            ptr[act] = nxt
            act = act[(nxt >= lo) & (nxt != cur)]  # nxt == cur only at a root
    endpoints[lo:hi] = endpoints[ptr]
    return nv + roots.size


def _generate(p: float, steps: int, seed: int):
    """Vectorized endpoint-sequence generation.

    Stream layout (fixed; changing it changes every seeded run):

    1. ``rng.random(steps)`` compared against ``p`` decides the step kinds.
    2. ``rng.integers(0, bounds)`` with ``bounds = [2,2,4,4,...,2s,2s]``
       yields two uniform slot indices per step.  A vertex-step consumes
       only the first of its pair; the second is discarded so the layout
       stays rectangular.

    Both draws are taken in pieces, which leaves the stream unchanged: the
    kind uniforms in chunks of ``_MAX_BLOCK``, the slot indices block by
    block as the endpoints are resolved.  ``rng.integers`` defines the slot
    draws.  Blocks ending at most ``_DRAW_CUTOFF`` slots take them from
    ``_slot_draws``, which reproduces its values and its generator state
    exactly; ``tests/test_process.py`` checks that against ``rng.integers``.

    Every non-root slot holds a copy of an earlier slot, so the sequence is
    resolved block by block, streaming through the slots.  The first block,
    ``[2, _FIRST_BLOCK)``, has no final prefix and is resolved by pointer
    doubling over the block.  Each later block ``[lo, hi)`` ends at
    ``min(2*lo, lo + _MAX_BLOCK)``.  With ``[0, lo)`` final, only the
    pointers that land inside the block are followed, until they reach a
    final slot or a new-vertex root; one gather then fills the block.  A
    block is at most as long as the prefix, so fewer than half of its
    pointers land inside it, and no working array outgrows one block.

    After the fill the kind flags are freed and the degrees are counted
    straight from the int32 endpoints.  At large sizes the peak comes
    during that count, when only the two arrays the graph keeps are alive:
    the endpoints at 8 bytes per step and the int64 degrees at 8 bytes per
    vertex, about 4 per step at ``p = 0.5``.  During the fill the kind flags
    (1 byte per step) and one block's temporaries sit beside the endpoints.
    """
    n = int(steps)
    rng = make_rng(seed)
    z = np.empty(n, dtype=bool)
    for a in range(0, n, _MAX_BLOCK):
        b = min(n, a + _MAX_BLOCK)
        np.less(rng.random(b - a), p, out=z[a:b])

    nslots = 2 * (n + 1)
    endpoints = np.empty(nslots, dtype=np.int32)
    endpoints[:2] = 1
    nv = 1
    lo, hi = 2, min(nslots, _FIRST_BLOCK)
    while lo < hi:
        nv = _fill_block(endpoints, z, rng, lo, hi, nv)
        lo, hi = hi, min(nslots, 2 * hi, hi + _MAX_BLOCK)
    del z
    return endpoints, _count_degrees(endpoints, nv)


def run(params: ProcessParams) -> RunResult:
    """Run the full process described by ``params``.

    Returns the final graph plus one snapshot per requested time.  Identical
    ``(p, steps, seed)`` produce bit-identical endpoint sequences; see
    ``_generate`` for the exact stream layout.
    """
    endpoints, degrees = _generate(params.p, params.steps, params.seed)
    graph = GlpGraph._from_arrays(params.p, params.seed, endpoints, degrees)

    snapshots = [
        Snapshot(t=int(t), max_degree=graph.at(t).max_degree())
        for t in params.snapshot_times
    ]
    return RunResult(graph=graph, snapshots=snapshots)


def replicas(p: float, steps: int, base_seed: int, n: int):
    """Yield the graphs of ``n`` independent runs; replica ``r`` is the run
    at seed ``base_seed + r``.

    Lazy: a caller that stops iterating early (a rejection loop that has
    accepted enough runs) generates no further replica.
    """
    for r in range(n):
        yield run(ProcessParams(p=p, steps=steps, seed=base_seed + r)).graph


# ----------------------------------------------------------------------
# import / export

_HEADER = "# glp v1 p={p} steps={steps} seed={seed}"
_MAX_ID = 2**31 - 1


# Edges per formatted write: bounds the temporary string at any ``t``.
_WRITE_CHUNK = 2**16


def export_edges(graph: GlpGraph, sink) -> None:
    """Write the edge list in creation order: a header line then ``u v`` lines.

    The body is formatted a chunk of edges at a time, byte-identical to
    ``np.savetxt(fh, graph.edges(), fmt="%d")``.
    """
    own = isinstance(sink, (str, bytes, os.PathLike))
    fh = open(sink, "w") if own else sink
    try:
        fh.write(_HEADER.format(p=repr(graph.p), steps=graph.t, seed=graph.seed) + "\n")
        flat = graph.endpoints
        for a in range(0, flat.size, 2 * _WRITE_CHUNK):
            chunk = flat[a : a + 2 * _WRITE_CHUNK].tolist()
            fh.write(("%d %d\n" * (len(chunk) // 2)) % tuple(chunk))
    finally:
        if own:
            fh.close()


def _load_pairs(body: str, steps: int) -> np.ndarray | None:
    """Parse the edge-list body in one ``np.loadtxt`` call.

    Returns the flat endpoints, or ``None`` when the body is not exactly
    ``steps + 1`` lines of two ids in ``[1, _MAX_ID]``.  Whatever this
    accepts, :func:`_scan_pairs` accepts with the same values.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body
            pairs = np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if pairs.shape != (steps + 1, 2) or pairs.min() < 1 or pairs.max() > _MAX_ID:
        return None
    return pairs.ravel().astype(np.int32)


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

    The body is parsed in bulk; only a body that the bulk parse rejects is
    scanned line by line, to word the error.
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
    try:
        return GlpGraph.from_endpoints(flat, p=p, seed=seed)
    except ParameterError as exc:
        raise ParseError(str(exc)) from exc
