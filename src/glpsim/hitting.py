"""Block hitting times and the dominating-law comparison.

A block ``(j, m)`` is the contiguous vertex range ``(j-1)*m + 1 .. j*m``.
Its degree at time ``t`` is the number of its degree gains up to ``t``,
which ``GlpGraph.gain_steps`` lists in order, so the crossing times of
degree thresholds are read straight off that list.

The dominating law is a sampleable stochastic upper bound for the time at
which a late block first reaches degree ``k``: a negative-binomial arrival
surrogate stretched by independent log-exponential factors, one per degree
level between ``m`` and ``k - 1``.  Level ``i`` contributes
``exp(eta_i)`` with ``eta_i ~ Exp(c_p * (1 - delta_i) * i)`` and
``delta_i = (1 - p) / (2 * (2 - p) * i**gamma)``.  The bound is only valid
for blocks arriving late enough, which is enforced, not warned about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS, process
from .analytics import c_p
from .errors import ParameterError, PreconditionError

__all__ = _EXPORTS["hitting"]


def _finite(x) -> bool:
    """Whether ``x`` is a finite real; a non-number such as ``"3"`` is not."""
    try:
        return math.isfinite(x)
    except TypeError:
        return False


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, or ``ParameterError`` naming them
    ``what`` unless numpy reads them as numbers."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{what} must be numbers: {exc}") from None


def _block(j, m) -> tuple[int, int]:
    """``(j, m)`` as ints, or ``ParameterError`` unless both are integers
    ``>= 1`` (``4.0`` included)."""
    if not (process._integral(j, 1) and process._integral(m, 1)):
        raise ParameterError(f"block indices must be integers >= 1, got j={j!r}, m={m!r}")
    return int(j), int(m)


@dataclass(frozen=True)
class BlockSpec:
    """Vertex block ``(j-1)*m + 1 .. j*m`` with degree thresholds to watch.

    ``j``, ``m`` and the thresholds must be integers ``>= 1`` (``4.0``
    included, stored as an int), the thresholds strictly increasing."""

    j: int
    m: int
    thresholds: tuple[int, ...]

    def __post_init__(self):
        j, m = _block(self.j, self.m)
        ks = tuple(self.thresholds) if np.iterable(self.thresholds) else ()
        if not ks or not all(process._integral(k, 1) for k in ks) or list(ks) != sorted(set(ks)):
            raise ParameterError("thresholds must be strictly increasing naturals")
        for name, v in (("j", j), ("m", m), ("thresholds", tuple(int(k) for k in ks))):
            object.__setattr__(self, name, v)

    @property
    def vertex_range(self) -> tuple[int, int]:
        return ((self.j - 1) * self.m + 1, self.j * self.m)


def crossing_times(graph: process.GlpGraph, block: BlockSpec) -> tuple[int | None, ...]:
    """First time the block degree reaches each of the block's thresholds in
    a finished run (None if never): the step of the block's ``k``-th degree
    gain."""
    steps = graph.gain_steps(*block.vertex_range)
    return tuple(int(steps[k - 1]) if k <= steps.size else None for k in block.thresholds)


# ----------------------------------------------------------------------
# arrival surrogate and dominating law


def sample_arrival(j: int, m: int, p: float, rng: np.random.Generator, size=None):
    """Surrogate arrival time for block ``(j, m)``: one plus a sum of
    ``j*m - 1`` geometric inter-arrival times with success probability ``p``.

    Stochastically dominates the true time at which the block holds degree
    ``m`` (the real block reaches it no later than when its last member
    arrives, and the leading one is a deliberate cushion).  Returns an int
    for ``size=None``, else an int64 array.  ``j`` and ``m`` must be
    integers ``>= 1`` and ``size``, if given, one in ``[0, MAX_STEPS]``
    (``4.0`` included).
    """
    j, m = _block(j, m)
    process._check_p(p)
    if size is not None:
        size = process._check_int(size, "size", 0)
        if size > process.MAX_STEPS:  # else numpy's refusal reads as a p too small
            raise ParameterError(f"size must be <= {process.MAX_STEPS}, got {size}")
    waits = j * m - 1
    if waits == 0:
        return 1 if size is None else np.ones(size, dtype=np.int64)
    if p == 0.0:
        raise ParameterError("p=0 admits no arrivals beyond the first vertex")
    try:
        nb = rng.negative_binomial(waits, p, size=size)
    except ValueError as exc:  # numpy refuses a mean wait that could overflow int64
        raise ParameterError(f"p={p} is too small to draw the sum of {waits} geometric "
                             f"waits (numpy: {exc})") from None
    return int(1 + waits + nb) if size is None else (1 + waits + nb).astype(np.int64)


def default_gamma(p: float) -> float:
    """Default tilt exponent: well inside the open interval (0, 1/c_p - 1)."""
    if not (0.0 < p < 1.0):
        raise ParameterError(
            f"gamma default needs p in (0, 1), got p={p}; pass gamma explicitly"
        )
    return min(0.5, 0.9 * (1.0 / c_p(p) - 1.0))


@dataclass(frozen=True)
class DominatingLawParams:
    """Parameters of the dominating law for reaching block degree ``k``.

    ``j``, ``m`` and ``k`` must be integers (``4.0`` included, stored as an
    int) with ``j, m >= 1`` and ``m <= k``, at most the total degree of the
    longest run."""

    p: float
    m: int
    j: int
    k: int
    gamma: float

    def __post_init__(self):
        if process._check_p(self.p) == 1.0:
            raise ParameterError("dominating law needs p in [0, 1)")
        j, m = _block(self.j, self.m)
        k = process._check_int(self.k, "threshold k", m)
        if k > process._MAX_DEGREE:  # a level no block reaches; ``rates`` spans them all
            raise ParameterError(f"threshold k must be <= {process._MAX_DEGREE}, got {k}")
        for name, v in (("j", j), ("m", m), ("k", k)):
            object.__setattr__(self, name, v)
        # The tilt exponent only has to keep every rate positive, which any
        # gamma > 0 does (each delta_i < 1).  The theoretical guarantee holds
        # for gamma < 1/c_p - 1; larger values give a thinner dominating tail
        # and are accepted because the comparison is still well-defined.
        if not (_finite(self.gamma) and self.gamma > 0.0):
            raise ParameterError(f"gamma must be a positive real, got {self.gamma!r}")

    def min_block_index(self) -> float:
        """Blocks must satisfy ``j >= m**(2/(1-p)) + 1`` for the bound to apply."""
        return float(self.m) ** (2.0 / (1.0 - self.p)) + 1.0

    def delta(self, i) -> np.ndarray:
        i = np.asarray(i, dtype=np.float64)
        with np.errstate(over="ignore"):  # i**gamma = inf gives delta 0, the gamma -> inf limit
            tilt = i**self.gamma
        return (1.0 - self.p) / (2.0 * (2.0 - self.p) * tilt)

    def rates(self) -> np.ndarray:
        """Exponential rates for levels ``m .. k-1`` (empty when k == m)."""
        levels = np.arange(self.m, self.k, dtype=np.float64)
        return c_p(self.p) * (1.0 - self.delta(levels)) * levels


# Exponentials drawn at a time by ``sample_dominating``: 8 MiB of doubles.
_ETA_CHUNK = 2**20


def sample_dominating(params: DominatingLawParams, rng: np.random.Generator, size=None):
    """Draw from the dominating law: arrival surrogate times ``exp(sum eta_i)``;
    ``size``, if given, must be an integer in ``[0, MAX_STEPS]`` (``4.0``
    included)."""
    if params.j < params.min_block_index():
        raise PreconditionError(
            f"block j={params.j} is too early for the dominating bound; "
            f"need j >= {params.min_block_index():.6g} at m={params.m}, p={params.p}"
        )
    arrival = sample_arrival(params.j, params.m, params.p, rng, size=size)
    rates = params.rates()
    if rates.size == 0:
        return float(arrival) if size is None else arrival.astype(np.float64)
    # Row i of ``rng.exponential(1.0 / rates, size=(rows, rates.size))``,
    # summed: numpy scales standard exponentials the same way, scaling in
    # place skips its broadcast, and consecutive draws continue one stream,
    # so drawing ``_ETA_CHUNK`` doubles at a time keeps every value.
    rows = 1 if size is None else arrival.size
    step = max(1, _ETA_CHUNK // rates.size)
    scale = 1.0 / rates
    sums = np.empty(rows)
    buf = np.empty((min(step, rows), rates.size))
    for a in range(0, rows, step):
        eta = rng.standard_exponential(out=buf[: rows - a])
        eta *= scale
        eta.sum(axis=-1, out=sums[a : a + step])
    out = arrival * np.exp(sums.reshape(np.shape(arrival)))
    return float(out) if size is None else out


def survival_curve(samples: np.ndarray, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """Empirical ``P(X > t)`` on the grid, with its binomial standard error."""
    samples = _floats(samples, "samples")
    if samples.size == 0:
        raise ParameterError("no samples")
    grid = _floats(t_grid, "time grid")
    if grid.ndim != 1:
        raise ParameterError(f"time grid must be a list of times, got {t_grid!r}")
    # a count per grid point: O(samples) memory, the same count / n as a mask's mean
    surv = np.array([np.count_nonzero(samples > t) for t in grid]) / samples.size
    se = np.sqrt(surv * (1.0 - surv) / samples.size)
    return surv, se


# ----------------------------------------------------------------------
# domination comparison


@dataclass(frozen=True)
class DominationRow:
    t: int
    empirical: float
    empirical_se: float
    dominating: float
    dominating_se: float

    @property
    def ok(self) -> bool:
        joint = math.hypot(self.empirical_se, self.dominating_se)
        return self.empirical <= self.dominating + 3.0 * joint


@dataclass(frozen=True)
class DominationReport:
    """Survival comparison rows plus the samples they were computed from:
    the empirical hit times (``inf`` when censored) and the dominating-law
    draws."""

    params: DominatingLawParams
    replicas: int
    dominating_samples: int
    rows: tuple[DominationRow, ...]
    empirical_times: np.ndarray = field(repr=False, compare=False)
    dominating_times: np.ndarray = field(repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def domination_test(
    params: DominatingLawParams,
    empirical_times: np.ndarray,
    dominating_samples: np.ndarray,
    t_grid,
) -> DominationReport:
    """Compare the empirical survival of hit times against the dominating law.

    ``empirical_times`` uses ``inf`` for replicas that never hit; the grid
    must therefore not exceed the run length that produced them.  Each grid
    point checks ``empirical <= dominating + 3 * combined standard error``.
    The grid must hold non-negative integers (``4.0`` included).
    """
    grid = process._time_grid(t_grid, "time grid")
    empirical_times = _floats(empirical_times, "empirical times")
    dominating_samples = _floats(dominating_samples, "dominating samples")
    emp, emp_se = survival_curve(empirical_times, grid)
    dom, dom_se = survival_curve(dominating_samples, grid)
    rows = tuple(DominationRow(t, float(e), float(es), float(d), float(ds))
                 for t, e, es, d, ds in zip(grid, emp, emp_se, dom, dom_se))
    return DominationReport(
        params=params,
        replicas=int(empirical_times.size),
        dominating_samples=int(dominating_samples.size),
        rows=rows,
        empirical_times=empirical_times,
        dominating_times=dominating_samples,
    )


def empirical_hit_times(
    p: float, steps: int, j: int, m: int, k: int, replicas: int, base_seed: int
) -> np.ndarray:
    """Hit times of degree ``k`` by block ``j`` of size ``m`` in the runs at
    seeds ``base_seed + r`` for ``r < replicas`` (inf if censored).  ``j``,
    ``m``, ``k`` and ``replicas`` must be integers, else ``ParameterError``."""
    spec = BlockSpec(j=j, m=m, thresholds=(k,))
    replicas = process._check_int(replicas, "replicas", 0)
    seeds = process._seed_fan(base_seed, replicas)[:replicas]
    hits = (crossing_times(graph, spec)[0] for graph in process.replicas(p, steps, seeds))
    return np.array([math.inf if h is None else h for h in hits], dtype=np.float64)


def domination_experiment(
    p: float,
    m: int,
    j: int,
    k: int,
    t_grid,
    replicas: int,
    dominating_samples: int,
    base_seed: int = 0,
    gamma: float | None = None,
    steps: int | None = None,
) -> DominationReport:
    """Full comparison: sample the dominating law, simulate hit times, compare.

    Replica ``r`` uses seed ``base_seed + r``; the dominating sampler uses
    the next seed after the last replica, and all of them are checked
    before it draws, as is ``steps`` (default: the last grid point).  The
    integer arguments reject non-integers such as ``2.5``, NaN and inf with
    ``ParameterError`` before any run.
    """
    grid = process._time_grid(t_grid, "time grid")
    replicas = process._check_int(replicas, "replicas")
    dominating_samples = process._check_int(dominating_samples, "dominating samples")
    # the replicas' seeds and the sampler's, one past them, checked as one fan
    sampler_seed = process._seed_fan(base_seed, replicas + 1)[replicas]
    steps = process.ProcessParams(p, grid[-1] if steps is None else steps, 0).steps
    if steps < grid[-1]:
        raise ParameterError(f"steps must reach the last grid point {grid[-1]}, got {steps}")
    if gamma is None:
        gamma = default_gamma(p)
    params = DominatingLawParams(p=p, m=m, j=j, k=k, gamma=gamma)
    # drawn first, so that a block too early for the bound fails before any run
    dom = sample_dominating(params, process.make_rng(sampler_seed), dominating_samples)
    emp = empirical_hit_times(p, steps, j, m, k, replicas, base_seed)
    return domination_test(params, emp, dom, grid)
