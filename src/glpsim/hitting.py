"""Block hitting times and the dominating-law comparison.

A block ``(j, m)`` is the contiguous vertex range ``(j-1)*m + 1 .. j*m``.
Its degree at time ``t`` is the number of endpoint slots in the first
``2*(t+1)`` holding a block member, so crossing times of degree thresholds
come from a single vectorized scan of a finished run.

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

from . import process
from .analytics import c_p
from .errors import ParameterError, PreconditionError

__all__ = [
    "BlockSpec",
    "crossing_times",
    "sample_arrival",
    "default_gamma",
    "DominatingLawParams",
    "sample_dominating",
    "survival_curve",
    "DominationRow",
    "DominationReport",
    "domination_test",
    "domination_experiment",
]


@dataclass(frozen=True)
class BlockSpec:
    """Vertex block ``(j-1)*m + 1 .. j*m`` with degree thresholds to watch."""

    j: int
    m: int
    thresholds: tuple[int, ...]

    def __post_init__(self):
        if self.j < 1 or self.m < 1:
            raise ParameterError(f"block indices must be >= 1, got j={self.j}, m={self.m}")
        ks = tuple(int(k) for k in self.thresholds)
        if not ks or any(k < 1 for k in ks) or list(ks) != sorted(set(ks)):
            raise ParameterError("thresholds must be strictly increasing naturals")
        object.__setattr__(self, "thresholds", ks)

    @property
    def vertex_range(self) -> tuple[int, int]:
        return ((self.j - 1) * self.m + 1, self.j * self.m)


def block_degree_curve(graph: process.GlpGraph, block: BlockSpec) -> np.ndarray:
    """Block degree after each step, index 0 being the initial loop state."""
    lo, hi = block.vertex_range
    ep = graph.endpoints
    member = (ep >= lo) & (ep <= hi)
    return np.cumsum(member.reshape(-1, 2).sum(axis=1))


def crossing_times(graph: process.GlpGraph, block: BlockSpec) -> tuple[int | None, ...]:
    """First time the block degree reaches each of the block's thresholds in
    a finished run (None if never).

    The degree reaches ``k`` at the step that writes the ``k``-th slot
    holding a member, and slot ``s`` is written at step ``s // 2``.
    """
    lo, hi = block.vertex_range
    ep = graph.endpoints
    slots = np.flatnonzero((ep >= lo) & (ep <= hi))
    return tuple(int(slots[k - 1]) // 2 if k <= slots.size else None
                 for k in block.thresholds)


# ----------------------------------------------------------------------
# arrival surrogate and dominating law


def sample_arrival(j: int, m: int, p: float, rng: np.random.Generator, size=None):
    """Surrogate arrival time for block ``(j, m)``: one plus a sum of
    ``j*m - 1`` geometric inter-arrival times with success probability ``p``.

    Stochastically dominates the true time at which the block holds degree
    ``m`` (the real block reaches it no later than when its last member
    arrives, and the leading one is a deliberate cushion).  Returns an int
    for ``size=None``, else an int64 array.
    """
    if j < 1 or m < 1:
        raise ParameterError(f"block indices must be >= 1, got j={j}, m={m}")
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"p must lie in [0, 1], got {p!r}")
    waits = j * m - 1
    if waits == 0:
        return 1 if size is None else np.ones(size, dtype=np.int64)
    if p == 0.0:
        raise ParameterError("p=0 admits no arrivals beyond the first vertex")
    nb = rng.negative_binomial(waits, p, size=size)
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
    """Parameters of the dominating law for reaching block degree ``k``."""

    p: float
    m: int
    j: int
    k: int
    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.p < 1.0):
            raise ParameterError("dominating law needs p in [0, 1)")
        if self.m < 1 or self.j < 1:
            raise ParameterError(f"block indices must be >= 1, got j={self.j}, m={self.m}")
        if self.k < self.m:
            raise ParameterError(f"threshold k={self.k} below block width m={self.m}")
        # The tilt exponent only has to keep every rate positive, which any
        # gamma > 0 does (each delta_i < 1).  The theoretical guarantee holds
        # for gamma < 1/c_p - 1; larger values give a thinner dominating tail
        # and are accepted because the comparison is still well-defined.
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ParameterError(f"gamma must be a positive real, got {self.gamma!r}")

    def min_block_index(self) -> float:
        """Blocks must satisfy ``j >= m**(2/(1-p)) + 1`` for the bound to apply."""
        return float(self.m) ** (2.0 / (1.0 - self.p)) + 1.0

    def delta(self, i) -> np.ndarray:
        i = np.asarray(i, dtype=np.float64)
        return (1.0 - self.p) / (2.0 * (2.0 - self.p) * i**self.gamma)

    def rates(self) -> np.ndarray:
        """Exponential rates for levels ``m .. k-1`` (empty when k == m)."""
        levels = np.arange(self.m, self.k, dtype=np.float64)
        return c_p(self.p) * (1.0 - self.delta(levels)) * levels


def sample_dominating(params: DominatingLawParams, rng: np.random.Generator, size=None):
    """Draw from the dominating law: arrival surrogate times ``exp(sum eta_i)``."""
    if params.j < params.min_block_index():
        raise PreconditionError(
            f"block j={params.j} is too early for the dominating bound; "
            f"need j >= {params.min_block_index():.6g} at m={params.m}, p={params.p}"
        )
    arrival = sample_arrival(params.j, params.m, params.p, rng, size=size)
    rates = params.rates()
    if rates.size == 0:
        return float(arrival) if size is None else arrival.astype(np.float64)
    shape = (rates.size,) if size is None else (int(size), rates.size)
    stretch = np.exp(rng.exponential(1.0 / rates, size=shape).sum(axis=-1))
    out = arrival * stretch
    return float(out) if size is None else out


def survival_curve(samples: np.ndarray, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """Empirical ``P(X > t)`` on the grid, with its binomial standard error."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ParameterError("no samples")
    grid = np.asarray(t_grid, dtype=np.float64)
    surv = (samples[None, :] > grid[:, None]).mean(axis=1)
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
    """
    grid = sorted(int(t) for t in t_grid)
    if not grid:
        raise ParameterError("empty time grid")
    empirical_times = np.asarray(empirical_times, dtype=np.float64)
    dominating_samples = np.asarray(dominating_samples, dtype=np.float64)
    emp, emp_se = survival_curve(empirical_times, grid)
    dom, dom_se = survival_curve(dominating_samples, grid)
    rows = tuple(
        DominationRow(
            t=t,
            empirical=float(e),
            empirical_se=float(es),
            dominating=float(d),
            dominating_se=float(ds),
        )
        for t, e, es, d, ds in zip(grid, emp, emp_se, dom, dom_se)
    )
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
    """Hit times of degree ``k`` by block ``j`` of size ``m`` over independent
    runs (inf if censored)."""
    spec = BlockSpec(j=j, m=m, thresholds=(int(k),))
    out = np.empty(replicas, dtype=np.float64)
    for r, graph in enumerate(process.replicas(p, steps, base_seed, replicas)):
        hit = crossing_times(graph, spec)[0]
        out[r] = math.inf if hit is None else float(hit)
    return out


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
    """Full comparison: simulate hit times, sample the dominating law, compare.

    Replica ``r`` uses seed ``base_seed + r``; the dominating sampler uses
    the next seed after the last replica.  ``steps`` defaults to the last
    grid point.
    """
    grid = sorted(int(t) for t in t_grid)
    if not grid:
        raise ParameterError("empty time grid")
    if replicas < 1 or dominating_samples < 1:
        raise ParameterError(
            f"replicas and dominating samples must be >= 1, "
            f"got {replicas} and {dominating_samples}"
        )
    if gamma is None:
        gamma = default_gamma(p)
    params = DominatingLawParams(p=p, m=m, j=j, k=k, gamma=gamma)
    if j < params.min_block_index():
        raise PreconditionError(
            f"block j={j} is too early for the dominating bound; "
            f"need j >= {params.min_block_index():.6g} at m={m}, p={p}"
        )
    steps = grid[-1] if steps is None else int(steps)
    if steps < grid[-1]:
        raise ParameterError("steps must reach the last grid point")
    emp = empirical_hit_times(p, steps, j, m, k, replicas, base_seed)
    dom_rng = process.make_rng(base_seed + replicas)
    dom = sample_dominating(params, dom_rng, size=dominating_samples)
    return domination_test(params, emp, dom, grid)
