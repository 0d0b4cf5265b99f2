"""Degree-growth analytics: normalizers, martingale and bound checks, fits.

The central quantity is the growth exponent ``c_p = 1 - p/2``: the expected
one-step degree increment of a vertex is exactly ``(2 - p) * d / D`` with
``D`` the current total degree, so expected degrees grow like ``t**c_p``.
The product normalizer ``phi`` turns that growth into a constant-mean
sequence, which is what the martingale check estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import _EXPORTS, process
from .errors import FitError, ParameterError, StatisticsError

__all__ = _EXPORTS["analytics"]

# phi switches from the literal product to log-Gamma differences here.
_PHI_PRODUCT_LIMIT = 1000

# A conditioned martingale check gives up after this many seeds per replica.
_MAX_ATTEMPTS_FACTOR = 200


def c_p(p: float) -> float:
    """Degree growth exponent ``1 - p/2``."""
    return 1.0 - process._check_p(p) / 2.0


@dataclass(frozen=True)
class DerivedConstants:
    """Exponents implied by ``p`` (and the slack ``eps`` for cliques)."""

    p: float
    eps: float
    c_p: float
    clique_exponent: float
    triangle_exponent: float
    powerlaw_exponent_hint: float


def derived_constants(p: float, eps: float = 0.1) -> DerivedConstants:
    cp = c_p(p)
    try:
        ok = 0.0 < eps < 1.0
    except TypeError:  # a string or None
        ok = False
    if not ok:
        raise ParameterError(f"eps must lie in (0, 1), got {eps!r}")
    return DerivedConstants(
        p=float(p),
        eps=float(eps),
        c_p=cp,
        clique_exponent=(1.0 - eps) * (1.0 - p) / (2.0 - p),
        triangle_exponent=3.0 * (1.0 - p) / (2.0 - p),
        powerlaw_exponent_hint=1.0 + 2.0 / (2.0 - p),
    )


def phi(t: int, p: float) -> float:
    """Growth normalizer ``prod_{s=1}^{t-1} (1 + c_p/s)``, with ``phi(1) = 1``.

    Equal to ``Gamma(t + c_p) / (Gamma(1 + c_p) * Gamma(t))`` and asymptotic
    to ``t**c_p / Gamma(1 + c_p)``.  Small ``t`` uses the literal product,
    large ``t`` the log-Gamma form.  ``t`` must be an integer ``>= 1``
    (``4.0`` included); any other value raises ``ParameterError``.
    """
    cp = c_p(p)
    t = process._check_int(t, "phi's t")
    if t <= _PHI_PRODUCT_LIMIT:
        s = np.arange(1, t, dtype=np.float64)
        return float(np.prod(1.0 + cp / s)) if s.size else 1.0
    from scipy import special

    return float(
        math.exp(special.gammaln(t + cp) - special.gammaln(t) - special.gammaln(1 + cp))
    )


def phi_tilde(t: int, p: float) -> float:
    """Exact-normalization analogue ``prod_{s=0}^{t-1} (1 + c_p/(s+1))``.

    This is the product the process obeys exactly: the expected degree of
    vertex 1 equals ``2 * phi_tilde(t)`` at every time, because each step
    multiplies expected degrees by ``1 + c_p/(t+1)``.  Identically equal to
    ``phi(t + 1)``, for an integer ``t >= 0``.
    """
    return phi(process._check_int(t, "phi_tilde's t", 0) + 1, p)


# ----------------------------------------------------------------------
# martingale check


@dataclass(frozen=True)
class MartingaleRow:
    t: int
    ratio: float
    ci95: float


@dataclass(frozen=True)
class MartingaleReport:
    p: float
    vertex: int
    replicas: int
    baseline: float
    rows: tuple[MartingaleRow, ...]

    def max_rel_dev(self) -> float:
        return max(abs(r.ratio - self.baseline) / self.baseline for r in self.rows)


def martingale_check(
    p: float,
    checkpoints,
    replicas: int,
    base_seed: int = 0,
    vertex: int = 1,
    arrival_step: int | None = None,
) -> MartingaleReport:
    """Estimate ``E[d_t(vertex)] / phi_tilde(t)`` at each checkpoint.

    For vertex 1 the ratio equals its time-0 value 2 at every t, which is
    the constancy this check probes.  For a later vertex the run ensemble is
    conditioned, by rejection, on the vertex arriving exactly at
    ``arrival_step``; the ratio is then constant in t but its level depends
    on the arrival pattern, so ``baseline`` reports the first checkpoint's
    estimate instead of 2.

    Replica ``r`` uses seed ``base_seed + r``; conditioned replicas are the
    seeds of that fan, in order, that pass a screen of their kind draws
    before they run, out of at most ``_MAX_ATTEMPTS_FACTOR * replicas``.  A
    ``base_seed + replicas - 1`` above ``2**64 - 1`` raises ``ParameterError``.
    Checkpoints, ``replicas``, ``vertex`` and ``arrival_step`` must be
    integers (``4.0`` included), else ``ParameterError``; fewer than 2
    replicas raise ``StatisticsError``.  A conditioning that no run meets,
    or an ``arrival_step`` other than ``None`` or 0 for vertex 1, raises
    ``ParameterError`` before any seed is screened.
    """
    checkpoints = process._time_grid(set(checkpoints), "checkpoints")
    replicas = process._check_int(replicas, "replicas", 0)
    if replicas < 2:
        raise StatisticsError("at least 2 replicas are needed for a confidence interval")
    vertex = process._check_int(vertex, "vertex")
    if vertex == 1 and arrival_step not in (None, 0):
        raise ParameterError(f"vertex 1 arrives at step 0, got arrival_step={arrival_step!r}")
    if vertex > 1:
        if arrival_step is None:
            raise ParameterError("conditioning on a later vertex requires arrival_step")
        if not process._integral(arrival_step, 0, checkpoints[0] + 1):
            raise ParameterError("arrival_step must be an integer in [0, first checkpoint]")
        # vertex v arrives at step s with probability C(s-1, v-2) p^(v-1) (1-p)^(s-v+1)
        late = arrival_step - (vertex - 1)
        if late < 0 or p == 0 or (p == 1 and late):
            raise ParameterError(f"vertex {vertex} never arrives at "
                                 f"arrival_step={arrival_step} when p={p}")

    seeds = process._seed_fan(base_seed, replicas)[: _MAX_ATTEMPTS_FACTOR * replicas]

    # vertex arrives at arrival_step iff that step is its (vertex - 1)-th vertex-step
    def arrives(seed):
        z = process.step_kinds(process.make_rng(seed), p, int(arrival_step))
        return z.size and z[-1] and np.count_nonzero(z) == vertex - 1

    graphs = process.replicas(p, max(checkpoints[-1], 1),
                              seeds if vertex == 1 else filter(arrives, seeds))
    degs = np.array([np.searchsorted(g.gain_steps(vertex, vertex), checkpoints, side="right")
                     for g in islice(graphs, replicas)], dtype=np.float64)
    if len(degs) < replicas:
        raise StatisticsError(f"conditioning accepted only {len(degs)}/{replicas} replicas "
                              f"after {len(seeds)} attempts")

    norm = np.array([phi_tilde(t, p) for t in checkpoints])
    means = degs.mean(axis=0) / norm
    halfwidth = 1.96 * degs.std(axis=0, ddof=1) / math.sqrt(replicas) / norm
    rows = tuple(
        MartingaleRow(t=t, ratio=float(m), ci95=float(h))
        for t, m, h in zip(checkpoints, means, halfwidth)
    )
    baseline = 2.0 if vertex == 1 else rows[0].ratio
    return MartingaleReport(
        p=float(p), vertex=vertex, replicas=replicas, baseline=baseline, rows=rows
    )


# ----------------------------------------------------------------------
# degree upper bound


def _check_c1(c1) -> None:
    """``ParameterError`` unless the envelope constant ``c1`` is finite and
    ``>= 0``; ``glp stats`` calls this before any run."""
    if not 0 <= c1 < math.inf:  # also rejects NaN
        raise ParameterError(f"c1 must be finite and >= 0, got {c1!r}")


def upper_bound_check(graph: process.GlpGraph, c1: float) -> np.ndarray:
    """Ids whose degree reaches ``c1 * t^c_p * sqrt(log t / j^(1-p))``.

    High degrees should stay below this envelope for any reasonable ``c1``,
    so a non-empty result flags anomalous growth.  Index ``j`` is the
    arrival rank, which is exactly the vertex id; ``log`` is natural.
    Needs ``t >= 2`` so the envelope is positive, and a finite ``c1 >= 0``.
    """
    _check_c1(c1)
    t = graph.t
    if t < 2:
        raise ParameterError("upper bound check needs t >= 2")
    scale = c1 * t ** c_p(graph.p)

    def envelope(ids: np.ndarray) -> np.ndarray:
        # c1 * t**cp * sqrt(log t / j**(1-p)), built in place
        env = ids.astype(np.float64)
        env **= 1.0 - graph.p
        np.divide(math.log(t), env, out=env)
        np.sqrt(env, out=env)
        env *= scale
        return env

    # The envelope falls as j grows, so only a degree at or above its value
    # at the last id (less a margin for rounding) can reach it.
    degrees = graph.degrees
    least = envelope(np.array([graph.num_vertices]))[0]
    ids = np.flatnonzero(degrees >= least * (1.0 - 1e-9)) + 1
    return ids[degrees[ids - 1] >= envelope(ids)]


# ----------------------------------------------------------------------
# log-log fits


@dataclass(frozen=True)
class ExponentFit:
    estimate: float
    stderr: float


def fit_exponent(series) -> ExponentFit:
    """Least-squares slope of log(value) against log(t).

    Needs at least three distinct times spanning two decades and positive,
    finite, non-constant values.
    """
    pts = [(float(t), float(v)) for t, v in series]
    if len(pts) < 3 or len({t for t, _ in pts}) < 3:
        raise ParameterError("need at least 3 distinct times")
    both = np.array(pts)
    if not np.all((both > 0) & (both < math.inf)):  # also rejects NaN
        raise ParameterError("times and values must be positive and finite")
    ts, vs = both.T
    if ts.max() / ts.min() < 100:
        raise ParameterError("times must span at least two decades")
    x = np.log(ts)
    y = np.log(vs)
    if np.allclose(y, y[0]):
        raise FitError("constant series has no log-log slope")
    n = x.size
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - slope * x - intercept
    sigma2 = float(np.dot(resid, resid)) / max(n - 2, 1)
    stderr = math.sqrt(sigma2 / float(np.dot(xc, xc)))
    return ExponentFit(estimate=slope, stderr=stderr)


# ----------------------------------------------------------------------
# degree histogram and discrete power-law fit


@dataclass(frozen=True)
class DegreeHistogram:
    """Degree counts: ``counts[i]`` vertices have degree ``values[i]``; all of
    them, and ``from_samples``' samples, integers or ``ParameterError``."""

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        v = process._int_array(self.values, np.int64, "histogram values")
        c = process._int_array(self.counts, np.int64, "histogram counts")
        if v.shape != c.shape or v.ndim != 1 or v.size == 0:
            raise ParameterError("values and counts must be matching 1-d arrays")
        if (np.diff(v) <= 0).any() or v.min() < 1 or c.min() < 1:
            raise ParameterError("values must be increasing naturals with positive counts")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "counts", c)

    @property
    def vertex_count(self) -> int:
        return int(self.counts.sum())

    @property
    def total_degree(self) -> int:
        return int(np.dot(self.values, self.counts))

    @classmethod
    def from_samples(cls, samples) -> "DegreeHistogram":
        samples = process._int_array(samples, np.int64, "degree samples")
        try:
            counts = np.bincount(samples)
        except (ValueError, MemoryError):  # checked only here; a zero fails the class's check
            low, high = int(samples.min()), int(samples.max())
            if low < 0:
                raise ParameterError(f"degree samples must be >= 1, got {low}") from None
            if high > process._MAX_DEGREE:
                raise ParameterError(f"degree samples must be <= {process._MAX_DEGREE}, "
                                     f"got {high}") from None
            raise
        vals = np.flatnonzero(counts)
        return cls(values=vals, counts=counts[vals])


def degree_histogram(graph: process.GlpGraph) -> DegreeHistogram:
    return DegreeHistogram.from_samples(graph.degrees)


def fit_power_law(hist: DegreeHistogram, x_min: int = 10) -> ExponentFit:
    """Discrete maximum-likelihood tail exponent for ``P(X = x) ~ x**-a``.

    Maximizes the zeta-distribution likelihood on the tail ``x >= x_min``
    (Hurwitz zeta normalizer, no continuous approximation).  The standard
    error comes from the observed Fisher information.  Raises
    ``ParameterError`` unless ``x_min`` is an integer ``>= 1``,
    ``StatisticsError`` with fewer than 100 tail samples and ``FitError``
    when the tail is degenerate.
    """
    x_min = process._check_int(x_min, "x_min")
    mask = hist.values >= x_min
    vals = hist.values[mask].astype(np.float64)
    cnts = hist.counts[mask].astype(np.float64)
    n = float(cnts.sum())
    if n < 100:
        raise StatisticsError(f"only {int(n)} samples at or above x_min={x_min}")
    if vals.size < 2:
        raise FitError("tail is concentrated on a single degree value")
    log_sum = float(np.dot(cnts, np.log(vals)))
    from scipy import optimize, special

    def nll(a: float) -> float:
        return n * math.log(special.zeta(a, x_min)) + a * log_sum

    res = optimize.minimize_scalar(nll, bounds=(1.000001, 12.0), method="bounded")
    a_hat = float(res.x)
    if a_hat > 11.9:
        raise FitError("no interior optimum; tail decays faster than any power law here")
    h = 1e-4
    info = (
        math.log(special.zeta(a_hat + h, x_min))
        - 2.0 * math.log(special.zeta(a_hat, x_min))
        + math.log(special.zeta(a_hat - h, x_min))
    ) / h**2
    stderr = float("inf") if info <= 0 else 1.0 / math.sqrt(n * info)
    return ExponentFit(estimate=a_hat, stderr=stderr)
