import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

import glpsim as g
from glpsim.errors import FitError, ParameterError, StatisticsError


# ----------------------------------------------------------------------
# deterministic functions


def test_c_p_values():
    assert g.c_p(0.0) == 1.0
    assert g.c_p(1.0) == 0.5
    assert g.c_p(0.5) == 0.75
    with pytest.raises(ParameterError):
        g.c_p(-0.2)


def test_derived_constants():
    d = g.derived_constants(0.5, eps=0.1)
    assert d.c_p == 0.75
    assert d.clique_exponent == pytest.approx(0.9 * 0.5 / 1.5)
    assert d.triangle_exponent == pytest.approx(1.0)
    assert d.powerlaw_exponent_hint == pytest.approx(1 + 2 / 1.5)
    # envelope of admissible values
    for p in np.linspace(0, 1, 11):
        dd = g.derived_constants(float(p))
        assert 0.5 <= dd.c_p <= 1.0
        assert 0.0 <= dd.clique_exponent < 0.5


def test_phi_trivials():
    for p in (0.0, 0.25, 1.0):
        assert g.phi(1, p) == 1.0
        assert g.phi_tilde(0, p) == 1.0
    assert g.phi(3, 1.0) == pytest.approx(1.875)  # (1+1/2)(1+1/4)
    assert g.phi_tilde(2, 1.0) == pytest.approx(g.phi(3, 1.0))


@settings(max_examples=80, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=5000),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_phi_recurrence(t, p):
    lhs = g.phi(t + 1, p)
    rhs = g.phi(t, p) * (1 + g.c_p(p) / t)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_phi_product_vs_gamma_crossover():
    # the implementation switches evaluation strategy around t=1000;
    # values on both sides must agree with the closed form
    for p in (0.3, 0.75):
        cp = g.c_p(p)
        for t in (998, 999, 1000, 1001, 1002, 1003):
            closed = math.exp(
                math.lgamma(t + cp) - math.lgamma(1 + cp) - math.lgamma(t)
            )
            assert g.phi(t, p) == pytest.approx(closed, rel=1e-10)


def test_phi_ratio_converges_monotonically():
    # phi(t)/t^c_p is nondecreasing (up to log-Gamma roundoff, ~1e-10
    # relative at t=1e5) and approaches 1/Gamma(1+c_p) from below
    for p in (0.0, 0.5, 1.0):
        cp = g.c_p(p)
        ratios = [g.phi(t, p) / t**cp for t in (10**3, 10**4, 10**5)]
        assert all(b >= a * (1 - 1e-9) for a, b in zip(ratios, ratios[1:]))
        limit = 1.0 / gamma_fn(1 + cp)
        assert ratios[-1] == pytest.approx(limit, rel=1e-3)
        assert ratios[-1] <= limit * (1 + 1e-9)


# ----------------------------------------------------------------------
# martingale ratio


def test_martingale_t0_baseline():
    rep = g.martingale_check(0.5, (0, 20), replicas=50, base_seed=0)
    assert rep.baseline == 2.0
    assert rep.rows[0].t == 0
    assert rep.rows[0].ratio == pytest.approx(2.0)
    assert rep.rows[0].ci95 == 0.0


def test_martingale_p0_is_deterministic():
    rep = g.martingale_check(0.0, (5, 50, 500), replicas=20, base_seed=1)
    for row in rep.rows:
        assert row.ratio == pytest.approx(2.0, rel=1e-12)
        assert row.ci95 == pytest.approx(0.0, abs=1e-12)


def test_martingale_ratio_near_two():
    rep = g.martingale_check(0.5, (100, 1000), replicas=1500, base_seed=7)
    assert rep.max_rel_dev() < 0.03


def test_martingale_conditioned_vertex_two():
    """Conditioned on arrival at step 1, the normalized degree stays flat."""
    rep = g.martingale_check(
        0.5, (1, 50, 200), replicas=2000, base_seed=4, vertex=2, arrival_step=1
    )
    # starting value: degree 1 over the normalizer at t=1
    assert rep.rows[0].ratio == pytest.approx(1.0 / g.phi_tilde(1, 0.5))
    for row in rep.rows[1:]:
        assert abs(row.ratio - rep.baseline) < 4 * row.ci95


def test_martingale_conditioning_matches_generated_runs():
    """Seeds are screened on their kind draws before any run; the check must
    average exactly the first runs, in seed order, whose generated graph has
    the vertex arrive at the step."""
    for p, v, s in ((0.2, 2, 1), (0.5, 3, 2), (0.5, 7, 12), (0.8, 5, 4)):
        kept, seed = [], 0
        while len(kept) < 6:
            gr = g.run(g.ProcessParams(p=p, steps=40, seed=seed)).graph
            if v <= gr.num_vertices and gr.arrival_time(v) == s:
                kept.append([gr.at(t).degree(v) for t in (s, 40)])
            seed += 1
        rep = g.martingale_check(p, (s, 40), replicas=6, vertex=v, arrival_step=s)
        means = np.mean(kept, axis=0) / [g.phi_tilde(t, p) for t in (s, 40)]
        assert [row.ratio for row in rep.rows] == pytest.approx(means, rel=1e-12)
    with pytest.raises(StatisticsError, match="0/2 replicas after 400 attempts"):
        g.martingale_check(0.5, (5, 10), replicas=2, vertex=3, arrival_step=0)
    for bad in (2.5, -1, 6):
        with pytest.raises(ParameterError, match="arrival_step"):
            g.martingale_check(0.5, (5, 10), replicas=2, vertex=3, arrival_step=bad)


def test_martingale_seed_range_checked_before_any_run(monkeypatch):
    from glpsim import process

    def no_run(params):
        raise AssertionError(f"process.run called with seed {params.seed}")

    monkeypatch.setattr(process, "run", no_run)
    with pytest.raises(ParameterError, match="base_seed"):
        g.martingale_check(0.5, (10,), replicas=3, base_seed=2**64 - 2)
    # conditioned screening stops at the last 64-bit seed
    with pytest.raises(StatisticsError, match="0/2 replicas after 5 attempts"):
        g.martingale_check(0.5, (5, 10), replicas=2, base_seed=2**64 - 5,
                           vertex=3, arrival_step=0)


def test_martingale_needs_replicas():
    with pytest.raises(StatisticsError):
        g.martingale_check(0.5, (10,), replicas=1)


def test_martingale_checkpoints_and_seed_are_integers():
    for bad in ([100.5, 200], [float("nan"), 200], [float("inf")], [-1, 5], []):
        with pytest.raises(ParameterError, match="checkpoints"):
            g.martingale_check(0.5, bad, 3)
    with pytest.raises(ParameterError, match="seed must be a 64-bit natural"):
        g.martingale_check(0.5, (10, 20), 3, base_seed=1.5)
    # integral floats are times and seeds
    whole = g.martingale_check(0.5, (10.0, 20), 3, base_seed=1.0)
    assert whole == g.martingale_check(0.5, (10, 20), 3, base_seed=1)
    assert [row.t for row in whole.rows] == [10, 20]


# ----------------------------------------------------------------------
# degree envelope


def test_upper_bound_extremes():
    gr = g.run(g.ProcessParams(p=0.5, steps=2000, seed=5)).graph
    assert g.upper_bound_check(gr, 1e9).size == 0
    assert g.upper_bound_check(gr, 0.0).size == gr.num_vertices


def test_upper_bound_monotone_in_c1():
    gr = g.run(g.ProcessParams(p=0.5, steps=2000, seed=5)).graph
    v_tight = set(g.upper_bound_check(gr, 0.5).tolist())
    v_loose = set(g.upper_bound_check(gr, 1.0).tolist())
    assert v_loose <= v_tight


def direct_envelope_ids(gr, c1):
    ids = np.arange(1, gr.num_vertices + 1, dtype=np.float64)
    envelope = c1 * gr.t ** g.c_p(gr.p) * np.sqrt(math.log(gr.t) / ids ** (1.0 - gr.p))
    return np.flatnonzero(gr.degrees >= envelope) + 1


@pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0])
def test_upper_bound_matches_direct_envelope(p):
    # the envelope, built in place for the candidate ids only, flags exactly
    # the ids the direct expression does
    gr = g.run(g.ProcessParams(p=p, steps=3000, seed=2)).graph
    for c1 in (0.0, 0.02, 0.1, 0.5, 4.0):
        assert np.array_equal(g.upper_bound_check(gr, c1), direct_envelope_ids(gr, c1))
    # A path 1-2-...-50 whose last vertex then takes 200 loops: at a c1 that
    # puts the envelope a hair below its degree, the last id is the only
    # violation, and it sits at the candidates' cut.
    nv = 50
    ep = np.concatenate([[1, 1], np.repeat(np.arange(1, nv + 1), 2)[1:-1], np.full(400, nv)])
    path = g.GlpGraph.from_endpoints(ep, p=p)
    edge = path.degree(nv) / (path.t ** g.c_p(p) * math.sqrt(math.log(path.t) / nv ** (1 - p)))
    c1 = edge * (1 - 1e-12)
    assert direct_envelope_ids(path, c1).tolist() == [nv]
    assert g.upper_bound_check(path, c1).tolist() == [nv]
    assert g.upper_bound_check(path, edge * (1 + 1e-6)).size == 0


def test_upper_bound_needs_time():
    gr = g.run(g.ProcessParams(p=0.5, steps=1, seed=0)).graph
    with pytest.raises(ParameterError):
        g.upper_bound_check(gr, 4.0)


# ----------------------------------------------------------------------
# exponent fitting


def test_fit_exponent_exact_recovery():
    ts = np.array([100, 1000, 10_000, 100_000], dtype=float)
    ys = 3.7 * ts**0.62
    fit = g.fit_exponent(list(zip(ts, ys)))
    assert fit.estimate == pytest.approx(0.62, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_exponent_degenerate():
    # constant series is a fit failure; malformed series are usage errors
    with pytest.raises(FitError):
        g.fit_exponent([(100, 5.0), (1000, 5.0), (10_000, 5.0)])
    with pytest.raises(ParameterError):
        g.fit_exponent([(100, 1.0), (200, 2.0)])  # too few points
    with pytest.raises(ParameterError):
        g.fit_exponent([(100, 1.0), (200, 2.0), (400, 3.0)])  # span < 100x
    with pytest.raises(ParameterError):
        g.fit_exponent([(100, 1.0), (1000, -2.0), (10_000, 3.0)])


def test_maxdeg_ensemble_p1_slope():
    rep = g.run_ensemble(g.EnsembleConfig(
        "maxdeg", p_grid=(1.0,), steps=10**5, replicas=10, base_seed=400,
        params={"snapshot_times": (10**3, 10**4, 10**5)},
    ))
    assert not rep.failures
    series = [(a["t"], a["mean"]) for a in rep.aggregates]
    assert [t for t, _ in series] == [10**3, 10**4, 10**5]
    fit = g.fit_exponent(series)
    assert 0.35 < fit.estimate < 0.65  # c_p = 0.5 at p=1


# ----------------------------------------------------------------------
# degree histogram and tail fit


def test_histogram_invariants():
    gr = g.run(g.ProcessParams(p=0.5, steps=5000, seed=9)).graph
    h = g.degree_histogram(gr)
    assert h.vertex_count == gr.num_vertices
    assert h.total_degree == 2 * (gr.t + 1)
    assert (np.asarray(h.counts) > 0).all()
    vals = np.asarray(h.values)
    assert (np.diff(vals) > 0).all()


def test_histogram_from_samples():
    h = g.DegreeHistogram.from_samples([3, 1, 3, 2, 3])
    assert list(h.values) == [1, 2, 3]
    assert list(h.counts) == [1, 1, 3]
    with pytest.raises(ParameterError):
        g.DegreeHistogram((1, 2), (3,))
    with pytest.raises(ParameterError):
        g.DegreeHistogram((2, 1), (1, 1))


def test_power_law_zipf_recovery():
    # exact Zipf(3.0) sample: the fitted exponent lands within 0.05
    rng = g.make_rng(1000)
    sample = rng.zipf(3.0, size=10**6)
    h = g.DegreeHistogram.from_samples(sample)
    fit = g.fit_power_law(h, x_min=1)
    assert fit.estimate == pytest.approx(3.0, abs=0.05)
    assert fit.stderr < 0.01


def test_power_law_needs_tail_mass():
    gr = g.run(g.ProcessParams(p=0.5, steps=500, seed=3)).graph
    with pytest.raises(StatisticsError):
        g.fit_power_law(g.degree_histogram(gr), x_min=50)


def test_power_law_rejects_degenerate_tail():
    # a 150-cycle: every degree equals 2, nothing to fit
    n = 150
    ep = []
    for k in range(1, n):
        ep.extend([k, k + 1])
    ep.extend([n, 1])
    gr = g.GlpGraph.from_endpoints(np.array(ep), p=0.5, seed=0)
    with pytest.raises(FitError):
        g.fit_power_law(g.degree_histogram(gr), x_min=1)


def test_power_law_generated_graph_matches_hint():
    """Tail exponent of a p=0.5 run sits near 1 + 2/(2-p); exploratory band."""
    gr = g.run(g.ProcessParams(p=0.5, steps=10**6, seed=11)).graph
    fit = g.fit_power_law(g.degree_histogram(gr), x_min=10)
    hint = g.derived_constants(0.5).powerlaw_exponent_hint
    assert fit.estimate == pytest.approx(hint, abs=0.2)
