import math
import tracemalloc

import numpy as np
import pytest

import glpsim as g
from glpsim.errors import ParameterError, PreconditionError


# ----------------------------------------------------------------------
# block bookkeeping and crossing detection


def block_degree_curve(graph, block):
    """Block degree after each step, index 0 being the initial loop state,
    from a full-length member mask: the oracle of ``crossing_times``."""
    lo, hi = block.vertex_range
    ep = graph.endpoints
    member = (ep >= lo) & (ep <= hi)
    return np.cumsum(member.reshape(-1, 2).sum(axis=1))


def test_block_spec_validation():
    with pytest.raises(ParameterError):
        g.BlockSpec(j=0, m=1, thresholds=(2,))
    with pytest.raises(ParameterError):
        g.BlockSpec(j=1, m=1, thresholds=())
    with pytest.raises(ParameterError):
        g.BlockSpec(j=1, m=1, thresholds=(4, 2))  # not sorted
    for bad in ((2.5,), (float("nan"),), (float("inf"),), (0,)):
        with pytest.raises(ParameterError, match="thresholds"):
            g.BlockSpec(j=1, m=1, thresholds=bad)
    b = g.BlockSpec(j=3, m=4, thresholds=(5, 9.0))
    assert b.vertex_range == (9, 12)
    assert b.thresholds == (5, 9) and type(b.thresholds[1]) is int


def test_initial_loop_hits_immediately():
    gr = g.run(g.ProcessParams(p=0.5, steps=10, seed=0)).graph
    assert g.crossing_times(gr, g.BlockSpec(j=1, m=1, thresholds=(2,))) == (0,)


def test_p0_deterministic_crossings():
    # all edges are loops on vertex 1: degree 2(n+1) after n steps
    gr = g.run(g.ProcessParams(p=0.0, steps=30, seed=1)).graph
    assert g.crossing_times(gr, g.BlockSpec(j=1, m=1, thresholds=(4, 8, 42))) == (1, 3, 20)


def test_censored_threshold_is_none():
    gr = g.run(g.ProcessParams(p=0.5, steps=50, seed=2)).graph
    assert g.crossing_times(gr, g.BlockSpec(j=1, m=1, thresholds=(10**6,))) == (None,)


def test_block_degree_curve_matches_direct_sum():
    gr = g.run(g.ProcessParams(p=0.5, steps=500, seed=6)).graph
    block = g.BlockSpec(j=3, m=4, thresholds=(4,))
    lo, hi = block.vertex_range
    curve = block_degree_curve(gr, block)
    assert curve.shape == (gr.t + 1,)
    for t in (0, 100, 350, 500):
        deg_t = gr.at(t).degrees  # deg_t[j-1] is vertex j
        assert curve[t] == int(deg_t[lo - 1 : hi].sum())
    assert (np.diff(curve) >= 0).all()


def test_crossing_times_match_the_degree_curve():
    rng = np.random.default_rng(5)
    for seed in range(12):
        p = float(rng.choice([0.1, 0.5, 0.9]))
        gr = g.run(g.ProcessParams(p=p, steps=int(rng.integers(0, 4000)), seed=seed)).graph
        for _ in range(4):
            m = int(rng.integers(1, 6))
            j = int(rng.integers(1, max(2, gr.num_vertices // m + 2)))
            ks = tuple(sorted(set(rng.integers(1, 60, size=5).tolist())))
            block = g.BlockSpec(j=j, m=m, thresholds=ks)
            curve = block_degree_curve(gr, block)
            idx = np.searchsorted(curve, ks)
            want = tuple(int(i) if i < curve.size else None for i in idx)
            assert g.crossing_times(gr, block) == want


def test_crossings_are_monotone_in_k_per_replica():
    thresholds = (4, 6, 10, 14)
    for seed in range(20):
        block = g.BlockSpec(j=2, m=2, thresholds=thresholds)
        gr = g.run(g.ProcessParams(p=0.5, steps=3000, seed=seed)).graph
        hits = [h for h in g.crossing_times(gr, block) if h is not None]
        assert hits == sorted(hits)


def test_wider_block_hits_no_later():
    # block (j=1, m=2) contains block (j=1, m=1); same threshold, same run
    for seed in range(15):
        gr = g.run(g.ProcessParams(p=0.5, steps=2000, seed=100 + seed)).graph
        (narrow,) = g.crossing_times(gr, g.BlockSpec(j=1, m=1, thresholds=(12,)))
        (wide,) = g.crossing_times(gr, g.BlockSpec(j=1, m=2, thresholds=(12,)))
        if narrow is not None:
            assert wide is not None and wide <= narrow


# ----------------------------------------------------------------------
# arrival surrogate


def test_sample_arrival_trivials():
    rng = g.make_rng(0)
    assert g.sample_arrival(1, 1, 0.5, rng) == 1
    assert g.sample_arrival(1, 1, 0.0, rng) == 1  # empty sum even at p=0
    with pytest.raises(ParameterError):
        g.sample_arrival(2, 1, 0.0, rng)
    with pytest.raises(ParameterError):
        g.sample_arrival(0, 1, 0.5, rng)


def test_sample_arrival_mean():
    rng = g.make_rng(5)
    s = g.sample_arrival(5, 2, 0.5, rng, size=200_000).astype(float)
    # 1 + sum of 9 geometric(1/2) waits
    mean = 1 + 9 / 0.5
    se = s.std(ddof=1) / math.sqrt(s.size)
    assert abs(s.mean() - mean) < 3 * se
    assert s.min() >= 10


def test_sample_arrival_dominates_true_block_fill():
    """Surrogate arrival time sits above the true time to fill the block."""
    p, j, m = 0.5, 3, 2
    replicas = 3000
    block = g.BlockSpec(j=j, m=m, thresholds=(m,))
    true_times = np.empty(replicas)
    for r in range(replicas):
        gr = g.run(g.ProcessParams(p=p, steps=400, seed=7000 + r)).graph
        (h,) = g.crossing_times(gr, block)
        true_times[r] = math.inf if h is None else h
    surrogate = g.sample_arrival(j, m, p, g.make_rng(123), size=replicas)
    grid = np.arange(0, 60, dtype=float)
    emp, emp_se = g.survival_curve(true_times, grid)
    sur, sur_se = g.survival_curve(surrogate.astype(float), grid)
    slack = 3 * np.hypot(emp_se, sur_se)
    assert (emp <= sur + slack).all()


# ----------------------------------------------------------------------
# dominating law


def test_default_gamma_inside_regime():
    assert g.default_gamma(0.5) == pytest.approx(0.3)
    assert g.default_gamma(0.9) == pytest.approx(0.5)
    for p in (0.05, 0.25, 0.5, 0.75, 0.99):
        gam = g.default_gamma(p)
        assert 0 < gam < 1.0 / g.c_p(p) - 1.0 + 1e-12
    with pytest.raises(ParameterError):
        g.default_gamma(0.0)  # the guarantee interval is empty there
    with pytest.raises(ParameterError, match="got p=1.0"):
        g.default_gamma(1.0)  # the message names the p it was given


def test_dominating_params_validation():
    with pytest.raises(ParameterError):
        g.DominatingLawParams(p=1.0, m=1, j=1, k=2, gamma=0.3)
    with pytest.raises(ParameterError):
        g.DominatingLawParams(p=0.5, m=4, j=260, k=2, gamma=0.3)  # k < m
    with pytest.raises(ParameterError):
        g.DominatingLawParams(p=0.5, m=4, j=260, k=16, gamma=0.0)
    # gamma beyond the guarantee regime is allowed (rates stay positive)
    lp = g.DominatingLawParams(p=0.5, m=4, j=260, k=16, gamma=0.4)
    assert (lp.rates() > 0).all()
    for replicas, samples in ((0, 10), (-1, 10), (10, 0), (10, -1)):
        with pytest.raises(ParameterError, match="must be >= 1"):
            g.domination_experiment(
                p=0.5, m=4, j=260, k=16, t_grid=(100, 1000),
                replicas=replicas, dominating_samples=samples,
            )


def test_dominating_rates_closed_form():
    lp = g.DominatingLawParams(p=0.5, m=4, j=260, k=8, gamma=0.3)
    levels = np.arange(4, 8, dtype=float)
    delta = 0.5 / (2 * 1.5 * levels**0.3)
    assert lp.rates() == pytest.approx(0.75 * (1 - delta) * levels)
    assert lp.min_block_index() == pytest.approx(4.0**4 + 1)


def test_dominating_k_equals_m_reduces_to_arrival():
    lp = g.DominatingLawParams(p=0.5, m=2, j=40, k=2, gamma=0.3)
    a = g.sample_dominating(lp, g.make_rng(77), size=5000)
    b = g.sample_arrival(40, 2, 0.5, g.make_rng(77), size=5000)
    assert np.array_equal(a, b.astype(float))


@pytest.mark.parametrize("size", [None, 0, 1, 10**3])
@pytest.mark.parametrize("k", [4, 16])
def test_dominating_draws_match_numpy_exponential(size, k):
    # the eta draws scaled in place are ``rng.exponential(1.0 / rates)``,
    # values and generator state alike; k == m has no eta levels
    lp = g.DominatingLawParams(p=0.5, m=4, j=260, k=k, gamma=0.4)
    rng, ref = g.make_rng(31), g.make_rng(31)
    got = g.sample_dominating(lp, rng, size=size)
    arrival = g.sample_arrival(260, 4, 0.5, ref, size=size)
    rates = lp.rates()
    if rates.size:
        shape = np.shape(arrival) + (rates.size,)
        arrival = arrival * np.exp(ref.exponential(1.0 / rates, size=shape).sum(axis=-1))
    want = float(arrival) if size is None else np.asarray(arrival, dtype=np.float64)
    assert type(got) is type(want) and np.array_equal(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_dominating_exponential_factor_moment():
    """With one eta level, E[dominating]/E[arrival] = r/(r-1) for rate r>1."""
    lp = g.DominatingLawParams(p=0.5, m=4, j=260, k=5, gamma=0.3)
    r = float(lp.rates()[0])
    assert r > 1
    dom = g.sample_dominating(lp, g.make_rng(8), size=10**6)
    arr = g.sample_arrival(260, 4, 0.5, g.make_rng(9), size=10**6).astype(float)
    target = r / (r - 1)
    ratio = dom.mean() / arr.mean()
    # delta-method error bar on the ratio of independent means
    se = ratio * math.hypot(
        dom.std(ddof=1) / math.sqrt(dom.size) / dom.mean(),
        arr.std(ddof=1) / math.sqrt(arr.size) / arr.mean(),
    )
    assert abs(ratio - target) < 3 * se


def test_precondition_refusal():
    lp = g.DominatingLawParams(p=0.5, m=4, j=50, k=16, gamma=0.3)
    with pytest.raises(PreconditionError):
        g.sample_dominating(lp, g.make_rng(0), size=10)
    with pytest.raises(PreconditionError):
        g.domination_experiment(
            p=0.5, m=4, j=50, k=16, t_grid=(100, 1000),
            replicas=10, dominating_samples=10,
        )


def test_survival_curve_exact_small_case():
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    surv, se = g.survival_curve(samples, np.array([0.0, 1.0, 2.0, 5.0]))
    assert surv == pytest.approx([1.0, 0.75, 0.5, 0.0])
    assert se[0] == 0.0 and se[-1] == 0.0
    # censored values (inf) survive every finite time
    surv2, _ = g.survival_curve(np.array([1.0, math.inf]), np.array([10.0]))
    assert surv2 == pytest.approx([0.5])


def test_survival_curve_memory_is_linear_in_samples():
    # a grid x samples mask would take 50 B/sample here
    samples = g.make_rng(3).exponential(100.0, size=10**6)
    samples[::7] = math.inf
    grid = np.linspace(0.0, 500.0, 50)
    tracemalloc.start()
    try:
        surv, _ = g.survival_curve(samples, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / samples.size <= 2
    small = samples[:1000]
    mask_mean = (small[None, :] > grid[:, None]).mean(axis=1)
    assert np.array_equal(g.survival_curve(small, grid)[0], mask_mean)
    assert surv[0] == 1.0 and (np.diff(surv) <= 0).all()


def test_time_grids_must_be_integers():
    law = g.DominatingLawParams(p=0.5, m=4, j=260, k=16, gamma=0.3)
    for bad in ([10.7, 20], [float("nan")], [float("inf")], [-1, 20], []):
        with pytest.raises(ParameterError, match="time grid"):
            g.domination_experiment(p=0.5, m=4, j=260, k=16, t_grid=bad,
                                    replicas=2, dominating_samples=2)
        with pytest.raises(ParameterError, match="time grid"):
            g.domination_test(law, np.ones(2), np.ones(2), bad)
    with pytest.raises(ParameterError, match="steps must be a non-negative integer"):
        g.domination_experiment(p=0.5, m=4, j=260, k=16, t_grid=[10, 20],
                                replicas=2, dominating_samples=2, steps=20.5)


def test_domination_trivial_pass():
    rows = g.domination_test(
        g.DominatingLawParams(p=0.5, m=4, j=260, k=16, gamma=0.3),
        empirical_times=np.array([5.0, 7.0, 9.0]),
        dominating_samples=np.array([math.inf] * 10),
        t_grid=np.array([4.0, 8.0, 16.0]),
    )
    assert rows.passed
    assert all(r.dominating == 1.0 for r in rows.rows)


def test_domination_experiment_small():
    """Scaled-down version of the full comparison; must pass cleanly."""
    rep = g.domination_experiment(
        p=0.5, m=4, j=260, k=16,
        t_grid=[2**i for i in range(8, 15)],
        replicas=400, dominating_samples=8000, base_seed=0, gamma=0.4,
    )
    assert rep.params.gamma == 0.4
    assert rep.passed
    # empirical survival is a nonincreasing function of t
    emp = [r.empirical for r in rep.rows]
    assert all(a >= b for a, b in zip(emp, emp[1:]))
