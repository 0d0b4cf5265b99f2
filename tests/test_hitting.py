import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glpsim as g
from bad_values import BAD
from glpsim.errors import CapacityError, GlpError, ParameterError, PreconditionError


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


def test_sample_size_beyond_the_step_budget():
    # numpy refuses 2**64 draws too, but its ValueError read as a p too small
    for j in (1, 2):
        with pytest.raises(ParameterError, match=f"^size must be <= 2147483645, got {2**64}$"):
            g.sample_arrival(j, 1, 0.5, g.make_rng(0), size=2**64)


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
    # a level beyond any run's total degree; rates() would span 2**64 levels
    with pytest.raises(ParameterError, match=f"^threshold k must be <= 4294967292, got {2**64}$"):
        g.DominatingLawParams(p=0.5, m=1, j=2, k=2**64, gamma=0.3)
    assert g.DominatingLawParams(p=0.5, m=1, j=2, k=4294967292, gamma=0.3).k == 4294967292
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


@pytest.mark.parametrize("k, size", [(k, size) for k in (4, 16) for size in (None, 0, 1, 10**3)]
                         + [(1000, 2200)])
def test_dominating_draws_match_numpy_exponential(k, size):
    # the eta draws scaled in place are ``rng.exponential(1.0 / rates)``,
    # values and generator state alike; k == m has no eta levels, and
    # 2200 x 996 draws take three chunks of at most 2**20, the last ragged
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


def test_dominating_peak_is_one_draw_chunk():
    """10,000 samples over 996 levels draw 80 MB of exponentials, but only
    one chunk of 2**20 doubles (8 MiB) is held at a time."""
    lp = g.DominatingLawParams(p=0.5, m=4, j=260, k=1000, gamma=0.4)
    tracemalloc.start()
    try:
        g.sample_dominating(lp, g.make_rng(1), size=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_rates_at_a_huge_gamma_are_the_limit_without_a_warning():
    """``i**gamma`` past the float range is inf, so ``delta_i`` is 0 and the
    rate is the gamma -> inf limit ``c_p * i``; level 1 keeps its delta,
    since ``1**gamma`` is 1.  numpy's overflow warning stays inside."""
    lp = g.DominatingLawParams(p=0.5, m=1, j=2, k=4, gamma=float(2**64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = lp.rates()
    level_1 = g.DominatingLawParams(p=0.5, m=1, j=2, k=2, gamma=1.0).rates()
    assert rates.tolist() == [level_1[0], g.c_p(0.5) * 2, g.c_p(0.5) * 3]


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
    with pytest.raises(ParameterError, match="^no samples$"):
        g.survival_curve(np.array([]), np.array([10.0]))


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


def test_domination_sampler_seed_is_checked_with_the_replica_fan(monkeypatch):
    # replica r runs at base_seed + r and the sampler at base_seed + replicas,
    # so the fan spans replicas + 1 seeds, checked before the sampler draws
    kw = dict(p=0.5, m=4, j=260, k=16, t_grid=(100, 1000), replicas=2, dominating_samples=10)
    rep = g.domination_experiment(**kw, base_seed=2**64 - 3)
    law = g.DominatingLawParams(p=0.5, m=4, j=260, k=16, gamma=rep.params.gamma)
    assert np.array_equal(rep.dominating_times,
                          g.sample_dominating(law, g.make_rng(2**64 - 1), 10))

    def no_draw(*args):
        raise AssertionError("the sampler drew before the seeds were checked")

    monkeypatch.setattr(g.hitting, "sample_dominating", no_draw)
    with pytest.raises(ParameterError, match=r"base_seed must lie in \[0, 2\*\*64 - 3\], "
                                             r"got 18446744073709551614"):
        g.domination_experiment(**kw, base_seed=2**64 - 2)


@pytest.mark.parametrize("steps, error, message", [
    (999, ParameterError, r"^steps must reach the last grid point 1000, got 999$"),
    (20.5, ParameterError, r"^steps must be a non-negative integer, got 20\.5$"),
    ("1000", ParameterError, r"^steps must be a non-negative integer, got '1000'$"),
    (2**31, CapacityError, r"exceeds the 32-bit id budget"),
])
def test_domination_steps_checked_before_the_sampler_draws(monkeypatch, steps, error, message):
    def no_draw(*args):
        raise AssertionError("the sampler drew before steps was checked")

    monkeypatch.setattr(g.hitting, "sample_dominating", no_draw)
    with pytest.raises(error, match=message):
        g.domination_experiment(p=0.5, m=4, j=260, k=16, t_grid=(100, 1000), replicas=2,
                                dominating_samples=10, steps=steps)


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


# ----------------------------------------------------------------------
# the library twin of the exit-code fuzz

_FUZZ_GRAPH = g.run(g.ProcessParams(p=0.5, steps=300, seed=4)).graph


def _law(a):
    return g.DominatingLawParams(p=a["p"], m=a["m"], j=a["j"], k=a["k"], gamma=a["gamma"])


# Each public call with the arguments it draws, run on a fresh generator;
# ``_GOOD`` gives the valid values of each argument, at tiny sizes.
_HITTING_CALLS = {
    "sample_arrival": (("j", "m", "p", "size"),
                       lambda a: g.sample_arrival(a["j"], a["m"], a["p"], g.make_rng(0),
                                                  size=a["size"])),
    "sample_dominating": (("p", "m", "j", "k", "gamma", "size"),
                          lambda a: g.sample_dominating(_law(a), g.make_rng(0), size=a["size"])),
    "crossing_times": (("j", "m", "thresholds"),
                       lambda a: g.crossing_times(_FUZZ_GRAPH, g.BlockSpec(
                           j=a["j"], m=a["m"], thresholds=a["thresholds"]))),
    "survival_curve": (("samples", "t_grid"),
                       lambda a: g.survival_curve(a["samples"], a["t_grid"])),
    "domination_test": (("p", "m", "j", "k", "gamma", "times", "samples", "t_grid"),
                        lambda a: g.domination_test(_law(a), a["times"], a["samples"],
                                                    a["t_grid"])),
    "empirical_hit_times": (("p", "steps", "j", "m", "k", "replicas", "base_seed"),
                            lambda a: g.empirical_hit_times(a["p"], a["steps"], a["j"], a["m"],
                                                            a["k"], a["replicas"],
                                                            a["base_seed"])),
    "domination_experiment": (("p", "m", "j", "k", "t_grid", "replicas", "count", "base_seed",
                               "gamma", "steps"),
                              lambda a: g.domination_experiment(
                                  p=a["p"], m=a["m"], j=a["j"], k=a["k"], t_grid=a["t_grid"],
                                  replicas=a["replicas"], dominating_samples=a["count"],
                                  base_seed=a["base_seed"], gamma=a["gamma"],
                                  steps=a["steps"])),
}
_TIMES = st.one_of(st.integers(1, 400).map(float), st.just(math.inf))
_GOOD = {
    "p": st.sampled_from([0.25, 0.5, 0.75]), "j": st.integers(1, 300), "m": st.integers(1, 4),
    "k": st.integers(1, 12), "gamma": st.sampled_from([0.1, 0.4, 2.0]),
    "size": st.one_of(st.none(), st.integers(0, 50)),
    "thresholds": st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True).map(sorted),
    "samples": st.lists(_TIMES, min_size=1, max_size=20),
    "times": st.lists(_TIMES, min_size=1, max_size=20),
    "t_grid": st.lists(st.integers(0, 300), min_size=1, max_size=4),
    "steps": st.sampled_from([None, 300, 400]), "replicas": st.integers(0, 3),
    "count": st.integers(0, 50), "base_seed": st.integers(0, 10),
}
_LISTS = ("thresholds", "samples", "times", "t_grid")


@st.composite
def _hitting_calls(draw):
    """A public ``hitting`` call with valid values for its arguments, then up
    to two of them bad: a value from the bad alphabet, given alone or, for
    a list argument, inside a valid list."""
    name = draw(st.sampled_from(sorted(_HITTING_CALLS)))
    names, _ = _HITTING_CALLS[name]
    args = {arg: draw(_GOOD[arg]) for arg in names}
    for arg in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        bad = draw(st.sampled_from(BAD))
        if arg in _LISTS and draw(st.booleans()):
            bad = [*args[arg], bad]
        args[arg] = bad
    return name, args


_LAW = {"p": 0.5, "m": 1, "j": 4, "k": 3, "gamma": 0.4}


@settings(max_examples=400, deadline=None)
@given(call=_hitting_calls())
# numpy's ValueError from a sample it cannot read as a float
@example(call=("domination_test", {**_LAW, "times": [1.0], "samples": [1.0, ""], "t_grid": [0]}))
# TypeError from list() of a single number, in process._time_grid and in BlockSpec
@example(call=("domination_experiment", {**_LAW, "t_grid": math.nan, "replicas": 1, "count": 1,
                                         "base_seed": 0, "steps": None}))
@example(call=("crossing_times", {"j": 4.0, "m": 1, "thresholds": math.nan}))
# TypeError from comparing a string p, and from math.isfinite of a string gamma
@example(call=("sample_dominating", {**_LAW, "p": "word", "size": None}))
@example(call=("sample_dominating", {**_LAW, "gamma": "word", "size": None}))
# TypeError from iterating over the 0-d grid of a single time
@example(call=("survival_curve", {"samples": [math.inf], "t_grid": "nan"}))
def test_hitting_raises_only_package_errors(call):
    """Whatever the values, a public ``hitting`` call returns or raises a
    ``GlpError``, and prints no warning."""
    name, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _HITTING_CALLS[name][1](args)
        except GlpError:
            pass
