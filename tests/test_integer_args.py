"""Every integer argument of a public entry point follows one rule: an
integer, ``4.0`` included, or the package's error before any work is done.
Nothing is truncated, left fractional, read from a string or failed late
with a raw error."""

import warnings

import numpy as np
import pytest

import glpsim as g
from glpsim.errors import ConfigError, ParameterError

GRAPH = g.run(g.ProcessParams(p=0.5, steps=2000, seed=1)).graph
HIST = g.degree_histogram(g.run(g.ProcessParams(p=0.5, steps=20000, seed=1)).graph)


def ensemble(**over):
    """Config of a small maxdeg ensemble, or a cliquegrowth one with ``params``
    and no ``experiment``."""
    base = dict(experiment="maxdeg", p_grid=(0.5,), steps=200, replicas=2)
    if "params" in over and "experiment" not in over:
        base.update(experiment="cliquegrowth", steps=2000, replicas=1)
    base.update(over)
    return g.EnsembleConfig(**base)


# (entry point and argument, the call with the argument set to x, its error).
# Each call returns a value whose repr shows what the run worked on, so an
# argument of 4.0 must give exactly what 4 gives, stored ints included.
CASES = [
    ("phi t", lambda x: g.phi(x, 0.5), ParameterError),
    ("phi_tilde t", lambda x: g.phi_tilde(x, 0.5), ParameterError),
    ("make_rng seed", lambda x: g.make_rng(x).random(), ParameterError),
    ("martingale_check checkpoints",
     lambda x: g.martingale_check(0.5, (x, 20), replicas=2), ParameterError),
    ("martingale_check replicas",
     lambda x: g.martingale_check(0.5, (10, 20), replicas=x), ParameterError),
    ("martingale_check vertex",
     lambda x: g.martingale_check(0.5, (10, 20), 2, vertex=x, arrival_step=5), ParameterError),
    ("fit_power_law x_min", lambda x: g.fit_power_law(HIST, x_min=x), ParameterError),
    ("empirical_hit_times k",
     lambda x: g.empirical_hit_times(0.5, 200, 1, 1, k=x, replicas=2, base_seed=0),
     ParameterError),
    ("empirical_hit_times replicas",
     lambda x: g.empirical_hit_times(0.5, 200, 1, 1, k=4, replicas=x, base_seed=0),
     ParameterError),
    ("domination_experiment replicas",
     lambda x: g.domination_experiment(p=0.5, m=4, j=260, k=16, t_grid=(100, 1000),
                                       replicas=x, dominating_samples=10), ParameterError),
    ("domination_experiment dominating_samples",
     lambda x: g.domination_experiment(p=0.5, m=4, j=260, k=16, t_grid=(100, 1000),
                                       replicas=2, dominating_samples=x), ParameterError),
    ("leaders m", lambda x: g.leaders(GRAPH, x, 1, 2), ParameterError),
    ("leaders j_lo", lambda x: g.leaders(GRAPH, 2, x, 5), ParameterError),
    ("leaders j_hi", lambda x: g.leaders(GRAPH, 2, 1, x), ParameterError),
    ("leader_block_range t", lambda x: g.leader_block_range(x, 0.5, 0.1, 0.0), ParameterError),
    ("max_clique_topk k", lambda x: g.max_clique_topk(GRAPH, x), ParameterError),
    ("is_clique ids", lambda x: g.is_clique(GRAPH, [1, x, 7]), ParameterError),
    ("DegreeHistogram values",
     lambda x: g.DegreeHistogram(values=[1, x, 7], counts=[1, 1, 1]), ParameterError),
    ("DegreeHistogram counts",
     lambda x: g.DegreeHistogram(values=[1, 2, 3], counts=[1, x, 1]), ParameterError),
    ("DegreeHistogram from_samples",
     lambda x: g.DegreeHistogram.from_samples([2, x, 3]), ParameterError),
    ("BlockSpec j", lambda x: g.crossing_times(GRAPH, g.BlockSpec(j=x, m=2, thresholds=(3,))),
     ParameterError),
    ("BlockSpec m", lambda x: g.BlockSpec(j=1, m=x, thresholds=(3,)), ParameterError),
    ("sample_arrival j", lambda x: g.sample_arrival(x, 2, 0.5, g.make_rng(0)), ParameterError),
    ("sample_arrival m", lambda x: g.sample_arrival(2, x, 0.5, g.make_rng(0)), ParameterError),
    ("sample_arrival size",
     lambda x: g.sample_arrival(2, 2, 0.5, g.make_rng(0), size=x), ParameterError),
    ("gain_steps lo", lambda x: GRAPH.gain_steps(x, 9), ParameterError),
    ("gain_steps hi", lambda x: GRAPH.gain_steps(2, x), ParameterError),
    ("DominatingLawParams m",
     lambda x: g.DominatingLawParams(p=0.5, m=x, j=260, k=16, gamma=0.3), ParameterError),
    ("DominatingLawParams j",
     lambda x: g.DominatingLawParams(p=0.5, m=1, j=x, k=16, gamma=0.3), ParameterError),
    ("DominatingLawParams k",
     lambda x: g.DominatingLawParams(p=0.5, m=2, j=260, k=x, gamma=0.3), ParameterError),
    ("sample_dominating size",
     lambda x: g.sample_dominating(g.DominatingLawParams(p=0.5, m=4, j=260, k=8, gamma=0.3),
                                   g.make_rng(0), size=x), ParameterError),
    ("EnsembleConfig replicas", lambda x: g.run_ensemble(ensemble(replicas=x)), ConfigError),
    ("EnsembleConfig width", lambda x: ensemble(width=x).as_dict(), ConfigError),
    ("EnsembleConfig topk",
     lambda x: g.run_ensemble(ensemble(params={"t_values": (1000,), "topk": x})).rows,
     ConfigError),
    ("EnsembleConfig m",
     lambda x: g.run_ensemble(ensemble(params={"t_values": (1000,), "m": x})).rows,
     ConfigError),
    ("EnsembleConfig t_values",
     lambda x: g.run_ensemble(ensemble(params={"t_values": (x * 125, 1000)})), ConfigError),
    # the metric is named arrival_time_4 and the config echo says 4
    ("EnsembleConfig vertex",
     lambda x: g.run_ensemble(ensemble(experiment="arrival", params={"vertex": x})), ConfigError),
    ("EnsembleConfig snapshot_times",
     lambda x: g.run_ensemble(ensemble(experiment="maxdeg", params={"snapshot_times": (x, 200)})),
     ConfigError),
]


@pytest.mark.parametrize("call, error", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_integer_arguments_follow_one_rule(call, error):
    for bad in (2.5, float("nan"), float("inf"), "4"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy cast warning on the way
            with pytest.raises(error):
                call(bad)
    assert repr(call(4.0)) == repr(call(4))
    assert repr(call(np.int64(4))) == repr(call(4))


@pytest.mark.parametrize("p", ["0.5", None, b"0.5"], ids=["str", "none", "bytes"])
def test_p_is_a_number(p):
    """``p`` is a number in [0, 1] too: a string is not read as one."""
    with pytest.raises(ParameterError, match="^p must lie in"):
        g.ProcessParams(p, 10, 0)
    with pytest.raises(ConfigError, match="^p must lie in"):
        g.EnsembleConfig("maxdeg", (p,), 10, 2)
