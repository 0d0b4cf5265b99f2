"""Simulator and statistics toolkit for a degree-proportional growth process
with a tunable mix of vertex and edge arrivals.

The submodules load on first use (PEP 562): ``import glpsim`` loads none of
them, and ``glpsim.run`` or ``from glpsim import process`` loads ``process``
and what it imports.  Each public name is looked up in its submodule on every
access, so ``glpsim.run is glpsim.process.run`` always holds.
"""

import importlib

from ._version import __version__

# The public names of each submodule.
_EXPORTS = {
    "analytics": (
        "DegreeHistogram", "DerivedConstants", "ExponentFit", "MartingaleReport",
        "MartingaleRow", "c_p", "degree_histogram", "derived_constants", "fit_exponent",
        "fit_power_law", "martingale_check", "phi", "phi_tilde", "upper_bound_check",
    ),
    "community": (
        "CliqueReport", "GrowthRow", "LeaderSet", "clique_growth_rows", "count_triangles",
        "is_clique", "leader_block_range", "leaders", "max_clique_topk", "simple_edges",
    ),
    "ensemble": (
        "EnsembleConfig", "EnsembleReport", "MetricRow", "read_report", "run_ensemble",
        "write_report", "write_rows_csv",
    ),
    "errors": (
        "BatchError", "CapacityError", "ConfigError", "FitError", "GlpError",
        "ParameterError", "ParseError", "PreconditionError", "StatisticsError",
        "UnknownVertexError",
    ),
    "hitting": (
        "BlockSpec", "DominatingLawParams", "DominationReport", "DominationRow",
        "crossing_times", "default_gamma", "domination_experiment", "domination_test",
        "empirical_hit_times", "sample_arrival", "sample_dominating", "survival_curve",
    ),
    "process": (
        "GlpGraph", "ProcessParams", "RunResult", "Snapshot", "export_edges", "make_rng",
        "read_edges", "replicas", "run", "sample_endpoint",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
