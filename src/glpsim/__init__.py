"""Simulator and statistics toolkit for a degree-proportional growth process
with a tunable mix of vertex and edge arrivals."""

from .analytics import (
    DegreeHistogram,
    DerivedConstants,
    ExponentFit,
    MartingaleReport,
    MartingaleRow,
    c_p,
    degree_histogram,
    derived_constants,
    fit_exponent,
    fit_power_law,
    martingale_check,
    phi,
    phi_tilde,
    upper_bound_check,
)
from .community import (
    CliqueReport,
    GrowthRow,
    LeaderSet,
    clique_growth_rows,
    count_triangles,
    is_clique,
    leader_block_range,
    leaders,
    max_clique_topk,
    simple_edges,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleReport,
    MetricRow,
    read_report,
    run_ensemble,
    write_report,
    write_rows_csv,
)
from .errors import (
    BatchError,
    CapacityError,
    ConfigError,
    FitError,
    GlpError,
    ParameterError,
    ParseError,
    PreconditionError,
    StatisticsError,
    UnknownVertexError,
)
from .hitting import (
    BlockSpec,
    DominatingLawParams,
    DominationReport,
    DominationRow,
    crossing_times,
    default_gamma,
    domination_experiment,
    domination_test,
    empirical_hit_times,
    sample_arrival,
    sample_dominating,
    survival_curve,
)
from .process import (
    GlpGraph,
    ProcessParams,
    RunResult,
    Snapshot,
    export_edges,
    make_rng,
    read_edges,
    replicas,
    run,
    sample_endpoint,
)

from ._version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
