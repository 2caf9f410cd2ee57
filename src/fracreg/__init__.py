"""Graph-Laplacian eigenmap regression for nonsmooth targets.

Builds epsilon-neighborhood graphs over design points, projects responses
onto the leading eigenvectors of the scaled unnormalized Laplacian, and
ships a fractional-Sobolev toolkit plus a Monte-Carlo harness to check the
method's convergence rate and eigenvalue growth empirically.
"""

from fracreg.errors import (
    ConfigError,
    FracregError,
    InvalidInputError,
    SolverError,
    TuningError,
)
from fracreg.estimator import (
    DisconnectedGraphWarning,
    RegressionFit,
    TuningRule,
    bias_variance_decompose,
    choose_epsilon,
    choose_K,
    fit,
    grid_search,
)
from fracreg.experiments import (
    ExperimentConfig,
    ExperimentReport,
    eigenvalue_growth_diagnostic,
    generate,
    mean_fit_curve,
    run_sweep,
)
from fracreg.graph import (
    KernelMoments,
    KernelSpec,
    NeighborGraph,
    SampleSet,
    build_graph,
    connectivity_check,
    kernel_moments,
)
from fracreg.sobolev import (
    SeminormResult,
    TestFunction,
    continuum_seminorm,
    spectral_seminorm,
    zoo,
    zoo_function,
)
from fracreg.spectral import (
    EigenSystem,
    LaplacianOperator,
    dirichlet_form,
    eigensolve,
    fractional_apply,
    laplacian,
)

__version__ = "0.1.0"
