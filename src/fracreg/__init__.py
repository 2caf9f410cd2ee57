"""Graph-Laplacian eigenmap regression for nonsmooth targets.

Builds epsilon-neighborhood graphs over design points, projects responses
onto the leading eigenvectors of the scaled unnormalized Laplacian, and
ships a fractional-Sobolev toolkit plus a Monte-Carlo harness to check the
method's convergence rate and eigenvalue growth empirically.

Submodules and the names below load on first access (PEP 562), so that
``import fracreg`` costs numpy alone; the graph and spectral modules bring
in scipy when first used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConfigError", "FracregError", "InvalidInputError", "SolverError",
               "TuningError"),
    "estimator": ("DisconnectedGraphWarning", "RegressionFit", "TuningRule",
                  "bias_variance_decompose", "choose_epsilon", "choose_K", "fit",
                  "grid_search"),
    "experiments": ("ExperimentConfig", "ExperimentReport", "eigenvalue_growth_diagnostic",
                    "generate", "run_sweep"),
    "graph": ("KernelMoments", "KernelSpec", "NeighborGraph", "SampleSet", "build_graph",
              "connectivity_check", "kernel_moments"),
    "sobolev": ("SeminormResult", "TestFunction", "continuum_seminorm", "spectral_seminorm",
                "zoo", "zoo_function"),
    "spectral": ("EigenSystem", "LaplacianOperator", "dirichlet_form", "eigensolve",
                 "laplacian"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("csvout", *_EXPORTS)

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module("fracreg." + _HOME[name]), name)
    if name in _SUBMODULES:
        return importlib.import_module("fracreg." + name)
    raise AttributeError("module 'fracreg' has no attribute %r" % name)
