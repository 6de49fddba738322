"""Percolation laboratory for Hamming graphs H(d, n)."""

__version__ = "0.1.0"

from hammingperc.branching import (
    GWSpec,
    extinction_probability,
    survival_probability,
    tail_probability,
)
from hammingperc.exploration import ExplorationEngine
from hammingperc.graph import DomainError, HammingGraph, Line
from hammingperc.percolation import (
    ClusterStats,
    OccupiedEdgeSet,
    PercolationConfig,
    connected_components,
    sample_configuration,
    z_geq,
)
from hammingperc.sprinkling import SprinklingReport, two_round_exposure
from hammingperc.stats import (
    Estimate,
    estimate_chi,
    estimate_cluster_tail,
    giant_lln_report,
    z_concentration_report,
)

__all__ = [
    "ClusterStats",
    "DomainError",
    "Estimate",
    "ExplorationEngine",
    "GWSpec",
    "HammingGraph",
    "Line",
    "OccupiedEdgeSet",
    "PercolationConfig",
    "SprinklingReport",
    "__version__",
    "connected_components",
    "estimate_chi",
    "estimate_cluster_tail",
    "extinction_probability",
    "giant_lln_report",
    "sample_configuration",
    "survival_probability",
    "tail_probability",
    "two_round_exposure",
    "z_concentration_report",
    "z_geq",
]
