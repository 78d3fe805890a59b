"""Locality-regularized low-rank representation for subspace clustering."""

from .hypergraph import (
    Hyperedge,
    Hypergraph,
    LocalityOperator,
    ObservationMatrix,
    epsilon_ball_hyperedges,
    knn_graph_laplacian,
    knn_hypergraph_laplacian,
    locality_operator_from_hypergraph,
)
from .solver import SolveReport, SolverConfig, SolverState, shrink, solve, svt
from .clustering import affinity_from_coefficients, kmeans, ncut_spectral
from .metrics import accuracy, confusion_matrix, hungarian
from .datasets import (
    LabeledDataset,
    load_dataset,
    save_dataset,
    three_circles,
    two_moons,
)

__all__ = [
    "Hyperedge",
    "Hypergraph",
    "LabeledDataset",
    "LocalityOperator",
    "ObservationMatrix",
    "SolveReport",
    "SolverConfig",
    "SolverState",
    "accuracy",
    "affinity_from_coefficients",
    "confusion_matrix",
    "epsilon_ball_hyperedges",
    "hungarian",
    "kmeans",
    "knn_graph_laplacian",
    "knn_hypergraph_laplacian",
    "load_dataset",
    "locality_operator_from_hypergraph",
    "ncut_spectral",
    "save_dataset",
    "shrink",
    "solve",
    "svt",
    "three_circles",
    "two_moons",
]
