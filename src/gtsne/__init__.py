"""Neighbor embedding that preserves macro structure.

t-SNE style neighbor embedding augmented with two extra pulls: a KL loss
between k-means centroid affinities in the input and map spaces, and a
soft k-means loss tying map points to their responsibility-weighted
centroids. See the README for the model and the CLI.
"""

from .affinity import build_affinity_model, calibrate, exact_knn, symmetrize
from .core import ConfigError, Dataset, EmbedConfig, Embedding, RunReport, resolve_config
from .datasets import (
    ThreeLinesSpec,
    gen_blobs,
    gen_sphere,
    gen_swiss_roll,
    gen_three_lines,
)
from .io import read_csv, write_csv
from .macro import MacroAffinity, kmeans_fit, macro_affinity, responsibility_matrix
from .metrics import centroid_distance_correlation, knn_preservation, worst_gap_ratio
from .objective import gradient_bh
from .optimizer import init_embedding, run, step
from .pca import pca_fit

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Dataset",
    "EmbedConfig",
    "Embedding",
    "MacroAffinity",
    "RunReport",
    "ThreeLinesSpec",
    "build_affinity_model",
    "calibrate",
    "centroid_distance_correlation",
    "exact_knn",
    "gen_blobs",
    "gen_sphere",
    "gen_swiss_roll",
    "gen_three_lines",
    "gradient_bh",
    "init_embedding",
    "kmeans_fit",
    "knn_preservation",
    "macro_affinity",
    "pca_fit",
    "read_csv",
    "resolve_config",
    "responsibility_matrix",
    "run",
    "step",
    "symmetrize",
    "worst_gap_ratio",
    "write_csv",
]
