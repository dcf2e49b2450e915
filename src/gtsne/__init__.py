"""Neighbor embedding that preserves macro structure.

t-SNE style neighbor embedding augmented with two extra pulls: a KL loss
between k-means centroid affinities in the input and map spaces, and a
soft k-means loss tying map points to their responsibility-weighted
centroids. See the README for the model and the CLI.
"""

from .affinity import (
    AffinityModel,
    ConditionalRow,
    build_affinity_model,
    calibrate,
    exact_knn,
    symmetrize,
)
from .core import (
    ConfigError,
    Dataset,
    EmbedConfig,
    Embedding,
    LossRecord,
    RunReport,
    center_columns,
    check_config,
    config_to_text,
    parse_config_text,
    resolve_config,
    validate_config,
)
from .datasets import (
    ThreeLinesSpec,
    gen_blobs,
    gen_sphere,
    gen_swiss_roll,
    gen_three_lines,
)
from .io import PlotSpec, read_csv, render_svg, write_csv
from .macro import (
    CentroidModel,
    MacroAffinity,
    kmeans_fit,
    macro_affinity,
    responsibility_matrix,
)
from .metrics import (
    StructureScores,
    centroid_distance_correlation,
    knn_preservation,
    line_continuity,
)
from .objective import (
    GradientWorkspace,
    QuadTree,
    build_quadtree,
    gradient_bh,
    gradient_exact,
    loss,
    lowdim_kernel,
)
from .optimizer import OptimizerState, gains_update, init_embedding, run, step
from .pca import PcaEmbedding, pca_fit

__version__ = "0.1.0"

__all__ = [
    "AffinityModel",
    "CentroidModel",
    "ConditionalRow",
    "ConfigError",
    "Dataset",
    "EmbedConfig",
    "Embedding",
    "GradientWorkspace",
    "LossRecord",
    "MacroAffinity",
    "OptimizerState",
    "PcaEmbedding",
    "PlotSpec",
    "QuadTree",
    "RunReport",
    "StructureScores",
    "ThreeLinesSpec",
    "build_affinity_model",
    "build_quadtree",
    "calibrate",
    "center_columns",
    "centroid_distance_correlation",
    "check_config",
    "config_to_text",
    "exact_knn",
    "gains_update",
    "gen_blobs",
    "gen_sphere",
    "gen_swiss_roll",
    "gen_three_lines",
    "gradient_bh",
    "gradient_exact",
    "init_embedding",
    "kmeans_fit",
    "knn_preservation",
    "line_continuity",
    "loss",
    "lowdim_kernel",
    "macro_affinity",
    "parse_config_text",
    "pca_fit",
    "read_csv",
    "render_svg",
    "resolve_config",
    "responsibility_matrix",
    "run",
    "step",
    "symmetrize",
    "validate_config",
    "write_csv",
]
