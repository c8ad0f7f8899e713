"""Multi-label classification with label-dependency embeddings.

The pipeline learns label embeddings from annotation co-occurrence
statistics, maps them through a stacked graph convolution into an
inter-dependent classifier matrix, and optionally sharpens sample
representations with a cluster-relabeled contrastive term.
"""

from .corpus import (
    Dataset,
    DatasetFormatError,
    LabelVocabulary,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_by_subject,
)
from .cooccur import (
    AdjacencyConfig,
    WeightingConfig,
    build_adjacency,
    build_cooccurrence,
    normalize_adjacency,
)
from .glove import GloveConfig, train_glove
from .layers import EncoderConfig, LayerStack, encode, gcn_forward, init_encoder, propagate
from .relabel import KMeansResult, kmeans, relabel
from .losses import LossConfig
from .metrics import ScoreTable, compute_report
from .trainer import (
    Checkpoint,
    TrainConfig,
    VariantSpec,
    load_checkpoint,
    run_pipeline,
    save_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyConfig",
    "Checkpoint",
    "Dataset",
    "DatasetFormatError",
    "EncoderConfig",
    "GloveConfig",
    "KMeansResult",
    "LabelVocabulary",
    "LayerStack",
    "LossConfig",
    "ScoreTable",
    "SyntheticConfig",
    "TrainConfig",
    "VariantSpec",
    "WeightingConfig",
    "build_adjacency",
    "build_cooccurrence",
    "compute_report",
    "encode",
    "gcn_forward",
    "generate_synthetic",
    "init_encoder",
    "kmeans",
    "load_checkpoint",
    "load_dataset",
    "normalize_adjacency",
    "propagate",
    "relabel",
    "run_pipeline",
    "save_checkpoint",
    "save_dataset",
    "split_by_subject",
    "train_glove",
]
