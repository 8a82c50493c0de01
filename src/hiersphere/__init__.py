"""hiersphere: metric learning for two-level (class x polarity) label hierarchies.

Trains unit-sphere sentence/feature embeddings in two stages -- adaptive
cosine sub-class classification, then thresholded pairwise cosine
fine-tuning -- and scores polarity against sub-class centroids. Ships with
synthetic data generation, TF-IDF dedup, MDS visualization, and a CLI.
"""

from .data import (
    Dataset,
    DedupRecord,
    GeneratorConfig,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    subclass_means,
    tfidf_dedup,
)
from .encoder import (
    EncoderConfig,
    EncoderParams,
    EncoderTape,
    encoder_forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .errors import (
    BatchTooSmallError,
    DataError,
    DatasetTooSmallError,
    DegenerateDistancesError,
    DimensionMismatchError,
    EmptyCorpusError,
    HiersphereError,
    IndexOutOfRangeError,
    InvalidClassCountError,
    InvalidConfigError,
    MissingSubclassError,
    NonFiniteError,
    NoTestLabelsError,
    NoValidTripletsError,
    NumericError,
    ParseError,
    UnknownPolarityError,
    ZeroNormError,
)
from .evaluate import (
    MaeReport,
    SubclassCentroids,
    compute_centroids,
    embed_all,
    format_mae_table,
    mae_report,
    predict_all,
)
from .labels import Polarity
from .losses import (
    Anchors,
    LossOutput,
    adacos_init_scale,
    adacos_loss,
    adacos_update_scale,
    angular_margin_loss,
    pair_target_matrix,
    pairwise_cosine_loss,
)
from .rng import make_rng
from .trainer import (
    Model,
    TrainConfig,
    TrainReport,
    make_batches,
    train_baseline,
    train_stage1,
    train_stage2,
    train_two_stage,
    triplet_batch_loss,
)
from .vecmath import unit_normalize
from .viz import Mds2D, classical_mds, emit_svg_scatter

__version__ = "0.1.0"

__all__ = [
    "Anchors",
    "BatchTooSmallError",
    "DataError",
    "Dataset",
    "DatasetTooSmallError",
    "DedupRecord",
    "DegenerateDistancesError",
    "DimensionMismatchError",
    "EmptyCorpusError",
    "EncoderConfig",
    "EncoderParams",
    "EncoderTape",
    "GeneratorConfig",
    "HiersphereError",
    "IndexOutOfRangeError",
    "InvalidClassCountError",
    "InvalidConfigError",
    "LossOutput",
    "MaeReport",
    "Mds2D",
    "MissingSubclassError",
    "Model",
    "NonFiniteError",
    "NoTestLabelsError",
    "NoValidTripletsError",
    "NumericError",
    "ParseError",
    "Polarity",
    "SubclassCentroids",
    "TrainConfig",
    "TrainReport",
    "UnknownPolarityError",
    "ZeroNormError",
    "adacos_init_scale",
    "adacos_loss",
    "adacos_update_scale",
    "angular_margin_loss",
    "classical_mds",
    "compute_centroids",
    "embed_all",
    "emit_svg_scatter",
    "encoder_forward_batch",
    "format_mae_table",
    "generate_synthetic",
    "init_params",
    "load_checkpoint",
    "load_jsonl",
    "mae_report",
    "make_batches",
    "make_rng",
    "pair_target_matrix",
    "pairwise_cosine_loss",
    "predict_all",
    "save_checkpoint",
    "save_jsonl",
    "subclass_means",
    "tfidf_dedup",
    "train_baseline",
    "train_stage1",
    "train_stage2",
    "train_two_stage",
    "triplet_batch_loss",
    "unit_normalize",
]
