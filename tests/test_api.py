"""The library's public names: what `from hiersphere import *` gives.

The list is written out so that a change which grows or shrinks the library
shows in the diff of this file.
"""

import hiersphere

PUBLIC_API = [
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
    "NoTestLabelsError",
    "NoValidTripletsError",
    "NonFiniteError",
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
    "softmax_ce_loss",
    "subclass_means",
    "tfidf_dedup",
    "train_baseline",
    "train_stage1",
    "train_stage2",
    "train_two_stage",
    "triplet_batch_loss",
    "unit_normalize",
]


def test_public_api_is_pinned():
    assert sorted(hiersphere.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(hiersphere, name) is not None, name
