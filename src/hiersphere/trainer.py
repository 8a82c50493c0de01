"""Training loops: the two-stage pipeline and single-loss baselines.

Stage 1 fits the encoder plus a sub-class anchor matrix under the adaptive
cosine classification loss; stage 2 fine-tunes the encoder alone with the
thresholded pairwise cosine loss. Baselines run one stage with triplet,
plain scaled-softmax, cosface, arcface, or adacos objectives so the
two-stage result has something to beat. Stage 1 and every baseline are
one `_train_one_stage`, and all of them run one epoch/batch loop, `_fit`,
differing only in the objective it is given.
"""

import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .encoder import (
    EncoderConfig,
    EncoderParams,
    EncoderTape,
    adam_step_array,
    allocating,
    encoder_backward_step,
    encoder_forward_batch,
    init_params,
)
from .errors import (
    DatasetTooSmallError,
    DimensionMismatchError,
    InvalidClassCountError,
    InvalidConfigError,
    NonFiniteError,
    NoValidTripletsError,
    check_int_fields,
)
from .losses import (
    Anchors,
    LossOutput,
    adacos_loss,
    angular_margin_loss,
    _upper_pairs,
    pairwise_cosine_loss,
)
from .rng import STREAM_CLASSIFIER_INIT, STREAM_SHUFFLE, _check_seed, make_rng

# the training modes, in the order the train command lists them: the
# two-stage method, then each single-stage baseline
MODES = ("two-stage", "triplet", "softmax", "cosface", "arcface", "adacos")

# stage-2 epochs use shuffle streams disjoint from stage 1 regardless of
# how many stage-1 epochs actually ran
STAGE2_SHUFFLE_OFFSET = 1_000_000


@dataclass(frozen=True)
class TrainConfig:
    """The training settings: one field per setting of the train command but
    mnli_label_map, which says how to read the data.

    epochs counts stage 1, or the one stage of a baseline; stage2_epochs and
    stage2_learning_rate (None: a tenth of learning_rate) are read by stage 2
    only. hidden_dims, embed_dim and activation shape the encoder, whose
    input width is the data's and whose seed is seed. neutral_pairs_positive
    makes stage 2 treat same-class neutral pairs as positive.
    """

    mode: str = "two-stage"
    t: float = 0.3
    seed: int = 0
    epochs: int = 20
    stage2_epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    stage2_learning_rate: float | None = None
    hidden_dims: tuple[int, ...] = EncoderConfig.hidden_dims
    embed_dim: int = EncoderConfig.output_dim
    activation: str = EncoderConfig.activation
    shuffle: bool = True
    triplet_margin: float = 1.0
    neutral_pairs_positive: bool = False

    def __post_init__(self):
        check_int_fields(self)
        if self.epochs < 0 or self.stage2_epochs < 0:
            raise InvalidConfigError("epoch counts must be >= 0")
        if self.batch_size < 2:
            raise InvalidConfigError("batch_size must be >= 2")
        # t = 1 is allowed as the degenerate saturated band
        if not 0.0 <= self.t <= 1.0:
            raise InvalidConfigError(f"t must lie in [0, 1], got {self.t}")
        if self.mode not in MODES:
            raise InvalidConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.embed_dim < 1:
            raise InvalidConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if any(width < 1 for width in self.hidden_dims):
            raise InvalidConfigError(f"hidden_dims widths must be >= 1, got {self.hidden_dims}")
        _check_seed(self.seed)
        # each comparison is false for NaN, so NaN fails these checks
        if not 0 <= self.triplet_margin < math.inf:
            raise InvalidConfigError(
                f"triplet_margin must be a non-negative finite number, got {self.triplet_margin}"
            )
        if not 0 < self.learning_rate < math.inf:
            raise InvalidConfigError(
                f"learning_rate must be a positive finite number, got {self.learning_rate}"
            )
        lr = self.stage2_learning_rate
        if lr is not None and not 0 < lr < math.inf:
            raise InvalidConfigError(
                f"stage2_learning_rate must be a positive finite number or None, got {lr}"
            )

    def stage2_rate(self) -> float:
        """The learning rate of stage 2."""
        if self.stage2_learning_rate is None:
            return self.learning_rate / 10.0
        return self.stage2_learning_rate

    def encoder_config(self, input_dim: int) -> EncoderConfig:
        """The encoder these settings train on data of width input_dim."""
        return EncoderConfig(input_dim, self.hidden_dims, self.embed_dim, self.activation, self.seed)

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden_dims": list(self.hidden_dims)}


@dataclass
class TrainReport:
    stage1_epoch_losses: list[float] = field(default_factory=list)
    stage2_epoch_losses: list[float] = field(default_factory=list)
    scale_trajectory: list[float] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    steps: int = 0
    skipped_batches: int = 0
    model_tag: str = ""

    def to_dict(self) -> dict:
        """No wall-clock field, so reports stay run-to-run identical."""
        return asdict(self)


class Model(NamedTuple):
    """A trained model: the encoder, its classifier head (None for triplet;
    for two-stage, the stage-1 head) and its training report."""

    params: EncoderParams
    anchors: Anchors | None
    report: TrainReport


def make_batches(
    dataset,
    batch_size: int,
    seed: int,
    shuffle: bool = True,
    *,
    epoch: int = 0,
    merge_trailing_singleton: bool = False,
) -> list[np.ndarray]:
    """Seeded permutation cut into contiguous chunks of batch_size indices.

    With merge_trailing_singleton a final size-1 chunk is appended to the
    previous batch, since pair losses need at least two samples.
    """
    n = dataset if isinstance(dataset, int) else len(dataset)
    if n < 2:
        raise DatasetTooSmallError(f"need at least 2 samples, got {n}")
    if batch_size < 2:
        raise InvalidConfigError("batch_size must be >= 2")

    order = np.arange(n)
    if shuffle:
        make_rng(seed, STREAM_SHUFFLE, epoch).shuffle(order)
    batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    if merge_trailing_singleton and len(batches) > 1 and batches[-1].size == 1:
        tail = batches.pop()
        batches[-1] = np.concatenate([batches[-1], tail])
    return batches


def _require_trainable(dataset: Dataset) -> None:
    if len(dataset) < 2:
        raise DatasetTooSmallError(f"need at least 2 samples, got {len(dataset)}")
    if 3 * dataset.num_classes < 2:
        raise InvalidClassCountError("need at least one class")


def triplet_batch_loss(
    embeddings: np.ndarray,
    labels: np.ndarray,
    margin: float,
) -> tuple[LossOutput, int]:
    """Mean hinge over every valid in-batch triplet, with its gradient.

    Valid: anchor and positive distinct samples of one sub-class, negative
    from any other sub-class. labels are the batch's int sub-class ids.
    Returns the triplet count; raises NoValidTriplets when no sub-class has
    two members.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    b = emb.shape[0]
    sub = np.asarray(labels, dtype=np.int64)
    if sub.shape != (b,):
        raise DimensionMismatchError("one label per embedding required")
    same = sub[:, None] == sub[None, :]
    sizes = np.add.reduce(same, axis=1, dtype=np.intp)  # each sample's sub-class size
    positives = sizes - 1

    # distances of the pairs i < j, mirrored: (e_j - e_i)^2 is (e_i - e_j)^2
    iu = _upper_pairs(b)
    diff = emb.take(iu[0], axis=0)
    diff -= emb.take(iu[1], axis=0)
    np.multiply(diff, diff, out=diff)
    pair_dist = np.sqrt(np.add.reduce(diff, axis=1))
    dist = np.zeros((b, b))
    dist[iu] = pair_dist
    dist.T[iu] = pair_dist

    # one row per (anchor, positive) pair, in C order, over every sample as
    # the negative; the rows of one anchor are adjacent
    anchor, positive = np.nonzero(same & ~np.eye(b, dtype=bool))
    num_triplets = int((positives * (b - sizes)).sum())
    if num_triplets == 0:
        raise NoValidTripletsError("no sub-class in this batch has two members")
    # hinge[r, n] = d(a,p) - d(a,n) + margin, a triplet where n is a negative
    hinge = dist[anchor, positive][:, None] - dist[anchor] + margin
    active = ~same[anchor] & (hinge > 0.0)
    value = float(hinge[active].sum() / num_triplets)

    # dL/d dist as a matrix: +1/T at (a,p), -1/T at (a,n) per active triplet
    pos_counts = np.zeros((b, b), dtype=np.intp)
    pos_counts[anchor, positive] = np.add.reduce(active, axis=1, dtype=np.intp)
    neg_counts = np.zeros((b, b), dtype=np.intp)
    anchors = positives > 0
    starts = (np.cumsum(positives) - positives)[anchors]
    neg_counts[anchors] = np.add.reduceat(active, starts, axis=0, dtype=np.intp)
    w = pos_counts / num_triplets
    w -= neg_counts / num_triplets

    # distance is symmetric in its two rows; fold both orientations, then
    # d dist_ij / d e_i = (e_i - e_j)/dist_ij with zero at coincident points
    s = w + w.T
    inv = np.zeros((b, b))
    np.divide(1.0, dist, out=inv, where=dist > 0.0)
    coeff = s * inv
    grad = coeff.sum(axis=1, keepdims=True) * emb - coeff @ emb
    return LossOutput(value=value, grad_embeddings=grad), num_triplets


def _fit(
    dataset: Dataset,
    config: TrainConfig,
    params: EncoderParams,
    objective,
    report: TrainReport,
    *,
    stage2: bool = False,
    anchors: Anchors | None = None,
) -> None:
    """The one epoch/batch loop; steps params in place and fills report.

    objective(embeddings, subclass) gives the batch's LossOutput. A
    batch whose objective raises NoValidTripletsError is skipped and counted;
    a loss that is not finite raises NonFiniteError before its step.
    Stage 2 takes its own epoch count, learning rate, shuffle streams and loss
    curve, and merges a trailing singleton batch into the one before it.
    anchors take an Adam step from the loss's grad_weights, numbered as the
    encoder's, with moments of their own, and every row is then re-normalized
    to unit length; an adacos head's scale is recorded after every epoch. A
    step backpropagates through the tape its batch's forward filled, so the
    network runs once per batch.
    """
    x, sub = dataset.features, dataset.subclass
    if stage2:
        epochs, lr = config.stage2_epochs, config.stage2_rate()
        epoch_losses, epoch_offset = report.stage2_epoch_losses, STAGE2_SHUFFLE_OFFSET
    else:
        epochs, lr = config.epochs, config.learning_rate
        epoch_losses, epoch_offset = report.stage1_epoch_losses, 0
    tape = EncoderTape()
    if anchors is not None:
        w = anchors.weights
        m, v = np.zeros_like(w), np.zeros_like(w)

    for epoch in range(epochs):
        batches = make_batches(
            dataset,
            config.batch_size,
            config.seed,
            config.shuffle,
            epoch=epoch_offset + epoch,
            merge_trailing_singleton=stage2,
        )
        batch_losses = []
        for idx in batches:
            bx = x[idx]
            emb = encoder_forward_batch(params, bx, tape=tape)
            try:
                out = objective(emb, sub[idx])
            except NoValidTripletsError:
                # stacklevel points past _train_one_stage at the public trainer's caller
                warnings.warn("batch without any valid triplet skipped", stacklevel=4)
                report.skipped_batches += 1
                continue
            if not math.isfinite(out.value):
                raise NonFiniteError(f"training loss is {out.value} in epoch {epoch + 1}")
            encoder_backward_step(params, bx, out.grad_embeddings, lr, tape=tape)
            if anchors is not None:
                adam_step_array(w, out.grad_weights, m, v, params.step_count, lr)
                # np.linalg.norm's steps, without its wrapper
                w /= np.sqrt(np.add.reduce(w * w, axis=1, keepdims=True))
            batch_losses.append(out.value)
            report.steps += 1
        # an epoch where every batch was skipped has no mean loss; None keeps
        # the serialized report valid JSON
        epoch_losses.append(float(np.mean(batch_losses)) if batch_losses else None)
        if anchors is not None and anchors.kind == "adacos":
            report.scale_trajectory.append(anchors.scale)


def _train_one_stage(dataset: Dataset, config: TrainConfig, kind: str) -> Model:
    """One stage under kind's objective: adacos, triplet or a margin kind.

    Every classifier head is drawn here, from the classifier-init stream;
    only triplet has none.
    """
    _require_trainable(dataset)
    enc_cfg = config.encoder_config(dataset.input_dim)
    anchors = None
    with allocating(enc_cfg):
        if kind != "triplet":
            rng = make_rng(config.seed, STREAM_CLASSIFIER_INIT)
            anchors = Anchors.initialize(kind, 3 * dataset.num_classes, enc_cfg.output_dim, rng)
        params = init_params(enc_cfg)
    report = TrainReport(config=config.to_dict(), model_tag=kind)

    def objective(emb, labels):
        if kind == "adacos":
            return adacos_loss(anchors, emb, labels)
        if kind == "triplet":
            return triplet_batch_loss(emb, labels, config.triplet_margin)[0]
        w = anchors.weights
        return angular_margin_loss(emb, w, labels, kind, anchors.scale, anchors.margin)

    _fit(dataset, config, params, objective, report, anchors=anchors)
    return Model(params, anchors, report)


def train_stage1(dataset: Dataset, config: TrainConfig) -> Model:
    """Encoder + adaptive-cosine anchors on the 3K flattened sub-classes."""
    return _train_one_stage(dataset, config, "adacos")


def train_stage2(dataset: Dataset, params: EncoderParams, config: TrainConfig):
    """Pairwise cosine fine-tuning of the encoder only.

    Normally follows stage 1, but accepts any starting parameters (fresh ones
    give the from-scratch ablation). It trains a copy, so the given params
    stay as they were. Returns (EncoderParams, TrainReport).
    """
    _require_trainable(dataset)
    report = TrainReport(config=config.to_dict(), model_tag="two-stage")

    def objective(emb, labels):
        return pairwise_cosine_loss(
            emb,
            labels,
            t=config.t,
            same_class_neutral_pair_positive=config.neutral_pairs_positive,
        )

    params = params.copy()
    _fit(dataset, config, params, objective, report, stage2=True)
    return params, report


def train_two_stage(dataset: Dataset, config: TrainConfig, stage1=None) -> Model:
    """Stage 1 then stage 2; the merged report carries both loss curves, and
    the model keeps stage 1's anchors.

    Given a stage-1 Model, only stage 2 runs, from it. Stage 1 reads no
    stage-2 field of the config, so the adacos baseline's model serves as
    well as train_stage1's.
    """
    if stage1 is None:
        stage1 = train_stage1(dataset, config)
    params, anchors, r1 = stage1
    params, r2 = train_stage2(dataset, params, config)
    report = replace(
        r2,
        stage1_epoch_losses=r1.stage1_epoch_losses,
        scale_trajectory=r1.scale_trajectory,
        steps=r1.steps + r2.steps,
        skipped_batches=r1.skipped_batches + r2.skipped_batches,
    )
    return Model(params, anchors, report)


def train_baseline(dataset: Dataset, config: TrainConfig) -> Model:
    """Single-stage training with config.mode's objective. adacos is
    definitionally stage 1, and so is the single stage of two-stage."""
    if config.mode in ("adacos", "two-stage"):
        return train_stage1(dataset, config)
    return _train_one_stage(dataset, config, config.mode)
