"""Small convolutional segmenter, overlap metrics, leave-one-out protocol.

The model is two 3x3 stride-1 conv layers (8 channels, swish) with a 1x1
per-pixel logit head, trained on pixel cross-entropy plus soft-Dice with a
hand-derived gradient. Evaluation holds one domain out, trains each named
arm on the rest (an arm with a pool also on its bridge samples), and reports
IoU and Dice.

Training runs in float32 over float64 master weights (Micikevicius et al.
2018): each step casts its batch and theta to float32, and Adam casts the
gradient back up and keeps theta and its moments in float64. The network
computes in float32 only when given float32 images, so evaluation
(``predict_mask``, ``evaluate_model``) and the finite-difference checks
run in float64.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, LeakageError, NumericError
from .ldtn import write_csv
from .nets import (count_params, init_params, join_params, sigmoid, split_params,
                   swish_conv_backward, swish_conv_forward)
from .numerics import (AdamHyper, adam_step, block_ranges, derive_stream, float_array,
                       init_adam_state)
from .pipeline import AugmentedDataset, assemble_training_stream
from .synth import MultiDomainDataset


@dataclass(frozen=True)
class SegArch:
    in_channels: int = 1
    hidden_channels: int = 8

    def shapes(self) -> list[tuple[tuple, tuple]]:
        """The theta layout as (weight, bias) shape pairs: two conv layers, then the head."""
        c, h = self.in_channels, self.hidden_channels
        return [((h, c, 3, 3), (h,)), ((h, h, 3, 3), (h,)), ((h,), ())]

    @property
    def param_count(self) -> int:
        return count_params(self.shapes())


@dataclass
class SegModel:
    arch: SegArch
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.arch.param_count,):
            raise DimensionError(
                f"theta length {self.theta.shape} does not match arch ({self.arch.param_count},)"
            )


def init_seg_model(arch: SegArch, seed: int) -> SegModel:
    stream = derive_stream(seed, [("seg_init", 0)])
    return SegModel(arch=arch, theta=init_params(arch.shapes(), stream))


def seg_logits(model: SegModel, X: np.ndarray):
    """Per-pixel logits (N, H, W) plus the cache for the backward pass.

    Computes in float32 if ``X`` is float32 and in float64 otherwise.
    """
    X = float_array(X)
    if X.ndim != 4 or X.shape[1] != model.arch.in_channels:
        raise DimensionError(f"expected (N, {model.arch.in_channels}, H, W), got {X.shape}")
    layers = split_params(model.theta.astype(X.dtype, copy=False), model.arch.shapes())
    *body, (wh, bh) = layers
    a, body_cache = swish_conv_forward(X, body, stride=1)
    logits = np.tensordot(a, wh, axes=([1], [0])) + bh
    return logits, {"layers": layers, "a": a, "body": body_cache}


def seg_loss_and_grad(model: SegModel, X: np.ndarray, M: np.ndarray):
    """Cross-entropy plus (1 - soft Dice), with the exact theta gradient."""
    logits, cache = seg_logits(model, X)
    M = np.asarray(M, dtype=logits.dtype)
    if M.shape != logits.shape:
        raise DimensionError(f"mask shape {M.shape} vs logits {logits.shape}")
    n = X.shape[0]
    p = sigmoid(logits)
    bce = float(np.mean(np.logaddexp(0.0, logits) - M * logits))
    inter = (p * M).sum(axis=(1, 2))
    sums = p.sum(axis=(1, 2)) + M.sum(axis=(1, 2))
    dice_soft = (2.0 * inter + 1.0) / (sums + 1.0)
    loss = bce + float(np.mean(1.0 - dice_soft))
    if not np.isfinite(loss):
        raise NumericError("non-finite segmentation loss")

    dlogits = (p - M) / M.size
    ddice_dp = -(2.0 * M * (sums + 1.0)[:, None, None]
                 - (2.0 * inter + 1.0)[:, None, None]) / ((sums + 1.0) ** 2)[:, None, None]
    dlogits = dlogits + (ddice_dp / n) * p * (1.0 - p)

    *body, (wh, _) = cache["layers"]
    da = dlogits[:, None, :, :] * wh[None, :, None, None]
    _, grads = swish_conv_backward(da, body, cache["body"], stride=1, want_dw=True,
                                   want_dx=False)
    grads.append((np.tensordot(dlogits, cache["a"], axes=([0, 1, 2], [0, 2, 3])), dlogits.sum()))
    return loss, join_params(grads)


@dataclass
class SegTrainConfig:
    epochs: int = 30
    batch_size: int = 8
    mix_ratio: float = 0.5
    adam: AdamHyper = field(default_factory=lambda: AdamHyper(lr=0.003))

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")


def train_segmenter(src_images, src_masks, config: SegTrainConfig, seed: int,
                    pool: AugmentedDataset | None = None) -> SegModel:
    """Adam training over per-epoch streams, mixing in ``pool`` if given; deterministic in seed.

    Each step runs on a float32 batch; the returned theta is float64.
    """
    src_images = np.asarray(src_images, dtype=np.float32)
    src_masks = np.asarray(src_masks, dtype=np.float32)
    if src_images.shape[0] == 0:
        raise ConfigError("empty training set")
    mix = config.mix_ratio if pool is not None else 0.0
    n_aug = len(pool) if pool is not None else 0
    arch = SegArch(in_channels=src_images.shape[1])
    model = init_seg_model(arch, seed)
    state = init_adam_state(arch.param_count, config.adam)
    for epoch in range(config.epochs):
        stream = assemble_training_stream(src_images.shape[0], n_aug, mix, seed,
                                          batch_size=config.batch_size, epoch=epoch)
        # the epoch's batches, one gather per source (a float32 copy of the pool costs memory)
        kinds, rows = map(np.array, zip(*stream))
        is_aug = kinds == "aug"
        images = np.empty((len(rows), *src_images.shape[1:]), dtype=np.float32)
        masks = np.empty((len(rows), *src_masks.shape[1:]), dtype=np.float32)
        images[~is_aug], masks[~is_aug] = src_images[rows[~is_aug]], src_masks[rows[~is_aug]]
        if pool is not None:
            images[is_aug] = pool.images[rows[is_aug]]
            masks[is_aug] = pool.masks_at(rows[is_aug])
        for start in range(0, len(stream), config.batch_size):
            batch = slice(start, start + config.batch_size)
            try:
                _, grad = seg_loss_and_grad(model, images[batch], masks[batch])
            except NumericError as err:
                raise NumericError(f"epoch {epoch}, batch at {start}: {err}") from err
            theta, state = adam_step(model.theta, grad, state)
            model = SegModel(arch=arch, theta=theta)
    return model


def predict_mask(model: SegModel, image: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    single = image.ndim == 3
    X = image[None, ...] if single else image
    logits, _ = seg_logits(model, X)
    masks = (sigmoid(logits) >= threshold).astype(np.float64)
    return masks[0] if single else masks


def dice(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a).astype(bool)
    b = np.asarray(b).astype(bool)
    if a.shape != b.shape:
        raise DimensionError(f"mask shapes differ: {a.shape} vs {b.shape}")
    sa, sb = int(a.sum()), int(b.sum())
    if sa == 0 and sb == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / (sa + sb)


def iou(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a).astype(bool)
    b = np.asarray(b).astype(bool)
    if a.shape != b.shape:
        raise DimensionError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = int((a | b).sum())
    if union == 0:
        return 1.0
    return int((a & b).sum()) / union


@dataclass
class EvalResult:
    fold: int
    method: str
    seed: int
    mean_dice: float
    mean_iou: float


def evaluate_model(model: SegModel, images: np.ndarray, masks: np.ndarray,
                   fold: int, method: str, seed: int) -> EvalResult:
    # chunks of 8 images: a whole domain at once makes a large im2col matrix
    preds = [p for lo, hi in block_ranges(len(images), 8)
             for p in predict_mask(model, images[lo:hi])]
    return EvalResult(fold=fold, method=method, seed=seed,
                      mean_dice=float(np.mean([dice(p, m) for p, m in zip(preds, masks)])),
                      mean_iou=float(np.mean([iou(p, m) for p, m in zip(preds, masks)])))


def fit_and_score(src_images, src_masks, arms: dict[str, AugmentedDataset | None],
                  config: SegTrainConfig, seeds, eval_sets, seed_offset: int = 0) -> list[EvalResult]:
    """Train one segmenter per (arm, seed) and score it on every eval set.

    ``arms`` maps each method name to the pool it also trains on, or to None for the
    sources alone; arms run in order, each over all seeds. The model reported under seed s
    is trained with seed s + ``seed_offset``. ``eval_sets`` lists (fold, images, masks).
    """
    results = []
    for method, pool in arms.items():
        for seed in seeds:
            model = train_segmenter(src_images, src_masks, config, seed=seed + seed_offset,
                                    pool=pool)
            results += [evaluate_model(model, images, masks, fold, method, seed)
                        for fold, images, masks in eval_sets]
    return results


def loo_folds(n_domains: int, folds=None) -> list[int]:
    """The held-out domains in run order (default: all), checked against ``n_domains``."""
    if n_domains < 3:
        raise ConfigError("leave-one-out needs at least 3 domains")
    folds = list(range(n_domains) if folds is None else folds)
    if any(not isinstance(f, (int, np.integer)) or not 0 <= f < n_domains for f in folds):
        raise ConfigError(f"folds {folds} must be domain ids below {n_domains}")
    return folds


def leave_one_out_eval(dataset: MultiDomainDataset, arms: dict[str, AugmentedDataset | None],
                       config: SegTrainConfig, seeds=(0, 1, 2, 3, 4), folds=None) -> list[EvalResult]:
    """Cross table of held-out-domain scores for ``arms``, as in ``fit_and_score``.

    ``folds`` lists the held-out domains in run order (default: all). Each
    fold trains an arm with a pool on ``pool.within(source_domains)``; any
    entry of that slice tagged with the held-out domain raises LeakageError.
    """
    results = []
    for held_out in loo_folds(dataset.n_domains, folds):
        sources = [d for d in range(dataset.n_domains) if d != held_out]
        src_images = np.concatenate([dataset.train_images(d) for d in sources])
        src_masks = np.concatenate([dataset.train_masks(d) for d in sources])
        # the fold's slices are only ever an argument, so they die before the next fold's
        results += fit_and_score(src_images, src_masks, _fold_arms(arms, sources, held_out),
                                 config, seeds,
                                 [(held_out, dataset.images[held_out], dataset.masks[held_out])],
                                 seed_offset=1000 * held_out)
    return results


def _fold_arms(arms, sources, held_out):
    """``arms`` with each pool cut to ``sources``; LeakageError if a slice touches ``held_out``."""
    fold_arms = {method: None if pool is None else pool.within(sources)
                 for method, pool in arms.items()}
    for method, pool in fold_arms.items():
        if pool is not None and held_out in pool.domains_touched():
            raise LeakageError(f"the {method} pool for fold {held_out} touches the "
                               "held-out domain")
    return fold_arms


def write_results_csv(results: list[EvalResult], path) -> None:
    write_csv(path, ["fold", "method", "seed", "mean_dice", "mean_iou"],
              ([r.fold, r.method, r.seed, repr(r.mean_dice), repr(r.mean_iou)]
               for r in sorted(results, key=lambda r: (r.fold, r.method, r.seed))))
