"""Contrastive-divergence training of pairwise energy models.

Each model bridges an ordered domain pair (i -> j): positives are drawn
from domain j, negatives are Langevin chains started at domain i samples
under the current parameters, and the update is the difference of
batch-mean parameter gradients, fed to Adam. Negatives are re-initialized
from domain i every iteration; there is no replay buffer.

Training computes in its samples' dtype over float64 master weights, as the
segmenter does: with float32 samples the chains and CD passes run on a
float32 copy of theta, made once per iteration, and the gradient is cast up
for Adam, whose moments and theta stay float64. ``train_all_pairs`` trains
in ``EBM_DTYPE``, one pair after another in the calling process.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .energy import (EBM_DTYPE, EnergyArch, EnergyParams, energy_value_and_grad_params,
                     init_energy_params, save_energy_params)
from .errors import ConfigError, DivergenceError
from .langevin import LangevinConfig, run_chain_batch
from .ldtn import write_csv
from .numerics import AdamHyper, adam_step, derive_stream, float_array, init_adam_state


@dataclass(frozen=True)
class CdConfig:
    n_iters: int = 150
    batch_size: int = 8
    ld: LangevinConfig = field(default_factory=lambda: LangevinConfig(step_size=0.1, n_steps=15))
    adam: AdamHyper = field(default_factory=AdamHyper)
    base_seed: int = 0

    def __post_init__(self):
        if self.n_iters < 0:
            raise ConfigError("n_iters must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.ld.n_steps < 1:
            raise ConfigError("training-time chains need at least one step")


@dataclass
class TrainTrace:
    cd_surrogate: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)

    def write_csv(self, path) -> None:
        write_csv(path, ["iter", "cd_surrogate", "grad_norm"],
                  ([i, repr(s), repr(g)]
                   for i, (s, g) in enumerate(zip(self.cd_surrogate, self.grad_norm))))


def cd_gradient(params: EnergyParams, pos_batch: np.ndarray, neg_batch: np.ndarray):
    """(CD gradient, CD surrogate) from one forward and backward pass per batch.

    The gradient is the batch-mean parameter gradient on positives minus on
    negatives; the surrogate is mean E(pos) - mean E(neg).
    """
    pos_batch = float_array(pos_batch)
    neg_batch = float_array(neg_batch)
    if pos_batch.size == 0 or neg_batch.size == 0:
        raise ConfigError("cd_gradient needs non-empty batches")
    e_pos, g_pos = energy_value_and_grad_params(params, pos_batch)
    e_neg, g_neg = energy_value_and_grad_params(params, neg_batch)
    return g_pos - g_neg, float(np.mean(e_pos) - np.mean(e_neg))


def train_ebm(dataset_i: np.ndarray, dataset_j: np.ndarray, arch: EnergyArch,
              config: CdConfig) -> tuple[EnergyParams, TrainTrace]:
    """Train the (i -> j) bridge model. dataset_* are sample stacks (n, ...).

    Computes in dataset_i's dtype (float32 stays float32, else float64); the
    returned theta is float64.
    """
    dataset_i = float_array(dataset_i)
    dataset_j = np.asarray(dataset_j, dtype=dataset_i.dtype)
    if dataset_i.shape[0] == 0 or dataset_j.shape[0] == 0:
        raise ConfigError("both domains need samples")
    if config.batch_size > min(dataset_i.shape[0], dataset_j.shape[0]):
        raise ConfigError("batch_size exceeds the smaller domain size")

    params = init_energy_params(arch, config.base_seed)
    state = init_adam_state(arch.param_count, config.adam)
    trace = TrainTrace()
    sample_shape = dataset_i.shape[1:]
    for it in range(config.n_iters):
        pick = derive_stream(config.base_seed, [("cd_iter", it), ("pick", 0)])
        pos = dataset_j[pick.choice(dataset_j.shape[0], config.batch_size, replace=False)]
        x0 = dataset_i[pick.choice(dataset_i.shape[0], config.batch_size, replace=False)]
        noise = derive_stream(config.base_seed, [("cd_iter", it), ("ld_noise", 0)]).standard_normal(
            (config.ld.n_steps, config.batch_size) + sample_shape
        ).astype(dataset_i.dtype, copy=False)
        try:
            neg, _ = run_chain_batch(x0, params, config.ld, noise)
        except DivergenceError as err:
            raise DivergenceError(
                f"training chain diverged at iteration {it}: {err}", step=it
            ) from err
        grad, surrogate = cd_gradient(params, pos, neg)
        grad = grad.astype(np.float64, copy=False)
        theta, state = adam_step(params.theta, grad, state)
        params = EnergyParams(arch=arch, theta=theta)
        trace.cd_surrogate.append(surrogate)
        trace.grad_norm.append(float(np.linalg.norm(grad)))
    return params, trace


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def train_all_pairs(domain_samples: list[np.ndarray], arch: EnergyArch, config: CdConfig,
                    out_dir=None, provenance=None) -> dict[tuple[int, int], EnergyParams]:
    """One trained model per ordered domain pair; n domains give n(n-1), trained in turn.

    Each pair trains from its own base seed; the samples are cast to ``EBM_DTYPE`` once.
    ``out_dir`` receives ``ebm_{i}_{j}`` and ``trace_{i}_{j}.csv`` once every pair has trained;
    each sidecar records ``provenance`` when it is given.
    """
    domain_samples = [np.asarray(s, dtype=EBM_DTYPE) for s in domain_samples]
    n = len(domain_samples)
    if n < 2:
        raise ConfigError("need at least 2 domains")
    trained = {}
    for i, j in ordered_pairs(n):
        pair_config = replace(config, base_seed=config.base_seed + 7919 * (i * n + j) + 1)
        try:
            trained[(i, j)] = train_ebm(domain_samples[i], domain_samples[j], arch, pair_config)
        except (ConfigError, DivergenceError) as err:
            raise type(err)(f"pair ({i}, {j}): {err}") from err
    if out_dir is not None:
        for (i, j), (params, trace) in trained.items():
            save_energy_params(params, Path(out_dir) / f"ebm_{i}_{j}", (i, j), provenance)
            trace.write_csv(Path(out_dir) / f"trace_{i}_{j}.csv")
    return {pair: params for pair, (params, _) in trained.items()}
