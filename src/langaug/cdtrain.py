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
in ``EBM_DTYPE``, the n - 1 pairs that share a source domain as one stack:
each Langevin step and each CD pass of an iteration is one energy pass over
the stack's samples. A pair keeps its own seed, draws, Adam state and trace,
so it gets the bits it gets alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .energy import (EBM_DTYPE, EnergyArch, EnergyParams, energy_value_and_grad_params,
                     init_energy_params, save_energy_params)
from .errors import ConfigError, DivergenceError, NumericError
from .langevin import LangevinConfig, run_chain_batch
from .ldtn import write_csv
from .numerics import (AdamHyper, AdamState, adam_step, derive_stream, float_array,
                       init_adam_state)


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
    negatives; the surrogate is mean E(pos) - mean E(neg). For a stack of
    models, each model's own rows of both batches give its row of a (P, D)
    gradient and its entry of a list of P surrogates.
    """
    pos_batch = float_array(pos_batch)
    neg_batch = float_array(neg_batch)
    if pos_batch.size == 0 or neg_batch.size == 0:
        raise ConfigError("cd_gradient needs non-empty batches")
    e_pos, g_pos = energy_value_and_grad_params(params, pos_batch)
    e_neg, g_neg = energy_value_and_grad_params(params, neg_batch)
    surrogates = [float(np.mean(p) - np.mean(n)) for p, n in
                  zip(e_pos.reshape(params.models, -1), e_neg.reshape(params.models, -1))]
    return g_pos - g_neg, surrogates if params.theta.ndim == 2 else surrogates[0]


def _stack_noise(streams, shape, dtype):
    """Each Langevin step's noise for a stack: every pair's next draw of ``shape`` from its
    own stream, in stack order. K such draws have the bits of one (K, ...) draw."""
    draw = np.empty((len(streams),) + shape)
    while True:
        for stream, out in zip(streams, draw):
            stream.standard_normal(out=out)
        yield draw.reshape((-1,) + shape[1:]).astype(dtype)


def _cd_iteration(params, dataset_i, targets, seeds, it, batch_size, ld):
    """One CD iteration of a stack: (gradient (P, D), surrogates), chains and passes run once
    over the stack's samples."""
    picks = [derive_stream(seed, [("cd_iter", it), ("pick", 0)]) for seed in seeds]
    pos = np.concatenate([t[pick.choice(t.shape[0], batch_size, replace=False)]
                          for t, pick in zip(targets, picks)])
    x0 = np.concatenate([dataset_i[pick.choice(dataset_i.shape[0], batch_size, replace=False)]
                         for pick in picks])
    noise = _stack_noise([derive_stream(seed, [("cd_iter", it), ("ld_noise", 0)])
                          for seed in seeds], (batch_size,) + dataset_i.shape[1:],
                         dataset_i.dtype)
    try:
        neg, _ = run_chain_batch(x0, params, ld, noise)
    except DivergenceError as err:
        raise DivergenceError(f"training chain diverged at iteration {it}: {err}", step=it,
                              model=err.model) from err
    return cd_gradient(params, pos, neg)


def train_ebm(dataset_i: np.ndarray, dataset_j, arch: EnergyArch, config: CdConfig,
              seeds=None):
    """Train the (i -> j) bridge model from ``config.base_seed``: (params, trace).

    With ``seeds``, ``dataset_j`` lists the targets of a stack of pairs that share the source
    dataset_i, pair k trains from base seed ``seeds[k]``, and a list of (params, trace) comes
    back in that order. The stack trains in lockstep, and each pair gets the bits it gets
    alone: a pair whose chains diverge or whose energy overflows leaves the stack (an error
    that names no pair fails them all), the rest finish, and then the first failed pair
    raises what it raises alone, its index in ``model``.

    Computes in dataset_i's dtype (float32 stays float32, else float64); the
    returned theta is float64.
    """
    stacked = seeds is not None
    targets = list(dataset_j) if stacked else [dataset_j]
    seeds = list(seeds) if stacked else [config.base_seed]
    dataset_i = float_array(dataset_i)
    targets = [np.asarray(t, dtype=dataset_i.dtype) for t in targets]
    failed = {}  # pair -> what it raises alone
    for k, target in enumerate(targets):
        if dataset_i.shape[0] == 0 or target.shape[0] == 0:
            failed[k] = ConfigError("both domains need samples")
        elif config.batch_size > min(dataset_i.shape[0], target.shape[0]):
            failed[k] = ConfigError("batch_size exceeds the smaller domain size")
    alive = [k for k in range(len(seeds)) if k not in failed]  # the pair in each stack row
    theta = np.reshape([init_energy_params(arch, seeds[k]).theta for k in alive],
                       (len(alive), arch.param_count))
    state = init_adam_state(theta.shape, config.adam)
    traces = [TrainTrace() for _ in seeds]
    ld = replace(config.ld, store_offset=config.ld.n_steps + 1)  # the chains' iterates go unread
    for it in range(config.n_iters):
        while alive:
            try:
                grad, surrogates = _cd_iteration(EnergyParams(arch, theta), dataset_i,
                                                 [targets[k] for k in alive],
                                                 [seeds[k] for k in alive], it,
                                                 config.batch_size, ld)
                break
            except (ConfigError, NumericError) as err:
                # the pair leaves the stack (every pair, for an error that names none), and
                # the others run this iteration again
                rows = [r for r in range(len(alive)) if err.model not in (None, r)]
                failed.update((k, err) for r, k in enumerate(alive) if r not in rows)
                alive = [alive[r] for r in rows]
                theta = theta[rows]
                state = AdamState(state.first_moment[rows], state.second_moment[rows],
                                  state.step_count, state.hyper)
        if not alive:
            break
        grad = grad.astype(np.float64, copy=False)
        theta, state = adam_step(theta, grad, state)
        for row, k in enumerate(alive):
            traces[k].cd_surrogate.append(surrogates[row])
            traces[k].grad_norm.append(float(np.linalg.norm(grad[row])))
    if failed:
        first = min(failed)
        err = failed[first]
        err.model = first
        raise err
    trained = [(EnergyParams(arch, row), traces[k]) for row, k in zip(theta, alive)]
    return trained if stacked else trained[0]


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def train_all_pairs(domain_samples: list[np.ndarray], arch: EnergyArch, config: CdConfig,
                    out_dir=None, provenance=None) -> dict[tuple[int, int], EnergyParams]:
    """One trained model per ordered domain pair; n domains give n(n-1), trained as n stacks
    of the n - 1 pairs that share a source domain.

    Each pair trains from its own base seed; the samples are cast to ``EBM_DTYPE`` once.
    A pair that fails raises once its stack has trained, the first such pair in pair order.
    ``out_dir`` receives ``ebm_{i}_{j}`` and ``trace_{i}_{j}.csv`` once every pair has trained;
    each sidecar records ``provenance`` when it is given.
    """
    domain_samples = [np.asarray(s, dtype=EBM_DTYPE) for s in domain_samples]
    n = len(domain_samples)
    if n < 2:
        raise ConfigError("need at least 2 domains")
    trained = {}
    for i in range(n):
        targets = [j for j in range(n) if j != i]
        try:
            stack = train_ebm(domain_samples[i], [domain_samples[j] for j in targets], arch,
                              config, seeds=[config.base_seed + 7919 * (i * n + j) + 1
                                             for j in targets])
        except (ConfigError, NumericError) as err:
            raise type(err)(f"pair ({i}, {targets[err.model]}): {err}") from err
        trained.update(zip([(i, j) for j in targets], stack))
    if out_dir is not None:
        for (i, j), (params, trace) in trained.items():
            save_energy_params(params, Path(out_dir) / f"ebm_{i}_{j}", (i, j), provenance)
            trace.write_csv(Path(out_dir) / f"trace_{i}_{j}.csv")
    return {pair: params for pair, (params, _) in trained.items()}
