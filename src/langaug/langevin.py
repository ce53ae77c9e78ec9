"""Unadjusted Langevin dynamics over an energy function.

One step moves x by ``-(step^2 / 2) * grad E(x) + step * noise``; a chain
runs K such steps and keeps the iterates at (offset, offset + stride, ...)
up to K. On multi-channel data a per-step content hook can overwrite one
channel of the iterate with the starting image's channel so positional
structure survives.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyParams, energy_value_and_grad_input
from .errors import ConfigError, DimensionError, DivergenceError
from .numerics import float_array


@dataclass(frozen=True)
class LangevinConfig:
    step_size: float = 1.0
    n_steps: int = 40
    store_stride: int = 3
    store_offset: int = 3
    channel_replace: int | None = None
    clamp_unit: bool = False

    def __post_init__(self):
        if self.step_size < 0:
            raise ConfigError("step_size must be non-negative")
        if self.n_steps < 0:
            raise ConfigError("n_steps must be non-negative")
        if self.store_stride < 1 or self.store_offset < 1:
            raise ConfigError("store_stride and store_offset must be >= 1")

    def stored_steps(self) -> list[int]:
        return list(range(self.store_offset, self.n_steps + 1, self.store_stride))


def langevin_step(x: np.ndarray, grad: np.ndarray, step_size: float, noise: np.ndarray) -> np.ndarray:
    x = float_array(x)
    grad = np.asarray(grad, dtype=x.dtype)
    noise = np.asarray(noise, dtype=x.dtype)
    if x.shape != grad.shape or x.shape != noise.shape:
        raise DimensionError(
            f"langevin_step shape mismatch: x {x.shape}, grad {grad.shape}, noise {noise.shape}"
        )
    if step_size < 0:
        raise ConfigError("step_size must be non-negative")
    # both coefficients are formed in float64 and rounded once to x's dtype.
    # numpy's scalar power has the bits of a float ``step_size**2`` but gives
    # inf where the float power raises OverflowError; the chain then diverges
    drift = x.dtype.type(0.5 * np.float64(step_size)**2)
    return x - drift * grad + x.dtype.type(step_size) * noise


def channel_replace_hook(iterate: np.ndarray, original: np.ndarray, channel_index: int) -> np.ndarray:
    """Overwrite one channel of the iterate with the original's channel.

    Single-channel data is rejected: there the hook would turn every iterate
    back into the original, and the chain would store copies of its source.
    """
    iterate = float_array(iterate)
    original = np.asarray(original)
    if iterate.shape != original.shape:
        raise DimensionError("iterate and original must share a shape")
    n_channels = iterate.shape[-3] if iterate.ndim >= 3 else 1
    if (n_channels < 2 or isinstance(channel_index, bool)
            or not isinstance(channel_index, (int, np.integer))
            or not 0 <= channel_index < n_channels):
        raise ConfigError(f"channel_replace index {channel_index!r} must be an int in "
                          f"[0, C) on data with C >= 2 channels; this data has C = {n_channels}")
    out = iterate.copy()
    out[..., channel_index, :, :] = original[..., channel_index, :, :]
    return out


def run_chain_batch(x0: np.ndarray, params: EnergyParams, config: LangevinConfig, noise):
    """Advance a batch of chains; ``noise`` gives each step's (N, ...) noise in turn, as a
    (K, N, ...) block or an iterator drawing it step by step.

    Chains do not interact, so a chain's iterates depend only on its own x0
    and noise slice. The chain computes in x0's dtype (``float_array``), and
    each step casts its noise to it. A stack of P models (a (P, D) theta)
    runs model p's chains at rows p * N / P to (p + 1) * N / P. A chain that
    leaves the finite range raises DivergenceError as its model would alone:
    the first such model's rows, counted within its own batch.
    Returns (final (N, ...), stored dict step -> (N, ...)).
    """
    x0 = float_array(x0)
    x = x0.copy()
    keep = set(config.stored_steps())
    stored = {}
    steps = iter(noise)
    for t in range(1, config.n_steps + 1):
        _, grad = energy_value_and_grad_input(params, x)
        x = langevin_step(x, grad, config.step_size, next(steps))
        if config.channel_replace is not None:
            x = channel_replace_hook(x, x0, config.channel_replace)
        if config.clamp_unit:
            x = np.clip(x, 0.0, 1.0)
        if not np.all(np.isfinite(x)):
            finite = np.all(np.isfinite(x.reshape(params.models, x.shape[0] // params.models, -1)),
                            axis=2)
            model = int(np.argmin(finite.all(axis=1)))
            bad = np.flatnonzero(~finite[model]).tolist()
            raise DivergenceError(f"batched chain diverged at step {t} (chains {bad})",
                                  step=t, chains=bad, model=model)
        if t in keep:
            stored[t] = x.copy()
    return x, stored
