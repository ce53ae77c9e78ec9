"""Parametric energy functions with exact input and parameter gradients.

Two architectures:

* ``conv``: stride-2 3x3 convolution blocks (channels double from 8),
  swish activations, dense scalar head — the image energy, and the only
  kind a config can name.
* ``quadratic``: the diagnostic family E(x) = ||x - theta||^2 / 2, whose
  Langevin stationary law and contrastive-divergence optimum are known in
  closed form; it anchors the sampler and trainer tests.

The normalizing constant of the induced density exp(-E)/Z is intractable
and never evaluated; only E and its gradients are exposed.

The passes compute in their batch's dtype, as ``nets`` does: a float32
batch runs against a float32 copy of the float64 theta. Each ``EnergyParams``
casts and splits theta once per dtype, on its first pass, so a chain or a CD
iteration pays for it once.

An ``EnergyParams`` with a (P, D) theta is a stack of P models of one arch.
Its passes take the P models' batches one after another along the batch
axis, N rows each, and return the energies and input gradients in that
order and the parameter gradient as (P, D); every model gets the bits it
gets alone. A pass with a non-finite energy raises as its first such model
would alone, naming that model in the error's ``model``.

The pipeline trains and samples in ``EBM_DTYPE``; the gradient checks and
the sampler and trainer diagnostics run in float64.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, TensorFormatError
from .ldtn import read_fields, read_meta, read_tensor, write_meta, write_tensor
from .nets import (conv_out_size, count_params, init_params, join_params, split_params,
                   swish_conv_backward, swish_conv_forward)
from .numerics import derive_stream, float_array

_BASE_CHANNELS = 8
MAX_CONV_BLOCKS = 7
EBM_DTYPE = np.dtype(np.float32)  # CD training and bridge sampling in the pipeline


@dataclass(frozen=True)
class EnergyArch:
    kind: str                      # "conv" | "quadratic"
    input_shape: tuple
    conv_blocks: int = 4

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        if self.kind not in ("conv", "quadratic"):
            raise ConfigError(f"unknown energy arch kind {self.kind!r}")
        if self.kind == "conv":
            if len(self.input_shape) != 3:
                raise ConfigError("conv arch needs a (C, H, W) input shape")
            if not 1 <= self.conv_blocks <= MAX_CONV_BLOCKS:
                raise ConfigError(f"conv_blocks must lie in 1..{MAX_CONV_BLOCKS}")
            h, w = self.input_shape[1], self.input_shape[2]
            for _ in range(self.conv_blocks):
                h, w = conv_out_size(h, 2), conv_out_size(w, 2)
                if h < 1 or w < 1:
                    raise ConfigError("spatial size collapsed below 1 pixel")

    @property
    def input_dim(self) -> int:
        return math.prod(self.input_shape)

    def block_channels(self) -> list[tuple[int, int]]:
        chans = []
        c_in = self.input_shape[0]
        for b in range(self.conv_blocks):
            c_out = _BASE_CHANNELS * (2 ** b)
            chans.append((c_in, c_out))
            c_in = c_out
        return chans

    def shapes(self) -> list[tuple[tuple, tuple]]:
        """The theta layout as (weight, bias) shape pairs; the quadratic centre has none."""
        if self.kind == "quadratic":
            return []
        _, h, w = self.input_shape
        layers = []
        for c_in, c_out in self.block_channels():
            layers.append(((c_out, c_in, 3, 3), (c_out,)))
            h, w = conv_out_size(h, 2), conv_out_size(w, 2)
        return layers + [((c_out * h * w,), ())]

    @property
    def param_count(self) -> int:
        return self.input_dim if self.kind == "quadratic" else count_params(self.shapes())


@dataclass
class EnergyParams:
    """A model's arch and float64 theta (D,), or a stack's (P, D); theta is replaced, never
    changed in place."""
    arch: EnergyArch
    theta: np.ndarray
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim not in (1, 2) or self.theta.shape[-1] != self.arch.param_count:
            raise DimensionError(
                f"theta has {self.theta.shape} entries, arch {self.arch.kind} "
                f"needs ({self.arch.param_count},)"
            )

    @property
    def models(self) -> int:
        return self.theta.shape[0] if self.theta.ndim == 2 else 1

    def view(self, dtype) -> tuple[np.ndarray, list]:
        """(theta, its (w, b) layers as a stack's) in ``dtype``, made on the first call and
        kept; float64 gives theta itself, another dtype a copy."""
        dtype = np.dtype(dtype)
        if dtype not in self._views:
            theta = self.theta.astype(dtype, copy=False)
            stack = theta.reshape(self.models, -1)
            self._views[dtype] = theta, split_params(stack, self.arch.shapes())
        return self._views[dtype]


def init_energy_params(arch: EnergyArch, base_seed: int) -> EnergyParams:
    """He-scaled deterministic initialization from (arch, base_seed)."""
    if arch.kind == "quadratic":
        return EnergyParams(arch=arch, theta=np.zeros(arch.input_dim))
    stream = derive_stream(base_seed, [("energy_init", 0)])
    return EnergyParams(arch=arch, theta=init_params(arch.shapes(), stream))


def _check_batch(params, X):
    X = float_array(X)
    if X.shape[1:] != params.arch.input_shape:
        raise DimensionError(f"batch shape {X.shape} does not match arch "
                             f"{params.arch.input_shape}")
    if X.shape[0] % params.models:
        raise DimensionError(f"batch of {X.shape[0]} does not split over {params.models} models")
    return X


def _forward_batch(params: EnergyParams, X: np.ndarray):
    """Energies for a batch. Returns (energies (P * N,), cache for backward)."""
    theta, layers = params.view(X.dtype)
    models, n = params.models, X.shape[0] // params.models
    if params.arch.kind == "quadratic":
        diff = X.reshape(models, n, -1) - theta.reshape(models, 1, -1)
        return 0.5 * np.sum(diff * diff, axis=2).reshape(-1), {"diff": diff}
    *body, (w_head, b_head) = layers
    a, body_cache = swish_conv_forward(X, body, stride=2)
    flat = a.reshape(models, n, -1)
    e = ((flat @ w_head[:, :, None])[:, :, 0] + b_head[:, None]).reshape(-1)
    finite = np.isfinite(e)
    if not np.all(finite):
        raise NumericError("non-finite energy value in forward pass",
                           model=int(np.argmin(finite.reshape(models, n).all(axis=1))))
    return e, {"layers": layers, "body": body_cache, "flat": flat, "a_shape": a.shape}


def _backward_batch(params: EnergyParams, X, cache, seed, want_input, want_params):
    """Chain-rule pass. ``seed`` holds dE_total/dE_n per sample.

    Returns (dX or None, dtheta or None); dtheta, shaped as theta, accumulates
    sum_n seed[n] * dE_n/dtheta over each model's own samples.
    """
    models = params.models
    seed = seed.reshape(models, -1, 1)
    if params.arch.kind == "quadratic":
        diff = cache["diff"]
        dx = (diff * seed).reshape(X.shape) if want_input else None
        dtheta = -(diff * seed).sum(axis=1) if want_params else None
        return dx, None if dtheta is None else dtheta.reshape(params.theta.shape)
    *body, (w_head, _) = cache["layers"]
    da = (seed * w_head[:, None, :]).reshape(cache["a_shape"])
    dx, grads = swish_conv_backward(da, body, cache["body"], stride=2, want_dw=want_params,
                                    want_dx=want_input)
    if not want_params:
        return dx, None
    grads.append(((cache["flat"].swapaxes(1, 2) @ seed)[:, :, 0], seed[:, :, 0].sum(axis=1)))
    return dx, join_params(grads, models).reshape(params.theta.shape)


def energy_value_and_grad_params(params: EnergyParams, X: np.ndarray):
    """Batched (energies, each model's batch-mean parameter gradient) in one pass."""
    X = _check_batch(params, X)
    e, cache = _forward_batch(params, X)
    n = X.shape[0] // params.models
    _, dtheta = _backward_batch(params, X, cache, np.full(X.shape[0], 1.0 / n, dtype=X.dtype),
                                False, True)
    return e, dtheta


def energy_value_and_grad_input(params: EnergyParams, X: np.ndarray):
    """Batched (energies, per-sample input gradients) in one pass."""
    X = _check_batch(params, X)
    e, cache = _forward_batch(params, X)
    dx, _ = _backward_batch(params, X, cache, np.ones(X.shape[0], dtype=X.dtype), True, False)
    return e, dx


def save_energy_params(params: EnergyParams, basename, pair=None, provenance=None) -> None:
    """Theta and a sidecar of the arch and, when given, the pair and what made the model."""
    base = Path(basename)
    write_tensor(f"{base}.ldtn", params.theta)
    meta = {"arch": asdict(params.arch)}
    if pair is not None:
        meta["pair"] = {"source": int(pair[0]), "target": int(pair[1])}
    if provenance is not None:
        meta["provenance"] = provenance
    write_meta(base, meta)


def load_energy_params(basename) -> tuple[EnergyParams, dict]:
    """The model saved at ``basename``; a missing sidecar, one whose ``arch`` does not spell out
    exactly EnergyArch's fields with values it accepts, or a theta of another length raises."""
    base = Path(basename)
    meta = read_meta(base)
    arch = read_fields(EnergyArch, meta.get("arch"), f"{base}.meta.json: arch")
    try:
        return EnergyParams(arch=arch, theta=read_tensor(f"{base}.ldtn")), meta
    except DimensionError as err:
        raise TensorFormatError(f"{base}.ldtn: {err}") from err
