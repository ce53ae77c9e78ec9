"""Parametric energy functions with exact input and parameter gradients.

Three architectures:

* ``conv``: stride-2 3x3 convolution blocks (channels double from 8),
  swish activations, dense scalar head — the image energy.
* ``mlp``: two-layer perceptron for vector data.
* ``quadratic``: the diagnostic family E(x) = ||x - theta||^2 / 2, whose
  Langevin stationary law and contrastive-divergence optimum are known in
  closed form; it anchors the sampler and trainer tests.

The normalizing constant of the induced density exp(-E)/Z is intractable
and never evaluated; only E and its gradients are exposed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .ldtn import read_meta, read_tensor, write_meta, write_tensor
from .nets import conv2d_backward, conv2d_forward, conv_out_size, sigmoid, swish_grad
from .numerics import derive_stream

_BASE_CHANNELS = 8


@dataclass(frozen=True)
class EnergyArch:
    kind: str                      # "conv" | "mlp" | "quadratic"
    input_shape: tuple
    conv_blocks: int = 4
    hidden_width: int = 64

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        if self.kind not in ("conv", "mlp", "quadratic"):
            raise ConfigError(f"unknown energy arch kind {self.kind!r}")
        if self.kind == "conv":
            if len(self.input_shape) != 3:
                raise ConfigError("conv arch needs a (C, H, W) input shape")
            if not 1 <= self.conv_blocks <= 7:
                raise ConfigError("conv_blocks must lie in 1..7")
            h, w = self.input_shape[1], self.input_shape[2]
            for _ in range(self.conv_blocks):
                h, w = conv_out_size(h, 2), conv_out_size(w, 2)
                if h < 1 or w < 1:
                    raise ConfigError("spatial size collapsed below 1 pixel")
        if self.kind == "mlp" and self.hidden_width < 1:
            raise ConfigError("hidden_width must be positive")

    @property
    def input_dim(self) -> int:
        return int(np.prod(self.input_shape))

    def block_channels(self) -> list[tuple[int, int]]:
        chans = []
        c_in = self.input_shape[0]
        for b in range(self.conv_blocks):
            c_out = _BASE_CHANNELS * (2 ** b)
            chans.append((c_in, c_out))
            c_in = c_out
        return chans

    def conv_spatial(self) -> list[tuple[int, int]]:
        h, w = self.input_shape[1], self.input_shape[2]
        sizes = []
        for _ in range(self.conv_blocks):
            h, w = conv_out_size(h, 2), conv_out_size(w, 2)
            sizes.append((h, w))
        return sizes

    @property
    def param_count(self) -> int:
        if self.kind == "quadratic":
            return self.input_dim
        if self.kind == "mlp":
            d, h = self.input_dim, self.hidden_width
            return h * d + h + h + 1
        count = 0
        for c_in, c_out in self.block_channels():
            count += c_out * c_in * 9 + c_out
        hh, ww = self.conv_spatial()[-1]
        flat = self.block_channels()[-1][1] * hh * ww
        return count + flat + 1

    def to_meta(self) -> dict:
        return {
            "kind": self.kind,
            "input_shape": list(self.input_shape),
            "conv_blocks": self.conv_blocks,
            "hidden_width": self.hidden_width,
        }

    @staticmethod
    def from_meta(meta: dict) -> "EnergyArch":
        return EnergyArch(
            kind=meta["kind"],
            input_shape=tuple(meta["input_shape"]),
            conv_blocks=meta["conv_blocks"],
            hidden_width=meta["hidden_width"],
        )


@dataclass
class EnergyParams:
    arch: EnergyArch
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.arch.param_count,):
            raise DimensionError(
                f"theta has {self.theta.shape} entries, arch {self.arch.kind} "
                f"needs ({self.arch.param_count},)"
            )


def init_energy_params(arch: EnergyArch, base_seed: int) -> EnergyParams:
    """He-scaled deterministic initialization from (arch, base_seed)."""
    stream = derive_stream(base_seed, [("energy_init", 0)])
    if arch.kind == "quadratic":
        theta = np.zeros(arch.input_dim)
    elif arch.kind == "mlp":
        d, h = arch.input_dim, arch.hidden_width
        w1 = stream.standard_normal((h, d)) * np.sqrt(2.0 / d)
        w2 = stream.standard_normal(h) / np.sqrt(h)
        theta = np.concatenate([w1.ravel(), np.zeros(h), w2, np.zeros(1)])
    else:
        pieces = []
        for c_in, c_out in arch.block_channels():
            fan = c_in * 9
            pieces.append(stream.standard_normal((c_out, c_in, 3, 3)).ravel() * np.sqrt(2.0 / fan))
            pieces.append(np.zeros(c_out))
        hh, ww = arch.conv_spatial()[-1]
        flat = arch.block_channels()[-1][1] * hh * ww
        pieces.append(stream.standard_normal(flat) / np.sqrt(flat))
        pieces.append(np.zeros(1))
        theta = np.concatenate(pieces)
    return EnergyParams(arch=arch, theta=theta)


def _unpack_mlp(arch, theta):
    d, h = arch.input_dim, arch.hidden_width
    i = 0
    w1 = theta[i:i + h * d].reshape(h, d); i += h * d
    b1 = theta[i:i + h]; i += h
    w2 = theta[i:i + h]; i += h
    b2 = theta[i]
    return w1, b1, w2, b2


def _unpack_conv(arch, theta):
    blocks = []
    i = 0
    for c_in, c_out in arch.block_channels():
        w = theta[i:i + c_out * c_in * 9].reshape(c_out, c_in, 3, 3); i += c_out * c_in * 9
        b = theta[i:i + c_out]; i += c_out
        blocks.append((w, b))
    hh, ww = arch.conv_spatial()[-1]
    flat = arch.block_channels()[-1][1] * hh * ww
    w_head = theta[i:i + flat]; i += flat
    b_head = theta[i]
    return blocks, w_head, b_head


def _check_batch(arch, X):
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1:] != arch.input_shape:
        raise DimensionError(f"batch shape {X.shape} does not match arch {arch.input_shape}")
    return X


def _forward_batch(params: EnergyParams, X: np.ndarray):
    """Energies for a batch. Returns (energies (N,), cache for backward)."""
    arch, theta = params.arch, params.theta
    n = X.shape[0]
    if arch.kind == "quadratic":
        diff = X.reshape(n, -1) - theta
        return 0.5 * np.sum(diff * diff, axis=1), {"diff": diff}
    if arch.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(arch, theta)
        xf = X.reshape(n, -1)
        z1 = xf @ w1.T + b1
        s1 = sigmoid(z1)
        a1 = z1 * s1
        e = a1 @ w2 + b2
        return e, {"xf": xf, "z1": z1, "s1": s1, "a1": a1}
    blocks, w_head, b_head = _unpack_conv(arch, theta)
    a = X
    cache = []
    for w, b in blocks:
        z, xp = conv2d_forward(a, w, b, stride=2)
        s = sigmoid(z)
        cache.append((xp, z, s))
        a = z * s
    flat = a.reshape(n, -1)
    e = flat @ w_head + b_head
    if not np.all(np.isfinite(e)):
        raise NumericError("non-finite energy value in forward pass")
    return e, {"blocks": cache, "flat": flat, "a_shape": a.shape}


def _backward_batch(params: EnergyParams, X, cache, seed, want_input, want_params):
    """Chain-rule pass. ``seed`` holds dE_total/dE_n per sample.

    Returns (dX or None, dtheta or None); dtheta accumulates
    sum_n seed[n] * dE_n/dtheta.
    """
    arch, theta = params.arch, params.theta
    n = X.shape[0]
    if arch.kind == "quadratic":
        diff = cache["diff"]
        dx = (diff * seed[:, None]).reshape(X.shape) if want_input else None
        dtheta = -(diff * seed[:, None]).sum(axis=0) if want_params else None
        return dx, dtheta
    if arch.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(arch, theta)
        xf, z1, a1 = cache["xf"], cache["z1"], cache["a1"]
        dz1 = seed[:, None] * w2 * swish_grad(z1, cache["s1"])
        dx = (dz1 @ w1).reshape(X.shape) if want_input else None
        dtheta = None
        if want_params:
            dw1 = dz1.T @ xf
            db1 = dz1.sum(axis=0)
            dw2 = a1.T @ seed
            db2 = seed.sum()
            dtheta = np.concatenate([dw1.ravel(), db1, dw2, [db2]])
        return dx, dtheta
    blocks, w_head, b_head = _unpack_conv(arch, theta)
    flat = cache["flat"]
    da = (seed[:, None] * w_head[None, :]).reshape(cache["a_shape"])
    grads = []
    dx = None
    for (w, b), (xp, z, s) in zip(reversed(blocks), reversed(cache["blocks"])):
        dz = da * swish_grad(z, s)
        dxb, dw, db = conv2d_backward(dz, xp, w, stride=2, want_dw=want_params)
        grads.append((dw, db))
        da = dxb
    if want_input:
        dx = da
    dtheta = None
    if want_params:
        pieces = []
        for dw, db in reversed(grads):
            pieces.append(dw.ravel())
            pieces.append(db)
        pieces.append(flat.T @ seed)
        pieces.append(np.array([seed.sum()]))
        dtheta = np.concatenate(pieces)
    return dx, dtheta


def energy_value_and_grad_params(params: EnergyParams, X: np.ndarray):
    """Batched (energies, batch-mean parameter gradient) in one pass."""
    X = _check_batch(params.arch, X)
    e, cache = _forward_batch(params, X)
    _, dtheta = _backward_batch(params, X, cache, np.full(X.shape[0], 1.0 / X.shape[0]),
                                False, True)
    return e, dtheta


def energy_value_and_grad_input(params: EnergyParams, X: np.ndarray):
    """Batched (energies, per-sample input gradients) in one pass."""
    X = _check_batch(params.arch, X)
    e, cache = _forward_batch(params, X)
    dx, _ = _backward_batch(params, X, cache, np.ones(X.shape[0]), True, False)
    return e, dx


def save_energy_params(params: EnergyParams, basename, pair=None) -> None:
    base = Path(basename)
    base.parent.mkdir(parents=True, exist_ok=True)
    write_tensor(f"{base}.ldtn", params.theta)
    meta = {"arch": params.arch.to_meta()}
    if pair is not None:
        meta["pair"] = {"source": int(pair[0]), "target": int(pair[1])}
    write_meta(base, meta)


def load_energy_params(basename) -> tuple[EnergyParams, dict]:
    base = Path(basename)
    meta = read_meta(base)
    arch = EnergyArch.from_meta(meta["arch"])
    theta = read_tensor(f"{base}.ldtn")
    return EnergyParams(arch=arch, theta=theta), meta
