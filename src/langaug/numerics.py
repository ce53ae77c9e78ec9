"""Deterministic numerical substrate: random streams, Adam, the compute dtype and
the block rule of batched passes.

Random streams are derived by hashing a base seed together with a tuple of
(name, index) labels, so any consumer (a chain, a sample, a training
iteration) owns an independent stream whose draws do not depend on
scheduling order; draws and Adam are double precision. ``float_array``
states the rule every network, energy, sampler and trainer kernel follows:
it computes in float32 when given float32 arrays and in float64 otherwise.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError

Labels = tuple[tuple[str, int], ...]


def float_array(x) -> np.ndarray:
    """``x`` in the dtype a kernel computes in: float32 stays float32, anything else becomes
    float64 (without a copy if it already is)."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def block_ranges(n: int, width: int):
    """[lo, hi) ranges covering n items in blocks of ``width``.

    A lone last item joins the block before it: numpy reduces a one-draw
    column block by pairwise summation instead of row by row, and a batch of
    one gives a head's logits other last bits than the same image in a
    larger batch.
    """
    lo = 0
    while lo < n:
        hi = n if n - lo <= width + 1 else lo + width
        yield lo, hi
        lo = hi


def _philox_key(base_seed: int, labels: Labels) -> np.ndarray:
    h = hashlib.blake2b(digest_size=16)
    h.update(int(base_seed).to_bytes(8, "little", signed=True))
    for name, value in labels:
        raw = name.encode("utf-8")
        h.update(len(raw).to_bytes(2, "little"))
        h.update(raw)
        h.update(int(value).to_bytes(8, "little", signed=True))
    return np.frombuffer(h.digest(), dtype=np.uint64)


def derive_stream(base_seed: int, labels) -> np.random.Generator:
    """Counter-based generator keyed by (base_seed, labels).

    ``labels`` is an ordered list of (name, int) tags. Identical keys give
    bit-identical draw sequences; distinct labels give independent streams
    with no shared mutable state, so streams may be created and consumed
    concurrently in any order.
    """
    labels = tuple((str(n), int(v)) for n, v in labels)
    if not labels:
        raise ConfigError("derive_stream labels must be non-empty")
    return np.random.Generator(np.random.Philox(key=_philox_key(base_seed, labels)))


@dataclass(frozen=True)
class AdamHyper:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.99
    eps_stab: float = 1e-8


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    hyper: AdamHyper = field(default_factory=AdamHyper)


def init_adam_state(dim, hyper: AdamHyper | None = None) -> AdamState:
    """Zero moments of ``dim`` entries, or of shape ``dim`` (a stack's (P, D)); Adam is
    elementwise, so each row of a stack steps as it would alone."""
    return AdamState(
        first_moment=np.zeros(dim),
        second_moment=np.zeros(dim),
        step_count=0,
        hyper=hyper or AdamHyper(),
    )


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One bias-corrected Adam update. Returns (new_params, new_state)."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise DimensionError(
            f"adam_step length mismatch: params {params.shape}, grads {grads.shape}, "
            f"moments {state.first_moment.shape}"
        )
    h = state.hyper
    t = state.step_count + 1
    m = h.beta1 * state.first_moment + (1.0 - h.beta1) * grads
    v = h.beta2 * state.second_moment + (1.0 - h.beta2) * grads * grads
    m_hat = m / (1.0 - h.beta1**t)
    v_hat = v / (1.0 - h.beta2**t)
    new_params = params - h.lr * m_hat / (np.sqrt(v_hat) + h.eps_stab)
    return new_params, AdamState(m, v, t, h)
