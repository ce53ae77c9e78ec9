"""Small-net building blocks with explicit backward passes.

All convolutions are 3x3 with configurable stride and padding 1, applied
to (N, C, H, W) batches. Gradients are exact; no autodiff anywhere. Every
kernel computes in its input's dtype (``np.result_type(x, w)`` for a conv),
so float32 arrays stay float32 and float64 arrays keep their float64 bits.

Each convolution is lowered to one 2-D matrix product (Chellapilla et al.
2006): the padded input is unfolded into an im2col matrix of shape
(C_in * 9, N * H_out * W_out) by nine strided copies, one per kernel
offset, and multiplied by the (C_out, C_in * 9) weight matrix. The
forward returns that matrix and the backward reuses it for the weight
gradient, so each input is unfolded once. The input gradient multiplies
by the transposed weights and scatters the result back onto the padded
input with nine strided adds. ``want_dw=False`` skips the weight gradient
(Langevin sampling), ``want_dx=False`` the input gradient (training).

Both networks (the energy net's conv branch and the segmenter) are a body
of conv + swish layers, ``swish_conv_forward`` / ``swish_conv_backward``,
under a linear head. Their parameters live in one flat theta vector whose
layout is a list of (weight shape, bias shape) pairs: ``split_params`` cuts
theta into those layers, ``join_params`` flattens layers (or their
gradients) back, and ``init_params`` draws a fresh theta.
"""
from __future__ import annotations

import math

import numpy as np


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows; max(e, z >= 0) is 1 for
    # z >= 0 and e below (np.where with a scalar 1.0 is twice as slow), so the
    # bits are 1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def swish_grad(z: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
    """Derivative of swish at z; ``s`` is sigmoid(z) if the caller kept it."""
    if s is None:
        s = sigmoid(z)
    return s * (1.0 + z * (1.0 - s))


def conv_out_size(size: int, stride: int, pad: int = 1, kernel: int = 3) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _offset_views(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int):
    """The (N, C, ho, wo) strided view of xp under each kernel offset (u, v)."""
    for u in range(kh):
        for v in range(kw):
            yield xp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Unfold xp into the (C * kh * kw, N * ho * wo) im2col matrix."""
    n, c = xp.shape[:2]
    cols = np.empty((c, kh * kw, n, ho, wo), dtype=xp.dtype)
    for k, xs in enumerate(_offset_views(xp, kh, kw, stride, ho, wo)):
        cols[:, k] = xs.transpose(1, 0, 2, 3)
    return cols.reshape(c * kh * kw, n * ho * wo)


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, pad: int = 1):
    """Returns (y, xp, cols): the padded input and its im2col matrix, for the backward pass."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.result_type(x, w))
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    ho = conv_out_size(h, stride, pad, kh)
    wo = conv_out_size(wd, stride, pad, kw)
    cols = _im2col(xp, kh, kw, stride, ho, wo)
    y = w.reshape(o, -1) @ cols
    y += b[:, None]
    return np.ascontiguousarray(y.reshape(o, n, ho, wo).transpose(1, 0, 2, 3)), xp, cols


def conv2d_backward(dy: np.ndarray, xp: np.ndarray, w: np.ndarray, stride: int, pad: int = 1,
                    *, cols: np.ndarray, want_dw: bool = True, want_dx: bool = True):
    """(dx, dw, db) from conv2d_forward's xp and cols; dx, dw None unless wanted."""
    n, o, ho, wo = dy.shape
    _, c, kh, kw = w.shape
    dy_mat = dy.transpose(1, 0, 2, 3).reshape(o, n * ho * wo)
    dw = (dy_mat @ cols.T).reshape(w.shape) if want_dw else None
    db = dy.sum(axis=(0, 2, 3))
    if not want_dx:
        return None, dw, db
    dcols = (w.reshape(o, -1).T @ dy_mat).reshape(c, kh * kw, n, ho, wo)
    dxp = np.zeros_like(xp)
    for k, dxs in enumerate(_offset_views(dxp, kh, kw, stride, ho, wo)):
        dxs += dcols[:, k].transpose(1, 0, 2, 3)
    h = xp.shape[2] - 2 * pad
    wd = xp.shape[3] - 2 * pad
    return dxp[:, :, pad:pad + h, pad:pad + wd], dw, db


def swish_conv_forward(x: np.ndarray, layers, stride: int):
    """Conv + swish over the (w, b) ``layers``. Returns (activation, cache)."""
    cache = []
    for w, b in layers:
        z, xp, cols = conv2d_forward(x, w, b, stride=stride)
        s = sigmoid(z)
        cache.append((xp, cols, z, s))
        x = z * s
    return x, cache


def swish_conv_backward(da: np.ndarray, layers, cache, stride: int, want_dw: bool,
                        want_dx: bool):
    """Gradients for swish_conv_forward from the output gradient ``da``.

    Returns (dx, grads); grads lists (dw, db) in layer order, dw None unless
    want_dw, and dx is None unless want_dx. ``cache`` is emptied from the last
    layer back, so each layer's im2col matrix is freed once its dw exists.
    """
    grads = []
    for w, _ in reversed(layers):
        xp, cols, z, s = cache.pop()
        # while a layer below is left in the cache, it needs this input gradient
        da, dw, db = conv2d_backward(da * swish_grad(z, s), xp, w, stride=stride, cols=cols,
                                     want_dw=want_dw, want_dx=want_dx or bool(cache))
        grads.append((dw, db))
    return da, grads[::-1]


def count_params(shapes) -> int:
    return sum(math.prod(w) + math.prod(b) for w, b in shapes)


def split_params(theta: np.ndarray, shapes) -> list:
    """Views (w, b) of flat ``theta`` per (weight shape, bias shape) pair; () gives a scalar."""
    layers, i = [], 0
    for pair in shapes:
        layer = []
        for shape in pair:
            size = math.prod(shape)
            part = theta[i:i + size] if shape else theta[i]
            layer.append(part.reshape(shape) if len(shape) > 1 else part)  # 1-D: already shaped
            i += size
        layers.append(tuple(layer))
    return layers


def join_params(layers) -> np.ndarray:
    """Flat theta (or its gradient) from (w, b) layers; the inverse of split_params."""
    return np.concatenate([np.ravel(a) for layer in layers for a in layer])


def init_params(shapes, stream) -> np.ndarray:
    """Flat theta drawn from ``stream`` in layout order, biases zero.

    A kernel or matrix is He-scaled by sqrt(2 / fan_in), a head vector of
    n entries by 1 / sqrt(n).
    """
    layers = []
    for w_shape, b_shape in shapes:
        w = stream.standard_normal(w_shape)
        w = w * np.sqrt(2.0 / math.prod(w_shape[1:])) if len(w_shape) > 1 else w / np.sqrt(w.size)
        layers.append((w, np.zeros(b_shape)))
    return join_params(layers)
