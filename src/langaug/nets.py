"""Small-net building blocks with explicit backward passes.

All convolutions are 3x3 with configurable stride and padding 1, applied
to (N, C, H, W) batches. Gradients are exact; no autodiff anywhere. Every
kernel computes in its input's dtype (``np.result_type(x, w)`` for a conv),
so float32 arrays stay float32 and float64 arrays keep their float64 bits.

Each convolution is lowered to one 2-D matrix product (Chellapilla et
al. 2006): the padded input is unfolded into an im2col matrix of shape
(C_in * 9, N * H_out * W_out) by one copy of its (C_in, 3, 3, N, H_out,
W_out) window view, and multiplied by the (C_out, C_in * 9) weight
matrix. The forward returns that matrix and the backward reuses it for
the weight gradient, so each input is unfolded once. The input gradient
multiplies by the transposed weights and folds the products back with
one flat shifted add per kernel offset: under same padding the input
splits into stride x stride phase planes, and an offset sends every
output pixel to one phase plane, one constant flat index further on once
all image planes are laid end to end. Products that the shift would wrap
into a neighbouring row or image plane are zeroed first. Every input
pixel then sums the same products in the same offset order, plus exact
zeros, as nine adds into strided windows of the padded input would, so
it gets the same bits; a plain 1-D add runs several times faster than an
add into such a window, which numpy walks one short row at a time. One
transposed copy then interleaves the phase planes into dx.
``want_dw=False`` skips the weight and bias gradients (Langevin sampling),
``want_dx=False`` the input gradient (training).

The kernels also run a stack of P models of one architecture in one call:
the weights carry a model axis after the output axis, (C_out, P, C_in, 3,
3), the bias is (P, C_out), and the batch holds model p's N samples at rows
p * N to (p + 1) * N. The im2col matrix is then (P * C_in * 9, N * H_out *
W_out), model by model, and each product is one matmul over the model axis:
every model's GEMM runs on a block of the shape it has alone (its weight
rows strided by the stack), so it gets the bits it gets alone. A (C_out,
C_in, 3, 3) kernel with a (C_out,) bias is the P = 1 stack.

Both networks (the energy net's conv branch and the segmenter) are a body
of conv + swish layers, ``swish_conv_forward`` / ``swish_conv_backward``,
under a linear head. Their parameters live in one flat theta vector whose
layout is a list of (weight shape, bias shape) pairs: ``split_params`` cuts
theta into those layers, ``join_params`` flattens layers (or their
gradients) back, and ``init_params`` draws a fresh theta.
"""
from __future__ import annotations

import functools
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


def conv_out_size(size: int, stride: int) -> int:
    """Output size of a 3x3 conv with padding 1: (size + 2 - 3) // stride + 1."""
    return (size - 1) // stride + 1


def _im2col(xp: np.ndarray, stride: int, ho: int, wo: int, models: int = 1) -> np.ndarray:
    """Unfold C-contiguous xp into a fresh (models * C * 9, N * ho * wo) im2col matrix, N
    being each model's share of the batch and model p's rows starting at p * C * 9."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    n //= models
    # entry (p, c, u, v, n, i, j) is xp[p * N + n, c, stride * i + u, stride * j + v]; the
    # ndarray constructor builds this window view faster than as_strided
    windows = np.ndarray((models, c, 3, 3, n, ho, wo), xp.dtype, xp, 0,
                         (n * sn, sc, sh, sw, sn, stride * sh, stride * sw))
    return windows.copy().reshape(models * c * 9, n * ho * wo)  # a fresh C-order copy


def _stack(w: np.ndarray) -> np.ndarray:
    """A kernel as a (C_out, P, C_in * 9) view; a (C_out, C_in, 3, 3) kernel has P = 1."""
    return w.reshape(w.shape[0], -1, 9 * w.shape[-3])


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int):
    """Returns (y, xp, cols): the padded input and its im2col matrix, for the backward pass.
    ``w`` is (C_out, C_in, 3, 3), or (C_out, P, C_in, 3, 3) for a stack of P models; any other
    kernel fails the weight product."""
    n, c, h, wd = x.shape
    wm = _stack(w)
    o, models = wm.shape[:2]
    xp = np.zeros((n, c, h + 2, wd + 2), dtype=np.result_type(x, w))
    xp[:, :, 1:1 + h, 1:1 + wd] = x
    ho, wo = conv_out_size(h, stride), conv_out_size(wd, stride)
    cols = _im2col(xp, stride, ho, wo, models)
    # (P, C_out, N * ho * wo): one GEMM per model
    y = wm.transpose(1, 0, 2) @ cols.reshape(models, -1, cols.shape[1])
    y += b.reshape(models, o, 1)
    y = y.reshape(models, o, n // models, ho, wo).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(y).reshape(n, o, ho, wo), xp, cols


@functools.lru_cache(maxsize=None)
def _taps(stride: int, ho: int, wo: int):
    """The input gradient's shifted adds: ((k, p, q, d), ...), row wraps, column wraps.

    Under same padding (3x3, pad 1) ho = ceil(h / stride), so the input
    splits into stride x stride phase planes of ho x wo pixels; plane
    (p, q) holds the rows r with r % stride == p and the columns likewise.
    With (di, p) = divmod(u - 1, stride) and (dj, q) = divmod(v - 1,
    stride), kernel offset k = (u, v) sends output pixel m = i * wo + j to
    pixel m + d, d = di * wo + dj, of phase plane (p, q). Where i + di or
    j + dj leaves the plane, m + d lands in a neighbouring row or image
    plane instead: the wrap lists give, per kernel row u and column v, the
    output rows and columns whose products are zeroed first.
    """
    taps = []
    for u in range(3):
        di, p = divmod(u - 1, stride)
        for v in range(3):
            dj, q = divmod(v - 1, stride)
            taps.append((u * 3 + v, p, q, di * wo + dj))

    def wraps(size):
        wrapped = []
        for t in range(3):
            shift = (t - 1) // stride
            if shift:
                wrapped.append((t, slice(0, -shift) if shift < 0 else slice(size - shift, size)))
        return tuple(wrapped)

    return tuple(taps), wraps(ho), wraps(wo)


def conv2d_backward(dy: np.ndarray, xp: np.ndarray, w: np.ndarray, stride: int, *,
                    cols: np.ndarray, want_dw: bool = True, want_dx: bool = True):
    """(dx, dw, db) from conv2d_forward's xp and cols; dx, and dw with db, None unless wanted.
    dw and db have the shapes of ``w`` and of its bias."""
    n, o, ho, wo = dy.shape
    wm = _stack(w)
    models = wm.shape[1]
    c, n = xp.shape[1], n // models
    # (P, C_out, N * ho * wo): each model's output gradient as one contiguous block
    dy_mat = np.ascontiguousarray(dy.reshape(models, n, o, ho * wo).transpose(0, 2, 1, 3))
    dy_mat = dy_mat.reshape(models, o, n * ho * wo)
    # (cols @ dy_mat.T).T has the bits of dy_mat @ cols.T and is faster at C_out < C_in * 9
    cols = cols.reshape(models, -1, n * ho * wo)
    dw = ((cols @ dy_mat.swapaxes(1, 2)).swapaxes(1, 2).swapaxes(0, 1).reshape(w.shape)
          if want_dw else None)
    db = dy.reshape(models, n, o, ho, wo).sum(axis=(1, 3, 4)) if want_dw else None
    if want_dw and w.ndim == 4:
        db = db[0]
    if not want_dx:
        return None, dw, db
    taps, row_wraps, col_wraps = _taps(stride, ho, wo)
    # the fold sees a stack's P * C input channels, model by model, as C channels alone
    dcols = (wm.transpose(1, 2, 0) @ dy_mat).reshape(models * c, 3, 3, n, ho, wo)
    for u, rows in row_wraps:
        dcols[:, u, :, :, rows] = 0.0
    for v, columns in col_wraps:
        dcols[:, :, v, :, :, columns] = 0.0
    dcols = dcols.reshape(models * c, 9, n * ho * wo)
    size = dcols.shape[0] * n * ho * wo
    # the phase planes, image planes laid end to end in dcols' (P, C, N) order
    planes = np.zeros((stride, stride, size), dtype=dcols.dtype)
    for k, p, q, d in taps:
        lo, hi = max(0, -d), size - max(0, d)
        # one offset's products as a flat run, a copy unless P * C == 1; at the
        # segmenter's 8->8 layer nine such copies beat one offset-major copy
        # of all of dcols by about 3x
        planes[p, q, lo + d:hi + d] += dcols[:, k].ravel()[lo:hi]
    h, wd = xp.shape[2] - 2, xp.shape[3] - 2
    # plane (p, q) holds the rows p::stride and the columns q::stride of dx: one
    # transposed copy interleaves them, and a crop to odd sizes is copied again
    dx = planes.reshape(stride, stride, models, c, n, ho, wo).transpose(2, 4, 3, 5, 0, 6, 1)
    dx = dx.reshape(models * n, c, ho * stride, wo * stride)[:, :, :h, :wd]
    return np.ascontiguousarray(dx), dw, db


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

    Returns (dx, grads); grads lists (dw, db) in layer order, both None unless
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
    """Views (w, b) of flat ``theta`` per (weight shape, bias shape) pair; () gives a scalar.

    A (P, D) theta is a stack of P models: each view gains a model axis, after the output
    axis of a kernel or matrix ((C_out, P, C_in, 3, 3), as the conv kernels take it) and
    first elsewhere ((P, C_out) for a bias, (P,) for a scalar).
    """
    layers, i = [], 0
    for pair in shapes:
        layer = []
        for shape in pair:
            size = math.prod(shape)
            if theta.ndim == 2:
                part = theta[:, i:i + size].reshape((-1,) + shape)
                part = np.moveaxis(part, 0, 1) if len(shape) > 1 else part
            else:
                part = theta[i:i + size] if shape else theta[i]
                part = part.reshape(shape) if len(shape) > 1 else part  # 1-D: already shaped
            layer.append(part)
            i += size
        layers.append(tuple(layer))
    return layers


def join_params(layers, models: int | None = None) -> np.ndarray:
    """Flat theta (or its gradient) from (w, b) layers; the inverse of split_params. With
    ``models``, the layers are a stack's, model axes placed as split_params places them, and
    the result is (models, D)."""
    if models is None:
        return np.concatenate([np.ravel(a) for layer in layers for a in layer])
    return np.concatenate([(np.moveaxis(a, 1, 0) if a.ndim > 2 else a).reshape(models, -1)
                           for layer in layers for a in layer], axis=1)


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
