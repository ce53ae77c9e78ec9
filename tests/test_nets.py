import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from langaug import nets
from langaug.nets import (conv2d_backward, conv2d_forward, count_params, init_params,
                         join_params, sigmoid, split_params)
from langaug.numerics import derive_stream

from test_energy import naive_conv

# (stride, N, C_in, C_out, H): the energy-net convs (stride 2) and the
# segmenter convs (stride 1) at the batch sizes the pipeline runs
SHAPES = [(2, n, 1, 8, 16) for n in (8, 15)] + [(2, n, 8, 16, 8) for n in (8, 15)] + [
    (1, n, c_in, 8, 16) for n in (5, 8, 50) for c_in in (1, 8)]


def naive_conv_backward(dy, x, w, stride):
    # the adjoint of naive_conv, accumulated one output pixel at a time
    n, c_in, h_in, w_in = x.shape
    _, c_out, h_out, w_out = dy.shape
    padded = np.zeros((n, c_in, h_in + 2, w_in + 2))
    padded[:, :, 1:1 + h_in, 1:1 + w_in] = x
    dpadded = np.zeros_like(padded)
    dw = np.zeros_like(w)
    for o in range(c_out):
        for r in range(h_out):
            for c in range(w_out):
                g = dy[:, o, r, c]
                for ci in range(c_in):
                    for u in range(3):
                        for v in range(3):
                            dw[o, ci, u, v] += g @ padded[:, ci, stride * r + u, stride * c + v]
                            dpadded[:, ci, stride * r + u, stride * c + v] += w[o, ci, u, v] * g
    db = dy.sum(axis=(0, 2, 3))
    return dpadded[:, :, 1:1 + h_in, 1:1 + w_in], dw, db


def rel_err(a, ref):
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


def conv_case(stride, n, c_in, c_out, h):
    stream = derive_stream(n * 100 + c_in, [("conv", stride)])
    x = stream.standard_normal((n, c_in, h, h))
    w = stream.standard_normal((c_out, c_in, 3, 3))
    b = stream.standard_normal(c_out)
    h_out = (h - 1) // stride + 1
    dy = stream.standard_normal((n, c_out, h_out, h_out))
    return x, w, b, dy


@pytest.mark.parametrize("stride,n,c_in,c_out,h", SHAPES)
def test_conv_matches_naive_loops(stride, n, c_in, c_out, h):
    x, w, b, dy = conv_case(stride, n, c_in, c_out, h)
    y, xp = conv2d_forward(x, w, b, stride=stride)
    assert y.shape == dy.shape
    assert rel_err(y, naive_conv(x, w, b, stride)) < 1e-12
    assert np.array_equal(xp[:, :, 1:-1, 1:-1], x)
    dx, dw, db = conv2d_backward(dy, xp, w, stride=stride)
    ref_dx, ref_dw, ref_db = naive_conv_backward(dy, x, w, stride)
    assert rel_err(dx, ref_dx) < 1e-12
    assert rel_err(dw, ref_dw) < 1e-12
    assert rel_err(db, ref_db) < 1e-12


@pytest.mark.parametrize("stride,n,c_in,c_out,h", SHAPES)
def test_skipping_dw_leaves_dx_and_db_bits(stride, n, c_in, c_out, h):
    x, w, b, dy = conv_case(stride, n, c_in, c_out, h)
    _, xp = conv2d_forward(x, w, b, stride=stride)
    dx, _, db = conv2d_backward(dy, xp, w, stride=stride)
    dx_only, dw_none, db_only = conv2d_backward(dy, xp, w, stride=stride, want_dw=False)
    assert dw_none is None
    assert np.array_equal(dx_only, dx)
    assert np.array_equal(db_only, db)


def sign_split_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bits_match_sign_split_formula_without_overflow():
    z = np.concatenate([np.linspace(-60.0, 60.0, 2401),
                        [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e3, -1e3, 5e-324, -5e-324]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = sigmoid(z)
    assert np.array_equal(s, sign_split_sigmoid(z))
    assert s[-4] == 1.0 and s[-3] == 0.0


def test_only_nets_calls_the_conv_kernels():
    # both networks share nets' conv + swish body; a second caller of the
    # kernels would be a second body
    callers = set()
    for path in sorted(Path(nets.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("conv2d_forward", "conv2d_backward"):
                    callers.add(path.name)
    assert callers == {"nets.py"}


def test_layout_split_join_and_init():
    shapes = [((4, 2, 3, 3), (4,)), ((6, 5), (6,)), ((7,), ())]
    theta = np.arange(count_params(shapes), dtype=np.float64)
    layers = split_params(theta, shapes)
    assert [(np.shape(w), np.shape(b)) for w, b in layers] == shapes
    assert layers[-1][1] == theta[-1]
    assert np.array_equal(join_params(layers), theta)
    drawn = init_params(shapes, derive_stream(9, [("init", 0)]))
    normal = derive_stream(9, [("init", 0)]).standard_normal
    ref = [normal((4, 2, 3, 3)) * np.sqrt(2.0 / 18), np.zeros(4),
           normal((6, 5)) * np.sqrt(2.0 / 5), np.zeros(6), normal(7) / np.sqrt(7), np.zeros(1)]
    assert np.array_equal(drawn, np.concatenate([r.ravel() for r in ref]))
