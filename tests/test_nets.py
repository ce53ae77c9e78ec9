import ast
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from langaug import energy, nets, segmenter
from langaug.energy import EnergyArch, init_energy_params
from langaug.nets import (conv2d_backward, conv2d_forward, conv_out_size, count_params,
                         init_params, join_params, sigmoid, split_params)
from langaug.numerics import derive_stream
from langaug.segmenter import SegArch, init_seg_model

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
    y, xp, cols = conv2d_forward(x, w, b, stride=stride)
    assert y.shape == dy.shape
    assert rel_err(y, naive_conv(x, w, b, stride)) < 1e-12
    assert np.array_equal(xp[:, :, 1:-1, 1:-1], x)
    dx, dw, db = conv2d_backward(dy, xp, w, stride=stride, cols=cols)
    ref_dx, ref_dw, ref_db = naive_conv_backward(dy, x, w, stride)
    assert rel_err(dx, ref_dx) < 1e-12
    assert rel_err(dw, ref_dw) < 1e-12
    assert rel_err(db, ref_db) < 1e-12


@pytest.mark.parametrize("stride,n,c_in,c_out,h", SHAPES)
def test_skipping_dw_leaves_dx_and_db_bits(stride, n, c_in, c_out, h):
    x, w, b, dy = conv_case(stride, n, c_in, c_out, h)
    _, xp, cols = conv2d_forward(x, w, b, stride=stride)
    dx, _, _ = conv2d_backward(dy, xp, w, stride=stride, cols=cols)
    dx_only, dw_none, db_only = conv2d_backward(dy, xp, w, stride=stride, cols=cols,
                                                want_dw=False)
    assert dw_none is None and db_only is None
    assert np.array_equal(dx_only, dx)


@pytest.mark.parametrize("stride,n,c_in,c_out,h", SHAPES)
def test_dw_from_the_forward_matrix_matches_a_fresh_unfold(stride, n, c_in, c_out, h):
    x, w, b, dy = conv_case(stride, n, c_in, c_out, h)
    _, xp, cols = conv2d_forward(x, w, b, stride=stride)
    _, dw, _ = conv2d_backward(dy, xp, w, stride=stride, cols=cols)
    ho = dy.shape[2]
    dy_mat = dy.transpose(1, 0, 2, 3).reshape(c_out, -1)
    ref = (dy_mat @ nine_copy_im2col(xp, 3, 3, stride, ho, ho).T).reshape(w.shape)
    assert np.array_equal(dw, ref)


def nine_copy_im2col(xp, kh, kw, stride, ho, wo):
    # the input unfolded by nine strided copies, one per kernel offset; the
    # one-copy window view must reproduce its bytes
    n, c = xp.shape[:2]
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=xp.dtype)
    for u in range(kh):
        for v in range(kw):
            xs = xp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]
            cols[:, u, v] = xs.transpose(1, 0, 2, 3)
    return cols.reshape(c * kh * kw, n * ho * wo)


# (H, W) of the fold and unfold bit tests: a lone pixel, odd and even sizes
FOLD_SIZES = [(1, 1), (2, 2), (5, 9), (7, 7), (8, 8), (16, 16), (16, 15)]
FOLD_BATCHES = (1, 2, 8, 15)
# (stride, N, C_in, H, W): every SHAPES entry, then each fold size at each batch size
UNFOLD_CASES = [(stride, n, c_in, h, h) for stride, n, c_in, _, h in SHAPES] + [
    (stride, n, 3, h, wd) for stride in (1, 2) for h, wd in FOLD_SIZES for n in FOLD_BATCHES]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride,n,c_in,h,wd", UNFOLD_CASES)
def test_one_copy_unfold_matches_nine_copies_bits(stride, n, c_in, h, wd, dtype):
    stream = derive_stream(n * 1000 + h * 100 + wd, [("unfold", stride), ("c_in", c_in)])
    x = stream.standard_normal((n, c_in, h, wd)).astype(dtype)
    w = stream.standard_normal((4, c_in, 3, 3)).astype(dtype)
    _, xp, cols = conv2d_forward(x, w, np.zeros(4, dtype), stride=stride)
    ref = nine_copy_im2col(xp, 3, 3, stride, conv_out_size(h, stride), conv_out_size(wd, stride))
    assert cols.shape == ref.shape and cols.dtype == ref.dtype
    assert cols.tobytes() == ref.tobytes()
    assert cols.flags.c_contiguous and not np.shares_memory(cols, xp)


def window_fold_dx(dy, xp, w, stride, pad=1):
    # the input gradient folded by nine adds into strided windows of the
    # padded input, one per kernel offset in order; the flat shifted adds
    # must reproduce its bits
    n, o, ho, wo = dy.shape
    _, c, kh, kw = w.shape
    dy_mat = dy.transpose(1, 0, 2, 3).reshape(o, n * ho * wo)
    dcols = (w.reshape(o, -1).T @ dy_mat).reshape(c, kh * kw, n, ho, wo)
    dxp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            window = dxp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]
            window += dcols[:, u * kw + v].transpose(1, 0, 2, 3)
    return dxp[:, :, pad:-pad, pad:-pad]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("h,wd", FOLD_SIZES)
@pytest.mark.parametrize("stride", [1, 2])
def test_flat_shifted_adds_match_the_window_fold_bits(stride, h, wd, dtype):
    stream = derive_stream(h * 100 + wd, [("fold", stride)])
    for n in FOLD_BATCHES:
        x = stream.standard_normal((n, 3, h, wd)).astype(dtype)
        w = stream.standard_normal((4, 3, 3, 3)).astype(dtype)
        y, xp, cols = conv2d_forward(x, w, np.zeros(4, dtype), stride=stride)
        dy = stream.standard_normal(y.shape).astype(dtype)
        # exact zeros of both signs, including at wrapped and padding positions
        u = stream.random(y.shape)
        dy[u < 0.2] = 0.0
        dy[u > 0.8] = -0.0
        dx, _, _ = conv2d_backward(dy, xp, w, stride=stride, cols=cols, want_dw=False)
        ref = window_fold_dx(dy, xp, w, stride)
        assert dx.shape == ref.shape and dx.dtype == ref.dtype
        assert dx.tobytes() == ref.tobytes()
        # the unfold copies out of xp and the fold's crop is copied when odd sizes
        # leave it strided
        assert cols.flags.c_contiguous and not np.shares_memory(cols, xp)
        assert dx.flags.c_contiguous


@pytest.mark.parametrize("n,c_in", [(5, 1), (5, 8), (8, 1), (8, 8)])
def test_float32_dw_keeps_the_bits_of_dy_times_cols_transposed(n, c_in):
    # the segmenter's float32 layers; dw is formed as (cols @ dy_mat.T).T
    x, w, b, dy = (a.astype(np.float32) for a in conv_case(1, n, c_in, 8, 16))
    _, xp, cols = conv2d_forward(x, w, b, stride=1)
    _, dw, _ = conv2d_backward(dy, xp, w, stride=1, cols=cols, want_dx=False)
    ref = (dy.transpose(1, 0, 2, 3).reshape(8, -1) @ cols.T).reshape(w.shape)
    assert dw.dtype == np.float32
    assert dw.tobytes() == ref.tobytes()


@pytest.mark.parametrize("stride,n,c_in,c_out,h", SHAPES)
def test_skipping_dx_leaves_dw_and_db_bits(stride, n, c_in, c_out, h):
    x, w, b, dy = conv_case(stride, n, c_in, c_out, h)
    _, xp, cols = conv2d_forward(x, w, b, stride=stride)
    _, dw, db = conv2d_backward(dy, xp, w, stride=stride, cols=cols)
    dx_none, dw_only, db_only = conv2d_backward(dy, xp, w, stride=stride, cols=cols,
                                                want_dx=False)
    assert dx_none is None
    assert np.array_equal(dw_only, dw)
    assert np.array_equal(db_only, db)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
def test_kernels_compute_in_the_input_dtype(stride, dtype):
    # an allocation without dtype= would upcast float32 inputs to float64
    x, w, b, dy = (a.astype(dtype) for a in conv_case(stride, 8, 2, 4, 16))
    y, xp, cols = conv2d_forward(x, w, b, stride=stride)
    dx, dw, db = conv2d_backward(dy, xp, w, stride=stride, cols=cols)
    a, cache = nets.swish_conv_forward(x, [(w, b)], stride=stride)
    body_dx, grads = nets.swish_conv_backward(dy, [(w, b)], cache, stride=stride, want_dw=True,
                                              want_dx=True)
    outputs = [y, xp, cols, dx, dw, db, a, body_dx, *grads[0]]
    assert [o.dtype for o in outputs] == [np.dtype(dtype)] * len(outputs)


def sign_split_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bits_match_sign_split_formula_without_overflow():
    z = np.concatenate([np.linspace(-60.0, 60.0, 2401),
                        [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e3, -1e3, 5e-324, -5e-324,
                         np.inf, -np.inf, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = sigmoid(z)
    assert np.array_equal(s, sign_split_sigmoid(z), equal_nan=True)
    assert s[-7] == 1.0 and s[-6] == 0.0
    assert s[-3] == 1.0 and s[-2] == 0.0 and np.isnan(s[-1])


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


def seg_batch(n=8, size=16):
    stream = derive_stream(4, [("seg_batch", n)])
    X = stream.standard_normal((n, 1, size, size))
    M = (stream.random((n, size, size)) < 0.3).astype(np.float64)
    return X, M


def test_seg_step_unfolds_each_layer_once_and_forms_no_input_gradient(monkeypatch):
    # the weight gradient reuses the forward's im2col matrix, and nothing
    # reads the gradient with respect to the images
    arch = SegArch()
    model = init_seg_model(arch, 0)
    X, M = seg_batch()
    unfolded, backward = [], []
    im2col, conv_backward = nets._im2col, nets.conv2d_backward

    def counted_im2col(xp, *args):
        unfolded.append(xp.shape)
        return im2col(xp, *args)

    def counted_backward(dy, xp, w, *args, **kwargs):
        result = conv_backward(dy, xp, w, *args, **kwargs)
        backward.append((w.shape, result[0] is None))
        return result

    monkeypatch.setattr(nets, "_im2col", counted_im2col)
    monkeypatch.setattr(nets, "conv2d_backward", counted_backward)
    segmenter.seg_loss_and_grad(model, X, M)
    c, h = arch.in_channels, arch.hidden_channels
    assert unfolded == [(8, c, 18, 18), (8, h, 18, 18)]
    # last layer first; only the first layer's input gradient is skipped
    assert backward == [((h, h, 3, 3), False), ((h, c, 3, 3), True)]


def load_layertrace():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_reads_the_conv_kernel_arguments():
    # the benchmark's tracer reads x, w, the padded input and the stride by
    # position, so the kernels' leading parameters must keep their places
    layertrace = load_layertrace()
    for layer in layertrace.LAYERS:
        importlib.import_module(f"langaug.{layer}")
    X, M = seg_batch()
    params = init_energy_params(EnergyArch(kind="conv", input_shape=(1, 16, 16), conv_blocks=2),
                                3)
    images = derive_stream(5, [("energy_batch", 0)]).standard_normal((15, 1, 16, 16))
    tracer = layertrace.LayerTracer()
    try:
        tracer.install()
        segmenter.seg_loss_and_grad(init_seg_model(SegArch(), 0), X, M)
        energy.energy_value_and_grad_input(params, images)
    finally:
        tracer.uninstall()
    assert {key: row["calls"] for key, row in tracer.census.items()} == {
        ("fwd", 1, 8, 1, 8, 16): 1, ("fwd", 1, 8, 8, 8, 16): 1,
        ("bwd", 1, 8, 1, 8, 16): 1, ("bwd", 1, 8, 8, 8, 16): 1,
        ("fwd", 2, 15, 1, 8, 16): 1, ("fwd", 2, 15, 8, 16, 8): 1,
        ("bwd", 2, 15, 1, 8, 16): 1, ("bwd", 2, 15, 8, 16, 8): 1,
    }
    assert tracer.counts["nets.conv2d_backward.s1.calls"] == 2
    assert tracer.counts["nets.conv2d_backward.s2.calls"] == 2
