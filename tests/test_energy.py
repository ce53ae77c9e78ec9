import numpy as np
import pytest

from langaug.energy import (EnergyArch, EnergyParams, energy_value_and_grad_input,
                            energy_value_and_grad_params, init_energy_params,
                            load_energy_params, save_energy_params)
from langaug.errors import ConfigError, DimensionError
from langaug.nets import swish_grad
from langaug.numerics import derive_stream
from finite_diff import finite_diff_grad, finite_diff_grad_subset, relative_error


def energy_of(params, x):
    """Energy of one input, through the batched entry point."""
    return energy_value_and_grad_input(params, x[None])[0][0]


def random_params(arch, seed, scale=0.4):
    base = init_energy_params(arch, seed)
    jitter = derive_stream(seed, [("jitter", 0)]).standard_normal(arch.param_count)
    return EnergyParams(arch, base.theta + scale * jitter)


def naive_conv(x, w, b, stride):
    # naive loop convolution, pad 1, over a batch (N, C, H, W); each
    # accumulator holds one output pixel of every sample
    n, c_in, h_in, w_in = x.shape
    c_out = w.shape[0]
    h_out = (h_in + 2 - 3) // stride + 1
    w_out = (w_in + 2 - 3) // stride + 1
    padded = np.zeros((n, c_in, h_in + 2, w_in + 2))
    padded[:, :, 1:1 + h_in, 1:1 + w_in] = x
    z = np.zeros((n, c_out, h_out, w_out))
    for o in range(c_out):
        for r in range(h_out):
            for c in range(w_out):
                acc = np.full(n, b[o])
                for ci in range(c_in):
                    for u in range(3):
                        for v in range(3):
                            acc += w[o, ci, u, v] * padded[:, ci, stride * r + u, stride * c + v]
                z[:, o, r, c] = acc
    return z


def straight_line_conv(theta, x, arch):
    # naive loop convolution with stride 2, pad 1, swish, dense head
    i = 0
    a = x
    for c_in, c_out in arch.block_channels():
        w = theta[i:i + c_out * c_in * 9].reshape(c_out, c_in, 3, 3); i += c_out * c_in * 9
        b = theta[i:i + c_out]; i += c_out
        z = naive_conv(a[None], w, b, stride=2)[0]
        a = z / (1.0 + np.exp(-z))
    flat = a.ravel()
    w_head = theta[i:i + flat.size]; i += flat.size
    return float(flat @ w_head + theta[i])


class TestForward:
    def test_zero_conv_is_zero(self):
        # a noise-only Langevin control runs the conv energy at theta = 0,
        # which must give E = 0 and grad_x E = 0 with no rounding residue
        arch = EnergyArch(kind="conv", input_shape=(1, 16, 16), conv_blocks=2)
        params = EnergyParams(arch, np.zeros(arch.param_count))
        batch = derive_stream(0, [("x", 0)]).standard_normal((5, 1, 16, 16))
        energies, dx = energy_value_and_grad_input(params, batch)
        assert np.all(energies == 0.0)
        assert dx.shape == batch.shape and np.all(dx == 0.0)

    def test_quadratic_value(self):
        arch = EnergyArch(kind="quadratic", input_shape=(1,))
        params = EnergyParams(arch, np.array([1.0]))
        assert energy_of(params, np.array([3.0])) == pytest.approx(2.0)

    def test_conv_matches_straight_line_reimplementation(self):
        arch = EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=2)
        params = random_params(arch, 4, scale=0.2)
        x = derive_stream(5, [("x", 0)]).standard_normal((1, 8, 8))
        assert energy_of(params, x) == pytest.approx(
            straight_line_conv(params.theta, x, arch), rel=1e-10)

    def test_shape_mismatch(self):
        arch = EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=1)
        params = init_energy_params(arch, 0)
        with pytest.raises(DimensionError):
            energy_value_and_grad_input(params, np.zeros((1, 1, 8, 9)))


class TestGradients:
    def test_quadratic_input_grad(self):
        arch = EnergyArch(kind="quadratic", input_shape=(1,))
        params = EnergyParams(arch, np.array([0.0]))
        assert energy_value_and_grad_input(params, np.array([[2.0]]))[1][0][0] == pytest.approx(2.0)

    def test_quadratic_param_grad(self):
        arch = EnergyArch(kind="quadratic", input_shape=(1,))
        params = EnergyParams(arch, np.array([1.0]))
        assert energy_value_and_grad_params(params, np.array([[3.0]]))[1][0] == pytest.approx(-2.0)

    def test_swish_derivative_at_zero(self):
        assert swish_grad(np.array([0.0]))[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("kind,shape,blocks", [
        ("conv", (1, 8, 8), 2),
        ("quadratic", (4,), 1),
        ("conv", (1, 8, 8), 1),
        ("conv", (1, 8, 8), 4),
    ])
    def test_input_grad_matches_finite_differences(self, kind, shape, blocks):
        arch = EnergyArch(kind=kind, input_shape=shape, conv_blocks=blocks)
        for trial in range(5):
            params = random_params(arch, 10 + trial)
            x = derive_stream(20 + trial, [("x", 0)]).standard_normal(shape)
            analytic = energy_value_and_grad_input(params, x[None])[1][0]
            fd = finite_diff_grad(lambda z: energy_of(params, z), x)
            assert relative_error(analytic, fd) < 1e-4

    @pytest.mark.parametrize("kind,shape,blocks", [
        ("conv", (3, 8, 8), 1),
        ("quadratic", (4,), 1),
        ("conv", (1, 8, 8), 2),
    ])
    def test_param_grad_matches_finite_differences(self, kind, shape, blocks):
        arch = EnergyArch(kind=kind, input_shape=shape, conv_blocks=blocks)
        for trial in range(5):
            params = random_params(arch, 30 + trial)
            x = derive_stream(40 + trial, [("x", 0)]).standard_normal(shape)
            analytic = energy_value_and_grad_params(params, x[None])[1]
            coords = derive_stream(50 + trial, [("c", 0)]).choice(
                arch.param_count, min(16, arch.param_count), replace=False)
            fd = finite_diff_grad_subset(
                lambda t: energy_of(EnergyParams(arch, t), x), params.theta, coords)
            assert relative_error(analytic[coords], fd) < 1e-4

    def test_batch_mean_grad_is_mean_of_per_sample_grads(self):
        arch = EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=2)
        params = random_params(arch, 1)
        batch = derive_stream(2, [("b", 0)]).standard_normal((7, 1, 8, 8))
        mean_grad = energy_value_and_grad_params(params, batch)[1]
        per_sample = np.mean([energy_value_and_grad_params(params, b[None])[1] for b in batch],
                             axis=0)
        assert np.allclose(mean_grad, per_sample, atol=1e-12)


class TestArch:
    @pytest.mark.parametrize("kind,shape,blocks", [
        ("quadratic", (3, 4, 4), 1),
        ("conv", (1, 16, 16), 1),
        ("conv", (3, 16, 16), 4),
        ("conv", (1, 16, 16), 7),
    ])
    def test_param_count_matches_vector(self, kind, shape, blocks):
        arch = EnergyArch(kind=kind, input_shape=shape, conv_blocks=blocks)
        params = init_energy_params(arch, 0)
        assert params.theta.shape == (arch.param_count,)

    def test_bad_kind(self):
        for kind in ("transformer", "mlp"):
            with pytest.raises(ConfigError):
                EnergyArch(kind=kind, input_shape=(4,))

    def test_conv_blocks_range(self):
        with pytest.raises(ConfigError):
            EnergyArch(kind="conv", input_shape=(1, 16, 16), conv_blocks=8)

    def test_deterministic_init(self):
        arch = EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=2)
        a = init_energy_params(arch, 123)
        b = init_energy_params(arch, 123)
        assert np.array_equal(a.theta, b.theta)

    def test_persistence_round_trip(self, tmp_path):
        arch = EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=2)
        params = random_params(arch, 6)
        save_energy_params(params, tmp_path / "model", pair=(1, 2))
        back, meta = load_energy_params(tmp_path / "model")
        assert np.array_equal(back.theta, params.theta)
        assert back.arch == arch
        assert meta["pair"] == {"source": 1, "target": 2}


def test_forward_batch_matches_single():
    arch = EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=2)
    params = random_params(arch, 9)
    batch = derive_stream(10, [("b", 0)]).standard_normal((4, 1, 8, 8))
    batched, _ = energy_value_and_grad_input(params, batch)
    singles = np.array([energy_of(params, b) for b in batch])
    assert np.allclose(batched, singles, atol=1e-12)
