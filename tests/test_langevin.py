import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langaug.energy import (EnergyArch, EnergyParams, energy_value_and_grad_input,
                            init_energy_params)
from langaug.errors import ConfigError, DimensionError, DivergenceError
from langaug.langevin import LangevinConfig, channel_replace_hook, langevin_step, run_chain_batch
from langaug.numerics import derive_stream


def quadratic_params(mu):
    mu = np.asarray(mu, dtype=np.float64)
    arch = EnergyArch(kind="quadratic", input_shape=mu.shape)
    return EnergyParams(arch, mu.copy())


def run_one(x0, params, config, rng):
    """One chain through the batched runner, its noise drawn from ``rng``.

    Returns the stored iterates as a (steps, ...) stack and the stored steps.
    """
    noise = rng.standard_normal((config.n_steps, 1) + np.shape(x0))
    _, stored = run_chain_batch(np.asarray(x0)[None], params, config, noise)
    steps = sorted(stored)
    return np.stack([stored[t][0] for t in steps]), steps


def stepwise_chain(x0, params, config, rng):
    """Per-chain reference: one langevin_step per step, noise drawn step by step."""
    keep = set(config.stored_steps())
    x = np.asarray(x0, dtype=np.float64).copy()
    stored = {}
    for t in range(1, config.n_steps + 1):
        noise = rng.standard_normal(x.shape)
        _, grad = energy_value_and_grad_input(params, x[None, ...])
        x = langevin_step(x, grad[0], config.step_size, noise)
        if t in keep:
            stored[t] = x.copy()
    return stored


class TestStep:
    def test_zero_step_size(self):
        x = np.array([1.0, 2.0])
        out = langevin_step(x, np.array([5.0, -1.0]), 0.0, np.array([3.0, 3.0]))
        assert np.array_equal(out, x)

    def test_zero_grad_zero_noise(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(langevin_step(x, np.zeros(2), 0.3, np.zeros(2)), x)

    def test_arithmetic(self):
        out = langevin_step(np.array([1.0]), np.array([2.0]), 0.1, np.array([0.0]))
        assert out[0] == pytest.approx(0.99)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0, 2), st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_update_formula(self, x, g, step, eps):
        out = langevin_step(np.array([x]), np.array([g]), step, np.array([eps]))
        assert out[0] == pytest.approx(x - 0.5 * step * step * g + step * eps, rel=1e-12, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            langevin_step(np.zeros(2), np.zeros(3), 0.1, np.zeros(2))


class TestChain:
    def test_stored_count_matches_stride_arithmetic(self):
        config = LangevinConfig(step_size=0.05, n_steps=40, store_stride=3, store_offset=3)
        assert config.stored_steps() == [3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39]
        params = quadratic_params([0.0, 0.0])
        its, steps = run_one(np.zeros(2), params, config, derive_stream(0, [("c", 0)]))
        assert steps == config.stored_steps()
        assert len(its) == 13

    def test_zero_steps_keeps_x0(self):
        config = LangevinConfig(step_size=0.1, n_steps=0)
        params = quadratic_params([1.0])
        x0 = np.array([[2.0]])
        final, stored = run_chain_batch(x0, params, config, np.empty((0, 1, 1)))
        assert stored == {}
        assert np.array_equal(final, np.array([[2.0]]))
        assert np.array_equal(x0, np.array([[2.0]]))

    def test_single_chain_stationary_mean(self):
        # One chain's 10^4 post-burn-in iterates have an autocorrelation
        # time of ~1600 steps at this step size, so the mean carries an MC
        # stderr of ~0.4 per coordinate; the bound below is the analytic
        # 3 sigma for that ESS. The pooled 64-chain acceptance run enforces
        # the tight stationarity contract.
        mu = np.array([1.0, -1.0])
        beta = 0.05
        config = LangevinConfig(step_size=beta, n_steps=20000, store_stride=1, store_offset=10001)
        its, _ = run_one(np.zeros(2), quadratic_params(mu), config,
                         derive_stream(7, [("chain", 0)]))
        mean = its.mean(axis=0)
        a = 1.0 - beta**2 / 2.0
        var_analytic = 1.0 / (1.0 - beta**2 / 4.0)
        sigma_mean = np.sqrt(var_analytic * (1 + a) / (1 - a) / its.shape[0])
        assert np.all(np.abs(mean - mu) < 3 * sigma_mean)
        # the chain has clearly moved from the origin start to the mode
        assert np.linalg.norm(mean - mu) < np.linalg.norm(mean)

    def test_chains_deterministic_and_order_independent(self):
        params = quadratic_params([0.5])
        config = LangevinConfig(step_size=0.1, n_steps=50, store_stride=5, store_offset=5)
        first, _ = run_one(np.zeros(1), params, config, derive_stream(3, [("chain", 4)]))
        run_one(np.zeros(1), params, config, derive_stream(3, [("chain", 9)]))
        again, _ = run_one(np.zeros(1), params, config, derive_stream(3, [("chain", 4)]))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_batch_matches_per_chain(self):
        params = quadratic_params([0.3, -0.2])
        config = LangevinConfig(step_size=0.1, n_steps=12, store_stride=4, store_offset=4)
        x0 = derive_stream(1, [("x0", 0)]).standard_normal((5, 2))
        noise = np.stack([
            derive_stream(2, [("chain", c)]).standard_normal((config.n_steps, 2))
            for c in range(5)
        ], axis=1)
        _, stored = run_chain_batch(x0, params, config, noise)
        for c in range(5):
            reference = stepwise_chain(x0[c], params, config, derive_stream(2, [("chain", c)]))
            for t, xt in reference.items():
                assert np.array_equal(stored[t][c], xt)

    def test_divergence_reported_with_step(self):
        arch = EnergyArch(kind="quadratic", input_shape=(1,))
        params = EnergyParams(arch, np.array([0.0]))
        config = LangevinConfig(step_size=1e160, n_steps=10)
        with pytest.raises(DivergenceError) as err:
            run_one(np.array([1.0]), params, config, derive_stream(0, [("c", 0)]))
        assert err.value.step is not None

    def test_stack_divergence_names_the_model_and_its_chains(self):
        # two conv models stacked, 3 chains each; the second's head scaled by 1e30 sends its
        # chains past the float64 range at step 1 while the first's stay finite
        arch = EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=1)
        theta = np.stack([init_energy_params(arch, seed).theta for seed in (1, 2)])
        head = math.prod(arch.shapes()[-1][0]) + 1
        theta[1, -head:] *= 1e30
        config = LangevinConfig(step_size=1e150, n_steps=1)
        x0 = derive_stream(3, [("x0", 0)]).uniform(size=(6, 1, 8, 8))
        noise = derive_stream(4, [("noise", 0)]).standard_normal((1, 6, 1, 8, 8))
        run_chain_batch(x0[:3], EnergyParams(arch, theta[0]), config, noise[:, :3])
        with pytest.raises(DivergenceError) as alone, np.errstate(over="ignore"):
            run_chain_batch(x0[3:], EnergyParams(arch, theta[1]), config, noise[:, 3:])
        with pytest.raises(DivergenceError) as stacked, np.errstate(over="ignore"):
            run_chain_batch(x0, EnergyParams(arch, theta), config, noise)
        assert (stacked.value.model, stacked.value.step, stacked.value.chains) == (1, 1, [0, 1, 2])
        assert str(stacked.value) == str(alone.value) == (
            "batched chain diverged at step 1 (chains [0, 1, 2])")

    def test_stationary_distribution_pooled(self):
        # 16 chains x 4000 steps against the exact discrete-time law; the
        # mean tolerance is self-calibrated from the chain-mean spread
        mu = np.array([2.0])
        beta = 0.3
        config = LangevinConfig(step_size=beta, n_steps=4000, store_stride=1, store_offset=2001)
        # all 16 chains in one batch, each with its own stream's noise
        noise = np.stack([derive_stream(31, [("chain", c)]).standard_normal((config.n_steps, 1))
                          for c in range(16)], axis=1)
        _, stored = run_chain_batch(np.full((16, 1), 2.0), quadratic_params(mu), config, noise)
        its = np.stack([stored[t] for t in sorted(stored)])   # (steps, 16, 1)
        chains = [its[:, c].ravel() for c in range(16)]
        chain_means = np.array([c.mean() for c in chains])
        pooled = np.concatenate(chains)
        stderr = chain_means.std(ddof=1) / np.sqrt(16)
        var_analytic = 1.0 / (1.0 - beta**2 / 4.0)
        assert abs(pooled.mean() - 2.0) < 3 * stderr
        assert abs(pooled.var() / var_analytic - 1.0) < 0.1


class TestHook:
    def test_idempotent(self):
        it = derive_stream(0, [("a", 0)]).standard_normal((3, 4, 4))
        orig = derive_stream(1, [("b", 0)]).standard_normal((3, 4, 4))
        once = channel_replace_hook(it, orig, 1)
        twice = channel_replace_hook(once, orig, 1)
        assert np.array_equal(once, twice)

    def test_channel_contents(self):
        it = derive_stream(2, [("a", 0)]).standard_normal((3, 4, 4))
        orig = derive_stream(3, [("b", 0)]).standard_normal((3, 4, 4))
        out = channel_replace_hook(it, orig, 2)
        assert np.array_equal(out[2], orig[2])
        assert np.array_equal(out[:2], it[:2])

    def test_single_channel_rejected(self):
        # on one channel every iterate would become the original: a pool of
        # copies of the sources, so the hook refuses
        it = derive_stream(4, [("a", 0)]).standard_normal((1, 4, 4))
        orig = derive_stream(5, [("b", 0)]).standard_normal((1, 4, 4))
        with pytest.raises(ConfigError, match="C = 1"):
            channel_replace_hook(it, orig, 0)

    @pytest.mark.parametrize("index", [0.0, True, "0"])
    def test_index_must_be_an_int(self, index):
        x = np.zeros((2, 4, 4))
        with pytest.raises(ConfigError, match="channel_replace"):
            channel_replace_hook(x, x, index)

    def test_out_of_range_channel(self):
        x = np.zeros((2, 4, 4))
        with pytest.raises(ConfigError):
            channel_replace_hook(x, x, 5)

    def test_hook_applied_inside_chain(self):
        arch = EnergyArch(kind="quadratic", input_shape=(2, 4, 4))
        params = EnergyParams(arch, np.zeros(arch.input_dim))
        config = LangevinConfig(step_size=0.2, n_steps=6, store_stride=1, store_offset=1,
                                channel_replace=0)
        x0 = derive_stream(6, [("x", 0)]).standard_normal((2, 4, 4))
        its, _ = run_one(x0, params, config, derive_stream(7, [("c", 0)]))
        for xt in its:
            assert np.array_equal(xt[0], x0[0])
            assert not np.array_equal(xt[1], x0[1])


def test_config_validation():
    with pytest.raises(ConfigError):
        LangevinConfig(step_size=-0.1)
    with pytest.raises(ConfigError):
        LangevinConfig(store_stride=0)
