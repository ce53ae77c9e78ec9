import sys
from dataclasses import replace

import numpy as np
import pytest

from langaug.cdtrain import CdConfig, cd_gradient, ordered_pairs, train_all_pairs, train_ebm
from langaug import cdtrain, energy
from langaug.energy import (EnergyArch, EnergyParams, energy_value_and_grad_input,
                            init_energy_params)
from langaug.errors import ConfigError, NumericError
from langaug.langevin import LangevinConfig
from langaug.numerics import AdamHyper, derive_stream
from finite_diff import finite_diff_grad_subset, relative_error


def quad_arch():
    return EnergyArch(kind="quadratic", input_shape=(1,))


def small_conv_arch():
    return EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=1)


def domains(shape, dtype, n=3):
    return [(0.3 * d + derive_stream(d, [("d", 0)]).standard_normal((10,) + shape)).astype(dtype)
            for d in range(n)]


def stack_config():
    return CdConfig(n_iters=3, batch_size=4, ld=LangevinConfig(step_size=0.1, n_steps=4),
                    base_seed=5)


class TestCdGradient:
    def test_identical_batches_give_zero(self):
        params = init_energy_params(small_conv_arch(), 1)
        batch = derive_stream(2, [("b", 0)]).standard_normal((6, 1, 8, 8))
        grad, _ = cd_gradient(params, batch, batch)
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_linear_energy_gradient_is_mean_difference(self):
        # the quadratic family gives d/dtheta = -(x - theta), so the CD
        # gradient is mean(neg) - mean(pos)
        params = EnergyParams(quad_arch(), np.array([0.7]))
        pos = np.array([[1.0], [3.0]])
        neg = np.array([[0.0], [2.0], [4.0]])
        grad, _ = cd_gradient(params, pos, neg)
        assert grad[0] == pytest.approx(neg.mean() - pos.mean())

    def test_matches_finite_differences_of_surrogate(self):
        arch = small_conv_arch()
        base = init_energy_params(arch, 3)
        theta = base.theta + 0.3 * derive_stream(4, [("j", 0)]).standard_normal(arch.param_count)
        pos = derive_stream(5, [("p", 0)]).standard_normal((5, 1, 8, 8))
        neg = derive_stream(6, [("n", 0)]).standard_normal((8, 1, 8, 8))

        def surrogate(t):
            p = EnergyParams(arch, t)
            return float(np.mean(energy_value_and_grad_input(p, pos)[0])
                         - np.mean(energy_value_and_grad_input(p, neg)[0]))

        analytic, _ = cd_gradient(EnergyParams(arch, theta), pos, neg)
        coords = derive_stream(7, [("c", 0)]).choice(arch.param_count, 12, replace=False)
        fd = finite_diff_grad_subset(surrogate, theta, coords)
        assert relative_error(analytic[coords], fd) < 1e-4

    def test_concatenation_linearity(self):
        params = init_energy_params(small_conv_arch(), 8)
        a = derive_stream(9, [("a", 0)]).standard_normal((4, 1, 8, 8))
        b = derive_stream(10, [("b", 0)]).standard_normal((6, 1, 8, 8))
        neg = derive_stream(11, [("n", 0)]).standard_normal((5, 1, 8, 8))
        combined, _ = cd_gradient(params, np.concatenate([a, b]), neg)
        weighted = (4 * cd_gradient(params, a, neg)[0] + 6 * cd_gradient(params, b, neg)[0]) / 10
        assert np.allclose(combined, weighted, atol=1e-12)

    def test_empty_batch_rejected(self):
        params = EnergyParams(quad_arch(), np.zeros(1))
        with pytest.raises(ConfigError):
            cd_gradient(params, np.empty((0, 1)), np.zeros((2, 1)))


class TestTrainEbm:
    def test_zero_iters_returns_initialization(self):
        arch = small_conv_arch()
        config = CdConfig(n_iters=0, batch_size=2, ld=LangevinConfig(step_size=0.1, n_steps=5),
                          base_seed=17)
        data = derive_stream(0, [("d", 0)]).standard_normal((10, 1, 8, 8))
        params, trace = train_ebm(data, data, arch, config)
        assert np.array_equal(params.theta, init_energy_params(arch, 17).theta)
        assert trace.cd_surrogate == []

    @pytest.mark.parametrize("source_mean", [-2.0, 0.0, 2.0])
    def test_quadratic_recovery_of_target_mean(self, source_mean):
        src = source_mean + derive_stream(1, [("src", 0)]).standard_normal((2000, 1))
        tgt = 3.0 + derive_stream(1, [("tgt", 0)]).standard_normal((2000, 1))
        config = CdConfig(n_iters=900, batch_size=64,
                          ld=LangevinConfig(step_size=0.7, n_steps=40),
                          adam=AdamHyper(lr=0.02), base_seed=2)
        params, _ = train_ebm(src, tgt, quad_arch(), config)
        assert abs(params.theta[0] - 3.0) < 0.15

    def test_identical_domains_null_gradient(self, monkeypatch):
        data = derive_stream(3, [("d", 0)]).standard_normal((1500, 1))
        config = CdConfig(n_iters=400, batch_size=64,
                          ld=LangevinConfig(step_size=0.7, n_steps=40),
                          adam=AdamHyper(lr=0.01), base_seed=4)
        grad_means = []

        def recorded(*args):
            grad, surrogate = cd_gradient(*args)
            grad_means.append(float(np.mean(grad)))
            return grad, surrogate

        monkeypatch.setattr(cdtrain, "cd_gradient", recorded)
        params, _ = train_ebm(data, data, quad_arch(), config)
        # drift test: the signed gradient over the last 100 iterations has no
        # systematic component (within 10x the standard error of its mean)
        grads = np.array(grad_means[-100:])
        assert abs(np.mean(grads)) < 10 * np.std(grads, ddof=1) / np.sqrt(100)
        assert abs(params.theta[0] - data.mean()) < 0.2

    def test_reproducible_training(self):
        src = derive_stream(5, [("s", 0)]).standard_normal((50, 1))
        tgt = 1.0 + derive_stream(5, [("t", 0)]).standard_normal((50, 1))
        config = CdConfig(n_iters=30, batch_size=8,
                          ld=LangevinConfig(step_size=0.3, n_steps=10), base_seed=6)
        a, _ = train_ebm(src, tgt, quad_arch(), config)
        b, _ = train_ebm(src, tgt, quad_arch(), config)
        assert np.array_equal(a.theta, b.theta)

    def test_forward_passes_per_iteration_and_surrogate_bits(self, monkeypatch):
        arch = EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=2)
        src = derive_stream(7, [("s", 0)]).standard_normal((12, 1, 8, 8))
        tgt = 0.5 + derive_stream(7, [("t", 0)]).standard_normal((12, 1, 8, 8))
        config = CdConfig(n_iters=3, batch_size=4, ld=LangevinConfig(step_size=0.1, n_steps=5),
                          base_seed=8)
        calls = []
        forward = energy._forward_batch

        def counted(params, X):
            calls.append((params.theta.copy(), X.copy()))
            return forward(params, X)

        # wrap every langaug binding of the function, however it was imported
        for name, module in list(sys.modules.items()):
            if name == "langaug" or name.startswith("langaug."):
                for attr, obj in list(vars(module).items()):
                    if obj is forward:
                        monkeypatch.setattr(module, attr, counted)
        _, trace = train_ebm(src, tgt, arch, config)
        monkeypatch.undo()
        per_iter = config.ld.n_steps + 2
        assert len(calls) == config.n_iters * per_iter
        for it, surrogate in enumerate(trace.cd_surrogate):
            # each iteration: n_steps chain steps, then positives, then negatives
            theta, pos = calls[it * per_iter + config.ld.n_steps]
            theta_neg, neg = calls[it * per_iter + config.ld.n_steps + 1]
            assert np.array_equal(theta, theta_neg)
            assert all((tgt == row).all(axis=(1, 2, 3)).any() for row in pos)
            params = EnergyParams(arch, theta)
            assert surrogate == float(np.mean(energy_value_and_grad_input(params, pos)[0])
                                      - np.mean(energy_value_and_grad_input(params, neg)[0]))

    def test_batch_size_guard(self):
        config = CdConfig(n_iters=1, batch_size=64, ld=LangevinConfig(step_size=0.1, n_steps=2))
        small = np.zeros((4, 1))
        with pytest.raises(ConfigError):
            train_ebm(small, small, quad_arch(), config)

    def test_infinite_cd_surrogate_raises(self):
        # float32 energies near 1e38 are finite, but their batch mean overflows at iteration 1;
        # Adam must not train on through an infinite surrogate
        arch = small_conv_arch()
        source = derive_stream(0, [("d", 0)]).standard_normal((10, 1, 8, 8)).astype(np.float32)
        config = CdConfig(n_iters=3, batch_size=4)
        with pytest.raises(NumericError, match=r"^non-finite CD surrogate or gradient at "
                                               r"iteration 1$") as err, \
                np.errstate(over="ignore", invalid="ignore"):
            train_ebm(source, np.full_like(source, 1e38), arch, config)
        assert err.value.model == 0


class TestAllPairs:
    def test_pair_counts(self):
        assert len(ordered_pairs(4)) == 12
        assert ordered_pairs(2) == [(0, 1), (1, 0)]

    def test_two_domains(self):
        data = [derive_stream(d, [("d", 0)]).standard_normal((12, 1)) for d in range(2)]
        config = CdConfig(n_iters=5, batch_size=4, ld=LangevinConfig(step_size=0.2, n_steps=3),
                          base_seed=0)
        models = train_all_pairs(data, quad_arch(), config)
        assert set(models) == {(0, 1), (1, 0)}

    def test_three_domains_persisted_metadata(self, tmp_path):
        from langaug.energy import load_energy_params

        data = [derive_stream(d, [("d", 0)]).standard_normal((10, 1)) for d in range(3)]
        config = CdConfig(n_iters=3, batch_size=4, ld=LangevinConfig(step_size=0.2, n_steps=3),
                          base_seed=0)
        provenance = {"base_seed": 0, "cd": {"n_iters": 3}, "data": {"0": "ab"}}
        models = train_all_pairs(data, quad_arch(), config, out_dir=tmp_path,
                                 provenance=provenance)
        assert len(models) == 6
        for i, j in ordered_pairs(3):
            params, meta = load_energy_params(tmp_path / f"ebm_{i}_{j}")
            assert meta["pair"] == {"source": i, "target": j}
            assert meta["provenance"] == provenance
            assert np.array_equal(params.theta, models[(i, j)].theta)
            assert (tmp_path / f"trace_{i}_{j}.csv").exists()

    def test_single_domain_rejected(self):
        config = CdConfig(n_iters=1, batch_size=1, ld=LangevinConfig(step_size=0.1, n_steps=2))
        with pytest.raises(ConfigError):
            train_all_pairs([np.zeros((3, 1))], quad_arch(), config)


class TestStack:
    """The pairs that share a source domain train as one stack, each with its bits alone."""

    @pytest.mark.parametrize("arch, dtype", [(small_conv_arch(), np.float32),
                                             (small_conv_arch(), np.float64),
                                             (quad_arch(), np.float64)],
                             ids=["conv-float32", "conv-float64", "quadratic"])
    def test_stack_trains_each_pair_as_alone(self, arch, dtype):
        data = domains(arch.input_shape, dtype)
        config, seeds = stack_config(), [11, 12]
        stack = train_ebm(data[0], data[1:], arch, config, seeds=seeds)
        for target, seed, (params, trace) in zip(data[1:], seeds, stack):
            alone, alone_trace = train_ebm(data[0], target, arch, replace(config, base_seed=seed))
            assert params.theta.tobytes() == alone.theta.tobytes()
            # grad_norm is each pair's own np.linalg.norm, not a row-wise norm of the stack's
            assert trace.cd_surrogate == alone_trace.cd_surrogate
            assert trace.grad_norm == alone_trace.grad_norm

    def test_all_pairs_match_pairs_alone(self, tmp_path):
        arch, config = small_conv_arch(), stack_config()
        data = domains(arch.input_shape, np.float32)
        models = train_all_pairs(data, arch, config, out_dir=tmp_path)
        for i, j in ordered_pairs(3):
            seed = config.base_seed + 7919 * (i * 3 + j) + 1
            alone, trace = train_ebm(data[i], data[j], arch, replace(config, base_seed=seed))
            assert models[(i, j)].theta.tobytes() == alone.theta.tobytes()
            trace.write_csv(tmp_path / "alone.csv")
            assert ((tmp_path / "alone.csv").read_bytes()
                    == (tmp_path / f"trace_{i}_{j}.csv").read_bytes())

    def test_first_failing_pair_raises_what_it_raises_alone(self):
        # pair 1's infinite targets give a non-finite energy in its first CD pass, after pair 2
        # was refused for its short target; pair 1 comes first, so its error is raised
        arch, config = small_conv_arch(), stack_config()
        source, target, _ = domains(arch.input_shape, np.float32)
        targets = [target, np.full_like(target, np.inf), target[:2]]
        with pytest.raises(NumericError) as alone, np.errstate(invalid="ignore", over="ignore"):
            train_ebm(source, targets[1], arch, replace(config, base_seed=12))
        with pytest.raises(NumericError) as stacked, np.errstate(invalid="ignore", over="ignore"):
            train_ebm(source, targets, arch, config, seeds=[11, 12, 13])
        assert stacked.value.model == 1
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(ConfigError, match="batch_size exceeds") as short:
            train_ebm(source, [target, targets[2]], arch, config, seeds=[11, 13])
        assert short.value.model == 1

    def test_pair_with_infinite_cd_surrogate_leaves_the_stack(self, monkeypatch):
        # under seed 12, targets of 1e38 give an infinite surrogate at iteration 0: pair 1
        # leaves the stack, and pairs 0 and 2 train on with the bits they get alone
        arch, config = small_conv_arch(), stack_config()
        source, target, other = domains(arch.input_shape, np.float32)
        targets = [target, np.full_like(target, 1e38), other]
        steps = []
        original = cdtrain.adam_step

        def recorded(*args):
            theta, state = original(*args)
            steps.append(theta)
            return theta, state

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as alone:
                train_ebm(source, targets[1], arch, replace(config, base_seed=12))
            monkeypatch.setattr(cdtrain, "adam_step", recorded)
            with pytest.raises(NumericError) as stacked:
                train_ebm(source, targets, arch, config, seeds=[11, 12, 13])
        assert str(alone.value) == "non-finite CD surrogate or gradient at iteration 0"
        assert stacked.value.model == 1 and str(stacked.value) == str(alone.value)
        assert len(steps) == config.n_iters and steps[-1].shape[0] == 2
        monkeypatch.undo()
        for row, (target, seed) in zip(steps[-1], [(targets[0], 11), (targets[2], 13)]):
            params, _ = train_ebm(source, target, arch, replace(config, base_seed=seed))
            assert row.tobytes() == params.theta.tobytes()

    def test_error_naming_no_pair_fails_the_stack(self):
        # a chain setting no pair can run (channel_replace on 1-channel data) fails every pair
        # of the stack, and pair order puts (0, 1) first
        config = replace(stack_config(), ld=LangevinConfig(step_size=0.1, n_steps=4,
                                                           channel_replace=0))
        with pytest.raises(ConfigError, match=r"^pair \(0, 1\): channel_replace index 0 "):
            train_all_pairs(domains((1, 8, 8), np.float32), small_conv_arch(), config)
