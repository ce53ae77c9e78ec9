"""The dtype contract of the energy, sampler and trainer kernels.

Given float32 arrays they compute in float32 against a float32 copy of
theta; given float64 arrays they keep the float64 bits that
``test_golden.py::test_float64_kernels_match_recorded_digests`` pins. The
pipeline trains and samples in float32 and keeps theta in float64.
"""
from dataclasses import replace

import numpy as np
import pytest

from langaug.cdtrain import CdConfig, cd_gradient, ordered_pairs, train_all_pairs, train_ebm
from langaug.energy import (EBM_DTYPE, EnergyArch, EnergyParams, energy_value_and_grad_input,
                            energy_value_and_grad_params, init_energy_params)
from langaug.langevin import LangevinConfig, channel_replace_hook, langevin_step, run_chain_batch
from langaug.numerics import derive_stream
from langaug.pipeline import generate_augmented, load_augmented, pool_provenance, save_augmented
from langaug.synth import generate_benchmark

# largest |float32 - float64| / max |float64| over 80 conv cases (1-3 blocks,
# 1x16x16 and 2x8x8 inputs, N = 8, theta jittered by 0.3): energies 1.4e-6,
# input gradients 7.3e-7, parameter gradients 2.8e-7; the gate leaves 7x room
FLOAT32_TOLERANCE = 1e-5


def jittered(arch, seed):
    jitter = derive_stream(seed, [("jitter", 0)]).standard_normal(arch.param_count)
    return EnergyParams(arch, init_energy_params(arch, seed).theta + 0.3 * jitter)


def scaled_error(approx, exact):
    return float(np.max(np.abs(approx.astype(np.float64) - exact)) / np.max(np.abs(exact)))


@pytest.mark.parametrize("shape,blocks", [((1, 16, 16), 2), ((2, 8, 8), 1), ((1, 16, 16), 3)])
def test_float32_passes_agree_with_float64(shape, blocks):
    params = jittered(EnergyArch("conv", shape, conv_blocks=blocks), 4)
    x = derive_stream(4, [("x", 0)]).uniform(size=(8,) + shape)
    e64, dx64 = energy_value_and_grad_input(params, x)
    e32, dx32 = energy_value_and_grad_input(params, x.astype(np.float32))
    _, g64 = energy_value_and_grad_params(params, x)
    _, g32 = energy_value_and_grad_params(params, x.astype(np.float32))
    assert e32.dtype == dx32.dtype == g32.dtype == np.float32
    assert e64.dtype == dx64.dtype == g64.dtype == np.float64
    assert scaled_error(e32, e64) < FLOAT32_TOLERANCE
    assert scaled_error(dx32, dx64) < FLOAT32_TOLERANCE
    assert scaled_error(g32, g64) < FLOAT32_TOLERANCE


def test_theta_cast_and_split_once_per_params():
    params = jittered(EnergyArch("conv", (1, 8, 8), conv_blocks=1), 2)
    theta64, layers64 = params.view(np.float64)
    assert theta64 is params.theta and np.shares_memory(layers64[0][0], params.theta)
    theta32, layers32 = params.view(np.float32)
    assert params.view("float32")[0] is theta32 and params.view(np.float32)[1] is layers32
    assert theta32.dtype == np.float32 and layers32[0][0].dtype == np.float32
    assert theta32.tobytes() == params.theta.astype(np.float32).tobytes()
    assert params.theta.dtype == np.float64


def test_langevin_step_rounds_each_coefficient_once():
    stream = derive_stream(6, [("step", 0)])
    x, grad, noise = (stream.standard_normal(50).astype(np.float32) for _ in range(3))
    out = langevin_step(x, grad, 0.1, noise)
    want = x - np.float32(0.5 * 0.1**2) * grad + np.float32(0.1) * noise
    assert out.dtype == np.float32 and out.tobytes() == want.tobytes()


def test_float32_chain_and_cd_gradient_stay_float32():
    params = jittered(EnergyArch("conv", (2, 8, 8), conv_blocks=2), 3)
    x0 = derive_stream(3, [("x0", 0)]).uniform(size=(4, 2, 8, 8)).astype(np.float32)
    noise = derive_stream(3, [("noise", 0)]).standard_normal((5, 4, 2, 8, 8))
    config = LangevinConfig(step_size=0.1, n_steps=5, store_stride=2, store_offset=1,
                            channel_replace=0, clamp_unit=True)
    final, stored = run_chain_batch(x0, params, config, noise.astype(np.float32))
    assert final.dtype == np.float32
    assert all(v.dtype == np.float32 for v in stored.values())
    # the hook copies channel 0 of the start images into every iterate, bit for bit
    assert final[:, 0].tobytes() == x0[:, 0].tobytes()
    grad, surrogate = cd_gradient(params, x0, final)
    assert grad.dtype == np.float32 and isinstance(surrogate, float)


def test_channel_replace_keeps_float32():
    iterate = np.zeros((3, 2, 4, 4), dtype=np.float32)
    original = np.ones((3, 2, 4, 4), dtype=np.float32)
    out = channel_replace_hook(iterate, original, 1)
    assert out.dtype == np.float32
    assert np.all(out[:, 1] == 1.0) and np.all(out[:, 0] == 0.0)


@pytest.mark.parametrize("kind", ["conv", "quadratic"])
def test_float32_training_returns_float64_theta(kind):
    arch = EnergyArch(kind, (1, 8, 8), conv_blocks=1)
    src = derive_stream(8, [("src", 0)]).uniform(size=(6, 1, 8, 8)).astype(np.float32)
    tgt = derive_stream(8, [("tgt", 0)]).uniform(size=(6, 1, 8, 8)).astype(np.float32)
    config = CdConfig(n_iters=3, batch_size=2, ld=LangevinConfig(step_size=0.1, n_steps=3),
                      base_seed=8)
    params, trace = train_ebm(src, tgt, arch, config)
    assert params.theta.dtype == np.float64
    assert len(trace.cd_surrogate) == 3 and np.all(np.isfinite(trace.grad_norm))
    # train_all_pairs casts float64 samples to float32 itself; pair (0, 1) of
    # two domains trains from base seed 8 + 7919 * 1 + 1
    pairs = train_all_pairs([src.astype(np.float64), tgt.astype(np.float64)], arch, config)
    want, _ = train_ebm(src, tgt, arch, replace(config, base_seed=8 + 7919 + 1))
    assert pairs[(0, 1)].theta.tobytes() == want.theta.tobytes()


def test_pool_is_float32_on_disk_and_back(tmp_path):
    ds = generate_benchmark(3, 4, 8, seed=9, train_frac=0.5)
    arch = EnergyArch("conv", (1, 8, 8), conv_blocks=1)
    ebms = {pair: jittered(arch, 10 + k) for k, pair in enumerate(ordered_pairs(3))}
    config = LangevinConfig(step_size=0.05, n_steps=4, store_stride=2, store_offset=2)
    pool = generate_augmented(ds, ebms, config, base_seed=9)
    assert pool.images.dtype == EBM_DTYPE == np.float32
    assert pool.masks_at(np.arange(len(pool))).dtype == ds.masks[0].dtype == np.float64
    provenance = pool_provenance(ds, ebms, config, base_seed=9)
    assert provenance["dtype"] == "float32"
    empty = generate_augmented(ds, {}, config, base_seed=9, domains=[0])
    assert len(empty) == 0 and empty.images.dtype == np.float32
    save_augmented(pool, tmp_path / "aug", provenance)
    assert (tmp_path / "aug.images.ldtn").read_bytes()[5] == 0  # LDTN dtype byte: float32
    back = load_augmented(tmp_path / "aug", ds)
    assert back.images.dtype == np.float32
    assert back.images.tobytes() == pool.images.tobytes()
    assert back.masks_at(np.arange(len(back))).dtype == np.float64
