"""Recorded sha256 of every table and tensor from a tiny run of all subcommands,
and of the float64 energy, sampler and trainer outputs on fixed inputs.

Criterion 10 compares two runs of the same code; this test compares a run
against digests recorded from an earlier commit, so an unintended bit change
anywhere in the pipeline fails here. The pipeline trains and samples its
energy models in float32; the float64 table pins the bits that the gradient
checks and criteria 1-3 compute with. Other BLAS kernels may round
differently, so the digests are keyed by numpy version and the runtime
OpenBLAS core; on an unknown key the test skips and says why.

A change that moves bits on purpose records the new digests with
``PYTHONPATH=src python tests/test_golden.py`` and names every changed
file and the reason in CHANGES.md.
"""
import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from langaug.cdtrain import CdConfig, train_ebm
from langaug.cli import run
from langaug.energy import (EnergyArch, EnergyParams, energy_value_and_grad_input,
                            energy_value_and_grad_params, init_energy_params)
from langaug.langevin import LangevinConfig, langevin_step, run_chain_batch
from langaug.numerics import derive_stream

DIGESTS = Path(__file__).with_name("golden_digests.json")

PIPELINE = {
    "base_seed": 5,
    "data": {"n_domains": 3, "n_per_domain": 8, "image_size": 16, "train_frac": 0.5},
    "ebm": {"conv_blocks": 1, "cd": {"n_iters": 3, "batch_size": 2, "n_steps": 3}},
    "langevin": {"step_size": 0.05, "n_steps": 6, "store_stride": 2, "store_offset": 2},
    "segmenter": {"epochs": 2, "seeds": [0]},
    "sweep": {"axis": "samples_per_chain", "values": [1, 3], "folds": [1], "seeds": [0]},
}
STAGES = ("gen-data", "train-ebms", "augment", "train-seg", "eval-loo", "sweep", "project")
# the logistic scan takes the default probe radii and kappas; the gaussian
# one has a positive rho, so it also writes the Rademacher rows and the bound
THEORY = {
    "scan": {"base_seed": 11, "theory": {"family": "logistic", "k": 120, "n_mc": 512,
                                         "probe_count": 100, "theta": [1.0, -0.5]}},
    "bound": {"base_seed": 66, "theory": {"family": "gaussian", "k": 120, "n_mc": 512,
                                          "probe_count": 100, "theta": [1.0, 0.5],
                                          "probe_radii": [4.0, 4.5, 5.0],
                                          "ambient_dims": [2, 20]}},
}
# the manifest records absolute paths, the log times; each stage's resolved
# config holds neither, so its bytes are pinned with the tables
SKIP = {"manifest.json", "run.log"}


def blas_core():
    """Name of the OpenBLAS kernel set chosen at run time, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def platform_key():
    return f"numpy {np.__version__} / OpenBLAS {blas_core()}"


def digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).rglob("*")) if p.is_file() and p.name not in SKIP}


def run_all(root, jobs=1):
    """Run every subcommand into ``root``; returns {relative path: sha256}."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    configs = {"pipeline": PIPELINE, **{f"theory_{k}": v for k, v in THEORY.items()}}
    for name, config in configs.items():
        (root / f"{name}.json").write_text(json.dumps(config))
    for stage in STAGES:
        assert run(stage, root / "pipeline.json", root / "pipeline", jobs=jobs) == 0, stage
    for name in THEORY:
        assert run("verify-theory", root / f"theory_{name}.json", root / f"theory_{name}") == 0
    return {k: v for k, v in digests(root).items() if "/" in k}


def float64_kernels():
    """{name: sha256} of float64 energy passes, Langevin steps, a chain and two CD trainings."""
    def sha(*values):
        return hashlib.sha256(b"".join(np.asarray(v).tobytes() for v in values)).hexdigest()

    stream = lambda name: derive_stream(13, [(name, 0)])  # noqa: E731
    arch = EnergyArch("conv", (2, 8, 8), conv_blocks=2)
    conv = EnergyParams(arch, init_energy_params(arch, 13).theta
                        + 0.3 * stream("jitter").standard_normal(arch.param_count))
    quad = EnergyParams(EnergyArch("quadratic", (2, 8, 8)), stream("centre").uniform(size=128))
    x = stream("x").uniform(size=(5, 2, 8, 8))
    noise = stream("noise").standard_normal((6, 5, 2, 8, 8))
    ld = LangevinConfig(step_size=0.1, n_steps=6, store_stride=2, store_offset=2,
                        channel_replace=0, clamp_unit=True)
    table = {}
    for name, params in (("conv", conv), ("quadratic", quad)):
        e, dx = energy_value_and_grad_input(params, x)
        table[f"{name}.grad_input"] = sha(e, dx)
        table[f"{name}.grad_params"] = sha(*energy_value_and_grad_params(params, x))
        table[f"{name}.langevin_step"] = sha(langevin_step(x, dx, 0.1, noise[0]))
        final, stored = run_chain_batch(x, params, ld, noise)
        table[f"{name}.run_chain_batch"] = sha(final, *(stored[t] for t in sorted(stored)))
    cd = CdConfig(n_iters=3, batch_size=2, ld=LangevinConfig(step_size=0.1, n_steps=3),
                  base_seed=13)
    src, tgt = stream("src").uniform(size=(4, 2, 8, 8)), stream("tgt").uniform(size=(4, 2, 8, 8))
    for arch_ in (arch, quad.arch):
        params, trace = train_ebm(src, tgt, arch_, cd)
        table[f"{arch_.kind}.train_ebm"] = sha(params.theta, trace.cd_surrogate, trace.grad_norm)
    return table


def recorded(section="runs"):
    runs = json.loads(DIGESTS.read_text())[section]
    key = platform_key()
    if key not in runs:
        pytest.skip(f"no digests recorded for {key!r} (recorded: {sorted(runs)}); "
                    "other BLAS kernels may round differently")
    return runs[key]


@pytest.mark.parametrize("jobs", [1, 2])
def test_outputs_match_recorded_digests(tmp_path, jobs):
    expected = recorded()
    got = run_all(tmp_path, jobs=jobs)
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in expected if got[k] != expected[k])
    assert changed == [], f"outputs changed bits: {changed}"


def test_float64_kernels_match_recorded_digests():
    expected = recorded("float64_kernels")
    got = float64_kernels()
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in expected if got[k] != expected[k])
    assert changed == [], f"float64 outputs changed bits: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = run_all(tmp)
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"runs": {}}
    data["about"] = ("sha256 of the outputs of tests/test_golden.py's tiny run (runs) and of "
                     "its float64 kernel calls (float64_kernels), keyed by numpy version and "
                     "runtime OpenBLAS core")
    data["runs"][platform_key()] = table
    data.setdefault("float64_kernels", {})[platform_key()] = float64_kernels()
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests for {platform_key()!r}", file=sys.stderr)
