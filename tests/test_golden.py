"""Recorded sha256 of every table and tensor from a tiny run of all subcommands.

Criterion 10 compares two runs of the same code; this test compares a run
against digests recorded from an earlier commit, so an unintended bit change
anywhere in the pipeline fails here. Other BLAS kernels may round
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

from langaug.cli import run

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


def recorded():
    runs = json.loads(DIGESTS.read_text())["runs"]
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = run_all(tmp)
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"runs": {}}
    data["about"] = ("sha256 of the outputs of tests/test_golden.py's tiny run, keyed by "
                     "numpy version and runtime OpenBLAS core")
    data["runs"][platform_key()] = table
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests for {platform_key()!r}", file=sys.stderr)
