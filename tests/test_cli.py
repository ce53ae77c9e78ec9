import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from langaug.cli import DEFAULT_CONFIG, load_config, main, pca_project, run
from langaug.errors import ConfigError
from langaug.ldtn import read_tensor, write_tensor
from langaug import cli, pipeline, segmenter
from langaug.numerics import derive_stream

THEORY_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

def write_config(path, **overrides):
    config = {
        "base_seed": 5,
        "data": {"n_domains": 3, "n_per_domain": 6, "image_size": 16, "train_frac": 0.5},
        "ebm": {"conv_blocks": 1, "cd": {"n_iters": 3, "batch_size": 2, "n_steps": 3}},
        "langevin": {"step_size": 0.05, "n_steps": 6, "store_stride": 2, "store_offset": 2},
        "segmenter": {"epochs": 1, "seeds": [0]},
    }
    for key, value in overrides.items():
        config[key] = value
    Path(path).write_text(json.dumps(config))
    return path


class TestConfig:
    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 1, "data": {"n_domans": 4}}))
        with pytest.raises(ConfigError, match="data.n_domans"):
            load_config(path)

    def test_missing_base_seed(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"data": {}}))
        with pytest.raises(ConfigError, match="base_seed"):
            load_config(path)

    def test_defaults_filled(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 1}))
        config = load_config(path)
        assert config["langevin"]["n_steps"] == DEFAULT_CONFIG["langevin"]["n_steps"]
        assert config["theory"]["betas"] == [0.02, 0.04, 0.08, 0.16]

    def test_seed_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 1}))
        assert load_config(path, seed_override=42)["base_seed"] == 42

    def test_invalid_beta_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 1, "theory": {"betas": [0.0, 0.1, 0.2, 0.4]}}))
        with pytest.raises(ConfigError, match="positive"):
            load_config(path)

    @pytest.mark.parametrize("content,text", [(b"not json {", "not valid JSON"),
                                              (b'{"base_seed": "\xff"}', "is not UTF-8")],
                             ids=["not-json", "not-utf8"])
    def test_non_json_config(self, tmp_path, capsys, content, text):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=text):
            load_config(path)
        assert run("gen-data", path, tmp_path / "out") == 2
        assert text in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 1, "nope": 2}))
        assert run("gen-data", path, tmp_path / "out") == 2

    def test_beta_zero_scan_exit_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 1, "theory": {"betas": [0, 0.1, 0.2, 0.4]}}))
        assert run("verify-theory", path, tmp_path / "out") == 2

    def test_repeated_beta_scan_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 11,
                                    "theory": {"betas": [0.02, 0.04, 0.04, 0.08, 0.16]}}))
        assert run("verify-theory", path, tmp_path / "out") == 2
        assert "distinct" in capsys.readouterr().err

    def test_poisson_rho_probe_overflow_exit_4(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 11, "theory": {
            "family": "poisson", "k": 200, "sigma_scale": 0.49, "probe_radii": [0.5, 400.0]}}))
        assert run("verify-theory", path, tmp_path / "out") == 4
        assert "overflow guard" in capsys.readouterr().err

    def test_missing_upstream_exit_3(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        assert run("train-ebms", config, tmp_path / "out") == 3

    @pytest.mark.parametrize("train_frac", [-0.2, 1.5])
    def test_train_frac_outside_unit_interval_exit_2(self, tmp_path, capsys, train_frac):
        # unchecked, -0.2 slices the shuffled order from its end: an 8/2 split of 10
        config = write_config(tmp_path / "c.json", data={"n_domains": 3, "n_per_domain": 10,
                                                         "train_frac": train_frac})
        assert run("gen-data", config, tmp_path / "out") == 2
        assert "data.train_frac" in capsys.readouterr().err
        assert not (tmp_path / "out" / "dataset").exists()

    def test_train_seg_without_test_images_exit_2(self, tmp_path, capsys):
        # a header-only table before; eval-loo scores whole held-out domains,
        # so train_frac 1.0 stays valid there
        config = write_config(tmp_path / "c.json", data={"n_domains": 3, "n_per_domain": 6,
                                                         "train_frac": 1.0})
        out = tmp_path / "out"
        assert run("gen-data", config, out) == 0
        assert run("train-seg", config, out) == 2
        assert "data.train_frac" in capsys.readouterr().err
        assert not (out / "seg" / "results.csv").exists()
        assert run("train-ebms", config, out) == 0
        assert run("eval-loo", config, out) == 0

    def test_non_positive_sigma_scale_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 1, "theory": {"sigma_scale": 0.0}}))
        assert run("verify-theory", path, tmp_path / "out") == 2
        assert "theory.sigma_scale" in capsys.readouterr().err

    def test_theta_of_wrong_length_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 1, "theory": {"dim": 3, "theta": [1.0, 0.5]}}))
        assert run("verify-theory", path, tmp_path / "out") == 2
        assert "theory.theta" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_mc", "max_mc", "k"])
    def test_empty_scan_exit_2(self, tmp_path, capsys, key):
        # n_mc or max_mc 0 divided by a zero draw count; k 0 blamed the rho probes
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"base_seed": 1, "theory": {key: 0}}))
        assert run("verify-theory", path, tmp_path / "out") == 2
        assert f"{key} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["theory.json", "theory_bound.json"])
    @pytest.mark.parametrize("key,value", [("rad_n_mc", 0), ("ambient_dims", []),
                                           ("delta", 1.5)])
    def test_bound_keys_checked_whatever_rho(self, tmp_path, capsys, name, key, value):
        # the bound branch reads these keys only when rho_hat > 0, which
        # holds for theory_bound.json and not for theory.json
        config = json.loads((THEORY_CONFIGS / name).read_text())
        config["theory"][key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert run("verify-theory", path, tmp_path / "out") == 2
        assert f"theory.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["eval-loo", "train-seg"])
    def test_empty_segmenter_seeds_exit_2(self, tmp_path, capsys, subcommand):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run("gen-data", config, out) == 0
        write_config(config, segmenter={"epochs": 1, "seeds": []})
        assert run(subcommand, config, out) == 2
        assert "segmenter.seeds" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["dataset"]

    def test_repeated_segmenter_seed_exit_2(self, tmp_path, capsys):
        # a repeated seed wrote each of its loo/results.csv rows twice
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run("gen-data", config, out) == 0
        assert run("train-ebms", config, out) == 0
        write_config(config, segmenter={"epochs": 1, "seeds": [0, 0]})
        assert run("eval-loo", config, out) == 2
        assert "segmenter.seeds must not repeat an entry" in capsys.readouterr().err
        assert not (out / "loo").exists()

    @pytest.mark.parametrize("make", [lambda path: None, Path.mkdir], ids=["absent", "directory"])
    def test_missing_config_exit_3(self, tmp_path, capsys, make):
        config = tmp_path / "c.json"
        make(config)
        assert run("gen-data", config, tmp_path / "out") == 3
        assert str(config) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["file", "file/under"])
    def test_out_not_a_directory_exit_2(self, tmp_path, capsys, out):
        config = write_config(tmp_path / "c.json")
        (tmp_path / "file").write_text("mine")
        assert run("gen-data", config, tmp_path / out) == 2
        assert f"--out {tmp_path / out} must name a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "file"]
        assert (tmp_path / "file").read_text() == "mine"

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        # a worker count below 1 is refused, not read as 1
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run("gen-data", config, out, jobs=jobs) == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert main(["gen-data", "--config", str(config), "--out", str(out),
                     "--jobs", str(jobs)]) == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["truncate", "magic", "short"])
    def test_damaged_pair_model_exit_3(self, tmp_path, capsys, damage):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run("gen-data", config, out) == 0
        assert run("train-ebms", config, out) == 0
        model = out / "ebms" / "ebm_0_1.ldtn"
        blob = model.read_bytes()
        if damage == "short":  # a well-formed tensor one entry shorter than the arch needs
            write_tensor(model, read_tensor(model)[:-1])
        else:
            model.write_bytes(blob[:-8] if damage == "truncate" else b"XXXX" + blob[4:])
        assert run("augment", config, out) == 3
        err = capsys.readouterr().err
        assert "unusable artifact" in err and str(model) in err

    def test_models_of_other_image_size_exit_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        small = write_config(tmp_path / "small.json", data={"n_domains": 3, "n_per_domain": 6,
                                                            "image_size": 8, "train_frac": 0.5})
        assert run("gen-data", small, out) == 0
        assert run("train-ebms", small, out) == 0
        config = write_config(tmp_path / "c.json")
        assert run("gen-data", config, out) == 0
        assert run("augment", config, out) == 3
        assert (f"{out / 'ebms' / 'ebm_0_1.meta.json'}: arch.input_shape is [1, 8, 8], this "
                "run's is [1, 16, 16]; rerun train-ebms") in capsys.readouterr().err

    def test_models_of_other_conv_blocks_exit_3(self, out_dir, tmp_path, capsys):
        # models trained at conv_blocks 1 once sampled silently under a config asking for 2
        out = tmp_path / "o"
        for name in ("dataset", "ebms"):
            shutil.copytree(out_dir / name, out / name)
        config = write_config(tmp_path / "c.json", ebm={"conv_blocks": 2})
        for subcommand in ("augment", "eval-loo"):
            assert run(subcommand, config, out) == 3
            err = capsys.readouterr().err
            assert (f"{out / 'ebms' / 'ebm_0_1.meta.json'}: arch.conv_blocks is 1, this run's "
                    "is 2; rerun train-ebms") in err
        assert not (out / "aug" / "augmented.meta.json").exists()
        assert not (out / "loo" / "results.csv").exists()

    def test_non_finite_energy_exit_4(self, tmp_path, capsys):
        # blown-up pair models overflow the energy itself, a NumericError that
        # is not a per-chain DivergenceError; the sidecars keep their provenance
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert run("gen-data", config, out) == 0
        assert run("train-ebms", config, out) == 0
        for path in (out / "ebms").glob("ebm_*.ldtn"):
            edit_tensor(lambda theta: theta * 1e100)(path)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("augment", config, out) == 4
        assert "non-finite energy" in capsys.readouterr().err

    def test_pair_with_every_chain_diverged_exit_4(self, tmp_path, capsys):
        # a step of 1e200 sends every iterate past the float range at step 1,
        # before the energy overflows; an empty pool used to exit 0
        data = {"n_domains": 3, "n_per_domain": 8, "image_size": 16, "train_frac": 0.5}
        config = write_config(tmp_path / "c.json", data=data, langevin={
            "step_size": 1e200, "n_steps": 6, "store_stride": 2, "store_offset": 2})
        out = tmp_path / "out"
        assert run("gen-data", config, out) == 0
        assert run("train-ebms", config, out) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("augment", config, out) == 4
        err = capsys.readouterr().err
        assert "pair (0, 1): all 4 chains diverged" in err and "step 1" in err
        assert not (out / "aug" / "augmented.meta.json").exists()

    def test_cd_chain_diverged_exit_4(self, tmp_path, capsys):
        # a CD step of 1e200 sends pair (0, 1)'s training chains past the float range at
        # step 1 of iteration 0; the message counts chains within that pair's batch
        cd = {"n_iters": 3, "batch_size": 2, "n_steps": 3, "step_size": 1e200}
        config = write_config(tmp_path / "c.json", ebm={"conv_blocks": 1, "cd": cd})
        out = tmp_path / "out"
        assert run("gen-data", config, out) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("train-ebms", config, out) == 4
        assert ("pair (0, 1): training chain diverged at iteration 0: batched chain diverged "
                "at step 1 (chains [0, 1])") in capsys.readouterr().err
        assert not list((out / "ebms").glob("ebm_*"))

    def test_sizes_beyond_memory_exit_2(self, tmp_path, capsys):
        # a (10**14, 2) float64 rotation lies beyond the 47-bit address space, so its
        # allocation fails without touching memory; past the 64-bit byte count numpy raises
        # ValueError("array is too big") instead of MemoryError
        theory = json.loads((THEORY_CONFIGS / "theory_bound.json").read_text())
        cases = [("verify-theory", "theory", "ambient_dims", [2, 10**14]),
                 *[("verify-theory", "theory", key, 10**18)
                   for key in ("k", "probe_count", "rad_n_mc")],
                 ("gen-data", "data", "n_per_domain", 10**18),
                 ("gen-data", "data", "image_size", 10**10)]
        for subcommand, section, key, value in cases:
            config = json.loads(json.dumps(theory))
            config.setdefault(section, {})[key] = value
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            assert run(subcommand, path, tmp_path / "out") == 2, key
            assert "need more memory than is available" in capsys.readouterr().err


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    config = write_config(out / "c.json")
    assert run("gen-data", config, out) == 0
    assert run("train-ebms", config, out) == 0
    assert run("augment", config, out) == 0
    return out


class TestPipelineStages:

    def test_artifacts_exist(self, out_dir):
        assert (out_dir / "dataset" / "benchmark.meta.json").exists()
        assert (out_dir / "ebms" / "ebm_0_1.ldtn").exists()
        assert (out_dir / "ebms" / "trace_2_1.csv").exists()
        assert (out_dir / "aug" / "augmented.meta.json").exists()

    def test_pool_stores_images_and_tags_only(self, out_dir):
        # an entry's mask is its origin sample's, which the pool looks up in the dataset
        assert sorted(p.name for p in (out_dir / "aug").glob("augmented.*")) == [
            "augmented.images.ldtn", "augmented.meta.json", "augmented.tags.ldtn"]

    def test_stage_provenance(self, out_dir):
        manifest = json.loads((out_dir / "aug" / "manifest.json").read_text())
        assert any("benchmark.meta.json" in k for k in manifest["inputs"])
        resolved = json.loads((out_dir / "aug" / "config.resolved.json").read_text())
        assert resolved["base_seed"] == 5
        assert (out_dir / "aug" / "run.log").exists()

    def test_trace_header(self, out_dir):
        first = (out_dir / "ebms" / "trace_0_1.csv").read_text().splitlines()[0]
        assert first == "iter,cd_surrogate,grad_norm"

    def test_train_seg_and_eval(self, out_dir):
        config = out_dir / "c.json"
        assert run("train-seg", config, out_dir) == 0
        lines = (out_dir / "seg" / "results.csv").read_text().splitlines()
        assert lines[0] == "fold,method,seed,mean_dice,mean_iou"
        assert run("eval-loo", config, out_dir) == 0
        loo = (out_dir / "loo" / "results.csv").read_text().splitlines()
        assert len(loo) == 1 + 3 * 2  # 3 folds x {erm, erm+langaug} x 1 seed

    def test_project_outputs_coords(self, out_dir):
        config = out_dir / "c.json"
        assert run("project", config, out_dir) == 0
        lines = (out_dir / "project" / "coords.csv").read_text().splitlines()
        assert lines[0] == "kind,domain,target,step,pc1,pc2"
        assert (out_dir / "project" / "centroids.json").exists()

    def test_rerun_byte_identical(self, out_dir, tmp_path):
        config = out_dir / "c.json"
        other = tmp_path / "again"
        assert run("gen-data", config, other) == 0
        a = (out_dir / "dataset" / "benchmark.d0.images.ldtn").read_bytes()
        b = (other / "dataset" / "benchmark.d0.images.ldtn").read_bytes()
        assert a == b

    def test_jobs_flag_gives_identical_models(self, out_dir, tmp_path, monkeypatch):
        # every stage runs in one process: --jobs starts no thread and changes no bit
        config = write_config(tmp_path / "c.json", sweep={"axis": "n_steps", "values": [6],
                                                          "folds": [0], "seeds": [0]})
        parallel = tmp_path / "par"
        assert run("gen-data", config, parallel) == 0

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert run("train-ebms", config, parallel, jobs=4) == 0
        assert run("sweep", config, parallel, jobs=4) == 0
        monkeypatch.undo()

        def models(root):
            return {path.name: path.read_bytes() for path in (root / "ebms").glob("*.ldtn")}

        assert len(models(out_dir)) == 3 * 2 and models(parallel) == models(out_dir)


class TestTheoryCommand:
    def test_verify_theory_outputs(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "base_seed": 11,
            "theory": {"family": "gaussian", "k": 120, "n_mc": 512,
                       "probe_count": 100, "ambient_dims": [2, 20]},
        }))
        assert run("verify-theory", config, tmp_path) == 0
        lines = (tmp_path / "theory" / "report.csv").read_text().splitlines()
        assert lines[0] == "beta,l_std,l_aug,mc_stderr,R1,R2,R3,R_glm,rem_gen,rem_glm"
        assert len(lines) == 5
        summary = json.loads((tmp_path / "theory" / "summary.json").read_text())
        assert summary["slope"] > 2.0
        assert summary["status"] == "ok"


class TestSweep:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "exp"
        out.mkdir()
        config = write_config(out / "c.json", sweep={
            "axis": "n_steps", "values": [4, 8], "folds": [0], "seeds": [0],
        })
        assert run("gen-data", config, out) == 0
        assert run("sweep", config, out) == 0
        lines = (out / "sweep" / "results.csv").read_text().splitlines()
        assert lines[0].startswith("axis,value")
        assert len(lines) == 3

    def test_two_domains_rejected(self, tmp_path, monkeypatch):
        config = write_config(tmp_path / "c.json",
                              data={"n_domains": 2, "n_per_domain": 4, "image_size": 8,
                                    "train_frac": 0.5},
                              ebm={"conv_blocks": 1, "cd": {"n_iters": 1, "batch_size": 2,
                                                            "n_steps": 2}},
                              sweep={"axis": "n_steps", "values": [2], "seeds": [0]})
        assert run("gen-data", config, tmp_path) == 0
        trained = []
        monkeypatch.setattr(cli, "train_all_pairs", lambda *a, **k: trained.append(1))
        assert run("sweep", config, tmp_path) == 2
        assert trained == []  # rejected before any pair model is trained
        assert not (tmp_path / "sweep" / "results.csv").exists()

    def test_bad_axis_rejected(self, tmp_path):
        config = write_config(tmp_path / "c.json", sweep={"axis": "warp", "values": [1]})
        assert run("sweep", config, tmp_path) == 2

    @pytest.mark.parametrize("sweep,key", [
        ({"axis": "samples_per_chain", "values": [0]}, "sweep.values"),
        ({"axis": "n_steps", "values": [4], "seeds": []}, "sweep.seeds"),
        ({"axis": "n_steps", "values": [4], "folds": []}, "sweep.folds"),
        ({"axis": "n_steps", "values": []}, "sweep.values"),
        ({"axis": "n_steps", "values": [2.5]}, "sweep.values"),
        ({"axis": "conv_blocks", "values": [1.5]}, "sweep.values"),
        ({"axis": "n_steps", "values": [4, 1]}, "langevin.store_offset"),
        ({"axis": "conv_blocks", "values": [1, 9]}, "(ebm.conv_blocks) must lie in [1, 7]"),
        # a repeated fold counted twice in each mean
        ({"axis": "n_steps", "values": [4], "folds": [0, 0, 1]}, "sweep.folds must not repeat"),
        ({"axis": "n_steps", "values": [4], "seeds": [1, 1]}, "sweep.seeds must not repeat"),
        ({"axis": "n_steps", "values": [4, 4.0]}, "sweep.values must not repeat"),
        ({"axis": "step_size", "values": [0.1, 0.1]}, "sweep.values must not repeat"),
        # at langevin.n_steps 6 the value 4 gets stride 1, which stores all 6 iterates
        ({"axis": "samples_per_chain", "values": [1, 4]},
         "sweep.values entry 4 would store 6 samples per chain"),
    ], ids=["zero-samples-per-chain", "no-seeds", "no-folds", "no-values", "fractional-n-steps",
            "fractional-conv-blocks", "n-steps-below-store-offset", "conv-blocks-out-of-range",
            "repeated-fold", "repeated-seed", "repeated-n-steps", "repeated-step-size",
            "samples-per-chain-stores-another-count"])
    def test_degenerate_sweep_exit_2(self, tmp_path, capsys, monkeypatch, sweep, key):
        config = write_config(tmp_path / "c.json")
        assert run("gen-data", config, tmp_path) == 0
        write_config(tmp_path / "c.json", sweep=sweep)
        trained = []
        monkeypatch.setattr(cli, "train_all_pairs", lambda *a, **k: trained.append(1))
        assert run("sweep", config, tmp_path) == 2
        assert key in capsys.readouterr().err
        assert trained == []  # rejected before any pair model is trained
        assert not (tmp_path / "sweep" / "results.csv").exists()

    @pytest.mark.parametrize("sweep,key", [
        ({"axis": "n_steps", "values": [4], "seeds": None}, "sweep.seeds"),
        ({"axis": "n_steps", "values": [4], "seeds": [0.5]}, "sweep.seeds"),
        ({"axis": "n_steps", "values": [4], "folds": 0}, "sweep.folds"),
    ], ids=["null-seeds", "float-seed", "scalar-folds"])
    def test_malformed_sweep_seeds_or_folds_exit_2(self, tmp_path, capsys, sweep, key):
        config = write_config(tmp_path / "c.json")
        assert run("gen-data", config, tmp_path) == 0
        write_config(tmp_path / "c.json", sweep=sweep)
        assert run("sweep", config, tmp_path) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("axis,values,trainings", [
        ("samples_per_chain", [1, 3], 1), ("conv_blocks", [1, 2], 2)])
    def test_pair_models_trained_once_per_ebm_section(self, tmp_path, monkeypatch,
                                                      axis, values, trainings):
        config = write_config(tmp_path / "c.json", sweep={
            "axis": axis, "values": values, "folds": [1], "seeds": [0]})
        assert run("gen-data", config, tmp_path) == 0
        calls = count_pair_trainings(monkeypatch)
        assert run("sweep", config, tmp_path) == 0
        assert len(calls) == trainings
        assert len((tmp_path / "sweep" / "results.csv").read_text().splitlines()) == 3


def test_eval_loo_samples_each_pair_once(tmp_path, monkeypatch):
    # one pool per run: n(n-1) pair chains, where a pool per fold would
    # sample each pair again in every fold that keeps both of its domains
    config = write_config(tmp_path / "c.json",
                          data={"n_domains": 4, "n_per_domain": 4, "image_size": 8,
                                "train_frac": 0.5},
                          ebm={"conv_blocks": 1, "cd": {"n_iters": 1, "batch_size": 2,
                                                        "n_steps": 2}})
    out = tmp_path / "o"
    assert run("gen-data", config, out) == 0
    assert run("train-ebms", config, out) == 0
    calls = []
    original = pipeline.run_chain_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_chain_batch", counted)
    assert run("eval-loo", config, out) == 0
    assert len(calls) == 4 * 3
    loo = (out / "loo" / "results.csv").read_text().splitlines()
    assert len(loo) == 1 + 4 * 2


def test_leaked_fold_exit_5(tmp_path, monkeypatch, capsys):
    # a pool slice that ignores the fold's sources hands the held-out
    # domain's bridge samples to training; the fold guard must stop the run
    config = write_config(tmp_path / "c.json",
                          ebm={"conv_blocks": 1, "cd": {"n_iters": 1, "batch_size": 2,
                                                        "n_steps": 2}})
    out = tmp_path / "o"
    assert run("gen-data", config, out) == 0
    assert run("train-ebms", config, out) == 0
    monkeypatch.setattr(pipeline.AugmentedDataset, "within", lambda self, domains: self)
    assert run("eval-loo", config, out) == 5
    assert "leaked into a training fold" in capsys.readouterr().err
    assert not (out / "loo" / "results.csv").exists()


@pytest.mark.parametrize("subcommand", ["augment", "eval-loo"])
@pytest.mark.parametrize("langevin,key", [
    ({"n_steps": 2, "store_offset": 3}, "langevin.store_offset"),
    ({"channel_replace": 0}, "channel_replace"),
], ids=["empty-pool", "single-channel-replace"])
def test_degenerate_pool_exit_2(tmp_path, capsys, subcommand, langevin, key):
    # an empty pool would train plain ERM under the erm+langaug label, and
    # replacing the only channel would store copies of the source images
    config = write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert run("gen-data", config, out) == 0
    assert run("train-ebms", config, out) == 0
    write_config(config, langevin={"step_size": 0.05, "n_steps": 6, "store_stride": 2,
                                   "store_offset": 2, **langevin})
    assert run(subcommand, config, out) == 2
    assert key in capsys.readouterr().err
    assert not (out / "aug" / "augmented.meta.json").exists()
    assert not (out / "loo" / "results.csv").exists()


def count_calls(monkeypatch, owner, name):
    """Record every call of ``owner.name``; returns the list that grows."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_chain_runs(monkeypatch):
    return count_calls(monkeypatch, pipeline, "run_chain_batch")


def count_pair_trainings(monkeypatch):
    return count_calls(monkeypatch, cli, "train_all_pairs")


def test_eval_loo_after_augment_uses_the_saved_pool(tmp_path, monkeypatch):
    config = write_config(tmp_path / "c.json")
    out, fresh = tmp_path / "o", tmp_path / "fresh"
    for stage in ("gen-data", "train-ebms", "augment"):
        assert run(stage, config, out) == 0
    for stage in ("gen-data", "train-ebms"):
        assert run(stage, config, fresh) == 0
    calls = count_chain_runs(monkeypatch)
    assert run("eval-loo", config, out) == 0
    assert calls == []
    assert run("eval-loo", config, fresh) == 0
    assert len(calls) == 3 * 2
    assert (out / "loo" / "results.csv").read_bytes() == \
        (fresh / "loo" / "results.csv").read_bytes()
    inputs = json.loads((out / "loo" / "manifest.json").read_text())["inputs"]
    assert str(out / "aug" / "augmented.meta.json") in inputs
    assert "using the saved aug/augmented (`augment`)" in (out / "loo" / "run.log").read_text()
    inputs = json.loads((fresh / "loo" / "manifest.json").read_text())["inputs"]
    assert not any("augmented" in path for path in inputs)
    assert "making aug/augmented: none on disk" in (fresh / "loo" / "run.log").read_text()


@pytest.mark.parametrize("change,key", [
    ("clamp_unit", "langevin.clamp_unit"), ("ebm_seed", "ebm_checksums.0_1")])
def test_stale_pool_is_sampled_again_and_refused_by_train_seg(tmp_path, monkeypatch, capsys,
                                                              change, key):
    config = write_config(tmp_path / "c.json")
    out, fresh = tmp_path / "o", tmp_path / "fresh"
    for stage in ("gen-data", "train-ebms", "augment"):
        assert run(stage, config, out) == 0
    # models retrained at seed 6 are stale under seed 5, so the later runs use seed 6 too
    ebm_seed = None
    if change == "clamp_unit":
        write_config(config, langevin={"step_size": 0.05, "n_steps": 6, "store_stride": 2,
                                       "store_offset": 2, "clamp_unit": True})
    else:
        ebm_seed = 6
        assert run("train-ebms", config, out, seed=ebm_seed) == 0
    assert run("gen-data", config, fresh) == 0
    assert run("train-ebms", config, fresh, seed=ebm_seed) == 0
    calls = count_chain_runs(monkeypatch)
    assert run("eval-loo", config, out, seed=ebm_seed) == 0
    assert len(calls) == 3 * 2
    assert f"{out / 'aug' / 'augmented.meta.json'}: provenance.{key} is " in \
        (out / "loo" / "run.log").read_text()
    inputs = json.loads((out / "loo" / "manifest.json").read_text())["inputs"]
    assert not any("augmented" in path for path in inputs)
    assert run("eval-loo", config, fresh, seed=ebm_seed) == 0
    assert (out / "loo" / "results.csv").read_bytes() == \
        (fresh / "loo" / "results.csv").read_bytes()
    capsys.readouterr()
    assert run("train-seg", config, out, seed=ebm_seed) == 3
    err = capsys.readouterr().err
    assert f"provenance.{key} is " in err and err.rstrip().endswith("; rerun augment")
    assert not (out / "seg" / "results.csv").exists()


def test_sweep_samples_only_values_off_the_saved_pool(tmp_path, monkeypatch):
    # the base config runs 6 Langevin steps, so the 6 value matches the saved pool
    config = write_config(tmp_path / "c.json", sweep={
        "axis": "n_steps", "values": [4, 6], "folds": [0], "seeds": [0]})
    out, fresh = tmp_path / "o", tmp_path / "fresh"
    for stage in ("gen-data", "train-ebms", "augment"):
        assert run(stage, config, out) == 0
    assert run("gen-data", config, fresh) == 0
    calls = count_chain_runs(monkeypatch)
    assert run("sweep", config, out) == 0
    assert len(calls) == 3 * 2
    log = (out / "sweep" / "run.log").read_text()
    assert (f"{out / 'aug' / 'augmented.meta.json'}: provenance.langevin.n_steps is 6, this "
            "run's is 4") in log
    assert "using the saved aug/augmented (`augment`)" in log
    calls.clear()
    assert run("sweep", config, fresh) == 0
    assert len(calls) == 2 * 3 * 2
    assert (out / "sweep" / "results.csv").read_bytes() == \
        (fresh / "sweep" / "results.csv").read_bytes()


@pytest.mark.parametrize("key,saved,value", [("n_iters", 3, 4), ("step_size", 0.1, 0.2)])
def test_sweep_loads_the_pair_models_train_ebms_saved(tmp_path, monkeypatch, key, saved, value):
    # sweep once trained all n(n-1) pair models itself, even on axes that leave the ebm
    # section alone; it now trains them only when ebms/ is missing or stale
    sweep = {"axis": "n_steps", "values": [4, 6], "folds": [0], "seeds": [0]}
    config = write_config(tmp_path / "c.json", sweep=sweep)
    out, fresh = tmp_path / "o", tmp_path / "fresh"
    for stage in ("gen-data", "train-ebms", "augment"):
        assert run(stage, config, out) == 0
    assert run("gen-data", config, fresh) == 0
    trainings = count_pair_trainings(monkeypatch)
    assert run("sweep", config, out) == 0
    assert trainings == []
    assert "using the saved ebms/ebm_* (`train-ebms`)" in (out / "sweep" / "run.log").read_text()
    inputs = json.loads((out / "sweep" / "manifest.json").read_text())["inputs"]
    assert str(out / "ebms" / "ebm_0_1.ldtn") in inputs
    assert run("sweep", config, fresh) == 0
    assert len(trainings) == 1
    assert "making ebms/ebm_*: none on disk" in (fresh / "sweep" / "run.log").read_text()
    assert (out / "sweep" / "results.csv").read_bytes() == \
        (fresh / "sweep" / "results.csv").read_bytes()
    cd = {"n_iters": 3, "batch_size": 2, "n_steps": 3}
    write_config(config, sweep=sweep, ebm={"conv_blocks": 1, "cd": {**cd, key: value}})
    trainings.clear()
    assert run("sweep", config, out) == 0
    assert len(trainings) == 1
    assert (f"making ebms/ebm_*: {out / 'ebms' / 'ebm_0_1.meta.json'}: provenance.cd.{key} is "
            f"{saved}, this run's is {value}; rerun train-ebms") in \
        (out / "sweep" / "run.log").read_text()


def test_conv_blocks_sweep_trains_only_the_values_off_the_saved_models(out_dir, tmp_path,
                                                                        monkeypatch):
    out = tmp_path / "o"
    for name in ("dataset", "ebms", "aug"):
        shutil.copytree(out_dir / name, out / name)
    config = write_config(tmp_path / "c.json", sweep={
        "axis": "conv_blocks", "values": [1, 2], "folds": [1], "seeds": [0]})
    trainings = count_pair_trainings(monkeypatch)
    assert run("sweep", config, out) == 0
    assert len(trainings) == 1
    log = (out / "sweep" / "run.log").read_text()
    assert "using the saved ebms/ebm_* (`train-ebms`)" in log
    assert (f"making ebms/ebm_*: {out / 'ebms' / 'ebm_0_1.meta.json'}: arch.conv_blocks is 1, "
            "this run's is 2; rerun train-ebms") in log


PAIR_MODEL_READERS = ("train-seg", "project", "eval-loo", "augment")


# a change to what made the pair models: (the test config's overrides, the seed to run at, the
# stale key and its recorded value); a changed data section makes gen-data run again
STALE_PAIR_MODELS = {
    "ebm.cd leaf": ({"ebm": {"conv_blocks": 1, "cd": {"n_iters": 4, "batch_size": 2,
                                                      "n_steps": 3}}},
                    None, "provenance.cd.n_iters is 3, this run's is 4"),
    "base_seed": ({}, 6, "provenance.base_seed is 5, this run's is 6"),
    "data": ({"data": {"n_domains": 3, "n_per_domain": 8, "image_size": 16, "train_frac": 0.5}},
             None, 'provenance.data.0 is "'),
}


@pytest.mark.parametrize("change", sorted(STALE_PAIR_MODELS))
def test_stale_pair_models_exit_3_at_every_reader(out_dir, tmp_path, capsys, change):
    out = tmp_path / "o"
    for name in ("dataset", "ebms", "aug"):
        shutil.copytree(out_dir / name, out / name)
    overrides, seed, text = STALE_PAIR_MODELS[change]
    config = write_config(tmp_path / "c.json", **overrides)
    if "data" in overrides:
        assert run("gen-data", config, out) == 0
    capsys.readouterr()
    # augment goes last: a stage clears its own directory, and the others read the pool
    for subcommand in PAIR_MODEL_READERS:
        assert run(subcommand, config, out, seed=seed) == 3
        err = capsys.readouterr().err
        assert f"{out / 'ebms' / 'ebm_0_1.meta.json'}: {text}" in err
        assert err.rstrip().endswith("; rerun train-ebms")
    assert not [path for name in ("seg", "project", "loo") for path in (out / name).glob("*.csv")]
    assert not (out / "aug" / "augmented.meta.json").exists()


def test_models_of_another_dataset_and_seed_exit_3(tmp_path, capsys):
    # every reader once ran on pair models trained on another dataset at another seed
    config = write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    for stage in ("gen-data", "train-ebms", "augment"):
        assert run(stage, config, out, seed=3) == 0
    assert run("gen-data", config, out, seed=4) == 0
    capsys.readouterr()
    for subcommand in PAIR_MODEL_READERS:
        assert run(subcommand, config, out, seed=4) == 3
        err = capsys.readouterr().err
        assert (f"{out / 'ebms' / 'ebm_0_1.meta.json'}: provenance.base_seed is 3, this run's "
                "is 4; rerun train-ebms") in err


def test_pool_of_another_dataset_is_stale_though_its_models_are_not(tmp_path, monkeypatch,
                                                                    capsys):
    # at ebm.cd.n_iters 0 a pair model is its seeded init whatever the data, so a pool of
    # another dataset can carry this dataset's model checksums: its own data key tells them apart
    ebm = {"conv_blocks": 1, "cd": {"n_iters": 0, "batch_size": 2, "n_steps": 3}}
    config = write_config(tmp_path / "c.json", ebm=ebm)
    out = tmp_path / "o"
    for stage in ("gen-data", "train-ebms", "augment"):
        assert run(stage, config, out) == 0
    models = {path.name: path.read_bytes() for path in (out / "ebms").glob("*.ldtn")}
    write_config(config, ebm=ebm, data={"n_domains": 3, "n_per_domain": 6, "image_size": 16,
                                        "train_frac": 0.5,
                                        "specs": [{"domain_id": d} for d in range(3)]})
    for stage in ("gen-data", "train-ebms"):
        assert run(stage, config, out) == 0
    assert {path.name: path.read_bytes() for path in (out / "ebms").glob("*.ldtn")} == models
    calls = count_chain_runs(monkeypatch)
    assert run("eval-loo", config, out) == 0
    assert len(calls) == 3 * 2
    sidecar = out / "aug" / "augmented.meta.json"
    assert f"making aug/augmented: {sidecar}: provenance.data.0 is " in \
        (out / "loo" / "run.log").read_text()
    capsys.readouterr()
    assert run("train-seg", config, out) == 3
    err = capsys.readouterr().err
    assert f"{sidecar}: provenance.data.0 is " in err and err.rstrip().endswith("; rerun augment")


def test_sweep_trains_the_plain_arm_once(tmp_path, monkeypatch):
    # no sweep axis touches the segmenter section: V*F*S bridge-arm segmenters
    # plus F*S plain ones, with the rows that one eval-loo run per value gives
    sweep = {"axis": "n_steps", "values": [4, 6], "folds": [0, 1], "seeds": [0]}
    config = write_config(tmp_path / "c.json", sweep=sweep)
    out = tmp_path / "o"
    assert run("gen-data", config, out) == 0
    trainings = []
    original = segmenter.train_segmenter

    def counted(*args, **kwargs):
        trainings.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(segmenter, "train_segmenter", counted)
    assert run("sweep", config, out) == 0
    assert len(trainings) == 2 * 2 * 1 + 2 * 1
    assert run("train-ebms", config, out) == 0
    rows = []
    for value in sweep["values"]:
        write_config(config, sweep=sweep, langevin={"step_size": 0.05, "n_steps": value,
                                                    "store_stride": 2, "store_offset": 2})
        assert run("eval-loo", config, out) == 0
        with open(out / "loo" / "results.csv", newline="") as fh:
            loo = [r for r in csv.DictReader(fh) if int(r["fold"]) in sweep["folds"]]
        row = ["n_steps", str(value)]
        for method in ("erm", "erm+langaug"):
            row += [repr(float(np.mean([float(r[key]) for r in loo if r["method"] == method])))
                    for key in ("mean_dice", "mean_iou")]
        rows.append(",".join(row))
    assert (out / "sweep" / "results.csv").read_text().splitlines()[1:] == rows


def test_sweep_scores_every_value_in_one_leave_one_out_call(tmp_path, monkeypatch):
    config = write_config(tmp_path / "c.json", sweep={
        "axis": "n_steps", "values": [4, 6], "folds": [0], "seeds": [0]})
    assert run("gen-data", config, tmp_path) == 0
    calls = []
    original = cli.leave_one_out_eval

    def recorded(dataset, arms, *args, **kwargs):
        calls.append(list(arms))
        return original(dataset, arms, *args, **kwargs)

    monkeypatch.setattr(cli, "leave_one_out_eval", recorded)
    assert run("sweep", config, tmp_path) == 0
    assert calls == [["erm", "n_steps=4", "n_steps=6"]]


def dotted_leaves(tree, prefix=""):
    """``tree``'s leaves keyed by their dotted paths."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(dotted_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


# the base config runs 6 Langevin steps, stores from step 2 at stride 2 and has 1 conv block,
# so every value below changes each key its axis sets
@pytest.mark.parametrize("axis,values,keys", [
    ("n_steps", [4, 9], {"langevin.n_steps": lambda v: v}),
    ("step_size", [0.1, 1], {"langevin.step_size": lambda v: v}),
    ("conv_blocks", [2, 3], {"ebm.conv_blocks": lambda v: v}),
    ("samples_per_chain", [1, 6], {"langevin.store_stride": lambda v: 6 // v,
                                   "langevin.store_offset": lambda v: 6 // v}),
])
def test_sweep_value_config_differs_only_in_its_axis_keys(tmp_path, axis, values, keys):
    config = load_config(write_config(tmp_path / "c.json", sweep={"axis": axis, "values": values}))
    base = dotted_leaves(config)
    for value in values:
        leaves = dotted_leaves(cli._sweep_config(config, value))
        assert {key for key in base if leaves[key] != base[key]} == set(keys)
        assert {key: leaves[key] for key in keys} == {key: set_to(value)
                                                      for key, set_to in keys.items()}
    assert dotted_leaves(config) == base  # the base config is not changed


def test_samples_per_chain_sweep_samples_each_value_with_that_many_iterates(tmp_path,
                                                                           monkeypatch):
    config = write_config(tmp_path / "c.json", sweep={
        "axis": "samples_per_chain", "values": [1, 3, 6], "folds": [0], "seeds": [0]})
    assert run("gen-data", config, tmp_path) == 0
    stored = []
    original = cli.generate_augmented

    def recorded(dataset, ebms, langevin, *args, **kwargs):
        stored.append(len(langevin.stored_steps()))
        return original(dataset, ebms, langevin, *args, **kwargs)

    monkeypatch.setattr(cli, "generate_augmented", recorded)
    assert run("sweep", config, tmp_path) == 0
    assert stored == [1, 3, 6]


def test_sweep_pool_failure_exit_4_before_any_segmenter(tmp_path, monkeypatch, capsys):
    # every value's pool is made before the one leave-one-out call, so a value whose
    # chains all diverge ends the run before any arm trains
    config = write_config(tmp_path / "c.json", sweep={
        "axis": "step_size", "values": [0.05, 1e200], "folds": [0], "seeds": [0]})
    assert run("gen-data", config, tmp_path) == 0
    trainings = count_calls(monkeypatch, segmenter, "train_segmenter")
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("sweep", config, tmp_path) == 4
    assert "chains diverged" in capsys.readouterr().err
    assert trainings == []
    assert not (tmp_path / "sweep" / "results.csv").exists()


def test_eval_loo_on_two_domains_exit_2_before_sampling(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path / "c.json",
                          data={"n_domains": 2, "n_per_domain": 4, "image_size": 8,
                                "train_frac": 0.5},
                          ebm={"conv_blocks": 1, "cd": {"n_iters": 1, "batch_size": 2,
                                                        "n_steps": 2}})
    out = tmp_path / "o"
    assert run("gen-data", config, out) == 0
    assert run("train-ebms", config, out) == 0
    calls = count_chain_runs(monkeypatch)
    assert run("eval-loo", config, out) == 2
    assert "at least 3 domains" in capsys.readouterr().err
    assert calls == []
    assert not (out / "loo" / "results.csv").exists()


def test_non_square_dataset_runs_every_stage(tmp_path):
    # the energy arch takes (C, H, W) from the dataset: a dataset cut to 16x8 once trained
    # against a (1, 16, 16) arch and exited 3 at train-ebms
    config = write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert run("gen-data", config, out) == 0
    for d in range(3):
        edit_tensor(lambda t: t[:, :, :, :8])(out / "dataset" / f"benchmark.d{d}.images.ldtn")
        edit_tensor(lambda t: t[:, :, :8])(out / "dataset" / f"benchmark.d{d}.masks.ldtn")
    for subcommand in ("train-ebms", "augment", "eval-loo"):
        assert run(subcommand, config, out) == 0, subcommand
    meta = json.loads((out / "ebms" / "ebm_0_1.meta.json").read_text())
    assert meta["arch"]["input_shape"] == [1, 16, 8]
    assert read_tensor(out / "aug" / "augmented.images.ldtn").shape[1:] == (1, 16, 8)


def edit_json(edit):
    def apply(path):
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
    return apply


def edit_tensor(edit):
    def apply(path):
        write_tensor(path, edit(read_tensor(path)))
    return apply


def tag_entry_0(row, value):
    """Set tag row ``row`` (source, target, step, origin) of the pool's entry 0 to ``value``."""
    def edit(tags):
        tags[row, 0] = value
        return tags
    return edit_tensor(edit)


# a damaged companion file of the pool or the dataset: (its path in the run directory, the
# edit, what stderr says after the path); the pool's entry 0 runs from sample 2 of domain 0,
# whose test split is [0, 1, 4], toward domain 1
COMPANION_DAMAGE = {
    "pool tag not an integer": ("aug/augmented.tags.ldtn", tag_entry_0(2, 2.5),
                                "tag value 2.5 is not an integer"),
    "pool source not a domain": ("aug/augmented.tags.ldtn", tag_entry_0(0, -1),
                                 "entry 0 has source -1, not one of the dataset's 3 domains"),
    "pool target not a domain": ("aug/augmented.tags.ldtn", tag_entry_0(1, 3),
                                 "entry 0 has target 3, not one of the dataset's 3 domains"),
    "pool origin a test sample": ("aug/augmented.tags.ldtn", tag_entry_0(3, 4),
                                  "entry 0 has origin 4, not in source domain 0's training "
                                  "split"),
    "pool tags of 3 rows": ("aug/augmented.tags.ldtn", edit_tensor(lambda t: t[:3]),
                            "tags of shape (3, 54)"),
    "pool tags short a column": ("aug/augmented.tags.ldtn", edit_tensor(lambda t: t[:, :-1]),
                                 "tags of shape (4, 53) for images of shape (54, 1, 16, 16)"),
    "pool images of another size": ("aug/augmented.images.ldtn",
                                    edit_tensor(lambda t: t[:, :, :8, :8]),
                                    "images of shape (54, 1, 8, 8) for a dataset of (1, 16, 16) "
                                    "images"),
    "dataset masks short a row": ("dataset/benchmark.d1.masks.ldtn",
                                  edit_tensor(lambda t: t[:-1]),
                                  "masks of shape (5, 16, 16) for images of shape (6, 1, 16, 16)"),
    "dataset images of another size": ("dataset/benchmark.d1.images.ldtn",
                                       edit_tensor(lambda t: t[:, :, :8, :8]),
                                       "images of shape (6, 1, 8, 8), not 4-D with domain 0's "
                                       "(C, H, W) (1, 16, 16)"),
    "dataset masks of another size": ("dataset/benchmark.d1.masks.ldtn",
                                      edit_tensor(lambda t: t[:, :8, :8]),
                                      "masks of shape (6, 8, 8) for images of shape "
                                      "(6, 1, 16, 16)"),
    "dataset masks with an extra axis": ("dataset/benchmark.d0.masks.ldtn",
                                         edit_tensor(lambda t: t[:, None]),
                                         "masks of shape (6, 1, 16, 16) for images of shape "
                                         "(6, 1, 16, 16)"),
    "dataset domain extra field": ("dataset/benchmark.meta.json",
                                   edit_json(lambda meta: meta["domains"][2].update(hue=1.0)),
                                   "domains[2] has unknown field 'hue'"),
    "dataset domain missing field": ("dataset/benchmark.meta.json",
                                     edit_json(lambda meta: meta["domains"][0].pop("gamma")),
                                     "domains[0] has missing field 'gamma'"),
    "dataset split a string": ("dataset/benchmark.meta.json",
                               edit_json(lambda meta: meta.update(split="train")),
                               '"split" is not a list of 3 domains'),
    "dataset split entry a list": ("dataset/benchmark.meta.json",
                                   edit_json(lambda meta: meta["split"].__setitem__(1, [0, 1])),
                                   "split[1] is not a train and test pair"),
    "dataset split index out of range": ("dataset/benchmark.meta.json",
                                         edit_json(lambda meta: meta["split"][0]["test"]
                                                   .append(6)),
                                         "split[0].test is not a list of row indices below 6"),
    "dataset sidecar not UTF-8": ("dataset/benchmark.meta.json",
                                  lambda path: path.write_bytes(b"\xff" + path.read_bytes()[1:]),
                                  "metadata is not UTF-8"),
    "truncated pool sidecar": ("aug/augmented.meta.json",
                               lambda path: path.write_text(path.read_text()[:-20]),
                               "metadata is not valid JSON"),
    "no pool tags": ("aug/augmented.tags.ldtn", Path.unlink, "no such file"),
    "no skipped_chains": ("aug/augmented.meta.json",
                          edit_json(lambda meta: meta.pop("skipped_chains")),
                          "metadata has no 'skipped_chains' key"),
    "no dataset kind": ("dataset/benchmark.meta.json", edit_json(lambda meta: meta.pop("kind")),
                        "metadata has no 'kind' key"),
    "no dataset split": ("dataset/benchmark.meta.json",
                         edit_json(lambda meta: meta.pop("split")), "metadata has no 'split' key"),
    "dataset kind other": ("dataset/benchmark.meta.json",
                           edit_json(lambda meta: meta.update(kind="other")),
                           "unknown dataset kind 'other'"),
}
POOL_READERS = ("eval-loo", "train-seg", "project")


@pytest.mark.parametrize("subcommand,damage", [
    *[pytest.param(sub, "truncated pool sidecar", id=sub) for sub in POOL_READERS],
    *[pytest.param(sub, damage, id=f"{sub}-{damage}") for damage in sorted(COMPANION_DAMAGE)
      if damage != "truncated pool sidecar" for sub in POOL_READERS],
    # train-ebms reads the dataset but no pool
    pytest.param("train-ebms", "dataset images of another size",
                 id="train-ebms-dataset images of another size")])
def test_damaged_pool_metadata_exit_3(out_dir, tmp_path, capsys, subcommand, damage):
    out = tmp_path / "o"
    for name in ("dataset", "ebms", "aug"):
        shutil.copytree(out_dir / name, out / name)
    name, edit, text = COMPANION_DAMAGE[damage]
    edit(out / name)
    assert run(subcommand, out_dir / "c.json", out) == 3
    err = capsys.readouterr().err
    assert f"{out / name}: {text}" in err
    writer = "gen-data" if name.startswith("dataset") else "augment"
    assert err.rstrip().endswith(f"; rerun {writer}")


@pytest.mark.parametrize("edit", [lambda provenance: provenance.pop("dtype"),
                                  lambda provenance: provenance.update(dtype="float64")],
                         ids=["no dtype", "float64"])
def test_pool_of_another_sampler_dtype_is_sampled_again(out_dir, tmp_path, monkeypatch, capsys,
                                                        edit):
    # a pool saved by the float64 sampler has no dtype key; it must not stand in for the
    # float32 pool, which has other bits
    out = tmp_path / "o"
    for name in ("dataset", "ebms", "aug"):
        shutil.copytree(out_dir / name, out / name)
    sidecar = out / "aug" / "augmented.meta.json"
    edit_json(lambda meta: edit(meta["provenance"]))(sidecar)
    config = write_config(tmp_path / "c.json", sweep={"axis": "n_steps", "values": [6],
                                                      "folds": [0], "seeds": [0]})
    calls = count_chain_runs(monkeypatch)
    for stage in ("eval-loo", "sweep"):
        calls.clear()
        assert run(stage, config, out) == 0
        assert len(calls) == 3 * 2
        assert f"{sidecar}: provenance.dtype is " in (out / stage.replace("eval-", "") /
                                                      "run.log").read_text()
    capsys.readouterr()
    assert run("train-seg", config, out) == 3
    err = capsys.readouterr().err
    assert f"{sidecar}: provenance.dtype is " in err and err.rstrip().endswith("; rerun augment")


# a pool sidecar's provenance that is not an object: (the edit, what the message says after
# the sidecar's path)
POOL_PROVENANCE_DAMAGE = {
    "a list": (lambda meta: meta.update(provenance=["x"]),
               'provenance is ["x"], this run\'s is an object'),
    "missing": (lambda meta: meta.pop("provenance"),
                "provenance is missing, this run's is an object"),
}


@pytest.mark.parametrize("damage", sorted(POOL_PROVENANCE_DAMAGE))
def test_pool_without_a_provenance_object_is_stale(out_dir, tmp_path, monkeypatch, capsys,
                                                   damage):
    # eval-loo samples the pool again; train-seg and project refuse it
    out = tmp_path / "o"
    for name in ("dataset", "ebms", "aug"):
        shutil.copytree(out_dir / name, out / name)
    sidecar = out / "aug" / "augmented.meta.json"
    edit, text = POOL_PROVENANCE_DAMAGE[damage]
    edit_json(edit)(sidecar)
    calls = count_chain_runs(monkeypatch)
    assert run("eval-loo", out_dir / "c.json", out) == 0
    assert len(calls) == 3 * 2
    assert f"making aug/augmented: {sidecar}: {text}" in (out / "loo" / "run.log").read_text()
    for subcommand in ("train-seg", "project"):
        capsys.readouterr()
        assert run(subcommand, out_dir / "c.json", out) == 3
        err = capsys.readouterr().err
        assert f"{sidecar}: {text}; rerun augment" in err
        assert err.rstrip().endswith("; rerun augment")


def test_project_refuses_a_stale_pool(out_dir, tmp_path, capsys):
    out = tmp_path / "o"
    for name in ("dataset", "ebms", "aug"):
        shutil.copytree(out_dir / name, out / name)
    config = write_config(tmp_path / "c.json", langevin={
        "step_size": 0.05, "n_steps": 6, "store_stride": 2, "store_offset": 2,
        "clamp_unit": True})
    assert run("project", config, out) == 3
    err = capsys.readouterr().err
    assert (f"{out / 'aug' / 'augmented.meta.json'}: provenance.langevin.clamp_unit is false, "
            "this run's is true; rerun augment") in err
    assert not (out / "project" / "coords.csv").exists()


# an upstream artifact of the 3-domain run: (its stage directory, its files, a subcommand that
# reads it, the file truncated, the subcommand that writes it)
UPSTREAM = {
    "dataset": ("dataset", ["benchmark.meta.json", *(f"benchmark.d{d}.{part}.ldtn" for d in range(3)
                                                     for part in ("images", "masks"))],
                "project", "benchmark.d0.images.ldtn", "gen-data"),
    "pair models": ("ebms", [f"ebm_{i}_{j}.{ext}" for i in range(3) for j in range(3) if i != j
                             for ext in ("ldtn", "meta.json")],
                    "augment", "ebm_0_1.ldtn", "train-ebms"),
    "pool": ("aug", [f"augmented.{part}" for part in ("meta.json", "images.ldtn", "tags.ldtn")],
             "project", "augmented.images.ldtn", "augment"),
}


@pytest.mark.parametrize("artifact", sorted(UPSTREAM))
def test_reader_checksums_every_file_and_names_its_writer(out_dir, tmp_path, capsys, artifact):
    stage_dir, files, reader, truncated, writer = UPSTREAM[artifact]
    out = tmp_path / "o"
    for name in ("dataset", "ebms", "aug"):
        shutil.copytree(out_dir / name, out / name)
    assert run(reader, out_dir / "c.json", out) == 0
    inputs = json.loads((out / cli._HANDLERS[reader][0] / "manifest.json").read_text())["inputs"]
    want = {str(out / stage_dir / name): hashlib.sha256((out / stage_dir / name).read_bytes())
            .hexdigest() for name in files}
    assert {path: digest for path, digest in inputs.items()
            if Path(path).parent == out / stage_dir} == want
    path = out / stage_dir / truncated
    path.write_bytes(path.read_bytes()[:-8])
    assert run(reader, out_dir / "c.json", out) == 3
    err = capsys.readouterr().err
    assert str(path) in err and err.rstrip().endswith(f"; rerun {writer}")


def rerun_gen_data_over_4_domains(out):
    config = write_config(out / "c4.json", data={"n_domains": 4, "n_per_domain": 6,
                                                 "image_size": 16, "train_frac": 0.5})
    assert run("gen-data", config, out) == 0


def plant_pool_masks(out):
    # the file an older `augment` wrote, which the pool no longer has
    write_tensor(out / "aug" / "augmented.masks.ldtn", np.zeros((54, 16, 16)))


# an earlier run of a stage left files that its rerun does not write: (the artifact, the
# subcommand that writes it, the earlier run)
LEFTOVERS = {
    "dataset of 4 domains": ("dataset/benchmark", "gen-data", rerun_gen_data_over_4_domains),
    "pool with masks": ("aug/augmented", "augment", plant_pool_masks),
}


@pytest.mark.parametrize("case", sorted(LEFTOVERS))
def test_rerun_replaces_its_stage_directory(out_dir, tmp_path, case):
    artifact, writer, earlier = LEFTOVERS[case]
    out = tmp_path / "o"
    for name in ("dataset", "ebms", "aug"):
        shutil.copytree(out_dir / name, out / name)
    stage_dir = out / Path(artifact).parent
    files = sorted(p.name for p in stage_dir.iterdir())
    earlier(out)
    assert run(writer, out_dir / "c.json", out) == 0
    assert sorted(p.name for p in stage_dir.iterdir()) == files
    # every reader checksums the artifact's files, so a leftover would join its manifest
    assert run("project", out_dir / "c.json", out) == 0
    inputs = json.loads((out / "project" / "manifest.json").read_text())["inputs"]
    assert sorted(Path(path).name for path in inputs if Path(path).parent == stage_dir) == \
        [name for name in files if name.startswith(f"{Path(artifact).name}.")]


def test_rerun_keeps_subdirectories_and_refuses_a_directory_no_stage_wrote(tmp_path, capsys):
    out, config = tmp_path / "o", write_config(tmp_path / "c.json")
    assert run("gen-data", config, out) == 0
    (out / "dataset" / "notes").mkdir()
    (out / "dataset" / "notes" / "keep.txt").write_text("mine")
    assert run("gen-data", config, out) == 0
    assert (out / "dataset" / "notes" / "keep.txt").read_text() == "mine"
    # a directory of someone else's files is left as it is
    (out / "seg").mkdir()
    (out / "seg" / "results.csv").write_text("mine")
    capsys.readouterr()
    assert run("train-seg", config, out) == 2
    err = capsys.readouterr().err
    assert "no config.resolved.json" in err and str(out / "seg") in err
    assert [p.name for p in (out / "seg").iterdir()] == ["results.csv"]
    assert (out / "seg" / "results.csv").read_text() == "mine"


# a model trained while the mlp arch existed has hidden_width in its sidecar; the
# other edits stand for a damaged file
SIDECAR_DAMAGE = {
    "extra hidden_width": (lambda meta: meta["arch"].update(hidden_width=64), "hidden_width"),
    "kind mlp": (lambda meta: meta["arch"].update(kind="mlp"), "mlp"),
    "no conv_blocks": (lambda meta: meta["arch"].pop("conv_blocks"), "conv_blocks"),
    "no arch": (lambda meta: meta.pop("arch"), "arch"),
    "no sidecar": (None, "no such file"),
}


@pytest.mark.parametrize("damage", sorted(SIDECAR_DAMAGE))
def test_unusable_ebm_sidecar_exit_3_naming_it(out_dir, tmp_path, capsys, damage):
    out = tmp_path / "o"
    for name in ("dataset", "ebms"):
        shutil.copytree(out_dir / name, out / name)
    sidecar = out / "ebms" / "ebm_0_1.meta.json"
    meta = json.loads(sidecar.read_text())
    edit, key = SIDECAR_DAMAGE[damage]
    if edit is None:
        sidecar.unlink()
    else:
        edit(meta)
        sidecar.write_text(json.dumps(meta))
    assert run("augment", out_dir / "c.json", out) == 3
    err = capsys.readouterr().err
    assert str(sidecar) in err and key in err and "rerun train-ebms" in err


class TestPca:
    def test_collinear_data_second_component_tiny(self):
        t = np.linspace(0, 1, 30)
        pts = np.stack([t, 2 * t], axis=1)
        with pytest.warns(UserWarning):
            coords = pca_project(pts, out_dim=2)
        assert coords.shape[1] == 1  # degenerate rank collapses the output

    def test_output_centered(self):
        pts = derive_stream(1, [("p", 0)]).standard_normal((40, 5))
        coords = pca_project(pts, out_dim=2)
        assert np.allclose(coords.mean(axis=0), 0.0, atol=1e-10)

    def test_projection_deterministic(self):
        pts = derive_stream(4, [("p", 0)]).standard_normal((30, 6))
        assert np.array_equal(pca_project(pts), pca_project(pts))


def test_module_entry_point_runs(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"base_seed": 3, "data": {"n_domains": 2, "n_per_domain": 4,
                                                           "image_size": 8}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "langaug.cli", "gen-data", "--config", str(config),
                           "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "o" / "dataset" / "benchmark.meta.json").exists()


def test_main_argparse_round_trip(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"base_seed": 3, "data": {"n_domains": 2, "n_per_domain": 4,
                                                           "image_size": 8}}))
    code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 0
