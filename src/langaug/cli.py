"""Config-driven experiment runner.

Subcommands: gen-data, train-ebms, augment, train-seg, eval-loo,
verify-theory, sweep, project. Configs are strict JSON (unknown keys are
rejected with their dotted path); each stage writes its resolved config, a
checksum manifest of its inputs, and CSV/JSON artifacts into the output
directory. Timestamps go to run.log only, so repeated runs with the same
config and seed produce byte-identical tables.
"""
from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .cdtrain import CdConfig, ordered_pairs, train_all_pairs
from .energy import MAX_CONV_BLOCKS, EnergyArch, load_energy_params
from .errors import (ConfigError, DimensionError, LeakageError, MissingArtifactError,
                     NumericError, TensorFormatError, TensorPayloadError)
from .langevin import LangevinConfig
from .numerics import AdamHyper
from .ldtn import read_meta
from .pipeline import (generate_augmented, load_augmented, pool_provenance,
                       provenance_mismatch, save_augmented)
from .segmenter import (SegTrainConfig, fit_and_score, leave_one_out_eval, loo_folds,
                        write_results_csv)
from .synth import (DEFAULT_SPECS, DomainSpec, generate_benchmark,
                    generate_vector_glm, load_dataset, save_dataset)
from .theory import verify_bounds

SUBCOMMANDS = ("gen-data", "train-ebms", "augment", "train-seg", "eval-loo",
               "verify-theory", "sweep", "project")

_REQUIRED = object()

DEFAULT_CONFIG = {
    "base_seed": _REQUIRED,
    "data": {
        "n_domains": 4,
        "n_per_domain": 50,
        "image_size": 16,
        "channels": 1,
        "train_frac": 0.8,
        "specs": None,
    },
    "ebm": {
        "kind": "conv",
        "conv_blocks": 2,
        "hidden_width": 64,
        "cd": {
            "n_iters": 150,
            "batch_size": 8,
            "step_size": 0.1,
            "n_steps": 15,
            "lr": 0.001,
            "checkpoint_every": None,
        },
    },
    "langevin": {
        "step_size": 1.0,
        "n_steps": 40,
        "store_stride": 3,
        "store_offset": 3,
        "channel_replace": "auto",
        "clamp_unit": False,
    },
    "augment": {
        "mix_ratio": 0.5,
    },
    "segmenter": {
        "epochs": 30,
        "batch_size": 8,
        "lr": 0.003,
        "seeds": [0, 1, 2, 3, 4],
    },
    "theory": {
        "family": "logistic",
        "k": 200,
        "dim": 2,
        "sigma_scale": 0.49,
        "theta": None,
        "betas": [0.02, 0.04, 0.08, 0.16],
        "n_mc": 4096,
        "max_mc": 524288,
        "probe_count": 1000,
        "probe_radii": None,
        "kappa1": None,
        "kappa2": None,
        "rad_n_mc": 2000,
        "ambient_dims": [2, 20, 200],
        "delta": 0.05,
    },
    "sweep": {
        "axis": "n_steps",
        "values": [20, 40, 60, 80],
        "folds": None,
        "seeds": [0],
    },
}


def _merge_strict(defaults, given, path=""):
    if not isinstance(given, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    merged = {}
    for key, default in defaults.items():
        dotted = f"{path}.{key}" if path else key
        if key in given:
            value = given[key]
            if isinstance(default, dict):
                merged[key] = _merge_strict(default, value, dotted)
            else:
                merged[key] = value
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {dotted}")
        else:
            merged[key] = copy.deepcopy(default)
    for key in given:
        if key not in defaults:
            dotted = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {dotted}")
    return merged


def load_config(path, seed_override=None) -> dict:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    config = _merge_strict(DEFAULT_CONFIG, raw)
    if seed_override is not None:
        config["base_seed"] = int(seed_override)
    _validate(config)
    return config


def _validate(config) -> None:
    th_cfg = config["theory"]
    for beta in th_cfg["betas"]:
        if not isinstance(beta, (int, float)) or beta <= 0:
            raise ConfigError(f"theory.betas entries must be positive, got {beta!r}")
    if not th_cfg["sigma_scale"] > 0:
        raise ConfigError("theory.sigma_scale must be positive")
    if th_cfg["theta"] is not None and np.shape(th_cfg["theta"]) != (th_cfg["dim"],):
        raise ConfigError(f"theory.theta must be a list of theory.dim = {th_cfg['dim']} numbers")
    # the bound branch reads these only when rho_hat and gamma are positive
    if not isinstance(th_cfg["delta"], (int, float)) or not 0.0 < th_cfg["delta"] < 1.0:
        raise ConfigError(f"theory.delta must lie in (0, 1), got {th_cfg['delta']!r}")
    if type(th_cfg["rad_n_mc"]) is not int or th_cfg["rad_n_mc"] < 1:
        raise ConfigError(f"theory.rad_n_mc must be an integer >= 1, got {th_cfg['rad_n_mc']!r}")
    _check_int_list(th_cfg["ambient_dims"], "theory.ambient_dims")
    if min(th_cfg["ambient_dims"]) < th_cfg["dim"]:
        raise ConfigError(f"theory.ambient_dims entries must be >= theory.dim = {th_cfg['dim']}")
    if not 0.0 <= config["data"]["train_frac"] <= 1.0:
        raise ConfigError("data.train_frac must lie in [0, 1]")
    if not 0.0 <= config["augment"]["mix_ratio"] <= 1.0:
        raise ConfigError("augment.mix_ratio must lie in [0, 1]")
    store_offset = config["langevin"]["store_offset"]
    if store_offset > config["langevin"]["n_steps"]:
        raise ConfigError(f"langevin.store_offset {store_offset} exceeds langevin.n_steps "
                          f"{config['langevin']['n_steps']}: no chain iterate would be stored")
    sweep = config["sweep"]
    if sweep["axis"] not in ("n_steps", "step_size", "conv_blocks", "samples_per_chain"):
        raise ConfigError(f"unsupported sweep.axis {sweep['axis']!r}")
    if not isinstance(sweep["values"], list) or not sweep["values"]:
        raise ConfigError("sweep.values must be a non-empty list")
    if sweep["axis"] != "step_size":
        _check_int_list(sweep["values"], "sweep.values")
    _check_int_list(sweep["seeds"], "sweep.seeds")
    if sweep["folds"] is not None:
        _check_int_list(sweep["folds"], "sweep.folds")
    _check_int_list(config["segmenter"]["seeds"], "segmenter.seeds")
    if sweep["axis"] == "samples_per_chain" and min(sweep["values"]) < 1:
        raise ConfigError("sweep.values must be positive integers on the samples_per_chain axis")
    if sweep["axis"] == "conv_blocks" and not all(1 <= v <= MAX_CONV_BLOCKS
                                                  for v in sweep["values"]):
        raise ConfigError(f"sweep.values on the conv_blocks axis must lie in 1..{MAX_CONV_BLOCKS}")
    if sweep["axis"] == "n_steps" and min(sweep["values"]) < store_offset:
        raise ConfigError(f"sweep.values on the n_steps axis must be >= langevin.store_offset "
                          f"{store_offset}: no chain iterate would be stored")
    if config["data"]["specs"] is not None:
        if len(config["data"]["specs"]) != config["data"]["n_domains"]:
            raise ConfigError("data.specs length must equal data.n_domains")


def _check_int_list(value, key) -> None:
    if not isinstance(value, list) or not value or not all(type(v) is int for v in value):
        raise ConfigError(f"{key} must be a non-empty list of integers, got {value!r}")


def _specs_from_config(config):
    data = config["data"]
    if data["specs"] is None:
        return list(DEFAULT_SPECS[:data["n_domains"]])
    fields = {"domain_id", "gamma", "contrast", "texture_freq", "texture_amp", "noise_sigma"}
    specs = []
    for entry in data["specs"]:
        unknown = set(entry) - fields
        if unknown:
            raise ConfigError(f"unknown DomainSpec keys {sorted(unknown)}")
        specs.append(DomainSpec(**entry))
    return specs


def _langevin_from_config(config, channels: int) -> LangevinConfig:
    lv = config["langevin"]
    replace_ch = lv["channel_replace"]
    if replace_ch == "auto":
        replace_ch = 0 if channels > 1 else None
    return LangevinConfig(
        step_size=lv["step_size"],
        n_steps=lv["n_steps"],
        store_stride=lv["store_stride"],
        store_offset=lv["store_offset"],
        channel_replace=replace_ch,
        clamp_unit=lv["clamp_unit"],
    )


def _arch_from_config(config, dataset) -> EnergyArch:
    ebm = config["ebm"]
    channels, size = dataset.images[0].shape[1:3]
    return EnergyArch(kind=ebm["kind"], input_shape=(channels, size, size),
                      conv_blocks=ebm["conv_blocks"], hidden_width=ebm["hidden_width"])


def _cd_from_config(config) -> CdConfig:
    ebm = config["ebm"]["cd"]
    return CdConfig(
        n_iters=ebm["n_iters"],
        batch_size=ebm["batch_size"],
        ld=LangevinConfig(step_size=ebm["step_size"], n_steps=ebm["n_steps"]),
        adam=AdamHyper(lr=ebm["lr"]),
        base_seed=config["base_seed"],
        checkpoint_every=ebm["checkpoint_every"],
    )


def _seg_config(config) -> SegTrainConfig:
    seg = config["segmenter"]
    return SegTrainConfig(
        epochs=seg["epochs"],
        batch_size=seg["batch_size"],
        mix_ratio=config["augment"]["mix_ratio"],
        adam=AdamHyper(lr=seg["lr"]),
    )


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Stage:
    """Output-directory bookkeeping shared by all subcommands."""

    def __init__(self, out_dir, name, config):
        self.dir = Path(out_dir) / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.inputs = {}
        (self.dir / "config.resolved.json").write_text(
            json.dumps(config, indent=2, sort_keys=True), encoding="utf-8"
        )
        self._log = []

    def log(self, message):
        self._log.append(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {message}")

    def record_input(self, path, producer) -> Path:
        """Checksum an upstream artifact that stage ``producer`` writes."""
        path = Path(path)
        if not path.exists():
            raise MissingArtifactError(f"missing upstream artifact: {path} (run `{producer}` first)")
        self.inputs[str(path)] = _sha256(path)
        return path

    def finish(self):
        (self.dir / "manifest.json").write_text(
            json.dumps({"inputs": self.inputs}, indent=2, sort_keys=True), encoding="utf-8"
        )
        (self.dir / "run.log").write_text("\n".join(self._log) + "\n", encoding="utf-8")


def pca_project(vectors: np.ndarray, out_dim: int = 2) -> np.ndarray:
    """Mean-centered projection onto the top principal components.

    Degenerate covariance shrinks the output dimension with a warning.
    Component signs are fixed so the largest-magnitude loading is positive.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        x = x.reshape(x.shape[0], -1)
    if x.shape[0] < 2:
        raise ConfigError("pca_project needs at least 2 vectors")
    centered = x - x.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scale = svals[0] if svals.size and svals[0] > 0 else 1.0
    usable = int(np.sum(svals > 1e-12 * scale))
    if usable < out_dim:
        warnings.warn(f"covariance rank {usable} < requested {out_dim}; output reduced")
        out_dim = max(usable, 1)
    comps = vt[:out_dim]
    flips = np.sign(comps[np.arange(out_dim), np.argmax(np.abs(comps), axis=1)])
    comps = comps * flips[:, None]
    return centered @ comps.T


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(config, out_dir, jobs):
    stage = Stage(out_dir, "dataset", config)
    data = config["data"]
    stage.log("generating benchmark")
    dataset = generate_benchmark(
        n_domains=data["n_domains"],
        n_per_domain=data["n_per_domain"],
        image_size=data["image_size"],
        specs=_specs_from_config(config),
        seed=config["base_seed"],
        channels=data["channels"],
        train_frac=data["train_frac"],
    )
    save_dataset(dataset, stage.dir / "benchmark")
    stage.log(f"clamp fraction {dataset.clamp_fraction:.4f}")
    stage.finish()
    return 0


def _load_benchmark(out_dir, stage):
    meta = stage.record_input(Path(out_dir) / "dataset" / "benchmark.meta.json", "gen-data")
    return load_dataset(meta.parent / "benchmark")


def _cmd_train_ebms(config, out_dir, jobs):
    stage = Stage(out_dir, "ebms", config)
    dataset = _load_benchmark(out_dir, stage)
    stage.log(f"training {len(ordered_pairs(dataset.n_domains))} pairwise models")
    train_all_pairs([dataset.train_images(d) for d in range(dataset.n_domains)],
                    _arch_from_config(config, dataset), _cd_from_config(config),
                    out_dir=stage.dir, jobs=jobs)
    stage.finish()
    return 0


def _load_ebms(out_dir, stage, n_domains):
    ebms = {}
    for i, j in ordered_pairs(n_domains):
        base = Path(out_dir) / "ebms" / f"ebm_{i}_{j}"
        stage.record_input(f"{base}.ldtn", "train-ebms")
        ebms[(i, j)] = load_energy_params(base)[0]
    return ebms


def _cmd_augment(config, out_dir, jobs):
    stage = Stage(out_dir, "aug", config)
    dataset = _load_benchmark(out_dir, stage)
    ebms = _load_ebms(out_dir, stage, dataset.n_domains)
    lv_config = _langevin_from_config(config, dataset.images[0].shape[1])
    stage.log("generating bridge samples")
    aug = generate_augmented(dataset, ebms, lv_config, config["base_seed"])
    save_augmented(aug, stage.dir / "augmented")
    stage.log(f"{len(aug)} entries, {aug.skipped_chains} chains skipped")
    stage.finish()
    return 0


def _saved_pool(out_dir, stage, dataset, ebms, lv_config, base_seed):
    """(pool, None) when the pool `augment` saved is the one these inputs make, else (None, why)."""
    path = Path(out_dir) / "aug" / "augmented.meta.json"
    if not path.exists():
        return None, "no pool on disk"
    key = provenance_mismatch(read_meta(path.parent / "augmented").get("provenance", {}),
                              pool_provenance(dataset, ebms, lv_config, base_seed))
    if key is not None:
        return None, f"provenance key {key} differs"
    return load_augmented(stage.record_input(path, "augment").parent / "augmented"), None


def _cmd_train_seg(config, out_dir, jobs):
    stage = Stage(out_dir, "seg", config)
    dataset = _load_benchmark(out_dir, stage)
    aug = None
    if (Path(out_dir) / "aug" / "augmented.meta.json").exists():
        aug, stale = _saved_pool(out_dir, stage, dataset,
                                 _load_ebms(out_dir, stage, dataset.n_domains),
                                 _langevin_from_config(config, dataset.images[0].shape[1]),
                                 config["base_seed"])
        if stale is not None:
            raise MissingArtifactError(f"the augmented pool is stale ({stale}); "
                                       "run `augment` again")
    domains = range(dataset.n_domains)
    src_images = np.concatenate([dataset.train_images(d) for d in domains])
    src_masks = np.concatenate([dataset.train_masks(d) for d in domains])
    eval_sets = [(d, dataset.test_images(d), dataset.test_masks(d))
                 for d in domains if len(dataset.test_images(d)) > 0]
    methods = ("erm",) if aug is None else ("erm", "erm+langaug")
    results = fit_and_score(src_images, src_masks, aug, _seg_config(config),
                            config["segmenter"]["seeds"], methods, eval_sets)
    write_results_csv(results, stage.dir / "results.csv")
    stage.finish()
    return 0


def _loo(config, dataset, ebms, seeds, folds, methods, out_dir, stage):
    """Leave-one-out scores of ``methods`` over one pool of the pair models ``ebms``.

    The pool `augment` saved serves when its provenance equals this run's;
    otherwise the pool is sampled, after the folds have been checked.
    """
    loo_folds(dataset.n_domains, folds)
    lv_config = _langevin_from_config(config, dataset.images[0].shape[1])
    pool, stale = _saved_pool(out_dir, stage, dataset, ebms, lv_config, config["base_seed"])
    if pool is not None:
        stage.log("using the pool `augment` saved")
    else:
        stage.log(f"sampling the pool: {stale}")
        pool = generate_augmented(dataset, ebms, lv_config, config["base_seed"])
    return leave_one_out_eval(dataset, pool, _seg_config(config), seeds=seeds, methods=methods,
                              folds=folds)


def _cmd_eval_loo(config, out_dir, jobs):
    stage = Stage(out_dir, "loo", config)
    dataset = _load_benchmark(out_dir, stage)
    ebms = _load_ebms(out_dir, stage, dataset.n_domains)
    stage.log("running leave-one-out evaluation")
    results = _loo(config, dataset, ebms, tuple(config["segmenter"]["seeds"]), None,
                   ("erm", "erm+langaug"), out_dir, stage)
    write_results_csv(results, stage.dir / "results.csv")
    stage.finish()
    return 0


def _cmd_verify_theory(config, out_dir, jobs):
    stage = Stage(out_dir, "theory", config)
    th_cfg = config["theory"]
    dim = th_cfg["dim"]
    theta = (np.asarray(th_cfg["theta"], dtype=np.float64) if th_cfg["theta"] is not None
             else np.linspace(1.0, 0.5, dim))
    dataset = generate_vector_glm(
        k=th_cfg["k"], mu=np.zeros(dim), sigma_mat=np.eye(dim) * th_cfg["sigma_scale"],
        theta_star=theta, family=th_cfg["family"], seed=config["base_seed"],
    )
    stage.log("running remainder scan and bound")
    report = verify_bounds(theta, dataset, th_cfg, config["base_seed"])
    report.write_csv(stage.dir / "report.csv")
    report.write_summary_json(stage.dir / "summary.json")
    stage.log(f"slope {report.slope}, status {report.status}")
    stage.finish()
    return 0


def _cmd_sweep(config, out_dir, jobs):
    stage = Stage(out_dir, "sweep", config)
    dataset = _load_benchmark(out_dir, stage)
    sweep = config["sweep"]
    axis, values = sweep["axis"], sweep["values"]
    pair_models = {}  # only the conv_blocks axis changes the ebm section

    def models(cfg):
        key = json.dumps(cfg["ebm"], sort_keys=True)
        if key not in pair_models:
            pair_models[key] = train_all_pairs(
                [dataset.train_images(d) for d in range(dataset.n_domains)],
                _arch_from_config(cfg, dataset), _cd_from_config(cfg), jobs=jobs)
        return pair_models[key]

    def means(results):
        return [repr(float(np.mean([r.mean_dice for r in results]))),
                repr(float(np.mean([r.mean_iou for r in results])))]

    # no sweep axis touches the segmenter or augment sections, so the plain arm
    # is trained once; this call also checks the folds before any pair model
    erm = means(leave_one_out_eval(dataset, None, _seg_config(config), seeds=sweep["seeds"],
                                   methods=("erm",), folds=sweep["folds"]))
    rows = []
    for value in values:
        cfg = copy.deepcopy(config)
        if axis == "n_steps":
            cfg["langevin"]["n_steps"] = value
        elif axis == "step_size":
            cfg["langevin"]["step_size"] = float(value)
        elif axis == "conv_blocks":
            cfg["ebm"]["conv_blocks"] = value
        elif axis == "samples_per_chain":
            stride = max(1, cfg["langevin"]["n_steps"] // value)
            cfg["langevin"]["store_stride"] = stride
            cfg["langevin"]["store_offset"] = stride
        results = _loo(cfg, dataset, models(cfg), sweep["seeds"], sweep["folds"],
                       ("erm+langaug",), out_dir, stage)
        stage.log(f"{axis}={value} done")
        rows.append([axis, value, *erm, *means(results)])
    with open(stage.dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "mean_dice_erm", "mean_iou_erm",
                         "mean_dice_aug", "mean_iou_aug"])
        writer.writerows(rows)
    stage.finish()
    return 0


def _cmd_project(config, out_dir, jobs):
    stage = Stage(out_dir, "project", config)
    dataset = _load_benchmark(out_dir, stage)
    rows = []
    vectors = []
    for d in range(dataset.n_domains):
        for img in dataset.images[d]:
            vectors.append(img.ravel())
            rows.append(("src", d, -1, 0))
    path = Path(out_dir) / "aug" / "augmented.meta.json"
    if path.exists():
        aug = load_augmented(stage.record_input(path, "augment").parent / "augmented")
        for idx in range(len(aug)):
            vectors.append(aug.images[idx].ravel())
            rows.append(("aug", int(aug.source_domain[idx]), int(aug.target_domain[idx]),
                         int(aug.step_index[idx])))
    coords = pca_project(np.stack(vectors), out_dim=2)
    with open(stage.dir / "coords.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "domain", "target", "step", "pc1", "pc2"])
        for (kind, dom, tgt, step), xy in zip(rows, coords):
            writer.writerow([kind, dom, tgt, step, repr(float(xy[0])),
                             repr(float(xy[1])) if coords.shape[1] > 1 else repr(0.0)])
    _write_centroid_report(rows, coords, stage.dir / "centroids.json")
    stage.finish()
    return 0


def _write_centroid_report(rows, coords, path):
    """Distances from augmented (i, j) centroids to source centroids (reported)."""
    src_centroids = {}
    for d in {r[1] for r in rows if r[0] == "src"}:
        pts = np.stack([c for r, c in zip(rows, coords) if r[0] == "src" and r[1] == d])
        src_centroids[d] = pts.mean(axis=0)
    out = {}
    pairs = {(r[1], r[2]) for r in rows if r[0] == "aug"}
    for i, j in sorted(pairs):
        pts = np.stack([c for r, c in zip(rows, coords)
                        if r[0] == "aug" and r[1] == i and r[2] == j])
        centroid = pts.mean(axis=0)
        out[f"{i}->{j}"] = {
            "dist_to_source": float(np.linalg.norm(centroid - src_centroids[i])),
            "dist_to_target": float(np.linalg.norm(centroid - src_centroids[j])),
        }
    Path(path).write_text(json.dumps(out, indent=2, sort_keys=True), encoding="utf-8")


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train-ebms": _cmd_train_ebms,
    "augment": _cmd_augment,
    "train-seg": _cmd_train_seg,
    "eval-loo": _cmd_eval_loo,
    "verify-theory": _cmd_verify_theory,
    "sweep": _cmd_sweep,
    "project": _cmd_project,
}


def run(subcommand: str, config_path, out_dir, jobs: int = 1, seed=None) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        if subcommand not in _HANDLERS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        config = load_config(config_path, seed_override=seed)
        return _HANDLERS[subcommand](config, out_dir, max(1, int(jobs)))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (MissingArtifactError, DimensionError, TensorFormatError, TensorPayloadError) as err:
        print(f"missing or unusable artifact: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 4
    except LeakageError as err:
        print(f"held-out domain leaked into a training fold: {err}", file=sys.stderr)
        return 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="langaug", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="strict JSON experiment config")
    parser.add_argument("--out", required=True, help="experiment output directory")
    parser.add_argument("--jobs", type=int, default=1, help="worker cap for parallel stages")
    parser.add_argument("--seed", type=int, default=None, help="override base_seed")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, jobs=args.jobs, seed=args.seed)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
