"""Config-driven experiment runner.

Subcommands: gen-data, train-ebms, augment, train-seg, eval-loo,
verify-theory, sweep, project. Configs are strict JSON checked against SCHEMA
(an unknown key, or a value of the wrong kind or range, is named by its
dotted path); each stage writes its resolved config, a
checksum manifest of its inputs, and CSV/JSON artifacts into the output
directory. Timestamps go to run.log only, so repeated runs with the same
config and seed produce byte-identical tables.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cdtrain import CdConfig, ordered_pairs, train_all_pairs
from .energy import MAX_CONV_BLOCKS, EnergyArch, load_energy_params
from .errors import (ConfigError, DimensionError, LeakageError, MissingArtifactError,
                     NumericError, StaleArtifactError, TensorFormatError, TensorPayloadError)
from .langevin import LangevinConfig
from .numerics import AdamHyper
from .ldtn import read_meta, write_csv, write_json
from .pipeline import (data_digests, generate_augmented, load_augmented, pool_provenance,
                       provenance_mismatch, save_augmented)
from .segmenter import (SegTrainConfig, fit_and_score, leave_one_out_eval, loo_folds,
                        write_results_csv)
from .synth import (DomainSpec, generate_benchmark, generate_vector_glm, load_dataset,
                    save_dataset)
from .theory import FAMILIES, verify_bounds

_REQUIRED = object()
# a seed derived from a configured one adds under 7919·n² (pair models) or 1000·n
# (folds), so for n < 2·10**7 domains it stays inside derive_stream's int64 key
_SEED_BOUND = 1 << 62


class Leaf(NamedTuple):
    """A config value's default, JSON kind and range. A kind is ``int`` (bool excluded), ``float``
    (a finite number), ``bool``, a literal (a string or None), ``[kind]`` (a non-empty list
    whose entries take the range), a section (a dict of leaves) or a tuple of these."""
    default: object
    kind: object
    lo: float = -math.inf
    hi: float = math.inf
    exclusive: bool = False  # lo and hi are out of range; with no hi, lo is 0 ("positive")
    distinct: bool = False  # a list may not repeat an entry


SCHEMA = {
    "base_seed": Leaf(_REQUIRED, int, -_SEED_BOUND, _SEED_BOUND),
    "data": {
        "n_domains": Leaf(4, int, 2),
        "n_per_domain": Leaf(50, int, 1),
        "image_size": Leaf(16, int, 8),
        "channels": Leaf(1, int, 1),
        "train_frac": Leaf(0.8, float, 0, 1),
        # an entry has DomainSpec's fields, whose ranges DomainSpec.validate checks;
        # entries are checked, not filled
        "specs": Leaf(None, (None, [{f.name: Leaf(f.default, float) for f in fields(DomainSpec)}
                                    | {"domain_id": Leaf(_REQUIRED, int, 0)}])),
    },
    "ebm": {
        "kind": Leaf("conv", "conv"),
        "conv_blocks": Leaf(2, int, 1, MAX_CONV_BLOCKS),
        "cd": {
            "n_iters": Leaf(150, int, 0),
            "batch_size": Leaf(8, int, 1),
            "step_size": Leaf(0.1, float, 0),
            "n_steps": Leaf(15, int, 1),
            "lr": Leaf(0.001, float, 0, exclusive=True),
        },
    },
    "langevin": {  # LangevinConfig's fields; "auto" replaces channel 0 on multi-channel data
        "step_size": Leaf(1.0, float, 0),
        "n_steps": Leaf(40, int, 0),
        "store_stride": Leaf(3, int, 1),
        "store_offset": Leaf(3, int, 1),
        "channel_replace": Leaf("auto", ("auto", None, int), 0),
        "clamp_unit": Leaf(False, bool),
    },
    "augment": {"mix_ratio": Leaf(0.5, float, 0, 1)},
    "segmenter": {
        "epochs": Leaf(30, int, 0),
        "batch_size": Leaf(8, int, 1),
        "lr": Leaf(0.003, float, 0, exclusive=True),
        "seeds": Leaf([0, 1, 2, 3, 4], [int], -_SEED_BOUND, _SEED_BOUND, distinct=True),
    },
    "theory": {
        "family": Leaf("logistic", tuple(FAMILIES)),
        "k": Leaf(200, int, 1),
        "dim": Leaf(2, int, 1),
        "sigma_scale": Leaf(0.49, float, 0, exclusive=True),
        "theta": Leaf(None, (None, [float])),
        "betas": Leaf([0.02, 0.04, 0.08, 0.16], [float], 0, exclusive=True),
        "n_mc": Leaf(4096, int, 1),
        "max_mc": Leaf(524288, int, 1),
        "probe_count": Leaf(1000, int, 1),
        "probe_radii": Leaf(None, (None, [float]), 0, exclusive=True),
        "kappa1": Leaf(None, (None, float), 0, exclusive=True),
        "kappa2": Leaf(None, (None, float), 0, exclusive=True),
        "rad_n_mc": Leaf(2000, int, 1),
        # each entry also labels a derive_stream key, which is int64
        "ambient_dims": Leaf([2, 20, 200], [int], 1, _SEED_BOUND),
        "delta": Leaf(0.05, float, 0, 1, exclusive=True),
    },
    "sweep": {
        "axis": Leaf("n_steps", ("n_steps", "step_size", "conv_blocks", "samples_per_chain")),
        "values": Leaf([20, 40, 60, 80], [float], 0, distinct=True),
        "folds": Leaf(None, (None, [int]), 0, distinct=True),
        "seeds": Leaf([0], [int], -_SEED_BOUND, _SEED_BOUND, distinct=True),
    },
}


def _defaults(schema) -> dict:
    return {key: _defaults(leaf) if isinstance(leaf, dict) else leaf.default
            for key, leaf in schema.items()}


DEFAULT_CONFIG = _defaults(SCHEMA)
_TYPES = {int: (int,), float: (int, float), bool: (bool,)}
_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
          list: "a non-empty list", dict: "an object"}


def _range_text(leaf: Leaf) -> str:
    if leaf.hi < math.inf:
        ends = "()" if leaf.exclusive else "[]"
        return f"lie in {ends[0]}{leaf.lo}, {leaf.hi}{ends[1]}"
    return "be positive" if leaf.exclusive else f"be >= {leaf.lo}"


def _check(leaf: Leaf, value, key: str):
    """``value`` if it fits ``leaf`` (a section comes back merged over its defaults)."""
    kinds = leaf.kind if isinstance(leaf.kind, tuple) else (leaf.kind,)
    for kind in kinds:
        if isinstance(kind, dict) and type(value) is dict:
            return _merge_strict(kind, value, key)
        if isinstance(kind, list) and type(value) is list and value:
            for i, entry in enumerate(value):
                _check(leaf._replace(kind=kind[0]), entry, f"{key}[{i}]")
            if leaf.distinct and len(set(value)) < len(value):
                raise ConfigError(f"{key} must not repeat an entry, got {value!r}")
            return value
        # a float kind turns away inf and ints beyond the float range
        if isinstance(kind, type) and type(value) in _TYPES[kind] and (
                kind is not float or abs(value) <= sys.float_info.max):
            if not (leaf.lo < value < leaf.hi if leaf.exclusive else leaf.lo <= value <= leaf.hi):
                raise ConfigError(f"{key} must {_range_text(leaf)}, got {value!r}")
            return value
        if type(value) is type(kind) and value == kind:  # a literal
            return value
    wanted = " or ".join(_NAMES.get(k if isinstance(k, type) else type(k)) or json.dumps(k)
                         for k in kinds)
    raise ConfigError(f"{key} must be {wanted}, got {value!r}")


def _merge_strict(schema, given, path=""):
    if type(given) is not dict:
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    prefix = f"{path}." if path else ""
    for key in given:
        if key not in schema:
            raise ConfigError(f"unknown config key {prefix}{key}")
    merged = {}
    for key, leaf in schema.items():
        if isinstance(leaf, dict):
            merged[key] = _merge_strict(leaf, given.get(key, {}), prefix + key)
        elif key in given:
            merged[key] = _check(leaf, given[key], prefix + key)
        elif leaf.default is _REQUIRED:
            raise ConfigError(f"missing required config key {prefix}{key}")
        else:
            merged[key] = copy.deepcopy(leaf.default)
    return merged


def load_config(path, seed_override=None) -> dict:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"config file not found: {path}")
    if path.is_dir():
        raise MissingArtifactError(f"config path is a directory, not a file: {path}")
    try:
        # NaN and Infinity are read as strings, which no number leaf accepts
        raw = json.loads(path.read_text(encoding="utf-8"), parse_constant=str)
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path} is not UTF-8 ({err})") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    config = _merge_strict(SCHEMA, raw)
    if seed_override is not None:
        config["base_seed"] = _check(SCHEMA["base_seed"], int(seed_override), "base_seed")
    _validate(config)
    return config


def _validate(config) -> None:
    """The rules that relate two or more keys (a leaf is checked as it is merged), on the
    config and on each sweep value's config."""
    for value in [None, *config["sweep"]["values"]]:
        cfg = config if value is None else _sweep_config(config, value)
        at = "" if value is None else f"sweep.values entry {value}: "
        th_cfg, lv = cfg["theory"], cfg["langevin"]
        if th_cfg["theta"] is not None and len(th_cfg["theta"]) != th_cfg["dim"]:
            raise ConfigError(f"{at}theory.theta must have theory.dim = {th_cfg['dim']} entries")
        if min(th_cfg["ambient_dims"]) < th_cfg["dim"]:
            raise ConfigError(f"{at}theory.ambient_dims entries must be >= theory.dim = "
                              f"{th_cfg['dim']}")
        if lv["store_offset"] > lv["n_steps"]:
            raise ConfigError(f"{at}langevin.store_offset {lv['store_offset']} exceeds "
                              f"langevin.n_steps {lv['n_steps']}: no chain iterate would be stored")
        specs = cfg["data"]["specs"]
        if specs is not None and len(specs) != cfg["data"]["n_domains"]:
            raise ConfigError(f"{at}data.specs length must equal data.n_domains")


def _sweep_config(config, value) -> dict:
    """The config that the sweep value ``value`` runs: ``n_steps`` and ``step_size`` set that
    langevin key and ``conv_blocks`` ebm.conv_blocks, each checked by its leaf; a
    ``samples_per_chain`` value v in [1, n_steps] sets langevin.store_stride and store_offset to
    n_steps // v, which must then store exactly v chain iterates."""
    axis, at = config["sweep"]["axis"], f"sweep.values entry {value}"
    cfg = {**config, "langevin": (lv := dict(config["langevin"])), "ebm": dict(config["ebm"])}
    if axis == "samples_per_chain":
        _check(Leaf(None, int, 1, lv["n_steps"]), value, f"{at} (samples per chain)")
        lv["store_stride"] = lv["store_offset"] = lv["n_steps"] // value
        if (stored := len(LangevinConfig(**lv).stored_steps())) != value:
            raise ConfigError(f"{at} would store {stored} samples per chain at langevin.n_steps "
                              f"{lv['n_steps']}")
    else:
        section = "ebm" if axis == "conv_blocks" else "langevin"
        cfg[section][axis] = _check(SCHEMA[section][axis], value, f"{at} ({section}.{axis})")
    return cfg


def _langevin_from_config(config, dataset) -> LangevinConfig:
    lv = dict(config["langevin"])
    if lv["channel_replace"] == "auto":
        lv["channel_replace"] = 0 if dataset.images[0].shape[1] > 1 else None
    return LangevinConfig(**lv)


def _arch_from_config(config, dataset) -> EnergyArch:
    ebm = config["ebm"]
    return EnergyArch(kind=ebm["kind"], input_shape=dataset.images[0].shape[1:],
                      conv_blocks=ebm["conv_blocks"])


def _cd_from_config(config) -> CdConfig:
    cd = config["ebm"]["cd"]
    return CdConfig(n_iters=cd["n_iters"], batch_size=cd["batch_size"],
                    ld=LangevinConfig(step_size=cd["step_size"], n_steps=cd["n_steps"]),
                    adam=AdamHyper(lr=cd["lr"]), base_seed=config["base_seed"])


def _seg_config(config) -> SegTrainConfig:
    seg = config["segmenter"]
    return SegTrainConfig(epochs=seg["epochs"], batch_size=seg["batch_size"],
                          mix_ratio=config["augment"]["mix_ratio"], adam=AdamHyper(lr=seg["lr"]))


# a missing or unusable upstream file; run exits 3 on these
_UNUSABLE = (MissingArtifactError, DimensionError, TensorFormatError, TensorPayloadError)


def _writer(name) -> str:
    """The subcommand that writes the upstream artifact ``name``."""
    return next(sub for sub, (out, _) in _HANDLERS.items() if name.startswith(f"{out}/"))


def _shown(tree, key) -> str:
    """The value under the dotted ``key`` of ``tree`` as a message shows it."""
    *path, last = key.split(".")
    for part in path:
        tree = tree[part]
    if last not in tree:
        return "missing"
    return "an object" if isinstance(tree[last], dict) else json.dumps(tree[last])


class Stage:
    """One subcommand's output-directory bookkeeping; ``run`` builds it and calls ``finish``.
    An upstream artifact ``name``, such as ``"ebms/ebm_0_1"``, is the run's ``<name>.*`` files,
    so the files of an earlier run go first: none of them joins an artifact. A directory of
    files without ``config.resolved.json`` was not written by a stage and is refused."""

    def __init__(self, out_dir, name, config):
        self.root = Path(out_dir)
        self.dir = self.root / name
        self.inputs = {}
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as err:
            raise ConfigError(f"--out {self.root} must name a directory, but {self.dir} "
                              f"cannot be one ({err.strerror})") from err
        files = [path for path in self.dir.iterdir() if not path.is_dir()]
        if files and not (self.dir / "config.resolved.json").is_file():
            raise ConfigError(f"{self.dir} holds files but no config.resolved.json, so no "
                              "stage wrote it; choose another --out")
        for path in files:
            path.unlink()
        write_json(self.dir / "config.resolved.json", config)
        self._log = []

    def log(self, message):
        self._log.append(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {message}")

    def has(self, name) -> bool:
        return any(self.root.glob(f"{name}.*"))

    def read(self, name, load, want=None):
        """``load(base)`` for the artifact ``name``, after checksumming each of its files into
        the manifest. With ``want``, the sidecar must first record want's value under each of
        its keys, or StaleArtifactError names the first one that differs. A missing, unusable
        or stale artifact raises with the subcommand to rerun."""
        base = self.root / name
        try:
            if want is not None:
                found = {key: value for key, value in read_meta(base).items() if key in want}
                key = provenance_mismatch(found, want)
                if key is not None:
                    raise StaleArtifactError(f"{base}.meta.json: {key} is {_shown(found, key)}, "
                                             f"this run's is {_shown(want, key)}")
            for path in sorted(self.root.glob(f"{name}.*")):
                digest = hashlib.sha256()
                with open(path, "rb") as fh:  # in chunks: a whole pool tensor would lift peak RSS
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        digest.update(chunk)
                self.inputs[str(path)] = digest.hexdigest()
            return load(base)
        except _UNUSABLE as err:
            raise type(err)(f"{err}; rerun {_writer(name)}") from err

    def reuse(self, name, read, make):
        """``read()`` when the artifact ``name`` (a glob stem) is on disk and not stale, else
        ``make()``; the log says which, and why. A damaged artifact still raises."""
        why = "none on disk"
        if self.has(name):
            try:
                found = read()
                self.log(f"using the saved {name} (`{_writer(name)}`)")
                return found
            except StaleArtifactError as err:
                why = err
        self.log(f"making {name}: {why}")
        return make()

    def finish(self):
        write_json(self.dir / "manifest.json", {"inputs": self.inputs})
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


def _cmd_gen_data(stage, config):
    data = config["data"]
    stage.log("generating benchmark")
    dataset = generate_benchmark(
        n_domains=data["n_domains"],
        n_per_domain=data["n_per_domain"],
        image_size=data["image_size"],
        specs=None if data["specs"] is None else [DomainSpec(**e) for e in data["specs"]],
        seed=config["base_seed"],
        channels=data["channels"],
        train_frac=data["train_frac"],
    )
    save_dataset(dataset, stage.dir / "benchmark")
    stage.log(f"clamp fraction {dataset.clamp_fraction:.4f}")


def _ebm_provenance(config, dataset) -> dict:
    """What a pair model's bits depend on beside its arch."""
    return {"cd": config["ebm"]["cd"], "base_seed": config["base_seed"],
            "data": data_digests(dataset)}


def _train_pairs(config, dataset, out_dir=None):
    """The pair models of ``config`` on ``dataset``, saved in ``out_dir`` when it is given."""
    return train_all_pairs([dataset.train_images(d) for d in range(dataset.n_domains)],
                           _arch_from_config(config, dataset), _cd_from_config(config),
                           out_dir=out_dir, provenance=_ebm_provenance(config, dataset))


def _cmd_train_ebms(stage, config):
    dataset = stage.read("dataset/benchmark", load_dataset)
    stage.log(f"training {len(ordered_pairs(dataset.n_domains))} pairwise models")
    _train_pairs(config, dataset, out_dir=stage.dir)


def _load_ebms(stage, config, dataset):
    """The pair models `train-ebms` saved; StaleArtifactError unless this run would make them."""
    want = {"arch": json.loads(json.dumps(asdict(_arch_from_config(config, dataset)))),
            "provenance": _ebm_provenance(config, dataset)}
    return {(i, j): stage.read(f"ebms/ebm_{i}_{j}", load_energy_params, want)[0]
            for i, j in ordered_pairs(dataset.n_domains)}


def _cmd_augment(stage, config):
    dataset = stage.read("dataset/benchmark", load_dataset)
    ebms = _load_ebms(stage, config, dataset)
    stage.log("generating bridge samples")
    langevin = _langevin_from_config(config, dataset)
    aug = generate_augmented(dataset, ebms, langevin, config["base_seed"])
    save_augmented(aug, stage.dir / "augmented",
                   pool_provenance(dataset, ebms, langevin, config["base_seed"]))
    stage.log(f"{len(aug)} entries, {aug.skipped_chains} chains skipped")


def _read_pool(stage, config, dataset, ebms):
    """The pool `augment` saved; StaleArtifactError unless these inputs would have made it."""
    want = {"provenance": pool_provenance(dataset, ebms, _langevin_from_config(config, dataset),
                                          config["base_seed"])}
    return stage.read("aug/augmented", lambda base: load_augmented(base, dataset), want)


def _cmd_train_seg(stage, config):
    dataset = stage.read("dataset/benchmark", load_dataset)
    arms = {"erm": None}
    if stage.has("aug/augmented"):
        arms["erm+langaug"] = _read_pool(stage, config, dataset, _load_ebms(stage, config, dataset))
    domains = range(dataset.n_domains)
    src_images = np.concatenate([dataset.train_images(d) for d in domains])
    src_masks = np.concatenate([dataset.train_masks(d) for d in domains])
    eval_sets = [(d, dataset.test_images(d), dataset.test_masks(d))
                 for d in domains if len(dataset.test_images(d)) > 0]
    if not eval_sets:
        raise ConfigError("no domain has test images to score: data.train_frac left none")
    results = fit_and_score(src_images, src_masks, arms, _seg_config(config),
                            config["segmenter"]["seeds"], eval_sets)
    write_results_csv(results, stage.dir / "results.csv")


def _loo_pool(stage, config, dataset, ebms):
    """The bridge pool of the pair models ``ebms``: the one `augment` saved unless it is
    stale, else sampled."""
    return stage.reuse("aug/augmented", lambda: _read_pool(stage, config, dataset, ebms),
                       lambda: generate_augmented(dataset, ebms,
                                                  _langevin_from_config(config, dataset),
                                                  config["base_seed"]))


def _cmd_eval_loo(stage, config):
    dataset = stage.read("dataset/benchmark", load_dataset)
    ebms = _load_ebms(stage, config, dataset)
    stage.log("running leave-one-out evaluation")
    loo_folds(dataset.n_domains)  # before any chain runs
    pool = _loo_pool(stage, config, dataset, ebms)
    results = leave_one_out_eval(dataset, {"erm": None, "erm+langaug": pool}, _seg_config(config),
                                 seeds=tuple(config["segmenter"]["seeds"]))
    write_results_csv(results, stage.dir / "results.csv")


def _cmd_verify_theory(stage, config):
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


def _cmd_sweep(stage, config):
    dataset = stage.read("dataset/benchmark", load_dataset)
    sweep = config["sweep"]
    axis, values = sweep["axis"], sweep["values"]
    loo_folds(dataset.n_domains, sweep["folds"])  # before any pair model trains
    pair_models = {}  # only the conv_blocks axis changes the ebm section
    # no sweep axis touches the segmenter or augment sections, so one plain arm serves all
    arms = {"erm": None}
    for value in values:
        cfg = _sweep_config(config, value)
        key = json.dumps(cfg["ebm"], sort_keys=True)
        if key not in pair_models:
            pair_models[key] = stage.reuse("ebms/ebm_*", lambda: _load_ebms(stage, cfg, dataset),
                                           lambda: _train_pairs(cfg, dataset))
        arms[f"{axis}={value}"] = _loo_pool(stage, cfg, dataset, pair_models[key])
        stage.log(f"{axis}={value} pool ready")
    # a cell's seed is seed + 1000·fold whatever its arm, and each arm's cells keep their
    # fold-then-seed order, so every mean has the bits of a run of that arm alone
    results = leave_one_out_eval(dataset, arms, _seg_config(config), seeds=sweep["seeds"],
                                 folds=sweep["folds"])
    means = {arm: [repr(float(np.mean([getattr(r, key) for r in results if r.method == arm])))
                   for key in ("mean_dice", "mean_iou")] for arm in arms}
    write_csv(stage.dir / "results.csv", ["axis", "value", "mean_dice_erm", "mean_iou_erm",
                                          "mean_dice_aug", "mean_iou_aug"],
              ([axis, value, *means["erm"], *means[f"{axis}={value}"]] for value in values))


def _cmd_project(stage, config):
    dataset = stage.read("dataset/benchmark", load_dataset)
    # each image's (domain, target, step): a dataset image's target is -1 and its step 0
    images = list(dataset.images)
    tags = [np.broadcast_to([[d], [-1], [0]], (3, len(x))) for d, x in enumerate(images)]
    if stage.has("aug/augmented"):
        aug = _read_pool(stage, config, dataset, _load_ebms(stage, config, dataset))
        images.append(aug.images)
        tags.append(np.stack([aug.source_domain, aug.target_domain, aug.step_index]))
    tags = np.concatenate(tags, axis=1)
    coords = pca_project(np.concatenate([x.reshape(-1, images[0][0].size) for x in images]), 2)
    xy = np.pad(coords, ((0, 0), (0, 2 - coords.shape[1])))  # a rank-1 projection's pc2 is 0
    write_csv(stage.dir / "coords.csv", ["kind", "domain", "target", "step", "pc1", "pc2"],
              (["src" if tgt < 0 else "aug", dom, tgt, step, repr(x), repr(y)]
               for (dom, tgt, step), (x, y) in zip(tags.T.tolist(), xy.tolist())))
    _write_centroid_report(tags[0], tags[1], coords, stage.dir / "centroids.json")


def _write_centroid_report(domain, target, coords, path):
    """Distances from augmented (i, j) centroids to source centroids (reported); a source
    row has target -1."""
    src = target < 0
    src_centroids = {d: coords[src & (domain == d)].mean(axis=0)
                     for d in np.unique(domain[src]).tolist()}
    out = {}
    for i, j in sorted(set(zip(domain[~src].tolist(), target[~src].tolist()))):
        centroid = coords[(domain == i) & (target == j)].mean(axis=0)
        out[f"{i}->{j}"] = {
            "dist_to_source": float(np.linalg.norm(centroid - src_centroids[i])),
            "dist_to_target": float(np.linalg.norm(centroid - src_centroids[j])),
        }
    write_json(path, out)


_HANDLERS = {
    "gen-data": ("dataset", _cmd_gen_data),
    "train-ebms": ("ebms", _cmd_train_ebms),
    "augment": ("aug", _cmd_augment),
    "train-seg": ("seg", _cmd_train_seg),
    "eval-loo": ("loo", _cmd_eval_loo),
    "verify-theory": ("theory", _cmd_verify_theory),
    "sweep": ("sweep", _cmd_sweep),
    "project": ("project", _cmd_project),
}


def run(subcommand: str, config_path, out_dir, jobs: int = 1, seed=None) -> int:
    """Execute one subcommand; returns the process exit code. Every stage runs its loops in
    this process, so ``jobs`` is checked but selects nothing."""
    try:
        if subcommand not in _HANDLERS:
            raise ConfigError(f"unknown subcommand {subcommand!r}")
        if jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {jobs}")
        config = load_config(config_path, seed_override=seed)
        name, handler = _HANDLERS[subcommand]
        stage = Stage(out_dir, name, config)
        handler(stage, config)
        stage.finish()
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except _UNUSABLE as err:
        print(f"missing or unusable artifact: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 4
    except LeakageError as err:
        print(f"held-out domain leaked into a training fold: {err}", file=sys.stderr)
        return 5
    except (MemoryError, ValueError) as err:
        # past the address range numpy raises ValueError("array is too big ..."), not MemoryError
        if isinstance(err, ValueError) and not str(err).startswith("array is too big"):
            raise
        print(f"config error: the configured sizes need more memory than is available ({err})",
              file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="langaug", description=__doc__)
    parser.add_argument("subcommand", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="strict JSON experiment config")
    parser.add_argument("--out", required=True, help="experiment output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="at least 1; selects nothing: every stage runs in one process")
    parser.add_argument("--seed", type=int, default=None, help="override base_seed")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, jobs=args.jobs, seed=args.seed)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
