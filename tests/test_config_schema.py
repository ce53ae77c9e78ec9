"""The config schema: every leaf checked at its dotted path, values never coerced.

Each leaf of ``cli.SCHEMA`` states its default, JSON kind and range, and
``load_config`` checks each given leaf as it merges it; ``cli._validate``
keeps only the rules that relate two or more keys.
"""
import copy
import json
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langaug.cli import DEFAULT_CONFIG, load_config, run
from langaug.errors import ConfigError
from test_cli import THEORY_CONFIGS, write_config
from test_golden import PIPELINE, THEORY

# the upstream stage directories each stage reads
NEEDS = {"gen-data": (), "verify-theory": (), "train-ebms": ("dataset",),
         "augment": ("dataset", "ebms"), "train-seg": ("dataset", "ebms", "aug"),
         "sweep": ("dataset",)}


@pytest.fixture(scope="module")
def upstream(tmp_path_factory):
    """dataset/, ebms/ and aug/ of the tiny test config, for stages downstream of them."""
    out = tmp_path_factory.mktemp("upstream")
    config = write_config(out / "c.json")
    for stage in ("gen-data", "train-ebms", "augment"):
        assert run(stage, config, out) == 0
    return out


def with_leaf(config, dotted, value):
    config = copy.deepcopy(config)
    *sections, leaf = dotted.split(".")
    node = config
    for name in sections:
        node = node.setdefault(name, {})
    node[leaf] = value
    return config


def run_with(stage, config, upstream, out):
    """Run ``stage`` on ``config`` in ``out``, after copying the directories it reads."""
    for name in NEEDS[stage]:
        shutil.copytree(upstream / name, out / name)
    path = out / "c.json"
    path.write_text(json.dumps(config))
    return run(stage, path, out)


def base_config(tmp_path):
    return json.loads(write_config(tmp_path / "base.json").read_text())


# one key changed on the tiny test config; each ended in a traceback, exited 0
# or blamed another key before every leaf had a kind and a range
REPROS = [
    # tracebacks
    ("gen-data", "base_seed", 1e20),
    ("train-ebms", "base_seed", 2**63 - 1),
    ("gen-data", "data.n_domains", "3"),
    ("gen-data", "data.image_size", 17.0),
    ("train-ebms", "data.channels", 0),
    ("gen-data", "data.specs", [1, 2, 3]),
    ("gen-data", "data.specs", [{"domain_id": 0, "gamma": "a"}, {"domain_id": 1},
                                {"domain_id": 2}]),
    ("train-ebms", "ebm.cd.lr", "x"),
    ("augment", "langevin.step_size", "1"),
    ("augment", "langevin.n_steps", 2.5),
    ("train-seg", "augment.mix_ratio", "0.5"),
    ("train-seg", "segmenter.epochs", 1.5),
    ("verify-theory", "theory.kappa2", 0),
    ("verify-theory", "theory.n_mc", 2.5),
    ("verify-theory", "theory.k", -1),
    ("verify-theory", "theory.probe_radii", []),
    ("verify-theory", "theory.probe_radii", [0, 1, 2]),
    # silent exit 0
    ("gen-data", "base_seed", 1.5),
    ("gen-data", "data.n_per_domain", 0),
    ("train-ebms", "ebm.hidden_width", True),
    ("train-ebms", "ebm.cd.checkpoint_every", 0),
    ("train-ebms", "ebm.cd.checkpoint_every", -1),
    ("augment", "langevin.step_size", float("nan")),
    ("augment", "langevin.clamp_unit", "yes"),
    ("train-seg", "segmenter.lr", -1),
    ("verify-theory", "theory.kappa1", -1),
    ("verify-theory", "theory.probe_count", 2.5),
    # exit 2 that blamed the rho probes
    ("verify-theory", "theory.dim", 0),
    ("verify-theory", "theory.probe_count", 0),
    # energy kinds that once trained; conv is the only one a config may name
    ("train-ebms", "ebm.kind", "mlp"),
    ("train-ebms", "ebm.kind", "quadratic"),
]


@pytest.mark.parametrize("stage,key,value", REPROS,
                         ids=[f"{s}-{k}={v!r}"[:60] for s, k, v in REPROS])
def test_bad_leaf_exits_2_naming_it(tmp_path, capsys, upstream, stage, key, value):
    out = tmp_path / "out"
    out.mkdir()
    assert run_with(stage, with_leaf(base_config(tmp_path), key, value), upstream, out) == 2
    assert key in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(NEEDS[stage])


def test_ambient_dim_beyond_int64_exits_2_naming_it(tmp_path, capsys):
    # theory_bound.json has a positive rho, so its Rademacher rows run; there an
    # entry of 10**19 overflowed derive_stream's int64 label in theory._embed
    config = json.loads((THEORY_CONFIGS / "theory_bound.json").read_text())
    config["theory"]["ambient_dims"] = [2, 10**19]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert run("verify-theory", path, tmp_path / "out") == 2
    assert "theory.ambient_dims" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_numbers_rejected(tmp_path, value):
    path = tmp_path / "c.json"
    path.write_text('{"base_seed": 1, "theory": {"delta": %s}}' % value)
    with pytest.raises(ConfigError, match="theory.delta must be a finite number"):
        load_config(path)


def merged_over(defaults, raw):
    return {key: merged_over(default, raw.get(key, {})) if isinstance(default, dict)
            else raw.get(key, default) for key, default in defaults.items()}


COMMITTED = {**{p.name: json.loads(p.read_text()) for p in sorted(THEORY_CONFIGS.glob("*.json"))},
             "golden-pipeline": PIPELINE,
             **{f"golden-theory-{name}": config for name, config in THEORY.items()}}


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_committed_configs_load_unchanged(tmp_path, name):
    # json text tells 1 from 1.0 and true from 1, so any coercion shows
    path = tmp_path / "c.json"
    path.write_text(json.dumps(COMMITTED[name]))
    want = merged_over(DEFAULT_CONFIG, COMMITTED[name])
    assert json.dumps(load_config(path), sort_keys=True) == json.dumps(want, sort_keys=True)


def leaf_paths(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


# the cheapest stage that reads each section
STAGE_OF = {"base_seed": "gen-data", "data": "gen-data", "ebm": "train-ebms",
            "langevin": "augment", "augment": "train-seg", "segmenter": "train-seg",
            "theory": "verify-theory", "sweep": "sweep"}
# a theory section whose rho estimate is positive, so the bound keys are read too
THEORY_BASE = THEORY["bound"]["theory"]
SWEEP_BASE = {"axis": "samples_per_chain", "values": [1], "folds": [1], "seeds": [0]}
HOSTILE = ["x", 0, -1, 2.5, True, [], [0], None, {}]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(key=st.sampled_from(sorted(leaf_paths(DEFAULT_CONFIG))), value=st.sampled_from(HOSTILE))
def test_hostile_leaf_never_escapes_run(tmp_path_factory, upstream, key, value):
    out = tmp_path_factory.mktemp("fuzz")
    config = base_config(out)
    config["theory"], config["sweep"] = THEORY_BASE, SWEEP_BASE
    if key.startswith("theory."):
        config["base_seed"] = THEORY["bound"]["base_seed"]
    stage = STAGE_OF[key.split(".")[0]]
    code = run_with(stage, with_leaf(config, key, value), upstream, out)
    assert code in {0, 2, 3, 4, 5}
    if code == 0:
        for path in out.rglob("*"):
            if path.suffix in (".csv", ".json"):
                assert not re.search(r"(?i)\bnan\b", path.read_text()), path
