"""Blocked remainder scan and batched probes against their one-at-a-time references.

The references below are the draw-by-draw scan (one full (k, m) pass per
beta) and the probe-by-probe loops of ``estimate_rho`` and of the gamma
maximum. The production code must reproduce them bit for bit.
"""
import ast
import math
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from langaug import nets, theory
from langaug.errors import ConfigError, NumericError
from langaug.numerics import block_ranges, derive_stream
from langaug.synth import GlmVectorDataset, generate_vector_glm
from langaug.theory import (TheoryReport, TheoryRow, constraint_max, constraint_value,
                            estimate_rho, get_family, reg_glm, taylor_remainder_scan)

BETAS = [0.02, 0.04, 0.08, 0.16]
THETAS = {"gaussian": [0.8, -0.4], "logistic": [1.0, -0.5], "poisson": [0.4, 0.2]}


def reference_scan(theta, dataset, betas, n_mc=4096, base_seed=None, max_mc=1 << 19,
                   stderr_frac=0.1):
    """The remainder scan evaluated one whole chunk per beta."""
    family = get_family(dataset.family)
    betas = sorted(float(b) for b in betas)
    base_seed = dataset.seed if base_seed is None else base_seed
    theta = np.asarray(theta, dtype=np.float64)
    u = dataset.x @ theta
    ts = dataset.scores() @ theta
    b = -0.5 * ts
    k = dataset.k
    norm_theta = float(np.linalg.norm(theta))
    l_std = float(np.mean(family.A(u) - dataset.y * u))
    a1u, a2u, a3u = family.A1(u), family.A2(u), family.A3(u)
    resid = a1u - dataset.y
    r_rows = {}
    for beta in betas:
        half_beta2 = 0.5 * beta * beta
        r1 = float(-half_beta2 * np.mean(resid * ts))
        r2 = float(half_beta2 * np.mean(a2u) * (norm_theta ** 2))
        r_rows[beta] = (r1, r2, 0.0)
    acc = {beta: [0.0, 0.0] for beta in betas}
    drawn = 0
    chunk_size = min(n_mc, 1 << 14)
    chunk_id = 0
    status = "ok"

    def stderr_ok():
        for beta in betas:
            sq, sq2 = acc[beta]
            mean = sq / drawn
            var = max(sq2 / drawn - mean * mean, 0.0)
            se = math.sqrt(var / drawn)
            if se > stderr_frac * abs(mean) and not (se == 0.0 and mean == 0.0):
                return False
        return True

    target = min(n_mc, max_mc)
    while True:
        while drawn < target:
            m = min(chunk_size, target - drawn)
            a = derive_stream(base_seed, [("scan_chunk", chunk_id)]).standard_normal((k, m))
            a *= norm_theta
            chunk_id += 1
            for beta in betas:
                ut = u[:, None] + beta * a + beta * beta * b[:, None]
                loss = family.A(ut) - dataset.y[:, None] * ut
                taylor = (
                    (family.A(u) - dataset.y * u)[:, None]
                    + beta * resid[:, None] * a
                    + 0.5 * beta * beta * (a2u[:, None] * a * a + (2.0 * b * resid)[:, None])
                    + (beta ** 3 / 6.0) * (a3u[:, None] * a ** 3 + (6.0 * a2u * b)[:, None] * a)
                )
                q = np.mean(loss - taylor, axis=0)
                acc[beta][0] += float(np.sum(q))
                acc[beta][1] += float(np.sum(q * q))
            drawn += m
        if stderr_ok():
            break
        if drawn >= max_mc:
            status = "inconclusive"
            break
        target = min(2 * drawn, max_mc)

    rows = []
    for beta in betas:
        sq, sq2 = acc[beta]
        mean_q = sq / drawn
        var_q = max(sq2 / drawn - mean_q * mean_q, 0.0)
        r1, r2, r3 = r_rows[beta]
        rows.append(TheoryRow(beta=beta, l_std=l_std, l_aug_mc=l_std + r1 + r2 + r3 + mean_q,
                              mc_stderr=math.sqrt(var_q / drawn), r1=r1, r2=r2, r3=r3,
                              r_glm=reg_glm(theta, dataset, beta)))
    report = TheoryReport(rows=rows, status=status, mc_draws=drawn)
    rems = np.array([abs(r.rem_gen) for r in rows])
    wrong = np.array([abs(r.rem_gen - (r.r1 + r.r2 + r.r3)) for r in rows])
    logb = np.log(np.array(betas))
    if np.all(rems > 0):
        report.slope = float(np.polyfit(logb, np.log(rems), 1)[0])
    if np.all(wrong > 0):
        report.slope_wrong_factor = float(np.polyfit(logb, np.log(wrong), 1)[0])
    return report


def reference_rho(dataset, family, count, kappa1, kappa2, rng, radii):
    """estimate_rho one probe at a time."""
    family = get_family(family)
    worst, skipped = math.inf, 0
    for p in range(count):
        direction = rng.standard_normal(dataset.dim)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            skipped += 1
            continue
        theta = direction / norm * radii[p % len(radii)]
        u = dataset.x @ theta
        denom = min(1.0, float(np.mean(u * u)))
        if denom < 1e-12:
            skipped += 1
            continue
        numer = float(np.mean(family.A2(u))) - (kappa1 / kappa2) * math.sqrt(
            float(np.mean(family.A1(u) ** 2)))
        worst = min(worst, numer / denom)
    if not math.isfinite(worst):
        raise ConfigError("all probes skipped; cannot estimate rho")
    return max(worst, 0.0), skipped


def reference_constraint_max(theta, dataset, count, radii, rng):
    """The probe-maximum constraint one constraint_value call per probe."""
    gamma = constraint_value(theta, dataset)
    for p in range(count):
        direction = rng.standard_normal(dataset.dim)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            continue
        gamma = max(gamma, constraint_value(direction / norm * radii[p % len(radii)], dataset))
    return gamma


def bits(value):
    return value if isinstance(value, str) or value is None else np.float64(value).tobytes()


def assert_same_report(got, want):
    assert got.status == want.status
    assert got.mc_draws == want.mc_draws
    assert bits(got.slope) == bits(want.slope)
    assert bits(got.slope_wrong_factor) == bits(want.slope_wrong_factor)
    assert len(got.rows) == len(want.rows)
    for g, w in zip(got.rows, want.rows):
        assert [bits(v) for v in astuple(g)] == [bits(v) for v in astuple(w)]


def glm(family, k=60, seed=44, scale=0.25):
    return generate_vector_glm(k, np.zeros(2), np.eye(2) * scale, np.array([0.5, 0.3]),
                               family, seed)


class TestBlockedScan:
    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    @pytest.mark.parametrize("n_mc", [100, 129, 1000, 4096])
    def test_matches_whole_chunk_scan(self, family, n_mc):
        # 129 would leave a lone last column; 1000 ends in a partial block
        ds = glm(family)
        theta = np.array(THETAS[family])
        got = taylor_remainder_scan(theta, ds, BETAS, n_mc=n_mc)
        assert_same_report(got, reference_scan(theta, ds, BETAS, n_mc=n_mc))

    def test_matches_at_cli_geometry(self):
        ds = generate_vector_glm(200, np.zeros(2), np.eye(2) * 0.49, np.array([1.0, -0.5]),
                                 "logistic", 11)
        got = taylor_remainder_scan(np.array([1.0, -0.5]), ds, BETAS, n_mc=4096, base_seed=11)
        want = reference_scan(np.array([1.0, -0.5]), ds, BETAS, n_mc=4096, base_seed=11)
        assert_same_report(got, want)

    def test_matches_when_draws_double(self):
        ds = glm("logistic")
        theta = np.array(THETAS["logistic"])
        kwargs = dict(n_mc=300, max_mc=5000, stderr_frac=0.005)
        got = taylor_remainder_scan(theta, ds, BETAS, **kwargs)
        assert got.status == "ok" and got.mc_draws == 2400    # three doublings
        assert_same_report(got, reference_scan(theta, ds, BETAS, **kwargs))

    def test_matches_when_inconclusive(self):
        ds = generate_vector_glm(20, np.zeros(2), np.eye(2), np.ones(2), "logistic", 13)
        kwargs = dict(n_mc=16, max_mc=32, stderr_frac=1e-9)
        got = taylor_remainder_scan(np.ones(2), ds, BETAS, **kwargs)
        assert got.status == "inconclusive"
        assert_same_report(got, reference_scan(np.ones(2), ds, BETAS, **kwargs))

    def test_column_blocks_cover_without_lone_column(self):
        for m in (1, 2, 127, 128, 129, 130, 256, 257, 1000, 4096):
            blocks = list(block_ranges(m, theory._SCAN_BLOCK))
            assert blocks[0][0] == 0 and blocks[-1][1] == m
            assert all(hi == lo2 for (_, hi), (lo2, _) in zip(blocks, blocks[1:]))
            assert all(hi - lo >= 2 for lo, hi in blocks) or m == 1


class TestBatchedProbes:
    @pytest.mark.parametrize("family,kappa1,kappa2,radii", [
        ("gaussian", 0.5, 9.0, (3.0, 3.5, 4.0)),
        ("logistic", 2.0, 1.0, (1.0, 2.0, 4.0)),
        ("logistic", 0.1, 0.81, (0.9, 1.0, 1.1)),
        ("poisson", 0.2, 0.25, (0.5, 1.0)),
    ])
    def test_estimate_rho_matches_probe_loop(self, family, kappa1, kappa2, radii):
        ds = glm(family, k=200, scale=0.49)
        for seed in (0, 1, 11):
            got = estimate_rho(ds, family, 1000, kappa1, kappa2,
                               derive_stream(seed, [("rho", 0)]), radii=radii)
            want = reference_rho(ds, family, 1000, kappa1, kappa2,
                                 derive_stream(seed, [("rho", 0)]), radii)
            assert got[1] == want[1]
            assert bits(got[0]) == bits(want[0])

    def test_estimate_rho_all_skipped(self):
        # data at the origin: every probe has a zero denominator
        ds = GlmVectorDataset(x=np.zeros((10, 2)), y=np.zeros(10), mu=np.zeros(2),
                              sigma_mat=np.eye(2), theta_star=np.zeros(2), family="gaussian")
        for estimate in (estimate_rho, lambda *args, radii: reference_rho(*args, radii)):
            with pytest.raises(ConfigError, match="all probes skipped"):
                estimate(ds, "gaussian", 50, 1.0, 1.0, derive_stream(0, [("p", 0)]),
                         radii=(1.0,))
        with pytest.raises(ConfigError, match="all probes skipped"):
            estimate_rho(ds, "gaussian", 0, 1.0, 1.0, derive_stream(0, [("p", 0)]),
                         radii=(1.0, 2.0, 4.0))

    def test_estimate_rho_poisson_guard(self):
        # radius-400 probes overflow exp(u)**2; that is a numeric failure,
        # not a probe skipped for a near-zero denominator
        ds = glm("poisson", k=200, scale=0.49)
        with pytest.raises(NumericError, match="overflow guard"):
            estimate_rho(ds, "poisson", 1000, 0.2, 0.25, derive_stream(0, [("rho", 0)]),
                         radii=(0.5, 400.0))

    @pytest.mark.parametrize("family,radii", [
        ("gaussian", [4.0, 4.5, 5.0]),
        ("logistic", [0.9, 1.0, 1.1]),
        ("poisson", [0.5, 1.0, 1.5]),
    ])
    def test_constraint_max_matches_probe_loop(self, family, radii):
        ds = glm(family, k=200, scale=0.49)
        theta = np.array(THETAS[family])
        for seed in (1, 66):
            got = constraint_max(theta, ds, 600, radii, derive_stream(seed, [("g", 0)]))
            want = reference_constraint_max(theta, ds, 600, radii,
                                            derive_stream(seed, [("g", 0)]))
            assert bits(got) == bits(want)
        assert constraint_max(theta, ds, 0, radii, derive_stream(0, [("g", 0)])) == \
            constraint_value(theta, ds)

    def test_constraint_max_poisson_guard(self):
        # theta stays under the overflow guard; probes of radius 40 do not
        ds = glm("poisson", k=200, scale=0.49)
        theta = np.array(THETAS["poisson"])
        assert math.isfinite(constraint_value(theta, ds))
        with pytest.raises(NumericError, match="overflow guard"):
            constraint_max(theta, ds, 20, [40.0], derive_stream(0, [("g", 0)]))
        with pytest.raises(NumericError, match="overflow guard"):
            reference_constraint_max(theta, ds, 20, [40.0], derive_stream(0, [("g", 0)]))


def test_logistic_derivatives_share_one_sigmoid():
    u = derive_stream(5, [("u", 0)]).standard_normal(2000) * 8.0
    s = theory._sigmoid(u)
    family = get_family("logistic")
    assert np.array_equal(family.A2(u), s * (1.0 - s))
    assert np.array_equal(family.A3(u), s * (1.0 - s) * (1.0 - 2.0 * s))


def test_sigmoid_has_the_bits_of_nets_sigmoid():
    # theory may not import nets, so it states the same formula; the two
    # must agree bit for bit, also at +-0, +-inf, subnormals and |u| > 745
    stream = derive_stream(6, [("u", 0)])
    u = np.concatenate([
        stream.standard_normal(200_000) * scale for scale in (1.0, 8.0, 40.0, 800.0)
    ] + [np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
                   -2.2e-308, 745.2, -745.2, 746.0, -746.0, 1e308, -1e308])])
    assert np.array_equal(theory._sigmoid(u), nets.sigmoid(u), equal_nan=True)


def test_theory_imports_no_image_layers():
    # the theory harness runs on GLM vectors alone; the benchmark's theory
    # workload relies on it never loading the image and sampling layers
    package = Path(theory.__file__).parent
    seen, todo = set(), ["theory"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo.extend([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("langaug"):
                todo.append(node.module.split(".")[1] if "." in node.module else node.module)
            elif isinstance(node, ast.Import):
                todo.extend(a.name.split(".")[1] for a in node.names
                            if a.name.startswith("langaug."))
    assert "theory" in seen and "numerics" in seen
    assert seen.isdisjoint({"nets", "energy", "langevin", "segmenter", "pipeline"})
