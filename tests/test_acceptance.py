"""Acceptance suite: one test per numbered criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; each criterion asserts its stated tolerance.
"""
import csv
import io
import math
import time

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from langaug.cdtrain import CdConfig, train_all_pairs, train_ebm
from langaug.energy import (EnergyArch, EnergyParams, energy_value_and_grad_input,
                            energy_value_and_grad_params, init_energy_params)
from langaug.langevin import LangevinConfig, run_chain_batch
from langaug.numerics import AdamHyper, derive_stream
from finite_diff import relative_error
from langaug.pipeline import generate_augmented
from langaug.segmenter import (SegArch, SegModel, SegTrainConfig, init_seg_model,
                               leave_one_out_eval, seg_loss_and_grad, write_results_csv)
from langaug.synth import GlmVectorDataset, generate_benchmark, generate_vector_glm
from langaug.theory import (constraint_value, empirical_rademacher, estimate_rho,
                            generalization_bound, loss_constants, radius_and_C, reg_glm,
                            reg_terms_general, taylor_remainder_scan)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def batched_input_fd(params, x, h=1e-5):
    """Central differences over every input coordinate in one batched pass."""
    flat = x.ravel()
    n = flat.size
    probes = np.repeat(flat[None, :], 2 * n, axis=0)
    idx = np.arange(n)
    probes[2 * idx, idx] += h
    probes[2 * idx + 1, idx] -= h
    energies, _ = energy_value_and_grad_input(params, probes.reshape((2 * n,) + x.shape))
    return (energies[0::2] - energies[1::2]) / (2 * h)


def jittered_params(arch, seed, scale=0.3):
    base = init_energy_params(arch, seed)
    jitter = derive_stream(seed, [("accept_jitter", 0)]).standard_normal(arch.param_count)
    return EnergyParams(arch, base.theta + scale * jitter)


class TestCriterion1GradientFidelity:
    def test_energy_and_segmenter_gradients(self):
        t0 = time.time()
        archs = [
            EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=1),
            EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=4),
            EnergyArch(kind="conv", input_shape=(1, 8, 8), conv_blocks=7),
        ]
        worst = 0.0
        for arch in archs:
            for cfg in range(100):
                params = jittered_params(arch, 1000 + cfg, scale=0.2)
                x = derive_stream(2000 + cfg, [("x", 0)]).standard_normal(arch.input_shape)
                gx = energy_value_and_grad_input(params, x[None])[1][0].ravel()
                fx = batched_input_fd(params, x)
                worst = max(worst, relative_error(gx, fx))
                coords = derive_stream(3000 + cfg, [("c", 0)]).choice(arch.param_count, 5,
                                                                  replace=False)
                gt = energy_value_and_grad_params(params, x[None])[1][coords]
                ft = np.empty(5)
                for m, c in enumerate(coords):
                    tp = params.theta.copy(); tp[c] += 1e-5
                    tm = params.theta.copy(); tm[c] -= 1e-5
                    e_plus, _ = energy_value_and_grad_input(EnergyParams(arch, tp), x[None])
                    e_minus, _ = energy_value_and_grad_input(EnergyParams(arch, tm), x[None])
                    ft[m] = (e_plus[0] - e_minus[0]) / 2e-5
                worst = max(worst, relative_error(gt, ft))
                assert worst <= 1e-4, f"{arch.kind}/{arch.conv_blocks} config {cfg}: {worst:.2e}"
        seg_arch = SegArch()
        for cfg in range(100):
            model = init_seg_model(seg_arch, 500 + cfg)
            model = SegModel(seg_arch, model.theta
                             + 0.2 * derive_stream(cfg, [("sj", 0)]).standard_normal(seg_arch.param_count))
            x = derive_stream(cfg, [("sx", 0)]).uniform(size=(2, 1, 8, 8))
            m = (derive_stream(cfg, [("sm", 0)]).uniform(size=(2, 8, 8)) > 0.5).astype(float)
            _, grad = seg_loss_and_grad(model, x, m)
            coords = derive_stream(cfg, [("sc", 0)]).choice(seg_arch.param_count, 6,
                                                              replace=False)
            fd = np.empty(6)
            for k, c in enumerate(coords):
                tp = model.theta.copy(); tp[c] += 1e-5
                tm = model.theta.copy(); tm[c] -= 1e-5
                fd[k] = (seg_loss_and_grad(SegModel(seg_arch, tp), x, m)[0]
                         - seg_loss_and_grad(SegModel(seg_arch, tm), x, m)[0]) / 2e-5
            worst = max(worst, relative_error(grad[coords], fd))
            assert worst <= 1e-4
        report(1, worst <= 1e-4,
               f"gradient fidelity: worst rel err {worst:.2e} <= 1e-4 "
               f"(3 energy archs + segmenter loss x 100 configs, {time.time()-t0:.0f}s)")


def run_stationarity(base_seed=7):
    mu = np.array([1.0, -1.0])
    beta = 0.05
    arch = EnergyArch(kind="quadratic", input_shape=(2,))
    params = EnergyParams(arch, mu.copy())
    config = LangevinConfig(step_size=beta, n_steps=20000, store_stride=1, store_offset=10001)
    # all 64 chains in one batch; each chain's x0 and then its noise come
    # from that chain's own stream
    x0, noise = np.empty((64, 2)), np.empty((config.n_steps, 64, 2))
    for c in range(64):
        rng = derive_stream(base_seed, [("chain", c)])
        x0[c] = rng.standard_normal(2)
        noise[:, c] = rng.standard_normal((config.n_steps, 2))
    _, stored = run_chain_batch(x0, params, config, noise)
    all_its = np.stack([stored[t] for t in config.stored_steps()])   # (steps, 64, 2)
    chain_means = []
    sq_sum = np.zeros(2)
    count = 0
    mean_sum = np.zeros(2)
    for c in range(64):
        its = all_its[:, c]
        chain_means.append(its.mean(axis=0))
        mean_sum += its.sum(axis=0)
        sq_sum += (its**2).sum(axis=0)
        count += its.shape[0]
    chain_means = np.array(chain_means)
    pooled_mean = mean_sum / count
    pooled_var = sq_sum / count - pooled_mean**2
    stderr = chain_means.std(axis=0, ddof=1) / np.sqrt(64)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["chain", "mean_x", "mean_y"])
    for c, m in enumerate(chain_means):
        writer.writerow([c, repr(float(m[0])), repr(float(m[1]))])
    writer.writerow(["pooled", repr(float(pooled_mean[0])), repr(float(pooled_mean[1]))])
    return mu, beta, pooled_mean, pooled_var, stderr, buf.getvalue()


class TestCriterion2LangevinStationarity:
    def test_pooled_chains(self):
        t0 = time.time()
        mu, beta, mean, var, stderr, _ = run_stationarity()
        var_analytic = 1.0 / (1.0 - beta**2 / 4.0)
        mean_ok = np.all(np.abs(mean - mu) <= 3 * stderr)
        var_ok = np.all(np.abs(var / var_analytic - 1.0) <= 0.10)
        report(2, mean_ok and var_ok,
               f"stationarity: |mean err|/stderr {np.abs(mean - mu) / stderr} (<=3), "
               f"cov diag rel err {np.abs(var / var_analytic - 1.0)} (<=0.10), "
               f"{time.time()-t0:.0f}s")


def run_cd_recovery(seed):
    src = derive_stream(seed, [("src", 0)]).standard_normal((2000, 1))
    tgt = 3.0 + derive_stream(seed, [("tgt", 0)]).standard_normal((2000, 1))
    arch = EnergyArch(kind="quadratic", input_shape=(1,))
    config = CdConfig(n_iters=1500, batch_size=64,
                      ld=LangevinConfig(step_size=0.7, n_steps=40),
                      adam=AdamHyper(lr=0.01), base_seed=seed)
    params, trace = train_ebm(src, tgt, arch, config)
    return float(params.theta[0]), trace


class TestCriterion3CdRecovery:
    def test_three_seeds(self):
        t0 = time.time()
        errors = []
        for seed in (0, 1, 2):
            theta, _ = run_cd_recovery(seed)
            errors.append(abs(theta - 3.0))
        ok = all(e < 0.1 for e in errors)
        report(3, ok, f"CD recovery: |theta - 3| = {[f'{e:.4f}' for e in errors]} "
                      f"(<0.1 on 3/3 seeds, {time.time()-t0:.0f}s)")


def run_theory_scan():
    ds = generate_vector_glm(200, np.zeros(2), np.eye(2) * 0.49,
                             np.array([1.0, 0.5]), "logistic", 11)
    theta = np.array([1.0, -0.5])
    return taylor_remainder_scan(theta, ds, [0.02, 0.04, 0.08, 0.16], n_mc=4096)


class TestCriterion4Decomposition:
    def test_scan_slope_and_factor(self):
        t0 = time.time()
        rep = run_theory_scan()
        stderr_ok = all(r.mc_stderr < 0.1 * abs(r.rem_gen) for r in rep.rows)
        slope_ok = rep.slope is not None and rep.slope > 2.0
        wrong_ok = rep.slope_wrong_factor is not None and rep.slope_wrong_factor <= 2.1
        report(4, rep.status == "ok" and stderr_ok and slope_ok and wrong_ok,
               f"decomposition: slope {rep.slope:.3f} > 2.0, doubled-R slope "
               f"{rep.slope_wrong_factor:.3f} <= 2.1, max stderr/|rem| "
               f"{max(r.mc_stderr / abs(r.rem_gen) for r in rep.rows):.3f} < 0.1, "
               f"{time.time()-t0:.0f}s")


class TestCriterion5LabelFreeIdentity:
    def test_label_free_substitution(self):
        t0 = time.time()
        stream = derive_stream(55, [("cfg", 0)])
        worst = 0.0
        for trial in range(100):
            family = ("gaussian", "logistic", "poisson")[trial % 3]
            d = 2 + trial % 4
            x = stream.standard_normal((8, d)) * 0.6
            y = stream.uniform(size=8)
            ds = GlmVectorDataset(x=x, y=y, mu=np.zeros(d), sigma_mat=np.eye(d),
                                  theta_star=np.zeros(d), family=family)
            zeroed = GlmVectorDataset(x=x, y=np.zeros(8), mu=np.zeros(d),
                                      sigma_mat=np.eye(d), theta_star=np.zeros(d),
                                      family=family)
            theta = stream.standard_normal(d) * 0.6
            beta = float(stream.uniform(0.05, 1.0))
            r1, r2, r3 = reg_terms_general(theta, zeroed, beta)
            worst = max(worst, abs((r1 + r2 + r3) - reg_glm(theta, ds, beta)))
        report(5, worst <= 1e-12,
               f"label-free identity (labels zeroed in R1): max |diff| {worst:.2e} <= 1e-12, "
               f"{time.time()-t0:.0f}s")


def embed_orthonormal(x, ambient, seed):
    d = x.shape[1]
    if ambient == d:
        return x
    raw = derive_stream(seed, [("embed", ambient)]).standard_normal((ambient, d))
    q, _ = np.linalg.qr(raw)
    return x @ q[:, :d].T


class TestCriterion6RademacherBound:
    def test_rank_two_embeddings(self):
        t0 = time.time()
        k = 200
        latent = generate_vector_glm(k, np.zeros(2), np.eye(2) * 0.49,
                                     np.ones(2), "gaussian", 66)
        kappa1 = float(np.trace(np.linalg.inv(latent.sigma_mat)))
        radii = (4.0, 4.5, 5.0)
        kappa2 = min(radii) ** 2
        rho_hat, _ = estimate_rho(latent, "gaussian", 600, kappa1, kappa2,
                                  derive_stream(66, [("rho", 0)]), radii=radii)
        assert rho_hat > 0, "retentiveness estimate must be positive for this design"
        probe_rng = derive_stream(66, [("gamma_probes", 0)])
        gamma = 0.0
        for p in range(600):
            direction = probe_rng.standard_normal(2)
            theta = direction / np.linalg.norm(direction) * radii[p % 3]
            gamma = max(gamma, constraint_value(theta, latent))
        radius, c_const = radius_and_C(gamma, rho_hat, 0.49)
        bound = c_const * math.sqrt(2 / k)
        estimates = {}
        for ambient in (2, 20, 200):
            x_emb = embed_orthonormal(latent.x, ambient, 66)
            estimates[ambient] = empirical_rademacher(
                x_emb, radius, 2000, derive_stream(66, [("rad", ambient)]))
        vals = np.array(list(estimates.values()))
        sound = bool(np.all(vals <= bound))
        spread = float(vals.max() - vals.min()) / float(vals.mean())
        report(6, sound and spread < 0.10,
               f"rademacher: rho_hat {rho_hat:.4f} > 0, estimates {vals.round(4).tolist()} "
               f"<= bound {bound:.4f}, ambient spread {spread:.4f} < 0.10, "
               f"{time.time()-t0:.0f}s")


class TestCriterion7CoverageBound:
    def test_hundred_replicates(self):
        t0 = time.time()
        d_latent, ambient, k = 2, 20, 200
        sigma = np.eye(d_latent) * 0.49
        theta_star_latent = np.array([10.0, 0.0])
        nodes, weights = hermegauss(96)
        u_nodes = nodes * math.sqrt(0.49 * 100.0)  # theta.x ~ N(0, 49)
        sig = 1.0 / (1.0 + np.exp(-u_nodes))
        true_risk = float(np.sum(weights * (np.logaddexp(0, u_nodes) - sig * u_nodes))
                          / math.sqrt(2 * math.pi))
        kappa1 = float(np.trace(np.linalg.inv(sigma)))
        radii = (9.0, 10.0, 11.0)
        covered = 0
        for rep in range(100):
            ds = generate_vector_glm(k, np.zeros(d_latent), sigma, theta_star_latent,
                                     "logistic", seed=9000 + rep)
            l_std = float(np.mean(np.logaddexp(0, ds.x @ theta_star_latent)
                                  - ds.y * (ds.x @ theta_star_latent)))
            rho_hat, _ = estimate_rho(ds, "logistic", 150, kappa1, min(radii) ** 2,
                                      derive_stream(9000 + rep, [("rho", 0)]), radii=radii)
            if rho_hat <= 0:
                continue
            gamma = max(constraint_value(theta_star_latent, ds), 1e-6)
            _, c_const = radius_and_C(gamma, rho_hat, 0.49)
            L, L_A, B = loss_constants(theta_star_latent, ds)
            bound = generalization_bound(l_std, c_const, 2, k, L, L_A, B, 0.05)
            if true_risk <= bound:
                covered += 1
        report(7, covered >= 95,
               f"coverage: true risk within bound on {covered}/100 replicates "
               f"(>=95 at delta=0.05, {time.time()-t0:.0f}s)")


def build_bookkeeping_pipeline():
    ds = generate_benchmark(4, 50, 16, seed=5, train_frac=1.0)
    arch = EnergyArch(kind="conv", input_shape=(1, 16, 16), conv_blocks=2)
    cd = CdConfig(n_iters=40, batch_size=8, ld=LangevinConfig(step_size=0.1, n_steps=10),
                  adam=AdamHyper(lr=0.001), base_seed=5)
    ebms = train_all_pairs([ds.train_images(d) for d in range(4)], arch, cd)
    lv = LangevinConfig(step_size=0.02, n_steps=40, store_stride=3, store_offset=3)
    aug = generate_augmented(ds, ebms, lv, base_seed=5)
    return ds, ebms, lv, aug


def counts_csv(aug):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["source", "target", "step", "count"])
    for (i, j, s), n in sorted(aug.counts_by_tag().items()):
        writer.writerow([i, j, s, n])
    return buf.getvalue()


class TestCriterion8PipelineBookkeeping:
    def test_counts_labels_and_leakage(self):
        t0 = time.time()
        ds, ebms, lv, aug = build_bookkeeping_pipeline()
        stored = lv.stored_steps()
        count_ok = len(stored) == 13 and len(aug) == 12 * 50 * 13
        masks = aug.masks_at(np.arange(len(aug)))
        masks_ok = all(
            masks[m].tobytes() == ds.masks[aug.source_domain[m]][aug.origin_index[m]].tobytes()
            for m in range(len(aug)))
        # an entry's label is its origin's mask, so every origin must be a training sample
        origins_ok = all(
            np.isin(aug.origin_index[aug.source_domain == d], ds.split[d]["train"]).all()
            for d in range(4))
        leakage_free = True
        for held_out in range(4):
            sources = [d for d in range(4) if d != held_out]
            sub = {(i, j): ebms[(i, j)] for i in sources for j in sources if i != j}
            fold_aug = generate_augmented(ds, sub, lv, base_seed=5, domains=sources)
            if held_out in fold_aug.domains_touched():
                leakage_free = False
            if len(fold_aug) != 6 * 50 * 13:
                leakage_free = False
        report(8, count_ok and masks_ok and origins_ok and leakage_free,
               f"bookkeeping: 13 iterates/chain, |D_aug| = {len(aug)} = 12*50*13, "
               f"masks bit-identical: {masks_ok}, origins in training splits: {origins_ok}, "
               f"leakage-free folds: {leakage_free}, "
               f"{time.time()-t0:.0f}s")


def run_loo_experiment(bench_seed=11, seeds=(0, 1, 2, 3, 4)):
    ds = generate_benchmark(4, 50, 16, seed=bench_seed, train_frac=0.3)
    arch = EnergyArch(kind="conv", input_shape=(1, 16, 16), conv_blocks=2)
    cd = CdConfig(n_iters=150, batch_size=8, ld=LangevinConfig(step_size=0.1, n_steps=15),
                  adam=AdamHyper(lr=0.001), base_seed=bench_seed)
    ebms = train_all_pairs([ds.train_images(d) for d in range(4)], arch, cd)
    lv = LangevinConfig(step_size=0.02, n_steps=40, store_stride=3, store_offset=3,
                        clamp_unit=True)

    # one pool over all domains; each fold trains on its slice `pool.within(sources)`
    pool = generate_augmented(ds, ebms, lv, bench_seed)
    seg = SegTrainConfig(epochs=40, batch_size=8, mix_ratio=0.5, adam=AdamHyper(lr=0.003))
    return leave_one_out_eval(ds, {"erm": None, "erm+langaug": pool}, seg, seeds=seeds)


@pytest.fixture(scope="session")
def loo_results(tmp_path_factory):
    results = run_loo_experiment()
    out = tmp_path_factory.mktemp("loo") / "results.csv"
    write_results_csv(results, out)
    return results, out.read_bytes()


class TestCriterion9DirectionalGain:
    def test_mean_gain(self, loo_results):
        t0 = time.time()
        results, _ = loo_results
        erm = np.mean([r.mean_dice for r in results if r.method == "erm"])
        aug = np.mean([r.mean_dice for r in results if r.method == "erm+langaug"])
        gain = aug - erm
        report(9, gain >= 0.02,
               f"directional gain: bridge-augmented dice {aug:.4f} vs plain {erm:.4f}, "
               f"gain {gain:+.4f} >= +0.02 over 4 folds x 5 seeds")


class TestCriterion10Determinism:
    def test_reruns_byte_identical(self, loo_results):
        t0 = time.time()
        checks = {}
        # criterion 2 artifact
        csv_a = run_stationarity()[5]
        csv_b = run_stationarity()[5]
        checks["stationarity"] = csv_a == csv_b
        # criterion 3 artifact (one seed's trace)
        _, trace_a = run_cd_recovery(0)
        _, trace_b = run_cd_recovery(0)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        for buf, trace in ((buf_a, trace_a), (buf_b, trace_b)):
            w = csv.writer(buf)
            w.writerow(["iter", "cd_surrogate", "grad_norm"])
            for i, (s, g) in enumerate(zip(trace.cd_surrogate, trace.grad_norm)):
                w.writerow([i, repr(s), repr(g)])
        checks["cd_trace"] = buf_a.getvalue() == buf_b.getvalue()
        # criterion 4 artifact
        rep_a, rep_b = run_theory_scan(), run_theory_scan()
        sa, sb = io.StringIO(), io.StringIO()

        def scan_csv(rep, buf):
            w = csv.writer(buf)
            for r in rep.rows:
                w.writerow([repr(r.beta), repr(r.l_aug_mc), repr(r.mc_stderr), repr(r.rem_gen)])
        scan_csv(rep_a, sa)
        scan_csv(rep_b, sb)
        checks["theory_scan"] = sa.getvalue() == sb.getvalue()
        # criterion 8 artifact
        _, _, _, aug_a = build_bookkeeping_pipeline()
        _, _, _, aug_b = build_bookkeeping_pipeline()
        checks["augmented_counts"] = (counts_csv(aug_a) == counts_csv(aug_b)
                                      and aug_a.images.tobytes() == aug_b.images.tobytes())
        # criterion 9 artifact: a fresh seed-0 run against the fixture's seed-0 rows
        res_a = [r for r in loo_results[0] if r.seed == 0]
        res_b = run_loo_experiment(seeds=(0,))
        ra, rb = io.StringIO(), io.StringIO()
        for res, buf in ((res_a, ra), (res_b, rb)):
            w = csv.writer(buf)
            for r in sorted(res, key=lambda r: (r.fold, r.method, r.seed)):
                w.writerow([r.fold, r.method, r.seed, repr(r.mean_dice), repr(r.mean_iou)])
        checks["loo_results"] = ra.getvalue() == rb.getvalue()
        ok = all(checks.values())
        report(10, ok, f"determinism: byte-identical reruns {checks}, {time.time()-t0:.0f}s")
