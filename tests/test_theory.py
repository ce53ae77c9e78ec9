import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from langaug.errors import ConfigError, NumericError
from langaug.numerics import derive_stream
from langaug.synth import GlmVectorDataset, generate_vector_glm
from langaug.theory import (FAMILIES, constraint_value, empirical_rademacher, estimate_rho,
                            generalization_bound, get_family, loss_constants,
                            lowest_nonzero_singular_value, matrix_rank, radius_and_C,
                            reg_glm, reg_terms_general, taylor_remainder_scan)

BETAS = [0.02, 0.04, 0.08, 0.16]


def make_dataset(x, y, mu=None, sigma=None, family="logistic"):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d = x.shape[1]
    return GlmVectorDataset(
        x=x,
        y=np.asarray(y, dtype=np.float64),
        mu=np.zeros(d) if mu is None else np.asarray(mu, dtype=np.float64),
        sigma_mat=np.eye(d) if sigma is None else np.asarray(sigma, dtype=np.float64),
        theta_star=np.zeros(d),
        family=family,
    )


def zero_labels(ds):
    return GlmVectorDataset(x=ds.x, y=np.zeros_like(ds.y), mu=ds.mu, sigma_mat=ds.sigma_mat,
                            theta_star=ds.theta_star, family=ds.family, seed=ds.seed)


def scan_l_std(theta, x, y, family):
    """The plain empirical risk mean(A(x.theta) - y x.theta) as the scan reports it."""
    ds = make_dataset(x, y, family=family)
    report = taylor_remainder_scan(np.asarray(theta, dtype=np.float64), ds, BETAS,
                                   n_mc=2, max_mc=2)
    return report.rows[0].l_std


class TestNll:
    def test_logistic_at_zero(self):
        assert scan_l_std(np.zeros(2), [[1.0, 2.0]], [1.0], "logistic") == pytest.approx(
            math.log(2.0))

    def test_gaussian(self):
        assert scan_l_std([1.0], [[1.0]], [1.0], "gaussian") == pytest.approx(-0.5)

    def test_poisson(self):
        assert scan_l_std([0.0], [[1.0]], [2.0], "poisson") == pytest.approx(1.0)

    def test_poisson_overflow_guard(self):
        with pytest.raises(NumericError):
            scan_l_std([40.0], [[1.0]], [1.0], "poisson")

    def test_families_log_partition_convex(self):
        u = derive_stream(0, [("u", 0)]).standard_normal(10_000) * 4.0
        for family in FAMILIES.values():
            vals = family.A2(np.clip(u, -25, 25) if family.name == "poisson" else u)
            assert np.all(vals >= 0.0)


# A per family, written independently of theory.FAMILIES
LOG_PARTITION = {
    "gaussian": lambda u: 0.5 * u * u,
    "logistic": lambda u: np.logaddexp(0.0, u),
    "poisson": np.exp,
}
ENVELOPE_THETAS = {"gaussian": [0.8, -0.4], "logistic": [1.0, -0.5], "poisson": [0.4, 0.2]}


def envelope_dataset(family):
    return generate_vector_glm(150, np.zeros(2), np.eye(2) * 0.25, np.array([0.5, 0.3]),
                               family, 44)


class TestRisks:
    def test_single_sample_equals_nll(self):
        u = 0.3 * 1.0 - 0.2 * 0.5
        assert scan_l_std([0.3, -0.2], [[1.0, 0.5]], [1.0], "logistic") == pytest.approx(
            math.log1p(math.exp(u)) - u)

    def test_logistic_zero_theta_is_log_two(self):
        ds = generate_vector_glm(50, np.zeros(2), np.eye(2), np.ones(2), "logistic", 3)
        assert scan_l_std(np.zeros(2), ds.x, ds.y, "logistic") == pytest.approx(math.log(2.0))

    def test_duplication_invariance(self):
        ds = generate_vector_glm(20, np.zeros(2), np.eye(2), np.ones(2), "gaussian", 4)
        theta = np.array([0.5, 1.0])
        doubled = scan_l_std(theta, np.concatenate([ds.x, ds.x]),
                             np.concatenate([ds.y, ds.y]), "gaussian")
        assert doubled == pytest.approx(scan_l_std(theta, ds.x, ds.y, "gaussian"))

    def test_aug_risk_stderr_halving(self):
        # a fixed draw budget (n_mc = max_mc): four times the draws, half the stderr
        ds = generate_vector_glm(20, np.zeros(1), np.eye(1), np.ones(1), "logistic", 6)
        theta = np.array([0.8])
        small = taylor_remainder_scan(theta, ds, BETAS, n_mc=10_000, max_mc=10_000, base_seed=2)
        large = taylor_remainder_scan(theta, ds, BETAS, n_mc=40_000, max_mc=40_000, base_seed=3)
        for s_row, l_row in zip(small.rows, large.rows):
            assert l_row.mc_stderr == pytest.approx(s_row.mc_stderr / 2.0, rel=0.2)

    def test_aug_risk_gauss_hermite_oracle(self):
        # the noised natural parameter is u + beta a + beta^2 b with
        # a = theta.eps ~ N(0, ||theta||^2) and b = -theta.s(x) / 2, so a
        # 64-node Gauss-Hermite rule gives the augmented risk far below the
        # Monte Carlo error, without the scan's draws or control variates
        nodes, weights = hermegauss(64)
        weights = weights / math.sqrt(2.0 * math.pi)
        for family, theta in ENVELOPE_THETAS.items():
            ds = envelope_dataset(family)
            theta = np.array(theta)
            report = taylor_remainder_scan(theta, ds, BETAS, n_mc=4096)
            u = ds.x @ theta
            b = -0.5 * (ds.scores() @ theta)
            a = np.linalg.norm(theta) * nodes
            for row in report.rows:
                ut = u[:, None] + row.beta * a[None, :] + row.beta ** 2 * b[:, None]
                per_sample = (LOG_PARTITION[family](ut) - ds.y[:, None] * ut) @ weights
                oracle = float(np.mean(per_sample))
                assert abs(row.l_aug_mc - oracle) <= 4 * row.mc_stderr + 1e-15, family


class TestRegTerms:
    def test_beta_zero(self):
        ds = make_dataset([[1.0, 1.0]], [0.0])
        assert reg_terms_general(np.array([1.0, 0.0]), ds, 0.0) == (0.0, 0.0, 0.0)

    def test_r3_identically_zero(self):
        ds = generate_vector_glm(10, np.zeros(3), np.eye(3), np.ones(3), "logistic", 7)
        _, _, r3 = reg_terms_general(np.array([1.0, 2.0, 3.0]), ds, 0.5)
        assert r3 == 0.0

    def test_logistic_closed_form_example(self):
        # x=(1,1), mu=0, Sigma=I gives score s=(-1,-1); theta=(1,0), y=0, beta=1
        ds = make_dataset([[1.0, 1.0]], [0.0])
        theta = np.array([1.0, 0.0])
        assert np.allclose(ds.scores()[0], [-1.0, -1.0])
        r1, r2, r3 = reg_terms_general(theta, ds, 1.0)
        sig = 1.0 / (1.0 + math.exp(-1.0))
        assert r1 == pytest.approx(0.5 * sig * 1.0, abs=1e-12)          # ~0.3655
        assert r2 == pytest.approx(0.5 * sig * (1 - sig), abs=1e-12)    # ~0.0983
        assert r3 == 0.0

    def test_reg_glm_zero_theta(self):
        for family in ("gaussian", "logistic", "poisson"):
            ds = make_dataset([[0.5, -0.5]], [1.0], family=family)
            assert reg_glm(np.zeros(2), ds, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_reg_glm_logistic_closed_form(self):
        ds = make_dataset([[1.0, 1.0]], [0.0])
        theta = np.array([1.0, 0.0])
        sig = 1.0 / (1.0 + math.exp(-1.0))
        expected = 0.5 * (sig * (1 - sig) * 1.0 + sig * 1.0)
        assert reg_glm(theta, ds, 1.0) == pytest.approx(expected, abs=1e-12)
        assert reg_glm(theta, ds, 1.0) == pytest.approx(0.46384, abs=5e-6)

    def test_reg_glm_gaussian_symbolic(self):
        ds = generate_vector_glm(25, np.zeros(2), np.eye(2) * 0.7, np.ones(2), "gaussian", 8)
        theta = np.array([0.8, -1.1])
        beta = 0.37
        u = ds.x @ theta
        ts = ds.scores() @ theta
        expected = beta**2 / 2 * np.mean(theta @ theta - u * ts)
        assert reg_glm(theta, ds, beta) == pytest.approx(expected, rel=1e-12)

    def test_label_free_identity(self):
        # reg_glm keeps only the label-free part of R1: with labels zeroed,
        # R1 + R2 + R3 equals reg_glm exactly
        stream = derive_stream(9, [("cfg", 0)])
        for trial in range(100):
            family = ("gaussian", "logistic", "poisson")[trial % 3]
            d = 2 + trial % 3
            x = stream.standard_normal((5, d)) * 0.5
            y = stream.uniform(size=5)
            ds = make_dataset(x, y, family=family)
            theta = stream.standard_normal(d) * 0.5
            beta = float(stream.uniform(0.05, 1.0))
            r1, r2, r3 = reg_terms_general(theta, zero_labels(ds), beta)
            assert abs((r1 + r2 + r3) - reg_glm(theta, ds, beta)) <= 1e-12

    def test_remainder_difference_identity(self):
        # rem_glm - rem_gen = (R1+R2+R3) - R_glm = +(beta^2/2k) sum y theta.s
        stream = derive_stream(10, [("cfg", 0)])
        for _ in range(50):
            x = stream.standard_normal((6, 2))
            y = stream.uniform(size=6)
            ds = make_dataset(x, y, family="logistic")
            theta = stream.standard_normal(2)
            beta = 0.4
            r1, r2, r3 = reg_terms_general(theta, ds, beta)
            diff = (r1 + r2 + r3) - reg_glm(theta, ds, beta)
            expected = beta**2 / 2 * np.mean(y * (ds.scores() @ theta))
            assert diff == pytest.approx(expected, abs=1e-12)


class TestRemainderScan:
    def test_logistic_slope_and_precision(self):
        ds = generate_vector_glm(200, np.zeros(2), np.eye(2) * 0.49,
                                 np.array([1.0, 0.5]), "logistic", 11)
        report = taylor_remainder_scan(np.array([1.0, -0.5]), ds,
                                       [0.02, 0.04, 0.08, 0.16], n_mc=4096)
        assert report.status == "ok"
        assert report.slope > 2.0
        assert report.slope_wrong_factor <= 2.1
        for row in report.rows:
            assert row.mc_stderr <= 0.1 * abs(row.rem_gen)
        rems = [abs(r.rem_gen) for r in report.rows]
        assert all(a < b for a, b in zip(rems, rems[1:]))

    def test_gaussian_remainder_exact_quartic(self):
        # quadratic log-partition makes the third-order-corrected draw exact:
        # remainder = (beta^4 / 8) mean((theta . s)^2) with zero variance
        ds = generate_vector_glm(100, np.zeros(2), np.eye(2) * 0.8,
                                 np.ones(2), "gaussian", 12)
        theta = np.array([0.7, -0.3])
        report = taylor_remainder_scan(theta, ds, [0.02, 0.04, 0.08, 0.16], n_mc=128)
        ts = ds.scores() @ theta
        for row in report.rows:
            expected = row.beta**4 / 8.0 * np.mean(ts**2)
            assert row.rem_gen == pytest.approx(expected, rel=1e-9)
            assert row.mc_stderr < 1e-12
        assert report.slope == pytest.approx(4.0, abs=1e-6)

    def test_gaussian_zero_score_direction(self):
        # all x at the Gaussian mean: score is zero, the expansion is exact
        # and the remainder vanishes identically
        ds = make_dataset(np.zeros((5, 2)), np.zeros(5), family="gaussian")
        report = taylor_remainder_scan(np.array([1.0, 1.0]), ds,
                                       [0.05, 0.1, 0.2, 0.4], n_mc=64)
        for row in report.rows:
            assert row.rem_gen == pytest.approx(0.0, abs=3 * row.mc_stderr + 1e-15)

    @pytest.mark.parametrize("family,theta", list(ENVELOPE_THETAS.items()))
    def test_remainder_envelope_all_families(self, family, theta):
        # |rem| <= max(3 stderr, c beta^2.5) with c fitted on the largest
        # beta row, plus a > 2 log-log slope, for every family
        report = taylor_remainder_scan(np.array(theta), envelope_dataset(family), BETAS,
                                       n_mc=4096)
        assert report.status == "ok"
        top = report.rows[-1]
        c = abs(top.rem_gen) / top.beta**2.5
        for row in report.rows:
            assert abs(row.rem_gen) <= max(3 * row.mc_stderr, c * row.beta**2.5)
        if report.slope is not None:
            assert report.slope > 2.0

    def test_inconclusive_status_reported(self):
        ds = generate_vector_glm(20, np.zeros(2), np.eye(2), np.ones(2), "logistic", 13)
        report = taylor_remainder_scan(np.ones(2), ds, [0.02, 0.04, 0.08, 0.16],
                                       n_mc=16, max_mc=32, stderr_frac=1e-9)
        assert report.status == "inconclusive"

    def test_validation(self):
        ds = generate_vector_glm(10, np.zeros(2), np.eye(2), np.ones(2), "logistic", 14)
        with pytest.raises(ConfigError):
            taylor_remainder_scan(np.ones(2), ds, [0.1, 0.2, 0.4], n_mc=8)
        with pytest.raises(ConfigError):
            taylor_remainder_scan(np.ones(2), ds, [0.0, 0.1, 0.2, 0.4], n_mc=8)
        with pytest.raises(ConfigError):
            taylor_remainder_scan(np.ones(2), ds, [0.1, 0.2, 0.3, 0.4], n_mc=8)

    def test_repeated_betas_rejected(self):
        # draw sums are kept per beta value, so a repeated beta would have
        # its draws counted twice against one draw count
        ds = generate_vector_glm(200, np.zeros(2), np.eye(2) * 0.49,
                                 np.array([1.0, 0.5]), "logistic", 11)
        with pytest.raises(ConfigError, match="distinct"):
            taylor_remainder_scan(np.array([1.0, -0.5]), ds, [0.02, 0.04, 0.04, 0.08, 0.16],
                                  n_mc=4096)


class TestRademacher:
    def test_radius_and_c_units(self):
        r, c = radius_and_C(1.0, 1.0, 1.0)
        assert (r, c) == (1.0, 1.0)

    def test_radius_and_c_arithmetic(self):
        r, c = radius_and_C(4.0, 1.0, 1.0)
        assert r == pytest.approx(2.0)
        assert c == pytest.approx(2.0)

    def test_radius_and_c_quartic_branch(self):
        r, c = radius_and_C(0.01, 1.0, 0.01)
        assert r == pytest.approx(1.0)
        assert c == pytest.approx(1.0)

    def test_radius_positive_inputs_required(self):
        with pytest.raises(ConfigError):
            radius_and_C(0.0, 1.0, 1.0)

    def test_zero_radius(self):
        x = derive_stream(15, [("x", 0)]).standard_normal((10, 3))
        assert empirical_rademacher(x, 0.0, 100, derive_stream(0, [("r", 0)])) == 0.0

    def test_single_unit_vector(self):
        x = np.array([[0.6, 0.8]])
        est = empirical_rademacher(x, 1.0, 50, derive_stream(1, [("r", 0)]))
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_binomial_oracle(self):
        # exact E|sum of 100 signs| / 100 by binomial enumeration
        k = 100
        exact = sum(math.comb(k, j) * abs(2 * j - k) for j in range(k + 1)) / (2**k * k)
        v = np.array([3.0, 4.0]) / 5.0
        x = np.tile(v, (k, 1))
        est, se = empirical_rademacher(x, 1.0, 4000, derive_stream(2, [("r", 0)]),
                                       with_stderr=True)
        assert est == pytest.approx(exact, abs=3 * se)

    def test_estimate_rho_gaussian_kappa1_zero(self):
        ds = generate_vector_glm(500, np.zeros(2), np.eye(2), np.ones(2), "gaussian", 16)
        rho, skipped = estimate_rho(ds, "gaussian", 200, kappa1=0.0, kappa2=1.0,
                                    rng=derive_stream(3, [("p", 0)]), radii=(1.0, 2.0, 4.0))
        assert rho >= 1.0
        assert skipped == 0

    def test_estimate_rho_clamps_at_zero(self):
        ds = generate_vector_glm(500, np.zeros(2), np.eye(2), np.ones(2), "logistic", 17)
        rho, _ = estimate_rho(ds, "logistic", 200, kappa1=2.0, kappa2=1.0,
                              rng=derive_stream(4, [("p", 0)]), radii=(1.0, 2.0, 4.0))
        assert rho == 0.0

    def test_estimate_rho_reproducible(self):
        ds = generate_vector_glm(500, np.zeros(2), np.eye(2) * 0.49, np.ones(2), "gaussian", 18)
        values = []
        for seed in (0, 1):
            rho, _ = estimate_rho(ds, "gaussian", 1000, kappa1=0.5, kappa2=9.0,
                                  rng=derive_stream(seed, [("p", 0)]),
                                  radii=(3.0, 3.5, 4.0))
            values.append(rho)
        assert values[0] > 0
        assert abs(values[0] - values[1]) <= 0.05 * max(values)


class TestBound:
    def test_arithmetic_example(self):
        val = generalization_bound(0.5, 1.0, 2, 100, 1.0, 1.0, 1.0, 0.05)
        assert val == pytest.approx(0.5 + 0.28284 + 0.12239, abs=1e-4)

    def test_delta_to_one_kills_last_term(self):
        tight = generalization_bound(0.5, 1.0, 2, 100, 1.0, 1.0, 1.0, 1.0 - 1e-12)
        assert tight == pytest.approx(0.5 + 2.0 * math.sqrt(2 / 100), abs=1e-6)

    def test_domain_violations(self):
        with pytest.raises(ConfigError):
            generalization_bound(0.5, 1.0, 2, 100, 1.0, 1.0, 1.0, 1.5)
        with pytest.raises(ConfigError):
            generalization_bound(0.5, -1.0, 2, 100, 1.0, 1.0, 1.0, 0.1)

    def test_loss_constants_cover_data(self):
        ds = generate_vector_glm(100, np.zeros(2), np.eye(2), np.ones(2), "logistic", 19)
        theta = np.array([1.0, 0.5])
        L, L_A, B = loss_constants(theta, ds)
        assert 0 < L_A <= 1.0
        u = ds.x @ theta
        losses = np.abs(np.logaddexp(0, u) - ds.y * u)
        assert B >= losses.max()

    def test_rank_helpers(self):
        q, _ = np.linalg.qr(derive_stream(20, [("q", 0)]).standard_normal((5, 5)))
        sigma = q[:, :2] @ np.diag([1.0, 0.25]) @ q[:, :2].T
        assert matrix_rank(sigma) == 2
        assert lowest_nonzero_singular_value(sigma) == pytest.approx(0.25, abs=1e-10)


def test_constraint_value_gaussian_closed_form():
    # gaussian family with mu=0: theta.E[A'' theta - A' s] = ||theta||^2 + theta.Sigma^-1 Sigma theta
    ds = generate_vector_glm(40_000, np.zeros(2), np.eye(2) * 0.49, np.ones(2), "gaussian", 22)
    theta = np.array([1.2, -0.4])
    val = constraint_value(theta, ds)
    assert val == pytest.approx(2 * float(theta @ theta), rel=0.05)


def test_get_family_rejects_unknown():
    with pytest.raises(ConfigError):
        get_family("beta-binomial")
