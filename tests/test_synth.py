import numpy as np
import pytest

from langaug.errors import ConfigError, TensorFormatError
from langaug.numerics import derive_stream
from finite_diff import finite_diff_grad, relative_error
from langaug.synth import (DomainSpec, generate_benchmark, generate_vector_glm,
                           load_dataset, save_dataset)


def specs_with_gammas(gammas):
    return [DomainSpec(d, gamma=g, contrast=1.0, texture_freq=2.0,
                       texture_amp=0.05, noise_sigma=0.02)
            for d, g in enumerate(gammas)]


class TestBenchmark:
    def test_same_seed_bit_identical(self):
        a = generate_benchmark(2, 5, 16, seed=3)
        b = generate_benchmark(2, 5, 16, seed=3)
        for d in range(2):
            assert a.images[d].tobytes() == b.images[d].tobytes()
            assert a.masks[d].tobytes() == b.masks[d].tobytes()
        assert a.split == b.split

    def test_identity_transform_returns_base(self):
        spec = DomainSpec(0, gamma=1.0, contrast=1.0, texture_freq=2.0,
                          texture_amp=0.0, noise_sigma=0.0)
        ds = generate_benchmark(2, 4, 16, specs=[spec, DomainSpec(1)], seed=9)
        # reconstruct the base rendering from the mask and per-sample stream
        for s in range(4):
            geo = derive_stream(9, [("sample", s)])
            from langaug.synth import _base_render, _ellipse_mask
            mask = _ellipse_mask(16, geo)
            base = _base_render(mask, geo)
            assert np.array_equal(ds.images[0][s, 0], base)
            assert np.array_equal(ds.masks[0][s], mask)

    def test_domain_mean_separation(self):
        ds = generate_benchmark(4, 50, 16, specs=specs_with_gammas([0.6, 0.9, 1.2, 1.6]), seed=5)
        means = [ds.images[d].mean() for d in range(4)]
        gaps = [abs(means[i] - means[j]) for i in range(4) for j in range(i + 1, 4)]
        assert max(gaps) > 0.05

    def test_masks_invariant_across_domains(self):
        ds = generate_benchmark(4, 10, 16, seed=11)
        for d in range(1, 4):
            assert np.array_equal(ds.masks[0], ds.masks[d])

    def test_clamp_fraction_small_under_defaults(self):
        ds = generate_benchmark(4, 30, 16, seed=2)
        assert ds.clamp_fraction < 0.05
        assert np.all(ds.images[0] >= 0.0) and np.all(ds.images[0] <= 1.0)

    def test_spec_count_mismatch(self):
        with pytest.raises(ConfigError):
            generate_benchmark(3, 5, 16, specs=[DomainSpec(0)], seed=0)

    def test_nyquist_guard(self):
        with pytest.raises(ConfigError):
            generate_benchmark(2, 2, 16, specs=[DomainSpec(0, texture_freq=9.0), DomainSpec(1)], seed=0)

    def test_split_partitions_samples(self):
        ds = generate_benchmark(2, 10, 16, seed=4, train_frac=0.8)
        for d in range(2):
            assert len(ds.split[d]["train"]) == 8
            assert len(ds.split[d]["test"]) == 2
            assert sorted(ds.split[d]["train"] + ds.split[d]["test"]) == list(range(10))


class TestGlmVector:
    def test_score_zero_at_mean(self):
        ds = generate_vector_glm(10, np.array([1.0, -2.0]), np.eye(2), np.zeros(2), "gaussian", 0)
        assert np.allclose(ds.score(np.array([1.0, -2.0])), 0.0)

    def test_empirical_covariance(self):
        ds = generate_vector_glm(10_000, np.zeros(3), np.eye(3), np.zeros(3), "gaussian", 21)
        emp = np.cov(ds.x.T)
        assert np.max(np.abs(emp - np.eye(3))) < 0.05
        assert np.linalg.norm(emp - np.eye(3)) < 0.05

    def test_logistic_balanced_at_zero_theta(self):
        ds = generate_vector_glm(10_000, np.zeros(2), np.eye(2), np.zeros(2), "logistic", 33)
        assert set(np.unique(ds.y)) <= {0.0, 1.0}
        assert abs(ds.y.mean() - 0.5) < 0.02

    def test_score_matches_log_density_gradient(self):
        sigma = np.array([[1.5, 0.4], [0.4, 0.8]])
        mu = np.array([0.3, -0.7])
        ds = generate_vector_glm(5, mu, sigma, np.zeros(2), "gaussian", 8)
        sigma_inv = np.linalg.inv(sigma)

        def log_density(x):
            d = x - mu
            return float(-0.5 * d @ sigma_inv @ d)

        stream = derive_stream(77, [("pts", 0)])
        for _ in range(100):
            x = mu + stream.standard_normal(2) * 2.0
            fd = finite_diff_grad(log_density, x)
            assert relative_error(ds.score(x), fd) < 1e-6

    def test_non_spd_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            generate_vector_glm(5, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2),
                                "gaussian", 0)

    def test_poisson_family(self):
        ds = generate_vector_glm(2000, np.zeros(1), np.eye(1) * 0.1, np.array([0.5]), "poisson", 5)
        assert np.all(ds.y >= 0)
        assert np.all(ds.y == np.floor(ds.y))


class TestPersistence:
    def test_benchmark_round_trip(self, tmp_path):
        ds = generate_benchmark(3, 6, 16, seed=13)
        save_dataset(ds, tmp_path / "bench")
        back = load_dataset(tmp_path / "bench")
        for d in range(3):
            assert back.images[d].tobytes() == ds.images[d].tobytes()
            assert back.masks[d].tobytes() == ds.masks[d].tobytes()
        assert back.split == ds.split
        assert back.specs == ds.specs

    def test_only_multi_domain_datasets_persist(self, tmp_path):
        # the theory harness builds its GLM data in memory; nothing stores it
        ds = generate_vector_glm(20, np.zeros(2), np.eye(2), np.array([1.0, 2.0]), "logistic", 7)
        with pytest.raises(ConfigError, match="cannot save"):
            save_dataset(ds, tmp_path / "glm")
        save_dataset(generate_benchmark(3, 2, 8, seed=13), tmp_path / "bench")
        meta = tmp_path / "bench.meta.json"
        meta.write_text(meta.read_text().replace('"multi_domain"', '"glm_vector"'))
        with pytest.raises(TensorFormatError, match="unknown dataset kind 'glm_vector'"):
            load_dataset(tmp_path / "bench")
