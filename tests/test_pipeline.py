import collections
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from langaug.cdtrain import ordered_pairs
from langaug.energy import EnergyArch, EnergyParams
from langaug.errors import ConfigError, DivergenceError, TensorFormatError
from langaug.langevin import LangevinConfig, run_chain_batch
from langaug.ldtn import read_meta, read_tensor, write_json, write_tensor
from langaug.numerics import derive_stream
from langaug.pipeline import (AugmentedDataset, assemble_training_stream, generate_augmented,
                              load_augmented, pool_provenance, provenance_mismatch,
                              save_augmented)
from langaug import pipeline
from langaug.synth import generate_benchmark


@pytest.fixture(scope="module")
def small_setup():
    ds = generate_benchmark(3, 10, 16, seed=21, train_frac=1.0)
    arch = EnergyArch(kind="quadratic", input_shape=(1, 16, 16))
    ebms = {}
    for i, j in ordered_pairs(3):
        # quadratic energy centered on the target domain's mean image: the
        # chain drifts from domain i's sample toward that mode
        target_mean = ds.images[j].mean(axis=0)
        ebms[(i, j)] = EnergyParams(arch, target_mean.ravel())
    return ds, ebms


class TestGenerateAugmented:
    def test_cardinality(self, small_setup):
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=20, store_stride=4, store_offset=4)
        aug = generate_augmented(ds, ebms, config, base_seed=3)
        stored = len(config.stored_steps())
        assert len(aug) == 6 * 10 * stored

    def test_thirteen_sample_stride_bookkeeping(self, small_setup):
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=40, store_stride=3, store_offset=3)
        aug = generate_augmented(ds, ebms, config, base_seed=3)
        assert len(config.stored_steps()) == 13
        assert len(aug) == 6 * 10 * 13
        counts = aug.counts_by_tag()
        assert all(v == 10 for v in counts.values())
        assert len(counts) == 6 * 13

    def test_counts_by_tag_match_a_counting_loop(self):
        stream = derive_stream(8, [("tags", 0)])
        source, target, step = (stream.integers(0, 4, 200) for _ in range(3))
        pool = AugmentedDataset(images=np.zeros((200, 1, 2, 2), dtype=np.float32),
                                origin_masks=[], source_domain=source, target_domain=target,
                                step_index=step, origin_index=np.zeros(200, dtype=np.int64))
        want = collections.Counter(zip(source.tolist(), target.tolist(), step.tolist()))
        got = pool.counts_by_tag()
        assert got == dict(want)
        assert all(type(v) is int for key, n in got.items() for v in (*key, n))

    def test_masks_bit_identical_to_origin(self, small_setup):
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=10, store_stride=5, store_offset=5)
        aug = generate_augmented(ds, ebms, config, base_seed=3)
        masks = aug.masks_at(np.arange(len(aug)))
        assert masks.shape == (len(aug), 16, 16) and masks.dtype == ds.masks[0].dtype
        for m in range(len(aug)):
            origin = ds.masks[aug.source_domain[m]][aug.origin_index[m]]
            assert masks[m].tobytes() == origin.tobytes()
        # the lookup reads the dataset's own arrays, which the pool never copies
        assert aug.origin_masks is ds.masks

    def test_missing_pair_model(self, small_setup):
        ds, ebms = small_setup
        partial = dict(list(ebms.items())[:-1])
        config = LangevinConfig(step_size=0.05, n_steps=5, store_stride=1, store_offset=1)
        with pytest.raises(ConfigError, match=r"pair"):
            generate_augmented(ds, partial, config, base_seed=3)

    def test_domain_subset_excludes_other_domains(self, small_setup):
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=6, store_stride=2, store_offset=2)
        aug = generate_augmented(ds, ebms, config, base_seed=3, domains=[0, 2])
        assert aug.domains_touched() == {0, 2}
        assert len(aug) == 2 * 10 * 3

    def test_regeneration_bit_exact(self, small_setup):
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=8, store_stride=2, store_offset=2)
        a = generate_augmented(ds, ebms, config, base_seed=9)
        b = generate_augmented(ds, ebms, config, base_seed=9)
        assert a.images.tobytes() == b.images.tobytes()
        assert np.array_equal(a.step_index, b.step_index)

    def test_displacement_monotone_in_step(self, small_setup):
        # under the quadratic bridge energy the drift toward the target mode
        # accumulates, so mean displacement from the origin grows with k
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=30, store_stride=6, store_offset=6)
        aug = generate_augmented(ds, ebms, config, base_seed=3)
        steps = sorted(set(aug.step_index.tolist()))
        mean_disp = []
        for k in steps:
            rows = np.where(aug.step_index == k)[0]
            disp = [np.linalg.norm(aug.images[r]
                                   - ds.images[aug.source_domain[r]][aug.origin_index[r]])
                    for r in rows]
            mean_disp.append(np.mean(disp))
        assert all(a < b for a, b in zip(mean_disp, mean_disp[1:]))

    def test_empty_pool_keeps_image_and_mask_shapes(self, small_setup):
        ds, _ = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=2, store_stride=1, store_offset=1)
        aug = generate_augmented(ds, {}, config, base_seed=1, domains=[0])
        assert len(aug) == 0
        assert aug.images.shape == (0, 1, 16, 16)
        assert aug.masks_at([]).shape == (0, 16, 16)
        assert aug.counts_by_tag() == {}
        assert aug.source_domain.shape == (0,)

    def test_diverging_chain_skipped_and_healthy_chains_kept(self):
        # theta = 0 and step 2.1 scale every iterate by -1.205 per step, so a
        # training image of 1e37 overflows the float32 chain at step 16 (the
        # drift term 2.205 * 1.205**15 * 1e37 passes 3.4e38) while images in
        # [0, 1] stay finite over all 40 steps
        ds = generate_benchmark(2, 6, 8, seed=23, train_frac=0.5)
        bad = int(ds.split[0]["train"][1])
        ds.images[0][bad] = 1e37
        arch = EnergyArch(kind="quadratic", input_shape=(1, 8, 8))
        ebms = {pair: EnergyParams(arch, np.zeros(arch.input_dim)) for pair in ordered_pairs(2)}
        config = LangevinConfig(step_size=2.1, n_steps=40, store_stride=10, store_offset=10)
        aug = generate_augmented(ds, ebms, config, base_seed=5)
        assert aug.skipped_chains == 1
        assert len(aug) == 20
        assert np.all(np.isfinite(aug.images))
        for i, j in ordered_pairs(2):
            rows = [int(s) for s in ds.split[i]["train"] if (i, int(s)) != (0, bad)]
            noise = np.stack([
                derive_stream(5, [("aug_pair_i", i), ("aug_pair_j", j), ("chain", s)])
                .standard_normal((config.n_steps, 1, 8, 8))
                for s in rows
            ], axis=1)
            _, stored = run_chain_batch(ds.images[i][rows].astype(np.float32), ebms[(i, j)],
                                        config, noise.astype(np.float32))
            for t in config.stored_steps():
                pick = (aug.source_domain == i) & (aug.target_domain == j) & (aug.step_index == t)
                assert aug.origin_index[pick].tolist() == rows
                assert aug.images[pick].tobytes() == stored[t].tobytes()

    def test_chains_diverging_at_later_steps_dropped_batch_by_batch(self, monkeypatch):
        # as above, 1e37 overflows at step 16 and 1e36 at step 29: the
        # pair (0, 1) runs three batches of 3, 2 and 1 chains; once every
        # chain is gone the pair raises, naming itself and its chain count
        ds = generate_benchmark(2, 6, 8, seed=23, train_frac=0.5)
        train = [int(s) for s in ds.split[0]["train"]]
        ds.images[0][train[0]] = 1e37
        ds.images[0][train[2]] = 1e36
        arch = EnergyArch(kind="quadratic", input_shape=(1, 8, 8))
        ebms = {pair: EnergyParams(arch, np.zeros(arch.input_dim)) for pair in ordered_pairs(2)}
        config = LangevinConfig(step_size=2.1, n_steps=40, store_stride=10, store_offset=10)
        batches = []

        def counted(x0, *args):
            batches.append(x0.shape[0])
            return run_chain_batch(x0, *args)

        monkeypatch.setattr(pipeline, "run_chain_batch", counted)
        aug = generate_augmented(ds, ebms, config, base_seed=5, domains=[0, 1])
        assert batches == [3, 2, 1, 3]
        assert aug.skipped_chains == 2
        pick = aug.source_domain == 0
        assert sorted(set(aug.origin_index[pick].tolist())) == [train[1]]
        ds.images[0][train[1]] = 1e37
        with pytest.raises(DivergenceError, match=r"pair \(0, 1\): all 3 chains diverged"):
            generate_augmented(ds, ebms, config, base_seed=5)

    def test_fold_slice_equals_fold_pool(self):
        ds = generate_benchmark(4, 6, 8, seed=22, train_frac=0.5)
        arch = EnergyArch(kind="quadratic", input_shape=(1, 8, 8))
        ebms = {(i, j): EnergyParams(arch, ds.images[j].mean(axis=0).ravel())
                for i, j in ordered_pairs(4)}
        config = LangevinConfig(step_size=0.05, n_steps=6, store_stride=2, store_offset=2)
        pool = generate_augmented(ds, ebms, config, base_seed=7)
        for held_out in range(4):
            sources = [d for d in range(4) if d != held_out]
            want = generate_augmented(ds, ebms, config, base_seed=7, domains=sources)
            got = pool.within(sources)
            assert len(got) == 6 * 3 * 3
            for name in ("images", "source_domain", "target_domain", "step_index",
                         "origin_index"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), name
            assert got.masks_at(np.arange(len(got))).tobytes() == \
                want.masks_at(np.arange(len(want))).tobytes()
            assert got.origin_masks is want.origin_masks is ds.masks
            assert got.skipped_chains == want.skipped_chains == 0

    def test_round_trip(self, small_setup, tmp_path):
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=6, store_stride=3, store_offset=3)
        aug = generate_augmented(ds, ebms, config, base_seed=4)
        save_augmented(aug, tmp_path / "aug", pool_provenance(ds, ebms, config, base_seed=4))
        back = load_augmented(tmp_path / "aug", ds)
        assert back.images.tobytes() == aug.images.tobytes()
        assert np.array_equal(back.step_index, aug.step_index)
        assert np.array_equal(back.origin_index, aug.origin_index)
        rows = np.arange(len(aug))
        assert back.masks_at(rows).tobytes() == aug.masks_at(rows).tobytes()
        assert back.origin_masks is ds.masks
        assert back.skipped_chains == aug.skipped_chains

    @pytest.mark.parametrize("value", [2.5, np.nan, np.inf, 1e300])
    def test_tag_that_is_not_an_integer_rejected(self, small_setup, tmp_path, value):
        # a cast to int64 would truncate or wrap each of these into an index
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=2, store_stride=2, store_offset=2)
        save_augmented(generate_augmented(ds, ebms, config, base_seed=4), tmp_path / "aug", {})
        tags = read_tensor(tmp_path / "aug.tags.ldtn")
        tags[3, 5] = value
        write_tensor(tmp_path / "aug.tags.ldtn", tags)
        with pytest.raises(TensorFormatError,
                           match=re.escape(f"tag value {value!r} is not an integer")):
            load_augmented(tmp_path / "aug", ds)

    def test_load_holds_no_copy_of_the_masks(self, small_setup, tmp_path):
        # loading peaks within the images and tags it reads plus 1 MiB; storing each
        # entry's (16, 16) float64 mask would add 2 MiB for these 1024 entries
        ds, _ = small_setup
        stream = derive_stream(6, [("pool", 0)])
        m = 1024
        source = stream.integers(0, 3, m)
        pool = AugmentedDataset(
            images=stream.uniform(size=(m, 1, 16, 16)).astype(np.float32),
            origin_masks=ds.masks, source_domain=source,
            target_domain=(source + 1) % 3, step_index=np.full(m, 3),
            origin_index=stream.integers(0, 10, m))
        save_augmented(pool, tmp_path / "aug", {})
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "aug.images.ldtn", "aug.meta.json", "aug.tags.ldtn"]
        tracemalloc.start()
        try:
            back = load_augmented(tmp_path / "aug", ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pool.images.nbytes + 4 * m * 8 + (1 << 20)
        assert back.masks_at(np.arange(m)).tobytes() == pool.masks_at(np.arange(m)).tobytes()

    def test_sidecar_without_provenance_rejected(self, small_setup, tmp_path):
        # the pool keeps no provenance, but a sidecar without one is not a pool `augment` wrote
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=2, store_stride=2, store_offset=2)
        save_augmented(generate_augmented(ds, ebms, config, base_seed=4), tmp_path / "aug", {})
        meta = read_meta(tmp_path / "aug")
        del meta["provenance"]
        write_json(tmp_path / "aug.meta.json", meta)
        with pytest.raises(TensorFormatError, match="metadata has no 'provenance' key"):
            load_augmented(tmp_path / "aug", ds)


class TestProvenance:
    def test_saved_provenance_equals_pool_provenance(self, small_setup, tmp_path):
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=6, store_stride=3, store_offset=3,
                                channel_replace=None, clamp_unit=True)
        want = pool_provenance(ds, ebms, config, base_seed=4)
        save_augmented(generate_augmented(ds, ebms, config, base_seed=4), tmp_path / "aug", want)
        # every value is JSON-native, so the sidecar's copy compares equal
        assert read_meta(tmp_path / "aug")["provenance"] == want
        assert set(want["langevin"]) == {f.name for f in dataclasses.fields(LangevinConfig)}
        assert sorted(want["data"]) == ["0", "1", "2"]
        assert all(len(v) == 16 for v in want["data"].values())

    def test_every_dependency_changes_the_provenance(self, small_setup):
        ds, ebms = small_setup
        config = LangevinConfig(step_size=0.05, n_steps=6, store_stride=3, store_offset=3)
        want = pool_provenance(ds, ebms, config, base_seed=4)
        other_ebms = {**ebms, (2, 1): EnergyParams(ebms[(2, 1)].arch, ebms[(2, 1)].theta + 1.0)}
        other_data = dataclasses.replace(ds, masks=[m.copy() for m in ds.masks])
        other_data.masks[1][ds.split[1]["train"][0], 0, 0] += 1.0
        cases = {
            "ebm_checksums.2_1": pool_provenance(ds, other_ebms, config, 4),
            "langevin.clamp_unit": pool_provenance(
                ds, ebms, dataclasses.replace(config, clamp_unit=True), 4),
            "langevin.channel_replace": pool_provenance(
                ds, ebms, dataclasses.replace(config, channel_replace=0), 4),
            "base_seed": pool_provenance(ds, ebms, config, 5),
            "data.1": pool_provenance(other_data, ebms, config, 4),
        }
        for key, found in cases.items():
            assert found != want
            assert provenance_mismatch(found, want) == key
        assert provenance_mismatch(want, want) is None
        assert provenance_mismatch({k: v for k, v in want.items() if k != "data"},
                                   want) == "data"


class TestStream:
    def test_mix_zero_is_src_permutation(self):
        stream = assemble_training_stream(10, 0, 0.0, seed=1, batch_size=4)
        kinds = [k for k, _ in stream]
        assert set(kinds) == {"src"}
        assert sorted(i for _, i in stream) == list(range(10))

    def test_half_mix_batch_composition(self):
        stream = assemble_training_stream(16, 40, 0.5, seed=2, batch_size=8)
        for start in range(0, len(stream), 8):
            batch = stream[start:start + 8]
            assert sum(1 for k, _ in batch if k == "aug") == 4

    def test_deterministic(self):
        a = assemble_training_stream(12, 30, 0.5, seed=3, batch_size=6)
        b = assemble_training_stream(12, 30, 0.5, seed=3, batch_size=6)
        assert a == b

    def test_epoch_streams_differ(self):
        a = assemble_training_stream(12, 30, 0.5, seed=3, batch_size=6, epoch=0)
        b = assemble_training_stream(12, 30, 0.5, seed=3, batch_size=6, epoch=1)
        assert a != b

    def test_empty_aug_with_positive_mix_rejected(self):
        with pytest.raises(ConfigError):
            assemble_training_stream(10, 0, 0.5, seed=0)
