import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langaug import segmenter
from langaug.errors import ConfigError, LeakageError
from langaug.numerics import AdamHyper, derive_stream
from finite_diff import finite_diff_grad_subset, relative_error
from langaug.pipeline import AugmentedDataset, assemble_training_stream
from langaug.segmenter import (SegArch, SegModel, SegTrainConfig, dice, evaluate_model,
                               init_seg_model, iou, leave_one_out_eval, predict_mask,
                               seg_logits, seg_loss_and_grad, train_segmenter,
                               write_results_csv)
from langaug.synth import generate_benchmark

masks_strategy = st.lists(st.booleans(), min_size=9, max_size=9)


class TestMetrics:
    def test_identical_nonempty(self):
        m = np.array([[1, 1], [0, 0]])
        assert dice(m, m) == 1.0
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.array([[1, 0], [0, 0]])
        b = np.array([[0, 1], [0, 0]])
        assert dice(a, b) == 0.0
        assert iou(a, b) == 0.0

    def test_arithmetic(self):
        a = np.array([1, 1, 0, 0, 0, 0])
        b = np.array([1, 1, 1, 1, 0, 0])
        assert dice(a, b) == pytest.approx(4 / 6)
        assert iou(a, b) == pytest.approx(0.5)

    def test_both_empty_convention(self):
        z = np.zeros((3, 3))
        assert dice(z, z) == 1.0
        assert iou(z, z) == 1.0

    @given(masks_strategy, masks_strategy)
    @settings(max_examples=200, deadline=None)
    def test_dice_iou_identity_and_symmetry(self, a_bits, b_bits):
        a = np.array(a_bits).reshape(3, 3)
        b = np.array(b_bits).reshape(3, 3)
        d, i = dice(a, b), iou(a, b)
        assert d == dice(b, a)
        assert i == iou(b, a)
        assert d >= i
        assert d == pytest.approx(2 * i / (1 + i))

    def test_dice_iou_identity_bulk(self):
        stream = derive_stream(1, [("m", 0)])
        for _ in range(10_000):
            a = stream.uniform(size=16) > 0.5
            b = stream.uniform(size=16) > 0.5
            d, i = dice(a, b), iou(a, b)
            assert d >= i
            assert abs(d - 2 * i / (1 + i)) < 1e-12


class TestModel:
    def test_logit_shape_matches_input(self):
        model = init_seg_model(SegArch(), seed=0)
        x = derive_stream(0, [("x", 0)]).uniform(size=(2, 1, 12, 10))
        logits, _ = seg_logits(model, x)
        assert logits.shape == (2, 12, 10)

    def test_loss_grad_matches_finite_differences(self):
        model = init_seg_model(SegArch(), seed=3)
        x = derive_stream(1, [("x", 0)]).uniform(size=(2, 1, 8, 8))
        m = (derive_stream(2, [("m", 0)]).uniform(size=(2, 8, 8)) > 0.5).astype(float)
        _, grad = seg_loss_and_grad(model, x, m)
        coords = derive_stream(3, [("c", 0)]).choice(model.arch.param_count, 20, replace=False)
        fd = finite_diff_grad_subset(
            lambda t: seg_loss_and_grad(SegModel(model.arch, t), x, m)[0], model.theta, coords)
        assert relative_error(grad[coords], fd) < 1e-4

    def test_float32_gradient_matches_float64(self):
        """A float32 step's gradient is within 1e-5 of the float64 one (relative max-abs).

        float32's epsilon is 6e-8, and each weight-gradient entry sums about
        2,048 products (N=8 images of 16x16 pixels), so rounding can grow to
        about 1e-5 in the worst case; the measured error is about 1e-7.
        """
        model = init_seg_model(SegArch(), seed=4)
        stream = derive_stream(5, [("x", 0)])
        x = stream.standard_normal((8, 1, 16, 16))
        m = (stream.random((8, 16, 16)) < 0.3).astype(np.float64)
        loss64, grad64 = seg_loss_and_grad(model, x, m)
        loss32, grad32 = seg_loss_and_grad(model, x.astype(np.float32), m.astype(np.float32))
        assert grad64.dtype == np.float64 and grad32.dtype == np.float32
        assert np.max(np.abs(grad32 - grad64)) < 1e-5 * np.max(np.abs(grad64))
        assert abs(loss32 - loss64) < 1e-5 * abs(loss64)

    def test_predict_threshold_zero_is_all_ones(self):
        model = init_seg_model(SegArch(), seed=1)
        x = derive_stream(4, [("x", 0)]).uniform(size=(1, 8, 8))
        assert predict_mask(model, x, threshold=0.0).all()

    def test_predict_large_negative_logits_all_zero(self):
        arch = SegArch()
        theta = np.zeros(arch.param_count)
        theta[-1] = -50.0  # head bias strongly negative; all other weights zero
        model = SegModel(arch, theta)
        x = derive_stream(5, [("x", 0)]).uniform(size=(1, 8, 8))
        assert not predict_mask(model, x).any()

    def test_threshold_monotonicity(self):
        model = init_seg_model(SegArch(), seed=2)
        x = derive_stream(6, [("x", 0)]).uniform(size=(1, 10, 10))
        prev = predict_mask(model, x, threshold=0.1)
        for thr in (0.3, 0.5, 0.7, 0.9):
            cur = predict_mask(model, x, threshold=thr)
            assert np.all(cur <= prev)
            prev = cur


class TestTraining:
    def test_zero_epochs_returns_initialization(self):
        config = SegTrainConfig(epochs=0)
        x = derive_stream(7, [("x", 0)]).uniform(size=(4, 1, 8, 8))
        m = np.zeros((4, 8, 8))
        model = train_segmenter(x, m, config, seed=11)
        assert np.array_equal(model.theta, init_seg_model(SegArch(), 11).theta)

    def test_overfit_single_separable_sample(self):
        # mask = thresholded intensity; 200 epochs on one sample must overfit
        stream = derive_stream(8, [("x", 0)])
        img = stream.uniform(size=(1, 1, 12, 12))
        mask = (img[:, 0] > 0.5).astype(float)
        config = SegTrainConfig(epochs=200, batch_size=1, adam=AdamHyper(lr=0.01))
        model = train_segmenter(img, mask, config, seed=0)
        pred = predict_mask(model, img[0])
        assert dice(pred, mask[0]) > 0.95

    def test_deterministic_weights(self):
        x = derive_stream(9, [("x", 0)]).uniform(size=(6, 1, 8, 8))
        m = (derive_stream(10, [("m", 0)]).uniform(size=(6, 8, 8)) > 0.5).astype(float)
        config = SegTrainConfig(epochs=3, batch_size=2)
        a = train_segmenter(x, m, config, seed=5)
        b = train_segmenter(x, m, config, seed=5)
        assert np.array_equal(a.theta, b.theta)

    def test_steps_run_in_float32_over_float64_theta(self, monkeypatch):
        seen = []
        loss_and_grad = segmenter.seg_loss_and_grad

        def recording(model, X, M):
            loss, grad = loss_and_grad(model, X, M)
            seen.append((X.dtype, M.dtype, model.theta.dtype, grad.dtype))
            return loss, grad

        monkeypatch.setattr(segmenter, "seg_loss_and_grad", recording)
        x = derive_stream(13, [("x", 0)]).uniform(size=(6, 1, 8, 8))
        m = (derive_stream(14, [("m", 0)]).uniform(size=(6, 8, 8)) > 0.5).astype(float)
        model = train_segmenter(x, m, SegTrainConfig(epochs=2, batch_size=4), seed=0,
                                pool=pool_of(x[:3], m[:3]))
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert len(seen) >= 4 and set(seen) == {(f32, f32, f64, f32)}
        assert model.theta.dtype == f64
        # the finite-difference checks (criterion 1, the test above) pass
        # float64 arrays built this way, so their 1e-4 gate is a float64 check
        seen.clear()
        segmenter.seg_loss_and_grad(init_seg_model(SegArch(), 0), x[:2], m[:2])
        assert seen == [(f64, f64, f64, f64)]

    @pytest.mark.parametrize("with_pool", [False, True])
    def test_batches_hold_the_stream_entries_in_stream_order(self, monkeypatch, with_pool):
        # each step sees its stream entries stacked in order and cast to float32,
        # sources and pool alike; 7 sources leave a short last batch
        seen = []
        loss_and_grad = segmenter.seg_loss_and_grad

        def recording(model, X, M):
            seen.append((X.tobytes(), M.tobytes()))
            return loss_and_grad(model, X, M)

        monkeypatch.setattr(segmenter, "seg_loss_and_grad", recording)
        stream = derive_stream(15, [("x", 0)])
        x, m = stream.uniform(size=(7, 1, 8, 8)), stream.uniform(size=(7, 8, 8))
        # the pool's entries take their masks from two source domains, out of origin order
        masks_by_domain = [stream.uniform(size=(3, 8, 8)), stream.uniform(size=(4, 8, 8))]
        source, origin = np.array([0, 1, 0, 1, 1]), np.array([2, 0, 1, 3, 1])
        pool = AugmentedDataset(
            images=stream.uniform(size=(5, 1, 8, 8)).astype(np.float32),
            origin_masks=masks_by_domain, source_domain=source, target_domain=1 - source,
            step_index=np.ones(5, dtype=np.int64), origin_index=origin) if with_pool else None
        pool_masks = [masks_by_domain[s][o] for s, o in zip(source, origin)]
        config = SegTrainConfig(epochs=2, batch_size=4)
        train_segmenter(x, m, config, seed=3, pool=pool)
        expected = []
        for epoch in range(config.epochs):
            entries = assemble_training_stream(7, len(pool) if with_pool else 0,
                                               config.mix_ratio if with_pool else 0.0, 3,
                                               batch_size=4, epoch=epoch)
            for start in range(0, len(entries), 4):
                batch = entries[start:start + 4]
                expected.append(tuple(
                    np.stack([src[i] if kind == "src" else pooled[i] for kind, i in batch],
                             dtype=np.float32).tobytes()
                    for src, pooled in ((x, pool and pool.images), (m, pool_masks))))
        assert seen == expected

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigError):
            train_segmenter(np.empty((0, 1, 8, 8)), np.empty((0, 8, 8)),
                            SegTrainConfig(epochs=1), seed=0)

    def test_empty_pool_rejected(self):
        # a zero-entry pool must not quietly train the source-only model
        x = derive_stream(12, [("x", 0)]).uniform(size=(4, 1, 8, 8))
        m = np.zeros((4, 8, 8))
        with pytest.raises(ConfigError, match="non-empty augmented pool"):
            train_segmenter(x, m, SegTrainConfig(epochs=1, batch_size=2), seed=0,
                            pool=pool_of(x[:0], m[:0]))
        without_mixing = SegTrainConfig(epochs=1, batch_size=2, mix_ratio=0.0)
        assert np.array_equal(
            train_segmenter(x, m, without_mixing, seed=0, pool=pool_of(x[:0], m[:0])).theta,
            train_segmenter(x, m, without_mixing, seed=0).theta)


def pool_of(images, masks):
    """A pool of ``images`` whose entry k has origin k and mask ``masks[k]``, every other tag 0."""
    zeros = np.zeros(len(images), dtype=np.int64)
    return AugmentedDataset(images=images, origin_masks=[masks], source_domain=zeros,
                            target_domain=zeros, step_index=zeros,
                            origin_index=np.arange(len(images)))


def one_entry_pool(ds, source, target):
    return AugmentedDataset(
        images=ds.images[0][:1], origin_masks=ds.masks,
        source_domain=np.array([source]), target_domain=np.array([target]),
        step_index=np.array([1]), origin_index=np.array([0]),
    )


class TestLeaveOneOut:
    def test_fold_structure_and_leakage_guard(self, monkeypatch):
        ds = generate_benchmark(4, 8, 16, seed=33, train_frac=0.75)
        calls = []
        monkeypatch.setattr(AugmentedDataset, "within",
                            lambda self, sources: calls.append(tuple(sources)))

        config = SegTrainConfig(epochs=1, batch_size=4)
        results = leave_one_out_eval(ds, {"erm": None}, config, seeds=(0,))
        assert len(calls) == 0  # erm-only runs never call within
        assert {r.fold for r in results} == {0, 1, 2, 3}
        results = leave_one_out_eval(ds, {"erm": None, "erm+langaug": None}, config,
                                     seeds=(0,))
        assert len(results) == 8

    def test_leakage_raises(self, monkeypatch):
        ds = generate_benchmark(3, 6, 16, seed=34, train_frac=0.8)
        # a slice that ignores the fold's sources keeps an entry tagged with
        # the first fold's held-out domain
        monkeypatch.setattr(AugmentedDataset, "within", lambda self, sources: self)
        with pytest.raises(LeakageError):
            leave_one_out_eval(ds, {"erm": None, "erm+langaug": one_entry_pool(ds, 0, 1)},
                               SegTrainConfig(epochs=1, batch_size=4), seeds=(0,))

    def test_leakage_names_the_arm_whose_slice_leaks(self, monkeypatch):
        ds = generate_benchmark(3, 6, 16, seed=34, train_frac=0.8)
        monkeypatch.setattr(AugmentedDataset, "within", lambda self, sources: self)
        arms = {"erm+clean": one_entry_pool(ds, 1, 2), "erm+leaky": one_entry_pool(ds, 0, 1)}
        with pytest.raises(LeakageError, match=r"the erm\+leaky pool for fold 0 "):
            leave_one_out_eval(ds, arms, SegTrainConfig(epochs=1, batch_size=4), seeds=(0,))

    def test_one_fold_slice_alive_at_a_time(self, monkeypatch):
        # every earlier fold's pool slice is dead when the next fold cuts its own
        ds = generate_benchmark(4, 6, 8, seed=37, train_frac=0.5)
        pairs = [(s, t) for s in range(4) for t in range(4) if s != t]
        pool = AugmentedDataset(
            images=np.concatenate([ds.images[s][:1] for s, _ in pairs]),
            origin_masks=ds.masks,
            source_domain=np.array([s for s, _ in pairs]),
            target_domain=np.array([t for _, t in pairs]),
            step_index=np.ones(len(pairs), dtype=int), origin_index=np.zeros(len(pairs), dtype=int),
        )
        within, slices, alive = AugmentedDataset.within, [], []

        def tracked(self, sources):
            alive.append(sum(ref() is not None for ref in slices))
            part = within(self, sources)
            slices.append(weakref.ref(part))
            return part

        monkeypatch.setattr(AugmentedDataset, "within", tracked)
        leave_one_out_eval(ds, {"erm": None, "erm+langaug": pool},
                           SegTrainConfig(epochs=1, batch_size=4), seeds=(0,))
        assert alive == [0, 0, 0, 0]

    def test_folds_run_in_given_order_and_are_checked(self):
        ds = generate_benchmark(3, 6, 8, seed=36, train_frac=0.5)
        config = SegTrainConfig(epochs=1, batch_size=4)
        results = leave_one_out_eval(ds, {"erm": None}, config, seeds=(0, 1), folds=[2, 0])
        assert [(r.fold, r.seed) for r in results] == [(2, 0), (2, 1), (0, 0), (0, 1)]
        for folds in ([3], [-1]):
            with pytest.raises(ConfigError, match="must be domain ids"):
                leave_one_out_eval(ds, {"erm": None}, config, seeds=(0,), folds=folds)

    def test_needs_three_domains(self):
        ds = generate_benchmark(2, 4, 16, seed=35)
        with pytest.raises(ConfigError):
            leave_one_out_eval(ds, {"erm": None}, SegTrainConfig(epochs=1), seeds=(0,))

    def test_results_csv_layout(self, tmp_path):
        from langaug.segmenter import EvalResult

        rows = [EvalResult(0, "erm", 1, 0.5, 0.4), EvalResult(0, "erm", 0, 0.7, 0.6)]
        write_results_csv(rows, tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0] == "fold,method,seed,mean_dice,mean_iou"
        assert lines[1].startswith("0,erm,0")


def test_eval_result_invariant_dice_not_below_iou():
    ds = generate_benchmark(3, 4, 16, seed=36)
    model = init_seg_model(SegArch(), seed=0)
    res = evaluate_model(model, ds.images[0], ds.masks[0], 0, "erm", 0)
    scores = [(dice(p, m), iou(p, m)) for p, m in zip(predict_mask(model, ds.images[0]),
                                                      ds.masks[0])]
    for d, i in scores:
        assert 0.0 <= i <= d <= 1.0
    assert 0.0 <= res.mean_iou <= res.mean_dice <= 1.0
    assert res.mean_dice == pytest.approx(np.mean([d for d, _ in scores]))


def test_eval_in_chunks_matches_one_pass_predictions():
    # 19 images span two full chunks of 8 and a tail of 3
    ds = generate_benchmark(3, 19, 16, seed=37)
    model = init_seg_model(SegArch(), seed=2)
    res = evaluate_model(model, ds.images[1], ds.masks[1], 1, "erm", 0)
    preds = predict_mask(model, ds.images[1])
    assert res.mean_dice == float(np.mean([dice(p, m) for p, m in zip(preds, ds.masks[1])]))
    assert res.mean_iou == float(np.mean([iou(p, m) for p, m in zip(preds, ds.masks[1])]))


@pytest.mark.parametrize("n_images", [9, 17])
def test_eval_chunks_never_hold_one_image(monkeypatch, n_images):
    # the head's logits for a lone image can differ in the last bits from the
    # same image inside a batch, so a tail of one joins the chunk before it
    ds = generate_benchmark(3, n_images, 16, seed=38)
    model = init_seg_model(SegArch(), seed=3)
    whole = predict_mask(model, ds.images[2])
    sizes, preds = [], []
    original_logits, original_predict = segmenter.seg_logits, segmenter.predict_mask

    def counted_logits(model, X):
        sizes.append(len(X))
        return original_logits(model, X)

    def kept_predict(model, images):
        masks = original_predict(model, images)
        preds.extend(masks)
        return masks

    monkeypatch.setattr(segmenter, "seg_logits", counted_logits)
    monkeypatch.setattr(segmenter, "predict_mask", kept_predict)
    res = evaluate_model(model, ds.images[2], ds.masks[2], 2, "erm", 0)
    assert sum(sizes) == n_images and min(sizes) >= 2
    assert np.array_equal(np.stack(preds), whole)
    assert res.mean_dice == float(np.mean([dice(p, m) for p, m in zip(whole, ds.masks[2])]))
