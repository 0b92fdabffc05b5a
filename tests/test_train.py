"""Loss, schedules, SGD and the training loop."""

import importlib
import os
import weakref

import numpy as np
import pytest

from braidseg.data import generate_dataset, select
from braidseg.model import ModelConfig, build_model
from braidseg.tensor import Tensor, bce_with_logits, scale, sigmoid_np, tensor_sum
from braidseg.train import (NumericError, SgdState, TrainConfig, augment,
                            poly_lr, seg_loss, sgd_step, soft_dice, train)
from configs import TINY

# braidseg.train is re-exported as the function; fetch the module
train_mod = importlib.import_module("braidseg.train")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("train_corpus")
    samples = generate_dataset(root, seed=2, n_train=2, n_val=0, n_test=0,
                               size=16)
    return str(root), select(samples, split="train")


class TestConfig:
    def test_validate_passes_defaults(self):
        cfg = TrainConfig()
        assert cfg.validate() is cfg

    @pytest.mark.parametrize("kw", [
        {"epochs": 0}, {"batch": 0},
        {"invert_prob": 2.0}, {"invert_prob": -0.1}, {"invert_prob": float("nan")},
        {"lr0": float("nan")}, {"lr0": float("inf")}, {"lr0": -1e-3},
        {"momentum": -1.0}, {"momentum": 1.0}, {"momentum": float("nan")},
        {"weight_decay": -1e-4}, {"weight_decay": float("inf")},
    ])
    def test_validate_rejects(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            TrainConfig(**kw).validate()

    def test_validate_accepts_the_range_ends(self):
        for kw in ({"invert_prob": 0.0}, {"invert_prob": 1.0}, {"momentum": 0.0},
                   {"lr0": 0.0}, {"weight_decay": 0.0}):
            TrainConfig(**kw).validate()


class TestSchedules:
    def test_poly_endpoints_are_exact(self):
        assert poly_lr(0.05, 0, 50) == 0.05
        assert poly_lr(0.05, 50, 50) == 0.0

    def test_poly_linear_case(self):
        """A quarter of the way in, the rate is 0.75^0.9 of lr0, not 0.75."""
        assert poly_lr(1.0, 25, 100) == pytest.approx(0.7718895, abs=1e-7)

    def test_poly_monotone_decreasing(self):
        vals = [poly_lr(1e-3, e, 40) for e in range(41)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_poly_rejects_out_of_range_epoch(self):
        with pytest.raises(ValueError):
            poly_lr(1.0, 51, 50)
        with pytest.raises(ValueError):
            poly_lr(1.0, -1, 50)


class TestLoss:
    def test_soft_dice_matches_closed_form(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 1, 4, 4)).astype(np.float64)
        target = (rng.random((2, 1, 4, 4)) > 0.5).astype(np.float64)
        got = float(soft_dice(Tensor(logits), Tensor(target)).data)
        p = sigmoid_np(logits)
        want = (2.0 * (p * target).sum() + 1.0) / (p.sum() + target.sum() + 1.0)
        assert abs(got - want) < 1e-12

    def test_confident_correct_prediction_has_tiny_loss(self):
        target = np.zeros((1, 1, 4, 4), dtype=np.float64)
        target[0, 0, 1:3, 1:3] = 1.0
        logits = np.where(target > 0, 30.0, -30.0)
        loss = float(seg_loss(Tensor(logits), target).data)
        assert 0.0 <= loss < 1e-3

    def test_weights_decompose_the_loss(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(1, 1, 3, 3)).astype(np.float64))
        target = (rng.random((1, 1, 3, 3)) > 0.5).astype(np.float64)
        full = float(seg_loss(logits, target).data)
        d = 1.0 - float(soft_dice(logits, Tensor(target)).data)
        b = float(bce_with_logits(logits, Tensor(target)).data)
        assert full == d + b

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="seg_loss"):
            seg_loss(Tensor(np.zeros((1, 1, 4, 4))), np.zeros((1, 1, 8, 8)))

    def test_gradient_points_toward_the_target(self):
        target = np.ones((1, 1, 2, 2), dtype=np.float64)
        logits = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float64),
                        requires_grad=True)
        seg_loss(logits, target).backward()
        assert np.all(logits.grad < 0)


class TestSgd:
    def test_two_step_hand_example(self):
        """mu=0.99, unit gradient twice, lr=1, no decay: theta walks
        0 -> -1 -> -2.99."""
        p = Tensor(np.zeros((3,), dtype=np.float64), requires_grad=True)
        state = SgdState()
        for _ in range(2):
            p.grad = np.ones((3,), dtype=np.float64)
            sgd_step([("p", p)], state, lr=1.0, momentum=0.99,
                     weight_decay=0.0)
        assert np.max(np.abs(p.data - (-2.99))) < 1e-12

    def test_weight_decay_closed_form(self):
        theta0 = np.array([2.0, -4.0])
        p = Tensor(theta0.copy(), requires_grad=True)
        p.grad = np.array([1.0, 1.0])
        state = SgdState()
        sgd_step([("p", p)], state, lr=0.1, momentum=0.5, weight_decay=0.01)
        want = theta0 - 0.1 * (1.0 + 0.01 * theta0)
        assert np.max(np.abs(p.data - want)) < 1e-15
        assert np.max(np.abs(state.velocity["p"] - (1.0 + 0.01 * theta0))) < 1e-15

    def test_velocity_accumulates_per_name(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        state = SgdState()
        for _ in range(3):
            a.grad = np.ones(2)
            b.grad = 2 * np.ones(2)
            sgd_step([("a", a), ("b", b)], state, lr=0.0, momentum=1.0,
                     weight_decay=0.0)
        assert np.allclose(state.velocity["a"], 3.0)
        assert np.allclose(state.velocity["b"], 6.0)

    def test_in_place_update_is_bitwise_the_out_of_place_formula(self):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(3, 4)).astype(np.float32)
        p = Tensor(theta.copy(), requires_grad=True)
        state = SgdState()
        data = p.data
        v_ref = np.zeros_like(theta)
        for step in range(3):
            g = rng.normal(size=(3, 4)).astype(np.float32)
            p.grad = g.copy()
            sgd_step([("p", p)], state, lr=0.05, momentum=0.9, weight_decay=1e-3)
            if step == 0:
                velocity = state.velocity["p"]
            v_ref = 0.9 * v_ref + (g + 1e-3 * theta)
            theta = theta - 0.05 * v_ref
            assert p.data is data and state.velocity["p"] is velocity
            assert p.data.tobytes() == theta.tobytes()
            assert velocity.tobytes() == v_ref.tobytes()

    def test_a_negative_zero_gradient_steps_as_a_zero_buffer_would(self):
        """backward(step) hands sgd_update a raw -0.0, where sgd_step reads
        0 + -0.0 = +0.0 from the buffer; with momentum 0 and a negative
        velocity, v *= mu leaves -0.0, and the velocity must still come
        out +0.0 on both paths."""
        def run(fused):
            p = Tensor(np.array([-1.0]), requires_grad=True)
            state = SgdState()
            for c in (-1.0, -0.0):           # a negative velocity, then a -0.0 gradient
                loss = tensor_sum(scale(p, c))
                if fused:
                    loss.backward(lambda leaf, g: train_mod.sgd_update(
                        leaf, g, state.vel("p", leaf.data), 0.5, 0.0, 0.0))
                else:
                    loss.backward()
                    sgd_step([("p", p)], state, 0.5, 0.0, 0.0)
                    p.zero_grad()
            return p.data.tobytes(), state.velocity["p"].tobytes()

        assert run(fused=True) == run(fused=False)
        assert not np.signbit(np.frombuffer(run(fused=True)[1])).any()

    def test_reads_each_gradient_once(self):
        reads = []

        class Counting(Tensor):
            __slots__ = ()

            @property
            def grad(self):
                reads.append(1)
                return Tensor.grad.fget(self)

        p = Counting(np.zeros(2), requires_grad=True)
        sgd_step([("p", p)], SgdState(), lr=0.1)
        assert len(reads) == 1

    def test_non_trainable_tensor_is_named(self):
        p = Tensor(np.zeros(2), requires_grad=False)
        with pytest.raises(ValueError, match="lonely"):
            sgd_step([("lonely", p)], SgdState(), lr=0.1)


class TestAugment:
    def _pair(self, seed=0, size=12):
        rng = np.random.default_rng(seed)
        img = rng.random((size, size)).astype(np.float32)
        msk = np.zeros((size, size), dtype=np.float32)
        msk[3:7, 2:9] = 1.0
        return img, msk

    @pytest.mark.parametrize("seed", range(5))
    def test_mask_stays_binary_with_constant_foreground(self, seed):
        img, msk = self._pair(seed)
        cfg = TrainConfig(invert_prob=0.5)
        out_i, out_m = augment(img, msk, np.random.default_rng(seed + 100), cfg)
        assert set(np.unique(out_m)) <= {0.0, 1.0}
        assert out_m.sum() == msk.sum()
        assert 0.0 <= out_i.min() and out_i.max() <= 1.0

    @staticmethod
    def _fix_intensity(monkeypatch):
        monkeypatch.setattr(train_mod, "SCALE_RANGE", (1.0, 1.0))
        monkeypatch.setattr(train_mod, "SHIFT_RANGE", (0.0, 0.0))

    def test_draw_count_is_outcome_independent(self, monkeypatch):
        """Both extremes of every probability consume the same stream."""
        img, msk = self._pair()
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        monkeypatch.setattr(train_mod, "FLIP_PROB", 1.0)
        augment(img, msk, r1, TrainConfig(invert_prob=1.0))
        monkeypatch.setattr(train_mod, "FLIP_PROB", 0.0)
        augment(img, msk, r2, TrainConfig(invert_prob=0.0))
        assert r1.bit_generator.state == r2.bit_generator.state

    def test_inversion_is_exact_without_scale_or_shift(self, monkeypatch):
        img, msk = self._pair()
        self._fix_intensity(monkeypatch)
        monkeypatch.setattr(train_mod, "FLIP_PROB", 0.0)
        out_i, out_m = augment(img, msk, np.random.default_rng(0), TrainConfig(invert_prob=1.0))
        assert np.allclose(out_i, 1.0 - img, atol=1e-7)
        assert np.array_equal(out_m, msk)

    def test_forced_flips_mirror_both_arrays(self, monkeypatch):
        img, msk = self._pair()
        self._fix_intensity(monkeypatch)
        monkeypatch.setattr(train_mod, "FLIP_PROB", 1.0)
        out_i, out_m = augment(img, msk, np.random.default_rng(0), TrainConfig(invert_prob=0.0))
        assert np.array_equal(out_i, img[::-1, ::-1])
        assert np.array_equal(out_m, msk[::-1, ::-1])

    def test_flips_track_each_other(self, monkeypatch):
        img, msk = self._pair(3)
        self._fix_intensity(monkeypatch)
        cfg = TrainConfig(invert_prob=0.0)
        for seed in range(8):
            out_i, out_m = augment(img, msk, np.random.default_rng(seed), cfg)
            src = np.argwhere(msk == 1.0)
            dst = np.argwhere(out_m == 1.0)
            assert len(src) == len(dst)
            # the image moved with the mask: lesion-bbox means must agree
            assert abs(out_i[out_m == 1.0].mean() - img[msk == 1.0].mean()) < 1e-6


class TestTrainLoop:
    def _cfg(self, **kw):
        base = dict(epochs=2, batch=2, lr0=1e-3, momentum=0.9,
                    weight_decay=0.0, seed=0, augment=False)
        base.update(kw)
        return TrainConfig(**base)

    def test_log_rows_shape_and_header(self, corpus):
        root, samples = corpus
        model = build_model(TINY, seed=0)
        rows = train(model, root, samples, self._cfg())
        assert rows[0] == ("iteration", "epoch", "lr", "loss")
        assert len(rows) == 3                      # 2 epochs x 1 batch
        its = [r[0] for r in rows[1:]]
        assert its == [1, 2]
        for _, epoch, lr, loss in rows[1:]:
            assert float(lr) >= 0.0 and np.isfinite(float(loss))

    def test_two_runs_are_bitwise_identical(self, corpus):
        root, samples = corpus
        cfg = self._cfg(augment=True)
        m1 = build_model(TINY, seed=0)
        m2 = build_model(TINY, seed=0)
        r1 = train(m1, root, samples, cfg)
        r2 = train(m2, root, samples, cfg)
        assert r1 == r2
        p2 = dict(m2.named_params())
        for name, p in m1.named_params():
            assert p.data.tobytes() == p2[name].data.tobytes(), name

    def test_loss_log_and_checkpoint_written(self, corpus, tmp_path):
        root, samples = corpus
        model = build_model(TINY, seed=0)
        out = tmp_path / "run"
        rows = train(model, root, samples, self._cfg(), out_dir=str(out))
        text = (out / "loss_log.csv").read_text().splitlines()
        assert text[0] == "iteration,epoch,lr,loss"
        assert len(text) == len(rows)
        assert float(text[1].split(",")[3]) == float(rows[1][3])
        assert os.path.exists(out / "checkpoint" / "meta.json")

    def test_training_reduces_the_loss(self, corpus):
        root, samples = corpus
        model = build_model(TINY, seed=0)
        rows = train(model, root, samples,
                     self._cfg(epochs=8, lr0=5e-2, momentum=0.9))
        first, last = float(rows[1][3]), float(rows[-1][3])
        assert last < first

    def test_empty_sample_list_rejected(self, corpus):
        root, _ = corpus
        model = build_model(TINY, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train(model, root, [], self._cfg())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_numeric_error(self, corpus):
        root, samples = corpus
        model = build_model(TINY, seed=0)
        with pytest.raises(NumericError, match="non-finite"):
            train(model, root, samples,
                  self._cfg(epochs=30, lr0=1e9, momentum=0.99))

    def test_nan_gradient_on_the_last_update_never_reaches_disk(self, corpus, tmp_path,
                                                                monkeypatch):
        """The loss of the last iteration is finite, but its gradient is
        poisoned; train() must refuse to write the NaN parameters."""
        real_update = train_mod.sgd_update
        cfg = self._cfg(epochs=3)
        model = build_model(TINY, seed=0)
        first, victim = model.named_params()[0]
        calls = []

        def poisoned_update(p, g, *args):
            if p is victim:
                calls.append(1)
                if len(calls) == cfg.epochs:           # one batch per epoch
                    g = np.full_like(g, np.nan)
            return real_update(p, g, *args)

        monkeypatch.setattr(train_mod, "sgd_update", poisoned_update)
        out = tmp_path / "run"
        with pytest.raises(NumericError, match=f"non-finite values in parameter '{first}'"):
            train(model, root=corpus[0], samples=corpus[1], cfg=cfg, out_dir=str(out))
        assert len(calls) == cfg.epochs
        assert not out.exists()

    def test_no_gradient_buffer_is_ever_allocated(self, corpus):
        """Each parameter steps inside backward, so training holds no .grad
        buffer at any forward call, nor after it returns."""
        model = build_model(TINY, seed=0)
        params = model.named_params()
        real_forward = model.forward
        none_at_call = []

        def spy(xc, xs):
            none_at_call.append(all(p._grad is None for _, p in params))
            return real_forward(xc, xs)

        model.forward = spy
        train(model, root=corpus[0], samples=corpus[1], cfg=self._cfg(epochs=2))
        assert none_at_call == [True, True]
        assert [name for name, p in params if p._grad is not None] == []

    def test_steps_inside_backward_are_bitwise_backward_then_sgd_step(self, monkeypatch,
                                                                      tmp_path):
        """Three iterations of criterion 4's recipe: train()'s parameters and
        velocities equal those of backward() followed by sgd_step on the
        same batches and learning rates, bit for bit. Each model carries a
        spare parameter no flow reaches, which takes the zero-gradient
        step (weight decay alone)."""
        samples = select(generate_dataset(tmp_path, seed=11, n_train=1, n_val=0, n_test=0,
                                          size=32, paired=True), split="train")
        cfg = TrainConfig(epochs=3, batch=2, lr0=1e-2, momentum=0.9, augment=False, seed=0)
        states, inputs, targets = [], [], []

        class Recorded(SgdState):
            def __init__(self):
                super().__init__()
                states.append(self)

        def recorded_loss(logits, target):
            targets.append(target)
            return seg_loss(logits, target)

        model = build_model(ModelConfig(), seed=0)
        model.spare = Tensor(np.ones(3, np.float32), requires_grad=True)
        real_forward = model.forward

        def recorded_forward(xc, xs):
            inputs.append((xc, xs))
            return real_forward(xc, xs)

        model.forward = recorded_forward
        monkeypatch.setattr(train_mod, "SgdState", Recorded)
        monkeypatch.setattr(train_mod, "seg_loss", recorded_loss)
        rows = train(model, str(tmp_path), samples, cfg)
        assert len(rows) - 1 == len(inputs) == len(targets) == 3

        ref = build_model(ModelConfig(), seed=0)
        ref.spare = Tensor(np.ones(3, np.float32), requires_grad=True)
        ref_params, ref_state = ref.named_params(), SgdState()
        for row, (xc, xs), target in zip(rows[1:], inputs, targets):
            seg_loss(ref.forward(xc, xs), target).backward()
            sgd_step(ref_params, ref_state, float(row[2]), cfg.momentum, cfg.weight_decay)
            ref.zero_grad()
        (state,) = states
        assert sorted(state.velocity) == sorted(ref_state.velocity)
        got = dict(model.named_params())
        assert all(p._grad is None for p in got.values())    # train() took the fused path
        assert (model.spare.data < 1).all()
        assert [name for name, p in ref_params
                if got[name].data.tobytes() != p.data.tobytes()
                or state.velocity[name].tobytes() != ref_state.velocity[name].tobytes()] == []

    def test_previous_graph_is_freed_before_the_next_forward(self, corpus):
        """Only one step's activations may be alive at a time."""
        model = build_model(TINY, seed=0)
        real_forward = model.forward
        refs, alive_at_call = [], []

        def spy(xc, xs):
            alive_at_call.append(bool(refs) and refs[-1]() is not None)
            out = real_forward(xc, xs)
            refs.append(weakref.ref(out.data))
            return out

        model.forward = spy
        train(model, root=corpus[0], samples=corpus[1], cfg=self._cfg(epochs=3))
        assert alive_at_call == [False, False, False]
