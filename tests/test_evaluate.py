"""Dice scoring, grouped reports, ablation sweeps."""

import importlib

import numpy as np
import pytest

from braidseg.blocks import init_params
from braidseg.data import (generate_dataset, load_checkpoint, load_sample,
                           save_checkpoint, select)

ev = importlib.import_module("braidseg.evaluate")
from braidseg.evaluate import (AblationCell, EvalReport, EvalRow, ablate,
                               ablation_csv, ablation_text, dice, evaluate,
                               per_sample_dice, predict_mask, write_report)
from braidseg.model import ModelConfig, build_model

TINY = ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=32,
                   window=2, rfin_count=2, dkin_count=2)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval_corpus")
    samples = generate_dataset(root, seed=6, n_train=2, n_val=6, n_test=0,
                               size=16, paired=True)
    return str(root), samples


class TestDice:
    def test_identical_masks_score_one(self):
        m = np.zeros((8, 8))
        m[2:5, 2:5] = 1.0
        assert dice(m, m) == 1.0

    def test_disjoint_masks_score_zero(self):
        a = np.zeros((8, 8)); a[:2] = 1.0
        b = np.zeros((8, 8)); b[6:] = 1.0
        assert dice(a, b) == 0.0

    def test_two_thirds_overlap(self):
        a = np.zeros(6); a[:2] = 1.0
        b = np.zeros(6); b[1:3] = 1.0
        assert dice(a, b) == 0.5       # 2*1 / (2+2)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = (rng.random((10, 10)) > 0.5).astype(float)
        b = (rng.random((10, 10)) > 0.5).astype(float)
        assert dice(a, b) == dice(b, a)

    def test_both_empty_is_perfect(self):
        assert dice(np.zeros((4, 4)), np.zeros((4, 4))) == 1.0

    def test_one_empty_is_zero(self):
        a = np.zeros((4, 4)); a[0, 0] = 1.0
        assert dice(a, np.zeros((4, 4))) == 0.0

    def test_extent_mismatch(self):
        with pytest.raises(ValueError, match="extent"):
            dice(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_threshold_at_half(self):
        assert dice(np.array([0.51, 0.49]), np.array([1.0, 0.0])) == 1.0


class TestPredict:
    def test_native_resolution_binary_mask(self, corpus):
        root, samples = corpus
        model = build_model(TINY, seed=0)
        img, _ = load_sample(root, samples[0])
        mask = predict_mask(model, img)
        assert mask.shape == img.shape
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_builds_no_graph(self, corpus, monkeypatch):
        root, samples = corpus
        model = build_model(TINY, seed=0)
        logits = []
        real_forward = model.forward

        def spy(xc, xs):
            out = real_forward(xc, xs)
            logits.append(out)
            return out

        monkeypatch.setattr(model, "forward", spy)
        img, _ = load_sample(root, samples[0])
        predict_mask(model, img)
        assert len(logits) == 1
        assert logits[0]._backward is None and logits[0]._parents == ()


class TestNoGradientMemory:
    """Building, loading and running a model for inference allocates no
    gradient buffer."""

    @staticmethod
    def _held(model):
        return [n for n, p in model.named_params() if p._grad is not None]

    def test_build_load_predict_evaluate(self, corpus, tmp_path):
        root, samples = corpus
        model = build_model(TINY, seed=0)
        assert self._held(model) == []
        save_checkpoint(model, str(tmp_path / "ckpt"), epoch=0, seed=0)
        loaded, _ = load_checkpoint(str(tmp_path / "ckpt"))
        assert self._held(loaded) == []
        img, _ = load_sample(root, samples[0])
        predict_mask(loaded, img)
        assert self._held(loaded) == []
        evaluate(loaded, root, select(samples, split="val"))
        assert self._held(loaded) == []

    def test_redrawing_at_another_dtype_allocates_none(self):
        model = build_model(TINY, seed=0)
        init_params(model, seed=0, dtype=np.float64)
        assert self._held(model) == []


class TestEvaluate:
    def test_rows_follow_canonical_order(self, corpus):
        root, samples = corpus
        model = build_model(TINY, seed=0)
        rep = evaluate(model, root, select(samples, split="val"))
        keys = [(r.cls, r.domain) for r in rep.rows]
        canon = [(c, d) for c in ("cystic", "solid", "mixed")
                 for d in ("A", "B") if (c, d) in keys]
        assert keys == canon
        assert sum(r.n for r in rep.rows) == rep.overall_n == 12

    def test_ideal_oracle_scores_hundred_everywhere(self, corpus, monkeypatch):
        root, samples = corpus
        sel = select(samples, split="val")
        feed = iter(load_sample(root, s)[1] for s in sel)
        monkeypatch.setattr(ev, "predict_mask", lambda model, img: next(feed))
        rep = evaluate(object(), root, sel)
        for r in rep.rows:
            assert r.mean_pct == 100.0 and r.std_pct == 0.0
        assert rep.overall_mean_pct == 100.0

    def test_constant_empty_predictor_scores_zero(self, corpus, monkeypatch):
        root, samples = corpus
        monkeypatch.setattr(ev, "predict_mask",
                            lambda model, img: np.zeros_like(img))
        rep = evaluate(object(), root, select(samples, split="val"))
        assert rep.overall_mean_pct == 0.0

    def test_stats_match_streaming_reference(self, corpus):
        """Group means/stds recomputed by a Welford accumulator."""
        root, samples = corpus
        model = build_model(TINY, seed=1)
        sel = select(samples, split="val")
        rep = evaluate(model, root, sel)

        acc = {}
        for s, d in per_sample_dice(model, root, sel):
            n, mean, m2 = acc.get((s.cls, s.domain), (0, 0.0, 0.0))
            n += 1
            delta = d - mean
            mean += delta / n
            m2 += delta * (d - mean)
            acc[(s.cls, s.domain)] = (n, mean, m2)
        for r in rep.rows:
            n, mean, m2 = acc[(r.cls, r.domain)]
            assert r.n == n
            assert abs(r.mean_pct - 100.0 * mean) < 1e-9
            assert abs(r.std_pct - 100.0 * np.sqrt(m2 / n)) < 1e-9

    def test_empty_selection_rejected(self, corpus):
        root, _ = corpus
        with pytest.raises(ValueError, match="empty"):
            evaluate(build_model(TINY, seed=0), root, [])


class TestReportFormats:
    def _report(self):
        rows = [EvalRow("cystic", "A", 2, 87.5, 1.25),
                EvalRow("solid", "B", 1, 100.0, 0.0)]
        return EvalReport(rows, 91.6667, 3)

    def test_csv_layout(self):
        lines = self._report().to_csv().splitlines()
        assert lines[0] == "class,domain,n,dice_mean_pct,dice_std_pct"
        assert lines[1] == "cystic,A,2,87.5000,1.2500"
        assert lines[-1] == "all,all,3,91.6667,"

    def test_text_footer_states_conventions(self):
        text = self._report().to_text()
        assert "threshold 0.5" in text
        assert "ddof=0" in text
        assert "percent" in text

    def test_csv_is_reproducible(self):
        assert self._report().to_csv() == self._report().to_csv()

    def test_write_report_creates_both_files(self, tmp_path):
        csv_path, txt_path = write_report(self._report(), tmp_path, "scores")
        with open(csv_path) as f:
            assert f.read() == self._report().to_csv()
        with open(txt_path) as f:
            assert f.read() == self._report().to_text()


class TestAblation:
    def test_grid_with_invalid_cell_and_baseline(self, corpus):
        root, samples = corpus
        va = select(samples, split="val")[:2]
        seen = []

        def budget(model):
            seen.append(model.cfg)

        table = ablate(root, va, TINY, rfin_values=[0, 2],
                       dkin_values=[2, 3], train_fn=budget, seed=0)
        # 4 grid cells plus the appended (0,0) baseline
        assert [(c.rfin, c.dkin) for c in table] == [
            (0, 2), (0, 3), (2, 2), (2, 3), (0, 0)]
        by_pair = {(c.rfin, c.dkin): c for c in table}
        # dkin=3 exceeds the m=2 depth budget: marked, not skipped
        for pair in ((0, 3), (2, 3)):
            assert by_pair[pair].status == "invalid"
            assert "d <= m" in by_pair[pair].note
            assert np.isnan(by_pair[pair].mean_dice_pct)
        for pair in ((0, 2), (2, 2), (0, 0)):
            assert by_pair[pair].status == "ok"
            assert np.isfinite(by_pair[pair].mean_dice_pct)
        assert by_pair[(2, 2)].note == "default config"
        assert len(seen) == 3

    def test_trained_cell_uses_matching_widths(self, corpus):
        root, samples = corpus
        va = select(samples, split="val")[:1]
        cfgs = []
        table = ablate(root, va, TINY, rfin_values=[1],
                       dkin_values=[1], train_fn=lambda m: cfgs.append(m.cfg),
                       seed=0)
        assert cfgs[0].rfin_count == 1 and cfgs[0].dkin_count == 1
        assert {(c.rfin, c.dkin) for c in table} == {(1, 1), (0, 0)}

    def test_csv_and_text_render_every_row(self):
        table = [AblationCell(1, 2, 88.25, "ok", "default config"),
                 AblationCell(3, 9, status="invalid", note="needs d <= m")]
        csv = ablation_csv(table).splitlines()
        assert csv[0] == "rfin,dkin,mean_dice_pct,status,note"
        assert csv[1] == "1,2,88.2500,ok,default config"
        assert csv[2] == "3,9,,invalid,needs d <= m"
        text = ablation_text(table)
        assert "88.25" in text and "invalid" in text
