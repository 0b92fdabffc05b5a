"""Prompt encoding and mask decoding."""

import numpy as np
import pytest

from braidseg import decoder
from braidseg import tensor as T
from braidseg.blocks import init_params
from braidseg.decoder import (MaskDecoder, PromptEncoder, TwoWayLayer,
                              grid_pe, sine_cosine_pe)
from braidseg.gradcheck import check_model
from braidseg.model import ModelConfig, build_model
from braidseg.tensor import Tensor
from configs import GRADCHECK_CFG


class TestPositionalCode:
    def test_shape_and_width_rule(self):
        pe = sine_cosine_pe(np.zeros((5, 2)), 16)
        assert pe.shape == (5, 16)
        with pytest.raises(ValueError):
            sine_cosine_pe(np.zeros((1, 2)), 10)

    def test_unit_box_corners_are_distinct(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        pe = sine_cosine_pe(corners, 32)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.abs(pe[i] - pe[j]).max() > 0.5

    def test_half_integer_frequencies_break_periodicity(self):
        """sin((k+1/2)pi * u) at u=0 and u=1 differ for every k, which is
        the whole point of the offset frequencies."""
        pe0 = sine_cosine_pe(np.array([[0.0, 0.0]]), 8)
        pe1 = sine_cosine_pe(np.array([[1.0, 1.0]]), 8)
        assert np.abs(pe0 - pe1).min() > 0.4

    def test_grid_pe_row_major_pixel_centers(self):
        g, c = 4, 8
        pe = grid_pe(g, c)
        assert pe.shape == (16, 8)
        # token 1 sits one pixel to the right of token 0: u differs, v equal
        ref0 = sine_cosine_pe(np.array([[0.5 / g, 0.5 / g]]), c)[0]
        ref1 = sine_cosine_pe(np.array([[1.5 / g, 0.5 / g]]), c)[0]
        assert np.allclose(pe[0], ref0)
        assert np.allclose(pe[1], ref1)

    def test_float64_passthrough(self):
        assert sine_cosine_pe(np.zeros((1, 2)), 8, np.float64).dtype == np.float64


class TestPromptEncoder:
    def test_two_tokens_per_batch_row(self):
        enc = PromptEncoder(16)
        init_params(enc, 0)
        out = enc.forward(3)
        assert out.shape == (3, 2, 16)
        assert np.array_equal(out.data[0], out.data[2])

    def test_tokens_mix_learned_and_positional_parts(self):
        enc = PromptEncoder(16)
        init_params(enc, 0)
        out = enc.forward(1).data[0]
        p = {n: t.data for n, t in enc.named_params()}
        pe = sine_cosine_pe(np.array([[0.0, 0.0], [1.0, 1.0]]), 16)
        assert np.allclose(out[0], p["corner_tl"][0] + pe[0], atol=1e-7)
        assert np.allclose(out[1], p["corner_br"][0] + pe[1], atol=1e-7)

    def test_gradients_reach_corner_embeddings(self):
        enc = PromptEncoder(8)
        init_params(enc, 0)
        T.tensor_sum(enc.forward(4)).backward()
        for _, p in enc.named_params():
            assert np.all(p.grad == 4.0)


class TestTwoWayLayer:
    def test_shapes_round_trip(self):
        rng = np.random.default_rng(0)
        layer = TwoWayLayer(16, 2)
        init_params(layer, 0)
        tokens = Tensor(rng.random((2, 3, 16)).astype(np.float32))
        img = Tensor(rng.random((2, 25, 16)).astype(np.float32))
        tpe = Tensor(rng.random((2, 3, 16)).astype(np.float32))
        ipe = Tensor(rng.random((25, 16)).astype(np.float32))
        t2, i2 = layer.forward(tokens, img, tpe, ipe)
        assert t2.shape == tokens.shape
        assert i2.shape == img.shape

    def test_image_state_actually_updates(self):
        """The image-to-token sublayer must write back into the image path;
        a decoder whose image stream is frozen cannot sharpen masks."""
        rng = np.random.default_rng(1)
        layer = TwoWayLayer(8, 2)
        init_params(layer, 3)
        tokens = Tensor(rng.random((1, 3, 8)).astype(np.float32))
        img = Tensor(rng.random((1, 9, 8)).astype(np.float32))
        tpe = Tensor(np.zeros((1, 3, 8), dtype=np.float32))
        ipe = Tensor(np.zeros((9, 8), dtype=np.float32))
        _, i2 = layer.forward(tokens, img, tpe, ipe)
        assert not np.allclose(i2.data, img.data)


class TestMaskDecoder:
    def test_output_is_four_times_the_grid(self):
        rng = np.random.default_rng(0)
        dec = MaskDecoder(16)
        init_params(dec, 0)
        fused = Tensor(rng.random((2, 16, 8, 8)).astype(np.float32))
        prompts = Tensor(rng.random((2, 2, 16)).astype(np.float32))
        out = dec.forward(fused, prompts)
        assert out.shape == (2, 1, 32, 32)

    def test_head_count_takes_largest_divisor(self):
        assert MaskDecoder(64).layers[0].self_attn._heads == 8
        assert MaskDecoder(16).layers[0].self_attn._heads == 8
        assert MaskDecoder(12).layers[0].self_attn._heads == 4
        assert MaskDecoder(20).layers[0].self_attn._heads == 4

    def test_width_validation(self):
        with pytest.raises(ValueError):
            MaskDecoder(18)
        dec = MaskDecoder(16)
        init_params(dec, 0)
        bad = Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32))
        prompts = Tensor(np.zeros((1, 2, 16), dtype=np.float32))
        with pytest.raises(ValueError, match="width"):
            dec.forward(bad, prompts)

    def test_gradients_flow_to_all_decoder_params(self):
        rng = np.random.default_rng(2)
        dec = MaskDecoder(16)
        init_params(dec, 1)
        fused = Tensor(rng.random((1, 16, 4, 4)).astype(np.float32),
                       requires_grad=True)
        prompts = Tensor(rng.random((1, 2, 16)).astype(np.float32))
        T.tensor_sum(dec.forward(fused, prompts)).backward()
        dead = [n for n, p in dec.named_params() if np.abs(p.grad).max() == 0.0]
        assert dead == []
        assert np.abs(fused.grad).max() > 0

    def test_prompt_tokens_influence_the_mask(self):
        rng = np.random.default_rng(5)
        dec = MaskDecoder(16)
        init_params(dec, 2)
        fused = Tensor(rng.random((1, 16, 4, 4)).astype(np.float32))
        p1 = Tensor(rng.random((1, 2, 16)).astype(np.float32))
        p2 = Tensor(rng.random((1, 2, 16)).astype(np.float32))
        out1 = dec.forward(fused, p1).data
        out2 = dec.forward(fused, p2).data
        assert not np.allclose(out1, out2)

    def test_batch_rows_are_independent(self):
        rng = np.random.default_rng(7)
        dec = MaskDecoder(16)
        init_params(dec, 0)
        fused = rng.random((2, 16, 4, 4)).astype(np.float32)
        prompts = rng.random((2, 2, 16)).astype(np.float32)
        both = dec.forward(Tensor(fused), Tensor(prompts)).data
        solo = dec.forward(Tensor(fused[1:]), Tensor(prompts[1:])).data
        assert np.allclose(both[1], solo[0], atol=1e-6)


class TestPositionalCodeCache:
    """grid_pe and the prompt-corner code are built once per (g, c, dtype)."""

    def test_decodes_share_one_read_only_code(self, monkeypatch):
        seen = {"grid_pe": [], "_corner_pe": []}
        for name, calls in seen.items():
            real = getattr(decoder, name)
            monkeypatch.setattr(decoder, name,
                                lambda *a, real=real, calls=calls: calls.append(real(*a)) or calls[-1])
        model = build_model(ModelConfig(m=1, C=8, C_c=4, C_d=4, heads=2, x_c=8, x_s=32, window=2,
                                        rfin_count=1, dkin_count=1), seed=0)
        fused = Tensor(np.random.default_rng(0).normal(size=(1, 4, 2, 2)).astype(np.float32))
        with T.no_grad():
            first, second = (model.decode(fused).data for _ in range(2))
        assert np.array_equal(first, second)
        for calls in seen.values():
            assert len(calls) == 2 and calls[0] is calls[1]
            with pytest.raises(ValueError):
                calls[0][0, 0] = 1.0

    def test_tokens_follow_in_place_corner_edits(self):
        enc = PromptEncoder(8)
        init_params(enc, 0)
        before = enc.forward(1).data.copy()
        enc.corner_tl.data[0, 0] += 1.0
        after = enc.forward(1).data
        assert np.isclose(after[0, 0, 0], before[0, 0, 0] + 1.0, atol=1e-6)
        assert np.array_equal(after[0, 1], before[0, 1])

    def test_the_cache_leaves_the_gradient_audit_unchanged(self, monkeypatch):
        cached = check_model(GRADCHECK_CFG, seed=0)[0]
        for name in ("grid_pe", "_corner_pe"):
            monkeypatch.setattr(decoder, name, getattr(decoder, name).__wrapped__)
        assert check_model(GRADCHECK_CFG, seed=0)[0] == cached
