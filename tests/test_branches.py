"""Encoder branch behavior: segmented execution, taps, injection rules."""

import numpy as np
import pytest

from braidseg.blocks import LayerNorm, cast_block, init_params
from braidseg.domain import N_LAYERS, DomainBranch
from braidseg.model import ModelConfig
from braidseg.prior import PriorBranch
from braidseg.tensor import Tensor

TINY = ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=32, window=2,
                   rfin_count=2, dkin_count=2)


def tiny_prior(seed=0, **kw):
    br = PriorBranch(TINY, **kw)
    init_params(br, seed)
    return br


def tiny_domain(seed=0):
    br = DomainBranch(TINY)
    init_params(br, seed)
    return br


def rand_image(rng, side):
    return Tensor(rng.random((2, 1, side, side)).astype(np.float32))


class TestPriorBranch:
    def test_layer_count_and_global_positions(self):
        br = tiny_prior()
        assert len(br.layers) == 4 * TINY.m
        assert br.global_layers == (2, 4, 6)
        for i, layer in enumerate(br.layers, start=1):
            expects_global = i in (2, 4, 6)
            assert (layer._window is None) == expects_global

    @pytest.mark.parametrize("seed", range(3))
    def test_segment_composition_is_bitwise(self, seed):
        """Running 1..8 in one go equals any split into segments, bit for
        bit, because segmentation changes no arithmetic."""
        rng = np.random.default_rng(seed)
        br = tiny_prior(seed)
        x = rand_image(rng, TINY.x_s)
        full, taps_full = br.forward_segment(br.embed_tokens(x), 1, len(br.layers))

        t = br.embed_tokens(x)
        taps_parts = {}
        cuts = [(1, 2), (3, 3), (4, 7), (8, 8)]
        for lo, hi in cuts:
            t, taps = br.forward_segment(t, lo, hi)
            taps_parts.update(taps)
        assert np.array_equal(full.data, t.data)
        assert sorted(taps_full) == sorted(taps_parts) == [2, 4, 6]
        for k in taps_full:
            assert np.array_equal(taps_full[k].data, taps_parts[k].data)

    def test_taps_hold_the_global_layer_outputs(self):
        rng = np.random.default_rng(5)
        br = tiny_prior()
        t = br.embed_tokens(rand_image(rng, TINY.x_s))
        t2, taps = br.forward_segment(t, 1, 2)
        assert list(taps) == [2]
        assert np.array_equal(taps[2].data, t2.data)

    def test_segment_bounds_validation(self):
        br = tiny_prior()
        t = br.embed_tokens(rand_image(np.random.default_rng(0), TINY.x_s))
        with pytest.raises(ValueError):
            br.forward_segment(t, 0, 3)
        with pytest.raises(ValueError):
            br.forward_segment(t, 3, 99)
        with pytest.raises(ValueError):
            br.forward_segment(t, 5, 4)

    def test_injection_only_at_registered_sites(self):
        rng = np.random.default_rng(1)
        br = tiny_prior(injection_layers=(7, 8))
        t = br.embed_tokens(rand_image(rng, TINY.x_s))
        ln = LayerNorm(TINY.C)
        init_params(ln, 9)
        inj = Tensor(rng.random(t.shape).astype(np.float32))
        out, _ = br.forward_segment(t, 1, 8, {7: (inj, ln)})
        assert out.shape == t.shape
        with pytest.raises(ValueError, match="not an injection site"):
            br.forward_segment(t, 1, 8, {3: (inj, ln)})
        with pytest.raises(ValueError, match="outside segment"):
            br.forward_segment(t, 1, 4, {7: (inj, ln)})

    def test_neck_produces_decoder_width_map(self):
        rng = np.random.default_rng(2)
        br = tiny_prior()
        t, _ = br.forward_segment(br.embed_tokens(rand_image(rng, TINY.x_s)),
                                  1, len(br.layers))
        fmap = br.project(t)
        g = TINY.x_s // 16
        assert fmap.shape == (2, TINY.C_d, g, g)

    def test_no_injection_site_unless_given(self):
        rng = np.random.default_rng(3)
        br = tiny_prior()
        t = br.embed_tokens(rand_image(rng, TINY.x_s))
        ln = LayerNorm(TINY.C)
        inj = Tensor(rng.random(t.shape).astype(np.float32))
        with pytest.raises(ValueError, match="not an injection site"):
            br.forward_segment(t, 1, 8, {8: (inj, ln)})


class TestDomainBranch:
    def test_stride_and_width_schedule(self):
        rng = np.random.default_rng(0)
        br = tiny_domain()
        x = rand_image(rng, TINY.x_c)
        c = TINY.C_c
        sides = []
        for j in range(1, N_LAYERS + 1):
            x = br.forward_layer(j, x)
            sides.append((x.shape[1], x.shape[2]))
        assert sides[0] == (c // 2, TINY.x_c // 2)
        assert sides[1] == (c, TINY.x_c // 4)
        assert all(s == (c, TINY.x_c // 4) for s in sides[2:])

    def test_injection_adds_after_the_block(self):
        rng = np.random.default_rng(6)
        br = tiny_domain()
        x = rand_image(rng, TINY.x_c)
        base = br.forward_layer(1, x)
        extra = Tensor(rng.random(base.shape).astype(np.float32))
        bumped = br.forward_layer(1, x, injection=extra)
        assert np.allclose(bumped.data, base.data + extra.data, atol=1e-7)

    def test_injection_shape_is_checked(self):
        br = tiny_domain()
        x = rand_image(np.random.default_rng(0), TINY.x_c)
        wrong = Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="does not match"):
            br.forward_layer(1, x, injection=wrong)

    def test_layer_index_bounds(self):
        br = tiny_domain()
        x = rand_image(np.random.default_rng(0), TINY.x_c)
        for j in (0, 9):
            with pytest.raises(ValueError):
                br.forward_layer(j, x)

    def test_width_must_be_even(self):
        cfg = ModelConfig(m=2, C=16, C_c=7, C_d=8, heads=2, x_c=8, x_s=32,
                          window=2, rfin_count=0, dkin_count=0)
        with pytest.raises(ValueError, match="even"):
            DomainBranch(cfg)

    def test_projection_to_decoder_width(self):
        rng = np.random.default_rng(7)
        br = tiny_domain()
        x = rand_image(rng, TINY.x_c)
        for j in range(1, N_LAYERS + 1):
            x = br.forward_layer(j, x)
        out = br.project(x)
        assert out.shape == (2, TINY.C_d, TINY.x_c // 4, TINY.x_c // 4)

    def test_grids_of_both_branches_agree(self):
        """The conv branch ends at x_c/4 and the token grid is x_s/16, equal
        under the enforced x_s = 4*x_c relation."""
        assert TINY.x_c // 4 == TINY.x_s // 16
        with pytest.raises(ValueError):
            ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=64,
                        window=2, rfin_count=0, dkin_count=0).validate()
