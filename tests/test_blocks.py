"""Layer-level checks: shapes, parameter bookkeeping, reference math."""

from dataclasses import replace

import numpy as np
import pytest

from braidseg import tensor as T
from braidseg.tensor import Tensor
from braidseg.blocks import (Attention, Block, Conv, InstanceNorm, LayerNorm,
                             Linear, Mlp, PatchEmbed, ResidualSeBlock,
                             TransformerBlock, _trunc_normal, init_params,
                             param, stable_hash, window_merge, window_partition)
from braidseg.model import BraidNet, ModelConfig, build_model
from test_decoder import GRADCHECK_CFG


def rand(rng, *shape, dtype=np.float32):
    return (rng.random(shape) * 2.0 - 1.0).astype(dtype)


class TestParamBookkeeping:
    def test_named_params_walks_nested_blocks_in_order(self):
        class Inner(Block):
            def __init__(self):
                self.w = param((2, 2), "trunc_normal")

        class Outer(Block):
            def __init__(self):
                self.a = Inner()
                self.bs = [Inner(), Inner()]
                self.z = param((3,), "zeros")

        names = [n for n, _ in Outer().named_params()]
        assert names == ["a.w", "bs.0.w", "bs.1.w", "z"]

    def test_init_is_keyed_by_name_not_traversal_order(self):
        """The same (seed, name) pair must give the same bits regardless of
        which container the tensor sits in."""

        class A(Block):
            def __init__(self):
                self.core = Linear(8, 8)

        class B(Block):
            def __init__(self):
                self.other = Linear(4, 4)   # extra sibling shifts nothing
                self.core = Linear(8, 8)

        a, b = A(), B()
        init_params(a, seed=3)
        init_params(b, seed=3)
        pa = dict(a.named_params())
        pb = dict(b.named_params())
        assert pa["core.w"].data.tobytes() == pb["core.w"].data.tobytes()

    def test_init_kinds(self):
        class M(Block):
            def __init__(self):
                self.ln = LayerNorm(16)
                self.fc = Linear(16, 16)

        m = M()
        init_params(m, seed=0)
        p = dict(m.named_params())
        assert np.all(p["ln.g"].data == 1.0)
        assert np.all(p["ln.b"].data == 0.0)
        w = p["fc.w"].data
        assert np.abs(w).max() <= 2 * 0.02 + 1e-9
        assert w.std() > 0.005

    def test_unknown_init_kind_raises(self):
        class M(Block):
            def __init__(self):
                self.w = Tensor(np.zeros((2,)), requires_grad=True,
                                init_kind="banana")

        with pytest.raises(ValueError, match="banana"):
            init_params(M(), seed=0)

    def test_zero_grad_and_cast(self):
        fc = Linear(4, 4)
        init_params(fc, seed=1)
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        T.tensor_sum(fc.forward(x)).backward()
        assert any(np.abs(p.grad).sum() > 0 for _, p in fc.named_params())
        init_params(fc, seed=1, dtype=np.float64)
        for _, p in fc.named_params():
            assert p.dtype == np.float64
            assert np.all(p.grad == 0.0)

    def test_stable_hash_is_stable(self):
        assert stable_hash("decoder.out.w") == stable_hash("decoder.out.w")
        assert stable_hash("a") != stable_hash("b")


class TestNorms:
    @pytest.mark.parametrize("seed", range(4))
    def test_layer_norm_statistics(self, seed):
        rng = np.random.default_rng(seed)
        ln = LayerNorm(32)
        init_params(ln, seed=0, dtype=np.float64)
        x = rand(rng, 4, 7, 32, dtype=np.float64)
        y = ln.forward(Tensor(x)).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-12
        assert np.abs(y.std(axis=-1) - 1.0).max() < 1e-3

    @pytest.mark.parametrize("seed", range(4))
    def test_instance_norm_statistics(self, seed):
        rng = np.random.default_rng(seed)
        inorm = InstanceNorm(6)
        init_params(inorm, seed=0, dtype=np.float64)
        x = rand(rng, 2, 6, 5, 5, dtype=np.float64)
        y = inorm.forward(Tensor(x)).data
        assert np.abs(y.mean(axis=(2, 3))).max() < 1e-12

    def test_zero_input_maps_to_shift(self):
        # both norms leave an all-zero input at their shift parameter
        ln = LayerNorm(8)
        init_params(ln, seed=0)
        out = ln.forward(Tensor(np.zeros((2, 3, 8), dtype=np.float32))).data
        assert np.all(out == 0.0)
        inorm = InstanceNorm(4)
        init_params(inorm, seed=0)
        out = inorm.forward(Tensor(np.zeros((1, 4, 6, 6), dtype=np.float32))).data
        assert np.all(out == 0.0)


class TestAttention:
    def test_single_head_matches_manual_reference(self):
        rng = np.random.default_rng(7)
        attn = Attention(8, heads=1)
        init_params(attn, seed=5, dtype=np.float64)
        x = rand(rng, 1, 5, 8, dtype=np.float64)
        xt = Tensor(x)
        out = attn.forward(xt, xt, xt).data

        p = {n: t.data for n, t in attn.named_params()}
        q = x @ p["wq.w"] + p["wq.b"]
        k = x @ p["wk.w"] + p["wk.b"]
        v = x @ p["wv.w"] + p["wv.b"]
        logits = q @ k.transpose(0, 2, 1) / np.sqrt(8.0)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        ref = (w @ v) @ p["wo.w"] + p["wo.b"]
        assert np.abs(out - ref).max() < 1e-12

    def test_multihead_shape_and_head_divisibility(self):
        attn = Attention(12, heads=3)
        init_params(attn, seed=0)
        x = Tensor(np.zeros((2, 9, 12), dtype=np.float32))
        assert attn.forward(x, x, x).shape == (2, 9, 12)
        with pytest.raises(ValueError):
            Attention(10, heads=3)

    def test_cross_attention_token_counts(self):
        attn = Attention(8, heads=2)
        init_params(attn, seed=0)
        q = Tensor(np.ones((1, 3, 8), dtype=np.float32))
        kv = Tensor(np.ones((1, 11, 8), dtype=np.float32))
        assert attn.forward(q, kv, kv).shape == (1, 3, 8)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_sum_via_constant_value(self, seed):
        """With v constant across tokens, attention output is that constant
        (softmax rows sum to one) pushed through the output projection."""
        rng = np.random.default_rng(seed)
        attn = Attention(8, heads=2)
        init_params(attn, seed=seed, dtype=np.float64)
        for n, p in attn.named_params():
            if n == "wv.w":
                p.data = np.zeros_like(p.data)
            if n == "wv.b":
                p.data = rng.standard_normal(p.shape)
        x = rand(rng, 1, 6, 8, dtype=np.float64)
        xt = Tensor(x)
        out = attn.forward(xt, xt, xt).data
        p = {n: t.data for n, t in attn.named_params()}
        ref = np.broadcast_to(p["wv.b"], (1, 6, 8)) @ p["wo.w"] + p["wo.b"]
        assert np.abs(out - ref).max() < 1e-12


class TestWindows:
    @pytest.mark.parametrize("seed", range(5))
    def test_partition_merge_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        g, w, c = 8, 4, 6
        x = Tensor(rand(rng, 2, g * g, c))
        parts = window_partition(x, g, w)
        assert parts.shape == ((g // w) ** 2 * 2, w * w, c)
        back = window_merge(parts, g, w)
        assert np.array_equal(back.data, x.data)

    def test_windows_are_spatially_contiguous(self):
        """Window 0 of a 4x4 grid with w=2 must hold tokens {0, 1, 4, 5}."""
        tok = np.arange(16, dtype=np.float32).reshape(1, 16, 1)
        parts = window_partition(Tensor(tok), 4, 2).data
        assert parts[0, :, 0].tolist() == [0.0, 1.0, 4.0, 5.0]

    def test_window_must_divide_grid(self):
        x = Tensor(np.zeros((1, 36, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            window_partition(x, 6, 4)


class TestTransformerBlock:
    def test_windowed_and_global_output_shapes(self):
        for window in (2, None):
            blk = TransformerBlock(8, heads=2, grid=4, window=window)
            init_params(blk, seed=0)
            x = Tensor(np.random.default_rng(0).random((2, 16, 8)).astype(np.float32))
            assert blk.forward(x).shape == (2, 16, 8)

    def test_injection_changes_output(self):
        """An injected tensor changes the output; a zero one changes no bit."""
        blk = TransformerBlock(8, heads=2, grid=4, window=None)
        init_params(blk, seed=0)
        rng = np.random.default_rng(1)
        x = Tensor(rng.random((1, 16, 8)).astype(np.float32))
        inj = Tensor(rng.random((1, 16, 8)).astype(np.float32))
        base = blk.forward(x).data
        assert not np.array_equal(base, blk.forward(x, injected=inj).data)
        zero = Tensor(np.zeros((1, 16, 8), dtype=np.float32))
        assert blk.forward(x, injected=zero).data.tobytes() == base.tobytes()


class TestResidualSe:
    def test_shapes_and_stride(self):
        blk = ResidualSeBlock(4, 8, stride=2)
        init_params(blk, seed=0)
        x = Tensor(np.random.default_rng(0).random((2, 4, 16, 16)).astype(np.float32))
        assert blk.forward(x).shape == (2, 8, 8, 8)

    def test_zero_weights_leave_half_gated_shortcut(self):
        """With every weight zeroed the residual path contributes nothing:
        the squeeze gate sits at sigmoid(0) = 0.5 on a zero branch, so the
        block reduces to activation(shortcut)."""
        blk = ResidualSeBlock(4, 4, stride=1)
        for _, p in blk.named_params():
            p.data = np.zeros_like(p.data)
        rng = np.random.default_rng(3)
        x = rng.random((1, 4, 6, 6)).astype(np.float32)
        out = blk.forward(Tensor(x)).data
        ref = np.where(x > 0, x, 0.01 * x)
        assert np.abs(out - ref).max() < 1e-7

    def test_projection_shortcut_only_when_needed(self):
        same = ResidualSeBlock(4, 4, stride=1)
        assert not any(n.startswith(("proj", "np_")) for n, _ in same.named_params())
        grown = ResidualSeBlock(4, 8, stride=2)
        assert any(n.startswith("proj") for n, _ in grown.named_params())


class TestPatchEmbed:
    def test_token_count_and_grad_flow(self):
        pe = PatchEmbed(24, grid=4)
        init_params(pe, seed=0)
        x = Tensor(np.random.default_rng(0).random((2, 1, 64, 64)).astype(np.float32))
        toks = pe.forward(x)
        assert toks.shape == (2, 16, 24)
        T.tensor_sum(toks).backward()
        grads = {n: np.abs(p.grad).max() for n, p in pe.named_params()}
        assert grads["w"] > 0
        assert grads["pos"] > 0

    def test_spatial_extent_must_match_grid(self):
        pe = PatchEmbed(8, grid=4)
        init_params(pe, seed=0)
        with pytest.raises(ValueError):
            pe.forward(Tensor(np.zeros((1, 1, 60, 60), dtype=np.float32)))

    def test_patchify_matches_explicit_gather(self):
        """Each token must see exactly its own 16x16 tile, row-major."""
        pe = PatchEmbed(4, grid=2)
        init_params(pe, seed=1)
        img = np.arange(32 * 32, dtype=np.float32).reshape(1, 1, 32, 32)
        toks = pe.forward(Tensor(img)).data
        p = {n: t.data for n, t in pe.named_params()}
        tile = img[0, 0, 16:32, 0:16].reshape(-1)        # grid position (1, 0)
        ref = tile @ p["w"] + p["b"] + p["pos"][2]
        assert np.abs(toks[0, 2] - ref).max() < 1e-2


class TestMlp:
    def test_hidden_expansion_and_shapes(self):
        mlp = Mlp(8)
        init_params(mlp, seed=0)
        names = dict(mlp.named_params())
        assert names["fc1.w"].shape == (8, 32)
        assert names["fc2.w"].shape == (32, 8)
        x = Tensor(np.zeros((2, 5, 8), dtype=np.float32))
        assert mlp.forward(x).shape == (2, 5, 8)


def rescan_trunc_normal(rng, shape, std):
    """Reference: redraw every entry beyond 2 std, rescanning the whole array
    after each round."""
    v = rng.normal(0.0, std, size=shape)
    bad = np.abs(v) > 2 * std
    while bad.any():
        v[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(v) > 2 * std
    return v


def two_phase_build(cfg, seed, dtype):
    """Reference build: float32 zeros cast to `dtype`, then an RNG per
    tensor, drawn or not, and the rescanning truncated normal."""
    net = BraidNet(cfg)
    for name, p in net.named_params():
        p.data = p.data.astype(dtype)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), stable_hash(name)]))
        kind, _, arg = p.init_kind.partition(":")
        if kind == "ones":
            p.data = np.ones_like(p.data)
        elif kind == "trunc_normal":
            p.data = rescan_trunc_normal(rng, p.shape, 0.02).astype(p.dtype)
        elif kind == "he":
            p.data = rng.normal(0.0, np.sqrt(2.0 / int(arg)), size=p.shape).astype(p.dtype)
    return net


class CountingRng:
    """Passes normal() through to a Generator and counts the calls."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def normal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.normal(*args, **kwargs)


class TestOnePassBuild:
    """build_model draws every parameter at its final precision in one pass,
    bit for bit as the two-phase reference does."""

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**40])
    @pytest.mark.parametrize("couplers", [(3, 3), (0, 0)])
    @pytest.mark.parametrize("cfg, dtype", [(ModelConfig(), np.float32),
                                            (GRADCHECK_CFG, np.float32),
                                            (GRADCHECK_CFG, np.float64)],
                             ids=["default-f32", "audit-f32", "audit-f64"])
    def test_matches_the_two_phase_build(self, cfg, dtype, couplers, seed):
        cfg = replace(cfg, rfin_count=couplers[0], dkin_count=couplers[1])
        got = build_model(cfg, seed=seed, dtype=dtype).named_params()
        want = two_phase_build(cfg, seed, dtype).named_params()
        assert [n for n, _ in got] == [n for n, _ in want]
        for (name, g), (_, w) in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), name
            assert g.data.tobytes() == w.data.tobytes(), name

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_model(GRADCHECK_CFG, seed=-1)

    @pytest.mark.parametrize("shape, seeds", [((400, 500), [0]), ((1,), range(60))])
    def test_trunc_normal_redraws_as_the_full_rescan(self, shape, seeds):
        rounds = 0
        for seed in seeds:
            rng = CountingRng(seed)
            got = _trunc_normal(rng, shape, 0.02)
            want = rescan_trunc_normal(np.random.default_rng(seed), shape, 0.02)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            rounds = max(rounds, rng.calls - 1)
        assert rounds >= (3 if shape[0] > 1 else 1)      # the redraw path ran
