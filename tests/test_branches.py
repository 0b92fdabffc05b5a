"""Encoder branch behavior: per-layer execution, injections, grids, and the
shape of the graph a training step records."""

from dataclasses import replace

import numpy as np
import pytest

from braidseg.blocks import init_params
from braidseg.domain import N_LAYERS, DomainBranch
from braidseg.fusion import final_fuse
from braidseg.model import ModelConfig, build_model
from braidseg.prior import PriorBranch
from braidseg.tensor import Tensor
from braidseg.train import seg_loss
from configs import TINY
from graphmem import forward_inputs, live_graph_mib, op_grads, recorded_ops, train_peak_mib


def tiny_prior(seed=0):
    br = PriorBranch(TINY)
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
        for i, layer in enumerate(br.layers, start=1):
            expects_global = i in (2, 4, 6)
            assert (layer._window is None) == expects_global

    @pytest.mark.parametrize("seed", range(3))
    def test_segment_composition_is_bitwise(self, seed):
        """The plan runs the prior layers in segments between domain
        layers; that changes no bit against running each branch straight
        through with forward_layer."""
        net = build_model(replace(TINY, rfin_count=0, dkin_count=0), seed=seed)
        rng = np.random.default_rng(seed)
        xc, xs = rand_image(rng, TINY.x_c), rand_image(rng, TINY.x_s)
        pr, dom = net.patch_prior, net.conv_domain
        t = pr.embed_tokens(xs)
        for i in range(1, len(pr.layers) + 1):
            t = pr.forward_layer(i, t)
        d = xc
        for j in range(1, N_LAYERS + 1):
            d = dom.forward_layer(j, d)
        want = final_fuse(pr.project(t), dom.project(d))
        assert net.encode(xc, xs).data.tobytes() == want.data.tobytes()

    def test_layer_index_bounds(self):
        br = tiny_prior()
        t = br.embed_tokens(rand_image(np.random.default_rng(0), TINY.x_s))
        for i in (0, 9):
            with pytest.raises(ValueError, match="out of range"):
                br.forward_layer(i, t)

    def test_any_layer_takes_an_injection(self):
        """forward_layer hands the injection to the block, windowed or
        global; the plan alone decides which layers receive one."""
        rng = np.random.default_rng(1)
        br = tiny_prior()
        t = br.embed_tokens(rand_image(rng, TINY.x_s))
        inj = Tensor(rng.random(t.shape).astype(np.float32))
        for i in (1, 2, 8):
            out = br.forward_layer(i, t, inj)
            assert out.data.tobytes() == br.layers[i - 1].forward(t, inj).data.tobytes()
            assert not np.array_equal(out.data, br.forward_layer(i, t).data)
        wrong = Tensor(np.zeros((2, 3, TINY.C), dtype=np.float32))
        with pytest.raises(ValueError, match="shape mismatch"):
            br.forward_layer(1, t, wrong)

    def test_neck_produces_decoder_width_map(self):
        rng = np.random.default_rng(2)
        br = tiny_prior()
        t = br.embed_tokens(rand_image(rng, TINY.x_s))
        for i in range(1, len(br.layers) + 1):
            t = br.forward_layer(i, t)
        fmap = br.project(t)
        g = TINY.x_s // 16
        assert fmap.shape == (2, TINY.C_d, g, g)


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
        with pytest.raises(ValueError, match="shape mismatch"):
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
        with pytest.raises(ValueError, match="C_c must be even"):
            cfg.validate()

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


class TestRecordedGraph:
    @staticmethod
    def default_graph():
        """A default-config model and the ops its batch-2 forward pass plus
        loss records."""
        net, xc, xs, target = forward_inputs(ModelConfig(), batch=2)
        return net, recorded_ops(seg_loss(net.forward(xc, xs), target))

    @staticmethod
    def op(n):
        return op_grads(n).__qualname__.partition(".")[0]

    def test_each_token_move_is_one_node(self):
        """A default-config batch-2 forward pass plus loss records at most
        640 ops, and no reshape or transpose feeds another: each move
        between the sequence, head and window layouts is one node."""
        _, ops = self.default_graph()

        def moves(n):
            return n is not None and n._backward is not None and self.op(n) in ("reshape", "transpose")

        assert sum(map(moves, ops)) > 0         # the check below is not vacuous
        assert [self.op(n) for n in ops if moves(n) and any(map(moves, n._parents))] == []
        assert len(ops) <= 640

    def test_each_linear_layer_is_one_node(self):
        """x @ W + b of every linear layer and of the patch embedding is one
        matmul node with the bias as its third operand, so no add_bias node
        adds one of their biases: 528 ops, against 633 when each also
        recorded an add_bias."""
        net, ops = self.default_graph()
        params = dict(net.named_params())
        biases = {id(p) for name, p in params.items() if name.endswith(".b")
                  and getattr(params.get(name[:-1] + "w"), "ndim", 0) == 2}
        fused = {id(n._parents[2]) for n in ops if self.op(n) == "matmul" and len(n._parents) == 3}
        added = {id(p) for n in ops if self.op(n) == "add_bias" for p in n._parents}
        assert len(biases) > 100 and fused == biases and not added & biases
        assert len(ops) <= 528

    def test_the_live_graph_stays_under_21_mib(self):
        """A default-config batch-2 forward pass plus loss keeps 36.25 MiB
        alive (tracemalloc) when every result holds its parents, 19.72 MiB
        when the graph holds only nodes and the arrays its rules read, and
        17.33 MiB when gelu keeps its slope instead of its input; 17.24 MiB
        once a first forward pass has run before tracing, as it now does."""
        assert live_graph_mib(ModelConfig(), batch=2) < 21.0

    def test_the_train_peak_stays_under_32_mib(self):
        """Four default-config batch-2 iterations of train() peak at
        41.07 MiB (tracemalloc) when backward fills a gradient buffer per
        parameter and keeps every rule's arrays until it returns, and at
        28.67 MiB when each parameter steps inside backward and each rule's
        arrays are freed as the walk passes it, and at 26.51 MiB when gelu
        keeps its slope instead of its input."""
        assert train_peak_mib() < 32.0
