"""Tensor core: op semantics, graph mechanics, finite-difference agreement.

Every differentiable op is checked against central differences at float64
(tolerance 1e-6 for linear ops, 1e-4 for nonlinear ones). Inputs are kept
away from activation kinks so the numeric side is well defined.
"""

import ast
import contextlib
import math
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import braidseg.tensor as T
from graphmem import op_grads
from opcheck import check_op, numeric_grad, rel_error

LIN_TOL = 1e-6
NONLIN_TOL = 1e-4


def rand(*shape, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=shape)
    # keep clear of relu/leaky kinks at 0
    return np.where(np.abs(x) < 0.05, x + 0.1, x)


class TestErf:
    """The numpy Cephes erf behind gelu, against the C library's math.erf."""

    def test_float64_within_four_ulps(self):
        # Cephes' own error reaches 3 ulps of the libm value on this grid
        # (3.3e-16 at x = -0.9374)
        x = np.linspace(-8.0, 8.0, 160_001)
        ref = np.array([math.erf(v) for v in x])
        assert np.all(np.abs(T._erf(x) - ref) <= 4 * np.spacing(np.abs(ref)))

    def test_float32_rounds_like_the_float64_value(self):
        rng = np.random.default_rng(0)
        x = (rng.standard_normal(1_000_000) * 2.0).astype(np.float32)
        ref = np.array([math.erf(v) for v in x.tolist()], dtype=np.float32)
        y = T._erf(x)
        assert y.dtype == np.float32
        assert np.array_equal(y, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_symmetry_is_exact(self, dtype):
        x = np.random.default_rng(1).uniform(0.0, 7.0, size=4096).astype(dtype)
        assert np.array_equal(T._erf(-x), -T._erf(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, dtype):
        x = np.array([0.0, -0.0, 1.0, -1.0, 6.0, -6.0, np.inf, -np.inf, np.nan], dtype=dtype)
        with np.errstate(all="raise"):
            y = T._erf(x)
        assert y.dtype == dtype
        assert np.array_equal(np.signbit(y[:2]), [False, True]) and not y[:2].any()
        assert abs(y[2] - math.erf(1.0)) <= np.spacing(dtype(1.0)) and y[3] == -y[2]
        assert y[4:8].tolist() == [1.0, -1.0, 1.0, -1.0]
        assert np.isnan(y[8])

    def test_branches_meet_at_one(self):
        # the last value of the |x| <= 1 form and the first of the far form
        x = np.array([1.0, np.nextafter(1.0, 2.0)])
        y = T._erf(x)
        assert 0.0 <= y[1] - y[0] <= 4e-16

    def test_threads_do_not_share_work_rows(self):
        # each thread evaluates in its own float64 rows; shared rows would
        # mix one thread's block into another's result
        inputs = [np.random.default_rng(k).uniform(-4.0, 4.0, size=33000 + 500 * k) for k in range(4)]
        expected = [T._erf(x) for x in inputs]
        bad, done = [], []

        def worker(k):
            for _ in range(40):
                if not np.array_equal(T._erf(inputs[k]), expected[k]):
                    bad.append(k)
            done.append(k)

        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(prev)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == [0, 1, 2, 3] and bad == []

    def test_blocks_and_shape_leave_values_alone(self):
        # more elements, and more |x| > 1 elements, than one evaluation block
        x = np.random.default_rng(2).uniform(-5.0, 5.0, size=(3, 121, 97))
        y = T._erf(x)
        assert y.shape == x.shape
        pieces = np.array_split(x.reshape(-1), 9)               # each under one block
        assert np.array_equal(y.reshape(-1), np.concatenate([T._erf(p) for p in pieces]))


# ---------------------------------------------------------------------
# forward semantics, frozen values
# ---------------------------------------------------------------------

class TestForward:
    def test_add_sub_mul_div(self):
        a = T.Tensor(np.array([1.0, 2.0, -3.0], dtype=np.float32))
        b = T.Tensor(np.array([4.0, -5.0, 6.0], dtype=np.float32))
        assert np.allclose(T.add(a, b).data, [5.0, -3.0, 3.0])
        assert np.allclose(T.sub(a, b).data, [-3.0, 7.0, -9.0])
        assert np.allclose(T.mul(a, b).data, [4.0, -10.0, -18.0])
        assert np.allclose(T.div(a, b).data, [0.25, -0.4, -0.5])

    def test_scale(self):
        x = T.Tensor(np.array([1.0, -2.0], dtype=np.float32))
        assert np.allclose(T.scale(x, 2.5).data, [2.5, -5.0])

    def test_no_broadcasting(self):
        a = T.Tensor(np.zeros((2, 3), dtype=np.float32))
        b = T.Tensor(np.zeros((3,), dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            T.add(a, b)

    def test_dtype_mismatch_rejected(self):
        a = T.Tensor(np.zeros(3, dtype=np.float32))
        b = T.Tensor(np.zeros(3, dtype=np.float64))
        with pytest.raises(ValueError, match="dtype"):
            T.add(a, b)

    def test_leaky_relu_values(self):
        x = T.Tensor(np.array([-2.0, 0.0, 3.0], dtype=np.float32))
        assert np.allclose(T.leaky_relu(x).data, [-0.02, 0.0, 3.0])

    def test_relu_values(self):
        x = T.Tensor(np.array([-2.0, 0.0, 3.0], dtype=np.float32))
        assert np.allclose(T.relu(x).data, [0.0, 0.0, 3.0])

    def test_sigmoid_values(self):
        x = T.Tensor(np.array([0.0, 100.0, -100.0], dtype=np.float64))
        y = T.sigmoid(x).data
        assert np.allclose(y, [0.5, 1.0, 0.0])
        assert np.all(np.isfinite(y))

    def test_gelu_values(self):
        # 0.5 * x * (1 + erf(x / sqrt(2))) at a few anchors
        x = T.Tensor(np.array([0.0, 1.0, -1.0], dtype=np.float64))
        y = T.gelu(x).data
        assert abs(y[0]) < 1e-12
        assert abs(y[1] - 0.8413447460685429) < 1e-12
        assert abs(y[2] - (-0.15865525393145707)) < 1e-12

    def test_softmax_rows_sum_to_one(self):
        for seed in range(5):
            x = T.Tensor(np.random.default_rng(seed).normal(0, 50, size=(4, 7)))
            y = T.softmax(x).data
            assert np.all(np.isfinite(y))
            assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(3).normal(size=(2, 5))
        a = T.softmax(T.Tensor(x)).data
        b = T.softmax(T.Tensor(x + 1000.0)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_matmul_2d(self):
        a = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        b = T.Tensor(np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32))
        assert np.allclose(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_batch_agreement(self):
        a = T.Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        b = T.Tensor(np.zeros((5, 4, 6), dtype=np.float32))
        with pytest.raises(ValueError, match="batch"):
            T.matmul(a, b)

    def test_matmul_2d_left_needs_2d_right(self):
        a = T.Tensor(np.zeros((3, 4), dtype=np.float32))
        b = T.Tensor(np.zeros((2, 4, 5), dtype=np.float32))
        with pytest.raises(ValueError, match="batch"):
            T.matmul(a, b)

    def test_matmul_folded_weight_matches_per_sample(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3, 5, 8)).astype(np.float32)
        w = rng.normal(size=(8, 6)).astype(np.float32)
        out = T.matmul(T.Tensor(a), T.Tensor(w)).data
        ref = np.stack([np.stack([np.matmul(a[i, j], w) for j in range(3)]) for i in range(2)])
        assert out.shape == (2, 3, 5, 6)
        assert np.max(np.abs(out - ref)) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_with_bias_is_matmul_then_add_bias_bit_for_bit(self, dtype):
        """One node computes the folded GEMM, then + b; b's gradient sums g
        over the unfolded leading axes, as add_bias does. The transpose
        after it hands back a non-contiguous g, whose sum over the folded
        rows would round differently."""
        rng = np.random.default_rng(9)
        arrays = [rng.normal(size=s).astype(dtype) for s in ((2, 7, 5, 8), (8, 6), (6,))]
        weights = T.Tensor(rng.normal(size=(6, 5, 7, 2)).astype(dtype))
        one = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
        two = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
        fused = T.matmul(*one)
        split = T.add_bias(T.matmul(two[0], two[1]), two[2])
        assert fused.dtype == dtype and np.array_equal(fused.data, split.data)
        for out in (fused, split):
            T.tensor_sum(T.mul(T.transpose(out, (3, 2, 1, 0)), weights)).backward()
        for p, q in zip(one, two):
            assert np.array_equal(p.grad, q.grad)

    def test_matmul_checks_its_bias_at_call_time(self):
        x = T.Tensor(np.zeros((2, 3, 4), dtype=np.float32), requires_grad=True)
        w = T.Tensor(np.zeros((4, 5), dtype=np.float32), requires_grad=True)
        for bias in (np.zeros(4, np.float32), np.zeros((1, 5), np.float32)):
            with pytest.raises(ValueError, match="^matmul: bias shape"):
                T.matmul(x, w, T.Tensor(bias))
        with pytest.raises(ValueError, match="^matmul: dtype mismatch"):
            T.matmul(x, w, T.Tensor(np.zeros(5, np.float64)))
        with pytest.raises(ValueError, match="^matmul: bias shape"):     # a batched b takes none
            T.matmul(x, T.Tensor(np.zeros((2, 4, 5), np.float32)), T.Tensor(np.zeros(5, np.float32)))

    @pytest.mark.parametrize("bias", [False, True])
    def test_matmul_computes_no_gradient_for_an_image(self, bias):
        """An input that needs no gradient, such as the image the patch
        embedding reads, gets None from the rule and costs no GEMM."""
        rng = np.random.default_rng(10)
        image = T.Tensor(rng.normal(size=(2, 3, 4)))
        w = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = T.Tensor(rng.normal(size=5), requires_grad=True)
        out = T.matmul(image, w, b) if bias else T.matmul(image, w)
        grads = op_grads(out._node)(np.ones(out.shape))
        assert grads[0] is None and grads[1].shape == (4, 5)
        assert len(grads) == 2 + bias and (not bias or grads[2].shape == (5,))
        out = T.matmul(T.Tensor(image.data, requires_grad=True), w, b)
        assert op_grads(out._node)(np.ones(out.shape))[0].shape == (2, 3, 4)

    def test_matmul_inner_mismatch(self):
        a = T.Tensor(np.zeros((3, 4), dtype=np.float32))
        b = T.Tensor(np.zeros((5, 6), dtype=np.float32))
        with pytest.raises(ValueError, match="inner"):
            T.matmul(a, b)

    def test_conv2d_identity_kernel(self):
        # 1x1 kernel of 1.0 with zero bias is the identity
        x = rand(2, 3, 5, 5, seed=1)
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(3)))
        assert np.allclose(out.data, x)

    def test_conv2d_shape_formula(self):
        x = T.Tensor(np.zeros((1, 2, 11, 11), dtype=np.float32))
        w = T.Tensor(np.zeros((4, 2, 3, 3), dtype=np.float32))
        b = T.Tensor(np.zeros(4, dtype=np.float32))
        assert T.conv2d(x, w, b, stride=2, padding=1).shape == (1, 4, 6, 6)
        assert T.conv2d(x, w, b, stride=1, padding=1).shape == (1, 4, 11, 11)

    def test_conv2d_known_sum(self):
        # all-ones 3x3 kernel computes neighborhood sums
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = T.conv2d(T.Tensor(x), T.Tensor(np.ones((1, 1, 3, 3))),
                       T.Tensor(np.zeros(1)), stride=1, padding=0)
        assert out.data[0, 0, 0, 0] == pytest.approx(sum([0, 1, 2, 4, 5, 6, 8, 9, 10]))

    def test_conv2d_rejects_even_kernel(self):
        x = T.Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
        w = T.Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="odd"):
            T.conv2d(x, w, T.Tensor(np.zeros(1, dtype=np.float32)))

    def test_conv2d_rejects_channel_mismatch(self):
        x = T.Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
        w = T.Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="channels"):
            T.conv2d(x, w, T.Tensor(np.zeros(2, dtype=np.float32)))

    def test_conv_transpose_doubles_extent(self):
        x = T.Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32))
        w = T.Tensor(np.zeros((4, 2, 2, 2), dtype=np.float32))
        b = T.Tensor(np.zeros(2, dtype=np.float32))
        assert T.conv_transpose2d(x, w, b).shape == (1, 2, 16, 16)

    @pytest.mark.parametrize("kh,kw", [(3, 2), (2, 1)])
    def test_conv_transpose_rejects_a_non_square_kernel(self, kh, kw):
        x = T.Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32))
        w = T.Tensor(np.zeros((4, 2, kh, kw), dtype=np.float32))
        b = T.Tensor(np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="square"):
            T.conv_transpose2d(x, w, b)

    def test_conv_transpose_matches_manual_scatter(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 3, 3))
        w = rng.normal(size=(2, 3, 2, 2))
        out = T.conv_transpose2d(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(3))).data
        ref = np.zeros((1, 3, 6, 6))
        for i in range(3):
            for j in range(3):
                for ci in range(2):
                    ref[0, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2] += x[0, ci, i, j] * w[ci]
        assert np.allclose(out, ref, atol=1e-12)

    def test_layer_norm_stats(self):
        x = T.Tensor(rand(2, 6, 16, seed=2))
        g = T.Tensor(np.ones(16))
        b = T.Tensor(np.zeros(16))
        y = T.layer_norm(x, g, b).data
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_instance_norm_stats(self):
        x = T.Tensor(rand(2, 3, 8, 8, seed=3))
        g = T.Tensor(np.ones(3))
        b = T.Tensor(np.zeros(3))
        y = T.instance_norm(x, g, b).data
        assert np.allclose(y.mean(axis=(2, 3)), 0.0, atol=1e-6)
        assert np.allclose(y.var(axis=(2, 3)), 1.0, atol=1e-3)

    def test_norm_of_constant_input_is_beta(self):
        # zero variance: (x - mu) / sqrt(0 + eps) = 0, so output == beta
        x = T.Tensor(np.full((2, 4, 5, 5), 3.25))
        g = T.Tensor(np.full(4, 2.0))
        b = T.Tensor(np.linspace(0, 1, 4))
        y = T.instance_norm(x, g, b).data
        assert np.allclose(y, np.broadcast_to(b.data[None, :, None, None], y.shape), atol=1e-12)

    def test_tokens_map_round_trip(self):
        x = T.Tensor(rand(2, 16, 5, seed=4))
        back = T.map_to_tokens(T.tokens_to_map(x))
        assert np.array_equal(back.data, x.data)

    def test_transpose_reads_a_view_and_returns_a_shape(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        out = T.transpose(T.Tensor(x), (0, 2, 1, 3), view=(2, 3, 2, 2), shape=(2, 6, 2)).data
        assert np.array_equal(out, x.reshape(2, 3, 2, 2).transpose(0, 2, 1, 3).reshape(2, 6, 2))
        assert out.flags.c_contiguous

    def test_transpose_checks_axes_and_sizes_at_call_time(self):
        x = T.Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        with pytest.raises(ValueError, match="permutation"):
            T.transpose(x, (0, 2, 1), view=(6, 4))       # a permutation of x's axes, not the view's
        with pytest.raises(ValueError):
            T.transpose(x, (1, 0), view=(5, 5))          # view of the wrong size
        with pytest.raises(ValueError):
            T.transpose(x, (1, 0, 2), shape=(5, 5))      # shape of the wrong size

    def test_tokens_to_map_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            T.tokens_to_map(T.Tensor(np.zeros((1, 15, 4), dtype=np.float32)))

    def test_global_avg_pool(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        y = T.global_avg_pool(T.Tensor(x)).data
        assert y.shape == (1, 2, 1, 1)
        assert np.allclose(y.ravel(), [1.5, 5.5])

    def test_add_bias_trailing(self):
        x = T.Tensor(np.zeros((2, 4, 3), dtype=np.float32))
        b = T.Tensor(np.arange(3.0, dtype=np.float32))
        y = T.add_bias(x, b).data
        assert np.allclose(y[1, 2], [0.0, 1.0, 2.0])
        nc = T.Tensor(np.ones((4, 3), dtype=np.float32))
        assert np.allclose(T.add_bias(x, nc).data, 1.0)
        with pytest.raises(ValueError, match="trailing"):
            T.add_bias(x, T.Tensor(np.zeros(4, dtype=np.float32)))

    def test_bce_matches_naive(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 4))
        t = (rng.uniform(size=(4, 4)) > 0.5).astype(np.float64)
        got = float(T.bce_with_logits(T.Tensor(z), T.Tensor(t)).data)
        p = 1.0 / (1.0 + np.exp(-z))
        want = float(-(t * np.log(p) + (1 - t) * np.log(1 - p)).mean())
        assert got == pytest.approx(want, rel=1e-12)

    def test_bce_extreme_logits_finite(self):
        z = T.Tensor(np.array([[1000.0, -1000.0]]))
        t = T.Tensor(np.array([[1.0, 0.0]]))
        assert float(T.bce_with_logits(z, t).data) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------
# graph mechanics
# ---------------------------------------------------------------------

class TestBackwardMechanics:
    def test_sum_grad_is_ones(self):
        x = T.Tensor(rand(3, 4, seed=6), requires_grad=True)
        T.tensor_sum(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_fan_out_accumulates(self):
        # y = x * x reuses x twice: dy/dx = 2x
        x = T.Tensor(np.array([2.0, -3.0]), requires_grad=True)
        T.tensor_sum(T.mul(x, x)).backward()
        assert np.allclose(x.grad, [4.0, -6.0])

    def test_repeated_backward_accumulates(self):
        x = T.Tensor(np.array([1.0, 1.0]), requires_grad=True)
        T.tensor_sum(x).backward()
        T.tensor_sum(x).backward()
        assert np.allclose(x.grad, [2.0, 2.0])
        x.zero_grad()
        assert np.allclose(x.grad, [0.0, 0.0])

    def test_a_spent_graph_refuses_a_second_backward(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = T.tensor_sum(T.mul(x, x))
        loss.backward()
        with pytest.raises(RuntimeError, match="already differentiated"):
            loss.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])      # nothing flowed twice

    def test_step_gets_each_reached_leaf_once_and_no_buffer(self):
        x = T.Tensor(np.array([2.0, -3.0]), requires_grad=True)
        w = T.Tensor(np.array([0.5, 4.0]), requires_grad=True)
        idle = T.Tensor(np.ones(2), requires_grad=True)
        loss = T.tensor_sum(T.add(T.mul(x, x), T.mul(x, w)))     # x fans out three ways
        calls = []
        loss.backward(lambda leaf, g: calls.append((leaf, g.copy())))
        assert sorted(id(leaf) for leaf, _ in calls) == sorted([id(x), id(w)])
        got = {id(leaf): g for leaf, g in calls}
        assert np.array_equal(got[id(x)], 2 * x.data + w.data)
        assert np.array_equal(got[id(w)], x.data)
        assert x._grad is None and w._grad is None and idle._grad is None

    def test_grad_buffer_is_reused(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        buf = x.grad
        T.tensor_sum(T.mul(x, x)).backward()
        assert x.grad is buf and np.array_equal(buf, [2.0, 4.0])
        x.zero_grad()
        assert x.grad is buf and np.array_equal(buf, [0.0, 0.0])

    def test_zero_grad_follows_a_retyped_buffer(self):
        x = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        x.data = x.data.astype(np.float64)
        x.zero_grad()
        assert x.grad.dtype == np.float64 and np.array_equal(x.grad, [0.0, 0.0])

    def test_untouched_leaf_grad_is_exactly_zero(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        y = T.Tensor(np.ones(3), requires_grad=True)
        T.tensor_sum(x).backward()
        assert np.array_equal(y.grad, np.zeros(3))

    def test_structurally_zero_grad(self):
        # y participates but multiplied by zero: exact zero gradient
        x = T.Tensor(np.ones(3), requires_grad=True)
        z = T.Tensor(np.zeros(3))
        T.tensor_sum(T.mul(x, z)).backward()
        assert np.array_equal(x.grad, np.zeros(3))

    def test_backward_requires_scalar(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            T.scale(x, 2.0).backward()

    def test_no_grad_graph_not_recorded(self):
        x = T.Tensor(np.ones(3))
        y = T.add(x, x)
        assert y._backward is None and y._parents == ()

    def test_backward_without_a_graph_raises(self):
        # at zero gradients sgd_step would apply weight decay alone
        with pytest.raises(ValueError, match="no graph"):
            T.tensor_sum(T.Tensor(np.ones(3))).backward()
        x = T.Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            loss = T.tensor_sum(x)
        with pytest.raises(ValueError, match="no graph"):
            loss.backward()
        assert np.array_equal(x.grad, np.zeros(3))

    def test_scalar_leaf_is_its_own_loss(self):
        x = T.Tensor(np.asarray(2.0), requires_grad=True)
        x.backward()
        assert x.grad == 1.0

    def test_deep_chain_no_recursion_limit(self):
        x = T.Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = T.scale(y, 1.0)
        T.tensor_sum(y).backward()
        assert np.allclose(x.grad, [1.0])

    def test_shape_error_raised_at_call_time(self):
        a = T.Tensor(np.zeros((2, 2)), requires_grad=True)
        b = T.Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            T.add(a, b)   # immediately, not at backward

    def test_only_make_flows_gradients(self):
        """Ops return their gradients: in src/, every _flow call sits in
        _make, and only _flow and the rule _make records take `seeds`."""
        flows, takes_seeds = [], []
        for path in sorted(Path(T.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            scopes = [(fn.name, fn) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
            for name, fn in scopes + [("<lambda>", f) for f in ast.walk(tree)
                                      if isinstance(f, ast.Lambda)]:
                if "seeds" in [a.arg for a in fn.args.args]:
                    takes_seeds.append(name)
            for call in ast.walk(tree):
                func = getattr(call, "func", None)
                if isinstance(call, ast.Call) and getattr(func, "id", getattr(func, "attr", "")) == "_flow":
                    flows.append([name for name, fn in scopes if call in ast.walk(fn)])
        assert flows and all(names and names[0] == "_make" for names in flows), flows
        assert sorted(takes_seeds) == ["_flow", "rule"]


    def test_backward_frees_a_rule_s_arrays_as_it_passes(self):
        """mul's rule keeps its inputs alive until backward has run it;
        by the time the walk reaches the leaf that array is gone, while
        the loss is still held."""
        x = T.Tensor(rand(3, 4, seed=7), requires_grad=True)
        h = T.scale(x, 2.0)
        alive = weakref.ref(h.data)
        loss = T.tensor_sum(T.mul(h, h))
        del h
        assert alive() is not None
        at_leaf = []
        loss.backward(lambda leaf, g: at_leaf.append(alive()))
        assert at_leaf == [None] and alive() is None and loss.data.size == 1


# one call of every public op: (name, op, operand shapes); the 0-d calls
# are those whose numpy arithmetic returns a scalar, not an array
OP_CALLS = [
    ("add", T.add, [(2, 3), (2, 3)]),
    ("add", T.add, [(), ()]),
    ("sub", T.sub, [(), ()]),
    ("mul", T.mul, [(), ()]),
    ("div", T.div, [(), ()]),
    ("scale", lambda x: T.scale(x, 1.5), [()]),
    ("add_bias", T.add_bias, [(2, 3), (3,)]),
    ("add_bias", T.add_bias, [(), ()]),
    ("leaky_relu", T.leaky_relu, [()]),
    ("relu", T.relu, [()]),
    ("sigmoid", T.sigmoid, [()]),
    ("gelu", T.gelu, [(2, 3)]),
    ("gelu", T.gelu, [()]),
    ("softmax", T.softmax, [(2, 3)]),
    ("matmul", T.matmul, [(2, 3, 4), (4, 5)]),
    ("matmul", T.matmul, [(2, 3, 4), (4, 5), (5,)]),
    ("matmul", T.matmul, [(2, 3, 4), (2, 4, 5)]),
    ("conv2d", lambda x, w, b: T.conv2d(x, w, b, padding=1), [(1, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    ("conv_transpose2d", T.conv_transpose2d, [(1, 2, 3, 3), (2, 3, 2, 2), (3,)]),
    ("layer_norm", T.layer_norm, [(2, 3), (3,), (3,)]),
    ("instance_norm", T.instance_norm, [(1, 2, 3, 3), (2,), (2,)]),
    ("reshape", lambda x: T.reshape(x, ()), [(1, 1)]),
    ("transpose", lambda x: T.transpose(x, (1, 0)), [(2, 3)]),
    ("concat", lambda a, b: T.concat([a, b], 0), [(2, 3), (1, 3)]),
    ("narrow", lambda x: T.narrow(x, 1, 1, 2), [(2, 3)]),
    ("expand_batch", lambda x: T.expand_batch(x, 2), [(1, 3)]),
    ("global_avg_pool", T.global_avg_pool, [(1, 2, 3, 3)]),
    ("scale_channels", T.scale_channels, [(1, 2, 3, 3), (1, 2, 1, 1)]),
    ("tensor_sum", T.tensor_sum, [(2, 3)]),
    ("bce_with_logits", T.bce_with_logits, [(), ()]),
    ("tokens_to_map", T.tokens_to_map, [(1, 4, 3)]),
    ("map_to_tokens", T.map_to_tokens, [(1, 3, 2, 2)]),
]


class TestOpResults:
    """_make wraps what an op computed without Tensor.__init__'s checks,
    so every op must hand it an array of its operands' dtype."""

    def test_every_public_op_is_called(self):
        assert {name for name, _, _ in OP_CALLS} == set(T.__all__) - {"Tensor"}

    @pytest.mark.parametrize("name,op,shapes", OP_CALLS,
                             ids=[f"{n}-{'x'.join(map(str, s[0])) or '0d'}" for n, _, s in OP_CALLS])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_returns_an_array_of_the_operands_dtype(self, name, op, shapes, dtype):
        arrays = [rand(*s, seed=i, lo=0.5, hi=2.0).astype(dtype) for i, s in enumerate(shapes)]
        for recording in (True, False):
            with contextlib.nullcontext() if recording else T.no_grad():
                out = op(*(T.Tensor(a, requires_grad=True) for a in arrays))
            assert type(out) is T.Tensor and type(out.data) is np.ndarray, name
            assert out.dtype == dtype and out.requires_grad == recording
            assert (out._node is not None) == recording and out._grad is None


class TestGradBuffers:
    """A leaf allocates its gradient buffer on demand, never at construction."""

    def test_fresh_leaf_holds_no_buffer(self):
        x = T.Tensor(np.ones((64, 64), dtype=np.float32), requires_grad=True)
        assert x._grad is None
        x.zero_grad()                           # allocates nothing
        assert x._grad is None

    def test_untouched_leaf_reads_exact_zeros_and_keeps_them(self):
        x = T.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        g = x.grad
        assert g.shape == (2, 3) and g.dtype == np.float32
        assert g.tobytes() == np.zeros((2, 3), np.float32).tobytes()
        assert x.grad is g and x._grad is g

    def test_retyped_leaf_reads_zeros_of_its_new_dtype(self):
        x = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        T.tensor_sum(x).backward()
        assert x.grad.dtype == np.float32
        x.data = x.data.astype(np.float64)
        x.zero_grad()                           # drops the stale buffer, allocates nothing
        assert x._grad is None
        assert x.grad.dtype == np.float64 and np.array_equal(x.grad, np.zeros(3))

    def test_negative_zero_first_flow_reads_positive_zero(self):
        # the first flow lands in a zero buffer (0 + g), never as a copy of g
        x = T.Tensor(np.ones(3), requires_grad=True)
        T.tensor_sum(T.scale(x, -0.0)).backward()
        assert x.grad.tobytes() == np.zeros(3).tobytes()
        assert not np.signbit(x.grad).any()

    def test_non_leaves_and_constants_read_none(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        c = T.Tensor(np.ones(3))
        y = T.add(x, c)
        assert y.grad is None and c.grad is None
        T.tensor_sum(y).backward()
        assert y.grad is None and c.grad is None

    def test_assigned_none_is_reallocated_as_zeros(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        T.tensor_sum(x).backward()
        x.grad = None
        assert x._grad is None
        T.tensor_sum(T.scale(x, 3.0)).backward()
        assert np.array_equal(x.grad, [3.0, 3.0])


class TestNoGrad:
    def test_ops_inside_record_nothing(self):
        x = T.Tensor(np.ones((2, 3)), requires_grad=True)
        with T.no_grad():
            y = T.tensor_sum(T.gelu(T.add(x, x)))
        assert y._parents == () and y._backward is None and not y.requires_grad
        assert T.add(x, x)._backward is not None        # recording again after

    def test_flag_survives_nesting_and_exceptions(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert T.add(x, x)._backward is None       # inner exit keeps it off
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("boom")
        assert T.add(x, x)._backward is not None

    def test_flag_is_per_thread(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        inside, release, seen = threading.Event(), threading.Event(), []

        def worker():
            with T.no_grad():
                inside.set()
                release.wait(10)
                seen.append(T.add(x, x)._backward)

        t = threading.Thread(target=worker)
        t.start()
        try:
            assert inside.wait(10)
            y = T.tensor_sum(T.mul(x, x))       # this thread still records
            assert y._backward is not None
            y.backward()
            assert np.array_equal(x.grad, [2.0, 2.0])
        finally:
            release.set()
            t.join(10)
        assert seen == [None]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_full_model_logits_are_bitwise_equal(self, dtype, monkeypatch):
        from braidseg.model import ModelConfig, build_model
        cfg = ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=32,
                          window=2, rfin_count=2, dkin_count=2)
        model = build_model(cfg, seed=3, dtype=dtype)
        rng = np.random.default_rng(5)
        xc = rng.uniform(size=(2, 1, 8, 8)).astype(dtype)
        xs = rng.uniform(size=(2, 1, 32, 32)).astype(dtype)
        recorded = model.forward(xc, xs)
        assert recorded._backward is not None

        made, real_make = [], T._make

        def spy(data, operands, grads):
            out = real_make(data, operands, grads)
            made.append(out)
            return out

        monkeypatch.setattr(T, "_make", spy)
        with T.no_grad():
            bare = model.forward(xc, xs)
        assert made and all(t._parents == () and t._backward is None for t in made)
        assert bare.dtype == dtype and np.array_equal(bare.data, recorded.data)


class TestWhatTheGraphKeeps:
    """A recorded op keeps its node and the arrays its rule reads; an
    intermediate tensor and its array die when the forward code drops it."""

    @staticmethod
    def linear_inputs():
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = T.Tensor(rng.normal(size=5), requires_grad=True)
        return x, w, b

    def test_a_matmul_output_feeding_add_bias_is_freed(self):
        x, w, b = self.linear_inputs()
        h = T.matmul(x, w)
        alive = weakref.ref(h.data)
        y = T.add_bias(h, b)          # add_bias reads no array in backward
        del h
        assert alive() is None
        T.tensor_sum(y).backward()
        assert np.array_equal(b.grad, np.full(5, 6.0))

    def test_gelu_drops_its_input_and_keeps_its_slope(self):
        """gelu's rule reads its slope, computed in the forward pass, and
        not its input; the slope lives until the graph is dropped."""
        x, w, b = self.linear_inputs()
        h = T.matmul(x, w, b)
        alive = weakref.ref(h.data)
        y = T.gelu(h)
        grads = op_grads(y._node)
        assert grads.__code__.co_freevars == ("slope",)
        slope = weakref.ref(grads.__closure__[0].cell_contents)
        del h, grads
        assert alive() is None and slope() is not None
        del y
        assert slope() is None

    def test_gelu_computes_no_slope_it_would_not_keep(self, monkeypatch):
        seen, real_make = [], T._make

        def spy(data, operands, grads):
            seen.append(grads)
            return real_make(data, operands, grads)

        monkeypatch.setattr(T, "_make", spy)
        x = T.Tensor(rand(2, 3, seed=8), requires_grad=True)
        with T.no_grad():
            T.gelu(x)
        T.gelu(T.Tensor(x.data))            # recording, but nothing needs a gradient
        T.gelu(x)
        assert seen[:2] == [None, None] and seen[2] is not None

    def test_no_rule_closes_over_a_recorded_tensor(self):
        from braidseg.model import ModelConfig, build_model
        from braidseg.train import seg_loss
        cfg = ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=32,
                          window=2, rfin_count=2, dkin_count=2)
        model = build_model(cfg, seed=3)
        rng = np.random.default_rng(5)
        xc = rng.uniform(size=(2, 1, 8, 8)).astype(np.float32)
        xs = rng.uniform(size=(2, 1, 32, 32)).astype(np.float32)
        loss = seg_loss(model.forward(xc, xs), (xc > 0.5).astype(np.float32))
        ops = [op_grads(n) for n in T._topo_order(loss) if n._backward is not None]
        held = []
        for grads in ops:
            for cell in grads.__closure__ or ():
                val = cell.cell_contents
                for v in val if isinstance(val, (list, tuple)) else (val,):
                    if isinstance(v, (T.Tensor, T._Node)):
                        held.append(grads.__qualname__)
        assert len(ops) > 100 and held == []

    def test_no_grad_leaves_the_operands_alone(self, monkeypatch):
        seen, real_make = [], T._make

        def spy(data, operands, grads):
            seen.extend(operands)
            return real_make(data, operands, grads)

        monkeypatch.setattr(T, "_make", spy)
        x, w, b = self.linear_inputs()
        with T.no_grad():
            T.gelu(T.add_bias(T.matmul(x, w), b))
        assert len(seen) == 5 and all(isinstance(p, T.Tensor) for p in seen)


class TestNormReference:
    """_norm's reduce-and-divide means give ndarray.mean's bits."""

    @staticmethod
    def reference(x, gamma, beta, axes, pshape, eps=1e-5):
        mu = x.mean(axis=axes, keepdims=True)
        xm = x - mu
        var = (xm * xm).mean(axis=axes, keepdims=True)
        xhat = xm * (1.0 / np.sqrt(var + x.dtype.type(eps)))
        return xhat * gamma.reshape(pshape) + beta.reshape(pshape)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm(self, dtype):
        rng = np.random.default_rng(11)
        x = rng.normal(1.5, 3.0, size=(3, 7, 13)).astype(dtype)
        g, b = rng.normal(size=13).astype(dtype), rng.normal(size=13).astype(dtype)
        out = T.layer_norm(T.Tensor(x), T.Tensor(g), T.Tensor(b)).data
        assert out.dtype == dtype
        assert np.array_equal(out, self.reference(x, g, b, (2,), (1, 1, 13)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_instance_norm(self, dtype):
        rng = np.random.default_rng(12)
        x = rng.normal(-0.5, 2.0, size=(3, 5, 7, 9)).astype(dtype)
        g, b = rng.normal(size=5).astype(dtype), rng.normal(size=5).astype(dtype)
        out = T.instance_norm(T.Tensor(x), T.Tensor(g), T.Tensor(b)).data
        assert out.dtype == dtype
        assert np.array_equal(out, self.reference(x, g, b, (2, 3), (1, 5, 1, 1)))


# ---------------------------------------------------------------------
# finite-difference agreement, op by op
# ---------------------------------------------------------------------

class TestFiniteDifferences:
    @pytest.mark.parametrize("op,wrt", [
        (T.add, 0), (T.add, 1), (T.sub, 0), (T.sub, 1),
        (T.mul, 0), (T.mul, 1), (T.div, 0), (T.div, 1),
    ])
    def test_binary_elementwise(self, op, wrt):
        a, b = rand(3, 4, seed=10), rand(3, 4, seed=11, lo=0.5, hi=2.0)
        tol = LIN_TOL if op in (T.add, T.sub) else NONLIN_TOL
        assert check_op(op, (a, b), wrt) < tol

    def test_scale(self):
        assert check_op(lambda x: T.scale(x, -1.7), (rand(4, 4, seed=12),), 0) < LIN_TOL

    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_activations(self, seed):
        x = rand(3, 5, seed=seed)
        assert check_op(T.leaky_relu, (x,), 0) < NONLIN_TOL
        assert check_op(T.relu, (x,), 0) < NONLIN_TOL
        assert check_op(T.sigmoid, (x,), 0) < NONLIN_TOL
        assert check_op(T.gelu, (x,), 0) < NONLIN_TOL

    def test_softmax(self):
        assert check_op(T.softmax, (rand(2, 4, 6, seed=16),), 0) < NONLIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1])
    def test_matmul_2d(self, wrt):
        assert check_op(T.matmul, (rand(3, 4, seed=17), rand(4, 5, seed=18)), wrt) < LIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1])
    def test_matmul_batched(self, wrt):
        a, b = rand(2, 3, 4, seed=19), rand(2, 4, 5, seed=20)
        assert check_op(T.matmul, (a, b), wrt) < LIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1])
    def test_matmul_batched_times_2d(self, wrt):
        a, b = rand(2, 3, 4, seed=21), rand(4, 5, seed=22)
        assert check_op(T.matmul, (a, b), wrt) < LIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_matmul_with_bias(self, wrt):
        a, w, b = rand(2, 3, 4, seed=54), rand(4, 5, seed=55), rand(5, seed=56)
        assert check_op(T.matmul, (a, w, b), wrt) < LIN_TOL

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_conv2d(self, stride, padding, wrt):
        x, w, b = rand(2, 3, 6, 6, seed=23), rand(4, 3, 3, 3, seed=24), rand(4, seed=25)
        op = lambda xx, ww, bb: T.conv2d(xx, ww, bb, stride=stride, padding=padding)
        assert check_op(op, (x, w, b), wrt) < LIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_conv2d_1x1(self, wrt):
        x, w, b = rand(2, 4, 1, 1, seed=26), rand(3, 4, 1, 1, seed=27), rand(3, seed=28)
        assert check_op(T.conv2d, (x, w, b), wrt) < LIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_conv2d_1x1_stride2_odd_extent(self, wrt):
        x, w, b = rand(2, 3, 5, 5, seed=40), rand(4, 3, 1, 1, seed=41), rand(4, seed=42)
        op = lambda xx, ww, bb: T.conv2d(xx, ww, bb, stride=2)
        assert op(*(T.Tensor(a) for a in (x, w, b))).shape == (2, 4, 3, 3)
        assert check_op(op, (x, w, b), wrt) < LIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_conv_transpose2d(self, wrt):
        x, w, b = rand(2, 3, 4, 4, seed=29), rand(3, 2, 2, 2, seed=30), rand(2, seed=31)
        assert check_op(T.conv_transpose2d, (x, w, b), wrt) < LIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_layer_norm(self, wrt):
        x, g, b = rand(2, 5, 8, seed=32), rand(8, seed=33, lo=0.5, hi=1.5), rand(8, seed=34)
        assert check_op(T.layer_norm, (x, g, b), wrt) < NONLIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_instance_norm(self, wrt):
        x, g, b = rand(2, 3, 5, 5, seed=35), rand(3, seed=36, lo=0.5, hi=1.5), rand(3, seed=37)
        assert check_op(T.instance_norm, (x, g, b), wrt) < NONLIN_TOL

    def test_reshape_transpose_concat_narrow(self):
        x = rand(2, 3, 4, seed=38)
        assert check_op(lambda t: T.reshape(t, (6, 4)), (x,), 0) < LIN_TOL
        assert check_op(lambda t: T.transpose(t, (2, 0, 1)), (x,), 0) < LIN_TOL
        assert check_op(lambda t: T.transpose(t, (1, 0, 2), view=(3, 2, 4)), (x,), 0) < LIN_TOL
        assert check_op(lambda t: T.transpose(t, (2, 0, 1), shape=(4, 6)), (x,), 0) < LIN_TOL
        assert check_op(lambda t: T.transpose(t, (0, 2, 1, 3), view=(2, 3, 2, 2),
                                              shape=(2, 6, 2)), (x,), 0) < LIN_TOL
        y = rand(2, 2, 4, seed=39)
        assert check_op(lambda a, b: T.concat([a, b], 1), (x, y), 0) < LIN_TOL
        assert check_op(lambda a, b: T.concat([a, b], 1), (x, y), 1) < LIN_TOL
        assert check_op(lambda t: T.narrow(t, 1, 1, 2), (x,), 0) < LIN_TOL

    def test_expand_batch(self):
        assert check_op(lambda t: T.expand_batch(t, 5), (rand(1, 3, 4, seed=40),), 0) < LIN_TOL

    def test_global_avg_pool(self):
        assert check_op(T.global_avg_pool, (rand(2, 3, 4, 4, seed=41),), 0) < LIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1])
    def test_scale_channels(self, wrt):
        x, s = rand(2, 3, 4, 4, seed=42), rand(2, 3, 1, 1, seed=43)
        assert check_op(T.scale_channels, (x, s), wrt) < LIN_TOL

    @pytest.mark.parametrize("wrt", [0, 1])
    def test_add_bias(self, wrt):
        x, b = rand(2, 5, 6, seed=44), rand(6, seed=45)
        assert check_op(T.add_bias, (x, b), wrt) < LIN_TOL

    def test_bce_with_logits(self):
        z = rand(3, 4, seed=46)
        t = (np.random.default_rng(47).uniform(size=(3, 4)) > 0.5).astype(np.float64)
        assert check_op(T.bce_with_logits, (z, t), 0) < NONLIN_TOL

    def test_tensor_sum(self):
        assert check_op(T.tensor_sum, (rand(3, 4, seed=48),), 0) < LIN_TOL

    def test_composite_chain(self):
        # a small realistic pipeline: conv -> norm -> act -> pool -> matmul
        def pipeline(x, w, g, b, wl):
            h = T.conv2d(x, w, T.Tensor(np.zeros(4, dtype=x.dtype)), stride=1, padding=1)
            h = T.instance_norm(h, g, b)
            h = T.leaky_relu(h)
            h = T.global_avg_pool(h)
            h = T.reshape(h, (h.shape[0], 4))
            return T.matmul(h, wl)

        args = (rand(2, 3, 5, 5, seed=49), rand(4, 3, 3, 3, seed=50),
                rand(4, seed=51, lo=0.5, hi=1.5), rand(4, seed=52), rand(4, 2, seed=53))
        for wrt in range(len(args)):
            assert check_op(pipeline, args, wrt) < NONLIN_TOL


class TestNumericOracle:
    def test_numeric_grad_on_quadratic(self):
        # oracle sanity: d/dx sum(x^2) = 2x
        x = np.array([1.0, -2.0, 3.0])
        g = numeric_grad(lambda t: (t ** 2).sum(), x)
        assert rel_error(g, 2 * x) < 1e-8
