"""The finite-difference audit itself: does the oracle measure what it
claims, and does it actually catch broken gradients?"""

import numpy as np
import pytest

from braidseg import tensor as T
from braidseg.gradcheck import check_model, resume_states
from braidseg.model import ModelConfig, build_model
from opcheck import check_op, numeric_grad, rel_error
from configs import GRADCHECK_CFG


class TestHelpers:
    def test_numeric_grad_on_a_quadratic_is_exact(self):
        # f(x) = sum(a * x^2): central differences are exact for quadratics
        # up to rounding, gradient 2*a*x
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        x = rng.normal(size=(3, 4))
        g = numeric_grad(lambda z: float((a * z * z).sum()), x)
        assert rel_error(g, 2 * a * x) < 1e-9

    def test_numeric_grad_restores_its_input(self):
        x = np.array([1.0, 2.0, 3.0])
        before = x.copy()
        numeric_grad(lambda z: float((z ** 3).sum()), x)
        assert np.array_equal(x, before)

    def test_rel_error_values(self):
        assert rel_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert rel_error(np.array([2.0]), np.array([1.0])) == 0.5
        # identical zeros disagree by nothing even with the floor active
        assert rel_error(np.zeros(3), np.zeros(3)) == 0.0


class TestOracleSensitivity:
    """check_op must be quiet on correct backwards and loud on broken ones.
    The broken op below scales its gradient by 1.01, a one-percent bug,
    well below eyeballing range but far above FD noise."""

    def test_accepts_a_correct_op(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3))
        assert check_op(T.gelu, (x,), wrt=0) < 1e-7

    def test_flags_a_scaled_backward(self):
        def crooked_double(x):                  # 1% too steep
            return T._make(2.0 * x.data, (x,), lambda g: (2.0 * 1.01 * g,))

        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4))
        err = check_op(crooked_double, (x,), wrt=0)
        # ~1% as injected; a silently skipped backward would read ~100%
        assert 5e-3 < err < 5e-2

    def test_flags_a_dropped_term(self):
        # y = x*x with a backward that pretends y = x: misses the factor 2x
        def forgetful_square(x):
            return T._make(x.data * x.data, (x,), lambda g: (g,))

        rng = np.random.default_rng(4)
        x = 1.0 + rng.random((3, 3))
        assert check_op(forgetful_square, (x,), wrt=0) > 0.3

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_ops_stay_under_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 6))
        w = rng.normal(size=(6, 3))
        assert check_op(T.matmul, (x, w), wrt=1) < 1e-7
        assert check_op(T.softmax, (x,), wrt=0) < 1e-6


class TestCheckModelProbes:
    """A single-element probe that straddles an activation kink must not
    fail correct code, and the retry that prevents it must not hide a
    wrong backward rule."""

    def test_a_probe_straddling_a_kink_passes_on_retry(self):
        # at h = 1e-5 the probes of conv_domain.layers.0.conv1.w and n1.b
        # read errors near 1e-2 on this config and seed while their
        # directional errors are near 1e-8: a leaky-ReLU kink, not a bug
        lines = []
        rows, max_err, _ = check_model(GRADCHECK_CFG, seed=104, log=lines.append)
        assert max_err < 1e-4
        retried = {line.split()[1] for line in lines if "h/8" in line}
        assert {"conv_domain.layers.0.conv1.w", "conv_domain.layers.0.n1.b"} <= retried

    def test_a_planted_backward_bug_still_fails(self, monkeypatch):
        straight = T.leaky_relu

        def crooked(x, *args, **kwargs):
            out = straight(x, *args, **kwargs)
            rule = out._backward
            if rule is not None:             # 1% too steep, forward unchanged
                out._backward = lambda g, seeds: rule(1.01 * g, seeds)
            return out

        monkeypatch.setattr(T, "leaky_relu", crooked)
        cfg = ModelConfig(m=1, C=8, C_c=4, C_d=4, heads=2, x_c=8, x_s=32,
                          window=2, rfin_count=1, dkin_count=1)
        lines = []
        rows, max_err, _ = check_model(cfg, seed=0, log=lines.append)
        assert max_err > 1e-3
        probe_fails = {name for name, _, _, e_probe in rows if e_probe >= 1e-4}
        assert "conv_domain.layers.0.conv1.w" in probe_fails
        # the retry ran on those probes and the bug survived it
        assert all("h/8" in line for line in lines if line.startswith("FAIL")
                   and line.split()[1] in probe_fails)

    def test_a_parameter_the_graph_lost_still_fails(self, monkeypatch):
        """A layer that reads its weight's array instead of the tensor
        keeps that weight out of the recorded graph: its analytic gradient
        is zero, and the audit must rerun the whole forward for it, where
        the finite difference moves, rather than the decoder alone."""
        from braidseg import model as M
        build = M.build_model

        def build_with_a_lost_edge(*args, **kwargs):
            net = build(*args, **kwargs)
            fc1 = net.patch_prior.layers[1].mlp.fc1
            fc1.forward = lambda x: T.matmul(x, T.Tensor(fc1.w.data.copy()), fc1.b)
            return net

        monkeypatch.setattr(M, "build_model", build_with_a_lost_edge)
        cfg = ModelConfig(m=1, C=8, C_c=4, C_d=4, heads=2, x_c=8, x_s=32,
                          window=2, rfin_count=1, dkin_count=1)
        rows, max_err, _ = check_model(cfg, seed=0)
        assert max_err > 1e-4
        fails = {name for name, _, e_dir, e_probe in rows if max(e_dir, e_probe) >= 1e-4}
        assert fails == {"patch_prior.layers.1.mlp.fc1.w"}

    def test_a_nan_gradient_fails_every_tolerance(self, nan_relu_backward):
        # max(0.0, nan) is 0.0 and nan > tol is False, so a NaN error
        # must be stored as inf to reach max_err and the callers' checks
        cfg = ModelConfig(m=1, C=8, C_c=4, C_d=4, heads=2, x_c=8, x_s=32,
                          window=2, rfin_count=1, dkin_count=1)
        rows, max_err, _ = check_model(cfg, seed=0)
        assert max_err == float("inf")
        errors = [e for _, _, e_dir, e_probe in rows for e in (e_dir, e_probe)]
        assert not any(np.isnan(errors))
        assert sum(e == float("inf") for e in errors) > len(rows)


class TestResumeStates:
    def test_the_audit_config_resumes_each_tensor_at_its_first_reader(self):
        """Which state each tensor resumes from at GRADCHECK_CFG. A tensor
        that resumed earlier than it needs to would cost audit time but
        leave every bit alike, so only a count like this one sees it."""
        model = build_model(GRADCHECK_CFG, seed=0, dtype=np.float64)
        rng = np.random.default_rng(0)
        saved = []
        out = model.decode(
            model.encode(rng.random((1, 1, 16, 16)), rng.random((1, 1, 64, 64)), saved=saved))
        n = len(model.plan.steps)
        assert n == 27
        ks = [None if s is None else s.k for s in resume_states(model, saved, out).values()]
        assert ks.count(None) == 3
        assert ks.count(n) == 87
        assert [ks.count(k) for k in range(n)] == [
            16, 16, 16, 4, 16, 16, 12, 16, 16, 16, 4, 12, 16, 16, 16, 4, 12, 12, 4, 16,
            12, 4, 16, 12, 4, 16, 6]
