"""The finite-difference audit itself: does the oracle measure what it
claims, and does it actually catch broken gradients?"""

import numpy as np
import pytest

from braidseg import tensor as T
from braidseg.gradcheck import check_model
from braidseg.model import ModelConfig
from opcheck import check_op, numeric_grad, rel_error
from test_decoder import GRADCHECK_CFG


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
