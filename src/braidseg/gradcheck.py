"""Finite-difference verification of the backward pass of whole models.

The numeric side is deliberately independent of the autodiff machinery:
it only re-evaluates the loss at perturbed float64 parameters and forms
central differences. Per-op element-wise checks live in the test suite
(tests/opcheck.py); check_model() covers every parameter tensor of a full
model with a derivative along its gradient (which touches every element)
plus one exact single-element probe per tensor. Each of its loss
evaluations reruns the forward pass only from the first plan step that
reads the perturbed tensor, on the state an unperturbed pass saved, so
it computes the same bits as a whole forward pass at a fraction of the
cost. BraidNet.resume_steps finds that step by parameter identity,
through the blocks each plan step's blocks(net) names.
"""

from __future__ import annotations

import time

import numpy as np

from .blocks import stable_hash
from .tensor import no_grad


def check_model(cfg, seed=0, h=1e-5, tol=1e-4, log=None):
    """Finite-difference check of every parameter tensor of a full model.

    Builds the model at float64, computes one analytic backward pass of the
    segmentation loss on a fixed random batch, then for each parameter
    tensor verifies (a) the derivative along its normalised gradient,
    which sweeps all elements at once, and (b) one random element by an
    exact central difference. A probe at or above `tol` is repeated once
    at h/8: a kink that the two points straddle moves the estimate less as
    the step shrinks, while a wrong backward rule stays wrong, so the retry
    clears the one without hiding the other.

    Returns (rows, max_err, seconds): rows are
    (name, size, directional_err, probe_err), the probe error taken after
    any retry; a non-finite error (a NaN or inf gradient or loss) is
    stored as inf, so that every comparison against a tolerance fails.
    `log` receives one line per tensor with both errors, and the first
    probe error when a retry ran. An h or tol that is not finite and
    above 0 raises ValueError.

    The recorded pass keeps the loop state before each plan step and the
    fused map; its backward spends every rule, so those states hold only
    the arrays a forward-only pass would. Every later loss evaluation
    perturbs one tensor and resumes at the first step that reads it
    (BraidNet.resume_steps): the decoder alone for the prompt and decoder
    tensors, the whole forward for the embedding. The steps it skips would
    have produced the saved bits, so every row equals the one a whole
    forward pass per evaluation gives.

    Central differences are only meaningful where the loss is smooth in the
    parameter, so tensors that start at exactly zero (coupler projections,
    biases, norm shifts) are redrawn from a small normal first: at zero the
    couplers park their activations precisely on the leaky-relu kink and
    give their instance norms a degenerate zero-variance input, and a
    derivative estimate straddling either of those points says nothing
    about the correctness of the backward pass.
    """
    from .model import build_model
    from .train import seg_loss

    if not (0.0 < h < np.inf and 0.0 < tol < np.inf):      # NaN fails too
        raise ValueError(f"check_model: h {h!r} and tol {tol!r} must be finite and above 0")
    t0 = time.perf_counter()
    model = build_model(cfg, seed=seed, dtype=np.float64)
    for name, p in model.named_params():
        if (p.init_kind or "zeros").partition(":")[0] == "zeros":
            prng = np.random.default_rng(
                np.random.SeedSequence([seed, 0xA1, stable_hash(name)]))
            p.data = prng.normal(0.0, 0.02, size=p.shape)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFD]))
    xc = rng.uniform(0.0, 1.0, size=(1, 1, cfg.x_c, cfg.x_c))
    xs = rng.uniform(0.0, 1.0, size=(1, 1, cfg.x_s, cfg.x_s))
    # blob-ish target so the dice term sees both classes
    yy, xx = np.mgrid[0:cfg.x_c, 0:cfg.x_c]
    target = (((yy - cfg.x_c / 2) ** 2 + (xx - cfg.x_c / 2) ** 2)
              < (cfg.x_c / 4) ** 2).astype(np.float64)[None, None]

    saved = []
    fused = model.encode(xc, xs, saved=saved)
    seg_loss(model.decode(fused), target).backward()
    resume = model.resume_steps()

    def loss_at(name):
        # a finite difference needs only the number, not a graph
        k = resume[name]
        with no_grad():
            if k is None:
                logits = model.forward(xc, xs)
            elif k == len(saved):
                logits = model.decode(fused)
            else:
                logits = model.decode(model.encode(xc, xs, state=saved[k]))
            return float(seg_loss(logits, target).data)

    def probe_error(name, p, idx, analytic, gscale, step):
        # exact per-element central difference, judged on the tensor's own
        # gradient scale (an element whose true derivative is orders below
        # that scale cannot be resolved by f64 differences of a full
        # forward pass, and a bug that small is invisible anyway)
        keep_v = p.data[idx]
        p.data[idx] = keep_v + step
        fp = loss_at(name)
        p.data[idx] = keep_v - step
        fm = loss_at(name)
        p.data[idx] = keep_v
        numeric_el = (fp - fm) / (2.0 * step)
        analytic_el = float(analytic[idx])
        scale = max(gscale, abs(numeric_el), 1e-5)
        return _finite_or_inf(abs(analytic_el - numeric_el) / scale)

    rows = []
    max_err = 0.0
    for name, p in model.named_params():
        analytic = p.grad
        gscale = float(np.abs(analytic).max())

        # direction aligned with the analytic gradient: the derivative along
        # it is as large as this tensor allows, which keeps the estimate
        # far above the finite-difference noise floor, and any backward bug
        # with a component along the gradient shows up as a mismatch
        gnorm = float(np.linalg.norm(analytic))
        if gnorm > 0:
            direction = analytic / gnorm
        else:
            direction = np.random.default_rng(
                np.random.SeedSequence([seed, stable_hash(name)])).standard_normal(p.shape)
            direction /= max(np.linalg.norm(direction), 1e-30)

        keep = p.data.copy()
        p.data = keep + h * direction
        fp = loss_at(name)
        p.data = keep - h * direction
        fm = loss_at(name)
        p.data = keep
        numeric_dir = (fp - fm) / (2.0 * h)
        analytic_dir = float((analytic * direction).sum())
        # the 1e-4 floor marks the resolution limit of the method: an O(1)
        # loss evaluated at f64 carries ~1e-13 of rounding, so a central
        # difference over 2h = 2e-5 cannot certify derivatives much below
        # 1e-8; tensors whose whole gradient sits down there are held to
        # the equivalent absolute bar |a - n| < tol * 1e-4 instead
        err_dir = _finite_or_inf(abs(analytic_dir - numeric_dir)
                                 / max(abs(analytic_dir), abs(numeric_dir), 1e-4))

        err_at_h = None                     # the probe error that was retried
        prng = np.random.default_rng(np.random.SeedSequence([seed, stable_hash(name), 7]))
        idx = tuple(prng.integers(0, d) for d in p.shape) if p.ndim else ()
        err_probe = probe_error(name, p, idx, analytic, gscale, h)
        if not err_probe < tol:
            err_at_h = err_probe
            err_probe = probe_error(name, p, idx, analytic, gscale, h / 8)

        err = max(err_dir, err_probe)
        max_err = max(max_err, err)
        rows.append((name, p.size, err_dir, err_probe))
        if log is not None:
            status = "ok" if err < tol else "FAIL"
            retry = "" if err_at_h is None else f" (h/8; at h {err_at_h:.3e})"
            log(f"{status:4s} {name:60s} n={p.size:<8d} dir={err_dir:.3e} "
                f"probe={err_probe:.3e}{retry}")
    return rows, max_err, time.perf_counter() - t0


def _finite_or_inf(err):
    # max() and `>` treat NaN as smaller than anything, so a NaN error
    # would pass every tolerance check and vanish from max_err
    return err if np.isfinite(err) else float("inf")
