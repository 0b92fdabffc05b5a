"""Digests of the bits a refactor must keep.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/bitdigest.py

prints a digest (sha256, first 16 hex digits) of the default plan's
trace; of the logits and of every parameter gradient for the default
config at float32 and the audit config (test_decoder.GRADCHECK_CFG) at
float64, each at batch 1 and 2, with the couplers opened off zero; and of
check_model's rows on the audit config at seed 0, with its maximum error.
It asserts nothing: the bits depend on the numpy and BLAS build, so
compare the digests of two trees on one machine only.
"""

import hashlib

import numpy as np

from braidseg.fusion import build_plan
from braidseg.gradcheck import check_model
from braidseg.model import ModelConfig, build_model
from braidseg.train import seg_loss
from test_decoder import GRADCHECK_CFG


def digest(*parts):
    h = hashlib.sha256()
    for a in parts:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def logits_and_grads(cfg, dtype, batch, seed=0):
    """Digests of the logits and of all parameter gradients, in named
    order, of one forward and backward pass of the segmentation loss."""
    net = build_model(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for _, p in net.named_params():
        if not p.data.any():                # open the couplers off zero
            p.data = rng.normal(0.0, 0.05, size=p.shape).astype(dtype)
    xc = rng.random((batch, 1, cfg.x_c, cfg.x_c)).astype(dtype)
    xs = rng.random((batch, 1, cfg.x_s, cfg.x_s)).astype(dtype)
    target = (rng.random(xc.shape) > 0.5).astype(dtype)
    logits = net.forward(xc, xs)
    seg_loss(logits, target).backward()
    return digest(logits.data), digest(*(p.grad for _, p in net.named_params()))


if __name__ == "__main__":
    cfg = ModelConfig()
    trace = build_plan(cfg.m, cfg.rfin_count, cfg.dkin_count).trace()
    print(f"trace, default plan: {digest(trace.encode())}")
    for name, c, dtype in (("default", cfg, np.float32), ("audit", GRADCHECK_CFG, np.float64)):
        for batch in (1, 2):
            logits, grads = logits_and_grads(c, dtype, batch)
            print(f"{name} config, {np.dtype(dtype).name}, batch {batch}: "
                  f"logits {logits}, gradients {grads}")
    rows, max_err, _ = check_model(GRADCHECK_CFG, seed=0)
    print(f"check_model, audit config, seed 0: rows {digest(repr(rows).encode())}, "
          f"maximum error {max_err:.5e}")
