"""The benchmark's tracer (bench/tracing.py) still sees every recorded op.

It counts graph nodes and times backward rules by wrapping tensor._make,
whose three positional parameters are (data, operands, grads), and by
reading and reassigning _backward on what it returns. That rule is a
(g, seeds) callable that flows g into the operands' nodes by side
effect: the tracer's wrapper calls it and drops its return value. A rule
that moved off the Tensor would leave the tracer reading 0 nodes and
0 ms without an error, and one that returned its gradients instead of
flowing them would lose them under the tracer, so one traced forward and
backward pass is checked against the untraced one here.

The tracer books a gradient-audit loss evaluation's model time under
BraidNet.forward, so every evaluation must run through it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from braidseg.model import ModelConfig, build_model
from braidseg.tensor import _topo_order
from braidseg.train import seg_loss
from configs import TINY

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_tracer_counts_every_node_and_times_the_rules():
    net = build_model(TINY, seed=0)
    rng = np.random.default_rng(0)
    xc = rng.random((2, 1, TINY.x_c, TINY.x_c), dtype=np.float32)
    xs = rng.random((2, 1, TINY.x_s, TINY.x_s), dtype=np.float32)
    target = (rng.random(xc.shape) > 0.5).astype(np.float32)
    seg_loss(net.forward(xc, xs), target).backward()
    untraced = {name: p.grad.copy() for name, p in net.named_params()}
    net.zero_grad()

    tracer = load_tracing().Tracer().install()
    try:
        assert tracer.missing == []
        loss = seg_loss(net.forward(xc, xs), target)
        loss.backward()
        tracer.end_op()
    finally:
        tracer.uninstall()

    counts = tracer.done[0]
    recorded = [n for n in _topo_order(loss) if n._backward is not None]
    assert counts["tensor.graph_nodes"] == len(recorded) > 0
    for op in ("matmul", "gelu", "layer_norm", "conv2d"):
        assert counts[f"tensor.{op}.bwd_ms"] > 0, op
    traced = dict(net.named_params())
    assert traced.keys() == untraced.keys()
    assert [name for name, g in untraced.items()
            if traced[name].grad.tobytes() != g.tobytes()] == []


def test_the_traced_audit_books_every_loss_evaluation_as_a_forward():
    cfg = ModelConfig(m=1, C=8, C_c=4, C_d=4, heads=2, x_c=8, x_s=32,
                      window=2, rfin_count=1, dkin_count=1)
    # the tracer rebinds module attributes, so call through the module
    gradcheck = importlib.import_module("braidseg.gradcheck")
    tracer = load_tracing().Tracer().install()
    try:
        assert tracer.missing == []
        gradcheck.check_model(cfg, seed=0)
    finally:
        tracer.uninstall()

    evals = tracer.done[1:]                 # done[0] ends with the analytic pass's loss
    assert len(evals) >= 4 * len(build_model(cfg).named_params())
    assert [i for i, o in enumerate(evals, 1) if not o["gradcheck.forward_ms"] > 0] == []
