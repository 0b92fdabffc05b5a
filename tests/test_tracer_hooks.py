"""The benchmark's tracer (bench/tracing.py) still sees every recorded op.

It counts graph nodes and times backward rules by wrapping tensor._make
and reading and assigning _backward on what it returns. A rule that moved
off the Tensor would leave it reading 0 nodes and 0 ms without an error,
so one traced forward and backward pass is checked here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from braidseg.model import ModelConfig, build_model
from braidseg.tensor import _topo_order
from braidseg.train import seg_loss

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_tracer_counts_every_node_and_times_the_rules():
    cfg = ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=32, window=2,
                      rfin_count=2, dkin_count=2)
    net = build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    xc = rng.random((2, 1, cfg.x_c, cfg.x_c), dtype=np.float32)
    xs = rng.random((2, 1, cfg.x_s, cfg.x_s), dtype=np.float32)
    target = (rng.random(xc.shape) > 0.5).astype(np.float32)

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
