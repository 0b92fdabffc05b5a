"""Memory a recorded graph keeps alive for backward, seen by tracemalloc,
and a helper that reads what an op handed to the graph.

    PYTHONPATH=src python3 tests/graphmem.py

prints the figure for one default-config batch-2 forward pass plus loss.
"""

import tracemalloc

import numpy as np

from braidseg.model import ModelConfig, build_model
from braidseg.train import seg_loss


def live_graph_mib(cfg=None, batch=2, seed=0):
    """MiB live after one forward pass plus seg_loss, with the loss held.

    The model and its inputs are built before tracing starts, so the
    figure is what the graph keeps for backward: the arrays its rules read
    and the nodes themselves.
    """
    cfg = cfg or ModelConfig()
    net = build_model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    xc = rng.random((batch, 1, cfg.x_c, cfg.x_c), dtype=np.float32)
    xs = rng.random((batch, 1, cfg.x_s, cfg.x_s), dtype=np.float32)
    target = (rng.random(xc.shape) > 0.5).astype(np.float32)
    tracemalloc.start()
    try:
        loss = seg_loss(net.forward(xc, xs), target)    # held: its graph is live
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return live / 2**20


def op_grads(node):
    """The gradient function grads(g, need) an op passed to tensor._make,
    read from the closure of its node's rule; its __qualname__ names the
    op, as in "reshape.<locals>.<lambda>"."""
    rule = node._backward
    return rule.__closure__[rule.__code__.co_freevars.index("grads")].cell_contents


if __name__ == "__main__":
    print(f"live graph, default config, batch 2, forward plus loss: {live_graph_mib():.2f} MiB")
