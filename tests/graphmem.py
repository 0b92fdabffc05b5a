"""Memory a recorded graph keeps alive for backward and the peak of a
short training run, seen by tracemalloc, and helpers that list the
recorded ops and read what an op handed to the graph.

    PYTHONPATH=src python3 tests/graphmem.py

prints the figures and the recorded op count for one default-config
batch-2 forward pass plus loss, and the peak of a default-config train()
of four iterations.
"""

import tempfile
import tracemalloc

import numpy as np

from braidseg.data import generate_dataset, select
from braidseg.model import ModelConfig, build_model
from braidseg.tensor import _topo_order
from braidseg.train import TrainConfig, seg_loss, train


def forward_inputs(cfg=None, batch=2, seed=0):
    """A model of cfg (default ModelConfig()) and one random batch:
    (net, x_c images, x_s images, target masks)."""
    cfg = cfg or ModelConfig()
    net = build_model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    xc = rng.random((batch, 1, cfg.x_c, cfg.x_c), dtype=np.float32)
    xs = rng.random((batch, 1, cfg.x_s, cfg.x_s), dtype=np.float32)
    target = (rng.random(xc.shape) > 0.5).astype(np.float32)
    return net, xc, xs, target


def live_graph_mib(cfg=None, batch=2, seed=0):
    """MiB live after one forward pass plus seg_loss, with the loss held.

    The model and its inputs are built, and one recorded forward pass runs
    and is dropped, before tracing starts, so the figure is what the graph
    keeps for backward: the arrays its rules read and the nodes themselves.
    That first pass fills the decoder's positional-code cache and what else
    a process allocates once (a no_grad pass leaves some of it out), which
    would otherwise count in a fresh process: 17.28 against 17.24 MiB.
    """
    net, xc, xs, target = forward_inputs(cfg, batch, seed)
    net.forward(xc, xs)
    tracemalloc.start()
    try:
        loss = seg_loss(net.forward(xc, xs), target)    # held: its graph is live
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return live / 2**20


def recorded_ops(loss):
    """The nodes of the ops recorded below loss, parents first; the leaves
    are left out."""
    return [n for n in _topo_order(loss) if n._backward is not None]


def train_peak_mib(epochs=4, seed=0):
    """Peak MiB traced during a default-config train() of `epochs`
    iterations: criterion 4's settings on one batch of two paired samples.

    The model and the dataset are made before tracing starts, so the
    figure is what a step needs beside the weights: activations, the
    graph, the velocities and any gradient buffers.
    """
    with tempfile.TemporaryDirectory() as root:
        samples = select(generate_dataset(root, seed=11, n_train=1, n_val=0, n_test=0,
                                          size=32, paired=True), split="train")
        net = build_model(ModelConfig(), seed=seed)
        cfg = TrainConfig(epochs=epochs, batch=2, lr0=1e-2, momentum=0.9,
                          augment=False, seed=seed)
        tracemalloc.start()
        try:
            train(net, root, samples, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / 2**20


def op_grads(node):
    """The gradient function grads(g) an op passed to tensor._make,
    read from the closure of its node's rule; its __qualname__ names the
    op, as in "reshape.<locals>.<lambda>"."""
    rule = node._backward
    return rule.__closure__[rule.__code__.co_freevars.index("grads")].cell_contents


if __name__ == "__main__":
    print(f"live graph, default config, batch 2, forward plus loss: {live_graph_mib():.2f} MiB")
    print(f"train() peak, default config, batch 2, four iterations: {train_peak_mib():.2f} MiB")
    net, xc, xs, target = forward_inputs()
    print(f"recorded ops, default config, batch 2, forward plus loss: "
          f"{len(recorded_ops(seg_loss(net.forward(xc, xs), target)))}")
