"""Convolutional domain branch: 8 residual squeeze-excite layers.

Layers 1 and 2 downsample by stride 2 (widths C_c/2 then C_c); layers 3-8
keep stride 1 at constant width, so the output grid is x_c/4 and matches
the prior branch token grid (ModelConfig.validate enforces x_s = 4*x_c).
Cross-branch features arriving through the forward couplers are added to
a layer's *output* (layers 3-5 under the default wiring); layers 6-8 are
the feedback sources. A 1x1 projection maps the final map to the decoder
width.
"""

from __future__ import annotations

from . import tensor as T
from .blocks import Block, Conv, ResidualSeBlock

N_LAYERS = 8


class DomainBranch(Block):
    def __init__(self, cfg):
        c = cfg.C_c
        self.layers = [
            ResidualSeBlock(1, c // 2, stride=2),
            ResidualSeBlock(c // 2, c, stride=2),
        ] + [ResidualSeBlock(c, c, stride=1) for _ in range(N_LAYERS - 2)]
        self.out_proj = Conv(c, cfg.C_d, 1)

    def forward_layer(self, j, x, injection=None):
        """Run layer j (1-based); add the pending cross-branch feature to
        the block output if one is attached to this layer."""
        if not (1 <= j <= N_LAYERS):
            raise ValueError(f"domain layer {j} out of range 1..{N_LAYERS}")
        y = self.layers[j - 1].forward(x)
        if injection is not None:
            y = T.add(y, injection)
        return y

    def project(self, x):
        return self.out_proj.forward(x)
