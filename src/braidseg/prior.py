"""Transformer prior branch: 4m layers over 16x16 patch tokens.

Global attention runs exactly at 1-based layer indices {m, 2m, 3m}; every
other layer attends inside non-overlapping windows. The branch runs one
layer at a time, so the fusion plan can interleave it with the
convolutional branch: a forward coupler reads the output of the global
layer that just ran, and a feedback coupler's tokens join the attention
residual of the layer the plan hands them to.
"""

from __future__ import annotations

from . import tensor as T
from .blocks import Block, LayerNorm, Linear, PatchEmbed, TransformerBlock


class Neck(Block):
    """Token projection to the decoder width: 1x1 conv (as a per-token
    linear) plus token-wise LN, then reshaped to a [B, C_d, g, g] map."""

    def __init__(self, c, c_d):
        self.proj = Linear(c, c_d)
        self.norm = LayerNorm(c_d)

    def forward(self, tokens):
        return T.tokens_to_map(self.norm.forward(self.proj.forward(tokens)))


class PriorBranch(Block):
    """The 4m-layer token encoder and its neck."""

    def __init__(self, cfg):
        m = cfg.m
        self.embed = PatchEmbed(cfg.C, cfg.grid)
        self.layers = [
            TransformerBlock(cfg.C, cfg.heads, cfg.grid,
                             window=None if i in (m, 2 * m, 3 * m) else cfg.window)
            for i in range(1, 4 * m + 1)
        ]
        self.neck = Neck(cfg.C, cfg.C_d)

    def embed_tokens(self, x_s):
        return self.embed.forward(x_s)

    def forward_layer(self, i, tokens, injection=None):
        """Run layer i (1-based); add the pending cross-branch tokens to
        the attention residual if one is attached to this layer."""
        n = len(self.layers)
        if not (1 <= i <= n):
            raise ValueError(f"prior layer {i} out of range 1..{n}")
        return self.layers[i - 1].forward(tokens, injection)

    def project(self, tokens):
        return self.neck.forward(tokens)
