"""Transformer prior branch: 4m layers over 16x16 patch tokens.

Global attention runs exactly at 1-based layer indices {m, 2m, 3m}; every
other layer attends inside non-overlapping windows. The global layers'
outputs are the taps handed to the forward cross-branch couplers; feature
injections from the other branch enter selected late layers as an extra
additive term. The branch runs in resumable segments so the fusion plan
can interleave it with the convolutional branch; composing segments is
bitwise identical to one monolithic pass because each layer's arithmetic
is unchanged.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .blocks import Block, LayerNorm, Linear, PatchEmbed, TransformerBlock


class Neck(Block):
    """Token projection to the decoder width: 1x1 conv (as a per-token
    linear) plus token-wise LN, then reshaped to a [B, C_d, g, g] map."""

    def __init__(self, c, c_d, dtype=np.float32):
        self.proj = Linear(c, c_d, dtype)
        self.norm = LayerNorm(c_d, dtype)

    def forward(self, tokens):
        return T.tokens_to_map(self.norm.forward(self.proj.forward(tokens)))


class PriorBranch(Block):
    """The 4m-layer token encoder with taps and injection sites.

    injection_layers: 1-based indices allowed to receive an injection.
    BraidNet passes the fusion plan's feedback targets, the one place the
    sites are stated; the default () admits no injection at all.
    """

    def __init__(self, cfg, dtype=np.float32, injection_layers=()):
        m = cfg.m
        self._global = (m, 2 * m, 3 * m)
        grid = cfg.x_s // PatchEmbed.PATCH
        self.embed = PatchEmbed(cfg.C, grid, dtype)
        self.layers = [
            TransformerBlock(cfg.C, cfg.heads,
                             window=None if i in self._global else cfg.window, dtype=dtype)
            for i in range(1, 4 * m + 1)
        ]
        self.neck = Neck(cfg.C, cfg.C_d, dtype)
        self._allowed = frozenset(injection_layers)

    @property
    def global_layers(self):
        return self._global

    def embed_tokens(self, x_s):
        return self.embed.forward(x_s)

    def forward_segment(self, tokens, lo, hi, injections=None):
        """Run layers lo..hi inclusive (1-based).

        injections maps layer index -> (token tensor, LayerNorm block) and
        may only name layers inside this branch's allowed injection set.
        Returns (tokens, taps) where taps collects the outputs of any
        global layer inside the segment.
        """
        n = len(self.layers)
        if not (1 <= lo <= hi <= n):
            raise ValueError(f"prior segment [{lo}..{hi}] out of range 1..{n}")
        injections = injections or {}
        for i in injections:
            if i not in self._allowed:
                raise ValueError(
                    f"prior layer {i} is not an injection site "
                    f"(allowed: {sorted(self._allowed)})")
            if not (lo <= i <= hi):
                raise ValueError(f"injection at layer {i} outside segment [{lo}..{hi}]")
        taps = {}
        for i in range(lo, hi + 1):
            inj = injections.get(i)
            if inj is None:
                tokens = self.layers[i - 1].forward(tokens)
            else:
                injected, ln = inj
                tokens = self.layers[i - 1].forward(tokens, injected=injected, injected_ln=ln)
            if i in self._global:
                taps[i] = tokens
        return tokens, taps

    def project(self, tokens):
        return self.neck.forward(tokens)
