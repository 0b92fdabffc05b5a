"""Prompt-conditioned mask decoder over the fused feature map.

The prompt is always a box spanning the whole image; its two corners are
embedded by a deterministic sine-cosine positional code of the normalized
coordinates plus a learned per-corner type embedding, giving exactly two
prompt tokens. One learned mask token joins them. A depth-2 two-way
transformer alternates token self-attention, token->image cross
attention, a token MLP, and image->token cross attention (positional
codes added on the image side every time). The refreshed image map is
upscaled by two stride-2 transposed convolutions (C_d -> C_d/2 -> C_d/4,
norm + GELU between), a small MLP maps the mask token to a C_d/4 weight
vector, and the logit at each pixel is the dot product of that vector
with the upscaled feature: output [B, 1, 4g, 4g]. Single mask output,
no mask-quality token.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as T
from .blocks import Attention, Block, InstanceNorm, LayerNorm, Linear, Mlp, param
from .tensor import Tensor


def sine_cosine_pe(coords, c, dtype=np.float32):
    """Deterministic positional code of normalized (u, v) in [0, 1]^2.

    Frequencies (k + 1/2) * pi keep the code non-periodic on [0, 1], so
    opposite box corners embed distinctly. coords: [..., 2] -> [..., c].
    """
    if c % 4 != 0:
        raise ValueError(f"positional code width must be divisible by 4, got {c}")
    coords = np.asarray(coords, dtype=np.float64)
    freqs = (np.arange(c // 4) + 0.5) * np.pi
    u = coords[..., 0:1] * freqs
    v = coords[..., 1:2] * freqs
    pe = np.concatenate([np.sin(u), np.cos(u), np.sin(v), np.cos(v)], axis=-1)
    return pe.astype(dtype)


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=16)
def grid_pe(g, c, dtype=np.float32):
    """[g*g, c] code of pixel centers of a g x g grid, row-major.

    Built once per (g, c, dtype) and shared by every decode, so the array
    is read-only.
    """
    ii, jj = np.mgrid[0:g, 0:g]
    coords = np.stack([(jj + 0.5) / g, (ii + 0.5) / g], axis=-1).reshape(g * g, 2)
    return _read_only(sine_cosine_pe(coords, c, dtype))


@functools.lru_cache(maxsize=16)
def _corner_pe(c, dtype):
    """[2, c] read-only code of the whole-image box corners (0,0) and (W,H),
    normalized by the extent itself."""
    return _read_only(sine_cosine_pe(np.array([[0.0, 0.0], [1.0, 1.0]]), c, dtype))


class PromptEncoder(Block):
    """Whole-image box -> two prompt tokens of the decoder width."""

    def __init__(self, c_d):
        self.corner_tl = param((1, c_d), "trunc_normal")
        self.corner_br = param((1, c_d), "trunc_normal")
        self._c = c_d

    def forward(self, batch):
        # The box is fixed to the whole image, so the two prompt tokens are
        # a function of the parameters alone: no input reaches them, and
        # only the batch expansion varies. Only their positional part is
        # cached; the tokens are rebuilt on every call, because check_model
        # edits corner_tl and corner_br in place between forward-only
        # passes, so a token cache would hand back stale tokens.
        corners = T.concat([self.corner_tl, self.corner_br], 0)       # [2, C_d]
        tokens = T.add(corners, Tensor(_corner_pe(self._c, self.corner_tl.dtype)))
        tokens = T.reshape(tokens, (1, 2, self._c))
        return T.expand_batch(tokens, batch)


class TwoWayLayer(Block):
    def __init__(self, c, heads):
        self.self_attn = Attention(c, heads)
        self.ln1 = LayerNorm(c)
        self.cross_t2i = Attention(c, heads)
        self.ln2 = LayerNorm(c)
        self.mlp = Mlp(c)
        self.ln3 = LayerNorm(c)
        self.cross_i2t = Attention(c, heads)
        self.ln4 = LayerNorm(c)

    def forward(self, tokens, img, token_pe, img_pe):
        q = T.add(tokens, token_pe)
        tokens = self.ln1.forward(T.add(tokens, self.self_attn.forward(q, q, tokens)))
        q = T.add(tokens, token_pe)
        k = T.add_bias(img, img_pe)
        tokens = self.ln2.forward(T.add(tokens, self.cross_t2i.forward(q, k, img)))
        tokens = self.ln3.forward(T.add(tokens, self.mlp.forward(tokens)))
        qi = T.add_bias(img, img_pe)
        k = T.add(tokens, token_pe)
        img = self.ln4.forward(T.add(img, self.cross_i2t.forward(qi, k, tokens)))
        return tokens, img


class MaskDecoder(Block):
    DEPTH = 2

    def __init__(self, c_d):
        if c_d % 4 != 0:
            raise ValueError(f"decoder width must be divisible by 4, got {c_d}")
        heads = max(h for h in (8, 4, 2, 1) if c_d % h == 0)
        self.mask_token = param((1, 1, c_d), "trunc_normal")
        self.layers = [TwoWayLayer(c_d, heads) for _ in range(self.DEPTH)]
        self.up1_w = param((c_d, c_d // 2, 2, 2), "he", fan_in=c_d * 4)
        self.up1_b = param((c_d // 2,), "zeros")
        self.up_norm = InstanceNorm(c_d // 2)
        self.up2_w = param((c_d // 2, c_d // 4, 2, 2), "he", fan_in=c_d * 2)
        self.up2_b = param((c_d // 4,), "zeros")
        self.hyper1 = Linear(c_d, c_d)
        self.hyper2 = Linear(c_d, c_d)
        self.hyper3 = Linear(c_d, c_d // 4)
        self._c = c_d

    def forward(self, fused_map, prompt_tokens):
        """fused_map [B, C_d, g, g], prompt_tokens [B, 2, C_d] -> [B, 1, 4g, 4g]."""
        bsz, c, g, _ = fused_map.shape
        if c != self._c:
            raise ValueError(f"decoder: fused map width {c} != {self._c}")
        img = T.map_to_tokens(fused_map)                             # [B, g*g, C_d]
        img_pe = Tensor(grid_pe(g, c, fused_map.dtype))
        mask_tok = T.expand_batch(self.mask_token, bsz)
        tokens = T.concat([mask_tok, prompt_tokens], 1)              # [B, 3, C_d]
        token_pe = tokens                                            # queries carry their own code
        for layer in self.layers:
            tokens, img = layer.forward(tokens, img, token_pe, img_pe)

        up = T.tokens_to_map(img)
        up = T.conv_transpose2d(up, self.up1_w, self.up1_b)
        up = T.gelu(self.up_norm.forward(up))
        up = T.conv_transpose2d(up, self.up2_w, self.up2_b)
        up = T.gelu(up)                                              # [B, C_d/4, 4g, 4g]

        mt = T.reshape(T.narrow(tokens, 1, 0, 1), (bsz, c))
        w = T.relu(self.hyper1.forward(mt))
        w = T.relu(self.hyper2.forward(w))
        w = self.hyper3.forward(w)                                   # [B, C_d/4]

        c4, side = c // 4, 4 * g
        flat = T.reshape(up, (bsz, c4, side * side))
        logits = T.matmul(T.reshape(w, (bsz, 1, c4)), flat)
        return T.reshape(logits, (bsz, 1, side, side))
