"""Parameterized building blocks: attention, transformer and residual units.

A Block is a plain container of parameter Tensors and child Blocks; forward
methods are pure functions of (parameters, inputs). named_params() walks
the attribute tree in insertion order, producing the stable dotted names
used by checkpoints, the optimizer and the gradient checker.

Construction allocates float32 zero buffers tagged with an init kind.
init_params() sets them all in one pass at the requested precision, so a
float64 model is drawn at float64; each drawn tensor has its own RNG,
seeded by (global seed, name hash), so two models sharing a parameter name
and seed hold the same bits even when one omits whole submodules.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Block:
    """Base container; subclasses assign Tensors / Blocks / lists of Blocks."""

    def named_params(self, prefix=""):
        out = []
        for attr, val in vars(self).items():
            if attr.startswith("_"):
                continue
            name = f"{prefix}{attr}"
            if isinstance(val, Tensor):
                if val.requires_grad:
                    out.append((name, val))
            elif isinstance(val, Block):
                out.extend(val.named_params(name + "."))
            elif isinstance(val, list):
                for i, item in enumerate(val):
                    out.extend(item.named_params(f"{name}.{i}."))
        return out

    def zero_grad(self):
        for _, p in self.named_params():
            p.zero_grad()


def param(shape, kind, fan_in=None):
    """Allocate an uninitialized float32 (zero) parameter tagged with its init rule."""
    tag = kind if fan_in is None else f"{kind}:{int(fan_in)}"
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True, init_kind=tag)


def stable_hash(name):
    return zlib.crc32(name.encode("utf-8"))


def init_params(block, seed, dtype=None):
    """Set every parameter by its tagged rule, at `dtype` (default: its own).

    A drawn tensor's generator is seeded with the words SeedSequence makes
    of [seed, stable_hash(name)], the seed's little-endian 32-bit words
    then the hash, handed over as one uint32 array, which it reads faster
    than the list.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"init_params: seed must be non-negative, got {seed}")
    words = [(seed >> s) & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    for name, p in block.named_params():
        dt = p.dtype if dtype is None else dtype
        kind, _, arg = (p.init_kind or "zeros").partition(":")
        if kind == "zeros":
            if p.dtype == dt:
                continue
            p.data = np.zeros(p.shape, dt)
        elif kind == "ones":
            p.data = np.ones(p.shape, dt)
        elif kind in ("trunc_normal", "he"):        # he's arg is the fan-in
            rng = np.random.default_rng(np.array([*words, stable_hash(name)], np.uint32))
            v = (_trunc_normal(rng, p.shape, 0.02) if kind == "trunc_normal"
                 else rng.normal(0.0, np.sqrt(2.0 / int(arg)), size=p.shape))
            p.data = v.astype(dt, copy=False)
        else:
            raise ValueError(f"unknown init kind {p.init_kind!r} on {name}")
        p.zero_grad()


def _trunc_normal(rng, shape, std):
    """N(0, std), redrawing only the entries beyond 2 std, in flat order."""
    v = rng.normal(0.0, std, size=shape)
    bad = (np.abs(v) > 2 * std).ravel().nonzero()[0]
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        v.put(bad, redraw)
        bad = bad[np.abs(redraw) > 2 * std]
    return v


# ---------------------------------------------------------------------
# elementary parameter bundles
# ---------------------------------------------------------------------

class Linear(Block):
    def __init__(self, cin, cout):
        self.w = param((cin, cout), "trunc_normal", fan_in=cin)
        self.b = param((cout,), "zeros")

    def forward(self, x):
        return T.matmul(x, self.w, self.b)


class LayerNorm(Block):
    def __init__(self, c):
        self.g = param((c,), "ones")
        self.b = param((c,), "zeros")

    def forward(self, x):
        return T.layer_norm(x, self.g, self.b)


class InstanceNorm(Block):
    def __init__(self, c):
        self.g = param((c,), "ones")
        self.b = param((c,), "zeros")

    def forward(self, x):
        return T.instance_norm(x, self.g, self.b)


class Conv(Block):
    def __init__(self, cin, cout, k, init="he"):
        self.w = param((cout, cin, k, k), init, fan_in=cin * k * k)
        self.b = param((cout,), "zeros")

    def forward(self, x, stride=1):
        return T.conv2d(x, self.w, self.b, stride=stride, padding=self.w.shape[-1] // 2)


class Mlp(Block):
    """Two-layer MLP with GELU, hidden width 4C."""

    def __init__(self, c):
        self.fc1 = Linear(c, 4 * c)
        self.fc2 = Linear(4 * c, c)

    def forward(self, x):
        return self.fc2.forward(T.gelu(self.fc1.forward(x)))


# ---------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------

class Attention(Block):
    """Multi-head scaled dot-product attention over token sequences.

    Queries / keys / values may come from different sequences (cross
    attention); self attention passes the same tensor three times.
    Scale is 1/sqrt(C/heads). No masking anywhere in this model.
    """

    def __init__(self, c, heads):
        if c % heads != 0:
            raise ValueError(f"attention: width {c} not divisible by {heads} heads")
        self.wq = Linear(c, c)
        self.wk = Linear(c, c)
        self.wv = Linear(c, c)
        self.wo = Linear(c, c)
        self._heads = heads
        self._c = c

    def forward(self, q_in, k_in, v_in):
        h, c = self._heads, self._c
        hd = c // h
        bsz, nq = q_in.shape[0], q_in.shape[1]
        nk = k_in.shape[1]
        split = (0, 2, 1, 3)                    # [B, N, h, hd] <-> [B, h, N, hd]
        q = T.transpose(self.wq.forward(q_in), split, view=(bsz, nq, h, hd))
        kt = T.transpose(self.wk.forward(k_in), (0, 2, 3, 1), view=(bsz, nk, h, hd))
        v = T.transpose(self.wv.forward(v_in), split, view=(bsz, nk, h, hd))
        scores = T.scale(T.matmul(q, kt), hd ** -0.5)
        attn = T.softmax(scores)
        out = T.matmul(attn, v)                                   # [B, h, Nq, hd]
        return self.wo.forward(T.transpose(out, split, shape=(bsz, nq, c)))


def window_partition(x, g, w):
    """[B, g*g, C] -> [B*(g/w)^2, w*w, C] non-overlapping windows."""
    bsz, _, c = x.shape
    nw = g // w
    return T.transpose(x, (0, 1, 3, 2, 4, 5), view=(bsz, nw, w, nw, w, c),
                       shape=(bsz * nw * nw, w * w, c))


def window_merge(x, g, w):
    """Inverse of window_partition."""
    nw = g // w
    c = x.shape[-1]
    return T.transpose(x, (0, 1, 3, 2, 4, 5), view=(-1, nw, nw, w, w, c),
                       shape=(-1, g * g, c))


class TransformerBlock(Block):
    """Pre-norm transformer layer with an optional additive injection.

    out' = MSA(LN(x)) [+ injected] + x
    out  = out' + MLP(LN(out'))

    The injection is a token tensor from the other branch, already
    layer-normalized by the coupler that produced it (fusion.DkinModule).
    A zero injected tensor contributes exactly zero, so the layer then
    reduces bitwise to the uninjected form.
    """

    def __init__(self, c, heads, grid, window=None):
        self.ln1 = LayerNorm(c)
        self.attn = Attention(c, heads)
        self.ln2 = LayerNorm(c)
        self.mlp = Mlp(c)
        self._grid = grid        # tokens form a grid x grid map
        self._window = window    # None = global attention

    def forward(self, x, injected=None):
        h = self.ln1.forward(x)
        if self._window is None:
            a = self.attn.forward(h, h, h)
        else:
            hw = window_partition(h, self._grid, self._window)
            a = window_merge(self.attn.forward(hw, hw, hw), self._grid, self._window)
        if injected is not None:
            a = T.add(a, injected)
        x = T.add(a, x)
        return T.add(x, self.mlp.forward(self.ln2.forward(x)))


# ---------------------------------------------------------------------
# convolutional residual unit with channel gating
# ---------------------------------------------------------------------

class ResidualSeBlock(Block):
    """3x3 double-conv residual unit with a squeeze-excite channel gate.

    y = act(shortcut(x) + gate * F(x))
    F = conv3x3(stride) -> IN -> act -> conv3x3 -> IN
    gate = sigmoid(expand(act(reduce(gap(F)))))   (reduction ratio 4)

    stride 1 keeps an identity shortcut (requires cin == cout); stride 2
    (or a width change) uses a 1x1 projection shortcut with its own IN.
    """

    def __init__(self, cin, cout, stride=1):
        if stride not in (1, 2):
            raise ValueError(f"residual block: stride must be 1 or 2, got {stride}")
        self.conv1 = Conv(cin, cout, 3)
        self.n1 = InstanceNorm(cout)
        self.conv2 = Conv(cout, cout, 3)
        self.n2 = InstanceNorm(cout)
        hidden = max(cout // 4, 1)
        self.se_reduce = Conv(cout, hidden, 1)
        self.se_expand = Conv(hidden, cout, 1)
        self._stride = stride
        if stride != 1 or cin != cout:
            self.proj = Conv(cin, cout, 1)
            self.np_ = InstanceNorm(cout)
        else:
            self.proj = None

    def forward(self, x):
        f = self.conv1.forward(x, stride=self._stride)
        f = T.leaky_relu(self.n1.forward(f))
        f = self.conv2.forward(f)
        f = self.n2.forward(f)
        s = T.global_avg_pool(f)
        s = T.leaky_relu(self.se_reduce.forward(s))
        s = T.sigmoid(self.se_expand.forward(s))
        gated = T.scale_channels(f, s)
        if self.proj is None:
            shortcut = x
        else:
            shortcut = self.np_.forward(self.proj.forward(x, stride=self._stride))
        return T.leaky_relu(T.add(shortcut, gated))


# ---------------------------------------------------------------------
# patch embedding
# ---------------------------------------------------------------------

class PatchEmbed(Block):
    """Non-overlapping 16x16 projection of a 1-channel image to tokens,
    plus a learned absolute positional table.

    Implemented as a one-op patchify + matmul, which is exactly the
    stride-16 16x16 convolution on non-overlapping patches.
    """

    PATCH = 16

    def __init__(self, c, grid):
        p = self.PATCH
        self.w = param((p * p, c), "trunc_normal", fan_in=p * p)
        self.b = param((c,), "zeros")
        self.pos = param((grid * grid, c), "trunc_normal")
        self._grid = grid

    def forward(self, x):
        p, g = self.PATCH, self._grid
        if x.ndim != 4 or x.shape[1] != 1:
            raise ValueError(f"patch embed: need [B,1,H,W], got {x.shape}")
        if x.shape[2] != g * p or x.shape[3] != g * p:
            raise ValueError(f"patch embed: spatial {x.shape[2:]} != {(g * p, g * p)}")
        x = T.transpose(x, (0, 1, 3, 2, 4), view=(x.shape[0], g, p, g, p),
                        shape=(x.shape[0], g * g, p * p))
        tokens = T.matmul(x, self.w, self.b)
        return T.add_bias(tokens, self.pos)
