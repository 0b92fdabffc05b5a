"""Dense tensors with reverse-mode automatic differentiation on numpy.

Every value in the network is a Tensor wrapping a row-major numpy array,
float32 for training and float64 for gradient checking. Operations are
module-level functions that compute the forward result eagerly and hand
it to _make with their operand tensors and a gradient function
grads(g): given the gradient g of the result, it returns one gradient
per operand, or None for one that did not require grad (only matmul and
conv2d skip work that way, for an image input). grads closes over
the arrays it reads and nothing else: the inputs of mul, div, matmul,
scale_channels and bce_with_logits, the output of sigmoid and softmax,
gelu's slope, the normalised input and inverse deviation of the norms,
and a conv's column matrix. _make alone touches the graph: it gives the
result a node holding its operands' nodes and a rule that calls grads
and flows each gradient into its node. A leaf that requires grad is its
own node, and the graph holds no other Tensor: an intermediate result
and its array are freed as soon as the forward code drops them, unless
a gradient function reads the array. A linear layer, matmul with a 2-d
weight and a bias, is one node. A default-config batch-2 forward pass
plus loss records 528 nodes and keeps 17.3 MiB live (tracemalloc),
against 36.3 MiB when every result held its parents. Tensor.backward()
walks the nodes once in reverse topological order and accumulates
gradients by summation at every use site. It swaps each node's rule for
a spent one just before running it, so the arrays that rule read are
freed as the walk passes, and a graph is differentiated once: a second
backward() of it raises. Each leaf's final gradient goes to backward's
step(leaf, grad): by default _accumulate, which adds it into .grad; the
training loop's step updates each parameter in place as soon as its
gradient is complete. backward keys its sets and dicts by node, so
Tensor and _Node keep identity hashing: neither may define __eq__.

Shape discipline: binary elementwise ops require identical shapes and
dtypes. There is no implicit broadcasting. The only shape-expanding
facilities are explicit ops whose gradient reductions are spelled out by
hand (scale by a python scalar, add_bias over trailing axes, matmul's
bias, scale_channels, expand_batch). All shape errors are raised at op
call time, never during backward.

Forward-only passes run inside `with no_grad():`. Ops evaluated there
return plain tensors with no node, and look up no operand's node, so
nothing below the result is kept alive; the numbers are bitwise those of
a recorded pass.

Concurrency: a graph is built and differentiated on one thread;
independent graphs on independent tensors are safe in parallel. The
no_grad flag and gelu's erf work rows are per thread. A gradient
function reads the arrays its forward saw, so nothing may change them in
place before backward reaches it; the optimizer mutates a parameter's
.data in place only from backward's step, after every rule that reads
it has run, or between graphs.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Tensor", "add", "sub", "mul", "div", "scale", "add_bias",
    "leaky_relu", "relu", "sigmoid", "gelu", "softmax",
    "matmul", "conv2d", "conv_transpose2d",
    "layer_norm", "instance_norm",
    "reshape", "transpose", "concat", "narrow", "expand_batch",
    "global_avg_pool", "scale_channels", "tensor_sum",
    "bce_with_logits", "tokens_to_map", "map_to_tokens",
]

# dtype instances: comparing against the scalar types converts them per call
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _accumulate(leaf, g):
    """backward()'s default step: add g into leaf.grad, zeros on first use."""
    leaf.grad += g


class Tensor:
    """A numpy array plus the bookkeeping for reverse-mode autodiff.

    A leaf created with requires_grad=True holds no gradient buffer until
    something needs one, so a model that never runs backward carries only
    its weights. Reading .grad on such a leaf allocates, keeps and returns
    exact zeros of the data's shape and dtype; backward() adds the first
    flow into that zero buffer, so parameters untouched by a loss read back
    exactly zero. Each graph is differentiated once and released as it is
    walked; the backward() of two graphs without zero_grad() in between
    accumulates. backward(step) hands each leaf's gradient to step instead
    and allocates no buffer. Non-leaves read .grad as None: their flows
    live in backward's seeds.

    A recorded result points at its graph node (_node); _parents and
    _backward read that node, and read () and None on a leaf. _backward
    may be reassigned on a recorded result, to wrap its rule.
    """

    __slots__ = ("data", "requires_grad", "_grad", "init_kind", "_node")

    def __init__(self, data, requires_grad=False, init_kind=None):
        if isinstance(data, Tensor):
            raise TypeError("Tensor(data): data is already a Tensor")
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad = None
        self.init_kind = init_kind
        self._node = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- graph ---------------------------------------------------------
    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, rule):
        self._node._backward = rule

    @property
    def grad(self):
        g = self._grad
        if g is None and self.requires_grad and self._node is None:
            g = self._grad = np.zeros_like(self.data)
        return g

    @grad.setter
    def grad(self, value):
        self._grad = value

    def zero_grad(self):
        """Zero the buffer in place; drop it if .data was re-typed or reshaped."""
        g = self._grad
        if g is None:
            return
        if g.shape == self.data.shape and g.dtype == self.data.dtype:
            g.fill(0)
        else:
            self._grad = None

    def backward(self, step=_accumulate):
        """Hand d(self)/d(leaf) to step(leaf, g) for every reachable leaf.

        self must hold a single scalar (the loss). Traversal is a single
        pass over the recorded nodes in exact reverse topological order;
        each rule reads only the arrays its forward saved, so the graph
        holds those and no intermediate Tensor. Each node's rule is swapped
        for _spent just before it runs, which frees what it read as the
        walk passes and makes a second backward() of this graph raise
        RuntimeError.

        Each reached leaf that requires grad gets step(leaf, g) once, with
        its final gradient g; the default step, _accumulate, adds g into
        .grad. step may update leaf.data in place: every rule that reads a
        leaf's array belongs to one of its consumers, and the reverse
        topological order runs all of them before the leaf.
        """
        if self.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {self.shape}")
        if self._node is None and not self.requires_grad:
            raise ValueError("backward: the loss has no graph (computed under no_grad, "
                             "or from tensors that require no gradient)")
        order = _topo_order(self)
        seeds = {order[-1]: np.ones_like(self.data)}
        for node in reversed(order):
            g = seeds.pop(node)         # every consumer's rule flowed into it
            rule = node._backward
            if rule is None:
                step(node, g)
            else:
                node._backward = _spent
                rule(g, seeds)


def _spent(*_):
    """The rule of a node backward() has already run."""
    raise RuntimeError("backward: this graph was already differentiated and its "
                       "saved arrays freed; recompute the loss")


class _Node:
    """One recorded op: its operands' nodes (None for one that needs no
    gradient), and its rule (g, seeds), which flows g into them."""

    __slots__ = ("_parents", "_backward")

    def __init__(self, parents, backward):
        self._parents = parents
        self._backward = backward


def _node_of(t):
    """The node t's gradient flows into: its op's node, t itself as a leaf
    that requires grad, or None."""
    n = t._node
    if n is None and t.requires_grad:
        return t
    return n


def _topo_order(root):
    """Parents-before-children ordering of the graph nodes below root."""
    order, seen, stack = [], set(), [(_node_of(root), False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p is not None and p not in seen:
                stack.append((p, False))
    return order


def _flow(seeds, node, g):
    """Accumulate gradient g into node's slot in the per-backward dict."""
    if node in seeds:
        seeds[node] = seeds[node] + g
    else:
        seeds[node] = g


class _GradMode(threading.local):
    recording = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no graph on this thread inside the block (nestable)."""
    prev = _grad_mode.recording
    _grad_mode.recording = False
    try:
        yield
    finally:
        _grad_mode.recording = prev


def _make(data, operands, grads):
    """Wrap the array data in a new tensor and record its node.

    operands are the op's input tensors, and grads(g) returns one gradient
    per operand for the gradient g of the result; it may return None for
    an operand that does not require grad. The node's rule calls grads and
    flows each gradient into the node of each operand that has one, so
    grads holds arrays only, never a tensor or a node. Inside no_grad(),
    or when no operand needs a gradient, nothing is recorded; a recorded
    result requires grad.

    The result is built here, not through Tensor.__init__: every op hands
    over a float array of its operands' dtype already. Only 0-d arithmetic
    yields a numpy scalar, which becomes a 0-d array.
    """
    if data.__class__ is not np.ndarray:
        data = np.asarray(data)
    node = None
    if _grad_mode.recording:
        nodes = tuple(map(_node_of, operands))
        if any(nodes):

            def rule(g, seeds):
                for node, d in zip(nodes, grads(g)):
                    if node is not None:
                        _flow(seeds, node, d)

            node = _Node(nodes, rule)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = node is not None
    out._grad = None
    out.init_kind = None
    out._node = node
    return out


def _check_binary(name, a, b):
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError(f"{name}: both operands must be Tensors")
    if a.shape != b.shape:
        raise ValueError(f"{name}: shape mismatch {a.shape} vs {b.shape} (no broadcasting)")
    if a.dtype != b.dtype:
        raise ValueError(f"{name}: dtype mismatch {a.dtype} vs {b.dtype}")


# ---------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------

def add(a, b):
    _check_binary("add", a, b)
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b):
    _check_binary("sub", a, b)
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b):
    _check_binary("mul", a, b)
    ad, bd = a.data, b.data
    return _make(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def div(a, b):
    _check_binary("div", a, b)
    ad, bd = a.data, b.data
    return _make(ad / bd, (a, b), lambda g: (g / bd, -g * ad / (bd * bd)))


def scale(x, c):
    """Multiply by a python scalar (the one sanctioned broadcast)."""
    c = float(c)
    return _make(x.data * c, (x,), lambda g: (g * c,))


def add_bias(x, b):
    """x + b where b matches the trailing axes of x.

    Explicit trailing-axis broadcast: gradient of b sums over the leading
    axes. Covers conv/linear biases ([C]) and positional tables ([N, C]).
    """
    if b.ndim > x.ndim or x.shape[x.ndim - b.ndim:] != b.shape:
        raise ValueError(f"add_bias: bias shape {b.shape} does not match trailing axes of {x.shape}")
    if b.dtype != x.dtype:
        raise ValueError(f"add_bias: dtype mismatch {x.dtype} vs {b.dtype}")
    lead = tuple(range(x.ndim - b.ndim))
    return _make(x.data + b.data, (x, b),
                 lambda g: (g, g.sum(axis=lead) if lead else g.copy()))


def leaky_relu(x):
    mask_pos = x.data > 0
    alpha = x.dtype.type(0.01)
    out = np.where(mask_pos, x.data, x.data * alpha)
    return _make(out, (x,),
                 lambda g: (g * np.where(mask_pos, alpha.dtype.type(1), alpha),))


def relu(x):
    mask = x.data > 0
    out = np.where(mask, x.data, x.dtype.type(0))
    return _make(out, (x,), lambda g: (g * mask,))


def sigmoid_np(z):
    """Plain-array logistic, stable in both tails."""
    z = np.asarray(z)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x):
    y = sigmoid_np(x.data)
    return _make(y, (x,), lambda g: (g * y * (1.0 - y),))


# Cephes' erf (ndtr.c): x T(x^2) / U(x^2) for |x| <= 1, else
# 1 - exp(-x^2) P(|x|) / Q(|x|); U and Q have an implicit leading 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
# one block holds a whole [1, 64, 384] prior-MLP activation
_ERF_BLOCK = 32768


class _ErfRows(threading.local):
    """Four float64 rows of one block (1 MiB), allocated once per thread.

    Fresh float64 temporaries on every call are returned to the OS when
    glibc trims its heap, and faulted in again on the next call: about
    1,300 minor page faults per default-config forward pass.
    """

    def __init__(self):
        self.rows = np.empty((4, _ERF_BLOCK))


_erf_rows = _ErfRows()


def _horner(acc, coefs, t):
    """acc <- ((acc + c0) t + c1) t + ... + cn in place, in Cephes' order."""
    acc += coefs[0]
    for c in coefs[1:]:
        acc *= t
        acc += c


def _erf(x):
    """erf of a float array, from Cephes' float64 evaluation rounded to x's dtype.

    Works a block at a time in the thread's float64 rows. The near form
    runs on every element; those with |x| > 1 then take the far form, which
    clamps |x| at 6: erfc(6) is below half an ulp of 1.
    """
    flat = x.reshape(-1)
    out = np.empty(flat.shape, x.dtype)
    rows = _erf_rows.rows
    # the near form overflows on huge inputs, whose lanes the far form overwrites
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, _ERF_BLOCK):
            xb = flat[lo:lo + _ERF_BLOCK]
            z, num, den, w = rows[:, :xb.size]
            np.multiply(xb, xb, out=z, dtype=np.float64)
            np.multiply(z, _ERF_T[0], out=num)
            _horner(num, _ERF_T[1:], z)                      # polevl(z, T, 4)
            np.copyto(den, z)
            _horner(den, _ERF_U, z)                          # p1evl(z, U, 5)
            np.multiply(num, xb, out=num)
            num /= den
            far = np.flatnonzero(z > 1.0)                    # |x| > 1; NaN stays near
            if far.size:
                s = xb[far]
                a, p, q = z[:far.size], den[:far.size], w[:far.size]
                np.abs(s, out=a, dtype=np.float64)
                np.minimum(a, 6.0, out=a)
                np.multiply(a, _ERF_P[0], out=p)
                _horner(p, _ERF_P[1:], a)                    # polevl(a, P, 8)
                np.copyto(q, a)
                _horner(q, _ERF_Q, a)                        # p1evl(a, Q, 8)
                np.multiply(a, a, out=a)
                np.negative(a, out=a)
                np.exp(a, out=a)
                a *= p
                a /= q                                       # erfc(|x|)
                np.subtract(1.0, a, out=a)
                num[far] = np.copysign(a, s, out=a, dtype=np.float64)
            out[lo:lo + _ERF_BLOCK] = num
    return out.reshape(x.shape)


def gelu(x):
    """Exact Gauss-error-function GELU.

    erf is Cephes' rational form, evaluated in float64 and rounded to the
    input's dtype (_erf). A recorded result keeps only its slope
    phi(z) + z pdf(z), computed here; under no_grad no slope is computed.
    """
    # python-float constants: a numpy float64 scalar would promote float32 z
    z = x.data
    phi = 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))
    out = z * phi
    if not (_grad_mode.recording and _node_of(x) is not None):
        return _make(out, (x,), None)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    slope = phi + z * pdf
    return _make(out, (x,), lambda g: (g * slope,))


def softmax(x):
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def grads(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (x,), grads)


# ---------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------

def matmul(a, b, bias=None):
    """Matrix product of a [..., M, K] with b, plus an optional bias.

    A 2-d b (a weight) is shared across a's batch, whose axes fold into
    rows: one GEMM forward and one per gradient. With it, a bias [N] of a
    [K, N] weight makes a @ b + bias one node, a linear layer; its
    gradient sums g over the leading axes, as add_bias does. Otherwise a
    and b need the same rank and identical leading batch extents.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ValueError(f"matmul: operands must be >=2-d, got {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ValueError(f"matmul: inner extents differ: {ad.shape} @ {bd.shape}")
    if bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ValueError(f"matmul: batch extents differ: {ad.shape} @ {bd.shape}")
    if ad.dtype != bd.dtype:
        raise ValueError(f"matmul: dtype mismatch {ad.dtype} vs {bd.dtype}")
    if bias is not None:
        cd = bias.data
        if bd.ndim != 2 or cd.shape != bd.shape[1:]:
            raise ValueError(f"matmul: bias shape {cd.shape} does not fit weight {bd.shape}")
        if cd.dtype != bd.dtype:
            raise ValueError(f"matmul: dtype mismatch {bd.dtype} vs bias {cd.dtype}")

    if bd.ndim == 2:
        a2 = ad.reshape(-1, ad.shape[-1])
        out = (a2 @ bd).reshape(ad.shape[:-1] + bd.shape[1:])
        need_a = a.requires_grad   # the patch embedding's input, the image, needs none

        def grads(g):
            g2 = g.reshape(a2.shape[0], -1)
            return (g2 @ bd.T).reshape(ad.shape) if need_a else None, a2.T @ g2

        if bias is None:
            return _make(out, (a, b), grads)
        out += cd
        return _make(out, (a, b, bias),
                     lambda g: (*grads(g), g.sum(axis=tuple(range(g.ndim - 1)))))

    return _make(np.matmul(ad, bd), (a, b), lambda g: (
        np.matmul(g, np.swapaxes(bd, -1, -2)), np.matmul(np.swapaxes(ad, -1, -2), g)))


def _im2col(xp, k, s):
    """[B, C, H, W] -> [B, C*k*k, L] patch matrix, rows ordered (c, ki, kj)."""
    bsz, c = xp.shape[:2]
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]   # [B, C, ho, wo, k, k]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(bsz, c * k * k, -1)


def conv2d(x, w, b, stride=1, padding=0):
    """2-d cross-correlation plus bias. x [B,Cin,H,W], w [Cout,Cin,k,k].

    Odd square kernels only; output extent floor((H + 2p - k)/s) + 1.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d: need 4-d input and kernel, got {x.shape}, {w.shape}")
    cout, cin, k, k2 = w.shape
    if k != k2 or k % 2 != 1:
        raise ValueError(f"conv2d: kernel must be square with odd extent, got {w.shape[2:]}")
    if x.shape[1] != cin:
        raise ValueError(f"conv2d: input channels {x.shape[1]} != kernel channels {cin}")
    if b.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {b.shape} != ({cout},)")
    if x.dtype != w.dtype or x.dtype != b.dtype:
        raise ValueError("conv2d: dtype mismatch among x, w, b")
    s, p = int(stride), int(padding)
    bsz, _, h, wd = x.shape
    ho = (h + 2 * p - k) // s + 1
    wo = (wd + 2 * p - k) // s + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d: empty output for input {x.shape}, k={k}, s={s}, p={p}")
    if p:
        xp = np.zeros((bsz, cin, h + 2 * p, wd + 2 * p), dtype=x.dtype)
        xp[:, :, p:p + h, p:p + wd] = x.data
    else:
        xp = x.data
    if k == 1:   # the (strided) input is its own column matrix
        cols = xp[:, :, ::s, ::s].reshape(bsz, cin, ho * wo)
    else:
        cols = _im2col(xp, k, s)                  # [B, Cin*k*k, L]
    wmat = w.data.reshape(cout, cin * k * k)
    out = np.matmul(wmat, cols) + b.data[:, None]
    out = out.reshape(bsz, cout, ho, wo)
    padded = xp.shape
    need_x = x.requires_grad   # the first domain layer's input, the image, needs none

    def grads(g):
        gm = g.reshape(bsz, cout, ho * wo)
        dw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(cout, cin, k, k)
        db = gm.sum(axis=(0, 2))
        if not need_x:
            return None, dw, db
        dcols = np.matmul(wmat.T, gm).reshape(bsz, cin, k * k, ho, wo)
        dxp = np.zeros(padded, wmat.dtype)
        for ki in range(k):
            for kj in range(k):
                dxp[:, :, ki:ki + s * ho:s, kj:kj + s * wo:s] += dcols[:, :, ki * k + kj]
        return dxp[:, :, p:p + h, p:p + wd] if p else dxp, dw, db

    return _make(out, (x, w, b), grads)


def conv_transpose2d(x, w, b):
    """Transposed convolution at stride k. x [B,Cin,H,W], w [Cin,Cout,k,k] (square).

    Tiles do not overlap, so each pixel's k x k output tile is one row of
    a per-pixel matmul with w as [Cin, Cout*k*k]. Output [B,Cout,H*k,W*k].
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv_transpose2d: need 4-d input and kernel, got {x.shape}, {w.shape}")
    cin, cout, k, k2 = w.shape
    if k != k2:
        raise ValueError(f"conv_transpose2d: kernel must be square, got {w.shape[2:]}")
    if x.shape[1] != cin:
        raise ValueError(f"conv_transpose2d: input channels {x.shape[1]} != kernel channels {cin}")
    if b.shape != (cout,):
        raise ValueError(f"conv_transpose2d: bias shape {b.shape} != ({cout},)")
    if x.dtype != w.dtype or x.dtype != b.dtype:
        raise ValueError("conv_transpose2d: dtype mismatch among x, w, b")
    bsz, _, h, wd = x.shape
    xm = x.data.transpose(0, 2, 3, 1).reshape(bsz * h * wd, cin)      # one row per pixel
    wm = w.data.reshape(cin, cout * k * k)
    tiles = (xm @ wm).reshape(bsz, h, wd, cout, k, k).transpose(0, 3, 1, 4, 2, 5)
    out = tiles.reshape(bsz, cout, h * k, wd * k) + b.data[:, None, None]

    def grads(g):
        gm = g.reshape(bsz, cout, h, k, wd, k).transpose(0, 2, 4, 1, 3, 5).reshape(-1, cout * k * k)
        return ((gm @ wm.T).reshape(bsz, h, wd, cin).transpose(0, 3, 1, 2),
                (xm.T @ gm).reshape(cin, cout, k, k), g.sum(axis=(0, 2, 3)))

    return _make(out, (x, w, b), grads)


# ---------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------

def _mean(a, axes, n):
    """a.mean(axis=axes, keepdims=True) bit for bit, without its per-call
    overhead; n counts the reduced elements. (ndarray.mean divides float32
    sums by an intp in float64 and rounds back; a quotient rounded to 53
    bits and then to 24 equals the one rounded straight to 24.)"""
    s = np.add.reduce(a, axis=axes, keepdims=True)
    s /= n
    return s


def _norm(name, x, gamma, beta, axes, param_axis, pshape):
    if gamma.shape != beta.shape:
        raise ValueError(f"{name}: gamma shape {gamma.shape} != beta shape {beta.shape}")
    if x.dtype != gamma.dtype or x.dtype != beta.dtype:
        raise ValueError(f"{name}: dtype mismatch among x, gamma, beta")
    n = math.prod(x.shape[a] for a in axes)
    mu = _mean(x.data, axes, n)
    xm = x.data - mu
    var = _mean(xm * xm, axes, n)
    ivar = 1.0 / np.sqrt(var + x.dtype.type(1e-5))     # eps
    xhat = xm * ivar
    gview = gamma.data.reshape(pshape)
    out = xhat * gview + beta.data.reshape(pshape)
    osum = tuple(i for i in range(x.ndim) if i != param_axis)  # reduce onto the param axis

    def grads(g):
        dxhat = g * gview
        m1 = _mean(dxhat, axes, n)
        m2 = _mean(dxhat * xhat, axes, n)
        return (ivar * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=osum).reshape(-1),
                g.sum(axis=osum).reshape(-1))

    return _make(out, (x, gamma, beta), grads)


def layer_norm(x, gamma, beta):
    """Normalize over the last axis (per token); gamma/beta of shape [C]."""
    if gamma.shape != (x.shape[-1],):
        raise ValueError(f"layer_norm: gamma shape {gamma.shape} != ({x.shape[-1]},)")
    pshape = (1,) * (x.ndim - 1) + (x.shape[-1],)
    return _norm("layer_norm", x, gamma, beta, (x.ndim - 1,), x.ndim - 1, pshape)


def instance_norm(x, gamma, beta):
    """Normalize each (sample, channel) over its spatial extent; x [B,C,H,W]."""
    if x.ndim != 4:
        raise ValueError(f"instance_norm: need [B,C,H,W], got {x.shape}")
    if gamma.shape != (x.shape[1],):
        raise ValueError(f"instance_norm: gamma shape {gamma.shape} != ({x.shape[1]},)")
    return _norm("instance_norm", x, gamma, beta, (2, 3), 1, (1, x.shape[1], 1, 1))


# ---------------------------------------------------------------------
# shape movement
# ---------------------------------------------------------------------

def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ValueError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def transpose(x, axes, view=None, shape=None):
    """Permute axes into one contiguous copy, as a single graph node.

    x is first read as `view` (default: its own shape), `axes` permutes
    that view, and the copy is read as `shape` (default: the permuted
    shape). So reshape -> transpose -> reshape is one op; a view or shape
    of the wrong size raises ValueError here.
    """
    axes = tuple(int(a) for a in axes)
    src = x.data if view is None else x.data.reshape(view)
    if sorted(axes) != list(range(src.ndim)):
        raise ValueError(f"transpose: axes {axes} is not a permutation of 0..{src.ndim - 1}")
    moved = np.ascontiguousarray(src.transpose(axes))
    # the rule keeps a shape only where its reshape is not the identity
    mshape = None if shape is None else moved.shape
    old = None if view is None else x.data.shape

    def grads(g):
        gx = (g if mshape is None else g.reshape(mshape)).transpose(np.argsort(axes))
        return (gx if old is None else gx.reshape(old),)

    return _make(moved if shape is None else moved.reshape(shape), (x,), grads)


def concat(parts, axis):
    if not parts:
        raise ValueError("concat: empty input list")
    axis = int(axis)
    ref = parts[0]
    for p in parts[1:]:
        if p.ndim != ref.ndim:
            raise ValueError("concat: rank mismatch")
        for ax in range(ref.ndim):
            if ax != axis % ref.ndim and p.shape[ax] != ref.shape[ax]:
                raise ValueError(f"concat: shape mismatch {p.shape} vs {ref.shape} off axis {axis}")
        if p.dtype != ref.dtype:
            raise ValueError("concat: dtype mismatch")
    cuts = np.cumsum([p.shape[axis] for p in parts[:-1]])
    return _make(np.concatenate([p.data for p in parts], axis=axis), parts,
                 lambda g: np.split(g, cuts, axis=axis))


def narrow(x, axis, start, length):
    """Contiguous slice along one axis; backward zero-pads the complement."""
    axis, start, length = int(axis), int(start), int(length)
    if not (0 <= start and start + length <= x.shape[axis]):
        raise ValueError(f"narrow: [{start}:{start + length}] out of range for axis {axis} of {x.shape}")
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    old, dtype = x.data.shape, x.dtype

    def grads(g):
        dx = np.zeros(old, dtype)
        dx[sl] = g
        return (dx,)

    return _make(x.data[sl].copy(), (x,), grads)


def expand_batch(x, n):
    """Tile a leading unit axis to n (backward sums the copies)."""
    if x.shape[0] != 1:
        raise ValueError(f"expand_batch: leading axis must be 1, got {x.shape}")
    reps = (int(n),) + (1,) * (x.ndim - 1)
    return _make(np.tile(x.data, reps), (x,), lambda g: (g.sum(axis=0, keepdims=True),))


def global_avg_pool(x):
    """[B,C,H,W] -> [B,C,1,1] spatial mean."""
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool: need [B,C,H,W], got {x.shape}")
    hw = x.shape[2] * x.shape[3]
    out = x.data.mean(axis=(2, 3), keepdims=True)
    old = x.shape
    return _make(out, (x,), lambda g: (np.broadcast_to(g / hw, old).copy(),))


def scale_channels(x, s):
    """Per-channel gate: x [B,C,H,W] * s [B,C,1,1] (explicit spatial broadcast)."""
    if x.ndim != 4 or s.shape != (x.shape[0], x.shape[1], 1, 1):
        raise ValueError(f"scale_channels: got x {x.shape}, gate {s.shape}")
    if x.dtype != s.dtype:
        raise ValueError("scale_channels: dtype mismatch")
    xd, sd = x.data, s.data
    return _make(xd * sd, (x, s),
                 lambda g: (g * sd, (g * xd).sum(axis=(2, 3), keepdims=True)))


def tensor_sum(x):
    """Sum of all elements, as a scalar tensor."""
    xd = x.data
    old, dtype = xd.shape, xd.dtype
    return _make(np.asarray(xd.sum(), dtype=dtype), (x,),
                 lambda g: (np.full(old, g, dtype=dtype),))


# ---------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------

def bce_with_logits(z, t):
    """Mean binary cross-entropy straight from logits (stable in both tails)."""
    _check_binary("bce_with_logits", z, t)
    zd, td = z.data, t.data
    per = np.maximum(zd, 0) - zd * td + np.log1p(np.exp(-np.abs(zd)))
    n = zd.size
    return _make(np.asarray(per.mean(), dtype=zd.dtype), (z, t),
                 lambda g: (g * (sigmoid_np(zd) - td) / n, g * (-zd) / n))


# ---------------------------------------------------------------------
# token <-> grid views
# ---------------------------------------------------------------------

def map_to_tokens(x):
    """[B,C,g,g] feature map -> [B,g*g,C] row-major token sequence."""
    if x.ndim != 4 or x.shape[2] != x.shape[3]:
        raise ValueError(f"map_to_tokens: need square [B,C,g,g], got {x.shape}")
    bsz, c, g, _ = x.shape
    return transpose(x, (0, 2, 3, 1), shape=(bsz, g * g, c))


def tokens_to_map(x):
    """[B,N,C] tokens -> [B,C,sqrt(N),sqrt(N)]; N must be a perfect square."""
    if x.ndim != 3:
        raise ValueError(f"tokens_to_map: need [B,N,C], got {x.shape}")
    bsz, n, c = x.shape
    g = math.isqrt(n)
    if g * g != n:
        raise ValueError(f"tokens_to_map: token count {n} is not a perfect square")
    return transpose(x, (0, 3, 1, 2), view=(bsz, g, g, c))
