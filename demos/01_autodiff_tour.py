"""
A short tour of the tensor core
===============================

Build a few tensors, push them through the ops the network is made of,
call backward once, and confirm a gradient against a central difference.
Everything here is plain numpy underneath; no graph compiler, no tape
object, just parent pointers and per-op backward closures.
"""

import math

import numpy as np

from braidseg import tensor as T
from braidseg.tensor import Tensor

rng = np.random.default_rng(0)

# ---------------------------------------------------------------- scalars
# a tiny composite: loss = sum(gelu(x @ w) * s)
x = Tensor(rng.normal(size=(4, 3)).astype(np.float64), requires_grad=True)
w = Tensor(rng.normal(size=(3, 5)).astype(np.float64), requires_grad=True)

h = T.gelu(T.matmul(x, w))
loss = T.tensor_sum(h)
loss.backward()

print("loss           :", float(loss.data))
print("x.grad norm    :", np.linalg.norm(x.grad))
print("w.grad norm    :", np.linalg.norm(w.grad))

# check one element of w.grad by central differences
i, j = 1, 2
eps = 1e-6
wp = w.data.copy(); wp[i, j] += eps
wm = w.data.copy(); wm[i, j] -= eps


def f(wmat):
    z = x.data @ wmat
    # gelu(z) = z * Phi(z); same formula the op uses, with the libm erf
    erf = np.vectorize(math.erf)
    return float((z * 0.5 * (1.0 + erf(z / np.sqrt(2.0)))).sum())


numeric = (f(wp) - f(wm)) / (2 * eps)
print(f"w.grad[{i},{j}]   : analytic {w.grad[i, j]:.10f}  numeric {numeric:.10f}")
assert abs(w.grad[i, j] - numeric) < 1e-8

# ------------------------------------------------------------- image ops
# the convolution path used by the domain branch: conv -> norm -> leaky
img = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float64), requires_grad=True)
k = Tensor(rng.normal(scale=0.1, size=(4, 3, 3, 3)).astype(np.float64), requires_grad=True)
b = Tensor(np.zeros(4, dtype=np.float64), requires_grad=True)
g = Tensor(np.ones(4, dtype=np.float64), requires_grad=True)
beta = Tensor(np.zeros(4, dtype=np.float64), requires_grad=True)

y = T.leaky_relu(T.instance_norm(T.conv2d(img, k, b, stride=1, padding=1), g, beta))
print("conv path out  :", y.shape)

T.tensor_sum(T.mul(y, y)).backward()
for name, t in [("img", img), ("kernel", k), ("gain", g), ("shift", beta)]:
    print(f"  {name:<7} grad magnitude {np.abs(t.grad).max():.4f}")

# ------------------------------------------------------- token/map moves
# transformer tokens live as [B, N, C]; feature maps as [B, C, H, W].
tokens = Tensor(rng.normal(size=(1, 16, 6)).astype(np.float64), requires_grad=True)
fmap = T.tokens_to_map(tokens)          # [1, 6, 4, 4]
back = T.map_to_tokens(fmap)            # [1, 16, 6] again
print("tokens->map    :", fmap.shape, " map->tokens:", back.shape)
assert np.array_equal(back.data, tokens.data)

print("\nall gradient probes agreed")
