"""Element-wise finite-difference checks of single autodiff ops.

The numeric side only re-evaluates a scalar-valued closure at perturbed
float64 inputs and forms central differences, independent of the
autodiff machinery. test_tensor.py and test_gradcheck.py import these;
whole models are audited by braidseg.gradcheck.check_model.
"""

import numpy as np

from braidseg import tensor as T
from braidseg.tensor import Tensor


def numeric_grad(f, x, h=1e-5):
    """Element-wise central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat_x, flat_g = x.reshape(-1), g.reshape(-1)
    for i in range(flat_x.size):
        keep = flat_x[i]
        flat_x[i] = keep + h
        fp = float(f(x))
        flat_x[i] = keep - h
        fm = float(f(x))
        flat_x[i] = keep
        flat_g[i] = (fp - fm) / (2.0 * h)
    return g


def rel_error(a, b, floor=1e-12):
    """Scale-relative disagreement between two gradients (arrays or scalars)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), floor)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def check_op(op, args, wrt, h=1e-5):
    """Compare backward of `op(*args)` against numeric_grad for args[wrt].

    args are float64 numpy arrays; the op output is folded to a scalar by a
    fixed random weighting so every output element influences the check.
    Returns the relative error.
    """
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=(i == wrt))
               for i, a in enumerate(args)]
    out = op(*tensors)
    rng = np.random.default_rng(20260819)
    weights = rng.standard_normal(out.shape)

    def run(x):
        probe = [Tensor(x if i == wrt else np.asarray(a, dtype=np.float64))
                 for i, a in enumerate(args)]
        return (op(*probe).data * weights).sum()

    loss = _weighted_sum(out, weights)
    loss.backward()
    analytic = tensors[wrt].grad
    numeric = numeric_grad(run, np.asarray(args[wrt], dtype=np.float64), h=h)
    return rel_error(analytic, numeric)


def _weighted_sum(t, weights):
    return T.tensor_sum(T.mul(t, Tensor(weights.astype(t.dtype))))
