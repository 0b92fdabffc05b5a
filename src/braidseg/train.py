"""Training: (1 - soft Dice) + BCE loss, SGD with momentum and weight
decay, per-epoch polynomial learning-rate decay, light augmentation.

Determinism contract: with a fixed TrainConfig.seed the run is bitwise
reproducible. Every random draw comes from a generator keyed by
(seed, role, epoch/sample index), never from shared global state, so
batch order and augmentations are independent of execution history.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import load_sample, make_views, nearest_resize, save_checkpoint
from .tensor import Tensor

_ORDER_TAG = 0x0D0E

# augmentation draws: intensity scale and shift, and each flip's chance
SCALE_RANGE = (0.9, 1.1)
SHIFT_RANGE = (-0.1, 0.1)
FLIP_PROB = 0.5


class NumericError(RuntimeError):
    """Training diverged into non-finite territory."""


@dataclass
class TrainConfig:
    epochs: int = 50
    batch: int = 2
    lr0: float = 3e-4
    momentum: float = 0.99
    weight_decay: float = 1e-4
    seed: int = 0
    invert_prob: float = 0.0
    augment: bool = True

    def validate(self):
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("train config: epochs and batch must be positive")
        if not 0.0 <= self.invert_prob <= 1.0:
            raise ValueError(f"train config: invert_prob must lie in [0, 1], got {self.invert_prob}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"train config: momentum must lie in [0, 1), got {self.momentum}")
        for name in ("lr0", "weight_decay"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"train config: {name} must be finite and >= 0, "
                                 f"got {getattr(self, name)}")
        return self


def poly_lr(lr0, epoch, total_epochs):
    """lr0 * (1 - epoch/total)^0.9; exactly lr0 at 0, exactly 0 at total."""
    if not (0 <= epoch <= total_epochs):
        raise ValueError(f"poly_lr: epoch {epoch} outside 0..{total_epochs}")
    return lr0 * (1.0 - epoch / total_epochs) ** 0.9


# ---------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------

def soft_dice(logits, target):
    """(2 sum(p*g) + 1) / (sum(p) + sum(g) + 1) with p = sigmoid(logits)."""
    p = T.sigmoid(logits)
    one = Tensor(np.asarray(1.0, dtype=logits.dtype))
    inter = T.tensor_sum(T.mul(p, target))
    denom = T.add(T.add(T.tensor_sum(p), T.tensor_sum(target)), one)
    return T.div(T.add(T.scale(inter, 2.0), one), denom)


def seg_loss(logits, target):
    """(1 - soft Dice) + BCE; scalar Tensor."""
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=logits.dtype))
    if target.shape != logits.shape:
        raise ValueError(f"seg_loss: target {target.shape} != logits {logits.shape}")
    one = Tensor(np.asarray(1.0, dtype=logits.dtype))
    dice_term = T.sub(one, soft_dice(logits, target))
    bce_term = T.bce_with_logits(logits, target)
    return T.add(dice_term, bce_term)


# ---------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------

class SgdState:
    """Per-parameter velocity buffers, keyed by parameter name."""

    def __init__(self):
        self.velocity = {}

    def vel(self, name, like):
        v = self.velocity.get(name)
        if v is None:
            v = np.zeros_like(like)
            self.velocity[name] = v
        return v


def sgd_update(p, g, v, lr, momentum, weight_decay):
    """One parameter's step, in place: v <- mu*v + (g + wd*theta); theta -= lr*v.

    Adding 0.0 turns a -0.0 in g + wd*theta into +0.0, as the first flow
    into a zero .grad buffer (0 + g) does, so the step is the same bits
    whether g comes from that buffer or straight from backward.
    """
    v *= momentum
    d = g + weight_decay * p.data
    d += 0.0
    v += d
    p.data -= lr * v


def sgd_step(named_params, state, lr, momentum=TrainConfig.momentum,
             weight_decay=TrainConfig.weight_decay):
    """g' = g + wd*theta;  v <- mu*v + g';  theta <- theta - lr*v  (in place)."""
    for name, p in named_params:
        g = p.grad
        if g is None or not p.requires_grad:
            raise ValueError(f"sgd: missing gradient for parameter {name!r}")
        sgd_update(p, g, state.vel(name, p.data), lr, momentum, weight_decay)


# ---------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------

def augment(image, mask, rng, cfg):
    """Intensity scale/shift on the image only, plus paired random flips.

    The mask is never intensity-altered; flips apply to both identically,
    so the foreground pixel count is invariant. With invert_prob > 0 the
    image contrast is flipped (1 - x) on some draws, which teaches a model
    trained on one intensity polarity to tolerate the opposite one.

    Every possible draw is taken on every call, in a fixed order, so the
    random stream consumed per sample does not depend on the outcomes.
    """
    s = rng.uniform(*SCALE_RANGE)
    t = rng.uniform(*SHIFT_RANGE)
    img = np.clip(image * s + t, 0.0, 1.0).astype(np.float32)
    msk = mask
    if rng.uniform() < cfg.invert_prob:
        img = (1.0 - img).astype(np.float32)
    if rng.uniform() < FLIP_PROB:
        img, msk = img[:, ::-1], msk[:, ::-1]
    if rng.uniform() < FLIP_PROB:
        img, msk = img[::-1, :], msk[::-1, :]
    return np.ascontiguousarray(img), np.ascontiguousarray(msk)


# ---------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------

def train(model, root, samples, cfg, out_dir=None, log=None):
    """Train in place; returns the loss-log rows.

    samples: the (already filtered) training samples. Writes
    out_dir/loss_log.csv and out_dir/checkpoint/ when out_dir is given.
    Raises NumericError the moment the loss stops being finite, and before
    anything is written if a parameter holds a non-finite value after the
    last update (a finite loss can still carry a NaN gradient).

    Each parameter takes its SGD step (sgd_update) inside backward, as soon
    as its gradient is complete, and one that no flow reached takes the
    zero-gradient step after it; so no gradient buffer is ever allocated,
    and each op's saved arrays are freed as backward passes it.
    """
    cfg.validate()
    if not samples:
        raise ValueError("train: empty sample list")
    loaded = [load_sample(root, s) for s in samples]
    mcfg = model.cfg
    state = SgdState()
    params = model.named_params()

    def step(p, g):
        name = unreached.pop(p)
        sgd_update(p, g, state.vel(name, p.data), lr, cfg.momentum, cfg.weight_decay)

    rows = [("iteration", "epoch", "lr", "loss")]
    iteration = 0
    for epoch in range(cfg.epochs):
        lr = poly_lr(cfg.lr0, epoch, cfg.epochs)
        order_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _ORDER_TAG, epoch]))
        order = order_rng.permutation(len(loaded))
        for start in range(0, len(order), cfg.batch):
            idxs = order[start:start + cfg.batch]
            xc_b, xs_b, tgt_b = [], [], []
            for i in idxs:
                img, msk = loaded[i]
                if cfg.augment:
                    arng = np.random.default_rng(
                        np.random.SeedSequence([cfg.seed, epoch, int(i)]))
                    img, msk = augment(img, msk, arng, cfg)
                xc, xs = make_views(img, mcfg)
                if msk.shape[0] != mcfg.x_c:
                    msk = nearest_resize(msk, mcfg.x_c)
                xc_b.append(xc)
                xs_b.append(xs)
                tgt_b.append(msk[None, None])
            logits = model.forward(np.concatenate(xc_b), np.concatenate(xs_b))
            loss = seg_loss(logits, np.concatenate(tgt_b))
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise NumericError(
                    f"non-finite loss {loss_val} at iteration {iteration + 1} "
                    f"(epoch {epoch}, lr {lr:g})")
            unreached = {p: name for name, p in params}
            loss.backward(step)
            del logits, loss        # free this step's graph before the next forward
            for p, name in unreached.items():
                sgd_update(p, np.zeros_like(p.data), state.vel(name, p.data), lr,
                           cfg.momentum, cfg.weight_decay)
            # no buffer to clear unless the caller made one; the benchmark's
            # tracer (bench/tracing.py) ends an iteration at this call
            model.zero_grad()
            iteration += 1
            rows.append((iteration, epoch, repr(float(lr)), repr(loss_val)))
            if log is not None and iteration % 25 == 0:
                log(f"iter {iteration:5d} epoch {epoch:3d} lr {lr:.3e} loss {loss_val:.4f}")
    for name, p in params:
        if not np.isfinite(p.data).all():
            raise NumericError(
                f"non-finite values in parameter {name!r} after iteration {iteration}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_loss_log(rows, os.path.join(out_dir, "loss_log.csv"))
        save_checkpoint(model, os.path.join(out_dir, "checkpoint"),
                        epoch=cfg.epochs, seed=cfg.seed)
    return rows


def write_loss_log(rows, path):
    with open(path, "w") as f:
        for r in rows:
            f.write(",".join(str(c) for c in r) + "\n")
