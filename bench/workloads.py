"""The three workloads: set-up, one measured round, and the output checks.

A workload object is made fresh for each run. setup() builds its inputs
from the seed in a directory of its own; round() performs one whole round
of the workload's operations and returns what it measured; check() judges
the outputs of the rounds with the independent checks in checks.py.
Everything the program sees is generated here from the seed.
"""

from __future__ import annotations

import importlib
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Program functions are called through their modules at call time, so the
# wrappers the traced run installs there see every call made from here.
import braidseg as bs
from braidseg import ModelConfig, TrainConfig
from braidseg import gradcheck as bs_gradcheck
from braidseg.data import make_views, select

import checks

# The gradient audit of the default config takes about 94 s, too long to
# repeat. This config keeps the default depth (m=3: nine windowed and three
# global transformer layers), all three forward and three feedback couplers
# (with their width-changing projections, C_c != C), every block kind and
# so the same 416 parameter tensors and 1,665 loss evaluations; only the
# widths and the image sides shrink. Its forward passes are bound by
# per-op overhead rather than arithmetic.
GRADCHECK_CFG = ModelConfig(m=3, C=12, C_c=8, C_d=8, heads=3, x_c=16, x_s=64, window=2,
                            rfin_count=3, dkin_count=3)

# criterion 4's overfit recipe: 8 paired 32 px phantoms, batch 2, 200 iterations
TRAIN_RECIPE = dict(epochs=50, batch=2, lr0=1e-2, momentum=0.9, augment=False)
TRAIN_ITERATIONS = 200


@dataclass
class Round:
    items: int              # items the round's main call processed
    seconds: float          # wall time of that call
    attempted: int          # operations attempted in the round
    item_seconds: list      # seconds per item, one entry per timed step of the call
    failed: int = 0
    out: dict = field(default_factory=dict)


@contextmanager
def stamped(module, attr):
    """Record time.perf_counter() at every return of module.attr in the block.

    The main call of each workload calls one program function once per step
    (seg_loss once per train iteration and per gradcheck loss evaluation,
    predict_mask once per evaluated image), so the gaps between stamps are
    whole steps. The wrapper adds one clock read per call, against steps
    of 10 ms and more.
    """
    owner = importlib.import_module(module)
    orig = getattr(owner, attr)
    stamps = []

    def wrapper(*args, **kwargs):
        out = orig(*args, **kwargs)
        stamps.append(time.perf_counter())
        return out

    setattr(owner, attr, wrapper)
    try:
        yield stamps
    finally:
        setattr(owner, attr, orig)


def gaps(stamps, items_per_step=1):
    return [(b - a) / items_per_step for a, b in zip(stamps, stamps[1:])]


def _dir_stats(path):
    files = [os.path.join(path, f) for f in os.listdir(path)]
    return len(files), sum(os.path.getsize(f) for f in files)


def _own_gt(root, sample):
    return (checks.read_pgm(os.path.join(root, sample.mask)) == 255).astype(np.float32)


def _own_image(root, sample):
    return checks.read_pgm(os.path.join(root, sample.image)).astype(np.float32) / 255.0


class TrainWorkload:
    """train() on criterion 4's recipe; writes the loss log and checkpoint."""

    name = "train"

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.rounds = 0

    def setup(self, where):
        samples = bs.generate_dataset(where, seed=self.seed, n_train=4, n_val=1, n_test=1,
                                      size=32, paired=True)
        self.root, self.samples = where, select(samples, split="train")
        self.model = bs.build_model(ModelConfig(), seed=self.seed)

    def round(self, tracer=None):
        # every round trains a fresh model; the first one comes from set-up
        model = self.model if self.model is not None else bs.build_model(ModelConfig(),
                                                                           seed=self.seed)
        self.model = None
        self.rounds += 1
        out_dir = os.path.join(self.work, f"run{self.rounds}")
        cfg = TrainConfig(seed=self.seed, **TRAIN_RECIPE)
        with stamped("braidseg.train", "seg_loss") as stamps:
            t0 = time.perf_counter()
            rows = bs.train(model, self.root, self.samples, cfg, out_dir=out_dir)
            wall = time.perf_counter() - t0
        iterations = len(rows) - 1
        return Round(items=iterations * cfg.batch, seconds=wall, attempted=iterations,
                     item_seconds=gaps(stamps, cfg.batch),
                     out=dict(model=model, rows=rows, out_dir=out_dir))

    @staticmethod
    def fingerprint(r):
        return r.out["rows"]

    def check(self, rounds):
        first = rounds[0].out
        rows = first["rows"][1:]
        errs = checks.check_loss_rows(rows, TRAIN_ITERATIONS, len(self.samples) // 2)
        with open(os.path.join(first["out_dir"], "loss_log.csv")) as f:
            logged = [tuple(line.rstrip("\n").split(",")) for line in f][1:]
        if logged != [tuple(str(c) for c in r) for r in rows]:
            errs.append("loss_log.csv differs from the rows train() returned")

        model = first["model"]
        images = [_own_image(self.root, s) for s in self.samples]
        gts = [_own_gt(self.root, s) for s in self.samples]
        masks = [bs.predict_mask(model, img) for img in images]
        errs += checks.check_masks(masks, [img.shape for img in images])
        errs += checks.check_dice_floor(masks, gts, 0.95)

        reloaded, _ = bs.load_checkpoint(os.path.join(first["out_dir"], "checkpoint"))
        xc, xs = make_views(images[0], model.cfg)
        errs += checks.check_bitwise(reloaded.forward(xc, xs).data, model.forward(xc, xs).data,
                                     "logits of the reloaded checkpoint")
        files, size = _dir_stats(os.path.join(first["out_dir"], "checkpoint"))
        return errs, {"data.ckpt_files": files, "data.ckpt_bytes": size}


class InferWorkload:
    """load_checkpoint, evaluate() over a 64 px split, predict_mask per image."""

    name = "infer"
    LOADS = 5

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.loaded = None      # the first round's reloaded model, for the checks

    def setup(self, where):
        # 60 geometries cycle through the three classes; paired renders each
        # in both domains: 120 images, 20 per (class, domain) group
        self.samples = bs.generate_dataset(where, seed=self.seed, n_train=0, n_val=0,
                                           n_test=60, size=64, paired=True)
        self.root = where
        self.model = bs.build_model(ModelConfig(), seed=self.seed)
        self.ckpt = os.path.join(where, "checkpoint")
        bs.save_checkpoint(self.model, self.ckpt, epoch=0, seed=self.seed)

    def prepare(self):
        """Inputs read back by the benchmark's own PGM reader (not timed)."""
        self.images = [_own_image(self.root, s) for s in self.samples]
        self.gts = [_own_gt(self.root, s) for s in self.samples]

    def round(self, tracer=None):
        for _ in range(self.LOADS):
            model, _ = bs.load_checkpoint(self.ckpt)
        if self.loaded is None:
            self.loaded = model
        if tracer is not None:
            tracer.discard_op()
        with stamped("braidseg.evaluate", "predict_mask") as stamps:
            t0 = time.perf_counter()
            report = bs.evaluate(model, self.root, self.samples)
            wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.discard_op()
        masks, predict_ms = [], []
        for img in self.images:
            t0 = time.perf_counter()
            masks.append(bs.predict_mask(model, img))
            predict_ms.append((time.perf_counter() - t0) * 1e3)
            if tracer is not None:
                tracer.end_op()
        n = len(self.samples)
        return Round(items=n, seconds=wall, attempted=self.LOADS + 2 * n,
                     item_seconds=gaps(stamps),
                     out=dict(report=report, masks=masks, predict_ms=predict_ms))

    @staticmethod
    def fingerprint(r):
        return r.out["report"].to_csv(), [m.tobytes() for m in r.out["masks"]]

    def batch8(self, model):
        views = [make_views(img, model.cfg) for img in self.images[:8]]
        return views, (np.concatenate([v[0] for v in views]),
                       np.concatenate([v[1] for v in views]))

    def traced_extras(self, tracer, rounds):
        """Per-image cost of one batch-8 forward, traced like the others."""
        _, (xc8, xs8) = self.batch8(self.loaded)
        tracer.discard_op()
        self.loaded.forward(xc8, xs8)
        per_image = tracer.cur["model.forward_ms"] / 8
        tracer.discard_op()
        return {"model.forward_b8_ms_per_image": per_image}

    def check(self, rounds):
        errs = []
        for r in rounds:
            out = r.out
            errs += checks.check_masks(out["masks"], [img.shape for img in self.images])
            groups = {}
            for s, m, g in zip(self.samples, out["masks"], self.gts):
                groups.setdefault((s.cls, s.domain), []).append(checks.dice(m, g))
            rep = out["report"]
            errs += checks.check_report({(row.cls, row.domain): (row.n, row.mean_pct)
                                         for row in rep.rows},
                                        rep.overall_mean_pct, rep.overall_n, groups)
        model = self.loaded
        for (name, p), (_, q) in zip(model.named_params(), self.model.named_params()):
            errs += checks.check_bitwise(p.data, q.data, f"reloaded tensor {name}")
        views, (xc8, xs8) = self.batch8(model)
        singles = [model.forward(xc, xs).data for xc, xs in views]
        errs += checks.check_bitwise(singles[0], self.model.forward(*views[0]).data,
                                     "logits of the reloaded model")
        errs += checks.check_batch_match(model.forward(xc8, xs8).data, singles)
        files, size = _dir_stats(self.ckpt)
        return errs, {"data.ckpt_files": files, "data.ckpt_bytes": size}


class GradcheckWorkload:
    """check_model() over GRADCHECK_CFG at float64 and batch 1."""

    name = "gradcheck"

    def __init__(self, seed, work):
        self.seed, self.work = seed, work

    def setup(self, where):
        # the benchmark's own float64 model, for its own finite difference
        model = bs.build_model(GRADCHECK_CFG, seed=self.seed, dtype=np.float64)
        for name, p in model.named_params():
            # zero-initialised tensors sit on kinks (leaky ReLU at 0, zero
            # variance instance norms); redraw them as check_model does
            if (p.init_kind or "zeros").partition(":")[0] == "zeros":
                rng = np.random.default_rng(np.random.SeedSequence(
                    [self.seed, 0xA1, zlib.crc32(name.encode("utf-8"))]))
                p.data = rng.normal(0.0, 0.02, size=p.shape)
        self.model = model

    def round(self, tracer=None):
        # the audit runs at seed 0, as `braidseg gradcheck` does: its
        # single-element probes can straddle an activation kink on other
        # seeds of this small config (see CHANGES.md); the benchmark's own
        # finite difference below varies with the seed instead
        with stamped("braidseg.train", "seg_loss") as stamps:
            t0 = time.perf_counter()
            rows, _, _ = bs_gradcheck.check_model(GRADCHECK_CFG, seed=0)
            wall = time.perf_counter() - t0
        evals = 1 + 4 * len(rows)      # one analytic pass, 2 directional + 2 probe per tensor
        return Round(items=evals, seconds=wall, attempted=evals,
                     item_seconds=gaps(stamps), out=dict(rows=rows))

    @staticmethod
    def fingerprint(r):
        return r.out["rows"]

    def check(self, rounds):
        names = [n for n, _ in self.model.named_params()]
        errs = []
        for r in rounds:
            errs += checks.check_gradcheck_rows(r.out["rows"], names)
        errs += self._directional()
        return errs, {}

    def _directional(self, h=1e-5):
        cfg, model = GRADCHECK_CFG, self.model
        params = [p for _, p in model.named_params()]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xBE]))
        xc = rng.uniform(0.0, 1.0, size=(1, 1, cfg.x_c, cfg.x_c))
        xs = rng.uniform(0.0, 1.0, size=(1, 1, cfg.x_s, cfg.x_s))
        cy, cx = rng.uniform(0.3, 0.7, size=2) * cfg.x_c
        yy, xx = np.mgrid[0:cfg.x_c, 0:cfg.x_c]
        target = (((yy - cy) ** 2 + (xx - cx) ** 2) < (cfg.x_c / 4) ** 2).astype(np.float64)
        target = target[None, None]

        def loss():
            return bs.seg_loss(model.forward(xc, xs), target)

        model.zero_grad()
        loss().backward()
        direction = [rng.standard_normal(p.shape) for p in params]
        norm = np.sqrt(sum(float((d * d).sum()) for d in direction))
        direction = [d / norm for d in direction]
        analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, direction))
        grad_norm = np.sqrt(sum(float((p.grad * p.grad).sum()) for p in params))
        keep = [p.data.copy() for p in params]
        values = []
        for sign in (1.0, -1.0):
            for p, k, d in zip(params, keep, direction):
                p.data = k + sign * h * d
            values.append(float(loss().data))
        for p, k in zip(params, keep):
            p.data = k
        numeric = (values[0] - values[1]) / (2.0 * h)
        return checks.check_directional(analytic, numeric, grad_norm)


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload, GradcheckWorkload)}
