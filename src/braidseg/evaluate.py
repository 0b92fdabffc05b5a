"""Evaluation and ablation: Dice scoring, grouped reporting, config sweeps.

Conventions (also stated in every report footer):
  * predictions binarize at probability 0.5 (sigmoid of the logit),
  * Dice of two empty masks is 1.0,
  * std is the population standard deviation (ddof = 0),
  * scores are reported in percent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .data import CLASSES, DOMAINS, load_sample, make_views, nearest_resize
from .model import build_model
from .tensor import no_grad, sigmoid_np


def dice(pred, gt):
    """2|P∩G| / (|P|+|G|); 1.0 when both masks are empty."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"dice: extent mismatch {pred.shape} vs {gt.shape}")
    p = pred > 0.5
    g = gt > 0.5
    total = int(p.sum()) + int(g.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / total


def predict_mask(model, image):
    """Binary mask at the image's native resolution."""
    xc, xs = make_views(image, model.cfg)
    with no_grad():
        logits = model.forward(xc, xs)
    prob = sigmoid_np(logits.data[0, 0])
    mask = (prob > 0.5).astype(np.float32)
    if mask.shape[0] != image.shape[0]:
        mask = nearest_resize(mask, image.shape[0])
    return mask


@dataclass
class EvalRow:
    cls: str
    domain: str
    n: int
    mean_pct: float
    std_pct: float


@dataclass
class EvalReport:
    rows: list
    overall_mean_pct: float
    overall_n: int

    def to_csv(self):
        lines = ["class,domain,n,dice_mean_pct,dice_std_pct"]
        for r in self.rows:
            lines.append(f"{r.cls},{r.domain},{r.n},{r.mean_pct:.4f},{r.std_pct:.4f}")
        lines.append(f"all,all,{self.overall_n},{self.overall_mean_pct:.4f},")
        return "\n".join(lines) + "\n"

    def to_text(self):
        header = f"{'class':<8} {'domain':<6} {'n':>4} {'dice mean %':>12} {'dice std %':>11}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{r.cls:<8} {r.domain:<6} {r.n:>4} "
                         f"{r.mean_pct:>12.2f} {r.std_pct:>11.2f}")
        lines.append("-" * len(header))
        lines.append(f"{'all':<8} {'all':<6} {self.overall_n:>4} "
                     f"{self.overall_mean_pct:>12.2f} {'':>11}")
        lines.append("")
        lines.append("threshold 0.5; empty-vs-empty dice = 1.0; std uses ddof=0; "
                     "scores in percent")
        return "\n".join(lines) + "\n"


def per_sample_dice(model, root, samples):
    scores = []
    for s in samples:
        img, gt = load_sample(root, s)
        pred = predict_mask(model, img)
        scores.append((s, dice(pred, gt)))
    return scores


def evaluate(model, root, samples):
    """Per-sample Dice grouped into (class, domain) rows, canonical order."""
    if not samples:
        raise ValueError("evaluate: empty selection")
    scored = per_sample_dice(model, root, samples)
    groups = {}
    for s, d in scored:
        groups.setdefault((s.cls, s.domain), []).append(d)
    rows = []
    for cls in CLASSES:
        for dom in DOMAINS:
            vals = groups.get((cls, dom))
            if not vals:
                continue
            arr = np.asarray(vals, dtype=np.float64)
            rows.append(EvalRow(cls, dom, len(vals),
                                100.0 * float(arr.mean()),
                                100.0 * float(arr.std(ddof=0))))
    all_scores = np.asarray([d for _, d in scored], dtype=np.float64)
    return EvalReport(rows, 100.0 * float(all_scores.mean()), len(all_scores))


# ---------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------

@dataclass
class AblationCell:
    rfin: int
    dkin: int
    mean_dice_pct: float = float("nan")
    status: str = "ok"          # ok | invalid
    note: str = ""


def ablate(root, val_samples, base_cfg, rfin_values, dkin_values, train_fn,
           seed=0, log=None):
    """Sweep (rfin, dkin) over the grid, identical seed and budget per cell.

    train_fn(model) runs the fixed training budget in place. A cell whose
    plan cannot be built (coupling cycle) is kept in the table, marked
    invalid, with the constructor's reason. A (0,0) row is appended as a
    no-coupling baseline.
    """
    cells = [(r, d) for r in rfin_values for d in dkin_values]
    if (0, 0) not in cells:
        cells.append((0, 0))
    table = []
    for r, d in cells:
        cell = AblationCell(r, d)
        try:
            cfg = replace(base_cfg, rfin_count=r, dkin_count=d).validate()
            model = build_model(cfg, seed=seed)
        except ValueError as e:            # CycleError is a ValueError
            cell.status = "invalid"
            cell.note = str(e)
            table.append(cell)
            continue
        if log is not None:
            log(f"ablate: training rfin={r} dkin={d}")
        train_fn(model)
        report = evaluate(model, root, val_samples)
        cell.mean_dice_pct = report.overall_mean_pct
        if (r, d) == (base_cfg.rfin_count, base_cfg.dkin_count):
            cell.note = "default config"
        table.append(cell)
    return table


def ablation_csv(table):
    lines = ["rfin,dkin,mean_dice_pct,status,note"]
    for c in table:
        mean = "" if np.isnan(c.mean_dice_pct) else f"{c.mean_dice_pct:.4f}"
        lines.append(f"{c.rfin},{c.dkin},{mean},{c.status},{c.note}")
    return "\n".join(lines) + "\n"


def ablation_text(table):
    header = f"{'rfin':>4} {'dkin':>4} {'mean dice %':>12}  note"
    lines = [header, "-" * len(header)]
    for c in table:
        mean = "invalid" if c.status != "ok" else f"{c.mean_dice_pct:.2f}"
        lines.append(f"{c.rfin:>4} {c.dkin:>4} {mean:>12}  {c.note}")
    return "\n".join(lines) + "\n"


def write_report(report, out_dir, stem):
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, stem + ".csv")
    txt_path = os.path.join(out_dir, stem + ".txt")
    with open(csv_path, "w") as f:
        f.write(report.to_csv())
    with open(txt_path, "w") as f:
        f.write(report.to_text())
    return csv_path, txt_path
