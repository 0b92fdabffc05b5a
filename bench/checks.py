"""Output checks computed apart from the program under test.

Nothing here imports braidseg. Every check takes plain numbers or numpy
arrays and returns a list of failure messages (empty when it passes), so
the same function serves the workloads and its own self-test, which feeds
it a deliberately wrong answer and requires at least one failure.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------
# independent readers and scores
# ---------------------------------------------------------------------

def read_pgm(path):
    """Minimal binary PGM (P5, maxval 255, no comments) reader -> uint8 [H, W]."""
    with open(path, "rb") as f:
        raw = f.read()
    parts = raw.split(maxsplit=4)
    if len(parts) < 5 or parts[0] != b"P5" or parts[3] != b"255":
        raise ValueError(f"{path}: not a P5 PGM with maxval 255")
    w, h = int(parts[1]), int(parts[2])
    pixels = raw[len(raw) - w * h:]
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def dice(pred, gt):
    """2|P and G| / (|P| + |G|) over binary masks; 1.0 when both are empty."""
    p = np.asarray(pred) > 0.5
    g = np.asarray(gt) > 0.5
    total = int(p.sum()) + int(g.sum())
    return 1.0 if total == 0 else 2.0 * int((p & g).sum()) / total


def mean_pct(values):
    return 100.0 * float(np.mean(np.asarray(values, dtype=np.float64)))


# ---------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------

def check_loss_rows(rows, iterations, iters_per_epoch):
    """rows: [(iteration, epoch, lr, loss)] without the header."""
    errs = []
    if len(rows) != iterations:
        errs.append(f"loss log has {len(rows)} rows, expected {iterations}")
    losses = [float(r[3]) for r in rows]
    bad = [i + 1 for i, v in enumerate(losses) if not math.isfinite(v)]
    if bad:
        errs.append(f"non-finite loss at iterations {bad[:5]}")
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        errs.append("loss log iterations are not 1..N in order")
    if len(losses) >= 2 * iters_per_epoch and not bad:
        first = float(np.mean(losses[:iters_per_epoch]))
        last = float(np.mean(losses[-iters_per_epoch:]))
        if not last < first:
            errs.append(f"last epoch mean loss {last:.4g} is not below the first's {first:.4g}")
    return errs


def check_dice_floor(masks, gts, floor):
    score = float(np.mean([dice(m, g) for m, g in zip(masks, gts)]))
    if not score >= floor:
        return [f"mean Dice {score:.4f} below {floor}"]
    return []


def check_masks(masks, shapes):
    """Masks hold only 0 and 1 and have the image's native extent."""
    errs = []
    for i, (m, shape) in enumerate(zip(masks, shapes)):
        m = np.asarray(m)
        if m.shape != tuple(shape):
            errs.append(f"mask {i}: shape {m.shape} != image shape {tuple(shape)}")
        elif not np.isin(m, (0.0, 1.0)).all():
            errs.append(f"mask {i}: holds values other than 0 and 1")
    return errs


def check_report(report_rows, overall_pct, overall_n, groups, tol=1e-9):
    """report_rows: {(class, domain): (n, mean_pct)} as the program reported;
    groups: {(class, domain): [dice, ...]} as scored here."""
    errs = []
    if set(report_rows) != set(groups):
        errs.append(f"report groups {sorted(report_rows)} != scored groups {sorted(groups)}")
    for key in sorted(set(report_rows) & set(groups)):
        n, pct = report_rows[key]
        want = mean_pct(groups[key])
        if n != len(groups[key]) or abs(pct - want) > tol:
            errs.append(f"group {key}: reported n={n} mean={pct:.6f}%, "
                        f"scored n={len(groups[key])} mean={want:.6f}%")
    everything = [d for v in groups.values() for d in v]
    if overall_n != len(everything) or abs(overall_pct - mean_pct(everything)) > tol:
        errs.append(f"overall: reported n={overall_n} mean={overall_pct:.6f}%, "
                    f"scored n={len(everything)} mean={mean_pct(everything):.6f}%")
    return errs


def check_bitwise(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
        return [f"{what}: not bitwise equal"]
    return []


def check_batch_match(batched, singles, tol=1e-6):
    """Batched logits [B,1,H,W] against B single-image logits [1,1,H,W]."""
    single = np.concatenate(singles, axis=0)
    errs = []
    if batched.shape != single.shape:
        return [f"batched logits {batched.shape} != stacked singles {single.shape}"]
    diff = float(np.abs(batched.astype(np.float64) - single).max())
    if not diff <= tol:
        errs.append(f"batched vs single logits differ by {diff:.3g} > {tol}")
    flips = int(((batched > 0) != (single > 0)).sum())
    if flips:
        errs.append(f"batched vs single masks differ in {flips} pixels")
    return errs


def check_gradcheck_rows(rows, names, tol=1e-4):
    """rows: [(name, size, dir_err, probe_err)] from the program's audit."""
    errs = []
    got = [r[0] for r in rows]
    if got != list(names):
        missing = sorted(set(names) - set(got))
        errs.append(f"audit covers {len(got)} tensors, model has {len(names)} "
                    f"(missing {missing[:3]})")
    worst = [(r[0], max(r[2], r[3])) for r in rows if not max(r[2], r[3]) < tol]
    if worst:
        errs.append(f"{len(worst)} tensors at or above {tol}: {worst[:3]}")
    return errs


def check_directional(analytic, numeric, grad_norm, tol=1e-4):
    """Relative agreement of a directional derivative along a unit vector.

    Along a random direction the derivative can come out tiny by chance;
    below tol * |grad| it is judged against that floor, which is still far
    above the rounding noise of a float64 central difference.
    """
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), tol * grad_norm, 1e-300)
    if not err < tol:
        return [f"directional derivative: analytic {analytic:.9g} vs "
                f"central difference {numeric:.9g} (rel err {err:.2e} >= {tol})"]
    return []


# ---------------------------------------------------------------------
# self-tests: each check must reject a deliberately wrong answer
# ---------------------------------------------------------------------

def self_test():
    """Returns a list of problems; empty when every check behaves."""
    problems = []

    def expect(name, good, bad):
        if good:
            problems.append(f"{name}: rejects a correct answer: {good}")
        if not bad:
            problems.append(f"{name}: accepts a wrong answer")

    if dice([[1, 1], [0, 0]], [[1, 0], [0, 0]]) != 2.0 / 3.0 or dice([[0]], [[0]]) != 1.0:
        problems.append("dice: wrong value on a hand-computed case")

    rows = [(i + 1, i // 4, "0.01", repr(1.0 / (i + 1))) for i in range(200)]
    nan_row = rows[:7] + [(8, 1, "0.01", "nan")] + rows[8:]
    rising = [(r[0], r[1], r[2], repr(float(r[0]))) for r in rows]
    expect("loss rows (nan)", check_loss_rows(rows, 200, 4), check_loss_rows(nan_row, 200, 4))
    expect("loss rows (rising)", [], check_loss_rows(rising, 200, 4))
    expect("loss rows (short)", [], check_loss_rows(rows[:-1], 200, 4))

    rng = np.random.default_rng(0)
    gts = [(rng.random((32, 32)) > 0.5).astype(np.float32) for _ in range(4)]
    empty = [np.zeros_like(g) for g in gts]
    expect("dice floor", check_dice_floor(gts, gts, 0.95), check_dice_floor(empty, gts, 0.95))

    half = [g.copy() for g in gts]
    half[2][3, 3] = 0.5
    expect("masks binary", check_masks(gts, [(32, 32)] * 4), check_masks(half, [(32, 32)] * 4))
    expect("masks native size", [], check_masks(gts, [(64, 64)] * 4))

    groups = {("solid", "A"): [dice(g, g) for g in gts[:2]],
              ("solid", "B"): [dice(g, g) for g in gts[2:]]}
    flipped = [g.copy() for g in gts]
    flipped[1][0, 0] = 1.0 - flipped[1][0, 0]
    wrong = {("solid", "A"): [dice(f, g) for f, g in zip(flipped[:2], gts[:2])],
             ("solid", "B"): groups[("solid", "B")]}
    report = {k: (len(v), mean_pct(v)) for k, v in groups.items()}
    expect("evaluate report (flipped pixel)",
           check_report(report, 100.0, 4, groups), check_report(report, 100.0, 4, wrong))

    logits = rng.standard_normal((8, 1, 16, 16)).astype(np.float32)
    bitflip = logits.copy()
    bitflip.view(np.uint32)[0, 0, 0, 0] ^= 1
    expect("bitwise", check_bitwise(logits, logits.copy(), "logits"),
           check_bitwise(logits, bitflip, "logits"))

    singles = [logits[i:i + 1].copy() for i in range(8)]
    nudged = [s.copy() for s in singles]
    nudged[5][0, 0, 2, 2] += np.float32(1e-4)
    expect("batch match", check_batch_match(logits, singles), check_batch_match(logits, nudged))

    names = [f"t{i}" for i in range(5)]
    grows = [(n, 10, 1e-7, 1e-8) for n in names]
    off = grows[:3] + [("t3", 10, 2e-4, 1e-8)] + grows[4:]
    expect("gradcheck rows (error)", check_gradcheck_rows(grows, names),
           check_gradcheck_rows(off, names))
    expect("gradcheck rows (missing)", [], check_gradcheck_rows(grows[:-1], names))

    expect("directional (perturbed gradient)",
           check_directional(0.0123456, 0.0123456 * (1 + 1e-7), 1.0),
           check_directional(0.0123456 * (1 + 1e-3), 0.0123456, 1.0))
    return problems
