"""Command-line entry point.

Subcommands: gen-data, train, eval, predict, gradcheck, ablate.
Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric failure
(non-finite loss, failed gradient check, or an impossible coupling plan).
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import sys

import numpy as np

from .data import (DataError, generate_dataset, load_checkpoint, load_manifest,
                   read_json, read_pgm, select, write_pgm)
from .evaluate import ablate, evaluate, predict_mask, write_report
from .fusion import CycleError
from .gradcheck import check_model
from .model import ModelConfig, build_model
from .train import NumericError, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; this tool reserves 2 for data errors.

    A negative number in exponent form (--weight-decay -1e-4) is read as a
    value, as -1 and -0.5 already are, so it reaches TrainConfig.validate.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config(path):
    if path is None:
        return ModelConfig()
    raw = read_json(path)
    try:
        return ModelConfig.from_dict(raw)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _default(fn, name):
    """The default of fn's parameter name: the parser restates none."""
    return inspect.signature(fn).parameters[name].default


def build_parser():
    p = _Parser(prog="braidseg",
                description="Two-branch coupled segmentation network, "
                            "synthetic data, training and evaluation.")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    g = sub.add_parser("gen-data", prog="braidseg gen-data",
                       help="generate a synthetic two-domain dataset")
    g.add_argument("--out", required=True, help="output dataset directory")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--train", type=int, default=60)
    g.add_argument("--val", type=int, default=12)
    g.add_argument("--test", type=int, default=24)
    g.add_argument("--size", type=int, default=_default(generate_dataset, "size"))
    g.add_argument("--paired", action="store_true",
                   help="render each geometry in both domains")
    g.add_argument("--domains", default=",".join(_default(generate_dataset, "domains")),
                   help="comma list of domains to render (default %(default)s)")

    t = sub.add_parser("train", prog="braidseg train",
                       help="train a model on a generated dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=None, help="model config JSON")
    t.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    t.add_argument("--batch", type=int, default=TrainConfig.batch)
    t.add_argument("--lr", type=float, default=TrainConfig.lr0)
    t.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    t.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    t.add_argument("--seed", type=int, default=TrainConfig.seed)
    t.add_argument("--domain", choices=("A", "B"), default=None,
                   help="restrict training samples to one domain")
    t.add_argument("--invert-aug", type=float, default=TrainConfig.invert_prob, metavar="P",
                   help="probability of contrast-inversion augmentation")

    e = sub.add_parser("eval", prog="braidseg eval",
                       help="evaluate a checkpoint, write a Dice report")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--split", choices=("train", "val", "test"), default="test")
    e.add_argument("--domain", choices=("A", "B"), default=None)
    e.add_argument("--report", required=True,
                   help="CSV output path; the text report is written beside it as .txt")

    r = sub.add_parser("predict", prog="braidseg predict",
                       help="segment a single image")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--image", required=True)
    r.add_argument("--out", required=True)

    c = sub.add_parser("gradcheck", prog="braidseg gradcheck",
                       help="finite-difference gradient audit of the model")
    c.add_argument("--config", default=None)
    c.add_argument("--eps", type=float, default=_default(check_model, "h"))
    c.add_argument("--tol", type=float, default=_default(check_model, "tol"))
    c.add_argument("--seed", type=int, default=_default(check_model, "seed"))

    a = sub.add_parser("ablate", prog="braidseg ablate",
                       help="coupling-count sweep over (rfin, dkin)")
    a.add_argument("--data", required=True)
    a.add_argument("--rfin", type=_int_list, default=[0, 1, 2, 3])
    a.add_argument("--dkin", type=_int_list, default=[1, 3, 6])
    a.add_argument("--out", required=True)
    a.add_argument("--config", default=None,
                   help="base model config JSON (depth must cover max dkin)")
    a.add_argument("--epochs", type=int, default=10,
                   help="reduced per-cell training budget")
    a.add_argument("--seed", type=int, default=0)
    return p


# ---------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------

def _cmd_gen_data(args):
    domains = tuple(tok for tok in args.domains.split(",") if tok)
    samples = generate_dataset(args.out, seed=args.seed, n_train=args.train,
                               n_val=args.val, n_test=args.test,
                               size=args.size, paired=args.paired,
                               domains=domains)
    counts = {}
    for s in samples:
        counts[s.split] = counts.get(s.split, 0) + 1
    pretty = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"wrote {len(samples)} samples under {args.out} ({pretty})")
    return EXIT_OK


def _cmd_train(args):
    cfg = _load_config(args.config)
    tcfg = TrainConfig(epochs=args.epochs, batch=args.batch, lr0=args.lr,
                       momentum=args.momentum, weight_decay=args.weight_decay,
                       seed=args.seed, invert_prob=args.invert_aug).validate()
    samples = select(load_manifest(args.data), split="train", domain=args.domain)
    if not samples:
        raise DataError(f"no training samples in {args.data}"
                        + (f" for domain {args.domain}" if args.domain else ""))
    model = build_model(cfg, seed=args.seed)
    n_params = sum(p.size for _, p in model.named_params())
    print(f"training on {len(samples)} samples, {n_params} parameters, "
          f"{tcfg.epochs} epochs")
    rows = train(model, args.data, samples, tcfg, out_dir=args.out, log=print)
    final = rows[-1][-1] if len(rows) > 1 else "n/a"
    print(f"done: {len(rows) - 1} iterations, final loss {final}; "
          f"checkpoint under {os.path.join(args.out, 'checkpoint')}")
    return EXIT_OK


def _cmd_eval(args):
    model, _ = load_checkpoint(args.ckpt)
    samples = select(load_manifest(args.data), split=args.split, domain=args.domain)
    if not samples:
        raise DataError(f"no samples match split={args.split} domain={args.domain}")
    report = evaluate(model, args.data, samples)
    out_dir, name = os.path.split(args.report)
    stem = name[:-len(".csv")] if name.endswith(".csv") else name
    csv_path, txt_path = write_report(report, out_dir or ".", stem)
    print(report.to_text(), end="")
    print(f"report written to {csv_path} and {txt_path}")
    return EXIT_OK


def _cmd_predict(args):
    model, _ = load_checkpoint(args.ckpt)
    img = read_pgm(args.image).astype(np.float32) / 255.0
    mask = predict_mask(model, img)
    write_pgm(args.out, (mask * 255.0).astype(np.uint8))
    cover = 100.0 * float(mask.mean())
    print(f"mask written to {args.out} ({cover:.1f}% foreground)")
    return EXIT_OK


def _cmd_gradcheck(args):
    cfg = _load_config(args.config)
    rows, max_err, seconds = check_model(cfg, seed=args.seed, h=args.eps,
                                         tol=args.tol, log=print)
    bad = [(name, max(e_dir, e_probe)) for name, _, e_dir, e_probe in rows
           if not max(e_dir, e_probe) < args.tol]   # the log's own test
    print(f"checked {len(rows)} parameter tensors in {seconds:.1f}s, "
          f"max relative error {max_err:.3e} (tol {args.tol:g})")
    if bad:
        for name, err in bad[:10]:
            print(f"  FAIL {name}: {err:.3e}", file=sys.stderr)
        raise NumericError(f"{len(bad)} parameter tensors exceed tolerance")
    print("gradient check passed")
    return EXIT_OK


def _cmd_ablate(args):
    cfg = _load_config(args.config)
    if args.config is None and args.dkin:
        # a cell needs m >= its dkin count; raise the default depth to fit
        cfg = ModelConfig(m=max(cfg.m, max(args.dkin)))
    samples = load_manifest(args.data)
    train_s = select(samples, split="train")
    val_s = select(samples, split="val")
    if not train_s or not val_s:
        raise DataError(f"{args.data}: need nonempty train and val splits")
    tcfg = TrainConfig(epochs=args.epochs, seed=args.seed)

    def budget(model):
        train(model, args.data, train_s, tcfg)

    table = ablate(args.data, val_s, cfg, args.rfin, args.dkin, budget,
                   seed=args.seed, log=print)
    csv_path, txt_path = write_report(table, args.out, "ablation")
    print(table.to_text(), end="")
    print(f"tables written to {csv_path} and {txt_path}")
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
    "ablate": _cmd_ablate,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("braidseg: error: a command is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError) as e:
        print(f"braidseg: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, CycleError) as e:
        print(f"braidseg: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"braidseg: error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
