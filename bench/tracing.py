"""Per-layer tracing of braidseg, installed from outside the package.

install() swaps public functions and methods in the braidseg modules for
timing wrappers and uninstall() puts the originals back; nothing inside
src/ knows about it. Two kinds of span are kept on separate stacks:

* layer spans (blocks, branches, train/evaluate/gradcheck phases): a
  layer's self time excludes its child layer spans only, so the tensor
  ops a layer calls directly count as its own work;
* op spans (the autodiff primitives): an op's forward time is its self
  time, so composite ops such as map_to_tokens hand their time to the
  transpose and reshape they call. The backward rule each op attaches to
  its result is wrapped where the result is made (tensor._make) and
  timed under the same op name.

Times accumulate per operation (one train iteration, one image forward,
one gradcheck loss evaluation); end_op() closes an operation and the
reported figure is the median over operations. Set-up and save calls
that happen once per workload call are kept per call instead.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

OPS = ("conv2d", "conv_transpose2d", "matmul", "softmax", "layer_norm",
       "instance_norm", "gelu", "sigmoid", "leaky_relu", "add", "add_bias",
       "transpose", "scale_channels")

PRIOR = ("embed", "window", "global", "neck")
DOMAIN = tuple(f"layer{j}" for j in range(1, 9)) + ("proj",)
FUSION = ("rfin", "dkin", "fuse")
DECODER = ("prompt", "twoway", "head")
TRAIN = ("input", "forward", "loss", "backward", "update", "save")
EVALUATE = ("predict", "dice", "self")


def metric_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for op in OPS + ("other",):
        units[f"tensor.{op}.fwd_ms"] = "ms"
        units[f"tensor.{op}.bwd_ms"] = "ms"
        units[f"tensor.{op}.calls"] = "count"
    units["tensor.graph_nodes"] = "count"
    for group, names in (("prior", PRIOR), ("domain", DOMAIN), ("fusion", FUSION),
                         ("decoder", DECODER), ("train", TRAIN), ("evaluate", EVALUATE)):
        for n in names:
            units[f"{group}.{n}_ms"] = "ms"
    units.update({
        "model.forward_ms": "ms", "model.plan_ms": "ms",
        "model.forward_b8_ms_per_image": "ms",
        "data.generate_ms": "ms", "data.load_sample_ms": "ms",
        "data.ckpt_save_ms": "ms", "data.ckpt_load_ms": "ms",
        "data.ckpt_files": "count", "data.ckpt_bytes": "count",
        "gradcheck.loss_evals": "count", "gradcheck.loss_eval_ms": "ms",
        "gradcheck.analytic_ms": "ms", "gradcheck.self_s": "s",
        "infer.predict_ms_p50": "ms", "infer.predict_ms_p90": "ms",
        "trace.overhead_pct": "%",
    })
    return units


class Tracer:
    def __init__(self):
        self.layers = []            # open layer spans: [start, child_seconds]
        self.ops = []               # open op spans: [name, start, child_seconds]
        self.cur = defaultdict(float)
        self.done = []              # closed operations
        self.calls = defaultdict(list)
        self.context = defaultdict(int)
        self.missing = []
        self.op_start = time.perf_counter()
        self._undo = []

    # -- operations ----------------------------------------------------
    def end_op(self):
        now = time.perf_counter()
        self.cur["op_wall_ms"] = (now - self.op_start) * 1e3
        self.done.append(self.cur)
        self.cur = defaultdict(float)
        self.op_start = now

    def discard_op(self):
        self.cur = defaultdict(float)
        self.op_start = time.perf_counter()

    # -- spans ---------------------------------------------------------
    def layer(self, fn, key, self_time=False, per_call=False, context=None):
        """Wrap fn in a layer span; key is a metric name or a callable of
        (args, kwargs) returning one (None: no metric for this call)."""
        tracer = self

        def wrapper(*args, **kwargs):
            name = key(args, kwargs) if callable(key) else key
            if context:
                tracer.context[context] += 1
            span = [time.perf_counter(), 0.0]
            tracer.layers.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - span[0]
                tracer.layers.pop()
                if tracer.layers:
                    tracer.layers[-1][1] += dur
                if context:
                    tracer.context[context] -= 1
                if name is not None:
                    ms = (dur - span[1] if self_time else dur) * 1e3
                    if per_call:
                        tracer.calls[name].append(ms)
                    else:
                        tracer.cur[name] += ms

        return wrapper

    def op(self, fn, name):
        tracer = self
        fwd, calls = f"tensor.{name}.fwd_ms", f"tensor.{name}.calls"

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0]
            tracer.ops.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - span[1]
                tracer.ops.pop()
                if tracer.ops:
                    tracer.ops[-1][2] += dur
                tracer.cur[fwd] += (dur - span[2]) * 1e3
                tracer.cur[calls] += 1

        return wrapper

    def make(self, orig):
        """Wrapper for tensor._make: counts graph nodes, times backward rules."""
        tracer = self

        def _make(data, parents, backward):
            out = orig(data, parents, backward)
            rule = getattr(out, "_backward", None)
            if rule is not None:
                tracer.cur["tensor.graph_nodes"] += 1
                key = f"tensor.{tracer.ops[-1][0] if tracer.ops else 'other'}.bwd_ms"

                def timed(g, seeds):
                    t0 = time.perf_counter()
                    try:
                        rule(g, seeds)
                    finally:
                        tracer.cur[key] += (time.perf_counter() - t0) * 1e3

                out._backward = timed
            return out

        return _make

    # -- patching ------------------------------------------------------
    def patch(self, owner, attr, build):
        """Replace owner.attr by build(original), everywhere the same
        function object is bound in a braidseg module; a missing target is
        recorded instead of failing the run."""
        orig = getattr(owner, attr, None)
        if orig is None or not callable(orig):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        new = build(orig)
        if isinstance(owner, type):
            self._undo.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, new)
            return
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "braidseg"]:
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, name, orig))
                    setattr(mod, name, new)

    def install(self):
        # the package re-exports functions named like their modules
        # (braidseg.train is the function), so fetch the modules themselves
        (T, blocks, data, decoder, domain, evaluate, fusion, gradcheck, model, prior,
         train) = (importlib.import_module(f"braidseg.{m}") for m in (
             "tensor", "blocks", "data", "decoder", "domain", "evaluate", "fusion",
             "gradcheck", "model", "prior", "train"))
        for name in T.__all__:
            if name != "Tensor":
                self.patch(T, name, lambda f, n=name: self.op(f, n if n in OPS else "other"))
        self.patch(T, "_make", self.make)

        lay = self.layer
        self.patch(prior.PriorBranch, "embed_tokens", lambda f: lay(f, "prior.embed_ms"))
        self.patch(prior.PriorBranch, "project", lambda f: lay(f, "prior.neck_ms"))
        self.patch(blocks.TransformerBlock, "forward", lambda f: lay(
            f, lambda a, k: "prior.global_ms" if getattr(a[0], "_window", 0) is None
            else "prior.window_ms"))
        self.patch(domain.DomainBranch, "forward_layer",
                   lambda f: lay(f, lambda a, k: f"domain.layer{a[1]}_ms"))
        self.patch(domain.DomainBranch, "project", lambda f: lay(f, "domain.proj_ms"))
        self.patch(fusion.RfinModule, "forward", lambda f: lay(f, "fusion.rfin_ms"))
        self.patch(fusion.DkinModule, "forward", lambda f: lay(f, "fusion.dkin_ms"))
        self.patch(fusion, "final_fuse", lambda f: lay(f, "fusion.fuse_ms"))
        self.patch(decoder.PromptEncoder, "forward", lambda f: lay(f, "decoder.prompt_ms"))
        self.patch(decoder.TwoWayLayer, "forward", lambda f: lay(f, "decoder.twoway_ms"))
        self.patch(decoder.MaskDecoder, "forward",
                   lambda f: lay(f, "decoder.head_ms", self_time=True))
        self.patch(model.BraidNet, "encode", lambda f: lay(f, "model.plan_ms", self_time=True))
        self.patch(model.BraidNet, "forward", lambda f: lay(f, self._forward_key))

        # training loop phases (train() binds these names in its own module)
        for attr in ("augment", "make_views", "nearest_resize"):
            self.patch(train, attr, lambda f: lay(
                f, lambda a, k: "train.input_ms" if self.context["train"] else None))
        update = lambda a, k: "train.update_ms" if self.context["train"] else None
        self.patch(train, "sgd_step", lambda f: lay(f, update))
        self.patch(blocks.Block, "zero_grad", lambda f: self._boundary(lay(f, update), "train"))
        self.patch(train, "seg_loss", lambda f: self._boundary(lay(f, self._loss_key), "gradcheck"))
        self.patch(T.Tensor, "backward", lambda f: lay(f, self._backward_key))
        self.patch(train, "write_loss_log", lambda f: lay(f, "train.loss_log_ms", per_call=True))
        self.patch(train, "train", lambda f: lay(f, None, context="train"))

        # data layer
        self.patch(data, "generate_dataset", lambda f: lay(f, "data.generate_ms", per_call=True))
        self.patch(data, "load_sample", lambda f: lay(f, "data.load_sample_ms", per_call=True))
        self.patch(data, "load_checkpoint", lambda f: lay(f, "data.ckpt_load_ms", per_call=True))
        self.patch(data, "save_checkpoint", lambda f: lay(f, "data.ckpt_save_ms", per_call=True))

        # evaluation: one operation per scored image
        self.patch(evaluate, "predict_mask", lambda f: lay(
            f, lambda a, k: "evaluate.predict_ms" if self.context["evaluate"] else None))
        self.patch(evaluate, "dice", lambda f: self._boundary(lay(
            f, lambda a, k: "evaluate.dice_ms" if self.context["evaluate"] else None),
            "evaluate"))
        self.patch(evaluate, "evaluate", lambda f: lay(f, None, context="evaluate"))

        # gradient audit: one operation per loss evaluation
        self.patch(gradcheck, "check_model",
                   lambda f: lay(f, "gradcheck.wall_ms", per_call=True, context="gradcheck"))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    # -- keys that depend on where a call happens ----------------------
    def _forward_key(self, args, kwargs):
        if self.context["gradcheck"]:
            return "gradcheck.forward_ms"
        if self.context["train"]:
            return "train.forward_ms"
        return "model.forward_ms"

    def _loss_key(self, args, kwargs):
        if self.context["gradcheck"]:
            return "gradcheck.loss_ms"
        return "train.loss_ms" if self.context["train"] else None

    def _backward_key(self, args, kwargs):
        if self.context["gradcheck"]:
            return "gradcheck.analytic_ms"
        return "train.backward_ms" if self.context["train"] else None

    def _boundary(self, wrapped, context):
        """Close an operation after wrapped returns, inside `context` only;
        a gradcheck loss evaluation closes when seg_loss returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            out = wrapped(*args, **kwargs)
            if tracer.context[context]:
                tracer.end_op()
            return out

        return wrapper


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def summarize(tracer):
    """Per-layer metric values (missing layers read 0) from a finished trace."""
    ops = tracer.done
    units = metric_units()
    out = {name: 0.0 for name in units}

    def per_op(name):
        return _median([o.get(name, 0.0) for o in ops])

    for name in units:
        if name.startswith(("tensor.", "prior.", "domain.", "fusion.", "decoder.")):
            out[name] = per_op(name)
    for phase in ("input", "forward", "loss", "backward", "update"):
        out[f"train.{phase}_ms"] = _median([o[f"train.{phase}_ms"] for o in ops
                                            if o.get("train.forward_ms")])
    # model.forward_ms: every forward the workload runs, whatever the caller
    out["model.forward_ms"] = _median([
        o.get("model.forward_ms", 0.0) + o.get("train.forward_ms", 0.0)
        + o.get("gradcheck.forward_ms", 0.0) for o in ops])
    out["model.plan_ms"] = per_op("model.plan_ms")

    ev = [o for o in ops if o.get("evaluate.predict_ms")]
    out["evaluate.predict_ms"] = _median([o["evaluate.predict_ms"] for o in ev])
    out["evaluate.dice_ms"] = _median([o["evaluate.dice_ms"] for o in ev])
    out["evaluate.self_ms"] = _median([o["op_wall_ms"] - o["evaluate.predict_ms"]
                                       - o["evaluate.dice_ms"] for o in ev])

    gc = [o for o in ops if o.get("gradcheck.loss_ms")]
    if gc:
        out["gradcheck.loss_eval_ms"] = _median([o["gradcheck.forward_ms"] + o["gradcheck.loss_ms"]
                                                 for o in gc])
        walls = tracer.calls["gradcheck.wall_ms"]
        calls = max(len(walls), 1)
        evals = len(gc) / calls
        spent = sum(o["gradcheck.forward_ms"] + o["gradcheck.loss_ms"] for o in gc) / calls
        analytic = sum(o.get("gradcheck.analytic_ms", 0.0) for o in ops) / calls
        out["gradcheck.loss_evals"] = evals
        out["gradcheck.analytic_ms"] = analytic
        out["gradcheck.self_s"] = (_median(walls) - spent - analytic) / 1e3

    for name in ("data.generate_ms", "data.load_sample_ms", "data.ckpt_save_ms",
                 "data.ckpt_load_ms"):
        out[name] = _median(tracer.calls.get(name, []))
    if tracer.calls.get("train.loss_log_ms"):
        # train() ends by writing its loss log and its checkpoint
        out["train.save_ms"] = _median(tracer.calls["train.loss_log_ms"]) + out["data.ckpt_save_ms"]
    return out
