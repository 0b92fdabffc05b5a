"""Cross-branch couplers and the interleaved execution plan.

Two directed coupler families connect the branches:

* forward couplers (token branch -> conv branch): the output of global
  token layer i is reshaped to a map, passed through a 1x1 conv to the
  conv-branch width, instance-normalized and LeakyReLU-gated; the result
  is added to conv layer j's output. Pairs, in order: (m,3), (2m,4),
  (3m,5); an ablation count r in 0..3 keeps the first r of them.

* feedback couplers (conv branch -> token branch): a conv layer output
  passes through a 1x1 conv to the token width (built even when the
  widths already match, so that it starts at zero), is reshaped to
  tokens and layer-normalized, and joins the attention residual of a
  late token layer. With d sites they attach to token layers
  {4m-d+1 .. 4m}, sources cycling 8,7,6,8,7,6,... backwards from the
  last layer, which reproduces the reference wiring (6,7,8 ->
  4m-2,4m-1,4m) at d=3.

Both coupler output projections are zero-initialized, so a freshly built
model computes exactly the two independent branches.

The plan is a static step list in which every step is one layer of
either branch, one coupler, or the final element-wise fuse of the two
projected maps. Each step kind states once what it does: run(net, state)
runs it on a BraidNet and a PlanState, and lines(run) renders it in
trace(). So run() alone states which parameters a step reads; the
gradient audit reads that off a recorded pass (gradcheck.resume_states).
A forward coupler directly follows its source layer; a feedback coupler
comes before the prior layers that lead up to its target. Scheduling
requires every feedback target to come after the last forward-coupler
source (3m < 4m-d+1, i.e. d <= m); otherwise construction fails with an
error naming the layers on the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby

from . import tensor as T
from .blocks import Block, Conv, InstanceNorm, LayerNorm
from .domain import N_LAYERS

RFIN_TABLE = ((1, 3), (2, 4), (3, 5))       # (prior multiple of m, domain layer)
DKIN_SOURCES = (8, 7, 6)                    # cycled backwards from layer 4m


class CycleError(ValueError):
    """Raised when the requested wiring cannot be scheduled acyclically."""


class RfinModule(Block):
    """Forward coupler: token tap -> conv-width map (zero-initialized)."""

    def __init__(self, c, c_c):
        self.proj = Conv(c, c_c, 1, init="zeros")
        self.norm = InstanceNorm(c_c)

    def forward(self, tap_tokens):
        h = T.tokens_to_map(tap_tokens)
        h = self.proj.forward(h)
        return T.leaky_relu(self.norm.forward(h))


class DkinModule(Block):
    """Feedback coupler: conv map -> layer-normalized tokens.

    The zero-initialised 1x1 projection is built even when C_c == C, where
    it is not needed to align the widths: without it a fresh model would
    inject LN(fmap) from the start. The target transformer layer adds the
    result to its attention residual.
    """

    def __init__(self, c_c, c):
        self.proj = Conv(c_c, c, 1, init="zeros")
        self.ln = LayerNorm(c)

    def forward(self, fmap):
        return self.ln.forward(T.map_to_tokens(self.proj.forward(fmap)))


# ---------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------

@dataclass
class PlanState:
    """BraidNet.encode's loop state before plan step k; after the last
    step (k = len(plan.steps)) it also holds the fused map."""

    k: int
    tokens: T.Tensor
    dmap: T.Tensor
    domain_out: dict                        # domain layer outputs by layer
    to_domain: dict                         # pending coupler outputs by target layer
    to_prior: dict                          # pending coupler outputs by target layer
    fused: T.Tensor = None

    def copy(self):                         # the same tensors in fresh dicts
        return replace(self, domain_out=dict(self.domain_out),
                       to_domain=dict(self.to_domain), to_prior=dict(self.to_prior))


class Step:
    """Base of the step kinds: trace() renders a run of consecutive steps
    of one kind as lines(run), by default one formatted `line` per step."""

    @classmethod
    def lines(cls, run):
        return [cls.line.format(s) for s in run]


@dataclass(frozen=True)
class RunPrior(Step):
    i: int

    def run(self, net, state):
        state.tokens = net.patch_prior.forward_layer(
            self.i, state.tokens, state.to_prior.pop(self.i, None))

    @classmethod
    def lines(cls, run):                    # consecutive prior layers share a line
        return [f"prior[{run[0].i}..{run[-1].i}]"]


@dataclass(frozen=True)
class RunDomain(Step):
    j: int
    line = "domain[{0.j}]"

    def run(self, net, state):
        state.dmap = state.domain_out[self.j] = net.conv_domain.forward_layer(
            self.j, state.dmap, state.to_domain.pop(self.j, None))


@dataclass(frozen=True)
class ApplyRfin(Step):
    idx: int
    src_prior: int
    dst_domain: int
    line = "rfin[{0.idx}]: prior[{0.src_prior}] -> domain[{0.dst_domain}]"

    def run(self, net, state):              # directly after its source layer
        state.to_domain[self.dst_domain] = net.rfins[self.idx].forward(state.tokens)


@dataclass(frozen=True)
class ApplyDkin(Step):
    idx: int
    src_domain: int
    dst_prior: int
    line = "dkin[{0.idx}]: domain[{0.src_domain}] -> prior[{0.dst_prior}]"

    def run(self, net, state):
        state.to_prior[self.dst_prior] = net.dkins[self.idx].forward(
            state.domain_out[self.src_domain])


@dataclass(frozen=True)
class FinalFuse(Step):
    line = "fuse"

    def run(self, net, state):
        state.fused = final_fuse(net.patch_prior.project(state.tokens),
                                 net.conv_domain.project(state.dmap))


class FusionPlan:
    """Static interleaving of the two branches for given (m, r, d)."""

    def __init__(self, m, rfin_count, dkin_count):
        if m < 1:
            raise ValueError(f"plan: m must be >= 1, got {m}")
        if not (0 <= rfin_count <= len(RFIN_TABLE)):
            raise ValueError(f"plan: forward coupler count must be 0..3, got {rfin_count}")
        if dkin_count < 0:
            raise ValueError(f"plan: feedback coupler count must be >= 0, got {dkin_count}")
        self.m = m
        self.rfin_count = rfin_count
        self.dkin_count = dkin_count
        self.rfin_pairs = [(k * m, j) for k, j in RFIN_TABLE[:rfin_count]]
        targets = list(range(4 * m - dkin_count + 1, 4 * m + 1))
        sources = [DKIN_SOURCES[i % 3] for i in range(dkin_count)]   # from 4m backwards
        self.dkin_pairs = list(zip(sources[::-1], targets))          # ascending targets
        if dkin_count and targets[0] <= 3 * m:
            raise CycleError(
                f"cyclic wiring: feedback target prior layer {targets[0]} does not come "
                f"after forward-coupler source prior layer {3 * m} "
                f"(prior {targets[0]} needs domain {self.dkin_pairs[0][0]}, which needs "
                f"domain 3..5, which needs prior {3 * m} >= {targets[0]}); requires d <= m")
        self.steps = self._build()

    def _build(self):
        # by construction each layer runs once, in order; couplers go source -> target
        steps = []
        done = {RunPrior: 0, RunDomain: 0}      # layers run so far, by branch

        def run_through(kind, last):
            while done[kind] < last:
                done[kind] += 1
                steps.append(kind(done[kind]))

        for k, (mult, dst) in enumerate(RFIN_TABLE):
            run_through(RunPrior, mult * self.m)
            if k < self.rfin_count:
                steps.append(ApplyRfin(k, mult * self.m, dst))
            run_through(RunDomain, dst)

        for idx, (src, tgt) in enumerate(self.dkin_pairs):
            run_through(RunDomain, src)
            steps.append(ApplyDkin(idx, src, tgt))
            run_through(RunPrior, tgt)

        run_through(RunDomain, N_LAYERS)
        run_through(RunPrior, 4 * self.m)
        steps.append(FinalFuse())
        return steps

    def trace(self):
        """Deterministic text rendering of the schedule: one line per step,
        except that each run of consecutive prior layers shares one line."""
        lines = [ln for kind, run in groupby(self.steps, type) for ln in kind.lines(list(run))]
        return "\n".join(lines) + "\n"


def build_plan(m, rfin_count, dkin_count):
    return FusionPlan(m, rfin_count, dkin_count)


def final_fuse(prior_map, domain_map):
    """Element-wise addition of the two decoder-width maps."""
    return T.add(prior_map, domain_map)
