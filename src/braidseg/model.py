"""Model configuration and the assembled two-branch network.

The fusion plan is static for a given (m, r, d), so BraidNet.encode runs
it as a plain loop in which each step updates one PlanState (fusion.py).
The loop can also start at any step from the state an earlier pass saved
before it; the gradient audit uses this to rerun only the steps a
perturbed parameter affects, which BraidNet.resume_steps finds through
the blocks each step reads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .blocks import Block, PatchEmbed, init_params
from .decoder import MaskDecoder, PromptEncoder
from .domain import DomainBranch
from .fusion import DkinModule, PlanState, RfinModule, build_plan
from .prior import PriorBranch
from .tensor import Tensor


@dataclass
class ModelConfig:
    """Architecture hyperparameters (the desk-scale defaults)."""

    m: int = 3
    C: int = 96
    C_c: int = 64
    C_d: int = 64
    heads: int = 3
    x_c: int = 32
    x_s: int = 128
    window: int = 4
    rfin_count: int = 3
    dkin_count: int = 3

    def validate(self):
        for f in ("m", "C", "C_c", "C_d", "heads", "x_c", "x_s", "window"):
            if getattr(self, f) < 1:
                raise ValueError(f"config: {f} must be >= 1, got {getattr(self, f)}")
        if self.x_s != 4 * self.x_c:
            raise ValueError(
                f"config: x_s must equal 4*x_c so the branch grids match "
                f"({PatchEmbed.PATCH}x downsampled tokens vs 4x downsampled conv map); "
                f"got x_s={self.x_s}, x_c={self.x_c}")
        if self.x_s % PatchEmbed.PATCH != 0:
            raise ValueError(f"config: x_s must be a multiple of the "
                             f"{PatchEmbed.PATCH}-pixel patch, got {self.x_s}")
        if self.grid % self.window != 0:
            raise ValueError(f"config: window {self.window} must divide token grid {self.grid}")
        if self.C % self.heads != 0:
            raise ValueError(f"config: C={self.C} not divisible by heads={self.heads}")
        if self.C_c % 2 != 0:
            raise ValueError(f"config: C_c must be even, got {self.C_c}")
        if self.C_d % 4 != 0:
            raise ValueError(f"config: C_d must be divisible by 4, got {self.C_d}")
        return self

    @property
    def grid(self):
        return self.x_s // PatchEmbed.PATCH

    @classmethod
    def from_dict(cls, d):
        """Validated config from a JSON object of ints; anything else,
        bools and floats included, raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"config: need an object of ints, got {d!r}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        for k, v in d.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"config: need an object of ints, got {k}={v!r}")
        return cls(**d).validate()


class BraidNet(Block):
    """Two-branch encoder + coupling plan + prompt-conditioned decoder."""

    def __init__(self, cfg):
        cfg.validate()
        # plan construction first: invalid wiring must fail before any
        # parameter exists (this is where the cycle error surfaces)
        plan = build_plan(cfg.m, cfg.rfin_count, cfg.dkin_count)
        self.patch_prior = PriorBranch(cfg)
        self.conv_domain = DomainBranch(cfg)
        self.rfins = [RfinModule(cfg.C, cfg.C_c) for _ in range(cfg.rfin_count)]
        self.dkins = [DkinModule(cfg.C_c, cfg.C) for _ in range(cfg.dkin_count)]
        self.prompt = PromptEncoder(cfg.C_d)
        self.decoder = MaskDecoder(cfg.C_d)
        self.cfg = cfg
        self.plan = plan

    @property
    def dtype(self):
        """The parameters' precision, read from them."""
        return self.patch_prior.embed.w.dtype

    def forward(self, x_c, x_s):
        """x_c [B,1,x_c,x_c], x_s [B,1,x_s,x_s] arrays -> logits [B,1,x_c,x_c]."""
        return self.decode(self.encode(x_c, x_s))

    def decode(self, fused):
        """Fused [B,C_d,g,g] map -> logits under the whole-image box prompt."""
        return self.decoder.forward(fused, self.prompt.forward(fused.shape[0]))

    def encode(self, x_c, x_s, state=None, saved=None):
        """Run both branches under the plan; returns the fused [B,C_d,g,g] map.

        The loop starts at step 0 on the embedded inputs or, given a `state`
        that an earlier pass saved, at the step it was saved before; x_c and
        x_s are then not read. When `saved` is a list, a copy of the state
        before each step this pass runs is appended to it.
        """
        if state is None:
            x_c = self._as_input(x_c, self.cfg.x_c, "x_c")
            x_s = self._as_input(x_s, self.cfg.x_s, "x_s")
            state = PlanState(0, self.patch_prior.embed_tokens(x_s), x_c, {}, {}, {})
        else:                                # copied: a state is resumed many times
            state = state.copy()
        for state.k, step in enumerate(self.plan.steps[state.k:], state.k):
            if saved is not None:
                saved.append(state.copy())
            fused = step.run(self, state)
        return fused

    def resume_steps(self):
        """Map each parameter name to the index of the first step that reads it.

        Perturbing a parameter leaves the output of every earlier step
        unchanged, so a forward pass can resume there from the state an
        unperturbed pass saved. Each step's blocks(net) claim their
        parameters by identity. The prompt encoder and the decoder run after
        the plan and map to len(plan.steps); what no step claims, the
        embedding, maps to None (run the whole forward).
        """
        steps = self.plan.steps
        first = {}
        for k, step in enumerate(steps):
            for block in step.blocks(self):
                for _, p in block.named_params():
                    first.setdefault(p, k)
        for _, p in self.prompt.named_params() + self.decoder.named_params():
            first.setdefault(p, len(steps))
        return {name: first.get(p) for name, p in self.named_params()}

    def _as_input(self, x, extent, name):
        if isinstance(x, Tensor):
            x = x.data
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2] != extent or x.shape[3] != extent:
            raise ValueError(f"{name}: expected [B,1,{extent},{extent}], got {x.shape}")
        return Tensor(x)


def build_model(cfg, seed=0, dtype=np.float32):
    """Construct a BraidNet and draw its parameters at `dtype` in one pass
    (init_params). Values depend only on (seed, parameter name), so an
    (r=0, d=0) model shares the bits of every parameter it has with a
    fully coupled one.
    """
    net = BraidNet(cfg)
    init_params(net, seed, dtype)
    return net
