"""Coupling plan: pair tables, schedule legality, the zero identity, batch
invariance of the coupled model."""

import ast
import numpy as np
import pytest
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from braidseg.blocks import init_params
from braidseg.domain import N_LAYERS
from braidseg import fusion
from braidseg.fusion import (ApplyDkin, ApplyRfin, CycleError, FinalFuse,
                             RunDomain, RunPrior, build_plan)
from braidseg.model import ModelConfig, build_model
from test_decoder import GRADCHECK_CFG

GOLDEN_TRACE_M3 = """\
prior[1..3]
rfin[0]: prior[3] -> domain[3]
domain[1]
domain[2]
domain[3]
prior[4..6]
rfin[1]: prior[6] -> domain[4]
domain[4]
prior[7..9]
rfin[2]: prior[9] -> domain[5]
domain[5]
domain[6]
dkin[0]: domain[6] -> prior[10]
prior[10..10]
domain[7]
dkin[1]: domain[7] -> prior[11]
prior[11..11]
domain[8]
dkin[2]: domain[8] -> prior[12]
prior[12..12]
fuse
"""


class TestPairTables:
    def test_reference_wiring_m3(self):
        plan = build_plan(3, 3, 3)
        assert plan.rfin_pairs == [(3, 3), (6, 4), (9, 5)]
        assert plan.dkin_pairs == [(6, 10), (7, 11), (8, 12)]

    def test_forward_pairs_scale_with_depth(self):
        plan = build_plan(6, 3, 3)
        assert plan.rfin_pairs == [(6, 3), (12, 4), (18, 5)]
        assert plan.dkin_pairs == [(6, 22), (7, 23), (8, 24)]

    def test_reduced_counts_take_pair_prefixes(self):
        assert build_plan(3, 1, 1).rfin_pairs == [(3, 3)]
        assert build_plan(3, 2, 1).rfin_pairs == [(3, 3), (6, 4)]
        assert build_plan(3, 0, 1).rfin_pairs == []
        assert build_plan(3, 0, 1).dkin_pairs == [(8, 12)]

    def test_feedback_sources_cycle_backwards_from_the_top(self):
        """Six feedback sites at m=6 reuse sources 8,7,6 twice; read in
        ascending target order the sources run 6,7,8,6,7,8."""
        plan = build_plan(6, 3, 6)
        assert plan.dkin_pairs == [(6, 19), (7, 20), (8, 21),
                                   (6, 22), (7, 23), (8, 24)]

    def test_feedback_steps_mirror_targets(self):
        for (m, r, d), targets in (((3, 3, 3), [10, 11, 12]), ((4, 0, 2), [15, 16])):
            steps = build_plan(m, r, d).steps
            assert [s.dst_prior for s in steps if isinstance(s, ApplyDkin)] == targets


class TestLegality:
    def test_cycle_m2_d3(self):
        with pytest.raises(CycleError, match="requires d <= m"):
            build_plan(2, 3, 3)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_cycle_boundary_is_d_equals_m(self, m):
        build_plan(m, min(m, 3), m)          # d == m: legal
        with pytest.raises(CycleError):
            build_plan(m, 0, m + 1)          # d == m+1: overlaps the taps

    def test_count_validation(self):
        with pytest.raises(ValueError):
            build_plan(3, 4, 0)
        with pytest.raises(ValueError):
            build_plan(3, -1, 0)
        with pytest.raises(ValueError):
            build_plan(3, 0, -2)
        with pytest.raises(ValueError):
            build_plan(0, 0, 0)

    def test_model_rejects_cyclic_config_before_allocating(self):
        with pytest.raises(CycleError):
            build_model(ModelConfig(m=2))    # desk defaults carry d = 3


def schedule_fault(steps, m):
    """The plan's schedule invariants, stated once: the first way `steps`
    for a 4m-layer prior branch breaks them, or None.

    Each branch runs every layer once and in order. A forward coupler comes
    directly after its source prior layer and targets a domain layer that
    has not run; a feedback coupler reads a domain layer that has run and
    targets a prior layer that has not. The fuse is the last step, after
    both branches have finished and every coupler output was consumed.
    """
    prior_done = domain_done = 0
    to_domain, to_prior = set(), set()   # pending outputs by target layer
    for k, s in enumerate(steps):
        if isinstance(s, RunPrior):
            if s.i != prior_done + 1 or s.i > 4 * m:
                return f"prior layer {s.i} but {prior_done} of {4 * m} done"
            to_prior.discard(s.i)
            prior_done = s.i
        elif isinstance(s, RunDomain):
            if s.j != domain_done + 1 or s.j > N_LAYERS:
                return f"domain layer {s.j} but {domain_done} done"
            to_domain.discard(s.j)
            domain_done = s.j
        elif isinstance(s, ApplyRfin):
            if s.src_prior != prior_done:
                return (f"forward coupler reads prior layer {s.src_prior} "
                        f"but prior layer {prior_done} ran last")
            if s.dst_domain <= domain_done:
                return f"forward coupler targets domain {s.dst_domain} which already ran"
            to_domain.add(s.dst_domain)
        elif isinstance(s, ApplyDkin):
            if s.src_domain > domain_done:
                return f"feedback coupler reads domain {s.src_domain} before it ran"
            if s.dst_prior <= prior_done:
                return f"feedback coupler targets prior {s.dst_prior} which already ran"
            to_prior.add(s.dst_prior)
        elif isinstance(s, FinalFuse):
            if prior_done != 4 * m or domain_done != N_LAYERS:
                return (f"fuse after {prior_done} of {4 * m} prior and "
                        f"{domain_done} of {N_LAYERS} domain layers")
            if to_domain or to_prior:
                return "unconsumed coupler outputs at fuse"
            if k + 1 < len(steps):
                return f"step {steps[k + 1]!r} after final fuse"
            return None
        else:
            return f"unknown step {s!r}"
    return "no final fuse step"


# every (m, r, d) with m = 1..8 that schedules: r <= 3 forward, d <= m feedback
LEGAL = [(m, r, d) for m in range(1, 9) for r in range(4) for d in range(m + 1)]


STEP_KINDS = ("RunPrior", "RunDomain", "ApplyRfin", "ApplyDkin", "FinalFuse")


def step_type_tests(source):
    """(line, name) for each step kind that an isinstance() call or a
    comparison with a type() call in `source` names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            named = node.args[1:]
        elif isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Call) and getattr(x.func, "id", None) == "type"
                for x in [node.left, *node.comparators]):
            named = [node.left, *node.comparators]
        else:
            continue
        found += [(n.lineno, getattr(n, "id", getattr(n, "attr", None)))
                  for x in named for n in ast.walk(x)
                  if getattr(n, "id", getattr(n, "attr", None)) in STEP_KINDS]
    return sorted(found)


class TestStepKinds:
    def test_no_source_dispatches_on_a_step_kind(self):
        """Each step kind states what it runs, reads and traces in its own
        class, so no code in the package tests a step's type."""
        sources = sorted(Path(fusion.__file__).parent.glob("*.py"))
        assert len(sources) >= 10
        found = {p.name: step_type_tests(p.read_text()) for p in sources}
        assert {name: f for name, f in found.items() if f} == {}

    def test_the_check_sees_each_form_of_type_test(self):
        src = ("isinstance(s, RunPrior)\nisinstance(s, (int, fusion.ApplyDkin))\n"
               "type(s) is FinalFuse\nRunDomain == type(s)\nisinstance(s, Step)\n")
        assert step_type_tests(src) == [(1, "RunPrior"), (2, "ApplyDkin"),
                                        (3, "FinalFuse"), (4, "RunDomain")]


class TestSchedule:
    def test_golden_trace_m3(self):
        assert build_plan(3, 3, 3).trace() == GOLDEN_TRACE_M3

    @pytest.mark.parametrize("m,r,d", LEGAL)
    def test_every_layer_runs_once_and_deps_precede_uses(self, m, r, d):
        plan = build_plan(m, r, d)
        assert schedule_fault(plan.steps, m) is None
        assert [(s.idx, s.src_prior, s.dst_domain) for s in plan.steps
                if isinstance(s, ApplyRfin)] == [(k, *p) for k, p in enumerate(plan.rfin_pairs)]
        assert [(s.idx, s.src_domain, s.dst_prior) for s in plan.steps
                if isinstance(s, ApplyDkin)] == [(k, *p) for k, p in enumerate(plan.dkin_pairs)]
        assert len(plan.rfin_pairs) == r and len(plan.dkin_pairs) == d

    def test_trace_is_reproducible(self):
        assert build_plan(4, 2, 1).trace() == build_plan(4, 2, 1).trace()


def _move(steps, step, before):
    """Take `step` out of the list and reinsert it right before `before`
    (or at the end when before is None)."""
    out = [s for s in steps if s != step]
    out.insert(len(out) if before is None else out.index(before), step)
    return out


def _swap(steps, a, b):
    i, j = steps.index(a), steps.index(b)
    out = list(steps)
    out[i], out[j] = b, a
    return out


REF = build_plan(3, 3, 3).steps         # the golden trace above
RFIN0 = ApplyRfin(0, 3, 3)
DKIN0 = ApplyDkin(0, 6, 10)

MALFORMED = {
    "prior segment out of order": (
        lambda s: _swap(s, RunPrior(4), RunPrior(7)), "prior layer 7 but 3 of 12 done"),
    "domain layer skipped": (
        lambda s: [x for x in s if x != RunDomain(2)], "domain layer 3 but 1 done"),
    "rfin before its tap": (
        lambda s: _move(s, RFIN0, RunPrior(3)),
        "reads prior layer 3 but prior layer 2 ran last"),
    "rfin not directly after its source layer": (
        lambda s: _move(s, RunPrior(7), ApplyRfin(1, 6, 4)),
        "reads prior layer 6 but prior layer 7 ran last"),
    "rfin into a domain layer that ran": (
        lambda s: _move(s, RFIN0, RunPrior(4)), "targets domain 3 which already ran"),
    "dkin before its source": (
        lambda s: _move(s, DKIN0, RunDomain(6)), "reads domain 6 before it ran"),
    "dkin into a prior layer that ran": (
        lambda s: [ApplyDkin(0, 6, 9) if x == DKIN0 else x for x in s],
        "targets prior 9 which already ran"),
    "coupler output unconsumed": (
        lambda s: [ApplyDkin(0, 6, 13) if x == DKIN0 else x for x in s],
        "unconsumed coupler outputs"),
    "step after the fuse": (lambda s: s + [RunDomain(8)], "after final fuse"),
    "no fuse": (lambda s: s[:-1], "no final fuse"),
    "unknown step": (lambda s: [object()] + s, "unknown step"),
}


class TestCheckSchedule:
    """schedule_fault's own test: it passes the reference plan and names
    each fault planted in it."""

    def test_reference_steps_pass(self):
        assert schedule_fault(REF, 3) is None

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_each_malformation_is_a_plan_bug(self, case):
        edit, detail = MALFORMED[case]
        bad = edit(list(REF))
        assert bad != REF
        fault = schedule_fault(bad, 3)
        assert fault is not None and detail in fault, fault


class TestZeroCouplerIdentity:
    def test_zeroed_couplers_vanish_from_the_output(self):
        """With every coupler tensor at zero the fully wired model computes
        exactly what the uncoupled one computes, bit for bit; shared
        parameters already agree bit for bit because init is keyed by
        name."""
        cfg = ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=32,
                          window=2, rfin_count=2, dkin_count=2)
        full = build_model(cfg, seed=4)
        bare = build_model(replace(cfg, rfin_count=0, dkin_count=0), seed=4)
        for name, p in full.named_params():
            if name.startswith(("rfins.", "dkins.")):
                p.data = np.zeros_like(p.data)
        rng = np.random.default_rng(0)
        for _ in range(3):
            xc = rng.random((1, 1, 8, 8), dtype=np.float32)
            xs = rng.random((1, 1, 32, 32), dtype=np.float32)
            a = full.forward(xc, xs).data
            b = bare.forward(xc, xs).data
            assert a.tobytes() == b.tobytes()

    def test_fresh_couplers_start_inert(self):
        """Zero-initialized couplers leave the model output untouched
        straight out of build_model, before any explicit zeroing."""
        cfg = ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=32,
                          window=2, rfin_count=2, dkin_count=2)
        full = build_model(cfg, seed=1)
        bare = build_model(replace(cfg, rfin_count=0, dkin_count=0), seed=1)
        rng = np.random.default_rng(9)
        xc = rng.random((2, 1, 8, 8), dtype=np.float32)
        xs = rng.random((2, 1, 32, 32), dtype=np.float32)
        assert np.array_equal(full.forward(xc, xs).data,
                              bare.forward(xc, xs).data)

    def test_fresh_couplers_start_inert_at_equal_widths(self):
        """At C_c == C no width alignment is needed, but the feedback
        coupler still holds its zero projection, so a fresh model computes
        the uncoupled one bit for bit."""
        cfg = ModelConfig(m=2, C=16, C_c=16, C_d=8, heads=2, x_c=8, x_s=32,
                          window=2, rfin_count=2, dkin_count=2)
        full = build_model(cfg, seed=0)
        bare = build_model(replace(cfg, rfin_count=0, dkin_count=0), seed=0)
        rng = np.random.default_rng(5)
        xc = rng.random((2, 1, 8, 8), dtype=np.float32)
        xs = rng.random((2, 1, 32, 32), dtype=np.float32)
        assert full.forward(xc, xs).data.tobytes() == bare.forward(xc, xs).data.tobytes()


class TestBatchInvariance:
    def test_a_batch_segments_each_image_as_it_would_alone(self):
        """Default config with every coupler open: a batch of 4 gives each
        image's logits within 1e-6 of its own forward pass, and the same
        mask. Bitwise equality is not promised: BLAS may block a batched
        matmul differently from a single row."""
        from braidseg.tensor import no_grad

        cfg = ModelConfig()
        net = build_model(cfg, seed=2)
        rng = np.random.default_rng(6)
        for _, p in net.named_params():
            if not p.data.any():
                p.data = rng.normal(0.0, 0.05, size=p.shape).astype(np.float32)
        xc = rng.random((4, 1, cfg.x_c, cfg.x_c), dtype=np.float32)
        xs = rng.random((4, 1, cfg.x_s, cfg.x_s), dtype=np.float32)
        with no_grad():
            batched = net.forward(xc, xs).data
            alone = np.concatenate([net.forward(xc[i:i + 1], xs[i:i + 1]).data
                                    for i in range(4)])
        assert np.abs(batched - alone).max() <= 1e-6
        assert np.array_equal(batched > 0, alone > 0)

    @pytest.mark.parametrize("cfg, dtype", [(ModelConfig(), np.float32),
                                            (ModelConfig(), np.float64),
                                            (GRADCHECK_CFG, np.float64)],
                             ids=["default-f32", "default-f64", "audit-f64"])
    def test_batches_of_2_to_7_are_bitwise_the_first_rows_of_8(self, cfg, dtype):
        """With every coupler open, each image's logits, and the loss of
        each batch of 2 to 7, hold the bits of the same images at batch 8.
        Batch 1 is not pinned: numpy computes a one-row matmul with GEMV,
        which rounds unlike a GEMM row (1.5e-8 apart in float32 here)."""
        from braidseg.tensor import Tensor, no_grad
        from braidseg.train import seg_loss

        net = build_model(cfg, seed=2, dtype=dtype)
        rng = np.random.default_rng(6)
        for _, p in net.named_params():
            if not p.data.any():
                p.data = rng.normal(0.0, 0.05, size=p.shape).astype(dtype)
        xc = rng.random((8, 1, cfg.x_c, cfg.x_c)).astype(dtype)
        xs = rng.random((8, 1, cfg.x_s, cfg.x_s)).astype(dtype)
        target = (rng.random(xc.shape) > 0.5).astype(dtype)
        with no_grad():
            rows = net.forward(xc, xs).data
            for b in range(2, 8):
                logits = net.forward(xc[:b], xs[:b])
                assert logits.data.tobytes() == rows[:b].tobytes(), b
                want = seg_loss(Tensor(rows[:b]), target[:b]).data
                assert seg_loss(logits, target[:b]).data.tobytes() == want.tobytes(), b


def _dicts(state):
    return state.domain_out, state.to_domain, state.to_prior


class TestResumeFromSavedState:
    """encode() resumed at BraidNet.resume_steps() from a saved state is
    what the gradient audit runs instead of a whole forward pass."""

    # float64 and all six couplers, as the audit runs them
    CFG = ModelConfig(m=3, C=8, C_c=4, C_d=4, heads=2, x_c=8, x_s=32, window=2)

    @pytest.fixture(scope="class")
    def run(self):
        from braidseg.tensor import no_grad
        from braidseg.train import seg_loss

        net = build_model(self.CFG, seed=3, dtype=np.float64)
        rng = np.random.default_rng(8)
        for _, p in net.named_params():
            # off zero, so that every coupler tensor moves the loss
            if not p.data.any():
                p.data = rng.normal(0.0, 0.05, size=p.shape)
        xc = rng.random((1, 1, 8, 8))
        xs = rng.random((1, 1, 32, 32))
        target = (rng.random((1, 1, 8, 8)) > 0.5).astype(np.float64)
        # the gradients pick the element each parameter's probe perturbs
        seg_loss(net.forward(xc, xs), target).backward()
        saved = []
        with no_grad():
            fused = net.encode(xc, xs, saved=saved)

        def loss(k=None):
            with no_grad():
                if k is None:
                    logits = net.forward(xc, xs)
                elif k == len(saved):
                    logits = net.decode(fused)
                else:
                    logits = net.decode(net.encode(xc, xs, state=saved[k]))
                return float(seg_loss(logits, target).data)

        return SimpleNamespace(net=net, saved=saved, fused=fused, loss=loss,
                               base=loss(), xc=xc, xs=xs, no_grad=no_grad)

    def test_every_parameter_maps_to_a_step(self, run):
        net = run.net
        assert len(net.rfins) == self.CFG.rfin_count
        assert len(net.dkins) == self.CFG.dkin_count
        starts = net.resume_steps()
        n = len(net.plan.steps)
        assert list(starts) == [name for name, _ in net.named_params()]
        for name, k in starts.items():
            if name.startswith("patch_prior.embed."):
                assert k is None
            elif name.startswith(("prompt.", "decoder.")):
                assert k == n
            else:
                assert 0 <= k < n, name
        assert [s.k for s in run.saved] == list(range(n))

    def test_a_block_no_step_claims_reruns_the_whole_forward(self, run, monkeypatch):
        """Leaving a block out of a step's blocks costs audit time, not correctness."""
        monkeypatch.setattr(FinalFuse, "blocks", lambda step, net: [])
        starts = run.net.resume_steps()
        neck = run.net.patch_prior.neck.named_params("patch_prior.neck.")
        assert neck and all(starts[name] is None for name, _ in neck)

    def test_resumed_loss_equals_whole_forward_bitwise(self, run):
        starts = run.net.resume_steps()
        inert = []
        for name, p in run.net.named_params():
            idx = np.unravel_index(np.argmax(np.abs(p.grad)), p.shape)
            keep = p.data[idx]
            p.data[idx] = keep + 0.1 * (1.0 + abs(keep))
            try:
                whole, resumed = run.loss(), run.loss(starts[name])
            finally:
                p.data[idx] = keep
            assert resumed == whole, name
            # a resume point past the first reader would reread stale state
            # and still match an unperturbed whole pass: the perturbation
            # must actually show, except where the loss cannot see it
            if np.abs(p.grad).max() > 1e-14:
                assert whole != run.base, name
            else:
                inert.append(name)
        # only biases are inert: those an instance norm removes right away,
        # and attention key biases, which shift every score of a query alike
        assert all(n.endswith("b") for n in inert), inert

    def test_resuming_leaves_the_saved_state_as_it_was(self, run):
        before = [tuple(sorted(d)) for s in run.saved for d in _dicts(s)]
        with run.no_grad():
            run.net.encode(run.xc, run.xs, state=run.saved[0])
        assert [tuple(sorted(d)) for s in run.saved for d in _dicts(s)] == before

    def test_saved_tensors_share_no_memory_with_parameters(self, run):
        """Probes edit p.data in place; a saved view of a parameter would
        see the edit and resume from a state that was never computed."""
        held = [run.fused]
        for s in run.saved:
            held += [s.tokens, s.dmap]
            for d in _dicts(s):
                held += list(d.values())
        params = [p.data for _, p in run.net.named_params()]
        for t in held:
            for q in params:
                assert not np.shares_memory(t.data, q)


class TestResumeAtFourDkins(TestResumeFromSavedState):
    """The same checks at a wiring whose DKIN sources are [8, 6, 7, 8]:
    dkin 1 reads domain 6 from the saved domain outputs after domain 8
    has run, domain 8 feeds two couplers, and only two RFINs exist."""

    CFG = ModelConfig(m=4, C=8, C_c=4, C_d=4, heads=2, x_c=8, x_s=32, window=2,
                      rfin_count=2, dkin_count=4)

    def test_wiring_is_the_one_described(self, run):
        assert [src for src, _ in run.net.plan.dkin_pairs] == [8, 6, 7, 8]


class TestInterpreterAgainstManualScript:
    def test_m3_forward_equals_hand_written_schedule(self):
        """Replay the m=3 wiring by hand with the model's own modules and
        demand bitwise agreement with the plan interpreter."""
        from braidseg.fusion import final_fuse
        from braidseg.tensor import Tensor

        cfg = ModelConfig(m=3, C=16, C_c=8, C_d=8, heads=2, x_c=16, x_s=64,
                          window=2, rfin_count=3, dkin_count=3)
        net = build_model(cfg, seed=2)
        rng = np.random.default_rng(3)
        for _, p in net.named_params():
            if not p.data.any():             # open the couplers off zero
                p.data = rng.normal(0.0, 0.05, size=p.shape).astype(np.float32)
        xc = Tensor(rng.random((1, 1, 16, 16)).astype(np.float32))
        xs = Tensor(rng.random((1, 1, 64, 64)).astype(np.float32))

        got = net.encode(xc.data, xs.data)

        pr, dom = net.patch_prior, net.conv_domain
        t = pr.embed_tokens(xs)
        for i in (1, 2, 3):
            t = pr.forward_layer(i, t)
        r0 = net.rfins[0].forward(t)
        d = dom.forward_layer(1, xc)
        d = dom.forward_layer(2, d)
        d = dom.forward_layer(3, d, injection=r0)
        for i in (4, 5, 6):
            t = pr.forward_layer(i, t)
        r1 = net.rfins[1].forward(t)
        d = dom.forward_layer(4, d, injection=r1)
        for i in (7, 8, 9):
            t = pr.forward_layer(i, t)
        r2 = net.rfins[2].forward(t)
        d = dom.forward_layer(5, d, injection=r2)
        d6 = dom.forward_layer(6, d)
        t = pr.forward_layer(10, t, net.dkins[0].forward(d6))
        d7 = dom.forward_layer(7, d6)
        t = pr.forward_layer(11, t, net.dkins[1].forward(d7))
        d8 = dom.forward_layer(8, d7)
        t = pr.forward_layer(12, t, net.dkins[2].forward(d8))
        want = final_fuse(pr.project(t), dom.project(d8))

        assert got.data.tobytes() == want.data.tobytes()


class TestPrecision:
    CFG = ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=32,
                      window=2, rfin_count=2, dkin_count=2)

    def test_a_float64_model_is_drawn_at_float64(self):
        """Not rounded from float32: every drawn kind holds values that a
        float32 round trip moves, and no gradient buffer of another dtype."""
        params = build_model(self.CFG, seed=0, dtype=np.float64).named_params()
        for _, p in params:
            assert p.dtype == np.float64
            assert p._grad is None or p._grad.dtype == np.float64
        for kind in ("trunc_normal", "he"):
            drawn = np.concatenate([p.data.ravel() for _, p in params
                                    if p.init_kind.partition(":")[0] == kind])
            assert np.any(drawn.astype(np.float32).astype(np.float64) != drawn)

    def test_a_cast_model_runs_at_the_precision_cast_to(self):
        """The inputs follow the parameters' dtype after init_params redraws
        a built model at another precision, and a float32 -> float64 ->
        float32 round trip moves no bit."""
        net = build_model(self.CFG, seed=0)
        rng = np.random.default_rng(0)
        xc, xs = rng.random((1, 1, 8, 8)), rng.random((1, 1, 32, 32))
        before = net.forward(xc, xs).data
        for dtype in (np.float64, np.float32):
            init_params(net, 0, dtype)
            assert net.dtype == dtype
            assert net.forward(xc, xs).dtype == dtype
        assert np.array_equal(net.forward(xc, xs).data, before)
