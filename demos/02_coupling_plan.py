"""
Reading a coupling plan
=======================

The two encoder branches do not run one after the other. The plan object
decides the interleaving: which transformer layer runs next, where a
forward injection lands in the conv branch, and where the conv branch
feeds back into the transformer. This demo prints a few plans and shows
the one configuration that cannot exist.
"""

from braidseg.fusion import CycleError, build_plan

# the default depth: m=3 means 12 transformer layers and 8 conv layers
plan = build_plan(m=3, rfin_count=3, dkin_count=3)
print("=== m=3, r=3, d=3 (default) ===")
print("forward pairs (global prior layer -> conv layer):", plan.rfin_pairs)
print("feedback pairs (conv layer -> prior layer):", plan.dkin_pairs)
print("injection sites inside the transformer:", [t for _, t in plan.dkin_pairs])
print()
print(plan.trace())

# fewer couplers: the table rows of the sweep simply truncate the pairs
print("=== m=3, r=1, d=1 ===")
plan = build_plan(3, 1, 1)
print("forward:", plan.rfin_pairs, " feedback:", plan.dkin_pairs)
print()

# deeper encoder, deeper feedback
print("=== m=6, r=3, d=6 ===")
plan = build_plan(6, 3, 6)
print("feedback:", plan.dkin_pairs)
print()

# and the impossible one: with m=2 the third feedback would have to land
# on a transformer layer that must already have run to produce the conv
# features feeding it. The plan refuses to build.
print("=== m=2, r=3, d=3 ===")
try:
    build_plan(2, 3, 3)
except CycleError as e:
    print("refused:", e)
