"""The model configs the tests share, each stated once.

TINY is the smallest config with two couplers of each kind. GRADCHECK_CFG
is the benchmark's audit config (bench/workloads.py states its own copy,
and tests/test_acceptance.py its own TINY).
"""

from braidseg.model import ModelConfig

TINY = ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=32,
                   window=2, rfin_count=2, dkin_count=2)

GRADCHECK_CFG = ModelConfig(m=3, C=12, C_c=8, C_d=8, heads=3, x_c=16, x_s=64, window=2,
                            rfin_count=3, dkin_count=3)
