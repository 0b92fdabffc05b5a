"""Sweep the coupler counts on a small model and print the table.

Each (r, d) cell trains a fresh model with the same seed and budget, so
the only thing that varies is how many forward/feedback couplers exist.
Cells whose wiring cannot be scheduled are kept in the table and marked,
not silently dropped. A (0, 0) row is appended as the uncoupled baseline.
"""

import tempfile

from braidseg import ModelConfig, TrainConfig, generate_dataset, train
from braidseg.data import select
from braidseg.evaluate import ablate, ablation_text

# narrow widths keep each cell cheap; m=3 allows feedback depth up to 3
base = ModelConfig(m=3, C=16, C_c=8, C_d=8, heads=2, x_c=16, x_s=64,
                   window=2, rfin_count=3, dkin_count=3)

with tempfile.TemporaryDirectory() as root:
    samples = generate_dataset(root, seed=9, n_train=6, n_val=4, n_test=0,
                               size=16, paired=True)
    train_s = select(samples, split="train")
    val_s = select(samples, split="val")

    tcfg = TrainConfig(epochs=3, batch=4, lr0=5e-3, momentum=0.9,
                       augment=False, seed=0)

    def budget(model):          # the budget closes over the training samples
        train(model, root, train_s, tcfg)

    table = ablate(root, val_s, base,
                   rfin_values=[0, 1, 3], dkin_values=[1, 3, 4],
                   train_fn=budget, seed=0, log=print)

    print()
    print(ablation_text(table))
    print("d=4 rows are impossible at m=3: the feedback would target a")
    print("transformer layer that has to run before its own input exists.")
    print("(the forward couplers start zero-initialized, so at a toy budget")
    print("like this one the r columns barely separate; the sweep is about")
    print("wiring coverage, not score quality)")
