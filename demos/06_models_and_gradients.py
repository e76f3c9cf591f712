#!/usr/bin/env python3
"""The four model heads and their hand-written backward passes.

Runs each model on one tiny batch, shows the logit decomposition into the
deep and wide/cross streams, then validates every gradient (dense weights
and embedding vectors) against central finite differences.

Usage: python demos/06_models_and_gradients.py
"""

import numpy as np

from ctrlab import grad_check, init_model, init_table, model_forward
from ctrlab.data import CATEGORICAL, Batch, FieldSchema

rng = np.random.default_rng(0)
vocabs = [6, 6, 6]
fields = tuple(FieldSchema(f"c{j}", CATEGORICAL, v) for j, v in enumerate(vocabs))
table = init_table(fields, dim=4, init_sigma=0.3, seed=0)
batch = Batch(
    rng.integers(0, 2, size=4).astype(np.uint8),
    rng.normal(size=(4, 2)),
    np.stack([rng.integers(0, v, size=4) for v in vocabs], axis=1),
)

print("click probabilities for one batch, per model:")
for kind in ("wd", "deepfm", "dcn", "dcnv2"):
    model = init_model(kind, table, 2, hidden=(16, 8), cross_depth=2, seed=1)
    probs, cache = model_forward(model, batch)
    print(f"  {kind:>6}: probs {np.round(probs, 3)}  logit range "
          f"[{cache.logit.min():+.3f}, {cache.logit.max():+.3f}]")

print("\nfinite-difference validation (10 random configs per model):")
for kind in ("wd", "deepfm", "dcn", "dcnv2"):
    report = grad_check(kind, seed=7, n_trials=10)
    worst_tensor = max(report.per_tensor, key=report.per_tensor.get)
    print(f"  {kind:>6}: max relative error {report.max_rel_error:.2e} "
          f"(worst tensor: {worst_tensor})")
print("\nevery backward pass here is written by hand; the check differentiates")
print("the actual training objective, embeddings included.")
