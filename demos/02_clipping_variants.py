#!/usr/bin/env python3
"""The five clipping variants on one synthetic sparse gradient.

Builds an embedding table with a wide spread of id-vector norms, a sparse
gradient with a matching spread, and shows how much of the gradient each
variant keeps, per column.

Usage: python demos/02_clipping_variants.py
"""

import numpy as np

from ctrlab.clip import (
    clip_adaptive_fieldwise,
    clip_columnwise,
    clip_fieldwise,
    clip_global,
    cowclip,
)
from ctrlab.data import CATEGORICAL, FieldSchema
from ctrlab.embedding import SparseGradient, column_norms, init_table

rng = np.random.default_rng(0)
vocab, dim, touched = 1000, 10, 64

table = init_table((FieldSchema("items", CATEGORICAL, vocab),), dim,
                   init_sigma=1e-2, seed=0)
# let some ids "mature": large weights for a handful of frequent ids
table.weights[0][:8] *= 40.0

ids = np.sort(rng.choice(vocab, size=touched, replace=False))
ids[:4] = [0, 1, 2, 3]  # make sure mature ids are in the batch
grads = rng.normal(size=(touched, dim)) * rng.lognormal(-1.0, 1.5, size=(touched, 1))
counts = np.concatenate([rng.integers(20, 60, size=4), np.ones(touched - 4, dtype=int)])
sparse = SparseGradient.from_fields([ids], [grads], [counts])

variants = {
    "global(0.5)": clip_global(sparse, 0.5),
    "fieldwise(0.5)": clip_fieldwise(sparse, 0.5),
    "columnwise(0.05)": clip_columnwise(sparse, 0.05),
    "adaptive field (r=1)": clip_adaptive_fieldwise(table, sparse, r=1.0, zeta=1e-4),
    "cowclip (r=1, zeta=1e-4)": cowclip(table, sparse, r=1.0, zeta=1e-4),
}

in_norms = column_norms(sparse)[0]
print(f"{'variant':>26} | kept gradient mass | columns touched by clipping")
for name, clipped in variants.items():
    out_norms = column_norms(clipped)[0]
    kept = float(np.linalg.norm(clipped.grads[0]) / np.linalg.norm(sparse.grads[0]))
    n_clipped = int(np.sum(out_norms < in_norms * (1 - 1e-12)))
    print(f"{name:>26} | {kept:>18.3f} | {n_clipped}/{touched}")

print("""
cowclip clips each id vector against cnt * max(r*||w||, zeta): mature ids
(large weights, many occurrences) keep large gradients, freshly-initialized
rare ids get a tight bound, so one noisy rare id cannot dominate a step,
and nothing is scaled down just because some other column had a spike.""")
