#!/usr/bin/env python3
"""The five clipping variants on one synthetic sparse gradient.

Builds an embedding table with a wide spread of id-vector norms, a sparse
gradient with a matching spread, and shows how much of the gradient each
variant keeps, per column.  Every variant runs through the one clip kernel,
clip.apply_clip: a variant is only a choice of unit and threshold.

Usage: python demos/02_clipping_variants.py
"""

import numpy as np

from ctrlab.clip import ClipConfig, apply_clip, cowclip
from ctrlab.data import FieldSchema
from ctrlab.embedding import SparseGradient, init_table

rng = np.random.default_rng(0)
vocab, dim, touched = 1000, 10, 64

table = init_table((FieldSchema("items", vocab),), dim,
                   init_sigma=1e-2, seed=0)
# let some ids "mature": large weights for a handful of frequent ids
table.block[:8] *= 40.0

ids = np.sort(rng.choice(vocab, size=touched, replace=False))
ids[:4] = [0, 1, 2, 3]  # make sure mature ids are in the batch
grads = rng.normal(size=(touched, dim)) * rng.lognormal(-1.0, 1.5, size=(touched, 1))
counts = np.concatenate([rng.integers(20, 60, size=4), np.ones(touched - 4, dtype=int)])
# One field, so an id's table row is the id itself.
sparse = SparseGradient(ids, grads, counts, table.offsets)

variants = {
    "global(0.5)": apply_clip(ClipConfig("global", value=0.5), table, sparse),
    "fieldwise(0.5)": apply_clip(ClipConfig("fieldwise", value=0.5), table, sparse),
    "columnwise(0.05)": apply_clip(ClipConfig("columnwise", value=0.05), table, sparse),
    "adaptive field (r=1)": apply_clip(
        ClipConfig("adaptive_fieldwise", r=1.0, zeta=1e-4), table, sparse
    ),
    "cowclip (r=1, zeta=1e-4)": cowclip(table, sparse, r=1.0, zeta=1e-4),
}

in_norms = np.linalg.norm(sparse.grad_block, axis=1)
print(f"{'variant':>26} | kept gradient mass | columns touched by clipping")
for name, clipped in variants.items():
    out_norms = np.linalg.norm(clipped.grad_block, axis=1)
    kept = float(np.linalg.norm(clipped.grad_block) / np.linalg.norm(sparse.grad_block))
    n_clipped = int(np.sum(out_norms < in_norms * (1 - 1e-12)))
    print(f"{name:>26} | {kept:>18.3f} | {n_clipped}/{touched}")

print("""
cowclip clips each id vector against cnt * max(r*||w||, zeta): mature ids
(large weights, many occurrences) keep large gradients, freshly-initialized
rare ids get a tight bound, so one noisy rare id cannot dominate a step,
and nothing is scaled down just because some other column had a spike.""")
