#!/usr/bin/env python3
"""CowClip against no clip on one sparse gradient.

Builds criterion 09's DESK data shape (6 fields of 10,000 Zipf ids, 2 dense
features), an untrained deepfm at cowclip's init sigma 1e-2, and the sparse
gradients of one batch of 4096 rows.  Clips them with CowClip (r = 1) at
zeta = 1e-4, the DESK schedule's, and 1e-5, the Criteo schedule's, and
prints the share of touched ids clipped, the paper's quantity, by the id's
occurrence count in the batch.  Without a clip that share is 0: apply_clip
returns the gradient as it is.

Usage: python demos/02_clipping_variants.py
"""

import numpy as np

from ctrlab.clip import ClipConfig, apply_clip
from ctrlab.data import generate_synthetic, make_batches
from ctrlab.embedding import init_table
from ctrlab.models import init_model, loss_and_backward, model_forward

dataset = generate_synthetic(20_000, seed=1)
table = init_table(dataset.fields, 10, init_sigma=1e-2, seed=0)
model = init_model("deepfm", table, dataset.n_dense, hidden=(64, 64), seed=1)
batch = next(make_batches(dataset, 4096, seed=2))
probs, cache = model_forward(model, batch)
_, _, sparse = loss_and_backward(probs, batch.labels, cache)

BUCKETS = {"cnt 1": (1, 1), "cnt 2-9": (2, 9), "cnt >= 10": (10, np.inf)}
CLIPS = {
    "none": ClipConfig("none"),
    "cowclip zeta=1e-4": ClipConfig("cowclip", r=1.0, zeta=1e-4),
    "cowclip zeta=1e-5": ClipConfig("cowclip", r=1.0, zeta=1e-5),
}


def report(label, table, grad):
    norms = np.linalg.norm(grad.grad_block, axis=1)
    print(f"\n{label}: {len(norms)} touched ids, "
          + ", ".join(f"{name} {int(np.sum((grad.count_block >= lo) & (grad.count_block <= hi)))}"
                      for name, (lo, hi) in BUCKETS.items()))
    print(f"  {'clip':<20}{'clipped':>9}" + "".join(f"{name:>11}" for name in BUCKETS)
          + f"{'kept norm':>11}")
    for name, cfg in CLIPS.items():
        out = apply_clip(cfg, table, grad)
        clipped = np.linalg.norm(out.grad_block, axis=1) < norms
        shares = [clipped[(grad.count_block >= lo) & (grad.count_block <= hi)].mean()
                  for lo, hi in BUCKETS.values()]
        kept = np.linalg.norm(out.grad_block) / np.linalg.norm(grad.grad_block)
        print(f"  {name:<20}{100 * clipped.mean():>8.1f}%"
              + "".join(f"{100 * s:>10.1f}%" for s in shares) + f"{kept:>11.3f}")


report("embedding table, at init", model.embed, sparse["embed"])
report("first-order table, at init (zero weights)", model.first_order, sparse["lr"])
# Under dense L2, an id that stays absent decays towards 0; emulate that here.
decayed = init_table(dataset.fields, 10, init_sigma=1e-5, seed=0)
report("embedding table, weights decayed to sigma 1e-5", decayed, sparse["embed"])

print("""
The threshold is cnt * max(r*||w||, zeta) on the id's batch-mean gradient.
At init sigma 1e-2 the embedding weights set it, and hardly an id clips.
Where the weights are near 0 (the zero-initialised first-order table, or
decayed embeddings) zeta sets it instead, and the smaller zeta clips more.
The threshold grows with cnt, so frequent ids clip least.""")
