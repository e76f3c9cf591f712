#!/usr/bin/env python3
"""A small end-to-end sweep: batch size x scaling rule on synthetic data.

Trains a DeepFM at two batch sizes under no-scaling and cowclip scaling and
prints the comparison table.  Shrunk well below the acceptance-suite sizes so
it finishes in about a minute; bump data.n_samples / epochs for sharper
numbers.

Usage: python demos/04_desk_scale_sweep.py
"""

from ctrlab import harness

config = harness.ExperimentConfig(
    n_samples=60_000, n_categorical=6, n_dense=2, vocab_size=3000,
    zipf_exponent=1.2,
    model_kind="deepfm", hidden=(32, 32), embed_dim=10,
    lr_dense=5e-4, lr_embed=5e-4, l2=1e-4, warmup_epochs=1.0,
    base_batch=128, batch_size=128, epochs=3,
    clip_variant="cowclip", clip_r=1.0, clip_zeta=1e-4,
    sweep_batch_sizes=(128, 2048), sweep_rules=("none", "cowclip"),
)

records, table = harness.sweep(config, seed=1)
print(table)
print()
for r in records:
    status = "diverged" if r.diverged else f"auc {r.final_auc:.4f}"
    print(f"  {r.run_id:<40} {status}")
print("""
Both rows train with cowclip clipping; the only difference is the
hyperparameter rule. The cowclip row holds its AUC at the large batch
because the embedding lr stays put, the L2 weight scales linearly, and the
dense lr scales by sqrt; the no-scaling row keeps small-batch hyperparameters
and falls behind.""")
