"""Gradient clipping for sparse embedding gradients: CowClip, or none.

CowClip (adaptive column-wise clipping) gives each touched id (table row) of
a sparse gradient the threshold

    cnt(id) * max(r * ||w[id]||, zeta)

and scales an id's gradient whose norm exceeds it down to it.  cnt is the
id's occurrence count in the batch.  The gradient it bounds is the
batch-mean one from accumulate_gradients: the sum of the id's cnt per-sample
gradients divided by the batch size b.  So the threshold bounds cnt/b times
the mean per-occurrence gradient, not the gradient of a single occurrence;
bounding each occurrence would take r and zeta divided by b.  Measured on
criterion 09's DESK config with the cowclip scaling rule and zeta 1e-4
(mean final test AUC over seeds 1-3):

    b      clip off   this threshold   per-occurrence
    256    0.88648    0.88761          0.87205
    4096   0.88827    0.88824          0.84660

This threshold clipped 6.4 % of touched embedding ids at b=256 and 0.93 %
at b=4096; the per-occurrence one clipped 93 % and 99.7 %.  zeta keeps the
threshold off the floor for weights that have decayed to almost nothing.
Clipping never changes a gradient's direction and is the identity on
anything already under its threshold.

The paper also compares global, field-wise, column-wise and adaptive
field-wise clipping.  In this lab's ablation at s=64 (results/clip_ablation.md)
every setting of those four peaked below both clip off and CowClip on every
seed, so they are gone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable, SparseGradient

VARIANTS = ("none", "cowclip")


@dataclass(frozen=True)
class ClipConfig:
    """A variant and its threshold parameters; the one home of their rules.
    cowclip needs r and zeta > 0 and finite; none drops them."""

    variant: str = "none"
    r: float | None = None
    zeta: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"clip.variant must be one of {', '.join(VARIANTS)}, got {self.variant!r}"
            )
        for name in ("r", "zeta"):
            value = getattr(self, name)
            if self.variant == "none":
                object.__setattr__(self, name, None)
            elif value is None or not 0 < value < math.inf:
                raise ValueError(
                    f"clip.{name} must be > 0 and finite for {self.variant} clipping, got {value!r}"
                )


def apply_clip(
    cfg: ClipConfig,
    table: EmbeddingTable,
    sparse_grad: SparseGradient,
) -> SparseGradient:
    """Scale each touched id's gradient down to its CowClip threshold.

    Variant "none" returns the input itself.  Otherwise the gradient must
    have been built for a table with table's field offsets, and the result
    is a new SparseGradient that shares the input's row and count blocks:
    clipping only rescales gradients, and no step writes into rows or counts.
    """
    if cfg.variant == "none":
        return sparse_grad
    sparse_grad.check_table(table)
    grads = sparse_grad.grad_block
    norms = np.linalg.norm(grads, axis=1)
    w_norms = np.linalg.norm(np.take(table.block, sparse_grad.row_block, axis=0), axis=1)
    threshold = sparse_grad.count_block * np.maximum(cfg.r * w_norms, cfg.zeta)
    safe = np.where(norms > 0, norms, 1.0)
    scale = np.minimum(1.0, threshold / safe).astype(grads.dtype, copy=False)
    return SparseGradient(
        sparse_grad.row_block, grads * scale[:, None], sparse_grad.count_block, sparse_grad.offsets
    )


def cowclip(
    table: EmbeddingTable, sparse_grad: SparseGradient, r: float, zeta: float
) -> SparseGradient:
    """Adaptive column-wise clipping: per-id threshold cnt * max(r*||w||, zeta)."""
    return apply_clip(ClipConfig("cowclip", r=r, zeta=zeta), table, sparse_grad)
