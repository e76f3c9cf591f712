"""Gradient clipping for sparse embedding gradients: one kernel, five variants.

Every variant splits the touched rows of a sparse gradient into units, gives
each unit a threshold, and scales a unit whose norm exceeds its threshold
down to it:

    variant              unit                  threshold
    global               every row             value
    fieldwise            one field's rows      value
    columnwise           one id (row)          value
    adaptive_fieldwise   one field's rows      max(r * ||field's weights||, zeta)
    cowclip              one id (row)          cnt(id) * max(r * ||w[id]||, zeta)

cowclip multiplies by the id's occurrence count cnt in the batch.  The
gradient it bounds is the batch-mean one from accumulate_gradients: the sum
of the id's cnt per-sample gradients divided by the batch size b.  So the
threshold bounds cnt/b times the mean per-occurrence gradient, not the
gradient of a single occurrence; bounding each occurrence would take r and
zeta divided by b.  Measured on criterion 09's DESK config with the cowclip
scaling rule and zeta 1e-4 (mean final test AUC over seeds 1-3):

    b      clip off   this threshold   per-occurrence
    256    0.88648    0.88761          0.87205
    4096   0.88827    0.88824          0.84660

This threshold clipped 6.4 % of touched embedding ids at b=256 and 0.93 %
at b=4096; the per-occurrence one clipped 93 % and 99.7 %.  zeta keeps an
adaptive threshold off the floor for weights that have decayed to almost
nothing.  A constant threshold is used as given; a run scales it to its
batch beforehand (harness._clip_config).  Clipping never changes a
gradient's direction and is the identity on anything already under its
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable, SparseGradient

# variant: the ClipConfig parameters its threshold reads (see the table above)
VARIANT_PARAMS = {"none": (), "global": ("value",), "fieldwise": ("value",),
                  "columnwise": ("value",), "adaptive_fieldwise": ("r", "zeta"),
                  "cowclip": ("r", "zeta")}
VARIANTS = tuple(VARIANT_PARAMS)
PER_ID_VARIANTS = ("columnwise", "cowclip")


@dataclass(frozen=True)
class ClipConfig:
    """A variant and its threshold parameters; the one home of their rules.  Each
    parameter the variant reads must be > 0 and finite; the others are dropped."""

    variant: str = "none"
    value: float | None = None            # constant-threshold variants, as applied
    r: float | None = None                # adaptive variants
    zeta: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"clip.variant must be one of {', '.join(VARIANTS)}, got {self.variant!r}"
            )
        for name in ("value", "r", "zeta"):
            value = getattr(self, name)
            if name not in VARIANT_PARAMS[self.variant]:
                object.__setattr__(self, name, None)
            elif value is None or not 0 < value < math.inf:
                raise ValueError(
                    f"clip.{name} must be > 0 and finite for {self.variant} clipping, got {value!r}"
                )


def _segment_norms(rows: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The norm of each segment rows[cuts[j]:cuts[j+1]], with cuts[-1] ==
    len(rows): the square root of a float64 sum of its rows' squared norms.

    np.add.reduceat would give an empty segment the next segment's first row,
    so it sums the non-empty segments only; an empty segment has norm 0.
    """
    starts = cuts[:-1]
    full = starts < cuts[1:]
    sums = np.zeros(len(starts))
    squares = np.einsum("ij,ij->i", rows, rows)  # in the rows' dtype
    sums[full] = np.add.reduceat(squares, starts[full], dtype=np.float64)
    return np.sqrt(sums)


def apply_clip(
    cfg: ClipConfig,
    table: EmbeddingTable,
    sparse_grad: SparseGradient,
) -> SparseGradient:
    """Scale each unit of the gradient down to its threshold (see the module table).

    Variant "none" returns the input itself.  Otherwise the gradient must
    have been built for a table with table's field offsets, and the result
    is a new SparseGradient that shares the input's row and count blocks:
    clipping only rescales gradients, and no step writes into rows or counts.
    """
    variant, grads = cfg.variant, sparse_grad.grad_block
    if variant == "none":
        return sparse_grad
    sparse_grad.check_table(table)
    if variant in PER_ID_VARIANTS:
        cuts, norms = None, np.linalg.norm(grads, axis=1)
    else:
        cuts = np.array([0, len(grads)]) if variant == "global" else sparse_grad.cuts
        norms = _segment_norms(grads, cuts)
    if variant == "cowclip":
        w_norms = np.linalg.norm(np.take(table.block, sparse_grad.row_block, axis=0), axis=1)
        threshold = sparse_grad.count_block * np.maximum(cfg.r * w_norms, cfg.zeta)
    elif variant == "adaptive_fieldwise":
        w_norms = _segment_norms(table.block, table.offsets)
        threshold = np.maximum(cfg.r * w_norms, cfg.zeta)
    else:
        # A float64 scalar: a Python float would divide the float32 norms in float32.
        threshold = np.float64(cfg.value)
    safe = np.where(norms > 0, norms, 1.0)
    scale = np.minimum(1.0, threshold / safe).astype(grads.dtype, copy=False)
    if cuts is not None:
        scale = np.repeat(scale, np.diff(cuts))
    return SparseGradient(
        sparse_grad.row_block, grads * scale[:, None], sparse_grad.count_block, sparse_grad.offsets
    )


def cowclip(
    table: EmbeddingTable, sparse_grad: SparseGradient, r: float, zeta: float
) -> SparseGradient:
    """Adaptive column-wise clipping: per-id threshold cnt * max(r*||w||, zeta)."""
    return apply_clip(ClipConfig("cowclip", r=r, zeta=zeta), table, sparse_grad)
