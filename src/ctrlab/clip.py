"""Gradient clipping for sparse embedding gradients, in five flavors.

The unit being clipped shrinks from variant to variant: the whole embedding
gradient (global), one field's block (fieldwise), or a single id vector
(columnwise).  The adaptive variants tie the threshold to the current weight
norm, and the column-wise adaptive one (cowclip) additionally multiplies by
the id's occurrence count in the batch, so the bound tracks the gradient of a
single occurrence:

    threshold(id) = cnt(id) * max(r * ||w[id]||, zeta)

zeta keeps the threshold off the floor for ids whose weights have decayed to
almost nothing.  A constant threshold is used as given; batch sweeps scale it
beforehand with scaling.clip_value_scale.  Clipping never changes a
gradient's direction and is the identity on anything already under its
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable, SparseGradient

CONSTANT_VARIANTS = ("global", "fieldwise", "columnwise")
ADAPTIVE_VARIANTS = ("adaptive_fieldwise", "cowclip")
VARIANTS = ("none",) + CONSTANT_VARIANTS + ADAPTIVE_VARIANTS


@dataclass(frozen=True)
class ClipConfig:
    variant: str = "none"
    value: float | None = None            # constant-threshold variants, as applied
    r: float | None = None                # adaptive variants
    zeta: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown clip variant {self.variant!r}")
        if self.variant in CONSTANT_VARIANTS:
            if self.value is None or self.value <= 0:
                raise ValueError(f"{self.variant} clipping needs value > 0")
        if self.variant in ADAPTIVE_VARIANTS:
            if self.r is None or self.r <= 0 or self.zeta is None or self.zeta <= 0:
                raise ValueError(f"{self.variant} clipping needs r > 0 and zeta > 0")


def _scale_rows(grads: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(grads, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    scale = np.minimum(1.0, thresholds / safe)
    # Thresholds built from int64 counts are float64; the gradient keeps its dtype.
    return grads * scale.astype(grads.dtype, copy=False)[:, None]


def _with_grads(sparse_grad: SparseGradient, grad_block: np.ndarray) -> SparseGradient:
    """A new SparseGradient sharing the input's id and count blocks.

    Clipping only rescales gradients, and no step writes into ids or counts,
    so sharing them is safe and saves a deep copy per step.
    """
    return SparseGradient(
        sparse_grad.id_block, grad_block, sparse_grad.count_block, sparse_grad.cuts
    )


def _clip_blocks(sparse_grad: SparseGradient, thresholds: list[float]) -> SparseGradient:
    """Rescale each field's gradient block whose norm exceeds its threshold."""
    factors = np.ones(sparse_grad.n_fields, sparse_grad.grad_block.dtype)
    for j, (g, threshold) in enumerate(zip(sparse_grad.grads, thresholds)):
        block_norm = float(np.linalg.norm(g))
        if block_norm > threshold and block_norm > 0:
            factors[j] = threshold / block_norm
    per_row = np.repeat(factors, np.diff(sparse_grad.cuts))
    return _with_grads(sparse_grad, sparse_grad.grad_block * per_row[:, None])


def cowclip(
    table: EmbeddingTable, sparse_grad: SparseGradient, r: float, zeta: float
) -> SparseGradient:
    """Adaptive column-wise clipping: per-id threshold cnt * max(r*||w||, zeta)."""
    if r <= 0 or zeta <= 0:
        raise ValueError("r and zeta must be > 0")
    w_norms = np.linalg.norm(np.take(table.block, sparse_grad.rows(table), axis=0), axis=1)
    thresholds = sparse_grad.count_block * np.maximum(r * w_norms, zeta)
    return _with_grads(sparse_grad, _scale_rows(sparse_grad.grad_block, thresholds))


def clip_global(sparse_grad: SparseGradient, value: float) -> SparseGradient:
    """One threshold over the concatenated norm of every embedding gradient."""
    # Field by field: one sum over the whole block adds in another order,
    # which would move the threshold's last bits.
    total = math.sqrt(sum(float((g ** 2).sum()) for g in sparse_grad.grads))
    grads = sparse_grad.grad_block
    if total > value and total > 0:
        grads = grads * (value / total)
    return _with_grads(sparse_grad, grads)


def clip_fieldwise(sparse_grad: SparseGradient, value: float) -> SparseGradient:
    """Constant threshold per field block."""
    return _clip_blocks(sparse_grad, [value] * sparse_grad.n_fields)


def clip_columnwise(sparse_grad: SparseGradient, value: float) -> SparseGradient:
    """Constant threshold per id vector: no counts, no weight-norm adaptivity."""
    grads = sparse_grad.grad_block
    return _with_grads(sparse_grad, _scale_rows(grads, np.full(len(grads), value)))


def clip_adaptive_fieldwise(
    table: EmbeddingTable, sparse_grad: SparseGradient, r: float, zeta: float
) -> SparseGradient:
    """Per-field threshold max(r*||field weight block||, zeta) on the grad block."""
    if r <= 0 or zeta <= 0:
        raise ValueError("r and zeta must be > 0")
    thresholds = [
        max(r * float(np.linalg.norm(table.weights[j])), zeta)
        for j in range(sparse_grad.n_fields)
    ]
    return _clip_blocks(sparse_grad, thresholds)


def apply_clip(
    cfg: ClipConfig,
    table: EmbeddingTable,
    sparse_grad: SparseGradient,
) -> SparseGradient:
    """Dispatch a ClipConfig; variant "none" returns the input untouched."""
    if cfg.variant == "none":
        return sparse_grad
    if cfg.variant == "global":
        return clip_global(sparse_grad, cfg.value)
    if cfg.variant == "fieldwise":
        return clip_fieldwise(sparse_grad, cfg.value)
    if cfg.variant == "columnwise":
        return clip_columnwise(sparse_grad, cfg.value)
    if cfg.variant == "adaptive_fieldwise":
        return clip_adaptive_fieldwise(table, sparse_grad, cfg.r, cfg.zeta)
    return cowclip(table, sparse_grad, cfg.r, cfg.zeta)
