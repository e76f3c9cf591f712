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

DEFAULT_GLOBAL_CLIP = 25.0
DEFAULT_R = 1.0
DEFAULT_ZETA = 1e-4


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


def clip_by_threshold(g: np.ndarray, threshold: float) -> np.ndarray:
    """g -> min(1, threshold/||g||) * g, with the zero gradient left alone."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    norm = float(np.linalg.norm(g))
    if norm <= threshold or norm == 0.0:
        return g
    return g * (threshold / norm)


def _scale_rows(grads: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(grads, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    scale = np.minimum(1.0, thresholds / safe)
    return grads * scale[:, None]


def _with_grads(sparse_grad: SparseGradient, grads: list[np.ndarray]) -> SparseGradient:
    """A new SparseGradient sharing the input's ids and counts arrays.

    Clipping only rescales gradients, and no step writes into ids or counts,
    so sharing them is safe and saves a deep copy per step.
    """
    return SparseGradient(list(sparse_grad.ids), list(grads), list(sparse_grad.counts))


def _clip_blocks(sparse_grad: SparseGradient, thresholds: list[float]) -> SparseGradient:
    """Rescale each field's gradient block whose norm exceeds its threshold."""
    grads = []
    for g, threshold in zip(sparse_grad.grads, thresholds):
        block_norm = float(np.linalg.norm(g))
        if block_norm > threshold and block_norm > 0:
            g = g * (threshold / block_norm)
        grads.append(g)
    return _with_grads(sparse_grad, grads)


def cowclip(
    table: EmbeddingTable,
    sparse_grad: SparseGradient,
    r: float = DEFAULT_R,
    zeta: float = DEFAULT_ZETA,
) -> SparseGradient:
    """Adaptive column-wise clipping: per-id threshold cnt * max(r*||w||, zeta)."""
    if r <= 0 or zeta <= 0:
        raise ValueError("r and zeta must be > 0")
    grads = list(sparse_grad.grads)
    for j, ids in enumerate(sparse_grad.ids):
        if not len(ids):
            continue
        w_norms = np.linalg.norm(table.weights[j][ids], axis=1)
        thresholds = sparse_grad.counts[j] * np.maximum(r * w_norms, zeta)
        grads[j] = _scale_rows(grads[j], thresholds)
    return _with_grads(sparse_grad, grads)


def clip_global(sparse_grad: SparseGradient, value: float = DEFAULT_GLOBAL_CLIP) -> SparseGradient:
    """One threshold over the concatenated norm of every embedding gradient."""
    total = math.sqrt(sum(float((g ** 2).sum()) for g in sparse_grad.grads))
    grads = sparse_grad.grads
    if total > value and total > 0:
        factor = value / total
        grads = [g * factor for g in grads]
    return _with_grads(sparse_grad, grads)


def clip_fieldwise(sparse_grad: SparseGradient, value: float) -> SparseGradient:
    """Constant threshold per field block."""
    return _clip_blocks(sparse_grad, [value] * sparse_grad.n_fields)


def clip_columnwise(sparse_grad: SparseGradient, value: float) -> SparseGradient:
    """Constant threshold per id vector: no counts, no weight-norm adaptivity."""
    grads = [
        _scale_rows(g, np.full(len(ids), value)) if len(ids) else g
        for ids, g in zip(sparse_grad.ids, sparse_grad.grads)
    ]
    return _with_grads(sparse_grad, grads)


def clip_adaptive_fieldwise(
    table: EmbeddingTable,
    sparse_grad: SparseGradient,
    r: float = DEFAULT_R,
    zeta: float = DEFAULT_ZETA,
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
