"""Embedding tables with sparse per-id gradient accumulation.

Each categorical field owns a (vocab_size, dim) matrix whose row k is the
learned vector for id k: the "column" of the classic one-hot-times-matrix
view, and the unit that column-wise clipping operates on.  Gradients for a
batch are sparse: only ids that occur in the batch carry entries, each with
the number of samples that selected it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, Batch, Dataset, FieldSchema


@dataclass
class EmbeddingTable:
    fields: tuple[FieldSchema, ...]
    dim: int
    weights: list[np.ndarray]  # per field, (vocab_size, dim) float64
    init_sigma: float
    seed: int

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(
            self.fields, self.dim, [w.copy() for w in self.weights], self.init_sigma, self.seed
        )


@dataclass
class LookupRecord:
    """Which (field, id) produced each row of an embedded batch."""

    ids: np.ndarray  # (b, n_fields) int64
    dim: int


@dataclass
class SparseGradient:
    """Per field: unique touched ids, their gradient vectors, and occurrence counts."""

    ids: list[np.ndarray]     # (k_j,) int64, strictly increasing
    grads: list[np.ndarray]   # (k_j, dim) float64
    counts: list[np.ndarray]  # (k_j,) int64, samples selecting the id

    @property
    def n_fields(self) -> int:
        return len(self.ids)


def init_table(
    fields: tuple[FieldSchema, ...] | Dataset,
    dim: int,
    init_sigma: float = 1e-4,
    seed: int = 0,
) -> EmbeddingTable:
    """Entries i.i.d. Normal(0, init_sigma); expected id-vector norm ~ sqrt(dim)*sigma."""
    if isinstance(fields, Dataset):
        fields = fields.categorical_fields
    fields = tuple(fields)
    if any(f.kind != CATEGORICAL for f in fields):
        raise ValueError("embedding tables are built over categorical fields only")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if init_sigma <= 0:
        raise ValueError("init_sigma must be > 0")
    rng = np.random.default_rng(seed)
    weights = [rng.normal(0.0, init_sigma, size=(f.vocab_size, dim)) for f in fields]
    return EmbeddingTable(fields, dim, weights, init_sigma, seed)


def lookup_forward(table: EmbeddingTable, batch: Batch) -> tuple[np.ndarray, LookupRecord]:
    """Embed a batch: output row i concatenates each field's vector for its id."""
    ids = batch.categorical
    if ids.shape[1] != table.n_fields:
        raise ValueError("batch field count does not match table")
    parts = []
    for j, w in enumerate(table.weights):
        col = ids[:, j]
        if len(col) and (col.min() < 0 or col.max() >= len(w)):
            raise IndexError(f"id out of range for field {table.fields[j].name!r}")
        parts.append(w[col])
    embedded = np.concatenate(parts, axis=1) if parts else np.zeros((len(ids), 0))
    return embedded, LookupRecord(ids, table.dim)


def accumulate_gradients(
    record: LookupRecord, upstream: np.ndarray, batch_size: int
) -> SparseGradient:
    """Fold per-sample upstream gradients into per-id sums scaled by 1/b.

    upstream holds d(per-sample loss)/d(embedded row): one row per sample,
    field slices side by side.  Ids absent from the batch get no entry.
    """
    b, width = upstream.shape
    ids = record.ids
    d = record.dim
    if b != len(ids) or width != ids.shape[1] * d:
        raise ValueError("upstream gradient rows do not align with the lookup record")
    cols = np.arange(d)
    out_ids, out_grads, out_counts = [], [], []
    for j in range(ids.shape[1]):
        uniq, inverse, counts = np.unique(ids[:, j], return_inverse=True, return_counts=True)
        # One bin per (unique id, column); bincount adds each bin's samples in
        # row order starting from 0.0, exactly as np.add.at would.
        bins = (inverse.reshape(-1, 1) * d + cols).ravel()
        sums = np.bincount(
            bins, weights=upstream[:, j * d : (j + 1) * d].ravel(), minlength=len(uniq) * d
        ).reshape(len(uniq), d)
        out_ids.append(uniq)
        out_grads.append(sums / batch_size)
        out_counts.append(counts.astype(np.int64))
    return SparseGradient(out_ids, out_grads, out_counts)


def column_norms(obj: EmbeddingTable | SparseGradient) -> list[np.ndarray]:
    """Euclidean norm of every id vector (tables) or touched gradient (sparse)."""
    if isinstance(obj, EmbeddingTable):
        return [np.linalg.norm(w, axis=1) for w in obj.weights]
    return [np.linalg.norm(g, axis=1) for g in obj.grads]
