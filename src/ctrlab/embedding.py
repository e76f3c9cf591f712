"""Embedding tables stored as one block, with sparse per-id gradient accumulation.

All categorical fields share one row-major (sum of vocab sizes, dim) float64
block.  Field j owns rows offsets[j]:offsets[j+1], and row offsets[j] + k is
the learned vector for id k of field j: the "column" of the classic
one-hot-times-matrix view, and the unit that column-wise clipping operates
on.  Lookup, accumulation, clipping and the optimizer steps work on these
global rows, so each is one pass over all fields.

Gradients for a batch are sparse: only ids that occur in the batch carry
entries, each with the number of samples that selected it.  They too are
one block, field after field in table order.

The per-field arrays (EmbeddingTable.weights, SparseGradient.ids, .grads,
.counts) are views of the blocks, handed out as tuples: writing into a view
writes the block, and rebinding a field is an error rather than a silent
desync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import CATEGORICAL, Batch, Dataset, FieldSchema


def field_offsets(fields: tuple[FieldSchema, ...]) -> np.ndarray:
    """(n_fields + 1,) first block row of each field, then the total row count."""
    offsets = np.zeros(len(fields) + 1, dtype=np.int64)
    np.cumsum([f.vocab_size for f in fields], out=offsets[1:])
    offsets.flags.writeable = False
    return offsets


def split_rows(block: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-segment views of block: segment j is rows cuts[j]:cuts[j+1]."""
    return tuple(block[a:b] for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()))


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    fields: tuple[FieldSchema, ...]
    dim: int
    block: np.ndarray  # (sum of vocab sizes, dim) float64
    init_sigma: float
    seed: int
    offsets: np.ndarray = field(init=False, repr=False)
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)  # per field, views

    def __post_init__(self):
        offsets = field_offsets(self.fields)
        if self.block.shape != (offsets[-1], self.dim):
            raise ValueError(
                f"table block has shape {self.block.shape}, fields need ({offsets[-1]}, {self.dim})"
            )
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", split_rows(self.block, offsets))

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.fields, self.dim, self.block.copy(), self.init_sigma, self.seed)


@dataclass
class LookupRecord:
    """Which (field, id) produced each row of an embedded batch, and its table row."""

    ids: np.ndarray      # (b, n_fields) int64, field-local
    rows: np.ndarray     # (b, n_fields) int64, ids + the table's field offsets
    offsets: np.ndarray  # the table's field offsets
    dim: int


@dataclass(frozen=True, eq=False)
class SparseGradient:
    """Unique touched ids, their gradient vectors and occurrence counts.

    Field j owns entries cuts[j]:cuts[j+1] of every block; its ids are
    field-local and strictly increasing.  ids, grads and counts give the same
    entries per field.
    """

    id_block: np.ndarray     # (k,) int64
    grad_block: np.ndarray   # (k, dim) float64
    count_block: np.ndarray  # (k,) int64, samples selecting the id
    cuts: np.ndarray         # (n_fields + 1,) int64

    @classmethod
    def from_fields(cls, ids, grads, counts) -> "SparseGradient":
        """Build from per-field sequences of ids, (k_j, dim) grads and counts."""
        cuts = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum([len(a) for a in ids], out=cuts[1:])
        dim = np.shape(grads[0])[1] if len(grads) else 0
        none = np.zeros(0, dtype=np.int64)
        return cls(
            np.concatenate([none, *ids]),
            np.concatenate([np.zeros((0, dim)), *grads]),
            np.concatenate([none, *counts]),
            cuts,
        )

    @property
    def n_fields(self) -> int:
        return len(self.cuts) - 1

    @cached_property
    def ids(self) -> tuple[np.ndarray, ...]:
        return split_rows(self.id_block, self.cuts)

    @cached_property
    def grads(self) -> tuple[np.ndarray, ...]:
        return split_rows(self.grad_block, self.cuts)

    @cached_property
    def counts(self) -> tuple[np.ndarray, ...]:
        return split_rows(self.count_block, self.cuts)

    def rows(self, table: EmbeddingTable) -> np.ndarray:
        """The table's block rows of the touched ids."""
        if self.n_fields > table.n_fields:
            raise ValueError("sparse gradient has more fields than the table")
        return self.id_block + np.repeat(table.offsets[: self.n_fields], np.diff(self.cuts))


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
    table = EmbeddingTable(fields, dim, np.empty((field_offsets(fields)[-1], dim)), init_sigma, seed)
    # Field by field, so the draw never holds a second whole-table array.
    for f, w in zip(fields, table.weights):
        w[...] = rng.normal(0.0, init_sigma, size=(f.vocab_size, dim))
    return table


def lookup_forward(table: EmbeddingTable, batch: Batch) -> tuple[np.ndarray, LookupRecord]:
    """Embed a batch: output row i concatenates each field's vector for its id."""
    ids = batch.categorical
    b, n_fields = ids.shape
    if n_fields != table.n_fields:
        raise ValueError("batch field count does not match table")
    offsets = table.offsets
    # Unchecked, an id of vocab_j would silently read field j+1's first row.
    if b:
        bad = (ids.min(axis=0) < 0) | (ids.max(axis=0) >= np.diff(offsets))
        if bad.any():
            raise IndexError(f"id out of range for field {table.fields[int(np.argmax(bad))].name!r}")
    rows = ids + offsets[:-1]
    embedded = np.take(table.block, rows.ravel(), axis=0).reshape(b, n_fields * table.dim)
    return embedded, LookupRecord(ids, rows, offsets, table.dim)


def accumulate_gradients(
    record: LookupRecord, upstream: np.ndarray, batch_size: int
) -> SparseGradient:
    """Fold per-sample upstream gradients into per-id sums scaled by 1/b.

    upstream holds d(per-sample loss)/d(embedded row): one row per sample,
    field slices side by side.  Ids absent from the batch get no entry.
    """
    b, width = upstream.shape
    rows = record.rows
    d = record.dim
    if b != len(rows) or width != rows.shape[1] * d:
        raise ValueError("upstream gradient rows do not align with the lookup record")
    uniq, inverse, counts = np.unique(rows.ravel(), return_inverse=True, return_counts=True)
    # One bin per (unique row, column).  A row belongs to one field, so
    # bincount adds each bin's samples in row order starting from 0.0,
    # exactly as np.add.at would.
    bins = (inverse.reshape(-1, 1) * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=upstream.ravel(), minlength=len(uniq) * d)
    cuts = np.searchsorted(uniq, record.offsets)
    ids = uniq - np.repeat(record.offsets[:-1], np.diff(cuts))
    return SparseGradient(
        ids, sums.reshape(len(uniq), d) / batch_size, counts.astype(np.int64), cuts
    )


def column_norms(obj: EmbeddingTable | SparseGradient) -> list[np.ndarray]:
    """Euclidean norm of every id vector (tables) or touched gradient (sparse)."""
    if isinstance(obj, EmbeddingTable):
        return [np.linalg.norm(w, axis=1) for w in obj.weights]
    return [np.linalg.norm(g, axis=1) for g in obj.grads]
