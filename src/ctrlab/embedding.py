"""Embedding tables stored as one block, with sparse per-id gradient accumulation.

All categorical fields share one row-major (sum of vocab sizes, dim) block.
Field j owns rows offsets[j]:offsets[j+1], and row offsets[j] + k is the
learned vector for id k of field j: the "column" of the classic
one-hot-times-matrix view, and the unit that column-wise clipping operates
on.  Lookup, accumulation, clipping and the optimizer steps work on these
global rows, so each is one pass over all fields.

Gradients for a batch are sparse: only ids that occur in the batch carry
entries, each with the number of samples that selected it.  A touched id is
named by its table row, so lookup, accumulation, clipping and the optimizer
steps all index the block with the gradient's sorted rows and never convert
between rows and field-local ids.  A gradient keeps the field offsets of the
table it was built for; clipping and the optimizer refuse a table with other
offsets, which would step the wrong rows.

Three per-field views remain: EmbeddingTable.weights and SparseGradient.ids
and .grads, tuples of one array per field (ids field-local).  They are read
only by the benchmark's tracer, perfbench/spans.py, and go once it reads the
blocks; nothing else in ctrlab reads them.

Training runs in float32 (TRAIN_DTYPE), as the paper does on its GPU: the
dense-mode optimizer pass over every table entry is bound by memory traffic
and the MLP by matrix products, and float32 halves the bytes of the one and
doubles the BLAS rate of the other.  init_table and models.load_checkpoint
are the only places that pick a dtype: models.init_model builds a model in
its embedding table's dtype, and every other step keeps its inputs' dtype,
so the finite-difference checks, which build a float64 table, run the same
code in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import CATEGORICAL, Batch, FieldSchema

# The dtype of every trained array: tables, dense weights, optimizer moments
# and activations.
TRAIN_DTYPE = np.float32


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
    block: np.ndarray  # (sum of vocab sizes, dim), TRAIN_DTYPE in training
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        offsets = field_offsets(self.fields)
        if self.block.shape != (offsets[-1], self.dim):
            raise ValueError(
                f"table block has shape {self.block.shape}, fields need ({offsets[-1]}, {self.dim})"
            )
        object.__setattr__(self, "offsets", offsets)

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    @cached_property
    def weights(self) -> tuple[np.ndarray, ...]:
        """Per-field views of the block, for perfbench/spans.py only."""
        return split_rows(self.block, self.offsets)


@dataclass
class LookupRecord:
    """The table row that produced each field slice of an embedded batch."""

    rows: np.ndarray     # (b, n_fields) int64, field-local ids + the table's field offsets
    offsets: np.ndarray  # the table's field offsets
    dim: int

    @cached_property
    def unique_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """np.unique of the rows, once per batch for every table they index."""
        return np.unique(self.rows.ravel(), return_inverse=True, return_counts=True)


@dataclass(frozen=True, eq=False)
class SparseGradient:
    """Touched table rows, their gradient vectors and occurrence counts.

    row_block is sorted, so field j owns entries cuts[j]:cuts[j+1] of every
    block.  offsets are the field offsets of the table the gradient was
    built for.
    """

    row_block: np.ndarray    # (k,) int64, strictly increasing
    grad_block: np.ndarray   # (k, dim), the dtype of the upstream gradient
    count_block: np.ndarray  # (k,) int64, samples selecting the row
    offsets: np.ndarray      # (n_fields + 1,) int64

    @cached_property
    def cuts(self) -> np.ndarray:
        """Field boundaries in the blocks, for the field-unit clips and the views."""
        return np.searchsorted(self.row_block, self.offsets)

    def check_table(self, table: EmbeddingTable) -> None:
        """Raise unless table has the field offsets the gradient was built for."""
        if self.offsets is not table.offsets and not np.array_equal(self.offsets, table.offsets):
            raise ValueError("sparse gradient was built for a table with other field offsets")

    @cached_property
    def ids(self) -> tuple[np.ndarray, ...]:
        """Field-local ids per field, for perfbench/spans.py only."""
        rows = split_rows(self.row_block, self.cuts)
        return tuple(r - o for r, o in zip(rows, self.offsets[:-1].tolist()))

    @cached_property
    def grads(self) -> tuple[np.ndarray, ...]:
        """Per-field views of grad_block, for perfbench/spans.py only."""
        return split_rows(self.grad_block, self.cuts)


def init_table(
    fields: tuple[FieldSchema, ...],
    dim: int,
    init_sigma: float = 1e-4,
    seed: int = 0,
    dtype=TRAIN_DTYPE,
) -> EmbeddingTable:
    """Entries i.i.d. Normal(0, init_sigma); expected id-vector norm ~ sqrt(dim)*sigma.

    The draws are float64 and are rounded to dtype as they are stored.
    """
    fields = tuple(fields)
    if any(f.kind != CATEGORICAL for f in fields):
        raise ValueError("embedding tables are built over categorical fields only")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not init_sigma > 0:
        raise ValueError("init_sigma must be > 0")
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(fields, dim, np.empty((field_offsets(fields)[-1], dim), dtype))
    # Field by field, so the draw never holds a second whole-table array.
    for f, w in zip(fields, split_rows(table.block, table.offsets)):
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
    return embedded, LookupRecord(rows, offsets, table.dim)


def accumulate_gradients(
    record: LookupRecord, upstream: np.ndarray, dim: int | None = None
) -> SparseGradient:
    """Fold per-sample upstream gradients into per-id sums scaled by 1/b, b
    the number of samples (upstream's rows).

    upstream holds d(per-sample loss)/d(embedded row): one row per sample,
    field slices of dim (default: the looked-up table's) entries side by
    side.  Ids absent from the batch get no entry.
    """
    b, width = upstream.shape
    rows = record.rows
    d = record.dim if dim is None else dim
    if b != len(rows) or width != rows.shape[1] * d:
        raise ValueError("upstream gradient rows do not align with the lookup record")
    uniq, inverse, counts = record.unique_rows
    # One bin per (unique row, column).  A row belongs to one field, so
    # bincount adds each bin's samples in row order starting from 0.0,
    # exactly as np.add.at would on float64.
    bins = (inverse.reshape(-1, 1) * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=upstream.ravel(), minlength=len(uniq) * d)
    # bincount sums in float64; the gradient takes the upstream's dtype.
    grads = (sums.reshape(len(uniq), d) / b).astype(upstream.dtype, copy=False)
    return SparseGradient(uniq, grads, counts.astype(np.int64), record.offsets)

