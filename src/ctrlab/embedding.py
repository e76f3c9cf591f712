"""Embedding tables stored as one block, with sparse per-id gradient accumulation.

All categorical fields share one row-major (sum of vocab sizes, dim) block.
Field j owns rows offsets[j]:offsets[j+1], and row offsets[j] + k is the
learned vector for id k of field j: the "column" of the classic
one-hot-times-matrix view, and the unit that CowClip clips.  These rows are
data's id space, so field_offsets and split_rows are defined in data and
re-exported here.  Lookup, accumulation, clipping and the optimizer steps
work on them, so each is one pass over all fields.

Gradients for a batch are sparse: only ids that occur in the batch carry
entries, each with the number of samples that selected it.  A touched id is
named by its table row, so lookup, accumulation, clipping and the optimizer
steps all index the block with the gradient's sorted rows and never convert
between rows and field-local ids.  A gradient keeps the field offsets of the
table it was built for; clipping and the optimizer refuse a table with other
offsets, which would step the wrong rows.

A batch is indexed once per lookup: LookupRecord.unique_rows gives the
sorted distinct rows, each entry's place among them and their counts,
what np.unique gives, without sorting the whole batch.  Each distinct row
claims its slot in the table's scratch (EmbeddingTable.row_slot, one intp
per row), and only the k distinct rows are sorted.  The scratch holds no
state between calls: a call reads only the slots it has written.

A training run's table holds only the ids that occur in its data
(data.drop_unreferenced_ids relabels them 0..n_j-1 per field, in order, and
take_ids keeps their rows of a table drawn over the full fields), so a pass
over every row, as dense L2's optimizer step makes, costs what those ids
cost, not the vocabulary.

Three per-field views remain: EmbeddingTable.weights and SparseGradient.ids
and .grads, tuples of one array per field (ids field-local).  They are read
only by the benchmark's tracer, perfbench/spans.py, and go once it reads the
blocks; nothing else in ctrlab reads them.

Training runs in float32 (TRAIN_DTYPE), as the paper does on its GPU: the
dense-mode optimizer pass over every table entry is bound by memory traffic
and the MLP by matrix products, and float32 halves the bytes of the one and
doubles the BLAS rate of the other.  TRAIN_DTYPE is defined in data, where
a dataset stores its dense features in it, and re-exported here.
init_table and models.load_checkpoint are the only places that pick a
model's dtype: models.init_model builds a model in
its embedding table's dtype, and every other step keeps its inputs' dtype,
so the finite-difference checks, which build a float64 table, run the same
code in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import TRAIN_DTYPE, Batch, FieldSchema, field_offsets, out_of_range_field, split_rows


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
        # The optimizer steps the block in place and writes lazy rows whole,
        # through a view of one record per row.
        if not self.block.flags.c_contiguous:
            raise ValueError(f"table block of shape {self.block.shape} is not C-contiguous")
        object.__setattr__(self, "offsets", offsets)

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    @cached_property
    def weights(self) -> tuple[np.ndarray, ...]:
        """Per-field views of the block, for perfbench/spans.py only."""
        return split_rows(self.block, self.offsets)

    @cached_property
    def row_slot(self) -> np.ndarray:
        """Scratch of one intp per table row for LookupRecord.unique_rows;
        its entries mean nothing between calls.  A fresh array per call
        would fault in its pages each time (5.7 ms on a 10M-row table)."""
        return np.empty(len(self.block), dtype=np.intp)


@dataclass
class LookupRecord:
    """The table row that produced each field slice of an embedded batch."""

    rows: np.ndarray     # (b, n_fields) int64, field-local ids + the table's field offsets
    offsets: np.ndarray  # the table's field offsets
    dim: int
    slot: np.ndarray     # the table's row_slot scratch

    @cached_property
    def unique_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """np.unique(rows.ravel(), return_inverse=True, return_counts=True),
        once per batch for every table the rows index.

        A slot per table row stands in for np.unique's sort of the whole
        batch, so the cost is O(b * n_fields + k log k) for k distinct rows.
        """
        flat = self.rows.ravel()
        slot, position = self.slot, np.arange(len(flat))
        # Each row's slot ends up holding one of its positions, whichever
        # write wins, so exactly one entry per distinct row finds its own
        # position there.
        slot[flat] = position
        uniq = np.sort(flat[slot[flat] == position])
        slot[uniq] = np.arange(len(uniq))
        inverse = slot[flat]
        return uniq, inverse, np.bincount(inverse, minlength=len(uniq))


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
        """Field boundaries in the blocks, for the per-field views only."""
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


def take_ids(table: EmbeddingTable, kept: tuple[np.ndarray, ...]) -> EmbeddingTable:
    """A new table of table's rows for the ids kept[j] of each field j, in
    that order: new id i of field j is old id kept[j][i], as
    data.drop_unreferenced_ids relabels them."""
    if len(kept) != table.n_fields:
        raise ValueError(f"kept ids for {len(kept)} fields, the table has {table.n_fields}")
    fields = tuple(FieldSchema(f.name, len(k)) for f, k in zip(table.fields, kept))
    rows = np.concatenate([k + o for k, o in zip(kept, table.offsets[:-1].tolist())])
    return EmbeddingTable(fields, table.dim, np.take(table.block, rows, axis=0))


def lookup_forward(table: EmbeddingTable, batch: Batch) -> tuple[np.ndarray, LookupRecord]:
    """Embed a batch: output row i concatenates each field's vector for its id."""
    ids = batch.categorical
    b, n_fields = ids.shape
    if n_fields != table.n_fields:
        raise ValueError("batch field count does not match table")
    offsets = table.offsets
    # Unchecked, an id of vocab_j would silently read field j+1's first row.
    bad = out_of_range_field(ids, table.fields)
    if bad is not None:
        raise IndexError(f"id out of range for field {bad.name!r}")
    rows = ids + offsets[:-1]
    embedded = np.take(table.block, rows.ravel(), axis=0).reshape(b, n_fields * table.dim)
    return embedded, LookupRecord(rows, offsets, table.dim, table.row_slot)


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
    # One bincount per column.  Each row's sum adds its entries in batch
    # order from 0.0, in float64, exactly as np.add.at would; the sum over b
    # takes the upstream's dtype.  Per column, no (row, column) bin index is
    # built and each pass scatters into k floats, not k * d: 0.86 against
    # 0.96 to 2.6 ms for one (row, column) bincount at criteo's b=1024, dim 10
    # (2-core Xeon).
    columns = upstream.reshape(-1, d)
    grads = np.empty((len(uniq), d), upstream.dtype)
    for c in range(d):
        grads[:, c] = np.bincount(inverse, weights=columns[:, c], minlength=len(uniq)) / b
    return SparseGradient(uniq, grads, counts.astype(np.int64), record.offsets)

