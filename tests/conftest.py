"""Helpers shared by the test modules."""

import numpy as np

from ctrlab.embedding import SparseGradient


def sparse_gradient(table, ids, grads, counts) -> SparseGradient:
    """A gradient for table from per-field ids, (k_j, dim) grads and counts.

    Field j's ids are field-local and increasing; the fields past len(ids)
    touch nothing.
    """
    none = np.zeros(0, dtype=np.int64)
    rows = [np.asarray(i, dtype=np.int64) + o for i, o in zip(ids, table.offsets[:-1].tolist())]
    return SparseGradient(
        np.concatenate([none, *rows]),
        np.concatenate(grads) if len(grads) else np.zeros((0, table.dim), table.block.dtype),
        np.concatenate([none, *(np.asarray(c, dtype=np.int64) for c in counts)]),
        table.offsets,
    )
