"""Embedding tables, sparse gradient accumulation, and the dense-oracle checks."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlab.data import Batch, FieldSchema
from ctrlab.embedding import (
    TRAIN_DTYPE,
    EmbeddingTable,
    accumulate_gradients,
    init_table,
    lookup_forward,
    take_ids,
)

from conftest import sparse_gradient


def _fields(*vocabs):
    return tuple(FieldSchema(f"c{j}", v) for j, v in enumerate(vocabs))


def _field_rows(table, j, block=None):
    """Field j's rows of the table block, or of an array shaped like it."""
    return (table.block if block is None else block)[table.offsets[j]:table.offsets[j + 1]]


def _field_entries(sparse, block, j):
    """Field j's entries of one of the gradient's blocks."""
    return block[sparse.cuts[j]:sparse.cuts[j + 1]]


def _scattered(table, sparse):
    """The gradient as a dense array shaped like the table block."""
    dense = np.zeros(table.block.shape)
    dense[sparse.row_block] = sparse.grad_block
    return dense


def _batch(rng, vocabs, b):
    cat = np.stack([rng.integers(0, v, size=b) for v in vocabs], axis=1)
    return Batch(rng.integers(0, 2, size=b).astype(np.uint8), np.zeros((b, 0)), cat)


def chi_mean(dim: int) -> float:
    """Mean of the chi distribution with `dim` degrees of freedom."""
    return math.sqrt(2.0) * math.gamma((dim + 1) / 2) / math.gamma(dim / 2)


class TestInit:
    def test_column_norm_small_sigma(self):
        table = init_table(_fields(20_000), dim=10, init_sigma=1e-4, seed=0)
        norms = np.linalg.norm(table.block, axis=1)
        # chi-distribution oracle: E||col|| = sigma * chi_mean(10) = 3.0843e-4
        assert norms.mean() == pytest.approx(1e-4 * chi_mean(10), rel=0.01)
        assert norms.mean() == pytest.approx(math.sqrt(10) * 1e-4, rel=0.05)

    def test_column_norm_large_sigma(self):
        table = init_table(_fields(20_000), dim=10, init_sigma=1e-2, seed=1)
        norms = np.linalg.norm(table.block, axis=1)
        assert norms.mean() == pytest.approx(math.sqrt(10) * 1e-2, rel=0.05)

    def test_determinism(self):
        a = init_table(_fields(50, 30), dim=4, init_sigma=0.1, seed=9)
        b = init_table(_fields(50, 30), dim=4, init_sigma=0.1, seed=9)
        assert np.array_equal(a.block, b.block)

    def test_validation(self):
        with pytest.raises(ValueError):
            init_table(_fields(5), dim=0)
        with pytest.raises(ValueError):
            init_table(_fields(5), dim=2, init_sigma=0.0)

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="init_sigma"):
            init_table(_fields(5), dim=2, init_sigma=float("nan"))


def test_take_ids_keeps_each_fields_rows_in_order():
    full = init_table(_fields(6, 4), dim=3, init_sigma=0.1, seed=2)
    kept = (np.array([0, 2, 5]), np.array([3]))
    table = take_ids(full, kept)
    assert table.fields == _fields(3, 1) and table.dim == 3
    np.testing.assert_array_equal(_field_rows(table, 0), _field_rows(full, 0)[[0, 2, 5]])
    np.testing.assert_array_equal(_field_rows(table, 1), _field_rows(full, 1)[[3]])
    assert not np.shares_memory(table.block, full.block)
    with pytest.raises(ValueError, match="kept ids for 1 fields, the table has 2"):
        take_ids(full, kept[:1])


class TestLookup:
    def test_zero_table(self):
        table = init_table(_fields(5, 5), dim=3, init_sigma=1.0, seed=0)
        table.block[...] = 0.0
        batch = _batch(np.random.default_rng(0), [5, 5], 4)
        embedded, _ = lookup_forward(table, batch)
        assert np.all(embedded == 0.0)

    def test_single_sample_is_concatenation(self):
        table = init_table(_fields(4, 6), dim=2, init_sigma=1.0, seed=2)
        batch = Batch(np.array([0], dtype=np.uint8), np.zeros((1, 0)),
                      np.array([[3, 5]], dtype=np.int64))
        embedded, _ = lookup_forward(table, batch)
        expected = np.concatenate([_field_rows(table, 0)[3], _field_rows(table, 1)[5]])
        assert np.array_equal(embedded[0], expected)

    def test_matches_naive_gather(self):
        rng = np.random.default_rng(3)
        vocabs = [7, 11, 5]
        table = init_table(_fields(*vocabs), dim=4, init_sigma=1.0, seed=3)
        batch = _batch(rng, vocabs, 16)
        embedded, _ = lookup_forward(table, batch)
        for i in range(16):
            row = np.concatenate(
                [_field_rows(table, j)[batch.categorical[i, j]] for j in range(3)]
            )
            assert np.array_equal(embedded[i], row)

    def test_out_of_range(self):
        table = init_table(_fields(4), dim=2, init_sigma=1.0, seed=0)
        batch = Batch(np.array([0], dtype=np.uint8), np.zeros((1, 0)),
                      np.array([[4]], dtype=np.int64))
        with pytest.raises(IndexError):
            lookup_forward(table, batch)

    @pytest.mark.parametrize("bad,field", [((3, 0, 0), "c0"), ((0, 5, 0), "c1"),
                                           ((0, 0, -1), "c2"), ((0, -1, 2), "c1")])
    def test_out_of_range_in_any_field_names_it(self, bad, field):
        # In the shared block, id vocab_j of field j is a valid row of field
        # j+1, so only the range check stands between it and a wrong vector.
        table = init_table(_fields(3, 5, 2), dim=2, init_sigma=1.0, seed=0)
        ids = np.array([[0, 0, 0], bad, [1, 1, 1]], dtype=np.int64)
        batch = Batch(np.zeros(3, dtype=np.uint8), np.zeros((3, 0)), ids)
        with pytest.raises(IndexError, match=repr(field)):
            lookup_forward(table, batch)

    def test_empty_batch_passes_the_range_check(self):
        table = init_table(_fields(3, 5), dim=2, init_sigma=1.0, seed=0)
        batch = Batch(np.zeros(0, dtype=np.uint8), np.zeros((0, 0)), np.zeros((0, 2), dtype=np.int64))
        embedded, record = lookup_forward(table, batch)
        assert embedded.shape == (0, 4) and record.rows.shape == (0, 2)


def _unique_rows_match_np_unique(record):
    expected = np.unique(record.rows.ravel(), return_inverse=True, return_counts=True)
    for got, want in zip(record.unique_rows, expected):
        assert got.dtype.kind == "i" and np.array_equal(got, want)


class TestUniqueRows:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_batches_with_repeats(self, seed):
        rng = np.random.default_rng(seed)
        vocabs = [1, 3, 50, 1000]
        table = init_table(_fields(*vocabs), dim=2, seed=seed)
        _, record = lookup_forward(table, _batch(rng, vocabs, 64))
        assert len(record.unique_rows[0]) < record.rows.size
        _unique_rows_match_np_unique(record)

    def test_one_row_batch(self):
        table = init_table(_fields(4, 4), dim=3, seed=0)
        _, record = lookup_forward(table, _batch(np.random.default_rng(1), [4, 4], 1))
        _unique_rows_match_np_unique(record)

    def test_every_row_once(self):
        # Three fields of 5 ids, each id once, in a shuffled order.
        rng = np.random.default_rng(2)
        table = init_table(_fields(5, 5, 5), dim=2, seed=0)
        ids = np.stack([rng.permutation(5) for _ in range(3)], axis=1)
        _, record = lookup_forward(table, Batch(np.zeros(5, np.uint8), np.zeros((5, 0)), ids))
        assert np.array_equal(record.unique_rows[0], np.arange(15))
        _unique_rows_match_np_unique(record)

    def test_float64_table(self):
        table = init_table(_fields(7, 2), dim=2, seed=0, dtype=np.float64)
        _, record = lookup_forward(table, _batch(np.random.default_rng(3), [7, 2], 30))
        _unique_rows_match_np_unique(record)

    def test_records_sharing_a_table_in_reverse_order(self):
        # Both lookups hand out the table's one scratch; the second record is
        # indexed first, so the first finds the scratch as the second left it.
        rng = np.random.default_rng(4)
        vocabs = [20, 6, 300]
        table = init_table(_fields(*vocabs), dim=2, seed=0)
        _, first = lookup_forward(table, _batch(rng, vocabs, 40))
        _, second = lookup_forward(table, _batch(rng, vocabs, 17))
        assert first.slot is second.slot is table.row_slot
        _unique_rows_match_np_unique(second)
        _unique_rows_match_np_unique(first)

    def test_empty_batch(self):
        table = init_table(_fields(3, 5), dim=2, seed=0)
        batch = Batch(np.zeros(0, dtype=np.uint8), np.zeros((0, 0)), np.zeros((0, 2), dtype=np.int64))
        _, record = lookup_forward(table, batch)
        _unique_rows_match_np_unique(record)


@pytest.mark.parametrize("d", [1, 10])
def test_sums_match_one_bincount_over_row_column_bins(d):
    # The form the per-column bincounts replaced: one bincount over the bins
    # inverse*d + column.  It adds the same float64s in the same order, so a
    # float32 gradient must come out with the same bits.
    rng = np.random.default_rng(d)
    vocabs, b = [3, 40, 500], 300
    table = init_table(_fields(*vocabs), dim=d, seed=0)
    _, record = lookup_forward(table, _batch(rng, vocabs, b))
    upstream = rng.normal(size=(b, len(vocabs) * d)).astype(np.float32)
    uniq, inverse, _ = record.unique_rows
    bins = (inverse.reshape(-1, 1) * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=upstream.ravel(), minlength=len(uniq) * d)
    want = (sums.reshape(len(uniq), d) / b).astype(np.float32)
    got = accumulate_gradients(record, upstream).grad_block
    assert got.flags.c_contiguous and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestBlockLayout:
    def test_fields_are_views_of_one_block(self):
        table = init_table(_fields(3, 5, 2), dim=4, init_sigma=1.0, seed=1)
        assert table.block.shape == (10, 4)
        assert list(table.offsets) == [0, 3, 8, 10]
        for j, w in enumerate(table.weights):
            assert np.shares_memory(w, table.block)
            assert np.array_equal(w, table.block[table.offsets[j]:table.offsets[j + 1]])

    def test_write_through_a_field_view_shows_in_lookup(self):
        table = init_table(_fields(3, 5), dim=2, init_sigma=1.0, seed=2)
        table.weights[1][4] = [7.0, -7.0]
        batch = Batch(np.zeros(1, dtype=np.uint8), np.zeros((1, 0)),
                      np.array([[2, 4]], dtype=np.int64))
        embedded, _ = lookup_forward(table, batch)
        assert np.array_equal(embedded[0], np.concatenate([table.weights[0][2], [7.0, -7.0]]))

    def test_fields_cannot_be_rebound(self):
        table = init_table(_fields(3, 5), dim=2, init_sigma=1.0, seed=3)
        with pytest.raises(AttributeError):
            table.weights = [np.zeros_like(w) for w in table.weights]
        with pytest.raises(TypeError):
            table.weights[0] = np.zeros((3, 2))
        with pytest.raises(AttributeError):
            table.block = np.zeros((8, 2))

    def test_block_must_be_c_contiguous(self):
        # A column slice of a wider array has the right shape, but its rows
        # are not packed, so no whole-row view of it exists.
        wide = np.zeros((8, 4))
        with pytest.raises(ValueError, match=r"table block of shape \(8, 2\) is not C-contiguous"):
            EmbeddingTable(_fields(3, 5), 2, wide[:, :2])

    def test_copy_is_independent(self):
        table = init_table(_fields(3, 5), dim=2, init_sigma=1.0, seed=4)
        twin = EmbeddingTable(table.fields, table.dim, table.block.copy())
        assert not np.shares_memory(twin.block, table.block)
        assert np.array_equal(twin.block, table.block)
        twin.weights[0][...] = 0.0
        assert np.any(table.weights[0] != 0.0)
        assert all(np.shares_memory(w, twin.block) for w in twin.weights)

    def test_block_matches_per_field_draws(self):
        # The block is filled field by field from one generator, so it holds
        # the per-field draws that separate per-field arrays used to hold,
        # rounded to the training dtype.
        vocabs, dim, sigma = (6, 1, 9), 3, 0.5
        table = init_table(_fields(*vocabs), dim=dim, init_sigma=sigma, seed=11)
        assert table.block.dtype == TRAIN_DTYPE
        rng = np.random.default_rng(11)
        for j, v in enumerate(vocabs):
            expected = rng.normal(0.0, sigma, size=(v, dim)).astype(TRAIN_DTYPE)
            assert np.array_equal(_field_rows(table, j), expected)


class TestAccumulate:
    def test_counts(self):
        table = init_table(_fields(5), dim=2, init_sigma=1.0, seed=0)
        ids = np.array([[1], [1], [1], [2], [2], [4]], dtype=np.int64)
        batch = Batch(np.zeros(6, dtype=np.uint8), np.zeros((6, 0)), ids)
        _, record = lookup_forward(table, batch)
        sparse = accumulate_gradients(record, np.ones((6, 2)))
        assert list(sparse.row_block) == [1, 2, 4]
        assert list(sparse.count_block) == [3, 2, 1]
        assert sparse.count_block.sum() == 6  # one id per field per sample

    def test_absent_id_has_no_entry(self):
        table = init_table(_fields(10), dim=2, init_sigma=1.0, seed=0)
        ids = np.array([[3]], dtype=np.int64)
        _, record = lookup_forward(table, Batch(np.zeros(1, dtype=np.uint8),
                                                np.zeros((1, 0)), ids))
        sparse = accumulate_gradients(record, np.ones((1, 2)))
        assert 7 not in sparse.row_block
        assert len(sparse.row_block) == 1

    def test_matches_dense_onehot_oracle(self):
        # d(loss)/dW for the one-hot matrix product X @ W is X^T @ upstream / b
        rng = np.random.default_rng(5)
        vocabs = [6, 9]
        dim, b = 3, 32
        table = init_table(_fields(*vocabs), dim=dim, init_sigma=1.0, seed=5)
        batch = _batch(rng, vocabs, b)
        _, record = lookup_forward(table, batch)
        upstream = rng.normal(size=(b, len(vocabs) * dim))
        sparse = accumulate_gradients(record, upstream)
        scattered = _scattered(table, sparse)
        for j, v in enumerate(vocabs):
            onehot = np.zeros((b, v))
            onehot[np.arange(b), batch.categorical[:, j]] = 1.0
            dense_grad = onehot.T @ upstream[:, j * dim : (j + 1) * dim] / b
            assert np.max(np.abs(_field_rows(table, j, scattered) - dense_grad)) < 1e-12

    @settings(deadline=None, max_examples=80)
    @given(
        vocabs=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        dim=st.integers(1, 5),
        b=st.integers(1, 64),
        seed=st.integers(0, 2**31),
    )
    def test_property_onehot_oracle_and_add_at(self, vocabs, dim, b, seed):
        rng = np.random.default_rng(seed)
        table = init_table(_fields(*vocabs), dim=dim, init_sigma=1.0, seed=0)
        batch = _batch(rng, vocabs, b)
        _, record = lookup_forward(table, batch)
        upstream = rng.normal(size=(b, len(vocabs) * dim))
        sparse = accumulate_gradients(record, upstream)
        scattered = _scattered(table, sparse)
        for j, v in enumerate(vocabs):
            block = upstream[:, j * dim : (j + 1) * dim]
            onehot = np.zeros((b, v))
            onehot[np.arange(b), batch.categorical[:, j]] = 1.0
            assert np.max(np.abs(_field_rows(table, j, scattered) - onehot.T @ block / b)) < 1e-12
            # np.add.at folds the same rows in the same order from 0.0
            uniq, inverse = np.unique(batch.categorical[:, j], return_inverse=True)
            sums = np.zeros((len(uniq), dim))
            np.add.at(sums, inverse, block)
            rows, grads, counts = (
                _field_entries(sparse, a, j)
                for a in (sparse.row_block, sparse.grad_block, sparse.count_block)
            )
            assert np.array_equal(rows, uniq + table.offsets[j])
            assert np.array_equal(grads, sums / b)
            assert np.array_equal(counts, np.bincount(inverse))

    def test_linearity(self):
        rng = np.random.default_rng(6)
        vocabs = [8]
        table = init_table(_fields(*vocabs), dim=2, init_sigma=1.0, seed=6)
        batch = _batch(rng, vocabs, 10)
        _, record = lookup_forward(table, batch)
        u1 = rng.normal(size=(10, 2))
        u2 = rng.normal(size=(10, 2))
        sum_of = accumulate_gradients(record, u1 + u2)
        parts = [accumulate_gradients(record, u) for u in (u1, u2)]
        assert np.allclose(sum_of.grad_block, parts[0].grad_block + parts[1].grad_block,
                           rtol=0, atol=1e-14)

    def test_one_block_field_after_field(self):
        rng = np.random.default_rng(12)
        vocabs = [4, 1, 6]
        table = init_table(_fields(*vocabs), dim=3, init_sigma=1.0, seed=12)
        batch = _batch(rng, vocabs, 9)
        _, record = lookup_forward(table, batch)
        sparse = accumulate_gradients(record, rng.normal(size=(9, 9)))
        assert sparse.offsets is table.offsets
        assert np.array_equal(sparse.row_block, np.unique(record.rows))
        assert len(sparse.cuts) == 4 and sparse.cuts[-1] == len(sparse.row_block)
        # The views perfbench's tracer reads: field-local ids, and grads that
        # are views of the block.
        assert len(sparse.ids) == len(sparse.grads) == 3
        for j, ids in enumerate(sparse.ids):
            assert np.array_equal(ids, np.unique(batch.categorical[:, j]))
            assert np.shares_memory(sparse.grads[j], sparse.grad_block)
        counts = [_field_entries(sparse, sparse.count_block, j) for j in range(3)]
        rebuilt = sparse_gradient(table, sparse.ids, sparse.grads, counts)
        for a, b in zip(
            (rebuilt.row_block, rebuilt.grad_block, rebuilt.count_block, rebuilt.offsets),
            (sparse.row_block, sparse.grad_block, sparse.count_block, sparse.offsets),
        ):
            assert np.array_equal(a, b)

    def test_misaligned_upstream_rejected(self):
        table = init_table(_fields(4), dim=2, init_sigma=1.0, seed=0)
        _, record = lookup_forward(table, _batch(np.random.default_rng(0), [4], 3))
        with pytest.raises(ValueError):
            accumulate_gradients(record, np.zeros((3, 5)))


class TestDenseEquivalence:
    def test_forward_backward_match_matrix_product(self):
        # Whole pipeline vs the dense embedding-as-matrix-product formulation
        rng = np.random.default_rng(7)
        vocabs = [13, 64]
        dim, b = 5, 24
        table = init_table(_fields(*vocabs), dim=dim, init_sigma=0.7, seed=7)
        batch = _batch(rng, vocabs, b)
        embedded, record = lookup_forward(table, batch)
        onehots = []
        for j, v in enumerate(vocabs):
            x = np.zeros((b, v))
            x[np.arange(b), batch.categorical[:, j]] = 1.0
            onehots.append(x)
        dense_forward = np.concatenate(
            [x @ _field_rows(table, j) for j, x in enumerate(onehots)], axis=1
        )
        assert np.max(np.abs(embedded - dense_forward)) < 1e-12
        upstream = rng.normal(size=(b, len(vocabs) * dim))
        sparse = accumulate_gradients(record, upstream)
        scattered = _scattered(table, sparse)
        for j in range(len(vocabs)):
            dense_grad = onehots[j].T @ upstream[:, j * dim : (j + 1) * dim] / b
            assert np.max(np.abs(_field_rows(table, j, scattered) - dense_grad)) < 1e-12



def test_views_are_read_only_in_embedding():
    # EmbeddingTable.weights and SparseGradient.ids/.grads exist for the
    # benchmark's tracer alone; once it reads the blocks they can be deleted
    # without touching any other module.
    src = Path(__file__).resolve().parent.parent / "src" / "ctrlab"
    readers = []
    for path in sorted(src.glob("*.py")):
        if path.name == "embedding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("weights", "ids", "grads"):
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not readers, readers
