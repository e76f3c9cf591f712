"""Embedding tables, sparse gradient accumulation, and the dense-oracle checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlab.data import CATEGORICAL, Batch, FieldSchema
from ctrlab.embedding import (
    SparseGradient,
    accumulate_gradients,
    column_norms,
    init_table,
    lookup_forward,
)


def _fields(*vocabs):
    return tuple(FieldSchema(f"c{j}", CATEGORICAL, v) for j, v in enumerate(vocabs))


def _batch(rng, vocabs, b):
    cat = np.stack([rng.integers(0, v, size=b) for v in vocabs], axis=1)
    return Batch(rng.integers(0, 2, size=b).astype(np.uint8), np.zeros((b, 0)), cat)


def chi_mean(dim: int) -> float:
    """Mean of the chi distribution with `dim` degrees of freedom."""
    return math.sqrt(2.0) * math.gamma((dim + 1) / 2) / math.gamma(dim / 2)


class TestInit:
    def test_column_norm_small_sigma(self):
        table = init_table(_fields(20_000), dim=10, init_sigma=1e-4, seed=0)
        norms = column_norms(table)[0]
        # chi-distribution oracle: E||col|| = sigma * chi_mean(10) = 3.0843e-4
        assert norms.mean() == pytest.approx(1e-4 * chi_mean(10), rel=0.01)
        assert norms.mean() == pytest.approx(math.sqrt(10) * 1e-4, rel=0.05)

    def test_column_norm_large_sigma(self):
        table = init_table(_fields(20_000), dim=10, init_sigma=1e-2, seed=1)
        norms = column_norms(table)[0]
        assert norms.mean() == pytest.approx(math.sqrt(10) * 1e-2, rel=0.05)

    def test_determinism(self):
        a = init_table(_fields(50, 30), dim=4, init_sigma=0.1, seed=9)
        b = init_table(_fields(50, 30), dim=4, init_sigma=0.1, seed=9)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_validation(self):
        with pytest.raises(ValueError):
            init_table(_fields(5), dim=0)
        with pytest.raises(ValueError):
            init_table(_fields(5), dim=2, init_sigma=0.0)


class TestLookup:
    def test_zero_table(self):
        table = init_table(_fields(5, 5), dim=3, init_sigma=1.0, seed=0)
        for w in table.weights:
            w[...] = 0.0
        batch = _batch(np.random.default_rng(0), [5, 5], 4)
        embedded, _ = lookup_forward(table, batch)
        assert np.all(embedded == 0.0)

    def test_single_sample_is_concatenation(self):
        table = init_table(_fields(4, 6), dim=2, init_sigma=1.0, seed=2)
        batch = Batch(np.array([0], dtype=np.uint8), np.zeros((1, 0)),
                      np.array([[3, 5]], dtype=np.int64))
        embedded, _ = lookup_forward(table, batch)
        expected = np.concatenate([table.weights[0][3], table.weights[1][5]])
        assert np.array_equal(embedded[0], expected)

    def test_matches_naive_gather(self):
        rng = np.random.default_rng(3)
        vocabs = [7, 11, 5]
        table = init_table(_fields(*vocabs), dim=4, init_sigma=1.0, seed=3)
        batch = _batch(rng, vocabs, 16)
        embedded, _ = lookup_forward(table, batch)
        for i in range(16):
            row = np.concatenate(
                [table.weights[j][batch.categorical[i, j]] for j in range(3)]
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

    def test_copy_is_independent(self):
        table = init_table(_fields(3, 5), dim=2, init_sigma=1.0, seed=4)
        twin = table.copy()
        assert not np.shares_memory(twin.block, table.block)
        assert np.array_equal(twin.block, table.block)
        twin.weights[0][...] = 0.0
        assert np.any(table.weights[0] != 0.0)
        assert all(np.shares_memory(w, twin.block) for w in twin.weights)

    def test_block_matches_per_field_draws(self):
        # The block is filled field by field from one generator, so it holds
        # the per-field draws that separate per-field arrays used to hold.
        vocabs, dim, sigma = (6, 1, 9), 3, 0.5
        table = init_table(_fields(*vocabs), dim=dim, init_sigma=sigma, seed=11)
        rng = np.random.default_rng(11)
        for v, w in zip(vocabs, table.weights):
            assert np.array_equal(w, rng.normal(0.0, sigma, size=(v, dim)))


class TestAccumulate:
    def test_counts(self):
        table = init_table(_fields(5), dim=2, init_sigma=1.0, seed=0)
        ids = np.array([[1], [1], [1], [2], [2], [4]], dtype=np.int64)
        batch = Batch(np.zeros(6, dtype=np.uint8), np.zeros((6, 0)), ids)
        _, record = lookup_forward(table, batch)
        sparse = accumulate_gradients(record, np.ones((6, 2)), 6)
        assert list(sparse.ids[0]) == [1, 2, 4]
        assert list(sparse.counts[0]) == [3, 2, 1]
        assert sparse.counts[0].sum() == 6  # one id per field per sample

    def test_absent_id_has_no_entry(self):
        table = init_table(_fields(10), dim=2, init_sigma=1.0, seed=0)
        ids = np.array([[3]], dtype=np.int64)
        _, record = lookup_forward(table, Batch(np.zeros(1, dtype=np.uint8),
                                                np.zeros((1, 0)), ids))
        sparse = accumulate_gradients(record, np.ones((1, 2)), 1)
        assert 7 not in sparse.ids[0]
        assert len(sparse.ids[0]) == 1

    def test_matches_dense_onehot_oracle(self):
        # d(loss)/dW for the one-hot matrix product X @ W is X^T @ upstream / b
        rng = np.random.default_rng(5)
        vocabs = [6, 9]
        dim, b = 3, 32
        table = init_table(_fields(*vocabs), dim=dim, init_sigma=1.0, seed=5)
        batch = _batch(rng, vocabs, b)
        _, record = lookup_forward(table, batch)
        upstream = rng.normal(size=(b, len(vocabs) * dim))
        sparse = accumulate_gradients(record, upstream, b)
        for j, v in enumerate(vocabs):
            onehot = np.zeros((b, v))
            onehot[np.arange(b), batch.categorical[:, j]] = 1.0
            dense_grad = onehot.T @ upstream[:, j * dim : (j + 1) * dim] / b
            scattered = np.zeros((v, dim))
            scattered[sparse.ids[j]] = sparse.grads[j]
            assert np.max(np.abs(scattered - dense_grad)) < 1e-12

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
        sparse = accumulate_gradients(record, upstream, b)
        for j, v in enumerate(vocabs):
            block = upstream[:, j * dim : (j + 1) * dim]
            onehot = np.zeros((b, v))
            onehot[np.arange(b), batch.categorical[:, j]] = 1.0
            scattered = np.zeros((v, dim))
            scattered[sparse.ids[j]] = sparse.grads[j]
            assert np.max(np.abs(scattered - onehot.T @ block / b)) < 1e-12
            # np.add.at folds the same rows in the same order from 0.0
            uniq, inverse = np.unique(batch.categorical[:, j], return_inverse=True)
            sums = np.zeros((len(uniq), dim))
            np.add.at(sums, inverse, block)
            assert np.array_equal(sparse.ids[j], uniq)
            assert np.array_equal(sparse.grads[j], sums / b)
            assert np.array_equal(sparse.counts[j], np.bincount(inverse))

    def test_linearity(self):
        rng = np.random.default_rng(6)
        vocabs = [8]
        table = init_table(_fields(*vocabs), dim=2, init_sigma=1.0, seed=6)
        batch = _batch(rng, vocabs, 10)
        _, record = lookup_forward(table, batch)
        u1 = rng.normal(size=(10, 2))
        u2 = rng.normal(size=(10, 2))
        sum_of = accumulate_gradients(record, u1 + u2, 10)
        parts = [accumulate_gradients(record, u, 10) for u in (u1, u2)]
        assert np.allclose(sum_of.grads[0], parts[0].grads[0] + parts[1].grads[0],
                           rtol=0, atol=1e-14)

    def test_one_block_field_after_field(self):
        rng = np.random.default_rng(12)
        vocabs = [4, 1, 6]
        table = init_table(_fields(*vocabs), dim=3, init_sigma=1.0, seed=12)
        batch = _batch(rng, vocabs, 9)
        _, record = lookup_forward(table, batch)
        sparse = accumulate_gradients(record, rng.normal(size=(9, 9)), 9)
        assert sparse.n_fields == 3
        assert np.array_equal(sparse.rows(table), np.unique(record.rows))
        for j, ids in enumerate(sparse.ids):
            assert np.array_equal(ids, np.unique(batch.categorical[:, j]))
            assert np.shares_memory(sparse.grads[j], sparse.grad_block)
        rebuilt = SparseGradient.from_fields(sparse.ids, sparse.grads, sparse.counts)
        for a, b in zip(
            (rebuilt.id_block, rebuilt.grad_block, rebuilt.count_block, rebuilt.cuts),
            (sparse.id_block, sparse.grad_block, sparse.count_block, sparse.cuts),
        ):
            assert np.array_equal(a, b)

    def test_misaligned_upstream_rejected(self):
        table = init_table(_fields(4), dim=2, init_sigma=1.0, seed=0)
        _, record = lookup_forward(table, _batch(np.random.default_rng(0), [4], 3))
        with pytest.raises(ValueError):
            accumulate_gradients(record, np.zeros((3, 5)), 3)


class TestColumnNorms:
    def test_zero_and_unit(self):
        table = init_table(_fields(3), dim=2, init_sigma=1.0, seed=0)
        table.weights[0][...] = [[0.0, 0.0], [1.0, 0.0], [3.0, 4.0]]
        norms = column_norms(table)[0]
        assert norms[0] == 0.0
        assert norms[1] == 1.0
        assert norms[2] == 5.0

    def test_matches_elementwise_oracle(self):
        table = init_table(_fields(40), dim=7, init_sigma=1.0, seed=8)
        norms = column_norms(table)[0]
        for k in range(40):
            oracle = math.sqrt(sum(x * x for x in table.weights[0][k]))
            assert abs(norms[k] - oracle) <= 1e-15 * oracle


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
            [x @ w for x, w in zip(onehots, table.weights)], axis=1
        )
        assert np.max(np.abs(embedded - dense_forward)) < 1e-12
        upstream = rng.normal(size=(b, len(vocabs) * dim))
        sparse = accumulate_gradients(record, upstream, b)
        for j, v in enumerate(vocabs):
            dense_grad = onehots[j].T @ upstream[:, j * dim : (j + 1) * dim] / b
            scattered = np.zeros((v, dim))
            scattered[sparse.ids[j]] = sparse.grads[j]
            assert np.max(np.abs(scattered - dense_grad)) < 1e-12

