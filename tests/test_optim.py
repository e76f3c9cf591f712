"""Optimizer steps against scalar references; loss-scaling equivalences."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from ctrlab import optim
from ctrlab.data import FieldSchema
from ctrlab.embedding import TRAIN_DTYPE, EmbeddingTable, init_table
from ctrlab.optim import (
    BETA1,
    BETA2,
    EPS,
    AdamState,
    EmbedAdamState,
    WarmupSchedule,
    adam_sparse_step,
    adam_step,
    verify_adam_scaling_equivalence,
    verify_sgd_scaling_equivalence,
)

from conftest import sparse_gradient


def reference_adam_step(state, params, grads, lr):
    """The pure dense Adam step, kept as the bit-exact oracle for the in-place
    one: returns a new state and new arrays, inputs untouched."""
    t = state.t + 1
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    new_m, new_v, out = {}, {}, {}
    for name, w in params.items():
        g = grads[name]
        m = BETA1 * state.m[name] + (1.0 - BETA1) * g
        v = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        out[name] = w - lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        new_m[name], new_v[name] = m, v
    return AdamState(new_m, new_v, t), out


def scalar_adam(w, grads, lr, l2, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain-float Adam trajectory, the reference for the array implementation."""
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        g = g + l2 * w
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        w = w - lr * mhat / (math.sqrt(vhat) + eps)
        out.append(w)
    return out


class TestAdam:
    def test_first_step_is_signed_lr(self):
        for g in (3.0, -0.25):
            params = {"w": np.array([1.0])}
            state = AdamState.init(params)
            assert adam_step(state, params, {"w": np.array([g])}, lr=0.01) is None
            assert params["w"][0] == pytest.approx(1.0 - 0.01 * math.copysign(1.0, g), abs=1e-9)
            assert state.t == 1

    def test_zero_gradients_fix_params(self):
        params = {"w": np.array([0.5, -0.5])}
        state = AdamState.init(params)
        for _ in range(10):
            adam_step(state, params, {"w": np.zeros(2)}, lr=0.1)
        assert np.array_equal(params["w"], np.array([0.5, -0.5]))
        assert state.t == 10

    def test_hundred_steps_match_scalar_reference(self):
        rng = np.random.default_rng(1)
        grads = rng.normal(size=100)
        reference = scalar_adam(0.7, grads, lr=0.02, l2=0.0)
        params = {"w": np.array([0.7])}
        state = AdamState.init(params)
        for t, g in enumerate(grads):
            adam_step(state, params, {"w": np.array([g])}, lr=0.02)
            assert abs(params["w"][0] - reference[t]) < 1e-12

    def test_leaves_grads_untouched(self):
        params = {"w": np.array([1.0])}
        state = AdamState.init(params)
        grads = {"w": np.array([0.5])}
        adam_step(state, params, grads, lr=0.1)
        adam_step(state, params, grads, lr=0.1)
        assert state.t == 2 and params["w"][0] < 1.0
        assert grads["w"][0] == 0.5


class TestDenseInPlaceMatchesReference:
    # A 0-d tensor (the shape of lr.bias), a vector and a matrix.
    SHAPES = {"bias": (), "vec": (5,), "mat": (4, 3)}
    STEPS = 25

    def _params(self, rng):
        return {name: np.asarray(rng.normal(size=shape)) for name, shape in self.SHAPES.items()}

    def _grads(self, rng):
        return {name: np.asarray(rng.normal(scale=10.0 ** rng.uniform(-4, 0), size=shape))
                for name, shape in self.SHAPES.items()}

    def test_adam_step_bit_exact(self):
        rng = np.random.default_rng(23)
        params = self._params(rng)
        state = AdamState.init(params)
        ref_params = {k: w.copy() for k, w in params.items()}
        ref_state = AdamState.init(ref_params)
        for step in range(self.STEPS):
            grads = self._grads(rng)
            snapshot = {k: g.copy() for k, g in grads.items()}
            lr = float(rng.uniform(1e-3, 5e-2))
            ref_state, ref_params = reference_adam_step(ref_state, ref_params, grads, lr)
            assert adam_step(state, params, grads, lr) is None
            assert state.t == ref_state.t == step + 1
            for name, shape in self.SHAPES.items():
                assert params[name].shape == shape
                assert np.array_equal(params[name], ref_params[name])
                assert np.array_equal(state.m[name], ref_state.m[name])
                assert np.array_equal(state.v[name], ref_state.v[name])
                assert np.array_equal(grads[name], snapshot[name])


def _table_and_grad(vocab=6, dim=3, seed=0, sigma=0.01, dtype=TRAIN_DTYPE):
    fields = (FieldSchema("c", vocab),)
    table = init_table(fields, dim, init_sigma=sigma, seed=seed, dtype=dtype)
    return table


class TestAdamSparse:
    def test_empty_grad_lazy_mode_is_identity(self):
        table = _table_and_grad()
        state = EmbedAdamState.init(table)
        empty = sparse_gradient(table, [np.array([], dtype=np.int64)],
                                [np.zeros((0, 3))], [np.array([], dtype=np.int64)])
        before = table.block.copy()
        assert adam_sparse_step(state, table, empty, lr=0.1, l2=0.01, dense_l2=False) is None
        assert np.array_equal(table.block, before)

    def test_single_column_lazy_mode(self):
        table = _table_and_grad()
        state = EmbedAdamState.init(table)
        sparse = sparse_gradient(table, [np.array([2])], [np.ones((1, 3))], [np.array([1])])
        before = table.block.copy()
        adam_sparse_step(state, table, sparse, lr=0.1, dense_l2=False)
        changed = np.any(table.block != before, axis=1)
        assert list(np.flatnonzero(changed)) == [2]
        assert np.all(state.m_block[[0, 1, 3, 4, 5]] == 0.0)

    def test_dense_l2_decays_every_column(self):
        # scalar Adam-on-pure-L2 oracle: with zero data gradients the update
        # direction is sign(w) scaled by ~lr, so norms shrink monotonically
        table = _table_and_grad(sigma=0.05, seed=3)
        state = EmbedAdamState.init(table)
        empty = sparse_gradient(table, [np.array([], dtype=np.int64)],
                                [np.zeros((0, 3))], [np.array([], dtype=np.int64)])
        norms = [np.linalg.norm(table.block, axis=1)]
        for _ in range(5):
            adam_sparse_step(state, table, empty, lr=1e-3, l2=0.01, dense_l2=True)
            norms.append(np.linalg.norm(table.block, axis=1))
        for before, after in zip(norms, norms[1:]):
            assert np.all(after < before)

    def test_dense_l2_flushes_decayed_entries_to_zero(self):
        # Under pure L2 an absent id's entries shrink towards 0 without
        # reaching it; the periodic flush sets them to 0 before any turns
        # subnormal, where each op on it runs many times slower.
        table = _table_and_grad(vocab=4, dim=2, sigma=1e-2, seed=5)
        state = EmbedAdamState.init(table)
        empty = sparse_gradient(table, [np.array([], dtype=np.int64)],
                                [np.zeros((0, 2))], [np.array([], dtype=np.int64)])
        tiny = np.finfo(TRAIN_DTYPE).tiny
        for _ in range(800):
            adam_sparse_step(state, table, empty, lr=1e-3, l2=1e-4, dense_l2=True)
            for a in (table.block, state.m_block, state.v_block):
                assert not np.any((a != 0) & (np.abs(a) < tiny))
        assert not table.block.any() and not state.m_block.any()

    def test_dense_mode_matches_scalar_adam_per_entry(self):
        # float64, to meet the float64 scalar oracle at 1e-14
        table = _table_and_grad(vocab=2, dim=1, sigma=0.5, seed=4, dtype=np.float64)
        w0 = float(table.block[1, 0])
        state = EmbedAdamState.init(table)
        grads = [0.4, -0.2, 0.1]
        for g in grads:
            sparse = sparse_gradient(table, [np.array([1])], [np.array([[g]])], [np.array([1])])
            adam_sparse_step(state, table, sparse, lr=0.05, l2=0.0, dense_l2=True)
        reference = scalar_adam(w0, grads, lr=0.05, l2=0.0)
        assert table.block[1, 0] == pytest.approx(reference[-1], abs=1e-14)

    @pytest.mark.parametrize("dense_l2", [True, False])
    def test_gradient_for_other_vocab_sizes_is_rejected(self, dense_l2):
        # the same field count, so only the offsets tell the tables apart
        fields = [FieldSchema(f"c{j}", v) for j, v in enumerate((4, 6))]
        table = init_table(tuple(fields), 2, seed=1)
        other = init_table(tuple(fields[::-1]), 2, seed=1)
        sparse = sparse_gradient(other, [np.array([5]), np.array([0])],
                                 [np.ones((1, 2)), np.ones((1, 2))], [[1], [1]])
        state, before = EmbedAdamState.init(table), table.block.copy()
        with pytest.raises(ValueError, match="built for a table with other field offsets"):
            adam_sparse_step(state, table, sparse, 0.01, 1e-3, dense_l2=dense_l2)
        assert np.array_equal(table.block, before) and state.t == 0


@dataclass
class ReferenceAdamState:
    """The oracle's state: arrays shaped like EmbedAdamState's, which the oracle rebinds."""

    m_block: np.ndarray
    v_block: np.ndarray
    t: int
    col_t_block: np.ndarray


def reference_adam_sparse_step(state, table, sparse_grad, lr, l2=0.0, dense_l2=True):
    """The copy-then-update sparse Adam step, kept as the bit-exact oracle for
    the in-place one: returns a new state and table, inputs untouched."""
    new = ReferenceAdamState(
        state.m_block.copy(), state.v_block.copy(), state.t, state.col_t_block.copy()
    )
    out = EmbeddingTable(table.fields, table.dim, table.block.copy())
    new.t += 1
    w, rows = out.block, sparse_grad.row_block
    if dense_l2:
        bc1 = 1.0 - BETA1 ** new.t
        bc2 = 1.0 - BETA2 ** new.t
        g = l2 * w if l2 else np.zeros_like(w)
        g[rows] += sparse_grad.grad_block
        new.m_block = BETA1 * new.m_block + (1.0 - BETA1) * g
        new.v_block = BETA2 * new.v_block + (1.0 - BETA2) * g * g
        w -= lr * (new.m_block / bc1) / (np.sqrt(new.v_block / bc2) + EPS)
        if new.t % optim.FLUSH_EVERY == 0:
            flushed = np.abs(w) < np.sqrt(np.finfo(w.dtype).tiny)
            w[flushed] = 0.0
            new.m_block[flushed] = 0.0
    elif len(rows):
        g = sparse_grad.grad_block + (l2 * w[rows] if l2 else 0.0)
        new.col_t_block[rows] += 1
        tj = new.col_t_block[rows][:, None]
        m = BETA1 * new.m_block[rows] + (1.0 - BETA1) * g
        v = BETA2 * new.v_block[rows] + (1.0 - BETA2) * g * g
        new.m_block[rows], new.v_block[rows] = m, v
        # the per-row bias corrections in the table's dtype
        mhat = m / (1.0 - BETA1 ** tj).astype(w.dtype)
        vhat = v / (1.0 - BETA2 ** tj).astype(w.dtype)
        w[rows] -= lr * mhat / (np.sqrt(vhat) + EPS)
    return new, out


def _random_sparse_grad(rng, table, step):
    """Each field touches a random id subset, sometimes none; every fifth step
    the gradient leaves the table's last field empty.  The gradient is in the
    training dtype, as accumulate_gradients makes it."""
    vocabs = [f.vocab_size for f in table.fields]
    n_fields = len(vocabs) - 1 if step % 5 == 4 else len(vocabs)
    ids, grads, counts = [], [], []
    for j in range(n_fields):
        k = int(rng.integers(0, vocabs[j] + 1)) if rng.random() > 0.25 else 0
        touched = np.sort(rng.choice(vocabs[j], size=k, replace=False)).astype(np.int64)
        ids.append(touched)
        grads.append(rng.normal(scale=10.0 ** rng.uniform(-4, 0), size=(k, table.dim))
                     .astype(TRAIN_DTYPE))
        counts.append(rng.integers(1, 5, size=k).astype(np.int64))
    return sparse_gradient(table, ids, grads, counts)


def _blocks(sparse):
    return sparse.grad_block.copy(), sparse.row_block.copy(), sparse.count_block.copy()


def _assert_blocks_unchanged(sparse, before):
    # A step reads the gradient's blocks and never writes them.
    for now, then in zip((sparse.grad_block, sparse.row_block, sparse.count_block), before):
        assert np.array_equal(now, then)


class TestInPlaceMatchesReference:
    VOCABS = (7, 1, 12)
    DIM = 3
    STEPS = 25

    def _table(self):
        fields = tuple(FieldSchema(f"c{j}", v) for j, v in enumerate(self.VOCABS))
        return init_table(fields, self.DIM, init_sigma=0.1, seed=8)

    @pytest.mark.parametrize("dense_l2", [True, False])
    @pytest.mark.parametrize("l2", [0.0, 3e-3])
    def test_adam_sparse_step_bit_exact(self, dense_l2, l2):
        rng = np.random.default_rng(21)
        table = self._table()
        state = EmbedAdamState.init(table)
        ref_table = EmbeddingTable(table.fields, table.dim, table.block.copy())
        ref_state = EmbedAdamState.init(table)
        for step in range(self.STEPS):
            sparse = _random_sparse_grad(rng, table, step)
            lr = float(rng.uniform(1e-3, 5e-2))
            ref_state, ref_table = reference_adam_sparse_step(
                ref_state, ref_table, sparse, lr, l2=l2, dense_l2=dense_l2
            )
            before = _blocks(sparse)
            assert adam_sparse_step(state, table, sparse, lr, l2, dense_l2=dense_l2) is None
            _assert_blocks_unchanged(sparse, before)
            assert state.t == ref_state.t == step + 1
            assert np.array_equal(table.block, ref_table.block)
            assert np.array_equal(state.m_block, ref_state.m_block)
            assert np.array_equal(state.v_block, ref_state.v_block)
            if not dense_l2:
                assert np.array_equal(state.col_t_block, ref_state.col_t_block)

    @pytest.mark.parametrize("l2", [0.0, 3e-3])
    def test_adam_dense_pass_in_slices_bit_exact(self, l2, monkeypatch):
        # A 7-entry slice steps the 20-row, dim-3 table two rows at a time,
        # with slice edges inside and across fields.
        monkeypatch.setattr(optim, "DENSE_CHUNK_BYTES", 7 * np.dtype(TRAIN_DTYPE).itemsize)
        self.test_adam_sparse_step_bit_exact(True, l2)

    def test_dense_mode_leaves_col_t_alone(self):
        table = self._table()
        state = EmbedAdamState.init(table)
        sparse = _random_sparse_grad(np.random.default_rng(0), table, 0)
        adam_sparse_step(state, table, sparse, 0.01, 1e-3, dense_l2=True)
        assert not state.col_t_block.any()


def _million_row_table():
    """A 1M x 8 table, its fresh state and a gradient touching k of its ids:
    a step that copied or swept the table at once would allocate 64 MB.  k
    is what one field of a b=1024 batch touches at most."""
    vocab, dim, k = 1_000_000, 8, 1024
    fields = (FieldSchema("c", vocab),)
    table = init_table(fields, dim, init_sigma=0.1, seed=1)
    # np.zeros maps its pages lazily, so the untouched moments cost no memory.
    state = EmbedAdamState.init(table)
    rng = np.random.default_rng(2)
    ids = np.sort(rng.choice(vocab, size=k, replace=False)).astype(np.int64)
    sparse = sparse_gradient(table, [ids], [rng.normal(size=(k, dim))], [np.ones(k, dtype=np.int64)])
    return table, state, sparse, ids


def _traced_peak(step) -> int:
    """The peak of the bytes that step() allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_lazy_adam_step_is_o_touched():
    table, state, sparse, ids = _million_row_table()
    vocab = len(table.block)
    before = table.block.copy()

    assert _traced_peak(lambda: adam_sparse_step(state, table, sparse, 0.01, 1e-3,
                                                 dense_l2=False)) < 2**20

    untouched = np.ones(vocab, dtype=bool)
    untouched[ids] = False
    changed = np.any(table.block != before, axis=1)
    assert np.array_equal(np.flatnonzero(changed), ids)
    assert np.array_equal(table.block[untouched].view(np.int64),
                          before[untouched].view(np.int64))
    for moment in (state.m_block, state.v_block):
        assert not np.any(moment[untouched].view(np.int64))
    assert np.array_equal(np.flatnonzero(state.col_t_block), ids)
    assert np.all(state.col_t_block[ids] == 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_whole_row_write_matches_fancy_assignment(dtype):
    # The lazy step's scatter copies each row's bytes; the fancy assignment it
    # replaced copies each entry.  A NaN with a payload must come through
    # bit for bit, which comparing the floats would not show.
    rng = np.random.default_rng(5)
    block = rng.normal(size=(12, 3)).astype(dtype)
    rows = np.array([0, 4, 5, 11])
    values = rng.normal(size=(4, 3)).astype(dtype)
    bits = values.view(np.uint32 if dtype == np.float32 else np.uint64)
    bits[2, 1] = 0x7FC00123 if dtype == np.float32 else 0x7FF8000000000123
    assert np.isnan(values[2, 1])
    fancy, whole = block.copy(), block.copy()
    fancy[rows] = values
    np.put(optim._whole_rows(whole), rows, optim._whole_rows(values))
    assert whole.tobytes() == fancy.tobytes()


def test_dense_adam_step_allocates_a_few_slices():
    # The dense-mode pass works in buffers of one DENSE_CHUNK_BYTES slice.
    # This step is a flush step, so it allocates the flush mask too.
    table, state, sparse, _ = _million_row_table()
    state.t = optim.FLUSH_EVERY - 1

    assert _traced_peak(lambda: adam_sparse_step(state, table, sparse, 0.01, 1e-3,
                                                 dense_l2=True)) < 2**20
    assert state.t % optim.FLUSH_EVERY == 0


class TestWarmup:
    def test_ramp_and_plateau(self):
        sched = WarmupSchedule(target_lr=0.4, warmup_steps=10)
        assert sched.lr(0) == 0.0
        assert sched.lr(5) == pytest.approx(0.2)
        assert sched.lr(10) == 0.4  # reaches the target exactly
        assert sched.lr(11) == 0.4

    def test_no_warmup(self):
        sched = WarmupSchedule(target_lr=0.3, warmup_steps=0)
        assert sched.lr(1) == 0.3

    def test_continuity(self):
        sched = WarmupSchedule(target_lr=1.0, warmup_steps=100)
        values = [sched.lr(t) for t in range(0, 120)]
        diffs = np.diff(values)
        assert np.all(diffs >= 0.0)
        assert np.max(diffs) <= 0.0100001


class TestScalingEquivalence:
    def test_c_one_is_exact(self):
        assert verify_adam_scaling_equivalence(1.0, seed=0) == 0.0
        assert verify_sgd_scaling_equivalence(1.0, seed=0) == 0.0

    def test_adam_scale_invariance_without_l2(self):
        # gradient stream scaled by c with l2=0 leaves the trajectory alone
        for c in (3.0, 50.0):
            assert verify_adam_scaling_equivalence(c, l2=0.0, steps=200, seed=2,
                                                   eps=1e-12) < 1e-9

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            verify_adam_scaling_equivalence(0.0)
        with pytest.raises(ValueError):
            verify_sgd_scaling_equivalence(-1.0)
