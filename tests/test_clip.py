"""CowClip: hand-evaluated thresholds, norm/direction/idempotence laws."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlab.clip import ClipConfig, apply_clip, cowclip
from ctrlab.data import FieldSchema
from ctrlab.embedding import init_table

from conftest import sparse_gradient


def _table(vocabs, dim=4, sigma=0.1, seed=0):
    # float64, since the tests hold the clip to float64 hand values and bounds
    fields = tuple(FieldSchema(f"c{j}", v) for j, v in enumerate(vocabs))
    return init_table(fields, dim, init_sigma=sigma, seed=seed, dtype=np.float64)


def _fields(rng, table, touched_per_field=3, scale=1.0):
    """Per-field ids, grads and counts touching a few ids of every field."""
    ids, grads, counts = [], [], []
    for f in table.fields:
        k = min(touched_per_field, f.vocab_size)
        ids.append(np.sort(rng.choice(f.vocab_size, size=k, replace=False)))
        grads.append(rng.normal(scale=scale, size=(k, table.dim)))
        counts.append(rng.integers(1, 6, size=k))
    return ids, grads, counts


def _sparse(rng, table, touched_per_field=3, scale=1.0):
    return sparse_gradient(table, *_fields(rng, table, touched_per_field, scale))


class TestCowClip:
    def test_hand_case_weight_dominates(self):
        # threshold = cnt * max(r*||w||, zeta) = 2 * max(0.1, 1e-5) = 0.2
        table = _table([3], dim=2)
        table.block[1] = np.array([0.1, 0.0])
        g = np.array([[0.6, 0.8]])  # norm 1
        sparse = sparse_gradient(table, [np.array([1])], [g], [np.array([2])])
        out = cowclip(table, sparse, r=1.0, zeta=1e-5)
        assert np.linalg.norm(out.grad_block[0]) == pytest.approx(0.2, rel=1e-12)

    def test_hand_case_zeta_dominates(self):
        table = _table([3], dim=2)
        table.block[0] = np.array([1e-7, 0.0])
        g = np.array([[1.0, 0.0]])
        sparse = sparse_gradient(table, [np.array([0])], [g], [np.array([1])])
        out = cowclip(table, sparse, r=1.0, zeta=1e-4)
        assert np.linalg.norm(out.grad_block[0]) == pytest.approx(1e-4, rel=1e-12)

    def test_under_threshold_bit_identical(self):
        rng = np.random.default_rng(1)
        table = _table([8], sigma=10.0, seed=1)  # huge weights -> huge thresholds
        sparse = _sparse(rng, table, scale=0.01)
        out = cowclip(table, sparse, r=1.0, zeta=1e-5)
        assert np.array_equal(out.grad_block, sparse.grad_block)

    def test_occurrence_count_flag(self):
        table = _table([3], dim=2)
        table.block[1] = np.array([0.1, 0.0])
        g = np.array([[1.0, 0.0]])
        sparse = sparse_gradient(table, [np.array([1])], [g], [np.array([4])])
        with_cnt = cowclip(table, sparse, r=1.0, zeta=1e-5)
        assert np.linalg.norm(with_cnt.grad_block[0]) == pytest.approx(0.4, rel=1e-12)

    def test_huge_r_and_zeta_is_identity(self):
        rng = np.random.default_rng(2)
        table = _table([5, 7], seed=2)
        sparse = _sparse(rng, table, scale=5.0)
        out = cowclip(table, sparse, r=1e12, zeta=1e12)
        assert np.array_equal(out.grad_block, sparse.grad_block)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**31))
    def test_contract(self, seed):
        """Norm bound, direction preservation, idempotence, for random triples."""
        rng = np.random.default_rng(seed)
        table = _table([6, 4], sigma=float(rng.uniform(1e-6, 1.0)), seed=seed % 100)
        sparse = _sparse(rng, table, scale=float(rng.uniform(1e-4, 10.0)))
        r = float(rng.uniform(0.1, 5.0))
        zeta = float(rng.uniform(1e-6, 1e-2))
        out = cowclip(table, sparse, r=r, zeta=zeta)
        again = cowclip(table, out, r=r, zeta=zeta)
        w_norms = np.linalg.norm(table.block[sparse.row_block], axis=1)
        thresholds = sparse.count_block * np.maximum(r * w_norms, zeta)
        norms = np.linalg.norm(out.grad_block, axis=1)
        assert np.all(norms <= thresholds + 1e-12)
        for i in range(len(norms)):
            g_in, g_out = sparse.grad_block[i], out.grad_block[i]
            if np.linalg.norm(g_in) > 0:
                cos = (g_out @ g_in) / (np.linalg.norm(g_out) * np.linalg.norm(g_in) + 1e-300)
                assert cos > 1 - 1e-12 or np.linalg.norm(g_out) == 0
        # idempotent up to one ulp: a re-clip of an at-threshold column can
        # rescale by 1 - O(1e-16) when the recomputed norm rounds upward
        assert np.allclose(again.grad_block, out.grad_block, rtol=1e-12, atol=0)

    def test_threshold_monotonicity(self):
        table = _table([2], dim=2)
        table.block[0] = np.array([0.2, 0.0])
        g = np.array([[10.0, 0.0]])

        def norm_out(r, zeta, cnt, w_scale=1.0):
            t2 = _table([2], dim=2)
            t2.block[0] = np.array([0.2 * w_scale, 0.0])
            sparse = sparse_gradient(t2, [np.array([0])], [g.copy()], [np.array([cnt])])
            return np.linalg.norm(cowclip(t2, sparse, r=r, zeta=zeta).grad_block[0])

        base = norm_out(1.0, 1e-4, 1)
        assert norm_out(2.0, 1e-4, 1) >= base      # r
        assert norm_out(1.0, 0.5, 1) >= base       # zeta
        assert norm_out(1.0, 1e-4, 3) >= base      # cnt
        assert norm_out(1.0, 1e-4, 1, w_scale=4.0) >= base  # ||w||


CLIPPING_CONFIGS = [
    ("cowclip", {"r": 1.0, "zeta": 1e-4}),
]


class TestConfigAndDispatch:
    def test_variant_field_validation(self):
        with pytest.raises(ValueError, match="^clip.zeta must be > 0"):
            ClipConfig(variant="cowclip", r=1.0)  # needs zeta
        with pytest.raises(ValueError, match="^clip.variant must be one of"):
            ClipConfig(variant="whatever")
        with pytest.raises(ValueError,
                           match="^clip.variant must be one of none, cowclip, got 'global'$"):
            ClipConfig(variant="global", r=1.0, zeta=1e-4)
        with pytest.raises(ValueError, match="^clip.r must be > 0"):
            cowclip(_table([3]), _sparse(np.random.default_rng(0), _table([3])), r=0.0, zeta=1e-4)
        ClipConfig(variant="none")
        ClipConfig(variant="cowclip", r=1.0, zeta=1e-4)

    @pytest.mark.parametrize("variant,kept", [
        ("none", {}),
        ("cowclip", {"r": 3.0, "zeta": 4.0}),
    ])
    def test_variant_keeps_exactly_the_parameters_it_reads(self, variant, kept):
        # A parameter the variant does not read is dropped, in range or not.
        for unread in (1.0, 0.0, -1.0, math.nan, math.inf, None):
            cfg = ClipConfig(variant, **{"r": unread, "zeta": unread, **kept})
            assert asdict(cfg) == {"variant": variant, "r": None, "zeta": None, **kept}

    def test_none_returns_same_object(self):
        rng = np.random.default_rng(7)
        table = _table([4], seed=7)
        sparse = _sparse(rng, table)
        assert apply_clip(ClipConfig(variant="none"), table, sparse) is sparse

    @pytest.mark.parametrize("variant,kwargs", CLIPPING_CONFIGS)
    def test_idempotence_all_variants(self, variant, kwargs):
        rng = np.random.default_rng(8)
        table = _table([6, 5], seed=8)
        sparse = _sparse(rng, table, scale=3.0)
        cfg = ClipConfig(variant=variant, **kwargs)
        once = apply_clip(cfg, table, sparse)
        twice = apply_clip(cfg, table, once)
        assert np.allclose(twice.grad_block, once.grad_block, rtol=1e-12, atol=0)

    def test_inputs_never_mutated(self):
        rng = np.random.default_rng(9)
        table = _table([6], seed=9)
        sparse = _sparse(rng, table, scale=100.0)
        before = sparse.grad_block.copy()
        cowclip(table, sparse, r=1.0, zeta=1e-4)
        assert np.array_equal(sparse.grad_block, before)

    @pytest.mark.parametrize("variant,kwargs", CLIPPING_CONFIGS)
    def test_gradient_for_other_vocab_sizes_is_rejected(self, variant, kwargs):
        # the same field count, so only the offsets tell the tables apart
        table, other = _table([4, 6], seed=11), _table([6, 4], seed=11)
        sparse = _sparse(np.random.default_rng(11), other)
        with pytest.raises(ValueError, match="built for a table with other field offsets"):
            apply_clip(ClipConfig(variant=variant, **kwargs), table, sparse)

    @pytest.mark.parametrize("variant,kwargs", CLIPPING_CONFIGS)
    def test_apply_clip_shares_ids_and_leaves_input_alone(self, variant, kwargs):
        rng = np.random.default_rng(10)
        table = _table([6, 5, 4], seed=10)
        # the last field touches nothing
        sparse = sparse_gradient(table, *(group[:2] for group in _fields(rng, table, scale=100.0)))
        blocks = (sparse.row_block, sparse.grad_block, sparse.count_block, sparse.offsets)
        snapshot = [a.copy() for a in blocks]
        out = apply_clip(ClipConfig(variant=variant, **kwargs), table, sparse)
        assert out is not sparse
        assert all(np.array_equal(a, b) for a, b in zip(blocks, snapshot))
        assert out.row_block is sparse.row_block
        assert out.count_block is sparse.count_block
        assert out.offsets is sparse.offsets
        assert not np.array_equal(out.grad_block, sparse.grad_block)


def _clip_units(cfg, table, sparse):
    """(row indices into the grad block, threshold) for every id CowClip clips."""
    w = table.block[sparse.row_block]
    return [(np.array([i]), sparse.count_block[i] * max(cfg.r * np.linalg.norm(w[i]), cfg.zeta))
            for i in range(len(sparse.grad_block))]


class TestClipContractProperty:
    @settings(deadline=None, max_examples=150)
    @given(
        vocabs=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        dropped=st.integers(0, 3),
        dim=st.integers(1, 4),
        r=st.floats(0.05, 20.0),
        zeta=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_every_unit_is_scaled_down_to_its_threshold(
        self, vocabs, dropped, dim, r, zeta, seed
    ):
        rng = np.random.default_rng(seed)
        table = _table(vocabs, dim=dim, sigma=10.0 ** rng.uniform(-3, 1), seed=seed % 1000)
        # the gradient may leave the table's last fields empty, and may skip fields
        n_fields = max(1, len(vocabs) - dropped)
        ids, grads, counts = [], [], []
        for v in vocabs[:n_fields]:
            k = int(rng.integers(0, v + 1))
            ids.append(np.sort(rng.choice(v, size=k, replace=False)))
            grads.append(rng.normal(size=(k, dim)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1)))
            counts.append(rng.integers(1, 6, size=k))
        sparse = sparse_gradient(table, ids, grads, counts)
        snapshot = [a.copy() for a in (sparse.row_block, sparse.grad_block, sparse.count_block)]
        cfg = ClipConfig("cowclip", r=r, zeta=zeta)

        out = apply_clip(cfg, table, sparse)

        for a, b in zip((sparse.row_block, sparse.grad_block, sparse.count_block), snapshot):
            assert np.array_equal(a, b)
        assert np.array_equal(out.row_block, sparse.row_block)
        assert np.array_equal(out.count_block, sparse.count_block)
        for unit, threshold in _clip_units(cfg, table, sparse):
            g_in, g_out = sparse.grad_block[unit], out.grad_block[unit]
            norm_in = np.linalg.norm(g_in)
            if norm_in <= threshold:
                assert np.array_equal(g_out, g_in)  # identity under the threshold
                continue
            c = np.linalg.norm(g_out) / norm_in
            assert 0.0 < c <= 1.0
            assert np.allclose(g_out, c * g_in, rtol=1e-12, atol=1e-12 * c * np.abs(g_in).max())
            assert np.linalg.norm(g_out) <= threshold * (1 + 1e-12)
