"""Clipping variants: hand-evaluated thresholds, norm/direction/idempotence laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlab.clip import (
    ClipConfig,
    apply_clip,
    clip_adaptive_fieldwise,
    clip_by_threshold,
    clip_columnwise,
    clip_fieldwise,
    clip_global,
    cowclip,
)
from ctrlab.data import CATEGORICAL, FieldSchema
from ctrlab.embedding import SparseGradient, init_table
from ctrlab.scaling import clip_value_scale


def _table(vocabs, dim=4, sigma=0.1, seed=0):
    fields = tuple(FieldSchema(f"c{j}", CATEGORICAL, v) for j, v in enumerate(vocabs))
    return init_table(fields, dim, init_sigma=sigma, seed=seed)


def _sparse(rng, table, touched_per_field=3, scale=1.0):
    ids, grads, counts = [], [], []
    for w in table.weights:
        k = min(touched_per_field, len(w))
        ids.append(np.sort(rng.choice(len(w), size=k, replace=False)))
        grads.append(rng.normal(scale=scale, size=(k, table.dim)))
        counts.append(rng.integers(1, 6, size=k))
    return SparseGradient.from_fields(ids, grads, counts)


class TestClipByThreshold:
    def test_zero_gradient_untouched(self):
        g = np.zeros(4)
        assert np.array_equal(clip_by_threshold(g, 0.5), g)
        assert np.array_equal(clip_by_threshold(g, 0.0), g)

    def test_under_threshold_unchanged(self):
        g = np.array([0.3, 0.4])  # norm 0.5
        assert clip_by_threshold(g, 1.0) is g

    def test_over_threshold_rescaled(self):
        g = np.array([0.6, 0.8])  # norm 1
        out = clip_by_threshold(g, 0.2)
        assert np.linalg.norm(out) == pytest.approx(0.2, rel=1e-12)
        cos = out @ g / (np.linalg.norm(out) * np.linalg.norm(g))
        assert cos == pytest.approx(1.0, abs=1e-12)


class TestCowClip:
    def test_hand_case_weight_dominates(self):
        # threshold = cnt * max(r*||w||, zeta) = 2 * max(0.1, 1e-5) = 0.2
        table = _table([3], dim=2)
        table.weights[0][1] = np.array([0.1, 0.0])
        g = np.array([[0.6, 0.8]])  # norm 1
        sparse = SparseGradient.from_fields([np.array([1])], [g], [np.array([2])])
        out = cowclip(table, sparse, r=1.0, zeta=1e-5)
        assert np.linalg.norm(out.grads[0][0]) == pytest.approx(0.2, rel=1e-12)

    def test_hand_case_zeta_dominates(self):
        table = _table([3], dim=2)
        table.weights[0][0] = np.array([1e-7, 0.0])
        g = np.array([[1.0, 0.0]])
        sparse = SparseGradient.from_fields([np.array([0])], [g], [np.array([1])])
        out = cowclip(table, sparse, r=1.0, zeta=1e-4)
        assert np.linalg.norm(out.grads[0][0]) == pytest.approx(1e-4, rel=1e-12)

    def test_under_threshold_bit_identical(self):
        rng = np.random.default_rng(1)
        table = _table([8], sigma=10.0, seed=1)  # huge weights -> huge thresholds
        sparse = _sparse(rng, table, scale=0.01)
        out = cowclip(table, sparse, r=1.0, zeta=1e-5)
        assert np.array_equal(out.grads[0], sparse.grads[0])

    def test_occurrence_count_flag(self):
        table = _table([3], dim=2)
        table.weights[0][1] = np.array([0.1, 0.0])
        g = np.array([[1.0, 0.0]])
        sparse = SparseGradient.from_fields([np.array([1])], [g], [np.array([4])])
        with_cnt = cowclip(table, sparse, r=1.0, zeta=1e-5)
        assert np.linalg.norm(with_cnt.grads[0][0]) == pytest.approx(0.4, rel=1e-12)

    def test_huge_r_and_zeta_is_identity(self):
        rng = np.random.default_rng(2)
        table = _table([5, 7], seed=2)
        sparse = _sparse(rng, table, scale=5.0)
        out = cowclip(table, sparse, r=1e12, zeta=1e12)
        for j in range(2):
            assert np.array_equal(out.grads[j], sparse.grads[j])

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
        for j in range(2):
            w_norms = np.linalg.norm(table.weights[j][sparse.ids[j]], axis=1)
            thresholds = sparse.counts[j] * np.maximum(r * w_norms, zeta)
            norms = np.linalg.norm(out.grads[j], axis=1)
            assert np.all(norms <= thresholds + 1e-12)
            for i in range(len(norms)):
                g_in = sparse.grads[j][i]
                if np.linalg.norm(g_in) > 0:
                    cos = (out.grads[j][i] @ g_in) / (
                        np.linalg.norm(out.grads[j][i]) * np.linalg.norm(g_in) + 1e-300
                    )
                    assert cos > 1 - 1e-12 or np.linalg.norm(out.grads[j][i]) == 0
            # idempotent up to one ulp: a re-clip of an at-threshold column can
            # rescale by 1 - O(1e-16) when the recomputed norm rounds upward
            assert np.allclose(again.grads[j], out.grads[j], rtol=1e-12, atol=0)

    def test_threshold_monotonicity(self):
        table = _table([2], dim=2)
        table.weights[0][0] = np.array([0.2, 0.0])
        g = np.array([[10.0, 0.0]])

        def norm_out(r, zeta, cnt, w_scale=1.0):
            t2 = _table([2], dim=2)
            t2.weights[0][0] = np.array([0.2 * w_scale, 0.0])
            sparse = SparseGradient.from_fields([np.array([0])], [g.copy()], [np.array([cnt])])
            return np.linalg.norm(cowclip(t2, sparse, r=r, zeta=zeta).grads[0][0])

        base = norm_out(1.0, 1e-4, 1)
        assert norm_out(2.0, 1e-4, 1) >= base      # r
        assert norm_out(1.0, 0.5, 1) >= base       # zeta
        assert norm_out(1.0, 1e-4, 3) >= base      # cnt
        assert norm_out(1.0, 1e-4, 1, w_scale=4.0) >= base  # ||w||


class TestGlobal:
    def test_under_value_unchanged(self):
        rng = np.random.default_rng(3)
        table = _table([5], seed=3)
        sparse = _sparse(rng, table, scale=0.1)
        out = clip_global(sparse, value=25.0)  # the conventional default bound
        assert np.array_equal(out.grads[0], sparse.grads[0])

    def test_double_norm_halves_entries(self):
        g = np.array([[3.0, 4.0]])  # norm 5
        sparse = SparseGradient.from_fields([np.array([0])], [g], [np.array([1])])
        out = clip_global(sparse, value=2.5)
        assert np.allclose(out.grads[0], g / 2, rtol=0, atol=1e-15)

    def test_norm_concatenated_over_fields(self):
        sparse = SparseGradient.from_fields(
            [np.array([0]), np.array([1])],
            [np.array([[3.0, 0.0]]), np.array([[0.0, 4.0]])],
            [np.array([1]), np.array([1])],
        )
        out = clip_global(sparse, value=1.0)  # total norm 5 -> scale 1/5
        assert np.allclose(out.grads[0], [[0.6, 0.0]], rtol=0, atol=1e-15)
        assert np.allclose(out.grads[1], [[0.0, 0.8]], rtol=0, atol=1e-15)


class TestFieldwise:
    def test_only_offending_field_rescaled(self):
        sparse = SparseGradient.from_fields(
            [np.array([0]), np.array([0])],
            [np.array([[10.0, 0.0]]), np.array([[0.1, 0.0]])],
            [np.array([1]), np.array([1])],
        )
        out = clip_fieldwise(sparse, value=1.0)
        assert np.linalg.norm(out.grads[0]) == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(out.grads[1], sparse.grads[1])

    def test_sqrt_batch_scaling(self):
        sparse = SparseGradient.from_fields([np.array([0])], [np.array([[10.0, 0.0]])],
                                [np.array([1])])
        out = clip_fieldwise(sparse, value=clip_value_scale(1.0, 4.0, "sqrt"))
        assert np.linalg.norm(out.grads[0]) == pytest.approx(2.0, rel=1e-12)

    def test_disjoint_merge_norm_grows_like_sqrt_s(self):
        # merging s small-batch gradient blocks with no shared ids: the summed
        # block norm is sqrt(sum of squared norms) ~ sqrt(s) times one block
        rng = np.random.default_rng(4)
        s, cols, dim = 8, 32, 10
        blocks = [rng.normal(size=(cols, dim)) for _ in range(s)]
        small_norms = [np.linalg.norm(b) for b in blocks]
        merged = np.concatenate(blocks)  # disjoint ids concatenate
        ratio = np.linalg.norm(merged) / np.mean(small_norms)
        assert abs(ratio - np.sqrt(s)) / np.sqrt(s) < 0.2


class TestColumnwise:
    def test_cases(self):
        g = np.array([[0.0, 0.0], [3.0, 4.0], [0.1, 0.0]])
        sparse = SparseGradient.from_fields([np.array([0, 1, 2])], [g], [np.array([1, 1, 1])])
        out = clip_columnwise(sparse, value=1.0)
        assert np.array_equal(out.grads[0][0], g[0])  # zero untouched
        assert np.linalg.norm(out.grads[0][1]) == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(out.grads[0][2], g[2])  # under threshold


class TestAdaptiveFieldwise:
    def test_cases(self):
        table = _table([2], dim=2, sigma=1.0, seed=5)
        table.weights[0][...] = [[2.0, 0.0], [0.0, 0.0]]  # field block norm 2
        sparse = SparseGradient.from_fields([np.array([0])], [np.array([[1.0, 0.0]])],
                                [np.array([1])])
        out = clip_adaptive_fieldwise(table, sparse, r=1.0, zeta=1e-5)
        assert np.array_equal(out.grads[0], sparse.grads[0])  # under threshold
        sparse_big = SparseGradient.from_fields([np.array([0])], [np.array([[3.0, 0.0]])],
                                    [np.array([1])])
        out = clip_adaptive_fieldwise(table, sparse_big, r=1.0, zeta=1e-5)
        assert np.linalg.norm(out.grads[0]) == pytest.approx(2.0, rel=1e-12)

    def test_zeta_floor(self):
        table = _table([2], dim=2, sigma=1e-9, seed=6)
        sparse = SparseGradient.from_fields([np.array([0])], [np.array([[1.0, 0.0]])],
                                [np.array([1])])
        out = clip_adaptive_fieldwise(table, sparse, r=1.0, zeta=1e-3)
        assert np.linalg.norm(out.grads[0]) == pytest.approx(1e-3, rel=1e-9)


CLIPPING_CONFIGS = [
    ("global", {"value": 1.0}),
    ("fieldwise", {"value": 1.0}),
    ("columnwise", {"value": 0.5}),
    ("adaptive_fieldwise", {"r": 1.0, "zeta": 1e-4}),
    ("cowclip", {"r": 1.0, "zeta": 1e-4}),
]


class TestConfigAndDispatch:
    def test_variant_field_validation(self):
        with pytest.raises(ValueError):
            ClipConfig(variant="global")  # needs value
        with pytest.raises(ValueError):
            ClipConfig(variant="cowclip", r=1.0)  # needs zeta
        with pytest.raises(ValueError):
            ClipConfig(variant="whatever")
        ClipConfig(variant="none")
        ClipConfig(variant="cowclip", r=1.0, zeta=1e-4)

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
        for j in range(2):
            assert np.allclose(twice.grads[j], once.grads[j], rtol=1e-12, atol=0)

    def test_inputs_never_mutated(self):
        rng = np.random.default_rng(9)
        table = _table([6], seed=9)
        sparse = _sparse(rng, table, scale=100.0)
        before = sparse.grads[0].copy()
        cowclip(table, sparse, r=1.0, zeta=1e-4)
        clip_global(sparse, 0.1)
        clip_columnwise(sparse, 0.1)
        assert np.array_equal(sparse.grads[0], before)

    @pytest.mark.parametrize("variant,kwargs", CLIPPING_CONFIGS)
    def test_apply_clip_shares_ids_and_leaves_input_alone(self, variant, kwargs):
        rng = np.random.default_rng(10)
        table = _table([6, 5, 4], seed=10)
        full = _sparse(rng, table, scale=100.0)
        # the last field touches nothing
        sparse = SparseGradient.from_fields(
            *[group[:2] + (group[2][:0],) for group in (full.ids, full.grads, full.counts)]
        )
        blocks = (sparse.id_block, sparse.grad_block, sparse.count_block, sparse.cuts)
        snapshot = [a.copy() for a in blocks]
        out = apply_clip(ClipConfig(variant=variant, **kwargs), table, sparse)
        assert out is not sparse
        assert all(np.array_equal(a, b) for a, b in zip(blocks, snapshot))
        assert out.id_block is sparse.id_block
        assert out.count_block is sparse.count_block
        assert out.cuts is sparse.cuts
        assert any(not np.array_equal(a, b) for a, b in zip(out.grads, sparse.grads))


def _clip_units(variant, cfg, table, sparse):
    """(row indices into the grad block, threshold) for every unit the variant clips."""
    cuts = sparse.cuts
    fields = [np.arange(cuts[j], cuts[j + 1]) for j in range(sparse.n_fields)]
    rows = [np.array([i]) for i in range(len(sparse.grad_block))]
    if variant == "global":
        return [(np.arange(len(sparse.grad_block)), cfg.value)]
    if variant == "fieldwise":
        return [(f, cfg.value) for f in fields]
    if variant == "columnwise":
        return [(i, cfg.value) for i in rows]
    if variant == "adaptive_fieldwise":
        return [(f, max(cfg.r * np.linalg.norm(table.weights[j]), cfg.zeta))
                for j, f in enumerate(fields)]
    w = table.block[sparse.rows(table)]
    return [(i, sparse.count_block[i[0]] * max(cfg.r * np.linalg.norm(w[i[0]]), cfg.zeta))
            for i in rows]


class TestClipContractProperty:
    @settings(deadline=None, max_examples=150)
    @given(
        variant=st.sampled_from([v for v, _ in CLIPPING_CONFIGS]),
        vocabs=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        dropped=st.integers(0, 3),
        dim=st.integers(1, 4),
        value=st.floats(1e-3, 1e3),
        r=st.floats(0.05, 20.0),
        zeta=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_every_unit_is_scaled_down_to_its_threshold(
        self, variant, vocabs, dropped, dim, value, r, zeta, seed
    ):
        rng = np.random.default_rng(seed)
        table = _table(vocabs, dim=dim, sigma=10.0 ** rng.uniform(-3, 1), seed=seed % 1000)
        # the gradient may cover fewer fields than the table, and may skip fields
        n_fields = max(1, len(vocabs) - dropped)
        ids, grads, counts = [], [], []
        for v in vocabs[:n_fields]:
            k = int(rng.integers(0, v + 1))
            ids.append(np.sort(rng.choice(v, size=k, replace=False)))
            grads.append(rng.normal(size=(k, dim)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1)))
            counts.append(rng.integers(1, 6, size=k))
        sparse = SparseGradient.from_fields(ids, grads, counts)
        snapshot = [a.copy() for a in (sparse.id_block, sparse.grad_block, sparse.count_block)]
        if variant in ("global", "fieldwise", "columnwise"):
            cfg = ClipConfig(variant, value=value)
        else:
            cfg = ClipConfig(variant, r=r, zeta=zeta)

        out = apply_clip(cfg, table, sparse)

        for a, b in zip((sparse.id_block, sparse.grad_block, sparse.count_block), snapshot):
            assert np.array_equal(a, b)
        assert np.array_equal(out.id_block, sparse.id_block)
        assert np.array_equal(out.count_block, sparse.count_block)
        for unit, threshold in _clip_units(variant, cfg, table, sparse):
            g_in, g_out = sparse.grad_block[unit], out.grad_block[unit]
            norm_in = np.linalg.norm(g_in)
            if norm_in <= threshold:
                assert np.array_equal(g_out, g_in)  # identity under the threshold
                continue
            c = np.linalg.norm(g_out) / norm_in
            assert 0.0 < c <= 1.0
            assert np.allclose(g_out, c * g_in, rtol=1e-12, atol=1e-12 * c * np.abs(g_in).max())
            assert np.linalg.norm(g_out) <= threshold * (1 + 1e-12)
