"""Dataset construction, ingestion, frequency statistics, and batching."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlab.data import (
    CATEGORICAL,
    CriteoParseError,
    Dataset,
    FieldSchema,
    SyntheticSpec,
    batch_presence_probability,
    count_frequencies,
    datasets_equal,
    generate_synthetic,
    load_criteo_tsv,
    load_dataset,
    make_batches,
    save_dataset,
    top_k_collapse,
    zipf_probabilities,
)


def _write_tsv(path, rows):
    path.write_text("\n".join("\t".join(r) for r in rows) + "\n")


def _random_criteo_rows(n, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        label = str(rng.integers(0, 2))
        dense = [str(rng.integers(0, 50)) if rng.random() > 0.2 else "" for _ in range(13)]
        cats = [f"tok{rng.integers(0, 7)}" if rng.random() > 0.1 else "" for _ in range(26)]
        rows.append([label] + dense + cats)
    return rows


class TestCriteoLoader:
    def test_single_row_transform(self, tmp_path):
        row = ["1", "3"] + [""] * 12 + ["ah32x9"] + ["t"] * 25
        path = tmp_path / "one.tsv"
        _write_tsv(path, [row])
        ds = load_criteo_tsv(path)
        assert ds.n_samples == 1
        assert ds.labels[0] == 1
        assert ds.dense[0, 0] == pytest.approx(math.log(4.0))
        assert ds.dense[0, 1] == 0.0  # empty -> 0 -> ln(1)
        assert ds.categorical[0, 0] == 0  # first-seen index

    def test_first_seen_indexing(self, tmp_path):
        rows = [
            ["0"] + [""] * 13 + ["b"] + ["x"] * 25,
            ["1"] + [""] * 13 + ["a"] + ["x"] * 25,
            ["0"] + [""] * 13 + ["b"] + ["x"] * 25,
        ]
        path = tmp_path / "three.tsv"
        _write_tsv(path, rows)
        ds = load_criteo_tsv(path)
        assert list(ds.categorical[:, 0]) == [0, 1, 0]
        assert ds.categorical_fields[0].vocab_size == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        ds = load_criteo_tsv(path)
        assert ds.n_samples == 0
        assert all(f.vocab_size == 0 for f in ds.categorical_fields)

    def test_malformed_row_carries_number(self, tmp_path):
        rows = _random_criteo_rows(2, 0)
        rows.append(["1", "2", "3"])  # wrong column count
        path = tmp_path / "bad.tsv"
        _write_tsv(path, rows)
        with pytest.raises(CriteoParseError) as exc:
            load_criteo_tsv(path)
        assert exc.value.row_number == 3

    def test_bad_label(self, tmp_path):
        rows = _random_criteo_rows(1, 0)
        rows[0][0] = "2"
        path = tmp_path / "bad.tsv"
        _write_tsv(path, rows)
        with pytest.raises(CriteoParseError):
            load_criteo_tsv(path)

    def test_thousand_rows_counts_sum_to_line_count(self, tmp_path):
        n = 1000  # the independent oracle is the number of lines written
        path = tmp_path / "big.tsv"
        _write_tsv(path, _random_criteo_rows(n, 7))
        ds = load_criteo_tsv(path)
        freq = count_frequencies(ds)
        for j in range(ds.n_categorical):
            assert freq.counts[j].sum() == n

    def test_max_rows(self, tmp_path):
        path = tmp_path / "big.tsv"
        _write_tsv(path, _random_criteo_rows(50, 7))
        ds = load_criteo_tsv(path, max_rows=10)
        assert ds.n_samples == 10

    def test_roundtrip_via_container(self, tmp_path):
        path = tmp_path / "data.tsv"
        _write_tsv(path, _random_criteo_rows(200, 3))
        ds = load_criteo_tsv(path)
        out = tmp_path / "data.npz"
        save_dataset(out, ds, meta={"origin": "test"})
        loaded, meta = load_dataset(out)
        assert datasets_equal(ds, loaded)
        assert meta == {"origin": "test"}


class TestSynthetic:
    def test_determinism(self):
        spec = SyntheticSpec(n_dense=2, n_categorical=3, vocab_sizes=20)
        a = generate_synthetic(spec, 500, seed=7)
        b = generate_synthetic(spec, 500, seed=7)
        assert datasets_equal(a, b)

    def test_uniform_flag_flattens_counts(self):
        spec = SyntheticSpec(n_dense=0, n_categorical=1, vocab_sizes=50, uniform_ids=True)
        ds = generate_synthetic(spec, 100_000, seed=0)
        counts = count_frequencies(ds).counts[0]
        assert counts.max() / counts.min() < 1.2

    def test_bad_exponent(self):
        spec = SyntheticSpec(n_categorical=1, vocab_sizes=10, zipf_exponent=0.0)
        with pytest.raises(ValueError):
            generate_synthetic(spec, 10, seed=0)

    def test_zipf_rank_frequency_matches_analytic(self):
        # Oracle: the analytic Zipf mass; the cumulative top-k empirical mass
        # must track it within 5% at every rank k <= 100 (and per-rank for the
        # top 10, where Poisson noise is well under the tolerance).
        n, vocab, a = 200_000, 10_000, 1.2
        spec = SyntheticSpec(n_dense=0, n_categorical=1, vocab_sizes=vocab, zipf_exponent=a)
        ds = generate_synthetic(spec, n, seed=11)
        counts = count_frequencies(ds).counts[0]
        expected = zipf_probabilities(vocab, a) * n  # ids are already rank-ordered
        cum_emp = np.cumsum(counts[:100])
        cum_exp = np.cumsum(expected[:100])
        assert np.all(np.abs(cum_emp - cum_exp) / cum_exp < 0.05)
        assert np.all(np.abs(counts[:10] - expected[:10]) / expected[:10] < 0.05)

    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_categorical=2, vocab_sizes=9), 300, seed=5)
        save_dataset(tmp_path / "s.npz", ds, meta={"seed": 5})
        loaded, meta = load_dataset(tmp_path / "s.npz")
        assert datasets_equal(ds, loaded)
        assert meta["seed"] == 5


class TestFrequencies:
    def test_definition(self):
        schema = (FieldSchema("c", CATEGORICAL, 3),)
        cat = np.array([[0]] * 5 + [[1]] * 45, dtype=np.int64)
        ds = Dataset(schema, np.zeros(50, dtype=np.uint8), np.zeros((50, 0)), cat)
        freq = count_frequencies(ds)
        assert freq.count(0, 0) == 5
        assert freq.probability(0, 0) == 0.1

    def test_vocab_one_field_has_prob_one(self):
        schema = (FieldSchema("c", CATEGORICAL, 1),)
        ds = Dataset(schema, np.zeros(8, dtype=np.uint8), np.zeros((8, 0)),
                     np.zeros((8, 1), dtype=np.int64))
        assert count_frequencies(ds).probability(0, 0) == 1.0

    def test_counts_sum_to_n_against_recount(self):
        ds = generate_synthetic(SyntheticSpec(n_categorical=3, vocab_sizes=17), 400, seed=2)
        freq = count_frequencies(ds)
        for j in range(3):
            # brute-force recount, one sample at a time
            brute = np.zeros(17, dtype=int)
            for i in range(ds.n_samples):
                brute[ds.categorical[i, j]] += 1
            assert np.array_equal(brute, freq.counts[j])
            assert freq.counts[j].sum() == 400

    def test_empty_dataset_rejected(self):
        schema = (FieldSchema("c", CATEGORICAL, 2),)
        ds = Dataset(schema, np.zeros(0, dtype=np.uint8), np.zeros((0, 0)),
                     np.zeros((0, 1), dtype=np.int64))
        with pytest.raises(ValueError):
            count_frequencies(ds)


class TestBatchPresence:
    def test_certain_id(self):
        assert batch_presence_probability(1.0, 5, "exact") == 1.0
        assert batch_presence_probability(1.0, 5, "approx") == 1.0

    def test_half(self):
        assert batch_presence_probability(0.5, 2, "exact") == 0.75

    def test_small_p_oracle(self):
        # direct evaluation: 1 - 0.999**100 (frozen from the closed form)
        exact = batch_presence_probability(0.001, 100, "exact")
        assert exact == pytest.approx(0.09520785288629108, rel=1e-12)
        approx = batch_presence_probability(0.001, 100, "approx")
        assert approx == 0.1
        assert (approx - exact) / exact < 0.051

    @given(st.floats(0.0, 1.0), st.integers(1, 10_000))
    def test_approx_dominates_exact(self, p, b):
        """min(1, bp) >= 1-(1-p)^b, up to one ulp of rounding in the power."""
        approx = batch_presence_probability(p, b, "approx")
        exact = batch_presence_probability(p, b, "exact")
        assert approx >= exact - 1e-15

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 512), st.integers(1, 512))
    def test_monotone(self, p1, p2, b1, b2):
        p_lo, p_hi = sorted((p1, p2))
        b_lo, b_hi = sorted((b1, b2))
        assert batch_presence_probability(p_lo, b_lo, "exact") <= batch_presence_probability(
            p_hi, b_hi, "exact"
        )


def _tiny_dataset(rng, n, vocabs):
    schema = tuple(FieldSchema(f"c{j}", CATEGORICAL, v) for j, v in enumerate(vocabs))
    cat = np.stack([rng.integers(0, v, size=n) for v in vocabs], axis=1)
    return Dataset(schema, rng.integers(0, 2, size=n).astype(np.uint8), np.zeros((n, 0)), cat)


class TestTopKCollapse:
    def test_small_vocab_untouched(self):
        ds = _tiny_dataset(np.random.default_rng(0), 40, [2])
        out = top_k_collapse(ds, 3)
        assert datasets_equal(ds, out)

    def test_most_frequent_maps_to_zero(self):
        rng = np.random.default_rng(1)
        cat = np.concatenate([np.full(30, 9), rng.integers(0, 9, size=30)])
        schema = (FieldSchema("c", CATEGORICAL, 10),)
        ds = Dataset(schema, np.zeros(60, dtype=np.uint8), np.zeros((60, 0)),
                     cat[:, None].astype(np.int64))
        out = top_k_collapse(ds, 3)
        assert np.all(out.categorical[cat == 9, 0] == 0)
        assert out.categorical_fields[0].vocab_size == 4

    def test_zipf_collapse_recount(self):
        ds = generate_synthetic(
            SyntheticSpec(n_dense=0, n_categorical=2, vocab_sizes=500, zipf_exponent=1.2),
            20_000, seed=3,
        )
        old = count_frequencies(ds)
        out = top_k_collapse(ds, 3)
        new = count_frequencies(out)
        for j in range(2):
            assert out.categorical_fields[j].vocab_size <= 4
            assert new.counts[j].sum() == 20_000
            kept_old = np.sort(old.probabilities(j))[::-1][:3]
            assert np.all(new.probabilities(j) >= kept_old.min())

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**31), st.integers(1, 5))
    def test_idempotent(self, seed, k):
        rng = np.random.default_rng(seed)
        vocabs = rng.integers(1, 12, size=3)
        ds = _tiny_dataset(rng, 60, list(vocabs))
        once = top_k_collapse(ds, k)
        twice = top_k_collapse(once, k)
        assert datasets_equal(once, twice)


class TestMakeBatches:
    def test_disjoint_epoch(self):
        ds = _tiny_dataset(np.random.default_rng(0), 10, [4])
        batches = list(make_batches(ds, 3, seed=0))
        assert len(batches) == 3
        seen = np.concatenate([b.categorical[:, 0] for b in batches])
        assert len(seen) == 9

    def test_seeded_determinism(self):
        ds = _tiny_dataset(np.random.default_rng(0), 50, [9])
        a = list(make_batches(ds, 8, seed=4))
        b = list(make_batches(ds, 8, seed=4))
        for x, y in zip(a, b):
            assert np.array_equal(x.categorical, y.categorical)
            assert np.array_equal(x.labels, y.labels)

    def test_errors(self):
        ds = _tiny_dataset(np.random.default_rng(0), 10, [4])
        with pytest.raises(ValueError):
            list(make_batches(ds, 0))
        with pytest.raises(ValueError):
            list(make_batches(ds, 11))


class TestInvariants:
    def test_counts_sum_invariant(self):
        ds = generate_synthetic(SyntheticSpec(n_categorical=4, vocab_sizes=30), 777, seed=9)
        freq = count_frequencies(ds)
        assert all(c.sum() == 777 for c in freq.counts)

    def test_unique_names_required(self):
        with pytest.raises(ValueError):
            Dataset(
                (FieldSchema("x", CATEGORICAL, 2), FieldSchema("x", CATEGORICAL, 2)),
                np.zeros(1, dtype=np.uint8), np.zeros((1, 0)),
                np.zeros((1, 2), dtype=np.int64),
            )

    def test_immutability(self):
        ds = generate_synthetic(SyntheticSpec(n_categorical=1, vocab_sizes=5), 10, seed=0)
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_split_halves_are_read_only_views(self):
        ds = generate_synthetic(SyntheticSpec(n_dense=2, n_categorical=2, vocab_sizes=5), 10, seed=0)
        head, tail = ds.split(0.7)
        for half, rows in ((head, slice(0, 7)), (tail, slice(7, 10))):
            for name in ("labels", "dense", "categorical"):
                part, whole = getattr(half, name), getattr(ds, name)
                assert np.array_equal(part, whole[rows])
                assert np.shares_memory(part, whole) and not part.flags.writeable
