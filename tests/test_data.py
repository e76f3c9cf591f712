"""Dataset construction, ingestion, frequency statistics, and batching."""

import math
import re
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlab import data as data_module
from ctrlab.data import (
    ID_DTYPE,
    MAX_VOCAB_SIZE,
    N_CRITEO_CATEGORICAL,
    N_CRITEO_DENSE,
    CriteoParseError,
    Dataset,
    FieldSchema,
    TRAIN_DTYPE,
    batch_presence_probability,
    count_frequencies,
    datasets_equal,
    drop_unreferenced_ids,
    generate_synthetic,
    load_criteo_tsv,
    load_dataset,
    make_batches,
    out_of_range_field,
    save_dataset,
    save_npz,
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


def reference_load_criteo_tsv(path) -> Dataset:
    """Row-at-a-time oracle for load_criteo_tsv: the loader's earlier
    implementation, plus its rejection of non-finite dense values.

    Text mode with newline="" also ends a line at a lone "\\r", where
    load_criteo_tsv keeps it as a token byte; the files compared carry none.
    """
    labels, dense, categorical = array("B"), array("d"), array("q")
    vocab: list[dict[str, int]] = [dict() for _ in range(N_CRITEO_CATEGORICAL)]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row_number, line in enumerate(fh, start=1):
            cols = line.rstrip("\n").split("\t")
            if len(cols) != 1 + N_CRITEO_DENSE + N_CRITEO_CATEGORICAL:
                raise CriteoParseError(row_number, f"expected 40 columns, got {len(cols)}")
            if cols[0] not in ("0", "1"):
                raise CriteoParseError(row_number, f"label must be 0 or 1, got {cols[0]!r}")
            labels.append(int(cols[0]))
            for raw in cols[1 : 1 + N_CRITEO_DENSE]:
                try:
                    value = 0.0 if raw == "" else float(raw)
                except ValueError:
                    raise CriteoParseError(row_number, f"bad dense value {raw!r}") from None
                if not math.isfinite(value):
                    raise CriteoParseError(row_number, f"bad dense value {raw!r}")
                dense.append(math.log1p(max(value, 0.0)))
            for j, token in enumerate(cols[1 + N_CRITEO_DENSE :]):
                categorical.append(vocab[j].setdefault(token, len(vocab[j])))
    fields = tuple(FieldSchema(f"C{j + 1}", len(vocab[j])) for j in range(N_CRITEO_CATEGORICAL))
    n = len(labels)
    return Dataset(
        fields,
        np.frombuffer(labels, dtype=np.uint8),
        np.frombuffer(dense, dtype=np.float64).reshape(n, N_CRITEO_DENSE),
        np.frombuffer(categorical, dtype=np.int64).reshape(n, N_CRITEO_CATEGORICAL),
    )


# Token text: any character but the tab and the line breaks of text mode.
_TOKEN_CHARS = st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",))
_DENSE_TOKENS = ["", "0", "7", " 7 ", "-5", "1e3", "1_000", "3.25", "+2", "0012", "-0.0", "\u0663"]
# Rows of this test data take 40 to a few hundred bytes, so the smaller sizes
# give blocks of one row read in several steps, the larger ones blocks of
# several rows.
_CHUNK_BYTES = [7, 33, 64, 200, 1000, 4096]


@st.composite
def _criteo_rows(draw, min_rows=0, max_rows=30):
    """Valid rows over a small token pool, so that tokens repeat within and
    across fields; the pool holds tokens of 0 to 20 bytes and more, with and
    without multi-byte characters, and pairs that differ in a trailing byte."""
    base = draw(st.lists(st.text(_TOKEN_CHARS, max_size=20), min_size=1, max_size=5))
    pool = base + [t + tail for t in base for tail in ("\x00", "\x01")]
    pool += [t[:-1] for t in base if t]
    dense = st.one_of(st.sampled_from(_DENSE_TOKENS), st.integers(-(10**6), 10**12).map(str))
    row = st.tuples(
        st.sampled_from(["0", "1"]),
        st.lists(dense, min_size=N_CRITEO_DENSE, max_size=N_CRITEO_DENSE),
        st.lists(st.sampled_from(pool), min_size=N_CRITEO_CATEGORICAL, max_size=N_CRITEO_CATEGORICAL),
    )
    rows = draw(st.lists(row, min_size=min_rows, max_size=max_rows))
    return [[label, *d, *c] for label, d, c in rows]


def _tsv_bytes(rows, newline, final_newline) -> bytes:
    text = newline.join("\t".join(r) for r in rows)
    return (text + newline if rows and final_newline else text).encode("utf-8")


def _parse_both(path, chunk):
    """(outcome of load_criteo_tsv, outcome of the oracle): a Dataset or the
    CriteoParseError raised."""
    outcomes = []
    for load in (load_criteo_tsv, reference_load_criteo_tsv):
        try:
            with mock.patch.object(data_module, "CHUNK_BYTES", chunk):
                outcomes.append(load(path))
        except CriteoParseError as e:
            outcomes.append(e)
    return outcomes


def _assert_same_arrays(got: Dataset, want: Dataset):
    assert got.fields == want.fields
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.dense.tobytes() == want.dense.tobytes()
    assert got.categorical.dtype == want.categorical.dtype
    assert np.array_equal(got.categorical, want.categorical)


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
        assert ds.fields[0].vocab_size == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        ds = load_criteo_tsv(path)
        assert ds.n_samples == 0
        assert all(f.vocab_size == 0 for f in ds.fields)

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
        counts = count_frequencies(ds)
        for j in range(ds.n_categorical):
            assert counts[j].sum() == n

    def test_roundtrip_via_container(self, tmp_path):
        path = tmp_path / "data.tsv"
        _write_tsv(path, _random_criteo_rows(200, 3))
        ds = load_criteo_tsv(path)
        assert ds.dense.dtype == TRAIN_DTYPE and ds.categorical.dtype == ID_DTYPE
        out = tmp_path / "data.npz"
        save_dataset(out, ds, meta={"origin": "test"})
        loaded, meta = load_dataset(out)
        assert datasets_equal(ds, loaded)
        assert loaded.dense.dtype == TRAIN_DTYPE and loaded.categorical.dtype == ID_DTYPE
        assert meta == {"origin": "test"}

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999", "-NaN"])
    def test_non_finite_dense_rejected(self, tmp_path, raw):
        rows = _random_criteo_rows(3, 0)
        rows[1][3] = raw
        path = tmp_path / "bad.tsv"
        _write_tsv(path, rows)
        with pytest.raises(CriteoParseError) as exc:
            load_criteo_tsv(path)
        assert exc.value.row_number == 2
        assert str(exc.value) == f"row 2: bad dense value {raw!r}"

    def test_lone_carriage_return_is_a_token_byte(self, tmp_path):
        row = ["1"] + ["2"] * 13 + ["a\rb"] + ["t"] * 25
        path = tmp_path / "cr.tsv"
        _write_tsv(path, [row, row])
        ds = load_criteo_tsv(path)
        assert ds.n_samples == 2
        assert list(ds.categorical[:, 0]) == [0, 0]

    @settings(deadline=None, max_examples=150)
    @given(
        _criteo_rows(),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.sampled_from(_CHUNK_BYTES),
    )
    def test_matches_row_oracle(self, tmp_path_factory, rows, newline, final_newline, chunk):
        path = tmp_path_factory.getbasetemp() / "oracle.tsv"
        path.write_bytes(_tsv_bytes(rows, newline, final_newline))
        got, want = _parse_both(path, chunk)
        _assert_same_arrays(got, want)

    @settings(deadline=None, max_examples=150)
    @given(
        _criteo_rows(min_rows=3, max_rows=20),
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.sampled_from(["width", "label", "dense", "non-finite"]),
                st.integers(1, N_CRITEO_DENSE),
                st.sampled_from(["", "x", "2", "01", " ", "1.2.3", "nan", "inf", "-inf", "1e999"]),
            ),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from(_CHUNK_BYTES),
    )
    def test_errors_match_row_oracle(self, tmp_path_factory, rows, faults, chunk):
        """The first bad row wins, whatever blocks the faults fall in; within
        a row the column count goes first, then the label, then the dense
        values from left to right."""
        for at, kind, column, raw in faults:
            row = rows[at % len(rows)]
            if kind == "width":
                del row[column:column + 1 + at % 2]  # one or two columns fewer
                row += ["x"] * (at % 3)  # and sometimes more
            elif kind == "label":
                row[0] = raw if raw not in ("0", "1") else "2"
            elif kind == "dense":
                row[column] = raw
            else:
                row[column] = ["nan", "inf", "-inf", "1e999"][at % 4]
        path = tmp_path_factory.getbasetemp() / "faults.tsv"
        path.write_bytes(_tsv_bytes(rows, "\n", True))
        got, want = _parse_both(path, chunk)
        if isinstance(want, CriteoParseError):
            assert isinstance(got, CriteoParseError)
            assert (got.row_number, str(got)) == (want.row_number, str(want))
        else:
            _assert_same_arrays(got, want)

    @pytest.mark.parametrize("chunk", [7, 1 << 18])  # one row per block, or one block
    @pytest.mark.parametrize(
        "faults, row_number, message",
        [
            ({1: ("dense", 4, "x"), 2: ("width",)}, 2, "bad dense value 'x'"),
            ({1: ("width",), 2: ("label", "2")}, 2, "expected 40 columns, got 39"),
            ({1: ("label", ""), 3: ("dense", 1, "nan")}, 2, "label must be 0 or 1, got ''"),
            ({1: ("label", "x"), 0: ("dense", 2, "nan")}, 1, "bad dense value 'nan'"),
            ({1: ("width", "label", "2")}, 2, "expected 40 columns, got 39"),
            ({1: ("label", "2", "dense", 1, "x")}, 2, "label must be 0 or 1, got '2'"),
            ({1: ("dense", 3, "y", "dense", 5, "inf")}, 2, "bad dense value 'y'"),
            ({1: ("dense", 5, "y", "dense", 3, "inf")}, 2, "bad dense value 'inf'"),
        ],
    )
    def test_first_bad_row_wins(self, tmp_path, faults, row_number, message, chunk):
        """The first bad row in file order wins, whatever block the faults
        fall in; within a row the column count goes first, then the label,
        then the dense values from left to right."""
        rows = _random_criteo_rows(5, 1)
        for r, fault in faults.items():
            fault = list(fault)
            while fault:
                kind = fault.pop(0)
                if kind == "width":
                    del rows[r][-1]
                elif kind == "label":
                    rows[r][0] = fault.pop(0)
                else:
                    column, raw = fault.pop(0), fault.pop(0)
                    rows[r][column] = raw
        path = tmp_path / "bad.tsv"
        _write_tsv(path, rows)
        with mock.patch.object(data_module, "CHUNK_BYTES", chunk):
            with pytest.raises(CriteoParseError) as exc:
                load_criteo_tsv(path)
        assert (exc.value.row_number, str(exc.value)) == (row_number, f"row {row_number}: {message}")

    def test_hash_collisions_keep_tokens_apart(self, tmp_path):
        """With a hash that maps most tokens alike, the vocabulary's record
        comparison alone keeps them apart."""
        path = tmp_path / "data.tsv"
        _write_tsv(path, _random_criteo_rows(300, 4))
        with mock.patch.object(data_module, "_mix", lambda z: z & np.uint64(1)):
            got, want = _parse_both(path, 1000)
        _assert_same_arrays(got, want)

    def test_memory_is_bounded_by_the_chunk(self, tmp_path):
        """The parse holds the output plus one block's arrays, never the
        whole file's: parsing this 3.4 MB file as one block takes 64 MB more."""
        n = 20_000
        rng = np.random.default_rng(5)
        columns = [rng.integers(0, 2, n).astype(str)]
        columns += [rng.integers(0, 50, n).astype(str) for _ in range(N_CRITEO_DENSE)]
        columns += [np.char.add("tok", rng.integers(0, 7, n).astype(str)) for _ in range(N_CRITEO_CATEGORICAL)]
        path = tmp_path / "big.tsv"
        _write_tsv(path, zip(*(c.tolist() for c in columns)))
        tracemalloc.start()
        try:
            ds = load_criteo_tsv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n_samples == n
        output = ds.labels.nbytes + ds.dense.nbytes + ds.categorical.nbytes
        # 32 blocks of the loader's 256 KiB: a fixed bound, so that a larger
        # CHUNK_BYTES has to change it too.
        assert peak < output + 32 * 256 * 1024


class TestSynthetic:
    def test_determinism(self):
        a = generate_synthetic(500, seed=7, n_dense=2, n_categorical=3, vocab_sizes=20)
        b = generate_synthetic(500, seed=7, n_dense=2, n_categorical=3, vocab_sizes=20)
        assert datasets_equal(a, b)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, seed=0, n_categorical=1, vocab_sizes=10, zipf_exponent=0.0)

    def test_zipf_rank_frequency_matches_analytic(self):
        # Oracle: the analytic Zipf mass; the cumulative top-k empirical mass
        # must track it within 5% at every rank k <= 100 (and per-rank for the
        # top 10, where Poisson noise is well under the tolerance).
        n, vocab, a = 200_000, 10_000, 1.2
        ds = generate_synthetic(n, seed=11, n_dense=0, n_categorical=1, vocab_sizes=vocab,
                                zipf_exponent=a)
        counts = count_frequencies(ds)[0]
        expected = zipf_probabilities(vocab, a) * n  # ids are already rank-ordered
        cum_emp = np.cumsum(counts[:100])
        cum_exp = np.cumsum(expected[:100])
        assert np.all(np.abs(cum_emp - cum_exp) / cum_exp < 0.05)
        assert np.all(np.abs(counts[:10] - expected[:10]) / expected[:10] < 0.05)

    def test_stores_the_training_dtypes(self):
        ds = generate_synthetic(50, seed=5, n_dense=2, n_categorical=2, vocab_sizes=9)
        assert ds.dense.dtype == TRAIN_DTYPE and ds.categorical.dtype == ID_DTYPE

    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic(300, seed=5, n_categorical=2, vocab_sizes=9)
        save_dataset(tmp_path / "s.npz", ds, meta={"seed": 5})
        loaded, meta = load_dataset(tmp_path / "s.npz")
        assert datasets_equal(ds, loaded)
        assert meta["seed"] == 5

    @pytest.mark.parametrize("vocab_sizes,expected", [
        (np.int64(9), [9, 9]),
        (np.array([3, 40]), [3, 40]),
        ([np.int32(3), np.uint16(40)], [3, 40]),
    ], ids=["scalar", "array", "list"])
    def test_numpy_vocab_sizes_roundtrip(self, tmp_path, vocab_sizes, expected):
        ds = generate_synthetic(300, seed=5, n_categorical=2, vocab_sizes=vocab_sizes)
        assert [f.vocab_size for f in ds.fields] == expected
        assert all(type(f.vocab_size) is int for f in ds.fields)
        save_dataset(tmp_path / "s.npz", ds)
        loaded, _ = load_dataset(tmp_path / "s.npz")
        assert datasets_equal(ds, loaded)

    def test_vocab_sizes_length_must_match(self):
        with pytest.raises(ValueError, match="^vocab_sizes length must equal n_categorical$"):
            generate_synthetic(10, seed=0, n_categorical=3, vocab_sizes=[4, 5])


class TestFrequencies:
    def test_definition(self):
        fields = (FieldSchema("c", 3),)
        cat = np.array([[0]] * 5 + [[1]] * 45, dtype=np.int64)
        ds = Dataset(fields, np.zeros(50, dtype=np.uint8), np.zeros((50, 0)), cat)
        assert count_frequencies(ds)[0].tolist() == [5, 45, 0]

    def test_vocab_one_field_has_prob_one(self):
        fields = (FieldSchema("c", 1),)
        ds = Dataset(fields, np.zeros(8, dtype=np.uint8), np.zeros((8, 0)),
                     np.zeros((8, 1), dtype=np.int64))
        assert count_frequencies(ds)[0].tolist() == [ds.n_samples] == [8]

    def test_counts_sum_to_n_against_recount(self):
        ds = generate_synthetic(400, seed=2, n_categorical=3, vocab_sizes=17)
        counts = count_frequencies(ds)
        for j in range(3):
            # brute-force recount, one sample at a time
            brute = np.zeros(17, dtype=int)
            for i in range(ds.n_samples):
                brute[ds.categorical[i, j]] += 1
            assert np.array_equal(brute, counts[j])
            assert counts[j].sum() == 400

    def test_empty_dataset_rejected(self):
        fields = (FieldSchema("c", 2),)
        ds = Dataset(fields, np.zeros(0, dtype=np.uint8), np.zeros((0, 0)),
                     np.zeros((0, 1), dtype=np.int64))
        with pytest.raises(ValueError):
            count_frequencies(ds)

    def test_matches_a_bincount_per_column_across_scan_slices(self):
        # The scan goes over the id space in slices; a field of 1 id sits
        # between two that its offset must keep apart.
        n, vocabs = 2 * data_module._SCAN_ROWS + 5, [7, 1, 900]
        ds = _tiny_dataset(np.random.default_rng(5), n, vocabs)
        counts = count_frequencies(ds)
        assert len(counts) == 3
        for j, v in enumerate(vocabs):
            np.testing.assert_array_equal(counts[j], np.bincount(ds.categorical[:, j], minlength=v))
            assert not counts[j].flags.writeable

    def test_no_categorical_field_gives_no_counts(self):
        ds = Dataset((), np.zeros(3, dtype=np.uint8), np.zeros((3, 1)), np.zeros((3, 0), dtype=int))
        assert count_frequencies(ds) == ()
        out, kept = drop_unreferenced_ids(ds)
        assert out is ds and kept is None


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
    fields = tuple(FieldSchema(f"c{j}", v) for j, v in enumerate(vocabs))
    cat = np.stack([rng.integers(0, v, size=n) for v in vocabs], axis=1)
    return Dataset(fields, rng.integers(0, 2, size=n).astype(np.uint8), np.zeros((n, 0)), cat)


class TestTopKCollapse:
    def test_small_vocab_untouched(self):
        ds = _tiny_dataset(np.random.default_rng(0), 40, [2])
        out = top_k_collapse(ds, 3)
        assert datasets_equal(ds, out)

    def test_most_frequent_maps_to_zero(self):
        rng = np.random.default_rng(1)
        cat = np.concatenate([np.full(30, 9), rng.integers(0, 9, size=30)])
        fields = (FieldSchema("c", 10),)
        ds = Dataset(fields, np.zeros(60, dtype=np.uint8), np.zeros((60, 0)),
                     cat[:, None].astype(np.int64))
        out = top_k_collapse(ds, 3)
        assert np.all(out.categorical[cat == 9, 0] == 0)
        assert out.fields[0].vocab_size == 4

    def test_zipf_collapse_recount(self):
        ds = generate_synthetic(20_000, seed=3, n_dense=0, n_categorical=2, vocab_sizes=500,
                                zipf_exponent=1.2)
        old = count_frequencies(ds)
        out = top_k_collapse(ds, 3)
        new = count_frequencies(out)
        for j in range(2):
            assert out.fields[j].vocab_size <= 4
            assert new[j].sum() == 20_000
            kept_old = np.sort(old[j])[::-1][:3]
            assert np.all(new[j] >= kept_old.min())

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**31), st.integers(1, 5))
    def test_idempotent(self, seed, k):
        rng = np.random.default_rng(seed)
        vocabs = rng.integers(1, 12, size=3)
        ds = _tiny_dataset(rng, 60, list(vocabs))
        once = top_k_collapse(ds, k)
        twice = top_k_collapse(once, k)
        assert datasets_equal(once, twice)

    def test_shares_the_arrays_it_keeps(self):
        ds = generate_synthetic(200, seed=2, n_dense=2, n_categorical=2, vocab_sizes=[3, 40])
        out = top_k_collapse(ds, 3)
        assert out.fields[1].vocab_size == 4
        assert np.shares_memory(out.labels, ds.labels) and np.shares_memory(out.dense, ds.dense)
        assert not np.shares_memory(out.categorical, ds.categorical)
        # No field collapses: every array is shared.
        same = top_k_collapse(ds, 40)
        for name in ("labels", "dense", "categorical"):
            assert np.shares_memory(getattr(same, name), getattr(ds, name))


class TestDropUnreferencedIds:
    def test_relabel_keeps_each_fields_id_order(self):
        ds = generate_synthetic(2000, seed=4, n_dense=1, n_categorical=3, vocab_sizes=[500, 7, 900])
        out, kept = drop_unreferenced_ids(ds)
        for j, f in enumerate(out.fields):
            assert f.name == ds.fields[j].name and f.vocab_size == len(kept[j])
            assert np.all(np.diff(kept[j]) > 0)  # increasing: the map is monotone
            np.testing.assert_array_equal(kept[j], np.unique(ds.categorical[:, j]))
            np.testing.assert_array_equal(kept[j][out.categorical[:, j]], ds.categorical[:, j])
        assert out.fields[0].vocab_size < 500 and out.fields[1].vocab_size == 7
        assert out.categorical.dtype == ID_DTYPE
        assert np.shares_memory(out.labels, ds.labels) and np.shares_memory(out.dense, ds.dense)

    def test_an_id_only_the_test_split_holds_is_kept(self):
        # Id 5 occurs in the last row only, so only the test split reads it.
        cat = np.array([[0], [2], [2], [0], [2], [0], [2], [0], [2], [5]])
        ds = Dataset((FieldSchema("c", 8),), np.zeros(10, dtype=np.uint8), np.zeros((10, 0)), cat)
        train_ds, test_ds = ds.split(0.9)
        assert 5 not in train_ds.categorical and 5 in test_ds.categorical
        out, kept = drop_unreferenced_ids(ds)
        np.testing.assert_array_equal(kept[0], [0, 2, 5])
        np.testing.assert_array_equal(out.categorical[:, 0], [0, 1, 1, 0, 1, 0, 1, 0, 1, 2])

    def test_the_scan_reaches_the_last_slice_of_rows(self):
        n = 2 * data_module._SCAN_ROWS + 1
        cat = np.zeros((n, 2), dtype=ID_DTYPE)
        cat[-1] = [3, 1]
        fields = (FieldSchema("a", 5), FieldSchema("b", 2))
        ds = Dataset(fields, np.zeros(n, dtype=np.uint8), np.zeros((n, 0)), cat)
        out, kept = drop_unreferenced_ids(ds)
        np.testing.assert_array_equal(kept[0], [0, 3])
        assert [f.vocab_size for f in out.fields] == [2, 2]
        assert out.categorical[-1].tolist() == [1, 1]
        assert not kept[0].flags.writeable

    def test_a_dataset_that_reads_every_id_comes_back_as_it_is(self):
        ds = _tiny_dataset(np.random.default_rng(3), 200, [3, 5, 4])
        assert all(len(np.unique(ds.categorical[:, j])) == f.vocab_size
                   for j, f in enumerate(ds.fields))
        out, kept = drop_unreferenced_ids(ds)
        assert out is ds and kept is None


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
        ds = generate_synthetic(777, seed=9, n_categorical=4, vocab_sizes=30)
        assert all(c.sum() == 777 for c in count_frequencies(ds))

    def test_unique_names_required(self):
        with pytest.raises(ValueError):
            Dataset(
                (FieldSchema("x", 2), FieldSchema("x", 2)),
                np.zeros(1, dtype=np.uint8), np.zeros((1, 0)),
                np.zeros((1, 2), dtype=np.int64),
            )

    def test_immutability(self):
        ds = generate_synthetic(10, seed=0, n_categorical=1, vocab_sizes=5)
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_stored_in_the_training_dtypes(self):
        rng = np.random.default_rng(0)
        fields = (FieldSchema("c", 7),)
        dense, cat = rng.normal(size=(20, 1)), rng.integers(0, 7, size=(20, 1), dtype=np.uint64)
        ds = Dataset(fields, np.zeros(20, dtype=np.uint8), dense, cat)
        assert ds.dense.dtype == TRAIN_DTYPE and ds.categorical.dtype == ID_DTYPE
        assert np.array_equal(ds.dense, dense.astype(np.float32))
        assert np.array_equal(ds.categorical, cat)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
    def test_non_integer_ids_rejected(self, dtype):
        cat = np.zeros((4, 1), dtype=dtype)
        with pytest.raises(ValueError, match=f"categorical ids must be integers, got dtype {np.dtype(dtype)}"):
            Dataset((FieldSchema("c", 2),), np.zeros(4, dtype=np.uint8), np.zeros((4, 0)), cat)

    @pytest.mark.parametrize("bad", [np.nan, 2.0, -1.0])
    def test_float_ids_fail_as_floats_not_as_out_of_range(self, bad):
        # NaN fails every comparison, so only the dtype check names it.
        cat = np.array([[0.0], [1.0], [bad]])
        with pytest.raises(ValueError, match="^categorical ids must be integers, got dtype float64$"):
            Dataset((FieldSchema("c", 2),), np.zeros(3, dtype=np.uint8), np.zeros((3, 0)), cat)

    @pytest.mark.parametrize("bad,field", [((0, -1, 0), "b"), ((0, 7, 0), "b"), ((3, 7, 0), "a"),
                                           ((0, 0, 2), "c")])
    def test_out_of_range_id_names_its_first_field(self, bad, field):
        # vocab_size (7) of the middle field is the first row of the next one
        # in the id space, so only the range check refuses it.
        fields = (FieldSchema("a", 3), FieldSchema("b", 7), FieldSchema("c", 2))
        cat = np.array([[0, 0, 0], bad, [2, 6, 1]])
        assert out_of_range_field(cat, fields).name == field
        assert out_of_range_field(np.delete(cat, 1, axis=0), fields) is None
        with pytest.raises(ValueError, match=f"^categorical ids out of range for field '{field}'$"):
            Dataset(fields, np.zeros(3, dtype=np.uint8), np.zeros((3, 0)), cat)

    def test_range_check_passes_on_no_rows_and_no_fields(self):
        fields = (FieldSchema("a", 3), FieldSchema("b", 7))
        assert out_of_range_field(np.zeros((0, 2), dtype=ID_DTYPE), fields) is None
        assert out_of_range_field(np.zeros((4, 0), dtype=ID_DTYPE), ()) is None
        assert out_of_range_field(np.zeros((0, 2), dtype=ID_DTYPE), (FieldSchema("a", 0),) * 2) is None

    @pytest.mark.parametrize("name,vocab_size,message", [
        (5, 3, "field name must be a string, got 5"),
        ("c", 4.5, "field 'c': vocab_size must be an integer, got 4.5"),
        ("c", "4", "field 'c': vocab_size must be an integer, got '4'"),
        ("c", True, "field 'c': vocab_size must be an integer, got True"),
        ("c", np.float64(4.0), "field 'c': vocab_size must be an integer, got np.float64(4.0)"),
    ], ids=["int-name", "float-vocab", "str-vocab", "bool-vocab", "numpy-float-vocab"])
    def test_field_schema_types(self, name, vocab_size, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FieldSchema(name, vocab_size)

    def test_vocab_must_fit_the_id_dtype(self):
        assert MAX_VOCAB_SIZE == 2**31
        FieldSchema("c", MAX_VOCAB_SIZE)
        with pytest.raises(ValueError, match=f"^field 'c9': vocab_size must be <= {2**31}, got {2**31 + 1}$"):
            FieldSchema("c9", MAX_VOCAB_SIZE + 1)

    @pytest.mark.parametrize("shape", [(10,), (9, 2), (11, 2), (10, 2, 1)])
    def test_dense_must_be_2d_with_a_row_per_label(self, shape):
        cat = np.zeros((10, 1), dtype=ID_DTYPE)
        message = re.escape(f"dense array must have shape (10, n_dense), got {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset((FieldSchema("c", 1),), np.zeros(10, dtype=np.uint8), np.zeros(shape), cat)

    @pytest.mark.parametrize("shape", [(10, 2), (10, 1), ()])
    def test_labels_must_be_1d(self, shape):
        cat = np.zeros((10, 1), dtype=ID_DTYPE)
        message = re.escape(f"labels array must have shape (n_samples,), got {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset((FieldSchema("c", 1),), np.zeros(shape, np.uint8), np.zeros((10, 0)), cat)

    def test_float_labels_load_as_uint8(self, tmp_path):
        labels = (np.arange(10) % 2).astype(np.float64)
        cat = np.zeros((10, 1), dtype=ID_DTYPE)
        save_npz(tmp_path / "f.npz", {"schema": [{"name": "c", "vocab_size": 1}], "meta": {}},
                 {"labels": labels, "dense": np.zeros((10, 0)), "categorical": cat})
        ds, _ = load_dataset(tmp_path / "f.npz")
        assert ds.labels.dtype == np.uint8 and np.array_equal(ds.labels, labels)

    def test_compact_arrays_are_kept(self):
        labels = np.arange(10, dtype=np.uint8) % 2
        dense = np.ones((10, 1), dtype=TRAIN_DTYPE)
        cat = np.arange(10, dtype=ID_DTYPE)[:, None] % 3
        ds = Dataset((FieldSchema("c", 3),), labels, dense, cat)
        assert ds.labels is labels and ds.dense is dense and ds.categorical is cat

    def test_split_halves_are_read_only_views(self):
        # A compact dataset: a split allocates no sample memory.
        ds = generate_synthetic(10, seed=0, n_dense=2, n_categorical=2, vocab_sizes=5)
        head, tail = ds.split(0.7)
        for half, rows in ((head, slice(0, 7)), (tail, slice(7, 10))):
            for name in ("labels", "dense", "categorical"):
                part, whole = getattr(half, name), getattr(ds, name)
                assert np.array_equal(part, whole[rows]) and part.dtype == whole.dtype
                assert np.shares_memory(part, whole) and not part.flags.writeable

    @pytest.mark.parametrize("n, fraction", [(10, 0.7), (100, 0.29), (3, 0.999), (1, 0.5)])
    def test_n_train_counts_the_head_of_split(self, n, fraction):
        ds = generate_synthetic(n, seed=0, n_dense=1, n_categorical=1, vocab_sizes=5)
        assert ds.n_train(fraction) == ds.split(fraction)[0].n_samples


class TestNpzContainer:
    def test_plain_npz_has_no_header(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, labels=np.zeros(3))
        with pytest.raises(ValueError, match="no 'header' array"):
            data_module.load_npz(path)
        with pytest.raises(ValueError, match="no 'header' array"):
            load_dataset(path)

    def test_checkpoint_is_not_a_dataset(self, tmp_path):
        # save_checkpoint writes the same npz-with-header container; its
        # header names a model, not a schema.
        from ctrlab.embedding import init_table
        from ctrlab.harness import ExperimentConfig, build_dataset
        from ctrlab.models import init_model, save_checkpoint

        fields = (FieldSchema("c0", 4),)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, init_model("wd", init_table(fields, 2), 1, hidden=(3,)))
        with pytest.raises(ValueError, match="^dataset header has no key 'schema'$"):
            load_dataset(path)
        with pytest.raises(ValueError, match="^dataset header has no key 'schema'$"):
            build_dataset(ExperimentConfig(source=str(path)), seed=0)
