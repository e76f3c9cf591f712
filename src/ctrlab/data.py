"""Datasets for CTR training experiments.

A dataset is a fixed table of (label, dense values, categorical ids), with
one FieldSchema per categorical column.  Categorical fields select exactly
one id per sample, so per-field id counts always sum to the number of
samples.  Everything here is immutable after construction and safe to share
between runs.
"""

from __future__ import annotations

import json
import math
import numbers
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

N_CRITEO_DENSE = 13
N_CRITEO_CATEGORICAL = 26

# The dtypes a dataset stores, which are the ones training reads: ids are
# int32, and the dense features are in the dtype of every trained array
# (tables, dense weights, optimizer moments and activations).
ID_DTYPE = np.int32
TRAIN_DTYPE = np.float32
# A field's ids are 0..vocab_size-1, so every id fits ID_DTYPE.
MAX_VOCAB_SIZE = int(np.iinfo(ID_DTYPE).max) + 1


class CriteoParseError(ValueError):
    """Raised on a malformed TSV row; carries the 1-based row number."""

    def __init__(self, row_number: int, message: str):
        super().__init__(f"row {row_number}: {message}")
        self.row_number = row_number


@dataclass(frozen=True)
class FieldSchema:
    """One categorical field: its name and its ids 0..vocab_size-1."""

    name: str
    vocab_size: int  # 0 is the degenerate nothing-seen case

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"field name must be a string, got {self.name!r}")
        if isinstance(self.vocab_size, bool) or not isinstance(self.vocab_size, numbers.Integral):
            raise ValueError(
                f"field {self.name!r}: vocab_size must be an integer, got {self.vocab_size!r}"
            )
        # A numpy integer is stored as an int, so that the field writes as JSON.
        object.__setattr__(self, "vocab_size", int(self.vocab_size))
        if self.vocab_size < 0:
            raise ValueError("vocab_size must be >= 0")
        if self.vocab_size > MAX_VOCAB_SIZE:
            raise ValueError(
                f"field {self.name!r}: vocab_size must be <= {MAX_VOCAB_SIZE}, got {self.vocab_size}"
            )


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def field_offsets(fields: Sequence[FieldSchema]) -> np.ndarray:
    """(n_fields + 1,) first row of each field in the id space, where id k of
    field j is row offsets[j] + k (as in an embedding block), then its size."""
    offsets = np.zeros(len(fields) + 1, dtype=np.int64)
    np.cumsum([f.vocab_size for f in fields], out=offsets[1:])
    return _freeze(offsets)


def split_rows(block: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-segment views of block: segment j is rows cuts[j]:cuts[j+1]."""
    return tuple(block[a:b] for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()))


def out_of_range_field(ids: np.ndarray, fields: Sequence[FieldSchema]) -> FieldSchema | None:
    """The first field whose column of ids (n, n_fields) has an id outside
    0..vocab_size-1, or None.  A highest id fits ID_DTYPE, so ids compare uncast."""
    highest = np.fromiter((f.vocab_size - 1 for f in fields), ID_DTYPE, len(fields))
    ok = (ids >= 0) & (ids <= highest)
    return None if ok.all() else fields[int(np.argmin(ok.all(axis=0)))]


@dataclass(frozen=True)
class Dataset:
    """Immutable sample table.  fields describes the categorical columns, the
    ones an embedding table is built over; the dense columns are unnamed.

    Labels are stored as uint8, ids of any integer dtype as ID_DTYPE and the
    dense features as TRAIN_DTYPE; arrays already in those dtypes are kept,
    not copied.
    """

    fields: tuple[FieldSchema, ...]
    labels: np.ndarray        # (N,) uint8 in {0,1}
    dense: np.ndarray         # (N, n_dense) TRAIN_DTYPE
    categorical: np.ndarray   # (N, n_categorical) ID_DTYPE

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError("field names must be unique")
        if self.labels.ndim != 1:
            raise ValueError(f"labels array must have shape (n_samples,), got {self.labels.shape}")
        n = len(self.labels)
        if self.dense.ndim != 2 or len(self.dense) != n:
            raise ValueError(f"dense array must have shape ({n}, n_dense), got {self.dense.shape}")
        if self.categorical.shape != (n, self.n_categorical):
            raise ValueError("categorical array shape does not match the fields")
        if n and not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        # Before the range check, which a NaN id would fail as out of range.
        if self.categorical.dtype.kind not in "iu":
            raise ValueError(f"categorical ids must be integers, got dtype {self.categorical.dtype}")
        bad = out_of_range_field(self.categorical, self.fields)
        if bad is not None:
            raise ValueError(f"categorical ids out of range for field {bad.name!r}")
        # The range and 0/1 checks passed, so the casts keep every value.
        object.__setattr__(self, "labels", self.labels.astype(np.uint8, copy=False))
        object.__setattr__(self, "categorical", self.categorical.astype(ID_DTYPE, copy=False))
        object.__setattr__(self, "dense", self.dense.astype(TRAIN_DTYPE, copy=False))
        _freeze(self.labels), _freeze(self.dense), _freeze(self.categorical)

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def n_dense(self) -> int:
        return self.dense.shape[1]

    @property
    def n_categorical(self) -> int:
        return len(self.fields)

    def n_train(self, train_fraction: float) -> int:
        """Rows in the head (training) half of split(train_fraction)."""
        return int(math.floor(self.n_samples * train_fraction))

    def split(self, train_fraction: float) -> tuple["Dataset", "Dataset"]:
        """Deterministic head/tail split (rows are assumed already shuffled).

        Both halves are read-only views of this dataset's arrays, so a split
        allocates no sample memory.
        """
        n_train = self.n_train(train_fraction)
        return tuple(
            Dataset(self.fields, self.labels[rows], self.dense[rows], self.categorical[rows])
            for rows in (slice(None, n_train), slice(n_train, None))
        )


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (
        a.fields == b.fields
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.dense, b.dense)
        and np.array_equal(a.categorical, b.categorical)
    )


@dataclass(frozen=True)
class Batch:
    labels: np.ndarray
    dense: np.ndarray
    categorical: np.ndarray


# Rows per slice of the id scan, so that the int64 copy of a slice's ids
# stays small (1.7 MB for 26 fields), where one pass would copy every id.
_SCAN_ROWS = 8192


def _id_counts(dataset: Dataset) -> np.ndarray:
    """Each id's number of occurrences over the id space; 0 rows give zeros."""
    offsets = field_offsets(dataset.fields)
    counts = np.zeros(offsets[-1], dtype=np.int64)
    for a in range(0, dataset.n_samples, _SCAN_ROWS):
        rows = dataset.categorical[a : a + _SCAN_ROWS] + offsets[:-1]
        # In place: a bincount per slice would allocate and add the whole id
        # space, a cost of slices x ids.
        np.add.at(counts, rows.ravel(), 1)
    return counts


def count_frequencies(dataset: Dataset) -> tuple[np.ndarray, ...]:
    """Per categorical field, in dataset.fields order: each id's number of
    occurrences, an array of the field's vocab_size."""
    if dataset.n_samples == 0:
        raise ValueError("cannot count frequencies of an empty dataset")
    return split_rows(_freeze(_id_counts(dataset)), field_offsets(dataset.fields))


def _relabel(dataset: Dataset, maps: Sequence[np.ndarray], sizes: Sequence[int]) -> Dataset:
    """The dataset with field j's id k relabeled maps[j][k] and sizes[j] ids."""
    new_id = np.concatenate(maps).astype(ID_DTYPE)
    categorical = new_id[dataset.categorical + field_offsets(dataset.fields)[:-1]]
    fields = tuple(FieldSchema(f.name, n) for f, n in zip(dataset.fields, sizes))
    # The datasets are immutable, so the labels and dense features are shared.
    return Dataset(fields, dataset.labels, dataset.dense, categorical)


def batch_presence_probability(prob_in_sample: float, batch_size: int, mode: str = "exact") -> float:
    """Probability that an id with per-sample probability p shows up in a batch.

    exact:  1 - (1-p)^b  (samples drawn with replacement)
    approx: min(1, b*p)  (binomial approximation; saturates for frequent ids)
    """
    p, b = prob_in_sample, batch_size
    if not 0.0 <= p <= 1.0:
        raise ValueError("prob_in_sample must lie in [0, 1]")
    if b < 1:
        raise ValueError("batch_size must be >= 1")
    if mode == "exact":
        if p == 1.0:
            return 1.0
        # 1 - (1-p)^b in log space: the direct form loses p's low bits when
        # it rounds 1-p, and then exceeds b*p for tiny p.
        return -math.expm1(b * math.log1p(-p))
    if mode == "approx":
        return min(1.0, b * p)
    raise ValueError(f"unknown mode {mode!r}")


def top_k_collapse(dataset: Dataset, k: int) -> Dataset:
    """Keep each field's k most frequent ids, merge the rest into one extra id.

    Kept ids are relabeled 0..k-1 in decreasing frequency (ties broken by lower
    original index); everything else maps to id k.  Fields that already have at
    most k+1 ids are left untouched, which makes the operation idempotent; a
    dataset none of whose fields collapse is returned as it is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    fields = dataset.fields
    if dataset.n_samples == 0 or all(f.vocab_size <= k + 1 for f in fields):
        return dataset
    maps = []
    for f, counts in zip(fields, count_frequencies(dataset)):
        mapping = np.arange(f.vocab_size)
        if f.vocab_size > k + 1:
            order = np.lexsort((mapping, -counts))
            mapping = np.full(f.vocab_size, k)
            mapping[order[:k]] = np.arange(k)
        maps.append(mapping)
    return _relabel(dataset, maps, [min(f.vocab_size, k + 1) for f in fields])


def drop_unreferenced_ids(dataset: Dataset) -> tuple[Dataset, tuple[np.ndarray, ...] | None]:
    """Drop from each field the ids that occur in no row.

    Field j's n_j ids that occur are relabeled 0..n_j-1 in increasing order,
    so the map keeps each field's id order.  Returns the relabeled dataset
    and, per field, its kept original ids (kept[j][new id] is the old id);
    when every id occurs, the dataset itself and None.
    """
    seen = _id_counts(dataset) > 0
    if seen.all():
        return dataset, None
    per_field = split_rows(seen, field_offsets(dataset.fields))
    kept = tuple(_freeze(np.flatnonzero(s)) for s in per_field)
    # Old id k of field j becomes its rank among the field's ids that occur.
    return _relabel(dataset, [np.cumsum(s) - 1 for s in per_field], [len(k) for k in kept]), kept


def make_batches(dataset: Dataset, batch_size: int, seed: int = 0) -> Iterator[Batch]:
    """Seeded epoch: floor(N/b) disjoint batches from one permutation.

    The trailing remainder is dropped so every step sees exactly b samples.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = dataset.n_samples
    if batch_size > n:
        raise ValueError("batch_size exceeds dataset size")
    perm = np.random.default_rng(seed).permutation(n)
    for i in range(n // batch_size):
        idx = perm[i * batch_size : (i + 1) * batch_size]
        yield Batch(dataset.labels[idx], dataset.dense[idx], dataset.categorical[idx])


# ---------------------------------------------------------------------------
# Criteo-format ingestion
# ---------------------------------------------------------------------------

# Bytes read per parse step.  A step's arrays take about 80 to 120 bytes per
# token, 20 to 30 times the step's bytes on Criteo-like rows, so this bounds
# the parse's memory beyond the output and the vocabulary.
CHUNK_BYTES = 256 * 1024

_N_COLUMNS = 1 + N_CRITEO_DENSE + N_CRITEO_CATEGORICAL
# _BYTE_MASKS[r] keeps the low r bytes of a little-endian 64-bit word.
_BYTE_MASKS = np.array([(1 << (8 * r)) - 1 for r in range(9)], dtype=np.uint64)
# The key group of each column: the label is group 0, the dense columns
# share group 1, since a dense value does not depend on its column, and
# categorical field j is group j + 2.
_COLUMN_GROUPS = np.array([0] + [1] * N_CRITEO_DENSE + list(range(2, N_CRITEO_CATEGORICAL + 2)))


def load_criteo_tsv(path) -> Dataset:
    r"""Parse the 40-column tab-separated ad-click format.

    Columns: label, 13 number-or-empty dense fields, 26 categorical tokens
    (empty token allowed and treated as a regular id).  A dense value is read
    with Python's float(), so " 7 ", "1e3" and "1_000" are numbers; it must be
    finite, and becomes ln(1 + max(v, 0)), the conventional compression for
    count-like fields; an empty one counts as 0.  Token indices are assigned
    in first-seen order per field, so the id labeling is deterministic for a
    fixed file.

    The file must be UTF-8.  A line ends at "\n"; a "\r" before it stays in
    the last token, and a "\r" anywhere else is a token byte too.  The first
    malformed row in file order raises CriteoParseError; within a row the
    column count is checked first, then the label, then the dense values from
    left to right.

    The file is parsed in blocks of whole lines of about CHUNK_BYTES with
    array operations: one sort per block finds its distinct tokens, float()
    runs once per distinct dense token, and categorical ids come from a
    vocabulary of hash-sorted arrays.  Memory beyond the output and the
    vocabulary stays a small multiple of CHUNK_BYTES.  On a 2-core Xeon this
    reads about 133k rows/s of a Criteo-like file.
    """
    # Flat typed columns in the dataset's dtypes, not a list per row: 4 bytes
    # a value instead of a Python object each, and neither numpy nor Dataset
    # makes a copy of them.
    labels, dense, categorical = array("B"), array("f"), array("i")
    vocab = _Vocabulary()
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            parsed = _parse_block(block, len(labels), vocab)
            for column, values in zip((labels, dense, categorical), parsed):
                column.frombytes(values.view(np.uint8))
    fields = tuple(FieldSchema(f"C{j + 1}", int(size)) for j, size in enumerate(vocab.sizes))
    n = len(labels)
    return Dataset(
        fields,
        np.frombuffer(labels, dtype=np.uint8),
        np.frombuffer(dense, dtype=TRAIN_DTYPE).reshape(n, N_CRITEO_DENSE),
        np.frombuffer(categorical, dtype=ID_DTYPE).reshape(n, N_CRITEO_CATEGORICAL),
    )


def _line_blocks(fh) -> Iterator[bytes]:
    """Yield the file as blocks of whole lines of about CHUNK_BYTES each.

    Every block but the file's last ends with a newline; a line longer than
    CHUNK_BYTES makes one longer block.
    """
    tail = b""
    while data := fh.read(CHUNK_BYTES):
        block = tail + data
        end = block.rfind(b"\n") + 1
        if end:
            yield block[:end]
        tail = block[end:]
    if tail:
        yield tail


def _parse_block(
    block: bytes, rows_before: int, vocab: _Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, transformed dense values and categorical ids of the block's
    lines, in the dataset's dtypes."""
    data = np.frombuffer(block, dtype=np.uint8)
    line_end = np.flatnonzero(data == ord("\n"))
    if not block.endswith(b"\n"):
        line_end = np.append(line_end, len(block))
    # A file that is not UTF-8 fails here, as it did in text mode.
    str(memoryview(block)[: line_end[-1]], "utf-8")
    line_start = np.concatenate(([0], line_end[:-1] + 1))
    tabs = np.flatnonzero(data[: line_end[-1]] == ord("\t"))
    n_columns = np.diff(np.searchsorted(tabs, line_end), prepend=0) + 1

    # The k rows before the first one with a wrong column count have 39 tabs
    # each.  Token c of row r is token r * _N_COLUMNS + c.
    wrong_width = np.flatnonzero(n_columns != _N_COLUMNS)
    k = int(wrong_width[0]) if len(wrong_width) else len(line_end)
    row_tabs = tabs[: k * (_N_COLUMNS - 1)].reshape(k, _N_COLUMNS - 1)
    start = np.column_stack((line_start[:k], row_tabs + 1)).ravel()
    length = np.column_stack((row_tabs, line_end[:k])).ravel() - start

    def texts(tokens):
        return [block[a : a + b] for a, b in zip(start[tokens].tolist(), length[tokens].tolist())]

    label = data[start[::_N_COLUMNS]] - ord("0")
    bad_label = (length[::_N_COLUMNS] != 1) | (label > 1)
    group = np.tile(_COLUMN_GROUPS, k)
    words = _token_words(block, start, length)
    first, inverse = _unique_tokens(words, group, length)
    inverse = inverse.reshape(k, _N_COLUMNS)
    first_group = group[first]
    dense_lo, cat_lo = np.searchsorted(first_group, [1, 2])
    dense_inverse = inverse[:, 1 : 1 + N_CRITEO_DENSE] - dense_lo

    values = np.fromiter(map(_dense_value, texts(first[dense_lo:cat_lo])), np.float64)
    bad_dense = np.isnan(values)[dense_inverse]
    bad = np.flatnonzero(bad_label | bad_dense.any(axis=1))
    if len(bad):
        r = int(bad[0])
        c = 0 if bad_label[r] else 1 + int(np.argmax(bad_dense[r]))
        raw = texts([r * _N_COLUMNS + c])[0].decode()
        message = f"label must be 0 or 1, got {raw!r}" if c == 0 else f"bad dense value {raw!r}"
        raise CriteoParseError(rows_before + r + 1, message)
    if k < len(line_end):
        raise CriteoParseError(
            rows_before + k + 1, f"expected {_N_COLUMNS} columns, got {n_columns[k]}"
        )

    cat = first[cat_lo:]
    field = first_group[cat_lo:] - 2
    ids = vocab.ids_of(field, length[cat], np.take(words, cat, axis=1), cat).astype(ID_DTYPE)
    return (
        label,
        # Computed in float64 and rounded once, as Dataset would round it.
        values.astype(TRAIN_DTYPE)[dense_inverse.ravel()],
        ids[inverse[:, 1 + N_CRITEO_DENSE :].ravel() - cat_lo],
    )


def _dense_value(token: bytes) -> float:
    """ln(1 + max(v, 0)) of a dense token's float() value v, with v = 0.0 for
    an empty token; nan if v is no finite number."""
    try:
        v = float(token.decode()) if token else 0.0
    except ValueError:
        return math.nan
    return math.log1p(max(v, 0.0)) if math.isfinite(v) else math.nan


def _token_words(block: bytes, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Each token's bytes as little-endian 64-bit words, zero past its end:
    shape (words of the longest token, tokens).

    The words are read through an unaligned view of a zero-padded copy of
    the block, so a read may run past the block's end.
    """
    n_words = -(-int(length.max(initial=0)) // 8)
    buf = np.zeros(len(block) + 8 * (n_words + 1), dtype=np.uint8)
    buf[: len(block)] = np.frombuffer(block, dtype=np.uint8)
    view = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    words = np.empty((n_words, len(start)), dtype=np.uint64)
    for w in range(n_words):
        words[w] = view[start + 8 * w] & _BYTE_MASKS[np.clip(length - 8 * w, 0, 8)]
    return words


def _unique_tokens(
    words: np.ndarray, group: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    r"""Find equal tokens, their key being (group, length, words).

    Returns the index of each distinct token's first occurrence, in key order
    (so by group first), and the distinct-token index of every token.  The
    length is part of the key, so that b"a" and b"a\0" differ.
    """
    # The sort goes word by word and ends on (group, length) as the primary
    # key.  That key is stored in the smallest dtype that holds it, so that
    # numpy's stable sort can use a radix sort; only the later passes need to
    # be stable.
    head = group * (int(length.max(initial=0)) + 1) + length
    keys = [*words, head.astype(np.min_scalar_type(int(head.max(initial=0))))]
    order = np.argsort(keys[0])
    for key in keys[1:]:
        order = order[np.argsort(key[order], kind="stable")]
    is_first = np.zeros(len(order), dtype=bool)
    is_first[:1] = True
    for key in keys:
        sorted_key = key[order]
        is_first[1:] |= sorted_key[1:] != sorted_key[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(is_first) - 1
    # The first pass was not stable, so a run's lowest index is its first occurrence.
    return np.minimum.reduceat(order, np.flatnonzero(is_first)), inverse


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer: a bijection on uint64 that maps 0 to 0."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class _Vocabulary:
    """The categorical tokens seen so far and their field-local ids.

    A token is a key record, the uint64 words [field << 32 | length, token
    words...], zero-padded to the widest record seen and stored one column
    per token.  Records are kept in runs sorted by a 64-bit hash; a lookup
    compares whole records, so tokens with equal hashes stay distinct.  A new
    run merges with the one before it while that one is at most twice as
    long, so there are O(log n) runs and each record is re-sorted O(log n)
    times.
    """

    def __init__(self):
        self.sizes = np.zeros(N_CRITEO_CATEGORICAL, dtype=np.int64)
        self._width = 1
        self._runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # hashes, records, ids

    def ids_of(
        self, field: np.ndarray, length: np.ndarray, words: np.ndarray, seen_at: np.ndarray
    ) -> np.ndarray:
        """The id of each distinct token, given its field, byte length and
        words.  Tokens not seen before take their field's next ids in order
        of seen_at."""
        width = 1 + len(words)
        if width > self._width:
            pad = ((0, width - self._width), (0, 0))
            self._runs = [(h, np.pad(r, pad), i) for h, r, i in self._runs]
            self._width = width
        records = np.zeros((self._width, len(field)), dtype=np.uint64)
        records[0], records[1:width] = field << 32 | length, words
        hashes = np.zeros(records.shape[1], dtype=np.uint64)
        for j, word in enumerate(records):
            hashes ^= _mix(word * np.uint64(2 * j + 1))  # a zero pad word adds nothing
        ids = np.full(len(hashes), -1, dtype=np.int64)
        unseen = np.argsort(hashes)  # searchsorted is faster on sorted needles
        for run_hashes, run_records, run_ids in self._runs:
            unseen = unseen[ids[unseen] < 0]
            todo, at = unseen, np.searchsorted(run_hashes, hashes[unseen])
            while len(todo):
                hit = at < len(run_hashes)
                todo, at = todo[hit], at[hit]
                hit = run_hashes[at] == hashes[todo]
                todo, at = todo[hit], at[hit]
                same = (np.take(run_records, at, axis=1) == np.take(records, todo, axis=1)).all(axis=0)
                ids[todo[same]] = run_ids[at[same]]
                todo, at = todo[~same], at[~same] + 1
        new = np.flatnonzero(ids < 0)
        new = new[np.lexsort((seen_at[new], field[new]))]
        new_field = field[new]
        rank = np.arange(len(new)) - np.searchsorted(new_field, new_field)
        ids[new] = self.sizes[new_field] + rank
        self.sizes += np.bincount(new_field, minlength=N_CRITEO_CATEGORICAL)
        if len(new):
            self._add(hashes[new], np.take(records, new, axis=1), ids[new])
        return ids

    def _add(self, hashes: np.ndarray, records: np.ndarray, ids: np.ndarray) -> None:
        while self._runs and len(self._runs[-1][0]) <= 2 * len(hashes):
            run_hashes, run_records, run_ids = self._runs.pop()
            hashes = np.concatenate((run_hashes, hashes))
            records = np.concatenate((run_records, records), axis=1)
            ids = np.concatenate((run_ids, ids))
        order = np.argsort(hashes)
        self._runs.append((hashes[order], np.take(records, order, axis=1), ids[order]))


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def zipf_probabilities(vocab_size: int, exponent: float) -> np.ndarray:
    if exponent <= 0:
        raise ValueError("zipf_exponent must be > 0")
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    mass = ranks ** (-exponent)
    return mass / mass.sum()


def generate_synthetic(
    n_samples: int,
    seed: int,
    *,
    n_dense: int = 2,
    n_categorical: int = 6,
    vocab_sizes: int | Sequence[int] = 10_000,
    zipf_exponent: float = 1.2,
    click_strength: float = 1.0,
) -> Dataset:
    """Draw a labeled dataset with a controlled id-frequency distribution.

    vocab_sizes is one size for every categorical field, or one per field.
    Field j's ids follow a Zipf law: id k of a vocabulary V gets probability
    (k+1)^-a / sum_i (i+1)^-a, a being zipf_exponent.  Labels come from a
    planted linear model: every id owns a hidden weight, dense features enter
    linearly, every term is scaled by click_strength, and the click is
    Bernoulli(sigmoid(score)).  Deterministic for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    vocabs = [vocab_sizes] * n_categorical if np.ndim(vocab_sizes) == 0 else list(vocab_sizes)
    if len(vocabs) != n_categorical:
        raise ValueError("vocab_sizes length must equal n_categorical")
    fields = tuple(FieldSchema(f"cat_{j}", v) for j, v in enumerate(vocabs))
    if any(f.vocab_size < 1 for f in fields):
        raise ValueError("vocab sizes must all be >= 1")

    rng = np.random.default_rng(seed)
    categorical = np.empty((n_samples, n_categorical), dtype=ID_DTYPE)
    score = np.zeros(n_samples)
    for j, f in enumerate(fields):
        v = f.vocab_size
        ids = rng.choice(v, size=n_samples, p=zipf_probabilities(v, zipf_exponent))
        categorical[:, j] = ids
        hidden = rng.normal(0.0, 1.0, size=v) * click_strength
        score += hidden[ids]
    # The click model reads the float64 draws; Dataset stores them rounded.
    # A matrix product, as c * dense.sum(axis=1) would round differently.
    dense = rng.normal(0.0, 1.0, size=(n_samples, n_dense))
    score += dense @ np.full(n_dense, float(click_strength))
    prob = 1.0 / (1.0 + np.exp(-score))
    labels = (rng.random(n_samples) < prob).astype(np.uint8)
    return Dataset(fields, labels, dense, categorical)


# ---------------------------------------------------------------------------
# Serialization: npz container with a JSON header
# ---------------------------------------------------------------------------

def save_npz(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays plus a JSON header, stored as the uint8 array "header"."""
    np.savez_compressed(
        path, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays
    )


def load_npz(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read what save_npz wrote: (header, every other array by name)."""
    with np.load(path) as z:
        if "header" not in z.files:
            raise ValueError(f"{path} has no 'header' array: not a file save_npz wrote")
        header = json.loads(z["header"].tobytes().decode())
        arrays = {name: z[name] for name in z.files if name != "header"}
    return header, arrays


def fields_to_header(fields: Sequence[FieldSchema]) -> list[dict]:
    """The JSON form of a field list, as dataset and checkpoint headers store it."""
    return [{"name": f.name, "vocab_size": f.vocab_size} for f in fields]


def fields_from_header(entries, where: str) -> tuple[FieldSchema, ...]:
    """Read what fields_to_header wrote; where names the list in errors.

    Older dataset files also list the dense columns, as entries of kind
    "dense"; those are skipped.
    """
    if not isinstance(entries, list):
        raise ValueError(f"{where} must be a list of fields, got {entries!r}")
    fields = []
    for i, entry in enumerate(entries):
        if isinstance(entry, dict) and entry.get("kind") == "dense":
            continue
        if not isinstance(entry, dict) or not {"name", "vocab_size"} <= entry.keys():
            raise ValueError(f"{where} entry {i} must have a name and a vocab_size, got {entry!r}")
        fields.append(FieldSchema(entry["name"], entry["vocab_size"]))
    return tuple(fields)


def save_dataset(path, dataset: Dataset, meta: dict | None = None) -> None:
    header = {"schema": fields_to_header(dataset.fields), "meta": meta or {}}
    arrays = {
        "labels": dataset.labels, "dense": dataset.dense, "categorical": dataset.categorical,
    }
    save_npz(path, header, arrays)


def load_dataset(path) -> tuple[Dataset, dict]:
    header, z = load_npz(path)
    for key in ("schema", "meta"):
        if key not in header:
            raise ValueError(f"dataset header has no key {key!r}")
    for name in ("labels", "dense", "categorical"):
        if name not in z:
            raise ValueError(f"dataset file has no array {name!r}")
    fields = fields_from_header(header["schema"], "dataset schema")
    return Dataset(fields, z["labels"], z["dense"], z["categorical"]), header["meta"]
