"""Datasets for CTR training experiments.

A dataset is a fixed table of (label, dense values, categorical ids) with a
schema.  Categorical fields select exactly one id per sample, so per-field id
counts always sum to the number of samples.  Everything here is immutable
after construction and safe to share between runs.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

DENSE = "dense"
CATEGORICAL = "categorical"

N_CRITEO_DENSE = 13
N_CRITEO_CATEGORICAL = 26


class CriteoParseError(ValueError):
    """Raised on a malformed TSV row; carries the 1-based row number."""

    def __init__(self, row_number: int, message: str):
        super().__init__(f"row {row_number}: {message}")
        self.row_number = row_number


@dataclass(frozen=True)
class FieldSchema:
    name: str
    kind: str
    vocab_size: int = 0  # categorical only; 0 is the degenerate nothing-seen case

    def __post_init__(self):
        if self.kind not in (DENSE, CATEGORICAL):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == CATEGORICAL and self.vocab_size < 0:
            raise ValueError("vocab_size must be >= 0")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable sample table.  Schema lists dense fields first, then categorical."""

    schema: tuple[FieldSchema, ...]
    labels: np.ndarray        # (N,) uint8 in {0,1}
    dense: np.ndarray         # (N, n_dense) float64
    categorical: np.ndarray   # (N, n_categorical) int64

    def __post_init__(self):
        names = [f.name for f in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("field names must be unique within a schema")
        n = len(self.labels)
        if self.dense.shape != (n, self.n_dense):
            raise ValueError("dense array shape does not match schema")
        if self.categorical.shape != (n, self.n_categorical):
            raise ValueError("categorical array shape does not match schema")
        if n and not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        for j, f in enumerate(self.categorical_fields):
            col = self.categorical[:, j]
            if n and (col.min() < 0 or col.max() >= f.vocab_size):
                raise ValueError(f"categorical ids out of range for field {f.name!r}")
        _freeze(self.labels), _freeze(self.dense), _freeze(self.categorical)

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def dense_fields(self) -> tuple[FieldSchema, ...]:
        return tuple(f for f in self.schema if f.kind == DENSE)

    @property
    def categorical_fields(self) -> tuple[FieldSchema, ...]:
        return tuple(f for f in self.schema if f.kind == CATEGORICAL)

    @property
    def n_dense(self) -> int:
        return len(self.dense_fields)

    @property
    def n_categorical(self) -> int:
        return len(self.categorical_fields)

    def split(self, train_fraction: float) -> tuple["Dataset", "Dataset"]:
        """Deterministic head/tail split (rows are assumed already shuffled).

        Both halves are read-only views of this dataset's arrays, so a split
        allocates no sample memory.
        """
        n_train = int(math.floor(self.n_samples * train_fraction))
        return tuple(
            Dataset(self.schema, self.labels[rows], self.dense[rows], self.categorical[rows])
            for rows in (slice(None, n_train), slice(n_train, None))
        )


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (
        a.schema == b.schema
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.dense, b.dense)
        and np.array_equal(a.categorical, b.categorical)
    )


@dataclass(frozen=True)
class Batch:
    labels: np.ndarray
    dense: np.ndarray
    categorical: np.ndarray

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class FrequencyTable:
    """Per categorical field: id occurrence counts over a dataset of N samples."""

    field_names: tuple[str, ...]
    counts: tuple[np.ndarray, ...]
    total_samples: int

    def count(self, field: int, id_index: int) -> int:
        return int(self.counts[field][id_index])

    def probability(self, field: int, id_index: int) -> float:
        return self.counts[field][id_index] / self.total_samples

    def probabilities(self, field: int) -> np.ndarray:
        return self.counts[field] / self.total_samples


def count_frequencies(dataset: Dataset) -> FrequencyTable:
    if dataset.n_samples == 0:
        raise ValueError("cannot count frequencies of an empty dataset")
    fields = dataset.categorical_fields
    counts = tuple(
        _freeze(np.bincount(dataset.categorical[:, j], minlength=f.vocab_size))
        for j, f in enumerate(fields)
    )
    return FrequencyTable(tuple(f.name for f in fields), counts, dataset.n_samples)


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
    most k+1 ids are left untouched, which makes the operation idempotent.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    freq = count_frequencies(dataset) if dataset.n_samples else None
    new_cols = []
    new_cat_schema = []
    for j, f in enumerate(dataset.categorical_fields):
        if f.vocab_size <= k + 1 or freq is None:
            new_cols.append(dataset.categorical[:, j])
            new_cat_schema.append(f)
            continue
        counts = freq.counts[j]
        order = np.lexsort((np.arange(f.vocab_size), -counts))
        mapping = np.full(f.vocab_size, k, dtype=np.int64)
        mapping[order[:k]] = np.arange(k)
        new_cols.append(mapping[dataset.categorical[:, j]])
        new_cat_schema.append(FieldSchema(f.name, CATEGORICAL, k + 1))
    categorical = (
        np.stack(new_cols, axis=1) if new_cols else dataset.categorical.copy()
    )
    schema = dataset.dense_fields + tuple(new_cat_schema)
    return Dataset(schema, dataset.labels.copy(), dataset.dense.copy(), categorical)


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

def load_criteo_tsv(path, max_rows: int | None = None) -> Dataset:
    """Parse the 40-column tab-separated ad-click format.

    Columns: label, 13 integer-or-empty dense fields, 26 categorical tokens
    (empty token allowed and treated as a regular id).  A dense value v
    becomes ln(1 + max(v, 0)), the conventional compression for count-like
    fields; an empty one counts as 0.  Token indices are assigned in
    first-seen order per field, so the id labeling is deterministic for a
    fixed file.
    """
    # Flat typed columns, not a list per row: 8 bytes a value instead of a
    # Python object each, and numpy reads them without a conversion pass.
    labels, dense, categorical = array("B"), array("d"), array("q")
    vocab: list[dict[str, int]] = [dict() for _ in range(N_CRITEO_CATEGORICAL)]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row_number, line in enumerate(fh, start=1):
            if max_rows is not None and len(labels) >= max_rows:
                break
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
                dense.append(math.log1p(max(value, 0.0)))
            for j, token in enumerate(cols[1 + N_CRITEO_DENSE :]):
                categorical.append(vocab[j].setdefault(token, len(vocab[j])))
    schema = tuple(
        FieldSchema(f"I{i + 1}", DENSE) for i in range(N_CRITEO_DENSE)
    ) + tuple(
        FieldSchema(f"C{j + 1}", CATEGORICAL, len(vocab[j]))
        for j in range(N_CRITEO_CATEGORICAL)
    )
    n = len(labels)
    return Dataset(
        schema,
        np.frombuffer(labels, dtype=np.uint8),
        np.frombuffer(dense, dtype=np.float64).reshape(n, N_CRITEO_DENSE),
        np.frombuffer(categorical, dtype=np.int64).reshape(n, N_CRITEO_CATEGORICAL),
    )


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and skew of a synthetic CTR dataset.

    Categorical ids follow a Zipf law: id k of a field with vocabulary V gets
    probability (k+1)^-a / sum_j (j+1)^-a.  uniform_ids replaces the skew with
    a uniform draw (the a -> 0 limit).
    """

    n_dense: int = 2
    n_categorical: int = 6
    vocab_sizes: int | Sequence[int] = 10_000
    zipf_exponent: float = 1.2
    uniform_ids: bool = False

    def vocab_list(self) -> list[int]:
        if isinstance(self.vocab_sizes, int):
            return [self.vocab_sizes] * self.n_categorical
        sizes = list(self.vocab_sizes)
        if len(sizes) != self.n_categorical:
            raise ValueError("vocab_sizes length must equal n_categorical")
        return sizes


def zipf_probabilities(vocab_size: int, exponent: float) -> np.ndarray:
    if exponent <= 0:
        raise ValueError("zipf_exponent must be > 0")
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    mass = ranks ** (-exponent)
    return mass / mass.sum()


def generate_synthetic(
    spec: SyntheticSpec,
    n_samples: int,
    seed: int,
    click_model: np.ndarray | None = None,
) -> Dataset:
    """Draw a labeled dataset with a controlled id-frequency distribution.

    Labels come from a planted linear model: every id owns a hidden weight,
    dense features enter linearly, and the click is Bernoulli(sigmoid(score)).
    click_model gives one strength multiplier per field (categorical fields
    first, then dense); default all ones.  Deterministic for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    vocabs = spec.vocab_list()
    if any(v < 1 for v in vocabs):
        raise ValueError("vocab sizes must all be >= 1")
    n_fields = spec.n_categorical + spec.n_dense
    if click_model is None:
        click_model = np.ones(n_fields)
    click_model = np.asarray(click_model, dtype=np.float64)
    if click_model.shape != (n_fields,):
        raise ValueError("click_model must have one weight per field")

    rng = np.random.default_rng(seed)
    categorical = np.empty((n_samples, spec.n_categorical), dtype=np.int64)
    score = np.zeros(n_samples)
    for j, v in enumerate(vocabs):
        if spec.uniform_ids:
            ids = rng.integers(0, v, size=n_samples)
        else:
            probs = zipf_probabilities(v, spec.zipf_exponent)
            ids = rng.choice(v, size=n_samples, p=probs)
        categorical[:, j] = ids
        hidden = rng.normal(0.0, 1.0, size=v) * click_model[j]
        score += hidden[ids]
    dense = rng.normal(0.0, 1.0, size=(n_samples, spec.n_dense))
    score += dense @ click_model[spec.n_categorical :]
    prob = 1.0 / (1.0 + np.exp(-score))
    labels = (rng.random(n_samples) < prob).astype(np.uint8)

    schema = tuple(
        FieldSchema(f"dense_{i}", DENSE) for i in range(spec.n_dense)
    ) + tuple(
        FieldSchema(f"cat_{j}", CATEGORICAL, v) for j, v in enumerate(vocabs)
    )
    return Dataset(schema, labels, dense, categorical)


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
        header = json.loads(z["header"].tobytes().decode())
        arrays = {name: z[name] for name in z.files if name != "header"}
    return header, arrays


def save_dataset(path, dataset: Dataset, meta: dict | None = None) -> None:
    header = {
        "schema": [
            {"name": f.name, "kind": f.kind, "vocab_size": f.vocab_size}
            for f in dataset.schema
        ],
        "meta": meta or {},
    }
    arrays = {
        "labels": dataset.labels, "dense": dataset.dense, "categorical": dataset.categorical,
    }
    save_npz(path, header, arrays)


def load_dataset(path) -> tuple[Dataset, dict]:
    header, z = load_npz(path)
    schema = tuple(
        FieldSchema(f["name"], f["kind"], f["vocab_size"]) for f in header["schema"]
    )
    return Dataset(schema, z["labels"], z["dense"], z["categorical"]), header["meta"]
