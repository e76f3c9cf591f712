"""Seeded writer of Criteo-format TSV files for the benchmark.

Writes label, 13 integer-or-empty dense columns and 26 hex-token categorical
columns, tab separated, one row per line.  Ids per field follow a Zipf law
and labels come from a planted logistic model over ids and dense values, so
the file is learnable.  It uses numpy only, never ctrlab.data, so the parser
under test does not generate its own input.
"""

from __future__ import annotations

import numpy as np

N_DENSE = 13
N_CATEGORICAL = 26

# Per-field id cardinalities: a Criteo-like mix of tiny, mid-size and wide fields.
VOCAB_SIZES = (
    1000, 500, 20000, 10000, 200, 20, 5000, 500, 3, 10000, 4000, 20000, 3000,
    25, 5000, 15000, 10, 2000, 1000, 4, 20000, 10, 15, 8000, 50, 6000,
)
ZIPF_EXPONENT = 1.1
EMPTY_DENSE_FRAC = 0.2
LOGIT_SCALE = 1.5
LOGIT_OFFSET = -1.4


def _zipf_ids(rng: np.random.Generator, vocab: int, n: int) -> np.ndarray:
    mass = np.arange(1, vocab + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cdf = np.cumsum(mass / mass.sum())
    return np.minimum(np.searchsorted(cdf, rng.random(n)), vocab - 1)


def write_criteo_tsv(path, n_rows: int, seed: int) -> None:
    """Write n_rows rows to path; the same (n_rows, seed) gives the same bytes."""
    rng = np.random.default_rng(seed)
    score = np.zeros(n_rows)
    columns = []

    counts = np.floor(np.expm1(rng.normal(1.5, 1.2, size=(n_rows, N_DENSE)).clip(0, None)))
    counts = counts.astype(np.int64)
    score += np.log1p(counts) @ rng.normal(0.0, 0.25, size=N_DENSE)
    empty = rng.random((n_rows, N_DENSE)) < EMPTY_DENSE_FRAC
    for i in range(N_DENSE):
        col = counts[:, i].astype(str).astype(object)
        col[empty[:, i]] = ""
        columns.append(col)

    for vocab in VOCAB_SIZES:
        ids = _zipf_ids(rng, vocab, n_rows)
        score += rng.normal(0.0, 0.35, size=vocab)[ids]
        # An odd multiplier is a bijection mod 2**32, so tokens stay distinct.
        salt = int(rng.integers(0, 2**32))
        tokens = (np.arange(vocab, dtype=np.uint64) * np.uint64(2654435761) + np.uint64(salt))
        hex_tokens = np.array([f"{t:08x}" for t in (tokens % np.uint64(2**32)).tolist()], dtype=object)
        columns.append(hex_tokens[ids])

    # A fixed logit scale and offset keep the click rate near a quarter (as in
    # Criteo) and the attainable AUC alike from seed to seed.
    score = LOGIT_SCALE * (score - score.mean()) / score.std() + LOGIT_OFFSET
    labels = (rng.random(n_rows) < 1.0 / (1.0 + np.exp(-score))).astype(np.int64)
    columns.insert(0, labels.astype(str).astype(object))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines("\t".join(row) + "\n" for row in zip(*columns))
