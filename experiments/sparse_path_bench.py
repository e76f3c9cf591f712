"""Microbenchmark of the sparse id path of one training step.

    python experiments/sparse_path_bench.py [--reps K] [--seed N]

Times, as the fastest of K calls each, the three stages a lazy-Adam step
runs on the embedding table after the lookup:

- LookupRecord.unique_rows: the batch's distinct table rows, the inverse
  and the counts (with np.unique of the same rows as a reference);
- accumulate_gradients: the per-row gradient sums;
- adam_sparse_step with dense_l2=False: the lazy Adam step on those rows.

Cases: b = 1024 and 16384 on the benchmark's Criteo shape (26 Zipf fields
with perfbench/criteo_gen.py's vocabulary sizes, dim 10, float32), and
b = 1024 on a table of 10M rows (26 equal fields, uniform ids, dim 2 so the
block and its two moments stay at 80 MB each).  The ctrlab under src/ next
to this file is the one timed.  The last line of stdout is one JSON object
with every time in ms and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from criteo_gen import VOCAB_SIZES, _zipf_ids  # noqa: E402
from ctrlab.data import Batch, FieldSchema  # noqa: E402
from ctrlab.embedding import (  # noqa: E402
    LookupRecord,
    accumulate_gradients,
    init_table,
    lookup_forward,
)
from ctrlab.optim import EmbedAdamState, adam_sparse_step  # noqa: E402

BIG_ROWS = 10_000_000


def min_ms(fns: dict, reps: int) -> dict[str, float]:
    """Each function's fastest of reps calls, in ms.  The functions take
    turns, so each call finds the caches as the others left them, as the
    stages of a training step do."""
    for fn in fns.values():
        fn()  # the first call faults in pages that later calls reuse
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(reps):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: 1e3 * s for name, s in best.items()}


def case(vocabs, ids_of, b: int, dim: int, reps: int, rng) -> dict:
    fields = tuple(FieldSchema(f"c{j}", v) for j, v in enumerate(vocabs))
    table = init_table(fields, dim, seed=0)
    ids = np.stack([ids_of(rng, v, b) for v in vocabs], axis=1)
    batch = Batch(np.zeros(b, np.uint8), np.zeros((b, 0), np.float32), ids)
    _, record = lookup_forward(table, batch)
    upstream = rng.normal(size=(b, len(vocabs) * dim)).astype(table.block.dtype)
    flat = record.rows.ravel()
    grad = accumulate_gradients(record, upstream)
    state = EmbedAdamState.init(table)
    out = min_ms({
        "np.unique": lambda: np.unique(flat, return_inverse=True, return_counts=True),
        # The property's function, which its cache would otherwise skip.
        "unique_rows": lambda: LookupRecord.unique_rows.func(record),
        "accumulate_gradients": lambda: accumulate_gradients(record, upstream),
        "lazy adam_sparse_step":
            lambda: adam_sparse_step(state, table, grad, 1e-3, 1e-4, dense_l2=False),
    }, reps)
    out["distinct rows"] = len(grad.row_block)
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=30, help="calls per timing (min is kept)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the id draws")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    rng = np.random.default_rng(args.seed)
    width = BIG_ROWS // 26
    big = (width,) * 25 + (BIG_ROWS - 25 * width,)
    uniform = lambda rng, v, n: rng.integers(0, v, size=n)  # noqa: E731
    results = {}
    for name, vocabs, ids_of, b, dim in (
        ("criteo b=1024", VOCAB_SIZES, _zipf_ids, 1024, 10),
        ("criteo b=16384", VOCAB_SIZES, _zipf_ids, 16384, 10),
        ("10M rows b=1024", big, uniform, 1024, 2),
    ):
        results[name] = case(vocabs, ids_of, b, dim, args.reps, rng)
        for key, value in results[name].items():
            shown = f"{value:10d}" if isinstance(value, int) else f"{value:10.3f} ms"
            print(f"{name:18s} {key:22s} {shown}")
    print(json.dumps({"reps": args.reps, "seed": args.seed, "env": environment(),
                      "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
