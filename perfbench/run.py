"""Training benchmark for ctrlab: one closed batch job per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run builds datasets with `harness.build_dataset` and trains on them with
`harness.train`, one after the other in this process, until at least
--seconds have passed and at least MIN_REPS trainings are done.  Untraced,
it builds QUALITY_DATASETS datasets once each and trains on them in turn.
Every training is checked: not diverged, every loss finite, final test AUC
above the initial one by AUC_MARGIN, and final test logloss below the
initial one.  Every training on one dataset must give the same
`harness.record_fingerprint`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced trainings on the same datasets and reports the per-layer metrics;
the tracer lives in spans.py and wraps ctrlab's public functions from the
outside.  The last line of stdout is one JSON object; the lines above it
print every metric with its unit, the environment and the checks.

The seed only selects the generated inputs.  Seeds 1 to 10 are the ones to
tune and compare with; seed HELD_OUT_SEED is kept for confirming a claim.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# BLAS reads its thread count when numpy loads, so this precedes the import.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

if not (ROOT / "src" / "ctrlab" / "harness.py").is_file():
    sys.exit(f"perfbench: no ctrlab sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from ctrlab import harness  # noqa: E402
from criteo_gen import write_criteo_tsv  # noqa: E402
from spans import TRACED, Tracer, adam_sparse_alloc_mb  # noqa: E402

HELD_OUT_SEED = 7919
MIN_REPS = 4           # untraced: datasets 0, 0, 1, 2, so one same-seed pair
QUALITY_DATASETS = 3   # datasets an untraced run trains on; quality averages them
# Final test AUC must beat the initial one by this much.  Random init alone
# reaches an initial AUC near 0.69 on some datasets, because the untrained MLP
# already sees the two planted dense features; wide then ends near 0.72.
AUC_MARGIN = 0.01
SETUP_MIN_S = 0.5      # an untraced build repeats until this much setup time is spent
WORK_DIR = Path(".bench_out")

# The c09 DESK data (6 Zipf fields x 10k ids) at a size where one training
# takes a few seconds; desk and wide share it.
DESK_DATA = harness.ExperimentConfig(
    n_samples=40_000, n_categorical=6, n_dense=2, vocab_size=10_000,
    zipf_exponent=1.2, click_strength=1.0, split=0.8,
    embed_dim=10, lr_dense=3e-4, lr_embed=3e-4, l2=1e-4, warmup_epochs=1.0,
    base_batch=256, epochs=2,
)


@dataclass(frozen=True)
class Workload:
    why: str
    config: harness.ExperimentConfig
    untraced: tuple[str, ...]  # traced functions this workload never calls
    criteo_rows: int = 0       # > 0: train on a generated Criteo TSV of this many rows


WORKLOADS = {
    "desk-b256-cowclip": Workload(
        "c09 cow256 cell: small batch, many steps; the dense-mode embedding optimizer should dominate",
        replace(DESK_DATA, model_kind="deepfm", hidden=(64, 64), batch_size=256,
                rule="cowclip", clip_variant="cowclip", clip_zeta=1e-4, dense_l2=True),
        ("data.load_criteo_tsv",),
    ),
    "wide-b4096-dcnv2": Workload(
        "large batch, wide MLP: compute-bound in the MLP; optimizer and clip changes should not show",
        replace(DESK_DATA, model_kind="dcnv2", hidden=(400, 400, 400), batch_size=4096,
                rule="sqrt", clip_variant="none"),
        ("data.load_criteo_tsv", "models.lr_head_backward"),
    ),
    "criteo-tsv-lazy": Workload(
        "26 narrow fields parsed from TSV, lazy sparse Adam; setup is the pure-Python parser",
        harness.ExperimentConfig(
            model_kind="wd", hidden=(64, 64), embed_dim=10,
            lr_dense=1e-3, lr_embed=1e-3, l2=1e-4, warmup_epochs=1.0,
            base_batch=256, batch_size=1024, epochs=1, split=0.9,
            rule="cowclip", clip_variant="cowclip", clip_zeta=1e-5, dense_l2=False,
        ),
        ("data.generate_synthetic",),
        criteo_rows=100_000,
    ),
}

END_TO_END = {
    "samples_per_s": "1/s",
    "setup_s": "s",
    "final_auc": "auc",
    "final_logloss": "nats",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _layer_metric_units(every: bool) -> dict[str, str]:
    """Per-layer metric units.  Unless every is set, times are listed only for
    functions that every workload calls: a time that is 0 on some workload
    reads the same on every run."""
    partial = {q for w in WORKLOADS.values() for q in w.untraced}
    units = {}
    for q in TRACED:
        if every or q not in partial:
            units[f"{q}.ms"] = "ms"
            units[f"{q}.self_s"] = "s"
        units[f"{q}.calls"] = "count"
    units.update({
        "embedding.touched_rows_per_step": "count",
        "optim.rows_stepped_per_step": "count",
        "optim.useful_row_frac": "frac",
        "optim.adam_sparse_step.alloc_mb": "MB",
        "clip.clipped_frac": "frac",
        "models.mlp_gflop_per_step": "GFLOP",
        "models.mlp_gflops": "GFLOP/s",
        "data.load_criteo_tsv.rows_per_s": "1/s",
        "harness.step_ms.p50": "ms",
        "harness.step_ms.p90": "ms",
        **({"harness.step_ms.samples": "count"} if every else {}),
        "harness.cpu_util": "frac",
        "trace.overhead_frac": "frac",
    })
    return units


PER_LAYER = _layer_metric_units(every=False)     # the JSON line
PER_LAYER_ALL = _layer_metric_units(every=True)  # printed and written by --out


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# ---------------------------------------------------------------------------
# One training and its checks
# ---------------------------------------------------------------------------

def dataset_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def prepare(workload: Workload, data_seed: int) -> harness.ExperimentConfig:
    """The run's config for one dataset; writes the workload's TSV if it reads one."""
    config = workload.config
    if workload.criteo_rows:
        path = WORK_DIR / f"criteo-{data_seed}.tsv"
        if not path.exists():
            WORK_DIR.mkdir(exist_ok=True)
            write_criteo_tsv(path, workload.criteo_rows, data_seed)
        config = replace(config, source=str(path))
    return config


def fingerprint(record: harness.RunRecord) -> str:
    text = json.dumps(harness.record_fingerprint(record), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check(record: harness.RunRecord, epochs: int) -> list[str]:
    problems = []
    if record.diverged:
        problems.append("diverged")
    values = [record.initial_auc, record.initial_logloss]
    for e in record.epochs:
        values += [e.train_loss, e.test_auc, e.test_logloss]
    if not all(np.isfinite(values)):
        problems.append("non-finite loss or metric")
    if len(record.epochs) != epochs:
        problems.append(f"{len(record.epochs)} of {epochs} epochs recorded")
    if not record.final_auc >= record.initial_auc + AUC_MARGIN:
        problems.append(f"final_auc {record.final_auc:.4f} not above initial "
                        f"{record.initial_auc:.4f} + {AUC_MARGIN}")
    if not record.final_logloss < record.initial_logloss:
        problems.append(f"final_logloss {record.final_logloss:.4f} not below initial "
                        f"{record.initial_logloss:.4f}")
    return problems


@dataclass
class Rep:
    data_index: int
    traced: bool
    setup_s: list[float] = field(default_factory=list)
    train_s: float = 0.0
    cpu_s: float = 0.0
    samples: int = 0
    record: harness.RunRecord | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.train_s


def run_rep(rep: Rep, workload: Workload, data_seed: int, tracer: Tracer | None, built: dict):
    """Train once, building the dataset first if it is new or the rep is traced."""
    with tracer.patch() if tracer else contextlib.nullcontext():
        if tracer or rep.data_index not in built:
            config = prepare(workload, data_seed)
            # An untraced fast build repeats, so that its median rests on several
            # timings; a traced one runs once, so that its call counts repeat.
            while not rep.setup_s or (tracer is None and sum(rep.setup_s) < SETUP_MIN_S):
                t0 = time.perf_counter()
                dataset = harness.build_dataset(config, data_seed)
                rep.setup_s.append(time.perf_counter() - t0)
            built[rep.data_index] = config, dataset
        config, dataset = built[rep.data_index]
        c0, t0 = time.process_time(), time.perf_counter()
        record = harness.train(config, data_seed, dataset=dataset)
        rep.train_s = time.perf_counter() - t0
        rep.cpu_s = time.process_time() - c0
    rep.record = record
    rep.samples = sum(e.steps for e in record.epochs) * config.batch_size
    rep.problems += check(record, config.epochs)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(reps: list[Rep], attempted: int, failed: int) -> dict[str, float]:
    ok = [r for r in reps if not r.problems]
    first = {}
    for r in ok:
        first.setdefault(r.data_index, r.record)
    quality = [first[i] for i in sorted(first)[:QUALITY_DATASETS]]
    return {
        "samples_per_s": statistics.median(r.samples_per_s for r in ok),
        "setup_s": statistics.median(t for r in ok for t in r.setup_s),
        "final_auc": statistics.fmean(rec.final_auc for rec in quality),
        "final_logloss": statistics.fmean(rec.final_logloss for rec in quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(reps: list[Rep], tracer: Tracer, alloc_mb: float) -> dict[str, float]:
    n_traced = sum(r.traced for r in reps)
    fns = tracer.per_function()
    c = tracer.counts
    out = {}
    for q, f in fns.items():
        out[f"{q}.ms"] = f["ms"]
        out[f"{q}.calls"] = f["calls"] / n_traced
        out[f"{q}.self_s"] = f["self_s"] / n_traced

    def ratio(num, den):
        return num / den if den else 0.0

    steps = fns["optim.adam_sparse_step"]["calls"]
    mlp_s = fns["models.mlp_forward"]["total_s"] + fns["models.mlp_backward"]["total_s"]
    untraced = {r.data_index: r for r in reps if not r.traced and not r.problems}
    slowdown = [r.samples_per_s / untraced[r.data_index].samples_per_s
                for r in reps if r.traced and not r.problems and r.data_index in untraced]
    plain = [r for r in reps if not r.traced]
    out.update({
        "embedding.touched_rows_per_step": ratio(c["touched_rows"], fns["embedding.accumulate_gradients"]["calls"]),
        "optim.rows_stepped_per_step": ratio(c["rows_stepped"], steps),
        "optim.useful_row_frac": ratio(c["rows_useful"], c["rows_stepped"]),
        "optim.adam_sparse_step.alloc_mb": alloc_mb,
        "clip.clipped_frac": ratio(c["clip_clipped"], c["clip_touched"]),
        "models.mlp_gflop_per_step": c["mlp_step_flop"] / 1e9,
        "models.mlp_gflops": ratio(c["mlp_flop"] / 1e9, mlp_s),
        "data.load_criteo_tsv.rows_per_s": ratio(c["criteo_rows"], fns["data.load_criteo_tsv"]["total_s"]),
        "harness.step_ms.p50": statistics.median(tracer.step_ms),
        "harness.step_ms.p90": statistics.quantiles(tracer.step_ms, n=10)[8],
        "harness.step_ms.samples": len(tracer.step_ms),
        "harness.cpu_util": ratio(sum(r.cpu_s for r in plain), sum(r.train_s for r in plain)),
        "trace.overhead_frac": 1.0 - statistics.median(slowdown) if slowdown else 0.0,
    })
    return out


def span_coverage(workload: Workload, tracer: Tracer) -> list[str]:
    """Traced functions this workload should call but that recorded no span."""
    fns = tracer.per_function()
    return [q for q in TRACED if q not in workload.untraced and fns[q]["calls"] == 0]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def golden_status(name: str, seed: int, digest: str | None) -> str:
    golden = json.loads((HERE / "golden.json").read_text()).get(name, {})
    if digest is None or str(seed) not in golden:
        return "unknown"
    return "match" if golden[str(seed)] == digest else "mismatch"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result as JSON to this file")
    args = ap.parse_args(argv)

    out_path = Path(args.out).resolve() if args.out else None
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    seeds = dataset_seeds(args.seed, 64)
    reps: list[Rep] = []
    failed = 0
    digests: dict[int, str] = {}
    built: dict[int, tuple] = {}
    start = time.perf_counter()
    try:
        while (len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds
               or traced and len(reps) % 2):
            i = len(reps)
            # Untraced: datasets 0, 0, 1, 2, 0, 1, 2, ...  Traced: one untraced and
            # one traced training per dataset, the order alternating between datasets.
            if traced:
                rep = Rep(i // 2, i % 2 != i // 2 % 2)
            else:
                rep = Rep((i - 1) % QUALITY_DATASETS if i else 0, False)
            reps.append(rep)
            try:
                run_rep(rep, workload, seeds[rep.data_index], tracer if rep.traced else None, built)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rep.problems.append("raised")
            else:
                digest = fingerprint(rep.record)
                if digests.setdefault(rep.data_index, digest) != digest:
                    rep.problems.append("fingerprint differs from the same-seed run")
            if rep.problems:
                failed += 1
                print(f"check failed, rep {i}: {'; '.join(rep.problems)}", file=sys.stderr)
        alloc_mb = 0.0
        if traced and built:
            index = max(built)
            config, dataset = built[index]
            alloc_mb = adam_sparse_alloc_mb(
                lambda: harness.train(config, seeds[index], dataset=dataset))
    finally:
        for path in WORK_DIR.glob("criteo-*.tsv"):
            path.unlink()
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    attempted = len(reps)
    if failed == attempted:
        print("perfbench: every training failed; no result", file=sys.stderr)
        return 1
    if traced:
        missing = span_coverage(workload, tracer)
        if missing:
            failed += 1
            attempted += 1
            print(f"check failed: no calls recorded for {', '.join(missing)}", file=sys.stderr)
        values = per_layer(reps, tracer, alloc_mb)
        units, shown_units = PER_LAYER, PER_LAYER_ALL
    else:
        values = end_to_end(reps, attempted, failed)
        values["failed_frac"] = failed / attempted
        units, shown_units = END_TO_END, dict(END_TO_END, failed_frac="frac")
    shown = {k: values[k] for k in shown_units}

    env = environment(args.seed)
    golden = golden_status(args.workload, args.seed, digests.get(0))
    print(f"workload {args.workload}: {workload.why}")
    print("env " + json.dumps(env))
    print(f"reps {attempted} (failed {failed}), traced {sum(r.traced for r in reps)}; "
          f"fingerprint {digests.get(0)}; golden {golden}")
    for name, value in shown.items():
        print(f"  {name:42s} {value:.6g} {shown_units[name]}")
    if out_path:
        out_path.write_text(json.dumps({
            "workload": args.workload, "trace": args.trace, "env": env,
            "attempted": attempted, "failed": failed, "fingerprint": digests.get(0),
            "golden": golden, "metrics": shown,
            "reps": [{"data_index": r.data_index, "traced": r.traced, "setup_s": r.setup_s,
                      "train_s": r.train_s, "samples": r.samples, "problems": r.problems}
                     for r in reps],
        }, indent=1) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
