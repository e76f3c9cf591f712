#!/usr/bin/env python3
"""The paper's clip ablation at s=64: CowClip against the clip variants the
paper compares it with, and against no clip.

The protocol was fixed before the run:

- data and model: criterion 09's DESK config (tests/test_acceptance.py) with
  1,000,000 rows, deepfm, the cowclip scaling rule, base batch 256 and
  b=16384 (s=64), init sigma 1e-2 on every arm, 10 epochs, seeds 1-3;
- arms: clip off; cowclip with r=1 and zeta=1e-4; global, fieldwise and
  columnwise, each at an applied threshold equal to the p50, p90 and p99 of
  its unit norms; adaptive_fieldwise with zeta=1e-4 and r = the field-norm
  percentiles / the embedding table's initial field-weight norm.  The unit
  norms are measured over the first epoch of the clip-off arm on seed 1, on
  both tables.  clip.value is the threshold / 8, because a run multiplied a
  constant threshold by sqrt(s);
- report: epoch-4 AUC, peak AUC and the peak's epoch, marked "still rising"
  when the peak is the last epoch;
- decision: a variant stays only if one of its settings beats max(clip off,
  cowclip) in peak AUC on all three seeds, each seed on its own dataset.

The ablation kept no variant, and global, fieldwise, columnwise and
adaptive_fieldwise were deleted after it ran.  So the full ablation runs only
at the commit that results/clip_ablation.json records.  At a later commit,
--check re-runs the clip-off and cowclip arms on seed 1 and compares their
record fingerprints with the recorded ones.

    PYTHONPATH=src python experiments/clip_ablation.py          # writes results/clip_ablation.{json,md}
    PYTHONPATH=src python experiments/clip_ablation.py --check  # exit 1 when a fingerprint moved

Each training runs on one BLAS thread, two trainings at a time; the full
ablation took 8.5 minutes on two cores (numpy 2.4, OpenBLAS).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ctrlab  # noqa: E402
from ctrlab import clip, harness  # noqa: E402

RESULTS = Path(__file__).resolve().parent.parent / "results"
SEEDS = (1, 2, 3)
PERCENTILES = (50, 90, 99)
BUDGET_EPOCH = 4  # criterion 09's fixed budget
WORKERS = 2

# Criterion 09's DESK config, at 1M rows and s = 16384 / 256 = 64.
BASE = {
    "data.n_samples": 1_000_000, "data.n_categorical": 6, "data.n_dense": 2,
    "data.vocab_size": 10_000, "data.zipf_exponent": 1.2, "data.click_strength": 1.0,
    "model.kind": "deepfm", "model.hidden": "64,64", "model.embed_dim": 10,
    "model.init_sigma": 1e-2, "opt.lr_dense": 3e-4, "opt.lr_embed": 3e-4, "opt.l2": 1e-4,
    "opt.warmup_epochs": 1.0, "scale.rule": "cowclip", "scale.base_batch": 256,
    "train.batch_size": 16384, "train.epochs": 10,
}
SQRT_S = 8.0  # sqrt(16384 / 256): the factor a run applied to clip.value
OFF = ("clip off", {"clip.variant": "none"})
COWCLIP = ("cowclip", {"clip.variant": "cowclip", "clip.r": 1.0, "clip.zeta": 1e-4})
CONSTANT_VARIANTS = ("global", "fieldwise", "columnwise")
DELETED_VARIANTS = CONSTANT_VARIANTS + ("adaptive_fieldwise",)


def make_config(keys: dict) -> harness.ExperimentConfig:
    text = "\n".join(f"{k}={v}" for k, v in {**BASE, **keys}.items())
    return harness.parse_config_text(text)


@functools.lru_cache(maxsize=1)
def _dataset(seed: int):
    return harness.build_dataset(make_config({}), seed)


def _fingerprint_hash(record: harness.RunRecord) -> str:
    text = json.dumps(harness.record_fingerprint(record), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _cell(record: harness.RunRecord, arm: str, keys: dict, config) -> dict:
    aucs = [e.test_auc for e in record.epochs]
    peak = int(np.argmax(aucs))
    return {
        "arm": arm, "keys": keys, "seed": record.seed, "config": config.to_dict(),
        "diverged": record.diverged,
        "epochs": [{"epoch": e.epoch, "test_auc": e.test_auc, "test_logloss": e.test_logloss,
                    "train_loss": e.train_loss, "seconds": e.seconds} for e in record.epochs],
        "budget_auc": aucs[BUDGET_EPOCH - 1], "peak_auc": aucs[peak], "peak_epoch": peak + 1,
        "still_rising": peak == len(aucs) - 1,
        "fingerprint_sha256": _fingerprint_hash(record),
    }


def run_cell(task, observe=None) -> dict:
    """Train one (arm, keys, seed) cell, counting the touched rows that its
    clip scales down; observe(table, sparse_grad), if given, sees every
    gradient before it is clipped."""
    arm, keys, seed = task
    config = make_config(keys)
    apply_clip = clip.apply_clip
    rows = {"touched": 0, "clipped": 0}

    def clip_spy(cfg, table, sparse_grad):
        if observe is not None:
            observe(table, sparse_grad)
        out = apply_clip(cfg, table, sparse_grad)
        rows["touched"] += len(sparse_grad.row_block)
        if out is not sparse_grad:
            shrunk = (np.linalg.norm(out.grad_block, axis=1)
                      < np.linalg.norm(sparse_grad.grad_block, axis=1))
            rows["clipped"] += int(shrunk.sum())
        return out

    clip.apply_clip = clip_spy
    try:
        record = harness.train(config, seed, dataset=_dataset(seed))
    finally:
        clip.apply_clip = apply_clip
    cell = _cell(record, arm, keys, config)
    cell["clipped_share"] = rows["clipped"] / rows["touched"]
    return cell


def measure_unit_norms() -> tuple[dict, dict]:
    """Train the clip-off arm on seed 1, recording the norm of every clip unit
    over the first epoch, on both tables, and the embedding table's initial
    per-field weight norms.  Returns the arm's cell and the measurements."""
    units = {"global": [], "fieldwise": [], "columnwise": []}
    by_table = {}
    init_field_norms = []
    evaluations = []
    evaluate_model = harness.evaluate_model

    def observe(table, sparse_grad):
        if len(evaluations) != 1:  # only after the initial evaluation, before epoch 1's
            return
        offsets = sparse_grad.offsets
        if not init_field_norms and table.block.shape[1] > 1:
            w = table.block.astype(np.float64)
            init_field_norms.extend(
                float(np.linalg.norm(w[a:b])) for a, b in zip(offsets[:-1], offsets[1:]))
        g = sparse_grad.grad_block.astype(np.float64)
        squares = np.einsum("ij,ij->i", g, g)
        cuts = np.searchsorted(sparse_grad.row_block, offsets)
        step = {
            "columnwise": np.sqrt(squares),
            "fieldwise": np.sqrt([squares[a:b].sum() for a, b in zip(cuts[:-1], cuts[1:]) if a < b]),
            "global": np.sqrt([squares.sum()]),
        }
        table_units = by_table.setdefault("embed" if table.block.shape[1] > 1 else "lr", {})
        for unit, norms in step.items():
            units[unit].append(norms)
            table_units.setdefault(unit, []).append(norms)

    def evaluate_spy(model, dataset):
        evaluations.append(None)
        return evaluate_model(model, dataset)

    def percentiles(norms):
        return {f"p{p}": float(np.percentile(norms, p)) for p in PERCENTILES}

    harness.evaluate_model = evaluate_spy
    try:
        cell = run_cell((*OFF, 1), observe)
    finally:
        harness.evaluate_model = evaluate_model
    pooled = {unit: np.concatenate(norms) for unit, norms in units.items()}
    measured = {
        "init_field_norms": init_field_norms,
        "init_field_norm": float(np.mean(init_field_norms)),
        "n_units": {unit: len(norms) for unit, norms in pooled.items()},
        "percentiles": {unit: percentiles(norms) for unit, norms in pooled.items()},
        "percentiles_by_table": {
            name: {unit: percentiles(np.concatenate(norms)) for unit, norms in t.items()}
            for name, t in by_table.items()},
    }
    return cell, measured


def ablation_arms(measured: dict) -> list[tuple[str, dict]]:
    arms = [OFF, COWCLIP]
    for variant in CONSTANT_VARIANTS:
        for p, threshold in measured["percentiles"][variant].items():
            arms.append((f"{variant} {p}", {"clip.variant": variant,
                                            "clip.value": threshold / SQRT_S}))
    w0 = measured["init_field_norm"]
    for p, threshold in measured["percentiles"]["fieldwise"].items():
        arms.append((f"adaptive_fieldwise {p}", {"clip.variant": "adaptive_fieldwise",
                                                 "clip.r": threshold / w0, "clip.zeta": 1e-4}))
    return arms


def _commit() -> dict:
    src = Path(ctrlab.__file__).resolve().parent

    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"), "src_clean": git("status", "--porcelain", ".") == ""}


def decide(cells: list[dict]) -> dict:
    """Each deleted-or-kept variant's verdict under the decision rule."""
    peak = {(c["arm"], c["seed"]): c["peak_auc"] for c in cells}
    best = {s: max(peak[OFF[0], s], peak[COWCLIP[0], s]) for s in SEEDS}
    verdicts = {}
    for variant in DELETED_VARIANTS:
        arms = sorted({c["arm"] for c in cells if c["arm"].split()[0] == variant})
        margins = {arm: [peak[arm, s] - best[s] for s in SEEDS] for arm in arms}
        saved_by = [arm for arm, m in margins.items() if all(x > 0 for x in m)]
        verdicts[variant] = {"margins": margins, "saved_by": saved_by,
                             "verdict": "keep" if saved_by else "delete"}
    return verdicts


def markdown(result: dict) -> str:
    cells, measured = result["cells"], result["measured"]
    by_arm = {}
    for c in cells:
        by_arm.setdefault(c["arm"], {})[c["seed"]] = c
    best = {s: max(by_arm[OFF[0]][s]["peak_auc"], by_arm[COWCLIP[0]][s]["peak_auc"])
            for s in SEEDS}
    pct = measured["percentiles"]
    out = [
        "# Clip ablation at s=64",
        "",
        f"Written by `experiments/clip_ablation.py` at commit `{result['commit']['sha']}`",
        "(the last commit with every clip variant).  Criterion 09's DESK config with",
        "1,000,000 rows (900k training rows), deepfm, cowclip scaling rule, base batch",
        "256, b=16384, init sigma 1e-2 on every arm, 10 epochs, seeds 1-3.  Test AUC.",
        "",
        "Unit norms over the first epoch of the clip-off arm on seed 1, both tables",
        "(the applied threshold of each constant arm):",
        "",
        "| unit | units | p50 | p90 | p99 |",
        "| --- | --- | --- | --- | --- |",
    ]
    for unit in CONSTANT_VARIANTS:
        out.append(f"| {unit} | {measured['n_units'][unit]:,} | "
                   + " | ".join(f"{pct[unit][f'p{p}']:.4g}" for p in PERCENTILES) + " |")
    out += [
        "",
        f"adaptive_fieldwise takes r = the fieldwise percentile / "
        f"{measured['init_field_norm']:.4f}, the embedding table's mean initial field-weight norm.",
        "",
        "Rows clipped is the share of touched rows, over all steps and both tables, that",
        "the clip scaled down (mean of the seeds).  A peak epoch marked * is the last",
        "epoch (still rising).  Δ is the arm's peak AUC minus max(clip off, cowclip) on",
        "the same seed.",
        "",
        "| arm | rows clipped | epoch-4 AUC, mean | peak AUC, mean | peak epoch (s1, s2, s3) "
        "| Δ s1 | Δ s2 | Δ s3 |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for arm, seeds in by_arm.items():
        runs = [seeds[s] for s in SEEDS]
        epochs = ", ".join(f"{c['peak_epoch']}{'*' if c['still_rising'] else ''}" for c in runs)
        deltas = " | ".join(f"{c['peak_auc'] - best[c['seed']]:+.5f}" for c in runs)
        out.append(f"| {arm} | {100 * np.mean([c['clipped_share'] for c in runs]):.2f} % | "
                   f"{np.mean([c['budget_auc'] for c in runs]):.5f} | "
                   f"{np.mean([c['peak_auc'] for c in runs]):.5f} | {epochs} | {deltas} |")
    out += ["", "Decision (a variant stays only if one setting has Δ > 0 on all three seeds):", ""]
    for variant, v in result["decision"].items():
        best_arm = max(v["margins"], key=lambda a: min(v["margins"][a]))
        out.append(f"- {variant}: {v['verdict']}. Its best setting, {best_arm}, has a worst-seed "
                   f"Δ of {min(v['margins'][best_arm]):+.5f}.")
    return "\n".join(out) + "\n"


def run_ablation() -> None:
    if not set(DELETED_VARIANTS) <= set(clip.VARIANTS):
        sys.exit(f"error: this ctrlab has clip variants {', '.join(clip.VARIANTS)}; the full "
                 "ablation needs the commit that results/clip_ablation.json records")
    t0 = time.perf_counter()
    commit = _commit()
    first, measured = measure_unit_norms()
    _dataset.cache_clear()
    arms = ablation_arms(measured)
    tasks = [(arm, keys, seed) for seed in SEEDS for arm, keys in arms
             if (arm, seed) != (OFF[0], 1)]
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        rest = []
        for cell in pool.imap(run_cell, tasks):
            rest.append(cell)
            print(f"{cell['arm']:>26} seed {cell['seed']}: peak {cell['peak_auc']:.5f} "
                  f"at epoch {cell['peak_epoch']}", flush=True)
    order = {arm: i for i, (arm, _) in enumerate(arms)}
    cells = sorted([first, *rest], key=lambda c: (order[c["arm"]], c["seed"]))
    result = {
        "commit": commit,
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads_per_training": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": WORKERS,
        "wall_seconds": time.perf_counter() - t0,
        "measured": measured,
        "arms": [{"arm": arm, "keys": keys} for arm, keys in arms],
        "cells": cells,
        "decision": decide(cells),
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "clip_ablation.json").write_text(harness.strict_json(result) + "\n")
    (RESULTS / "clip_ablation.md").write_text(markdown(result))
    print(markdown(result))


def check() -> int:
    """Re-run the clip-off and cowclip arms on seed 1; 1 if a fingerprint moved."""
    recorded = json.loads((RESULTS / "clip_ablation.json").read_text())
    cells = {(c["arm"], c["seed"]): c for c in recorded["cells"]}
    tasks = [(arm, cells[arm, 1]["keys"], 1) for arm in (OFF[0], COWCLIP[0])]
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        rerun = pool.map(run_cell, tasks)
    moved = 0
    for cell in rerun:
        pin = cells[cell["arm"], 1]["fingerprint_sha256"]
        same = cell["fingerprint_sha256"] == pin
        moved += not same
        print(f"{cell['arm']} seed 1: {cell['fingerprint_sha256']} {'same' if same else 'moved'}")
    return 1 if moved else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="re-run the clip-off and cowclip arms on seed 1 and compare fingerprints")
    if parser.parse_args().check:
        sys.exit(check())
    run_ablation()
