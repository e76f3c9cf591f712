"""Acceptance gate: ten numbered criteria, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion (pytest -v shows the same via test outcomes).  The long criterion
is 09 (desk-scale ordering replication), about three and a half minutes of
training.  Criteria 02, 05, 07 and 08 each run one `harness.verify` suite,
the same code `ctrlab verify` runs.
"""

import math
import time
from dataclasses import replace

import numpy as np

from ctrlab import harness, scaling
from ctrlab.clip import cowclip
from ctrlab.data import datasets_equal
from ctrlab.embedding import SparseGradient, init_table
from ctrlab.data import FieldSchema
from ctrlab.metrics import auc


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _run_suite(number: int, suite: str, seed: int, bound_s: float) -> None:
    """A criterion that is one `harness.verify` suite plus its own time bound."""
    t0 = time.time()
    (check,) = harness.verify((suite,), seed=seed).checks
    elapsed = time.time() - t0
    _report(number, check.passed and elapsed < bound_s,
            f"{check.detail}; {elapsed:.1f}s (< {bound_s:g}s)")


def test_c01_gradient_correctness():
    """4 model heads x 100 random configs, central differences, rel err < 1e-5."""
    t0 = time.time()
    reports = [harness.grad_check(kind, seed=20_240_001, n_trials=100)
               for kind in ("wd", "deepfm", "dcn", "dcnv2")]
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports) and elapsed < 120
    detail = ("max rel err " + ", ".join(f"{r.model_kind}={r.max_rel_error:.2e}" for r in reports)
              + f" (< {harness.GRAD_CHECK_TOLERANCE:g}); {elapsed:.0f}s (< 120s)")
    _report(1, ok, detail)


def test_c02_adam_loss_scaling_equivalence():
    """Dual-run divergence < 1e-6 for c in {2,10,100}; SGD counterpart <= 1e-15."""
    _run_suite(2, "adam-equivalence", seed=0, bound_s=10)


def test_c03_cowclip_contract():
    """1e4 random (weight, gradient, cnt) triples obey the clip threshold."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    n_total = 0
    ok = True
    for r, zeta in ((1.0, 1e-5), (1.0, 1e-4), (0.3, 1e-3), (5.0, 1e-4)):
        n, dim = 2500, 10
        fields = (FieldSchema("c", n),)
        table = init_table(fields, dim, init_sigma=1.0, seed=int(r * 1000))
        table.block[...] *= rng.lognormal(0.0, 2.0, size=(n, 1))  # wide norm range
        grads = rng.normal(size=(n, dim)) * rng.lognormal(0.0, 2.0, size=(n, 1))
        counts = rng.integers(1, 11, size=n)
        # One field, so id k is table row k.
        sparse = SparseGradient(np.arange(n), grads, counts, table.offsets)
        out = cowclip(table, sparse, r=r, zeta=zeta)
        w_norms = np.linalg.norm(table.block, axis=1)
        thresholds = counts * np.maximum(r * w_norms, zeta)
        out_norms = np.linalg.norm(out.grad_block, axis=1)
        in_norms = np.linalg.norm(grads, axis=1)
        ok &= bool(np.all(out_norms <= thresholds + 1e-12))
        nonzero = in_norms > 0
        cos = np.einsum("ij,ij->i", out.grad_block[nonzero], grads[nonzero]) / (
            out_norms[nonzero] * in_norms[nonzero]
        )
        ok &= bool(np.all(cos > 1 - 1e-12))
        under = in_norms <= thresholds
        ok &= bool(np.array_equal(out.grad_block[under], grads[under]))  # bit-identical
        again = cowclip(table, out, r=r, zeta=zeta)
        ok &= bool(np.allclose(again.grad_block, out.grad_block, rtol=1e-12, atol=0))
        n_total += n
    elapsed = time.time() - t0
    ok = ok and elapsed < 5
    _report(3, ok, f"{n_total} triples: norm bound, direction, identity-under-"
                   f"threshold, idempotence; {elapsed:.1f}s (< 5s)")


def test_c04_auc_oracle_equivalence():
    """Exact match with O(n^2) pairwise counting on 100 instances, ties = 1/2."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(100):
        n = int(rng.integers(2, 1001))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if trial % 2:
            scores = rng.choice(np.linspace(0, 1, 5), size=n)  # tie-heavy
        else:
            scores = rng.normal(size=n)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        oracle = wins / (len(pos) * len(neg))
        ok &= auc(scores, labels) == oracle
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    _report(4, ok, f"100 instances exactly equal to pairwise counting; "
                   f"{elapsed:.1f}s (< 30s)")


def test_c05_batch_presence_probability():
    """Monte Carlo within 3 SE of 1-(1-p)^b; approximation < 6% when b*p <= 0.1."""
    _run_suite(5, "presence-prob", seed=11, bound_s=60)


def test_c06_scaling_rule_exactness():
    """Rule outputs reproduce every non-hand-tuned schedule cell exactly."""
    t0 = time.time()
    base = scaling.BaseHyperparams(1024, 1e-4, 1e-4, 1e-4)
    ok = True
    for b, row in scaling.SQRT_SCHEDULE.items():
        plan = scaling.plan_for_batch("sqrt", base, b)
        ok &= plan.eta_dense == row["lr"] and plan.l2 == row["l2"]
    ok &= scaling.plan_for_batch("sqrt", base, 8192).eta_dense == 2 * math.sqrt(2) * 1e-4
    for b, row in scaling.LINEAR_SCHEDULE.items():
        plan = scaling.plan_for_batch("linear", base, b)
        ok &= plan.eta_dense == row["lr"] and plan.l2 == row["l2"]
    for b, row in scaling.N2_LAMBDA_SCHEDULE.items():
        plan = scaling.plan_for_batch("n2_lambda", base, b)
        ok &= plan.eta_embed == row["lr_embed"] and plan.eta_dense == row["lr_dense"]
        if "l2" in row["hand_tuned"]:
            ok &= row["l2"] == 1.28e-2 and plan.l2 != row["l2"]  # preset, not rule
        else:
            ok &= plan.l2 == row["l2"]
    ok &= scaling.plan_for_batch("n2_lambda", base, 4096).l2 == 1.6e-3
    for name, sched in scaling.COWCLIP_SCHEDULES.items():
        for b, row in sched["rows"].items():
            plan = scaling.plan_for_batch("cowclip", sched["base"], b)
            ok &= plan.eta_embed == row["lr_embed"]
            if "l2" not in row["hand_tuned"]:
                ok &= plan.l2 == row["l2"]
            if "lr_dense" not in row["hand_tuned"]:
                ok &= plan.eta_dense == row["lr_dense"]
    ok &= scaling.plan_for_batch(
        "cowclip", scaling.COWCLIP_SCHEDULES["criteo"]["base"], 8192).l2 == 8e-4
    avazu_last = scaling.COWCLIP_SCHEDULES["avazu"]["rows"][131072]
    ok &= avazu_last["l2"] == 9.6e-3 and avazu_last["lr_dense"] == 16e-4
    elapsed = time.time() - t0
    ok = ok and elapsed < 1
    _report(6, ok, f"all non-hand-tuned cells exact, hand-tuned cells preset; "
                   f"{elapsed:.2f}s (< 1s)")


def test_c07_sgd_covariance_motivation():
    """(b, eta) vs (4b, 2eta): one-step update covariance trace ratio in [0.9, 1.1]."""
    _run_suite(7, "sgd-covariance", seed=3, bound_s=60)


def test_c08_unfrequent_id_update_expectation():
    """Rare id: fixed-lr big/small ratio in [0.9, 1.1]; naive linear in s*[0.85, 1.15]."""
    _run_suite(8, "update-frequency", seed=21, bound_s=120)


DESK = harness.ExperimentConfig(
    n_samples=200_000, n_categorical=6, n_dense=2, vocab_size=10_000,
    zipf_exponent=1.2, click_strength=1.0,
    model_kind="deepfm", hidden=(64, 64), embed_dim=10,
    lr_dense=3e-4, lr_embed=3e-4, l2=1e-4, warmup_epochs=1.0,
    base_batch=256, batch_size=256, epochs=4, rule="none", clip_variant="none",
)


def test_c09_desk_scale_ordering():
    """Large-batch orderings on the default synthetic dataset, 3-seed means.

    CowClip scaling holds AUC at b=4096 within 0.005 of the b=256 baseline
    while no-scaling falls further behind; on the top-3-collapsed variant
    (all ids frequent) sqrt and linear scaling both stay within 0.005.
    """
    t0 = time.time()
    seeds = (1, 2, 3)
    cells: dict[str, list[float]] = {}
    for seed in seeds:
        dataset = harness.build_dataset(DESK, seed=seed)
        for name, cfg in (
            ("none256", DESK),
            ("none4096", replace(DESK, batch_size=4096)),
            ("cow256", replace(DESK, rule="cowclip", clip_variant="cowclip",
                               clip_zeta=1e-4)),
            ("cow4096", replace(DESK, batch_size=4096, rule="cowclip",
                                clip_variant="cowclip", clip_zeta=1e-4)),
        ):
            rec = harness.train(cfg, seed=seed, dataset=dataset)
            cells.setdefault(name, []).append(rec.final_auc)
    collapsed = replace(DESK, top_k=3)
    for seed in seeds:
        dataset = harness.build_dataset(collapsed, seed=seed)
        for name, cfg in (
            ("top3base256", collapsed),
            ("top3sqrt4096", replace(collapsed, batch_size=4096, rule="sqrt")),
            ("top3linear4096", replace(collapsed, batch_size=4096, rule="linear")),
        ):
            rec = harness.train(cfg, seed=seed, dataset=dataset)
            cells.setdefault(name, []).append(rec.final_auc)
    mean = {k: float(np.mean(v)) for k, v in cells.items()}
    cow_gap = mean["cow256"] - mean["cow4096"]
    none_gap = mean["none256"] - mean["none4096"]
    sqrt_gap = mean["top3base256"] - mean["top3sqrt4096"]
    linear_gap = mean["top3base256"] - mean["top3linear4096"]
    elapsed = time.time() - t0
    ok = (abs(cow_gap) <= 0.005
          and none_gap > cow_gap
          and abs(sqrt_gap) <= 0.005
          and abs(linear_gap) <= 0.005
          and elapsed < 1200)
    _report(9, ok, f"cowclip gap {cow_gap:+.4f} (|.|<=0.005), no-scaling gap "
                   f"{none_gap:+.4f} (> cowclip gap); collapsed sqrt {sqrt_gap:+.4f}, "
                   f"linear {linear_gap:+.4f} (|.|<=0.005); {elapsed:.0f}s (< 1200s)")


def test_c10_determinism():
    """Identical (config, seed) reproduces every numeric output bit-exactly."""
    t0 = time.time()
    tiny = harness.ExperimentConfig(
        n_samples=1500, n_categorical=2, n_dense=1, vocab_size=40, hidden=(8,),
        embed_dim=3, lr_dense=1e-3, lr_embed=1e-3, base_batch=64, batch_size=64,
        epochs=2, rule="cowclip", clip_variant="cowclip", clip_zeta=1e-4,
    )
    ok = True
    ds_a = harness.build_dataset(tiny, seed=5)
    ds_b = harness.build_dataset(tiny, seed=5)
    ok &= datasets_equal(ds_a, ds_b)
    rec_a = harness.train(tiny, seed=5)
    rec_b = harness.train(tiny, seed=5)
    ok &= harness.record_fingerprint(rec_a) == harness.record_fingerprint(rec_b)
    grid = replace(tiny, sweep_batch_sizes=(64,), sweep_rules=("none", "cowclip"))
    recs_a, table_a = harness.sweep(grid, seed=6)
    recs_b, table_b = harness.sweep(grid, seed=6)
    ok &= [harness.record_fingerprint(r) for r in recs_a] == [
        harness.record_fingerprint(r) for r in recs_b]
    ok &= table_a == table_b
    ok &= harness.verify(seed=3).lines() == harness.verify(seed=3).lines()
    ok &= scaling.scale("cowclip", scaling.BaseHyperparams(), 16.0) == scaling.scale(
        "cowclip", scaling.BaseHyperparams(), 16.0)
    elapsed = time.time() - t0
    _report(10, ok, f"dataset, train, sweep, verify, scale all bit-reproducible; "
                    f"{elapsed:.1f}s")
