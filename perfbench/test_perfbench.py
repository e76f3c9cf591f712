"""Self-test of the benchmark: tracer coverage, restore, and its metric list.

    python3 -m pytest -q perfbench

Each workload is shrunk to a few seconds; what the tracer sees depends only
on the code paths a config takes (model kind, clip variant, optimizer mode,
data source), which shrinking keeps.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import run
from ctrlab import harness, models
from criteo_gen import write_criteo_tsv
from spans import TRACED, Tracer, _lookup


def _tiny(name: str, tmp_path: Path) -> harness.ExperimentConfig:
    workload = run.WORKLOADS[name]
    config = replace(workload.config, n_samples=2000, batch_size=128, epochs=1, hidden=(8,))
    if workload.criteo_rows:
        path = tmp_path / "tiny.tsv"
        write_criteo_tsv(path, 2000, seed=3)
        config = replace(config, source=str(path))
    return config


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_expected_span_is_recorded(name, tmp_path):
    workload = run.WORKLOADS[name]
    config = _tiny(name, tmp_path)
    tracer = Tracer()
    with tracer.patch():
        harness.train(config, 3, dataset=harness.build_dataset(config, 3))
    assert run.span_coverage(workload, tracer) == []
    calls = {q: f["calls"] for q, f in tracer.per_function().items()}
    assert {q for q in TRACED if calls[q] == 0} == set(workload.untraced)


def test_patch_reaches_by_name_imports_and_restores():
    originals = {q: _lookup(q) for q in TRACED}
    with Tracer().patch():
        assert harness.model_forward is not originals["models.model_forward"]
        assert models.lookup_forward is not originals["embedding.lookup_forward"]
        assert harness.make_batches is not originals["data.make_batches"]
    assert {q: _lookup(q) for q in TRACED} == originals
    assert harness.model_forward is originals["models.model_forward"]
    assert models.lookup_forward is originals["embedding.lookup_forward"]


def test_self_times_add_up_and_tracing_keeps_the_result(tmp_path):
    config = _tiny("desk-b256-cowclip", tmp_path)
    dataset = harness.build_dataset(config, 3)
    plain = harness.train(config, 3, dataset=dataset)
    tracer = Tracer()
    with tracer.patch():
        traced = harness.train(config, 3, dataset=dataset)
    assert harness.record_fingerprint(plain) == harness.record_fingerprint(traced)
    fns = tracer.per_function()
    total = fns["harness.train"]["total_s"]
    assert sum(f["self_s"] for f in fns.values()) == pytest.approx(total, rel=1e-9)
    assert all(f["self_s"] >= 0 for f in fns.values())
    assert len(tracer.step_ms) == fns["data.make_batches"]["calls"]


def test_checks_catch_a_bad_record():
    record = harness.RunRecord("r", "wd", "none", 8, 0, 0.6, 0.69, [
        harness.EpochRecord(1, float("nan"), 0.605, 0.70, 1.0, 3)], False, {})
    problems = run.check(record, epochs=2)
    assert any("non-finite" in p for p in problems)
    assert any("epochs" in p for p in problems)
    assert any("final_auc" in p for p in problems)
    assert any("final_logloss" in p for p in problems)


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
