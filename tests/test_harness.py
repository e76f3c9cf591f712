"""Experiment runner: configs, training records, reports, CLI surfaces."""

import json
import math
import re
import tracemalloc
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest

from ctrlab import cli, harness, optim, scaling
from ctrlab.clip import ClipConfig
from ctrlab.data import (
    ID_DTYPE,
    TRAIN_DTYPE,
    Dataset,
    FieldSchema,
    generate_synthetic,
    load_dataset,
    save_dataset,
    save_npz,
)
from ctrlab.embedding import init_table
from ctrlab.harness import (
    ExperimentConfig,
    RunRecord,
    comparison_table,
    parse_config_text,
    record_fingerprint,
    records_to_csv,
    strict_json,
    sweep,
    train,
    verify,
    write_reports,
)

TINY = ExperimentConfig(
    n_samples=2000, n_categorical=3, n_dense=2, vocab_size=50,
    zipf_exponent=1.2, hidden=(16,), embed_dim=4,
    lr_dense=5e-3, lr_embed=5e-3, l2=1e-5, warmup_epochs=0.5,
    base_batch=64, batch_size=64, epochs=2,
)


# One bad value per case, for every checked key; the clip.* cases are
# ClipConfig's.
BAD_CONFIGS = [
    ("model.kind", {"model_kind": "deepfmm"}),
    ("sweep.batch_sizes", {"sweep_batch_sizes": (0,)}),
    ("data.top_k", {"top_k": -2}),
    ("clip.variant", {"clip_variant": "cow"}),
    ("scale.rule", {"rule": "cubic"}),
    ("opt.lr_embed", {"lr_embed": math.inf}),
    ("data.split", {"split": 0.0}),
    ("data.split", {"split": 1.0}),
    ("data.split", {"split": 1.5}),
    ("scale.base_batch", {"base_batch": 0}),
    ("clip.value", {"clip_variant": "global", "clip_value": 0.0}),
    ("clip.value", {"clip_variant": "fieldwise", "clip_value": -1.0}),
    ("clip.value", {"clip_variant": "columnwise", "clip_value": 0.0}),
    ("clip.r", {"clip_variant": "cowclip", "clip_r": 0.0}),
    ("clip.zeta", {"clip_variant": "cowclip", "clip_zeta": 0.0}),
    ("clip.r", {"clip_variant": "adaptive_fieldwise", "clip_r": -1.0}),
    ("clip.zeta", {"clip_variant": "adaptive_fieldwise", "clip_zeta": -1e-4}),
    ("model.hidden", {"hidden": (0,)}),
    ("model.hidden", {"hidden": (8, 0)}),
    ("model.embed_dim", {"embed_dim": 0}),
    ("opt.lr_dense", {"lr_dense": 0.0}),
    ("opt.lr_embed", {"lr_embed": -1.0}),
    ("opt.l2", {"l2": 0.0}),
    ("data.n_samples", {"n_samples": 0}),
    ("data.vocab_size", {"vocab_size": 0}),
    ("data.zipf_exponent", {"zipf_exponent": 0.0}),
    ("sweep.batch_sizes", {"sweep_batch_sizes": (256, -64)}),
    ("sweep.rules", {"sweep_rules": ("none", "cubic")}),
    ("sweep.rules", {"sweep_rules": ("n2-lambda",)}),
    ("train.batch_size", {"batch_size": 0}),
    ("train.epochs", {"epochs": -1}),
    ("data.n_dense", {"n_dense": -1}),
    ("data.n_categorical", {"n_categorical": -1}),
    ("opt.warmup_epochs", {"warmup_epochs": -1.0}),
    ("opt.warmup_epochs", {"warmup_epochs": math.inf}),
    ("data.top_k", {"top_k": math.inf}),
    ("model.init_sigma", {"init_sigma": 0.0}),
    ("model.init_sigma", {"init_sigma": -1.0}),
    ("model.init_sigma", {"init_sigma": math.nan}),
    ("opt.warmup_epochs", {"warmup_epochs": math.nan}),
    ("data.click_strength", {"click_strength": math.nan}),
    ("data.click_strength", {"click_strength": math.inf}),
    ("data.n_categorical", {"n_categorical": 0}),
    ("data.vocab_size", {"vocab_size": 2**31 + 1}),
    ("opt.lr_dense", {"lr_dense": math.inf}),
    ("opt.l2", {"l2": math.inf}),
    ("model.init_sigma", {"init_sigma": math.inf}),
    ("data.zipf_exponent", {"zipf_exponent": math.inf}),
    ("clip.value", {"clip_variant": "global", "clip_value": math.inf}),
    ("clip.r", {"clip_variant": "cowclip", "clip_r": math.inf}),
    ("clip.zeta", {"clip_variant": "cowclip", "clip_zeta": math.inf}),
    ("train.epochs", {"epochs": math.inf}),
    ("train.batch_size", {"batch_size": 64.5}),
    ("model.embed_dim", {"embed_dim": 2.5}),
    ("model.hidden", {"hidden": (8.5,)}),
    ("data.n_samples", {"n_samples": 2000.5}),
    ("data.top_k", {"top_k": 2.5}),
    ("train.epochs", {"epochs": True}),
]


def _forbid_build(*args, **kwargs):  # pragma: no cover
    raise AssertionError("a bad config must fail before the dataset is built")


def _forbid_init(*args, **kwargs):  # pragma: no cover
    raise AssertionError("degenerate data must fail before the table is initialised")


def _forbid_train(*args, **kwargs):  # pragma: no cover
    raise AssertionError("a bad sweep must fail before any cell trains")


def _reject_constant(name):  # pragma: no cover
    raise AssertionError(f"{name} is not JSON (RFC 8259)")


def _dense_only_npz(path):
    """A saved dataset with one dense column and no categorical field."""
    rng = np.random.default_rng(0)
    n = 200
    save_dataset(path, Dataset((), (np.arange(n) % 2).astype(np.uint8),
                               rng.normal(size=(n, 1)), np.zeros((n, 0), np.int64)))
    return str(path)


def _raw_npz(path, labels=None, dense=None, categorical=None, schema=None):
    """A dataset file of 200 rows, written without a Dataset, so that it can
    hold arrays or a header a Dataset rejects.  By default it has alternating
    uint8 labels, no dense column and one field "c0" of 4 ids;
    categorical=False leaves that array out."""
    n = 200
    labels = (np.arange(n) % 2).astype(np.uint8) if labels is None else labels
    dense = np.zeros((n, 0)) if dense is None else dense
    categorical = np.arange(n)[:, None] % 4 if categorical is None else categorical
    schema = [{"name": "c0", "vocab_size": 4}] if schema is None else schema
    arrays = {"labels": labels, "dense": dense}
    if categorical is not False:
        arrays["categorical"] = categorical
    save_npz(path, {"schema": schema, "meta": {}}, arrays)
    return str(path)


def _write_config(path, config):
    path.write_text("\n".join(f"{k}={v}" for k, v in config.to_dict().items() if v is not None))
    return str(path)


class TestConfig:
    def test_parse_and_roundtrip(self):
        text = """
        # comment
        data.n_samples = 5000
        model.kind = dcn
        model.hidden = 32,16
        opt.lr_dense = 2e-4
        opt.dense_l2 = false
        clip.variant = cowclip
        train.batch_size = 128
        """
        cfg = parse_config_text(text)
        assert cfg.n_samples == 5000
        assert cfg.model_kind == "dcn"
        assert cfg.hidden == (32, 16)
        assert cfg.lr_dense == 2e-4
        assert cfg.dense_l2 is False
        assert cfg.clip_variant == "cowclip"
        round_tripped = parse_config_text(
            "\n".join(f"{k}={v}" for k, v in cfg.to_dict().items() if v is not None)
        )
        assert round_tripped == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("data.bogus = 1")
        # A config file that still selects an optimizer is rejected, not ignored.
        with pytest.raises(ValueError, match="^config line 1: unknown key 'opt.kind'$"):
            parse_config_text("opt.kind=adam")

    @pytest.mark.parametrize("text,message", [
        ("data.top_k=abc", "config line 1: data.top_k: invalid literal for int"),
        ("# header\nopt.dense_l2=maybe", "config line 2: opt.dense_l2: bad boolean 'maybe'"),
        ("data.top_k=0  # c", "config line 1: data.top_k: .*'0  # c'"),
        ("opt.l2=1e-4\n\nmodel.hidden=8,x", "config line 3: model.hidden: .*'x'"),
        ("train.epochs=1\ntrain.epochs=3",
         r"config line 2: duplicate key 'train.epochs' \(first on line 1\)$"),
    ], ids=["int", "bool", "trailing-comment", "tuple", "duplicate"])
    def test_bad_value_names_line_and_key(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_config_text(text)

    @pytest.mark.parametrize("key,bad", BAD_CONFIGS)
    def test_bad_config_fails_before_any_data(self, monkeypatch, key, bad):
        monkeypatch.setattr(harness, "build_dataset", _forbid_build)
        with pytest.raises(ValueError, match=key):
            train(replace(TINY, **bad), seed=0)

    def test_every_checked_key_has_a_bad_case(self):
        checked = {f.metadata["key"] for f in fields(ExperimentConfig) if f.metadata["check"]}
        assert checked == {key for key, _ in BAD_CONFIGS if not key.startswith("clip.")}

    @pytest.mark.parametrize("key,bad", BAD_CONFIGS)
    def test_bad_config_message_gives_key_and_value(self, key, bad):
        with pytest.raises(ValueError, match=rf"^{re.escape(key)}( entries)? must be .+, got .+$"):
            replace(TINY, **bad)

    @pytest.mark.parametrize("bad", [2.5, True], ids=["float", "bool"])
    def test_integer_keys_reject_non_integers(self, bad):
        # Every int-annotated key, and every entry of a tuple of ints.
        hints = get_type_hints(ExperimentConfig)
        integer = [f for f in fields(ExperimentConfig) if hints[f.name] in (int, tuple[int, ...])]
        assert len(integer) == 11
        for f in integer:
            value = bad if hints[f.name] is int else (bad,)
            with pytest.raises(ValueError, match=rf"^{re.escape(f.metadata['key'])}( entries)? "
                                                 rf"must be an integer.*, got {bad}$"):
                replace(TINY, **{f.name: value})

    def test_checks_follow_the_keys_in_use(self):
        # Each of these keys is unused by the rest of its config.
        ExperimentConfig(source="data.npz", n_samples=0, vocab_size=0)
        ExperimentConfig(source="data.npz", n_dense=-1, n_categorical=-1)

    def test_bad_sweep_rule_fails_before_any_data(self, monkeypatch):
        monkeypatch.setattr(harness, "build_dataset", _forbid_build)
        with pytest.raises(ValueError, match="^sweep.rules entries .* got 'cubic'$"):
            sweep(replace(TINY, sweep_rules=("none", "cubic")), seed=0)

    def test_init_sigma_follows_clip_variant(self):
        assert ExperimentConfig().resolved_init_sigma() == 1e-4
        assert ExperimentConfig(clip_variant="cowclip").resolved_init_sigma() == 1e-2
        assert ExperimentConfig(init_sigma=0.5).resolved_init_sigma() == 0.5


class TestDegenerateData:
    def test_single_class_test_split_fails_before_init(self, monkeypatch):
        ds = harness.build_dataset(TINY, 0)
        n_train = int(ds.n_samples * TINY.split)
        labels = ds.labels.copy()
        labels[n_train:] = 1
        one_class = Dataset(ds.fields, labels, ds.dense, ds.categorical)
        monkeypatch.setattr(harness, "init_table", _forbid_init)
        n_test = ds.n_samples - n_train
        with pytest.raises(ValueError, match=f"data.split.*{n_test} positive and 0 negative"):
            train(TINY, seed=0, dataset=one_class)

    def test_empty_tsv_fails_before_init(self, monkeypatch, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        monkeypatch.setattr(harness, "init_table", _forbid_init)
        with pytest.raises(ValueError, match="data.source .* yielded 0 rows"):
            train(replace(TINY, source=str(path)), seed=0)

    def test_no_categorical_field_fails_before_init(self, monkeypatch, tmp_path):
        path = _dense_only_npz(tmp_path / "dense.npz")
        monkeypatch.setattr(harness, "init_table", _forbid_init)
        for kind in ("dcn", "deepfm"):
            with pytest.raises(ValueError, match="data.source '.*dense.npz' has no categorical"):
                train(replace(TINY, source=path, model_kind=kind), seed=0)

    def test_wide_dtype_npz_trains_as_the_compact_one(self, tmp_path):
        """A dataset file with int64 ids and float64 dense features, as
        gen-data wrote them before datasets were stored compact, loads in the
        training dtypes and trains to the same record.  Its header is the old
        one too: every entry has a kind, and the dense columns are listed."""
        ds = harness.build_dataset(TINY, 0)
        dense = np.random.default_rng(1).normal(size=ds.dense.shape)  # float64 with low bits
        header = {"schema": [{"name": f"dense_{i}", "kind": "dense", "vocab_size": 0}
                             for i in range(ds.n_dense)]
                            + [{"name": f.name, "kind": "categorical", "vocab_size": f.vocab_size}
                               for f in ds.fields], "meta": {}}
        path = tmp_path / "data.npz"
        cfg = replace(TINY, source=str(path), epochs=1)
        fingerprints = []
        for wide in (True, False):
            if wide:
                save_npz(path, header, {"labels": ds.labels, "dense": dense,
                                        "categorical": ds.categorical.astype(np.int64)})
            else:
                save_dataset(path, Dataset(ds.fields, ds.labels, dense, ds.categorical))
            loaded, _ = load_dataset(path)
            assert loaded.fields == ds.fields and loaded.n_dense == ds.n_dense == 2
            assert loaded.dense.dtype == TRAIN_DTYPE and loaded.categorical.dtype == ID_DTYPE
            fingerprints.append(harness.record_fingerprint(train(cfg, seed=0)))
        assert fingerprints[0] == fingerprints[1]


class TestTrain:
    def test_zero_epochs_initial_eval_only(self):
        rec = train(replace(TINY, epochs=0), seed=0)
        assert rec.epochs == []
        assert 0.0 <= rec.initial_auc <= 1.0
        assert rec.final_auc == rec.initial_auc

    def test_only_the_steps_forward_training_rows(self, monkeypatch):
        # Every forward but the steps' evaluates the test split: once before
        # training and once per epoch.
        forwarded = []
        forward = harness.model_forward

        def spy(model, batch):
            forwarded.append(len(batch.labels))
            return forward(model, batch)

        monkeypatch.setattr(harness, "model_forward", spy)
        train(TINY, seed=0)
        train_ds, test_ds = harness.build_dataset(TINY, 0).split(TINY.split)
        steps = TINY.epochs * (train_ds.n_samples // TINY.batch_size)
        assert sum(forwarded) == steps * TINY.batch_size + test_ds.n_samples * (TINY.epochs + 1)

    def test_smoke_loss_decreases(self):
        # initial loss is ~ln 2 at sigmoid(0); two epochs must beat it
        rec = train(TINY, seed=1)
        assert rec.epochs[-1].train_loss < math.log(2.0)
        assert not rec.diverged

    def test_determinism_bit_exact(self):
        a = train(TINY, seed=3)
        b = train(TINY, seed=3)
        assert record_fingerprint(a) == record_fingerprint(b)

    def test_fingerprint_leaves_out_config_and_wall_clock(self):
        rec = train(replace(TINY, epochs=1), seed=3)
        fingerprint = record_fingerprint(rec)
        assert "config" not in fingerprint
        assert all("seconds" not in e for e in fingerprint["epochs"])
        renamed = replace(rec, config={"renamed.key": 1}, epochs=[replace(rec.epochs[0], seconds=9.0)])
        assert record_fingerprint(renamed) == fingerprint

    def test_seed_changes_outputs(self):
        a = train(TINY, seed=3)
        b = train(TINY, seed=4)
        assert record_fingerprint(a) != record_fingerprint(b)

    def test_step_bookkeeping(self):
        rec = train(TINY, seed=0)
        n_train = int(2000 * 0.9)
        for e in rec.epochs:
            assert e.steps == n_train // TINY.batch_size
        assert sum(e.steps for e in rec.epochs) == TINY.epochs * (n_train // 64)

    def test_clip_none_is_plain_baseline(self, monkeypatch):
        base = train(TINY, seed=5)
        apply_clip, calls = harness.clip.apply_clip, []

        def passthrough_only(cfg, table, sparse_grad):
            out = apply_clip(cfg, table, sparse_grad)
            if out is not sparse_grad:  # pragma: no cover
                raise AssertionError("clipping must not run with variant none")
            calls.append(cfg.variant)
            return out

        monkeypatch.setattr(harness.clip, "apply_clip", passthrough_only)
        again = train(TINY, seed=5)
        assert record_fingerprint(base) == record_fingerprint(again)
        assert calls and set(calls) == {"none"}

    def test_batch_larger_than_training_split(self, monkeypatch):
        monkeypatch.setattr(harness, "init_table", _forbid_init)
        with pytest.raises(ValueError, match="train.batch_size=4096 .* 1800 rows"):
            train(replace(TINY, batch_size=4096), seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_reported_not_raised(self, monkeypatch):
        # A sky-high Adam learning rate makes the second step's loss non-finite.
        cfg = replace(TINY, lr_dense=1e300, lr_embed=1e300, warmup_epochs=0.0, epochs=3)
        applied = []
        step = optim.adam_step
        monkeypatch.setattr(optim, "adam_step",
                            lambda *a, **k: applied.append(1) or step(*a, **k))
        rec = train(cfg, seed=0)
        assert rec.diverged
        assert len(applied) == 1
        # The diverged epoch records the steps applied, not the epoch's length.
        assert sum(e.steps for e in rec.epochs) == len(applied)
        # The diverged model's probabilities are NaN, so they rank nothing:
        # its AUC is NaN, as its logloss is, and the JSON record says null.
        last = rec.epochs[-1]
        assert math.isnan(last.test_logloss) and math.isnan(last.test_auc)
        payload = json.loads(strict_json(rec.to_dict()), parse_constant=_reject_constant)
        assert payload["epochs"][-1]["test_auc"] is None

    @pytest.mark.parametrize("epochs,diverged", [(2, False), (3, True), (4, True)])
    def test_three_epochs_far_above_initial_loss_diverge(self, epochs, diverged):
        # At lr 1e9 the losses stay finite (about 8.2, 8.8, 8.8) but far above
        # the initial ~ln 2; the third such epoch in a row stops the run.
        cfg = replace(TINY, lr_dense=1e9, lr_embed=1e9, warmup_epochs=0.0, epochs=epochs)
        rec = train(cfg, seed=0)
        assert rec.diverged is diverged
        assert len(rec.epochs) == min(epochs, 3)
        assert all(10 * math.log(2.0) < e.train_loss < math.inf for e in rec.epochs)

    @pytest.mark.parametrize("kind", ["wd", "deepfm"])
    def test_first_order_weights_take_the_sparse_path(self, monkeypatch, kind):
        # Under cowclip at s=16 the dense lr grows by 4; the per-id
        # first-order weights must instead get the embeddings' fixed lr and
        # scaled L2, one sparse step per table per training step.
        cfg = replace(TINY, model_kind=kind, rule="cowclip", clip_variant="cowclip",
                      base_batch=16, batch_size=256, epochs=1)
        plan = scaling.scale("cowclip", scaling.BaseHyperparams(16, cfg.lr_dense,
                                                                cfg.lr_embed, cfg.l2), 16)
        dense_names, sparse_calls = [], []
        dense_step, sparse_step = optim.adam_step, optim.adam_sparse_step

        def spy_dense(state, params, grads, lr, **kw):
            dense_names.append(sorted(params))
            dense_step(state, params, grads, lr, **kw)

        def spy_sparse(state, table, grad, lr, l2, **kw):
            sparse_calls.append((table.dim, lr, l2))
            sparse_step(state, table, grad, lr, l2, **kw)

        monkeypatch.setattr(optim, "adam_step", spy_dense)
        monkeypatch.setattr(optim, "adam_sparse_step", spy_sparse)
        rec = train(cfg, seed=0)
        steps = rec.epochs[0].steps
        assert steps == 1800 // 256 and len(dense_names) == steps
        layers = [f"mlp.{i}.{p}" for i in range(2) for p in "Wb"]
        assert all(names == sorted(layers + ["lr.bias"]) for names in dense_names)
        assert plan.eta_embed == cfg.lr_embed and plan.l2 == 16 * cfg.l2
        per_step = [(cfg.embed_dim, plan.eta_embed, plan.l2), (1, plan.eta_embed, plan.l2)]
        assert sparse_calls == per_step * steps

    def test_cowclip_run_trains(self):
        cfg = replace(TINY, rule="cowclip", clip_variant="cowclip",
                      clip_zeta=1e-4, batch_size=256)
        rec = train(cfg, seed=2)
        assert not rec.diverged
        assert rec.epochs[-1].train_loss < math.log(2.0)


def test_evaluation_peak_is_under_three_activations():
    # Evaluation forwards 4096-row chunks: 8192 rows through a 400x400x400
    # MLP hold one chunk's layer outputs at a time, not every row's.
    n, width = 8192, 400
    ds = generate_synthetic(n, seed=0, n_dense=2, n_categorical=6, vocab_sizes=1000)
    embed = init_table(ds.fields, 10, 1e-2, seed=0)
    model = harness.init_model("dcnv2", embed, ds.n_dense, hidden=(width,) * 3, seed=0)
    activation = n * width * embed.block.itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        harness.evaluate_model(model, ds)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * activation, f"peak {peak / 2**20:.1f} MB"


class TestSweep:
    def test_degenerate_sweep_equals_train(self):
        grid = replace(TINY, sweep_batch_sizes=(64,), sweep_rules=("none",))
        records, table = sweep(grid, seed=7)
        assert len(records) == 1
        solo = train(grid, seed=7, dataset=harness.build_dataset(TINY, 7))
        assert record_fingerprint(records[0]) == record_fingerprint(solo)
        assert "none" in table

    def test_grid_structure(self):
        records, table = sweep(
            replace(TINY, sweep_batch_sizes=(64, 128), sweep_rules=("none", "sqrt")), seed=8
        )
        assert len(records) == 4
        combos = {(r.rule, r.batch_size) for r in records}
        assert combos == {("none", 64), ("none", 128), ("sqrt", 64), ("sqrt", 128)}
        assert "sqrt" in table and "128" in table

    def test_oversized_batch_fails_before_any_cell_trains(self, monkeypatch):
        # 2,000 rows leave 1,800 for training: the 64 cell could train, but
        # the 5000 cell never can, so nothing trains and the sweep key is named.
        monkeypatch.setattr(harness, "train", _forbid_train)
        with pytest.raises(ValueError,
                           match="^sweep.batch_sizes entry 5000 exceeds the training "
                                 "split's 1800 rows$"):
            sweep(replace(TINY, sweep_batch_sizes=(64, 5000)), seed=0)


class TestReports:
    def _records(self):
        records, _ = sweep(replace(TINY, epochs=1, sweep_batch_sizes=(64,),
                                   sweep_rules=("none", "sqrt")), seed=9)
        return records

    def test_empty_csv_is_headered(self):
        text = records_to_csv([])
        assert text.splitlines() == [",".join(harness.CSV_COLUMNS)]

    def test_csv_row_count_is_total_epochs(self):
        records = self._records()
        lines = records_to_csv(records).strip().splitlines()
        assert len(lines) - 1 == sum(len(r.epochs) for r in records)

    def test_json_roundtrip_identical(self):
        records = self._records()
        dicts = [r.to_dict() for r in records]
        assert json.loads(strict_json(dicts)) == dicts

    def test_non_finite_floats_are_written_as_null(self):
        epoch = harness.EpochRecord(1, math.nan, 0.5, math.inf, 0.1, 3)
        rec = RunRecord("x", "deepfm", "linear", 4096, 0, 0.5, -math.inf, [epoch], True, {})
        payload = json.loads(strict_json([rec.to_dict()]), parse_constant=_reject_constant)
        assert payload[0]["initial_logloss"] is None
        assert payload[0]["epochs"][0]["train_loss"] is None
        assert payload[0]["epochs"][0]["test_logloss"] is None
        assert payload[0]["epochs"][0]["test_auc"] == 0.5

    def test_write_reports_files(self, tmp_path):
        records = self._records()
        write_reports(records, tmp_path / "out")
        for name, text in (("runs.csv", records_to_csv(records)),
                           ("runs.json", strict_json([r.to_dict() for r in records])),
                           ("runs.txt", comparison_table(records) + "\n")):
            assert (tmp_path / "out" / name).read_bytes() == text.encode()

    def test_diverged_runs_become_table_entries(self):
        rec = RunRecord("x", "deepfm", "linear", 4096, 0, 0.5, 0.7, [], True, {})
        assert "diverge" in comparison_table([rec])


class TestVerify:
    def test_all_suites_pass(self):
        report = verify(seed=0)
        assert report.all_passed, report.lines()
        assert len(report.checks) == 4

    def test_subset_selection(self):
        report = verify(("adam-equivalence",), seed=0)
        assert len(report.checks) == 1
        assert report.checks[0].name == "adam-equivalence"

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify(("warp-drive",), seed=0)


class TestGradCheckHarness:
    def test_reproducible(self):
        a = harness.grad_check("deepfm", seed=5, n_trials=3)
        b = harness.grad_check("deepfm", seed=5, n_trials=3)
        assert a.max_rel_error == b.max_rel_error

    def test_reports_per_tensor(self):
        report = harness.grad_check("dcn", seed=5, n_trials=2)
        assert any(name.startswith("cross.") for name in report.per_tensor)
        assert "embed" in report.per_tensor
        assert report.passed

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_needs_a_trial(self, n_trials, monkeypatch):
        # rejected before any work: no tiny model is built
        monkeypatch.setattr(harness, "_tiny_setup", None)
        with pytest.raises(ValueError, match=f"n_trials must be at least 1, got {n_trials}"):
            harness.grad_check("wd", seed=0, n_trials=n_trials)

    @pytest.mark.parametrize("kinked,setups", [(False, 1), (True, 2)])
    def test_a_trial_at_a_relu_kink_is_drawn_again(self, monkeypatch, kinked, setups):
        # The first tiny setup is made to meet a hidden unit's kink on one
        # sample; it is skipped and a second one is drawn, not counted.
        tiny_setup = harness._tiny_setup
        drawn = []

        def setup(kind, rng):
            model, batch = tiny_setup(kind, rng)
            if kinked and not drawn:
                w, b = model.mlp[0]
                x = harness.model_forward(model, batch)[1].mlp_inputs[0]
                b[0] -= (x @ w + b)[0, 0]
                assert abs((x @ w + b)[0, 0]) < 1e-6
            drawn.append(model)
            return model, batch

        monkeypatch.setattr(harness, "_tiny_setup", setup)
        report = harness.grad_check("wd", seed=0, n_trials=1)
        assert len(drawn) == setups
        assert report.n_trials == 1 and report.passed

    def test_cli_reports_a_bad_trial_count(self, capsys):
        assert cli.main(["grad-check", "--model", "wd", "--trials", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: n_trials must be at least 1, got 0\n"


class TestCli:
    def test_gen_data_and_train_from_file(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "data.n_samples=1500\ndata.n_categorical=2\ndata.vocab_size=30\n"
            "model.hidden=8\nmodel.embed_dim=3\ntrain.batch_size=64\ntrain.epochs=1\n"
            "scale.base_batch=64\nopt.lr_dense=1e-3\nopt.lr_embed=1e-3\n"
            f"out.dir={tmp_path / 'runs'}\n"
        )
        out = tmp_path / "data.npz"
        assert cli.main(["gen-data", "--config", str(cfg_path), "--seed", "3",
                         "--out", str(out)]) == 0
        assert out.exists()
        assert cli.main(["train", "--config", str(cfg_path), "--seed", "3"]) == 0
        written = list((tmp_path / "runs").glob("*.json"))
        assert len(written) == 1
        record = json.loads(written[0].read_text())
        assert record["seed"] == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_divergence_exits_three(self, tmp_path, capsys):
        cfg = replace(TINY, lr_dense=1e300, lr_embed=1e300, warmup_epochs=0.0,
                      out_dir=str(tmp_path / "runs"))
        # 3, so that argparse's usage error is the only exit code 2
        assert cli.main(["train", "--config", _write_config(tmp_path / "exp.cfg", cfg)]) == 3
        assert capsys.readouterr().out.startswith("[DIVERGED] ")
        (written,) = (tmp_path / "runs").glob("*.json")
        record = json.loads(written.read_text(), parse_constant=_reject_constant)
        assert record["diverged"] is True

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_divergence_exits_three(self, tmp_path, capsys):
        cfg = replace(TINY, lr_dense=1e300, lr_embed=1e300, warmup_epochs=0.0, epochs=1,
                      out_dir=str(tmp_path / "runs"))
        assert cli.main(["sweep", "--config", _write_config(tmp_path / "exp.cfg", cfg)]) == 3
        assert "diverge" in capsys.readouterr().out

    def test_scale_command_prints_machine_readable(self, tmp_path, capsys):
        cfg = ExperimentConfig(rule="cowclip", base_batch=1024, batch_size=131072,
                               lr_embed=1e-4, l2=1e-4)
        assert cli.main(["scale", "--config", _write_config(tmp_path / "s.cfg", cfg)]) == 0
        (payload,) = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["s"] == 128.0
        assert payload["l2"] == pytest.approx(1.28e-2)
        assert payload["lr_embed"] == 1e-4

    @pytest.mark.parametrize("variant,clip_json,clip_text", [
        # A constant threshold grows by sqrt(s).
        ("global", {"variant": "global", "value": 25 * math.sqrt(8), "r": None, "zeta": None},
         "global value 70.7107"),
        # An adaptive threshold follows the weights, so s leaves it alone.
        ("cowclip", {"variant": "cowclip", "value": None, "r": 1.0, "zeta": 1e-4},
         "cowclip r 1 zeta 0.0001"),
        ("none", {"variant": "none", "value": None, "r": None, "zeta": None}, "none"),
    ], ids=["global", "cowclip", "none"])
    def test_scale_prints_the_applied_clip(self, tmp_path, capsys, variant, clip_json, clip_text):
        cfg = ExperimentConfig(rule="cowclip", base_batch=1024, batch_size=8192,
                               clip_variant=variant)
        assert cli.main(["scale", "--config", _write_config(tmp_path / "s.cfg", cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-2].endswith(f"  {clip_text}")
        (payload,) = json.loads(lines[-1])
        assert payload["clip"] == pytest.approx(clip_json)
        assert payload["lr_dense"] == pytest.approx(math.sqrt(8) * 1e-4)
        assert payload["init_sigma"] == cfg.resolved_init_sigma()

    def test_scale_prints_one_row_per_cell(self, tmp_path, capsys):
        cfg = replace(TINY, sweep_batch_sizes=(256, 64), sweep_rules=("cowclip", "none"))
        assert cli.main(["scale", "--config", _write_config(tmp_path / "s.cfg", cfg)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cells = [("cowclip", 256), ("cowclip", 64), ("none", 256), ("none", 64)]
        assert [tuple(line.split()[:2]) for line in lines[1:-1]] == [
            (rule, str(b)) for rule, b in cells
        ]
        assert [(r["rule"], r["batch_size"]) for r in json.loads(lines[-1])] == cells

    @pytest.mark.parametrize("variant", ["global", "cowclip"])
    def test_scale_prints_what_train_applies(self, tmp_path, capsys, monkeypatch, variant):
        # Without warmup, the dense lr of every step is the plan's.
        cfg = replace(TINY, warmup_epochs=0.0, epochs=1, clip_variant=variant,
                      sweep_batch_sizes=(64, 256), sweep_rules=("none", "cowclip", "linear"))
        assert cli.main(["scale", "--config", _write_config(tmp_path / "s.cfg", cfg)]) == 0
        rows = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

        applied = []
        train_, dense_step, sparse_step = harness.train, optim.adam_step, optim.adam_sparse_step
        apply_clip, init_table = harness.clip.apply_clip, harness.init_table

        def spy_train(config, seed, dataset=None):
            applied.append({"lr_dense": set(), "sparse": set(), "clip": set(), "sigma": set()})
            return train_(config, seed, dataset=dataset)

        def spy_dense(state, params, grads, lr):
            applied[-1]["lr_dense"].add(lr)
            dense_step(state, params, grads, lr)

        def spy_sparse(state, table, grad, lr, l2, **kw):
            applied[-1]["sparse"].add((lr, l2))
            sparse_step(state, table, grad, lr, l2, **kw)

        def spy_clip(clip_cfg, table, grad):
            applied[-1]["clip"].add(clip_cfg)
            return apply_clip(clip_cfg, table, grad)

        def spy_init(fields, dim, sigma, seed, **kw):
            applied[-1]["sigma"].add(sigma)
            return init_table(fields, dim, sigma, seed, **kw)

        monkeypatch.setattr(harness, "train", spy_train)
        monkeypatch.setattr(optim, "adam_step", spy_dense)
        monkeypatch.setattr(optim, "adam_sparse_step", spy_sparse)
        monkeypatch.setattr(harness.clip, "apply_clip", spy_clip)
        monkeypatch.setattr(harness, "init_table", spy_init)
        records, _ = sweep(cfg, seed=0)
        assert [(r["rule"], r["batch_size"]) for r in rows] == [
            (rec.rule, rec.batch_size) for rec in records
        ]
        assert [{"lr_dense": {r["lr_dense"]}, "sparse": {(r["lr_embed"], r["l2"])},
                 "clip": {ClipConfig(**r["clip"])}, "sigma": {r["init_sigma"]}}
                for r in rows] == applied

    @pytest.mark.parametrize("command,lines,message", [
        ("train", ["model.kind=foo"], "model.kind must be one of .*got 'foo'"),
        ("train", None, "No such file or directory"),
        ("train", ["data.source={empty}"], "data.source '.*empty.tsv' yielded 0 rows"),
        ("train", ["data.source={dense}", "model.kind=dcn", "train.batch_size=16"],
         "data.source '.*dense.npz' has no categorical field"),
        ("train", ["data.source={float_ids}", "train.batch_size=16"],
         "categorical ids must be integers, got dtype float64"),
        ("analyze-freq", ["data.source={empty}"], "data.source '.*empty.tsv' yielded 0 rows"),
        ("scale", None, "No such file or directory"),
        ("train", ["opt.lr_embed=inf"], "opt.lr_embed must be > 0 and finite, got inf"),
        ("train", ["data.source={dense_1d}", "train.batch_size=16"],
         r"dense array must have shape \(200, n_dense\), got \(200,\)"),
        ("train", ["data.source={dense_short}", "train.batch_size=16"],
         r"dense array must have shape \(200, n_dense\), got \(199, 2\)"),
        ("train", ["data.source={no_vocab}", "train.batch_size=16"],
         "dataset schema entry 0 must have a name and a vocab_size, got {'name': 'c0'}"),
        ("train", ["data.source={float_vocab}", "train.batch_size=16"],
         r"field 'c0': vocab_size must be an integer, got 4\.5"),
        ("train", ["data.source={str_vocab}", "train.batch_size=16"],
         "field 'c0': vocab_size must be an integer, got '4'"),
        ("train", ["data.source={int_schema}", "train.batch_size=16"],
         "dataset schema must be a list of fields, got 5"),
        ("train", ["data.source={no_categorical}", "train.batch_size=16"],
         "dataset file has no array 'categorical'"),
        ("train", ["data.source={labels_2d}", "train.batch_size=16"],
         r"labels array must have shape \(n_samples,\), got \(200, 2\)"),
    ], ids=["train-bad-key", "train-missing-config", "train-empty-tsv", "train-dense-only-npz",
            "train-float-ids-npz", "analyze-freq-empty-tsv", "scale-missing-config",
            "train-infinite-lr", "train-1d-dense-npz", "train-short-dense-npz",
            "train-schema-entry-without-vocab-npz", "train-float-vocab-npz",
            "train-string-vocab-npz", "train-int-schema-npz", "train-no-categorical-npz",
            "train-2d-labels-npz"])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, command, lines, message):
        cfg_path = tmp_path / "exp.cfg"
        if lines is not None:
            (tmp_path / "empty.tsv").write_text("")
            cfg_path.write_text("\n".join(lines).format(
                empty=tmp_path / "empty.tsv", dense=_dense_only_npz(tmp_path / "dense.npz"),
                **{name: _raw_npz(tmp_path / f"{name}.npz", **kw) for name, kw in (
                    ("float_ids", dict(categorical=np.arange(200)[:, None] % 4.0)),
                    ("dense_1d", dict(dense=np.zeros(200))),
                    ("dense_short", dict(dense=np.zeros((199, 2)))),
                    ("no_vocab", dict(schema=[{"name": "c0"}])),
                    ("float_vocab", dict(schema=[{"name": "c0", "vocab_size": 4.5}])),
                    ("str_vocab", dict(schema=[{"name": "c0", "vocab_size": "4"}])),
                    ("int_schema", dict(schema=5)),
                    ("no_categorical", dict(categorical=False)),
                    ("labels_2d", dict(labels=np.zeros((200, 2), np.uint8))),
                )}))
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(f"error: .*{message}.*\n", err)

    def test_verify_subset(self, capsys):
        assert cli.main(["verify", "adam-equivalence", "--seed", "0"]) == 0
        assert "PASS adam-equivalence" in capsys.readouterr().out

    def test_verify_unknown_suite_fails(self):
        assert cli.main(["verify", "nonsense"]) == 1

    def test_verify_failing_check_exits_one(self, monkeypatch, capsys):
        failed = harness.CheckResult("presence-prob", False, "forced failure")
        monkeypatch.setitem(harness._VERIFY_SUITES, "presence-prob", lambda seed: failed)
        assert cli.main(["verify", "presence-prob"]) == 1
        assert capsys.readouterr().out.startswith("FAIL presence-prob")

    @pytest.mark.parametrize("argv", [
        ["verify", "presence-prob"],
        ["grad-check", "--model", "wd", "--trials", "1"],
    ], ids=["verify", "grad-check"])
    def test_config_is_a_usage_error_where_unread(self, argv, capsys):
        # Neither subcommand reads a config, so a --config given to one must
        # not be silently ignored.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", "/nonexistent.cfg"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_analyze_freq(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("data.n_samples=500\ndata.n_categorical=2\n"
                            "data.vocab_size=10\ntrain.batch_size=32\n")
        assert cli.main(["analyze-freq", "--config", str(cfg_path), "--seed", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        ds = harness.build_dataset(parse_config_text(cfg_path.read_text()), seed=4)
        assert lines[0] == "samples: 500   batch size: 32"
        row = re.compile(r"  #(\d) id (\d+): count (\d+)  p (\S+)  in-batch exact (\S+) approx (\S+)")
        for j, f in enumerate(ds.fields):
            # the oracle: a recount of the field's column, one sample at a time
            recount = [0] * f.vocab_size
            for i in ds.categorical[:, j].tolist():
                recount[i] += 1
            block = lines[1 + 6 * j : 7 + 6 * j]
            assert block[0] == f"field {f.name}: vocab 10"
            rows = [row.fullmatch(line).groups() for line in block[1:]]
            assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
            assert len({r[1] for r in rows}) == 5
            printed = [int(r[2]) for r in rows]
            assert printed == [recount[int(r[1])] for r in rows]
            assert printed == sorted(recount, reverse=True)[:5]
            for _, _, count, p, exact, approx in rows:
                assert p == f"{int(count) / 500:.6f}"
                prob = int(count) / 500
                assert exact == f"{1 - (1 - prob) ** 32:.4f}"
                assert approx == f"{min(1.0, 32 * prob):.4f}"
        assert len(lines) == 1 + 6 * ds.n_categorical
