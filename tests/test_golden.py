"""Golden run fingerprints: refactors must reproduce these trainings bit for bit.

Each config is a tiny training (well under a second) that takes one path
through the trainer: the model head, the clip variant (none or cowclip), the
scaling rule, the embedding step's mode (dense L2 or lazy), and whether the
data leaves ids that the run's tables drop.  Each config pins two hashes.
The numbers hash is the hash of ``record_fingerprint``: every number of the
run record, that is everything but wall-clock time and the config, so a
change that adds, drops or renames a config key keeps it, and its test shows
that no number of the run moved.
The full hash adds the record's config back in, so it also pins how the
config is written into a record.
The hashes were recorded training in float32 with numpy 2.4 on OpenBLAS; a
BLAS that sums in a different order may differ in the last bits.

The data hashes pin the bytes ``build_dataset`` makes for a few synthetic
configs (field names and sizes, labels, dense features and ids), so a change
to the generator or to the top-k collapse shows before any training does.

The evaluation hashes pin the probabilities ``harness._predict`` gives for an
untrained model over the acceptance DESK test split.  Its 20,000 rows take
several evaluation chunks, where every golden training's test split has 400
rows and fits in one, so these pin what happens across chunk boundaries.

    PYTHONPATH=src python tests/test_golden.py

prints each config's name, full hash, numbers hash, final AUC and final
logloss, then each data config's name and data hash, then each evaluation
golden's model kind and hash: the values to re-pin a config with, and to
compare a moved one by.  Each hash is followed by "same" when it equals its
pin and "moved" when it does not, so one run shows which pins a change keeps;
the script exits 1 when any hash moved.
"""

import functools
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from ctrlab import harness, models, optim
from ctrlab.data import drop_unreferenced_ids
from ctrlab.embedding import TRAIN_DTYPE, init_table
from ctrlab.harness import ExperimentConfig, RunRecord, build_dataset, record_fingerprint, train

TINY = ExperimentConfig(
    n_samples=2000, n_categorical=3, n_dense=2, vocab_size=50,
    zipf_exponent=1.2, hidden=(16,), embed_dim=4,
    lr_dense=5e-3, lr_embed=5e-3, l2=1e-5, warmup_epochs=0.5,
    base_batch=64, batch_size=64, epochs=2,
)
S4 = dict(base_batch=64, batch_size=256)  # batch factor s = 4

# name: (config, full hash, numbers hash)
GOLDEN = {
    "deepfm-cowclip-dense-l2": (
        replace(TINY, model_kind="deepfm", rule="cowclip", clip_variant="cowclip",
                batch_size=128, dense_l2=True),
        "d48a742d56c6018d53ec5bc7738f23f2c51732ce31bace4bca384104f54e5c04",
        "f3636bf7814d89728e69a50e24d8ee227bafd907fd125f0b807d92a001a9f26e",
    ),
    "wd-cowclip-lazy": (
        replace(TINY, model_kind="wd", rule="cowclip", clip_variant="cowclip",
                batch_size=128, dense_l2=False),
        "a65ef37f80c9275838a88b8d098d7678976726fcb2d334d6e11d3918e2ededf6",
        "eb3bd2e44f2adb5eda01e5570abcda1f5b2e6bdded15d58f2e4b26775e27e8e0",
    ),
    "dcn-none-s4-sqrt": (
        replace(TINY, model_kind="dcn", rule="sqrt", **S4),
        "72bd9e802629343c896fa966a2f13aa674fb343d8ec5b685b3c3d9fee86683e3",
        "da3745aeb3311c0442d067ea81da9d27553ee57c4b12ce60260cbca95c9281e2",
    ),
    "dcnv2-none-s4": (
        replace(TINY, model_kind="dcnv2", **S4),
        "068eb7ad8b36055b809ca3ec85f5d0775b24b6ba559311a7ad5bc0f8b09b4852",
        "f24b728feaa388e4ecd12c1912ce252d63837176ab208d7f12f44725bc83566d",
    ),
    "dcnv2-cowclip-s4-lazy": (
        replace(TINY, model_kind="dcnv2", clip_variant="cowclip", dense_l2=False, **S4),
        "c4872f0c894b5901ab63e119bb908df606dfbc165db5f095ccc0e2db15052029",
        "a778492156b25af73388f055149368b4045183861e8cde381682b58d3b8efbe3",
    ),
    "dcn-cowclip-s4-sqrt": (
        replace(TINY, model_kind="dcn", rule="sqrt", clip_variant="cowclip", **S4),
        "b297e5eb6d7e8b58c67e14fc265e5e2d7277c57368245a3a3491f4643bddd78f",
        "0aa34f64146d6c894ae9c286cf78f10a5ae140df042aa281b188e0ce02200ec6",
    ),
    # 2000 ids per field, of which TINY's 2000 rows draw about 410: the run's
    # tables leave the rest out (data.drop_unreferenced_ids), which the
    # configs above, whose rows draw every id, never do.
    "deepfm-cowclip-dense-l2-v2000": (
        replace(TINY, model_kind="deepfm", rule="cowclip", clip_variant="cowclip",
                batch_size=128, dense_l2=True, vocab_size=2000),
        "e655517ad0074369c5a72f8493d996ecb6f50485e1a7fcfd35e3d936d9438c8d",
        "c053eb2a3785683ff8fc4f591d5761ef39f59836e76e0d112718e5e63a692d84",
    ),
    "wd-cowclip-lazy-v2000": (
        replace(TINY, model_kind="wd", rule="cowclip", clip_variant="cowclip",
                batch_size=128, dense_l2=False, vocab_size=2000),
        "f16b548cb5474c603642a16906572323ee50703296bbc6fe4db1b44b2f6c2a1e",
        "c5a32225daf0d9075efb7137cb67a50c0cbd7ee1fbd5a942469b3d7836bc34bc",
    ),
}

# name: (config, hash of build_dataset(config, seed=1)).  The default config's
# data is the acceptance DESK data.
DATA_GOLDEN = {
    "desk": (
        ExperimentConfig(),
        "7fa70f60707af735ebd28e282f83e17a46950a172873afdd90ae4b8516828b19",
    ),
    "no-dense": (
        replace(TINY, n_dense=0),
        "5c3e88264071d2139b037674ab64b7bbb13f7061cccf84aa85ce9e4258994e76",
    ),
    "negative-click": (
        replace(TINY, click_strength=-0.7),
        "be30838351fb4922b5a417e50ad1fab68b9d1cc37368660e8e12e06f86665f32",
    ),
    "top3": (
        replace(TINY, n_categorical=4, vocab_size=300, top_k=3),
        "687d72b2c4dcb737e99a24f838fc6a32b31679f6cb4a4fd36244093f0f74847e",
    ),
}

# model kind: hash of harness._predict's probabilities for an untrained model
# (the acceptance DESK shape: 10-dim embeddings, a 64x64 MLP) over the DESK
# data's test split.
EVAL_GOLDEN = {
    "deepfm": "2cc3c00cd7c338c68fb70f3315010a58f17761531d9f2688855678cd32f6b898",
    "dcnv2": "f54f42c8adcdc9f26ffe015a41918168bc8975b1486aa5b4a681214eafd50f21",
}


def _hash(record: RunRecord, with_config: bool = True) -> str:
    fingerprint = record_fingerprint(record)
    if with_config:
        fingerprint["config"] = record.to_dict()["config"]
    text = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _data_hash(config: ExperimentConfig) -> str:
    ds = build_dataset(config, seed=1)
    arrays = (ds.labels, ds.dense, ds.categorical)
    head = {"fields": [[f.name, f.vocab_size] for f in ds.fields],
            "arrays": [[a.dtype.str, a.shape] for a in arrays]}
    h = hashlib.sha256(json.dumps(head).encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@functools.cache
def _desk_test_split():
    config = DATA_GOLDEN["desk"][0]
    return build_dataset(config, seed=1).split(config.split)[1]


def _eval_hash(kind: str) -> str:
    test_ds = _desk_test_split()
    embed = init_table(test_ds.fields, 10, init_sigma=1e-2, seed=1)
    model = models.init_model(kind, embed, test_ds.n_dense, hidden=(64, 64), seed=2)
    return hashlib.sha256(harness._predict(model, test_ds).tobytes()).hexdigest()


@functools.cache
def _trained(name: str) -> RunRecord:
    return train(GOLDEN[name][0], seed=1)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name):
    assert _hash(_trained(name)) == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_numbers(name):
    assert _hash(_trained(name), with_config=False) == GOLDEN[name][2]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_config_takes_its_table_path(name):
    # The v2000 pins train over tables with unreferenced ids left out; every
    # other pin's rows draw all of their ids, so its tables are whole.
    _, kept = drop_unreferenced_ids(build_dataset(GOLDEN[name][0], seed=1))
    assert (kept is not None) == name.endswith("-v2000")


@pytest.mark.parametrize("name", sorted(DATA_GOLDEN))
def test_golden_data(name):
    config, expected = DATA_GOLDEN[name]
    assert _data_hash(config) == expected


@pytest.mark.parametrize("kind", sorted(EVAL_GOLDEN))
def test_golden_evaluation(kind):
    assert _desk_test_split().n_samples == 20_000
    assert _eval_hash(kind) == EVAL_GOLDEN[kind]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_training_stays_in_the_training_dtype(name, monkeypatch):
    # numpy silently upcasts to float64 where an op mixes in a float64 array;
    # every Adam operand (per-row bias corrections included), every dense
    # gradient and every sparse gradient, before and after clipping, must
    # stay in the training dtype.
    config = GOLDEN[name][0]
    dtypes = {"adam": set(), "dense grads": set(), "sparse grads": set()}
    row_corrections = []
    adam_update, loss_and_backward = optim._adam_update, models.loss_and_backward
    sparse_step = optim.adam_sparse_step

    def adam_spy(*args):
        dtypes["adam"].update(a.dtype for a in args if isinstance(a, np.ndarray))
        row_corrections.append(isinstance(args[5], np.ndarray))
        adam_update(*args)

    def loss_spy(*args, **kwargs):
        out = loss_and_backward(*args, **kwargs)
        dtypes["dense grads"].update(g.dtype for g in out[1].values())
        dtypes["sparse grads"].update(s.grad_block.dtype for s in out[2].values())
        return out

    def sparse_step_spy(state, table, sparse_grad, *args, **kwargs):
        dtypes["sparse grads"].add(sparse_grad.grad_block.dtype)  # clipped
        sparse_step(state, table, sparse_grad, *args, **kwargs)

    monkeypatch.setattr(optim, "_adam_update", adam_spy)
    monkeypatch.setattr(models, "loss_and_backward", loss_spy)
    monkeypatch.setattr(optim, "adam_sparse_step", sparse_step_spy)
    train(config, seed=1)
    for kind, seen in dtypes.items():
        assert seen == {np.dtype(TRAIN_DTYPE)}, kind
    # lazy mode corrects each row by its own step count, as an array
    assert any(row_corrections) == (not config.dense_l2)


def _main() -> int:
    moved = []

    def against(current: str, pin: str) -> str:
        moved.append(current != pin)
        return f"{current} {'moved' if moved[-1] else 'same'}"

    for name, (config, full, numbers) in GOLDEN.items():
        record = train(config, seed=1)
        print(name, against(_hash(record), full),
              f"numbers={against(_hash(record, with_config=False), numbers)}",
              f"auc={record.final_auc!r}", f"logloss={record.final_logloss!r}")
    for name, (config, pin) in DATA_GOLDEN.items():
        print(name, f"data={against(_data_hash(config), pin)}")
    for kind, pin in EVAL_GOLDEN.items():
        print(kind, f"evaluation={against(_eval_hash(kind), pin)}")
    return int(any(moved))


def test_the_script_exits_1_when_a_hash_moved(monkeypatch, capsys):
    config, pin = DATA_GOLDEN["no-dense"]
    monkeypatch.setitem(globals(), "GOLDEN", {})
    monkeypatch.setitem(globals(), "EVAL_GOLDEN", {})
    monkeypatch.setitem(globals(), "DATA_GOLDEN", {"no-dense": (config, pin)})
    assert _main() == 0
    monkeypatch.setitem(globals(), "DATA_GOLDEN", {"no-dense": (config, "0" * 64)})
    assert _main() == 1
    assert capsys.readouterr().out.split()[-1] == "moved"


if __name__ == "__main__":
    raise SystemExit(_main())
