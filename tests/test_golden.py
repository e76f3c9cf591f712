"""Golden run fingerprints: refactors must reproduce these trainings bit for bit.

Each config is a tiny training (well under a second) that takes one path
through the trainer: the model head, the clip variant with its batch-scaled
threshold, the scaling rule, and the embedding step's mode (dense L2 or
lazy).  Each config pins two hashes.  The numbers hash is the hash of
``record_fingerprint``: every number of the run record, that is everything
but wall-clock time and the config, so a change that adds, drops or renames
a config key keeps it, and its test shows that no number of the run moved.
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
compare a moved one by.
"""

import functools
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from ctrlab import harness, models, optim
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
        "b1354e9755139aebe35739613e4a81b1b63eeb627882d6ccbc3108c01c03bf0b",
        "f3636bf7814d89728e69a50e24d8ee227bafd907fd125f0b807d92a001a9f26e",
    ),
    "wd-cowclip-lazy": (
        replace(TINY, model_kind="wd", rule="cowclip", clip_variant="cowclip",
                batch_size=128, dense_l2=False),
        "88b4f9e34a109361a70ea5e75707bd565aced02fdded5f768c4018f82a44a990",
        "eb3bd2e44f2adb5eda01e5570abcda1f5b2e6bdded15d58f2e4b26775e27e8e0",
    ),
    "dcn-fieldwise-s4-sqrt": (
        replace(TINY, model_kind="dcn", clip_variant="fieldwise", clip_value=3e-3, **S4),
        "7261d2d52110778a7be72ab61763655291e01521a1e0b2bcf18a8392a88ca61f",
        "50ca2975e90efcfd0aa8bc82bd3092c0006729d52627be2eebe43ba7eeee15a3",
    ),
    "dcnv2-global-s4": (
        replace(TINY, model_kind="dcnv2", clip_variant="global", clip_value=6e-3, **S4),
        "af2774f6451c6df8d9529fdf45a5e1a94747085da9e17990621d185441eb8b44",
        "5cdfd6d9efa9591f01d4a4f77c4e68a88f148fa4ea002ded59766dd30af66db1",
    ),
    "dcnv2-columnwise-s4": (
        replace(TINY, model_kind="dcnv2", clip_variant="columnwise", clip_value=6e-3, **S4),
        "eadb07160c28e302c4cfaf8e0fdaa1bb88a330bf6fa75d36d4c50c6fae601598",
        "6ac135297a2f00b0007b2fe8eac5614ee45c0d86d3958de2d1df58563d20b9ad",
    ),
    "dcn-adaptive_fieldwise-s4-sqrt": (
        replace(TINY, model_kind="dcn", rule="sqrt", clip_variant="adaptive_fieldwise",
                clip_r=0.1, **S4),
        "69a1c480c0654381547ba1de2249dbcd924cd2ffb9d8e9ad364f58de54ee462e",
        "da101948f934393e46ff74c42bd9b5b51b80668184712bc8bd856c566f432e1c",
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


if __name__ == "__main__":
    for name, (config, *_) in GOLDEN.items():
        record = train(config, seed=1)
        print(name, _hash(record), f"numbers={_hash(record, with_config=False)}",
              f"auc={record.final_auc!r}", f"logloss={record.final_logloss!r}")
    for name, (config, _) in DATA_GOLDEN.items():
        print(name, f"data={_data_hash(config)}")
    for kind in EVAL_GOLDEN:
        print(kind, f"evaluation={_eval_hash(kind)}")
