"""Golden run fingerprints: refactors must reproduce these trainings bit for bit.

Each config is a tiny training (well under a second) that takes one path
through the trainer: the model head, the clip variant with its batch-scaled
threshold, the scaling rule, and the embedding step's mode (dense L2 or
lazy).  The hash covers every number of the run record except wall-clock
time, and the config itself.
The hashes were recorded training in float32 with numpy 2.4 on OpenBLAS; a
BLAS that sums in a different order may differ in the last bits.

    PYTHONPATH=src python tests/test_golden.py

prints each config's name, hash, final AUC and final logloss: the values to
re-pin a config with, and to compare a moved one by.  It also prints a
numbers-only hash, the same hash without the record's config: a change that
adds, drops or renames a config key moves the pinned hash but not this one,
so the two runs' numbers can be compared across it.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from ctrlab import models, optim
from ctrlab.embedding import TRAIN_DTYPE
from ctrlab.harness import ExperimentConfig, RunRecord, record_fingerprint, train

TINY = ExperimentConfig(
    n_samples=2000, n_categorical=3, n_dense=2, vocab_size=50,
    zipf_exponent=1.2, hidden=(16,), embed_dim=4,
    lr_dense=5e-3, lr_embed=5e-3, l2=1e-5, warmup_epochs=0.5,
    base_batch=64, batch_size=64, epochs=2,
)
S4 = dict(base_batch=64, batch_size=256)  # batch factor s = 4

GOLDEN = {
    "deepfm-cowclip-dense-l2": (
        replace(TINY, model_kind="deepfm", rule="cowclip", clip_variant="cowclip",
                batch_size=128, dense_l2=True),
        "f3c1f0d9345c2fc3325c243be364207fa9ab923a8291eece072ff82a6c381f4f",
    ),
    "wd-cowclip-lazy": (
        replace(TINY, model_kind="wd", rule="cowclip", clip_variant="cowclip",
                batch_size=128, dense_l2=False),
        "070c717d1fb74d0a407c950adfb87cc3712961602048a160be1f7325fb71c0f2",
    ),
    "dcn-fieldwise-s4-sqrt": (
        replace(TINY, model_kind="dcn", clip_variant="fieldwise", clip_value=3e-3, **S4),
        "997213e2f2c7717ac688676bbef9bf9f1afea97088167041334680cac8b96053",
    ),
    "dcnv2-global-s4": (
        replace(TINY, model_kind="dcnv2", clip_variant="global", clip_value=6e-3, **S4),
        "c9ff7666bc8d8000a156a2d709945cf13ed151a9deeb9b550ca14c3a6d8ee1f6",
    ),
    "dcnv2-columnwise-s4": (
        replace(TINY, model_kind="dcnv2", clip_variant="columnwise", clip_value=6e-3, **S4),
        "3dcb27d1b1fdb202267aac711a543365d29f998163b77f6fa9a7894762c5ab36",
    ),
    "dcn-adaptive_fieldwise-s4-sqrt": (
        replace(TINY, model_kind="dcn", rule="sqrt", clip_variant="adaptive_fieldwise",
                clip_r=0.1, **S4),
        "0dfaeaec823bf3ebcba48b9866dde1f9ed50e8201407b57e897134c829255b07",
    ),
}


def _hash(record: RunRecord, with_config: bool = True) -> str:
    fingerprint = record_fingerprint(record)
    if not with_config:
        del fingerprint["config"]
    text = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name):
    config, expected = GOLDEN[name]
    assert _hash(train(config, seed=1)) == expected


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
    for name, (config, _) in GOLDEN.items():
        record = train(config, seed=1)
        print(name, _hash(record), f"numbers={_hash(record, with_config=False)}",
              f"auc={record.final_auc!r}", f"logloss={record.final_logloss!r}")
