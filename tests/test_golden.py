"""Golden run fingerprints: refactors must reproduce these trainings bit for bit.

Each config is a tiny training (well under a second) that takes one path
through the trainer: the model head, the clip variant with its batch-scaled
threshold, the scaling rule, and the optimizer mode.  The hash covers every
number of the run record except wall-clock time, and the config itself.
The hashes were recorded with numpy 2.4 on OpenBLAS; a BLAS that sums in a
different order may differ in the last bits.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from ctrlab.harness import ExperimentConfig, record_fingerprint, train

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
        "b63ad83746c250a48e0fdff9b2972e1fb16445d21e7f57e7e4e48685ba612d48",
    ),
    "wd-cowclip-lazy": (
        replace(TINY, model_kind="wd", rule="cowclip", clip_variant="cowclip",
                batch_size=128, dense_l2=False),
        "02da7ce20762ed73f581b4dd22b78b1469723c8e84576cbd1b4d80ee84cfdc68",
    ),
    "dcn-fieldwise-s4-sqrt": (
        replace(TINY, model_kind="dcn", clip_variant="fieldwise", clip_value=3e-3,
                clip_mode="sqrt", **S4),
        "63636bed940dcb241009d6dbd43b6dfe0e7ce038b82191998ee162fe3b0e5002",
    ),
    "dcnv2-global-s4-linear": (
        replace(TINY, model_kind="dcnv2", clip_variant="global", clip_value=3e-3,
                clip_mode="linear", **S4),
        "2e1b40e214dad925a83f148b9644b4987aaf2a2bc4df375858441335ae5a1f57",
    ),
    "dcnv2-columnwise-s4-linear": (
        replace(TINY, model_kind="dcnv2", clip_variant="columnwise", clip_value=3e-3,
                clip_mode="linear", **S4),
        "d87746d8fa3df27311f1587b45b1861a35f343825a560e67cd98fba1d867655d",
    ),
    "deepfm-sgd": (
        replace(TINY, model_kind="deepfm", opt_kind="sgd", lr_dense=0.05, lr_embed=0.05,
                rule="sqrt", batch_size=128),
        "1e5a1746e5c50f7d0fe01215217f6206f5dff7d19dfb7048ef969626163a8c81",
    ),
}


def _hash(config: ExperimentConfig) -> str:
    record = train(config, seed=1)
    text = json.dumps(record_fingerprint(record), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name):
    config, expected = GOLDEN[name]
    assert _hash(config) == expected
