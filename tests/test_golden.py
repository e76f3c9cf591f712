"""Golden run fingerprints: refactors must reproduce these trainings bit for bit.

Each config is a tiny training (well under a second) that takes one path
through the trainer: the model head, the clip variant with its batch-scaled
threshold, the scaling rule, and the embedding step's mode (dense L2 or
lazy).  The hash covers every number of the run record except wall-clock
time, and the config itself.
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
        "ea7ce7019ec79a3e8ceca4d4ecbbc92d6ea9f2c48877a0b288d7b6b42e6815ec",
    ),
    "wd-cowclip-lazy": (
        replace(TINY, model_kind="wd", rule="cowclip", clip_variant="cowclip",
                batch_size=128, dense_l2=False),
        "aad3e502223fc9d10371b5403169288d8ba4273a5eae366ae7f1ad67f7747689",
    ),
    "dcn-fieldwise-s4-sqrt": (
        replace(TINY, model_kind="dcn", clip_variant="fieldwise", clip_value=3e-3,
                clip_mode="sqrt", **S4),
        "33eec04bb20982fde3dc8e43285a44a969aeacd4525e76290643b58b4281730a",
    ),
    "dcnv2-global-s4-linear": (
        replace(TINY, model_kind="dcnv2", clip_variant="global", clip_value=3e-3,
                clip_mode="linear", **S4),
        "cbdf751c4d7513bf61bd94a1735588dce47d1dae167c30bb1d0ab41599a633f7",
    ),
    "dcnv2-columnwise-s4-linear": (
        replace(TINY, model_kind="dcnv2", clip_variant="columnwise", clip_value=3e-3,
                clip_mode="linear", **S4),
        "8d64c3993160ffc2599927d5408e225aafa1a064e9e9faa6eced3cc385e9f54b",
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
