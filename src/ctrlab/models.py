"""Two-stream CTR models with hand-written forward/backward passes.

Four heads share one MLP trunk:

  wd      deep + logistic regression over the selected ids
  deepfm  deep + logistic regression + factorization-machine pairwise term
  dcn     deep + stacked rank-one cross layers, projected to a scalar
  dcnv2   deep + stacked full-matrix cross layers, projected to a scalar

Dense (continuous) features feed the deep stream only; the wide/cross streams
see the categorical embeddings.  Backward passes return gradient sums over the
batch; loss_and_backward normalizes by the batch size once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .data import CATEGORICAL, Batch, FieldSchema, load_npz, save_npz
from .embedding import (
    EmbeddingTable,
    LookupRecord,
    SparseGradient,
    accumulate_gradients,
    field_offsets,
    lookup_forward,
)

MODEL_KINDS = ("wd", "deepfm", "dcn", "dcnv2")


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class DenseParams:
    """Every non-embedding weight of one model, keyed for the optimizer."""

    kind: str
    mlp: list[tuple[np.ndarray, np.ndarray]]            # hidden layers then output unit
    lr_bias: np.ndarray | None = None                   # shape (), wd/deepfm
    lr_weights: list[np.ndarray] = field(default_factory=list)  # per field (vocab,)
    cross: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    cross_out: np.ndarray | None = None                 # (D,)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, (w, b) in enumerate(self.mlp):
            out.append((f"mlp.{i}.W", w))
            out.append((f"mlp.{i}.b", b))
        if self.lr_bias is not None:
            out.append(("lr.bias", self.lr_bias))
        for j, w in enumerate(self.lr_weights):
            out.append((f"lr.w{j}", w))
        for l, (w, b) in enumerate(self.cross):
            out.append((f"cross.{l}.w", w))
            out.append((f"cross.{l}.b", b))
        if self.cross_out is not None:
            out.append(("cross.out", self.cross_out))
        return out

    def replace_arrays(self, arrays: dict[str, np.ndarray]) -> "DenseParams":
        def get(name, old):
            return arrays.get(name, old)

        return DenseParams(
            kind=self.kind,
            mlp=[
                (get(f"mlp.{i}.W", w), get(f"mlp.{i}.b", b))
                for i, (w, b) in enumerate(self.mlp)
            ],
            lr_bias=None if self.lr_bias is None else get("lr.bias", self.lr_bias),
            lr_weights=[get(f"lr.w{j}", w) for j, w in enumerate(self.lr_weights)],
            cross=[
                (get(f"cross.{l}.w", w), get(f"cross.{l}.b", b))
                for l, (w, b) in enumerate(self.cross)
            ],
            cross_out=None if self.cross_out is None else get("cross.out", self.cross_out),
        )


def init_dense_params(
    kind: str,
    vocab_sizes: list[int],
    embed_dim: int,
    n_dense: int,
    hidden: tuple[int, ...] = (400, 400, 400),
    cross_depth: int = 3,
    seed: int = 0,
) -> DenseParams:
    """Kaiming (fan-in) normal for all weight matrices, zero biases and LR weights."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    rng = np.random.default_rng(seed)
    n_fields = len(vocab_sizes)
    d_cross = n_fields * embed_dim
    width = d_cross + n_dense

    def kaiming(shape, fan_in):
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)

    mlp = []
    prev = width
    for h in hidden:
        mlp.append((kaiming((prev, h), prev), np.zeros(h)))
        prev = h
    mlp.append((kaiming((prev, 1), prev), np.zeros(1)))

    params = DenseParams(kind=kind, mlp=mlp)
    if kind in ("wd", "deepfm"):
        params.lr_bias = np.zeros(())
        params.lr_weights = [np.zeros(v) for v in vocab_sizes]
    if kind in ("dcn", "dcnv2"):
        for _ in range(cross_depth):
            if kind == "dcn":
                params.cross.append((kaiming((d_cross,), d_cross), np.zeros(d_cross)))
            else:
                params.cross.append((kaiming((d_cross, d_cross), d_cross), np.zeros(d_cross)))
        params.cross_out = kaiming((d_cross,), d_cross)
    return params


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------

def mlp_forward(
    layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Affine+ReLU stack with a linear scalar output unit.  Returns (logits, cache)."""
    if x.shape[1] != layers[0][0].shape[0]:
        raise ValueError("input width does not match the first layer")
    hs = [x]
    zs = []
    h = x
    for w, b in layers[:-1]:
        z = h @ w + b
        h = np.maximum(z, 0.0)
        zs.append(z)
        hs.append(h)
    w_out, b_out = layers[-1]
    logits = (h @ w_out + b_out)[:, 0]
    return logits, {"hs": hs, "zs": zs}


def mlp_backward(
    layers: list[tuple[np.ndarray, np.ndarray]], cache: dict, dlogit: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradient sums over the batch for every layer, plus d(input)."""
    hs, zs = cache["hs"], cache["zs"]
    grads: dict[str, np.ndarray] = {}
    w_out, _ = layers[-1]
    last = len(layers) - 1
    grads[f"mlp.{last}.W"] = hs[-1].T @ dlogit[:, None]
    grads[f"mlp.{last}.b"] = np.array([dlogit.sum()])
    dh = dlogit[:, None] @ w_out.T
    for i in range(len(layers) - 2, -1, -1):
        dz = dh * (zs[i] > 0)
        grads[f"mlp.{i}.W"] = hs[i].T @ dz
        grads[f"mlp.{i}.b"] = dz.sum(axis=0)
        dh = dz @ layers[i][0].T
    return grads, dh


def lr_head(
    bias: np.ndarray, weights: list[np.ndarray], ids: np.ndarray
) -> np.ndarray:
    """First-order term: bias plus the selected id weight of every field."""
    logits = np.full(len(ids), float(bias))
    for j, w in enumerate(weights):
        logits += w[ids[:, j]]
    return logits


def lr_head_backward(
    weights: list[np.ndarray], ids: np.ndarray, dlogit: np.ndarray
) -> dict[str, np.ndarray]:
    grads = {"lr.bias": np.asarray(dlogit.sum())}
    for j, w in enumerate(weights):
        # Each id's samples are added in row order from 0.0, as np.add.at would.
        grads[f"lr.w{j}"] = np.bincount(ids[:, j], weights=dlogit, minlength=len(w))
    return grads


def fm_pairwise(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of inner products over distinct field pairs, via 0.5(|Σv|² − Σ|v|²).

    v has shape (batch, fields, dim); returns (per-sample term, Σ_f v_f cache).
    """
    s = v.sum(axis=1)
    term = 0.5 * ((s ** 2).sum(axis=1) - (v ** 2).sum(axis=(1, 2)))
    return term, s


def fm_pairwise_backward(v: np.ndarray, s: np.ndarray, dterm: np.ndarray) -> np.ndarray:
    return dterm[:, None, None] * (s[:, None, :] - v)


def dcn_cross_layer(
    x0: np.ndarray, xl: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """x_{l+1} = x0 (xl·w) + b + xl.  Returns (x_{l+1}, xl·w cache)."""
    t = xl @ w
    return x0 * t[:, None] + b + xl, t


def dcn_cross_layer_backward(
    x0: np.ndarray, xl: np.ndarray, w: np.ndarray, t: np.ndarray, dnext: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    dt = (dnext * x0).sum(axis=1)
    dx0 = dnext * t[:, None]
    dw = xl.T @ dt
    db = dnext.sum(axis=0)
    dxl = dt[:, None] * w[None, :] + dnext
    return dx0, dxl, dw, db


def dcnv2_cross_layer(
    x0: np.ndarray, xl: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """x_{l+1} = x0 ⊙ (W xl + b) + xl.  Returns (x_{l+1}, W xl + b cache)."""
    u = xl @ w.T + b
    return x0 * u + xl, u


def dcnv2_cross_layer_backward(
    x0: np.ndarray, xl: np.ndarray, w: np.ndarray, u: np.ndarray, dnext: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    du = dnext * x0
    dx0 = dnext * u
    dw = du.T @ xl
    db = du.sum(axis=0)
    dxl = du @ w + dnext
    return dx0, dxl, dw, db


# ---------------------------------------------------------------------------
# Whole-model forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardCache:
    kind: str
    params: DenseParams
    table: EmbeddingTable
    record: LookupRecord
    embedded: np.ndarray          # (b, fields*dim)
    x_mlp: np.ndarray             # (b, fields*dim + n_dense)
    mlp_cache: dict
    logit: np.ndarray
    fm_sum: np.ndarray | None = None
    cross_xs: list[np.ndarray] = field(default_factory=list)
    cross_aux: list[np.ndarray] = field(default_factory=list)


def model_forward(
    kind: str, params: DenseParams, table: EmbeddingTable, batch: Batch
) -> tuple[np.ndarray, ForwardCache]:
    """Click probability per sample: sigmoid(deep stream + wide/cross stream)."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    embedded, record = lookup_forward(table, batch)
    x_mlp = np.concatenate([embedded, batch.dense], axis=1)
    logit, mlp_cache = mlp_forward(params.mlp, x_mlp)
    cache = ForwardCache(kind, params, table, record, embedded, x_mlp, mlp_cache, logit)

    if kind in ("wd", "deepfm"):
        logit = logit + lr_head(params.lr_bias, params.lr_weights, batch.categorical)
    if kind == "deepfm":
        v = embedded.reshape(len(embedded), table.n_fields, table.dim)
        term, s = fm_pairwise(v)
        logit = logit + term
        cache.fm_sum = s
    if kind in ("dcn", "dcnv2"):
        x = embedded
        cache.cross_xs = [x]
        for w, b in params.cross:
            if kind == "dcn":
                x, aux = dcn_cross_layer(embedded, x, w, b)
            else:
                x, aux = dcnv2_cross_layer(embedded, x, w, b)
            cache.cross_xs.append(x)
            cache.cross_aux.append(aux)
        logit = logit + x @ params.cross_out

    cache.logit = logit
    return sigmoid(logit), cache


def loss_and_backward(
    probabilities: np.ndarray,
    labels: np.ndarray,
    cache: ForwardCache,
    eps_p: float = 1e-7,
) -> tuple[float, dict[str, np.ndarray], SparseGradient]:
    """Mean logloss plus gradients for every dense tensor and touched id vector.

    These are data gradients only: L2 is the optimizer's business.
    """
    params, table, record = cache.params, cache.table, cache.record
    b = len(labels)
    y = np.asarray(labels, dtype=np.float64)
    loss = metrics.logloss(probabilities, y, eps_p)
    dlogit = probabilities - y  # d(per-sample loss)/d(logit)

    grads, dmlp_in = mlp_backward(params.mlp, cache.mlp_cache, dlogit)
    width = table.n_fields * table.dim
    d_embedded = dmlp_in[:, :width].copy()

    if cache.kind in ("wd", "deepfm"):
        grads.update(lr_head_backward(params.lr_weights, record.ids, dlogit))
    if cache.kind == "deepfm":
        v = cache.embedded.reshape(b, table.n_fields, table.dim)
        d_embedded += fm_pairwise_backward(v, cache.fm_sum, dlogit).reshape(b, width)
    if cache.kind in ("dcn", "dcnv2"):
        x_last = cache.cross_xs[-1]
        grads["cross.out"] = x_last.T @ dlogit
        dx = dlogit[:, None] * params.cross_out[None, :]
        dx0_total = np.zeros_like(cache.embedded)
        for l in range(len(params.cross) - 1, -1, -1):
            w, _ = params.cross[l]
            xl = cache.cross_xs[l]
            aux = cache.cross_aux[l]
            if cache.kind == "dcn":
                dx0, dx, dw, db = dcn_cross_layer_backward(cache.embedded, xl, w, aux, dx)
            else:
                dx0, dx, dw, db = dcnv2_cross_layer_backward(cache.embedded, xl, w, aux, dx)
            dx0_total += dx0
            grads[f"cross.{l}.w"] = dw
            grads[f"cross.{l}.b"] = db
        d_embedded += dx0_total + dx  # the residual chain bottoms out at x0

    for name in grads:
        grads[name] = grads[name] / b
    sparse = accumulate_gradients(record, d_embedded, b)
    return loss, grads, sparse


# ---------------------------------------------------------------------------
# Checkpoints: dense parameters bundled with the embedding table
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: DenseParams, table: EmbeddingTable) -> None:
    header = {
        "kind": params.kind,
        "dense_names": [name for name, _ in params.named_arrays()],
        "table": {
            "fields": [{"name": f.name, "vocab_size": f.vocab_size} for f in table.fields],
            "dim": table.dim,
            "init_sigma": table.init_sigma,
            "seed": table.seed,
        },
    }
    arrays = {f"dense:{name}": a for name, a in params.named_arrays()}
    arrays.update({f"table:{j}": w for j, w in enumerate(table.weights)})
    save_npz(path, header, arrays)


def load_checkpoint(path) -> tuple[DenseParams, EmbeddingTable]:
    header, z = load_npz(path)
    dense = {name: z[f"dense:{name}"] for name in header["dense_names"]}
    t = header["table"]
    fields = tuple(FieldSchema(f["name"], CATEGORICAL, f["vocab_size"]) for f in t["fields"])
    table = EmbeddingTable(
        fields, t["dim"], np.empty((field_offsets(fields)[-1], t["dim"])), t["init_sigma"], t["seed"]
    )
    for j, w in enumerate(table.weights):
        stored = z[f"table:{j}"]
        if stored.shape != w.shape:
            raise ValueError(f"checkpoint table:{j} has shape {stored.shape}, expected {w.shape}")
        w[...] = stored
    return _params_from_named(header["kind"], dense), table


def _params_from_named(kind: str, arrays: dict[str, np.ndarray]) -> DenseParams:
    mlp_idx = sorted({int(n.split(".")[1]) for n in arrays if n.startswith("mlp.")})
    lr_idx = sorted(int(n[4:]) for n in arrays if n.startswith("lr.w"))
    cross_idx = sorted(
        {int(n.split(".")[1]) for n in arrays if n.startswith("cross.") and n != "cross.out"}
    )
    return DenseParams(
        kind=kind,
        mlp=[(arrays[f"mlp.{i}.W"], arrays[f"mlp.{i}.b"]) for i in mlp_idx],
        lr_bias=arrays.get("lr.bias"),
        lr_weights=[arrays[f"lr.w{j}"] for j in lr_idx],
        cross=[(arrays[f"cross.{l}.w"], arrays[f"cross.{l}.b"]) for l in cross_idx],
        cross_out=arrays.get("cross.out"),
    )
