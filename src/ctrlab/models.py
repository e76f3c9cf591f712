"""Two-stream CTR models with hand-written forward/backward passes.

Four heads share one MLP trunk:

  wd      deep + logistic regression over the selected ids
  deepfm  deep + logistic regression + factorization-machine pairwise term
  dcn     deep + stacked rank-one cross layers, projected to a scalar
  dcnv2   deep + stacked full-matrix cross layers, projected to a scalar

Dense (continuous) features feed the deep stream only; the wide/cross streams
see the categorical embeddings.  Backward passes return gradient sums over the
batch; loss_and_backward normalizes by the batch size once at the end.

Weights, activations and gradients are float32 in training
(embedding.TRAIN_DTYPE), set by init_dense_params and init_table; every
layer keeps its inputs' dtype.  The output probability, the loss and the
metrics are float64: they cost b entries, and log(1 - p) needs the digits.

The logistic regression's per-id weights are a dim-1 embedding table over the
embedding table's fields, so they share its rows, its sparse gradients and
its optimizer; only the scalar bias is a dense parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .data import CATEGORICAL, Batch, FieldSchema, load_npz, save_npz
from .embedding import (
    TRAIN_DTYPE,
    EmbeddingTable,
    LookupRecord,
    SparseGradient,
    accumulate_gradients,
    field_offsets,
    lookup_forward,
)

MODEL_KINDS = ("wd", "deepfm", "dcn", "dcnv2")
FIRST_ORDER_KINDS = ("wd", "deepfm")  # heads with a logistic-regression term


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, in float64 whatever x's dtype."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class DenseParams:
    """A model's weights besides its embedding table; named_arrays() keys the dense ones."""

    kind: str
    mlp: list[tuple[np.ndarray, np.ndarray]]            # hidden layers then output unit
    lr_bias: np.ndarray | None = None                   # shape (), wd/deepfm
    first_order: EmbeddingTable | None = None           # dim 1, wd/deepfm
    cross: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    cross_out: np.ndarray | None = None                 # (D,)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, (w, b) in enumerate(self.mlp):
            out.append((f"mlp.{i}.W", w))
            out.append((f"mlp.{i}.b", b))
        if self.lr_bias is not None:
            out.append(("lr.bias", self.lr_bias))
        for l, (w, b) in enumerate(self.cross):
            out.append((f"cross.{l}.w", w))
            out.append((f"cross.{l}.b", b))
        if self.cross_out is not None:
            out.append(("cross.out", self.cross_out))
        return out


def model_tables(params: DenseParams, table: EmbeddingTable) -> tuple[EmbeddingTable, ...]:
    """A model's id-indexed tables, in the order of loss_and_backward's sparse gradients."""
    return (table,) if params.first_order is None else (table, params.first_order)


def init_dense_params(
    kind: str,
    fields: tuple[FieldSchema, ...],
    embed_dim: int,
    n_dense: int,
    hidden: tuple[int, ...] = (400, 400, 400),
    cross_depth: int = 3,
    seed: int = 0,
    dtype=TRAIN_DTYPE,
) -> DenseParams:
    """Kaiming (fan-in) normal weight matrices; zero biases and first-order table.

    The draws are float64 and are rounded to dtype.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    rng = np.random.default_rng(seed)
    n_fields = len(fields)
    d_cross = n_fields * embed_dim
    width = d_cross + n_dense

    def kaiming(shape, fan_in):
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)

    def zeros(shape):
        return np.zeros(shape, dtype)

    mlp = []
    prev = width
    for h in hidden:
        mlp.append((kaiming((prev, h), prev), zeros(h)))
        prev = h
    mlp.append((kaiming((prev, 1), prev), zeros(1)))

    params = DenseParams(kind=kind, mlp=mlp)
    if kind in FIRST_ORDER_KINDS:
        params.lr_bias = zeros(())
        params.first_order = EmbeddingTable(fields, 1, zeros((field_offsets(fields)[-1], 1)))
    if kind in ("dcn", "dcnv2"):
        for _ in range(cross_depth):
            if kind == "dcn":
                params.cross.append((kaiming((d_cross,), d_cross), zeros(d_cross)))
            else:
                params.cross.append((kaiming((d_cross, d_cross), d_cross), zeros(d_cross)))
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


def lr_head(bias: np.ndarray, first_order: EmbeddingTable, rows: np.ndarray) -> np.ndarray:
    """First-order term: bias plus every field's selected weight, at the lookup's rows."""
    return float(bias) + np.take(first_order.block[:, 0], rows).sum(axis=1)


def lr_head_backward(record: LookupRecord, dlogit: np.ndarray) -> SparseGradient:
    """First-order sparse gradient: each sample's dlogit, summed per selected id, over b."""
    upstream = np.repeat(dlogit[:, None], record.rows.shape[1], axis=1)
    return accumulate_gradients(record, upstream, dim=1)


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
    params: DenseParams
    table: EmbeddingTable
    record: LookupRecord
    embedded: np.ndarray          # (b, fields*dim)
    mlp_cache: dict
    logit: np.ndarray
    fm_sum: np.ndarray | None = None
    cross_xs: list[np.ndarray] = field(default_factory=list)
    cross_aux: list[np.ndarray] = field(default_factory=list)


def model_forward(
    params: DenseParams, table: EmbeddingTable, batch: Batch
) -> tuple[np.ndarray, ForwardCache]:
    """Click probability per sample: sigmoid(deep stream + wide/cross stream),
    for the head params.kind names."""
    kind = params.kind
    embedded, record = lookup_forward(table, batch)
    # The dataset's dense features are float64; the model runs in the table's dtype.
    x_mlp = np.concatenate([embedded, batch.dense], axis=1, dtype=embedded.dtype)
    logit, mlp_cache = mlp_forward(params.mlp, x_mlp)
    cache = ForwardCache(params, table, record, embedded, mlp_cache, logit)

    if kind in FIRST_ORDER_KINDS:
        if not np.array_equal(params.first_order.offsets, table.offsets):
            raise ValueError("first-order table's field offsets differ from the embedding table's")
        logit = logit + lr_head(params.lr_bias, params.first_order, record.rows)
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
) -> tuple[float, dict[str, np.ndarray], tuple[SparseGradient, ...]]:
    """Mean logloss, the gradient of every dense tensor, and one sparse
    gradient per table of model_tables, in that order.

    These are data gradients only: L2 is the optimizer's business.
    """
    params, table, record = cache.params, cache.table, cache.record
    kind = params.kind
    b = len(labels)
    y = np.asarray(labels, dtype=np.float64)
    loss = metrics.logloss(probabilities, y)
    # d(per-sample loss)/d(logit), back in the model's dtype
    dlogit = (probabilities - y).astype(cache.logit.dtype, copy=False)

    grads, dmlp_in = mlp_backward(params.mlp, cache.mlp_cache, dlogit)
    width = table.n_fields * table.dim
    d_embedded = dmlp_in[:, :width].copy()

    if kind in FIRST_ORDER_KINDS:
        grads["lr.bias"] = np.asarray(dlogit.sum())
    if kind == "deepfm":
        v = cache.embedded.reshape(b, table.n_fields, table.dim)
        d_embedded += fm_pairwise_backward(v, cache.fm_sum, dlogit).reshape(b, width)
    if kind in ("dcn", "dcnv2"):
        x_last = cache.cross_xs[-1]
        grads["cross.out"] = x_last.T @ dlogit
        dx = dlogit[:, None] * params.cross_out[None, :]
        dx0_total = np.zeros_like(cache.embedded)
        for l in range(len(params.cross) - 1, -1, -1):
            w, _ = params.cross[l]
            xl = cache.cross_xs[l]
            aux = cache.cross_aux[l]
            if kind == "dcn":
                dx0, dx, dw, db = dcn_cross_layer_backward(cache.embedded, xl, w, aux, dx)
            else:
                dx0, dx, dw, db = dcnv2_cross_layer_backward(cache.embedded, xl, w, aux, dx)
            dx0_total += dx0
            grads[f"cross.{l}.w"] = dw
            grads[f"cross.{l}.b"] = db
        d_embedded += dx0_total + dx  # the residual chain bottoms out at x0

    for name in grads:
        grads[name] = grads[name] / b
    sparse = (accumulate_gradients(record, d_embedded),)
    if kind in FIRST_ORDER_KINDS:
        sparse += (lr_head_backward(record, dlogit),)
    return loss, grads, sparse


# ---------------------------------------------------------------------------
# The parameter inventory, and checkpoints that store it
# ---------------------------------------------------------------------------

def named_parameters(params: DenseParams, table: EmbeddingTable) -> list[tuple[str, np.ndarray]]:
    """Every parameter of a model by name: params.named_arrays(), then each
    table of model_tables as its whole block, "embed" and (wd/deepfm) "lr"."""
    blocks = [(name, t.block) for name, t in zip(("embed", "lr"), model_tables(params, table))]
    return params.named_arrays() + blocks


def save_checkpoint(path, params: DenseParams, table: EmbeddingTable) -> None:
    """The arrays of named_parameters, and a header of the shapes that name them."""
    header = {
        "kind": params.kind,
        "fields": [{"name": f.name, "vocab_size": f.vocab_size} for f in table.fields],
        "dim": table.dim,
        "n_dense": params.mlp[0][0].shape[0] - table.n_fields * table.dim,
        "hidden": [w.shape[1] for w, _ in params.mlp[:-1]],
        "cross_depth": len(params.cross),
    }
    save_npz(path, header, dict(named_parameters(params, table)))


def load_checkpoint(path) -> tuple[DenseParams, EmbeddingTable]:
    """The saved model, in the training dtype whatever dtype the file holds.

    The header builds a skeleton model, and one loop fills each of its named
    parameters: a missing header key, or a missing, wrong-shaped or unknown
    array, is rejected by name.
    """
    header, stored = load_npz(path)
    for key in ("kind", "fields", "dim", "n_dense", "hidden", "cross_depth"):
        if key not in header:
            raise ValueError(f"checkpoint header has no key {key!r}")
    fields = tuple(FieldSchema(f["name"], CATEGORICAL, f["vocab_size"]) for f in header["fields"])
    dim = header["dim"]
    table = EmbeddingTable(fields, dim, np.empty((field_offsets(fields)[-1], dim), TRAIN_DTYPE))
    params = init_dense_params(header["kind"], fields, dim, header["n_dense"],
                               tuple(header["hidden"]), header["cross_depth"])
    arrays = dict(named_parameters(params, table))
    for name in {**arrays, **stored}:  # the model's names, then any others the file has
        if name not in arrays:
            raise ValueError(f"checkpoint array {name!r} is not a parameter of the model")
        if name not in stored:
            raise ValueError(f"checkpoint has no array {name!r}")
        if stored[name].shape != arrays[name].shape:
            raise ValueError(f"checkpoint array {name!r} has shape {stored[name].shape}, "
                             f"expected {arrays[name].shape}")
        arrays[name][...] = stored[name]
    return params, table
