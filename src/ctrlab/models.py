"""Two-stream CTR models with hand-written forward/backward passes.

Four heads share one MLP trunk:

  wd      deep + logistic regression over the selected ids
  deepfm  deep + logistic regression + factorization-machine pairwise term
  dcn     deep + stacked rank-one cross layers, projected to a scalar
  dcnv2   deep + stacked full-matrix cross layers, projected to a scalar

Dense (continuous) features feed the deep stream only; the wide/cross streams
see the categorical embeddings.  Backward passes return gradient sums over the
batch; loss_and_backward normalizes by the batch size once at the end.

The forward cache keeps only what backward reads.  The MLP keeps each layer's
input, its ReLU output computed in place (h = h @ W; h += b; max(h, 0) into
h), and no pre-activation: backward masks by h > 0, which holds exactly where
the pre-activation is > 0.  Training and evaluation run the same forward;
evaluation (harness._predict) runs it on 4096-row chunks and drops each
chunk's cache.  At a 400x400x400 dcnv2, one b=4096 training step peaks at
40 MB of numpy allocations and one evaluation of 8,000 rows at 27 MB
(BENCH_pr24.json).

A Model holds every parameter of one model.  Model.tables names its
id-indexed tables; sparse gradients, the trainer's table optimizers,
grad_check and checkpoints take the table names from it.

Weights, activations and gradients are float32 in training
(embedding.TRAIN_DTYPE).  init_table and load_checkpoint pick the embedding
table's dtype; init_model builds the rest of a model in that dtype, and every
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
from .data import Batch, fields_from_header, fields_to_header, load_npz, save_npz
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
    """Elementwise logistic function, in float64 whatever x's dtype.

    With e = exp(-|x|), which never overflows, it is 1 / (1 + e) for x >= 0
    and e / (1 + e) below.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True, eq=False)
class Model:
    """One model's parameters: its embedding table, and the weights of its head."""

    kind: str
    embed: EmbeddingTable
    mlp: list[tuple[np.ndarray, np.ndarray]]            # hidden layers then output unit
    lr_bias: np.ndarray | None = None                   # shape (), wd/deepfm
    first_order: EmbeddingTable | None = None           # dim 1, wd/deepfm
    cross: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    cross_out: np.ndarray | None = None                 # (D,)

    def __post_init__(self):
        # The first-order weights are read at the embedding lookup's rows.
        if self.first_order is not None and not np.array_equal(
            self.first_order.offsets, self.embed.offsets
        ):
            raise ValueError("first-order table's field offsets differ from the embedding table's")

    @property
    def tables(self) -> dict[str, EmbeddingTable]:
        """The id-indexed tables by name: "embed", and "lr" for wd/deepfm."""
        if self.first_order is None:
            return {"embed": self.embed}
        return {"embed": self.embed, "lr": self.first_order}

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """The dense parameters by name, in the order of named_parameters."""
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

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """Every parameter by name: the dense arrays, then each table's whole block."""
        return self.named_arrays() + [(name, t.block) for name, t in self.tables.items()]


def init_model(
    kind: str,
    embed: EmbeddingTable,
    n_dense: int,
    hidden: tuple[int, ...] = (400, 400, 400),
    cross_depth: int = 3,
    seed: int = 0,
) -> Model:
    """A model over embed: Kaiming (fan-in) normal weight matrices, zero
    biases and first-order table, all in embed's dtype.

    The draws are float64 and are rounded to that dtype.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    rng = np.random.default_rng(seed)
    dtype = embed.block.dtype
    d_cross = embed.n_fields * embed.dim
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

    if kind in FIRST_ORDER_KINDS:
        first_order = EmbeddingTable(embed.fields, 1, zeros((embed.offsets[-1], 1)))
        return Model(kind, embed, mlp, lr_bias=zeros(()), first_order=first_order)
    cross = []
    for _ in range(cross_depth):  # dcn, dcnv2
        w_shape = (d_cross,) if kind == "dcn" else (d_cross, d_cross)
        cross.append((kaiming(w_shape, d_cross), zeros(d_cross)))
    return Model(kind, embed, mlp, cross=cross, cross_out=kaiming((d_cross,), d_cross))


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------

def mlp_forward(
    layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Affine+ReLU stack with a linear scalar output unit.  Returns (logits, hs).

    hs is [x, h1, ...], each layer's input: backward needs nothing else,
    since a ReLU output is > 0 exactly where its pre-activation is.  x is
    never written.
    """
    if x.shape[1] != layers[0][0].shape[0]:
        raise ValueError("input width does not match the first layer")
    hs = [x]
    h = x
    for w, b in layers[:-1]:
        h = h @ w  # a new array, so that the two in-place steps below leave x alone
        h += b
        np.maximum(h, 0.0, out=h)
        hs.append(h)
    w_out, b_out = layers[-1]
    logits = (h @ w_out + b_out)[:, 0]
    return logits, hs


def mlp_backward(
    layers: list[tuple[np.ndarray, np.ndarray]], hs: list[np.ndarray], dlogit: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradient sums over the batch for every layer, plus d(input).  hs is
    mlp_forward's list of layer inputs."""
    grads: dict[str, np.ndarray] = {}
    w_out, _ = layers[-1]
    last = len(layers) - 1
    grads[f"mlp.{last}.W"] = hs[-1].T @ dlogit[:, None]
    grads[f"mlp.{last}.b"] = np.array([dlogit.sum()])
    dh = dlogit[:, None] @ w_out.T
    for i in range(len(layers) - 2, -1, -1):
        # d(pre-activation), in place: hs[i + 1] > 0 where z > 0 (a NaN fails both)
        np.multiply(dh, hs[i + 1] > 0, out=dh)
        grads[f"mlp.{i}.W"] = hs[i].T @ dh
        grads[f"mlp.{i}.b"] = dh.sum(axis=0)
        dh = dh @ layers[i][0].T
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
    model: Model
    record: LookupRecord
    embedded: np.ndarray          # (b, fields*dim)
    mlp_inputs: list[np.ndarray]  # each MLP layer's input, from mlp_forward
    logit: np.ndarray
    fm_sum: np.ndarray | None = None
    cross_xs: list[np.ndarray] = field(default_factory=list)
    cross_aux: list[np.ndarray] = field(default_factory=list)


def model_forward(model: Model, batch: Batch) -> tuple[np.ndarray, ForwardCache]:
    """Click probability per sample: sigmoid(deep stream + wide/cross stream),
    for the head model.kind names, and the cache loss_and_backward reads."""
    kind, table = model.kind, model.embed
    embedded, record = lookup_forward(table, batch)
    # A dataset's dense features are TRAIN_DTYPE already; the cast is for a
    # table of another dtype, such as the finite-difference checks' float64.
    x_mlp = np.concatenate([embedded, batch.dense], axis=1, dtype=embedded.dtype)
    logit, mlp_inputs = mlp_forward(model.mlp, x_mlp)
    cache = ForwardCache(model, record, embedded, mlp_inputs, logit)

    if kind in FIRST_ORDER_KINDS:
        logit = logit + lr_head(model.lr_bias, model.first_order, record.rows)
    if kind == "deepfm":
        v = embedded.reshape(len(embedded), table.n_fields, table.dim)
        term, s = fm_pairwise(v)
        logit = logit + term
        cache.fm_sum = s
    if kind in ("dcn", "dcnv2"):
        layer = dcn_cross_layer if kind == "dcn" else dcnv2_cross_layer
        x = embedded
        cache.cross_xs = [x]
        for w, b in model.cross:
            x, aux = layer(embedded, x, w, b)
            cache.cross_xs.append(x)
            cache.cross_aux.append(aux)
        logit = logit + x @ model.cross_out

    cache.logit = logit
    return sigmoid(logit), cache


def loss_and_backward(
    probabilities: np.ndarray,
    labels: np.ndarray,
    cache: ForwardCache,
) -> tuple[float, dict[str, np.ndarray], dict[str, SparseGradient]]:
    """Mean logloss, the gradient of every dense tensor, and the sparse
    gradient of every table, under the names of Model.tables.

    These are data gradients only: L2 is the optimizer's business.
    """
    model, record = cache.model, cache.record
    kind, table = model.kind, model.embed
    b = len(labels)
    y = np.asarray(labels, dtype=np.float64)
    loss = metrics.logloss(probabilities, y)
    # d(per-sample loss)/d(logit), back in the model's dtype
    dlogit = (probabilities - y).astype(cache.logit.dtype, copy=False)

    grads, dmlp_in = mlp_backward(model.mlp, cache.mlp_inputs, dlogit)
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
        dx = dlogit[:, None] * model.cross_out[None, :]
        dx0_total = np.zeros_like(cache.embedded)
        for l in range(len(model.cross) - 1, -1, -1):
            w, _ = model.cross[l]
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
    sparse = {"embed": accumulate_gradients(record, d_embedded)}
    if kind in FIRST_ORDER_KINDS:
        sparse["lr"] = lr_head_backward(record, dlogit)
    return loss, grads, sparse


# ---------------------------------------------------------------------------
# Checkpoints: the parameter inventory, stored
# ---------------------------------------------------------------------------

def save_checkpoint(path, model: Model) -> None:
    """The arrays of model.named_parameters(), and a header of the shapes that name them."""
    embed = model.embed
    header = {
        "kind": model.kind,
        "fields": fields_to_header(embed.fields),
        "dim": embed.dim,
        "n_dense": model.mlp[0][0].shape[0] - embed.n_fields * embed.dim,
        "hidden": [w.shape[1] for w, _ in model.mlp[:-1]],
        "cross_depth": len(model.cross),
    }
    save_npz(path, header, dict(model.named_parameters()))


def load_checkpoint(path) -> Model:
    """The saved model, in the training dtype whatever dtype the file holds.

    The header builds a skeleton model, and one loop fills each of its named
    parameters: a missing header key, or a missing, wrong-shaped or unknown
    array, is rejected by name.
    """
    header, stored = load_npz(path)
    for key in ("kind", "fields", "dim", "n_dense", "hidden", "cross_depth"):
        if key not in header:
            raise ValueError(f"checkpoint header has no key {key!r}")
    fields = fields_from_header(header["fields"], "checkpoint fields")
    dim = header["dim"]
    embed = EmbeddingTable(fields, dim, np.empty((field_offsets(fields)[-1], dim), TRAIN_DTYPE))
    model = init_model(header["kind"], embed, header["n_dense"],
                       tuple(header["hidden"]), header["cross_depth"])
    arrays = dict(model.named_parameters())
    for name in {**arrays, **stored}:  # the model's names, then any others the file has
        if name not in arrays:
            raise ValueError(f"checkpoint array {name!r} is not a parameter of the model")
        if name not in stored:
            raise ValueError(f"checkpoint has no array {name!r}")
        if stored[name].shape != arrays[name].shape:
            raise ValueError(f"checkpoint array {name!r} has shape {stored[name].shape}, "
                             f"expected {arrays[name].shape}")
        arrays[name][...] = stored[name]
    return model
