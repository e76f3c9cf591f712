"""Model heads: hand-computed cases, pairwise-loop oracles, finite differences."""

import math

import numpy as np
import pytest

from ctrlab.data import Batch, FieldSchema
from ctrlab.embedding import TRAIN_DTYPE, EmbeddingTable, init_table, lookup_forward
from ctrlab.harness import grad_check
from ctrlab.metrics import logloss
from ctrlab.models import (
    MODEL_KINDS,
    dcn_cross_layer,
    dcn_cross_layer_backward,
    dcnv2_cross_layer,
    dcnv2_cross_layer_backward,
    Model,
    fm_pairwise,
    init_model,
    loss_and_backward,
    lr_head,
    lr_head_backward,
    mlp_backward,
    mlp_forward,
    model_forward,
    sigmoid,
)
from ctrlab.optim import BETA1, EmbedAdamState, adam_sparse_step


def _fields(*vocabs):
    return tuple(FieldSchema(f"c{j}", v) for j, v in enumerate(vocabs))


def _first_order(weights):
    """A dim-1 table whose field j holds the vector weights[j]."""
    return EmbeddingTable(_fields(*map(len, weights)), 1, np.concatenate(weights)[:, None])


def _batch(rng, vocabs, b, n_dense=2):
    cat = np.stack([rng.integers(0, v, size=b) for v in vocabs], axis=1)
    return Batch(rng.integers(0, 2, size=b).astype(np.uint8),
                 rng.normal(size=(b, n_dense)), cat)


def reference_sigmoid(x):
    """The two masked branches sigmoid replaced: 1 / (1 + exp(-x)) where
    x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 800.0, -800.0, 36.0, -36.0]

    def test_edges(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # underflow is fine
            out = sigmoid(np.array(self.EDGES))
        want = reference_sigmoid(self.EDGES)
        number = ~np.isnan(want)  # a NaN's sign bit may differ, and nothing reads it
        assert out[number].tobytes() == want[number].tobytes() and np.isnan(out[~number]).all()
        assert out[:4].tolist() == [0.5, 0.5, 1.0, 0.0] and np.isnan(out[4])
        assert out[5] == out[7] == 1.0 and out[8] == 0.0
        assert 0.0 < out[6] < 1e-300  # exp(-745) is the smallest subnormal

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_two_branches_bit_for_bit(self, dtype):
        x = np.random.default_rng(0).normal(0.0, 20.0, size=100_000).astype(dtype)
        out = sigmoid(x)
        assert out.dtype == np.float64
        assert out.tobytes() == reference_sigmoid(x).tobytes()


class TestMlp:
    def test_zero_weights_zero_logits(self):
        layers = [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 1)), np.zeros(1))]
        logits, _ = mlp_forward(layers, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(logits == 0.0)

    def test_hand_computed_single_unit(self):
        # one input, one hidden unit with weight 1: logit = relu(x) * w_out
        layers = [(np.array([[1.0]]), np.zeros(1)), (np.array([[2.5]]), np.zeros(1))]
        x = np.array([[3.0], [-2.0]])
        logits, _ = mlp_forward(layers, x)
        assert logits[0] == 7.5
        assert logits[1] == 0.0

    def test_shape_mismatch(self):
        layers = [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 1)), np.zeros(1))]
        with pytest.raises(ValueError):
            mlp_forward(layers, np.zeros((2, 5)))


def reference_mlp_forward(layers, x):
    """The MLP forward with a new array per step and the pre-activations kept,
    kept as the bit-exact oracle for the in-place one."""
    hs, zs, h = [x], [], x
    for w, b in layers[:-1]:
        z = h @ w + b
        h = np.maximum(z, 0.0)
        zs.append(z)
        hs.append(h)
    w_out, b_out = layers[-1]
    return (h @ w_out + b_out)[:, 0], hs, zs


def reference_mlp_backward(layers, hs, zs, dlogit):
    """The MLP backward that masks by the pre-activations, into new arrays."""
    last = len(layers) - 1
    grads = {f"mlp.{last}.W": hs[-1].T @ dlogit[:, None], f"mlp.{last}.b": np.array([dlogit.sum()])}
    dh = dlogit[:, None] @ layers[-1][0].T
    for i in range(last - 1, -1, -1):
        dz = dh * (zs[i] > 0)
        grads[f"mlp.{i}.W"] = hs[i].T @ dz
        grads[f"mlp.{i}.b"] = dz.sum(axis=0)
        dh = dz @ layers[i][0].T
    return grads, dh


def _oracle_layers(rng, widths):
    """float32 layers whose first hidden layer has no bias, and no weights into
    its unit 0: that unit, and every unit on an all-zero input row, has an
    exact-zero pre-activation."""
    layers = []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        w = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)).astype(TRAIN_DTYPE)
        b = rng.normal(0.0, 0.5, size=n_out).astype(TRAIN_DTYPE)
        layers.append((w, b))
    layers[0][0][:, 0] = 0.0
    layers[0][1][...] = 0.0
    return layers


class TestMlpInPlace:
    """The in-place forward and the activation-masked backward against the
    allocating formulas: bit for bit, in float32."""

    @pytest.mark.parametrize("b", [1, 7, 64, 513])
    def test_bit_exact_against_the_reference(self, b):
        rng = np.random.default_rng(b)
        layers = _oracle_layers(rng, (9, 16, 12, 8, 1))
        x = rng.normal(size=(b, 9)).astype(TRAIN_DTYPE)
        x[0] = 0.0
        x_before = x.copy()
        ref_logits, ref_hs, zs = reference_mlp_forward(layers, x)
        # the inputs reach the kink exactly and both sides of it
        assert np.any(zs[0] == 0.0) and np.any(np.concatenate([z.ravel() for z in zs]) < 0)

        logits, cache = mlp_forward(layers, x)
        assert logits.dtype == TRAIN_DTYPE
        assert np.array_equal(logits, ref_logits)
        assert len(cache["hs"]) == len(ref_hs)
        for h, ref_h in zip(cache["hs"], ref_hs):
            assert np.array_equal(h, ref_h)
        assert np.array_equal(x, x_before)

        dlogit = rng.normal(size=b).astype(TRAIN_DTYPE)
        grads, dx = mlp_backward(layers, cache, dlogit)
        ref_grads, ref_dx = reference_mlp_backward(layers, ref_hs, zs, dlogit)
        assert dx.dtype == TRAIN_DTYPE
        assert np.array_equal(dx, ref_dx)
        assert set(grads) == set(ref_grads)
        for name, g in grads.items():
            assert g.dtype == ref_grads[name].dtype
            assert np.array_equal(g, ref_grads[name]), name

        uncached, none = mlp_forward(layers, x, keep=False)
        assert none is None
        assert np.array_equal(uncached, ref_logits)
        assert np.array_equal(x, x_before)

    def test_nan_input_masks_like_the_reference(self):
        # A NaN pre-activation fails z > 0, and its ReLU output fails h > 0.
        rng = np.random.default_rng(3)
        layers = _oracle_layers(rng, (5, 6, 4, 1))
        x = rng.normal(size=(8, 5)).astype(TRAIN_DTYPE)
        x[2, 1] = np.nan
        ref_logits, ref_hs, zs = reference_mlp_forward(layers, x)
        logits, cache = mlp_forward(layers, x)
        assert np.array_equal(logits, ref_logits, equal_nan=True)
        dlogit = rng.normal(size=8).astype(TRAIN_DTYPE)
        grads, dx = mlp_backward(layers, cache, dlogit)
        ref_grads, ref_dx = reference_mlp_backward(layers, ref_hs, zs, dlogit)
        assert np.array_equal(dx, ref_dx, equal_nan=True)
        for name, g in grads.items():
            assert np.array_equal(g, ref_grads[name], equal_nan=True), name


class TestLrHead:
    def test_zero_weights_gives_bias(self):
        rows = np.array([[0], [1]], dtype=np.int64)
        out = lr_head(np.asarray(0.7), _first_order([np.zeros(3)]), rows)
        assert np.all(out == 0.7)

    def test_selected_id(self):
        w = np.array([0.0, 0.0, 0.0, 1.5])
        out = lr_head(np.asarray(0.2), _first_order([w]), np.array([[3]], dtype=np.int64))
        assert out[0] == pytest.approx(1.7)

    def test_matches_dense_dot_product(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=6)
        ids = rng.integers(0, 6, size=(20, 1))
        out = lr_head(np.asarray(0.0), _first_order([w]), ids)
        onehot = np.zeros((20, 6))
        onehot[np.arange(20), ids[:, 0]] = 1.0
        assert np.allclose(out, onehot @ w, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_backward_matches_add_at_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        vocabs = [1, 7, 300]  # the last one leaves most ids absent
        b = 64
        table = init_table(_fields(*vocabs), dim=2, init_sigma=1.0, seed=seed)
        _, record = lookup_forward(table, _batch(rng, vocabs, b))
        dlogit = rng.normal(scale=10.0 ** rng.uniform(-6, 2, size=b))
        sparse = lr_head_backward(record, dlogit)
        expected = np.zeros(sum(vocabs))
        for j in range(len(vocabs)):
            np.add.at(expected, record.rows[:, j], dlogit)
        expected /= b
        rows = sparse.row_block
        assert np.array_equal(rows, np.unique(record.rows))
        assert sparse.grad_block.shape == (len(rows), 1)
        assert np.array_equal(sparse.grad_block[:, 0], expected[rows])


class TestFm:
    def test_zero_vectors(self):
        term, _ = fm_pairwise(np.zeros((4, 3, 2)))
        assert np.all(term == 0.0)

    def test_orthogonal_and_parallel_pairs(self):
        v = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        term, _ = fm_pairwise(v)
        assert term[0] == 0.0
        v = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        term, _ = fm_pairwise(v)
        assert term[0] == 1.0

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(8, 5, 4))
        term, _ = fm_pairwise(v)
        for i in range(8):
            loop = sum(
                float(v[i, a] @ v[i, b])
                for a in range(5)
                for b in range(a + 1, 5)
            )
            assert abs(term[i] - loop) < 1e-12


class TestCrossLayers:
    def test_dcn_residual_identity(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(3, 5))
        xl = rng.normal(size=(3, 5))
        out, _ = dcn_cross_layer(x0, xl, np.zeros(5), np.zeros(5))
        assert np.array_equal(out, xl)

    def test_dcn_basis_case(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        out, _ = dcn_cross_layer(e1[None, :], e1[None, :], e1, np.zeros(4))
        assert np.array_equal(out[0], 2 * e1)

    def test_dcnv2_residual_identity(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(3, 4))
        xl = rng.normal(size=(3, 4))
        out, _ = dcnv2_cross_layer(x0, xl, np.zeros((4, 4)), np.zeros(4))
        assert np.array_equal(out, xl)

    def test_dcnv2_identity_matrix_doubles(self):
        xl = np.random.default_rng(6).normal(size=(3, 4))
        ones = np.ones((3, 4))
        out, _ = dcnv2_cross_layer(ones, xl, np.eye(4), np.zeros(4))
        assert np.allclose(out, 2 * xl, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", ["dcn", "dcnv2"])
    def test_layer_finite_difference(self, kind):
        rng = np.random.default_rng(7)
        d, b = 4, 3
        x0 = rng.normal(size=(b, d))
        xl = rng.normal(size=(b, d))
        w = rng.normal(size=(d,)) if kind == "dcn" else rng.normal(size=(d, d))
        bias = rng.normal(size=d)
        fwd = dcn_cross_layer if kind == "dcn" else dcnv2_cross_layer
        bwd = dcn_cross_layer_backward if kind == "dcn" else dcnv2_cross_layer_backward
        probe = rng.normal(size=(b, d))  # scalar objective: sum(probe * layer_out)

        def objective():
            out, _ = fwd(x0, xl, w, bias)
            return float((probe * out).sum())

        out, aux = fwd(x0, xl, w, bias)
        dx0, dxl, dw, db = bwd(x0, xl, w, aux, probe)
        for arr, grad in ((x0, dx0), (xl, dxl), (w, dw), (bias, db)):
            flat, gflat = arr.reshape(-1), np.asarray(grad).reshape(-1)
            for i in range(flat.size):
                h = 1e-6 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = objective()
                flat[i] = orig - h
                down = objective()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-3) < 1e-5


class TestModelForward:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_all_zero_params_give_half(self, kind):
        vocabs = [4, 5]
        table = init_table(_fields(*vocabs), dim=3, init_sigma=1.0, seed=0)
        table.block[...] = 0.0
        model = init_model(kind, table, 2, hidden=(6,), cross_depth=2, seed=0)
        for _, a in model.named_arrays():
            a[...] = 0.0
        batch = _batch(np.random.default_rng(0), vocabs, 5)
        probs, _ = model_forward(model, batch)
        assert np.all(probs == 0.5)

    def test_wd_with_zero_deep_reduces_to_lr(self):
        vocabs = [4, 5]
        rng = np.random.default_rng(1)
        table = init_table(_fields(*vocabs), dim=3, init_sigma=0.5, seed=1)
        model = init_model("wd", table, 2, hidden=(6,), seed=1)
        for name, a in model.named_arrays():
            a[...] = 0.4 if name == "lr.bias" else 0.0
        w0, w1 = model.first_order.block[:4], model.first_order.block[4:]
        w0[:, 0] = rng.normal(size=4)
        w1[:, 0] = rng.normal(size=5)
        batch = _batch(rng, vocabs, 7)
        probs, _ = model_forward(model, batch)
        ids = batch.categorical
        # the logit in the weights' dtype, added in the model's order
        logit = model.lr_bias + (w0[ids[:, 0], 0] + w1[ids[:, 1], 0])
        expected = 1 / (1 + np.exp(-logit.astype(np.float64)))
        assert np.allclose(probs, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_deterministic(self, kind):
        vocabs = [6, 3]
        table = init_table(_fields(*vocabs), dim=2, init_sigma=0.3, seed=2)
        model = init_model(kind, table, 1, hidden=(5,), cross_depth=2, seed=2)
        batch = _batch(np.random.default_rng(2), vocabs, 9, n_dense=1)
        a, _ = model_forward(model, batch)
        b, _ = model_forward(model, batch)
        assert np.array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            init_model("mystery", init_table(_fields(3), dim=2), 1)


    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_training_cache_holds_no_pre_activations(self, kind):
        # The MLP cache keeps each hidden layer's input (its ReLU output, so
        # never negative) and nothing else.
        vocabs = [6, 3]
        table = init_table(_fields(*vocabs), dim=2, init_sigma=0.3, seed=4)
        model = init_model(kind, table, 1, hidden=(5, 7), cross_depth=2, seed=4)
        batch = _batch(np.random.default_rng(4), vocabs, 9, n_dense=1)
        _, cache = model_forward(model, batch)
        assert list(cache.mlp_cache) == ["hs"]
        hs = cache.mlp_cache["hs"]
        assert [h.shape for h in hs] == [(9, 5), (9, 5), (9, 7)]
        assert all(np.all(h >= 0) for h in hs[1:])

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_evaluation_keeps_no_cache(self, kind):
        vocabs = [6, 3]
        table = init_table(_fields(*vocabs), dim=2, init_sigma=0.3, seed=6)
        model = init_model(kind, table, 1, hidden=(5,), cross_depth=2, seed=6)
        batch = _batch(np.random.default_rng(6), vocabs, 9, n_dense=1)
        kept, cache = model_forward(model, batch)
        probs, none = model_forward(model, batch, keep=False)
        assert none is None and cache is not None
        assert np.array_equal(probs, kept)
        with pytest.raises(TypeError):
            model_forward(model, batch, False)  # keep is keyword-only


class TestModel:
    @pytest.mark.parametrize("kind", ["wd", "deepfm"])
    def test_first_order_offsets_must_match_the_embeddings(self, kind):
        # Same total rows, but field 0 ends at another row: the lookup's rows
        # would read the wrong first-order weights, so no such model is built.
        table = init_table(_fields(4, 5), dim=2, init_sigma=0.3, seed=3)
        model = init_model(kind, table, 1, hidden=(5,), seed=3)
        other = _first_order([np.zeros(5), np.zeros(4)])
        with pytest.raises(ValueError, match="offsets"):
            Model(kind, table, model.mlp, lr_bias=model.lr_bias, first_order=other)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_one_list_of_table_names(self, kind):
        # The sparse gradients and the parameter inventory name the tables
        # that Model.tables names, in its order.
        table = init_table(_fields(4, 5), dim=2, init_sigma=0.3, seed=5)
        model = init_model(kind, table, 2, hidden=(5,), cross_depth=1, seed=5)
        names = list(model.tables)
        assert names == (["embed", "lr"] if kind in ("wd", "deepfm") else ["embed"])
        batch = _batch(np.random.default_rng(5), [4, 5], 6)
        probs, cache = model_forward(model, batch)
        _, grads, sparse = loss_and_backward(probs, batch.labels, cache)
        assert list(sparse) == names
        inventory = [name for name, _ in model.named_parameters()]
        assert set(inventory) == set(grads) | set(sparse)
        assert [name for name in inventory if name not in grads] == names


class TestLoss:
    def test_half_prob_is_ln2(self):
        vocabs = [3]
        table = init_table(_fields(*vocabs), dim=2, init_sigma=1e-6, seed=0)
        model = init_model("wd", table, 0, hidden=(4,), seed=0)
        batch = Batch(np.array([1], dtype=np.uint8), np.zeros((1, 0)),
                      np.array([[0]], dtype=np.int64))
        probs, cache = model_forward(model, batch)
        loss, _, _ = loss_and_backward(probs, batch.labels, cache)
        assert loss == pytest.approx(math.log(2.0), abs=1e-5)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_total_gradient_with_l2_finite_difference(self, kind):
        # The trainer's total gradient: data gradients from loss_and_backward,
        # plus the L2 term that the lazy sparse step adds to the touched rows
        # of every id-indexed table, recovered from one lazy Adam step on
        # fresh moments: m starts at zero, so after one step
        # m = (1 - beta1) * (g + l2 * w) and untouched rows keep m = 0.
        # objective = logloss + (l2/2)(touched rows of every table)
        rng = np.random.default_rng(11)
        vocabs = [4, 3]
        dim, n_dense, l2 = 2, 2, 0.05
        # float64: central differences at h = 1e-6 need more than float32's digits
        table = init_table(_fields(*vocabs), dim=dim, init_sigma=0.5, seed=4, dtype=np.float64)
        model = init_model(kind, table, n_dense, hidden=(5,), cross_depth=2, seed=4)
        batch = _batch(rng, vocabs, 6)
        tables = model.tables
        if kind in ("wd", "deepfm"):  # off zero, so that the L2 term shows
            tables["lr"].block[...] = rng.normal(0.0, 0.5, size=tables["lr"].block.shape)
        touched = np.unique(batch.categorical + table.offsets[:-1])

        def objective():
            probs, _ = model_forward(model, batch)
            penalty = sum(float((t.block[touched] ** 2).sum()) for t in tables.values())
            return logloss(probs, batch.labels) + 0.5 * l2 * penalty

        probs, cache = model_forward(model, batch)
        _, grads, sparse = loss_and_backward(probs, batch.labels, cache)
        tensors = dict(model.named_parameters())
        analytic = dict(grads)
        for name, sg in sparse.items():
            t = tables[name]
            state = EmbedAdamState.init(t)
            twin = EmbeddingTable(t.fields, t.dim, t.block.copy())
            adam_sparse_step(state, twin, sg, lr=1e-3, l2=l2, dense_l2=False)
            analytic[name] = state.m_block / (1.0 - BETA1)
        for name, tensor in tensors.items():
            flat = tensor.reshape(-1)
            gflat = np.asarray(analytic[name]).reshape(-1)
            for i in range(flat.size):
                h = 1e-6 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = objective()
                flat[i] = orig - h
                down = objective()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-3)
                assert err < 1e-5, f"{name}[{i}]: fd {fd} vs analytic {gflat[i]}"


@pytest.mark.parametrize("kind", ["wd", "deepfm"])
def test_lazy_step_leaves_absent_first_order_rows_alone(kind):
    # The first-order weights take the embeddings' sparse path: in lazy mode
    # a row absent from the batch keeps its weight, moments and step count.
    rng = np.random.default_rng(21)
    vocabs = [30, 40]
    table = init_table(_fields(*vocabs), dim=2, init_sigma=0.3, seed=21)
    model = init_model(kind, table, 2, hidden=(5,), seed=21)
    first_order = model.first_order
    first_order.block[...] = rng.normal(size=first_order.block.shape)
    state = EmbedAdamState.init(first_order)
    state.m_block[...] = rng.normal(size=state.m_block.shape)
    state.v_block[...] = rng.uniform(0.1, 1.0, size=state.v_block.shape)
    state.col_t_block[...] = rng.integers(1, 50, size=len(state.col_t_block))
    before = [a.copy() for a in (first_order.block, state.m_block, state.v_block,
                                 state.col_t_block)]
    batch = _batch(rng, vocabs, 8)
    probs, cache = model_forward(model, batch)
    sparse = loss_and_backward(probs, batch.labels, cache)[2]["lr"]
    adam_sparse_step(state, first_order, sparse, lr=1e-2, l2=1e-3, dense_l2=False)

    touched = np.unique(batch.categorical + table.offsets[:-1])
    assert np.array_equal(sparse.row_block, touched)
    absent = np.setdiff1d(np.arange(sum(vocabs)), touched)
    after = (first_order.block, state.m_block, state.v_block, state.col_t_block)
    for old, new in zip(before, after):
        assert np.array_equal(new[absent], old[absent])
    assert np.array_equal(state.col_t_block[touched], before[3][touched] + 1)
    assert np.all(first_order.block[touched] != before[0][touched])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_grad_check_short(kind):
    report = grad_check(kind, seed=99, n_trials=5)
    assert report.passed, report.per_tensor


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_checkpoint_roundtrip(kind, tmp_path):
    from ctrlab.data import load_npz, save_npz
    from ctrlab.models import load_checkpoint, save_checkpoint

    rng = np.random.default_rng(13)
    vocabs = [5, 8]
    table = init_table(_fields(*vocabs), dim=3, init_sigma=0.2, seed=13)
    model = init_model(kind, table, 2, hidden=(7, 4), cross_depth=2, seed=13)
    if kind in ("wd", "deepfm"):
        model.first_order.block[...] = rng.normal(size=model.first_order.block.shape)
    save_checkpoint(tmp_path / "ckpt.npz", model)
    header, arrays = load_npz(tmp_path / "ckpt.npz")
    # the array names and shapes are part of the file format: each parameter
    # whole, the tables as (sum of vocab sizes, dim) blocks
    shapes = {n: a.shape for n, a in model.named_arrays()}
    shapes["embed"] = (13, 3)
    if kind in ("wd", "deepfm"):
        shapes["lr"] = (13, 1)
    assert {name: a.shape for name, a in arrays.items()} == shapes
    assert header == {
        "kind": kind,
        "fields": [{"name": "c0", "vocab_size": 5}, {"name": "c1", "vocab_size": 8}],
        "dim": 3, "n_dense": 2, "hidden": [7, 4],
        "cross_depth": 2 if kind in ("dcn", "dcnv2") else 0,
    }
    # the same file in float64 loads to the same model, in the training dtype
    save_npz(tmp_path / "f64.npz", header,
             {name: a.astype(np.float64) for name, a in arrays.items()})
    batch = _batch(rng, vocabs, 6)
    p1, _ = model_forward(model, batch)
    for path in ("ckpt.npz", "f64.npz"):
        model2 = load_checkpoint(tmp_path / path)
        assert model2.kind == kind
        assert model2.embed.fields == table.fields and model2.embed.dim == 3
        restored = model2.named_parameters()
        assert [n for n, _ in restored] == [n for n, _ in model.named_parameters()]
        for (_, a), (_, b) in zip(model.named_parameters(), restored):
            assert np.array_equal(a, b) and b.dtype == TRAIN_DTYPE
        # the restored model computes bit-identical probabilities
        p2, _ = model_forward(model2, batch)
        assert np.array_equal(p1, p2)


def test_checkpoint_stores_each_table_whole(tmp_path):
    # An id-indexed table is one array, its block, whatever its fields: a
    # field of vocabulary 1 included, and the field offsets come back from
    # the header's fields.  The header holds shapes, not how they were drawn.
    from ctrlab.data import load_npz
    from ctrlab.models import load_checkpoint, save_checkpoint

    table = init_table(_fields(5, 1, 8), dim=3, init_sigma=0.2, seed=14)
    model = init_model("wd", table, 2, hidden=(4,), seed=14)
    model.first_order.block[...] = np.arange(14.0)[:, None]
    save_checkpoint(tmp_path / "ckpt.npz", model)
    header, arrays = load_npz(tmp_path / "ckpt.npz")
    assert "init_sigma" not in header and "seed" not in header
    assert np.array_equal(arrays["embed"], table.block)
    assert np.array_equal(arrays["lr"], model.first_order.block)
    model2 = load_checkpoint(tmp_path / "ckpt.npz")
    for name, stored in model.tables.items():
        restored = model2.tables[name]
        assert np.array_equal(restored.block, stored.block)
        assert list(restored.offsets) == [0, 5, 6, 14]


@pytest.mark.parametrize("name,replacement,message", [
    ("cross.out", None, "checkpoint has no array 'cross.out'"),
    ("mlp.0.W", np.zeros((4, 4)), r"'mlp.0.W' has shape \(4, 4\), expected \(5, 4\)"),
    ("embed", np.zeros((6, 2)), r"'embed' has shape \(6, 2\), expected \(7, 2\)"),
    ("cross.9.w", np.zeros(4), "'cross.9.w' is not a parameter of the model"),
], ids=["missing", "dense-shape", "table-shape", "unknown"])
def test_checkpoint_rejects_a_bad_array_by_name(name, replacement, message, tmp_path):
    from ctrlab.data import load_npz, save_npz
    from ctrlab.models import load_checkpoint, save_checkpoint

    table = init_table(_fields(3, 4), dim=2, init_sigma=0.2, seed=16)
    model = init_model("dcn", table, 1, hidden=(4,), cross_depth=1, seed=16)
    save_checkpoint(tmp_path / "ok.npz", model)
    header, arrays = load_npz(tmp_path / "ok.npz")
    if replacement is None:
        del arrays[name]
    else:
        arrays[name] = replacement
    save_npz(tmp_path / "bad.npz", header, arrays)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(tmp_path / "bad.npz")


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_checkpoint_names_are_the_grad_check_names(kind, tmp_path):
    # One inventory names a model's parameters for the file and for the
    # gradient check; the shapes here are grad_check's tiny model's.
    from ctrlab.data import load_npz
    from ctrlab.models import save_checkpoint

    table = init_table(_fields(5, 5, 5), dim=3, init_sigma=0.2, seed=17)
    model = init_model(kind, table, 2, hidden=(8, 6), cross_depth=2, seed=17)
    save_checkpoint(tmp_path / "ckpt.npz", model)
    _, arrays = load_npz(tmp_path / "ckpt.npz")
    assert list(arrays) == list(grad_check(kind, seed=3, n_trials=1).per_tensor)


def test_checkpoint_with_unknown_kind_is_rejected(tmp_path):
    # The model kind has one source, Model.kind, which load_checkpoint
    # takes from the file header; model_forward trusts it.
    from ctrlab.data import load_npz, save_npz
    from ctrlab.models import load_checkpoint, save_checkpoint

    table = init_table(_fields(3, 4), dim=2, init_sigma=0.2, seed=15)
    model = init_model("dcn", table, 1, hidden=(4,), cross_depth=1, seed=15)
    save_checkpoint(tmp_path / "ok.npz", model)
    header, arrays = load_npz(tmp_path / "ok.npz")
    save_npz(tmp_path / "bad.npz", dict(header, kind="dcnv3"), arrays)
    with pytest.raises(ValueError, match="unknown model kind 'dcnv3'"):
        load_checkpoint(tmp_path / "bad.npz")


@pytest.mark.parametrize("key", ["kind", "fields", "dim", "n_dense", "hidden", "cross_depth"])
def test_checkpoint_names_a_missing_header_key(key, tmp_path):
    from ctrlab.data import load_npz, save_npz
    from ctrlab.models import load_checkpoint, save_checkpoint

    table = init_table(_fields(3, 4), dim=2, init_sigma=0.2, seed=18)
    model = init_model("deepfm", table, 1, hidden=(4,), seed=18)
    save_checkpoint(tmp_path / "ok.npz", model)
    header, arrays = load_npz(tmp_path / "ok.npz")
    del header[key]
    save_npz(tmp_path / "bad.npz", header, arrays)
    with pytest.raises(ValueError, match=f"^checkpoint header has no key '{key}'$"):
        load_checkpoint(tmp_path / "bad.npz")


def test_checkpoint_names_a_field_without_vocab_size(tmp_path):
    from ctrlab.data import load_npz, save_npz
    from ctrlab.models import load_checkpoint, save_checkpoint

    table = init_table(_fields(3, 4), dim=2, init_sigma=0.2, seed=18)
    save_checkpoint(tmp_path / "ok.npz", init_model("deepfm", table, 1, hidden=(4,), seed=18))
    header, arrays = load_npz(tmp_path / "ok.npz")
    del header["fields"][1]["vocab_size"]
    save_npz(tmp_path / "bad.npz", header, arrays)
    message = "^checkpoint fields entry 1 must have a name and a vocab_size, got {'name': 'c1'}$"
    with pytest.raises(ValueError, match=message):
        load_checkpoint(tmp_path / "bad.npz")


def test_dataset_file_is_not_a_checkpoint(tmp_path):
    # save_dataset writes the same npz-with-header container; its header
    # names a schema, not a model.
    from ctrlab.data import generate_synthetic, save_dataset
    from ctrlab.models import load_checkpoint

    dataset = generate_synthetic(20, seed=0, n_categorical=2, vocab_sizes=5)
    save_dataset(tmp_path / "data.npz", dataset)
    with pytest.raises(ValueError, match="^checkpoint header has no key 'kind'$"):
        load_checkpoint(tmp_path / "data.npz")
