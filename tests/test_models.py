"""Model heads: hand-computed cases, pairwise-loop oracles, finite differences."""

import math

import numpy as np
import pytest

from ctrlab.data import CATEGORICAL, Batch, FieldSchema
from ctrlab.embedding import init_table
from ctrlab.harness import grad_check
from ctrlab.metrics import logloss
from ctrlab.models import (
    MODEL_KINDS,
    dcn_cross_layer,
    dcn_cross_layer_backward,
    dcnv2_cross_layer,
    dcnv2_cross_layer_backward,
    fm_pairwise,
    init_dense_params,
    loss_and_backward,
    lr_head,
    lr_head_backward,
    mlp_forward,
    model_forward,
)
from ctrlab.optim import AdamConfig, EmbedAdamState, adam_sparse_step


def _fields(*vocabs):
    return tuple(FieldSchema(f"c{j}", CATEGORICAL, v) for j, v in enumerate(vocabs))


def _batch(rng, vocabs, b, n_dense=2):
    cat = np.stack([rng.integers(0, v, size=b) for v in vocabs], axis=1)
    return Batch(rng.integers(0, 2, size=b).astype(np.uint8),
                 rng.normal(size=(b, n_dense)), cat)


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


class TestLrHead:
    def test_zero_weights_gives_bias(self):
        ids = np.array([[0], [1]], dtype=np.int64)
        out = lr_head(np.asarray(0.7), [np.zeros(3)], ids)
        assert np.all(out == 0.7)

    def test_selected_id(self):
        w = np.array([0.0, 0.0, 0.0, 1.5])
        out = lr_head(np.asarray(0.2), [w], np.array([[3]], dtype=np.int64))
        assert out[0] == pytest.approx(1.7)

    def test_matches_dense_dot_product(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=6)
        ids = rng.integers(0, 6, size=(20, 1))
        out = lr_head(np.asarray(0.0), [w], ids)
        onehot = np.zeros((20, 6))
        onehot[np.arange(20), ids[:, 0]] = 1.0
        assert np.allclose(out, onehot @ w, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_backward_matches_add_at_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        vocabs = [1, 7, 300]  # the last one leaves most ids absent
        weights = [np.zeros(v) for v in vocabs]
        ids = np.stack([rng.integers(0, v, size=64) for v in vocabs], axis=1)
        dlogit = rng.normal(scale=10.0 ** rng.uniform(-6, 2, size=64))
        grads = lr_head_backward(weights, ids, dlogit)
        for j, w in enumerate(weights):
            expected = np.zeros_like(w)
            np.add.at(expected, ids[:, j], dlogit)
            assert grads[f"lr.w{j}"].shape == w.shape
            assert np.array_equal(grads[f"lr.w{j}"], expected)


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
        for w in table.weights:
            w[...] = 0.0
        params = init_dense_params(kind, vocabs, 3, 2, hidden=(6,), cross_depth=2, seed=0)
        for _, a in params.named_arrays():
            a[...] = 0.0
        batch = _batch(np.random.default_rng(0), vocabs, 5)
        probs, _ = model_forward(kind, params, table, batch)
        assert np.all(probs == 0.5)

    def test_wd_with_zero_deep_reduces_to_lr(self):
        vocabs = [4, 5]
        rng = np.random.default_rng(1)
        table = init_table(_fields(*vocabs), dim=3, init_sigma=0.5, seed=1)
        params = init_dense_params("wd", vocabs, 3, 2, hidden=(6,), seed=1)
        arrays = dict(params.named_arrays())
        updates = {n: np.zeros_like(a) for n, a in arrays.items() if n.startswith("mlp.")}
        updates["lr.bias"] = np.asarray(0.4)
        updates["lr.w0"] = rng.normal(size=4)
        updates["lr.w1"] = rng.normal(size=5)
        for name, a in updates.items():
            arrays[name][...] = a
        batch = _batch(rng, vocabs, 7)
        probs, _ = model_forward("wd", params, table, batch)
        expected = lr_head(np.asarray(0.4), [updates["lr.w0"], updates["lr.w1"]],
                           batch.categorical)
        assert np.allclose(probs, 1 / (1 + np.exp(-expected)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_deterministic(self, kind):
        vocabs = [6, 3]
        table = init_table(_fields(*vocabs), dim=2, init_sigma=0.3, seed=2)
        params = init_dense_params(kind, vocabs, 2, 1, hidden=(5,), cross_depth=2, seed=2)
        batch = _batch(np.random.default_rng(2), vocabs, 9, n_dense=1)
        a, _ = model_forward(kind, params, table, batch)
        b, _ = model_forward(kind, params, table, batch)
        assert np.array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            init_dense_params("mystery", [3], 2, 1)


class TestLoss:
    def test_half_prob_is_ln2(self):
        vocabs = [3]
        table = init_table(_fields(*vocabs), dim=2, init_sigma=1e-6, seed=0)
        params = init_dense_params("wd", vocabs, 2, 0, hidden=(4,), seed=0)
        batch = Batch(np.array([1], dtype=np.uint8), np.zeros((1, 0)),
                      np.array([[0]], dtype=np.int64))
        probs, cache = model_forward("wd", params, table, batch)
        loss, _, _ = loss_and_backward(probs, batch.labels, cache)
        assert loss == pytest.approx(math.log(2.0), abs=1e-5)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_total_gradient_with_l2_finite_difference(self, kind):
        # The trainer's total gradient: data gradients from loss_and_backward,
        # plus the L2 term that the lazy embedding step adds to touched id
        # vectors, recovered from one lazy Adam step on fresh moments: m
        # starts at zero, so after one step m = (1 - beta1) * (g + l2 * w) and
        # untouched rows keep m = 0.
        # objective = logloss + (l2/2)(touched id vectors)
        rng = np.random.default_rng(11)
        vocabs = [4, 3]
        dim, n_dense, l2 = 2, 2, 0.05
        table = init_table(_fields(*vocabs), dim=dim, init_sigma=0.5, seed=4)
        params = init_dense_params(kind, vocabs, dim, n_dense, hidden=(5,),
                                   cross_depth=2, seed=4)
        batch = _batch(rng, vocabs, 6)
        touched = [np.unique(batch.categorical[:, j]) for j in range(len(vocabs))]

        def objective():
            probs, _ = model_forward(kind, params, table, batch)
            penalty = sum(float((table.weights[j][touched[j]] ** 2).sum())
                          for j in range(len(vocabs)))
            return logloss(probs, batch.labels) + 0.5 * l2 * penalty

        probs, cache = model_forward(kind, params, table, batch)
        _, grads, sparse = loss_and_backward(probs, batch.labels, cache)
        state = EmbedAdamState.init(table)
        adam_sparse_step(state, table.copy(), sparse, lr=1e-3, l2=l2, dense_l2=False)
        tensors = dict(params.named_arrays())
        analytic = dict(grads)
        for j in range(len(vocabs)):
            tensors[f"embed.{j}"] = table.weights[j]
            analytic[f"embed.{j}"] = state.m[j] / (1.0 - AdamConfig().beta1)
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


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_grad_check_short(kind):
    report = grad_check(kind, seed=99, n_trials=5)
    assert report.passed, report.per_tensor


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_checkpoint_roundtrip(kind, tmp_path):
    from ctrlab.models import load_checkpoint, save_checkpoint

    rng = np.random.default_rng(13)
    vocabs = [5, 8]
    table = init_table(_fields(*vocabs), dim=3, init_sigma=0.2, seed=13)
    params = init_dense_params(kind, vocabs, 3, 2, hidden=(7, 4), cross_depth=2, seed=13)
    save_checkpoint(tmp_path / "ckpt.npz", params, table)
    params2, table2 = load_checkpoint(tmp_path / "ckpt.npz")
    with np.load(tmp_path / "ckpt.npz") as z:  # the array names are part of the file format
        names = ["header", "table:0", "table:1"] + [f"dense:{n}" for n, _ in params.named_arrays()]
        assert sorted(z.files) == sorted(names)
    assert params2.kind == kind
    for (na, a), (nb, b) in zip(params.named_arrays(), params2.named_arrays()):
        assert na == nb and np.array_equal(a, b)
    assert table2.fields == table.fields
    assert (table2.dim, table2.init_sigma, table2.seed) == (3, 0.2, 13)
    for a, b in zip(table.weights, table2.weights):
        assert np.array_equal(a, b)
    # the restored pair computes identical probabilities
    batch = _batch(rng, vocabs, 6)
    p1, _ = model_forward(kind, params, table, batch)
    p2, _ = model_forward(kind, params2, table2, batch)
    assert np.array_equal(p1, p2)


def test_checkpoint_table_format_is_per_field(tmp_path):
    # A checkpoint stores each field as its own (vocab, dim) array "table:{j}",
    # as it did before the table became one block: files written either way
    # load to the same arrays.
    from ctrlab.data import load_npz, save_npz
    from ctrlab.models import load_checkpoint, save_checkpoint

    vocabs = [5, 1, 8]
    table = init_table(_fields(*vocabs), dim=3, init_sigma=0.2, seed=14)
    params = init_dense_params("wd", vocabs, 3, 2, hidden=(4,), seed=14)
    save_checkpoint(tmp_path / "block.npz", params, table)
    header, arrays = load_npz(tmp_path / "block.npz")
    for j, (v, w) in enumerate(zip(vocabs, table.weights)):
        assert arrays[f"table:{j}"].shape == (v, 3)
        assert np.array_equal(arrays[f"table:{j}"], w)

    # the same file with every field a separate, freshly made array
    separate = {name: np.array(a) for name, a in arrays.items()}
    save_npz(tmp_path / "fields.npz", header, separate)
    _, restored = load_checkpoint(tmp_path / "fields.npz")
    assert np.array_equal(restored.block, table.block)
    assert list(restored.offsets) == [0, 5, 6, 14]

    separate["table:1"] = np.zeros((2, 3))
    save_npz(tmp_path / "bad.npz", header, separate)
    with pytest.raises(ValueError, match="table:1"):
        load_checkpoint(tmp_path / "bad.npz")
