"""SGD and Adam steps with in-gradient L2, plus loss-scale equivalence probes.

L2 regularization enters through the gradient (g + l2*w), not as decoupled
weight decay: the Adam moments must see the decay term for the loss-scaling
equivalence below to hold.  All steps are pure: they return fresh arrays and
never touch their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable, SparseGradient

OPT_KINDS = ("adam", "sgd")


@dataclass(frozen=True)
class AdamConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class WarmupSchedule:
    """Linear ramp to target_lr over warmup_steps; step counts from 1."""

    target_lr: float
    warmup_steps: int = 0

    def lr(self, step: int) -> float:
        if self.warmup_steps <= 0:
            return self.target_lr
        return self.target_lr * min(1.0, step / self.warmup_steps)


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    l2: float = 0.0,
) -> dict[str, np.ndarray]:
    """w <- w - lr*(g + l2*w) for every tensor."""
    out = {}
    for name, w in params.items():
        g = grads[name]
        if l2:
            g = g + l2 * w
        out[name] = w - lr * g
    return out


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            {k: np.zeros_like(w) for k, w in params.items()},
            {k: np.zeros_like(w) for k, w in params.items()},
            0,
        )


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    l2: float = 0.0,
    cfg: AdamConfig = AdamConfig(),
) -> tuple[AdamState, dict[str, np.ndarray]]:
    """Bias-corrected Adam on a dict of tensors."""
    t = state.t + 1
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    new_m, new_v, out = {}, {}, {}
    for name, w in params.items():
        g = grads[name]
        if l2:
            g = g + l2 * w
        m = cfg.beta1 * state.m[name] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * g * g
        out[name] = w - lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        new_m[name], new_v[name] = m, v
    return AdamState(new_m, new_v, t), out


@dataclass
class EmbedAdamState:
    """Adam moments shaped like the table, with per-id step counts for lazy mode."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    col_t: list[np.ndarray] | None = None

    @classmethod
    def init(cls, table: EmbeddingTable) -> "EmbedAdamState":
        return cls(
            [np.zeros_like(w) for w in table.weights],
            [np.zeros_like(w) for w in table.weights],
            0,
            [np.zeros(len(w), dtype=np.int64) for w in table.weights],
        )


def adam_sparse_step(
    state: EmbedAdamState,
    table: EmbeddingTable,
    sparse_grad: SparseGradient,
    lr: float,
    l2: float = 0.0,
    dense_l2: bool = True,
    cfg: AdamConfig = AdamConfig(),
) -> tuple[EmbedAdamState, EmbeddingTable]:
    """Adam over an embedding table driven by a sparse gradient.

    dense_l2 on: every id vector steps every time; absent ids see the pure
    decay gradient l2*w, so regularization keeps acting between occurrences.
    dense_l2 off: absent ids and their moments stay untouched, and bias
    correction runs on per-id step counts.
    """
    new = EmbedAdamState(
        [m.copy() for m in state.m],
        [v.copy() for v in state.v],
        state.t,
        [c.copy() for c in state.col_t],
    )
    out = table.copy()
    if dense_l2:
        new.t += 1
        bc1 = 1.0 - cfg.beta1 ** new.t
        bc2 = 1.0 - cfg.beta2 ** new.t
        for j, w in enumerate(out.weights):
            g = l2 * w if l2 else np.zeros_like(w)
            if j < sparse_grad.n_fields and len(sparse_grad.ids[j]):
                g[sparse_grad.ids[j]] += sparse_grad.grads[j]
            new.m[j] = cfg.beta1 * new.m[j] + (1.0 - cfg.beta1) * g
            new.v[j] = cfg.beta2 * new.v[j] + (1.0 - cfg.beta2) * g * g
            w -= lr * (new.m[j] / bc1) / (np.sqrt(new.v[j] / bc2) + cfg.eps)
            new.col_t[j] += 1
    else:
        new.t += 1
        for j in range(sparse_grad.n_fields):
            ids = sparse_grad.ids[j]
            if not len(ids):
                continue
            w = out.weights[j]
            g = sparse_grad.grads[j] + (l2 * w[ids] if l2 else 0.0)
            new.col_t[j][ids] += 1
            tj = new.col_t[j][ids][:, None]
            m = cfg.beta1 * new.m[j][ids] + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * new.v[j][ids] + (1.0 - cfg.beta2) * g * g
            new.m[j][ids], new.v[j][ids] = m, v
            mhat = m / (1.0 - cfg.beta1 ** tj)
            vhat = v / (1.0 - cfg.beta2 ** tj)
            w[ids] -= lr * mhat / (np.sqrt(vhat) + cfg.eps)
    return new, out


def sgd_sparse_step(
    table: EmbeddingTable,
    sparse_grad: SparseGradient,
    lr: float,
    l2: float = 0.0,
    dense_l2: bool = True,
) -> EmbeddingTable:
    """SGD counterpart of adam_sparse_step with the same dense_l2 semantics."""
    out = table.copy()
    for j, w in enumerate(out.weights):
        touched = j < sparse_grad.n_fields and len(sparse_grad.ids[j])
        if dense_l2 and l2:
            decay = l2 * w  # decay gradient taken at the pre-step weights
            if touched:
                w[sparse_grad.ids[j]] -= lr * sparse_grad.grads[j]
            w -= lr * decay
        elif touched:
            ids = sparse_grad.ids[j]
            g = sparse_grad.grads[j] + (l2 * w[ids] if l2 else 0.0)
            w[ids] -= lr * g
    return out


# ---------------------------------------------------------------------------
# Loss-scaling equivalence probes
# ---------------------------------------------------------------------------

def _bounded_gradient_stream(steps: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, size=steps) * rng.choice([-1.0, 1.0], size=steps)


def verify_adam_scaling_equivalence(
    c: float,
    l2: float = 1e-4,
    steps: int = 200,
    seed: int = 0,
    lr: float = 1e-3,
    eps: float = 1e-12,
    beta1: float = 0.9,
    beta2: float = 0.999,
) -> float:
    """Max |w_A - w_B| between (gradients*c, weight l2) and (gradients, l2/c).

    Adam makes the two runs agree up to the eps term, so with a tiny eps the
    divergence over a couple hundred steps sits far below 1e-6.
    """
    if c <= 0:
        raise ValueError("c must be > 0")
    d = _bounded_gradient_stream(steps, seed)
    w_a = w_b = 1.0
    m_a = v_a = m_b = v_b = 0.0
    worst = 0.0
    for t in range(1, steps + 1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        g_a = c * d[t - 1] + l2 * w_a
        g_b = d[t - 1] + (l2 / c) * w_b
        m_a = beta1 * m_a + (1 - beta1) * g_a
        v_a = beta2 * v_a + (1 - beta2) * g_a * g_a
        m_b = beta1 * m_b + (1 - beta1) * g_b
        v_b = beta2 * v_b + (1 - beta2) * g_b * g_b
        w_a -= lr * (m_a / bc1) / (np.sqrt(v_a / bc2) + eps)
        w_b -= lr * (m_b / bc1) / (np.sqrt(v_b / bc2) + eps)
        worst = max(worst, abs(w_a - w_b))
    return worst


def verify_sgd_scaling_equivalence(
    c: float,
    l2: float = 1e-4,
    steps: int = 200,
    seed: int = 0,
    lr: float = 1e-3,
) -> float:
    """Max |w_A - w_B| between (gradients*c, lr, l2) and (gradients, c*lr, l2/c)."""
    if c <= 0:
        raise ValueError("c must be > 0")
    d = _bounded_gradient_stream(steps, seed)
    w_a = w_b = 1.0
    worst = 0.0
    for t in range(steps):
        w_a -= lr * (c * d[t] + l2 * w_a)
        w_b -= (c * lr) * (d[t] + (l2 / c) * w_b)
        worst = max(worst, abs(w_a - w_b))
    return worst
