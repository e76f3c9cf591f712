"""SGD and Adam steps with in-gradient L2, plus loss-scale equivalence probes.

L2 regularization enters through the gradient (g + l2*w), not as decoupled
weight decay: the Adam moments must see the decay term for the loss-scaling
equivalence below to hold.  The dense-parameter steps (sgd_step, adam_step)
are pure: they return fresh arrays and never touch their inputs.  The
embedding steps (sgd_sparse_step, adam_sparse_step) update the table and the
EmbedAdamState in place and return None, so a step costs no copy of the
table; in lazy mode it reads and writes only the touched rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Adam moments shaped like the table, with per-id step counts for lazy mode.

    scratch holds two work buffers per field for the dense-mode step; they
    carry nothing from one step to the next and are not optimizer state.
    """

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    col_t: list[np.ndarray] | None = None
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.scratch = [(np.empty_like(m), np.empty_like(m)) for m in self.m]

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
) -> None:
    """Adam over an embedding table driven by a sparse gradient, in place.

    Updates table.weights and the state's moments and step counts.
    dense_l2 on: every id vector steps every time; absent ids see the pure
    decay gradient l2*w, so regularization keeps acting between occurrences.
    dense_l2 off: absent ids and their moments stay untouched, bias
    correction runs on per-id step counts, and the cost is O(touched ids).
    """
    b1, b2 = cfg.beta1, cfg.beta2
    state.t += 1
    if dense_l2:
        bc1 = 1.0 - b1 ** state.t
        bc2 = 1.0 - b2 ** state.t
        for j, w in enumerate(table.weights):
            g, tmp = state.scratch[j]
            m, v = state.m[j], state.v[j]
            if l2:
                np.multiply(w, l2, out=g)
            else:
                g.fill(0.0)
            if j < sparse_grad.n_fields and len(sparse_grad.ids[j]):
                g[sparse_grad.ids[j]] += sparse_grad.grads[j]
            # m <- b1*m + (1-b1)*g
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=tmp)
            # v <- b2*v + ((1-b2)*g)*g
            v *= b2
            np.multiply(g, 1.0 - b2, out=tmp)
            tmp *= g
            v += tmp
            # w <- w - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += cfg.eps
            np.divide(m, bc1, out=tmp)
            tmp *= lr
            tmp /= g
            w -= tmp
    else:
        for j in range(sparse_grad.n_fields):
            ids = sparse_grad.ids[j]
            if not len(ids):
                continue
            w, m_j, v_j, t_j = table.weights[j], state.m[j], state.v[j], state.col_t[j]
            g = sparse_grad.grads[j] + (l2 * w[ids] if l2 else 0.0)
            t_j[ids] += 1
            tj = t_j[ids][:, None]
            m = b1 * m_j[ids] + (1.0 - b1) * g
            v = b2 * v_j[ids] + (1.0 - b2) * g * g
            m_j[ids], v_j[ids] = m, v
            mhat = m / (1.0 - b1 ** tj)
            vhat = v / (1.0 - b2 ** tj)
            w[ids] -= lr * mhat / (np.sqrt(vhat) + cfg.eps)


def sgd_sparse_step(
    table: EmbeddingTable,
    sparse_grad: SparseGradient,
    lr: float,
    l2: float = 0.0,
    dense_l2: bool = True,
) -> None:
    """SGD counterpart of adam_sparse_step with the same dense_l2 semantics,
    updating table.weights in place."""
    for j, w in enumerate(table.weights):
        touched = j < sparse_grad.n_fields and len(sparse_grad.ids[j])
        if dense_l2 and l2:
            decay = l2 * w  # decay gradient taken at the pre-step weights
            if touched:
                w[sparse_grad.ids[j]] -= lr * sparse_grad.grads[j]
            decay *= lr
            w -= decay
        elif touched:
            ids = sparse_grad.ids[j]
            g = sparse_grad.grads[j] + (l2 * w[ids] if l2 else 0.0)
            w[ids] -= lr * g


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
