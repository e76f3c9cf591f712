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

from .embedding import EmbeddingTable, SparseGradient, split_rows

OPT_KINDS = ("adam", "sgd")

# Entries per slice of the dense-mode Adam pass.  The pass streams five
# arrays; slices of 2**15 entries (256 KB each) keep them in a core's L2,
# where one pass over a whole 600k-entry block measured 17 % slower.
DENSE_CHUNK = 1 << 15


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


def _slice_rows(dim: int) -> int:
    return max(1, DENSE_CHUNK // dim)


@dataclass(eq=False)
class EmbedAdamState:
    """Adam moments shaped like the table's block, with per-row step counts for lazy mode.

    m, v and col_t give the same per field, as views.  scratch holds two work
    buffers for one DENSE_CHUNK slice of the dense-mode step; they carry
    nothing from one step to the next and are not optimizer state.
    """

    m_block: np.ndarray      # (rows, dim)
    v_block: np.ndarray      # (rows, dim)
    col_t_block: np.ndarray  # (rows,) int64
    offsets: np.ndarray      # the table's field offsets
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        rows, dim = self.m_block.shape
        shape = (min(rows, _slice_rows(dim)), dim)
        self.scratch = (np.empty(shape), np.empty(shape))

    @classmethod
    def init(cls, table: EmbeddingTable) -> "EmbedAdamState":
        rows = len(table.block)
        return cls(
            np.zeros_like(table.block),
            np.zeros_like(table.block),
            np.zeros(rows, dtype=np.int64),
            table.offsets,
        )

    @property
    def m(self) -> tuple[np.ndarray, ...]:
        return split_rows(self.m_block, self.offsets)

    @property
    def v(self) -> tuple[np.ndarray, ...]:
        return split_rows(self.v_block, self.offsets)

    @property
    def col_t(self) -> tuple[np.ndarray, ...]:
        return split_rows(self.col_t_block, self.offsets)


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

    Updates table.block and the state's moments and step counts, all fields
    in one pass.
    dense_l2 on: every id vector steps every time; absent ids see the pure
    decay gradient l2*w, so regularization keeps acting between occurrences.
    dense_l2 off: absent ids and their moments stay untouched, bias
    correction runs on per-id step counts, and the cost is O(touched ids).
    """
    b1, b2 = cfg.beta1, cfg.beta2
    state.t += 1
    w, rows = table.block, sparse_grad.rows(table)
    if dense_l2:
        bc1 = 1.0 - b1 ** state.t
        bc2 = 1.0 - b2 ** state.t
        # One pass over the block, a slice of rows at a time; rows is sorted,
        # so each slice's touched rows are one run of it.
        step = _slice_rows(table.dim)
        starts = np.arange(0, len(w), step)
        runs = np.searchsorted(rows, np.append(starts, len(w)))
        for a, lo, hi in zip(starts.tolist(), runs[:-1].tolist(), runs[1:].tolist()):
            z = min(a + step, len(w))
            g, tmp = state.scratch[0][: z - a], state.scratch[1][: z - a]
            wc, m, v = w[a:z], state.m_block[a:z], state.v_block[a:z]
            if l2:
                np.multiply(wc, l2, out=g)
            else:
                g.fill(0.0)
            g[rows[lo:hi] - a] += sparse_grad.grad_block[lo:hi]
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
            wc -= tmp
    elif len(rows):
        # Each touched row is gathered and scattered once per array; the
        # float operations and their order are those of the dense branch,
        # with per-row step counts.
        w_rows = np.take(w, rows, axis=0)
        g = sparse_grad.grad_block
        if l2:
            g = np.multiply(w_rows, l2) + g
        tj = state.col_t_block[rows] + 1
        state.col_t_block[rows] = tj
        tj = tj[:, None]
        tmp = np.multiply(g, 1.0 - b1)
        m = np.take(state.m_block, rows, axis=0)
        m *= b1
        m += tmp
        state.m_block[rows] = m
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v = np.take(state.v_block, rows, axis=0)
        v *= b2
        v += tmp
        state.v_block[rows] = v
        # w <- w - (lr*(m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps), per row t
        v /= 1.0 - b2 ** tj
        np.sqrt(v, out=v)
        v += cfg.eps
        m /= 1.0 - b1 ** tj
        m *= lr
        m /= v
        w_rows -= m
        w[rows] = w_rows


def sgd_sparse_step(
    table: EmbeddingTable,
    sparse_grad: SparseGradient,
    lr: float,
    l2: float = 0.0,
    dense_l2: bool = True,
) -> None:
    """SGD counterpart of adam_sparse_step with the same dense_l2 semantics,
    updating table.block in place."""
    w, rows = table.block, sparse_grad.rows(table)
    if dense_l2 and l2:
        decay = l2 * w  # decay gradient taken at the pre-step weights
        w[rows] -= lr * sparse_grad.grad_block
        decay *= lr
        w -= decay
    elif len(rows):
        g = sparse_grad.grad_block + (l2 * w[rows] if l2 else 0.0)
        w[rows] -= lr * g


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
