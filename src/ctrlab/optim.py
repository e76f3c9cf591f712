"""Adam steps with in-gradient L2, plus loss-scale equivalence probes.

Adam is the trainer's only optimizer.  L2 regularization enters through the
gradient (g + l2*w), not as decoupled weight decay: the Adam moments must
see the decay term for the loss-scaling equivalence below to hold.  L2
reaches the embeddings only, through adam_sparse_step.  Both steps work in
place and return None: adam_step updates the dict's arrays and the
AdamState, adam_sparse_step the table and the EmbedAdamState, so a step
costs no copy of its parameters; in lazy mode the embedding step reads and
writes only the touched rows.  Adam's arithmetic, for both steps and for
the loss-scaling probe, is one kernel, _adam_update.  The SGD probe checks
the same derivation for plain SGD with its own arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbeddingTable, SparseGradient, split_rows

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


def _adam_update(w, m, v, g, lr, bc1, bc2, cfg: AdamConfig, tmp, den) -> None:
    """One Adam update of w, m and v in place, from the gradient g.

    bc1 and bc2 are the bias corrections 1 - beta^t: scalars, or (k, 1)
    arrays of per-row values.  tmp and den are scratch shaped like w.  Only
    w, m, v, tmp and den are written, never g; den may be g itself, which is
    read for the last time before den is first written.  Every Adam step in
    this module runs this operation order, which the golden fingerprints pin.
    """
    # m <- b1*m + (1-b1)*g
    m *= cfg.beta1
    m += np.multiply(g, 1.0 - cfg.beta1, out=tmp)
    # v <- b2*v + ((1-b2)*g)*g
    v *= cfg.beta2
    np.multiply(g, 1.0 - cfg.beta2, out=tmp)
    tmp *= g
    v += tmp
    # w <- w - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += cfg.eps
    np.divide(m, bc1, out=tmp)
    tmp *= lr
    tmp /= den
    w -= tmp


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    cfg: AdamConfig = AdamConfig(),
) -> None:
    """Bias-corrected Adam on a dict of tensors, in place: updates the
    params' arrays and the state's m, v and t."""
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, w in params.items():
        _adam_update(w, state.m[name], state.v[name], grads[name], lr, bc1, bc2, cfg,
                     np.empty_like(w), np.empty_like(w))


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
    state.t += 1
    w, rows = table.block, sparse_grad.rows(table)
    if dense_l2:
        bc1 = 1.0 - cfg.beta1 ** state.t
        bc2 = 1.0 - cfg.beta2 ** state.t
        # One pass over the block, a slice of rows at a time; rows is sorted,
        # so each slice's touched rows are one run of it.
        step = _slice_rows(table.dim)
        starts = np.arange(0, len(w), step)
        runs = np.searchsorted(rows, np.append(starts, len(w)))
        for a, lo, hi in zip(starts.tolist(), runs[:-1].tolist(), runs[1:].tolist()):
            z = min(a + step, len(w))
            g, tmp = state.scratch[0][: z - a], state.scratch[1][: z - a]
            if l2:
                np.multiply(w[a:z], l2, out=g)
            else:
                g.fill(0.0)
            g[rows[lo:hi] - a] += sparse_grad.grad_block[lo:hi]
            _adam_update(w[a:z], state.m_block[a:z], state.v_block[a:z], g,
                         lr, bc1, bc2, cfg, tmp, g)
    elif len(rows):
        # Each touched row is gathered and scattered once per array, and
        # bias correction runs on the rows' own step counts.
        w_rows = np.take(w, rows, axis=0)
        g = sparse_grad.grad_block
        if l2:
            g = np.multiply(w_rows, l2) + g
        tj = state.col_t_block[rows] + 1
        state.col_t_block[rows] = tj
        tj = tj[:, None]
        m = np.take(state.m_block, rows, axis=0)
        v = np.take(state.v_block, rows, axis=0)
        # g can take den's values only when it is this step's own array,
        # not the caller's gradient block.
        den = g if l2 else np.empty_like(m)
        _adam_update(w_rows, m, v, g, lr, 1.0 - cfg.beta1 ** tj, 1.0 - cfg.beta2 ** tj,
                     cfg, np.empty_like(m), den)
        state.m_block[rows] = m
        state.v_block[rows] = v
        w[rows] = w_rows


# ---------------------------------------------------------------------------
# Loss-scaling equivalence probes
# ---------------------------------------------------------------------------

# The probes' learning rate; both equivalences hold at any lr.
_PROBE_LR = 1e-3


def _bounded_gradient_stream(steps: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, size=steps) * rng.choice([-1.0, 1.0], size=steps)


def verify_adam_scaling_equivalence(
    c: float,
    l2: float = 1e-4,
    steps: int = 200,
    seed: int = 0,
    eps: float = 1e-12,
) -> float:
    """Max |w_A - w_B| between (gradients*c, weight l2) and (gradients, l2/c).

    Adam makes the two runs agree up to the eps term, so with a tiny eps the
    divergence over a couple hundred steps sits far below 1e-6.
    """
    if c <= 0:
        raise ValueError("c must be > 0")
    d = _bounded_gradient_stream(steps, seed)
    cfg = AdamConfig(eps=eps)
    # Runs A and B step side by side as the two entries of one array.
    w, m, v, tmp, den = np.ones(2), np.zeros(2), np.zeros(2), np.empty(2), np.empty(2)
    worst = 0.0
    for t in range(1, steps + 1):
        g = np.array([c * d[t - 1] + l2 * w[0], d[t - 1] + (l2 / c) * w[1]])
        _adam_update(w, m, v, g, _PROBE_LR, 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t, cfg, tmp, den)
        worst = max(worst, abs(w[0] - w[1]))
    return float(worst)


def verify_sgd_scaling_equivalence(
    c: float,
    l2: float = 1e-4,
    steps: int = 200,
    seed: int = 0,
) -> float:
    """Max |w_A - w_B| between (gradients*c, lr, l2) and (gradients, c*lr, l2/c)."""
    if c <= 0:
        raise ValueError("c must be > 0")
    d = _bounded_gradient_stream(steps, seed)
    w_a = w_b = 1.0
    worst = 0.0
    for t in range(steps):
        w_a -= _PROBE_LR * (c * d[t] + l2 * w_a)
        w_b -= (c * _PROBE_LR) * (d[t] + (l2 / c) * w_b)
        worst = max(worst, abs(w_a - w_b))
    return worst
