"""Adam steps with in-gradient L2, plus loss-scale equivalence probes.

Adam is the trainer's only optimizer.  L2 regularization enters through the
gradient (g + l2*w), not as decoupled weight decay: the Adam moments must
see the decay term for the loss-scaling equivalence below to hold.  L2
reaches the embeddings only, through adam_sparse_step.  Both steps work in
place and return None: adam_step updates the dict's arrays and the
AdamState, adam_sparse_step the table and the EmbedAdamState, so a step
costs no copy of its parameters; in lazy mode the embedding step reads and
writes only the touched rows, and in dense-L2 mode it steps every row of the
table it is given.  harness.train gives it a table of the ids that occur in
the run's data, so that pass costs what those ids cost, not the vocabulary.
The lazy step gathers the touched rows of w, m and v, updates them, and
writes each row back whole, as one record of a view of its C-contiguous
block (EmbeddingTable refuses any other block).
Adam's arithmetic, for both steps and for the loss-scaling probe, is one
kernel, _adam_update.  The SGD probe checks the same derivation for plain
SGD with its own arithmetic.

The moments and work buffers take their parameters' dtype, float32 in
training (embedding.TRAIN_DTYPE): the dense-mode embedding pass streams
every table entry each step, so its cost follows the bytes per entry.  The
probes run their own float64 arrays through the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingTable, SparseGradient

# Bytes per array in one slice of the dense-mode Adam pass.  The pass streams
# five arrays; 256 KiB slices keep them in a core's L2.  On a 600k-entry
# float32 block (DESK's embedding table) one step took 2.4 to 2.7 ms, and one
# pass over the whole block 6.1 to 6.5 ms (min of 64 steps, 2-core Xeon).
# In bytes, because the best slice measured 2**15 entries in float64 and
# 2**16 in float32.
DENSE_CHUNK_BYTES = 256 * 1024

# Every FLUSH_EVERY steps the dense-mode pass sets to 0 each entry whose
# weight fell below sqrt(tiny) of its dtype (1e-19 in float32), and its m.
# An id long absent decays under L2 towards 0 without reaching it; once its
# entries turn subnormal, each op on them runs about 20 times slower
# (measured on a Xeon), which made the third float32 epoch of a DESK run
# 2.4 times as long as the first.  From sqrt(tiny) an entry took at least
# 467 steps to turn subnormal (lr 1e-4 to 0.1, l2 1e-6 to 1), so a flush
# every 16 steps catches it; a flush every step cost a fifth of the pass.
# The flushed weights are far below any that matters.
FLUSH_EVERY = 16


# Adam's moment decays and denominator offset, the same for every step.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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


def _adam_update(w, m, v, g, lr, bc1, bc2, tmp, den, eps: float = EPS) -> None:
    """One Adam update of w, m and v in place, from the gradient g.

    bc1 and bc2 are the bias corrections 1 - beta^t: scalars, or (k, 1)
    arrays of per-row values.  tmp and den are scratch shaped like w; eps
    differs from EPS only in the loss-scaling probe.  Only w, m, v, tmp and
    den are written, never g; den may be g itself, which is read for the last
    time before den is first written.  Every Adam step in this module runs
    this operation order, which the golden fingerprints pin.
    """
    # m <- b1*m + (1-b1)*g
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=tmp)
    # v <- b2*v + ((1-b2)*g)*g
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=tmp)
    tmp *= g
    v += tmp
    # w <- w - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += eps
    np.divide(m, bc1, out=tmp)
    tmp *= lr
    tmp /= den
    w -= tmp


def adam_step(
    state: AdamState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
) -> None:
    """Bias-corrected Adam on a dict of tensors, in place: updates the
    params' arrays and the state's m, v and t."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, w in params.items():
        _adam_update(w, state.m[name], state.v[name], grads[name], lr, bc1, bc2,
                     np.empty_like(w), np.empty_like(w))


@dataclass(eq=False)
class EmbedAdamState:
    """Adam moments shaped like the table's block, with per-row step counts for lazy mode.

    Row i of each block belongs to the table's row i, so a step indexes them
    with the gradient's rows, as it does the table; there are no per-field
    views.  It holds optimizer state only: whatever a step works in, it
    allocates itself.
    """

    m_block: np.ndarray      # (rows, dim)
    v_block: np.ndarray      # (rows, dim)
    col_t_block: np.ndarray  # (rows,) int64
    t: int = 0

    @classmethod
    def init(cls, table: EmbeddingTable) -> "EmbedAdamState":
        rows = len(table.block)
        return cls(
            np.zeros_like(table.block),
            np.zeros_like(table.block),
            np.zeros(rows, dtype=np.int64),
        )


def adam_sparse_step(
    state: EmbedAdamState,
    table: EmbeddingTable,
    sparse_grad: SparseGradient,
    lr: float,
    l2: float = 0.0,
    dense_l2: bool = True,
) -> None:
    """Adam over an embedding table driven by a sparse gradient, in place.

    Updates table.block and the state's moments and step counts, all fields
    in one pass.  The gradient must have been built for a table with
    table's field offsets.
    dense_l2 on: every row of table steps every time; ids absent from the
    batch see the pure decay gradient l2*w, so regularization keeps acting
    between occurrences.  The cost is one pass over table.block, which in
    training holds the ids that occur in the run's data.
    Every FLUSH_EVERY steps, an entry whose weight fell below sqrt(tiny) of
    its dtype is set to 0 together with its m.
    dense_l2 off: absent ids and their moments stay untouched, bias
    correction runs on per-id step counts, and the cost is O(touched ids).
    """
    sparse_grad.check_table(table)
    state.t += 1
    w, rows = table.block, sparse_grad.row_block
    if dense_l2:
        bc1 = 1.0 - BETA1 ** state.t
        bc2 = 1.0 - BETA2 ** state.t
        flush = state.t % FLUSH_EVERY == 0
        flush_below = np.sqrt(np.finfo(w.dtype).tiny)
        # One pass over the block, a slice of rows at a time; rows is sorted,
        # so each slice's touched rows are one run of it.
        step = max(1, DENSE_CHUNK_BYTES // (table.dim * w.itemsize))
        shape = (min(len(w), step), table.dim)
        g_buf, tmp_buf = np.empty(shape, w.dtype), np.empty(shape, w.dtype)
        starts = np.arange(0, len(w), step)
        runs = np.searchsorted(rows, np.append(starts, len(w)))
        for a, lo, hi in zip(starts.tolist(), runs[:-1].tolist(), runs[1:].tolist()):
            z = min(a + step, len(w))
            g, tmp = g_buf[: z - a], tmp_buf[: z - a]
            np.multiply(w[a:z], l2, out=g)
            g[rows[lo:hi] - a] += sparse_grad.grad_block[lo:hi]
            _adam_update(w[a:z], state.m_block[a:z], state.v_block[a:z], g,
                         lr, bc1, bc2, tmp, g)
            if flush:
                low = np.abs(w[a:z], out=tmp) < flush_below
                np.copyto(w[a:z], 0.0, where=low)
                np.copyto(state.m_block[a:z], 0.0, where=low)
    elif len(rows):
        # Each touched row is gathered and scattered once per array, and
        # bias correction runs on the rows' own step counts.  The scatters
        # copy whole rows: 0.58 against 0.76 ms for entry-wise fancy
        # assignment (6.4k rows of dim 10, float32).
        w_rows = np.take(w, rows, axis=0)
        # g is this step's own array, not the caller's, so it can serve as den.
        g = np.multiply(w_rows, l2) + sparse_grad.grad_block
        tj = state.col_t_block[rows] + 1
        state.col_t_block[rows] = tj
        tj = tj[:, None]
        m = np.take(state.m_block, rows, axis=0)
        v = np.take(state.v_block, rows, axis=0)
        # The per-row bias corrections come out float64; they take w's dtype.
        bc1 = (1.0 - BETA1 ** tj).astype(w.dtype)
        bc2 = (1.0 - BETA2 ** tj).astype(w.dtype)
        _adam_update(w_rows, m, v, g, lr, bc1, bc2, np.empty_like(m), g)
        np.put(_whole_rows(state.m_block), rows, _whole_rows(m))
        np.put(_whole_rows(state.v_block), rows, _whole_rows(v))
        np.put(_whole_rows(w), rows, _whole_rows(w_rows))


def _whole_rows(a: np.ndarray) -> np.ndarray:
    """A C-contiguous (n, dim) array as n opaque records of one row each, so
    that a scatter copies each row's bytes in one move, not entry by entry."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1])))[:, 0]


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
    # Runs A and B step side by side as the two entries of one array.
    w, m, v, tmp, den = np.ones(2), np.zeros(2), np.zeros(2), np.empty(2), np.empty(2)
    worst = 0.0
    for t in range(1, steps + 1):
        g = np.array([c * d[t - 1] + l2 * w[0], d[t - 1] + (l2 / c) * w[1]])
        _adam_update(w, m, v, g, _PROBE_LR, 1.0 - BETA1 ** t, 1.0 - BETA2 ** t, tmp, den, eps)
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
