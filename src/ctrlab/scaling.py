"""Hyperparameter scaling rules for batch-size sweeps.

Given base hyperparameters at a reference batch size and a factor s, each rule
multiplies the dense lr, the embedding lr and the L2 weight by a power of s
(RULE_POWERS):

  rule        dense lr   embedding lr   l2
  none        1          1              1
  sqrt        sqrt(s)    sqrt(s)        sqrt(s)
  sqrt_star   sqrt(s)    sqrt(s)        1
  linear      s          s              1
  n2_lambda   s          1              s**2
  cowclip     sqrt(s)    1              s

The frequency-aware rules (n2_lambda, cowclip) never scale the embedding
learning rate: an id that shows up in a fraction of batches already sees its
expected update grow with the batch size, so scaling lr would double-count.
Instead the L2 weight grows to compensate for the rarer application of decay.

The preset schedules below are the hand-tuned reference grids for the Criteo
and Avazu benchmarks; entries listed in "hand_tuned" deviate from the pure
rule and are carried verbatim rather than computed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# rule: the powers of s applied to (dense lr, embedding lr, l2)
RULE_POWERS = {
    "none": (0, 0, 0),
    "sqrt": (0.5, 0.5, 0.5),
    "sqrt_star": (0.5, 0.5, 0),
    "linear": (1, 1, 0),
    "n2_lambda": (1, 0, 2),
    "cowclip": (0.5, 0, 1),
}
RULES = tuple(RULE_POWERS)


def _check_real(name: str, value) -> None:
    # bool is an int subclass, so True would pass as 1 without the bool test.
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class BaseHyperparams:
    base_batch: int = 1024
    eta_dense: float = 1e-4
    eta_embed: float = 1e-4
    l2: float = 1e-4

    def __post_init__(self):
        if not isinstance(self.base_batch, (int, np.integer)) or isinstance(self.base_batch, bool):
            raise ValueError(f"base_batch must be an integer, got {self.base_batch!r}")
        for name in ("eta_dense", "eta_embed", "l2"):
            _check_real(name, getattr(self, name))
        # The comparisons also reject NaN, for which every comparison is false.
        if self.base_batch < 1 or not all(
            0 < x < math.inf for x in (self.eta_dense, self.eta_embed, self.l2)
        ):
            raise ValueError("base hyperparameters must be positive and finite")


@dataclass(frozen=True)
class ScalingPlan:
    rule: str
    factor: float
    eta_dense: float
    eta_embed: float
    l2: float


def scale(rule: str, base: BaseHyperparams, s: float) -> ScalingPlan:
    """Apply one scaling rule for batch factor s (target batch / base batch)."""
    _check_real("batch factor s", s)
    if not 0 < s < math.inf:
        raise ValueError("batch factor s must be > 0 and finite")
    if rule not in RULE_POWERS:
        raise ValueError(f"unknown scaling rule {rule!r}")
    # math.sqrt is correctly rounded; s ** 0.5 is not guaranteed to be.
    dense, embed, l2 = (math.sqrt(s) if p == 0.5 else s ** p for p in RULE_POWERS[rule])
    return ScalingPlan(rule, s, dense * base.eta_dense, embed * base.eta_embed, l2 * base.l2)


def plan_for_batch(rule: str, base: BaseHyperparams, target_batch: int) -> ScalingPlan:
    return scale(rule, base, target_batch / base.base_batch)


# ---------------------------------------------------------------------------
# Reference schedules (batch size -> hyperparameters).  "hand_tuned" names
# cells that were tuned past the rule; everything else follows the rule
# exactly from the 1024 base row.
# ---------------------------------------------------------------------------

_S2 = math.sqrt(2.0)

SQRT_SCHEDULE = {
    1024: {"lr": 1e-4, "l2": 1e-4},
    2048: {"lr": _S2 * 1e-4, "l2": _S2 * 1e-4},
    4096: {"lr": 2e-4, "l2": 2e-4},
    8192: {"lr": 2 * _S2 * 1e-4, "l2": 2 * _S2 * 1e-4},
}

LINEAR_SCHEDULE = {
    1024: {"lr": 1e-4, "l2": 1e-4},
    2048: {"lr": 2e-4, "l2": 1e-4},
    4096: {"lr": 4e-4, "l2": 1e-4},
    8192: {"lr": 8e-4, "l2": 1e-4},
}

N2_LAMBDA_SCHEDULE = {
    1024: {"lr_embed": 1e-4, "l2": 1e-4, "lr_dense": 1e-4, "hand_tuned": ()},
    2048: {"lr_embed": 1e-4, "l2": 4e-4, "lr_dense": 2e-4, "hand_tuned": ()},
    4096: {"lr_embed": 1e-4, "l2": 1.6e-3, "lr_dense": 4e-4, "hand_tuned": ()},
    8192: {"lr_embed": 1e-4, "l2": 1.28e-2, "lr_dense": 8e-4, "hand_tuned": ("l2",)},
}

COWCLIP_SCHEDULES = {
    "criteo": {
        "base": BaseHyperparams(1024, eta_dense=8e-4, eta_embed=1e-4, l2=1e-4),
        "rows": {
            1024: {"lr_embed": 1e-4, "l2": 1e-4, "lr_dense": 8e-4, "r": 1.0, "zeta": 1e-5, "hand_tuned": ()},
            2048: {"lr_embed": 1e-4, "l2": 2e-4, "lr_dense": 8 * _S2 * 1e-4, "r": 1.0, "zeta": 1e-5, "hand_tuned": ()},
            4096: {"lr_embed": 1e-4, "l2": 4e-4, "lr_dense": 16e-4, "r": 1.0, "zeta": 1e-5, "hand_tuned": ()},
            8192: {"lr_embed": 1e-4, "l2": 8e-4, "lr_dense": 16 * _S2 * 1e-4, "r": 1.0, "zeta": 1e-5, "hand_tuned": ()},
            16384: {"lr_embed": 1e-4, "l2": 1.6e-3, "lr_dense": 32e-4, "r": 1.0, "zeta": 1e-5, "hand_tuned": ()},
            32768: {"lr_embed": 1e-4, "l2": 3.2e-3, "lr_dense": 32 * _S2 * 1e-4, "r": 1.0, "zeta": 1e-5, "hand_tuned": ()},
            65536: {"lr_embed": 1e-4, "l2": 6.4e-3, "lr_dense": 64e-4, "r": 1.0, "zeta": 1e-5, "hand_tuned": ()},
            131072: {"lr_embed": 1e-4, "l2": 1.28e-2, "lr_dense": 64 * _S2 * 1e-4, "r": 1.0, "zeta": 1e-5, "hand_tuned": ()},
        },
    },
    "avazu": {
        "base": BaseHyperparams(1024, eta_dense=1e-4, eta_embed=1e-4, l2=1e-4),
        "rows": {
            1024: {"lr_embed": 1e-4, "l2": 1e-4, "lr_dense": 1e-4, "r": 10.0, "zeta": 1e-3, "hand_tuned": ()},
            2048: {"lr_embed": 1e-4, "l2": 2e-4, "lr_dense": _S2 * 1e-4, "r": 10.0, "zeta": 1e-3, "hand_tuned": ()},
            4096: {"lr_embed": 1e-4, "l2": 4e-4, "lr_dense": 2e-4, "r": 1.0, "zeta": 1e-4, "hand_tuned": ()},
            8192: {"lr_embed": 1e-4, "l2": 8e-4, "lr_dense": 2 * _S2 * 1e-4, "r": 1.0, "zeta": 1e-4, "hand_tuned": ()},
            16384: {"lr_embed": 1e-4, "l2": 1.6e-3, "lr_dense": 4e-4, "r": 1.0, "zeta": 1e-4, "hand_tuned": ()},
            32768: {"lr_embed": 1e-4, "l2": 3.2e-3, "lr_dense": 4 * _S2 * 1e-4, "r": 1.0, "zeta": 1e-4, "hand_tuned": ()},
            65536: {"lr_embed": 1e-4, "l2": 6.4e-3, "lr_dense": 8e-4, "r": 1.0, "zeta": 1e-4, "hand_tuned": ()},
            131072: {"lr_embed": 1e-4, "l2": 9.6e-3, "lr_dense": 16e-4, "r": 1.0, "zeta": 1e-4, "hand_tuned": ("l2", "lr_dense")},
        },
    },
}


# ---------------------------------------------------------------------------
# Monte Carlo probes behind the rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticProblem:
    """Per-sample losses 0.5*||w - a_i||^2; gradients are evaluated at w = 0."""

    dim: int = 5
    n_data: int = 512
    seed: int = 0

    def sample_gradients(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return -rng.normal(size=(self.n_data, self.dim))


def estimate_update_covariance(
    problem, b: int, eta: float, n_trials: int, seed: int
) -> np.ndarray:
    """Sample covariance of one-step SGD updates over independent batches.

    For batches drawn with replacement this tracks eta^2/b times the data
    gradient covariance, the quantity sqrt scaling keeps invariant.
    """
    grads = problem.sample_gradients()
    rng = np.random.default_rng(seed)
    updates = np.empty((n_trials, grads.shape[1]))
    chunk = 2048
    for start in range(0, n_trials, chunk):
        stop = min(start + chunk, n_trials)
        idx = rng.integers(0, len(grads), size=(stop - start, b))
        updates[start:stop] = -eta * grads[idx].mean(axis=1)
    return np.atleast_2d(np.cov(updates, rowvar=False))


def expected_update_frequency_check(
    p: float,
    b: int,
    s: int,
    eta: float,
    n_trials: int,
    seed: int,
    eta_big: float | None = None,
) -> float:
    """The expected embedding update of one batch of s*b samples over that of
    s batches of b.

    The surrogate updates by eta whenever the id appears in the batch: the
    adaptive-optimizer regime where the update magnitude per occurrence
    does not shrink with the batch average.  With eta_big == eta
    the two sides agree for rare ids (presence grows linearly with batch
    size); with eta_big == s*eta the big-batch side overshoots by about s.
    """
    # At p = 0 the id is never present, so both means are 0.
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p!r}")
    if b < 1 or s < 1:
        raise ValueError("b and s must be >= 1")
    if eta_big is None:
        eta_big = eta
    rng = np.random.default_rng(seed)
    present_big = rng.binomial(s * b, p, size=n_trials) > 0
    big_mean = float(np.mean(eta_big * present_big))
    present_small = rng.binomial(b, p, size=(n_trials, s)) > 0
    small_mean = float(np.mean(eta * present_small.sum(axis=1)))
    return big_mean / small_mean
