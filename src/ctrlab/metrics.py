"""AUC and logloss evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# logloss clamps probabilities to [PROB_EPS, 1 - PROB_EPS], so a confident
# wrong prediction costs a finite loss.
PROB_EPS = 1e-7


class UndefinedMetricError(ValueError):
    """AUC needs at least one positive and one negative label."""


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged (Mann–Whitney convention), via a stable sort."""
    n = len(values)
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    boundaries = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1])
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries, [n - 1]))
    group_rank = (starts + ends) / 2.0 + 1.0
    sizes = ends - starts + 1
    ranks = np.empty(n)
    ranks[order] = np.repeat(group_rank, sizes)
    return ranks


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outranks a random negative; ties count 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same shape")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC undefined without both label classes")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def logloss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped to [PROB_EPS, 1-PROB_EPS]."""
    p = np.clip(np.asarray(probabilities, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


@dataclass(frozen=True)
class EvalResult:
    auc: float
    logloss: float


def evaluate(probabilities: np.ndarray, labels: np.ndarray) -> EvalResult:
    return EvalResult(auc=auc(probabilities, labels), logloss=logloss(probabilities, labels))
