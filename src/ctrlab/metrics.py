"""AUC and logloss evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# logloss clamps probabilities to [PROB_EPS, 1 - PROB_EPS], so a confident
# wrong prediction costs a finite loss.
PROB_EPS = 1e-7


class UndefinedMetricError(ValueError):
    """AUC needs at least one positive and one negative label."""


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative; ties count 1/2.

    Counted over all pairs: with the negatives' scores sorted, a binary search
    per positive finds the negatives it beats ("left") and those it beats or
    ties ("right"), so each tie adds 1/2 to their mean.  A NaN score, such as
    a diverged model's, makes the AUC NaN; ±inf are ordered values.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same shape")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC undefined without both label classes")
    if np.isnan(scores).any():
        return math.nan
    neg, pos_scores = np.sort(scores[~pos]), scores[pos]
    beats = int(np.searchsorted(neg, pos_scores, "left").sum())
    beats_or_ties = int(np.searchsorted(neg, pos_scores, "right").sum())
    return (beats + beats_or_ties) / (2 * n_pos * n_neg)


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
