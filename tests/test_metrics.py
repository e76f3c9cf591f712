"""AUC against brute-force pair counting, logloss against a scalar loop."""

import math

import numpy as np
import pytest

from ctrlab.metrics import UndefinedMetricError, auc, evaluate, logloss


def pairwise_auc(scores, labels):
    """O(n^2) oracle: count positive-over-negative wins, ties worth 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(np.array([0.1, 0.9]), np.array([0, 1])) == 1.0

    def test_tie_rule(self):
        assert auc(np.array([0.5, 0.5]), np.array([0, 1])) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(150):
            n = int(rng.integers(2, 1000))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if trial >= 100:  # infinities are ordered values, and tie
                scores = rng.choice([-math.inf, -1.0, 0.0, 1.0, math.inf], size=n)
            elif trial % 2:
                scores = rng.choice([0.1, 0.2, 0.3], size=n)  # tie-heavy
            else:
                scores = rng.normal(size=n)
            assert auc(scores, labels) == pairwise_auc(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.integers(-5, 6, size=200).astype(float)
        labels = rng.integers(0, 2, size=200)
        labels[0], labels[1] = 0, 1
        transformed = scores ** 3 + 2 * scores  # strictly increasing, exact on ints
        assert auc(scores, labels) == auc(transformed, labels)

    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            scores = rng.choice([1.0, 2.0, 3.0, 4.0], size=50)
            labels = rng.integers(0, 2, size=50)
            labels[0], labels[1] = 0, 1
            assert auc(scores, labels) + auc(-scores, labels) == 1.0

    @pytest.mark.parametrize("scores", [
        [0.1, math.nan, 0.3, 0.9],
        [0.5, 0.5, math.nan, 0.5],  # with ties
        [math.nan] * 4,
    ])
    def test_nan_score_makes_auc_nan(self, scores):
        # A diverged model's probabilities carry no ranking.
        assert math.isnan(auc(np.array(scores), np.array([0, 1, 0, 1])))

    def test_undefined_without_both_classes(self):
        with pytest.raises(UndefinedMetricError):
            auc(np.array([0.1, 0.2]), np.array([1, 1]))
        with pytest.raises(UndefinedMetricError):
            auc(np.array([0.1, 0.2]), np.array([0, 0]))


class TestLogloss:
    def test_half_probability(self):
        assert logloss(np.array([0.5]), np.array([1])) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_clamp(self):
        value = logloss(np.array([1.0]), np.array([1]))
        assert value == pytest.approx(-math.log(1.0 - 1e-7), rel=1e-9)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        p = rng.random(500)
        y = rng.integers(0, 2, size=500)
        eps = 1e-7
        total = 0.0
        for pi, yi in zip(p, y):
            pc = min(max(pi, eps), 1 - eps)
            total += -(yi * math.log(pc) + (1 - yi) * math.log(1 - pc))
        assert logloss(p, y) == pytest.approx(total / 500, abs=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        p = rng.random(300)
        y = rng.integers(0, 2, size=300)
        perm = rng.permutation(300)
        assert logloss(p[perm], y[perm]) == pytest.approx(logloss(p, y), abs=1e-12)


def test_evaluate_is_auc_and_logloss():
    p, y = np.array([0.2, 0.8, 0.5]), np.array([0, 1, 1])
    result = evaluate(p, y)
    assert result.auc == auc(p, y) == 1.0
    assert result.logloss == logloss(p, y)
