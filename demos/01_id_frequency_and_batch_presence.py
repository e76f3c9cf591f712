#!/usr/bin/env python3
"""Why batch size interacts with id frequency.

Generates a Zipf-skewed synthetic CTR dataset, shows the rank-frequency
curve, and compares the closed-form batch-presence probability 1-(1-p)^b
with its binomial approximation min(1, b*p) and with Monte Carlo sampling.

Usage: python demos/01_id_frequency_and_batch_presence.py
"""

import numpy as np

from ctrlab import batch_presence_probability, count_frequencies, generate_synthetic

dataset = generate_synthetic(100_000, seed=0, n_categorical=3, vocab_sizes=5000)
counts_0 = count_frequencies(dataset)[0]

print("rank-frequency head of field cat_0 (Zipf exponent 1.2):")
counts = np.sort(counts_0)[::-1]
for rank in (1, 2, 3, 10, 100, 1000):
    print(f"  rank {rank:>5}: count {counts[rank - 1]:>6}  "
          f"p = {counts[rank - 1] / dataset.n_samples:.6f}")

print("\nbatch presence of an id vs batch size (exact | approx):")
print(f"{'p':>8} | " + " | ".join(f"b={b:<6}" for b in (64, 1024, 16384)))
for p in (0.3, 1e-2, 1e-4, 1e-6):
    cells = []
    for b in (64, 1024, 16384):
        exact = batch_presence_probability(p, b, "exact")
        approx = batch_presence_probability(p, b, "approx")
        cells.append(f"{exact:.4f}/{approx:.4f}")
    print(f"{p:>8} | " + " | ".join(cells))

print("\nfrequent ids are in every batch; rare ids appear in a fraction that")
print("grows linearly with b, which is why embedding learning rates must not")
print("be scaled with the batch size.")

# Monte Carlo cross-check on the dataset itself, for the most frequent id
p_head = counts_0.max() / dataset.n_samples
head_id = int(np.argmax(counts_0))
hits = 0
n_batches = 2000
rng = np.random.default_rng(1)
for _ in range(n_batches):
    idx = rng.integers(0, dataset.n_samples, size=64)  # 64 samples drawn with replacement
    hits += int(np.any(dataset.categorical[idx, 0] == head_id))
exact = batch_presence_probability(p_head, 64, "exact")
print(f"\nMonte Carlo check, head id (p={p_head:.4f}, b=64): "
      f"empirical {hits / n_batches:.4f} vs closed form {exact:.4f}")
