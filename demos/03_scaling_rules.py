#!/usr/bin/env python3
"""Every scaling rule over the 1K..128K batch grid, plus the Monte Carlo
probes that motivate them (update covariance for sqrt, rare-id update
expectation for keeping the embedding lr fixed).

Usage: python demos/03_scaling_rules.py
"""

import numpy as np

from ctrlab.scaling import (
    BaseHyperparams,
    QuadraticProblem,
    estimate_update_covariance,
    expected_update_frequency_check,
    plan_for_batch,
)

base = BaseHyperparams(base_batch=1024, eta_dense=1e-4, eta_embed=1e-4, l2=1e-4)
batches = [1024 * 2 ** k for k in range(8)]
rules = ("none", "sqrt", "sqrt_star", "linear", "n2_lambda", "cowclip")

print("lr_dense / lr_embed / l2 by rule and batch size (base 1024):")
header = f"{'batch':>8} | " + " | ".join(f"{r:^26}" for r in rules)
print(header)
print("-" * len(header))
for b in batches:
    cells = []
    for rule in rules:
        p = plan_for_batch(rule, base, b)
        cells.append(f"{p.eta_dense:.1e}/{p.eta_embed:.1e}/{p.l2:.1e}")
    print(f"{b:>8} | " + " | ".join(f"{c:^26}" for c in cells))

print("\nsqrt motivation: keep the one-step update covariance flat.")
problem = QuadraticProblem(dim=5, n_data=512, seed=0)
cov_base = estimate_update_covariance(problem, b=8, eta=1e-2, n_trials=20_000, seed=1)
for s in (2, 4, 8):
    cov = estimate_update_covariance(problem, b=8 * s, eta=np.sqrt(s) * 1e-2,
                                     n_trials=20_000, seed=s)
    print(f"  s={s}: trace ratio vs base {np.trace(cov) / np.trace(cov_base):.3f}"
          " (sqrt-scaled lr)")

print("\nrare-id motivation: expected embedding update, one big batch vs s small.")
p, b, s, eta = 1e-4, 64, 16, 1e-3
fixed = expected_update_frequency_check(p, b, s, eta, n_trials=300_000, seed=2)
naive = expected_update_frequency_check(p, b, s, eta, n_trials=300_000, seed=3,
                                        eta_big=s * eta)
print(f"  lr held fixed:   big/small = {fixed:.3f}  (want ~1)")
print(f"  lr scaled by s:  big/small = {naive:.2f}  (overshoots ~{s}x)")
