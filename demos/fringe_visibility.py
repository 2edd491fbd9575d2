"""Fringe-visibility characterization of the interferometer phase.

Prepares the one-arm-rotated diagnostic state, sweeps the arm-phase
difference over a full cycle, simulates Poisson coincidence counts for
the A (x) H projection, and fits the normalized fringe to a cosine.
"""

import numpy as np

from wgstate import (GenerationConfig, cosine_fit, general_axis_observable,
                     outcome_probabilities, simulate_counts,
                     simulate_generation, visibility)

RATE, DURATION, STEPS = 150.0, 10.0, 30

# analyzer projecting photon 1 on A and photon 2 on H
analyzer = general_axis_observable(np.pi / 2, np.pi, 0.0, 0.0)

counts = []
for step in range(STEPS):
    varphi = 2 * np.pi * step / STEPS
    cfg = GenerationConfig(hwp_r2=0.0, hwp_l2=np.pi / 4,
                           phi_prime_12=0.0, varphi_prime=varphi)
    state = simulate_generation(cfg).state
    probs = outcome_probabilities(state, analyzer)
    counts.append(simulate_counts(probs, RATE, DURATION, seed=step)[0])
counts = np.array(counts, dtype=float)

vis = visibility(counts.max(), counts.min())
print(f"swept {STEPS} steps at {RATE:.0f} cps x {DURATION:.0f} s")
print(f"max/min coincidences: {counts.max():.0f}/{counts.min():.0f}")
print(f"fringe visibility: {vis:.3f}")

fit = cosine_fit(np.arange(STEPS, dtype=float), counts / counts.max())
print(f"cosine fit: a={fit.a:+.4f}, b={fit.b:.4f}, c={fit.c:+.4f}, "
      f"d={fit.d:.4f} (rms residual {fit.residual:.4f})")
print(f"fitted period: {2 * np.pi / fit.b:.2f} steps (true: {STEPS})")
