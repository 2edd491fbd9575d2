"""The bin-bootstrap pipeline on a synthetic sensing run.

Simulates binned coincidence counts at the operating point and the two
shifted phases, resamples each setting once, and derives the expectation
value, single-shot variance, slope and estimator-variance ratio from the
same replicates, comparing each against the ideal values.
"""

import numpy as np

from wgstate import (BinnedCounts, bootstrap_sensing, encoding_unitary,
                     outcome_probabilities, pauli_observable, sense,
                     simulate_counts, weighted_graph_state)
from wgstate.qmath import PureState2Q

PHI12, RATE, DURATION, N_BINS = np.pi, 150.0, 10.0, 6
H_SHIFT = np.radians(5.0)
REPLICATES = 10000

state = weighted_graph_state(PHI12)
obs = pauli_observable("Z", "Y")


def binned(theta, seed0):
    amps = encoding_unitary(theta) @ state.amplitudes
    probs = outcome_probabilities(PureState2Q(amps), obs)
    return BinnedCounts([simulate_counts(probs, RATE, DURATION, seed=seed0 + i)
                         for i in range(N_BINS)], DURATION)


center = binned(0.0, 100)
plus = binned(+H_SHIFT, 200)
minus = binned(-H_SHIFT, 300)

ideal = sense(state, obs)
boot = bootstrap_sensing(center, plus, minus, H_SHIFT, obs.weights,
                         mu=REPLICATES, seed=1)

print(f"weight pi, Z(x)Y, {N_BINS} bins x {RATE:.0f} cps x {DURATION:.0f} s, "
      f"{REPLICATES} bootstrap replicates")
print(f"{'quantity':22s} {'bootstrap mean':>14s} {'95% CI':>22s} {'ideal':>8s}")
rows = [("expectation", boot.expectation, ideal.expectation),
        ("single-shot variance", boot.single_shot_variance,
         ideal.single_shot_variance),
        ("slope", boot.derivative, ideal.derivative_magnitude),
        ("estimator variance", boot.estimator_variance,
         ideal.estimator_variance)]
for name, res, truth in rows:
    ci = f"[{res.ci_low:+.4f}, {res.ci_high:+.4f}]"
    print(f"{name:22s} {res.mean:+14.4f} {ci:>22s} {truth:+8.4f}")

nu = center.total
print()
print(f"shot-noise scale: nu = {nu} pooled counts, so the expectation's "
      f"sampling noise ~ 1/sqrt(nu) = {1 / np.sqrt(nu):.4f}")
print(f"clamped ratio replicates: {boot.estimator_variance.n_clamped} of {REPLICATES}")
