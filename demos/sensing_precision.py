"""Phase-estimation precision across the weight range.

For each graph weight: the quantum Fisher information bound, the best
local Pauli product from the exhaustive search, and the best general-
axis product from the deterministic general-axis search, with the lab
waveplate angles that would realize the latter's projectors.
"""

import numpy as np

from wgstate import (general_axis_search, limits, pauli_search,
                     qfi_closed_form, solve_projector_waveplates)

sql, hl = limits()
print(f"standard quantum limit {sql}, Heisenberg limit {hl}")
print()
print("weight/pi   QCRB    Pauli best        (Dth)^2   general (Dth)^2   |slope|")
for k in range(8, -1, -1):
    phi12 = k * np.pi / 8
    qcrb = 1.0 / qfi_closed_form(phi12)
    pauli_obs, pauli_res = pauli_search(phi12)
    gen_obs, gen_res = general_axis_search(phi12)
    labels = "(x)".join(pauli_obs.pauli_labels)
    below = "  < SQL" if gen_res.estimator_variance < sql else ""
    print(f"  {phi12 / np.pi:5.3f}   {qcrb:6.4f}   {labels:5s} "
          f"          {pauli_res.estimator_variance:7.4f}   "
          f"{gen_res.estimator_variance:9.4f}      {gen_res.derivative_magnitude:6.4f}{below}")

print()
print("=== realizing the maximal-weight optimum ===")
obs, res = general_axis_search(np.pi)
b1, a1, b2, a2 = obs.axis_angles
print(f"axes: photon 1 (beta, alpha) = ({np.degrees(b1):.2f}, {np.degrees(a1):.2f}) deg, "
      f"photon 2 = ({np.degrees(b2):.2f}, {np.degrees(a2):.2f}) deg")
for photon, (beta, alpha) in enumerate(((b1, a1), (b2, a2)), start=1):
    for outcome in "+-":
        s = solve_projector_waveplates(beta, alpha, outcome)
        print(f"  photon {photon} '{outcome}': HWP {s.hwp_deg:7.2f} deg, "
              f"QWP {s.qwp_deg:7.2f} deg (residual {s.residual:.1e})")
