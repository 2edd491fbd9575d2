"""Dense complex linear algebra for one and two polarization qubits.

Conventions used throughout the package:

* computational basis |0> = |H>, |1> = |V>;
* photon 1 is always the left tensor factor, so a two-qubit amplitude
  vector is ordered |00>, |01>, |10>, |11>;
* "operators" are plain complex ndarrays of shape (2, 2) or (4, 4);
* the Pauli correlation matrix T_ij = Tr(sigma_i (x) sigma_j rho), over
  (I, X, Y, Z) per photon, gives rho = sum_ij T_ij sigma_i (x) sigma_j / 4
  (Fano, Rev. Mod. Phys. 55, 855, 1983).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}
# sigma_i (x) sigma_j over (I, X, Y, Z) per photon: (4, 4, 4, 4), indexed
# [i, j] then the 4 x 4 operator
PAULI_PRODUCTS = np.kron(np.array([I2, X, Y, Z])[:, None], np.array([I2, X, Y, Z])[None])

# single-photon polarization kets
KET_H = np.array([1, 0], dtype=complex)
KET_V = np.array([0, 1], dtype=complex)
KET_D = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_A = np.array([1, -1], dtype=complex) / np.sqrt(2)
KET_L = np.array([1, 1j], dtype=complex) / np.sqrt(2)
KET_R = np.array([1, -1j], dtype=complex) / np.sqrt(2)
POLARIZATION_KETS = {"H": KET_H, "V": KET_V, "D": KET_D, "A": KET_A,
                     "L": KET_L, "R": KET_R}


class NonPhysicalStateError(ValueError):
    """Raised when a matrix fails the density-matrix checks."""


@dataclass(frozen=True)
class PureState2Q:
    """Normalized two-qubit pure state.

    ``amplitudes`` holds the four complex coefficients in the order
    |00>, |01>, |10>, |11> with photon 1 as the left factor. The input
    is normalized on construction; a vector of zero norm, or with a
    non-finite amplitude, is rejected.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(4)
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero-amplitude state")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi|."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureState2Q") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Physical two-qubit density matrix.

    Construction requires finite entries, validates Hermiticity and unit
    trace to 1e-10 and requires all eigenvalues >= -1e-10; anything else
    raises :class:`NonPhysicalStateError`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise NonPhysicalStateError(f"expected a 4x4 matrix, got {m.shape}")
        if not np.isfinite(m).all():
            raise NonPhysicalStateError("matrix has a non-finite entry")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise NonPhysicalStateError("matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_ATOL or abs(np.trace(m).imag) > TRACE_ATOL:
            raise NonPhysicalStateError("trace differs from 1")
        if np.linalg.eigvalsh(m).min() < EIGENVALUE_FLOOR:
            raise NonPhysicalStateError("matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def as_density(state) -> np.ndarray:
    """Return the 4x4 matrix of a PureState2Q, DensityMatrix or raw array;
    a raw array is checked as the state class of its shape checks it."""
    if isinstance(state, PureState2Q):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    if isinstance(state, DensityMatrix):
        return state.matrix
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (4,):
        return as_density(PureState2Q(arr))
    if arr.shape == (4, 4):
        return DensityMatrix(arr).matrix
    raise ValueError(f"cannot interpret shape {arr.shape} as a two-qubit state")


def tensor(a, b) -> np.ndarray:
    """Kronecker product with qubit 1 (photon 1) leftmost."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_hermitian(op, atol: float = HERMITICITY_ATOL) -> bool:
    op = np.asarray(op)
    return bool(np.max(np.abs(op - op.conj().T)) <= atol)


def _states(rho) -> np.ndarray:
    """The matrix of one state (``as_density``), or a stack (..., 4, 4) of
    density matrices with more than two axes, taken as given."""
    if isinstance(rho, np.ndarray) and rho.ndim > 2 and rho.shape[-2:] == (4, 4):
        return rho
    return as_density(rho)


def _scalar_or_stack(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def fidelity(rho, target: PureState2Q):
    """Overlap <target|rho|target> (Uhlmann fidelity for a pure target),
    clipped to [0, 1]: a float for one state, an array for a stack
    (..., 4, 4) of density matrices."""
    m = _states(rho)
    psi = target.amplitudes if isinstance(target, PureState2Q) else np.asarray(target, dtype=complex)
    return _scalar_or_stack(np.clip(np.real(psi.conj() @ m @ psi), 0.0, 1.0))


_YY = np.kron(Y, Y)


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix: a float for one
    state, an array for a stack (..., 4, 4) of density matrices.

    The spin-flip spectrum values l1 >= l2 >= l3 >= l4 entering
    C = max(0, l1 - l2 - l3 - l4) are computed as the singular values
    of B^T (Y (x) Y) B with rho = B B^dag, which avoids squaring the
    matrix and stays accurate at the rank boundary. Eigenvalues of each
    matrix below 1e-14 of max(1, its largest) are treated as exact
    zeros, and a value that rounding carries above 1 is reported as 1.
    """
    m = _states(rho)
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    vals[vals < 1e-14 * np.maximum(1.0, vals[..., -1:])] = 0.0
    b = vecs * np.sqrt(vals)[..., None, :]
    lams = np.linalg.svd(np.swapaxes(b, -1, -2) @ _YY @ b, compute_uv=False)
    spread = lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]
    return _scalar_or_stack(np.clip(spread, 0.0, 1.0))


def expectation(obs, state) -> float:
    """Expectation value Tr(obs rho) of a Hermitian observable."""
    op = np.asarray(obs, dtype=complex)
    if not is_hermitian(op):
        raise ValueError("observable is not Hermitian")
    m = as_density(state)
    val = np.trace(op @ m)
    return float(val.real)


def pauli_correlations(rho) -> np.ndarray:
    """Re Tr(sigma_i (x) sigma_j rho) of 4 x 4 matrices over leading axes:
    (..., 4, 4) -> (..., 4, 4), indexed [i, j] over (I, X, Y, Z)."""
    return np.einsum("ijab,...ba->...ij", PAULI_PRODUCTS, rho).real


def trace_distance(rho_a, rho_b) -> float:
    """Half the trace norm of the difference of two states."""
    diff = as_density(rho_a) - as_density(rho_b)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
