"""Dense pure-state and density-matrix numerics for small qubit registers.

Conventions shared by the whole package: qubit 1 is the leftmost bit of a
basis label and the most significant bit of an amplitude index, and public
qubit arguments are 1-based. Constructed values are immutable; their arrays
are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_QUBIT_CAP = 20
NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
EIGVAL_FLOOR = -1e-10


class CapacityError(ValueError):
    """An operation would exceed the configured qubit budget."""


def _frozen_array(values, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of ``num_qubits`` qubits as ``2**num_qubits`` amplitudes.

    ``num_qubits == 0`` is allowed: a single unit amplitude, a scalar
    phase.
    """

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        amps = _frozen_array(self.amps, (1 << self.num_qubits,))
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= NORM_ATOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq}")
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state over ``num_qubits`` qubits; validated on construction
    (Hermitian, unit trace, eigenvalues above round-off of zero)."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        dim = 1 << self.num_qubits
        entries = _frozen_array(self.entries, (dim, dim))
        if not np.allclose(entries, entries.conj().T, rtol=0.0, atol=HERMITIAN_ATOL):
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(entries))
        if not abs(trace - 1.0) <= NORM_ATOL:
            raise ValueError(f"density matrix trace is {trace}, expected 1")
        if not float(np.linalg.eigvalsh(entries).min()) >= EIGVAL_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", entries)

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


def trace_distance(r: DensityMatrix, s: DensityMatrix) -> float:
    """Half the trace norm of r - s."""
    if r.num_qubits != s.num_qubits:
        raise ValueError(f"qubit counts differ: {r.num_qubits} vs {s.num_qubits}")
    eigs = np.linalg.eigvalsh(r.entries - s.entries)
    return float(0.5 * np.abs(eigs).sum())
