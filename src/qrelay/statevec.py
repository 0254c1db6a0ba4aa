"""Dense pure-state and density-matrix numerics for small qubit registers.

Conventions shared by the whole package: qubit 1 is the leftmost bit of a
basis label and the most significant bit of an amplitude index, and public
qubit arguments are 1-based. Constructed values are immutable; their arrays
are marked read-only.
"""

from __future__ import annotations

from collections.abc import Iterable
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

    ``num_qubits == 0`` is allowed: it is the scalar left over after
    measuring away an entire register, and its single amplitude carries the
    branch phase.
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


def _check_qubit(qubit: int, num_qubits: int) -> None:
    if not 1 <= qubit <= num_qubits:
        raise ValueError(f"qubit {qubit} out of range 1..{num_qubits}")


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

    @classmethod
    def from_weighted_states(cls, pairs: Iterable[tuple[float, StateVector]]) -> DensityMatrix:
        """Weighted projector sum over (weight, pure state) pairs."""
        entries = None
        num_qubits = None
        for weight, state in pairs:
            term = weight * np.outer(state.amps, state.amps.conj())
            if entries is None:
                entries, num_qubits = term, state.num_qubits
            else:
                if state.num_qubits != num_qubits:
                    raise ValueError("mixture states must share a qubit count")
                entries = entries + term
        if entries is None:
            raise ValueError("mixture must be nonempty")
        return cls(num_qubits, entries)

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


def reduced_density(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace keeping the given qubits (ascending order)."""
    keep_list = sorted(set(keep))
    if not keep_list:
        raise ValueError("keep set must be nonempty")
    for q in keep_list:
        _check_qubit(q, state.num_qubits)
    n = state.num_qubits
    keep_axes = [q - 1 for q in keep_list]
    drop_axes = [ax for ax in range(n) if ax not in keep_axes]
    psi = state.amps.reshape([2] * n).transpose(keep_axes + drop_axes)
    mat = psi.reshape(1 << len(keep_axes), -1)
    return DensityMatrix(len(keep_axes), mat @ mat.conj().T)


def trace_distance(r: DensityMatrix, s: DensityMatrix) -> float:
    """Half the trace norm of r - s."""
    if r.num_qubits != s.num_qubits:
        raise ValueError(f"qubit counts differ: {r.num_qubits} vs {s.num_qubits}")
    eigs = np.linalg.eigvalsh(r.entries - s.entries)
    return float(0.5 * np.abs(eigs).sum())
