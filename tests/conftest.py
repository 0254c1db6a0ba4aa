"""Shared brute-force helpers.

These deliberately recompute linear algebra with plain index loops so the
package's vectorized implementations are checked against something dumber
than themselves.
"""

import numpy as np


def random_state(rng, num_qubits):
    """Normalized complex Gaussian amplitude vector. Qubit 1 is the most
    significant bit of the index."""
    vec = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return vec / np.linalg.norm(vec)


def brute_apply_1q(amps, num_qubits, qubit, mat):
    """Apply a 2x2 matrix to one qubit by per-index bit surgery."""
    out = np.zeros_like(amps, dtype=complex)
    shift = num_qubits - qubit
    for i in range(len(amps)):
        b = (i >> shift) & 1
        base = i & ~(1 << shift)
        for nb in (0, 1):
            out[base | (nb << shift)] += mat[nb, b] * amps[i]
    return out


def equal_up_to_phase(a, b, atol=1e-10):
    """Whether two vectors/matrices agree up to one global complex phase."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        return False
    pivot = int(np.argmax(np.abs(a)))
    if abs(a[pivot]) < atol and abs(b[pivot]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    if abs(b[pivot]) < atol:
        return False
    phase = a[pivot] / b[pivot]
    if abs(abs(phase) - 1.0) > 1e-8:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))
