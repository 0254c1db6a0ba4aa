"""Bell-basis construction, Bell-pair projective measurement, and the Pauli
labels and (x, z) bits that outcome-driven corrections are stated on."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .statevec import StateVector

NULL_PROB_EPS = 1e-14


class BellOutcome(Enum):
    """The four Bell-pair measurement outcomes, in a fixed total order."""

    PHI_PLUS = "phi+"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_MINUS = "phi-"

    @property
    def index(self) -> int:
        return _BELL_INDEX[self]


BELL_OUTCOMES = tuple(BellOutcome)
_BELL_INDEX = {o: i for i, o in enumerate(BELL_OUTCOMES)}

# Rows follow BELL_OUTCOMES; columns are the pair basis |00>,|01>,|10>,|11>.
_BELL_ROWS = (1.0 / np.sqrt(2.0)) * np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
        [1.0, 0.0, 0.0, -1.0],
    ],
    dtype=complex,
)
_BELL_ROWS.setflags(write=False)
_BELL_BRAS = _BELL_ROWS.conj()  # the bras <Bell_k| that project a pair, row k
_BELL_BRAS.setflags(write=False)


class PauliLabel(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"


PAULI_MATRICES = {
    PauliLabel.I: np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    PauliLabel.X: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    PauliLabel.Y: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    PauliLabel.Z: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
for _mat in PAULI_MATRICES.values():
    _mat.setflags(write=False)

# Phase-forgetting symplectic encoding: label ~ X^x Z^z up to a phase.
_TO_XZ = {
    PauliLabel.I: (0, 0),
    PauliLabel.X: (1, 0),
    PauliLabel.Y: (1, 1),
    PauliLabel.Z: (0, 1),
}
_FROM_XZ = {xz: label for label, xz in _TO_XZ.items()}

# Byproduct correction undoing each Bell outcome in the teleportation step.
CORRECTION_FOR_OUTCOME = {
    BellOutcome.PHI_PLUS: PauliLabel.I,
    BellOutcome.PSI_PLUS: PauliLabel.X,
    BellOutcome.PSI_MINUS: PauliLabel.Y,
    BellOutcome.PHI_MINUS: PauliLabel.Z,
}


def bell_vector(outcome: BellOutcome) -> StateVector:
    """The normalized 2-qubit vector for one Bell outcome."""
    return StateVector(2, _BELL_ROWS[outcome.index])


def as_rng(rng) -> np.random.Generator:
    """Accept a seed or a Generator; Generators pass through for sequential
    draws, anything else seeds a fresh one."""
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


_PICK_ATOL = float(np.finfo(float).eps) ** 0.5  # how far from 1 Generator.choice lets p sum


def _born_pick(p, gen: np.random.Generator) -> int:
    """``int(Generator.choice(len(p), p=p))`` for a 1-D float ``p``, without its argument
    handling: the same cdf, summed in order by ``cumsum`` and divided by its last entry,
    searched on the right at one ``gen.random()``, so the index and the generator's stream
    are unchanged, and a pick among 2^n entries runs in numpy. Refuses what ``choice``
    refuses: a NaN, a negative entry or a sum over sqrt(eps) from 1."""
    p = np.asarray(p, dtype=float)
    if p.min() < 0.0:
        raise ValueError(f"probabilities must be non-negative, got least {p.min()}")
    return _cdf_pick(p, gen)


def _cdf_pick(p: np.ndarray, gen: np.random.Generator) -> int:
    """``_born_pick`` on a float array ``p`` with no negative entry: its cdf, sum check and search."""
    cdf = p.cumsum()
    if not abs(cdf[-1] - 1.0) <= _PICK_ATOL:
        raise ValueError(f"probabilities must sum to 1, got sum {cdf[-1]}")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(gen.random(), side="right"))


def _born_draw(p: np.ndarray, gen: np.random.Generator) -> int | None:
    """Born-rule pick among unnormalized probabilities ``p`` (any shape, read flat), each
    below ``NULL_PROB_EPS`` taken as 0: the index ``_born_pick`` picks on them normalized,
    or None when every entry is null. The floor leaves no negative entry, so the pick skips
    ``_born_pick``'s conversion and sign check; a NaN passes the floor and the sum, and the
    sum check refuses it."""
    p = np.where(p < NULL_PROB_EPS, 0.0, p)
    total = p.sum()
    if total <= 0.0:
        return None
    p /= total
    return _cdf_pick(p, gen)
