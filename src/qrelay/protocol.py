"""Two-phase relay protocol: distribute a qubit across n parties, then
concentrate it back onto a single receiver.

Distribution: the sender holds the unknown qubit (register 1) and the
channel endpoint (register 2), measures the pair in the Bell basis, and
broadcasts the outcome; each party applies a local correction. The
surviving n-qubit register then encodes the input over the channel's
support structure.

Concentration: each party holds one qubit of the distributed state and one
qubit of a fresh receiver-side channel, measures its pair in the Bell
basis, and sends the outcome to the receiver, who applies one composite
correction. Branch enumeration is exhaustive (all outcome tuples with
their joint probabilities) or sampled (one trajectory drawn from them).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bell import (
    _BELL_ROWS,
    BELL_OUTCOMES,
    CORRECTION_FOR_OUTCOME,
    NULL_PROB_EPS,
    PAULI_MATRICES,
    BellOutcome,
    PauliLabel,
    _pair_rows,
    _sample_pair,
    as_rng,
    pauli_product,
)
from .channels import ChannelSpec, Endpoint, Variant, build_channel_component
from .statevec import NORM_ATOL, CapacityError, StateVector, _apply_1q, fidelity_pure, tensor

MAX_EXHAUSTIVE_PARTIES = 6

PROB_SANITY_ATOL = 1e-9


@dataclass(frozen=True)
class InputQubit:
    """The unknown single-qubit state alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm_sq - 1.0) <= 1e-10:
            raise ValueError(f"input amplitudes have |a|^2+|b|^2 = {norm_sq}, expected 1")

    def to_state(self) -> StateVector:
        return StateVector(1, np.array([self.alpha, self.beta], dtype=complex))


def random_input(rng) -> InputQubit:
    gen = as_rng(rng)
    vec = gen.normal(size=2) + 1j * gen.normal(size=2)
    vec /= np.linalg.norm(vec)
    return InputQubit(complex(vec[0]), complex(vec[1]))


@dataclass(frozen=True, eq=False)
class BranchState:
    """One measurement branch: the post-correction state (None when the
    branch has zero probability), its joint probability including mixture
    weights, the Bell outcomes that produced it (sender first, then parties
    1..n) and the receiver's correction (None before concentration)."""

    state: StateVector | None
    joint_prob: float
    outcomes: tuple[BellOutcome, ...] = ()
    correction: PauliLabel | None = None
    component_index: int = 0


@dataclass(slots=True)
class OutcomeReport:
    """Flattened record of one end-to-end branch: a plain slotted record,
    not frozen or hashable, built in bulk from each block's columns."""

    component_index: int
    alice_outcome: BellOutcome
    bob_outcomes: tuple[BellOutcome, ...]
    joint_prob: float
    correction: PauliLabel | None
    fidelity: float | None

    def to_json(self) -> dict:
        return {
            "component": self.component_index,
            "alice": self.alice_outcome.value,
            "bobs": [o.value for o in self.bob_outcomes],
            "joint_prob": self.joint_prob,
            "correction": self.correction.value if self.correction else None,
            "fidelity": self.fidelity,
        }


def distribution_correction(
    variant: Variant, outcome: BellOutcome, n_parties: int
) -> tuple[PauliLabel, ...]:
    """Local correction each party applies after the sender's broadcast.

    Parity channels need the same Pauli at every party. Staircase channels
    concentrate the phase on party 1 and the bit flip everywhere: only the
    first support bit can differ between supports (it alternates along the
    staircase), so the phase correction must act there, while the flip
    pattern is uniform. Custom channels reuse the parity rule.
    """
    uniform = CORRECTION_FOR_OUTCOME[outcome]
    if variant is not Variant.DOMINO:
        return (uniform,) * n_parties
    if outcome is BellOutcome.PHI_PLUS:
        return (PauliLabel.I,) * n_parties
    if outcome is BellOutcome.PHI_MINUS:
        return (PauliLabel.Z,) + (PauliLabel.I,) * (n_parties - 1)
    if outcome is BellOutcome.PSI_PLUS:
        return (PauliLabel.X,) * n_parties
    return (PauliLabel.Y,) + (PauliLabel.X,) * (n_parties - 1)


_MINUS_TYPES = frozenset({BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS})
_FLIP_TYPES = frozenset({BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS})


def concentration_correction(variant: Variant, outcomes) -> PauliLabel:
    """Single receiver-side correction folding all parties' outcomes.

    For parity channels each outcome contributes its own Pauli and the
    product collapses them. For staircase channels only party 1's outcome
    decides the bit flip (its support bit is the only one that varies), and
    the phase flips once per minus-signed outcome anywhere.
    """
    outcomes = tuple(outcomes)
    if not outcomes:
        raise ValueError("at least one outcome required")
    if variant is Variant.DOMINO:
        flips = 1 if outcomes[0] in _FLIP_TYPES else 0
        phases = sum(1 for o in outcomes if o in _MINUS_TYPES)
        return pauli_product([PauliLabel.X] * flips + [PauliLabel.Z] * (phases % 2))
    return pauli_product([CORRECTION_FOR_OUTCOME[o] for o in outcomes])


def _check_mode(mode: str, seed) -> None:
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "sampled" and seed is None:
        raise ValueError("sampled mode needs a seed or Generator")


def distribute(
    input_qubit: InputQubit, channel: ChannelSpec, mode: str = "exhaustive", seed=None
) -> list[BranchState]:
    """Run the distribution phase.

    Returns one BranchState per (component, sender outcome) in exhaustive
    mode — outcomes in Bell order within each component — or a single drawn
    branch in sampled mode.
    """
    _check_mode(mode, seed)
    if channel.endpoint is not Endpoint.SENDER_FIRST:
        raise ValueError("distribution needs a sender-side channel (endpoint 'sender')")
    n = channel.n_parties
    input_state = input_qubit.to_state()

    branches: list[BranchState] = []
    for ci, comp in enumerate(channel.components):
        comp_state = build_channel_component(comp, channel.variant, Endpoint.SENDER_FIRST, n)
        joint = tensor(input_state, comp_state)
        rows = _pair_rows(joint.amps, joint.num_qubits, 1, 2)
        for outcome in BELL_OUTCOMES:
            row = rows[outcome.index]
            raw = float(np.real(np.vdot(row, row)))
            if channel.faithfulness_guaranteed and not abs(4.0 * raw - 1.0) < PROB_SANITY_ATOL:
                raise ValueError(
                    f"outcome {outcome.value} has conditional probability {raw}, expected 1/4"
                )
            if raw < NULL_PROB_EPS:
                branches.append(BranchState(None, comp.weight * raw, (outcome,), None, ci))
                continue
            amps = row / math.sqrt(raw)
            for i, label in enumerate(distribution_correction(channel.variant, outcome, n)):
                if label is not PauliLabel.I:
                    amps = _apply_1q(amps, n, i + 1, PAULI_MATRICES[label])
            branches.append(
                BranchState(StateVector(n, amps), comp.weight * raw, (outcome,), None, ci)
            )

    if mode == "exhaustive":
        return branches
    gen = as_rng(seed)
    probs = np.array([b.joint_prob for b in branches])
    pick = int(gen.choice(len(branches), p=probs / probs.sum()))
    return [branches[pick]]


@lru_cache(maxsize=None)
def _outcome_table(
    variant: Variant, n: int
) -> tuple[tuple[tuple[BellOutcome, ...], ...], tuple[PauliLabel, ...]]:
    """Two parallel columns: every concentration outcome tuple in
    lexicographic Bell order (party 1 most significant), and its receiver
    correction."""
    outcomes = tuple(itertools.product(BELL_OUTCOMES, repeat=n))
    return outcomes, tuple(concentration_correction(variant, o) for o in outcomes)


@lru_cache(maxsize=None)
def _correction_stack(variant: Variant, n: int) -> np.ndarray:
    """The receiver Pauli of every ``_outcome_table`` row, as a read-only
    (4**n, 2, 2) array."""
    stack = np.array([PAULI_MATRICES[label] for label in _outcome_table(variant, n)[1]])
    stack.setflags(write=False)
    return stack


def _all_pair_rows(amps: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized receiver vectors of every concentration outcome, as the
    rows of a (4**n, 2) array in ``_outcome_table`` order.

    The joint register is (party qubits 1..n, channel qubits n+1..2n,
    receiver 2n+1). Moving each pair (i, n+i) onto adjacent axes makes the
    n simultaneous Bell measurements one Bell-bra contraction per pair axis.
    """
    order = [ax for i in range(n) for ax in (i, n + i)] + [2 * n]
    psi = amps.reshape([2] * (2 * n + 1)).transpose(order)
    bras = _BELL_ROWS.conj()
    for k in range(n):
        psi = bras @ psi.reshape(4**k, 4, -1)
    return psi.reshape(4**n, 2)


def _finish_rows(rows: np.ndarray, paulis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finish a block of unnormalized receiver rows: (raw Born probability
    of each row, corrected and normalized receiver vectors).

    ``paulis[k]`` is row k's receiver correction. A row is live unless its
    raw probability is below ``NULL_PROB_EPS``; null rows keep their
    corrected but unnormalized vector, which callers must not read. Every
    live vector must come out normalized to within ``NORM_ATOL``, the same
    check a ``StateVector`` makes.
    """
    raw = np.einsum("kj,kj->k", rows.conj(), rows).real
    live = ~(raw < NULL_PROB_EPS)
    vecs = np.einsum("kij,kj->ki", paulis, rows) / np.sqrt(np.where(live, raw, 1.0))[:, None]
    norms = np.einsum("kj,kj->k", vecs.conj(), vecs).real[live]
    if not np.all(np.abs(norms - 1.0) <= NORM_ATOL):
        raise ValueError("concentrated receiver state not normalized")
    return raw, vecs


def _exhaustive_blocks(bobs: BranchState, channel: ChannelSpec):
    """Every outcome of each receiver component, one block per component.
    This is the one place exhaustive branches are evaluated."""
    n = channel.n_parties
    if n > MAX_EXHAUSTIVE_PARTIES:
        raise CapacityError(
            f"exhaustive enumeration capped at {MAX_EXHAUSTIVE_PARTIES} parties, got {n}"
        )
    outcomes, labels = _outcome_table(channel.variant, n)
    paulis = _correction_stack(channel.variant, n)
    for cj, comp in enumerate(channel.components):
        comp_state = build_channel_component(comp, channel.variant, Endpoint.RECEIVER_LAST, n)
        rows = _all_pair_rows(tensor(bobs.state, comp_state).amps, n)
        raw, vecs = _finish_rows(rows, paulis)
        index = bobs.component_index * len(channel.components) + cj
        yield index, bobs.joint_prob * comp.weight * raw, raw, vecs, outcomes, labels


def _sampled_block(bobs: BranchState, channel: ChannelSpec, gen: np.random.Generator):
    """One trajectory drawn under the Born rule, as a one-row block; no
    block when every outcome of a step is null."""
    n = channel.n_parties
    n_comps = len(channel.components)
    cj = 0
    if n_comps > 1:
        weights = np.array([c.weight for c in channel.components])
        cj = int(gen.choice(n_comps, p=weights / weights.sum()))
    comp = channel.components[cj]
    comp_state = build_channel_component(comp, channel.variant, Endpoint.RECEIVER_LAST, n)
    amps = tensor(bobs.state, comp_state).amps
    outcomes: tuple[BellOutcome, ...] = ()
    for step in range(n):
        # After `step` measurements the live registers are
        # (bob qubits step+1..n, channel qubits n+1..2n+1), so the
        # next pair sits at positions (1, n-step+1) of 2n+1-2*step.
        drawn = _sample_pair(amps, 2 * n + 1 - 2 * step, 1, n - step + 1, gen)
        if drawn is None:
            return []
        pick, amps = drawn
        outcomes += (BELL_OUTCOMES[pick],)
    label = concentration_correction(channel.variant, outcomes)
    raw, vecs = _finish_rows(amps[None, :], PAULI_MATRICES[label][None])
    index = bobs.component_index * n_comps + cj
    return [(index, bobs.joint_prob * comp.weight * raw, raw, vecs, (outcomes,), (label,))]


def _concentration_blocks(bobs: BranchState, channel: ChannelSpec, mode: str, gen):
    """The concentration phase's finished branches, as array blocks: every
    outcome in exhaustive mode, one trajectory drawn from ``gen`` in sampled
    mode.

    Each block is (flattened component index, joint probabilities, raw
    probabilities, corrected receiver vectors, each row's party outcomes, each
    row's receiver correction). A row whose raw probability is below
    ``NULL_PROB_EPS`` is a null branch and its vector is meaningless.
    """
    if channel.endpoint is not Endpoint.RECEIVER_LAST:
        raise ValueError("concentration needs a receiver-side channel (endpoint 'receiver')")
    if bobs.state is None:
        raise ValueError("cannot concentrate a zero-probability branch")
    n = channel.n_parties
    if bobs.state.num_qubits != n:
        raise ValueError(
            f"distributed state has {bobs.state.num_qubits} qubits, channel expects {n}"
        )
    if mode == "exhaustive":
        return _exhaustive_blocks(bobs, channel)
    return _sampled_block(bobs, channel, gen)


def concentrate(
    bobs: BranchState, channel: ChannelSpec, mode: str = "exhaustive", seed=None
) -> list[BranchState]:
    """Run the concentration phase on a distributed branch.

    Registers are ordered (bob qubits 1..n, channel qubits n+1..2n+1):
    party i measures the pair (i, n+i) and the receiver holds qubit 2n+1.
    Exhaustive mode returns all 4^n outcome tuples per component, from one
    rewrite of the joint state in the Bell basis of every pair.
    """
    _check_mode(mode, seed)
    gen = as_rng(seed) if mode == "sampled" else None
    return [
        BranchState(
            None if r < NULL_PROB_EPS else StateVector(1, vec),
            p, bobs.outcomes + outcomes, label, index,
        )
        for index, joint, raw, vecs, column, labels in _concentration_blocks(bobs, channel, mode, gen)
        for r, p, vec, outcomes, label in zip(raw.tolist(), joint.tolist(), vecs, column, labels)
    ]


def report_from_branch(branch: BranchState, input_state: StateVector) -> OutcomeReport:
    """Summarize a fully concentrated branch against the original input."""
    fidelity = None
    if branch.state is not None and branch.joint_prob > NULL_PROB_EPS:
        fidelity = fidelity_pure(branch.state, input_state)
    return OutcomeReport(
        component_index=branch.component_index,
        alice_outcome=branch.outcomes[0],
        bob_outcomes=branch.outcomes[1:],
        joint_prob=branch.joint_prob,
        correction=branch.correction,
        fidelity=fidelity,
    )


def run_end_to_end(
    input_qubit: InputQubit,
    dist_channel: ChannelSpec,
    conc_channel: ChannelSpec,
    mode: str = "exhaustive",
    seed=None,
) -> list[OutcomeReport]:
    """Distribute then concentrate, reporting every branch (or one sampled
    trajectory) with its fidelity against the input."""
    _check_mode(mode, seed)
    if dist_channel.n_parties != conc_channel.n_parties:
        raise ValueError(
            f"party mismatch: distribution has {dist_channel.n_parties}, "
            f"concentration has {conc_channel.n_parties}"
        )
    families = {dist_channel.variant, conc_channel.variant} - {Variant.CUSTOM}
    if len(families) > 1:
        raise ValueError("distribution and concentration channels use different support families")

    gen = as_rng(seed) if mode == "sampled" else None
    input_state = input_qubit.to_state()
    n_conc = len(conc_channel.components)

    reports: list[OutcomeReport] = []
    for db in distribute(input_qubit, dist_channel, mode, gen):
        if db.state is None:
            index = db.component_index * n_conc
            reports.append(OutcomeReport(index, db.outcomes[0], (), db.joint_prob, None, None))
            continue
        alice = db.outcomes[0]
        for index, joint, raw, vecs, outcomes, labels in _concentration_blocks(
            db, conc_channel, mode, gen
        ):
            fids = np.abs(vecs.conj() @ input_state.amps) ** 2
            live = ~(raw < NULL_PROB_EPS) & ~(joint <= NULL_PROB_EPS)
            reports.extend(map(
                OutcomeReport, itertools.repeat(index), itertools.repeat(alice), outcomes,
                joint.tolist(), labels, np.where(live, fids, None).tolist(),
            ))
    return reports
