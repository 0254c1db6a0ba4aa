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

``_branch_rows`` is the one way into concentration: exhaustive runs go
through ``_exhaustive_blocks``, sampled ones through ``_sampled_block``.
``run_end_to_end`` turns its rows into reports; the CLI writes them as text.
``distribute`` exposes the distribution phase on its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bell import (
    _BELL_BRAS,
    BELL_OUTCOMES,
    CORRECTION_FOR_OUTCOME,
    NULL_PROB_EPS,
    PAULI_MATRICES,
    BellOutcome,
    PauliLabel,
    _born_pick,
    _draw_outcome,
    as_rng,
    pauli_product,
)
from .channels import ChannelSpec, Component, Endpoint, Variant, build_channel_component
from .statevec import DEFAULT_QUBIT_CAP, NORM_ATOL, CapacityError, StateVector

MAX_EXHAUSTIVE_PARTIES = 6

# Exhaustive concentration stacks joint states and finishes them in blocks of
# at most this many amplitudes: one joint state at the party cap, so a stack
# never needs more memory than the largest single state.
_BLOCK_AMPS = 1 << (2 * MAX_EXHAUSTIVE_PARTIES + 1)

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
    """One distribution branch: the corrected party state (None when the
    branch has zero probability), its joint probability including the
    component weight, the sender's Bell outcome as a one-tuple, and the
    sender component it came from."""

    state: StateVector | None
    joint_prob: float
    outcomes: tuple[BellOutcome, ...]
    component_index: int


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


def _check_receiver_side(channel: ChannelSpec) -> None:
    if channel.endpoint is not Endpoint.RECEIVER_LAST:
        raise ValueError("concentration needs a receiver-side channel (endpoint 'receiver')")


# 32 entries hold every component of the channel pairs one check uses; a
# check over larger mixtures still works, rebuilding what it evicts.
@lru_cache(maxsize=32)
def _channel_state(component: Component, variant: Variant, endpoint: Endpoint, n: int) -> StateVector:
    """``build_channel_component``, cached: a multi-trial check builds each
    channel component once."""
    return build_channel_component(component, variant, endpoint, n)


def _pauli_frame(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A Pauli as a read-only permutation and phase, ``mat @ v == phase * v[perm]``: one
    nonzero entry per row, 0, +-1 or +-i, so the products are exact."""
    perm = np.arange(2) ^ int(mat[0, 0] == 0)
    phase = mat[[0, 1], perm]
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


# Looked up per label like PAULI_MATRICES: a cache keyed by label would run Enum.__hash__ in Python.
_PAULI_FRAMES = {label: _pauli_frame(mat) for label, mat in PAULI_MATRICES.items()}


@lru_cache(maxsize=16)  # the four sender outcomes of four (variant, n) pairs
def _distribution_frame(
    variant: Variant, outcome: BellOutcome, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``distribution_correction``'s party Paulis as one basis-index
    permutation and phase vector: applying them to ``v`` gives
    ``phase * v[perm]``.

    Party i's Pauli maps basis index x to x with its bit flipped (X, Y) and
    scales it by its ``_PAULI_FRAMES`` phase at that bit; the phases are
    exact, so the result equals applying the Paulis one party at a time.
    """
    index = np.arange(1 << n)
    perm = index.copy()
    phase = np.ones(1 << n, dtype=complex)
    for i, label in enumerate(distribution_correction(variant, outcome, n)):
        pauli_perm, pauli_phase = _PAULI_FRAMES[label]
        shift = n - 1 - i
        phase *= pauli_phase[(index >> shift) & 1]
        perm ^= int(pauli_perm[0]) << shift  # 1 where the Pauli flips the bit
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


def _sender_rows(input_amps: np.ndarray, channel: ChannelSpec) -> list[tuple]:
    """Every sender outcome of every channel component, components first and
    outcomes in Bell order within each: (component index, outcome, joint
    probability, raw probability, unnormalized party row). The sender's pair,
    qubits 1 and 2, leads each input x channel state: one Bell contraction."""
    if channel.endpoint is not Endpoint.SENDER_FIRST:
        raise ValueError("distribution needs a sender-side channel (endpoint 'sender')")
    n = channel.n_parties
    if n + 2 > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"sender joint state would need {n + 2} qubits, cap is {DEFAULT_QUBIT_CAP}")
    out = []
    for ci, comp in enumerate(channel.components):
        chan = _channel_state(comp, channel.variant, Endpoint.SENDER_FIRST, n).amps
        joint = np.multiply.outer(input_amps, chan).ravel()
        if not abs(float(np.vdot(joint, joint).real) - 1.0) <= NORM_ATOL:
            raise ValueError("sender joint state not normalized")
        for outcome, row in zip(BELL_OUTCOMES, _BELL_BRAS @ joint.reshape(4, -1)):
            raw = float(np.vdot(row, row).real)
            if channel.faithfulness_guaranteed and not abs(4.0 * raw - 1.0) < PROB_SANITY_ATOL:
                raise ValueError(
                    f"outcome {outcome.value} has conditional probability {raw}, expected 1/4"
                )
            out.append((ci, outcome, comp.weight * raw, raw, row))
    return out


def _party_vector(channel: ChannelSpec, outcome: BellOutcome, raw: float, row: np.ndarray):
    """A ``_sender_rows`` row's corrected, normalized party vector; None on a null branch."""
    if raw < NULL_PROB_EPS:
        return None
    perm, phase = _distribution_frame(channel.variant, outcome, channel.n_parties)
    return phase * (row / math.sqrt(raw))[perm]


def distribute(
    input_qubit: InputQubit, channel: ChannelSpec, mode: str = "exhaustive", seed=None
) -> list[BranchState]:
    """Run the distribution phase.

    Returns one BranchState per (component, sender outcome) in exhaustive
    mode — outcomes in Bell order within each component — or a single drawn
    branch in sampled mode.
    """
    _check_mode(mode, seed)
    return _distribute(input_qubit.to_state().amps, channel, mode, seed)


def _distribute(input_amps: np.ndarray, channel: ChannelSpec, mode: str, seed) -> list[BranchState]:
    """``distribute`` on the input's amplitudes, for a caller that already holds them."""
    rows = _sender_rows(input_amps, channel)
    if mode == "sampled":  # draw first, then build the one branch drawn
        probs = np.array([row[2] for row in rows])
        rows = [rows[_born_pick(probs / probs.sum(), as_rng(seed))]]
    vecs = [_party_vector(channel, outcome, raw, row) for _, outcome, _, raw, row in rows]
    return [BranchState(None if v is None else StateVector(channel.n_parties, v), prob, (outcome,), ci)
            for (ci, outcome, prob, _, _), v in zip(rows, vecs)]


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
def _correction_frame(variant: Variant, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The receiver Paulis of the ``_outcome_table`` rows as one read-only permutation and
    phase over the flattened (row, component) axis: row k's ``_PAULI_FRAMES`` entry, shifted by 2k."""
    perms, phases = zip(*(_PAULI_FRAMES[label] for label in _outcome_table(variant, n)[1]))
    perm = (np.array(perms) + 2 * np.arange(len(perms))[:, None]).ravel()
    phase = np.concatenate(phases)
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


def _all_pair_rows(amps: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized receiver vectors of every concentration outcome of a
    stack of b joint states, (b, 2**(2n+1)), as a C-contiguous (b, 4**n, 2)
    array whose rows follow ``_outcome_table`` order.

    Each joint register is (party qubits 1..n, channel qubits n+1..2n,
    receiver 2n+1). The pairs (i, n+i) go first, then the stack axis and the
    receiver bit. Each party's Bell measurement is then one (4, 4) @ (4, N)
    Bell-bra product on the leading pair, whose outcome axis moves behind the
    earlier ones, just before the receiver bit: after n steps the layout is
    (b, o_1..o_n, receiver).
    """
    b = len(amps)
    order = [1 + ax for i in range(n) for ax in (i, n + i)] + [0, 2 * n + 1]
    psi = amps.reshape([b] + [2] * (2 * n + 1)).transpose(order)
    for _ in range(n):
        psi = (_BELL_BRAS @ psi.reshape(4, -1)).reshape(4, -1, 2).transpose(1, 0, 2)
    # Contiguous: a strided view at n = 1 rounds the norms in _finish_rows differently.
    return np.ascontiguousarray(psi.reshape(b, 4**n, 2))


def _check_normalized(vecs: np.ndarray, what: str, skip=False) -> None:
    """The check a ``StateVector`` makes, on every vector along the last
    axis of ``vecs`` but those where the mask ``skip`` is set. ``vecs`` must be
    C-contiguous: its squared norms are read from its real view, with no conjugate copy."""
    flat = vecs.view(float)
    norms = np.einsum("...j,...j->...", flat, flat)
    if not ((np.abs(norms - 1.0) <= NORM_ATOL) | skip).all():
        raise ValueError(f"{what} not normalized")


def _finish_rows(rows: np.ndarray, frame: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Finish unnormalized receiver rows, (..., K, 2): (raw Born probability
    of each row, corrected and normalized receiver vectors).

    ``frame`` applies the receiver corrections as a permutation and phase over
    the flattened (row, component) axis: ``_correction_frame`` for the rows of
    ``_outcome_table``, ``_PAULI_FRAMES[label]`` for one row. A row is live unless its
    raw probability is below ``NULL_PROB_EPS``; null rows keep their
    corrected but unnormalized vector, which callers must not read. Every
    live vector must come out normalized to within ``NORM_ATOL``.
    """
    perm, phase = frame
    raw = np.einsum("...kj,...kj->...k", rows.conj(), rows).real
    null = raw < NULL_PROB_EPS
    flat = rows.reshape(*rows.shape[:-2], -1)
    vecs = (phase * flat[..., perm]).reshape(rows.shape) / np.sqrt(np.where(null, 1.0, raw))[..., None]
    _check_normalized(vecs, "concentrated receiver state", skip=null)
    return raw, vecs


def _exhaustive_blocks(states: np.ndarray, channel: ChannelSpec):
    """Every concentration outcome of each (party state, receiver component)
    pair, for a stack of normalized n-party states. The joint states are
    stacked state by state, components in order within each, and finished
    in blocks of at most ``_BLOCK_AMPS`` amplitudes. Yields (raw, vecs) per
    block: (b, 4**n) raw probabilities and (b, 4**n, 2) corrected receiver
    vectors, rows in ``_outcome_table`` order.

    This is the one place exhaustive branches are evaluated.
    """
    n = channel.n_parties
    if n > MAX_EXHAUSTIVE_PARTIES:
        raise CapacityError(
            f"exhaustive enumeration capped at {MAX_EXHAUSTIVE_PARTIES} parties, got {n}"
        )
    _check_normalized(states, "distributed state")
    receivers = np.array([
        _channel_state(comp, channel.variant, Endpoint.RECEIVER_LAST, n).amps
        for comp in channel.components
    ])
    frame = _correction_frame(channel.variant, n)
    which_state, which_comp = np.divmod(np.arange(len(states) * len(receivers)), len(receivers))
    per_block = _BLOCK_AMPS >> (2 * n + 1)
    for start in range(0, len(which_state), per_block):
        s = which_state[start:start + per_block]
        c = which_comp[start:start + per_block]
        joint = (states[s, :, None] * receivers[c, None, :]).reshape(len(s), -1)
        _check_normalized(joint, "joint state")
        yield _finish_rows(_all_pair_rows(joint, n), frame)


# Plans for 8 starts. Step 1 places at most 2^n x 2^(n+1) amplitudes and each later step a quarter
# as many: a plan holds at most 5.4 MiB of indices at n = 9, 43 MiB for all 8; staircases < 20 KiB.
@lru_cache(maxsize=8)
def _step_plan(pkeys: bytes, ckeys: bytes, n: int) -> tuple:
    """Every Bell step of a trajectory whose joint state starts on the sorted party and
    channel keys ``pkeys`` and ``ckeys`` (intp bytes) of n and n + 1 bits: per step, each
    amplitude's flat index in the (2, 2, r, c) grid of top party bit, top channel bit and
    the r and c keys left (None when a reshape puts it there), and those keys."""
    pkeys, ckeys = np.frombuffer(pkeys, dtype=np.intp), np.frombuffer(ckeys, dtype=np.intp)
    plan = []
    for bits in range(n, 0, -1):
        splits = []  # per axis: the keys left, each key's top bit and place among them, their count
        for keys, b in ((pkeys, bits), (ckeys, bits + 1)):
            rest = keys & ((1 << (b - 1)) - 1)
            union = np.flatnonzero(np.bincount(rest))  # the distinct rests, sorted
            union.setflags(write=False)  # every caller shares the cached arrays
            splits.append((union, keys >> (b - 1), np.searchsorted(union, rest), len(union)))
        (pnew, ptop, ppos, r), (cnew, ctop, cpos, c) = splits
        place = None  # both halves of each split hold the same keys
        if len(pkeys) != 2 * r or len(ckeys) != 2 * c:
            place = np.add.outer(ptop * (2 * r * c) + ppos * c, ctop * (r * c) + cpos)
            place.setflags(write=False)
        plan.append((place, pnew, cnew))
        pkeys, ckeys = pnew, cnew
    return tuple(plan)


@lru_cache(maxsize=32)  # as many as _channel_state holds
def _receiver_keys(component: Component, variant: Variant, n: int) -> tuple[bytes, np.ndarray]:
    """A receiver component's live channel keys (intp bytes) and its amplitudes there. Live
    strings keep both receiver bits: rows then never narrow to one column, which rounds
    unlike the dense rows, and end as the receiver vector."""
    receiver = _channel_state(component, variant, Endpoint.RECEIVER_LAST, n).amps
    ckeys = (2 * np.flatnonzero(receiver.reshape(-1, 2).any(axis=1))[:, None] + np.arange(2)).ravel()
    live = receiver[ckeys]
    live.setflags(write=False)
    return ckeys.tobytes(), live


def _live_pair_rows(mat: np.ndarray, step: tuple) -> np.ndarray:
    """The Bell rows of the top party and channel bits of a joint state on its live
    strings, ``mat[i, j]`` being the amplitude at the i-th party and j-th channel key that
    ``step``, one ``_step_plan`` entry, starts from. The rows are over its keys left."""
    place, pnew, cnew = step
    r, c = len(pnew), len(cnew)
    if place is None:
        grid = mat.reshape(2, r, 2, c).transpose(0, 2, 1, 3)
    else:  # a zero (2, 2, r, c) grid holding mat at each key pair's place
        grid = np.zeros(4 * r * c, dtype=complex)
        grid[place] = mat
    return _BELL_BRAS @ grid.reshape(4, -1)


def _sampled_block(bobs: BranchState, channel: ChannelSpec, gen: np.random.Generator):
    """One trajectory drawn under the Born rule, as a list of one block:
    (flattened component index, joint probabilities, raw probabilities,
    corrected receiver vectors, each row's party outcomes, each row's
    receiver correction), every column one row long. The list is empty when
    every outcome of a step is null. The joint state stays on its live strings,
    stepping through the cached ``_step_plan`` of the strings it starts on."""
    n = channel.n_parties
    n_comps = len(channel.components)
    cj = 0
    if n_comps > 1:
        weights = np.array([c.weight for c in channel.components])
        cj = _born_pick(weights / weights.sum(), gen)
    comp = channel.components[cj]
    if 2 * n + 1 > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"joint state would need {2 * n + 1} qubits, cap is {DEFAULT_QUBIT_CAP}")
    ckeys, live = _receiver_keys(comp, channel.variant, n)
    pkeys = np.flatnonzero(bobs.state.amps)
    mat = np.multiply.outer(bobs.state.amps[pkeys], live)
    if not abs(np.vdot(mat, mat).real - 1.0) <= NORM_ATOL:
        raise ValueError("joint state not normalized")
    outcomes: tuple[BellOutcome, ...] = ()
    for step in _step_plan(pkeys.tobytes(), ckeys, n):
        rows = _live_pair_rows(mat, step)
        pick = _draw_outcome(rows, gen)
        if pick is None:
            return []
        mat = rows[pick].reshape(len(step[1]), len(step[2]))
        outcomes += (BELL_OUTCOMES[pick],)
    label = concentration_correction(channel.variant, outcomes)
    raw, vecs = _finish_rows(mat, _PAULI_FRAMES[label])
    index = bobs.component_index * n_comps + cj
    return [(index, bobs.joint_prob * comp.weight * raw, raw, vecs, (outcomes,), (label,))]


def _fidelities(vecs: np.ndarray, input_amps: np.ndarray, raw: np.ndarray, joint: np.ndarray) -> list:
    """Each row's fidelity against the input as a (nested) list of Python
    floats, None where the branch is null by raw or joint probability."""
    fids = np.abs(vecs.conj() @ input_amps) ** 2
    live = ~(raw < NULL_PROB_EPS) & ~(joint <= NULL_PROB_EPS)
    return np.where(live, fids, None).tolist()


def _report_rows(reports: list, index: int, alice: BellOutcome, joint, fids, outcomes, labels) -> None:
    """Append one ``_branch_rows`` row's branches to ``reports``: plain
    Python values from the row's columns, fidelity None on a null branch."""
    reports.extend(map(
        OutcomeReport, itertools.repeat(index), itertools.repeat(alice), outcomes, joint, labels, fids,
    ))


def _branch_rows(
    input_qubit: InputQubit, dist_channel: ChannelSpec, conc_channel: ChannelSpec, mode: str, seed
) -> list[tuple]:
    """``run_end_to_end``'s branches as block rows in report order, each
    (flattened component index, sender outcome, joint probabilities,
    fidelities with None on a null branch, party outcome tuples, receiver
    corrections), the last four parallel columns of Python values. A null
    sender branch is one row with no party outcomes and no correction."""
    _check_mode(mode, seed)
    if dist_channel.n_parties != conc_channel.n_parties:
        raise ValueError(
            f"party mismatch: distribution has {dist_channel.n_parties}, "
            f"concentration has {conc_channel.n_parties}"
        )
    families = {dist_channel.variant, conc_channel.variant} - {Variant.CUSTOM}
    if len(families) > 1:
        raise ValueError("distribution and concentration channels use different support families")

    # InputQubit checked the norm when it was made, and _sender_rows checks it again.
    input_amps = np.array([input_qubit.alpha, input_qubit.beta], dtype=complex)
    n_conc = len(conc_channel.components)
    rows: list[tuple] = []
    if mode == "sampled":
        gen = as_rng(seed)
        (db,) = _distribute(input_amps, dist_channel, mode, gen)
        _check_receiver_side(conc_channel)
        alice = db.outcomes[0]
        if db.state is None:
            return [(db.component_index * n_conc, alice, [db.joint_prob], [None], ((),), (None,))]
        for index, joint, raw, vecs, outcomes, labels in _sampled_block(db, conc_channel, gen):
            fids = _fidelities(vecs, input_amps, raw, joint)
            rows.append((index, alice, joint.tolist(), fids, outcomes, labels))
        return rows

    # Each stacked state's rows go after the null sender rows that precede
    # it; `pending` carries those rows to the next live slot.
    states, slots, pending = [], [], []
    for ci, alice, prob, raw, row in _sender_rows(input_amps, dist_channel):
        vec = _party_vector(dist_channel, alice, raw, row)
        if vec is None:
            pending.append((ci * n_conc, alice, [prob], [None], ((),), (None,)))
            continue
        states.append(vec)
        for cj, comp in enumerate(conc_channel.components):
            slots.append((ci * n_conc + cj, alice, prob * comp.weight, pending))
            pending = []
    _check_receiver_side(conc_channel)

    outcomes, labels = _outcome_table(conc_channel.variant, conc_channel.n_parties)
    done = 0
    for raw, vecs in _exhaustive_blocks(np.array(states), conc_channel):
        block = slots[done:done + len(raw)]
        done += len(raw)
        joint = np.array([slot[2] for slot in block])[:, None] * raw
        fids = _fidelities(vecs, input_amps, raw, joint)
        for (index, alice, _, nulls), joint_row, fid_row in zip(block, joint.tolist(), fids):
            rows.extend(nulls)
            rows.append((index, alice, joint_row, fid_row, outcomes, labels))
    rows.extend(pending)
    return rows


def run_end_to_end(
    input_qubit: InputQubit,
    dist_channel: ChannelSpec,
    conc_channel: ChannelSpec,
    mode: str = "exhaustive",
    seed=None,
) -> list[OutcomeReport]:
    """Distribute then concentrate, reporting every branch (or one sampled
    trajectory) with its fidelity against the input.

    Registers are ordered (party qubits 1..n, channel qubits n+1..2n+1):
    party i measures the pair (i, n+i) and the receiver holds qubit 2n+1.
    Exhaustive mode stacks the joint state of every live sender branch with
    every receiver component and finishes the stack with one batched
    Bell-basis kernel; reports follow component, sender outcome, receiver
    component and party outcomes in order, with one record per null sender
    branch. Sampled mode draws one sender branch, one receiver component and
    one outcome per party.
    """
    reports: list[OutcomeReport] = []
    for row in _branch_rows(input_qubit, dist_channel, conc_channel, mode, seed):
        _report_rows(reports, *row)
    return reports
