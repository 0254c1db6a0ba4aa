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

``_branch_rows`` is the one way into concentration. A run reads all it needs
but its input from one cached ``_pair_plan`` per channel pair, and one batched
``_sender_stage`` gives every sender row; exhaustive runs build every live party
vector at once for ``_exhaustive_blocks``, sampled runs the drawn one in
``_sampled_rows``. ``run_end_to_end`` turns the rows into reports, the CLI writes
them as text, and ``distribute`` exposes the distribution phase on its own.
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
from .channels import ChannelSpec, Endpoint, Variant, build_channel_component
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
        # Products, not abs(z) ** 2: an overflow gives inf and fails the check instead of raising.
        # An int amplitude's square stays an int, so one past float range overflows on conversion.
        try:
            norm_sq = float(sum(z.real * z.real + z.imag * z.imag for z in (self.alpha, self.beta)))
        except OverflowError:
            norm_sq = math.inf
        if not abs(norm_sq - 1.0) <= 1e-10:
            raise ValueError(f"input amplitudes have |a|^2+|b|^2 = {norm_sq}, expected 1")

    def to_state(self) -> StateVector:
        return StateVector(1, np.array([self.alpha, self.beta], dtype=complex))


def random_input(rng) -> InputQubit:
    """A Haar-random input: one draw of four normals, the real then the imaginary parts."""
    draws = as_rng(rng).normal(size=4)
    re, im = draws[:2], draws[2:]
    vec = re + 1j * im
    vec /= math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's sum; numpy's division, not Python's
    return InputQubit(*vec.tolist())


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


def _distribution_frame(variant: Variant, outcome: BellOutcome, n: int) -> tuple[np.ndarray, np.ndarray]:
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
    return perm, phase


def _sender_plan(channel: ChannelSpec) -> tuple[np.ndarray, ...]:
    """What the sender stage needs of ``channel`` besides the input, read-only: its component states
    (d, 2^(n+1)) and weights (d, 1), and its four ``_distribution_frame``s as one (4, 2^n) gather
    index and phase table. Refuses a receiver-side channel, or one past the cap, before any state."""
    if channel.endpoint is not Endpoint.SENDER_FIRST:
        raise ValueError("distribution needs a sender-side channel (endpoint 'sender')")
    n = channel.n_parties
    if n + 2 > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"sender joint state would need {n + 2} qubits, cap is {DEFAULT_QUBIT_CAP}")
    states = [build_channel_component(c, channel.variant, channel.endpoint, n).amps for c in channel.components]
    frames = zip(*(_distribution_frame(channel.variant, outcome, n) for outcome in BELL_OUTCOMES))
    plan = (np.array(states), np.array([[c.weight] for c in channel.components]), *map(np.array, frames))
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _sender_stage(input_amps: np.ndarray, channel: ChannelSpec, plan: tuple) -> tuple[np.ndarray, ...]:
    """Every sender outcome of every component of ``channel`` (its ``_sender_plan``), component then
    Bell order: the unnormalized party rows (d, 4, 2^n) and raw and joint probabilities (d, 4). The
    sender's pair, qubits 1 and 2, leads each input x channel state: one batched Bell-bra product."""
    states, weights = plan[:2]
    rows = _BELL_BRAS @ (input_amps[:, None] * states[:, None, :]).reshape(len(states), 4, -1)
    raw = np.vecdot(rows, rows).real
    for probs in raw.tolist():  # the bras are unitary: a joint state's norm is its rows' total
        if not abs(sum(probs) - 1.0) <= NORM_ATOL:
            raise ValueError("sender joint state not normalized")
        for outcome, prob in zip(BELL_OUTCOMES, probs if channel.faithfulness_guaranteed else ()):
            if not abs(4.0 * prob - 1.0) < PROB_SANITY_ATOL:
                raise ValueError(f"outcome {outcome.value} has conditional probability {prob}, expected 1/4")
    return rows, raw, weights * raw


def _party_vectors(rows: np.ndarray, raw: np.ndarray, plan: tuple, ci, a) -> np.ndarray:
    """The corrected, normalized party vectors of the live sender rows (ci, a), numpy integers or
    index arrays: each gathered through its outcome's frame in the ``_sender_plan``, over the root
    of its raw probability, times the frame's phases; (2^n,) or (k, 2^n)."""
    gather, phases = plan[2:]
    return phases[a] * (rows[ci[..., None], a[..., None], gather[a]] / np.sqrt(raw[ci, a])[..., None])


def distribute(input_qubit: InputQubit, channel: ChannelSpec) -> list[BranchState]:
    """Run the distribution phase: one BranchState per (component, sender
    outcome), outcomes in Bell order within each component. Each call builds
    the channel's states: no plan is kept."""
    plan = _sender_plan(channel)
    rows, raw, joint = _sender_stage(input_qubit.to_state().amps, channel, plan)
    live = ~(raw < NULL_PROB_EPS)
    vecs = iter(_party_vectors(rows, raw, plan, *np.nonzero(live)))
    states = [StateVector(channel.n_parties, next(vecs)) if x else None for x in live.ravel().tolist()]
    return [BranchState(state, prob, (BELL_OUTCOMES[k % 4],), k // 4)
            for k, (state, prob) in enumerate(zip(states, joint.ravel().tolist()))]


@lru_cache(maxsize=None)
def _receiver_table(variant: Variant, n: int) -> tuple:
    """Every concentration outcome tuple in lexicographic Bell order (party 1
    most significant) and its receiver correction, as two parallel columns,
    after those corrections as one read-only permutation and phase over the
    flattened (row, component) axis: row k's ``_PAULI_FRAMES`` entry, shifted
    by 2k. Returns (frame, outcomes, labels)."""
    outcomes = tuple(itertools.product(BELL_OUTCOMES, repeat=n))
    labels = tuple(concentration_correction(variant, o) for o in outcomes)
    perms, phases = zip(*(_PAULI_FRAMES[label] for label in labels))
    perm = (np.array(perms) + 2 * np.arange(len(perms))[:, None]).ravel()
    phase = np.concatenate(phases)
    perm.setflags(write=False)
    phase.setflags(write=False)
    return (perm, phase), outcomes, labels


# Per party count: a joint state's qubit axes, and _all_pair_rows' order of them (the stack axis is 0).
_PAIR_AXES = {n: ((2,) * (2 * n + 1), (*[1 + ax for i in range(n) for ax in (i, n + i)], 0, 2 * n + 1))
              for n in range(1, MAX_EXHAUSTIVE_PARTIES + 1)}


def _all_pair_rows(amps: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized receiver vectors of every concentration outcome of a
    stack of b joint states, (b, 2**(2n+1)), as a C-contiguous (b, 4**n, 2)
    array whose rows follow ``_receiver_table`` order.

    Each joint register is (party qubits 1..n, channel qubits n+1..2n,
    receiver 2n+1). The pairs (i, n+i) go first, then the stack axis and the
    receiver bit. Each party's Bell measurement is then one (4, 4) @ (4, N)
    Bell-bra product on the leading pair, whose outcome axis moves behind the
    earlier ones, just before the receiver bit: after n steps the layout is
    (b, o_1..o_n, receiver).
    """
    b = len(amps)
    shape, order = _PAIR_AXES[n]
    psi = amps.reshape((b, *shape)).transpose(order)
    for _ in range(n):
        psi = (_BELL_BRAS @ psi.reshape(4, -1)).reshape(4, -1, 2).transpose(1, 0, 2)
    # Contiguous: a strided view at n = 1 rounds the norms in _finish_rows differently.
    return np.ascontiguousarray(psi.reshape(b, 4**n, 2))


def _check_normalized(vecs: np.ndarray, what: str, skip=None) -> None:
    """The check a ``StateVector`` makes, on every vector along the last
    axis of ``vecs`` but those where the mask ``skip`` is set; a NaN fails unless masked. ``vecs``
    must be C-contiguous: its squared norms are read from its real view, with no conjugate copy."""
    flat = vecs.view(float)
    norms = np.vecdot(flat, flat)
    if skip is not None:
        norms = np.where(skip, 1.0, norms)
    lo, hi = np.minimum.reduce(norms, None), np.maximum.reduce(norms, None)  # no ndarray.min wrapper
    if not (lo >= 1.0 - NORM_ATOL and hi <= 1.0 + NORM_ATOL):
        raise ValueError(f"{what} not normalized")


def _finish_rows(rows: np.ndarray, frame: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Finish unnormalized receiver rows, (..., K, 2): (raw Born probability
    of each row, corrected and normalized receiver vectors).

    ``frame`` applies the receiver corrections as a permutation and phase over
    the flattened (row, component) axis: the ``_receiver_table`` frame for its
    rows, ``_PAULI_FRAMES[label]`` for one row. A row is live unless its
    raw probability is below ``NULL_PROB_EPS``; null rows keep their
    corrected but unnormalized vector, which callers must not read. Every
    live vector must come out normalized to within ``NORM_ATOL``.
    """
    perm, phase = frame
    raw = np.einsum("...kj,...kj->...k", rows.conj(), rows).real
    null = raw < NULL_PROB_EPS
    flat = rows.reshape(*rows.shape[:-2], -1)
    vecs = (phase * flat.take(perm, axis=-1)).reshape(rows.shape) / np.sqrt(np.where(null, 1.0, raw))[..., None]
    _check_normalized(vecs, "concentrated receiver state", skip=null)
    return raw, vecs


def _exhaustive_blocks(states: np.ndarray, receivers: np.ndarray, frame: tuple, n: int):
    """Every concentration outcome of each (party state, receiver component) pair of a stack
    of normalized n-party states and one of receiver channel states, state by state, finished
    in blocks of at most ``_BLOCK_AMPS`` amplitudes: whole states' components, or a share of
    one state's. Yields (raw, vecs) per block: (b, 4**n) raw probabilities and (b, 4**n, 2)
    corrected receiver vectors, rows in ``_receiver_table`` order.

    This is the one place exhaustive branches are evaluated.
    """
    per_block = _BLOCK_AMPS >> (2 * n + 1)
    step, width = max(1, per_block // len(receivers)), min(len(receivers), per_block)
    for i in range(0, len(states), step):
        for j in range(0, len(receivers), width):
            joint = states[i:i + step, None, :, None] * receivers[j:j + width, None, :]
            joint = joint.reshape(-1, 2 << (2 * n))
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


def _sampled_rows(
    input_amps: np.ndarray, sender_rows: tuple, channel: ChannelSpec, plan: tuple, gen: np.random.Generator
) -> list[tuple]:
    """One trajectory drawn under the Born rule, as ``_branch_rows`` rows, from the
    ``_sender_stage`` rows, raw and joint probabilities ``sender_rows`` and the pair's
    ``_pair_plan``: the sender row, then the one party vector drawn is built and checked,
    then a receiver component (of a mixture) and one outcome per party. A null sender row
    is one row with no party outcomes; [] when every outcome of a step is null. The joint
    state stays on its live strings, stepping through the cached ``_step_plan`` of the
    strings it starts on."""
    sender, _, weights, live_keys, _ = plan
    rows, raw, joint = sender_rows
    probs = joint.ravel()
    ci, a = divmod(_born_pick(probs / probs.sum(), gen), 4)
    alice, prob = BELL_OUTCOMES[a], float(joint[ci, a])
    if raw[ci, a] < NULL_PROB_EPS:
        return [(ci * len(weights), alice, [prob], [None], ((),), (None,))]
    party = _party_vectors(rows, raw, sender, np.intp(ci), np.intp(a))
    _check_normalized(party, "distributed state")
    cj = _born_pick(weights / weights.sum(), gen) if len(weights) > 1 else 0
    ckeys, live = live_keys[cj]
    pkeys = np.flatnonzero(party)
    mat = np.multiply.outer(party[pkeys], live)
    if not abs(np.vdot(mat, mat).real - 1.0) <= NORM_ATOL:
        raise ValueError("joint state not normalized")
    outcomes: tuple[BellOutcome, ...] = ()
    for step in _step_plan(pkeys.tobytes(), ckeys, channel.n_parties):
        pair = _live_pair_rows(mat, step)
        pick = _draw_outcome(pair, gen)
        if pick is None:
            return []
        mat = pair[pick].reshape(len(step[1]), len(step[2]))
        outcomes += (BELL_OUTCOMES[pick],)
    label = concentration_correction(channel.variant, outcomes)
    conc_raw, vecs = _finish_rows(mat, _PAULI_FRAMES[label])
    conc_joint = prob * weights[cj] * conc_raw
    fids = _fidelities(vecs, input_amps, conc_raw, conc_joint)
    return [(ci * len(weights) + cj, alice, conc_joint.tolist(), fids, (outcomes,), (label,))]


def _fidelities(vecs: np.ndarray, input_amps: np.ndarray, raw: np.ndarray, joint: np.ndarray) -> list:
    """Each row's fidelity against the input as a (nested) list of Python
    floats, None where the branch is null by raw or joint probability."""
    fids = np.abs(vecs.conj() @ input_amps) ** 2
    null = (raw < NULL_PROB_EPS) | (joint <= NULL_PROB_EPS)
    return np.where(null, None, fids).tolist() if null.any() else fids.tolist()


@lru_cache(maxsize=32)  # a verify suite's pairs, or a benchmark pool's: a few KiB each
def _pair_plan(dist: ChannelSpec, conc: ChannelSpec) -> tuple:
    """Checks a channel pair, then holds all a run on it needs besides the input, read-only:
    the ``_sender_plan`` of ``dist``; the receiver states (c, 2^(n+1)) and weights (c,) of
    ``conc``; for sampled runs, each receiver's live channel keys (intp bytes) and amplitudes
    there, both receiver bits kept so rows never narrow to one column (which rounds unlike the
    dense rows); and, at exhaustive sizes, its ``_receiver_table``. Each channel state is built
    here once per plan."""
    n, variant = conc.n_parties, conc.variant
    if dist.n_parties != n:
        raise ValueError(f"party mismatch: distribution has {dist.n_parties}, concentration has {n}")
    if len({dist.variant, variant} - {Variant.CUSTOM}) > 1:
        raise ValueError("distribution and concentration channels use different support families")
    sender = _sender_plan(dist)
    if conc.endpoint is not Endpoint.RECEIVER_LAST:
        raise ValueError("concentration needs a receiver-side channel (endpoint 'receiver')")
    receivers = np.array([build_channel_component(c, variant, conc.endpoint, n).amps for c in conc.components])
    weights = np.array([c.weight for c in conc.components])
    keys = [(2 * np.flatnonzero(r.reshape(-1, 2).any(axis=1))[:, None] + np.arange(2)).ravel()
            for r in receivers]
    live = tuple((k.tobytes(), r[k]) for k, r in zip(keys, receivers))
    for arr in (receivers, weights, *(amps for _, amps in live)):
        arr.setflags(write=False)
    exhaustive = n <= MAX_EXHAUSTIVE_PARTIES  # sampled runs reach sizes whose tables are too large
    tables = _receiver_table(variant, n) if exhaustive else None
    return sender, receivers, weights, live, tables


def _branch_rows(
    input_qubit: InputQubit, dist_channel: ChannelSpec, conc_channel: ChannelSpec, mode: str, seed
) -> list[tuple]:
    """``run_end_to_end``'s branches as block rows in report order, each
    (flattened component index, sender outcome, joint probabilities,
    fidelities with None on a null branch, party outcome tuples, receiver
    corrections), the last four parallel columns of Python values. A null
    sender branch is one row with no party outcomes and no correction. The caps
    are checked before the pair's ``_pair_plan`` checks the pair and builds any state."""
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "sampled" and seed is None:
        raise ValueError("sampled mode needs a seed or Generator")
    n = dist_channel.n_parties
    if mode == "exhaustive" and n > MAX_EXHAUSTIVE_PARTIES:
        raise CapacityError(f"exhaustive enumeration capped at {MAX_EXHAUSTIVE_PARTIES} parties, got {n}")
    if mode == "sampled" and 2 * n + 1 > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"joint state would need {2 * n + 1} qubits, cap is {DEFAULT_QUBIT_CAP}")

    sender, receivers, weights, _, tables = plan = _pair_plan(dist_channel, conc_channel)
    # InputQubit checked the norm when it was made, and the sender stage checks it again.
    input_amps = np.array([input_qubit.alpha, input_qubit.beta], dtype=complex)
    rows, raw, joint = sender_rows = _sender_stage(input_amps, dist_channel, sender)
    if mode == "sampled":
        return _sampled_rows(input_amps, sender_rows, conc_channel, plan, as_rng(seed))

    n_conc = len(receivers)
    null = raw < NULL_PROB_EPS
    ci, a = np.nonzero(~null)
    states = _party_vectors(rows, raw, sender, ci, a)
    _check_normalized(states, "distributed state")
    slot_weights = (joint[ci, a][:, None] * weights).ravel()
    frame, outcomes, labels = tables
    joints, fids = [], []
    for conc_raw, vecs in _exhaustive_blocks(states, receivers, frame, n):
        block_joint = slot_weights[len(joints):len(joints) + len(conc_raw), None] * conc_raw
        joints += block_joint.tolist()
        fids += _fidelities(vecs, input_amps, conc_raw, block_joint)
    slots, out = zip(joints, fids), []
    for k, (prob, is_null) in enumerate(zip(joint.ravel().tolist(), null.ravel().tolist())):
        index, alice = k // 4 * n_conc, BELL_OUTCOMES[k % 4]
        out += [(index, alice, [prob], [None], ((),), (None,))] if is_null else [
            (index + cj, alice, *next(slots), outcomes, labels) for cj in range(n_conc)]
    return out


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
    for index, alice, joint, fids, outcomes, labels in _branch_rows(
        input_qubit, dist_channel, conc_channel, mode, seed
    ):
        reports.extend(map(OutcomeReport, itertools.repeat(index), itertools.repeat(alice),
                           outcomes, joint, labels, fids))
    return reports
