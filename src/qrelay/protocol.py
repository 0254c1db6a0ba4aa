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
correction. Both corrections are one rule each on the outcomes' (x, z)
bits, and a family enters them only as its count of marked parties
(``_marked_parties``). Branch enumeration is exhaustive (all outcome tuples
with their joint probabilities) or sampled (one trajectory drawn from them).

``_branch_rows`` is the one way into concentration. A run reads all it needs but its input from one cached
``_pair_plan`` per channel pair, the evaluator's one per-channel cache. Both modes start the joint state on the
plan's start strings, follow its ``_step_plan`` and take each Bell measurement with the one kernel
``_live_pair_rows``: ``_receiver_rows`` keeps all four outcomes of every step, ``_sampled_rows`` the one it draws.
Each branch and sender row is linear in the input, so its probability and overlap with the input are fixed forms on
the input's four bilinears: a small, well-conditioned pair's plan holds them (``_pair_forms``), and an exhaustive
run on it is one real product, read as views and keyed by the plan's slots, with no null sender row. Other runs take
every sender row from one batched ``_sender_stage``. Plans prove for every path and input all that the input does
not change: ``_sender_plan`` the sender checks, ``_pair_plan`` the sampled norms. A trial only checks, if
exhaustive, its branch total, and ends in one ``_finish_rows``, which skips its masks when no branch is null.
``run_end_to_end`` turns the rows into reports and ``distribute`` exposes distribution alone.
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
    _FROM_XZ,
    _TO_XZ,
    _born_pick,
    _draw_outcome,
    as_rng,
)
from .channels import ChannelSpec, Endpoint, Variant, build_channel_component
from .statevec import DEFAULT_QUBIT_CAP, NORM_ATOL, CapacityError, StateVector

MAX_EXHAUSTIVE_PARTIES = 6

# Exhaustive concentration stacks joint states in blocks of at most this many amplitudes, one
# joint state at the party cap, and a plan holds forms only if its branch maps fit in one block.
_BLOCK_AMPS = 1 << (2 * MAX_EXHAUSTIVE_PARTIES + 1)

PROB_SANITY_ATOL = 1e-9

# <in|M|in> for a 2x2 M is (_BILINEAR @ M.ravel()) . b on the input's bilinears b = (|alpha|^2, |beta|^2,
# Re conj(alpha) beta, Im conj(alpha) beta): coefficients real where M is Hermitian, a trial's "forms".
_BILINEAR = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0]])

# A value b @ forms is exact to a few eps times its Gram's largest eigenvalue, so a plan holds forms only
# if each Gram's smallest eigenvalue is at least this share of its largest: then every value keeps about
# 12 digits for every input. Faithful pairs' maps are multiples of I (share 1); a map that nearly
# annihilates some input would lose all its digits there, where the kernel's linear rows keep them.
_FORMS_CONDITION = 1e-3


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


def random_inputs(rng, count: int) -> list[InputQubit]:
    """``count`` Haar-random inputs from one draw of (count, 4) normals, each row the real then the
    imaginary parts: the floats and generator state of ``count`` successive ``random_input`` draws."""
    if count < 0:
        raise ValueError(f"input count must be >= 0, got {count}")
    draws = as_rng(rng).normal(size=(count, 4))
    re, im = draws[:, :2], draws[:, 2:]
    # Two 2-term dots, summed as the earlier np.linalg.norm form did: one 4-term dot rounds differently.
    vecs = (re + 1j * im) / np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[:, None]
    return [InputQubit(*vec) for vec in vecs.tolist()]


def random_input(rng) -> InputQubit:
    """A Haar-random input: ``random_inputs``' one-row case."""
    return random_inputs(rng, 1)[0]


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


def _marked_parties(variant: Variant, n_parties: int) -> int:
    """How many leading parties each correction rule marks: every party of a parity (or custom)
    channel, party 1 alone of a staircase, whose first support bit is the only one that varies."""
    return 1 if variant is Variant.DOMINO else n_parties


def distribution_correction(
    variant: Variant, outcome: BellOutcome, n_parties: int
) -> tuple[PauliLabel, ...]:
    """Local correction each party applies after the sender's broadcast: for
    the sender byproduct X^x Z^z, each marked party (``_marked_parties``)
    applies X^x Z^z and every other party X^x, so a staircase takes the phase
    on party 1 alone and the bit flip everywhere.
    """
    x, z = _TO_XZ[CORRECTION_FOR_OUTCOME[outcome]]
    marked = _marked_parties(variant, n_parties)
    return (_FROM_XZ[x, z],) * marked + (_FROM_XZ[x, 0],) * (n_parties - marked)


def concentration_correction(variant: Variant, outcomes) -> PauliLabel:
    """Single receiver-side correction folding all parties' outcomes: with
    each outcome's byproduct X^x Z^z, X to the XOR of the marked parties'
    x bits (``_marked_parties``) and Z to the XOR of every party's z bit.
    """
    bits = [_TO_XZ[CORRECTION_FOR_OUTCOME[o]] for o in outcomes]
    if not bits:
        raise ValueError("at least one outcome required")
    x = sum(ox for ox, _ in bits[:_marked_parties(variant, len(bits))]) & 1
    return _FROM_XZ[x, sum(oz for _, oz in bits) & 1]


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


def _sender_plan(channel: ChannelSpec) -> tuple:
    """What the sender stage needs of ``channel`` besides the input, read-only: its component states
    (d, 2^(n+1)) and weights (d, 1), and its four ``_distribution_frame``s as one (4, 2^n) gather
    index and phase table. Refuses a receiver-side channel, or one past the cap, before any state. Then proves,
    at the worst unit input (``_extreme``), that each component's sender maps S_a have sum_a S_a^dagger S_a = I
    (and S_a^dagger S_a = I/4 where the family promises it). Also returns the basis rows (2d, 4, 2^n) and forms."""
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
    rows = np.concatenate([_sender_stage(amps, plan)[0] for amps in np.eye(2, dtype=complex)])
    maps = rows.reshape(2, -1, rows.shape[-1])  # each sender row's 2-column map S, S[r, x] = maps[x, row, r]
    forms = (_BILINEAR @ np.einsum("x...r,y...r->...xy", maps.conj(), maps).reshape(-1, 4).T).real.reshape(4, -1, 4)
    for total, probs in zip(_extreme(forms.sum(axis=-1), 1.0).tolist(), _extreme(forms, 0.25).tolist()):
        if not abs(total - 1.0) <= NORM_ATOL:
            raise ValueError("sender joint state not normalized")
        for outcome, prob in zip(BELL_OUTCOMES, probs if channel.faithfulness_guaranteed else ()):
            if not abs(4.0 * prob - 1.0) < PROB_SANITY_ATOL:
                raise ValueError(f"outcome {outcome.value} has conditional probability {prob}, expected 1/4")
    return plan, rows, forms


def _sender_stage(input_amps: np.ndarray, plan: tuple) -> tuple[np.ndarray, ...]:
    """Every sender outcome of every component of a ``_sender_plan``, which proved their checks, component then Bell
    order: the unnormalized party rows (d, 4, 2^n) and raw and joint probabilities (d, 4). The sender's pair, qubits
    1 and 2, leads each input x channel state: one batched unitary Bell-bra product, with no check."""
    states, weights = plan[:2]
    rows = _BELL_BRAS @ (input_amps[:, None] * states[:, None, :]).reshape(len(states), 4, -1)
    raw = np.vecdot(rows, rows).real
    return rows, raw, weights * raw


def _extreme(forms: np.ndarray, target: float) -> np.ndarray:
    """The value of <in|H|in> farthest from ``target`` over unit inputs, for Hermitian H given by its real
    forms (4, ...): the eigenvalue of H on that side, mean +- half the spread."""
    mean = (forms[0] + forms[1]) / 2
    return mean + np.copysign(np.hypot(forms[0] - forms[1], np.hypot(forms[2], forms[3])) / 2, mean - target)


def _party_vectors(rows: np.ndarray, raw: np.ndarray, frames: tuple, ci, a) -> np.ndarray:
    """The corrected, normalized party vectors of the live sender rows (ci, a), numpy integers or
    index arrays: each gathered through its outcome's gather index in ``frames`` (a ``_sender_plan``'s
    or, on its start strings, a ``_pair_plan``'s), over the root of its raw probability, times the
    frame's phases; (k,) or (m, k) for k gathered strings."""
    gather, phases = frames
    return phases[a] * (rows[ci[..., None], a[..., None], gather[a]] / np.sqrt(raw[ci, a])[..., None])


def distribute(input_qubit: InputQubit, channel: ChannelSpec) -> list[BranchState]:
    """Run the distribution phase: one BranchState per (component, sender
    outcome), outcomes in Bell order within each component. Each call builds
    the channel's states and proves its sender checks: no plan is kept."""
    plan = _sender_plan(channel)[0]
    rows, raw, joint = _sender_stage(input_qubit.to_state().amps, plan)
    live = ~(raw < NULL_PROB_EPS)
    vecs = iter(_party_vectors(rows, raw, plan[2:], *np.nonzero(live)))
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


def _step_plan(pkeys: np.ndarray, ckeys: np.ndarray, n: int) -> tuple:
    """Every Bell step of a joint state that starts on the sorted party and channel keys
    ``pkeys`` and ``ckeys`` of n and n + 1 bits: per step, each amplitude's flat index in the
    (2, 2, r, c) grid of top party bit, top channel bit and the r and c keys left (None when a
    reshape puts it there), and those keys, read-only."""
    plan = []
    for bits in range(n, 0, -1):
        splits = []  # per axis: the keys left, each key's top bit and place among them, their count
        for keys, b in ((pkeys, bits), (ckeys, bits + 1)):
            rest = keys & ((1 << (b - 1)) - 1)
            union = np.flatnonzero(np.bincount(rest))  # the distinct rests, sorted
            union.setflags(write=False)  # every run on the pair shares its plan's arrays
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
    """The Bell rows of the top party and channel bits of joint states on their live strings,
    ``mat[i, j, *stack]`` being the amplitudes at the i-th party and j-th channel key that ``step``,
    one ``_step_plan`` entry, starts from. The rows are (4, r, c, *stack), over the keys left."""
    place, pnew, cnew = step
    r, c, stack = len(pnew), len(cnew), mat.shape[2:]
    if place is None:
        grid = mat.reshape(2, r, 2, c, *stack).swapaxes(1, 2)
    else:  # a zero (2, 2, r, c, *stack) grid holding mat at each key pair's place
        grid = np.zeros((4 * r * c, *stack), dtype=complex)
        grid[place] = mat
    # ndarray.dot: the BLAS product @ makes, with less overhead per call.
    return _BELL_BRAS.dot(grid.reshape(4, -1)).reshape(4, r, c, *stack)


def _receiver_rows(parties: np.ndarray, receivers: np.ndarray, steps: tuple, frame: tuple):
    """Every concentration outcome of each (party vector, receiver component) pair of stacks of
    unnormalized party vectors and receiver states on the keys the ``_step_plan`` ``steps``
    starts from, pair by pair, in blocks of at most ``_BLOCK_AMPS`` amplitudes (whole vectors'
    components, or a share of one's); each step's outcome axis goes behind the stack. Yields
    (b, 4**n, 2) rows, corrected by the ``_receiver_table`` ``frame``: the one exhaustive kernel."""
    r, c, n = parties.shape[1], receivers.shape[1], len(steps)
    per_block = _BLOCK_AMPS >> (2 * n + 1)
    height, width = max(1, per_block // len(receivers)), min(len(receivers), per_block)
    for i in range(0, len(parties), height):
        for j in range(0, len(receivers), width):
            joint = (parties[i:i + height, None, :, None] * receivers[j:j + width, None, :]).reshape(-1, r * c)
            pair = _live_pair_rows(joint.T.reshape(r, c, -1), steps[0])  # (party key, channel key, b)
            for step in steps[1:]:
                pair = _live_pair_rows(pair.transpose(*range(1, pair.ndim), 0), step)
            # The last pair is (o_n, 1, receiver bit, b, o_1..o_n-1).
            rows = pair.reshape(4, 2, -1).transpose(2, 0, 1).reshape(len(joint), -1)
            yield (frame[1] * rows.take(frame[0], axis=1)).reshape(len(joint), -1, 2)


def _norms_and_overlaps(u: np.ndarray, input_amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``_finish_rows`` takes of C-contiguous receiver rows u (..., 2): |u|^2 and |<in|u>|^2."""
    return np.vecdot(u.view(float), u.view(float)), np.abs(u @ input_amps.conj()) ** 2


def _finish_rows(norms: np.ndarray, overlaps: np.ndarray, party_raw, weights) -> tuple[np.ndarray, list]:
    """The one finish of every path, called once per trial: unnormalized receiver rows u, given by |u|^2 and
    |<in|u>|^2, of party vectors with raw probabilities ``party_raw`` to joint probabilities (``weights`` times
    raw |u|^2 / party_raw) and fidelities |<in|u>|^2 / |u|^2, a (nested) list of Python floats with None on a
    null branch (raw or joint). With none null, the same division unmasked: a NaN row stays live, NaN fidelity."""
    raw = norms / party_raw
    joint = weights * raw
    null = (raw < NULL_PROB_EPS) | (joint <= NULL_PROB_EPS)
    if not null.any():
        return joint, (overlaps / norms).tolist()
    return joint, np.where(null, None, overlaps / np.where(null, 1.0, norms)).tolist()


def _sampled_rows(input_amps: np.ndarray, variant: Variant, plan: tuple, gen: np.random.Generator) -> list[tuple]:
    """One trajectory drawn under the Born rule, as ``_branch_rows`` rows, from the ``_sender_stage`` rows and the
    pair's ``_pair_plan``, which proved its norms (``variant`` the concentration channel's): the sender row, then the
    one party vector drawn, a receiver component (of a mixture) and one outcome per party. A null sender row is one
    row with no party outcomes; [] when every outcome of a step is null. The joint state starts on the plan's start
    strings, exact zeros where the drawn vector has none, and steps through the start's step plan."""
    sender, receivers, weights, (frames, steps, *_) = plan
    rows, raw, joint = _sender_stage(input_amps, sender)
    probs = joint.ravel()
    ci, a = divmod(_born_pick(probs / probs.sum(), gen), 4)
    alice, prob = BELL_OUTCOMES[a], float(joint[ci, a])
    if raw[ci, a] < NULL_PROB_EPS:
        return [(ci * len(weights), alice, [prob], [None], ((),), (None,))]
    party = _party_vectors(rows, raw, frames, np.intp(ci), np.intp(a))
    cj = _born_pick(weights / weights.sum(), gen) if len(weights) > 1 else 0
    mat = np.multiply.outer(party, receivers[cj])
    outcomes: tuple[BellOutcome, ...] = ()
    for step in steps:
        pair = _live_pair_rows(mat, step)
        pick = _draw_outcome(pair.reshape(4, -1), gen)
        if pick is None:
            return []
        mat = pair[pick]
        outcomes += (BELL_OUTCOMES[pick],)
    label = concentration_correction(variant, outcomes)
    perm, phase = _PAULI_FRAMES[label]
    conc_joint, fids = _finish_rows(*_norms_and_overlaps(phase * mat[:, perm], input_amps), 1.0, prob * weights[cj])
    return [(ci * len(weights) + cj, alice, conc_joint.tolist(), fids, (outcomes,), (label,))]


def _pair_forms(rows, sender_forms, receivers: np.ndarray, weights: np.ndarray, start: tuple):
    """The S sender rows' and B branches' forms on a trial's bilinears b (``_BILINEAR``), read-only (4, S + 3B), from
    ``_sender_plan``'s basis rows and forms: ``b @ forms`` is each sender row's raw probability, then, in
    ``_receiver_rows`` order, each branch's |K in|^2 (K^dagger K for its 2x2 map K) and the real and imaginary parts
    of <in|K in>. Refuses unless at the worst unit input (``_extreme``) each sender component has sum w_c K^dagger K
    = I. None if a Gram is too ill-conditioned (``_FORMS_CONDITION``) for the forms to keep their digits."""
    (gather, phases), steps, (frame, _, _) = start
    parties = (phases * rows[:, np.arange(4)[:, None], gather]).reshape(-1, gather.shape[1])
    maps = np.concatenate([*_receiver_rows(parties, receivers, steps, frame)]).reshape(2, -1, 2)
    grams = (_BILINEAR @ np.einsum("x...r,y...r->...xy", maps.conj(), maps).reshape(-1, 4).T).real
    total = np.einsum("fdacb,c->fd", grams.reshape(*sender_forms.shape, len(weights), -1), weights)
    if not np.all(abs(_extreme(total, 1.0) - 1.0) <= NORM_ATOL):
        raise ValueError("branch maps do not conserve probability")
    grams = np.concatenate([sender_forms.reshape(4, -1), grams], axis=1)
    if not np.all(_extreme(grams, math.inf) >= _FORMS_CONDITION * _extreme(grams, -math.inf)):
        return None
    overlaps = _BILINEAR @ maps.transpose(1, 2, 0).reshape(-1, 4).T  # K[r, x] is maps[x, branch, r]
    forms = np.concatenate([grams, overlaps.real, overlaps.imag], axis=1)
    forms.setflags(write=False)
    return forms


# A verify suite's pairs, or a benchmark pool's. A staircase or parity plan at n = 9 holds under 150 KiB, and forms
# at most 200 KiB, but an irregular custom pair's step plan at n = 9 may hold up to 5.4 MiB (3.1 MiB measured with
# 250 of 512 support strings), so 32 such plans could hold about 170 MiB. No workload holds one.
@lru_cache(maxsize=32)
def _pair_plan(dist: ChannelSpec, conc: ChannelSpec) -> tuple:
    """Checks a channel pair, then holds all a run on it needs but its input, read-only: the ``_sender_plan``
    of ``dist``; the receiver states (c, k) and weights (c,) of ``conc`` on the k channel strings any component
    holds (both receiver bits kept so rows never narrow to one column, which rounds unlike the dense rows); at
    every size, the start both modes share: the sender frames on the party strings a corrected sender row can
    reach and the ``_step_plan`` from those and the channel strings; and, at exhaustive sizes, the
    ``_receiver_table``, the ``_pair_forms`` if its branch maps fit one block (16 d c 4^n amplitudes: pure pairs to
    n = 4 and telecloning->Smolin) and are well-conditioned, else None, and the report key (flattened component
    index, sender outcome) of each of the 4 d c slots (sender row, receiver component), in report order. Each
    channel state is built here once per plan."""
    n, variant = conc.n_parties, conc.variant
    if dist.n_parties != n:
        raise ValueError(f"party mismatch: distribution has {dist.n_parties}, concentration has {n}")
    if len({dist.variant, variant} - {Variant.CUSTOM}) > 1:
        raise ValueError("distribution and concentration channels use different support families")
    sender, basis_rows, sender_forms = _sender_plan(dist)
    if conc.endpoint is not Endpoint.RECEIVER_LAST:
        raise ValueError("concentration needs a receiver-side channel (endpoint 'receiver')")
    receivers = np.array([build_channel_component(c, variant, conc.endpoint, n).amps for c in conc.components])
    weights = np.array([c.weight for c in conc.components])
    ckeys = (2 * np.flatnonzero(receivers.reshape(len(receivers), -1, 2).any(axis=(0, 2)))[:, None]
             + np.arange(2)).ravel()
    receivers = receivers.take(ckeys, axis=1)  # take, not [:, ckeys]: C order
    states, _, gather, phases = sender
    # Every sampled norm: a party vector is a unit sender row, permuted, times phases; a joint state it x a receiver.
    if not np.all(abs(abs(phases) ** 2 - 1.0) <= NORM_ATOL):
        raise ValueError("distributed state not normalized")
    if not np.all(abs(np.vecdot(receivers, receivers).real - 1.0) <= NORM_ATOL):
        raise ValueError("joint state not normalized")
    # The strings either endpoint branch of a component holds, seen through each outcome's frame.
    pkeys = np.flatnonzero(states.reshape(len(states), 2, -1).any(axis=(0, 1))[gather].any(axis=0))
    start = (gather.take(pkeys, axis=1), phases.take(pkeys, axis=1)), _step_plan(pkeys, ckeys, n)
    if n <= MAX_EXHAUSTIVE_PARTIES:  # sampled runs reach sizes whose tables are too large
        start += (_receiver_table(variant, n),)
        fits = 16 * len(states) * len(receivers) << 2 * n <= _BLOCK_AMPS
        start += (_pair_forms(basis_rows, sender_forms, receivers, weights, start) if fits else None,
                  tuple((ci * len(weights) + cj, alice) for ci in range(len(states)) for alice in BELL_OUTCOMES
                        for cj in range(len(weights))))
    for arr in (receivers, weights, *start[0]):
        arr.setflags(write=False)
    return sender, receivers, weights, start


def _branch_rows(
    input_qubit: InputQubit, dist_channel: ChannelSpec, conc_channel: ChannelSpec, mode: str, seed
) -> list[tuple]:
    """``run_end_to_end``'s branches as block rows in report order, each (flattened component index, sender outcome,
    joint probabilities, fidelities with None on a null branch, party outcome tuples, receiver corrections), the last
    four parallel columns of Python values. A null sender branch is one row with no party outcomes and no correction.
    The caps are checked before the pair's ``_pair_plan`` checks the pair and builds any state. An exhaustive trial
    reads each live slot's |u|^2 and |<in|u>|^2 from one product of its plan's forms, or from the kernel's blocks,
    finishes them in one ``_finish_rows`` call, checks their total once and keys its rows by the plan's slots. A forms
    plan nulls no sender row: only the kernel path inserts null sender rows."""
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "sampled" and seed is None:
        raise ValueError("sampled mode needs a seed or Generator")
    n = dist_channel.n_parties
    if mode == "exhaustive" and n > MAX_EXHAUSTIVE_PARTIES:
        raise CapacityError(f"exhaustive enumeration capped at {MAX_EXHAUSTIVE_PARTIES} parties, got {n}")
    if mode == "sampled" and 2 * n + 1 > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"joint state would need {2 * n + 1} qubits, cap is {DEFAULT_QUBIT_CAP}")

    sender, receivers, weights, start = plan = _pair_plan(dist_channel, conc_channel)
    # InputQubit checked the norm when it was made; the plan's sender proof and the branch total repeat it.
    if mode == "sampled":
        return _sampled_rows(np.array([input_qubit.alpha, input_qubit.beta], dtype=complex), conc_channel.variant,
                             plan, as_rng(seed))
    (gather, phases), steps, (frame, outcomes, labels), forms, keys = start
    n_conc, nulls = len(receivers), []
    if forms is None:  # too large for forms: the kernel on this trial's unnormalized party vectors, block by block
        input_amps = np.array([input_qubit.alpha, input_qubit.beta], dtype=complex)
        rows, raw, joint = _sender_stage(input_amps, sender)
        null = raw < NULL_PROB_EPS
        ci, a = live = np.nonzero(~null)
        norms, overlaps = (np.concatenate(x).reshape(len(ci), n_conc, -1) for x in zip(*(
            _norms_and_overlaps(u, input_amps) for u in _receiver_rows(
                phases[a] * rows[ci[:, None], a[:, None], gather[a]], receivers, steps, frame))))
        slot_raw, slot_weights = raw[live][:, None, None], joint[live][:, None, None] * weights[:, None]
        nulls = [(k, keys[k * n_conc], prob) for k, prob in zip(np.flatnonzero(null).tolist(), joint[null].tolist())]
        keys = [key for key, dead in zip(keys, null.repeat(n_conc).tolist()) if not dead]
    else:  # one product of the input's bilinears and the forms
        x, y = complex(input_qubit.alpha), complex(input_qubit.beta)
        xy = x.conjugate() * y
        values = np.dot([(x.conjugate() * x).real, (y.conjugate() * y).real, xy.real, xy.imag], forms)
        raw = values[:len(keys) // n_conc].reshape(-1, 4)
        norms, re, im = values[raw.size:].reshape(3, raw.size, n_conc, -1)
        overlaps = re * re + im * im
        # No sender row is null, as each raw is >= _FORMS_CONDITION / 4 (_pair_forms): slots broadcast the rows.
        slot_raw, slot_weights = raw.reshape(-1, 1, 1), (sender[1] * raw).reshape(-1, 1, 1) * weights[:, None]
    # A row u of sender row (ci, a) has raw = |u|^2 / raw[ci, a]: its party vector was not normalized.
    joints, fids = _finish_rows(norms, overlaps, slot_raw, slot_weights)
    total = sum(prob for *_, prob in nulls) + joints.sum()
    if not abs(total - 1.0) <= NORM_ATOL:
        raise ValueError(f"branch probabilities sum to {total}, expected 1")
    out = [(index, alice, joint, fid, outcomes, labels) for (index, alice), joint, fid in zip(
        keys, joints.reshape(len(keys), -1).tolist(), itertools.chain.from_iterable(fids))]
    for j, (k, key, prob) in enumerate(nulls):  # a null sender row is one row, after the k - j live rows' slots
        out.insert((k - j) * n_conc + j, (*key, [prob], [None], ((),), (None,)))
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
    every receiver component and takes every outcome of each party's Bell
    measurement; reports follow component, sender outcome, receiver
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
