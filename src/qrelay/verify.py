"""Independent verification of the protocol's claims.

The oracle recomputes branch physics from its own literals: every branch
is linear in the input, so it is one 2x2 map, summed over the channel
components' support pairs from Bell-bra coefficients, with corrections as
Kronecker/matrix products of 2x2 gate literals and the staircase receiver
correction via the counter-based two-table algorithm. The claims reach
the evaluator only through ``run_end_to_end``'s reports; the only shared
ingredient beyond them is channel-state construction, which is data, not
branch logic. Agreement between the two paths is itself one of the checks,
and the even-n failure search and the clone fidelities read the oracle's
own maps.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .bell import BELL_OUTCOMES, NULL_PROB_EPS, BellOutcome, PauliLabel, as_rng
from .channels import (
    ChannelSpec,
    Component,
    Endpoint,
    Variant,
    build_channel_component,
    expand_mixture,
    random_channel,
    smolin_channel,
    smolin_state,
    telecloning_channel,
)
from .protocol import (
    MAX_EXHAUSTIVE_PARTIES,
    InputQubit,
    OutcomeReport,
    random_input,
    run_end_to_end,
)
from .statevec import CapacityError, trace_distance

FAITHFUL_TOL = 1e-9
ORACLE_TOL = 1e-10
SMOLIN_DECOMP_TOL = 1e-10
CLONE_TOL = 1e-10
CLONE_TARGET = 5.0 / 6.0
EVEN_N_FID_CEILING = 1.0 - 1e-6
WITNESS_PROB_FLOOR = 1e-12
MAX_WITNESSES = 8
MAX_EVEN_N_WITNESSES = 16
SUITES = ("all", "faithfulness", "smolin", "clone", "even-n")  # run_suite's names, as `--suite` lists them


@dataclass(frozen=True)
class Verdict:
    """Outcome of one claim-level check.

    ``passed`` requires ``worst_deviation <= tolerance`` and a nonzero count
    of what the claim checks: a verdict over no branches or trials fails.
    What the deviation measures is claim-specific and spelled out in
    ``details``.
    """

    claim_id: str
    passed: bool
    worst_deviation: float
    tolerance: float
    witnesses: tuple[OutcomeReport, ...] = ()
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON fields, with each non-finite number written as None, so a
        NaN verdict still serializes as strict JSON."""
        return _finite_or_none({
            "claim_id": self.claim_id,
            "passed": self.passed,
            "worst_deviation": self.worst_deviation,
            "tolerance": self.tolerance,
            "witnesses": [_finite_or_none(w.to_json()) for w in self.witnesses],
            "details": _finite_or_none(self.details),
        })


def _finite_or_none(fields: dict) -> dict:
    return {
        k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in fields.items()
    }


# Oracle-local literals: Bell bras by outcome index over basis 00,01,10,11,
# and the four gates by letter. Declared here, not imported, so a transcription
# slip in either module shows up as a cross-check failure.
_RT = 1.0 / np.sqrt(2.0)
_ORACLE_BELL = np.array(
    [
        [_RT, 0.0, 0.0, _RT],
        [0.0, _RT, _RT, 0.0],
        [0.0, _RT, -_RT, 0.0],
        [_RT, 0.0, 0.0, -_RT],
    ],
    dtype=complex,
)
_ORACLE_GATE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_CORR_LETTER = ("I", "X", "Y", "Z")

_MINUS = frozenset({BellOutcome.PHI_MINUS, BellOutcome.PSI_MINUS})

# Counter-based receiver tables for the staircase variant, keyed by the
# parity of the minus-outcome count over parties 2..N, then by party 1's
# outcome index.
_COUNTER_TABLE = {
    0: ("I", "X", "Y", "Z"),  # even count, indexed phi+, psi+, psi-, phi-
    1: ("Z", "Y", "X", "I"),  # odd count
}


def _oracle_dist_letters(variant: Variant, outcome: BellOutcome, n_parties: int) -> list[str]:
    if variant is Variant.DOMINO:
        table = {
            BellOutcome.PHI_PLUS: ["I"] * n_parties,
            BellOutcome.PHI_MINUS: ["Z"] + ["I"] * (n_parties - 1),
            BellOutcome.PSI_PLUS: ["X"] * n_parties,
            BellOutcome.PSI_MINUS: ["Y"] + ["X"] * (n_parties - 1),
        }
        return table[outcome]
    return [_CORR_LETTER[outcome.index]] * n_parties


def domino_correction_by_counter(outcomes) -> PauliLabel:
    """Receiver correction for the staircase variant via the counting
    algorithm: tally minus-signed outcomes (phi-, psi-) over parties 2..N,
    then map party 1's outcome through the even- or odd-count table."""
    outcomes = tuple(outcomes)
    if not outcomes:
        raise ValueError("at least one outcome required")
    count = sum(1 for o in outcomes[1:] if o in _MINUS)
    return PauliLabel(_COUNTER_TABLE[count % 2][outcomes[0].index])


def _worse(worst: float, dev: float) -> float:
    """The larger deviation, NaN if either is NaN: ``max`` would drop a NaN
    deviation and let a verdict pass on it."""
    return math.nan if math.isnan(worst) or math.isnan(dev) else max(worst, dev)


@lru_cache(maxsize=None)
def _outcome_tuples(n: int) -> tuple[tuple[BellOutcome, ...], ...]:
    """Every concentration outcome tuple, party 1 most significant."""
    return tuple(itertools.product(BELL_OUTCOMES, repeat=n))


@lru_cache(maxsize=None)
def _receiver_gates(variant: Variant, n: int) -> np.ndarray:
    """The receiver gate of every ``_outcome_tuples`` row, as a read-only
    (4^n, 2, 2) array: the counter table for the staircase variant, else the
    left fold L(o_1) @ ... @ L(o_n) of the outcome letters."""
    if variant is Variant.DOMINO:
        labels = [domino_correction_by_counter(tup).value for tup in _outcome_tuples(n)]
        gates = np.array([_ORACLE_GATE[label] for label in labels])
    else:
        letters = np.array([_ORACLE_GATE[letter] for letter in _CORR_LETTER])
        gates = letters
        for _ in range(n - 1):
            gates = (gates[:, None] @ letters).reshape(-1, 2, 2)
    gates.setflags(write=False)
    return gates


@lru_cache(maxsize=None)
def _receiver_labels(variant: Variant, n: int) -> tuple[PauliLabel, ...]:
    """The letter of every ``_receiver_gates`` row, each gate being that
    letter's gate times a phase."""
    letters = np.array([_ORACLE_GATE[letter] for letter in _CORR_LETTER])
    overlaps = np.abs(np.einsum("lij,kij->kl", letters.conj(), _receiver_gates(variant, n)))
    return tuple(PauliLabel(_CORR_LETTER[i]) for i in overlaps.argmax(axis=1).tolist())


@lru_cache(maxsize=None)  # no channel in the key: fresh random channels hit it too
def _dist_gates(variant: Variant, n: int) -> np.ndarray:
    """Every sender outcome's party correction, the Kronecker product of its
    distribution letters, as one read-only (4, 2^n, 2^n) array."""
    gates = np.array([reduce(np.kron, [_ORACLE_GATE[x] for x in _oracle_dist_letters(variant, a, n)])
                      for a in BELL_OUTCOMES])
    gates.setflags(write=False)
    return gates


def _sender_maps(component: Component, variant: Variant, n: int) -> np.ndarray:
    """(4, 2^n, 2): column x of map a is the corrected, unnormalized party
    vector that sender outcome a leaves for the input |x>.

    The sender's bra on (input bit x, endpoint bit e) is
    conj(_ORACLE_BELL[a, 2x + e]); endpoint e = 0 carries the supports and
    e = 1 their complements. The party correction is ``_dist_gates``."""
    chan = build_channel_component(component, variant, Endpoint.SENDER_FIRST, n).amps.reshape(2, -1)
    maps = np.einsum("axe,ep->apx", _ORACLE_BELL.conj().reshape(4, 2, 2), chan)
    return _dist_gates(variant, n) @ maps


def _pair_bras(parties: np.ndarray, channels: np.ndarray, n: int) -> np.ndarray:
    """(len(parties), len(channels), 4^n): for party string p and channel
    string u (basis indices), the amplitude prod_i conj(_ORACLE_BELL[o_i,
    2 p_i + u_i]) of every outcome tuple o, as the outer product of one
    4-vector per party, o_1 most significant."""
    shifts = np.arange(n - 1, -1, -1)  # party 1 is the most significant bit
    bits = 2 * ((parties[:, None, None] >> shifts) & 1) + ((channels[:, None] >> shifts) & 1)
    factors = _ORACLE_BELL.conj().T[bits]
    out = factors[:, :, 0]
    for i in range(1, n):
        out = (out[..., None] * factors[:, :, i, None]).reshape(len(parties), len(channels), -1)
    return out


# Party strings per step of the support-pair sum: bounds each step's bra
# block to this many amplitudes (4 MiB), whatever the supports.
_PAIR_BLOCK = 1 << 18


def _branch_maps(senders: np.ndarray, receiver: np.ndarray, gates: np.ndarray, n: int) -> np.ndarray:
    """(4, 4^n, 2, 2): column x of map (a, o) is the corrected, unnormalized
    receiver vector of sender outcome a and party outcomes o for the input
    |x>; its squared norm is the product of the two raw probabilities.

    ``senders`` are one sender component's ``_sender_maps``, ``receiver``
    one receiver component's amplitudes as (channel string, receiver bit).
    The maps sum over support pairs: each party string p the sender maps
    reach and each channel string u of the receiver add the pair's Bell
    bras times senders[:, p] (x) receiver[u]. Then the receiver gates act.
    """
    parties = np.flatnonzero(np.any(senders != 0, axis=(0, 2)))
    channels = np.flatnonzero(np.any(receiver != 0, axis=1))
    step = max(1, _PAIR_BLOCK // (len(channels) * 4**n))
    maps = np.zeros((4**n, 2, 4, 2), dtype=complex)  # (o, r, a, x)
    for start in range(0, len(parties), step):
        p = parties[start:start + step]
        rows = _pair_bras(p, channels, n).transpose(0, 2, 1) @ receiver[channels]  # (p, o, r)
        maps += np.tensordot(rows, senders[:, p], axes=([0], [1]))
    return gates @ maps.transpose(2, 0, 1, 3)


def _oracle_maps(dist: ChannelSpec, conc: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """A channel pair's maps, built once per check: (every sender
    component's ``_sender_maps``, (d, 4, 2^n, 2); every component pair's
    ``_branch_maps``, (d, c, 4, 4^n, 2, 2)).

    Raises ``ValueError`` for a channel on the wrong endpoint or channels
    with different party counts, and ``CapacityError`` above
    ``MAX_EXHAUSTIVE_PARTIES`` parties, before any map is built.
    """
    if dist.endpoint is not Endpoint.SENDER_FIRST:
        raise ValueError("distribution needs a sender-side channel (endpoint 'sender')")
    if conc.endpoint is not Endpoint.RECEIVER_LAST:
        raise ValueError("concentration needs a receiver-side channel (endpoint 'receiver')")
    n = dist.n_parties
    if conc.n_parties != n:
        raise ValueError(f"party mismatch: distribution has {n}, concentration has {conc.n_parties}")
    if n > MAX_EXHAUSTIVE_PARTIES:
        raise CapacityError(
            f"oracle capped at {MAX_EXHAUSTIVE_PARTIES} parties like the evaluator, got {n}"
        )
    senders = np.array([_sender_maps(comp, dist.variant, n) for comp in dist.components])
    receivers = [
        build_channel_component(comp, conc.variant, Endpoint.RECEIVER_LAST, n).amps.reshape(-1, 2)
        for comp in conc.components
    ]
    gates = _receiver_gates(conc.variant, n)
    return senders, np.array([[_branch_maps(s, r, gates, n) for r in receivers] for s in senders])


def check_faithful(
    dist: ChannelSpec,
    conc: ChannelSpec,
    trials: int = 20,
    seed=0,
    tolerance: float = FAITHFUL_TOL,
    claim_id: str | None = None,
) -> Verdict:
    """Exhaustively enumerate every branch for ``trials`` random inputs and
    check that each nonzero branch reconstructs the input and that branch
    probabilities sum to one. worst_deviation is the larger of the worst
    fidelity gap and the worst probability-sum gap."""
    gen = as_rng(seed)
    worst = 0.0
    prob_gap = 0.0
    branches_checked = 0
    witnesses: list[OutcomeReport] = []
    for _ in range(trials):
        reports = run_end_to_end(random_input(gen), dist, conc, mode="exhaustive")
        # Columns by list comprehension: on slotted reports it beats both a
        # generator and map(attrgetter), and sum keeps the same order.
        total = sum([r.joint_prob for r in reports])
        prob_gap = _worse(prob_gap, abs(total - 1.0))
        fids = [r.fidelity for r in reports]
        devs = np.abs(1.0 - np.array([f for f in fids if f is not None], dtype=float))
        branches_checked += len(devs)
        if len(devs):
            worst = _worse(worst, float(devs.max()))  # max propagates NaN
        bad = np.flatnonzero(~(devs <= tolerance))[: MAX_WITNESSES - len(witnesses)]
        if len(bad):
            live = [r for r in reports if r.fidelity is not None]
            witnesses.extend(live[k] for k in bad)
    worst = _worse(worst, prob_gap)
    if claim_id is None:
        claim_id = f"faithful-{dist.variant.value}-n{dist.n_parties}"
    return Verdict(
        claim_id,
        branches_checked > 0 and worst <= tolerance,
        worst,
        tolerance,
        tuple(witnesses),
        {"trials": trials, "branches_checked": branches_checked, "max_prob_gap": prob_gap},
    )


# Oracle branches judged per batch of trials: bounds the judging arrays and
# the evaluator reports held at once.
_BATCH_BRANCHES = 1 << 16


def _oracle_columns(senders, maps, dist: ChannelSpec, conc: ChannelSpec, inputs, bras):
    """Every oracle branch of a batch of inputs (t, 2), trial by trial in the
    evaluator's report order: (branches per trial, (component index, sender
    outcome, party outcomes) keys, joint probabilities, null flags,
    fidelities). A null sender branch is one record with no party outcomes;
    a null branch's fidelity is meaningless.

    A branch's fidelity is the largest |<b|v>|^2 / |v|^2 of its receiver
    vector v over its trial's bras b, given as (t, m, 2)."""
    nd, nc, _, rows = maps.shape[:4]
    w_d = np.array([c.weight for c in dist.components])
    w_c = np.array([c.weight for c in conc.components])
    party = np.einsum("dapx,tx->tdap", senders, inputs)
    raw_a = np.einsum("tdap,tdap->tda", party.conj(), party).real
    out = np.einsum("dcaorx,tx->tdacor", maps, inputs)
    norm = np.einsum("...r,...r->...", out.conj(), out).real  # raw_a * raw_c
    overlap = (np.abs(np.einsum("tmr,tdacor->tdacom", bras.conj(), out)) ** 2).max(axis=-1)
    sender_joint = w_d[:, None] * raw_a
    dead = raw_a < NULL_PROB_EPS
    raw_c = norm / np.where(dead, 1.0, raw_a)[..., None, None]
    shape = (len(inputs), nd, 4, nc * rows)
    joint = (sender_joint[..., None, None] * w_c[:, None] * raw_c).reshape(shape)
    null = (raw_c < NULL_PROB_EPS).reshape(shape)
    fid = (overlap / np.where(raw_c < NULL_PROB_EPS, 1.0, norm)).reshape(shape)
    joint[dead, 0] = sender_joint[dead]
    null[dead, 0] = True
    keep = np.ones(shape, dtype=bool)
    keep[dead, 1:] = False
    _, d, a, k = np.indices(shape)
    outcome = np.where(dead[..., None], rows, k % rows)[keep]
    keys = zip(
        (d * nc + k // rows)[keep].tolist(),
        map(BELL_OUTCOMES.__getitem__, a[keep].tolist()),
        map((_outcome_tuples(dist.n_parties) + ((),)).__getitem__, outcome.tolist()),
    )
    return keep.sum(axis=(1, 2, 3)).tolist(), list(keys), joint[keep], null[keep], fid[keep]


# Stands in for a report the evaluator did not return; its key is no branch's.
_MISSING = OutcomeReport(-1, None, (), math.nan, None, None)


def _deviations(runs, columns) -> tuple[np.ndarray, list, bool]:
    """Compare a batch of evaluator runs with the oracle's columns position
    by position: (each oracle branch's deviation, the report at its position
    or ``_MISSING``, whether any run returned more reports than the oracle
    has branches). A missing report, or one whose component or outcomes
    differ from the oracle branch at its position, deviates by 1.0."""
    counts, keys, joint, null, fid = columns
    slots = list(itertools.chain.from_iterable(
        run[:count] + [_MISSING] * (count - len(run)) for run, count in zip(runs, counts)
    ))
    found = [(r.component_index, r.alice_outcome, r.bob_outcomes) for r in slots]
    misplaced = False if found == keys else np.array(list(map(operator.ne, found, keys)))
    ev_fid = np.array([r.fidelity for r in slots], dtype=object)
    ev_null = np.equal(ev_fid, None)
    ev_fid[ev_null] = 0.0
    dev = np.abs(np.array([r.joint_prob for r in slots], dtype=float) - joint)
    dev = np.where(ev_null != null, np.maximum(dev, 1.0), dev)
    dev = np.where(~ev_null & ~null, np.maximum(dev, np.abs(fid - ev_fid.astype(float))), dev)
    extra = any(len(run) > count for run, count in zip(runs, counts))
    return np.where(misplaced, 1.0, dev), slots, extra


def oracle_agreement(
    dist: ChannelSpec,
    conc: ChannelSpec,
    trials: int = 3,
    seed=0,
    tolerance: float = ORACLE_TOL,
) -> Verdict:
    """Compare every end-to-end branch's (joint probability, fidelity)
    between the protocol evaluator and this module's oracle.

    The oracle builds one 2x2 map per branch of every channel component
    pair once per call, from the components' support pairs (see
    ``_branch_maps``), and judges every trial's input against the same maps.
    The evaluator's reports must come in the oracle's branch order: a report
    whose component or outcomes differ from the oracle branch at its
    position, and a missing or extra report, each count as deviation 1.0.
    Raises as ``_oracle_maps`` does.
    """
    senders, maps = _oracle_maps(dist, conc)
    gen = as_rng(seed)
    inputs = [random_input(gen) for _ in range(trials)]
    worst = 0.0
    compared = 0
    witnesses: list[OutcomeReport] = []

    per_batch = max(1, 4 * _BATCH_BRANCHES // maps.size)
    for start in range(0, trials, per_batch):
        batch = inputs[start:start + per_batch]
        runs = [run_end_to_end(inp, dist, conc, mode="exhaustive") for inp in batch]
        vecs = np.array([[inp.alpha, inp.beta] for inp in batch], dtype=complex)
        columns = _oracle_columns(senders, maps, dist, conc, vecs, vecs[:, None])
        devs, slots, extra = _deviations(runs, columns)
        compared += len(devs)
        if len(devs):
            worst = _worse(worst, float(devs.max()))  # max propagates NaN
        if extra:
            worst = _worse(worst, 1.0)  # the evaluator returned more branches than the oracle
        bad = [slots[k] for k in np.flatnonzero(~(devs <= tolerance)) if slots[k] is not _MISSING]
        witnesses += bad[: MAX_WITNESSES - len(witnesses)]

    return Verdict(
        f"oracle-{dist.variant.value}-n{dist.n_parties}",
        compared > 0 and worst <= tolerance,
        worst,
        tolerance,
        tuple(witnesses),
        {"trials": trials, "branches_compared": compared},
    )


def even_n_counterexample(
    n: int,
    seed=0,
    dist: ChannelSpec | None = None,
    conc: ChannelSpec | None = None,
    input_qubit: InputQubit | None = None,
) -> Verdict:
    """Search an even-party parity-shaped run for branches that no single
    receiver Pauli can repair.

    Passing means the failure claim is CONFIRMED: at least one branch with
    joint probability above WITNESS_PROB_FLOOR has best-over-Paulis fidelity
    at or below EVEN_N_FID_CEILING. worst_deviation is the smallest
    best-over-Paulis fidelity seen (1.0 when no branch qualifies), and each
    of the first MAX_EVEN_N_WITNESSES witness reports carries that branch's
    best-over-Paulis fidelity. Channels and input default to generic seeded
    random draws.

    Branches are read off the oracle's maps (``_oracle_maps``) with
    ``oracle_agreement``'s null rules: a branch with map K has
    best-over-Paulis fidelity max_g |<in|g K|in>|^2 / |K|in>|^2 over the four
    Paulis g. Raises as ``_oracle_maps`` does.
    """
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    gen = as_rng(seed)
    if dist is None:
        dist = random_channel(Variant.PARITY, n, Endpoint.SENDER_FIRST, gen)
    if conc is None:
        conc = random_channel(Variant.PARITY, n, Endpoint.RECEIVER_LAST, gen)
    for side, spec in (("dist", dist), ("conc", conc)):
        if spec.n_parties != n:
            raise ValueError(f"{side} channel has {spec.n_parties} parties, expected n = {n}")
    if input_qubit is None:
        input_qubit = random_input(gen)
    senders, maps = _oracle_maps(dist, conc)

    inputs = np.array([[input_qubit.alpha, input_qubit.beta]], dtype=complex)
    # Each Pauli is Hermitian, so its bra <in|g is the conjugate of g|in>.
    bras = np.array([_ORACLE_GATE[letter] for letter in _CORR_LETTER]) @ inputs[0]
    _, keys, joint, null, best = _oracle_columns(senders, maps, dist, conc, inputs, bras[None])
    examined = ~null & (joint > WITNESS_PROB_FLOOR)
    flagged = np.flatnonzero(examined & (best <= EVEN_N_FID_CEILING))
    labels = dict(zip(_outcome_tuples(n), _receiver_labels(conc.variant, n)))
    witnesses = tuple(
        OutcomeReport(index, alice, bobs, float(joint[k]), labels[bobs], float(best[k]))
        for k in flagged[:MAX_EVEN_N_WITNESSES].tolist()
        for index, alice, bobs in [keys[k]]
    )
    worst = float(np.min(best[examined], initial=1.0))
    return Verdict(
        f"even-n-{n}",
        worst <= EVEN_N_FID_CEILING,
        worst,
        EVEN_N_FID_CEILING,
        witnesses,
        {
            "branches_examined": int(examined.sum()),
            "witness_count": len(flagged),
            "meaning": "worst_deviation is the minimum best-over-Paulis fidelity",
        },
    )


def verify_smolin(seed=0, trials: int = 5) -> Verdict:
    """Check the two independent constructions of the four-qubit bound
    entangled state coincide and that it concentrates the telecloning
    distribution faithfully on every branch of every component.

    The trace-distance deviation is scaled by FAITHFUL_TOL/SMOLIN_DECOMP_TOL
    so both sub-checks fold into one worst_deviation against FAITHFUL_TOL;
    the raw numbers are recorded in details.
    """
    direct = smolin_state()
    mixture = expand_mixture(smolin_channel()).to_density()
    td = trace_distance(direct, mixture)
    purity = direct.purity()
    faithful = check_faithful(
        telecloning_channel(),
        smolin_channel(),
        trials=trials,
        seed=seed,
        claim_id="smolin-concentration",
    )
    worst = _worse(td * (FAITHFUL_TOL / SMOLIN_DECOMP_TOL), faithful.worst_deviation)
    return Verdict(
        "smolin-channel",
        faithful.passed and worst <= FAITHFUL_TOL,
        worst,
        FAITHFUL_TOL,
        faithful.witnesses,
        {
            "trace_distance": td,
            "purity": purity,
            "concentration_worst_deviation": faithful.worst_deviation,
            "trials": trials,
        },
    )


def _clone_fidelities(inputs) -> list[list[float]]:
    """``clone_report`` of each input, from one build of the telecloning channel's map."""
    spec = telecloning_channel()
    clone_map = _sender_maps(spec.components[0], spec.variant, spec.n_parties)[0]
    out = []
    for input_qubit in inputs:
        inp = np.array([input_qubit.alpha, input_qubit.beta], dtype=complex)
        party = clone_map @ inp
        psi = (party / np.linalg.norm(party)).reshape(2, 2, 2)
        rests = inp.conj() @ np.array([np.moveaxis(psi, q, 0).reshape(2, 4) for q in range(3)])
        out.append([float(np.vdot(rest, rest).real) for rest in rests])
    return out


def clone_report(input_qubit: InputQubit) -> list[float]:
    """Per-qubit fidelities of the identity-outcome telecloning branch.

    Takes the party vector the sender's phi+ outcome leaves over the
    three-party cloning channel (map 0 of the oracle's ``_sender_maps``),
    normalizes it, and returns <input|rho_i|input> for each party qubit
    i = 1..3: the squared norm of the input's bra contracted against qubit i.
    Qubit 1 is the anticlone; qubits 2 and 3 are the optimal clones.
    """
    return _clone_fidelities([input_qubit])[0]


def clone_fidelity_verdict(trials: int = 100, seed=0) -> Verdict:
    """Clone qubits must report fidelity 5/6 independent of the input."""
    gen = as_rng(seed)
    worst = 0.0
    pair_gap = 0.0
    anticlone_lo, anticlone_hi = 1.0, 0.0
    for f1, f2, f3 in _clone_fidelities([random_input(gen) for _ in range(trials)]):
        worst = _worse(_worse(worst, abs(f2 - CLONE_TARGET)), abs(f3 - CLONE_TARGET))
        pair_gap = _worse(pair_gap, abs(f2 - f3))
        anticlone_lo = min(anticlone_lo, f1)
        anticlone_hi = max(anticlone_hi, f1)
    return Verdict(
        "clone-fidelity",
        trials > 0 and worst <= CLONE_TOL,
        worst,
        CLONE_TOL,
        (),
        {
            "trials": trials,
            "clone_target": CLONE_TARGET,
            "max_pair_gap": pair_gap,
            "anticlone_min": anticlone_lo,
            "anticlone_max": anticlone_hi,
        },
    )


def run_suite(suite: str, seed=1, n: int | None = None, tolerance: float | None = None) -> list[Verdict]:
    """Run a named group of claim checks and return their verdicts.

    Suites: ``faithfulness`` (random parity channels at odd sizes, staircase
    channels at all sizes), ``smolin``, ``clone``, ``even-n``, or ``all``.
    ``n`` restricts the size lists of the faithfulness and even-n checks:
    parity faithfulness runs only at odd sizes and even-n only at even ones,
    so ``all`` skips the check a size does not fit and ``even-n`` rejects an
    odd ``n``. ``tolerance`` overrides the faithfulness tolerance for that
    run only. Each is rejected for a suite that runs no check it applies to.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if n is not None and suite not in ("all", "faithfulness", "even-n"):
        raise ValueError(f"n only applies to the faithfulness and even-n checks, not suite {suite!r}")
    if tolerance is not None and suite not in ("all", "faithfulness"):
        raise ValueError(f"tolerance only applies to the faithfulness checks, not suite {suite!r}")
    gen = as_rng(seed)
    verdicts: list[Verdict] = []
    if suite in ("all", "faithfulness"):
        tol = FAITHFUL_TOL if tolerance is None else tolerance
        parity_sizes = [n] if n is not None else [1, 3, 5]
        domino_sizes = [n] if n is not None else [1, 2, 3, 4, 5]
        for size in parity_sizes:
            if size % 2 == 0:
                continue  # the parity guarantee only covers odd sizes
            dist = random_channel(Variant.PARITY, size, Endpoint.SENDER_FIRST, gen)
            conc = random_channel(Variant.PARITY, size, Endpoint.RECEIVER_LAST, gen)
            verdicts.append(check_faithful(dist, conc, trials=4, seed=gen, tolerance=tol))
        for size in domino_sizes:
            dist = random_channel(Variant.DOMINO, size, Endpoint.SENDER_FIRST, gen)
            conc = random_channel(Variant.DOMINO, size, Endpoint.RECEIVER_LAST, gen)
            verdicts.append(check_faithful(dist, conc, trials=4, seed=gen, tolerance=tol))
    if suite in ("all", "smolin"):
        verdicts.append(verify_smolin(seed=gen if suite == "all" else seed))
    if suite in ("all", "clone"):
        verdicts.append(clone_fidelity_verdict(trials=100, seed=gen if suite == "all" else seed))
    if suite in ("all", "even-n"):
        sizes = [n] if n is not None else [2, 4]
        for size in sizes:
            if suite == "all" and size % 2 != 0:
                continue  # the failure claim is about even sizes
            verdicts.append(even_n_counterexample(size, seed=gen))
    return verdicts
