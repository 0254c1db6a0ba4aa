"""Independent verification of the protocol's claims.

Everything here recomputes branch physics from scratch with dense matrix
arithmetic: Bell projections as explicit rectangular matrices, corrections
as Kronecker/matrix products of 2x2 gate literals, and the staircase
receiver correction via the counter-based two-table algorithm. The only
shared ingredient with the protocol module is channel-state construction,
which is data, not branch logic. Agreement between the two paths is itself
one of the checks.
"""

from __future__ import annotations

import dataclasses
import math
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
    InputQubit,
    OutcomeReport,
    concentrate,
    distribute,
    random_input,
    report_from_branch,
    run_end_to_end,
)
from .statevec import CapacityError, reduced_density, trace_distance

FAITHFUL_TOL = 1e-9
ORACLE_TOL = 1e-10
SMOLIN_DECOMP_TOL = 1e-10
CLONE_TOL = 1e-10
CLONE_TARGET = 5.0 / 6.0
EVEN_N_FID_CEILING = 1.0 - 1e-6
WITNESS_PROB_FLOOR = 1e-12
MAX_WITNESSES = 8

# The oracle's dense projections of an m-qubit vector are (2^(m-2), 2^m)
# matrices. The first concentration level at five parties needs four of
# them at 16 MiB each; at six it would need four at 256 MiB.
MAX_ORACLE_PARTIES = 5


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


@lru_cache(maxsize=None)
def _bra_matrix(num_qubits: int, q1: int, q2: int, outcome_index: int) -> np.ndarray:
    """Dense (2^(m-2), 2^m) matrix projecting qubits q1 < q2 of an m-qubit
    column vector onto one Bell bra, keeping the remaining qubits in their
    original order. Qubit 1 is the most significant bit."""
    m = num_qubits
    mat = np.zeros((1 << (m - 2), 1 << m), dtype=complex)
    for col in range(1 << m):
        t = (col >> (m - q1)) & 1
        u = (col >> (m - q2)) & 1
        coeff = _ORACLE_BELL[outcome_index, 2 * t + u]
        if coeff == 0.0:
            continue
        r = 0
        for q in range(1, m + 1):
            if q == q1 or q == q2:
                continue
            r = (r << 1) | ((col >> (m - q)) & 1)
        mat[r, col] = np.conj(coeff)
    mat.setflags(write=False)
    return mat


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


def _misplaced(report: OutcomeReport | None, component_index: int, alice: BellOutcome, bobs) -> bool:
    """Whether the evaluator's report at an oracle branch's position is
    absent or belongs to a different branch."""
    return (
        report is None
        or report.component_index != component_index
        or report.alice_outcome is not alice
        or report.bob_outcomes != bobs
    )


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors: the products np.kron forms, without
    its per-call reshaping."""
    return np.multiply.outer(a, b).ravel()


@lru_cache(maxsize=None)
def _oracle_dist_gate(variant: Variant, outcome: BellOutcome, n_parties: int) -> np.ndarray:
    """Dense n-qubit distribution correction for one sender outcome."""
    letters = _oracle_dist_letters(variant, outcome, n_parties)
    gate = reduce(np.kron, [_ORACLE_GATE[letter] for letter in letters])
    gate.setflags(write=False)
    return gate


def _corrected(vec: np.ndarray, gate: np.ndarray) -> tuple[float, np.ndarray | None]:
    """(raw probability, normalized ``gate @ vec`` or None on a null branch)."""
    raw = float(np.real(np.vdot(vec, vec)))
    if raw < NULL_PROB_EPS:
        return raw, None
    return raw, (gate @ vec) / np.sqrt(raw)


def _sender_branch(full: np.ndarray, variant: Variant, n_parties: int, outcome: BellOutcome):
    """One distribution branch of ``input (x) sender channel``."""
    vec = _bra_matrix(n_parties + 2, 1, 2, outcome.index) @ full
    return _corrected(vec, _oracle_dist_gate(variant, outcome, n_parties))


def _concentration_leaves(start: np.ndarray, variant: Variant, n_parties: int, levels):
    """Walk the concentration outcome tree below ``start`` = ``bobs (x)
    receiver channel`` depth first, taking the outcomes ``levels[i]`` for
    party i+1. Yields (outcomes, raw probability, corrected 2-vector or None)
    per leaf, in lexicographic order of ``levels``.

    A node at depth i applies one dense projection of the pair (party i+1,
    channel qubit i+1) to its parent's vector, and the parity receiver gate
    is the left fold of the outcome letters along the path, so each leaf is
    the same sequence of products as a per-branch loop over its outcomes.
    """
    domino = variant is Variant.DOMINO
    steps = [
        [
            (o, _bra_matrix(2 * n_parties + 1 - 2 * depth, 1, n_parties - depth + 1, o.index),
             _ORACLE_GATE[_CORR_LETTER[o.index]])
            for o in outcomes
        ]
        for depth, outcomes in enumerate(levels)
    ]

    def walk(vec, depth, prefix, gate):
        if depth == n_parties:
            if domino:
                gate = _ORACLE_GATE[domino_correction_by_counter(prefix).value]
            yield prefix, *_corrected(vec, gate)
            return
        for outcome, bra, letter in steps[depth]:
            path_gate = letter if domino or gate is None else gate @ letter
            yield from walk(bra @ vec, depth + 1, prefix + (outcome,), path_gate)

    return walk(start, 0, (), None)


def _check_oracle_size(n_parties: int) -> None:
    if n_parties > MAX_ORACLE_PARTIES:
        raise CapacityError(
            f"dense oracle capped at {MAX_ORACLE_PARTIES} parties, got {n_parties}"
        )


def oracle_distribution_branch(
    input_qubit: InputQubit, component: Component, variant: Variant, n_parties: int, outcome: BellOutcome
):
    """Recompute one distribution branch by dense matrix arithmetic.

    Returns (raw probability, corrected n-qubit amplitude vector or None).
    """
    chan = build_channel_component(component, variant, Endpoint.SENDER_FIRST, n_parties)
    full = _outer(np.array([input_qubit.alpha, input_qubit.beta], dtype=complex), chan.amps)
    return _sender_branch(full, variant, n_parties, outcome)


def oracle_concentration_branch(
    bobs_vec: np.ndarray, component: Component, variant: Variant, n_parties: int, outcomes
):
    """Recompute one concentration branch: sequential dense Bell projections
    of pairs (party i, channel qubit i), then the receiver gate. Returns
    (raw probability, corrected 2-vector or None). Raises ``CapacityError``
    above ``MAX_ORACLE_PARTIES`` parties."""
    _check_oracle_size(n_parties)
    outcomes = tuple(outcomes)
    if len(outcomes) != n_parties:
        raise ValueError(f"expected {n_parties} outcomes, got {len(outcomes)}")
    chan = build_channel_component(component, variant, Endpoint.RECEIVER_LAST, n_parties)
    start = _outer(np.asarray(bobs_vec, dtype=complex), chan.amps)
    ((_, raw, vec),) = _concentration_leaves(start, variant, n_parties, [(o,) for o in outcomes])
    return raw, vec


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
        total = sum(r.joint_prob for r in reports)
        prob_gap = _worse(prob_gap, abs(total - 1.0))
        live = [r for r in reports if r.fidelity is not None]
        devs = np.abs(1.0 - np.array([r.fidelity for r in live], dtype=float))
        branches_checked += len(live)
        if live:
            worst = _worse(worst, float(devs.max()))  # max propagates NaN
        for k in np.flatnonzero(~(devs <= tolerance))[: MAX_WITNESSES - len(witnesses)]:
            witnesses.append(live[k])
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


def _oracle_branches(inp_vec: np.ndarray, dist: ChannelSpec, conc: ChannelSpec, senders, receivers):
    """Every end-to-end branch of one input in the evaluator's report order,
    as (component index, sender outcome, receiver outcomes, joint
    probability, corrected 2-vector or None). A null sender branch has no
    receiver outcomes. ``senders`` and ``receivers`` are the channel
    components' amplitude vectors."""
    n = dist.n_parties
    levels = [BELL_OUTCOMES] * n
    for ci, (comp, sender) in enumerate(zip(dist.components, senders)):
        full = _outer(inp_vec, sender)
        for a_outcome in BELL_OUTCOMES:
            raw_a, vec_a = _sender_branch(full, dist.variant, n, a_outcome)
            if vec_a is None:
                yield ci * len(conc.components), a_outcome, (), comp.weight * raw_a, None
                continue
            for cj, (ccomp, receiver) in enumerate(zip(conc.components, receivers)):
                index = ci * len(conc.components) + cj
                weight = comp.weight * raw_a * ccomp.weight
                start = _outer(vec_a, receiver)
                for tup, raw_c, vec_c in _concentration_leaves(start, conc.variant, n, levels):
                    yield index, a_outcome, tup, weight * raw_c, vec_c


def oracle_agreement(
    dist: ChannelSpec,
    conc: ChannelSpec,
    trials: int = 3,
    seed=0,
    tolerance: float = ORACLE_TOL,
    claim_id: str | None = None,
) -> Verdict:
    """Compare every end-to-end branch's (joint probability, fidelity)
    between the protocol evaluator and this module's dense oracle.

    The evaluator's reports must come in the oracle's branch order: a report
    whose component or outcomes differ from the oracle branch at its
    position, and a missing or extra report, each count as deviation 1.0.
    Each channel component is built once per call, and the oracle walks each
    receiver component's outcome tree once per live sender branch. Raises
    ``CapacityError`` above ``MAX_ORACLE_PARTIES`` parties.
    """
    n = dist.n_parties
    _check_oracle_size(n)
    gen = as_rng(seed)
    senders = [
        build_channel_component(comp, dist.variant, Endpoint.SENDER_FIRST, n).amps
        for comp in dist.components
    ]
    receivers = [
        build_channel_component(comp, conc.variant, Endpoint.RECEIVER_LAST, n).amps
        for comp in conc.components
    ]
    worst = 0.0
    compared = 0
    witnesses: list[OutcomeReport] = []

    for _ in range(trials):
        inp = random_input(gen)
        inp_vec = np.array([inp.alpha, inp.beta], dtype=complex)
        reports = iter(run_end_to_end(inp, dist, conc, mode="exhaustive"))
        for index, a_outcome, tup, joint, vec in _oracle_branches(inp_vec, dist, conc, senders, receivers):
            r = next(reports, None)
            if _misplaced(r, index, a_outcome, tup):
                dev = 1.0
            else:
                dev = abs(r.joint_prob - joint)
                if (vec is None) != (r.fidelity is None):
                    dev = max(dev, 1.0)
                elif vec is not None:
                    fid = float(abs(np.vdot(inp_vec, vec)) ** 2)
                    dev = _worse(dev, abs(fid - r.fidelity))
            compared += 1
            worst = _worse(worst, dev)
            if not dev <= tolerance and r is not None and len(witnesses) < MAX_WITNESSES:
                witnesses.append(r)
        if next(reports, None) is not None:
            worst = _worse(worst, 1.0)  # the evaluator returned more branches than the oracle

    if claim_id is None:
        claim_id = f"oracle-{dist.variant.value}-n{n}"
    return Verdict(
        claim_id,
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
    max_witnesses: int = 16,
) -> Verdict:
    """Search an even-party parity-shaped run for branches that no single
    receiver Pauli can repair.

    Passing means the failure claim is CONFIRMED: at least one branch with
    joint probability above WITNESS_PROB_FLOOR has best-over-Paulis fidelity
    at or below EVEN_N_FID_CEILING. worst_deviation is the smallest
    best-over-Paulis fidelity seen (1.0 when no branch qualifies), and each
    witness report carries that branch's best-over-Paulis fidelity.
    Channels and input default to generic seeded random draws.
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
    input_state = input_qubit.to_state()
    inp_vec = input_state.amps

    gates = [_ORACLE_GATE[letter] for letter in _CORR_LETTER]
    examined = 0
    witness_count = 0
    worst = 1.0
    witnesses: list[OutcomeReport] = []
    for db in distribute(input_qubit, dist, mode="exhaustive"):
        if db.state is None:
            continue
        for cb in concentrate(db, conc, mode="exhaustive"):
            if cb.state is None or cb.joint_prob <= WITNESS_PROB_FLOOR:
                continue
            examined += 1
            best = max(float(abs(np.vdot(inp_vec, g @ cb.state.amps)) ** 2) for g in gates)
            worst = min(worst, best)
            if best <= EVEN_N_FID_CEILING:
                witness_count += 1
                if len(witnesses) < max_witnesses:
                    report = report_from_branch(cb, input_state)
                    witnesses.append(dataclasses.replace(report, fidelity=best))
    return Verdict(
        f"even-n-{n}",
        worst <= EVEN_N_FID_CEILING,
        worst,
        EVEN_N_FID_CEILING,
        tuple(witnesses),
        {
            "branches_examined": examined,
            "witness_count": witness_count,
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


def clone_report(input_qubit: InputQubit) -> list[float]:
    """Per-qubit fidelities of the identity-outcome telecloning branch.

    Distributes over the three-party cloning channel, takes the branch where
    the sender saw the identity outcome, and returns <input|rho_i|input> for
    each party qubit i = 1..3. Qubit 1 is the anticlone; qubits 2 and 3 are
    the optimal clones.
    """
    branch = distribute(input_qubit, telecloning_channel(), mode="exhaustive")[0]
    if branch.outcomes != (BellOutcome.PHI_PLUS,):
        raise RuntimeError(f"first distribution branch has outcomes {branch.outcomes}, expected phi+")
    inp = input_qubit.to_state().amps
    fids = []
    for q in (1, 2, 3):
        rho = reduced_density(branch.state, (q,))
        fids.append(float(np.real(np.vdot(inp, rho.entries @ inp))))
    return fids


def clone_fidelity_verdict(trials: int = 100, seed=0) -> Verdict:
    """Clone qubits must report fidelity 5/6 independent of the input."""
    gen = as_rng(seed)
    worst = 0.0
    pair_gap = 0.0
    anticlone_lo, anticlone_hi = 1.0, 0.0
    for _ in range(trials):
        f1, f2, f3 = clone_report(random_input(gen))
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
    ``n`` restricts the size lists; ``tolerance`` overrides the faithfulness
    tolerance for that run only, so it is rejected for a suite that runs no
    faithfulness check.
    """
    known = {"all", "faithfulness", "smolin", "clone", "even-n"}
    if suite not in known:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(known)}")
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
            verdicts.append(even_n_counterexample(size, seed=gen))
    return verdicts
