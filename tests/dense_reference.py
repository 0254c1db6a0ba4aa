"""The dense per-branch oracle, kept as an independent reference for
``qrelay.verify.oracle_agreement`` and ``even_n_counterexample``, the
dense sampled trajectory, kept as the reference for sampled
``run_end_to_end``, and the single-state helpers the tests build and
check states with: Kronecker products, basis states, one-qubit gates, the
Bell rows of one qubit pair, one Bell projection and a pure state's
density matrix. It also keeps the earlier forms of the exhaustive
concentration kernels, a batched Bell-bra product and a matrix receiver
correction, as references for the forms that replaced them, and the earlier
forms of ``random_input`` and of the oracle's distribution gates.

Every branch rebuilds its channel component, forms its Kronecker product
and applies each Bell projection as an explicit rectangular matrix, so its
memory grows as 4^n per projection: use it only at small party counts.
The sampled trajectory holds the full 2^(2n+1)-amplitude joint vector.
"""

import itertools
import math
from functools import lru_cache, reduce

import numpy as np

import qrelay.verify as verify_mod
from qrelay.bell import _BELL_BRAS, BELL_OUTCOMES, NULL_PROB_EPS, PAULI_MATRICES, as_rng
from qrelay.channels import Endpoint, Variant, build_channel_component
from qrelay.protocol import (
    InputQubit,
    OutcomeReport,
    _check_normalized,
    _fidelities,
    concentration_correction,
    distribute,
)
from qrelay.statevec import DEFAULT_QUBIT_CAP, CapacityError, DensityMatrix, StateVector


def _check_qubit(qubit, num_qubits):
    if not 1 <= qubit <= num_qubits:
        raise ValueError(f"qubit {qubit} out of range 1..{num_qubits}")


def tensor(a, b, cap=DEFAULT_QUBIT_CAP):
    """Kronecker product; ``a``'s qubits come first (most significant)."""
    total = a.num_qubits + b.num_qubits
    if total > cap:
        raise CapacityError(f"tensor product would need {total} qubits, cap is {cap}")
    # The products np.kron forms for two vectors, without its reshaping.
    return StateVector(total, np.multiply.outer(a.amps, b.amps).ravel())


def pair_rows(amps, num_qubits, q1, q2):
    """Unnormalized <Bell_k| components on qubits (q1, q2).

    Returns a (4, 2**(n-2)) array; row k is the branch amplitude vector over
    the surviving qubits, which keep their original relative order.
    """
    psi = amps.reshape([2] * num_qubits)
    psi = np.moveaxis(psi, (q1 - 1, q2 - 1), (0, 1))
    return _BELL_BRAS @ psi.reshape(4, -1)


def batched_pair_rows(amps, n):
    """The reference for ``protocol._all_pair_rows``, its earlier form: the stack axis
    first, so party k's Bell bras act on b * 4**(k-1) (4, N) blocks in one batched
    product."""
    b = len(amps)
    order = [0] + [1 + ax for i in range(n) for ax in (i, n + i)] + [2 * n + 1]
    psi = amps.reshape([b] + [2] * (2 * n + 1)).transpose(order)
    for k in range(n):
        psi = _BELL_BRAS @ psi.reshape(b * 4**k, 4, -1)
    return psi.reshape(b, 4**n, 2)


def matrix_finish_rows(rows, paulis):
    """The reference for ``protocol._finish_rows``, its earlier form: row k's receiver
    correction is the matrix ``paulis[k]``, applied by one einsum."""
    raw = np.einsum("...kj,...kj->...k", rows.conj(), rows).real
    null = raw < NULL_PROB_EPS
    vecs = np.einsum("kij,...kj->...ki", paulis, rows) / np.sqrt(np.where(null, 1.0, raw))[..., None]
    _check_normalized(vecs, "concentrated receiver state", skip=null)
    return raw, vecs


def two_draw_random_input(rng):
    """The reference for ``protocol.random_input``, its earlier form: two draws
    of two normals, scaled by ``np.linalg.norm``."""
    gen = as_rng(rng)
    vec = gen.normal(size=2) + 1j * gen.normal(size=2)
    vec /= np.linalg.norm(vec)
    return InputQubit(complex(vec[0]), complex(vec[1]))


def kron_dist_gate(variant, outcome, n):
    """The reference for one of ``verify._dist_gates``, its earlier per-call
    form: the Kronecker product of the oracle's distribution letters."""
    letters = verify_mod._oracle_dist_letters(variant, outcome, n)
    return reduce(np.kron, [verify_mod._ORACLE_GATE[letter] for letter in letters])


def make_basis_state(bits):
    """Computational basis state for a bit pattern ("0110" or [0,1,1,0])."""
    bit_list = [int(b) for b in bits]
    if not bit_list:
        raise ValueError("bits must be nonempty")
    if any(b not in (0, 1) for b in bit_list):
        raise ValueError(f"bits must be 0 or 1, got {bits!r}")
    index = 0
    for b in bit_list:
        index = (index << 1) | b
    amps = np.zeros(1 << len(bit_list), dtype=complex)
    amps[index] = 1.0
    return StateVector(len(bit_list), amps)


def apply_1q(amps, num_qubits, qubit, mat):
    """A 2x2 matrix applied to one qubit of an amplitude vector."""
    psi = amps.reshape([2] * num_qubits)
    psi = np.moveaxis(psi, qubit - 1, 0)
    psi = np.tensordot(mat, psi, axes=1)
    return np.moveaxis(psi, 0, qubit - 1).reshape(-1)


def apply_single_qubit(state, qubit, op):
    """Apply a 2x2 operator to one qubit (1-based, qubit 1 leftmost)."""
    _check_qubit(qubit, state.num_qubits)
    mat = np.asarray(op, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"op must be 2x2, got shape {mat.shape}")
    return StateVector(state.num_qubits, apply_1q(state.amps, state.num_qubits, qubit, mat))


def project_bell(state, q1, q2, outcome):
    """Project qubits (q1, q2) onto one Bell outcome.

    Returns (post state, probability); the post state drops the measured
    pair and is None when the branch probability is below ``NULL_PROB_EPS``.
    """
    if q1 == q2:
        raise ValueError("measurement qubits must differ")
    _check_qubit(q1, state.num_qubits)
    _check_qubit(q2, state.num_qubits)
    if state.num_qubits < 2:
        raise ValueError("need at least two qubits to measure a pair")
    row = pair_rows(state.amps, state.num_qubits, q1, q2)[outcome.index]
    prob = float(np.vdot(row, row).real)
    if prob < NULL_PROB_EPS:
        return None, prob
    return StateVector(state.num_qubits - 2, row / np.sqrt(prob)), prob


def density_from_pure(state):
    """The projector onto a pure state, as a ``DensityMatrix``."""
    return DensityMatrix(state.num_qubits, np.outer(state.amps, state.amps.conj()))


@lru_cache(maxsize=None)
def bra_matrix(num_qubits, q1, q2, outcome_index):
    """Dense (2^(m-2), 2^m) matrix projecting qubits q1 < q2 of an m-qubit
    column vector onto one Bell bra, keeping the remaining qubits in their
    original order. Qubit 1 is the most significant bit."""
    m = num_qubits
    mat = np.zeros((1 << (m - 2), 1 << m), dtype=complex)
    for col in range(1 << m):
        t = (col >> (m - q1)) & 1
        u = (col >> (m - q2)) & 1
        coeff = verify_mod._ORACLE_BELL[outcome_index, 2 * t + u]
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


def _finish(vec, gate):
    """(raw probability, normalized ``gate @ vec`` or None on a null branch)."""
    raw = float(np.real(np.vdot(vec, vec)))
    if raw < NULL_PROB_EPS:
        return raw, None
    return raw, (gate @ vec) / np.sqrt(raw)


def distribution_branch(inp_vec, comp, variant, n, outcome):
    """One distribution branch: (raw probability, corrected party vector or
    None)."""
    chan = build_channel_component(comp, variant, Endpoint.SENDER_FIRST, n)
    vec = bra_matrix(n + 2, 1, 2, outcome.index) @ np.kron(inp_vec, chan.amps)
    letters = verify_mod._oracle_dist_letters(variant, outcome, n)
    return _finish(vec, reduce(np.kron, [verify_mod._ORACLE_GATE[x] for x in letters]))


def concentration_branch(bobs_vec, comp, variant, n, outcomes):
    """One concentration branch: sequential projections of the pairs (party
    i, channel qubit i), then the receiver gate. Returns (raw probability,
    corrected receiver vector or None)."""
    chan = build_channel_component(comp, variant, Endpoint.RECEIVER_LAST, n)
    vec = np.kron(bobs_vec, chan.amps)
    for i, o in enumerate(outcomes):
        vec = bra_matrix(2 * n + 1 - 2 * i, 1, n - i + 1, o.index) @ vec
    if variant is Variant.DOMINO:
        gate = verify_mod._ORACLE_GATE[verify_mod.domino_correction_by_counter(outcomes).value]
    else:
        letters = [verify_mod._CORR_LETTER[o.index] for o in outcomes]
        gate = reduce(np.matmul, [verify_mod._ORACLE_GATE[x] for x in letters])
    return _finish(vec, gate)


def dense_branches(inp_vec, dist, conc):
    """Every end-to-end branch in the evaluator's report order: (component
    index, sender outcome, party outcomes, joint probability, corrected
    receiver vector or None). A null sender branch is one record with no
    party outcomes and no vector."""
    n = dist.n_parties
    nc = len(conc.components)
    for ci, comp in enumerate(dist.components):
        for a in BELL_OUTCOMES:
            raw_a, vec_a = distribution_branch(inp_vec, comp, dist.variant, n, a)
            if vec_a is None:
                yield ci * nc, a, (), comp.weight * raw_a, None
                continue
            for cj, ccomp in enumerate(conc.components):
                for tup in itertools.product(BELL_OUTCOMES, repeat=n):
                    raw_c, vec_c = concentration_branch(vec_a, ccomp, conc.variant, n, tup)
                    yield ci * nc + cj, a, tup, comp.weight * raw_a * ccomp.weight * raw_c, vec_c


def misplaced(report, component_index, alice, bobs):
    """Whether the evaluator's report at an oracle branch's position is
    absent or belongs to a different branch."""
    return (
        report is None
        or report.component_index != component_index
        or report.alice_outcome is not alice
        or report.bob_outcomes != bobs
    )


def reference_oracle_agreement(dist, conc, trials, seed, tolerance=verify_mod.ORACLE_TOL):
    """oracle_agreement's verdict from a per-branch loop over the reports of
    ``qrelay.verify``'s own ``run_end_to_end`` and ``random_input``
    bindings."""

    def worse(a, b):
        return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)

    gen = verify_mod.as_rng(seed)
    worst = 0.0
    compared = 0
    witnesses = []

    def compare(r, index, alice, bobs, joint, vec):
        nonlocal worst, compared
        if misplaced(r, index, alice, bobs):
            dev = 1.0
        else:
            dev = abs(r.joint_prob - joint)
            if (vec is None) != (r.fidelity is None):
                dev = max(dev, 1.0)
            elif vec is not None:
                dev = worse(dev, abs(float(abs(np.vdot(inp_vec, vec)) ** 2) - r.fidelity))
        compared += 1
        worst = worse(worst, dev)
        if not dev <= tolerance and r is not None and len(witnesses) < verify_mod.MAX_WITNESSES:
            witnesses.append(r)

    for _ in range(trials):
        inp = verify_mod.random_input(gen)
        inp_vec = np.array([inp.alpha, inp.beta], dtype=complex)
        reports = iter(verify_mod.run_end_to_end(inp, dist, conc, mode="exhaustive"))
        for branch in dense_branches(inp_vec, dist, conc):
            compare(next(reports, None), *branch)
        if next(reports, None) is not None:
            worst = worse(worst, 1.0)
    return verify_mod.Verdict(
        f"oracle-{dist.variant.value}-n{dist.n_parties}",
        compared > 0 and worst <= tolerance,
        worst,
        tolerance,
        tuple(witnesses),
        {"trials": trials, "branches_compared": compared},
    )


# even_n_counterexample names at most this many witnesses.
EVEN_N_WITNESS_CAP = 16


def reference_even_n(n, seed=0, dist=None, conc=None, input_qubit=None):
    """even_n_counterexample's verdict from a per-branch loop over the dense
    reference branches, drawing channels and input in the same order."""
    gen = verify_mod.as_rng(seed)
    if dist is None:
        dist = verify_mod.random_channel(Variant.PARITY, n, Endpoint.SENDER_FIRST, gen)
    if conc is None:
        conc = verify_mod.random_channel(Variant.PARITY, n, Endpoint.RECEIVER_LAST, gen)
    if input_qubit is None:
        input_qubit = verify_mod.random_input(gen)
    inp_vec = np.array([input_qubit.alpha, input_qubit.beta], dtype=complex)
    gates = [verify_mod._ORACLE_GATE[x] for x in verify_mod._CORR_LETTER]
    examined = witness_count = 0
    worst = 1.0
    witnesses = []
    for index, alice, bobs, joint, vec in dense_branches(inp_vec, dist, conc):
        if vec is None or joint <= verify_mod.WITNESS_PROB_FLOOR:
            continue
        examined += 1
        best = max(float(abs(np.vdot(inp_vec, g @ vec)) ** 2) for g in gates)
        worst = min(worst, best)
        if best <= verify_mod.EVEN_N_FID_CEILING:
            witness_count += 1
            if len(witnesses) < EVEN_N_WITNESS_CAP:
                witnesses.append(verify_mod.OutcomeReport(
                    index, alice, bobs, joint, concentration_correction(conc.variant, bobs), best))
    return verify_mod.Verdict(
        f"even-n-{n}",
        worst <= verify_mod.EVEN_N_FID_CEILING,
        worst,
        verify_mod.EVEN_N_FID_CEILING,
        tuple(witnesses),
        {
            "branches_examined": examined,
            "witness_count": witness_count,
            "meaning": "worst_deviation is the minimum best-over-Paulis fidelity",
        },
    )


def choice_branch(input_qubit, dist, gen):
    """The sender branch a sampled run draws: ``gen.choice`` among
    ``distribute``'s branches, weighted by their joint probabilities."""
    branches = distribute(input_qubit, dist)
    probs = np.array([b.joint_prob for b in branches])
    return branches[int(gen.choice(len(branches), p=probs / probs.sum()))]


def dense_sampled(input_qubit, dist, conc, seed):
    """``run_end_to_end(mode="sampled")``'s reports from the dense trajectory:
    the same draws from the same generator (sender branch, receiver
    component, then one Born-rule pick per party), each party's Bell rows
    taken with ``pair_rows`` from the full ``tensor`` of the party state
    and the receiver channel, and the receiver Pauli applied as a matrix by
    ``matrix_finish_rows``."""
    gen = as_rng(seed)
    db = choice_branch(input_qubit, dist, gen)
    n, n_conc = conc.n_parties, len(conc.components)
    if db.state is None:
        return [OutcomeReport(db.component_index * n_conc, db.outcomes[0], (), db.joint_prob, None, None)]
    cj = 0
    if n_conc > 1:
        weights = np.array([c.weight for c in conc.components])
        cj = int(gen.choice(n_conc, p=weights / weights.sum()))
    comp = conc.components[cj]
    amps = tensor(db.state, build_channel_component(comp, conc.variant, Endpoint.RECEIVER_LAST, n)).amps
    outcomes = ()
    for step in range(n):
        # Registers left: party qubits step+1..n, then channel qubits and the
        # receiver, so the next pair is (1, n - step + 1).
        rows = pair_rows(amps, 2 * (n - step) + 1, 1, n - step + 1)
        probs = np.einsum("kr,kr->k", rows.conj(), rows).real
        probs[probs < NULL_PROB_EPS] = 0.0
        total = probs.sum()
        if total <= 0.0:
            return []
        k = int(gen.choice(4, p=probs / total))
        amps = rows[k]
        outcomes += (BELL_OUTCOMES[k],)
    label = concentration_correction(conc.variant, outcomes)
    raw, vecs = matrix_finish_rows(amps[None, :], PAULI_MATRICES[label][None])
    joint = db.joint_prob * comp.weight * raw
    (fid,) = _fidelities(vecs, input_qubit.to_state().amps, raw, joint)
    return [OutcomeReport(
        db.component_index * n_conc + cj, db.outcomes[0], outcomes, float(joint[0]), label, fid)]
