import collections
import itertools
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelay.bell import (
    BELL_OUTCOMES,
    CORRECTION_FOR_OUTCOME,
    NULL_PROB_EPS,
    PAULI_MATRICES,
    BellOutcome,
    PauliLabel,
    _BELL_BRAS,
    _FROM_XZ,
    _TO_XZ,
)
from qrelay.channels import (
    Endpoint,
    Variant,
    build_channel_component,
    domino_support,
    ghz_channel,
    mixed_channel,
    pure_channel,
    random_channel,
    resolve_preset,
    smolin_channel,
    spec_from_json,
    spec_to_json,
    telecloning_channel,
)
import qrelay.protocol as protocol
from qrelay.protocol import (
    _OUTCOME_OF_BITS,
    _PAULI_FRAMES,
    MAX_EXHAUSTIVE_PARTIES,
    InputQubit,
    _distribution_frame,
    _bilinear,
    _correction_bits,
    _extreme,
    _finish_rows,
    _live_pair_rows,
    _party_vectors,
    _receiver_table,
    _sender_plan,
    _sender_stage,
    _step_plan,
    concentration_correction,
    distribute,
    distribution_correction,
    random_input,
    random_inputs,
    run_end_to_end,
)
from qrelay.statevec import NORM_ATOL, CapacityError, StateVector
import qrelay.verify as verify_mod
from qrelay.verify import oracle_agreement

from conftest import equal_up_to_phase, random_state
from dense_reference import (
    BELL_X_BITS,
    BELL_Z_BITS,
    apply_1q,
    batched_pair_rows,
    choice_branch,
    concentration_branch,
    dense_branches,
    dense_sampled,
    distribution_branch,
    matrix_corrected_rows,
    pair_rows,
    project_bell,
    tensor,
    two_draw_random_input,
)

SQ = 1 / np.sqrt(2)

PHI_P, PSI_P, PSI_M, PHI_M = BELL_OUTCOMES


def bell_pair_channels():
    dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
    conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
    return dist, conc


@pytest.fixture
def fresh_plans():
    """Clears the channel-pair plans before and after a test that patches a
    channel state, so none is built from the real state or outlives the patch."""
    protocol._pair_plan.cache_clear()
    yield
    protocol._pair_plan.cache_clear()


def scale_party_vectors(monkeypatch, factor):
    """Patch the sender plans, after their proof, so that every party vector comes out
    times ``factor``: their distribution phases are scaled, and pair plans built after
    the patch (use ``fresh_plans``) take their checks, starts and forms from them."""
    plan = protocol._sender_plan

    def scaled(dist):
        (states, weights, gather, phases), *basis = plan(dist)
        return (states, weights, gather, phases * factor), *basis

    monkeypatch.setattr(protocol, "_sender_plan", scaled)


def force_path(monkeypatch, path):
    """Clear the pair plans and set the forms budget so that a pair built next holds its
    forms ("forms"; a pure pair at n = 6 takes 1.5 MiB) or runs the kernel on every trial
    ("kernel"); use with ``fresh_plans``, so that no plan built under the patch outlives the test."""
    protocol._pair_plan.cache_clear()
    monkeypatch.setattr(protocol, "_FORMS_BYTES", 1 << 24 if path == "forms" else 0)


class TestInputQubit:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            InputQubit(1.0, 1.0)

    @pytest.mark.parametrize("alpha, beta", [(float("nan"), 0.0), (1.0, complex(0.0, float("nan")))])
    def test_rejects_nan(self, alpha, beta):
        with pytest.raises(ValueError, match="nan"):
            InputQubit(alpha, beta)

    @pytest.mark.parametrize("alpha", [1e200, complex(1e308, 1e308)])
    def test_rejects_overflowing_amplitude(self, alpha):
        # |alpha|^2 overflows to inf, which the normalization check refuses.
        with pytest.raises(ValueError, match="= inf"):
            InputQubit(alpha, 0.0)

    @pytest.mark.parametrize("beta", [0, 0.5])
    def test_rejects_int_beyond_float_range(self, beta):
        # An int amplitude keeps its square an int, past float range.
        with pytest.raises(ValueError, match="= inf"):
            InputQubit(10**400, beta)

    def test_to_state(self):
        s = InputQubit(0.6, 0.8).to_state()
        assert np.allclose(s.amps, [0.6, 0.8])

    def test_random_input_normalized_and_seeded(self):
        a = random_input(np.random.default_rng(3))
        b = random_input(np.random.default_rng(3))
        assert a == b
        assert abs(a.alpha) ** 2 + abs(a.beta) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_random_input_is_the_two_draw_form(self):
        # One draw of four normals gives the amplitudes of two draws of two, bit
        # for bit, and leaves the generator where they did, draw after draw, as
        # run_suite and `simulate --input random` keep drawing from one generator.
        def hexes(q):
            return [x.hex() for z in (q.alpha, q.beta) for x in (z.real, z.imag)]

        for seed in range(2000):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            for draw in range(3):
                assert hexes(random_input(got)) == hexes(two_draw_random_input(want)), (seed, draw)
                assert got.bit_generator.state == want.bit_generator.state, (seed, draw)
        assert hexes(random_input(7)) == hexes(two_draw_random_input(7))  # a seed, not a Generator

    @pytest.mark.parametrize("count", [0, 1, 2, 64])
    def test_random_inputs_are_successive_random_inputs(self, count):
        # One draw of (count, 4) normals gives the amplitudes of count successive
        # random_input calls, bit for bit, and leaves the generator where they did.
        def hexes(q):
            return [x.hex() for z in (q.alpha, q.beta) for x in (z.real, z.imag)]

        for seed in range(200):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            batch = random_inputs(got, count)
            assert [hexes(q) for q in batch] == [hexes(random_input(want)) for _ in range(count)], seed
            assert got.bit_generator.state == want.bit_generator.state, seed


class TestDistributionCorrection:
    def test_parity_same_pauli_everywhere(self):
        want = {PHI_P: PauliLabel.I, PSI_P: PauliLabel.X,
                PSI_M: PauliLabel.Y, PHI_M: PauliLabel.Z}
        for outcome, label in want.items():
            assert distribution_correction(Variant.PARITY, outcome, 4) == (label,) * 4

    def test_domino_phase_lands_on_first_party(self):
        assert distribution_correction(Variant.DOMINO, PHI_M, 4) == (
            PauliLabel.Z, PauliLabel.I, PauliLabel.I, PauliLabel.I)
        assert distribution_correction(Variant.DOMINO, PHI_P, 2) == (
            PauliLabel.I, PauliLabel.I)
        assert distribution_correction(Variant.DOMINO, PSI_P, 3) == (PauliLabel.X,) * 3
        assert distribution_correction(Variant.DOMINO, PSI_M, 3) == (
            PauliLabel.Y, PauliLabel.X, PauliLabel.X)

    def test_custom_uses_parity_rule(self):
        assert distribution_correction(Variant.CUSTOM, PSI_M, 2) == (PauliLabel.Y,) * 2

    @pytest.mark.parametrize("n", range(1, MAX_EXHAUSTIVE_PARTIES + 1))
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_frame_is_the_sequential_paulis_exactly(self, variant, n):
        # distribute applies each outcome's party Paulis as one cached
        # permutation and phase; it must give the same floats, bit for bit,
        # as applying the Paulis one party at a time.
        gen = np.random.default_rng(40 + n)
        for outcome in BELL_OUTCOMES:
            perm, phase = _distribution_frame(variant, outcome, n)
            for _ in range(3):
                vec = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
                want = vec
                for i, label in enumerate(distribution_correction(variant, outcome, n)):
                    want = apply_1q(want, n, i + 1, PAULI_MATRICES[label])
                assert np.array_equal(phase * vec[perm], want), outcome


class TestConcentrationCorrection:
    def test_parity_folds_product(self):
        assert concentration_correction(Variant.PARITY, (PHI_P, PSI_M, PSI_P)) is PauliLabel.Z

    def test_domino_examples(self):
        assert concentration_correction(Variant.DOMINO, (PHI_M, PHI_P, PHI_P)) is PauliLabel.Z
        assert concentration_correction(Variant.DOMINO, (PHI_M, PHI_M)) is PauliLabel.I
        assert concentration_correction(Variant.DOMINO, (PSI_P, PHI_P)) is PauliLabel.X
        assert concentration_correction(Variant.DOMINO, (PSI_M, PHI_P)) is PauliLabel.Y

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concentration_correction(Variant.PARITY, ())
        with pytest.raises(ValueError):
            concentration_correction(Variant.DOMINO, ())

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_matches_matrix_product(self, variant, n):
        # The bit rule must give, up to a phase, the matrix product the label
        # product formed: every outcome's byproduct in order for parity and
        # custom, X^(party 1 flips) Z^(minus signs, mod 2) for a staircase.
        x, z = PAULI_MATRICES[PauliLabel.X], PAULI_MATRICES[PauliLabel.Z]
        for outcomes in itertools.product(BELL_OUTCOMES, repeat=n):
            if variant is Variant.DOMINO:
                flip = outcomes[0] in (PSI_P, PSI_M)
                minus = sum(o in (PSI_M, PHI_M) for o in outcomes)
                want = np.linalg.matrix_power(x, flip) @ np.linalg.matrix_power(z, minus % 2)
            else:
                want = np.eye(2)
                for o in outcomes:
                    want = want @ PAULI_MATRICES[CORRECTION_FOR_OUTCOME[o]]
            got = PAULI_MATRICES[concentration_correction(variant, outcomes)]
            assert equal_up_to_phase(got, want), outcomes

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_bits_rule_is_the_correction(self, variant, n):
        # A sampled trajectory reads its receiver correction from its outcome tuple's bits
        # (x, z), party 1 most significant, and each party's outcome from _OUTCOME_OF_BITS:
        # on every outcome tuple, with bits from the dense reference's own Bell table, that
        # gives back the tuple and concentration_correction's label.
        marked = protocol._marked_parties(variant, n)
        for outcomes in itertools.product(BELL_OUTCOMES, repeat=n):
            x, z = (sum(int(bits[o.index]) << (n - 1 - i) for i, o in enumerate(outcomes))
                    for bits in (BELL_X_BITS, BELL_Z_BITS))
            assert tuple(_OUTCOME_OF_BITS[2 * (x >> k & 1) + (z >> k & 1)] for k in range(n - 1, -1, -1)) == outcomes
            assert _FROM_XZ[_correction_bits(x, z, n, marked)] is concentration_correction(variant, outcomes)

    def test_outcome_bits_are_the_bell_bras(self):
        # <Bell| of the outcome with bits (x, z) pairs party bit s with channel bit s ^ x and
        # signs it by (-1)^(z s): the identity the sampled draw rests on.
        for x, z in itertools.product((0, 1), repeat=2):
            bra = _BELL_BRAS[_OUTCOME_OF_BITS[2 * x + z].index]
            want = [(t == s ^ x) * (-1) ** (z * s) * SQ for s in (0, 1) for t in (0, 1)]
            assert np.allclose(bra, want, rtol=0, atol=1e-16), (x, z)


class TestDistribute:
    def test_teleportation_branches(self):
        dist, _ = bell_pair_channels()
        inp = random_input(np.random.default_rng(2))
        branches = distribute(inp, dist)
        assert len(branches) == 4
        for b in branches:
            assert b.joint_prob == pytest.approx(0.25, abs=1e-12)
            assert equal_up_to_phase(b.state.amps, inp.to_state().amps)

    def test_telecloning_identity_branch_amplitudes(self):
        branch = distribute(InputQubit(1, 0), telecloning_channel())[0]
        amps = branch.state.amps
        assert amps[int("000", 2)] == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
        assert amps[int("101", 2)] == pytest.approx(0.5 * np.sqrt(2 / 3), abs=1e-12)
        assert amps[int("110", 2)] == pytest.approx(0.5 * np.sqrt(2 / 3), abs=1e-12)

    def test_parity_psi_minus_branch_recovers_supports(self):
        spec = pure_channel(Variant.PARITY, 3, {"000": SQ, "011": SQ}, Endpoint.SENDER_FIRST)
        branches = distribute(InputQubit(1, 0), spec)
        branch = branches[PSI_M.index]
        want = np.zeros(8, dtype=complex)
        want[int("000", 2)] = SQ
        want[int("011", 2)] = SQ
        assert equal_up_to_phase(branch.state.amps, want)

    def test_closed_form_branch_states(self):
        # Every branch equals alpha * sum a_i|S_i> + beta * sum a_i|comp(S_i)>
        # up to a global phase, for both structured variants.
        gen = np.random.default_rng(21)
        for variant, n in [(Variant.PARITY, 3), (Variant.PARITY, 5), (Variant.DOMINO, 4)]:
            spec = random_channel(variant, n, Endpoint.SENDER_FIRST, gen)
            inp = random_input(gen)
            want = np.zeros(1 << n, dtype=complex)
            for bits, amp in spec.components[0].coeffs:
                flipped = bits.translate(str.maketrans("01", "10"))
                want[int(bits, 2)] += inp.alpha * amp
                want[int(flipped, 2)] += inp.beta * amp
            for branch in distribute(inp, spec):
                assert equal_up_to_phase(branch.state.amps, want), (variant, branch.outcomes)

    def test_probabilities_sum_to_one(self):
        gen = np.random.default_rng(31)
        spec = random_channel(Variant.PARITY, 2, Endpoint.SENDER_FIRST, gen)
        branches = distribute(random_input(gen), spec)
        assert sum(b.joint_prob for b in branches) == pytest.approx(1.0, abs=1e-9)

    def test_endpoint_checked(self):
        spec = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        with pytest.raises(ValueError, match="sender"):
            distribute(InputQubit(1, 0), spec)

    def test_transcript_structure(self):
        # A distribution branch records only the sender's outcome; its
        # end-to-end reports add the parties' outcomes and the receiver's
        # Pauli.
        dist, conc = bell_pair_channels()
        branch = distribute(InputQubit(1, 0), dist)[1]
        assert branch.outcomes == (PSI_P,)
        assert equal_up_to_phase(branch.state.amps, [1, 0])
        report = run_end_to_end(InputQubit(1, 0), dist, conc)[4 * PSI_P.index + PSI_M.index]
        assert (report.alice_outcome, report.bob_outcomes) == (PSI_P, (PSI_M,))
        assert report.correction is PauliLabel.Y

    # distribute enumerates every sender branch; a sampled run_end_to_end
    # draws one of them from its generator before it builds a party vector.
    def test_sampled_requires_seed(self):
        dist, conc = bell_pair_channels()
        with pytest.raises(ValueError, match="seed"):
            run_end_to_end(InputQubit(1, 0), dist, conc, mode="sampled")

    def test_sampled_deterministic(self):
        # An int seed draws what a Generator seeded with it draws.
        gen = np.random.default_rng(5)
        dist = random_channel(Variant.PARITY, 3, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.PARITY, 3, Endpoint.RECEIVER_LAST, gen)
        inp = random_input(gen)
        a = run_end_to_end(inp, dist, conc, mode="sampled", seed=11)
        b = run_end_to_end(inp, dist, conc, mode="sampled", seed=np.random.default_rng(11))
        assert len(a) == len(b) == 1
        assert report_fields(a[0]) == report_fields(b[0])

    def test_bad_mode_rejected(self):
        dist, conc = bell_pair_channels()
        with pytest.raises(ValueError, match="mode"):
            run_end_to_end(InputQubit(1, 0), dist, conc, mode="both")

    @pytest.mark.parametrize("name", ["telecloning-smolin", "custom-null"])
    def test_sampled_is_the_exhaustive_branch_choice_draws(self, name, monkeypatch):
        # A sampled run's first draw is its sender row, picked as Generator.choice picks
        # among the exhaustive sender rows' joint probabilities, w times the plan's sender
        # forms on the input's bilinears, each below NULL_PROB_EPS taken as 0: the same
        # (component, outcome), with the generator where choice leaves it. Those
        # probabilities are distribute's within 1e-15, and a row that distribute nulls
        # (the |+> input nulls two of custom-null's) is never drawn.
        draws = []
        draw = protocol._born_draw

        def spy(p, gen):
            k = draw(p, gen)
            draws.append((k, gen.bit_generator.state))
            return k

        monkeypatch.setattr(protocol, "_born_draw", spy)
        dist, conc = dict(agreement_cases())[name]
        plan = protocol._pair_plan(dist, conc)
        weights, forms = plan[0][1].ravel().repeat(4), plan[3][1][4]
        gen = np.random.default_rng(26)
        nulls = 0
        for seed in range(50):
            inp = NULL_SENDER_INPUT if name == "custom-null" else random_input(gen)
            x, y = complex(inp.alpha), complex(inp.beta)
            xy = x.conjugate() * y
            joint = weights * np.dot([(x.conjugate() * x).real, (y.conjugate() * y).real, xy.real, xy.imag], forms)
            branches = distribute(inp, dist)
            assert np.abs(joint - [b.joint_prob for b in branches]).max() <= 1e-15
            joint[joint < NULL_PROB_EPS] = 0.0
            got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            draws.clear()
            (got,) = run_end_to_end(inp, dist, conc, mode="sampled", seed=got_gen)
            want = int(want_gen.choice(len(joint), p=joint / joint.sum()))
            assert draws[0] == (want, want_gen.bit_generator.state), seed
            assert (got.component_index // len(conc.components), got.alice_outcome) == (
                want // 4, BELL_OUTCOMES[want % 4]), seed
            assert branches[want].state is not None and got.bob_outcomes, seed
            nulls += sum(b.state is None for b in branches)
        assert (nulls > 0) == (name == "custom-null")


def reference_sender_rows(inp, dist):
    """The sender stage from the dense helpers: per component the ``tensor``
    of input and channel, its ``pair_rows`` on qubits 1 and 2, and each live
    row normalized and put through ``_distribution_frame``, as (component,
    outcome, joint probability as hex, party vector bytes or None)."""
    n, out = dist.n_parties, []
    for ci, comp in enumerate(dist.components):
        joint = tensor(inp.to_state(), build_channel_component(comp, dist.variant, Endpoint.SENDER_FIRST, n))
        for outcome, row in zip(BELL_OUTCOMES, pair_rows(joint.amps, joint.num_qubits, 1, 2)):
            raw = float(np.real(np.vdot(row, row)))
            vec = None
            if not raw < NULL_PROB_EPS:
                perm, phase = _distribution_frame(dist.variant, outcome, n)
                vec = (phase * (row / math.sqrt(raw))[perm]).tobytes()
            out.append((ci, outcome, (comp.weight * raw).hex(), vec))
    return out


def kernel_sender_rows(inp, dist):
    """``_sender_stage`` and ``_party_vectors`` in ``reference_sender_rows``' form. Each live
    party vector is built alone, as a sampled run builds its drawn one, and must equal, byte
    for byte, the same vector from the one pass over every live row an exhaustive run makes."""
    plan = _sender_plan(dist)[0]
    rows, raw, joint = _sender_stage(inp.to_state().amps, plan)
    stacked = iter(_party_vectors(rows, raw, plan[2:], *np.nonzero(~(raw < NULL_PROB_EPS))))
    out = []
    for (ci, a), prob, r in zip(np.ndindex(raw.shape), joint.ravel().tolist(), raw.ravel().tolist()):
        vec = None
        if not r < NULL_PROB_EPS:
            vec = _party_vectors(rows, raw, plan[2:], np.intp(ci), np.intp(a)).tobytes()
            assert next(stacked).tobytes() == vec
        out.append((ci, BELL_OUTCOMES[a], prob.hex(), vec))
    return out


@st.composite
def sender_cases(draw):
    """A sender channel of any variant at n = 1..6, pure or a mixture of up to
    three components (custom ones on any supports), and an input: a basis
    state, |+> or a random one."""
    variant = draw(st.sampled_from(list(Variant)))
    n = draw(st.integers(1, MAX_EXHAUSTIVE_PARTIES))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        if variant is Variant.CUSTOM and draw(st.booleans()):
            keys = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8, unique=True))
            amps = gen.normal(size=len(keys)) + 1j * gen.normal(size=len(keys))
            comps.append(dict(zip([format(k, f"0{n}b") for k in keys], amps / np.linalg.norm(amps))))
        else:
            comps.append(dict(random_channel(variant, n, Endpoint.SENDER_FIRST, gen).components[0].coeffs))
    weights = gen.random(len(comps)) + 0.1
    dist = mixed_channel(variant, n, Endpoint.SENDER_FIRST, list(zip(weights / weights.sum(), comps)))
    inp = draw(st.sampled_from([InputQubit(1, 0), InputQubit(0, 1), NULL_SENDER_INPUT, None]))
    return (random_input(gen) if inp is None else inp), dist


class TestSenderRows:
    # The sender stage takes every row of every component from one batched Bell
    # contraction of input x channel and builds a party vector only where one is
    # needed; both must equal the tensor + pair_rows + _distribution_frame
    # reference byte for byte.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sender_cases())
    def test_matches_dense_reference(self, case):
        inp, dist = case
        assert kernel_sender_rows(inp, dist) == reference_sender_rows(inp, dist)

    def test_custom_null_matches_dense_reference(self):
        dist, _ = dict(agreement_cases())["custom-null"]
        gen = np.random.default_rng(27)
        for inp in [NULL_SENDER_INPUT] + [random_input(gen) for _ in range(5)]:
            rows = kernel_sender_rows(inp, dist)
            assert rows == reference_sender_rows(inp, dist)
        assert [row[3] is None for row in kernel_sender_rows(NULL_SENDER_INPUT, dist)] == [
            False, False, True, True] + [False] * 4

    def test_checks_kept(self, monkeypatch, fresh_plans):
        # The qubit caps are checked before any channel state is built; then the
        # sender plan refuses a joint state that is not normalized, and a channel
        # whose family promises 1/4 per sender outcome but does not deliver it.
        def refuse(*args):
            raise RuntimeError("channel state built above a cap")

        monkeypatch.setattr(protocol, "build_channel_component", refuse)
        with pytest.raises(CapacityError, match="sender joint state"):
            distribute(InputQubit(1, 0), ghz_channel(19, Endpoint.SENDER_FIRST))
        for n, mode in ((MAX_EXHAUSTIVE_PARTIES + 1, "exhaustive"), (10, "sampled")):
            with pytest.raises(CapacityError):
                run_end_to_end(InputQubit(1, 0), ghz_channel(n, Endpoint.SENDER_FIRST),
                               ghz_channel(n, Endpoint.RECEIVER_LAST), mode=mode, seed=0)
        monkeypatch.undo()
        dist, conc = bell_pair_channels()
        basis = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # no Bell pair
        for amps, refusal in ((2 * basis, "sender joint state not normalized"), (basis, "expected 1/4")):
            monkeypatch.setattr(protocol, "build_channel_component", lambda *args, amps=amps: SimpleNamespace(amps=amps))
            with pytest.raises(ValueError, match=refusal):
                _sender_plan(dist)
            with pytest.raises(ValueError, match=refusal):
                distribute(InputQubit(1, 0), dist)
            with pytest.raises(ValueError, match=refusal):
                run_end_to_end(InputQubit(1, 0), dist, conc)

    def test_vecdot_is_per_row_vdot(self):
        # The stage reads every row's probability from one np.vecdot over the
        # stack; it must give each row's np.vdot float, as both take it from
        # BLAS zdotc.
        gen = np.random.default_rng(32)
        for n in range(1, MAX_EXHAUSTIVE_PARTIES + 1):
            for d in (1, 3):
                rows = gen.normal(size=(d, 4, 1 << n)) + 1j * gen.normal(size=(d, 4, 1 << n))
                rows[gen.random(rows.shape) < 0.3] = 0.0
                want = [[float(np.vdot(row, row).real).hex() for row in comp] for comp in rows]
                assert [[x.hex() for x in comp] for comp in np.vecdot(rows, rows).real.tolist()] == want

    @pytest.mark.parametrize("name", ["telecloning-smolin", "custom-null"])
    def test_sampled_builds_one_party_vector(self, name, monkeypatch):
        # One vector per trajectory, for the drawn row, from its plan party map: distribute's
        # vector of that branch on the plan's start strings within 1e-15, and that vector is
        # zero off them. distribute builds every live branch's in one call.
        built, sizes = [], []
        build, vectors = protocol._drawn_party_vector, protocol._party_vectors

        def spy(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(protocol, "_drawn_party_vector", spy)
        monkeypatch.setattr(protocol, "_party_vectors", lambda *args: sizes.append(np.size(args[3])) or vectors(*args))
        dist, conc = dict(agreement_cases())[name]
        strings = protocol._pair_plan(dist, conc)[3][0][0][0]  # phi+ flips no bit: the start's strings
        gen = np.random.default_rng(28)
        for seed in range(10):
            inp = NULL_SENDER_INPUT if name == "custom-null" else random_input(gen)
            built.clear()
            (got,) = run_end_to_end(inp, dist, conc, mode="sampled", seed=seed)
            (party,) = built
            branch = distribute(inp, dist)[4 * (got.component_index // len(conc.components)) + got.alice_outcome.index]
            assert np.abs(party - branch.state.amps[strings]).max() <= 1e-15, seed
            assert not np.delete(branch.state.amps, strings).any()
        sizes.clear()
        branches = distribute(inp, dist)
        assert sizes == [sum(b.state is not None for b in branches)]

    @pytest.mark.parametrize("place", ["telecloning-smolin", "custom-null", "domino-n7"])
    def test_sampled_run_takes_no_sender_stage(self, place, monkeypatch, fresh_plans):
        # A trajectory reads its sender rows from the pair's plan: the sender stage runs on
        # the basis inputs only, while the plan is built, never on a trajectory's input, and
        # no trajectory gathers party vectors from sender rows.
        dist, conc = sampled_only_pair() if place == "domino-n7" else dict(agreement_cases())[place]
        inputs, stage, vectors = [], protocol._sender_stage, protocol._party_vectors
        monkeypatch.setattr(protocol, "_sender_stage", lambda amps, plan: inputs.append(amps.tolist()) or stage(amps, plan))
        monkeypatch.setattr(protocol, "_party_vectors", lambda *args: inputs.append("vectors") or vectors(*args))
        gen = np.random.default_rng(30)
        for seed in range(10):
            inp = NULL_SENDER_INPUT if place == "custom-null" else random_input(gen)
            assert len(run_end_to_end(inp, dist, conc, mode="sampled", seed=seed)) == 1
        assert inputs == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("name", ["telecloning-smolin", "custom-null"])
    def test_sampled_run_builds_no_state_vector(self, name, monkeypatch):
        # InputQubit checked the input's norm when it was made and the pair's
        # plan proved every drawn party vector's norm, so a sampled run builds
        # no validated StateVector; distribute builds the input's and one per
        # live branch.
        built = []
        monkeypatch.setattr(protocol, "StateVector", lambda *args: built.append(args) or StateVector(*args))
        dist, conc = dict(agreement_cases())[name]
        gen = np.random.default_rng(29)
        for seed in range(10):
            inp = NULL_SENDER_INPUT if name == "custom-null" else random_input(gen)
            built.clear()
            run_end_to_end(inp, dist, conc, mode="sampled", seed=seed)
            assert built == []
        branches = distribute(inp, dist)
        assert len(built) == 1 + sum(b.state is not None for b in branches)


def normalized_rows(vecs):
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def live_channel_keys(receivers):
    """The channel strings any of the receiver states (c, 2**(n+1)) holds, in receiver-bit
    pairs, as a pair plan keeps them."""
    return np.flatnonzero(np.repeat(receivers.reshape(len(receivers), -1, 2).any(axis=(0, 2)), 2))


@st.composite
def kernel_cases(draw):
    """(n, variant, k normalized party states (k, 2**n), c normalized receiver states
    (c, 2**(n+1)), party keys, channel keys) for n = 1..6, k = 1..5 and c = 1..3: generic
    states on every string with all-strings keys, or staircase ones (party states on the
    staircase strings, receivers staircase channels) with the staircase strings and the
    receivers' live strings as keys; either with exact zeros, and party states whose
    amplitudes are partly tiny, so that some rows fall below NULL_PROB_EPS."""
    n = draw(st.integers(1, MAX_EXHAUSTIVE_PARTIES))
    k, c = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    variant = draw(st.sampled_from(list(Variant)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pkeys, ckeys = np.arange(1 << n), np.arange(2 << n)
        receivers = gen.normal(size=(c, 2 << n)) + 1j * gen.normal(size=(c, 2 << n))
    else:
        pkeys = np.array([int(bits, 2) for bits in domino_support(n)])
        receivers = np.array([build_channel_component(
            random_channel(Variant.DOMINO, n, Endpoint.RECEIVER_LAST, gen).components[0],
            Variant.DOMINO, Endpoint.RECEIVER_LAST, n).amps for _ in range(c)])
        ckeys = live_channel_keys(receivers)
    parties = np.zeros((k, 1 << n), dtype=complex)
    parties[:, pkeys] = gen.normal(size=(k, len(pkeys))) + 1j * gen.normal(size=(k, len(pkeys)))
    for amps in (parties, receivers):
        zero = gen.random(amps.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))
        zero[np.arange(len(amps)), np.argmax(np.abs(amps), axis=1)] = False  # none all zeros
        amps[zero] = 0.0
    if draw(st.booleans()):
        parties[gen.random(parties.shape) < 0.5] *= 1e-9
    return n, variant, normalized_rows(parties), normalized_rows(receivers), pkeys, ckeys


def sign_free_bytes(x):
    """The bytes of ``x`` with -0.0 read as 0.0 (x + 0.0 changes nothing else)."""
    return (x + 0.0).tobytes()


def exhaustive_and_reference(n, variant, parties, receivers, pkeys, ckeys):
    """The corrected receiver rows of every (party vector, receiver) pair two ways, each
    over the whole stack: ``_receiver_rows`` on the keys given, through the step plan of
    those keys, and the dense joint states through the batched Bell-bra product and the
    matrix Paulis that the live-string kernel and the receiver frame replaced."""
    frame, _, labels = _receiver_table(variant, n)
    steps = _step_plan(pkeys, ckeys, n)
    live = parties.take(pkeys, axis=1), receivers.take(ckeys, axis=1)  # C order, as plans hold them
    got = np.concatenate(list(protocol._receiver_rows(*live, steps, frame)))
    dense = (parties[:, None, :, None] * receivers[:, None, :]).reshape(-1, 2 << (2 * n))
    paulis = np.array([PAULI_MATRICES[label] for label in labels])
    return got, matrix_corrected_rows(batched_pair_rows(dense, n), paulis)


class TestConcentrationKernels:
    # Exhaustive runs take every party's Bell measurement with _live_pair_rows on the
    # joint states' live strings and apply the receiver Paulis as a permutation and
    # phase; together they must give the floats of the dense batched product and the
    # matrix Paulis they replaced. A product that is exactly zero may carry the other
    # sign of zero in either form, so bytes are compared with that sign dropped;
    # np.array_equal shows the values are equal as they stand.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(kernel_cases())
    def test_kernels_match_the_forms_they_replace(self, case):
        n, _, parties, receivers = case[:4]
        got, want = exhaustive_and_reference(*case)
        assert got.shape == (len(parties) * len(receivers), 4**n, 2)
        assert np.array_equal(got, want)
        assert sign_free_bytes(got) == sign_free_bytes(want)

    def test_dense_rows_are_byte_identical(self):
        # Without exact zeros there is no sign of zero to differ in.
        gen = np.random.default_rng(30)
        for n in range(1, MAX_EXHAUSTIVE_PARTIES + 1):
            parties = normalized_rows(gen.normal(size=(3, 1 << n)) + 1j * gen.normal(size=(3, 1 << n)))
            receivers = normalized_rows(gen.normal(size=(2, 2 << n)) + 1j * gen.normal(size=(2, 2 << n)))
            got, want = exhaustive_and_reference(
                n, Variant.PARITY, parties, receivers, np.arange(1 << n), np.arange(2 << n))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("label", list(PauliLabel), ids=lambda p: p.value)
    def test_pauli_frame_is_the_matrix(self, label):
        perm, phase = _PAULI_FRAMES[_TO_XZ[label]]
        assert np.array_equal(phase[:, None] * np.eye(2)[perm], PAULI_MATRICES[label])
        assert not perm.flags.writeable and not phase.flags.writeable


# The message each exhaustive path refuses a fault in its branch maps with: the plan checks
# a pair's maps once, when it builds their forms, and a pair too large to hold forms checks
# every trial's total probability.
PATH_REFUSALS = (("forms", "branch maps do not conserve probability"),
                 ("kernel", "branch probabilities sum to"))


def sampled_only_pair():
    """A staircase pair at n = 7, past the exhaustive cap: only sampled runs reach it."""
    gen = np.random.default_rng(45)
    return tuple(random_channel(Variant.DOMINO, 7, e, gen) for e in (Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST))


def receiver_mixture_pair(variant, n, weights, gen):
    """A random pure sender channel and a receiver mixture of random pure components, one per weight."""
    comps = [dict(random_channel(variant, n, Endpoint.RECEIVER_LAST, gen).components[0].coeffs) for _ in weights]
    return (random_channel(variant, n, Endpoint.SENDER_FIRST, gen),
            mixed_channel(variant, n, Endpoint.RECEIVER_LAST, list(zip(weights, comps))))


def assert_plan_refuses(dist, conc, refusal):
    """The pair's plan refuses with ``refusal`` while it is built, and so does a run of
    each mode the pair's size allows: no trial runs on a plan that failed its checks.
    Returns the plan's refusal."""
    with pytest.raises(ValueError, match=refusal) as refused:
        protocol._pair_plan(dist, conc)
    for mode in ("exhaustive", "sampled")[dist.n_parties > MAX_EXHAUSTIVE_PARTIES:]:
        with pytest.raises(ValueError, match=refusal):
            run_end_to_end(InputQubit(1, 0), dist, conc, mode=mode, seed=0)
    return refused.value


def corrupt_sender_states(monkeypatch, corrupt):
    """Patch channel builds so that each sender-side state is ``corrupt`` of its amplitudes."""
    build = protocol.build_channel_component

    def patched(comp, variant, endpoint, n):
        amps = build(comp, variant, endpoint, n).amps
        return SimpleNamespace(amps=corrupt(amps) if endpoint is Endpoint.SENDER_FIRST else amps)

    monkeypatch.setattr(protocol, "build_channel_component", patched)


QUARTER = r"outcome phi\+ has conditional probability (\S+), expected 1/4"

# Sender states the plan's proof refuses: scaled or NaN ones break the joint state's norm, and
# |+...+>, which gives 1/4 per outcome on |0> and |1> but not on |+>, breaks 1/4 on a channel
# that promises it, so only a proof for every input, not the basis rows, refuses it.
SENDER_CORRUPTIONS = {
    "scaled": (lambda amps: 1.1 * amps, "sender joint state not normalized"),
    "nan": (lambda amps: math.nan * amps, "sender joint state not normalized"),
    "plus": (lambda amps: np.full(len(amps), len(amps) ** -0.5, dtype=complex), QUARTER),
}


class TestNormChecks:
    # Plans check all that does not depend on the input, once for every path: _sender_plan
    # proves the sender checks for every input, and _pair_plan proves the norms of every
    # sampled trajectory's party vector and joint state. So each fault below is refused
    # while the plan is built, before any trial of either mode runs. An exhaustive trial
    # still checks that its branch probabilities sum to 1.
    @pytest.mark.parametrize("bad", [1.1, math.nan])
    def test_distributed_state(self, monkeypatch, fresh_plans, bad):
        dist, conc = bell_pair_channels()
        scale_party_vectors(monkeypatch, bad)
        assert_plan_refuses(dist, conc, "distributed state not normalized")

    @pytest.mark.parametrize("bad", [1.1, math.nan])
    def test_sampled_distributed_state(self, monkeypatch, fresh_plans, bad):
        # At a size only sampled runs reach, whose trajectories check no norm themselves.
        scale_party_vectors(monkeypatch, bad)
        assert_plan_refuses(*sampled_only_pair(), "distributed state not normalized")

    @pytest.mark.parametrize("bad", [1.1, math.nan])
    def test_joint_state(self, monkeypatch, fresh_plans, bad):
        # Scaled receiver states, on a pair that holds forms and on a sampled-only one.
        build = protocol.build_channel_component

        def scaled(comp, variant, endpoint, n):
            amps = build(comp, variant, endpoint, n).amps
            return SimpleNamespace(amps=amps * bad if endpoint is Endpoint.RECEIVER_LAST else amps)

        monkeypatch.setattr(protocol, "build_channel_component", scaled)
        for dist, conc in (bell_pair_channels(), sampled_only_pair()):
            assert_plan_refuses(dist, conc, "joint state not normalized")

    def test_start_missing_a_key(self, monkeypatch):
        # A start that leaves out a string a party vector holds loses that string's
        # amplitudes: the plan refuses forms built on it, and a trial on the kernel path
        # refuses its branch probabilities' total.
        dist, conc = telecloning_channel(), smolin_channel()
        sender, receivers, weights, ((gather, phases), strings, _, table, forms, keys) = plan = protocol._pair_plan(
            dist, conc)
        basis = _sender_plan(dist)[1:]
        ckeys = live_channel_keys(np.array([build_channel_component(
            c, conc.variant, conc.endpoint, conc.n_parties).amps for c in conc.components]))

        def start(keep):  # gather[0] is the start's strings: phi+ flips no bit
            steps = _step_plan(gather[0][keep], ckeys, dist.n_parties)
            return (gather[:, keep], phases[:, keep]), strings, steps, table

        every = np.arange(gather.shape[1])
        assert np.array_equal(protocol._pair_forms(*basis, receivers, weights, start(every)), forms)
        with pytest.raises(ValueError, match=PATH_REFUSALS[0][1]):
            protocol._pair_forms(*basis, receivers, weights, start(every[1:]))
        monkeypatch.setattr(protocol, "_pair_plan", lambda *pair: (*plan[:3], (*start(every[1:]), None, keys)))
        with pytest.raises(ValueError, match=PATH_REFUSALS[1][1]):
            run_end_to_end(random_input(np.random.default_rng(37)), dist, conc)

    @pytest.mark.parametrize("bad", [1.1, math.nan])
    def test_held_sender_rows(self, monkeypatch, fresh_plans, bad):
        # On a pair that holds forms, a sender state scaled by ``bad``, or |++>, is refused
        # while the plan is built; the 1/4 refusal names the worst outcome probability of
        # any input, 0 or 1/2, which no basis input reaches.
        dist, conc = bell_pair_channels()
        for corrupt, refusal in ((lambda amps: bad * amps, SENDER_CORRUPTIONS["scaled"][1]),
                                 SENDER_CORRUPTIONS["plus"]):
            with monkeypatch.context() as patch:
                corrupt_sender_states(patch, corrupt)
                refused = assert_plan_refuses(dist, conc, refusal)
        assert abs(abs(4.0 * float(re.fullmatch(QUARTER, str(refused))[1]) - 1.0) - 1.0) <= 1e-15

    @pytest.mark.parametrize("corruption", list(SENDER_CORRUPTIONS))
    @pytest.mark.parametrize("place", ["parity-n5-kernel", "domino-n7-sampled", "distribute"])
    def test_sender_proof_precedes_every_trial(self, place, corruption, monkeypatch, fresh_plans):
        # At sizes no forms plan reaches, and in distribute, the sender plan refuses a
        # corrupted sender state with the texts of its proof: the sender stage has run on
        # the basis inputs only, never on the trial's input.
        corrupt, refusal = SENDER_CORRUPTIONS[corruption]
        gen = np.random.default_rng(46)
        if place == "parity-n5-kernel":
            pair = receiver_mixture_pair(Variant.PARITY, 5, (0.4, 0.6), gen)
            assert protocol._pair_plan(*pair)[3][4] is None  # too large for forms: the kernel path
        else:
            pair = sampled_only_pair()
        inputs, stage = [], protocol._sender_stage
        monkeypatch.setattr(protocol, "_sender_stage", lambda amps, plan: inputs.append(amps.tolist()) or stage(amps, plan))
        corrupt_sender_states(monkeypatch, corrupt)
        protocol._pair_plan.cache_clear()
        inp = random_input(gen)
        with pytest.raises(ValueError, match=refusal):
            if place == "distribute":
                distribute(inp, pair[0])
            else:
                run_end_to_end(inp, *pair, mode="sampled" if "sampled" in place else "exhaustive", seed=0)
        assert inputs == [[1, 0], [0, 1]]

    def test_nan_and_tolerance_edges(self, monkeypatch, fresh_plans):
        # Party vectors whose squared norms are 1 + scale * NORM_ATOL: just inside the
        # bound, each mode runs on each exhaustive path; just past it, or NaN, the plan
        # refuses them while it is built.
        dist, conc = bell_pair_channels()
        for scale in (0.9, -0.9, 1.1, -1.1, math.nan):
            with monkeypatch.context() as patch:
                scale_party_vectors(patch, math.sqrt(1.0 + scale * NORM_ATOL))
                if not abs(scale) < 1.0:
                    protocol._pair_plan.cache_clear()
                    assert_plan_refuses(dist, conc, "distributed state not normalized")
                    continue
                for path in ("forms", "kernel"):
                    force_path(patch, path)
                    for mode in ("exhaustive", "sampled"):
                        assert run_end_to_end(InputQubit(1, 0), dist, conc, mode=mode, seed=0)


class TestConcentrate:
    # The concentration phase, reached through run_end_to_end.
    def test_teleportation_branches(self):
        dist, conc = bell_pair_channels()
        inp = random_input(np.random.default_rng(4))
        reports = run_end_to_end(inp, dist, conc)
        assert len(reports) == 16
        for db, r in zip([db for db in distribute(inp, dist) for _ in range(4)], reports):
            assert r.alice_outcome is db.outcomes[0]
            assert r.joint_prob == pytest.approx(db.joint_prob / 4, abs=1e-12)
            assert r.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_domino_two_party_example(self):
        dist = pure_channel(Variant.DOMINO, 2, {"00": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.DOMINO, 2, {"00": SQ, "01": SQ}, Endpoint.RECEIVER_LAST)
        inp = random_input(np.random.default_rng(6))
        target = (PHI_P, PHI_M)
        matches = [r for r in run_end_to_end(inp, dist, conc)
                   if r.alice_outcome is PHI_P and r.bob_outcomes == target]
        assert len(matches) == 1
        assert matches[0].fidelity == pytest.approx(1.0, abs=1e-9)

    def test_rejects_sender_channel(self):
        dist, _ = bell_pair_channels()
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(ValueError, match="receiver"):
                run_end_to_end(InputQubit(1, 0), dist, dist, mode=mode, seed=0)

    def test_rejects_size_mismatch(self):
        dist, _ = bell_pair_channels()
        conc3 = pure_channel(Variant.PARITY, 3, {"000": 1.0}, Endpoint.RECEIVER_LAST)
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(ValueError, match="mismatch"):
                run_end_to_end(InputQubit(1, 0), dist, conc3, mode=mode, seed=0)

    def test_exhaustive_capacity_cap(self):
        n = MAX_EXHAUSTIVE_PARTIES + 1
        dist = ghz_channel(n, Endpoint.SENDER_FIRST)
        conc = ghz_channel(n, Endpoint.RECEIVER_LAST)
        with pytest.raises(CapacityError):
            run_end_to_end(InputQubit(1, 0), dist, conc)
        # Sampling draws one trajectory, so it is not capped.
        assert len(run_end_to_end(InputQubit(1, 0), dist, conc, mode="sampled", seed=0)) == 1

    def test_sampled_capacity_cap(self):
        # A sampled joint state has 2n + 1 qubits, held densely or not: n = 9
        # fits the 20-qubit cap and n = 10 does not.
        def sampled(n):
            return run_end_to_end(InputQubit(1, 0), ghz_channel(n, Endpoint.SENDER_FIRST),
                                  ghz_channel(n, Endpoint.RECEIVER_LAST), mode="sampled", seed=0)

        assert len(sampled(9)) == 1
        with pytest.raises(CapacityError):
            sampled(10)

    def test_pair_registers_in_transcript(self):
        # Party i measures the pair (i, n+i): every exhaustive branch equals
        # sequential Bell projections of those pairs, then the receiver Pauli.
        # Custom channels on every support leave generic fidelities, so the
        # check sees the corrected vector, not just a fidelity of 1.
        gen = np.random.default_rng(8)
        dist, conc = (
            pure_channel(Variant.CUSTOM, 3, dict(zip(
                [format(i, "03b") for i in range(8)], random_state(gen, 3))), endpoint)
            for endpoint in (Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST)
        )
        inp = random_input(gen)
        db = distribute(inp, dist)[0]
        chan = build_channel_component(conc.components[0], conc.variant, Endpoint.RECEIVER_LAST, 3)
        reports = run_end_to_end(inp, dist, conc)[:4 ** 3]
        assert {r.alice_outcome for r in reports} == {db.outcomes[0]}
        fids = set()
        for r in reports:
            state, prob = tensor(db.state, chan), db.joint_prob
            for step, outcome in enumerate(r.bob_outcomes):
                # Earlier pairs are gone, so party step+1 is qubit 1 and its
                # channel qubit sits at 3 + 1 - step.
                state, p = project_bell(state, 1, 4 - step, outcome)
                prob *= p
            assert r.joint_prob == pytest.approx(prob, abs=1e-15)
            assert r.correction is concentration_correction(Variant.CUSTOM, r.bob_outcomes)
            want = abs(np.vdot(inp.to_state().amps, PAULI_MATRICES[r.correction] @ state.amps)) ** 2
            assert r.fidelity == pytest.approx(want, abs=1e-12)
            fids.add(round(r.fidelity, 6))
        assert len(fids) > 1


class TestRunEndToEnd:
    def test_sixteen_teleportation_branches(self):
        dist, conc = bell_pair_channels()
        inp = random_input(np.random.default_rng(9))
        reports = run_end_to_end(inp, dist, conc)
        assert len(reports) == 16
        for r in reports:
            assert r.joint_prob == pytest.approx(1 / 16, abs=1e-10)
            assert r.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_party_count_mismatch(self):
        dist, _ = bell_pair_channels()
        conc = pure_channel(Variant.PARITY, 3, {"000": 1.0}, Endpoint.RECEIVER_LAST)
        with pytest.raises(ValueError, match="mismatch"):
            run_end_to_end(InputQubit(1, 0), dist, conc)

    def test_variant_family_mismatch(self):
        dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.DOMINO, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        with pytest.raises(ValueError, match="famil"):
            run_end_to_end(InputQubit(1, 0), dist, conc)

    def test_custom_compatible_with_either_family(self):
        dist = pure_channel(Variant.CUSTOM, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        reports = run_end_to_end(InputQubit(1, 0), dist, conc)
        assert len(reports) == 16

    def test_telecloning_concentrated_by_same_coefficients(self):
        dist = telecloning_channel()
        conc = telecloning_channel(Endpoint.RECEIVER_LAST)
        inp = random_input(np.random.default_rng(10))
        reports = run_end_to_end(inp, dist, conc)
        assert sum(r.joint_prob for r in reports) == pytest.approx(1.0, abs=1e-9)
        for r in reports:
            if r.fidelity is not None:
                assert r.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_mixture_components_flattened(self):
        inp = random_input(np.random.default_rng(11))
        reports = run_end_to_end(inp, telecloning_channel(), smolin_channel())
        assert len(reports) == 4 * 4 * 64
        assert {r.component_index for r in reports} == {0, 1, 2, 3}
        assert sum(r.joint_prob for r in reports) == pytest.approx(1.0, abs=1e-9)
        for r in reports:
            if r.fidelity is not None:
                assert r.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_mixture_branches_are_weighted_copies(self):
        # A mixed concentration channel must report exactly the per-component
        # branches with probabilities scaled by the component weights.
        gen = np.random.default_rng(12)
        comp_a = random_channel(Variant.PARITY, 2, Endpoint.RECEIVER_LAST, gen)
        comp_b = random_channel(Variant.PARITY, 2, Endpoint.RECEIVER_LAST, gen)
        mixture = mixed_channel(
            Variant.PARITY, 2, Endpoint.RECEIVER_LAST,
            [(0.3, dict(comp_a.components[0].coeffs)),
             (0.7, dict(comp_b.components[0].coeffs))],
        )
        dist = random_channel(Variant.PARITY, 2, Endpoint.SENDER_FIRST, gen)
        inp = random_input(gen)

        mixed_reports = run_end_to_end(inp, dist, mixture)
        pure_a = run_end_to_end(inp, dist, comp_a)
        pure_b = run_end_to_end(inp, dist, comp_b)

        by_key = {}
        for r in mixed_reports:
            by_key[(r.component_index % 2, r.alice_outcome, r.bob_outcomes)] = r
        for weight, pure_reports, slot in ((0.3, pure_a, 0), (0.7, pure_b, 1)):
            for p in pure_reports:
                m = by_key[(slot, p.alice_outcome, p.bob_outcomes)]
                assert m.joint_prob == pytest.approx(weight * p.joint_prob, abs=1e-12)
                if p.fidelity is None:
                    assert m.fidelity is None or m.joint_prob <= 1e-14
                else:
                    assert m.fidelity == pytest.approx(p.fidelity, abs=1e-9)

    def test_null_distribution_branch_reported(self):
        # A custom product-state channel nulls one sender outcome for the
        # |+> input; the run must still report that branch, fidelity absent.
        dist = pure_channel(Variant.CUSTOM, 1, {"0": SQ, "1": SQ}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.CUSTOM, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        inp = InputQubit(SQ, SQ)
        reports = run_end_to_end(inp, dist, conc)
        nulls = [r for r in reports if r.fidelity is None]
        assert nulls, "expected a zero-probability sender branch"
        for r in nulls:
            assert r.joint_prob <= 1e-14
            assert r.bob_outcomes == () or r.joint_prob <= 1e-14
        assert sum(r.joint_prob for r in reports) == pytest.approx(1.0, abs=1e-9)

    def test_correction_minimality_generic_input(self):
        # On a generic branch the reported receiver Pauli is the only label
        # that reconstructs the input: the dense reference's receiver vector,
        # with its own correction undone by the reported Pauli, is repaired
        # by that Pauli and by no other.
        gen = np.random.default_rng(13)
        dist = random_channel(Variant.PARITY, 3, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.PARITY, 3, Endpoint.RECEIVER_LAST, gen)
        inp = random_input(gen)
        target = inp.to_state().amps
        reports = run_end_to_end(inp, dist, conc)
        assert len(reports) == 4 * 4 ** 3
        for a in BELL_OUTCOMES:
            _, party = distribution_branch(target, dist.components[0], dist.variant, 3, a)
            for k, tup in enumerate(itertools.islice(itertools.product(BELL_OUTCOMES, repeat=3), 16)):
                r = reports[a.index * 4 ** 3 + k]
                assert (r.alice_outcome, r.bob_outcomes) == (a, tup)
                _, vec = concentration_branch(party, conc.components[0], conc.variant, 3, tup)
                uncorrected = PAULI_MATRICES[r.correction] @ vec
                winners = [
                    label for label, mat in PAULI_MATRICES.items()
                    if abs(np.vdot(target, mat @ uncorrected)) ** 2 > 1.0 - 1e-9
                ]
                assert winners == [r.correction]
                assert r.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_transcripts_input_independent(self):
        gen = np.random.default_rng(14)
        dist = random_channel(Variant.DOMINO, 2, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.DOMINO, 2, Endpoint.RECEIVER_LAST, gen)

        def transcripts(inp):
            return [(r.component_index, r.alice_outcome, r.bob_outcomes, r.correction)
                    for r in run_end_to_end(inp, dist, conc)]

        t1 = transcripts(InputQubit(1, 0))
        t2 = transcripts(random_input(gen))
        assert t1 == t2

    def test_sampled_end_to_end_deterministic(self):
        gen = np.random.default_rng(15)
        dist = random_channel(Variant.PARITY, 3, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.PARITY, 3, Endpoint.RECEIVER_LAST, gen)
        inp = random_input(gen)
        a = run_end_to_end(inp, dist, conc, mode="sampled", seed=99)
        b = run_end_to_end(inp, dist, conc, mode="sampled", seed=99)
        assert a == b
        assert len(a) == 1
        assert a[0].fidelity == pytest.approx(1.0, abs=1e-9)

    def test_sampled_mixture_draws_one_component(self):
        inp = random_input(np.random.default_rng(16))
        reports = run_end_to_end(inp, telecloning_channel(), smolin_channel(),
                                 mode="sampled", seed=3)
        assert len(reports) == 1
        assert reports[0].fidelity == pytest.approx(1.0, abs=1e-9)


def dense_reports(inp, dist, conc):
    """Every end-to-end branch from the dense per-branch reference, in report
    order: ((component index, sender outcome, party outcomes), receiver
    correction, joint probability, fidelity or None), with the evaluator's
    null rules. A null sender branch has no party outcomes and no
    correction."""
    inp_vec = inp.to_state().amps
    return [
        ((index, alice, bobs), concentration_correction(conc.variant, bobs) if bobs else None, joint,
         None if vec is None or joint <= NULL_PROB_EPS else float(abs(np.vdot(inp_vec, vec)) ** 2))
        for index, alice, bobs, joint, vec in dense_branches(inp_vec, dist, conc)
    ]


def agreement_cases():
    gen = np.random.default_rng(17)
    yield "parity-n3", (random_channel(Variant.PARITY, 3, Endpoint.SENDER_FIRST, gen),
                        random_channel(Variant.PARITY, 3, Endpoint.RECEIVER_LAST, gen))
    yield "domino-n4", (random_channel(Variant.DOMINO, 4, Endpoint.SENDER_FIRST, gen),
                        random_channel(Variant.DOMINO, 4, Endpoint.RECEIVER_LAST, gen))
    yield "ghz3", (resolve_preset("ghz(3)", Endpoint.SENDER_FIRST),
                   resolve_preset("ghz(3)", Endpoint.RECEIVER_LAST))
    yield "telecloning-smolin", (telecloning_channel(), smolin_channel())
    # Each block of the stacked evaluator holds one joint state of the cap size.
    yield "domino-n6", (random_channel(Variant.DOMINO, 6, Endpoint.SENDER_FIRST, gen),
                        random_channel(Variant.DOMINO, 6, Endpoint.RECEIVER_LAST, gen))
    # For the |+> input (NULL_SENDER_INPUT) the first sender component nulls
    # psi- and phi-, and the second is live on every outcome, so null sender
    # records fall between stacked live states.
    yield "custom-null", (
        mixed_channel(Variant.CUSTOM, 2, Endpoint.SENDER_FIRST,
                      [(0.5, {"00": SQ, "11": SQ}), (0.5, {"01": 0.6, "10": 0.8})]),
        mixed_channel(Variant.CUSTOM, 2, Endpoint.RECEIVER_LAST,
                      [(0.4, {"00": 1.0}), (0.6, {"01": SQ, "10": SQ})]),
    )


NULL_SENDER_INPUT = InputQubit(SQ, SQ)


class TestEvaluatorConsumersAgree:
    @pytest.mark.parametrize("name, channels", list(agreement_cases()),
                             ids=[name for name, _ in agreement_cases()])
    def test_end_to_end_matches_branch_states(self, name, channels):
        # run_end_to_end finishes whole blocks of branches; each must match
        # an independent computation: the dense per-branch reference up to
        # four parties, the support-pair oracle at six.
        dist, conc = channels
        seed = 18
        inp = NULL_SENDER_INPUT if name == "custom-null" else random_input(np.random.default_rng(seed))
        fast = run_end_to_end(inp, dist, conc)
        if dist.n_parties > 4:
            # oracle_agreement draws the same input from the same seed.
            v = oracle_agreement(dist, conc, trials=1, seed=seed)
            assert v.passed, v.worst_deviation
            assert v.details["branches_compared"] == len(fast)
        else:
            slow = dense_reports(inp, dist, conc)
            assert len(fast) == len(slow)
            for f, (key, correction, joint, fid) in zip(fast, slow):
                assert (f.component_index, f.alice_outcome, f.bob_outcomes) == key
                assert f.correction is correction
                assert (f.fidelity is None) == (fid is None)
                assert f.joint_prob == pytest.approx(joint, rel=0, abs=1e-12)
                if fid is not None:
                    assert f.fidelity == pytest.approx(fid, rel=0, abs=1e-12)
        nulls = sum(r.fidelity is None for r in fast)
        if name == "ghz3":
            assert nulls == 192
        if name == "telecloning-smolin":
            assert {r.component_index for r in fast} == {0, 1, 2, 3}
            assert nulls == 256
        if name == "custom-null":
            sender_nulls = [i for i, r in enumerate(fast) if not r.bob_outcomes]
            assert [(fast[i].component_index, fast[i].alice_outcome) for i in sender_nulls] == [
                (0, PSI_M), (0, PHI_M)]
            assert 0 < sender_nulls[0] and sender_nulls[-1] < len(fast) - 1

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_end_to_end_matches_branch_states(self, seed):
        # A sampled trajectory is one of the branches the dense reference
        # gives, with the same correction, joint probability and fidelity,
        # and its sender branch is Generator.choice's pick among distribute's.
        dist, conc = telecloning_channel(), smolin_channel()
        inp = random_input(np.random.default_rng(19))
        fast = run_end_to_end(inp, dist, conc, mode="sampled", seed=seed)
        assert len(fast) == 1
        f = fast[0]
        db = choice_branch(inp, dist, np.random.default_rng(seed))
        assert (f.component_index // len(conc.components), f.alice_outcome) == (
            db.component_index, db.outcomes[0])
        slow = {key: rest for key, *rest in dense_reports(inp, dist, conc)}
        correction, joint, fid = slow[(f.component_index, f.alice_outcome, f.bob_outcomes)]
        assert f.correction is correction
        assert f.joint_prob == pytest.approx(joint, rel=0, abs=1e-12)
        assert f.fidelity == pytest.approx(fid, rel=0, abs=1e-12)


# Pairs whose plans hold no forms at any block budget: custom-null's product receiver
# component |00> and its first sender component make rank-deficient maps.
ILL_CONDITIONED = frozenset({"custom-null"})


def path_cases():
    """Pairs for comparing the map path with the kernel path: pure pairs at n = 1..5,
    receiver mixtures, and the custom pair whose |+> input nulls sender rows."""
    gen = np.random.default_rng(40)
    cases = {f"{v.value}-n{n}": (random_channel(v, n, Endpoint.SENDER_FIRST, gen),
                                 random_channel(v, n, Endpoint.RECEIVER_LAST, gen))
             for v, n in ((Variant.PARITY, 1), (Variant.DOMINO, 2), (Variant.PARITY, 3),
                          (Variant.DOMINO, 4), (Variant.PARITY, 5))}
    comps = [dict(random_channel(Variant.DOMINO, 2, Endpoint.RECEIVER_LAST, gen).components[0].coeffs)
             for _ in range(3)]
    cases["domino-n2-mixed"] = (random_channel(Variant.DOMINO, 2, Endpoint.SENDER_FIRST, gen), mixed_channel(
        Variant.DOMINO, 2, Endpoint.RECEIVER_LAST, list(zip((0.2, 0.3, 0.5), comps))))
    cases["telecloning-smolin"] = telecloning_channel(), smolin_channel()
    cases["custom-null"] = dict(agreement_cases())["custom-null"]
    # Even parity is unfaithful, so its branch maps are not multiples of I.
    cases["parity-n2"] = (random_channel(Variant.PARITY, 2, Endpoint.SENDER_FIRST, gen),
                          random_channel(Variant.PARITY, 2, Endpoint.RECEIVER_LAST, gen))
    cases["domino-n5"] = (random_channel(Variant.DOMINO, 5, Endpoint.SENDER_FIRST, gen),
                          random_channel(Variant.DOMINO, 5, Endpoint.RECEIVER_LAST, gen))
    return cases


def irregular_custom_mixture(n, endpoint, gen):
    """A two-component custom channel whose components hold different random supports of
    12 strings each, with generic coefficients."""
    comps = []
    for weight in (0.35, 0.65):
        keys = gen.choice(1 << n, size=12, replace=False)
        amps = gen.normal(size=12) + 1j * gen.normal(size=12)
        comps.append((weight, dict(zip([format(k, f"0{n}b") for k in keys], amps / np.linalg.norm(amps)))))
    return mixed_channel(Variant.CUSTOM, n, endpoint, comps)


def sampled_start_cases():
    """Pairs whose sampled runs start on a plan's start: staircase and parity pairs at n = 7, 8
    and 9, past the exhaustive cap, a custom pair at n = 8 whose sender components hold
    different supports, so that the start holds more strings than any one branch, and custom-null."""
    gen = np.random.default_rng(51)
    ends = Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST
    cases = {f"{v.value}-n{n}": tuple(random_channel(v, n, e, gen) for e in ends)
             for v in (Variant.DOMINO, Variant.PARITY) for n in (7, 8, 9)}
    cases["custom-mixture-n8"] = tuple(irregular_custom_mixture(8, e, gen) for e in ends)
    cases["custom-null"] = dict(agreement_cases())["custom-null"]
    return cases


def array_bytes(plan):
    """The bytes of every array a (nested) plan tuple holds."""
    if isinstance(plan, np.ndarray):
        return plan.nbytes
    return sum(map(array_bytes, plan)) if isinstance(plan, tuple) else 0


# The forms of a 2x2 M are this matrix times M.ravel(); _bilinear takes the product as exact adds.
BILINEAR = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0]])


class TestForms:
    def test_forms_are_the_input_quadratics(self):
        # _bilinear(M) . b is <in|M|in> on the input's bilinears b for any 2x2 M,
        # real for a Hermitian H, whose _extreme is the eigenvalue farthest from the target:
        # the bound the plan's checks read, as <in|H|in> lies between the eigenvalues.
        rng = np.random.default_rng(44)
        for inp in random_inputs(rng, 200):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = m + m.conj().T
            vec = np.array([inp.alpha, inp.beta])
            cross = np.conj(vec[0]) * vec[1]
            b = np.array([abs(vec[0]) ** 2, abs(vec[1]) ** 2, cross.real, cross.imag])
            assert _bilinear(m) @ b == pytest.approx(np.vdot(vec, m @ vec), abs=1e-12)
            forms = _bilinear(h)
            assert not forms.imag.any()
            lo, hi = np.linalg.eigvalsh(h)
            assert lo - 1e-12 <= forms.real @ b <= hi + 1e-12
            for target, farthest in ((lo - 1.0, hi), ((lo + hi) / 2 - 0.1, hi), ((lo + hi) / 2 + 0.1, lo)):
                assert _extreme(forms.real, target) == pytest.approx(farthest, abs=1e-12)

    def test_exact_adds_are_the_product(self):
        # _bilinear gives the complex product's floats on a stack of matrices with exact zeros
        # among their parts, as branch maps have; only a zero's sign may differ.
        rng = np.random.default_rng(52)
        m = rng.normal(size=(2, 2, 300)) + 1j * rng.normal(size=(2, 2, 300))
        m.real[rng.random(m.shape) < 0.3] = 0.0
        m.imag[rng.random(m.shape) < 0.3] = 0.0
        m[..., ::7] = 0.0
        got, want = _bilinear(m), BILINEAR @ m.transpose(2, 0, 1).reshape(-1, 4).T
        assert np.array_equal(got, want)
        assert sign_free_bytes(got) == sign_free_bytes(want)


class TestPairPlan:
    # A run reads everything but its input from one cached plan per channel pair.
    def test_each_pair_reads_its_own_plan(self):
        # Pairs sharing a distribution channel but not a concentration channel,
        # and equal but distinct specs, must each give the dense reference's
        # branches; equal specs share one plan.
        gen = np.random.default_rng(34)
        dist = random_channel(Variant.PARITY, 3, Endpoint.SENDER_FIRST, gen)
        concs = [random_channel(Variant.PARITY, 3, Endpoint.RECEIVER_LAST, gen), smolin_channel()]
        twins = [spec_from_json(spec_to_json(spec)) for spec in (dist, concs[0])]
        assert twins == [dist, concs[0]] and twins[0] is not dist and twins[1] is not concs[0]
        inp = random_input(gen)
        for d, c in [(dist, concs[0]), (dist, concs[1]), tuple(twins), (dist, twins[1])]:
            fast = run_end_to_end(inp, d, c)
            slow = dense_reports(inp, d, c)
            assert len(fast) == len(slow)
            for f, (key, correction, joint, fid) in zip(fast, slow):
                assert ((f.component_index, f.alice_outcome, f.bob_outcomes), f.correction) == (key, correction)
                assert f.joint_prob == pytest.approx(joint, rel=0, abs=1e-12)
                assert f.fidelity == (None if fid is None else pytest.approx(fid, rel=0, abs=1e-12))
        assert protocol._pair_plan(*twins) is protocol._pair_plan(dist, concs[0])

    def test_plan_builds_each_component_once(self, monkeypatch, fresh_plans):
        # The plan is the one store of a pair's channel states: the first run on
        # telecloning->Smolin builds the 1 sender and 4 receiver components, and
        # no later run on the pair, or on an equal pair from JSON, builds one.
        built = []
        build = protocol.build_channel_component

        def spy(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(protocol, "build_channel_component", spy)
        dist, conc = telecloning_channel(), smolin_channel()
        twins = tuple(spec_from_json(spec_to_json(spec)) for spec in (dist, conc))
        inp = random_input(np.random.default_rng(36))
        run_end_to_end(inp, dist, conc)
        assert len(built) == 1 + 4
        for d, c in ((dist, conc), twins):
            run_end_to_end(inp, d, c)
            for seed in range(3):
                run_end_to_end(inp, d, c, mode="sampled", seed=seed)
        assert len(built) == 5

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(sender_cases())
    def test_start_holds_every_live_party_vector(self, case):
        # Runs of both modes gather party vectors on the plan's start strings only,
        # so every live vector's nonzeros must lie there, for any input.
        inp, dist = case
        conc = random_channel(dist.variant, dist.n_parties, Endpoint.RECEIVER_LAST, np.random.default_rng(38))
        sender, _, _, ((gather, _), *_) = protocol._pair_plan(dist, conc)
        assert np.array_equal(sender[2][0], np.arange(1 << dist.n_parties))  # phi+ flips no bit
        start = set(gather[0].tolist())
        for qubit in (inp, InputQubit(1, 0), InputQubit(0, 1), NULL_SENDER_INPUT):
            rows, raw, _ = _sender_stage(qubit.to_state().amps, sender)
            for vec in _party_vectors(rows, raw, sender[2:], *np.nonzero(~(raw < NULL_PROB_EPS))):
                assert set(np.flatnonzero(vec).tolist()) <= start

    @pytest.mark.parametrize("name", list(sampled_start_cases()))
    def test_start_covers_every_sampled_party_vector(self, name):
        # Sampled runs start on the plan's start strings at every size, so every nonzero
        # amplitude of every distribution branch must lie there; over basis, |+> and random
        # inputs the branches reach every start string, so the start holds no string too many.
        dist, conc = sampled_start_cases()[name]
        start = set(protocol._pair_plan(dist, conc)[3][0][0][0].tolist())  # phi+ flips no bit
        reached = set()
        for inp in (InputQubit(1, 0), InputQubit(0, 1), NULL_SENDER_INPUT, random_input(np.random.default_rng(49))):
            for branch in distribute(inp, dist):
                if branch.state is not None:
                    reached.update(np.flatnonzero(branch.state.amps).tolist())
        assert reached == start

    def test_plans_at_the_sampled_cap_stay_small(self):
        # Past the exhaustive cap a plan holds no step plan, only the draw's keys and small
        # tables: a staircase, a parity and an irregular custom pair on 250 of 512 strings
        # each hold under 256 KiB of arrays at n = 9, and only exhaustive sizes hold steps.
        gen = np.random.default_rng(50)
        ends = Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST
        pairs = [tuple(random_channel(variant, 9, e, gen) for e in ends)
                 for variant in (Variant.DOMINO, Variant.PARITY)]
        strings = [format(k, "09b") for k in gen.choice(512, size=250, replace=False)]
        amps = gen.normal(size=250) + 1j * gen.normal(size=250)
        pairs.append(tuple(pure_channel(Variant.CUSTOM, 9, dict(zip(strings, amps / np.linalg.norm(amps))), e)
                           for e in ends))
        for pair in pairs:
            plan = protocol._pair_plan(*pair)
            assert len(plan[3]) == 2 and array_bytes(plan) < 256 << 10
        assert len(protocol._pair_plan(*path_cases()["domino-n5"])[3]) == 6

    @pytest.mark.parametrize("n", [2, 5])
    def test_block_size_leaves_rows_unchanged(self, n, monkeypatch, fresh_plans):
        # A block holds whole states' worth of receiver components, so a
        # three-component mixture fills blocks unevenly; every report must be
        # the same floats as with one joint state per block. Both runs take the
        # kernel path: the first blocks hold 23 joint states, 7 vectors' worth.
        gen = np.random.default_rng(35 + n)
        comps = [dict(random_channel(Variant.DOMINO, n, Endpoint.RECEIVER_LAST, gen).components[0].coeffs)
                 for _ in range(3)]
        conc = mixed_channel(Variant.DOMINO, n, Endpoint.RECEIVER_LAST, list(zip((0.2, 0.3, 0.5), comps)))
        dist = random_channel(Variant.DOMINO, n, Endpoint.SENDER_FIRST, gen)
        inp = random_input(gen)
        force_path(monkeypatch, "kernel")
        runs = []
        for block_amps in ((16 * 3 << 2 * n) - 1, 2 << 2 * n):
            monkeypatch.setattr(protocol, "_BLOCK_AMPS", block_amps)
            runs.append([report_fields(r) for r in run_end_to_end(inp, dist, conc)])
        assert runs[0] == runs[1]
        assert protocol._pair_plan(dist, conc)[3][4] is None

    @pytest.mark.parametrize("name", list(path_cases()))
    def test_maps_match_the_kernel(self, name, monkeypatch, fresh_plans):
        # A pair's forms and the kernel on each trial's party vectors are the same
        # linear algebra in another order: the same branches and null flags, and
        # floats a few ulps apart, for inputs that null receiver rows. An ill-conditioned
        # pair, whose |+> input nulls sender rows, holds no forms and runs the kernel.
        dist, conc = path_cases()[name]
        inputs = [InputQubit(1, 0), NULL_SENDER_INPUT, *random_inputs(np.random.default_rng(41), 3)]
        runs = []
        for path in ("forms", "kernel"):
            force_path(monkeypatch, path)
            runs.append([run_end_to_end(inp, dist, conc) for inp in inputs])
            assert (protocol._pair_plan(dist, conc)[3][4] is None) == (path == "kernel" or name in ILL_CONDITIONED)
        for forms, kernel in zip(*runs):
            assert len(forms) == len(kernel)
            for f, k in zip(forms, kernel):
                assert (f.component_index, f.alice_outcome, f.bob_outcomes, f.correction) == (
                    k.component_index, k.alice_outcome, k.bob_outcomes, k.correction)
                assert (f.fidelity is None) == (k.fidelity is None)
                assert abs(f.joint_prob - k.joint_prob) <= 1e-16
                assert f.fidelity is None or abs(f.fidelity - k.fidelity) <= 2e-15

    @pytest.mark.parametrize("name", ["telecloning-smolin", "custom-null"])
    def test_maps_run_is_one_product(self, name, monkeypatch, fresh_plans):
        # Once a pair's plan holds forms, an exhaustive run reads its sender rows and every
        # branch from one product: no sender stage, no kernel and no party vector. On
        # the kernel path, or for an ill-conditioned pair, every run takes the sender
        # stage and the kernel.
        dist, conc = path_cases()[name]
        calls = []
        for fn in ("_sender_stage", "_receiver_rows", "_party_vectors"):
            real = getattr(protocol, fn)
            monkeypatch.setattr(protocol, fn, lambda *args, fn=fn, real=real: calls.append(fn) or real(*args))
        gen = np.random.default_rng(43)
        inputs = [InputQubit(1, 0), NULL_SENDER_INPUT, random_input(gen)]
        for path in ("forms", "kernel"):
            force_path(monkeypatch, path)
            protocol._pair_plan(dist, conc)
            for inp in inputs:
                calls.clear()
                run_end_to_end(inp, dist, conc)
                one_product = path == "forms" and name not in ILL_CONDITIONED
                assert sorted(set(calls)) == ([] if one_product else ["_receiver_rows", "_sender_stage"])

    @pytest.mark.parametrize("bad", [1e-4, math.nan])
    def test_corrupted_maps_are_refused(self, bad, monkeypatch, fresh_plans):
        # One amplitude off breaks sum w_c K^dagger K = I for its sender component,
        # whatever the amplitude was: the plan refuses the maps when it builds them,
        # and on the kernel path the trial refuses its total.
        rows = protocol._receiver_rows

        def corrupt(*args):
            blocks = list(rows(*args))
            blocks[0][0, 0, 0] += bad
            return iter(blocks)

        monkeypatch.setattr(protocol, "_receiver_rows", corrupt)
        dist, conc = telecloning_channel(), smolin_channel()
        for path, refusal in PATH_REFUSALS:
            force_path(monkeypatch, path)
            with pytest.raises(ValueError, match=refusal):
                run_end_to_end(InputQubit(1, 0), dist, conc)

    def test_ill_conditioned_maps_hold_no_forms(self, monkeypatch, fresh_plans):
        # Forms read |K in|^2 off a Gram, so a map that annihilates some input would lose
        # every digit near it: on custom-null, inputs 1e-4 to 1e-7 off |+> would read
        # fidelities 1e-9 to 1e-4 off the oracle's. Its plan holds no forms even where they
        # fit, so the kernel runs and the evaluator agrees with the oracle near |+>.
        dist, conc = path_cases()["custom-null"]
        force_path(monkeypatch, "forms")
        assert protocol._pair_plan(dist, conc)[3][4] is None
        for offset in (1e-4, 1e-5, 1e-6, 3e-7, 1e-7):
            theta = math.pi / 4 + offset
            inp = InputQubit(math.cos(theta), math.sin(theta))
            monkeypatch.setattr(verify_mod, "random_inputs", lambda gen, count, inp=inp: [inp] * count)
            v = oracle_agreement(dist, conc, trials=1, seed=0)
            assert v.passed and v.worst_deviation <= 1e-14, (offset, v.worst_deviation)

    def test_forms_only_within_the_byte_budget(self):
        # The memory rule: a plan holds forms only if all of them, 32 (S + 3B) bytes for S
        # sender rows and B branches, fit _FORMS_BYTES, so every pure pair to n = 5 holds
        # them, while domino n = 6 and a two-component domino n = 5 mixture run the kernel
        # on each trial. The held forms are one column per sender row, then three per branch,
        # read-only: exactly the size the rule read from the pair's shape.
        gen = np.random.default_rng(42)
        pure = {f"{v.value}-n{n}": tuple(random_channel(v, n, e, gen) for e in (Endpoint.SENDER_FIRST,
                                                                                Endpoint.RECEIVER_LAST))
                for v, n in ((Variant.PARITY, 5), (Variant.DOMINO, 5), (Variant.DOMINO, 6))}
        mixtures = {f"domino-n{n}-mixed": receiver_mixture_pair(Variant.DOMINO, n, (0.4, 0.6), gen) for n in (4, 5)}
        cases = {**{name: path_cases()[name] for name in ("parity-n1", "domino-n4", "telecloning-smolin")},
                 **pure, **mixtures}
        for name, (dist, conc) in cases.items():
            plan = protocol._pair_plan(dist, conc)
            senders, forms = 4 * len(plan[0][0]), plan[3][4]
            branches = senders * len(conc.components) << 2 * dist.n_parties
            assert (forms is not None) == (32 * (senders + 3 * branches) <= protocol._FORMS_BYTES), name
            if forms is not None:
                assert forms.shape == (4, senders + 3 * branches) and not forms.flags.writeable, name
                assert forms.nbytes == 32 * (senders + 3 * branches), name
        assert {name for name, pair in cases.items() if protocol._pair_plan(*pair)[3][4] is None} == {
            "domino-n6", "domino-n5-mixed"}


def forms_invariant_pairs():
    """Pairs for the forms trial's sender-row invariant: ``path_cases()``, custom pairs (pure on
    every support, and two-component mixtures), and 48 seeded random parity and staircase pairs
    at n = 1..4, even parity included."""
    gen = np.random.default_rng(47)
    pairs = list(path_cases().values())
    pairs += [full_support_pair(n, gen) for n in (1, 2, 3)]
    for n in (1, 2, 3):
        supports = [format(i, f"0{n}b") for i in range(1 << n)]
        pairs.append(tuple(mixed_channel(Variant.CUSTOM, n, endpoint, [
            (w, dict(zip(supports, random_state(gen, n)))) for w in (0.3, 0.7)])
            for endpoint in (Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST)))
    for variant, n, _ in itertools.product((Variant.PARITY, Variant.DOMINO), range(1, 5), range(6)):
        pairs.append(tuple(random_channel(variant, n, e, gen) for e in (Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST)))
    return pairs


class TestFormsInvariant:
    def test_forms_plans_null_no_sender_row(self):
        # A forms trial reads its sender rows as views, with no null test. That rests on the
        # conditioning rule: each sender row's smallest raw probability over unit inputs (the
        # _extreme farthest from +inf) is at least _FORMS_CONDITION times its largest
        # eigenvalue, which is at least 1/4, so far above NULL_PROB_EPS. An ill-conditioned
        # pair (custom-null nulls sender rows at |+>) holds no forms.
        assert protocol._FORMS_CONDITION / 4 > 1e9 * NULL_PROB_EPS
        held = 0
        for dist, conc in forms_invariant_pairs():
            sender, _, _, start = protocol._pair_plan(dist, conc)
            if start[4] is None:
                continue
            held += 1
            lowest = _extreme(start[4][:, :4 * len(sender[0])], math.inf)
            assert np.all(lowest >= protocol._FORMS_CONDITION / 4), (dist, conc, lowest.min())
        assert held >= 55


class TestFinishRows:
    # _finish_rows skips its masks when no branch is null: the same division, so the same
    # floats, with a NaN row live and a row at NULL_PROB_EPS flagged as the masks flag it.
    def test_unmasked_is_the_masked_finish(self):
        gen = np.random.default_rng(48)
        for rows, width in ((1, 1), (4, 16), (12, 64)):
            norms = gen.uniform(1e-6, 1.0, size=(rows, width))
            overlaps = norms * gen.uniform(0.0, 1.0, size=(rows, width))
            party_raw, weights = gen.uniform(0.1, 1.0, size=(2, rows, 1))
            joint, fids = _finish_rows(norms, overlaps, party_raw, weights)
            # The same rows below one null row (norm 0) take the masked path.
            masked_joint, masked_fids = _finish_rows(*(np.concatenate([np.zeros((1, width)), x]) for x in (
                norms, overlaps)), *(np.concatenate([[[1.0]], x]) for x in (party_raw, weights)))
            assert masked_fids[0] == [None] * width
            assert masked_joint[1:].tobytes() == joint.tobytes()
            assert [[f.hex() for f in row] for row in masked_fids[1:]] == [[f.hex() for f in row] for row in fids]

    def test_nan_row_stays_live(self):
        # A NaN norm or overlap is no null branch, on either path: its fidelity is NaN.
        norms, overlaps = np.array([math.nan, 0.5]), np.array([0.2, math.nan])
        for extra in ((), (0.0,)):
            joint, fids = _finish_rows(np.append(norms, extra), np.append(overlaps, extra), 1.0, 1.0)
            assert math.isnan(fids[0]) and math.isnan(fids[1]) and fids[2:] == [None] * len(extra)
            assert math.isnan(joint[0]) and joint[1] == 0.5

    def test_rows_at_the_null_threshold(self):
        # raw < NULL_PROB_EPS or joint <= NULL_PROB_EPS is null: at the threshold exactly,
        # a raw of NULL_PROB_EPS is live unless its joint is NULL_PROB_EPS too.
        eps = NULL_PROB_EPS
        cases = [  # norm, weight, null
            (eps, 1.0, True), (eps, 2.0, False), (np.nextafter(eps, 0.0), 2.0, True),
            (2 * eps, 0.5, True), (np.nextafter(2 * eps, 1.0), 0.5, False)]
        norms, weights, nulls = map(np.array, zip(*cases))
        for rows in (slice(None), ~nulls):  # with null rows, and without
            _, fids = _finish_rows(norms[rows], norms[rows] / 2, 1.0, weights[rows])
            assert [f is None for f in fids] == nulls[rows].tolist()
            assert all(f == 0.5 for f in fids if f is not None)


def full_support_pair(n, gen):
    """A custom channel pair on every support, with generic coefficients."""
    return tuple(
        pure_channel(Variant.CUSTOM, n, dict(zip(
            [format(i, f"0{n}b") for i in range(1 << n)], random_state(gen, n))), endpoint)
        for endpoint in (Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST)
    )


def sampled_cases():
    gen = np.random.default_rng(21)
    for variant, sizes in ((Variant.DOMINO, range(1, 10)), (Variant.PARITY, (1, 3, 5, 7))):
        for n in sizes:
            yield f"{variant.value}-n{n}", (random_channel(variant, n, Endpoint.SENDER_FIRST, gen),
                                            random_channel(variant, n, Endpoint.RECEIVER_LAST, gen))
    yield "custom-full-n3", full_support_pair(3, gen)
    yield "telecloning-smolin", (telecloning_channel(), smolin_channel())
    # Mixtures on both sides; the |+> input nulls two sender branches.
    yield "custom-null", dict(agreement_cases())["custom-null"]
    # Sender components on different supports: the plan's start holds more strings than the drawn vector.
    yield "custom-mixture-n8", sampled_start_cases()["custom-mixture-n8"]


def report_fields(r):
    """A report's fields, floats as exact hex strings."""
    return (r.component_index, r.alice_outcome, r.bob_outcomes, r.correction, r.joint_prob.hex(),
            None if r.fidelity is None else r.fidelity.hex())


def report_key(r):
    """A report's key, (flattened component index, sender outcome, party outcomes)."""
    return r.component_index, r.alice_outcome, r.bob_outcomes


def assert_rows_agree(got, want, context):
    """Reports with the same keys and corrections, and joint probabilities and fidelities within 1e-15:
    the sampled draw sums each row in another order than the exhaustive or dense rows."""
    assert [(report_key(r), r.correction) for r in got] == [(report_key(r), r.correction) for r in want], context
    for a, b in zip(got, want):
        assert abs(a.joint_prob - b.joint_prob) <= 1e-15, context
        assert (a.fidelity is None) == (b.fidelity is None), context
        assert a.fidelity is None or abs(a.fidelity - b.fidelity) <= 1e-15, context


class TestSampledLiveStrings:
    # Sampled trajectories draw every party's outcome in two picks over the start's live
    # party and channel strings; from the same generator they must draw the dense
    # trajectory's keys, with its floats to 1e-15, as they sum in another order.
    @pytest.mark.parametrize("name", [name for name, _ in sampled_cases()])
    def test_matches_dense_trajectory(self, name):
        dist, conc = dict(sampled_cases())[name]
        gen = np.random.default_rng(23)
        components = set()
        for seed in range(10):
            inp = NULL_SENDER_INPUT if name == "custom-null" else random_input(gen)
            fast = run_end_to_end(inp, dist, conc, mode="sampled", seed=seed)
            assert_rows_agree(fast, dense_sampled(inp, dist, conc, seed), seed)
            components.add(fast[0].component_index)
        if len(dist.components) * len(conc.components) > 1:
            assert len(components) > 1  # the draws reach more than one component pair

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.data())
    def test_live_step_matches_dense_rows(self, n, data):
        # Every step of an exhaustive plan gives the dense pair_rows rows exactly,
        # at the keys it leaves, with zeros everywhere else, whichever outcome
        # goes on, for each state of a stack along trailing axes, as exhaustive
        # runs hold one. Channel keys come in receiver-bit pairs, as
        # _pair_plan's live keys keep them.
        masks = [data.draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n)
                           .filter(any)) for _ in range(2)]
        pkeys = np.flatnonzero(masks[0])
        ckeys = (2 * np.flatnonzero(masks[1])[:, None] + np.arange(2)).ravel()
        stack = data.draw(st.sampled_from([(), (2,), (2, 3)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        size = (len(pkeys), len(ckeys), *stack)
        mat = rng.normal(size=size) + 1j * rng.normal(size=size)
        mat[rng.random(mat.shape) < data.draw(st.floats(0.0, 1.0))] = 0.0
        dense = np.zeros((1 << n, 2 << n, *stack), dtype=complex)
        dense[np.ix_(pkeys, ckeys)] = mat
        plan = _step_plan(pkeys, ckeys, n)
        assert len(plan) == n
        for bits, step in zip(range(n, 0, -1), plan):
            states = dense.reshape(1 << bits, 2 << bits, -1)
            want = np.stack([pair_rows(states[..., s].ravel(), 2 * bits + 1, 1, bits + 1)
                             for s in range(states.shape[-1])], axis=-1)
            rows = _live_pair_rows(mat, step)
            _, pleft, cleft = step
            assert pleft.tolist() == sorted({k % (1 << (bits - 1)) for k in pkeys.tolist()})
            assert cleft.tolist() == sorted({k % (1 << bits) for k in ckeys.tolist()})
            assert rows.shape == (4, len(pleft), len(cleft), *stack)
            got = np.zeros((4, 1 << (bits - 1), 1 << bits, *stack), dtype=complex)
            got[:, pleft[:, None], cleft] = rows
            assert np.array_equal(got.reshape(want.shape), want)
            k = data.draw(st.integers(0, 3))
            mat, dense = rows[k], want[k].reshape(1 << (bits - 1), 1 << bits, *stack)
            pkeys, ckeys = pleft, cleft

    def test_fewer_live_strings_run_on_the_plan_start(self):
        # A trajectory draws over the plan's start strings, which may hold more
        # than the drawn party vector: with an input of |0> or a zero channel
        # coefficient the extra strings are exact zeros, and the trajectory
        # still draws the dense one's keys, with its floats to 1e-15.
        gen = np.random.default_rng(25)
        domino = tuple(random_channel(Variant.DOMINO, 5, endpoint, gen)
                       for endpoint in (Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST))
        supports, amps = ("000", "011", "101", "110"), random_state(gen, 2)
        custom = tuple(pure_channel(Variant.CUSTOM, 3, dict(zip(supports, amps)), endpoint)
                       for endpoint in (Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST))
        amps[2] = 0.0  # no "101" and, with the receiver bit set, no "010" channel string
        holed = pure_channel(Variant.CUSTOM, 3, dict(zip(supports, amps / np.linalg.norm(amps))),
                             Endpoint.RECEIVER_LAST)
        inp = random_input(gen)
        for before, after in (((inp, *domino), (InputQubit(1, 0), *domino)),
                              ((inp, *custom), (inp, custom[0], holed))):
            for args in (before, after):
                for seed in range(5):
                    fast = run_end_to_end(*args, mode="sampled", seed=seed)
                    assert_rows_agree(fast, dense_sampled(*args, seed), seed)

    def test_domino_trajectory_holds_no_dense_joint_state(self):
        # A staircase pair has n supports, so a trajectory at n = 9 needs a
        # few hundred live amplitudes, not the 2^19 of the dense joint state.
        n = 9
        gen = np.random.default_rng(24)
        dist = random_channel(Variant.DOMINO, n, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.DOMINO, n, Endpoint.RECEIVER_LAST, gen)
        inp = random_input(gen)
        run_end_to_end(inp, dist, conc, mode="sampled", seed=0)  # builds the channel states
        tracemalloc.start()
        try:
            for seed in range(5):
                assert len(run_end_to_end(inp, dist, conc, mode="sampled", seed=seed)) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense_bytes = np.dtype(complex).itemsize << (2 * n + 1)
        assert peak < dense_bytes // 16


def small_draw_cases():
    """``path_cases()`` and ``sampled_cases()`` at exhaustive sizes, named by their source."""
    cases = {f"path-{name}": pair for name, pair in path_cases().items()}
    cases.update((f"sampled-{name}", pair) for name, pair in sampled_cases()
                 if pair[0].n_parties <= MAX_EXHAUSTIVE_PARTIES)
    return cases


class TestSampledDraw:
    # A trajectory draws its outcome tuple's bit-flip bits x, then its phase bits z (a Bell
    # measurement is CNOT then H). Each drawn row must be the same tree's exhaustive row of
    # its key, and the keys must come at the exhaustive joint probabilities.
    @pytest.mark.parametrize("name", list(small_draw_cases()))
    def test_rows_are_the_exhaustive_rows(self, name):
        dist, conc = small_draw_cases()[name]
        gen = np.random.default_rng(52)
        for inp in (NULL_SENDER_INPUT, InputQubit(1, 0), random_input(gen)):
            rows = {report_key(r): r for r in run_end_to_end(inp, dist, conc)}
            for seed in range(10):
                got = run_end_to_end(inp, dist, conc, mode="sampled", seed=seed)
                assert_rows_agree(got, [rows[report_key(r)] for r in got], (inp, seed))

    @pytest.mark.parametrize("variant, n", [(Variant.PARITY, 3), (Variant.DOMINO, 4)], ids=["parity-n3", "domino-n4"])
    def test_frequencies_match_the_exhaustive_joint(self, variant, n):
        # 4,000 trajectories from one generator land on live branches only, and Pearson's
        # statistic over the live branches lies within five standard deviations of its
        # mean, with the multinomial variance 2 (K - 1) + (sum 1/p - K^2 - 2 K + 2) / N.
        gen = np.random.default_rng(53)
        dist, conc = (random_channel(variant, n, e, gen) for e in (Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST))
        inp, draws = random_input(gen), 4000
        probs = {report_key(r): r.joint_prob for r in run_end_to_end(inp, dist, conc) if r.fidelity is not None}
        counts = collections.Counter(report_key(r) for _ in range(draws)
                                     for r in run_end_to_end(inp, dist, conc, mode="sampled", seed=gen))
        assert set(counts) <= set(probs)
        p = np.array(list(probs.values()))
        observed = np.array([counts[key] for key in probs])
        stat = float(((observed - draws * p) ** 2 / (draws * p)).sum())
        k = len(p)
        variance = 2 * (k - 1) + ((1 / p).sum() - k * k - 2 * k + 2) / draws
        assert abs(stat - (k - 1)) <= 5 * math.sqrt(variance), (stat, k)


class TestReportFieldTypes:
    # Reports hold plain Python values, never numpy scalars or object-array
    # elements, so their JSON stays byte-identical (criterion 8).
    @pytest.mark.parametrize("mode, seed", [("exhaustive", None)] + [("sampled", s) for s in range(4)])
    @pytest.mark.parametrize("name", ["ghz3", "telecloning-smolin"])
    def test_plain_python_fields(self, name, mode, seed):
        dist, conc = dict(agreement_cases())[name]
        inp = random_input(np.random.default_rng(20))
        reports = run_end_to_end(inp, dist, conc, mode=mode, seed=seed)
        assert reports
        for r in reports:
            assert type(r.component_index) is int
            assert type(r.alice_outcome) is BellOutcome
            assert type(r.joint_prob) is float
            assert r.fidelity is None or type(r.fidelity) is float
            assert type(r.bob_outcomes) is tuple
            assert all(type(o) is BellOutcome for o in r.bob_outcomes)
            assert type(r.correction) is PauliLabel
        if mode == "exhaustive":
            assert {r.fidelity is None for r in reports} == {True, False}


class TestReportsAndTranscripts:
    def test_report_json_shape(self):
        dist, conc = bell_pair_channels()
        r = run_end_to_end(InputQubit(0.6, 0.8), dist, conc)[0]
        data = r.to_json()
        assert set(data) == {"component", "alice", "bobs", "joint_prob", "correction", "fidelity"}
        assert data["alice"] == "phi+"
        assert data["bobs"] == ["phi+"]
