import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelay.bell import (
    BELL_OUTCOMES,
    NULL_PROB_EPS,
    PAULI_MATRICES,
    BellOutcome,
    PauliLabel,
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
    _PAULI_FRAMES,
    MAX_EXHAUSTIVE_PARTIES,
    InputQubit,
    _all_pair_rows,
    _distribution_frame,
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
    run_end_to_end,
)
from qrelay.statevec import NORM_ATOL, CapacityError, StateVector
from qrelay.verify import oracle_agreement

from conftest import equal_up_to_phase, random_state
from dense_reference import (
    apply_1q,
    batched_pair_rows,
    choice_branch,
    concentration_branch,
    dense_branches,
    dense_sampled,
    distribution_branch,
    matrix_finish_rows,
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
    """Patch the pair plans so that every party vector comes out times ``factor``:
    its distribution phases are scaled."""
    plan = protocol._pair_plan

    def scaled(dist, conc):
        sender, *rest = plan(dist, conc)
        return ((*sender[:3], sender[3] * factor), *rest)

    monkeypatch.setattr(protocol, "_pair_plan", scaled)


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
        # The sender branch a sampled run keeps must be the exhaustive branch
        # Generator.choice picks from the same generator: the same component
        # and outcome (and joint probability, when null), and the same party
        # vector built by the run's one _party_vectors call, with the generator
        # where choice leaves it: nothing draws between that call and the
        # receiver draw.
        handed = []
        vectors = protocol._party_vectors

        def spy(rows, raw, plan, ci, a):
            vec = vectors(rows, raw, plan, ci, a)
            handed.append((ci, vec, got_gen.bit_generator.state))
            return vec

        monkeypatch.setattr(protocol, "_party_vectors", spy)
        dist, conc = dict(agreement_cases())[name]
        gen = np.random.default_rng(26)
        for seed in range(50):
            inp = NULL_SENDER_INPUT if name == "custom-null" else random_input(gen)
            got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            handed.clear()
            (got,) = run_end_to_end(inp, dist, conc, mode="sampled", seed=got_gen)
            calls = handed[:]  # choice_branch's distribute calls the spy too
            want = choice_branch(inp, dist, want_gen)
            assert (got.component_index // len(conc.components), got.alice_outcome) == (
                want.component_index, want.outcomes[0]), seed
            if want.state is None:
                assert (calls, got.bob_outcomes, got.joint_prob.hex()) == ([], (), want.joint_prob.hex())
                assert got_gen.bit_generator.state == want_gen.bit_generator.state
            else:
                ((ci, party, state),) = calls
                assert ci == want.component_index
                assert np.array_equal(party, want.state.amps)
                assert state == want_gen.bit_generator.state


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
    plan = _sender_plan(dist)
    rows, raw, joint = _sender_stage(inp.to_state().amps, dist, plan)
    stacked = iter(_party_vectors(rows, raw, plan, *np.nonzero(~(raw < NULL_PROB_EPS))))
    out = []
    for (ci, a), prob, r in zip(np.ndindex(raw.shape), joint.ravel().tolist(), raw.ravel().tolist()):
        vec = None
        if not r < NULL_PROB_EPS:
            vec = _party_vectors(rows, raw, plan, np.intp(ci), np.intp(a)).tobytes()
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
        # The qubit caps are checked before any channel state is built, the
        # joint state must be normalized, and a channel whose family promises
        # 1/4 per sender outcome is refused when it does not deliver it.
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
        with pytest.raises(ValueError, match="sender joint state not normalized"):
            _sender_stage(np.array([1.0, 1.0]), dist, _sender_plan(dist))
        basis = StateVector(2, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))  # no Bell pair
        monkeypatch.setattr(protocol, "build_channel_component", lambda *args: basis)
        with pytest.raises(ValueError, match="expected 1/4"):
            distribute(InputQubit(1, 0), dist)
        with pytest.raises(ValueError, match="expected 1/4"):
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
        # One vector, for the drawn row; distribute builds every live branch's
        # in one call.
        built = []
        build = protocol._party_vectors
        monkeypatch.setattr(protocol, "_party_vectors",
                            lambda *args: built.append(np.size(args[3])) or build(*args))
        dist, conc = dict(agreement_cases())[name]
        gen = np.random.default_rng(28)
        for seed in range(10):
            inp = NULL_SENDER_INPUT if name == "custom-null" else random_input(gen)
            built.clear()
            run_end_to_end(inp, dist, conc, mode="sampled", seed=seed)
            assert built == [1]
        built.clear()
        branches = distribute(inp, dist)
        assert built == [sum(b.state is not None for b in branches)]

    @pytest.mark.parametrize("name", ["telecloning-smolin", "custom-null"])
    def test_sampled_run_builds_no_state_vector(self, name, monkeypatch):
        # InputQubit checked the input's norm when it was made and a sampled
        # run checks its drawn party vector with _check_normalized, so it
        # builds no validated StateVector; distribute builds the input's and
        # one per live branch.
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


@st.composite
def kernel_cases(draw):
    """(n, variant, a stack of b unnormalized joint states) for n = 1..6 and b = 1..5:
    generic states, staircase-like ones (a party vector on the staircase strings times a
    receiver channel), and either with exact zeros, all-zero states and tiny ones whose
    rows fall below NULL_PROB_EPS."""
    n = draw(st.integers(1, MAX_EXHAUSTIVE_PARTIES))
    b = draw(st.integers(1, 5))
    variant = draw(st.sampled_from(list(Variant)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << (2 * n + 1)
    if draw(st.booleans()):
        amps = gen.normal(size=(b, size)) + 1j * gen.normal(size=(b, size))
    else:
        parties = np.zeros((b, 1 << n), dtype=complex)
        live = [int(bits, 2) for bits in domino_support(n)]
        parties[:, live] = gen.normal(size=(b, len(live))) + 1j * gen.normal(size=(b, len(live)))
        receiver = build_channel_component(
            random_channel(Variant.DOMINO, n, Endpoint.RECEIVER_LAST, gen).components[0],
            Variant.DOMINO, Endpoint.RECEIVER_LAST, n).amps
        amps = (parties[:, :, None] * receiver).reshape(b, size)
    amps[gen.random(amps.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if draw(st.booleans()):  # one state of zeros and one whose rows are all null
        amps[gen.integers(b)] = 0.0
        amps[gen.integers(b)] *= 1e-9
    return n, variant, amps


def sign_free_bytes(x):
    """The bytes of ``x`` with -0.0 read as 0.0 (x + 0.0 changes nothing else)."""
    return (x + 0.0).tobytes()


class TestConcentrationKernels:
    # _all_pair_rows takes one (4, 4) @ (4, N) Bell-bra product per party and
    # _finish_rows applies the receiver Paulis as a permutation and phase; both
    # must give the floats of the batched product and the matrix finish they
    # replaced. A product that is exactly zero may carry the other sign of zero
    # in either form, so bytes are compared with that sign dropped; np.array_equal
    # shows the values are equal as they stand.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(kernel_cases())
    def test_kernels_match_the_forms_they_replace(self, case):
        n, variant, amps = case
        rows, want = _all_pair_rows(amps, n), batched_pair_rows(amps, n)
        assert rows.flags.c_contiguous
        assert rows.shape == want.shape
        assert np.array_equal(rows, want)
        assert sign_free_bytes(rows) == sign_free_bytes(want)
        frame, _, labels = _receiver_table(variant, n)
        paulis = np.array([PAULI_MATRICES[label] for label in labels])
        got, ref = _finish_rows(rows, frame), matrix_finish_rows(want, paulis)
        for x, y in zip(got, ref):
            assert np.array_equal(x, y)
            assert sign_free_bytes(x) == sign_free_bytes(y)

    def test_dense_rows_are_byte_identical(self):
        # Without exact zeros there is no sign of zero to differ in.
        gen = np.random.default_rng(30)
        for n in range(1, MAX_EXHAUSTIVE_PARTIES + 1):
            amps = gen.normal(size=(3, 1 << (2 * n + 1))) + 1j * gen.normal(size=(3, 1 << (2 * n + 1)))
            assert _all_pair_rows(amps, n).tobytes() == batched_pair_rows(amps, n).tobytes()

    @pytest.mark.parametrize("label", list(PauliLabel), ids=lambda p: p.value)
    def test_pauli_frame_is_the_matrix(self, label):
        perm, phase = _PAULI_FRAMES[label]
        assert np.array_equal(phase[:, None] * np.eye(2)[perm], PAULI_MATRICES[label])
        assert not perm.flags.writeable and not phase.flags.writeable


class TestNormChecks:
    # run_end_to_end checks three stacks: the distributed states, each joint
    # block and the finished receiver vectors. Each refuses an unnormalized or
    # NaN vector; only the last has null rows, and it skips them.
    @pytest.mark.parametrize("bad", [1.1, math.nan])
    def test_distributed_state(self, monkeypatch, bad):
        dist, conc = bell_pair_channels()
        scale_party_vectors(monkeypatch, bad)
        with pytest.raises(ValueError, match="distributed state not normalized"):
            run_end_to_end(InputQubit(1, 0), dist, conc)

    @pytest.mark.parametrize("bad", [1.1, math.nan])
    def test_sampled_distributed_state(self, monkeypatch, bad):
        dist, conc = bell_pair_channels()
        scale_party_vectors(monkeypatch, bad)
        with pytest.raises(ValueError, match="distributed state not normalized"):
            run_end_to_end(InputQubit(1, 0), dist, conc, mode="sampled", seed=0)

    @pytest.mark.parametrize("bad", [1.1, math.nan])
    def test_joint_state(self, bad):
        _, conc = bell_pair_channels()
        receivers = protocol._pair_plan(*bell_pair_channels())[1] * bad
        with pytest.raises(ValueError, match="joint state not normalized"):
            next(protocol._exhaustive_blocks(
                np.array([[SQ, SQ]], dtype=complex), receivers, _receiver_table(conc.variant, 1)[0], 1))

    @pytest.mark.parametrize("bad", [1.1, math.nan])
    def test_finished_receiver_state(self, bad):
        # One live row, then one null row; the phase scales the live row.
        rows = np.array([[[SQ, SQ], [0.0, 0.0]]], dtype=complex)
        with pytest.raises(ValueError, match="concentrated receiver state not normalized"):
            _finish_rows(rows, (np.arange(4), np.array([bad, bad, 1.0, 1.0])))

    @pytest.mark.parametrize("bad", [1.1, math.nan])
    def test_finished_null_rows_are_skipped(self, bad):
        rows = np.array([[[SQ, SQ], [0.0, 0.0]]], dtype=complex)
        raw, vecs = _finish_rows(rows, (np.arange(4), np.array([1.0, 1.0, bad, bad])))
        assert np.allclose(raw, [[1.0, 0.0]])
        assert np.allclose(vecs[0, 0], [SQ, SQ])

    def test_skip_mask(self):
        vecs = np.array([[1.0, 0.0], [2.0, 0.0], [math.nan, 0.0]], dtype=complex)
        protocol._check_normalized(vecs, "stack", skip=np.array([False, True, True]))
        for skip in (False, np.array([False, False, True]), np.array([False, True, False])):
            with pytest.raises(ValueError, match="stack not normalized"):
                protocol._check_normalized(vecs, "stack", skip=skip)

    def test_nan_and_tolerance_edges(self):
        # A NaN norm fails unless its row is masked; a norm just inside
        # 1 +- NORM_ATOL passes and one just past it fails, on either side.
        check = protocol._check_normalized
        nan_row = np.array([[1.0, 0.0], [math.nan, 0.0]], dtype=complex)
        check(nan_row, "stack", skip=np.array([False, True]))
        for skip in (None, np.array([True, False])):
            with pytest.raises(ValueError, match="stack not normalized"):
                check(nan_row, "stack", skip=skip)
        for sign in (1.0, -1.0):
            check(np.array([[math.sqrt(1.0 + sign * 0.9 * NORM_ATOL), 0.0]], dtype=complex), "stack")
            with pytest.raises(ValueError, match="stack not normalized"):
                check(np.array([[1.0, 0.0], [math.sqrt(1.0 + sign * 1.1 * NORM_ATOL), 0.0]], dtype=complex), "stack")


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

    @pytest.mark.parametrize("n", [2, 5])
    def test_block_size_leaves_rows_unchanged(self, n, monkeypatch):
        # A block holds whole states' worth of receiver components, so a
        # three-component mixture fills blocks unevenly; every report must be
        # the same floats as with one joint state per block.
        gen = np.random.default_rng(35 + n)
        comps = [dict(random_channel(Variant.DOMINO, n, Endpoint.RECEIVER_LAST, gen).components[0].coeffs)
                 for _ in range(3)]
        conc = mixed_channel(Variant.DOMINO, n, Endpoint.RECEIVER_LAST, list(zip((0.2, 0.3, 0.5), comps)))
        dist = random_channel(Variant.DOMINO, n, Endpoint.SENDER_FIRST, gen)
        inp = random_input(gen)
        stacked = [report_fields(r) for r in run_end_to_end(inp, dist, conc)]
        monkeypatch.setattr(protocol, "_BLOCK_AMPS", 2 << (2 * n))
        assert [report_fields(r) for r in run_end_to_end(inp, dist, conc)] == stacked


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


def report_fields(r):
    """A report's fields, floats as exact hex strings."""
    return (r.component_index, r.alice_outcome, r.bob_outcomes, r.correction, r.joint_prob.hex(),
            None if r.fidelity is None else r.fidelity.hex())


class TestSampledLiveStrings:
    # Sampled trajectories hold the joint state on its live party and
    # channel strings; they must equal the dense trajectory bit for bit.
    @pytest.mark.parametrize("name", [name for name, _ in sampled_cases()])
    def test_matches_dense_trajectory(self, name):
        dist, conc = dict(sampled_cases())[name]
        gen = np.random.default_rng(23)
        components = set()
        for seed in range(10):
            inp = NULL_SENDER_INPUT if name == "custom-null" else random_input(gen)
            fast = run_end_to_end(inp, dist, conc, mode="sampled", seed=seed)
            slow = dense_sampled(inp, dist, conc, seed)
            assert [report_fields(r) for r in fast] == [report_fields(r) for r in slow], seed
            components.add(fast[0].component_index)
        if len(dist.components) * len(conc.components) > 1:
            assert len(components) > 1  # the draws reach more than one component pair

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.data())
    def test_live_step_matches_dense_rows(self, n, data):
        # Every step of a plan gives the dense pair_rows rows exactly, at the
        # keys it leaves, with zeros everywhere else, whichever outcome the
        # trajectory goes on with. Channel keys come in receiver-bit pairs, as
        # _pair_plan's live keys keep them.
        masks = [data.draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n)
                           .filter(any)) for _ in range(2)]
        pkeys = np.flatnonzero(masks[0])
        ckeys = (2 * np.flatnonzero(masks[1])[:, None] + np.arange(2)).ravel()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        mat = rng.normal(size=(len(pkeys), len(ckeys))) + 1j * rng.normal(size=(len(pkeys), len(ckeys)))
        mat[rng.random(mat.shape) < data.draw(st.floats(0.0, 1.0))] = 0.0
        dense = np.zeros((1 << n, 1 << (n + 1)), dtype=complex)
        dense[np.ix_(pkeys, ckeys)] = mat
        plan = _step_plan(pkeys.tobytes(), ckeys.tobytes(), n)
        assert len(plan) == n
        for bits, step in zip(range(n, 0, -1), plan):
            want = pair_rows(dense.ravel(), 2 * bits + 1, 1, bits + 1)
            rows = _live_pair_rows(mat, step)
            _, pleft, cleft = step
            assert pleft.tolist() == sorted({k % (1 << (bits - 1)) for k in pkeys.tolist()})
            assert cleft.tolist() == sorted({k % (1 << bits) for k in ckeys.tolist()})
            got = np.zeros((4, 1 << (bits - 1), 1 << bits), dtype=complex)
            got[:, pleft[:, None], cleft] = rows.reshape(4, len(pleft), len(cleft))
            assert np.array_equal(got.reshape(4, -1), want)
            k = data.draw(st.integers(0, 3))
            mat, dense = rows[k].reshape(len(pleft), len(cleft)), want[k].reshape(1 << (bits - 1), -1)
            pkeys, ckeys = pleft, cleft

    def test_fewer_live_strings_get_their_own_plan(self):
        # Plans are keyed by the live strings a trajectory starts on, so an
        # input of |0> or a zero channel coefficient gets a plan of its own and
        # still matches the dense trajectory bit for bit.
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
            _step_plan.cache_clear()
            plans = []
            for args in (before, after):
                for seed in range(5):
                    fast = run_end_to_end(*args, mode="sampled", seed=seed)
                    assert [report_fields(r) for r in fast] == [
                        report_fields(r) for r in dense_sampled(*args, seed)], seed
                plans.append(_step_plan.cache_info().currsize)
            assert plans[1] > plans[0]

    def test_plan_cache_stays_bounded(self):
        # More distinct starts than the cache holds evict old plans; the cache
        # never grows past its bound.
        maxsize = _step_plan.cache_info().maxsize
        assert maxsize is not None
        ckeys = np.arange(8)
        for start in range(1, maxsize + 5):
            _step_plan(np.flatnonzero([start >> b & 1 for b in range(4)]).tobytes(), ckeys.tobytes(), 2)
            assert _step_plan.cache_info().currsize <= maxsize
        assert _step_plan.cache_info().currsize == maxsize

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
