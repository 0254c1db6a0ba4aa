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
    as_rng,
    _born_draw,
    _born_pick,
    bell_vector,
)
from qrelay.statevec import StateVector

from conftest import equal_up_to_phase, random_state
from dense_reference import apply_single_qubit, make_basis_state, pair_rows, project_bell, tensor

SQ = 1 / np.sqrt(2)


class TestBellBasis:
    def test_outcome_order_and_values(self):
        assert [o.value for o in BELL_OUTCOMES] == ["phi+", "psi+", "psi-", "phi-"]
        assert [o.index for o in BELL_OUTCOMES] == [0, 1, 2, 3]

    def test_vector_components(self):
        assert np.allclose(bell_vector(BellOutcome.PHI_PLUS).amps, [SQ, 0, 0, SQ])
        assert np.allclose(bell_vector(BellOutcome.PSI_PLUS).amps, [0, SQ, SQ, 0])
        assert np.allclose(bell_vector(BellOutcome.PSI_MINUS).amps, [0, SQ, -SQ, 0])
        assert np.allclose(bell_vector(BellOutcome.PHI_MINUS).amps, [SQ, 0, 0, -SQ])

    def test_orthonormal(self):
        vecs = [bell_vector(o).amps for o in BELL_OUTCOMES]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_correction_map(self):
        assert CORRECTION_FOR_OUTCOME[BellOutcome.PHI_PLUS] is PauliLabel.I
        assert CORRECTION_FOR_OUTCOME[BellOutcome.PSI_PLUS] is PauliLabel.X
        assert CORRECTION_FOR_OUTCOME[BellOutcome.PSI_MINUS] is PauliLabel.Y
        assert CORRECTION_FOR_OUTCOME[BellOutcome.PHI_MINUS] is PauliLabel.Z


class TestProjectBell:
    def test_known_projection(self):
        # <phi+|00> = 1/sqrt(2): probability 1/2, nothing left to hold.
        post, prob = project_bell(make_basis_state("00"), 1, 2, BellOutcome.PHI_PLUS)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert post.num_qubits == 0
        assert post.amps[0] == pytest.approx(1.0)

    def test_null_branch_returns_none(self):
        post, prob = project_bell(make_basis_state("00"), 1, 2, BellOutcome.PSI_PLUS)
        assert post is None
        assert prob == pytest.approx(0.0, abs=1e-14)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        state = StateVector(4, random_state(rng, 4))
        for q1, q2 in [(1, 2), (1, 4), (2, 3)]:
            total = sum(project_bell(state, q1, q2, o)[1] for o in BELL_OUTCOMES)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_reconstruction_identity(self):
        # When the measured pair leads the register, the state must equal
        # sum_k bell_k tensor sqrt(p_k) * post_k.
        rng = np.random.default_rng(15)
        state = StateVector(3, random_state(rng, 3))
        rebuilt = np.zeros_like(state.amps)
        for o in BELL_OUTCOMES:
            post, prob = project_bell(state, 1, 2, o)
            if post is None:
                continue
            rebuilt += np.kron(bell_vector(o).amps, np.sqrt(prob) * post.amps)
        assert np.allclose(rebuilt, state.amps, atol=1e-10)

    def test_pair_validation(self):
        state = make_basis_state("000")
        with pytest.raises(ValueError):
            project_bell(state, 2, 2, BellOutcome.PHI_PLUS)
        with pytest.raises(ValueError):
            project_bell(state, 0, 1, BellOutcome.PHI_PLUS)
        with pytest.raises(ValueError):
            project_bell(state, 1, 4, BellOutcome.PHI_PLUS)


class TestMeasureSampled:
    # _born_draw is the Born-rule pick behind every sampled draw; here it picks
    # one pair's outcome from the squared norms of its four rows, taken from the
    # dense pair_rows.
    @staticmethod
    def sample_pair(amps, num_qubits, q1, q2, gen):
        rows = pair_rows(amps, num_qubits, q1, q2)
        k = _born_draw(np.einsum("kr,kr->k", rows.conj(), rows).real, gen)
        return None if k is None else (k, rows[k])

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(5)
        amps = random_state(rng, 3)
        a = self.sample_pair(amps, 3, 1, 2, np.random.default_rng(77))
        b = self.sample_pair(amps, 3, 1, 2, np.random.default_rng(77))
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_sampled_state_matches_projection(self):
        rng = np.random.default_rng(6)
        state = StateVector(2, random_state(rng, 2))
        k, row = self.sample_pair(state.amps, 2, 1, 2, np.random.default_rng(3))
        want, prob = project_bell(state, 1, 2, BELL_OUTCOMES[k])
        # The row stays unnormalized: its squared norm is the outcome's probability.
        assert float(np.vdot(row, row).real) == pytest.approx(prob, abs=1e-12)
        assert np.allclose(row / np.linalg.norm(row), want.amps)

    def test_frequencies_track_probabilities(self):
        rng = np.random.default_rng(10)
        state = StateVector(2, random_state(rng, 2))
        probs = [project_bell(state, 1, 2, o)[1] for o in BELL_OUTCOMES]
        gen = np.random.default_rng(123)
        draws = 20000
        counts = [0] * 4
        for _ in range(draws):
            k, _ = self.sample_pair(state.amps, 2, 1, 2, gen)
            counts[k] += 1
        for k in range(4):
            assert counts[k] / draws == pytest.approx(probs[k], abs=0.01)

    def test_accepts_int_seed(self):
        # An int seed goes through as_rng; the null outcomes psi+/psi- of |00>
        # are never drawn.
        k, _ = self.sample_pair(make_basis_state("00").amps, 2, 1, 2, as_rng(4))
        assert BELL_OUTCOMES[k] in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
        assert self.sample_pair(np.zeros(4, dtype=complex), 2, 1, 2, as_rng(4)) is None


# Weights around NULL_PROB_EPS, exact zeros and ordinary magnitudes.
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, NULL_PROB_EPS / 10, NULL_PROB_EPS, NULL_PROB_EPS * 10, 1.0]),
    st.floats(0.0, 1.0),
)




def _long_weights(seed):
    """512 weights, as many as a sampled draw's bit strings at n = 9, from one seed: a drawn
    share of them are _WEIGHTS' fixed values, the rest uniform (a hypothesis list of 512
    floats takes seconds to draw)."""
    rng = np.random.default_rng(seed)
    weights = rng.random(512)
    fixed = rng.random(512) < rng.random()
    weights[fixed] = rng.choice([0.0, NULL_PROB_EPS / 10, NULL_PROB_EPS, NULL_PROB_EPS * 10, 1.0], size=fixed.sum())
    return weights.tolist()


# Weights for a pick: up to 16 from _WEIGHTS (a pair's four outcomes, sender rows, mixtures), or 512.
_PICK_WEIGHTS = st.one_of(st.lists(_WEIGHTS, min_size=1, max_size=16), st.integers(0, 2**32 - 1).map(_long_weights))


class TestBornPick:
    # _born_pick stands in for Generator.choice(len(p), p=p) in every sampled
    # draw; reports stay bit-identical only while it picks the same index and
    # leaves the generator in the same state.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        _PICK_WEIGHTS.filter(lambda w: sum(w) > 0.0),
        st.sampled_from([1, 2, 4, 16, 512]).flatmap(lambda k: st.integers(0, k - 1).map(
            lambda hot: [float(i == hot) for i in range(k)])),  # one-hot
    ), st.integers(0, 2**32 - 1))
    def test_matches_generator_choice(self, weights, seed):
        w = np.array(weights)
        p = w / w.sum()
        got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _born_pick(p, got_gen)
        assert type(got) is int
        assert got == int(want_gen.choice(len(p), p=p))
        assert _born_pick(p.tolist(), np.random.default_rng(seed)) == got
        assert got_gen.random() == want_gen.random()

    @pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [1.2, -0.2], [0.5, 0.4], [0.5, 0.6], [np.inf, 0.0],
                                   [1 / 512] * 511 + [np.nan], [0.5] + [-0.5 / 511] * 511 + [1.0]])
    def test_refuses_what_choice_refuses(self, p):
        p = np.array(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(p), p=p)
        with pytest.raises(ValueError):
            _born_pick(p, np.random.default_rng(0))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_PICK_WEIGHTS, st.integers(0, 2**32 - 1))
    def test_born_draw_matches_generator_choice(self, weights, seed):
        # _born_draw floors, sums and normalizes; it must pick what
        # Generator.choice(len(p), p=...) picks on the floored, normalized
        # probabilities, entries near NULL_PROB_EPS and all-null ones included,
        # and leave the generator where choice does.
        got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        probs = np.array(weights)
        got = _born_draw(probs, got_gen)
        probs[probs < NULL_PROB_EPS] = 0.0
        want = None if probs.sum() <= 0.0 else int(want_gen.choice(len(probs), p=probs / probs.sum()))
        assert got == want
        assert got is None or type(got) is int
        assert got_gen.random() == want_gen.random()

    def test_nan_rows_raise(self):
        with pytest.raises(ValueError):
            _born_draw(np.full(512, np.nan), np.random.default_rng(0))

    def test_one_nan_row_raises(self):
        # A NaN entry passes the floor and the sum, and _born_pick refuses it.
        probs = np.full(512, 1 / 512)
        probs[200] = np.nan
        with pytest.raises(ValueError):
            _born_draw(probs, np.random.default_rng(0))


class TestTeleportationIdentity:
    """Projecting (input tensor bell pair) on pair (1,2) and applying the
    outcome's correction to the survivor must always return the input."""

    @pytest.mark.parametrize("outcome", BELL_OUTCOMES, ids=lambda o: o.value)
    def test_each_outcome(self, outcome):
        rng = np.random.default_rng(outcome.index + 40)
        inp = StateVector(1, random_state(rng, 1))
        joint = tensor(inp, bell_vector(BellOutcome.PHI_PLUS))
        post, prob = project_bell(joint, 1, 2, outcome)
        assert prob == pytest.approx(0.25, abs=1e-12)
        label = CORRECTION_FOR_OUTCOME[outcome]
        fixed = apply_single_qubit(post, 1, PAULI_MATRICES[label])
        assert equal_up_to_phase(fixed.amps, inp.amps)
