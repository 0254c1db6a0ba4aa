import dataclasses
import inspect
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrelay.verify as verify_mod

from qrelay.bell import BELL_OUTCOMES, BellOutcome, PauliLabel, as_rng, bell_vector
from qrelay.channels import (
    Endpoint,
    Variant,
    ghz_channel,
    mixed_channel,
    pure_channel,
    random_channel,
    smolin_channel,
    telecloning_channel,
)
from qrelay.protocol import (
    MAX_EXHAUSTIVE_PARTIES,
    InputQubit,
    OutcomeReport,
    concentration_correction,
    distribute,
    random_input,
    run_end_to_end,
)
from qrelay.statevec import CapacityError
from qrelay.verify import (
    CLONE_TARGET,
    EVEN_N_FID_CEILING,
    FAITHFUL_TOL,
    MAX_EVEN_N_WITNESSES,
    MAX_WITNESSES,
    ORACLE_TOL,
    WITNESS_PROB_FLOOR,
    Verdict,
    check_faithful,
    clone_fidelity_verdict,
    clone_report,
    domino_correction_by_counter,
    even_n_counterexample,
    oracle_agreement,
    run_suite,
    verify_smolin,
)

from conftest import equal_up_to_phase
from dense_reference import (
    bra_matrix,
    concentration_branch,
    distribution_branch,
    kron_dist_gate,
    reference_even_n,
    reference_oracle_agreement,
)

SQ = 1 / np.sqrt(2)

PHI_P, PSI_P, PSI_M, PHI_M = BELL_OUTCOMES


def with_nan_fidelity(evaluate):
    """The evaluator with the first non-null report's fidelity set to NaN."""

    def tampered(*args, **kwargs):
        reports = evaluate(*args, **kwargs)
        i = next(i for i, r in enumerate(reports) if r.fidelity is not None)
        reports[i] = dataclasses.replace(reports[i], fidelity=math.nan)
        return reports

    return tampered


class TestBraMatrix:
    def test_two_qubit_rows_are_bell_bras(self):
        for o in BELL_OUTCOMES:
            mat = bra_matrix(2, 1, 2, o.index)
            assert mat.shape == (1, 4)
            assert np.allclose(mat[0], bell_vector(o).amps.conj())

    def test_projection_prob_consistency(self):
        rng = np.random.default_rng(2)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        for q1, q2 in [(1, 2), (2, 4), (1, 3)]:
            total = sum(
                float(np.linalg.norm(bra_matrix(4, q1, q2, o.index) @ vec) ** 2)
                for o in BELL_OUTCOMES
            )
            assert total == pytest.approx(1.0, abs=1e-10)


def branch_maps(senders, comp, variant, n):
    """The oracle's (4, 4^n, 2, 2) branch maps of ``senders`` through one
    receiver component."""
    receiver = verify_mod.build_channel_component(comp, variant, Endpoint.RECEIVER_LAST, n)
    return verify_mod._branch_maps(
        senders, receiver.amps.reshape(-1, 2), verify_mod._receiver_gates(variant, n), n)


def normalized(vec):
    raw = float(np.vdot(vec, vec).real)
    return raw, vec / np.sqrt(raw)


class TestOracleBranches:
    # The oracle's maps, read one branch at a time, against the dense
    # per-branch reference.
    def test_distribution_teleportation(self):
        spec = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        inp = np.array([0.6, 0.8j])
        maps = verify_mod._sender_maps(spec.components[0], spec.variant, 1)
        for o in BELL_OUTCOMES:
            raw, vec = normalized(maps[o.index] @ inp)
            raw_ref, vec_ref = distribution_branch(inp, spec.components[0], spec.variant, 1, o)
            assert raw == pytest.approx(0.25, abs=1e-12)
            assert raw == pytest.approx(raw_ref, abs=1e-15)
            assert np.allclose(vec, vec_ref, atol=1e-15)
            assert equal_up_to_phase(vec, inp)

    def test_concentration_teleportation(self):
        # Sender maps whose columns are the party vector itself make the
        # branch maps the concentration step alone.
        spec = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        bobs = np.array([0.6, 0.8j])
        senders = np.broadcast_to(np.stack([bobs, bobs], axis=1), (4, 2, 2))
        maps = branch_maps(senders, spec.components[0], spec.variant, 1)
        for o in BELL_OUTCOMES:
            raw, vec = normalized(maps[0, o.index] @ np.array([1.0, 0.0]))
            raw_ref, vec_ref = concentration_branch(bobs, spec.components[0], spec.variant, 1, (o,))
            assert raw == pytest.approx(0.25, abs=1e-12)
            assert raw == pytest.approx(raw_ref, abs=1e-15)
            assert np.allclose(vec, vec_ref, atol=1e-15)
            assert equal_up_to_phase(vec, bobs)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_concentration_maps_match_dense_branches(self, variant):
        gen = np.random.default_rng(8)
        comp = random_channel(variant, 2, Endpoint.RECEIVER_LAST, gen).components[0]
        columns = gen.normal(size=(4, 2)) + 1j * gen.normal(size=(4, 2))
        columns /= np.linalg.norm(columns, axis=0)
        maps = branch_maps(np.broadcast_to(columns, (4, 4, 2)), comp, variant, 2)
        for k, tup in enumerate(itertools.product(BELL_OUTCOMES, repeat=2)):
            for x in range(2):
                raw, vec = normalized(maps[0, k][:, x])
                raw_ref, vec_ref = concentration_branch(columns[:, x], comp, variant, 2, tup)
                assert raw == pytest.approx(raw_ref, abs=1e-15)
                assert np.allclose(vec, vec_ref, atol=1e-14)

    def test_null_branch_gives_none(self):
        # A single-support custom channel in |+>|+> form nulls psi- exactly.
        spec = pure_channel(Variant.CUSTOM, 1, {"0": SQ, "1": SQ}, Endpoint.SENDER_FIRST)
        inp = np.array([SQ, SQ])
        vec = verify_mod._sender_maps(spec.components[0], spec.variant, 1)[PSI_M.index] @ inp
        raw_ref, vec_ref = distribution_branch(inp, spec.components[0], spec.variant, 1, PSI_M)
        assert float(np.vdot(vec, vec).real) <= 1e-14
        assert vec_ref is None and raw_ref <= 1e-14

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_dist_gates_are_the_kron_products(self, variant):
        # Every check and sender component shares the cached gates, so they
        # must be read-only and exactly the products each call used to build.
        for n in range(1, MAX_EXHAUSTIVE_PARTIES + 1):
            gates = verify_mod._dist_gates(variant, n)
            assert gates is verify_mod._dist_gates(variant, n)
            assert not gates.flags.writeable
            assert gates.shape == (4, 1 << n, 1 << n)
            for o in BELL_OUTCOMES:
                assert gates[o.index].tobytes() == kron_dist_gate(variant, o, n).tobytes()


class TestCheckFaithful:
    def test_teleportation_chain(self):
        dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        v = check_faithful(dist, conc, trials=20, seed=0)
        assert v.passed
        assert v.worst_deviation < 1e-12
        assert v.witnesses == ()

    def test_parity_three_random(self):
        gen = np.random.default_rng(1)
        dist = random_channel(Variant.PARITY, 3, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.PARITY, 3, Endpoint.RECEIVER_LAST, gen)
        v = check_faithful(dist, conc, trials=5, seed=2)
        assert v.passed
        assert v.claim_id == "faithful-parity-n3"
        assert v.details["branches_checked"] > 0

    def test_domino_four_random(self):
        gen = np.random.default_rng(3)
        dist = random_channel(Variant.DOMINO, 4, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.DOMINO, 4, Endpoint.RECEIVER_LAST, gen)
        v = check_faithful(dist, conc, trials=3, seed=4)
        assert v.passed

    def test_verdict_invariant(self):
        gen = np.random.default_rng(5)
        dist = random_channel(Variant.PARITY, 2, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.PARITY, 2, Endpoint.RECEIVER_LAST, gen)
        # Even-party parity channels genuinely fail, so this verdict fails.
        v = check_faithful(dist, conc, trials=3, seed=6)
        assert v.passed == (v.worst_deviation <= v.tolerance)
        assert not v.passed
        assert v.witnesses

    def test_forced_tolerance_failure(self):
        dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        v = check_faithful(dist, conc, trials=2, seed=0, tolerance=1e-18)
        assert not v.passed

    def test_zero_trials_fail(self):
        dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        v = check_faithful(dist, conc, trials=0, seed=0)
        assert v.details["branches_checked"] == 0
        assert not v.passed

    def test_capacity_cap(self):
        dist = ghz_channel(MAX_EXHAUSTIVE_PARTIES + 1, Endpoint.SENDER_FIRST)
        conc = ghz_channel(MAX_EXHAUSTIVE_PARTIES + 1, Endpoint.RECEIVER_LAST)
        with pytest.raises(CapacityError):
            check_faithful(dist, conc, trials=1, seed=0)

    def test_nan_fidelity_fails(self, monkeypatch):
        # max(worst, nan) is worst, so a NaN deviation must be carried
        # explicitly into the verdict.
        monkeypatch.setattr(verify_mod, "run_end_to_end", with_nan_fidelity(verify_mod.run_end_to_end))
        dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        v = check_faithful(dist, conc, trials=2, seed=0)
        assert not v.passed
        assert math.isnan(v.worst_deviation)
        assert any(math.isnan(w.fidelity) for w in v.witnesses)

    def test_seed_reproducibility(self):
        gen1 = np.random.default_rng(9)
        gen2 = np.random.default_rng(9)
        dist1 = random_channel(Variant.DOMINO, 2, Endpoint.SENDER_FIRST, gen1)
        conc1 = random_channel(Variant.DOMINO, 2, Endpoint.RECEIVER_LAST, gen1)
        dist2 = random_channel(Variant.DOMINO, 2, Endpoint.SENDER_FIRST, gen2)
        conc2 = random_channel(Variant.DOMINO, 2, Endpoint.RECEIVER_LAST, gen2)
        assert check_faithful(dist1, conc1, trials=3, seed=8) == check_faithful(
            dist2, conc2, trials=3, seed=8)


def reference_check_faithful(dist, conc, trials, seed, tolerance=FAITHFUL_TOL):
    """check_faithful's (worst_deviation, details, witnesses) from a plain
    loop over the reports of the same run_end_to_end binding."""

    def worse(a, b):
        return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)

    gen = as_rng(seed)
    worst = prob_gap = 0.0
    checked = 0
    witnesses = []
    for _ in range(trials):
        reports = verify_mod.run_end_to_end(random_input(gen), dist, conc, mode="exhaustive")
        prob_gap = worse(prob_gap, abs(sum(r.joint_prob for r in reports) - 1.0))
        for r in reports:
            if r.fidelity is None:
                continue
            checked += 1
            dev = abs(1.0 - r.fidelity)
            if not dev <= tolerance and len(witnesses) < MAX_WITNESSES:
                witnesses.append(r)
            worst = worse(worst, dev)
    details = {"trials": trials, "branches_checked": checked, "max_prob_gap": prob_gap}
    return worse(worst, prob_gap), details, witnesses


class TestCheckFaithfulMatchesReferenceLoop:
    # repr compares floats exactly and treats NaN as equal to itself.
    def assert_matches_reference(self, dist, conc, trials, seed):
        v = check_faithful(dist, conc, trials=trials, seed=seed)
        worst, details, witnesses = reference_check_faithful(dist, conc, trials, seed)
        assert repr(v.worst_deviation) == repr(worst)
        assert repr(v.details) == repr(details)
        assert [repr(w) for w in v.witnesses] == [repr(w) for w in witnesses]
        return v

    def test_faithful_domino_four(self):
        gen = np.random.default_rng(3)
        dist = random_channel(Variant.DOMINO, 4, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.DOMINO, 4, Endpoint.RECEIVER_LAST, gen)
        v = self.assert_matches_reference(dist, conc, trials=3, seed=4)
        assert v.passed and v.witnesses == ()

    def test_failing_parity_two_reaches_witness_cap(self):
        gen = np.random.default_rng(5)
        dist = random_channel(Variant.PARITY, 2, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.PARITY, 2, Endpoint.RECEIVER_LAST, gen)
        v = self.assert_matches_reference(dist, conc, trials=3, seed=6)
        assert not v.passed and len(v.witnesses) == MAX_WITNESSES

    def test_nan_fidelity(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "run_end_to_end", with_nan_fidelity(verify_mod.run_end_to_end))
        dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        v = self.assert_matches_reference(dist, conc, trials=2, seed=0)
        assert math.isnan(v.worst_deviation) and len(v.witnesses) == 2


class TestOracleAgreement:
    @pytest.mark.parametrize("variant", [Variant.PARITY, Variant.DOMINO],
                             ids=lambda v: v.value)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_channels(self, variant, n):
        gen = np.random.default_rng(10 * n + variant.value.__hash__() % 7)
        dist = random_channel(variant, n, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(variant, n, Endpoint.RECEIVER_LAST, gen)
        v = oracle_agreement(dist, conc, trials=2, seed=n)
        assert v.passed, v.worst_deviation
        assert v.details["branches_compared"] == 2 * 4 ** (n + 1)

    def test_mixed_concentration_channel(self):
        v = oracle_agreement(telecloning_channel(), smolin_channel(), trials=2, seed=1)
        assert v.passed
        assert v.details["branches_compared"] == 2 * 4 * 4 * 64

    @pytest.mark.parametrize("variant", [Variant.PARITY, Variant.DOMINO],
                             ids=lambda v: v.value)
    def test_four_parties(self, variant):
        gen = np.random.default_rng(40)
        dist = random_channel(variant, 4, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(variant, 4, Endpoint.RECEIVER_LAST, gen)
        v = oracle_agreement(dist, conc, trials=1, seed=4)
        assert v.passed, v.worst_deviation
        assert v.details["branches_compared"] == 4 ** 5

    @pytest.mark.parametrize("variant, n", [(Variant.PARITY, 5), (Variant.DOMINO, 6)],
                             ids=["parity-n5", "domino-n6"])
    def test_up_to_the_exhaustive_cap(self, variant, n):
        gen = np.random.default_rng(50 + n)
        dist = random_channel(variant, n, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(variant, n, Endpoint.RECEIVER_LAST, gen)
        v = oracle_agreement(dist, conc, trials=1, seed=n)
        assert v.passed, v.worst_deviation
        assert v.details["branches_compared"] == 4 ** (n + 1)

    def test_zero_trials_fail(self):
        dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        v = oracle_agreement(dist, conc, trials=0, seed=0)
        assert v.details["branches_compared"] == 0
        assert not v.passed

    def test_reversed_branch_order_fails(self, monkeypatch):
        # On Bell-pair channels every branch has probability 1/16 and
        # fidelity 1, so only the order check can notice the reversal.
        import qrelay.verify as verify_mod

        evaluate = verify_mod.run_end_to_end
        monkeypatch.setattr(verify_mod, "run_end_to_end",
                            lambda *args, **kwargs: evaluate(*args, **kwargs)[::-1])
        dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        v = oracle_agreement(dist, conc, trials=1, seed=0)
        assert not v.passed
        assert v.worst_deviation == 1.0

    @pytest.mark.parametrize("change", ["drop", "extra"])
    def test_missing_or_extra_branch_fails(self, monkeypatch, change):
        import qrelay.verify as verify_mod

        evaluate = verify_mod.run_end_to_end

        def tampered(*args, **kwargs):
            reports = evaluate(*args, **kwargs)
            return reports[:-1] if change == "drop" else reports + reports[-1:]

        monkeypatch.setattr(verify_mod, "run_end_to_end", tampered)
        dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        v = oracle_agreement(dist, conc, trials=1, seed=0)
        assert not v.passed
        assert v.worst_deviation == 1.0

    def test_nan_fidelity_fails(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "run_end_to_end", with_nan_fidelity(verify_mod.run_end_to_end))
        dist = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        v = oracle_agreement(dist, conc, trials=1, seed=0)
        assert not v.passed
        assert math.isnan(v.worst_deviation)

    def test_deviating_null_sender_branch_is_a_witness(self, monkeypatch):
        # With input |+> the |+>|+> channel nulls the psi- sender branch; an
        # evaluator that gives that branch a fidelity must be named.
        monkeypatch.setattr(verify_mod, "random_input", lambda gen: InputQubit(SQ, SQ))
        evaluate = verify_mod.run_end_to_end

        def tampered(*args, **kwargs):
            reports = evaluate(*args, **kwargs)
            i = next(i for i, r in enumerate(reports) if r.alice_outcome is PSI_M)
            if reports[i].bob_outcomes != () or reports[i].fidelity is not None:
                raise AssertionError(f"psi- sender branch is not null: {reports[i]}")
            reports[i] = dataclasses.replace(reports[i], fidelity=1.0)
            return reports

        monkeypatch.setattr(verify_mod, "run_end_to_end", tampered)
        dist = pure_channel(Variant.CUSTOM, 1, {"0": SQ, "1": SQ}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        v = oracle_agreement(dist, conc, trials=1, seed=0)
        assert not v.passed
        assert v.worst_deviation == 1.0
        assert [(w.alice_outcome, w.bob_outcomes, w.fidelity) for w in v.witnesses] == [(PSI_M, (), 1.0)]

    def test_agreement_holds_even_when_unfaithful(self):
        gen = np.random.default_rng(11)
        dist = random_channel(Variant.PARITY, 2, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.PARITY, 2, Endpoint.RECEIVER_LAST, gen)
        v = oracle_agreement(dist, conc, trials=2, seed=12)
        assert v.passed


def assert_matches_reference(dist, conc, trials, seed, tolerance=ORACLE_TOL):
    """The support-pair oracle and the dense per-branch reference give the
    same verdict over the same branches, and where the reference passes both
    worst deviations are within ORACLE_TOL. Their floats differ in the last
    bits, because the two sum the same terms in different orders."""
    v = oracle_agreement(dist, conc, trials=trials, seed=seed, tolerance=tolerance)
    ref = reference_oracle_agreement(dist, conc, trials, seed, tolerance)
    assert v.passed == ref.passed
    assert v.details == ref.details
    if ref.passed:
        assert v.worst_deviation <= ORACLE_TOL and ref.worst_deviation <= ORACLE_TOL
    return v, ref


def random_pair(variant, n, seed):
    gen = np.random.default_rng(seed)
    return (random_channel(variant, n, Endpoint.SENDER_FIRST, gen),
            random_channel(variant, n, Endpoint.RECEIVER_LAST, gen))


SMALL_CASES = [(variant, n, seed) for variant in (Variant.PARITY, Variant.DOMINO)
               for n in (1, 2, 3, 4) for seed in ((60, 61) if n < 4 else (60,))]


class TestOracleMatchesPerBranchLoop:
    @pytest.mark.parametrize("variant", [Variant.PARITY, Variant.DOMINO], ids=lambda v: v.value)
    def test_random_three_parties(self, variant):
        gen = np.random.default_rng(31)
        dist = random_channel(variant, 3, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(variant, 3, Endpoint.RECEIVER_LAST, gen)
        v, _ = assert_matches_reference(dist, conc, trials=2, seed=3)
        assert v.passed

    def test_telecloning_smolin(self):
        v, _ = assert_matches_reference(telecloning_channel(), smolin_channel(), trials=1, seed=2)
        assert v.passed

    def test_failing_parity_two_reaches_witness_cap(self):
        # At tolerance 0 every last-bit difference between the evaluator and
        # either oracle deviates, which fills both witness lists.
        gen = np.random.default_rng(5)
        dist = random_channel(Variant.PARITY, 2, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.PARITY, 2, Endpoint.RECEIVER_LAST, gen)
        v, ref = assert_matches_reference(dist, conc, trials=2, seed=0, tolerance=0.0)
        assert not v.passed
        assert len(v.witnesses) == len(ref.witnesses) == MAX_WITNESSES

    @pytest.mark.parametrize("variant, n, seed", SMALL_CASES,
                             ids=[f"{v.value}-n{n}-{s}" for v, n, s in SMALL_CASES])
    def test_random_pairs(self, variant, n, seed):
        # Agreement holds whether or not the pair is faithful (even parity).
        v, _ = assert_matches_reference(*random_pair(variant, n, seed), trials=1, seed=seed)
        assert v.passed

    def test_custom_null_sender_branches(self, monkeypatch):
        # For the |+> input the first sender component nulls psi- and phi-,
        # so null sender records fall between live branches.
        monkeypatch.setattr(verify_mod, "random_input", lambda gen: InputQubit(SQ, SQ))
        dist = mixed_channel(Variant.CUSTOM, 2, Endpoint.SENDER_FIRST,
                             [(0.5, {"00": SQ, "11": SQ}), (0.5, {"01": 0.6, "10": 0.8})])
        conc = mixed_channel(Variant.CUSTOM, 2, Endpoint.RECEIVER_LAST,
                             [(0.4, {"00": 1.0}), (0.6, {"01": SQ, "10": SQ})])
        v, _ = assert_matches_reference(dist, conc, trials=2, seed=0)
        assert v.passed
        assert v.details["branches_compared"] == 2 * (2 + 6 * 2 * 16)

    def test_mixed_on_both_sides(self):
        gen = np.random.default_rng(62)
        dist = mixed_channel(Variant.DOMINO, 3, Endpoint.SENDER_FIRST, [
            (0.3, random_channel(Variant.DOMINO, 3, Endpoint.SENDER_FIRST, gen).components[0].coeffs),
            (0.7, {"000": 1.0})])
        conc = mixed_channel(Variant.DOMINO, 3, Endpoint.RECEIVER_LAST, [
            (0.5, {"001": 1.0}),
            (0.5, random_channel(Variant.DOMINO, 3, Endpoint.RECEIVER_LAST, gen).components[0].coeffs)])
        v, _ = assert_matches_reference(dist, conc, trials=2, seed=63)
        assert v.passed
        assert v.details["branches_compared"] == 2 * 2 * 4 * 2 * 64

    @pytest.mark.parametrize("change", ["reverse", "drop", "extra", "nan"])
    def test_tampered_evaluator(self, monkeypatch, change):
        # Misplaced, missing and extra reports and a NaN fidelity score the
        # same in both oracles, witnesses included.
        evaluate = verify_mod.run_end_to_end
        if change == "nan":
            tampered = with_nan_fidelity(evaluate)
        else:
            def tampered(*args, **kwargs):
                reports = evaluate(*args, **kwargs)
                return {"reverse": reports[::-1], "drop": reports[:-1],
                        "extra": reports + reports[-1:]}[change]
        monkeypatch.setattr(verify_mod, "run_end_to_end", tampered)
        v, ref = assert_matches_reference(*random_pair(Variant.DOMINO, 2, 64), trials=2, seed=65)
        assert not v.passed
        assert repr(v.worst_deviation) == repr(ref.worst_deviation)
        assert [repr(w) for w in v.witnesses] == [repr(w) for w in ref.witnesses]


class TestOracleCapacity:
    def test_seven_parties_refused_before_any_map(self, monkeypatch):
        # The oracle covers every party count the evaluator enumerates and
        # refuses the next one before it builds any map.
        def refuse(*args):
            raise RuntimeError("oracle map built above the exhaustive party cap")

        monkeypatch.setattr(verify_mod, "_sender_maps", refuse)
        monkeypatch.setattr(verify_mod, "_branch_maps", refuse)
        gen = np.random.default_rng(66)
        n = MAX_EXHAUSTIVE_PARTIES + 1
        dist = random_channel(Variant.DOMINO, n, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.DOMINO, n, Endpoint.RECEIVER_LAST, gen)
        with pytest.raises(CapacityError, match="oracle"):
            oracle_agreement(dist, conc, trials=1, seed=0)

    def test_party_mismatch_refused_before_any_map(self, monkeypatch):
        # Channels with different party counts have no common branch; the
        # oracle says so instead of judging zero branches.
        def refuse(*args):
            raise RuntimeError("oracle map built for mismatched channels")

        monkeypatch.setattr(verify_mod, "_sender_maps", refuse)
        monkeypatch.setattr(verify_mod, "_branch_maps", refuse)
        gen = np.random.default_rng(67)
        dist = random_channel(Variant.PARITY, 3, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(Variant.PARITY, 1, Endpoint.RECEIVER_LAST, gen)
        for trials in (0, 1):
            with pytest.raises(ValueError, match="party mismatch"):
                oracle_agreement(dist, conc, trials=trials, seed=0)


class TestOracleProperties:
    # Random channels and inputs at n <= 3: the evaluator agrees with the
    # oracle on every branch, and its branch probabilities sum to one.
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        variant=st.sampled_from([Variant.PARITY, Variant.DOMINO, Variant.CUSTOM]),
        n=st.integers(1, 3),
        channel_seed=st.integers(0, 2**32 - 1),
        input_seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluator_matches_oracle_and_conserves_probability(self, variant, n, channel_seed, input_seed):
        gen = np.random.default_rng(channel_seed)
        dist = random_channel(variant, n, Endpoint.SENDER_FIRST, gen)
        conc = random_channel(variant, n, Endpoint.RECEIVER_LAST, gen)
        v = oracle_agreement(dist, conc, trials=1, seed=input_seed)
        assert v.passed, (v.worst_deviation, v.witnesses[:1])
        # oracle_agreement's single trial drew its input from the same seed.
        reports = run_end_to_end(random_input(as_rng(input_seed)), dist, conc, mode="exhaustive")
        assert len(reports) == v.details["branches_compared"]
        assert sum(r.joint_prob for r in reports) == pytest.approx(1.0, abs=1e-9)


_OUTCOMES = st.sampled_from(BELL_OUTCOMES)


def _reports(values):
    return st.builds(
        OutcomeReport,
        component_index=st.integers(0, 64),
        alice_outcome=_OUTCOMES,
        bob_outcomes=st.lists(_OUTCOMES, max_size=6).map(tuple),
        joint_prob=values,
        correction=st.none() | st.sampled_from(list(PauliLabel)),
        fidelity=st.none() | values,
    )


def _json_round_trip(data):
    return json.loads(json.dumps(data, allow_nan=False))


def _finite_or_null(value):
    return value if not isinstance(value, float) or math.isfinite(value) else None


class TestJsonRoundTrip:
    # Reports and verdicts are written with allow_nan=False: every field must
    # come back unchanged, and a non-finite verdict float as null.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_reports(st.floats(allow_nan=False, allow_infinity=False)))
    def test_report_round_trip(self, report):
        assert _json_round_trip(report.to_json()) == report.to_json()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.builds(
        Verdict,
        claim_id=st.text(max_size=12),
        passed=st.booleans(),
        worst_deviation=st.floats(),
        tolerance=st.floats(),
        witnesses=st.lists(_reports(st.floats()), max_size=3).map(tuple),
        details=st.dictionaries(
            st.text(max_size=8), st.floats() | st.integers() | st.text(max_size=8), max_size=4),
    ))
    def test_verdict_round_trip_nulls_non_finite_floats(self, verdict):
        data = verdict.to_json()
        back = _json_round_trip(data)
        assert back == data
        assert back["worst_deviation"] == _finite_or_null(verdict.worst_deviation)
        assert back["tolerance"] == _finite_or_null(verdict.tolerance)
        assert back["details"] == {k: _finite_or_null(v) for k, v in verdict.details.items()}
        for w, report in zip(back["witnesses"], verdict.witnesses, strict=True):
            assert w["joint_prob"] == _finite_or_null(report.joint_prob)
            assert w["fidelity"] == _finite_or_null(report.fidelity)


class TestDominoCounterAlgorithm:
    def test_worked_examples(self):
        assert domino_correction_by_counter((PHI_M, PHI_P, PHI_P)) is PauliLabel.Z
        assert domino_correction_by_counter((PHI_M, PHI_M)) is PauliLabel.I
        assert domino_correction_by_counter((PHI_P,)) is PauliLabel.I
        # Three minus-type outcomes: bit flip from party 1 plus an odd
        # phase count combine to Y.
        assert domino_correction_by_counter((PSI_M, PSI_M, PHI_M)) is PauliLabel.Y
        assert domino_correction_by_counter((PSI_M, PSI_M)) is PauliLabel.X

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            domino_correction_by_counter(())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_universal_rule(self, n):
        for tup in itertools.product(BELL_OUTCOMES, repeat=n):
            assert domino_correction_by_counter(tup) is concentration_correction(
                Variant.DOMINO, tup), tup


class TestEvenNCounterexample:
    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            even_n_counterexample(3)

    def test_hand_witness(self):
        dist = pure_channel(Variant.PARITY, 2, {"01": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 2, {"01": SQ, "10": SQ}, Endpoint.RECEIVER_LAST)
        v = even_n_counterexample(2, dist=dist, conc=conc, input_qubit=InputQubit(1, 0))
        assert v.passed
        target = next(
            w for w in v.witnesses
            if w.alice_outcome is PHI_P and w.bob_outcomes == (PHI_P, PHI_P)
        )
        assert target.fidelity == pytest.approx(0.5, abs=1e-9)
        assert target.joint_prob > WITNESS_PROB_FLOOR
        assert target.joint_prob == pytest.approx(1 / 32, abs=1e-9)

    def test_degenerate_chain_reports_no_witness(self):
        # A single-support receiver channel reduces to a chain that still
        # works; the finder must say "no witness", not error out.
        dist = pure_channel(Variant.PARITY, 2, {"01": 1.0}, Endpoint.SENDER_FIRST)
        conc = pure_channel(Variant.PARITY, 2, {"01": 1.0}, Endpoint.RECEIVER_LAST)
        v = even_n_counterexample(2, dist=dist, conc=conc, input_qubit=InputQubit(1, 0))
        assert not v.passed
        assert v.witnesses == ()
        assert v.worst_deviation == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4])
    def test_generic_channels_fail(self, n):
        v = even_n_counterexample(n, seed=7)
        assert v.passed
        assert v.details["witness_count"] > 0
        assert all(w.joint_prob > WITNESS_PROB_FLOOR for w in v.witnesses)
        assert all(w.fidelity <= EVEN_N_FID_CEILING for w in v.witnesses)

    def test_seed_reproducible(self):
        assert even_n_counterexample(2, seed=5) == even_n_counterexample(2, seed=5)

    @pytest.mark.parametrize("side", ["dist", "conc"])
    def test_party_count_mismatch_rejected(self, side):
        gen = np.random.default_rng(3)
        channels = {
            "dist": random_channel(Variant.PARITY, 2, Endpoint.SENDER_FIRST, gen),
            "conc": random_channel(Variant.PARITY, 2, Endpoint.RECEIVER_LAST, gen),
        }
        endpoint = Endpoint.SENDER_FIRST if side == "dist" else Endpoint.RECEIVER_LAST
        channels[side] = random_channel(Variant.PARITY, 4, endpoint, gen)
        with pytest.raises(ValueError, match=f"{side} channel has 4 parties"):
            even_n_counterexample(2, **channels)

    def test_receiver_side_dist_rejected(self):
        # The distribution channel must be sender-side.
        gen = np.random.default_rng(4)
        dist = random_channel(Variant.PARITY, 2, Endpoint.RECEIVER_LAST, gen)
        with pytest.raises(ValueError, match="sender"):
            even_n_counterexample(2, dist=dist)

    def test_sender_side_conc_rejected(self):
        # The concentration channel must be receiver-side.
        gen = np.random.default_rng(4)
        conc = random_channel(Variant.PARITY, 2, Endpoint.SENDER_FIRST, gen)
        with pytest.raises(ValueError, match="receiver"):
            even_n_counterexample(2, conc=conc)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            even_n_counterexample(MAX_EXHAUSTIVE_PARTIES + 2)

    def test_witness_cap_is_fixed(self):
        # No caller set the witness cap, so it is a module constant.
        assert MAX_EVEN_N_WITNESSES == 16
        assert "max_witnesses" not in inspect.signature(even_n_counterexample).parameters
        v = even_n_counterexample(4, seed=606)
        assert v.details["witness_count"] > MAX_EVEN_N_WITNESSES
        assert len(v.witnesses) == MAX_EVEN_N_WITNESSES


EVEN_N_DIST = pure_channel(Variant.PARITY, 2, {"01": 1.0}, Endpoint.SENDER_FIRST)
EVEN_N_CASES = {
    "hand-n2": dict(n=2, dist=EVEN_N_DIST, input_qubit=InputQubit(1, 0), conc=pure_channel(
        Variant.PARITY, 2, {"01": SQ, "10": SQ}, Endpoint.RECEIVER_LAST)),
    "chain-n2": dict(n=2, dist=EVEN_N_DIST, input_qubit=InputQubit(1, 0), conc=pure_channel(
        Variant.PARITY, 2, {"01": 1.0}, Endpoint.RECEIVER_LAST)),
    **{f"seed{seed}-n{n}": dict(n=n, seed=seed) for seed in (606, 7) for n in (2, 4)},
}


def witness_keys(verdict):
    return [(w.component_index, w.alice_outcome, w.bob_outcomes, w.correction) for w in verdict.witnesses]


class TestEvenNMatchesPerBranchLoop:
    # Best-over-Paulis per branch from the dense reference: the same verdict,
    # the same witnesses in the same order, floats within 1e-12.
    @pytest.mark.parametrize("case", list(EVEN_N_CASES))
    def test_matches_dense_reference(self, case):
        v = even_n_counterexample(**EVEN_N_CASES[case])
        ref = reference_even_n(**EVEN_N_CASES[case])
        assert (v.claim_id, v.passed, v.tolerance, v.details) == (
            ref.claim_id, ref.passed, ref.tolerance, ref.details)
        assert v.worst_deviation == pytest.approx(ref.worst_deviation, rel=0, abs=1e-12)
        assert witness_keys(v) == witness_keys(ref)
        for w, r in zip(v.witnesses, ref.witnesses):
            assert w.joint_prob == pytest.approx(r.joint_prob, rel=0, abs=1e-12)
            assert w.fidelity == pytest.approx(r.fidelity, rel=0, abs=1e-12)
        if case != "chain-n2":
            assert v.passed and v.witnesses


class TestSmolin:
    def test_verdict(self):
        v = verify_smolin(seed=0, trials=3)
        assert v.passed
        assert v.details["trace_distance"] <= 1e-10
        assert v.details["purity"] == pytest.approx(0.25, abs=1e-10)
        assert v.details["concentration_worst_deviation"] <= FAITHFUL_TOL

    def test_zero_trials_fail(self):
        assert not verify_smolin(seed=0, trials=0).passed

    def test_nan_concentration_deviation_is_reported(self, monkeypatch):
        nan_verdict = Verdict("smolin-concentration", False, math.nan, FAITHFUL_TOL)
        monkeypatch.setattr(verify_mod, "check_faithful", lambda *args, **kwargs: nan_verdict)
        v = verify_smolin(seed=0, trials=1)
        assert not v.passed
        assert math.isnan(v.worst_deviation)


class TestCloneFidelities:
    def test_basis_input(self):
        f1, f2, f3 = clone_report(InputQubit(1, 0))
        assert f1 == pytest.approx(2 / 3, abs=1e-10)
        assert f2 == pytest.approx(5 / 6, abs=1e-10)
        assert f3 == pytest.approx(5 / 6, abs=1e-10)

    def test_clone_value_is_input_independent(self):
        _, a2, a3 = clone_report(InputQubit(1, 0))
        _, b2, b3 = clone_report(InputQubit(SQ, SQ))
        assert a2 == pytest.approx(b2, abs=1e-12)
        assert a3 == pytest.approx(b3, abs=1e-12)
        assert a2 == pytest.approx(CLONE_TARGET, abs=1e-12)

    def test_clone_positions_symmetric(self):
        _, f2, f3 = clone_report(random_input_for_test(17))
        assert f2 == pytest.approx(f3, abs=1e-12)

    def test_verdict_over_many_inputs(self):
        v = clone_fidelity_verdict(trials=100, seed=0)
        assert v.passed
        assert v.worst_deviation <= v.tolerance
        assert v.details["max_pair_gap"] <= 1e-12

    @pytest.mark.parametrize("inp", [InputQubit(1, 0), InputQubit(0, 1)] + [
        random_input(np.random.default_rng(seed)) for seed in range(50)])
    def test_matches_evaluator_branch(self, inp):
        # The evaluator's phi+ distribution branch gives the same per-qubit
        # fidelities, read off its one-qubit reduced density matrices.
        branch = distribute(inp, telecloning_channel())[0]
        assert branch.outcomes == (PHI_P,)
        psi = branch.state.amps.reshape(2, 2, 2)
        rhos = [np.einsum("abc,dbc->ad", psi, psi.conj()),
                np.einsum("bac,bdc->ad", psi, psi.conj()),
                np.einsum("bca,bcd->ad", psi, psi.conj())]
        vec = np.array([inp.alpha, inp.beta])
        want = [np.vdot(vec, rho @ vec).real for rho in rhos]
        assert np.allclose(clone_report(inp), want, rtol=0.0, atol=1e-12)

    def test_zero_trials_fail(self):
        assert not clone_fidelity_verdict(trials=0, seed=0).passed

    def test_map_built_once_per_verdict(self, monkeypatch):
        # The verdict builds the telecloning map once and gives the floats of
        # clone_report, which builds it for each input.
        calls = []
        maps = verify_mod._sender_maps
        monkeypatch.setattr(verify_mod, "_sender_maps", lambda *args: calls.append(args) or maps(*args))
        for seed in range(3):
            calls.clear()
            v = clone_fidelity_verdict(trials=20, seed=seed)
            assert len(calls) == 1
            gen = np.random.default_rng(seed)
            fids = [clone_report(random_input(gen)) for _ in range(20)]
            assert v.worst_deviation.hex() == max(
                abs(f - CLONE_TARGET) for _, f2, f3 in fids for f in (f2, f3)).hex()
            assert v.details["max_pair_gap"].hex() == max(abs(f2 - f3) for _, f2, f3 in fids).hex()
            assert v.details["anticlone_min"].hex() == min(f1 for f1, _, _ in fids).hex()
            assert v.details["anticlone_max"].hex() == max(f1 for f1, _, _ in fids).hex()

    def test_nan_clone_fidelity_fails(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "_clone_fidelities", lambda inputs: [[0.5, math.nan, math.nan]] * len(inputs))
        v = clone_fidelity_verdict(trials=3, seed=0)
        assert not v.passed
        assert math.isnan(v.worst_deviation)
        assert math.isnan(v.details["max_pair_gap"])


def random_input_for_test(seed):
    from qrelay.protocol import random_input
    return random_input(np.random.default_rng(seed))


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    def test_single_suite_claims(self):
        verdicts = run_suite("clone", seed=1)
        assert [v.claim_id for v in verdicts] == ["clone-fidelity"]
        assert all(v.passed for v in verdicts)

    def test_even_n_suite(self):
        verdicts = run_suite("even-n", seed=1)
        assert [v.claim_id for v in verdicts] == ["even-n-2", "even-n-4"]
        assert all(v.passed for v in verdicts)

    @pytest.mark.parametrize("suite", ["smolin", "clone", "even-n"])
    def test_tolerance_needs_a_faithfulness_check(self, suite):
        with pytest.raises(ValueError, match="tolerance"):
            run_suite(suite, seed=1, tolerance=1e-30)

    @pytest.mark.parametrize("suite", ["smolin", "clone"])
    def test_n_needs_a_sized_check(self, suite):
        with pytest.raises(ValueError, match="n only applies"):
            run_suite(suite, seed=1, n=2)

    def test_all_at_odd_n_skips_even_n(self):
        # Even-n only applies at even sizes, as parity faithfulness only at
        # odd ones: an odd n runs the rest of 'all' instead of failing.
        verdicts = run_suite("all", seed=1, n=3)
        assert [v.claim_id for v in verdicts] == [
            "faithful-parity-n3", "faithful-domino-n3", "smolin-channel", "clone-fidelity"]
        assert all(v.passed for v in verdicts)

    def test_even_n_suite_rejects_odd_n(self, monkeypatch):
        # Unlike 'all', the even-n suite has no other check to run at odd n.
        def refuse(*args, **kwargs):
            raise RuntimeError("a check ran for an odd n")

        monkeypatch.setattr(verify_mod, "_oracle_maps", refuse)
        with pytest.raises(ValueError, match="even"):
            run_suite("even-n", seed=1, n=3)

    def test_faithfulness_restricted_size(self):
        verdicts = run_suite("faithfulness", seed=2, n=2)
        # Parity skips even sizes; only the staircase check remains.
        assert [v.claim_id for v in verdicts] == ["faithful-domino-n2"]
        assert verdicts[0].passed

    def test_verdict_json_round_trip(self):
        v = run_suite("clone", seed=3)[0]
        data = v.to_json()
        assert data["claim_id"] == "clone-fidelity"
        assert data["passed"] is True
        assert isinstance(data["witnesses"], list)
        assert isinstance(Verdict(**{**v.__dict__}), Verdict)
