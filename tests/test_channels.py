import json

import numpy as np
import pytest

import qrelay.channels as channels_mod
from qrelay.channels import (
    TELECLONING_MAIN_AMP,
    TELECLONING_SIDE_AMP,
    ChannelSpec,
    ChannelValidationError,
    Endpoint,
    Ensemble,
    Variant,
    build_channel_component,
    complement,
    domino_support,
    expand_mixture,
    ghz_channel,
    load_channel,
    make_component,
    mixed_channel,
    parity_support,
    pure_channel,
    random_channel,
    resolve_preset,
    save_channel,
    smolin_channel,
    smolin_state,
    spec_from_json,
    spec_to_json,
    telecloning_channel,
)
from qrelay.statevec import DEFAULT_QUBIT_CAP, CapacityError, trace_distance

from dense_reference import make_basis_state

SQ = 1 / np.sqrt(2)


class TestSupports:
    def test_complement(self):
        assert complement("0101") == "1010"
        assert complement("000") == "111"

    def test_parity_support_small(self):
        assert parity_support(1) == ["0"]
        assert parity_support(2) == ["01", "10"]
        assert set(parity_support(3)) == {"000", "011", "101", "110"}

    def test_parity_support_all_odd_zero(self):
        for n in (1, 2, 3, 4, 5):
            sup = parity_support(n)
            assert len(sup) == 2 ** (n - 1)
            assert all(s.count("0") % 2 == 1 for s in sup)

    def test_domino_support(self):
        assert domino_support(1) == ["0"]
        assert domino_support(3) == ["000", "001", "011"]
        assert len(domino_support(5)) == 5


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ChannelValidationError, match="weights"):
            mixed_channel(
                Variant.PARITY, 1, Endpoint.SENDER_FIRST,
                [(0.5, {"0": 1.0}), (0.4, {"0": 1.0})],
            )

    def test_nan_weight_rejected(self):
        with pytest.raises(ChannelValidationError, match="weights"):
            mixed_channel(
                Variant.PARITY, 1, Endpoint.SENDER_FIRST,
                [(float("nan"), {"0": 1.0}), (1.0, {"0": 1.0})],
            )

    def test_support_length_checked(self):
        with pytest.raises(ChannelValidationError, match="support-shape"):
            pure_channel(Variant.PARITY, 3, {"01": 1.0}, Endpoint.SENDER_FIRST)

    def test_support_chars_checked(self):
        with pytest.raises(ChannelValidationError, match="support-shape"):
            pure_channel(Variant.CUSTOM, 2, {"0x": 1.0}, Endpoint.SENDER_FIRST)

    def test_repeated_support_rejected(self):
        comp = make_component(1.0, [("0", SQ), ("0", SQ)])
        with pytest.raises(ChannelValidationError, match="distinct-supports"):
            ChannelSpec(Variant.PARITY, 1, Endpoint.SENDER_FIRST, (comp,))

    def test_normalization_checked(self):
        with pytest.raises(ChannelValidationError, match="normalization"):
            pure_channel(Variant.PARITY, 2, {"01": 0.5, "10": 0.5}, Endpoint.SENDER_FIRST)

    @pytest.mark.parametrize("amp", [float("nan"), complex(SQ, float("nan"))])
    def test_nan_coefficient_rejected(self, amp):
        with pytest.raises(ChannelValidationError, match="normalization"):
            pure_channel(Variant.CUSTOM, 2, {"01": SQ, "10": amp}, Endpoint.SENDER_FIRST)

    @pytest.mark.parametrize("amp", [1e200, complex(1e308, 1e308)])
    def test_overflowing_coefficient_rejected(self, amp):
        # |amp|^2 overflows to inf, which the normalization check refuses.
        with pytest.raises(ChannelValidationError, match="normalization.*= inf"):
            pure_channel(Variant.CUSTOM, 1, {"0": amp}, Endpoint.SENDER_FIRST)

    def test_parity_rejects_even_zero_support(self):
        with pytest.raises(ChannelValidationError, match="parity-support"):
            pure_channel(Variant.PARITY, 3, {"001": 1.0}, Endpoint.SENDER_FIRST)

    def test_domino_rejects_non_staircase(self):
        with pytest.raises(ChannelValidationError, match="domino-support"):
            pure_channel(Variant.DOMINO, 2, {"10": 1.0}, Endpoint.SENDER_FIRST)
        with pytest.raises(ChannelValidationError, match="domino-support"):
            pure_channel(Variant.DOMINO, 2, {"11": 1.0}, Endpoint.SENDER_FIRST)

    def test_custom_bypasses_shape_rules(self):
        spec = pure_channel(Variant.CUSTOM, 2, {"11": SQ, "00": SQ}, Endpoint.SENDER_FIRST)
        assert spec.faithfulness_guaranteed is False

    @pytest.mark.parametrize("build", [
        lambda n: pure_channel(Variant.PARITY, n, {"01": 1.0}, Endpoint.SENDER_FIRST),
        lambda n: mixed_channel(Variant.PARITY, n, Endpoint.SENDER_FIRST, [(1.0, {"01": 1.0})]),
    ], ids=["pure", "mixed"])
    def test_party_count_must_be_an_integer(self, build):
        # A float count equal to the support length once passed, and failed the first run
        # inside a bit shift; a numpy integer still passes, held as a plain int.
        with pytest.raises(ChannelValidationError, match="parties.*2.0"):
            build(2.0)
        spec = build(np.int64(2))
        assert type(spec.n_parties) is int and spec == build(2)
        assert build_channel_component(spec.components[0], spec.variant, spec.endpoint, spec.n_parties).num_qubits == 3

    def test_empty_components_rejected(self):
        with pytest.raises(ChannelValidationError, match="components"):
            ChannelSpec(Variant.PARITY, 1, Endpoint.SENDER_FIRST, ())

    def test_string_variant_and_endpoint_coerced(self):
        spec = pure_channel("parity", 1, {"0": 1.0}, "sender")
        assert spec.variant is Variant.PARITY
        assert spec.endpoint is Endpoint.SENDER_FIRST
        assert spec == pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)

    def test_string_variant_still_validated(self):
        # Coercion must happen before the shape rules run, so a parity
        # channel named by string gets the same support checks.
        with pytest.raises(ChannelValidationError, match="parity-support"):
            pure_channel("parity", 3, {"001": 1.0}, "sender")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ChannelValidationError, match="Variant"):
            pure_channel("diagonal", 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        with pytest.raises(ChannelValidationError, match="Endpoint"):
            pure_channel(Variant.PARITY, 1, {"0": 1.0}, "middle")


class TestFaithfulnessFlag:
    def test_parity_odd_guaranteed(self):
        for n in (1, 3, 5):
            spec = pure_channel(Variant.PARITY, n, {"0" * n: 1.0}, Endpoint.SENDER_FIRST)
            assert spec.faithfulness_guaranteed

    def test_parity_even_not_guaranteed(self):
        spec = pure_channel(Variant.PARITY, 2, {"01": SQ, "10": SQ}, Endpoint.SENDER_FIRST)
        assert not spec.faithfulness_guaranteed

    def test_domino_always_guaranteed(self):
        for n in (1, 2, 3, 4):
            spec = ghz_channel(n, Endpoint.SENDER_FIRST)
            assert spec.faithfulness_guaranteed

    def test_overlap_supports_explain_even_failure(self):
        # The supports whose complement is also a support are the collisions
        # that break the even-parity guarantee; an odd parity channel has none.
        def overlaps(spec):
            supports = {bits for bits, _ in spec.components[0].coeffs}
            return sorted(b for b in supports if complement(b) in supports)

        even = pure_channel(Variant.PARITY, 2, {"01": SQ, "10": SQ}, Endpoint.SENDER_FIRST)
        assert overlaps(even) == ["01", "10"] and not even.faithfulness_guaranteed
        odd = telecloning_channel()
        assert overlaps(odd) == [] and odd.faithfulness_guaranteed


class TestBuildComponent:
    def test_bell_pair(self):
        spec = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.SENDER_FIRST)
        state = build_channel_component(spec.components[0], spec.variant, spec.endpoint, 1)
        assert np.allclose(state.amps, [SQ, 0, 0, SQ])

    def test_receiver_endpoint_interleaves_last(self):
        spec = pure_channel(Variant.PARITY, 1, {"0": 1.0}, Endpoint.RECEIVER_LAST)
        state = build_channel_component(spec.components[0], spec.variant, spec.endpoint, 1)
        # |0>|0> + |1>|1> with the endpoint as the final qubit.
        assert np.allclose(state.amps, [SQ, 0, 0, SQ])

    def test_domino_receiver_literal_indices(self):
        comp = make_component(1.0, {"00": SQ, "01": SQ})
        state = build_channel_component(comp, Variant.DOMINO, Endpoint.RECEIVER_LAST, 2)
        want = np.zeros(8, dtype=complex)
        want[0] = 0.5   # 00 direct, endpoint 0
        want[7] = 0.5   # 11 complement, endpoint 1
        want[2] = 0.5   # 01 direct, endpoint 0
        want[5] = 0.5   # 10 complement, endpoint 1
        assert np.allclose(state.amps, want)

    def test_sender_branches_carry_complements(self):
        comp = make_component(1.0, {"000": TELECLONING_MAIN_AMP,
                                    "101": TELECLONING_SIDE_AMP,
                                    "110": TELECLONING_SIDE_AMP})
        state = build_channel_component(comp, Variant.PARITY, Endpoint.SENDER_FIRST, 3)
        amps = state.amps
        assert amps[int("0000", 2)] == pytest.approx(TELECLONING_MAIN_AMP * SQ)
        assert amps[int("1111", 2)] == pytest.approx(TELECLONING_MAIN_AMP * SQ)
        assert amps[int("0101", 2)] == pytest.approx(TELECLONING_SIDE_AMP * SQ)
        assert amps[int("1010", 2)] == pytest.approx(TELECLONING_SIDE_AMP * SQ)


class TestEnsembles:
    def test_weights_validated(self):
        # Construction does not check the weights: the density matrix does.
        with pytest.raises(ValueError, match="trace"):
            Ensemble(((0.5, make_basis_state("0")),)).to_density()
        with pytest.raises(ValueError):
            Ensemble(((float("nan"), make_basis_state("0")), (1.0, make_basis_state("1")))).to_density()

    def test_expand_mixture_density_trace_one(self):
        rho = expand_mixture(smolin_channel()).to_density()
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


class TestPresets:
    def test_telecloning_amplitudes(self):
        spec = telecloning_channel()
        coeffs = dict(spec.components[0].coeffs)
        assert coeffs["000"] == pytest.approx(np.sqrt(2 / 3))
        assert coeffs["101"] == pytest.approx(1 / np.sqrt(6))
        assert coeffs["110"] == pytest.approx(1 / np.sqrt(6))
        assert TELECLONING_SIDE_AMP == pytest.approx(0.5 * np.sqrt(2 / 3))

    def test_smolin_state_purity(self):
        assert smolin_state().purity() == pytest.approx(0.25, abs=1e-12)

    def test_smolin_two_constructions_agree(self):
        direct = smolin_state()
        mixture = expand_mixture(smolin_channel()).to_density()
        assert trace_distance(direct, mixture) <= 1e-10

    def test_smolin_mixture_shape(self):
        spec = smolin_channel()
        assert spec.variant is Variant.PARITY
        assert spec.n_parties == 3
        assert len(spec.components) == 4
        assert all(c.weight == pytest.approx(0.25) for c in spec.components)

    def test_ghz_channel(self):
        spec = ghz_channel(4, Endpoint.SENDER_FIRST)
        state = build_channel_component(spec.components[0], spec.variant, spec.endpoint, 4)
        want = np.zeros(32, dtype=complex)
        want[0] = SQ
        want[-1] = SQ
        assert np.allclose(state.amps, want)

    def test_resolve_preset_names(self):
        assert resolve_preset("telecloning").endpoint is Endpoint.SENDER_FIRST
        assert resolve_preset("telecloning-conc").endpoint is Endpoint.RECEIVER_LAST
        assert resolve_preset("smolin").endpoint is Endpoint.RECEIVER_LAST
        assert resolve_preset("ghz(3)", Endpoint.SENDER_FIRST).n_parties == 3

    def test_resolve_preset_errors(self):
        with pytest.raises(ChannelValidationError):
            resolve_preset("nope")
        with pytest.raises(ChannelValidationError):
            resolve_preset("telecloning-conc", Endpoint.SENDER_FIRST)
        with pytest.raises(ChannelValidationError):
            resolve_preset("ghz(2)")  # needs an endpoint

    @pytest.mark.parametrize("n", [DEFAULT_QUBIT_CAP + 1, 10**13])
    def test_ghz_over_the_cap_builds_nothing(self, monkeypatch, n):
        # The support string alone would take n bytes: refuse before any is built.
        def refuse(*args, **kwargs):
            raise AssertionError("built a channel over the qubit cap")

        monkeypatch.setattr(channels_mod, "pure_channel", refuse)
        with pytest.raises(CapacityError, match=f"got {n}"):
            ghz_channel(n, Endpoint.SENDER_FIRST)
        with pytest.raises(CapacityError):
            resolve_preset(f"ghz({n})", Endpoint.RECEIVER_LAST)

    def test_ghz_at_the_cap_still_builds(self):
        spec = ghz_channel(DEFAULT_QUBIT_CAP, Endpoint.SENDER_FIRST)
        assert spec.components[0].coeffs == (("0" * DEFAULT_QUBIT_CAP, 1.0),)


class TestRandomChannel:
    def test_normalized_and_nondegenerate(self):
        gen = np.random.default_rng(0)
        for variant in (Variant.PARITY, Variant.DOMINO, Variant.CUSTOM):
            spec = random_channel(variant, 3, Endpoint.SENDER_FIRST, gen)
            amps = np.array([a for _, a in spec.components[0].coeffs])
            assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
            assert np.abs(amps).min() >= 1e-6

    def test_deterministic_for_seed(self):
        a = random_channel(Variant.PARITY, 3, Endpoint.SENDER_FIRST, np.random.default_rng(7))
        b = random_channel(Variant.PARITY, 3, Endpoint.SENDER_FIRST, np.random.default_rng(7))
        assert a == b

    def test_full_support_set(self):
        spec = random_channel(Variant.DOMINO, 4, Endpoint.RECEIVER_LAST, np.random.default_rng(1))
        assert [bits for bits, _ in spec.components[0].coeffs] == domino_support(4)


class TestSerialization:
    def test_round_trip(self):
        spec = smolin_channel()
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_round_trip_complex_amplitudes(self):
        gen = np.random.default_rng(12)
        spec = random_channel(Variant.PARITY, 3, Endpoint.SENDER_FIRST, gen)
        again = spec_from_json(spec_to_json(spec))
        assert again == spec

    def test_file_round_trip(self, tmp_path):
        spec = telecloning_channel(Endpoint.RECEIVER_LAST)
        path = tmp_path / "chan.json"
        save_channel(spec, path)
        assert load_channel(path) == spec

    def test_missing_field_names_it(self):
        with pytest.raises(ChannelValidationError, match="variant"):
            spec_from_json({"n": 1, "endpoint": "sender", "components": []})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ChannelValidationError):
            load_channel(path)

    def test_non_utf8_file_names_it(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(ChannelValidationError, match="not UTF-8") as info:
            load_channel(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_deeply_nested_json_file(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        with pytest.raises(ChannelValidationError, match="nested too deeply"):
            load_channel(path)

    def test_imaginary_part_optional(self):
        data = {
            "variant": "parity", "n": 1, "endpoint": "sender",
            "components": [{"weight": 1.0, "coeffs": [{"bits": "0", "re": 1.0}]}],
        }
        spec = spec_from_json(data)
        assert spec.components[0].coeffs[0][1] == 1.0

    @pytest.mark.parametrize("n", [3.7, True, False, float("inf"), float("nan"), "2.5"])
    def test_non_integral_or_boolean_n_refused(self, n):
        data = spec_to_json(ghz_channel(3, Endpoint.SENDER_FIRST))
        data["n"] = n
        with pytest.raises(ChannelValidationError, match="malformed"):
            spec_from_json(data)

    def test_integral_float_n_accepted(self):
        data = spec_to_json(ghz_channel(3, Endpoint.SENDER_FIRST))
        data["n"] = 3.0
        assert spec_from_json(data) == ghz_channel(3, Endpoint.SENDER_FIRST)

    @pytest.mark.parametrize("weight", [True, False])
    def test_boolean_weight_refused(self, weight):
        data = spec_to_json(ghz_channel(1, Endpoint.SENDER_FIRST))
        data["components"][0]["weight"] = weight
        with pytest.raises(ChannelValidationError, match="weight must be a number"):
            spec_from_json(data)

    @pytest.mark.parametrize("coeff, what", [
        ({"bits": 0, "re": 1.0}, "bits must be a string"),
        ({"bits": ["0"], "re": 1.0}, "bits must be a string"),
        ({"bits": "0", "re": True}, "re must be a number"),
        ({"bits": "0", "re": 1.0, "im": False}, "im must be a number"),
    ])
    def test_non_string_bits_or_boolean_amplitude_refused(self, coeff, what):
        # JSON 0 would load as support "0" through str(), and true as 1 through complex().
        data = spec_to_json(ghz_channel(1, Endpoint.SENDER_FIRST))
        data["components"][0]["coeffs"] = [coeff]
        with pytest.raises(ChannelValidationError, match=what):
            spec_from_json(data)

    @pytest.mark.parametrize("field, value", [
        ("n", "1"), ("n", " 1 "), ("n", "1_0"), ("weight", "1e0"), ("re", "1"), ("im", "0"),
    ])
    def test_numeric_string_refused(self, field, value):
        # int() and float() would parse each of these, "1_0" as 10.
        data = spec_to_json(ghz_channel(1, Endpoint.SENDER_FIRST))
        if field == "n":
            data["n"] = value
        elif field == "weight":
            data["components"][0]["weight"] = value
        else:
            data["components"][0]["coeffs"][0][field] = value
        with pytest.raises(ChannelValidationError, match=f"{field} must be a number"):
            spec_from_json(data)

    def test_integer_amplitude_accepted(self):
        data = spec_to_json(ghz_channel(1, Endpoint.SENDER_FIRST))
        data["components"][0]["coeffs"] = [{"bits": "0", "re": 1, "im": 0}]
        assert spec_from_json(data).components[0].coeffs == (("0", 1 + 0j),)

    def test_python_api_still_coerces(self):
        # make_component is the Python API: it keeps coercing what it is given.
        assert make_component(1, [(0, True)]).coeffs == (("0", 1 + 0j),)

    def test_json_is_plain_data(self):
        text = json.dumps(spec_to_json(telecloning_channel()))
        assert "phi" not in text  # channel specs carry coefficients, not outcomes
