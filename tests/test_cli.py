import enum
import itertools
import json
import math
import subprocess
import sys
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrelay.cli as cli_mod
import qrelay.protocol as protocol_mod
import qrelay.verify as verify_mod
from qrelay.bell import BELL_OUTCOMES, BellOutcome, PauliLabel, as_rng
from qrelay.channels import (
    Endpoint,
    Variant,
    ghz_channel,
    mixed_channel,
    random_channel,
    save_channel,
    spec_to_json,
    telecloning_channel,
)
from qrelay.cli import build_parser, main, parse_input_spec, resolve_channel_arg
from qrelay.protocol import MAX_EXHAUSTIVE_PARTIES, OutcomeReport, run_end_to_end
from qrelay.verify import Verdict, run_suite
from test_protocol import NULL_SENDER_INPUT, agreement_cases


def run_cli(args):
    return main(list(args))


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestInputParsing:
    def test_plain_pairs(self):
        inp = parse_input_spec("0.6,0+0.8,0")
        assert inp.alpha == 0.6
        assert inp.beta == 0.8

    def test_complex_and_negative_parts(self):
        inp = parse_input_spec("0.6,-0.0+-0.48,0.64")
        assert inp.alpha == pytest.approx(0.6)
        assert inp.beta == pytest.approx(complex(-0.48, 0.64))

    def test_random_needs_rng(self):
        with pytest.raises(ValueError, match="seed"):
            parse_input_spec("random")

    def test_random_with_rng(self):
        a = parse_input_spec("random", np.random.default_rng(4))
        b = parse_input_spec("random", np.random.default_rng(4))
        assert a == b

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_input_spec("0.6+0.8")
        with pytest.raises(ValueError):
            parse_input_spec("1,0")

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            parse_input_spec("1,0+1,0")

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            parse_input_spec("nan,0+1,0")


class TestChannelResolution:
    def test_preset(self):
        spec = resolve_channel_arg("preset:telecloning", Endpoint.SENDER_FIRST)
        assert spec.n_parties == 3

    def test_file(self, tmp_path):
        path = tmp_path / "chan.json"
        save_channel(telecloning_channel(), path)
        spec = resolve_channel_arg(str(path), Endpoint.SENDER_FIRST)
        assert spec == telecloning_channel()

    def test_file_endpoint_mismatch(self, tmp_path):
        path = tmp_path / "chan.json"
        save_channel(telecloning_channel(), path)
        from qrelay.channels import ChannelValidationError
        with pytest.raises(ChannelValidationError, match="endpoint"):
            resolve_channel_arg(str(path), Endpoint.RECEIVER_LAST)


class TestExitCodes:
    def test_enumerate_success(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli([
            "enumerate", "--dist", "preset:telecloning", "--conc", "preset:telecloning-conc",
            "--input", "0.6,0+0.8,0", "--output", str(out),
        ])
        assert code == 0
        report = load_report(out)
        assert report["summary"]["total_prob"] == pytest.approx(1.0, abs=1e-9)
        assert report["summary"]["min_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert len(report["branches"]) == 256

    def test_verify_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--suite", "clone", "--seed", "1", "--output", str(out)])
        assert code == 0
        report = load_report(out)
        verdicts = report["summary"]["verdicts"]
        assert len(verdicts) == 1 and verdicts[0]["passed"]

    def test_verify_forced_failure_is_exit_one(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli([
            "verify", "--suite", "faithfulness", "--n", "1", "--seed", "2",
            "--tolerance", "1e-18", "--output", str(out),
        ])
        assert code == 1
        report = load_report(out)
        assert any(not v["passed"] for v in report["summary"]["verdicts"])

    def test_nan_verdict_is_strict_json_failure(self, tmp_path, monkeypatch):
        witness = OutcomeReport(
            0, BellOutcome.PHI_PLUS, (BellOutcome.PSI_MINUS,), 0.25, PauliLabel.Y, math.nan
        )
        verdict = Verdict(
            "faithful-parity-n1", False, math.nan, 1e-9, (witness,),
            {"trials": 1, "max_prob_gap": math.nan},
        )
        monkeypatch.setattr(cli_mod, "run_suite", lambda *args, **kwargs: [verdict])
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--suite", "faithfulness", "--output", str(out)])
        assert code == 1

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
        (data,) = report["summary"]["verdicts"]
        assert data["passed"] is False
        assert data["worst_deviation"] is None
        assert data["details"] == {"trials": 1, "max_prob_gap": None}
        assert data["witnesses"][0]["fidelity"] is None

    def test_nan_input_is_usage_error(self, capsys):
        code = run_cli([
            "enumerate", "--dist", "preset:ghz(1)", "--conc", "preset:ghz(1)",
            "--input", "nan,0+1,0",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fidelity, joint_prob",
                             [(math.nan, 0.25), (1.0, math.inf), (-math.inf, 0.25), (0.5, math.nan)])
    def test_non_finite_branch_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                              fidelity, joint_prob):
        # Branches are strict JSON too: a non-finite field fails the run
        # before any report is written.
        row = (0, BellOutcome.PHI_PLUS, [joint_prob], [fidelity], ((BellOutcome.PSI_MINUS,),),
               (PauliLabel.Y,))
        monkeypatch.setattr(cli_mod, "_branch_rows", lambda *args, **kwargs: [row])
        out = tmp_path / "report.json"
        code = run_cli([
            "enumerate", "--dist", "preset:ghz(1)", "--conc", "preset:ghz(1)",
            "--input", "1,0+0,0", "--output", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: Out of range float values are not JSON compliant: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9", "tight"])
    def test_verify_rejects_bad_tolerance(self, tmp_path, capsys, value):
        out = tmp_path / "report.json"
        code = run_cli([
            "verify", "--suite", "clone", f"--tolerance={value}", "--output", str(out),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "simulate", "enumerate"])
    @pytest.mark.parametrize("value", ["-1", "1.5", "many"])
    def test_rejects_bad_seed(self, tmp_path, capsys, command, value):
        # numpy refuses a negative seed in words that do not name the flag; the
        # parser refuses it first, and names both the flag and the value.
        out = tmp_path / "report.json"
        argv = [command, f"--seed={value}", "--output", str(out)]
        if command != "verify":
            argv += ["--dist", "preset:ghz(2)", "--conc", "preset:ghz(2)", "--input", "random"]
        assert run_cli(argv) == 2
        assert f"argument --seed: expected a non-negative integer, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_tolerance_without_faithfulness_suite(self, tmp_path, capsys):
        # Only the faithfulness checks take a tolerance; echoing one that
        # judged nothing would misreport the run.
        out = tmp_path / "report.json"
        code = run_cli([
            "verify", "--suite", "clone", "--tolerance", "1e-30", "--output", str(out),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["clone", "smolin"])
    def test_verify_n_without_sized_suite(self, tmp_path, capsys, suite):
        # Neither suite has a party count to restrict; echoing --n in the
        # report would claim a restriction no check applied.
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--suite", suite, "--n", "2", "--output", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_even_n_above_the_cap(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        above = MAX_EXHAUSTIVE_PARTIES + 2 - MAX_EXHAUSTIVE_PARTIES % 2  # the first even size past the cap
        code = run_cli(["verify", "--suite", "even-n", "--n", str(above), "--output", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite, n", [("even-n", 20), ("faithfulness", 19)])
    def test_verify_above_the_cap_draws_no_channel(self, tmp_path, capsys, monkeypatch, suite, n):
        def refuse(*args, **kwargs):
            raise RuntimeError("a channel was drawn above the cap")

        monkeypatch.setattr(verify_mod, "random_channel", refuse)
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--suite", suite, "--n", str(n), "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "capped" in err and "Traceback" not in err
        assert not out.exists()

    def test_verify_all_at_odd_n(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--suite", "all", "--n", "3", "--output", str(out)])
        assert code == 0
        claims = [v["claim_id"] for v in load_report(out)["summary"]["verdicts"]]
        assert "faithful-parity-n3" in claims
        assert not any(c.startswith("even-n") for c in claims)

    def test_sampled_qubit_cap(self, capsys):
        # A sampled joint state of 2n + 1 = 21 qubits is over the cap.
        code = run_cli([
            "simulate", "--dist", "preset:ghz(10)", "--conc", "preset:ghz(10)",
            "--input", "random", "--seed", "1",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("side", ["--dist", "--conc"])
    def test_ghz_over_the_qubit_cap(self, tmp_path, capsys, side):
        # Refused before the n-character support string is built.
        presets = {"--dist": "preset:ghz(3)", "--conc": "preset:ghz(3)", side: "preset:ghz(10000000000000)"}
        out = tmp_path / "report.json"
        code = run_cli(["enumerate", *itertools.chain(*presets.items()), "--input", "1,0+0,0",
                        "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "capped" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_total_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # Each branch is finite, but total_prob sums to inf: the summary is strict JSON too.
        row = (0, BellOutcome.PHI_PLUS, [1e308, 1e308], [1.0, 1.0], ((BellOutcome.PSI_MINUS,),) * 2,
               (PauliLabel.Y,) * 2)
        monkeypatch.setattr(cli_mod, "_branch_rows", lambda *args, **kwargs: [row])
        out = tmp_path / "report.json"
        code = run_cli([
            "enumerate", "--dist", "preset:ghz(1)", "--conc", "preset:ghz(1)",
            "--input", "1,0+0,0", "--output", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: Out of range float values are not JSON compliant: inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["1e200,0+0,0", "1e308,1e308+0,0"])
    def test_overflowing_input_amplitude(self, tmp_path, capsys, text):
        # |alpha|^2 overflows to inf, which the normalization check refuses.
        out = tmp_path / "report.json"
        code = run_cli(["enumerate", "--dist", "preset:telecloning", "--conc", "preset:telecloning-conc",
                        f"--input={text}", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: input amplitudes have |a|^2+|b|^2 = inf, expected 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("re, im", [(1e200, 0.0), (1e308, 1e308)])
    def test_overflowing_channel_amplitude(self, tmp_path, capsys, re, im):
        data = spec_to_json(ghz_channel(1, Endpoint.SENDER_FIRST))
        data["components"][0]["coeffs"] = [{"bits": "0", "re": re, "im": im}]
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "report.json"
        code = run_cli(["enumerate", "--dist", str(path), "--conc", "preset:ghz(1)",
                        "--input", "1,0+0,0", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: normalization: component 0 has sum |amp|^2 = inf, expected 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["re", "weight"])
    def test_integer_beyond_float_range(self, tmp_path, capsys, field):
        data = spec_to_json(ghz_channel(1, Endpoint.SENDER_FIRST))
        component = data["components"][0]
        (component["coeffs"][0] if field == "re" else component)[field] = 10**400
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "report.json"
        code = run_cli(["enumerate", "--dist", str(path), "--conc", "preset:ghz(1)",
                        "--input", "1,0+0,0", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: malformed channel description: ")
        assert not out.exists()

    def test_deeply_nested_channel_file(self, tmp_path, capsys):
        path = tmp_path / "dist.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        out = tmp_path / "report.json"
        code = run_cli(["enumerate", "--dist", str(path), "--conc", "preset:ghz(1)",
                        "--input", "1,0+0,0", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"
        assert not out.exists()

    def test_non_utf8_channel_file(self, tmp_path, capsys):
        path = tmp_path / "dist.json"
        path.write_bytes(b"\xff{}")
        code = run_cli(["enumerate", "--dist", str(path), "--conc", "preset:ghz(1)", "--input", "1,0+0,0"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text ")

    def test_unreadable_channel_file(self, capsys):
        code = run_cli([
            "enumerate", "--dist", "/definitely/missing.json",
            "--conc", "preset:smolin", "--input", "1,0+0,0",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sampled_without_seed(self):
        code = run_cli([
            "simulate", "--dist", "preset:telecloning", "--conc", "preset:smolin",
            "--input", "1,0+0,0",
        ])
        assert code == 2

    def test_exhaustive_party_cap(self, tmp_path):
        dist_path = tmp_path / "dist.json"
        conc_path = tmp_path / "conc.json"
        save_channel(ghz_channel(MAX_EXHAUSTIVE_PARTIES + 1, Endpoint.SENDER_FIRST), dist_path)
        save_channel(ghz_channel(MAX_EXHAUSTIVE_PARTIES + 1, Endpoint.RECEIVER_LAST), conc_path)
        code = run_cli([
            "enumerate", "--dist", str(dist_path), "--conc", str(conc_path),
            "--input", "1,0+0,0",
        ])
        assert code == 2

    @pytest.mark.parametrize("field, value", [
        ("n", 3.7), ("n", True), ("weight", True), ("n", "3"), ("weight", "1e0"),
    ])
    def test_fractional_or_boolean_channel_field(self, tmp_path, capsys, field, value):
        data = spec_to_json(ghz_channel(3, Endpoint.SENDER_FIRST))
        if field == "n":
            data["n"] = value
        else:
            data["components"][0]["weight"] = value
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "report.json"
        code = run_cli(["enumerate", "--dist", str(path), "--conc", "preset:ghz(3)",
                        "--input", "1,0+0,0", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: malformed channel description: ")
        assert not out.exists()

    @pytest.mark.parametrize("coeff", [{"bits": 0, "re": 1.0}, {"bits": "0", "re": True}])
    def test_non_string_bits_or_boolean_amplitude(self, tmp_path, capsys, coeff):
        data = spec_to_json(ghz_channel(1, Endpoint.SENDER_FIRST))
        data["components"][0]["coeffs"] = [coeff]
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "report.json"
        code = run_cli(["enumerate", "--dist", str(path), "--conc", "preset:ghz(1)",
                        "--input", "1,0+0,0", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: malformed channel description: ")
        assert not out.exists()

    def test_unknown_preset(self):
        code = run_cli([
            "enumerate", "--dist", "preset:wat", "--conc", "preset:smolin",
            "--input", "1,0+0,0",
        ])
        assert code == 2

    def test_usage_error(self, capsys):
        assert run_cli(["bogus"]) == 2
        assert run_cli([]) == 2

    def test_endpoint_preset_mismatch(self):
        code = run_cli([
            "enumerate", "--dist", "preset:telecloning-conc", "--conc", "preset:smolin",
            "--input", "1,0+0,0",
        ])
        assert code == 2


class TestReports:
    def test_config_embeds_channels(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli([
            "enumerate", "--dist", "preset:telecloning", "--conc", "preset:smolin",
            "--input", "0.6,0+0.8,0", "--output", str(out),
        ])
        report = load_report(out)
        cfg = report["config"]
        assert cfg["command"] == "enumerate"
        assert cfg["n_parties"] == 3
        assert cfg["dist_channel"]["components"][0]["coeffs"][0]["bits"] == "000"
        assert len(cfg["conc_channel"]["components"]) == 4
        assert cfg["faithfulness_guaranteed"] is True

    def test_simulate_single_branch(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli([
            "simulate", "--dist", "preset:ghz(1)", "--conc", "preset:ghz(1)",
            "--input", "random", "--seed", "9", "--output", str(out),
        ])
        assert code == 0
        report = load_report(out)
        assert len(report["branches"]) == 1
        assert report["branches"][0]["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_enumerate_mode_fixed(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([
                "enumerate", "--dist", "x", "--conc", "y", "--input", "1,0+0,0",
                "--mode", "sampled",
            ])

    def test_stdout_when_no_output_flag(self, capsys):
        code = run_cli([
            "enumerate", "--dist", "preset:ghz(1)", "--conc", "preset:ghz(1)",
            "--input", "1,0+0,0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["summary"]["total_prob"] == pytest.approx(1.0, abs=1e-9)
        assert "branch(es)" in captured.err


STAMP = "2000-01-01T00:00:00+00:00"


def reference_text(command, dist, conc, input_text, mode="exhaustive", seed=None):
    """A report as the plain dict of every field, branches from
    ``OutcomeReport.to_json``, through json.dumps."""
    rng = as_rng(seed) if seed is not None else None
    dist = resolve_channel_arg(dist, Endpoint.SENDER_FIRST)
    conc = resolve_channel_arg(conc, Endpoint.RECEIVER_LAST)
    inp = parse_input_spec(input_text, rng)
    reports = run_end_to_end(inp, dist, conc, mode=mode, seed=rng)
    fids = [r.fidelity for r in reports if r.fidelity is not None]
    report = {
        "config": {
            "command": command,
            "mode": mode,
            "seed": seed,
            "input": {
                "alpha": [inp.alpha.real, inp.alpha.imag],
                "beta": [inp.beta.real, inp.beta.imag],
            },
            "dist_channel": spec_to_json(dist),
            "conc_channel": spec_to_json(conc),
            "n_parties": dist.n_parties,
            "faithfulness_guaranteed": dist.faithfulness_guaranteed
            and conc.faithfulness_guaranteed,
        },
        "branches": [r.to_json() for r in reports],
        "summary": {
            "total_prob": sum(r.joint_prob for r in reports),
            "min_fidelity": min(fids) if fids else None,
            "verdicts": [],
        },
        "timestamp": STAMP,
    }
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def first_mismatch(text, expected):
    """The first line where two texts differ, as (line number, line, expected
    line), or None: pytest's own diff of two long strings takes minutes."""
    pairs = itertools.zip_longest(text.splitlines(True), expected.splitlines(True))
    return next(((i, a, b) for i, (a, b) in enumerate(pairs, 1) if a != b), None)


class TestReportBytes:
    """The CLI renders branches from a text template; the report must stay
    byte for byte what json.dumps writes for the whole report dict."""

    @pytest.fixture(autouse=True)
    def fixed_timestamp(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "_timestamp", lambda: STAMP)

    def check(self, tmp_path, command, dist, conc, input_text, mode="exhaustive", seed=None):
        out = tmp_path / "report.json"
        argv = [command, "--dist", dist, "--conc", conc, f"--input={input_text}", "--output", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert run_cli(argv) == 0
        text = out.read_text(encoding="utf-8")
        assert first_mismatch(text, reference_text(command, dist, conc, input_text, mode, seed)) is None
        return text

    def test_telecloning(self, tmp_path):
        self.check(tmp_path, "enumerate", "preset:telecloning", "preset:telecloning-conc",
                   "0.6,0+0.8,0")

    def test_smolin_signed_zero_input(self, tmp_path):
        text = self.check(tmp_path, "enumerate", "preset:telecloning", "preset:smolin",
                          "-0.6,-0.0+0,0.8")
        assert "-0.0" in text

    def test_ghz_random_input(self, tmp_path):
        self.check(tmp_path, "enumerate", "preset:ghz(3)", "preset:ghz(3)", "random", seed=4)

    def test_null_sender_records_from_files(self, tmp_path):
        dist, conc = dict(agreement_cases())["custom-null"]
        paths = [str(tmp_path / "dist.json"), str(tmp_path / "conc.json")]
        save_channel(dist, paths[0])
        save_channel(conc, paths[1])
        a, b = complex(NULL_SENDER_INPUT.alpha), complex(NULL_SENDER_INPUT.beta)
        text = self.check(tmp_path, "enumerate", *paths, f"{a.real!r},{a.imag!r}+{b.real!r},{b.imag!r}")
        assert '"bobs": []' in text and '"correction": null' in text and '"fidelity": null' in text

    def test_sampled_simulate(self, tmp_path):
        self.check(tmp_path, "simulate", "preset:telecloning", "preset:smolin", "random",
                   mode="sampled", seed=42)

    def test_mixtures_on_both_sides_from_files(self, tmp_path):
        gen = np.random.default_rng(21)
        paths = []
        for endpoint, weights in ((Endpoint.SENDER_FIRST, (0.375, 0.625)),
                                  (Endpoint.RECEIVER_LAST, (0.5, 0.25, 0.25))):
            parts = [random_channel(Variant.PARITY, 3, endpoint, gen).components[0].coeffs for _ in weights]
            paths.append(str(tmp_path / f"{endpoint.value}.json"))
            save_channel(mixed_channel(Variant.PARITY, 3, endpoint, list(zip(weights, parts))), paths[-1])
        text = self.check(tmp_path, "enumerate", *paths, "random", seed=8)
        assert '"component": 5' in text

    def test_domino_n5_from_files(self, tmp_path):
        gen = np.random.default_rng(22)
        paths = [str(tmp_path / "dist.json"), str(tmp_path / "conc.json")]
        for endpoint, path in zip((Endpoint.SENDER_FIRST, Endpoint.RECEIVER_LAST), paths):
            save_channel(random_channel(Variant.DOMINO, 5, endpoint, gen), path)
        self.check(tmp_path, "enumerate", *paths, "random", seed=9)

    def test_stdout(self, capsys):
        argv = ["enumerate", "--dist", "preset:ghz(2)", "--conc", "preset:ghz(2)",
                "--input", "0.6,0+0.8,0"]
        assert run_cli(argv) == 0
        expected = reference_text("enumerate", "preset:ghz(2)", "preset:ghz(2)", "0.6,0+0.8,0")
        assert first_mismatch(capsys.readouterr().out, expected) is None


# Floats the branch memo must keep apart or share: both zeros, the smallest
# subnormal, json's switch to exponent notation on both sides, and repeats.
_BRANCH_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 0.0001, 1e16, 1e15, 0.25, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _rows(draw):
    """Rows as ``_branch_rows`` returns them, some sharing one outcome and
    label column as exhaustive rows do, with empty bobs and None fidelities."""
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(0, 5))
        columns.append((
            tuple(tuple(draw(st.lists(st.sampled_from(BELL_OUTCOMES), max_size=3))) for _ in range(size)),
            tuple(draw(st.sampled_from([None, *PauliLabel])) for _ in range(size)),
        ))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        outcomes, labels = draw(st.sampled_from(columns))
        size = len(outcomes)
        rows.append((
            draw(st.integers(0, 20)),
            draw(st.sampled_from(BELL_OUTCOMES)),
            draw(st.lists(_BRANCH_FLOATS, min_size=size, max_size=size)),
            draw(st.lists(st.none() | _BRANCH_FLOATS, min_size=size, max_size=size)),
            outcomes,
            labels,
        ))
    return rows


class TestBranchRender:
    """The branch text comes from per-report memos, never per-branch
    ``OutcomeReport``s; it must still be json.dumps's text for every row."""

    @staticmethod
    def expected(rows):
        branches = [
            {"alice": alice.value, "bobs": [o.value for o in bobs], "component": index,
             "correction": None if label is None else label.value, "fidelity": fid, "joint_prob": joint}
            for index, alice, joints, fids, outcomes, labels in rows
            for joint, fid, bobs, label in zip(joints, fids, outcomes, labels)
        ]
        fids = [b["fidelity"] for b in branches if b["fidelity"] is not None]
        text = json.dumps({"branches": branches, "~": 0}, indent=2, sort_keys=True, allow_nan=False)
        return text[:text.index('\n  "~"')], min(fids) if fids else None

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_rows())
    def test_text_is_json_dumps(self, rows):
        head, fids = cli_mod._branches_head(rows)
        text, low = self.expected(rows)
        assert "".join(head) == text
        assert repr(min(fids) if fids else None) == repr(low)

    def test_signed_zeros_keep_their_texts(self):
        column = ((BellOutcome.PHI_PLUS,),) * 4, (PauliLabel.I,) * 4
        rows = [(0, BellOutcome.PSI_PLUS, [0.0, -0.0, -0.0, 0.0], [-0.0, 0.0, None, -0.0], *column)]
        head, fids = cli_mod._branches_head(rows)
        assert "".join(head) == self.expected(rows)[0]
        assert "".join(head).count('"joint_prob": -0.0\n') == 2
        assert repr(min(fids)) == "-0.0"

    @pytest.mark.parametrize("joint, fid", [(math.nan, 0.5), (0.5, math.inf), (-math.inf, None)])
    def test_non_finite_raises(self, joint, fid):
        column = ((BellOutcome.PHI_PLUS,),) * 2, (PauliLabel.I,) * 2
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli_mod._branches_head([(0, BellOutcome.PSI_PLUS, [0.5, joint], [0.5, fid], *column)])

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--dist", "preset:telecloning", "--conc", "preset:smolin", "--input", "0.6,0+0.8,0"],
        ["simulate", "--dist", "preset:telecloning", "--conc", "preset:smolin", "--input", "random",
         "--seed", "3"],
        ["simulate", "--dist", "preset:ghz(2)", "--conc", "preset:ghz(2)", "--input", "random",
         "--seed", "3", "--mode", "exhaustive"],
    ])
    def test_cli_builds_no_report(self, tmp_path, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("the CLI built an OutcomeReport")

        monkeypatch.setattr(protocol_mod, "OutcomeReport", refuse)
        out = tmp_path / "report.json"
        assert run_cli([*argv, "--output", str(out)]) == 0
        assert load_report(out)["branches"]


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), max_size=6)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(10**40)]),
    _BRANCH_FLOATS,
    _BRANCH_FLOATS.map(np.float64),
    _TEXT,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


class _Label(str, enum.Enum):
    A = "a\"b"


class _Count(enum.IntEnum):
    TWO = 2


class TestJsonText:
    """``_json_text`` must write what ``json.dumps(indent=2, sort_keys=True,
    allow_nan=False)`` writes, for every value a report can hold."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_VALUES)
    def test_text_is_json_dumps(self, value):
        assert cli_mod._json_text(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        {"b": _Label.A, "a": [_Count.TWO, np.float64(-0.0)]},
        OrderedDict([("z", 1), ("a", {})]),
        [[], {}, (), ""],
        {"": {"": [{"": None}]}},
        type("Floats", (list,), {})([1e16, 1e-05]),
    ])
    def test_subclasses_and_empties(self, value):
        assert cli_mod._json_text(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        math.nan,
        [1.0, math.inf],
        {"a": {"b": (0.5, -math.inf)}},
        {"x": [np.float64(math.nan)]},
    ])
    def test_non_finite_raises_json_error(self, value):
        with pytest.raises(ValueError) as want:
            dumps(value)
        with pytest.raises(ValueError) as got:
            cli_mod._json_text(value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("value", [{1, 2}, [np.int64(3)], {"a": object()}, {1: "x"}])
    def test_unsupported_types_raise(self, value):
        with pytest.raises(TypeError):
            cli_mod._json_text(value)

    def test_verify_report_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_mod, "_timestamp", lambda: STAMP)
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", "faithfulness", "--n", "1", "--seed", "2", "--tolerance", "1e-18"]
        assert run_cli([*argv, "--output", str(out)]) == 1
        verdicts = run_suite("faithfulness", seed=2, n=1, tolerance=1e-18)
        expected = {
            "config": {"command": "verify", "suite": "faithfulness", "seed": 2, "n": 1,
                       "tolerance": 1e-18},
            "branches": [],
            "summary": {"total_prob": None, "min_fidelity": None,
                        "verdicts": [v.to_json() for v in verdicts]},
            "timestamp": STAMP,
        }
        assert out.read_text(encoding="utf-8") == dumps(expected) + "\n"

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--dist", "preset:telecloning", "--conc", "preset:smolin", "--input", "0.6,0+0.8,0"],
        ["simulate", "--dist", "preset:telecloning", "--conc", "preset:smolin", "--input", "random",
         "--seed", "3"],
        ["simulate", "--dist", "preset:ghz(2)", "--conc", "preset:ghz(2)", "--input", "random",
         "--seed", "3", "--mode", "exhaustive"],
        ["verify", "--suite", "clone", "--seed", "1"],
    ])
    def test_cli_calls_no_json_dumps(self, tmp_path, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the CLI called json's encoder")

        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
        out = tmp_path / "report.json"
        assert run_cli([*argv, "--output", str(out)]) == 0
        assert load_report(out)["summary"]


class TestParserReuse:
    """``main`` parses with one parser per process, so no call may leak
    state into the next."""

    def test_one_parser_per_process(self):
        assert cli_mod._parser() is cli_mod._parser()
        assert build_parser() is not build_parser()

    def test_seed_does_not_carry_over(self, tmp_path):
        out = tmp_path / "report.json"
        common = ["--dist", "preset:ghz(1)", "--conc", "preset:ghz(1)", "--output", str(out)]
        assert run_cli(["simulate", *common, "--input", "random", "--seed", "5"]) == 0
        assert load_report(out)["config"]["seed"] == 5
        assert run_cli(["enumerate", *common, "--input", "1,0+0,0"]) == 0
        assert load_report(out)["config"]["seed"] is None

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        assert run_cli(["enumerate", "--dist", "preset:ghz(1)", "--mode", "sampled"]) == 2
        out = tmp_path / "report.json"
        code = run_cli([
            "enumerate", "--dist", "preset:ghz(1)", "--conc", "preset:ghz(1)",
            "--input", "1,0+0,0", "--output", str(out),
        ])
        assert code == 0
        assert load_report(out)["config"]["mode"] == "exhaustive"


class TestDeterminism:
    def drop_timestamp(self, report):
        report = dict(report)
        report.pop("timestamp")
        return report

    def test_enumerate_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run_cli([
                "enumerate", "--dist", "preset:telecloning",
                "--conc", "preset:telecloning-conc",
                "--input", "0.6,0+0.8,0", "--output", str(path),
            ])
            outs.append(self.drop_timestamp(load_report(path)))
        assert outs[0] == outs[1]

    def test_sampled_deterministic_with_seed(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run_cli([
                "simulate", "--dist", "preset:telecloning", "--conc", "preset:smolin",
                "--input", "random", "--seed", "42", "--output", str(path),
            ])
            outs.append(self.drop_timestamp(load_report(path)))
        assert outs[0] == outs[1]

    def test_verify_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run_cli([
                "verify", "--suite", "even-n", "--seed", "5", "--n", "2",
                "--output", str(path),
            ])
            outs.append(self.drop_timestamp(load_report(path)))
        assert outs[0] == outs[1]


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qrelay.cli", "enumerate",
             "--dist", "preset:ghz(2)", "--conc", "preset:ghz(2)",
             "--input", "0.6,0+0.8,0"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["summary"]["total_prob"] == pytest.approx(1.0, abs=1e-9)
        assert len(report["branches"]) == 64
