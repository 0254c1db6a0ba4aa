"""The benchmark's four workloads: seeded inputs, the cycle of operations
each one repeats, and the correctness gate applied to every operation.

A workload turns its seed into pools of channels at set-up. Cycle ``i``
draws each operation's remaining inputs from a generator seeded with
``(seed, i + 1)``, so the same seed gives the same operations in the same
order however many cycles a run completes. The warm-up operation uses
``(seed, 0)``. How often each operation type appears in a cycle, and its
size, are chosen so that the latency percentiles fall inside one type
rather than on the boundary between two.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from qrelay import cli, protocol, verify
from qrelay.channels import (
    Endpoint,
    Variant,
    random_channel,
    save_channel,
    smolin_channel,
    telecloning_channel,
)

from boundary import BranchTap

PROB_TOL = 1e-9
FIDELITY_TOL = 1e-9
POOL = 4  # seeded channel pairs per operation type; cycles rotate through them


@dataclass
class Outcome:
    """What the gate concluded about one operation's output."""

    ok: bool
    branches: int = 0
    nulls: int = 0
    report_bytes: int = 0
    reason: str = ""


@dataclass
class Op:
    """One call into qrelay: ``getattr(module, func)(*args, **kwargs)``."""

    kind: str
    module: object
    func: str
    args: tuple
    kwargs: dict
    components: int  # distinct channel components among the op's inputs
    check: Callable[[object, list], Outcome] = field(repr=False)


def expected_branches(dist, conc) -> int:
    return 4 * len(dist.components) * len(conc.components) * 4 ** dist.n_parties


def distinct_components(dist, conc) -> int:
    return len({(spec.endpoint, comp) for spec in (dist, conc) for comp in spec.components})


def random_pair(variant: Variant, n: int, rng):
    return (
        random_channel(variant, n, Endpoint.SENDER_FIRST, rng),
        random_channel(variant, n, Endpoint.RECEIVER_LAST, rng),
    )


def _fails(*problems: str) -> Outcome:
    return Outcome(False, reason="; ".join(problems))


def _gate_enumeration(calls, runs: int, expected: int) -> list[str]:
    """Problems with the branch lists verify received from the evaluator."""
    problems = []
    if len(calls) != runs:
        problems.append(f"{len(calls)} evaluator runs, expected {runs}")
    for count, _, total in calls:
        if count != expected:
            problems.append(f"{count} branches, expected {expected}")
        if not abs(total - 1.0) <= PROB_TOL:
            problems.append(f"total probability {total!r}")
    return problems


def gate_faithful(expected: int, trials: int):
    def check(verdict, calls) -> Outcome:
        problems = _gate_enumeration(calls, trials, expected)
        branches = sum(c[0] for c in calls)
        nulls = sum(c[1] for c in calls)
        checked = verdict.details.get("branches_checked")
        if verdict.passed is not True:
            problems.append(f"verdict {verdict.claim_id} did not pass")
        if not (checked and checked > 0) or checked != branches - nulls:
            problems.append(f"branches_checked {checked!r}, non-null branches {branches - nulls}")
        if not verdict.details.get("max_prob_gap", np.nan) <= PROB_TOL:
            problems.append(f"max_prob_gap {verdict.details.get('max_prob_gap')!r}")
        return _fails(*problems) if problems else Outcome(True, branches, nulls)

    return check


def gate_oracle(expected: int, trials: int):
    def check(verdict, calls) -> Outcome:
        problems = _gate_enumeration(calls, trials, expected)
        branches = sum(c[0] for c in calls)
        compared = verdict.details.get("branches_compared")
        if verdict.passed is not True:
            problems.append(f"verdict {verdict.claim_id} did not pass")
        if not (compared and compared > 0) or compared != trials * expected:
            problems.append(f"branches_compared {compared!r}, expected {trials * expected}")
        nulls = sum(c[1] for c in calls)
        return _fails(*problems) if problems else Outcome(True, branches, nulls)

    return check


def _gate_trajectory(branch_count: int, fidelity, joint_prob) -> list[str]:
    problems = []
    if branch_count != 1:
        problems.append(f"{branch_count} branches in a sampled trajectory")
    elif fidelity is None or not fidelity >= 1.0 - FIDELITY_TOL:
        problems.append(f"trajectory fidelity {fidelity!r}")
    elif not 0.0 < joint_prob <= 1.0 + PROB_TOL:
        problems.append(f"trajectory probability {joint_prob!r}")
    return problems


def gate_sampled(reports, calls) -> Outcome:
    if not reports:
        return _fails("no branch in a sampled trajectory")
    problems = _gate_trajectory(len(reports), reports[0].fidelity, reports[0].joint_prob)
    return _fails(*problems) if problems else Outcome(True, 1, 0)


def gate_cli(output_path: str, expected: int | None):
    """``expected`` is the exhaustive branch count, or None for a sampled run."""

    def check(code, calls) -> Outcome:
        # Every op writes the same path: taking the report away means the
        # next op cannot pass on this one's output.
        try:
            with open(output_path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(output_path)
        except FileNotFoundError:
            return _fails(f"no report written (exit code {code!r})")
        if code != 0:
            return _fails(f"exit code {code!r}")
        report = json.loads(text)
        branches = report["branches"]
        summary = report["summary"]
        nulls = sum(1 for b in branches if b["fidelity"] is None)
        if expected is None:
            b = branches[0] if branches else {}
            problems = _gate_trajectory(len(branches), b.get("fidelity"), b.get("joint_prob"))
        else:
            problems = []
            if len(branches) != expected:
                problems.append(f"{len(branches)} branches, expected {expected}")
            if not abs(summary["total_prob"] - 1.0) <= PROB_TOL:
                problems.append(f"total_prob {summary['total_prob']!r}")
            low = summary["min_fidelity"]
            if low is None or not low >= 1.0 - FIDELITY_TOL:
                problems.append(f"min_fidelity {low!r}")
        if problems:
            return _fails(*problems)
        return Outcome(True, len(branches), nulls, len(text.encode("utf-8")))

    return check


class Workload:
    name = ""
    speed_kernel = "interp"  # the speed.py kernel that scales this workload's timings

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tap = BranchTap(verify, "run_end_to_end")
        self.setup(np.random.default_rng(seed))

    def setup(self, rng) -> None:
        raise NotImplementedError

    def ops(self, cycle: int, rng) -> list[Op]:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        return self.ops(index, np.random.default_rng([self.seed, index + 1]))

    def warmup_op(self) -> Op:
        return self.ops(0, np.random.default_rng([self.seed, 0]))[0]

    def close(self) -> None:
        self.tap.remove()


def _op_seed(rng) -> int:
    return int(rng.integers(2**31))


class _VerdictWorkload(Workload):
    """One op is one ``qrelay.verify`` claim check on a channel pair.

    ``configs`` rows are (kind, variant, n, trials, ops per cycle); a cycle
    interleaves the kinds round-robin.
    """

    func = ""
    gate = None
    configs: tuple = ()

    def setup(self, rng) -> None:
        self.pools = {}
        for kind, variant, n, _, _ in self.configs:
            if variant is None:
                self.pools[kind] = [(telecloning_channel(), smolin_channel())]
            else:
                self.pools[kind] = [random_pair(variant, n, rng) for _ in range(POOL)]

    def ops(self, cycle, rng):
        out = []
        for rnd in range(max(c[4] for c in self.configs)):
            for kind, _, _, trials, count in self.configs:
                if rnd >= count:
                    continue
                pool = self.pools[kind]
                dist, conc = pool[(cycle * count + rnd) % len(pool)]
                out.append(Op(
                    kind, verify, self.func, (dist, conc),
                    {"trials": trials, "seed": _op_seed(rng)},
                    distinct_components(dist, conc),
                    self.gate(expected_branches(dist, conc), trials),
                ))
        return out


class FaithfulExhaustive(_VerdictWorkload):
    name = "faithful-exhaustive"
    func = "check_faithful"
    gate = staticmethod(gate_faithful)
    # One input per op; branches per op: parity n=3 256, domino n=4 and
    # telecloning-smolin 1024, parity/domino n=5 4096, domino n=6 16384.
    # A cycle of 25 ops sorts into 4 parity n=3, 17 ops of 1024 branches,
    # 3 of n=5 and 1 of n=6. So the p50 (op 12.5) lies in the middle of the
    # 1024-branch ops, and the p90 (op 22.5) in the middle of the n=5 ops.
    configs = (
        ("parity-n3", Variant.PARITY, 3, 1, 4),
        ("domino-n4", Variant.DOMINO, 4, 1, 9),
        ("telecloning-smolin", None, 3, 1, 8),
        ("parity-n5", Variant.PARITY, 5, 1, 2),
        ("domino-n5", Variant.DOMINO, 5, 1, 1),
        ("domino-n6", Variant.DOMINO, 6, 1, 1),
    )


class OracleCrosscheck(_VerdictWorkload):
    name = "oracle-crosscheck"
    func = "oracle_agreement"
    gate = staticmethod(gate_oracle)
    # Each op compares 1024 branches; with seven kinds the p50 and p90 fall
    # inside one kind. Parity n=3 comes first so that the warm-up op fills
    # the oracle's largest projection matrices.
    configs = (
        ("parity-n3", Variant.PARITY, 3, 4, 1),
        ("parity-n1", Variant.PARITY, 1, 64, 1),
        ("parity-n2", Variant.PARITY, 2, 16, 1),
        ("domino-n1", Variant.DOMINO, 1, 64, 1),
        ("domino-n2", Variant.DOMINO, 2, 16, 1),
        ("domino-n3", Variant.DOMINO, 3, 4, 1),
        ("telecloning-smolin", None, 3, 1, 1),
    )


class SampledWide(Workload):
    """One op is one sampled trajectory through 15- to 19-qubit joint states."""

    name = "sampled-wide"
    speed_kernel = "memory"
    # Trajectories per cycle by n: the p50 lies in the middle of the n=8
    # ops and the p90 in the middle of the n=9 ones.
    counts = {7: 1, 8: 3, 9: 1}

    def setup(self, rng) -> None:
        self.pools = {n: [random_pair(Variant.DOMINO, n, rng) for _ in range(POOL)] for n in self.counts}

    def ops(self, cycle, rng):
        out = []
        for n, count in self.counts.items():
            for rnd in range(count):
                dist, conc = self.pools[n][(cycle * count + rnd) % POOL]
                out.append(Op(
                    f"domino-n{n}", protocol, "run_end_to_end",
                    (protocol.random_input(rng), dist, conc),
                    {"mode": "sampled", "seed": _op_seed(rng)},
                    distinct_components(dist, conc), gate_sampled,
                ))
        return out


def _input_text(qubit) -> str:
    a, b = qubit.alpha, qubit.beta
    return f"{a.real!r},{a.imag!r}+{b.real!r},{b.imag!r}"


class CliEnumerate(Workload):
    """One op is one in-process ``qrelay`` command writing its report to a file."""

    name = "cli-enumerate"

    def setup(self, rng) -> None:
        self.output = os.path.join(self.workdir, "report.json")
        self.files = {}
        for variant, n in ((Variant.PARITY, 3), (Variant.DOMINO, 4)):
            self.files[variant] = []
            for i in range(POOL):
                paths = tuple(
                    os.path.join(self.workdir, f"{variant.value}{n}-{i}-{side}.json")
                    for side in ("dist", "conc")
                )
                for path, spec in zip(paths, random_pair(variant, n, rng)):
                    save_channel(spec, path)
                self.files[variant].append(paths)
        self.specs = {}

    def _spec(self, arg: str, endpoint: Endpoint):
        key = (arg, endpoint)
        if key not in self.specs:
            self.specs[key] = cli.resolve_channel_arg(arg, endpoint)
        return self.specs[key]

    def _op(self, kind, command, dist, conc, extra, sampled):
        dist_spec = self._spec(dist, Endpoint.SENDER_FIRST)
        conc_spec = self._spec(conc, Endpoint.RECEIVER_LAST)
        argv = [command, "--dist", dist, "--conc", conc, *extra, "--output", self.output]
        return Op(
            kind, cli, "main", (argv,), {},
            distinct_components(dist_spec, conc_spec),
            gate_cli(self.output, None if sampled else expected_branches(dist_spec, conc_spec)),
        )

    def ops(self, cycle, rng):
        parity = self.files[Variant.PARITY][cycle % POOL]
        domino = self.files[Variant.DOMINO][cycle % POOL]

        def given_input():
            # One token, because the text may start with a minus sign.
            return [f"--input={_input_text(protocol.random_input(rng))}"]

        return [
            self._op("enumerate-telecloning", "enumerate", "preset:telecloning",
                     "preset:telecloning-conc", given_input(), False),
            self._op("enumerate-smolin", "enumerate", "preset:telecloning", "preset:smolin",
                     given_input(), False),
            self._op("enumerate-ghz", "enumerate", "preset:ghz(3)", "preset:ghz(3)",
                     given_input(), False),
            self._op("enumerate-json-parity", "enumerate", *parity, given_input(), False),
            self._op("simulate-json-domino", "simulate", *domino,
                     ["--input", "random", "--seed", str(_op_seed(rng))], True),
        ]


WORKLOADS = {w.name: w for w in (FaithfulExhaustive, OracleCrosscheck, SampledWide, CliEnumerate)}
