"""Command-line front end.

Three subcommands: ``simulate`` (one sampled trajectory by default),
``enumerate`` (every measurement branch), and ``verify`` (claim-level check
suites). All emit a single JSON report — to stdout or ``--output`` — that
embeds the resolved channel coefficients so runs are self-describing, plus
a short human summary on stderr. Exit codes: 0 success (and, for verify,
all claims passed), 1 failed claim, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _json_str

from .bell import BellOutcome, PauliLabel, as_rng
from .channels import (
    ChannelValidationError,
    Endpoint,
    load_channel,
    resolve_preset,
    spec_to_json,
)
from .protocol import InputQubit, _branch_rows, random_input
from .statevec import CapacityError
from .verify import SUITES, run_suite

# Split "aRe,aIm+bRe,bIm" on the pair separator without biting into
# exponents like 1e+05.
_PAIR_SPLIT = re.compile(r"(?<![eE])\+")

_PRESET_PREFIX = "preset:"


def parse_input_spec(text: str, rng=None) -> InputQubit:
    """Parse the --input flag: 'random' or two comma-separated re,im pairs
    joined by '+'."""
    if text == "random":
        if rng is None:
            raise ValueError("--input random requires --seed")
        return random_input(rng)
    parts = _PAIR_SPLIT.split(text)
    if len(parts) != 2:
        raise ValueError(f"input: expected 'aRe,aIm+bRe,bIm' or 'random', got {text!r}")
    pair = []
    for part in parts:
        nums = part.split(",")
        if len(nums) != 2:
            raise ValueError(f"input: {part!r} is not a 're,im' pair")
        pair.append(complex(float(nums[0]), float(nums[1])))
    return InputQubit(pair[0], pair[1])


def resolve_channel_arg(arg: str, endpoint: Endpoint):
    """Turn a --dist/--conc value ('preset:NAME' or a JSON path) into a
    channel for the given side."""
    if arg.startswith(_PRESET_PREFIX):
        return resolve_preset(arg[len(_PRESET_PREFIX):], endpoint)
    spec = load_channel(arg)
    if spec.endpoint is not endpoint:
        raise ChannelValidationError(
            f"endpoint: {arg} is a '{spec.endpoint.value}'-side channel, expected '{endpoint.value}'"
        )
    return spec


def _tolerance_arg(text: str) -> float:
    """Parse the --tolerance flag: a finite, non-negative number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrelay",
        description="Simulate and verify relay protocols that distribute a qubit "
        "over many parties and concentrate it back onto one receiver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p, modes, default_mode):
        p.add_argument("--dist", required=True,
                       help="sender-side channel: JSON path or preset:NAME")
        p.add_argument("--conc", required=True,
                       help="receiver-side channel: JSON path or preset:NAME")
        p.add_argument("--input", required=True,
                       help="input qubit as 'aRe,aIm+bRe,bIm', or 'random' (needs --seed)")
        p.add_argument("--mode", choices=modes, default=default_mode)
        p.add_argument("--seed", type=int, help="RNG seed (required for sampling)")
        p.add_argument("--output", help="write the JSON report to this path instead of stdout")

    sim = sub.add_parser("simulate", help="run the protocol, sampling one trajectory by default")
    add_run_flags(sim, ("sampled", "exhaustive"), "sampled")
    enum = sub.add_parser("enumerate", help="enumerate every measurement branch exhaustively")
    add_run_flags(enum, ("exhaustive",), "exhaustive")

    ver = sub.add_parser("verify", help="run claim-level verification suites")
    ver.add_argument("--suite", default="all", choices=SUITES)
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--n", type=int,
                     help="restrict the faithfulness and even-n checks to one party count "
                     "(suites 'all', 'faithfulness' and 'even-n' only; any other suite rejects "
                     "it). Parity faithfulness runs only at odd n and even-n only at even n: "
                     "'all' skips the one that does not fit, 'even-n' rejects an odd n")
    ver.add_argument("--tolerance", type=_tolerance_arg,
                     help="override the faithfulness tolerance (suites 'all' and "
                     "'faithfulness' only; any other suite rejects it)")
    ver.add_argument("--output", help="write the JSON report to this path instead of stdout")
    return parser


# One branch as json.dumps(indent=2, sort_keys=True) writes it in "branches", led by its separator,
# in five pieces: _ALICE and _COMPONENT filled once per row, the bobs and correction texts once per
# outcome column, and _FLOATS once per distinct (fidelity, joint probability) pair.
_ALICE = ',\n    {\n      "alice": %s,\n      "bobs": '
_COMPONENT = ',\n      "component": %d,\n      "correction": '
_FLOATS = ',\n      "fidelity": %s,\n      "joint_prob": %s\n    }'


def _json_float(x) -> str:
    """``x`` as json writes a float: its repr, or null for None."""
    if x is not None and not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return "null" if x is None else float.__repr__(x)


def _json_text(value, indent: str = "\n") -> str:
    """``value`` exactly as ``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``
    writes it, for dicts with str keys, lists, tuples, str, int, bool, None and float, subclasses
    included. ``indent`` is the line break and indentation of ``value``'s own nesting level.

    json's indent encoder runs in pure Python; this dispatches on the exact type, floats first as
    the most common leaf, and falls back to json's isinstance order for subclasses."""
    kind = type(value)
    if kind is float:
        return _json_float(value)
    if kind is str:
        return _json_str(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_json_str(k) + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + indent + "]"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, (list, tuple)):
        return _json_text(list(value), indent)
    if isinstance(value, dict):
        return _json_text(dict(value.items()), indent)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# json's text of each outcome, label and None, keyed by id() as Enum.__hash__ runs as Python code
# in 3.11: these objects live as long as the process, so no id is reused.
_NAMES = {id(m): _json_text(None if m is None else m.value) for m in (None, *BellOutcome, *PauliLabel)}


def _bobs_text(outcomes) -> str:
    items = ",\n        ".join(map(_NAMES.__getitem__, map(id, outcomes)))
    return f"[\n        {items}\n      ]" if items else "[]"


def _branches_head(rows) -> tuple[list[str], list[float]]:
    """A report's opening brace and "branches" entry, its first key in sorted order, with each
    branch of the ``_branch_rows`` rows exactly as json.dumps writes its dict; and the non-None
    fidelity of each first branch of a distinct (fidelity, joint probability) pair, in report
    order, whose min is the same float as the min of every fidelity."""
    texts = {}  # per outcome or label column, keyed by id(): `rows` keeps every column alive
    floats = {}  # per pair; a zero keys as its repr, so 0.0 and -0.0 keep their own texts
    fidelities = []
    chunks = ['{\n  "branches": [']
    for index, alice, joints, fids, outcomes, labels in rows:
        bobs = texts.get(id(outcomes))
        if bobs is None:
            bobs = texts[id(outcomes)] = list(map(_bobs_text, outcomes))
        corrections = texts.get(id(labels))
        if corrections is None:
            corrections = texts[id(labels)] = [_NAMES[id(label)] for label in labels]
        head, mid = _ALICE % _NAMES[id(alice)], _COMPONENT % index
        pieces = []
        extend = pieces.extend
        for bob, correction, fid, joint in zip(bobs, corrections, fids, joints):
            key = (fid or repr(fid), joint or repr(joint))
            tail = floats.get(key)
            if tail is None:
                tail = floats[key] = _FLOATS % (_json_float(fid), _json_float(joint))
                if fid is not None:
                    fidelities.append(fid)
            extend((head, bob, mid, correction, tail))
        if pieces:  # one text per row, so no copy of the whole report is held
            chunks.append("".join(pieces))
    if len(chunks) > 1:
        chunks[1] = chunks[1][1:]
    chunks.append("\n  ]," if len(chunks) > 1 else "],")
    return chunks, fidelities


def _emit(report: dict, output: str | None, head: list[str] | None = None) -> None:
    """Write ``report`` as two-space-indented, key-sorted strict JSON and a
    newline, with ``head`` from ``_branches_head`` for its opening brace.
    ``_json_text`` writes the report before the file opens, so a
    non-finite float raises json's ``ValueError`` and leaves no file."""
    text = _json_text(report)
    pieces = (text, "\n") if head is None else itertools.chain(head, (text[1:], "\n"))
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _run_protocol(args) -> int:
    if args.mode == "sampled" and args.seed is None:
        raise ValueError("sampled mode requires --seed")
    rng = as_rng(args.seed) if args.seed is not None else None
    dist = resolve_channel_arg(args.dist, Endpoint.SENDER_FIRST)
    conc = resolve_channel_arg(args.conc, Endpoint.RECEIVER_LAST)
    inp = parse_input_spec(args.input, rng)
    rows = _branch_rows(inp, dist, conc, args.mode, rng)
    head, fids = _branches_head(rows)
    # One sum over every joint probability in report order, as over one list.
    total = sum(itertools.chain.from_iterable(row[2] for row in rows))
    report = {
        "config": {
            "command": args.command,
            "mode": args.mode,
            "seed": args.seed,
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
        "summary": {
            "total_prob": total,
            "min_fidelity": min(fids) if fids else None,
            "verdicts": [],
        },
        "timestamp": _timestamp(),
    }
    _emit(report, args.output, head)
    line = f"{sum(len(row[2]) for row in rows)} branch(es); total probability {total:.9f}"
    if fids:
        line += f"; min fidelity {min(fids):.9f}"
    print(line, file=sys.stderr)
    return 0


def _run_verify(args) -> int:
    verdicts = run_suite(args.suite, seed=args.seed, n=args.n, tolerance=args.tolerance)
    report = {
        "config": {
            "command": "verify",
            "suite": args.suite,
            "seed": args.seed,
            "n": args.n,
            "tolerance": args.tolerance,
        },
        "branches": [],
        "summary": {
            "total_prob": None,
            "min_fidelity": None,
            "verdicts": [v.to_json() for v in verdicts],
        },
        "timestamp": _timestamp(),
    }
    _emit(report, args.output)
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(
            f"{status} {v.claim_id} (worst deviation {v.worst_deviation:.3e}, "
            f"tolerance {v.tolerance:.1e})",
            file=sys.stderr,
        )
    return 0 if all(v.passed for v in verdicts) else 1


# One parser per process: building it costs about ten times a parse.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _run_verify(args)
        return _run_protocol(args)
    except (ChannelValidationError, CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
