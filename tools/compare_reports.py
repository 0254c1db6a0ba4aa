"""Compare the evaluator's reports of two qrelay source trees, branch by branch.

    python tools/compare_reports.py SRC_A SRC_B [--seeds N]

Each SRC is a directory holding the ``qrelay`` package (``src`` of a checkout). Both trees are
loaded side by side in one process, as two separately named packages, and each runs the same
fixed list of channel pairs (drawn from its own ``random_channel`` with the same seeds) and
inputs in both modes: exhaustive runs on pairs whose plans hold forms (pure pairs to n = 5 and
telecloning->Smolin) and on pairs that run the kernel on every trial (domino n = 6, a two-component
domino receiver mixture at n = 5, and the ill-conditioned custom-null), sampled trajectories at
n = 1..9, and on a custom mixture at n = 8 whose sender components hold different supports. One
line per mode and pair kind gives the branch count, whether
every key (component, sender and party outcomes, correction) matches, the null flips, how many
joint probabilities and fidelities are identical floats, and the largest gap of each. Exits 1
unless every report of the two trees is the same, float for float.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

EXHAUSTIVE = [("parity", 1), ("domino", 2), ("parity", 3), ("domino", 4), ("parity", 5), ("domino", 5),  # forms
              ("domino", 6)]  # the kernel on every trial
SAMPLED = [("domino", n) for n in range(1, 10)] + [("parity", n) for n in (1, 3, 5, 7, 9)]
SAMPLED_RUNS = 4  # trajectories per pair and input


def load(src: str, name: str):
    """The ``qrelay`` package under ``src``, imported as the top-level package ``name``."""
    init = Path(src, "qrelay", "__init__.py")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def custom_mixture(q, n: int, endpoint, gen):
    """A two-component custom channel whose components hold different random supports of 12 strings:
    a sampled run starts on strings that the drawn party vector does not hold."""
    comps = []
    for weight in (0.35, 0.65):
        keys = gen.choice(1 << n, size=12, replace=False)
        amps = gen.normal(size=12) + 1j * gen.normal(size=12)
        comps.append((weight, dict(zip((format(k, f"0{n}b") for k in keys), amps / np.linalg.norm(amps)))))
    return q.mixed_channel(q.Variant.CUSTOM, n, endpoint, comps)


def pairs(q, seed: int):
    """(kind, mode, dist, conc) for every pair run at ``seed``."""
    gen = np.random.default_rng(seed)
    sender, receiver = q.Endpoint.SENDER_FIRST, q.Endpoint.RECEIVER_LAST
    for mode, sizes in (("exhaustive", EXHAUSTIVE), ("sampled", SAMPLED)):
        for variant, n in sizes:
            v = q.Variant(variant)
            pair = q.random_channel(v, n, sender, gen), q.random_channel(v, n, receiver, gen)
            yield f"{variant}-n{n}", mode, *pair
    yield "custom-mixture-n8", "sampled", *(custom_mixture(q, 8, e, gen) for e in (sender, receiver))
    # Two receiver components at n = 5 make forms too large to hold: the kernel on every trial at that size.
    comps = [dict(q.random_channel(q.Variant.DOMINO, 5, receiver, gen).components[0].coeffs) for _ in range(2)]
    yield "domino-n5-mixed", "exhaustive", q.random_channel(q.Variant.DOMINO, 5, sender, gen), q.mixed_channel(
        q.Variant.DOMINO, 5, receiver, list(zip((0.4, 0.6), comps)))
    sq = 1 / math.sqrt(2)
    # The |+> input nulls two sender rows of the first component.
    null = (q.mixed_channel(q.Variant.CUSTOM, 2, sender, [(0.5, {"00": sq, "11": sq}),
                                                          (0.5, {"01": 0.6, "10": 0.8})]),
            q.mixed_channel(q.Variant.CUSTOM, 2, receiver, [(0.4, {"00": 1.0}), (0.6, {"01": sq, "10": sq})]))
    for mode in ("exhaustive", "sampled"):
        yield "telecloning-smolin", mode, q.telecloning_channel(), q.smolin_channel()
        yield "custom-null", mode, *null


def reports(q, seed: int):
    """{(kind, mode): [branch as (key, joint, fidelity) or the error's text]} of one tree at ``seed``."""
    gen = np.random.default_rng(1000 + seed)
    sq = 1 / math.sqrt(2)
    inputs = [q.InputQubit(1, 0), q.InputQubit(sq, sq)] + [q.random_input(gen) for _ in range(3)]
    out: dict[tuple, list] = {}
    for kind, mode, dist, conc in pairs(q, seed):
        rows = out.setdefault((kind, mode), [])
        for i, inp in enumerate(inputs):
            for run in range(SAMPLED_RUNS if mode == "sampled" else 1):
                try:
                    found = q.run_end_to_end(inp, dist, conc, mode=mode, seed=seed * 1000 + i * 10 + run)
                except Exception as exc:  # a refusal is compared as its text
                    rows.append(f"{type(exc).__name__}: {exc}")
                    continue
                rows += [((r.component_index, r.alice_outcome.value, tuple(o.value for o in r.bob_outcomes),
                           r.correction and r.correction.value), r.joint_prob, r.fidelity) for r in found]
    return out


def same_float(x, y) -> bool:
    return x is y or None not in (x, y) and x.hex() == y.hex()


def gap(x, y) -> float:
    if x is None or y is None:
        return 0.0 if x is y else math.inf
    return 0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(x - y)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--seeds", type=int, default=3, help="channel seeds 0..N-1 (default 3)")
    args = parser.parse_args(argv)
    trees = [load(src, f"qrelay_{tag}") for src, tag in ((args.src_a, "a"), (args.src_b, "b"))]
    rows: dict[tuple, list] = {}  # per (kind, mode): both trees' rows over every seed
    for seed in range(args.seeds):
        runs = [reports(q, seed) for q in trees]
        for key, rows_a in runs[0].items():
            rows.setdefault(key, []).append((rows_a, runs[1][key]))
    same = True
    print(f"{'mode':<11} {'pair':<19} {'branches':>8} {'keys':>5} {'null flips':>10} {'same joint':>10}"
          f" {'same fid':>9} {'max joint gap':>13} {'max fid gap':>11}")
    for (kind, mode), runs in rows.items():
        if any(len(a) != len(b) or a != b and any(isinstance(r, str) for r in a + b) for a, b in runs):
            same = False
            print(f"{mode:<11} {kind:<19} DIFFERENT refusals or branch counts")
            continue
        both = [(a, b) for run_a, run_b in runs for a, b in zip(run_a, run_b) if not isinstance(a, str)]
        keys = all(a[0] == b[0] for a, b in both)
        flips = sum((a[2] is None) != (b[2] is None) for a, b in both)
        joint, fid = ([same_float(a[i], b[i]) for a, b in both] for i in (1, 2))
        same &= keys and all(joint) and all(fid)
        joint_gap, fid_gap = (max((gap(a[i], b[i]) for a, b in both), default=0.0) for i in (1, 2))
        print(f"{mode:<11} {kind:<19} {len(both):>8} {'same' if keys else 'DIFF':>5} {flips:>10}"
              f" {sum(joint):>10} {sum(fid):>9} {joint_gap:>13.2g} {fid_gap:>11.2g}")
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
