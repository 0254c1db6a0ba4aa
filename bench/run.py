"""qrelay benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The next operation starts when the previous
one returns. Every output passes a correctness gate; a failed gate or an
exception counts against ``error_rate``. With ``--trace 0`` the last line
of stdout is a JSON object holding the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics, taken
from runs that alternate untraced and traced passes over the same
operations. Lines before it give the same numbers for people, plus the
run's provenance. Results also go to ``bench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before anything can import numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7  # this process plus six fresh ones; setup_s is their median
SETUP_KERNEL_RUNS = 9  # speed-kernel timings that scale each set-up sample
PROBE_TIMEOUT_S = 120


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def set_up(args, workdir: str):
    """Import qrelay, build the seeded inputs and run one warm-up op, then
    time the speed kernel a few times in the same process.

    Returns (raw seconds, scaled seconds, workload, warm-up outcome).
    """
    t0 = time.perf_counter()
    import qrelay

    if Path(qrelay.__file__).resolve().parent != (SRC / "qrelay").resolve():
        raise RuntimeError(f"imported qrelay from {qrelay.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    *_, warm = run_op(wl.warmup_op(), wl.tap)
    seconds = time.perf_counter() - t0
    from speed import SpeedProbe

    probe = SpeedProbe(wl.speed_kernel)
    probe.sample(SETUP_KERNEL_RUNS)
    return seconds, seconds * probe.scale, wl, warm


def run_op(op, tap, tracer=None):
    """Time one op and gate its output. Returns (start, seconds, outcome)."""
    from workloads import Outcome

    fn = getattr(op.module, op.func)
    if tracer is not None:
        fn = tracer.entry(fn)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            out = fn(*op.args, **op.kwargs)
        except Exception as exc:  # any exception is a failed op, never a crash
            seconds = time.perf_counter() - t0
            tap.take()
            return t0, seconds, Outcome(False, reason=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
    try:
        outcome = op.check(out, tap.take())
    except Exception as exc:  # unreadable output fails the gate
        outcome = Outcome(False, reason=f"output check raised {type(exc).__name__}: {exc}")
    if not outcome.ok and err.getvalue():
        outcome.reason += f" [stderr: {err.getvalue().strip()[:200]}]"
    return t0, seconds, outcome


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds, raw and speed-scaled, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    raw, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


class Tally:
    """Latencies and gate outcomes of the ops a run attempted."""

    def __init__(self):
        # per op: start, raw seconds, branches, index of its cycle
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.op_branches: list[int] = []
        self.op_cycle: list[int] = []
        self.cycles = 0  # whole cycles completed
        self.kinds: dict[str, list[float]] = {}  # raw latencies by op kind
        self.failed = 0
        self.nulls = 0
        self.report_bytes = 0
        self.components = 0
        self.reasons: list[str] = []

    def add(self, op, start, seconds, outcome) -> None:
        self.starts.append(start)
        self.seconds.append(seconds)
        self.op_branches.append(outcome.branches)
        self.op_cycle.append(self.cycles)
        self.kinds.setdefault(op.kind, []).append(seconds)
        self.nulls += outcome.nulls
        self.report_bytes += outcome.report_bytes
        self.components += op.components
        if not outcome.ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.kind}: {outcome.reason}")

    def end_cycle(self) -> None:
        self.cycles += 1

    @property
    def ops(self) -> int:
        return len(self.seconds)

    @property
    def branches(self) -> int:
        return sum(self.op_branches)


def measure_untraced(wl, seconds: float, probe) -> Tally:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        for op in wl.cycle(index):
            tally.add(op, *run_op(op, wl.tap))
            probe.tick()
        tally.end_cycle()
        index += 1
        if time.perf_counter() >= deadline:
            return tally


def measure_traced(wl, seconds: float, probe):
    """Run each cycle twice, untraced and traced, alternating which goes
    first. Returns (untraced tally, traced tally, tracer)."""
    from boundary import Tracer

    tracer = Tracer()
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        ops = wl.cycle(index)
        for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.install()
                try:
                    for op in ops:
                        tracer.op_id = traced.ops
                        traced.add(op, *run_op(op, wl.tap, tracer))
                        probe.tick()
                finally:
                    tracer.uninstall()
            else:
                for op in ops:
                    plain.add(op, *run_op(op, wl.tap))
                    probe.tick()
        index += 1
        if time.perf_counter() >= deadline:
            return plain, traced, tracer


def end_to_end_metrics(tally: Tally, setup_s: float, factors) -> dict[str, float]:
    """Each op's latency is multiplied by its machine-speed factor.

    ``branches_per_s`` is the median over cycles of a cycle's branches
    divided by its operation time. Every cycle has the same mix of
    operations, and a median over them is not moved by the few seconds in
    which other work on a shared host slows or speeds up the run."""
    latencies = [s * f for s, f in zip(tally.seconds, factors)]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    cycle_branches = [0] * tally.cycles
    cycle_seconds = [0.0] * tally.cycles
    for cycle, branches, seconds in zip(tally.op_cycle, tally.op_branches, latencies):
        cycle_branches[cycle] += branches
        cycle_seconds[cycle] += seconds
    return {
        "setup_s": setup_s,
        "branches_per_s": statistics.median(b / s for b, s in zip(cycle_branches, cycle_seconds)),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(plain: Tally, traced: Tally, tracer, totals, scale: float) -> dict[str, float]:
    """``totals`` is ``tracer.layer_totals()``; its seconds are multiplied
    by ``scale``, the traced ops' machine-speed factor weighted by their
    time."""
    ops = traced.ops
    metrics = {}
    for layer, layer_totals in totals.items():
        metrics[f"{layer}.calls"] = layer_totals["calls"] / ops
        for key in ("busy_s", "self_s"):
            metrics[f"{layer}.{key}"] = layer_totals[key] * scale / ops
    metrics["protocol.branches"] = traced.branches / ops
    metrics["protocol.null_branches"] = traced.nulls / ops
    useful = traced.branches - traced.nulls
    metrics["protocol.useful_ratio"] = useful / traced.branches if traced.branches else 0.0
    for layer, nbytes in tracer.computed_bytes.items():
        metrics[f"{layer}.computed_bytes"] = nbytes / ops
    metrics["channels.builds_per_component"] = (
        tracer.count_calls("channels.build_channel_component") / traced.components
    )
    metrics["cli.report_bytes"] = traced.report_bytes / ops
    metrics["trace.overhead_ratio"] = sum(traced.seconds) / sum(plain.seconds)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qrelay" / "__init__.py").is_file():
        print(f"error: no qrelay sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    if args.setup_probe:
        raw, scaled, wl, _ = set_up(args, workdir)
        wl.close()
        print(f"{raw!r} {scaled!r}")
        return 0
    spec = load_spec()
    setup_raw, setup_scaled, wl, warm = set_up(args, workdir)
    from speed import SpeedProbe

    probe = SpeedProbe(wl.speed_kernel)
    try:
        gc.collect()
        if args.trace:
            plain, traced, tracer = measure_traced(wl, args.seconds, probe)
            tallies = (plain, traced)
        else:
            tally = measure_untraced(wl, args.seconds, probe)
            tallies = (tally,)
    finally:
        wl.close()

    measured = tallies[-1]
    factors = probe.factors(measured.starts, measured.seconds)
    scale = sum(s * f for s, f in zip(measured.seconds, factors)) / sum(measured.seconds)
    if args.trace:
        totals = tracer.layer_totals()
        values = per_layer_metrics(plain, traced, tracer, totals, scale)
        raw = per_layer_metrics(plain, traced, tracer, totals, 1.0)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        setups = [(setup_raw, setup_scaled)]
        setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        values = end_to_end_metrics(tally, statistics.median(s for _, s in setups), factors)
        raw = end_to_end_metrics(tally, statistics.median(r for r, _ in setups), [1.0] * tally.ops)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    from provenance import provenance

    attempted = 1 + sum(t.ops for t in tallies)
    failed = (0 if warm.ok else 1) + sum(t.failed for t in tallies)
    reasons = ([] if warm.ok else [f"warm-up: {warm.reason}"]) + [r for t in tallies for r in t.reasons]
    prov = provenance(args.seed, BLAS_THREAD_VARS)
    mix = {}
    for t in tallies:
        for kind, latencies in t.kinds.items():
            mix.setdefault(kind, []).extend(latencies)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"ops attempted {attempted} (warm-up 1, " + ", ".join(f"{k} {len(v)}" for k, v in mix.items())
          + f") failed {failed} error_rate {failed / attempted:.6g}")
    if not args.trace:
        beyond = sum(s > raw["op_p90_ms"] / 1e3 for s in tally.seconds)
        print(f"latency samples {tally.ops}, of which beyond p90 {beyond}; "
              f"throughput samples {tally.cycles} cycles")
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"speed scale {scale:.6g} (time-weighted) from {len(probe.samples)} kernel timings")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']} (raw {raw[name]:.6g})")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "op_mix": {kind: len(latencies) for kind, latencies in mix.items()},
        "p50_ms_by_kind": {kind: statistics.median(v) * 1e3 for kind, v in mix.items()},
        "metrics": metrics,
        "raw_metrics": raw,
        "speed_scale": scale,
        "provenance": prov,
    }
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.trace:
        import numpy as np

        np.savez_compressed(OUT_DIR / f"{args.workload}.spans.npz", **tracer.spans())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
