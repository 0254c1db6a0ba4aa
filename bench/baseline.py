"""Run every workload over several seeds and summarise the spread.

    python3 bench/baseline.py [--seeds 10] [--first-seed 1] [--workloads ...]
                              [--traced] [--out bench/results/baseline.json]

Each run is ``bench/run.py`` in its own process, one after another, with
the run length from ``BENCHMARK.json``. For every end-to-end metric it
prints the median, the quartiles and their distance as a share of the
median, next to the metric's bound; a spread above a third of the bound is
flagged. ``--traced`` adds one traced run per workload for the per-layer
metrics. ``--out`` writes all of it, with the provenance of the runs, as a
JSON file that later changes compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run. Returns (result line, provenance)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), prov


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    all_steady = True
    for workload in args.workloads:
        results = []
        for seed in seeds:
            result, prov = run_once(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  flush=True)
        entry = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats.update(unit=results[0]["metrics"][name]["unit"], bound=bound)
            entry["end_to_end"][name] = stats
            steady = stats["spread"] < bound / 3
            all_steady &= steady or name == "setup_s"
            print(f"  {name:16s} median {stats['median']:12.6g} {stats['unit']:5s} "
                  f"IQR/median {stats['spread']:.4f} bound {bound}{'' if steady else '  <-- above bound/3'}",
                  flush=True)
        if args.traced:
            traced, _ = run_once(workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v for k, v in traced["metrics"].items()}
        all_steady &= sum(entry["failed"]) == 0
        summary["workloads"][workload] = entry
        summary["provenance"] = {k: v for k, v in prov.items() if k != "seed"}

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
