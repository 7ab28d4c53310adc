"""Run the benchmark over many seeds and record a baseline.

Usage (from the repository root)::

    python3 perfbench/collect.py --out perfbench/baseline.json

For each of :data:`SETS` sets and each workload it runs
``run.py --trace 0`` once per seed (seeds 1 to :data:`RUNS`, the same in
every set) and one ``--trace 1`` run, then records, per metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread — the distance between
the quartiles as a share of the median.  Next to the scaled wall-clock
metrics it records the unscaled ones and the machine speed factor that
``run.py`` reports, so the effect of the speed calibration can be
checked.  The traced runs give the tracing overhead and the per-layer
budget table.

It then checks every end-to-end metric of every workload: each spread
must stay below a third of the metric's bound in ``BENCHMARK.json`` and
the last set's median must not be worse than the first's by more than
the bound; the per-layer counts of the traced runs must repeat exactly.
The exit code is 1 when a run or a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Sets of runs of the same code, and runs (seeds) per workload in a set.
SETS = 2
RUNS = 10


def machine() -> Dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr}")
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    # "unscaled pkts_per_s <x>  setup_s <y>  speed_factor <z> (...)"
    for line in result["report"]:
        if line.startswith("unscaled "):
            words = line.split()
            result["unscaled"] = {
                "unscaled_pkts_per_s": float(words[2]),
                "unscaled_setup_s": float(words[4]),
                "speed_factor": float(words[6]),
            }
    result["elapsed_s"] = round(time.perf_counter() - started, 1)
    return result


def summary(values: List[float]) -> Dict[str, Any]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, RUNS + 1))
    sets: List[Dict[str, Any]] = []
    traced: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    ok = True
    for index in range(SETS):
        current: Dict[str, Any] = {}
        for workload in workloads:
            values: Dict[str, List[float]] = {}
            for seed in seeds:
                result = run_once(workload, seed, seconds, 0)
                ok &= result["correct"]
                print(
                    f"set {index} {workload} seed {seed} "
                    f"correct {result['correct']} failed {result['failed']}"
                    f"/{result['attempted']} {result['elapsed_s']} s",
                    flush=True,
                )
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                for name, value in result["unscaled"].items():
                    values.setdefault(name, []).append(value)
            current[workload] = {k: summary(v) for k, v in values.items()}
            result = run_once(workload, seeds[0], seconds, 1)
            ok &= result["correct"]
            traced[workload].append(result)
            print("\n".join(result["report"]), flush=True)
        sets.append(current)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    for workload in workloads:
        for name, bound in bounds.items():
            spreads = [s[workload][name]["spread"] for s in sets]
            first = sets[0][workload][name]["median"]
            last = sets[-1][workload][name]["median"]
            change = (last - first) / first if first else 0.0
            worse = change if better[name] == "lower" else -change
            flag = ""
            if max(spreads) > bound / 3:
                flag += "  SPREAD>bound/3"
            if worse > bound:
                flag += "  WORSE>bound"
            unscaled = ""
            if f"unscaled_{name}" in sets[0][workload]:
                unscaled = "  unscaled spreads " + " ".join(
                    f"{s[workload][f'unscaled_{name}']['spread']:.4f}"
                    for s in sets
                )
            print(
                f"{workload:<20} {name:<16} bound {bound:<5} spreads "
                f"{' '.join(f'{s:.4f}' for s in spreads)}  median change "
                f"{change:+.4f}{unscaled}{flag}"
            )
            if flag:
                ok = False

    # Count-type per-layer metrics must repeat exactly for the same seed.
    repeats: Dict[str, bool] = {}
    for workload, runs in traced.items():
        counts = [
            {
                name: metric["value"]
                for name, metric in run["metrics"].items()
                if metric["unit"] in ("count", "bytes", "share")
                and not name.startswith("trace.")
            }
            for run in runs
        ]
        repeats[workload] = all(c == counts[0] for c in counts[1:])
        print(f"{workload:<20} per-layer counts repeat exactly: {repeats[workload]}")
        ok &= repeats[workload]

    if args.out:
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import run
        import scenarios

        out = {
            "machine": machine(),
            "workloads": {
                name: dict(
                    vars(scenarios.SPECS[name]),
                    inputs_per_run=run.INPUTS_PER_RUN[name],
                    input_seeds="seed * 1009 + i for i < inputs_per_run",
                )
                for name in workloads
            },
            "traffic": (
                "every workload runs on the discrete-event simulator: "
                "traffic crosses simulated channels, with no real link "
                "and no loopback socket"
            ),
            "run_seconds": seconds,
            "seeds": seeds,
            "sets": sets,
            "traced": {
                workload: {
                    "seed": seeds[0],
                    "overhead_ratio": [
                        r["metrics"]["trace.overhead_ratio"]["value"] for r in runs
                    ],
                    "counts_repeat_exactly": repeats.get(workload),
                    "budget": runs[0]["report"],
                    "per_layer": {
                        k: v["value"] for k, v in runs[0]["metrics"].items()
                    },
                }
                for workload, runs in traced.items()
                if runs
            },
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
