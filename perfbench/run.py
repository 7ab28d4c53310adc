"""Striping-stack benchmark: one workload, measured end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload clean_imix --seed 1 --seconds 25 --trace 0

Workloads: ``clean_imix``, ``reliable_lossy``, ``hybrid_fabric_crash`` and
``reference_stack`` (see ``scenarios.py``).  Every workload runs on the
simulator; no real link or loopback socket is involved.

``--trace 0`` repeats the workload for ``--seconds`` of wall time,
cycling through a fixed set of input seeds derived from ``--seed``, and
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced repetitions of the first input seed and reports the per-layer
budget (see ``tracing.py``).  Either way every repetition is checked
(see ``metrics.py``) and repetitions of the same input must agree on
every delivery and every library counter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  The exit code is 0 when the benchmark
ran, whether or not a check failed, and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Distinct input seeds one ``--trace 0`` run cycles through, per workload:
#: more inputs per run make the simulated metrics steadier across seeds.
INPUTS_PER_RUN = {
    "clean_imix": 24,
    "reliable_lossy": 12,
    "hybrid_fabric_crash": 12,
    "reference_stack": 24,
}


def input_seed(seed: int, index: int) -> int:
    """The ``index``-th input seed of a run started with ``seed``."""
    return seed * 1009 + index


def fingerprint(record: Any) -> str:
    """Digest of everything a repetition must reproduce exactly."""
    digest = hashlib.sha256()
    digest.update(repr(record.deliveries).encode())
    digest.update(repr(sorted(record.counters.items())).encode())
    return digest.hexdigest()


#: Builds of the input timed per repetition: one build takes well under a
#: millisecond, too little to time steadily on its own.  The last one runs.
SETUP_BUILDS = 16


class Repetition:
    """One build-and-run of one input, timed and checked."""

    def __init__(self, workload: str, seed: int, scenarios: Any, metrics: Any):
        self.seed = seed
        # Garbage left by the previous repetition is not this one's cost.
        gc.collect()
        start = time.perf_counter()
        for _ in range(SETUP_BUILDS):
            scenario = scenarios.build(workload, seed)
        built = time.perf_counter()
        scenario.run()
        done = time.perf_counter()
        self.setup_s = (built - start) / SETUP_BUILDS
        self.run_s = done - built
        record = scenario.record()
        self.counters = record.counters
        self.outcome = metrics.evaluate(record)
        self.fingerprint = fingerprint(record)

    @property
    def pkts_per_s(self) -> float:
        return self.outcome.delivered / self.run_s


class Calibration:
    """Passes of the frozen calibration loop spread through a run."""

    #: Share of the run's wall time spent calibrating.
    SHARE = 0.1
    #: How strongly the stack's speed follows the calibration loop's when
    #: the machine speeds up or slows down.  The loop swings more than the
    #: stack does: on the reference machine, exponents of 0.6-1.0 gave the
    #: smallest run-to-run spread of pkts/s, depending on the workload.
    ELASTICITY = 0.75

    def __init__(self, calibrate: Any) -> None:
        self.calibrate = calibrate
        self.samples: List[float] = []
        self.started = time.perf_counter()

    def maybe(self) -> None:
        """Take one pass unless calibration already had its share."""
        elapsed = time.perf_counter() - self.started
        if sum(self.samples) <= self.SHARE * elapsed or not self.samples:
            gc.collect()
            self.samples.append(self.calibrate.measure())

    def scale(self) -> float:
        """Stack slowness at the latest pass relative to the reference
        machine (>1: slower)."""
        ratio = self.samples[-1] / self.calibrate.REFERENCE_S
        return ratio ** self.ELASTICITY


def measure(
    workload: str, seed: int, seconds: float, modules: Tuple[Any, ...]
) -> Tuple[Dict[str, Any], List[str], int, int, bool]:
    """The ``--trace 0`` run: end-to-end metrics over many repetitions."""
    scenarios, metrics, calibrate = modules
    inputs = [input_seed(seed, i) for i in range(INPUTS_PER_RUN[workload])]
    first: Dict[int, Repetition] = {}
    #: (pkts/s, setup seconds, machine slowness) of every repetition
    timings: List[Tuple[float, float, float]] = []
    calib = Calibration(calibrate)
    failures: List[str] = []
    deadline = time.perf_counter() + seconds
    index = 0
    # Every input at least once, and the first one again, so a run always
    # checks that an input reproduces exactly.
    while index <= len(inputs) or time.perf_counter() < deadline:
        calib.maybe()
        rep = Repetition(workload, inputs[index % len(inputs)], scenarios, metrics)
        timings.append((rep.pkts_per_s, rep.setup_s, calib.scale()))
        if rep.seed not in first:
            first[rep.seed] = rep
            failures.extend(f"seed {rep.seed}: {f}" for f in rep.outcome.failures)
        elif rep.fingerprint != first[rep.seed].fingerprint:
            failures.append(f"seed {rep.seed}: repetition differs from the first")
        index += 1

    outcomes = [first[s].outcome for s in inputs]
    sim = metrics.summarize(outcomes)
    # Each repetition is scaled by the calibration pass just before it, so
    # the scaling follows the machine through the run.
    pkts_per_s = statistics.median(pps * k for pps, _, k in timings)
    setup_s = statistics.median(setup / k for _, setup, k in timings)
    raw_pps = statistics.median(pps for pps, _, _ in timings)
    raw_setup = statistics.median(setup for _, setup, _ in timings)
    speed = 1 / statistics.median(k for _, _, k in timings)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "pkts_per_s": (pkts_per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "goodput_mbps": (sim["goodput_mbps"], "Mb/s"),
        "latency_p50_ms": (sim["latency_p50_ms"], "ms"),
        "latency_p99_ms": (sim["latency_p99_ms"], "ms"),
        "delivered_share": (sim["delivered_share"], "share"),
        "in_order_share": (sim["in_order_share"], "share"),
        "overhead_share": (sim["overhead_share"], "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = [
        f"workload {workload}  seed {seed}  inputs {inputs}",
        f"repetitions {len(timings)}  calibration passes {len(calib.samples)}",
        f"unscaled pkts_per_s {raw_pps:.3f}  setup_s {raw_setup:.9f}  "
        f"speed_factor {speed:.4f} (1.0 = reference machine)",
        f"latency samples {sim['latency_samples']} over {len(inputs)} inputs  "
        f"pooled p99 {sim['pooled_p99_ms']:.3f} ms  "
        f"max {sim['max_latency_ms']:.3f} ms",
        f"undelivered_share {1 - sim['delivered_share']:.6f} share "
        f"(reported inverted as delivered_share)",
        f"reorder_share {1 - sim['in_order_share']:.6f} share "
        f"(reported inverted as in_order_share)",
    ]
    if workload == "hybrid_fabric_crash":
        report.append(
            f"recovery_ms {sim['recovery_ms']:.3f} ms "
            f"(mean over {2 * len(inputs)} outages)"
        )
    for name, (value, unit) in values.items():
        report.append(f"{name:<16} {value:>14.6f} {unit}")
    for failure in failures:
        report.append(f"CHECK FAILED: {failure}")
    attempted = sum(o.offered for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if failures and failed == 0:
        failed = 1
    metrics_out = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }
    return metrics_out, report, attempted, failed, not failures


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import calibrate
        import metrics
        import scenarios
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in scenarios.SPECS:
        print(
            f"unknown workload {args.workload!r}; known: "
            f"{', '.join(scenarios.SPECS)}",
            file=sys.stderr,
        )
        return 2
    modules = (scenarios, metrics, calibrate)
    if args.trace:
        import tracing

        result = tracing.traced_run(
            args.workload, args.seed, args.seconds, modules, ROOT
        )
    else:
        result = measure(args.workload, args.seed, args.seconds, modules)
    values, report, attempted, failed, correct = result
    for line in report:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": values,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
