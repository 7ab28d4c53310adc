"""Output checks and simulated end-to-end metrics of one workload run.

Everything here reads a :class:`~scenarios.Record` — the delivery log,
the submit log and the channel counters — never the protocol's own
verdicts, so the checks hold the program to the paper's properties from
outside:

* Theorem 4.1: a lossless quasi-FIFO run delivers every submitted
  message exactly once, in submission order.
* Exactly-once, in-order delivery per flow for the reliable and hybrid
  runs, across endpoint crashes.
* Theorem 3.2: each channel's data bytes stay within ``Max + 2*Quantum``
  of its ``K * Quantum_i`` share.

A failed check never stops the run: it is reported by name, and the
messages it concerns count as failed operations.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from scenarios import Record


@dataclass
class Outcome:
    """Verdict and simulated metrics of one workload run."""

    offered: int
    refused: int
    failed: int
    failures: List[str] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    delivered: int = 0
    goodput_mbps: float = 0.0
    in_order_share: float = 1.0
    overhead_share: float = 0.0
    recovery_ms: List[float] = field(default_factory=list)


def evaluate(record: Record) -> Outcome:
    """Check ``record`` against the paper's properties and measure it."""
    failures: List[str] = []
    submitted = len(record.submit_times)
    flows = record.flows
    seen = [0] * submitted
    last_seq: Dict[int, int] = {}
    late = 0
    for _, seq in record.deliveries:
        if not 0 <= seq < submitted:
            failures.append(f"delivered unknown message {seq}")
            continue
        seen[seq] += 1
        flow = flows[seq] if flows is not None else 0
        if seq < last_seq.get(flow, -1):
            late += 1
        else:
            last_seq[flow] = seq
    lost = sum(1 for count in seen if count == 0)
    duplicated = sum(count - 1 for count in seen if count > 1)
    if lost:
        failures.append(f"{lost} submitted messages never delivered")
    if duplicated:
        failures.append(f"{duplicated} duplicate deliveries")
    if late:
        failures.append(f"{late} deliveries out of per-flow order")
    for channel, (deviation, bound) in enumerate(record.envelope):
        if deviation > bound:
            failures.append(
                f"channel {channel} off its SRR share by {deviation:.0f} B "
                f"> Max + 2*Quantum = {bound:.0f} B (Theorem 3.2)"
            )

    delivered = len(record.deliveries)
    # First deliveries of each message only: exactly-once payload.
    first: Dict[int, float] = {}
    for time, seq in record.deliveries:
        if 0 <= seq < submitted and seq not in first:
            first[seq] = time
    latencies = [
        (time - record.submit_times[seq]) * 1e3 for seq, time in first.items()
    ]
    payload = sum(record.sizes[seq] for seq in first)
    # Goodput over the window the source was active, so the drain tail
    # (a last retransmission timeout) does not dilute it.
    stop = record.source_stop_s
    in_window = sum(
        record.sizes[seq] for seq, time in first.items() if time <= stop
    )
    goodput = in_window * 8 / stop / 1e6
    wire = record.counters.get("sim.channel.wire_bytes", 0)
    overhead = (wire - payload) / payload if payload else 0.0

    recovery: List[float] = []
    for down_at, up_at in record.outages:
        caught = _caught_up(record, down_at)
        if caught is None:
            failures.append(f"never caught up after the outage at {down_at}")
        else:
            recovery.append(max(0.0, caught - up_at) * 1e3)

    # Failed operations: every message a check condemns (lost, duplicated,
    # late).  Offers refused while an endpoint is down are the crash
    # schedule working as designed; they count as undelivered, not failed.
    failed = lost + duplicated + late
    if failures and failed == 0:
        failed = 1  # a broken envelope fails the run as a whole
    return Outcome(
        offered=record.offered,
        refused=record.refused,
        failed=min(failed, record.offered),
        failures=failures,
        latencies_ms=latencies,
        delivered=delivered,
        goodput_mbps=goodput,
        in_order_share=1.0 - late / delivered if delivered else 0.0,
        overhead_share=overhead,
        recovery_ms=recovery,
    )


def _caught_up(record: Record, at: float) -> Optional[float]:
    """Time by which every message submitted before ``at`` was delivered."""
    pending = {
        seq for seq, time in enumerate(record.submit_times) if time < at
    }
    if not pending:
        return at
    for time, seq in sorted(record.deliveries):
        pending.discard(seq)
        if not pending:
            return time
    return None


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(q / 100 * len(ordered))) - 1))
    return ordered[rank]


def summarize(outcomes: List[Outcome]) -> Dict[str, float]:
    """Combine the simulated metrics of several runs (one per input seed).

    Latency percentiles are taken per input and reported as their median
    over the inputs: in ``hybrid_fabric_crash`` about one input in four
    stalls for a few hundred milliseconds after the receiver restarts,
    and a percentile of the pooled samples would jump with the number of
    such inputs a run happens to draw.  The pooled p99 and the worst
    latency are kept for the report.
    """
    latencies = [v for o in outcomes for v in o.latencies_ms]
    offered = sum(o.offered for o in outcomes)
    undelivered = sum(o.failed + o.refused for o in outcomes)
    recovery = [v for o in outcomes for v in o.recovery_ms]
    return {
        "goodput_mbps": statistics.fmean(o.goodput_mbps for o in outcomes),
        "latency_p50_ms": statistics.median(
            percentile(o.latencies_ms, 50) for o in outcomes
        ),
        "latency_p99_ms": statistics.median(
            percentile(o.latencies_ms, 99) for o in outcomes
        ),
        "latency_samples": len(latencies),
        "pooled_p99_ms": percentile(latencies, 99),
        "max_latency_ms": max(latencies, default=0.0),
        "delivered_share": 1.0 - undelivered / offered if offered else 0.0,
        "in_order_share": statistics.fmean(o.in_order_share for o in outcomes),
        "overhead_share": statistics.fmean(o.overhead_share for o in outcomes),
        "recovery_ms": statistics.fmean(recovery) if recovery else 0.0,
    }
