"""End-to-end simulator benchmark: reference path vs fast path.

Runs the scalability experiment's clean testbed (N equal links, SRR with
per-round markers, closed-loop source) twice per channel count — once on
the reference UDP/IP path with per-packet channel events, once on the
burst-batched fast path — and reports wall-clock events/sec and delivered
packets/sec for both, plus the packets/sec speedup.

Every measurement pair is also an equivalence check: the two runs must
produce the identical ``(time, seq)`` delivery record list, so a perf
regression can never silently trade correctness for speed.

``benchmarks/test_bench_sim.py`` wraps this as the checked-in regression
gate (writing ``BENCH_sim.json``); the experiment runner exposes it as
``sim_bench``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.sim.engine import Simulator

DEFAULT_CHANNEL_COUNTS = (2, 4, 8, 16)
RELIABILITY_MODES = ("best_effort", "quasi_fifo", "reliable")

#: ARQ options the reliable-mode bench row runs with (both paths get the
#: same values, so the equivalence check still binds).  The defaults
#: (64-packet window, ack-every-2) are tuned for WAN politeness, not for
#: a 4x10 Mb/s bundle with 40-frame queues: the window is far below the
#: bundle's bandwidth-delay product, so the sender degenerates to 1-2
#: packet ack-clocked bursts and the pump never sends a real burst.  A
#: BDP-sized window plus a coarser ack cadence is the configuration a
#: throughput deployment would run.
RELIABLE_BENCH_OPTIONS = {
    "sender": {"window_packets": 512},
    "receiver": {"ack_every": 16},
}


@dataclass
class SimBenchRow:
    """One channel count's measurement pair."""

    n_channels: int
    packets: int
    reference_pps: float
    fast_pps: float
    reference_eps: float
    fast_eps: float
    deliveries_equal: bool

    @property
    def speedup(self) -> float:
        if self.reference_pps == 0:
            return 0.0
        return self.fast_pps / self.reference_pps

    def render(self) -> str:
        return (
            f"{self.n_channels:>4} {self.packets:>8} "
            f"{self.reference_pps:>12.0f} {self.fast_pps:>12.0f} "
            f"{self.speedup:>7.2f}x "
            f"{self.reference_eps:>12.0f} {self.fast_eps:>12.0f} "
            f"{'ok' if self.deliveries_equal else 'MISMATCH':>9}"
        )


@dataclass
class SimBenchResult:
    rows: List[SimBenchRow]
    duration_s: float

    def render(self) -> str:
        header = (
            f"{'N':>4} {'pkts':>8} {'ref pkt/s':>12} {'fast pkt/s':>12} "
            f"{'speedup':>8} {'ref ev/s':>12} {'fast ev/s':>12} {'equal':>9}"
        )
        return "\n".join(
            [header, "-" * len(header)] + [row.render() for row in self.rows]
        )

    def min_speedup(self) -> float:
        return min(row.speedup for row in self.rows)

    def all_equal(self) -> bool:
        return all(row.deliveries_equal for row in self.rows)


def _measure(
    n: int,
    duration_s: float,
    fast: bool,
    link_mbps: float,
    message_bytes: int,
    seed: int,
    batch: bool,
    reliability: str = "quasi_fifo",
    loss: float = 0.0,
    packet_pool: bool = False,
    reliability_options: Optional[dict] = None,
) -> Tuple[float, int, int, List[Tuple[float, int]]]:
    """One run; returns (wall_seconds, packets, events, delivery records)."""
    sim = Simulator()
    config = SocketTestbedConfig(
        n_channels=n,
        link_mbps=(link_mbps,),
        prop_delay_s=tuple(0.5e-3 + 0.1e-3 * i for i in range(n)),
        loss_rates=(loss,),
        message_bytes=message_bytes,
        marker_interval_rounds=1,
        source_backlog=4 * n,
        seed=seed,
        fast=fast,
        reliability=reliability,
        reliability_options=reliability_options,
        packet_pool=packet_pool,
    )
    testbed = build_socket_testbed(sim, config)
    start = time.perf_counter()
    sim.run(until=duration_s, batch=batch)
    wall = time.perf_counter() - start
    records = [(d.time, d.seq) for d in testbed.deliveries]
    return wall, len(records), sim.events_processed, records


@dataclass
class ModeBenchRow:
    """One reliability mode's clean speedup + lossy equivalence check."""

    mode: str
    n_channels: int
    packets: int
    reference_pps: float
    fast_pps: float
    #: clean *and* lossy runs produced identical (time, seq) records
    deliveries_identical: bool
    #: packets delivered in the lossy equivalence run
    lossy_packets: int
    loss: float

    @property
    def speedup(self) -> float:
        if self.reference_pps == 0:
            return 0.0
        return self.fast_pps / self.reference_pps

    def render(self) -> str:
        return (
            f"{self.mode:>12} {self.packets:>8} "
            f"{self.reference_pps:>12.0f} {self.fast_pps:>12.0f} "
            f"{self.speedup:>7.2f}x "
            f"{self.lossy_packets:>9} "
            f"{'ok' if self.deliveries_identical else 'MISMATCH':>9}"
        )


@dataclass
class ModeBenchResult:
    rows: List[ModeBenchRow]
    duration_s: float

    def render(self) -> str:
        header = (
            f"{'mode':>12} {'pkts':>8} {'ref pkt/s':>12} {'fast pkt/s':>12} "
            f"{'speedup':>8} {'lossy pkts':>9} {'equal':>9}"
        )
        return "\n".join(
            [header, "-" * len(header)] + [row.render() for row in self.rows]
        )

    def min_speedup(self) -> float:
        return min(row.speedup for row in self.rows)

    def all_identical(self) -> bool:
        return all(row.deliveries_identical for row in self.rows)


def run_reliability_mode_bench(
    modes: Sequence[str] = RELIABILITY_MODES,
    n_channels: int = 4,
    duration_s: float = 1.0,
    link_mbps: float = 10.0,
    message_bytes: int = 1000,
    loss: float = 0.1,
    repeats: int = 3,
    seed: int = 0,
    packet_pool: bool = True,
) -> ModeBenchResult:
    """Per-reliability-mode fast-path benchmark + lossy equivalence.

    For each mode, the clean testbed pair is timed (best of ``repeats``,
    packet pool enabled on both sides — it is loss-free) and a second,
    untimed pair runs with ``loss`` Bernoulli loss on every forward
    channel; the row's ``deliveries_identical`` holds only if *both*
    pairs produced bit-identical ``(time, seq)`` delivery records.

    The reliable row runs with :data:`RELIABLE_BENCH_OPTIONS` on both
    paths (BDP-sized window, coarse ack cadence — see the comment
    there); the other modes have no ARQ and take the defaults.
    """
    rows: List[ModeBenchRow] = []
    for mode in modes:
        arq = RELIABLE_BENCH_OPTIONS if mode == "reliable" else None
        # The reliable row has the tightest margin (ARQ bookkeeping rides
        # both paths), so give its best-of filter more draws against
        # shared-machine noise.
        mode_repeats = max(repeats, 5) if mode == "reliable" else repeats
        ref_wall = fast_wall = float("inf")
        ref_records = fast_records = None
        packets = 0
        for _ in range(max(1, mode_repeats)):
            wall, count, _, records = _measure(
                n_channels, duration_s, False, link_mbps, message_bytes,
                seed, batch=False, reliability=mode, packet_pool=packet_pool,
                reliability_options=arq,
            )
            ref_wall = min(ref_wall, wall)
            ref_records, packets = records, count
            wall, _, _, records = _measure(
                n_channels, duration_s, True, link_mbps, message_bytes,
                seed, batch=True, reliability=mode, packet_pool=packet_pool,
                reliability_options=arq,
            )
            fast_wall = min(fast_wall, wall)
            fast_records = records
        clean_equal = ref_records == fast_records
        # Lossy equivalence pair (untimed; the pool stays out of reliable
        # lossy runs — a recycled packet could alias an in-flight
        # retransmit copy).
        lossy_pool = packet_pool and mode != "reliable"
        _, lossy_count, _, lossy_ref = _measure(
            n_channels, duration_s, False, link_mbps, message_bytes,
            seed, batch=False, reliability=mode, loss=loss,
            packet_pool=lossy_pool, reliability_options=arq,
        )
        _, _, _, lossy_fast = _measure(
            n_channels, duration_s, True, link_mbps, message_bytes,
            seed, batch=True, reliability=mode, loss=loss,
            packet_pool=lossy_pool, reliability_options=arq,
        )
        rows.append(
            ModeBenchRow(
                mode=mode,
                n_channels=n_channels,
                packets=packets,
                reference_pps=packets / ref_wall if ref_wall else 0.0,
                fast_pps=packets / fast_wall if fast_wall else 0.0,
                deliveries_identical=clean_equal and lossy_ref == lossy_fast,
                lossy_packets=lossy_count,
                loss=loss,
            )
        )
    return ModeBenchResult(rows=rows, duration_s=duration_s)


def run_sim_bench(
    channel_counts: Sequence[int] = DEFAULT_CHANNEL_COUNTS,
    duration_s: float = 1.0,
    link_mbps: float = 10.0,
    message_bytes: int = 1000,
    repeats: int = 3,
    seed: int = 0,
) -> SimBenchResult:
    """Benchmark reference vs fast path over the scalability testbed.

    ``duration_s`` is *simulated* seconds per run; wall-clock rates take
    the best of ``repeats`` runs per mode (delivery counts and records are
    identical across repeats — the simulator is deterministic).
    """
    rows: List[SimBenchRow] = []
    for n in channel_counts:
        ref_wall = fast_wall = float("inf")
        ref_records = fast_records = None
        ref_events = fast_events = packets = 0
        for _ in range(max(1, repeats)):
            wall, count, events, records = _measure(
                n, duration_s, False, link_mbps, message_bytes, seed,
                batch=False,
            )
            ref_wall = min(ref_wall, wall)
            ref_records, ref_events, packets = records, events, count
            wall, count, events, records = _measure(
                n, duration_s, True, link_mbps, message_bytes, seed,
                batch=True,
            )
            fast_wall = min(fast_wall, wall)
            fast_records, fast_events = records, events
        rows.append(
            SimBenchRow(
                n_channels=n,
                packets=packets,
                reference_pps=packets / ref_wall if ref_wall else 0.0,
                fast_pps=packets / fast_wall if fast_wall else 0.0,
                reference_eps=ref_events / ref_wall if ref_wall else 0.0,
                fast_eps=fast_events / fast_wall if fast_wall else 0.0,
                deliveries_equal=ref_records == fast_records,
            )
        )
    return SimBenchResult(rows=rows, duration_s=duration_s)
