"""The benchmark's four workloads, built from the library's public classes.

Every workload runs on the discrete-event simulator: traffic crosses
simulated :class:`~repro.sim.channel.Channel` objects, never a real link
or a loopback socket.  A workload is built by :func:`build`, driven by
:meth:`Scenario.run` (source active for ``active_s`` simulated seconds,
then stopped and drained), and read back as a :class:`Record` by
:meth:`Scenario.record`.  Nothing here measures wall time; the caller
times ``build`` and ``run``.

The benchmark owns the application side: it numbers messages, records
each one's submit time, size and flow, and logs each delivery.  Those
logs are what the output checks in ``metrics.py`` judge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.packet import Packet
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.experiments.recovery import RecoveryRig
from repro.net.ethernet import EthernetInterface
from repro.net.stack import Link, Stack
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultSchedule,
    burst_loss_schedule,
    endpoint_crash_schedule,
)
from repro.sim.loss import BernoulliLoss
from repro.transport.fast_path import (
    FastStripedReceiver,
    FastStripedSender,
    wire_fast_ack_path,
    wire_size,
)
from repro.transport.socket_striping import (
    StripedSocketReceiver,
    StripedSocketSender,
)
from repro.workloads.generators import ClosedLoopSource, RandomMixSizes

#: IMIX-style size mix: 7:4:1 by count of 40, 576 and 1500-byte packets.
IMIX_SIZES = (40, 576, 1500)
IMIX_WEIGHTS = (7, 4, 1)
#: Eight channel rates spanning 10x; SRR quanta are proportional to rate
#: with the slowest channel's quantum equal to the largest packet.
IMIX_RATES_MBPS = (1.0, 1.4, 2.0, 2.8, 4.0, 5.6, 8.0, 10.0)
#: ARQ options of the reliable row of ``BENCH_sim.json`` (a window sized
#: to the bundle's bandwidth-delay product, one ack per 16 packets).
RELIABLE_OPTIONS = {
    "sender": {"window_packets": 512},
    "receiver": {"ack_every": 16},
}
QUEUE_FRAMES = 40
BASE_PORT = 6000

HYBRID_FLOWS = 256
HYBRID_RATE_PPS = 2500.0
HYBRID_MESSAGE_BYTES = 500
HYBRID_LOSS = 0.05
HYBRID_CHECKPOINT_S = 0.01
HYBRID_OUTAGE_S = 0.05
#: Simulated seconds a run may drain past ``until_s`` before every
#: message still missing counts as lost.
DRAIN_LIMIT_S = 30.0


@dataclass(frozen=True)
class Spec:
    """What a workload is: the facts recorded as its provenance."""

    name: str
    why: str
    loop: str
    sizes: str
    channels: str
    mode: str
    #: simulated seconds the source offers traffic
    active_s: float
    #: simulated horizon; the run drains until then
    until_s: float


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="clean_imix",
            why=(
                "bare striping data path at small packets: per-packet cost "
                "rules, ARQ/FEC/fabric/recovery do no work"
            ),
            loop="closed, 4*N = 32 packets backlogged",
            sizes="40/576/1500 B drawn 7:4:1 from the seed",
            channels="8 fast-path channels, 1-10 Mb/s, quanta 1500 B * rate",
            mode="quasi_fifo, markers every round, no loss",
            active_s=1.0,
            until_s=1.6,
        ),
        Spec(
            name="reliable_lossy",
            why=(
                "ARQ is the hot layer: SACK processing, retransmission and "
                "marker resync after loss run constantly"
            ),
            loop="closed, 4*N = 16 packets backlogged",
            sizes="1000 B",
            channels="4 fast-path channels, 10 Mb/s, quanta 1000 B",
            mode=(
                "reliable (512-packet window, ack every 16), 10% Bernoulli "
                "loss on every forward channel throughout"
            ),
            active_s=1.0,
            until_s=2.5,
        ),
        Spec(
            name="hybrid_fabric_crash",
            why=(
                "the only workload where FEC, the DRR fabric and crash "
                "recovery (checkpoints + WAL) do work"
            ),
            loop=(
                f"open, Poisson arrivals at {HYBRID_RATE_PPS:g} msg/s, "
                f"round-robin over {HYBRID_FLOWS} flows"
            ),
            sizes=f"{HYBRID_MESSAGE_BYTES} B",
            channels="RecoveryRig: 3 channels, 8 Mb/s, 0.4-0.6 ms one-way",
            mode=(
                "hybrid FEC+ARQ, 5% Gilbert-Elliott burst loss, warm "
                "checkpoints every 10 ms with WAL, sender and receiver "
                "each crash once for 50 ms"
            ),
            active_s=1.0,
            until_s=1.25,
        ),
        Spec(
            name="reference_stack",
            why=(
                "clean_imix traffic through the reference UDP/IP/Ethernet "
                "path (per-packet pump, classic channel transmit): net/ "
                "works only here"
            ),
            loop="closed, 4*N = 32 packets backlogged",
            sizes="40/576/1500 B drawn 7:4:1 from the seed",
            channels="8 UDP/IP/Ethernet links, 1-10 Mb/s, quanta 1500 B * rate",
            mode="quasi_fifo, markers every round, no loss",
            active_s=1.0,
            until_s=1.6,
        ),
    )
}


@dataclass
class Record:
    """What one run of a workload produced, as seen from outside."""

    #: messages the application tried to send (ticks, for the open loop)
    offered: int
    #: offers the stack refused (sender down, flow queue full)
    refused: int
    #: per accepted message, indexed by its sequence number
    submit_times: List[float]
    sizes: List[int]
    flows: Optional[List[int]]
    #: (simulated time, seq) per application delivery
    deliveries: List[Tuple[float, int]]
    source_stop_s: float
    #: (down_at, up_at) per endpoint outage
    outages: List[Tuple[float, float]]
    #: per channel: (|bytes - K * quantum|, Max + 2 * Quantum)
    envelope: List[Tuple[float, float]]
    #: deterministic library counters, by layer-qualified name
    counters: Dict[str, float] = field(default_factory=dict)


class Scenario:
    """A built workload: a simulator plus the objects the checks read."""

    def __init__(self, spec: Spec, sim: Simulator) -> None:
        self.spec = spec
        self.sim = sim
        self.submit_times: List[float] = []
        self.sizes: List[int] = []
        self.flows: Optional[List[int]] = None
        self.deliveries: List[Tuple[float, int]] = []
        self.offered = 0
        self.refused = 0
        self._stop: Callable[[], None] = lambda: None

    def on_message(self, packet: Any) -> None:
        self.deliveries.append((self.sim.now, packet.seq))

    def run(self) -> None:
        sim = self.sim
        sim.schedule_at(self.spec.active_s, self._stop)
        sim.run(until=self.spec.until_s)
        # Drain: a lost tail packet can wait out several backed-off
        # retransmission timeouts before anything else is left to send.
        horizon = self.spec.until_s + DRAIN_LIMIT_S
        while (
            len(self.deliveries) < len(self.submit_times)
            and sim.pending
            and sim.now < horizon
        ):
            sim.run(until=min(sim.now + 0.5, horizon))

    def record(self) -> Record:  # pragma: no cover - abstract
        raise NotImplementedError


# --------------------------------------------------------------------- #
# closed-loop striped pair: fast path or reference UDP/IP stack


class StripedScenario(Scenario):
    """A sender/receiver pipeline pair fed by a closed-loop source."""

    def __init__(
        self,
        spec: Spec,
        seed: int,
        *,
        rates_mbps: Sequence[float],
        quanta: Sequence[float],
        size_fn: Callable[[], int],
        fast: bool,
        loss: float = 0.0,
        reliability: str = "quasi_fifo",
        reliability_options: Optional[dict] = None,
    ) -> None:
        super().__init__(spec, Simulator())
        sim = self.sim
        n = len(rates_mbps)
        self.n = n
        self.quanta = list(quanta)
        rng = random.Random(seed)
        delays = [0.5e-3 + 0.1e-3 * i for i in range(n)]
        options = reliability_options or {}
        marker_policy = MarkerPolicy(interval_rounds=1)
        if fast:
            self.forward = [
                Channel(
                    sim,
                    rates_mbps[i] * 1e6,
                    delays[i],
                    name=f"ch{i}",
                    queue_limit=QUEUE_FRAMES,
                    loss_model=BernoulliLoss(
                        loss, rng=random.Random(rng.randrange(1 << 30))
                    ),
                    size_of=wire_size,
                    fast=True,
                )
                for i in range(n)
            ]
            self.reverse = [
                Channel(
                    sim, rates_mbps[0] * 1e6, delays[0], name="ack",
                    queue_limit=QUEUE_FRAMES,
                )
            ]
            sender = FastStripedSender(
                sim, self.forward, SRR(self.quanta),
                marker_policy=marker_policy,
                reliability=reliability,
                reliability_options=options.get("sender"),
            )
            send_ack = None
            if sender.reliable is not None:
                send_ack = wire_fast_ack_path(self.reverse[0], sender).send_sack
            receiver = FastStripedReceiver(
                sim, n, SRR(self.quanta),
                on_message=self.on_message,
                reliability=reliability,
                send_ack=send_ack,
                reliability_options=options.get("receiver"),
            )
            for i, channel in enumerate(self.forward):
                channel.on_deliver = receiver.channel_handler(i)
        else:
            if reliability != "quasi_fifo" or loss:
                raise ValueError("the reference workload is clean quasi_fifo")
            s_stack, r_stack = Stack(sim, "S"), Stack(sim, "R")
            links = []
            destinations = []
            for i in range(n):
                s_ip, r_ip = f"10.{10 + i}.0.1", f"10.{10 + i}.0.2"
                s_if = EthernetInterface(sim, f"ch{i}s", s_ip)
                r_if = EthernetInterface(sim, f"ch{i}r", r_ip)
                s_stack.add_interface(s_if)
                r_stack.add_interface(r_if)
                links.append(
                    Link(
                        sim, s_if, r_if,
                        bandwidth_bps=rates_mbps[i] * 1e6,
                        prop_delay=delays[i],
                        queue_limit=QUEUE_FRAMES,
                        name=f"channel{i}",
                    )
                )
                s_stack.routing.add(r_ip, 24, s_if)
                r_stack.routing.add(s_ip, 24, r_if)
                # Long-lived channels: resolve ARP up front.
                s_if.arp_cache.install(r_if.ip_address, r_if.mac)
                r_if.arp_cache.install(s_if.ip_address, s_if.mac)
                destinations.append((r_ip, BASE_PORT + i))
            self.forward = [link.ab for link in links]
            self.reverse = [link.ba for link in links]
            sender = StripedSocketSender(
                sim, s_stack, destinations, SRR(self.quanta),
                marker_policy=marker_policy,
            )
            receiver = StripedSocketReceiver(
                sim, r_stack, n, SRR(self.quanta),
                base_port=BASE_PORT,
                on_message=self.on_message,
            )
        self.sender = sender
        self.receiver = receiver

        def submit_many(packets: List[Packet]) -> None:
            now = sim.now
            for packet in packets:
                self.submit_times.append(now)
                self.sizes.append(packet.size)
            sender.submit_packets(packets)

        def backlog() -> int:
            # A full ARQ window reads as backlogged: the retransmission
            # buffer exerts backpressure on the source.
            if not sender.can_submit():
                return 1 << 30
            return sender.backlog

        source = ClosedLoopSource(
            sim,
            submit=sender.submit_packet,
            backlog_fn=backlog,
            size_fn=size_fn,
            target=4 * n,
            submit_many=submit_many,
        )
        self.source = source
        self._stop = source.stop

        def wake() -> None:
            sender.pump()
            source.poke()

        for channel in self.forward:
            channel.on_space = wake
        if sender.reliable is not None:
            sender.reliable.on_window_open = wake
        source.start()

    def record(self) -> Record:
        self.offered = self.source.generated
        kernel = self.sender.sharer.kernel
        striper = self.sender.striper
        # Markers go to every channel at once; each one is 32 B on the
        # striping layer, and the framing a wire packet adds is constant
        # for every size this workload uses (no minimum-frame padding).
        markers_per_channel = striper.markers_sent // self.n
        marker_size = MarkerPolicy().marker_size
        framing = wire_size(Packet(size=1000)) - 1000
        rounds = kernel.round_number - 1
        bound = max(self.sizes, default=0) + 2 * max(self.quanta)
        envelope = []
        for i, channel in enumerate(self.forward):
            stats = channel.stats
            data_bytes = (
                stats.offered_bytes
                - framing * stats.offered_packets
                - marker_size * markers_per_channel
            )
            envelope.append((abs(data_bytes - rounds * self.quanta[i]), bound))
        return Record(
            offered=self.offered,
            refused=0,
            submit_times=self.submit_times,
            sizes=self.sizes,
            flows=None,
            deliveries=self.deliveries,
            source_stop_s=self.spec.active_s,
            outages=[],
            envelope=envelope,
            counters=striped_counters(self),
        )


def striped_counters(scenario: "StripedScenario") -> Dict[str, float]:
    sender, receiver = scenario.sender, scenario.receiver
    striper = sender.striper
    counters = channel_counters(scenario.sim, scenario.forward, scenario.reverse)
    counters.update(
        {
            "core.striper.data_packets": striper.packets_sent,
            "core.striper.batched_packets": getattr(
                striper, "batched_packets", 0
            ),
            "core.markers.markers_sent": striper.markers_sent,
        }
    )
    counters.update(marker_counters([receiver]))
    counters.update(arq_counters([sender], [receiver]))
    return counters


def channel_counters(
    sim: Simulator, forward: Sequence[Channel], reverse: Sequence[Channel]
) -> Dict[str, float]:
    channels = list(forward) + list(reverse)
    return {
        "sim.engine.events": sim.events_processed,
        "sim.channel.frames": sum(c.stats.offered_packets for c in channels),
        "sim.channel.wire_bytes": sum(c.stats.offered_bytes for c in channels),
        "sim.channel.lost": sum(c.stats.lost_packets for c in channels),
        "sim.channel.queue_drops": sum(c.stats.queue_drops for c in channels),
    }


def marker_counters(receivers: Sequence[Any]) -> Dict[str, float]:
    totals = {"channel_skips": 0, "lag_flushed": 0, "rx_buffer_hwm": 0}
    for receiver in receivers:
        stats = getattr(receiver.resequencer, "stats", None)
        if stats is None:
            continue
        totals["channel_skips"] += stats.channel_skips
        totals["lag_flushed"] += stats.lag_flushed
        totals["rx_buffer_hwm"] = max(
            totals["rx_buffer_hwm"], stats.max_buffered
        )
    return {f"core.markers.{k}": v for k, v in totals.items()}


def arq_counters(
    senders: Sequence[Any], receivers: Sequence[Any]
) -> Dict[str, float]:
    totals = {
        "retransmissions": 0, "timeouts": 0, "sack_scans": 0,
        "acks_sent": 0, "duplicates": 0,
    }
    for sender in senders:
        if sender.reliable is not None:
            stats = sender.reliable.stats
            totals["retransmissions"] += stats.retransmissions
            totals["timeouts"] += stats.timeouts
            totals["sack_scans"] += stats.sack_scans
    for receiver in receivers:
        if receiver.reliable is not None:
            stats = receiver.reliable.stats
            totals["acks_sent"] += stats.acks_sent
            totals["duplicates"] += stats.duplicates
    return {f"transport.reliability.{k}": v for k, v in totals.items()}


# --------------------------------------------------------------------- #
# hybrid FEC+ARQ under the fabric, with endpoint crashes


class _Rig(RecoveryRig):
    """The library's crash rig, remembering every endpoint incarnation."""

    def __init__(self, sim: Simulator, **kwargs: Any) -> None:
        self.all_senders: List[Any] = []
        self.all_receivers: List[Any] = []
        #: per sender incarnation: (channel bytes, completed kernel rounds,
        #: markers sent) when it came up and when it went down
        self.incarnations: List[List[Tuple[List[int], int, int]]] = []
        super().__init__(sim, **kwargs)

    def sender_mark(self) -> Tuple[List[int], int, int]:
        """Channel bytes, completed rounds and markers of the live sender."""
        sender = self.sender
        return (
            [c.stats.offered_bytes for c in self.channels],
            sender.sharer.kernel.round_number - 1,
            sender.striper.markers_sent,
        )

    def _build_sender(self) -> None:
        # A restarted sender resumes from a checkpointed kernel, so each
        # incarnation is measured from its own start: the channel counters
        # still hold the bytes of the tail the crash lost.
        super()._build_sender()
        self.all_senders.append(self.sender)
        self.incarnations.append([self.sender_mark()])

    def _build_receiver(self) -> None:
        super()._build_receiver()
        self.all_receivers.append(self.receiver)

    def _kill_sender(self) -> None:
        if self.sender is not None:
            self.incarnations[-1].append(self.sender_mark())
        super()._kill_sender()


class HybridScenario(Scenario):
    """``RecoveryRig`` in hybrid mode under an open-loop multi-flow source."""

    def __init__(self, spec: Spec, seed: int) -> None:
        super().__init__(spec, Simulator())
        sim = self.sim
        rig = _Rig(
            sim,
            reliability="hybrid",
            checkpoint_interval_s=HYBRID_CHECKPOINT_S,
            with_fabric=True,
        )
        self.rig = rig
        self.flows = []
        # Each input draws its channels' one-way delays around the rig's
        # 0.5 ms, so inputs differ in inter-channel skew (the resequencer's
        # work) and not only in which packets the bursts hit.
        skew = random.Random(seed)
        for channel in rig.channels:
            channel.prop_delay *= skew.uniform(0.8, 1.2)
        flow_ids = [f"f{i}" for i in range(HYBRID_FLOWS)]
        active = spec.active_s
        # The rig numbers messages and keeps their submit times (its
        # recovery latency reads them); the benchmark drives the source.
        rig.submit_times = self.submit_times
        self.deliveries = rig.deliveries
        # Poisson arrivals: with strictly even pacing every message would
        # see the same empty-channel delay, and the median latency would
        # not depend on the input at all.
        arrivals = random.Random(seed + 1)

        def tick() -> None:
            due = sim.now
            flow = self.offered % HYBRID_FLOWS
            self.offered += 1
            sender = rig.sender
            accepted = False
            if sender is not None:
                packet = Packet(
                    size=HYBRID_MESSAGE_BYTES, seq=rig.next_seq,
                    flow=flow_ids[flow],
                )
                accepted = sender.submit(flow_ids[flow], packet)
            if accepted:
                rig.next_seq += 1
                self.submit_times.append(due)
                self.sizes.append(HYBRID_MESSAGE_BYTES)
                self.flows.append(flow)
            else:
                self.refused += 1
            after = due + arrivals.expovariate(HYBRID_RATE_PPS)
            if after < active:
                sim.schedule_at(after, tick)

        sim.schedule_at(arrivals.expovariate(HYBRID_RATE_PPS), tick)
        loss = burst_loss_schedule(
            rig.n_channels, HYBRID_LOSS, start=0.0, until=active
        )
        crashes = endpoint_crash_schedule(
            [(0.3 * active, "sender"), (0.6 * active, "receiver")],
            outage=HYBRID_OUTAGE_S,
        )
        FaultSchedule(tuple(loss.events) + tuple(crashes.events)).install(
            sim, rig.channels, seed=seed, endpoints=rig.controller
        )

    def record(self) -> Record:
        rig = self.rig
        # Theorem 3.2 over each sender incarnation, from its start (after
        # the restore) to its crash or the end of the run, replay traffic
        # included.  Every channel carries one 32 B marker per marker sent.
        quanta = [float(HYBRID_MESSAGE_BYTES)] * rig.n_channels
        bound = HYBRID_MESSAGE_BYTES + 2 * max(quanta)
        marker_size = MarkerPolicy().marker_size
        deviation = [0.0] * rig.n_channels
        for marks in rig.incarnations:
            if len(marks) == 1:
                marks.append(rig.sender_mark())
            (sent0, rounds0, markers0), (sent1, rounds1, markers1) = marks
            markers = (markers1 - markers0) // rig.n_channels
            for i in range(rig.n_channels):
                data_bytes = sent1[i] - sent0[i] - marker_size * markers
                deviation[i] = max(
                    deviation[i],
                    abs(data_bytes - (rounds1 - rounds0) * quanta[i]),
                )
        envelope = [(d, bound) for d in deviation]
        outages = [(o.down_at, o.up_at) for o in rig.controller.outages]
        counters = channel_counters(self.sim, rig.channels, [])
        counters.update(
            {
                "core.striper.data_packets": sum(
                    s.striper.packets_sent for s in rig.all_senders
                ),
                "core.striper.batched_packets": sum(
                    s.striper.batched_packets for s in rig.all_senders
                ),
                "core.markers.markers_sent": sum(
                    s.striper.markers_sent for s in rig.all_senders
                ),
            }
        )
        counters.update(marker_counters(rig.all_receivers))
        counters.update(arq_counters(rig.all_senders, rig.all_receivers))
        counters["transport.reliability.retransmissions"] = rig.retransmissions
        fec_tx = [s.fec.stats for s in rig.all_senders]
        fec_rx = [r.fec.stats for r in rig.all_receivers]
        counters.update(
            {
                "transport.fec.data_packets": sum(s.data_packets for s in fec_tx),
                "transport.fec.parity_packets": sum(
                    s.parity_packets for s in fec_tx
                ),
                "transport.fec.reconstructed": sum(
                    s.reconstructed for s in fec_rx
                ),
                "transport.fec.unrecoverable_groups": sum(
                    s.unrecoverable_groups for s in fec_rx
                ),
                "transport.fec.escalations": sum(s.escalations for s in fec_rx),
                "transport.fabric.refusals": sum(
                    s.fabric.stats.refusals for s in rig.all_senders
                ),
                "transport.recovery.wal_records": (
                    rig.sender_store.wal_records
                    + rig.receiver_store.wal_records
                ),
                "transport.recovery.checkpoint_bytes": (
                    rig.sender_store.checkpoint_bytes
                    + rig.receiver_store.checkpoint_bytes
                ),
                "transport.recovery.checkpoints": (
                    rig.sender_store.checkpoints_saved
                    + rig.receiver_store.checkpoints_saved
                ),
                "transport.recovery.replayed_packets": rig.replayed_packets,
            }
        )
        return Record(
            offered=self.offered,
            refused=self.refused,
            submit_times=self.submit_times,
            sizes=self.sizes,
            flows=self.flows,
            deliveries=rig.deliveries,
            source_stop_s=self.spec.active_s,
            outages=outages,
            envelope=envelope,
            counters=counters,
        )


def build(workload: str, seed: int) -> Scenario:
    """Build ``workload`` with inputs drawn from ``seed``."""
    spec = SPECS[workload]
    if workload in ("clean_imix", "reference_stack"):
        quanta = [1500.0 * rate / IMIX_RATES_MBPS[0] for rate in IMIX_RATES_MBPS]
        return StripedScenario(
            spec, seed,
            rates_mbps=IMIX_RATES_MBPS,
            quanta=quanta,
            size_fn=RandomMixSizes(
                IMIX_SIZES, IMIX_WEIGHTS, rng=random.Random(seed)
            ),
            fast=workload == "clean_imix",
        )
    if workload == "reliable_lossy":
        return StripedScenario(
            spec, seed,
            rates_mbps=(10.0,) * 4,
            quanta=(1000.0,) * 4,
            size_fn=lambda: 1000,
            fast=True,
            loss=0.1,
            reliability="reliable",
            reliability_options=RELIABLE_OPTIONS,
        )
    if workload == "hybrid_fabric_crash":
        return HybridScenario(spec, seed)
    raise KeyError(workload)
