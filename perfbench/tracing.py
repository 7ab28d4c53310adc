"""Traced runs: spans around each layer's public entry points.

The benchmark's own code wraps the public methods of the library's
classes (:data:`ENTRY_POINTS`), every callback the simulator dispatches
(through :meth:`Simulator.schedule_at`, ``schedule_call`` and
``schedule_many``), and each channel's delivery and space callbacks.
Nothing inside ``src/`` is edited.  A span records its name, start, end
and parent in flat in-memory arrays; the spans of the last traced
repetition are written to ``.bench_out/trace-<workload>.json`` when the
run ends.

A span belongs to the layer of the module that defines the wrapped code
(:data:`LAYERS`).  Its self time is its duration minus the durations of
its child spans, so the layers' self times add up to the root span —
``Simulator.run`` inside the benchmark's ``run`` span — by arithmetic;
the only gap to the traced wall time (:data:`SELF_SUM_TOLERANCE`) is the
two clock reads around the root.  Two checks can fail: every event the
simulator dispatches must run in a span of its own, so no callback's
time lands unseen in the engine, and the root's own self time (time
charged to no layer) must stay within :data:`ROOT_SELF_TOLERANCE` of the
wall time.

Tracing is installed only for traced repetitions; the untraced
repetitions it alternates with run the unpatched classes, and the ratio
of their rates is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.kernel import SRRKernel
from repro.core.markers import SRRReceiver
from repro.core.packet import is_marker, is_parity
from repro.core.striper import Striper
from repro.core.transform import TransformedLoadSharer
from repro.net.ethernet import EthernetInterface
from repro.net.interface import NetworkInterface
from repro.net.stack import Stack
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.transport.endpoint import (
    FastStriper,
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.fabric import FabricScheduler
from repro.transport.fast_path import FastAckPort, FastChannelPort
from repro.transport.fec import FecReceiver, FecSender
from repro.transport.recovery import (
    CheckpointStore,
    ReceiverRecovery,
    SenderRecovery,
)
from repro.transport.reliability import ReliableReceiver, ReliableSender
from repro.transport.socket_striping import UdpChannelPort
from repro.transport.sync_model import MarkerSyncModel
from repro.transport.udp import UdpSocket
from repro.workloads.generators import ClosedLoopSource

#: Allowed gap between the layers' summed self time and the traced wall
#: time, as a share of the wall time.
SELF_SUM_TOLERANCE = 0.01
#: Largest share of the traced wall time the root span may keep as its
#: own self time, outside every library span.
ROOT_SELF_TOLERANCE = 0.01

#: Module prefix -> layer, first match wins.  ``harness`` is fixed
#: overhead: the traffic source, fault injection, the crash rig and the
#: benchmark's own recording.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.channel", "sim.channel"),
    ("repro.transport.fast_path", "sim.channel"),
    ("repro.core.striper", "core.striper"),
    ("repro.core.kernel", "core.striper"),
    ("repro.core.srr", "core.striper"),
    ("repro.core.transform", "core.striper"),
    ("repro.core.markers", "core.markers"),
    ("repro.core.resequencer", "core.markers"),
    ("repro.transport.sync_model", "core.markers"),
    ("repro.transport.endpoint", "transport.endpoint"),
    ("repro.transport.reliability", "transport.reliability"),
    ("repro.transport.fec", "transport.fec"),
    ("repro.core.fec", "transport.fec"),
    ("repro.transport.fabric", "transport.fabric"),
    ("repro.transport.recovery", "transport.recovery"),
    ("repro.net", "net"),
    ("repro.transport.udp", "net"),
    ("repro.transport.socket_striping", "net"),
    ("repro.workloads", "harness"),
    ("repro.sim.faults", "harness"),
    ("repro.sim.loss", "harness"),
    ("repro.sim.host", "harness"),
    ("repro.experiments", "harness"),
    ("scenarios", "harness"),
    ("run", "harness"),
    ("tracing", "harness"),
)
LAYER_NAMES = (
    "sim.engine", "sim.channel", "core.striper", "core.markers",
    "transport.endpoint", "transport.reliability", "transport.fec",
    "transport.fabric", "transport.recovery", "net", "harness", "other",
)

#: Public entry points wrapped in spans, by class.  Methods a subclass
#: inherits are wrapped once, on the class that defines them.
ENTRY_POINTS: Tuple[Tuple[type, Tuple[str, ...]], ...] = (
    (Simulator, ("run",)),
    (Channel, ("send", "send_burst")),
    (FastChannelPort, ("send", "send_burst")),
    (FastAckPort, ("send_sack",)),
    (StripeSenderPipeline, (
        "submit", "submit_packet", "submit_packets", "pump", "on_ack",
        "flush", "can_submit",
    )),
    (StripeReceiverPipeline, ("push", "push_wire")),
    (Striper, ("submit", "submit_many", "pump")),
    (FastStriper, ("pump",)),
    (SRRKernel, ("step", "assign_many", "next_number_for_channel")),
    (TransformedLoadSharer, ("choose", "notify_sent")),
    (SRRReceiver, ("push", "drain", "fail_channel")),
    (MarkerSyncModel, ("on_marker", "on_channel_deliver", "decode_wire")),
    (ReliableSender, (
        "submit", "submit_many", "note_sent", "note_burst", "on_ack",
        "can_submit", "reconcile",
    )),
    (ReliableReceiver, ("push", "sack_info")),
    (FecSender, ("submit", "submit_many", "flush")),
    (FecReceiver, ("on_packet",)),
    (FabricScheduler, ("submit", "pump", "can_submit")),
    (CheckpointStore, ("append_wal", "save_checkpoint")),
    (SenderRecovery, ("checkpoint", "on_control", "on_ack")),
    (ReceiverRecovery, ("checkpoint", "on_control")),
    (Stack, ("ip_output", "ip_input")),
    (NetworkInterface, ("send_ip", "transmit_frame", "handle_frame")),
    (EthernetInterface, ("send_ip", "handle_frame")),
    (UdpSocket, ("sendto",)),
    (UdpChannelPort, ("send",)),
    (ClosedLoopSource, ("poke",)),
)

#: Classes whose layer is not their module's: the batched striper lives
#: in ``transport/endpoint.py`` but is the striper layer's fast pump.
LAYER_OF_CLASS = {FastStriper: "core.striper"}

PUMPS = ("core.striper:Striper.pump", "core.striper:FastStriper.pump")


def layer_of(module: Optional[str]) -> str:
    if module:
        for prefix, layer in LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class SpanLog:
    """Spans in flat arrays: name id, parent index, start and end (ns)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        #: name ids of the callbacks handed to the simulator's schedulers
        self.dispatched: set = set()
        #: largest transmit queue seen after a send, over all channels
        self.queue_hwm = 0

    def name_id(
        self, qualname: str, module: Optional[str], layer: Optional[str] = None
    ) -> int:
        layer = layer or layer_of(module)
        key = f"{layer}:{qualname}"
        ident = self._ids.get(key)
        if ident is None:
            ident = self._ids[key] = len(self.names)
            self.names.append(key)
            self.layers.append(layer)
        return ident

    def wrap(self, fn: Callable[..., Any], ident: int) -> Callable[..., Any]:
        log = self
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(ident)
            parents.append(log.current)
            ends.append(0)
            log.current = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                log.current = parents[index]

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.span_ident = ident  # type: ignore[attr-defined]
        return traced

    def wrap_callable(self, fn: Any) -> Any:
        """Wrap an arbitrary callback, named after what it calls."""
        if fn is None or hasattr(fn, "__wrapped__"):
            return fn
        target = getattr(fn, "__func__", fn)
        qualname = getattr(target, "__qualname__", type(fn).__name__)
        module = getattr(target, "__module__", None)
        return self.wrap(fn, self.name_id(qualname, module))

    def dispatch(self, fn: Any) -> Any:
        """Wrap a callback handed to the simulator's scheduler."""
        wrapped = self.wrap_callable(fn)
        ident = getattr(wrapped, "span_ident", None)
        if ident is not None:
            self.dispatched.add(ident)
        return wrapped

    def self_times(self) -> List[int]:
        """Self time (ns) of every span."""
        out = [0] * len(self.name)
        parent, start, end = self.parent, self.start, self.end
        for i in range(len(out)):
            duration = end[i] - start[i]
            out[i] += duration
            p = parent[i]
            if p >= 0:
                out[p] -= duration
        return out

    def dump(self, path: Path, meta: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                dict(
                    meta,
                    span_names=self.names,
                    span_layers=self.layers,
                    name=self.name.tolist(),
                    parent=self.parent.tolist(),
                    start_ns=self.start.tolist(),
                    end_ns=self.end.tolist(),
                ),
                fh,
            )


class Tracing:
    """Installs and removes the span wrappers on the library's classes."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._saved: List[Tuple[type, str, Any]] = []

    def install(self) -> None:
        log = self.log
        for cls, methods in ENTRY_POINTS:
            for name in methods:
                original = cls.__dict__[name]
                ident = log.name_id(
                    f"{cls.__name__}.{name}", cls.__module__,
                    LAYER_OF_CLASS.get(cls),
                )
                wrapped = log.wrap(original, ident)
                if cls is Channel:
                    wrapped = self._probe_queue(wrapped)
                self._patch(cls, name, wrapped)
        handler = StripeReceiverPipeline.channel_handler

        def channel_handler(pipeline: Any, index: int) -> Any:
            return log.wrap_callable(handler(pipeline, index))

        self._patch(StripeReceiverPipeline, "channel_handler", channel_handler)
        for name in ("schedule_at", "schedule_call"):
            self._patch(Simulator, name, self._wrap_scheduler(name))
        schedule_many = Simulator.schedule_many

        def many(sim: Any, items: Any) -> int:
            return schedule_many(sim, [(t, log.dispatch(cb)) for t, cb in items])

        self._patch(Simulator, "schedule_many", many)

    def _probe_queue(self, wrapped: Callable[..., Any]) -> Callable[..., Any]:
        log = self.log

        def probed(channel: Any, *args: Any, **kwargs: Any) -> Any:
            result = wrapped(channel, *args, **kwargs)
            depth = channel.queue_length
            if depth > log.queue_hwm:
                log.queue_hwm = depth
            return result

        return probed

    def _wrap_scheduler(self, name: str) -> Callable[..., Any]:
        original = getattr(Simulator, name)
        log = self.log

        def schedule(sim: Any, when: float, callback: Any, *args: Any) -> Any:
            return original(sim, when, log.dispatch(callback), *args)

        return schedule

    def _patch(self, cls: type, name: str, value: Any) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def wrap_channels(self, channels: List[Any]) -> None:
        for channel in channels:
            for slot in ("on_deliver", "on_space"):
                setattr(
                    channel, slot, self.log.wrap_callable(getattr(channel, slot))
                )

    def remove(self) -> None:
        for cls, name, value in reversed(self._saved):
            setattr(cls, name, value)
        self._saved.clear()


def _channels(scenario: Any) -> List[Any]:
    rig = getattr(scenario, "rig", None)
    if rig is not None:
        return list(rig.channels)
    return list(scenario.forward) + list(scenario.reverse)


class TracedRepetition:
    """One build-and-run under tracing."""

    def __init__(self, workload: str, seed: int, scenarios: Any, metrics: Any):
        gc.collect()
        log = SpanLog()
        tracing = Tracing(log)
        tracing.install()
        data_lost = [0]

        def on_drop(packet: Any, reason: str) -> None:
            if not is_marker(packet) and not is_parity(packet):
                data_lost[0] += 1

        try:
            scenario = scenarios.build(workload, seed)
            channels = _channels(scenario)
            tracing.wrap_channels(channels)
            for channel in channels:
                if channel.on_drop is None:
                    channel.on_drop = on_drop
            # The wrapper is made before the clock starts: between the two
            # clock reads nothing allocates, so no garbage collection can
            # open a gap that no span covers.
            root = log.wrap(scenario.run, log.name_id("Scenario.run", "run"))
            self.root = len(log.name)
            start = time.perf_counter_ns()
            root()
            self.wall_ns = time.perf_counter_ns() - start
        finally:
            tracing.remove()
        self.log = log
        self.events = scenario.sim.events_processed
        self.data_lost = data_lost[0]
        record = scenario.record()
        self.record = record
        self.counters = record.counters
        self.outcome = metrics.evaluate(record)
        self.run_s = self.wall_ns / 1e9

    def layer_self_ns(self) -> Dict[str, int]:
        totals = {layer: 0 for layer in LAYER_NAMES}
        layers = self.log.layers
        for ident, value in zip(self.log.name, self.log.self_times()):
            totals[layers[ident]] += value
        return totals

    def layer_calls(self) -> Dict[str, int]:
        totals = {layer: 0 for layer in LAYER_NAMES}
        layers = self.log.layers
        for ident in self.log.name:
            totals[layers[ident]] += 1
        return totals

    def call_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        names = self.log.names
        for ident in self.log.name:
            counts[names[ident]] = counts.get(names[ident], 0) + 1
        return counts

    def top_level_pumps(self) -> int:
        names, parent = self.log.names, self.log.parent
        ids = self.log.name
        count = 0
        for i in range(len(ids)):
            if names[ids[i]] in PUMPS:
                p = parent[i]
                if p < 0 or names[ids[p]] not in PUMPS:
                    count += 1
        return count

    def unspanned_events(self) -> int:
        """Events the simulator dispatched outside a span of their own.

        Each dispatched callback must open a span of a scheduled callback
        directly under ``Simulator.run``; one that does not (scheduled
        through a path the wrappers miss) would silently charge its time
        to the engine.
        """
        log = self.log
        ids, parent, dispatched = log.name, log.parent, log.dispatched
        engine = log.names.index("sim.engine:Simulator.run")
        spanned = sum(
            1
            for i, p in enumerate(parent)
            if p >= 0 and ids[p] == engine and ids[i] in dispatched
        )
        return self.events - spanned

    def root_self_share(self) -> float:
        """Share of the wall time spent in the root span itself, outside
        every library span: time no layer is charged for."""
        return self.log.self_times()[self.root] / self.wall_ns

    def inclusive_ns(self, span_name: str) -> int:
        names, ids = self.log.names, self.log.name
        start, end = self.log.start, self.log.end
        return sum(
            end[i] - start[i] for i in range(len(ids)) if names[ids[i]] == span_name
        )


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """(metric, unit, better) of every per-layer metric, in report order."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYER_NAMES:
        out += [
            (f"{layer}.self_ms", "ms", "lower"),
            (f"{layer}.ns_per_pkt", "ns", "lower"),
            (f"{layer}.calls_per_pkt", "count", "lower"),
        ]
    out += [
        ("sim.engine.events_per_pkt", "count", "lower"),
        ("sim.channel.frames_per_pkt", "count", "lower"),
        ("sim.channel.queue_hwm", "count", "lower"),
        ("sim.channel.queue_drops", "count", "lower"),
        ("core.striper.pkts_per_pump", "count", "higher"),
        ("core.striper.fallback_share", "share", "lower"),
        ("core.markers.markers_per_pkt", "count", "lower"),
        ("core.markers.channel_skips", "count", "lower"),
        ("core.markers.lag_flushed", "count", "lower"),
        ("core.markers.rx_buffer_hwm", "count", "lower"),
        ("transport.reliability.acks_per_pkt", "count", "lower"),
        ("transport.reliability.sack_scans_per_ack", "count", "lower"),
        ("transport.reliability.retransmissions", "count", "lower"),
        ("transport.reliability.retx_useful_share", "share", "higher"),
        ("transport.reliability.timeouts", "count", "lower"),
        ("transport.fec.parity_share", "share", "lower"),
        ("transport.fec.recovered_share", "share", "higher"),
        ("transport.fec.unrecoverable_groups", "count", "lower"),
        ("transport.fec.escalations", "count", "lower"),
        ("transport.fabric.refusals", "count", "lower"),
        ("transport.fabric.share_error", "share", "lower"),
        ("transport.recovery.wal_records_per_pkt", "count", "lower"),
        ("transport.recovery.ns_per_wal_record", "ns", "lower"),
        ("transport.recovery.checkpoint_bytes", "bytes", "lower"),
        ("transport.recovery.replayed_packets", "count", "lower"),
        ("transport.recovery.recovery_ms", "ms", "lower"),
        ("trace.overhead_ratio", "x", "lower"),
        ("trace.self_sum_error", "share", "lower"),
        ("trace.unspanned_events", "count", "lower"),
        ("trace.root_self_share", "share", "lower"),
        ("trace.spans_per_pkt", "count", "lower"),
    ]
    return out


def _share_error(record: Any) -> float:
    """Largest relative gap between a flow's delivered bytes and the mean."""
    if record.flows is None:
        return 0.0
    per_flow: Dict[int, int] = {}
    for _, seq in record.deliveries:
        flow = record.flows[seq]
        per_flow[flow] = per_flow.get(flow, 0) + record.sizes[seq]
    if not per_flow:
        return 0.0
    mean = statistics.fmean(per_flow.values())
    return max(abs(v / mean - 1.0) for v in per_flow.values())


def _layer_values(
    traced: List[TracedRepetition], untraced_pps: float
) -> Dict[str, float]:
    rep = traced[0]
    delivered = rep.outcome.delivered
    c = rep.counters
    values: Dict[str, float] = {}
    self_ns = {
        layer: statistics.median(t.layer_self_ns()[layer] for t in traced)
        for layer in LAYER_NAMES
    }
    calls = rep.layer_calls()
    for layer in LAYER_NAMES:
        values[f"{layer}.self_ms"] = self_ns[layer] / 1e6
        values[f"{layer}.ns_per_pkt"] = self_ns[layer] / delivered
        values[f"{layer}.calls_per_pkt"] = calls[layer] / delivered
    data = c["core.striper.data_packets"]
    pumps = rep.top_level_pumps()
    retx = c["transport.reliability.retransmissions"]
    acks_processed = rep.call_counts().get(
        "transport.reliability:ReliableSender.on_ack", 0
    )
    wal = c.get("transport.recovery.wal_records", 0)
    fec_data = c.get("transport.fec.data_packets", 0)
    traced_pps = statistics.median(t.outcome.delivered / t.run_s for t in traced)
    values.update(
        {
            "sim.engine.events_per_pkt": c["sim.engine.events"] / delivered,
            "sim.channel.frames_per_pkt": c["sim.channel.frames"] / delivered,
            "sim.channel.queue_hwm": rep.log.queue_hwm,
            "sim.channel.queue_drops": c["sim.channel.queue_drops"],
            "core.striper.pkts_per_pump": data / pumps if pumps else 0.0,
            "core.striper.fallback_share": (
                (data - c["core.striper.batched_packets"]) / data if data else 0.0
            ),
            "core.markers.markers_per_pkt": (
                c["core.markers.markers_sent"] / delivered
            ),
            "core.markers.channel_skips": c["core.markers.channel_skips"],
            "core.markers.lag_flushed": c["core.markers.lag_flushed"],
            "core.markers.rx_buffer_hwm": c["core.markers.rx_buffer_hwm"],
            "transport.reliability.acks_per_pkt": (
                c["transport.reliability.acks_sent"] / delivered
            ),
            "transport.reliability.sack_scans_per_ack": (
                c["transport.reliability.sack_scans"] / acks_processed
                if acks_processed else 0.0
            ),
            "transport.reliability.retransmissions": retx,
            "transport.reliability.retx_useful_share": (
                1.0 - c["transport.reliability.duplicates"] / retx
                if retx else 0.0
            ),
            "transport.reliability.timeouts": c["transport.reliability.timeouts"],
            "transport.fec.parity_share": (
                c.get("transport.fec.parity_packets", 0) / fec_data
                if fec_data else 0.0
            ),
            "transport.fec.recovered_share": (
                c.get("transport.fec.reconstructed", 0) / rep.data_lost
                if fec_data and rep.data_lost else 0.0
            ),
            "transport.fec.unrecoverable_groups": c.get(
                "transport.fec.unrecoverable_groups", 0
            ),
            "transport.fec.escalations": c.get("transport.fec.escalations", 0),
            "transport.fabric.refusals": c.get("transport.fabric.refusals", 0),
            "transport.fabric.share_error": _share_error(rep.record),
            "transport.recovery.wal_records_per_pkt": wal / delivered,
            "transport.recovery.ns_per_wal_record": (
                rep.inclusive_ns("transport.recovery:CheckpointStore.append_wal")
                / wal if wal else 0.0
            ),
            "transport.recovery.checkpoint_bytes": c.get(
                "transport.recovery.checkpoint_bytes", 0
            ),
            "transport.recovery.replayed_packets": c.get(
                "transport.recovery.replayed_packets", 0
            ),
            "transport.recovery.recovery_ms": (
                statistics.fmean(rep.outcome.recovery_ms)
                if rep.outcome.recovery_ms else 0.0
            ),
            "trace.overhead_ratio": untraced_pps / traced_pps,
            "trace.self_sum_error": max(
                abs(sum(t.layer_self_ns().values()) - t.wall_ns) / t.wall_ns
                for t in traced
            ),
            "trace.unspanned_events": max(t.unspanned_events() for t in traced),
            "trace.root_self_share": max(t.root_self_share() for t in traced),
            "trace.spans_per_pkt": len(rep.log.name) / delivered,
        }
    )
    return values


def traced_run(
    workload: str, seed: int, seconds: float, modules: Tuple[Any, ...], root: Path
) -> Tuple[Dict[str, Any], List[str], int, int, bool]:
    """The ``--trace 1`` run: the per-layer budget of the first input."""
    import run

    scenarios, metrics, _ = modules
    input_seed = run.input_seed(seed, 0)
    untraced: List[Any] = []
    traced: List[TracedRepetition] = []
    failures: List[str] = []
    deadline = time.perf_counter() + seconds
    # Alternate so machine drift hits both sides alike; two traced
    # repetitions at least, so the span counts can be compared.
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(run.Repetition(workload, input_seed, scenarios, metrics))
        traced.append(TracedRepetition(workload, input_seed, scenarios, metrics))
    first = untraced[0]
    failures.extend(first.outcome.failures)
    for rep in untraced[1:] + traced:
        if rep.counters != first.counters:
            failures.append("library counters differ between repetitions")
            break
    counts = traced[0].call_counts()
    if any(t.call_counts() != counts for t in traced[1:]):
        failures.append("span counts differ between traced repetitions")
    untraced_pps = statistics.median(r.pkts_per_s for r in untraced)
    values = _layer_values(traced, untraced_pps)
    if values["trace.self_sum_error"] > SELF_SUM_TOLERANCE:
        failures.append(
            f"layer self times miss the traced wall time by "
            f"{values['trace.self_sum_error']:.4f} > {SELF_SUM_TOLERANCE}"
        )
    if values["trace.unspanned_events"]:
        failures.append(
            f"{values['trace.unspanned_events']:.0f} simulator events ran "
            f"outside a span"
        )
    if values["trace.root_self_share"] > ROOT_SELF_TOLERANCE:
        failures.append(
            f"root span keeps {values['trace.root_self_share']:.4f} of the "
            f"wall time > {ROOT_SELF_TOLERANCE}"
        )
    traced[-1].log.dump(
        root / ".bench_out" / f"trace-{workload}.json",
        {"workload": workload, "seed": input_seed},
    )

    wall_ns = statistics.median(t.wall_ns for t in traced)
    report = [
        f"workload {workload}  seed {seed}  input {input_seed}  traced",
        f"repetitions {len(untraced)} untraced + {len(traced)} traced  "
        f"spans {len(traced[0].log.name)}  delivered {first.outcome.delivered}",
        f"tracing overhead x{values['trace.overhead_ratio']:.2f}  "
        f"self-time sum off wall by {values['trace.self_sum_error']:.5f} "
        f"(tolerance {SELF_SUM_TOLERANCE})",
        f"unspanned events {values['trace.unspanned_events']:.0f}  "
        f"root self share {values['trace.root_self_share']:.5f} "
        f"(tolerance {ROOT_SELF_TOLERANCE})",
        f"{'layer':<24}{'ns/pkt':>10}{'share':>8}{'calls/pkt':>11}",
    ]
    ranked = sorted(
        LAYER_NAMES, key=lambda layer: -values[f"{layer}.ns_per_pkt"]
    )
    for layer in ranked:
        ns = values[f"{layer}.ns_per_pkt"]
        share = values[f"{layer}.self_ms"] * 1e6 / wall_ns
        report.append(
            f"{layer:<24}{ns:>10.0f}{share:>8.1%}"
            f"{values[f'{layer}.calls_per_pkt']:>11.2f}"
        )
    for failure in failures:
        report.append(f"CHECK FAILED: {failure}")
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    out = {name: {"value": values[name], "unit": units[name]} for name in units}
    failed = first.outcome.failed
    if failures and failed == 0:
        failed = 1
    return out, report, first.outcome.offered, failed, not failures
