"""Checkpoint and WAL codec cost on a mid-run 256-flow hybrid endpoint.

A :class:`~repro.experiments.recovery.RecoveryRig` in hybrid (FEC + ARQ)
mode with the DRR fabric mounted is driven by a paced source over 256
flows, faster than the three channels drain, under 5% loss and stopped
mid-run: the sender carries a full ARQ window, a fabric backlog, FEC
counters and a 256-row flow table, the receiver resequencer buffers.  On
that fixed state the benchmark records:

* sender and receiver checkpoint encode (``*_to_bytes``) and decode
  (``decode_checkpoint``) time in µs, and the checkpoint size in bytes;
* ns per WAL record on the public paths that write them: the sender's
  flow-addressed ``submit`` (``sub`` + ``bind`` records) and the
  receiver's in-order delivery hook (one cursor record each), measured
  as the time with recovery installed minus the time without, over the
  records written;
* that serialize -> restore into fresh endpoints -> serialize
  reproduces both checkpoints byte for byte.

Timings are best-of-``REPEATS``; each sample is a mean over a batch of
calls.  Results go to ``BENCH_checkpoint.json`` at the repository root::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_checkpoint.py -q -s
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Callable, List, Tuple

from repro.core.packet import Packet
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.experiments.recovery import (
    KEEPALIVE_S,
    MESSAGE_BYTES,
    RecoveryRig,
)
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import persistent_loss_schedule
from repro.transport.endpoint import StripeReceiverPipeline, StripeSenderPipeline
from repro.transport.fabric import FabricScheduler, FlowTable
from repro.transport.fast_path import FastChannelPort
from repro.transport.recovery import (
    CheckpointStore,
    ReceiverRecovery,
    SenderRecovery,
    decode_checkpoint,
    receiver_from_bytes,
    receiver_to_bytes,
    sender_from_bytes,
    sender_to_bytes,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_checkpoint.json"

FLOWS = tuple(f"f{i}" for i in range(256))
SOURCE_INTERVAL_S = 0.15e-3  # ~6.7k msg/s against ~6k msg/s of capacity
LOSS = 0.05
STATE_AT_S = 0.15
SEED = 7
REPEATS = 7
CODEC_BATCH = 20
WAL_SUBMITS = 2048
WAL_DELIVERIES = 4096


def machine() -> str:
    """CPU model (Linux ``/proc/cpuinfo``), else what ``platform`` knows."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return f"{line.split(':', 1)[1].strip()}, {os.cpu_count()} CPUs"
    except OSError:
        pass
    return platform.processor() or platform.machine()


def hybrid_state() -> RecoveryRig:
    """The rig stopped mid-run with every flow registered and traffic live."""
    sim = Simulator()
    rig = RecoveryRig(
        sim, reliability="hybrid", checkpoint_interval_s=0.01, with_fabric=True
    )
    rig.flows = FLOWS
    persistent_loss_schedule(rig.n_channels, LOSS, until=STATE_AT_S).install(
        sim, rig.channels, seed=SEED
    )
    rig.start_source(SOURCE_INTERVAL_S, stop_at=STATE_AT_S + 1.0)
    sim.run(until=STATE_AT_S)
    return rig


def _channels(sim: Simulator, n: int) -> List[Channel]:
    return [
        Channel(sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64)
        for _ in range(n)
    ]


def fresh_sender(n_channels: int) -> StripeSenderPipeline:
    """A sender built like the rig's, on its own simulator and channels."""
    sim = Simulator()
    pipeline = StripeSenderPipeline(
        [FastChannelPort(ch) for ch in _channels(sim, n_channels)],
        SRR([float(MESSAGE_BYTES)] * n_channels),
        marker_policy=MarkerPolicy(interval_rounds=1),
        sim=sim,
        marker_keepalive_s=KEEPALIVE_S,
        reliability="hybrid",
    )
    pipeline.attach_fabric(FabricScheduler(FlowTable()))
    return pipeline


def fresh_receiver(n_channels: int, on_message: Callable[[Any], None]) -> Any:
    sim = Simulator()
    return StripeReceiverPipeline(
        n_channels,
        SRR([float(MESSAGE_BYTES)] * n_channels),
        mode="marker",
        on_message=on_message,
        sim=sim,
        reliability="hybrid",
        send_ack=lambda ack: None,
    )


def best_mean_s(fn: Callable[[], Any], batch: int) -> float:
    """Best-of-REPEATS mean seconds per call over ``batch`` calls."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        best = min(best, (time.perf_counter() - start) / batch)
    return best


def codec_row(encode: Callable[[], bytes]) -> dict:
    blob = encode()
    return {
        "bytes": len(blob),
        "encode_us": round(best_mean_s(encode, CODEC_BATCH) * 1e6, 1),
        "decode_us": round(
            best_mean_s(lambda: decode_checkpoint(blob), CODEC_BATCH) * 1e6, 1
        ),
    }


def sender_submits(with_wal: bool) -> Tuple[float, int]:
    pipeline = fresh_sender(3)
    store = CheckpointStore()
    if with_wal:
        SenderRecovery(pipeline, store, sim=pipeline.sim).install()
    packets = [
        (FLOWS[i % len(FLOWS)], Packet(size=MESSAGE_BYTES, seq=i))
        for i in range(WAL_SUBMITS)
    ]
    submit = pipeline.submit
    start = time.perf_counter()
    for flow, packet in packets:
        submit(flow, packet)
    return time.perf_counter() - start, store.wal_records


def receiver_deliveries(with_wal: bool) -> Tuple[float, int]:
    delivered: List[Any] = []
    pipeline = fresh_receiver(3, delivered.append)
    store = CheckpointStore()
    if with_wal:
        ReceiverRecovery(pipeline, store, sim=pipeline.sim).install()
    deliver = pipeline.reliable.on_deliver
    packets = [
        Packet(size=MESSAGE_BYTES, seq=i, rseq=i) for i in range(WAL_DELIVERIES)
    ]
    start = time.perf_counter()
    for packet in packets:
        deliver(packet)
    elapsed = time.perf_counter() - start
    assert len(delivered) == WAL_DELIVERIES
    return elapsed, store.wal_records


def wal_ns_per_record(run: Callable[[bool], Tuple[float, int]]) -> float:
    """Best-of-REPEATS time with WAL minus time without, per record."""
    with_s = without_s = float("inf")
    records = 0
    for _ in range(REPEATS):  # interleaved, so drift hits both sides
        elapsed, records = run(True)
        with_s = min(with_s, elapsed)
        without_s = min(without_s, run(False)[0])
    assert records > 0
    return round((with_s - without_s) / records * 1e9, 1)


def test_bench_checkpoint_codec():
    rig = hybrid_state()
    sender, receiver = rig.sender, rig.receiver
    assert sender.reliable.unacked, "the sender state carries an ARQ window"
    assert sender.fabric.backlog, "and packets queued in the fabric"
    assert len(sender.fabric.table) == len(FLOWS)

    blob_s = sender_to_bytes(sender, peer_epoch=3)
    blob_r = receiver_to_bytes(receiver, sender_epoch=3)
    restored_s = fresh_sender(rig.n_channels)
    restored_r = fresh_receiver(rig.n_channels, lambda packet: None)
    sender_from_bytes(restored_s, blob_s)
    receiver_from_bytes(restored_r, blob_r)
    assert sender_to_bytes(restored_s, peer_epoch=3) == blob_s
    assert receiver_to_bytes(restored_r, sender_epoch=3) == blob_r

    report = {
        "workload": {
            "state": (
                "RecoveryRig hybrid + DRR fabric, 3 x 8 Mb/s, "
                f"{len(FLOWS)} flows at {1 / SOURCE_INTERVAL_S:.0f} msg/s, "
                f"{LOSS:.0%} loss, stopped at t={STATE_AT_S} s"
            ),
            "flows": len(sender.fabric.table),
            "arq_window": len(sender.reliable.unacked),
            "fabric_backlog": sender.fabric.backlog,
            "receiver_buffered": sum(
                len(buf) for buf in receiver.resequencer.buffers
            ),
        },
        "method": {
            "timing": f"best of {REPEATS}",
            "codec_batch": CODEC_BATCH,
            "wal": (
                "time with recovery installed minus time without, over "
                "the WAL records written; sender: "
                f"{WAL_SUBMITS} fabric submits on a fresh endpoint, "
                f"receiver: {WAL_DELIVERIES} in-order deliveries"
            ),
            "machine": machine(),
            "python": platform.python_version(),
        },
        "sender_checkpoint": codec_row(
            lambda: sender_to_bytes(sender, peer_epoch=3)
        ),
        "receiver_checkpoint": codec_row(
            lambda: receiver_to_bytes(receiver, sender_epoch=3)
        ),
        "wal_ns_per_record": {
            "sender_submit": wal_ns_per_record(sender_submits),
            "receiver_deliver": wal_ns_per_record(receiver_deliveries),
        },
        "fixpoint": True,
    }
    BENCH_JSON.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
