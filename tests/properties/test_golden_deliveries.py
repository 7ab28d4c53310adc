"""The striper pump against fixed references: golden records and the model.

``golden_deliveries.json`` holds, for fixed configurations of the
fast-path equivalence suite (clean runs, lossy runs, and every reliability
mode), the count and SHA-256 of the ``(time, seq)`` delivery records that
the reference UDP/IP path and the fast path produced while the sender
still had two pumps: a per-packet one and a batched one for burst ports.
The one pump that replaced them must reproduce every record bit for bit.

The second reference is the paper's own definition of the stripe: the
frozen ``(s0, f, g)`` model in :func:`~repro.core.transform.stripe_sequence`.
Backpressure and marker cuts only decide *when* a packet leaves, never
*where*, so each channel of a simulated pipeline must carry exactly the
packets the model assigns to it, in the model's order — over burst ports
and over per-packet ports alike.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.packet import Packet, is_marker
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.core.transform import TransformedLoadSharer, stripe_sequence
from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.transport.endpoint import StripeSenderPipeline
from repro.transport.fast_path import FastChannelPort

DURATION_S = 0.4

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_deliveries.json")).read_text()
)


def _digest(name: str, fast: bool):
    entry = GOLDEN[name]
    config = SocketTestbedConfig(
        **{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in entry["config"].items()
        },
        fast=fast,
    )
    sim = Simulator()
    testbed = build_socket_testbed(sim, config)
    if entry["stop_losses_midway"]:
        testbed.stop_losses_at(DURATION_S / 2)
    sim.run(until=DURATION_S, batch=fast)
    records = [(d.time, d.seq) for d in testbed.deliveries]
    return {
        "count": len(records),
        "sha256": hashlib.sha256(repr(records).encode()).hexdigest(),
    }


class TestGoldenDeliveries:
    def test_covers_every_reliability_mode(self):
        modes = {
            entry["config"].get("reliability", "quasi_fifo")
            for entry in GOLDEN.values()
        }
        assert modes == {
            "best_effort", "quasi_fifo", "reliable", "fec", "hybrid",
        }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    @pytest.mark.parametrize("path", ["fast", "reference"])
    def test_records_reproduced(self, name, path):
        assert _digest(name, fast=path == "fast") == GOLDEN[name][path]


class _ChannelSendPort:
    """A per-packet port over a simulated channel (no burst surface)."""

    def __init__(self, channel: Channel) -> None:
        self.channel = channel

    def send(self, packet, force=False):
        return self.channel.send(packet, force=force)

    def can_accept(self):
        return self.channel.can_accept()

    @property
    def queue_length(self):
        return self.channel.queue_length


class TestFrozenModel:
    QUANTA = [500.0, 800.0, 1200.0]

    @pytest.mark.parametrize("bursty", [True, False])
    def test_channel_assignment_equals_stripe_sequence(self, bursty):
        """Sizes up to 3000 B against 500-1200 B quanta overdraw deeply, so
        single steps hop channels and skip whole rounds."""
        sim = Simulator()
        channels = [
            Channel(
                sim, rate, 1e-3 * (i + 1), name=f"ch{i}", queue_limit=3
            )
            for i, rate in enumerate((2e6, 5e6, 9e6))
        ]
        port_cls = FastChannelPort if bursty else _ChannelSendPort
        pipeline = StripeSenderPipeline(
            [port_cls(channel) for channel in channels],
            SRR(self.QUANTA),
            marker_policy=MarkerPolicy(interval_rounds=2, position=1),
        )
        delivered = [[] for _ in channels]
        for channel, seqs in zip(channels, delivered):
            channel.on_space = pipeline.pump
            channel.on_deliver = (
                lambda packet, seqs=seqs: None
                if is_marker(packet) else seqs.append(packet.seq)
            )
        rng = random.Random(5)
        packets = [
            Packet(rng.choice([40, 576, 1500, 3000]), seq=i) for i in range(600)
        ]
        for start in range(0, len(packets), 50):
            sim.schedule(
                start * 1e-4,
                lambda burst=packets[start:start + 50]: (
                    pipeline.submit_packets(burst)
                ),
            )
        sim.run()
        assert pipeline.striper.packets_sent == len(packets)
        assert pipeline.striper.batched_packets == (
            len(packets) if bursty else 0
        )
        expected = stripe_sequence(
            TransformedLoadSharer(SRR(self.QUANTA)), packets
        )
        assert delivered == [[p.seq for p in lane] for lane in expected]
