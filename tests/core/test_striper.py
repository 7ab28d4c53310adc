"""Unit tests for the event-driven sender (backpressure + marker emission)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet import Packet, is_marker
from repro.core.srr import SRR, make_rr
from repro.core.striper import ListPort, MarkerPolicy, Striper
from repro.core.transform import TransformedLoadSharer
from repro.baselines.sqf import ShortestQueueFirst
from repro.sim.trace import NULL_TRACER, Tracer


def make_striper(algorithm, port_limits=None, policy=None):
    n = algorithm.n_channels
    ports = [
        ListPort(limit=port_limits[i] if port_limits else None)
        for i in range(n)
    ]
    striper = Striper(TransformedLoadSharer(algorithm), ports, policy)
    return striper, ports


class TestBackpressure:
    def test_blocks_when_selected_channel_full(self):
        striper, ports = make_striper(make_rr(2), port_limits=[1, 100])
        striper.submit(Packet(100, seq=0))  # ch0 (fills it)
        striper.submit(Packet(100, seq=1))  # ch1
        striper.submit(Packet(100, seq=2))  # ch0 full -> must wait
        striper.submit(Packet(100, seq=3))  # queued behind 2
        assert [p.seq for p in ports[0].sent] == [0]
        assert [p.seq for p in ports[1].sent] == [1]
        assert striper.backlog == 2

    def test_does_not_reorder_around_full_channel(self):
        """Causality: the striper must never skip ahead to another
        channel — that would break receiver simulation."""
        striper, ports = make_striper(make_rr(2), port_limits=[1, 100])
        for i in range(6):
            striper.submit(Packet(100, seq=i))
        # Only 0 (ch0) and 1 (ch1) went out; 2 is stuck on ch0, and
        # crucially 3 (which would go to ch1) did NOT jump the queue.
        assert [p.seq for p in ports[1].sent] == [1]

    def test_pump_resumes_after_space(self):
        striper, ports = make_striper(make_rr(2), port_limits=[1, 100])
        for i in range(4):
            striper.submit(Packet(100, seq=i))
        ports[0].limit = 10  # space appears
        sent = striper.pump()
        assert sent == 2
        assert striper.backlog == 0
        assert [p.seq for p in ports[0].sent] == [0, 2]
        assert [p.seq for p in ports[1].sent] == [1, 3]

    def test_can_send_now(self):
        striper, ports = make_striper(make_rr(2), port_limits=[1, 1])
        assert striper.can_send_now() is False  # empty input queue
        striper.submit(Packet(100, seq=0))
        striper.submit(Packet(100, seq=1))
        striper.submit(Packet(100, seq=2))
        assert striper.can_send_now() is False  # ch0 full

    def test_counters(self):
        striper, ports = make_striper(make_rr(2))
        for i in range(5):
            striper.submit(Packet(100, seq=i))
        assert striper.packets_sent == 5
        assert striper.bytes_sent == 500


class TestMarkerEmission:
    def test_markers_every_round(self):
        algorithm = SRR([100.0, 100.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(interval_rounds=1, initial_markers=False),
        )
        for i in range(10):
            striper.submit(Packet(100, seq=i))
        # 10 unit packets exhaust a quantum each, so the pointer wraps
        # into rounds 2..6: 5 boundary crossings, each emitting one marker
        # per channel.
        markers0 = [p for p in ports[0].sent if is_marker(p)]
        markers1 = [p for p in ports[1].sent if is_marker(p)]
        assert len(markers0) == len(markers1) == 5
        assert striper.markers_sent == 10

    def test_interval_thins_markers(self):
        algorithm = SRR([100.0, 100.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(interval_rounds=3, initial_markers=False),
        )
        for i in range(20):
            striper.submit(Packet(100, seq=i))
        markers0 = [p for p in ports[0].sent if is_marker(p)]
        assert len(markers0) == 3  # rounds 4, 7, 10 boundaries

    def test_initial_markers(self):
        algorithm = SRR([100.0, 100.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(interval_rounds=5, initial_markers=True),
        )
        striper.submit(Packet(100, seq=0))
        assert is_marker(ports[0].sent[0])
        assert is_marker(ports[1].sent[0])

    def test_marker_contents_match_implicit_numbers(self):
        algorithm = SRR([500.0, 500.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(interval_rounds=1, initial_markers=False),
        )
        for size in [300, 300, 600, 200, 500, 400, 100]:
            striper.submit(Packet(size))
        for port in ports:
            for packet in port.sent:
                if is_marker(packet):
                    assert packet.round_number >= 1
                    assert packet.deficit > 0

    def test_marker_position_mid_round(self):
        algorithm = SRR([100.0, 100.0, 100.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(
                interval_rounds=1, position=1, initial_markers=False
            ),
        )
        for i in range(9):
            striper.submit(Packet(100, seq=i))
        # Emission happens when the pointer enters channel 1: on channel 0
        # the marker should appear right after channel 0's packet of each
        # round.
        stream0 = ports[0].sent
        assert not is_marker(stream0[0])
        assert is_marker(stream0[1])

    def test_force_marker_batch(self):
        algorithm = SRR([100.0, 100.0])
        striper, ports = make_striper(
            algorithm,
            policy=MarkerPolicy(interval_rounds=10, initial_markers=False),
        )
        striper.force_marker_batch()
        assert all(is_marker(port.sent[0]) for port in ports)

    def test_markers_require_srr_family(self):
        sharer = ShortestQueueFirst(2)
        with pytest.raises(ValueError):
            Striper(sharer, [ListPort(), ListPort()], MarkerPolicy())

    def test_force_marker_without_policy_rejected(self):
        striper, _ = make_striper(SRR([100.0, 100.0]))
        with pytest.raises(RuntimeError):
            striper.force_marker_batch()

    def test_markers_bypass_full_queue(self):
        algorithm = SRR([100.0, 100.0])
        ports = [ListPort(limit=1), ListPort(limit=1)]
        striper = Striper(
            TransformedLoadSharer(algorithm), ports,
            MarkerPolicy(interval_rounds=1, initial_markers=True),
        )
        striper.submit(Packet(100, seq=0))
        # The forced initial marker got through despite limit=1; the data
        # packet now honours backpressure and waits.
        assert is_marker(ports[0].sent[0])
        assert striper.backlog == 1
        ports[0].limit = 10
        striper.pump()
        assert [p.seq for p in ports[0].sent if not is_marker(p)] == [0]


class TestValidation:
    def test_port_count_mismatch(self):
        with pytest.raises(ValueError):
            Striper(TransformedLoadSharer(make_rr(2)), [ListPort()])

    def test_bad_policy_values(self):
        with pytest.raises(ValueError):
            MarkerPolicy(interval_rounds=-1)
        with pytest.raises(ValueError):
            MarkerPolicy(position=-2)

    def test_non_causal_sharer_works_without_markers(self):
        sharer = ShortestQueueFirst(2)
        ports = [ListPort(), ListPort()]
        striper = Striper(sharer, ports)
        for i in range(10):
            striper.submit(Packet(100, seq=i))
        assert len(ports[0].sent) + len(ports[1].sent) == 10


class BurstListPort(ListPort):
    """A :class:`ListPort` that also takes bursts."""

    def send_burst(self, packets):
        assert len(packets) <= self.free_capacity()
        self.sent.extend(packets)

    def free_capacity(self):
        if self.limit is None:
            return 1 << 30
        return max(0, self.limit - len(self.sent))


def _streams(ports):
    """Per-port wire streams: ("data", seq) and ("marker", r, d) items."""
    return [
        [
            ("marker", p.round_number, p.deficit) if is_marker(p)
            else ("data", p.seq)
            for p in port.sent
        ]
        for port in ports
    ]


def _reference_streams(quanta, sizes, policy):
    """The per-packet sender, from the paper's definitions alone.

    The frozen :class:`SRR` picks each packet's channel; after every packet
    the pointer is walked one channel at a time from its old to its new
    ``(ptr, round)``, and every ``interval_rounds``-th entry into
    ``position`` emits one marker per channel carrying that channel's
    next implicit number.
    """
    algorithm = SRR(quanta)
    n = len(quanta)
    state = algorithm.initial_state()
    streams = [[] for _ in range(n)]

    def markers():
        for channel in range(n):
            r, d = algorithm.next_number_for_channel(state, channel)
            streams[channel].append(("marker", r, d))

    if policy.initial_markers:
        markers()
    entries = 0
    for seq, size in enumerate(sizes):
        streams[algorithm.select(state)].append(("data", seq))
        old, state = state, algorithm.update(state, size)
        ptr, rnd = old.ptr, old.round_number
        while (ptr, rnd) != (state.ptr, state.round_number):
            ptr += 1
            if ptr == n:
                ptr, rnd = 0, rnd + 1
            if ptr == policy.position % n:
                entries += 1
                if entries % policy.interval_rounds == 0:
                    markers()
    return streams


class TestPumpMatchesPerPacketModel:
    @given(
        quanta=st.lists(st.integers(100, 1500), min_size=1, max_size=5),
        sizes=st.lists(st.integers(40, 4000), min_size=1, max_size=80),
        interval=st.integers(1, 3),
        position=st.integers(0, 6),
        bursty=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_streams_match_model(
        self, quanta, sizes, interval, position, bursty, seed
    ):
        """Every channel's wire stream — data order and each marker's
        place and ``(r, d)`` — equals the per-packet model's, under random
        backpressure.  Sizes up to 4000 B against 100-1500 B quanta make
        single steps hop channels and skip whole rounds."""
        policy = MarkerPolicy(interval_rounds=interval, position=position)
        port_cls = BurstListPort if bursty else ListPort
        ports = [port_cls(limit=0) for _ in quanta]
        striper = Striper(
            TransformedLoadSharer(SRR([float(q) for q in quanta])),
            ports,
            policy,
        )
        striper.submit_many([Packet(s, seq=i) for i, s in enumerate(sizes)])
        rng = random.Random(seed)
        while striper.backlog:
            rng.choice(ports).limit += rng.choice([1, 2, 5])
            striper.pump()
        assert _streams(ports) == _reference_streams(
            [float(q) for q in quanta], sizes, policy
        )
        assert striper.bytes_sent == sum(sizes)


class TestTracing:
    @staticmethod
    def _run(port_cls, tracer):
        ports = [port_cls(limit=3), port_cls(limit=3)]
        striper = Striper(
            TransformedLoadSharer(SRR([100.0, 250.0])),
            ports,
            MarkerPolicy(interval_rounds=1, initial_markers=False),
            tracer=tracer,
        )
        striper.submit_many(
            [Packet(100 + 50 * (i % 3), seq=i) for i in range(12)]
        )
        while striper.backlog:
            for port in ports:
                port.limit += 2
            striper.pump()
        return _streams(ports)

    def test_send_and_marker_events(self):
        """Per-packet and burst ports: the same events, and tracing does
        not change what the pump sends."""
        markers = None
        for port_cls in (ListPort, BurstListPort):
            tracer = Tracer()
            streams = self._run(port_cls, tracer)
            assert tracer.count(kind="send") == 12
            assert tracer.count(kind="marker") > 0
            if markers is None:
                markers = tracer.count(kind="marker")
            assert tracer.count(kind="marker") == markers
            first = next(tracer.filter(kind="send"))
            assert first.detail["channel"] == 0
            assert streams == self._run(port_cls, NULL_TRACER)
