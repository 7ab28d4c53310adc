"""Crash-recovery subsystem: codec, store, and handshake unit tests.

Three layers under test, bottom up:

* the **checkpoint codec** — fixed-layout value and packet records, the
  versioned CRC-guarded frame, and the typed corruption/version-skew
  errors, including forged bodies behind a valid CRC (fuzzed);
* the **checkpoint store** — last-good fallback, write-ahead log sealing
  (torn tails and malformed records stop the scan), and the persistent
  incarnation epoch;
* the **recovery managers** — serialize → rebuild → restore round trips
  for composed sender/receiver endpoints across the whole discipline ×
  reliability registry (the 39 constructible cells), asserted as a
  byte-level fixpoint: ``to_bytes(restore(fresh, to_bytes(live)))`` must
  reproduce the original frame exactly.
"""

import functools
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.bonding import BondingFrame
from repro.baselines.mppp import MpppFragment
from repro.core.markers import ReceiverSnapshot
from repro.core.packet import MarkerPacket, Packet, SackInfo
from repro.core.srr import SRR, SRRState, make_grr, make_rr
from repro.core.striper import MarkerPolicy
from repro.experiments.recovery import RecoveryRig
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import persistent_loss_schedule
from repro.transport.endpoint import (
    RELIABILITY_MODES,
    StripeReceiverPipeline,
    StripeSenderPipeline,
    make_discipline,
    receiver_mode_for,
)
from repro.transport.fast_path import FastChannelPort
from repro.transport.fec import ParityPacket
from repro.transport.recovery import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStore,
    CheckpointVersionError,
    ReceiverRecovery,
    SenderRecovery,
    checksum,
    decode_checkpoint,
    encode_checkpoint,
    pack_packet,
    receiver_from_bytes,
    receiver_to_bytes,
    sender_from_bytes,
    sender_to_bytes,
    unpack_packet,
)
from repro.transport import recovery

# ---------------------------------------------------------------------- #
# value codec + frame


class _Opaque:
    """An arbitrary object the codec has no layout for."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return type(other) is _Opaque and other.value == self.value


TREES = [
    None,
    True,
    False,
    0,
    -(2**70),
    3.5,
    float("inf"),
    "",
    "snow❄unicode",
    b"",
    b"\x00\xff" * 17,
    [],
    [1, [2, [3, None]]],
    (1, "two", 3.0),
    {},
    {"a": 1, 2: "b", None: [True, (b"x",)]},
    SRRState(1, 4, (0.0, 250.0, 500.0)),
    ReceiverSnapshot(2, 7, (0.0, 1.0), (True, False), (3, 4)),
]


class TestCheckpointCodec:
    @pytest.mark.parametrize("tree", TREES, ids=lambda t: type(t).__name__)
    def test_round_trip(self, tree):
        decoded = decode_checkpoint(encode_checkpoint(tree))
        assert decoded == tree or (tree != tree and decoded != decoded)

    def test_unknown_type_raises_at_encode_time(self):
        # No pickle escape: a type without a fixed layout fails when the
        # checkpoint is taken, not when it is read back.
        with pytest.raises(CheckpointError):
            encode_checkpoint(_Opaque({"nested": (1, 2)}))
        with pytest.raises(CheckpointError):
            encode_checkpoint({"k": [_Opaque(1)]})

    def test_receiver_snapshot_keeps_unset_sync_rounds(self):
        snap = ReceiverSnapshot(
            0, 3, (1.5, -2.0, 0.0), (False, True, False), (None, 4, None)
        )
        assert decode_checkpoint(encode_checkpoint(snap)) == snap

    def test_codec_has_no_pickle(self):
        assert not hasattr(recovery, "pickle")

    def test_round_trip_preserves_list_tuple_distinction(self):
        assert decode_checkpoint(encode_checkpoint([1, 2])) == [1, 2]
        assert decode_checkpoint(encode_checkpoint((1, 2))) == (1, 2)

    def test_srr_state_survives_as_srr_state(self):
        state = SRRState(0, 9, (10.0, 20.0))
        out = decode_checkpoint(encode_checkpoint({"k": state}))["k"]
        assert type(out) is SRRState
        assert out == state

    def test_frame_starts_with_magic(self):
        assert encode_checkpoint({"x": 1}).startswith(CHECKPOINT_MAGIC)

    def test_bad_magic_is_corrupt(self):
        blob = bytearray(encode_checkpoint({"x": 1}))
        blob[0] ^= 0xFF
        with pytest.raises(CheckpointCorruptError):
            decode_checkpoint(bytes(blob))

    @pytest.mark.parametrize("position", [5, 8, -6, -1])
    def test_any_flipped_byte_is_corrupt(self, position):
        blob = bytearray(encode_checkpoint({"x": list(range(20))}))
        blob[position] ^= 0x01
        with pytest.raises(CheckpointCorruptError):
            decode_checkpoint(bytes(blob))

    def test_truncation_is_corrupt(self):
        blob = encode_checkpoint({"x": 1})
        for cut in (0, 3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CheckpointCorruptError):
                decode_checkpoint(blob[:cut])

    def test_intact_future_version_is_version_error(self):
        blob = encode_checkpoint({"x": 1}, version=CHECKPOINT_VERSION + 1)
        with pytest.raises(CheckpointVersionError):
            decode_checkpoint(blob)

    def test_corrupted_future_version_is_corrupt_not_skew(self):
        # Validation order magic -> CRC -> version: bit rot that lands in
        # the version field must still read as corruption.
        blob = bytearray(encode_checkpoint({"x": 1}))
        blob[4] ^= 0x01  # version field, CRC now wrong
        with pytest.raises(CheckpointCorruptError):
            decode_checkpoint(bytes(blob))

    def test_typed_errors_are_value_errors(self):
        assert issubclass(CheckpointCorruptError, CheckpointError)
        assert issubclass(CheckpointVersionError, CheckpointError)
        assert issubclass(CheckpointError, ValueError)

    def test_checksum_is_unsigned_crc32(self):
        assert checksum(b"") == 0
        assert 0 <= checksum(b"\xff" * 64) <= 0xFFFFFFFF


# ---------------------------------------------------------------------- #
# forged frames: a valid CRC around a malformed body


def _reframe(body, version=CHECKPOINT_VERSION, length=None):
    """A frame with a correct CRC around an arbitrary body."""
    frame = struct.pack(
        "!4sHI", CHECKPOINT_MAGIC, version, len(body) if length is None else length
    ) + body
    return frame + struct.pack("!I", checksum(frame))


FORGED_BODIES = {
    "empty-body": b"",
    "unknown-kind": b"X",
    "truncated-int": b"Vi\x00\x01",
    "short-length-field": b"Vs\x00\x00",
    "length-overruns-body": b"Vs" + struct.pack("!I", 1000) + b"abc",
    "bad-utf8": b"Vs" + struct.pack("!I", 2) + b"\xff\xfe",
    "deep-nesting": b"V" + (b"l" + struct.pack("!I", 1)) * 5000 + b"N",
    "old-pickle-leaf": b"VP" + struct.pack("!I", 4) + b"junk",
    "unhashable-key": b"Vd" + struct.pack("!I", 1) + b"l" + struct.pack("!I", 0) + b"N",
    "huge-count": b"Vl" + struct.pack("!I", 0xFFFFFFFF),
    "trailing-bytes": b"VN\x00",
    "unknown-packet-kind": b"VpZ",
    "bad-marker-wire": b"VpM\x05xxxxx",
    "zero-size-packet": b"Vp" + struct.pack("!cBqqqq", b"D", 0, 0, 0, 0, 0) + b"N" * 4,
    "bad-packet-flags": b"Vp" + struct.pack("!cBqqqq", b"D", 99, 1, 0, 0, 0) + b"N" * 4,
    "fragment-of-fragment": b"Vp" + struct.pack("!cqq", b"G", 1, 4) * 2,
    "bad-flag-byte": b"R" + struct.pack("!q", 0) + b"N\x07",
}


class TestForgedCheckpoints:
    def test_reframe_matches_the_encoder(self):
        blob = encode_checkpoint({"x": [1, 2.5, "three"]})
        assert _reframe(blob[10:-4]) == blob

    @pytest.mark.parametrize("body", FORGED_BODIES.values(), ids=FORGED_BODIES.keys())
    def test_forged_body_is_corrupt(self, body):
        with pytest.raises(CheckpointCorruptError):
            decode_checkpoint(_reframe(body))

    def test_declared_length_short_of_body_is_corrupt(self):
        # Bytes between the declared body end and the CRC are not ignored.
        with pytest.raises(CheckpointCorruptError):
            decode_checkpoint(_reframe(b"VN", length=1))

    def test_v1_frame_is_version_error(self):
        with pytest.raises(CheckpointVersionError):
            decode_checkpoint(_reframe(b"N", version=1))

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from([b"V", b"S", b"R", b""]),
        body=st.binary(max_size=200),
    )
    def test_fuzzed_bodies_raise_only_typed_errors(self, kind, body):
        try:
            decode_checkpoint(_reframe(kind + body))
        except (CheckpointCorruptError, CheckpointVersionError):
            pass

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_endpoint_bodies_raise_only_typed_errors(self, data):
        body = bytearray(data.draw(st.sampled_from(_endpoint_bodies())))
        for _ in range(data.draw(st.integers(1, 4))):
            where = data.draw(st.integers(0, len(body) - 1))
            action = data.draw(st.sampled_from(["flip", "cut", "insert"]))
            if action == "flip":
                body[where] = data.draw(st.integers(0, 255))
            elif action == "cut":
                del body[where : where + data.draw(st.integers(1, 16))]
            else:
                body[where:where] = data.draw(st.binary(min_size=1, max_size=9))
            if not body:
                break
        try:
            decode_checkpoint(_reframe(bytes(body)))
        except (CheckpointCorruptError, CheckpointVersionError):
            pass

    @settings(max_examples=200, deadline=None)
    @given(record=st.binary(max_size=80))
    def test_fuzzed_packet_records_raise_only_corrupt(self, record):
        try:
            unpack_packet(record)
        except CheckpointCorruptError:
            pass


@functools.lru_cache(maxsize=None)
def _endpoint_bodies():
    """Sender and receiver bodies of a mid-run hybrid fabric rig."""
    sim = Simulator()
    rig = RecoveryRig(
        sim, reliability="hybrid", checkpoint_interval_s=None, with_fabric=True
    )
    persistent_loss_schedule(rig.n_channels, 0.1, until=0.04).install(
        sim, rig.channels, seed=5
    )
    rig.start_source(2e-4, stop_at=0.05)
    sim.run(until=0.04)
    return tuple(
        blob[10:-4]
        for blob in (
            sender_to_bytes(rig.sender, peer_epoch=2),
            receiver_to_bytes(rig.receiver, sender_epoch=2),
        )
    )


# ---------------------------------------------------------------------- #
# packet packing


class TestPacketPacking:
    def test_data_packet_round_trip(self):
        packet = Packet(
            1500, seq=7, label="a", flow="f1", payload=b"body", rseq=3, fseq=2
        )
        out = unpack_packet(pack_packet(packet))
        for name in ("size", "seq", "label", "flow", "payload", "rseq", "fseq"):
            assert getattr(out, name) == getattr(packet, name)
        assert out.uid != packet.uid  # a restored packet is a new object

    def test_marker_round_trip_via_wire_codec(self):
        marker = MarkerPacket(
            channel=2,
            round_number=9,
            deficit=123.5,
            credit=4,
            sack=SackInfo(cum_ack=5, blocks=((7, 9),)),
        )
        out = unpack_packet(pack_packet(marker))
        assert (out.channel, out.round_number, out.deficit) == (2, 9, 123.5)
        assert out.credit == 4
        assert out.sack == marker.sack

    def test_parity_round_trip_keeps_group_geometry(self):
        parity = ParityPacket(
            group=8, members=3, index=1, nparity=2, shard_len=512,
            payload=b"\x01" * 512, rseq=11, fseq=9,
        )
        out = unpack_packet(pack_packet(parity))
        assert type(out) is ParityPacket
        for name in (
            "group", "members", "index", "nparity", "shard_len", "payload",
            "size", "rseq", "fseq",
        ):
            assert getattr(out, name) == getattr(parity, name)

    def test_mppp_fragment_round_trip(self):
        fragment = MpppFragment(
            sequence=9, inner=Packet(700, seq=4, flow="f2", payload=b"x")
        )
        out = unpack_packet(pack_packet(fragment))
        assert type(out) is MpppFragment
        assert (out.sequence, out.header_bytes, out.size) == (
            9, fragment.header_bytes, fragment.size,
        )
        for name in ("size", "seq", "flow", "payload"):
            assert getattr(out.inner, name) == getattr(fragment.inner, name)
        assert out.uid != fragment.uid

    def test_bonding_frame_round_trip(self):
        frame = BondingFrame(
            sequence=3, channel=1, payload_bytes=512, content=[(11, 200), (12, 312)]
        )
        out = unpack_packet(pack_packet(frame))
        assert out == frame

    def test_unknown_packet_type_raises_at_encode_time(self):
        with pytest.raises(CheckpointError):
            pack_packet(_Opaque(1))

    def test_non_scalar_payload_raises_at_encode_time(self):
        with pytest.raises(CheckpointError):
            pack_packet(Packet(100, payload={"not": "a scalar"}))

    def test_packed_forms_survive_the_checkpoint_codec(self):
        packets = [
            Packet(500, seq=1),
            MarkerPacket(channel=0, round_number=1, deficit=0.0),
            ParityPacket(
                group=0, members=2, index=0, nparity=1, shard_len=4,
                payload=b"abcd",
            ),
        ]
        tree = decode_checkpoint(
            encode_checkpoint([pack_packet(p) for p in packets])
        )
        restored = [unpack_packet(t) for t in tree]
        assert restored[0].seq == 1
        assert restored[1].round_number == 1
        assert restored[2].group == 0


# ---------------------------------------------------------------------- #
# checkpoint store


class TestCheckpointStore:
    def test_load_empty_is_none(self):
        assert CheckpointStore().load_checkpoint() is None

    def test_save_then_load(self):
        store = CheckpointStore()
        store.save_checkpoint(encode_checkpoint({"v": 1}))
        assert store.load_checkpoint() == {"v": 1}
        assert store.checkpoints_saved == 1
        assert store.checkpoint_bytes > 0

    def test_corrupt_current_falls_back_to_previous(self):
        store = CheckpointStore()
        store.save_checkpoint(encode_checkpoint({"v": 1}))
        blob = bytearray(encode_checkpoint({"v": 2}))
        blob[-1] ^= 0xFF
        store.save_checkpoint(bytes(blob))
        assert store.load_checkpoint() == {"v": 1}
        assert store.fallbacks == 1

    def test_forged_current_frame_falls_back_to_previous(self):
        store = CheckpointStore()
        store.save_checkpoint(encode_checkpoint({"v": 1}))
        store.save_checkpoint(_reframe(b"Vl" + struct.pack("!I", 0xFFFFFFFF)))
        assert store.load_checkpoint() == {"v": 1}
        assert store.fallbacks == 1

    def test_both_corrupt_is_none(self):
        store = CheckpointStore()
        for v in (1, 2):
            blob = bytearray(encode_checkpoint({"v": v}))
            blob[-1] ^= 0xFF
            store.save_checkpoint(bytes(blob))
        assert store.load_checkpoint() is None
        assert store.fallbacks == 2

    def test_version_skew_propagates_not_papered_over(self):
        store = CheckpointStore()
        store.save_checkpoint(encode_checkpoint({"v": 1}))
        store.save_checkpoint(encode_checkpoint({"v": 2}, version=9))
        with pytest.raises(CheckpointVersionError):
            store.load_checkpoint()

    def test_checkpoint_truncates_wal(self):
        store = CheckpointStore()
        store.append_wal(b"one")
        store.save_checkpoint(encode_checkpoint({}))
        assert store.wal_payloads() == []
        assert store.wal_records == 1  # lifetime counter keeps counting

    def test_wal_round_trip(self):
        store = CheckpointStore()
        payloads = [b"a", b"bb", b"", b"\x00" * 100]
        for p in payloads:
            store.append_wal(p)
        assert store.wal_payloads() == payloads

    def test_torn_wal_tail_stops_scan(self):
        store = CheckpointStore()
        store.append_wal(b"good")
        store.append_wal(b"torn-away")
        store._wal[-1] = store._wal[-1][:-3]  # tear the tail record
        assert store.wal_payloads() == [b"good"]
        assert store.corrupt_wal_records == 1

    def test_bit_rotted_wal_record_stops_scan(self):
        store = CheckpointStore()
        store.append_wal(b"good")
        store.append_wal(b"rotten")
        store.append_wal(b"unreachable")
        sealed = bytearray(store._wal[1])
        sealed[5] ^= 0xFF
        store._wal[1] = bytes(sealed)
        assert store.wal_payloads() == [b"good"]
        assert store.corrupt_wal_records == 1

    def test_epoch_is_monotone_and_survives_lose_data(self):
        store = CheckpointStore()
        assert store.next_epoch() == 1
        assert store.next_epoch() == 2
        store.save_checkpoint(encode_checkpoint({"v": 1}))
        store.append_wal(b"x")
        store.lose_data()
        assert store.load_checkpoint() is None
        assert store.wal_payloads() == []
        # The incarnation counter is NVRAM-like: it must keep increasing
        # so a cold restart still gets a fresh epoch.
        assert store.next_epoch() == 3


# ---------------------------------------------------------------------- #
# registry-wide serialization round trip

N_CHANNELS = 3
MARKER_FAMILY = ("srr", "rr", "grr")

#: every constructible (discipline, reliability) cell: 7 disciplines x 5
#: modes + the two header-sync baselines x their 2 legal modes = 39.
CELLS = [
    (disc, rel)
    for disc in ("srr", "rr", "grr", "sqf", "random", "hash", "sprinklers")
    for rel in RELIABILITY_MODES
] + [
    (disc, rel)
    for disc in ("mppp", "bonding")
    for rel in ("best_effort", "quasi_fifo")
]


def _build_spec(disc):
    if disc == "srr":
        return SRR([500.0] * N_CHANNELS)
    if disc == "rr":
        return make_rr(N_CHANNELS)
    if disc == "grr":
        return make_grr([1.0] * N_CHANNELS)
    return make_discipline(disc, N_CHANNELS)


def _build_pair(sim, channels, disc, rel, deliveries):
    policy = (
        MarkerPolicy(interval_rounds=1) if disc in MARKER_FAMILY else None
    )
    mode = receiver_mode_for(_build_spec(disc), markers=policy is not None)
    sender = StripeSenderPipeline(
        [FastChannelPort(ch) for ch in channels],
        _build_spec(disc),
        marker_policy=policy,
        sim=sim,
        reliability=rel,
    )
    receiver = StripeReceiverPipeline(
        N_CHANNELS,
        _build_spec(disc),
        mode=mode,
        on_message=deliveries.append,
        sim=sim,
        reliability=rel,
        send_ack=lambda ack: sim.schedule(5e-4, sender.on_ack, ack),
    )
    return sender, receiver, mode


@pytest.mark.parametrize("disc,rel", CELLS, ids=[f"{d}-{r}" for d, r in CELLS])
def test_registry_cell_serialization_is_a_fixpoint(disc, rel):
    """serialize -> restore into a fresh endpoint -> serialize == original.

    Run live lossy traffic first so the serialized state is non-trivial
    (ARQ windows, resequencer buffers, partial rounds, residual frames),
    then require the restored endpoint to re-serialize byte-identically.
    """
    sim = Simulator()
    channels = [
        Channel(
            sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64,
            name=f"ch{i}",
        )
        for i in range(N_CHANNELS)
    ]
    deliveries = []
    sender, receiver, mode = _build_pair(sim, channels, disc, rel, deliveries)
    for i, ch in enumerate(channels):
        ch.on_deliver = receiver.channel_handler(i)
        ch.on_space = sender._pump
    persistent_loss_schedule(N_CHANNELS, 0.15, until=0.05).install(
        sim, channels, seed=3
    )

    seq = [0]

    def tick():
        if sim.now >= 0.05:
            return
        if sender.can_submit():
            sender.submit_packet(
                Packet(size=500, seq=seq[0], flow=f"f{seq[0] % 3}")
            )
            seq[0] += 1
        sim.schedule(1e-3, tick)

    sim.schedule_at(0.0, tick)
    sim.run(until=0.1)
    assert seq[0] > 0  # the state being serialized is real

    blob_s = sender_to_bytes(sender, peer_epoch=5)
    blob_r = receiver_to_bytes(receiver, sender_epoch=5)

    fresh_sender, fresh_receiver, _ = _build_pair(
        sim, channels, disc, rel, []
    )
    sender_from_bytes(fresh_sender, blob_s)
    receiver_from_bytes(fresh_receiver, blob_r)
    assert sender_to_bytes(fresh_sender, peer_epoch=5) == blob_s
    assert receiver_to_bytes(fresh_receiver, sender_epoch=5) == blob_r


def test_bonding_receiver_with_pending_frames_is_a_fixpoint():
    """Skewed channels leave BONDING frames waiting in the demux; they
    are checkpointed as packet records, not dropped or refused."""
    sim = Simulator()
    channels = [
        Channel(
            sim, bandwidth_bps=8e6, prop_delay=delay, queue_limit=64,
            name=f"ch{i}",
        )
        for i, delay in enumerate((5e-4, 3e-3, 1e-3))
    ]
    sender, receiver, _ = _build_pair(sim, channels, "bonding", "quasi_fifo", [])
    for i, ch in enumerate(channels):
        ch.on_deliver = receiver.channel_handler(i)
        ch.on_space = sender._pump

    def tick():
        if sender.can_submit():
            sender.submit_packet(Packet(size=700))
        sim.schedule(2e-4, tick)

    sim.schedule_at(0.0, tick)
    sim.run(until=0.0312)
    pending = receiver.sync.snapshot()["pending"]
    assert pending and all(type(f) is BondingFrame for f in pending)

    blob = receiver_to_bytes(receiver)
    _, fresh, _ = _build_pair(sim, channels, "bonding", "quasi_fifo", [])
    receiver_from_bytes(fresh, blob)
    assert receiver_to_bytes(fresh) == blob


def test_sender_checkpoint_rejected_by_receiver_restore():
    sim = Simulator()
    channels = [
        Channel(
            sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64,
            name=f"ch{i}",
        )
        for i in range(N_CHANNELS)
    ]
    sender, receiver, _ = _build_pair(sim, channels, "srr", "reliable", [])
    with pytest.raises(CheckpointError):
        receiver_from_bytes(receiver, sender_to_bytes(sender))
    with pytest.raises(CheckpointError):
        sender_from_bytes(sender, receiver_to_bytes(receiver))


def test_version_skewed_endpoint_blob_raises_typed_error():
    sim = Simulator()
    channels = [
        Channel(
            sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64,
            name=f"ch{i}",
        )
        for i in range(N_CHANNELS)
    ]
    sender, receiver, _ = _build_pair(sim, channels, "srr", "reliable", [])
    blob = bytearray(sender_to_bytes(sender))
    # Rewrite the version field and re-seal the CRC so the frame is intact
    # but from a "future" codec.
    struct.pack_into("!H", blob, 4, CHECKPOINT_VERSION + 1)
    blob[-4:] = struct.pack("!I", checksum(bytes(blob[:-4])))
    with pytest.raises(CheckpointVersionError):
        sender_from_bytes(sender, bytes(blob))


# ---------------------------------------------------------------------- #
# recovery managers


class TestRecoveryManagers:
    def _rig(self, sim, *, interval=0.02):
        channels = [
            Channel(
                sim, bandwidth_bps=8e6, prop_delay=5e-4, queue_limit=64,
                name=f"ch{i}",
            )
            for i in range(N_CHANNELS)
        ]
        deliveries = []
        sender, receiver, _ = _build_pair(
            sim, channels, "srr", "reliable", deliveries
        )
        for i, ch in enumerate(channels):
            ch.on_deliver = receiver.channel_handler(i)
            ch.on_space = sender._pump
        return channels, sender, receiver, deliveries

    def test_install_assigns_epoch_and_first_install_does_not_announce(self):
        sim = Simulator()
        _, sender, _, _ = self._rig(sim)
        sent = []
        recovery = SenderRecovery(
            sender, CheckpointStore(), sim=sim, send_control=sent.append
        )
        assert recovery.install() is False  # nothing to restore
        assert recovery.epoch == 1
        assert sent == []  # first incarnation has no peer to resync

    def test_periodic_checkpoints_fire(self):
        sim = Simulator()
        _, sender, _, _ = self._rig(sim)
        store = CheckpointStore()
        recovery = SenderRecovery(
            sender, store, sim=sim, checkpoint_interval_s=0.01
        )
        recovery.install()
        sim.run(until=0.055)
        assert store.checkpoints_saved >= 4
        recovery.stop()

    def test_sender_wal_logs_registered_packets(self):
        sim = Simulator()
        _, sender, _, _ = self._rig(sim)
        store = CheckpointStore()
        recovery = SenderRecovery(sender, store, sim=sim)
        recovery.install()
        for i in range(5):
            sender.submit_packet(Packet(size=500, seq=i))
        sim.run(until=0.05)
        assert store.wal_records >= 5
        recovery.stop()

    def test_second_install_restores_from_checkpoint(self):
        sim = Simulator()
        _, sender, _, _ = self._rig(sim)
        store = CheckpointStore()
        recovery = SenderRecovery(sender, store, sim=sim)
        recovery.install()
        for i in range(5):
            sender.submit_packet(Packet(size=500, seq=i))
        sim.run(until=0.02)
        recovery.checkpoint()
        recovery.stop()

        _, sender2, _, _ = self._rig(sim)
        sent = []
        recovery2 = SenderRecovery(
            sender2, store, sim=sim, send_control=sent.append
        )
        assert recovery2.install() is True
        assert recovery2.epoch == 2
        assert sent, "a restored sender announces itself"
        recovery2.stop()

    def test_forged_newest_checkpoint_install_falls_back(self):
        sim = Simulator()
        _, sender, _, _ = self._rig(sim)
        store = CheckpointStore()
        recovery = SenderRecovery(sender, store, sim=sim)
        recovery.install()
        recovery.checkpoint()
        store.save_checkpoint(_reframe(b"S" + b"\x00" * 7))
        recovery.stop()

        _, sender2, _, _ = self._rig(sim)
        recovery2 = SenderRecovery(sender2, store, sim=sim)
        assert recovery2.install() is True
        assert store.fallbacks == 1
        recovery2.stop()

    @pytest.mark.parametrize(
        "bad",
        [b"?junk", b"b\x00\x01", "valid-plus-trailing"],
        ids=["unknown-kind", "short-bind", "trailing-bytes"],
    )
    def test_sender_malformed_wal_record_ends_scan(self, bad):
        sim = Simulator()
        _, sender, _, _ = self._rig(sim)
        store = CheckpointStore()
        recovery = SenderRecovery(sender, store, sim=sim)
        recovery.install()
        recovery.checkpoint()
        for i in range(3):
            sender.submit_packet(Packet(size=500, seq=i))
        if bad == "valid-plus-trailing":
            bad = store.wal_payloads()[-1] + b"\x00"
        store.append_wal(bad)
        sender.submit_packet(Packet(size=500, seq=3))  # past the bad record
        recovery.stop()

        _, sender2, _, _ = self._rig(sim)
        recovery2 = SenderRecovery(sender2, store, sim=sim)
        assert recovery2.install() is True
        assert recovery2.wal_packets_restored == 3
        assert store.corrupt_wal_records == 1
        assert sorted(sender2.reliable.unacked) == [0, 1, 2]
        recovery2.stop()

    @pytest.mark.parametrize(
        "bad", [b"\x00" * 9, b"\x00" * 7, b""], ids=["long", "short", "empty"]
    )
    def test_receiver_malformed_wal_record_ends_scan(self, bad):
        sim = Simulator()
        _, _, receiver, _ = self._rig(sim)
        store = CheckpointStore()
        recovery = ReceiverRecovery(receiver, store, sim=sim)
        recovery.install()
        recovery.checkpoint()
        for rseq in (0, 1):
            store.append_wal(struct.pack("!q", rseq))
        store.append_wal(bad)
        store.append_wal(struct.pack("!q", 2))  # past the bad record
        recovery.stop()

        _, _, receiver2, _ = self._rig(sim)
        recovery2 = ReceiverRecovery(receiver2, store, sim=sim)
        assert recovery2.install() is True
        assert recovery2.wal_cursor_restored == 2
        assert store.corrupt_wal_records == 1
        assert receiver2.reliable.next_expected == 2
        recovery2.stop()

    def test_receiver_recovery_cold_without_checkpoint(self):
        sim = Simulator()
        _, _, receiver, _ = self._rig(sim)
        store = CheckpointStore()
        store.next_epoch()  # a prior incarnation existed
        store.lose_data()
        recovery = ReceiverRecovery(receiver, store, sim=sim)
        assert recovery.install() is False
        assert recovery.cold is True
        recovery.stop()
