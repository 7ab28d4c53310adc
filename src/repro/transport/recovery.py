"""Crash-tolerant endpoints: durable state + epoch-stamped resume.

The paper prescribes exactly one thing for endpoint death: "We deal with
sender or receiver node crashes by doing a reset."  This module makes
that prescription — and its much cheaper modern refinement — executable:

* **Durable state.**  :func:`sender_to_bytes` / :func:`receiver_to_bytes`
  serialize the *composed* endpoint state (SRR kernel, sync-model mirror,
  resequencer buffers, ARQ scoreboard + retransmit buffer, fabric flow
  table + DRR state, FEC group counters) into one versioned, CRC-guarded
  frame; :class:`CheckpointStore` is the durable-medium stand-in holding
  the last two checkpoints (last-good fallback) plus a write-ahead log of
  per-packet records so nothing submitted between checkpoints is lost.

* **Epoch-stamped resume.**  Every incarnation of an endpoint draws a
  fresh epoch from its store.  A restarted endpoint announces itself with
  a :class:`~repro.core.control.ResumePacket` /
  :class:`~repro.core.control.ResumeReportPacket` handshake; acks are
  stamped with the receiver's epoch so a sender rejects stale acks from
  the previous incarnation.  Data packets carry **no** epoch — the paper's
  no-header-on-data constraint (section 2.1) holds — staleness on the data
  plane is absorbed by rseq dedup (reliable modes) and by the marker
  stream itself (quasi-FIFO), which self-synchronizes within one marker
  round (Theorem 5.1).

* **Warm adoption, not reset.**  A restarted *sender* resumes from its
  checkpointed kernel, which is *behind* the receiver's mirror by the
  in-flight delta; since markers only ever move a mirror forward, the
  ResumePacket carries the sender's kernel snapshot and the receiver
  adopts it (:meth:`~repro.core.markers.SRRReceiver.adopt_snapshot`),
  flushing stale buffered data from the dead incarnation.  A restarted
  *receiver* restores a mirror that is stale-*behind* the live sender —
  exactly the state incoming markers are designed to fast-forward — so no
  reset is needed at all; the report simply tells the sender what to
  replay.  A receiver restarted **without** a checkpoint converges by
  waiting for the next marker round: cold resync, the Theorem 5.1
  mechanism itself.

Reconciliation (reliable modes): the receiver reports its rseq
high-water and SACK blocks; the sender treats the report as
*authoritative* — it retires below ``cum_ack``, rewrites its sacked flags
exactly to the report (a restarted receiver may have lost
out-of-order packets the sender believed sacked; classic SACK reneging),
replays everything else from the ARQ retransmit buffer *through SRR* so
recovery traffic stays inside the Theorem 3.2 fairness envelope, and
resets its RTO backoff per Karn's rule (the old samples describe a dead
path).
"""

from __future__ import annotations

import functools
import struct
import zlib
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.baselines.bonding import BondingFrame
from repro.baselines.mppp import MpppFragment
from repro.core.control import ResumePacket, ResumeReportPacket
from repro.core.markers import ReceiverSnapshot, decode_marker, encode_marker
from repro.core.packet import MarkerPacket, Packet
from repro.core.srr import SRRState
from repro.transport.fabric import FabricSnapshot
from repro.transport.fec import ParityPacket
from repro.transport.reliability import AckPacket

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointStore",
    "CheckpointVersionError",
    "ReceiverRecovery",
    "SenderRecovery",
    "checksum",
    "decode_checkpoint",
    "encode_checkpoint",
    "pack_packet",
    "receiver_from_bytes",
    "receiver_to_bytes",
    "sender_from_bytes",
    "sender_to_bytes",
    "unpack_packet",
]


def checksum(data: bytes) -> int:
    """CRC-32 as an unsigned 32-bit int.

    One helper for both corruption domains: checkpoint/WAL frames here and
    the delivered-corruption chaos assertions (``corrupt_deliver`` flips a
    byte; this is how tests prove the flip landed).
    """
    return zlib.crc32(data) & 0xFFFFFFFF


class CheckpointError(ValueError):
    """Base class for checkpoint codec failures."""


class CheckpointCorruptError(CheckpointError):
    """Frame or record failed its magic, CRC or layout check (bit rot,
    torn write, forged body)."""


class CheckpointVersionError(CheckpointError):
    """Frame is intact but written by an unknown codec version."""


# --------------------------------------------------------------------- #
# fixed-layout record codec
#
# A checkpoint body is one kind byte followed by that kind's sections in
# a fixed order: ``V`` a plain value (encode_checkpoint), ``S`` a sender,
# ``R`` a receiver.  Per-flow, per-packet and ARQ-window state are struct
# rows.  Only the small discipline and sync-model snapshots go through
# the value codec: None/bool/int/float/str/bytes, list/tuple/dict,
# SRRState, ReceiverSnapshot and packet leaves.  Encoding any other type
# raises CheckpointError when the checkpoint is taken; reading a
# malformed body or record raises CheckpointCorruptError and nothing
# else, so a forged frame can neither crash recovery nor build objects
# the codec did not write.

_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_PAIR = struct.Struct("!qq")
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
#: deepest list/tuple/dict nesting the value codec writes or reads
_MAX_VALUE_DEPTH = 32
#: strings up to this length have their scalar encoding memoized
_SHORT_STR = 64

#: presence bits of a packet record's optional sequence numbers
_HAS_SEQ, _HAS_RSEQ, _HAS_FSEQ, _SYNTHESIZED = 1, 2, 4, 8
#: packet records open with their kind byte: D data, M marker, Q parity,
#: G MPPP fragment, B BONDING frame
_DATA = struct.Struct("!cBqqqq")  # flags, size, seq, rseq, fseq
_MARKER = struct.Struct("!cB")  # wire length
_PARITY = struct.Struct("!cBqqqqqqqqq")  # flags, geometry, size, seqs
_FRAGMENT = struct.Struct("!cqq")  # MPPP sequence, header bytes
_FRAME = struct.Struct("!cqqqI")  # BONDING sequence, channel, bytes, slices
_KERNEL = struct.Struct("!qqI")  # ptr, round number, channels
_SENDER = struct.Struct("!qqqqqB")  # peer epoch, striper counters
_ARQ_SENDER = struct.Struct("!qBddd")  # next rseq, RTO presence, RTO triple
_ARQ_RECEIVER = struct.Struct("!qBq")  # cursor, has last ooo, last ooo
_FLOW_ROW = struct.Struct("!ddqI")  # weight, deficit, visits, queued
_BIND = struct.Struct("!cqq")  # kind, uid, rseq


@functools.lru_cache(maxsize=4096)
def _short_str(value: str) -> bytes:
    # Flow ids and codepoints repeat in every flow row and packet record.
    body = value.encode("utf-8")
    return b"s" + _U32.pack(len(body)) + body


def _put_scalar(out: bytearray, value: Any) -> None:
    kind = type(value)
    if value is None:
        out += b"N"
    elif kind is str:
        if len(value) <= _SHORT_STR:
            out += _short_str(value)
        else:
            body = value.encode("utf-8")
            out += b"s" + _U32.pack(len(body)) + body
    elif kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            out += b"i" + _I64.pack(value)
        else:
            body = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
            out += b"I" + _U32.pack(len(body)) + body
    elif kind is bool:
        out += b"T" if value else b"F"
    elif kind is float:
        out += b"f" + _F64.pack(value)
    elif kind is bytes:
        out += b"y" + _U32.pack(len(value)) + value
    else:
        raise CheckpointError(f"cannot checkpoint a {kind.__name__} value")


def _put_scalars(out: bytearray, values: Tuple[Any, ...]) -> None:
    # One call per packet or flow row: the common None and short-string
    # cases skip the per-value _put_scalar call.
    for value in values:
        if value is None:
            out += b"N"
        elif type(value) is str and len(value) <= _SHORT_STR:
            out += _short_str(value)
        else:
            _put_scalar(out, value)


def _put_value(out: bytearray, value: Any, depth: int = 0) -> None:
    kind = type(value)
    if kind is list or kind is tuple or kind is dict:
        if depth >= _MAX_VALUE_DEPTH:
            raise CheckpointError("checkpoint value nested too deeply")
        if kind is dict:
            out += b"d" + _U32.pack(len(value))
            for key, item in value.items():
                _put_value(out, key, depth + 1)
                _put_value(out, item, depth + 1)
        else:
            out += (b"l" if kind is list else b"t") + _U32.pack(len(value))
            for item in value:
                _put_value(out, item, depth + 1)
    elif kind is SRRState:
        n = len(value.dc)
        out += b"K" + _KERNEL.pack(value.ptr, value.round_number, n)
        out += struct.pack(f"!{n}d", *value.dc)
    elif kind is ReceiverSnapshot:
        n = len(value.dc)
        if not len(value.pending) == len(value.sync_round) == n:
            raise CheckpointError("receiver snapshot rows differ in length")
        out += b"R" + _KERNEL.pack(value.ptr, value.round_number, n)
        out += struct.pack(f"!{n}d", *value.dc)
        out += bytes(
            bool(pending) | (sync is not None) << 1
            for pending, sync in zip(value.pending, value.sync_round)
        )
        out += struct.pack(
            f"!{n}q", *(0 if sync is None else sync for sync in value.sync_round)
        )
    elif kind in _PACKET_WRITERS:
        out += b"p"
        _PACKET_WRITERS[kind](out, value)
    else:
        _put_scalar(out, value)


def _put_data(out: bytearray, packet: Packet) -> None:
    seq, rseq, fseq = packet.seq, packet.rseq, packet.fseq
    out += _DATA.pack(
        b"D",
        (seq is not None)
        | (rseq is not None) << 1
        | (fseq is not None) << 2
        | bool(packet.synthesized) << 3,
        packet.size,
        seq or 0,
        rseq or 0,
        fseq or 0,
    )
    _put_scalars(out, (packet.label, packet.flow, packet.payload, packet.codepoint))


def _put_marker(out: bytearray, marker: MarkerPacket) -> None:
    wire = encode_marker(marker)
    out += _MARKER.pack(b"M", len(wire)) + wire


def _put_parity(out: bytearray, parity: ParityPacket) -> None:
    seqs = (parity.seq, parity.rseq, parity.fseq)
    out += _PARITY.pack(
        b"Q",
        sum(1 << bit for bit, value in enumerate(seqs) if value is not None),
        parity.group, parity.members, parity.index, parity.nparity,
        parity.shard_len, parity.size, *(value or 0 for value in seqs),
    )
    out += _U32.pack(len(parity.payload)) + parity.payload


def _put_fragment(out: bytearray, fragment: MpppFragment) -> None:
    if type(fragment.inner) is not Packet:
        raise CheckpointError("an MPPP fragment must wrap a data packet")
    out += _FRAGMENT.pack(b"G", fragment.sequence, fragment.header_bytes)
    _put_data(out, fragment.inner)


def _put_frame(out: bytearray, frame: BondingFrame) -> None:
    out += _FRAME.pack(
        b"B",
        frame.sequence, frame.channel, frame.payload_bytes, len(frame.content)
    )
    for uid, nbytes in frame.content:
        out += _PAIR.pack(uid, nbytes)


_PACKET_WRITERS: Dict[type, Callable[[bytearray, Any], None]] = {
    Packet: _put_data,
    MarkerPacket: _put_marker,
    ParityPacket: _put_parity,
    MpppFragment: _put_fragment,
    BondingFrame: _put_frame,
}


def _put_packet(out: bytearray, packet: Any) -> None:
    put = _PACKET_WRITERS.get(type(packet))
    if put is None:
        raise CheckpointError(f"cannot checkpoint a {type(packet).__name__}")
    put(out, packet)


def _put_packets(out: bytearray, packets: Any) -> None:
    out += _U32.pack(len(packets))
    for packet in packets:
        _put_packet(out, packet)


def _encode(
    put: Callable[[bytearray, Any], None], value: Any, kind: bytes = b""
) -> bytes:
    """Run a writer; a value it cannot lay out raises CheckpointError."""
    out = bytearray(kind)
    try:
        put(out, value)
    except CheckpointError:
        raise
    except (struct.error, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"cannot checkpoint: {exc}") from None
    return bytes(out)


class _Reader:
    """Bounds-checked cursor over one checkpoint body or WAL record."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CheckpointCorruptError("record truncated")
        chunk = bytes(self.data[self.pos : end])
        self.pos = end
        return chunk

    def unpack(self, fmt: struct.Struct) -> Tuple[Any, ...]:
        values = fmt.unpack_from(self.data, self.pos)
        self.pos += fmt.size
        return values

    def array(self, code: str, n: int) -> Tuple[Any, ...]:
        return self.unpack(struct.Struct(f"!{n}{code}"))

    def bounded(self, n: int, width: int = 1) -> int:
        """``n``, if ``n`` items of at least ``width`` bytes fit the rest."""
        if n * width > len(self.data) - self.pos:
            raise CheckpointCorruptError("item count overruns the record")
        return n

    def count(self, width: int = 1) -> int:
        """A bounded u32 item count."""
        return self.bounded(self.unpack(_U32)[0], width)

    def flag(self) -> bool:
        (byte,) = self.unpack(_U8)
        if byte > 1:
            raise CheckpointCorruptError(f"bad flag byte {byte}")
        return bool(byte)

    # -- values ---------------------------------------------------------- #

    def scalar(self) -> Any:
        tag = self.take(1)
        if tag == b"N":
            return None
        if tag == b"s":
            return self.take(self.count()).decode("utf-8")
        if tag == b"i":
            return self.unpack(_I64)[0]
        if tag == b"T":
            return True
        if tag == b"F":
            return False
        if tag == b"f":
            return self.unpack(_F64)[0]
        if tag == b"y":
            return self.take(self.count())
        if tag == b"I":
            return int.from_bytes(self.take(self.count()), "big", signed=True)
        raise CheckpointCorruptError(f"unknown value tag {tag!r}")

    def value(self, depth: int = 0) -> Any:
        tag = self.data[self.pos : self.pos + 1]
        if tag in (b"l", b"t", b"d"):
            if depth >= _MAX_VALUE_DEPTH:
                raise CheckpointCorruptError("checkpoint value nested too deeply")
            self.pos += 1
            if tag == b"d":
                tree: Dict[Any, Any] = {}
                for _ in range(self.count(2)):
                    key = self.value(depth + 1)
                    tree[key] = self.value(depth + 1)
                return tree
            items = [self.value(depth + 1) for _ in range(self.count())]
            return items if tag == b"l" else tuple(items)
        if tag == b"K":
            self.pos += 1
            ptr, round_number, n = self.unpack(_KERNEL)
            return SRRState(ptr, round_number, self.array("d", n))
        if tag == b"R":
            self.pos += 1
            ptr, round_number, n = self.unpack(_KERNEL)
            dc = self.array("d", n)
            bits = self.take(n)
            syncs = self.array("q", n)
            if any(b > 3 for b in bits):
                raise CheckpointCorruptError("bad receiver snapshot row")
            return ReceiverSnapshot(
                ptr,
                round_number,
                dc,
                tuple(bool(b & 1) for b in bits),
                tuple(s if b & 2 else None for b, s in zip(bits, syncs)),
            )
        if tag == b"p":
            self.pos += 1
            return self.packet()
        return self.scalar()

    # -- packets --------------------------------------------------------- #

    def packet(self) -> Any:
        # Peek: each record's struct re-reads its own kind byte.
        read = _PACKET_READERS.get(self.data[self.pos : self.pos + 1])
        if read is None:
            raise CheckpointCorruptError("unknown packet record kind")
        return read(self)

    def packets(self) -> List[Any]:
        return [self.packet() for _ in range(self.count())]

    def data_packet(self) -> Packet:
        _, flags, size, seq, rseq, fseq = self.unpack(_DATA)
        if flags > 15:
            raise CheckpointCorruptError(f"bad packet flags {flags:#x}")
        packet = Packet(
            size,
            seq=seq if flags & _HAS_SEQ else None,
            label=self.scalar(),
            flow=self.scalar(),
            payload=self.scalar(),
            codepoint=self.scalar(),
            rseq=rseq if flags & _HAS_RSEQ else None,
            fseq=fseq if flags & _HAS_FSEQ else None,
        )
        packet.synthesized = bool(flags & _SYNTHESIZED)
        return packet

    def marker(self) -> MarkerPacket:
        _, length = self.unpack(_MARKER)
        return decode_marker(self.take(length))

    def parity(self) -> ParityPacket:
        _, flags, group, members, index, nparity, shard_len, size, seq, rseq, fseq = (
            self.unpack(_PARITY)
        )
        if flags > 7:
            raise CheckpointCorruptError(f"bad parity flags {flags:#x}")
        return ParityPacket(
            group, members, index, nparity, shard_len, self.take(self.count()),
            size=size,
            seq=seq if flags & _HAS_SEQ else None,
            rseq=rseq if flags & _HAS_RSEQ else None,
            fseq=fseq if flags & _HAS_FSEQ else None,
        )

    def fragment(self) -> MpppFragment:
        _, sequence, header_bytes = self.unpack(_FRAGMENT)
        if self.data[self.pos : self.pos + 1] != b"D":
            raise CheckpointCorruptError("an MPPP fragment must wrap a data packet")
        return MpppFragment(sequence, self.data_packet(), header_bytes)

    def frame(self) -> BondingFrame:
        _, sequence, channel, payload_bytes, n = self.unpack(_FRAME)
        content = [self.unpack(_PAIR) for _ in range(self.bounded(n, _PAIR.size))]
        return BondingFrame(sequence, channel, payload_bytes, content)

    # -- checkpoint bodies and WAL records ------------------------------- #

    def checkpoint(self) -> Any:
        kind = self.take(1)
        if kind == b"V":
            return self.value()
        if kind == b"S":
            return self.sender()
        if kind == b"R":
            return self.receiver()
        raise CheckpointCorruptError(f"unknown checkpoint kind {kind!r}")

    def sender(self) -> SenderCheckpoint:
        peer_epoch, *counters = self.unpack(_SENDER)
        kernel = self.value()
        arq = None
        if self.flag():
            next_rseq, has_rtt, srtt, rttvar, rto = self.unpack(_ARQ_SENDER)
            window = [(self.flag(), self.packet()) for _ in range(self.count(2))]
            rtt = (srtt if has_rtt & 1 else None, rttvar if has_rtt & 2 else None)
            arq = (next_rseq, (*rtt, rto), window, self.packets())
        fec = self.unpack(_PAIR) if self.flag() else None
        fabric = self.fabric() if self.flag() else None
        return SenderCheckpoint(
            peer_epoch, tuple(counters), kernel, arq, fec, fabric, self.packets()
        )

    def fabric(self) -> Tuple[List[Tuple[Any, ...]], Tuple[Any, ...], bool]:
        rows = []
        for _ in range(self.count(_FLOW_ROW.size + 2)):
            flow_id = self.scalar()
            tenant = self.scalar()
            weight, deficit, visits, queued = self.unpack(_FLOW_ROW)
            queue = [self.packet() for _ in range(self.bounded(queued))]
            rows.append((flow_id, tenant, weight, deficit, visits, queue))
        order = self.array("I", self.count(4))
        if any(i >= len(rows) for i in order):
            raise CheckpointCorruptError("active order names no flow row")
        return rows, tuple(rows[i][0] for i in order), self.flag()

    def receiver(self) -> ReceiverCheckpoint:
        (sender_epoch,) = self.unpack(_I64)
        sync = self.value()
        buffers = None
        if self.flag():
            buffers = [self.packets() for _ in range(self.count(4))]
        pushed = list(self.array("q", self.count(8)))
        arq = None
        if self.flag():
            cursor, has_last, last_ooo = self.unpack(_ARQ_RECEIVER)
            ooo = {}
            for _ in range(self.count(_I64.size + 1)):
                (rseq,) = self.unpack(_I64)
                ooo[rseq] = self.packet()
            arq = (cursor, last_ooo if has_last else None, ooo)
        fec = self.unpack(_PAIR) if self.flag() else None
        return ReceiverCheckpoint(sender_epoch, sync, buffers, pushed, arq, fec)

    def sender_wal(self) -> Tuple[bytes, Any, Any, Any]:
        """``(kind, uid, flow_id, packet or rseq)`` of a sender WAL record."""
        kind = self.take(1)
        if kind == b"b":
            uid, rseq = self.unpack(_PAIR)
            return kind, uid, None, rseq
        if kind == b"p":
            return kind, None, None, self.packet()
        if kind == b"s":
            (uid,) = self.unpack(_I64)
            flow_id = self.scalar()
            return kind, uid, flow_id, self.packet()
        raise CheckpointCorruptError(f"unknown WAL record kind {kind!r}")

    def cursor(self) -> int:
        return self.unpack(_I64)[0]


_PACKET_READERS: Dict[bytes, Callable[[_Reader], Any]] = {
    b"D": _Reader.data_packet,
    b"M": _Reader.marker,
    b"Q": _Reader.parity,
    b"G": _Reader.fragment,
    b"B": _Reader.frame,
}


def _parse(data: bytes, read: Callable[[_Reader], Any]) -> Any:
    """Read all of ``data``; every failure is a CheckpointCorruptError."""
    reader = _Reader(data)
    try:
        value = read(reader)
    except CheckpointCorruptError:
        raise
    except (struct.error, ValueError, TypeError, OverflowError) as exc:
        raise CheckpointCorruptError(f"malformed record: {exc}") from None
    if reader.pos != len(data):
        raise CheckpointCorruptError(
            f"{len(data) - reader.pos} trailing bytes after the record"
        )
    return value


CHECKPOINT_MAGIC = b"SRCK"
CHECKPOINT_VERSION = 2
_HEADER = struct.Struct("!4sHI")  # magic, version, body length


def _frame(body: bytes, version: int = CHECKPOINT_VERSION) -> bytes:
    frame = _HEADER.pack(CHECKPOINT_MAGIC, version, len(body)) + body
    return frame + _U32.pack(checksum(frame))


def encode_checkpoint(tree: Any, *, version: int = CHECKPOINT_VERSION) -> bytes:
    """Frame a plain value as ``magic | version | length | body | crc32``."""
    return _frame(_encode(_put_value, tree, b"V"), version)


def decode_checkpoint(blob: bytes) -> Any:
    """Validate and decode a checkpoint frame.

    Validation order is magic → CRC → version: a bit-rotted frame raises
    :class:`CheckpointCorruptError` even if the rot landed in the version
    field, while an *intact* frame from another codec version raises the
    typed :class:`CheckpointVersionError` so callers can distinguish skew
    from damage.  A body that does not parse, or that does not fill its
    declared length exactly, is corrupt.  Returns the value of an
    :func:`encode_checkpoint` frame, or the decoded sections of a sender
    or receiver checkpoint.
    """
    if len(blob) < _HEADER.size + 4:
        raise CheckpointCorruptError("checkpoint too short")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError("bad checkpoint magic")
    frame, (crc,) = blob[:-4], _U32.unpack(blob[-4:])
    if checksum(frame) != crc:
        raise CheckpointCorruptError("checkpoint CRC mismatch")
    magic, version, length = _HEADER.unpack_from(blob, 0)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"unknown checkpoint version {version}")
    body = frame[_HEADER.size :]
    if len(body) != length:
        raise CheckpointCorruptError("checkpoint body length mismatch")
    return _parse(body, _Reader.checkpoint)


#: a sealed WAL record is ``length | crc32 | payload``
_SEAL = struct.Struct("!II")


def _unseal_records(blob: bytes) -> Tuple[List[bytes], int]:
    """Decode a concatenation of sealed WAL records.

    Returns ``(payloads, skipped)``; a torn or bit-rotted tail stops the
    scan (everything after a bad record is unordered noise) and counts as
    skipped.
    """
    payloads: List[bytes] = []
    skipped = 0
    pos = 0
    total = len(blob)
    while pos < total:
        start = pos + _SEAL.size
        if start > total:
            skipped += 1
            break
        length, crc = _SEAL.unpack_from(blob, pos)
        end = start + length
        if end > total:
            skipped += 1
            break
        payload = blob[start:end]
        if checksum(payload) != crc:
            skipped += 1
            break
        payloads.append(payload)
        pos = end
    return payloads, skipped


class CheckpointStore:
    """Durable-medium stand-in that survives endpoint reconstruction.

    Holds the current checkpoint, the previous one (last-good fallback:
    if the current frame fails its CRC the previous is served instead),
    a write-ahead log of sealed records appended since the last
    checkpoint, and the endpoint's persistent incarnation-epoch counter.
    In the simulator this lives in host memory across kill/restart; a
    production port would back it with two checkpoint files and an
    append-only log, unchanged API.
    """

    def __init__(self) -> None:
        self._current: Optional[bytes] = None
        self._previous: Optional[bytes] = None
        self._wal: List[bytes] = []
        self.epoch = 0
        self.checkpoints_saved = 0
        self.wal_records = 0
        self.wal_bytes = 0
        self.fallbacks = 0
        self.corrupt_wal_records = 0

    def next_epoch(self) -> int:
        """Draw a fresh incarnation epoch (first incarnation gets 1)."""
        self.epoch += 1
        return self.epoch

    @property
    def checkpoint_bytes(self) -> int:
        return len(self._current) if self._current is not None else 0

    def save_checkpoint(self, blob: bytes) -> None:
        """Install a new checkpoint; the WAL it subsumes is truncated."""
        self._previous = self._current
        self._current = blob
        self._wal.clear()
        self.checkpoints_saved += 1

    def append_wal(self, payload: bytes) -> None:
        sealed = _SEAL.pack(len(payload), zlib.crc32(payload)) + payload
        self._wal.append(sealed)
        self.wal_records += 1
        self.wal_bytes += len(sealed)

    def load_checkpoint(self) -> Optional[Any]:
        """Decode the newest intact checkpoint, or None if there is none.

        Corruption falls back to the previous checkpoint (counted in
        ``fallbacks``); version skew propagates as the typed
        :class:`CheckpointVersionError` — skew is an operator problem, not
        something an older frame can paper over.
        """
        for blob in (self._current, self._previous):
            if blob is None:
                continue
            try:
                return decode_checkpoint(blob)
            except CheckpointVersionError:
                raise
            except CheckpointCorruptError:
                self.fallbacks += 1
        return None

    def wal_payloads(self) -> List[bytes]:
        payloads, skipped = _unseal_records(b"".join(self._wal))
        self.corrupt_wal_records += skipped
        return payloads

    def lose_data(self) -> None:
        """Simulate losing checkpoints and WAL while the epoch survives.

        The cold-restart fixture: crash-recovery epochs must stay
        monotonic even when state is gone (think an NVRAM incarnation
        counter, or a clock-derived epoch), so only the *data* is wiped.
        The next :meth:`load_checkpoint` returns None and the endpoint
        comes up cold.
        """
        self._current = None
        self._previous = None
        self._wal.clear()


# --------------------------------------------------------------------- #
# packet records


def pack_packet(packet: Any) -> bytes:
    """Fixed-layout record of a buffered packet.

    One record per kind: data packets as a struct row plus scalar
    ``label``/``flow``/``payload``/``codepoint``, markers as their
    canonical wire form, parity with its group geometry (a stripe-group
    shard buffered in a resequencer must come back with it or the FEC
    receiver cannot consume it), MPPP fragments and BONDING frames with
    their sequence headers.  ``uid`` is deliberately dropped: a restored
    packet is a new object.  Any other packet type raises
    :class:`CheckpointError`.
    """
    return _encode(_put_packet, packet)


def unpack_packet(record: bytes) -> Any:
    """Inverse of :func:`pack_packet`; malformed input is corrupt."""
    return _parse(record, _Reader.packet)


def _sharer_snapshot(sharer: Any) -> Any:
    snap = getattr(sharer, "snapshot", None)
    if snap is not None:
        return snap()
    kernel = getattr(sharer, "kernel", None)
    if kernel is not None:
        return kernel.snapshot()
    return None


def _sharer_restore(sharer: Any, state: Any) -> None:
    if state is None:
        return
    restore = getattr(sharer, "restore", None)
    if restore is not None:
        restore(state)
        return
    kernel = getattr(sharer, "kernel", None)
    if kernel is not None:
        kernel.restore(state)
        return
    raise CheckpointError(f"{type(sharer).__name__} cannot restore state")


# --------------------------------------------------------------------- #
# composed endpoint state <-> checkpoint body


class SenderCheckpoint(NamedTuple):
    """A decoded sender checkpoint, in its body's section order."""

    peer_epoch: int
    #: striper packets/bytes/markers sent, crossings seen, initial markers
    counters: Tuple[int, ...]
    kernel: Any
    #: ``(next_rseq, (srtt, rttvar, rto), [(sacked, packet)], overflow)``
    arq: Optional[Tuple[int, Tuple[Any, ...], List[Tuple[bool, Any]], List[Any]]]
    #: ``(next_fseq, group_base)``
    fec: Optional[Tuple[int, int]]
    #: ``(rows, active_order, head_credited)``; one row per flow:
    #: ``(flow_id, tenant, weight, deficit, visits, queue)``
    fabric: Optional[Tuple[List[Tuple[Any, ...]], Tuple[Any, ...], bool]]
    #: striper input not yet stamped by the ARQ layer
    queue: List[Any]


class ReceiverCheckpoint(NamedTuple):
    """A decoded receiver checkpoint, in its body's section order."""

    sender_epoch: int
    sync: Any
    buffers: Optional[List[List[Any]]]
    pushed: List[int]
    #: ``(next_expected, last_ooo, {rseq: packet})``
    arq: Optional[Tuple[int, Optional[int], Dict[int, Any]]]
    #: ``(next_expected, delivered_hw)``
    fec: Optional[Tuple[int, int]]


def _put_sender(out: bytearray, state: Tuple[Any, int]) -> None:
    pipeline, peer_epoch = state
    striper = pipeline.striper
    out += _SENDER.pack(
        peer_epoch,
        striper.packets_sent,
        striper.bytes_sent,
        striper.markers_sent,
        striper._crossings_seen,
        bool(striper._initial_markers_pending),
    )
    _put_value(out, _sharer_snapshot(striper.sharer))
    reliable = pipeline.reliable
    if reliable is None:
        out += b"\x00"
    else:
        rto = reliable.rto
        out += b"\x01" + _ARQ_SENDER.pack(
            reliable.next_rseq,
            (rto.srtt is not None) | (rto.rttvar is not None) << 1,
            rto.srtt or 0.0,
            rto.rttvar or 0.0,
            rto.rto,
        )
        out += _U32.pack(len(reliable.unacked))
        for record in reliable.unacked.values():
            out += b"\x01" if record.sacked else b"\x00"
            _put_packet(out, record.packet)
        _put_packets(out, reliable._overflow)
    fec = pipeline.fec
    if fec is None:
        out += b"\x00"
    else:
        # The in-progress group's shards are dropped: after restart the
        # group would seal with holes anyway, and hybrid's ARQ backstop
        # (or pure-fec's gap skip) already owns unrecoverable positions.
        out += b"\x01" + _PAIR.pack(fec._next_fseq, fec._group_base)
    fabric = pipeline.fabric
    if fabric is None:
        out += b"\x00"
    else:
        out += b"\x01"
        _put_fabric(out, fabric)
    # Queue entries already stamped with an rseq alias the ARQ retransmit
    # buffer and come back through the replay path; only unstamped entries
    # are serialized here.
    _put_packets(
        out,
        [p for p in striper.input_queue if getattr(p, "rseq", None) is None],
    )


def _put_fabric(out: bytearray, fabric: Any) -> None:
    # One row per flow straight from the table (fabric.snapshot() would
    # copy every idle flow's scheduling state first); restore goes back
    # through fabric.restore().
    table = fabric.table
    pack_row = _FLOW_ROW.pack
    out += _U32.pack(len(table))
    for flow in table:
        _put_scalars(out, (flow.flow_id, flow.tenant))
        queue = flow.queue
        out += pack_row(flow.weight, flow.deficit, flow.visits, len(queue))
        for packet in queue:
            _put_packet(out, packet)
    order: List[int] = []
    if fabric._active:
        row_of = {flow.flow_id: index for index, flow in enumerate(table)}
        order = [row_of[flow.flow_id] for flow in fabric._active]
    out += _U32.pack(len(order)) + struct.pack(f"!{len(order)}I", *order)
    out += b"\x01" if fabric._head_credited else b"\x00"


def restore_sender_state(pipeline: Any, state: Any) -> None:
    if type(state) is not SenderCheckpoint:
        raise CheckpointError("not a sender checkpoint")
    striper = pipeline.striper
    _sharer_restore(striper.sharer, state.kernel)
    (
        striper.packets_sent,
        striper.bytes_sent,
        striper.markers_sent,
        striper._crossings_seen,
        initial_markers,
    ) = state.counters
    striper._initial_markers_pending = bool(initial_markers)
    if state.arq is not None and pipeline.reliable is not None:
        reliable = pipeline.reliable
        next_rseq, (srtt, rttvar, rto), window, overflow = state.arq
        reliable.register_restored(
            [packet for _, packet in window] + overflow,
            next_rseq=next_rseq,
            sacked_rseqs=[packet.rseq for sacked, packet in window if sacked],
        )
        reliable.rto.srtt = srtt
        reliable.rto.rttvar = rttvar
        reliable.rto.rto = rto
    if state.fec is not None and pipeline.fec is not None:
        pipeline.fec._next_fseq, pipeline.fec._group_base = state.fec
    if state.fabric is not None and pipeline.fabric is not None:
        fabric = pipeline.fabric
        rows, active_order, head_credited = state.fabric
        for flow_id, tenant, weight, _, _, queue in rows:
            flow = fabric.table.get(flow_id)
            if flow is None:
                flow = fabric.table.register(flow_id, weight=weight, tenant=tenant)
            flow.queue.clear()
            flow.queue.extend(queue)
        fabric.restore(
            FabricSnapshot(
                flows=tuple((row[0], row[3], row[4]) for row in rows),
                active_order=active_order,
                head_credited=head_credited,
            )
        )
    # Queued-but-unstamped input is re-submitted through the normal path
    # last, so it lands behind everything the ARQ buffer will replay.
    for packet in state.queue:
        pipeline._submit(packet)


def _put_receiver(out: bytearray, state: Tuple[Any, int]) -> None:
    pipeline, sender_epoch = state
    out += _I64.pack(sender_epoch)
    _put_value(out, pipeline.sync.snapshot())
    buffers = getattr(pipeline.resequencer, "buffers", None)
    if buffers is None:
        out += b"\x00"
    else:
        out += b"\x01" + _U32.pack(len(buffers))
        for buf in buffers:
            _put_packets(out, buf)
    pushed = pipeline._pushed_data
    out += _U32.pack(len(pushed)) + struct.pack(f"!{len(pushed)}q", *pushed)
    reliable = pipeline.reliable
    if reliable is None:
        out += b"\x00"
    else:
        last_ooo = reliable._last_ooo
        out += b"\x01" + _ARQ_RECEIVER.pack(
            reliable.next_expected, last_ooo is not None, last_ooo or 0
        )
        out += _U32.pack(len(reliable._ooo))
        for rseq, packet in reliable._ooo.items():
            out += _I64.pack(rseq)
            _put_packet(out, packet)
    fec = pipeline.fec
    if fec is None:
        out += b"\x00"
    else:
        # Partial groups and cached shards are dropped: parity for them
        # may already be lost with the process, and the ARQ backstop /
        # gap-skip timer owns those positions after restart.
        out += b"\x01" + _PAIR.pack(fec._next_expected, fec._delivered_hw)


def restore_receiver_state(pipeline: Any, state: Any) -> None:
    if type(state) is not ReceiverCheckpoint:
        raise CheckpointError("not a receiver checkpoint")
    snap = state.sync
    reseq = pipeline.resequencer
    if snap is not None:
        if isinstance(snap, ReceiverSnapshot):
            # Faithful restore, not adopt_snapshot: adoption is the warm
            # handshake path and deliberately resets pending/sync_round.
            reseq.restore(snap)
        else:
            restore = getattr(reseq, "restore", None)
            if restore is None:
                raise CheckpointError(
                    f"{type(reseq).__name__} cannot restore state"
                )
            restore(snap)
    if state.buffers is not None and hasattr(reseq, "buffers"):
        count = 0
        for buf, packets in zip(reseq.buffers, state.buffers):
            buf.clear()
            buf.extend(packets)
            count += len(buf)
        if hasattr(reseq, "_buffered"):
            reseq._buffered = count
    for channel, value in enumerate(state.pushed[: len(pipeline._pushed_data)]):
        pipeline._pushed_data[channel] = value
    if state.arq is not None and pipeline.reliable is not None:
        next_expected, last_ooo, ooo = state.arq
        pipeline.reliable.restore_window(next_expected, ooo, last_ooo=last_ooo)
    if state.fec is not None and pipeline.fec is not None:
        pipeline.fec._next_expected, pipeline.fec._delivered_hw = state.fec


def sender_to_bytes(pipeline: Any, *, peer_epoch: int = 0) -> bytes:
    """Serialize a :class:`StripeSenderPipeline`'s composed state."""
    return _frame(_encode(_put_sender, (pipeline, peer_epoch), b"S"))


def sender_from_bytes(pipeline: Any, blob: bytes) -> SenderCheckpoint:
    """Restore a freshly constructed sender pipeline from a checkpoint."""
    state = decode_checkpoint(blob)
    restore_sender_state(pipeline, state)
    return state


def receiver_to_bytes(pipeline: Any, *, sender_epoch: int = 0) -> bytes:
    """Serialize a :class:`StripeReceiverPipeline`'s composed state."""
    return _frame(_encode(_put_receiver, (pipeline, sender_epoch), b"R"))


def receiver_from_bytes(pipeline: Any, blob: bytes) -> ReceiverCheckpoint:
    """Restore a freshly constructed receiver pipeline from a checkpoint."""
    state = decode_checkpoint(blob)
    restore_receiver_state(pipeline, state)
    return state


# --------------------------------------------------------------------- #
# WAL records (individually CRC-sealed by the store)
#
# receiver: the delivered rseq as one ``!q``.  sender: a kind byte, then
# ``b`` uid + rseq, ``p`` a packet record, or ``s`` uid + flow scalar + a
# packet record.


def _put_submission(out: bytearray, entry: Tuple[Any, Any]) -> None:
    flow_id, packet = entry
    out += _I64.pack(packet.uid)
    _put_scalar(out, flow_id)
    _put_packet(out, packet)


def _wal_records(store: CheckpointStore, read: Callable[[_Reader], Any]) -> List[Any]:
    """Decode the store's WAL; a malformed record ends the scan and is
    counted like a torn tail."""
    records = []
    for payload in store.wal_payloads():
        try:
            records.append(_parse(payload, read))
        except CheckpointCorruptError:
            store.corrupt_wal_records += 1
            break
    return records


# --------------------------------------------------------------------- #
# recovery managers


class SenderRecovery:
    """Checkpoint + WAL + resume handshake for a sender pipeline.

    WAL records between checkpoints:

    * ``pkt`` — a packet the ARQ layer stamped (carries its rseq); written
      synchronously with submission, so nothing accepted from the
      application can be lost by a crash.
    * ``sub`` — a fabric submission (uid-keyed), written before the packet
      enters its flow queue.
    * ``bind`` — ``uid -> rseq``, written when a fabric packet drains into
      the ARQ layer.  Replaying a restored fabric in DRR order could
      assign *different* rseqs than the original incremental drain did, so
      bound packets are reinstalled with their original rseqs and only
      unbound ones re-drain through the fabric.

    On restart, :meth:`install` restores the last checkpoint, applies the
    WAL, announces the new epoch with a :class:`ResumePacket` (retried
    until the receiver's report echoes it), and on the report reconciles +
    replays through SRR.
    """

    def __init__(
        self,
        pipeline: Any,
        store: CheckpointStore,
        *,
        sim: Any = None,
        checkpoint_interval_s: Optional[float] = None,
        send_control: Optional[Callable[[Any], None]] = None,
        resume_retry_s: float = 0.04,
    ) -> None:
        self.pipeline = pipeline
        self.store = store
        self.sim = sim
        self.checkpoint_interval_s = checkpoint_interval_s
        self.send_control = send_control
        self.resume_retry_s = resume_retry_s
        self.epoch = 0
        self.peer_epoch = 0
        self.resumed_from_checkpoint = False
        self.recovered_at: Optional[float] = None
        self.stale_acks = 0
        self.stale_reports = 0
        self.replayed_packets = 0
        self.wal_packets_restored = 0
        self._ckpt_timer: Any = None
        self._resume_timer: Any = None
        self._awaiting_report = False
        self._pending_replay = False
        self._reconciled_pair = (0, 0)
        self._stopped = False
        self._orig_fabric_submit: Optional[Callable[..., Any]] = None

    # -- lifecycle ----------------------------------------------------- #

    def install(self) -> bool:
        """Hook the pipeline, restore durable state, start the handshake.

        Returns True when state was restored from the store (a restart),
        False on a first incarnation.
        """
        restored = self._restore()
        self.epoch = self.store.next_epoch()
        reliable = self.pipeline.reliable
        if reliable is not None:
            reliable.on_register = self._on_register
        if self.pipeline.fabric is not None:
            self._orig_fabric_submit = self.pipeline.submit
            self.pipeline.submit = self._logged_submit
        if restored:
            self.resumed_from_checkpoint = True
            self._pending_replay = reliable is not None
            self._awaiting_report = True
            self._send_resume()
            # Collapse checkpoint + WAL into one fresh checkpoint so the
            # WAL never needs to be idempotent across repeated crashes.
            self.checkpoint()
        self._arm_checkpoint_timer()
        return restored

    def stop(self) -> None:
        """Cancel timers; called when this incarnation is killed."""
        self._stopped = True
        for timer in (self._ckpt_timer, self._resume_timer):
            if timer is not None:
                timer.cancel()
        self._ckpt_timer = None
        self._resume_timer = None

    def checkpoint(self) -> bytes:
        blob = sender_to_bytes(self.pipeline, peer_epoch=self.peer_epoch)
        self.store.save_checkpoint(blob)
        return blob

    def _arm_checkpoint_timer(self) -> None:
        if (
            self.checkpoint_interval_s is None
            or self.sim is None
            or self._stopped
        ):
            return
        self._ckpt_timer = self.sim.schedule(
            self.checkpoint_interval_s, self._on_checkpoint_timer
        )

    def _on_checkpoint_timer(self) -> None:
        self._ckpt_timer = None
        if self._stopped:
            return
        self.checkpoint()
        self._arm_checkpoint_timer()

    # -- WAL hooks ------------------------------------------------------ #

    def _on_register(self, packet: Any) -> None:
        if self._orig_fabric_submit is not None:
            record = _BIND.pack(b"b", packet.uid, packet.rseq)
        else:
            record = _encode(_put_packet, packet, b"p")
        self.store.append_wal(record)

    def _logged_submit(self, flow_id: Any, packet: Any) -> bool:
        self.store.append_wal(_encode(_put_submission, (flow_id, packet), b"s"))
        assert self._orig_fabric_submit is not None
        return self._orig_fabric_submit(flow_id, packet)

    # -- restore --------------------------------------------------------- #

    def _restore(self) -> bool:
        state = self.store.load_checkpoint()
        if state is None:
            return False
        restore_sender_state(self.pipeline, state)
        self.peer_epoch = state.peer_epoch
        self._apply_wal()
        return True

    def _apply_wal(self) -> None:
        reliable = self.pipeline.reliable
        fabric = self.pipeline.fabric
        pending: Dict[int, Tuple[Any, Any]] = {}  # uid -> (flow_id, packet)
        bound: List[Any] = []
        for kind, uid, flow_id, item in _wal_records(self.store, _Reader.sender_wal):
            if kind == b"p":
                packet = item
                if reliable is not None and packet.rseq is not None:
                    bound.append(packet)
                else:
                    self.pipeline._submit(packet)
                self.wal_packets_restored += 1
            elif kind == b"s":
                pending[uid] = (flow_id, item)
            else:  # b"b": item is the rseq the packet drained under
                entry = pending.pop(uid, None)
                if entry is not None:
                    packet = entry[1]
                    packet.rseq = item
                    bound.append(packet)
                elif fabric is not None:
                    # Submitted before the checkpoint, drained after it:
                    # the packet sits in a restored flow queue.  Move it
                    # to the ARQ buffer under its logged rseq.
                    packet = _pop_fabric_uid(fabric, uid)
                    if packet is not None:
                        packet.rseq = item
                        bound.append(packet)
                self.wal_packets_restored += 1
        if bound and reliable is not None:
            reliable.register_restored(bound)
        for flow_id, packet in pending.values():
            # Logged at fabric entry but never drained: re-submit through
            # the normal fabric path (rseq assignment happens at drain).
            packet.rseq = None
            assert self._orig_fabric_submit is None  # not hooked yet
            self.pipeline.submit(flow_id, packet)

    # -- handshake ------------------------------------------------------- #

    def _kernel_state(self) -> Any:
        return _sharer_snapshot(self.pipeline.striper.sharer)

    def _base_rseq(self) -> int:
        reliable = self.pipeline.reliable
        if reliable is None:
            return -1
        if reliable.unacked:
            return min(reliable.unacked)
        return reliable.next_rseq

    def _send_resume(self) -> None:
        if self.send_control is None:
            return
        self.send_control(
            ResumePacket(
                epoch=self.epoch,
                peer_epoch=self.peer_epoch,
                base_rseq=self._base_rseq(),
                state=self._kernel_state(),
            )
        )
        if self._awaiting_report and self.sim is not None:
            if self._resume_timer is not None:
                self._resume_timer.cancel()
            self._resume_timer = self.sim.schedule(
                self.resume_retry_s, self._resume_retry
            )

    def _resume_retry(self) -> None:
        self._resume_timer = None
        if self._stopped or not self._awaiting_report:
            return
        self._send_resume()

    def on_control(self, packet: Any) -> None:
        """Handle a control packet from the reverse path."""
        if isinstance(packet, ResumeReportPacket):
            self._on_report(packet)

    def _on_report(self, report: ResumeReportPacket) -> None:
        if report.epoch < self.peer_epoch:
            self.stale_reports += 1
            return
        fresh_peer = report.epoch > self.peer_epoch
        self.peer_epoch = report.epoch
        addressed_to_us = report.peer_epoch >= self.epoch
        if addressed_to_us and self._awaiting_report:
            self._awaiting_report = False
            if self._resume_timer is not None:
                self._resume_timer.cancel()
                self._resume_timer = None
        if fresh_peer or not addressed_to_us:
            # Echo the announce *before* any replay traffic so the
            # restarted receiver's stale-buffer flush runs ahead of the
            # replayed packets on every channel (also re-arms a receiver
            # whose first echo was lost).
            self._send_resume()
        reliable = self.pipeline.reliable
        if reliable is None:
            return
        # Reconcile once per (peer incarnation, own incarnation) pair: a
        # max-of-epochs guard would wrongly suppress the replay when the
        # receiver restarts *after* the sender already recovered at the
        # same epoch number (e.g. sender at epoch 2, then receiver at 2).
        epoch_pair = (report.epoch, self.epoch)
        should_reconcile = (
            fresh_peer or (self._pending_replay and addressed_to_us)
        ) and self._reconciled_pair != epoch_pair
        if should_reconcile:
            self._reconciled_pair = epoch_pair
            self._pending_replay = False
            if report.cold:
                # The receiver has no history: replay the whole window.
                replayed = reliable.reconcile(self._base_rseq(), ())
            else:
                replayed = reliable.reconcile(
                    report.cum_ack, tuple((s, e) for s, e in report.blocks)
                )
            self.replayed_packets += replayed
            if self.sim is not None:
                self.recovered_at = self.sim.now
            self.pipeline.pump()

    def on_ack(self, ack: Any) -> None:
        """Epoch fence for the reverse ack path."""
        epoch = getattr(ack, "epoch", 0)
        if epoch and epoch < self.peer_epoch:
            self.stale_acks += 1
            return
        self.pipeline.on_ack(ack)


def _pop_fabric_uid(fabric: Any, uid: int) -> Optional[Any]:
    for flow in fabric.table:
        for packet in flow.queue:
            if packet.uid == uid:
                flow.queue.remove(packet)
                return packet
    return None


class ReceiverRecovery:
    """Checkpoint + delivery-cursor WAL + resume handshake for a receiver.

    The WAL holds one record per in-order delivery (``rseq`` cursor),
    written *before* the application callback runs — after a restart the
    replayed cursor guarantees nothing already handed up is delivered
    twice (exactly-once across the crash).  Acks are deliberately not
    logged: losing them only costs duplicate retransmissions, which rseq
    dedup absorbs, and that loss is exactly what makes the checkpoint
    interval a real recovery-latency knob.
    """

    def __init__(
        self,
        pipeline: Any,
        store: CheckpointStore,
        *,
        sim: Any = None,
        checkpoint_interval_s: Optional[float] = None,
        send_control: Optional[Callable[[Any], None]] = None,
        resume_retry_s: float = 0.04,
    ) -> None:
        self.pipeline = pipeline
        self.store = store
        self.sim = sim
        self.checkpoint_interval_s = checkpoint_interval_s
        self.send_control = send_control
        self.resume_retry_s = resume_retry_s
        self.epoch = 0
        self.sender_epoch = 0
        self.cold = True
        self.resumed_from_checkpoint = False
        self.stale_resumes = 0
        self.stale_flushed = 0
        self.adoptions = 0
        self.wal_cursor_restored = 0
        self._ckpt_timer: Any = None
        self._report_timer: Any = None
        self._awaiting_echo = False
        self._stopped = False
        self._orig_deliver: Optional[Callable[[Any], Any]] = None

    # -- lifecycle ----------------------------------------------------- #

    def install(self) -> bool:
        restored = self._restore()
        self.cold = not restored
        self.resumed_from_checkpoint = restored
        self.epoch = self.store.next_epoch()
        reliable = self.pipeline.reliable
        if reliable is not None:
            self._orig_deliver = reliable.on_deliver
            reliable.on_deliver = self._logged_deliver
            if reliable.send_ack is not None:
                orig_send = reliable.send_ack
                reliable.send_ack = lambda sack: orig_send(
                    AckPacket(sack, epoch=self.epoch)
                )
        if self.epoch > 1:
            # A restart (warm or cold): report to the sender so it can
            # reconcile; retried until the sender's announce echoes us.
            self._awaiting_echo = True
            self._send_report()
        if restored:
            self.checkpoint()
        self._arm_checkpoint_timer()
        return restored

    def stop(self) -> None:
        self._stopped = True
        for timer in (self._ckpt_timer, self._report_timer):
            if timer is not None:
                timer.cancel()
        self._ckpt_timer = None
        self._report_timer = None

    def checkpoint(self) -> bytes:
        blob = receiver_to_bytes(self.pipeline, sender_epoch=self.sender_epoch)
        self.store.save_checkpoint(blob)
        return blob

    def _arm_checkpoint_timer(self) -> None:
        if (
            self.checkpoint_interval_s is None
            or self.sim is None
            or self._stopped
        ):
            return
        self._ckpt_timer = self.sim.schedule(
            self.checkpoint_interval_s, self._on_checkpoint_timer
        )

    def _on_checkpoint_timer(self) -> None:
        self._ckpt_timer = None
        if self._stopped:
            return
        self.checkpoint()
        self._arm_checkpoint_timer()

    # -- delivery cursor WAL -------------------------------------------- #

    def _logged_deliver(self, packet: Any) -> Any:
        rseq = getattr(packet, "rseq", None)
        if rseq is not None:
            # Write-ahead: the cursor is durable before the application
            # sees the packet, so a crash between the two redelivers
            # nothing (crashes land between simulator events, never
            # mid-callback).
            self.store.append_wal(_I64.pack(rseq))
        assert self._orig_deliver is not None
        return self._orig_deliver(packet)

    def _restore(self) -> bool:
        state = self.store.load_checkpoint()
        if state is None:
            return False
        restore_receiver_state(self.pipeline, state)
        self.sender_epoch = state.sender_epoch
        reliable = self.pipeline.reliable
        if reliable is not None:
            cursor = reliable.next_expected
            for rseq in _wal_records(self.store, _Reader.cursor):
                if rseq >= cursor:
                    cursor = rseq + 1
                    self.wal_cursor_restored += 1
            # Post-checkpoint deliveries: advance the cursor past them and
            # drop any checkpointed out-of-order copies it now covers.
            if cursor > reliable.next_expected:
                reliable.adopt_base(cursor)
        return True

    # -- handshake ------------------------------------------------------- #

    def _send_report(self) -> None:
        if self.send_control is None:
            return
        reliable = self.pipeline.reliable
        if reliable is not None:
            sack = reliable.sack_info()
            cum_ack, blocks = sack.cum_ack, sack.blocks
        else:
            cum_ack, blocks = 0, ()
        self.send_control(
            ResumeReportPacket(
                epoch=self.epoch,
                peer_epoch=self.sender_epoch,
                cum_ack=cum_ack,
                blocks=blocks,
                cold=self.cold,
            )
        )
        if self._awaiting_echo and self.sim is not None:
            if self._report_timer is not None:
                self._report_timer.cancel()
            self._report_timer = self.sim.schedule(
                self.resume_retry_s, self._report_retry
            )

    def _report_retry(self) -> None:
        self._report_timer = None
        if self._stopped or not self._awaiting_echo:
            return
        self._send_report()

    def on_control(self, packet: Any) -> None:
        """Handle a ResumePacket arriving on a forward channel."""
        if not isinstance(packet, ResumePacket):
            return
        if packet.epoch < self.sender_epoch:
            self.stale_resumes += 1
            return
        fresh_sender = packet.epoch > self.sender_epoch
        self.sender_epoch = packet.epoch
        if packet.peer_epoch >= self.epoch and self._awaiting_echo:
            self._awaiting_echo = False
            if self._report_timer is not None:
                self._report_timer.cancel()
                self._report_timer = None
        if fresh_sender:
            self._flush_stale()
            if packet.state is not None:
                self._adopt(packet.state)
        if self.cold and packet.base_rseq >= 0:
            reliable = self.pipeline.reliable
            if reliable is not None:
                # No history at all: accept the sender's replay base as
                # our cursor — cold resync delivers FIFO from here
                # (Theorem 5.1); exactly-once holds from this point, not
                # across the lost history.
                reliable.adopt_base(packet.base_rseq)
                self.cold = False
        # Always answer: the sender retries its announce until this report
        # echoes its epoch.
        self._send_report()

    def _flush_stale(self) -> None:
        """Drop buffered data from the dead sender incarnation."""
        reseq = self.pipeline.resequencer
        buffers = getattr(reseq, "buffers", None)
        if buffers is None:
            return
        count = 0
        for buf in buffers:
            count += len(buf)
            buf.clear()
        if hasattr(reseq, "_buffered"):
            reseq._buffered = 0
        self.stale_flushed += count

    def _adopt(self, state: Any) -> None:
        """Warm-adopt the restarted sender's kernel state as our mirror."""
        reseq = self.pipeline.resequencer
        adopt = getattr(reseq, "adopt_snapshot", None)
        if adopt is not None:
            adopt(state)
            self.adoptions += 1
            return
        restore = getattr(reseq, "restore", None)
        if restore is not None:
            try:
                restore(state)
                self.adoptions += 1
            except (TypeError, ValueError, AttributeError):
                pass  # marker-free / stateless receivers need no mirror
