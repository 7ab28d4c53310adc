"""The event-driven sender: stripe an input stream across channel ports.

The :class:`Striper` connects three things:

* an input FIFO of data packets from the upper layer,
* a :class:`~repro.core.transform.LoadSharer` policy deciding, in input
  order, which channel each packet goes to,
* N *channel ports* (anything with ``send``/``can_accept``) with finite
  transmit queues.

Backpressure semantics are the crux: a causal policy commits to the channel
of the next packet *before* sending it, so if that channel's queue is full
the sender must **wait** — it may not reorder around the full queue.  This
is what makes plain round robin collapse to the slowest channel's rate in
Figure 15, and it is faithfully what a kernel implementation does (the
driver queue fills and the upper layer blocks).

The striper also hosts the :class:`MarkerScheduler` (section 5): every
``interval`` rounds, at a configurable position within the round, it
injects one marker per channel carrying that channel's next implicit packet
number ``(r, d)``.

One pump serves every transport.  SRR is causal (Theorem 3.1): each
channel choice depends only on packets already sent, so the pump steps
the kernel through the backlog first and hands the packets over after,
in *chunks* cut at the first channel without room and at every marker
point.  Ports with ``send_burst``/``free_capacity`` take a chunk as one
burst per channel; other ports take one ``send`` per packet.  Policies
without a kernel keep a per-packet ``choose()`` loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.core.kernel import SRRKernel
from repro.core.packet import MarkerPacket, Packet
from repro.core.transform import LoadSharer, TransformedLoadSharer
from repro.sim.trace import NULL_TRACER, Tracer


@runtime_checkable
class ChannelPort(Protocol):
    """What the striper needs from one striped channel's sender side.

    Required surface::

        send(packet, force=False) -> bool   # enqueue for transmission
        can_accept() -> bool                # queue space for one more?
        queue_length -> int                 # packets queued (depth policies)

    Optional surface, detected by attribute presence:

    * ``send_burst(packets)`` + ``free_capacity() -> int`` — the port
      takes each pump chunk's packets as one burst, admitted against one
      capacity query per chunk.
    * ``close()`` — release the underlying transport resource.
    * ``on_unblocked`` — a slot the sender pipeline fills with its pump so
      the port can resume a stalled sender (ARP resolution, credit
      arrival).
    """

    def send(self, packet: Any, force: bool = False) -> bool: ...

    def can_accept(self) -> bool: ...

    @property
    def queue_length(self) -> int: ...


@dataclass
class MarkerPolicy:
    """When and where markers are emitted (section 5, section 6.3).

    Attributes:
        interval_rounds: emit a marker batch every this many rounds; 0
            disables markers.
        position: emit when the round-robin pointer advances *into* this
            channel index.  Position 0 is the round boundary — the paper's
            "beginning or end of the round", found optimal in section 6.3.
        initial_markers: emit a batch before the first data packet, so the
            receiver starts synchronized even if it boots late.
        marker_size: bytes per marker packet on the wire.
    """

    interval_rounds: int = 1
    position: int = 0
    initial_markers: bool = True
    marker_size: int = 32

    def __post_init__(self) -> None:
        if self.interval_rounds < 0:
            raise ValueError("interval_rounds must be >= 0")
        if self.position < 0:
            raise ValueError("position must be >= 0")


class Striper:
    """Stripes an input packet stream across channel ports.

    Args:
        sharer: the striping policy.  If it is a
            :class:`TransformedLoadSharer` wrapping an :class:`SRR`-family
            algorithm and ``marker_policy`` is set, markers are emitted.
        ports: one sender port per channel.
        marker_policy: optional marker emission policy.
        marker_decorator: invoked as ``decorator(channel, marker)`` just
            before each marker is sent — the hook that lets reverse-path
            state (FCVC credits, §6.3) piggyback on markers.
        on_marker: test hook invoked as ``on_marker(channel, marker)``
            after the marker is sent.

    The upper layer calls :meth:`submit`; packets the currently selected
    channel cannot accept wait in the input queue, and the owner must call
    :meth:`pump` when a channel reports queue space (the sim wiring hooks
    ``channel.on_space`` to ``pump``).
    """

    def __init__(
        self,
        sharer: LoadSharer,
        ports: Sequence[ChannelPort],
        marker_policy: Optional[MarkerPolicy] = None,
        on_marker: Optional[Callable[[int, MarkerPacket], None]] = None,
        marker_decorator: Optional[Callable[[int, MarkerPacket], None]] = None,
        tracer: Tracer = NULL_TRACER,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if len(ports) != sharer.n_channels:
            raise ValueError(
                f"policy expects {sharer.n_channels} channels, got {len(ports)} ports"
            )
        self.sharer = sharer
        self.ports = list(ports)
        self.marker_policy = marker_policy
        self.on_marker = on_marker
        self.marker_decorator = marker_decorator
        self.tracer = tracer
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.input_queue: Deque[Any] = deque()
        self.packets_sent = 0
        self.bytes_sent = 0
        self.markers_sent = 0
        #: the policy's scheduler kernel, when it has one (causal policies)
        self._kernel: Optional[SRRKernel] = None
        if isinstance(sharer, TransformedLoadSharer) and isinstance(
            sharer.kernel, SRRKernel
        ):
            self._kernel = sharer.kernel
        self._markers_enabled = (
            marker_policy is not None
            and marker_policy.interval_rounds > 0
            and self._kernel is not None
        )
        if marker_policy is not None and not self._markers_enabled:
            if marker_policy.interval_rounds > 0:
                raise ValueError(
                    "marker emission requires a TransformedLoadSharer "
                    "wrapping an SRR-family algorithm"
                )
        self._crossings_seen = 0
        self._initial_markers_pending = (
            self._markers_enabled and marker_policy.initial_markers
        )
        #: per port: True when it takes bursts (``send_burst`` +
        #: ``free_capacity``)
        self._bursty = [
            hasattr(port, "send_burst") and hasattr(port, "free_capacity")
            for port in self.ports
        ]
        #: per-chunk state: room left on burst ports, packets per burst
        self._free: Dict[int, int] = {}
        self._bursts: Dict[int, List[Any]] = {}
        #: pump calls that handed at least one burst to a port
        self.batched_pumps = 0
        #: data packets handed to ports through ``send_burst``
        self.batched_packets = 0

    # ------------------------------------------------------------------ #
    # upper-layer API

    def submit(self, packet: Any) -> None:
        """Queue a data packet from the upper layer and try to send."""
        self.input_queue.append(packet)
        self.pump()

    def submit_many(self, packets: Any) -> None:
        """Queue a burst of data packets and pump once.

        Equivalent to ``submit(p)`` per packet — the pump drains greedily
        either way, so sends, marker points, and backpressure stops are
        identical — but the pump sees the whole burst at once, so burst
        ports get it in as few bursts as backpressure allows.
        """
        self.input_queue.extend(packets)
        self.pump()

    @property
    def backlog(self) -> int:
        """Packets waiting in the striper's input queue."""
        return len(self.input_queue)

    def can_send_now(self) -> bool:
        """True if the next packet's designated channel has queue space."""
        if not self.input_queue:
            return False
        if self._kernel is not None:
            channel = self._kernel.ptr
        else:
            channel = self.sharer.choose(
                self.input_queue[0], [p.queue_length for p in self.ports]
            )
        return self.ports[channel].can_accept()

    def stats(self) -> Dict[str, int]:
        """Cheap perf counters for the burst path."""
        return {
            "batched_pumps": self.batched_pumps,
            "batched_packets": self.batched_packets,
        }

    def pump(self) -> int:
        """Send as many queued packets as backpressure allows.

        Returns the number of data packets sent.  Called by the owner when
        a channel frees queue space.
        """
        if self._initial_markers_pending:
            self._initial_markers_pending = False
            self._emit_markers()
        if self._kernel is None:
            return self._pump_choose()
        sent, batched = self.packets_sent, self.batched_packets
        while self.input_queue and self._send_chunk():
            pass
        if self.batched_packets != batched:
            self.batched_pumps += 1
        return self.packets_sent - sent

    def _pump_choose(self) -> int:
        """The pump for policies without a kernel: ``choose()`` per packet."""
        queue = self.input_queue
        ports = self.ports
        sharer = self.sharer
        trace = self.tracer.enabled
        sent = 0
        while queue:
            packet = queue[0]
            channel = sharer.choose(packet, [p.queue_length for p in ports])
            port = ports[channel]
            if not port.can_accept():
                break  # must wait: causality forbids sending elsewhere
            queue.popleft()
            port.send(packet)
            sharer.notify_sent(channel, packet)
            size = getattr(packet, "size", 0)
            self.packets_sent += 1
            self.bytes_sent += size
            sent += 1
            if trace:
                self.tracer.emit(
                    self.clock(), "striper", "send", channel=channel, size=size
                )
        return sent

    def _send_chunk(self) -> bool:
        """Send one chunk of the backlog through the kernel.

        The kernel commits each packet's channel before anything is sent
        (causality), so the chunk can step it through the backlog and
        hand packets over afterwards.  The chunk ends when the backlog is
        empty, when the pointer reaches the next marker point, or at the
        first channel without room.  A burst port is asked
        ``free_capacity()`` once, when the pointer first reaches it, and
        gets its packets as one burst at the end; any other port is asked
        ``can_accept()`` before each packet and gets it at once.

        Returns False when the chunk stopped at a full channel it sent
        nothing to, which ends the pump.  (A burst port that ran out of
        room after taking packets may have room again once its burst is
        handed over.)
        """
        kernel = self._kernel
        queue = self.input_queue
        ports = self.ports
        bursty = self._bursty
        trace = self.tracer.enabled
        n = len(ports)
        free = self._free
        bursts = self._bursts
        origin = target = None
        if self._markers_enabled:
            # The pointer index (see _pointer_index) at which the next
            # marker batch falls due: the interval's remaining entries
            # into the marker position.
            origin = kernel.round_number * n + kernel.ptr
            policy = self.marker_policy
            interval = policy.interval_rounds
            entries = interval - self._crossings_seen % interval
            target = origin + (policy.position - origin - 1) % n + 1
            target += (entries - 1) * n
        blocked = False
        sent = nbytes = 0
        while queue:
            channel = kernel.ptr
            port = ports[channel]
            if bursty[channel]:
                room = free.get(channel)
                if room is None:
                    room = port.free_capacity()
                if room <= 0:
                    blocked = channel not in bursts
                    break  # must wait: causality forbids sending elsewhere
                free[channel] = room - 1
                packet = queue.popleft()
                burst = bursts.get(channel)
                if burst is None:
                    bursts[channel] = [packet]
                else:
                    burst.append(packet)
            elif port.can_accept():
                packet = queue.popleft()
                port.send(packet)
            else:
                blocked = True
                break
            size = packet.size
            kernel.step(size)
            nbytes += size
            sent += 1
            if trace:
                self.tracer.emit(
                    self.clock(), "striper", "send", channel=channel, size=size
                )
            if target is not None and kernel.round_number * n + kernel.ptr >= target:
                break  # a marker batch is due after this packet
        if bursts:
            for channel, burst in bursts.items():
                ports[channel].send_burst(burst)
                self.batched_packets += len(burst)
            bursts.clear()
        if free:
            free.clear()
        self.packets_sent += sent
        self.bytes_sent += nbytes
        if target is not None and sent:
            end = kernel.round_number * n + kernel.ptr
            for _ in range(self._markers_due(origin, end)):
                self._emit_markers()
        return not blocked

    # ------------------------------------------------------------------ #
    # marker machinery

    def _pointer_index(self) -> int:
        """The kernel pointer as one number: ``round * n + ptr``."""
        kernel = self._kernel
        return kernel.round_number * len(self.ports) + kernel.ptr

    def _markers_due(self, start: int, end: int) -> int:
        """Marker batches due on the pointer path from ``start`` to ``end``.

        Both are :meth:`_pointer_index` values.  The path enters the
        marker position once per round; a single step can hop several
        channels (deep overdraw skipping), so entries are counted over the
        whole path, and every ``interval_rounds``-th entry is due a batch.
        """
        if start == end:
            return 0
        n = len(self.ports)
        position = self.marker_policy.position % n
        crossings = (end - position) // n - (start - position) // n
        if not crossings:
            return 0
        seen = self._crossings_seen
        self._crossings_seen = seen + crossings
        interval = self.marker_policy.interval_rounds
        return (seen + crossings) // interval - seen // interval

    def _emit_markers(self) -> None:
        """Send one marker per channel with its next implicit number."""
        kernel = self._kernel
        policy = self.marker_policy
        assert kernel is not None and policy is not None
        trace = self.tracer.enabled
        for channel in range(kernel.n_channels):
            round_number, deficit = kernel.next_number_for_channel(channel)
            marker = MarkerPacket(
                channel=channel,
                round_number=round_number,
                deficit=deficit,
                size=policy.marker_size,
            )
            if self.marker_decorator is not None:
                self.marker_decorator(channel, marker)
            self.ports[channel].send(marker, force=True)
            self.markers_sent += 1
            if trace:
                self.tracer.emit(
                    self.clock(), "striper", "marker",
                    channel=channel, r=round_number, d=deficit,
                )
            if self.on_marker is not None:
                self.on_marker(channel, marker)

    def force_marker_batch(self) -> None:
        """Emit a marker batch now (used for time-based keepalive markers)."""
        if not self._markers_enabled:
            raise RuntimeError("markers are not enabled on this striper")
        self._emit_markers()


class ListPort:
    """A trivial in-memory channel port: records everything sent.

    Used by offline tests and the Figure 3/6 reproductions, where no
    event-driven timing is needed.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        self.sent: List[Any] = []
        self.limit = limit

    def send(self, packet: Any, force: bool = False) -> bool:
        if not force and self.limit is not None and len(self.sent) >= self.limit:
            return False
        self.sent.append(packet)
        return True

    def can_accept(self) -> bool:
        return self.limit is None or len(self.sent) < self.limit

    @property
    def queue_length(self) -> int:
        return len(self.sent)

    def data_packets(self) -> List[Packet]:
        return [p for p in self.sent if isinstance(p, Packet)]
