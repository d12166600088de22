"""The top-level switch: ports, forwarding, and the digest channel.

:class:`ActiveSwitch` glues the pipeline to a baseline L2 forwarding
function (the runtime "provides only baseline forwarding functionality",
Section 7.1) and exposes the digest channel through which allocation
requests and control packets reach the controller on the switch CPU
(Section 4.3).

Two data-path entry points exist: :meth:`ActiveSwitch.receive` handles
one packet, and :meth:`ActiveSwitch.receive_batch` drains a whole
arrival batch while amortizing the per-packet Python overhead -- port
statistics are rolled up once per batch, digests are delivered to the
CPU queue in one append, and the switch's counts advance once a batch.
Both paths share the same classification/execution core, so their
outputs are identical packet for packet.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict, deque
from typing import (
    Any,
    Callable,
    DefaultDict,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.isa.encoding import INSTRUCTION_WIDTH
from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.packets.headers import PacketType
from repro.switchsim.config import SwitchConfig
from repro.switchsim.latency import LatencyModel
from repro.switchsim.pipeline import ExecutionResult, PacketDisposition, Pipeline
from repro.switchsim.progcache import ProgramCache, infer_recirculations
from repro.telemetry import (
    SIZE_BUCKETS,
    AnyTracer,
    Histogram,
    MetricsRegistry,
    resolve,
    resolve_tracer,
)


@dataclasses.dataclass
class PortStats:
    """Per-port packet counters."""

    rx_packets: int = 0
    tx_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0


# Not frozen: one is built per emitted packet, and a frozen dataclass
# constructs several times slower (every field through object.__setattr__).
@dataclasses.dataclass
class SwitchOutput:
    """One packet emitted by the switch.

    Attributes:
        port: egress port.
        packet: the emitted packet.
        switch: the switch that emitted it.
        result: pipeline execution result (None for non-program packets).
    """

    port: int
    packet: ActivePacket
    switch: "ActiveSwitch" = dataclasses.field(repr=False, compare=False)
    result: Optional[ExecutionResult] = None

    @property
    def latency_us(self) -> float:
        """Switch-internal forwarding latency by the switch's latency model,
        worked out when read (one pass for a packet that executed nothing)."""
        model = self.switch.latency
        if self.result is None:
            return model.pass_us
        return model.switch_latency_us(self.result, self.switch.config)


@dataclasses.dataclass
class BatchResult:
    """Outcome of one :meth:`ActiveSwitch.receive_batch` call.

    Attributes:
        outputs: every emitted packet, in arrival order (a packet's
            clones follow it immediately, as in the scalar path).
        packets: packets accepted from the batch.
        programs: packets executed by the pipeline.
        plain_forwarded: packets taking the baseline L2 path.
        digested: packets queued for the switch CPU.
        suppressed: program packets demoted to plain forwarding by the
            recirculation governor.
        forwarded/returned/dropped/faulted: pipeline dispositions of
            the executed packets (clones excluded).
    """

    outputs: List[SwitchOutput]
    packets: int = 0
    programs: int = 0
    plain_forwarded: int = 0
    digested: int = 0
    suppressed: int = 0
    forwarded: int = 0
    returned: int = 0
    dropped: int = 0
    faulted: int = 0

    def __iter__(self):
        return iter(self.outputs)

    def __len__(self) -> int:
        return len(self.outputs)


#: Dispositions are told apart by identity: hashing an enum member runs
#: Python code, a cost per packet.
_FORWARD = PacketDisposition.FORWARD
_RETURN_TO_SENDER = PacketDisposition.RETURN_TO_SENDER
_DROP = PacketDisposition.DROP

#: Internal packet classifications returned by ``_process``.
_KIND_DIGEST = 0
_KIND_PLAIN = 1
_KIND_PROGRAM = 2
_KIND_SUPPRESSED = 3

#: Trace-attribute names for the classifications, indexed by _KIND_*.
_KIND_NAMES = ("digest", "plain", "program", "suppressed")

#: The switch's own counts: attributes, keys of :meth:`ActiveSwitch.stats`
#: and ``datapath_*`` series.  All but the two batch counts are also
#: :class:`BatchResult` fields.
_COUNTS = (
    "packets", "programs", "plain_forwarded", "digested", "suppressed",
    "forwarded", "returned", "dropped", "faulted", "batches", "batched_packets",
)
_BATCH_TALLIES = _COUNTS[:-2]


class ActiveSwitch:
    """A switch running the shared ActiveRMT runtime.

    The switch owns its counts (:data:`_COUNTS`, plus the per-FID
    tallies it keeps while telemetry records); :meth:`stats` and
    :meth:`metrics` are two views of them.

    Args:
        config: modeled device parameters.
        governor: optional recirculation-bandwidth governor (Section
            7.2).  When set, programs whose *inferred* recirculation
            cost (from the program length, as the paper notes the
            switch can do) exceeds the FID's token allowance are
            forwarded unprocessed.
        clock: clock used by the governor (usually the simulation
            harness's event-loop time).
        telemetry: metrics registry; None resolves to the process
            default (an inert NullRegistry unless one was installed),
            keeping the default data path telemetry-free.
        tracer: span tracer; None resolves to the process default
            (inert unless one was installed).  Each packet the tracer
            *samples* records one ``datapath.packet`` span (fid,
            classification, disposition, recirculation count) parented
            on the tracer's ``layout_context`` -- the commit that
            installed the layout the packet executes under -- joining
            control-plane traces to the data path by IDs.
    """

    def __init__(
        self,
        config: Optional[SwitchConfig] = None,
        governor=None,
        clock: Optional[Callable[[], float]] = None,
        telemetry: Optional[MetricsRegistry] = None,
        tracer: Optional[AnyTracer] = None,
    ) -> None:
        self.config = config or SwitchConfig()
        self.telemetry = resolve(telemetry)
        self.tracer = resolve_tracer(tracer)
        self.pipeline = Pipeline(self.config)
        self.latency = LatencyModel()
        self.governor = governor
        self.clock = clock
        #: Port by ``MacAddress.value``: an int hashes without Python code.
        self._mac_table: Dict[int, int] = {}
        self._digests: Deque[ActivePacket] = deque()
        self.port_stats: DefaultDict[int, PortStats] = defaultdict(PortStats)
        for name in _COUNTS:
            setattr(self, name, 0)
        #: Active-program packets and recirculations by FID, tallied only
        #: while telemetry records (the default data path skips them).
        self.fid_packets: Counter = Counter()
        self.fid_recirculations: Counter = Counter()
        #: Packets per ``receive_batch`` call, observed while telemetry
        #: records.
        self.batch_size = Histogram(SIZE_BUCKETS)
        self.telemetry.register(self)

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------

    def register_host(self, mac: MacAddress, port: int) -> None:
        """Bind a MAC address to a front-panel port (static L2 table)."""
        if not 0 <= port < self.config.num_ports:
            raise ValueError(f"port {port} out of range")
        self._mac_table[mac.value] = port

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def receive(self, packet: ActivePacket, in_port: int) -> List[SwitchOutput]:
        """Process a packet arriving on *in_port*.

        Returns the list of emitted packets (possibly empty for drops
        and digested control traffic).
        """
        packet.arrival_port = in_port
        port_stats = self.port_stats
        stats = port_stats[in_port]
        stats.rx_packets += 1
        stats.rx_bytes += packet.wire_size()
        outputs: List[SwitchOutput] = []
        pipeline = self.pipeline
        recirculated = pipeline.total_recirculations
        tracer = self.tracer
        if tracer.enabled and tracer.should_sample():
            kind, result = self._process_sampled(packet, in_port, outputs)
        else:
            kind, result = self._process(packet, in_port, outputs)
        self.packets += 1
        if kind == _KIND_PROGRAM:
            self.programs += 1
            disposition = result.disposition
            if disposition is _FORWARD:
                self.forwarded += 1
            elif disposition is _RETURN_TO_SENDER:
                self.returned += 1
            elif disposition is _DROP:
                self.dropped += 1
            else:
                self.faulted += 1
        elif kind == _KIND_DIGEST:
            self._digests.append(packet)
            self.digested += 1
        elif kind == _KIND_SUPPRESSED:
            self.suppressed += 1
        else:
            self.plain_forwarded += 1
        if self.telemetry.enabled and kind in (_KIND_PROGRAM, _KIND_SUPPRESSED):
            # The pipeline accounts a FORK tree whole; so does the tally.
            self.fid_packets[packet.fid] += 1
            self.fid_recirculations[packet.fid] += (
                pipeline.total_recirculations - recirculated
            )
        for output in outputs:
            stats = port_stats[output.port]
            stats.tx_packets += 1
            stats.tx_bytes += output.packet.shrunk_size()
        return outputs

    def receive_batch(
        self,
        packets: Iterable[Union[ActivePacket, Tuple[ActivePacket, int]]],
        in_port: Optional[int] = None,
    ) -> BatchResult:
        """Process an arrival batch, amortizing per-packet overhead.

        Args:
            packets: ``(packet, in_port)`` pairs, or bare packets when a
                uniform *in_port* is given.
            in_port: arrival port applied to every packet (only when
                *packets* holds bare packets).

        Per-port statistics, digest delivery to the CPU queue, and the
        switch's counts are each applied once for the whole batch; execution
        itself is identical to calling :meth:`receive` per packet, and
        outputs preserve arrival order.  A packet that raises leaves
        the counters and the digest queue as :meth:`receive` would: the
        packets before it are rolled up, then the exception propagates.
        """
        if in_port is not None:
            items: Iterable[Tuple[ActivePacket, int]] = (
                (packet, in_port) for packet in packets
            )
        else:
            items = packets  # type: ignore[assignment]
        outputs: List[SwitchOutput] = []
        digests: List[ActivePacket] = []
        #: ``[rx packets, rx bytes, tx packets, tx bytes]`` per port.
        ports: Dict[int, List[int]] = {}
        counts = [0, 0, 0, 0]  # indexed by _KIND_*
        forwarded = returned = dropped = faulted = 0
        process = self._process
        process_sampled = self._process_sampled
        pipeline = self.pipeline
        # The per-FID tallies, or None when telemetry is disabled so the
        # default path pays a single predicate per packet.
        fid_packets: Optional[Counter] = (
            self.fid_packets if self.telemetry.enabled else None
        )
        fid_recirculations = self.fid_recirculations
        # The tracer's bound sampler, or None when tracing is off, so
        # the default path pays one truth test on a local per packet.
        tracer = self.tracer
        sample = tracer.should_sample if tracer.enabled else None
        try:
            for packet, port in items:
                packet.arrival_port = port
                acc = ports.get(port)
                if acc is None:
                    acc = ports[port] = [0, 0, 0, 0]
                acc[0] += 1
                acc[1] += packet.wire_size()
                if fid_packets is not None:
                    recirculated = pipeline.total_recirculations
                if sample is not None and sample():
                    kind, result = process_sampled(packet, port, outputs)
                else:
                    kind, result = process(packet, port, outputs)
                counts[kind] += 1
                if kind == _KIND_PROGRAM:
                    disposition = result.disposition
                    if disposition is _FORWARD:
                        forwarded += 1
                    elif disposition is _RETURN_TO_SENDER:
                        returned += 1
                    elif disposition is _DROP:
                        dropped += 1
                    else:
                        faulted += 1
                elif kind == _KIND_DIGEST:
                    digests.append(packet)
                if fid_packets is not None and kind in (_KIND_PROGRAM, _KIND_SUPPRESSED):
                    fid = packet.initial.fid
                    fid_packets[fid] += 1
                    # The pipeline accounts a FORK tree whole; so does the tally.
                    fid_recirculations[fid] += pipeline.total_recirculations - recirculated
        finally:
            # -- single roll-up of everything the scalar path does per
            # packet, also for the packets handled before one raised
            if digests:
                self._digests.extend(digests)
            for output in outputs:
                acc = ports.get(output.port)
                if acc is None:
                    acc = ports[output.port] = [0, 0, 0, 0]
                acc[2] += 1
                acc[3] += output.packet.shrunk_size()
            for port, (rx_packets, rx_bytes, tx_packets, tx_bytes) in ports.items():
                stats = self.port_stats[port]
                stats.rx_packets += rx_packets
                stats.rx_bytes += rx_bytes
                stats.tx_packets += tx_packets
                stats.tx_bytes += tx_bytes
            batch = BatchResult(
                outputs=outputs,
                packets=sum(counts),
                programs=counts[_KIND_PROGRAM],
                plain_forwarded=counts[_KIND_PLAIN],
                digested=counts[_KIND_DIGEST],
                suppressed=counts[_KIND_SUPPRESSED],
                forwarded=forwarded,
                returned=returned,
                dropped=dropped,
                faulted=faulted,
            )
            for name in _BATCH_TALLIES:
                setattr(self, name, getattr(self, name) + getattr(batch, name))
            self.batches += 1
            self.batched_packets += batch.packets
            if fid_packets is not None:
                self.batch_size.observe(batch.packets)
        return batch

    def _process_sampled(
        self, packet: ActivePacket, in_port: int, outputs: List[SwitchOutput]
    ) -> Tuple[int, Optional[ExecutionResult]]:
        """``_process`` one sampled packet and record its span.

        The single per-packet trace site: both front doors call it only
        for packets the tracer sampled.  Both timestamps come from the
        tracer's clock, so packet spans share the control-plane spans'
        time base.
        """
        tracer = self.tracer
        started = tracer.clock()
        kind, result = self._process(packet, in_port, outputs)
        tracer.record_span(
            "datapath.packet",
            start_s=started,
            end_s=tracer.clock(),
            parent=tracer.layout_context,
            fid=packet.fid,
            kind=_KIND_NAMES[kind],
            disposition=result.disposition.value if result else None,
            recirculations=result.recirculations if result else 0,
        )
        return kind, result

    def _process(
        self, packet: ActivePacket, in_port: int, outputs: List[SwitchOutput]
    ) -> Tuple[int, Optional[ExecutionResult]]:
        """Classify and execute one packet, appending what it emits to
        *outputs*; no statistics accounting.

        Digest-bound packets are *not* enqueued here -- the caller owns
        delivery so the batched path can defer it to one append.
        """
        ptype = packet.initial.ptype
        if ptype == PacketType.PROGRAM and packet.code:
            if self.governor is not None:
                inferred = infer_recirculations(
                    len(packet.code) // INSTRUCTION_WIDTH, self.config.num_stages
                )
                now = self.clock() if self.clock is not None else 0.0
                if not self.governor.admit(packet.fid, inferred, now):
                    self._forward_plain(packet, outputs)
                    return _KIND_SUPPRESSED, None
            result = self.pipeline.execute(packet)
            self._emit(result, in_port, outputs)
            return _KIND_PROGRAM, result
        if ptype == PacketType.ALLOC_REQUEST or ptype == PacketType.CONTROL:
            # Delivered to the switch CPU via message digests.
            return _KIND_DIGEST, None
        # Non-executing active packets (e.g. responses in flight) and
        # bare packets take the baseline forwarding path.
        self._forward_plain(packet, outputs)
        return _KIND_PLAIN, None

    def _emit(
        self, result: ExecutionResult, in_port: int, outputs: List[SwitchOutput]
    ) -> None:
        """Append what *result*'s packet emits, then what its clones do:
        the whole FORK tree, a clone right after the packet it was
        cloned from."""
        disposition = result.disposition
        if disposition is _RETURN_TO_SENDER:
            out_port: Optional[int] = in_port
        elif disposition is _FORWARD:
            out_port = result.phv.dst_override
            if out_port < 0:
                # Unknown unicast is not emitted: the paper runtime has no flood.
                out_port = self._mac_table.get(result.packet.eth.dst.value)
        else:
            out_port = None
        if out_port is not None:
            outputs.append(SwitchOutput(out_port, result.packet, self, result))
        for clone in result.clones:
            self._emit(clone, in_port, outputs)

    def _forward_plain(
        self, packet: ActivePacket, outputs: List[SwitchOutput]
    ) -> None:
        out_port = self._mac_table.get(packet.eth.dst.value)
        if out_port is not None:
            outputs.append(SwitchOutput(out_port, packet, self))

    def inject(self, packet: ActivePacket) -> List[SwitchOutput]:
        """Send a controller-originated packet (e.g. allocation response)."""
        outputs: List[SwitchOutput] = []
        self._forward_plain(packet, outputs)
        for output in outputs:
            stats = self.port_stats[output.port]
            stats.tx_packets += 1
            stats.tx_bytes += output.packet.shrunk_size()
        return outputs

    # ------------------------------------------------------------------
    # Control-plane interface (used by repro.controller)
    # ------------------------------------------------------------------

    def poll_digests(self, limit: Optional[int] = None) -> List[ActivePacket]:
        """Drain queued digests (allocation requests, control packets).

        Args:
            limit: maximum digests to drain; None drains everything.
                ``limit=0`` drains nothing (it is a real bound, not a
                sentinel).
        """
        digests = self._digests
        if limit is None or limit >= len(digests):
            drained = list(digests)
            digests.clear()
            return drained
        return [digests.popleft() for _ in range(limit)]

    @property
    def digests_pending(self) -> int:
        return len(self._digests)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """One consolidated snapshot of the data path's health.

        The switch's counts (dispositions, batching, digests), the
        pipeline's drop/fault/recirculation totals, the program cache's
        statistics and the governor's suppression count.  With caching
        disabled the ``program_cache`` entry is an empty cache's
        all-zero statistics (same keys), so consumers never need a None
        branch.
        """
        data: Dict[str, object] = {name: getattr(self, name) for name in _COUNTS}
        data["digests_pending"] = len(self._digests)
        data["digests_delivered"] = self.digested
        pipeline = self.pipeline
        data["pipeline"] = {
            "drops": pipeline.drops,
            "faults": pipeline.faults,
            "total_recirculations": pipeline.total_recirculations,
        }
        cache = pipeline.program_cache
        if cache is None:
            cache = ProgramCache(pipeline, capacity=0)
        data["program_cache"] = cache.stats()
        data["governor_suppressed"] = (
            self.governor.suppressed if self.governor is not None else 0
        )
        return data

    def metrics(self) -> Dict[str, object]:
        """The registry's view of :meth:`stats`, plus the per-FID tallies
        and the batch-size histogram.
        The cache's hit rate is left out: a ratio does not add up over
        switches (its hits and misses do)."""
        stats: Dict[str, Any] = self.stats()
        pipeline = stats["pipeline"]
        series: Dict[str, object] = {f"datapath_{name}": stats[name] for name in _COUNTS}
        series["datapath_digest_queue_depth"] = stats["digests_pending"]
        series["pipeline_drops"] = pipeline["drops"]
        series["pipeline_faults"] = pipeline["faults"]
        series["pipeline_recirculations"] = pipeline["total_recirculations"]
        for key, value in stats["program_cache"].items():
            if key != "hit_rate":
                series[f"progcache_{key}"] = value
        series["datapath_fid_packets_total{fid}"] = self.fid_packets
        series["datapath_fid_recirculations_total{fid}"] = self.fid_recirculations
        series["datapath_batch_size"] = self.batch_size
        return series
