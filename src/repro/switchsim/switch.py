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
CPU queue in one append, and perf counters advance with a single merge.
Both paths share the same classification/execution core, so their
outputs are identical packet for packet.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.packets.headers import PacketType
from repro.switchsim.config import SwitchConfig
from repro.switchsim.latency import LatencyModel
from repro.switchsim.perf import PerfCounters
from repro.switchsim.pipeline import ExecutionResult, PacketDisposition, Pipeline
from repro.switchsim.progcache import ProgramCache, infer_recirculations
from repro.telemetry import (
    SIZE_BUCKETS,
    AnyTracer,
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
        latency_us: switch-internal forwarding latency.
        result: pipeline execution result (None for non-program packets).
    """

    port: int
    packet: ActivePacket
    latency_us: float
    result: Optional[ExecutionResult] = None


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


class ActiveSwitch:
    """A switch running the shared ActiveRMT runtime.

    Args:
        config: modeled device parameters.
        latency: forwarding-latency model.
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
        latency: Optional[LatencyModel] = None,
        governor=None,
        clock: Optional[Callable[[], float]] = None,
        telemetry: Optional[MetricsRegistry] = None,
        tracer: Optional[AnyTracer] = None,
    ) -> None:
        self.config = config or SwitchConfig()
        self.telemetry = resolve(telemetry)
        self.tracer = resolve_tracer(tracer)
        self.pipeline = Pipeline(self.config, telemetry=self.telemetry)
        self.latency = latency or LatencyModel()
        self.governor = governor
        self.clock = clock
        #: Port by ``MacAddress.value``: an int hashes without Python code.
        self._mac_table: Dict[int, int] = {}
        self._digests: Deque[ActivePacket] = deque()
        self.port_stats: Dict[int, PortStats] = {}
        self.digest_count = 0
        self.perf = PerfCounters()
        # Per-FID counter objects, cached so the enabled hot path pays
        # one dict probe per packet instead of a registry lookup.
        self._fid_packets: Dict[int, object] = {}
        self._fid_recircs: Dict[int, object] = {}
        if self.telemetry.enabled:
            self.telemetry.register_collector(self._collect_telemetry)

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------

    def register_host(self, mac: MacAddress, port: int) -> None:
        """Bind a MAC address to a front-panel port (static L2 table)."""
        if not 0 <= port < self.config.num_ports:
            raise ValueError(f"port {port} out of range")
        self._mac_table[mac.value] = port

    def port_for(self, mac: MacAddress) -> Optional[int]:
        return self._mac_table.get(mac.value)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def receive(self, packet: ActivePacket, in_port: int) -> List[SwitchOutput]:
        """Process a packet arriving on *in_port*.

        Returns the list of emitted packets (possibly empty for drops
        and digested control traffic).
        """
        packet.arrival_port = in_port
        stats = self._port(in_port)
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
        perf = self.perf
        perf.packets += 1
        if kind == _KIND_PROGRAM:
            perf.programs += 1
            disposition = result.disposition
            if disposition is _FORWARD:
                perf.forwarded += 1
            elif disposition is _RETURN_TO_SENDER:
                perf.returned += 1
            elif disposition is _DROP:
                perf.dropped += 1
            else:
                perf.faulted += 1
        elif kind == _KIND_DIGEST:
            self._digests.append(packet)
            self.digest_count += 1
            perf.digested += 1
        elif kind == _KIND_SUPPRESSED:
            perf.suppressed += 1
        else:
            perf.plain_forwarded += 1
        if self.telemetry.enabled and kind in (_KIND_PROGRAM, _KIND_SUPPRESSED):
            # The pipeline accounts a FORK tree whole; so does the tally.
            self._count_fid(
                packet.fid, pipeline.total_recirculations - recirculated
            )
        self._count_tx(outputs)
        perf.touch()
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

        Per-port statistics, digest delivery to the CPU queue, and perf
        counters are each applied once for the whole batch; execution
        itself is identical to calling :meth:`receive` per packet, and
        outputs preserve arrival order.
        """
        if in_port is not None:
            items: Iterable[Tuple[ActivePacket, int]] = (
                (packet, in_port) for packet in packets
            )
        else:
            items = packets  # type: ignore[assignment]
        # Open the throughput window before the work: merge_batch's
        # closing touch() then spans the batch's processing time (a
        # single-touch window would have zero width and report 0 pps).
        self.perf.touch()
        outputs: List[SwitchOutput] = []
        digests: List[ActivePacket] = []
        #: ``[rx packets, rx bytes, tx packets, tx bytes]`` per port.
        ports: Dict[int, List[int]] = {}
        counts = [0, 0, 0, 0]  # indexed by _KIND_*
        total = forwarded = returned = dropped = faulted = 0
        process = self._process
        process_sampled = self._process_sampled
        pipeline = self.pipeline
        # Telemetry tallies accumulate locally and roll into the
        # registry once per batch; None when telemetry is disabled so
        # the default path pays a single predicate per packet.
        fid_tally: Optional[Dict[int, List[int]]] = (
            {} if self.telemetry.enabled else None
        )
        # The tracer's bound sampler, or None when tracing is off, so
        # the default path pays one truth test on a local per packet.
        tracer = self.tracer
        sample = tracer.should_sample if tracer.enabled else None
        for packet, port in items:
            total += 1
            packet.arrival_port = port
            acc = ports.get(port)
            if acc is None:
                acc = ports[port] = [0, 0, 0, 0]
            acc[0] += 1
            acc[1] += packet.wire_size()
            if fid_tally is not None:
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
            if fid_tally is not None and kind in (_KIND_PROGRAM, _KIND_SUPPRESSED):
                fid = packet.initial.fid
                tally = fid_tally.get(fid)
                if tally is None:
                    tally = fid_tally[fid] = [0, 0]
                tally[0] += 1
                # The pipeline accounts a FORK tree whole; so does the tally.
                tally[1] += pipeline.total_recirculations - recirculated
        # -- single roll-up of everything the scalar path does per packet
        if digests:
            self._digests.extend(digests)
            self.digest_count += len(digests)
        for output in outputs:
            acc = ports.get(output.port)
            if acc is None:
                acc = ports[output.port] = [0, 0, 0, 0]
            acc[2] += 1
            acc[3] += output.packet.wire_size()
        for port, (rx_packets, rx_bytes, tx_packets, tx_bytes) in ports.items():
            stats = self._port(port)
            stats.rx_packets += rx_packets
            stats.rx_bytes += rx_bytes
            stats.tx_packets += tx_packets
            stats.tx_bytes += tx_bytes
        batch = BatchResult(
            outputs=outputs,
            packets=total,
            programs=counts[_KIND_PROGRAM],
            plain_forwarded=counts[_KIND_PLAIN],
            digested=counts[_KIND_DIGEST],
            suppressed=counts[_KIND_SUPPRESSED],
            forwarded=forwarded,
            returned=returned,
            dropped=dropped,
            faulted=faulted,
        )
        self.perf.merge_batch(batch)
        if fid_tally is not None:
            self.telemetry.histogram(
                "datapath_batch_size",
                buckets=SIZE_BUCKETS,
                help="Packets per receive_batch call",
            ).observe(total)
            for fid, (packets_n, recircs_n) in fid_tally.items():
                self._count_fid(fid, recircs_n, packets_n)
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
        if ptype == PacketType.PROGRAM and packet.instructions:
            if self.governor is not None:
                inferred = infer_recirculations(
                    len(packet.instructions), self.config.num_stages
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
            outputs.append(
                SwitchOutput(
                    out_port,
                    result.packet,
                    self.latency.switch_latency_us(result, self.config),
                    result,
                )
            )
        for clone in result.clones:
            self._emit(clone, in_port, outputs)

    def _forward_plain(
        self, packet: ActivePacket, outputs: List[SwitchOutput]
    ) -> None:
        out_port = self._mac_table.get(packet.eth.dst.value)
        if out_port is not None:
            outputs.append(SwitchOutput(out_port, packet, self.latency.pass_us))

    def inject(self, packet: ActivePacket) -> List[SwitchOutput]:
        """Send a controller-originated packet (e.g. allocation response)."""
        outputs: List[SwitchOutput] = []
        self._forward_plain(packet, outputs)
        self._count_tx(outputs)
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

        Merges the perf counters (throughput, dispositions, batching),
        the program cache's hit/miss statistics, pipeline drop/fault
        totals, and the governor's suppression count.  With caching
        disabled the ``program_cache`` entry is an all-zero stats dict
        (same keys), so consumers never need a None branch.
        """
        data: Dict[str, object] = self.perf.snapshot()
        data["digests_pending"] = len(self._digests)
        data["digests_delivered"] = self.digest_count
        pipeline = self.pipeline
        data["pipeline"] = {
            "drops": pipeline.drops,
            "faults": pipeline.faults,
            "total_recirculations": pipeline.total_recirculations,
        }
        cache = pipeline.program_cache
        data["program_cache"] = (
            cache.stats() if cache is not None else ProgramCache.empty_stats()
        )
        data["governor_suppressed"] = (
            self.governor.suppressed if self.governor is not None else 0
        )
        return data

    def _count_fid(self, fid: int, recirculations: int, packets: int = 1) -> None:
        """Advance the per-FID registry counters (telemetry enabled only)."""
        counter = self._fid_packets.get(fid)
        if counter is None:
            counter = self._fid_packets[fid] = self.telemetry.counter(
                "datapath_fid_packets_total",
                help="Active-program packets processed, by FID",
                fid=fid,
            )
        counter.inc(packets)
        if recirculations:
            recirc = self._fid_recircs.get(fid)
            if recirc is None:
                recirc = self._fid_recircs[fid] = self.telemetry.counter(
                    "datapath_fid_recirculations_total",
                    help="Recirculations consumed, by FID",
                    fid=fid,
                )
            recirc.inc(recirculations)

    def _collect_telemetry(self, registry) -> None:
        """Mirror pull-style data-path state into the registry.

        Registered as a collector when telemetry is enabled, so the
        perf counters (the hot path's plain-int accumulators), the
        digest queue depth, pipeline totals, and program-cache stats
        surface in every snapshot/scrape without hot-path writes.
        """
        registry.gauge(
            "datapath_digest_queue_depth",
            help="Digests waiting for the switch CPU",
        ).set(len(self._digests))
        for key, value in self.perf.snapshot().items():
            registry.gauge(
                f"datapath_{key}",
                help="Data-path perf counter (mirrored from PerfCounters)",
            ).set(value)
        pipeline = self.pipeline
        registry.gauge(
            "pipeline_drops", help="Packets dropped by the pipeline"
        ).set(pipeline.drops)
        registry.gauge(
            "pipeline_faults", help="Packets faulted by the pipeline"
        ).set(pipeline.faults)
        registry.gauge(
            "pipeline_recirculations",
            help="Total recirculations charged by the pipeline",
        ).set(pipeline.total_recirculations)
        cache = pipeline.program_cache
        cache_stats = (
            cache.stats() if cache is not None else ProgramCache.empty_stats()
        )
        for key, value in cache_stats.items():
            registry.gauge(
                f"progcache_{key}",
                help="Program-cache statistic (mirrored from ProgramCache)",
            ).set(value)

    # ------------------------------------------------------------------

    def _port(self, port: int) -> PortStats:
        stats = self.port_stats.get(port)
        if stats is None:
            stats = self.port_stats[port] = PortStats()
        return stats

    def _count_tx(self, outputs: List[SwitchOutput]) -> None:
        for output in outputs:
            stats = self._port(output.port)
            stats.tx_packets += 1
            stats.tx_bytes += output.packet.wire_size()
