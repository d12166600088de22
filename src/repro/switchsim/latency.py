"""Forwarding-latency model (Section 6.2, Figure 8b).

The paper measures client-to-switch RTTs for programs of 10/20/30
instructions against an echo baseline and finds latency grows linearly,
with each pass through a pipeline adding ~0.5 us; measurements include
end-host processing.  We model the RTT as::

    rtt = host_overhead + 2 * link + half_pipes * half_pipe_us

where ``half_pipes`` counts traversed half-pipelines (ingress or
egress), so a program answered from the ingress pipeline (RTS within
the first 10 stages) is cheaper than a full pass, and each
recirculation adds a whole pass (two halves).
"""

from __future__ import annotations

import dataclasses

from repro.switchsim.config import SwitchConfig
from repro.switchsim.pipeline import ExecutionResult, PacketDisposition


@dataclasses.dataclass(frozen=True)
class LatencyModel:
    """RTT components in microseconds.

    Attributes:
        host_overhead_us: end-host TX+RX processing (DPDK client).
        link_us: one-way wire+serialization latency.
        half_pipe_us: latency of one half-pipeline traversal (a full
            pass is two halves, i.e. the paper's ~0.5 us).
        active_overhead_us: fixed extra cost of parsing/deparsing the
            active headers relative to the plain echo baseline.
    """

    host_overhead_us: float = 24.0
    link_us: float = 2.0
    half_pipe_us: float = 0.25
    active_overhead_us: float = 0.1

    @property
    def pass_us(self) -> float:
        """Latency of one full pipeline pass."""
        return 2 * self.half_pipe_us

    def echo_rtt_us(self) -> float:
        """Baseline: switch echoes without active processing (an
        ingress-half bounce)."""
        return self.host_overhead_us + 2 * self.link_us + self.half_pipe_us

    def half_pipes_used(self, result: ExecutionResult, config: SwitchConfig) -> int:
        """Half-pipelines traversed by an executed packet."""
        phv = result.phv
        # ceil(logical stages traversed / stages per half), at least one.
        halves = -(-max(phv.logical_stage - 1, 1) // (config.num_stages // 2))
        if result.disposition is PacketDisposition.RETURN_TO_SENDER:
            # Returned packets exit after the half in which RTS resolved;
            # an egress-half RTS recirculates (already counted in
            # result.recirculations) and exits from ingress.
            if phv.rts_at_egress:
                halves += 1
        else:
            # Forwarded packets always complete the full pipeline.
            halves += halves & 1
        return halves

    def rtt_us(self, result: ExecutionResult, config: SwitchConfig) -> float:
        """Client-observed RTT for an RTS'd active packet."""
        halves = self.half_pipes_used(result, config)
        return (
            self.host_overhead_us
            + 2 * self.link_us
            + self.active_overhead_us
            + halves * self.half_pipe_us
        )

    def switch_latency_us(self, result: ExecutionResult, config: SwitchConfig) -> float:
        """Switch-internal forwarding latency only."""
        return self.half_pipes_used(result, config) * self.half_pipe_us
