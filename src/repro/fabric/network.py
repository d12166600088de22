"""End-to-end simulation against a fabric: hosts, steering, provisioners.

:class:`FabricNetwork` is the multi-switch analogue of
:class:`~repro.sim.network.SimNetwork`: hosts sit on access links, but
the hub is a fleet of devices, and every host-originated packet is
steered to exactly one of them by the fabric's fid -> shard routing
table (:meth:`Fabric.place_packet`).  An unplaced application's
ALLOC_REQUEST triggers placement at the edge -- the request digest
must surface on the switch whose controller will own the fid -- which
mirrors how a real deployment would run placement in the ToR/gateway
tier.

Hosts attach once, to the fabric network, and are registered on every
shard's underlying :class:`~repro.sim.network.SimNetwork`, so reply
packets injected by any shard's controller reach them unchanged.
:meth:`FabricNetwork.provision` spins up one
:class:`~repro.sim.provisioner.SimProvisioner` per shard, each polling
its own device's digests and submitting into its own shard's admission
service -- the single-switch provisioning protocol, horizontally
replicated.
"""

from __future__ import annotations

from typing import List, Optional

from repro.fabric.fabric import Fabric
from repro.packets.codec import ActivePacket
from repro.sim.eventloop import EventLoop
from repro.sim.network import Host, SimNetwork
from repro.sim.provisioner import SimProvisioner


class FabricNetwork:
    """A star-of-stars: hosts on access links to a sharded fabric.

    Args:
        loop: the discrete-event loop driving the simulation.
        fabric: the shard fleet at the hub.
        link_delay_s: one-way access-link latency (same for every
            shard, as for a single-switch star).
    """

    def __init__(
        self,
        loop: EventLoop,
        fabric: Fabric,
        link_delay_s: float = 2e-6,
    ) -> None:
        self.loop = loop
        self.fabric = fabric
        self.networks: List[SimNetwork] = [
            SimNetwork(loop, shard.device, link_delay_s=link_delay_s)
            for shard in fabric.shards
        ]
        self.provisioners: List[SimProvisioner] = []

    # ------------------------------------------------------------------

    def attach(self, host: Host, port: int) -> None:
        """Bind *host* to *port* on every shard, then steer its sends here.

        Each underlying network remembers the (mac, port) binding, so
        any shard can deliver to the host; the host's own ``network``
        handle is re-pointed at the fabric network afterwards so its
        ``send`` calls route through :meth:`transmit`.
        """
        for network in self.networks:
            network.attach(host, port)
        host.attach(self)  # type: ignore[arg-type]

    def host_at(self, port: int) -> Optional[Host]:
        return self.networks[0].host_at(port)

    # ------------------------------------------------------------------

    def transmit(self, host: Host, packet: ActivePacket) -> None:
        """Steer one host-originated packet to its fid's shard."""
        index = self.fabric.place_packet(packet)
        self.networks[index].transmit(host, packet)

    def inject(self, packet: ActivePacket) -> None:
        """Controller-originated packet to its destination host.

        Injection bypasses the pipelines entirely (it is delivery over
        the destination's access link), so any shard's port map works;
        all of them hold the same bindings.
        """
        self.networks[0].inject(packet)

    # ------------------------------------------------------------------

    def provision(
        self,
        poll_interval_s: float = 100e-6,
        horizon_s: float = 120.0,
    ) -> List[SimProvisioner]:
        """Start one digest-polling provisioner per shard (idempotent)."""
        if self.provisioners:
            return self.provisioners
        self.provisioners = [
            SimProvisioner(
                self.loop,
                network=self,  # type: ignore[arg-type]
                controller=shard.controller,
                poll_interval_s=poll_interval_s,
                horizon_s=horizon_s,
                service=shard.service,
            )
            for shard in self.fabric.shards
        ]
        return self.provisioners
