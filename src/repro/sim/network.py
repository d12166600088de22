"""Hosts and links around one simulated switch.

Packets sent by a host traverse a link to the switch, execute in the
pipeline, and the outputs traverse a link to their destination host --
all as scheduled events, so latency and interleaving are explicit.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.sim.eventloop import EventLoop
from repro.switchsim.switch import ActiveSwitch


class Host:
    """Base class for simulated end hosts."""

    def __init__(self, mac: MacAddress) -> None:
        self.mac = mac
        self.network: Optional["SimNetwork"] = None
        self.rx_packets = 0

    def attach(self, network: "SimNetwork") -> None:
        self.network = network

    def send(self, packet: ActivePacket) -> None:
        if self.network is None:
            raise RuntimeError(f"host {self.mac} not attached to a network")
        self.network.transmit(self, packet)

    def on_packet(self, packet: ActivePacket) -> None:
        """Packet delivery hook; subclasses override."""
        self.rx_packets += 1


class SimNetwork:
    """A star topology: hosts on access links to one active switch.

    Args:
        loop: the discrete-event loop driving the simulation.
        switch: the switch at the hub; the network drives its data
            path (``register_host``/``receive``) directly.
        link_delay_s: one-way access-link latency.
    """

    def __init__(
        self,
        loop: EventLoop,
        switch: ActiveSwitch,
        link_delay_s: float = 2e-6,
    ) -> None:
        self.loop = loop
        self.switch = switch
        self.link_delay_s = link_delay_s
        self._hosts_by_port: Dict[int, Host] = {}
        #: Port by ``MacAddress.value``: an int hashes without Python code.
        self._ports_by_mac: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def attach(self, host: Host, port: int) -> None:
        if port in self._hosts_by_port:
            raise ValueError(f"port {port} already occupied")
        self.switch.register_host(host.mac, port)
        self._hosts_by_port[port] = host
        self._ports_by_mac[host.mac.value] = port
        host.attach(self)

    # ------------------------------------------------------------------

    def transmit(self, host: Host, packet: ActivePacket) -> None:
        """Host -> switch, then switch outputs -> destination hosts."""
        self.loop.schedule(
            self.link_delay_s, self._arrive, packet, self._ports_by_mac[host.mac.value]
        )

    def _arrive(self, packet: ActivePacket, in_port: int) -> None:
        for output in self.switch.receive(packet, in_port):
            self._deliver(output.port, output.packet, output.latency_us * 1e-6)

    def inject(self, packet: ActivePacket) -> None:
        """Controller/switch-originated packet to its destination host."""
        port = self._ports_by_mac.get(packet.eth.dst.value)
        if port is None:
            return
        self._deliver(port, packet, 0.0)

    def _deliver(
        self, port: int, packet: ActivePacket, switch_latency_s: float
    ) -> None:
        host = self._hosts_by_port.get(port)
        if host is not None:
            self.loop.schedule(
                switch_latency_s + self.link_delay_s, host.on_packet, packet
            )
