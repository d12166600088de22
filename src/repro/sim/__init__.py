"""Discrete-event simulation harness for the end-to-end experiments.

The allocation experiments (Figures 5-8a, 11, 12) only need the
controller; the case studies (Figures 8b, 9a, 9b, 10) need clients,
servers, links, and time.  This package provides:

- :mod:`repro.sim.eventloop` -- a heapq discrete-event loop,
- :mod:`repro.sim.kvstore` -- the backend key-value server store and
  its tiny payload protocol,
- :mod:`repro.sim.network` -- hosts, links, and packet delivery around
  one :class:`~repro.switchsim.switch.ActiveSwitch`,
- :mod:`repro.sim.hosts` -- a traffic-generating cache client host and
  a KV server host,
- :mod:`repro.sim.provisioner` -- time-staggered admission: compute,
  deactivate, snapshot, table update, reactivate (Section 4.3).
"""

from repro.sim.eventloop import EventLoop, SimEvent
from repro.sim.kvstore import KVStore, encode_get, encode_value, decode_get, decode_value
from repro.sim.network import Host, SimNetwork
from repro.sim.hosts import CacheClientHost, KVServerHost
from repro.sim.provisioner import SimProvisioner

__all__ = [
    "EventLoop",
    "SimEvent",
    "KVStore",
    "encode_get",
    "encode_value",
    "decode_get",
    "decode_value",
    "Host",
    "SimNetwork",
    "CacheClientHost",
    "KVServerHost",
    "SimProvisioner",
]
