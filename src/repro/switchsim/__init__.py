"""A discrete model of an RMT/PISA switch running the ActiveRMT runtime.

This package is the hardware substrate the paper runs on (an Intel
Tofino in a Wedge100BF-65X).  It models what the paper's ~10K lines of
P4 configure the ASIC to do:

- a logical pipeline of match-action stages split into ingress and
  egress halves (:mod:`repro.switchsim.pipeline`),
- per-stage match tables doing instruction decode (exact match) and
  memory protection (TCAM range match) (:mod:`repro.switchsim.tables`),
- per-stage register arrays with the four stateful-ALU semantics
  (:mod:`repro.switchsim.registers`),
- CRC-based hash units (:mod:`repro.switchsim.hashing`),
- the PHV with MAR/MBR/MBR2 and control flags (:mod:`repro.switchsim.phv`),
- recirculation, return-to-sender, packet cloning and shrinking, and
- a latency model calibrated to the paper's ~0.5 us per pipeline pass
  (:mod:`repro.switchsim.latency`).

The top-level entry point is :class:`repro.switchsim.switch.ActiveSwitch`.
"""

from repro.switchsim.config import SwitchConfig
from repro.switchsim.phv import Phv
from repro.switchsim.hashing import HashUnit
from repro.switchsim.registers import RegisterArray, RegisterFault
from repro.switchsim.tables import (
    StageGrant,
    StageTable,
    TcamCapacityError,
    range_to_prefixes,
)
from repro.switchsim.pipeline import ExecutionResult, PacketDisposition, Pipeline
from repro.switchsim.progcache import (
    CachedProgram,
    ProgramBinding,
    ProgramCache,
    infer_recirculations,
    program_digest,
)
from repro.switchsim.perf import PerfCounters
from repro.switchsim.switch import ActiveSwitch, BatchResult, PortStats, SwitchOutput
from repro.switchsim.latency import LatencyModel
from repro.switchsim.governor import RecirculationGovernor
from repro.switchsim.extensions import (
    L2_FORWARDING,
    RuntimeExtension,
    extend_config,
    extend_latency,
)

__all__ = [
    "RecirculationGovernor",
    "L2_FORWARDING",
    "RuntimeExtension",
    "extend_config",
    "extend_latency",
    "SwitchConfig",
    "Phv",
    "HashUnit",
    "RegisterArray",
    "RegisterFault",
    "StageGrant",
    "StageTable",
    "TcamCapacityError",
    "range_to_prefixes",
    "ExecutionResult",
    "PacketDisposition",
    "Pipeline",
    "CachedProgram",
    "ProgramBinding",
    "ProgramCache",
    "infer_recirculations",
    "program_digest",
    "PerfCounters",
    "ActiveSwitch",
    "BatchResult",
    "PortStats",
    "SwitchOutput",
    "LatencyModel",
]
