"""ActiveRMT reproduction: runtime-programmable switch memory management.

The blessed public surface.  Everything an experiment or downstream
user needs lives here; deeper imports (``repro.switchsim.stage`` etc.)
are implementation detail and may move between releases.

Data path::

    from repro import ActiveSwitch, SwitchConfig

    switch = ActiveSwitch(SwitchConfig())
    result = switch.receive_batch(packets)      # hot path
    print(switch.stats()["packets_per_second"])

Control plane::

    from repro import ActiveRmtController, ProvisioningRequest

    controller = ActiveRmtController(switch)
    report = controller.submit(ProvisioningRequest.admission(fid, pattern))

    # What-if probing: plan without committing anything.
    plan = controller.what_if(fid=99, pattern=pattern)
    print(plan.feasible, plan.regions)

Client side::

    from repro import compile_mutant

    synthesized = compile_mutant(program, report_response)

Telemetry (off by default, zero-cost when off)::

    from repro import MetricsRegistry, prometheus_text, telemetry

    registry = MetricsRegistry()
    telemetry.set_registry(registry)    # components built after this record
    ...
    print(prometheus_text(registry))
"""

from repro.analysis import (
    AnalysisReport,
    Finding,
    Severity,
    VerificationError,
    VerifyMode,
    analyze_program,
    verify_linked,
    verify_plan,
)
from repro.client.compiler import (
    ActiveCompiler,
    CompilationError,
    CompileOptions,
    SynthesizedProgram,
    compile_mutant,
)
from repro.controller.controller import (
    ActiveRmtController,
    ControllerError,
    ProvisioningReport,
    ProvisioningRequest,
    ProvisioningStatus,
    RequestKind,
)
from repro.controller.service import (
    AdmissionService,
    AdmissionTicket,
    BackoffPolicy,
    BatchReport,
)
from repro.core.transactions import (
    AllocationPlan,
    CommitResult,
    PlanState,
    PoolSnapshot,
    StalePlanError,
    TableUpdateJournal,
    TransactionError,
)
from repro.switchsim.config import SwitchConfig
from repro.switchsim.perf import PerfCounters
from repro.switchsim.progcache import (
    ProgramCache,
    infer_recirculations,
    program_digest,
)
from repro.switchsim.switch import ActiveSwitch, BatchResult
from repro.telemetry import (
    MetricsRegistry,
    NullRegistry,
    Tracer,
    json_snapshot,
    prometheus_text,
)

__all__ = [
    # Data path
    "ActiveSwitch",
    "BatchResult",
    "SwitchConfig",
    "PerfCounters",
    "ProgramCache",
    "infer_recirculations",
    "program_digest",
    # Control plane
    "ActiveRmtController",
    "AdmissionService",
    "AdmissionTicket",
    "BackoffPolicy",
    "BatchReport",
    "ControllerError",
    "ProvisioningReport",
    "ProvisioningRequest",
    "ProvisioningStatus",
    "RequestKind",
    # Transactions
    "AllocationPlan",
    "CommitResult",
    "PlanState",
    "PoolSnapshot",
    "StalePlanError",
    "TableUpdateJournal",
    "TransactionError",
    # Client
    "ActiveCompiler",
    "CompilationError",
    "CompileOptions",
    "SynthesizedProgram",
    "compile_mutant",
    # Static verification
    "AnalysisReport",
    "Finding",
    "Severity",
    "VerificationError",
    "VerifyMode",
    "analyze_program",
    "verify_linked",
    "verify_plan",
    # Telemetry
    "MetricsRegistry",
    "NullRegistry",
    "Tracer",
    "json_snapshot",
    "prometheus_text",
]
