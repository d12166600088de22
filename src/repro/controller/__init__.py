"""The switch-CPU controller (Section 4.3).

The controller serializes allocation requests arriving as message
digests, drives the online allocator, (de)installs per-stage match-table
entries, orchestrates the reallocation protocol (deactivate -> snapshot
-> apply -> reactivate), and answers clients with allocation responses.
Table-update and snapshot costs are modeled after the paper's Figure 8a,
where table updates dominate the ~1 s provisioning time.
"""

from repro.controller.table_updater import TableUpdateEngine, TableUpdateCost
from repro.controller.controller import (
    ActiveRmtController,
    ControllerError,
    ProvisioningReport,
    ProvisioningRequest,
    ProvisioningStatus,
    RequestKind,
    SnapshotCost,
)
from repro.controller.service import (
    AdmissionService,
    AdmissionServiceError,
    AdmissionTicket,
    BackoffPolicy,
    BatchReport,
    replay_commit_log,
    withdraw_with_retries,
)

__all__ = [
    "TableUpdateEngine",
    "TableUpdateCost",
    "ActiveRmtController",
    "AdmissionService",
    "AdmissionServiceError",
    "AdmissionTicket",
    "BackoffPolicy",
    "BatchReport",
    "ControllerError",
    "ProvisioningReport",
    "ProvisioningRequest",
    "ProvisioningStatus",
    "RequestKind",
    "SnapshotCost",
    "replay_commit_log",
    "withdraw_with_retries",
]
