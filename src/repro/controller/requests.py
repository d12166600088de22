"""What the controller is asked, and what it answers.

A :class:`ProvisioningRequest` -- an admission or a withdrawal -- goes
to :meth:`~repro.controller.controller.ActiveRmtController.submit`, and
a :class:`ProvisioningReport` comes back whose ``status`` is the one
outcome: a request the controller declines is ``REJECTED``, not raised.
:func:`withdraw_with_retries` is the rule over those outcomes that
every driver of departures shares.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from repro.analysis.findings import AnalysisReport
    from repro.analysis.isolation import IsolationCertificate
    from repro.core.constraints import AccessPattern
    from repro.core.transactions import AllocationPlan
    from repro.isa.program import ActiveProgram


class ControllerError(Exception):
    """Raised on a malformed request or digest (and by ``withdraw``)."""


#: One committed control-plane operation, in commit order: ("admit", fid)
#: or ("withdraw", fid).
CommitLogEntry = Tuple[str, int]


class RequestKind(enum.Enum):
    """What a :class:`ProvisioningRequest` asks the controller to do."""

    ADMIT = "admit"
    WITHDRAW = "withdraw"


class ProvisioningStatus(enum.Enum):
    """Typed outcome of one provisioning request.

    ``ADMITTED`` doubles as the "withdrawal executed" status; a
    ``REJECTED`` request (say, a withdrawal of a non-resident fid)
    touched nothing.  The controller and the admission service never
    produce ``SHED``: it marks an application a fabric failover dropped
    because no surviving shard could host it (the chaos scenario's tally).
    """

    ADMITTED = "admitted"
    REJECTED = "rejected"
    ROLLED_BACK = "rolled_back"
    SHED = "shed"
    DRY_RUN = "dry_run"


@dataclasses.dataclass(frozen=True)
class ProvisioningRequest:
    """One unit of control-plane work; build it with :meth:`admission`
    (``dry_run=True``: a side-effect-free what-if probe) or
    :meth:`withdrawal`.  A digested switch packet is decoded into one
    by :func:`repro.controller.wire.serve_digest`.
    """

    kind: RequestKind
    fid: int
    pattern: Optional[AccessPattern] = None
    dry_run: bool = False
    #: The compact active program behind the admission, when the caller
    #: holds it: the controller then statically verifies the mutant it
    #: installs (paper section 5's admission checks).  Wire-digested
    #: requests carry only the pattern.
    program: Optional[ActiveProgram] = None

    @classmethod
    def admission(
        cls,
        fid: int,
        pattern: AccessPattern,
        dry_run: bool = False,
        program: Optional[ActiveProgram] = None,
    ) -> "ProvisioningRequest":
        return cls(RequestKind.ADMIT, fid, pattern, dry_run, program)

    @classmethod
    def withdrawal(cls, fid: int) -> "ProvisioningRequest":
        return cls(kind=RequestKind.WITHDRAW, fid=fid)


@dataclasses.dataclass
class ProvisioningReport:
    """Outcome of one submitted request.

    For admissions this is the timing breakdown of Figure 8a's three
    bands; withdrawals report their table-update time.  The packets
    that answer a wire admission are built from it by
    :func:`repro.controller.wire.allocation_replies`.
    """

    fid: int
    #: The one outcome (``success``, ``dry_run`` and ``rolled_back`` read it).
    status: ProvisioningStatus
    reason: str = ""
    compute_seconds: float = 0.0
    table_update_seconds: float = 0.0
    snapshot_seconds: float = 0.0
    #: The plan behind this admission: the decision itself once
    #: committed, the entire result of a dry run, the planner's verdict
    #: when infeasible.
    plan: Optional[AllocationPlan] = None
    #: The static verifier's verdict on the mutant being installed
    #: (None when the controller runs with ``verify="off"`` or the
    #: request carried no program).
    verification: Optional[AnalysisReport] = None
    #: The isolation certificate for the plan behind this admission:
    #: every reachable memory access proven in-region or runtime-checked
    #: and region exclusivity against all incumbents (None when the
    #: controller runs with ``verify="off"`` or no plan was produced).
    certificate: Optional[IsolationCertificate] = None
    #: What switch-side failure produced this outcome: ``"tcam"``
    #: (capacity rejection), ``"transient"`` (the update engine's
    #: per-operation retries exhausted on a recoverable fault; state is
    #: byte-identical to before the request, so the caller may submit it
    #: again), or ``"device"`` (permanent; the device is dead and the
    #: controller's ``device_failed`` flag is set).  None for clean
    #: outcomes.
    fault: Optional[str] = None

    @classmethod
    def rejected(cls, fid: int, reason: str) -> "ProvisioningReport":
        """A request declined with nothing touched."""
        return cls(fid=fid, status=ProvisioningStatus.REJECTED, reason=reason)

    @property
    def success(self) -> bool:
        """Admitted or withdrawn; a dry run: its plan is feasible."""
        if self.status is ProvisioningStatus.DRY_RUN:
            return self.plan is not None and self.plan.feasible
        return self.status is ProvisioningStatus.ADMITTED

    @property
    def dry_run(self) -> bool:
        return self.status is ProvisioningStatus.DRY_RUN

    @property
    def rolled_back(self) -> bool:
        """Committed, then exactly undone: the switch refused the update."""
        return self.status is ProvisioningStatus.ROLLED_BACK

    @property
    def total_seconds(self) -> float:
        return (
            self.compute_seconds
            + self.table_update_seconds
            + self.snapshot_seconds
        )

    @property
    def reallocated_fids(self) -> List[int]:
        """Incumbents this admission moves: a rolled-back (or rejected)
        plan moved nobody, whatever it had planned."""
        if self.plan is None or self.status not in (
            ProvisioningStatus.ADMITTED,
            ProvisioningStatus.DRY_RUN,
        ):
            return []
        return self.plan.reallocated_fids


def withdraw_with_retries(
    submit: Callable[[ProvisioningRequest], ProvisioningReport],
    fid: int,
    refused: List[int],
) -> List[int]:
    """Withdraw *fid* through *submit*, after re-sending the withdrawals
    in *refused*; returns the fids that left.

    A withdrawal the switch refuses (``ROLLED_BACK``: a grown
    neighbour's range did not fit the TCAM, or the device faulted)
    leaves its fid resident, and nobody asks for it again.  So whoever
    drives departures -- :func:`repro.controller.wire.serve_digest`, an
    experiment harness -- keeps one *refused* list, updated in place,
    and sends those again at each later departure (not a ``REJECTED``
    one: its fid is not resident).
    """
    leaving, refused[:] = [*refused, fid], []
    left: List[int] = []
    for candidate in leaving:
        report = submit(ProvisioningRequest.withdrawal(candidate))
        if report.success:
            left.append(candidate)
        elif report.rolled_back:
            refused.append(candidate)
    return left
