"""The Section 4.3 wire protocol: digests in, allocation responses out.

A digested ``ALLOC_REQUEST`` is an admission and a ``DEALLOCATE``
digest a withdrawal.  :func:`serve_digest` is the one decoder and
:func:`allocation_replies` the one definition of the answer; two clocks
drive them: :meth:`~repro.controller.controller.ActiveRmtController.process_pending`
sends the replies at once, the simulations'
:class:`~repro.sim.provisioner.SimProvisioner` after the modeled
deactivation window (Figures 9-10).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Mapping, Optional

from repro.controller.requests import (
    ControllerError,
    ProvisioningReport,
    ProvisioningRequest,
    withdraw_with_retries,
)
from repro.core.constraints import AccessPattern
from repro.packets.codec import ActivePacket
from repro.packets.headers import AllocationResponseHeader, ControlFlags, PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from repro.controller.controller import ActiveRmtController


def serve_digest(
    controller: ActiveRmtController,
    packet: ActivePacket,
    submit: Optional[Callable[[ProvisioningRequest], ProvisioningReport]] = None,
    patterns: Optional[Mapping[int, AccessPattern]] = None,
) -> Optional[ProvisioningReport]:
    """Serve the switch-CPU side of one digest.

    An ``ALLOC_REQUEST`` registers its client and is one admission
    through *submit* (default ``controller.submit``) of the wire
    pattern, or of the fid's override in *patterns*; its report is
    returned.  ``DEALLOCATE`` withdraws through
    :func:`~repro.controller.requests.withdraw_with_retries` over the
    controller's ``refused_withdrawals``; any other control digest
    (``SNAPSHOT_COMPLETE``) is only counted.  Both return None.
    Nothing is sent: the caller sends :func:`allocation_replies` when
    its own clock says so.
    """
    submit = submit or controller.submit
    fid = packet.fid
    report: Optional[ProvisioningReport] = None
    if packet.ptype == PacketType.ALLOC_REQUEST:
        if packet.request is None:
            raise ControllerError("allocation request without header")
        pattern = (patterns or {}).get(fid) or AccessPattern.from_request(
            packet.request, name=f"fid{fid}"
        )
        controller.client_macs[fid] = packet.eth.src
        report = submit(ProvisioningRequest.admission(fid, pattern))
    elif packet.ptype != PacketType.CONTROL:
        raise ControllerError(f"unexpected digest type {packet.ptype:#x}")
    elif packet.has_flag(ControlFlags.DEALLOCATE):
        withdraw_with_retries(submit, fid, controller.refused_withdrawals)
    controller.digests["control" if report is None else "alloc_request"] += 1
    return report


def allocation_replies(
    controller: ActiveRmtController,
    report: ProvisioningReport,
    request: ActivePacket,
) -> List[ActivePacket]:
    """The packets that answer allocation *request*, given its *report*.

    An admission sends every displaced incumbent whose client MAC is
    known its updated regions, flagged ``REALLOC_NOTICE`` so the shim
    relinks and repopulates, then the requester its ``ALLOC_RESPONSE``;
    anything else sends one ``ALLOC_FAILED``.  Regions are read from
    the allocator when this is called, so whoever delays the replies
    (the simulated-time provisioner) calls it at send time.
    """
    if not report.success:
        return [
            ActivePacket.alloc_response(
                src=controller.mac,
                dst=request.eth.src,
                fid=request.fid,
                response=AllocationResponseHeader.empty(),
                flags=ControlFlags.ALLOC_FAILED,
                seq=request.initial.seq,
            )
        ]
    allocator, client_macs = controller.allocator, controller.client_macs
    replies = [
        ActivePacket.alloc_response(
            src=controller.mac,
            dst=client_macs[other],
            fid=other,
            response=allocator.response_for(other),
            flags=ControlFlags.REALLOC_NOTICE,
        )
        for other in report.reallocated_fids
        if other in client_macs
    ]
    replies.append(
        ActivePacket.alloc_response(
            src=controller.mac,
            dst=request.eth.src,
            fid=request.fid,
            response=allocator.response_for(request.fid),
            seq=request.initial.seq,
        )
    )
    return replies
