"""Recirculation-bandwidth governance (Section 7.2).

Recirculation lets one service inflate its bandwidth usage at the
expense of others.  Beyond the hard per-packet budget
(``SwitchConfig.max_recirculations``), the paper contemplates "a
fairness controller that accounted for bandwidth inflation due to
recirculations and rate-limited services appropriately".  This module
implements that proposal as a per-FID token bucket over recirculation
events: services recirculating faster than their configured rate have
their packets' active processing suppressed (forwarded plain) until
tokens accrue.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


@dataclasses.dataclass
class _Bucket:
    tokens: float
    updated_at: float


class RecirculationGovernor:
    """Token-bucket rate limiter over per-FID recirculations.

    Args:
        rate_per_second: sustained recirculations allowed per FID.
        burst: bucket depth (momentary burst allowance).
    """

    def __init__(self, rate_per_second: float = 10000.0, burst: float = 100.0) -> None:
        if rate_per_second <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate_per_second
        self.burst = burst
        self._buckets: Dict[int, _Bucket] = {}
        self.suppressed = 0

    def _bucket(self, fid: int, now: float) -> _Bucket:
        bucket = self._buckets.get(fid)
        if bucket is None:
            bucket = _Bucket(tokens=self.burst, updated_at=now)
            self._buckets[fid] = bucket
        return bucket

    def _refill(self, bucket: _Bucket, now: float) -> None:
        elapsed = max(0.0, now - bucket.updated_at)
        bucket.tokens = min(self.burst, bucket.tokens + elapsed * self.rate)
        bucket.updated_at = now

    def admit(self, fid: int, recirculations: int, now: float) -> bool:
        """Charge a packet's recirculations; False = suppress the FID.

        Packets that do not recirculate are always admitted and cost
        nothing -- only bandwidth inflation is policed.
        """
        if recirculations <= 0:
            return True
        bucket = self._bucket(fid, now)
        self._refill(bucket, now)
        if bucket.tokens < recirculations:
            self.suppressed += 1
            return False
        bucket.tokens -= recirculations
        return True
