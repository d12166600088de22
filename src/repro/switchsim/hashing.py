"""Hash units: CRC32-based hashing over PHV hash metadata.

The Tofino exposes non-cryptographic CRC hash engines to match-action
stages; ActiveRMT's ``HASH`` instruction feeds the accumulated hashdata
words through one of them and deposits the digest in MAR (Appendix B
listings).  Stages may be configured with distinct seeds so that, e.g.,
the two rows of the count-min sketch in the frequent-item program hash
independently (Section 6.3).
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable


class HashUnit:
    """A CRC32 hash engine with a configurable seed."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed & 0xFFFFFFFF

    def digest(self, words: Iterable[int]) -> int:
        """Hash a sequence of 32-bit words to a 32-bit digest."""
        data = b"".join(struct.pack(">I", w & 0xFFFFFFFF) for w in words)
        return zlib.crc32(data, self._seed) & 0xFFFFFFFF


#: Hash engines exposed to HASH's 3-bit operand.  Engine k hashes the
#: same way in every stage (a cookie computed in one stage verifies in
#: another -- the Cheetah load balancer depends on this), while distinct
#: engines hash independently (count-min-sketch rows depend on *that*).
NUM_HASH_ENGINES = 8

_ENGINES = tuple(
    HashUnit(seed=0x9E3779B9 * (k + 1) & 0xFFFFFFFF)
    for k in range(NUM_HASH_ENGINES)
)


def hash_engine(index: int) -> HashUnit:
    """The device-wide hash engine selected by HASH's operand."""
    return _ENGINES[index % NUM_HASH_ENGINES]
