"""Named, independently seeded random streams.

Every stochastic decision in the simulation draws from a *named* stream so
that changing one part of a model (say, node setup-time jitter) never
perturbs the draws seen by another part (say, heartbeat phase offsets).
This is the standard variance-reduction discipline for simulation studies
and is what makes the experiment suite exactly reproducible.
"""

from __future__ import annotations

import random
from typing import Dict

# The interpreter's built-in SHA-2, reached the way ``random`` itself
# reaches it: ``import hashlib`` loads OpenSSL, 3.7 MB resident in every
# simulation process, for one digest per stream.  Same function, same
# digests, so every seeded stream is unchanged.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython <= 3.11
    except ImportError:
        from hashlib import sha256


class RngRegistry:
    """A factory for deterministic per-name :class:`random.Random` streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed is derived from the registry seed and the name via
        SHA-256, so streams are stable across runs and independent of the
        order in which they are first requested.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        stream = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngRegistry":
        """Derive a child registry (used to isolate sub-simulations)."""
        digest = sha256(f"{self.seed}:fork:{name}".encode("utf-8")).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))
