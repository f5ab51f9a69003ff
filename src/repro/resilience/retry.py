"""The jittered backoff schedule for transport retries.

The service client and the fleet router sleep :func:`backoff_delays`
between transport attempts: exponentially growing, deterministically
jittered delays (full jitter, seeded — test runs are reproducible and
fleets of clients don't thunder-herd in lockstep).
"""

from __future__ import annotations

import random
from typing import Tuple

__all__ = ["backoff_delays"]


def backoff_delays(
    retries: int,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    seed: int = 0,
) -> Tuple[float, ...]:
    """The deterministic full-jitter delay schedule for ``retries``
    attempts: attempt *i* sleeps uniform(0, min(max_delay, base * 2**i))."""
    rng = random.Random(seed)
    return tuple(
        rng.uniform(0.0, min(max_delay, base_delay * (2 ** attempt)))
        for attempt in range(retries)
    )
