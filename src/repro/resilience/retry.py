"""Retry with jittered backoff, and file-backed campaign checkpoints.

Long-running loops (difftest campaigns) use these so a mid-campaign
crash — injected or real — resumes instead of restarting:

* :func:`retry_with_backoff` re-invokes a callable on
  :class:`~repro.errors.ReproError` with exponentially growing,
  deterministically jittered delays (full jitter, seeded — test runs are
  reproducible and fleets of workers don't thunder-herd in lockstep);
* :class:`Checkpoint` persists loop progress as JSON keyed by a campaign
  fingerprint, so resuming with *different* parameters discards the stale
  checkpoint instead of silently mixing campaigns.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any, Callable, Dict, Optional, Tuple, Type

from ..errors import ReproError

__all__ = ["retry_with_backoff", "backoff_delays", "Checkpoint"]


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


def retry_with_backoff(
    fn: Callable[[], Any],
    retries: int = 3,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    seed: int = 0,
    retry_on: Tuple[Type[BaseException], ...] = (ReproError,),
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
) -> Any:
    """Call ``fn``; on a retryable error, back off and try again.

    ``retries`` counts *re*-tries: the function runs at most
    ``retries + 1`` times.  The final error propagates unchanged (typed,
    with any attached failure report intact).  ``sleep`` is injectable so
    tests assert the schedule without waiting for it.
    """
    from ..observability import get_metrics

    delays = backoff_delays(retries, base_delay, max_delay, seed)
    for attempt in range(retries + 1):
        try:
            return fn()
        except retry_on as exc:
            if attempt >= retries:
                raise
            delay = delays[attempt]
            get_metrics().counter("resilience.retry.attempts").inc()
            if on_retry is not None:
                on_retry(attempt + 1, exc, delay)
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


class Checkpoint:
    """A JSON progress file for one resumable campaign.

    ``key`` fingerprints the campaign parameters; :meth:`load` returns the
    saved state only when the stored key matches, so a checkpoint from a
    different seed/budget/corpus is ignored rather than resumed into.
    Writes go through a temp file + rename, so a crash mid-save leaves
    either the old state or the new one, never a torn file.
    """

    VERSION = 1

    def __init__(self, path: str, key: Any) -> None:
        self.path = path
        self.key = key

    def load(self) -> Optional[Dict[str, Any]]:
        """The saved state, or ``None`` (missing, corrupt, or key mismatch)."""
        try:
            with open(self.path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != self.VERSION:
            return None
        if payload.get("key") != self.key:
            return None
        state = payload.get("state")
        return state if isinstance(state, dict) else None

    def save(self, state: Dict[str, Any]) -> None:
        payload = {"version": self.VERSION, "key": self.key, "state": state}
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, self.path)

    def clear(self) -> None:
        """Remove the checkpoint (campaign completed)."""
        try:
            os.remove(self.path)
        except OSError:
            pass
