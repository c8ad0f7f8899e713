"""Process-wide counters for degenerate numeric events.

Counters never change results; they record how often a documented
fallback fired (0/0 ratio, zero-norm vector, undersized batch, skipped
class) so a run can be audited afterwards.
"""

from __future__ import annotations

from collections import Counter

_counters: Counter = Counter()


def record(event: str, n: int = 1) -> None:
    _counters[event] += n


def snapshot() -> dict:
    return dict(_counters)


def reset() -> None:
    _counters.clear()
