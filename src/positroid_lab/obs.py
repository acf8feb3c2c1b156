"""Run records: named counters that say which path ran and how often.

Off by default, when ``count`` does nothing but test one flag; the CLI's
``--stats`` turns them on for one command and writes them to stderr.  The
counters are bumped once per call of a coarse step, never inside an inner
loop, and nothing here changes what any function returns.
"""

from __future__ import annotations

enabled = False
counters: dict[str, int] = {}


def start() -> None:
    """Turn the counters on, from zero."""
    global enabled
    enabled = True
    counters.clear()


def stop() -> dict[str, int]:
    """Turn the counters off and return them, sorted by name."""
    global enabled
    enabled = False
    return dict(sorted(counters.items()))


def count(name: str, by: int = 1) -> None:
    if enabled:
        counters[name] = counters.get(name, 0) + by
