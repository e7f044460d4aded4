"""Bounded least-recently-used memos over plain dicts.

The in-process memos (``columnar._ANALYSES``, ``oracle._TABLE_MEMO``
and the trace cache's ``_memo`` of loaded traces and result entries)
are plain dicts kept in least-recently-used order: the oldest key is
first, and a lookup moves its key to the end.  They stay plain dicts so
callers can ``clear()`` them and tests can swap in an empty one; these
two functions are the only code that orders and bounds them.
"""

__all__ = ["MemoStats", "get", "put"]

_ABSENT = object()


class MemoStats:
    """Process-local hit/miss accounting of one memo."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def reset(self):
        self.hits = self.misses = 0

    def __repr__(self):
        return f"MemoStats(hits={self.hits}, misses={self.misses})"


def get(memo, key):
    """``memo[key]``, now the most recently used; ``None`` if absent."""
    value = memo.pop(key, _ABSENT)
    if value is _ABSENT:
        return None
    memo[key] = value
    return value


def put(memo, key, value, limit):
    """Store ``value`` as the most recently used entry and return it,
    evicting the least recently used one when ``memo`` holds ``limit``."""
    if memo.pop(key, _ABSENT) is _ABSENT and len(memo) >= limit:
        del memo[next(iter(memo))]
    memo[key] = value
    return value
