"""Runtime limits."""

import os

from .errors import UsageError

DEFAULT_SIZE_CAP = 10_000_000


def size_cap(explicit=None) -> int:
    """Intermediate-word letter cap; LAMTOOL_SIZE_CAP overrides the default."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("LAMTOOL_SIZE_CAP")
    if not env:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise UsageError(f"LAMTOOL_SIZE_CAP must be a positive integer, got {env!r}")
    return cap
