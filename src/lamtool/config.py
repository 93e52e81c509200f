"""Runtime limits: the size cap is read, and compared with sizes, only here.

The cap counts letters, named int32 words in its messages; an expanded
letter is a ``str`` code point, one byte below code 256, but costs more
(``tracemalloc`` peaks, CPython 3.11): the counting automaton takes
150-190 B a letter it reads, at most that a unit of the capped eigenray
prefix (10.3 MB for six_letter at n = 2000: 54154 of 78142 slice letters
read); materialized strata take 2.6-5.5 B a member letter, and the cap
counts their depth, whose cube the letters grow as (221 MB for
theta_collapse at depth 300).
"""

import os

from .errors import SizeCapExceeded, UsageError

DEFAULT_SIZE_CAP = 10_000_000


def size_cap() -> int:
    """The size cap in int32 words (one letter is one word): LAMTOOL_SIZE_CAP
    when set, else the default."""
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


def check_size(size, what: str) -> None:
    """Refuse ``what``, which needs ``size`` int32 words, when that is over
    the cap; callers check before they allocate."""
    cap = size_cap()
    if size > cap:
        size = int(size)
        raise SizeCapExceeded(f"{what} needs {size} int32 words, over the cap {cap}",
                              attempted=size)
