"""Visual-metric covering bounds on the boundary of the universal cover.

The covering argument never materializes boundary subsets: it only needs
the count of candidate cylinders (bounded by the metric complexity
function) and their diameter bound, which is what
:func:`cover_bound_series` tabulates.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, InsufficientDataError

__all__ = [
    "CoverBoundReport",
    "cover_bound_series",
    "dim_upper_estimate",
]

# a covering bound below this counts as vanished
EPSILON = 1e-6


class CoverBoundReport(NamedTuple):
    rows: tuple[tuple[int, int, float], ...]  # (n, beta(n), bound)
    vanishing: bool
    first_below: Optional[int]
    tail_decreasing: bool
    # the natural log of each row's bound, finite where the bound is past
    # float range and reads inf
    log_bounds: tuple[float, ...]

    def final_bound(self) -> float:
        return self.rows[-1][2]


def _log_int(value: int) -> float:
    """math.log of a count; math.log takes a Python int of any size."""
    if value <= 0:
        raise DomainError("log of a nonpositive count")
    return math.log(value)


def cover_bound_series(beta_values: Sequence[int], a, delta, c0) -> CoverBoundReport:
    """The sequence beta(n) * a^(-n*delta) * a^(c0*delta).

    ``beta_values`` is 1-indexed via position (entry i is beta(i+1)).  The
    range starts at the covering threshold 2*c0.  The vanishing flag
    requires the last quartile of the rows to decrease monotonically and
    the final value to sit below ``EPSILON``.
    """
    if not float(a) > 1:
        raise DomainError("visual parameter must satisfy a > 1")
    if not float(delta) > 0:
        raise DomainError("delta must be positive")
    if not c0 > 0:
        raise DomainError("c0 must be positive")
    n_max = len(beta_values)
    start = max(1, math.ceil(2 * c0))  # exact for a Fraction beyond float range
    if n_max < start:
        raise InsufficientDataError(
            f"beta table reaches n={n_max}, below the start n={start}")
    log_a = math.log(float(a))
    shift = float(c0) * float(delta) * log_a
    rows = []
    log_bounds = []
    first_below = None
    for n in range(start, n_max + 1):
        beta = int(beta_values[n - 1])
        # as n >= 2*c0, the exponent is -inf, not nan, when the shift overflows
        log_bound = (_log_int(beta) - n * float(delta) * log_a + shift
                     if shift < math.inf else -math.inf)
        bound = math.exp(log_bound) if log_bound < 700 else math.inf
        rows.append((n, beta, bound))
        log_bounds.append(log_bound)
        if first_below is None and bound < EPSILON:
            first_below = n
    tail = [r[2] for r in rows[-max(1, len(rows) // 4):]]
    monotone = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    vanishing = monotone and tail[-1] < EPSILON
    return CoverBoundReport(tuple(rows), vanishing, first_below, monotone,
                            tuple(log_bounds))


def dim_upper_estimate(beta_values: Sequence[int], a, window) -> float:
    """Least-squares slope of log beta(n) against n*log(a) on the window,
    clamped to be nonnegative; an upper box-dimension proxy.

    The slope is the closed form sum((x - mean x)(y - mean y)) /
    sum((x - mean x)^2), each sum taken with ``math.fsum``."""
    if not float(a) > 1:
        raise DomainError("visual parameter must satisfy a > 1")
    lo, hi = window
    if hi > len(beta_values):
        raise InsufficientDataError(
            f"window reaches n={hi} but the table stops at {len(beta_values)}")
    ns = [n for n in range(lo, hi + 1)]
    if len(ns) < 4:
        raise InsufficientDataError("dimension window needs at least 4 points")
    log_a = math.log(float(a))
    xs = [n * log_a for n in ns]
    ys = [_log_int(int(beta_values[n - 1])) for n in ns]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    slope = (math.fsum(d * (y - y_mean) for d, y in zip(dx, ys))
             / math.fsum(d * d for d in dx))
    return max(slope, 0.0)
