"""Visual-metric geometry on the boundary of the universal cover.

Boundary points are coded as lazily extendable reduced edge rays from the
base vertex.  The covering argument never materializes boundary subsets: it
only needs the count of candidate cylinders (bounded by the metric
complexity function) and their diameter bound, which is what
:func:`cover_bound_series` tabulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import (DomainError, InsufficientDataError, PreconditionError)
from .graphs import MarkedMetricGraph
from .substitutions import Substitution, eigenray_prefix

__all__ = [
    "BoundaryRay",
    "GromovProduct",
    "VisualDistance",
    "CoverBoundReport",
    "gromov_product",
    "visual_distance",
    "cover_bound_series",
    "dim_upper_estimate",
]

# a covering bound below this counts as vanished
EPSILON = 1e-6


class BoundaryRay:
    """An infinite reduced edge ray from the base vertex, materialized on
    demand to any requested metric length."""

    def __init__(self, graph: MarkedMetricGraph, prefix,
                 extend: Optional[Callable[[list[int], int], None]] = None):
        self.graph = graph
        self._letters: list[int] = list(prefix)
        self._extend = extend
        self._validate_prefix(0)

    def _validate_prefix(self, start: int):
        letters = self._letters
        for i in range(start, len(letters)):
            origin = self.graph.origin(letters[i])
            expected = (self.graph.base_vertex() if i == 0
                        else self.graph.terminus(letters[i - 1]))
            if origin != expected:
                raise PreconditionError("ray letters do not form a path from "
                                        "the base vertex")
            if i > 0 and letters[i] == letters[i - 1] ^ 1:
                raise PreconditionError("ray is not reduced")

    @classmethod
    def periodic(cls, graph: MarkedMetricGraph, loop) -> "BoundaryRay":
        """The ray w w w ... for a cyclically reduced loop at the base vertex."""
        loop = tuple(loop)
        if not loop:
            raise DomainError("periodic ray needs a nonempty loop")
        if loop[0] == loop[-1] ^ 1:
            raise DomainError("loop must be cyclically reduced")

        def extend(letters, target):
            while len(letters) < target:
                letters.append(loop[len(letters) % len(loop)])

        return cls(graph, loop, extend)

    @classmethod
    def from_eigenray(cls, graph: MarkedMetricGraph, sub: Substitution,
                      seed: str) -> "BoundaryRay":
        """The eigenray of a substitution whose letters are edge tokens."""
        code_of = [graph.alphabet.index(tok) for tok in sub.letters]
        seed_idx = sub.index(seed)

        def extend(letters, target):
            word = eigenray_prefix(sub, seed_idx, target)
            for i in range(len(letters), target):
                letters.append(code_of[int(word[i])])

        return cls(graph, [], extend)

    def ensure_metric(self, bound) -> None:
        bound = Fraction(bound)
        while self.graph.metric_length(self._letters) < bound:
            if self._extend is None:
                raise PreconditionError("ray cannot be extended further")
            target = max(2 * len(self._letters), 16)
            before = len(self._letters)
            self._extend(self._letters, target)
            if len(self._letters) <= before:
                raise PreconditionError("ray extension made no progress")
            self._validate_prefix(max(before - 1, 0))

    def prefix(self) -> tuple[int, ...]:
        return tuple(self._letters)

    def __repr__(self):
        shown = self.graph.alphabet.format(self._letters[:8])
        return f"BoundaryRay({shown}{' ...' if self._extend else ''})"


class GromovProduct(NamedTuple):
    value: Fraction
    exact: bool  # False means "equal so far": rays agree to the precision


class VisualDistance(NamedTuple):
    value: float
    exact: bool  # False means "0 so far": the true distance is <= value


def gromov_product(p: BoundaryRay, q: BoundaryRay, precision_len) -> GromovProduct:
    """Metric length of the longest common prefix of the two rays.

    Exact once the rays diverge before ``precision_len``; otherwise reports
    how far they agree, flagged inexact.
    """
    if p.graph is not q.graph and p.graph.alphabet != q.graph.alphabet:
        raise DomainError("rays live on different graphs")
    p.ensure_metric(precision_len)
    q.ensure_metric(precision_len)
    a, b = p.prefix(), q.prefix()
    common = Fraction(0)
    for x, y in zip(a, b):
        if x != y:
            return GromovProduct(common, True)
        common += p.graph.edge_length(x)
    return GromovProduct(common, False)


def visual_distance(p: BoundaryRay, q: BoundaryRay, a, precision_len) -> VisualDistance:
    """a^(-(p,q)) for a visual parameter a > 1."""
    if not a > 1:
        raise DomainError("visual parameter must satisfy a > 1")
    product = gromov_product(p, q, precision_len)
    value = float(a) ** (-float(product.value))
    return VisualDistance(value, product.exact)


# ---------------------------------------------------------------------------
# covering bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverBoundReport:
    visual_base: float
    delta: float
    c0: float
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
        log_bound = _log_int(beta) - n * float(delta) * log_a + shift
        bound = math.exp(log_bound) if log_bound < 700 else math.inf
        rows.append((n, beta, bound))
        log_bounds.append(log_bound)
        if first_below is None and bound < EPSILON:
            first_below = n
    tail = [r[2] for r in rows[-max(1, len(rows) // 4):]]
    monotone = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    vanishing = monotone and tail[-1] < EPSILON
    return CoverBoundReport(float(a), float(delta), float(c0),
                            tuple(rows), vanishing, first_below, monotone,
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
