"""Finite marked metric graphs, spanning-tree collapse and path rewriting.

A graph holds its oriented edges in an :class:`~lamtool.words.EdgeAlphabet`;
edge lengths are exact :class:`~fractions.Fraction` values so metric tables
reproduce bit-exactly across runs.  Paths are tuples of letter codes.  A
graph runs one breadth-first search when it is built: it records the
paper's standing hypotheses that fail (connected, rank at least 2, every
vertex of valence at least 3) in ``violations``, and keeps the search's
paths for the spanning tree that ``maximal_subtree`` collapses onto a rose.
``project_path`` carries a language row, a code-point ``str``, to the rose
by deleting tree letters.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import floor, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DomainError, MalformedInputError, PreconditionError
from .words import EdgeAlphabet, inverse_codes, tighten_raw

__all__ = [
    "MarkedMetricGraph",
    "CollapseData",
    "maximal_subtree",
    "project_path",
]


def _parse_length(value) -> Fraction:
    length = Fraction(value) if not isinstance(value, Fraction) else value
    if length <= 0:
        raise MalformedInputError(f"edge length must be positive, got {value!r}")
    return length


class MarkedMetricGraph:
    """Finite graph with positive edge lengths.

    ``edges`` is a sequence of ``(name, origin, terminus, length)`` with one
    entry per positive edge; inverse edges are implicit.  Vertices and edges
    are kept in canonical sorted order so every derived enumeration is
    deterministic.  ``violations`` names each standing hypothesis the graph
    fails, and is empty for a graph of cv_r.
    """

    __slots__ = ("vertices", "alphabet", "lengths", "length_unit", "_origin",
                 "_vindex", "_steps", "_reduced_steps", "_weights",
                 "_min_weight", "_paths", "violations")

    def __init__(self, vertices: Iterable[str], edges: Sequence[tuple]):
        self.vertices = tuple(sorted(set(vertices)))
        if not self.vertices:
            raise MalformedInputError("graph needs at least one vertex")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        specs = sorted(edges, key=lambda spec: spec[0])
        self.alphabet = EdgeAlphabet([spec[0] for spec in specs])
        origin = []
        lengths = []
        for name, o, t, length in specs:
            if o not in self._vindex or t not in self._vindex:
                raise MalformedInputError(f"edge {name!r} references unknown vertex")
            origin.append(self._vindex[o])
            origin.append(self._vindex[t])  # origin of the inverse letter
            lengths.append(_parse_length(length))
        self._origin = tuple(origin)
        self.lengths = tuple(lengths)
        # every length is an integer weight times 1 / length_unit
        self.length_unit = lcm(*(length.denominator for length in self.lengths))
        self._weights = {c: int(self.lengths[c >> 1] * self.length_unit)
                         for c in self.alphabet.letters()}
        self._min_weight = min(self._weights.values())
        # the two-letter words an edge path, and a reduced one, may contain
        self._steps = frozenset(
            (x, y) for x in self.alphabet.letters() for y in self.alphabet.letters()
            if origin[x ^ 1] == origin[y])
        self._reduced_steps = frozenset((x, y) for x, y in self._steps if y != x ^ 1)
        self._paths = _root_paths(self)
        violations = []
        if len(self._paths) < len(self.vertices):
            violations.append("graph is not connected")
        if self.betti() < 2:
            violations.append(
                f"first Betti number {self.betti()} is below the minimum rank 2")
        for i, v in enumerate(self.vertices):
            degree = origin.count(i)  # letters that start at v
            if degree < 3:
                violations.append(f"vertex {v} has degree {degree} < 3")
        self.violations = tuple(violations)

    # -- basic incidence ---------------------------------------------------

    def origin(self, code: int) -> int:
        return self._origin[code]

    def terminus(self, code: int) -> int:
        return self._origin[code ^ 1]

    @property
    def num_topological_edges(self) -> int:
        return len(self.lengths)

    def betti(self) -> int:
        return self.num_topological_edges - len(self.vertices) + 1

    def min_length(self) -> Fraction:
        return min(self.lengths)

    def max_length(self) -> Fraction:
        return max(self.lengths)

    def is_rose(self) -> bool:
        return len(self.vertices) == 1

    # -- paths ---------------------------------------------------------------

    def _within(self, codes, steps) -> bool:
        """Whether every two-letter step of ``codes`` is in ``steps``.

        is_edge_path and is_reduced_path test the steps by membership, one
        at a time, and build no set of them.  A single letter need only be
        in the alphabet."""
        codes = tuple(codes)
        if len(codes) == 1:
            return self.alphabet.contains(codes[0])
        return steps.issuperset(zip(codes, codes[1:]))

    def is_edge_path(self, codes) -> bool:
        """Every letter is in the alphabet and each ends where the next starts."""
        return self._within(codes, self._steps)

    def is_reduced_path(self, codes) -> bool:
        """An edge path that never follows a letter by its inverse."""
        return self._within(codes, self._reduced_steps)

    def weight(self, codes) -> int:
        """The metric length of ``codes`` in units of ``1 / length_unit``."""
        try:
            return sum(map(self._weights.__getitem__, codes))
        except KeyError as exc:
            raise DomainError(
                f"letter code {exc.args[0]} does not belong to this graph") from None

    def weight_bound(self, bound) -> int:
        """The largest weight a path of metric length at most ``bound`` can
        have, in units of ``1 / length_unit``."""
        return floor(bound * self.length_unit)

    def depth(self, bound) -> int:
        """The most letters a path of metric length at most ``bound`` can have."""
        return self.weight_bound(bound) // self._min_weight

    def path(self, text: str) -> tuple[int, ...]:
        return self.alphabet.parse(text)

    def __repr__(self):
        return (f"MarkedMetricGraph(|V|={len(self.vertices)}, "
                f"edges={self.alphabet.names}, rank={self.betti()})")


def _root_paths(graph: MarkedMetricGraph) -> dict[int, tuple[int, ...]]:
    """One breadth-first search from the base vertex 0, the least vertex,
    letters in canonical order: each reached vertex maps to the letters of
    the path that first reached it.  The last letters of these paths span a
    tree, and the paths are its paths from the base vertex."""
    paths = {0: ()}
    queue = deque(paths)
    while queue:
        v = queue.popleft()
        for c in graph.alphabet.letters():
            if graph.origin(c) == v and graph.terminus(c) not in paths:
                paths[graph.terminus(c)] = paths[v] + (c,)
                queue.append(graph.terminus(c))
    return paths


class CollapseData(NamedTuple):
    """A maximal subtree Y of ``base`` and the rose obtained by collapsing it.

    ``diameter`` is the combinatorial diameter of Y.  ``lift_stretch`` bounds
    the length growth of the lift that reinserts the tree geodesic between
    consecutive rose letters: a rose path of length n lifts to at most
    ``lift_stretch * n`` letters (n + (n-1)*diameter <= (diameter+1)*n).
    ``multiplicity_bound`` bounds the fibers of ``project_path`` over any
    nonempty rose word: a choice of erased tree prefix and tree suffix, each
    determined by its starting/ending vertex.
    """

    base: MarkedMetricGraph
    subtree: frozenset[int]  # topological edge indices of Y
    rose: MarkedMetricGraph
    diameter: int
    multiplicity_bound: int
    # each base letter's rose letter, None for a letter of Y: a str.translate table
    base_to_rose: dict[int, Optional[int]]

    @property
    def lift_stretch(self) -> int:
        return self.diameter + 1


def maximal_subtree(graph: MarkedMetricGraph) -> CollapseData:
    """Deterministic spanning tree (BFS from the least vertex, edges in
    canonical order) together with its collapse rose.

    For a rose input the subtree is a single vertex, the diameter is 0 and
    the rose is the graph itself.
    """
    if graph.violations:
        raise PreconditionError(
            "cannot collapse an invalid graph: " + "; ".join(graph.violations))

    paths = graph._paths
    tree = frozenset(path[-1] >> 1 for path in paths.values() if path)
    # a tree has one reduced path from u to v: via the base, then tightened
    diameter = max(len(tighten_raw(inverse_codes(paths[u]) + paths[v]))
                   for u in paths for v in paths)
    n_vertices = len(graph.vertices)
    multiplicity = n_vertices * n_vertices if tree else 1

    if not tree:
        identity = {c: c for c in graph.alphabet.letters()}
        return CollapseData(graph, tree, graph, 0, 1, identity)

    rose_names = [graph.alphabet.names[i] for i in range(graph.num_topological_edges)
                  if i not in tree]
    rose_vertex = graph.vertices[0]  # the base vertex
    rose = MarkedMetricGraph(
        [rose_vertex],
        [(name, rose_vertex, rose_vertex, Fraction(1)) for name in rose_names])

    base_to_rose = dict.fromkeys(graph.alphabet.letters())
    for name in rose_names:
        b = graph.alphabet.index(name)
        r = rose.alphabet.index(name)
        base_to_rose[b] = r
        base_to_rose[b ^ 1] = r ^ 1
    return CollapseData(graph, tree, rose, diameter, multiplicity, base_to_rose)


def project_path(cd: CollapseData, row: str) -> str:
    """Delete every subtree letter of a reduced edge path of ``cd.base``, a
    code-point ``str`` (``chr(code)`` a letter); the image, in the same form,
    is a reduced path of the rose, empty for a path inside the subtree.

    One ``str.translate`` through ``cd.base_to_rose``.  The input is trusted
    to be a reduced edge path, and the result is not checked:
    :func:`~lamtool.laminations.project_language`, the caller, checks every
    stratum it projects.
    """
    return row.translate(cd.base_to_rose)
