"""Finite marked metric graphs, spanning-tree collapse and path rewriting.

A graph holds its oriented edges in an :class:`~lamtool.words.EdgeAlphabet`;
edge lengths are exact :class:`~fractions.Fraction` values so metric tables
reproduce bit-exactly across runs.  Collapsing a maximal subtree onto a rose
comes with the two path-rewriting maps used to compare complexity functions:
``project_path`` deletes tree letters, ``lift_path`` reinserts tree geodesics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, lcm
from typing import Iterable, Sequence

from .errors import DomainError, MalformedInputError, PreconditionError
from .words import EdgeAlphabet, EdgePath, inverse_codes, tighten_raw

__all__ = [
    "MarkedMetricGraph",
    "ValidationReport",
    "CollapseData",
    "validate",
    "maximal_subtree",
    "project_path",
    "lift_path",
    "metric_length",
]


def _parse_length(value) -> Fraction:
    length = Fraction(value) if not isinstance(value, Fraction) else value
    if length <= 0:
        raise MalformedInputError(f"edge length must be positive, got {value!r}")
    return length


class MarkedMetricGraph:
    """Finite connected graph with positive edge lengths.

    ``edges`` is a sequence of ``(name, origin, terminus, length)`` with one
    entry per positive edge; inverse edges are implicit.  Vertices and edges
    are kept in canonical sorted order so every derived enumeration is
    deterministic.
    """

    __slots__ = ("vertices", "alphabet", "lengths", "length_unit", "_origin",
                 "_vindex", "_steps", "_reduced_steps", "_weights")

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
        # the two-letter words an edge path, and a reduced one, may contain
        self._steps = frozenset(
            (x, y) for x in self.alphabet.letters() for y in self.alphabet.letters()
            if origin[x ^ 1] == origin[y])
        self._reduced_steps = frozenset((x, y) for x, y in self._steps if y != x ^ 1)

    # -- basic incidence ---------------------------------------------------

    def origin(self, code: int) -> int:
        return self._origin[code]

    def terminus(self, code: int) -> int:
        return self._origin[code ^ 1]

    def vertex_name(self, index: int) -> str:
        return self.vertices[index]

    def degree(self, vertex: int) -> int:
        return sum(1 for c in self.alphabet.letters() if self._origin[c] == vertex)

    @property
    def num_topological_edges(self) -> int:
        return len(self.lengths)

    def betti(self) -> int:
        return self.num_topological_edges - len(self.vertices) + 1

    def edge_length(self, code: int) -> Fraction:
        return self.lengths[code >> 1]

    def min_length(self) -> Fraction:
        return min(self.lengths)

    def max_length(self) -> Fraction:
        return max(self.lengths)

    def comparability_constant(self) -> Fraction:
        """C >= 1 with |path|/C <= metric length <= C * |path|."""
        return max(self.max_length(), 1 / self.min_length(), Fraction(1))

    def is_rose(self) -> bool:
        return len(self.vertices) == 1

    # -- paths ---------------------------------------------------------------

    def _within(self, codes, steps) -> bool:
        codes = tuple(codes)
        if len(codes) == 1:
            return self.alphabet.contains(codes[0])
        return set(zip(codes, codes[1:])) <= steps

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

    def metric_length(self, codes) -> Fraction:
        return Fraction(self.weight(codes), self.length_unit)

    def weight_bound(self, bound) -> int:
        """The largest weight a path of metric length at most ``bound`` can
        have, in units of ``1 / length_unit``."""
        return floor(bound * self.length_unit)

    def depth(self, bound) -> int:
        """The most letters a path of metric length at most ``bound`` can have."""
        return self.weight_bound(bound) // min(self._weights.values())

    def path(self, text: str) -> EdgePath:
        return EdgePath.from_text(self.alphabet, text)

    def base_vertex(self) -> int:
        """Deterministic basepoint: the lexicographically least vertex."""
        return 0

    def __repr__(self):
        return (f"MarkedMetricGraph(|V|={len(self.vertices)}, "
                f"edges={self.alphabet.names}, rank={self.betti()})")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    rank: int
    violations: tuple[str, ...]


def _root_paths(graph: MarkedMetricGraph) -> dict[int, tuple[int, ...]]:
    """One breadth-first search from the base vertex, letters in canonical
    order: each reached vertex maps to the letters of the path that first
    reached it.  The last letters of these paths span a tree, and the paths
    are its paths from the base vertex."""
    paths = {graph.base_vertex(): ()}
    queue = deque(paths)
    while queue:
        v = queue.popleft()
        for c in graph.alphabet.letters():
            if graph.origin(c) == v and graph.terminus(c) not in paths:
                paths[graph.terminus(c)] = paths[v] + (c,)
                queue.append(graph.terminus(c))
    return paths


def validate(graph: MarkedMetricGraph) -> ValidationReport:
    """Structural checks; returns violations instead of raising."""
    violations = []
    if len(_root_paths(graph)) < len(graph.vertices):
        violations.append("graph is not connected")
    rank = graph.betti()
    if rank < 2:
        violations.append(f"first Betti number {rank} is below the minimum rank 2")
    for i, v in enumerate(graph.vertices):
        deg = graph.degree(i)
        if deg < 3:
            violations.append(f"vertex {v} has degree {deg} < 3")
    for i, length in enumerate(graph.lengths):
        if length <= 0:
            violations.append(f"edge {graph.alphabet.names[i]} has nonpositive length")
    return ValidationReport(ok=not violations, rank=rank, violations=tuple(violations))


@dataclass(frozen=True)
class CollapseData:
    """A maximal subtree Y of ``base`` and the rose obtained by collapsing it.

    ``diameter`` is the combinatorial diameter of Y.  ``lift_stretch`` bounds
    the length growth of ``lift_path``: a rose path of length n lifts to at
    most ``lift_stretch * n`` letters (n + (n-1)*diameter <= (diameter+1)*n).
    ``multiplicity_bound`` bounds the fibers of ``project_path`` over any
    nonempty rose word: a choice of erased tree prefix and tree suffix, each
    determined by its starting/ending vertex.
    """

    base: MarkedMetricGraph
    subtree: frozenset[int]  # topological edge indices of Y
    rose: MarkedMetricGraph
    diameter: int
    multiplicity_bound: int
    rose_to_base: dict[int, int] = field(repr=False)
    base_to_rose: dict[int, int] = field(repr=False)
    geodesics: dict[tuple[int, int], tuple[int, ...]] = field(repr=False)

    @property
    def lift_stretch(self) -> int:
        return self.diameter + 1


def maximal_subtree(graph: MarkedMetricGraph) -> CollapseData:
    """Deterministic spanning tree (BFS from the least vertex, edges in
    canonical order) together with its collapse rose.

    For a rose input the subtree is a single vertex, the diameter is 0 and
    the rose is the graph itself.
    """
    report = validate(graph)
    if not report.ok:
        raise PreconditionError(
            "cannot collapse an invalid graph: " + "; ".join(report.violations))

    paths = _root_paths(graph)
    tree = frozenset(path[-1] >> 1 for path in paths.values() if path)
    # a tree has one reduced path from u to v: via the base, then tightened
    geodesics = {(u, v): tighten_raw(inverse_codes(paths[u]) + paths[v])
                 for u in paths for v in paths}
    diameter = max((len(p) for p in geodesics.values()), default=0)
    n_vertices = len(graph.vertices)
    multiplicity = n_vertices * n_vertices if tree else 1

    if not tree:
        identity = {c: c for c in graph.alphabet.letters()}
        return CollapseData(graph, tree, graph, 0, 1, identity, identity, geodesics)

    rose_names = [graph.alphabet.names[i] for i in range(graph.num_topological_edges)
                  if i not in tree]
    rose_vertex = graph.vertex_name(graph.base_vertex())
    rose = MarkedMetricGraph(
        [rose_vertex],
        [(name, rose_vertex, rose_vertex, Fraction(1)) for name in rose_names])

    rose_to_base = {}
    base_to_rose = {}
    for name in rose_names:
        b = graph.alphabet.index(name)
        r = rose.alphabet.index(name)
        rose_to_base[r] = b
        rose_to_base[r ^ 1] = b ^ 1
        base_to_rose[b] = r
        base_to_rose[b ^ 1] = r ^ 1
    return CollapseData(graph, tree, rose, diameter, multiplicity,
                        rose_to_base, base_to_rose, geodesics)


def project_path(cd: CollapseData, codes) -> tuple[int, ...]:
    """Delete every subtree letter; the image of a reduced path is reduced.

    May return the empty tuple (paths lying entirely inside the subtree).
    The input is checked with one subset test of its two-letter steps
    against the base graph's reduced steps; only a path that fails is
    tested again, to say whether it is no edge path or only backtracks.
    """
    codes = tuple(codes)
    if not cd.base.is_reduced_path(codes):
        if not cd.base.is_edge_path(codes):
            raise PreconditionError(
                "project_path expects an edge path in the base graph")
        raise PreconditionError("project_path expects a reduced path")
    to_rose = cd.base_to_rose  # exactly the letters outside the subtree
    out = tuple([to_rose[c] for c in codes if c in to_rose])
    assert cd.rose.is_reduced_path(out), \
        "projection of a reduced path must be reduced"
    return out


def lift_path(cd: CollapseData, codes) -> tuple[int, ...]:
    """Reinsert the tree geodesic between consecutive rose letters.

    Injective, with ``project_path(lift_path(w)) == w`` and
    ``len(lift) <= lift_stretch * len(w)``.
    """
    codes = tuple(codes)
    if not cd.rose.is_reduced_path(codes):
        if not cd.rose.is_edge_path(codes):
            raise PreconditionError("lift_path expects an edge path in the rose")
        raise PreconditionError("lift_path expects a reduced path")
    out: list[int] = []
    for i, c in enumerate(codes):
        base_letter = cd.rose_to_base[c]
        if i > 0:
            gap = cd.geodesics[(cd.base.terminus(cd.rose_to_base[codes[i - 1]]),
                                cd.base.origin(base_letter))]
            out.extend(gap)
        out.append(base_letter)
    result = tuple(out)
    assert cd.base.is_reduced_path(result), "lift of a reduced rose path must be reduced"
    return result


def metric_length(graph: MarkedMetricGraph, path) -> Fraction:
    """Sum of edge lengths along ``path`` (0 for the empty path)."""
    codes = path.letters if isinstance(path, EdgePath) else path
    return graph.metric_length(codes)
