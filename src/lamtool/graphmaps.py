"""Graph self-maps: train-track verification, transition-matrix analysis,
orientability and conjugacy growth.

A map sends each edge to a path of letter codes.  Conjugacy growth iterates
a loop by rounds of substitution and tightening, under the size cap.

The train-track test is the finite turn test: build the direction map Df
(first letter of the image of each oriented edge), collect the turns crossed
inside edge images, and follow them under Df until the set closes up or a
degenerate turn (two equal directions) appears.  Reaching a degenerate turn
after k steps is exactly a cancellation inside some (k+1)-st iterated edge
image, so the test agrees with brute-force iteration.
"""

from __future__ import annotations

import math
from itertools import chain
from numbers import Real
from operator import index
from typing import NamedTuple, Optional, Sequence

from .config import check_size
from .errors import DomainError, MalformedInputError
from .graphs import MarkedMetricGraph
from .words import cyclic_tighten_raw, tighten_raw

__all__ = [
    "GraphSelfMap",
    "TransitionMatrix",
    "MatrixAnalysis",
    "TrainTrackResult",
    "OrientationResult",
    "ConjugacyGrowth",
    "is_train_track",
    "transition_matrix",
    "analyze_matrix",
    "orientability",
    "conjugacy_growth",
]


class GraphSelfMap:
    """A graph map f from a marked graph to itself.

    ``edge_images`` assigns a nonempty edge path to every positive edge (in
    canonical order); inverse edges map to inverse paths.  Vertex images must
    be compatible with the endpoints of every edge image.
    """

    __slots__ = ("graph", "vertex_image", "edge_images")

    def __init__(self, graph: MarkedMetricGraph, vertex_image: Sequence[int],
                 edge_images: Sequence[Sequence[int]]):
        self.graph = graph
        self.vertex_image = tuple(vertex_image)
        self.edge_images = tuple(tuple(img) for img in edge_images)
        if len(self.vertex_image) != len(graph.vertices):
            raise MalformedInputError("vertex_image must cover every vertex")
        if len(self.edge_images) != graph.num_topological_edges:
            raise MalformedInputError("edge_images must cover every positive edge")
        for cls, img in enumerate(self.edge_images):
            name = graph.alphabet.names[cls]
            if not img:
                raise MalformedInputError(f"image of edge {name} is empty")
            if not graph.is_edge_path(img):
                raise MalformedInputError(f"image of edge {name} is not an edge path")
            e = 2 * cls
            if graph.origin(img[0]) != self.vertex_image[graph.origin(e)]:
                raise MalformedInputError(
                    f"image of edge {name} does not start at the image of its origin")
            if graph.terminus(img[-1]) != self.vertex_image[graph.terminus(e)]:
                raise MalformedInputError(
                    f"image of edge {name} does not end at the image of its terminus")

    def image(self, code: int) -> tuple[int, ...]:
        img = self.edge_images[code >> 1]
        if code & 1:
            return tuple(c ^ 1 for c in reversed(img))
        return img

    def direction_map(self) -> dict[int, int]:
        return {c: self.image(c)[0] for c in self.graph.alphabet.letters()}

    def __repr__(self):
        pieces = ", ".join(
            f"{self.graph.alphabet.names[i]} -> {self.graph.alphabet.format(img)}"
            for i, img in enumerate(self.edge_images))
        return f"GraphSelfMap({pieces})"


# ---------------------------------------------------------------------------
# train track test
# ---------------------------------------------------------------------------

class TrainTrackResult(NamedTuple):
    is_train_track: bool
    offending_turn: Optional[tuple[int, int]] = None
    offending_iterate: Optional[int] = None
    legal_turns: Optional[frozenset] = None
    reason: str = ""

    def __bool__(self):
        return self.is_train_track


def _normalize_turn(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def is_train_track(gsm: GraphSelfMap) -> TrainTrackResult:
    """True iff every iterate of the map sends edges to reduced paths."""
    for cls, img in enumerate(gsm.edge_images):
        for i in range(len(img) - 1):
            if img[i + 1] == img[i] ^ 1:
                return TrainTrackResult(
                    False, _normalize_turn(img[i] ^ 1, img[i + 1]), 0,
                    reason=f"image of edge {gsm.graph.alphabet.names[cls]} is not reduced")

    df = gsm.direction_map()
    crossed = set()
    for img in gsm.edge_images:
        for i in range(len(img) - 1):
            crossed.add(_normalize_turn(img[i] ^ 1, img[i + 1]))

    seen = set(crossed)
    frontier = [(turn, turn) for turn in sorted(crossed)]
    iterate = 0
    while frontier:
        iterate += 1
        next_frontier = []
        for turn, origin in frontier:
            image_turn = _normalize_turn(df[turn[0]], df[turn[1]])
            if image_turn[0] == image_turn[1]:
                return TrainTrackResult(
                    False, origin, iterate,
                    reason=(f"turn {origin} degenerates after {iterate} "
                            "steps of the direction map"))
            if image_turn not in seen:
                seen.add(image_turn)
                next_frontier.append((image_turn, origin))
        frontier = next_frontier
    return TrainTrackResult(True, legal_turns=frozenset(seen),
                            reason="all crossed turns stay nondegenerate")


# ---------------------------------------------------------------------------
# transition matrix analysis
# ---------------------------------------------------------------------------

class TransitionMatrix(NamedTuple):
    # m rows of m ints, entry (i, j) = occurrences of edge i^{+-1} in f(e_j)
    matrix: tuple[tuple[int, ...], ...]
    edge_names: tuple[str, ...]


def transition_matrix(gsm: GraphSelfMap) -> TransitionMatrix:
    m = gsm.graph.num_topological_edges
    mat = [[0] * m for _ in range(m)]
    for j, img in enumerate(gsm.edge_images):
        for c in img:
            mat[c >> 1][j] += 1
    return TransitionMatrix(tuple(map(tuple, mat)), gsm.graph.alphabet.names)


class MatrixAnalysis(NamedTuple):
    irreducible: bool
    primitive: bool
    primitivity_exponent: Optional[int]
    expanding: bool
    stretch_factor: float
    residual: float
    converged: bool


def _support(mat) -> list[int]:
    """Row i's support as the bitmask with bit j set where mat[i][j] > 0."""
    return [sum(1 << j for j, v in enumerate(row) if v) for row in mat]


def _image(mask: int, rows: list[int]) -> int:
    """The union of the bitmask rows named by the set bits of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _reach(start: int, rows: list[int]) -> int:
    """The vertices reached from the bitmask ``start`` along the bitmask
    rows, ``start`` included."""
    seen = frontier = start
    while frontier:
        frontier = _image(frontier, rows) & ~seen
        seen |= frontier
    return seen


def _blocks(support: list[int]) -> list[int]:
    """The strongly connected blocks of the support, as bitmasks: the block
    of a vertex is its forward reach intersected with its backward reach."""
    m = len(support)
    transpose = [sum(1 << i for i in range(m) if support[i] >> j & 1)
                 for j in range(m)]
    blocks = []
    left = (1 << m) - 1
    while left:
        low = left & -left
        block = _reach(low, support) & _reach(low, transpose)
        blocks.append(block)
        left &= ~block
    return blocks


def _primitivity_exponent(support: list[int]) -> Optional[int]:
    """Least k with A^k > 0, scanned up to the Wielandt bound (m-1)^2 + 1.
    Row i of ``power`` is the bitmask of the j with A^k[i][j] > 0."""
    m = len(support)
    full = (1 << m) - 1
    power = support
    for k in range(1, (m - 1) ** 2 + 2):
        if all(row == full for row in power):
            return k
        power = [_image(row, support) for row in power]
    return None


def _expanding(mat) -> bool:
    """Every column eventually maps over >= 2 edges.

    A column with sum 1 feeds a chain j -> (the unique edge it maps over);
    an edge fails to expand exactly when that chain never leaves the set of
    sum-1 columns, i.e. runs into a cycle inside it.
    """
    columns = list(zip(*mat))
    stay = {j for j, col in enumerate(columns) if sum(col) == 1}
    nxt = {j: columns[j].index(1) for j in stay}
    for j in stay:
        seen = set()
        v = j
        while v in stay:
            if v in seen:
                return False
            seen.add(v)
            v = nxt[v]
    return True


def _power_iteration(mat, tol=1e-12, max_iter=1_000_000):
    a = [[float(v) for v in row] for row in mat]
    v = [1.0] * len(a)
    lam = 0.0
    residual = math.inf
    for _ in range(max_iter):
        # callers pass a primitive block (B, or B + I for an irreducible
        # block B): it has no zero row, so w stays positive
        w = [sum(x * y for x, y in zip(row, v)) for row in a]
        lam = max(map(abs, w))
        w = [x / lam for x in w]
        residual = max(abs(sum(x * y for x, y in zip(row, w)) - lam * wi)
                       for row, wi in zip(a, w))
        v = w
        if residual <= tol * max(lam, 1.0):
            return lam, residual, True
    return lam, residual, False


def _entry(value) -> int:
    """A matrix entry as a Python int; an integral float such as 2.0 is
    taken, a non-integer such as 1.5 refused."""
    try:
        return index(value)
    except TypeError:
        if isinstance(value, Real) and float(value).is_integer():
            return int(value)
    raise DomainError(f"transition matrix entries must be integers; got {value!r}")


def _checked_matrix(matrix) -> list[list[int]]:
    """``matrix`` as m rows of m Python ints; raises unless it is square,
    integer, nonnegative and not zero."""
    try:
        rows = [list(row) for row in matrix]
    except TypeError:
        rows = []
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DomainError("transition matrix must be square")
    mat = [[_entry(v) for v in row] for row in rows]
    if any(v < 0 for row in mat for v in row):
        raise DomainError("transition matrix must be nonnegative")
    if not any(map(any, mat)):
        raise DomainError("zero matrix has no Perron-Frobenius analysis")
    return mat


def _block_radius(block, tol):
    """The spectral radius of a square block whose support is strongly
    connected, or a single vertex without a loop, with its residual and
    whether the iteration converged."""
    if not any(map(any, block)):
        return 0.0, 0.0, True
    if _primitivity_exponent(_support(block)) is not None:
        return _power_iteration(block, tol)
    # power iteration oscillates on imprimitive blocks; B + I is primitive
    # with the same Perron vector and eigenvalue shifted by 1
    shifted = [[v + (i == j) for j, v in enumerate(row)]
               for i, row in enumerate(block)]
    lam, residual, converged = _power_iteration(shifted, tol)
    return lam - 1.0, residual, converged


def analyze_matrix(matrix) -> MatrixAnalysis:
    """Irreducibility, primitivity, expansion and the dominant eigenvalue:
    the largest radius among the strongly connected blocks, each with a
    simple Perron eigenvalue, and the residual of the block attaining it.
    Blocks of a reducible matrix iterate to 1e-13 relative; an irreducible
    matrix keeps 1e-12, the tolerance its printed digits were recorded at.

    ``matrix`` is a :class:`TransitionMatrix` or m rows of m nonnegative
    integers, not all zero."""
    mat = _checked_matrix(matrix.matrix if isinstance(matrix, TransitionMatrix)
                          else matrix)
    support = _support(mat)
    blocks = _blocks(support)
    irreducible = len(blocks) == 1
    exponent = _primitivity_exponent(support) if irreducible else None
    tol = 1e-12 if irreducible else 1e-13
    radii = []
    for block in blocks:
        idx = [i for i in range(len(mat)) if block >> i & 1]
        radii.append(_block_radius([[mat[i][j] for j in idx] for i in idx], tol))
    lam, residual, _ = max(radii, key=lambda radius: radius[0])
    return MatrixAnalysis(irreducible, exponent is not None, exponent,
                          _expanding(mat), lam, residual,
                          all(converged for _, _, converged in radii))


# ---------------------------------------------------------------------------
# orientability
# ---------------------------------------------------------------------------

class OrientationResult(NamedTuple):
    orientable: bool
    positive_letters: Optional[frozenset] = None  # one letter code per edge
    witness: Optional[tuple[int, int, int]] = None  # (letter, source letter, k)
    warnings: tuple[str, ...] = ()


def _both_signs_witness(gsm: GraphSelfMap, max_power: int):
    """Search for (e, e', k) with e and e^{-1} both occurring in f^k(e')."""
    m = gsm.graph.num_topological_edges
    letter_sets = {2 * cls: frozenset(gsm.edge_images[cls]) for cls in range(m)}
    for k in range(1, max_power + 1):
        for cls in range(m):
            present = letter_sets[2 * cls]
            for d in range(m):
                if 2 * d in present and (2 * d) ^ 1 in present:
                    return (2 * d, 2 * cls, k)
        nxt = {}
        for cls in range(m):
            acc = set()
            for y in gsm.edge_images[cls]:
                base = letter_sets[y & ~1]
                if y & 1:
                    acc.update(c ^ 1 for c in base)
                else:
                    acc.update(base)
            nxt[2 * cls] = frozenset(acc)
        if nxt == letter_sets:
            break
        letter_sets = nxt
    return None


def orientability(gsm: GraphSelfMap) -> OrientationResult:
    """Decide whether the map admits a preferred orientation.

    Fixing the sign of one edge forces, through each occurrence in an edge
    image, the sign of every edge it maps over; the map is orientable exactly
    when this propagation closes without conflict.  The answer is meaningful
    for expanding primitive train track maps, but any map is processed:
    ``laminations.certify`` warns when the map is not one.
    """
    m = gsm.graph.num_topological_edges
    # sign constraints are symmetric parity relations: an occurrence of y in
    # f(e_c) forces sign(cls y) = sign(c) * (+1 for y positive, -1 inverse)
    relations = [[] for _ in range(m)]
    for cls in range(m):
        for y in gsm.edge_images[cls]:
            parity = -1 if y & 1 else 1
            relations[cls].append((y >> 1, parity))
            relations[y >> 1].append((cls, parity))
    sign = {}
    conflict = False
    for seed in range(m):
        if seed in sign:
            continue
        sign[seed] = 1
        stack = [seed]
        while stack and not conflict:
            cls = stack.pop()
            for d, parity in relations[cls]:
                forced = sign[cls] * parity
                if d not in sign:
                    sign[d] = forced
                    stack.append(d)
                elif sign[d] != forced:
                    conflict = True
                    break
        if conflict:
            break

    if conflict:
        witness = _both_signs_witness(gsm, max_power=8 * m * m + 8)
        warnings = () if witness is not None else (
            "no single-image witness found; the sign constraints are still "
            "inconsistent",)
        return OrientationResult(False, witness=witness, warnings=warnings)

    positive = frozenset(2 * cls if sign[cls] > 0 else 2 * cls + 1 for cls in range(m))
    for e in positive:
        for y in gsm.image(e):
            assert y in positive, "consistent signs must orient every image"
    return OrientationResult(True, positive_letters=positive)


# ---------------------------------------------------------------------------
# conjugacy growth
# ---------------------------------------------------------------------------

class ConjugacyGrowth(NamedTuple):
    lengths: tuple[tuple[int, int], ...]  # (n, cyclically reduced length)
    rate_estimate: float


def conjugacy_growth(gsm: GraphSelfMap, w, n_max: int) -> ConjugacyGrowth:
    """Cyclically reduced lengths of the iterated images of the loop ``w``
    (letter codes), plus the ratio of the last two as a growth-rate
    estimate."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    word = tighten_raw(w)
    if not word:
        raise DomainError("growth of the trivial loop is undefined")
    if gsm.graph.origin(word[0]) != gsm.graph.terminus(word[-1]):
        raise DomainError("conjugacy growth expects a loop")
    images = [gsm.image(c) for c in gsm.graph.alphabet.letters()]
    lengths = [(0, len(cyclic_tighten_raw(word)))]
    current = word
    for n in range(1, n_max + 1):
        pieces = [images[c] for c in current]
        check_size(sum(map(len, pieces)), "intermediate word")
        current = tighten_raw(chain.from_iterable(pieces))
        lengths.append((n, len(cyclic_tighten_raw(current))))
    last, prev = lengths[-1][1], lengths[-2][1]
    rate = last / prev if prev else 0.0
    return ConjugacyGrowth(tuple(lengths), rate)
