"""Graph self-maps: train-track verification, transition-matrix analysis,
orientability and conjugacy growth.

The train-track test is the finite turn test: build the direction map Df
(first letter of the image of each oriented edge), collect the turns crossed
inside edge images, and follow them under Df until the set closes up or a
degenerate turn (two equal directions) appears.  Reaching a degenerate turn
after k steps is exactly a cancellation inside some (k+1)-st iterated edge
image, so the test agrees with brute-force iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, MalformedInputError
from .graphs import MarkedMetricGraph
from .kernels import expand_capped, image_tables
from .words import EdgePath, cyclic_tighten_raw, is_reduced, tighten_raw

__all__ = [
    "GraphSelfMap",
    "TransitionMatrix",
    "MatrixAnalysis",
    "TrainTrackResult",
    "OrientationResult",
    "ConjugacyGrowth",
    "compose",
    "apply_power",
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

    __slots__ = ("graph", "vertex_image", "edge_images", "_tables")

    def __init__(self, graph: MarkedMetricGraph, vertex_image: Sequence[int],
                 edge_images: Sequence[Sequence[int]]):
        self.graph = graph
        self.vertex_image = tuple(vertex_image)
        self.edge_images = tuple(tuple(img) for img in edge_images)
        self._tables = None
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

    def tables(self):
        """Flattened image arrays (offsets, data) for the expansion kernel."""
        if self._tables is None:
            self._tables = image_tables(map(self.image, self.graph.alphabet.letters()))
        return self._tables

    def __repr__(self):
        pieces = ", ".join(
            f"{self.graph.alphabet.names[i]} -> {self.graph.alphabet.format(img)}"
            for i, img in enumerate(self.edge_images))
        return f"GraphSelfMap({pieces})"


def compose(outer: GraphSelfMap, inner: GraphSelfMap) -> GraphSelfMap:
    """Formal composition e -> outer(inner(e)), without tightening."""
    if outer.graph is not inner.graph and outer.graph.alphabet != inner.graph.alphabet:
        raise DomainError("can only compose maps of the same graph")
    images = []
    for cls in range(inner.graph.num_topological_edges):
        path = []
        for c in inner.edge_images[cls]:
            path.extend(outer.image(c))
        images.append(tuple(path))
    vimg = tuple(outer.vertex_image[v] for v in inner.vertex_image)
    return GraphSelfMap(inner.graph, vimg, images)


def apply_power_raw(gsm: GraphSelfMap, codes, k: int) -> tuple[int, ...]:
    if k < 0:
        raise DomainError("power must be >= 0")
    current = tuple(codes)
    if k == 0:
        return tighten_raw(current)
    for _ in range(k):
        image = expand_capped(current, gsm.tables(), "intermediate word")
        current = tighten_raw(image.tolist())
    return current


def apply_power(gsm: GraphSelfMap, path: EdgePath, k: int) -> EdgePath:
    """tighten(f^k(path)), computed by k substitution+tighten rounds."""
    return EdgePath(gsm.graph.alphabet, apply_power_raw(gsm, path.letters, k))


# ---------------------------------------------------------------------------
# train track test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainTrackResult:
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

@dataclass(frozen=True)
class TransitionMatrix:
    matrix: np.ndarray  # shape (m, m), entry (i, j) = occurrences of edge i^{+-1} in f(e_j)
    edge_names: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def transition_matrix(gsm: GraphSelfMap) -> TransitionMatrix:
    m = gsm.graph.num_topological_edges
    mat = np.zeros((m, m), dtype=np.int64)
    for j, img in enumerate(gsm.edge_images):
        for c in img:
            mat[c >> 1, j] += 1
    return TransitionMatrix(mat, gsm.graph.alphabet.names)


@dataclass(frozen=True)
class MatrixAnalysis:
    irreducible: bool
    primitive: bool
    primitivity_exponent: Optional[int]
    expanding: bool
    stretch_factor: float
    residual: float
    iterations: int
    converged: bool


def _strongly_connected(support: np.ndarray) -> bool:
    m = support.shape[0]

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in range(m):
                if adj[v, w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == m

    return reach(support) and reach(support.T)


def _primitivity_exponent(support: np.ndarray) -> Optional[int]:
    """Least k with A^k > 0, scanned up to the Wielandt bound (m-1)^2 + 1."""
    m = support.shape[0]
    bound = (m - 1) ** 2 + 1
    power = support.copy()
    for k in range(1, bound + 1):
        if power.all():
            return k
        power = (power.astype(np.int64) @ support.astype(np.int64)) > 0
    return None


def _expanding(matrix: np.ndarray) -> bool:
    """Every column eventually maps over >= 2 edges.

    A column with sum 1 feeds a chain j -> (the unique edge it maps over);
    an edge fails to expand exactly when that chain never leaves the set of
    sum-1 columns, i.e. runs into a cycle inside it.
    """
    colsums = matrix.sum(axis=0)
    stay = {j for j in range(matrix.shape[1]) if colsums[j] == 1}
    nxt = {j: int(np.nonzero(matrix[:, j])[0][0]) for j in stay}
    for j in stay:
        seen = set()
        v = j
        while v in stay:
            if v in seen:
                return False
            seen.add(v)
            v = nxt[v]
    return True


def _power_iteration(matrix: np.ndarray, tol=1e-12, max_iter=1_000_000):
    a = matrix.astype(np.float64)
    v = np.ones(a.shape[0])
    lam = 0.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        # callers pass a primitive matrix (A, or A + I for an irreducible A):
        # it has no zero row, so w stays positive
        w = a @ v
        lam = np.abs(w).max()
        w = w / lam
        residual = np.abs(a @ w - lam * w).max()
        v = w
        if residual <= tol * max(lam, 1.0):
            return float(lam), float(residual), it, True
    return float(lam), float(residual), max_iter, False


def analyze_matrix(matrix) -> MatrixAnalysis:
    """Irreducibility, primitivity, expansion and the dominant eigenvalue."""
    mat = matrix.matrix if isinstance(matrix, TransitionMatrix) else np.asarray(matrix)
    mat = mat.astype(np.int64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("transition matrix must be square")
    if (mat < 0).any():
        raise DomainError("transition matrix must be nonnegative")
    if not mat.any():
        raise DomainError("zero matrix has no Perron-Frobenius analysis")
    support = mat > 0
    irreducible = _strongly_connected(support)
    exponent = _primitivity_exponent(support) if irreducible else None
    primitive = exponent is not None
    expanding = _expanding(mat)
    if primitive:
        lam, residual, iterations, converged = _power_iteration(mat)
    elif irreducible:
        # power iteration oscillates on imprimitive matrices; A + I is
        # primitive with the same Perron vector and eigenvalue shifted by 1
        shifted = mat + np.eye(mat.shape[0], dtype=np.int64)
        lam, residual, iterations, converged = _power_iteration(shifted)
        lam -= 1.0
    else:
        # reducible: the dominant eigenvalue may be defective, where power
        # iteration only converges polynomially; use the dense spectrum
        lam = float(np.abs(np.linalg.eigvals(mat.astype(np.float64))).max())
        residual, iterations, converged = 0.0, 0, True
    return MatrixAnalysis(irreducible, primitive, exponent, expanding,
                          lam, residual, iterations, converged)


# ---------------------------------------------------------------------------
# orientability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrientationResult:
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


def orientability(gsm: GraphSelfMap, analysis: Optional[MatrixAnalysis] = None,
                  tt: Optional[TrainTrackResult] = None) -> OrientationResult:
    """Decide whether the map admits a preferred orientation.

    Fixing the sign of one edge forces, through each occurrence in an edge
    image, the sign of every edge it maps over; the map is orientable exactly
    when this propagation closes without conflict.  Intended for expanding
    primitive train track maps; other inputs are still processed, with a
    warning attached to the result.
    """
    warnings = []
    if analysis is None:
        analysis = analyze_matrix(transition_matrix(gsm))
    if tt is None:
        tt = is_train_track(gsm)
    if not (analysis.primitive and analysis.expanding and tt.is_train_track):
        warnings.append("orientability is meaningful for expanding primitive "
                        "train track maps; computing on best effort")

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
        if witness is None:
            warnings.append("no single-image witness found; the sign "
                            "constraints are still inconsistent")
        return OrientationResult(False, witness=witness, warnings=tuple(warnings))

    positive = frozenset(2 * cls if sign[cls] > 0 else 2 * cls + 1 for cls in range(m))
    for e in positive:
        for y in gsm.image(e):
            assert y in positive, "consistent signs must orient every image"
    return OrientationResult(True, positive_letters=positive, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# conjugacy growth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyGrowth:
    lengths: tuple[tuple[int, int], ...]  # (n, cyclically reduced length)
    rate_estimate: float


def conjugacy_growth(gsm: GraphSelfMap, w: EdgePath, n_max: int) -> ConjugacyGrowth:
    """Cyclically reduced lengths of iterated images of a loop, plus the
    ratio of the last two as a growth-rate estimate."""
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    word = tighten_raw(w.letters)
    if not word:
        raise DomainError("growth of the trivial loop is undefined")
    if gsm.graph.origin(word[0]) != gsm.graph.terminus(word[-1]):
        raise DomainError("conjugacy growth expects a loop")
    lengths = [(0, len(cyclic_tighten_raw(word)))]
    current = word
    for n in range(1, n_max + 1):
        current = apply_power_raw(gsm, current, 1)
        lengths.append((n, len(cyclic_tighten_raw(current))))
    last, prev = lengths[-1][1], lengths[-2][1]
    rate = last / prev if prev else 0.0
    return ConjugacyGrowth(tuple(lengths), rate)
