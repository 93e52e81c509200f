"""Laminary languages on marked graphs.

A laminary language is stored as length strata of reduced, nonempty edge
words.  Materialized languages carry their members; the attracting language
of a train track map additionally has a counting route (through its induced
substitution) that scales to the depths the covering bounds need.
``certify`` decides, once per map, whether the map carries one.

``transport_compare`` realizes the collapse comparison: project the language
onto the rose of a maximal subtree, then check both complexity inequalities
with the computed constants.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import log2
from typing import NamedTuple, Optional

from .boundary import cover_bound_series
from .config import check_size
from .errors import (DomainError, LamtoolError, PreconditionError,
                     SizeCapExceeded, UnderEnumerationError)
from .graphs import (CollapseData, MarkedMetricGraph, maximal_subtree,
                     project_path)
from .graphmaps import (GraphSelfMap, MatrixAnalysis, OrientationResult,
                        TrainTrackResult, TransitionMatrix, analyze_matrix,
                        is_train_track, orientability, transition_matrix)
from .kernels import substring_counts
from .substitutions import (EquivalenceWitness, Substitution, complexity_counts,
                            factor_language, from_train_track,
                            growth_equivalence_witness)
from .words import Stratified, harvest

__all__ = [
    "MapCertificate",
    "certify",
    "LaminaryLanguage",
    "attracting_language",
    "beta_metric",
    "transport_compare",
    "TransportReport",
    "LanguageSource",
    "LamlangSource",
    "SubstitutionSource",
    "AttractingSource",
    "FullShiftSource",
]


class LaminaryLanguage(Stratified):
    """Length-stratified set of reduced nonempty edge words of a graph."""

    def __init__(self, graph: MarkedMetricGraph, rows, symmetric: bool, origin: str):
        super().__init__(rows)
        self.graph = graph
        self.symmetric = symmetric
        self.origin = origin
        self._metric_lengths = None

    def metric_lengths(self) -> list[int]:
        """The members' metric lengths, sorted, as integers in units of
        ``1 / graph.length_unit`` (the lcm of the edge length denominators),
        so that sums and comparisons are exact without a Fraction per member.
        A row of n letters weighs n lightest weights plus each heavier
        weight class's excess times its count in the row, read off the
        stratum translated to classes: no letter is weighed one by one."""
        if self._metric_lengths is None:
            weights = [self.graph.weight((c,)) for c in self.graph.alphabet.letters()]
            classes = sorted(set(weights))
            table = "".join(chr(classes.index(w)) for w in weights)
            excess = [(chr(i), w - classes[0]) for i, w in enumerate(classes)][1:]
            lengths = []
            for n, stratum in enumerate(self.rows[1:], start=1):
                flat = "".join(stratum).translate(table)
                low = n * classes[0]  # n letters of the lightest weight
                lengths += [low + sum([flat.count(k, i, i + n) * x for k, x in excess])
                            for i in range(0, len(flat), n)]
            self._metric_lengths = sorted(lengths)
        return self._metric_lengths

    def __repr__(self):
        return (f"LaminaryLanguage({self.origin}, depth={self.complete_to}, "
                f"symmetric={self.symmetric})")


class MapCertificate(NamedTuple):
    """Everything lamtool decides about a map, decided once: the train track
    test, the transition matrix and its analysis, the orientation, the
    reasons the map carries no attracting language (none when it does) and,
    exactly when there are none, the induced primitive substitution."""

    train_track: TrainTrackResult
    matrix: TransitionMatrix
    analysis: MatrixAnalysis
    orientation: OrientationResult
    failures: tuple[str, ...]
    substitution: Optional[Substitution]


# the one failure of a map that meets all three hypotheses: the substitution
# over both orientations of the edges is then irreducible of period 2, its
# letters split into the two sides of an orientation that f reverses
IMPRIMITIVE_SUBSTITUTION = (
    "the induced substitution is not primitive: the map reverses an "
    "orientation of the edges; its square keeps that orientation and has "
    "the same attracting lamination")


def certify(gsm: GraphSelfMap) -> MapCertificate:
    """Decide whether ``gsm`` is an expanding primitive train track map whose
    induced substitution is primitive, the hypothesis of every count on its
    attracting lamination.  Failures name each hypothesis that does not
    hold; the orientation of a map that fails one carries a warning."""
    tt = is_train_track(gsm)
    matrix = transition_matrix(gsm)
    analysis = analyze_matrix(matrix)
    orientation = orientability(gsm)
    failures = []
    if not tt.is_train_track:
        failures.append("map is not a train track map: " + tt.reason)
    if not analysis.primitive:
        failures.append("transition matrix is not primitive")
    if not analysis.expanding:
        failures.append("map is not expanding")
    sub = None
    if failures:
        orientation = orientation._replace(warnings=(
            "orientability is meaningful for expanding primitive train track "
            "maps; computing on best effort", *orientation.warnings))
    else:
        sub = from_train_track(gsm, orientation)
        if not sub.is_primitive():
            failures.append(IMPRIMITIVE_SUBSTITUTION)
            sub = None
    return MapCertificate(tt, matrix, analysis, orientation, tuple(failures), sub)


def _oriented_substitution(gsm: GraphSelfMap):
    cert = certify(gsm)
    if cert.failures:
        raise PreconditionError("; ".join(cert.failures))
    return cert.orientation, cert.substitution


def _language_from_substitution(gsm: GraphSelfMap, orn, sub: Substitution,
                                n_max: int) -> LaminaryLanguage:
    """Relabel the factor language onto edge codes and close it under
    inversion, stratum by stratum.  An orientable map's substitution runs
    over the letters of the preferred side only, so each stratum's inverse
    rows, over the other side's letters, are disjoint from it: the stratum
    gains them.
    A non-orientable map's substitution runs over every letter and maps
    inverse letters to inverse images, so it commutes with inversion and
    each stratum already holds its inverse rows."""
    alphabet = gsm.graph.alphabet
    code_table = "".join(chr(alphabet.index(tok)) for tok in sub.letters)
    xor1_table = "".join(chr(c ^ 1) for c in alphabet.letters())
    flang = factor_language(sub, n_max)
    rows = [[]]
    for n, stratum in enumerate(flang.rows[1:], start=1):
        flat = "".join(stratum).translate(code_table)
        if orn.orientable:
            flat += flat[::-1].translate(xor1_table)  # the rows inverted
        rows.append([flat[i:i + n] for i in range(0, len(flat), n)])
    return LaminaryLanguage(gsm.graph, rows, symmetric=True,
                            origin="attracting-lamination")


def attracting_language(gsm: GraphSelfMap, n_max: int) -> LaminaryLanguage:
    """The laminary language of the map's attracting lamination, materialized
    to depth ``n_max``.

    Requires an expanding primitive train track map.  Non-orientable maps
    give the factor language of the induced substitution on all oriented
    edges (already inverse-closed); orientable maps give the factor language
    on the preferred side together with its inverse copy.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    orn, sub = _oriented_substitution(gsm)
    return _language_from_substitution(gsm, orn, sub, n_max)


def beta_metric(lang: LaminaryLanguage, n) -> int:
    """Number of members with metric length <= n.

    The language must be enumerated to combinatorial depth n / (shortest
    edge); otherwise an under-enumeration error is raised rather than a
    silent undercount.
    """
    bound = Fraction(n)
    if bound < 0:
        raise DomainError("metric bound must be nonnegative")
    required = lang.graph.depth(bound)
    if required > lang.complete_to:
        raise UnderEnumerationError(
            f"beta_metric({n}) needs depth {required}, enumerated {lang.complete_to}")
    return bisect_right(lang.metric_lengths(), lang.graph.weight_bound(bound))


# ---------------------------------------------------------------------------
# collapse transport
# ---------------------------------------------------------------------------

class TransportRow(NamedTuple):
    n: int
    p_base: int
    p_rose: int
    lift_ok: bool    # p_rose(n) <= p_base(stretch * n)
    fiber_ok: bool   # p_base(n) <= C0 * p_rose(n)


class TransportReport(NamedTuple):
    diameter: int
    lift_stretch: int
    multiplicity_bound: int
    rows: tuple[TransportRow, ...]
    all_ok: bool
    tight_stretch: Optional[int]
    tight_c0: Optional[int]
    witness: EquivalenceWitness

    def rose_counts(self):
        return [row.p_rose for row in self.rows]


def project_language(lang: LaminaryLanguage, cd: CollapseData) -> LaminaryLanguage:
    """Image of the language on the collapse rose: the images of length
    1..depth, depth = ``complete_to // lift_stretch``, certified subword-closed.

    Each stratum is checked to hold reduced edge paths, the only check of
    the members: :func:`~lamtool.graphs.project_path` trusts it.  ``str``
    methods check the rows joined: each character is a letter, each letter
    but a row's last ends where the next starts, and no letter is followed
    by its inverse (rows joined by ``chr(size)``, no letter).  Then only
    members that start and end outside the tree, with at most ``depth``
    letters outside it, are projected.  This is exact: an image has one
    letter per member letter outside the tree, and a member's image is that
    of the member trimmed of its leading and trailing tree letters, which is
    a member too: lamlang and attracting languages are subword-closed.  And
    each call gives a new rose word: between two letters outside the tree a
    reduced path follows the unique tree geodesic, so such a member is
    determined by its image.  Rows go to ``project_path`` as they are, and
    its images, code-point ``str`` too, become the rose rows unencoded.
    """
    base = cd.base
    letters = base.alphabet.letters()
    depth = lang.complete_to // cd.lift_stretch
    terminus = "".join(chr(base.terminus(c)) for c in letters)
    origin = "".join(chr(base.origin(c)) for c in letters)
    drop_letters = dict.fromkeys(letters)
    to_rose = cd.base_to_rose
    backtracks = [chr(c) + chr(c ^ 1) for c in letters]
    outside = {chr(c) for c in letters if to_rose[c] is not None}
    images = set()
    for n, stratum in enumerate(lang.rows[1:], start=1):
        flat = "".join(stratum)
        termini, origins = flat.translate(terminus), flat.translate(origin)
        if flat.translate(drop_letters) or any(
                termini[k::n] != origins[k + 1::n] for k in range(n - 1)):
            raise PreconditionError(
                "project_path expects an edge path in the base graph")
        joined = chr(base.alphabet.size).join(stratum)
        if any(pair in joined for pair in backtracks):
            raise PreconditionError("project_path expects a reduced path")
        images.update(project_path(cd, row) for row in stratum
                      if row[0] in outside and row[-1] in outside
                      and (n <= depth or len(row.translate(to_rose)) <= depth))
    if any(len(m) > 1 and (m[1:] not in images or m[:-1] not in images)
           for m in images):
        raise LamtoolError("projected language is not subword closed")
    strata = [[] for _ in range(depth + 1)]
    for image in images:
        strata[len(image)].append(image)
    return LaminaryLanguage(cd.rose, strata, lang.symmetric,
                            f"transported({lang.origin})")


def transport_compare(lang: LaminaryLanguage, cd: CollapseData, n_max: int,
                      c_max: int = 64) -> TransportReport:
    """Check both collapse inequalities for n <= n_max by full enumeration.

    The lift inequality uses the computed stretch constant (a rose word of
    length n lifts to at most ``lift_stretch * n`` base letters); the fiber
    inequality uses the multiplicity bound of erased tree prefixes and
    suffixes.  Also scans for a growth-equivalence constant between the two
    complexity tables.
    """
    stretch = cd.lift_stretch
    c0 = cd.multiplicity_bound
    if lang.complete_to < stretch * n_max:
        raise UnderEnumerationError(
            f"transport needs base depth {stretch * n_max}, "
            f"enumerated {lang.complete_to}")
    rose_lang = project_language(lang, cd)

    rows = []
    for n in range(1, n_max + 1):
        p_base = lang.p(n)
        p_rose = rose_lang.p(n)
        rows.append(TransportRow(
            n, p_base, p_rose,
            lift_ok=p_rose <= lang.p(stretch * n),
            fiber_ok=p_base <= c0 * p_rose))
    all_ok = all(r.lift_ok and r.fiber_ok for r in rows)

    tight_stretch = None
    for s in range(1, stretch + 1):
        if all(rose_lang.p(n) <= lang.p(s * n) for n in range(1, n_max + 1)):
            tight_stretch = s
            break
    tight_c0 = None
    if all(r.p_rose > 0 for r in rows):
        tight_c0 = max(-(-r.p_base // r.p_rose) for r in rows)

    witness = growth_equivalence_witness(
        [lang.p(n) for n in range(1, n_max + 1)],
        [rose_lang.p(n) for n in range(1, n_max + 1)],
        c_max)
    return TransportReport(cd.diameter, stretch, c0, tuple(rows), all_ok,
                           tight_stretch, tight_c0, witness)


# ---------------------------------------------------------------------------
# language sources (the CLI's drivers)
# ---------------------------------------------------------------------------

EXTENSION_DEPTH = 5000  # how far ``cover_bounds`` extends the search


class LanguageSource:
    """Every table the CLI prints: subclasses count ``p`` (``_count``) and,
    where they can, members (``materialize``) and non-uniform metric counts
    (``_metric_beta``); the rest is derived here."""

    description: str = ""
    graph: Optional[MarkedMetricGraph] = None
    complete_to: Optional[int] = None  # no table past it; None: unbounded
    substitutive: bool = False  # a primitive substitution's factor language
    _table: list[int] = []  # the deepest p table counted so far

    def p_counts(self, n_max: int) -> list[int]:
        """p(n) for n = 1..n_max, sliced from the deepest table counted so
        far when that table reaches n_max."""
        if self.complete_to is not None and n_max > self.complete_to:
            raise UnderEnumerationError(f"table to n={n_max} needs depth "
                                        f"{n_max}, enumerated {self.complete_to}")
        if n_max > len(self._table):
            self._table = self._count(n_max)
        return self._table[:n_max]

    def _count(self, n_max: int) -> list[int]:
        raise NotImplementedError

    def beta_counts(self, n_max: int) -> list[int]:
        return list(accumulate(self.p_counts(n_max)))

    def metric_beta(self, n_max: int) -> list[int]:
        """beta_{L,J}(n) for integer n = 1..n_max: beta(graph.depth(n)) when
        every edge has the same length (beta(n) without a graph)."""
        if self.graph is None:
            return self.beta_counts(n_max)
        depth, known = self.graph.depth, self.complete_to
        if known is not None and depth(n_max) > known:  # name the first n past it
            n = next(n for n in range(1, n_max + 1) if depth(n) > known)
            raise UnderEnumerationError(f"beta_metric({n}) needs depth "
                                        f"{depth(n)}, enumerated {known}")
        if len(set(self.graph.lengths)) > 1:
            return self._metric_beta(n_max)
        betas = [0] + self.beta_counts(depth(n_max))
        return [betas[depth(n)] for n in range(1, n_max + 1)]

    def _metric_beta(self, n_max: int) -> list[int]:
        """Metric counts over the members of the materialized language."""
        lang = self.materialize(max(self.graph.depth(n_max), 1))
        return [beta_metric(lang, n) for n in range(1, n_max + 1)]

    def materialize(self, depth: int) -> LaminaryLanguage:
        """The language with its members, enumerated to ``depth``."""
        raise PreconditionError("collapse needs a map or lamlang section")

    def transport(self, cd: CollapseData, n_max: int, c_max=64) -> TransportReport:
        """The collapse comparison onto the rose of ``cd`` for n <= n_max."""
        lang = self.materialize(cd.lift_stretch * n_max)
        return transport_compare(lang, cd, n_max, c_max)

    def rose_counts(self, n_max: int) -> list[int]:
        """p(n) for n = 1..n_max of the language carried to the rose of a
        maximal subtree (the language itself on a rose or without a graph)."""
        if self.graph is None or self.graph.is_rose():
            return self.p_counts(n_max)
        return self.transport(maximal_subtree(self.graph), n_max).rose_counts()

    def max_edge_length(self) -> Fraction:
        return Fraction(1) if self.graph is None else self.graph.max_length()

    def cover_bounds(self, table: list[int], a, deltas):
        """The covering-bound series of each delta: on ``table``, the metric
        counts to n = len(table); on a table to ``EXTENSION_DEPTH`` past the
        window, for an unbounded language whose window series does not vanish
        (None elsewhere); and the note, or None, when the size cap refused it."""
        c0 = self.max_edge_length()
        window = [cover_bound_series(table, a, d, c0) for d in deltas]
        none = [None] * len(deltas)
        if (self.complete_to is not None or len(table) >= EXTENSION_DEPTH
                or all(s.vanishing for s in window)):
            return window, none, None
        try:
            big = self.metric_beta(EXTENSION_DEPTH)
        except SizeCapExceeded as exc:
            return window, none, (f"search not extended to n={EXTENSION_DEPTH}: "
                                  f"size cap exceeded: {exc}")
        return window, [None if s.vanishing else cover_bound_series(big, a, d, c0)
                        for d, s in zip(deltas, window)], None


class LamlangSource(LanguageSource):
    """A listed ``lamlang`` language: the factors of its paths, code-point
    ``str``, and of each path inverted when it is symmetric.  It is complete
    to the longest path and refuses every table past it.  One automaton
    over the words counts ``p``; members are harvested only when asked for."""

    def __init__(self, graph: MarkedMetricGraph, paths: list[str],
                 symmetric: bool, name: str):
        self.graph, self.symmetric = graph, symmetric
        self.description = f"user-supplied({name})"
        xor1 = "".join(chr(c ^ 1) for c in graph.alphabet.letters())
        # a path inverted is the path reversed, with every code ^ 1
        self.words = paths + [w[::-1].translate(xor1) for w in paths if symmetric]
        self.complete_to = max(map(len, paths))

    def _count(self, n_max):
        check_size(sum(map(len, self.words)), "lamlang paths")
        size = self.graph.alphabet.size
        return substring_counts(chr(size).join(self.words), size, n_max)[1:]

    def materialize(self, depth) -> LaminaryLanguage:
        check_size(sum(map(len, self.words)), "lamlang paths")
        strata = [set() for _ in range(min(depth, self.complete_to) + 1)]
        for word in self.words:
            harvest(strata, word)
        return LaminaryLanguage(self.graph, map(list, strata), self.symmetric,
                                self.description)


class SubstitutionSource(LanguageSource):
    """Factor language of a primitive substitution (letters have length 1)."""
    description = "substitution language"
    substitutive = True
    _multiplier = 1  # words of the language per factor of the substitution

    def __init__(self, sub: Substitution):
        self.sub = sub

    def _count(self, n_max):
        return [self._multiplier * v
                for v in complexity_counts(self.sub, n_max)[1:]]


class AttractingSource(SubstitutionSource):
    """Attracting language of an expanding primitive train track map."""
    description = "attracting language"
    materialize_limit = 600  # deepest strata that non-uniform metric counts enumerate

    def __init__(self, gsm: GraphSelfMap):
        self.gsm, self.graph = gsm, gsm.graph
        self.orientation, self.sub = _oriented_substitution(gsm)
        self._multiplier = 2 if self.orientation.orientable else 1

    def materialize(self, n_max) -> LaminaryLanguage:
        return _language_from_substitution(self.gsm, self.orientation,
                                           self.sub, n_max)

    def _metric_beta(self, n_max):
        depth = self.graph.depth(n_max)
        if depth > self.materialize_limit:
            raise UnderEnumerationError(
                f"metric counts to n={n_max} need enumeration depth {depth}, "
                f"beyond the materialization limit {self.materialize_limit}")
        return super()._metric_beta(n_max)


class FullShiftSource(LanguageSource):
    """All reduced edge paths of a graph; the exponential contrast case."""
    description = "full reduced-word language"

    def __init__(self, graph: MarkedMetricGraph):
        self.graph = graph

    def _count(self, n_max):
        return self._walks([1] * self.graph.alphabet.size, n_max)

    def _metric_beta(self, n_max):
        weight_bound = self.graph.weight_bound
        weights = [self.graph.weight((d,)) for d in self.graph.alphabet.letters()]
        totals = list(accumulate(self._walks(weights, weight_bound(n_max))))
        return [totals[weight_bound(n) - 1] for n in range(1, n_max + 1)]

    def materialize(self, depth):
        raise PreconditionError("collapse compares enumerated languages; "
                                "closure=fullshift has no finite strata")

    def _walks(self, weights: list[int], top: int) -> list[int]:
        """How many reduced paths weigh w = 1..top, a path weighing the sum
        of its letters' ``weights``.  Those of weight w ending in d extend
        those of weight w - weights[d] by a reduced step, so a ring of
        ``max(weights) + 1`` rows of per-letter counts suffices (``top + 1``
        when a letter weighs more than ``top`` and so is in no path)."""
        letters = self.graph.alphabet.letters()
        # a path of weight w has at most w / min(weights) letters, and there
        # are at most 2m (2m - 1)^(letters - 1) such paths: bound the int32
        # words of the top totals kept, at least one each, up front, in
        # Fractions, which no length unit overflows
        shortest = min(weights)
        bits = Fraction(log2(len(letters) - 1))
        need = top + bits / 32 * top * (top + 1) / (2 * shortest)
        check_size(need, f"full-shift counts to depth {top // shortest}")
        steps = [(weights[d], [p for p in letters
                               if self.graph.is_reduced_path((p, d))])
                 for d in letters]
        span = min(max(weights), top) + 1
        ring = [[0] * len(letters) for _ in range(span)]
        totals = []
        for w in range(1, top + 1):
            row = [sum([ring[(w - weight) % span][p] for p in before])
                   if weight < w else int(weight == w)
                   for weight, before in steps]
            ring[w % span] = row
            totals.append(sum(row))
        return totals
