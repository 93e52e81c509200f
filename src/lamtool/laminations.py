"""Laminary languages on marked graphs.

A laminary language is stored as length strata of reduced, nonempty edge
words.  Materialized languages carry their members; the attracting language
of a train track map additionally has a counting route (through its induced
substitution) that scales to the depths the covering bounds need.

``transport_compare`` realizes the collapse comparison: project the language
onto the rose of a maximal subtree, then check both complexity inequalities
with the computed constants.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import log2
from typing import Optional

from .config import check_size
from .errors import (DomainError, LamtoolError, PreconditionError,
                     UnderEnumerationError)
from .graphs import (CollapseData, MarkedMetricGraph, maximal_subtree,
                     project_path)
from .graphmaps import (GraphSelfMap, analyze_matrix, is_train_track,
                        orientability, transition_matrix)
from .substitutions import (EquivalenceWitness, Substitution, complexity_counts,
                            factor_language, from_train_track,
                            growth_equivalence_witness)
from .words import Stratified, sorted_blocks

__all__ = [
    "LaminaryLanguage",
    "attracting_language",
    "beta_metric",
    "transport_compare",
    "TransportReport",
    "LanguageSource",
    "MaterializedSource",
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
        Each block's rows are weighed as lists of Python ints, so the tuple
        strata are never decoded and no sum can overflow."""
        if self._metric_lengths is None:
            weight = self.graph.weight
            self._metric_lengths = sorted(weight(row) for block in self.rows[1:]
                                          for row in block.tolist())
        return self._metric_lengths

    def __repr__(self):
        return (f"LaminaryLanguage({self.origin}, depth={self.complete_to}, "
                f"symmetric={self.symmetric})")


def _certify(gsm: GraphSelfMap):
    tt = is_train_track(gsm)
    analysis = analyze_matrix(transition_matrix(gsm))
    failures = []
    if not tt.is_train_track:
        failures.append("map is not a train track map: " + tt.reason)
    if not analysis.primitive:
        failures.append("transition matrix is not primitive")
    if not analysis.expanding:
        failures.append("map is not expanding")
    if failures:
        raise PreconditionError("; ".join(failures))
    return tt, analysis


def _oriented_substitution(gsm: GraphSelfMap):
    tt, analysis = _certify(gsm)
    orn = orientability(gsm, analysis, tt)
    sub = from_train_track(gsm, orn)
    return orn, sub


def _language_from_substitution(gsm: GraphSelfMap, orn, sub: Substitution,
                                n_max: int) -> LaminaryLanguage:
    """Relabel the factor language onto edge codes and close it under
    inversion, block by block.  An orientable map's substitution runs over
    the letters of the preferred side only, so each block's inverse rows,
    over the other side's letters, are disjoint from it: the block gains
    them.
    A non-orientable map's substitution runs over every letter and maps
    inverse letters to inverse images, so it commutes with inversion and
    each block already holds its inverse rows."""
    import numpy as np

    alphabet = gsm.graph.alphabet
    code_of = np.asarray([alphabet.index(tok) for tok in sub.letters], dtype=np.int32)
    flang = factor_language(sub, n_max)
    rows = [flang.rows[0]]
    for block in flang.rows[1:]:
        forward = code_of[block]
        if orn.orientable:
            forward = np.concatenate([forward, forward[:, ::-1] ^ 1])
        rows.append(forward)
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
            f"beta_metric({n}) needs depth {required}, enumerated {lang.complete_to}",
            achieved=lang.complete_to, required=required)
    return bisect_right(lang.metric_lengths(), lang.graph.weight_bound(bound))


# ---------------------------------------------------------------------------
# collapse transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportRow:
    n: int
    p_base: int
    p_rose: int
    lift_ok: bool    # p_rose(n) <= p_base(stretch * n)
    fiber_ok: bool   # p_base(n) <= C0 * p_rose(n)


@dataclass(frozen=True)
class TransportReport:
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

    Each stratum is checked to hold reduced edge paths in one block test,
    the only check of the members: :func:`~lamtool.graphs.project_path`
    trusts it.  Then only members that start and end outside the tree, with
    at most ``depth`` letters outside it, are projected.  This is exact: an
    image has one letter per member letter outside the tree, and a member's
    image is that of the member trimmed of its leading and trailing tree
    letters, which is a member too: lamlang and attracting languages are
    subword-closed.  And each call gives a new rose word: between two
    letters outside the tree a reduced path follows the unique tree
    geodesic, so such a member is determined by its image.
    """
    import numpy as np

    base = cd.base
    size = base.alphabet.size
    depth = lang.complete_to // cd.lift_stretch
    kind = np.zeros((size, size), dtype=np.int8)  # 0: no step, 1: backtrack, 2: reduced
    for step in base._steps:
        kind[step] = 2 if step in base._reduced_steps else 1
    outside = np.zeros(size, dtype=bool)
    outside[list(cd.base_to_rose)] = True
    images = set()
    for block in lang.rows[1:]:
        in_alphabet = block.min(initial=0) >= 0 and block.max(initial=0) < size
        worst = kind[block[:, :-1], block[:, 1:]].min(initial=2) if in_alphabet else 0
        if worst == 0:
            raise PreconditionError(
                "project_path expects an edge path in the base graph")
        if worst == 1:
            raise PreconditionError("project_path expects a reduced path")
        letters = outside[block]
        ends = letters[:, 0] & letters[:, -1] & (letters.sum(axis=1) <= depth)
        images.update(project_path(cd, row) for row in block[ends].tolist())
    if any(len(m) > 1 and (m[1:] not in images or m[:-1] not in images)
           for m in images):
        raise LamtoolError("projected language is not subword closed")
    return LaminaryLanguage(cd.rose, sorted_blocks(images, depth), lang.symmetric,
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
            f"enumerated {lang.complete_to}",
            achieved=lang.complete_to, required=stretch * n_max)
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

class LanguageSource:
    """Every table the CLI prints: subclasses count ``p`` (``_count``) and,
    where they can, members (``materialize``) and non-uniform metric counts
    (``_metric_beta``); the rest is derived here."""

    description: str = ""
    graph: Optional[MarkedMetricGraph] = None
    extendable: bool = True    # tables can be counted past any depth
    substitutive: bool = False  # a primitive substitution's factor language
    _table: list[int] = []  # the deepest p table counted so far

    def p_counts(self, n_max: int) -> list[int]:
        """p(n) for n = 1..n_max, sliced from the deepest table counted so
        far when that table reaches n_max."""
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
        if len(set(self.graph.lengths)) > 1:
            return self._metric_beta(n_max)
        depth = self.graph.depth
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


class MaterializedSource(LanguageSource):
    """A fully enumerated language (user file or attracting language)."""
    extendable = False

    def __init__(self, lang: LaminaryLanguage):
        self.lang = lang
        self.graph = lang.graph
        self.description = lang.origin

    def _count(self, n_max):
        if n_max > self.lang.complete_to:
            raise UnderEnumerationError(
                f"table to n={n_max} needs depth {n_max}, "
                f"enumerated {self.lang.complete_to}",
                achieved=self.lang.complete_to, required=n_max)
        return [self.lang.p(n) for n in range(1, n_max + 1)]

    # members at hand: count them, naming the first bound past the depth
    metric_beta = LanguageSource._metric_beta

    def materialize(self, depth):
        return self.lang


class SubstitutionSource(LanguageSource):
    """Factor language of a primitive substitution (letters have length 1)."""
    description = "substitution language"
    substitutive = True

    def __init__(self, sub: Substitution):
        self.sub = sub

    def _count(self, n_max):
        return complexity_counts(self.sub, n_max)[1:]


class AttractingSource(LanguageSource):
    """Attracting language of an expanding primitive train track map."""
    description = "attracting language"
    substitutive = True

    def __init__(self, gsm: GraphSelfMap):
        self.gsm = gsm
        self.graph = gsm.graph
        self.orientation, self.sub = _oriented_substitution(gsm)
        self._multiplier = 2 if self.orientation.orientable else 1
        self._materialize_limit = 600

    def _count(self, n_max):
        return [self._multiplier * v
                for v in complexity_counts(self.sub, n_max)[1:]]

    def materialize(self, n_max) -> LaminaryLanguage:
        return _language_from_substitution(self.gsm, self.orientation,
                                           self.sub, n_max)

    def _metric_beta(self, n_max):
        depth = self.graph.depth(n_max)
        if depth > self._materialize_limit:
            raise UnderEnumerationError(
                f"metric counts to n={n_max} need enumeration depth {depth}, "
                f"beyond the materialization limit {self._materialize_limit}",
                achieved=self._materialize_limit, required=depth)
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
