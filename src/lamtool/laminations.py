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
from math import floor
from typing import Optional

import numpy as np

from .errors import (DomainError, LamtoolError, PreconditionError,
                     UnderEnumerationError)
from .graphs import CollapseData, MarkedMetricGraph, project_path
from .graphmaps import (GraphSelfMap, analyze_matrix, is_train_track,
                        orientability, transition_matrix)
from .substitutions import (EquivalenceWitness, Substitution, complexity_counts,
                            factor_language, from_train_track,
                            growth_equivalence_witness)
from .words import Stratified, inverse_codes, is_reduced

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

    def __init__(self, graph: MarkedMetricGraph, strata, symmetric: bool, origin: str):
        self.graph = graph
        self.strata = tuple(frozenset(s) for s in strata)
        self.symmetric = symmetric
        self.origin = origin
        self._metric_lengths = None

    def metric_lengths(self) -> list[int]:
        """The members' metric lengths, sorted, as integers in units of
        ``1 / graph.length_unit`` (the lcm of the edge length denominators),
        so that sums and comparisons are exact without a Fraction per member."""
        if self._metric_lengths is None:
            self._metric_lengths = sorted(map(self.graph.weight, self.all_members()))
        return self._metric_lengths

    def check_invariants(self) -> list[str]:
        """Subword closure, reducedness, nonemptiness, declared symmetry."""
        problems = []
        member_of = set(self.all_members())
        for m in member_of:
            if len(m) == 0:
                problems.append("empty member")
            if not is_reduced(m):
                problems.append(f"member {m} is not reduced")
            if not self.graph.is_edge_path(m):
                problems.append(f"member {m} is not an edge path")
            if len(m) > 1:
                if m[1:] not in member_of or m[:-1] not in member_of:
                    problems.append(f"member {m} misses a subword")
            if self.symmetric and inverse_codes(m) not in member_of:
                problems.append(f"member {m} misses its inverse")
        return problems

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
                                n_max: int, cap=None) -> LaminaryLanguage:
    """Relabel the factor language onto edge codes and close it under
    inversion, one stratum at a time as a block of rows."""
    alphabet = gsm.graph.alphabet
    code_of = np.asarray([alphabet.index(tok) for tok in sub.letters], dtype=np.int32)
    flang = factor_language(sub, n_max, cap)
    strata = [frozenset()]
    for n in range(1, n_max + 1):
        rows = code_of[np.asarray(list(flang.strata[n]), dtype=np.int32).reshape(-1, n)]
        forward = set(map(tuple, rows.tolist()))
        inverse = set(map(tuple, (rows[:, ::-1] ^ 1).tolist()))
        if orn.orientable:
            if not forward.isdisjoint(inverse):
                raise LamtoolError("positive and inverse parts must be disjoint")
            forward |= inverse
        if not inverse <= forward:
            raise LamtoolError("attracting language failed inverse closure")
        strata.append(forward)
    return LaminaryLanguage(gsm.graph, strata, symmetric=True,
                            origin="attracting-lamination")


def attracting_language(gsm: GraphSelfMap, n_max: int, cap=None) -> LaminaryLanguage:
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
    return _language_from_substitution(gsm, orn, sub, n_max, cap)


def beta_metric(lang: LaminaryLanguage, n) -> int:
    """Number of members with metric length <= n.

    The language must be enumerated to combinatorial depth n / (shortest
    edge); otherwise an under-enumeration error is raised rather than a
    silent undercount.
    """
    bound = Fraction(n)
    if bound < 0:
        raise DomainError("metric bound must be nonnegative")
    required = floor(bound / lang.graph.min_length())
    if required > lang.complete_to:
        raise UnderEnumerationError(
            f"beta_metric({n}) needs depth {required}, enumerated {lang.complete_to}",
            achieved=lang.complete_to, required=required)
    return bisect_right(lang.metric_lengths(), floor(bound * lang.graph.length_unit))


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
    rose_language: LaminaryLanguage

    def base_counts(self):
        return [row.p_base for row in self.rows]

    def rose_counts(self):
        return [row.p_rose for row in self.rows]


def project_language(lang: LaminaryLanguage, cd: CollapseData) -> LaminaryLanguage:
    """Image of the language on the collapse rose; empty projections are
    dropped, and the result is certified subword-closed."""
    depth = lang.complete_to // cd.lift_stretch
    strata = [set() for _ in range(depth + 1)]
    for m in lang.all_members():
        image = project_path(cd, m)
        if 0 < len(image) <= depth:
            strata[len(image)].add(image)
    projected = LaminaryLanguage(cd.rose, strata, symmetric=lang.symmetric,
                                 origin=f"transported({lang.origin})")
    for m in projected.all_members():
        if len(m) > 1 and (m[1:] not in projected.strata[len(m) - 1]
                           or m[:-1] not in projected.strata[len(m) - 1]):
            raise LamtoolError("projected language is not subword closed")
    return projected


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
                           tight_stretch, tight_c0, witness, rose_lang)


def fiber_counts(lang: LaminaryLanguage, cd: CollapseData):
    """How many enumerated members project onto each nonempty rose word."""
    counts: dict[tuple, int] = {}
    for m in lang.all_members():
        image = project_path(cd, m)
        if image:
            counts[image] = counts.get(image, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# language sources (the CLI's drivers)
# ---------------------------------------------------------------------------

class LanguageSource:
    """Common surface over the ways a complexity table can be produced."""

    description: str = ""
    graph: Optional[MarkedMetricGraph] = None
    extendable: bool = False
    symmetric: bool = False
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
        counts = self.p_counts(n_max)
        out = []
        total = 0
        for p in counts:
            total += p
            out.append(total)
        return out

    def metric_beta(self, n_max: int) -> list[int]:
        """beta_{L,J}(n) for integer n = 1..n_max."""
        raise NotImplementedError

    def max_edge_length(self) -> Fraction:
        if self.graph is None:
            return Fraction(1)
        return self.graph.max_length()

    def _uniform_length(self) -> Optional[Fraction]:
        if self.graph is None:
            return Fraction(1)
        lengths = set(self.graph.lengths)
        return lengths.pop() if len(lengths) == 1 else None


def _scaled_metric_beta(source: LanguageSource, n_max: int) -> list[int]:
    """Metric counts when every edge has one common length."""
    ell = source._uniform_length()
    assert ell is not None
    depth = floor(Fraction(n_max) / ell)
    betas = source.beta_counts(depth) if depth >= 1 else []
    out = []
    for n in range(1, n_max + 1):
        k = floor(Fraction(n) / ell)
        out.append(betas[k - 1] if k >= 1 else 0)
    return out


class MaterializedSource(LanguageSource):
    """A fully enumerated language (user file or attracting language)."""

    def __init__(self, lang: LaminaryLanguage, description=""):
        self.lang = lang
        self.graph = lang.graph
        self.symmetric = lang.symmetric
        self.description = description or lang.origin
        self.extendable = False

    def _count(self, n_max):
        if n_max > self.lang.complete_to:
            raise UnderEnumerationError(
                f"table to n={n_max} needs depth {n_max}, "
                f"enumerated {self.lang.complete_to}",
                achieved=self.lang.complete_to, required=n_max)
        return [self.lang.p(n) for n in range(1, n_max + 1)]

    def metric_beta(self, n_max):
        return [beta_metric(self.lang, n) for n in range(1, n_max + 1)]


class SubstitutionSource(LanguageSource):
    """Factor language of a primitive substitution (letters have length 1)."""

    def __init__(self, sub: Substitution, description=""):
        self.sub = sub
        self.graph = None
        self.description = description or "substitution language"
        self.extendable = True

    def _count(self, n_max):
        return [int(v) for v in complexity_counts(self.sub, n_max)[1:]]

    def metric_beta(self, n_max):
        return self.beta_counts(n_max)


class AttractingSource(LanguageSource):
    """Attracting language of an expanding primitive train track map."""

    def __init__(self, gsm: GraphSelfMap, description=""):
        self.gsm = gsm
        self.graph = gsm.graph
        self.symmetric = True
        self.extendable = True
        self.description = description or "attracting language"
        self.orientation, self.sub = _oriented_substitution(gsm)
        self._multiplier = 2 if self.orientation.orientable else 1
        self._materialize_limit = 600

    def _count(self, n_max):
        return [self._multiplier * int(v)
                for v in complexity_counts(self.sub, n_max)[1:]]

    def materialize(self, n_max) -> LaminaryLanguage:
        return _language_from_substitution(self.gsm, self.orientation,
                                           self.sub, n_max)

    def metric_beta(self, n_max):
        if self._uniform_length() is not None:
            return _scaled_metric_beta(self, n_max)
        depth = floor(Fraction(n_max) / self.graph.min_length())
        if depth > self._materialize_limit:
            raise UnderEnumerationError(
                f"metric counts to n={n_max} need enumeration depth {depth}, "
                f"beyond the materialization limit {self._materialize_limit}",
                achieved=self._materialize_limit, required=depth)
        lang = self.materialize(max(depth, 1))
        return [beta_metric(lang, n) for n in range(1, n_max + 1)]


class FullShiftSource(LanguageSource):
    """All reduced edge paths of a graph; the exponential contrast case."""

    def __init__(self, graph: MarkedMetricGraph, description=""):
        self.graph = graph
        self.symmetric = True
        self.extendable = True
        self.description = description or "full reduced-word language"

    def _count(self, n_max):
        letters = list(self.graph.alphabet.letters())
        compatible = {
            d: [e for e in letters
                if self.graph.terminus(d) == self.graph.origin(e) and e != d ^ 1]
            for d in letters}
        vec = {d: 1 for d in letters}
        counts = []
        for _ in range(n_max):
            counts.append(sum(vec.values()))
            vec = {d: sum(vec[prev] for prev in letters if d in compatible[prev])
                   for d in letters}
        return counts

    def metric_beta(self, n_max):
        if self._uniform_length() is not None:
            return _scaled_metric_beta(self, n_max)
        letters = list(self.graph.alphabet.letters())
        den = self.graph.length_unit
        weight = {d: self.graph.weight((d,)) for d in letters}
        top = n_max * den
        # exact path counts by scaled metric weight, ending letter by letter
        table = [dict.fromkeys(letters, 0) for _ in range(top + 1)]
        for d in letters:
            if weight[d] <= top:
                table[weight[d]][d] += 1
        for w in range(1, top + 1):
            for d in letters:
                wd = weight[d]
                if wd < w:
                    prev = table[w - wd]
                    total = 0
                    for p in letters:
                        if self.graph.terminus(p) == self.graph.origin(d) and d != p ^ 1:
                            total += prev[p]
                    table[w][d] += total
        running = 0
        out = []
        cumulative = []
        for w in range(top + 1):
            running += sum(table[w].values())
            cumulative.append(running)
        for n in range(1, n_max + 1):
            out.append(cumulative[n * den])
        return out
