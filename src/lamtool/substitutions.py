"""Primitive substitutions, eigenrays, factor languages and complexity.

Two enumeration routes are provided and cross-checked in the tests:

* :func:`factor_language` materializes the length strata up to ``n_max`` by
  iterating the substitution on every letter until a round adds nothing;
* :func:`complexity_counts` only counts: the length-2-factor certificate
  (:func:`counting_certificate`) names an eigenray prefix theta^k(Q) that
  holds every factor of length <= ``n_max``, and the distinct-substring
  kernel runs once, over the slices of that prefix that can hold a factor:
  the block theta^k(x) of the first occurrence of each letter x in Q, and
  ``n_max - 1`` letters on each side of the block boundary at the first
  occurrence of each pair of letters in Q.  :func:`eigenray_prefix` expands
  only those slices, so the work and the memory follow the slices, not the
  prefix.

The second route makes covering-bound tables to n = 5000 cheap, on the
standard library alone; only :func:`factor_language` loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, NamedTuple, Optional, Sequence

from .config import check_size
from .errors import (DomainError, InsufficientDataError, MalformedInputError,
                     NotAnEigenletterError, PreconditionError)
from .graphmaps import GraphSelfMap, OrientationResult, analyze_matrix
from .kernels import (Word, expand_capped, expand_codes, image_tables,
                      substring_counts)
from .words import Stratified

__all__ = [
    "Substitution",
    "from_train_track",
    "eigen_exponent",
    "eigenray_prefix",
    "factor_language",
    "length2_factors",
    "counting_certificate",
    "CountingCertificate",
    "complexity_counts",
    "growth_equivalence_witness",
    "linear_fit_constant",
    "EquivalenceWitness",
]


class Substitution:
    """A letter-to-nonempty-word map over a plain finite alphabet."""

    __slots__ = ("letters", "images", "_index", "_tables", "_analysis")

    def __init__(self, letters: Sequence[str], images: Sequence[Sequence[int]]):
        self.letters = tuple(letters)
        self.images = tuple(tuple(img) for img in images)
        if len(self.letters) != len(self.images):
            raise MalformedInputError("one image per letter required")
        if not self.letters:
            raise MalformedInputError("alphabet must be nonempty")
        for letter, img in zip(self.letters, self.images):
            if not img:
                raise MalformedInputError(f"image of {letter!r} is empty")
            if any(not 0 <= c < len(self.letters) for c in img):
                raise MalformedInputError(f"image of {letter!r} uses unknown letters")
        self._index = {s: i for i, s in enumerate(self.letters)}
        self._tables = None
        self._analysis = None

    @classmethod
    def from_tokens(cls, rules: Mapping[str, Sequence[str]]) -> "Substitution":
        """Build from ``letter -> token sequence`` rules; alphabet inferred."""
        letters = sorted(rules)
        index = {s: i for i, s in enumerate(letters)}
        images = []
        for letter in letters:
            try:
                images.append(tuple(index[t] for t in rules[letter]))
            except KeyError as exc:
                raise MalformedInputError(
                    f"image of {letter!r} uses letter {exc.args[0]!r} with no rule")
        return cls(letters, images)

    @property
    def sigma(self) -> int:
        return len(self.letters)

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise MalformedInputError(f"unknown letter {token!r}")

    def tables(self):
        if self._tables is None:
            self._tables = image_tables(self.images)
        return self._tables

    def apply(self, codes) -> Word:
        """One substitution round on a word of letter codes."""
        return expand_capped(codes, self.tables(), "substituted word")

    def occurrence_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Entry (i, j) counts letter i in the image of letter j."""
        return tuple(tuple(img.count(i) for img in self.images)
                     for i in range(self.sigma))

    def analysis(self):
        if self._analysis is None:
            self._analysis = analyze_matrix(self.occurrence_matrix())
        return self._analysis

    def is_primitive(self) -> bool:
        return self.analysis().primitive

    def __repr__(self):
        rules = ", ".join(f"{letter} -> {''.join(self.letters[c] for c in img)}"
                          for letter, img in zip(self.letters, self.images))
        return f"Substitution({rules})"


def from_train_track(gsm: GraphSelfMap, orientation: OrientationResult) -> Substitution:
    """The substitution carried by an expanding primitive train track map.

    Non-orientable maps extend to a substitution over all oriented edges
    (inverse letters map to inverse words); orientable maps restrict to the
    preferred positive edges.  Either way the result is primitive whenever
    the map is.
    """
    alphabet = gsm.graph.alphabet
    if orientation.orientable:
        # orientability has asserted that every image stays on this side
        codes = sorted(orientation.positive_letters)
        letters = [alphabet.token(c) for c in codes]
        position = {c: i for i, c in enumerate(codes)}
        images = [tuple(position[y] for y in gsm.image(c)) for c in codes]
        sub = Substitution(letters, images)
    else:
        codes = list(alphabet.letters())
        letters = [alphabet.token(c) for c in codes]
        images = [tuple(gsm.image(c)) for c in codes]  # codes double as indices
        sub = Substitution(letters, images)
    if not sub.is_primitive():
        raise PreconditionError(
            "the induced substitution is not primitive; the map must be "
            "primitive, expanding and train track")
    return sub


# ---------------------------------------------------------------------------
# eigenrays
# ---------------------------------------------------------------------------

def eigen_exponent(sub: Substitution, seed: int) -> int:
    """Least k >= 1 with the first letter of theta^k(seed) equal to seed and
    the image growing; raises when the first-letter orbit never returns."""
    first = [img[0] for img in sub.images]
    k = 1
    current = first[seed]
    while current != seed and k <= sub.sigma:
        current = first[current]
        k += 1
    if current != seed:
        raise NotAnEigenletterError(
            f"letter {sub.letters[seed]!r} never returns to first position")
    word = (seed,)
    for _ in range(k):
        word = tuple(c for letter in word for c in sub.images[letter])
    if len(word) < 2:
        raise NotAnEigenletterError(
            f"letter {sub.letters[seed]!r} is periodic and never grows")
    return k


def _checked_windows(windows, target_len) -> list:
    """``windows`` as a list of pairs, by default the whole prefix; raises
    unless they are nonempty (start, stop) pairs, sorted and disjoint,
    inside [0, target_len]."""
    if windows is None:
        windows = ((0, target_len),)
    windows = [tuple(window) for window in windows]
    if not windows:
        raise DomainError("windows must hold at least one (start, stop) pair")
    last = 0
    for window in windows:
        if len(window) != 2 or not last <= window[0] < window[1] <= target_len:
            raise DomainError(
                f"windows must be sorted, disjoint, nonempty (start, stop) "
                f"pairs in [0, {target_len}]; got {window} after {last}")
        last = window[1]
    return windows


def eigenray_prefix(sub: Substitution, seed, target_len: int,
                    windows=None) -> Word:
    """The windows of the prefix of length target_len of the eigenray of
    ``seed``, concatenated; the default single window (0, target_len) is the
    whole prefix.

    ``windows`` are sorted, disjoint (start, stop) pairs.  With R the least
    multiple of the eigen exponent with |theta^R(seed)| >= target_len, the
    prefix is a prefix of theta^R(seed), and a letter c of theta^(R-j)(seed)
    stands for a block of |theta^j(c)| letters of it.  The rounds work down
    from the seed and keep, for each window, the run of letters whose blocks
    meet it; only those runs are expanded, so the work and the memory follow
    the windows, not the prefix.  A letter whose block meets two windows is
    kept in both runs; at the last round the blocks are single letters and
    the runs are the windows.  A target beyond the cap is refused before
    anything is expanded.
    """
    if isinstance(seed, str):
        seed = sub.index(seed)
    if target_len < 1:
        raise DomainError("target length must be >= 1")
    windows = _checked_windows(windows, target_len)
    k = eigen_exponent(sub, seed)
    check_size(target_len, "eigenray prefix")
    offsets, data = sub.tables()
    # sizes[j][c] = |theta^j(c)|, for j = 0..R
    lengths = [1] * sub.sigma
    sizes = [lengths]
    while (len(sizes) - 1) % k or lengths[seed] < target_len:
        lengths = [sum(lengths[x] for x in img) for img in sub.images]
        sizes.append(lengths)
    # one run per window, end to end in ``word``: run i is the slice
    # cuts[i]:cuts[i + 1], and its blocks cover the prefix letters spans[i]
    word = Word([seed] * len(windows))
    cuts = list(range(len(windows) + 1))
    spans = [(0, sizes[-1][seed])] * len(windows)
    for j in reversed(range(len(sizes))):
        block = sizes[j]
        runs = []
        for i, (start, stop) in enumerate(windows):
            (first, last), a, b = spans[i], cuts[i], cuts[i + 1]
            # drop the letters whose blocks miss the window, from each end
            while first + block[word[a]] <= start:
                first += block[word[a]]
                a += 1
            while last - block[word[b - 1]] >= stop:
                last -= block[word[b - 1]]
                b -= 1
            runs.append(word[a:b])
            spans[i] = first, last
        word = Word(b"".join(run.tobytes() for run in runs))
        if not j:
            return word
        # the runs' letters after expanding (at the last, one per span letter)
        cuts = [0, *accumulate(last - first if j == 1 else
                               sum(map(sizes[1].__getitem__, run))
                               for run, (first, last) in zip(runs, spans))]
        word = expand_codes(word, offsets, data)


# ---------------------------------------------------------------------------
# factor languages (materialized strata)
# ---------------------------------------------------------------------------

def factor_language(sub: Substitution, n_max: int) -> Stratified:
    """All factors of length <= n_max of the substitution language.

    Iterates the substitution on every letter, harvesting the factors of
    length <= n_max of each iterate, and stops at the first round that adds
    none.  No later round could add one: suppose round j + 1 adds nothing,
    and take a factor u of theta^(j+2)(c) with |u| <= n_max.  Every image is
    nonempty, so u lies in theta(v) for some factor v of theta^(j+1)(c) with
    |v| <= |u|.  So v was already harvested from some theta^i(c') with
    i <= j, and u is a factor of theta^(i+1)(c'), which was harvested too.
    Primitivity is required: it makes these iterates carry the language of
    every eigenray.

    A word is harvested by its windows, the factor of length
    min(n_max, letters left) at each position.  A factor of length <= n_max
    is a prefix of the window at its start: in a word of length >= n_max it
    is a prefix of a length-n_max window or lies in the last window.  So the
    strata hold, at every point, exactly the factors of the words harvested
    so far, a factor-closed set; a window already there brings nothing new,
    and a word adds a factor exactly when it adds a window.  A long word
    costs one set comprehension over its length-n_max windows and a lookup
    of each shorter one, and only the prefixes of new windows are added.
    The rounds that add a factor are the rounds that add a window, so the
    stop rule, and with it every iterate, is the one above.

    A factor of length n_max needs an iterate of at least n_max letters,
    which the size cap refuses, so ``n_max`` over the cap is refused before
    any stratum is allocated.  The cap bounds the iterates, not the strata.

    A factor is harvested as the bytes of its codes, a slice of its
    :class:`~lamtool.kernels.Word`'s buffer, and each stratum is read back
    as one block of rows.  This route shares no code with
    :func:`complexity_counts`, which is tested against it.
    """
    import numpy as np

    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if not sub.is_primitive():
        raise DomainError("factor enumeration requires a primitive substitution")
    check_size(n_max, "factor strata")
    width = Word().itemsize
    top = n_max * width
    strata = [set() for _ in range(n_max + 1)]

    def harvest(word) -> bool:
        data = word.tobytes()
        size = len(data)
        new = {data[i:i + top] for i in range(0, size - top + 1, width)}
        new -= strata[n_max]
        for i in range(max(0, size - top + width), size, width):
            if data[i:] not in strata[(size - i) // width]:
                new.add(data[i:])
        if not new:
            return False
        for n in range(1, n_max + 1):
            span = n * width
            strata[n].update([w[:span] for w in new if len(w) >= span])
        return True

    words = [Word([c]) for c in range(sub.sigma)]
    while any([harvest(w) for w in words]):  # a list, so every word is harvested
        words = [sub.apply(w) for w in words]

    rows = [np.frombuffer(b"".join(stratum), dtype=np.intc).reshape(len(stratum), n)
            for n, stratum in enumerate(strata)]
    return Stratified(rows)


# ---------------------------------------------------------------------------
# counting route
# ---------------------------------------------------------------------------

def length2_factors(sub: Substitution) -> frozenset:
    """The length-2 factors of the language, by closure.

    The seeds are the pairs inside each image.  The pairs inside theta(xy)
    are those inside theta(x) and theta(y), which are seeds, and the one
    across the boundary, so only that pair is added for each pair xy found.
    """
    images = sub.images
    pairs = {pair for img in images for pair in zip(img, img[1:])}
    frontier = list(pairs)
    while frontier:
        x, y = frontier.pop()
        pair = (images[x][-1], images[y][0])
        if pair not in pairs:
            pairs.add(pair)
            frontier.append(pair)
    return frozenset(pairs)


class CountingCertificate(NamedTuple):
    """The eigenray prefix that carries every factor of length <= n_max, and
    the slices of it that the automaton reads."""

    sub: Substitution    # theta or its mirror, with the same p(n)
    seed: int            # the eigenletter
    power: int           # k, a multiple of the eigen exponent
    letters: int         # |theta^k(Q)|, the ray prefix that is expanded
    prefix: tuple        # Q, the shortest ray prefix holding every pair
    slices: tuple        # merged (start, stop) windows of theta^k(Q)

    @property
    def slice_letters(self) -> int:
        return sum(stop - start for start, stop in self.slices)


def _ray_slices(prefix, lengths, n_max) -> tuple:
    """The windows of theta^k(Q) that hold every factor of length <= n_max.

    ``prefix`` is Q and ``lengths[c]`` is |theta^k(c)|, at least n_max.  A
    factor lies inside one block theta^k(x), or it crosses one boundary
    between blocks theta^k(x) theta^k(y), with at most n_max - 1 letters on
    each side.  So the block of the first occurrence of each letter in Q,
    and the n_max - 1 letters on each side of the boundary at the first
    occurrence of each pair, hold every factor.  The windows come in order
    of their starts; overlapping or touching ones are merged.
    """
    reach = n_max - 1
    windows = []
    seen = set()
    stop = 0
    for i, q in enumerate(prefix):
        start, stop = stop, stop + lengths[q]
        if q not in seen:
            seen.add(q)
            windows.append((start, stop))
        pair = prefix[i:i + 2]
        if reach and len(pair) == 2 and pair not in seen:
            seen.add(pair)
            windows.append((stop - reach, stop + reach))
    merged = []
    for start, stop in windows:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return tuple(merged)


def counting_certificate(sub: Substitution, n_max: int) -> CountingCertificate:
    """The shortest certified eigenray prefix over all eigenletters.

    Every factor w with |w| <= n_max <= min_c |theta^k(c)| lies in the image
    under theta^k of some length-2 factor xy, since theta^k of a long word
    cuts w into at most two blocks.  If Q is the shortest prefix of the
    eigenray u holding every length-2 factor, theta^k(Q) holds every such
    image, and with k a multiple of the eigen exponent it is the prefix of
    u of length sum_{q in Q} |theta^k(q)|.  The windows of it that
    :func:`_ray_slices` names already hold every such factor, and they are
    what the automaton reads.

    The mirror of theta (every image reversed) has the reversed language and
    so the same p(n); its eigenrays are searched too, so that the choice, and
    the prefix length, do not depend on which orientation an input chose.
    Ties in the prefix length go to the smaller slice total, which makes
    that total independent of the orientation and the letter names too.
    """
    mirror = Substitution(sub.letters, [img[::-1] for img in sub.images])
    best = None
    for side in (sub, mirror):
        pairs = length2_factors(side)
        for seed in range(sub.sigma):
            try:
                e = eigen_exponent(side, seed)
            except NotAnEigenletterError:
                continue
            # the ray prefix theta^(je)(seed), until it holds every pair
            word = (seed,)
            while not pairs <= set(zip(word, word[1:])):
                for _ in range(e):
                    word = tuple(c for x in word for c in side.images[x])
            missing = set(pairs)
            end = 0
            while missing:
                missing.discard(word[end:end + 2])
                end += 1
            lengths = [1] * sub.sigma  # |theta^k(c)|
            k = 0
            while k % e or min(lengths) < n_max:
                lengths = [sum(lengths[x] for x in img) for img in sub.images]
                k += 1
            prefix = word[:end + 1]
            cert = CountingCertificate(side, seed, k,
                                       sum(lengths[q] for q in prefix), prefix,
                                       _ray_slices(prefix, lengths, n_max))
            if best is None or ((cert.letters, cert.slice_letters)
                                < (best.letters, best.slice_letters)):
                best = cert
    if best is None:
        raise NotAnEigenletterError("no letter generates an eigenray")
    return best


def complexity_counts(sub: Substitution, n_max: int) -> list[int]:
    """Exact p(n) for n = 1..n_max without materializing the language.

    Expands the slices of the eigenray prefix that
    :func:`counting_certificate` proves holds every factor of length
    <= n_max, and only those, and counts the distinct factors of all of them
    in one automaton, the slices joined by the separator code -1.  The cap
    bounds that prefix, and so the automaton's input, which is never longer:
    merged slices lie at least one letter apart, and each -1 stands in for
    such a gap.  A prefix beyond the cap is refused before anything is
    expanded.  Index 0 of the returned list is 0.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if not sub.is_primitive():
        raise DomainError("complexity counting requires a primitive substitution")
    cert = counting_certificate(sub, n_max)
    slices = eigenray_prefix(cert.sub, cert.seed, cert.letters, cert.slices)
    cuts = [0, *accumulate(stop - start for start, stop in cert.slices)]
    joined = Word([-1]).tobytes().join(
        slices[a:b].tobytes() for a, b in zip(cuts, cuts[1:]))
    return substring_counts(Word(joined), sub.sigma, n_max)


# ---------------------------------------------------------------------------
# tables and estimates
# ---------------------------------------------------------------------------

def linear_fit_constant(p_values) -> float:
    """The least C with p(n) <= C*n across the table p(1..n)."""
    if len(p_values) == 0:
        raise InsufficientDataError("empty complexity table")
    return max(p / n for n, p in enumerate(p_values, start=1))


@dataclass(frozen=True)
class EquivalenceWitness:
    constant: Optional[int]
    tested_to: int
    frontier: tuple[tuple[int, int, str], ...]  # (C, violated n, side)

    @property
    def equivalent(self) -> bool:
        return self.constant is not None


def growth_equivalence_witness(f_values, g_values, c_max: int) -> EquivalenceWitness:
    """Least C <= c_max with f(n) <= C*g(C*n) and g(n) <= C*f(C*n) on the
    overlap of the tables f(1..n) and g(1..n); reports the first violation
    per C otherwise, up to the first C whose window n <= n_max / C is empty
    (so is every larger C's).

    A success is evidence on the finite window, not a proof.
    """
    n_max = min(len(f_values), len(g_values))
    if n_max < 1 or c_max < 1:
        raise InsufficientDataError("growth comparison needs nonempty tables")
    frontier = []
    for c in range(1, c_max + 1):
        limit = n_max // c
        if limit < 1:
            frontier.append((c, 0, "window empty"))
            break
        violation = None
        for n in range(1, limit + 1):
            if f_values[n - 1] > c * g_values[c * n - 1]:
                violation = (c, n, "f(n) > C*g(Cn)")
                break
            if g_values[n - 1] > c * f_values[c * n - 1]:
                violation = (c, n, "g(n) > C*f(Cn)")
                break
        if violation is None:
            return EquivalenceWitness(c, n_max, tuple(frontier))
        frontier.append(violation)
    return EquivalenceWitness(None, n_max, tuple(frontier))
