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

The second route makes covering-bound tables to n = 5000 cheap.  Both run
on the standard library alone.
"""

from __future__ import annotations

from itertools import accumulate, islice
from typing import Mapping, NamedTuple, Optional, Sequence

from .config import check_size, size_cap
from .errors import (DomainError, InsufficientDataError, MalformedInputError,
                     NotAnEigenletterError)
from .graphmaps import (GraphSelfMap, OrientationResult, _primitivity_exponent,
                        _support)
from .kernels import Word, expand_codes, substring_counts
from .words import Stratified, harvest

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

    __slots__ = ("letters", "images", "_index", "_strings", "_primitive")

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
        # each image as a code-point str, keyed by its letter, for apply and
        # expand_codes
        self._strings = {chr(c): "".join(map(chr, img))
                         for c, img in enumerate(self.images)}
        self._primitive = None

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

    def apply(self, word: str) -> str:
        """One substitution round on a ``str`` of letter codes (``chr(code)``),
        refused before it is joined when the result is over the size cap."""
        pieces = list(map(self._strings.__getitem__, word))
        check_size(sum(map(len, pieces)), "substituted word")
        return "".join(pieces)

    def block_lengths(self):
        """The lists ``|theta^j(c)|`` over the letters c, for j = 0, 1, ..."""
        lengths = [1] * self.sigma
        while True:
            yield lengths
            lengths = [sum(map(lengths.__getitem__, img)) for img in self.images]

    def occurrence_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Entry (i, j) counts letter i in the image of letter j."""
        return tuple(tuple(img.count(i) for img in self.images)
                     for i in range(self.sigma))

    def is_primitive(self) -> bool:
        """Some power of the occurrence matrix is positive: read from its
        support alone, with no spectrum and so no array library."""
        if self._primitive is None:
            self._primitive = _primitivity_exponent(
                _support(self.occurrence_matrix())) is not None
        return self._primitive

    def __repr__(self):
        rules = ", ".join(f"{letter} -> {''.join(self.letters[c] for c in img)}"
                          for letter, img in zip(self.letters, self.images))
        return f"Substitution({rules})"


def from_train_track(gsm: GraphSelfMap, orientation: OrientationResult) -> Substitution:
    """The substitution carried by a train track map.

    Non-orientable maps extend to a substitution over all oriented edges
    (inverse letters map to inverse words); orientable maps restrict to the
    preferred positive edges.  The result need not be primitive when the map
    is: ``laminations.certify`` decides that.
    """
    alphabet = gsm.graph.alphabet
    if orientation.orientable:
        # orientability has asserted that every image stays on this side
        codes = sorted(orientation.positive_letters)
        position = {c: i for i, c in enumerate(codes)}
        images = [tuple(position[y] for y in gsm.image(c)) for c in codes]
    else:
        codes = list(alphabet.letters())
        images = [gsm.image(c) for c in codes]  # codes double as indices
    return Substitution([alphabet.token(c) for c in codes], images)


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
    if next(islice(sub.block_lengths(), k, None))[seed] < 2:
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
    # sizes[j][chr(c)] = |theta^j(c)|, for j = 0..R
    sizes = []
    for lengths in sub.block_lengths():
        sizes.append(dict(zip(sub._strings, lengths)))
        if not (len(sizes) - 1) % k and lengths[seed] >= target_len:
            break
    # one run per window, end to end in ``word``: run i is the slice
    # cuts[i]:cuts[i + 1], and its blocks cover the prefix letters spans[i]
    word = chr(seed) * len(windows)
    cuts = list(range(len(windows) + 1))
    spans = [(0, sizes[-1][chr(seed)])] * len(windows)
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
        if not j:
            return Word("".join(runs))
        # the runs' letters after expanding (at the last, one per span letter)
        cuts = [0, *accumulate(last - first if j == 1 else
                               sum(map(sizes[1].__getitem__, run))
                               for run, (first, last) in zip(runs, spans))]
        word = expand_codes("".join(runs), sub._strings)


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

    Each iterate, a ``str`` of letter codes, is harvested by
    :func:`~lamtool.words.harvest`, which adds a factor exactly when it adds
    a window, so the stop rule, and with it every iterate, is the one above;
    a stratum is the list of its distinct factors.  ``lamlang`` languages
    are harvested by the same routine.

    A factor of length n_max needs an iterate of at least n_max letters,
    which the size cap refuses, so ``n_max`` over the cap is refused before
    any stratum is allocated.  The cap bounds the iterates, not the strata.
    This route shares no code with :func:`complexity_counts`, which is
    tested against it.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if not sub.is_primitive():
        raise DomainError("factor enumeration requires a primitive substitution")
    check_size(n_max, "factor strata")
    strata = [set() for _ in range(n_max + 1)]
    words = [chr(c) for c in range(sub.sigma)]
    while any([harvest(strata, w) for w in words]):  # a list: harvest each
        words = [sub.apply(w) for w in words]
    return Stratified(map(list, strata))


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
    A non-primitive substitution is refused: some letter's blocks may stay
    short, and the search for k would not end.  The search reads at most cap
    letters of each ray: a seed whose first cap letters lack a pair has
    |Q| > cap, so |theta^k(Q)| >= |Q| n_max > cap, and is skipped.
    """
    if not sub.is_primitive():
        raise DomainError("complexity counting requires a primitive substitution")
    mirror = Substitution(sub.letters, [img[::-1] for img in sub.images])
    cap, best, skipped = size_cap(), None, False
    for side in (sub, mirror):
        pairs = [chr(x) + chr(y) for x, y in length2_factors(side)]
        for seed in range(sub.sigma):
            try:
                e = eigen_exponent(side, seed)
            except NotAnEigenletterError:
                continue
            # theta^(je)(seed), j = 1, 2, ..., cut to the cap, until it holds
            # every pair
            word, rounds = "", islice(side.block_lengths(), e, None, e)
            while len(word) < cap and not all(pair in word for pair in pairs):
                word = eigenray_prefix(side, seed, min(next(rounds)[seed], cap))
            if not all(pair in word for pair in pairs):
                skipped = True
                continue
            prefix = tuple(map(ord, word[:max(map(word.find, pairs)) + 2]))
            # k: the least multiple of e at which every block |theta^k(c)|
            # (the mirror's too) has n_max letters
            k, lengths = next((k, lengths) for k, lengths
                              in enumerate(sub.block_lengths())
                              if not k % e and min(lengths) >= n_max)
            cert = CountingCertificate(side, seed, k,
                                       sum(lengths[q] for q in prefix), prefix,
                                       _ray_slices(prefix, lengths, n_max))
            if best is None or ((cert.letters, cert.slice_letters)
                                < (best.letters, best.slice_letters)):
                best = cert
    if skipped and best is None:  # each |theta^k(Q)| is >= (cap + 1) n_max
        check_size((cap + 1) * n_max, "eigenray prefix")
    if best is None:
        raise NotAnEigenletterError("no letter generates an eigenray")
    return best


def complexity_counts(sub: Substitution, n_max: int) -> list[int]:
    """Exact p(n) for n = 1..n_max without materializing the language.

    Expands the slices of the eigenray prefix that
    :func:`counting_certificate` proves holds every factor of length
    <= n_max, and only those, and counts the distinct factors of all of them
    in one automaton, the slices joined by the separator ``chr(sigma)``.
    The cap bounds that prefix, and so the automaton's input, which is never
    longer: merged slices lie at least one letter apart, and each separator
    stands in for such a gap.  A prefix beyond the cap is refused before the
    prefix is expanded; the search reads at most cap letters of each ray.
    Index 0 of the returned list is 0.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    cert = counting_certificate(sub, n_max)  # refuses a non-primitive one
    slices = eigenray_prefix(cert.sub, cert.seed, cert.letters, cert.slices)
    cuts = [0, *accumulate(stop - start for start, stop in cert.slices)]
    joined = chr(sub.sigma).join(slices[a:b] for a, b in zip(cuts, cuts[1:]))
    return substring_counts(joined, sub.sigma, n_max)


# ---------------------------------------------------------------------------
# tables and estimates
# ---------------------------------------------------------------------------

def linear_fit_constant(p_values) -> float:
    """The least C with p(n) <= C*n across the table p(1..n)."""
    if len(p_values) == 0:
        raise InsufficientDataError("empty complexity table")
    return max(p / n for n, p in enumerate(p_values, start=1))


class EquivalenceWitness(NamedTuple):
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
