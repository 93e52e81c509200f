"""Hot inner-loop kernels over words of letter codes, in the standard library.

A word is a :class:`Word`, an ``array('i')``.  For involutive (edge)
alphabets the letter with topological index i and its inverse occupy codes
``2i`` and ``2i + 1``, so inversion is ``code ^ 1``; plain substitution
alphabets just use ``0 .. sigma-1``.  Cancellation is ``words.tighten_raw``.

The counting route runs on these words and lists alone, as the enumerating
route does on ``str``: lamtool loads no array library.  Expansion joins
per-letter pieces, the bytes of each image, which a ``Substitution`` builds
once with itself.  Callers ask ``config.check_size`` before they expand.
There is one backend; ``BACKEND`` names it for run records.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, islice, repeat
from operator import sub

from .errors import DomainError

__all__ = [
    "BACKEND",
    "Word",
    "expand_codes",
    "substring_counts",
]

BACKEND = "python"


class Word(array):
    """An ``array('i')`` of letter codes, from codes or their bytes, that
    also answers ``size``, its length, which the benchmark's spans read."""

    __slots__ = ()
    size = property(len)

    def __new__(cls, codes=()):
        return super().__new__(cls, "i", codes)


def expand_codes(codes, pieces) -> Word:
    """The word that replaces every code c by ``pieces[c]``, the bytes of
    the ``Word`` of its image, joined in one pass."""
    return Word(b"".join(map(pieces.__getitem__, codes)))


def substring_counts(codes, sigma, n_max):
    """Exact distinct-substring counts of a word list for lengths 1..n_max.

    ``codes`` holds the words one after another, each pair separated by the
    code -1; a -1 at either end, or two in a row, adds no word.  The counts
    are those of the union of the words' factor sets, so no factor across a
    -1 is counted.  A single word needs no -1.

    Builds the generalized suffix automaton of the words (Blumer et al.,
    JACM 1987) with one flat transition list, ``trans[state * sigma + c]``
    (-1 for no edge).  Each word starts again from the root.  While the
    transition from ``last`` on the next letter already exists, the factor
    is already known: ``last`` moves to that state, or to a clone of it
    split off at length ``length[last] + 1``, and no state is made for the
    letter.  From the first letter that makes a state on, the word can meet
    no known transition again (``last`` is then a fresh state with none), so
    the rest is the one-word construction.  So every state stands for
    factors of the union, those of lengths
    ``length[link[v]] + 1 .. length[v]``.  A split cuts the range of q in
    two at ``length[p] + 1``, which changes no count, so the counts are
    those of the states made for letters, with the ranges they get when
    made: ``lows`` tallies their lower ends and the difference list
    ``highs`` their lengths.  Returns the list ``counts`` with ``counts[n]``
    the number of distinct length-n factors (index 0 is 0).

    A state costs ``sigma + 2`` list slots (its transitions, link and
    length) and one int object, its number: a length is taken from one
    shared list of the ints up to the longest word, not made anew.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    codes = array("i", codes).tolist()
    cuts = [-1]
    try:
        while True:
            cuts.append(codes.index(-1, cuts[-1] + 1))
    except ValueError:
        cuts.append(len(codes))
    words = [codes[a + 1:b] for a, b in zip(cuts, cuts[1:])]
    # one shared int per length, for the states' lengths
    sizes = list(range(max(map(len, words)) + 1))
    # lows[k]: new states whose link has length k; highs: their lengths
    lows = [0] * len(sizes)
    highs = [0] * (len(sizes) + 1)
    blank = [-1] * sigma
    trans = list(blank)
    link = [-1]
    length = [0]

    def split(p, q, c):
        """Clone q at length length[p] + 1 and move p's suffix path to it."""
        clone = len(length)
        trans.extend(trans[q * sigma:(q + 1) * sigma])
        length.append(sizes[length[p] + 1])
        link.append(link[q])
        while p != -1 and trans[p * sigma + c] == q:
            trans[p * sigma + c] = clone
            p = link[p]
        link[q] = clone
        return clone

    for word in words:
        # the word's known prefix: walk, splitting where a state is too long
        last = start = 0
        for c in word:
            q = trans[last * sigma + c]
            if q == -1:
                break
            last = q if length[q] == length[last] + 1 else split(last, q, c)
            start += 1
        # then the one-word construction, one new state per letter
        highs[start + 1] += 1
        highs[len(word) + 1] -= 1
        for c, size in zip(word[start:], islice(sizes, start + 1, None)):
            cur = len(length)
            trans += blank
            length.append(size)
            link.append(0)
            p = last
            while p != -1 and trans[p * sigma + c] == -1:
                trans[p * sigma + c] = cur
                p = link[p]
            if p != -1:
                q = trans[p * sigma + c]
                link[cur] = q if length[p] + 1 == length[q] else split(p, q, c)
            lows[length[link[cur]]] += 1
            last = cur
    # counts[n] = #{new v: length[link[v]] < n} - #{new v: length[v] < n}
    steps = map(sub, lows, accumulate(highs))
    return [0, *accumulate(islice(chain(steps, repeat(0)), n_max))]
