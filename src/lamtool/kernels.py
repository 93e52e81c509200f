"""Hot inner-loop kernels over words of letter codes, in the standard library.

A word is a code-point ``str``, ``chr(code)`` a letter, as the strata of
``words.Stratified`` are: one byte a letter below code 256.  For involutive
(edge) alphabets the letter with topological index i and its inverse occupy
codes ``2i`` and ``2i + 1``, so inversion is ``code ^ 1``; plain
substitution alphabets just use ``0 .. sigma-1``.  Cancellation is
``words.tighten_raw``.

Expansion joins the images, as ``str``, that a ``Substitution`` builds once
with itself; the automaton reads words separated by ``chr(sigma)``, which
is no letter.  Callers ask ``config.check_size`` before they expand.  There
is one backend; ``BACKEND`` names it for run records.
"""

from __future__ import annotations

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


class Word(str):
    """A code-point ``str`` that also answers ``size``, its length, which
    the benchmark's spans read."""

    __slots__ = ()
    size = property(len)


def expand_codes(word, images) -> Word:
    """The word that replaces every letter c by ``images[c]``, its image as
    a code-point ``str``, joined in one pass."""
    return Word("".join(map(images.__getitem__, word)))


def substring_counts(text, sigma, n_max):
    """Exact distinct-substring counts of a word list for lengths 1..n_max.

    ``text`` holds the words, code-point ``str`` over the letters
    ``0 .. sigma-1``, each pair separated by ``chr(sigma)``; a separator at
    either end, or two in a row, adds no word.  The counts are those of the
    union of the words' factor sets, so no factor across a separator is
    counted.  A single word needs no separator.  A word found in the text
    before it lies inside one earlier word, since it holds no separator, and
    adds no factor: it is skipped.  A word is sought only in a text at most
    64 times its length, so the searches read at most 64 letters a letter.

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
    words = []
    read = 0  # the letters and separators before the word
    for word in text.split(chr(sigma)):
        if read > 64 * len(word) or text.find(word, 0, read) < 0:
            words.append(word)
        read += len(word) + 1
    # one shared int per length, for the states' lengths
    sizes = list(range(max(map(len, words), default=0) + 1))
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
        for c in map(ord, word):
            q = trans[last * sigma + c]
            if q == -1:
                break
            last = q if length[q] == length[last] + 1 else split(last, q, c)
            start += 1
        # then the one-word construction, one new state per letter
        highs[start + 1] += 1
        highs[len(word) + 1] -= 1
        for c, size in zip(map(ord, word[start:]), islice(sizes, start + 1, None)):
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
