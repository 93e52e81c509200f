"""Hot inner-loop kernels over packed ``int32`` words, in pure Python and numpy.

Words are packed into ``int32`` numpy arrays.  For involutive (edge)
alphabets the letter with topological index i and its inverse occupy codes
``2i`` and ``2i + 1``, so inversion is ``code ^ 1``; plain substitution
alphabets just use ``0 .. sigma-1``.  Cancellation is ``words.tighten_raw``.

numpy is imported inside each function that builds or reads such an array,
here and in ``words``, ``substitutions`` and ``laminations``, never when a
module loads: the commands that build no word array (``--version``,
``analyze`` and every command on a full shift) start without it.

:func:`expand_capped` asks ``config.check_size`` before it expands.  There
is one backend; ``BACKEND`` names it for run records.
"""

from __future__ import annotations

from itertools import islice

from .config import check_size

__all__ = [
    "BACKEND",
    "image_tables",
    "expand_codes",
    "expand_capped",
    "substring_counts",
]

BACKEND = "python"


def expand_codes(codes, offsets, data):
    """Concatenate ``data[offsets[c]:offsets[c+1]]`` for every code."""
    import numpy as np

    codes = np.asarray(codes, dtype=np.int32)
    offsets = np.asarray(offsets, dtype=np.int64)
    data = np.asarray(data, dtype=np.int32)
    starts = offsets[codes]
    sizes = offsets[codes + 1] - starts
    # output position i of block j reads data[starts[j] + i - block_start[j]]
    shift = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return data[np.arange(shift.size) + shift]


def image_tables(images):
    """The images flattened into ``(offsets, data)`` for :func:`expand_codes`:
    the image of code c is ``data[offsets[c]:offsets[c + 1]]``."""
    import numpy as np

    offsets = [0]
    data = []
    for img in images:
        data.extend(img)
        offsets.append(len(data))
    return np.asarray(offsets, dtype=np.int64), np.asarray(data, dtype=np.int32)


def expand_capped(codes, tables, what):
    """:func:`expand_codes` over ``tables = (offsets, data)``, refused before
    anything is expanded when the result is over the size cap; the refusal
    calls the result ``what``."""
    import numpy as np

    offsets, data = tables
    arr = np.asarray(codes, dtype=np.int32)
    check_size(int((offsets[arr + 1] - offsets[arr]).sum()) if arr.size else 0, what)
    return expand_codes(arr, offsets, data)


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
    ``length[link[v]] + 1 .. length[v]``, and the counts are a difference
    array over those ranges.  Returns ``counts`` with ``counts[n]`` the
    number of distinct length-n factors (index 0 is 0).

    A state costs ``sigma + 2`` list slots (its transitions, link and
    length) and one int object, its number: a length is taken from one
    shared list of the ints up to the longest word, not made anew.  The
    transition list is dropped before the count arrays are built.
    """
    import numpy as np

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    codes = np.asarray(codes, dtype=np.int32)
    words = [word[1:] if word.size and word[0] < 0 else word
             for word in np.split(codes, np.flatnonzero(codes < 0))]
    # one shared int per length, for the states' lengths
    sizes = list(range(max(word.size for word in words) + 1))
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
        word = word.tolist()
        # the word's known prefix: walk, splitting where a state is too long
        last = start = 0
        for c in word:
            q = trans[last * sigma + c]
            if q == -1:
                break
            last = q if length[q] == length[last] + 1 else split(last, q, c)
            start += 1
        # then the one-word construction, one new state per letter
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
            last = cur
    del trans
    length = np.asarray(length, dtype=np.int64)
    lo = length[np.asarray(link, dtype=np.int64)[1:]] + 1
    hi = np.minimum(length[1:], n_max)
    keep = lo <= n_max
    diff = (np.bincount(lo[keep], minlength=n_max + 2)
            - np.bincount(hi[keep] + 1, minlength=n_max + 2))
    return np.cumsum(diff[:-1])
