"""Hot inner-loop kernels over packed ``int32`` words, in pure Python and numpy.

Words are packed into ``int32`` numpy arrays.  For involutive (edge)
alphabets the letter with topological index i and its inverse occupy codes
``2i`` and ``2i + 1``, so inversion is ``code ^ 1``; plain substitution
alphabets just use ``0 .. sigma-1`` and never call the cancellation kernel.

There is one backend; ``BACKEND`` names it for run records.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "tighten_codes",
    "expand_codes",
    "substring_counts",
]

BACKEND = "python"


def tighten_codes(codes):
    """Cancel adjacent inverse pairs; returns the reduced int32 array."""
    out = []
    for c in np.asarray(codes, dtype=np.int32).tolist():
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return np.asarray(out, dtype=np.int32)


def expand_codes(codes, offsets, data):
    """Concatenate ``data[offsets[c]:offsets[c+1]]`` for every code."""
    codes = np.asarray(codes, dtype=np.int32)
    offsets = np.asarray(offsets, dtype=np.int64)
    data = np.asarray(data, dtype=np.int32)
    starts = offsets[codes]
    sizes = offsets[codes + 1] - starts
    # output position i of block j reads data[starts[j] + i - block_start[j]]
    shift = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return data[np.arange(shift.size) + shift]


def substring_counts(codes, sigma, n_max):
    """Exact distinct-substring counts of ``codes`` for lengths 1..n_max.

    Builds the suffix automaton of the word with one flat transition list,
    ``trans[state * sigma + c]`` (-1 for no edge).  State v stands for the
    substrings of lengths ``length[link[v]] + 1 .. length[v]``, so the counts
    are a difference array over those ranges.  Returns ``counts`` with
    ``counts[n]`` the number of distinct length-n substrings (index 0 is 0).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    blank = [-1] * sigma
    trans = list(blank)
    link = [-1]
    length = [0]
    last = 0
    for c in np.asarray(codes, dtype=np.int32).tolist():
        cur = len(length)
        trans += blank
        length.append(length[last] + 1)
        link.append(0)
        p = last
        while p != -1 and trans[p * sigma + c] == -1:
            trans[p * sigma + c] = cur
            p = link[p]
        if p != -1:
            q = trans[p * sigma + c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                trans += trans[q * sigma:(q + 1) * sigma]
                length.append(length[p] + 1)
                link.append(link[q])
                while p != -1 and trans[p * sigma + c] == q:
                    trans[p * sigma + c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    length = np.asarray(length, dtype=np.int64)
    lo = length[np.asarray(link[1:], dtype=np.int64)] + 1
    hi = np.minimum(length[1:], n_max)
    keep = lo <= n_max
    diff = (np.bincount(lo[keep], minlength=n_max + 2)
            - np.bincount(hi[keep] + 1, minlength=n_max + 2))
    return np.cumsum(diff[:-1])
