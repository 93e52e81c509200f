"""Involutive edge alphabets, reduced words and length-stratified languages.

Every other module manipulates the words defined here.  A letter is an
oriented edge; the positive edge with index i gets code ``2i`` and its
inverse code ``2i + 1``, so taking inverses is ``code ^ 1`` and the
topological (unoriented) edge of a code is ``code >> 1``.

Path literals use whitespace-separated tokens, an edge name optionally
suffixed with ``'`` for its inverse, e.g. ``a b' a``.

The row blocks of :class:`Stratified` are numpy arrays, which only the
enumerating route builds; the counting route never loads numpy.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import MalformedInputError, UnderEnumerationError

if TYPE_CHECKING:
    import numpy as np

NAME_RE = re.compile(r"\A[a-z][a-z0-9]*\Z")


class EdgeAlphabet:
    """Ordered alphabet of oriented edges closed under a fixed-point-free
    involution.

    Constructed from the positive edge names only; inverse letters are
    implicit.  The canonical total order interleaves each edge with its
    inverse: ``a, a', b, b', ...``.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise MalformedInputError("alphabet needs at least one edge name")
        seen = set()
        for name in names:
            if not NAME_RE.match(name):
                raise MalformedInputError(f"bad edge name {name!r}")
            if name in seen:
                raise MalformedInputError(f"duplicate edge name {name!r}")
            seen.add(name)
        self.names = names
        self._index = {name: 2 * i for i, name in enumerate(names)}

    @property
    def size(self) -> int:
        """Number of oriented letters (always even and >= 2)."""
        return 2 * len(self.names)

    def letters(self) -> range:
        return range(self.size)

    def contains(self, code: int) -> bool:
        return 0 <= code < self.size

    def token(self, code: int) -> str:
        if not self.contains(code):
            raise MalformedInputError(f"letter code {code} not in alphabet")
        return self.names[code >> 1] + ("'" if code & 1 else "")

    def index(self, token: str) -> int:
        name, inv = (token[:-1], 1) if token.endswith("'") else (token, 0)
        base = self._index.get(name)
        if base is None:
            raise MalformedInputError(f"unknown edge token {token!r}")
        return base | inv

    def parse(self, text: str) -> tuple[int, ...]:
        return tuple(self.index(tok) for tok in text.split())

    def format(self, codes: Iterable[int]) -> str:
        return " ".join(self.token(c) for c in codes)

    def __eq__(self, other):
        return isinstance(other, EdgeAlphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"EdgeAlphabet({', '.join(self.names)})"


def inverse_codes(codes) -> tuple[int, ...]:
    return tuple(c ^ 1 for c in reversed(codes))


def tighten_raw(codes) -> tuple[int, ...]:
    """Stack-cancellation on raw code sequences."""
    out = []
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def cyclic_tighten_raw(codes) -> tuple[int, ...]:
    word = list(tighten_raw(codes))
    lo, hi = 0, len(word)
    while hi - lo >= 2 and word[lo] == word[hi - 1] ^ 1:
        lo += 1
        hi -= 1
    return tuple(word[lo:hi])


def iter_factors_raw(codes, n_max: int) -> Iterator[tuple[int, ...]]:
    codes = tuple(codes)
    for length in range(1, min(n_max, len(codes)) + 1):
        for start in range(len(codes) - length + 1):
            yield codes[start:start + length]


class Stratified:
    """A length-stratified language held as int32 row blocks.

    ``rows[n]`` is the duplicate-free (p(n), n) int32 block of its words of
    length n and ``rows[0]`` is empty; the language is complete to the last
    block.  The tuple ``strata`` are decoded from the blocks on first read.
    """

    def __init__(self, rows):
        self.rows = tuple(rows)

    @cached_property
    def strata(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(map(tuple, block.tolist())) for block in self.rows)

    @property
    def complete_to(self) -> int:
        return len(self.rows) - 1

    def p(self, n: int) -> int:
        if not 1 <= n <= self.complete_to:
            raise UnderEnumerationError(
                f"p({n}) not enumerated (depth {self.complete_to})",
                achieved=self.complete_to, required=n)
        return self.rows[n].shape[0]

    def p_counts(self) -> list[int]:
        return [block.shape[0] for block in self.rows[1:]]

    def all_members(self):
        for n in range(1, len(self.strata)):
            yield from self.strata[n]


def sorted_blocks(words, depth: int) -> list[np.ndarray]:
    """Distinct words of length at most ``depth`` as the sorted int32 blocks
    ``rows[0..depth]`` of :class:`Stratified`."""
    import numpy as np

    strata = [[] for _ in range(depth + 1)]
    for word in sorted(words):
        strata[len(word)].append(word)
    return [np.asarray(s, dtype=np.int32).reshape(len(s), n)
            for n, s in enumerate(strata)]
