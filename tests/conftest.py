"""Shared fixtures and the independent oracles the example tests check
against.  Oracles are deliberately naive re-implementations: repeated-scan
cancellation, hand recursions for the classic words, exhaustive searches."""

import random
from fractions import Fraction
from itertools import accumulate

import pytest

from lamtool import EdgeAlphabet, EdgePath, GraphSelfMap, MarkedMetricGraph


@pytest.fixture
def rose2():
    return MarkedMetricGraph(["v"], [("a", "v", "v", 1), ("b", "v", "v", 1)])


@pytest.fixture
def fib_map(rose2):
    al = rose2.alphabet
    return GraphSelfMap(rose2, [0], [al.parse("a b"), al.parse("a")])


@pytest.fixture
def nonorientable_map(rose2):
    al = rose2.alphabet
    return GraphSelfMap(rose2, [0], [al.parse("a b"), al.parse("a'")])


@pytest.fixture
def permutation_map(rose2):
    al = rose2.alphabet
    return GraphSelfMap(rose2, [0], [al.parse("b"), al.parse("a")])


@pytest.fixture
def mixed_sign_map(rose2):
    """Non-orientable expanding primitive train track map on the 2-rose:
    f(a) mixes both signs of a, and the direction map is a permutation."""
    al = rose2.alphabet
    return GraphSelfMap(rose2, [0], [al.parse("a b a' b"), al.parse("b a")])


@pytest.fixture
def theta():
    return MarkedMetricGraph(
        ["v0", "v1"],
        [("e1", "v0", "v1", 1), ("e2", "v0", "v1", 1), ("e3", "v0", "v1", 1)])


@pytest.fixture
def silver_map(theta):
    al = theta.alphabet
    return GraphSelfMap(theta, [0, 1], [al.parse("e2"),
                                        al.parse("e3 e2' e1"),
                                        al.parse("e1 e2' e3")])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def naive_tighten(codes):
    """Repeated full scans; cancels one adjacent inverse pair per pass."""
    word = list(codes)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == word[i + 1] ^ 1:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


def naive_cyclic_tighten(codes):
    """Reduce, then repeatedly strip mutually inverse end letters."""
    word = list(naive_tighten(codes))
    while len(word) >= 2 and word[0] == word[-1] ^ 1:
        word = word[1:-1]
    return tuple(word)


def fibonacci_word(length):
    """Hand recursion w_{k+1} = w_k w_{k-1} over the letters a, b."""
    w0, w1 = "a", "ab"
    while len(w1) < length:
        w0, w1 = w1, w1 + w0
    return w1[:length]


def thue_morse_word(length):
    w = "a"
    swap = {"a": "ab", "b": "ba"}
    while len(w) < length:
        w = "".join(swap[c] for c in w)
    return w[:length]


def string_factors(word, n_max):
    """Brute-force distinct substrings of length 1..n_max of a string."""
    return {word[i:i + k]
            for k in range(1, n_max + 1)
            for i in range(len(word) - k + 1)}


def random_reduced_word(rng, alphabet_size, length):
    """Uniform-ish reduced word over an involutive alphabet of 2*size letters."""
    word = []
    for _ in range(length):
        choices = [c for c in range(2 * alphabet_size)
                   if not word or c != word[-1] ^ 1]
        word.append(rng.choice(choices))
    return tuple(word)


def lamlang_tables(paths, lengths, n_max):
    """p, beta and beta_metric for n = 1..n_max of the symmetric lamlang
    language of ``paths`` (token strings such as "a b'"): every factor of a
    path and its inverse, spelled as tokens; ``lengths`` maps edge names to
    lengths."""
    def inverse(word):
        return tuple(t[:-1] if t.endswith("'") else t + "'" for t in reversed(word))

    members = set()
    for text in paths:
        word = tuple(text.split())
        members |= {word[i:j] for i in range(len(word))
                    for j in range(i + 1, len(word) + 1)}
    members |= {inverse(m) for m in members}
    metric = [sum(Fraction(lengths[t.rstrip("'")]) for t in m) for m in members]
    p = [sum(1 for m in members if len(m) == n) for n in range(1, n_max + 1)]
    return (p, list(accumulate(p)),
            [sum(1 for x in metric if x <= n) for n in range(1, n_max + 1)])


def random_word(rng, alphabet_size, length):
    return tuple(rng.randrange(2 * alphabet_size) for _ in range(length))


def naive_iterate_image(gsm, code, k):
    """f^k(e) by literal substitution, no tightening."""
    word = [code]
    for _ in range(k):
        word = [c for y in word for c in gsm.image(y)]
    return tuple(word)


def _image_table(gsm):
    """Images padded with -1 into one array, for vectorized substitution."""
    import numpy as np

    letters = list(gsm.graph.alphabet.letters())
    pad = max(len(gsm.image(c)) for c in letters)
    table = np.full((len(letters), pad), -1, dtype=np.int32)
    for c in letters:
        img = gsm.image(c)
        table[c, :len(img)] = img
    return table


def brute_force_train_track(gsm, k_max=12):
    """tighten(f^k(e)) must equal f^k(e) for all k <= k_max and every edge.

    Iterates the literal substitution; as long as no cancellation has
    appeared the word is already reduced, so one adjacency scan per level is
    exactly the tighten comparison.
    """
    import numpy as np

    table = _image_table(gsm)
    for code in gsm.graph.alphabet.letters():
        word = np.array([code], dtype=np.int32)
        for _ in range(k_max):
            expanded = table[word].ravel()
            word = expanded[expanded >= 0]
            if np.any(word[1:] == (word[:-1] ^ 1)):
                return False
    return True


def brute_force_orientation(gsm):
    """Try all sign assignments; return a preferred positive side or None."""
    m = gsm.graph.num_topological_edges
    for mask in range(1 << m):
        positive = frozenset((2 * cls) | ((mask >> cls) & 1) for cls in range(m))
        if all(all(y in positive for y in gsm.image(e)) for e in positive):
            return positive
    return None


def random_rose_map(rng, petals, max_image_len=4):
    """A random graph self-map of the unit rose with reduced nonempty images."""
    rose = MarkedMetricGraph(
        ["v"], [(f"e{i}", "v", "v", 1) for i in range(1, petals + 1)])
    images = [random_reduced_word(rng, petals, rng.randint(1, max_image_len))
              for _ in range(petals)]
    return GraphSelfMap(rose, [0], images)
