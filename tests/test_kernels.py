"""The kernels against independent oracles: repeated-scan cancellation, a
plain-list expand and brute-force substring sets."""

import random

import numpy as np

from lamtool import kernels
from lamtool.kernels import expand_codes, substring_counts, tighten_codes

from conftest import fibonacci_word, naive_tighten, random_word


def list_expand(codes, offsets, data):
    """Concatenate the blocks one letter at a time, in plain lists."""
    out = []
    for c in codes:
        out.extend(data[offsets[c]:offsets[c + 1]])
    return out


def brute_force_counts(word, n_max):
    """Sizes of the distinct-substring sets per length, index 0 unused."""
    word = tuple(word)
    return [0] + [len({word[i:i + n] for i in range(len(word) - n + 1)})
                  for n in range(1, n_max + 1)]


def test_backend_is_reported():
    assert kernels.BACKEND == "python"


class TestTighten:
    def test_matches_python_reference(self):
        rng = random.Random(1)
        for _ in range(300):
            word = np.array(random_word(rng, 3, rng.randint(0, 200)),
                            dtype=np.int32)
            out = tighten_codes(word)
            assert out.dtype == np.int32
            assert tuple(out) == naive_tighten(tuple(word))

    def test_large_word(self):
        rng = random.Random(2)
        word = np.array(random_word(rng, 2, 100_000), dtype=np.int32)
        out = tighten_codes(word)
        assert not np.any(out[1:] == (out[:-1] ^ 1))
        # cancelling a reduced word's inverse against it leaves nothing
        inverse = (out[::-1] ^ 1).astype(np.int32)
        assert tighten_codes(np.concatenate([out, inverse])).size == 0


class TestExpand:
    def test_matches_python_reference(self):
        rng = random.Random(3)
        for _ in range(100):
            sigma = rng.randint(1, 6)
            sizes = [rng.randint(0, 4) for _ in range(sigma)]
            offsets = np.cumsum([0] + sizes).astype(np.int64)
            data = np.array([rng.randrange(sigma) for _ in range(sum(sizes))],
                            dtype=np.int32)
            word = np.array([rng.randrange(sigma)
                             for _ in range(rng.randint(0, 50))], dtype=np.int32)
            out = expand_codes(word, offsets, data)
            assert out.dtype == np.int32
            assert out.tolist() == list_expand(word.tolist(), offsets.tolist(),
                                               data.tolist())

    def test_empty_word(self):
        offsets = np.array([0, 1], dtype=np.int64)
        data = np.array([0], dtype=np.int32)
        assert expand_codes(np.array([], dtype=np.int32), offsets, data).size == 0


class TestSubstringCounts:
    def test_matches_brute_force_on_fibonacci_prefix(self):
        text = fibonacci_word(300)
        codes = np.array([0 if c == "a" else 1 for c in text], dtype=np.int32)
        counts = substring_counts(codes, 2, 12)
        for n in range(1, 13):
            oracle = len({text[i:i + n] for i in range(len(text) - n + 1)})
            assert counts[n] == oracle

    def test_matches_python_reference_on_random_words(self):
        rng = random.Random(4)
        for _ in range(80):
            sigma = rng.randint(1, 6)
            # small alphabets repeat, large ones rarely do; cover both
            used = rng.randint(1, sigma)
            word = [rng.randrange(used) for _ in range(rng.randint(0, 300))]
            n_max = rng.randint(1, 20)
            counts = substring_counts(np.array(word, dtype=np.int32), sigma, n_max)
            assert list(counts) == brute_force_counts(word, n_max)

    def test_total_distinct_substrings(self):
        # abcabc...: n distinct substrings per length until wrap
        word = np.array([0, 1, 2] * 10, dtype=np.int32)
        counts = substring_counts(word, 3, 5)
        assert list(counts[1:]) == [3, 3, 3, 3, 3]

    def test_depth_beyond_the_word(self):
        word = np.array([0, 1, 0, 0, 1], dtype=np.int32)
        assert list(substring_counts(word, 2, 7)) == [0, 2, 3, 3, 2, 1, 0, 0]
