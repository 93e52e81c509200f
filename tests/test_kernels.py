"""The kernels against independent oracles: repeated-scan cancellation, a
plain-list expand and brute-force substring sets."""

import random
from array import array

import numpy as np
import pytest

from lamtool import kernels
from lamtool.errors import DomainError
from lamtool.kernels import expand_codes, substring_counts
from lamtool.words import tighten_raw

from conftest import fibonacci_word, naive_tighten, random_word


def list_expand(codes, images):
    """Concatenate the images one letter at a time, in plain lists."""
    out = []
    for c in codes:
        out.extend(images[c])
    return out


def image_pieces(images):
    """The per-letter pieces ``expand_codes`` joins: each image's bytes."""
    return [array("i", img).tobytes() for img in images]


def brute_force_counts(word, n_max):
    """Sizes of the distinct-substring sets per length, index 0 unused."""
    return brute_force_union_counts([word], n_max)


def brute_force_union_counts(words, n_max):
    """Sizes of the unions of the words' distinct-substring sets per length."""
    words = [tuple(w) for w in words]
    return [0] + [len({w[i:i + n] for w in words for i in range(len(w) - n + 1)})
                  for n in range(1, n_max + 1)]


def random_word_list(rng, sigma):
    """Fresh words, repeats, and prefixes, suffixes and inner factors of
    earlier words, some of them one letter long."""
    used = rng.randint(1, sigma)
    words = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.random() if words else 0.0
        if kind < 0.4:
            words.append([rng.randrange(used)
                          for _ in range(rng.randint(1, rng.choice([1, 5, 60])))])
        elif kind < 0.55:
            words.append(list(rng.choice(words)))
        else:
            w = rng.choice(words)
            i, j = sorted(rng.sample(range(len(w) + 1), 2))
            if kind < 0.7:
                i = 0
            elif kind < 0.85:
                j = len(w)
            words.append(w[i:j])
    return words


def joined(rng, words):
    """The words separated by -1, with a leading, trailing or doubled -1 at
    random."""
    codes = [-1] * rng.randint(0, 2)
    for w in words:
        codes += w + [-1] * rng.randint(1, 3)
    if rng.random() < 0.5:
        while codes and codes[-1] == -1:
            codes.pop()
    return np.array(codes, dtype=np.int32)


def test_backend_is_reported():
    assert kernels.BACKEND == "python"


class TestTighten:
    """``words.tighten_raw`` on expanded int32 words, as map iterates feed it."""

    def test_matches_python_reference(self):
        rng = random.Random(1)
        for _ in range(300):
            word = np.array(random_word(rng, 3, rng.randint(0, 200)),
                            dtype=np.int32)
            out = tighten_raw(word.tolist())
            assert all(type(c) is int for c in out)
            assert out == naive_tighten(tuple(word))

    def test_large_word(self):
        rng = random.Random(2)
        word = np.array(random_word(rng, 2, 100_000), dtype=np.int32)
        out = np.asarray(tighten_raw(word.tolist()), dtype=np.int32)
        assert not np.any(out[1:] == (out[:-1] ^ 1))
        # cancelling a reduced word's inverse against it leaves nothing
        inverse = out[::-1] ^ 1
        assert tighten_raw(np.concatenate([out, inverse]).tolist()) == ()


class TestExpand:
    def test_matches_python_reference(self):
        rng = random.Random(3)
        for _ in range(100):
            sigma = rng.randint(1, 6)
            images = [[rng.randrange(sigma) for _ in range(rng.randint(0, 4))]
                      for _ in range(sigma)]
            word = np.array([rng.randrange(sigma)
                             for _ in range(rng.randint(0, 50))], dtype=np.int32)
            out = expand_codes(word, image_pieces(images))
            assert out.typecode == "i"
            assert out.tolist() == list_expand(word.tolist(), images)

    def test_empty_word(self):
        pieces = image_pieces([[0]])
        assert expand_codes(np.array([], dtype=np.int32), pieces).size == 0


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

    def test_word_lists_match_the_union_of_substring_sets(self):
        rng = random.Random(6)
        for _ in range(400):
            sigma = rng.randint(1, 6)
            words = random_word_list(rng, sigma)
            n_max = rng.randint(1, max(map(len, words)) + 5)
            counts = substring_counts(joined(rng, words), sigma, n_max)
            assert list(counts) == brute_force_union_counts(words, n_max)

    def test_repeats_and_factors_change_no_count(self):
        # once a word is in, its repeats and factors change no count
        word = [0, 1, 1, 0, 2, 0, 1]
        alone = substring_counts(np.array(word, dtype=np.int32), 3, 10)
        codes = word + [-1] + word + [-1, -1] + word[2:5] + [-1] + word[:1]
        again = substring_counts(np.array(codes, dtype=np.int32), 3, 10)
        assert list(again) == list(alone)

    def test_separators_alone(self):
        codes = np.array([-1, -1], dtype=np.int32)
        assert list(substring_counts(codes, 2, 3)) == [0, 0, 0, 0]

    def test_depth_beyond_the_word(self):
        word = np.array([0, 1, 0, 0, 1], dtype=np.int32)
        assert list(substring_counts(word, 2, 7)) == [0, 2, 3, 3, 2, 1, 0, 0]

    def test_list_array_and_numpy_inputs_agree(self):
        codes = [-1, -1, 0, 1, 1, 0, 2, -1, -1, 2, 1, 0, 1, -1, -1]
        want = brute_force_union_counts([[0, 1, 1, 0, 2], [2, 1, 0, 1]], 7)
        for given in (codes, array("i", codes), np.array(codes, dtype=np.int32)):
            assert substring_counts(given, 3, 7) == want

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_depth_below_one_is_a_domain_error(self, n_max):
        with pytest.raises(DomainError, match="n_max must be >= 1"):
            substring_counts([0, 1], 2, n_max)
