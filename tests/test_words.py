import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamtool import EdgeAlphabet, EdgePath, cyclic_tighten, factors, tighten
from lamtool.errors import DomainError, MalformedInputError, PreconditionError
from lamtool.words import (inverse_codes, is_reduced, least_rotation,
                           tighten_raw)

from conftest import (fibonacci_word, naive_cyclic_tighten, naive_tighten,
                      random_word, string_factors)


@pytest.fixture
def ab():
    return EdgeAlphabet(["a", "b"])


def path(ab, text):
    return EdgePath.from_text(ab, text)


class TestAlphabet:
    def test_involution_is_fixed_point_free(self, ab):
        for c in ab.letters():
            assert ab.inverse(c) != c
            assert ab.inverse(ab.inverse(c)) == c
        assert ab.size == 4 and ab.size % 2 == 0

    def test_token_round_trip(self, ab):
        for c in ab.letters():
            assert ab.index(ab.token(c)) == c

    def test_rejects_bad_names(self):
        with pytest.raises(MalformedInputError):
            EdgeAlphabet(["A"])
        with pytest.raises(MalformedInputError):
            EdgeAlphabet(["a", "a"])
        with pytest.raises(MalformedInputError):
            EdgeAlphabet(["a-"])

    def test_unknown_token(self, ab):
        with pytest.raises(MalformedInputError):
            ab.parse("a c")


class TestTighten:
    def test_full_cancellation(self, ab):
        assert tighten(path(ab, "a a'")).letters == ()

    def test_single_cancellation(self, ab):
        assert tighten(path(ab, "a b b' a")).text() == "a a"

    def test_idempotence_against_naive_oracle(self, ab):
        rng = random.Random(20240811)
        for _ in range(1000):
            word = random_word(rng, 2, rng.randint(0, 50))
            once = tighten_raw(word)
            assert once == naive_tighten(word)
            assert tighten_raw(once) == once
        # long words as well
        for length in (511, 512, 513, 1000, 2000):
            for size in (2, 5):
                word = random_word(rng, size, length)
                once = tighten_raw(word)
                assert once == naive_tighten(word)
                assert tighten_raw(once) == once

    def test_length_non_increasing_and_inverse_kills(self, ab):
        rng = random.Random(7)
        for _ in range(200):
            word = random_word(rng, 2, rng.randint(0, 30))
            assert len(tighten_raw(word)) <= len(word)
            assert tighten_raw(word + inverse_codes(word)) == ()

    def test_foreign_letter_rejected(self, ab):
        with pytest.raises(MalformedInputError):
            EdgePath(ab, (9,))

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_three_letters(self, letters):
        word = tuple(letters)
        assert tighten_raw(word) == naive_tighten(word)


class TestCyclicTighten:
    def test_conjugation_collapse(self, ab):
        assert cyclic_tighten(path(ab, "b a b'")).text() == "a"

    def test_already_cyclically_reduced(self, ab):
        assert cyclic_tighten(path(ab, "a b")).text() == "a b"

    def test_never_longer_than_tighten(self, ab):
        rng = random.Random(99)
        for _ in range(1000):
            word = random_word(rng, 2, rng.randint(0, 40))
            assert len(naive_cyclic_tighten(word)) <= len(naive_tighten(word))
            got = cyclic_tighten(EdgePath(ab, word))
            assert len(got) == len(naive_cyclic_tighten(word))

    def test_result_is_cyclically_reduced(self, ab):
        rng = random.Random(5)
        for _ in range(300):
            word = random_word(rng, 2, rng.randint(1, 30))
            got = cyclic_tighten(EdgePath(ab, word)).letters
            if len(got) >= 2:
                assert got[0] != got[-1] ^ 1

    def test_least_rotation_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(500):
            word = tuple(rng.randrange(6) for _ in range(rng.randint(1, 12)))
            rotations = {word[i:] + word[:i] for i in range(len(word))}
            assert least_rotation(word) == min(rotations)


class TestFactors:
    def test_direct_enumeration(self, ab):
        got = factors(path(ab, "a b a"), 2)
        assert {p.text() for p in got} == {"a", "b", "a b", "b a"}

    def test_length_one_factors_are_letters(self, ab):
        rng = random.Random(11)
        from conftest import random_reduced_word
        for _ in range(50):
            word = random_reduced_word(rng, 2, rng.randint(1, 20))
            letters = {p.letters[0] for p in factors(EdgePath(ab, word), 1)}
            assert letters == set(word)

    def test_fibonacci_prefix_count(self, ab):
        # p(n) = n + 1 for the Fibonacci word, so lengths 1..5 give 2+...+6
        text = fibonacci_word(100)
        codes = ab.parse(" ".join(text))
        got = factors(EdgePath(ab, codes), 5)
        assert len(got) == 2 + 3 + 4 + 5 + 6
        oracle = string_factors(text, 5)
        assert {p.text().replace(" ", "") for p in got} == oracle

    def test_zero_is_domain_error(self, ab):
        with pytest.raises(DomainError):
            factors(path(ab, "a"), 0)

    def test_unreduced_word_rejected(self, ab):
        with pytest.raises(PreconditionError):
            factors(path(ab, "a a'"), 1)

    def test_subword_closure_and_monotonicity(self, ab):
        rng = random.Random(13)
        from conftest import random_reduced_word
        for _ in range(100):
            word = EdgePath(ab, random_reduced_word(rng, 2, 15))
            small = {p.letters for p in factors(word, 3)}
            large = {p.letters for p in factors(word, 4)}
            assert small <= large
            for member in small:
                for k in range(1, len(member) + 1):
                    for i in range(len(member) - k + 1):
                        assert member[i:i + k] in small


def test_is_reduced_matches_definition():
    assert is_reduced((0, 2, 1))
    assert not is_reduced((0, 1))
    assert is_reduced(())
