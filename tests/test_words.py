import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamtool import EdgeAlphabet, Substitution, complexity_counts, factor_language
from lamtool.errors import DomainError, MalformedInputError
from lamtool.words import cyclic_tighten_raw, inverse_codes, tighten_raw

from conftest import (fibonacci_word, is_reduced, iter_factors_raw,
                      naive_cyclic_tighten, naive_tighten, random_reduced_word,
                      random_word, string_factors)


@pytest.fixture
def ab():
    return EdgeAlphabet(["a", "b"])


class TestAlphabet:
    def test_involution_is_fixed_point_free(self, ab):
        for c in ab.letters():
            # c ^ 1 is the same edge, read the other way
            assert ab.token(c ^ 1) != ab.token(c)
            assert ab.token(c ^ 1).rstrip("'") == ab.token(c).rstrip("'")
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
        assert tighten_raw(ab.parse("a a'")) == naive_tighten(ab.parse("a a'")) == ()

    def test_single_cancellation(self, ab):
        word = ab.parse("a b b' a")
        assert tighten_raw(word) == naive_tighten(word) == ab.parse("a a")

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
        with pytest.raises(MalformedInputError, match="letter code 9"):
            ab.format((9,))

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_three_letters(self, letters):
        word = tuple(letters)
        assert tighten_raw(word) == naive_tighten(word)


class TestCyclicTighten:
    def test_conjugation_collapse(self, ab):
        word = ab.parse("b a b'")
        assert cyclic_tighten_raw(word) == naive_cyclic_tighten(word) == ab.parse("a")

    def test_already_cyclically_reduced(self, ab):
        assert cyclic_tighten_raw(ab.parse("a b")) == ab.parse("a b")

    def test_never_longer_than_tighten(self, ab):
        rng = random.Random(99)
        for _ in range(1000):
            word = random_word(rng, 2, rng.randint(0, 40))
            assert len(naive_cyclic_tighten(word)) <= len(naive_tighten(word))
            got = cyclic_tighten_raw(word)
            assert len(got) == len(naive_cyclic_tighten(word))

    def test_result_is_cyclically_reduced(self, ab):
        rng = random.Random(5)
        for _ in range(300):
            word = random_word(rng, 2, rng.randint(1, 30))
            got = cyclic_tighten_raw(word)
            if len(got) >= 2:
                assert got[0] != got[-1] ^ 1


class TestFactors:
    def test_direct_enumeration(self, ab):
        got = set(iter_factors_raw(ab.parse("a b a"), 2))
        assert {ab.format(f) for f in got} == {"a", "b", "a b", "b a"}

    def test_length_one_factors_are_letters(self, ab):
        rng = random.Random(11)
        for _ in range(50):
            word = random_reduced_word(rng, 2, rng.randint(1, 20))
            letters = {f[0] for f in iter_factors_raw(word, 1)}
            assert letters == set(word)

    def test_fibonacci_prefix_count(self, ab):
        # p(n) = n + 1 for the Fibonacci word, so lengths 1..5 give 2+...+6
        text = fibonacci_word(100)
        codes = ab.parse(" ".join(text))
        got = set(iter_factors_raw(codes, 5))
        assert len(got) == 2 + 3 + 4 + 5 + 6
        oracle = string_factors(text, 5)
        assert {ab.format(f).replace(" ", "") for f in got} == oracle

    def test_zero_is_domain_error(self, ab):
        # a factor length bound is checked where a language is harvested;
        # the raw iterator yields nothing for it
        sub = Substitution.from_tokens({"a": ["a", "b"], "b": ["a"]})
        for harvest in (factor_language, complexity_counts):
            with pytest.raises(DomainError, match="n_max must be >= 1"):
                harvest(sub, 0)
        assert list(iter_factors_raw(ab.parse("a"), 0)) == []

    def test_subword_closure_and_monotonicity(self, ab):
        rng = random.Random(13)
        for _ in range(100):
            word = random_reduced_word(rng, 2, 15)
            small = set(iter_factors_raw(word, 3))
            large = set(iter_factors_raw(word, 4))
            assert small <= large
            for member in small:
                for k in range(1, len(member) + 1):
                    for i in range(len(member) - k + 1):
                        assert member[i:i + k] in small


def test_is_reduced_matches_definition():
    assert is_reduced((0, 2, 1))
    assert not is_reduced((0, 1))
    assert is_reduced(())
