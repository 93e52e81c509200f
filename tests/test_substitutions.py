import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lamtool import (GraphSelfMap, Substitution, analyze_matrix,
                     complexity_counts, eigenray_prefix, factor_language,
                     from_train_track, growth_equivalence_witness,
                     orientability)
from lamtool import substitutions
from lamtool.errors import (DomainError, InsufficientDataError,
                            MalformedInputError, NotAnEigenletterError,
                            SizeCapExceeded)
from lamtool.kernels import substring_counts
from lamtool.laminations import SubstitutionSource
from lamtool.substitutions import (counting_certificate, eigen_exponent,
                                   length2_factors, linear_fit_constant)

from conftest import (arnoux_rauzy_substitution, certificate_oracle,
                      fibonacci_word, iter_factors_raw, ray_slices_walk,
                      string_factors, thue_morse_complexity, thue_morse_word)


@pytest.fixture
def fib():
    return Substitution.from_tokens({"a": ["a", "b"], "b": ["a"]})


@pytest.fixture
def thue_morse():
    return Substitution.from_tokens({"a": ["a", "b"], "b": ["b", "a"]})


def word_str(sub, codes):
    return "".join(sub.letters[int(c)] for c in codes)


def ray_str(sub, word):
    """A code-point ``str`` word, spelt in the letters' names."""
    return word.translate(dict(enumerate(sub.letters)))


class TestSubstitution:
    def test_requires_nonempty_images(self):
        with pytest.raises(MalformedInputError):
            Substitution(["a"], [()])

    def test_unknown_letter_in_rule(self):
        with pytest.raises(MalformedInputError):
            Substitution.from_tokens({"a": ["a", "c"]})

    def test_occurrence_matrix(self, fib):
        assert fib.occurrence_matrix() == ((1, 1), (1, 0))

    def test_primitivity(self, fib):
        assert fib.is_primitive()
        assert not Substitution.from_tokens({"a": ["b"], "b": ["a"]}).is_primitive()


class TestFromTrainTrack:
    def test_orientable_restricts_verbatim(self, fib_map):
        sub = from_train_track(fib_map, orientability(fib_map))
        rules = {letter: word_str(sub, img)
                 for letter, img in zip(sub.letters, sub.images)}
        assert rules == {"a": "ab", "b": "a"}

    def test_nonorientable_doubles_the_alphabet(self, nonorientable_map):
        orn = orientability(nonorientable_map)
        sub = from_train_track(nonorientable_map, orn)
        assert set(sub.letters) == {"a", "a'", "b", "b'"}
        rules = {letter: tuple(sub.letters[c] for c in img)
                 for letter, img in zip(sub.letters, sub.images)}
        # the inverse-image rule f(e') = f(e)' expanded by hand
        assert rules["a"] == ("a", "b")
        assert rules["b"] == ("a'",)
        assert rules["a'"] == ("b'", "a'")
        assert rules["b'"] == ("a",)

    def test_result_is_primitive_by_matrix_test(self, nonorientable_map):
        sub = from_train_track(nonorientable_map, orientability(nonorientable_map))
        assert analyze_matrix(sub.occurrence_matrix()).primitive

    def test_orientation_reversing_map_gives_a_period_two_substitution(self, rose2):
        # f(a) = a' b', f(b) = a' is primitive and expanding but sends the
        # side {a, b'} to the side {a', b}: the counting routes refuse it
        al = rose2.alphabet
        gsm = GraphSelfMap(rose2, [0], [al.parse("a' b'"), al.parse("a'")])
        sub = from_train_track(gsm, orientability(gsm))
        analysis = analyze_matrix(sub.occurrence_matrix())
        assert analysis.irreducible and not analysis.primitive
        with pytest.raises(DomainError, match="primitive substitution"):
            factor_language(sub, 4)
        with pytest.raises(DomainError, match="primitive substitution"):
            complexity_counts(sub, 4)


class TestEigenrays:
    def test_fibonacci_prefix(self, fib):
        assert ray_str(fib, eigenray_prefix(fib, "a", 8)) == "abaababa"

    def test_thue_morse_prefix(self, thue_morse):
        assert ray_str(thue_morse, eigenray_prefix(thue_morse, "a", 8)) == "abbabaab"

    def test_nested_prefixes(self, fib):
        long = ray_str(fib, eigenray_prefix(fib, "a", 50))
        short = ray_str(fib, eigenray_prefix(fib, "a", 20))
        assert long.startswith(short)

    def test_exponent_follows_first_letter_cycle(self):
        sub = Substitution.from_tokens({"a": ["b", "a"], "b": ["a", "b"]})
        # first letters swap a <-> b, so the eigen exponent is 2
        assert eigen_exponent(sub, sub.index("a")) == 2

    def test_letter_off_the_cycle_rejected(self):
        sub = Substitution.from_tokens({"a": ["a", "b"], "b": ["a"]})
        with pytest.raises(NotAnEigenletterError):
            eigen_exponent(sub, sub.index("b"))

    def test_agrees_with_hand_recursions(self, fib, thue_morse):
        assert ray_str(fib, eigenray_prefix(fib, "a", 500)) == fibonacci_word(500)
        assert ray_str(thue_morse, eigenray_prefix(thue_morse, "a", 512)) == \
            thue_morse_word(512)


class TestFactorLanguage:
    def test_fibonacci_counts(self, fib):
        lang = factor_language(fib, 3)
        assert [lang.p(n) for n in (1, 2, 3)] == [2, 3, 4]

    def test_thue_morse_counts(self, thue_morse):
        lang = factor_language(thue_morse, 3)
        assert [lang.p(n) for n in (1, 2, 3)] == [2, 4, 6]

    def test_constant_substitution(self):
        sub = Substitution.from_tokens({"a": ["a", "a"]})
        lang = factor_language(sub, 6)
        assert [lang.p(n) for n in range(1, 7)] == [1] * 6

    def test_non_primitive_rejected(self):
        sub = Substitution.from_tokens({"a": ["b"], "b": ["a"]})
        with pytest.raises(DomainError):
            factor_language(sub, 3)

    def test_depth_over_the_cap_refused_before_expanding(self, fib, monkeypatch):
        def no_expand(*args):
            raise AssertionError("expanded past the cap")

        monkeypatch.setattr(Substitution, "apply", no_expand)
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "1000")
        with pytest.raises(SizeCapExceeded) as err:
            factor_language(fib, 1001)
        assert err.value.attempted == 1001

    def test_members_match_brute_force_on_long_prefix(self, fib):
        lang = factor_language(fib, 6)
        oracle = {f for f in string_factors(fibonacci_word(400), 6)}
        got = {word_str(fib, m) for n in range(1, 7) for m in lang.strata[n]}
        assert got == oracle

    def test_counting_route_matches_materialized(self, fib, thue_morse):
        for sub in (fib, thue_morse):
            lang = factor_language(sub, 12)
            counts = complexity_counts(sub, 12)
            assert [lang.p(n) for n in range(1, 13)] == list(counts[1:])

    def test_subword_closure_and_monotone_submultiplicative(self, thue_morse):
        lang = factor_language(thue_morse, 10)
        members = {m for n in range(1, 11) for m in lang.strata[n]}
        for m in members:
            if len(m) > 1:
                assert m[1:] in members and m[:-1] in members
        p = lang.p_counts()
        for i in range(len(p) - 1):
            assert p[i] <= p[i + 1]
        for n in range(1, 11):
            for k in range(1, 11 - n):
                assert p[n + k - 1] <= p[n - 1] * p[k - 1]


class TestComplexityTable:
    def test_fibonacci_beta(self, fib):
        beta = SubstitutionSource(fib).beta_counts(5)
        assert beta[-1] == sum(factor_language(fib, 5).p_counts()) == 20  # 2+3+4+5+6

    def test_beta_1_equals_p_1(self, thue_morse):
        source = SubstitutionSource(thue_morse)
        assert source.beta_counts(4)[0] == source.p_counts(4)[0]

    def test_linear_fit(self, fib):
        assert linear_fit_constant(complexity_counts(fib, 20)[1:]) == 2.0


class TestGrowthEquivalence:
    def test_identical_tables(self):
        table = [n + 1 for n in range(1, 31)]
        assert growth_equivalence_witness(table, table, 8).constant == 1

    def test_doubled_table_needs_c_2(self):
        f = [n + 1 for n in range(1, 31)]
        g = [2 * (n + 1) for n in range(1, 31)]
        assert growth_equivalence_witness(f, g, 8).constant == 2

    def test_linear_vs_exponential_fails(self):
        f = [n + 1 for n in range(1, 41)]
        g = [4 * 3 ** (n - 1) for n in range(1, 41)]
        witness = growth_equivalence_witness(f, g, 6)
        assert witness.constant is None
        assert len(witness.frontier) == 6
        for c, n, side in witness.frontier:
            assert g[n - 1] > c * f[c * n - 1]

    def test_frontier_stops_at_the_first_empty_window(self):
        # g(1) > f(1) fails C = 1, and the window n <= 1 / C is empty for C > 1
        witness = growth_equivalence_witness([2], [4], 10 ** 6)
        assert witness.constant is None
        assert witness.frontier == ((1, 1, "g(n) > C*f(Cn)"), (2, 0, "window empty"))

    def test_empty_tables_rejected(self):
        with pytest.raises(InsufficientDataError):
            growth_equivalence_witness([], [], 4)


class TestCountsAtScale:
    def test_fibonacci_counts_to_1000(self, fib):
        counts = complexity_counts(fib, 1000)
        assert list(counts[1:]) == [n + 1 for n in range(1, 1001)]

    def test_thue_morse_closed_form_to_5000(self, thue_morse):
        counts = complexity_counts(thue_morse, 5000)
        assert list(counts[1:]) == [thue_morse_complexity(n)
                                    for n in range(1, 5001)]

    def test_arnoux_rauzy_closed_form_to_2000(self):
        rng = random.Random(18)
        for k in [2, 3, 4] * 6 + [3, 4]:
            sub = arnoux_rauzy_substitution(rng, k)
            assert sub.is_primitive(), sub
            counts = complexity_counts(sub, 2000)
            assert list(counts[1:]) == [(k - 1) * n + 1 for n in range(1, 2001)], sub

    def test_tribonacci_linear_bound(self):
        sub = Substitution.from_tokens(
            {"a": ["a", "b"], "b": ["a", "c"], "c": ["a"]})
        counts = complexity_counts(sub, 200)
        assert all(counts[n] <= 3 * n for n in range(1, 201))
        assert all(counts[n] <= counts[n + 1] for n in range(1, 200))


@st.composite
def primitive_substitutions(draw):
    sigma = draw(st.integers(2, 4))
    images = [draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=4))
              for _ in range(sigma)]
    sub = Substitution([chr(ord("a") + i) for i in range(sigma)], images)
    assume(sub.is_primitive())
    return sub


def brute_force_factors(sub, n):
    """Every factor of length <= n of theta^j(c), over every letter c and
    every level j <= J + D.

    J is the least level at which every image has length >= 2n, and D the
    least level at which the pairs inside theta^t(c), t <= D, stop growing
    (a level that adds no pair adds none later: the pairs of theta^(t+1)(c)
    are those inside images and theta's boundary pairs of the pairs of
    theta^t(c)).  A factor of length <= n lies in theta^J(xy) for one of
    those pairs xy, which lies in theta^t(c) for some t <= D, so the union
    holds every factor; each word in it is a factor, so it holds no more.
    """
    def step(word):
        return tuple(y for x in word for y in sub.images[x])

    levels = [[(c,) for c in range(sub.sigma)]]
    pairs = [set()]
    while (min(len(w) for w in levels[-1]) < 2 * n
           or len(pairs) < 2 or pairs[-1] != pairs[-2]):
        levels.append([step(w) for w in levels[-1]])
        pairs.append(pairs[-1] | {p for w in levels[-1] for p in zip(w, w[1:])})
    grown = next(j for j, words in enumerate(levels)
                 if min(len(w) for w in words) >= 2 * n)
    settled = next(t for t in range(1, len(pairs)) if pairs[t] == pairs[t - 1]) - 1
    while len(levels) <= grown + settled:
        levels.append([step(w) for w in levels[-1]])
    return {f for words in levels[:grown + settled + 1] for w in words
            for f in iter_factors_raw(w, n)}


class TestFactorLanguageOracle:
    @settings(max_examples=40, deadline=None)
    @given(primitive_substitutions(), st.integers(1, 10))
    def test_matches_brute_force(self, sub, n):
        lang = factor_language(sub, n)
        assert set(lang.all_members()) == brute_force_factors(sub, n)

    def test_alphabet_beyond_one_byte(self):
        # theta(i) = (2i, 2i + 1) mod 257: primitive, every factor is a run
        # of consecutive letters, and codes above 255 collide in one byte
        sigma = 257
        sub = Substitution([f"x{i}" for i in range(sigma)],
                           [((2 * i) % sigma, (2 * i + 1) % sigma)
                            for i in range(sigma)])
        lang = factor_language(sub, 10)
        assert set(lang.all_members()) == brute_force_factors(sub, 10)
        assert lang.p_counts() == [sigma] * 10
        assert (255, 256, 0) in lang.strata[3]


class TestWindowHarvest:
    """factor_language harvests each iterate by its windows, with the stop
    rule, and so the iterates, of a harvest of every length."""

    @staticmethod
    def counted_apply(monkeypatch):
        calls = []
        apply = Substitution.apply

        def counting(self, word):
            calls.append(len(word))
            return apply(self, word)

        monkeypatch.setattr(Substitution, "apply", counting)
        return calls

    def test_words_shorter_than_n_max_for_several_rounds(self):
        # a -> b -> c -> ab: the iterates stay below 12 letters for 8 rounds
        sub = Substitution.from_tokens({"a": ["b"], "b": ["c"], "c": ["a", "b"]})
        lang = factor_language(sub, 12)
        assert set(lang.all_members()) == brute_force_factors(sub, 12)

    @pytest.mark.parametrize("rules, n", [
        ({"a": "ab", "b": "a"}, 17),
        ({"a": "ab", "b": "ba"}, 20),
        ({"a": "abc", "b": "c", "c": "a"}, 15)])
    def test_n_max_above_every_early_iterate(self, rules, n):
        sub = Substitution.from_tokens({k: list(v) for k, v in rules.items()})
        lang = factor_language(sub, n)
        assert set(lang.all_members()) == brute_force_factors(sub, n)

    def test_non_growing_substitution(self, monkeypatch):
        calls = self.counted_apply(monkeypatch)
        lang = factor_language(Substitution.from_tokens({"a": ["a"]}), 5)
        assert lang.p_counts() == [1, 0, 0, 0, 0]
        assert len(calls) == 1

    @pytest.mark.parametrize("n, rounds", [(60, 48), (40, 42), (30, 42)])
    def test_apply_calls_on_theta_collapse(self, silver_map, monkeypatch, n,
                                           rounds):
        sub = from_train_track(silver_map, orientability(silver_map))
        calls = self.counted_apply(monkeypatch)
        factor_language(sub, n)
        assert len(calls) == rounds

    def test_apply_calls_on_short_iterates(self, monkeypatch):
        sub = Substitution.from_tokens({"a": ["b"], "b": ["c"], "c": ["a", "b"]})
        calls = self.counted_apply(monkeypatch)
        factor_language(sub, 12)
        assert len(calls) == 48

    def test_rows_hold_the_strata(self, fib):
        lang = factor_language(fib, 8)
        for n in range(1, 9):
            rows = lang.rows[n]
            assert len(rows) == len(set(rows)) == lang.p(n)
            assert all(len(row) == n for row in rows)
            assert {tuple(map(ord, row)) for row in rows} == lang.strata[n]

    SIX_LETTER = {"a": "abc", "b": "cd", "c": "ea", "d": "fb", "e": "afd", "f": "ba"}

    @pytest.mark.parametrize("name, names", [
        ("theta_collapse", None), ("theta_collapse", "fcaebd"),
        ("six_letter", None), ("six_letter", "dfbace")])
    def test_depth_60_matches_the_counting_route(self, silver_map, name, names):
        # the oracle of TestFactorLanguageOracle stops at n = 10
        if name == "theta_collapse":
            sub = from_train_track(silver_map, orientability(silver_map))
        else:
            sub = Substitution.from_tokens(
                {k: list(v) for k, v in self.SIX_LETTER.items()})
        if names:  # letter i renamed names[i], which reorders the codes
            sub = Substitution.from_tokens(
                {names[i]: [names[c] for c in img] for i, img in enumerate(sub.images)})
        assert factor_language(sub, 60).p_counts() == complexity_counts(sub, 60)[1:]

    def test_independent_of_the_counting_route(self, fib, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factor_language used the counting route")

        for name in ("counting_certificate", "eigenray_prefix",
                     "complexity_counts", "substring_counts"):
            monkeypatch.setattr(substitutions, name, refuse)
        lang = factor_language(fib, 30)
        assert lang.p_counts() == [n + 1 for n in range(1, 31)]


@st.composite
def eigenray_targets(draw):
    """A primitive substitution, one of its eigenletters and a target
    length."""
    sub = draw(primitive_substitutions())
    seeds = []
    for seed in range(sub.sigma):
        try:
            eigen_exponent(sub, seed)
        except NotAnEigenletterError:
            continue
        seeds.append(seed)
    assume(seeds)
    return sub, draw(st.sampled_from(seeds)), draw(st.integers(1, 400))


def recorded_expansions(monkeypatch):
    """The length of every ``expand_codes`` output, in call order."""
    expand, sizes = substitutions.expand_codes, []

    def recorded(*args):
        out = expand(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(substitutions, "expand_codes", recorded)
    return sizes


class TestExpansionBounds:
    """The work follows what is read: the eigenray search expands at most
    one image past its target, and the count at most the slice letters
    that the cap is charged."""

    @settings(max_examples=80, deadline=None)
    @given(eigenray_targets())
    def test_eigenray_expands_at_most_one_image_past_the_target(self, case):
        sub, seed, target = case
        with pytest.MonkeyPatch.context() as patch:
            sizes = recorded_expansions(patch)
            got = eigenray_prefix(sub, seed, target)
        # every kept block but the last lies below the target, and
        # |theta(c)| <= |theta^j(c)|
        assert max(sizes, default=0) <= target + max(map(len, sub.images)) - 1
        e, word = eigen_exponent(sub, seed), (seed,)
        while len(word) < target:
            for _ in range(e):
                word = tuple(y for x in word for y in sub.images[x])
        assert got == "".join(map(chr, word[:target]))

    @settings(max_examples=60, deadline=None)
    @given(primitive_substitutions(), st.integers(1, 300))
    def test_counting_expands_within_the_prefix(self, sub, n):
        search, certs = substitutions.counting_certificate, []
        with pytest.MonkeyPatch.context() as patch:
            sizes = recorded_expansions(patch)

            def certified(*args):
                certs.append(search(*args))
                sizes.clear()  # the search's own expansions
                return certs[0]

            patch.setattr(substitutions, "counting_certificate", certified)
            complexity_counts(sub, n)
        cert = certs[0]
        # k rounds over every letter; the last writes each block
        # theta^k(c) once, and each lies whole inside a slice
        assert len(sizes) == cert.power * sub.sigma
        assert sum(sizes[len(sizes) - sub.sigma:]) <= cert.slice_letters
        assert max(sizes, default=0) <= cert.slice_letters


class TestEigenrayWindows:
    """The windows of theta^k(Q), for Q the certified eigenray prefix: the
    certificate's slices, which ``complexity_counts`` cuts from one block
    per letter."""

    @settings(max_examples=60, deadline=None)
    @given(primitive_substitutions(), st.integers(1, 100))
    def test_windows_are_the_sliced_prefix(self, sub, n):
        read = []

        def recorded(codes, sigma, n_max):
            read.append(codes)
            return substring_counts(codes, sigma, n_max)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(substitutions, "substring_counts", recorded)
            complexity_counts(sub, n)
        cert = counting_certificate(sub, n)
        # theta^k(Q) by tuple expansion, not by the blocks
        whole = tuple(map(ord, cert.prefix))
        for _ in range(cert.power):
            whole = tuple(y for x in whole for y in cert.sub.images[x])
        assert cert.slices[-1][1] <= len(whole)
        text = "".join(map(chr, whole))
        assert read == [chr(sub.sigma).join(text[start:stop]
                                            for start, stop in cert.slices)]

    def test_touching_windows_at_both_ends(self):
        # blocks of 3 letters: the blocks of the first a and the first b,
        # (0, 3) and (3, 6), touch and merge into the whole prefix, the run
        # of Q's first two blocks
        assert substitutions._ray_slices("\0\1", [], [3, 3], 1) == \
            (((0, 6),), ((0, 2, 0),))
        assert ray_slices_walk((0, 1), [3, 3], 1) == ((0, 6),)
        # with n_max = 2 the boundaries a|b and b|a add (2, 4) and (5, 7),
        # which overlap the blocks; the slice ends inside the third block
        assert substitutions._ray_slices(
            "\0\1\0", ["\0\1", "\1\0"], [3, 3], 2) == \
            (((0, 7),), ((0, 3, 0),))
        assert ray_slices_walk((0, 1, 0), [3, 3], 2) == ((0, 7),)

    def test_counting_expands_about_the_slices(self, monkeypatch):
        # the search's short ray prefixes and one block per letter stay
        # within twice the slices' letters
        six = Substitution.from_tokens(
            {k: list(v) for k, v in dict(a="abc", b="cd", c="ea", d="fb",
                                         e="afd", f="ba").items()})
        letters = []
        expand = substitutions.expand_codes

        def counted(*args):
            out = expand(*args)
            letters.append(out.size)
            return out

        monkeypatch.setattr(substitutions, "expand_codes", counted)
        cert = counting_certificate(six, 2000)
        complexity_counts(six, 2000)
        assert sum(letters) <= 2 * cert.slice_letters


FIB_RULES = {"a": "ab", "b": "a"}
BAD_TARGETS = [
    pytest.param(FIB_RULES, "a", 0, DomainError,
                 "target length must be >= 1", id="zero"),
    pytest.param(FIB_RULES, "a", -3, DomainError,
                 "target length must be >= 1", id="negative"),
    pytest.param(FIB_RULES, "b", 20, NotAnEigenletterError,
                 "'b' never returns to first position", id="off_the_cycle"),
    pytest.param({"a": "a", "b": "ba"}, "a", 20, NotAnEigenletterError,
                 "'a' is periodic and never grows", id="periodic"),
    pytest.param(FIB_RULES, "c", 20, MalformedInputError,
                 "unknown letter 'c'", id="unknown_letter"),
    pytest.param(FIB_RULES, "a", 101, SizeCapExceeded,
                 "eigenray prefix needs 101 int32 words, over the cap 100",
                 id="over_the_cap"),
]


class TestEigenrayTargets:
    """``eigenray_prefix`` refuses a seed or a target it cannot serve, under
    a cap of 100 letters, before it expands anything."""

    @pytest.mark.parametrize("rules, seed, target, error, match", BAD_TARGETS)
    def test_bad_targets_refused(self, monkeypatch, rules, seed, target,
                                 error, match):
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "100")
        sub = Substitution.from_tokens({k: list(v) for k, v in rules.items()})
        with pytest.raises(error, match=match):
            eigenray_prefix(sub, seed, target)

    @pytest.mark.parametrize("rules, seed, target, error, match", BAD_TARGETS)
    def test_bad_targets_refused_before_expanding(self, monkeypatch, rules,
                                                  seed, target, error, match):
        def no_expand(*args):
            raise AssertionError("expanded before checking the target")

        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "100")
        monkeypatch.setattr(substitutions, "expand_codes", no_expand)
        sub = Substitution.from_tokens({k: list(v) for k, v in rules.items()})
        with pytest.raises(error, match=match):
            eigenray_prefix(sub, seed, target)

    def test_target_at_the_cap_is_served(self, fib, monkeypatch):
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "100")
        assert ray_str(fib, eigenray_prefix(fib, "a", 100)) == \
            fibonacci_word(100)


class TestCertifiedCounting:
    @settings(max_examples=60, deadline=None)
    @given(primitive_substitutions())
    def test_matches_factor_language(self, sub):
        lang = factor_language(sub, 12)
        counts = complexity_counts(sub, 12)
        assert list(counts[1:]) == [lang.p(n) for n in range(1, 13)]

    @settings(max_examples=60, deadline=None)
    @given(primitive_substitutions())
    def test_block_lengths_are_the_iterated_images(self, sub):
        words = [(c,) for c in range(sub.sigma)]
        for lengths in islice(sub.block_lengths(), 7):
            assert lengths == [len(word) for word in words]
            words = [tuple(y for x in word for y in sub.images[x])
                     for word in words]

    @settings(max_examples=80, deadline=None)
    @given(primitive_substitutions(), st.integers(1, 300))
    def test_certificate_matches_the_oracle(self, sub, n):
        cert = counting_certificate(sub, n)
        assert (cert.sub.images, cert.seed, cert.power,
                tuple(map(ord, cert.prefix)), cert.slices) == \
            certificate_oracle(sub, n)

    def test_non_primitive_input_is_refused_not_searched(self):
        # a -> ab, b -> b: b's block stays one letter long, so a search for
        # the power that makes every block n_max long would never end
        child = ("from lamtool.errors import DomainError\n"
                 "from lamtool.substitutions import Substitution, "
                 "counting_certificate\n"
                 "try:\n"
                 "    counting_certificate(Substitution(['a', 'b'], "
                 "[(0, 1), (1,)]), 5)\n"
                 "except DomainError as exc:\n"
                 "    print(exc)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "complexity counting requires a primitive substitution\n"

    def test_fixed_letter_has_no_eigenray(self):
        # a -> a is primitive, but its block never grows to n_max letters
        with pytest.raises(NotAnEigenletterError, match="no letter generates"):
            complexity_counts(Substitution(["a"], [(0,)]), 5)

    def test_length2_factors_of_fibonacci(self, fib):
        assert length2_factors(fib) == {(0, 0), (0, 1), (1, 0)}

    def test_certificate_reads_off_the_prefix_length(self, fib):
        cert = counting_certificate(fib, 1000)
        # theta itself wins: its ray from a is a b a a b a b a, Q = a b a a,
        # and |theta^16(a)| = 2584, |theta^16(b)| = 1597 >= 1000 > 987 =
        # |theta^15(b)|.  The mirror's Q = b a a b ties on the slice total,
        # and ties go to the first found
        assert cert.sub.images == ((0, 1), (0,))
        assert (cert.seed, cert.power) == (0, 16)
        assert len(cert.prefix) == 4

    def test_theta_collapse_past_n_43(self, silver_map):
        sub = from_train_track(silver_map, orientability(silver_map))
        counts = complexity_counts(sub, 45)
        assert list(counts[43:46]) == [388, 400, 412]

    def test_certificate_ignores_letter_names_and_mirroring(self):
        rules = {"a": "abc", "b": "cd", "c": "ea", "d": "fb", "e": "afd",
                 "f": "ba"}
        renamed = {"f": "fed", "e": "dc", "d": "bf", "c": "ae", "b": "fac",
                   "a": "ef"}
        mirrored = {k: v[::-1] for k, v in rules.items()}
        for n_max in (300, 2000):
            totals = {
                counting_certificate(Substitution.from_tokens(
                    {k: list(v) for k, v in r.items()}), n_max).slice_letters
                for r in (rules, renamed, mirrored)}
            assert len(totals) == 1
        assert totals == {77852}

    @settings(max_examples=40, deadline=None)
    @given(primitive_substitutions(), st.integers(1, 40))
    def test_slices_count_what_the_whole_prefix_counts(self, sub, n):
        cert = counting_certificate(sub, n)
        # theta^k(Q) by tuple expansion: with k no multiple of the eigen
        # exponent it need not be a prefix of the ray
        whole = tuple(map(ord, cert.prefix))
        for _ in range(cert.power):
            whole = tuple(y for x in whole for y in cert.sub.images[x])
        whole = "".join(map(chr, whole))
        assert cert.slice_letters <= len(whole)
        bounds = [b for window in cert.slices for b in window]
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
        assert 0 <= bounds[0] and bounds[-1] <= len(whole)
        read = []

        def recorded(codes, sigma, n_max):
            read.append(codes)
            return substring_counts(codes, sigma, n_max)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(substitutions, "substring_counts", recorded)
            counts = complexity_counts(sub, n)
        assert list(counts[1:]) == factor_language(sub, n).p_counts()
        assert counts == substring_counts(whole, sub.sigma, n)
        # the automaton reads the slices of the whole word, joined by a
        # separator that is no letter
        assert read[0] == chr(sub.sigma).join(whole[start:stop]
                                              for start, stop in cert.slices)

    def test_fibonacci_slices(self, fib):
        cert = counting_certificate(fib, 1000)
        # Q = a b a a: blocks 2584, 1597, 2584, 2584; the block of the first
        # a, the block of b, and 999 letters on each side of the boundaries
        # a|b, b|a and a|a.  The first slice is cut from the run of Q's first
        # three blocks, the second from the last two, from 2584 + 1597 on
        assert cert.prefix == "\0\1\0\0"
        assert cert.slices == ((0, 2584 + 1597 + 999),
                               (2 * 2584 + 1597 - 999, 2 * 2584 + 1597 + 999))
        assert cert.runs == ((0, 3, 0), (2, 4, 2584 + 1597))
        assert cert.slice_letters == 2584 + 1597 + 999 + 2 * 999

    def test_cap_refuses_before_expanding(self, fib, monkeypatch):
        # the search expands short ray prefixes, never one past the cap
        letters = counting_certificate(fib, 1000).slice_letters
        sizes = recorded_expansions(monkeypatch)
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", str(letters - 1))
        with pytest.raises(SizeCapExceeded) as err:
            complexity_counts(fib, 1000)
        assert err.value.attempted == letters
        assert max(sizes) <= letters - 1

    def test_cap_bounds_the_search(self, fib, monkeypatch):
        # every seed's Q has 4 letters (a b a a on the winning side): under a
        # cap of 3 each is skipped, and the 4 letters of a ray that Q needs
        # are refused
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "3")
        with pytest.raises(SizeCapExceeded, match="eigenray prefix") as err:
            counting_certificate(fib, 5)
        assert err.value.attempted == 4
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "4")
        assert counting_certificate(fib, 5).prefix == "\0\1\0\0"

    def test_cap_equal_to_the_prefix_suffices(self, fib, monkeypatch):
        letters = counting_certificate(fib, 1000).slice_letters
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", str(letters))
        counts = complexity_counts(fib, 1000)
        assert np.array_equal(counts[1:], np.arange(2, 1002))
