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
                      fibonacci_word, iter_factors_raw, string_factors,
                      thue_morse_complexity, thue_morse_word)


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


@st.composite
def eigenray_windows(draw):
    """A primitive substitution, one of its eigenletters, a target length
    and sorted, disjoint, nonempty windows of the prefix of that length."""
    sub = draw(primitive_substitutions())
    seeds = []
    for seed in range(sub.sigma):
        try:
            eigen_exponent(sub, seed)
        except NotAnEigenletterError:
            continue
        seeds.append(seed)
    assume(seeds)
    target = draw(st.integers(1, 400))
    bounds = sorted(draw(st.sets(st.integers(0, target), min_size=2, max_size=8)))
    if draw(st.booleans()):
        bounds = sorted({0, target, *bounds})
    windows = list(zip(bounds[::2], bounds[1::2]))
    return sub, draw(st.sampled_from(seeds)), target, windows


class TestEigenrayWindows:
    @settings(max_examples=80, deadline=None)
    @given(eigenray_windows())
    def test_windows_are_the_sliced_prefix(self, case):
        sub, seed, target, windows = case
        whole = eigenray_prefix(sub, seed, target)
        assert whole.size == target
        got = eigenray_prefix(sub, seed, target, windows)
        assert got == "".join(whole[start:stop] for start, stop in windows)

    def test_touching_windows_at_both_ends(self, fib):
        word = fibonacci_word(500)
        got = eigenray_prefix(fib, "a", 500, [(0, 3), (7, 20), (20, 21), (497, 500)])
        assert ray_str(fib, got) == word[:3] + word[7:21] + word[497:]

    @pytest.mark.parametrize("windows", [
        [(5, 9), (0, 3)],      # unsorted
        [(0, 6), (5, 9)],      # overlapping
        [(3, 3)],              # empty
        [(-1, 4)],             # before the prefix
        [(8, 21)],             # past its end
        [(1, 2, 3)],           # not a pair
        []])                   # none
    def test_bad_windows_refused(self, fib, windows):
        with pytest.raises(DomainError, match="windows must"):
            eigenray_prefix(fib, "a", 20, windows)

    def test_bad_windows_refused_before_expanding(self, fib, monkeypatch):
        def no_expand(*args):
            raise AssertionError("expanded before checking the windows")

        monkeypatch.setattr(substitutions, "expand_codes", no_expand)
        with pytest.raises(DomainError):
            eigenray_prefix(fib, "a", 20, [(4, 8), (2, 3)])

    def test_counting_expands_about_the_slices(self, monkeypatch):
        # expanding all of theta^k(Q) writes 10 times the slices' letters
        # over its rounds; only the letters whose blocks meet a slice are
        # expanded
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
        assert cert.letters > 3 * cert.slice_letters
        assert sum(letters) <= 2 * cert.slice_letters


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
        assert (cert.sub.images, cert.seed, cert.power, cert.letters,
                cert.prefix, cert.slices) == certificate_oracle(sub, n)

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
        # the mirror a -> ba, b -> a wins: its ray from b is b a a b a b a a,
        # Q = b a a b, and |theta^16(a)| = 2584, |theta^16(b)| = 1597
        assert cert.sub.images == ((1, 0), (0,))
        assert (cert.seed, cert.power) == (1, 16)
        assert cert.letters == 2 * 2584 + 2 * 1597

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
        letters = {
            counting_certificate(Substitution.from_tokens(
                {k: list(v) for k, v in r.items()}), 300).letters
            for r in (rules, renamed, mirrored)}
        assert len(letters) == 1
        for n_max in (300, 2000):
            totals = {
                counting_certificate(Substitution.from_tokens(
                    {k: list(v) for k, v in r.items()}), n_max).slice_letters
                for r in (rules, renamed, mirrored)}
            assert len(totals) == 1
        assert totals == {78142}

    @settings(max_examples=40, deadline=None)
    @given(primitive_substitutions(), st.integers(1, 40))
    def test_slices_count_what_the_whole_prefix_counts(self, sub, n):
        cert = counting_certificate(sub, n)
        assert cert.slice_letters <= cert.letters
        bounds = [b for window in cert.slices for b in window]
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)
        assert 0 <= bounds[0] and bounds[-1] <= cert.letters
        read = []

        def recorded(codes, sigma, n_max):
            read.append(codes)
            return substring_counts(codes, sigma, n_max)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(substitutions, "substring_counts", recorded)
            counts = complexity_counts(sub, n)
        assert list(counts[1:]) == factor_language(sub, n).p_counts()
        ray = eigenray_prefix(cert.sub, cert.seed, cert.letters)
        assert counts == substring_counts(ray, sub.sigma, n)
        # the automaton reads the slices of the whole prefix, joined by a
        # separator that is no letter
        assert read[0] == chr(sub.sigma).join(ray[start:stop]
                                              for start, stop in cert.slices)

    def test_fibonacci_slices(self, fib):
        cert = counting_certificate(fib, 1000)
        # Q = b a a b: blocks 1597, 2584, 2584, 1597; the block of b, the
        # block of the first a, and 999 letters on each side of the
        # boundaries b|a, a|a and a|b
        assert cert.prefix == (1, 0, 0, 1)
        assert cert.slices == ((0, 1597 + 2584 + 999),
                               (1597 + 2 * 2584 - 999, 1597 + 2 * 2584 + 999))
        assert cert.slice_letters == 1597 + 2584 + 999 + 2 * 999

    def test_cap_refuses_before_expanding(self, fib, monkeypatch):
        # the search expands short ray prefixes, never one past the cap
        letters = counting_certificate(fib, 1000).letters
        expand, sizes = substitutions.expand_codes, []

        def recorded(*args):
            out = expand(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(substitutions, "expand_codes", recorded)
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", str(letters - 1))
        with pytest.raises(SizeCapExceeded) as err:
            complexity_counts(fib, 1000)
        assert err.value.attempted == letters
        assert max(sizes) <= letters - 1

    def test_cap_bounds_the_search(self, fib, monkeypatch):
        # every seed's Q has 4 letters (b a a b on the winning side): under a
        # cap of 3 each is skipped, and |theta^k(Q)| >= 4 n_max is refused
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "3")
        with pytest.raises(SizeCapExceeded, match="eigenray prefix") as err:
            counting_certificate(fib, 5)
        assert err.value.attempted == 4 * 5
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "4")
        assert counting_certificate(fib, 5).prefix == (1, 0, 0, 1)

    def test_cap_equal_to_the_prefix_suffices(self, fib, monkeypatch):
        letters = counting_certificate(fib, 1000).letters
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", str(letters))
        counts = complexity_counts(fib, 1000)
        assert np.array_equal(counts[1:], np.arange(2, 1002))
