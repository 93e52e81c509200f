from fractions import Fraction

import pytest

from lamtool import (GraphSelfMap, MarkedMetricGraph, attracting_language,
                     beta_metric, maximal_subtree, transport_compare)
from lamtool.errors import (PreconditionError, SizeCapExceeded,
                            UnderEnumerationError)
from lamtool.laminations import (AttractingSource, FullShiftSource,
                                 MaterializedSource, SubstitutionSource,
                                 fiber_counts, project_language)
from lamtool.substitutions import Substitution
from lamtool.words import inverse_codes, is_reduced

from conftest import naive_iterate_image


class TestAttractingLanguage:
    def test_fibonacci_members_to_depth_two(self, fib_map, rose2):
        lang = attracting_language(fib_map, 2)
        al = rose2.alphabet
        words = {al.format(m) for m in lang.members(1) + lang.members(2)}
        assert words == {"a", "b", "a'", "b'",
                         "a b", "b a", "a a", "b' a'", "a' b'", "a' a'"}
        assert lang.p(1) == 4 and lang.p(2) == 6

    def test_orientable_counts_double_the_positive_part(self, fib_map):
        lang = attracting_language(fib_map, 8)
        fib_p = [n + 1 for n in range(1, 9)]
        assert lang.p_counts() == [2 * p for p in fib_p]

    def test_members_are_reduced_nonempty_paths(self, silver_map):
        lang = attracting_language(silver_map, 8)
        for m in lang.all_members():
            assert len(m) > 0
            assert is_reduced(m)
            assert silver_map.graph.is_edge_path(m)

    def test_inverse_closure(self, fib_map, silver_map, mixed_sign_map):
        for gsm, depth in ((fib_map, 8), (silver_map, 6), (mixed_sign_map, 8)):
            lang = attracting_language(gsm, depth)
            assert not lang.check_invariants()

    def test_nonorientable_language_mixes_signs(self, mixed_sign_map):
        # factors of iterated images carry both signs of a
        lang = attracting_language(mixed_sign_map, 6)
        al = mixed_sign_map.graph.alphabet
        a, ai = al.index("a"), al.index("a'")
        assert any(a in m and ai in m for m in lang.all_members())

    def test_members_agree_with_iterated_image_factors(self, mixed_sign_map):
        # oracle: factors of f^k(e) for k <= 12, both signs of both edges
        oracle = set()
        for code in mixed_sign_map.graph.alphabet.letters():
            for k in range(1, 13):
                if k > 8:
                    break  # lengths triple per step; 8 levels are plenty
                word = naive_iterate_image(mixed_sign_map, code, k)
                for n in (1, 2, 3, 4):
                    for i in range(len(word) - n + 1):
                        oracle.add(word[i:i + n])
        lang = attracting_language(mixed_sign_map, 4)
        got = {m for m in lang.all_members()}
        assert got == oracle

    def test_spec_orientability_example_is_not_train_track(self, nonorientable_map):
        # f(a)=ab, f(b)=a' cancels at f^4(a); attracting_language must refuse
        with pytest.raises(PreconditionError):
            attracting_language(nonorientable_map, 4)

    def test_precondition_failures_rejected(self, permutation_map):
        with pytest.raises(PreconditionError):
            attracting_language(permutation_map, 4)

    def test_subexponential_certificate(self, fib_map):
        # beta <= 2*C*n^2 with the fitted constant stable under doubling
        src = AttractingSource(fib_map)
        for n_max in (20, 40):
            beta = src.beta_counts(n_max)
            fits = [beta[n - 1] / n ** 2 for n in range(1, n_max + 1)]
            assert max(fits) <= 2 * 2  # C' = 2 for the positive part
        fit20 = max(src.beta_counts(20)[n - 1] / n ** 2 for n in range(1, 21))
        fit40 = max(src.beta_counts(40)[n - 1] / n ** 2 for n in range(1, 41))
        assert abs(fit20 - fit40) / fit20 < 0.1


class TestBetaMetric:
    def test_unit_lengths_equal_combinatorial_beta(self, fib_map):
        lang = attracting_language(fib_map, 10)
        for n in (1, 3, 7, 10):
            assert beta_metric(lang, n) == lang.beta(n)

    def test_half_lengths_rescale(self):
        rose = MarkedMetricGraph(
            ["v"], [("a", "v", "v", Fraction(1, 2)), ("b", "v", "v", Fraction(1, 2))])
        al = rose.alphabet
        gsm = GraphSelfMap(rose, [0], [al.parse("a b"), al.parse("a")])
        lang = attracting_language(gsm, 12)
        for n in (1, 2, 3, 6):
            assert beta_metric(lang, n) == lang.beta(2 * n)

    def test_two_sided_comparability_bound(self, theta):
        graph = MarkedMetricGraph(
            ["v0", "v1"],
            [("e1", "v0", "v1", Fraction(1, 2)), ("e2", "v0", "v1", 2),
             ("e3", "v0", "v1", 1)])
        al = graph.alphabet
        gsm = GraphSelfMap(graph, [0, 1], [al.parse("e2"),
                                           al.parse("e3 e2' e1"),
                                           al.parse("e1 e2' e3")])
        lang = attracting_language(gsm, 16)
        c = graph.comparability_constant()
        for n in (2, 4, 6, 8):
            lower = lang.beta(int(n / c)) if int(n / c) >= 1 else 0
            upper = lang.beta(min(int(c * n), lang.complete_to))
            assert lower <= beta_metric(lang, n) <= upper

    def test_mixed_denominators_match_fraction_sums(self):
        # theta_collapse's map with lengths 1/3, 1/2, 3/2: unit 1/6
        graph = MarkedMetricGraph(
            ["v0", "v1"],
            [("e1", "v0", "v1", Fraction(1, 3)), ("e2", "v0", "v1", Fraction(1, 2)),
             ("e3", "v0", "v1", Fraction(3, 2))])
        assert graph.length_unit == 6
        al = graph.alphabet
        gsm = GraphSelfMap(graph, [0, 1], [al.parse("e2"),
                                           al.parse("e3 e2' e1"),
                                           al.parse("e1 e2' e3")])
        lang = attracting_language(gsm, 15)
        members = list(lang.all_members())
        exact = [sum((graph.lengths[c >> 1] for c in m), Fraction(0))
                 for m in members]
        assert lang.metric_lengths() == sorted(int(x * 6) for x in exact)
        # every member length up to 5 is a bound hit exactly, and just missed
        bounds = {x for x in exact if x <= 5} | set(range(6))
        bounds |= {b - Fraction(1, 1000) for b in bounds if b > 0}
        for bound in sorted(bounds):
            assert beta_metric(lang, bound) == sum(1 for x in exact if x <= bound)
        assert beta_metric(lang, Fraction(7, 3)) > beta_metric(lang, Fraction(2333, 1000))

    def test_under_enumeration_is_loud(self, fib_map):
        lang = attracting_language(fib_map, 5)
        with pytest.raises(UnderEnumerationError):
            beta_metric(lang, 6)

    def test_scaled_counting_route_matches_memberwise_counts(self, silver_map):
        src = AttractingSource(silver_map)
        lang = attracting_language(silver_map, 14)
        assert src.metric_beta(14) == [beta_metric(lang, n)
                                       for n in range(1, 15)]


class TestTransport:
    def test_rose_collapse_is_identity(self, fib_map):
        cd = maximal_subtree(fib_map.graph)
        lang = attracting_language(fib_map, 10)
        report = transport_compare(lang, cd, 10)
        assert report.lift_stretch == 1 and report.multiplicity_bound == 1
        assert report.all_ok
        assert report.rows[-1].p_base == report.rows[-1].p_rose
        assert report.witness.constant == 1

    def test_theta_inequalities_hold_with_computed_constants(self, silver_map):
        cd = maximal_subtree(silver_map.graph)
        lang = attracting_language(silver_map, cd.lift_stretch * 15)
        report = transport_compare(lang, cd, 15)
        assert report.diameter == 1
        assert report.lift_stretch == 2
        assert report.multiplicity_bound == 4
        assert report.all_ok
        assert report.witness.constant is not None

    def test_projected_language_is_subword_closed_and_reduced(self, silver_map):
        cd = maximal_subtree(silver_map.graph)
        lang = attracting_language(silver_map, 12)
        rose_lang = project_language(lang, cd)
        assert rose_lang.complete_to == 6
        for m in rose_lang.all_members():
            assert is_reduced(m) and len(m) > 0

    def test_fibers_respect_multiplicity_bound(self, silver_map):
        cd = maximal_subtree(silver_map.graph)
        lang = attracting_language(silver_map, 12)
        counts = fiber_counts(lang, cd)
        assert counts and max(counts.values()) <= cd.multiplicity_bound

    def test_under_enumeration_is_loud(self, silver_map):
        cd = maximal_subtree(silver_map.graph)
        lang = attracting_language(silver_map, 10)
        with pytest.raises(UnderEnumerationError):
            transport_compare(lang, cd, 10)


class TestSources:
    def test_attracting_source_matches_materialized(self, silver_map):
        src = AttractingSource(silver_map)
        lang = attracting_language(silver_map, 12)
        assert src.p_counts(12) == lang.p_counts()

    def test_full_shift_counts(self, rose2):
        src = FullShiftSource(rose2)
        assert src.p_counts(5) == [4 * 3 ** (n - 1) for n in range(1, 6)]
        assert src.metric_beta(4) == src.beta_counts(4)

    def test_full_shift_metric_dp_matches_enumeration(self):
        graph = MarkedMetricGraph(
            ["v"], [("a", "v", "v", Fraction(1, 2)), ("b", "v", "v", 1)])
        src = FullShiftSource(graph)
        got = src.metric_beta(4)
        # enumeration oracle: all reduced words of length <= 8, weighed exactly
        from conftest import random_reduced_word
        words = [()]
        all_words = []
        for _ in range(8):
            nxt = []
            for w in words:
                for c in graph.alphabet.letters():
                    if not w or c != w[-1] ^ 1:
                        nxt.append(w + (c,))
            words = nxt
            all_words.extend(nxt)
        for n in range(1, 5):
            oracle = sum(1 for w in all_words
                         if graph.metric_length(w) <= n)
            assert got[n - 1] == oracle

    def test_shallower_table_is_sliced_from_the_deepest(self, silver_map,
                                                         monkeypatch):
        from lamtool import laminations
        depths = []
        count = laminations.complexity_counts

        def counting(sub, n_max):
            depths.append(n_max)
            return count(sub, n_max)

        monkeypatch.setattr(laminations, "complexity_counts", counting)
        src = AttractingSource(silver_map)
        deep = src.p_counts(400)
        assert src.p_counts(100) == deep[:100]
        assert src.p_counts(400) == deep
        assert depths == [400]
        assert src.p_counts(401)[:400] == deep
        assert depths == [400, 401]

    @pytest.mark.parametrize("vertices, images, lengths", [
        (["v0", "v1"], ["e2", "e3 e2' e1", "e1 e2' e3"], [1, Fraction(3, 2), 2]),
        (["v0", "v1"], ["e2", "e3 e2' e1", "e1 e2' e3"], [1, Fraction(1, 2), 2]),
        (["v"], ["e1 e2", "e1"], [Fraction(1, 2)] * 2)],
        ids=["theta-1-3/2-2", "theta-1-1/2-2", "fibonacci-halves"])
    def test_metric_counts_match_members_weighed_exactly(self, vertices, images,
                                                          lengths):
        # theta_collapse's map and the Fibonacci map on non-unit metrics
        graph = MarkedMetricGraph(vertices, [(f"e{i}", vertices[0], vertices[-1], x)
                                             for i, x in enumerate(lengths, 1)])
        al = graph.alphabet
        gsm = GraphSelfMap(graph, list(range(len(vertices))),
                           [al.parse(image) for image in images])
        # a member of metric length <= 12 has at most 12 / min(lengths) letters
        lang = attracting_language(gsm, int(12 / min(lengths)))
        weighed = [graph.metric_length(m) for m in lang.all_members()]
        assert AttractingSource(gsm).metric_beta(12) == \
            [sum(1 for x in weighed if x <= n) for n in range(1, 13)]

    def test_materialized_source_depth_guard(self, fib_map):
        src = MaterializedSource(attracting_language(fib_map, 6))
        with pytest.raises(UnderEnumerationError):
            src.p_counts(7)

    def test_full_shift_on_theta_against_brute_force(self):
        graph = MarkedMetricGraph(
            ["v0", "v1"], [("e1", "v0", "v1", 1), ("e2", "v0", "v1", Fraction(3, 2)),
                           ("e3", "v0", "v1", 2)])
        letters = graph.alphabet.letters()
        # every reduced edge path of up to 10 letters, grown letter by letter
        paths, level = [], [(c,) for c in letters]
        for _ in range(10):
            paths.extend(level)
            level = [w + (c,) for w in level for c in letters
                     if graph.terminus(w[-1]) == graph.origin(c) and c != w[-1] ^ 1]
        metric = [sum((graph.lengths[c >> 1] for c in w), Fraction(0)) for w in paths]
        src = FullShiftSource(graph)
        assert src.p_counts(10) == [sum(1 for w in paths if len(w) == n)
                                    for n in range(1, 11)]
        # lengths >= 1, so a path of metric length <= 6 has at most 6 letters
        assert src.metric_beta(6) == [sum(1 for x in metric if x <= n)
                                      for n in range(1, 7)]

    def test_full_shift_refuses_beyond_the_cap(self, monkeypatch):
        graph = MarkedMetricGraph(
            ["v"], [("a", "v", "v", Fraction(1, 2)), ("b", "v", "v", 1)])
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "1000")
        src = FullShiftSource(graph)
        # depth 500 needs about 500 + log2(3)/32 * 500 * 501 / 2 = 6703 words
        with pytest.raises(SizeCapExceeded):
            src.p_counts(500)
        # metric bound 250 reaches depth 500 through the length-1/2 edge
        with pytest.raises(SizeCapExceeded):
            src.metric_beta(250)
        assert src.p_counts(50) == [4 * 3 ** (n - 1) for n in range(1, 51)]

    def test_rose_counts(self, fib_map, silver_map):
        fib = AttractingSource(fib_map)
        assert fib.rose_counts(20) == fib.p_counts(20)
        sub = SubstitutionSource(Substitution.from_tokens({"a": ["a", "b"], "b": ["a"]}))
        assert sub.rose_counts(20) == sub.p_counts(20) == [n + 1 for n in range(1, 21)]
        cd = maximal_subtree(silver_map.graph)
        lang = attracting_language(silver_map, cd.lift_stretch * 12)
        expected = transport_compare(lang, cd, 12).rose_counts()
        assert AttractingSource(silver_map).rose_counts(12) == expected
        assert MaterializedSource(lang).rose_counts(12) == expected

    def test_materialize_by_source(self, fib_map, rose2):
        lang = attracting_language(fib_map, 6)
        assert MaterializedSource(lang).materialize(3) is lang
        assert AttractingSource(fib_map).materialize(6).strata == lang.strata
        with pytest.raises(PreconditionError, match="fullshift"):
            FullShiftSource(rose2).materialize(3)
        sub = SubstitutionSource(Substitution.from_tokens({"a": ["a", "b"], "b": ["a"]}))
        with pytest.raises(PreconditionError, match="map or lamlang"):
            sub.materialize(3)
