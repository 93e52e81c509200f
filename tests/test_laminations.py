import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamtool import (GraphSelfMap, MarkedMetricGraph, attracting_language,
                     beta_metric, cli, complexity_counts, from_train_track,
                     laminations, maximal_subtree, orientability,
                     transport_compare)
from lamtool.errors import (PreconditionError, SizeCapExceeded,
                            UnderEnumerationError)
from lamtool.fileformat import LanguageSpec, build_language, parse
from lamtool.graphs import project_path
from lamtool.laminations import (IMPRIMITIVE_SUBSTITUTION, AttractingSource,
                                 FullShiftSource, LaminaryLanguage,
                                 LamlangSource, SubstitutionSource, certify,
                                 project_language)
from lamtool.substitutions import Substitution
from lamtool.words import inverse_codes

from conftest import (as_row, check_invariants, fiber_counts, is_reduced,
                      lamlang_tables, metric_length, naive_iterate_image,
                      random_rose_map, sorted_blocks)


def relabelled_oracle(gsm, n_max):
    """The attracting language from factor_language's tuples: each member
    relabelled by edge token, and its inverse added."""
    from lamtool.graphmaps import orientability
    from lamtool.substitutions import factor_language, from_train_track

    sub = from_train_track(gsm, orientability(gsm))
    code_of = [gsm.graph.alphabet.index(tok) for tok in sub.letters]
    flang = factor_language(sub, n_max)
    strata = [set() for _ in range(n_max + 1)]
    for m in flang.all_members():
        word = tuple(code_of[c] for c in m)
        strata[len(word)].update((word, inverse_codes(word)))
    return strata


class TestRelabelledRows:
    @pytest.mark.parametrize("name", ["fib_map", "silver_map"])
    def test_matches_the_tuple_oracle(self, request, name):
        gsm = request.getfixturevalue(name)
        lang = attracting_language(gsm, 20)
        oracle = relabelled_oracle(gsm, 20)
        for n in range(1, 21):
            assert lang.strata[n] == oracle[n]


class TestAttractingLanguage:
    def test_fibonacci_members_to_depth_two(self, fib_map, rose2):
        lang = attracting_language(fib_map, 2)
        al = rose2.alphabet
        words = {al.format(m) for m in lang.strata[1] | lang.strata[2]}
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
            assert not check_invariants(lang)

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
            assert beta_metric(lang, n) == sum(lang.p_counts()[:n])

    def test_metric_lengths_leave_the_strata_undecoded(self, silver_map):
        lang = attracting_language(silver_map, 12)
        lengths = lang.metric_lengths()
        assert "strata" not in vars(lang)
        assert lengths == sorted(map(lang.graph.weight, lang.all_members()))

    def test_half_lengths_rescale(self):
        rose = MarkedMetricGraph(
            ["v"], [("a", "v", "v", Fraction(1, 2)), ("b", "v", "v", Fraction(1, 2))])
        al = rose.alphabet
        gsm = GraphSelfMap(rose, [0], [al.parse("a b"), al.parse("a")])
        lang = attracting_language(gsm, 12)
        for n in (1, 2, 3, 6):
            assert beta_metric(lang, n) == sum(lang.p_counts()[:2 * n])

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
        c = max(graph.max_length(), 1 / graph.min_length(), 1)
        for n in (2, 4, 6, 8):
            lower = sum(lang.p_counts()[:int(n / c)])
            upper = sum(lang.p_counts()[:int(c * n)])
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


SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def sample_map(name, lengths=None):
    text = (SAMPLES / f"{name}.lam").read_text()
    for edge, length in (lengths or {}).items():
        text = re.sub(rf"(?m)^(edge {edge} \S+ \S+) 1$", rf"\g<1> {length}", text)
    return parse(text).graph_map


def relabelled(gsm, names, flips):
    """``gsm`` with positive edge i renamed ``names[i]`` and reversed where
    ``flips[i]``: the same map up to isomorphism, on another spanning tree."""
    graph = gsm.graph
    edges = []
    for i, name in enumerate(names):
        ends = [graph.vertices[graph.origin(2 * i)],
                graph.vertices[graph.terminus(2 * i)]]
        edges.append((name, *ends[::-1 if flips[i] else 1], graph.lengths[i]))
    new = MarkedMetricGraph(graph.vertices, edges)

    def code(c):
        return new.alphabet.index(names[c >> 1]) ^ (c & 1) ^ flips[c >> 1]

    images = []
    for name in new.alphabet.names:
        i = names.index(name)
        images.append([code(c) for c in gsm.image(2 * i + flips[i])])
    return GraphSelfMap(new, gsm.vertex_image, images)


def lamlang_language(gsm, symmetric, depth=24, count=40):
    """A lamlang language on ``gsm``'s graph listing ``count`` members of
    length ``depth`` of its attracting language, materialized."""
    al = gsm.graph.alphabet
    members = sorted(attracting_language(gsm, depth).strata[depth])[:count]
    paths = [al.format(m) for m in members]
    spec = LanguageSpec("demo", symmetric, "subwords", paths)
    return build_language(spec, gsm.graph).materialize(depth)


def lamlang_source(gsm, depth):
    """The lamlang source listing every member of length ``depth`` of the
    map's attracting language: its language is the attracting language to
    that depth, for every member extends to one of length ``depth``."""
    members = attracting_language(gsm, depth).rows[depth]
    return LamlangSource(gsm.graph, list(members), True, "listed")


def projection_oracle(lang, cd):
    """The projection by its definition: every member through project_path,
    keeping the images of length 1..depth."""
    depth = lang.complete_to // cd.lift_stretch
    strata = [set() for _ in range(depth + 1)]
    for m in lang.all_members():
        image = tuple(map(ord, project_path(cd, as_row(m))))
        if 0 < len(image) <= depth:
            strata[len(image)].add(image)
    return strata


def theta_language(name, silver_map):
    """A depth-24 language on the theta graph, by name."""
    theta = sample_map("theta_collapse")
    if name.startswith("lamlang"):
        return lamlang_language(theta, name == "lamlang_symmetric")
    metric = sample_map("theta_collapse", {"e2": "1.5", "e3": "2"})
    maps = {"theta_collapse": theta, "theta_metric": metric,
            "theta_renamed": relabelled(theta, ["x", "e2", "a"], [1, 0, 1]),
            "theta_metric_flipped": relabelled(metric, ["e3", "e1", "e2"], [0, 1, 1]),
            "silver_map": silver_map}
    return attracting_language(maps[name], 24)


class TestBlockProjection:
    """project_language checks every member on blocks and projects only the
    members that start and end outside the tree."""

    @pytest.mark.parametrize("name", [
        "theta_collapse", "theta_metric", "theta_renamed", "theta_metric_flipped",
        "silver_map", "lamlang_symmetric", "lamlang_asymmetric"])
    def test_matches_the_projection_of_every_member(self, monkeypatch, silver_map,
                                                    name):
        lang = theta_language(name, silver_map)
        cd = maximal_subtree(lang.graph)
        calls = []
        original = laminations.project_path
        monkeypatch.setattr(laminations, "project_path",
                            lambda cd, codes: calls.append(1) or original(cd, codes))
        for n in range(1, 13):
            shallow = LaminaryLanguage(lang.graph, lang.rows[:cd.lift_stretch * n + 1],
                                       lang.symmetric, lang.origin)
            calls.clear()
            rose = project_language(shallow, cd)
            assert rose.complete_to == n
            assert list(rose.strata) == projection_oracle(shallow, cd)
            assert len(calls) == sum(rose.p_counts())

    def test_backtracking_member_inside_the_tree_is_refused(self, silver_map):
        graph = silver_map.graph
        cd = maximal_subtree(graph)
        # e1 spans the tree; this member starts and ends on it
        word = graph.alphabet.parse("e1 e2' e2 e1'")
        assert word[0] >> 1 in cd.subtree and word[-1] >> 1 in cd.subtree
        lang = LaminaryLanguage(graph, sorted_blocks({as_row(word)}, 4), True,
                                "by hand")
        with pytest.raises(PreconditionError,
                           match="project_path expects a reduced path"):
            project_language(lang, cd)

    def test_every_backtrack_is_refused(self, silver_map):
        graph = silver_map.graph
        cd = maximal_subtree(graph)
        for c in graph.alphabet.letters():
            lang = LaminaryLanguage(graph, sorted_blocks({as_row((c, c ^ 1))}, 2), True,
                                    "by hand")
            with pytest.raises(PreconditionError,
                               match="project_path expects a reduced path"):
                project_language(lang, cd)

    # 6, the theta graph's alphabet size, is the separator of the reduced check
    @pytest.mark.parametrize("word", [(0, 0), (0, 99), (0, 6), (6,)],
                             ids=["e1 e1", "no letter", "separator", "lone separator"])
    def test_member_that_is_no_edge_path_is_refused(self, silver_map, word):
        cd = maximal_subtree(silver_map.graph)
        lang = LaminaryLanguage(silver_map.graph, sorted_blocks({as_row(word)}, 2),
                                True, "by hand")
        with pytest.raises(PreconditionError,
                           match="project_path expects an edge path in the base graph"):
            project_language(lang, cd)


class TestRelabelledStrata:
    """Why _language_from_substitution need not count distinct rows: on any
    relabelling, an orientable map's stratum n holds 2 p_sub(n) distinct
    rows, the positive factors and their inverses, and a non-orientable
    map's holds p_sub(n) rows closed under inversion, p_sub counted by the
    counting route.  nonorientable_map is no train track, so conftest's
    mixed-sign rose map stands in as the second non-orientable map."""

    MAPS = {
        "theta_collapse": lambda: sample_map("theta_collapse"),
        "fibonacci_map": lambda: sample_map("fibonacci_map"),
        "mixed_sign_map": lambda: parse(
            "vertex v\nedge a v v 1\nedge b v v 1\n"
            "map a = a b a' b\nmap b = b a\n").graph_map,
    }

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(MAPS)), st.permutations(["a", "b", "e1", "x"]),
           st.lists(st.booleans(), min_size=3, max_size=3))
    def test_strata_match_the_substitution(self, name, names, flips):
        gsm = self.MAPS[name]()
        m = gsm.graph.num_topological_edges
        gsm = relabelled(gsm, names[:m], [int(f) for f in flips[:m]])
        orn = orientability(gsm)
        p_sub = complexity_counts(from_train_track(gsm, orn), 12)
        lang = attracting_language(gsm, 12)
        for n in range(1, 13):
            rows = {tuple(map(ord, row)) for row in lang.rows[n]}
            assert len(rows) == lang.p(n)
            assert lang.p(n) == (2 if orn.orientable else 1) * p_sub[n]
            assert {inverse_codes(r) for r in rows} == rows


class TestBlockRepresentation:
    """The rows against the tuple sets they hold."""

    @staticmethod
    def _cases(fib_map, silver_map):
        rose = fib_map.graph
        theta = sample_map("theta_collapse")
        spec = LanguageSpec("demo", True, "subwords", ["a b", "b a"])
        cases = [(build_language(spec, rose).materialize(2),
                  [set(), {(0,), (1,), (2,), (3,)}, {(0, 2), (2, 0), (3, 1), (1, 3)}]),
                 (attracting_language(fib_map, 10), relabelled_oracle(fib_map, 10)),
                 (attracting_language(theta, 10), relabelled_oracle(theta, 10))]
        for symmetric in (True, False):
            lang = lamlang_language(theta, symmetric, depth=10, count=12)
            paths = sorted(attracting_language(theta, 10).strata[10])[:12]
            closed = {m[i:j] for m in paths for i in range(10) for j in range(i + 1, 11)}
            if symmetric:
                closed |= {inverse_codes(m) for m in closed}
            cases.append((lang, [{m for m in closed if len(m) == n} for n in range(11)]))
        return cases

    def test_blocks_hold_the_tuple_sets(self, fib_map, silver_map):
        for lang, oracle in self._cases(fib_map, silver_map):
            assert lang.complete_to == len(oracle) - 1
            assert list(lang.strata) == oracle
            assert lang.p_counts() == [len(s) for s in oracle[1:]]
            assert lang.metric_lengths() == sorted(
                lang.graph.weight(m) for s in oracle for m in s)
            assert check_invariants(lang) == []
            for n, rows in enumerate(lang.rows):
                assert len(rows) == len(set(rows)) == len(oracle[n])
                assert all(isinstance(row, str) and len(row) == n for row in rows)
                assert {tuple(map(ord, row)) for row in rows} == oracle[n]


class TestWideAlphabet:
    """A lamlang language on 130 parallel edges: its codes run to 259, so
    its rows hold two bytes a letter, and include 10, a newline."""

    LENGTHS = {f"e{i:03d}": "1" for i in range(130)} | {"e005": "1.5", "e129": "2"}
    PATHS = ["e005 e129' e000 e064' e005", "e129 e005' e128 e000'",
             "e127 e126' e127"]

    def test_tables_and_collapse_match_the_oracles(self):
        edges = [(name, "v0", "v1", length) for name, length in self.LENGTHS.items()]
        graph = MarkedMetricGraph(["v0", "v1"], edges)
        assert graph.alphabet.size == 260 and not graph.violations
        source = build_language(LanguageSpec("wide", True, "subwords", self.PATHS),
                                graph)
        lang = source.materialize(5)
        codes = {c for m in lang.all_members() for c in m}
        assert {10, 256, graph.alphabet.size - 1} <= codes
        p, _, metric = lamlang_tables(self.PATHS, self.LENGTHS, 5)
        assert lang.p_counts() == source.p_counts(5) == p
        assert source.metric_beta(5) == metric
        assert [beta_metric(lang, n) for n in range(1, 6)] == metric
        assert check_invariants(lang) == []
        cd = maximal_subtree(graph)
        rose = project_language(lang, cd)
        oracle = projection_oracle(lang, cd)
        assert list(rose.strata) == oracle
        assert rose.p_counts() == [len(s) for s in oracle[1:]]
        assert max(c for m in rose.all_members() for c in m) >= 256


class TestLamlangSource:
    """The tables and members of random lamlang files on the 2-rose and the
    theta graph, symmetric or not, against brute force: the factors of the
    paths, and of their inverses when symmetric, listed as tuples."""

    GRAPHS = {"rose": (["v"], ["a", "b"]), "theta": (["v0", "v1"], ["e1", "e2", "e3"])}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(GRAPHS)), st.booleans(),
           st.lists(st.sampled_from(["1", "1.5", "2"]), min_size=3, max_size=3),
           st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=14),
                    min_size=1, max_size=4))
    def test_tables_and_members_match_brute_force(self, name, symmetric, lengths,
                                                  walks):
        vertices, edges = self.GRAPHS[name]
        lengths = dict(zip(edges, lengths))
        graph = MarkedMetricGraph(vertices, [(e, vertices[0], vertices[-1], x)
                                             for e, x in lengths.items()])
        words = []
        for steps in walks:
            path = []
            for step in steps:
                choices = [c for c in graph.alphabet.letters() if not path or (
                    graph.origin(c) == graph.terminus(path[-1]) and c != path[-1] ^ 1)]
                path.append(choices[step % len(choices)])
            words.append(tuple(path))
        paths = [graph.alphabet.format(w) for w in words]
        text = ("graph\n" + "".join(f"vertex {v}\n" for v in vertices)
                + "".join(f"edge {e} {vertices[0]} {vertices[-1]} {x}\n"
                          for e, x in lengths.items())
                + f"lamlang demo symmetric={int(symmetric)}\n" + "\n".join(paths))
        ai = parse(text)
        source = build_language(ai.language, ai.graph)
        depth = max(map(len, words))

        p, beta, metric = lamlang_tables(paths, lengths, depth, symmetric)
        assert source.p_counts(depth) == p
        assert source.beta_counts(depth) == beta
        assert source.metric_beta(depth) == metric  # every length is >= 1
        with pytest.raises(UnderEnumerationError, match=re.escape(
                f"table to n={depth + 1} needs depth {depth + 1}, enumerated {depth}")):
            source.p_counts(depth + 1)
        # the first bound whose ball can hold a path of depth + 1 letters
        first = math.ceil((depth + 1) * min(map(Fraction, lengths.values())))
        with pytest.raises(UnderEnumerationError, match=re.escape(
                f"beta_metric({first}) needs depth {depth + 1}, enumerated {depth}")):
            source.metric_beta(first)

        members = {w[i:j] for w in words
                   for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
        if symmetric:
            members |= {inverse_codes(m) for m in members}
        for d in range(1, depth + 2):
            lang = source.materialize(d)
            assert lang.complete_to == min(d, depth)
            assert list(lang.strata) == [{m for m in members if len(m) == n}
                                         for n in range(lang.complete_to + 1)]


class TestProjectPath:
    """project_path against its definition on random reduced paths: drop the
    tree letters and send the rest through base_to_rose."""

    @staticmethod
    def graph(name, names, flips):
        if name == "theta":
            return relabelled(sample_map("theta_collapse"), names, flips[:3]).graph
        if name == "rose":
            return sample_map("fibonacci_map").graph
        ends = [("v1", "v0") if flip else ("v0", "v1") for flip in flips]
        return MarkedMetricGraph(["v0", "v1"], [
            (edge, *end, length)
            for (edge, length), end in zip(TestWideAlphabet.LENGTHS.items(), ends)])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["theta", "wide", "rose"]),
           st.permutations(["x", "e2", "a"]),
           st.lists(st.integers(0, 1), min_size=130, max_size=130),
           st.lists(st.integers(0, 10 ** 6), max_size=40))
    def test_matches_the_definition(self, name, names, flips, steps):
        graph = self.graph(name, names, flips)
        cd = maximal_subtree(graph)
        path = []
        for step in steps:
            choices = [c for c in graph.alphabet.letters() if not path or (
                graph.origin(c) == graph.terminus(path[-1]) and c != path[-1] ^ 1)]
            path.append(choices[step % len(choices)])
        assert graph.is_reduced_path(tuple(path))
        image = tuple(map(ord, project_path(cd, as_row(path))))
        assert image == tuple(cd.base_to_rose[c] for c in path
                              if c >> 1 not in cd.subtree)
        assert cd.rose.is_reduced_path(image)


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
                         if metric_length(graph, w) <= n)
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
        weighed = [metric_length(graph, m) for m in lang.all_members()]
        assert AttractingSource(gsm).metric_beta(12) == \
            [sum(1 for x in weighed if x <= n) for n in range(1, 13)]

    def test_lamlang_source_depth_guard(self, fib_map):
        src = lamlang_source(fib_map, 6)
        assert src.p_counts(6) == attracting_language(fib_map, 6).p_counts()
        with pytest.raises(UnderEnumerationError,
                           match="table to n=7 needs depth 7, enumerated 6"):
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
        assert lamlang_source(silver_map, cd.lift_stretch * 12).rose_counts(12) \
            == expected

    def test_materialize_by_source(self, fib_map, rose2):
        lang = attracting_language(fib_map, 6)
        listed = lamlang_source(fib_map, 6)
        assert listed.materialize(3).strata == attracting_language(fib_map, 3).strata
        assert listed.materialize(9).strata == lang.strata
        assert AttractingSource(fib_map).materialize(6).strata == lang.strata
        with pytest.raises(PreconditionError, match="fullshift"):
            FullShiftSource(rose2).materialize(3)
        sub = SubstitutionSource(Substitution.from_tokens({"a": ["a", "b"], "b": ["a"]}))
        with pytest.raises(PreconditionError, match="map or lamlang"):
            sub.materialize(3)


def rose_map_text(gsm):
    """The input file of a map on a unit rose with one vertex ``v``."""
    al = gsm.graph.alphabet
    return "\n".join(["graph", "vertex v",
                      *(f"edge {name} v v 1" for name in al.names),
                      "map", "vmap v = v",
                      *(f"map {name} = {al.format(img)}"
                        for name, img in zip(al.names, gsm.edge_images))]) + "\n"


class TestCertify:
    def test_failing_map_names_each_hypothesis_and_warns(self, rose2):
        al = rose2.alphabet
        swap = GraphSelfMap(rose2, [0], [al.parse("b"), al.parse("a")])
        cert = certify(swap)
        assert cert.failures == ("transition matrix is not primitive",
                                 "map is not expanding")
        assert cert.substitution is None
        assert cert.orientation.warnings[0].startswith(
            "orientability is meaningful for expanding primitive train track")
        assert orientability(swap).warnings == ()

    def test_orientation_reversing_map_has_one_failure(self, rose2):
        al = rose2.alphabet
        gsm = GraphSelfMap(rose2, [0], [al.parse("a' b'"), al.parse("a'")])
        cert = certify(gsm)
        assert cert.train_track and cert.analysis.primitive
        assert cert.analysis.expanding
        assert cert.failures == (IMPRIMITIVE_SUBSTITUTION,)
        assert cert.substitution is None

    def test_random_maps_analyze_and_certify(self, tmp_path, capsys):
        # about one draw in 22 meets the three hypotheses but reverses an
        # orientation (16 of these 300): analyze reports those maps too
        rng = random.Random(1)
        path = tmp_path / "map.lam"
        certified = reversing = 0
        for _ in range(300):
            gsm = random_rose_map(rng, rng.choice([2, 3]))
            path.write_text(rose_map_text(gsm))
            code = cli.main(["analyze", str(path)])
            assert code == 0, capsys.readouterr().err
            capsys.readouterr()
            cert = certify(gsm)
            assert (cert.substitution is None) == bool(cert.failures)
            if not cert.failures:
                assert cert.substitution.is_primitive()
                certified += 1
            reversing += IMPRIMITIVE_SUBSTITUTION in cert.failures
        assert certified >= 30 and reversing >= 8
