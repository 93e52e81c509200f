import random
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from lamtool import MarkedMetricGraph, maximal_subtree
from lamtool.errors import (DomainError, MalformedInputError, PreconditionError,
                            UnderEnumerationError)
from lamtool.graphs import project_path

from conftest import (as_row, is_reduced, lift_path, metric_length,
                      random_reduced_word, rose_to_base)


def bfs_tree_distances(graph, tree_edges):
    """All-pairs distance oracle restricted to the subtree."""
    dist = {}
    for start in range(len(graph.vertices)):
        dist[start] = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for c in graph.alphabet.letters():
                if (c >> 1) in tree_edges and graph.origin(c) == v:
                    w = graph.terminus(c)
                    if w not in dist[start]:
                        dist[start][w] = dist[start][v] + 1
                        queue.append(w)
    return dist


class TestValidate:
    def test_rose_is_valid_rank_2(self, rose2):
        assert rose2.violations == () and rose2.betti() == 2

    def test_theta_is_valid_rank_2(self, theta):
        assert theta.violations == () and theta.betti() == 2  # b1 = 3 - 2 + 1

    def test_disconnected_graph_reported(self):
        graph = MarkedMetricGraph(
            ["u", "w"], [("a", "u", "u", 1), ("b", "w", "w", 1)])
        assert graph.violations
        assert any("connected" in v for v in graph.violations)

    def test_low_degree_reported(self):
        graph = MarkedMetricGraph(
            ["u", "w"], [("a", "u", "w", 1), ("b", "u", "w", 1)])
        assert any("degree" in v for v in graph.violations)

    @pytest.mark.parametrize("length", [0, -1, "0", "-0.5"], ids=repr)
    def test_nonpositive_length_refused(self, length):
        # the one length check: the hypotheses do not repeat it
        with pytest.raises(MalformedInputError, match="must be positive"):
            MarkedMetricGraph(["v"], [("a", "v", "v", length),
                                      ("b", "v", "v", 1)])


class TestMaximalSubtree:
    def test_rose_collapse_is_trivial(self, rose2):
        cd = maximal_subtree(rose2)
        assert cd.subtree == frozenset()
        assert cd.diameter == 0
        assert cd.lift_stretch == 1
        assert cd.multiplicity_bound == 1
        assert cd.rose is rose2

    def test_theta_tree_spans_and_diameter(self, theta):
        cd = maximal_subtree(theta)
        assert len(cd.subtree) == 1
        # the one tree edge touches both vertices
        (edge,) = cd.subtree
        assert {theta.origin(2 * edge), theta.terminus(2 * edge)} == {0, 1}
        assert cd.diameter == 1
        assert cd.lift_stretch == 2
        assert cd.multiplicity_bound == 4
        assert len(cd.rose.alphabet.names) == 2
        assert cd.rose.betti() == theta.betti()

    def test_deterministic(self, theta):
        first = maximal_subtree(theta)
        second = maximal_subtree(theta)
        assert first.subtree == second.subtree

    def test_ladder_diameter_matches_all_pairs_oracle(self):
        # 4-cycle of vertices with doubled rungs to keep degrees >= 3
        edges = []
        ring = ["w0", "w1", "w2", "w3"]
        for i in range(4):
            edges.append((f"r{i}", ring[i], ring[(i + 1) % 4], 1))
            edges.append((f"s{i}", ring[i], ring[(i + 1) % 4], 1))
        graph = MarkedMetricGraph(ring, edges)
        assert graph.violations == ()
        cd = maximal_subtree(graph)
        dist = bfs_tree_distances(graph, cd.subtree)
        oracle = max(max(d.values()) for d in dist.values())
        assert all(len(d) == len(graph.vertices) for d in dist.values())
        assert cd.diameter == oracle

    def test_invalid_graph_rejected(self):
        graph = MarkedMetricGraph(
            ["u", "w"], [("a", "u", "u", 1), ("b", "w", "w", 1)])
        with pytest.raises(PreconditionError):
            maximal_subtree(graph)


class TestProjectLift:
    def test_project_drops_tree_letters(self, theta):
        cd = maximal_subtree(theta)
        (tree_edge,) = cd.subtree
        tree_letter = 2 * tree_edge
        keep = [c for c in range(0, theta.alphabet.size, 2) if c >> 1 != tree_edge]
        word = (keep[0], tree_letter ^ 1)
        image = tuple(map(ord, project_path(cd, as_row(word))))
        assert len(image) == 1
        assert is_reduced(image) and cd.rose.is_edge_path(image)

    def test_tree_path_projects_to_empty(self, theta):
        cd = maximal_subtree(theta)
        (tree_edge,) = cd.subtree
        assert project_path(cd, as_row((2 * tree_edge,))) == ""

    def test_lift_inserts_geodesics_and_round_trips(self, theta):
        cd = maximal_subtree(theta)
        rng = random.Random(2024)
        for _ in range(500):
            word = []
            for _ in range(rng.randint(1, 12)):
                choices = [c for c in cd.rose.alphabet.letters()
                           if not word or c != word[-1] ^ 1]
                word.append(rng.choice(choices))
            word = tuple(word)
            lifted = lift_path(cd, word)
            assert cd.base.is_edge_path(lifted) and is_reduced(lifted)
            assert len(lifted) <= cd.lift_stretch * len(word)
            assert project_path(cd, as_row(lifted)) == as_row(word)

    def test_single_letter_lift_has_no_insertions(self, theta):
        cd = maximal_subtree(theta)
        for c in cd.rose.alphabet.letters():
            assert lift_path(cd, (c,)) == (rose_to_base(cd)[c],)

    def test_lift_across_petals_inserts_the_tree_edge(self, theta):
        # tree is {e1}; between t(e2) = v1 and o(e3) = v0 the geodesic is e1'
        cd = maximal_subtree(theta)
        word = lift_path(cd, cd.rose.alphabet.parse("e2 e3"))
        assert theta.alphabet.format(word) == "e2 e1' e3"

    def test_projection_shortens(self, theta, silver_map):
        from lamtool import attracting_language
        cd = maximal_subtree(theta)
        lang = attracting_language(silver_map, 12)
        count = 0
        for member in lang.all_members():
            assert len(project_path(cd, as_row(member))) <= len(member)
            count += 1
        assert count >= 500


class TestPathTables:
    """The step-table path checks on theta (the graph of theta_collapse.lam):
    codes 0, 2, 4 run v0 -> v1 and their inverses 1, 3, 5 run back."""

    NOT_EDGE_PATHS = [(-1,), (0, -1), (6,), (0, 3, 6), (7, 2), (0, 2), (1, 3)]

    @pytest.mark.parametrize("word", NOT_EDGE_PATHS)
    def test_rejected_as_no_edge_path(self, theta, word):
        assert not theta.is_edge_path(word)
        assert not theta.is_reduced_path(word)

    @pytest.mark.parametrize("word", [(0, 1), (2, 5, 4), (5, 4)])
    def test_backtrack_is_an_edge_path_but_not_reduced(self, theta, word):
        assert theta.is_edge_path(word)
        assert not theta.is_reduced_path(word)

    def test_short_and_numpy_words_accepted(self, theta):
        cd = maximal_subtree(theta)
        for word in ((), (4,), (2, 5, 2)):
            assert theta.is_edge_path(word) and theta.is_reduced_path(word)
        assert project_path(cd, as_row(())) == ""
        assert project_path(cd, as_row((0,))) == ""  # e1 is the tree edge
        assert project_path(cd, as_row((4,))) == as_row((cd.base_to_rose[4],))
        word = np.array([2, 5, 2, 1], dtype=np.int32)
        assert theta.is_edge_path(word) and theta.is_reduced_path(word)
        assert project_path(cd, as_row((2, 5, 2, 1))) == as_row(
            cd.base_to_rose[c] for c in (2, 5, 2))

    def test_lift_rejects_with_the_same_messages(self, theta):
        cd = maximal_subtree(theta)
        with pytest.raises(PreconditionError, match="edge path"):
            lift_path(cd, (cd.rose.alphabet.size,))
        with pytest.raises(PreconditionError, match="reduced path"):
            lift_path(cd, (0, 1))


class TestMetricLength:
    def test_unit_rose(self, rose2):
        word = rose2.alphabet.parse("a b a b' a")
        assert metric_length(rose2, word) == 5

    def test_empty_path(self, rose2):
        assert metric_length(rose2, ()) == 0

    def test_foreign_letter(self, rose2):
        with pytest.raises(DomainError):
            rose2.weight((11,))

    def test_two_sided_comparability_bound(self):
        graph = MarkedMetricGraph(
            ["v"], [("a", "v", "v", Fraction(1, 2)), ("b", "v", "v", 3)])
        c = max(graph.max_length(), 1 / graph.min_length(), 1)
        assert c == 3
        rng = random.Random(42)
        for _ in range(500):
            word = random_reduced_word(rng, 2, rng.randint(0, 25))
            length = metric_length(graph, word)
            assert Fraction(len(word)) / c <= length <= c * len(word)

    def test_exact_rational_lengths(self):
        graph = MarkedMetricGraph(["v"], [("a", "v", "v", "0.1")])
        assert graph.lengths[0] == Fraction(1, 10)
        assert graph.length_unit == 10 and graph.weight((0,) * 10) == 10
        assert metric_length(graph, (0,) * 10) == 1
