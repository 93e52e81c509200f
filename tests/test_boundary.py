import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lamtool import (GraphSelfMap, MarkedMetricGraph, attracting_language,
                     cover_bound_series, dim_upper_estimate)
from lamtool.errors import DomainError, InsufficientDataError
from lamtool.laminations import AttractingSource

from conftest import gromov_product, metric_length, visual_distance


@pytest.fixture
def weighted_rose():
    return MarkedMetricGraph(
        ["v"], [("a", "v", "v", Fraction(1, 2)), ("b", "v", "v", 2)])


def ray(graph, text, letters=30):
    """The first ``letters`` letters of the periodic ray of a loop."""
    loop = graph.alphabet.parse(text)
    return tuple(loop[i % len(loop)] for i in range(letters))


class TestGromovProduct:
    def test_common_prefix_length(self, rose2):
        p = ray(rose2, "a")           # aaaa...
        q = ray(rose2, "a a b")       # aab aab ...
        assert gromov_product(rose2, p, q) == 2

    def test_weighted_overlap(self, weighted_rose):
        p = ray(weighted_rose, "a b")
        q = ray(weighted_rose, "a a")
        assert gromov_product(weighted_rose, p, q) == Fraction(1, 2)


class TestVisualDistance:
    def test_powers_of_the_base(self, rose2):
        p = ray(rose2, "a")
        q = ray(rose2, "a a b")
        assert visual_distance(rose2, p, q, 2) == 0.25

    def test_split_at_base_vertex(self, rose2):
        assert visual_distance(rose2, ray(rose2, "a"), ray(rose2, "b"), 2) == 1.0

    def test_base_must_exceed_one(self):
        # the visual parameter enters lamtool in these two places only
        with pytest.raises(DomainError):
            cover_bound_series([1, 2, 3], 1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            dim_upper_estimate([1, 2, 3, 4, 5], 1.0, (1, 5))

    def test_symmetry_on_random_pairs(self, rose2):
        rng = random.Random(17)
        loops = ["a", "b", "a b", "a b'", "a a b", "b a'", "a b a b'"]
        for _ in range(100):
            p = ray(rose2, rng.choice(loops))
            q = ray(rose2, rng.choice(loops))
            assert visual_distance(rose2, p, q, 2) == visual_distance(rose2, q, p, 2)

    def test_tree_ultrametric_inequality(self, rose2):
        rng = random.Random(23)
        loops = ["a", "b", "a b", "a b'", "a a b", "b a'", "b b a"]
        for _ in range(200):
            p, q, r = (ray(rose2, rng.choice(loops)) for _ in range(3))
            dpq = visual_distance(rose2, p, q, 2)
            dqr = visual_distance(rose2, q, r, 2)
            dpr = visual_distance(rose2, p, r, 2)
            assert dpr <= max(dpq, dqr) + 1e-12


class TestCylinderCover:
    """The covering that ``cover_bound_series`` sums over, built from the
    members of an attracting language on a rose with edge lengths 1 and 3/2,
    so c0 = 3/2.  For each n the cylinders are the members w with metric
    length in (n - c0, n]: every longer member extends one of them, there
    are at most beta_metric(n), and two members that extend the same w are
    at visual distance at most a^-(n - c0).  So the sum of diam^delta over
    the cylinders is at most beta(n) * a^(-n*delta) * a^(c0*delta), the
    printed bound."""

    A, DELTA, C0 = 2, 0.5, Fraction(3, 2)
    WINDOW = range(3, 9)
    DEPTH = 14  # letters: every member this long is longer than max(WINDOW)

    @pytest.fixture
    def cover(self):
        rose = MarkedMetricGraph(
            ["v"], [("a", "v", "v", 1), ("b", "v", "v", self.C0)])
        al = rose.alphabet
        gsm = GraphSelfMap(rose, [0], [al.parse("a b"), al.parse("a")])
        lang = attracting_language(gsm, self.DEPTH)
        source = AttractingSource(gsm)
        assert source.max_edge_length() == self.C0  # the c0 `dimension` uses
        report = cover_bound_series(source.metric_beta(max(self.WINDOW)),
                                    self.A, self.DELTA, self.C0)
        return rose, lang, {n: (beta, bound) for n, beta, bound in report.rows}

    def test_cylinders_cover_and_are_counted_by_beta(self, cover):
        rose, lang, rows = cover
        members = list(lang.all_members())
        for n in self.WINDOW:
            cylinders = {w for w in members
                         if n - self.C0 < metric_length(rose, w) <= n}
            for m in members:
                if metric_length(rose, m) > n:
                    assert any(m[:k] in cylinders for k in range(1, len(m) + 1))
            assert 0 < len(cylinders) <= rows[n][0]

    def test_cylinder_diameters_obey_the_c0_shift(self, cover):
        rose, lang, rows = cover
        deepest = sorted(lang.strata[self.DEPTH])
        for n in self.WINDOW:
            beta, bound = rows[n]
            reach = self.A ** -float(n - self.C0)
            for w in lang.all_members():
                if not n - self.C0 < metric_length(rose, w) <= n:
                    continue
                extensions = [m for m in deepest if m[:len(w)] == w]
                diameter = max((visual_distance(rose, u, v, self.A)
                                for u in extensions for v in extensions),
                               default=0.0)
                assert diameter <= reach
                assert diameter ** self.DELTA <= bound / beta * (1 + 1e-12)


class TestCoverBoundSeries:
    def test_fibonacci_row_at_ten(self, fib_map):
        table = AttractingSource(fib_map).metric_beta(10)
        report = cover_bound_series(table, 2, 0.5, 1.0)
        rows = {n: (beta, bound) for n, beta, bound in report.rows}
        beta10, bound10 = rows[10]
        assert beta10 == 130
        assert abs(bound10 - 130 * 2 ** -5.0 * 2 ** 0.5) < 1e-12
        assert abs(bound10 - 5.745242597141) < 1e-9

    def test_vanishing_flag_on_long_run(self, fib_map):
        table = AttractingSource(fib_map).metric_beta(400)
        report = cover_bound_series(table, 2, 0.5, 1.0)
        assert report.vanishing
        assert report.first_below is not None
        assert report.final_bound() < 1e-6

    def test_exponential_table_diverges(self):
        table = [4 * 3 ** (n - 1) for n in range(1, 41)]
        report = cover_bound_series(table, 3, 0.5, 1.0)
        assert not report.vanishing
        assert report.rows[-1][2] > report.rows[0][2]

    def test_row_ratio_identity(self, fib_map):
        table = AttractingSource(fib_map).metric_beta(60)
        report = cover_bound_series(table, 2, 0.25, 1.0)
        a_delta = 2 ** -0.25
        for (n1, b1, v1), (n2, b2, v2) in zip(report.rows, report.rows[1:]):
            assert v2 / v1 == pytest.approx((b2 / b1) * a_delta, rel=1e-12)

    def test_flag_inputs_validated(self):
        with pytest.raises(DomainError):
            cover_bound_series([1, 2, 3], 1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            cover_bound_series([1, 2, 3], 2.0, 0.0, 1.0)
        with pytest.raises(InsufficientDataError):
            cover_bound_series([1], 2.0, 0.5, 1.0)

    def test_start_respects_threshold(self):
        report = cover_bound_series([1] * 20, 2, 0.5, 3.0)
        assert report.rows[0][0] == 6  # ceil(2 * c0)

    def test_overflowing_shift_gives_zero_bounds(self):
        # c0 * delta * ln a is past float range, so inf - inf would read nan;
        # each row's exponent -(n - c0) * delta * ln a, n >= 2 * c0, is -inf
        report = cover_bound_series([10, 18, 28, 40], 1e308, 1e308, 1.0)
        assert report.rows == ((2, 18, 0.0), (3, 28, 0.0), (4, 40, 0.0))
        assert report.log_bounds == (-math.inf,) * 3
        assert report.vanishing and report.first_below == 2


class TestDimUpperEstimate:
    def test_full_shift_slope_is_one(self):
        table = []
        total = 0
        for n in range(1, 15):
            total += 4 * 3 ** (n - 1)
            table.append(total)
        est = dim_upper_estimate(table, 3, (6, 14))
        assert abs(est - 1.0) < 0.02

    def test_fibonacci_estimate_small_and_decreasing(self, fib_map):
        table = AttractingSource(fib_map).metric_beta(30)
        left = dim_upper_estimate(table, 2, (10, 20))
        right = dim_upper_estimate(table, 2, (20, 30))
        assert dim_upper_estimate(table, 2, (10, 30)) < 0.15
        assert right < left

    def test_constant_table_gives_zero(self):
        assert dim_upper_estimate([7] * 20, 2, (5, 20)) == 0.0

    def test_window_needs_four_points(self):
        with pytest.raises(InsufficientDataError):
            dim_upper_estimate([1, 2, 3, 4, 5, 6], 2, (2, 4))
        with pytest.raises(InsufficientDataError):
            dim_upper_estimate([1, 2, 3], 2, (1, 6))

    def test_agrees_with_polyfit_on_random_tables(self):
        rng = random.Random(4321)
        for _ in range(500):
            n = rng.randint(4, 300)
            growth = rng.choice([0.01, 0.5, 1, 2, 6])
            table, total = [], rng.randint(1, 10)
            for _ in range(n):
                total += rng.randint(1, max(1, int(total * growth)))
                table.append(total)
            a = rng.uniform(1.05, 10)
            lo = rng.randint(1, n - 3)
            hi = rng.randint(lo + 3, n)
            xs = np.array([k * math.log(a) for k in range(lo, hi + 1)])
            ys = np.array([math.log(table[k - 1]) for k in range(lo, hi + 1)])
            oracle = float(np.polyfit(xs, ys, 1)[0])
            est = dim_upper_estimate(table, a, (lo, hi))
            assert abs(est - oracle) <= 1e-12 * oracle, (table, a, lo, hi)

    def test_huge_counts_do_not_overflow(self):
        table = [3 ** n for n in range(1, 801)]
        est = dim_upper_estimate(table, 3, (700, 800))
        assert abs(est - 1.0) < 1e-6
