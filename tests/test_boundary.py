import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lamtool import (BoundaryRay, MarkedMetricGraph, Substitution,
                     cover_bound_series, dim_upper_estimate, gromov_product,
                     visual_distance)
from lamtool.errors import (DomainError, InsufficientDataError,
                            PreconditionError)
from lamtool.laminations import AttractingSource


@pytest.fixture
def weighted_rose():
    return MarkedMetricGraph(
        ["v"], [("a", "v", "v", Fraction(1, 2)), ("b", "v", "v", 2)])


def ray(graph, text):
    return BoundaryRay.periodic(graph, graph.alphabet.parse(text))


class TestRays:
    def test_periodic_ray_extends_on_demand(self, rose2):
        r = ray(rose2, "a b")
        r.ensure_metric(10)
        assert len(r.prefix()) >= 10
        assert rose2.alphabet.format(r.prefix()[:4]) == "a b a b"

    def test_unreduced_loop_rejected(self, rose2):
        with pytest.raises(DomainError):
            ray(rose2, "a a'")

    def test_eigenray_ray_matches_substitution(self, rose2):
        sub = Substitution.from_tokens({"a": ["a", "b"], "b": ["a"]})
        r = BoundaryRay.from_eigenray(rose2, sub, "a")
        r.ensure_metric(8)
        assert rose2.alphabet.format(r.prefix()[:8]) == "a b a a b a b a"

    def test_finite_stub_cannot_extend(self, rose2):
        r = BoundaryRay(rose2, rose2.alphabet.parse("a b"))
        with pytest.raises(PreconditionError):
            r.ensure_metric(5)


class TestGromovProduct:
    def test_common_prefix_length(self, rose2):
        p = ray(rose2, "a")           # aaaa...
        q = ray(rose2, "a a b")       # aab aab ...
        got = gromov_product(p, q, 10)
        assert got.exact and got.value == 2

    def test_equal_so_far(self, rose2):
        p = ray(rose2, "a b")
        q = ray(rose2, "a b")
        got = gromov_product(p, q, 12)
        assert not got.exact
        assert got.value >= 12

    def test_weighted_overlap(self, weighted_rose):
        p = ray(weighted_rose, "a b")
        q = ray(weighted_rose, "a a")
        got = gromov_product(p, q, 6)
        assert got.exact and got.value == Fraction(1, 2)

    def test_mismatched_graphs_rejected(self, rose2, weighted_rose):
        graph3 = MarkedMetricGraph(
            ["v"], [("a", "v", "v", 1), ("b", "v", "v", 1), ("c", "v", "v", 1)])
        with pytest.raises(DomainError):
            gromov_product(ray(rose2, "a"), ray(graph3, "a"), 4)


class TestVisualDistance:
    def test_powers_of_the_base(self, rose2):
        p = ray(rose2, "a")
        q = ray(rose2, "a a b")
        assert visual_distance(p, q, 2, 10).value == 0.25

    def test_split_at_base_vertex(self, rose2):
        p = ray(rose2, "a")
        q = ray(rose2, "b")
        got = visual_distance(p, q, 2, 10)
        assert got.exact and got.value == 1.0

    def test_base_must_exceed_one(self, rose2):
        with pytest.raises(DomainError):
            visual_distance(ray(rose2, "a"), ray(rose2, "b"), 1.0, 4)

    def test_symmetry_on_random_pairs(self, rose2):
        rng = random.Random(17)
        loops = ["a", "b", "a b", "a b'", "a a b", "b a'", "a b a b'"]
        for _ in range(100):
            p = ray(rose2, rng.choice(loops))
            q = ray(rose2, rng.choice(loops))
            d1 = visual_distance(p, q, 2, 20)
            d2 = visual_distance(q, p, 2, 20)
            assert d1.value == d2.value and d1.exact == d2.exact

    def test_tree_ultrametric_inequality(self, rose2):
        rng = random.Random(23)
        loops = ["a", "b", "a b", "a b'", "a a b", "b a'", "b b a"]
        for _ in range(200):
            p, q, r = (ray(rose2, rng.choice(loops)) for _ in range(3))
            dpq = visual_distance(p, q, 2, 25).value
            dqr = visual_distance(q, r, 2, 25).value
            dpr = visual_distance(p, r, 2, 25).value
            assert dpr <= max(dpq, dqr) + 1e-12


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
