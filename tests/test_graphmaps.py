import math
import random
from pathlib import Path

import numpy as np
import pytest

from lamtool import (GraphSelfMap, analyze_matrix, conjugacy_growth,
                     is_train_track, orientability, transition_matrix)
from lamtool.errors import DomainError, MalformedInputError, SizeCapExceeded
from lamtool.fileformat import parse

from conftest import (brute_force_orientation, brute_force_train_track,
                      compose, naive_cyclic_tighten, naive_iterate_image,
                      naive_tighten, random_reduced_word, random_rose_map)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"

GOLDEN = (1 + math.sqrt(5)) / 2


class TestGraphSelfMap:
    def test_rejects_empty_image(self, rose2):
        with pytest.raises(MalformedInputError):
            GraphSelfMap(rose2, [0], [(), (0,)])

    def test_rejects_endpoint_mismatch(self, theta):
        al = theta.alphabet
        with pytest.raises(MalformedInputError):
            # e1 runs v0 -> v1 but e1 e2' returns to v0
            GraphSelfMap(theta, [0, 1], [al.parse("e1 e2'"), al.parse("e2"),
                                         al.parse("e3")])

    def test_inverse_images_are_inverse_paths(self, fib_map):
        al = fib_map.graph.alphabet
        a = al.index("a")
        image = fib_map.image(a)
        assert fib_map.image(a ^ 1) == tuple(c ^ 1 for c in reversed(image))


class TestApplyPower:
    """The iterated images of ``conjugacy_growth``, one round of substitution
    and tightening per step, against literal substitution."""

    def test_fibonacci_third_power(self, fib_map, rose2):
        a = rose2.alphabet.index("a")
        assert rose2.alphabet.format(naive_iterate_image(fib_map, a, 3)) == "a b a a b"
        assert conjugacy_growth(fib_map, (a,), 3).lengths[3] == (3, 5)

    def test_single_power_is_tightened_substitution(self, rose2):
        al = rose2.alphabet
        gsm = GraphSelfMap(rose2, [0], [al.parse("a b"), al.parse("b' a")])
        word = al.parse("a b")
        direct = naive_tighten(tuple(c for y in word for c in gsm.image(y)))
        assert al.format(direct) == "a a"
        assert conjugacy_growth(gsm, word, 1).lengths[1] == (1, len(direct))

    def test_fibonacci_lengths(self, fib_map, rose2):
        a = rose2.alphabet.index("a")
        growth = conjugacy_growth(fib_map, (a,), 4)
        assert [length for _, length in growth.lengths] == [
            len(naive_iterate_image(fib_map, a, k)) for k in range(5)] == [1, 2, 3, 5, 8]

    def test_lengths_match_literal_substitution(self):
        # maps that are not train tracks cancel inside later rounds
        rng = random.Random(1616)
        for _ in range(40):
            gsm = random_rose_map(rng, rng.choice([2, 3]), max_image_len=3)
            petals = gsm.graph.num_topological_edges
            word = random_reduced_word(rng, petals, rng.randint(1, 4))
            growth = conjugacy_growth(gsm, word, 4)
            for k, length in growth.lengths:
                literal = [c for y in word for c in naive_iterate_image(gsm, y, k)]
                assert length == len(naive_cyclic_tighten(literal))

    def test_size_cap(self, fib_map, rose2, monkeypatch):
        monkeypatch.setenv("LAMTOOL_SIZE_CAP", "1000")
        with pytest.raises(SizeCapExceeded, match="intermediate word"):
            conjugacy_growth(fib_map, rose2.path("a"), 40)


class TestTrainTrack:
    def test_fibonacci_is_train_track(self, fib_map):
        result = is_train_track(fib_map)
        assert result.is_train_track
        assert result.legal_turns is not None
        assert brute_force_train_track(fib_map)

    def test_cancelling_map_detected_with_witness(self, rose2):
        al = rose2.alphabet
        # f(a) = ab, f(b) = b'a': f^2(a) = ab b'a cancels
        gsm = GraphSelfMap(rose2, [0], [al.parse("a b"), al.parse("b' a'")])
        result = is_train_track(gsm)
        assert not result.is_train_track
        assert result.offending_turn is not None
        assert not brute_force_train_track(gsm)

    def test_identity_like_map(self, rose2):
        al = rose2.alphabet
        gsm = GraphSelfMap(rose2, [0], [al.parse("a"), al.parse("b")])
        assert is_train_track(gsm).is_train_track

    def test_untight_map_is_refused_at_iterate_zero(self, rose2):
        al = rose2.alphabet
        gsm = GraphSelfMap(rose2, [0], [al.parse("a a' a"), al.parse("b")])
        result = is_train_track(gsm)
        assert not result.is_train_track
        assert result.offending_iterate == 0

    @pytest.mark.parametrize("name, verdict", [("nonorientable_map", False),
                                               ("fibonacci_map", True)])
    def test_result_is_true_exactly_for_a_train_track(self, name, verdict):
        # the result's truth value is its verdict; without ``__bool__`` a
        # tuple record would be true whatever it holds
        gsm = parse((SAMPLES / f"{name}.lam").read_text()).graph_map
        assert bool(is_train_track(gsm)) is verdict

    def test_agrees_with_brute_force_on_random_corpus(self):
        rng = random.Random(424242)
        agreements = 0
        for _ in range(120):
            gsm = random_rose_map(rng, rng.choice([2, 3]))
            assert is_train_track(gsm).is_train_track == \
                brute_force_train_track(gsm)
            agreements += 1
        assert agreements == 120


class TestTransitionMatrix:
    def test_fibonacci_matrix(self, fib_map):
        assert transition_matrix(fib_map).matrix == ((1, 1), (1, 0))

    def test_permutation_matrix(self, permutation_map):
        assert transition_matrix(permutation_map).matrix == ((0, 1), (1, 0))

    def test_counts_both_orientations(self, nonorientable_map):
        assert transition_matrix(nonorientable_map).matrix == ((1, 1), (1, 0))

    def test_columns_sum_to_image_lengths(self):
        rng = random.Random(606)
        for _ in range(30):
            gsm = random_rose_map(rng, rng.choice([2, 3]))
            mat = transition_matrix(gsm).matrix
            for j, img in enumerate(gsm.edge_images):
                assert sum(row[j] for row in mat) == len(img)

    def test_composition_power_law(self):
        rng = random.Random(31337)
        for _ in range(50):
            gsm = random_rose_map(rng, rng.choice([2, 3]))
            mat = transition_matrix(gsm).matrix
            iterate = gsm
            for k in range(2, 5):
                iterate = compose(gsm, iterate)
                assert np.array_equal(transition_matrix(iterate).matrix,
                                      np.linalg.matrix_power(mat, k))


class TestAnalyzeMatrix:
    def test_golden_mean_matrix(self):
        analysis = analyze_matrix(np.array([[1, 1], [1, 0]]))
        assert analysis.irreducible and analysis.primitive
        assert analysis.primitivity_exponent == 2
        assert analysis.expanding
        assert abs(analysis.stretch_factor - GOLDEN) < 1e-9
        assert analysis.residual < 1e-9

    def test_permutation_matrix(self):
        analysis = analyze_matrix(np.array([[0, 1], [1, 0]]))
        assert analysis.irreducible and not analysis.primitive
        assert not analysis.expanding
        assert abs(analysis.stretch_factor - 1.0) < 1e-9

    def test_one_by_one(self):
        analysis = analyze_matrix(np.array([[2]]))
        assert analysis.irreducible and analysis.primitive
        assert analysis.primitivity_exponent == 1
        assert analysis.expanding
        assert abs(analysis.stretch_factor - 2.0) < 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError):
            analyze_matrix(np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1, 2]], [1, 2], []])
    def test_ragged_or_non_square_rejected(self, matrix):
        with pytest.raises(DomainError, match="square"):
            analyze_matrix(matrix)

    @pytest.mark.parametrize("entry", [1.5, float("nan"), float("inf"), "1"])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(DomainError, match="integers"):
            analyze_matrix([[entry, 1], [1, 0]])

    def test_integral_entries_of_any_type_accepted(self):
        for matrix in ([[1.0, 1], [1, 0]], np.array([[1, 1], [1, 0]]),
                       np.array([[1.0, 1.0], [1.0, 0.0]])):
            assert analyze_matrix(matrix) == analyze_matrix([[1, 1], [1, 0]])

    def test_primitive_implies_irreducible_on_random_matrices(self):
        rng = random.Random(8)
        for _ in range(200):
            m = rng.randint(1, 4)
            mat = np.array([[rng.randint(0, 2) for _ in range(m)]
                            for _ in range(m)])
            if not mat.any():
                continue
            analysis = analyze_matrix(mat)
            if analysis.primitive:
                assert analysis.irreducible

    def test_reducible_matrix(self):
        analysis = analyze_matrix(np.array([[2, 1], [0, 3]]))
        assert not analysis.irreducible and not analysis.primitive
        assert abs(analysis.stretch_factor - 3.0) < 1e-9

    @pytest.mark.parametrize("matrix, radius", [
        ([[2, 1], [0, 2]], 2.0),  # a defective eigenvalue
        ([[0, 1, 1], [0, 0, 1], [0, 0, 0]], 0.0),  # strictly triangular
        # an imprimitive block beside a vertex without a loop
        ([[0, 1, 0], [1, 0, 0], [1, 1, 0]], 1.0),
    ])
    def test_reducible_radius_is_the_largest_block_radius(self, matrix, radius):
        analysis = analyze_matrix(matrix)
        assert not analysis.irreducible
        assert analysis.stretch_factor == radius
        assert analysis.converged


def reference_analysis(mat):
    """The matrix analysis in numpy: boolean matrix powers to the Wielandt
    bound, and power iteration by matrix-vector products."""
    mat = np.asarray(mat, dtype=np.int64)
    m = mat.shape[0]
    support = (mat > 0).astype(np.int64)
    reach = np.linalg.matrix_power(np.eye(m, dtype=np.int64) + support, m) > 0
    irreducible = bool(reach.all())
    exponent = None
    power = support.copy()
    for k in range(1, (m - 1) ** 2 + 2):
        if irreducible and power.all():
            exponent = k
            break
        power = (power @ support > 0).astype(np.int64)
    stay = [j for j in range(m) if mat[:, j].sum() == 1]
    expanding = True
    for j in stay:
        seen = set()
        while j in stay and j not in seen:
            seen.add(j)
            j = int(np.flatnonzero(mat[:, j])[0])
        expanding = expanding and j not in stay

    def iterate(a):
        a = a.astype(np.float64)
        v = np.ones(m)
        for _ in range(1_000_000):
            w = a @ v
            lam = np.abs(w).max()
            w = w / lam
            residual = np.abs(a @ w - lam * w).max()
            v = w
            if residual <= 1e-12 * max(lam, 1.0):
                return float(lam), True
        return float(lam), False

    if exponent is not None:
        lam, converged = iterate(mat)
    elif irreducible:
        lam, converged = iterate(mat + np.eye(m, dtype=np.int64))
        lam -= 1.0
    else:
        # the spectrum is the union of the strongly connected blocks'
        # spectra; eigvals of the whole matrix loses digits when the
        # dominant eigenvalue is defective
        blocks = {tuple(np.flatnonzero(row)) for row in reach & reach.T}
        lam = max(float(np.abs(np.linalg.eigvals(
            mat[np.ix_(block, block)].astype(np.float64))).max())
            for block in blocks)
        converged = True
    return [irreducible, exponent is not None, exponent, expanding, converged], lam


def assert_agrees_with_reference(mat):
    got = analyze_matrix(mat)
    flags, lam = reference_analysis(mat)
    assert [got.irreducible, got.primitive, got.primitivity_exponent,
            got.expanding, got.converged] == flags, mat
    assert abs(got.stretch_factor - lam) <= 1e-12 * max(lam, 1.0), mat
    return got


class TestAnalyzeMatrixOracle:
    def test_agrees_with_numpy_reference_on_random_matrices(self):
        rng = random.Random(2024)
        kinds = set()
        for _ in range(400):
            m = rng.randint(1, 8)
            density = rng.random()
            mat = [[rng.randint(1, 3) if rng.random() < density else 0
                    for _ in range(m)] for _ in range(m)]
            if any(map(any, mat)):
                got = assert_agrees_with_reference(mat)
                kinds.add((got.irreducible, got.primitive))
        assert kinds == {(True, True), (True, False), (False, False)}

    def test_permutations_agree_with_numpy_reference(self):
        rng = random.Random(77)
        for _ in range(60):
            m = rng.randint(1, 8)
            image = rng.sample(range(m), m)
            assert_agrees_with_reference(
                [[int(image[j] == i) for j in range(m)] for i in range(m)])

    def test_cyclic_permutation_scans_to_the_wielandt_bound(self):
        m = 12
        mat = [[int(i == (j + 1) % m) for j in range(m)] for i in range(m)]
        analysis = assert_agrees_with_reference(mat)
        assert analysis.irreducible and not analysis.primitive
        assert analysis.primitivity_exponent is None
        assert not analysis.expanding
        assert abs(analysis.stretch_factor - 1.0) < 1e-12


class TestOrientability:
    def test_fibonacci_orientable(self, fib_map):
        result = orientability(fib_map)
        al = fib_map.graph.alphabet
        assert result.orientable
        assert sorted(al.token(c) for c in result.positive_letters) == ["a", "b"]
        assert brute_force_orientation(fib_map) is not None

    def test_nonorientable_with_witness(self, nonorientable_map):
        result = orientability(nonorientable_map)
        assert not result.orientable
        assert brute_force_orientation(nonorientable_map) is None
        edge, source, power = result.witness
        image = naive_iterate_image(nonorientable_map, source, power)
        assert edge in image and (edge ^ 1) in image

    def test_positive_map_keeps_given_orientation(self, rose2):
        al = rose2.alphabet
        gsm = GraphSelfMap(rose2, [0], [al.parse("a b a"), al.parse("a b")])
        result = orientability(gsm)
        assert result.orientable
        assert result.positive_letters == frozenset(range(0, al.size, 2))

    def test_agrees_with_exhaustive_search_on_random_corpus(self):
        rng = random.Random(515151)
        checked = 0
        for _ in range(120):
            gsm = random_rose_map(rng, rng.choice([2, 3]))
            oracle = brute_force_orientation(gsm)
            result = orientability(gsm)
            assert result.orientable == (oracle is not None)
            checked += 1
        assert checked == 120


class TestConjugacyGrowth:
    def test_fibonacci_rate(self, fib_map, rose2):
        growth = conjugacy_growth(fib_map, rose2.path("a"), 15)
        assert abs(growth.rate_estimate - GOLDEN) < 0.01
        lengths = [length for _, length in growth.lengths]
        assert lengths[:6] == [1, 2, 3, 5, 8, 13]

    def test_permutation_is_non_growing(self, permutation_map, rose2):
        growth = conjugacy_growth(permutation_map, rose2.path("a"), 8)
        assert all(length == 1 for _, length in growth.lengths)
        assert growth.rate_estimate == 1.0

    def test_rate_matches_stretch_factor(self, fib_map, rose2):
        growth = conjugacy_growth(fib_map, rose2.path("a"), 25)
        lam = analyze_matrix(transition_matrix(fib_map)).stretch_factor
        assert abs(growth.rate_estimate - lam) < 1e-3

    def test_cyclic_reduction_is_used(self, fib_map, rose2):
        # a b a' is conjugate to b, so lengths follow the orbit of b
        growth = conjugacy_growth(fib_map, rose2.path("a b a'"), 6)
        orbit = conjugacy_growth(fib_map, rose2.path("b"), 6)
        assert [l for _, l in growth.lengths] == [l for _, l in orbit.lengths]

    def test_non_loop_rejected(self, theta, silver_map):
        with pytest.raises(DomainError):
            conjugacy_growth(silver_map, theta.path("e1"), 4)
