"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a PASS line once its assertions hold (visible under
``pytest -s``); a failure shows up as a normal pytest failure.  Timing
budgets are enforced with ``time.perf_counter``.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lamtool import (Substitution, analyze_matrix, attracting_language,
                     complexity_counts, conjugacy_growth, cover_bound_series,
                     dim_upper_estimate, factor_language, is_train_track,
                     maximal_subtree, orientability, transition_matrix,
                     transport_compare)
from lamtool.laminations import AttractingSource, FullShiftSource
from lamtool.words import inverse_codes

from conftest import (brute_force_orientation, brute_force_train_track,
                      fibonacci_word, naive_iterate_image, random_rose_map)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
GOLDEN = (1 + math.sqrt(5)) / 2

SUBSTITUTION_CORPUS = {
    "fibonacci": {"a": "ab", "b": "a"},
    "thue_morse": {"a": "ab", "b": "ba"},
    "tribonacci": {"a": "ab", "b": "ac", "c": "a"},
    "quadribonacci": {"a": "ab", "b": "ac", "c": "ad", "d": "a"},
    "period_doubling": {"a": "ab", "b": "aa"},
    "pell": {"a": "aab", "b": "a"},
    "mixed_tm_fib": {"a": "abb", "b": "ba"},
    "cyclic5": {"a": "ab", "b": "ac", "c": "ad", "d": "ae", "e": "a"},
    "rudin_like": {"a": "ac", "b": "dc", "c": "ab", "d": "db"},
    "threesym": {"a": "abc", "b": "ca", "c": "b"},
}


def make_sub(rules):
    return Substitution.from_tokens({k: list(v) for k, v in rules.items()})


def passed(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    complexity_counts(make_sub(SUBSTITUTION_CORPUS["fibonacci"]), 4)


@pytest.fixture
def fib_sub():
    return make_sub(SUBSTITUTION_CORPUS["fibonacci"])


def test_criterion_1_fibonacci_complexity(fib_sub):
    """p(n) = n + 1 for n <= 25, exactly, against the eigenray-factor oracle;
    the whole CLI command finishes inside 5 seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lamtool.cli", "complexity",
         str(SAMPLES / "fibonacci_sub.lam"), "--max-n", "25"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    rows = [line.split(",") for line in proc.stdout.splitlines()
            if line[:1].isdigit()]
    assert [int(r[1]) for r in rows] == [n + 1 for n in range(1, 26)]

    counts = complexity_counts(fib_sub, 25)
    prefix = fibonacci_word(2000)
    for n in range(1, 26):
        oracle = len({prefix[i:i + n] for i in range(len(prefix) - n + 1)})
        assert counts[n] == oracle
    assert elapsed < 5.0
    passed(1, f"p(n) = n+1 up to 25, oracle-matched, CLI in {elapsed:.2f}s")


def test_criterion_2_linear_complexity_constants():
    """Fitted C = max p(n)/n stable within 10% when max_n doubles 15 -> 30."""
    start = time.perf_counter()
    assert len(SUBSTITUTION_CORPUS) >= 10
    worst = 0.0
    for name, rules in SUBSTITUTION_CORPUS.items():
        sub = make_sub(rules)
        assert 2 <= sub.sigma <= 5, name
        assert sub.is_primitive(), name
        c15 = max(int(p) / n for n, p in enumerate(complexity_counts(sub, 15)[1:], 1))
        c30 = max(int(p) / n for n, p in enumerate(complexity_counts(sub, 30)[1:], 1))
        drift = abs(c30 - c15) / c15
        worst = max(worst, drift)
        assert drift <= 0.10, (name, c15, c30)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    passed(2, f"{len(SUBSTITUTION_CORPUS)} substitutions, worst drift "
              f"{worst:.1%}, {elapsed:.2f}s")


def test_criterion_3_stretch_factor(fib_map, rose2):
    """Golden stretch factor to 1e-9, residual < 1e-9, growth rate to 1e-3."""
    analysis = analyze_matrix(transition_matrix(fib_map))
    assert abs(analysis.stretch_factor - GOLDEN) < 1e-9
    assert analysis.residual < 1e-9
    growth = conjugacy_growth(fib_map, rose2.path("a"), 25)
    assert abs(growth.rate_estimate - analysis.stretch_factor) < 1e-3
    passed(3, f"lambda = {analysis.stretch_factor:.12f}, residual "
              f"{analysis.residual:.1e}, rate gap "
              f"{abs(growth.rate_estimate - analysis.stretch_factor):.1e}")


def test_criterion_4_train_track_agrees_with_brute_force():
    """Turn test == brute-force iteration (k <= 12) on 60 random rose maps."""
    rng = random.Random(0xACCE541)
    agreements = 0
    for _ in range(60):
        gsm = random_rose_map(rng, rng.choice([2, 3]), max_image_len=4)
        assert is_train_track(gsm).is_train_track == brute_force_train_track(gsm)
        agreements += 1
    assert agreements >= 50
    passed(4, f"{agreements}/60 maps agree with the k<=12 oracle")


def test_criterion_5_orientability_agrees_with_exhaustive_search(
        nonorientable_map):
    """Sign propagation == exhaustive search; shipped example has a witness."""
    rng = random.Random(0xACCE542)
    agreements = 0
    for _ in range(60):
        gsm = random_rose_map(rng, rng.choice([2, 3]), max_image_len=4)
        oracle = brute_force_orientation(gsm)
        assert orientability(gsm).orientable == (oracle is not None)
        agreements += 1
    assert agreements >= 50

    result = orientability(nonorientable_map)
    assert not result.orientable
    edge, source, power = result.witness
    image = naive_iterate_image(nonorientable_map, source, power)
    assert edge in image and (edge ^ 1) in image
    al = nonorientable_map.graph.alphabet
    passed(5, f"{agreements}/60 maps agree; witness {al.token(edge)} and "
              f"{al.token(edge ^ 1)} in f^{power}({al.token(source)})")


def test_criterion_6_collapse_inequalities(silver_map):
    """Both transport inequalities hold for n <= 15 on the theta instance."""
    start = time.perf_counter()
    cd = maximal_subtree(silver_map.graph)
    lang = attracting_language(silver_map, cd.lift_stretch * 15)
    report = transport_compare(lang, cd, 15)
    assert report.all_ok
    assert all(row.lift_ok and row.fiber_ok for row in report.rows)
    assert len(report.rows) == 15
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passed(6, f"stretch {report.lift_stretch}, C0 {report.multiplicity_bound}, "
              f"n <= 15, {elapsed:.2f}s")


def test_criterion_7_cover_bound_vanishes(fib_map):
    """The bound series drops below 1e-6 by n* <= 5000 for each delta."""
    table = AttractingSource(fib_map).metric_beta(5000)
    stars = {}
    for delta in (0.5, 0.1, 0.01):
        report = cover_bound_series(table, 2, delta, 1.0)
        assert report.vanishing, delta
        assert report.tail_decreasing
        assert report.first_below is not None and report.first_below <= 5000
        stars[delta] = report.first_below
    passed(7, f"n* = {stars}")


def test_criterion_8_dimension_contrast(fib_map, rose2):
    """Full shift reads dim 1.00 +- 0.02 and no vanishing; the attracting
    language reads < 0.15 with the estimate falling as the window moves."""
    full = FullShiftSource(rose2)
    full_table = full.metric_beta(14)
    dim_full = dim_upper_estimate(full_table, 3, (6, 14))
    assert abs(dim_full - 1.0) <= 0.02
    report = cover_bound_series(full_table, 3, 0.5, 1.0)
    assert not report.vanishing

    fib_table = AttractingSource(fib_map).metric_beta(30)
    dim_fib = dim_upper_estimate(fib_table, 2, (10, 30))
    left = dim_upper_estimate(fib_table, 2, (10, 20))
    right = dim_upper_estimate(fib_table, 2, (20, 30))
    assert dim_fib < 0.15
    assert right < left
    passed(8, f"full shift {dim_full:.3f}, attracting {dim_fib:.3f}, "
              f"window shift {left:.3f} -> {right:.3f}")


def test_criterion_9_language_invariant_suite(fib_map, silver_map,
                                              mixed_sign_map):
    """Subword closure, monotone and submultiplicative p, inverse closure,
    and stable quadratic beta bounds over >= 1000 generated checks."""
    start = time.perf_counter()
    rng = random.Random(0xACCE549)
    cases = 0

    languages = [
        attracting_language(fib_map, 14),
        attracting_language(silver_map, 12),
        attracting_language(mixed_sign_map, 10),
    ]
    factor_langs = [
        factor_language(make_sub(SUBSTITUTION_CORPUS[name]), 12)
        for name in ("thue_morse", "tribonacci", "pell")
    ]

    for lang in languages:
        members = list(lang.all_members())
        for _ in range(150):
            m = rng.choice(members)
            if len(m) > 1:
                cut = rng.randrange(1, len(m))
                assert m[:cut] in lang.strata[cut]
                assert m[cut:] in lang.strata[len(m) - cut]
            assert inverse_codes(m) in lang.strata[len(m)]
            cases += 3
        p = lang.p_counts()
        for n in range(1, len(p)):
            assert p[n - 1] <= p[n]
            cases += 1
        for _ in range(60):
            n = rng.randint(1, len(p) - 1)
            m = rng.randint(1, len(p) - n)
            assert p[n + m - 1] <= p[n - 1] * p[m - 1]
            cases += 1

    for flang in factor_langs:
        members = {m for n in range(1, 13) for m in flang.strata[n]}
        for m in members:
            if len(m) > 1:
                assert m[1:] in members and m[:-1] in members
            cases += 1
        p = flang.p_counts()
        for n in range(1, len(p)):
            assert p[n - 1] <= p[n]
            cases += 1

    # beta <= C'*n^2 with the fitted constant stable under doubling
    for name in ("fibonacci", "thue_morse", "tribonacci"):
        sub = make_sub(SUBSTITUTION_CORPUS[name])
        fits = []
        for n_max in (20, 40):
            counts = complexity_counts(sub, n_max)
            beta = 0
            worst = 0.0
            for n in range(1, n_max + 1):
                beta += int(counts[n])
                worst = max(worst, beta / n ** 2)
                cases += 1
            fits.append(worst)
        assert abs(fits[1] - fits[0]) / fits[0] <= 0.25, (name, fits)

    elapsed = time.perf_counter() - start
    assert cases >= 1000
    assert elapsed < 120.0
    passed(9, f"{cases} generated checks in {elapsed:.2f}s")


def test_criterion_10_deterministic_outputs(tmp_path):
    """Every shipped example produces byte-identical output across runs."""
    commands = {
        "fibonacci_map.lam": ["dimension", "--a", "2", "--delta", "0.5,0.1",
                              "--max-n", "40", "--json"],
        "fibonacci_sub.lam": ["complexity", "--max-n", "15"],
        "thue_morse_sub.lam": ["complexity", "--max-n", "15"],
        "permutation_map.lam": ["analyze", "--json"],
        "nonorientable_map.lam": ["analyze", "--json"],
        "period2_map.lam": ["analyze", "--json"],
        "theta_collapse.lam": ["collapse", "--max-n", "10"],
        "rank5_map.lam": ["complexity", "--max-n", "15"],
        "fullshift_2rose.lam": ["dimension", "--a", "3", "--delta", "0.5",
                                "--max-n", "12", "--json"],
    }
    shipped = sorted(p.name for p in SAMPLES.glob("*.lam"))
    assert shipped == sorted(commands)
    for name, args in sorted(commands.items()):
        command, rest = args[0], args[1:]
        runs = []
        for _ in range(2):
            csv = tmp_path / f"{name}.csv"
            extra = ["--csv", str(csv)] if command in ("complexity",) else []
            proc = subprocess.run(
                [sys.executable, "-m", "lamtool.cli", command,
                 str(SAMPLES / name), *rest, *extra],
                capture_output=True, text=True)
            assert proc.returncode == 0, (name, proc.stderr)
            runs.append(proc.stdout + "\n---\n" +
                        (csv.read_text() if extra else ""))
        assert runs[0] == runs[1], name
    passed(10, f"{len(commands)} shipped examples byte-identical")
