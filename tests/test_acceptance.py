"""Acceptance suite: one test per shipped guarantee.

Each test is a single pass/fail line under ``pytest -v``.  Everything is
exact rational arithmetic; the only tolerances anywhere are the explicit
wall-clock budgets.
"""

import time
from fractions import Fraction

import pytest

from eulermagic.cayley import cayley, inverse_cayley, sign_diagonal, skew_from_upper
from eulermagic.certificates import nonexistence_certificate
from eulermagic.cli import _candidate_json, _canonical_json, _summary_json
from eulermagic.family8 import (
    diag_forms,
    enumerate_w1,
    four_parameter_family,
    w1_coefficient_checker,
)
from eulermagic.matrices import (
    determinant,
    identity,
    mat_add,
    mat_mul,
    rescale_primitive,
    transpose,
)
from eulermagic.octonion import RIGHT_VARS, left_matrix, right_matrix
from eulermagic.permutations import construction_permutation, perm_matrix, two_by_two_family
from eulermagic.poly import MultiPoly
from eulermagic.search import (
    SearchConfig,
    Xorshift64Star,
    search5_cayley,
    search8_seeded,
)
from eulermagic.verify import magic_square_of_squares, verify

from conftest import load_fixture, quadratic_coeff_table, quadratic_form_coeffs


def test_criterion_01_four_by_four_showcase():
    """The classical 4x4 matrix is proper Euler magic with gamma 8515."""
    matrix = load_fixture("euler4.txt")
    verify(matrix)  # warm-up so the timed run measures arithmetic only
    start = time.perf_counter()
    report = verify(matrix)
    square = magic_square_of_squares(matrix)
    elapsed = time.perf_counter() - start
    assert report.is_euler_magic and report.is_proper
    assert report.gamma == 8515 == 68**2 + 29**2 + 41**2 + 37**2
    assert square.all_sums_equal_gamma()
    assert len(square.row_sums) + len(square.col_sums) + 2 == 10
    assert elapsed < 0.010


def test_criterion_02_eight_by_eight_showcase():
    """The showcase 8x8 matrix is proper Euler magic with gamma 143072."""
    matrix = load_fixture("family8.txt")
    verify(matrix)
    start = time.perf_counter()
    report = verify(matrix)
    elapsed = time.perf_counter() - start
    assert report.is_euler_magic and report.is_proper
    right = (-7, -55, -11, 1, -27, -13, -19, 4)
    assert report.gamma == 143072 == 32 * sum(x * x for x in right)
    assert elapsed < 0.050


def test_criterion_03_family_reproduces_showcase():
    """four_parameter_family(-55,-11,-27,-148) rebuilds the 8x8 showcase."""
    result = four_parameter_family(-55, -11, -27, -148)
    assert result.x_value == 23088
    q, r, t, u = -55, -11, -27, -148
    assert Fraction(u * u - result.x_value, 2 * u) == 4
    assert Fraction(3 * (t * t - 1) * u, 2 * result.x_value) == -7
    fixture = load_fixture("family8.txt")
    neg = tuple(tuple(-x for x in row) for row in fixture.entries)
    assert result.primitive.entries in (fixture.entries, neg)


def test_criterion_04_family_is_magic_at_random_points():
    """100 seeded rational parameter points all satisfy the three conditions."""
    rng = Xorshift64Star(20260814)
    start = time.perf_counter()
    checked = 0
    while checked < 100:
        point = tuple(rng.rational(20, 6) for _ in range(4))
        try:
            result = four_parameter_family(*point)
        except ValueError:
            continue  # X = 0 or u = 0: outside the family's domain
        report = result.report
        assert report.cond_orthogonal, point
        assert report.cond_diagonal, point
        assert report.cond_antidiagonal, point
        assert report.gamma != 0, point
        checked += 1
    assert time.perf_counter() - start < 10.0


def test_criterion_05_three_by_three_certificate():
    """All four nonexistence identities normalize to exact zero."""
    start = time.perf_counter()
    lines = nonexistence_certificate()
    elapsed = time.perf_counter() - start
    by_name = {line.name: line.status for line in lines}
    assert by_name["main-identity"] == "PASS"
    assert by_name["beta-s-p-reduction"] == "PASS"
    assert by_name["elimination-identity"] == "PASS"
    assert by_name["reduction-produces-elimination"] == "PASS"
    assert by_name["sqrt-3-irrational"] == "AXIOM"
    assert elapsed < 1.0


def test_criterion_06_diag_forms_match_blackbox_oracle():
    """Symbolic A and B agree with blackbox quadratic recovery on 50 tuples."""
    rng = Xorshift64Star(606)
    for _ in range(50):
        left = tuple(rng.uniform_int(-9, 9) for _ in range(8))
        forms = diag_forms(left)
        for poly in (forms.A, forms.B):
            def blackbox(values, poly=poly):
                return poly.eval(dict(zip(RIGHT_VARS, values)))

            assert quadratic_form_coeffs(blackbox, 8) == quadratic_coeff_table(poly)
        a, h = left[0], left[7]
        assert forms.A.coefficient_of("w", 2) == MultiPoly.constant(
            RIGHT_VARS, 8 * (h - a) * (h + a))
        w1 = forms.A.coefficient_of("w", 1)
        assert w1.coefficient_of("p", 1) == MultiPoly.constant(RIGHT_VARS, 16 * a * h)


def test_criterion_07_eliminated_cubic_structure_over_all_small_tuples():
    """Every restricted tuple with a <= 3 drops the p^3 term and shapes p^2."""
    tuples = enumerate_w1(3)
    assert len(tuples) == 104576
    check = w1_coefficient_checker()
    assert all(check(left) for left in tuples)


def test_criterion_08_search8_reproduces_worked_solution():
    """The seeded 8x8 pipeline rebuilds the known proper matrix exactly."""
    left = (0, 1, 1, 1, 1, 1, -1, 5)
    partial = (3, -2, -4, 5, 6)
    solution = (Fraction(13, 15), Fraction(-14, 15), Fraction(-23, 5))
    result = search8_seeded(left, partial, supplied=solution)
    assert result.hits == 1
    candidate = result.candidates[0]
    expected = rescale_primitive(
        mat_mul(
            left_matrix(left), right_matrix((45, -30, -60, 75, 90, 13, -14, -69))
        )
    )
    neg = tuple(tuple(-x for x in row) for row in expected.entries)
    assert candidate.matrix.entries in (expected.entries, neg)
    report = verify(candidate.matrix)
    assert report.is_euler_magic and report.is_proper


def test_criterion_09_five_by_five_fixtures():
    """All five 5x5 fixtures are Euler magic with exactly one square collision."""
    expected = {
        "five5_1.txt": (20449, ((3, 2), (5, 3)), 20),
        "five5_2.txt": (30625, ((4, 2), (5, 2)), 82),
        "five5_3.txt": (140625, ((3, 2), (4, 2)), 102),
        "five5_4.txt": (253009, ((1, 4), (5, 2)), 188),
        "five5_5.txt": (390625, ((1, 1), (2, 4)), 392),
    }
    for name, (gamma, pair, magnitude) in expected.items():
        matrix = load_fixture(name)
        report = verify(matrix)
        assert report.is_euler_magic, name
        assert report.gamma == gamma, name
        assert report.distinct_square_count == 24, name
        assert report.duplicate_pairs == (pair,), name
        (i1, j1), (i2, j2) = pair
        assert abs(matrix.entry(i1 - 1, j1 - 1)) == magnitude
        assert abs(matrix.entry(i2 - 1, j2 - 1)) == magnitude


def test_criterion_10_permutation_and_two_by_two_constructions():
    """Improper constructions verify for n in 4..12; n = 3 is rejected."""
    for n in range(4, 13):
        report = verify(perm_matrix(construction_permutation(n)))
        assert report.is_euler_magic, n
        assert report.gamma == 1, n
        assert report.distinct_square_count == 2, n
    with pytest.raises(ValueError):
        perm_matrix(construction_permutation(3))
    for variant in (1, 2, 3, 4):
        report = verify(two_by_two_family(3, variant))
        assert report.is_euler_magic
        assert not report.is_proper


def test_criterion_11_cayley_suite():
    """100 random skew matrices per odd size round-trip through Cayley."""
    rng = Xorshift64Star(1111)
    for n in (3, 5, 7):
        k = n * (n - 1) // 2
        for _ in range(100):
            skew = skew_from_upper(
                n, [rng.rational(9, 4) for _ in range(k)]
            )
            m = cayley(skew)
            assert mat_mul(m, transpose(m)) == identity(n)
            assert inverse_cayley(m) == skew
            d = sign_diagonal(m)
            assert determinant(mat_add(m, d)) != 0


def test_criterion_12_search_output_is_deterministic():
    """Search output is byte-identical across repeats and worker counts."""

    def render(result):
        lines = [_canonical_json(_candidate_json(c)) for c in result.candidates]
        lines.append(_canonical_json(_summary_json(result)))
        return "\n".join(lines).encode("utf-8")

    config = SearchConfig(
        seed=2024, numerator_bound=9, denominator_bound=4, max_iterations=50
    )
    five_runs = [
        render(search5_cayley(config)),
        render(search5_cayley(config)),
        render(search5_cayley(config, workers=3)),
    ]
    assert five_runs[0] == five_runs[1] == five_runs[2]

    left = (0, 1, 1, 1, 1, 1, -1, 5)
    partial = (3, -2, -4, 5, 6)
    center = (Fraction(13, 15), Fraction(-14, 15))
    eight_runs = [
        render(search8_seeded(left, partial, height=2, center=center)),
        render(search8_seeded(left, partial, height=2, center=center)),
        render(search8_seeded(left, partial, height=2, center=center, workers=3)),
    ]
    assert eight_runs[0] == eight_runs[1] == eight_runs[2]
