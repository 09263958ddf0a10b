"""Unit tests for Euler-magic verification and the induced square of squares."""

import importlib
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulermagic.cayley import cayley, inverse_cayley, ortho_reduce, skew_from_upper
from eulermagic.cli import _report_json, _report_text
from eulermagic.family8 import four_parameter_family
from eulermagic.matrices import (
    Matrix,
    identity,
    mat_mul,
    mat_scale,
    rescale_primitive,
    transpose,
)
from eulermagic.permutations import MAX_PERM_SIZE, construction_permutation, perm_matrix
from eulermagic.verify import (
    _row_condition,
    MAX_DUPLICATE_PAIRS,
    VerifyReport,
    magic_square_of_squares,
    verify,
)

from conftest import load_fixture


def test_row_condition_refuses_float_entries():
    # every entry is an integer below 2^53, so the float copy holds the same
    # values, but their squares are not, and float rounding read it as not magic
    exact = four_parameter_family(41, -60, -33, -50).primitive
    assert max(abs(x) for row in exact.entries for x in row) < 2 ** 53
    report = verify(exact)
    assert report.is_euler_magic and report.is_proper
    odd = Matrix(3, 3, [[2, -1, 2], [2, 2, -1], [-1, 2, 2]])
    assert ortho_reduce(odd)[0] == 3 and inverse_cayley(identity(3)) == Matrix(3, 3, [[0] * 3] * 3)
    for check, m in ((verify, exact), (ortho_reduce, odd), (inverse_cayley, identity(3))):
        floats = Matrix(m.rows, m.cols, [[float(x) for x in row] for row in m.entries])
        with pytest.raises(TypeError, match="must be exact rationals"):
            check(floats)


def test_verify_scans_for_exactness_once(monkeypatch):
    calls = []
    # the package's name `verify` is the function, so import the module by path
    verify_module = importlib.import_module("eulermagic.verify")
    scan = verify_module.exact_rationals

    def counting(values, what="values"):
        calls.append(what)
        return scan(values, what)

    monkeypatch.setattr(verify_module, "exact_rationals", counting)
    for m in (load_fixture("euler4.txt"), perm_matrix(construction_permutation(4)), identity(3)):
        calls.clear()
        verify(m)
        assert calls == ["matrix entries"]
    # _row_condition alone, as the Cayley callers use it, still scans
    calls.clear()
    assert _row_condition(identity(3).entries) == (1, True) and len(calls) == 1
    with pytest.raises(TypeError, match="must be exact rationals"):
        _row_condition(((1.0, 0), (0, 1)))


def test_identity_is_orthogonal_but_not_magic():
    # gamma = 1 but the diagonal squares sum to n, so only n = 1 would pass
    rep = verify(identity(3))
    assert rep.cond_orthogonal
    assert rep.gamma == 1
    assert not rep.cond_diagonal
    assert not rep.is_euler_magic


def test_permutation_matrix_is_improper_euler_magic():
    rep = verify(perm_matrix(construction_permutation(4)))
    assert rep.is_euler_magic
    assert rep.gamma == 1
    assert not rep.is_proper
    assert rep.distinct_square_count == 2  # squares 1 and 0
    assert rep.duplicate_pairs  # many coincidences listed


def test_scaled_magic_matrix_scales_gamma():
    rep = verify(mat_scale(3, perm_matrix(construction_permutation(4))))
    assert rep.is_euler_magic and rep.gamma == 9


def test_zero_gamma_rejected_as_not_magic():
    rep = verify(Matrix.from_rows([[0, 0], [0, 0]]))
    assert not rep.is_euler_magic
    assert rep.gamma == 0


def test_orthogonality_failure_detected():
    rep = verify(Matrix.from_rows([[1, 1], [0, 1]]))
    assert not rep.cond_orthogonal
    assert not rep.is_euler_magic


def test_diagonal_condition_failure_detected():
    # rows orthogonal with common norm, but the diagonal square-sum is not gamma
    m = Matrix.from_rows([[3, 4], [4, -3]])
    rep = verify(m)
    assert rep.cond_orthogonal
    assert rep.gamma == 25
    assert not rep.cond_diagonal  # 9 + 9 != 25
    assert not rep.is_euler_magic


def test_non_square_rejected():
    with pytest.raises(ValueError):
        verify(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_euler4_fixture(euler4):
    rep = verify(euler4)
    assert rep.is_euler_magic and rep.is_proper
    assert rep.gamma == 8515
    assert rep.distinct_square_count == 16
    assert rep.duplicate_pairs == ()


def test_duplicate_pair_positions_are_one_based():
    m = load_fixture("five5_1.txt")
    rep = verify(m)
    assert rep.duplicate_pairs == (((3, 2), (5, 3)),)
    (p, q), = rep.duplicate_pairs
    assert m.entry(p[0] - 1, p[1] - 1) ** 2 == m.entry(q[0] - 1, q[1] - 1) ** 2


def test_duplicate_pair_bound_admits_the_largest_construction():
    # perm n has n^2 - n zeros and n entries of square 1 (closed form, no report built)
    n = MAX_PERM_SIZE
    assert comb(n * n - n, 2) + comb(n, 2) == 378_450 <= MAX_DUPLICATE_PAIRS
    assert comb(80 * 80, 2) > MAX_DUPLICATE_PAIRS


def test_positions_are_indexed_only_when_squares_repeat(monkeypatch):
    # verify sorts its duplicate pairs only after building the position
    # index, so a spy on `sorted` sees whether the index was built
    module = importlib.import_module("eulermagic.verify")
    calls = []

    def spy(values):
        calls.append(1)
        return sorted(values)

    monkeypatch.setattr(module, "sorted", spy, raising=False)
    for name, proper in (("euler4.txt", True), ("family8.txt", True), ("five5_1.txt", False)):
        calls.clear()
        assert verify(load_fixture(name)).is_proper is proper
        assert len(calls) == (0 if proper else 1), name


def test_too_many_duplicate_pairs_refused_before_listing(monkeypatch):
    def never(*args):
        raise AssertionError("pairs listed before they were counted")

    # the package's verify function shadows the module of the same name
    monkeypatch.setattr(importlib.import_module("eulermagic.verify"), "combinations", never)
    with pytest.raises(ValueError, match="20476800 pairs of equal entry squares"):
        verify(Matrix.from_rows([[0] * 80] * 80))


def test_duplicate_pair_limit_admits_exactly_its_count(monkeypatch):
    # the 4x4 construction has 72 pairs of equal entry squares: 6 among its
    # four 1s and 66 among its twelve 0s
    m = perm_matrix(construction_permutation(4))
    module = importlib.import_module("eulermagic.verify")
    monkeypatch.setattr(module, "MAX_DUPLICATE_PAIRS", 72)
    assert len(verify(m).duplicate_pairs) == 72
    monkeypatch.setattr(module, "MAX_DUPLICATE_PAIRS", 71)
    with pytest.raises(ValueError, match="^72 pairs of equal entry squares; "
                                         "a report lists at most 71$"):
        verify(m)


def test_magic_square_of_squares(euler4):
    square = magic_square_of_squares(euler4)
    assert square.gamma == 8515
    assert square.all_sums_equal_gamma()
    assert square.squares.entry(0, 0) == 68 * 68
    assert set(square.row_sums) == {8515}
    assert set(square.col_sums) == {8515}
    assert square.diagonal_sum == square.antidiagonal_sum == 8515


def test_magic_square_requires_euler_magic():
    with pytest.raises(ValueError):
        magic_square_of_squares(Matrix.from_rows([[1, 1], [0, 1]]))


def test_report_serialization(euler4):
    rep = verify(euler4)
    d = _report_json(rep)
    assert d["gamma"] == "8515"
    assert d["proper"] is True
    assert d["distinct_squares"] == 16
    text = _report_text(rep)
    assert "gamma: 8515" in text
    assert "proper: true" in text
    assert "distinct_squares: 16" in text


def test_rational_entries_verify_exactly():
    half = mat_scale(Fraction(1, 2), perm_matrix(construction_permutation(5)))
    rep = verify(half)
    assert rep.is_euler_magic
    assert rep.gamma == Fraction(1, 4)


# ----------------------------------------------------------------------
# verify against the M * M^t reference, and its symmetries
# ----------------------------------------------------------------------

FIXTURE_NAMES = ("euler4.txt", "family8.txt", "search8.txt") + tuple(
    f"five5_{k}.txt" for k in range(1, 6))


def _reference_verify(m):
    """The report built the slow way: a full M * M^t compared with gamma * I."""
    n = m.rows
    product = mat_mul(m, transpose(m))
    gamma = product.entry(0, 0)
    cond_orthogonal = product == mat_scale(gamma, identity(n))
    diag_sum = sum((m.entry(i, i) ** 2 for i in range(n)), Fraction(0))
    anti_sum = sum((m.entry(i, n - 1 - i) ** 2 for i in range(n)), Fraction(0))
    squares = Matrix(n, n, tuple(tuple(x * x for x in row) for row in m.entries))
    by_value = {}
    for i in range(n):
        for j in range(n):
            by_value.setdefault(Fraction(squares.entry(i, j)), []).append((i + 1, j + 1))
    pairs = sorted(
        (ps[x], ps[y]) for ps in by_value.values()
        for x in range(len(ps)) for y in range(x + 1, len(ps)))
    return VerifyReport(
        n=n,
        gamma=gamma,
        cond_orthogonal=cond_orthogonal,
        cond_diagonal=diag_sum == gamma,
        cond_antidiagonal=anti_sum == gamma,
        is_euler_magic=cond_orthogonal and diag_sum == gamma and anti_sum == gamma
        and gamma != 0,
        is_proper=len(by_value) == n * n,
        distinct_square_count=len(by_value),
        duplicate_pairs=tuple(pairs),
        squares_matrix=squares,
    )


def _as_ints(m):
    return Matrix(m.rows, m.cols, tuple(tuple(int(x) for x in r) for r in m.entries))


def _as_fractions(m):
    return Matrix(m.rows, m.cols, tuple(tuple(Fraction(x) for x in r) for r in m.entries))


@pytest.mark.parametrize("m", [
    Matrix.from_rows([[1, 2], [3, 4]]),  # not orthogonal
    Matrix.from_rows([[1, 1, 0], [1, -1, 0], [0, 0, 1]]),  # orthogonal rows, unequal norms
    Matrix.from_rows([[0, 0], [0, 0]]),  # gamma = 0
    Matrix.from_rows([[0, 0], [1, 0]]),  # gamma = 0 but not orthogonal
    Matrix.from_rows([[7]]),
    Matrix.from_rows([[-3]]),
] + [load_fixture(name) for name in FIXTURE_NAMES])
def test_verify_matches_reference_on_ints_and_fractions(m):
    expected = _reference_verify(_as_fractions(m))
    for variant in (_as_ints(m), _as_fractions(m)):
        report = verify(variant)
        assert report == expected
        assert type(report.gamma) is type(_reference_verify(variant).gamma)
        assert _report_json(report) == _report_json(expected)


# small entries repeat their squares often: sign flips, zeros, and 1/2 against -1/2
_repeating_inputs = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-3, 3), st.sampled_from((Fraction(1, 2), Fraction(-1, 2)))),
             min_size=n, max_size=n), min_size=n, max_size=n,
).map(Matrix.from_rows))


@settings(max_examples=60, deadline=None)
@given(_repeating_inputs)
@example(perm_matrix(construction_permutation(4)))
@example(load_fixture("five5_1.txt"))
@example(load_fixture("family8.txt"))
def test_verify_reads_ints_as_the_equal_fractions(m):
    """verify on a matrix and on the same matrix with every entry a Fraction
    gives equal reports: gamma by value, the same duplicate pairs in the same
    order, and the same squares.  With MAX_DUPLICATE_PAIRS set to the pair
    count both are accepted, and one below it both are refused."""
    fractions = _as_fractions(m)
    report, fraction_report = verify(m), verify(fractions)
    assert report.gamma == fraction_report.gamma
    assert report.duplicate_pairs == fraction_report.duplicate_pairs
    assert report.squares_matrix == fraction_report.squares_matrix
    assert report == fraction_report
    pairs = len(report.duplicate_pairs)
    with pytest.MonkeyPatch.context() as patch:
        module = importlib.import_module("eulermagic.verify")
        patch.setattr(module, "MAX_DUPLICATE_PAIRS", pairs)
        assert verify(m) == verify(fractions) == report
        if pairs:
            patch.setattr(module, "MAX_DUPLICATE_PAIRS", pairs - 1)
            for variant in (m, fractions):
                with pytest.raises(ValueError, match=f"^{pairs} pairs of equal entry squares; "
                                                     f"a report lists at most {pairs - 1}$"):
                    verify(variant)


def test_verify_matches_reference_on_rationals():
    m = Matrix.from_rows([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(2, 3), Fraction(1, 2)]])
    assert verify(m) == _reference_verify(m)
    half = mat_scale(Fraction(1, 2), perm_matrix(construction_permutation(5)))
    assert verify(half) == _reference_verify(half)


def _flags(report):
    return (report.cond_orthogonal, report.cond_diagonal, report.cond_antidiagonal,
            report.is_euler_magic, report.is_proper, report.distinct_square_count,
            len(report.duplicate_pairs))


def _rotate(m):
    return Matrix(m.rows, m.cols, tuple(tuple(reversed(r)) for r in reversed(m.entries)))


def _negate_row(m, k):
    return Matrix(m.rows, m.cols, tuple(
        tuple(-x for x in r) if i == k else r for i, r in enumerate(m.entries)))


_orthogonal_inputs = st.one_of(
    st.sampled_from(FIXTURE_NAMES).map(load_fixture),
    st.integers(1, 6).flatmap(lambda n: st.lists(
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2,
    ).map(lambda values: rescale_primitive(cayley(skew_from_upper(n, values))))),
)
_any_inputs = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n,
).map(Matrix.from_rows))


@settings(max_examples=40)
@given(_orthogonal_inputs, st.integers(-4, 4).filter(bool), st.data())
def test_verify_symmetries_of_orthogonal_inputs(m, c, data):
    # gamma is the common row norm, so it survives every symmetry below
    report = verify(m)
    assert report.cond_orthogonal
    k = data.draw(st.integers(0, m.rows - 1))
    for image in (transpose(m), _rotate(m), _negate_row(m, k)):
        moved = verify(image)
        assert moved.gamma == report.gamma
        assert _flags(moved) == _flags(report)
    scaled = verify(mat_scale(c, m))
    assert scaled.gamma == c * c * report.gamma
    assert _flags(scaled) == _flags(report)


@settings(max_examples=60)
@given(_any_inputs, st.integers(-4, 4).filter(bool), st.data())
def test_verify_row_negation_and_scaling_on_any_input(m, c, data):
    report = verify(m)
    assert report == _reference_verify(m)
    k = data.draw(st.integers(0, m.rows - 1))
    negated = verify(_negate_row(m, k))
    assert negated.gamma == report.gamma
    assert _flags(negated) == _flags(report)
    assert negated.duplicate_pairs == report.duplicate_pairs
    scaled = verify(mat_scale(c, m))
    assert scaled.gamma == c * c * report.gamma
    assert _flags(scaled) == _flags(report)
    assert scaled.duplicate_pairs == report.duplicate_pairs


# ----------------------------------------------------------------------
# every field of verify, types included, against plain loops
# ----------------------------------------------------------------------

def _fields(report):
    squares = report.squares_matrix.entries
    return (report.n, report.gamma, type(report.gamma), report.cond_orthogonal,
            report.cond_diagonal, report.cond_antidiagonal, report.is_euler_magic,
            report.is_proper, report.distinct_square_count, report.duplicate_pairs,
            squares, tuple(type(x) for row in squares for x in row))


def _plain_fields(m):
    """The fields of verify(m) from loops over the entries, in the types verify gives."""
    rows = m.entries
    n = len(rows)
    gamma = 0
    for x in rows[0]:
        gamma = gamma + x * x
    orthogonal = True
    for i in range(n):
        for j in range(n):
            dot = 0
            for k in range(n):
                dot = dot + rows[i][k] * rows[j][k]
            orthogonal = orthogonal and dot == (gamma if i == j else 0)
    diag = anti = 0
    for i in range(n):
        diag = diag + rows[i][i] * rows[i][i]
        anti = anti + rows[i][n - 1 - i] * rows[i][n - 1 - i]
    cells = [((i + 1, j + 1), rows[i][j] * rows[i][j]) for i in range(n) for j in range(n)]
    # positions are listed row-major, so this is already the sorted order
    pairs = tuple((p, q) for k, (p, x) in enumerate(cells) for q, y in cells[k + 1:] if x == y)
    distinct = len({x for _, x in cells})
    squares = tuple(tuple(x for _, x in cells[i * n:(i + 1) * n]) for i in range(n))
    magic = orthogonal and diag == gamma and anti == gamma and gamma != 0
    return (n, gamma, type(gamma), orthogonal, diag == gamma, anti == gamma, magic,
            distinct == n * n, distinct, pairs, squares, tuple(type(x) for _, x in cells))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_verify_fields_match_plain_loops_on_fixtures(name):
    m = load_fixture(name)
    for variant in (m, _as_ints(m)):
        assert _fields(verify(variant)) == _plain_fields(variant)


_entry = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
_mixed_inputs = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n,
).map(Matrix.from_rows))


@settings(max_examples=150)
@given(st.one_of(_mixed_inputs, _orthogonal_inputs, _orthogonal_inputs.map(_as_fractions)))
@example(Matrix.from_rows([[1, 2], [3, 4]]))  # not orthogonal
@example(Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))  # gamma = 0, duplicates
@example(Matrix.from_rows([[1, -1], [1, 1]]))  # orthogonal, all squares equal
@example(Matrix.from_rows([[Fraction(2), -2], [2, Fraction(2)]]))  # int and Fraction squares collide
def test_verify_fields_match_plain_loops(m):
    assert _fields(verify(m)) == _plain_fields(m)
