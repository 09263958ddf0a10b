"""Unit tests for the exact rational matrix core."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulermagic import matrices
from eulermagic.cli import _matrix_json
from eulermagic.matrices import (
    Matrix,
    SingularMatrixError,
    clear_denominators,
    determinant,
    format_matrix_text,
    identity,
    mat_add,
    mat_inverse,
    mat_mul,
    mat_scale,
    parse_matrix_text,
    parse_rational,
    rescale_primitive,
    transpose,
)
from eulermagic.poly import MultiPoly


def test_construction_checks():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == m.cols == 2
    assert m.entry(1, 0) == 3
    assert m.is_square()
    with pytest.raises(ValueError):
        Matrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(ValueError):
        Matrix(0, 1, ())


def test_identity_and_multiply():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert mat_mul(a, identity(2)) == a
    assert mat_mul(identity(2), a) == a
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert mat_mul(a, b) == Matrix.from_rows([[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        mat_mul(a, Matrix.from_rows([[1, 2, 3]]))
    # against a plain triple loop over three rings, on degenerate and full shapes
    rng = random.Random(64)
    x, y = MultiPoly.variables_of(("x", "y"))
    draws = (lambda: rng.randint(-9, 9),
             lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
             lambda: rng.randint(-3, 3) * x + rng.randint(-3, 3) * y + rng.randint(-3, 3))
    for draw in draws:
        for n, m, k in ((1, 1, 1), (5, 1, 5), (8, 8, 8)):
            left = [[draw() for _ in range(m)] for _ in range(n)]
            right = [[draw() for _ in range(k)] for _ in range(m)]
            expected = [[left[i][0] * right[0][j] for j in range(k)] for i in range(n)]
            for i in range(n):
                for j in range(k):
                    for t in range(1, m):
                        expected[i][j] = expected[i][j] + left[i][t] * right[t][j]
            product = mat_mul(Matrix.from_rows(left), Matrix.from_rows(right))
            assert (product.rows, product.cols) == (n, k)
            assert product.entries == tuple(map(tuple, expected))
            assert [type(v) for row in product.entries for v in row] == \
                [type(v) for row in expected for v in row]


def test_add_sub_scale_transpose():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5, 6], [7, 8]])
    assert mat_add(a, b) == Matrix.from_rows([[6, 8], [10, 12]])
    assert mat_add(b, mat_scale(-1, a)) == Matrix.from_rows([[4, 4], [4, 4]])
    assert mat_scale(Fraction(1, 2), a) == Matrix.from_rows(
        [[Fraction(1, 2), 1], [Fraction(3, 2), 2]]
    )
    assert transpose(a) == Matrix.from_rows([[1, 3], [2, 4]])


def test_determinant_known_values():
    assert determinant(Matrix.from_rows([[2]])) == 2
    assert determinant(Matrix.from_rows([[1, 2], [3, 4]])) == -2
    # Vandermonde on 2, 3, 5
    v = Matrix.from_rows([[1, 2, 4], [1, 3, 9], [1, 5, 25]])
    assert determinant(v) == (3 - 2) * (5 - 2) * (5 - 3)
    singular = Matrix.from_rows([[1, 2], [2, 4]])
    assert determinant(singular) == 0
    frac = Matrix.from_rows([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
    assert determinant(frac) == Fraction(1, 6) - 1


def test_determinant_multiplicative_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = Matrix.from_rows(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        b = Matrix.from_rows(
            [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


def test_inverse_roundtrip_random():
    rng = random.Random(11)
    produced = 0
    while produced < 20:
        n = rng.randint(1, 4)
        a = Matrix.from_rows(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        if determinant(a) == 0:
            continue
        produced += 1
        inv = mat_inverse(a)
        assert mat_mul(a, inv) == identity(n)
        assert mat_mul(inv, a) == identity(n)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        mat_inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        mat_inverse(Matrix.from_rows([[1, 2, 3]]))


def test_rescale_primitive():
    m = Matrix.from_rows([[Fraction(2, 3), Fraction(4, 3)], [2, Fraction(-8, 3)]])
    p = rescale_primitive(m)
    assert p == Matrix.from_rows([[1, 2], [3, -4]])
    assert rescale_primitive(p) == p
    with pytest.raises(ValueError):
        rescale_primitive(Matrix.from_rows([[0, 0]]))
    scaled = mat_scale(Fraction(-7, 5), p)
    again = rescale_primitive(scaled)
    neg = mat_scale(-1, p)
    assert again in (p, neg)


def test_text_roundtrip_and_comments():
    m = Matrix.from_rows([[Fraction(1, 2), -3], [4, Fraction(5, 7)]])
    text = format_matrix_text(m)
    assert parse_matrix_text(text) == m
    with_comments = "# gamma below\n 1/2 -3\n\n4 5/7\n"
    assert parse_matrix_text(with_comments) == m
    with pytest.raises(ValueError):
        parse_matrix_text("1 2\n3\n")
    with pytest.raises(ValueError):
        parse_matrix_text("")
    with pytest.raises(ValueError):
        parse_matrix_text("1 spam\n")


def test_json_roundtrip():
    m = Matrix.from_rows([[Fraction(1, 2), -3], [4, 0]])
    d = _matrix_json(m)
    assert d == {"rows": 2, "cols": 2, "entries": [["1/2", "-3"], ["4", "0"]]}
    assert json.loads(json.dumps(d)) == d
    # each entry string reads back exactly through parse_rational
    assert Matrix.from_rows([[parse_rational(x) for x in r] for r in d["entries"]]) == m


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-14/15", Fraction(-14, 15)), ("+4/6", Fraction(2, 3)),
    (".5", Fraction(1, 2)), ("-.5", Fraction(-1, 2)), ("12.25", Fraction(49, 4)),
])
def test_parse_rational_reads_the_documented_forms(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text, value", [
    ("7", 7), ("-007", -7), ("14/2", 7), ("3.0", 3),
    ("1/2", Fraction(1, 2)), ("-.5", Fraction(-1, 2)),
])
def test_parse_rational_reads_integer_values_as_ints(text, value):
    # an integer value comes back as an int, so integral matrices stay in int arithmetic
    parsed = parse_rational(text)
    assert parsed == value and type(parsed) is type(value)
    rows = parse_matrix_text(f"{text} 1\n").entries
    assert [type(x) for x in rows[0]] == [type(value), int]


@pytest.mark.parametrize("text", [
    "1e100000000", "1E5", "2.5e-3", "1_000", "inf", "nan", "1/2/3", "1/.5", "3.",
    " 3", "+", "", "--1",
])
def test_parse_rational_refuses_other_forms_before_fraction(monkeypatch, text):
    # Fraction("1e100000000") would build 10^100000000; the refusal comes first
    def never(*args):
        raise AssertionError("Fraction called on a refused token")

    monkeypatch.setattr(matrices, "Fraction", never)
    with pytest.raises(ValueError, match="not a rational number"):
        parse_rational(text)


def test_matrix_readers_refuse_exponent_notation():
    with pytest.raises(ValueError, match="line 2: cannot parse matrix entry"):
        parse_matrix_text("1 0\n0 1e100000000\n")
    with pytest.raises(ValueError, match="zero denominator: '1/0'"):
        parse_rational("1/0")


class _Int(int):
    pass


_RATIONAL_OR_INT = st.one_of(st.integers(), st.booleans(), st.integers().map(_Int),
                             st.fractions(max_denominator=50))


@settings(max_examples=200)
@given(st.lists(_RATIONAL_OR_INT, max_size=12))
@example([])
@example([3, -7, 10**30])  # plain ints: the fast path
@example([3, True, _Int(2)])  # ints, but not all plain: the general path
def test_clear_denominators_matches_an_lcm_reference(values):
    den = 1
    for x in values:
        q = Fraction(x).denominator
        den = den * q // gcd(den, q)
    expected = [Fraction(x) * den for x in values]
    for given_values in (values, iter(values)):
        got_den, ints = clear_denominators(given_values)
        assert got_den == den and ints == expected
        assert type(got_den) is int and all(type(x) is int for x in ints)
        assert ints is not values
