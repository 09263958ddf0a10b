"""The fraction-free Bareiss and Cayley layer against sympy oracles.

bareiss_adjugate, mat_inverse, determinant and cayley_integer (behind cayley
and inverse_cayley) run on integer Bareiss elimination.  sympy (used here
only) recomputes determinants, inverses and Cayley transforms with its own
rational arithmetic, sharing no code with the package.
"""

from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulermagic.cayley import cayley, cayley_integer, skew_from_upper
from eulermagic.matrices import (
    Matrix,
    SingularMatrixError,
    bareiss_adjugate,
    determinant,
    mat_inverse,
    mat_mul,
    rescale_primitive,
)


def _to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def _from_sympy(m):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows))


def _rows(n, elements):
    return st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)


def _square(elements, max_n):
    return st.integers(1, max_n).flatmap(lambda n: _rows(n, elements))


_small_int = st.integers(-9, 9)
_fraction = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _skew(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(_fraction, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        .map(lambda values: skew_from_upper(n, values)))


@settings(max_examples=80)
@given(_square(_small_int, 6))
@example([[0, 1], [1, 0]])  # a row swap at the first pivot
@example([[0, 2, 1], [1, 1, 1], [3, 0, 2]])  # zero leading entry
@example([[2, 1, 0], [4, 2, 1], [1, 0, 3]])  # zero pivot after one step
@example([[1, 2], [2, 4]])  # singular
def test_bareiss_adjugate_matches_sympy(rows):
    expected_det = int(sympy.Matrix(rows).det())
    if expected_det == 0:
        with pytest.raises(SingularMatrixError):
            bareiss_adjugate(rows)
        return
    adj, det = bareiss_adjugate(rows)
    assert det == expected_det
    n = len(rows)
    assert sympy.Matrix(rows) * sympy.Matrix(adj) == det * sympy.eye(n)
    assert all(isinstance(x, int) for r in adj for x in r)


def test_bareiss_adjugate_leaves_input_alone():
    rows = [[0, 2, 1], [1, 1, 1], [3, 0, 2]]
    bareiss_adjugate(rows)
    assert rows == [[0, 2, 1], [1, 1, 1], [3, 0, 2]]


@settings(max_examples=25)
@given(_skew(7))
def test_cayley_matches_sympy(s):
    n = s.rows
    sym = _to_sympy(s.entries)
    expected = (sympy.eye(n) - sym) * (sympy.eye(n) + sym).inv()
    assert cayley(s).entries == _from_sympy(expected)


@settings(max_examples=30)
@given(_skew(7))
def test_cayley_integer_is_a_positive_multiple(s):
    n = s.rows
    d = lcm(*(x.denominator for r in s.entries for x in r))
    p, det = cayley_integer(d, [[int(d * x) for x in r] for r in s.entries])
    assert det > 0
    assert det == d**n * (sympy.eye(n) + _to_sympy(s.entries)).det()
    assert all(isinstance(x, int) for r in p for x in r)
    m = cayley(s)
    assert all(Fraction(x, det) == y for rp, rm in zip(p, m.entries)
               for x, y in zip(rp, rm))
    assert rescale_primitive(m) == rescale_primitive(Matrix(n, n, p))


@settings(max_examples=40)
@given(_square(_fraction, 5))
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 5), Fraction(-3, 7)]])
@example([[0, Fraction(1, 4)], [Fraction(5, 6), 1]])
def test_mat_inverse_matches_sympy(rows):
    a = Matrix.from_rows(rows)
    sym = _to_sympy(a.entries)
    if sym.det() == 0:
        with pytest.raises(SingularMatrixError):
            mat_inverse(a)
        return
    inv = mat_inverse(a)
    assert inv.entries == _from_sympy(sym.inv())
    n = a.rows
    assert mat_mul(a, inv).entries == tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


@settings(max_examples=40)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(_rows(n, _fraction), _rows(n, _fraction))))
def test_determinant_is_multiplicative(pair):
    a, b = (Matrix.from_rows(rows) for rows in pair)
    det_a = determinant(a)
    assert det_a == _to_sympy(a.entries).det()
    assert determinant(mat_mul(a, b)) == det_a * determinant(b)
