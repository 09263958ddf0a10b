"""Unit tests for the sign-patterned 8x8 multiplication matrices."""

import random
from fractions import Fraction

import pytest

from eulermagic.matrices import identity, mat_mul, mat_scale, transpose
from eulermagic.octonion import (
    LEFT_SIGN_TABLE,
    LEFT_VARS,
    RIGHT_SIGN_TABLE,
    RIGHT_VARS,
    gamma_product,
    left_matrix,
    right_matrix,
    sum_of_squares,
)
from eulermagic.poly import MultiPoly


def test_sign_tables_are_signed_permutations():
    for table in (LEFT_SIGN_TABLE, RIGHT_SIGN_TABLE):
        assert len(table) == 8
        for row in table:
            assert len(row) == 8
            assert sorted(k for k, _ in row) == list(range(8))
            assert all(s in (1, -1) for _, s in row)
        for j in range(8):
            assert sorted(table[i][j][0] for i in range(8)) == list(range(8))
        # the first parameter sits on the whole diagonal with positive sign
        assert all(table[i][i] == (0, 1) for i in range(8))


def test_first_column_signs():
    # both encodings place the parameter vector itself in the first column
    left = left_matrix(tuple(range(1, 9)))
    right = right_matrix(tuple(range(1, 9)))
    assert tuple(left.entry(i, 0) for i in range(8)) == tuple(range(1, 9))
    assert tuple(right.entry(i, 0) for i in range(8)) == tuple(range(1, 9))


def test_param_count_checked():
    with pytest.raises(ValueError):
        left_matrix((1, 2, 3))
    with pytest.raises(ValueError):
        right_matrix(tuple(range(9)))


def test_numeric_norm_identity():
    rng = random.Random(41)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8))
        s = sum_of_squares(x)
        for build in (left_matrix, right_matrix):
            m = build(x)
            assert mat_mul(m, transpose(m)) == mat_scale(s, identity(8))
            assert mat_mul(transpose(m), m) == mat_scale(s, identity(8))


def test_symbolic_norm_identity():
    """X * X^t equals the sum-of-squares scalar identically in the parameters."""
    for build, names in ((left_matrix, LEFT_VARS), (right_matrix, RIGHT_VARS)):
        params = MultiPoly.variables_of(names)
        m = build(params)
        s = sum_of_squares(params)
        product = mat_mul(m, transpose(m))
        zero = MultiPoly.zero(names)
        for i in range(8):
            for j in range(8):
                expected = s if i == j else zero
                assert product.entry(i, j) == expected


def test_gamma_product_factors():
    rng = random.Random(42)
    for _ in range(10):
        lx = tuple(rng.randint(-7, 7) for _ in range(8))
        rx = tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(8))
        g = gamma_product(lx, rx)
        assert g == sum_of_squares(lx) * sum_of_squares(rx)
        m = mat_mul(left_matrix(lx), right_matrix(rx))
        assert mat_mul(m, transpose(m)) == mat_scale(g, identity(8))

