"""Shared paths, loaders and reference oracles for the test suite."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from eulermagic.cayley import _skew_rows, cayley_integer
from eulermagic.matrices import Matrix, mat_mul, parse_matrix_text
from eulermagic.octonion import LEFT_VARS, RIGHT_VARS, left_matrix, right_matrix
from eulermagic.poly import MultiPoly

# property tests run exact arithmetic whose cost varies a lot between
# examples, so no per-example deadline; each test sets its own max_examples
settings.register_profile("eulermagic", deadline=None)
settings.load_profile("eulermagic")

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def load_fixture(name: str) -> Matrix:
    return parse_matrix_text((FIXTURES / name).read_text(encoding="utf-8"))


def cayley5_diagonals_by_bareiss(d, upper):
    """(det, diagonal, antidiagonal) of (P, det) = cayley_integer(d, S) for the
    skew S that _skew_rows builds from the ten strict-upper entries: the
    Bareiss reference for cayley5_diagonals, and for its parameter order."""
    p, det = cayley_integer(d, _skew_rows(5, upper))
    return det, [p[i][i] for i in range(5)], [p[i][4 - i] for i in range(5)]


def multipoly_product(left=None) -> Matrix:
    """L(left) * R(p..w) by mat_mul over MultiPoly, a reference for the 8x8
    layer that shares no code with family8.  A numeric left tuple gives
    entries over (p..w); left=None keeps a..h symbolic too, over
    (a..h, p..w)."""
    if left is None:
        symbols = MultiPoly.variables_of(LEFT_VARS + RIGHT_VARS)
        left = symbols[:8]
    else:
        symbols = MultiPoly.variables_of(RIGHT_VARS)
    return mat_mul(left_matrix(left), right_matrix(symbols[-8:]))


def quadratic_coeff_table(poly: MultiPoly):
    """Coefficient table {(i, j): c} with i <= j of a homogeneous quadratic:
    c[(i, i)] multiplies x_i**2 and c[(i, j)] multiplies x_i*x_j, the table
    quadratic_form_coeffs recovers from a blackbox."""
    if any(sum(exps) != 2 for exps in poly.terms):
        raise ValueError("polynomial is not a homogeneous quadratic")
    table = {}
    for exps, c in poly.terms.items():
        support = [i for i, e in enumerate(exps) for _ in range(e)]  # i, i for x_i**2
        table[tuple(support)] = c
    return table


# points at which quadratic_form_coeffs spot-checks f(2x) = 4 f(x)
_HOMOGENEITY_SAMPLES = 4


def _exact_value(c):
    """c as an int when it is integral, else as a reduced Fraction."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def quadratic_form_coeffs(f, n):
    """Recover the coefficient table of a homogeneous quadratic blackbox f of
    n arguments, in the form quadratic_coeff_table gives; a blackbox oracle
    that shares no code with the package.

    c[(i, i)] = f(e_i); c[(i, j)] = f(e_i + e_j) - f(e_i) - f(e_j) for i < j.
    The caller promises f is a homogeneous quadratic; this is spot-checked by
    evaluating f(2x) = 4 f(x) at a few pseudorandom points (fixed seed, so the
    check is deterministic).
    """
    rng = random.Random(271828)
    for _ in range(_HOMOGENEITY_SAMPLES):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        if f([2 * xi for xi in x]) != 4 * f(x):
            raise ValueError("homogeneity check failed: blackbox is not a quadratic form")

    def at(*ones):
        return f([Fraction(int(i in ones)) for i in range(n)])

    diag = [at(i) for i in range(n)]
    table = {(i, i): _exact_value(diag[i]) for i in range(n) if diag[i]}
    for i in range(n):
        for j in range(i + 1, n):
            c = at(i, j) - diag[i] - diag[j]
            if c:
                table[(i, j)] = _exact_value(c)
    return table


@pytest.fixture
def euler4() -> Matrix:
    return load_fixture("euler4.txt")


@pytest.fixture
def family8() -> Matrix:
    return load_fixture("family8.txt")
