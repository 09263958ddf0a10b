"""Refusals of bad library input: each raises its exception type with its
message, and none of them is reached by the other tests."""

import pytest

from eulermagic import search
from eulermagic.cayley import inverse_cayley, ortho_reduce, sign_diagonal
from eulermagic.family8 import (
    FAMILY_LEFT,
    entries_distinct,
    enumerate_w1,
    integer_forms,
    solve_chain,
    verified_product,
)
from eulermagic.matrices import Matrix, determinant, mat_add
from eulermagic.permutations import Permutation
from eulermagic.poly import MultiPoly, parse_poly
from eulermagic.search import search8_seeded

XY = ("x", "y")
WIDE = Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
WORKED_LEFT = (0, 1, 1, 1, 1, 1, -1, 5)
WORKED_PARTIAL = (3, -2, -4, 5, 6)
X = MultiPoly.variable(XY, "x")

REFUSALS = {
    "entries_distinct 17 values": (lambda: entries_distinct((1,) * 17), ValueError,
                                   "expected at most 16 fixed values, got 17"),
    "enumerate_w1(0)": (lambda: enumerate_w1(0), ValueError, "a_max must be at least 1"),
    "solve_chain unrestricted left": (
        lambda: solve_chain((1, 2, 3, 4, 5, 6, 7, 8), {}), ValueError,
        "left tuple does not satisfy the degree-one restriction"),
    "solve_chain unknown variable": (
        lambda: solve_chain(FAMILY_LEFT, {"z": 1}), ValueError,
        "cannot fix variable 'z'; choose among ('q', 'r', 's', 't', 'u', 'v')"),
    "solve_chain missing value": (
        lambda: solve_chain(FAMILY_LEFT, {"q": -55, "r": -11, "t": -27}), ValueError,
        "missing fixed values for ['u']"),
    "integer_forms count": (lambda: integer_forms(FAMILY_LEFT[:7]), ValueError,
                            "expected exactly 8 coefficients, got 7"),
    "integer_forms float": (lambda: integer_forms((0.5,) + FAMILY_LEFT[1:]), TypeError,
                            "left coefficients must be exact rationals (int or Fraction), "
                            "got float 0.5"),
    "entries_distinct float left": (
        lambda: entries_distinct((0.5,) + FAMILY_LEFT[1:] + (1, 2)), TypeError,
        "left coefficients must be exact rationals (int or Fraction), got float 0.5"),
    "verified_product float right": (
        lambda: verified_product(FAMILY_LEFT, (0.5,) + FAMILY_LEFT[1:]), TypeError,
        "right coefficients must be exact rationals (int or Fraction), got float 0.5"),
    "search8_seeded 4 partial values": (
        lambda: search8_seeded(WORKED_LEFT, (3, -2, -4, 5)), ValueError,
        "expected exactly five fixed values (p, q, r, s, t)"),
    "search8_seeded 2 supplied values": (
        lambda: search8_seeded(WORKED_LEFT, WORKED_PARTIAL, supplied=(1, 2)), ValueError,
        "expected exactly three supplied values (u, v, w)"),
    "search8_seeded 3 center coordinates": (
        lambda: search8_seeded(WORKED_LEFT, WORKED_PARTIAL, height=1, center=(1, 2, 3)),
        ValueError, "expected exactly two center coordinates (u, v)"),
    "search8_seeded float center at height 0": (
        lambda: search8_seeded(WORKED_LEFT, WORKED_PARTIAL, center=(0.5, 1)), TypeError,
        "center coordinates must be exact rationals (int or Fraction), got float 0.5"),
    "Matrix.from_rows([])": (lambda: Matrix.from_rows([]), ValueError,
                             "matrix needs at least one row"),
    "mat_add shapes": (lambda: mat_add(WIDE, Matrix.from_rows([[1, 0], [0, 1]])), ValueError,
                       "dimension mismatch in addition"),
    "determinant non-square": (lambda: determinant(WIDE), ValueError,
                               "determinant needs a square matrix"),
    "inverse_cayley non-square": (lambda: inverse_cayley(WIDE), ValueError,
                                  "input must be square"),
    "sign_diagonal non-square": (lambda: sign_diagonal(WIDE), ValueError, "input must be square"),
    "ortho_reduce non-square": (lambda: ortho_reduce(WIDE), ValueError, "input must be square"),
    "Permutation(())": (lambda: Permutation(()), ValueError,
                        "permutation must act on a nonempty set"),
    "sigma(0)": (lambda: Permutation((2, 1))(0), ValueError, "argument 0 outside 1..2"),
    "duplicate variable names": (lambda: MultiPoly(("x", "x")), ValueError,
                                 "duplicate variable names in context ('x', 'x')"),
    "exponent arity": (lambda: MultiPoly(XY, {(1,): 1}), ValueError,
                       "exponent vector (1,) does not match context of arity 2"),
    "unknown variable": (lambda: X.degree_in("z"), ValueError,
                         "unknown variable 'z' in context ('x', 'y')"),
    "negative power": (lambda: X ** -1, ValueError, "exponent must be a nonnegative integer"),
    "negative k": (lambda: X.coefficient_of("x", -1), ValueError,
                   "exponent must be nonnegative"),
    "substitute a str": (lambda: X.substitute("x", "1"), TypeError,
                         "cannot substitute value of type str"),
    "parse_poly bare signs": (lambda: parse_poly("x + -", XY), ValueError,
                              "malformed term in 'x + -'"),
    "parse_poly empty factor": (lambda: parse_poly("x**y", XY), ValueError,
                                "malformed term in 'x**y'"),
    "parse_poly dangling sign": (lambda: parse_poly("x +", XY), ValueError,
                                 "dangling sign in 'x +'"),
    "parse_poly zero denominator": (lambda: parse_poly("1/0*x", XY), ValueError,
                                    "zero denominator: '1/0'"),
    "uniform_int 2^64 + 1 integers": (
        lambda: search.Xorshift64Star(1).uniform_int(0, 2**64), ValueError,
        "range exceeds the generator's 2^64 outputs"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_search8_refuses_a_short_left_before_the_witness_scan(monkeypatch):
    def scan(left):
        raise AssertionError("witness scan reached")

    monkeypatch.setattr(search, "improper_witnesses", scan)
    with pytest.raises(ValueError) as info:
        search8_seeded(WORKED_LEFT[:7], (3, -2, -4, 5, 6))
    assert str(info.value) == "expected exactly 8 coefficients, got 7"
