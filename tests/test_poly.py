"""Unit tests for the sparse multivariate polynomial kernel."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulermagic.poly import MultiPoly, parse_poly

from conftest import quadratic_coeff_table, quadratic_form_coeffs

XY = ("x", "y")
XYZ = ("x", "y", "z")


def _compose(poly, assignment, variables):
    """poly with every variable mapped to a polynomial over the context
    variables, by ring operations alone: a reference for substitute."""
    result = MultiPoly.zero(variables)
    for exps, c in poly.terms.items():
        term = MultiPoly.constant(variables, c)
        for name, k in zip(poly.variables, exps):
            term = term * assignment[name] ** k
        result = result + term
    return result


def test_zero_and_constant():
    assert MultiPoly.zero(XY).terms == {}
    assert MultiPoly.constant(XY, Fraction(3, 2)).terms == {(0, 0): Fraction(3, 2)}
    assert MultiPoly.constant(XY, 0) == MultiPoly.zero(XY)


@pytest.mark.parametrize("value", [0.1, "1/2"])
def test_constant_rejects_non_rational_coefficients(value):
    # a float would pass as its binary expansion, 0.1 as 3602879701896397/2**55
    with pytest.raises(TypeError, match="coefficient must be int or Fraction"):
        MultiPoly.constant(XY, value)


def test_variable_and_arithmetic():
    x, y = MultiPoly.variables_of(XY)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert {sum(exps) for exps in p.terms} == {2}
    assert {sum(exps) for exps in (p + 1).terms} == {0, 2}


def test_integer_and_fraction_coefficients_normalize():
    x, _ = MultiPoly.variables_of(XY)
    p = x * Fraction(4, 2)
    (exps, coeff), = p.terms.items()
    assert coeff == 2 and isinstance(coeff, int)
    q = x * Fraction(1, 2) + x * Fraction(1, 2)
    (_, coeff), = q.terms.items()
    assert coeff == 1 and isinstance(coeff, int)


def test_cancellation_produces_true_zero():
    x, y = MultiPoly.variables_of(XY)
    p = x * y - y * x
    assert p.terms == {}
    assert p == MultiPoly.zero(XY)


def test_degree_in_and_coefficient_of():
    x, y, z = MultiPoly.variables_of(XYZ)
    p = x * x * y + 3 * x * z - 7 * y + 5
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert p.degree_in("w" if "w" in XYZ else "z") == 1
    assert MultiPoly.zero(XYZ).degree_in("x") == -1
    cx2 = p.coefficient_of("x", 2)
    assert cx2 == MultiPoly.variable(XYZ, "y")
    cx1 = p.coefficient_of("x", 1)
    assert cx1 == 3 * MultiPoly.variable(XYZ, "z")
    cx0 = p.coefficient_of("x", 0)
    assert cx0 == -7 * MultiPoly.variable(XYZ, "y") + 5
    # the extracted slot is zeroed out, so coefficients reassemble the input
    reassembled = cx2 * x * x + cx1 * x + cx0
    assert reassembled == p


def test_substitute_and_compose_and_eval():
    x, y = MultiPoly.variables_of(XY)
    p = x * x + y
    assert p.substitute("x", 3) == MultiPoly.variable(XY, "y") + 9
    assert p.substitute("x", y) == y * y + y
    assert p.eval({"x": Fraction(1, 2), "y": 2}) == Fraction(9, 4)
    with pytest.raises(ValueError):
        p.eval({"x": 1})
    q = _compose(p, {"x": x + y, "y": x - y}, XY)
    assert q == (x + y) ** 2 + x - y


def test_mixed_context_rejected():
    x, _ = MultiPoly.variables_of(XY)
    u, _, _ = MultiPoly.variables_of(XYZ)
    with pytest.raises(ValueError):
        _ = x + u


def test_str_graded_lex_and_parse_roundtrip():
    x, y, z = MultiPoly.variables_of(XYZ)
    p = 2 * x * y - z * z * z + x - Fraction(1, 2)
    text = str(p)
    assert text == "-z^3 + 2*x*y + x - 1/2"
    assert parse_poly(text, XYZ) == p
    assert str(MultiPoly.zero(XYZ)) == "0"
    assert parse_poly("0", XYZ) == MultiPoly.zero(XYZ)


def test_parse_poly_errors():
    with pytest.raises(ValueError):
        parse_poly("", XY)
    with pytest.raises(ValueError):
        parse_poly("x + q", XY)


@pytest.mark.parametrize("text", ["1e5*x", "3*x^-1 + x", "x^", "2*x^ 2", "x^1_0",
                                  "x y", "2 3", "x - - y", "x ++ y", "+x"])
def test_parse_poly_rejects_malformed_numbers_and_powers(text):
    # each was once read as a polynomial: 100000*x, x + 3*x^-1 (printed
    # "x + 3"), x, 2*x + 2, x^10, x + y, 5, x + y, x + y and x; str writes
    # only " + " or " - " between terms and at most a "-" before the first
    with pytest.raises(ValueError):
        parse_poly(text, XY)


def test_random_ring_identities():
    """Seeded random polynomials satisfy ring identities exactly."""
    rng = random.Random(20240)

    def rand_poly():
        p = MultiPoly.zero(XYZ)
        for _ in range(rng.randint(1, 5)):
            term = MultiPoly.constant(XYZ, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            for name in XYZ:
                term = term * MultiPoly.variable(XYZ, name) ** rng.randint(0, 2)
            p = p + term
        return p

    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * (a - b) == a * a - b * b
        assert (a * b) * c == a * (b * c)
        point = {name: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for name in XYZ}
        assert (a * b + c).eval(point) == a.eval(point) * b.eval(point) + c.eval(point)
        text = str(a)
        if text != "0":
            assert parse_poly(text, XYZ) == a


def test_quadratic_coeff_table():
    x, y, z = MultiPoly.variables_of(XYZ)
    q = 2 * x * x - 3 * x * y + 5 * y * z
    table = quadratic_coeff_table(q)
    assert table == {(0, 0): 2, (0, 1): -3, (1, 2): 5}
    with pytest.raises(ValueError):
        quadratic_coeff_table(q + x)


def test_quadratic_form_coeffs_blackbox_matches_symbolic():
    x, y, z = MultiPoly.variables_of(XYZ)
    q = 2 * x * x - 3 * x * y + 5 * y * z - z * z

    def blackbox(v):
        return q.eval({"x": v[0], "y": v[1], "z": v[2]})

    assert quadratic_form_coeffs(blackbox, 3) == quadratic_coeff_table(q)


def test_quadratic_form_coeffs_rejects_non_quadratic():
    def cubic(v):
        return v[0] ** 3

    with pytest.raises(ValueError):
        quadratic_form_coeffs(cubic, 1)


# ----------------------------------------------------------------------
# property tests: ring laws, substitution, rendering and the normal form
# ----------------------------------------------------------------------

COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), COEFFS, max_size=5).map(
    lambda terms: MultiPoly(XYZ, terms)
)
POINTS = st.fixed_dictionaries({name: COEFFS for name in XYZ})


def _assert_normal_form(p):
    for exps, c in p.terms.items():
        assert isinstance(exps, tuple) and len(exps) == len(p.variables)
        assert c != 0
        assert isinstance(c, (int, Fraction))
        if isinstance(c, Fraction):
            assert c.denominator != 1


@given(POLYS, POLYS, POLYS)
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    zero, one = MultiPoly.zero(XYZ), MultiPoly.constant(XYZ, 1)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * zero == zero
    assert a * one == a
    assert a + (-a) == zero and a - a == zero
    assert a - b == a + (-b)
    for p in (a + b, a * b, -a, a - b, a * c + b):
        _assert_normal_form(p)


@given(POLYS, COEFFS)
@settings(max_examples=60)
def test_scalar_operations_match_constants(a, k):
    const = MultiPoly.constant(XYZ, k)
    _assert_normal_form(const)
    for p, q in ((a * k, a * const), (k * a, const * a), (a + k, a + const),
                 (a - k, a - const), (k - a, const - a)):
        assert p == q
        _assert_normal_form(p)


@given(POLYS, st.integers(0, 4))
@settings(max_examples=40)
def test_power_is_repeated_product(a, n):
    expect = MultiPoly.constant(XYZ, 1)
    for _ in range(n):
        expect = expect * a
    assert a ** n == expect
    _assert_normal_form(a ** n)


@given(POLYS, st.sampled_from(XYZ), COEFFS, POINTS)
@settings(max_examples=60)
def test_numeric_substitute_agrees_with_eval(a, name, value, point):
    sub = a.substitute(name, value)
    _assert_normal_form(sub)
    assert sub.degree_in(name) <= 0
    assert sub.eval(point) == a.eval({**point, name: value})


@given(POLYS, st.sampled_from(XYZ), POLYS)
@settings(max_examples=40)
def test_polynomial_substitute_agrees_with_compose(a, name, q):
    images = {v: q if v == name else MultiPoly.variable(XYZ, v) for v in XYZ}
    sub = a.substitute(name, q)
    assert sub == _compose(a, images, XYZ)
    _assert_normal_form(sub)


@given(POLYS, st.sampled_from(XYZ), st.integers(0, 2))
@settings(max_examples=40)
def test_coefficient_of_normal_form(a, name, k):
    _assert_normal_form(a.coefficient_of(name, k))


@given(POLYS)
@settings(max_examples=60)
def test_parse_poly_roundtrip_property(a):
    parsed = parse_poly(str(a), XYZ)
    assert parsed == a
    _assert_normal_form(parsed)
    _assert_normal_form(a)


@given(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), COEFFS, max_size=5))
@settings(max_examples=40)
def test_constructor_normal_form(terms):
    p = MultiPoly(XYZ, terms)
    _assert_normal_form(p)
    assert p.terms == {e: c for e, c in terms.items() if c}


class _Int(int):
    pass


def test_constructor_stores_bool_and_int_subclass_coefficients_as_ints():
    p = MultiPoly(XY, {(0, 0): True, (1, 0): False, (0, 1): _Int(-3), (1, 1): Fraction(4, 2)})
    assert p.terms == {(0, 0): 1, (0, 1): -3, (1, 1): 2}
    assert all(type(c) is int for c in p.terms.values())
    assert p == MultiPoly(XY, {(0, 0): 1, (0, 1): -3, (1, 1): 2})
