"""The exported numeric entry points refuse inexact numbers.

A float, Decimal, complex or str among the values of an exact question must
be a TypeError or ValueError: never an AttributeError from deep inside the
arithmetic, and never a verdict computed from it.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulermagic import (
    Matrix,
    cayley,
    determinant,
    family8,
    mat_inverse,
    matrices,
    rescale_primitive,
    search,
    verify,
)
from eulermagic.family8 import (
    FAMILY_LEFT,
    diag_forms,
    entries_distinct,
    enumerate_w1,
    four_parameter_family,
    improper_witnesses,
    solve_chain,
    verified_product,
    w1_check,
    w1_coefficient_checker,
)
from eulermagic.matrices import clear_denominators, exact_rationals
from eulermagic.permutations import Permutation, perm_matrix, two_by_two_family
from eulermagic.poly import parse_poly
from eulermagic.search import SearchConfig, Xorshift64Star, search5_cayley, search8_seeded

SKEW = (0, 1, 2, -1, 0, 3, -2, -3, 0)
WORKED = (0, 1, 1, 1, 1, 1, -1, 5,  # left
          3, -2, -4, 5, 6,  # partial
          Fraction(13, 15), Fraction(-14, 15), Fraction(-23, 5),  # supplied
          Fraction(13, 15), Fraction(-14, 15))  # center


def _square(values):
    return Matrix.from_rows([values[0:3], values[3:6], values[6:9]])


def _search8(values):
    return search8_seeded(values[0:8], values[8:13], supplied=values[13:16], height=1,
                          center=values[16:18])


def _search5(values):
    return search5_cayley(SearchConfig(seed=1, numerator_bound=values[0],
                                       denominator_bound=values[1], max_iterations=20))


def _search8_counts(values):
    return search8_seeded(WORKED[0:8], WORKED[8:13], height=values[0], workers=values[1])


def _eval(values):
    return parse_poly("x^2 - 3*x*y + 1/2", ("x", "y")).eval(dict(zip("xy", values)))


# each entry point as a call on a flat list of its numeric inputs, with exact inputs
ENTRY_POINTS = {
    "verify": (lambda xs: verify(_square(xs)), SKEW),
    "cayley": (lambda xs: cayley(_square(xs)), SKEW),
    "rescale_primitive": (lambda xs: rescale_primitive(_square(xs)), SKEW),
    "determinant": (lambda xs: determinant(_square(xs)), SKEW),
    "four_parameter_family": (lambda xs: four_parameter_family(*xs), (1, 2, 3, 4)),
    "search8_seeded": (_search8, WORKED),
    "w1_check": (w1_check, (1, 2, 1, 1, 0, 0, 0, 1)),
    "two_by_two_family": (lambda xs: two_by_two_family(*xs), (3, 1)),
    "MultiPoly.eval": (_eval, (2, -1)),
    "SearchConfig": (_search5, (5, 2)),
    "Permutation": (Permutation, (3, 1, 2)),
    "perm_matrix": (perm_matrix, (2, 1, 4, 3)),
    "solve_chain": (lambda xs: solve_chain(xs[:8], dict(zip("qrtu", xs[8:]))),
                    FAMILY_LEFT + (-55, -11, -27, -13)),
    "uniform_int": (lambda xs: Xorshift64Star(5).uniform_int(*xs), (-3, 1)),
    "uniform_ints": (lambda xs: Xorshift64Star(5).uniform_ints(zip(xs[::2], xs[1::2])),
                     (0, 1, -2, 2)),
    "rational": (lambda xs: Xorshift64Star(5).rational(*xs), (1, 3)),
    "enumerate_w1": (lambda xs: enumerate_w1(*xs), (1,)),
    "search5_cayley workers": (
        lambda xs: search5_cayley(SearchConfig(seed=1, max_iterations=4), workers=xs[0]), (1,)),
    "search8_seeded height and workers": (_search8_counts, (1, 1)),
    "entries_distinct": (entries_distinct, WORKED[:13]),
    "verified_product": (lambda xs: verified_product(xs[:8], xs[8:]),
                         FAMILY_LEFT + (-7, -55, -11, 1, -27, -13, -19, 4)),
}

_inexact = st.one_of(st.floats(), st.decimals(), st.complex_numbers(), st.text(max_size=3))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_answer_exact_inputs(name):
    call, values = ENTRY_POINTS[name]
    call(list(values))
    # bool is an int: True and False are the exact rationals 1 and 0
    call([True if x == 1 and type(x) is int else x for x in values])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ENTRY_POINTS)), st.data(), _inexact)
def test_entry_points_refuse_inexact_values(name, data, bad):
    call, values = ENTRY_POINTS[name]
    values = list(values)
    values[data.draw(st.integers(0, len(values) - 1), label="position")] = bad
    with pytest.raises((TypeError, ValueError)):
        call(values)


def test_float_skew_matrix_is_a_type_error():
    # Fraction arithmetic used to meet the float in clear_denominators and
    # fail with AttributeError: 'float' object has no attribute 'denominator'
    m = _square([float(x) for x in SKEW])
    for call in (verify, cayley, rescale_primitive, determinant, mat_inverse):
        with pytest.raises(TypeError, match="matrix entries|values must be exact rationals"):
            call(m)


def test_inexact_values_that_are_close_to_exact_ones_are_refused():
    # Fraction(0.1) is 3602879701896397/36028797018963968, and float division
    # misses the worked solution, which then failed its diagonal check
    with pytest.raises(TypeError, match="family parameters must be exact rationals"):
        four_parameter_family(0.1, 2, 3, 4)
    with pytest.raises(TypeError, match="supplied values must be exact rationals"):
        search8_seeded(WORKED[:8], WORKED[8:13], supplied=(13 / 15, -14 / 15, -23 / 5))
    # otherwise 0.1 would run as a Fraction, a 2.5 bound would draw float
    # numerators, and a permutation would store float or Fraction images
    with pytest.raises(TypeError, match="the scale a must be exact rationals"):
        two_by_two_family(0.1)
    with pytest.raises(TypeError, match="point values must be exact rationals"):
        parse_poly("x", ("x",)).eval({"x": 0.1})
    for bound in (2.5, Fraction(5, 2), Fraction(5)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            SearchConfig(seed=1, numerator_bound=bound)
    for images in ((1.0, 2.0, 3.0, 4.0), (Fraction(2), 1)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Permutation(images)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        perm_matrix([2.0, 1.0])
    with pytest.raises(TypeError, match="free values must be exact rationals .* float 0.5"):
        solve_chain(FAMILY_LEFT, {"q": 0.5, "r": -11, "t": -27, "u": -13})


def test_matrix_dimensions_are_integers():
    # a float dimension was accepted and failed later, in verify and str, and
    # a fractional one was reported as a size mismatch
    for rows, cols in ((2.0, 2.0), (2.5, 2), (2, Fraction(2))):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Matrix(rows, cols, [[1, 2], [3, 4]])
    assert Matrix(True, True, [[5]]).rows == 1


def test_exact_rationals_keeps_ints_fractions_and_bools():
    values = (3, Fraction(-1, 2), True, False)
    assert exact_rationals(iter(values)) == values
    with pytest.raises(TypeError, match="left coefficients must be exact rationals .* float"):
        exact_rationals((1, 2.0), "left coefficients")


def test_exact_rationals_checks_one_by_one_only_off_the_plain_types(monkeypatch):
    """Plain ints and Fractions, such as every entry certify verifies, pass
    exact_rationals without one isinstance per value.  Bools and other int
    subclasses still pass through that check, and a str is still refused
    with the same message."""
    calls = []

    def counting(value, types):
        calls.append(value)
        return isinstance(value, types)

    monkeypatch.setattr(matrices, "isinstance", counting, raising=False)
    plain = (3, Fraction(-1, 2), 0, 2 ** 70)
    assert exact_rationals(iter(plain)) == plain
    assert verify(four_parameter_family(-55, -11, -27, -148).primitive).is_proper
    assert calls == []

    class Int(int):
        pass

    for values in ((True, False, 3), (Int(5), Fraction(1, 3))):
        calls.clear()
        assert exact_rationals(iter(values)) == values
        assert calls == list(values)
    with pytest.raises(TypeError, match=r"^matrix entries must be exact rationals "
                                        r"\(int or Fraction\), got str '3'$"):
        exact_rationals((1, "3"), "matrix entries")
    assert calls[-2:] == [1, "3"]


def test_plain_ints_skip_the_exactness_guards(monkeypatch):
    """check and clear_denominators take plain ints without operator.index or
    exact_rationals, the guards that cost more than certify's arithmetic.  A
    bool still goes through both, so the guards stay in place for anything
    that is not a plain int.  integer_forms is the one check of a left tuple:
    with a plain-int left, the 8x8 entry points run exact_rationals only on
    their other inputs (solve_chain's free values; search8_seeded's partial,
    supplied and center values)."""
    calls = []
    index, exact = operator.index, matrices.exact_rationals

    def counting_index(x):
        calls.append("index")
        return index(x)

    def counting_exact(*args):
        calls.append("exact_rationals")
        return exact(*args)

    monkeypatch.setattr(operator, "index", counting_index)
    monkeypatch.setattr(matrices, "exact_rationals", counting_exact)
    monkeypatch.setattr(family8, "exact_rationals", counting_exact)
    monkeypatch.setattr(search, "exact_rationals", counting_exact)
    check = w1_coefficient_checker()
    calls.clear()
    assert check(FAMILY_LEFT) is True
    assert clear_denominators(FAMILY_LEFT) == (1, list(FAMILY_LEFT))
    assert w1_check(FAMILY_LEFT) is True
    assert calls == []
    bools = (True, False, True, True, False, False, False, True)
    assert check(bools) is False
    assert calls == ["index"] * 8
    assert clear_denominators(bools) == (1, [1, 0, 1, 1, 0, 0, 0, 1])
    assert calls == ["index"] * 8 + ["exact_rationals"]
    calls.clear()
    assert w1_check(bools) is False
    assert calls == ["exact_rationals"]
    for name, run, expected in (
            ("diag_forms", lambda: diag_forms(WORKED[:8]), 0),
            ("improper_witnesses", lambda: improper_witnesses(WORKED[:8]), 0),
            ("solve_chain",
             lambda: solve_chain(FAMILY_LEFT, {"q": -55, "r": -11, "t": -27, "u": -13}), 1),
            ("search8_seeded", lambda: _search8(WORKED), 3)):
        calls.clear()
        run()
        assert (name, calls.count("exact_rationals")) == (name, expected)
