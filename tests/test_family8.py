"""Unit tests for the diagonal forms, restriction, solve chain, and family."""

import functools
import hashlib
import itertools
import json
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulermagic import certificates, cli, family8
from eulermagic.certificates import (
    BOTH_VARS,
    _p_parts,
    _p_product_part,
    _pivot_forms,
    _w1_residuals,
    symbolic_diag_forms,
)
from eulermagic.cli import _family_json
from eulermagic.family8 import (
    FAMILY_LEFT,
    _family_x,
    diag_forms,
    eliminate_w,
    enumerate_w1,
    four_parameter_family,
    improper_witnesses,
    solve_chain,
    verified_product,
    w1_check,
    w1_coefficient_checker,
)
from eulermagic.matrices import Matrix, determinant, mat_mul, rescale_primitive
from eulermagic.octonion import left_matrix, right_matrix
from eulermagic.poly import MultiPoly, parse_poly
from eulermagic.search import SearchConfig, Xorshift64Star
from eulermagic.verify import verify

from conftest import (
    multipoly_product,
    quadratic_coeff_table,
    quadratic_form_coeffs,
)

RIGHT_VARS = ("p", "q", "r", "s", "t", "u", "v", "w")
FAMILY_RIGHT = tuple(map(Fraction, (-7, -55, -11, 1, -27, -13, -19, 4)))


def _blackbox_tables(left):
    """Coefficient tables of A and B recovered by quadratic_form_coeffs from
    numeric evaluations of the defining sums of L(left) * R(v).  Each probe
    point costs one product, shared by both forms, of which only the diagonal
    and anti-diagonal entries are formed; returns the two tables and the
    number of products."""
    lrows = left_matrix([Fraction(x) for x in left]).entries
    gamma_left = sum(Fraction(x) ** 2 for x in left)
    products = []

    @functools.lru_cache(maxsize=None)
    def forms_at(vec):
        products.append(vec)
        rrows = right_matrix(list(vec)).entries

        def entry(i, j):  # (L * R)(i, j)
            return sum(lrows[i][k] * rrows[k][j] for k in range(8))

        diag = sum(entry(i, i) ** 2 for i in range(8))
        anti = sum(entry(i, 7 - i) ** 2 for i in range(8))
        gamma = gamma_left * sum(x * x for x in vec)
        return diag - anti, diag + anti - 2 * gamma

    table_a = quadratic_form_coeffs(lambda v: forms_at(tuple(v))[0], 8)
    table_b = quadratic_form_coeffs(lambda v: forms_at(tuple(v))[1], 8)
    return table_a, table_b, len(products)


def test_diag_forms_cross_check():
    lefts = (FAMILY_LEFT, (1,) * 8, (1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 1, 1, 1, 1, -1, 5),
             (Fraction(1, 2), -3, 0, Fraction(5, 3), 1, 2, -1, Fraction(-7, 4)))
    for left in lefts:
        forms = diag_forms(left)
        table_a, table_b, products = _blackbox_tables(left)
        assert quadratic_coeff_table(forms.A) == table_a
        assert quadratic_coeff_table(forms.B) == table_b
        # 4 homogeneity pairs, 8 unit vectors and 28 pairs of unit vectors
        assert products == 44
    forms = diag_forms(FAMILY_LEFT)
    assert forms.A.degree_in("w") == 1
    assert forms.B.degree_in("w") == 1
    assert all(sum(exps) == 2 for exps in forms.A.terms)
    assert all(sum(exps) == 2 for exps in forms.B.terms)


def test_diag_forms_vanish_exactly_on_magic_points():
    forms = diag_forms(FAMILY_LEFT)
    point = dict(zip(RIGHT_VARS, FAMILY_RIGHT))
    assert forms.A.eval(point) == 0
    assert forms.B.eval(point) == 0
    off = dict(point)
    off["p"] += 1
    assert forms.A.eval(off) != 0 or forms.B.eval(off) != 0


def test_w_coefficient_identities():
    # for any integer left tuple: [w^2] A = 8(h-a)(h+a) and [w p] A = 16 a h
    for left in ((1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 1, 1, 1, 1, -1, 5), FAMILY_LEFT):
        a, h = left[0], left[7]
        forms = diag_forms(left)
        w2 = forms.A.coefficient_of("w", 2)
        assert w2 == MultiPoly.constant(RIGHT_VARS, 8 * (h - a) * (h + a))
        wp = forms.A.coefficient_of("w", 1).coefficient_of("p", 1)
        assert wp == MultiPoly.constant(RIGHT_VARS, 16 * a * h)


def test_symbolic_diag_forms_specialize():
    sym = symbolic_diag_forms()
    num = diag_forms(FAMILY_LEFT)
    subs = dict(zip(("a", "b", "c", "d", "e", "f", "g", "h"), FAMILY_LEFT))
    spec_a = sym.A
    spec_b = sym.B
    for name, value in subs.items():
        spec_a = spec_a.substitute(name, value)
        spec_b = spec_b.substitute(name, value)
    point = dict(zip(RIGHT_VARS, range(2, 10)))
    full = {**{v: 0 for v in spec_a.variables}, **point}
    assert spec_a.eval(full) == num.A.eval(point)
    assert spec_b.eval(full) == num.B.eval(point)


def test_all_ones_A_factors():
    forms = diag_forms((1,) * 8)
    expect = parse_poly(
        "16*p*r + 16*p*s + 16*p*v + 16*p*w + 16*q*r + 16*q*s + 16*q*v + 16*q*w"
        " + 16*r*t + 16*r*u + 16*s*t + 16*s*u + 16*t*v + 16*t*w + 16*u*v + 16*u*w",
        forms.A.variables,
    )
    assert forms.A == expect


def test_all_ones_witnesses():
    witnesses = improper_witnesses((1,) * 8)
    # obstructed, though no entry pair vanishes identically
    assert {w.kind for w in witnesses} == {"factor-of-A"}
    pairs = {(w.first, w.second) for w in witnesses}
    assert ((2, 2), (2, 7)) in pairs
    assert ((3, 3), (3, 6)) in pairs


def test_zero_entries_force_identical_squares():
    witnesses = improper_witnesses((1, 0, 0, 1, 1, 1, 1, 1))
    assert witnesses[0].kind == "identical-squares"
    assert not witnesses[0].form.terms


def test_family_left_unobstructed():
    assert improper_witnesses(FAMILY_LEFT) == ()


def test_generic_witness_collapses_when_a_h_vanish():
    # m(1,8) - m(8,1) = -2(a*w + h*p) over (a..h, p..w), so with a = h = 0
    # those two entries coincide identically, and the scan reports them
    m = multipoly_product()
    form = m.entry(0, 7) - m.entry(7, 0)
    assert str(form) == "-2*a*w - 2*h*p"
    assert not form.substitute("a", 0).substitute("h", 0).terms
    witnesses = improper_witnesses((0, 1, 2, 3, 5, 7, 11, 0))
    assert ("identical-squares", (1, 8), (8, 1), "difference") in [
        (w.kind, w.first, w.second, w.relation) for w in witnesses]


def test_w1_check():
    assert w1_check(FAMILY_LEFT)
    assert w1_check((1, 1, 1, 1, 1, 1, 1, -1))
    assert not w1_check((1, 2, 3, 4, 5, 6, 7, 8))
    assert not w1_check((0, 0, 0, 0, 0, 0, 0, 0))  # needs a = +-h != 0


# SHA-256 of repr(list(enumerate_w1(a_max))), which pins the tuples and their order
_W1_SHA256 = {
    1: "e11dcbeace91df4da669c4982943a171c03b6812a9e65744cc6f1be6a20f5a65",
    2: "7fe697448401424057a95035ec04c7a59693ef6157f21aa07dff84672d17b376",
    3: "43bf0c92dceecbd56f1251df3e01d4df0404dfd59fffd55e3bb3b54abcbf3802",
}


def _brute_force_w1(a_max):
    """enumerate_w1 by testing every b..g in the box [-isqrt(6a^2), isqrt(6a^2)]^6."""
    out = []
    for a in range(1, a_max + 1):
        bound = isqrt(6 * a * a)
        square = {v: v * v for v in range(-bound, bound + 1)}
        for middle in itertools.product(square, repeat=6):
            if sum(map(square.__getitem__, middle)) == 6 * a * a and gcd(a, *middle) == 1:
                out += [(a, *middle, a), (a, *middle, -a)]
    return sorted(out)


@pytest.mark.parametrize("a_max", sorted(_W1_SHA256))
def test_enumerate_w1_pinned(a_max):
    tuples = list(enumerate_w1(a_max))
    assert hashlib.sha256(repr(tuples).encode()).hexdigest() == _W1_SHA256[a_max]
    if a_max < 3:
        assert tuples == _brute_force_w1(a_max)


def test_enumerate_w1_above_the_pinned_heights():
    # a = 4 is above the SHA-256 pins; the a <= 3 prefix is the pinned output.
    # Streamed, with no list: () sorts before every tuple, so the pairs check
    # order, the restriction and gcd 1 on each tuple once, and count them
    tuples, below = enumerate_w1(4), enumerate_w1(3)
    assert len(tuples) == 350336
    prefix = itertools.islice(tuples, len(below))
    assert all(itertools.starmap(operator.eq, zip(prefix, below, strict=True)))
    assert Counter(x < y and w1_check(y) and gcd(*y) == 1
                   for x, y in itertools.pairwise(itertools.chain([()], tuples))) == {True: 350336}


def test_enumerate_w1_counts_and_canonical_order():
    tuples = list(enumerate_w1(1))
    assert len(tuples) == 1088
    assert tuples == sorted(tuples)
    assert all(t[0] > 0 for t in tuples)
    assert all(gcd(*(abs(x) for x in t)) == 1 for t in tuples)
    assert all(w1_check(t) for t in tuples)


def test_enumerate_w1_streams_in_bounded_memory():
    """len() and a checked pass over the a <= 3 tuples stay far below the
    11.5 MiB their list takes: each 8-tuple is built as the pass reaches it."""
    check = w1_coefficient_checker()
    tracemalloc.start()
    try:
        tuples = enumerate_w1(3)
        size = len(tuples)
        answers = Counter(check(left) for left in tuples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 104576 and answers == {True: size}
    assert peak < 2 * 2**20, peak
    assert all(itertools.starmap(operator.eq, zip(tuples, tuples, strict=True)))


@pytest.mark.parametrize("a_max", [2.5, Fraction(5, 2), "3"])
def test_enumerate_w1_refuses_a_non_integer_at_the_call(a_max):
    # the call raises, not the first step of an iteration; test_refusals pins
    # the eager ValueError of enumerate_w1(0)
    with pytest.raises(TypeError):
        enumerate_w1(a_max)


def test_eliminate_w_requires_restriction():
    with pytest.raises(ValueError):
        eliminate_w(diag_forms((1, 2, 3, 4, 5, 6, 7, 8)))


def test_eliminate_w_checks_p_cubed_without_testing_the_tuple():
    # the zero tuple passes the w-degree check with A = B = F = 0; the
    # symbolic forms have w^2 terms, so they fail it before any p^3 test
    zero = MultiPoly.zero(RIGHT_VARS)
    assert eliminate_w(diag_forms((0,) * 8)) == (zero, zero, zero)
    with pytest.raises(ValueError) as info:
        eliminate_w(symbolic_diag_forms())
    assert str(info.value) == "w-degree exceeds 1; elimination needs the degree-one restriction"


def test_eliminate_w_degree_drop():
    forms = diag_forms(FAMILY_LEFT)
    f, x, y = eliminate_w(forms)
    assert f.degree_in("w") <= 0
    assert f.degree_in("p") == 2
    assert x == forms.A.coefficient_of("w", 1)
    assert y == forms.B.coefficient_of("w", 1)


def test_solve_chain_reproduces_worked_solution():
    res = solve_chain(FAMILY_LEFT, {"q": -55, "r": -11, "t": -27, "u": -13})
    assert res.ok, res.failure_reason
    assert res.solved_for == "v"
    assert res.right == FAMILY_RIGHT
    assert res.report.is_euler_magic and res.report.is_proper
    assert res.report.gamma == 143072


def test_solve_chain_defaults_s_to_one():
    res = solve_chain(FAMILY_LEFT, {"q": -55, "r": -11, "t": -27, "u": -13})
    assert res.ok
    assert res.right[3] == 1


def test_solve_chain_rejects_fixing_solved_variable():
    with pytest.raises(ValueError):
        solve_chain(FAMILY_LEFT, {"v": 1, "r": 0, "t": 0, "u": 0})


def test_solve_chain_reports_degenerate_pivots():
    # s = 0 as well: F keeps no p-term after step 1
    res = solve_chain(FAMILY_LEFT, {"q": 0, "r": 0, "t": 0, "u": 0, "s": 0})
    assert (res.ok, res.failure_reason, res.solved_for) == (
        False, "step 2: p-coefficient zero", "v")
    assert res.right is None and res.primitive is None and res.report is None
    # A keeps no w-term once p..v are known
    res = solve_chain(FAMILY_LEFT, {"q": -1, "r": -1, "t": -1, "u": -1})
    assert (res.ok, res.failure_reason, res.solved_for) == (
        False, "step 3: w-coefficient zero", "v")
    assert res.right is None and res.primitive is None and res.report is None


def test_four_parameter_family_showcase_point(family8):
    fam = four_parameter_family(-55, -11, -27, -148)
    assert fam.x_value == 23088
    assert fam.right == FAMILY_RIGHT
    assert fam.report.is_proper
    assert fam.report.gamma == 143072
    neg = tuple(tuple(-x for x in row) for row in family8.entries)
    assert fam.primitive.entries in (family8.entries, neg)


def test_four_parameter_family_builds_and_evaluates_no_multipoly(monkeypatch):
    def refuse(self, point):
        raise AssertionError("MultiPoly.eval called")

    built = []
    post_init = MultiPoly.__post_init__
    monkeypatch.setattr(MultiPoly, "eval", refuse)
    monkeypatch.setattr(MultiPoly, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    assert four_parameter_family(-55, -11, -27, -148).x_value == 23088
    assert built == []


def test_four_parameter_family_generic_point():
    fam = four_parameter_family(0, 0, 0, 1)
    assert fam.x_value == 31
    assert fam.report.is_euler_magic
    assert not fam.report.is_proper


def test_four_parameter_family_rational_point():
    fam = four_parameter_family(Fraction(1, 2), 3, -2, 7)
    assert fam.report.is_euler_magic


def test_four_parameter_family_multiplies_rescales_and_verifies_once_per_point(monkeypatch):
    """Each point goes through family8's mat_mul, rescale_primitive and
    verify exactly once: perfbench/smoke.py requires the benchmark's traced
    calls of all three to be nonzero on its certify workload, and a path
    around any of them would leave that count at 0."""
    calls = Counter()
    for name in ("mat_mul", "rescale_primitive", "verify"):
        def counting(*args, _name=name, _call=getattr(family8, name)):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(family8, name, counting)
    points = [(-55, -11, -27, -148), (0, 0, 0, 1), (Fraction(1, 2), 3, -2, 7)]
    for k, point in enumerate(points, 1):
        four_parameter_family(*point)
        assert calls == Counter(mat_mul=k, rescale_primitive=k, verify=k), point


def _fraction_family(q, r, t, u):
    """X, the right tuple, the primitive rescaling of L * R taken as a
    Fraction product, and its report, written out from the family's
    definition."""
    x = (7 * q * q + 7 * r * r + 21 * q * t - 7 * r * t + 34 * t * t
         - 7 * q * u - 21 * t * u + 4 * u * u + 7 * q + 21 * r - 7 * u + 34)
    right = (3 * (t * t - 1) * u / (2 * x), q, r, Fraction(1), t, u - q - 3 * t - 1, t - r - 3,
             (u * u - x) / (2 * u))
    matrix = mat_mul(left_matrix(FAMILY_LEFT), right_matrix(right))
    primitive = rescale_primitive(matrix)
    return x, right, primitive, verify(primitive)


def _assert_family_matches_fraction_product(point):
    result = four_parameter_family(*point)
    x, right, primitive, report = _fraction_family(*map(Fraction, point))
    assert result.x_value == x and result.right == right, point
    assert all(type(v) is Fraction for v in (result.x_value, *result.right))
    assert result.primitive.entries == primitive.entries, point
    assert all(type(v) is int for row in result.primitive.entries for v in row)
    assert result.report == report, point


def test_four_parameter_family_matches_fraction_product():
    """The integer product gives what the Fraction product gave, on the 100
    seeded points of the family acceptance test."""
    rng = Xorshift64Star(20260814)
    checked = 0
    while checked < 100:
        point = tuple(rng.rational(20, 6) for _ in range(4))
        if point[3] == 0:
            with pytest.raises(ValueError, match="u = 0"):
                four_parameter_family(*point)
            continue
        _assert_family_matches_fraction_product(point)
        checked += 1


_unshared = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**4))


@settings(max_examples=60)
@given(st.one_of(st.tuples(_unshared, _unshared, _unshared, _unshared),
                 st.tuples(*[st.integers(-10**4, 10**4)] * 4)))
def test_four_parameter_family_integer_path_matches_fraction_product(point):
    """Clearing (q, r, t, u) to one denominator gives the Fraction product's
    X, right tuple and matrices, for four unshared denominators up to 10^4
    and for all-integer points."""
    if point[3] == 0:
        with pytest.raises(ValueError, match="u = 0"):
            four_parameter_family(*point)
    else:
        _assert_family_matches_fraction_product(point)


@settings(max_examples=100)
@given(st.tuples(*[st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3))] * 4),
       st.integers(-10**6, 10**6))
def test_family_x_is_homogenised_by_e(point, e):
    assert _family_x(*(x * e for x in point), e) == e * e * _family_x(*point)
    assert _family_x(*point, 1) == _family_x(*point)


def family_x_poly() -> MultiPoly:
    """X as a polynomial in (q, r, t, u)."""
    return _family_x(*MultiPoly.variables_of(("q", "r", "t", "u")))


def test_family_x_poly_is_pinned():
    assert str(family_x_poly()) == ("7*q^2 + 21*q*t - 7*q*u + 7*r^2 - 7*r*t + 34*t^2 - 21*t*u"
                                    " + 4*u^2 + 7*q + 21*r - 7*u + 34")


def test_family_degenerate_parameters():
    with pytest.raises(ValueError, match="u = 0"):
        four_parameter_family(0, 0, 0, 0)
    # X has no real root: homogenised in (q, r, t, u, 1), its Gram matrix has
    # positive leading principal minors
    gram = [[Fraction(0)] * 5 for _ in range(5)]
    for exps, c in family_x_poly().terms.items():
        i, j = [k for k, e in enumerate(exps) for _ in range(e)] + [4] * (2 - sum(exps))
        gram[i][j] += Fraction(c, 2)
        gram[j][i] += Fraction(c, 2)
    minors = [determinant(Matrix.from_rows([row[:k] for row in gram[:k]])) for k in range(1, 6)]
    assert minors == [7, 49, Fraction(1617, 2), Fraction(7497, 16), Fraction(21021, 4)]


def test_verified_product_matches_fraction_product():
    rng = random.Random(2718)
    for _ in range(20):
        left, right = ([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(8)]
                       for _ in range(2))
        right[3] = Fraction(1, 2)  # never the zero matrix
        primitive, report = verified_product(left, right)
        expected = mat_mul(left_matrix(left), right_matrix(right))
        assert primitive == rescale_primitive(expected)
        assert report == verify(primitive)
        assert report.cond_orthogonal  # M * M^t = gamma * I for every L * R


@pytest.mark.parametrize("left, right", [
    (FAMILY_LEFT, (-7, -55, -11, 1, -27, -13, -19, 4)),
    (tuple(map(Fraction, FAMILY_LEFT)), FAMILY_RIGHT),
    (tuple(Fraction(x, 2) for x in (0, 1, 1, 1, 1, 1, -1, 5)),
     (3, -2, -4, 5, 6, Fraction(13, 15), Fraction(-14, 15), Fraction(-23, 5))),
])
def test_verified_product_builds_no_fraction(monkeypatch, left, right):
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs))
    primitive, report = verified_product(left, right)
    monkeypatch.undo()
    assert built == []
    assert report.is_euler_magic and report == verify(primitive)
    assert "matrix" not in family8.FamilyResult._fields + family8.SolveChainResult._fields
    # no record echoes its left tuple; integer_forms holds the checked, scaled one
    assert "left" not in family8.SolveChainResult._fields
    # nor anything else its caller holds: the family's parameters, flags that
    # follow from the witnesses, or a filter on what a search prints
    assert family8.FamilyResult._fields == ("x_value", "right", "primitive", "report")
    assert not hasattr(family8, "WitnessReport")
    witnesses = family8.improper_witnesses((1,) * 8)
    assert type(witnesses) is tuple and witnesses
    assert all(type(w) is family8.Witness for w in witnesses)
    assert SearchConfig.__slots__ == (
        "seed", "numerator_bound", "denominator_bound", "max_iterations")
    assert family8.DiagForms._fields == ("A", "B")
    assert family8.integer_forms((Fraction(1, 2), 1, 1, 1, 1, 1, -1, 5)).left == (
        1, 2, 2, 2, 2, 2, -2, 10)


def test_family_json_schema():
    fam = four_parameter_family(-55, -11, -27, -148)
    args = cli._build_parser().parse_args(["family", "-55", "-11", "-27", "-148"])
    payload = _family_json(args, fam)
    assert payload["X"] == "23088"
    assert payload["params"] == {"q": "-55", "r": "-11", "t": "-27", "u": "-148"}
    assert payload["right"] == ["-7", "-55", "-11", "1", "-27", "-13", "-19", "4"]
    assert payload["report"]["proper"] is True
    json.dumps(payload)


def test_w1_coefficient_checker_matches_slow_path():
    check = w1_coefficient_checker()
    assert check(FAMILY_LEFT)
    assert not check((1, 2, 3, 4, 5, 6, 7, 8))
    for left in list(enumerate_w1(1))[:100]:
        assert check(left)


def test_w1_coefficient_checker_takes_exactly_eight_integers():
    check = w1_coefficient_checker()
    # truncated to integers, this would read as (1,) * 8, which passes
    half = (Fraction(3, 2), 1, 1, 1, 1, 1, 1, Fraction(3, 2))
    assert not w1_check(half) and _pattern_checker()(half) is False
    with pytest.raises(TypeError):
        check(half)
    with pytest.raises(ValueError):
        check((1,) * 9)
    with pytest.raises(ValueError):
        check((1, 2, 3))


def test_w1_checker_calls_the_shared_formula_once_per_tuple(monkeypatch):
    """check evaluates _w1_factors, the formula the MultiPoly proof compares,
    once per tuple and keeps no second copy of it."""
    calls = []
    factors = family8._w1_factors

    def counting(*x):
        calls.append(x)
        return factors(*x)

    monkeypatch.setattr(family8, "_w1_factors", counting)
    check = w1_coefficient_checker()
    calls.clear()
    lefts = [FAMILY_LEFT, (1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 1, 1, 1, 1, 1, 1),
             (0, 1, 2, 3, 4, 5, 6, 0), *list(enumerate_w1(1))[:20]]
    for k, left in enumerate(lefts, 1):
        check(left)
        assert len(calls) == k and calls[-1] == tuple(left), left


def test_w1_checker_reads_left_once():
    """An iterator gives the answer its tuple gives, also when the pivot
    forms decide: the pivot branch reuses the converted ints."""
    check = w1_coefficient_checker()
    # the first two have a = 0, so no cubic, and a nonzero gap: their pivot
    # forms decide, and a = h = 0 makes them all 0 in the second
    pivot_cases = {(0, 1, 1, 1, 1, 1, 1, 1): False, (0, 1, 2, 3, 4, 5, 6, 0): True,
                   (1, 2, 3, 4, 5, 6, 7, 8): False, FAMILY_LEFT: True}
    for left, expected in pivot_cases.items():
        assert check(left) is expected and check(iter(left)) is expected, left
    with pytest.raises(TypeError):
        check(iter((Fraction(3, 2), 1, 1, 1, 1, 1, 1, Fraction(3, 2))))
    for wrong in ((1,) * 9, (1, 2, 3), ()):
        with pytest.raises(ValueError):
            check(iter(wrong))


class _Int(int):
    pass


class _Index:
    """Not an int, but an integer through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_w1_checker_answers_int_like_values_as_their_ints():
    """Plain ints take check's fast path; bools, an int subclass and an
    object with __index__ go through operator.index and get the answer of
    the same ints, from a tuple or an iterator."""
    check = w1_coefficient_checker()
    lefts = [FAMILY_LEFT, (1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 1, 1, 1, 1, 1, 1),
             (0, 1, 2, 3, 4, 5, 6, 0), *list(enumerate_w1(1))[:40]]
    answers = set()
    for left in lefts:
        expected = check(left)
        answers.add(expected)
        for cast in (_Int, _Index):
            assert check(tuple(map(cast, left))) is expected, (cast, left)
            assert check(map(cast, left)) is expected, (cast, left)
    for left in itertools.product((0, 1), repeat=8):
        expected = check(left)
        answers.add(expected)
        assert check(tuple(map(bool, left))) is expected, left
        assert check(map(bool, left)) is expected, left
    assert answers == {True, False}


@pytest.mark.parametrize("bad", [Fraction(2), 2.0, "2"])
def test_w1_checker_refuses_non_integers_and_wrong_counts(bad):
    check = w1_coefficient_checker()
    for position in (0, 3, 7):
        left = list(FAMILY_LEFT)
        left[position] = bad
        for given_left in (tuple(left), iter(left)):
            with pytest.raises(TypeError):
                check(given_left)
    for wrong in (FAMILY_LEFT[:7], FAMILY_LEFT + (1,)):
        for given_left in (wrong, iter(wrong)):
            with pytest.raises(ValueError):
                check(given_left)


def test_w1_coefficient_checker_matches_residual_eval():
    """The checker against MultiPoly.eval of its 8 residuals on 2,000 seeded
    tuples in [-4, 4]^8."""
    residuals = _w1_residuals()
    assert len(residuals) == 8 and not residuals[1].terms
    check = w1_coefficient_checker()
    rng = random.Random(2718)
    for _ in range(2000):
        left = tuple(rng.randint(-4, 4) for _ in range(8))
        point = {**dict(zip("abcdefgh", left)), **dict.fromkeys(RIGHT_VARS, 0)}
        values = [poly.eval(point) for poly in residuals]
        assert check(left) is not any(values), left


def test_w1_residuals_are_the_coefficients_of_the_whole_f():
    """The residuals, built from the p-graded parts of A, B and their
    w-coefficients, against the same coefficients read off F = yA - xB
    multiplied out whole; and every p^k coefficient of F, one degree past its
    top, against the graded sum."""
    forms = symbolic_diag_forms()
    x = forms.A.coefficient_of("w", 1)
    y = forms.B.coefficient_of("w", 1)
    f = y * forms.A - x * forms.B
    p2 = f.coefficient_of("p", 2)
    symbols = MultiPoly.variables_of(BOTH_VARS)
    assert _w1_residuals() == [f.coefficient_of("p", 3), p2.coefficient_of("w", 1)] + [
        p2.coefficient_of(name, 1) + 128 * symbols[7] * symbols[7] * pivot
        for name, pivot in _pivot_forms(symbols).items()]
    xs, ys, a_parts, b_parts = map(_p_parts, (x, y, forms.A, forms.B))
    assert f.degree_in("p") == 3
    for k in range(5):
        graded = _p_product_part(ys, a_parts, k) - _p_product_part(xs, b_parts, k)
        assert graded == f.coefficient_of("p", k), k


def test_w1_checker_refuses_residuals_that_differ_from_their_factorisation(monkeypatch):
    """The checker evaluates the factors only after proving each residual
    equal to its factorisation: one changed residual is a RuntimeError."""
    residuals = _w1_residuals()
    a, b, c, d, e, f, g, h = MultiPoly.variables_of(BOTH_VARS)[:8]
    changes = {0: a * b * c, 1: g * h, 5: 3 * d * d}  # p^3, w-part, the t part
    for k, change in changes.items():
        changed = list(residuals)
        changed[k] = changed[k] + change
        monkeypatch.setattr(certificates, "_w1_residuals", lambda: changed)
        with pytest.raises(RuntimeError, match="internal error"):
            w1_coefficient_checker()
    monkeypatch.setattr(certificates, "_w1_residuals", lambda: list(residuals))
    assert w1_coefficient_checker()(FAMILY_LEFT) is True


def _digest(matrix):
    rows = [[str(x) for x in row] for row in matrix.entries]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


# (left, free) -> (ok, failure_reason, solved_for, right, digest of primitive)
_SOLVE_CHAIN_PINS = [
    (FAMILY_LEFT, {"q": -55, "r": -11, "t": -27, "u": -13},
     (True, None, "v", ("-7", "-55", "-11", "1", "-27", "-13", "-19", "4"), "bba1d608aad41a21")),
    (FAMILY_LEFT, {"q": -1, "r": -1, "t": -1, "u": -1, "s": 0},
     (True, None, "v", ("-15/44", "-1", "-1", "0", "-1", "-1", "0", "-3/10"), "e40bfb68bceb7b3b")),
    (FAMILY_LEFT, {"q": Fraction(1, 2), "r": 3, "t": Fraction(-2, 3), "u": 5, "s": 2},
     (True, None, "v", ("-528/8237", "1/2", "3", "2", "-2/3", "5", "-29/3", "-15385/396"),
      "088ea15dff6ba054")),
    ((1, 1, 1, 1, 1, 1, 1, 1), {"r": 1, "t": 2, "u": -1, "v": 3},
     (False, "step 3: w-coefficient zero", "q", None, None)),
    ((1, 1, 1, 1, 1, 1, 1, 1), {"r": Fraction(1, 3), "s": -2, "t": 0, "u": 1, "v": -1},
     (False, "step 3: w-coefficient zero", "q", None, None)),
    ((1, 2, 0, 1, 0, 0, 1, -1), {"r": 2, "t": -1, "u": 3, "v": 1},
     (True, None, "q", ("18/5", "-5", "2", "1", "-1", "3", "1", "-3"), "16c3cf0c006ab9e7")),
    ((3, 7, 2, 1, 0, 0, 0, -3), {"r": -2, "t": 1, "u": 4, "v": 1},
     (True, None, "q", ("588/8555", "5/7", "-2", "1", "1", "4", "1", "-8359/294"),
      "df7dd1ef6591a6b2")),
    ((1, 2, 0, 1, 0, 0, 1, -1), {"r": Fraction(-1, 2), "s": 3, "t": Fraction(4, 5), "u": 0, "v": -2},
     (True, None, "q", ("-42656/19925", "19/5", "-1/2", "3", "4/5", "0", "-2", "3411/860"),
      "5acf93eb9ba89d4b")),
    ((3, 1, 6, 4, 0, 0, -1, 3), {"q": 2, "r": 1, "t": -1, "u": Fraction(1, 2)},
     (True, None, "v", ("-135/1954", "2", "1", "1", "-1", "1/2", "9/2", "376/45"),
      "fb8f3c13fa549603")),
    (FAMILY_LEFT, {"q": 0, "r": 0, "t": 0, "u": 0},
     (True, None, "v", ("-3/62", "0", "0", "1", "0", "0", "-3", "-15"), "e7f7ad2f247a433f")),
    (FAMILY_LEFT, {"q": -1, "r": -1, "t": -1, "u": -1},
     (False, "step 3: w-coefficient zero", "v", None, None)),
    (FAMILY_LEFT, {"q": 0, "r": 0, "t": 0, "u": 0, "s": 0},
     (False, "step 2: p-coefficient zero", "v", None, None)),
    ((1, 0, 1, 1, 2, 0, 0, 1), {"q": 1, "r": 1, "t": 1, "u": 1},
     (False, "step 1: both q and v coefficients vanish (b = g = 0)", None, None, None)),
]


@pytest.mark.parametrize("left, free, expected", _SOLVE_CHAIN_PINS)
def test_solve_chain_pinned(left, free, expected):
    res = solve_chain(left, free)
    right = None if res.right is None else tuple(str(x) for x in res.right)
    primitive = None if res.primitive is None else _digest(res.primitive)
    assert (res.ok, res.failure_reason, res.solved_for, right, primitive) == expected
    if res.ok:
        assert res.report.is_euler_magic


def _constant(poly):
    """The value of a polynomial with no term but the constant."""
    zero = (0,) * len(poly.variables)
    assert set(poly.terms) <= {zero}, poly
    return poly.terms.get(zero, 0)


def _reference_chain(left, free):
    """The solve chain on MultiPoly, from diag_forms and eliminate_w: each step
    substitutes the values known so far into the p^2 coefficient of F, into F,
    then into A, and solves the linear remainder; A and B are back-checked by
    eval.  The solved variable is q when the p^2 coefficient has a q-term,
    else v.  Returns (failure reason, solved variable, right tuple)."""
    forms = diag_forms(left)
    f = eliminate_w(forms)[0]
    p2 = f.coefficient_of("p", 2)
    solve_var = next((name for name in ("q", "v")
                      if p2.coefficient_of(name, 1).terms), None)
    if solve_var is None:
        return "step 1: both q and v coefficients vanish (b = g = 0)", None, None
    values = {"s": Fraction(1), **{name: Fraction(x) for name, x in free.items()}}
    for step, (poly, var) in enumerate(((p2, solve_var), (f, "p"), (forms.A, "w")), 1):
        for name, value in values.items():
            poly = poly.substitute(name, value)
        assert poly.degree_in(var) <= 1
        lead = poly.coefficient_of(var, 1)
        if not lead.terms:
            return f"step {step}: {var}-coefficient zero", solve_var, None
        values[var] = -Fraction(_constant(poly.coefficient_of(var, 0)), _constant(lead))
    assert forms.A.eval(values) == 0 and forms.B.eval(values) == 0
    return None, solve_var, tuple(values[name] for name in RIGHT_VARS)


def test_solve_chain_matches_multipoly_chain():
    rng = random.Random(4468)
    rational_left = tuple(Fraction(x, 3) for x in FAMILY_LEFT)
    lefts = list(enumerate_w1(2)) + [FAMILY_LEFT, rational_left]
    cases = [(left, free) for left, free, _ in _SOLVE_CHAIN_PINS]
    for k in range(150):
        left = (FAMILY_LEFT, rational_left)[k % 2] if k % 5 == 0 else rng.choice(lefts)
        # a*g + b*h = 0 leaves q free and solves for v
        solved = "v" if left[0] * left[6] + left[1] * left[7] == 0 else "q"
        names = [name for name in ("q", "r", "s", "t", "u", "v")
                 if name != solved and (name != "s" or rng.random() < 0.5)]
        cases.append((left, {name: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                             for name in names}))
    outcomes = set()
    for left, free in cases:
        res = solve_chain(left, free)
        assert (res.failure_reason, res.solved_for, res.right) == _reference_chain(left, free)
        assert res.ok is (res.failure_reason is None)
        outcomes.add((res.failure_reason, res.solved_for, left == rational_left and res.ok))
    assert {reason for reason, _, _ in outcomes} == {
        None, "step 1: both q and v coefficients vanish (b = g = 0)",
        "step 2: p-coefficient zero", "step 3: w-coefficient zero"}
    assert {(None, "q", False), (None, "v", False), (None, "v", True)} <= outcomes


def test_solve_chain_builds_no_multipoly(monkeypatch):
    built = []
    post_init = MultiPoly.__post_init__
    monkeypatch.setattr(MultiPoly, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    for left, free, _ in _SOLVE_CHAIN_PINS:
        solve_chain(left, free)
    assert built == []
    MultiPoly.zero(RIGHT_VARS)  # the count sees every MultiPoly built
    assert len(built) == 1


# the p^2 coefficient of F is -128 h^2 times sign*x_i*x_j + sign*x_k*x_l in
# each of q..v, over x = (a..h); a copy of the documented table
_PATTERN = {
    "q": ((0, 6, 1), (1, 7, 1)),
    "r": ((0, 5, -1), (2, 7, 1)),
    "s": ((0, 4, -1), (3, 7, 1)),
    "t": ((0, 3, 1), (4, 7, 1)),
    "u": ((0, 2, 1), (5, 7, 1)),
    "v": ((0, 1, -1), (6, 7, 1)),
}


def _pattern_checker():
    """The w1 checker as a per-part pattern comparison: the p^3 coefficient of
    F vanishes, and each part of the p^2 coefficient equals -128 h^2 times its
    _PATTERN form, or zero where no form is named."""
    forms = symbolic_diag_forms()
    x = forms.A.coefficient_of("w", 1)
    y = forms.B.coefficient_of("w", 1)
    f = y * forms.A - x * forms.B
    p3 = f.coefficient_of("p", 3)
    p2 = f.coefficient_of("p", 2)
    parts = {name: p2.coefficient_of(name, 1) for name in RIGHT_VARS[1:]}
    zero_right = {name: 0 for name in RIGHT_VARS}

    def check(left):
        point = {**dict(zip("abcdefgh", left)), **zero_right}
        if p3.eval(point) != 0:
            return False
        h = left[7]
        for name, part in parts.items():
            want = 0
            if name in _PATTERN:
                (i, j, s1), (k, l, s2) = _PATTERN[name]
                want = -128 * h * h * (s1 * left[i] * left[j] + s2 * left[k] * left[l])
            if part.eval(point) != want:
                return False
        return True

    return check


def test_w1_coefficient_checker_matches_pattern_reference():
    check, reference = w1_coefficient_checker(), _pattern_checker()
    rng = random.Random(8128)
    restricted = list(enumerate_w1(2))
    answers = []
    for k in range(1500):
        if k % 5 == 0:
            left = rng.choice(restricted)
        elif k % 5 == 1:  # h = +-a: only the sum-of-squares condition can fail
            left = [rng.randint(-4, 4) for _ in range(7)]
            left.append(rng.choice((1, -1)) * left[0])
        else:
            left = [rng.randint(-4, 4) for _ in range(8)]
        answer = check(left)
        assert answer is reference(left), left
        answers.append(answer)
    assert answers.count(True) >= 300 and answers.count(False) >= 300
