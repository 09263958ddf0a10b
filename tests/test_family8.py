"""Unit tests for the diagonal forms, restriction, solve chain, and family."""

import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from eulermagic import family8
from eulermagic.family8 import (
    BOTH_VARS,
    FAMILY_LEFT,
    _horner,
    _w1_residuals,
    diag_forms,
    eliminate_w,
    enumerate_w1,
    family_result_to_json_dict,
    family_x_poly,
    four_parameter_family,
    improper_witnesses,
    solve_chain,
    symbolic_diag_forms,
    verified_product,
    w1_check,
    w1_coefficient_checker,
)
from eulermagic.matrices import Matrix, determinant, mat_mul, rescale_primitive
from eulermagic.octonion import left_matrix, right_matrix
from eulermagic.poly import MultiPoly, parse_poly, quadratic_form_coeffs
from eulermagic.search import Xorshift64Star
from eulermagic.verify import verify

from conftest import load_fixture, multipoly_product

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
        assert forms.A.quadratic_coeff_table() == table_a
        assert forms.B.quadratic_coeff_table() == table_b
        # 4 homogeneity pairs, 8 unit vectors and 28 pairs of unit vectors
        assert products == 44
    forms = diag_forms(FAMILY_LEFT)
    assert forms.A.degree_in("w") == 1
    assert forms.B.degree_in("w") == 1
    assert forms.A.is_homogeneous(2)
    assert forms.B.is_homogeneous(2)


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
        assert w2.total_degree() <= 0
        assert w2.constant_value() == 8 * (h - a) * (h + a)
        wp = forms.A.coefficient_of("w", 1).coefficient_of("p", 1)
        assert wp.total_degree() <= 0
        assert wp.constant_value() == 16 * a * h


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
    rep = improper_witnesses((1,) * 8)
    assert rep.polynomial_matrix_proper is True
    assert rep.properness_obstructed is True
    assert {w.kind for w in rep.witnesses} == {"factor-of-A"}
    pairs = {(w.first, w.second) for w in rep.witnesses}
    assert ((2, 2), (2, 7)) in pairs
    assert ((3, 3), (3, 6)) in pairs


def test_zero_entries_force_identical_squares():
    rep = improper_witnesses((1, 0, 0, 1, 1, 1, 1, 1))
    assert rep.polynomial_matrix_proper is False
    assert rep.properness_obstructed is True
    assert rep.witnesses[0].kind == "identical-squares"
    assert rep.witnesses[0].form.is_zero()


def test_family_left_unobstructed():
    rep = improper_witnesses(FAMILY_LEFT)
    assert rep.polynomial_matrix_proper is True
    assert rep.properness_obstructed is False


def test_generic_witness_collapses_when_a_h_vanish():
    # m(1,8) - m(8,1) = -2(a*w + h*p) over (a..h, p..w), so with a = h = 0
    # those two entries coincide identically, and the scan reports them
    m = multipoly_product()
    form = m.entry(0, 7) - m.entry(7, 0)
    assert str(form) == "-2*a*w - 2*h*p"
    assert form.substitute("a", 0).substitute("h", 0).is_zero()
    rep = improper_witnesses((0, 1, 2, 3, 5, 7, 11, 0))
    assert ("identical-squares", (1, 8), (8, 1), "difference") in [
        (w.kind, w.first, w.second, w.relation) for w in rep.witnesses]


def test_w1_check():
    assert w1_check(FAMILY_LEFT)
    assert w1_check((1, 1, 1, 1, 1, 1, 1, -1))
    assert not w1_check((1, 2, 3, 4, 5, 6, 7, 8))
    assert not w1_check((0, 0, 0, 0, 0, 0, 0, 0))  # needs a = +-h != 0


# SHA-256 of repr(enumerate_w1(a_max)), which pins the tuples and their order
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
    tuples = enumerate_w1(a_max)
    assert hashlib.sha256(repr(tuples).encode()).hexdigest() == _W1_SHA256[a_max]
    if a_max < 3:
        assert tuples == _brute_force_w1(a_max)


def test_enumerate_w1_above_the_pinned_heights():
    # a = 4 is above the SHA-256 pins; the a <= 3 prefix is the pinned output
    tuples, below = enumerate_w1(4), enumerate_w1(3)
    assert len(tuples) == 350336 and tuples[:len(below)] == below
    assert all(x < y for x, y in zip(tuples, tuples[1:]))
    assert all(w1_check(t) and gcd(*t) == 1 for t in tuples)


def test_enumerate_w1_counts_and_canonical_order():
    tuples = enumerate_w1(1)
    assert len(tuples) == 1088
    assert tuples == sorted(tuples)
    assert all(t[0] > 0 for t in tuples)
    assert all(gcd(*(abs(x) for x in t)) == 1 for t in tuples)
    assert all(w1_check(t) for t in tuples)


def test_eliminate_w_requires_restriction():
    with pytest.raises(ValueError):
        eliminate_w(diag_forms((1, 2, 3, 4, 5, 6, 7, 8)))


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
    assert res.right is None and res.matrix is None and res.report is None
    # A keeps no w-term once p..v are known
    res = solve_chain(FAMILY_LEFT, {"q": -1, "r": -1, "t": -1, "u": -1})
    assert (res.ok, res.failure_reason, res.solved_for) == (
        False, "step 3: w-coefficient zero", "v")
    assert res.right is None and res.matrix is None and res.report is None


def test_four_parameter_family_showcase_point(family8):
    fam = four_parameter_family(-55, -11, -27, -148)
    assert fam.x_value == 23088
    assert fam.right == FAMILY_RIGHT
    assert fam.report.is_proper
    assert fam.report.gamma == 143072
    neg = tuple(tuple(-x for x in row) for row in family8.entries)
    assert fam.primitive.entries in (family8.entries, neg)


def test_four_parameter_family_generic_point():
    fam = four_parameter_family(0, 0, 0, 1)
    assert fam.x_value == 31
    assert fam.report.is_euler_magic
    assert not fam.report.is_proper


def test_four_parameter_family_rational_point():
    fam = four_parameter_family(Fraction(1, 2), 3, -2, 7)
    assert fam.report.is_euler_magic


def _fraction_family(q, r, t, u):
    """X, the right tuple, L * R as a Fraction product, its primitive
    rescaling and the report, written out from the family's definition."""
    x = (7 * q * q + 7 * r * r + 21 * q * t - 7 * r * t + 34 * t * t
         - 7 * q * u - 21 * t * u + 4 * u * u + 7 * q + 21 * r - 7 * u + 34)
    right = (3 * (t * t - 1) * u / (2 * x), q, r, Fraction(1), t, u - q - 3 * t - 1, t - r - 3,
             (u * u - x) / (2 * u))
    matrix = mat_mul(left_matrix(FAMILY_LEFT), right_matrix(right))
    primitive = rescale_primitive(matrix)
    return x, right, matrix, primitive, verify(primitive)


def test_four_parameter_family_matches_fraction_product():
    """The integer product gives what the Fraction product gave, on the 100
    seeded points of the family acceptance test."""
    rng = Xorshift64Star(20260814)
    checked = 0
    while checked < 100:
        point = tuple(rng.rational(20, 6) for _ in range(4))
        try:
            result = four_parameter_family(*point)
        except ValueError:
            continue
        x, right, matrix, primitive, report = _fraction_family(*map(Fraction, point))
        assert result.x_value == x and result.right == right, point
        assert all(type(v) is Fraction for row in result.matrix.entries for v in row)
        assert result.matrix == matrix, point
        assert [[str(v) for v in row] for row in result.matrix.entries] == \
            [[str(v) for v in row] for row in matrix.entries]
        assert result.primitive.entries == primitive.entries, point
        assert all(type(v) is int for row in result.primitive.entries for v in row)
        assert result.report == report, point
        checked += 1


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
        matrix, primitive, report = verified_product(left, right)
        expected = mat_mul(left_matrix(left), right_matrix(right))
        assert matrix == expected
        assert all(type(v) is Fraction for row in matrix.entries for v in row)
        assert primitive == rescale_primitive(expected)
        assert report == verify(primitive)
        assert report.cond_orthogonal  # M * M^t = gamma * I for every L * R


def test_family_json_schema():
    fam = four_parameter_family(-55, -11, -27, -148)
    payload = family_result_to_json_dict(fam)
    assert payload["X"] == "23088"
    assert payload["params"] == {"q": "-55", "r": "-11", "t": "-27", "u": "-148"}
    assert payload["right"] == ["-7", "-55", "-11", "1", "-27", "-13", "-19", "4"]
    assert payload["report"]["proper"] is True
    json.dumps(payload)


def test_w1_coefficient_checker_matches_slow_path():
    check = w1_coefficient_checker()
    assert check(FAMILY_LEFT)
    assert not check((1, 2, 3, 4, 5, 6, 7, 8))
    for left in enumerate_w1(1)[:100]:
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


def test_w1_coefficient_checker_matches_residual_eval():
    """The compiled checker against MultiPoly.eval of its 8 residuals, and
    each residual's Horner source against its own value, on 2,000 seeded
    tuples in [-4, 4]^8."""
    residuals = _w1_residuals()
    assert len(residuals) == 8 and residuals[1].is_zero()
    compiled = [_compile_residual(poly) for poly in residuals if not poly.is_zero()]
    check = w1_coefficient_checker()
    rng = random.Random(2718)
    for _ in range(2000):
        left = tuple(rng.randint(-4, 4) for _ in range(8))
        names = dict(zip("abcdefgh", left))
        values = [poly.eval({**names, **dict.fromkeys(RIGHT_VARS, 0)}) for poly in residuals]
        assert check(left) is not any(values), left
        assert [_run_residual(code, names) for code in compiled] == \
            [v for v, poly in zip(values, residuals) if not poly.is_zero()], left


def _compile_residual(poly):
    """One residual's own _horner source, with a fresh table of shared parts:
    its hoisted assignments and the expression that reads them."""
    lines = []
    source = _horner([(exps[:8], c) for exps, c in poly.terms.items()], {}, lines)
    return compile("\n".join(lines), "<hoisted>", "exec"), compile(source, "<horner>", "eval")


def _run_residual(code, names):
    hoisted, source = code
    scope = dict(names)
    exec(hoisted, {}, scope)
    return eval(source, {}, scope)


def test_w1_checker_compiles_parts_shared_up_to_content(monkeypatch):
    """The compiler on synthetic residuals that share Q = a^2 - 2bc + 3d^2 - e
    up to sign and content: a*Q, -3b*Q, Q + c^2, zero, and a last one."""
    a, b, c, d, e, f, g, h = MultiPoly.variables_of(BOTH_VARS)[:8]
    q = a * a - 2 * b * c + 3 * d * d - e
    residuals = [a * q, -3 * b * q, q + c * c, MultiPoly.zero(BOTH_VARS), -2 * f * q + g * h]
    terms = [[(exps[:8], coeff) for exps, coeff in poly.terms.items()] for poly in residuals]
    shared, lines = {}, []
    assert _horner(terms[0], shared, lines) == "a*(_t2)"  # Q, content 1, is hoisted last
    assert len(shared) == len(lines) == 3 and lines[-1].startswith("_t2 = ")
    later = []  # -3b*Q reads Q's local and hoists nothing
    assert _horner(terms[1], shared, later) == "b*(_t2*(-3))" and later == []

    monkeypatch.setattr(family8, "_w1_residuals", lambda: residuals)
    check = w1_coefficient_checker()
    rng = random.Random(1618)
    answers = []
    for k in range(3000):
        left = [rng.randint(-3, 3) for _ in range(8)]
        if k % 3 == 0:  # c = 0, Q = 0 and g = 0: every residual vanishes
            left[2], left[4], left[6] = 0, left[0] ** 2 + 3 * left[3] ** 2, 0
        point = {**dict(zip("abcdefgh", left)), **dict.fromkeys(RIGHT_VARS, 0)}
        answers.append(check(left))
        assert answers[-1] is not any(poly.eval(point) for poly in residuals), left
    assert answers.count(True) >= 1000 and answers.count(False) >= 1000
    # Q = 0 and c = 0, so only the last residual, g*h = 2, is nonzero
    only_last = (1, 4, 0, 0, 1, 7, 1, 2)
    point = {**dict(zip("abcdefgh", only_last)), **dict.fromkeys(RIGHT_VARS, 0)}
    assert [poly.eval(point) for poly in residuals] == [0, 0, 0, 0, 2]
    assert check(only_last) is False
    assert check((1, 4, 0, 0, 1, 7, 0, 2)) is True


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
    restricted = enumerate_w1(2)
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
