"""The integer linear-form core of the 8x8 layer against MultiPoly and sympy
oracles.

The witness scan, the entry test, the diagonal forms and the per-point
w-solve run on integer vectors and Gram matrices.  The references below redo
them another way, through numeric L * R products, MultiPoly products,
substitutions and zero tests or through sympy, sharing no code with the core.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulermagic import cli, family8, search
from eulermagic.certificates import CertificateLine, symbolic_diag_forms, w1_factorisation_line
from eulermagic.cli import _summary_json
from eulermagic.family8 import (
    FAMILY_LEFT,
    _linear_factors,
    _specialised_terms,
    entries_distinct,
    improper_witnesses,
    integer_forms,
    verified_product,
)
from eulermagic.matrices import mat_mul
from eulermagic.octonion import (
    LEFT_SIGN_TABLE,
    LEFT_VARS,
    RIGHT_SIGN_TABLE,
    left_matrix,
    right_matrix,
)
from eulermagic.poly import MultiPoly
from eulermagic.search import (
    SearchConfig,
    _merge_parts,
    _point_solve,
    _row_coefficients,
    _row_form,
    _search8_grid_chunk,
    _w_coefficients,
    _w_roots,
    search5_cayley,
    search8_seeded,
)

from conftest import diag_form_polys, left_scale, multipoly_product

RIGHT_VARS = ("p", "q", "r", "s", "t", "u", "v", "w")
WORKED_LEFT = (0, 1, 1, 1, 1, 1, -1, 5)
WORKED_PARTIAL = (3, -2, -4, 5, 6)


# ----------------------------------------------------------------------
# pinned witness reports
# ----------------------------------------------------------------------

_PINNED = {
    (1,) * 8: (
        [
            ("factor-of-A", (2, 2), (2, 7), "difference", "2*r + 2*s + 2*v + 2*w"),
            ("factor-of-A", (3, 3), (3, 6), "difference", "2*p + 2*q + 2*t + 2*u"),
        ],
        True,
        True,
    ),
    (1, 0, 0, 1, 1, 1, 1, 1): (
        [
            ("identical-squares", (1, 2), (4, 3), "difference", "0"),
            ("identical-squares", (2, 2), (3, 3), "difference", "0"),
            ("identical-squares", (5, 3), (8, 2), "difference", "0"),
            ("identical-squares", (6, 2), (7, 3), "difference", "0"),
            ("identical-squares", (1, 3), (4, 2), "sum", "0"),
            ("identical-squares", (2, 3), (3, 2), "sum", "0"),
            ("identical-squares", (5, 2), (8, 3), "sum", "0"),
            ("identical-squares", (6, 3), (7, 2), "sum", "0"),
        ],
        False,
        True,
    ),
    FAMILY_LEFT: ([], True, False),
    WORKED_LEFT: ([], True, False),
}


def _summary(witnesses, scale=1):
    """The scan's witnesses, each form divided by scale, whether the symbolic
    matrix is proper (no entry pair vanishes identically) and whether
    properness is obstructed."""
    return ([(w.kind, w.first, w.second, w.relation, str(_linear(w.form, scale)))
             for w in witnesses],
            all(w.kind != "identical-squares" for w in witnesses), bool(witnesses))


@pytest.mark.parametrize("left", list(_PINNED))
def test_witness_scan_pinned(left):
    assert _summary(improper_witnesses(left)) == _PINNED[left]
    # a witness form is the integer vector over p..w, scale times the pair's form
    assert all(type(w.form) is tuple and len(w.form) == 8 and set(map(type, w.form)) == {int}
               for w in improper_witnesses(left))


# ----------------------------------------------------------------------
# the witness scan against a reference from numeric products and MultiPoly
# ----------------------------------------------------------------------

def _reference_forms(left):
    """A and B from the squared MultiPoly entries of L(left) * R(p..w)."""
    m = multipoly_product(left)
    zero = MultiPoly.zero(RIGHT_VARS)
    diag = sum((m.entry(i, i) * m.entry(i, i) for i in range(8)), zero)
    anti = sum((m.entry(i, 7 - i) * m.entry(i, 7 - i) for i in range(8)), zero)
    gamma = sum(Fraction(x) ** 2 for x in left) * sum(
        (v * v for v in MultiPoly.variables_of(RIGHT_VARS)), zero)
    return diag - anti, diag + anti - 2 * gamma


def _reference_entries(left):
    """The 64 entries of L(left) * R(p..w), row by row, as coefficient
    vectors over p..w read off the numeric products at the 8 basis vectors of
    p..w, and scaled to integers by one positive factor: (scale, vectors)."""
    lm = left_matrix(left)
    products = [mat_mul(lm, right_matrix([int(k == m) for m in range(8)])).entries
                for k in range(8)]
    coeffs = [[Fraction(prod[i][j]) for prod in products] for i in range(8) for j in range(8)]
    scale = lcm(*(c.denominator for vec in coeffs for c in vec))
    return scale, [tuple(int(c * scale) for c in vec) for vec in coeffs]


def _linear(vec, scale) -> MultiPoly:
    return MultiPoly(RIGHT_VARS, {tuple(int(k == m) for m in range(8)): Fraction(c, scale)
                                  for k, c in enumerate(vec)})


def _hyperplane_probe(entries):
    """A test vec -> whether scale^2 * A is zero at one integer point of the
    hyperplane vec.x = 0, which it must be when that line divides A.

    The point is c * z + t * e_k: k is the first nonzero index of vec, c its
    entry, z = (m^2 + 3m + 1) with z_k = 0, and t = -vec.z.  With G the Gram
    matrix of scale^2 * A, the value is c^2 z.Gz + 2ct (Gz)_k + t^2 G_kk, so
    each test costs one dot product.
    """
    diag, anti = entries[::9], entries[7:57:7]
    gram = [[sum(d[k] * d[m] for d in diag) - sum(a[k] * a[m] for a in anti)
             for m in range(8)] for k in range(8)]
    pivots = []
    for k in range(8):
        z = [0 if m == k else m * m + 3 * m + 1 for m in range(8)]
        gz = [sum(g * x for g, x in zip(row, z)) for row in gram]
        pivots.append((z, sum(x * y for x, y in zip(z, gz)), gz[k], gram[k][k]))

    def vanishes(vec):
        k = next(m for m, c in enumerate(vec) if c)
        z, zgz, gz_k, g_kk = pivots[k]
        c, t = vec[k], -sum(v * x for v, x in zip(vec, z))
        return c * c * zgz + 2 * c * t * gz_k + t * t * g_kk == 0

    return vanishes


def _divides(quadratic: MultiPoly, linear: MultiPoly) -> bool:
    """Whether the linear form divides the quadratic: it vanishes on the
    hyperplane, decided by exact substitution."""
    exps, c = max(linear.terms.items())
    name = RIGHT_VARS[exps.index(1)]
    rest = (MultiPoly.variable(RIGHT_VARS, name) * c - linear) * Fraction(1, c)
    return not quadratic.substitute(name, rest).terms


def _reference_scan(left):
    scale, entries = _reference_entries(left)
    positions = [(i + 1, j + 1) for i in range(8) for j in range(8)]
    collisions, table = [], {}
    for relation, sign in (("difference", -1), ("sum", 1)):
        for x in range(64):
            for y in range(x + 1, 64):
                vec = tuple(f + sign * g for f, g in zip(entries[x], entries[y]))
                if not any(vec):
                    collisions.append(("identical-squares", positions[x], positions[y],
                                       relation, "0"))
                    continue
                g = gcd(*vec) * (1 if next(c for c in vec if c) > 0 else -1)
                key = tuple(c // g for c in vec)
                table.setdefault(key, (positions[x], positions[y], relation, vec))
    if collisions:
        return collisions, False, True
    a_form = _reference_forms(left)[0]
    probe, divisors = _hyperplane_probe(entries), []
    for *rec, vec in table.values():
        if a_form.terms and probe(vec):
            form = _linear(vec, scale)
            if _divides(a_form, form):
                divisors.append((*rec, form))
    for first in divisors:
        for second in divisors:
            product = first[3] * second[3]
            exps = next(iter(product.terms))
            ratio = Fraction(a_form.terms.get(exps, 0), product.terms[exps])
            if ratio and product * ratio == a_form:
                witnesses = [("factor-of-A", *rec[:3], str(rec[3])) for rec in (first, second)]
                return witnesses, True, True
    return [], True, False


_small_left = st.tuples(*[st.integers(-2, 2)] * 8)
_unit_left = st.tuples(*[st.sampled_from((-1, 1))] * 8)


@settings(max_examples=25)
@given(st.one_of(_small_left, _unit_left))
@example((1, 1, 1, 1, 1, 1, 1, -1))
@example((Fraction(1, 2),) * 8)
@example((Fraction(1, 3), 1, 0, 0, 1, 1, 1, Fraction(-2, 5)))
@example((0,) * 8)
def test_witness_scan_matches_multipoly_reference(left):
    assert _summary(improper_witnesses(left), left_scale(left)) == _reference_scan(left)


def _pad(*xs):
    return tuple(xs) + (0,) * (8 - len(xs))


def _product_gram(l1, l2):
    """G with x^T G x = 2 * l1(x) * l2(x)."""
    return tuple(tuple(l1[k] * l2[m] + l2[k] * l1[m] for m in range(8)) for k in range(8))


@pytest.mark.parametrize("l1, l2, keys", [
    (_pad(0, 1), _pad(1), {_pad(0, 1), _pad(1)}),  # zero 2x2 diagonal
    (_pad(1, 1), _pad(1, -1), {_pad(1, 1), _pad(1, -1)}),
    (_pad(-2, 3, 1), _pad(0, 0, 5, -1), {_pad(2, -3, -1), _pad(0, 0, 5, -1)}),
    (_pad(0, 0, 0, 0, 0, 3, 0, 6), _pad(4, 0, 0, 0, 0, 0, 0, -2),
     {_pad(0, 0, 0, 0, 0, 1, 0, 2), _pad(2, 0, 0, 0, 0, 0, 0, -1)}),
])
def test_linear_factors_of_products(l1, l2, keys):
    assert set(_linear_factors(_product_gram(l1, l2))) == keys


def _gram(*rows):
    return tuple(_pad(*row) for row in rows) + (_pad(),) * (8 - len(rows))


@pytest.mark.parametrize("gram", [
    _gram(),
    _gram((1,), (0, 1)),  # p^2 + q^2
    _gram((1,), (0, -2)),  # p^2 - 2q^2
    _gram((1,), (0, 1), (0, 0, -1)),  # rank 3
    _gram((1, 1, 1), (1, 1, -1), (1, -1, 1)),  # rank 3, every principal 2x2 minor zero
    _product_gram(_pad(-2, -4), _pad(3, 6)),  # a square: rank 1
])
def test_linear_factors_absent(gram):
    assert _linear_factors(gram) is None


@settings(max_examples=50)
@given(st.one_of(_small_left, _unit_left,
                 st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * 8)))
def test_gram_traces_vanish(left):
    # each entry is a signed permutation of left over p..w, so both traces are
    # 8|left|^2 - 8|left|^2 = 0, and A is never a nonzero square c * l^2
    forms = integer_forms(left)
    assert sum(forms.gram_a[k][k] for k in range(8)) == 0
    assert sum(forms.gram_b[k][k] for k in range(8)) == 0


def test_witness_scan_reports_factor_witnesses_on_unit_tuples():
    # every all +-1 tuple sampled here is obstructed by a factor of A
    for left in ((1,) * 8, (1, 1, 1, 1, 1, 1, 1, -1), (1, -1, 1, -1, 1, -1, 1, -1)):
        witnesses, proper, obstructed = _summary(improper_witnesses(left))
        assert proper and obstructed
        assert [w[0] for w in witnesses] == ["factor-of-A", "factor-of-A"]


def test_witness_scan_keys_pair_lines_only_when_a_splits(monkeypatch):
    calls = []
    line_key = family8._line_key
    monkeypatch.setattr(family8, "_line_key", lambda vec: calls.append(vec) or line_key(vec))
    # proper lefts whose A does not split: no pair line is keyed
    for left in (WORKED_LEFT, FAMILY_LEFT):
        assert improper_witnesses(left) == ()
    assert calls == []
    # A splits on the all +-1 tuples, and the scan still finds both factors
    for left in ((1,) * 8, (1, 1, 1, 1, 1, 1, 1, -1), (1, -1, 1, -1, 1, -1, 1, -1)):
        kinds = [w.kind for w in improper_witnesses(left)]
        assert kinds == ["factor-of-A", "factor-of-A"]
    assert calls


# ----------------------------------------------------------------------
# the per-point w-solve against MultiPoly substitution
# ----------------------------------------------------------------------

def _reference_w_roots(poly: MultiPoly):
    if not poly.terms:
        return None
    constant = (0,) * len(poly.variables)
    coefficients = [poly.coefficient_of("w", k).terms for k in (2, 1, 0)]
    assert all(set(terms) <= {constant} for terms in coefficients)
    c2, c1, c0 = (Fraction(terms.get(constant, 0)) for terms in coefficients)
    if c2 == 0:
        return [] if c1 == 0 else [-c0 / c1]
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    rn, rd = isqrt(disc.numerator), isqrt(disc.denominator)
    if rn * rn != disc.numerator or rd * rd != disc.denominator:
        return []
    root = Fraction(rn, rd)
    return sorted({(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)})


def _reference_point(left, partial, u, v, forms=None):
    """(w hits, near miss, full line) at (u, v) by MultiPoly substitution into
    forms, default _reference_forms(left)."""
    values = dict(zip(RIGHT_VARS, tuple(partial) + (u, v)))
    roots = []
    for poly in forms or _reference_forms(left):
        for name, value in values.items():
            poly = poly.substitute(name, value)
        roots.append(_reference_w_roots(poly))
    roots_a, roots_b = roots
    if roots_a is None and roots_b is None:
        return [], False, True
    if roots_a is None or roots_b is None:
        return (roots_b if roots_a is None else roots_a), False, False
    common = sorted(set(roots_a) & set(roots_b))
    return common, bool(set(roots_a) | set(roots_b)) and not common, False


def _uvw_terms(left, partial):
    """A and B with p..t fixed, as search8 specialises them."""
    return _specialised_terms(integer_forms(left), tuple(map(Fraction, partial)) + (None,) * 3)


def _kernel_coefficients(tables, u, v):
    """((c2, c1, c0) of A, of B) at (u, v) as the grid chunk forms them: the
    u-row's _row_coefficients dotted with (dv^2, nv*dv, nv^2)."""
    u, v = Fraction(u), Fraction(v)
    vs = (v.denominator ** 2, v.numerator * v.denominator, v.numerator ** 2)
    return tuple(tuple(sum(r * x for r, x in zip(rk, vs))
                       for rk in _row_coefficients(table, u.numerator, u.denominator))
                 for table in tables)


def _integer_point(left, partial, u, v):
    return _point_solve(*_kernel_coefficients(_uvw_terms(left, partial), u, v))


_rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _lefts(draw):
    left = list(draw(_small_left))
    if draw(st.booleans()):  # h = +-a: the w^2 coefficient of A vanishes
        left[7] = draw(st.sampled_from((1, -1))) * left[0]
    return tuple(left)


@settings(max_examples=60)
@given(_lefts(), st.tuples(*[_rational] * 5), _rational, _rational)
@example(WORKED_LEFT, WORKED_PARTIAL, Fraction(13, 15), Fraction(-14, 15))
@example((1, 0, 0, 0, 0, 0, 0, 1), (0,) * 5, 0, 0)  # A vanishes in w
@example((0,) * 8, (1, 2, 3, 4, 5), 1, 1)  # A and B vanish in w
def test_w_solve_matches_multipoly_substitution(left, partial, u, v):
    assert _integer_point(left, partial, u, v) == _reference_point(left, partial, u, v)
    # the terms themselves, with (u, v, w) free as search8 has them and with
    # (p, w) free as solve_chain has them
    values = tuple(partial) + (u, v)
    _assert_terms_match_substitution(left, values + (None,) * 3)
    _assert_terms_match_substitution(left, (None,) + values[1:] + (None,))


def _assert_terms_match_substitution(left, right):
    """_specialised_terms of left at right is (scale * den)^2 times A and B
    with the fixed values substituted, scale and den the lcms of the
    denominators of left and of the fixed values."""
    free = [k for k, x in enumerate(right) if x is None]
    fixed = [Fraction(x) for x in right if x is not None]
    factor = (lcm(*(Fraction(x).denominator for x in left))
              * lcm(*(x.denominator for x in fixed))) ** 2
    for terms, poly in zip(_specialised_terms(integer_forms(left), right),
                           _reference_forms(left)):
        for name, value in zip(RIGHT_VARS, right):
            if value is not None:
                poly = poly.substitute(name, Fraction(value))
        got = {}
        for *exps, c in terms:
            got[tuple(exps[free.index(k)] if k in free else 0 for k in range(8))] = c
        assert MultiPoly(RIGHT_VARS, got) == factor * poly


def test_w_solve_full_line_branches():
    # A = 8(h^2 - a^2) w^2 at p..v = 0, so h = a leaves only B's roots
    left = (1, 0, 0, 0, 0, 0, 0, 1)
    assert _kernel_coefficients(_uvw_terms(left, [0] * 5), 0, 0)[0] == (0, 0, 0)
    assert _integer_point(left, [0] * 5, 0, 0) == ([Fraction(0)], False, False)
    assert _uvw_terms((0,) * 8, [1] * 5) == ((), ())
    assert _integer_point((0,) * 8, [1] * 5, Fraction(1, 2), Fraction(3, 4)) == ([], False, True)
    # one form vanishing identically leaves the other's roots, and no near miss
    assert _point_solve((0, 0, 0), (1, 0, -4)) == ([Fraction(-2), Fraction(2)], False, False)
    assert _point_solve((1, 0, -4), (0, 0, 0)) == ([Fraction(-2), Fraction(2)], False, False)
    assert _point_solve((1, 0, -4), (0, 0, 1)) == ([], True, False)
    assert _point_solve((0, 0, 0), (0, 0, 1)) == ([], False, False)


def test_grid_chunk_counts_full_lines():
    # A and B vanish identically in w at every point: each point is a full
    # line, counted as such and as no other outcome
    left, partial = (0,) * 8, (Fraction(1),) * 5
    tables = _uvw_terms(left, partial)
    assert tables == ((), ())
    us, vs = [(1, 2), (0, 1), (-5, 3)], [(3, 4)]
    points = range(3)
    assert _search8_grid_chunk(left, partial, tables, us, vs, 0, points) == ([], 0, 3)
    parts = [_search8_grid_chunk(left, partial, tables, us, vs, 0, points[k::2])
             for k in range(2)]
    merged = _merge_parts(parts, len(points))
    assert (merged.hits, merged.near_misses, merged.full_lines) == (0, 0, 3)
    assert merged == _merge_parts(parts[::-1], len(points))
    assert _summary_json(merged) == {
        "summary": True, "iterations": 3, "hits": 0, "near_misses": 0, "best_score": 0}


def test_w_roots_cases():
    assert _w_roots(0, 0, 0) is None
    assert _w_roots(0, 0, 5) == []
    assert _w_roots(0, 3, 2) == [Fraction(-2, 3)]
    assert _w_roots(1, 0, 1) == []
    assert _w_roots(1, 0, -2) == []
    assert _w_roots(1, -2, 1) == [Fraction(1)]
    assert _w_roots(4, 0, -1) == [Fraction(-1, 2), Fraction(1, 2)]
    assert _w_roots(-2, 2, 12) == [Fraction(-2), Fraction(3)]


def _positive_multiple(xs, ys):
    """Whether xs = lam * ys for some rational lam > 0; two zero vectors count."""
    pivot = next((k for k, y in enumerate(ys) if y), None)
    if pivot is None:
        return not any(xs)
    lam = Fraction(xs[pivot], ys[pivot])
    return lam > 0 and all(x == lam * y for x, y in zip(xs, ys))


@settings(max_examples=200)
@given(_lefts(), st.tuples(*[_rational] * 5), _rational, _rational)
@example(WORKED_LEFT, WORKED_PARTIAL, Fraction(13, 15), Fraction(-14, 15))
@example((0,) * 8, (1, 2, 3, 4, 5), Fraction(1, 2), 1)
def test_row_coefficients_are_the_forms_at_each_point(left, partial, u, v):
    # the chunk's (c2, c1, c0) at (u, v), built from its u-row, against the
    # forms specialised at (p..t, u, v) with only w free
    kernel = _kernel_coefficients(_uvw_terms(left, partial), u, v)
    right = tuple(map(Fraction, partial)) + (Fraction(u), Fraction(v), None)
    for coeffs, terms in zip(kernel, _specialised_terms(integer_forms(left), right)):
        direct = [0, 0, 0]
        for k, c in terms:
            direct[2 - k] += c
        assert _positive_multiple(coeffs, direct)


@settings(max_examples=200)
@given(_lefts(), st.tuples(*[_rational] * 5), _rational, _rational)
@example(WORKED_LEFT, WORKED_PARTIAL, Fraction(13, 15), Fraction(-14, 15))
# A's form is -4864 < 0 here: neither rational roots nor a real discriminant
@example((0, -1, -1, -1, -1, 0, 1, -1), (-1, -1, Fraction(3, 2), -1, -3), 0, 1)
# h = a: A has c2 = 0 on every row, and its form is (608*dv - 64*nv)^2
@example((1, 1, 1, 1, 1, 1, -1, 1), WORKED_PARTIAL, Fraction(1, 2), Fraction(-2, 3))
def test_row_form_is_the_discriminant_over_dv_squared(left, partial, u, v):
    # c1^2 - 4*c2*c0 of the chunk's coefficients is dv^2 times the u-row's
    # binary form in (dv, nv), and the row's six entries give (c2, c1, c0)
    u, v = Fraction(u), Fraction(v)
    tables = _uvw_terms(left, partial)
    dv, nv = v.denominator, v.numerator
    x, y, z = dv * dv, nv * dv, nv * nv
    for table, (c2, c1, c0) in zip(tables, _kernel_coefficients(tables, u, v)):
        (r20, r21, r22), (r10, r11, r12), _ = _row_coefficients(table, u.numerator, u.denominator)
        assert r21 == r22 == r12 == 0
        row, (alpha, beta, gamma) = _row_form(table, u.numerator, u.denominator)
        form = alpha * x + beta * y + gamma * z
        assert x * form == c1 * c1 - 4 * c2 * c0
        assert _w_coefficients(row, x, y, z) == (c2, c1, c0)
        if r20 == 0:
            assert form == (r10 * dv + r11 * nv) ** 2


def test_row_form_refuses_a_w_coefficient_of_too_high_degree(monkeypatch):
    # a v*w^2 term would break c1^2 - 4*c2*c0 = x * form
    with pytest.raises(RuntimeError, match="internal error"):
        _row_form(((0, 1, 2, 1),), 1, 1)
    with pytest.raises(RuntimeError, match="internal error"):
        _row_form(((0, 2, 1, 1),), 1, 1)
    # the chunk builds each table's form once per u-row, not per point
    calls = []

    def counted(table, nu, du):
        calls.append((nu, du))
        return _row_form(table, nu, du)

    monkeypatch.setattr(search, "_row_form", counted)
    tables = _uvw_terms(WORKED_LEFT, WORKED_PARTIAL)
    us, vs = [(13, 15), (0, 1), (1, 2)], [(-14, 15), (1, 1), (-3, 2), (5, 3)]
    _search8_grid_chunk(WORKED_LEFT, WORKED_PARTIAL, tables, us, vs, 0, range(12))
    assert calls == [u for u in us for _ in tables]
    calls.clear()
    _search8_grid_chunk(WORKED_LEFT, WORKED_PARTIAL, tables, us, vs, 0, range(1, 12, 5))
    assert calls == [u for u in us for _ in tables]


_offsets = st.lists(_rational, min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(_lefts(), st.tuples(*[_rational] * 5).filter(any), _offsets, _offsets,
       st.integers(2, 4))
@example((1, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1), [0, 1], [0, Fraction(-1, 2)], 2)
@example((0,) * 8, (1, 2, 3, 4, 5), [Fraction(1, 2), 0], [1, -3], 3)  # every point a full line
@example(WORKED_LEFT, WORKED_PARTIAL, [Fraction(13, 15), 0], [Fraction(-14, 15), 1], 2)
# at (u, v) = (1, 3) A's w-discriminant is exactly 0 and B's is -85,136: a near miss
@example((0, 1, 3, 2, -2, -1, -1, 1), (0, 3, 1, 0, 1), [0, 1], [3, -1], 2)
def test_grid_chunk_matches_the_reference_point_by_point(left, partial, u_values, v_values,
                                                         size):
    partial = tuple(map(Fraction, partial))
    tables = _uvw_terms(left, partial)
    us, vs = ([(x.numerator, x.denominator) for x in map(Fraction, values)]
              for values in (u_values, v_values))
    points = range(len(us) * len(vs))
    forms = _reference_forms(left)
    hits, near_misses, full_lines = [], 0, 0
    for n in points:
        u, v = Fraction(*us[n // len(vs)]), Fraction(*vs[n % len(vs)])
        ws, near, full = _reference_point(left, partial, u, v, forms)
        hits += [(7 + n, partial + (u, v, w)) for w in ws]
        near_misses += near
        full_lines += full
    whole = _search8_grid_chunk(left, partial, tables, us, vs, 7, points)
    candidates, *counts = whole
    assert [(c.sample_index, c.source_params) for c in candidates] == hits
    assert len(candidates) == len(hits)
    assert counts == [near_misses, full_lines]
    parts = [_search8_grid_chunk(left, partial, tables, us, vs, 7, points[k::size])
             for k in range(size)]
    assert _merge_parts(parts, len(points)) == _merge_parts([whole], len(points))


def test_worked_solution_is_a_root_of_both_forms():
    ws, near, full = _integer_point(WORKED_LEFT, WORKED_PARTIAL,
                                    Fraction(13, 15), Fraction(-14, 15))
    assert Fraction(-23, 5) in ws and not near and not full


def _reference_entries_proper(left, partial):
    m = multipoly_product(left)
    seen = set()
    for i in range(8):
        for j in range(8):
            f = m.entry(i, j)
            for name, value in zip(RIGHT_VARS, partial):
                f = f.substitute(name, value)
            key = min(tuple(sorted(f.terms.items())), tuple(sorted((-f).terms.items())))
            if key in seen:
                return False
            seen.add(key)
    return True


# distinct values: about half of these specializations stay proper
_distinct_left = st.lists(st.integers(-9, 9), min_size=8, max_size=8, unique=True)
_distinct_partial = st.lists(st.integers(-9, 9), min_size=5, max_size=5, unique=True).flatmap(
    lambda nums: st.tuples(*[st.builds(Fraction, st.just(n), st.integers(1, 3)) for n in nums]))


@settings(max_examples=60)
@given(_distinct_left, _distinct_partial)
@example(WORKED_LEFT, WORKED_PARTIAL)
@example(WORKED_LEFT, (0, 0, 0, 0, 0))
@example((Fraction(1, 2), 1, 1, 1, 1, 1, -1, 5), (Fraction(1, 2), 0, 0, 1, 0))
def test_specialized_entries_match_multipoly_reference(left, partial):
    partial = tuple(Fraction(x) for x in partial)
    got = entries_distinct(tuple(Fraction(x) for x in left) + partial)
    assert got == _reference_entries_proper(left, partial)


def test_search8_rejects_improper_specialization():
    with pytest.raises(ValueError, match="after fixing"):
        search8_seeded(WORKED_LEFT, (0, 0, 0, 0, 0))


# ----------------------------------------------------------------------
# the entry test on prefixes of (a..h, p..t)
# ----------------------------------------------------------------------

_SYMBOLIC_ENTRIES = [x for row in multipoly_product().entries for x in row]


def _reference_entries_distinct(prefix):
    """Substitute the prefix into the 16-variable MultiPoly entries and
    compare their term maps up to sign."""
    seen = set()
    for f in _SYMBOLIC_ENTRIES:
        for name, value in zip("abcdefghpqrst", prefix):
            f = f.substitute(name, value)
        key = min(tuple(sorted(f.terms.items())), tuple(sorted((-f).terms.items())))
        if key in seen:
            return False
        seen.add(key)
    return True


@settings(max_examples=30)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=13))
@example([0, 0])  # a = b = 0: two entries agree up to sign
@example(list(WORKED_LEFT + WORKED_PARTIAL))
@example([0, 1, 1, 1, 1, 1, -1, 4, 2, -1, -3, 5, 7])
def test_entries_distinct_matches_multipoly_on_integer_prefixes(prefix):
    assert entries_distinct(prefix) == _reference_entries_distinct(prefix)


_fraction = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@settings(max_examples=12)
@given(st.lists(st.one_of(st.integers(-9, 9), _fraction), min_size=13, max_size=13))
@example([Fraction(1, 2), 1, 1, 1, 1, 1, -1, 5, Fraction(3, 2), Fraction(-2, 3), -4, 5, 6])
def test_entries_distinct_matches_multipoly_on_rational_assignments(prefix):
    assert entries_distinct(prefix) == _reference_entries_distinct(prefix)


def test_entries_distinct_takes_all_sixteen_values():
    # with every variable fixed, the answer is verify's properness verdict on M
    solved = WORKED_PARTIAL + (Fraction(13, 15), Fraction(-14, 15), Fraction(-23, 5))
    for right, proper in ((solved, True), ((1,) * 8, False)):
        assert entries_distinct(WORKED_LEFT + right) == proper
        assert verified_product(WORKED_LEFT, right)[1].is_proper == proper


def test_zero_partial_collides_for_every_left():
    # with p..t = 0, m(1,4) = e*w - f*v + g*u = -m(5,8) identically in a..h
    m = multipoly_product()
    first, second = m.entry(0, 3), m.entry(4, 7)
    for name in "pqrst":
        first, second = first.substitute(name, 0), second.substitute(name, 0)
    assert first.terms and not (first + second).terms


@settings(max_examples=5)
@given(st.tuples(*[st.one_of(st.integers(-9, 9), _fraction)] * 8))
@example(WORKED_LEFT)
@example(FAMILY_LEFT)
def test_zero_partial_is_rejected(left):
    # so a search8 grid point never reaches the zero matrix
    assert not entries_distinct(left + (0,) * 5)
    with pytest.raises(ValueError, match="improper"):
        search8_seeded(left, (0,) * 5)


# ----------------------------------------------------------------------
# diag_forms against sympy
# ----------------------------------------------------------------------

_QQ_RING, *_QQ_RIGHT = sympy.ring(",".join(RIGHT_VARS), sympy.QQ)
_QQ_RING16, *_QQ_BOTH = sympy.ring(",".join(LEFT_VARS + RIGHT_VARS), sympy.QQ)


def _sympy_forms(ring, left, right):
    """A and B expanded in sympy's own polynomial ring from the two sign
    tables, for left and right tuples of elements of the ring."""
    m = [[sum((LEFT_SIGN_TABLE[i][k][1] * left[LEFT_SIGN_TABLE[i][k][0]]
               * RIGHT_SIGN_TABLE[k][j][1] * right[RIGHT_SIGN_TABLE[k][j][0]]
               for k in range(8)), ring.zero) for j in range(8)] for i in range(8)]
    diag = sum((m[i][i] ** 2 for i in range(8)), ring.zero)
    anti = sum((m[i][7 - i] ** 2 for i in range(8)), ring.zero)
    gamma = sum((x * x for x in left), ring.zero) * sum((v * v for v in right), ring.zero)
    return diag - anti, diag + anti - 2 * gamma


def _to_sympy(poly: MultiPoly, ring=_QQ_RING):
    return ring.from_dict(
        {exps: sympy.QQ(c.numerator, c.denominator) for exps, c in poly.terms.items()})


@settings(max_examples=10)
@given(st.tuples(*[st.one_of(st.integers(-5, 5), _fraction)] * 8))
@example(FAMILY_LEFT)
@example((1,) * 8)
@example((0,) * 8)
@example((Fraction(1, 3), 1, 0, 0, 1, 1, 1, Fraction(-2, 5)))
def test_diag_forms_match_sympy(left):
    forms = diag_form_polys(left)
    lq = [sympy.QQ(x.numerator, x.denominator) for x in map(Fraction, left)]
    assert (_to_sympy(forms.A), _to_sympy(forms.B)) == _sympy_forms(_QQ_RING, lq, _QQ_RIGHT)


def test_symbolic_diag_forms_match_sympy():
    # the 16-variable forms, with a..h symbolic too
    forms = symbolic_diag_forms()
    got = (_to_sympy(forms.A, _QQ_RING16), _to_sympy(forms.B, _QQ_RING16))
    assert got == _sympy_forms(_QQ_RING16, _QQ_BOTH[:8], _QQ_BOTH[8:])


def test_w1_factorisation_matches_sympy():
    # the coefficients of F = yA - xB behind the w1 checker, from sympy's own
    # forms, against their factorisations written out by hand
    a_form, b_form = _sympy_forms(_QQ_RING16, _QQ_BOTH[:8], _QQ_BOTH[8:])
    a, b, c, d, e, f, g, h, p, q, r, s, t, u, v, w = _QQ_BOTH
    x, y = a_form.coeff_wrt(w, 1), b_form.coeff_wrt(w, 1)
    cubic = y * a_form - x * b_form
    norm = a**2 + b**2 + c**2 + d**2 + e**2 + f**2 + g**2 + h**2
    assert cubic.coeff_wrt(p, 3) == 32 * a * h * (norm - 4 * a**2 - 4 * h**2)
    p2 = cubic.coeff_wrt(p, 2)
    assert p2.coeff_wrt(w, 1) == 0
    pivots = {q: a * g + b * h, r: -a * f + c * h, s: -a * e + d * h,
              t: a * d + e * h, u: a * c + f * h, v: -a * b + g * h}
    for name, pivot in pivots.items():
        assert p2.coeff_wrt(name, 1) == (16 * (norm - 8 * a**2) - 128 * h**2) * pivot, name
    assert w1_factorisation_line() == CertificateLine("w1-factorisation", "PASS", 0)


# ----------------------------------------------------------------------
# worker counts
# ----------------------------------------------------------------------

class _RecordingPool:
    sizes = []

    def __init__(self, size):
        _RecordingPool.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, func, arg_lists):
        return [func(*args) for args in arg_lists]


@pytest.fixture
def recording_pool(monkeypatch):
    import multiprocessing

    _RecordingPool.sizes = []
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    return _RecordingPool.sizes


def _usable_cpus(monkeypatch, count):
    """os.sched_getaffinity reports count CPUs for this process."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_search5_pool_clamped_to_cpus_and_items(recording_pool, monkeypatch):
    _usable_cpus(monkeypatch, 64)
    config = SearchConfig(seed=3, numerator_bound=9, denominator_bound=4, max_iterations=5)
    serial = search5_cayley(config)
    assert search5_cayley(config, workers=10**6) == serial
    _usable_cpus(monkeypatch, 3)
    assert search5_cayley(config, workers=10**6) == serial
    # without sched_getaffinity the pool falls back on os.cpu_count
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert search5_cayley(config, workers=10**6) == serial
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert search5_cayley(config, workers=10**6) == serial
    assert recording_pool == [5, 3, 2]


def test_pool_sized_by_the_cpus_this_process_may_run_on(recording_pool, monkeypatch):
    # a machine of 64 CPUs of which this process may use 2 gets a pool of 2
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    _usable_cpus(monkeypatch, 2)
    config = SearchConfig(seed=3, numerator_bound=9, denominator_bound=4, max_iterations=5)
    assert search5_cayley(config, workers=8) == search5_cayley(config)
    assert recording_pool == [2]


def test_search8_pool_clamped_to_cpus_and_items(recording_pool, monkeypatch):
    _usable_cpus(monkeypatch, 4)
    center = (Fraction(13, 15), Fraction(-14, 15))
    serial = search8_seeded(WORKED_LEFT, WORKED_PARTIAL, height=1, center=center)
    parallel = search8_seeded(WORKED_LEFT, WORKED_PARTIAL, height=1, center=center,
                              workers=10**6)
    assert parallel == serial
    assert recording_pool == [4]


def test_workers_below_one_rejected():
    config = SearchConfig(seed=3, max_iterations=5)
    with pytest.raises(ValueError, match="at least 1"):
        search5_cayley(config, workers=0)
    with pytest.raises(ValueError, match="at least 1"):
        search8_seeded(WORKED_LEFT, WORKED_PARTIAL, workers=-2)


@pytest.mark.parametrize("argv", [
    ["search5", "--seed", "1", "--iterations", "5", "--workers", "0"],
    ["search8", "--left", *map(str, WORKED_LEFT), "--partial", *map(str, WORKED_PARTIAL),
     "--workers", "-3"],
])
def test_cli_workers_below_one_exits_two(argv, capsys):
    # argparse reads the int; the library refuses it and cli.main reports it
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: workers must be at least 1, got {argv[-1]}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("call", [
    lambda: search5_cayley(SearchConfig(seed=3, max_iterations=5), workers=2.5),
    lambda: search5_cayley(SearchConfig(seed=3, max_iterations=5), workers=1.5),
    lambda: search8_seeded(WORKED_LEFT, WORKED_PARTIAL, height=1, workers=2.5),
    lambda: search8_seeded(WORKED_LEFT, WORKED_PARTIAL, height=Fraction(3, 2)),
])
def test_fractional_counts_are_type_errors_on_any_cpu_count(call, recording_pool, monkeypatch):
    # refused at the call, before a pool is sized from the usable CPUs
    _usable_cpus(monkeypatch, 64)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()
    assert recording_pool == []
