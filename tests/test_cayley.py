"""Unit tests for the Cayley parametrization and the 3x3 nonexistence certificate."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulermagic.cayley import (
    _skew_rows,
    cayley,
    cayley_integer,
    cayley5_diagonals,
    inverse_cayley,
    is_skew,
    ortho_reduce,
    sign_diagonal,
    skew_from_upper,
)
from eulermagic.certificates import cayley3_forms, nonexistence_certificate
from eulermagic.cli import _certificate_json, _certificate_text
from eulermagic.matrices import (
    Matrix,
    clear_denominators,
    determinant,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    transpose,
)
from eulermagic.verify import _squares_sum_to, verify

from conftest import cayley5_diagonals_by_bareiss, load_fixture


def _random_skew(rng, n):
    k = n * (n - 1) // 2
    return skew_from_upper(
        n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
    )


def test_skew_from_upper():
    s = skew_from_upper(3, [1, 2, 3])
    assert s == Matrix.from_rows([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
    assert is_skew(s)
    with pytest.raises(ValueError):
        skew_from_upper(3, [1, 2])


def test_cayley_orthogonal_and_roundtrip():
    rng = random.Random(314)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            s = _random_skew(rng, n)
            m = cayley(s)
            assert mat_mul(m, transpose(m)) == identity(n)
            assert inverse_cayley(m) == s


@given(st.lists(st.integers(-10**6, 10**6), min_size=10, max_size=10), st.integers(1, 840))
@example([0] * 10, 1)
@example([0] * 10, 840)
@settings(max_examples=200)
def test_cayley5_diagonals_match_cayley_integer(values, d):
    assert cayley5_diagonals(d, values) == cayley5_diagonals_by_bareiss(d, values)


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("sign", (1, -1))
def test_cayley5_diagonals_on_the_fixtures(k, sign):
    # skew parameters whose Cayley transforms are known 5x5 Euler magic
    # matrices, so both diagonal conditions hold
    _, orthogonal = ortho_reduce(mat_scale(sign, load_fixture(f"five5_{k}.txt")))
    s = inverse_cayley(orthogonal)
    d, flat = clear_denominators([s.entry(i, j) for i in range(5) for j in range(i + 1, 5)])
    det, diagonal, antidiagonal = cayley5_diagonals(d, flat)
    assert (det, diagonal, antidiagonal) == cayley5_diagonals_by_bareiss(d, flat)
    assert _squares_sum_to(det * det, diagonal, antidiagonal) == (True, True)


def test_cayley_rejects_non_skew():
    with pytest.raises(ValueError):
        cayley(Matrix.from_rows([[0, 1], [1, 0]]))
    nonzero_diagonal = Matrix.from_rows([[1, 1], [-1, 0]])
    assert not is_skew(nonzero_diagonal)
    with pytest.raises(ValueError):
        cayley(nonzero_diagonal)
    assert not is_skew(Matrix.from_rows([[0, 1, 2]]))


def test_inverse_cayley_rejects_eigenvalue_minus_one():
    m = mat_scale(-1, identity(2))  # I + M is singular
    with pytest.raises(ValueError):
        inverse_cayley(m)


@pytest.mark.parametrize("rows", [[[2, 0], [0, 2]], [[1, 1], [0, 1]]])
def test_inverse_cayley_rejects_non_orthogonal_input(rows):
    # without the check, 2 * I maps to -1/3 * I, which is not skew
    with pytest.raises(ValueError, match="input is not orthogonal"):
        inverse_cayley(Matrix.from_rows(rows))


def test_sign_diagonal_fixes_excluded_orthogonals():
    rng = random.Random(159)
    samples = [mat_scale(-1, identity(3))]
    for _ in range(10):
        m = cayley(_random_skew(rng, 3))
        samples.append(m)
        samples.append(mat_scale(-1, m))  # has eigenvalue -1 when n is odd
    for m in samples:
        d = sign_diagonal(m)
        assert all(d.entry(i, i) in (1, -1) for i in range(3))
        assert all(d.entry(i, j) == 0 for i in range(3) for j in range(3) if i != j)
        assert determinant(mat_add(m, d)) != 0


def test_cayley3_forms_shape():
    d, e = cayley3_forms()
    assert d.variables == ("a", "b", "c")
    assert max(map(sum, d.terms)) == 4
    assert max(map(sum, e.terms)) == 4
    # no rational point makes both vanish; spot check one is nonzero somewhere
    assert d.eval({"a": 1, "b": 0, "c": 0}) != 0 or e.eval({"a": 1, "b": 0, "c": 0}) != 0


def test_cayley3_forms_match_direct_computation():
    # D and E were built from the symbolic Cayley image; re-derive at a sample
    # point by running the rational Cayley transform directly.
    a, b, c = Fraction(1, 2), Fraction(-2, 3), Fraction(4)
    m = cayley(skew_from_upper(3, [a, b, c]))
    denom = 1 + a * a + b * b + c * c
    diag = sum(m.entry(i, i) ** 2 for i in range(3))
    anti = sum(m.entry(i, 2 - i) ** 2 for i in range(3))
    d, e = cayley3_forms()
    point = {"a": a, "b": b, "c": c}
    assert (diag - 1) * denom**2 == d.eval(point)
    assert (anti - 1) * denom**2 == e.eval(point)


def test_nonexistence_certificate_all_pass():
    lines = nonexistence_certificate()
    names = [line.name for line in lines]
    assert names == [
        "main-identity",
        "beta-s-p-reduction",
        "elimination-identity",
        "reduction-produces-elimination",
        "sqrt-3-irrational",
    ]
    statuses = [line.status for line in lines]
    assert statuses == ["PASS", "PASS", "PASS", "PASS", "AXIOM"]


def _sympy_cayley3_forms():
    """D and E in sympy, from (I - S) adj(I + S) and det(I + S) directly."""
    a, b, c = sympy.symbols("a b c")
    s = sympy.Matrix([[0, a, b], [-a, 0, c], [-b, -c, 0]])
    eye = sympy.eye(3)
    n = (eye - s) * (eye + s).adjugate()
    delta = (eye + s).det()
    d = sum(n[i, i] ** 2 for i in range(3)) - delta**2
    e = sum(n[i, 2 - i] ** 2 for i in range(3)) - delta**2
    return (a, b, c), sympy.expand(d), sympy.expand(e)


def test_cayley3_forms_match_sympy():
    gens, d_sym, e_sym = _sympy_cayley3_forms()
    for ours, theirs in zip(cayley3_forms(), (d_sym, e_sym)):
        expected = {exps: Fraction(int(c.p), int(c.q))
                    for exps, c in sympy.Poly(theirs, *gens).as_dict().items()}
        assert ours.terms == expected


def test_nonexistence_certificate_identities_in_sympy():
    """The four identities of nonexistence_certificate, checked by sympy."""
    (a, b, c), d, e = _sympy_cayley3_forms()
    # (i) (D + E)/2 = (a^2 - 2b^2 + c^2 - 2)^2 - 3(b^2 + 1)^2
    main = (d + e) / 2 - ((a**2 - 2 * b**2 + c**2 - 2) ** 2 - 3 * (b**2 + 1) ** 2)
    # (ii) in beta = b^2, s = a^2 + c^2, p = a^2 c^2
    beta, s, p = b**2, a**2 + c**2, a**2 * c**2
    d_claim = beta**2 - 2 * (1 + s) * beta + (1 - s) ** 2 - 4 * p
    e_claim = (2 - s) * beta - s + 2 * p
    # (iii) the quartic in (s, p) as 4 u1^2 - 3 u2^2
    sv, pv = sympy.symbols("s p")
    quartic = (4 * pv**2 + (-8 * sv**2 + 16 * sv - 8) * pv
               + sv**4 - 4 * sv**3 + 12 * sv**2 - 16 * sv + 4)
    elimination = quartic - (4 * (pv - (sv - 1) ** 2) ** 2 - 3 * ((sv - 2) * sv) ** 2)
    # (iv) beta = (s - 2p)/(2 - s) in D = 0, times (2 - s)^2, is the quartic
    num, den = sv - 2 * pv, 2 - sv
    produces = (num**2 - 2 * (1 + sv) * num * den
                + ((1 - sv) ** 2 - 4 * pv) * den**2) - quartic
    for difference in (main, d / 2 - d_claim, e / 4 - e_claim, elimination, produces):
        assert sympy.expand(difference) == 0
    # a false identity is caught: the main identity with 3 replaced by 2
    wrong = (d + e) / 2 - ((a**2 - 2 * b**2 + c**2 - 2) ** 2 - 2 * (b**2 + 1) ** 2)
    assert sympy.expand(wrong) != 0


def test_certificate_serialization():
    lines = nonexistence_certificate()
    payload = _certificate_json(lines)
    assert len(payload) == 5
    assert all(entry["status"] in ("PASS", "AXIOM") for entry in payload)
    text = _certificate_text(lines)
    assert text.count("PASS") == 4
    assert "AXIOM" in text


def test_ortho_reduce_on_odd_fixtures():
    for name in ("five5_1.txt", "five5_5.txt"):
        m = load_fixture(name)
        lam, scaled = ortho_reduce(m)
        assert lam * lam == mat_mul(m, transpose(m)).entry(0, 0)
        assert mat_mul(scaled, transpose(scaled)) == identity(5)


def test_ortho_reduce_rejects_even_or_non_scalar():
    with pytest.raises(ValueError):
        ortho_reduce(identity(4))
    with pytest.raises(ValueError):
        ortho_reduce(Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


@st.composite
def _near_scalar_products(draw):
    """A small odd-size integer matrix with M * M^t = gamma * I (a signed
    permutation matrix, or det * cayley(S) for an integer skew S), then
    perhaps one row scaled, two rows swapped or one entry perturbed."""
    n = draw(st.sampled_from((3, 5)))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        rows = [[draw(st.sampled_from((1, -1))) if j == perm[i] else 0 for j in range(n)]
                for i in range(n)]
    else:
        k = n * (n - 1) // 2
        rows = cayley_integer(1, _skew_rows(n, draw(st.lists(
            st.integers(-3, 3), min_size=k, max_size=k))))[0]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(("none", "scale", "swap", "perturb")))
    if change == "scale":
        rows[i] = [draw(st.integers(-2, 2)) * x for x in rows[i]]
    elif change == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    elif change == "perturb":
        rows[i][j] += draw(st.sampled_from((-2, -1, 1, 2)))
    return Matrix.from_rows(rows)


def _value_error(function, m):
    try:
        function(m)
    except ValueError as exc:
        return str(exc)
    return None


@given(_near_scalar_products())
@settings(max_examples=300)
def test_cayley_callers_agree_with_verify_on_the_row_condition(m):
    report = verify(m)
    gamma, holds = report.gamma, report.cond_orthogonal
    reduce_error = _value_error(ortho_reduce, m)
    assert (reduce_error == "gamma is zero") == (gamma == 0)
    assert (reduce_error == "M * M^t is not a scalar matrix") == (gamma != 0 and not holds)
    if reduce_error is None:
        lam, scaled = ortho_reduce(m)
        assert lam * lam == gamma and verify(scaled).cond_orthogonal
    inverse_error = _value_error(inverse_cayley, m)
    assert (inverse_error == "input is not orthogonal") == (not (holds and gamma == 1))


def test_ortho_reduce_rejects_zero_gamma():
    # the zero matrix has the scalar product 0 * I, but no lambda to divide by
    with pytest.raises(ValueError, match="gamma is zero"):
        ortho_reduce(Matrix.from_rows([[0] * 3] * 3))
