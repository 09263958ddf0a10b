"""Cayley transform machinery and the 3x3 nonexistence certificate.

The Cayley transform S -> (I - S)(I + S)^(-1) maps skew-symmetric rational
matrices bijectively onto orthogonal matrices without eigenvalue -1; I + S is
always invertible for skew S over the rationals.  A sign diagonal D with
det(M + D) != 0 extends the parametrization to all orthogonal matrices, and
for odd n any M with M * M^t = gamma * I is a scalar multiple of an
orthogonal matrix (ortho_reduce).

For n = 3 the two diagonal conditions become two polynomial equations
D = E = 0 in the three skew parameters.  nonexistence_certificate() checks,
as exact polynomial identities, the algebra showing that D = E = 0 has no
rational solution; the only unproved ingredient (the irrationality of
sqrt 3) is recorded as an explicit axiom line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from .matrices import (
    Matrix,
    SingularMatrixError,
    bareiss_adjugate,
    clear_denominators,
    determinant,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    transpose,
)
from .poly import MultiPoly

__all__ = [
    "skew_from_upper",
    "skew3",
    "is_skew",
    "cayley",
    "cayley_integer",
    "inverse_cayley",
    "sign_diagonal",
    "cayley3_forms",
    "CertificateLine",
    "nonexistence_certificate",
    "certificate_to_json",
    "certificate_to_text",
    "ortho_reduce",
]


def _skew_rows(n: int, values: Sequence[object]) -> List[List[object]]:
    """The rows of the skew-symmetric n x n matrix with strict upper triangle
    values, row by row: the one place that fixes the parameter order."""
    expected = n * (n - 1) // 2
    if len(values) != expected:
        raise ValueError(f"need {expected} upper-triangle values for n={n}, got {len(values)}")
    rows = [[0] * n for _ in range(n)]
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            rows[i][j] = v
            rows[j][i] = -v
    return rows


def skew_from_upper(n: int, values: Sequence[object]) -> Matrix:
    """Skew-symmetric n x n matrix from its strict upper triangle, row by row."""
    return Matrix(n, n, _skew_rows(n, list(values)))


def skew3(a, b, c) -> Matrix:
    """The 3x3 skew matrix ((0,a,b),(-a,0,c),(-b,-c,0))."""
    return skew_from_upper(3, [a, b, c])


def is_skew(m: Matrix) -> bool:
    e = m.entries
    return m.is_square() and all(
        e[i][j] == -e[j][i] for i in range(m.rows) for j in range(i, m.rows))


def cayley_integer(d: int, s_int: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """(P, det) = (det * cayley(S), det(dI + S_int)) for an integer matrix S_int = d * S.

    With A = dI + S_int, dI - S_int = 2dI - A and A * adj A = det * I, so
    P = (dI - S_int) * adj A = 2d * adj A - det * I: one Bareiss adjugate and
    no matrix product.
    """
    adj, det = bareiss_adjugate(
        [[d + x if i == j else x for j, x in enumerate(r)] for i, r in enumerate(s_int)])
    d2 = 2 * d
    return [[d2 * x - det if i == j else d2 * x for j, x in enumerate(r)]
            for i, r in enumerate(adj)], det


def _cayley_map(m: Matrix) -> Matrix:
    """(I - m)(I + m)^(-1) as Fractions: cayley_integer on d * m, with d the
    lcm of the denominators of a square m, divided by det = d^n * det(I + m).

    det > 0 for both callers.  For skew S the eigenvalues are 0 and pairs
    +-ib, so det(I + S) is a product of factors 1 + b^2.  For orthogonal M
    with I + M nonsingular every eigenvalue is 1 or one of a pair e^(+-i theta)
    with theta != pi, so det(I + M) is a product of 2s and of factors
    2 + 2 cos theta, all positive.
    """
    n = m.rows
    d, flat = clear_denominators([x for r in m.entries for x in r])
    p, det = cayley_integer(d, [flat[i:i + n] for i in range(0, n * n, n)])
    assert det > 0, "det(I + m) <= 0"
    return Matrix(n, n, [[Fraction(x, det) for x in r] for r in p])


def cayley(s: Matrix) -> Matrix:
    """(I - S)(I + S)^(-1); exact, orthogonal for every rational skew S."""
    if not is_skew(s):
        raise ValueError("input is not skew-symmetric")
    return _cayley_map(s)


def inverse_cayley(m: Matrix) -> Matrix:
    """The skew matrix S with cayley(S) = m, for orthogonal m without eigenvalue -1:
    the Cayley map is an involution, so S = (I - m)(I + m)^(-1)."""
    if not m.is_square():
        raise ValueError("input must be square")
    if mat_mul(m, transpose(m)) != identity(m.rows):
        raise ValueError("input is not orthogonal")
    try:
        return _cayley_map(m)
    except SingularMatrixError:
        raise ValueError("minus-one eigenvalue: I + M is singular") from None


def sign_diagonal(m: Matrix) -> Matrix:
    """A diagonal +-1 matrix D with M + D invertible.

    Candidates are scanned in a fixed, reproducible order: all +1 first, then
    graded by the number of -1 entries, lexicographically by the positions of
    the -1 entries within each grade.  For orthogonal M a valid D always
    exists; exhausting the scan signals a pathological input.
    """
    if not m.is_square():
        raise ValueError("input must be square")
    n = m.rows
    if n > 16:
        raise ValueError("sign diagonal scan is limited to n <= 16")
    for k in range(n + 1):
        for neg_positions in combinations(range(n), k):
            diag = [Fraction(-1) if i in neg_positions else Fraction(1) for i in range(n)]
            d = Matrix(n, n, tuple(
                tuple(diag[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)
            ))
            if determinant(mat_add(m, d)) != 0:
                return d
    raise ValueError("no sign diagonal found; input cannot be orthogonal")


# ----------------------------------------------------------------------
# symbolic 3x3 forms and the nonexistence certificate
# ----------------------------------------------------------------------

ABC = ("a", "b", "c")


def _symbolic_cayley3() -> Tuple[List[List[MultiPoly]], MultiPoly]:
    """(Delta * M, Delta) for the 3x3 Cayley transform with symbolic a, b, c.

    k = (c, -b, a) spans the kernel of S, and S^2 = k k^t - |k|^2 I, so
    (Euler-Rodrigues) adj(I + S) = I - S + k k^t, Delta = det(I + S) =
    1 + |k|^2, and Delta * M = (I - S)(I - S + k k^t) = (I - S)^2 + k k^t.
    """
    a, b, c = MultiPoly.variables_of(ABC)
    one = MultiPoly.constant(ABC, 1)
    i_minus = [[one, -a, -b], [a, one, -c], [b, c, one]]
    k = (c, -b, a)
    scaled = [[sum((i_minus[i][m] * i_minus[m][j] for m in range(3)), k[i] * k[j])
               for j in range(3)] for i in range(3)]
    return scaled, one + a * a + b * b + c * c


def cayley3_forms() -> Tuple[MultiPoly, MultiPoly]:
    """The two diagonal conditions of the 3x3 Cayley matrix as polynomials.

    With N = Delta * M (integral entries), returns
      D = sum of squared diagonal entries of N - Delta^2,
      E = the same for the anti-diagonal;
    the scaled matrix satisfies both diagonal conditions iff D = E = 0.
    """
    n, delta = _symbolic_cayley3()
    zero = MultiPoly.zero(ABC)
    d = sum((n[i][i] * n[i][i] for i in range(3)), zero) - delta * delta
    e = sum((n[i][2 - i] * n[i][2 - i] for i in range(3)), zero) - delta * delta
    return d, e


@dataclass(frozen=True)
class CertificateLine:
    name: str
    status: str  # "PASS", "FAIL", or "AXIOM"
    lhs_minus_rhs_term_count: Optional[int]


def _identity_line(name: str, differences: Sequence[MultiPoly]) -> CertificateLine:
    count = sum(len(d.terms) for d in differences)
    return CertificateLine(name, "PASS" if count == 0 else "FAIL", count)


def nonexistence_certificate() -> List[CertificateLine]:
    """Machine-check the polynomial identities behind the 3x3 nonexistence proof.

    Four exact identities are verified by normalizing left minus right to
    zero; the final line records the classical fact used to finish the
    argument (3 is not a rational square) as an axiom.
    """
    a, b, c = MultiPoly.variables_of(ABC)
    one = MultiPoly.constant(ABC, 1)
    d, e = cayley3_forms()

    # (i) (D+E)/2 = (a^2 - 2b^2 + c^2 - 2)^2 - 3(b^2 + 1)^2
    lhs = (d + e) * Fraction(1, 2)
    t1 = a * a - 2 * b * b + c * c - 2
    t2 = b * b + one
    main = _identity_line("main-identity", [lhs - (t1 * t1 - 3 * t2 * t2)])

    # (ii) in beta = b^2, s = a^2 + c^2, p = a^2 c^2:
    #      D/2 = beta^2 - 2(1+s) beta + (1-s)^2 - 4p,  E/4 = (2-s) beta - s + 2p
    beta = b * b
    s = a * a + c * c
    p = a * a * c * c
    d2_claim = beta * beta - 2 * (one + s) * beta + (one - s) * (one - s) - 4 * p
    e4_claim = (2 * one - s) * beta - s + 2 * p
    reduction = _identity_line(
        "beta-s-p-reduction",
        [d * Fraction(1, 2) - d2_claim, e * Fraction(1, 4) - e4_claim],
    )

    # (iii) elimination identity in (s, p):
    #   4p^2 + (-8s^2 + 16s - 8)p + s^4 - 4s^3 + 12s^2 - 16s + 4
    #     = 4 (p - (s-1)^2)^2 - 3 (s-2)^2 s^2
    sv, pv = MultiPoly.variables_of(("s", "p"))
    one2 = MultiPoly.constant(("s", "p"), 1)
    quartic = (
        4 * pv * pv
        + (-8 * sv * sv + 16 * sv - 8 * one2) * pv
        + sv**4 - 4 * sv**3 + 12 * sv * sv - 16 * sv + 4 * one2
    )
    u1 = pv - (sv - one2) * (sv - one2)
    u2 = (sv - 2 * one2) * sv
    elimination = _identity_line("elimination-identity", [quartic - (4 * u1 * u1 - 3 * u2 * u2)])

    # (iv) substituting beta = (s - 2p)/(2 - s) (from E = 0) into D = 0 and
    #      clearing the (2 - s)^2 denominator reproduces the quartic of (iii)
    num = sv - 2 * pv
    den = 2 * one2 - sv
    substituted = (
        num * num
        - 2 * (one2 + sv) * num * den
        + ((one2 - sv) * (one2 - sv) - 4 * pv) * den * den
    )
    produces = _identity_line("reduction-produces-elimination", [substituted - quartic])

    axiom = CertificateLine("sqrt-3-irrational", "AXIOM", None)
    return [main, reduction, elimination, produces, axiom]


def certificate_to_json(lines: Sequence[CertificateLine]) -> list:
    return [
        {
            "name": ln.name,
            "status": ln.status,
            "lhs_minus_rhs_term_count": ln.lhs_minus_rhs_term_count,
        }
        for ln in lines
    ]


def certificate_to_text(lines: Sequence[CertificateLine]) -> str:
    out = []
    for ln in lines:
        if ln.status == "AXIOM":
            out.append(f"{ln.name}: AXIOM")
        else:
            out.append(f"{ln.name}: {ln.status} (difference terms: {ln.lhs_minus_rhs_term_count})")
    return "\n".join(out)


def ortho_reduce(m: Matrix):
    """For odd n and M * M^t = gamma * I, return (lambda, M / lambda) with lambda^2 = gamma.

    Taking determinants in M * M^t = gamma * I gives (det M)^2 = gamma^n, so
    for n = 2k + 1 the scalar lambda = det(M) / gamma^k squares to gamma and
    M / lambda is orthogonal.
    """
    if not m.is_square():
        raise ValueError("input must be square")
    n = m.rows
    if n % 2 == 0:
        raise ValueError("orthogonal reduction needs odd size")
    product = mat_mul(m, transpose(m))
    gamma = product.entry(0, 0)
    if gamma == 0:
        raise ValueError("gamma is zero")
    if product != mat_scale(gamma, identity(n)):
        raise ValueError("M * M^t is not a scalar matrix")
    k = (n - 1) // 2
    lam = Fraction(determinant(m)) / Fraction(gamma) ** k
    if lam * lam != gamma:
        raise RuntimeError("internal error: lambda^2 != gamma")
    scaled = mat_scale(1 / lam, m)
    return lam, scaled
