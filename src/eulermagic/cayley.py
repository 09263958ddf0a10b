"""Cayley transform machinery: the map, its inverse and its integer kernels.

The Cayley transform S -> (I - S)(I + S)^(-1) maps skew-symmetric rational
matrices bijectively onto orthogonal matrices without eigenvalue -1; I + S is
always invertible for skew S over the rationals.  A sign diagonal D with
det(M + D) != 0 extends the parametrization to all orthogonal matrices, and
for odd n any M with M * M^t = gamma * I is a scalar multiple of an
orthogonal matrix (ortho_reduce).  Both inverse_cayley and ortho_reduce
decide M * M^t = gamma * I with verify's _row_condition.

cayley_integer is the one exact kernel of the map: integer P = det * cayley(S)
from one Bareiss adjugate.  For 5x5 skew S, cayley5_diagonals reads the main
diagonal and anti-diagonal of that P from Cayley-Hamilton closed forms instead,
which is all the two diagonal conditions need.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import List, Sequence, Tuple

# not in __all__: perfbench/child.py and perfbench/tracer.py read it here
from .certificates import nonexistence_certificate  # noqa: F401
from .matrices import (
    Matrix,
    SingularMatrixError,
    bareiss_adjugate,
    clear_denominators,
    determinant,
    exact_rationals,
    mat_add,
    mat_scale,
)
from .verify import _row_condition

__all__ = [
    "skew_from_upper",
    "is_skew",
    "cayley",
    "cayley_integer",
    "cayley5_diagonals",
    "inverse_cayley",
    "sign_diagonal",
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


def cayley5_diagonals(d: int, upper: Sequence[int]) -> Tuple[int, List[int], List[int]]:
    """(det, [P[i][i]], [P[i][4 - i]]) for (P, det) = cayley_integer(d, _skew_rows(5, upper)),
    where upper holds the ten strict-upper entries of a 5 x 5 integer skew
    matrix S, row by row, without forming S or adj A.

    The characteristic polynomial of S is x^5 + sigma2 x^3 + sigma4 x, with
    sigma2 the sum of the squared upper entries and sigma4 = sum_k Pf_k^2,
    Pf_k the Pfaffian of S with row and column k deleted.  For A = dI + S,
    Cayley-Hamilton gives det A = d c0 and
        adj A = S^4 - d S^3 + c2 S^2 - d c2 S + c0 I,
    with c2 = d^2 + sigma2 and c0 = d^4 + sigma2 d^2 + sigma4.  In terms of
    the Gram matrix G = S S^t = -S^2 of the rows,
        adj A[k][k] = d^4 + d^2 (sigma2 - G_kk) + Pf_k^2,
        adj A[i][j], adj A[j][i] = E + O, E - O,
    where E = (G^2)_ij - c2 G_ij and O = d ((S G)_ij - c2 s_ij); only (0, 4)
    and (1, 3) are needed.  P = 2d adj A - det I, as in cayley_integer.
    """
    s01, s02, s03, s04, s12, s13, s14, s23, s24, s34 = upper
    g = [s01 * s01 + s02 * s02 + s03 * s03 + s04 * s04,  # G_kk
         s01 * s01 + s12 * s12 + s13 * s13 + s14 * s14,
         s02 * s02 + s12 * s12 + s23 * s23 + s24 * s24,
         s03 * s03 + s13 * s13 + s23 * s23 + s34 * s34,
         s04 * s04 + s14 * s14 + s24 * s24 + s34 * s34]
    g01 = s02 * s12 + s03 * s13 + s04 * s14
    g02 = s03 * s23 + s04 * s24 - s01 * s12
    g03 = s04 * s34 - s01 * s13 - s02 * s23
    g04 = -s01 * s14 - s02 * s24 - s03 * s34
    g12 = s01 * s02 + s13 * s23 + s14 * s24
    g13 = s01 * s03 + s14 * s34 - s12 * s23
    g14 = s01 * s04 - s12 * s24 - s13 * s34
    g23 = s02 * s03 + s12 * s13 + s24 * s34
    g24 = s02 * s04 + s12 * s14 - s23 * s34
    g34 = s03 * s04 + s13 * s14 + s23 * s24
    pf = (s12 * s34 - s13 * s24 + s14 * s23, s02 * s34 - s03 * s24 + s04 * s23,
          s01 * s34 - s03 * s14 + s04 * s13, s01 * s24 - s02 * s14 + s04 * s12,
          s01 * s23 - s02 * s13 + s03 * s12)
    d2 = d * d
    c2 = d2 + sum(g) // 2
    det = d * (d2 * c2 + sum(x * x for x in pf))
    d1 = 2 * d
    diagonal = [d1 * (d2 * (c2 - gkk) + x * x) - det for gkk, x in zip(g, pf)]
    e04 = g[0] * g04 + g01 * g14 + g02 * g24 + g03 * g34 + g04 * g[4] - c2 * g04
    o04 = d * (s01 * g14 + s02 * g24 + s03 * g34 + s04 * g[4] - c2 * s04)
    e13 = g01 * g03 + g[1] * g13 + g12 * g23 + g13 * g[3] + g14 * g34 - c2 * g13
    o13 = d * (s12 * g23 + s13 * g[3] + s14 * g34 - s01 * g03 - c2 * s13)
    return det, diagonal, [d1 * (e04 + o04), d1 * (e13 + o13), diagonal[2],
                           d1 * (e13 - o13), d1 * (e04 - o04)]


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
    """(I - S)(I + S)^(-1); exact, orthogonal for every rational skew S.
    Entries that are not exact_rationals are a TypeError."""
    exact_rationals((x for row in s.entries for x in row), "matrix entries")
    if not is_skew(s):
        raise ValueError("input is not skew-symmetric")
    return _cayley_map(s)


def inverse_cayley(m: Matrix) -> Matrix:
    """The skew matrix S with cayley(S) = m, for orthogonal m without eigenvalue -1:
    the Cayley map is an involution, so S = (I - m)(I + m)^(-1)."""
    if not m.is_square():
        raise ValueError("input must be square")
    if _row_condition(m.entries) != (1, True):
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
    gamma, holds = _row_condition(m.entries)
    if gamma == 0:
        raise ValueError("gamma is zero")
    if not holds:
        raise ValueError("M * M^t is not a scalar matrix")
    k = (n - 1) // 2
    lam = Fraction(determinant(m)) / Fraction(gamma) ** k
    if lam * lam != gamma:
        raise RuntimeError("internal error: lambda^2 != gamma")
    return lam, mat_scale(1 / lam, m)
