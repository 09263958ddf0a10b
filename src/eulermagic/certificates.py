"""Every polynomial identity the package proves, each checked the same way:
_identity_line passes when every difference, left minus right, is zero.

For n = 3 the two diagonal conditions become two polynomial equations
D = E = 0 in the three skew parameters.  nonexistence_certificate() checks,
as exact polynomial identities, the algebra showing that D = E = 0 has no
rational solution; the only unproved ingredient (the irrationality of
sqrt 3) is recorded as an explicit axiom line.

For M = L(a..h) * R(p..w), symbolic_diag_forms builds A and B over all 16
variables, and w1_factorisation_line proves that the coefficients of
F = yA - xB factor as _w1_factors and _pivot_forms say.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .octonion import LEFT_VARS, RIGHT_VARS, _entry_vectors, gamma_product
from .poly import MultiPoly

__all__ = ["CertificateLine", "cayley3_forms", "nonexistence_certificate",
           "BOTH_VARS", "DiagForms", "symbolic_diag_forms", "w1_factorisation_line"]


class CertificateLine(NamedTuple):
    name: str
    status: str  # "PASS", "FAIL", or "AXIOM"
    lhs_minus_rhs_term_count: Optional[int]


def _identity_line(name: str, differences: Sequence[MultiPoly]) -> CertificateLine:
    count = sum(len(d.terms) for d in differences)
    return CertificateLine(name, "PASS" if count == 0 else "FAIL", count)


ABC = ("a", "b", "c")


def cayley3_forms() -> Tuple[MultiPoly, MultiPoly]:
    """The two diagonal conditions of the 3x3 Cayley matrix as polynomials.

    With Delta = det(I + S) and N = Delta * M (integral entries), returns
      D = sum of squared diagonal entries of N - Delta^2,
      E = the same for the anti-diagonal;
    the scaled matrix satisfies both diagonal conditions iff D = E = 0.

    k = (c, -b, a) spans the kernel of S, and S^2 = k k^t - |k|^2 I, so
    (Euler-Rodrigues) adj(I + S) = I - S + k k^t, Delta = 1 + |k|^2, and
    N = (I - S)(I - S + k k^t) = (I - S)^2 + k k^t.
    """
    a, b, c = MultiPoly.variables_of(ABC)
    i_minus = [[1, -a, -b], [a, 1, -c], [b, c, 1]]
    k = (c, -b, a)
    n = [[sum((i_minus[i][m] * i_minus[m][j] for m in range(3)), k[i] * k[j])
          for j in range(3)] for i in range(3)]
    delta = 1 + a * a + b * b + c * c
    d = sum(n[i][i] * n[i][i] for i in range(3)) - delta * delta
    e = sum(n[i][2 - i] * n[i][2 - i] for i in range(3)) - delta * delta
    return d, e


def nonexistence_certificate() -> List[CertificateLine]:
    """Machine-check the polynomial identities behind the 3x3 nonexistence proof.

    Four exact identities are verified by normalizing left minus right to
    zero; the final line records the classical fact used to finish the
    argument (3 is not a rational square) as an axiom.
    """
    a, b, c = MultiPoly.variables_of(ABC)
    d, e = cayley3_forms()

    # (i) (D+E)/2 = (a^2 - 2b^2 + c^2 - 2)^2 - 3(b^2 + 1)^2
    lhs = (d + e) * Fraction(1, 2)
    t1 = a * a - 2 * b * b + c * c - 2
    t2 = b * b + 1
    main = _identity_line("main-identity", [lhs - (t1 * t1 - 3 * t2 * t2)])

    # (ii) in beta = b^2, s = a^2 + c^2, p = a^2 c^2:
    #      D/2 = beta^2 - 2(1+s) beta + (1-s)^2 - 4p,  E/4 = (2-s) beta - s + 2p
    beta = b * b
    s = a * a + c * c
    p = a * a * c * c
    d2_claim = beta * beta - 2 * (1 + s) * beta + (1 - s) * (1 - s) - 4 * p
    e4_claim = (2 - s) * beta - s + 2 * p
    reduction = _identity_line(
        "beta-s-p-reduction",
        [d * Fraction(1, 2) - d2_claim, e * Fraction(1, 4) - e4_claim],
    )

    # (iii) elimination identity in (s, p):
    #   4p^2 + (-8s^2 + 16s - 8)p + s^4 - 4s^3 + 12s^2 - 16s + 4
    #     = 4 (p - (s-1)^2)^2 - 3 (s-2)^2 s^2
    sv, pv = MultiPoly.variables_of(("s", "p"))
    quartic = (
        4 * pv * pv
        + (-8 * sv * sv + 16 * sv - 8) * pv
        + sv**4 - 4 * sv**3 + 12 * sv * sv - 16 * sv + 4
    )
    u1 = pv - (sv - 1) * (sv - 1)
    u2 = (sv - 2) * sv
    elimination = _identity_line("elimination-identity", [quartic - (4 * u1 * u1 - 3 * u2 * u2)])

    # (iv) substituting beta = (s - 2p)/(2 - s) (from E = 0) into D = 0 and
    #      clearing the (2 - s)^2 denominator reproduces the quartic of (iii)
    num = sv - 2 * pv
    den = 2 - sv
    substituted = (
        num * num
        - 2 * (1 + sv) * num * den
        + ((1 - sv) * (1 - sv) - 4 * pv) * den * den
    )
    produces = _identity_line("reduction-produces-elimination", [substituted - quartic])

    axiom = CertificateLine("sqrt-3-irrational", "AXIOM", None)
    return [main, reduction, elimination, produces, axiom]


BOTH_VARS: Tuple[str, ...] = LEFT_VARS + RIGHT_VARS

# coefficient pattern of the p^2 coefficient of F, up to the factor -128 h^2:
# variable name -> ((i, j, sign), (k, l, sign)) meaning sign*x_i*x_j + ...
_P2_PATTERN: Tuple[Tuple[str, Tuple[int, int, int], Tuple[int, int, int]], ...] = (
    ("q", (0, 6, 1), (1, 7, 1)),   # a*g + b*h
    ("r", (0, 5, -1), (2, 7, 1)),  # -a*f + c*h
    ("s", (0, 4, -1), (3, 7, 1)),  # -a*e + d*h
    ("t", (0, 3, 1), (4, 7, 1)),   # a*d + e*h
    ("u", (0, 2, 1), (5, 7, 1)),   # a*c + f*h
    ("v", (0, 1, -1), (6, 7, 1)),  # -a*b + g*h
)


def _pivot_forms(x) -> Dict[str, object]:
    """Each _P2_PATTERN name's pivot form s1*x_i*x_j + s2*x_k*x_l at
    x = (a..h), in any ring the integers act on: ints or MultiPolys."""
    return {name: s1 * x[i] * x[j] + s2 * x[k] * x[l]
            for name, (i, j, s1), (k, l, s2) in _P2_PATTERN}


class DiagForms(NamedTuple):
    A: MultiPoly
    B: MultiPoly


def symbolic_diag_forms() -> DiagForms:
    """A and B over the full 16-variable context (a..h, p..w), with the
    entries of M read off _entry_vectors((), ())."""
    # slot 9x + y holds the product of left variable x and right variable y,
    # counting from 1: the monomial with exponent 1 at positions x - 1 and 7 + y
    slots = {9 * x + y: tuple(int(k in (x - 1, 7 + y)) for k in range(16))
             for x in range(1, 9) for y in range(1, 9)}
    entries = [MultiPoly(BOTH_VARS, {exps: vec[slot] for slot, exps in slots.items()})
               for vec in _entry_vectors((), ())]
    symbols = MultiPoly.variables_of(BOTH_VARS)
    gamma = gamma_product(symbols[:8], symbols[8:])
    diag = sum(m * m for m in entries[::9])
    anti = sum(m * m for m in entries[7:57:7])
    return DiagForms(A=diag - anti, B=diag + anti - 2 * gamma)


def _w1_factors(a, b, c, d, e, f, g, h):
    """(a*h*(N - 4a^2 - 4h^2), N - 8a^2) at (a..h), for N = a^2 + ... + h^2,
    in any ring the integers act on, both from gap = N - 8a^2:
    N - 4a^2 - 4h^2 = gap + 4(a^2 - h^2)."""
    gap = b * b + c * c + d * d + e * e + f * f + g * g + h * h - 7 * a * a
    return a * h * (gap + 4 * (a * a - h * h)), gap


def _p_parts(poly: MultiPoly) -> List[MultiPoly]:
    """The coefficients of p^0, p^1, ..., p^(degree in p) of poly."""
    return [poly.coefficient_of("p", i) for i in range(poly.degree_in("p") + 1)]


def _p_product_part(u: Sequence[MultiPoly], v: Sequence[MultiPoly], k: int) -> MultiPoly:
    """The p^k coefficient of a product, from the _p_parts u and v of its
    factors: the sum over i + j = k of u_i v_j."""
    return sum((u[i] * v[k - i] for i in range(len(u)) if 0 <= k - i < len(v)),
               MultiPoly.zero(BOTH_VARS))


def _w1_residuals() -> List[MultiPoly]:
    """The 8 polynomials in a..h, over the context (a..h, p..w), that vanish
    exactly when the two elimination coefficient facts hold: the p^3
    coefficient of F, the w-part of its p^2 coefficient, and each q..v part of
    it plus 128 h^2 times its _P2_PATTERN form.  All come from the fully
    symbolic A and B, without building F = yA - xB: its p^k coefficient is
    the sum over i + j = k of y_i A_j - x_i B_j, with z_i the p^i coefficient
    of z, and i and j run over every p-degree, so no term is dropped.

    With N = a^2 + ... + h^2 they factor as 32*a*h*(N - 4a^2 - 4h^2), 0, and
    16 times each pivot form times N - 8a^2 (see _w1_factors)."""
    forms = symbolic_diag_forms()
    xs, ys, a_parts, b_parts = map(_p_parts, (
        forms.A.coefficient_of("w", 1), forms.B.coefficient_of("w", 1), forms.A, forms.B))
    p3, p2 = (_p_product_part(ys, a_parts, k) - _p_product_part(xs, b_parts, k) for k in (3, 2))
    symbols = MultiPoly.variables_of(BOTH_VARS)
    return [p3, p2.coefficient_of("w", 1)] + [
        p2.coefficient_of(name, 1) + 128 * symbols[7] * symbols[7] * pivot
        for name, pivot in _pivot_forms(symbols).items()]


def w1_factorisation_line() -> CertificateLine:
    """Each residual of _w1_residuals, derived from the symbolic F, minus its
    factorisation: 32 times the cubic of _w1_factors, 0, and 16 times each
    pivot form times the gap N - 8a^2."""
    symbols = MultiPoly.variables_of(BOTH_VARS)
    cubic, gap = _w1_factors(*symbols[:8])
    factored = [32 * cubic, 0] + [16 * pivot * gap for pivot in _pivot_forms(symbols).values()]
    return _identity_line("w1-factorisation", [
        residual - claim for residual, claim in zip(_w1_residuals(), factored, strict=True)])
