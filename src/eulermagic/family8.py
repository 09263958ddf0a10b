"""The 8x8 construction M = L(a..h) * R(p..w): diagonal forms, witnesses,
the w-elimination, the solve chain, and the four-parameter proper family.

With the left coefficients fixed to integers and the right coefficients kept
symbolic, every entry of M is a linear form in p..w, so the two diagonal
conditions become quadratic forms:

    A = sum of squared diagonal entries - sum of squared anti-diagonal entries,
    B = sum of both squared-entry sums - 2 * gamma.

M is Euler magic exactly when A = B = 0.  The w-degrees of A and B drop to 1
precisely when h = +-a and b^2+c^2+d^2+e^2+f^2+g^2 = 6a^2 (the "w1"
restriction), which makes the elimination F = yA - xB a cubic without w and
enables the chain: solve the p^2 coefficient for q (or v), then F for p, then
A for w.  Specializing the remaining free values yields exact Euler magic
matrices; properness is reported, never assumed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, isqrt
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .matrices import Matrix, clear_denominators, mat_mul, rescale_primitive
from .octonion import (
    LEFT_SIGN_TABLE,
    LEFT_VARS,
    RIGHT_SIGN_TABLE,
    RIGHT_VARS,
    left_matrix,
    right_matrix,
)
from .poly import MultiPoly
from .verify import VerifyReport, report_to_json_dict, verify

__all__ = [
    "BOTH_VARS",
    "DiagForms",
    "IntegerForms",
    "integer_forms",
    "entries_distinct",
    "verified_product",
    "Witness",
    "WitnessReport",
    "diag_forms",
    "symbolic_diag_forms",
    "improper_witnesses",
    "w1_check",
    "enumerate_w1",
    "eliminate_w",
    "SolveChainResult",
    "solve_chain",
    "FAMILY_LEFT",
    "family_x_poly",
    "FamilyResult",
    "four_parameter_family",
    "family_result_to_json_dict",
    "w1_coefficient_checker",
]

BOTH_VARS: Tuple[str, ...] = LEFT_VARS + RIGHT_VARS

FAMILY_LEFT: Tuple[int, ...] = (2, 1, 1, 4, 2, 1, 1, -2)

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


def _require_numeric_left(left: Sequence[object]) -> Tuple[Fraction, ...]:
    left = tuple(left)
    if len(left) != 8:
        raise ValueError(f"expected 8 left coefficients, got {len(left)}")
    out = []
    for x in left:
        if not isinstance(x, (int, Fraction)):
            raise TypeError("left coefficients must be exact rationals")
        out.append(Fraction(x))
    return tuple(out)


@dataclass(frozen=True)
class DiagForms:
    A: MultiPoly
    B: MultiPoly
    fixed_left: Optional[Tuple[Fraction, ...]]


def diag_forms(left: Sequence[object]) -> DiagForms:
    """The quadratic forms A and B in (p..w) for a fixed numeric left tuple,
    read off the Gram matrices of integer_forms."""
    left = _require_numeric_left(left)
    forms = integer_forms(left)
    a_form, b_form = (_quadratic_poly(g, forms.scale) for g in (forms.gram_a, forms.gram_b))
    return DiagForms(A=a_form, B=b_form, fixed_left=left)


def symbolic_diag_forms() -> DiagForms:
    """A and B over the full 16-variable context (a..h, p..w), with the
    entries of M read off _entry_vectors((), ())."""
    # slot 9x + y holds the product of left variable x and right variable y,
    # counting from 1: the monomial with exponent 1 at positions x - 1 and 7 + y
    slots = {9 * x + y: tuple(int(k in (x - 1, 7 + y)) for k in range(16))
             for x in range(1, 9) for y in range(1, 9)}
    entries = [MultiPoly(BOTH_VARS, {exps: vec[slot] for slot, exps in slots.items()})
               for vec in _entry_vectors((), ())]
    zero = MultiPoly.zero(BOTH_VARS)
    symbols = MultiPoly.variables_of(BOTH_VARS)
    gamma = sum((v * v for v in symbols[:8]), zero) * sum((v * v for v in symbols[8:]), zero)
    diag = sum((m * m for m in entries[::9]), zero)
    anti = sum((m * m for m in entries[7:57:7]), zero)
    return DiagForms(A=diag - anti, B=diag + anti - 2 * gamma, fixed_left=None)


# ----------------------------------------------------------------------
# integer linear forms
# ----------------------------------------------------------------------

Vector = Tuple[int, ...]


def _sign_key(vec: Sequence[int]) -> Vector:
    """An integer vector up to sign: signed so that its first nonzero entry
    is positive."""
    if next((x for x in vec if x), 0) < 0:
        return tuple(-x for x in vec)
    return tuple(vec)


@dataclass(frozen=True)
class IntegerForms:
    """M = L(left) * R(p..w) for a numeric left tuple, over the integers.

    scale is the least common denominator of the left tuple.  entries[8*i + j]
    holds the 8 integer coefficients over (p..w) of scale * m(i+1, j+1), and
    scale^2 * A = x^T gram_a x, scale^2 * B = x^T gram_b x for x = (p..w).
    """

    scale: int
    entries: Tuple[Vector, ...]
    gram_a: Tuple[Vector, ...]
    gram_b: Tuple[Vector, ...]


def _entry_vectors(left: Sequence[int], right: Sequence[int]) -> List[List[int]]:
    """The 64 entries of M, row by row, with a prefix of a..h and a prefix of
    p..w fixed to integers: coefficient vectors over the monomials still free.

    Slot x * (9 - len(right)) + y holds the product of the x-th free left and
    the y-th free right variable, counting from 1; 0 stands for a fixed
    factor, so slot 0 is the constant.
    """
    width = 9 - len(right)
    lslots = [(0, x) for x in left] + [(width * (k + 1), 1) for k in range(8 - len(left))]
    rslots = [(0, y) for y in right] + [(m + 1, 1) for m in range(8 - len(right))]
    vectors = []
    for lrow in LEFT_SIGN_TABLE:
        for rcol in zip(*RIGHT_SIGN_TABLE):
            vec = [0] * ((9 - len(left)) * width)
            for (kl, sl), (kr, sr) in zip(lrow, rcol):  # m(i, j) = sum of L(i, k) * R(k, j)
                (x, cx), (y, cy) = lslots[kl], rslots[kr]
                vec[x + y] += sl * sr * cx * cy
            vectors.append(vec)
    return vectors


def entries_distinct(prefix: Sequence[object]) -> bool:
    """Whether the 64 entries of M, with a prefix of (a..h, p..w) fixed to
    rationals, are pairwise distinct up to sign as polynomials in the
    variables still free.

    Clearing the denominators of each side scales the coefficients of each
    kind of monomial (constant, free left, free right, free product) by one
    positive factor in all 64 entries, which keeps equality up to sign.
    """
    if len(prefix) > 16:
        raise ValueError(f"expected at most 16 fixed values, got {len(prefix)}")
    vectors = _entry_vectors(clear_denominators(prefix[:8])[1],
                             clear_denominators(prefix[8:])[1])
    return len({_sign_key(vec) for vec in vectors}) == 64


def integer_forms(left: Sequence[object]) -> IntegerForms:
    """The entries of M as integer vectors and A, B as integer Gram matrices,
    built straight from the two sign tables."""
    left = _require_numeric_left(left)
    scale, ileft = clear_denominators(left)
    # with all of a..h fixed, slot 0 (the constant) is zero and slots 1..8 are p..w
    entries = [tuple(vec[1:]) for vec in _entry_vectors(ileft, ())]

    def squares(vectors):  # Gram matrix of the sum of (v.x)^2
        return [[sum(v[k] * v[l] for v in vectors) for l in range(8)] for k in range(8)]

    diag, anti = squares(entries[::9]), squares(entries[7:57:7])
    gamma = sum(x * x for x in ileft)
    gram_a = tuple(tuple(d - a for d, a in zip(*rows)) for rows in zip(diag, anti))
    gram_b = tuple(tuple(d + a - 2 * gamma * (k == l) for l, (d, a) in enumerate(zip(*rows)))
                   for k, rows in enumerate(zip(diag, anti)))
    return IntegerForms(scale, tuple(entries), gram_a, gram_b)


def verified_product(left: Sequence[object],
                     right: Sequence[object]) -> Tuple[Matrix, Matrix, VerifyReport]:
    """(M, primitive, report) for M = L(left) * R(right) with rational tuples.

    Each side's denominators are cleared by their lcm, the product is taken
    in integers and divided back to Fractions for M; primitive is its
    rescale_primitive and report is verify on that.
    """
    lden, ileft = clear_denominators(left)
    rden, iright = clear_denominators(right)
    product = mat_mul(left_matrix(ileft), right_matrix(iright))
    den = lden * rden
    matrix = Matrix(8, 8, tuple(tuple(Fraction(x, den) for x in row) for row in product.entries))
    primitive = rescale_primitive(product)
    return matrix, primitive, verify(primitive)


def _quadratic_poly(gram: Sequence[Vector], scale: int) -> MultiPoly:
    """x^T gram x / scale^2 over (p..w)."""
    return MultiPoly(RIGHT_VARS, {
        tuple((m == k) + (m == l) for m in range(8)):
            Fraction(gram[k][l] * (1 if k == l else 2), scale * scale)
        for k in range(8) for l in range(k, 8)
    })


# ----------------------------------------------------------------------
# properness witnesses
# ----------------------------------------------------------------------

Position = Tuple[int, int]  # 1-based


@dataclass(frozen=True)
class Witness:
    kind: str  # "identical-squares" or "factor-of-A"
    first: Position
    second: Position
    relation: str  # "difference" or "sum"
    form: MultiPoly


@dataclass(frozen=True)
class WitnessReport:
    left: Tuple[Fraction, ...]
    witnesses: Tuple[Witness, ...]
    polynomial_matrix_proper: bool
    properness_obstructed: bool


def _linear_poly(vec: Vector, scale: int) -> MultiPoly:
    """The linear form vec / scale over (p..w)."""
    return MultiPoly(RIGHT_VARS, {tuple(int(k == i) for k in range(8)): Fraction(c, scale)
                                  for i, c in enumerate(vec) if c})


def _line_key(vec: Sequence[int]) -> Vector:
    """A nonzero integer vector up to a rational scalar: divided by the gcd of
    its entries, then _sign_key."""
    g = gcd(*vec)
    return _sign_key([x // g for x in vec])


def _linear_factors(gram: Sequence[Vector]) -> Optional[Tuple[Vector, Vector]]:
    """The line keys of l1, l2 when x^T G x = c * l1(x) * l2(x) over Q, else None.

    Such a G has rank <= 2: it is proportional to l1 l2^T + l2 l1^T.  At rank
    2 some principal 2x2 minor det P on rows i, j is nonzero, and then
    det P * x^T G x = a*y1^2 + 2b*y1*y2 + c*y2^2 with y1 = G_i.x, y2 = G_j.x,
    (a, b, c) = (G_jj, -G_ij, G_ii); that binary form splits over Q exactly
    when -det P is a square s^2.  With every such minor zero, a nonzero G can
    only be a square c * l^2, with l along any nonzero row.  Either way the
    candidate lines are kept only if G is proportional to their product.
    """
    minors = [(i, j) for i in range(8) for j in range(i + 1, 8)
              if gram[i][i] * gram[j][j] != gram[i][j] ** 2]
    if minors:
        i, j = minors[0]
        a, b, c = gram[j][j], -gram[i][j], gram[i][i]
        s = isqrt(max(b * b - a * c, 0))
        if s * s != b * b - a * c:
            return None
        ri, rj = gram[i], gram[j]
        if a:
            l1 = [a * x + (b - s) * y for x, y in zip(ri, rj)]
            l2 = [a * x + (b + s) * y for x, y in zip(ri, rj)]
        else:
            l1, l2 = rj, [2 * b * x + c * y for x, y in zip(ri, rj)]
    else:
        l1 = l2 = next((r for r in gram if any(r)), None)
        if l1 is None:
            return None
    product = [[x1 * y2 + x2 * y1 for y1, y2 in zip(l1, l2)] for x1, x2 in zip(l1, l2)]
    k, m = next((k, m) for k in range(8) for m in range(8) if product[k][m])
    if any(g * product[k][m] != p * gram[k][m]
           for g_row, p_row in zip(gram, product) for g, p in zip(g_row, p_row)):
        return None
    return _line_key(l1), _line_key(l2)


def _pair_vectors(entries: Sequence[Vector]):
    """(first, second, relation, vector) for every entry pair: all differences
    in combinations order, then all sums."""
    positions = [(x // 8 + 1, x % 8 + 1) for x in range(64)]
    for relation, sign in (("difference", -1), ("sum", 1)):
        for x, y in combinations(range(64), 2):
            yield (positions[x], positions[y], relation,
                   tuple([a + sign * b for a, b in zip(entries[x], entries[y])]))


def improper_witnesses(left: Sequence[object]) -> WitnessReport:
    """Entry-difference witnesses showing a left tuple cannot give a proper M.

    Two layers:
      * identical-squares: entry pairs whose difference or sum is the zero
        polynomial, so the symbolic matrix itself is improper (this is what
        happens whenever two of the eight left coefficients vanish);
      * factor-of-A: when A splits as a constant times a product of two
        entry-pair forms, any Euler magic specialization kills one factor and
        hence collides two entry squares (the all +-1 left tuples).

    entries_distinct decides the first layer.  Otherwise A is factored once
    from its Gram matrix, and only when it splits are the 4,032 pair sums and
    differences of integer_forms keyed up to a scalar, to find the first pair
    on each of its two lines.  A square c * l^2 reports the same pair twice.
    """
    left = _require_numeric_left(left)
    forms = integer_forms(left)
    if not entries_distinct(left):
        return WitnessReport(left, tuple(
            Witness("identical-squares", pos1, pos2, relation, MultiPoly.zero(RIGHT_VARS))
            for pos1, pos2, relation, vec in _pair_vectors(forms.entries) if not any(vec)
        ), False, True)

    witnesses: Tuple[Witness, ...] = ()
    lines = _linear_factors(forms.gram_a)
    if lines is not None:
        first: Dict[Vector, Witness] = {}  # line key -> its first pair in scan order
        for pos1, pos2, relation, vec in _pair_vectors(forms.entries):
            key = _line_key(vec)
            if key in lines and key not in first:
                first[key] = Witness("factor-of-A", pos1, pos2, relation,
                                     _linear_poly(vec, forms.scale))
        if len(first) == len(set(lines)):
            witnesses = tuple(first.values())
            if len(witnesses) == 1:  # A = c * l^2
                witnesses *= 2
    return WitnessReport(left, witnesses, True, bool(witnesses))


# ----------------------------------------------------------------------
# the w1 restriction
# ----------------------------------------------------------------------

def w1_check(left: Sequence[object]) -> bool:
    """h = +-a != 0 and b^2+c^2+d^2+e^2+f^2+g^2 = 6 a^2."""
    # clearing denominators scales every value by one positive integer
    a, b, c, d, e, f, g, h = clear_denominators(_require_numeric_left(left))[1]
    if a == 0 or (h != a and h != -a):
        return False
    return b * b + c * c + d * d + e * e + f * f + g * g == 6 * a * a


def enumerate_w1(a_max: int) -> List[Tuple[int, ...]]:
    """All primitive integer tuples with 1 <= a <= a_max satisfying the
    degree-one restriction, in lexicographic order.

    Canonical form: a > 0 and gcd of all eight entries equal to 1; both signs
    of h and all sign/position variants of b..g appear as separate tuples.

    Meet in the middle: the triples (b, c, d) with b^2 + c^2 + d^2 <= 6a^2
    are listed in lexicographic order and indexed by their square sum; each
    is paired with the triples (e, f, g) of the complementary sum, which are
    in lexicographic order too, so the tuples come out sorted.
    """
    if a_max < 1:
        raise ValueError("a_max must be at least 1")
    out: List[Tuple[int, ...]] = []
    for a in range(1, a_max + 1):
        total = 6 * a * a
        triples: List[Tuple[int, Tuple[int, int, int]]] = []
        by_sum: Dict[int, List[Tuple[int, int, int]]] = {}
        root_b = isqrt(total)
        for b in range(-root_b, root_b + 1):
            root_c = isqrt(total - b * b)
            for c in range(-root_c, root_c + 1):
                root_d = isqrt(total - b * b - c * c)
                for d in range(-root_d, root_d + 1):
                    s = b * b + c * c + d * d
                    triples.append((s, (b, c, d)))
                    by_sum.setdefault(s, []).append((b, c, d))
        for s, first in triples:
            head = gcd(a, *first)
            for second in by_sum.get(total - s, ()):
                if head == 1 or gcd(head, *second) == 1:
                    out += [(a, *first, *second, -a), (a, *first, *second, a)]
    return out


# ----------------------------------------------------------------------
# elimination and the solve chain
# ----------------------------------------------------------------------

def eliminate_w(forms: DiagForms) -> Tuple[MultiPoly, MultiPoly, MultiPoly]:
    """F = yA - xB where x, y are the w-coefficients of A and B.

    Requires w-degree <= 1 in both forms; F is then a cubic in p..v.  When
    the fixed left tuple satisfies the degree-one restriction, the p^3
    coefficient of F vanishes, so F has p-degree <= 2 (asserted).
    """
    a_form, b_form = forms.A, forms.B
    if a_form.degree_in("w") > 1 or b_form.degree_in("w") > 1:
        raise ValueError("w-degree exceeds 1; elimination needs the degree-one restriction")
    x = a_form.coefficient_of("w", 1)
    y = b_form.coefficient_of("w", 1)
    f = y * a_form - x * b_form
    if f.degree_in("w") > 0:
        raise RuntimeError("internal error: elimination left a w term")
    if forms.fixed_left is not None and w1_check(forms.fixed_left) and f.degree_in("p") > 2:
        raise RuntimeError("internal error: p^3 coefficient did not vanish under the restriction")
    return f, x, y


_SOLVABLE = ("q", "r", "s", "t", "u", "v")


@dataclass(frozen=True)
class SolveChainResult:
    ok: bool
    failure_reason: Optional[str]
    left: Tuple[Fraction, ...]
    solved_for: Optional[str]
    right: Optional[Tuple[Fraction, ...]]
    matrix: Optional[Matrix]
    primitive: Optional[Matrix]
    report: Optional[VerifyReport]


def solve_chain(left: Sequence[object], free: Mapping[str, object]) -> SolveChainResult:
    """Extend four fixed values of {q,r,s,t,u,v} to an exact solution of A = B = 0.

    The chain solves the p^2 coefficient of F for q when a*g + b*h != 0
    (otherwise for v), then F for p, then A for w, and back-checks both forms
    exactly.  s defaults to 1 when not supplied.  Degenerate specializations
    are reported as failures with the step name; an improper result is a
    normal outcome, visible in the report.
    """
    left = _require_numeric_left(left)
    if not w1_check(left):
        raise ValueError("left tuple does not satisfy the degree-one restriction")
    pivots = {name: s1 * left[i] * left[j] + s2 * left[k] * left[l]
              for name, (i, j, s1), (k, l, s2) in _P2_PATTERN}
    solve_var = next((name for name in ("q", "v") if pivots[name] != 0), None)
    if solve_var is None:
        return SolveChainResult(
            ok=False,
            failure_reason="step 1: both q and v coefficients vanish (b = g = 0)",
            left=left, solved_for=None, right=None, matrix=None, primitive=None, report=None,
        )

    fixed: Dict[str, Fraction] = {}
    for name, value in free.items():
        if name not in _SOLVABLE:
            raise ValueError(f"cannot fix variable {name!r}; choose among {_SOLVABLE}")
        if name == solve_var:
            raise ValueError(f"variable {name!r} is the one the chain solves for")
        fixed[name] = Fraction(value)
    fixed.setdefault("s", Fraction(1))
    needed = [v for v in _SOLVABLE if v != solve_var]
    missing = [v for v in needed if v not in fixed]
    if missing:
        raise ValueError(f"missing fixed values for {missing}")

    forms = diag_forms(left)
    f_poly = eliminate_w(forms)[0]
    # each step substitutes the values known so far, which leaves a linear
    # polynomial in one variable: the p^2 coefficient of F (linear in the
    # solvable variables), then F (the p^2 term is gone), then A (linear in w)
    values = dict(fixed)
    steps = ((f_poly.coefficient_of("p", 2), solve_var), (f_poly, "p"), (forms.A, "w"))
    for step, (poly, var) in enumerate(steps, 1):
        for name, value in values.items():
            poly = poly.substitute(name, value)
        if poly.degree_in(var) > 1:
            raise RuntimeError(f"internal error: step {step} is not linear in {var}")
        lead = poly.coefficient_of(var, 1)
        if lead.is_zero():
            return SolveChainResult(
                ok=False, failure_reason=f"step {step}: {var}-coefficient zero",
                left=left, solved_for=solve_var, right=None, matrix=None, primitive=None,
                report=None,
            )
        values[var] = -Fraction(poly.coefficient_of(var, 0).constant_value(),
                                lead.constant_value())

    point = {name: values[name] for name in RIGHT_VARS}
    if forms.A.eval(point) != 0 or forms.B.eval(point) != 0:
        raise RuntimeError("internal error: back-check of A = B = 0 failed")

    right = tuple(values[name] for name in RIGHT_VARS)
    # a zero right tuple has no p-term in F and fails at step 2, so L * R != 0
    assert any(right), "solve chain reached a zero right tuple"
    matrix, primitive, report = verified_product(left, right)
    return SolveChainResult(
        ok=True, failure_reason=None, left=left, solved_for=solve_var,
        right=right, matrix=matrix, primitive=primitive, report=report,
    )


# ----------------------------------------------------------------------
# the four-parameter family
# ----------------------------------------------------------------------

_FAMILY_VARS = ("q", "r", "t", "u")


def family_x_poly() -> MultiPoly:
    """The denominator-control polynomial X of the four-parameter family."""
    q, r, t, u = MultiPoly.variables_of(_FAMILY_VARS)
    one = MultiPoly.constant(_FAMILY_VARS, 1)
    return (
        7 * q * q + 7 * r * r + 21 * q * t - 7 * r * t + 34 * t * t
        - 7 * q * u - 21 * t * u + 4 * u * u + 7 * q + 21 * r - 7 * u + 34 * one
    )


_family_x = cache(family_x_poly)  # built on the first family point, not at import


@dataclass(frozen=True)
class FamilyResult:
    q: Fraction
    r: Fraction
    t: Fraction
    u: Fraction
    x_value: Fraction
    right: Tuple[Fraction, ...]
    matrix: Matrix
    primitive: Matrix
    report: VerifyReport


def four_parameter_family(q, r, t, u) -> FamilyResult:
    """The proper family at left (2,1,1,4,2,1,1,-2), specialized at (q,r,t,u).

    right = (3(t^2-1)u / 2X, q, r, 1, t, u-q-3t-1, t-r-3, (u^2-X) / 2u).
    Requires u != 0.  X never vanishes: homogenised in (q, r, t, u, 1) it has
    a positive definite Gram matrix.  Every specialization is Euler magic,
    and the report says whether the point keeps properness.
    """
    q, r, t, u = (Fraction(v) for v in (q, r, t, u))
    x_value = _family_x().eval({"q": q, "r": r, "t": t, "u": u})
    assert x_value > 0, "X is positive definite"
    if u == 0:
        raise ValueError("degenerate parameter: u = 0")
    right = (
        Fraction(3 * (t * t - 1) * u, 2 * x_value),
        q,
        r,
        Fraction(1),
        t,
        u - q - 3 * t - 1,
        t - r - 3,
        Fraction(u * u - x_value, 2 * u),
    )
    matrix, primitive, report = verified_product(FAMILY_LEFT, right)
    return FamilyResult(
        q=q, r=r, t=t, u=u, x_value=x_value, right=right,
        matrix=matrix, primitive=primitive, report=report,
    )


def family_result_to_json_dict(result: FamilyResult) -> dict:
    return {
        "params": {
            "q": str(result.q),
            "r": str(result.r),
            "t": str(result.t),
            "u": str(result.u),
        },
        "X": str(result.x_value),
        "right": [str(v) for v in result.right],
        "matrix": [[str(x) for x in row] for row in result.primitive.entries],
        "report": report_to_json_dict(result.report),
    }


# ----------------------------------------------------------------------
# fast bulk verification of the elimination coefficients
# ----------------------------------------------------------------------

def _w1_residuals() -> List[MultiPoly]:
    """The 8 polynomials in a..h, over the context (a..h, p..w), that vanish
    exactly when the two elimination coefficient facts hold: the p^3
    coefficient of F, the w-part of its p^2 coefficient, and each q..v part of
    it plus 128 h^2 times its _P2_PATTERN form.  All come from the fully
    symbolic F."""
    forms = symbolic_diag_forms()
    x = forms.A.coefficient_of("w", 1)
    y = forms.B.coefficient_of("w", 1)
    f = y * forms.A - x * forms.B
    p2 = f.coefficient_of("p", 2)
    lv = MultiPoly.variables_of(BOTH_VARS)
    residuals = [f.coefficient_of("p", 3), p2.coefficient_of("w", 1)]
    for name, (i, j, s1), (k, l, s2) in _P2_PATTERN:
        residuals.append(p2.coefficient_of(name, 1)
                         + 128 * lv[7] * lv[7] * (s1 * lv[i] * lv[j] + s2 * lv[k] * lv[l]))
    return residuals


Term = Tuple[Vector, int]  # (exponents over a..h, integer coefficient)


def _horner(terms: Sequence[Term], shared: Dict[Tuple[Term, ...], str],
            lines: List[str]) -> str:
    """Python source for a nonempty sum of terms in greedy multivariate
    Horner form: the variable in the most terms is factored out of them once,
    and both parts recurse.

    Each part of two or more terms is divided by its content, the gcd of its
    coefficients with the sign of its first term in descending exponent
    order.  The primitive part is assigned once to a local _tN, appended to
    lines, and keyed in shared, so a later part with the same primitive part
    up to content reads the local instead of recomputing it.
    """
    counts = [sum(1 for exps, _ in terms if exps[k]) for k in range(8)]
    k = max(range(8), key=counts.__getitem__)
    if not counts[k]:  # only the constant term is left
        return str(terms[0][1])
    inner = [(exps[:k] + (exps[k] - 1,) + exps[k + 1:], c) for exps, c in terms if exps[k]]
    rest = [term for term in terms if not term[0][k]]
    source = f"{LEFT_VARS[k]}*({_shared_part(inner, shared, lines)})"
    return f"{source} + {_shared_part(rest, shared, lines)}" if rest else source


def _shared_part(terms: Sequence[Term], shared: Dict[Tuple[Term, ...], str],
                 lines: List[str]) -> str:
    """_horner of one term, or content times the local holding the
    primitive part of two or more."""
    if len(terms) == 1:
        return _horner(terms, shared, lines)
    terms = sorted(terms, reverse=True)
    content = gcd(*(c for _, c in terms)) * (1 if terms[0][1] > 0 else -1)
    key = tuple((exps, c // content) for exps, c in terms)
    name = shared.get(key)
    if name is None:
        body = _horner(key, shared, lines)
        name = shared[key] = f"_t{len(shared)}"
        lines.append(f"{name} = {body}")
    return name if content == 1 else f"{name}*({content})"


def w1_coefficient_checker():
    """Build a fast per-tuple checker for the two elimination coefficient facts.

    Returns check(left) -> bool testing, for an integer tuple satisfying the
    degree-one restriction, that the p^3 coefficient of F vanishes and that
    the p^2 coefficient equals -128 h^2 times the documented linear form:
    that each of the 8 residual polynomials of _w1_residuals vanishes.  Each
    call compiles them once to one straight-line function of integer Horner
    expressions, one per nonzero residual, in order.  A part shared by
    several residuals up to content is assigned to a local once, just before
    the first residual that uses it.  A residual is never simplified by the
    restriction, so it is evaluated in full whenever the ones before it
    vanish.  left must hold exactly 8 integers, taken through
    operator.index: a non-integer raises TypeError and a wrong count
    ValueError.
    """
    # the source holds only the residuals' integer coefficients and a..h
    lines = ["def check(left):", f"    {', '.join(LEFT_VARS)} = map(index, left)"]
    shared: Dict[Tuple[Term, ...], str] = {}
    for poly in _w1_residuals():
        terms = []
        for exps, coeff in poly.terms.items():
            if any(exps[8:]):
                raise RuntimeError("residual has right-block variables")
            if not isinstance(coeff, int):
                raise RuntimeError("expected integer coefficients")
            terms.append((exps[:8], coeff))
        if terms:
            hoisted: List[str] = []
            source = _horner(terms, shared, hoisted)
            lines += [f"    {line}" for line in hoisted]
            lines += [f"    if {source}:", "        return False"]
    lines.append("    return True")
    namespace = {"index": operator.index}
    exec("\n".join(lines), namespace)
    return namespace["check"]
