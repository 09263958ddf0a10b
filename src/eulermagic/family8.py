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
matrices; properness is reported, never assumed.  The witness scan returns
its witnesses, none when it finds no obstruction, and the family returns X,
the right tuple and the verified matrix, not the parameters it was given.

The 16-variable forms and the proof that the coefficients of F factor are
in certificates; the chain and the w1 checker evaluate the factors.  Here
every form is integer: a vector over p..w, a Gram matrix or a term Table.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, isqrt
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .certificates import _pivot_forms, _w1_factors, w1_factorisation_line
from .matrices import Matrix, clear_denominators, exact_rationals, mat_mul, rescale_primitive
from .octonion import _check_params, _entry_vectors, left_matrix, right_matrix, sum_of_squares
from .verify import VerifyReport, verify

__all__ = [
    "IntegerForms",
    "integer_forms",
    "entries_distinct",
    "verified_product",
    "Witness",
    "diag_forms",
    "improper_witnesses",
    "w1_check",
    "enumerate_w1",
    "eliminate_w",
    "SolveChainResult",
    "solve_chain",
    "FAMILY_LEFT",
    "FamilyResult",
    "four_parameter_family",
    "w1_coefficient_checker",
]

FAMILY_LEFT: Tuple[int, ...] = (2, 1, 1, 4, 2, 1, 1, -2)

def diag_forms(left: Sequence[object]) -> Tuple[Table, Table]:
    """The term tables of A and B over (p..w) for a fixed numeric left tuple:
    _specialised_terms with all of p..w free, which is A and B times scale^2,
    so exactly A and B for an integer tuple."""
    return _specialised_terms(integer_forms(left), (None,) * 8)


# ----------------------------------------------------------------------
# integer linear forms
# ----------------------------------------------------------------------

Vector = Tuple[int, ...]
Table = Tuple[Vector, ...]  # terms (*exponents, c), each c times its monomial


def _sign_key(vec: Sequence[int]) -> Vector:
    """An integer vector up to sign: signed so that its first nonzero entry
    is positive."""
    if next((x for x in vec if x), 0) < 0:
        return tuple(-x for x in vec)
    return tuple(vec)


class IntegerForms(NamedTuple):
    """M = L(left) * R(p..w) for a numeric left tuple, over the integers.

    scale is the least common denominator of the left tuple, left its checked
    form: the tuple times scale, as ints.  entries[8*i + j] holds the 8 integer
    coefficients over (p..w) of scale * m(i+1, j+1), and scale^2 * A =
    x^T gram_a x, scale^2 * B = x^T gram_b x for x = (p..w).
    """

    scale: int
    left: Vector
    entries: Tuple[Vector, ...]
    gram_a: Tuple[Vector, ...]
    gram_b: Tuple[Vector, ...]


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
    vectors = _entry_vectors(clear_denominators(prefix[:8], "left coefficients")[1],
                             clear_denominators(prefix[8:], "right coefficients")[1])
    return len({_sign_key(vec) for vec in vectors}) == 64


def integer_forms(left: Sequence[object]) -> IntegerForms:
    """The entries of M as integer vectors and A, B as integer Gram matrices,
    built straight from the two sign tables; the one check and scaling of a
    left tuple (a wrong count is a ValueError, an inexact value a TypeError)."""
    scale, ileft = clear_denominators(_check_params(left), "left coefficients")
    # with all of a..h fixed, slot 0 (the constant) is zero and slots 1..8 are p..w
    entries = [tuple(vec[1:]) for vec in _entry_vectors(ileft, ())]

    def squares(vectors):  # Gram matrix of the sum of (v.x)^2
        return [[sum(v[k] * v[l] for v in vectors) for l in range(8)] for k in range(8)]

    diag, anti = squares(entries[::9]), squares(entries[7:57:7])
    gamma = sum_of_squares(ileft)
    gram_a = tuple(tuple(d - a for d, a in zip(*rows)) for rows in zip(diag, anti))
    gram_b = tuple(tuple(d + a - 2 * gamma * (k == l) for l, (d, a) in enumerate(zip(*rows)))
                   for k, rows in enumerate(zip(diag, anti)))
    return IntegerForms(scale, tuple(ileft), tuple(entries), gram_a, gram_b)


def _specialised_terms(forms: IntegerForms, right: Sequence[object]) -> Tuple[Table, Table]:
    """A and B with some of p..w fixed, times a positive constant, as integer
    terms (*exponents of the free variables, c) meaning c times that monomial.

    right holds the 8 values of p..w: a rational for each fixed one and None
    for each free one.  Clearing the fixed values' denominators by their lcm
    den evaluates x^T G x at den * (p..w), which is A and B times
    (scale * den)^2.  With no variable free, a form that vanishes has no term.
    """
    free = [k for k, x in enumerate(right) if x is None]
    den, ifixed = clear_denominators([x for x in right if x is not None])
    fixed = iter(ifixed)
    # den * (p..w): (integer coefficient, exponents of the free variables)
    coords = [(den, tuple(int(k == m) for m in free)) if x is None
              else (next(fixed), (0,) * len(free)) for k, x in enumerate(right)]
    tables = []
    for gram in (forms.gram_a, forms.gram_b):
        terms: Dict[Vector, int] = {}
        for row, (ck, ek) in zip(gram, coords):
            for g, (cm, em) in zip(row, coords):
                exps = tuple(map(operator.add, ek, em))
                terms[exps] = terms.get(exps, 0) + g * ck * cm
        tables.append(tuple((*exps, c) for exps, c in terms.items() if c))
    return tuple(tables)


def verified_product(left: Sequence[object],
                     right: Sequence[object]) -> Tuple[Matrix, VerifyReport]:
    """(primitive, report) for M = L(left) * R(right) with rational tuples.

    Each side's denominators are cleared by their lcm, so the integer product
    is a positive multiple of M with the same rescale_primitive; report is
    verify on that.  No Fraction is built.
    """
    product = mat_mul(left_matrix(clear_denominators(left, "left coefficients")[1]),
                      right_matrix(clear_denominators(right, "right coefficients")[1]))
    primitive = rescale_primitive(product)
    return primitive, verify(primitive)


# ----------------------------------------------------------------------
# properness witnesses
# ----------------------------------------------------------------------

Position = Tuple[int, int]  # 1-based


class Witness(NamedTuple):
    """Two entries whose difference or sum (relation) is form: scale times
    its coefficients over (p..w), as ints, all 0 for identical-squares."""

    kind: str  # "identical-squares" or "factor-of-A"
    first: Position
    second: Position
    relation: str  # "difference" or "sum"
    form: Vector


def _line_key(vec: Sequence[int]) -> Vector:
    """A nonzero integer vector up to a rational scalar: divided by the gcd of
    its entries, then _sign_key."""
    g = gcd(*vec)
    return _sign_key([x // g for x in vec])


def _linear_factors(gram: Sequence[Vector]) -> Optional[Tuple[Vector, Vector]]:
    """The line keys of l1 != l2 when x^T G x = c * l1(x) * l2(x) over Q, else None.

    Such a G is proportional to l1 l2^T + l2 l1^T, so some principal 2x2
    minor det P on rows i, j is nonzero, and then
    det P * x^T G x = a*y1^2 + 2b*y1*y2 + c*y2^2 with y1 = G_i.x, y2 = G_j.x,
    (a, b, c) = (G_jj, -G_ij, G_ii); that binary form splits over Q exactly
    when -det P is a nonzero square s^2.  The candidate lines are kept only
    if G is proportional to their product.  A square c * l^2 has no nonzero
    minor and is not reported (see improper_witnesses).
    """
    minors = [(i, j) for i in range(8) for j in range(i + 1, 8)
              if gram[i][i] * gram[j][j] != gram[i][j] ** 2]
    if not minors:
        return None
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


def improper_witnesses(left: Sequence[object]) -> Tuple[Witness, ...]:
    """Entry-difference witnesses showing a left tuple cannot give a proper M;
    none when the scan finds no obstruction.

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
    on each of its two lines.  A is never a nonzero square c * l^2: each
    entry is a signed permutation of the left tuple over p..w, so the Gram
    matrix of A has trace 8|left|^2 - 8|left|^2 = 0.
    """
    forms = integer_forms(left)
    if not entries_distinct(forms.left):
        return tuple(
            Witness("identical-squares", pos1, pos2, relation, vec)
            for pos1, pos2, relation, vec in _pair_vectors(forms.entries) if not any(vec))

    lines = _linear_factors(forms.gram_a)
    if lines is None:
        return ()
    first: Dict[Vector, Witness] = {}  # line key -> its first pair in scan order
    for pos1, pos2, relation, vec in _pair_vectors(forms.entries):
        key = _line_key(vec)
        if key in lines and key not in first:
            first[key] = Witness("factor-of-A", pos1, pos2, relation, vec)
    return tuple(first.values()) if len(first) == 2 else ()


# ----------------------------------------------------------------------
# the w1 restriction
# ----------------------------------------------------------------------

def w1_check(left: Sequence[object]) -> bool:
    """h = +-a != 0 and b^2+c^2+d^2+e^2+f^2+g^2 = 6 a^2."""
    # clearing denominators scales every value by one positive integer; only
    # the integers are needed, so no Fraction is built
    a, b, c, d, e, f, g, h = clear_denominators(_check_params(left), "left coefficients")[1]
    if a == 0 or (h != a and h != -a):
        return False
    return b * b + c * c + d * d + e * e + f * f + g * g == 6 * a * a


class _W1Tuples:
    """The tuples of enumerate_w1: sized, and iterable again and again.

    Each block is a prefix (a, b, c, d) with its tails (e, f, g, h), already
    filtered to gcd 1; an 8-tuple is built only when the iteration reaches it.
    """

    def __init__(self, blocks):
        self._blocks = blocks
        self._len = sum(len(tails) for _, tails in blocks)

    def __len__(self):
        return self._len

    def __iter__(self):
        # no generator frame is resumed per tuple, only once per block
        return chain.from_iterable(map(prefix.__add__, tails) for prefix, tails in self._blocks)


def enumerate_w1(a_max: int) -> _W1Tuples:
    """All primitive integer tuples with 1 <= a <= a_max satisfying the
    degree-one restriction, in lexicographic order.

    Canonical form: a > 0 and gcd of all eight entries equal to 1; both signs
    of h and all sign/position variants of b..g appear as separate tuples.

    Meet in the middle: the triples (b, c, d) with b^2 + c^2 + d^2 <= 6a^2
    are listed in lexicographic order and indexed by their square sum; each
    is paired with the triples (e, f, g) of the complementary sum, which are
    in lexicographic order too, so the tuples come out sorted.

    The result is sized and re-iterable, not a list: it keeps one block per
    (b, c, d) triple and builds each 8-tuple as the iteration reaches it, so
    its memory grows with the number of triples, not of tuples.  Call list()
    on it for random access.
    """
    a_max = operator.index(a_max)  # a float, Fraction or Decimal is a TypeError
    if a_max < 1:
        raise ValueError("a_max must be at least 1")
    blocks: List[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]] = []
    for a in range(1, a_max + 1):
        total = 6 * a * a
        triples: List[Tuple[int, Tuple[int, int, int]]] = []
        # square sum -> the tails (e, f, g, -a), (e, f, g, a) in order
        tails: Dict[int, List[Tuple[int, ...]]] = {}
        root_b = isqrt(total)
        for b in range(-root_b, root_b + 1):
            root_c = isqrt(total - b * b)
            for c in range(-root_c, root_c + 1):
                root_d = isqrt(total - b * b - c * c)
                for d in range(-root_d, root_d + 1):
                    s = b * b + c * c + d * d
                    triples.append((s, (b, c, d)))
                    tails.setdefault(s, []).extend(((b, c, d, -a), (b, c, d, a)))
        for s, first in triples:
            second = tails.get(total - s)
            head = gcd(a, *first)
            if second and head != 1:
                # head divides a, so gcd(head, *tail) is the gcd of all eight
                second = [tail for tail in second if gcd(head, *tail) == 1]
            if second:
                blocks.append(((a, *first), second))
    return _W1Tuples(blocks)


# ----------------------------------------------------------------------
# elimination and the solve chain
# ----------------------------------------------------------------------

def eliminate_w(tables: Sequence[Table]) -> Tuple[Table, Table, Table]:
    """(F, x, y) for F = yA - xB, x and y the w-coefficients of A and B, from
    tables = (A, B), whose last exponent is w's; all three keep that arity.

    Requires w-degree <= 1 in both forms, so F has no w-term; F is then a
    cubic with p-degree (the first exponent) <= 2 (asserted).  The w^2
    coefficients of A and B are 8(h^2 - a^2) and 6a^2 + 6h^2 - 2(b^2 + ... + g^2),
    so passing forms come from the restriction, where the p^3 coefficient
    vanishes, or from left = 0, where F = 0.
    """
    if any(term[-2] > 1 for table in tables for term in table):
        raise ValueError("w-degree exceeds 1; elimination needs the degree-one restriction")
    # each form's w^0 and w^1 parts: exponents without w -> c
    (a0, x), (b0, y) = ([{term[:-2]: term[-1] for term in table if term[-2] == k} for k in (0, 1)]
                        for table in tables)
    f: Dict[Vector, int] = {}
    for coeff, form, sign in ((y, a0, 1), (x, b0, -1)):  # the w-terms cancel
        for e1, c1 in coeff.items():
            for e2, c2 in form.items():
                exps = tuple(map(operator.add, e1, e2))
                f[exps] = f.get(exps, 0) + sign * c1 * c2
    if any(c and exps[0] > 2 for exps, c in f.items()):
        raise RuntimeError("internal error: p^3 coefficient did not vanish under the restriction")
    return tuple(tuple((*exps, 0, c) for exps, c in part.items() if c) for part in (f, x, y))


_SOLVABLE = ("q", "r", "s", "t", "u", "v")


class SolveChainResult(NamedTuple):
    ok: bool
    failure_reason: Optional[str] = None
    solved_for: Optional[str] = None
    right: Optional[Tuple[Fraction, ...]] = None
    primitive: Optional[Matrix] = None
    report: Optional[VerifyReport] = None


def solve_chain(left: Sequence[object], free: Mapping[str, object]) -> SolveChainResult:
    """Extend four fixed values of {q,r,s,t,u,v} to an exact solution of A = B = 0.

    The chain solves the p^2 coefficient of F for q when a*g + b*h != 0
    (otherwise for v), then F for p, then A for w, and back-checks both forms
    exactly.  s defaults to 1 when not supplied.  Degenerate specializations
    are reported as failures with the step name; an improper result is a
    normal outcome, visible in the report.

    Each q..v part of the p^2 coefficient of F is (16 (N - 8a^2) - 128 h^2)
    times its _P2_PATTERN pivot, N = a^2 + ... + h^2, an identity
    certificates.w1_factorisation_line proves; N = 8a^2 under the restriction, so step 1 reads the
    pivots.  Step 2 reads p off eliminate_w of _specialised_terms of
    integer_forms(left) with p and w free, and step 3 reads w off A with only
    w free; every step reads its checked ints, forms.left, as the restriction,
    the pivot ratio and the primitive matrix are unchanged by scaling.
    """
    forms = integer_forms(left)
    values = dict(zip(free, map(Fraction, exact_rationals(free.values(), "free values"))))
    if not w1_check(forms.left):
        raise ValueError("left tuple does not satisfy the degree-one restriction")
    pivots = _pivot_forms(forms.left)
    solve_var = next((name for name in ("q", "v") if pivots[name] != 0), None)

    def failure(reason: str) -> SolveChainResult:
        return SolveChainResult(ok=False, failure_reason=reason, solved_for=solve_var)

    if solve_var is None:
        return failure("step 1: both q and v coefficients vanish (b = g = 0)")

    for name in values:
        if name not in _SOLVABLE:
            raise ValueError(f"cannot fix variable {name!r}; choose among {_SOLVABLE}")
        if name == solve_var:
            raise ValueError(f"variable {name!r} is the one the chain solves for")
    values.setdefault("s", Fraction(1))
    missing = [v for v in _SOLVABLE if v != solve_var and v not in values]
    if missing:
        raise ValueError(f"missing fixed values for {missing}")

    values[solve_var] = -sum(pivots[name] * values[name] for name in _SOLVABLE
                             if name != solve_var) / pivots[solve_var]
    fixed = tuple(values[name] for name in _SOLVABLE)
    f = [0] * 3  # F = f0 + f1 p + f2 p^2, over the terms (p, 0, c)
    for i, _, c in eliminate_w(_specialised_terms(forms, (None, *fixed, None)))[0]:
        f[i] = c
    if f[2]:
        raise RuntimeError("internal error: step 2 is not linear in p")
    if f[1] == 0:
        return failure("step 2: p-coefficient zero")
    p = Fraction(-f[0], f[1])
    a = dict(_specialised_terms(forms, (p, *fixed, None))[0])  # A = a0 + a1 w
    if not a.get(1):
        return failure("step 3: w-coefficient zero")
    right = (p, *fixed, Fraction(-a.get(0, 0), a[1]))
    if any(_specialised_terms(forms, right)):
        raise RuntimeError("internal error: back-check of A = B = 0 failed")

    # a zero right tuple has no p-term in F and fails at step 2, so L * R != 0
    assert any(right), "solve chain reached a zero right tuple"
    primitive, report = verified_product(forms.left, right)
    return SolveChainResult(ok=True, solved_for=solve_var, right=right,
                            primitive=primitive, report=report)


# ----------------------------------------------------------------------
# the four-parameter family
# ----------------------------------------------------------------------

def _family_x(q, r, t, u, e=1):
    """The four-parameter family's denominator-control polynomial X,
    homogenised by e, in any ring with +, - and * that the integers act on:
    ints, Fractions or MultiPolys.  _family_x(q*e, r*e, t*e, u*e, e) is
    e^2 * _family_x(q, r, t, u)."""
    return (7 * q * q + 7 * r * r + 21 * q * t - 7 * r * t + 34 * t * t
            - 7 * q * u - 21 * t * u + 4 * u * u + (7 * q + 21 * r - 7 * u + 34 * e) * e)


class FamilyResult(NamedTuple):
    x_value: Fraction
    right: Tuple[Fraction, ...]
    primitive: Matrix
    report: VerifyReport


def four_parameter_family(q, r, t, u) -> FamilyResult:
    """The proper family at left (2,1,1,4,2,1,1,-2), specialized at (q,r,t,u).

    right = (3(t^2-1)u / 2X, q, r, 1, t, u-q-3t-1, t-r-3, (u^2-X) / 2u).
    Requires u != 0.  X never vanishes: homogenised in (q, r, t, u, 1) it has
    a positive definite Gram matrix.  Every specialization is Euler magic,
    and the report says whether the point keeps properness.
    """
    # (q, r, t, u) = (iq, ir, it, iu) / e, so X = _family_x(iq, ir, it, iu, e) / e^2
    e, (iq, ir, it, iu) = clear_denominators((q, r, t, u), "family parameters")
    x_scaled = _family_x(iq, ir, it, iu, e)
    assert x_scaled > 0, "X is positive definite"
    if iu == 0:
        raise ValueError("degenerate parameter: u = 0")
    x_value = Fraction(x_scaled, e * e)
    right = (
        Fraction(3 * (it * it - e * e) * iu, 2 * e * x_scaled),
        Fraction(iq, e),
        Fraction(ir, e),
        Fraction(1),
        Fraction(it, e),
        Fraction(iu - iq - 3 * it - e, e),
        Fraction(it - ir - 3 * e, e),
        Fraction(iu * iu - x_scaled, 2 * iu * e),
    )
    primitive, report = verified_product(FAMILY_LEFT, right)
    return FamilyResult(x_value=x_value, right=right, primitive=primitive, report=report)


# ----------------------------------------------------------------------
# fast bulk verification of the elimination coefficients
# ----------------------------------------------------------------------

def w1_coefficient_checker():
    """Build a fast per-tuple checker for the two elimination coefficient facts.

    Returns check(left) -> bool testing, for an integer tuple satisfying the
    degree-one restriction, that the p^3 coefficient of F vanishes and that
    the p^2 coefficient equals -128 h^2 times the documented linear form:
    that each of the 8 residual polynomials of _w1_residuals vanishes.  Each
    call proves certificates.w1_factorisation_line, the residuals against
    their factorisations (a RuntimeError unless it passes); check then evaluates
    the factors of _w1_factors and _pivot_forms, so it gives the same answer
    as the residuals on every integer tuple, restricted or not.  left must
    hold exactly 8 integers: a wrong count raises
    ValueError, and values that are not all plain ints go through
    operator.index, so a non-integer raises TypeError.
    """
    if w1_factorisation_line().status != "PASS":
        raise RuntimeError("internal error: a w1 residual differs from its factorisation")
    index = operator.index

    def check(left) -> bool:
        # unpacking refuses a wrong count, and the rare pivot branch reuses
        # these ints, so left may be an iterator
        a, b, c, d, e, f, g, h = left
        if not (int is type(a) is type(b) is type(c) is type(d) is type(e) is type(f)
                is type(g) is type(h)):
            a, b, c, d, e, f, g, h = map(index, (a, b, c, d, e, f, g, h))
        cubic, gap = _w1_factors(a, b, c, d, e, f, g, h)
        return not cubic and (not gap or not any(
            _pivot_forms((a, b, c, d, e, f, g, h)).values()))

    return check
