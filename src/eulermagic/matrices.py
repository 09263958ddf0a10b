"""Exact dense matrix algebra over rationals (and other exact ring elements).

Matrices are immutable and hold exact rationals: ints or fractions.Fraction.
The arithmetic (mat_mul, mat_add, ...) only needs + and *, so tests may also
multiply matrices of other exact ring elements.  Nothing here ever rounds.

The plain-text interchange format is one row per line with whitespace
separated entries written as "p/q" or "p", read entry by entry through
parse_rational, which also takes decimals such as "-.5" but no exponent
notation, and returns an int for every integer value.  It is the one format
this module reads and writes; the command's JSON forms are rendered in cli.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import index, mul
from typing import Iterable, List, Sequence, Tuple, Union

__all__ = [
    "Matrix",
    "SingularMatrixError",
    "identity",
    "mat_mul",
    "mat_add",
    "mat_scale",
    "transpose",
    "determinant",
    "bareiss_adjugate",
    "mat_inverse",
    "rescale_primitive",
    "clear_denominators",
    "exact_rationals",
    "parse_rational",
    "parse_matrix_text",
    "format_matrix_text",
]


class SingularMatrixError(ValueError):
    """Raised when inverting a singular matrix."""


class _SlotRecord:
    """Equality, hashing and a field-by-field repr over __slots__, for the
    classes that check their fields and so cannot be NamedTuples."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Matrix(_SlotRecord):
    """An immutable rows x cols matrix stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[object]]):
        rows, cols = index(rows), index(cols)  # a float or Fraction is a TypeError
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entries do not match declared dimensions")
        self.rows, self.cols = rows, cols
        self.entries = tuple(tuple(r) for r in entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[object]]) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        return Matrix(len(rows), len(rows[0]), tuple(tuple(r) for r in rows))

    def entry(self, i: int, j: int):
        """0-based entry access."""
        return self.entries[i][j]

    def row(self, i: int) -> Tuple[object, ...]:
        return self.entries[i]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __str__(self) -> str:
        return format_matrix_text(self)


def identity(n: int) -> Matrix:
    return Matrix(n, n, tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    ))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    # each entry starts from its first product, so the ring needs only + and *
    cols = [(col[0], col[1:]) for col in zip(*b.entries)]
    return Matrix(a.rows, b.cols, tuple(
        tuple([sum(map(mul, rest, col_rest), first * col_first) for col_first, col_rest in cols])
        for first, rest in ((row[0], row[1:]) for row in a.entries)))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("dimension mismatch in addition")
    return Matrix(a.rows, a.cols, tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)
    ))


def mat_scale(c, a: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, tuple(tuple(c * x for x in r) for r in a.entries))


def transpose(a: Matrix) -> Matrix:
    return Matrix(a.cols, a.rows, tuple(zip(*a.entries)))


def exact_rationals(values: Iterable[object], what: str = "values") -> tuple:
    """The values as a tuple, each checked to be an exact rational: an int or
    a Fraction.  Anything else is a TypeError: a float, Decimal or complex
    would decide an exact question inexactly, and a str is no number.  bool
    passes, as an int whose values are exactly 0 and 1."""
    values = tuple(values)
    if set(map(type, values)) <= {int, Fraction}:
        return values  # plain ints and Fractions: nothing to check one by one
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"{what} must be exact rationals (int or Fraction), "
                            f"got {type(x).__name__} {x!r}")
    return values


def clear_denominators(values: Iterable[object], what: str = "values") -> Tuple[int, List[int]]:
    """(den, ints): the lcm of the denominators and the values times it; a
    value that is not one of the exact_rationals is a TypeError naming what."""
    values = list(values)
    types = set(map(type, values))
    if types <= {int}:
        return 1, values  # plain ints: nothing to check, den 1
    if not types <= {int, Fraction}:  # exact_rationals passes bools and subclasses
        values = exact_rationals(values, what)
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _bareiss_forward(rows: List[List[int]], n: int) -> Tuple[List[List[int]], int, bool]:
    """Fraction-free forward elimination on the first n columns.

    Mutates and returns rows (which may be wider than n, e.g. augmented) in
    upper-triangular form with integer entries, plus the sign picked up from
    row swaps and a singularity flag.  Divisions by the previous pivot are
    exact by the Bareiss one-step identity; on a singular input we stop at the
    first zero pivot column, since the identity only holds with nonzero pivots.
    """
    sign = 1
    prev = 1
    width = len(rows[0])
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot_row is None:
            return rows, sign, True
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            ri = rows[i]
            rk = rows[k]
            for j in range(width):
                ri[j] = (ri[j] * pk - rik * rk[j]) // prev
        prev = pk
    return rows, sign, False


def determinant(a: Matrix):
    """Exact determinant via fraction-free elimination."""
    if not a.is_square():
        raise ValueError("determinant needs a square matrix")
    n = a.rows
    multipliers, int_rows = zip(*map(clear_denominators, a.entries))
    rows, sign, singular = _bareiss_forward(list(int_rows), n)
    if singular:
        return 0
    det_int = sign * rows[n - 1][n - 1]
    value = Fraction(det_int, prod(multipliers))
    return int(value) if value.denominator == 1 else value


def bareiss_adjugate(int_rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """(adj A, det A) of a square integer matrix, with A * adj A = det A * I.

    Bareiss elimination turns [A | I] into [U | C] with U[n-1][n-1] = +-det A;
    the back-substitution then solves U * adj A = det A * C.  Its divisions by
    U[i][i] are exact because adj A is integral.
    """
    n = len(int_rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(int_rows)]
    rows, sign, singular = _bareiss_forward(aug, n)
    if singular:
        raise SingularMatrixError("matrix is singular")
    det = sign * rows[n - 1][n - 1]
    adj = [[0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        ri = rows[i]
        for c in range(n):
            acc = det * ri[n + c]
            for j in range(i + 1, n):
                acc -= ri[j] * adj[j][c]
            adj[i][c] = acc // ri[i]
    return adj, det


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse adj(A) / det(A) by fraction-free elimination."""
    if not a.is_square():
        raise ValueError("inverse needs a square matrix")
    n = a.rows
    multipliers, int_rows = zip(*map(clear_denominators, a.entries))
    adj, det = bareiss_adjugate(int_rows)
    # undo the row scaling: A was diag(1/m_i) * A_int, so A^-1 = A_int^-1 * diag(m_i)
    return Matrix(n, n, tuple(
        tuple(Fraction(adj[r][c] * multipliers[c], det) for c in range(n)) for r in range(n)
    ))


def rescale_primitive(a: Matrix) -> Matrix:
    """The positive rescaling of a rational matrix to integer entries with gcd 1."""
    _, ints = clear_denominators(chain.from_iterable(a.entries))
    g = gcd(*ints)
    if g == 0:
        raise ValueError("cannot rescale the zero matrix")
    if g != 1:
        ints = [x // g for x in ints]
    return Matrix(a.rows, a.cols, [ints[i:i + a.cols] for i in range(0, len(ints), a.cols)])


# ----------------------------------------------------------------------
# interchange formats
# ----------------------------------------------------------------------

# an optional sign, then an integer, a fraction p/q or a decimal such as .5
_UNSIGNED_RATIONAL = r"\d+(?:/\d+)?|\d*\.\d+"
_RATIONAL = re.compile(rf"[+-]?(?:{_UNSIGNED_RATIONAL})")
_DIGIT_RUN = re.compile(r"\d+")
# CPython's default int <-> str limit; cli.main lifts that limit, not this cap
_MAX_DIGITS = 4300


def parse_rational(text: str) -> Union[int, Fraction]:
    """The rational written as text: an int when its value is an integer, as
    for "-007", "14/2" or "3.0", and a Fraction otherwise, as for "1/2" or
    "-.5", so integral matrices and command-line values stay in int
    arithmetic.  Anything else, exponent notation included, is a ValueError
    before Fraction sees it: Fraction("1e100000000") would build
    10^100000000.  So is a run of more than _MAX_DIGITS digits, whose
    conversion takes time quadratic in its length.  So is a zero
    denominator."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational number: {text!r}")
    if max(map(len, _DIGIT_RUN.findall(text))) > _MAX_DIGITS:
        raise ValueError(f"a number with more than {_MAX_DIGITS} digits")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
    return value.numerator if value.denominator == 1 else value


def _format_entry(x) -> str:
    return str(Fraction(x))


def format_matrix_text(a: Matrix) -> str:
    widths = [0] * a.cols
    cells = [[_format_entry(x) for x in r] for r in a.entries]
    for r in cells:
        for j, s in enumerate(r):
            widths[j] = max(widths[j], len(s))
    lines = [" ".join(s.rjust(widths[j]) for j, s in enumerate(r)) for r in cells]
    return "\n".join(lines)


def parse_matrix_text(text: str) -> Matrix:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = [parse_rational(tok) for tok in stripped.split()]
        except ValueError as ex:
            raise ValueError(f"line {lineno}: cannot parse matrix entry ({ex})") from None
        rows.append(row)
    if not rows:
        raise ValueError("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows: every line must have the same number of entries")
    return Matrix.from_rows(rows)
