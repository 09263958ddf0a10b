"""Exact dense matrix algebra over rationals (and other exact ring elements).

Matrices are immutable and hold exact rationals: ints or fractions.Fraction.
The arithmetic (mat_mul, mat_add, ...) only needs + and *, so tests may also
multiply matrices of other exact ring elements.  Nothing here ever rounds.

The plain-text interchange format is one row per line with whitespace
separated entries written as "p/q" or "p"; the JSON form is
{"rows": n, "cols": n, "entries": [["p/q", ...], ...]}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import List, Sequence, Tuple

__all__ = [
    "Matrix",
    "SingularMatrixError",
    "identity",
    "mat_mul",
    "mat_add",
    "mat_sub",
    "mat_scale",
    "transpose",
    "determinant",
    "bareiss_adjugate",
    "mat_inverse",
    "rescale_primitive",
    "clear_denominators",
    "parse_matrix_text",
    "format_matrix_text",
    "matrix_to_json_dict",
    "matrix_from_json_dict",
    "parse_matrix_json",
]


class SingularMatrixError(ValueError):
    """Raised when inverting a singular matrix."""


@dataclass(frozen=True, eq=True)
class Matrix:
    """An immutable rows x cols matrix stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: Tuple[Tuple[object, ...], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entries do not match declared dimensions")
        object.__setattr__(self, "entries", tuple(tuple(r) for r in self.entries))

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

    def is_integer(self) -> bool:
        return all(
            isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1)
            for r in self.entries
            for e in r
        )

    def __str__(self) -> str:
        return format_matrix_text(self)


def identity(n: int) -> Matrix:
    return Matrix(n, n, tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    ))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    bt = list(zip(*b.entries))
    out = []
    for i in range(a.rows):
        arow = a.entries[i]
        row = []
        for j in range(b.cols):
            bcol = bt[j]
            acc = arow[0] * bcol[0]
            for k in range(1, a.cols):
                acc = acc + arow[k] * bcol[k]
            row.append(acc)
        out.append(tuple(row))
    return Matrix(a.rows, b.cols, tuple(out))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("dimension mismatch in addition")
    return Matrix(a.rows, a.cols, tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)
    ))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("dimension mismatch in subtraction")
    return Matrix(a.rows, a.cols, tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)
    ))


def mat_scale(c, a: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, tuple(tuple(c * x for x in r) for r in a.entries))


def transpose(a: Matrix) -> Matrix:
    return Matrix(a.cols, a.rows, tuple(zip(*a.entries)))


def clear_denominators(values: Sequence[object]) -> Tuple[int, List[int]]:
    """(den, ints): the lcm of the denominators of some rationals (ints or
    Fractions), and the rationals times it as integers."""
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
    rows = a.entries
    if {type(x) for r in rows for x in r} != {int}:
        _, ints = clear_denominators([x for r in rows for x in r])
        rows = [ints[i:i + a.cols] for i in range(0, len(ints), a.cols)]
    g = gcd(*(x for r in rows for x in r))
    if g == 0:
        raise ValueError("cannot rescale the zero matrix")
    return Matrix(a.rows, a.cols, tuple(tuple(x // g for x in r) for r in rows))


# ----------------------------------------------------------------------
# interchange formats
# ----------------------------------------------------------------------

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
            row = [Fraction(tok) for tok in stripped.split()]
        except (ValueError, ZeroDivisionError) as ex:
            raise ValueError(f"line {lineno}: cannot parse matrix entry ({ex})") from None
        rows.append(row)
    if not rows:
        raise ValueError("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows: every line must have the same number of entries")
    return Matrix.from_rows(rows)


def matrix_to_json_dict(a: Matrix) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[_format_entry(x) for x in r] for r in a.entries],
    }


def matrix_from_json_dict(d: dict) -> Matrix:
    try:
        rows = int(d["rows"])
        cols = int(d["cols"])
        entries = [[Fraction(s) for s in r] for r in d["entries"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as ex:
        raise ValueError(f"malformed matrix JSON ({ex})") from None
    m = Matrix.from_rows(entries)
    if (m.rows, m.cols) != (rows, cols):
        raise ValueError("matrix JSON dimensions disagree with entries")
    return m


def parse_matrix_json(text: str) -> Matrix:
    return matrix_from_json_dict(json.loads(text))
