"""Checking a matrix for the Euler-magic conditions and properness.

A square matrix M is Euler magic when M * M^t = gamma * I for a nonzero
gamma and both the diagonal and the anti-diagonal squared-entry sums equal
gamma.  It is proper when all n^2 entry squares are pairwise distinct; the
entrywise squares of a proper Euler magic matrix form a magic square of
squares.

gamma is never supplied by the caller: _row_condition reads it off as the
squared norm of row 1 and decides M * M^t = gamma * I, for cayley's
inverse_cayley and ortho_reduce, and for verify, which has already checked
the entries, through _exact_row_condition.  Reports list duplicate entry
positions 1-based, with all colliding unordered pairs in row-major order.
verify returns the report as a record; cli renders its text and JSON forms.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from operator import mul
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .matrices import Matrix, exact_rationals

__all__ = [
    "MAX_DUPLICATE_PAIRS",
    "VerifyReport",
    "MagicSquareReport",
    "verify",
    "magic_square_of_squares",
]

Position = Tuple[int, int]  # 1-based (row, col)

# An n x n matrix with k entries of one square lists k(k-1)/2 pairs for it:
# 20.5 million for an 80 x 80 zero matrix, and 378,450 for perm 30
# (C(n^2 - n, 2) pairs of zeros plus C(n, 2) pairs of ones).
MAX_DUPLICATE_PAIRS = 500_000


class VerifyReport(NamedTuple):
    n: int
    gamma: object
    cond_orthogonal: bool
    cond_diagonal: bool
    cond_antidiagonal: bool
    is_euler_magic: bool
    is_proper: bool
    distinct_square_count: int
    duplicate_pairs: Tuple[Tuple[Position, Position], ...]
    squares_matrix: Matrix


class MagicSquareReport(NamedTuple):
    gamma: object
    squares: Matrix
    row_sums: Tuple[object, ...]
    col_sums: Tuple[object, ...]
    diagonal_sum: object
    antidiagonal_sum: object

    def all_sums_equal_gamma(self) -> bool:
        sums = (*self.row_sums, *self.col_sums, self.diagonal_sum, self.antidiagonal_sum)
        return all(s == self.gamma for s in sums)


def _squares_sum_to(gamma: object, diagonal: Sequence[object],
                    antidiagonal: Sequence[object]) -> Tuple[bool, bool]:
    """The two diagonal conditions: whether the squares of the diagonal
    entries, and of the anti-diagonal entries, each sum to gamma.  Entries of
    any nonzero multiple c * M of a matrix, with gamma * c^2, give the same
    flags."""
    return (sum(x * x for x in diagonal) == gamma,
            sum(x * x for x in antidiagonal) == gamma)


def _row_condition(rows: Sequence[Sequence[object]]) -> Tuple[object, bool]:
    """(gamma, holds) for M * M^t = gamma * I on the rows of a square M: gamma
    is the squared norm of row 1, and holds says that every row norm is gamma
    and that distinct rows are orthogonal.  Floats would decide it inexactly,
    so an entry that is not one of the exact_rationals is a TypeError."""
    exact_rationals(chain.from_iterable(rows), "matrix entries")
    return _exact_row_condition(rows, [tuple(map(mul, row, row)) for row in rows])


def _exact_row_condition(rows: Sequence[Sequence[object]],
                         squares: Sequence[Sequence[object]]) -> Tuple[object, bool]:
    """_row_condition on rows already checked to be exact_rationals, given
    the squares of their entries."""
    gamma = sum(squares[0])
    return gamma, all(sum(row) == gamma for row in squares) and all(
        sum(map(mul, u, v)) == 0 for u, v in combinations(rows, 2))


def verify(m: Matrix) -> VerifyReport:
    """Full Euler-magic and properness report for a square rational matrix.

    An entry that is not one of the exact_rationals is a TypeError, raised
    before any arithmetic.  A matrix with more than MAX_DUPLICATE_PAIRS pairs
    of equal entry squares is a ValueError, raised before any row check or
    pair listing."""
    if not m.is_square():
        raise ValueError(f"matrix must be square, got {m.rows}x{m.cols}")
    n = m.rows
    rows = m.entries
    exact_rationals(chain.from_iterable(rows), "matrix entries")
    squares = tuple(tuple(map(mul, row, row)) for row in rows)
    # Fraction(k) and k hash and compare equal, so int and Fraction squares share keys
    counts = Counter(chain.from_iterable(squares))
    distinct = len(counts)
    pairs: List[Tuple[Position, Position]] = []
    if distinct < n * n:  # index the positions of the repeated squares only
        count = sum(k * (k - 1) // 2 for k in counts.values())
        if count > MAX_DUPLICATE_PAIRS:
            raise ValueError(f"{count} pairs of equal entry squares; "
                             f"a report lists at most {MAX_DUPLICATE_PAIRS}")
        by_value: Dict[object, List[Position]] = {
            square: [] for square, k in counts.items() if k > 1}
        for i, row in enumerate(squares, 1):
            for j, square in enumerate(row, 1):
                if square in by_value:
                    by_value[square].append((i, j))
        pairs = sorted(pair for positions in by_value.values()
                       for pair in combinations(positions, 2))

    gamma, cond_orthogonal = _exact_row_condition(rows, squares)
    cond_diagonal, cond_antidiagonal = _squares_sum_to(
        gamma, [rows[i][i] for i in range(n)], [rows[i][n - 1 - i] for i in range(n)])
    is_euler_magic = cond_orthogonal and cond_diagonal and cond_antidiagonal and gamma != 0
    return VerifyReport(
        n=n,
        gamma=gamma,
        cond_orthogonal=cond_orthogonal,
        cond_diagonal=cond_diagonal,
        cond_antidiagonal=cond_antidiagonal,
        is_euler_magic=is_euler_magic,
        is_proper=distinct == n * n,
        distinct_square_count=distinct,
        duplicate_pairs=tuple(pairs),
        squares_matrix=Matrix(n, n, squares),
    )


def magic_square_of_squares(m: Matrix) -> MagicSquareReport:
    """Entrywise squares with all row/column/diagonal sums, which must equal gamma.

    Requires an Euler magic input; the precondition is checked and reported,
    never silently ignored.
    """
    report = verify(m)
    if not report.is_euler_magic:
        raise ValueError("matrix is not Euler magic; refusing to build the square of squares")
    n = m.rows
    sq = report.squares_matrix
    row_sums = tuple(sum(sq.row(i), Fraction(0)) for i in range(n))
    col_sums = tuple(sum((sq.entry(i, j) for i in range(n)), Fraction(0)) for j in range(n))
    diag = sum((sq.entry(i, i) for i in range(n)), Fraction(0))
    anti = sum((sq.entry(i, n - 1 - i) for i in range(n)), Fraction(0))
    return MagicSquareReport(
        gamma=report.gamma,
        squares=sq,
        row_sums=row_sums,
        col_sums=col_sums,
        diagonal_sum=diag,
        antidiagonal_sum=anti,
    )
