"""Left and right octonion multiplication matrices.

Both 8x8 sign patterns are stored as explicit tables of (source index, sign)
pairs, one per entry, so they can be audited position by position.  The
builders are generic in the coefficient type: they only multiply each
coefficient by a sign.

For any coefficients, left_matrix(x) times its transpose equals
(sum of the eight squares) times the identity, and likewise for
right_matrix; hence M = L * R satisfies M * M^t = gamma * I with
gamma = gamma_product(left, right).

_entry_vectors reads the entries of M = L * R off both tables as integer vectors.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .matrices import Matrix

__all__ = [
    "LEFT_SIGN_TABLE",
    "RIGHT_SIGN_TABLE",
    "LEFT_VARS",
    "RIGHT_VARS",
    "left_matrix",
    "right_matrix",
    "gamma_product",
    "sum_of_squares",
]

LEFT_VARS: Tuple[str, ...] = ("a", "b", "c", "d", "e", "f", "g", "h")
RIGHT_VARS: Tuple[str, ...] = ("p", "q", "r", "s", "t", "u", "v", "w")

# entry [i][j] = (k, s) means: row i, column j holds s * coefficient_k
LEFT_SIGN_TABLE = (
    ((0, 1), (1, -1), (2, -1), (3, -1), (4, -1), (5, -1), (6, -1), (7, -1)),
    ((1, 1), (0, 1), (3, -1), (2, 1), (5, -1), (4, 1), (7, 1), (6, -1)),
    ((2, 1), (3, 1), (0, 1), (1, -1), (6, -1), (7, -1), (4, 1), (5, 1)),
    ((3, 1), (2, -1), (1, 1), (0, 1), (7, -1), (6, 1), (5, -1), (4, 1)),
    ((4, 1), (5, 1), (6, 1), (7, 1), (0, 1), (1, -1), (2, -1), (3, -1)),
    ((5, 1), (4, -1), (7, 1), (6, -1), (1, 1), (0, 1), (3, 1), (2, -1)),
    ((6, 1), (7, -1), (4, -1), (5, 1), (2, 1), (3, -1), (0, 1), (1, 1)),
    ((7, 1), (6, 1), (5, -1), (4, -1), (3, 1), (2, 1), (1, -1), (0, 1)),
)

RIGHT_SIGN_TABLE = (
    ((0, 1), (1, -1), (2, -1), (3, -1), (4, -1), (5, -1), (6, -1), (7, -1)),
    ((1, 1), (0, 1), (3, 1), (2, -1), (5, 1), (4, -1), (7, -1), (6, 1)),
    ((2, 1), (3, -1), (0, 1), (1, 1), (6, 1), (7, 1), (4, -1), (5, -1)),
    ((3, 1), (2, 1), (1, -1), (0, 1), (7, 1), (6, -1), (5, 1), (4, -1)),
    ((4, 1), (5, -1), (6, -1), (7, -1), (0, 1), (1, 1), (2, 1), (3, 1)),
    ((5, 1), (4, 1), (7, -1), (6, 1), (1, -1), (0, 1), (3, -1), (2, 1)),
    ((6, 1), (7, 1), (4, 1), (5, -1), (2, -1), (3, 1), (0, 1), (1, -1)),
    ((7, 1), (6, -1), (5, 1), (4, 1), (3, -1), (2, -1), (1, 1), (0, 1)),
)


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


def _check_params(x: Sequence[object]) -> Tuple[object, ...]:
    x = tuple(x)
    if len(x) != 8:
        raise ValueError(f"expected exactly 8 coefficients, got {len(x)}")
    return x


def _build(table, x: Sequence[object]) -> Matrix:
    x = _check_params(x)
    rows = []
    for trow in table:
        rows.append(tuple(x[k] * s for (k, s) in trow))
    return Matrix(8, 8, tuple(rows))


def left_matrix(x: Sequence[object]) -> Matrix:
    """The 8x8 left multiplication matrix of the coefficient tuple (a..h)."""
    return _build(LEFT_SIGN_TABLE, x)


def right_matrix(x: Sequence[object]) -> Matrix:
    """The 8x8 right multiplication matrix of the coefficient tuple (p..w)."""
    return _build(RIGHT_SIGN_TABLE, x)


def sum_of_squares(x: Sequence[object]):
    x = _check_params(x)
    acc = x[0] * x[0]
    for xi in x[1:]:
        acc = acc + xi * xi
    return acc


def gamma_product(left: Sequence[object], right: Sequence[object]):
    """gamma of M = L(left) * R(right): the product of the two square sums."""
    return sum_of_squares(left) * sum_of_squares(right)

