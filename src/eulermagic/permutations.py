"""Permutation-matrix constructions of (improper) Euler magic matrices.

A permutation matrix always satisfies M * M^t = I, so gamma = 1 and the two
diagonal conditions ask that exactly one diagonal entry and exactly one
anti-diagonal entry equal 1.  Choosing the permutation by the parity of n
achieves this for every n >= 4; these matrices are maximally improper (their
entry squares take only the values 0 and 1).  For n = 2 the Euler magic
matrices form a one-parameter family of four sign patterns, included here for
completeness.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Tuple

from .matrices import Matrix, _SlotRecord, exact_rationals

__all__ = [
    "MAX_PERM_SIZE",
    "Permutation",
    "perm_matrix",
    "construction_permutation",
    "two_by_two_family",
]


# The construction's matrix is dense, and its verify report lists every pair of
# equal entry squares: about n^4 / 2 pairs for a permutation matrix (378,450 at
# n = 30, 7.9 MB of `eulermagic perm` output), so larger sizes are refused.
MAX_PERM_SIZE = 30


class Permutation(_SlotRecord):
    """A permutation of {1, ..., n} stored as images[i-1] = sigma(i)."""

    __slots__ = ("images",)

    def __init__(self, images: Tuple[int, ...]):
        # operator.index refuses a float or Fraction image: images are integers
        images = tuple(map(operator.index, images))
        n = len(images)
        if n == 0:
            raise ValueError("permutation must act on a nonempty set")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {images}")
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"argument {i} outside 1..{self.n}")
        return self.images[i - 1]


def perm_matrix(sigma: Permutation) -> Matrix:
    """The 0/1 matrix with m[i][j] = 1 exactly when j = sigma(i) (1-based)."""
    if not isinstance(sigma, Permutation):
        sigma = Permutation(sigma)
    n = sigma.n
    rows = [[1 if sigma(i) == j else 0 for j in range(1, n + 1)] for i in range(1, n + 1)]
    return Matrix.from_rows(rows)


def construction_permutation(n: int) -> Permutation:
    """The parity-cased permutation behind the improper construction.

    Even n:        (1 2 ... n-1)(n)
    Odd n = 2k-1:  (1 2 ... k-1)(k)(k+1 k+2 ... n)

    Both cases put the unique fixed diagonal 1 and the unique anti-diagonal 1
    where the two squared-entry sums each come out to gamma = 1.
    """
    if n <= 3:
        raise ValueError("construction requires n >= 4 (n = 3 would degenerate to the identity)")
    if n > MAX_PERM_SIZE:
        raise ValueError(f"construction supports n <= {MAX_PERM_SIZE}, got {n}")
    images = list(range(2, n + 2))  # provisional i -> i+1
    if n % 2 == 0:
        images[n - 2] = 1  # close the (n-1)-cycle
        images[n - 1] = n  # fixed point n
    else:
        k = (n + 1) // 2
        images[k - 2] = 1  # close the (k-1)-cycle
        images[k - 1] = k  # fixed point k
        images[n - 1] = k + 1  # close the cycle on k+1..n
    return Permutation(tuple(images))


_TWO_BY_TWO_SIGNS = {
    1: ((1, 1), (1, -1)),
    2: ((1, 1), (-1, 1)),
    3: ((1, -1), (1, 1)),
    4: ((-1, 1), (1, 1)),
}


def two_by_two_family(a, variant: int = 1) -> Matrix:
    """The four sign patterns of 2x2 Euler magic matrices, scaled by a != 0.

    All entries are +-a, so gamma = 2a^2 and every one of them is improper
    with a single distinct entry square.  variant is taken through
    operator.index: a float, Fraction or Decimal is a TypeError, and True
    is variant 1.
    """
    a = Fraction(*exact_rationals((a,), "the scale a"))
    if a == 0:
        raise ValueError("a must be nonzero")
    variant = operator.index(variant)
    if variant not in _TWO_BY_TWO_SIGNS:
        raise ValueError("variant must be 1, 2, 3, or 4")
    signs = _TWO_BY_TWO_SIGNS[variant]
    return Matrix.from_rows([[a * s for s in row] for row in signs])
