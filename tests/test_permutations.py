"""Unit tests for the permutation-based improper constructions."""

from decimal import Decimal
from fractions import Fraction

import pytest

from eulermagic import permutations
from eulermagic.matrices import mat_mul, transpose
from eulermagic.permutations import (
    MAX_PERM_SIZE,
    Permutation,
    construction_permutation,
    perm_matrix,
    two_by_two_family,
)
from eulermagic.verify import verify


def test_permutation_dataclass():
    sigma = Permutation((2, 1, 3))
    assert sigma.n == 3
    assert sigma(1) == 2 and sigma(2) == 1 and sigma(3) == 3
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_permutation_from_a_list_equals_one_from_a_tuple():
    from_list, from_tuple = Permutation([2, 1, 3]), Permutation((2, 1, 3))
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert repr(from_list) == repr(from_tuple) == "Permutation(images=(2, 1, 3))"


def test_perm_matrix_entries():
    sigma = Permutation((2, 3, 1))
    m = perm_matrix(sigma)
    # row i has its single 1 in column sigma(i)
    for i in range(1, 4):
        assert m.entry(i - 1, sigma(i) - 1) == 1
        assert sum(m.row(i - 1)) == 1


def test_construction_permutation_even():
    sigma = construction_permutation(6)
    # a 5-cycle on 1..5 with 6 fixed
    assert sigma.images == (2, 3, 4, 5, 1, 6)


def test_construction_permutation_odd():
    sigma = construction_permutation(7)
    # two cycles around the fixed middle point
    assert sigma(4) == 4
    assert sorted(sigma.images) == list(range(1, 8))
    assert all(sigma(i) != i for i in range(1, 8) if i != 4)


def test_construction_avoids_diagonals():
    # exactly one fixed point (the diagonal 1) and exactly one point with
    # sigma(i) = n + 1 - i (the anti-diagonal 1); that is what makes both
    # square-sums equal gamma = 1
    for n in range(4, 13):
        sigma = construction_permutation(n)
        fixed = [i for i in range(1, n + 1) if sigma(i) == i]
        anti = [i for i in range(1, n + 1) if sigma(i) == n + 1 - i]
        assert len(fixed) == 1
        assert len(anti) == 1


def test_improper_construction_verifies():
    for n in range(4, 13):
        m = perm_matrix(construction_permutation(n))
        rep = verify(m)
        assert rep.is_euler_magic
        assert rep.gamma == 1
        assert rep.distinct_square_count == 2
        assert not rep.is_proper


def test_small_sizes_rejected():
    for n in (0, 1, 2, 3):
        with pytest.raises(ValueError):
            construction_permutation(n)


def test_sizes_above_the_bound_rejected_before_the_dense_matrix(monkeypatch):
    def no_dense_matrix(sigma):
        raise AssertionError("dense matrix built before the size was checked")

    monkeypatch.setattr(permutations, "perm_matrix", no_dense_matrix)
    assert construction_permutation(MAX_PERM_SIZE).n == MAX_PERM_SIZE
    with pytest.raises(ValueError, match=f"n <= {MAX_PERM_SIZE}, got 31"):
        construction_permutation(MAX_PERM_SIZE + 1)


def test_two_by_two_family():
    for variant in (1, 2, 3, 4):
        for a in (1, -2, Fraction(3, 5)):
            m = two_by_two_family(a, variant)
            rep = verify(m)
            assert rep.is_euler_magic
            assert rep.gamma == 2 * a * a
            assert not rep.is_proper
            product = mat_mul(m, transpose(m))
            assert product.entry(0, 1) == 0


def test_two_by_two_family_rejects_degenerate():
    with pytest.raises(ValueError):
        two_by_two_family(0)
    with pytest.raises(ValueError):
        two_by_two_family(1, variant=5)


def test_two_by_two_family_takes_the_variant_through_index():
    # 1.0 == 1 and hashes alike, so a float variant used to pick variant 1
    for bad in (1.0, Fraction(1), Decimal(1), "1"):
        with pytest.raises(TypeError):
            two_by_two_family(3, bad)
    # bool is an int: True is variant 1
    assert two_by_two_family(3, True) == two_by_two_family(3, 1)
