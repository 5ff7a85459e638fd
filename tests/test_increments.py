"""Increment distributions, difference sets, and the support basis."""

from __future__ import annotations

import math
import random

import pytest

from affine_mixer import (
    IncrementDistribution,
    IntMatrix,
    InvariantSubspace,
    admissible_modulus,
    difference_set,
    extended_difference_set,
    mat_pow,
    support_basis,
)
from common import fair_two_point, suite_matrices


def test_increment_distribution_validation():
    with pytest.raises(ValueError):
        IncrementDistribution(1, ((0,), (1,)), (0.5, 0.6))  # sum != 1
    with pytest.raises(ValueError):
        IncrementDistribution(1, ((0,), (0,)), (0.5, 0.5))  # duplicate point
    with pytest.raises(ValueError):
        IncrementDistribution(1, ((0,), (1,)), (1.0, 0.0))  # zero weight
    with pytest.raises(ValueError):
        IncrementDistribution(1, ((0,), (1,)), (float("nan"), float("nan")))  # NaN weights
    with pytest.raises(ValueError):
        IncrementDistribution(2, ((0,), (1,)), (0.5, 0.5))  # wrong length
    with pytest.raises(ValueError):
        IncrementDistribution(1, (), ())  # empty support


def test_fair_weights():
    mu = IncrementDistribution.fair([(0, 0), (1, 0), (0, 1)])
    assert mu.k == 2
    assert mu.probs == (1 / 3, 1 / 3, 1 / 3)


def test_json_roundtrip():
    mu = IncrementDistribution(2, ((0, 0), (2, -1)), (0.25, 0.75))
    assert IncrementDistribution.from_json(mu.to_json()) == mu


def test_difference_set_examples():
    mu = fair_two_point(1)
    assert difference_set(mu) == [(-1,), (0,), (1,)]
    mu2 = fair_two_point(2)
    assert difference_set(mu2) == [(-1, 0), (0, 0), (1, 0)]


def test_difference_set_symmetric_and_contains_zero():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(1, 3)
        pts = set()
        while len(pts) < rng.randint(2, 4):
            pts.add(tuple(rng.randint(-3, 3) for _ in range(k)))
        mu = IncrementDistribution.fair(sorted(pts))
        diffs = difference_set(mu)
        assert (0,) * k in diffs
        for v in diffs:
            assert tuple(-c for c in v) in diffs
        assert len(diffs) == len(set(diffs))


def test_extended_difference_set_scan_order():
    a = IntMatrix.from_rows([[0, 1], [2, 0]])
    v = [(1, 0), (0, 0), (-1, 0)]
    out = extended_difference_set(v, a, 2)
    # z = 0 images first in input order, then the new z = 1 images
    assert out == [(1, 0), (0, 0), (-1, 0), (0, 2), (0, -2)]


def test_extended_difference_set_dedup_keeps_first():
    a = IntMatrix.from_rows([[1]])
    out = extended_difference_set([(1,), (-1,)], a, 3)
    assert out == [(1,), (-1,)]


def test_support_basis_scalar_doubling():
    basis = support_basis(fair_two_point(1), IntMatrix.from_rows([[2]]))
    assert basis.matrix.rows == ((1,),)
    assert basis.det == 1
    assert basis.z == 0
    assert basis.provenance == (((1,), (0,), 0),)


def test_support_basis_swap_doubling():
    a = IntMatrix.from_rows([[0, 1], [2, 0]])
    basis = support_basis(fair_two_point(2), a)
    assert basis.columns == ((1, 0), (0, 2))
    assert basis.det == 2
    assert basis.z == 1
    assert basis.provenance == (
        ((1, 0), (0, 0), 0),
        ((1, 0), (0, 0), 1),
    )


def test_support_basis_rotation():
    a = IntMatrix.from_rows([[0, -1], [1, 0]])
    basis = support_basis(fair_two_point(2), a)
    assert basis.columns == ((1, 0), (0, 1))
    assert basis.det == 1


def test_support_basis_invariant_subspace():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    with pytest.raises(InvariantSubspace):
        support_basis(fair_two_point(2), a)


def test_support_basis_dimension_mismatch():
    with pytest.raises(ValueError):
        support_basis(fair_two_point(1), IntMatrix.from_rows([[1, 0], [0, 1]]))


def test_support_basis_deterministic():
    a = IntMatrix.from_rows([[2, 1], [1, 1]])
    mu = IncrementDistribution.fair([(0, 0), (1, 0), (0, 1)])
    assert support_basis(mu, a) == support_basis(mu, a)


def test_support_basis_provenance_is_exact():
    rng = random.Random(22)
    built = 0
    while built < 40:
        k = rng.randint(1, 3)
        a = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)])
        from affine_mixer import det_int

        if det_int(a) == 0:
            continue
        pts = set()
        while len(pts) < rng.randint(2, 4):
            pts.add(tuple(rng.randint(-2, 2) for _ in range(k)))
        mu = IncrementDistribution.fair(sorted(pts))
        try:
            basis = support_basis(mu, a)
        except InvariantSubspace:
            continue
        built += 1
        assert basis.det != 0
        assert len(basis.columns) == k
        for col, (u, v, z) in zip(basis.columns, basis.provenance):
            diff = tuple(ui - vi for ui, vi in zip(u, v))
            assert mat_pow(a, z).apply(diff) == col
            assert u in mu.support and v in mu.support
    assert built == 40


def test_admissible_modulus():
    a = IntMatrix.from_rows([[0, 1], [2, 0]])  # det -2
    basis = support_basis(fair_two_point(2), a)  # det 2
    assert admissible_modulus(a, basis, 5)
    assert admissible_modulus(a, basis, 7)
    assert not admissible_modulus(a, basis, 2)
    assert not admissible_modulus(a, basis, 4)
    with pytest.raises(ValueError):
        admissible_modulus(a, basis, 1)


def test_basis_columns_cover_every_frequency():
    # for every admissible modulus and every nonzero frequency alpha some
    # basis column y has <y, alpha> != 0 mod p; this is what makes the
    # transform factors decay (exhaustive run lives in the acceptance suite)
    for a in suite_matrices():
        mu = fair_two_point(a.k)
        try:
            basis = support_basis(mu, a)
        except InvariantSubspace:
            # {0, e1} sits inside an invariant line for [[1,0],[0,2]]; the
            # span hypothesis fails there and no basis exists at all
            assert a.rows == ((1, 0), (0, 2))
            continue
        for p in (3, 5, 7):
            if not admissible_modulus(a, basis, p):
                continue
            k = a.k
            for idx in range(1, p**k):
                alpha = []
                t = idx
                for _ in range(k):
                    alpha.append(t % p)
                    t //= p
                hits = [
                    sum(y * c for y, c in zip(col, alpha)) % p
                    for col in basis.columns
                ]
                assert any(h != 0 for h in hits), (a.rows, p, alpha)
