"""Increment distributions and the support basis construction.

The increment law mu lives on finitely many integer vectors.  Its pairwise
difference set V, extended by matrix powers A^m for m below the minimal
polynomial degree, spans Q^k whenever the support is not parallel to a
proper A-invariant subspace; support_basis extracts an explicit basis from
that extended set, with full provenance, and admissible_modulus states the
two gcd conditions a modulus must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    IntMatrix,
    as_matrix,
    det_int,
    exact_int,
    independent_indices,
    json_float,
    mat_pow,
    minimal_poly,
)
from .errors import InvariantSubspace

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class IncrementDistribution:
    """Finitely supported law of the i.i.d. increments."""

    k: int
    support: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("dimension must be >= 1")
        if not self.support:
            raise ValueError("support must be nonempty")
        support = tuple(tuple(int(c) for c in pt) for pt in self.support)
        probs = tuple(float(w) for w in self.probs)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if any(len(pt) != self.k for pt in support):
            raise ValueError("support vectors must have length k")
        if len(set(support)) != len(support):
            raise ValueError("support vectors must be distinct")
        if len(probs) != len(support):
            raise ValueError("probabilities must align with support")
        if not all(w > 0 for w in probs):  # also rejects NaN
            raise ValueError("probabilities must be strictly positive")
        if abs(math.fsum(probs) - 1.0) > PROB_SUM_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")

    @classmethod
    def fair(cls, points: Sequence[Sequence[int]]) -> "IncrementDistribution":
        """Uniform weights over the given support points."""
        pts = [tuple(int(c) for c in pt) for pt in points]
        if not pts:
            raise ValueError("support must be nonempty")
        k = len(pts[0])
        return cls(k, tuple(pts), tuple(1.0 / len(pts) for _ in pts))

    @classmethod
    def from_json(cls, obj: dict) -> "IncrementDistribution":
        return cls(
            exact_int(obj["k"]),
            tuple(tuple(exact_int(c) for c in pt) for pt in obj["support"]),
            tuple(json_float(w) for w in obj["probs"]),
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "support": [list(pt) for pt in self.support],
            "probs": list(self.probs),
        }


@dataclass(frozen=True)
class SupportBasis:
    """Basis of Q^k drawn from the extended difference set.

    Column m equals A**z_m @ (u_m - v_m) for a support pair (u_m, v_m);
    provenance stores (u_m, v_m, z_m) per column, z is the largest power
    used, and det is the exact determinant of the column matrix.
    """

    matrix: IntMatrix
    provenance: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]
    z: int
    det: int

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return self.matrix.transpose().rows


def _first_pairs(mu: IncrementDistribution) -> dict[tuple[int, ...], tuple]:
    """Each pairwise difference of support vectors, mapped to the first
    pair (u, v) in sorted support order with u - v equal to it."""
    support = sorted(mu.support)
    pairs: dict[tuple[int, ...], tuple] = {}
    for u in support:
        for v in support:
            pairs.setdefault(tuple(a - b for a, b in zip(u, v)), (u, v))
    return pairs


def support_basis(
    mu: IncrementDistribution, a: IntMatrix | Sequence[Sequence[int]]
) -> SupportBasis:
    """Greedy deterministic basis from the extended difference set.

    Scans powers z = 0..d-1 in ascending order and, within each power, the
    difference vectors in reverse lexicographic order (so of a +/- pair the
    positive representative is met first), keeping each image vector that
    enlarges the exact rational span: the pivot columns of one elimination.
    Raises InvariantSubspace when they fall short of full rank, which is
    exactly the case of a support parallel to a proper A-invariant subspace.
    """
    a = as_matrix(a)
    k = a.k
    if mu.k != k:
        raise ValueError("dimension mismatch between mu and A")
    pairs = _first_pairs(mu)
    diffs = sorted(pairs, reverse=True)
    powers = [mat_pow(a, z) for z in range(minimal_poly(a).degree)]
    scan = [(z, x) for z in range(len(powers)) for x in diffs]
    images = [powers[z].apply(x) for z, x in scan]
    kept = independent_indices(images)
    if len(kept) < k:
        raise InvariantSubspace(
            f"extended difference set spans only {len(kept)} of {k} dimensions"
        )
    matrix = IntMatrix.from_rows(list(zip(*(images[i] for i in kept))))
    det = det_int(matrix)
    assert det != 0
    provenance = tuple(pairs[scan[i][1]] + (scan[i][0],) for i in kept)
    return SupportBasis(matrix, provenance, z=max(pr[2] for pr in provenance), det=det)


def admissible_modulus(
    a: IntMatrix | Sequence[Sequence[int]], basis: SupportBasis, p: int
) -> bool:
    """True iff gcd(det A, p) = gcd(det B, p) = 1."""
    if p < 2:
        raise ValueError("modulus must be >= 2")
    a = as_matrix(a)
    return math.gcd(det_int(a), p) == 1 and math.gcd(basis.det, p) == 1
