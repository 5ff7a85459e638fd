"""Base-sigma digit expansions of a/p and alternation statistics.

Digits come from exact integer long division, never floating expansion,
so digit sequences are bit-exact and distinctness checks mean something.
A generalized alternation between consecutive digits is either a change,
or a repeat at a digit that is neither 0 nor sigma-1 (the two digits a
repeated carry can produce).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import OutOfRange
from .evolution import _check_cap


@dataclass(frozen=True)
class DigitBlock:
    """A run of consecutive digits of a/p in base sigma.

    offset is the 0-based position of the first digit within the expansion.
    """

    sigma: int
    digits: tuple[int, ...]
    a: int
    p: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 2:
            raise ValueError("base must be >= 2")
        if any(not 0 <= d < self.sigma for d in self.digits):
            raise ValueError("digit out of range for the base")


def base_digits(a: int, p: int, sigma: int, t: int) -> DigitBlock:
    """First t digits of a/p in base sigma, by exact long division."""
    if p < 2:
        raise ValueError("modulus must be >= 2")
    if sigma < 2:
        raise ValueError("base must be >= 2")
    if t < 1:
        raise ValueError("digit count must be >= 1")
    if not 0 < a < p:
        raise OutOfRange(f"numerator {a} outside (0, {p})")
    digits = []
    state = a
    for _ in range(t):
        state *= sigma
        digits.append(state // p)
        state %= p
    return DigitBlock(sigma=sigma, digits=tuple(digits), a=a, p=p, offset=0)


def generalized_alternations(block: DigitBlock) -> int:
    """Count of consecutive pairs that alternate in the generalized sense."""
    edge = {0, block.sigma - 1}
    count = 0
    for x, y in zip(block.digits, block.digits[1:]):
        if x != y or x not in edge:
            count += 1
    return count


@dataclass(frozen=True)
class CensusRow:
    a: int
    block_index: int
    block: DigitBlock
    alternations: int


@dataclass(frozen=True)
class BlockCensus:
    """Alternation statistics of the length-t digit blocks of all a/p.

    digits[a - 1, i] holds block i of a/p and alternations[a - 1, i] its
    alternation count; both arrays are read-only.
    """

    p: int
    sigma: int
    t: int
    r: int
    distinct_per_index: tuple[bool, ...]
    min_alternations: int
    histogram: dict[int, int]
    digits: np.ndarray = field(compare=False, repr=False)
    alternations: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def rows(self) -> tuple[CensusRow, ...]:
        """One CensusRow per (a, block index), a-major, built on first access."""
        rows = []
        for a, (blocks, alts) in enumerate(
            zip(self.digits.tolist(), self.alternations.tolist()), start=1
        ):
            for i, (chunk, alt) in enumerate(zip(blocks, alts)):
                block = DigitBlock(
                    sigma=self.sigma, digits=tuple(chunk), a=a, p=self.p, offset=i * self.t
                )
                rows.append(CensusRow(a=a, block_index=i, block=block, alternations=alt))
        return tuple(rows)


def default_block_length(p: int, sigma: int) -> int:
    """Smallest t with sigma**t >= p, the natural block length for p."""
    if sigma < 2:
        raise ValueError("base must be >= 2")
    t = 1
    while sigma**t < p:
        t += 1
    return t


def _long_division(p: int, sigma: int, n_digits: int) -> np.ndarray:
    """The first n_digits base-sigma digits of a/p for every a in 1..p-1,
    as a (p - 1, n_digits) array in the smallest dtype that holds sigma - 1.

    All numerators are divided at once; the remainders stay in int64 while
    (p - 1) * sigma fits, and are Python ints in an object array otherwise.
    """
    if (p - 1) * sigma < 2**63:
        state = np.arange(1, p, dtype=np.int64)
    else:
        state = np.arange(1, p, dtype=object)
    digits = np.empty((p - 1, n_digits), dtype=np.min_scalar_type(sigma - 1))
    for j in range(n_digits):
        state *= sigma
        digits[:, j] = state // p
        state %= p
    return digits


def _distinct(blocks: np.ndarray, sigma: int) -> bool:
    """Whether the rows of a (m, t) digit array are pairwise distinct."""
    t = blocks.shape[1]
    if sigma**t <= 2**63:
        weights = np.array([sigma ** (t - 1 - j) for j in range(t)], dtype=np.int64)
        codes = blocks.astype(np.int64) @ weights
        return len(np.unique(codes)) == len(blocks)
    return len(set(map(tuple, blocks.tolist()))) == len(blocks)


def block_census(p: int, sigma: int, t: Optional[int] = None, r: int = 1) -> BlockCensus:
    """Partition the first r*t digits of a/p into r blocks, for every
    a in 1..p-1, and report distinctness per block index, the minimum
    alternation count, and the alternation histogram.

    The digits come from one exact long division of all numerators at
    once, O((p - 1) r t) array work; (p - 1) r rows above the state cap
    raise StateSpaceTooLarge before anything is allocated.
    """
    if r < 1:
        raise ValueError("block count must be >= 1")
    if p < 2:
        raise ValueError("modulus must be >= 2")
    if sigma < 2:
        raise ValueError("base must be >= 2")
    if t is None:
        t = default_block_length(p, sigma)
    if t < 1:
        raise ValueError("digit count must be >= 1")
    _check_cap((p - 1) * r, "(p - 1) * r census rows")
    digits = _long_division(p, sigma, r * t).reshape(p - 1, r, t)
    left, right = digits[..., :-1], digits[..., 1:]
    alternations = ((left != right) | ((left != 0) & (left != sigma - 1))).sum(axis=2)
    counts = np.bincount(alternations.ravel())
    digits.flags.writeable = False
    alternations.flags.writeable = False
    return BlockCensus(
        p=p,
        sigma=sigma,
        t=t,
        r=r,
        distinct_per_index=tuple(_distinct(digits[:, i], sigma) for i in range(r)),
        min_alternations=int(alternations.min()),
        histogram={alt: int(n) for alt, n in enumerate(counts) if n},
        digits=digits,
        alternations=alternations,
    )
