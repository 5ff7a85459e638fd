"""Base-sigma digit expansions of a/p and alternation statistics.

Digits come from exact integer long division, never floating expansion,
so digit sequences are bit-exact and distinctness checks mean something.
A generalized alternation between consecutive digits is either a change,
or a repeat at a digit that is neither 0 nor sigma-1 (the two digits a
repeated carry can produce).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import OutOfRange


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
    """Alternation statistics of the length-t digit blocks of all a/p."""

    p: int
    sigma: int
    t: int
    r: int
    rows: tuple[CensusRow, ...]
    distinct_per_index: tuple[bool, ...]
    min_alternations: int
    histogram: dict[int, int]


def default_block_length(p: int, sigma: int) -> int:
    """Smallest t with sigma**t >= p, the natural block length for p."""
    if sigma < 2:
        raise ValueError("base must be >= 2")
    t = 1
    while sigma**t < p:
        t += 1
    return t


def block_census(p: int, sigma: int, t: Optional[int] = None, r: int = 1) -> BlockCensus:
    """Partition the first r*t digits of a/p into r blocks, for every
    a in 1..p-1, and report distinctness per block index, the minimum
    alternation count, and the alternation histogram."""
    if r < 1:
        raise ValueError("block count must be >= 1")
    if t is None:
        t = default_block_length(p, sigma)
    rows: list[CensusRow] = []
    per_index: list[set[tuple[int, ...]]] = [set() for _ in range(r)]
    histogram: dict[int, int] = {}
    for a in range(1, p):
        digits = base_digits(a, p, sigma, r * t).digits
        for i in range(r):
            chunk = digits[i * t : (i + 1) * t]
            block = DigitBlock(sigma=sigma, digits=chunk, a=a, p=p, offset=i * t)
            alt = generalized_alternations(block)
            rows.append(CensusRow(a=a, block_index=i, block=block, alternations=alt))
            per_index[i].add(chunk)
            histogram[alt] = histogram.get(alt, 0) + 1
    distinct = tuple(len(per_index[i]) == p - 1 for i in range(r))
    return BlockCensus(
        p=p,
        sigma=sigma,
        t=t,
        r=r,
        rows=tuple(rows),
        distinct_per_index=distinct,
        min_alternations=min(row.alternations for row in rows),
        histogram=dict(sorted(histogram.items())),
    )
