"""Base-sigma digit expansions of a/p and alternation statistics.

Digits come from exact integer long division, never floating expansion,
so digit sequences are bit-exact and distinctness checks mean something.
A generalized alternation between consecutive digits is either a change,
or a repeat at a digit that is neither 0 nor sigma-1 (the two digits a
repeated carry can produce).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import OutOfRange
from .evolution import _check_cap

# census rows (blocks of t digits) whose alternations are counted at a time:
# the masks then take _ROW_BLOCK (t - 1) bytes each, not (p - 1) r (t - 1)
_ROW_BLOCK = 2**13


@dataclass(frozen=True)
class DigitBlock:
    """A run of consecutive digits of a/p in base sigma."""

    sigma: int
    digits: tuple[int, ...]
    a: int
    p: int

    def __post_init__(self) -> None:
        if self.sigma < 2:
            raise ValueError("base must be >= 2")
        if any(not 0 <= d < self.sigma for d in self.digits):
            raise ValueError("digit out of range for the base")


def base_digits(a: int, p: int, sigma: int, t: int) -> DigitBlock:
    """First t digits of a/p in base sigma: one row of the census's long
    division.  t above 8 times the state cap raises StateSpaceTooLarge
    before anything is allocated."""
    if p < 2:
        raise ValueError("modulus must be >= 2")
    if sigma < 2:
        raise ValueError("base must be >= 2")
    if t < 1:
        raise ValueError("digit count must be >= 1")
    if not 0 < a < p:
        raise OutOfRange(f"numerator {a} outside (0, {p})")
    _check_cap(t, "t digits", per_state=8)
    digits = _long_division([a], p, sigma, t)[0][0, 0]
    return DigitBlock(sigma=sigma, digits=tuple(digits.tolist()), a=a, p=p)


def generalized_alternations(block: DigitBlock) -> int:
    """Count of consecutive pairs that alternate in the generalized sense."""
    digits = np.array(block.digits, dtype=np.min_scalar_type(block.sigma - 1))
    return int(_alternations(digits, block.sigma))


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


def default_block_length(p: int, sigma: int) -> int:
    """Smallest t with sigma**t >= p, the natural block length for p."""
    if sigma < 2:
        raise ValueError("base must be >= 2")
    t = 1
    while sigma**t < p:
        t += 1
    return t


def _long_division(
    numerators: Sequence[int] | np.ndarray, p: int, sigma: int, t: int, r: int = 1
) -> tuple[np.ndarray, tuple[bool, ...]]:
    """The first r*t base-sigma digits of a/p for every a in numerators
    (each in 1..p-1) as a (len(numerators), r, t) array of the smallest
    dtype that holds sigma - 1, and whether each block index is distinct.
    Remainders are int64 while (p - 1) * sigma fits, Python ints otherwise;
    numerators already in that dtype are the remainders, overwritten in
    place, so block_census's fresh arange is not copied.  From remainder s
    the next t digits are floor(s * sigma**t / p)."""
    state = np.asarray(numerators, dtype=np.int64 if (p - 1) * sigma < 2**63 else object)
    # one row needs no sigma**t; the first block's codes come and go before
    # the digits are allocated, and each digit column is divided straight
    # into place, so no temporary of len(state) int64 meets the digits
    distinct = [len(state) < 2 or _distinct(state, p, sigma**t)]
    digits = np.empty((len(state), r, t), dtype=np.min_scalar_type(sigma - 1))
    for i in range(r):
        if i:
            distinct.append(len(state) < 2 or _distinct(state, p, sigma**t))
        for j in range(t):
            state *= sigma
            np.floor_divide(state, p, out=digits[:, i, j], casting="unsafe")
            state %= p
    return digits, tuple(distinct)


def _alternations(digits: np.ndarray, sigma: int) -> np.ndarray:
    """Generalized alternation counts of the digit blocks along the last axis."""
    left, right = digits[..., :-1], digits[..., 1:]
    # the mask is built in place, so two bool arrays are live at a time
    mask = left != 0
    mask &= left != sigma - 1
    mask |= left != right
    return mask.sum(axis=-1)


def _distinct(start: np.ndarray, p: int, scale: int) -> bool:
    """Whether the blocks after the remainders s in start differ: sorted,
    their codes floor(s * scale / p), scale = sigma**t, have no equal
    neighbours.  Not np.unique, which in numpy 2.x imports numpy.ma and hashes.
    The codes take one buffer, a copy of start, scaled and sorted in place."""
    codes = start.astype(np.int64 if (p - 1) * scale < 2**63 else object)
    codes *= scale
    codes //= p
    codes.sort()
    return bool((codes[1:] != codes[:-1]).all())


def block_census(p: int, sigma: int, t: Optional[int] = None, r: int = 1) -> BlockCensus:
    """Partition the first r*t digits of a/p into r blocks, for every
    a in 1..p-1, and report distinctness per block index, the minimum
    alternation count, and the alternation histogram.

    The digits come from one exact long division of all numerators at
    once, O((p - 1) r t) array work, each block index checked by one sort of
    the codes floor(s * sigma**t / p).  Alternations are counted _ROW_BLOCK
    blocks at a time into the result array, so beside the kept arrays the
    census holds its remainders, 8 bytes per numerator, and masks of
    _ROW_BLOCK (t - 1) bytes.  (p - 1) r rows above the state cap, or
    (p - 1) r t digits above 8 times it (the bytes of a dense law at the
    cap), raise StateSpaceTooLarge before anything is allocated.
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
    _check_cap((p - 1) * r * t, "(p - 1) * r * t census digits", per_state=8)
    digits, distinct = _long_division(np.arange(1, p), p, sigma, t, r)
    rows = digits.reshape(-1, t)
    alternations = np.empty(len(rows), dtype=np.int_)
    for start in range(0, len(rows), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        alternations[block] = _alternations(rows[block], sigma)
    alternations = alternations.reshape(p - 1, r)
    counts = np.bincount(alternations.ravel())
    digits.flags.writeable = False
    alternations.flags.writeable = False
    return BlockCensus(
        p=p,
        sigma=sigma,
        t=t,
        r=r,
        distinct_per_index=distinct,
        min_alternations=int(alternations.min()),
        histogram={alt: int(n) for alt, n in enumerate(counts) if n},
        digits=digits,
        alternations=alternations,
    )
