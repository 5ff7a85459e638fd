"""Digit expansions of a/p and the alternation census."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_mixer import (
    DigitBlock,
    OutOfRange,
    StateSpaceTooLarge,
    base_digits,
    block_census,
    generalized_alternations,
)
from affine_mixer.digitlab import CensusRow, default_block_length
from affine_mixer.evolution import STATE_CAP_ENV


def test_base_digits_hand_values():
    assert base_digits(1, 2, 2, 4).digits == (1, 0, 0, 0)
    assert base_digits(1, 3, 2, 4).digits == (0, 1, 0, 1)
    assert base_digits(2, 3, 2, 4).digits == (1, 0, 1, 0)
    assert base_digits(5, 7, 10, 6).digits == (7, 1, 4, 2, 8, 5)
    assert base_digits(1, 7, 10, 6).digits == (1, 4, 2, 8, 5, 7)


def test_base_digits_validation():
    with pytest.raises(OutOfRange):
        base_digits(0, 5, 2, 3)
    with pytest.raises(OutOfRange):
        base_digits(5, 5, 2, 3)
    with pytest.raises(OutOfRange):
        base_digits(7, 5, 2, 3)
    with pytest.raises(ValueError):
        base_digits(1, 1, 2, 3)
    with pytest.raises(ValueError):
        base_digits(1, 5, 1, 3)
    with pytest.raises(ValueError):
        base_digits(1, 5, 2, 0)


def test_base_digits_reconstructs_fraction():
    # the first t digits are exactly floor(a/p * sigma**t) in base sigma
    rng = random.Random(41)
    for _ in range(200):
        p = rng.randint(2, 200)
        a = rng.randint(1, p - 1)
        sigma = rng.choice([2, 3, 7, 10])
        t = rng.randint(1, 12)
        digits = base_digits(a, p, sigma, t).digits
        acc = Fraction(0)
        for i, d in enumerate(digits):
            acc += Fraction(d, sigma ** (i + 1))
        err = Fraction(a, p) - acc
        assert 0 <= err < Fraction(1, sigma**t)


def test_digit_block_validation():
    with pytest.raises(ValueError):
        DigitBlock(sigma=2, digits=(0, 2), a=1, p=3)
    with pytest.raises(ValueError):
        DigitBlock(sigma=1, digits=(0,), a=1, p=3)


def test_generalized_alternations_hand_values():
    def alt(sigma, digits):
        return generalized_alternations(DigitBlock(sigma=sigma, digits=digits, a=1, p=2))

    assert alt(2, (0, 1, 1)) == 1  # change, then repeat at edge digit 1
    assert alt(2, (0, 0, 1)) == 1
    assert alt(2, (1, 0, 1, 0)) == 3
    assert alt(2, (0, 0, 0)) == 0
    assert alt(2, (1, 1, 1)) == 0
    assert alt(3, (1, 1, 1)) == 2  # repeats at interior digit count
    assert alt(10, (5, 5, 9, 9, 0, 0)) == 3
    assert alt(2, (0,)) == 0


def test_alternations_invariant_under_digit_flip():
    # mapping d -> sigma-1-d swaps the edge digits and preserves both
    # changes and interior repeats
    rng = random.Random(43)
    for _ in range(200):
        sigma = rng.choice([2, 3, 5])
        digits = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 10)))
        flipped = tuple(sigma - 1 - d for d in digits)
        a = generalized_alternations(DigitBlock(sigma=sigma, digits=digits, a=1, p=2))
        b = generalized_alternations(DigitBlock(sigma=sigma, digits=flipped, a=1, p=2))
        assert a == b


def test_default_block_length():
    assert default_block_length(5, 2) == 3
    assert default_block_length(8, 2) == 3
    assert default_block_length(9, 2) == 4
    assert default_block_length(1000, 10) == 3
    assert default_block_length(2, 2) == 1
    for sigma in (1, 0):  # sigma**t never reaches p: must raise, not loop
        with pytest.raises(ValueError):
            default_block_length(5, sigma)


def test_block_census_p5():
    census = block_census(5, 2)
    assert census.t == 3
    assert census.r == 1
    blocks = {row.block.digits for row in census.rows}
    assert blocks == {(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)}
    assert census.distinct_per_index == (True,)
    assert census.min_alternations == 1
    # base 2 has no interior digits, so alternation here means change,
    # and each of the four blocks changes exactly once
    assert census.histogram == {1: 4}


def test_block_census_two_blocks():
    census = block_census(5, 2, t=3, r=2)
    assert len(census.rows) == 8
    for row in census.rows:
        assert row.block.offset == row.block_index * 3
        full = base_digits(row.a, 5, 2, 6).digits
        lo = row.block_index * 3
        assert row.block.digits == full[lo : lo + 3]
    assert census.distinct_per_index == (True, True)


def test_block_census_degenerate_modulus_two():
    census = block_census(2, 2)
    # only a = 1: digits (1), no pairs, zero alternations
    assert len(census.rows) == 1
    assert census.rows[0].block.digits == (1,)
    assert census.min_alternations == 0
    assert census.histogram == {0: 1}


def test_block_census_sigma_seven_p_seven():
    # sigma == p: a/p = 0.a000... terminates after one digit
    census = block_census(7, 7, t=3)
    for row in census.rows:
        assert row.block.digits == (row.a, 0, 0)
    assert census.min_alternations == 1
    assert census.histogram == {1: 6}


def test_block_census_distinct_blocks_sample():
    for p in (3, 5, 7, 9, 11, 101, 999):
        census = block_census(p, 2)
        assert census.distinct_per_index == (True,)
        assert census.min_alternations >= 1


def test_block_census_validation():
    with pytest.raises(ValueError):
        block_census(5, 2, r=0)


def census_oracle(p, sigma, t, r):
    """The census one numerator at a time: base_digits per a, the scalar
    alternation count, set-based distinctness and a dict histogram."""
    rows, histogram = [], {}
    per_index = [set() for _ in range(r)]
    for a in range(1, p):
        digits = base_digits(a, p, sigma, r * t).digits
        for i in range(r):
            block = DigitBlock(sigma=sigma, digits=digits[i * t : (i + 1) * t], a=a, p=p, offset=i * t)
            alt = generalized_alternations(block)
            rows.append(CensusRow(a=a, block_index=i, block=block, alternations=alt))
            per_index[i].add(block.digits)
            histogram[alt] = histogram.get(alt, 0) + 1
    return {
        "rows": tuple(rows),
        "distinct_per_index": tuple(len(seen) == p - 1 for seen in per_index),
        "min_alternations": min(row.alternations for row in rows),
        "histogram": dict(sorted(histogram.items())),
    }


@settings(max_examples=120, deadline=None)
@given(
    p=st.integers(2, 3000),
    sigma=st.one_of(st.integers(2, 16), st.integers(2**62, 2**70)),
    t=st.one_of(st.none(), st.integers(1, 40)),
    r=st.integers(1, 3),
)
def test_property_block_census_matches_scalar_oracle(p, sigma, t, r):
    census = block_census(p, sigma, t, r)
    t = default_block_length(p, sigma) if t is None else t
    expected = census_oracle(p, sigma, t, r)
    assert (census.p, census.sigma, census.t, census.r) == (p, sigma, t, r)
    for name, value in expected.items():
        assert getattr(census, name) == value, name
    assert type(census.min_alternations) is int
    assert all(type(key) is int and type(n) is int for key, n in census.histogram.items())
    assert census.digits.shape == (p - 1, r, t)
    assert census.digits.tolist() == [
        [list(row.block.digits) for row in expected["rows"][a * r : (a + 1) * r]]
        for a in range(p - 1)
    ]
    assert census.alternations.tolist() == [
        [row.alternations for row in expected["rows"][a * r : (a + 1) * r]]
        for a in range(p - 1)
    ]


def test_block_census_arrays_are_read_only():
    census = block_census(11, 3, t=2, r=2)
    for arr in (census.digits, census.alternations):
        with pytest.raises(ValueError):
            arr[0, 0] = 0
    assert census.rows is census.rows  # built once, on first access


def test_block_census_undistinct_blocks_and_equality():
    # t = 1 in base 2 leaves two possible blocks for 10 numerators
    census = block_census(11, 2, t=1, r=3)
    assert census.distinct_per_index == (False, False, False)
    assert census == block_census(11, 2, t=1, r=3)
    assert census != block_census(11, 2, t=2, r=3)


def test_block_census_size_cap(monkeypatch):
    monkeypatch.setenv(STATE_CAP_ENV, "12")
    assert len(block_census(7, 2, r=2).rows) == 12
    with pytest.raises(StateSpaceTooLarge):
        block_census(7, 2, r=3)
    with pytest.raises(StateSpaceTooLarge):
        block_census(14, 2)
    monkeypatch.delenv(STATE_CAP_ENV)
    # refused before any allocation: 10**12 numerators would not fit in memory
    with pytest.raises(StateSpaceTooLarge):
        block_census(10**12, 2)


def test_block_census_digit_budget(monkeypatch):
    # the rows stay under the cap of 12; the digits may reach 8 * 12 = 96
    monkeypatch.setenv(STATE_CAP_ENV, "12")
    assert block_census(7, 2, t=16).digits.size == 96
    assert block_census(7, 2, t=8, r=2).digits.size == 96
    for t, r in ((17, 1), (9, 2)):
        with pytest.raises(StateSpaceTooLarge):
            block_census(7, 2, t=t, r=r)


def test_block_census_rejects_degenerate_arguments():
    for args in ((1, 2), (0, 2), (5, 1), (5, 0)):
        with pytest.raises(ValueError):
            block_census(*args)
    with pytest.raises(ValueError):
        block_census(5, 1, t=3)
    with pytest.raises(ValueError):
        block_census(5, 2, t=0)
