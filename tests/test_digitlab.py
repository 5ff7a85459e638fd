"""Digit expansions of a/p and the alternation census.

The scalar long division and alternation loops below are the independent
oracles: the package computes both only as array expressions, and
base_digits and generalized_alternations are single rows of them.
"""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affine_mixer import (
    DigitBlock,
    OutOfRange,
    StateSpaceTooLarge,
    base_digits,
    block_census,
    generalized_alternations,
)
from affine_mixer import digitlab
from affine_mixer.digitlab import _alternations, default_block_length
from affine_mixer.evolution import STATE_CAP_ENV


def scalar_digits(a, p, sigma, t):
    """First t base-sigma digits of a/p, one long-division step at a time."""
    digits = []
    state = a
    for _ in range(t):
        state *= sigma
        digits.append(state // p)
        state %= p
    return tuple(digits)


def scalar_alternations(digits, sigma):
    """Consecutive pairs that change, or repeat at a digit other than 0 and sigma - 1."""
    edge = {0, sigma - 1}
    return sum(1 for x, y in zip(digits, digits[1:]) if x != y or x not in edge)


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


@st.composite
def long_division_cases(draw):
    """(a, p, sigma, t) with sigma <= 10 or > 10, t = 1 or longer, and
    (p - 1) * sigma on either side of 2**63, where the remainders leave int64."""
    sigma = draw(st.one_of(st.integers(2, 10), st.integers(11, 2**66)))
    edge = -(-(2**63) // sigma)  # (p - 1) * sigma < 2**63 exactly when p <= edge
    if edge >= 2 and draw(st.booleans()):  # sigma > 2**63 leaves no p below the edge
        p = draw(st.integers(2, edge))
        assert (p - 1) * sigma < 2**63
    else:
        p = draw(st.integers(edge + 1, edge + 2**70))
        assert (p - 1) * sigma >= 2**63
    a = draw(st.integers(1, p - 1))
    t = draw(st.one_of(st.just(1), st.integers(1, 40)))
    return a, p, sigma, t


@settings(max_examples=300, deadline=None)
@given(case=long_division_cases())
def test_property_base_digits_match_scalar_oracle(case):
    a, p, sigma, t = case
    block = base_digits(a, p, sigma, t)
    expected = scalar_digits(a, p, sigma, t)
    assert block.digits == expected
    assert all(type(d) is int for d in block.digits)
    assert (block.a, block.p, block.sigma) == (a, p, sigma)
    assert generalized_alternations(block) == scalar_alternations(expected, sigma)


@st.composite
def digit_blocks(draw):
    """Blocks rich in the edge digits 0 and sigma - 1, in small and wide bases."""
    sigma = draw(st.one_of(st.integers(2, 10), st.integers(11, 2**70)))
    digit = st.one_of(st.sampled_from([0, 1, sigma - 2, sigma - 1]), st.integers(0, sigma - 1))
    return sigma, tuple(draw(st.lists(digit, min_size=1, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(case=digit_blocks())
def test_property_generalized_alternations_match_scalar_oracle(case):
    sigma, digits = case
    got = generalized_alternations(DigitBlock(sigma=sigma, digits=digits, a=1, p=2))
    assert type(got) is int
    assert got == scalar_alternations(digits, sigma)


def test_base_digits_size_cap(monkeypatch):
    # t digits may reach 8 times the cap, as the census's digits may
    monkeypatch.setenv(STATE_CAP_ENV, "12")
    assert len(base_digits(1, 3, 2, 96).digits) == 96
    with pytest.raises(StateSpaceTooLarge):
        base_digits(1, 3, 2, 97)
    monkeypatch.delenv(STATE_CAP_ENV)
    # refused before any allocation: 10**12 digits would not fit in memory
    with pytest.raises(StateSpaceTooLarge):
        base_digits(1, 3, 2, 10**12)


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


def test_alternations_hold_two_masks_at_a_time():
    # the mask is built in place: beside the counts, at most two bool
    # arrays the size of the digit array less one column are alive
    digits = block_census(30011, 2, r=2).digits
    mask_bytes = digits[..., 1:].size
    tracemalloc.start()
    try:
        counts = _alternations(digits, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - counts.nbytes < 2 * mask_bytes


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
    blocks = {tuple(block) for block in census.digits[:, 0].tolist()}
    assert blocks == {(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)}
    assert census.distinct_per_index == (True,)
    assert census.min_alternations == 1
    # base 2 has no interior digits, so alternation here means change,
    # and each of the four blocks changes exactly once
    assert census.histogram == {1: 4}


def test_block_census_two_blocks():
    census = block_census(5, 2, t=3, r=2)
    assert census.digits.shape == (4, 2, 3)
    for a in range(1, 5):
        full = base_digits(a, 5, 2, 6).digits
        for i in range(2):
            assert tuple(census.digits[a - 1, i].tolist()) == full[i * 3 : i * 3 + 3]
    assert census.distinct_per_index == (True, True)


def test_block_census_degenerate_modulus_two():
    census = block_census(2, 2)
    # only a = 1: digits (1), no pairs, zero alternations
    assert census.digits.tolist() == [[[1]]]
    assert census.min_alternations == 0
    assert census.histogram == {0: 1}


def test_block_census_sigma_seven_p_seven():
    # sigma == p: a/p = 0.a000... terminates after one digit
    census = block_census(7, 7, t=3)
    assert census.digits.tolist() == [[[a, 0, 0]] for a in range(1, 7)]
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
    """The census one numerator at a time: the scalar long division per a,
    the scalar alternation count, set-based distinctness and a dict
    histogram.  digits[a - 1][i] is block i of a/p."""
    digits, alternations, histogram = [], [], {}
    per_index = [set() for _ in range(r)]
    for a in range(1, p):
        expansion = scalar_digits(a, p, sigma, r * t)
        blocks = [expansion[i * t : (i + 1) * t] for i in range(r)]
        alts = [scalar_alternations(block, sigma) for block in blocks]
        for seen, block, alt in zip(per_index, blocks, alts):
            seen.add(block)
            histogram[alt] = histogram.get(alt, 0) + 1
        digits.append([list(block) for block in blocks])
        alternations.append(alts)
    return {
        "distinct_per_index": tuple(len(seen) == p - 1 for seen in per_index),
        "min_alternations": min(map(min, alternations)),
        "histogram": dict(sorted(histogram.items())),
        "digits": digits,
        "alternations": alternations,
    }


@settings(max_examples=120, deadline=None)
@given(
    p=st.integers(2, 3000),
    sigma=st.one_of(st.integers(2, 16), st.integers(2**62, 2**70)),
    t=st.one_of(st.none(), st.integers(1, 40)),
    r=st.integers(1, 3),
)
# block codes floor(s * sigma**t / p) are int64 at (p - 1) * 2**52 = 2**62 and
# Python ints at 2**63
@example(p=1025, sigma=2, t=52, r=2)
@example(p=1025, sigma=2, t=53, r=2)
# gcd(sigma, p) > 1: remainders reach 0, and the blocks after it are all 0
@example(p=12, sigma=6, t=None, r=3)
@example(p=16, sigma=2, t=2, r=3)
# block index 0 distinct, index 1 not
@example(p=12, sigma=2, t=4, r=2)
def test_property_block_census_matches_scalar_oracle(p, sigma, t, r):
    census = block_census(p, sigma, t, r)
    t = default_block_length(p, sigma) if t is None else t
    expected = census_oracle(p, sigma, t, r)
    assert (census.p, census.sigma, census.t, census.r) == (p, sigma, t, r)
    assert census.digits.shape == (p - 1, r, t)
    assert census.digits.tolist() == expected.pop("digits")
    assert census.alternations.tolist() == expected.pop("alternations")
    for name, value in expected.items():
        assert getattr(census, name) == value, name
    assert type(census.min_alternations) is int
    assert all(type(key) is int and type(n) is int for key, n in census.histogram.items())


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 60),
    sigma=st.one_of(st.integers(2, 16), st.integers(2**62, 2**70)),
    t=st.one_of(st.none(), st.integers(1, 12)),
    r=st.integers(1, 3),
    block=st.integers(1, 8),
)
def test_property_block_census_alternations_at_any_block(p, sigma, t, r, block):
    # the alternations are counted a block of census rows at a time
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(digitlab, "_ROW_BLOCK", block)
        census = block_census(p, sigma, t, r)
    expected = census_oracle(p, sigma, census.t, r)
    assert census.alternations.shape == (p - 1, r)
    assert census.alternations.tolist() == expected["alternations"]
    assert census.min_alternations == expected["min_alternations"]
    assert census.histogram == expected["histogram"]


def test_block_census_arrays_are_read_only():
    census = block_census(11, 3, t=2, r=2)
    for arr in (census.digits, census.alternations):
        with pytest.raises(ValueError):
            arr[0, 0] = 0


@pytest.mark.parametrize("sigma", [2, 16, 2**64 + 1])
@pytest.mark.parametrize("p", [7, 1009])
def test_block_census_makes_no_np_unique_call(monkeypatch, p, sigma):
    # distinctness is one sort of the block codes: np.unique, which in
    # numpy 2.x imports numpy.ma and builds a hash table, is never called
    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", unique)
    census = block_census(p, sigma, r=2)
    expected = census_oracle(p, sigma, census.t, 2)
    assert census.distinct_per_index == expected["distinct_per_index"]
    assert census.histogram == expected["histogram"]


def test_block_census_undistinct_blocks_and_equality():
    # t = 1 in base 2 leaves two possible blocks for 10 numerators
    census = block_census(11, 2, t=1, r=3)
    assert census.distinct_per_index == (False, False, False)
    # the four digits of a/12 after the first four follow the remainder
    # 16 a mod 12, which is 0, 4 or 8: block index 0 is distinct, 1 is not
    assert block_census(12, 2, t=4, r=2).distinct_per_index == (True, False)
    assert census == block_census(11, 2, t=1, r=3)
    assert census != block_census(11, 2, t=2, r=3)


def test_block_census_size_cap(monkeypatch):
    monkeypatch.setenv(STATE_CAP_ENV, "12")
    assert block_census(7, 2, r=2).digits.shape[:2] == (6, 2)
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
