"""Exact distribution evolution, sampling, and mixing time."""

from __future__ import annotations

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from affine_mixer import (
    ChainSpec,
    IncrementDistribution,
    IntMatrix,
    ModulusNotCoprime,
    StateDistribution,
    StateSpaceTooLarge,
    bounds_table,
    det_int,
    evolve,
    evolve_iter,
    mixing_time,
    simulate,
    step_exact,
    tv_distance,
)
from affine_mixer import evolution, fourier
from affine_mixer.evolution import (
    LINE_CUTOFF,
    STATE_CAP_ENV,
    _dense_prefix,
    _mixing_time_dense,
    _step_support,
    _slabs,
    encode_state,
    index_map,
    state_cap,
)
from affine_mixer.fourier import _fourier_search, _NearTie
from common import (
    decode_state,
    dense_laws,
    dense_mixing_time,
    fair_two_point,
    matmul_index_map,
    reference_simulate,
    roll_step,
    start_shifted,
    state_table,
    suite_chains,
)


def hand_chain(p=3):
    return ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), p)


def brute_step(values, chain):
    """Reference step: textbook double loop over states and increments."""
    p, k = chain.p, chain.k
    out = [0.0] * p**k
    for code in range(p**k):
        y = decode_state(code, p, k)
        ay = chain.a.apply(y)
        for pt, w in zip(chain.mu.support, chain.mu.probs):
            x = tuple((c + b) % p for c, b in zip(ay, pt))
            out[encode_state(x, p)] += values[code] * w
    return out


def test_encode_decode_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.randint(2, 11)
        k = rng.randint(1, 3)
        x = tuple(rng.randint(0, p - 1) for _ in range(k))
        assert decode_state(encode_state(x, p), p, k) == x
    assert encode_state((1, 2), 5) == 11  # little-endian: 1 + 2*5


def test_index_map_matches_apply():
    a = IntMatrix.from_rows([[2, -1], [3, 5]])
    codes = index_map(a, 7, 2)
    for code in range(49):
        assert codes[code] == encode_state(a.apply(decode_state(code, 7, 2)), 7)


def test_translation_matches_apply_plus_offset():
    # the mass at x lands on A x + offset (mod p): pushed through index_map,
    # then moved by the slab pairs of _slabs
    a = IntMatrix.from_rows([[2, -1], [3, 5]])
    values = np.arange(1.0, 50.0) / np.arange(1.0, 50.0).sum()  # distinct masses
    pushed = np.empty_like(values)
    pushed[index_map(a, 7, 2)] = values
    moved = np.full((7, 7), np.nan)
    for dst, src in _slabs((4, -2), 7):
        assert np.isnan(moved[dst]).all()  # the slabs are disjoint
        moved[dst] = pushed.reshape(7, 7)[src]
    moved = moved.reshape(-1)
    for code in range(49):
        image = tuple(c + o for c, o in zip(a.apply(decode_state(code, 7, 2)), (4, -2)))
        assert moved[encode_state(image, 7)] == values[code]


def test_state_table_matches_decode():
    table = state_table(3, 2)
    assert table.shape == (9, 2)
    for code in range(9):
        assert tuple(table[code]) == decode_state(code, 3, 2)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 1)
    with pytest.raises(ValueError):
        ChainSpec(IntMatrix.from_rows([[1, 0], [0, 1]]), fair_two_point(1), 5)
    with pytest.raises(ModulusNotCoprime):
        ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 4)
    with pytest.raises(ModulusNotCoprime):
        ChainSpec(IntMatrix.from_rows([[0, 1], [2, 0]]), fair_two_point(2), 2)
    with pytest.raises(ValueError):
        ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 3, x0=(0, 0))


@pytest.mark.parametrize(
    "rows, symmetric",
    [([[2]], True), ([[2, 1], [1, 1]], True), ([[1, 1], [0, 2]], False), ([[0, 1], [-1, 0]], False)],
)
def test_symmetric_chain_shares_one_permutation_table(rows, symmetric):
    k = len(rows)
    chain = ChainSpec(IntMatrix.from_rows(rows), fair_two_point(k), 7)
    assert (chain._perm_t is chain._perm) == symmetric
    assert np.array_equal(chain._perm_t, index_map(chain.a.transpose(), 7, k))


def test_chain_spec_divides_the_weights_by_their_sum():
    fair = fair_two_point(1)
    assert ChainSpec(IntMatrix.from_rows([[2]]), fair, 3).mu is fair
    drift = IncrementDistribution(1, ((0,), (1,)), (0.5, 0.4999999999991))
    chain = ChainSpec(IntMatrix.from_rows([[2]]), drift, 3)
    total = math.fsum(drift.probs)
    assert chain.mu.probs == (0.5 / total, 0.4999999999991 / total)
    assert chain.mu.support == drift.support
    assert abs(tv_distance(evolve(chain, 200)) - tv_distance(evolve(hand_chain(), 200))) < 1e-9


def test_chain_spec_reduces_x0():
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 3, x0=(-1,))
    assert chain.x0 == (2,)
    assert chain.k == 1
    assert chain.n_states == 3


def test_state_distribution_validation():
    StateDistribution(3, 1, [1.0, -1e-16, 1e-16])  # tiny negatives clamp
    with pytest.raises(ValueError):
        StateDistribution(3, 1, [1.0, -1e-10, 1e-10])
    with pytest.raises(ValueError):
        StateDistribution(3, 1, [0.5, 0.25, 0.25 + 1e-8])
    with pytest.raises(ValueError):
        StateDistribution(3, 1, [1.0, 0.0])
    for values in ([math.nan, 1.0], [0.5, math.nan, 0.5]):
        with pytest.raises(ValueError, match="sum to nan"):
            StateDistribution(len(values), 1, values)


def test_state_distribution_clips_only_a_law_with_a_nonpositive_entry():
    # -0.0 and tiny negatives become +0.0, also where -0.0 is the least
    # entry; a positive law keeps its bytes
    for values in ([-0.0, -1e-16, 1.0 + 1e-16], [0.5, -0.0, 0.5]):
        dist = StateDistribution(3, 1, values)
        assert not np.signbit(dist.values).any() and dist.values.min() == 0.0
    positive = np.array([0.25, 0.5, 0.25])
    assert StateDistribution(3, 1, positive).values.tobytes() == positive.tobytes()


def test_state_distribution_read_only():
    dist = StateDistribution.uniform(3, 1)
    assert not dist.values.flags.writeable
    with pytest.raises(ValueError):
        dist.values[0] = 1.0


def test_point_mass_and_prob():
    dist = StateDistribution.point_mass(5, 2, (3, 4))
    assert dist.prob((3, 4)) == 1.0
    assert dist.prob((0, 0)) == 0.0
    assert dist.values.sum() == 1.0


def test_states_of_the_wrong_length_are_refused():
    # (3,) used to read P(3, 0) and (3, 0, 1) to raise a bare IndexError
    dist = StateDistribution.point_mass(5, 2, (3, 0))
    for x in ((3,), (3, 0, 1), ()):
        with pytest.raises(ValueError):
            dist.prob(x)
        with pytest.raises(ValueError):
            StateDistribution.point_mass(5, 2, x)


def test_reduce_increments_folds_congruent_points():
    # mu folded mod p is the chain's shift table, and P_1 from x0 = 0
    mu = IncrementDistribution.fair([(0,), (1,), (5,)])
    chain = ChainSpec(IntMatrix.from_rows([[1]]), mu, 5)
    assert [shift for shift, _ in chain._shifts] == [(0,), (1,)]
    assert [w for _, w in chain._shifts] == pytest.approx([2 / 3, 1 / 3])
    dist = evolve(chain, 1)
    assert dist.prob((0,)) == pytest.approx(2 / 3)
    assert dist.prob((1,)) == pytest.approx(1 / 3)
    neg = ChainSpec(IntMatrix.from_rows([[3]]), IncrementDistribution.fair([(-1,), (0,)]), 7)
    assert neg._shifts == (((0,), 0.5), ((6,), 0.5))
    assert evolve(neg, 1).prob((6,)) == 0.5


def test_step_exact_matches_brute_force():
    rng = random.Random(31)
    for _ in range(25):
        k = rng.randint(1, 2)
        p = rng.choice([2, 3, 5, 7])
        while True:
            a = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            )
            from affine_mixer import det_int
            import math

            if math.gcd(det_int(a), p) == 1:
                break
        pts = set()
        while len(pts) < rng.randint(2, 4):
            pts.add(tuple(rng.randint(-4, 4) for _ in range(k)))
        weights = [rng.random() + 0.05 for _ in pts]
        total = sum(weights)
        mu = IncrementDistribution(
            k, tuple(sorted(pts)), tuple(w / total for w in weights)
        )
        chain = ChainSpec(a, mu, p)
        raw = np.array([rng.random() for _ in range(p**k)])
        dist = StateDistribution(p, k, raw / raw.sum())
        for _ in range(3):
            expected = brute_step(dist.values, chain)
            dist = step_exact(dist, chain)
            assert float(np.abs(dist.values - np.array(expected)).max()) < 1e-12


def test_step_exact_dimension_guard():
    with pytest.raises(ValueError):
        step_exact(StateDistribution.uniform(5, 1), hand_chain(3))


def test_uniform_is_fixed_point():
    for chain in suite_chains(primes=(3, 5)):
        out = step_exact(StateDistribution.uniform(chain.p, chain.k), chain)
        assert float(np.abs(out.values - 1.0 / chain.n_states).max()) < 1e-15


def test_evolve_hand_values():
    chain = hand_chain()
    p0 = evolve(chain, 0)
    assert list(p0.values) == [1.0, 0.0, 0.0]
    p1 = evolve(chain, 1)
    assert np.allclose(p1.values, [0.5, 0.5, 0.0], atol=1e-15)
    p2 = evolve(chain, 2)
    assert np.allclose(p2.values, [0.5, 0.25, 0.25], atol=1e-15)
    p3 = evolve(chain, 3)
    assert np.allclose(p3.values, [0.375, 0.375, 0.25], atol=1e-15)


def test_evolve_iter_indexing():
    chain = hand_chain()
    seen = list(evolve_iter(chain, 4))
    assert [i for i, _ in seen] == [0, 1, 2, 3, 4]
    assert float(np.abs(seen[2][1].values - evolve(chain, 2).values).max()) == 0.0
    with pytest.raises(ValueError):
        list(evolve_iter(chain, -1))


def test_tv_hand_values():
    chain = hand_chain()
    tvs = [tv_distance(dist) for _, dist in evolve_iter(chain, 3)]
    assert tvs[0] == pytest.approx(2 / 3, abs=1e-15)
    assert tvs[1] == pytest.approx(1 / 3, abs=1e-15)
    assert tvs[2] == pytest.approx(1 / 6, abs=1e-15)
    assert tvs[3] == pytest.approx(1 / 12, abs=1e-15)
    assert tv_distance(StateDistribution.uniform(7, 1)) == 0.0


def test_tv_never_increases():
    for chain in suite_chains(primes=(3, 7)):
        prev = None
        for _, dist in evolve_iter(chain, 40):
            tv = tv_distance(dist)
            if prev is not None:
                assert tv <= prev + 1e-12
            prev = tv


# lengths around one leaf of SCRATCH_STATES and across many, and field-2d's
# 497,025 states: the leaf sums must add up in numpy's own pairwise order
KERNEL_LENGTHS = [*range(1, 301), 2**15 - 1, 2**15, 2**15 + 1, 2**16 + 13, 497_025, 1_000_003]


def spread_law(rng, length):
    """A probability vector whose entries spread over 20 decades, some 0."""
    values = rng.random(length) * 10.0 ** rng.uniform(-20, 0, length)
    values[rng.random(length) < 0.1] = 0.0
    values[0] += 1e-3
    return values / values.sum()


def test_half_abs_sum_is_numpys_pairwise_sum_bitwise():
    # the leaf-by-leaf sum mirrors the pairwise recursion of the numpy
    # installed: every tv and tv_empirical_vs_exact is the float one sum
    # over a difference array gives, bit for bit
    rng = np.random.default_rng(32)
    for length in KERNEL_LENGTHS:
        v, w = spread_law(rng, length), spread_law(rng, length)
        c = 1.0 / length

        def dev(out, part, v=v, c=c):
            np.subtract(v[part], c, out=out)

        def diff(out, part, v=v, w=w):
            np.subtract(v[part], w[part], out=out)

        tv = 0.5 * float(np.abs(v - c).sum())
        assert evolution._half_abs_sum(length, dev) == tv, length
        assert tv_distance(StateDistribution(length, 1, v)) == tv, length
        assert evolution._half_abs_sum(length, diff) == 0.5 * float(np.abs(v - w).sum()), length


@pytest.mark.parametrize("p", [7, 1031, 2**15 + 1, 2**16 + 13, 1_000_003])
def test_arc_tv_is_the_tv_of_the_arc_made_dense_bitwise(p):
    # an arc's tv (an arc under 0 steps), read leaf by leaf as its image
    # under the identity step, is tv_distance of the arc made dense, bit
    # for bit: arcs of one state, of all p (from 0 and from inside),
    # wrapping past 0, ending at p - 1, and inside Z_p
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), p)
    rng = np.random.default_rng(p)
    arcs = [(0, 1), (p - 1, 1), (0, p), (p // 3, p), (p - 5, p // 2 + 3), (p // 2, p - p // 2)]
    arcs += [(p // 5, p // 3), (p - 1, 2)]
    for lo, length in arcs:
        arc = evolution._Arc(lo, spread_law(rng, length), 0)
        dense = evolution._dense(arc, chain)
        assert evolution._law_tv(arc, chain) == tv_distance(dense), (lo, length)


@pytest.mark.parametrize("size", [7, 2**15, 2**15 + 1, 2**16 + 13, 497_025])
def test_support_tv_is_the_tv_of_the_support_made_dense_bitwise(size):
    # a support's tv, summed with 1/N off the support, is tv_distance of
    # the support made dense, bit for bit: one state (the first, the last),
    # states at a leaf's edges, a sparse and a full support
    rng = np.random.default_rng(size)
    supports = [[0], [size - 1], sorted({0, 2**15 - 1, 2**15, size - 1} & set(range(size)))]
    supports += [rng.choice(size, max(1, size // 64), replace=False), range(size)]
    for codes in supports:
        codes = np.sort(np.asarray(codes, dtype=np.int64))
        values = spread_law(rng, len(codes))
        dense = np.zeros(size)
        dense[codes] = values
        expected = tv_distance(StateDistribution(size, 1, dense))
        assert evolution._support_tv(codes, values, size) == expected, len(codes)


def test_tv_distance_holds_no_law_sized_temporary():
    # the leaves pass through one 256 KB scratch block: far below the
    # 8 N bytes of a difference array
    n = 10**6
    law = StateDistribution(n, 1, np.full(n, 1.0 / n))
    tracemalloc.start()
    try:
        tv_distance(law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n, peak


def test_normalization_preserved_across_steps():
    for chain in suite_chains(primes=(5,)):
        for _, dist in evolve_iter(chain, 30):
            assert abs(float(dist.values.sum()) - 1.0) <= 1e-10


def test_start_shift_equivariance():
    # P_n started at x0 is the n-step law started at 0 pushed through
    # x -> A**n x0 + x
    cases = [
        (IntMatrix.from_rows([[2]]), fair_two_point(1), 5, (3,)),
        (IntMatrix.from_rows([[0, 1], [2, 0]]), fair_two_point(2), 5, (1, 4)),
        (IntMatrix.from_rows([[0, -1], [1, 0]]), fair_two_point(2), 7, (2, 6)),
    ]
    for a, mu, p, x0 in cases:
        base = ChainSpec(a, mu, p)
        moved = ChainSpec(a, mu, p, x0=x0)
        for n in (0, 1, 2, 5):
            via_shift = start_shifted(evolve(base, n), moved, n)
            direct = evolve(moved, n)
            assert float(np.abs(via_shift.values - direct.values).max()) < 1e-12


def test_simulate_deterministic_increment_is_exact():
    # a one-point increment law makes the chain deterministic, so the
    # empirical law must equal the exact law whatever the seed
    mu = IncrementDistribution.fair([(1,)])
    chain = ChainSpec(IntMatrix.from_rows([[2]]), mu, 5)
    emp = simulate(chain, 6, trials=64, seed=123)
    exact = evolve(chain, 6)
    assert float(np.abs(emp.values - exact.values).max()) == 0.0


def test_simulate_seed_reproducible():
    chain = hand_chain(5)
    a = simulate(chain, 10, trials=500, seed=42)
    b = simulate(chain, 10, trials=500, seed=42)
    assert np.array_equal(a.values, b.values)
    c = simulate(chain, 10, trials=500, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_simulate_concentrates_on_exact_law():
    for chain in suite_chains(primes=(5,)):
        n = 8
        trials = 40_000
        emp = simulate(chain, n, trials=trials, seed=7)
        exact = evolve(chain, n)
        dist = 0.5 * float(np.abs(emp.values - exact.values).sum())
        assert dist <= 5.0 * (chain.n_states / trials) ** 0.5, chain.a.rows


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate(hand_chain(), 1, trials=0, seed=1)


def test_simulate_refuses_a_negative_step_count():
    # it used to return the point mass at x0, the law at n = 0
    with pytest.raises(ValueError, match="step count must be >= 0"):
        simulate(hand_chain(), -1, trials=10, seed=0)


def test_simulate_refuses_trials_over_the_cap(monkeypatch):
    # 10**9 trials would be an 8 GB state array; refused before any draw
    with pytest.raises(StateSpaceTooLarge, match="trials = 1000000000"):
        simulate(hand_chain(), 2, trials=10**9, seed=1)
    monkeypatch.setenv(STATE_CAP_ENV, "10")
    simulate(hand_chain(), 63, trials=10, seed=1)
    message = r"\(trials \+ cap // 1024\) \* \(n \+ 1\) = 650"
    with pytest.raises(StateSpaceTooLarge, match=message):
        simulate(hand_chain(), 64, trials=10, seed=1)


def test_simulate_stays_within_its_memory():
    # tracemalloc peak per trial at k = 3: the two (trials, 3) int64 step
    # buffers (48 bytes) and one step's draws, its uniforms and picks (16
    # bytes); the one-expression step held about 80
    a = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    chain = ChainSpec(a, fair_two_point(3), 11)
    trials = 400_000
    simulate(chain, 1, trials=10, seed=0)
    tracemalloc.start()
    try:
        emp = simulate(chain, 5, trials=trials, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 68 * trials, peak / trials
    assert np.array_equal(emp.values, reference_simulate(chain, 5, trials, 3))


def test_simulate_holds_two_laws_at_most():
    # A = 2 at p = 100,003 with 1,000 trials: the trials are small, so the
    # peak is the bincount's counts and the empirical law they are divided
    # into, which StateDistribution takes without a copy
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 100_003)
    simulate(chain, 20, trials=1000, seed=1)
    tracemalloc.start()
    try:
        emp = simulate(chain, 20, trials=1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 8 * chain.n_states, peak / (8 * chain.n_states)
    assert np.array_equal(emp.values, reference_simulate(chain, 20, 1000, 1))


def test_mixing_time_hand_chain():
    chain = hand_chain()
    assert mixing_time(chain, 0.25) == 2
    assert mixing_time(chain, 0.1) == 3
    assert mixing_time(chain, 0.5, n_cap=0) is None
    with pytest.raises(ValueError, match="step count"):
        mixing_time(chain, 0.5, n_cap=-1)
    with pytest.raises(ValueError):
        mixing_time(chain, 0.0)
    with pytest.raises(ValueError):
        mixing_time(chain, 1.0)


def test_mixing_time_uniform_increments_is_one():
    mu = IncrementDistribution.fair([(r,) for r in range(5)])
    chain = ChainSpec(IntMatrix.from_rows([[2]]), mu, 5)
    assert mixing_time(chain, 0.25) == 1


def test_state_cap_env_override(monkeypatch):
    monkeypatch.setenv(STATE_CAP_ENV, "10")
    assert state_cap() == 10
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 11)
    with pytest.raises(StateSpaceTooLarge):
        evolve(chain, 1)
    with pytest.raises(StateSpaceTooLarge):
        simulate(chain, 1, trials=10, seed=0)
    monkeypatch.delenv(STATE_CAP_ENV)
    assert state_cap() == 4_000_000


def slow_chain(p):
    """A = I with fair {0, 1} increments: n_mix grows like p**2."""
    return ChainSpec(IntMatrix.from_rows([[1]]), fair_two_point(1), p)


@st.composite
def small_chains(draw, max_p=None):
    k = draw(st.sampled_from([1, 2]))
    moduli = [2, 3, 4, 5, 7, 9, 11, 13] if k == 2 else [2, 3, 5, 9, 13, 31, 53]
    p = draw(st.sampled_from([q for q in moduli if max_p is None or q <= max_p]))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        a = IntMatrix.identity(k)
    else:
        rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
        a = IntMatrix.from_rows(rows)
        if math.gcd(det_int(a), p) != 1:
            a = IntMatrix.identity(k)
    points = draw(
        st.lists(st.tuples(*[entry] * k), min_size=1, max_size=4, unique=True)
    )
    weights = draw(
        st.lists(st.floats(0.05, 1.0), min_size=len(points), max_size=len(points))
    )
    total = sum(weights)
    mu = IncrementDistribution(k, tuple(points), tuple(w / total for w in weights))
    x0 = draw(st.tuples(*[st.integers(0, p - 1)] * k))
    return ChainSpec(a, mu, p, x0=x0)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=small_chains(max_p=13), n=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_property_simulate_lies_near_the_exact_law(chain, n, seed):
    # E[tv] <= 0.5 * sum_x sqrt(P(x) / trials) <= 0.5 * sqrt(N / trials) by
    # Cauchy-Schwarz, and one trajectory moves tv by at most 1 / trials, so
    # by McDiarmid tv exceeds its mean by 0.05 with probability at most
    # exp(-2 * 0.05**2 * trials) = exp(-20)
    trials = 4000
    emp = simulate(chain, n, trials=trials, seed=seed)
    exact = evolve(chain, n)
    dist = 0.5 * float(np.abs(emp.values - exact.values).sum())
    assert dist <= 0.5 * (chain.n_states / trials) ** 0.5 + 0.05


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=small_chains(), n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_property_simulate_matches_the_one_expression_step(chain, n, seed):
    emp = simulate(chain, n, trials=300, seed=seed)
    assert np.array_equal(emp.values, reference_simulate(chain, n, 300, seed))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=small_chains(), eps=st.floats(0.01, 0.9), cap_shift=st.integers(-3, 3))
def test_mixing_time_matches_dense_search(chain, eps, cap_shift):
    reach = 600
    dense = dense_mixing_time(chain, eps, reach)
    assert mixing_time(chain, eps, reach) == dense
    # a cap just below or above the dense answer
    cap = max(0, min(reach, (reach if dense is None else dense) + cap_shift))
    assert mixing_time(chain, eps, cap) == (dense if dense is not None and dense <= cap else None)
    # the Fourier search itself, from the shortest prefix that allows it
    if dense is None or dense > 1:
        try:
            found = _fourier_search(chain, eps, reach, 1)
        except _NearTie:
            return
        assert found == dense


# unit-root matrices, whose chains mix in order p**2 steps, past the prefix
UNIT_ROOT_ROWS = (
    [[1]],
    [[-1]],
    [[1, 0], [0, 1]],
    [[1, 1], [0, 1]],
    [[1, 1], [0, 2]],
    [[0, -1], [1, 0]],
)


@st.composite
def unit_root_chains(draw):
    rows = draw(st.sampled_from(UNIT_ROOT_ROWS))
    k = len(rows)
    p = draw(st.sampled_from([5, 7, 11, 17, 23, 31] if k == 1 else [3, 5, 7, 11, 13]))
    # {0, e_1}, which leaves A = I and the shear in k = 2 unmixed for good,
    # or {0, e_1, ..., e_k}
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    support = [(0,) * k] + units[: 1 if draw(st.booleans()) else k]
    return ChainSpec(IntMatrix.from_rows(rows), IncrementDistribution.fair(support), p)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=unit_root_chains(), eps=st.floats(0.02, 0.5), data=st.data())
def test_property_a_hint_moves_no_answer(chain, eps, data):
    reach = 400
    dense = dense_mixing_time(chain, eps, reach)
    prefix = _dense_prefix(chain.n_states, len(chain.mu.support))
    near = reach if dense is None else dense
    hint = data.draw(
        st.one_of(
            st.sampled_from([0, 1, near - 1, near, near + 1]),
            st.integers(2, prefix),  # at most the prefix
            st.integers(2 * prefix, 4 * prefix),  # about where the hinted path starts
            st.integers(0, 2 * reach),
            st.integers(reach, reach + 40),  # at or past n_cap
            st.integers(10 * reach, 10**9),  # far too high
        ),
        label="hint",
    )
    # a bad hint may cost transforms, never the answer, and raises nothing
    assert mixing_time(chain, eps, reach, hint=hint) == dense
    cap = data.draw(st.integers(max(0, near - 3), near + 3), label="n_cap")
    expected = dense if dense is not None and dense <= cap else None
    assert mixing_time(chain, eps, cap, hint=hint) == expected


def dense_searches(monkeypatch):
    """The n_cap of each _mixing_time_dense call from now on, in order."""
    calls = []
    original = evolution._mixing_time_dense

    def counted(chain, eps, n_cap):
        calls.append(n_cap)
        return original(chain, eps, n_cap)

    monkeypatch.setattr(evolution, "_mixing_time_dense", counted)
    return calls


def test_hinted_mixing_time_skips_the_dense_prefix(monkeypatch):
    # from a hint, the answer or one that misses low, high or past n_cap,
    # the search makes no dense step; a hint within twice the prefix leaves
    # the search as it was, prefix first
    chain = slow_chain(101)
    n_mix, prefix = 1936, _dense_prefix(chain.n_states, 2)
    assert prefix == 16
    calls = dense_searches(monkeypatch)
    for hint in (n_mix, n_mix - 1, 100, 3 * n_mix, 10**9):
        assert mixing_time(chain, 0.25, hint=hint) == n_mix
        assert calls == [], hint
    # 32 is the largest hint not past twice the prefix
    assert mixing_time(chain, 0.25, hint=32) == n_mix
    assert calls == [prefix]


def test_hint_within_twice_the_prefix_builds_no_orbit_state():
    # A = 2 at p = 10,007 mixes at 13, inside its dense prefix; the hint
    # 100 is not past twice the prefix, so the search refuses it before it
    # builds the one-step state's transform or index map, as with no hint
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 10_007)
    assert 100 <= 2 * _dense_prefix(chain.n_states, 2)
    assert mixing_time(chain, 0.25, hint=100) == 13
    assert "_perm_t" not in vars(chain)
    assert "_perm" not in vars(chain)


def test_hinted_mixing_time_past_the_answer_runs_the_whole_search(monkeypatch):
    # p = 5 mixes within the dense prefix; the search steps down from the
    # hint, mixed each time, to the floor just past twice the prefix, still
    # mixed there, and then the prefix answers
    chain = slow_chain(5)
    prefix = _dense_prefix(chain.n_states, 2)
    n_mix = dense_mixing_time(chain, 0.25, prefix)
    assert n_mix is not None
    calls = dense_searches(monkeypatch)
    with pytest.raises(_NearTie, match=f"within twice the prefix {prefix}"):
        _fourier_search(chain, 0.25, 10**5, prefix, 1000)
    assert mixing_time(chain, 0.25, hint=1000) == n_mix
    assert calls == [prefix]


def test_hinted_mixing_time_on_a_tie_runs_the_whole_search(monkeypatch):
    # the hint's bisection meets the tie at m; so does the unhinted search
    # after its prefix, and dense stepping answers
    chain = slow_chain(31)
    m = 100
    prefix = _dense_prefix(chain.n_states, 2)
    eps = tv_distance(evolve(chain, m))  # a dense tv value exactly
    with pytest.raises(_NearTie, match=f"tv\\({m}\\)"):
        _fourier_search(chain, eps, 5000, prefix, m)
    calls = dense_searches(monkeypatch)
    assert mixing_time(chain, eps, 5000, hint=m) == m
    assert calls == [prefix, 5000]


def counted_transforms(monkeypatch):
    """A one-item list holding the count of np.fft.fftn calls from now on."""
    count = [0]
    fftn = np.fft.fftn

    def counted(*args, **kwargs):
        count[0] += 1
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    return count


def test_hinted_mixing_time_searches_outward_from_the_hint(monkeypatch):
    # a hint within one step of the answer decides in at most 5 transforms:
    # the hint, up to two steps out, and the crossing recompute's two.  One
    # off by 2**j takes at most j + 2 steps out, then bisects a gap of at
    # most 2**j, so it decides in at most 2 j + 6.
    chain = slow_chain(101)
    n_mix, prefix = 1936, _dense_prefix(chain.n_states, 2)
    assert dense_mixing_time(chain, 0.25, 10**4) == n_mix
    hints = [(n_mix + d, 5) for d in (-1, 0, 1)]
    hints += [
        (n_mix + side * 2**j, 2 * j + 6)
        for j in range(1, 17)
        for side in (-1, 1)
        if n_mix + side * 2**j > 2 * prefix
    ]
    calls = dense_searches(monkeypatch)
    ffts = counted_transforms(monkeypatch)
    for hint, most in hints:
        ffts[0] = 0
        assert mixing_time(chain, 0.25, hint=hint) == n_mix
        assert ffts[0] <= most, (hint, ffts[0])
    assert calls == []


@st.composite
def identity_mod_p_chains(draw):
    """A = I + p M at k <= 3, which is I mod p: M = 0, or M drawn, such as
    [[1, 0], [0, 0]] for [[1 + p, 0], [0, 1]] or [[0, 1], [0, 0]] for
    [[1, p], [0, 1]]; a random support of up to four points, random weights."""
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from({1: [2, 5, 11, 23, 31, 53], 2: [2, 3, 5, 7, 11, 13], 3: [2, 3, 5]}[k]))
    zero = [[0] * k for _ in range(k)]
    entries = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    m = draw(st.one_of(st.just(zero), st.lists(entries, min_size=k, max_size=k)), label="M")
    rows = [[int(i == j) + p * m[i][j] for j in range(k)] for i in range(k)]
    point = st.tuples(*[st.integers(-3, 3)] * k)
    support = draw(st.lists(point, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(support), max_size=len(support)))
    probs = [w / math.fsum(weights) for w in weights]
    mu = IncrementDistribution(k, tuple(support), tuple(probs))
    return ChainSpec(IntMatrix.from_rows(rows), mu, p)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    chain=identity_mod_p_chains(),
    eps=st.floats(0.02, 0.5),
    n_cap=st.integers(1, 400),
    data=st.data(),
)
def test_property_identity_mod_p_searches_match_dense_stepping(chain, eps, n_cap, data):
    # the orbit states of a chain with A = I mod p carry no index map, so
    # the table of alpha -> T alpha is never built, hinted or not
    dense = dense_mixing_time(chain, eps, n_cap)
    near = n_cap if dense is None else dense
    hint = data.draw(
        st.one_of(
            st.none(),
            st.sampled_from([near - 1, near, near + 1, 10**9]),
            st.integers(0, 2 * n_cap),
        ),
        label="hint",
    )
    assert mixing_time(chain, eps, n_cap, hint=hint) == dense
    assert "_perm_t" not in vars(chain)


@pytest.mark.parametrize(
    "rows, p",
    [
        ([[1]], 31),
        ([[2]], 101),
        ([[2, 1], [1, 1]], 31),
        ([[1, 0], [1, 1]], 17),
        ([[0, -1], [1, 0]], 13),
    ],
)
@pytest.mark.parametrize("eps", [0.25, 0.05])
def test_fourier_search_decides_without_fallback(rows, p, eps):
    # away from ties the Fourier search answers by itself, from n = 1
    a = IntMatrix.from_rows(rows)
    chain = ChainSpec(a, fair_two_point(a.k), p, x0=(1,) * a.k)
    dense = dense_mixing_time(chain, eps, 10**4)
    assert dense is not None and dense > 1
    assert _fourier_search(chain, eps, 10**4, 1) == dense


def test_mixing_time_escalates_on_a_tie(monkeypatch):
    chain = slow_chain(31)
    m = 100
    assert m > _dense_prefix(chain.n_states, 2)
    eps = tv_distance(evolve(chain, m))  # a dense tv value exactly
    calls = []
    original = evolution._mixing_time_dense

    def counted(chain, eps, n_cap):
        calls.append(n_cap)
        return original(chain, eps, n_cap)

    monkeypatch.setattr(evolution, "_mixing_time_dense", counted)
    assert mixing_time(chain, eps, 5000) == original(chain, eps, 5000) == m
    assert calls[-1] == 5000  # the full dense search ran after the prefix


def test_mixing_time_falls_back_when_the_crossing_does_not_recompute(monkeypatch):
    # the recomputed state for n_mix - 1 steps comes back one step long, so
    # it is already mixed and the crossing check hands the search to dense
    # stepping
    chain = slow_chain(101)
    n_mix, prefix = 1936, _dense_prefix(chain.n_states, 2)
    assert prefix == 16
    original = fourier._power

    def long_by_one(one, n):
        return original(one, n + 1 if n == n_mix - 1 else n)

    monkeypatch.setattr(fourier, "_power", long_by_one)
    with pytest.raises(_NearTie, match=f"crossing at n = {n_mix} did not recompute"):
        _fourier_search(chain, 0.25, evolution.DEFAULT_N_CAP, prefix)
    assert mixing_time(chain, 0.25) == dense_mixing_time(chain, 0.25, 10**4) == n_mix


def test_mixing_time_dense_fallback_stays_within_the_budget(monkeypatch):
    # every Fourier tv lies within round-off of eps = 1e-300, so the search
    # falls back to dense stepping, which a cap of 300 limits to
    # 64 * 300 // 11 - 1 = 1744 steps at p = 11
    monkeypatch.setenv(STATE_CAP_ENV, "300")
    chain = slow_chain(11)
    assert mixing_time(chain, 1e-300, 1744) is None
    with pytest.raises(StateSpaceTooLarge, match="unmixed after 1744 dense steps"):
        mixing_time(chain, 1e-300, 1745)


# per k, moduli on both sides of the sparse phase's floor p**k >= 2**10
SMALL_AND_LARGE_MODULI = {1: [2, 3, 5, 31, 101, 2003], 2: [2, 3, 5, 11, 37], 3: [2, 3, 5, 7, 11]}
# per k, moduli with p**k >= 2**10 only, so every chain has a sparse phase:
# on arcs for k = 1, on the support for k >= 2
LARGE_MODULI = {1: [1031, 2003, 4099], 2: [33, 37, 53], 3: [11, 13]}


def coprime_rows(draw, k, p):
    """Rows of a k x k matrix with entries in -3..3 and gcd(det A, p) = 1."""
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    if math.gcd(det_int(IntMatrix.from_rows(rows)), p) != 1:
        # keep the upper triangle over a unit diagonal: det = 1
        rows = [[int(i == j) if i >= j else c for j, c in enumerate(r)] for i, r in enumerate(rows)]
    return rows


def twinned_increments(draw, k, p):
    """1 to 4 increments in Z^k with entries in -3..3 and random weights, two
    of them congruent mod p when a twin is drawn."""
    entry = st.integers(-3, 3)
    points = draw(st.lists(st.tuples(*[entry] * k), min_size=1, max_size=4, unique=True))
    if len(points) < 4 and draw(st.booleans()):
        twin = draw(st.sampled_from(points))
        lift = draw(st.tuples(*[st.integers(-2, 2)] * k).filter(any))
        lifted = tuple(c + p * m for c, m in zip(twin, lift))
        if lifted not in points:
            points.append(lifted)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(points), max_size=len(points)))
    total = sum(weights)
    return IncrementDistribution(k, tuple(points), tuple(w / total for w in weights))


@st.composite
def support_chains(draw, dims=(1, 2, 3), moduli=SMALL_AND_LARGE_MODULI):
    """Chains with gcd(det A, p) = 1, a random x0 and 1 to 4 increments, two
    of them congruent mod p when a twin is drawn, on moduli drawn from
    moduli[k]."""
    k = draw(st.sampled_from(dims))
    p = draw(st.sampled_from(moduli[k]))
    rows = coprime_rows(draw, k, p)
    mu = twinned_increments(draw, k, p)
    x0 = draw(st.tuples(*[st.integers(0, p - 1)] * k))
    return ChainSpec(IntMatrix.from_rows(rows), mu, p, x0=x0)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=support_chains(), n=st.integers(0, 10))
def test_property_support_steps_match_evolve_bitwise(chain, n):
    # the law stepped on its support, scattered at any n, is step_exact's law
    codes, values = np.array([encode_state(chain.x0, chain.p)]), np.ones(1)
    rows = evolution._mod_rows(chain.a, chain.p)
    for i, dist in dense_laws(chain, n):
        if i:
            codes, values = _step_support(codes, values, rows, chain._shifts, chain.p)
        assert np.all(np.diff(codes) > 0)
        law = np.zeros(chain.n_states)
        law[codes] = values
        assert np.array_equal(law, dist.values), i


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=support_chains(moduli=LARGE_MODULI), n=st.integers(0, 12))
def test_property_evolve_iter_matches_dense_laws_bitwise(chain, n):
    # past the sparse phase's floor evolve_iter takes its early steps on
    # arcs (k = 1) or on the support (k >= 2); every law it yields is
    # still step_exact's, bit for bit
    laws = zip(evolve_iter(chain, n), dense_laws(chain, n), strict=True)
    for (i, dist), (j, dense) in laws:
        assert i == j
        assert np.array_equal(dist.values, dense.values), i
        assert not dist.values.flags.writeable
    assert np.array_equal(evolve(chain, n).values, dense.values)


# per k, prime and composite moduli on both sides of the floor 2**10
FRAME_MODULI = {1: [2, 9, 101, 1024, 2003, 4096], 2: [4, 11, 33, 45], 3: [6, 7, 11, 12]}


@st.composite
def frame_chains(draw):
    """Chains for evolve's reversed frame, on prime and composite moduli:
    A with gcd(det A, p) = 1 with small entries (for k = 1 any unit
    residue, past LINE_CUTOFF too), congruent to I mod p, or lifted by
    multiples of p to negative entries and entries past p (some past
    int64); twinned increments, which may fold mod p, and a random x0."""
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from(FRAME_MODULI[k]))
    kind = draw(st.sampled_from(["small", "identity", "lifted"]))
    if kind == "identity":
        rows = [[int(i == j) for j in range(k)] for i in range(k)]
    elif k == 1 and kind == "small":
        rows = [[draw(st.integers(-(p // 2), p // 2).filter(lambda a: math.gcd(a, p) == 1))]]
    else:
        rows = coprime_rows(draw, k, p)
    if kind != "small":
        lift = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
        rows = [[c + p * draw(lift) for c in row] for row in rows]
    x0 = draw(st.tuples(*[st.integers(0, p - 1)] * k))
    return ChainSpec(IntMatrix.from_rows(rows), twinned_increments(draw, k, p), p, x0=x0)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=frame_chains(), n=st.one_of(st.just(0), st.integers(0, 14)))
# an arc within the cutoff that stays sparse up to n and straddles 0; a
# support past the cutoff whose sparse phase reaches n; the cat map on its
# support, then in the frame, at a composite modulus; |a| past the cutoff
# with a lift past int64, its support stepped into the frame; A = I mod p
# at k = 3; A = 9 with the support {0..19}, whose phase ends at i = 1, so
# the frame is entered from a k = 1 support whose translates overlap; the
# cat map at p = 45, whose phase ends at i = 5 = n - 1, so the entry step
# runs alone; the quarter turn at p = 37, whose phase ends at i = 8, so the
# entry step's power is A**4 = I mod p
@example(chain=ChainSpec(IntMatrix.from_rows([[1]]), fair_two_point(1), 4096, x0=(4090,)), n=14)
@example(chain=ChainSpec(IntMatrix.from_rows([[-11]]), fair_two_point(1), 2003, x0=(1000,)), n=4)
@example(chain=ChainSpec(IntMatrix.from_rows([[2, 1], [1, 1]]), fair_two_point(2), 45), n=12)
@example(
    chain=ChainSpec(IntMatrix.from_rows([[11 + 2003 * 2**70]]), fair_two_point(1), 2003), n=12
)
@example(
    chain=ChainSpec(
        IntMatrix.from_rows([[13, 12, 0], [0, 1, -24], [0, 0, -11]]), fair_two_point(3), 12
    ),
    n=9,
)
@example(
    chain=ChainSpec(
        IntMatrix.from_rows([[9]]), IncrementDistribution.fair([(c,) for c in range(20)]), 2003
    ),
    n=3,
)
@example(chain=ChainSpec(IntMatrix.from_rows([[2, 1], [1, 1]]), fair_two_point(2), 45), n=6)
@example(chain=ChainSpec(IntMatrix.from_rows([[0, -1], [1, 0]]), fair_two_point(2), 37), n=12)
def test_property_evolve_matches_step_exact_bitwise(chain, n):
    # a chain that is not a stride chain takes the first step after its
    # sparse phase as one support step by x -> A**(n-i) x + A**(n-i-1) h,
    # and the rest in the reversed frame A**(n-j) X_j, with no table: P_n is n
    # iterations of step_exact from the point mass at x0, bit for bit,
    # whichever side of the sparse hand-off n lies
    assert chain._stride is None or chain.k == 1
    law = evolve(chain, n)
    assert "_perm" not in vars(chain)
    *_, (_, dense) = dense_laws(chain, n)
    assert np.array_equal(law.values, dense.values)
    assert not np.signbit(law.values).any()
    assert not law.values.flags.writeable


def test_evolve_holds_two_laws_and_builds_no_table():
    # the cat map with fair {0, e1} at p = 705, n = 30: 13 support steps,
    # then 17 in the reversed frame, the first from the support, each
    # later one writing the translates of one law into the other through
    # a scratch block.  tracemalloc peaks in
    # laws (8 bytes a state): 2.10 here; 4.10 when each step was
    # step_exact's (its input, the pushed law, the new law and the table)
    chain = ChainSpec(IntMatrix.from_rows([[2, 1], [1, 1]]), fair_two_point(2), 705)
    tracemalloc.start()
    try:
        evolve(chain, 30)
        peak = tracemalloc.get_traced_memory()[1] / (8 * chain.n_states)
    finally:
        tracemalloc.stop()
    assert "_perm" not in chain.__dict__
    assert peak < 2.5, peak


def random_law(chain, seed):
    """A random law on the chain's states with about 30% exact zeros."""
    rng = np.random.default_rng(seed)
    raw = rng.random(chain.n_states)
    raw[rng.random(chain.n_states) < 0.3] = 0.0
    raw[0] += 1.0  # never all zero
    return StateDistribution(chain.p, chain.k, raw / raw.sum())


@st.composite
def slab_chains(draw):
    """Chains for the slab translations of step_exact: k = 1..3, A coprime
    to p, a random x0, and 1 to 4 increments with entries 0, 1, 2, -1 and
    p - 1, so that the folded shifts have zero components, one or several
    nonzero ones, the entry p - 1, and twins when -1 and p - 1 meet."""
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from(SMALL_AND_LARGE_MODULI[k]))
    entry = st.sampled_from([0, 1, 2, -1, p - 1])
    points = draw(st.lists(st.tuples(*[entry] * k), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(points), max_size=len(points)))
    total = sum(weights)
    mu = IncrementDistribution(k, tuple(points), tuple(w / total for w in weights))
    x0 = draw(st.tuples(*[st.integers(0, p - 1)] * k))
    return ChainSpec(IntMatrix.from_rows(coprime_rows(draw, k, p)), mu, p, x0=x0)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=slab_chains(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_property_step_exact_matches_roll_step_bitwise(chain, seed, n):
    # from the point mass at x0 and from a random law with exact zeros,
    # each slab-added step is the roll-added step, bit for bit
    starts = [StateDistribution.point_mass(chain.p, chain.k, chain.x0), random_law(chain, seed)]
    for dist in starts:
        expected = dist
        for i in range(n):
            dist, expected = step_exact(dist, chain), roll_step(expected, chain)
            assert np.array_equal(dist.values, expected.values), i
            assert not np.signbit(dist.values).any()
            assert not dist.values.flags.writeable


def wide_increments(draw, k, p):
    """For k = 1: 0 and one or two increments c with |c| up to p / 2, at
    random weights, so the spread may be far wider than the support."""
    far = st.one_of(st.sampled_from([p // 2, -(p // 2)]), st.integers(-(p // 2), p // 2))
    points = [0] + draw(st.lists(far.filter(bool), min_size=1, max_size=2, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(points), max_size=len(points)))
    total = sum(weights)
    return IncrementDistribution(1, tuple((c,) for c in points), tuple(w / total for w in weights))


def arc_increments(draw, k, p):
    """Wide or twinned increments, at even odds."""
    return draw(st.sampled_from([wide_increments, twinned_increments]))(draw, k, p)


@st.composite
def line_chains(
    draw, moduli=SMALL_AND_LARGE_MODULI[1], near=LINE_CUTOFF + 4, increments=twinned_increments
):
    """k = 1 chains on a modulus drawn from moduli, whose multiplier has a
    least residue mod p within near of 0 (+-1 and negative ones too) or
    anywhere, lifted by a multiple of p past int64 when drawn; a random x0
    and increments drawn by increments (twinned ones by default), whose
    least residues may be negative."""
    p = draw(st.sampled_from(moduli))
    residue = draw(st.one_of(st.integers(-near, near), st.integers(-(p // 2), p // 2)))
    residue += residue % p == 0  # p is prime: coprime now
    lift = draw(st.one_of(st.just(0), st.integers(-(2**70), 2**70)))
    mu = increments(draw, 1, p)
    x0 = draw(st.integers(0, p - 1))
    return ChainSpec(IntMatrix.from_rows([[residue + p * lift]]), mu, p, x0=(x0,))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    chain=line_chains(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), dense=st.booleans()
)
def test_property_k1_step_matches_roll_step_bitwise(chain, seed, n, dense):
    # within the cutoff a k = 1 step writes each translate from the law by
    # strided slices and builds no table; past it the step scatters
    # through the table; either way each law is roll_step's, bit for bit
    start = StateDistribution.point_mass(chain.p, 1, chain.x0)
    if dense:
        start = random_law(chain, seed)
    laws = [start]
    for _ in range(n):
        laws.append(step_exact(laws[-1], chain))
    residue = chain.a.rows[0][0] % chain.p
    strided = min(residue, chain.p - residue) <= LINE_CUTOFF
    assert ("_perm" in vars(chain)) != strided
    expected = start
    for i, dist in enumerate(laws[1:]):
        expected = roll_step(expected, chain)
        assert np.array_equal(dist.values, expected.values), i
        assert not np.signbit(dist.values).any()
        assert not dist.values.flags.writeable


@pytest.mark.parametrize("a, strided", [(2, True), (-8, True), (8, True), (9, False), (-9, False)])
def test_k1_chain_within_the_cutoff_builds_no_table(a, strided):
    # evolve's last steps at p = 2003 are dense ones: one at a = 2, whose
    # arc of P_9 steps to the arc of P_10 (P_10 is held as the arc of P_9
    # under one step, P_11 under two), which steps straight into the
    # dense law of P_11, seven at
    # a = +-8, whose arc of P_4 steps into P_5, and seven at a = +-9, past
    # the cutoff, in the reversed frame from the support of P_5; none
    # builds a table, and a dense step_exact builds it only past the cutoff
    chain = ChainSpec(IntMatrix.from_rows([[a + 2003]]), fair_two_point(1), 2003)
    evolve(chain, 12)
    assert "_perm" not in vars(chain)
    step_exact(StateDistribution.point_mass(2003, 1, (0,)), chain)
    assert ("_perm" not in vars(chain)) == strided


@pytest.mark.parametrize(
    "a, n_mix, dense_steps", [(8, 22, 14), (-8, 22, 14), (9, 22, 8), (-9, 22, 8), (100, 21, 7)]
)
def test_a_chain_holds_its_sparse_law_on_arcs_only_within_the_cutoff(
    monkeypatch, a, n_mix, dense_steps
):
    # at p = 999,983 with fair {0, 1} a stride chain (|a| <= LINE_CUTOFF)
    # takes 7 arc steps and its arcs fill Z_p early, 14 steps before it
    # mixes; past the cutoff the support phase runs while 64 |supp P_i|
    # stays below p, to P_14, so 8 or 7 dense steps are left (15 and 18
    # when those chains held arcs)
    calls = {"step_exact": 0, "_step_arc": 0, "_step_support": 0}

    def counted(name):
        def call(*args, _original=getattr(evolution, name)):
            calls[name] += 1
            return _original(*args)

        return call

    for name in calls:
        monkeypatch.setattr(evolution, name, counted(name))
    chain = ChainSpec(IntMatrix.from_rows([[a]]), fair_two_point(1), 999_983)
    assert mixing_time(chain, 0.25) == n_mix
    assert calls["step_exact"] == dense_steps
    stride = abs(a) <= LINE_CUTOFF
    assert (calls["_step_arc"] > 0, calls["_step_support"] > 0) == (stride, not stride)
    assert chain._stride == (a if stride else None)


@pytest.mark.parametrize(
    "rows, stride",
    [
        ([[8 + 999_983 * 2**70]], 8),
        ([[1, 0], [0, 1]], None),
        ([[2, 1], [1, 1]], None),
        ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], None),
    ],
)
def test_stride_is_decided_by_k_and_the_least_residue(rows, stride):
    # the least residue of the lifted 8 is 8 (+-8 and +-9 are in the test
    # above); no chain with k >= 2 has a stride, whatever its entries
    chain = ChainSpec(IntMatrix.from_rows(rows), fair_two_point(len(rows)), 999_983)
    assert chain._stride == stride


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    chain=line_chains(moduli=LARGE_MODULI[1] + [1021], near=3, increments=arc_increments),
    n=st.integers(8, 64),
    eps=st.floats(0.05, 0.95),
)
def test_property_arc_phase_matches_dense_laws_bitwise(chain, n, eps):
    # a k = 1 law is stepped on an arc from the point mass at x0 on, and
    # the arc may straddle 0, until the arc two steps on would wrap or
    # i = n, then held on that arc under one and two steps: for a few
    # steps at |a| >= 2 (one or two with a support as wide as {0, p / 2},
    # whose arc may hold all p states when made dense), and up to the
    # whole circle at |a| = 1 (1021 lies just below the floor 2**10, so
    # it has no arc phase); no stride chain (|a| within LINE_CUTOFF) takes
    # a support step, every law evolve_iter yields is still step_exact's,
    # bit for bit, and the
    # mixing search finds the same n.  One folded increment never leaves
    # its one-state arc (see the point-mass test below).
    assume(len(chain._shifts) > 1)

    def no_support_step(*args):
        raise AssertionError("a stride chain took a support step")

    with pytest.MonkeyPatch.context() as patch:
        if chain._stride is not None:
            patch.setattr(evolution, "_step_support", no_support_step)
        laws = zip(evolve_iter(chain, n), dense_laws(chain, n), strict=True)
        for (i, dist), (j, dense) in laws:
            assert i == j
            assert np.array_equal(dist.values, dense.values), i
            assert not np.signbit(dist.values).any()
            assert not dist.values.flags.writeable
        assert np.array_equal(evolve(chain, n).values, dense.values)
        assert mixing_time(chain, eps, 200) == dense_mixing_time(chain, eps, 200)


def test_arc_phase_leaves_a_fast_chain_no_dense_step(monkeypatch):
    # A = 2 with fair {0, 1} at p = 999,983: P_n lies on an arc of 2**n
    # states, and the count certifies tv > 0.25 up to n = 19
    # (2**19 + 1 < 0.75 p); the arc of P_19 would step to an arc whose
    # image wraps, so P_19 and P_20, the mixed law, are held as the arc of
    # P_18 under one and two steps, and the search makes no step_exact
    # (one, when the law of P_19 was the first made dense; six, had the
    # law gone dense once 64 |supp P_n| passed p, at n = 14)
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 999_983)
    calls = 0

    def counted(*args, _original=evolution.step_exact):
        nonlocal calls
        calls += 1
        return _original(*args)

    monkeypatch.setattr(evolution, "step_exact", counted)
    assert mixing_time(chain, 0.25) == 20
    assert calls == 0
    assert "_perm" not in vars(chain)


@settings(max_examples=120, deadline=None)
@given(k=st.integers(1, 3), data=st.data())
def test_property_index_map_matches_matmul_oracle(k, data):
    # the broadcast build equals the state table times M mod p, for any
    # integer entries: negative, past int64, and M singular mod p too
    p = data.draw(st.sampled_from(SMALL_AND_LARGE_MODULI[k]))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    rows = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    matrix = IntMatrix.from_rows(rows)
    codes = index_map(matrix, p, k)
    assert codes.dtype == np.int64
    assert np.array_equal(codes, matmul_index_map(matrix, p, k))


@pytest.mark.parametrize(
    "rows, support, p, step_ratio, perm_ratio",
    [
        ([[2]], [(0,), (1,)], 100_003, 1.4, 2.1),
        ([[2]], [(0,), (1,), (2,)], 100_003, 1.4, 2.1),
        ([[2, 1], [1, 1]], [(0, 0), (1, 0)], 705, 2.1, 2.1),
        ([[2, 1], [1, 1]], [(0, 0), (1, 0), (0, 1)], 705, 2.2, 2.1),
    ],
)
def test_step_exact_and_its_table_stay_within_their_memory(
    rows, support, p, step_ratio, perm_ratio
):
    # tracemalloc peaks in units of one law (8 bytes a state): the
    # permutation table's build, and one step beyond its input law.  A
    # k = 1 step with a small multiplier builds no table and holds the
    # result and the scratch block its later translates pass through (a
    # third of a law at p = 100,003); the k = 2 step, its table built,
    # holds the pushed law, the result and the scratch block (a fifteenth
    # of a law at p = 705), with two increments or three
    chain = ChainSpec(IntMatrix.from_rows(rows), IncrementDistribution.fair(support), p)
    law_bytes = 8 * chain.n_states
    dist = StateDistribution.uniform(p, chain.k)
    peaks = {}
    work = {
        "perm": lambda: ChainSpec(chain.a, chain.mu, p)._perm,
        "step": lambda: step_exact(dist, chain),
    }
    if chain.k > 1:
        chain._perm
    for name, run in work.items():
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1] / law_bytes
        finally:
            tracemalloc.stop()
    assert peaks["perm"] <= perm_ratio and peaks["step"] <= step_ratio, peaks
    assert ("_perm" in vars(chain)) == (chain.k > 1)


def test_every_arc_law_is_checked(monkeypatch):
    # A = 2 with fair {0, 1} at p = 100,003: the arcs double from the
    # point mass, which is checked by no step, up to P_15, whose arc two
    # steps on would wrap, so P_16 and P_17 are held as the arc of P_15
    # under one and two steps.  P_16 is made dense from the arc of P_15;
    # P_17 from the arc of P_16, the arc between, made only then; each
    # made arc and the dense law go through the one check
    # StateDistribution runs, once
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 100_003)
    checked = []

    def recorded(arr, _original=evolution._check_law):
        checked.append(len(arr))
        _original(arr)

    monkeypatch.setattr(evolution, "_check_law", recorded)
    for n in (16, 17):
        checked.clear()
        evolve(chain, n)
        assert checked == [2**i for i in range(1, n)] + [100_003], n


@pytest.mark.parametrize("a", [1, -1])
def test_arc_phase_runs_up_to_the_whole_circle(a):
    # with |a| = 1 and fair {0, 1} the arc grows one state a step, so the
    # arcs of 1 to p - 1 states are made, and the last of them under one
    # step holds all p states without wrapping: _walk yields P_{p-1} as
    # that arc under one step, and P_p, the arc under two steps, whose
    # image wraps, steps to the arc between (of p states), which steps
    # straight into the first dense law (_step_lines); a lazy walk yields
    # P_p too as the arc under two steps, and makes it dense once resumed;
    # every law is still step_exact's, bit for bit
    p = 1031
    chain = ChainSpec(IntMatrix.from_rows([[a]]), fair_two_point(1), p, x0=(500,))
    held = [law for _, law in evolution._walk(chain, 1100) if isinstance(law, evolution._Arc)]
    forms = [(steps, len(values)) for _, values, steps in held]
    assert forms == [(0, length) for length in range(1, p)] + [(1, p - 1)]
    lazy = [law for _, law in evolution._walk(chain, 1100, lazy=True)]
    forms = [law.steps if isinstance(law, evolution._Arc) else len(law.values) for law in lazy]
    assert forms[: p + 2] == [0] * (p - 1) + [1, 2, p]
    assert lazy[p - 1][:2] == lazy[p][:2] == lazy[p - 2][:2]
    laws = zip(evolve_iter(chain, 1100), dense_laws(chain, 1100), strict=True)
    for (i, dist), (_, dense) in laws:
        assert np.array_equal(dist.values, dense.values), i


def fair_chain(rows, p, x0=None):
    """The chain of A = rows with fair increments on {0, e_1} mod p."""
    return ChainSpec(IntMatrix.from_rows(rows), fair_two_point(len(rows)), p, x0=x0)


@st.composite
def sparse_chains(draw):
    """Chains with a sparse phase (p**k >= 2**10), at even odds: stride
    chains, a in +-1..+-LINE_CUTOFF at p >= 1031, whose laws are held on
    arcs, and chains of k <= 3 held on the support (k = 1 past the
    cutoff), with a random x0 and wide or twinned increments."""
    if draw(st.booleans()):
        k, p = 1, draw(st.sampled_from(LARGE_MODULI[1]))
        rows = [[draw(st.sampled_from([-1, 1])) * draw(st.integers(1, LINE_CUTOFF))]]
    else:
        k = draw(st.sampled_from((1, 2, 3)))
        p = draw(st.sampled_from(LARGE_MODULI[k]))
        rows = coprime_rows(draw, k, p)
        if k == 1:
            rows = [[draw(st.sampled_from([-1, 1])) * draw(st.integers(LINE_CUTOFF + 1, p // 2))]]
    mu = arc_increments(draw, 1, p) if k == 1 else twinned_increments(draw, k, p)
    x0 = draw(st.tuples(*[st.integers(0, p - 1)] * k))
    return ChainSpec(IntMatrix.from_rows(rows), mu, p, x0=x0)


# fair {0, 1, 2}: with A = 2 the arc of P_n has 2**(n + 1) - 1 states,
# fewer than the 3**n of b_{n-1} s
THREE_POINT = IncrementDistribution.fair([(0,), (1,), (2,)])


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    chain=sparse_chains(),
    eps=st.one_of(st.floats(0.01, 0.999), st.floats(31 / 32, 0.999)),
    n_cap=st.integers(0, 300),
)
@example(chain=fair_chain([[1]], 1031, x0=(500,)), eps=0.2, n_cap=1100)
@example(chain=fair_chain([[-1]], 1031, x0=(500,)), eps=0.2, n_cap=1100)
@example(chain=fair_chain([[2]], 2003), eps=0.25, n_cap=60)
@example(chain=fair_chain([[2, 1], [1, 1]], 37), eps=0.99, n_cap=60)
@example(chain=ChainSpec(IntMatrix.from_rows([[2]]), THREE_POINT, 2003), eps=0.25, n_cap=60)
def test_property_the_search_skips_only_laws_the_count_rules_out(chain, eps, n_cap):
    # the search keeps the paper's count b_n >= |supp P_n| itself, from
    # the forms the walk holds each law in, and reads no tv the count
    # certifies above eps: every n it passes without reading tv has
    # tv(P_n) > eps, and its answer is the dense search's.  At A = +-1
    # with eps 0.2 the count stops certifying at an arc of about 823 of
    # the 1031 states, past 3/4 of the circle, and the search reads the tv
    # of each later arc, up to the last arc under two steps; at A = 2,
    # p = 2003 the last arc under two steps, held on all p states, decides
    seen, read = search_reads(chain, eps, n_cap)
    skipped = set(seen) - set(read)
    for n, dist in dense_laws(chain, max(skipped, default=-1)):
        if n in skipped:
            assert tv_distance(dist) > eps, n


def search_reads(chain, eps, n_cap):
    """The n the search walks past and the n whose tv it reads, in order;
    its answer is the dense search's."""
    seen, read = [], []
    walk, law_tv = evolution._walk, evolution._law_tv

    def seen_walk(*args, **kwargs):
        for n, law in walk(*args, **kwargs):
            seen.append(n)
            yield n, law

    def read_tv(*args):
        read.append(seen[-1])
        return law_tv(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "_walk", seen_walk)
        patch.setattr(evolution, "_law_tv", read_tv)
        found = _mixing_time_dense(chain, eps, n_cap)
    assert found == dense_mixing_time(chain, eps, n_cap)
    assert len(set(read)) == len(read) and set(read) <= set(seen)
    return seen, read


@pytest.mark.parametrize("eps, reads", [(0.25, [10, 11]), (0.5, [9, 10])])
def test_a_one_step_image_counts_the_arc_it_would_make(eps, reads):
    # A = 2 with fair {0, 1, 2} at p = 2003: P_9 is the arc of P_8 (511
    # states) under one step, which does not wrap, and the count takes the
    # 1023 states of its arc, as it did when that arc was made, not N; so
    # with eps 0.25 ((1 - eps) p = 1502) the search skips P_9 and reads
    # P_10 (under two steps) and P_11, and with eps 0.5 it reads P_9 and
    # P_10: the tvs it read when P_9 was made as an arc
    chain = ChainSpec(IntMatrix.from_rows([[2]]), THREE_POINT, 2003)
    forms = [law.steps for n, law in evolution._walk(chain, 10, lazy=True) if n >= 8]
    assert forms == [0, 1, 2]
    assert search_reads(chain, eps, 60)[1] == reads


@pytest.mark.parametrize(
    "rows, p",
    [
        ([[2]], 300_007),
        ([[-3]], 300_007),
        ([[9]], 300_007),
        ([[2, 1], [1, 1]], 705),
        ([[1, 1, 0], [0, 1, 1], [1, 0, 2]], 79),
    ],
)
def test_translates_past_the_scratch_block_stay_bitwise(rows, p):
    # with three increments the middle translate's slabs, and for A = 2
    # the arcs of P_15 and P_16, hold more than SCRATCH_STATES states, so
    # their products pass through the scratch block a block of rows at a
    # time; each law is still roll_step's and step_exact's, bit for bit
    k = len(rows)
    e1 = (1,) + (0,) * (k - 1)
    mu = IncrementDistribution(k, ((0,) * k, e1, tuple(-c for c in e1)), (0.25, 0.5, 0.25))
    chain = ChainSpec(IntMatrix.from_rows(rows), mu, p, x0=(p - 3,) + (0,) * (k - 1))
    dist = random_law(chain, 11)
    assert np.array_equal(step_exact(dist, chain).values, roll_step(dist, chain).values)
    if k == 1:
        *_, (_, dense) = dense_laws(chain, 17)
        assert np.array_equal(evolve(chain, 17).values, dense.values)


@pytest.mark.parametrize(
    "rows, support, p",
    [
        ([[2, 1], [1, 1]], [(0, 0), (1, 0)], 705),
        ([[11]], [(0,), (1,)], 100_003),
    ],
)
def test_second_of_two_translates_through_the_scratch_block_stays_bitwise(rows, support, p):
    # the second and last translate of a two-point law goes through the
    # scratch block a block of rows at a time like every later one: on the
    # cat map its long slab is 705 rows of 704 states, and A = 11 is past
    # LINE_CUTOFF, so its law is pushed through the table and its one
    # long slab is 100,002 states; each law is still roll_step's, bit for bit
    chain = ChainSpec(IntMatrix.from_rows(rows), IncrementDistribution.fair(support), p)
    dist = random_law(chain, 11)
    assert np.array_equal(step_exact(dist, chain).values, roll_step(dist, chain).values)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    chain=support_chains(dims=(1, 2)),
    eps=st.one_of(st.floats(0.01, 0.999), st.sampled_from([0.99, 1 - 1e-9, None])),
    above=st.floats(0.0, 1.0, exclude_max=True),
)
def test_property_mixing_time_matches_dense_search_near_one(chain, eps, above):
    # eps None stands for one in [1 - 1/N, 1), where P_0 may already be mixed;
    # the counting certificate must never skip a tv that would decide
    size = chain.n_states
    if eps is None:
        eps = min(1 - (1 - above) / size, math.nextafter(1.0, 0.0))
    dense = dense_mixing_time(chain, eps, 600)
    assert mixing_time(chain, eps, 600) == dense
    if eps >= tv_distance(StateDistribution.point_mass(chain.p, chain.k, chain.x0)):
        assert dense == 0


def test_mixing_time_skips_dense_work_the_counting_bound_decides(monkeypatch):
    # A = 2 with fair {0, 1}: P_n has at most 2**n states, so tv > 0.25 is
    # certain while 2**n + 1 < 0.75 p, up to n = 16 at p = 100,003; P_17,
    # the mixed law, is the arc of P_15 under two steps, whose tv is read
    # leaf by leaf, so the arc phase and the certificate leave no dense law
    # (_step_lines makes every law of a stride chain) and 1 tv sum
    # (_law_tv, through which the search reads every tv) of the 17 and 18
    # a plain search makes (1 and 2 with a margin of b_n / N, which
    # certified up to n = 15)
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 100_003)
    calls = {"step_exact": 0, "_step_lines": 0, "_law_tv": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(evolution, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(evolution, name, counted)
    assert mixing_time(chain, 0.25) == 17
    assert calls == {"step_exact": 0, "_step_lines": 0, "_law_tv": 1}, calls


@pytest.mark.parametrize("c", [0.5, 1, 1.5, 2, 3])
@pytest.mark.parametrize(
    "rows, support, p, n",
    [
        ([[2]], [(0,), (1,)], 1021, 9),
        ([[2]], [(0,), (1,)], 1031, 9),
        ([[2]], [(0,), (1,)], 1031, 4),
        ([[-2]], [(0,), (1,)], 1021, 9),
        ([[-2]], [(0,), (1,)], 1031, 9),
        ([[-2]], [(0,), (1,)], 4099, 11),
        ([[2, 0], [0, 2]], [(0, 0), (1, 1)], 31, 4),
        ([[2, 0], [0, 2]], [(0, 0), (1, 1)], 37, 5),
        ([[-2, 0], [0, -2]], [(0, 0), (1, 1)], 37, 5),
    ],
)
def test_mixing_time_matches_dense_search_at_the_counting_bound(
    monkeypatch, rows, support, p, n, c
):
    # A = +-2 with fair {0, 1} (k = 1) or fair {0, (1, 1)} (k = 2): before
    # it wraps P_n is uniform on 2**n states, so its tv is the counting
    # bound 1 - 2**n / N exactly, and eps = 1 - (2**n + c) / N puts it c / N
    # above eps, at moduli on both sides of the floor 2**10.  The
    # certificate (1 - eps) N > b_n + 1 (plus a float term far below one
    # state) skips the tv of P_n for c > 1 only, and dense stepping's
    # answer, n + 1, is found either way
    chain = ChainSpec(IntMatrix.from_rows(rows), IncrementDistribution.fair(support), p)
    eps = 1 - (2**n + c) / chain.n_states
    *_, (_, law) = dense_laws(chain, n)
    assert np.count_nonzero(law.values) == 2**n and tv_distance(law) > eps
    # before the count, which the dense search's own tv sums would join
    assert dense_mixing_time(chain, eps, 600) == n + 1
    sums = 0

    def counted(*args, _original=evolution._law_tv):
        nonlocal sums
        sums += 1
        return _original(*args)

    monkeypatch.setattr(evolution, "_law_tv", counted)
    assert mixing_time(chain, eps, 600) == n + 1
    assert sums == (2 if c <= 1 else 1)


def test_sweep_fast_moduli_make_no_dense_law_and_one_tv_sum_each(monkeypatch):
    # A = 2 with fair {0, 1} and eps 0.25 at the moduli of perfbench's
    # sweep-fast (default seed): at each the first law the count does not
    # certify is the mixed one, the last arc under two steps or, at
    # p = 9997 and 299,713, under one, and its tv is summed leaf by leaf,
    # so no arc between is made and no law made dense (_dense, which a
    # step on would call, and _step_lines, which makes every law of a
    # stride chain): 6 tv sums and no law in all, where the image made
    # dense made 4 laws, the arc made dense too 6, and a margin of b_n / N
    # 12 laws and 12 sums
    moduli = [9997, 30003, 100_053, 299_713, 999_783, 3_000_959]
    calls = {"_law_tv": 0, "step_exact": 0, "_dense": 0, "_step_lines": 0, "laws": 0}

    def counted(name):
        def call(*args, _original=getattr(evolution, name)):
            calls[name] += 1
            return _original(*args)

        return call

    class CountedLaw(StateDistribution):
        def __init__(self, *args):
            calls["laws"] += 1
            super().__init__(*args)

    for name in ("_law_tv", "step_exact", "_dense", "_step_lines"):
        monkeypatch.setattr(evolution, name, counted(name))
    monkeypatch.setattr(evolution, "StateDistribution", CountedLaw)
    chains = [ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), p) for p in moduli]
    found = [mixing_time(chain, 0.25) for chain in chains]
    assert found == [13, 15, 17, 18, 20, 22]
    assert calls == {"_law_tv": 6, "step_exact": 0, "_dense": 0, "_step_lines": 0, "laws": 0}, calls


@pytest.mark.parametrize(
    "a, support, p, n, x0, ratio",
    [
        # the search: at 3,000,959, 999,983 and 999,783 the mixed law is
        # the arc of P_20 or P_18 under two steps, read leaf by leaf with
        # neither it nor the arc between made, so the last arc step (old
        # arc beside new) sets the peak, about 0.535 and 0.43 laws (1.06
        # and 0.82 with the arc between made, 1.71 and 1.56 with the law
        # made too); at 299,713 the arc of P_17 under one step is read
        # (0.77; 1.42 with its arc made); a tv sum adds only scratch
        # blocks, where a difference array made each 2.00
        (2, [(0,), (1,)], 3_000_959, None, 0, 0.6),
        (2, [(0,), (1,)], 999_983, None, 0, 0.5),
        (2, [(0,), (1,)], 999_783, None, 0, 0.5),
        (2, [(0,), (1,)], 299_713, None, 0, 1.75),
        # A = 3 steps dense from P_13 on: a step's input, output and scratch
        (3, [(0,), (1,)], 999_983, None, 0, 2.05),
        # evolve: up to the law made from the arc between (n = 20), past
        # it, with A = 3 (the arc of P_12 freed before P_14 is made from the
        # arc of P_13), and with A = -2 and a three-point support from
        # x0 = 12,345
        (2, [(0,), (1,)], 999_983, 20, 0, 2.05),
        (2, [(0,), (1,)], 999_983, 25, 0, 2.05),
        (3, [(0,), (1,)], 999_983, 15, 0, 2.05),
        (-2, [(0,), (1,), (5,)], 300_007, 14, 12_345, 1.42),
        # past the cutoff: the support of P_14 (P_9 with three points)
        # stepped into the frame, then the frame's two laws
        (9, [(0,), (1,)], 999_983, 25, 0, 2.05),
        (-9, [(0,), (1,), (5,)], 999_983, 20, 0, 2.05),
    ],
)
def test_k1_search_and_evolve_stay_within_their_memory(a, support, p, n, x0, ratio):
    # tracemalloc peaks in units of one law (8 bytes a state): the search
    # drops each law before the walk makes the next, so a law never has
    # the one before it beside it, and sums tv through scratch blocks;
    # evolve holds the arc it steps from, the new law and the scratch
    # block, no more than when the last arc was made dense first, and
    # never the arc an arc between was made from
    chain = ChainSpec(IntMatrix.from_rows([[a]]), IncrementDistribution.fair(support), p, x0=(x0,))
    tracemalloc.start()
    try:
        if n is None:
            mixing_time(chain, 0.25)
        else:
            evolve(chain, n)
        peak = tracemalloc.get_traced_memory()[1] / (8 * p)
    finally:
        tracemalloc.stop()
    assert peak <= ratio, peak


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    chain=line_chains(moduli=[17, 101, 1031, 4099], near=LINE_CUTOFF, increments=arc_increments),
    data=st.data(),
)
def test_property_arc_hand_off_matches_roll_step_bitwise(chain, data):
    # a law held on an arc steps straight into the dense law (_step_lines)
    # as roll_step steps the arc made dense, bit for bit: for a within
    # LINE_CUTOFF of 0 either side, arcs of any start (near p, straddling 0
    # too) and any length up to all of Z_p, and wide, twinned, two-, three-
    # and four-point supports
    p = chain.p
    a = evolution._least_residue(chain.a.rows[0][0], p)
    assume(abs(a) <= LINE_CUTOFF)
    lo = data.draw(st.one_of(st.integers(0, p - 1), st.integers(p - 8, p - 1)))
    # any length, or about that of an arc whose image would just wrap
    wraps = st.integers(p // (2 * abs(a)), min(p, p // abs(a) + 2))
    length = data.draw(st.one_of(st.integers(1, p), wraps))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.random(length)
    values[rng.random(length) < 0.3] = 0.0
    values[0] += 1.0
    values /= values.sum()
    dense = np.zeros(p)
    dense[(lo + np.arange(length)) % p] = values
    start = StateDistribution(p, 1, dense)
    assert np.array_equal(evolution._dense(evolution._Arc(lo, values, 0), chain).values, start.values)
    stepped = evolution._step_lines(p, lo, values, a, chain._shifts)
    assert np.array_equal(stepped.values, roll_step(start, chain).values)
    assert not np.signbit(stepped.values).any()


# on both sides of one leaf (2**15 states) and of two (2**16)
IMAGE_MODULI = [1031, 32_749, 32_771, 65_521, 65_537]


def overlapping_chain(data, a, p):
    """The chain of A = a at p with a three-point support whose translates
    overlap (spread at most 4, so some states gather two or three terms)."""
    base = data.draw(st.integers(-4, 4))
    gaps = data.draw(st.lists(st.integers(1, 2), min_size=2, max_size=2))
    support = [(base,), (base + gaps[0],), (base + sum(gaps),)]
    weights = data.draw(st.lists(st.integers(1, 5), min_size=3, max_size=3))
    mu = IncrementDistribution(1, tuple(support), tuple(w / sum(weights) for w in weights))
    return ChainSpec(IntMatrix.from_rows([[a]]), mu, p)


def flawed_arc(data, p, top, low):
    """An arc of any start (near p too) and of 1 to top states, or of low
    to top, holding a random law with zeros in it, and the flaw planted in
    it: none, an entry of -1e-12, whose images may stay above NEG_TOL or go
    below it, -inf, a sum off 1, or a NaN."""
    lo = data.draw(st.one_of(st.integers(0, p - 1), st.integers(p - 8, p - 1)))
    length = data.draw(st.one_of(st.integers(1, top), st.integers(low, top)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.random(length)
    values[rng.random(length) < 0.3] = 0.0
    values[0] += 1.0
    values /= values.sum()
    flaw = data.draw(st.sampled_from(["none", "small", "-inf", "sum", "nan"]))
    at = data.draw(st.integers(0, length - 1))
    if flaw == "small":
        values[at] = -1e-12
    elif flaw == "-inf":
        values[at] = -np.inf
    elif flaw == "sum":
        values *= 1.001
    elif flaw == "nan":
        values[at] = np.nan
    return lo, values, flaw


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    a=st.integers(1, LINE_CUTOFF).flatmap(lambda m: st.sampled_from([m, -m])),
    p=st.sampled_from(IMAGE_MODULI),
    steps=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_property_image_tv_matches_the_law_made_bitwise(a, p, steps, data):
    # an arc under one or two steps, read leaf by leaf, has the tv of the
    # law made from it, bit for bit: under one step the law _step_lines
    # makes from the arc, under two the law it makes from the arc between
    # that _step_arc makes, whose runs each leaf reads are written once a
    # leaf; for a within LINE_CUTOFF of 0 either side, three-point
    # supports whose translates overlap, and arcs of any start: of any
    # length up to all of Z_p under one step, drawn often from
    # p // (2 |a|) up, where the image starts to wrap, and under two steps
    # of any length whose next arc does not wrap, drawn often from where
    # its own image starts to wrap.  A flawed arc (an entry below NEG_TOL,
    # -inf among them, a sum off 1, a NaN) raises a ValueError for the
    # same reason read or made, under two steps the arc between's first;
    # the same message under one step, where the sums are taken in the
    # same order, and under two with the sum it names rounded to 9 digits,
    # as the arc between's is summed over the runs each leaf reads
    chain = overlapping_chain(data, a, p)
    cs = [c for (c,) in chain.mu.support]
    top = p if steps == 1 else (p - (max(cs) - min(cs)) - 1) // abs(a) + 1
    lo, values, flaw = flawed_arc(data, p, top, top // (2 * abs(a)))

    def made():
        # _dense makes an arc under one step by _step_lines
        start, moved = lo, values
        if steps == 2:
            start, moved, _ = evolution._step_arc(evolution._Arc(lo, values, 0), chain)
        return tv_distance(evolution._step_lines(p, start, moved, a, chain._shifts))

    def outcome(read):
        try:
            return read()
        except ValueError as err:
            if steps == 1:
                return str(err)
            return re.sub(r"sum to (\S+),", lambda m: f"sum to {float(m[1]):.9g},", str(err))

    read = outcome(lambda: evolution._law_tv(evolution._Arc(lo, values, steps), chain))
    assert read == outcome(made)
    if flaw != "small":
        assert isinstance(read, str) == (flaw != "none")


@pytest.mark.parametrize("a, p, x0", [(2, 100_003, 0), (-3, 100_003, 77_777), (1, 1031, 5)])
def test_stride_chains_make_each_law_once(monkeypatch, a, p, x0):
    # evolve_iter, evolve and bounds_table on a stride chain make each
    # dense law once: none is made twice (once for the walk and again for
    # its reader) and no arc is made dense but by evolve_iter, whose laws
    # are those made; the last arc under one step (P_one) or two (P_two) is
    # made dense only when a step follows it or evolve returns it, never
    # P_one when P_two follows, and bounds_table reads a last row's tv on
    # the arc under steps
    made = []

    class CountedLaw(StateDistribution):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(evolution, "StateDistribution", CountedLaw)
    chain = ChainSpec(IntMatrix.from_rows([[a]]), fair_two_point(1), p, x0=(x0,))
    walk = evolution._walk(chain, 2 * p, lazy=True)
    held = (i for i, law in walk if isinstance(law, evolution._Arc) and law.steps)
    one, two = next(held), next(held)
    walk.close()
    assert two == one + 1
    n = two + 3
    made.clear()
    laws = [dist for _, dist in evolve_iter(chain, n)]
    assert len(made) == n + 1 and all(x is y for x, y in zip(made, laws, strict=True))
    runs = [(evolve, n, 4), (bounds_table, n, 4)]
    runs += [(run, steps, count) for steps in (one, two) for run, count in ((bounds_table, 0), (evolve, 1))]
    for run, steps, count in runs:
        made.clear()
        run(chain, steps)
        assert len(made) == count, (run, steps)


@pytest.mark.parametrize(
    "p, support_steps, evolve_steps, bounds_steps",
    [(705, 14, 17, 27), (11, 1, 30, 40)],
)
def test_evolve_and_bounds_skip_the_dense_steps_of_a_small_support(
    monkeypatch, p, support_steps, evolve_steps, bounds_steps
):
    # the cat map with fair {0, e1}: P_n has at most 2**n states, so at
    # p = 705 (497,025 states) the first 13 steps run on the support, and
    # at p = 11 (121 states, below the floor 2**10) every step is dense;
    # evolve takes its dense steps in the reversed frame and no step_exact:
    # the first one support step from the last support law (after 13 at
    # p = 705, after none at p = 11), each later one a translate write,
    # and it builds one law, the last (31 at p = 705 when
    # every support law was scattered, 18 when each dense step built
    # one); bounds takes them by step_exact
    chain = ChainSpec(IntMatrix.from_rows([[2, 1], [1, 1]]), fair_two_point(2), p)
    calls = {"step_exact": 0, "_step_support": 0, "_write_translates": 0, "laws": 0}

    def counted(name):
        def call(*args, _original=getattr(evolution, name)):
            calls[name] += 1
            return _original(*args)

        return call

    class CountedLaw(StateDistribution):
        def __init__(self, *args):
            calls["laws"] += 1
            super().__init__(*args)

    for name in ("step_exact", "_step_support", "_write_translates"):
        monkeypatch.setattr(evolution, name, counted(name))
    monkeypatch.setattr(evolution, "StateDistribution", CountedLaw)
    evolve(chain, 30)
    steps = {"_step_support": support_steps, "_write_translates": evolve_steps - 1}
    assert calls == {"step_exact": 0, **steps, "laws": 1}, calls
    calls["step_exact"] = 0
    bounds_table(chain, 40)
    assert calls["step_exact"] == bounds_steps


def test_mixing_time_refuses_a_modulus_past_float_range():
    # the state cap refuses p**k before _dense_prefix prices it in floats
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 10**400 + 1)
    with pytest.raises(StateSpaceTooLarge, match="p\\*\\*k = 10{399}1 exceeds"):
        mixing_time(chain, 0.25)


def test_mixing_time_dense_point_mass_increments_stay_on_the_support(monkeypatch):
    # s = 1 never grows the law: it stays on a one-state arc up to n_cap,
    # the search steps no dense law, and it still refuses p**k over the cap
    mu = IncrementDistribution.fair([(1,)])
    chain = ChainSpec(IntMatrix.from_rows([[2]]), mu, 100_003)
    monkeypatch.setattr(evolution, "step_exact", None)
    assert _mixing_time_dense(chain, 0.5, 5000) is None
    monkeypatch.setenv(STATE_CAP_ENV, "100000")
    with pytest.raises(StateSpaceTooLarge, match="p\\*\\*k = 100003"):
        _mixing_time_dense(chain, 0.5, 5000)


def folded_binomial_tv(n, p):
    """tv to uniform of Binomial(n, 1/2) folded mod p, from math.lgamma."""
    spread = 40 * math.sqrt(n) / 2
    lo, hi = max(0, int(n / 2 - spread)), min(n, int(n / 2 + spread) + 1)
    head = math.lgamma(n + 1) - n * math.log(2)
    folded = [0.0] * p
    for j in range(lo, hi + 1):
        folded[j % p] += math.exp(head - math.lgamma(j + 1) - math.lgamma(n - j + 1))
    total = sum(folded)
    return 0.5 * sum(abs(q / total - 1 / p) for q in folded)


def test_mixing_time_binomial_oracle_beyond_dense_reach():
    # A = I with fair {0, 1} increments: X_n ~ Binomial(n, 1/2) mod p
    p, eps = 1001, 0.25
    n = mixing_time(slow_chain(p), eps, n_cap=10**6)
    assert n is not None and n > 10**5
    after, before = folded_binomial_tv(n, p), folded_binomial_tv(n - 1, p)
    assert after <= eps - 1e-8 and before >= eps + 1e-8, (after, before)
    assert mixing_time(slow_chain(p), eps, n_cap=n - 1) is None


def test_mixing_time_memory_does_not_grow_with_cap():
    chain = slow_chain(2001)  # n_mix ~ 0.19 p**2 ~ 7.6e5
    mixing_time(chain, 0.25, 10**6)  # warm the caches and FFT plans
    peaks = {}
    for cap in (10**4, 10**6):
        tracemalloc.start()
        try:
            found = mixing_time(chain, 0.25, cap)
            peaks[cap] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (found is None) == (cap == 10**4)
    assert abs(peaks[10**6] - peaks[10**4]) <= 16 * chain.n_states, peaks


def test_hinted_mixing_time_holds_no_more_orbit_states():
    # the same chain from a hint at the answer, one far above it (the search
    # steps down) and one far below it (the search steps up): the search
    # peaks within 16 bytes per state, one orbit state of this A = I chain
    # (24 bytes per state with an index map), of the unhinted search
    chain = slow_chain(2001)
    n = mixing_time(chain, 0.25, 10**6)  # warm the caches and FFT plans
    peaks = {}
    for hint in (None, n, 4 * n, n // 3):
        tracemalloc.start()
        try:
            found = mixing_time(chain, 0.25, 10**6, hint=hint)
            peaks[hint] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == n
    assert max(peaks.values()) <= peaks[None] + 16 * chain.n_states, peaks


def test_identity_chain_search_holds_no_index_maps():
    # A = I at k = 2: the search's orbit states are elementwise, with no
    # int64 index map (8 bytes per state) beside each complex table (16).
    # With maps the search peaks near 112 bytes per state, without near 80.
    mu = IncrementDistribution.fair([(0, 0), (1, 0), (0, 1)])
    chain = ChainSpec(IntMatrix.identity(2), mu, 401)
    assert mixing_time(chain, 0.25, 1000) is None  # warm the caches and FFT plans
    tracemalloc.start()
    try:
        assert mixing_time(chain, 0.25, 10**7) == 51569
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 95 * chain.n_states, peak / chain.n_states
    assert "_perm_t" not in vars(chain)
