"""Exact distribution evolution, sampling, and mixing time."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affine_mixer import (
    ChainSpec,
    IncrementDistribution,
    IntMatrix,
    ModulusNotCoprime,
    StateDistribution,
    StateSpaceTooLarge,
    det_int,
    evolve,
    evolve_iter,
    mixing_time,
    simulate,
    step_exact,
    tv_distance,
)
from affine_mixer import evolution
from affine_mixer.evolution import (
    STATE_CAP_ENV,
    _dense_prefix,
    _fourier_search,
    _mixing_time_dense,
    _step_support,
    _NearTie,
    _translate,
    decode_state,
    encode_state,
    index_map,
    shift_by,
    state_cap,
    state_table,
)
from common import dense_mixing_time, fair_two_point, suite_chains


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
    # then moved by _translate, and by shift_by with offset A**n x0
    a = IntMatrix.from_rows([[2, -1], [3, 5]])
    values = np.arange(1.0, 50.0) / np.arange(1.0, 50.0).sum()  # distinct masses
    pushed = np.empty_like(values)
    pushed[index_map(a, 7, 2)] = values
    moved = _translate(pushed.reshape(7, 7), (4, -2)).reshape(-1)
    for code in range(49):
        image = tuple(c + o for c, o in zip(a.apply(decode_state(code, 7, 2)), (4, -2)))
        assert moved[encode_state(image, 7)] == values[code]
    chain = ChainSpec(a, fair_two_point(2), 7, x0=(4, -2))
    dist = StateDistribution(7, 2, values)
    offset = chain.x0
    for n in range(4):
        shifted = shift_by(dist, chain, n)
        for code in range(49):
            image = tuple(c + o for c, o in zip(decode_state(code, 7, 2), offset))
            assert shifted.values[encode_state(image, 7)] == values[code]
        offset = a.apply(offset)


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
            via_shift = shift_by(evolve(base, n), moved, n)
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


def test_simulate_refuses_trials_over_the_cap(monkeypatch):
    # 10**9 trials would be an 8 GB state array; refused before any draw
    with pytest.raises(StateSpaceTooLarge, match="trials = 1000000000"):
        simulate(hand_chain(), 2, trials=10**9, seed=1)
    monkeypatch.setenv(STATE_CAP_ENV, "10")
    simulate(hand_chain(), 63, trials=10, seed=1)
    message = r"\(trials \+ cap // 1024\) \* \(n \+ 1\) = 650"
    with pytest.raises(StateSpaceTooLarge, match=message):
        simulate(hand_chain(), 64, trials=10, seed=1)


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
    original = evolution._power

    def long_by_one(one, n):
        return original(one, n + 1 if n == n_mix - 1 else n)

    monkeypatch.setattr(evolution, "_power", long_by_one)
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


@st.composite
def support_chains(draw, dims=(1, 2, 3)):
    """Chains with gcd(det A, p) = 1, a random x0 and 1 to 4 increments, two
    of them congruent mod p when a twin is drawn, on moduli large enough
    for the support phase of the mixing search to run."""
    k = draw(st.sampled_from(dims))
    moduli = {1: [2, 3, 5, 31, 101, 2003], 2: [2, 3, 5, 11, 37], 3: [2, 3, 5, 7, 11]}
    p = draw(st.sampled_from(moduli[k]))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    if math.gcd(det_int(IntMatrix.from_rows(rows)), p) != 1:
        # keep the upper triangle over a unit diagonal: det = 1
        rows = [[int(i == j) if i >= j else c for j, c in enumerate(r)] for i, r in enumerate(rows)]
    points = draw(st.lists(st.tuples(*[entry] * k), min_size=1, max_size=4, unique=True))
    if len(points) < 4 and draw(st.booleans()):
        twin = draw(st.sampled_from(points))
        lift = draw(st.tuples(*[st.integers(-2, 2)] * k).filter(any))
        lifted = tuple(c + p * m for c, m in zip(twin, lift))
        if lifted not in points:
            points.append(lifted)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(points), max_size=len(points)))
    total = sum(weights)
    mu = IncrementDistribution(k, tuple(points), tuple(w / total for w in weights))
    x0 = draw(st.tuples(*[st.integers(0, p - 1)] * k))
    return ChainSpec(IntMatrix.from_rows(rows), mu, p, x0=x0)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=support_chains(), n=st.integers(0, 10))
def test_property_support_steps_match_evolve_bitwise(chain, n):
    # the law stepped on its support, scattered at any n, is evolve's law
    codes, values = np.array([encode_state(chain.x0, chain.p)]), np.ones(1)
    for i, dist in evolve_iter(chain, n):
        if i:
            codes, values = _step_support(codes, values, chain)
        assert np.all(np.diff(codes) > 0)
        law = np.zeros(chain.n_states)
        law[codes] = values
        assert np.array_equal(law, dist.values), i


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
    # certain while 2**n < 0.375 p; the support phase and the certificate
    # leave 6 dense steps and 2 tv sums of the 17 and 18 a plain search makes
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 100_003)
    calls = {"step_exact": 0, "tv_distance": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(evolution, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(evolution, name, counted)
    assert mixing_time(chain, 0.25) == 17
    assert calls["step_exact"] < 17 / 2 and calls["tv_distance"] <= 2, calls


def test_mixing_time_dense_point_mass_increments_stay_on_the_support(monkeypatch):
    # s = 1 never grows the support: the search stays in the support phase
    # up to n_cap, steps no dense law, and still refuses p**k over the cap
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
