"""Transform products, Fourier bounds, and closed-form certificates."""

from __future__ import annotations

import cmath
import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from affine_mixer import (
    ChainSpec,
    FactorNonpositive,
    FrequencyVector,
    GammaTooLarge,
    IncrementDistribution,
    IntMatrix,
    NoTorsion,
    StateSpaceTooLarge,
    ZeroFrequency,
    bounds_table,
    certificate_gamma,
    certificate_rho,
    det_int,
    evolve,
    evolve_iter,
    find_torsion,
    lower_bound_at,
    lower_bound_best,
    mat_pow_mod,
    mixing_time,
    mu_hat,
    pn_hat_sq,
    product_scan,
    transform_of_distribution,
    tv_distance,
    upper_bound,
)
from affine_mixer.evolution import (
    STATE_CAP_ENV,
    _mu_hat_table,
    decode_state,
    encode_state,
    index_map,
    state_table,
)
from affine_mixer.fourier import FREEZE_THRESHOLD, _best_witness
from common import fair_two_point, suite_chains


def hand_chain(p=3):
    return ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), p)


def direct_transform_sq(dist):
    """Quadratic-time reference DFT, one explicit phase sum per frequency."""
    p, k = dist.p, dist.k
    n = p**k
    out = []
    for a_code in range(n):
        alpha = decode_state(a_code, p, k)
        acc = complex(0.0)
        for x_code in range(n):
            x = decode_state(x_code, p, k)
            e = sum(xi * ai for xi, ai in zip(x, alpha)) % p
            acc += dist.values[x_code] * cmath.exp(2j * math.pi * e / p)
        out.append(abs(acc) ** 2)
    return np.array(out)


def test_frequency_vector_reduction_and_str():
    fv = FrequencyVector((-1, 7), 5)
    assert fv.alpha == (4, 2)
    assert str(fv) == "4;2"
    assert not fv.is_zero
    assert FrequencyVector((0, 5), 5).is_zero
    with pytest.raises(ValueError):
        FrequencyVector((1,), 1)


def test_as_frequency_modulus_guard():
    from affine_mixer.fourier import as_frequency

    fv = FrequencyVector((1,), 5)
    assert as_frequency(fv, 5, 1) is fv
    assert as_frequency([6], 5, 1) == fv
    with pytest.raises(ValueError):
        as_frequency(fv, 7, 1)
    for k in (0, 2):
        with pytest.raises(ValueError):
            as_frequency(fv, 5, k)
        with pytest.raises(ValueError):
            as_frequency([1], 5, k)


def test_wrong_length_frequencies_are_refused():
    # a frequency of another length used to be truncated or padded by zip:
    # (1,) and (1, 0, 5) both gave pn_hat_sq of (1, 0), and
    # certificate_rho at (1, 0, 5) used ||alpha|| = 5
    cat = ChainSpec(IntMatrix.from_rows([[2, 1], [1, 1]]), fair_two_point(2), 11)
    assert pn_hat_sq(cat, (1, 0), 3) == pytest.approx(0.013196, abs=1e-6)
    for alpha in ((1,), (1, 0, 5)):
        with pytest.raises(ValueError):
            pn_hat_sq(cat, alpha, 3)
        with pytest.raises(ValueError):
            lower_bound_at(cat, alpha, 3)
        with pytest.raises(ValueError):
            certificate_rho(cat, alpha, 3)
        with pytest.raises(ValueError):
            mu_hat(cat.mu, FrequencyVector(alpha, 11))


def test_mu_hat_hand_value():
    mu = fair_two_point(1)
    val = mu_hat(mu, FrequencyVector((1,), 3))
    assert abs(val - complex(0.25, math.sqrt(3) / 4)) < 1e-15
    assert mu_hat(mu, FrequencyVector((0,), 3)) == pytest.approx(1.0)


def test_mu_hat_point_mass_has_unit_modulus():
    mu = IncrementDistribution.fair([(2, 3)])
    for a_code in range(25):
        alpha = FrequencyVector(decode_state(a_code, 5, 2), 5)
        assert abs(abs(mu_hat(mu, alpha)) - 1.0) < 1e-14


def test_mu_hat_modulus_at_most_one():
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(1, 2)
        p = rng.choice([3, 5, 7])
        pts = set()
        while len(pts) < rng.randint(2, 4):
            pts.add(tuple(rng.randint(-4, 4) for _ in range(k)))
        weights = [rng.random() + 0.05 for _ in pts]
        total = sum(weights)
        mu = IncrementDistribution(
            k, tuple(sorted(pts)), tuple(w / total for w in weights)
        )
        spread = False
        for code in range(p**k):
            m = abs(mu_hat(mu, FrequencyVector(decode_state(code, p, k), p)))
            assert m <= 1.0 + 1e-12
            if m < 1.0 - 1e-9:
                spread = True
        # two points distinct mod p at some frequency give strict decay
        if len({tuple(c % p for c in pt) for pt in pts}) >= 2:
            assert spread


def test_pn_hat_sq_hand_values():
    chain = hand_chain()
    assert pn_hat_sq(chain, (1,), 0) == 1.0
    assert pn_hat_sq(chain, (1,), 2) == pytest.approx(1 / 16, abs=1e-15)
    for n in range(10):
        assert pn_hat_sq(chain, (0,), n) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pn_hat_sq(chain, (1,), -1)


def test_pn_hat_sq_equals_dft_of_evolution():
    # the product formula against a direct DFT of the exactly evolved law
    for chain in suite_chains(primes=(3, 5)):
        for n in (0, 1, 3, 7):
            ref = direct_transform_sq(evolve(chain, n))
            for code in range(chain.n_states):
                alpha = decode_state(code, chain.p, chain.k)
                got = pn_hat_sq(chain, alpha, n)
                assert abs(got - ref[code]) < 1e-9, (chain.a.rows, n, alpha)


def test_product_scan_matches_pointwise_products():
    for chain in suite_chains(primes=(5,)):
        history = {}
        for j, prods in product_scan(chain, 12):
            history[j] = prods.copy()  # live buffer
        for n in (0, 1, 5, 12):
            for code in range(chain.n_states):
                alpha = decode_state(code, chain.p, chain.k)
                assert abs(history[n][code] - pn_hat_sq(chain, alpha, n)) < 1e-11


def test_product_scan_freeze_keeps_positive_overestimates():
    chain = hand_chain()
    final = None
    for _, prods in product_scan(chain, 80):
        final = prods
    assert final is not None
    true_val = 0.25**80
    assert final[1] > 0.0
    assert final[1] >= true_val
    assert final[1] < 1e-30  # it did freeze below the threshold


@st.composite
def scan_chains(draw):
    """Chains in k = 1..3 with random A, support and weights, started at 0."""
    k = draw(st.integers(1, 3))
    p = draw(st.sampled_from({1: [2, 3, 5, 13, 31], 2: [2, 3, 5, 7], 3: [2, 3]}[k]))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    a = IntMatrix.from_rows(rows)
    if math.gcd(det_int(a), p) != 1:
        a = IntMatrix.identity(k)
    points = draw(st.lists(st.tuples(*[entry] * k), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(points), max_size=len(points)))
    total = sum(weights)
    mu = IncrementDistribution(k, tuple(points), tuple(w / total for w in weights))
    return ChainSpec(a, mu, p)


def index_walk_scan(chain, n):
    """Products after each of n steps, by walking every frequency's orbit
    index: step j multiplies in |mu_hat|**2 at T**(j-1) alpha."""
    table = np.abs(_mu_hat_table(chain.mu, chain.p)) ** 2
    np.clip(table, 0.0, 1.0, out=table)
    perm_t = index_map(chain.a.transpose(), chain.p, chain.k)
    prods = np.ones(len(table))
    freq = np.arange(len(table))
    active = np.ones(len(table), dtype=bool)
    history = [prods.copy()]
    for _ in range(n):
        prods[active] *= table[freq[active]]
        freq = perm_t[freq]
        np.logical_and(active, prods > FREEZE_THRESHOLD, out=active)
        history.append(prods.copy())
    return history


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=scan_chains(), n=st.integers(0, 150))
@example(chain=hand_chain(), n=80)  # freezes at frequency 1 (see the test above)
def test_product_scan_bitwise_equals_index_walk(chain, n):
    history = index_walk_scan(chain, n)
    for j, prods in product_scan(chain, n):
        assert np.array_equal(prods.view(np.int64), history[j].view(np.int64)), j


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=scan_chains())
def test_mu_hat_table_bitwise_equals_per_entry_exp(chain):
    p = chain.p
    supp = np.array([[c % p for c in pt] for pt in chain.mu.support], dtype=np.int64)
    phases = np.exp((2j * np.pi / p) * ((state_table(p, chain.k) @ supp.T) % p))
    expected = phases @ np.array(chain.mu.probs)
    got = _mu_hat_table(chain.mu, p)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_chain_tables_are_freed_with_the_chain():
    mu = IncrementDistribution.fair([(0, 0), (1, 0), (0, 1)])
    chain = ChainSpec(IntMatrix.from_rows([[1, 1], [0, 2]]), mu, 61)
    # mixes past the dense prefix, so the Fourier search reads _perm_t
    assert mixing_time(chain, 0.25) is not None
    bounds_table(chain, 5)
    assert {"_perm", "_perm_t", "_shifts"} <= set(vars(chain))
    ref = weakref.ref(chain)
    del chain
    gc.collect()
    assert ref() is None


def test_transform_of_distribution_matches_direct():
    rng = random.Random(23)
    for p, k in ((3, 2), (5, 1), (2, 3)):
        raw = np.array([rng.random() for _ in range(p**k)])
        from affine_mixer import StateDistribution

        dist = StateDistribution(p, k, raw / raw.sum())
        fast = transform_of_distribution(dist)
        slow = direct_transform_sq(dist)
        assert float(np.abs(fast - slow).max()) < 1e-10


def test_parseval():
    for chain in suite_chains(primes=(5, 7)):
        dist = evolve(chain, 4)
        lhs = float(transform_of_distribution(dist).sum())
        rhs = chain.n_states * float((dist.values**2).sum())
        assert abs(lhs - rhs) < 1e-8 * max(1.0, rhs)


def test_upper_bound_hand_values():
    chain = hand_chain()
    assert upper_bound(chain, 2) == pytest.approx(1 / 32, abs=1e-12)
    assert upper_bound(chain, 0) == pytest.approx((3 - 1) / 4, abs=1e-15)


def test_upper_bound_nonincreasing():
    for chain in suite_chains(primes=(7,)):
        vals = [upper_bound(chain, n) for n in range(15)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-15


@pytest.mark.parametrize("bound", [upper_bound, lower_bound_best])
def test_library_bounds_refuse_dense_work_over_the_cap(bound):
    # 10**9 product_scan steps at p = 3 would take about 80 min
    message = r"\(n \+ 1\) \* \(p\*\*k \+ cap // 1024\) = 3909000003909"
    with pytest.raises(StateSpaceTooLarge, match=message):
        bound(hand_chain(), 10**9)


def test_lower_bound_at_hand_value():
    chain = hand_chain()
    assert lower_bound_at(chain, (1,), 2) == pytest.approx(1 / 8, abs=1e-12)
    with pytest.raises(ZeroFrequency):
        lower_bound_at(chain, (0,), 2)


def test_lower_bound_best_witness_lexicographic():
    chain = hand_chain()
    value, witness = lower_bound_best(chain, 2)
    # alpha = 1 and alpha = 2 tie at 1/16; the first in lex order wins
    assert value == pytest.approx(1 / 8, abs=1e-12)
    assert witness.alpha == (1,)


def test_sandwich_on_suite():
    for chain in suite_chains(primes=(3, 7)):
        for n, dist in evolve_iter(chain, 25):
            tv = tv_distance(dist)
            assert tv * tv <= upper_bound(chain, n) + 1e-9
            low, _ = lower_bound_best(chain, n)
            assert tv >= low - 1e-9


def test_certificate_rho_hand_constant():
    chain = hand_chain(101)
    cert = certificate_rho(chain, (1,), 3)
    assert cert.rho == pytest.approx(math.pi**2, abs=1e-12)
    assert cert.norm_t == 2
    assert cert.n == 3
    assert certificate_rho(chain, (1,), 0).bound == 0.5


def test_certificate_rho_factor_window():
    chain = hand_chain(101)
    # rho * 4**j / p**2 crosses 1 between j = 6 and j = 7
    bounds = [certificate_rho(chain, (1,), n).bound for n in range(7)]
    for a, b in zip(bounds, bounds[1:]):
        assert b < a
    with pytest.raises(FactorNonpositive):
        certificate_rho(chain, (1,), 7)


def test_certificate_rho_uses_reduced_representative():
    chain = hand_chain(5)
    cert = certificate_rho(chain, (-1,), 0)
    # -1 reduces to 4 mod 5, so the norm enters as 16
    assert cert.rho == pytest.approx(16 * math.pi**2, abs=1e-9)


def test_certificate_rho_validation():
    chain = hand_chain()
    with pytest.raises(ZeroFrequency):
        certificate_rho(chain, (0,), 1)
    with pytest.raises(ValueError):
        certificate_rho(chain, (1,), -1)


def test_certificate_rho_dominated_by_tv():
    chain = hand_chain(101)
    for n, dist in evolve_iter(chain, 6):
        cert = certificate_rho(chain, (1,), n)
        assert tv_distance(dist) >= cert.bound - 1e-9


def test_find_torsion():
    assert find_torsion(IntMatrix.from_rows([[1]])) == (1, (1,))
    l, vec = find_torsion(IntMatrix.from_rows([[0, -1], [1, 0]]))
    assert l == 4 and vec == (1, 0)
    with pytest.raises(NoTorsion):
        find_torsion(IntMatrix.from_rows([[2, 0], [0, 3]]))
    with pytest.raises(NoTorsion):
        find_torsion(IntMatrix.from_rows([[0, -1], [1, 0]]), l_max=3)


def test_certificate_gamma_rotation():
    a = IntMatrix.from_rows([[0, -1], [1, 0]])
    for p in (11, 13):
        chain = ChainSpec(a, fair_two_point(2), p)
        cert = certificate_gamma(chain, 24, 10)
        assert cert.l == 4
        assert cert.alpha == (1, 0)
        assert cert.gamma == pytest.approx(4 * math.pi**2, abs=1e-12)
        assert cert.bound == pytest.approx(
            0.5 * (1 - 4 * math.pi**2 / p**2) ** 5, abs=1e-15
        )


def test_certificate_gamma_identity_matrix():
    chain = ChainSpec(IntMatrix.from_rows([[1]]), fair_two_point(1), 7)
    cert = certificate_gamma(chain, 24, 4)
    assert cert.l == 1
    assert cert.gamma == pytest.approx(math.pi**2, abs=1e-12)


def test_certificate_gamma_too_large_modulus():
    a = IntMatrix.from_rows([[0, -1], [1, 0]])
    chain = ChainSpec(a, fair_two_point(2), 5)
    with pytest.raises(GammaTooLarge):
        certificate_gamma(chain, 24, 1)  # gamma = 4 pi**2 >= 25


def test_certificate_gamma_kernel_norm_guard():
    # transpose(A) - I = [[2, 7], [0, 0]] has primitive kernel (7, -2),
    # whose norm exceeds the modulus
    a = IntMatrix.from_rows([[3, 0], [7, 1]])
    chain = ChainSpec(a, fair_two_point(2), 5)
    with pytest.raises(GammaTooLarge):
        certificate_gamma(chain, 24, 1)


def test_certificate_gamma_no_torsion_propagates():
    chain = ChainSpec(IntMatrix.from_rows([[2, 0], [0, 3]]), fair_two_point(2), 7)
    with pytest.raises(NoTorsion):
        certificate_gamma(chain, 24, 1)


def test_certificate_gamma_dominated_by_tv():
    a = IntMatrix.from_rows([[0, -1], [1, 0]])
    chain = ChainSpec(a, fair_two_point(2), 11)
    for n, dist in evolve_iter(chain, 60):
        cert = certificate_gamma(chain, 24, n)
        assert tv_distance(dist) >= cert.bound - 1e-9


def test_xi_orbit_enters_central_band_for_expanding_matrices():
    # the digit-style lower bound machinery needs the scaled orbit of a
    # frequency to reach [delta, 1 - delta] within O(ln p) steps when the
    # matrix expands; record the worst observed j / ln p
    expanding = [
        IntMatrix.from_rows([[2]]),
        IntMatrix.from_rows([[0, 1], [2, 0]]),
        IntMatrix.from_rows([[2, 1], [1, 1]]),
    ]
    worst = 0.0
    for a in expanding:
        e1 = (1,) + (0,) * (a.k - 1)
        for p in (5, 7, 11, 13, 101):
            hit = None
            for j in range(65):
                # the fractional parts of T**j e1 / p, T = transpose(A)
                orbit = mat_pow_mod(a.transpose(), j, p).apply(e1)
                if any(0.1 <= (c % p) / p <= 0.9 for c in orbit):
                    hit = j
                    break
            assert hit is not None, (a.rows, p)
            worst = max(worst, hit / math.log(p))
    print(f"xi band entry: worst j / ln p = {worst:.3f}")
    assert worst < 10.0


def test_bounds_table_rho_chain():
    chain = hand_chain(101)
    rows = bounds_table(chain, 10)
    assert [r.n for r in rows] == list(range(11))
    for n, dist in evolve_iter(chain, 10):
        row = rows[n]
        assert row.tv == pytest.approx(tv_distance(dist), abs=1e-15)
        assert row.upper == pytest.approx(upper_bound(chain, n), abs=1e-15)
        assert row.tv**2 <= row.upper + 1e-9
        assert row.tv >= row.lower_best - 1e-9
        if n <= 6:
            assert row.certificate == pytest.approx(
                certificate_rho(chain, (1,), n).bound, abs=1e-15
            )
        else:
            assert row.certificate is None


def test_bounds_table_carries_rho_certificate_exactly():
    chain = hand_chain(1009)
    rows = bounds_table(chain, 40)
    for row in rows:
        if row.certificate is not None:
            assert row.certificate == certificate_rho(chain, (1,), row.n).bound
    assert rows[0].certificate == 0.5 and rows[-1].certificate is None


def test_bounds_table_gamma_chain():
    a = IntMatrix.from_rows([[0, -1], [1, 0]])
    chain = ChainSpec(a, fair_two_point(2), 11)
    rows = bounds_table(chain, 12)
    gamma = 4 * math.pi**2
    for row in rows:
        assert row.certificate == pytest.approx(
            0.5 * (1 - gamma / 121) ** (row.n / 2), abs=1e-15
        )
        assert row.tv >= row.certificate - 1e-9


def test_state_cap_applies_to_bounds(monkeypatch):
    monkeypatch.setenv(STATE_CAP_ENV, "10")
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 11)
    with pytest.raises(StateSpaceTooLarge):
        upper_bound(chain, 1)
    with pytest.raises(StateSpaceTooLarge):
        lower_bound_best(chain, 1)
    with pytest.raises(StateSpaceTooLarge):
        bounds_table(chain, 1)


def best_witness_oracle(prods, p, k):
    """The per-tie decode that _best_witness replaces."""
    best = float(prods[1:].max())
    ties = np.nonzero(prods == best)[0]
    return 0.5 * math.sqrt(best), min(decode_state(int(i), p, k) for i in ties if i != 0)


def test_best_witness_matches_decoding_oracle():
    rng = np.random.default_rng(17)
    for p, k in ((2, 1), (7, 1), (101, 1), (2, 2), (5, 2), (23, 2), (3, 3), (7, 3), (5, 4)):
        n = p**k
        cases = [np.ones(n), rng.random(n)]  # all ties; almost surely no tie
        ties = rng.random(n)
        ties[rng.choice(np.arange(1, n), size=max(1, n // 3))] = 2.0  # random ties
        cases.append(ties)
        single = rng.random(n) * 0.5
        single[rng.integers(1, n)] = 1.0  # one maximum
        cases.append(single)
        zero_wins = rng.random(n) * 0.5
        zero_wins[0] = 1.0  # the zero frequency never counts
        cases.append(zero_wins)
        for prods in cases:
            bound, witness = _best_witness(prods, p, k)
            assert (bound, witness.alpha) == best_witness_oracle(prods, p, k)
