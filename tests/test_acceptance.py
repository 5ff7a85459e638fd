"""Acceptance gate: the eleven checks this library must pass.

Each test prints exactly one PASS/FAIL line (run with -s or -rP to see
them) and then asserts, so a red run still shows the full scoreboard.
The tests are ordered; criterion 11 re-runs the evolutions of criteria
1-7 with invariant checks, so the file is meant to run as a whole.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from affine_mixer import (
    ChainSpec,
    ExperimentConfig,
    FactorNonpositive,
    IntMatrix,
    InvariantSubspace,
    admissible_modulus,
    certificate_gamma,
    certificate_rho,
    evolve,
    evolve_iter,
    fit_exponent,
    lower_bound_at,
    lower_bound_best,
    minimal_poly,
    mixing_sweep,
    pn_hat_sq,
    product_scan,
    support_basis,
    transform_of_distribution,
    tv_distance,
    upper_bound,
    verify_spectral_identities,
)
from affine_mixer.digitlab import block_census, default_block_length
from common import SUITE_PRIMES, SUITE_ROWS, decode_state, fair_two_point, suite_matrices

N_SUITE = 50
EPS = 0.25
N_CAP = 100_000


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@dataclass
class ChainData:
    chain: ChainSpec
    tvs: np.ndarray
    uppers: np.ndarray
    lowers: np.ndarray
    max_dev: float


@pytest.fixture(scope="module")
def suite_data():
    """Evolve every suite chain 50 steps against the frequency products.

    max_dev is the largest |product formula - squared DFT modulus| over
    all frequencies and all steps; on top of the full scan, pn_hat_sq is
    checked directly at every frequency for n in {1, 7, 50}.
    """
    start = time.perf_counter()
    records = []
    for rows in SUITE_ROWS:
        a = IntMatrix.from_rows(rows)
        mu = fair_two_point(a.k)
        for p in SUITE_PRIMES:
            chain = ChainSpec(a, mu, p)
            tvs, uppers, lowers = [], [], []
            dev = 0.0
            spot = {}
            scan = product_scan(chain, N_SUITE)
            for (n, dist), (_, prods) in zip(evolve_iter(chain, N_SUITE), scan):
                ref = transform_of_distribution(dist)
                dev = max(dev, float(np.abs(prods - ref).max()))
                if n in (1, 7, N_SUITE):
                    spot[n] = ref
                tvs.append(tv_distance(dist))
                uppers.append(0.25 * float(prods[1:].sum()))
                lowers.append(0.5 * math.sqrt(float(prods[1:].max())))
            for n, ref in spot.items():
                for code in range(chain.n_states):
                    alpha = decode_state(code, chain.p, chain.k)
                    dev = max(dev, abs(pn_hat_sq(chain, alpha, n) - ref[code]))
            records.append(
                ChainData(
                    chain=chain,
                    tvs=np.array(tvs),
                    uppers=np.array(uppers),
                    lowers=np.array(lowers),
                    max_dev=dev,
                )
            )
    return {"records": records, "elapsed": time.perf_counter() - start}


def slow_regime_config():
    return ExperimentConfig.from_json(
        {
            "task": "mixing-sweep",
            "matrix": [[1]],
            "increments": {"k": 1, "support": [[0], [1]], "probs": [0.5, 0.5]},
            "p_list": list(range(5, 102, 2)),
            "eps": EPS,
            "n_cap": N_CAP,
        }
    )


def fast_regime_ps() -> list[int]:
    raw = np.geomspace(5, 4999, 32)
    return sorted({int(v) | 1 for v in raw})


def fast_regime_config():
    return ExperimentConfig.from_json(
        {
            "task": "mixing-sweep",
            "matrix": [[2]],
            "increments": {"k": 1, "support": [[0], [1]], "probs": [0.5, 0.5]},
            "p_list": fast_regime_ps(),
            "eps": EPS,
            "n_cap": N_CAP,
        }
    )


def torsion_chain(p: int) -> ChainSpec:
    return ChainSpec(IntMatrix.from_rows([[0, -1], [1, 0]]), fair_two_point(2), p)


def expanding_chain() -> ChainSpec:
    return ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 101)


def test_criterion_01_product_formula_oracle(suite_data):
    worst = max(rec.max_dev for rec in suite_data["records"])
    elapsed = suite_data["elapsed"]
    ok = worst <= 1e-9 and elapsed <= 60.0
    report(
        1,
        "product formula vs DFT of evolved law",
        ok,
        f"30 chains, n <= {N_SUITE}, max dev {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_bound_sandwich(suite_data):
    worst_upper = -math.inf
    worst_lower = -math.inf
    for rec in suite_data["records"]:
        worst_upper = max(worst_upper, float((rec.tvs**2 - rec.uppers).max()))
        worst_lower = max(worst_lower, float((rec.lowers - rec.tvs).max()))
        # the single-frequency op itself, spot checked against the scan
        for n in (1, 10, N_SUITE):
            tv = rec.tvs[n]
            e1 = (1,) + (0,) * (rec.chain.k - 1)
            assert lower_bound_at(rec.chain, e1, n) <= tv + 1e-9
            low, _ = lower_bound_best(rec.chain, n)
            assert low <= tv + 1e-9
    ok = worst_upper <= 1e-9 and worst_lower <= 1e-9
    report(
        2,
        "tv**2 <= upper and tv >= lower at every frequency",
        ok,
        f"max(tv^2-upper) {worst_upper:.3e}, max(lower-tv) {worst_lower:.3e}",
    )


def test_criterion_03_hand_checkpoint():
    chain = ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), 3)
    # recompute the two-step law by direct convolution over Z_3
    law = {0: 1.0}
    for _ in range(2):
        nxt = {x: 0.0 for x in range(3)}
        for y, q in law.items():
            for b, w in ((0, 0.5), (1, 0.5)):
                nxt[(2 * y + b) % 3] += q * w
        law = nxt
    p2 = evolve(chain, 2)
    dev = max(abs(p2.prob((x,)) - law[x]) for x in range(3))
    checks = [
        ("P2", dev),
        ("tv", abs(tv_distance(p2) - 1 / 6)),
        ("upper", abs(upper_bound(chain, 2) - 1 / 32)),
        ("lower", abs(lower_bound_at(chain, (1,), 2) - 1 / 8)),
    ]
    worst_name, worst = max(checks, key=lambda c: c[1])
    ok = worst <= 1e-12 and law == {0: 0.5, 1: 0.25, 2: 0.25}
    report(
        3,
        "hand checkpoint at k=1, A=[2], p=3, n=2",
        ok,
        f"worst dev {worst:.3e} ({worst_name})",
    )


def test_criterion_04_slow_regime_quadratic():
    start = time.perf_counter()
    rows = mixing_sweep(slow_regime_config())
    fit = fit_exponent(rows, "pow_p")
    elapsed = time.perf_counter() - start
    ok = (
        all(row.n_mix is not None for row in rows)
        and 1.8 <= fit.coefficient <= 2.2
        and fit.rms_residual < 0.1
        and elapsed <= 300.0
    )
    report(
        4,
        "identity matrix mixes in p**2 steps",
        ok,
        f"slope {fit.coefficient:.4f}, rms {fit.rms_residual:.4f}, "
        f"{fit.points} moduli, {elapsed:.1f}s",
    )


def test_criterion_05_fast_regime_loglog():
    rows = mixing_sweep(fast_regime_config())
    assert all(row.admissible and row.n_mix is not None for row in rows)
    ratios = [row.n_mix / row.ln_p_ln_ln_p for row in rows]
    q = max(1, len(ratios) // 4)
    first = sum(ratios[:q]) / q
    last = sum(ratios[-q:]) / q
    fit = fit_exponent(rows, "loglog")
    ok = last <= 1.3 * first
    report(
        5,
        "doubling matrix mixes in O(ln p * ln ln p) steps",
        ok,
        f"quartile ratio means {first:.3f} -> {last:.3f}, "
        f"fitted constant {fit.coefficient:.3f} over {len(ratios)} moduli",
    )


def test_criterion_06_torsion_lower_bound():
    worst = -math.inf
    gamma = None
    for p in (11, 13):
        chain = torsion_chain(p)
        for n, dist in evolve_iter(chain, 200):
            cert = certificate_gamma(chain, 24, n)
            gamma = cert.gamma
            worst = max(worst, cert.bound - tv_distance(dist))
    assert gamma is not None
    ok = worst <= 1e-9 and abs(gamma - 4 * math.pi**2) <= 1e-9
    report(
        6,
        "rotation torsion certificate stays below measured tv",
        ok,
        f"gamma {gamma:.6f} (= 4 pi^2), max(bound - tv) {worst:.3e}, n <= 200",
    )


def test_criterion_07_expanding_lower_bound():
    chain = expanding_chain()
    worst = -math.inf
    rho = None
    valid_n = []
    for n, dist in evolve_iter(chain, 20):
        try:
            cert = certificate_rho(chain, (1,), n)
        except FactorNonpositive:
            break
        rho = cert.rho
        valid_n.append(n)
        worst = max(worst, cert.bound - tv_distance(dist))
    assert rho is not None
    ok = worst <= 1e-9 and abs(rho - math.pi**2) <= 1e-12 and valid_n == list(range(7))
    report(
        7,
        "doubling certificate stays below measured tv while factors last",
        ok,
        f"rho {rho:.6f} (= pi^2), valid n 0..{valid_n[-1]}, "
        f"max(bound - tv) {worst:.3e}",
    )


def test_criterion_08_spectral_identities():
    worst = 0.0
    count = 0
    all_ok = True
    for a in suite_matrices():
        d = minimal_poly(a).degree
        for e in range(1, d + 1):
            for j in range(11):
                ok, residual = verify_spectral_identities(a, e, j)
                all_ok = all_ok and ok
                worst = max(worst, residual)
                count += 1
    ok = all_ok and worst <= 1e-8
    report(
        8,
        "power expansion identities across the suite",
        ok,
        f"{count} (matrix, e, j) cases, max residual {worst:.3e}",
    )


def test_criterion_09_basis_frequency_coverage():
    pairs = 0
    freqs = 0
    skipped = []
    ok = True
    for a in suite_matrices():
        mu = fair_two_point(a.k)
        try:
            basis = support_basis(mu, a)
        except InvariantSubspace:
            # {0, e1} lies inside an invariant line of [[1,0],[0,2]]; the
            # span hypothesis fails and no basis or admissible p exists
            skipped.append(a.rows)
            continue
        for p in range(2, 14):
            if not admissible_modulus(a, basis, p):
                continue
            pairs += 1
            for code in range(1, p**a.k):
                alpha = decode_state(code, p, a.k)
                freqs += 1
                if all(
                    sum(y * c for y, c in zip(col, alpha)) % p == 0
                    for col in basis.columns
                ):
                    ok = False
    ok = ok and skipped == [((1, 0), (0, 2))]
    report(
        9,
        "every nonzero frequency meets some basis column",
        ok,
        f"{pairs} (matrix, p) pairs, {freqs} frequencies, "
        f"{len(skipped)} matrix without a basis",
    )


def test_criterion_10_digit_blocks():
    worst_p = None
    blocks = 0
    ok = True
    for p in range(3, 1001, 2):
        census = block_census(p, 2, default_block_length(p, 2), 1)
        n_a, r, _ = census.digits.shape
        blocks += n_a * r
        if census.distinct_per_index != (True,) or census.min_alternations < 1:
            ok = False
            worst_p = p
            break
    report(
        10,
        "binary blocks of a/p all distinct with an alternation",
        ok,
        f"{blocks} blocks over odd p <= 1000"
        + (f", first failure at p={worst_p}" if worst_p else ""),
    )


def test_criterion_11_evolution_invariants():
    """Re-run every evolution from criteria 1-7 and check, at every step,
    that the law stays normalized and tv to uniform never increases."""

    worst_mono = -math.inf
    worst_sum = 0.0
    steps = 0

    def check(chain, n_max, eps=None):
        nonlocal worst_mono, worst_sum, steps
        prev = None
        for _, dist in evolve_iter(chain, n_max):
            worst_sum = max(worst_sum, abs(float(dist.values.sum()) - 1.0))
            tv = tv_distance(dist)
            if prev is not None:
                worst_mono = max(worst_mono, tv - prev)
            prev = tv
            steps += 1
            if eps is not None and tv <= eps:
                return

    for rows in SUITE_ROWS:
        a = IntMatrix.from_rows(rows)
        for p in SUITE_PRIMES:
            check(ChainSpec(a, fair_two_point(a.k), p), N_SUITE)
    for p in range(5, 102, 2):
        check(ChainSpec(IntMatrix.from_rows([[1]]), fair_two_point(1), p), N_CAP, EPS)
    for p in fast_regime_ps():
        check(ChainSpec(IntMatrix.from_rows([[2]]), fair_two_point(1), p), N_CAP, EPS)
    for p in (11, 13):
        check(torsion_chain(p), 200)
    check(expanding_chain(), 6)

    ok = worst_mono <= 1e-12 and worst_sum <= 1e-10
    report(
        11,
        "normalization and tv monotonicity across all runs",
        ok,
        f"{steps} steps, max tv increase {worst_mono:.3e}, "
        f"max |sum - 1| {worst_sum:.3e}",
    )
