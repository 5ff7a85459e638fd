"""Seeded workload generator.

Each workload is a list of CLI tasks with generated JSON configs.  The
seed draws the moduli and the large matrix entries; the program sees only
the configs.  Every draw stays in a narrow window around fixed targets, so
two seeds cost the same to within about a percent and the run-to-run
spread measures the program, not the inputs.
"""

from __future__ import annotations

import random

FAIR_1D = {"k": 1, "support": [[0], [1]], "probs": [0.5, 0.5]}
FAIR_2D = {"k": 2, "support": [[0, 0], [1, 0]], "probs": [0.5, 0.5]}
CAT_MAP = [[2, 1], [1, 1]]

# name -> (default seed, why the workload exists)
WORKLOADS = {
    "sweep-slow": (
        1,
        "mixing-sweep with A = I on odd p near 100..250: ~25k dense steps on "
        "small states, so per-call overhead in evolution dominates",
    ),
    "sweep-fast": (
        1,
        "mixing-sweep with A = 2 on p from 1e4 to 3e6: few steps on up to 3M "
        "states, so per-state throughput, table builds and memory dominate",
    ),
    "field-2d": (
        1,
        "bounds and evolve on the cat map at p ~ 700 (490k states): the only "
        "workload with fourier at scale, plus the write-heavy evolve CSV",
    ),
    "exact-lab": (
        1,
        "classify, verify-identities and digit-census: pure-integer Python in "
        "algebra and digitlab, which no other workload measures",
    ),
}

# Exponent of the speed probe's factor in a workload's time rescaling
# (run.at_ref_speed); 1 where not listed.  The probe is pure Python, and
# sweep-fast's time is mostly numpy over arrays larger than L2, which slows
# about half as much, in log terms, as the probe does: over ten seeds on a
# shared 2-vCPU Intel Xeon its task_s spread (q3 - q1 over the median) was
# 0.197 with exponent 1, 0.163 unscaled and 0.070 with 0.5.  The other
# workloads spread least with exponent 1.
PROBE_WEIGHT = {"sweep-fast": 0.5}


def _jitter_odd(rng: random.Random, target: int, half_width: int) -> int:
    """An odd integer within half_width of an odd target."""
    return target + 2 * rng.randint(-(half_width // 2), half_width // 2)


def _unimodular(rng: random.Random, k: int, ops: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random integer matrix U of determinant 1 and its exact inverse,
    built from elementary row additions with small multipliers."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    u_inv = [row[:] for row in u]
    for _ in range(ops):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        # U <- E U with E = I + c e_i e_j^T; U^-1 <- U^-1 E^-1
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
    return u, u_inv


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _conjugate(rng: random.Random, b: list[list[int]], ops: int) -> list[list[int]]:
    u, u_inv = _unimodular(rng, len(b), ops)
    return _matmul(_matmul(u, b), u_inv)


def sweep_slow(rng: random.Random) -> list[tuple[str, dict]]:
    p_list = [_jitter_odd(rng, t, 4) for t in (101, 151, 201, 251)]
    return [("mixing-sweep", {"matrix": [[1]], "increments": FAIR_1D, "p_list": p_list})]


def sweep_fast(rng: random.Random) -> list[tuple[str, dict]]:
    targets = (10_001, 30_001, 100_001, 300_001, 1_000_001, 3_000_001)
    p_list = [_jitter_odd(rng, t, t // 1000) for t in targets]
    return [("mixing-sweep", {"matrix": [[2]], "increments": FAIR_1D, "p_list": p_list})]


def field_2d(rng: random.Random) -> list[tuple[str, dict]]:
    p = _jitter_odd(rng, 701, 4)
    chain = {"matrix": CAT_MAP, "increments": FAIR_2D, "p": p}
    return [
        ("bounds", dict(chain, n=40)),
        ("evolve", dict(chain, n=30, trials=2000, seed=rng.randrange(2**31))),
    ]


def exact_lab(rng: random.Random) -> list[tuple[str, dict]]:
    # Two integer eigenvalues near 1e7 beside the cat map block: the
    # integer-root search in classify scans divisors up to sqrt(det) ~ 1e7.
    lam1, lam2 = rng.sample(range(10**7 - 10**4, 10**7 + 10**4), 2)
    block = [[lam1, 1, 0, 0], [0, lam2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]
    classify = _conjugate(rng, block, 6)
    # Distinct integer eigenvalues keep verify-identities on its exact path.
    # Its cost follows the size of the entries, so the seed only permutes
    # and flips the coordinates of one fixed conjugate of the diagonal.
    lams = (-9, -4, 2, 7, 13, 19)
    diag = [[lams[i] if i == j else 0 for j in range(6)] for i in range(6)]
    base = _conjugate(random.Random(0), diag, 8)
    order = rng.sample(range(6), 6)
    signs = [rng.choice((-1, 1)) for _ in range(6)]
    identities = [[signs[i] * signs[j] * base[order[i]][order[j]] for j in range(6)] for i in range(6)]
    census_p = _jitter_odd(rng, 30_001, 30)
    return [
        ("classify", {"matrix": classify}),
        ("verify-identities", {"matrix": identities}),
        ("digit-census", {"p": census_p, "sigma": 2, "r": 2}),
    ]


_GENERATORS = {
    "sweep-slow": sweep_slow,
    "sweep-fast": sweep_fast,
    "field-2d": field_2d,
    "exact-lab": exact_lab,
}


def make_tasks(name: str, seed: int) -> list[tuple[str, dict]]:
    """The (cli task, config) pairs of a workload; the same seed gives the
    same configs."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"))
