"""Shared fixtures: the matrix suite, its fair two-point increments, the
table of all states, the reference step, index map, start shift, laws,
mixing-time search, sampler and best witness, and a wall-clock limit for
tests of work that must end quickly."""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager

import numpy as np

from affine_mixer import (
    ChainSpec,
    IncrementDistribution,
    IntMatrix,
    StateDistribution,
    step_exact,
    tv_distance,
)

SUITE_ROWS = (
    ((2,),),
    ((1,),),
    ((0, 1), (2, 0)),
    ((2, 1), (1, 1)),
    ((1, 0), (0, 2)),
    ((0, -1), (1, 0)),
)

SUITE_PRIMES = (3, 5, 7, 11, 13)


def fair_two_point(k: int) -> IncrementDistribution:
    """Fair increments on {0, e_1} in dimension k."""
    zero = (0,) * k
    e1 = (1,) + (0,) * (k - 1)
    return IncrementDistribution.fair([zero, e1])


def suite_matrices() -> list[IntMatrix]:
    return [IntMatrix.from_rows(rows) for rows in SUITE_ROWS]


def suite_chains(primes=SUITE_PRIMES) -> list[ChainSpec]:
    chains = []
    for rows in SUITE_ROWS:
        a = IntMatrix.from_rows(rows)
        mu = fair_two_point(a.k)
        for p in primes:
            chains.append(ChainSpec(a, mu, p))
    return chains


def decode_state(code, p, k):
    """The state whose little-endian index is code: the inverse of
    encode_state, one digit at a time."""
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return tuple(out)


def state_table(p, k):
    """All states as a (p**k, k) int64 array; row i decodes index i."""
    codes = np.arange(p**k, dtype=np.int64)
    return np.stack([(codes // p**i) % p for i in range(k)], axis=1)


def roll_step(dist, chain):
    """One exact step the plain way: the law pushed through its own table
    of y -> A y (matmul_index_map, not the package's), then for each folded
    shift in order w * np.roll of it added into a zeroed law.  The oracle
    for step_exact, which must give the same law bit for bit."""
    p, k = chain.p, chain.k
    pushed = np.empty_like(dist.values)
    pushed[matmul_index_map(chain.a, p, k)] = dist.values
    cube = pushed.reshape((p,) * k)
    out = np.zeros_like(cube)
    for shift, w in chain._shifts:
        # axis j of the cube holds component x_{k-1-j}, hence the reversal
        out += w * np.roll(cube, shift=shift[::-1], axis=tuple(range(k)))
    return StateDistribution(p, k, out.reshape(-1))


def matmul_index_map(matrix, p, k):
    """Index of M x mod p for every state index x, from the table of all
    states, an integer matrix product and the little-endian place values:
    the oracle for index_map."""
    m_mod = (np.array(matrix.rows, dtype=object) % p).astype(np.int64)
    image = (state_table(p, k) @ m_mod.T) % p
    return image @ np.array([p**i for i in range(k)], dtype=np.int64)


def start_shifted(dist, chain, n):
    """dist pushed through x -> A**n x0 + x (mod p): A**n x0 from Python int
    products, then np.roll of the law cube.  The oracle for a start at x0,
    which moves P_n by that translation alone."""
    p, k = chain.p, chain.k
    offset = chain.x0
    for _ in range(n):
        offset = tuple(sum(a * x for a, x in zip(row, offset)) % p for row in chain.a.rows)
    cube = dist.values.reshape((p,) * k)
    # axis j of the cube holds component x_{k-1-j}, hence the reversal
    moved = np.roll(cube, shift=offset[::-1], axis=tuple(range(k)))
    return StateDistribution(p, k, moved.reshape(-1))


def dense_laws(chain, n):
    """Yield (i, P_i) for i = 0..n from the point mass at x0 by step_exact
    alone: the reference for evolve_iter, which takes its early steps on
    the support."""
    dist = StateDistribution.point_mass(chain.p, chain.k, chain.x0)
    yield 0, dist
    for i in range(1, n + 1):
        dist = step_exact(dist, chain)
        yield i, dist


def dense_mixing_time(chain, eps, n_cap):
    """Smallest n <= n_cap with tv_distance(P_n) <= eps, None when unmixed
    at the cap: tv at every n of dense_laws, the reference search."""
    for n, dist in dense_laws(chain, n_cap):
        if tv_distance(dist) <= eps:
            return n
    return None


def reference_simulate(chain, n, trials, seed):
    """The empirical law of X_n from simulate's draws, each step written as
    the one expression (x @ A^T + the drawn increments) % p: the oracle of
    simulate, whose buffered steps must give the same law bit for bit."""
    p, k = chain.p, chain.k
    rng = np.random.default_rng(seed)
    a_mod = (np.array(chain.a.rows, dtype=object) % p).astype(np.int64)
    supp = np.array([[int(c) % p for c in pt] for pt in chain.mu.support], dtype=np.int64)
    probs = np.array(chain.mu.probs)
    probs = probs / probs.sum()
    x = np.tile(np.array(chain.x0, dtype=np.int64), (trials, 1))
    for _ in range(n):
        picks = rng.choice(len(supp), size=trials, p=probs)
        x = (x @ a_mod.T + supp[picks]) % p
    codes = x @ np.array([p**i for i in range(k)], dtype=np.int64)
    return np.bincount(codes, minlength=p**k) / trials


def flatnonzero_best_witness(prods, p, k):
    """Half the root of the largest product over alpha != 0, and the
    lexicographically first alpha attaining it: every tie's index by
    flatnonzero, then the ties with the least c_0, among those the least
    c_1, ..., one digit at a time (the index of x being sum x_i p**i), which
    leaves exactly one.  The oracle of fourier._best_witness, which finds
    the witness from per-axis maxima."""
    best = float(prods[1:].max())
    ties = np.flatnonzero(prods[1:] == best) + 1
    for i in range(k):
        digit = ties // p**i % p
        ties = ties[digit == digit.min()]
    return 0.5 * math.sqrt(best), tuple(int(ties[0]) // p**i % p for i in range(k))


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
