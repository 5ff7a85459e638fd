"""Shared fixtures: the matrix suite, its fair two-point increments, the
reference mixing-time search, and a wall-clock limit for tests of work
that must end quickly."""

from __future__ import annotations

import signal
from contextlib import contextmanager

from affine_mixer import ChainSpec, IncrementDistribution, IntMatrix, evolve_iter, tv_distance

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


def dense_mixing_time(chain, eps, n_cap):
    """Smallest n <= n_cap with tv_distance(P_n) <= eps, None when unmixed
    at the cap: tv at every n of evolve_iter, the reference search."""
    for n, dist in evolve_iter(chain, n_cap):
        if tv_distance(dist) <= eps:
            return n
    return None


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
