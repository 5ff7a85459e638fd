"""Exact evolution of the chain law over Z_p^k.

States are indexed little-endian: x maps to sum_i x_i * p**i.  One step of
X' = A X + B (mod p) is a push-forward through the bijection y -> A y
(gcd(det A, p) = 1 makes it one) followed by a cyclic convolution with the
reduced increment law, so a step costs O(p^k * |supp mu|) and stays exact
up to float addition.  The mixing search skips the work that the paper's
necessary-steps count already decides: P_n lives on at most |supp mu|**n
states, so while that is small against p^k its early steps run on the
support alone, at O(|supp| |supp mu|) each, and tv is computed only once
the count no longer rules out mixing.  Mixing times past a short
prefix are found in the Fourier domain, where the law after n steps costs
O(log n) pointwise products instead of n steps.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .algebra import IntMatrix, as_matrix, det_int, mat_pow_mod
from .errors import ConfigInvalid, ModulusNotCoprime, StateSpaceTooLarge
from .increments import IncrementDistribution

DEFAULT_STATE_CAP = 4_000_000
STATE_CAP_ENV = "AFFINE_MIXER_STATE_CAP"
DEFAULT_N_CAP = 100_000
SUM_TOL = 1e-10
NEG_TOL = -1e-15


def state_cap() -> int:
    """Dense state cap; the environment variable overrides the default."""
    raw = os.environ.get(STATE_CAP_ENV)
    if raw is None:
        return DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigInvalid(f"{STATE_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def encode_state(x: Sequence[int], p: int) -> int:
    """Little-endian mixed-radix index of a state vector."""
    code = 0
    for i, c in enumerate(x):
        code += (int(c) % p) * p**i
    return code


def decode_state(code: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return tuple(out)


def _state_index(x: Sequence[int], p: int, k: int) -> int:
    """encode_state of a state that must have k components."""
    if len(x) != k:
        raise ValueError(f"state {tuple(x)} has {len(x)} components, expected {k}")
    return encode_state(x, p)


def state_table(p: int, k: int) -> np.ndarray:
    """All states as an (p**k, k) int64 array; row i decodes index i."""
    return _decode(np.arange(p**k, dtype=np.int64), p, k)


def _decode(codes: np.ndarray, p: int, k: int) -> np.ndarray:
    """The (m, k) array of states whose little-endian indices are codes."""
    return np.stack([(codes // p**i) % p for i in range(k)], axis=1)


def _encode(states: np.ndarray, p: int) -> np.ndarray:
    """Little-endian indices of the rows of an (m, k) array of reduced states."""
    return states @ np.array([p**i for i in range(states.shape[1])], dtype=np.int64)


def _mod_rows(matrix: IntMatrix, p: int) -> np.ndarray:
    """The entries of a matrix reduced mod p, as int64, whatever their size."""
    return (np.array(matrix.rows, dtype=object) % p).astype(np.int64)


def index_map(matrix: IntMatrix | Sequence[Sequence[int]], p: int, k: int) -> np.ndarray:
    """Index of M x mod p for every state index x.

    A permutation of the state indices whenever gcd(det M, p) = 1.
    """
    states = state_table(p, k)
    m_mod = _mod_rows(as_matrix(matrix), p)
    image = states @ m_mod.T
    reduced = image % p
    # Dropping image before the codes are allocated keeps a state-sized
    # block out of the process's peak: with it held, a mixing sweep over
    # p up to 3e6 peaked 14% higher in resident memory.
    del image
    return _encode(reduced, p)


def _mu_hat_table(mu: IncrementDistribution, p: int) -> np.ndarray:
    """mu_hat(alpha) = sum of mu(h) * exp(2 pi i <h, alpha> / p) at every
    frequency index alpha, with phases from exact inner products mod p
    looked up among the p roots of unity."""
    supp = np.array([[c % p for c in pt] for pt in mu.support], dtype=np.int64)
    roots = np.exp((2j * np.pi / p) * np.arange(p))
    return roots[(state_table(p, mu.k) @ supp.T) % p] @ np.array(mu.probs)


@dataclass(frozen=True)
class ChainSpec:
    """The recursion X_{n+1} = A X_n + B_n (mod p) with start X_0 = x0; its
    index tables are built on first use and freed with the chain."""

    a: IntMatrix
    mu: IncrementDistribution
    p: int
    x0: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_matrix(self.a))
        if self.p < 2:
            raise ValueError("modulus must be >= 2")
        if self.mu.k != self.a.k:
            raise ValueError("dimension mismatch between mu and A")
        if math.gcd(det_int(self.a), self.p) != 1:
            raise ModulusNotCoprime(
                f"gcd(det(A), {self.p}) != 1; the step map is not a bijection"
            )
        # the law's accepted sum may miss 1 by up to 1e-12, and each dense
        # step would multiply the total by it; an exact 1.0 keeps every bit
        total = math.fsum(self.mu.probs)
        if total != 1.0:
            probs = tuple(w / total for w in self.mu.probs)
            object.__setattr__(self, "mu", replace(self.mu, probs=probs))
        x0 = self.x0 if self.x0 is not None else (0,) * self.a.k
        if len(x0) != self.a.k:
            raise ValueError("x0 must have length k")
        object.__setattr__(self, "x0", tuple(int(c) % self.p for c in x0))

    @property
    def k(self) -> int:
        return self.a.k

    @property
    def n_states(self) -> int:
        return self.p**self.k

    @cached_property
    def _perm(self) -> np.ndarray:
        """Index permutation of the push-forward y -> A y mod p."""
        return index_map(self.a, self.p, self.k)

    @cached_property
    def _perm_t(self) -> np.ndarray:
        """Index permutation of alpha -> T alpha mod p, T = transpose(A); _perm if A = T."""
        t = self.a.transpose()
        return self._perm if t == self.a else index_map(t, self.p, self.k)

    @cached_property
    def _shifts(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """mu folded mod p, as sorted (shift, weight) pairs."""
        shifts: defaultdict[tuple[int, ...], float] = defaultdict(float)
        for pt, w in zip(self.mu.support, self.mu.probs):
            shifts[tuple(int(c) % self.p for c in pt)] += w
        return tuple(sorted(shifts.items()))


class StateDistribution:
    """Dense law on Z_p^k, little-endian indexed, values read-only."""

    __slots__ = ("p", "k", "values")

    def __init__(self, p: int, k: int, values: np.ndarray | Sequence[float]):
        arr = np.array(values, dtype=np.float64)
        if arr.shape != (p**k,):
            raise ValueError(f"expected {p**k} entries, got {arr.shape}")
        low = float(arr.min())
        if low < NEG_TOL:
            raise ValueError(f"negative probability {low} below tolerance")
        np.clip(arr, 0.0, None, out=arr)
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1 within {SUM_TOL}")
        arr.flags.writeable = False
        self.p = p
        self.k = k
        self.values = arr

    @classmethod
    def point_mass(cls, p: int, k: int, x: Sequence[int]) -> "StateDistribution":
        arr = np.zeros(p**k)
        arr[_state_index(x, p, k)] = 1.0
        return cls(p, k, arr)

    @classmethod
    def uniform(cls, p: int, k: int) -> "StateDistribution":
        return cls(p, k, np.full(p**k, 1.0 / p**k))

    def prob(self, x: Sequence[int]) -> float:
        return float(self.values[_state_index(x, self.p, self.k)])


def _check_cap(count: int, what: str, per_state: int = 1) -> None:
    """Refuse to build `count` dense rows or states, or `count` items at
    per_state items to a state, before allocating any."""
    cap = state_cap()
    if count > per_state * cap:
        times = f"{per_state} * " if per_state > 1 else ""
        raise StateSpaceTooLarge(f"{what} = {count} exceeds {times}the state cap {cap}")


def _translate(cube: np.ndarray, shift: Sequence[int]) -> np.ndarray:
    """The law cube moved by x -> x + shift (mod p), as a new cube; left unreshaped
    so that numpy reuses its buffer for the product in w * _translate(...)."""
    # axis j of the cube holds component x_{k-1-j}, hence the reversal
    return np.roll(cube, shift=shift[::-1], axis=tuple(range(cube.ndim)))


def step_exact(dist: StateDistribution, chain: ChainSpec) -> StateDistribution:
    """One exact step: P'(x) = sum_y P(y) * mu_p(x - A y mod p)."""
    if (dist.p, dist.k) != (chain.p, chain.k):
        raise ValueError("distribution and chain dimensions disagree")
    p, k = chain.p, chain.k
    pushed = np.empty_like(dist.values)
    pushed[chain._perm] = dist.values
    cube = pushed.reshape((p,) * k)
    out = np.zeros_like(cube)
    for shift, w in chain._shifts:
        out += w * _translate(cube, shift)
    return StateDistribution(p, k, out.reshape(-1))


def evolve_iter(chain: ChainSpec, n: int) -> Iterator[tuple[int, StateDistribution]]:
    """Yield (i, P_i) for i = 0..n starting from the point mass at x0."""
    if n < 0:
        raise ValueError("step count must be >= 0")
    _check_cap(chain.n_states, "p**k")
    dist = StateDistribution.point_mass(chain.p, chain.k, chain.x0)
    yield 0, dist
    for i in range(1, n + 1):
        dist = step_exact(dist, chain)
        yield i, dist


def _step_price(states: int) -> int:
    """What one dense step over `states` states or trajectories costs, in
    states: those plus cap // 1024 for the step's fixed overhead (about
    50 us, some 3,000 states at 16 ns each; 3,906 at the default cap), so
    that 64 state caps buy at most about 65,500 steps whatever p**k is."""
    return states + state_cap() // 1024


def _check_work(chain: ChainSpec, n: int) -> None:
    """Refuse n dense steps, before the first, when n + 1 steps at
    _step_price(p**k) exceed 64 state caps."""
    _check_cap(
        (n + 1) * _step_price(chain.n_states), "(n + 1) * (p**k + cap // 1024)", per_state=64
    )


def evolve(chain: ChainSpec, n: int) -> StateDistribution:
    """The law P_n of X_n, by n exact steps from the point mass at x0."""
    _check_work(chain, n)
    return deque(evolve_iter(chain, n), maxlen=1)[0][1]


def tv_distance(dist: StateDistribution) -> float:
    """Total variation distance to the uniform law on Z_p^k."""
    return 0.5 * float(np.abs(dist.values - 1.0 / len(dist.values)).sum())


def simulate(chain: ChainSpec, n: int, trials: int, seed: int) -> StateDistribution:
    """Empirical law of X_n over independent trajectories.

    Deterministic given seed: draws come from numpy's Generator with the
    PCG64 bit generator seeded with exactly this value.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_cap(chain.n_states, "p**k")
    _check_cap(trials, "trials")
    _check_cap(_step_price(trials) * (n + 1), "(trials + cap // 1024) * (n + 1)", per_state=64)
    p, k = chain.p, chain.k
    rng = np.random.default_rng(seed)
    a_mod = _mod_rows(chain.a, p)
    supp = np.array(
        [[int(c) % p for c in pt] for pt in chain.mu.support], dtype=np.int64
    )
    probs = np.array(chain.mu.probs)
    probs = probs / probs.sum()
    x = np.tile(np.array(chain.x0, dtype=np.int64), (trials, 1))
    for _ in range(n):
        picks = rng.choice(len(supp), size=trials, p=probs)
        x = (x @ a_mod.T + supp[picks]) % p
    counts = np.bincount(_encode(x, p), minlength=p**k)
    return StateDistribution(p, k, counts / trials)


def shift_by(dist: StateDistribution, chain: ChainSpec, n: int) -> StateDistribution:
    """Push dist through x -> A**n x0 + x (mod p), the start-shift map."""
    p, k = chain.p, chain.k
    offset = mat_pow_mod(chain.a, n, p).apply(chain.x0)
    return StateDistribution(p, k, _translate(dist.values.reshape((p,) * k), offset).reshape(-1))


def _step_support(
    codes: np.ndarray, values: np.ndarray, chain: ChainSpec
) -> tuple[np.ndarray, np.ndarray]:
    """One exact step of a law held as its support: sorted state indices and
    their values.  Costs O(|supp| s log(|supp| s)) with s = |supp mu|, not
    O(p**k), and builds no permutation table.

    Each target gathers w * P(y) over the pairs (y, shift) with
    A y + shift = x, added in the order of chain._shifts starting from 0,
    as the translates are added in step_exact; so the law is bit-identical
    to step_exact's on the same support.
    """
    p, k = chain.p, chain.k
    pushed = _decode(codes, p, k) @ _mod_rows(chain.a, p).T
    shifts = np.array([shift for shift, _ in chain._shifts], dtype=np.int64)
    weights = np.array([w for _, w in chain._shifts])
    # shift-major rows: bincount adds each target's terms in shift order
    targets = _encode(((pushed[None] + shifts[:, None]) % p).reshape(-1, k), p)
    codes, inverse = np.unique(targets, return_inverse=True)
    terms = (weights[:, None] * values[None]).reshape(-1)
    return codes, np.bincount(inverse, weights=terms, minlength=len(codes))


def _mixing_time_dense(chain: ChainSpec, eps: float, n_cap: int) -> Optional[int]:
    """Smallest n <= n_cap with tv_distance(P_n) <= eps, by incremental
    exact stepping; None when unmixed at the cap.

    The paper's necessary-steps argument is a count: P_n lives on at most
    b_n = min(s**n, N) states (s = |supp mu| folded mod p, N = p**k), so
    tv(P_n) >= 1 - b_n / N.  While that bound certifies tv > eps, no tv is
    computed, and while the support is small against N the law is stepped
    on its support (_step_support), so those early steps cost O(|supp| s),
    not O(N).  Then it is scattered into one dense law and stepped by
    step_exact, with tv_distance called only where the bound no longer
    decides.  The certificate asks (1 - eps) N > 2 b: the float law is
    exactly 0 off its b counted states, so its exact tv is above eps by
    more than b / N >= 1 / N, less its drift from total 1, and that drift
    plus the float error of tv_distance (a few u (n s + log2 N) with
    u = 2**-53) stays far below 1 / N for every N a dense law can have.
    Every law is the one evolve gives, bit for bit, so the answer is the
    one tv_distance at every n gives.
    """
    if n_cap < 0:
        raise ValueError("step count must be >= 0")
    _check_cap(chain.n_states, "p**k")
    size, s = chain.n_states, len(chain._shifts)

    def unmixed(support: int) -> bool:
        return (1.0 - eps) * size > 2 * support

    def on_support(targets: int) -> bool:
        # below about 2**10 states a dense step costs no more than a support
        # step's fixed overhead, and past about N / 32 targets it costs less
        # than a sort of them
        return 2**10 <= size and 32 * targets < size and unmixed(targets)

    n = 0
    codes = np.array([encode_state(chain.x0, chain.p)], dtype=np.int64)
    values = np.ones(1)
    while n < n_cap and on_support(len(codes) * s):
        codes, values = _step_support(codes, values, chain)
        n += 1
    law = np.zeros(size)
    law[codes] = values
    dist = StateDistribution(chain.p, chain.k, law)
    bound = len(codes)
    # held through the dense steps, the support (1 MB at p = 3e6) raised the
    # peak resident memory of a mixing sweep up to that p by 4 MB
    del law, codes, values
    while unmixed(bound) or tv_distance(dist) > eps:
        if n == n_cap:
            return None
        dist = step_exact(dist, chain)
        n += 1
        bound = min(bound * s, size)
    return n


def _dense_prefix(n_states: int, support_size: int) -> int:
    """Steps to try by _mixing_time_dense before the Fourier search.

    The early steps of that prefix, which run on the support of P_n and
    cost O(|supp| |supp mu|) rather than O(N), are priced here as dense
    steps: the prefix is set for a search that steps densely throughout,
    and changing it would change which path answers.

    Costs in passes over a length-N array (N = p**k): a dense step makes
    about |supp mu| + 4 of them (the rolls, their sum and the
    StateDistribution checks) plus a fixed Python overhead worth about
    2**14; a candidate n in the Fourier search (an FFT of a complex
    array and the tv sum) makes about 8 log2 N, plus an overhead of about
    2**13.  A search takes about 20 transforms (2 log2 n plus the crossing
    check, for the n in reach of a short prefix).  The prefix is that
    search's cost counted in dense steps: a chain that mixes within it
    never pays for a transform, and one that does not has spent at most
    what the search costs, so neither path costs more than about twice
    the cheaper one.  Only N and |supp mu| enter; the chain's regime is
    not known before it has been run.
    """
    transform = 8 * n_states * math.log2(max(n_states, 2)) + 2**13
    step = (support_size + 4) * n_states + 2**14
    return math.ceil(20 * transform / step)


class _NearTie(Exception):
    """A Fourier tv value too close to eps to decide against it."""


def _round_off_margin(n: int, n_states: int, support_size: int, norm: float) -> float:
    """Bound on |tv_fourier(n) - tv_dense(n)| from float round-off.

    norm is ||Q_m_hat||_2 for some m <= (n - 1) // 2.  With u = 2**-53,
    N = p**k and s = |supp mu|:

    - Fourier side.  Each mu_hat entry is a sum of s unit phases, off by
      at most e = (2s + 2) u.  Q_n_hat(alpha) is a product of n factors
      a_j = mu_hat(T**j alpha), one complex rounding per node of the
      product tree (relative error <= sqrt(5) u each).  To first order a
      leaf error e_j moves it by e_j prod_{i != j} a_i, whose modulus is
      at most that of the orbit product over the longer side of j, at
      least (n - 1) // 2 factors; so ||dQ_n_hat||_2 <= n (4s + 7) u norm.
      The forward FFT adds at most c u log2 N ||Q_n_hat||_2 in the same
      2-norm.  By Parseval, sum_x |dQ_n(x)| <= ||dQ_n_hat||_2, and tv
      moves by at most half of that.
    - Dense side.  A step adds s weighted rolls of a nonnegative law, an
      l1 error of at most (s + 1) u, and a stochastic step does not grow
      earlier errors; tv_dense is off by at most n (s + 1) u / 2 plus
      u log2 N for its sum.

    Below the sum of both bounds the two searches may disagree on the
    side of eps.  With c = 8, norm >= 1 and a factor 2 for the dropped
    higher-order terms, the sum is at most
    u norm ((n + 1) (5s + 8) + 10 log2 N).  A bound in n and N alone must
    take norm = sqrt(N) (a point mass), which at p = 3001 is already wider
    than the change of tv per step near mixing; ||Q_m_hat||_2 only falls
    as m grows, since convolving with a law never raises a 2-norm.
    """
    terms = (n + 1) * (5 * support_size + 8) + 10 * math.log2(max(n_states, 2))
    return 2.0**-53 * norm * terms


# A Fourier-domain state (Q_n_hat, pi_n): the transform of the law Q_n of
# S_n = sum_{j<n} A**j B_j at every frequency index, and the index map of
# alpha -> T**n alpha (T = transpose(A)).
_Orbit = tuple[np.ndarray, np.ndarray]


def _join(a: _Orbit, b: _Orbit) -> _Orbit:
    """The state of n_a + n_b steps: Q_{a+b}_hat(alpha) = Q_a_hat(alpha) *
    Q_b_hat(T**a alpha) and T**(a+b) = T**b T**a, by exact index gathers."""
    (qa, pa), (qb, pb) = a, b
    q = qb[pa]
    q *= qa
    return q, pb[pa]


def _power(one: _Orbit, n: int) -> _Orbit:
    """The state of n steps from that of one, by binary powering; holds
    at most three states besides its argument, whatever n is."""
    acc = (np.ones_like(one[0]), np.arange(len(one[1])))
    sq, width, done = one, 1, 0
    while done < n:
        if n & width:
            acc = _join(acc, sq)
            done += width
        if done < n:
            sq = _join(sq, sq)
            width *= 2
    return acc


def _fourier_search(chain: ChainSpec, eps: float, n_cap: int, lo: int) -> Optional[int]:
    """mixing_time past a prefix lo with tv(P_lo) > eps, in the Fourier domain.

    tv to uniform is invariant under translation, so tv(P_n) = tv(Q_n)
    and x0 drops out.  The transform of Q_n is the orbit product
    Q_n_hat(alpha) = prod_{j<n} mu_hat(T**j alpha), built from O(log n)
    joins; one FFT per candidate n gives tv.  Gallop by doubling n, then
    bisect; valid because tv never increases.  Raises _NearTie when a
    value lies within the round-off margin of eps, or when the crossing
    tv(n) <= eps < tv(n - 1), recomputed by another product grouping,
    does not hold.
    """
    p, k, size = chain.p, chain.k, chain.n_states
    support_size = len(chain.mu.support)
    one = (_mu_hat_table(chain.mu, p), chain._perm_t)
    # ||Q_m_hat||_2 at the step counts m held so far, for the margin
    norms = {0: math.sqrt(size)}

    def keep_norm(state: _Orbit, m: int) -> None:
        norms[m] = float(np.linalg.norm(state[0]))

    def mixed(state: _Orbit, n: int) -> bool:
        # N Q_n(x) by the forward FFT, the transform's sign being +
        dev = np.fft.fftn(state[0].reshape((p,) * k)).real
        dev -= 1.0
        np.abs(dev, out=dev)
        tv = 0.5 * float(dev.sum()) / size
        norm = norms[max(m for m in norms if m <= (n - 1) // 2)]
        if abs(tv - eps) <= _round_off_margin(n, size, support_size, norm):
            raise _NearTie(f"tv({n}) = {tv!r} is within round-off of eps = {eps!r}")
        return tv <= eps

    keep_norm(one, 1)
    low = _power(one, lo)
    keep_norm(low, lo)
    while True:
        hi = min(2 * lo, n_cap)
        high = _join(low, low if hi == 2 * lo else _power(one, hi - lo))
        if mixed(high, hi):
            break
        if hi == n_cap:
            return None
        lo, low = hi, high
        keep_norm(low, lo)
    del high
    while hi - lo > 1:
        width = 1 << ((hi - lo - 1).bit_length() - 1)
        mid = _join(low, _power(one, width))
        if mixed(mid, lo + width):
            hi = lo + width
        else:
            lo, low = lo + width, mid
        del mid
    del low
    prev = _power(one, hi - 1)
    if mixed(prev, hi - 1) or not mixed(_join(prev, one), hi):
        raise _NearTie(f"the crossing at n = {hi} did not recompute")
    return hi


def mixing_time(
    chain: ChainSpec, eps: float, n_cap: int = DEFAULT_N_CAP
) -> Optional[int]:
    """Smallest n <= n_cap with tv_distance(P_n) <= eps, else None.

    Steps exactly for a short prefix (see _dense_prefix), then gallops and
    bisects on n in the Fourier domain, where each candidate costs O(log n)
    pointwise products and one FFT, so raising n_cap is cheap.  While the
    counting bound tv(P_n) >= 1 - |supp P_n| / p**k rules out mixing, the
    prefix computes no tv, and its early steps run on the support of P_n
    at O(|supp| |supp mu|) each (see _mixing_time_dense).  A Fourier
    value within the round-off margin of eps, or a crossing that does not
    recompute, hands the whole search to dense stepping, so the answer is
    always the one incremental dense stepping gives.  That stepping stays
    within the budget of _check_work; a chain still unmixed at the budget's
    last step, with n_cap past it, raises StateSpaceTooLarge.  None means
    unmixed at the cap.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    prefix = min(n_cap, _dense_prefix(chain.n_states, len(chain.mu.support)))
    found = _mixing_time_dense(chain, eps, prefix)
    if found is not None or prefix == n_cap:
        return found
    try:
        return _fourier_search(chain, eps, n_cap, prefix)
    except _NearTie:
        reach = 64 * state_cap() // _step_price(chain.n_states) - 1
        found = _mixing_time_dense(chain, eps, min(n_cap, reach))
        if found is None and n_cap > reach:
            raise StateSpaceTooLarge(
                f"unmixed after {reach} dense steps, the most the state cap "
                f"{state_cap()} allows at p**k = {chain.n_states}; n_cap = {n_cap}"
            )
        return found
