"""Fourier side of the chain: transform products, bounds, certificates.

For a chain started at 0 the transform of P_n factors over the transpose
orbit of the frequency, P_n_hat(alpha) = prod_j mu_hat(T**j alpha) with
T = transpose(A).  Squared moduli of those products give an upper bound
on tv**2 (summed over nonzero frequencies, quarter weight) and a lower
bound on tv at every single frequency (half the modulus).  At one n the
products of all frequencies are joined from the factor table |mu_hat|**2
in O(log n) pointwise products and index gathers, the orbit-product
engine of the mixing search, so upper_bound and lower_bound_best cost the
same at every n.  The bounds table walks consecutive n with product_scan,
one product per step, until the best nonzero product freezes; from that
row on it joins one step per row onto the orbit state there.  Two closed-form
certificates bound tv from below without evolving anything: a product form
driven by the constant rho, and a torsion form driven by gamma at a
frequency fixed by some power of T.

Mixing times past a short prefix are found here, in the Fourier domain,
where the law after n steps costs O(log n) pointwise products instead of
n steps (_fourier_search, which evolution's mixing_time calls past its
dense prefix, or in its place outward from a hinted n).  The
products are joined from mu_hat itself, not from its
squared modulus, and one FFT per candidate n gives tv; a value within
the round-off margin of eps raises _NearTie, and mixing_time then hands
the search to dense stepping.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_L_MAX,
    IntMatrix,
    as_matrix,
    det_int,
    inf_norm,
    integer_kernel_vector,
)
from .errors import FactorNonpositive, GammaTooLarge, NoTorsion, ZeroFrequency
from .evolution import (
    ChainSpec,
    StateDistribution,
    _check_cap,
    _check_steps,
    _check_work,
    _law_tv,
    _mu_hat_table,
    _walk,
)
from .increments import IncrementDistribution

FREEZE_THRESHOLD = 1e-30


@dataclass(frozen=True)
class FrequencyVector:
    """Frequency alpha in Z_p^k, components stored reduced into [0, p)."""

    alpha: tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("modulus must be >= 2")
        object.__setattr__(
            self, "alpha", tuple(int(c) % self.p for c in self.alpha)
        )

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.alpha)

    def __str__(self) -> str:
        return ";".join(str(c) for c in self.alpha)


def as_frequency(alpha: FrequencyVector | Sequence[int], p: int, k: int) -> FrequencyVector:
    """alpha as a frequency in Z_p^k; a modulus other than p or a length
    other than k raises ValueError."""
    if not isinstance(alpha, FrequencyVector):
        alpha = FrequencyVector(tuple(alpha), p)
    elif alpha.p != p:
        raise ValueError(f"frequency modulus {alpha.p} differs from {p}")
    if len(alpha.alpha) != k:
        raise ValueError(f"frequency {alpha} has {len(alpha.alpha)} components, expected {k}")
    return alpha


@dataclass(frozen=True)
class BoundsReport:
    """One row of the bounds table at step n.

    upper bounds tv**2; lower_best and certificate bound tv itself.
    """

    n: int
    tv: float
    upper: float
    lower_best: float
    alpha_witness: FrequencyVector
    certificate: Optional[float]


@dataclass(frozen=True)
class RhoCertificate:
    """Product-form lower bound for tv at step n and its constant rho."""

    bound: float
    rho: float
    alpha: FrequencyVector
    norm_t: int
    n: int


@dataclass(frozen=True)
class GammaCertificate:
    """Torsion lower bound for tv at step n.

    alpha is the primitive integer vector fixed by T**l; witness is its
    reduction mod p.
    """

    bound: float
    gamma: float
    l: int
    alpha: tuple[int, ...]
    witness: FrequencyVector
    n: int


def mu_hat(mu: IncrementDistribution, alpha: FrequencyVector) -> complex:
    """Transform of mu at alpha: sum of mu(h) * exp(2 pi i <h, alpha> / p).

    Phases come from exact integer inner products reduced mod p.  alpha
    must have mu.k components.
    """
    as_frequency(alpha, alpha.p, mu.k)
    p = alpha.p
    acc = complex(0.0)
    for pt, w in zip(mu.support, mu.probs):
        e = sum(c * a for c, a in zip(pt, alpha.alpha)) % p
        acc += w * cmath.exp(2j * math.pi * e / p)
    return acc


def pn_hat_sq(
    chain: ChainSpec, alpha: FrequencyVector | Sequence[int], n: int
) -> float:
    """Squared transform modulus of P_n at alpha, by the orbit product.

    Equals prod_{j<n} |mu_hat(T**j alpha)|**2 with T = transpose(A); the
    orbit is computed in exact integers mod p.  The ChainSpec invariant
    gcd(det A, p) = 1 is what makes the product formula exact, and makes
    T a bijection, so the orbit is a cycle of some length L <= p**k.  It
    is walked once, up to n steps; past L the product is (cycle
    product)**(n // L) times the product of the first n % L factors.
    n = 0 gives 1.
    """
    _check_steps(n)
    fv = as_frequency(alpha, chain.p, chain.k)
    p = chain.p
    _check_cap(min(n, chain.n_states), "min(n, p**k) orbit steps")
    at = chain.a.transpose()
    cur = fv.alpha
    factors = []
    while len(factors) < n:
        factors.append(abs(mu_hat(chain.mu, FrequencyVector(cur, p))) ** 2)
        cur = tuple(c % p for c in at.apply(cur))
        if cur == fv.alpha:
            break
    whole = math.prod(factors, start=1.0)
    if len(factors) == n:
        return whole
    cycles, rest = divmod(n, len(factors))
    # |mu_hat| <= 1 exactly; the clip keeps a float spill from growing
    return min(whole, 1.0) ** cycles * math.prod(factors[:rest], start=1.0)


def product_scan(chain: ChainSpec, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (j, products) for j = 0..n where products[i] is the running
    pn_hat_sq of the frequency with index i.

    Products that fall below FREEZE_THRESHOLD are frozen (kept, no longer
    multiplied); frozen values only overstate the true product, so sums
    stay valid upper bounds.  Factors lie in [0, 1], so a product never
    rises: the active ones are exactly those above the threshold.  The
    yielded array is a live buffer.  Step j multiplies in
    |mu_hat(T**(j-1) alpha)|**2, a factor table gathered (np.take) through
    alpha -> T alpha (_orbit_map) after every step from chain._factors,
    which the scan builds on first use and leaves with the chain; when
    A = I mod p that map is the identity, and the table is neither
    gathered nor built.
    """
    factor, index = chain._factors, _orbit_map(chain)
    prods = np.ones(len(factor))
    yield 0, prods
    for j in range(1, n + 1):
        np.multiply(prods, factor, out=prods, where=prods > FREEZE_THRESHOLD)
        if index is not None:
            factor = np.take(factor, index)
        yield j, prods


# A Fourier-domain state (Q_n_hat, pi_n): the transform of the law Q_n of
# S_n = sum_{j<n} A**j B_j at every frequency index, and the index map of
# alpha -> T**n alpha (T = transpose(A)), or None when A = I mod p, where
# every orbit is a fixed point and no map is held.
_Orbit = tuple[np.ndarray, Optional[np.ndarray]]


def _orbit_map(chain: ChainSpec) -> Optional[np.ndarray]:
    """The index map of alpha -> T alpha for the one-step state, or None
    when every entry of A - I is 0 mod p, decided on A's integer entries."""
    rows, k = chain.a.rows, chain.k
    if all((rows[i][j] - (i == j)) % chain.p == 0 for i in range(k) for j in range(k)):
        return None
    return chain._perm_t


def _join(a: _Orbit, b: _Orbit) -> _Orbit:
    """The state of n_a + n_b steps: Q_{a+b}_hat(alpha) = Q_a_hat(alpha) *
    Q_b_hat(T**a alpha) and T**(a+b) = T**b T**a, by exact index gathers
    (np.take, the floats of fancy indexing and faster on both arrays);
    with no maps (A = I mod p) the product is elementwise, qb times qa in
    place in a copy of qb, the same floats as a gather through the identity."""
    (qa, pa), (qb, pb) = a, b
    if pa is None:
        q = qb.copy()
        q *= qa
        return q, None
    q = np.take(qb, pa)
    q *= qa
    return q, np.take(pb, pa)


def _power(one: _Orbit, n: int) -> _Orbit:
    """The state of n steps from that of one, by binary powering; holds
    at most three states besides its argument, whatever n is."""
    q, index = one
    acc = (np.ones_like(q), None if index is None else np.arange(len(index)))
    sq, width, done = one, 1, 0
    while done < n:
        if n & width:
            acc = _join(acc, sq)
            done += width
        if done < n:
            sq = _join(sq, sq)
            width *= 2
    return acc


def _products_at(chain: ChainSpec, n: int) -> np.ndarray:
    """pn_hat_sq at every frequency index, joined from chain._factors in
    O(log n) orbit products; none is frozen, so a product too small for a
    float becomes 0."""
    _check_steps(n)
    _check_cap(chain.n_states, "p**k")
    return _power((chain._factors, _orbit_map(chain)), n)[0]


def upper_bound(chain: ChainSpec, n: int) -> float:
    """Fourier upper bound for tv**2: quarter sum over nonzero alpha of
    pn_hat_sq(alpha, n)."""
    return 0.25 * float(_products_at(chain, n)[1:].sum())


def lower_bound_at(
    chain: ChainSpec, alpha: FrequencyVector | Sequence[int], n: int
) -> float:
    """Single-frequency lower bound for tv: half the transform modulus."""
    fv = as_frequency(alpha, chain.p, chain.k)
    if fv.is_zero:
        raise ZeroFrequency("the lower bound needs a nonzero frequency")
    return 0.5 * math.sqrt(pn_hat_sq(chain, fv, n))


def _best_witness(prods: np.ndarray, p: int, k: int) -> tuple[float, FrequencyVector]:
    """Half the root of the largest product over alpha != 0, and the
    lexicographically first alpha attaining it (_least_max)."""
    best, witness = _least_max(prods.reshape((p,) * k), True)
    return 0.5 * math.sqrt(best), FrequencyVector(witness, p)


def _least_max(cube: np.ndarray, skip_zero: bool) -> tuple[float, tuple[int, ...]]:
    """The largest entry of a frequency cube, off its zero index if
    skip_zero, and the least alpha = (c_0, c_1, ...) attaining it, c_j on
    axis ndim - 1 - j.  One pass takes each c_0's maximum over the other
    axes, and argmax the least c_0 past 0 with the largest of them.  The
    slice at c_0 = 0, searched alike with its zero index skipped if
    skip_zero, wins a tie; otherwise the slice at that c_0 is searched for
    the rest of alpha.  A pass over the whole cube is made once, and each
    deeper one over a slice p times smaller."""
    if cube.ndim == 0:
        return (-math.inf if skip_zero else float(cube)), ()
    tops = cube.reshape(-1, cube.shape[-1]).max(axis=0) if cube.ndim > 1 else cube
    head, rest = _least_max(cube[..., 0], skip_zero)
    c = 1 + int(np.argmax(tops[1:]))
    if head >= tops[c]:
        return head, (0,) + rest
    return float(tops[c]), (c,) + _least_max(cube[..., c], False)[1]


def lower_bound_best(chain: ChainSpec, n: int) -> tuple[float, FrequencyVector]:
    """Best single-frequency lower bound over all alpha != 0, with the
    lexicographically first maximizing witness."""
    return _best_witness(_products_at(chain, n), chain.p, chain.k)


def _pair_spread(mu: IncrementDistribution) -> float:
    """sum over support pairs of mu(h) mu(i) ||h - i||_inf**2; inf once a
    gap is past float range."""
    total = 0.0
    for h, wh in zip(mu.support, mu.probs):
        for i, wi in zip(mu.support, mu.probs):
            gap = max(abs(a - b) for a, b in zip(h, i))
            try:
                total += wh * wi * gap * gap
            except OverflowError:  # gap past float range
                return math.inf
    return total


def certificate_rho(
    chain: ChainSpec, alpha: FrequencyVector | Sequence[int], n: int
) -> RhoCertificate:
    """Product-form lower bound: half the product over j < n of
    sqrt(1 - rho * ||T||_inf**(2j) / p**2), with
    rho = 2 pi**2 k**2 ||alpha||_inf**2 * sum mu(h) mu(i) ||h-i||_inf**2.

    Every factor must stay positive; the first nonpositive one raises
    FactorNonpositive, meaning n is too large for this certificate at
    this modulus.
    """
    _check_steps(n)
    fv = as_frequency(alpha, chain.p, chain.k)
    if fv.is_zero:
        raise ZeroFrequency("the certificate needs a nonzero frequency")
    k, p = chain.k, chain.p
    alpha_norm = max(fv.alpha)
    rho = 2 * math.pi**2 * k**2 * alpha_norm**2 * _pair_spread(chain.mu)
    norm_t = inf_norm(chain.a.transpose())
    bound = next(itertools.islice(_rho_bounds(rho, norm_t, p), n, None))
    return RhoCertificate(bound=bound, rho=rho, alpha=fv, norm_t=norm_t, n=n)


def _rho_bounds(rho: float, norm_t: int, p: int) -> Iterator[float]:
    """The rho certificate's bound at n = 0, 1, 2, ...: half the running
    product of sqrt(1 - rho * ||T||**(2j) / p**2).  Raises
    FactorNonpositive at the first factor that is not positive."""
    bound = 0.5
    growth = 1  # ||T||**(2j), exact
    for j in itertools.count():
        yield bound
        try:
            factor = 1.0 - rho * growth / p**2
        except OverflowError:
            # growth no longer fits a float: decide the sign exactly
            num, den = rho.as_integer_ratio()
            factor = 1.0 - num * growth / (den * p**2) if num * growth < den * p**2 else -math.inf
        if factor <= 0.0:
            raise FactorNonpositive(
                f"factor 1 - rho*||T||**(2j)/p**2 is {factor:.3e} at j={j}"
            )
        bound *= math.sqrt(factor)
        growth *= norm_t * norm_t


def find_torsion(a: IntMatrix, l_max: int = DEFAULT_L_MAX) -> tuple[int, tuple[int, ...]]:
    """Smallest l <= l_max with T**l - I singular (T = transpose(A)) and a
    primitive integer vector it fixes; raises NoTorsion when none exists."""
    t = np.array(as_matrix(a).rows, dtype=object).T
    eye = np.identity(len(t), dtype=object)
    power = eye
    for l in range(1, l_max + 1):
        power = power @ t
        m = IntMatrix.from_rows((power - eye).tolist())
        if det_int(m) == 0:
            return l, integer_kernel_vector(m)
    raise NoTorsion(f"no power of the transpose up to {l_max} fixes a vector")


def certificate_gamma(chain: ChainSpec, l_max: int, n: int) -> GammaCertificate:
    """Torsion lower bound: half of (1 - gamma/p**2)**(n/2) at a frequency
    alpha fixed by T**l, with
    gamma = 2 pi**2 k**2 ||alpha||_inf**2 * max_{i<l} ||T||_inf**(2i)
            * sum mu(h) mu(i) ||h-i||_inf**2.

    alpha is the primitive integer kernel vector of T**l - I (entry gcd 1,
    first nonzero entry positive); its reduction mod p is the witness.
    Requires gamma < p**2 and ||alpha||_inf < p; a gamma past float range
    counts as inf, so it raises GammaTooLarge.
    """
    _check_steps(n)
    l, alpha = find_torsion(chain.a, l_max)
    k, p = chain.k, chain.p
    witness = FrequencyVector(alpha, p)  # alpha is primitive, so not 0 mod p
    alpha_norm = max(abs(c) for c in alpha)
    if alpha_norm >= p:
        raise GammaTooLarge(
            f"kernel vector norm {alpha_norm} >= p = {p}; certificate not applicable"
        )
    # A is nonsingular, so ||T|| >= 1 and the largest ||T||**(2i), i < l, is the last
    growth = inf_norm(chain.a.transpose()) ** (2 * (l - 1))
    try:
        gamma = 2 * math.pi**2 * k**2 * alpha_norm**2 * growth * _pair_spread(chain.mu)
    except OverflowError:  # growth past float range
        gamma = math.inf
    if not gamma < p * p:  # also nan: a growth that overflowed to inf, times spread 0
        raise GammaTooLarge(f"gamma = {gamma:.6g} is not below p**2 = {p * p}")
    return GammaCertificate(
        bound=_gamma_bound(gamma, p, n), gamma=gamma, l=l, alpha=alpha, witness=witness, n=n
    )


def _gamma_bound(gamma: float, p: int, n: int) -> float:
    """The gamma certificate's bound at step n: half of (1 - gamma/p**2)**(n/2)."""
    return 0.5 * (1.0 - gamma / (p * p)) ** (n / 2)


def _certificates(chain: ChainSpec, l_max: int) -> Iterator[Optional[float]]:
    """The bounds table's certificate column at n = 0, 1, 2, ...: gamma's
    bound when some power of the transpose has torsion and the certificate
    applies at p, else rho's at the first nonzero frequency up to its first
    nonpositive factor, then None."""
    try:
        gamma = certificate_gamma(chain, l_max, 0).gamma
    except (NoTorsion, GammaTooLarge):
        rho = certificate_rho(chain, (1,) + (0,) * (chain.k - 1), 0)
        try:
            yield from _rho_bounds(rho.rho, rho.norm_t, chain.p)
        except FactorNonpositive:
            yield from itertools.repeat(None)
    else:
        for n in itertools.count():
            yield _gamma_bound(gamma, chain.p, n)


def bounds_table(
    chain: ChainSpec, n_max: int, l_max: int = DEFAULT_L_MAX
) -> list[BoundsReport]:
    """Evolve the chain beside the frequency products, one row per n.

    The laws are _walk's, each row's tv read where the law is held
    (_law_tv): a support row or a row held on an arc under steps, the
    last row's too, is never made dense, and its tv is the dense law's,
    bit for bit.

    product_scan gives upper, lower_best and its witness up to the first
    row whose best nonzero product is at most FREEZE_THRESHOLD.  From that
    row on every nonzero product is frozen, so upper keeps that row's value
    and the scan is closed; a frozen product only overstates, so lower_best
    and its witness come from unfrozen products: lower_bound_best's orbit
    state at that n, joined with the one-step state once per later row.
    The certificate column is gamma-based when some power of the transpose
    has torsion (and the certificate applies at this p), else rho-based at
    the first nonzero frequency; entries are empty from the first step the
    chosen certificate stops applying.
    """
    _check_cap(chain.n_states, "p**k")
    _check_work(chain, n_max)
    scan = product_scan(chain, n_max)
    one = (chain._factors, _orbit_map(chain))
    # from the first row whose best product froze: the orbit state at n
    state: Optional[_Orbit] = None
    rows: list[BoundsReport] = []
    for (n, law), certificate in zip(_walk(chain, n_max), _certificates(chain, l_max)):
        if state is None:
            _, prods = next(scan)
            upper = 0.25 * float(prods[1:].sum())
            lower, witness = _best_witness(prods, chain.p, chain.k)
            # 2 lower is the rounded root of the best product, so the first
            # test, which makes no pass over the products, holds if the second does
            if 2 * lower <= math.sqrt(FREEZE_THRESHOLD) and prods[1:].max() <= FREEZE_THRESHOLD:
                del prods  # the scan's buffer, freed with the scan
                scan.close()
                state = _power(one, n)
        else:
            state = _join(state, one)
        if state is not None:
            lower, witness = _best_witness(state[0], chain.p, chain.k)
        tv = _law_tv(law, chain)
        rows.append(BoundsReport(n, tv, upper, lower, witness, certificate))
        # dropped before _walk makes the next law, which it would outlive
        del law
    return rows


def transform_of_distribution(dist: StateDistribution) -> np.ndarray:
    """Squared transform moduli of a distribution at every frequency index.

    Computed through numpy's FFT on the distribution cube; the flat output
    index coincides with the little-endian frequency encoding, and the sign
    convention is irrelevant after taking squared moduli.
    """
    cube = dist.values.reshape((dist.p,) * dist.k)
    flat = np.fft.fftn(cube).reshape(-1)
    return np.abs(flat) ** 2


class _NearTie(Exception):
    """A Fourier tv value too close to eps to decide against it, a crossing
    that does not recompute, or a hint not past twice the prefix, or whose
    downward search is still mixed there."""


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

    When A = I mod p every orbit is a fixed point, and _join multiplies
    the states elementwise with no index map: Q_n_hat(alpha) =
    mu_hat(alpha)**n by the same binary product tree, one complex rounding
    per node, so the bound carries over unchanged.
    """
    terms = (n + 1) * (5 * support_size + 8) + 10 * math.log2(max(n_states, 2))
    return 2.0**-53 * norm * terms


def _fourier_search(
    chain: ChainSpec, eps: float, n_cap: int, lo: int, hint: Optional[int] = None
) -> Optional[int]:
    """mixing_time past a prefix lo with tv(P_lo) > eps, in the Fourier domain.

    tv to uniform is invariant under translation, so tv(P_n) = tv(Q_n)
    and x0 drops out.  The transform of Q_n is the orbit product
    Q_n_hat(alpha) = prod_{j<n} mu_hat(T**j alpha), built from O(log n)
    joins (elementwise when A = I mod p, with no index map, so T's table
    is never built); one FFT per candidate n gives tv.  Gallop by doubling
    n, then bisect; valid because tv never increases.  Raises _NearTie
    when a value lies within the round-off margin of eps, or when the
    crossing tv(n) <= eps < tv(n - 1), recomputed by another product
    grouping, does not hold.

    With a hint, a predicted n_mix, lo is a dense prefix that was not run,
    and the search starts at the hint h, clamped to n_cap; an h not past
    2 lo raises _NearTie at once.  If P_h is mixed the search steps down
    to h - 1, h - 2, h - 4, ... until a candidate is unmixed, trying the
    floor 2 lo + 1 in place of any below it, and raises _NearTie if the
    floor is still mixed.  h and each of these candidates c is built from
    the orbit state at (c - 1) // 2, whose norm it keeps, so the round-off
    margin is no wider than a gallop from lo would leave it.  If P_h is
    unmixed the search steps up to h + 1, h + 2, h + 4, ..., each from
    the last, and returns None when n_cap is unmixed.  The last gap is
    bisected as above.  On _NearTie mixing_time runs the
    unhinted search, so a bad hint costs transforms, never the answer:
    every candidate is decided by tv with the same margin, and the
    crossing is recomputed.
    """
    if hint is not None and min(hint, n_cap) <= 2 * lo:
        # refused before the one-step state's transform and index tables
        raise _NearTie(f"the hint {min(hint, n_cap)} is not past twice the prefix {lo}")
    p, k, size = chain.p, chain.k, chain.n_states
    support_size = len(chain.mu.support)
    one = (_mu_hat_table(chain.mu, p), _orbit_map(chain))
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

    def doubled(n: int) -> _Orbit:
        # the state of n steps, from that of (n - 1) // 2, whose norm is kept
        half = (n - 1) // 2
        state = _power(one, half)
        keep_norm(state, half)
        state = _join(state, state)
        for _ in range(n - 2 * half):
            state = _join(state, one)
        return state

    keep_norm(one, 1)
    hi = None  # the least n found mixed, once there is one
    if hint is None:
        low = _power(one, lo)
        keep_norm(low, lo)
        span, span_n = low, lo  # the gallop's next step and its length
    else:
        prefix, start = lo, min(hint, n_cap)
        floor = 2 * prefix + 1
        lo, low, down = start, doubled(start), 1
        while mixed(low, lo):
            if lo == floor:
                raise _NearTie(f"mixed at n = {lo}, within twice the prefix {prefix}")
            del low
            hi, lo = lo, max(start - down, floor)
            low, down = doubled(lo), 2 * down
        if hi is None and lo == n_cap:
            return None
        span, span_n = one, 1
    while hi is None:
        top = min(lo + span_n, n_cap)
        high = _join(low, span if top - lo == span_n else _power(one, top - lo))
        if mixed(high, top):
            hi = top
        elif top == n_cap:
            return None
        else:
            lo, low = top, high
            keep_norm(low, lo)
            if hint is None:
                span, span_n = low, lo
            elif lo - start > span_n:  # the steps double from start + 2 on
                span, span_n = _join(span, span), 2 * span_n
        del high
    del span
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
