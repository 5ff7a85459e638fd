"""Fourier side of the chain: transform products, bounds, certificates.

For a chain started at 0 the transform of P_n factors over the transpose
orbit of the frequency, P_n_hat(alpha) = prod_j mu_hat(T**j alpha) with
T = transpose(A).  Squared moduli of those products give an upper bound
on tv**2 (summed over nonzero frequencies, quarter weight) and a lower
bound on tv at every single frequency (half the modulus).  Two closed-form
certificates bound tv from below without evolving anything: a product form
driven by the constant rho, and a torsion form driven by gamma at a
frequency fixed by some power of T.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import deque
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
    _check_work,
    _mu_hat_table,
    decode_state,
    evolve_iter,
    tv_distance,
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
    gcd(det A, p) = 1 is what makes the product formula exact.  n = 0
    gives 1.
    """
    if n < 0:
        raise ValueError("step count must be >= 0")
    fv = as_frequency(alpha, chain.p, chain.k)
    p = chain.p
    at = chain.a.transpose()
    cur = fv.alpha
    prod = 1.0
    for _ in range(n):
        prod *= abs(mu_hat(chain.mu, FrequencyVector(cur, p))) ** 2
        cur = tuple(c % p for c in at.apply(cur))
    return prod


def product_scan(chain: ChainSpec, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (j, products) for j = 0..n where products[i] is the running
    pn_hat_sq of the frequency with index i.

    Products that fall below FREEZE_THRESHOLD are frozen (kept, no longer
    multiplied); frozen values only overstate the true product, so sums
    stay valid upper bounds.  Factors lie in [0, 1], so a product never
    rises: the active ones are exactly those above the threshold.  The
    yielded array is a live buffer.  Step j multiplies in
    |mu_hat(T**(j-1) alpha)|**2, a factor table gathered through
    alpha -> T alpha after every step.
    """
    factor = np.abs(_mu_hat_table(chain.mu, chain.p)) ** 2
    np.clip(factor, 0.0, 1.0, out=factor)  # |mu_hat| <= 1 exactly; clip float spill
    prods = np.ones(len(factor))
    yield 0, prods
    for j in range(1, n + 1):
        np.multiply(prods, factor, out=prods, where=prods > FREEZE_THRESHOLD)
        factor = factor[chain._perm_t]
        yield j, prods


def _products_at(chain: ChainSpec, n: int) -> np.ndarray:
    """pn_hat_sq at every frequency index after n steps of product_scan."""
    _check_cap(chain.n_states, "p**k")
    _check_work(chain, n)
    return deque(product_scan(chain, n), maxlen=1)[0][1]


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
    lexicographically first alpha attaining it."""
    best = float(prods[1:].max())
    ties = np.flatnonzero(prods[1:] == best) + 1
    # keep the ties with the least c_0, then among those the least c_1, ...;
    # the index of x is sum of x_i p**i, so this leaves exactly one
    for i in range(k):
        digit = ties // p**i % p
        ties = ties[digit == digit.min()]
    witness = decode_state(int(ties[0]), p, k)
    return 0.5 * math.sqrt(best), FrequencyVector(witness, p)


def lower_bound_best(chain: ChainSpec, n: int) -> tuple[float, FrequencyVector]:
    """Best single-frequency lower bound over all alpha != 0, with the
    lexicographically first maximizing witness."""
    return _best_witness(_products_at(chain, n), chain.p, chain.k)


def _pair_spread(mu: IncrementDistribution) -> float:
    """sum over support pairs of mu(h) mu(i) ||h - i||_inf**2."""
    total = 0.0
    for h, wh in zip(mu.support, mu.probs):
        for i, wi in zip(mu.support, mu.probs):
            gap = max(abs(a - b) for a, b in zip(h, i))
            total += wh * wi * gap * gap
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
    if n < 0:
        raise ValueError("step count must be >= 0")
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
    Requires gamma < p**2 and ||alpha||_inf < p.
    """
    if n < 0:
        raise ValueError("step count must be >= 0")
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
    gamma = 2 * math.pi**2 * k**2 * alpha_norm**2 * growth * _pair_spread(chain.mu)
    if gamma >= p * p:
        raise GammaTooLarge(f"gamma = {gamma:.6g} >= p**2 = {p * p}")
    return GammaCertificate(
        bound=_gamma_bound(gamma, p, n), gamma=gamma, l=l, alpha=alpha, witness=witness, n=n
    )


def _gamma_bound(gamma: float, p: int, n: int) -> float:
    """The gamma certificate's bound at step n: half of (1 - gamma/p**2)**(n/2)."""
    return 0.5 * (1.0 - gamma / (p * p)) ** (n / 2)


def bounds_table(
    chain: ChainSpec, n_max: int, l_max: int = DEFAULT_L_MAX
) -> list[BoundsReport]:
    """Evolve the chain and the frequency products side by side.

    The certificate column is gamma-based when some power of the transpose
    has torsion (and the certificate applies at this p), else rho-based at
    the first nonzero frequency; entries are empty from the first step the
    chosen certificate stops applying.
    """
    _check_cap(chain.n_states, "p**k")
    _check_work(chain, n_max)
    try:
        gamma_params: Optional[GammaCertificate] = certificate_gamma(chain, l_max, 0)
    except (NoTorsion, GammaTooLarge):
        gamma_params = None
    e1 = FrequencyVector((1,) + (0,) * (chain.k - 1), chain.p)
    rho_params = certificate_rho(chain, e1, 0)
    # carried row to row: the certificate at n extends the one at n - 1
    rho_bounds: Optional[Iterator[float]] = _rho_bounds(
        rho_params.rho, rho_params.norm_t, chain.p
    )
    rows: list[BoundsReport] = []
    for (n, dist), (_, prods) in zip(evolve_iter(chain, n_max), product_scan(chain, n_max)):
        lower, witness = _best_witness(prods, chain.p, chain.k)
        certificate: Optional[float] = None
        if gamma_params is not None:
            certificate = _gamma_bound(gamma_params.gamma, chain.p, n)
        elif rho_bounds is not None:
            try:
                certificate = next(rho_bounds)
            except FactorNonpositive:
                rho_bounds = None
        rows.append(
            BoundsReport(
                n=n,
                tv=tv_distance(dist),
                upper=0.25 * float(prods[1:].sum()),
                lower_best=lower,
                alpha_witness=witness,
                certificate=certificate,
            )
        )
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
