"""Exact integer linear algebra and spectral classification.

Matrices carry arbitrary precision integer entries and every structural
computation (determinant, characteristic and minimal polynomial, rank,
kernel vectors, polynomial factor extraction) is exact.  Floating point
enters only where root values themselves are irrational, and every such
root is residual-checked against the integer polynomial it came from.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .errors import NonConvergence, OrderMismatch, OutOfRange, SingularMatrix

TOL_UNIT = 1e-9
ROOT_RESIDUAL_TOL = 1e-9
PAIR_TOL = 1e-9
IDENTITY_RESIDUAL_TOL = 1e-8
DEFAULT_L_MAX = 24


class Regime(str, Enum):
    """Spectral regime of an integer matrix, keyed by its factor orders."""

    NON_UNIT_MODULUS = "NonUnitModulus"
    ROOTS_OF_INTEGER_EXPANDING = "RootsOfIntegerExpanding"
    UNIT_ROOT_MIXED = "UnitRootMixed"
    UNIT_ROOT_TORSION = "UnitRootTorsion"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix with immutable rows."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.rows)
        if k < 1:
            raise ValueError("matrix must have dimension >= 1")
        for row in self.rows:
            if len(row) != k:
                raise ValueError("matrix must be square")
            for entry in row:
                if not isinstance(entry, int):
                    raise ValueError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))

    @property
    def k(self) -> int:
        return len(self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Exact matrix-vector product A @ vec."""
        return tuple(sum(a * int(x) for a, x in zip(row, vec)) for row in self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return _matrix(_array(self) @ _array(other))


def as_matrix(value: IntMatrix | Sequence[Sequence[int]]) -> IntMatrix:
    if isinstance(value, IntMatrix):
        return value
    return IntMatrix.from_rows(value)


def exact_int(value) -> int:
    """An integer read from JSON: an int, or a float with an integral value.

    Fractions, inf, NaN, booleans and strings raise ValueError where int()
    would truncate, overflow or parse them.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_float(value) -> float:
    """A real number read from JSON: an int or a float.

    Booleans and strings raise ValueError where float() would take them; an
    int too large for a float raises OverflowError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _array(a: IntMatrix) -> np.ndarray:
    """The entries of a as a numpy object array; they stay Python ints, so
    sums and products are exact."""
    return np.array(a.rows, dtype=object)


def _matrix(arr: np.ndarray) -> IntMatrix:
    return IntMatrix(tuple(map(tuple, arr.tolist())))


def mat_pow(a: IntMatrix, e: int) -> IntMatrix:
    """Exact integer power A**e for e >= 0."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    return _matrix(np.linalg.matrix_power(_array(a), e))


def mat_pow_mod(a: IntMatrix, e: int, p: int) -> IntMatrix:
    """A**e with entries reduced mod p at every step."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    if p < 2:
        raise ValueError("modulus must be >= 2")
    result = np.identity(a.k, dtype=object)
    base = _array(a) % p
    while e:
        if e & 1:
            result = result @ base % p
        base = base @ base % p
        e >>= 1
    return _matrix(result)


def inf_norm(a: IntMatrix) -> int:
    """Operator infinity norm: maximum absolute row sum."""
    return max(sum(abs(x) for x in row) for row in a.rows)


def _fraction_free(m: np.ndarray) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of a 2-D integer object array,
    in place.

    Each pivot step multiplies every other row by the pivot, subtracts the
    pivot row times that row's entry in the pivot column, and divides by
    the previous pivot.  Every entry stays an integer minor of the input
    (Bareiss), so the divisions are exact.  At the end each pivot row holds
    the same value, the last pivot, in its pivot column, and every other
    row holds 0 there.  Returns the pivot columns (pivot r in row r) and the
    last pivot negated once per row swap: for a nonsingular square matrix,
    its determinant.
    """
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(m.shape[1]):
        top = len(pivots)
        if top == m.shape[0]:
            break
        below = np.flatnonzero(m[top:, col])
        if not len(below):
            continue
        if below[0]:
            m[[top, top + below[0]]] = m[[top + below[0], top]]
            sign = -sign
        pivot = m[top, col]
        others = np.arange(m.shape[0]) != top
        m[others] = (pivot * m[others] - np.outer(m[others, col], m[top])) // prev
        prev = pivot
        pivots.append(col)
    return pivots, sign * prev


def det_int(a: IntMatrix | Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    a = as_matrix(a)
    pivots, last = _fraction_free(_array(a))
    return last if len(pivots) == a.k else 0


def independent_indices(vectors: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the vectors outside the rational span of those before them:
    the pivot columns of one fraction-free elimination with the vectors as columns."""
    m = np.array([list(v) for v in vectors], dtype=object)
    return _fraction_free(m.T)[0] if m.size else []


def _kernel_vector(rows: Sequence[Sequence[int]] | np.ndarray) -> list[int]:
    """A nonzero integer vector x with rows @ x = 0.

    After fraction-free elimination the first free column of x is the common
    pivot and each pivot column is minus its row's entry in that free
    column; the other free columns are 0.
    """
    m = np.array(rows, dtype=object)
    pivots, _ = _fraction_free(m)
    free = next((c for c in range(m.shape[1]) if c not in pivots), None)
    if free is None:
        raise ValueError("matrix has trivial kernel")
    x = [0] * m.shape[1]
    x[free] = m[0, pivots[0]] if pivots else 1
    for r, col in enumerate(pivots):
        x[col] = -m[r, free]
    return x


def integer_kernel_vector(a: IntMatrix) -> tuple[int, ...]:
    """Primitive integer kernel vector of a singular integer matrix.

    Deterministic: the vector of the first free column of the reduced system,
    with the gcd divided out and the sign fixed so the first nonzero
    component is positive.
    """
    x = _kernel_vector(a.rows)
    unit = math.gcd(*x) * (1 if next(v for v in x if v) > 0 else -1)
    return tuple(v // unit for v in x)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients stored lowest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def evaluate(self, z):
        """Horner evaluation; exact for int inputs, complex otherwise."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "x" if i == 1 else f"x^{i}" if i else ""
            mag = "" if abs(c) == 1 and i else str(abs(c))
            parts.append(("-" if c < 0 else "+" if parts else "") + mag + term)
        return "".join(parts)


X_POLY = IntPolynomial((0, 1))


def poly_mul(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    if f.is_zero or g.is_zero:
        return IntPolynomial(())
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                out[i + j] += a * b
    return IntPolynomial(tuple(out))


def poly_divmod(f: IntPolynomial, g: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Exact division with remainder; the divisor must be monic."""
    if not g.is_monic:
        raise ValueError("divisor must be monic")
    if f.degree < g.degree:
        return IntPolynomial(()), f
    rem = list(f.coeffs)
    dg = g.degree
    q = [0] * (f.degree - dg + 1)
    for i in range(f.degree - dg, -1, -1):
        coef = rem[i + dg]
        if coef:
            q[i] = coef
            for t, gc in enumerate(g.coeffs):
                rem[i + t] -= coef * gc
    return IntPolynomial(tuple(q)), IntPolynomial(tuple(rem[:dg]))


def poly_mod(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    return poly_divmod(f, g)[1]


def poly_eval_matrix(f: IntPolynomial, a: IntMatrix) -> IntMatrix:
    """Horner evaluation of f at an integer matrix."""
    m = _array(a)
    eye = np.identity(a.k, dtype=object)
    acc = 0 * eye
    for c in reversed(f.coeffs):
        acc = acc @ m + c * eye
    return _matrix(acc)


def char_poly(a: IntMatrix | Sequence[Sequence[int]]) -> IntPolynomial:
    """Characteristic polynomial det(x*I - A), monic, exact.

    Faddeev-LeVerrier recurrence; every division is exact by construction.
    """
    a = as_matrix(a)
    k = a.k
    m = _array(a)
    eye = np.identity(k, dtype=object)
    c = [0] * (k + 1)
    c[k] = 1
    n = 0 * eye
    for step in range(1, k + 1):
        n = m @ n + c[k - step + 1] * eye
        tr = np.trace(m @ n)
        assert tr % step == 0
        c[k - step] = -tr // step
    return IntPolynomial(tuple(c))


def minimal_poly(a: IntMatrix | Sequence[Sequence[int]]) -> IntPolynomial:
    """Monic integer minimal polynomial, by exact Krylov elimination.

    The first power A**e that is a rational combination of lower powers
    yields the polynomial; annihilation is re-verified exactly before
    returning.
    """
    a = as_matrix(a)
    m = _array(a)
    powers = [np.identity(a.k, dtype=object)]
    for _ in range(a.k):
        powers.append(powers[-1] @ m)
    # Column e of the Krylov matrix is vec(A**e).  A**0 .. A**(d-1) are
    # independent and A**d is not, so the first free column is d and the
    # kernel vector is a multiple of the coefficients, zero above degree d.
    x = _kernel_vector(np.array(powers).reshape(a.k + 1, -1).T)
    lead = next(c for c in reversed(x) if c)
    assert all(c % lead == 0 for c in x)
    poly = IntPolynomial(tuple(c // lead for c in x))
    check = poly_eval_matrix(poly, a)
    assert all(v == 0 for row in check.rows for v in row)
    return poly


def _primitive_rem(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """The remainder of f by a nonzero g over Q, times the positive rational
    that makes it a primitive integer polynomial (0 stays 0).

    Each elimination step scales by |lc(g)| > 0, so the sign of the result
    matches that of the true remainder, as a Sturm sequence needs.
    """
    rem = list(f.coeffs)
    dg = g.degree
    lc = g.coeffs[-1]
    scale, sign = abs(lc), (1 if lc > 0 else -1)
    for top in range(len(rem) - 1, dg - 1, -1):
        t = rem[top]
        if t:
            rem = [scale * x for x in rem]
            for i, gc in enumerate(g.coeffs):
                rem[top - dg + i] -= sign * t * gc
    rem = rem[:dg]
    content = math.gcd(*rem)
    return IntPolynomial(tuple(x // content for x in rem)) if content else IntPolynomial(())


def _squarefree_part(f: IntPolynomial) -> IntPolynomial:
    """f / gcd(f, f'), monic, for a monic integer polynomial f of degree >= 1."""
    a, b = f, f.derivative()
    while not b.is_zero:
        a, b = b, _primitive_rem(a, b)
    # a primitive divisor of a monic integer polynomial has leading
    # coefficient +-1 (Gauss's lemma), so this makes the gcd monic
    unit = math.gcd(*a.coeffs) * (1 if a.coeffs[-1] > 0 else -1)
    return poly_divmod(f, IntPolynomial(tuple(c // unit for c in a.coeffs)))[0]


def _sign_changes(seq: Sequence[IntPolynomial], x: int) -> int:
    signs = [v > 0 for v in (g.evaluate(x) for g in seq) if v]
    return sum(u != w for u, w in zip(signs, signs[1:]))


def _integer_roots(f: IntPolynomial) -> list[int]:
    """All integer roots of a monic integer polynomial, with multiplicity.

    The real roots of the squarefree part s are isolated by its Sturm
    sequence: V(lo) - V(hi) counts the roots in (lo, hi], and bisection on
    integer endpoints inside the Cauchy bound 1 + max|c_i| stops at unit
    intervals, whose right endpoint is then tested exactly.  The cost grows
    with the bit length of the coefficients, not with their size.
    """
    if f.degree < 1:
        return []
    s = _squarefree_part(f)
    seq = [s, s.derivative()]
    while seq[-1].degree > 0:
        seq.append(IntPolynomial(tuple(-c for c in _primitive_rem(seq[-2], seq[-1]).coeffs)))
    bound = 1 + max(abs(c) for c in s.coeffs[:-1])
    candidates = []
    pending = [(-bound, bound, _sign_changes(seq, -bound), _sign_changes(seq, bound))]
    while pending:
        lo, hi, v_lo, v_hi = pending.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if s.evaluate(hi) == 0:
                candidates.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = _sign_changes(seq, mid)
        pending += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    roots: list[int] = []
    for r in sorted(candidates):
        while f.degree >= 1 and f.evaluate(r) == 0:
            f, rem = poly_divmod(f, IntPolynomial((-r, 1)))
            assert rem.is_zero
            roots.append(r)
    return roots


def _split_quartic(f: IntPolynomial) -> Optional[tuple[IntPolynomial, IntPolynomial]]:
    """Split a monic integer quartic into two monic integer quadratics.

    If x^4 + b x^3 + c x^2 + d x + e = (x^2 + u x + v)(x^2 + w x + s), then
    y = v + s is an integer root of the resolvent cubic
    y^3 - c y^2 + (bd - 4e) y - (b^2 e - 4ce + d^2), and v, s are the roots
    of z^2 - y z + e; u = (d - v b) / (s - v), an integer, when v != s, else a
    root of z^2 - b z + c - 2v.  One exact product check accepts the split.
    """
    e, d, c, b = f.coeffs[0], f.coeffs[1], f.coeffs[2], f.coeffs[3]
    if e == 0:
        return None
    resolvent = IntPolynomial((-(b * b * e - 4 * c * e + d * d), b * d - 4 * e, -c, 1))
    for y in sorted(set(_integer_roots(resolvent))):
        disc = y * y - 4 * e
        if disc < 0:
            continue
        root = math.isqrt(disc)
        if root * root != disc or (y + root) % 2 != 0:
            continue
        v, s = (y - root) // 2, (y + root) // 2
        if s != v:
            u = (d - v * b) // (s - v)
        else:
            disc = b * b - 4 * (c - 2 * v)
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc or (b + root) % 2 != 0:
                continue
            u = (b + root) // 2
        split = IntPolynomial((v, u, 1)), IntPolynomial((s, b - u, 1))
        if poly_mul(*split) == f:
            return split
    return None


def factor_int_poly(
    f: IntPolynomial,
) -> tuple[tuple[tuple[IntPolynomial, int], ...], Optional[IntPolynomial]]:
    """Factor a monic integer polynomial over the integers.

    Extracts all integer roots, then splits what remains into irreducible
    quadratics where possible (complete through degree 4).  Returns the
    factors with multiplicities plus an unfactored remainder, or None when
    the factorization is complete.
    """
    if not f.is_monic:
        raise ValueError("polynomial must be monic")
    counts = Counter(IntPolynomial((-r, 1)) for r in _integer_roots(f))
    rem = f
    for poly, mult in counts.items():
        for _ in range(mult):
            rem, check = poly_divmod(rem, poly)
            assert check.is_zero
    # rem has no integer root, so below degree 4 it is irreducible
    remainder: Optional[IntPolynomial] = None
    split = _split_quartic(rem) if rem.degree == 4 else None
    if split is not None:
        counts.update(split)
    elif 2 <= rem.degree <= 4:
        counts[rem] += 1
    elif rem.degree > 4:
        remainder = rem
    factors = tuple(sorted(counts.items(), key=lambda it: (it[0].degree, it[0].coeffs)))
    return factors, remainder


def _residual_scale(f: IntPolynomial, z: complex) -> float:
    mag = abs(z)
    return max(1.0, sum(abs(c) * mag**i for i, c in enumerate(f.coeffs)))


def _polish_root(f: IntPolynomial, z: complex) -> complex:
    df = f.derivative()
    for _ in range(50):
        fv = complex(f.evaluate(z))
        if abs(fv) <= 1e-14 * _residual_scale(f, z):
            break
        dv = complex(df.evaluate(z))
        if dv == 0:
            break
        z = z - fv / dv
    return z


def _pair_conjugates(roots: list[complex]) -> list[complex]:
    """Snap numeric roots of a real polynomial onto the axis and into conjugate
    pairs.  A real eigensolver returns exact pairs and Newton polishing keeps
    them exact, so each root above the axis is emitted with its conjugate
    (+ 0.0 turns a real part of -0.0 into 0.0)."""
    reals = [complex(z.real, 0.0) for z in roots if abs(z.imag) <= PAIR_TOL]
    upper = [complex(z.real + 0.0, z.imag) for z in roots if z.imag > PAIR_TOL]
    if 2 * len(upper) + len(reals) != len(roots):
        raise NonConvergence(f"numeric roots {roots} are not closed under conjugation")
    return reals + [w for z in upper for w in (z, z.conjugate())]


def _roots_numeric(f: IntPolynomial) -> list[complex]:
    arr = np.array(list(reversed(f.coeffs)), dtype=float)
    raw = [complex(z) for z in np.roots(arr)]
    polished = [_polish_root(f, z) for z in raw]
    return _pair_conjugates(polished)


def _roots_of_irreducible(f: IntPolynomial) -> list[complex]:
    if f.degree == 1:
        return [complex(-f.coeffs[0], 0.0)]
    if f.degree == 2:
        c0, b, _ = f.coeffs
        disc = b * b - 4 * c0
        if disc >= 0:
            root = math.isqrt(disc)
            sq = float(root) if root * root == disc else math.sqrt(float(disc))
            # the root of smaller modulus cancels when |b| >> 1 (x^2 - m x - 1
            # has one near -1/m); polishing leaves a root that fits unchanged
            return [_polish_root(f, complex((-b + sign * sq) / 2, 0.0)) for sign in (-1, 1)]
        sq = math.sqrt(float(-disc))
        return [complex(-b / 2, -sq / 2), complex(-b / 2, sq / 2)]
    return _roots_numeric(f)


def eigenvalues(f: IntPolynomial) -> tuple[complex, ...]:
    """All roots of an integer polynomial, with multiplicity.

    Roots of a real polynomial come back in exact conjugate pairs.  A root
    with |f(root)| > ROOT_RESIDUAL_TOL * scale raises NonConvergence.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no defined root list")
    if f.degree == 0:
        return ()
    return _checked_roots(f, factor_int_poly(f) if f.is_monic else None)


def _checked_roots(f: IntPolynomial, factorization: Optional[tuple]) -> tuple[complex, ...]:
    """The roots of f, taken from factorization (factor_int_poly(f)) when
    given and numerically otherwise, sorted and residual-checked against f.
    A root, or a coefficient the check meets, past float range raises
    OutOfRange."""
    try:
        if factorization is None:
            roots = _roots_numeric(f)
        else:
            factors, remainder = factorization
            roots = []
            for poly, mult in factors:
                roots.extend(_roots_of_irreducible(poly) * mult)
            if remainder is not None:
                roots.extend(_roots_numeric(remainder))
        roots.sort(key=lambda z: (z.real, z.imag))
        for z in roots:
            residual = abs(complex(f.evaluate(z)))
            if residual > ROOT_RESIDUAL_TOL * _residual_scale(f, z):
                raise NonConvergence(
                    f"root {z} of {f} has residual {residual:.3e} above tolerance"
                )
    except OverflowError as err:
        raise OutOfRange("a root or coefficient of the polynomial is past float range") from err
    return tuple(roots)


def root_of_integer_order(f: IntPolynomial, l_max: int = DEFAULT_L_MAX) -> Optional[tuple[int, int]]:
    """Smallest l <= l_max with x**l congruent to an integer m >= 1 mod f.

    When (l, m) is returned, every root of f satisfies root**l = m, so the
    roots all have modulus m**(1/l).  Returns None if no such l exists in
    range.  The input must be monic; exactness needs nothing else.
    """
    if not f.is_monic or f.degree < 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    cur = poly_mod(X_POLY, f)
    for l in range(1, l_max + 1):
        if l > 1:
            cur = poly_mod(poly_mul(cur, X_POLY), f)
        if cur.degree <= 0:
            m = cur.coeffs[0] if cur.coeffs else 0
            if m >= 1:
                return l, m
    return None


@dataclass(frozen=True)
class SpectralProfile:
    """Everything classify_regime learns about a matrix."""

    char_poly: IntPolynomial
    min_poly: IntPolynomial
    d: int
    eigenvalues: tuple[complex, ...]
    factors: tuple[tuple[IntPolynomial, int], ...]
    root_orders: tuple[Optional[tuple[int, int]], ...]
    remainder: Optional[IntPolynomial]
    regime: Regime


def classify_regime(
    a: IntMatrix | Sequence[Sequence[int]], l_max: int = DEFAULT_L_MAX
) -> SpectralProfile:
    """Classify the spectral regime of an invertible integer matrix.

    Regimes, checked in order:
      RootsOfIntegerExpanding  every irreducible factor has x**l = m with m >= 2
      UnitRootMixed            every factor has such an order (any m >= 1)
      UnitRootTorsion          some factor has an order with m = 1, others none
      NonUnitModulus           no eigenvalue within TOL_UNIT of the unit circle
      Unknown                  anything else, including incomplete factorization
    """
    a = as_matrix(a)
    if det_int(a) == 0:
        raise SingularMatrix("matrix is singular; the recursion would not be bijective")
    cp = char_poly(a)
    mp = minimal_poly(a)
    factorization = factor_int_poly(cp)
    factors, remainder = factorization
    eigs = _checked_roots(cp, factorization)
    orders = tuple(root_of_integer_order(poly, l_max) for poly, _ in factors)
    if remainder is not None:
        regime = Regime.UNKNOWN
    elif all(o is not None for o in orders) and all(o[1] >= 2 for o in orders):
        regime = Regime.ROOTS_OF_INTEGER_EXPANDING
    elif all(o is not None for o in orders):
        regime = Regime.UNIT_ROOT_MIXED
    elif any(o is not None and o[1] == 1 for o in orders):
        regime = Regime.UNIT_ROOT_TORSION
    elif all(abs(abs(z) - 1.0) > TOL_UNIT for z in eigs):
        regime = Regime.NON_UNIT_MODULUS
    else:
        regime = Regime.UNKNOWN
    return SpectralProfile(
        char_poly=cp,
        min_poly=mp,
        d=mp.degree,
        eigenvalues=eigs,
        factors=factors,
        root_orders=orders,
        remainder=remainder,
        regime=regime,
    )


def canonical_eigenvalue_order(a: IntMatrix | Sequence[Sequence[int]]) -> tuple[complex | int, ...]:
    """Eigenvalues ordered so the first d are the minimal polynomial's roots.

    The power expansion identities need the leading block of the ordering to
    multiply out to an annihilating product; roots of the minimal polynomial,
    taken with its multiplicities, guarantee that.  The remaining roots are
    those of char_poly / min_poly.

    When every irreducible factor of char_poly is linear (so of min_poly and
    of the quotient too) the values are the factorization's Python ints,
    exact at any size below float range, each block sorted; otherwise they
    are eigenvalues' complex roots, residual-checked.  Either way a root
    past float range raises OutOfRange.
    """
    a = as_matrix(a)
    cp = char_poly(a)
    mp = minimal_poly(a)
    quotient, rem = poly_divmod(cp, mp)
    assert rem.is_zero
    return tuple(_ordered_roots(mp)) + (tuple(_ordered_roots(quotient)) if quotient.degree else ())


def _ordered_roots(f: IntPolynomial) -> list[complex] | list[int]:
    """eigenvalues(f) of a monic f of degree >= 1, or, when every
    irreducible factor of f is linear, its roots as sorted Python ints;
    the roots are residual-checked either way, so one past float range
    raises OutOfRange."""
    factors, remainder = factorization = factor_int_poly(f)
    roots = _checked_roots(f, factorization)
    if remainder is None and all(poly.degree == 1 for poly, _ in factors):
        return sorted(-poly.coeffs[0] for poly, mult in factors for _ in range(mult))
    return list(roots)


def _complete_homogeneous(s: int, lams: Sequence[complex]):
    """Complete homogeneous symmetric polynomial h_s of the given values."""
    if s < 0:
        return 0
    h = [1] + [0] * s
    for v in lams:
        for t in range(1, s + 1):
            h[t] += v * h[t - 1]
    return h[s]


def _magnitude(m: np.ndarray) -> float:
    """The largest modulus among the entries of an object matrix, as a
    float; an entry that is not finite, or whose modulus is past float
    range, raises OutOfRange."""
    try:
        # each entry's Python abs (numpy's complex abs rounds differently),
        # then a float max, which is nan if any entry is
        top = float(np.abs(m).astype(float).max())
    except OverflowError:  # an int entry past float range
        top = math.inf
    if not math.isfinite(top):
        raise OutOfRange("an identity residual or scale is past float range")
    return top


class _IdentityChecker:
    """What every (e, j) check of verify_spectral_identities shares for one
    matrix, the degree d of its minimal polynomial and one eigenvalue order:
    the ordered eigenvalues, T, the prefix products P_e, the suffix products
    prod_{n=h+1..d} (T - lam_n I), and the powers of T, grown on demand."""

    # complex products past float range become inf or nan without a
    # warning on stderr; _magnitude turns them into OutOfRange
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(
        self, a: IntMatrix, d: int, eigenvalue_order: Optional[Sequence[int]] = None
    ) -> None:
        lams = list(canonical_eigenvalue_order(a))
        if eigenvalue_order is not None:
            if sorted(eigenvalue_order) != list(range(a.k)):
                raise OrderMismatch(f"eigenvalue_order must be a permutation of range({a.k})")
            lams = [lams[i] for i in eigenvalue_order]
        # ints only when the characteristic polynomial splits into linear factors
        exact = all(isinstance(z, int) for z in lams)
        one = 1 if exact else complex(1)
        self.d, self.lams = d, lams
        # object arrays keep the entries Python ints (exact) or complex
        eye = np.identity(a.k, dtype=object) * one
        self.t = _array(a).T * one
        shifts = [self.t - lam * eye for lam in self.lams[:d]]
        self.prods = [eye]
        for shift in shifts:
            self.prods.append(self.prods[-1] @ shift)
        # Each suffix is a left fold and T**n one running product, not
        # squaring: in complex arithmetic the grouping of the products sets
        # the rounding, and so the reported residual, once entries pass 2**53.
        self.suffixes = {h: reduce(np.matmul, shifts[h:], eye) for h in range(2, d + 1)}
        self.powers = [eye]

    @np.errstate(over="ignore", invalid="ignore")
    def check(self, e: int, js: Sequence[int]) -> list[tuple[bool, float]]:
        """(ok, max residual) at e for each j in js; 1 <= e <= d, each j >= 0."""
        while len(self.powers) <= max(e, *js):
            self.powers.append(self.powers[-1] @ self.t)
        d, lams, prods, powers = self.d, self.lams, self.prods, self.powers
        lhs1 = powers[e]
        rhs1 = sum((lams[s] * (powers[e - s - 1] @ prods[s]) for s in range(e)), prods[e])
        diff1, top1 = _magnitude(lhs1 - rhs1), _magnitude(lhs1)
        tails = {h: self.suffixes[h] @ prods[e] for h in range(e + 1, d + 1)}
        results = []
        for j in js:
            lhs2 = powers[j] @ prods[e]
            rhs2 = 0
            for h in range(e + 1, d + 1):
                coeff = _complete_homogeneous(j - d + h, lams[h - 1 : d])
                if coeff != 0:
                    rhs2 = rhs2 + coeff * tails[h]
            residual = max(diff1, _magnitude(lhs2 - rhs2))
            scale = max(1.0, top1, _magnitude(lhs2))
            results.append((residual <= IDENTITY_RESIDUAL_TOL * scale, residual))
        return results


def verify_spectral_identities(
    a: IntMatrix | Sequence[Sequence[int]],
    e: int,
    j: int,
    eigenvalue_order: Optional[Sequence[int]] = None,
) -> tuple[bool, float]:
    """Check the two power expansion identities for the transpose of A.

    With eigenvalues lam_1..lam_k ordered so the first d (d = degree of the
    minimal polynomial) are the minimal polynomial's roots, T = transpose(A),
    and P_e = prod_{i<=e} (T - lam_i I):

      identity 1:  T**e = P_e + sum_{s<e} lam_{s+1} * T**(e-s-1) * P_s
      identity 2:  T**j * P_e = sum_{h=e+1..d} h_{j-d+h}(lam_h..lam_d)
                                 * prod_{n=h+1..d} (T - lam_n I) * P_e

    where h_s is the complete homogeneous symmetric polynomial (h_s = 0 for
    s < 0, h_0 = 1).  Requires 1 <= e <= d and j >= 0.  eigenvalue_order is
    an optional permutation of range(k) applied to the canonical order; a
    permutation that breaks the leading-block property will simply fail the
    check.  Returns (ok, max residual); the computation is exact end to end
    when every eigenvalue is an integer (canonical_eigenvalue_order gives
    them as ints), and a residual or matrix entry past float range raises
    OutOfRange.
    """
    a = as_matrix(a)
    d = minimal_poly(a).degree
    if not 1 <= e <= d:
        raise ValueError(f"e must satisfy 1 <= e <= d = {d}")
    if j < 0:
        raise ValueError("j must be >= 0")
    return _IdentityChecker(a, d, eigenvalue_order).check(e, (j,))[0]
