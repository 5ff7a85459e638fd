"""Exact integer linear algebra and spectral classification tests.

Oracles used here are deliberately independent of the implementation:
Laplace expansion for determinants, Fraction-based Gauss-Jordan
elimination for rank, kernel vectors and the per-degree Krylov solve of
the minimal polynomial, and direct evaluation for polynomial identities.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affine_mixer import (
    IntMatrix,
    IntPolynomial,
    NonConvergence,
    OrderMismatch,
    OutOfRange,
    Regime,
    SingularMatrix,
    canonical_eigenvalue_order,
    char_poly,
    classify_regime,
    det_int,
    eigenvalues,
    factor_int_poly,
    inf_norm,
    mat_pow,
    minimal_poly,
    root_of_integer_order,
)
from affine_mixer import algebra
from affine_mixer.algebra import (
    _fraction_free,
    _integer_roots,
    _pair_conjugates,
    _polish_root,
    _residual_scale,
    _split_quartic,
    independent_indices,
    integer_kernel_vector,
    poly_divmod,
    poly_eval_matrix,
    poly_mul,
)
from common import SUITE_ROWS, suite_matrices, time_limit


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row. Exact, slow."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * laplace_det(minor)
    return total


def row_reduce_oracle(rows, ncols):
    """Gauss-Jordan over the rationals, in place, on the first ncols columns.

    Columns past ncols (an augmented right-hand side) ride along.  Returns
    the pivot columns; pivot r sits in row r with value 1, and every other
    row is 0 in that column.
    """
    pivot_cols = []
    for col in range(ncols):
        top = len(pivot_cols)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        inv = rows[top][col]
        rows[top] = [x / inv for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[top])]
        pivot_cols.append(col)
    return pivot_cols


def fraction_rank(vectors):
    """Row rank over Q via Gaussian elimination with Fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    return len(row_reduce_oracle(rows, len(rows[0]) if rows else 0))


def random_int_matrix(rng, k, lo=-5, hi=5):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]
    )


def test_det_hand_values():
    assert det_int(IntMatrix.from_rows([[7]])) == 7
    assert det_int(IntMatrix.from_rows([[2, 1], [1, 1]])) == 1
    assert det_int(IntMatrix.from_rows([[0, 1], [2, 0]])) == -2
    assert det_int(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == -3


def test_det_matches_laplace_oracle():
    rng = random.Random(101)
    for _ in range(200):
        k = rng.randint(1, 4)
        a = random_int_matrix(rng, k)
        assert det_int(a) == laplace_det([list(r) for r in a.rows])


def test_int_rank_matches_fraction_oracle():
    rng = random.Random(202)
    for _ in range(200):
        k = rng.randint(1, 4)
        n = rng.randint(1, 5)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(n)]
        assert len(independent_indices(vecs)) == fraction_rank(vecs)


def test_integer_kernel_vector_properties():
    cases = [
        [[2, 4], [1, 2]],
        [[0, 0], [0, 0]],
        [[1, 1, 1], [2, 2, 2], [0, 1, 0]],
        [[3, -3], [-1, 1]],
    ]
    for rows in cases:
        a = IntMatrix.from_rows(rows)
        v = integer_kernel_vector(a)
        assert v is not None
        assert any(x != 0 for x in v)
        image = a.apply(v)
        assert all(x == 0 for x in image)
        from math import gcd

        g = 0
        for x in v:
            g = gcd(g, x)
        assert g == 1
        first = next(x for x in v if x != 0)
        assert first > 0


def test_integer_kernel_vector_rejects_invertible():
    a = IntMatrix.from_rows([[2, 1], [1, 1]])
    with pytest.raises(ValueError):
        integer_kernel_vector(a)


def test_char_poly_hand_values():
    # char polys are monic; coefficients are listed lowest degree first
    assert char_poly(IntMatrix.from_rows([[2]])).coeffs == (-2, 1)
    assert char_poly(IntMatrix.from_rows([[0, 1], [2, 0]])).coeffs == (-2, 0, 1)
    assert char_poly(IntMatrix.from_rows([[2, 1], [1, 1]])).coeffs == (1, -3, 1)
    assert char_poly(IntMatrix.from_rows([[0, -1], [1, 0]])).coeffs == (1, 0, 1)


def test_char_poly_matches_laplace_at_integer_points():
    rng = random.Random(303)
    for _ in range(60):
        k = rng.randint(1, 4)
        a = random_int_matrix(rng, k)
        f = char_poly(a)
        assert f.is_monic and f.degree == k
        for t in range(-3, 4):
            shifted = [
                [t * (1 if i == j else 0) - a.rows[i][j] for j in range(k)]
                for i in range(k)
            ]
            assert f.evaluate(t) == laplace_det(shifted)


def test_cayley_hamilton():
    rng = random.Random(404)
    for _ in range(80):
        k = rng.randint(1, 4)
        a = random_int_matrix(rng, k)
        image = poly_eval_matrix(char_poly(a), a)
        assert all(all(x == 0 for x in row) for row in image.rows)


def test_minimal_poly_divides_char_and_annihilates():
    rng = random.Random(505)
    for _ in range(80):
        k = rng.randint(1, 4)
        a = random_int_matrix(rng, k)
        m = minimal_poly(a)
        assert m.is_monic
        _, rem = poly_divmod(char_poly(a), m)
        assert rem.degree == -1
        image = poly_eval_matrix(m, a)
        assert all(all(x == 0 for x in row) for row in image.rows)
        # minimality: I, A, ..., A^{d-1} are linearly independent
        d = m.degree
        flats = []
        for j in range(d):
            pj = mat_pow(a, j)
            flats.append(tuple(x for row in pj.rows for x in row))
        assert len(independent_indices(flats)) == d


def test_minimal_poly_defective_block():
    a = IntMatrix.from_rows([[2, 1], [0, 2]])
    assert minimal_poly(a).coeffs == (4, -4, 1)
    b = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert minimal_poly(b).coeffs == (-2, 1)


def test_poly_divmod_roundtrip():
    rng = random.Random(606)
    for _ in range(100):
        dq = rng.randint(0, 3)
        dd = rng.randint(0, 3)
        q = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(dq)) + (1,))
        d = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(dd)) + (1,))
        r_coeffs = tuple(rng.randint(-4, 4) for _ in range(d.degree))
        r = IntPolynomial(r_coeffs)
        f = IntPolynomial(
            tuple(
                x + y
                for x, y in zip(
                    poly_mul(q, d).coeffs,
                    r.coeffs + (0,) * (len(poly_mul(q, d).coeffs) - len(r.coeffs)),
                )
            )
        )
        q2, r2 = poly_divmod(f, d)
        assert q2 == q
        assert r2 == r


def test_factor_int_poly_reassembles():
    rng = random.Random(707)
    atoms = [
        IntPolynomial((-1, 1)),
        IntPolynomial((2, 1)),
        IntPolynomial((1, 0, 1)),
        IntPolynomial((-2, 0, 1)),
        IntPolynomial((1, -3, 1)),
    ]
    for _ in range(60):
        picks = [rng.choice(atoms) for _ in range(rng.randint(1, 3))]
        f = IntPolynomial((1,))
        for g in picks:
            f = poly_mul(f, g)
        if f.degree > 4:
            continue
        factors, remainder = factor_int_poly(f)
        assert remainder is None
        rebuilt = IntPolynomial((1,))
        for g, mult in factors:
            for _ in range(mult):
                rebuilt = poly_mul(rebuilt, g)
        assert rebuilt == f
        for g, _ in factors:
            sub = factor_int_poly(g)[0]
            assert sub == ((g, 1),)


def test_factor_int_poly_quartic_split():
    # (x^2+1)(x^2-2) has no rational roots, so the quartic splitter must act
    f = poly_mul(IntPolynomial((1, 0, 1)), IntPolynomial((-2, 0, 1)))
    factors, remainder = factor_int_poly(f)
    assert remainder is None
    assert set(g.coeffs for g, _ in factors) == {(1, 0, 1), (-2, 0, 1)}


def test_factor_int_poly_degree_five_remainder():
    f = IntPolynomial((-1, -1, 0, 0, 0, 1))  # x^5 - x - 1, no rational roots
    factors, remainder = factor_int_poly(f)
    assert factors == ()
    assert remainder == f


def test_eigenvalues_hand_values():
    lams = eigenvalues(IntPolynomial((1, -3, 1)))
    lo, hi = (3 - 5 ** 0.5) / 2, (3 + 5 ** 0.5) / 2
    assert abs(lams[0] - lo) < 1e-12 and abs(lams[1] - hi) < 1e-12
    lams = eigenvalues(IntPolynomial((1, 0, 1)))
    assert lams[0] == complex(0.0, -1.0) and lams[1] == complex(0.0, 1.0)
    lams = eigenvalues(IntPolynomial((-2, 0, 0, 1)))
    reals = [z for z in lams if z.imag == 0]
    assert len(reals) == 1 and abs(reals[0].real - 2 ** (1 / 3)) < 1e-12


def test_eigenvalues_repeated_roots_kept():
    f = poly_mul(poly_mul(IntPolynomial((-2, 1)), IntPolynomial((-2, 1))), IntPolynomial((-3, 1)))
    lams = eigenvalues(f)
    assert [round(z.real) for z in lams] == [2, 2, 3]


def test_eigenvalues_vieta():
    rng = random.Random(808)
    for _ in range(60):
        deg = rng.randint(1, 4)
        coeffs = tuple(rng.randint(-5, 5) for _ in range(deg)) + (1,)
        f = IntPolynomial(coeffs)
        lams = eigenvalues(f)
        prod = complex(1.0)
        total = complex(0.0)
        for z in lams:
            prod *= z
            total += z
        sign = -1 if deg % 2 else 1
        assert abs(prod - sign * coeffs[0]) < 1e-6 * max(1, abs(coeffs[0]))
        assert abs(total - (-coeffs[deg - 1])) < 1e-6 * max(1, abs(coeffs[deg - 1]))


def test_eigenvalues_conjugate_pairing_exact():
    lams = eigenvalues(IntPolynomial((2, -2, 1)))  # 1 +- i
    assert lams[0].real == lams[1].real
    assert lams[0].imag == -lams[1].imag


def test_root_of_integer_order():
    assert root_of_integer_order(IntPolynomial((-2, 1))) == (1, 2)
    assert root_of_integer_order(IntPolynomial((-2, 0, 1))) == (2, 2)
    assert root_of_integer_order(IntPolynomial((1, 0, 1))) == (4, 1)
    assert root_of_integer_order(IntPolynomial((-1, 1))) == (1, 1)
    assert root_of_integer_order(IntPolynomial((1, -3, 1))) is None
    # l_max is a hard cutoff
    assert root_of_integer_order(IntPolynomial((1, 0, 1)), l_max=3) is None


def test_root_of_integer_order_matches_power_oracle():
    # independent check: reduce x^l mod f by square-and-multiply on coefficients
    def pow_mod(f, l):
        from affine_mixer.algebra import X_POLY, poly_mod

        result = IntPolynomial((1,))
        base = poly_mod(X_POLY, f)
        e = l
        while e:
            if e & 1:
                result = poly_mod(poly_mul(result, base), f)
            base = poly_mod(poly_mul(base, base), f)
            e >>= 1
        return result

    cases = [IntPolynomial((-2, 1)), IntPolynomial((-2, 0, 1)), IntPolynomial((1, 0, 1))]
    for f in cases:
        l, m = root_of_integer_order(f)
        reduced = pow_mod(f, l)
        assert reduced.coeffs == (m,)
        for shorter in range(1, l):
            r = pow_mod(f, shorter)
            assert not (r.degree == 0 and r.coeffs[0] >= 1)


def test_inf_norm():
    assert inf_norm(IntMatrix.from_rows([[2]])) == 2
    assert inf_norm(IntMatrix.from_rows([[0, -1], [1, 0]])) == 1
    assert inf_norm(IntMatrix.from_rows([[2, 1], [1, 1]])) == 3


EXPECTED_REGIMES = {
    ((2,),): Regime.ROOTS_OF_INTEGER_EXPANDING,
    ((1,),): Regime.UNIT_ROOT_MIXED,
    ((0, 1), (2, 0)): Regime.ROOTS_OF_INTEGER_EXPANDING,
    ((2, 1), (1, 1)): Regime.NON_UNIT_MODULUS,
    ((1, 0), (0, 2)): Regime.UNIT_ROOT_MIXED,
    ((0, -1), (1, 0)): Regime.UNIT_ROOT_MIXED,
}


@pytest.mark.parametrize("rows", SUITE_ROWS)
def test_classify_regime_suite(rows):
    profile = classify_regime(IntMatrix.from_rows(rows))
    assert profile.regime == EXPECTED_REGIMES[rows]


def test_classify_regime_profile_contents():
    profile = classify_regime(IntMatrix.from_rows([[0, 1], [2, 0]]))
    assert profile.char_poly.coeffs == (-2, 0, 1)
    assert profile.min_poly.coeffs == (-2, 0, 1)
    assert profile.d == 2
    assert profile.root_orders == ((2, 2),)
    assert profile.remainder is None


def test_classify_regime_torsion():
    # companion matrix of (x^2+1)(x^2-3x+1): one torsion factor, one
    # factor with no integer-order root, no expanding integer root
    a = IntMatrix.from_rows(
        [[0, 0, 0, -1], [1, 0, 0, 3], [0, 1, 0, -2], [0, 0, 1, 3]]
    )
    profile = classify_regime(a)
    assert profile.regime == Regime.UNIT_ROOT_TORSION


def test_classify_regime_unknown_on_unfactored_remainder():
    # companion matrix of x^5 - x - 1 (irreducible over Q, degree five)
    a = IntMatrix.from_rows(
        [
            [0, 0, 0, 0, 1],
            [1, 0, 0, 0, 1],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
        ]
    )
    profile = classify_regime(a)
    assert profile.remainder is not None
    assert profile.regime == Regime.UNKNOWN


def test_classify_regime_unknown_salem():
    # companion matrix of x^4 - 2x^3 - 2x + 1: two eigenvalues sit exactly on
    # the unit circle but are not roots of unity, so no branch applies
    a = IntMatrix.from_rows(
        [[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 2]]
    )
    profile = classify_regime(a)
    assert profile.remainder is None
    assert profile.root_orders == (None,)
    assert profile.regime == Regime.UNKNOWN


def test_classify_regime_rejects_singular():
    with pytest.raises(SingularMatrix):
        classify_regime(IntMatrix.from_rows([[1, 1], [1, 1]]))


def test_canonical_eigenvalue_order_minimal_first():
    a = IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    order = canonical_eigenvalue_order(a)
    assert [round(z.real) for z in order] == [2, 3, 2]


@pytest.mark.parametrize("rows", SUITE_ROWS)
def test_spectral_identities_suite(rows):
    from affine_mixer import minimal_poly, verify_spectral_identities

    a = IntMatrix.from_rows(rows)
    d = minimal_poly(a).degree
    for e in range(1, d + 1):
        for j in range(0, 11):
            ok, residual = verify_spectral_identities(a, e, j)
            assert ok, (rows, e, j, residual)
            assert residual <= 1e-8


def test_spectral_identities_exact_integer_path():
    from affine_mixer import verify_spectral_identities

    ok, residual = verify_spectral_identities(IntMatrix.from_rows([[2]]), 1, 7)
    assert ok and residual == 0.0


def test_spectral_identities_rejects_bad_permutation():
    from affine_mixer import verify_spectral_identities

    a = IntMatrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(OrderMismatch):
        verify_spectral_identities(a, 1, 2, eigenvalue_order=(0, 0))
    with pytest.raises(OrderMismatch):
        verify_spectral_identities(a, 1, 2, eigenvalue_order=(0, 1, 2))


def test_spectral_identities_valid_permutation_of_equal_roots():
    # permuting within the minimal block keeps the identities true
    from affine_mixer import verify_spectral_identities

    a = IntMatrix.from_rows([[1, 0], [0, 2]])
    ok, residual = verify_spectral_identities(a, 1, 3, eigenvalue_order=(1, 0))
    assert ok and residual <= 1e-8


def test_spectral_identities_detects_wrong_minimal_prefix():
    # moving a repeated root into the leading block displaces the minimal
    # polynomial's roots, the annihilating product breaks, and the checker
    # must report a genuine failure rather than masking it
    from affine_mixer import verify_spectral_identities

    a = IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    # canonical order is (2, 3, 2); this permutation makes the prefix (2, 2)
    ok, residual = verify_spectral_identities(a, 1, 4, eigenvalue_order=(0, 2, 1))
    assert not ok
    assert residual > 1e-8


def test_spectral_identities_detect_a_broken_order_of_two_cat_blocks():
    # diag(cat, cat) has d = 2; the order (0, 2, 1, 3) puts one root twice
    # in the leading block, so P_2 is no annihilating product
    from affine_mixer import verify_spectral_identities

    a = IntMatrix.from_rows([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
    assert all(verify_spectral_identities(a, e, j)[0] for e in (1, 2) for j in range(11))
    broken = [verify_spectral_identities(a, e, j, (0, 2, 1, 3))[0] for e in (1, 2) for j in range(11)]
    assert not all(broken)


def test_spectral_identities_scale_past_float_range_is_out_of_range():
    # T**2 = 10**160 I, so P_2 = T**2 - 10**160 I = 0 and both residuals are
    # exactly 0; but |T| |T - lam_1 I| |T - lam_2 I| is about 10**480, and a
    # scale of inf would pass any residual
    from affine_mixer import verify_spectral_identities

    a = IntMatrix.from_rows([[10**160, -(10**160) + 1], [10**160, -(10**160)]])
    assert verify_spectral_identities(a, 1, 0) == (True, 0.0)
    with pytest.raises(OutOfRange):
        verify_spectral_identities(a, 2, 1)


def test_spectral_identities_argument_range():
    from affine_mixer import verify_spectral_identities

    a = IntMatrix.from_rows([[2]])
    with pytest.raises(ValueError):
        verify_spectral_identities(a, 0, 1)
    with pytest.raises(ValueError):
        verify_spectral_identities(a, 2, 1)
    with pytest.raises(ValueError):
        verify_spectral_identities(a, 1, -1)


def test_eigenvalue_residual_guard():
    lams = eigenvalues(IntPolynomial((-2, 0, 1)))
    f = IntPolynomial((-2, 0, 1))
    for z in lams:
        assert abs(f.evaluate(z)) <= 1e-9 * max(1.0, abs(z)) ** 2 * 3


# roots past float range, or roots that fit with a constant coefficient
# (10**400) that does not
FLOAT_RANGE_MATRICES = [
    [[10**400, 1], [0, 10**400 + 1]],
    [[2, 10**400], [1, 3]],
    [[10**200, 1], [0, 10**200 + 1]],
]


@pytest.mark.parametrize("rows", FLOAT_RANGE_MATRICES)
def test_roots_past_float_range_are_out_of_range(rows):
    with pytest.raises(OutOfRange, match="past float range"):
        classify_regime(rows)
    with pytest.raises(OutOfRange, match="past float range"):
        canonical_eigenvalue_order(rows)
    with pytest.raises(OutOfRange, match="past float range"):
        eigenvalues(char_poly(IntMatrix.from_rows(rows)))


def test_roots_within_float_range_are_still_found():
    lams = classify_regime([[10**150, 1], [0, 10**150 + 1]]).eigenvalues
    assert lams == (complex(10**150), complex(10**150 + 1))


def test_isqrt_based_quadratic_roots_exact():
    # perfect square discriminant must produce exact integer-valued floats
    lams = eigenvalues(IntPolynomial((6, -5, 1)))  # (x-2)(x-3)
    assert lams[0] == complex(2.0) and lams[1] == complex(3.0)


@pytest.mark.parametrize("m", [10**4, 10**5, 10**8, 10**41])
def test_quadratic_small_root_survives_cancellation(m):
    # x^2 - m x - 1 has roots near m and -1/m; (-b + sqrt(disc)) / 2 cancels
    # the second to noise, which the residual check refuses
    profile = classify_regime([[m, 1], [1, 0]])
    assert profile.regime == Regime.NON_UNIT_MODULUS
    small, large = profile.eigenvalues
    # small (small - m) = 1 holds at the true root, near -1/m
    assert abs(small.real * (small.real - m) - 1) <= 1e-12 and small.imag == 0
    assert abs(large.real * small.real + 1) <= 1e-12 and large.imag == 0  # product -1


def test_canonical_order_of_a_split_spectrum_is_exact_ints():
    # 2**53 + 1 and 2**53 + 3 round to floats 2**53 and 2**53 + 4
    rows = [[2**53 + 1, 1], [0, 2**53 + 3]]
    assert canonical_eigenvalue_order(rows) == (2**53 + 1, 2**53 + 3)
    assert all(type(z) is int for z in canonical_eigenvalue_order(rows))
    assert canonical_eigenvalue_order([[2, 0, 0], [0, 2, 0], [0, 0, 3]]) == (2, 3, 2)
    # one irreducible quadratic factor, (x - 2)(x^2 - 3x + 1), leaves every value complex
    order = canonical_eigenvalue_order([[2, 0, 0], [0, 2, 1], [0, 1, 1]])
    assert [type(z) for z in order] == [complex] * 3


def divisor_integer_roots(f):
    """Oracle: integer roots with multiplicity, by trying every divisor of
    the constant term (exact, but O(sqrt|c0|))."""
    roots = []
    while f.degree >= 1 and f.coeffs[0] == 0:
        roots.append(0)
        f = IntPolynomial(f.coeffs[1:])
    c0 = abs(f.coeffs[0]) if f.degree >= 1 else 0
    small = [t for t in range(1, isqrt(c0) + 1) if c0 % t == 0]
    for r in sorted({s * t for base in small for t in (base, c0 // base) for s in (1, -1)}):
        while f.degree >= 1 and f.evaluate(r) == 0:
            f, _ = poly_divmod(f, IntPolynomial((-r, 1)))
            roots.append(r)
    return sorted(roots)


def divisor_split_quartic(f):
    """Oracle: split a monic quartic by trying every pair (v, s) of
    constant terms with v * s = e."""
    e, d, c, b = f.coeffs[:4]
    if e == 0:
        return None
    small = [t for t in range(1, isqrt(abs(e)) + 1) if abs(e) % t == 0]
    for t in sorted({t for base in small for t in (base, abs(e) // base)}):
        for v in (t, -t):
            s = e // v
            if s != v:
                if (d - v * b) % (s - v):
                    continue
                u = (d - v * b) // (s - v)
                w = b - u
                if v + s + u * w == c and u * s + v * w == d:
                    return IntPolynomial((v, u, 1)), IntPolynomial((s, w, 1))
            elif v * b == d:
                disc = b * b - 4 * (c - 2 * v)
                root = isqrt(disc) if disc >= 0 else -1
                if root >= 0 and root * root == disc and (b + root) % 2 == 0:
                    u = (b + root) // 2
                    return IntPolynomial((v, u, 1)), IntPolynomial((v, b - u, 1))
    return None


def random_monic(rng):
    """A random monic polynomial built from small factors, so zero roots,
    repeated roots and repeated quadratics all occur."""
    f = IntPolynomial((1,))
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            g = IntPolynomial((rng.randint(-5, 5), 1))
        else:
            g = IntPolynomial((rng.randint(-6, 6), rng.randint(-6, 6), 1))
        f = poly_mul(f, g)
        if rng.random() < 0.2:
            f = poly_mul(f, g)
    return f


def random_quartic(rng):
    kind = rng.randrange(4)
    q1 = IntPolynomial((rng.randint(-6, 6), rng.randint(-6, 6), 1))
    if kind == 0:
        return IntPolynomial(tuple(rng.randint(-8, 8) for _ in range(4)) + (1,))
    if kind == 1:  # (x^2 + ux + v)^2
        return poly_mul(q1, q1)
    if kind == 2:  # equal constant terms, v = s
        return poly_mul(q1, IntPolynomial((q1.coeffs[0], rng.randint(-6, 6), 1)))
    return poly_mul(q1, IntPolynomial((rng.randint(-6, 6), rng.randint(-6, 6), 1)))


def test_integer_roots_match_divisor_oracle():
    rng = random.Random(808)
    for _ in range(1500):
        f = random_monic(rng)
        assert sorted(_integer_roots(f)) == divisor_integer_roots(f), f.coeffs


def test_split_quartic_matches_divisor_oracle():
    rng = random.Random(909)
    for _ in range(1500):
        f = random_quartic(rng)
        split, oracle = _split_quartic(f), divisor_split_quartic(f)
        assert (split is None) == (oracle is None), f.coeffs
        if split is None:
            continue
        assert poly_mul(*split) == f
        if not divisor_integer_roots(f):
            # no linear factor: the split into monic quadratics is unique
            assert {g.coeffs for g in split} == {g.coeffs for g in oracle}, f.coeffs


def test_classify_regime_large_diagonal_is_fast():
    with time_limit(2.0):
        profile = classify_regime([[10**9 + 7, 0], [0, 10**9 + 9]])
    assert profile.regime == Regime.ROOTS_OF_INTEGER_EXPANDING
    assert set(profile.root_orders) == {(1, 10**9 + 7), (1, 10**9 + 9)}


def test_factor_int_poly_large_quartic_is_fast():
    qa = IntPolynomial((10**12 + 39, 1, 1))
    qb = IntPolynomial((10**12 + 61, 3, 1))
    with time_limit(2.0):
        factors, remainder = factor_int_poly(poly_mul(qa, qb))
    assert remainder is None
    assert factors == ((qa, 1), (qb, 1))


def test_identities_report_computes_spectral_data_once(tmp_path, monkeypatch):
    from affine_mixer import cli

    calls = {"canonical_eigenvalue_order": 0, "minimal_poly": 0}
    for name in calls:
        original = getattr(algebra, name)

        def counted(a, name=name, original=original):
            calls[name] += 1
            return original(a)

        monkeypatch.setattr(algebra, name, counted)
    path = tmp_path / "cfg.json"
    path.write_text('{"matrix": [[2, 1, 0], [0, 3, 0], [1, 0, -1]]}')
    argv = ["verify-identities", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    with open(tmp_path / "out" / "identities.csv") as handle:
        assert len(handle.readlines()) == 1 + 3 * 11  # d = 3, j = 0..10
    assert calls["canonical_eigenvalue_order"] == 1
    assert calls["minimal_poly"] <= 2


BIG = 10**9


@st.composite
def big_matrices(draw, k=None):
    k = draw(st.integers(1, 4)) if k is None else k
    entry = st.integers(-BIG, BIG)
    return IntMatrix.from_rows([[draw(entry) for _ in range(k)] for _ in range(k)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=big_matrices())
def test_property_cayley_hamilton_large_entries(a):
    image = poly_eval_matrix(char_poly(a), a)
    assert all(x == 0 for row in image.rows for x in row)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=big_matrices())
def test_property_factors_reassemble_char_poly(a):
    f = char_poly(a)
    factors, remainder = factor_int_poly(f)
    rebuilt = remainder or IntPolynomial((1,))
    for g, mult in factors:
        for _ in range(mult):
            rebuilt = poly_mul(rebuilt, g)
    assert rebuilt == f


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), k=st.integers(1, 4))
def test_property_det_multiplicative(data, k):
    a = data.draw(big_matrices(k))
    b = data.draw(big_matrices(k))
    assert det_int(a @ b) == det_int(a) * det_int(b)


def test_row_reduction_kernel_and_solve_random():
    # a primitive kernel vector, first nonzero entry positive, of random
    # singular matrices
    rng = random.Random(404)
    for _ in range(400):
        k = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        # make the last row a combination of the others: the matrix is singular
        mix = [rng.randint(-2, 2) for _ in rows[:-1]]
        rows[-1] = [sum(w * r[c] for w, r in zip(mix, rows)) for c in range(k)]
        a = IntMatrix.from_rows(rows)
        v = integer_kernel_vector(a)
        assert any(v) and not any(a.apply(v))
        assert gcd(*v) == 1 and next(x for x in v if x) > 0


def test_classify_factors_char_poly_once(monkeypatch):
    import affine_mixer.algebra as algebra

    calls = []
    original = algebra.factor_int_poly

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(algebra, "factor_int_poly", counted)
    cases = [
        [[2, 1], [1, 1]],
        [[0, -1], [1, 0]],
        [[3, 0, 0], [0, 2, 1], [0, 1, 1]],
        [[0, 0, 0, 0, 1], [1, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
    ]
    for rows in cases:
        calls.clear()
        profile = classify_regime(rows)
        assert calls == [profile.char_poly], rows
        assert profile.eigenvalues == eigenvalues(profile.char_poly)


def conjugate_by_unimodular(draw, core):
    """U core U^-1 for a random unimodular U built from row additions."""
    k = len(core)
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    u_inv = [row[:] for row in u]
    for _ in range(draw(st.integers(0, 8)) if k > 1 else 0):
        i, j = draw(st.permutations(range(k)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        # U <- E U and U^-1 <- U^-1 E^-1 with E = I + c e_i e_j^T
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
    uc = [[sum(u[r][t] * core[t][c] for t in range(k)) for c in range(k)] for r in range(k)]
    return IntMatrix.from_rows(
        [[sum(uc[r][t] * u_inv[t][c] for t in range(k)) for c in range(k)] for r in range(k)]
    )


@st.composite
def diagonalizable_matrices(draw):
    """U D U^-1 for an integer diagonal D and a random unimodular U."""
    k = draw(st.integers(1, 4))
    lams = draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    return conjugate_by_unimodular(
        draw, [[lams[i] if i == j else 0 for j in range(k)] for i in range(k)]
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=diagonalizable_matrices())
def test_property_spectral_identities_exact_on_integer_spectra(a):
    from affine_mixer import verify_spectral_identities

    d = minimal_poly(a).degree
    for e in range(1, d + 1):
        for j in range(11):
            assert verify_spectral_identities(a, e, j) == (True, 0), (a.rows, e, j)


# Oracles for the fraction-free elimination, built on the Fraction
# Gauss-Jordan pass above: kernel vectors, and the minimal polynomial by one
# rational solve per degree.


def kernel_oracle(rows):
    """Primitive kernel vector from the Fraction reduced form: first free
    column 1, denominators cleared, gcd divided out, first nonzero > 0."""
    n = len(rows[0])
    m = [[Fraction(x) for x in row] for row in rows]
    pivot_cols = row_reduce_oracle(m, n)
    free_cols = [c for c in range(n) if c not in pivot_cols]
    if not free_cols:
        return None
    x = [Fraction(0)] * n
    x[free_cols[0]] = Fraction(1)
    for r, col in enumerate(pivot_cols):
        x[col] = -m[r][free_cols[0]]
    denom = lcm(*(v.denominator for v in x))
    ints = [int(v * denom) for v in x]
    g = gcd(*ints)
    sign = 1 if next(v for v in ints if v) > 0 else -1
    return tuple(sign * v // g for v in ints)


def solve_oracle(columns, rhs):
    """One rational solution of sum_i x_i * columns[i] = rhs (free variables
    0), or None if the system is inconsistent."""
    ncols = len(columns)
    m = [[Fraction(col[r]) for col in columns] + [Fraction(v)] for r, v in enumerate(rhs)]
    pivot_cols = row_reduce_oracle(m, ncols)
    if any(row[ncols] != 0 for row in m[len(pivot_cols) :]):
        return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivot_cols):
        x[col] = m[r][ncols]
    return x


def list_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def minimal_poly_oracle(rows):
    """The first power A**e that is a rational combination of lower powers
    gives the minimal polynomial."""
    k = len(rows)
    powers = [[[int(i == j) for j in range(k)] for i in range(k)]]
    for _ in range(k):
        powers.append(list_matmul(powers[-1], rows))
    vecs = [[x for row in p for x in row] for p in powers]
    for e in range(1, k + 1):
        sol = solve_oracle(vecs[:e], vecs[e])
        if sol is not None:
            coeffs = [-c for c in sol] + [Fraction(1)]
            assert all(c.denominator == 1 for c in coeffs)
            return IntPolynomial(tuple(int(c) for c in coeffs))
    raise AssertionError("A**k is always a combination of lower powers")


@st.composite
def int_rows(draw, square=True):
    """1..5 rows of 1..5 integers, small or near 1e9 in size; half of the
    draws make the last row a combination of the others (a zero row when
    there is only one), so the rows are dependent."""
    n = draw(st.integers(1, 5))
    width = n if square else draw(st.integers(1, 5))
    if draw(st.booleans()):
        entry = st.integers(-3, 3)
    else:
        entry = st.tuples(st.sampled_from((-1, 1)), st.integers(BIG - 100, BIG + 100)).map(
            lambda t: t[0] * t[1]
        )
    rows = [[draw(entry) for _ in range(width)] for _ in range(n)]
    if draw(st.booleans()):
        mix = [draw(st.integers(-2, 2)) for _ in rows[:-1]]
        rows[-1] = [sum(w * r[c] for w, r in zip(mix, rows)) for c in range(width)]
    return rows


@st.composite
def repeated_spectrum_matrices(draw):
    """U J U^-1 for an upper triangular J with diagonal entries from {-1, 2}
    and sparse 0/1 entries above it: repeated eigenvalues and Jordan blocks
    of several sizes, so the minimal polynomial often has lower degree than
    the characteristic one."""
    k = draw(st.integers(1, 5))
    core = [[0] * k for _ in range(k)]
    for i in range(k):
        core[i][i] = draw(st.sampled_from((-1, 2)))
        for j in range(i + 1, k):
            core[i][j] = draw(st.sampled_from((0, 0, 1)))
    return [list(row) for row in conjugate_by_unimodular(draw, core).rows]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=int_rows())
def test_property_det_and_kernel_match_fraction_oracles(rows):
    a = IntMatrix.from_rows(rows)
    assert det_int(a) == laplace_det(rows)
    expected = kernel_oracle(rows)
    if expected is None:
        with pytest.raises(ValueError):
            integer_kernel_vector(a)
    else:
        assert integer_kernel_vector(a) == expected


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=int_rows(square=False))
def test_property_rank_matches_fraction_oracle_on_any_shape(rows):
    assert len(independent_indices(rows)) == fraction_rank(rows)
    assert len(independent_indices([tuple(col) for col in zip(*rows)])) == fraction_rank(rows)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.one_of(int_rows(), repeated_spectrum_matrices()))
def test_property_minimal_poly_matches_krylov_oracle(rows):
    assert minimal_poly(rows) == minimal_poly_oracle(rows)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=int_rows(square=False))
def test_property_fraction_free_form_is_pivot_times_reduced_form(rows):
    m = np.array(rows, dtype=object)
    pivots, last = _fraction_free(m)
    oracle = [[Fraction(x) for x in row] for row in rows]
    assert pivots == row_reduce_oracle(oracle, len(rows[0]))
    common = m[0, pivots[0]] if pivots else 1
    assert abs(last) == abs(common)
    for r, col in enumerate(pivots):
        # equal pivots, zeros elsewhere in every pivot column
        assert list(m[:, col]) == [common if i == r else 0 for i in range(len(rows))]
    # every pivot row is the common pivot times the rational reduced row, so
    # no floor division was inexact; the rows past the rank are zero
    for r in range(len(rows)):
        assert list(m[r]) == [common * x for x in oracle[r]]
        assert all(type(x) is int for x in m[r])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=int_rows(), e=st.integers(0, 12), p=st.integers(2, 60))
def test_property_powers_match_repeated_products(rows, e, p):
    a = IntMatrix.from_rows(rows)
    assert (a @ a).rows == tuple(map(tuple, list_matmul(rows, rows)))
    expected = IntMatrix.identity(a.k)
    for _ in range(e):
        expected = expected @ a
    assert mat_pow(a, e) == expected
    # reducing mod p after every product gives the exact power mod p
    reduced = IntMatrix.identity(a.k)
    for _ in range(e):
        reduced = IntMatrix.from_rows([[x % p for x in row] for row in (reduced @ a).rows])
    assert reduced.rows == tuple(tuple(x % p for x in row) for row in mat_pow(a, e).rows)


def test_polishing_moves_a_root_onto_the_residual_floor():
    # x^4 + 525 x^3 + 282 x^2 + 629 x - 70 has no rational root; np.roots
    # leaves its small real root about 1.2e-14 * scale off
    f = IntPolynomial((-70, 629, 282, 525, 1))
    raw = [complex(z) for z in np.roots([1.0, 525.0, 282.0, 629.0, -70.0])]
    polished = [_polish_root(f, z) for z in raw]
    assert sum(a != b for a, b in zip(raw, polished)) == 1
    floor = [1e-14 * _residual_scale(f, z) for z in polished]
    assert all(abs(complex(f.evaluate(z))) <= t for z, t in zip(polished, floor))
    assert any(abs(complex(f.evaluate(z))) > 1e-14 * _residual_scale(f, z) for z in raw)


def test_eigenvalues_of_a_non_monic_polynomial():
    lams = eigenvalues(IntPolynomial((-3, 0, 2)))  # 2x^2 - 3
    assert [z.imag for z in lams] == [0.0, 0.0]
    assert lams[0].real == pytest.approx(-math.sqrt(1.5), abs=1e-15)
    assert lams[1].real == pytest.approx(math.sqrt(1.5), abs=1e-15)


def test_nonconvergence_names_the_polynomial(monkeypatch):
    monkeypatch.setattr(algebra, "_roots_numeric", lambda f: [complex(-1.0), complex(1.0)])
    with pytest.raises(NonConvergence, match=r"of 2x\^2-3 has residual"):
        eigenvalues(IntPolynomial((-3, 0, 2)))


def test_pair_conjugates_rejects_an_unpaired_root():
    with pytest.raises(NonConvergence, match="not closed under conjugation"):
        _pair_conjugates([complex(1.0, 2.0), complex(3.0, 0.0)])
    with pytest.raises(NonConvergence):
        _pair_conjugates([complex(1.0, 2.0), complex(1.0, 2.0)])


def nearest_partner_pairing(roots, tol):
    """The former pairing, kept as an oracle: sort, then pair each root off
    the axis with the unused root nearest its conjugate and emit the mean."""
    out = []
    pending = sorted(roots, key=lambda z: (z.real, abs(z.imag), z.imag))
    used = [False] * len(pending)
    for i, z in enumerate(pending):
        if used[i]:
            continue
        used[i] = True
        if abs(z.imag) <= tol:
            out.append(complex(z.real, 0.0))
            continue
        best, best_dist = None, None
        for j in range(len(pending)):
            if not used[j]:
                dist = abs(pending[j] - z.conjugate())
                if best_dist is None or dist < best_dist:
                    best, best_dist = j, dist
        if best is None:
            out.append(z)
            continue
        used[best] = True
        mid = (z + pending[best].conjugate()) / 2
        out += [complex(mid.real, abs(mid.imag)), complex(mid.real, -abs(mid.imag))]
    return out


def bits(roots):
    """The roots in the order _checked_roots sorts them, as raw float bits;
    the sign of a zero real part breaks ties, so it cannot hide."""
    ordered = sorted(roots, key=lambda z: (z.real, z.imag, math.copysign(1.0, z.real)))
    return np.array(ordered, dtype=complex).view(np.int64).tolist()


def random_real_polynomial(rng):
    """Random integer polynomials of degree 2 to 12: dense, products with
    squared factors, even polynomials f(x^2) and x^2 + c factors, some non-monic."""
    kind = rng.randrange(4)
    if kind == 0:
        deg = rng.randint(2, 12)
        lead = rng.choice([1, 1, 2, -3])
        return IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(deg)) + (lead,))
    if kind == 1:
        g = IntPolynomial(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3))) + (1,))
        h = IntPolynomial(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4))) + (1,))
        return poly_mul(poly_mul(g, g), h)
    if kind == 2:
        g = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))] + [1]
        return IntPolynomial(tuple(c for a in g for c in (a, 0))[:-1])
    f = IntPolynomial((rng.randint(1, 9), 0, 1))
    for _ in range(rng.randint(0, 3)):
        f = poly_mul(f, IntPolynomial((rng.randint(-4, 9), rng.randint(-3, 3), 1)))
    return f


def test_pair_conjugates_matches_nearest_partner_oracle():
    rng = random.Random(1729)
    for _ in range(2000):
        f = random_real_polynomial(rng)
        raw = np.roots(np.array(list(reversed(f.coeffs)), dtype=float))
        polished = [_polish_root(f, complex(z)) for z in raw]
        assert bits(_pair_conjugates(polished)) == bits(nearest_partner_pairing(polished, 1e-9)), f


def partial_check_split_quartic(f):
    """The former quartic split, kept as an oracle: it checks the x and x^2
    coefficients, and the divisibility of d - v b, instead of the product."""
    e, d, c, b = f.coeffs[0], f.coeffs[1], f.coeffs[2], f.coeffs[3]
    if e == 0:
        return None
    resolvent = IntPolynomial((-(b * b * e - 4 * c * e + d * d), b * d - 4 * e, -c, 1))
    for y in sorted(set(_integer_roots(resolvent))):
        disc = y * y - 4 * e
        root = isqrt(disc) if disc >= 0 else -1
        if root < 0 or root * root != disc or (y + root) % 2 != 0:
            continue
        v, s = (y - root) // 2, (y + root) // 2
        if s != v:
            if (d - v * b) % (s - v) != 0:
                continue
            u = (d - v * b) // (s - v)
            w = b - u
            if v + s + u * w == c and u * s + v * w == d:
                return IntPolynomial((v, u, 1)), IntPolynomial((s, w, 1))
        elif v * b == d:
            disc = b * b - 4 * (c - 2 * v)
            root = isqrt(disc) if disc >= 0 else -1
            if root >= 0 and root * root == disc and (b + root) % 2 == 0:
                u = (b + root) // 2
                return IntPolynomial((v, u, 1)), IntPolynomial((v, b - u, 1))
    return None


def test_split_quartic_matches_partial_check_oracle():
    rng = random.Random(4242)
    split_count = 0
    for _ in range(5000):
        f = random_quartic(rng)
        split = _split_quartic(f)
        assert split == partial_check_split_quartic(f), f.coeffs
        split_count += split is not None
    assert split_count > 1000


def verify_identities_oracle(a, e, j, eigenvalue_order=None):
    """The former per-call verify_spectral_identities, kept as an oracle: it
    rebuilds every shift, product, power and scale for each (e, j)."""
    a = algebra.as_matrix(a)
    k = a.k
    mp = minimal_poly(a)
    d = mp.degree
    if not 1 <= e <= d:
        raise ValueError(f"e must satisfy 1 <= e <= d = {d}")
    if j < 0:
        raise ValueError("j must be >= 0")
    lams = list(canonical_eigenvalue_order(a))
    if eigenvalue_order is not None:
        if sorted(eigenvalue_order) != list(range(k)):
            raise OrderMismatch(f"eigenvalue_order must be a permutation of range({k})")
        lams = [lams[i] for i in eigenvalue_order]
    exact = all(z.imag == 0 and float(z.real).is_integer() for z in lams)
    one = 1 if exact else complex(1)
    lam_vals = [int(z.real) if exact else complex(z) for z in lams]
    eye = np.identity(k, dtype=object) * one
    t = algebra._array(a).T * one
    shifts = [t - lam * eye for lam in lam_vals[:d]]
    prods = [eye]
    for shift in shifts:
        prods.append(prods[-1] @ shift)
    powers = [eye]
    for _ in range(max(e, j)):
        powers.append(powers[-1] @ t)
    lhs1 = powers[e]
    rhs1 = sum((lam_vals[s] * (powers[e - s - 1] @ prods[s]) for s in range(e)), prods[e])
    lhs2 = powers[j] @ prods[e]
    rhs2 = 0
    for h in range(e + 1, d + 1):
        coeff = algebra._complete_homogeneous(j - d + h, lam_vals[h - 1 : d])
        if coeff != 0:
            rhs2 = rhs2 + coeff * (reduce(np.matmul, shifts[h:], eye) @ prods[e])
    diff1 = float(np.abs(lhs1 - rhs1).max())
    diff2 = float(np.abs(lhs2 - rhs2).max())
    # identity 1 against |T**e|, identity 2 against the sizes of its
    # factors, |T**j| |T - lam_1 I| ... |T - lam_e I|
    scale2 = float(np.abs(powers[j]).max())
    for shift in shifts[:e]:
        scale2 *= float(np.abs(shift).max())
    tol = algebra.IDENTITY_RESIDUAL_TOL
    ok1 = diff1 <= tol * max(1.0, float(np.abs(lhs1).max()))
    ok2 = diff2 <= tol * max(1.0, scale2)
    return ok1 and ok2, max(diff1, diff2)


def outcome(check, *args):
    """repr of check(*args), or the type and message of what it raises."""
    try:
        return repr(check(*args))
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def assert_identities_match_oracle(a, order):
    d = minimal_poly(a).degree
    for eigenvalue_order in (None, order):
        for e in range(1, d + 1):
            for j in range(13):
                args = (a, e, j, eigenvalue_order)
                assert outcome(algebra.verify_spectral_identities, *args) == outcome(
                    verify_identities_oracle, *args
                ), (a.rows, e, j, eigenvalue_order)


IDENTITY_MATRICES = SUITE_ROWS + (
    ((2, 1, 0), (0, 2, 1), (0, 0, 2)),  # one Jordan block: d = 3, one root
    ((1, 1), (0, 1)),
    ((3, 0, 0), (0, 3, 0), (0, 0, 3)),  # d = 1 < k
    ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),  # +-i twice
    ((0, 0, 0, 0, 1), (1, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)),
    ((1000003, 999983), (-999979, 1000033)),
    ((1, 2, 3), (0, 1, 4), (5, 6, 0)),
)


@pytest.mark.parametrize("rows", IDENTITY_MATRICES)
def test_spectral_identities_match_per_call_oracle(rows):
    a = IntMatrix.from_rows(rows)
    assert_identities_match_oracle(a, tuple(reversed(range(a.k))))
    # argument errors, and which of two comes first
    k, d = a.k, minimal_poly(a).degree
    for e in (0, 1, d, d + 1):
        for j in (-1, 0):
            for order in (None, tuple(range(k)), (0,) * k, tuple(range(k + 1))):
                args = (a, e, j, order)
                assert outcome(algebra.verify_spectral_identities, *args) == outcome(
                    verify_identities_oracle, *args
                ), (rows, e, j, order)


@st.composite
def identity_matrices(draw):
    """Integer matrices of dimension 1-4: uniform small entries (irrational
    and complex spectra), or a triangular core on few diagonal values
    (repeated, possibly defective, eigenvalues) conjugated by a unimodular
    matrix."""
    k = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        return IntMatrix.from_rows([[draw(entry) for _ in range(k)] for _ in range(k)])
    diag = st.sampled_from((-2, 1, 3))
    core = [
        [draw(diag) if i == j else draw(st.integers(0, 1)) if i < j else 0 for j in range(k)]
        for i in range(k)
    ]
    return conjugate_by_unimodular(draw, core)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_spectral_identities_match_per_call_oracle(data):
    a = data.draw(identity_matrices())
    assert_identities_match_oracle(a, tuple(data.draw(st.permutations(range(a.k)))))
