"""Exact evolution of the chain law over Z_p^k.

States are indexed little-endian: x maps to sum_i x_i * p**i.  One step of
X' = A X + B (mod p) is a push-forward through the bijection y -> A y
(gcd(det A, p) = 1 makes it one) followed by a cyclic convolution with the
reduced increment law, so a step costs 2 |supp mu| + 3 passes over the p^k
states (one scatter through the permutation table of y -> A y, a multiply
and an add per translate but the first, which only multiplies, all
written by _write_translates, and the min, clip and sum that check the
law) and stays exact up to float addition.

A chain decides once how its law is held and moved (ChainSpec._stride).
A stride chain, k = 1 with a the least residue of A mod p and |a| <=
LINE_CUTOFF, pushes with no table and no scatter: each translate y -> a
y + c is at most |a| + 1 strided slices read straight from the law, so a
step costs 2 |supp mu| + 2 passes, and the same slices, restricted to an
arc of Z_p, step a law held on that arc.  Every other chain scatters.

Where a step would scatter through the table, evolve, which yields only
P_n, steps in the reversed frame V_j = A**(n-j) X_j instead.  X_n =
A**n x0 + sum_{j<n} A**(n-1-j) B_j, so V_{j+1} = V_j + A**(n-j-1) B_j:
each step only adds the translates of the law by A**(n-j-1) h mod p,
2 |supp mu| + 2 passes with no table and no pushed copy, and V_n = X_n
lands in index order.  The multipliers from step i on are A**0 h, ...,
A**(n-i-1) h, built once up from the identity and read backwards.

The paper's necessary-steps count says where that work is wasted: P_n
lives on at most |supp mu|**n states, so while that is small against p^k
the early steps run on a sparse form of the law, and the mixing search
computes tv only once the count no longer rules out mixing.  For a
stride chain that form is an arc of Z_p, from the point mass at x0 on:
in the fast regime (|a| > 1) the arc of P_n is about |a|**n times the
spread of mu long, so the law fills Z_p only in the last few steps.
Those before are taken on the arc, at O(arc) each, until its image would
wrap or the count stops ruling out mixing, and the last arc steps
straight into the dense law.  For every other chain it is the support,
stepped at O(|supp| |supp mu|) a step.  The count asks a margin
of one state, 1/N in tv, past the float error; for A = 2 a mixing search
then sums one tv, not O(log p), and makes no dense law: the law the
count no longer rules out is an arc or the last arc's image under one
step, and its tv is summed where it is held.  A law is summed leaf by
leaf through a 256 KB scratch block in numpy's own pairwise order
(_pairwise), an image's leaves written by the strided slices of the
step cut to each leaf (_image_tv): the float a sum over the dense law
gives, with no law-sized temporary.  Past a short prefix mixing_time
hands the search to fourier (_fourier_search).
"""

from __future__ import annotations

import math
import os
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import product
from typing import Callable, Generator, Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import IntMatrix, as_matrix, det_int
from .errors import ConfigInvalid, ModulusNotCoprime, StateSpaceTooLarge
from .increments import IncrementDistribution

DEFAULT_STATE_CAP = 4_000_000
STATE_CAP_ENV = "AFFINE_MIXER_STATE_CAP"
DEFAULT_N_CAP = 100_000
SUM_TOL = 1e-10
NEG_TOL = -1e-15
# largest |a| for which a k = 1 chain is a stride chain (ChainSpec._stride)
LINE_CUTOFF = 8
# states in the block through which a translate's products pass on their
# way into the new law (_add_scaled): 256 KB, so a block stays in L2
SCRATCH_STATES = 2**15
# the (shift, weight) pairs of the identity step
_IDENTITY = (((0,), 1.0),)


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


def _state_index(x: Sequence[int], p: int, k: int) -> int:
    """encode_state of a state that must have k components."""
    if len(x) != k:
        raise ValueError(f"state {tuple(x)} has {len(x)} components, expected {k}")
    return encode_state(x, p)


def _decode(codes: np.ndarray, p: int, k: int) -> np.ndarray:
    """The (m, k) array of states whose little-endian indices are codes."""
    return np.stack([(codes // p**i) % p for i in range(k)], axis=1)


def _encode(states: np.ndarray, p: int) -> np.ndarray:
    """Little-endian indices of the rows of an (m, k) array of reduced states."""
    return states @ np.array([p**i for i in range(states.shape[1])], dtype=np.int64)


def _mod_rows(matrix: IntMatrix, p: int) -> np.ndarray:
    """The entries of a matrix reduced mod p, as int64, whatever their size."""
    return (np.array(matrix.rows, dtype=object) % p).astype(np.int64)


def _least_residue(x: int, p: int) -> int:
    """The residue of x mod p in (-p/2, p/2]."""
    r = x % p
    return r - p if 2 * r > p else r


def _form(row: Sequence[int], p: int) -> np.ndarray:
    """sum_j row_j x_j mod p at every state x, as the (p,) * k int64 cube
    whose flat index is x's; row holds k integers in [0, p)."""
    coords = np.arange(p, dtype=np.int64)
    # axis k-1-j of the cube holds x_j, so x_j's vector gets j unit axes
    terms = [(w * coords).reshape((p,) + (1,) * j) for j, w in enumerate(row)]
    image = sum(terms[1:], terms[0])
    image %= p
    return image


def index_map(matrix: IntMatrix | Sequence[Sequence[int]], p: int, k: int) -> np.ndarray:
    """Index of M x mod p for every state index x.

    A permutation of the state indices whenever gcd(det M, p) = 1.  Each
    component of M x is a _form of a row of M, and Horner's rule gathers
    them, so two state-sized arrays are live at most.
    """
    codes = None
    for row in _mod_rows(as_matrix(matrix), p)[::-1]:
        image = _form(row, p)
        if codes is not None:
            codes *= p
            image += codes
        codes = image
    return codes.reshape(-1)


def _mu_hat_table(mu: IncrementDistribution, p: int) -> np.ndarray:
    """mu_hat(alpha) = sum of mu(h) * exp(2 pi i <h, alpha> / p) at every
    frequency index alpha, with phases from exact inner products mod p
    (the _form of each support point) looked up among the p roots of unity."""
    roots = np.exp((2j * np.pi / p) * np.arange(p))
    # the forms die once stacked and the (N, |supp mu|) index once gathered;
    # kept alive longer, either raised the peak resident memory of a
    # field-2d bounds task from 57 to 64.5 MB
    index = np.stack([_form([c % p for c in pt], p).reshape(-1) for pt in mu.support], axis=1)
    phases = roots[index]
    del index
    return phases @ np.array(mu.probs)


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
    def _stride(self) -> Optional[int]:
        """a, the least residue of A mod p, for a stride chain: k = 1 and
        |a| <= LINE_CUTOFF, whose law is held on arcs and moved by strided
        slices (_lines); None for every other chain, whose law is held as
        its support and scattered through _perm."""
        if self.k == 1 and abs(a := _least_residue(self.a.rows[0][0], self.p)) <= LINE_CUTOFF:
            return a
        return None

    @cached_property
    def _perm(self) -> np.ndarray:
        """Index permutation of the push-forward y -> A y mod p.  Read by
        step_exact for every chain but a stride chain (the dense steps of
        bounds_table, evolve_iter and mixing_time; evolve steps in its
        reversed frame and never reads it), and, as _perm_t when A is
        symmetric, by product_scan and by fourier's orbit products unless
        A = I mod p."""
        return index_map(self.a, self.p, self.k)

    @cached_property
    def _perm_t(self) -> np.ndarray:
        """Index permutation of alpha -> T alpha mod p, T = transpose(A); _perm if A = T."""
        t = self.a.transpose()
        return self._perm if t == self.a else index_map(t, self.p, self.k)

    @cached_property
    def _factors(self) -> np.ndarray:
        """|mu_hat|**2 at every frequency index, clipped into [0, 1]: the
        factor table of fourier's orbit products.  Built by the first
        product_scan or bound that needs it, so a bounds table reuses the
        one its scan built."""
        factor = np.abs(_mu_hat_table(self.mu, self.p)) ** 2
        np.clip(factor, 0.0, 1.0, out=factor)  # |mu_hat| <= 1 exactly; clip float spill
        factor.flags.writeable = False
        return factor

    @cached_property
    def _shifts(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """mu folded mod p, as sorted (shift, weight) pairs."""
        shifts: defaultdict[tuple[int, ...], float] = defaultdict(float)
        for pt, w in zip(self.mu.support, self.mu.probs):
            shifts[tuple(int(c) % self.p for c in pt)] += w
        return tuple(sorted(shifts.items()))


class _Fresh(np.ndarray):
    """A new float64 law buffer, which StateDistribution takes without a copy."""


def _clip(arr: np.ndarray) -> float:
    """arr's min, with arr's entries from NEG_TOL up to 0.0, -0.0 among
    them, clipped to +0.0 in place when the min is at least NEG_TOL; an
    array whose min is above 0 is left as it is, which is what the clip
    would leave."""
    low = float(arr.min())
    if NEG_TOL <= low <= 0.0:
        np.clip(arr, 0.0, None, out=arr)
    return low


def _check_totals(low: float, total: float) -> None:
    """Refuse a law whose min is below NEG_TOL or whose sum is not within
    SUM_TOL of 1, in that order."""
    if low < NEG_TOL:
        raise ValueError(f"negative probability {low} below tolerance")
    # a NaN entry makes min and sum NaN, which fails every comparison
    if not abs(total - 1.0) <= SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1 within {SUM_TOL}")


def _check_law(arr: np.ndarray) -> None:
    """Check a float64 law in place: no entry below NEG_TOL, and a sum,
    taken after the clip (_clip), within SUM_TOL of 1."""
    _check_totals(_clip(arr), float(arr.sum()))


class StateDistribution:
    """Dense law on Z_p^k, little-endian indexed, values read-only; every
    law passes _check_law."""

    __slots__ = ("p", "k", "values")

    def __init__(self, p: int, k: int, values: np.ndarray | Sequence[float]):
        arr = values.view(np.ndarray) if isinstance(values, _Fresh) else np.array(values, float)
        if arr.shape != (p**k,):
            raise ValueError(f"expected {p**k} entries, got {arr.shape}")
        _check_law(arr)
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


def _check_steps(n: int) -> None:
    """Refuse a negative step count."""
    if n < 0:
        raise ValueError("step count must be >= 0")


def _slabs(shift: Sequence[int], p: int) -> Iterator[tuple[tuple, tuple]]:
    """Pairs (dst, src) of basic slices, at most 2**k with disjoint dst, such that
    moved[dst] = cube[src] for each moves the law cube by x -> x + shift (mod p)."""
    # axis j of the cube holds component x_{k-1-j}, hence the reversal; on
    # each axis the cut pairs are those of the line y -> y + c
    axes = [list(_lines(1, (c,), p, 0, p)) for c in reversed(shift)]
    for pairs in product(*axes):
        yield tuple(zip(*pairs))


def _lines(a: int, shift: Sequence[int], p: int, lo: int, length: int, window=None) -> Iterator:
    """Pairs (dst, src) of basic slices, at most |a| length / p + 2 (|a| + 1
    for the whole of Z_p) with disjoint dst, such that moved[dst] =
    law[src] for every pair moves a law held on the arc lo, lo + 1, ... of
    Z_p of `length` states (all of Z_p for lo = 0, length = p) by
    y -> a y + c (mod p), c = shift[0]: src is a run of consecutive arc
    positions j and dst the images of y = lo + j at stride a.  a is
    coprime to p, with 0 < |a| < p; the counterpart of _slabs for a k = 1
    push and translation at once.  A window (start, stop), 0 <= start <
    stop <= p, cuts each pair to its images in start, ..., stop - 1, which
    moved holds from position 0 on; the default is all of Z_p."""
    start, stop = window or (0, p)
    # the run's m-th image t + a m lies in the window for ceil((e0 - t) / a)
    # <= m < ceil((e1 - t) / a): its first and its last state past the end
    e0, e1 = (start, stop) if a > 0 else (stop - 1, start - 1)
    # y = lo + j goes to a j + c', c' = a lo + c: a translate of the arc's positions
    c, j = (a * lo + int(shift[0])) % p, 0
    while j < length:
        t = (a * j + c) % p
        # the run goes on while a j + c' stays in one period: up to p - 1
        # for a > 0, down to 0 for a < 0
        run = min(length - j, (p - t + a - 1) // a if a > 0 else t // -a + 1)
        m0, m1 = max(-((t - e0) // a), 0), min(-((t - e1) // a), run)
        if m0 < m1:
            first, end = t + a * m0 - start, t + a * m1 - start
            yield slice(first, end if end >= 0 else None, a), slice(j + m0, j + m1)
        j += run


def _add_scaled(dst: np.ndarray, src: np.ndarray, w: float, scratch: np.ndarray) -> None:
    """dst += w * src through scratch, which is at least one leading-axis
    row of src long, a block of rows at a time (all of src at once when it
    fits), so no product as large as src is allocated.  Every entry gets
    the same product and sum as from the one expression."""
    rows = len(scratch) // math.prod(src.shape[1:])
    for r in range(0, len(src), rows):
        block = src[r : r + rows]
        part = scratch[: block.size].reshape(block.shape)
        np.multiply(block, w, out=part)
        dst[r : r + rows] += part


def _write_translates(
    out: np.ndarray, law: np.ndarray, shifts: Sequence[tuple], pairs: Callable[..., Iterable]
) -> None:
    """Make out, which must be 0 off the first translate's image, the sum
    of w * (law moved by shift) over the (shift, weight) pairs in shifts,
    the law moved by a shift being out[dst] = law[src] for the (dst, src)
    slice pairs of pairs(shift), with disjoint dst.  The first
    translate is written as w * law[src] (which is 0 + w * law[src] for
    law >= 0), and each later one, if any, added through one scratch
    block of SCRATCH_STATES states, or one leading-axis row of law if
    longer (_add_scaled), in shifts order; so no translate is copied, and
    every caller gets the same products and sums in the same order."""
    (shift, w), *rest = shifts
    for dst, src in pairs(shift):
        np.multiply(law[src], w, out=out[dst])
    scratch = np.empty(min(law.size, max(SCRATCH_STATES, law.size // len(law))) if rest else 0)
    for shift, w in rest:
        for dst, src in pairs(shift):
            _add_scaled(out[dst], law[src], w, scratch)


def step_exact(dist: StateDistribution, chain: ChainSpec) -> StateDistribution:
    """One exact step: P'(x) = sum_y P(y) * mu_p(x - A y mod p), the terms of
    each target added in the order of chain._shifts by _write_translates.

    For a stride chain (chain._stride is a, not None) P is the arc of all
    p states and steps as _walk's last arc does (_step_lines), with no
    table and no pushed copy.  Otherwise P is scattered through
    chain._perm into a pushed law, whose translates are moved slab by slab
    (_slabs).  One writer gives both paths the same products and sums in
    the same order, so the law is the same bit for bit.
    """
    if (dist.p, dist.k) != (chain.p, chain.k):
        raise ValueError("distribution and chain dimensions disagree")
    p, k = chain.p, chain.k
    if (a := chain._stride) is not None:
        return _step_lines(p, 0, dist.values, a, chain._shifts)
    pushed = np.empty_like(dist.values)
    pushed[chain._perm] = dist.values
    law = pushed.reshape((p,) * k)
    out = np.empty_like(law)
    _write_translates(out, law, chain._shifts, partial(_slabs, p=p))
    return StateDistribution(p, k, out.reshape(-1).view(_Fresh))


def evolve_iter(chain: ChainSpec, n: int) -> Iterator[tuple[int, StateDistribution]]:
    """Yield (i, P_i) for i = 0..n starting from the point mass at x0.

    The laws are _walk's, each one it holds as its support, on an arc or
    as an arc's image made dense here (_dense), and each law made once;
    every P_i is step_exact's, bit for bit.
    """
    for i, law, _ in _walk(chain, n):
        yield i, _dense(law, chain)


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


def _pairwise(leaf: Callable[[slice], np.ndarray], start: int, n: int) -> np.ndarray:
    """The sums leaf(part) gives for the parts of an array that are the
    leaves of numpy's pairwise tree over its n entries from start, nodes of
    at most SCRATCH_STATES entries, added back up in the tree's order.

    numpy sums a contiguous float64 array by one pairwise recursion, a node
    of n > 128 entries splitting at h = n // 2 - (n // 2) % 8.  A leaf
    summed by numpy is a node of that tree (an array of at most one leaf is
    its root), so every rounding is the one sum over the array would make."""
    if n > SCRATCH_STATES:
        h = n // 2 - n // 2 % 8
        return _pairwise(leaf, start, h) + _pairwise(leaf, start + h, n - h)
    return leaf(slice(start, start + n))


def _half_abs_sum(size: int, fill: Callable[[np.ndarray, slice], object]) -> float:
    """0.5 * float(np.abs(d).sum()), bit for bit, for a length-size array d
    that is never built: fill(out, part) writes d[part] into out, a leaf
    of _pairwise in one reused scratch block."""
    scratch = np.empty(min(size, SCRATCH_STATES))

    def leaf(part: slice) -> np.ndarray:
        fill(out := scratch[: part.stop - part.start], part)
        return np.abs(out, out=out).sum()

    return 0.5 * float(_pairwise(leaf, 0, size))


def _image_tv(p: int, lo: int, values: np.ndarray, a=1, shifts=_IDENTITY) -> float:
    """tv_distance of _step_lines(p, lo, values, a, shifts), the image of
    the arc (lo, values) under one step, bit for bit, or the ValueError its
    _check_law raises, without making that law: each leaf of _pairwise is
    zeroed and written by _step_lines's slice pairs cut to the leaf's
    window (_lines), through _write_translates in the order of shifts, so
    every entry is the same products and sums in the same order; then it
    is clipped (_clip) and summed twice, for the check and for tv, so the
    leaves' mins and both sums are those over the law."""
    c, scratch, lows = 1.0 / p, np.empty(min(p, SCRATCH_STATES)), []
    lines = partial(_lines, a, p=p, lo=lo, length=len(values))

    def leaf(part: slice) -> np.ndarray:
        (out := scratch[: part.stop - part.start]).fill(0.0)
        _write_translates(out, values, shifts, partial(lines, window=(part.start, part.stop)))
        lows.append(_clip(out))
        # the sum is taken before the subtraction overwrites the leaf
        return np.array([out.sum(), np.abs(np.subtract(out, c, out=out), out=out).sum()])

    total, dev = _pairwise(leaf, 0, p)
    # np.min keeps a NaN min, as the law's min would be NaN
    _check_totals(float(np.min(lows)), float(total))
    return 0.5 * float(dev)


def _support_tv(codes: np.ndarray, values: np.ndarray, size: int) -> float:
    """tv_distance of the law on size states that is values at the sorted
    state indices codes and 0 elsewhere, without making it dense: each
    leaf is filled with 1/size, |0 - 1/size| off the support, and the
    support's entries are written in, the floats the dense law's would be."""
    c = 1.0 / size

    def fill(out: np.ndarray, part: slice) -> None:
        out.fill(c)
        a, b = np.searchsorted(codes, (part.start, part.stop))
        out[codes[a:b] - part.start] = values[a:b] - c

    return _half_abs_sum(size, fill)


def tv_distance(dist: StateDistribution) -> float:
    """Total variation distance to the uniform law on Z_p^k, summed by
    _half_abs_sum as 0.5 * sum |P(x) - 1/N| with no law-sized temporary;
    a law of at most one leaf is that tree's root, summed at once."""
    values, c = dist.values, 1.0 / len(dist.values)
    if len(values) <= SCRATCH_STATES:
        return 0.5 * float(np.abs(values - c).sum())
    return _half_abs_sum(len(values), lambda out, part: np.subtract(values[part], c, out=out))


def _law_tv(law: _Law, size: int) -> float:
    """tv_distance of a law _walk yields, read where it is held: a dense
    law as it is, an arc or an image not yet made dense leaf by leaf
    (_image_tv) and a support on the support (_support_tv), bit for bit
    the tv of the law made dense."""
    if isinstance(law, StateDistribution):
        return tv_distance(law)
    if isinstance(law[0], int):
        return _image_tv(size, *law)
    return _support_tv(*law, size)


def simulate(chain: ChainSpec, n: int, trials: int, seed: int) -> StateDistribution:
    """Empirical law of X_n over independent trajectories.

    Deterministic given seed: draws come from numpy's Generator with the
    PCG64 bit generator seeded with exactly this value.
    """
    _check_steps(n)
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
    # the trials step in two (trials, k) buffers, swapped each step; each
    # step's draws are freed before the next step draws
    x = np.tile(np.array(chain.x0, dtype=np.int64), (trials, 1))
    y = np.empty_like(x)
    for _ in range(n):
        picks = rng.choice(len(supp), size=trials, p=probs)
        np.matmul(x, a_mod.T, out=y)
        for j in range(k):
            y[:, j] += supp[picks, j]
        del picks
        np.remainder(y, p, out=y)
        x, y = y, x
    counts = np.bincount(_encode(x, p), minlength=p**k)
    return StateDistribution(p, k, (counts / trials).view(_Fresh))


# A law held as its support: sorted state indices and their values.
_Support = tuple[np.ndarray, np.ndarray]
# A k = 1 law held on an arc: its first state lo and its values at lo,
# lo + 1, ... (mod p); the law is 0 off the arc.
_Arc = tuple[int, np.ndarray]
# A k = 1 law not yet made dense: the image (lo, values, a, shifts) of the
# arc (lo, values) under one step y -> a y + c, (c, w) in shifts.  An arc
# is its image under the identity step, a = 1 and the one shift 0 at
# weight 1 (_IDENTITY), the defaults of _step_lines and _image_tv.
_Law = StateDistribution | _Support | _Arc | tuple[int, np.ndarray, int, Sequence[tuple]]


def _step_support(
    codes: np.ndarray, values: np.ndarray, rows: np.ndarray, shifts: Sequence[tuple], p: int
) -> _Support:
    """One exact step x -> M x + shift mod p of a law held as its support:
    sorted state indices and their values, M the int64 (k, k) rows and
    shifts (shift, weight) pairs.  Costs O(|supp| s log(|supp| s)) with s =
    len(shifts), not O(p**k), and builds no permutation table.

    Each target gathers w * P(y) over the pairs (y, shift) with
    M y + shift = x, added in the order of shifts starting from 0, as the
    translates are added in step_exact; so with M = A mod p and the pairs
    of chain._shifts the law is bit-identical to step_exact's.
    """
    k = len(rows)
    pushed = _decode(codes, p, k) @ rows.T
    moves = np.array([shift for shift, _ in shifts], dtype=np.int64)
    weights = np.array([w for _, w in shifts])
    # shift-major rows: bincount adds each target's terms in shift order
    targets = _encode(((pushed[None] + moves[:, None]) % p).reshape(-1, k), p)
    codes, inverse = np.unique(targets, return_inverse=True)
    terms = (weights[:, None] * values[None]).reshape(-1)
    return codes, np.bincount(inverse, weights=terms, minlength=len(codes))


def _step_arc(lo: int, values: np.ndarray, a: int, shifts: Sequence[tuple], p: int) -> _Arc:
    """One exact step of a k = 1 law held on an arc (lo, values), onto the
    arc of its image: a is the least residue of A mod p, shifts the (least
    residue, weight) pairs of chain._shifts in their order, and the image
    arc, |a| (L - 1) + max c - min c + 1 states for an arc of L, must not
    wrap.

    Each translate y -> a y + c is moved by _lines, in positions from the
    image arc's first state, and _write_translates adds them as
    step_exact's do.  Off the arc step_exact only multiplies and adds
    exact zeros, so the law is step_exact's, bit for bit.
    """
    low = min(c for c, _ in shifts)
    span = abs(a) * (len(values) - 1)
    out = np.zeros(span + max(c for c, _ in shifts) - low + 1)
    # the image of the arc's first state for a > 0, of its last for a < 0
    start = (a * lo + low - (span if a < 0 else 0)) % p
    _write_translates(out, values, shifts, lambda c: _lines(a, (c - start,), p, lo, len(values)))
    _check_law(out)
    return start, out


def _step_lines(p: int, lo: int, law: np.ndarray, a=1, shifts=_IDENTITY) -> StateDistribution:
    """One exact k = 1 step of a law held on an arc (lo, law) into the
    dense law on Z_p: a is the least residue of A mod p and shifts the
    (shift, weight) pairs of chain._shifts, whose translates y -> a y + c
    go from the arc straight into a zeroed law as the strided slice pairs
    of _lines restricted to the arc, in their order, through
    _write_translates.  Off the arc a step from the arc made dense only
    multiplies and adds exact zeros, so the law is the same bit for bit.
    step_exact's strided path is this step from the arc of all p states
    (lo = 0, L = p), _dense's of an arc the identity (a = 1, the one
    shift 0 at weight 1), and _image_tv writes its law leaf by leaf."""
    out = np.zeros(p)
    _write_translates(out, law, shifts, partial(_lines, a, p=p, lo=lo, length=len(law)))
    return StateDistribution(p, 1, out.view(_Fresh))


def _sparse(
    chain: ChainSpec, n: int, keep: Callable[[int], bool]
) -> Generator[tuple[int, _Support | _Arc, int], None, tuple[int, _Support | _Arc, int]]:
    """_walk's sparse phase: yield (i, P_i, b_i) for each law it steps from
    the point mass at x0 on, and return the first it does not step, P_n at
    the latest, with its b_i.

    It runs only past a floor of 2**10 states: below it a dense step costs
    no more than a sparse step's fixed overhead.  s is |supp mu| folded mod
    p.  For a stride chain (chain._stride is a) P_i is held on an arc, the
    point mass being an arc of one state, and stepped by _step_arc, at
    O((|a| + s) L) for an arc of L, while i < n, keep(b_i) holds and the
    image arc does not wrap; b_i is min(b_{i-1} s, L).  With |a| > 1 (the
    fast regime) the arc grows about |a|-fold a step, so the law fills Z_p
    only in the last few steps, and all those before are paid on the arc.
    For every other chain P_i is held as its support, and stepped by
    _step_support, while i < n and keep(targets) holds, targets being
    |supp P_i| * s: the bound on |supp P_{i+1}|; b_i is |supp P_i|.  Past
    about p**k / 32 targets a dense step costs less than a sort of them,
    so the phase ends there too.
    """
    _check_steps(n)
    _check_cap(chain.n_states, "p**k")
    p, size, s = chain.p, chain.n_states, len(chain._shifts)
    i, floor = 0, 2**10 <= size
    held: _Support | _Arc
    if (a := chain._stride) is not None:
        shifts = [(_least_residue(c, p), w) for (c,), w in chain._shifts]
        spread = max(c for c, _ in shifts) - min(c for c, _ in shifts)
        held, bound = (chain.x0[0], np.ones(1)), 1
        while i < n and floor and keep(bound) and abs(a) * (len(held[1]) - 1) + spread < p:
            yield i, held, bound
            held = _step_arc(*held, a, shifts, p)
            bound = min(bound * s, len(held[1]))
            i += 1
        return i, held, bound
    held = (np.array([encode_state(chain.x0, p)], dtype=np.int64), np.ones(1))
    rows = _mod_rows(chain.a, p)
    while i < n and floor and 32 * len(held[0]) * s < size and keep(len(held[0]) * s):
        yield i, held, len(held[0])
        held = _step_support(*held, rows, chain._shifts, p)
        i += 1
    return i, held, len(held[0])


def _walk(
    chain: ChainSpec, n: int, keep: Callable[[int], bool] = lambda targets: True, lazy=False
) -> Iterator[tuple[int, _Law, int]]:
    """Yield (i, P_i, b_i) for i = 0..n from the point mass at x0, with
    b_i >= |supp P_i| and b_0 = 1: first the laws of the sparse phase
    (_sparse), on arcs for a stride chain and on the support for any other.

    For a stride chain the last arc, whose image would wrap or for which
    keep(b_i) fails (or the point mass below the floor), is yielded as an
    arc too while i < n, and the law after it is that arc's image under
    one step, (lo, values, a, shifts).

    That law, or for any other chain the first P_i the phase does not
    step, P_n at the latest, is made dense once (_dense), and the laws
    after it are step_exact's, with b_i = min(b_{i-1} s, p**k).  A walk
    yields it dense only when a step follows (i < n), so as not to write
    an image twice; as P_n it is yielded as it is held, for its reader to
    read tv where it is held (_law_tv) or make it dense (_dense).  A lazy
    walk, read by a search that only sums tv and drops each law before it
    resumes the walk, yields that law as it is held and makes it dense
    only when resumed, so a search that stops there makes no dense law.
    Every law is step_exact's, bit for bit.
    """
    i, held, bound = yield from _sparse(chain, n, keep)
    size, s = chain.n_states, len(chain._shifts)
    if (a := chain._stride) is not None and i < n:
        yield i, held, bound
        held, bound, i = (*held, a, chain._shifts), min(bound * s, size), i + 1
    # the sparse form is dropped once made dense, before the dense steps,
    # which it would outlive: an arc may hold up to p floats, a support up
    # to p**k / 32 states
    if not lazy and i < n:
        held = _dense(held, chain)
    yield i, held, bound
    for i in range(i + 1, n + 1):
        held = _dense(held, chain)
        held = step_exact(held, chain)
        bound = min(bound * s, size)
        yield i, held, bound


def _dense(law: _Law, chain: ChainSpec) -> StateDistribution:
    """law as a StateDistribution: a support law scattered into zeros, an
    image made by _step_lines, and an arc as its image under the identity
    step, the one or two slices it covers mod p (multiplying by 1.0
    changes no bit)."""
    if isinstance(law, StateDistribution):
        return law
    if isinstance(law[0], int):
        return _step_lines(chain.p, *law)
    dense = np.zeros(chain.n_states)
    dense[law[0]] = law[1]
    return StateDistribution(chain.p, chain.k, dense.view(_Fresh))


def evolve(chain: ChainSpec, n: int) -> StateDistribution:
    """The law P_n of X_n, by n exact steps from the point mass at x0.

    A stride chain takes _walk's steps, whose strided dense steps need no
    table, and makes the last law dense (_dense).  Any other takes _walk's
    sparse phase (_sparse) on its support, and a phase that reaches n ends
    in _dense.  From the first P_i it does not step on, evolve runs in the
    reversed frame V_j = A**(n-j) X_j, where step j -> j + 1 adds the
    translates of the law by A**(n-j-1) h mod p for (h, w) in
    chain._shifts order.  Their schedule is built once, in Python ints:
    from the identity, n - i times, A**m h mod p is appended for each h
    and the power multiplied by A mod p.  The power left, A**(n-i), and
    the last entry make the first step one support step (_step_support)
    by x -> A**(n-i) x + A**(n-i-1) h mod p, scattered into zeros; each
    later step pops the next entry and moves the dense frame law by
    _slabs through _write_translates, with no table and no pushed copy.
    The frame law at j is P_j permuted by x -> A**(n-j) x, each entry the
    same products and sums in the same order as step_exact's, checked by
    _check_law at every step; V_n = X_n is P_n in index order, bit for bit.
    """
    _check_work(chain, n)
    p, k = chain.p, chain.k
    if chain._stride is not None:
        return _dense(deque(_walk(chain, n), maxlen=1)[0][1], chain)
    phase = _sparse(chain, n, lambda targets: True)
    try:
        while True:
            next(phase)
    except StopIteration as stop:
        i, held, _ = stop.value
    if i == n:
        return _dense(held, chain)
    # A**m h mod p for m = 0..n-i-1, in Python ints: step j pops A**(n-j-1) h
    shifts, weights = zip(*chain._shifts)
    moves, a = np.array(shifts, dtype=object), np.array(chain.a.rows, dtype=object)
    power, schedule = np.identity(k, dtype=object), []
    for _ in range(n - i):
        schedule.append((moves @ power.T % p).astype(np.int64))
        power = power @ a % p
    codes, values = _step_support(*held, power.astype(np.int64), [*zip(schedule.pop(), weights)], p)
    law = np.zeros((p,) * k)
    law.reshape(-1)[codes] = values
    del held, codes, values
    out = np.empty_like(law)
    while schedule:
        _check_law(law.reshape(-1))
        _write_translates(out, law, [*zip(schedule.pop(), weights)], partial(_slabs, p=p))
        law, out = out, law
    return StateDistribution(p, k, law.reshape(-1).view(_Fresh))


def _mixing_time_dense(chain: ChainSpec, eps: float, n_cap: int) -> Optional[int]:
    """Smallest n <= n_cap with tv_distance(P_n) <= eps, by incremental
    exact stepping; None when unmixed at the cap.

    The paper's necessary-steps argument is a count: P_n lives on at most
    b_n states (_walk's bound), so tv(P_n) >= 1 - b_n / N with N = p**k.
    While that bound certifies tv > eps, no tv is computed, and _walk,
    told so by keep, holds the law sparse: for a stride chain on the arc
    that holds it, the law after the last arc as that arc's image under
    one step, so in the fast regime the first law not on an arc is about
    the mixed one; for any other on its support, up to the last law whose
    successor the count certifies.  The search sums a law's tv only once
    the count no longer certifies it, where _walk, lazy, holds it: an arc
    or an image leaf by leaf (_image_tv), a support on the support, and
    none made dense, so a search that ends there makes no dense law.

    The certificate is (1 - eps) N > b_n + 1 + D, with
    D = N 2**-50 (n_cap r + log2 N + 8) and r = |supp mu|: one state of
    margin past the count, and D for the float error, which it bounds in
    states at any N, the default cap's or one AFFINE_MIXER_STATE_CAP
    raises, where 1 / N can fall below it.  With u = 2**-53 and s <= r
    the folded support size, a certified law has a computed tv above eps:

    - The float law is >= 0, and exactly 0 off its b_n counted states (a
      product with an exact 0 is 0), so with T its total its exact tv is
      at least (1 + T) / 2 - b_n / N.
    - A step rounds each entry's s products and their sums, in order, by
      a relative s u at most, and the folded weights sum to 1 within
      (r + 1) u; so |T - 1| <= n (2 r + 1) u to first order, and tv moves
      by n (r + 1) u, or 4 n r u with the higher orders.  With s = 1 and
      one unfolded point the law stays exact.  n is bounded by n_cap, not
      by log_s N: an arc at |a| = 1 grows by the spread of mu a step, and
      a support can stop growing, so b_n may stay below N for any n.
    - tv_distance subtracts a rounded 1 / N and sums by pairs: it is off
      by at most (log2 N + 24) u.  _pairwise sums leaf by leaf in numpy's
      own pairwise order, and the tv of an arc, an image or a support
      gives the floats of the law made dense, so the bound holds for each
      as for one sum over a dense difference array.
    - The float test itself is off by at most 5 u in tv.

    D / N = 8 u (n_cap r + log2 N + 8) is more than these together, so
    the computed tv exceeds eps by 1 / N at least.  D is about 3 * 10**-6
    with A = 2 and fair {0, 1} at 3 * 10**6 states, so there the test is
    (1 - eps) N > b_n + 1, where a margin of b_n / N asked 2 b_n.
    Every law is the one evolve gives, bit for bit, so the answer is the
    one tv_distance at every n gives.
    """
    size, r = chain.n_states, len(chain.mu.support)
    room = (1.0 - eps) * size - 1 - size * 2.0**-50 * (n_cap * r + math.log2(size) + 8)
    for n, law, bound in _walk(chain, n_cap, lambda bound: bound < room, lazy=True):
        # an uncertified law is read as it is held: dense, or an arc, an
        # image or a support, none made dense
        if bound >= room and _law_tv(law, size) <= eps:
            return n
        # dropped before _walk makes the next law, which it would outlive
        del law
    return None


def _dense_prefix(n_states: int, support_size: int) -> int:
    """Steps to try by _mixing_time_dense before the Fourier search.

    With the round-off margin, the crossing recompute and the _NearTie
    fallback, mixing_time returns the dense crossing whichever path
    answers, so this price decides only the search's speed and which rows
    end in StateSpaceTooLarge after a near tie.  The early steps of the
    prefix, which run on the arc or support of P_n and cost O(arc) or
    O(|supp| |supp mu|) rather than O(N), are priced as dense steps.

    Costs in passes over a length-N array (N = p**k): a dense step is
    priced at |supp mu| + 4 of them plus a fixed Python overhead worth about
    2**14.  It makes at most 2 |supp mu| + 3 (see the module docstring).  A
    candidate n in the Fourier search (an FFT of a complex array and the tv
    sum) makes about 8 log2 N, plus an overhead of about 2**13.  A search
    takes about 20 transforms (2 log2 n plus the crossing check, for the n
    in reach of a short prefix).  The prefix is that search's cost counted
    in dense steps: a chain that mixes within it never pays for a
    transform, and one that does not has spent at most what the search
    costs, so neither path costs more than about twice the cheaper one.
    Only N and |supp mu| enter; the chain's regime is not known before it
    has been run.
    """
    transform = 8 * n_states * math.log2(max(n_states, 2)) + 2**13
    step = (support_size + 4) * n_states + 2**14
    return math.ceil(20 * transform / step)


def mixing_time(
    chain: ChainSpec, eps: float, n_cap: int = DEFAULT_N_CAP, *, hint: Optional[int] = None
) -> Optional[int]:
    """Smallest n <= n_cap with tv_distance(P_n) <= eps, else None.

    Steps exactly for a short prefix (see _dense_prefix), then gallops and
    bisects on n in the Fourier domain, where each candidate costs O(log n)
    pointwise products and one FFT, so raising n_cap is cheap.  While the
    counting bound tv(P_n) >= 1 - |supp P_n| / p**k rules out mixing, with
    one state of margin past the float error, the prefix computes no tv,
    and its early steps run on the arc that holds P_n for a stride chain
    (ChainSpec._stride), at O(arc) each, the law after the last of them
    read as that arc's image until a step on needs it dense, and on the
    support of P_n for any other, at O(|supp| |supp mu|) each (see
    _mixing_time_dense).  A Fourier value
    within the round-off margin of eps, or a crossing that
    does not recompute, hands the whole search to dense stepping, so the
    answer is always the one incremental dense stepping gives.  That
    stepping stays within the budget of _check_work; a chain still
    unmixed at the budget's last step, with n_cap past it, raises
    StateSpaceTooLarge.  None means unmixed at the cap.

    hint, an int, is a guess at the answer.  When it lies past twice the
    dense prefix (after a clamp to n_cap), the search skips the prefix and
    steps outward from it, down by 1, 2, 4, ... while mixed and up by 1, 2,
    4, ... while unmixed, then bisects (see _fourier_search); when it does
    not, or that search cannot decide, the search above runs whole.  A
    hint moves only the cost, never the answer.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    # before _dense_prefix prices p**k in floats, which overflow past 2**1024
    _check_cap(chain.n_states, "p**k")
    prefix = min(n_cap, _dense_prefix(chain.n_states, len(chain.mu.support)))
    # imported here, not at the top: fourier imports this module as it loads
    from .fourier import _NearTie, _fourier_search

    if hint is not None:
        try:
            return _fourier_search(chain, eps, n_cap, prefix, hint)
        except _NearTie:
            pass  # the whole unhinted search decides
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
