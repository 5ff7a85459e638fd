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

P_n lives on at most |supp mu|**n states, so while that is small
against p^k the early steps run on a sparse form of the law (_sparse).
For a stride chain that form is an arc of Z_p under j <= 2 steps (_Arc),
from the point mass at x0 on: in the fast regime (|a| > 1) the arc of
P_n is about |a|**n times the spread of mu long, so the law fills Z_p
only in the last one or two steps.  Those before are taken on the arc,
at O(arc) each, while the arc two steps on would not wrap; the last arc
is then held under one step and under two, and the arc between is made
only by a walk that steps on, which steps it straight into the dense
law.  For every other chain it is the support, stepped at O(|supp|
|supp mu|) a step until about p^k / 32 targets.  The paper's
necessary-steps count belongs to the mixing search alone: it computes tv
only once the count no longer rules out mixing, with a margin of one
state, 1/N in tv, past the float error.  For A = 2 it then sums one tv,
not O(log p), and makes no dense law and not the arc between: the law
the count no longer rules out is an arc under at most two steps, and its
tv is summed where it is held.  A law is summed leaf by leaf through a
256 KB scratch block in numpy's own pairwise order (_pairwise), the
leaves of an arc under steps written by the strided slices of its last
step cut to each leaf, from the arc between's runs that the leaf reads
for two steps (_image_tv): the float a sum over the dense law gives,
with no law-sized temporary.  Past a short prefix mixing_time hands the
search to fourier (_fourier_search).
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import accumulate, product
from typing import Callable, Generator, Iterable, Iterator, NamedTuple, Optional, Sequence

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
# the (shift, weight) pairs of the identity step, the last step of an arc
# under 0 steps (_Arc)
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
    """arr's min (inf for an empty arr), with arr's entries from NEG_TOL up
    to 0.0, -0.0 among them, clipped to +0.0 in place when the min is at
    least NEG_TOL; an array whose min is above 0 is left as it is, which
    is what the clip would leave."""
    low = float(arr.min(initial=np.inf))
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
    scratch = np.empty(min(law.size, max(SCRATCH_STATES, math.prod(law.shape[1:]))) if rest else 0)
    for shift, w in rest:
        for dst, src in pairs(shift):
            _add_scaled(out[dst], law[src], w, scratch)


def step_exact(dist: StateDistribution, chain: ChainSpec) -> StateDistribution:
    """One exact step: P'(x) = sum_y P(y) * mu_p(x - A y mod p), the terms of
    each target added in the order of chain._shifts by _write_translates.

    For a stride chain (chain._stride is a, not None) P is the arc of all
    p states and steps as an arc under one step is made dense
    (_step_lines), with no table and no pushed copy.  Otherwise P is scattered through
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

    The laws are _walk's, each one it holds as its support or as an arc
    under steps made dense here (_dense), and each law made once; every
    P_i is step_exact's, bit for bit.
    """
    for i, law in _walk(chain, n):
        # rebound, so a sparse form is freed before the walk makes the next law
        yield i, (law := _dense(law, chain))


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


def _image_tv(law: _Arc, chain: ChainSpec) -> float:
    """tv_distance of an arc under steps (_Arc) made dense, bit for bit, or
    the ValueError making it raises, without making it: under two steps
    that law is _step_lines from the arc between that _step_arc makes,
    under fewer steps the law _dense makes.  Each leaf of _pairwise is
    zeroed and written by the slice pairs of the last step (the identity
    for an arc) cut to the leaf's window (_lines), through
    _write_translates in the order of its shifts, so every entry is the
    same products and sums in the same order; then it is clipped (_clip)
    and summed twice, for the check and for tv, so the leaves' mins and
    both sums are those over the law.  Under two steps the last step
    reads the arc between, whose runs each leaf reads are written once a
    leaf (_between), and that arc is checked first, as _step_arc checks
    it.  An arc under 0 steps was checked where _step_arc made it, and the
    point mass is exact, so its leaves are summed for tv alone."""
    p, (lo, values, steps) = chain.p, law
    a, shifts = (chain._stride, chain._shifts) if steps else (1, _IDENTITY)
    # the arc the last step moves: the arc between under two steps
    start, length = _moved(law, 1, chain) if steps == 2 else (lo, len(values))
    c, scratch, lows, between = 1.0 / p, np.empty(min(p, SCRATCH_STATES)), [], ([], [])

    def leaf(part: slice) -> np.ndarray:
        (out := scratch[: part.stop - part.start]).fill(0.0)
        pairs = {s: list(_lines(a, s, p, start, length, (part.start, part.stop))) for s, _ in shifts}
        moved = _between(pairs, law, chain, start, between) if steps == 2 else values
        _write_translates(out, moved, shifts, pairs.__getitem__)
        if steps:
            lows.append(_clip(out))
        # the sum is taken before the subtraction overwrites the leaf
        total = out.sum() if steps else 0.0
        return np.array([total, np.abs(np.subtract(out, c, out=out), out=out).sum()])

    total, dev = _pairwise(leaf, 0, p)
    # the arc between first; np.min keeps a NaN min, as a law's min would be NaN
    if steps == 2:
        _check_totals(float(np.min(between[0])), float(np.sum(between[1])))
    if steps:
        _check_totals(float(np.min(lows)), float(total))
    return 0.5 * float(dev)


def _between(pairs: dict, law: _Arc, chain: ChainSpec, start: int, checks: tuple) -> np.ndarray:
    """The runs of the arc between the two steps of law, which starts at
    start, that one leaf's last-step slice pairs (pairs, by shift) read,
    as one block, to which each pair's src is moved in place.

    The runs are merged, so each entry is written once a leaf, by
    _write_translates in the order of chain._shifts, as _step_arc writes
    it.  The block is clipped (_clip) where its min is at most 0, as
    _step_arc's check clips a law that passes, and checks, two lists, get
    that min and the sums of the runs the first translate reads: over all
    leaves the blocks hold every entry of the arc between, and those runs
    each entry once."""
    runs: list[list[int]] = []
    for u, v in sorted((src.start, src.stop) for found in pairs.values() for _, src in found):
        if not runs or u > runs[-1][1]:
            runs.append([u, v])
        runs[-1][1] = max(runs[-1][1], v)
    # each run's first position in the arc between and in the block
    heads, offsets = [u for u, _ in runs], [0, *accumulate(v - u for u, v in runs)]
    block = np.zeros(offsets[-1])
    # the translates in positions from the arc between's first state, as _step_arc moves them
    shifts = [((c - start,), w) for (c,), w in chain._shifts]
    lines = partial(_lines, chain._stride, p=chain.p, lo=law.lo, length=len(law.values))
    for (u, v), o in zip(runs, offsets):
        _write_translates(block[o : o + v - u], law.values, shifts, partial(lines, window=(u, v)))
    for found in pairs.values():
        for i, (dst, src) in enumerate(found):
            move = offsets[r := bisect_right(heads, src.start) - 1] - heads[r]
            found[i] = dst, slice(src.start + move, src.stop + move)
    checks[0].append(_clip(block))
    checks[1].extend(block[src].sum() for _, src in pairs[chain._shifts[0][0]])
    return block


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


def _law_tv(law: _Law, chain: ChainSpec) -> float:
    """tv_distance of a law _walk yields, read where it is held: a dense
    law as it is, an arc under steps leaf by leaf (_image_tv) and a
    support on the support (_support_tv), bit for bit the tv of the law
    made dense."""
    if isinstance(law, StateDistribution):
        return tv_distance(law)
    if isinstance(law, _Arc):
        return _image_tv(law, chain)
    return _support_tv(*law, chain.n_states)


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


# A stride chain's law held on an arc under steps, 0, 1 or 2: the law that
# is values at lo, lo + 1, ... (mod p) and 0 off that arc, moved steps
# times by the chain's step y -> a y + c (mod p), (c, w) in chain._shifts.
# Under 0 steps it is the arc; _sparse holds the last arc under one step
# and two rather than make the arc between (_moved).
_Arc = NamedTuple("_Arc", [("lo", int), ("values", np.ndarray), ("steps", int)])


_Law = StateDistribution | _Support | _Arc


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


def _moved(arc: _Arc, steps: int, chain: ChainSpec) -> tuple[int, int]:
    """The first state and the length of the arc that holds a stride
    chain's arc (arc.lo, arc.values) moved steps times (arc.steps is not
    read), each image taken as if Z_p did not wrap: |a| (L - 1) + max c -
    min c + 1 states from an arc of L, c over the least residues of
    chain._shifts.  The law moved holds no state twice while that length
    is at most p; past p it wraps."""
    a, p, lo, length = chain._stride, chain.p, arc.lo, len(arc.values)
    # the shifts lie in [0, p), so each least residue is c or c - p
    low, high = min(cs := [c - p if 2 * c > p else c for (c,), _ in chain._shifts]), max(cs)
    for _ in range(steps):
        span = abs(a) * (length - 1)
        # the image of the arc's first state for a > 0, of its last for a < 0
        lo, length = (a * lo + low - (span if a < 0 else 0)) % p, span + high - low + 1
    return lo, length


def _step_arc(arc: _Arc, chain: ChainSpec) -> _Arc:
    """One exact step of a stride chain's law held on an arc (arc.lo,
    arc.values; arc.steps is not read), onto the arc of its image
    (_moved), which must not wrap.

    Each translate y -> a y + c, (c, w) in chain._shifts, is moved by
    _lines, in positions from the image arc's first state, and
    _write_translates adds them as step_exact's do.  Off the arc
    step_exact only multiplies and adds exact zeros, so the law is
    step_exact's, bit for bit.
    """
    start, length = _moved(arc, 1, chain)
    out = np.zeros(length)
    lines = partial(_lines, chain._stride, p=chain.p, lo=arc.lo, length=len(arc.values))
    _write_translates(out, arc.values, chain._shifts, lambda shift: lines((shift[0] - start,)))
    _check_law(out)
    return _Arc(start, out, 0)


def _step_lines(p: int, lo: int, law: np.ndarray, a: int, shifts: Sequence) -> StateDistribution:
    """One exact k = 1 step of a law held on an arc (lo, law) into the
    dense law on Z_p: a is the least residue of A mod p and shifts the
    (shift, weight) pairs of chain._shifts, whose translates y -> a y + c
    go from the arc straight into a zeroed law as the strided slice pairs
    of _lines restricted to the arc, in their order, through
    _write_translates.  Off the arc a step from the arc made dense only
    multiplies and adds exact zeros, so the law is the same bit for bit.
    step_exact's strided path is this step from the arc of all p states
    (lo = 0, L = p), _dense's of an arc the identity (a = 1, the one
    shift 0 at weight 1, _IDENTITY), and _image_tv writes its law leaf by
    leaf."""
    out = np.zeros(p)
    _write_translates(out, law, shifts, partial(_lines, a, p=p, lo=lo, length=len(law)))
    return StateDistribution(p, 1, out.view(_Fresh))


def _sparse(chain: ChainSpec, n: int) -> Generator[tuple[int, _Law], None, tuple[int, _Law]]:
    """_walk's sparse phase: yield (i, P_i) for each law it steps from the
    point mass at x0 on, and return the first it does not step, P_n at the
    latest.

    It steps only past a floor of 2**10 states: below it a dense step
    costs no more than a sparse step's fixed overhead.  s is |supp mu|
    folded mod p.  For a stride chain (chain._stride is a) P_i is held on
    an arc (_Arc), the point mass being an arc of one state, and stepped
    by _step_arc, at O((|a| + s) L) for an arc of L, while i < n and the
    arc two steps on would not wrap (_moved).  With |a| > 1 (the fast
    regime) the arc grows about |a|-fold a step, so the law fills Z_p
    only in the last one or two steps, and all those before are paid on
    the arc.  The last arc is yielded too while i < n, and the laws after
    it are that arc under one step and, when that one would not wrap but
    its image would and i + 1 < n, under two: the arc between, of up to p
    states, is never made here.  Below the floor the point mass is the
    last arc, under one step next.  For every other chain P_i is held as
    its support, and stepped by _step_support, while i < n and
    32 |supp P_i| s < p**k: past about p**k / 32 targets a dense step
    costs less than a sort of them.
    """
    _check_steps(n)
    _check_cap(chain.n_states, "p**k")
    p, size, s = chain.p, chain.n_states, len(chain._shifts)
    i, floor = 0, 2**10 <= size
    held: _Law
    if chain._stride is not None:
        held = _Arc(chain.x0[0], np.ones(1), 0)
        while i < n:
            yield i, held
            i += 1
            # stepped while the arc two steps on, and so the one, would not
            # wrap: while its length is at most p
            if floor and _moved(held, 2, chain)[1] <= p:
                held = _step_arc(held, chain)
            elif held.steps or not floor or i == n or _moved(held, 1, chain)[1] > p:
                return i, held._replace(steps=held.steps + 1)
            else:
                held = held._replace(steps=1)
        return i, held
    held = (np.array([encode_state(chain.x0, p)], dtype=np.int64), np.ones(1))
    rows = _mod_rows(chain.a, p)
    while i < n and floor and 32 * len(held[0]) * s < size:
        yield i, held
        held = _step_support(*held, rows, chain._shifts, p)
        i += 1
    return i, held


def _walk(chain: ChainSpec, n: int, lazy=False) -> Iterator[tuple[int, _Law]]:
    """Yield (i, P_i) for i = 0..n from the point mass at x0: first the
    laws of the sparse phase (_sparse), on arcs under steps for a stride
    chain and on the support for any other.

    The law the phase returns, P_n at the latest, an arc under one or two
    steps or a support, is made dense once (_dense), and the laws after it
    are step_exact's.  An arc under two steps first steps to the arc
    between (_step_arc), which is then under one step, and the arc it was
    moved from is freed before the law is made.  A walk yields that law
    dense only when a step follows (i < n), so as not to write an image
    twice; as P_n it is yielded as it is held, for its reader to read tv
    where it is held (_law_tv) or make it dense (_dense).  A lazy walk,
    read by a search that only sums tv and drops each law before it
    resumes the walk, yields that law as it is held, under two steps too,
    and makes it dense only when resumed, so a search that stops there
    makes no dense law and no arc between.  Every reader drops each law
    before it resumes the walk, and every law is step_exact's, bit for
    bit.
    """
    i, held = yield from _sparse(chain, n)
    if lazy:
        yield i, held
    # the sparse form is dropped once made dense, before the dense steps,
    # which it would outlive: an arc may hold up to p floats, a support up
    # to p**k / 32 states; an arc under two steps is rebound to the arc
    # between first, so the arc it was moved from is freed before that
    if (i < n or not lazy) and isinstance(held, _Arc) and held.steps == 2:
        held = _step_arc(held, chain)._replace(steps=1)
    if not lazy:
        yield i, (held := _dense(held, chain) if i < n else held)
    for i in range(i + 1, n + 1):
        # rebound first, so a sparse form is freed before the step
        held = _dense(held, chain)
        held = step_exact(held, chain)
        yield i, held


def _dense(law: _Law, chain: ChainSpec) -> StateDistribution:
    """law as a StateDistribution: a support law scattered into zeros, an
    arc under one step made by _step_lines, and an arc as its image under
    the identity step, the one or two slices it covers mod p (multiplying
    by 1.0 changes no bit).  An arc under two steps reaches it only after
    _walk has stepped it to the arc between."""
    if isinstance(law, StateDistribution):
        return law
    if isinstance(law, _Arc):
        a, shifts = (chain._stride, chain._shifts) if law.steps else (1, _IDENTITY)
        return _step_lines(chain.p, law.lo, law.values, a, shifts)
    dense = np.zeros(chain.n_states)
    dense[law[0]] = law[1]
    return StateDistribution(chain.p, chain.k, dense.view(_Fresh))


def evolve(chain: ChainSpec, n: int) -> StateDistribution:
    """The law P_n of X_n, by n exact steps from the point mass at x0.

    A stride chain takes _walk's steps, whose strided dense steps need no
    table, dropping each law before the next is made, and makes the last
    law dense (_dense).  Any other takes _walk's sparse phase (_sparse) on
    its support, and a phase that reaches n ends in _dense.  From the
    first P_i it does not step on, evolve runs in the
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
        for i, law in _walk(chain, n):
            if i < n:
                del law  # before the walk makes the next law, which it would outlive
        return _dense(law, chain)
    phase = _sparse(chain, n)
    try:
        while True:
            next(phase)
    except StopIteration as stop:
        i, held = stop.value
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

    The paper's necessary-steps argument is a count, kept here: P_n lives
    on at most b_n states, b_0 = 1 and b_n = min(b_{n-1} s, the states the
    walk holds P_n on), s = |supp mu| folded mod p: a support's values,
    the arc an arc under steps would be moved onto (_moved), that is an
    arc's values or the arc of an image that does not wrap, and all
    N = p**k for one that wraps or a dense law.  So tv(P_n) >= 1 - b_n / N,
    and while that bound certifies tv > eps no tv is computed.  The lazy
    walk (_walk) holds the law sparse on its own terms: for a stride chain
    on an arc under at most two steps, so in the fast regime the first
    law held on all N is about the mixed one; for any other on its
    support.  A law the count does not certify has its tv summed where
    the walk holds it: an arc under steps leaf by leaf (_image_tv), a
    support on the support, and none made dense, so a search that ends
    there makes no dense law and no arc between two steps.

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
      own pairwise order, and the tv of an arc under steps or a support
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
    size, r, s = chain.n_states, len(chain.mu.support), len(chain._shifts)
    room = (1.0 - eps) * size - 1 - size * 2.0**-50 * (n_cap * r + math.log2(size) + 8)
    # b_{n-1} s, 1 before P_0, the point mass on one state
    bound = 1
    for n, law in _walk(chain, n_cap, lazy=True):
        # a support is held on its values, an arc under steps on the arc
        # it would be moved onto, and a dense law on all N
        if isinstance(law, _Arc):
            states = min(size, _moved(law, law.steps, chain)[1])
        else:
            states = size if isinstance(law, StateDistribution) else len(law[1])
        bound = min(bound, states)
        # an uncertified law is read as it is held: dense, or an arc under
        # steps or a support, none made dense
        if bound >= room and _law_tv(law, chain) <= eps:
            return n
        bound *= s
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
    one state of margin past the float error, the prefix computes no tv.
    Its early steps run on the arc that holds P_n for a stride chain
    (ChainSpec._stride), at O(arc) each, the laws after the last of them
    read as that arc under one and two steps until a step on needs them
    dense, and on the support of P_n for any other, at
    O(|supp| |supp mu|) each (see _mixing_time_dense).  A Fourier value
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
