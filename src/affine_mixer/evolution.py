"""Exact evolution of the chain law over Z_p^k.

States are indexed little-endian: x maps to sum_i x_i * p**i.  One step of
X' = A X + B (mod p) is a push-forward through the bijection y -> A y
(gcd(det A, p) = 1 makes it one) followed by a cyclic convolution with the
reduced increment law, so a step costs 2 |supp mu| + 3 passes over the p^k
states (one scatter through the permutation table of y -> A y, a multiply
and an add per translate but the first, which only multiplies, all
written by _write_translates, and the min, clip and sum that check the
law) and stays exact up to float addition.  For k = 1 with a small
multiplier the push needs no table and no scatter: each translate
y -> a y + c is at most |a| + 1 strided slices read straight from the
law, so a step costs 2 |supp mu| + 2 passes; the same slices, restricted
to an arc of Z_p, step a law held on that arc.

The paper's necessary-steps count says where that work is wasted: P_n
lives on at most |supp mu|**n states, so while that is small against p^k
the early steps run on a sparse form of the law, and the mixing search
computes tv only once the count no longer rules out mixing.  For k >= 2
that form is the support, stepped at O(|supp| |supp mu|) a step.  For
k = 1 it is an arc of Z_p, from the point mass at x0 on: in the fast
regime (|a| > 1, with a the least residue of A mod p) the arc of P_n is
about |a|**n times the spread of mu long, so the law fills Z_p only in
the last few steps.  Those before are taken on the arc, at O(arc) each,
until its image would wrap or the count stops ruling out mixing, and
the last arc the count still rules out steps straight into the dense
law.  The count asks a margin of one state, 1/N in tv, past the float
error; for A = 2 a mixing search then makes one dense law and sums one
tv, not O(log p) of each.  Past a short prefix mixing_time hands the
search to fourier (_fourier_search).
"""

from __future__ import annotations

import math
import os
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import IntMatrix, as_matrix, det_int, mat_pow_mod
from .errors import ConfigInvalid, ModulusNotCoprime, StateSpaceTooLarge
from .increments import IncrementDistribution

DEFAULT_STATE_CAP = 4_000_000
STATE_CAP_ENV = "AFFINE_MIXER_STATE_CAP"
DEFAULT_N_CAP = 100_000
SUM_TOL = 1e-10
NEG_TOL = -1e-15
# largest |a| for which a k = 1 step moves the law by strided slices, not
# through the permutation table (see step_exact)
LINE_CUTOFF = 8
# states in the block through which a translate's products pass on their
# way into the new law (_add_scaled): 256 KB, so a block stays in L2
SCRATCH_STATES = 2**15


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
    def _perm(self) -> np.ndarray:
        """Index permutation of the push-forward y -> A y mod p.  Read by
        step_exact for k >= 2 and for k = 1 past LINE_CUTOFF, and, as
        _perm_t when A is symmetric, by product_scan and _fourier_search."""
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


def _check_law(arr: np.ndarray) -> None:
    """Check a float64 law in place: no entry below NEG_TOL, and a sum
    within SUM_TOL of 1.  Entries from NEG_TOL up to 0.0, -0.0 among them,
    are clipped to +0.0; a law whose min is above 0 is left as it is,
    which is what the clip would leave."""
    low = float(arr.min())
    if low < NEG_TOL:
        raise ValueError(f"negative probability {low} below tolerance")
    if low <= 0.0:
        np.clip(arr, 0.0, None, out=arr)
    total = float(arr.sum())
    # a NaN entry makes min and sum NaN, which fails every comparison
    if not abs(total - 1.0) <= SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1 within {SUM_TOL}")


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


def _lines(a: int, shift: Sequence[int], p: int, lo: int, length: int) -> Iterator[tuple]:
    """Pairs (dst, src) of basic slices, at most |a| length / p + 2 (|a| + 1
    for the whole of Z_p) with disjoint dst, such that moved[dst] =
    law[src] for every pair moves a law held on the arc lo, lo + 1, ... of
    Z_p of `length` states (all of Z_p for lo = 0, length = p) by
    y -> a y + c (mod p), c = shift[0]: src is a run of consecutive arc
    positions j and dst the images of y = lo + j at stride a.  a is
    coprime to p, with 0 < |a| < p; the counterpart of _slabs for a k = 1
    push and translation at once."""
    # y = lo + j goes to a j + c', c' = a lo + c: a translate of the arc's positions
    c, j = (a * lo + int(shift[0])) % p, 0
    while j < length:
        t = (a * j + c) % p
        # the run goes on while a j + c' stays in one period: up to p - 1
        # for a > 0, down to 0 for a < 0
        run = min(length - j, (p - t + a - 1) // a if a > 0 else t // -a + 1)
        stop = t + a * run
        yield slice(t, stop if stop >= 0 else None, a), slice(j, j + run)
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

    For k = 1 with a least residue a of A mod p (-p/2 < a <= p/2) of at most
    LINE_CUTOFF in absolute value, P is the arc of all p states and steps
    as _walk's last arc does (_step_lines), with no table and no pushed
    copy.  Otherwise P is scattered through chain._perm into a pushed law,
    whose translates are moved slab by slab (_slabs).  One writer gives
    both paths the same products and sums in the same order, so the law is
    the same bit for bit.
    """
    if (dist.p, dist.k) != (chain.p, chain.k):
        raise ValueError("distribution and chain dimensions disagree")
    p, k = chain.p, chain.k
    if k == 1 and abs(a := _least_residue(chain.a.rows[0][0], p)) <= LINE_CUTOFF:
        return _step_lines(0, dist.values, a, chain._shifts, p)
    pushed = np.empty_like(dist.values)
    pushed[chain._perm] = dist.values
    law = pushed.reshape((p,) * k)
    out = np.empty_like(law)
    _write_translates(out, law, chain._shifts, partial(_slabs, p=p))
    return StateDistribution(p, k, out.reshape(-1).view(_Fresh))


def evolve_iter(chain: ChainSpec, n: int) -> Iterator[tuple[int, StateDistribution]]:
    """Yield (i, P_i) for i = 0..n starting from the point mass at x0.

    The laws are _walk's, each one it holds as its support or on an arc
    made dense here (_dense); every P_i is step_exact's, bit for bit.
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


def evolve(chain: ChainSpec, n: int) -> StateDistribution:
    """The law P_n of X_n, by n exact steps from the point mass at x0."""
    _check_work(chain, n)
    return deque(_walk(chain, n), maxlen=1)[0][1]


def tv_distance(dist: StateDistribution) -> float:
    """Total variation distance to the uniform law on Z_p^k."""
    dev = dist.values - 1.0 / len(dist.values)
    return 0.5 * float(np.abs(dev, out=dev).sum())


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


def shift_by(dist: StateDistribution, chain: ChainSpec, n: int) -> StateDistribution:
    """Push dist through x -> A**n x0 + x (mod p), the start-shift map."""
    p, k = chain.p, chain.k
    offset = mat_pow_mod(chain.a, n, p).apply(chain.x0)
    cube = dist.values.reshape((p,) * k)
    moved = np.empty_like(cube)
    for dst, src in _slabs(offset, p):
        moved[dst] = cube[src]
    return StateDistribution(p, k, moved.reshape(-1).view(_Fresh))


# A law held as its support: sorted state indices and their values.
_Support = tuple[np.ndarray, np.ndarray]
# A k = 1 law held on an arc: its first state lo and its values at lo,
# lo + 1, ... (mod p); the law is 0 off the arc.
_Arc = tuple[int, np.ndarray]


def _step_support(codes: np.ndarray, values: np.ndarray, chain: ChainSpec) -> _Support:
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


def _step_lines(lo: int, law: np.ndarray, a: int, shifts: Sequence, p: int) -> StateDistribution:
    """One exact k = 1 step of a law held on an arc (lo, law) into the
    dense law on Z_p: a is the least residue of A mod p and shifts the
    (shift, weight) pairs of chain._shifts, whose translates y -> a y + c
    go from the arc straight into a zeroed law as the strided slice pairs
    of _lines restricted to the arc, in their order, through
    _write_translates.  Off the arc a step from the arc made dense only
    multiplies and adds exact zeros, so the law is the same bit for bit.
    step_exact's strided path is this step from the arc of all p states
    (lo = 0, L = p), and _dense's of an arc the identity (a = 1, the one
    shift 0 at weight 1)."""
    out = np.zeros(p)
    _write_translates(out, law, shifts, partial(_lines, a, p=p, lo=lo, length=len(law)))
    return StateDistribution(p, 1, out.view(_Fresh))


def _walk(
    chain: ChainSpec, n: int, keep: Callable[[int], bool] = lambda targets: True
) -> Iterator[tuple[int, StateDistribution | _Support | _Arc, int]]:
    """Yield (i, P_i, b_i) for i = 0..n from the point mass at x0, with
    b_i >= |supp P_i| and b_0 = 1.

    Each chain takes one sparse phase, from the point mass on, and only
    past a floor of 2**10 states: below it a dense step costs no more than
    a sparse step's fixed overhead.  s is |supp mu| folded mod p.

    For k = 1 P_i is held on an arc, the point mass being an arc of one
    state, and stepped by _step_arc, at O((|a| + s) L) for an arc of L,
    while i < n, keep(b_i) holds and the image arc does not wrap.  With
    |a| > 1 (the fast regime) the arc grows about |a|-fold a step, so the
    law fills Z_p only in the last few steps, and all those before are
    paid on the arc.  The last arc, whose image would wrap (or the point
    mass below the floor), is yielded as an arc too while i < n, keep(b_i)
    holds and |a| <= LINE_CUTOFF, and steps straight into the dense law
    (_step_lines), so no reader makes it dense unless it reads it.  When
    keep(b_i) fails the arc is made dense first, as with |a| past the
    cutoff: a reader that sums its tv then holds the dense law beside the
    next one, not the arc as well.

    For k >= 2 P_i is held as its support, and stepped by _step_support,
    while i < n and keep(targets) holds, targets being |supp P_i| * s: the
    bound on |supp P_{i+1}|.  Past about p**k / 32 targets a dense step
    costs less than a sort of them, so the phase ends there too.

    The first P_i the phase does not step, P_n at the latest, is made
    dense once (_dense), and the laws after it are step_exact's.  b_i is
    min(b_{i-1} s, L) on the arc, |supp P_i| on the support and
    min(b_{i-1} s, p**k) after either.  Every law is step_exact's, bit
    for bit.
    """
    _check_steps(n)
    _check_cap(chain.n_states, "p**k")
    p, size, s = chain.p, chain.n_states, len(chain._shifts)
    i, bound, floor = 0, 1, 2**10 <= size
    held: StateDistribution | _Support | _Arc
    if chain.k == 1:
        a = _least_residue(chain.a.rows[0][0], p)
        shifts = [(_least_residue(c, p), w) for (c,), w in chain._shifts]
        spread = max(c for c, _ in shifts) - min(c for c, _ in shifts)
        held = (chain.x0[0], np.ones(1))
        while i < n and floor and keep(bound) and abs(a) * (len(held[1]) - 1) + spread < p:
            yield i, held, bound
            held = _step_arc(*held, a, shifts, p)
            bound = min(bound * s, len(held[1]))
            i += 1
        if i < n and keep(bound) and abs(a) <= LINE_CUTOFF:
            yield i, held, bound
            held = _step_lines(*held, a, chain._shifts, p)
            bound = min(bound * s, size)
            i += 1
    else:
        held = (np.array([encode_state(chain.x0, p)], dtype=np.int64), np.ones(1))
        while i < n and floor and 32 * len(held[0]) * s < size and keep(len(held[0]) * s):
            yield i, held, len(held[0])
            held = _step_support(*held, chain)
            i += 1
        bound = len(held[0])
    # the sparse form is dropped before the dense steps, which it would
    # outlive: an arc may hold up to p floats, a support up to p**k / 32 states
    held = _dense(held, chain)
    yield i, held, bound
    for i in range(i + 1, n + 1):
        held = step_exact(held, chain)
        bound = min(bound * s, size)
        yield i, held, bound


def _dense(law: StateDistribution | _Support | _Arc, chain: ChainSpec) -> StateDistribution:
    """law as a StateDistribution: a support law scattered into zeros, an
    arc law written in by _step_lines with the identity map, as the one or
    two slices it covers mod p (multiplying by 1.0 changes no bit)."""
    if isinstance(law, StateDistribution):
        return law
    if isinstance(law[0], int):
        return _step_lines(*law, 1, [((0,), 1.0)], chain.p)
    dense = np.zeros(chain.n_states)
    dense[law[0]] = law[1]
    return StateDistribution(chain.p, chain.k, dense.view(_Fresh))


def _mixing_time_dense(chain: ChainSpec, eps: float, n_cap: int) -> Optional[int]:
    """Smallest n <= n_cap with tv_distance(P_n) <= eps, by incremental
    exact stepping; None when unmixed at the cap.

    The paper's necessary-steps argument is a count: P_n lives on at most
    b_n states (_walk's bound), so tv(P_n) >= 1 - b_n / N with N = p**k.
    While that bound certifies tv > eps, no tv is computed, and _walk,
    told so by keep, holds the law sparse: for k = 1 on the arc that holds
    it, the last certified arc stepping straight into the dense law, so in
    the fast regime the first dense law is about the mixed one; for
    k >= 2 on its support, up to the last law whose successor the count
    certifies.  The search reads a law, and makes it dense to sum its tv,
    only once the count no longer certifies it.

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
      by at most (log2 N + 24) u.
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
    for n, law, bound in _walk(chain, n_cap, lambda bound: bound < room):
        if bound >= room and tv_distance(_dense(law, chain)) <= eps:
            return n
        # dropped before _walk makes the next law: an arc made dense would
        # otherwise have this one beside it as well
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
    chain: ChainSpec, eps: float, n_cap: int = DEFAULT_N_CAP
) -> Optional[int]:
    """Smallest n <= n_cap with tv_distance(P_n) <= eps, else None.

    Steps exactly for a short prefix (see _dense_prefix), then gallops and
    bisects on n in the Fourier domain, where each candidate costs O(log n)
    pointwise products and one FFT, so raising n_cap is cheap.  While the
    counting bound tv(P_n) >= 1 - |supp P_n| / p**k rules out mixing, with
    one state of margin past the float error, the prefix computes no tv,
    and its early steps run on the arc that holds P_n for k = 1, at O(arc)
    each, the last of them straight into the dense law, and on the support
    of P_n for k >= 2, at O(|supp| |supp mu|) each (see
    _mixing_time_dense).  A
    Fourier value within the round-off margin of eps, or a crossing that
    does not recompute, hands the whole search to dense stepping, so the
    answer is always the one incremental dense stepping gives.  That
    stepping stays within the budget of _check_work; a chain still
    unmixed at the budget's last step, with n_cap past it, raises
    StateSpaceTooLarge.  None means unmixed at the cap.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    # before _dense_prefix prices p**k in floats, which overflow past 2**1024
    _check_cap(chain.n_states, "p**k")
    prefix = min(n_cap, _dense_prefix(chain.n_states, len(chain.mu.support)))
    found = _mixing_time_dense(chain, eps, prefix)
    if found is not None or prefix == n_cap:
        return found
    # imported here, not at the top: fourier imports this module as it loads
    from .fourier import _NearTie, _fourier_search

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
