"""Larger-sieve bound evaluation over primes.

The plain bound certifies, for a set lying in at most nu(p) residue
classes modulo each chosen prime p, that its count up to N is at most

    (-log N + sum log p) / (-log N + sum log p / nu(p))

whenever the denominator is positive. The weighted variant replaces 1/nu
with the normalized second moment sum_h Z(h)^2 / |A|^2 of the occupancy
counts. Both are one running sum of per-prime terms from -log N, which
`optimize_cutoff` evaluates through `_bounds`.

A measured scan needs, at every prime p up to y, nu(p) (the number of
classes mod p that the set occupies) for the plain bound, or the second
moment sumsq(p) = sum_h Z(h)^2 of the occupancies for the weighted one.
When the set is dense, with max - min <= 512 |A|, both fold bitsets (the
codec of `primes`) of v - min (neither value changes under a shift) onto p
bits: cut at a multiple of p near half the length, merge the high part into
the low part, and repeat until at most p bits are left. That is
O(log(span/p)) rounds of big-int operations of at most span/64 words each.

- The plain count ORs one bitset of the distinct values; nu(p) is the
  popcount of what is left.
- The weighted count keeps the multiplicities as binary bit-planes: plane j
  holds the positions whose multiplicity has bit j set, so a set without
  repeats is that one bitset. A round adds the two halves plane by plane
  with a ripple carry (`_sum`: x = lo ^ hi, out = x ^ carry, carry =
  (lo & hi) | (carry & x)), which may add one plane. The folded planes P_j
  give sumsq = sum_j 4^j |P_j| + sum_{j<k} 2^(j+k+1) |P_j & P_k|, an exact int,
  so the bound's floats are those of a per-class count.

The first rounds over the whole set cost the most: each builds a mask of
half the set and shifts the other half. So a set at least 2^18 wide
(`_SPLIT_SPAN`) splits its planes once, when the counter is built, into 16
chunks of w = ceil((span + 1) / 16) bits, one extra copy of the planes.
Bit x of chunk j is bit j w + x of the set, in the class of
(j w mod p) + x, so for a prime with 4p <= w the fold starts from the
chunks shifted left by j w mod p into w + p bits: OR'ed for the plain
count, and for the weighted one summed by full adders column by column
(the carries of one plane join the next). The cuts then finish from there.
On the squareful numbers up to e^13.81 (2,021 values, span about 10^6)
this took the plain count over the primes up to 10^4 from 138 to 81 ms and
the weighted one from 250 to 173 ms (best of five on a 2-core host). A
narrower set keeps the whole-set fold: split, the squares of
`sieve-compare` (spans of 10^4 and 10^5, primes up to 400 (log N)^2)
gained nothing measurable, as few of their primes are below w/4. So does a
prime with 4p > w, whose chunks would be too narrow to gain.

A sparser set, such as values near 10**18 from a file, would need a bitset
too large to fold cheaply, or to allocate at all, so both counts reduce
every value mod p instead (|A| interpreted steps per prime), the weighted
one through `_occupancy`'s Counter. On random sets of 1,000 and 2,000 values
and the primes up to 10**4 (best of five, building the counter included),
the plain fold took 0.25 to 0.39 of the per-value time at span/|A| = 256,
0.39 to 0.50 at 384 and 0.40 to 0.55 at 512 (all but 1,000 values at 256
split). The weighted fold took 0.35 to 0.46 of the Counter's time at 256,
0.31 to 0.66 at 384 and 0.41 to 0.65 at 512. So both folds still win at
the one rule of 512; for the plain count alone the two routes cross near
1000, on random sets of 200 to 2000 values measured before the split."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .primes import PrimeSet, bitset, ceil_two_sqrt, check_table

DENOM_TOL = 1e-9
_FOLD_DENSITY = 512  # fold a measured set into a bitset when span <= this * |A|
_SPLIT_SPAN = 1 << 18  # split a folded set this wide or wider into 16 chunks


def _occupancy(vals: list[int], modulus: int) -> tuple[int, int]:
    """(nu, sumsq): the occupied classes of `vals` mod `modulus` and the
    sum of their squared occupancies."""
    counts = Counter([v % modulus for v in vals]).values()
    return len(counts), sum(c * c for c in counts)


def _planes(vals: list[int]) -> tuple[list[int], int] | None:
    """The bit-planes of the multiplicities of v - min(vals) and their span
    (no bit above it is set), or None when the set is too sparse to fold."""
    lo = min(vals)
    span = max(vals) - lo
    if span > _FOLD_DENSITY * len(vals):
        return None
    counts = Counter(v - lo for v in vals)
    return [bitset((x for x, c in counts.items() if c >> j & 1), span)
            for j in range(max(counts.values()).bit_length())], span


def _split(planes: list[int], span: int) -> tuple[int, list[list[int]]]:
    """(width, split): bits 0..span of each plane cut into 16 chunks of
    `width` bits (the last one shorter), chunk j holding bits j * width up;
    (0, []) when the span is below _SPLIT_SPAN."""
    if span < _SPLIT_SPAN:
        return 0, []
    width = -(-(span + 1) // 16)
    mask = (1 << width) - 1
    return width, [[plane >> j * width & mask for j in range(16)] for plane in planes]


def _cuts(top: int, p: int) -> Iterator[int]:
    """The cut positions of a fold of bits 0..top onto p bits: each a
    multiple of p in [len/2, len), so a fold keeps every class mod p and
    leaves cut positions."""
    while p <= top:
        cut = -(-(top + 1) // (2 * p)) * p
        yield cut
        top = cut - 1


def _sum(columns: list[list[int]]) -> list[int]:
    """The bit-planes (low plane first) of a sum of multiplicities, where
    column j lists bit-planes of weight 2^j. Each column is reduced to one
    plane by full adders (two planes and a third, or a half adder for the
    last two), whose carries join the next column. Consumes `columns`."""
    j = 0
    while j < len(columns):
        col = columns[j]
        while len(col) > 1:
            a, b = col.pop(), col.pop()
            x = a ^ b
            if col:
                c = col.pop()
                carry = (a & b) | (x & c)
                x ^= c
            else:
                carry = a & b
            col.append(x)
            if carry:
                if j + 1 == len(columns):
                    columns.append([])
                columns[j + 1].append(carry)
        j += 1
    return [col[0] for col in columns]


def _class_counter(vals: list[int]) -> Callable[[int], int]:
    """p -> the number of classes mod p that `vals` occupies (see the module
    docstring)."""
    dense = _planes(vals)
    if dense is None:
        return lambda p: len({v % p for v in vals})
    planes, span = dense
    full = reduce(or_, planes)
    width, split = _split([full], span)

    def count(p: int) -> int:
        bits, top = full, span
        if 4 * p <= width:
            bits = reduce(or_, (chunk << j * width % p for j, chunk in enumerate(split[0])))
            top = width + p - 2
        for cut in _cuts(top, p):
            bits = (bits >> cut) | (bits & ((1 << cut) - 1))
        return bits.bit_count()

    return count


def _sumsq_counter(vals: list[int]) -> Callable[[int], int]:
    """p -> sum_h Z(h)^2 over the classes h mod p (see the module docstring)."""
    dense = _planes(vals)
    if dense is None:
        return lambda p: _occupancy(vals, p)[1]
    initial, span = dense
    width, split = _split(initial, span)

    def sumsq(p: int) -> int:
        planes, top = initial, span
        if 4 * p <= width:
            shifts = [j * width % p for j in range(16)]
            planes = _sum([[chunk << shift for chunk, shift in zip(chunks, shifts)]
                           for chunks in split])
            top = width + p - 2
        for cut in _cuts(top, p):
            low = (1 << cut) - 1
            planes = _sum([[plane & low, plane >> cut] for plane in planes])
        return sum((a & b).bit_count() << (j + k + (j != k))
                   for j, a in enumerate(planes) for k, b in enumerate(planes[:j + 1]))

    return sumsq


@dataclass(frozen=True)
class SieveBoundReport:
    """Evaluated sieve inequality; bound is None when the denominator is
    not positive (the inequality then certifies nothing)."""
    numerator: float
    denominator: float
    bound: float | None
    moduli_used: tuple[int, ...]

    @property
    def unbounded(self) -> bool:
        return self.bound is None


def _check_log_n(log_n: float) -> None:
    if not (math.isfinite(log_n) and log_n > 0):
        raise ValueError(f"log N must be {'finite' if log_n > 0 else 'positive'}, got {log_n}")


def prescribed_cutoff(tau: float, log_n: float) -> float:
    """The cutoff y = (20/tau)^2 (log N)^2 that the paper prescribes."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    try:
        y = (20.0 / tau) ** 2 * log_n * log_n
    except OverflowError:
        y = math.inf
    if not math.isfinite(y):
        raise ValueError(
            f"tau too small: the cutoff (20/tau)^2 (log N)^2 overflows, got {tau}")
    return y


def _plain_term(p: int, nu: float) -> tuple[float, float]:
    lp = math.log(p)
    return lp, lp / nu


def _weighted_term(p: int, sumsq: int, size: int) -> tuple[float, float]:
    lp = math.log(p)
    return lp, lp * sumsq / size**2


def _bounds(log_n: float, terms: Iterable[tuple[float, float]], moduli: Sequence[int],
            cuts: Iterable[int]) -> list[SieveBoundReport]:
    """The bound over the first k moduli for each k in `cuts`. Numerator and
    denominator start at -log N and add the per-prime terms in order."""
    num = den = -log_n
    sums = [(num, den)]
    for dnum, dden in terms:
        num += dnum
        den += dden
        sums.append((num, den))
    reports = []
    for k in cuts:
        num, den = sums[k]
        bound = num / den if den > DENOM_TOL else None
        reports.append(SieveBoundReport(num, den, bound, tuple(moduli[:k])))
    return reports


NU_MODELS: dict[str, Callable[[int], float]] = {
    "five_ceil_sqrt": lambda p: 5 * ceil_two_sqrt(p) + 1,
    "two_sqrt": lambda p: 2 * math.sqrt(p),
    "half_p_plus_one": lambda p: (p + 1) / 2,
}


@dataclass(frozen=True)
class CutoffScan:
    """Grid scan of the sieve bound over prime cutoffs y."""
    rows: tuple[tuple[int, SieveBoundReport], ...]
    best_y: int | None
    best: SieveBoundReport | None


def optimize_cutoff(
    prime_set: PrimeSet,
    nu_model: str | Callable[[int], float],
    log_n: float,
    y_grid: Sequence[int],
    values: Iterable[int] | None = None,
    variant: str = "plain",
) -> CutoffScan:
    """Evaluate the sieve bound at every cutoff in y_grid and report the
    minimal finite one.

    nu_model is `measured` (requires `values`), one of the NU_MODELS names,
    or a callable p -> nu. The weighted variant reads only measured
    occupancies, so it refuses any other nu_model."""
    grid = list(y_grid)
    if not grid or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("y grid must be nonempty and ascending")
    check_table(grid[-1])
    if variant not in ("plain", "weighted"):
        raise ValueError(f"variant must be plain or weighted, got {variant!r}")
    _check_log_n(log_n)

    measured = nu_model == "measured"
    if variant == "weighted" and not measured:
        raise ValueError("the weighted variant needs nu_model 'measured'")
    if measured:
        if values is None:
            raise ValueError("measured profiles need the underlying set")
        vals = list(values)
        if not vals:
            raise ValueError("cannot profile an empty set")
        if variant == "plain":
            nu_of = _class_counter(vals)
        else:
            sumsq_of = _sumsq_counter(vals)
    else:
        nu_of = NU_MODELS[nu_model] if isinstance(nu_model, str) else nu_model

    primes = tuple(prime_set.primes_up_to(grid[-1]))

    def terms():
        for p in primes:
            if variant == "weighted":
                yield _weighted_term(p, sumsq_of(p), len(vals))
            else:
                nu = nu_of(p)
                if nu <= 0:
                    raise ValueError(f"class count must be positive, got {nu}")
                yield _plain_term(p, float(nu))

    cuts = [bisect_right(primes, y) for y in grid]
    rows = tuple(zip(grid, _bounds(log_n, terms(), primes, cuts)))
    best_y, best = min(((y, rep) for y, rep in rows if not rep.unbounded),
                       key=lambda row: row[1].bound, default=(None, None))
    return CutoffScan(rows, best_y, best)
