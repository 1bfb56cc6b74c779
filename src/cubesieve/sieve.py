"""Larger-sieve bound evaluation over primes.

The plain bound certifies, for a set lying in at most nu(p) residue
classes modulo each chosen prime p, that its count up to N is at most

    (-log N + sum log p) / (-log N + sum log p / nu(p))

whenever the denominator is positive. The weighted variant replaces 1/nu
with the normalized second moment sum_h Z(h)^2 / |A|^2 of the occupancy
counts. `optimize_cutoff` evaluates either in one pass: it picks the
per-prime denominator term once, then walks the ascending cutoff grid and
one tuple of the primes up to the last cutoff together, adding log p and
the term to two running sums that start at -log N. Each cutoff reads the
sums it has reached, and its report shares that tuple with a count of the
primes it used, so the scan keeps no per-prime or per-row copy of them.

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
  in one ripple-carry pass (`_fold`: x = lo ^ hi, out = x ^ carry, carry =
  (lo & hi) | (carry & x)), which may add one plane. The folded planes P_j
  give sumsq = sum_j 4^j |P_j| + sum_{j<k} 2^(j+k+1) |P_j & P_k|, an exact int,
  so the bound's floats are those of a per-class count (`_moments`).
- A prime above the span leaves every value in a class of its own: the
  counts are then the number of distinct values and the sum of the squared
  multiplicities, read without a fold.

The first rounds over the whole set cost the most: each builds a mask of
half the set and shifts the other half. So a set at least 2^18 wide
(`_SPLIT_SPAN`) splits its planes once, when the counter is built, into 16
chunks of w = ceil((span + 1) / 16) bits, one extra copy of the planes.
Bit x of chunk j is bit j w + x of the set, in the class of
(j w mod p) + x, so for a prime with p <= 3w the fold starts from the
chunks shifted left by j w mod p into w + p bits. The cuts then finish
from there. A narrower set keeps the whole-set fold, as the split gained
nothing measurable on the squares up to 10^5. So does a prime above 3w:
the split still gains a little up to about 4w, but above that its 16
shifted chunks of w + p bits cost more than the whole-set rounds they save.

- The plain count ORs the shifted chunks.
- The weighted count of a set of distinct values (one plane) splits by
  parity: odd = the XOR and occ = the OR of the shifted chunks, folded as
  the planes [odd, occ ^ odd]. A position that m chunks cover is stored as
  (m mod 2) + 2 [m even, m >= 2], which is m when m <= 2 and at least 2
  too small when m >= 3. Every fold add keeps the total sum_j 2^j |P_j|,
  so the folded planes are exact if and only if that total is |A| on the
  final p-bit planes, where the popcounts are read anyway.
  When it is not, the prime is folded again, at the same cuts, from the
  shifted chunks summed by full adders column by column (`_sum`; the
  carries of one plane join the next), as every prime is for a set with
  repeats.
- About |A|^3 / (6 w^2) positions are expected to hold three values, so
  the parity split is skipped when that exceeds 1. Dense sets such as
  `rfull:2,inert:1,1,1` and `semigroup:class:1,4` up to e^13 fail the
  check at every split prime, where the parity fold would be wasted.

The squares of `sieve-compare` are not measured at all: `square_classes`
gives their class counts in closed form.

A sparser set, such as values near 10**18 from a file, would need a bitset
too large to fold cheaply, or to allocate at all, so both counts reduce
every value mod p instead (|A| interpreted steps per prime), the weighted
one through `_occupancy`'s Counter. The one density rule of 512 is where
both folds still beat that route on random sets (CHANGES.md holds the
timings behind each rule here)."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import or_, xor
from typing import Callable, Iterable, Iterator, Sequence

from .primes import PrimeSet, bitset, ceil_two_sqrt, check_table

DENOM_TOL = 1e-9
_FOLD_DENSITY = 512  # fold a measured set into a bitset when span <= this * |A|
_SPLIT_SPAN = 1 << 18  # split a folded set this wide or wider into 16 chunks


def _occupancy(vals: list[int], modulus: int) -> int:
    """The sum over the classes mod `modulus` of their squared occupancies
    by `vals`."""
    return sum(c * c for c in Counter([v % modulus for v in vals]).values())


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
    distinct = full.bit_count()
    width, split = _split([full], span)

    def count(p: int) -> int:
        if p > span:
            return distinct
        bits, top = full, span
        if p <= 3 * width:
            bits = reduce(or_, (chunk << j * width % p for j, chunk in enumerate(split[0])))
            top = width + p - 2
        for cut in _cuts(top, p):
            bits = (bits >> cut) | (bits & ((1 << cut) - 1))
        return bits.bit_count()

    return count


def _fold(planes: list[int], cuts: list[int]) -> list[int]:
    """The bit-planes of multiplicities folded at each cut in turn: one
    ripple-carry add of the two halves per cut."""
    for cut in cuts:
        low = (1 << cut) - 1
        carry = 0
        added = []
        for plane in planes:
            lo, hi = plane & low, plane >> cut
            x = lo ^ hi
            added.append(x ^ carry)
            carry = (lo & hi) | (carry & x)
        if carry:
            added.append(carry)
        planes = added
    return planes


def _moments(planes: list[int]) -> tuple[int, int]:
    """(sum_h Z(h), sum_h Z(h)^2) of the multiplicities held in `planes`."""
    sizes = [plane.bit_count() for plane in planes]
    square = sum(size << 2 * j for j, size in enumerate(sizes))
    square += sum((a & b).bit_count() << (j + k + 1)
                  for j, a in enumerate(planes) for k, b in enumerate(planes[:j]))
    return sum(size << j for j, size in enumerate(sizes)), square


def _sumsq_counter(vals: list[int]) -> Callable[[int], int]:
    """p -> sum_h Z(h)^2 over the classes h mod p (see the module docstring)."""
    dense = _planes(vals)
    if dense is None:
        return lambda p: _occupancy(vals, p)
    initial, span = dense
    width, split = _split(initial, span)
    whole = _moments(initial)[1]
    # distinct values whose split positions rarely hold three of them
    parity = len(initial) == 1 and len(vals) ** 3 <= 6 * width * width

    def sumsq(p: int) -> int:
        if p > span:
            return whole
        planes, top = initial, span
        if p <= 3 * width:
            top = width + p - 2
            shifted = [[chunk << j * width % p for j, chunk in enumerate(chunks)]
                       for chunks in split]
            if parity:
                odd = reduce(xor, shifted[0])
                planes = [odd, reduce(or_, shifted[0]) ^ odd]
            else:
                planes = _sum(shifted)
        cuts = list(_cuts(top, p))
        total, square = _moments(_fold(planes, cuts))
        if total != len(vals):  # a split position held three values or more
            square = _moments(_fold(_sum(shifted), cuts))[1]
        return square

    return sumsq


@dataclass(frozen=True)
class SieveBoundReport:
    """Evaluated sieve inequality; bound is None when the denominator is
    not positive (the inequality then certifies nothing). It used the first
    `count` of `primes`, a tuple that every report of one scan shares."""
    numerator: float
    denominator: float
    bound: float | None
    primes: tuple[int, ...] = field(repr=False)
    count: int

    @property
    def unbounded(self) -> bool:
        return self.bound is None

    @property
    def moduli_used(self) -> tuple[int, ...]:
        return self.primes[:self.count]


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


NU_MODELS: dict[str, Callable[[int], float]] = {
    "five_ceil_sqrt": lambda p: 5 * ceil_two_sqrt(p) + 1,
    "two_sqrt": lambda p: 2 * math.sqrt(p),
    "half_p_plus_one": lambda p: (p + 1) / 2,
}


def square_classes(m: int, p: int) -> int:
    """The number of classes mod the prime p that the squares a^2,
    1 <= a <= m, occupy: p // 2 + 1 when p <= m, else min(m, p // 2).

    - p <= m: a runs over a full residue system mod p, so the classes are the
      quadratic residues and 0, (p + 1) / 2 of them for odd p and 2 for p = 2.
    - p > m: the m values a are distinct and nonzero mod p. For a < b <= m,
      a^2 = b^2 mod p forces p | b - a or p | a + b, and 0 < b - a < p and
      a + b < 2p leave only a + b = p. Those pairs are a = p - b for
      p - m <= a < p / 2, max(0, m - p // 2) of them, so the count is
      m - max(0, m - p // 2).
    """
    return p // 2 + 1 if p <= m else min(m, p // 2)


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

    if nu_model == "measured":
        if values is None:
            raise ValueError("measured profiles need the underlying set")
        vals = list(values)
        if not vals:
            raise ValueError("cannot profile an empty set")
    elif variant == "weighted":
        raise ValueError("the weighted variant needs nu_model 'measured'")
    if variant == "weighted":
        sumsq_of, size_sq = _sumsq_counter(vals), len(vals) ** 2

        def den_term(p: int, lp: float) -> float:
            return lp * sumsq_of(p) / size_sq
    else:
        if nu_model == "measured":
            nu_of = _class_counter(vals)
        else:
            nu_of = NU_MODELS[nu_model] if isinstance(nu_model, str) else nu_model

        def den_term(p: int, lp: float) -> float:
            nu = nu_of(p)
            if nu <= 0:
                raise ValueError(f"class count must be positive, got {nu}")
            return lp / float(nu)

    primes = tuple(prime_set.primes_up_to(grid[-1]))
    num = den = -log_n
    k = 0
    rows = []
    for y in grid:
        while k < len(primes) and primes[k] <= y:
            p = primes[k]
            lp = math.log(p)
            num += lp
            den += den_term(p, lp)
            k += 1
        bound = num / den if den > DENOM_TOL else None
        rows.append((y, SieveBoundReport(num, den, bound, primes, k)))
    best_y, best = min(((y, rep) for y, rep in rows if not rep.unbounded),
                       key=lambda row: row[1].bound, default=(None, None))
    return CutoffScan(tuple(rows), best_y, best)
