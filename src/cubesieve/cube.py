"""Hilbert cubes: representation, verification against an arithmetic set,
residue-class constraint checks, and maximal-dimension search.

A cube H(a0; a1, ..., ad) is the multiset of the 2^d sums a0 + sum_{i in I}
a_i over subsets I. Subset-sum cubes are the a0 = 0 case; there the empty
sum 0 is exempt from set membership since only the nonzero sums live in
[1, N].

The exact and greedy searches share one bitset core (the codec of
`primes`). The members up to N are one bitset. A search state keeps `fits`,
the bitset of offsets x such that every current sum + x is a member: it
starts at members >> a0, and adding step a sets fits &= fits >> a. The
admissible next steps are the set bits of `fits` at positions >= the least
allowed step `low`, read once by `set_bits(fits >> low, low)`.

The exact search cuts with two admissible bounds. k more steps, each at
least `low`, give k distinct partial sums, each a set bit of `fits >> low`;
so a state whose depth plus that popcount cannot beat the best depth found
is cut (the popcount bound), and so is every candidate past the point where
the untried candidates are too few. Beating the best needs
`need = best + 1 - depth` more steps, each at least the candidate a, so
only candidates with smax + need * a <= N are tried (the step cap; smax is
the current largest sum). The popcount bound counts every admissible step,
not only those under the cap: a capped step can still be a later partial
sum.

The greedy search draws each next step uniformly among the set bits of
`fits >> low` by index (rng.randrange of their count, then the i-th set bit
by bisection), which consumes the same random stream as rng.choice over the
listed candidates, so its results match the list-based search it replaced.

`verify` walks the distinct sums, {a0} grown by S |= S + a per step, not
the 2^d sums with multiplicity that `sums()` lists (and refuses past
d = 30). Sums above the limit are dropped as they appear, keeping only the
least of them, and the rest are tested for membership in ascending order,
so the offender is still the least offending sum. Before building anything
it bounds the sums its walk visits, with at most min(2^j, a1 + ... + aj + 1,
limit - a0 + 1) distinct sums after j steps, and refuses a cube whose bound
passes _MAX_WALK."""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from .arithsets import SetDescriptor, enumerate_members, is_member
from .primes import PrimeSet, bitset, ceil_two_sqrt, check_table, set_bits

_SUMS_CAP = 30
_MAX_WALK = 1 << 22  # sums a verify walk may visit; at the cap about 230 MB and 5 s
_RESTARTS = 40  # greedy restarts per search
DEFAULT_BUDGET = 10**8  # exact-search nodes when no budget is given


@dataclass(frozen=True)
class HilbertCube:
    """Base a0 plus a sorted step multiset; dimension = number of steps."""
    a0: int
    steps: tuple[int, ...]
    distinct_required: bool = False

    def __post_init__(self):
        if self.a0 < 0:
            raise ValueError(f"base must be non-negative, got {self.a0}")
        steps = tuple(sorted(int(s) for s in self.steps))
        if any(s < 1 for s in steps):
            raise ValueError("steps must be positive integers")
        if self.distinct_required and any(
            steps[i] == steps[i + 1] for i in range(len(steps) - 1)
        ):
            raise ValueError("steps must be strictly increasing when distinctness is required")
        object.__setattr__(self, "steps", steps)

    @property
    def dimension(self) -> int:
        return len(self.steps)

    def sums(self) -> list[int]:
        """All 2^d subset sums, ascending, with multiplicity."""
        if self.dimension > _SUMS_CAP:
            raise ValueError(f"refusing to enumerate 2^{self.dimension} sums (cap {_SUMS_CAP})")
        out = [self.a0]
        for a in self.steps:
            out += [s + a for s in out]
        out.sort()
        return out

    def describe(self) -> str:
        return f"H({self.a0};{'+'.join(str(s) for s in self.steps)})"


def _walk_bound(cube: HilbertCube, top: int) -> int:
    """An upper bound on the sums `verify` visits, stopping once it passes
    _MAX_WALK: after each distinct step value there are at most min(2^j,
    a1 + ... + aj + 1, top - a0 + 1) distinct sums in [a0, top], j steps in."""
    span = max(top - cube.a0 + 1, 1)
    total, prefix = 1, 0
    for j, a in enumerate(cube.steps, 1):
        prefix += a
        if j == cube.dimension or cube.steps[j] != a:
            total += min(1 << min(j, 62), prefix + 1, span)
            if total > _MAX_WALK:
                break
    return total


def verify(cube: HilbertCube, s: SetDescriptor, limit: int) -> tuple[bool, int | None]:
    """True iff every sum lies in s intersected with [1, limit]; the empty
    sum 0 of a subset-sum cube (a0 = 0) is exempt. Returns the least
    offending sum on failure, independently of any search state: only
    `is_member` is consulted, once per distinct sum up to the limit.

    The walk over distinct sums is the module docstring's; a step value
    repeated m times extends only the sums its previous copy added. A cube
    whose walk could visit more than _MAX_WALK sums (bounded up front by
    _walk_bound) is refused with ValueError before anything is built."""
    top = max(limit, 0)  # keeps the exempt empty sum 0 in the walk
    if _walk_bound(cube, top) > _MAX_WALK:
        raise ValueError(f"refusing to verify a cube of dimension {cube.dimension}: "
                         f"its sums may exceed {_MAX_WALK} (the verify walk cap)")
    if cube.a0 > top:
        return False, cube.a0
    sums, least_over = {cube.a0}, math.inf
    for i, a in enumerate(cube.steps):
        frontier = sums if i == 0 or cube.steps[i - 1] != a else fresh
        fresh = {v + a for v in frontier}
        over = {v for v in fresh if v > top}
        if over:
            least_over = min(least_over, min(over))
            fresh -= over
        fresh -= sums
        sums |= fresh
    for v in sorted(sums):
        if v != 0 and not is_member(s, v):  # 0 is a sum only as the exempt one
            return False, v
    return (True, None) if least_over == math.inf else (False, least_over)


@dataclass(frozen=True)
class ResidueCheckRow:
    p: int
    residues: int
    bound: float
    ok: bool


@dataclass(frozen=True)
class ResidueCheckReport:
    rule: str
    rows: tuple[ResidueCheckRow, ...]

    @property
    def violations(self) -> tuple[ResidueCheckRow, ...]:
        return tuple(r for r in self.rows if not r.ok)


def residue_constraint_check(
    cube: HilbertCube,
    prime_set: PrimeSet,
    y: int,
    rule: str = "rfull",
) -> ResidueCheckReport:
    """Count the residue classes hit by the steps modulo each prime of the
    set up to y and compare with the applicable local bound.

    rule `rfull` (cube verified in an r-full set, any r >= 2): a cube whose
    steps span 5*ceil(2*sqrt(p)) + 2 classes contains an element divisible
    by p but not p^2, so the count must stay <= 5*ceil(2*sqrt(p)) + 1.
    rule `semigroup` (primes outside the semigroup's prime set): spanning
    more than 2*sqrt(p) classes forces an element divisible by p, so the
    count must stay <= 2*sqrt(p). Any violation is a reportable
    counterexample."""
    if rule not in ("rfull", "semigroup"):
        raise ValueError(f"rule must be rfull or semigroup, got {rule!r}")
    rows = []
    for p in prime_set.primes_up_to(y):
        count = len({a % p for a in cube.steps})
        bound = 5 * ceil_two_sqrt(p) + 1 if rule == "rfull" else 2 * math.sqrt(p)
        rows.append(ResidueCheckRow(p, count, bound, count <= bound))
    return ResidueCheckReport(rule, tuple(rows))


@dataclass(frozen=True)
class CubeSearchResult:
    """best_dimension is -1 with witness None when the set has no member in
    [1, limit] (no admissible base point). `exact` is False when the node
    budget ran out, in which case the result is a certified lower bound and
    mode degrades to `greedy`. `nodes_expanded` counts members scanned as
    candidate sums: each state the search enters is charged one node for
    every member from smax + low upward (the current largest sum plus the
    least admissible step). The exact search charges only the states that
    pass its popcount bound; a state the bound cuts costs nothing."""
    limit: int
    descriptor: str
    mode: str
    best_dimension: int
    witness: HilbertCube | None
    nodes_expanded: int
    exact: bool
    subset_sum_mode: bool


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")


def _members(s: SetDescriptor, limit: int) -> tuple[list[int], int]:
    """The members of s up to the limit and their bitset. The bitset needs
    limit/8 bytes, so a limit past 10**8 is refused before anything is
    enumerated."""
    check_table(limit, "the cube search bitset")
    members = enumerate_members(s, limit)
    return members, bitset(members, members[-1] if members else 0)


def _low(steps: list[int], distinct: bool) -> int:
    """The least allowed next step: 1 for the first step, otherwise the last
    step, plus one under `distinct`."""
    return (steps[-1] + 1 if distinct else steps[-1]) if steps else 1


def _nth_bit(x: int, i: int) -> int:
    """The position of the i-th set bit of x, counting from bit 0 and i from
    0: the least k with more than i set bits in x mod 2^(k+1), found by
    bisection in O(log x) big-int operations."""
    lo, hi = 0, x.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (x & ((2 << mid) - 1)).bit_count() > i:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _result(s: SetDescriptor, limit: int, best, nodes: int, exact: bool,
            subset_sum_mode: bool, distinct: bool) -> CubeSearchResult:
    witness = HilbertCube(best[0], best[1], distinct) if best else None
    return CubeSearchResult(limit, s.describe(), "exact" if exact else "greedy",
                            witness.dimension if witness else -1, witness, nodes,
                            exact, subset_sum_mode)


def max_dimension_exact(
    s: SetDescriptor,
    limit: int,
    subset_sum_mode: bool = False,
    distinct: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> CubeSearchResult:
    """Exhaustive depth-first branch and bound for the largest cube dimension.

    States are (a0, a1 <= a2 <= ... ) with candidates generated as
    differences member - (current largest sum); every new sum must land in
    the member set. The popcount bound and the step cap (module docstring)
    only cut states that cannot beat the best depth found so far. The first
    witness found at each new depth is kept, so the reported witness is the
    lexicographically least maximal one (by (a0, steps)) whenever the search
    completes. Budget exhaustion is reported, never silent; a negative
    budget is refused."""
    _check_budget(budget)
    members, bits = _members(s, limit)
    best, best_d, nodes, exhausted = None, -1, 0, False

    def extend(a0: int, smax: int, fits: int, steps: list[int]):
        nonlocal best, best_d, nodes, exhausted
        depth = len(steps)
        if depth > best_d:
            best, best_d = (a0, tuple(steps)), depth
        low = _low(steps, distinct)
        rest = fits >> low
        avail = rest.bit_count()
        if depth + avail <= best_d:
            return
        nodes += len(members) - bisect_left(members, smax + low)
        if nodes > budget:
            nodes, exhausted = budget + 1, True
            return
        cap = (limit - smax) // (best_d + 1 - depth)
        for i, a in enumerate(set_bits(rest & ((1 << max(cap - low + 1, 0)) - 1), low)):
            if depth + avail - i <= best_d or smax + (best_d + 1 - depth) * a > limit:
                return
            steps.append(a)
            extend(a0, smax + a, fits & (fits >> a), steps)
            steps.pop()
            if exhausted:
                return

    for a0 in [0] if subset_sum_mode else members:
        if exhausted:
            break
        extend(a0, a0, bits >> a0, [])
    return _result(s, limit, best, nodes, not exhausted, subset_sum_mode, distinct)


def max_dimension_greedy(
    s: SetDescriptor,
    limit: int,
    subset_sum_mode: bool = False,
    seed: int = 0,
    distinct: bool = False,
) -> CubeSearchResult:
    """Randomized greedy extension with restarts; a certified lower bound.

    Deterministic for a fixed seed. The best cube over all restarts is
    returned (first achiever wins ties). Each next step is drawn uniformly
    from the admissible ones, the set bits of `fits >> low`, by index: the
    popcount n, then i = rng.randrange(n), then the i-th set bit by
    bisection, without listing the candidates. CPython's rng.choice(seq)
    is seq[rng._randbelow(len(seq))] and rng.randrange(n) is
    rng._randbelow(n), so this draws the same random stream and picks the
    same steps as choosing from the ascending candidate list."""
    members, bits = _members(s, limit)
    rng = random.Random(seed)
    best, nodes = None, 0
    bases = [0] if subset_sum_mode else members
    for _ in range(_RESTARTS if bases else 0):
        a0 = rng.choice(bases)
        smax, fits, steps = a0, bits >> a0, []
        while True:
            low = _low(steps, distinct)
            nodes += len(members) - bisect_left(members, smax + low)
            rest = fits >> low
            count = rest.bit_count()
            if not count:
                break
            a = low + _nth_bit(rest, rng.randrange(count))
            smax, fits = smax + a, fits & (fits >> a)
            steps.append(a)
        if best is None or len(steps) > len(best[1]):
            best = (a0, tuple(steps))
    return _result(s, limit, best, nodes, False, subset_sum_mode, distinct)


def max_homogeneous_ap(s: SetDescriptor, limit: int) -> tuple[int, int | None]:
    """Longest homogeneous progression s, 2s, ..., Ls inside the set up to
    the limit; returns (L, least step s achieving it), (0, None) if the set
    has no member in range."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    check_table(limit, "the progression scan")
    member_set = set(enumerate_members(s, limit))
    best_len = 0
    best_step = None
    step = 1
    while step <= limit and step * (best_len + 1) <= limit:
        k = 1
        while k * step <= limit and k * step in member_set:
            k += 1
        if k - 1 > best_len:
            best_len = k - 1
            best_step = step
        step += 1
    return best_len, best_step
