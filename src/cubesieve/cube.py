"""Hilbert cubes: representation, verification against an arithmetic set,
residue-class constraint checks, and maximal-dimension search.

A cube H(a0; a1, ..., ad) is the multiset of the 2^d sums a0 + sum_{i in I}
a_i over subsets I. Subset-sum cubes are the a0 = 0 case; there the empty
sum 0 is exempt from set membership since only the nonzero sums live in
[1, N].

A search state keeps the offsets x such that every current sum + x is a
member; adding step a keeps the x with x + a also kept. The admissible next
steps are the kept offsets from the least allowed step `low` on. The exact
search holds these offsets in one of two ways, picked once per search by the
rule span > _PAIR_DENSITY * |A| (span = largest - least member):

- Bitsets, for dense sets (and always in the greedy search). The members
  up to N are one bitset (the codec of `primes`). `fits` starts at
  members >> a0, adding step a sets fits &= fits >> a, and the admissible
  steps are the set bits of `fits >> low`. A listing masks them to the
  steps under the step cap, which narrows every later operation, and reads
  them one at a time, lowest set bit first (x & -x, then x ^= that bit),
  until the index cut or the step cap stops it: a dense state has only a
  few candidates, so this costs a few big-int operations, not a string of
  one character per bit. Each state costs O(N) bits, however few offsets
  it keeps, so this way refuses N past 10**8 before it builds the bitset.
- Pair lists, for sparse sets. A state is the ascending list of the sums
  y = a0 + x, kept only from a0 + low on, since low never decreases. The
  step-a child keeps the v in the list from a0 + a + gap on (gap = 1 under
  `distinct`, else 0) with v + a also in it. A base's children come from
  the pair table: P[a] lists the members y with y + a a member and
  y >= a + gap, so the step-a child of base a0 is P[a] from a0 + a + gap
  on, found and counted by one bisection. The table is built only when the
  search runs from every member as a base, and only for the steps
  a <= limit // d that the step cap lets a base child take once the floor
  below has dimension d. Its entries are counted first, one bisection per
  member, and past _MAX_PAIRS the search builds no table and lists each
  base's children from the member set, as it does deeper down; without the
  table a base listing does O(|A|) uncharged work per candidate step, so
  this refuses N past 10**8. Once built, the table keeps only the steps a
  with at least d - 1 entries, the floor's best depth: the step-a base
  child keeps at most len(P[a]) sums, it needs the best depth of them, and
  the best depth only rises. A subset-sum search has the one base 0, so it
  builds each child when it needs it, as it does deeper down.

Both ways list the same steps in the same order and charge the same nodes,
so they return equal results. Three things keep the states that lead
nowhere cheap:

- (a) A listing yields only the viable children, those the popcount bound
  below lets through. Each candidate is still tested at its position i
  among all candidates, so the early cut (too few untried candidates) falls
  where a full listing puts it. A pair listing below the base stops once
  the slice of sums the step-a child could keep is shorter than the
  popcount that child needs, since the slice only shrinks as a grows.
  A base listing drops up front, in one comprehension, each candidate
  a0 + a whose child could not pass for the best depth d so far: P[a] has
  fewer than d entries, or P[a][-d] < a0 + a + gap, both read directly
  from the table.
- (b) The search charges a state it enters one node for every member from
  smax + low upward (its largest sum plus its least admissible step), and
  nothing for a state the popcount bound cuts. On the pair-list route a
  viable child below the best depth is probed before it is entered. The
  probe walks the child's candidates under the cuts its own listing would
  make (the index cut, the step cap and the slice cut of (a)), counts each
  grandchild's kept sums only until it has the popcount that grandchild
  needs or too few are left, and stops at the first viable grandchild. It
  charges no nodes. A child it finds dead is not entered: it is charged
  what entering it would charge, at its smax + low = (smax + a) + (a + gap),
  the budget is checked as on entry, and the listing moves on. So a probe
  that is too eager only costs time, since an entered dead child is charged
  the same and its listing yields nothing; only a probe that is too strict
  could change a result. The step-a child keeps v iff v and v + a are sums
  of its parent, so the probe tests against the parent's set (the member
  set for a base's child).
- (c) The search runs from an explicit stack of frames, one per state on
  the current path, each holding the state's largest sum and the listing
  of its children, so a deep cube does not meet Python's recursion limit.

The exact search cuts with two admissible bounds. k more steps, each at
least `low`, give k distinct partial sums, each a kept offset from `low` on;
so a state whose depth plus the count of those offsets (its popcount)
cannot beat the best depth found is cut (the popcount bound), and so is
every candidate past the point where the untried candidates are too few.
Beating the best needs `need = best + 1 - depth` more steps, each at least
the candidate a, so only candidates with smax + need * a <= N are tried
(the step cap; smax is the current largest sum). The popcount bound counts
every admissible step, not only those under the cap: a capped step can
still be a later partial sum.

Every exact search but a distinct one starts from a floor: the longest
homogeneous progression s, 2s, ..., Ls among the members (the least s on
ties), which is the cube H(s; s x (L - 1)), or H(0; s x L) in subset-sum
mode. The search starts with that cube as its best and with the best depth
one below its dimension, so it cuts only states that cannot reach the
floor. It still keeps the first witness it finds at each new depth, so a
complete search returns the same lexicographically least witness as from
nothing, in fewer nodes; one that runs out of budget returns the floor
unless it found a cube at least as large. A distinct search gets no floor,
since the progression repeats its step.

The greedy search draws each next step uniformly among the set bits of
`fits >> low` by index (rng.randrange of their count, then the i-th set bit
by halving: `_nth_bit`), which consumes the same random stream as
rng.choice over the listed candidates, so its results match the list-based
search it replaced.

`verify` walks the distinct sums, {a0} grown by S |= S + a per step, not
the 2^d sums with multiplicity that `sums()` lists (and refuses past
d = 30). Sums above the limit are dropped as they appear, keeping only the
least of them, and the rest are tested for membership in ascending order,
so the offender is still the least offending sum. Before building anything
it bounds the sums its walk visits, with at most min(prod (m_i + 1),
a1 + ... + aj + 1, limit - a0 + 1) distinct sums after j steps (m_i the
multiplicities of the step values so far), and refuses a cube whose bound
passes _MAX_WALK."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass

from .arithsets import SetDescriptor, enumerate_members, is_member
from .primes import PrimeSet, bitset, ceil_two_sqrt, check_table

_SUMS_CAP = 30
_MAX_WALK = 1 << 22  # sums a verify walk may visit; at the cap about 230 MB and 5 s
_RESTARTS = 40  # greedy restarts per search
DEFAULT_BUDGET = 10**8  # exact-search nodes when no budget is given
_PAIR_DENSITY = 16  # exact search by pair lists when the member span > this * |A|
_MAX_PAIRS = 1 << 20  # pair-table entries, at 65-110 bytes each; past it, no table


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
    _MAX_WALK: after each distinct step value, j steps in, there are at most
    min(c (m + 1), a1 + ... + aj + 1, top - a0 + 1) distinct sums in
    [a0, top], where c bounds them before the value and m is its
    multiplicity. So a repeated step counts m + 1, not 2^m."""
    span = max(top - cube.a0 + 1, 1)
    total = count = 1
    prefix = first = 0
    for j, a in enumerate(cube.steps, 1):
        prefix += a
        if j == cube.dimension or cube.steps[j] != a:
            count = min(count * (j - first + 1), prefix + 1, span)
            total += count
            first = j
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


def residue_constraint_check(
    cube: HilbertCube,
    prime_set: PrimeSet,
    y: int,
    rule: str = "rfull",
) -> tuple[ResidueCheckRow, ...]:
    """Count the residue classes hit by the steps modulo each prime of the
    set up to y and compare with the applicable local bound, one row per
    prime.

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
    return tuple(rows)


@dataclass(frozen=True)
class CubeSearchResult:
    """best_dimension is -1 with witness None when the set has no member in
    [1, limit] (no admissible base point). `exact` is False when the node
    budget ran out, in which case the result is a certified lower bound and
    mode degrades to `greedy`. The witness is then the search's floor
    (module docstring) unless the search reached a cube at least as large,
    so `greedy` also marks a result the floor won. `nodes_expanded` counts
    members scanned as candidate sums, charged as item (b) of the module
    docstring sets out. The search's two routes (bitsets, or pair lists when
    span > _PAIR_DENSITY * |A|, with or without the pair table; module
    docstring) start from the same floor and charge the same nodes, so every
    field is the same on both, also when the budget runs out."""
    limit: int
    mode: str
    best_dimension: int
    witness: HilbertCube | None
    nodes_expanded: int
    exact: bool


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")


def _bits(members: list[int]) -> int:
    return bitset(members, members[-1] if members else 0)


def _pair_table(members: list[int], gap: int, top: int,
                limit: int) -> dict[int, list[int]] | None:
    """The exact search's route (module docstring): None for bitsets, else
    the pair table. P[a] lists, ascending, the members y with y + a a member
    and y >= a + gap, for the steps a <= top that a base child can take; a
    search from one base passes top = 0 and keeps the table empty. A member
    z pairs with the members y < z from max((z + gap + 1) // 2, z - top) on,
    so the entries are counted with one bisection per member before any is
    built. Past _MAX_PAIRS entries the table is empty, and a limit past
    10**8 is refused."""
    if not members or members[-1] - members[0] <= _PAIR_DENSITY * len(members):
        return None
    firsts = [bisect_left(members, max((z + gap + 1) // 2, z - top), 0, j)
              for j, z in enumerate(members)]
    if sum(j - f for j, f in enumerate(firsts)) > _MAX_PAIRS:
        check_table(limit, "the cube search without its pair table")
        return {}
    table = defaultdict(list)
    for j, z in enumerate(members):
        for y in members[firsts[j]:j]:
            table[z - y].append(y)
    return table


def _homogeneous_ap(members: list[int], limit: int) -> tuple[int, int | None]:
    """The longest progression s, 2s, ..., Ls among the ascending members
    up to the limit, as (L, least s achieving it); (0, None) without
    members. s runs over the members while s * (L + 1) <= limit; a step is
    tested for L + 1 terms from the top down, where a miss is likeliest,
    and only one that passes is extended. Membership is a bisection of the
    member list, so no table is built."""
    def member(v: int) -> bool:
        i = bisect_left(members, v)
        return i < len(members) and members[i] == v

    best_len, best_step = 0, None
    for step in members:
        k = best_len + 1
        if step * k > limit:
            break
        while k > 1 and member(k * step):
            k -= 1
        if k == 1:  # step, 2 step, ..., (best_len + 1) step are all members
            k = best_len + 1
            while member((k + 1) * step):
                k += 1
            best_len, best_step = k, step
    return best_len, best_step


def _low(steps: list[int], distinct: bool) -> int:
    """The least allowed next step: 1 for the first step, otherwise the last
    step, plus one under `distinct`."""
    return (steps[-1] + 1 if distinct else steps[-1]) if steps else 1


def _nth_bit(x: int, i: int) -> int:
    """The position of the i-th set bit of x, counting from bit 0 and i from
    0, for 0 <= i < x.bit_count(). Each step halves x: it keeps the low half
    when that holds more than i set bits, else drops it and counts its bits
    off i. The halves shrink geometrically, so an n-bit x costs O(n) digit
    work, where a bisection with a full-width mask at each of its log n
    steps costs O(n log n)."""
    pos = 0
    while (width := x.bit_length()) > 1:
        half = width >> 1
        low = x & ((1 << half) - 1)
        count = low.bit_count()
        if count > i:
            x = low
        else:
            x >>= half
            pos += half
            i -= count
    return pos


def _result(limit: int, best, nodes: int, exact: bool, distinct: bool) -> CubeSearchResult:
    witness = HilbertCube(best[0], best[1], distinct) if best else None
    return CubeSearchResult(limit, "exact" if exact else "greedy",
                            witness.dimension if witness else -1, witness, nodes, exact)


def max_dimension_exact(
    s: SetDescriptor,
    limit: int,
    subset_sum_mode: bool = False,
    distinct: bool = False,
    budget: int = DEFAULT_BUDGET,
    members: list[int] | None = None,
) -> CubeSearchResult:
    """Exhaustive depth-first branch and bound for the largest cube dimension.

    States are (a0, a1 <= a2 <= ... ) with candidates generated as
    differences member - (current largest sum); every new sum must land in
    the member set. The popcount bound and the step cap (module docstring)
    only cut states that cannot beat the best depth so far, which starts
    one below the dimension of the floor (module docstring). The first
    witness found at each new depth is kept, so the reported witness is the
    lexicographically least maximal one (by (a0, steps)) whenever the search
    completes. Budget exhaustion is reported, never silent; a negative
    budget is refused.

    `children` lists a state's viable children (module docstring) up to
    the step cap, each as its step, its state and its popcount; on the
    pair-list route it settles the dead ones itself, asking `alive`, the
    probe of (b). A pair-list state is
    (values, k), standing for the sums values[k:]. `frames` is the stack of
    the states entered on the current path, `steps` their steps.

    `members` is `enumerate_members(s, limit)` when the caller has listed it
    already; the search only reads it."""
    _check_budget(budget)
    if members is None:
        members = enumerate_members(s, limit)
    gap = 1 if distinct else 0
    length, step = (0, None) if distinct else _homogeneous_ap(members, limit)
    if not length:
        best = None
    elif subset_sum_mode:
        best = (0, (step,) * length)
    else:
        best = (step, (step,) * (length - 1))
    best_d = len(best[1]) - 1 if best else -1
    # a base child a can beat best_d, which is >= 0 once a base is entered,
    # only if a0 + (best_d + 1) * a <= limit
    pairs = _pair_table(members, gap, 0 if subset_sum_mode else limit // max(best_d + 1, 1),
                        limit)
    # a step-a base child keeps at most len(P[a]) sums and needs best_d, which only rises
    if pairs and best_d > 0:
        pairs = {a: ys for a, ys in pairs.items() if len(ys) >= best_d}
    if pairs is None:
        check_table(limit, "the cube search bitset")
        bits, member_set = _bits(members), None
    else:
        bits, member_set = 0, set(members)
    nodes = 0

    def bit_children(a0, smax, fits, depth, avail, low):
        cap = (limit - smax) // (best_d + 1 - depth)
        rest, i = (fits >> low) & ((1 << max(cap - low + 1, 0)) - 1), 0
        while rest:
            bit = rest & -rest  # primes.low_bits inlined; as a generator it is slower
            rest ^= bit
            a = low + bit.bit_length() - 1
            if depth + avail - i <= best_d or smax + (best_d + 1 - depth) * a > limit:
                return
            i += 1
            sub = fits & (fits >> a)
            sub_avail = (sub >> (a + gap)).bit_count()
            if depth + 1 + sub_avail > best_d:  # else the popcount bound cuts it
                yield a, sub, sub_avail

    def alive(a0, smax, values, k, depth, parent, b):
        # (b)'s probe: whether the listing of the pair-list state (values, k)
        # would yield a child. v is a sum of the state iff v and v + b are in
        # `parent`, a set holding the sums of the state's parent
        need = best_d - depth
        stop = min(bisect_right(values, a0 + (limit - smax) // (need + 1), k),
                   depth + len(values) - best_d)  # the step cap and the index cut
        if not need:
            return stop > k
        for i in range(k, stop):
            a = values[i] - a0
            hi = bisect_right(values, values[-1] - a, i)
            spare = hi - i - gap - need  # misses the child can still afford
            if spare < 0:
                return False
            kept, ab = 0, a + b
            for v in values[i + gap:hi]:
                if v + a in parent and v + ab in parent:
                    kept += 1
                    if kept == need:
                        return True
                elif spare:
                    spare -= 1
                else:
                    break
        return False

    def list_children(a0, smax, state, depth, avail, low):
        nonlocal nodes
        values, k = state
        stop = bisect_right(values, a0 + (limit - smax) // (best_d + 1 - depth), k)
        have = None
        listed = range(k, stop)
        if depth == 0 and pairs and best_d > 0:
            # drop up front the base children the loop would skip as too short
            listed = [i for i in listed if len(ys := pairs.get(values[i] - a0, ())) >= best_d
                      and ys[-best_d] >= values[i] + gap]
        for i in listed:
            a = values[i] - a0
            if depth + avail - (i - k) <= best_d or smax + (best_d + 1 - depth) * a > limit:
                return
            need = best_d - depth  # the child's popcount must reach this
            if depth == 0 and pairs:  # a base's children; with no table, as deeper down
                sub = pairs.get(a, ())
                j = bisect_left(sub, values[i] + gap)
            else:
                hi = bisect_right(values, values[-1] - a, i)
                if need and hi - i - gap < need:  # hi - i only shrinks as a grows
                    return
                if have is None:
                    have = set(values[k:])
                sub = [v for v in values[i + gap:hi] if v + a in have]
                j = 0
            if len(sub) - j < need:
                continue
            if need:
                if not alive(a0, smax + a, sub, j, depth + 1, have if depth else member_set, a):
                    # (b) no viable grandchild: charge the child as entering it
                    # would, at its smax + low = (smax + a) + (a + gap)
                    nodes += len(members) - bisect_left(members, smax + 2 * a + gap)
                    if nodes > budget:
                        return
                    continue
            yield a, (sub, j), len(sub) - j

    children = bit_children if pairs is None else list_children
    steps: list[int] = []
    for a0 in [0] if subset_sum_mode else members:
        k = bisect_right(members, a0)
        smax, state, avail = a0, bits >> a0 if pairs is None else (members, k), len(members) - k
        frames = []  # (smax, children) of each state entered on the path
        while True:
            depth = len(steps)
            if depth > best_d:
                best, best_d = (a0, tuple(steps)), depth
            if depth + avail > best_d:
                low = _low(steps, distinct)
                nodes += len(members) - bisect_left(members, smax + low)
                if nodes > budget:
                    break
                frames.append((smax, children(a0, smax, state, depth, avail, low)))
            elif steps:
                steps.pop()
            child = None
            while frames:
                smax, listing = frames[-1]
                child = next(listing, None)
                if child is not None or nodes > budget:  # (b) may end a listing there
                    break
                frames.pop()
                if frames:
                    steps.pop()
            if child is None:
                break
            a, state, avail = child
            smax += a
            steps.append(a)
        if nodes > budget:
            break
    return _result(limit, best, min(nodes, budget + 1), nodes <= budget, distinct)


def max_dimension_greedy(
    s: SetDescriptor,
    limit: int,
    subset_sum_mode: bool = False,
    seed: int = 0,
    distinct: bool = False,
    members: list[int] | None = None,
) -> CubeSearchResult:
    """Randomized greedy extension with restarts; a certified lower bound.

    Deterministic for a fixed seed. The best cube over all restarts is
    returned (first achiever wins ties). Each next step is drawn uniformly
    from the admissible ones, the set bits of `fits >> low`, by index: the
    popcount n, then i = rng.randrange(n), then the i-th set bit by halving
    (`_nth_bit`), without listing the candidates. CPython's rng.choice(seq)
    is seq[rng._randbelow(len(seq))] and rng.randrange(n) is
    rng._randbelow(n), so this draws the same random stream and picks the
    same steps as choosing from the ascending candidate list. `members` is
    read as in `max_dimension_exact`. It always holds the bitset, so a limit
    past 10**8 is refused before anything is enumerated."""
    check_table(limit, "the cube search bitset")
    if members is None:
        members = enumerate_members(s, limit)
    bits = _bits(members)
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
    return _result(limit, best, nodes, False, distinct)


def max_homogeneous_ap(s: SetDescriptor, limit: int) -> tuple[int, int | None]:
    """Longest homogeneous progression s, 2s, ..., Ls inside the set up to
    the limit; returns (L, least step s achieving it), (0, None) if the set
    has no member in range. It is the exact search's floor, found by
    `_homogeneous_ap` over the listed members. It builds no table of its
    own, so the only size guard is the set's enumeration guard."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return _homogeneous_ap(enumerate_members(s, limit), limit)
