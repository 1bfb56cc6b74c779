"""Sunflower search in set families, representation counts of subset sums,
and homogeneous-AP extraction.

A sunflower with v petals is a subfamily whose pairwise intersections all
equal the intersection of the whole subfamily (the kernel). Discarding the
kernel leaves pairwise disjoint remainders; when those have equal sums s,
unions of 0..v-1 of them realize the progression 0, s, ..., (v-1)s inside
the subset-sum cube of the underlying step set."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

_EXACT_CAP = 25


@dataclass(frozen=True)
class SetFamily:
    """Pairwise distinct finite integer sets, each of size <= h."""
    sets: tuple[frozenset[int], ...]
    h: int

    def __post_init__(self):
        if len(set(self.sets)) != len(self.sets):
            raise ValueError("family sets must be pairwise distinct")
        if any(len(s) > self.h for s in self.sets):
            raise ValueError(f"family contains a set larger than h = {self.h}")

    @classmethod
    def from_iterables(cls, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """The family of the given sets, with h their largest size."""
        frozen = tuple(frozenset(int(x) for x in s) for s in sets)
        return cls(frozen, max((len(s) for s in frozen), default=0))


@dataclass(frozen=True)
class SunflowerWitness:
    kernel: frozenset[int]
    petal_indices: tuple[int, ...]

    def validate(self, family: SetFamily) -> bool:
        """Re-check v >= 3 and pairwise-intersection-equals-kernel from scratch."""
        idx = self.petal_indices
        if len(idx) < 3 or len(set(idx)) != len(idx):
            return False
        if any(not 0 <= i < len(family.sets) for i in idx):
            return False
        petals = [family.sets[i] for i in idx]
        kern = frozenset.intersection(*petals)
        if kern != self.kernel:
            return False
        return all(a & b == kern for a, b in itertools.combinations(petals, 2))


def find_sunflower(family: SetFamily, v: int, mode: str = "greedy") -> SunflowerWitness | None:
    """Find a sunflower with v petals.

    `exact` searches all v-subfamilies (capped at 25 sets) and returns the
    lexicographically least index tuple; None there is a proof of absence.
    `greedy` runs the Erdos-Rado recursion (maximal disjoint subfamily, else
    recurse on the most popular element); None from greedy is
    inconclusive."""
    if v < 3:
        raise ValueError(f"need at least 3 petals, got {v}")
    sets = family.sets
    if mode == "exact":
        if len(sets) > _EXACT_CAP:
            raise ValueError(f"exact mode capped at {_EXACT_CAP} sets, got {len(sets)}")
        return _exact_sunflower(sets, v)
    if mode != "greedy":
        raise ValueError(f"mode must be exact or greedy, got {mode!r}")
    res = _greedy_sunflower(list(enumerate(sets)), v)
    if res is None:
        return None
    kernel, ids = res
    return SunflowerWitness(kernel, tuple(sorted(ids)))


def _exact_sunflower(sets: tuple[frozenset[int], ...], v: int) -> SunflowerWitness | None:
    """The sunflower whose ascending petal indices come first among all
    v-subsets, or None. Pairwise intersections that all equal the first
    pair's make that intersection the kernel, so the search fixes the kernel
    from the first two indices and extends, in ascending order, only by a
    set that meets every chosen set exactly in it. A prefix that fails is
    dropped once, not once per completion."""
    def extend(chosen: tuple[int, ...], kern: frozenset[int], pool: list[int]):
        if len(chosen) == v:
            return SunflowerWitness(kern, chosen)
        for n, j in enumerate(pool):
            if len(pool) - n < v - len(chosen):
                break
            rest = [c for c in pool[n + 1:] if sets[c] & sets[j] == kern]
            found = extend(chosen + (j,), kern, rest)
            if found:
                return found
        return None

    count = len(sets)
    for i in range(count - v + 1):
        for j in range(i + 1, count - v + 2):
            kern = sets[i] & sets[j]
            rest = [c for c in range(j + 1, count)
                    if sets[c] & sets[i] == kern and sets[c] & sets[j] == kern]
            found = extend((i, j), kern, rest)
            if found:
                return found
    return None


def _greedy_sunflower(items: list[tuple[int, frozenset[int]]], v: int):
    chosen: list[int] = []
    used: set[int] = set()
    for idx, s in items:
        if used.isdisjoint(s):
            chosen.append(idx)
            used |= s
            if len(chosen) == v:
                return frozenset(), chosen
    if not used:
        return None
    counts = {x: 0 for x in used}
    for _, s in items:
        for x in s:
            if x in counts:
                counts[x] += 1
    x = max(sorted(counts), key=counts.get)  # most popular, ties to smallest
    link = [(idx, s - {x}) for idx, s in items if x in s]
    sub = _greedy_sunflower(link, v)
    if sub is None:
        return None
    kernel, ids = sub
    return kernel | {x}, ids


def sunflower_threshold(h: int, v: int) -> int:
    """Reference family size ceil((v*log h)^h) above which a sunflower with
    v petals is guaranteed, taking the guarantee's unspecified absolute
    constant as 1; h = 1 degenerates to v (any v distinct singletons form
    one)."""
    if h < 1 or v < 3:
        raise ValueError(f"need h >= 1 and v >= 3, got ({h}, {v})")
    if h == 1:
        return v
    return math.ceil((v * math.log(h)) ** h)


def rep_count_g(steps: Iterable[int], h: int, limit: int) -> tuple[int, int | None]:
    """Maximum number of h-element subsets of `steps` (distinct elements,
    unordered) sharing one sum <= limit, plus the least extremal target.

    Returns (0, None) when no h-subset sums within the limit."""
    vals = sorted(set(int(x) for x in steps))
    if not 1 <= h <= len(vals):
        raise ValueError(f"need 1 <= h <= {len(vals)}, got {h}")
    table: list[dict[int, int]] = [{} for _ in range(h + 1)]
    table[0][0] = 1
    for a in vals:
        for k in range(h, 0, -1):
            cur = table[k]
            for s, cnt in table[k - 1].items():
                cur[s + a] = cur.get(s + a, 0) + cnt
    g = 0
    target = None
    for s in sorted(table[h]):
        if s <= limit and table[h][s] > g:
            g = table[h][s]
            target = s
    return g, target


def extract_ap(family: SetFamily, witness: SunflowerWitness) -> tuple[int, int]:
    """From a sunflower whose de-kerneled petals have equal sums s, return
    (s, v): unions of 0..v-1 of the disjoint remainders realize the
    homogeneous progression 0, s, ..., (v-1)s as subset sums.

    Equal remainder sums are an extra condition beyond being a sunflower;
    witnesses violating it (or with overlapping remainders) are rejected."""
    petals = [family.sets[i] for i in witness.petal_indices]
    rems = [p - witness.kernel for p in petals]
    for a, b in itertools.combinations(rems, 2):
        if a & b:
            raise ValueError("petal remainders overlap; not a sunflower over this kernel")
    sums = sorted({sum(r) for r in rems})
    if len(sums) != 1:
        raise ValueError(f"petal remainder sums differ: {sums}")
    return sums[0], len(petals)


def equal_sum_buckets(steps: Iterable[int], h: int) -> dict[int, SetFamily]:
    """All h-subsets of the step set grouped by their sum, as families."""
    vals = sorted(set(int(x) for x in steps))
    if not 1 <= h <= len(vals):
        raise ValueError(f"need 1 <= h <= {len(vals)}, got {h}")
    buckets: dict[int, list[frozenset[int]]] = {}
    for combo in itertools.combinations(vals, h):
        buckets.setdefault(sum(combo), []).append(frozenset(combo))
    return {s: SetFamily(tuple(fams), h) for s, fams in sorted(buckets.items())}


def homogeneous_ap_via_sunflower(
    steps: Iterable[int], h: int, v: int
) -> tuple[int, SunflowerWitness, SetFamily] | None:
    """Default extraction pipeline: bucket h-subsets by sum (lowest sum
    first), search each bucket for a sunflower (greedy, escalating to exact
    for small buckets), and convert the first hit into a progression step.

    Within a bucket all petal sums agree, so remainder sums agree too."""
    for _, family in sorted(equal_sum_buckets(steps, h).items()):
        if len(family.sets) < v:
            continue
        w = find_sunflower(family, v, mode="greedy")
        if w is None and len(family.sets) <= _EXACT_CAP:
            w = find_sunflower(family, v, mode="exact")
        if w is not None:
            s, _ = extract_ap(family, w)
            return s, w, family
    return None
