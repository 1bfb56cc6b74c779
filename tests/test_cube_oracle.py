"""Differential tests: the bitset search core in cubesieve.cube against the
list-based search it replaced, which is kept below as a reference
implementation (function bodies unchanged, docstrings dropped).

The greedy searches must agree on the whole CubeSearchResult. The exact
search cuts states with its popcount bound and step cap, and charges each
state it enters the same members the reference charges it, so it visits a
subset of the reference's states and spends no more nodes. Where the
reference completes, the new core must complete too, with the same
dimension and witness and no more nodes. Where the reference runs out of
budget, the new core's witness must verify, and if it completed, its
dimension must be at least the reference's."""

import dataclasses
import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesieve import cube
from cubesieve.arithsets import SetDescriptor, enumerate_members, parse_set_descriptor
from cubesieve.cube import CubeSearchResult, HilbertCube

# ---------------------------------------------------------------------------
# reference implementation (list-based candidate loop)


def _valid_extension(a: int, sums_desc: list[int], member_set: set[int]) -> bool:
    # the largest sum + a is a member by construction; check the rest,
    # largest first (sparser high range fails fastest)
    for s in sums_desc[1:]:
        if s + a not in member_set:
            return False
    return True


def max_dimension_exact(
    s: SetDescriptor,
    limit: int,
    subset_sum_mode: bool = False,
    distinct: bool = False,
    budget: int = 10**8,
) -> CubeSearchResult:
    members = enumerate_members(s, limit)
    member_set = set(members)
    best: dict = {"d": -1, "cube": None}
    nodes = 0
    exhausted = False

    def extend(a0: int, sums_desc: list[int], steps: list[int]):
        nonlocal nodes, exhausted
        if len(steps) > best["d"]:
            best["d"] = len(steps)
            best["cube"] = (a0, tuple(steps))
        smax = sums_desc[0]
        low = steps[-1] + 1 if (distinct and steps) else (steps[-1] if steps else 1)
        for j in range(bisect_left(members, smax + low), len(members)):
            if exhausted:
                return
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            a = members[j] - smax
            if _valid_extension(a, sums_desc, member_set):
                merged = sorted(sums_desc + [t + a for t in sums_desc], reverse=True)
                steps.append(a)
                extend(a0, merged, steps)
                steps.pop()

    bases = [0] if subset_sum_mode else members
    for a0 in bases:
        if exhausted:
            break
        extend(a0, [a0], [])

    witness = None
    if best["cube"] is not None:
        witness = HilbertCube(best["cube"][0], best["cube"][1], distinct)
    return CubeSearchResult(
        limit=limit,
        descriptor=s.describe(),
        mode="greedy" if exhausted else "exact",
        best_dimension=best["d"],
        witness=witness,
        nodes_expanded=nodes,
        exact=not exhausted,
        subset_sum_mode=subset_sum_mode,
    )


def max_dimension_greedy(
    s: SetDescriptor,
    limit: int,
    subset_sum_mode: bool = False,
    seed: int = 0,
    distinct: bool = False,
    restarts: int = 40,
) -> CubeSearchResult:
    members = enumerate_members(s, limit)
    member_set = set(members)
    rng = random.Random(seed)
    best: dict = {"d": -1, "cube": None}
    nodes = 0
    bases = [0] if subset_sum_mode else members
    if bases:
        for _ in range(restarts):
            a0 = rng.choice(bases)
            sums_desc = [a0]
            steps: list[int] = []
            while True:
                smax = sums_desc[0]
                low = steps[-1] + 1 if (distinct and steps) else (steps[-1] if steps else 1)
                cands = []
                for j in range(bisect_left(members, smax + low), len(members)):
                    nodes += 1
                    a = members[j] - smax
                    if _valid_extension(a, sums_desc, member_set):
                        cands.append(a)
                if not cands:
                    break
                a = rng.choice(cands)
                sums_desc = sorted(sums_desc + [t + a for t in sums_desc], reverse=True)
                steps.append(a)
            if len(steps) > best["d"]:
                best["d"] = len(steps)
                best["cube"] = (a0, tuple(steps))
    witness = None
    if best["cube"] is not None:
        witness = HilbertCube(best["cube"][0], best["cube"][1], distinct)
    return CubeSearchResult(
        limit=limit,
        descriptor=s.describe(),
        mode="greedy",
        best_dimension=best["d"],
        witness=witness,
        nodes_expanded=nodes,
        exact=False,
        subset_sum_mode=subset_sum_mode,
    )


def _check_exact(s: SetDescriptor, limit: int, **kw) -> None:
    new, ref = cube.max_dimension_exact(s, limit, **kw), max_dimension_exact(s, limit, **kw)
    if ref.exact:
        # everything but the node count matches, and the nodes are a subset
        assert new == dataclasses.replace(ref, nodes_expanded=new.nodes_expanded)
        assert new.nodes_expanded <= ref.nodes_expanded
        return
    if new.witness is not None:
        assert cube.verify(new.witness, s, limit) == (True, None)
    if new.exact:
        assert new.best_dimension >= ref.best_dimension
    else:
        assert (new.mode, new.nodes_expanded) == ("greedy", kw["budget"] + 1)


# ---------------------------------------------------------------------------
# property test over random small member sets


@dataclass(frozen=True)
class Listed(SetDescriptor):
    """An explicit finite set of positive integers."""
    values: frozenset

    def contains(self, n: int) -> bool:
        return n in self.values

    def members_up_to(self, limit: int) -> list[int]:
        return sorted(v for v in self.values if v <= limit)

    def describe(self) -> str:
        return "listed:" + ",".join(str(v) for v in sorted(self.values))


@st.composite
def listed_sets(draw):
    limit = draw(st.integers(1, 48))
    values = draw(st.frozensets(st.integers(1, limit + 8), max_size=limit))
    return Listed(values), limit


@settings(max_examples=300, deadline=None)
@given(
    listed_sets(),
    st.booleans(),
    st.booleans(),
    st.integers(0, 3000),
)
def test_exact_matches_reference(case, subset_sum, distinct, budget):
    s, limit = case
    _check_exact(s, limit, subset_sum_mode=subset_sum, distinct=distinct, budget=budget)


@settings(max_examples=300, deadline=None)
@given(
    listed_sets(),
    st.booleans(),
    st.booleans(),
    st.one_of(st.integers(0, 2**32), st.text(max_size=6)),
)
def test_greedy_matches_reference(case, subset_sum, distinct, seed):
    s, limit = case
    kw = dict(subset_sum_mode=subset_sum, distinct=distinct, seed=seed)
    assert cube.max_dimension_greedy(s, limit, **kw) == max_dimension_greedy(s, limit, **kw)


# ---------------------------------------------------------------------------
# fixed grid: 7 descriptors x N x subset-sum x distinct x budget, without the
# 28 uncapped (budget 10^8) runs at N = 1000, where the reference alone takes
# about 290 s; on those the current core passes the same checks, completing
# the three that exhaust the reference's budget with the same dimension

_DESCRIPTORS = (
    "squareful", "purepowers", "rfull:3,all", "semigroup:list:2,3,5",
    "quadform:1,0,1", "rfull:2,inert:1,1,1", "semigroup:class:1,4",
)
_GRID = [
    (d, n, ss, dist, budget)
    for d, n, ss, dist, budget in itertools.product(
        _DESCRIPTORS, (50, 200, 1000), (False, True), (False, True), (37, 2000, 10**8)
    )
    if not (n == 1000 and budget == 10**8)
]


@pytest.mark.parametrize("text,n,subset_sum,distinct,budget", _GRID)
def test_fixed_grid_matches_reference(text, n, subset_sum, distinct, budget):
    s = parse_set_descriptor(text)
    kw = dict(subset_sum_mode=subset_sum, distinct=distinct)
    _check_exact(s, n, budget=budget, **kw)
    assert cube.max_dimension_greedy(s, n, seed=budget, **kw) == \
        max_dimension_greedy(s, n, seed=budget, **kw)
