"""Differential tests: the search core in cubesieve.cube against the
list-based search it replaced, and the distinct-sum `verify` against the
multiset loop it replaced. Both are kept below as reference implementations
(function bodies unchanged, docstrings dropped).

The greedy searches must agree on the whole CubeSearchResult. The exact
search cuts states with its popcount bound and step cap, and charges each
state it enters the same members the reference charges it, so it visits a
subset of the reference's states and spends no more nodes. Where the
reference completes, the new core must complete too, with the same
dimension and witness and no more nodes. Where the reference runs out of
budget, the new core's witness must verify, and if it completed, its
dimension must be at least the reference's.

The exact search runs from an explicit stack and settles dead children
without entering them; the recursive search it replaced is kept below too,
and the two must return equal results field by field, node count included,
on every check here that runs an exact search against a reference.

The exact search has two routes, bitsets and pair lists. Each is forced in
turn, and the two must return equal results field by field, including the
node count and where a budget runs out; the pair-list route is also held to
the list-based reference above. Past the pair cap the pair-list route runs
without its table, and must return the tabled search's results.

The exact search starts from a floor, the longest homogeneous progression.
The scan that finds it is held to the step loop over every integer that it
replaced, and a complete search must return the same witness with the floor
as without it, in no more nodes.

The greedy search finds the i-th set bit by halving; the bisection it
replaced is kept below, and the two must agree on every i."""

import dataclasses
import itertools
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesieve import cube
from cubesieve.arithsets import (
    SetDescriptor,
    enumerate_members,
    is_member,
    parse_set_descriptor,
)
from cubesieve.cube import (
    DEFAULT_BUDGET,
    CubeSearchResult,
    HilbertCube,
    _bits,
    _check_budget,
    _homogeneous_ap,
    _low,
    _pair_table,
    _result,
)
from cubesieve.primes import check_table, set_bits

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
        best_dimension=best["d"],
        witness=witness,
        nodes_expanded=nodes,
        exact=not exhausted,
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
        best_dimension=best["d"],
        witness=witness,
        nodes_expanded=nodes,
        exact=False,
    )


# ---------------------------------------------------------------------------
# reference implementation (the recursive exact search the iterative one
# replaced; the current core must return an equal CubeSearchResult, nodes and
# all, also where the budget runs out)


def recursive_exact(
    s: SetDescriptor,
    limit: int,
    subset_sum_mode: bool = False,
    distinct: bool = False,
    budget: int = DEFAULT_BUDGET,
    members: list[int] | None = None,
) -> CubeSearchResult:
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
    if pairs is None:
        check_table(limit, "the cube search bitset")
    bits = _bits(members) if pairs is None else 0
    nodes, exhausted = 0, False

    def bit_children(a0, fits, depth, low, cap):
        for a in set_bits((fits >> low) & ((1 << max(cap - low + 1, 0)) - 1), low):
            sub = fits & (fits >> a)
            yield a, sub, (sub >> (a + gap)).bit_count()

    def list_children(a0, state, depth, low, cap):
        values, k = state
        stop = bisect_right(values, a0 + cap, k)
        if depth == 0 and pairs:  # a base's children; with no table, as deeper down
            for y in values[k:stop]:
                sub = pairs.get(y - a0, ())
                j = bisect_left(sub, y + gap)
                yield y - a0, (sub, j), len(sub) - j
        else:
            rest = values[k:]
            have = set(rest)
            for i, y in enumerate(values[k:stop]):
                a = y - a0
                sub = [v for v in rest[i + gap:bisect_right(rest, rest[-1] - a, i)]
                       if v + a in have]
                yield a, (sub, 0), len(sub)

    children = bit_children if pairs is None else list_children

    def extend(a0: int, smax: int, state, avail: int, steps: list[int]):
        nonlocal best, best_d, nodes, exhausted
        depth = len(steps)
        if depth > best_d:
            best, best_d = (a0, tuple(steps)), depth
        if depth + avail <= best_d:
            return
        low = _low(steps, distinct)
        nodes += len(members) - bisect_left(members, smax + low)
        if nodes > budget:
            nodes, exhausted = budget + 1, True
            return
        cap = (limit - smax) // (best_d + 1 - depth)
        for i, (a, sub, sub_avail) in enumerate(children(a0, state, depth, low, cap)):
            if depth + avail - i <= best_d or smax + (best_d + 1 - depth) * a > limit:
                return
            if depth + 1 + sub_avail > best_d:  # else the popcount bound cuts it
                steps.append(a)
                extend(a0, smax + a, sub, sub_avail, steps)
                steps.pop()
                if exhausted:
                    return

    for a0 in [0] if subset_sum_mode else members:
        if exhausted:
            break
        k = bisect_right(members, a0)
        extend(a0, a0, bits >> a0 if pairs is None else (members, k), len(members) - k, [])
    del extend  # it refers to itself: drop that cycle so the table is freed now
    return _result(best, nodes, not exhausted, distinct)



def _check_exact(s: SetDescriptor, limit: int, **kw) -> None:
    new, ref = cube.max_dimension_exact(s, limit, **kw), max_dimension_exact(s, limit, **kw)
    assert new == recursive_exact(s, limit, **kw)
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
        assert (new.exact, new.nodes_expanded) == (False, kw["budget"] + 1)


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


# ---------------------------------------------------------------------------
# the exact search's two routes, bitsets and pair lists, each forced through
# the density rule's constant (span > _PAIR_DENSITY * |A| takes pair lists),
# and pair lists without their table, forced through the pair cap

_LISTS, _BITS = -1, 10**9


def _both_routes(s: SetDescriptor, limit: int, **kw) -> CubeSearchResult:
    """The exact search under the density rule, with each route forced, and
    on pair lists with the pair cap at 0, so that no table is ever built:
    the four results are equal field by field."""
    results = []
    for density, cap in ((cube._PAIR_DENSITY, cube._MAX_PAIRS), (_LISTS, cube._MAX_PAIRS),
                         (_BITS, cube._MAX_PAIRS), (_LISTS, 0)):
        with mock.patch.object(cube, "_PAIR_DENSITY", density), \
                mock.patch.object(cube, "_MAX_PAIRS", cap):
            results.append(cube.max_dimension_exact(s, limit, **kw))
            assert results[-1] == recursive_exact(s, limit, **kw)
    assert results[1] == results[2] == results[3] == results[0]
    return results[0]


@st.composite
def sparse_sets(draw):
    """A sparse listed set up to a few thousand holding the sums of a planted
    cube, so the search goes a few steps deep, plus random members."""
    a0 = draw(st.sampled_from((0, 1)) | st.integers(0, 300))
    steps = draw(st.lists(st.integers(1, 400), min_size=1, max_size=5))
    values = {v for v in HilbertCube(a0, tuple(steps)).sums() if v}
    values |= draw(st.frozensets(st.integers(1, 4000), max_size=60))
    limit = draw(st.sampled_from((max(values), 4000)) | st.integers(1, 4000))
    return Listed(frozenset(values)), limit


@settings(max_examples=300, deadline=None)
@given(listed_sets() | sparse_sets(), st.booleans(), st.booleans(), st.integers(0, 3000))
def test_exact_routes_agree(case, subset_sum, distinct, budget):
    s, limit = case
    kw = dict(subset_sum_mode=subset_sum, distinct=distinct, budget=budget)
    _both_routes(s, limit, **kw)
    with mock.patch.object(cube, "_PAIR_DENSITY", _LISTS):
        _check_exact(s, limit, **kw)


# every set descriptor kind, including each prime-set kind
_ROUTE_DESCRIPTORS = _DESCRIPTORS + (
    "semigroup:all", "semigroup:complement:list:2,3", "quadform:1,1,1",
)


@pytest.mark.parametrize("text", _ROUTE_DESCRIPTORS)
@pytest.mark.parametrize("subset_sum", [False, True])
@pytest.mark.parametrize("distinct", [False, True])
def test_exact_routes_agree_on_every_descriptor(text, subset_sum, distinct):
    s = parse_set_descriptor(text)
    kw = dict(subset_sum_mode=subset_sum, distinct=distinct)
    for n, budget in ((60, 10**8), (1000, 37), (1000, 4000), (3000, 20000)):
        res = _both_routes(s, n, budget=budget, **kw)
        if not res.exact:
            assert (res.exact, res.nodes_expanded) == (False, budget + 1)


@pytest.mark.parametrize("text, n, kw, exact", [
    ("squareful", 10**4, {}, True),
    ("squareful", 10**4, dict(subset_sum_mode=True), True),
    ("squareful", 10**4, dict(distinct=True, budget=10**6), True),
    ("squareful", 10**5, {}, True),
    ("squareful", 10**5, dict(subset_sum_mode=True), True),
    ("squareful", 10**5, dict(distinct=True, budget=10**6), False),
    ("purepowers", 10**6, dict(subset_sum_mode=True), True),
])
def test_exact_matches_recursive_reference_on_large_sets(text, n, kw, exact):
    # the pair-list route, where most base children are settled without
    # being entered; equal down to the node count and where the budget ends
    s = parse_set_descriptor(text)
    res = cube.max_dimension_exact(s, n, **kw)
    assert res.exact is exact
    assert res == recursive_exact(s, n, **kw)


@pytest.mark.parametrize("text, n", [
    ("purepowers", 3000),  # floor H(4;4), dimension 1; optimum 3
    ("purepowers", 10**4),
    ("rfull:4,all", 3000),  # floor H(16;16), dimension 1; optimum 2
    ("semigroup:list:3,5,7,11", 1000),  # floor H(1;), dimension 0; optimum 5
    ("semigroup:list:3,5,7,11", 10**4),
])
@pytest.mark.parametrize("kw", [{}, dict(subset_sum_mode=True), dict(distinct=True)],
                         ids=["plain", "subset_sum", "distinct"])
@pytest.mark.parametrize("budget", [50, 2000, 10**8])
def test_exact_matches_recursive_reference_as_the_best_depth_rises(text, n, kw, budget):
    # pair-list searches whose best depth rises past the floor's, so the
    # base prefilter reads the trimmed pair table at several depths
    s = parse_set_descriptor(text)
    members = enumerate_members(s, n)
    assert _pair_table(members, 0, n, n)
    res = cube.max_dimension_exact(s, n, budget=budget, members=members, **kw)
    assert res == recursive_exact(s, n, budget=budget, members=members, **kw)
    if not kw and budget == 10**8:
        assert res.exact and res.best_dimension > _homogeneous_ap(members, n)[0] - 1


def _no_bitset(*args):
    raise AssertionError("the pair-list route built a bitset")


@pytest.mark.parametrize("text, n, kw", [
    ("rfull:4,all", 10**9, {}),  # H(810000; 810000 x 5), 784,553 nodes
    ("semigroup:list:2,3", 10**12, dict(subset_sum_mode=True)),  # H(0; 1 x 4)
])
def test_pair_route_matches_recursive_reference_past_the_bitset_cap(text, n, kw, monkeypatch):
    # the pair-list route builds no bitset, so it searches past 10**8
    s = parse_set_descriptor(text)
    members = enumerate_members(s, n)
    monkeypatch.setattr(cube, "bitset", _no_bitset)
    res = cube.max_dimension_exact(s, n, **kw)
    assert res.exact and res == recursive_exact(s, n, members=members, **kw)


@pytest.mark.parametrize("text, n, subset_sum, budget", [
    ("squareful", 10**4, False, 5000),
    ("squareful", 10**4, False, 100000),
    ("purepowers", 10**5, True, 3000),
    ("purepowers", 10**4, False, 20000),
])
def test_exact_routes_stop_at_the_same_state(text, n, subset_sum, budget):
    # both routes run out of budget at the same state, with the same best cube
    res = _both_routes(parse_set_descriptor(text), n, subset_sum_mode=subset_sum, budget=budget)
    assert (res.exact, res.nodes_expanded) == (False, budget + 1)
    assert res.witness is not None and res.best_dimension >= 2


@pytest.mark.parametrize("text", ["rfull:2,inert:1,1,1", "semigroup:class:1,4"])
@pytest.mark.parametrize("n", [1000, 10000])
@pytest.mark.parametrize("budget", [1, 10, 10**3, 10**5, 3 * 10**5])
def test_exact_matches_recursive_reference_on_dense_budgets(text, n, budget):
    # the benchmark's dense rows on the bitset route, where a budget runs out
    # while a listing is part way through its lowest-bit walk
    s = parse_set_descriptor(text)
    members = enumerate_members(s, n)
    assert _pair_table(members, 0, n, n) is None
    res = cube.max_dimension_exact(s, n, budget=budget, members=members)
    assert res == recursive_exact(s, n, budget=budget, members=members)
    assert (res.exact, res.nodes_expanded) == (False, budget + 1)


def _pairs_by_definition(members: list[int], gap: int, top: int) -> dict[int, list[int]]:
    present = set(members)
    table: dict[int, list[int]] = {}
    for a in range(1, min(top, members[-1]) + 1):
        entries = [y for y in members if y >= a + gap and y + a in present]
        if entries:
            table[a] = entries
    return table


@settings(max_examples=200, deadline=None)
@given(sparse_sets(), st.booleans(), st.integers(1, 8))
def test_pair_table_matches_its_definition(case, distinct, d):
    # the table a search seeded with a floor of dimension d builds: the
    # steps a <= limit // d that a base child can take
    s, limit = case
    members = enumerate_members(s, limit)
    gap = 1 if distinct else 0
    with mock.patch.object(cube, "_PAIR_DENSITY", _LISTS):
        table = cube._pair_table(members, gap, limit // d, limit)
        one_base = cube._pair_table(members, gap, 0, limit)
    if not members:  # nothing to search: the bitset route's empty sentinel
        assert table is one_base is None
        return
    assert one_base == {}  # a search from one base keeps no table
    assert dict(table) == _pairs_by_definition(members, gap, limit // d)


@pytest.mark.parametrize("subset_sum, distinct, top", [
    (False, False, 10**4 // 5),  # the floor H(900;900x5) has dimension 5
    (False, True, 10**4),  # a distinct search has no floor
    (True, False, 0),  # one base: no table
])
def test_search_trims_its_pair_table_to_the_floor(subset_sum, distinct, top, monkeypatch):
    tops = []
    build = cube._pair_table
    monkeypatch.setattr(cube, "_pair_table",
                        lambda members, gap, top, limit:
                        tops.append(top) or build(members, gap, top, limit))
    cube.max_dimension_exact(parse_set_descriptor("squareful"), 10**4,
                             subset_sum_mode=subset_sum, distinct=distinct)
    assert tops == [top]


def _record_tables(monkeypatch) -> list:
    """The pair tables the searches build from here on, None for bitsets."""
    tables, build = [], cube._pair_table
    monkeypatch.setattr(cube, "_pair_table",
                        lambda *args: tables.append(build(*args)) or tables[-1])
    return tables


@pytest.mark.parametrize("distinct", [False, True])
def test_pair_cap_keeps_pair_lists_without_the_table(distinct, monkeypatch):
    s = parse_set_descriptor("squareful")
    members = enumerate_members(s, 1000)  # span 18.5 |A|: pair lists
    # the floor H(36;36x3) lets base steps up to 1000 // 3 through; a
    # distinct search has no floor
    top = 1000 if distinct else 1000 // 3
    count = sum(map(len, _pairs_by_definition(members, 1 if distinct else 0, top).values()))
    tables = _record_tables(monkeypatch)
    monkeypatch.setattr(cube, "bitset", _no_bitset)
    monkeypatch.setattr(cube, "_MAX_PAIRS", count)
    at_cap = cube.max_dimension_exact(s, 1000, distinct=distinct)
    assert sum(map(len, tables[-1].values())) == count
    monkeypatch.setattr(cube, "_MAX_PAIRS", count - 1)
    assert cube.max_dimension_exact(s, 1000, distinct=distinct) == at_cap
    assert tables[-1] == {}


def test_pair_lists_past_the_cap_build_no_bitset(monkeypatch):
    # squareful at 5 * 10**6 counts 1,662,408 pair entries, past the cap,
    # and stays on pair lists
    s = parse_set_descriptor("squareful")
    members = enumerate_members(s, 5 * 10**6)
    tables = _record_tables(monkeypatch)
    monkeypatch.setattr(cube, "bitset", _no_bitset)
    res = cube.max_dimension_exact(s, 5 * 10**6, budget=20000, members=members)
    assert tables == [{}]
    assert (res.exact, res.nodes_expanded) == (False, 20001)
    assert res == recursive_exact(s, 5 * 10**6, budget=20000, members=members)


# ---------------------------------------------------------------------------
# the floor: every exact search but a distinct one starts from the longest
# homogeneous progression s, 2s, ..., Ls, the cube H(s; s x (L - 1)) or, in
# subset-sum mode, H(0; s x L); the progression scan below is the step loop
# over every integer up to the limit that `cube._homogeneous_ap` replaced


def max_homogeneous_ap(s: SetDescriptor, limit: int) -> tuple[int, int | None]:
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


@settings(max_examples=300, deadline=None)
@given(listed_sets() | sparse_sets())
def test_homogeneous_ap_matches_reference(case):
    s, limit = case
    assert cube.max_homogeneous_ap(s, limit) == max_homogeneous_ap(s, limit)


@pytest.mark.parametrize("text", _ROUTE_DESCRIPTORS)
@pytest.mark.parametrize("n", [10**3, 10**4])
def test_homogeneous_ap_matches_reference_on_every_descriptor(text, n):
    s = parse_set_descriptor(text)
    assert cube.max_homogeneous_ap(s, n) == max_homogeneous_ap(s, n)


def _seeded_and_unseeded(s: SetDescriptor, limit: int, **kw):
    seeded = cube.max_dimension_exact(s, limit, **kw)
    with mock.patch.object(cube, "_homogeneous_ap", lambda members, limit: (0, None)):
        unseeded = cube.max_dimension_exact(s, limit, **kw)
    return seeded, unseeded


def _check_floor_keeps_the_witness(s: SetDescriptor, limit: int, **kw) -> None:
    # a complete search finds the same least witness from its floor as from
    # nothing, and enters no state the unseeded search does not
    seeded, unseeded = _seeded_and_unseeded(s, limit, **kw)
    assert seeded.exact and unseeded.exact
    assert seeded == dataclasses.replace(unseeded, nodes_expanded=seeded.nodes_expanded)
    assert seeded.nodes_expanded <= unseeded.nodes_expanded


@settings(max_examples=300, deadline=None)
@given(listed_sets() | sparse_sets(), st.booleans(), st.booleans())
def test_floor_keeps_the_witness(case, subset_sum, distinct):
    s, limit = case
    _check_floor_keeps_the_witness(s, limit, subset_sum_mode=subset_sum, distinct=distinct)


@pytest.mark.parametrize("text, n, subset_sum", [
    # a floor taken as the best depth itself would return its own H(36;36x3)
    ("squareful", 1000, False),
    ("squareful", 10**4, False),
    ("rfull:3,all", 1000, False),
    ("rfull:2,inert:1,1,1", 1000, False),
    ("purepowers", 10**4, True),
])
def test_floor_keeps_the_witness_on_descriptors(text, n, subset_sum):
    _check_floor_keeps_the_witness(parse_set_descriptor(text), n, subset_sum_mode=subset_sum)


@settings(max_examples=300, deadline=None)
@given(listed_sets() | sparse_sets(), st.booleans(), st.integers(0, 3000))
def test_truncated_search_keeps_its_floor(case, subset_sum, budget):
    # a search that runs out of budget returns the better of its floor and
    # what it found (its witness is checked by _check_exact above)
    s, limit = case
    res = cube.max_dimension_exact(s, limit, subset_sum_mode=subset_sum, budget=budget)
    length, _ = max_homogeneous_ap(s, limit)
    assert res.best_dimension >= (length if subset_sum else length - 1)


# ---------------------------------------------------------------------------
# reference verify (the loop over all 2^d sums with multiplicity)


def verify(cube: HilbertCube, s: SetDescriptor, limit: int) -> tuple[bool, int | None]:
    for v in cube.sums():
        if v == 0 and cube.a0 == 0:
            continue
        if not 1 <= v <= limit or not is_member(s, v):
            return False, v
    return True, None


_VERIFY_SETS = (
    "squareful", "purepowers", "rfull:2,inert:1,1,1", "semigroup:class:1,4",
    "quadform:1,0,1", "semigroup:all",
)


@st.composite
def cubes_with_sets(draw):
    """A cube of dimension <= 14 whose steps often repeat, a set that is a
    named descriptor or a listed set holding all its nonzero sums but a few,
    and a limit near its largest sum (or anywhere from -5 up). Bases range
    far past the small sums' count, so the walk's sets do not iterate in
    ascending order."""
    pool = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    steps = draw(st.lists(st.sampled_from(pool) | st.integers(1, 3000), max_size=14))
    a0 = draw(st.sampled_from((0, 1)) | st.integers(0, 10**6))
    cube_ = HilbertCube(a0, tuple(steps))
    sums = sorted(set(cube_.sums()))
    if draw(st.booleans()):
        drop = draw(st.sets(st.sampled_from(sums), max_size=3))
        s = Listed(frozenset(v for v in sums if v and v not in drop))
    else:
        s = parse_set_descriptor(draw(st.sampled_from(_VERIFY_SETS)))
    limit = draw(st.sampled_from(sums) | st.integers(-5, sums[-1] + 5))
    return cube_, s, limit


@settings(max_examples=400, deadline=None)
@given(cubes_with_sets())
def test_verify_matches_reference(case):
    cube_, s, limit = case
    assert cube.verify(cube_, s, limit) == verify(cube_, s, limit)


@pytest.mark.parametrize("a0, steps, values, limit", [
    # a0 = 0: the empty sum is exempt, also below a negative limit
    (0, (3, 3), {3, 6}, 6),
    (0, (3, 3), {3, 6}, -2),
    (0, (2, 5), {2, 5, 7}, 6),
    # several in-range failures: the least is named, not the first in set order
    (1000, (1, 8, 8), {1000, 1008}, 2000),
    (64, (1, 2, 4), set(), 100),
    # failures only above the limit: the least of them, from either repeat
    (1, (6, 6), {1, 7}, 10),
    (1, (3, 9), {1, 4}, 10),
    (1, (4, 9, 9), {1, 5, 10, 14}, 12),
    (1, (2, 7, 7, 7), {1, 3, 8, 10, 15, 17, 22, 24}, 16),
    (3, (2, 3, 4, 4), {3, 5, 6, 7, 8, 9, 10}, 10),  # 11 appears after 12
    (5, (1,), {5, 6}, 4),
])
def test_verify_edge_cases_match_reference(a0, steps, values, limit):
    cube_, s = HilbertCube(a0, steps), Listed(frozenset(values))
    assert cube.verify(cube_, s, limit) == verify(cube_, s, limit)


# ---------------------------------------------------------------------------
# the greedy search's i-th set bit: `cube._nth_bit` halves its int at each
# step; the bisection with a full-width mask that it replaced is kept below


def _nth_bit(x: int, i: int) -> int:
    lo, hi = 0, x.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (x & ((2 << mid) - 1)).bit_count() > i:
            hi = mid
        else:
            lo = mid + 1
    return lo


@st.composite
def wide_ints(draw):
    """An int of up to 2^16 bits with its top bit set and up to 8 runs of
    ones below it, so every i can be asked of it."""
    width = draw(st.sampled_from((1, 2, 63, 64, 65, 1 << 16)) | st.integers(1, 1 << 16))
    x = 1 << (width - 1)
    for start, length in draw(st.lists(st.tuples(st.integers(0, width - 1),
                                                 st.integers(1, 32)), max_size=8)):
        x |= ((1 << length) - 1) << start
    return x & ((1 << width) - 1)


@settings(max_examples=300, deadline=None)
@given(wide_ints())
def test_nth_bit_matches_bisection(x):
    assert [cube._nth_bit(x, i) for i in range(x.bit_count())] == \
        [_nth_bit(x, i) for i in range(x.bit_count())]


_EDGE_INTS = {
    "top-bit-2^16": 1 << ((1 << 16) - 1),
    **{f"ones-{w}": (1 << w) - 1 for w in (1, 2, 3, 64, 65, 1000, 1 << 16)},
    "hole-2^16": ((1 << (1 << 16)) - 1) ^ ((1 << 40000) - (1 << 20000)),
}


@pytest.mark.parametrize("x", _EDGE_INTS.values(), ids=_EDGE_INTS.keys())
def test_nth_bit_matches_bisection_at_the_ends(x):
    count = x.bit_count()
    for i in {0, 1, count // 2, count - 2, count - 1, *range(0, count, 97)} - {-1, count}:
        assert cube._nth_bit(x, i) == _nth_bit(x, i)
