import gc
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesieve import arithsets, cube, primes
from cubesieve.arithsets import (
    PurePowers,
    QuadForm,
    Semigroup,
    Squareful,
    enumerate_members,
    parse_set_descriptor,
)
from cubesieve.cube import (
    HilbertCube,
    max_dimension_exact,
    max_dimension_greedy,
    max_homogeneous_ap,
    residue_constraint_check,
    verify,
)
from cubesieve.primes import PrimeSet, bitset


def naive_max_dimension(member, limit, subset_sum=False):
    """Brute force over every (a0, ascending steps) with all sums in range;
    deliberately ignorant of the search's candidate generation."""
    best = [-1]

    def rec(sums, last):
        depth = len(sums).bit_length() - 1  # len(sums) == 2^depth
        if depth > best[0]:
            best[0] = depth
        for a in range(last, limit + 1):
            if all(
                (s + a <= limit and member[s + a]) for s in sums
            ):
                rec(sums + [s + a for s in sums], a)

    bases = [0] if subset_sum else [n for n in range(1, limit + 1) if member[n]]
    for a0 in bases:
        rec([a0], 1)
    return best[0]


def member_table(descriptor, limit):
    table = [False] * (limit + 1)
    for n in enumerate_members(descriptor, limit):
        table[n] = True
    return table


def test_cube_normalization():
    c = HilbertCube(1, (24, 7))
    assert c.steps == (7, 24) and c.dimension == 2
    with pytest.raises(ValueError):
        HilbertCube(-1, (2,))
    with pytest.raises(ValueError):
        HilbertCube(0, (0,))
    with pytest.raises(ValueError):
        HilbertCube(0, (2, 2), distinct_required=True)
    HilbertCube(0, (2, 2))  # multiset allowed without the flag


def test_sums_examples():
    assert HilbertCube(4, ()).sums() == [4]
    assert HilbertCube(1, (7, 24)).sums() == [1, 8, 25, 32]
    assert HilbertCube(0, (1, 1)).sums() == [0, 1, 1, 2]


def test_sums_cap():
    with pytest.raises(ValueError):
        HilbertCube(0, tuple(range(1, 32))).sums()


def test_sums_refuses_past_the_walk_cap(monkeypatch):
    # sums() lists 2^d sums, so it refuses where the verify walk would
    monkeypatch.setattr(cube, "_MAX_WALK", 1 << 4)
    assert len(HilbertCube(0, (1, 2, 3, 4)).sums()) == 16
    with pytest.raises(ValueError):
        HilbertCube(0, (1, 2, 3, 4, 5)).sums()


def test_verify_examples():
    sq = Squareful()
    assert verify(HilbertCube(1, (7, 24)), sq, 32) == (True, None)
    assert verify(HilbertCube(1, (7, 24)), sq, 31) == (False, 32)
    assert verify(HilbertCube(4, (4,)), sq, 10) == (True, None)


def test_verify_subset_sum_exempts_zero():
    pp = PurePowers()
    assert verify(HilbertCube(0, (4,)), pp, 30) == (True, None)
    assert verify(HilbertCube(0, (9, 16)), pp, 30) == (True, None)
    # a0 = 0 is not exempt for nonzero offending sums
    assert verify(HilbertCube(0, (5,)), pp, 30) == (False, 5)


def test_verify_walks_past_the_sums_cap():
    # d = 40 is past the cap of sums(), but the walk holds only 41 sums
    every = parse_set_descriptor("semigroup:all")
    ones = HilbertCube(0, (1,) * 40)
    with pytest.raises(ValueError):
        ones.sums()
    assert verify(ones, every, 40) == (True, None)
    assert verify(ones, every, 39) == (False, 40)
    assert verify(HilbertCube(4, (4,) * 40), Squareful(), 10**4) == (False, 12)


def test_verify_tests_each_distinct_sum_once(monkeypatch):
    # the dense-scan witness at N = 1000: 8,192 sums, 26 of them distinct
    calls = []
    real = cube.is_member
    monkeypatch.setattr(cube, "is_member", lambda s, n: calls.append(n) or real(s, n))
    witness = HilbertCube(1, (1,) + (60,) * 12)
    assert verify(witness, parse_set_descriptor("rfull:2,inert:1,1,1"), 1000) == (True, None)
    assert calls == sorted(set(witness.sums()))
    assert len(calls) == 26


def test_verify_refuses_a_huge_walk_before_building_it(monkeypatch):
    def unreachable(s, n):
        raise AssertionError("tested a sum past the walk guard")

    monkeypatch.setattr(cube, "is_member", unreachable)
    powers = HilbertCube(1, tuple(1 << k for k in range(40)))  # 2^40 distinct sums
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"refusing to verify a cube of dimension 40: "
                                             r"its sums may exceed 4194304"):
            verify(powers, Squareful(), 1 << 41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_verify_walk_bound_is_exact_at_the_cap(monkeypatch):
    # 1 + 2 + 4 + ... + 64 = 127 sums for six doubling steps under a high limit;
    # a low limit bounds them by the range instead
    every = parse_set_descriptor("semigroup:all")
    doubling = HilbertCube(1, (1, 2, 4, 8, 16, 32))
    monkeypatch.setattr(cube, "_MAX_WALK", 127)
    assert verify(doubling, every, 64) == (True, None)
    monkeypatch.setattr(cube, "_MAX_WALK", 126)
    with pytest.raises(ValueError, match="its sums may exceed 126"):
        verify(doubling, every, 64)
    assert verify(doubling, every, 10) == (False, 11)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.lists(st.integers(1, 12), max_size=10), st.integers(0, 150))
def test_walk_bound_covers_the_walk(a0, steps, top):
    # the distinct sums in [a0, top] after each run of equal steps, counted
    # from scratch; the bound adds a bound on each of them to 1
    cube_ = HilbertCube(a0, tuple(steps))
    sums, walk = {a0}, 1
    for j, a in enumerate(cube_.steps, 1):
        sums |= {v + a for v in sums}
        if j == cube_.dimension or cube_.steps[j] != a:
            walk += len({v for v in sums if v <= top})
    assert cube._walk_bound(cube_, top) >= walk


def test_verify_counts_a_repeated_step_once_per_copy():
    # 2^70 sums with multiplicity, 71 distinct: the walk cap no longer refuses it
    repeated = HilbertCube(1 << 40, (1 << 40,) * 70)
    every = parse_set_descriptor("semigroup:all")
    assert cube._walk_bound(repeated, 71 << 40) == 72
    assert verify(repeated, every, 71 << 40) == (True, None)
    assert verify(repeated, every, (71 << 40) - 1) == (False, 71 << 40)


@pytest.mark.parametrize("x", [1, 2, 0b1011_0100, (1 << 200) | (1 << 77) | 5, (1 << 1000) - 1])
def test_nth_bit_matches_listed_bits(x):
    bits = [k for k in range(x.bit_length()) if x >> k & 1]
    assert [cube._nth_bit(x, i) for i in range(len(bits))] == bits


def test_residue_constraint_check_examples():
    allp = PrimeSet.all_primes()
    rep = residue_constraint_check(HilbertCube(9, ()), allp, 50)
    assert all(r.ok and r.residues == 0 for r in rep)

    rep = residue_constraint_check(HilbertCube(1, (7, 24)), allp, 5)
    row5 = [r for r in rep if r.p == 5][0]
    assert row5.residues == 2 and row5.bound == 26 and row5.ok

    rep = residue_constraint_check(HilbertCube(1, (7, 24)), allp, 100)
    assert all(r.ok for r in rep)


def test_residue_constraint_semigroup_rule():
    outside = PrimeSet.explicit([5])
    rep = residue_constraint_check(
        HilbertCube(1, (1, 2, 3, 4, 5)), outside, 10, rule="semigroup"
    )
    row = rep[0]
    assert row.bound == 2 * math.sqrt(5) and row.residues == 5
    assert not row.ok  # 5 classes mod 5 exceed 2*sqrt(5)

    with pytest.raises(ValueError):
        residue_constraint_check(HilbertCube(1, (1,)), outside, 10, rule="weird")


def test_exact_ground_truth():
    sq = Squareful()
    r10 = max_dimension_exact(sq, 10)
    assert r10.best_dimension == 1 and r10.exact
    assert verify(r10.witness, sq, 10) == (True, None)

    r32 = max_dimension_exact(sq, 32)
    assert r32.best_dimension == 2 and r32.exact
    assert verify(r32.witness, sq, 32) == (True, None)

    r3 = max_dimension_exact(sq, 3)
    assert r3.best_dimension == 0 and r3.witness == HilbertCube(1, ())


def test_exact_empty_set_sentinel():
    empty = QuadForm(2, 0, 2)  # least value 2
    res = max_dimension_exact(empty, 1)
    assert res.best_dimension == -1 and res.witness is None


def test_exact_agrees_with_naive():
    sq = Squareful()
    for limit in (10, 25, 60, 120, 200):
        member = member_table(sq, limit)
        assert max_dimension_exact(sq, limit).best_dimension == naive_max_dimension(member, limit), limit

    pp = PurePowers()
    for limit in (10, 40, 120):
        member = member_table(pp, limit)
        got = max_dimension_exact(pp, limit, subset_sum_mode=True).best_dimension
        assert got == naive_max_dimension(member, limit, subset_sum=True), limit


def test_exact_monotone_in_limit():
    sq = Squareful()
    dims = [max_dimension_exact(sq, n).best_dimension for n in (10, 100, 1000, 10**4)]
    assert dims == sorted(dims)
    assert dims[0] == 1


def test_exact_budget_exhaustion_flagged():
    res = max_dimension_exact(Squareful(), 1000, budget=10)
    assert not res.exact
    assert res.nodes_expanded == 11
    if res.witness is not None:
        assert verify(res.witness, Squareful(), 1000) == (True, None)


@pytest.mark.parametrize("text, dimension, witness, max_nodes", [
    ("quadform:1,0,1", 11, HilbertCube(37, (84,) * 11), 5_527_034),
    ("rfull:2,inert:1,1,1", 13, HilbertCube(1, (1,) + (60,) * 12), 15_369_525),
])
def test_exact_completes_dense_sets(text, dimension, witness, max_nodes):
    # Without the popcount bound and the step cap both exhaust the default
    # budget. A popcount bound taken over the capped candidates alone
    # loses the d = 11 cube of quadform:1,0,1 (a capped step can still be a
    # later partial sum); dropping the step cap keeps the answer but spends
    # 21M and 83M nodes, so the node counts of this core are upper bounds.
    res = max_dimension_exact(parse_set_descriptor(text), 1000)
    assert (res.best_dimension, res.witness, res.exact) == (dimension, witness, True)
    assert res.nodes_expanded <= max_nodes


def test_exact_squareful_1e5_starts_from_its_floor():
    # the progression 900, 1800, ..., 5400 gives d = 5 before the search
    # starts, so it only has to rule out d = 6; unseeded it spends 7,194,507
    res = max_dimension_exact(Squareful(), 10**5)
    assert (res.best_dimension, res.witness, res.exact) == (5, HilbertCube(900, (900,) * 5), True)
    assert res.nodes_expanded <= 6_514_288


def test_searches_refuse_huge_limit_before_enumerating(monkeypatch):
    # the exact search refuses squareful past 10**8 once its pair count
    # passes the cap, with or without the members passed in, and a dense
    # set just before it builds a bitset of limit bits; greedy, which always
    # builds one, refuses before it enumerates
    def unreachable(*args):
        raise AssertionError("ran past the size guard")

    def refused(table):
        return pytest.raises(ValueError, match=rf"{table} \(max 10\*\*8\)$")

    members = enumerate_members(Squareful(), 10**8 + 1)
    monkeypatch.setattr(cube, "bitset", unreachable)
    for kw in ({}, dict(members=members)):
        with refused("cube search without its pair table"):
            max_dimension_exact(Squareful(), 10**8 + 1, **kw)
    with refused("cube search bitset"):
        max_dimension_exact(Squareful(), 10**8 + 1, members=list(range(10**8 - 40, 10**8 + 2)))
    monkeypatch.setattr(cube, "enumerate_members", unreachable)
    for limit in (10**8 + 1, 10**11):
        with refused("cube search bitset"):
            max_dimension_greedy(Squareful(), limit)


def test_greedy_always_below_exact():
    sq = Squareful()
    for limit in (32, 100, 1000):
        exact = max_dimension_exact(sq, limit)
        for seed in (0, 1, 2):
            greedy = max_dimension_greedy(sq, limit, seed=seed)
            assert greedy.best_dimension <= exact.best_dimension
            assert greedy.best_dimension >= 1  # H(4;4) is always reachable
            assert verify(greedy.witness, sq, limit) == (True, None)


def test_greedy_deterministic():
    a = max_dimension_greedy(Squareful(), 500, seed=7)
    b = max_dimension_greedy(Squareful(), 500, seed=7)
    assert a == b


def test_greedy_subset_sum_mode():
    res = max_dimension_greedy(PurePowers(), 30, subset_sum_mode=True, seed=1)
    assert res.best_dimension >= 1
    assert res.witness.a0 == 0


def test_greedy_empty_set_sentinel():
    res = max_dimension_greedy(QuadForm(2, 0, 2), 1, seed=0)
    assert res.best_dimension == -1 and res.witness is None


def test_exact_distinct_mode():
    pp = PurePowers()
    plain = max_dimension_exact(pp, 100, subset_sum_mode=True)
    distinct = max_dimension_exact(pp, 100, subset_sum_mode=True, distinct=True)
    assert distinct.best_dimension <= plain.best_dimension
    if distinct.witness is not None:
        steps = distinct.witness.steps
        assert len(set(steps)) == len(steps)


def test_exact_witness_lexicographically_least():
    # first witness at the maximal depth under ascending (a0, steps) order
    res = max_dimension_exact(Squareful(), 32)
    assert res.witness == HilbertCube(1, (7, 8))
    assert res.witness.sums() == [1, 8, 9, 16]


def test_exact_search_goes_deeper_than_the_recursion_limit():
    # the search runs from an explicit stack, so depth is not bounded by
    # Python's recursion limit
    res = max_dimension_exact(parse_set_descriptor("semigroup:all"), 5000)
    assert (res.exact, res.best_dimension) == (True, 4999)
    assert res.witness == HilbertCube(1, (1,) * 4999)
    assert res.nodes_expanded == 4999 * 5000 // 2


def test_max_homogeneous_ap_examples():
    assert max_homogeneous_ap(Squareful(), 8) == (2, 4)
    length, step = max_homogeneous_ap(PurePowers(), 30)
    assert length == 2 and step == 4  # 4, 8 = 2^2, 2^3
    assert max_homogeneous_ap(QuadForm(2, 0, 2), 1) == (0, None)


def test_max_homogeneous_ap_refuses_huge_limit(monkeypatch):
    # the scan builds no table of its own, so each set's enumeration guard
    # refuses what that set cannot list, before any table or loop
    sets = [
        ("rfull:2,inert:1,1,1", 10**8 + 1, "the r-full sieve table (max 10**8)"),
        ("quadform:1,0,1", 10**8 + 1, "the form's value table (max 10**8)"),
        ("semigroup:all", 10**8 + 1, "the prime sieve table (max 10**8)"),
        ("squareful", 10**12 + 1, "the squareful enumeration (max 10**12)"),
        ("purepowers", 10**13, "the pure-power enumeration (max 10**12)"),
    ]
    descriptors = [parse_set_descriptor(text) for text, _, _ in sets]

    def unreachable(*args):
        raise AssertionError("ran past the size guard")

    monkeypatch.setattr(arithsets, "bytearray", unreachable, raising=False)
    monkeypatch.setattr(arithsets, "range", unreachable, raising=False)
    monkeypatch.setattr(primes, "bytearray", unreachable, raising=False)
    for s, (_, limit, table) in zip(descriptors, sets):
        with pytest.raises(ValueError, match=re.escape(f"limit N = {limit} is too large for {table}")):
            max_homogeneous_ap(s, limit)


def test_max_homogeneous_ap_past_the_table_cap():
    # sparse sets answer past 10**8, where no table is built
    assert max_homogeneous_ap(Squareful(), 10**9) == (12, 5336100)
    assert max_homogeneous_ap(parse_set_descriptor("semigroup:list:2,3"), 10**21) == (4, 1)


def test_max_homogeneous_ap_brute():
    sq = Squareful()
    for limit in (8, 50, 200):
        member = member_table(sq, limit)
        best = (0, None)
        for s in range(1, limit + 1):
            k = 0
            while (k + 1) * s <= limit and member[(k + 1) * s]:
                k += 1
            if k > best[0]:
                best = (k, s)
        assert max_homogeneous_ap(sq, limit) == best


def test_semigroup_search_smoke():
    sg = Semigroup(PrimeSet.explicit([2, 3]))
    res = max_dimension_exact(sg, 100)
    assert res.exact and res.best_dimension >= 2
    assert verify(res.witness, sg, 100) == (True, None)


def _no_bitset(*args):
    raise AssertionError("a sparse set must not build a bitset")


@pytest.mark.parametrize("text", ["rfull:2,inert:1,1,1", "semigroup:class:1,4"])
@pytest.mark.parametrize("n", [10**3, 10**4])
def test_exact_route_keeps_bitsets_for_dense_sets(text, n, monkeypatch):
    # span / |A| is at most 2.8 and 9.3 here, under the rule's 16
    built = []
    monkeypatch.setattr(cube, "bitset", lambda vals, top: built.append(top) or bitset(vals, top))
    res = max_dimension_exact(parse_set_descriptor(text), n, budget=1000)
    assert (res.exact, len(built)) == (False, 1)


@pytest.mark.parametrize("text, n, subset_sum", [
    ("squareful", 10**4, False),
    ("purepowers", 10**4, False),
    ("purepowers", 10**6, True),
])
def test_exact_route_takes_pair_lists_for_sparse_sets(text, n, subset_sum, monkeypatch):
    members = enumerate_members(parse_set_descriptor(text), n)
    assert members[-1] - members[0] > cube._PAIR_DENSITY * len(members)
    monkeypatch.setattr(cube, "bitset", _no_bitset)
    res = max_dimension_exact(parse_set_descriptor(text), n, subset_sum_mode=subset_sum)
    assert res.exact and verify(res.witness, parse_set_descriptor(text), n) == (True, None)


def test_exact_search_frees_its_pair_table():
    # were the search's closures left in a reference cycle, the pair table
    # (about 0.35 MiB here) would outlive the call until the next cyclic
    # collection
    s = Squareful()
    max_dimension_exact(s, 10**4)  # fills any enumeration cache first
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = max_dimension_exact(s, 10**4)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert res.best_dimension == 5
    assert after - before < 64 * 1024
