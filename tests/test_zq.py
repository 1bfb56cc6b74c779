import itertools
import math
import random
import time
import tracemalloc

import pytest

from cubesieve import zq
from cubesieve.zq import (
    CounterexampleError,
    Modulus,
    OlsonReport,
    ResidueMultiset,
    StrategyPreconditionError,
    SubsetWitness,
    ceil_two_sqrt,
    find_lift_zero,
    minimal_cover_k,
    schwarzwald,
    subset_sum_find,
    sumset_mod_p,
    verify_olson_exhaustive,
    _least_witness,
)


def brute_subset_sums(elements, modulus):
    """target -> lexicographically smallest index set, over nonempty subsets."""
    out = {}
    n = len(elements)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            t = sum(elements[i] for i in combo) % modulus
            if t not in out:
                out[t] = combo
    return out


def brute_covers(subset, p):
    reach = set()
    for size in range(1, len(subset) + 1):
        for combo in itertools.combinations(subset, size):
            reach.add(sum(combo) % p)
    return len(reach) == p


# --- moduli and multisets ---------------------------------------------------

def test_modulus():
    m = Modulus(5, 5)
    assert m.q == 25 and m.is_prime_power
    assert Modulus(5, 1).is_prime_power
    assert not Modulus(5, 3).is_prime_power
    with pytest.raises(ValueError):
        Modulus(6, 2)
    with pytest.raises(ValueError):
        Modulus(5, 0)


@pytest.mark.parametrize("p, k", [(2, 100000), (3, 60000), (7, 50000), (10007, 3000)])
def test_modulus_exponent_at_large_ell(p, k):
    # one logarithm and one exact power, however large ell is
    assert Modulus(p, p ** (k - 1)).is_prime_power
    for m in (p ** (k - 1) * (p + 1), p ** (k - 1) + 1, p ** (k - 1) - 1, p ** k // 2 + 1):
        assert not Modulus(p, m).is_prime_power


def test_residue_multiset():
    b = ResidueMultiset(Modulus(5, 3), (0, 5, 7, 7))
    assert b.reductions_mod_p() == (0, 0, 2, 2)
    assert b.distinct_mod_p() == 2
    with pytest.raises(ValueError):
        ResidueMultiset(Modulus(5, 3), (15,))


def test_ceil_two_sqrt():
    assert ceil_two_sqrt(71) == 17
    assert ceil_two_sqrt(73) == 18
    assert ceil_two_sqrt(5) == 5
    for p in range(2, 500):
        assert ceil_two_sqrt(p) == math.ceil(2 * math.sqrt(p))


# --- subset_sum_find ---------------------------------------------------------

def test_subset_sum_examples():
    w = subset_sum_find([1, 2, 3], 6, 7)
    assert w.indices == (0, 1, 2) and w.sum_mod_q == 6
    assert w.validate([1, 2, 3])
    assert subset_sum_find([1, 2, 3], 0, 7) is None
    w = subset_sum_find([0], 0, 5)
    assert w.indices == (0,) and w.validate([0])


def test_subset_sum_brute_oracle():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([5, 7, 11, 13, 17])
        n = rng.randrange(1, 9)
        elements = [rng.randrange(p) for _ in range(n)]
        brute = brute_subset_sums(elements, p)
        for target in range(p):
            w = subset_sum_find(elements, target, p)
            if target in brute:
                assert w is not None and w.validate(elements)
                assert sum(elements[i] for i in w.indices) % p == target
            else:
                assert w is None


def test_subset_sum_larger_instance():
    rng = random.Random(12)
    elements = [rng.randrange(101) for _ in range(18)]
    brute = brute_subset_sums(elements, 101)
    for target in range(0, 101, 7):
        w = subset_sum_find(elements, target, 101)
        assert (w is not None) == (target in brute)
        if w:
            assert w.validate(elements)


def test_subset_sum_witness_is_nonempty_and_increasing():
    rng = random.Random(13)
    for _ in range(100):
        p = rng.choice([7, 11, 13])
        elements = [rng.randrange(p) for _ in range(rng.randrange(1, 10))]
        w = subset_sum_find(elements, rng.randrange(p), p)
        if w is not None:
            assert len(w.indices) >= 1
            assert all(a < b for a, b in zip(w.indices, w.indices[1:]))


def test_witness_validation_catches_corruption():
    w = subset_sum_find([1, 2, 3], 6, 7)
    bad = SubsetWitness(w.q, (0, 1), w.sum_mod_q, w.facts)
    assert not bad.validate([1, 2, 3])
    bad = SubsetWitness(w.q, (0, 0, 1), w.sum_mod_q, w.facts)
    assert not bad.validate([1, 2, 3])
    bad = SubsetWitness(w.q, (0, 1, 9), w.sum_mod_q, w.facts)
    assert not bad.validate([1, 2, 3])


@pytest.mark.parametrize("indices", [(-2,), (-1, 2), (0, 3)],
                         ids=["negative", "doubled-element", "past-the-end"])
def test_witness_validation_refuses_indices_outside_the_elements(indices):
    # each sum is right under Python's indexing: -2 names 5, and -1 and 2 both
    # name 9; (0, 3) reads past the end
    elements = (3, 5, 9)
    s = sum(elements[i % 3] for i in indices) % 7
    assert SubsetWitness(7, (1,), 5, ((7, "==", 5),)).validate(elements)
    assert not SubsetWitness(7, indices, s, ((7, "==", s),)).validate(elements)


# --- minimal_cover_k ---------------------------------------------------------

def test_minimal_cover_small_values():
    assert minimal_cover_k(2) == 2
    assert minimal_cover_k(3) == 3
    assert minimal_cover_k(5) == 4


def test_minimal_cover_brute_oracle():
    # independent derivation: smallest k with every k-subset covering
    for p in (2, 3, 5, 7):
        k = None
        for size in range(1, p + 1):
            if all(brute_covers(c, p) for c in itertools.combinations(range(p), size)):
                k = size
                break
        assert minimal_cover_k(p) == k


def test_minimal_cover_olson_bound():
    for p in (2, 3, 5, 7, 11, 13):
        assert minimal_cover_k(p) <= math.isqrt(4 * p) + 1


def test_minimal_cover_cap():
    with pytest.raises(ValueError):
        minimal_cover_k(37)
    with pytest.raises(ValueError):
        minimal_cover_k(9)


# --- find_lift_zero ----------------------------------------------------------

def test_lift_zero_examples():
    # single element not a multiple of p: no witness, hypotheses not met
    assert find_lift_zero(ResidueMultiset(Modulus(5, 3), (3,))) is None

    # lifts of 1..69 into Z_142 meet the hypotheses (69 > 4*ceil(2*sqrt(71)) = 68)
    b = ResidueMultiset(Modulus(71, 2), tuple(range(1, 70)))
    w = find_lift_zero(b)
    assert w is not None and w.validate(b.elements)
    s = sum(b.elements[i] for i in w.indices)
    assert s % 71 == 0 and s % 142 != 0

    # multiples of p that are not multiples of q: singleton witness
    b = ResidueMultiset(Modulus(7, 4), (7, 14, 21))
    w = find_lift_zero(b)
    assert w.indices == (0,) and w.sum_mod_q == 7


def test_lift_zero_brute_oracle():
    rng = random.Random(21)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        m = rng.choice([2, 3, 4])
        q = p * m
        elements = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 8)))
        b = ResidueMultiset(Modulus(p, m), elements)
        w = find_lift_zero(b)
        brute = brute_subset_sums(elements, q)
        expect = any(t % p == 0 and t % q != 0 for t in brute)
        assert (w is not None) == expect
        if w:
            assert w.validate(elements)


def test_lift_zero_requires_composite_q():
    with pytest.raises(ValueError):
        find_lift_zero(ResidueMultiset(Modulus(5, 1), (1, 2)))


def test_lift_zero_distinct_flag():
    b = ResidueMultiset(Modulus(5, 2), (1, 6))  # both reduce to 1 mod 5
    with pytest.raises(ValueError):
        find_lift_zero(b, distinct_mod_p=True)
    find_lift_zero(b)  # multiset accepted without the flag


def test_lift_zero_all_multiples_of_q():
    b = ResidueMultiset(Modulus(3, 9), (0, 0))
    assert find_lift_zero(b) is None


# --- schwarzwald -------------------------------------------------------------

def test_shift_single_element_witness():
    # a0 = 0 mod q; an element divisible by p but not q is a one-step witness
    b = ResidueMultiset(Modulus(5, 5), (5, 1, 2))
    w = schwarzwald(b, 0, "direct")
    assert w.indices == (0,) and w.validate(b.elements)


def test_shift_all_zero_elements():
    b = ResidueMultiset(Modulus(5, 5), (0, 0, 0))
    assert schwarzwald(b, 0, "direct") is None


def test_shift_direct_brute_oracle():
    rng = random.Random(22)
    for _ in range(60):
        p = rng.choice([3, 5])
        ell = rng.choice([2, 3])
        q = p**ell
        elements = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 8)))
        a0 = rng.randrange(q)
        b = ResidueMultiset(Modulus(p, p ** (ell - 1)), elements)
        w = schwarzwald(b, a0, "direct")
        brute = brute_subset_sums(elements, q)
        expect = any((a0 + t) % p == 0 and (a0 + t) % q != 0 for t in brute)
        assert (w is not None) == expect
        if w:
            assert w.validate(elements)
            s = sum(elements[i] for i in w.indices)
            assert (a0 + s) % p == 0 and (a0 + s) % q != 0


def test_shift_paper_repair_branch():
    # crafted so the covering step sums to 0 mod q and the repair kicks in
    b = ResidueMultiset(Modulus(7, 7), (0, 1, 2, 3, 4, 5, 6, 7, 8))
    w = schwarzwald(b, 0, "paper")
    assert w is not None and w.validate(b.elements)
    s = sum(b.elements[i] for i in w.indices)
    assert s % 7 == 0 and s % 49 != 0


def test_shift_paper_rejects_thin_inputs():
    b = ResidueMultiset(Modulus(7, 7), (1, 2))
    with pytest.raises(StrategyPreconditionError, match="A1"):
        schwarzwald(b, 0, "paper")


def test_shift_paper_rejects_all_multiples():
    # every element divisible by m: cannot keep a non-multiple outside A1
    b = ResidueMultiset(Modulus(7, 7), tuple(range(0, 49, 7)))
    with pytest.raises(StrategyPreconditionError):
        schwarzwald(b, 0, "paper")


def test_shift_requires_prime_power():
    with pytest.raises(ValueError):
        schwarzwald(ResidueMultiset(Modulus(5, 3), (1,)), 0)
    with pytest.raises(ValueError):
        schwarzwald(ResidueMultiset(Modulus(5, 1), (1,)), 0)


def test_shift_both_strategies_random():
    from cubesieve.harness import random_shift_instance

    rng = random.Random(23)
    for _ in range(15):
        b, a0 = random_shift_instance(rng, 71, 2)
        wd = schwarzwald(b, a0, "direct")
        wp = schwarzwald(b, a0, "paper")
        assert wd is not None and wd.validate(b.elements)
        assert wp is not None and wp.validate(b.elements)
        for w in (wd, wp):
            s = sum(b.elements[i] for i in w.indices)
            assert (a0 + s) % 71 == 0 and (a0 + s) % 5041 != 0


def test_shift_satisfiable_hypothesis_regime():
    # 5*ceil(2*sqrt(p)) + 2 <= p first holds at p = 107; exercise the regime
    # where an empty answer would be a flagged counterexample
    p = 107
    assert 5 * ceil_two_sqrt(p) + 2 <= p
    rng = random.Random(24)
    q = p * p
    elements = tuple(r + p * rng.randrange(p) for r in range(p))
    b = ResidueMultiset(Modulus(p, p), elements)
    assert b.distinct_mod_p() == p >= 5 * ceil_two_sqrt(p) + 2
    for strategy in ("direct", "paper"):
        w = schwarzwald(b, 12345, strategy)
        assert w is not None and w.validate(elements)


def test_theorem_instance_generator_respects_hypotheses():
    from cubesieve.harness import random_lift_instance

    rng = random.Random(25)
    for p, m in ((71, 2), (73, 2), (79, 3)):
        b = random_lift_instance(rng, p, m)
        assert b.distinct_mod_p() > 4 * ceil_two_sqrt(p)
        assert any(e % m for e in b.elements)


# --- the reachability DP's memory bound --------------------------------------

def _peak_mib(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_dp_memory_long_sparse_run():
    # 3000 steps of one new state each: the first-reach table, no snapshots
    found, peak = _peak_mib(lambda: _least_witness([1] * 3000, 200003, 200003, 200002))
    assert found is None
    assert peak < 8


def test_dp_memory_shifted_instance():
    from cubesieve.harness import random_shift_instance

    b, a0 = random_shift_instance(random.Random(0), 71, 3)  # q = 357911
    w, peak = _peak_mib(lambda: schwarzwald(b, a0, "direct"))
    assert w is not None and w.validate(b.elements)
    assert peak < 8


def test_least_witness_read_down_the_tree():
    # more than four candidates each, so the witness is read down the tree.
    # Odd states of Z_10 from [8, 2, 1, 7]: 8 + 2 = 0, and state 1 is first
    # reached as the singleton {2}, whose parent is the empty set, not state
    # 0; the least witness is {0, 2} (8 + 1 = 9)
    assert _least_witness([8, 2, 1, 7], 10, 2, 1) == ((0, 2), 9)
    # every state of Z_6 from [1, 1, 4]: {0} (state 1) is a prefix of every
    # witness below it, so it wins
    assert _least_witness([1, 1, 4], 6, 1, 0) == ((0,), 1)


@pytest.mark.parametrize("p", (10**6, 1000))
def test_dp_memory_past_the_bitset_budget(p):
    # step j reaches j and 500000 + j, two states 500,000 bits apart: the step
    # bitsets reach their 4 bytes per state within 70 steps, and the later
    # steps go to the int32 table; p = 1000 leaves 1,000 targets to compare
    q = 10**6
    values = [500000] + [1] * 2000
    found, peak = _peak_mib(lambda: _least_witness(values, q, p, 3 if p < q else q - 1))
    if p == q:
        assert found is None
    else:
        indices, state = found
        assert state % p == 3 and sum(values[i] for i in indices) % q == state
    assert peak < 12 * q / 2**20  # 12 bytes per state of Z_q


def test_dp_refuses_huge_modulus():
    with pytest.raises(ValueError, match=r"q = 10000001 is too large .* \(max 10\*\*7\)"):
        _least_witness([1, 2], 10**7 + 1, 10**7 + 1, 5)
    with pytest.raises(ValueError, match="too large for the reachability DP"):
        subset_sum_find([1, 2], 5, 1000000007)
    assert _least_witness([1, 2], 10**7, 10**7, 3) == ((0, 1), 3)
    assert _least_witness([1, 2], 10**7, 2, 1, 1) == ((0, 1), 3)


@pytest.mark.parametrize("q, shown", [
    (10**30 - 1, f"q = {10**30 - 1}"),
    (10**30, "q of 100 bits"),
    (10**300 - 1, "q of 997 bits"),
    (10**300, "q of 997 bits"),
    (7**2000, "q of 5615 bits"),
    (10**5000, "q of 16610 bits"),  # past the default int-to-str digit limit
], ids=["10^30-1", "10^30", "10^300-1", "10^300", "7^2000", "10^5000"])
def test_dp_names_a_long_modulus_by_its_digits(q, shown):
    # a modulus of 30 digits or more is named by its binary digits
    with pytest.raises(ValueError) as exc:
        zq._check_dp_modulus(q)
    assert str(exc.value) == f"modulus {shown} is too large for the reachability DP (max 10**7)"


def test_schwarzwald_refusal_does_not_print_m():
    # m = 7^6000 + 1 has 5,071 digits, past the default int-to-str limit
    for m in (7**6000 + 1, 12, 1):
        b = ResidueMultiset(Modulus(7, m), (1, 2, 3))
        with pytest.raises(ValueError) as exc:
            schwarzwald(b, 1)
        assert str(exc.value) == "modulus q = p * m must be p^ell with ell > 1 for p = 7"


def test_dp_names_a_long_modulus_without_a_power_of_ten():
    # q = 7^1000000: counting its 845,099 decimal digits took about 0.4 s
    q = 7**1000000
    start = time.perf_counter()
    with pytest.raises(ValueError, match="modulus q of 2807355 bits is too large"):
        zq._check_dp_modulus(q)
    assert time.perf_counter() - start < 0.05


def test_schwarzwald_refuses_huge_modulus_before_listing_targets():
    b = ResidueMultiset(Modulus(3163, 3163), (1, 2, 3))  # q = 10,004,569
    with pytest.raises(ValueError, match=r"q = 10004569 is too large .* \(max 10\*\*7\)"):
        schwarzwald(b, 0, "direct")


def test_dp_memory_one_class_of_many_targets():
    # q/p = 2**22 target states, named by one mask rather than listed
    b = ResidueMultiset(Modulus(2, 2**22), (1, 3))
    w, peak = _peak_mib(lambda: schwarzwald(b, 0, "direct"))
    assert (w.indices, w.sum_mod_q) == ((0, 1), 4)
    assert peak < 64


def test_dp_target_class_with_few_long_blocks():
    # q = 9p with p near 10**6: a schoolbook division (2^q - 1) // (2^p - 1)
    # costs O(q p) digit steps; the mask's shifts cost O(log(q/p))
    p = 1000003
    q = 9 * p
    assert _least_witness([p + 5], q, p, 5) == ((0,), p + 5)
    assert _least_witness([p], q, p, 5) is None
    assert _least_witness([p, 8 * p], q, p, 0, 0) == ((0,), p)
    assert _least_witness([8 * p], q, p, 0, 8 * p) is None
    assert _least_witness([8 * p, p], q, p, 0, 8 * p) == ((0, 1), 0)


# --- sumsets, Cauchy-Davenport ----------------------------------------------

def test_sumset_examples():
    assert sumset_mod_p({0}, {1, 3}, 5) == {1, 3}
    assert sumset_mod_p({1, 2}, {1, 2}, 5) == {2, 3, 4}
    z5 = set(range(5))
    assert sumset_mod_p(z5, z5, 5) == z5
    with pytest.raises(ValueError):
        sumset_mod_p(set(), {1}, 5)
    with pytest.raises(ValueError):
        sumset_mod_p({5}, {1}, 5)


def test_cauchy_davenport_exhaustive():
    # |A+B| is translation invariant, so fixing 0 in A and B loses nothing
    for p in (3, 5, 7, 11):
        members = list(range(1, p))
        for abits in range(1 << (p - 1)):
            a = {0} | {members[i] for i in range(p - 1) if abits >> i & 1}
            ra = [tuple(sorted((x + b) % p for x in a)) for b in range(p)]
            for bbits in range(1 << (p - 1)):
                b = {0} | {members[i] for i in range(p - 1) if bbits >> i & 1}
                out = set()
                for y in b:
                    out.update(ra[y])
                assert len(out) >= min(p, len(a) + len(b) - 1)


# --- exhaustive covering verification ----------------------------------------

def test_verify_olson_p5():
    rep = verify_olson_exhaustive(5)
    assert rep == OlsonReport(1, 5, ())  # only B = Z_5 itself


def test_verify_olson_p7():
    rep = verify_olson_exhaustive(7)
    assert rep.subsets_checked == 8  # C(7,6) + C(7,7)
    assert not rep.counterexamples


def test_verify_olson_cap():
    with pytest.raises(ValueError):
        verify_olson_exhaustive(17)
