import random

import pytest

from cubesieve import arithsets, primes
from cubesieve.arithsets import (
    PurePowers,
    QuadForm,
    RFull,
    Semigroup,
    Squareful,
    enumerate_members,
    factorize,
    iroot,
    is_member,
    is_perfect_power,
    parse_set_descriptor,
)
from cubesieve.primes import PrimeSet, primes_up_to


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(72) == ((2, 3), (3, 2))
    assert factorize(9991) == ((97, 1), (103, 1))


def test_factorize_reconstructs():
    rng = random.Random(2)
    samples = [rng.randrange(1, 10**6) for _ in range(200)]
    samples += [2**40, 3 * 5**9, 999983, 2**62]
    for n in samples:
        f = factorize(n)
        prod = 1
        for p, e in f:
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert list(f) == sorted(f)


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """Plain trial division by 2 and the odd numbers up to sqrt(m)."""
    out, m, f = [], n, 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def test_factorize_matches_trial_division():
    for n in range(1, 2 * 10**5 + 1):
        assert factorize(n) == _trial_division(n), n


def _primes_from(start: int, count: int) -> list[int]:
    out, n = [], start
    while len(out) < count:
        if primes.is_prime(n):
            out.append(n)
        n += 1
    return out


def test_factorize_near_2_62():
    # past the f^3 stop the cofactor is a prime, a prime square, or two
    # primes that only the rho split can find
    big = _primes_from(2**62, 2)
    mid = _primes_from(2**31 - 40, 3)
    small = _primes_from(2**21, 1)
    for p in big:
        assert factorize(p) == ((p, 1),)
    for p in mid:
        assert factorize(p * p) == ((p, 2),)
    for p, q in zip(mid, mid[1:]):
        assert factorize(p * q) == ((p, 1), (q, 1))
    for p in small:  # one factor just past the cube root, one near 2^39
        q = _primes_from(2**60 // p, 1)[0]
        assert factorize(p * q) == ((p, 1), (q, 1))
        assert factorize(4 * p * q) == ((2, 2), (p, 1), (q, 1))


def test_factorize_range():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**63)


def _squareful_by_factors(n: int) -> bool:
    return all(e >= 2 for _, e in factorize(n))


def test_squareful_membership_matches_factorization():
    # the membership test stops trial division at f^3 > m; every n up to
    # 10^5, and products of large primes whose cofactor is left undivided
    s = Squareful()
    for n in range(1, 10**5 + 1):
        assert s.contains(n) == _squareful_by_factors(n)
    big = [10007, 65537, 1000003]
    for n in [p * q * r for p in big for q in big for r in big] + [
            8 * 1000003**2, 9 * 1000003, 72 * 999983 * 1000003, 1000003**3 * 4]:
        assert s.contains(n) == _squareful_by_factors(n), n


def test_iroot():
    assert iroot(0, 3) == 0
    assert iroot(1, 5) == 1
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    for n in (10**15 - 1, 10**15, 10**15 + 1):
        for e in (2, 3, 5, 7):
            r = iroot(n, e)
            assert r**e <= n < (r + 1) ** e
    for n in (10**400 - 1, 10**400, 10**400 + 1):
        for e in (2, 3, 7, 400, 1329):
            r = iroot(n, e)
            assert r**e <= n < (r + 1) ** e


def test_is_perfect_power():
    powers = {a**e for e in range(2, 20) for a in range(1, 200) if a**e <= 10**4}
    powers.add(1)
    for n in range(1, 10**4 + 1):
        assert is_perfect_power(n) == (n in powers)
    assert is_perfect_power(10**400) and not is_perfect_power(10**400 + 1)


def test_membership_examples():
    assert is_member(Squareful(), 72)
    assert not is_member(Squareful(), 12)
    assert is_member(PurePowers(), 1)
    assert not is_member(QuadForm(1, 0, 1), 21)
    assert is_member(QuadForm(1, 0, 1), 25)


def test_one_is_member_everywhere():
    allp = PrimeSet.all_primes()
    for s in (Squareful(), RFull(2, allp), PurePowers(), Semigroup(allp)):
        assert is_member(s, 1)


def test_membership_rejects_nonpositive():
    with pytest.raises(ValueError):
        is_member(Squareful(), 0)


def test_enumerate_examples():
    assert enumerate_members(Squareful(), 50) == [1, 4, 8, 9, 16, 25, 27, 32, 36, 49]
    assert enumerate_members(PurePowers(), 30) == [1, 4, 8, 9, 16, 25, 27]
    assert enumerate_members(Squareful(), 3) == [1]


def test_enumerate_matches_membership():
    # oracle equivalence: the fast enumerators against one-at-a-time membership
    variants = [
        Squareful(),
        RFull(2, PrimeSet.all_primes()),
        PurePowers(),
        QuadForm(1, 0, 1),
        Semigroup(PrimeSet.explicit([2, 3, 5])),
    ]
    for s in variants:
        assert enumerate_members(s, 10**5) == [
            n for n in range(1, 10**5 + 1) if s.contains(n)
        ], s.describe()
    for s in [
        RFull(3, PrimeSet.residue_class(1, 2)),
        Semigroup(PrimeSet.complement(PrimeSet.explicit([2]))),
    ]:
        assert enumerate_members(s, 10**4) == [
            n for n in range(1, 10**4 + 1) if s.contains(n)
        ], s.describe()


def test_squareful_enumeration_large():
    # the a^2 b^3 parameterization at a size where per-element factoring is slow
    members = enumerate_members(Squareful(), 10**6)
    assert members[0] == 1 and members[-1] == 10**6
    rng = random.Random(3)
    mset = set(members)
    for n in rng.sample(range(1, 10**6 + 1), 300):
        assert (n in mset) == is_member(Squareful(), n)


def test_rfull_equals_squareful():
    rf = RFull(2, PrimeSet.all_primes())
    sq = Squareful()
    assert enumerate_members(rf, 10**4) == enumerate_members(sq, 10**4)


def test_rfull_divisibility_restatement():
    t = PrimeSet.explicit([2, 5, 7])
    s = RFull(3, t)
    for n in enumerate_members(s, 10**4):
        for p in (2, 5, 7):
            if n % p == 0:
                assert n % p**3 == 0


def test_squareful_multiplicatively_closed():
    members = enumerate_members(Squareful(), 10**3)
    for m in members:
        for n in members:
            assert is_member(Squareful(), m * n)


def test_two_squares_criterion():
    # sum of two squares iff no prime = 3 mod 4 appears to an odd exponent
    s = QuadForm(1, 0, 1)
    members = set(enumerate_members(s, 10**4))
    for n in range(1, 10**4 + 1):
        classical = all(
            e % 2 == 0 for p, e in factorize(n) if p % 4 == 3
        )
        assert (n in members) == classical, n


def test_quadform_validation():
    with pytest.raises(ValueError):
        QuadForm(1, 0, -1)
    with pytest.raises(ValueError):
        QuadForm(1, 2, 1)
    with pytest.raises(ValueError):
        QuadForm(-1, 0, -2)


def test_quadform_nontrivial_form():
    s = QuadForm(2, 1, 3)  # disc -23
    got = enumerate_members(s, 200)
    brute = set()
    for x in range(-30, 31):
        for y in range(-30, 31):
            v = 2 * x * x + x * y + 3 * y * y
            if 1 <= v <= 200:
                brute.add(v)
    assert got == sorted(brute)


def test_semigroup_smooth_numbers():
    s = Semigroup(PrimeSet.explicit([2, 3]))
    assert enumerate_members(s, 50) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48]


def test_rfull_requires_r_at_least_two():
    with pytest.raises(ValueError):
        RFull(1, PrimeSet.all_primes())


def test_parse_set_descriptor():
    for text in [
        "squareful",
        "purepowers",
        "rfull:3,class:3,4",
        "quadform:1,0,1",
        "semigroup:list:2,3",
    ]:
        s = parse_set_descriptor(text)
        assert s.describe() == text
    with pytest.raises(ValueError):
        parse_set_descriptor("cubes")
    with pytest.raises(ValueError):
        parse_set_descriptor("rfull:2")


def test_enumerate_rejects_bad_limit():
    with pytest.raises(ValueError):
        enumerate_members(Squareful(), 0)


def _unreachable(*args):
    raise AssertionError("allocated past the size guard")


@pytest.mark.parametrize("s, table", [
    (RFull(2, PrimeSet.inert_of_form(1, 1, 1)), "the r-full sieve table"),
    (RFull(2, PrimeSet.explicit([2, 3])), "the r-full sieve table"),
    (QuadForm(1, 0, 1), "the form's value table"),
    # a semigroup over a sieved prime set sieves its primes up to the limit
    (Semigroup(PrimeSet.residue_class(1, 4)), "the prime sieve table"),
])
def test_table_enumerators_refuse_huge_limit(s, table, monkeypatch):
    # each builds a table of limit bytes; refused before it is allocated
    monkeypatch.setattr(arithsets, "bytearray", _unreachable, raising=False)
    monkeypatch.setattr(primes, "bytearray", _unreachable, raising=False)
    for limit in (10**8 + 1, 10**11):
        with pytest.raises(ValueError, match=rf"limit N = {limit} is too large for "
                                             rf"{table} \(max 10\*\*8\)"):
            enumerate_members(s, limit)


def test_untabled_enumerators_pass_the_cap():
    # no limit-byte table: these still enumerate past 10**8
    assert enumerate_members(Squareful(), 10**8 + 1)[-1] == 10**8
    assert enumerate_members(PurePowers(), 10**8 + 1)[-1] == 10**8
    smooth = sum(1 for a in range(40) for b in range(26) if 2**a * 3**b <= 10**12)
    assert len(enumerate_members(Semigroup(PrimeSet.explicit([2, 3])), 10**12)) == smooth


@pytest.mark.parametrize("n, scan", [(3 * 10**15 + 3, 109544511), (10**18 + 7, 2000000001)])
def test_quadform_contains_refuses_a_huge_x_scan(n, scan, monkeypatch):
    # one isqrt per x in [-isqrt(n), isqrt(n)]: 3e15 took 46 s before the
    # guard; refused before the first x is tried
    monkeypatch.setattr(arithsets, "range", _unreachable, raising=False)
    with pytest.raises(ValueError, match=rf"limit N = {scan} is too large for "
                                         r"the form's scan over x \(max 10\*\*8\)"):
        QuadForm(1, 0, 1).contains(n)


def test_quadform_contains_answers_up_to_the_scan_cap(monkeypatch):
    # with the cap at 101 values of x, n up to 51^2 - 1 answers as before
    monkeypatch.setattr(primes, "MAX_TABLE", 101)
    s = QuadForm(1, 0, 1)
    assert [s.contains(n) for n in (2499, 2500, 2600)] == [False, True, True]
    with pytest.raises(ValueError, match="limit N = 103 is too large"):
        s.contains(2601)
