import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesieve import primes
from cubesieve.primes import (
    PrimeSet,
    bitset,
    is_prime,
    low_bits,
    parse_prime_set,
    primes_up_to,
    set_bits,
    validate_definite_form,
)


def trial_division_primes(y):
    out = []
    for n in range(2, y + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def brute_residues(p):
    return {x * x % p for x in range(1, p)}


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion: the
    oracle for inert membership, kept apart from the code it checks.

    Returns 0 iff p | a, else +1/-1 per quadratic residuosity."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def test_primes_up_to_small():
    assert primes_up_to(1) == []
    assert primes_up_to(0) == []
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(2) == [2]


def test_primes_up_to_oracle():
    got = primes_up_to(100)
    assert len(got) == 25 and got[-1] == 97
    assert got == trial_division_primes(100)
    assert primes_up_to(1000) == trial_division_primes(1000)


def test_is_prime():
    ps = set(trial_division_primes(2000))
    for n in range(2000):
        assert is_prime(n) == (n in ps)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to every
    # base up to 37, and the prime 2^61 - 1
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1)


def test_legendre_examples():
    assert legendre(1, 5) == 1
    assert legendre(-4, 3) == -1
    assert legendre(-4, 5) == 1


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 4)
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 15)


def test_legendre_against_brute_squares():
    for p in trial_division_primes(100):
        if p == 2:
            continue
        residues = brute_residues(p)
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in residues else -1)
            assert legendre(a, p) == expected


def test_legendre_multiplicative():
    rng = random.Random(1)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 97, 101])
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


def test_inert_primes_examples():
    assert PrimeSet.inert_of_form(1, 0, 1).primes_up_to(20) == [3, 7, 11, 19]
    assert PrimeSet.inert_of_form(1, 0, 1).primes_up_to(2) == []
    assert PrimeSet.inert_of_form(1, 1, 1).primes_up_to(20) == [5, 11, 17]


def test_inert_primes_brute_crosscheck():
    # inert exactly when the discriminant misses every nonzero square mod p
    for a, b, c in [(1, 0, 1), (1, 1, 1), (2, 1, 3)]:
        disc = b * b - 4 * a * c
        got = set(PrimeSet.inert_of_form(a, b, c).primes_up_to(100))
        for p in trial_division_primes(100):
            if p == 2 or disc % p == 0:
                assert p not in got
                continue
            assert (p in got) == (disc % p not in brute_residues(p))


@pytest.mark.parametrize("form", [(1, 1, 1), (1, 0, 1), (1, 1, 2), (1, 0, 5), (1, 1, 6),
                                  (1, 0, 4), (1, 0, 9)])
def test_inert_membership_matches_legendre(form):
    # discriminants -3, -4, -7, -20, -23 and the non-fundamental -16, -36;
    # every prime below 10^5, including 2 and the primes dividing the
    # discriminant. The set answers once per class of p mod |disc|, so it is
    # also queried descending, listed, and complemented.
    disc = validate_definite_form(*form)
    primes_below = primes_up_to(10**5)
    expected = [p for p in primes_below
                if p != 2 and disc % p != 0 and legendre(disc, p) == -1]
    ps = PrimeSet.inert_of_form(*form)
    assert [p for p in primes_below if ps.contains_prime(p)] == expected
    descending = PrimeSet.inert_of_form(*form)
    assert [p for p in reversed(primes_below) if descending.contains_prime(p)] == expected[::-1]
    spec = "inert:{},{},{}".format(*form)
    assert parse_prime_set(spec).primes_up_to(10**5) == expected
    inert = set(expected)
    assert parse_prime_set("complement:" + spec).primes_up_to(10**5) == \
        [p for p in primes_below if p not in inert]


def test_form_validation():
    with pytest.raises(ValueError, match="reducible"):
        validate_definite_form(1, 0, 0)
    with pytest.raises(ValueError, match="reducible"):
        validate_definite_form(1, 3, 2)  # disc 1
    with pytest.raises(ValueError, match="indefinite"):
        validate_definite_form(1, 0, -3)  # disc 12
    with pytest.raises(ValueError, match="positive definite"):
        validate_definite_form(-1, 0, -1)


def test_prime_set_kinds():
    allp = PrimeSet.all_primes()
    assert allp.primes_up_to(10) == [2, 3, 5, 7]
    cls = PrimeSet.residue_class(3, 4)
    assert cls.primes_up_to(30) == [3, 7, 11, 19, 23]
    lst = PrimeSet.explicit([7, 3, 3, 5])
    assert lst.primes_up_to(6) == [3, 5]
    assert lst.primes_up_to(100) == [3, 5, 7]
    inert = PrimeSet.inert_of_form(1, 0, 1)
    assert inert.primes_up_to(20) == [3, 7, 11, 19]


def test_prime_set_validation():
    with pytest.raises(ValueError):
        PrimeSet.residue_class(2, 4)
    with pytest.raises(ValueError):
        PrimeSet.explicit([4])


def test_complement_involution():
    t = PrimeSet.residue_class(1, 4)
    cc = PrimeSet.complement(PrimeSet.complement(t))
    for y in (10, 100, 1000):
        assert cc.primes_up_to(y) == t.primes_up_to(y)


def test_complement_partition():
    t = PrimeSet.residue_class(3, 4)
    comp = PrimeSet.complement(t)
    got = sorted(t.primes_up_to(200) + comp.primes_up_to(200))
    assert got == primes_up_to(200)


def test_cache_regrow():
    t = PrimeSet.all_primes()
    assert t.primes_up_to(10) == [2, 3, 5, 7]
    assert t.primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert t.primes_up_to(10) == [2, 3, 5, 7]


def test_parse_round_trip():
    for text in ["all", "class:3,4", "list:2,5,11", "inert:1,0,1", "complement:class:1,3"]:
        ps = parse_prime_set(text)
        assert ps.describe() == text
        assert parse_prime_set(ps.describe()).primes_up_to(50) == ps.primes_up_to(50)
    with pytest.raises(ValueError):
        parse_prime_set("nonsense")
    with pytest.raises(ValueError):
        parse_prime_set("class:2,4")


def _unreachable(*args):
    raise AssertionError("allocated past the size guard")


def test_primes_up_to_refuses_huge_limit(monkeypatch):
    # the sieve table needs y bytes; refused before it is allocated
    monkeypatch.setattr(primes, "bytearray", _unreachable, raising=False)
    for y in (10**8 + 1, 10**11):
        with pytest.raises(ValueError, match=rf"limit N = {y} is too large for "
                                             r"the prime sieve table \(max 10\*\*8\)"):
            primes_up_to(y)
        with pytest.raises(ValueError, match="prime sieve table"):
            PrimeSet.residue_class(1, 4).primes_up_to(y)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bitset_codec_round_trip(data):
    top = data.draw(st.integers(0, 3000))
    vals = data.draw(st.lists(st.one_of(st.integers(0, top), st.sampled_from((0, top))),
                              max_size=40))
    off = data.draw(st.integers(-5000, 5000))
    x = bitset(vals, top)
    assert x.bit_length() <= top + 1
    assert set_bits(x, off) == [v + off for v in sorted(set(vals))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 5000), max_size=6), st.integers(0, 5000))
def test_low_bits_lists_the_set_bits(vals, top):
    x = bitset(vals, max(vals + [top]))
    assert list(low_bits(x)) == set_bits(x)
