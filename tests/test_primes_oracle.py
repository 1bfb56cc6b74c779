"""Differential tests: cubesieve.primes.PrimeSet, where each constructor
supplies one membership test and the spec string, against the kind-dispatch
PrimeSet it replaced, kept below as a reference implementation (body
unchanged, docstring dropped). Both are built from the same constructor
calls and must agree on describe(), on contains_prime for every prime below
2000, and on primes_up_to at several cutoffs y in a row.

`is_prime`, which runs only the first k Miller-Rabin bases below psi_k, is
held to the loop over all thirteen bases it replaced, kept below too."""

import math
from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st
from test_sieve_oracle import build_prime_set, prime_set_recipes

from cubesieve import primes
from cubesieve.primes import is_prime, parse_prime_set, primes_up_to, validate_definite_form

# ---------------------------------------------------------------------------
# reference implementation (a kind tag and one if-chain per method)


class PrimeSet:
    def __init__(self, kind: str, *, a: int = 0, q: int = 0,
                 plist: tuple[int, ...] = (),
                 form: tuple[int, int, int] | None = None,
                 inner: "PrimeSet | None" = None):
        self.kind = kind
        self.a = a
        self.q = q
        self.plist = plist
        self.form = form
        self.inner = inner
        self._disc = validate_definite_form(*form) if form is not None else 0
        self._cache: list[int] = []
        self._cache_limit = -1

    @classmethod
    def all_primes(cls) -> "PrimeSet":
        return cls("all")

    @classmethod
    def residue_class(cls, a: int, q: int) -> "PrimeSet":
        if q < 1:
            raise ValueError(f"modulus must be positive, got {q}")
        a %= q
        if math.gcd(a, q) != 1:
            raise ValueError(f"residue class {a} mod {q} is not reduced: gcd != 1")
        return cls("class", a=a, q=q)

    @classmethod
    def explicit(cls, primes) -> "PrimeSet":
        plist = tuple(sorted(set(int(p) for p in primes)))
        for p in plist:
            if not is_prime(p):
                raise ValueError(f"explicit prime list contains composite {p}")
        return cls("list", plist=plist)

    @classmethod
    def inert_of_form(cls, a: int, b: int, c: int) -> "PrimeSet":
        return cls("inert", form=(a, b, c))

    @classmethod
    def complement(cls, inner: "PrimeSet") -> "PrimeSet":
        return cls("complement", inner=inner)

    def contains_prime(self, p: int) -> bool:
        """Membership for a number already known to be prime."""
        if self.kind == "all":
            return True
        if self.kind == "class":
            return p % self.q == self.a
        if self.kind == "list":
            return p in self.plist
        if self.kind == "inert":
            return p != 2 and self._disc % p != 0 and pow(self._disc, (p - 1) // 2, p) == p - 1
        return not self.inner.contains_prime(p)

    def primes_up_to(self, y: int) -> list[int]:
        """Members of the set that are <= y, ascending."""
        if y > self._cache_limit:
            if self.kind == "list":
                self._cache = list(self.plist)
            else:
                self._cache = [p for p in primes_up_to(y) if self.contains_prime(p)]
            self._cache_limit = max(y, self.plist[-1] if self.plist else y)
        return self._cache[: bisect_right(self._cache, y)]

    def describe(self) -> str:
        if self.kind == "all":
            return "all"
        if self.kind == "class":
            return f"class:{self.a},{self.q}"
        if self.kind == "list":
            return "list:" + ",".join(str(p) for p in self.plist)
        if self.kind == "inert":
            return "inert:{},{},{}".format(*self.form)
        return "complement:" + self.inner.describe()

    def __repr__(self) -> str:
        return f"PrimeSet({self.describe()!r})"


_ALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime_all_bases(n: int) -> bool:
    if n < 2:
        return False
    for p in _ALL_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _ALL_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# tests

# OEIS A014233: psi_k, the least odd composite that is a strong pseudoprime
# to each of the first k prime bases, for k = 1..13
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def test_is_prime_matches_the_sieve():
    flags = bytearray(10**6 + 1)
    for p in primes_up_to(10**6):
        flags[p] = 1
    assert all(is_prime(n) == flags[n] for n in range(10**6 + 1))


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_rejects_every_psi():
    for k, psi in enumerate(_PSI, 1):
        # psi_k passes the first k bases, so the tier below it must stop short of it
        assert all(_strong_probable_prime(psi, a) for a in _ALL_BASES[:k])
        assert is_prime(psi) == is_prime_all_bases(psi) == (k == 13), k
    # psi_13 passes every base: is_prime is exact only below it. Each tier
    # runs the fewest bases that decide every n below its psi
    assert primes._MR_TIERS == tuple((psi, k) for k, psi in enumerate(_PSI, 1)
                                     if k == 1 or _PSI[k - 2] != psi)


@settings(max_examples=2000, deadline=None)
@given(st.integers(0, 2**80) | st.integers(0, 2**40).map(lambda n: 2 * n + 1))
def test_is_prime_matches_all_bases(n):
    assert is_prime(n) == is_prime_all_bases(n)

_PRIMES_BELOW_2000 = primes_up_to(1999)


@settings(max_examples=300, deadline=None)
@given(prime_set_recipes(max_depth=3), st.lists(st.integers(-1, 3000), min_size=1, max_size=6))
def test_prime_set_matches_reference(recipe, ys):
    new = build_prime_set(primes.PrimeSet, recipe)
    old = build_prime_set(PrimeSet, recipe)
    assert new.describe() == old.describe()
    assert repr(new) == repr(old)
    assert parse_prime_set(new.describe()).describe() == new.describe()
    for p in _PRIMES_BELOW_2000:
        assert new.contains_prime(p) == old.contains_prime(p), p
    # in the drawn order, so the caches grow, are reused and are sliced
    for y in ys:
        assert new.primes_up_to(y) == old.primes_up_to(y), y
