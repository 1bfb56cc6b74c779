"""Prime generation, prime-set descriptors, weighted prime density, and
quadratic-residue tools for positive definite binary quadratic forms."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def primes_up_to(y: int) -> list[int]:
    """All primes <= y, ascending (sieve of Eratosthenes)."""
    if y < 2:
        return []
    sieve = bytearray(b"\x01") * (y + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(y) + 1):
        if sieve[i]:
            start = i * i
            sieve[start::i] = b"\x00" * ((y - start) // i + 1)
    return [i for i in range(y + 1) if sieve[i]]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion.

    Returns 0 iff p | a, else +1/-1 per quadratic residuosity."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def validate_definite_form(a: int, b: int, c: int) -> int:
    """Check that a*x^2 + b*x*y + c*y^2 is irreducible and positive definite.

    Returns the (negative) discriminant b^2 - 4ac; raises ValueError with a
    diagnostic for reducible, indefinite, or negative definite forms."""
    disc = b * b - 4 * a * c
    if _is_square(disc):
        raise ValueError(
            f"form ({a},{b},{c}) is reducible: discriminant {disc} is a perfect square"
        )
    if disc > 0:
        raise ValueError(f"form ({a},{b},{c}) is indefinite: discriminant {disc} > 0")
    if a <= 0:
        raise ValueError(f"form ({a},{b},{c}) is not positive definite: leading coefficient {a} <= 0")
    return disc


def inert_primes(a: int, b: int, c: int, y: int) -> list[int]:
    """Odd primes p <= y, coprime to the discriminant, with (disc/p) = -1.

    For such p, p | a*x^2+b*x*y+c*y^2 forces p^2 | a*x^2+b*x*y+c*y^2.
    p = 2 and primes dividing the discriminant are set aside."""
    return PrimeSet.inert_of_form(a, b, c).primes_up_to(y)


class PrimeSet:
    """A (possibly infinite) set of primes with a lazily grown enumeration cache.

    Kinds: all primes; primes p = a (mod q); an explicit finite list; the
    inert primes of a positive definite form; or the complement of another
    prime set. Caches are rebuilt on demand when a query exceeds the cached
    limit, then read-only."""

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


def parse_prime_set(text: str) -> PrimeSet:
    """Parse `all`, `class:a,q`, `list:p1,p2,...`, `inert:a,b,c`, `complement:<spec>`."""
    text = text.strip()
    if text == "all":
        return PrimeSet.all_primes()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"unrecognized prime-set spec: {text!r}")
    if head == "class":
        a, q = (int(t) for t in rest.split(","))
        return PrimeSet.residue_class(a, q)
    if head == "list":
        parts = [t for t in rest.split(",") if t.strip()]
        return PrimeSet.explicit(int(t) for t in parts)
    if head == "inert":
        a, b, c = (int(t) for t in rest.split(","))
        return PrimeSet.inert_of_form(a, b, c)
    if head == "complement":
        return PrimeSet.complement(parse_prime_set(rest))
    raise ValueError(f"unrecognized prime-set spec: {text!r}")


@dataclass(frozen=True)
class DensityReport:
    """Weighted prime density of a set T up to y: sum of log(p)/sqrt(p) over
    p in T, p <= y, and the same sum normalized by sqrt(y).

    Over all primes the normalized value tends to 2, so a set of relative
    density tau normalizes to about 2*tau."""
    y: int
    weighted_sum: float
    normalized: float


def density(t: PrimeSet, y: int) -> DensityReport:
    if y < 2:
        raise ValueError(f"cutoff must be >= 2, got {y}")
    ws = 0.0
    for p in t.primes_up_to(y):
        ws += math.log(p) / math.sqrt(p)
    return DensityReport(y, ws, ws / math.sqrt(y))
