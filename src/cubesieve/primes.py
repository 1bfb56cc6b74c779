"""Prime generation, prime-set descriptors, the validation of positive
definite binary quadratic forms, and the bitset codec the other layers
share: one int with bit v set for each value v of a set. `bitset` builds it
through a bytearray and `int.from_bytes`; `set_bits` reads it back from its
binary string (whose last character is bit 0) with `str.rfind`, not one
big-int operation per bit; `iter_set_bits` reads a wide one 2^16 bits at a
time, and `low_bits` reads a few bits of a wide one, lowest set bit first."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from typing import Callable, Iterable, Iterator

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k): psi_k is the least odd composite that is a strong pseudoprime
# to each of the first k bases (OEIS A014233), so those k bases decide every
# n < psi_k; psi_8 = psi_7 and psi_11 = psi_10 = psi_9
_MR_TIERS = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
    (318665857834031151167461, 12), (3317044064679887385961981, 13),
)
MAX_TABLE = 10**8  # largest limit of a table of one byte per integer


def check_table(limit: int, table: str = "the prime sieve table") -> None:
    """Refuse a limit past MAX_TABLE for a table of one byte (or a loop of
    one step) per integer up to it, before anything is built."""
    if limit > MAX_TABLE:
        raise ValueError(f"limit N = {limit} is too large for {table} (max 10**8)")


def bitset(values: Iterable[int], top: int) -> int:
    """The int with bit v set for each v in `values`, all in [0, top]."""
    buf = bytearray(top // 8 + 1)
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def set_bits(x: int, offset: int = 0) -> list[int]:
    """offset + k for each set bit k of x >= 0, ascending."""
    bits = format(x, "b")
    top = offset + len(bits) - 1
    out = []
    k = bits.rfind("1")
    while k >= 0:
        out.append(top - k)
        k = bits.rfind("1", 0, k)
    return out


def low_bits(x: int) -> Iterator[int]:
    """set_bits(x) one value at a time, each read as the lowest set bit of
    what is left: O(size of x) per bit and no string, so for a few bits of
    a wide x."""
    while x:
        bit = x & -x
        x ^= bit
        yield bit.bit_length() - 1


def iter_set_bits(x: int) -> Iterator[int]:
    """set_bits(x) one value at a time, read 2^16 bits of x at a time: a
    wide x costs one byte per 8 bits, not a string of one byte per bit and
    a list of all its values at once."""
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    for j in range(0, len(data), 8192):
        yield from set_bits(int.from_bytes(data[j:j + 8192], "little"), 8 * j)


def _prime_table(y: int) -> bytearray:
    """One byte per n in [0, y], 1 where n is prime (sieve of Eratosthenes),
    for y >= 1."""
    check_table(y)
    sieve = bytearray(b"\x01") * (y + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(y) + 1):
        if sieve[i]:
            start = i * i
            sieve[start::i] = b"\x00" * ((y - start) // i + 1)
    return sieve


def primes_up_to(y: int) -> list[int]:
    """All primes <= y, ascending."""
    if y < 2:
        return []
    return list(itertools.compress(range(y + 1), _prime_table(y)))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41; exact for every
    n below psi_13 = 3317044064679887385961981 (about 3.317e24), the least
    strong pseudoprime to all of them. The bases 2..37 alone pass
    psi_12 = 318665857834031151167461. Below psi_k only the first k bases
    run (`_MR_TIERS`): one base below 2047, seven below 3.4e14."""
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
    k = next((k for psi, k in _MR_TIERS if n < psi), len(_MR_BASES))
    for a in _MR_BASES[:k]:
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


def ceil_two_sqrt(p: int) -> int:
    """ceil(2*sqrt(p)) in exact integer arithmetic."""
    t = math.isqrt(4 * p)
    if t * t < 4 * p:
        t += 1
    return t


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


class PrimeSet:
    """A (possibly infinite) set of primes: one membership test for numbers
    already known to be prime and the spec it is described by.

    Each constructor builds one kind: all primes; primes p = a (mod q); an
    explicit finite list, which is enumerated without sieving; the inert
    primes of a positive definite form; or the complement of another prime
    set. `all` is the sieve's own list. A kind whose membership depends
    only on p mod its period (a residue class, an inert set, the complement
    of either) sieves once up to y, asks `contains_prime` once per residue
    class, of the class's least prime, and zeroes the classes outside the
    set with strided slices of the sieve table; a period past sqrt(y), and
    every other kind, filters the sieve's list through `contains_prime`.
    Each call sieves anew; nothing is cached."""

    def __init__(self, spec: str, contains_prime: Callable[[int], bool],
                 members: tuple[int, ...] | None = None, period: int | None = None):
        self.spec = spec
        self.contains_prime = contains_prime
        self._members = members  # an explicit list, its own enumeration
        self._period = period  # membership depends only on p mod this

    @classmethod
    def all_primes(cls) -> "PrimeSet":
        return cls("all", lambda p: True)

    @classmethod
    def residue_class(cls, a: int, q: int) -> "PrimeSet":
        if q < 1:
            raise ValueError(f"modulus must be positive, got {q}")
        a %= q
        if math.gcd(a, q) != 1:
            raise ValueError(f"residue class {a} mod {q} is not reduced: gcd != 1")
        return cls(f"class:{a},{q}", lambda p: p % q == a, period=q)

    @classmethod
    def explicit(cls, primes) -> "PrimeSet":
        plist = tuple(sorted(set(int(p) for p in primes)))
        for p in plist:
            if not is_prime(p):
                raise ValueError(f"explicit prime list contains composite {p}")
        return cls("list:" + ",".join(str(p) for p in plist), frozenset(plist).__contains__, plist)

    @classmethod
    def inert_of_form(cls, a: int, b: int, c: int) -> "PrimeSet":
        """Odd primes p, coprime to the discriminant, with (disc/p) = -1.

        For such p, p | a*x^2+b*x*y+c*y^2 forces p^2 | a*x^2+b*x*y+c*y^2.
        p = 2 and primes dividing the discriminant are set aside.

        disc = b^2 - 4ac is 0 or 1 mod 4, so the Kronecker symbol (disc/n)
        has period |disc| in n; for odd p it is the Legendre symbol. So the
        answer depends only on p mod |disc|, and Euler's criterion runs once
        per residue class. A class that shares a factor with disc holds only
        primes dividing disc, which are all set aside alike.

        The set's period is |disc| when disc is even. An odd disc has 2 in
        the class 2 mod |disc| beside odd primes, so its period is 2|disc|,
        where the class 2 holds 2 alone."""
        disc = validate_definite_form(a, b, c)
        by_class: dict[int, bool] = {}

        def inert(p: int) -> bool:
            if p == 2:
                return False
            r = p % -disc
            hit = by_class.get(r)
            if hit is None:
                hit = by_class[r] = disc % p != 0 and pow(disc, (p - 1) // 2, p) == p - 1
            return hit

        return cls(f"inert:{a},{b},{c}", inert, period=-disc * (1 + disc % 2))

    @classmethod
    def complement(cls, inner: "PrimeSet") -> "PrimeSet":
        return cls("complement:" + inner.spec, lambda p: not inner.contains_prime(p),
                   period=inner._period)

    @property
    def listed(self) -> bool:
        """True for an explicit list, whose members need no sieve."""
        return self._members is not None

    def primes_up_to(self, y: int) -> list[int]:
        """Members of the set that are <= y, ascending."""
        if self._members is not None:
            return list(self._members[: bisect_right(self._members, y)])
        if self.spec == "all":
            return primes_up_to(y)
        q = self._period
        if q is None or q * q > y:
            return list(filter(self.contains_prime, primes_up_to(y)))
        table = _prime_table(y)
        for r in range(q):
            row = table[r::q]
            first = row.find(1)
            if first >= 0 and not self.contains_prime(r + first * q):
                table[r::q] = bytes(len(row))
        return list(itertools.compress(range(y + 1), table))

    def describe(self) -> str:
        return self.spec

    def __repr__(self) -> str:
        return f"PrimeSet({self.describe()!r})"


def spec_ints(where: str, form: str, names: list[str], parts: list[str]) -> list[int]:
    """The integer fields `parts` of a spec written as `form`, one per name.
    A wrong count or a non-integer field raises a ValueError that starts
    with `where` (the spec quoted) and names the field expected."""
    if len(parts) != len(names):
        raise ValueError(f"{where}: expected the {len(names)} fields of {form}, got {len(parts)}")
    fields = []
    for name, t in zip(names, parts):
        try:
            fields.append(int(t))
        except ValueError:
            raise ValueError(f"{where}: expected an integer {name} in {form}, "
                             f"got {t.strip()[:40]!r}") from None
    return fields


_SPEC_FIELDS = {"class": "a,q", "list": "p1,p2,...", "inert": "a,b,c"}


def parse_prime_set(text: str) -> PrimeSet:
    """Parse `all`, `class:a,q`, `list:p1,p2,...`, `inert:a,b,c`, `complement:<spec>`.
    A malformed spec raises a ValueError that names it and the field expected."""
    text = text.strip()
    if text == "all":
        return PrimeSet.all_primes()
    head, sep, rest = text.partition(":")
    if sep and head == "complement":
        return PrimeSet.complement(parse_prime_set(rest))
    if not sep or head not in _SPEC_FIELDS:
        raise ValueError(f"unrecognized prime-set spec: {text!r}")
    parts = rest.split(",")
    if head == "list":
        parts = [t for t in parts if t.strip()]
        names = [f"p{i}" for i in range(1, len(parts) + 1)]
    else:
        names = _SPEC_FIELDS[head].split(",")
    fields = spec_ints(f"prime-set spec {text[:40]!r}", f"{head}:{_SPEC_FIELDS[head]}",
                       names, parts)
    if head == "list":
        return PrimeSet.explicit(fields)
    if head == "class":
        return PrimeSet.residue_class(*fields)
    return PrimeSet.inert_of_form(*fields)
