"""Multiplicatively defined integer sets, each with a membership test and
an enumerator: r-full numbers relative to a prime set T (squareful is r = 2
over all primes), pure powers a^e (e >= 2), values of positive definite
binary quadratic forms, and the products of primes of T (semigroups). Up to
N = 10**12, r-full numbers over all primes walk the products of p^e (e >= r,
p <= N^(1/r)), and pure powers list a^e. A semigroup over a prime list walks
its products at any N, and a product walk refuses once it holds more than
_MAX_PRODUCTS members. The rest fill a byte per integer up to N = 10**8:
r-full numbers over another T and semigroups over an infinite T strike
multiples in a sieve, and form values are marked over an (x, y) box."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterator

from .primes import (PrimeSet, check_table, is_prime, parse_prime_set, primes_up_to,
                     spec_ints, validate_definite_form)

_MAX_N = 2**63 - 1
# cofactor past which `factorize` splits m rather than dividing up to its
# square root; below it the remaining divisions cost less than the split
_SPLIT_FROM = 1 << 16
# largest limit of the walked member lists (about 2*10**6 squareful numbers
# at 10**12); past it the list alone grows until memory runs out
_MAX_SPARSE = 10**12
# largest member list a product walk may hold (squareful at 10**12 holds
# 2,158,391); an explicit-list semigroup has no limit of its own to refuse
_MAX_PRODUCTS = 1 << 22
_ALL_PRIMES = PrimeSet.all_primes()


def _check_sparse(limit: int, name: str) -> None:
    """Refuse a limit past _MAX_SPARSE before any enumeration loop runs."""
    if limit > _MAX_SPARSE:
        raise ValueError(f"limit N = {limit} is too large for the {name} enumeration (max 10**12)")


def _check_factorable(n: int) -> None:
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"factorize expects 1 <= n < 2**63, got {n}")


def _trial_divisors() -> Iterator[int]:
    """2, 3 and then the 6k +- 1 wheel 5, 7, 11, 13, ...: every prime, and
    composites whose prime factors were divided out before them."""
    yield 2
    yield 3
    f = 5
    while True:
        yield f
        yield f + 2
        f += 6


def _rho(n: int) -> int:
    """A proper factor of a composite n that is not a prime power, by
    Pollard's rho in Brent's form: y -> y^2 + c mod n from y = 2, products
    of |x - y| batched 128 to a gcd, and c = 1, 2, ... until a split."""
    if n % 2 == 0:
        return 2
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical prime factorization: the (prime, exponent) pairs, primes
    ascending. Trial division with a 6k+-1 wheel runs while f^2 <= m for
    the cofactor m left after the divisors below f, and once m passes
    _SPLIT_FROM only while f^3 <= m. Every prime factor of m is then at
    least f: m < f^2 is 1 or a prime, and otherwise m has at most two prime
    factors, so it is a prime (`primes.is_prime`), a prime square, or a
    product of two primes that `_rho` splits."""
    _check_factorable(n)
    m = n
    out = []
    for p in _trial_divisors():
        if p * p > m or m > _SPLIT_FROM and p * p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m < p * p:
        if m > 1:
            out.append((m, 1))
        return tuple(out)
    r = math.isqrt(m)
    if r * r == m:
        out.append((r, 2))
    elif is_prime(m):
        out.append((m, 1))
    else:
        d = _rho(m)
        out += [(min(d, m // d), 1), (max(d, m // d), 1)]
    return tuple(out)


def iroot(n: int, e: int) -> int:
    """Largest r >= 0 with r**e <= n, by integer Newton iteration from an
    overestimate (no floats, so n may have any size)."""
    if n < 0 or e < 1:
        raise ValueError(f"iroot needs n >= 0 and e >= 1, got ({n}, {e})")
    if n < 2 or e == 1:
        return n
    if e >= n.bit_length():  # 2**e > n; Newton from 2 would form 2**(e - 1)
        return 1
    r = 1 << -(-n.bit_length() // e)
    while True:
        nxt = ((e - 1) * r + n // r ** (e - 1)) // e
        if nxt >= r:
            return r
        r = nxt


def is_perfect_power(n: int) -> bool:
    """True iff n = a**e for some e >= 2 (1 = 1**2 qualifies)."""
    if n == 1:
        return True
    for e in range(2, n.bit_length() + 1):
        r = iroot(n, e)
        if r**e == n:
            return True
    return False


class SetDescriptor:
    """Interface for symbolic arithmetic-set descriptors."""

    def contains(self, n: int) -> bool:
        raise NotImplementedError

    def members_up_to(self, limit: int) -> list[int]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


def _products(ps: list[int], limit: int, low: int, name: str) -> list[int]:
    """The products <= limit of p^e, e >= low, over distinct p in the
    ascending list ps (1 included), ascending: one step per product. Past
    _MAX_PRODUCTS products the walk stops and refuses the set, named `name`."""
    out = [1]

    def walk(val: int, i: int):
        for j in range(i, len(ps)):
            v = val * ps[j] ** low
            if v > limit:
                break
            while v <= limit:
                out.append(v)
                if len(out) > _MAX_PRODUCTS:
                    raise ValueError(f"limit N = {limit} is too large for the {name} "
                                     f"enumeration (past {_MAX_PRODUCTS} members)")
                walk(v, j + 1)
                v *= ps[j]

    walk(1, 0)
    return sorted(out)


def _sieve(limit: int, primes: PrimeSet, r: int | None) -> list[int]:
    """The n in [1, limit] that each p in the set divides not at all or at
    least r times, struck in a bytearray; r None strikes each multiple."""
    check_table(limit, "the r-full sieve table" if r else "the prime sieve table")
    keep = bytearray(b"\x01") * (limit + 1)
    keep[0] = 0
    root = iroot(limit, r) if r else 0  # p**r <= limit exactly when p <= root
    for p in primes.primes_up_to(limit):
        if p > root:  # no multiple of p is a member
            keep[p::p] = bytes(limit // p)
            continue
        pr = p**r
        for start in range(p, pr, p):  # n = p, 2p, ..., p**r - p (mod p**r)
            keep[start::pr] = bytes((limit - start) // pr + 1)
    return list(compress(range(limit + 1), keep))


@dataclass(frozen=True)
class RFull(SetDescriptor):
    """n such that p | n and p in T imply p^r | n. Over all primes (spec
    `all`) it walks its members, and trial division stops at f^3 > m, when
    the cofactor m has at most two prime factors; any other T sieves."""
    r: int
    primes: PrimeSet

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"fullness exponent must be >= 2, got {self.r}")

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        if self.primes.spec != "all":
            return all(e >= self.r or not self.primes.contains_prime(p)
                       for p, e in factorize(n))
        _check_factorable(n)
        m = n
        for f in _trial_divisors():
            if f * f * f > m:
                break
            if m % f == 0:
                m //= f
                e = 1
                while m % f == 0:
                    m //= f
                    e += 1
                if e < self.r:
                    return False
        return m == 1 or self.r == 2 and math.isqrt(m) ** 2 == m

    def members_up_to(self, limit: int) -> list[int]:
        if limit < 1:
            return []
        if self.primes.spec != "all":
            return _sieve(limit, self.primes, self.r)
        _check_sparse(limit, self.describe())
        return _products(primes_up_to(iroot(limit, self.r)), limit, self.r, self.describe())

    def describe(self) -> str:
        return f"rfull:{self.r},{self.primes.describe()}"


class Squareful(RFull):
    """n such that p | n implies p^2 | n (the powerful numbers): rfull:2,all."""

    def __init__(self):
        super().__init__(2, _ALL_PRIMES)

    def describe(self) -> str:
        return "squareful"


@dataclass(frozen=True)
class PurePowers(SetDescriptor):
    """n = a^e with e >= 2 (1 = 1^2 included)."""

    def contains(self, n: int) -> bool:
        return n >= 1 and is_perfect_power(n)

    def members_up_to(self, limit: int) -> list[int]:
        _check_sparse(limit, "pure-power")
        if limit < 1:
            return []
        out = {1}
        for e in range(2, limit.bit_length()):  # 2**e <= limit
            out.update(a**e for a in range(2, iroot(limit, e) + 1))
        return sorted(out)

    def describe(self) -> str:
        return "purepowers"


@dataclass(frozen=True)
class QuadForm(SetDescriptor):
    """Positive values of an irreducible positive definite form
    a*x^2 + b*x*y + c*y^2 with x, y ranging over all integers."""
    a: int
    b: int
    c: int

    def __post_init__(self):
        validate_definite_form(self.a, self.b, self.c)

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        # 4c*f(x,y) = (2cy + bx)^2 + |d| x^2 bounds |x|; solve for y per x
        d = self.disc
        b, c = self.b, self.c
        xmax = math.isqrt(4 * c * n // -d)
        check_table(2 * xmax + 1, "the form's scan over x")  # one isqrt per x
        for x in range(-xmax, xmax + 1):
            disc_y = d * x * x + 4 * c * n
            t = math.isqrt(disc_y)
            if t * t != disc_y:
                continue
            if (-b * x + t) % (2 * c) == 0 or (-b * x - t) % (2 * c) == 0:
                return True
        return False

    def members_up_to(self, limit: int) -> list[int]:
        check_table(limit, "the form's value table")
        if limit < 1:
            return []
        a, b, c, d = self.a, self.b, self.c, self.disc
        xmax = math.isqrt(4 * c * limit // -d)
        ymax = math.isqrt(4 * a * limit // -d)
        mark = bytearray(limit + 1)
        for y in range(ymax + 1):  # f(x,-y) = f(-x,y), so y >= 0 suffices
            cy2 = c * y * y
            by = b * y
            for x in range(-xmax, xmax + 1):
                v = a * x * x + by * x + cy2
                if 1 <= v <= limit:
                    mark[v] = 1
        return list(compress(range(limit + 1), mark))

    def describe(self) -> str:
        return f"quadform:{self.a},{self.b},{self.c}"


@dataclass(frozen=True)
class Semigroup(SetDescriptor):
    """n whose prime factors all lie in T (multiplicatively closed)."""
    primes: PrimeSet

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        return all(self.primes.contains_prime(p) for p, _ in factorize(n))

    def members_up_to(self, limit: int) -> list[int]:
        if limit < 1:
            return []
        if self.primes.listed:
            return _products(self.primes.primes_up_to(limit), limit, 1, self.describe())
        return _sieve(limit, PrimeSet.complement(self.primes), None)

    def describe(self) -> str:
        return f"semigroup:{self.primes.describe()}"


def is_member(s: SetDescriptor, n: int) -> bool:
    if n < 1:
        raise ValueError(f"set membership is defined on positive integers, got {n}")
    return s.contains(n)


def enumerate_members(s: SetDescriptor, limit: int) -> list[int]:
    """Ascending members of s in [1, limit]."""
    if limit < 1:
        raise ValueError(f"enumeration limit must be >= 1, got {limit}")
    return s.members_up_to(limit)


def parse_set_descriptor(text: str) -> SetDescriptor:
    """Parse `squareful`, `rfull:r,<primeset>`, `purepowers`, `quadform:a,b,c`,
    `semigroup:<primeset>`. A malformed integer field raises a ValueError
    that names the descriptor and the field expected."""
    text = text.strip()
    if text == "squareful":
        return Squareful()
    if text == "purepowers":
        return PurePowers()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"unrecognized set descriptor: {text!r}")
    where = f"set descriptor {text[:40]!r}"
    if head == "rfull":
        rtext, sep2, pset = rest.partition(",")
        if not sep2:
            raise ValueError(f"rfull needs `rfull:r,<primeset>`, got {text!r}")
        return RFull(spec_ints(where, "rfull:r,<primeset>", ["r"], [rtext])[0],
                     parse_prime_set(pset))
    if head == "quadform":
        return QuadForm(*spec_ints(where, "quadform:a,b,c", ["a", "b", "c"], rest.split(",")))
    if head == "semigroup":
        return Semigroup(parse_prime_set(rest))
    raise ValueError(f"unrecognized set descriptor: {text!r}")
