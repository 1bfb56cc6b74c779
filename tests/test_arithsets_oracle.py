"""Differential tests: each enumerator of cubesieve.arithsets against the
code it replaced, kept below as reference implementations (bodies unchanged
but for the size guards).

- RFull's bytearray sieve, which strikes the multiples of each p in T that
  p^r does not divide, against a smallest-prime-factor table that factors
  every n <= limit again and keeps n when each p in T divides it either not
  at all or at least r times.
- The product walk of RFull over all primes against that sieve, and the
  squareful numbers against their a^2 * b^3 (b squarefree) enumeration.
- Semigroup's strike sieve over an infinite prime set against the
  recursion over the primes of T that the walk still runs for a list.
- RFull's early-exit membership over all primes against the rule read off
  the factorization.

Each pair must give the same ascending list, or the same answer."""

import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from test_sieve_oracle import build_prime_set, prime_set_recipes

from cubesieve import arithsets
from cubesieve.arithsets import RFull, Semigroup, Squareful, factorize
from cubesieve.primes import PrimeSet, parse_prime_set, primes_up_to

# ---------------------------------------------------------------------------
# reference implementation (a smallest-factor table, every n factored)


def smallest_factor_table(limit: int) -> list[int]:
    """spf[n] = smallest prime factor of n, for 0 <= n <= limit."""
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _factor_pairs_spf(n: int, spf: list[int]):
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        yield p, e


@dataclass(frozen=True)
class ReferenceRFull:
    r: int
    primes: PrimeSet

    def members_up_to(self, limit: int) -> list[int]:
        """Default enumeration: factor every integer once via a shared table."""
        if limit < 1:
            return []
        spf = smallest_factor_table(limit)
        return [1] + [
            n for n in range(2, limit + 1)
            if self._factored_ok(_factor_pairs_spf(n, spf))
        ]

    def _factored_ok(self, pairs) -> bool:
        return all(e >= self.r or not self.primes.contains_prime(p) for p, e in pairs)


def reference_squareful(limit: int) -> list[int]:
    # every squareful number is a^2 * b^3 with b squarefree; this keeps
    # enumeration O(sqrt(limit)) instead of factoring every integer
    out = set()
    b = 1
    while b**3 <= limit:
        if all(e == 1 for _, e in factorize(b)):  # b squarefree
            bb = b**3
            for a in range(1, math.isqrt(limit // bb) + 1):
                out.add(a * a * bb)
        b += 1
    return sorted(out)


def reference_semigroup(primes: PrimeSet, limit: int) -> list[int]:
    if limit < 1:
        return []
    ps = primes.primes_up_to(limit)
    out = [1]

    def rec(val: int, i: int):
        for j in range(i, len(ps)):
            v = val * ps[j]
            if v > limit:
                break
            while v <= limit:
                out.append(v)
                rec(v, j + 1)
                v *= ps[j]

    rec(1, 0)
    return sorted(out)


# ---------------------------------------------------------------------------
# differential tests

_MAX_LIMIT = 5000
# past the bit length of every limit drawn, so no p**r fits under the limit;
# small enough that powers of it stay cheap (the subprocess test below
# covers an r whose powers would not finish)
_LARGE_R = 10**4


def _edges(r: int) -> list[int]:
    """p^r - 1, p^r and p^r + 1 for every prime p with p^r + 1 <= the cap."""
    return [p**r + d for p in primes_up_to(math.isqrt(_MAX_LIMIT))
            if p**r + 1 <= _MAX_LIMIT for d in (-1, 0, 1)]


@st.composite
def _cases(draw):
    r = draw(st.integers(2, 6) | st.just(_LARGE_R))
    limits = st.integers(1, _MAX_LIMIT)
    if r != _LARGE_R:
        limits = limits | st.sampled_from(_edges(r))
    return r, draw(prime_set_recipes()), draw(limits)


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_rfull_members_match_reference(case):
    r, recipe, limit = case
    new = RFull(r, build_prime_set(PrimeSet, recipe)).members_up_to(limit)
    old = ReferenceRFull(r, build_prime_set(PrimeSet, recipe)).members_up_to(limit)
    assert new == old


_ALL = PrimeSet.all_primes()
_WALK_LIMITS = st.integers(1, 10**5)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), _WALK_LIMITS)
def test_rfull_walk_matches_sieve_over_all_primes(r, limit):
    assert RFull(r, _ALL).members_up_to(limit) == arithsets._sieve(limit, _ALL, r)


@settings(max_examples=100, deadline=None)
@given(_WALK_LIMITS, st.data())
def test_squareful_is_rfull_2_all(limit, data):
    members = Squareful().members_up_to(limit)
    assert members == RFull(2, _ALL).members_up_to(limit) == reference_squareful(limit)
    member_set = set(members)
    for n in data.draw(st.lists(st.integers(1, limit), max_size=50)):
        assert Squareful().contains(n) == RFull(2, _ALL).contains(n) == (n in member_set)


_SIEVED_SEMIGROUPS = ["all", "class:1,4", "inert:1,1,1", "complement:list:2", "complement:all"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SIEVED_SEMIGROUPS), _WALK_LIMITS)
def test_semigroup_sieve_matches_recursion(spec, limit):
    primes = parse_prime_set(spec)
    assert Semigroup(primes).members_up_to(limit) == reference_semigroup(primes, limit)


def _times_prime_power(a: int, p: int, k: int) -> int:
    return a * p**k


# n up to 10**5, and a * p^k with p large enough that the trial division
# stops at f^3 > m with p or p^2 left in the cofactor
_MEMBERSHIP_INPUTS = st.integers(1, 10**5) | st.builds(
    _times_prime_power, st.integers(1, 10**4),
    st.sampled_from([2, 3, 5, 97, 10007, 65537, 1000003, 2147483647]), st.integers(1, 6),
).filter(lambda n: n < 2**63)


@settings(max_examples=500, deadline=None)
@given(st.integers(2, 6), _MEMBERSHIP_INPUTS)
def test_rfull_membership_over_all_primes_matches_factorization(r, n):
    assert RFull(r, _ALL).contains(n) == all(e >= r for _, e in factorize(n))


def test_rfull_huge_exponent_stays_cheap():
    # a child process, so a sieve or iroot that forms 2**(r - 1) fails on
    # the timeout instead of holding the suite inside one big-int power
    proc = subprocess.run(
        [sys.executable, "-m", "cubesieve", "enumerate", "--set", "rfull:1000000000,all",
         "--limit", "100"],
        cwd=Path(__file__).resolve().parent.parent / "src",
        capture_output=True, text=True, timeout=3,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "n\n1\n", "")
