"""Differential tests: RFull.members_up_to, which sieves the multiples of
each p in T that p^r does not divide out of a bytearray, against the
enumerator it replaced, kept below as a reference implementation (bodies
unchanged). The reference builds a smallest-prime-factor table, factors
every n <= limit again, and keeps n when each p in T divides it either not
at all or at least r times. Both must return the same ascending list."""

import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from test_sieve_oracle import build_prime_set, prime_set_recipes

from cubesieve.arithsets import RFull
from cubesieve.primes import PrimeSet, primes_up_to

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
