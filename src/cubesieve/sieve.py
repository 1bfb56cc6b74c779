"""Larger-sieve bound evaluation over primes and prime powers.

The plain bound certifies, for a set lying in at most nu(p^i) residue
classes modulo each chosen prime power, that its count up to N is at most

    (-log N + sum log p) / (-log N + sum log p / nu(p^i))

whenever the denominator is positive (the numerator's log p is the log of
the prime base, not of the prime power). The weighted variant replaces
1/nu with the normalized second moment of the occupancy counts."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .arithsets import factorize
from .primes import PrimeSet
from .zq import ceil_two_sqrt

DENOM_TOL = 1e-9


def _prime_power(modulus: int) -> tuple[int, int]:
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    factors = factorize(modulus).factors
    if len(factors) != 1:
        raise ValueError(f"{modulus} is not a prime power")
    return factors[0]


@dataclass(frozen=True)
class ResidueProfile:
    """Occupied residue classes of a multiset modulo a prime power.

    `counts` holds the occupancy of each class (None for synthetic profiles
    built from a class-count model), `nu` the number of occupied classes,
    `size` the number of profiled integers, `sumsq` the second moment
    sum_h Z(h)^2 of the occupancies."""
    modulus: int
    prime: int
    exponent: int
    nu: float
    counts: tuple[int, ...] | None
    size: int
    sumsq: int | None = None


def profile(values: Iterable[int], modulus: int) -> ResidueProfile:
    """Exact occupancy counts of `values` modulo a prime power."""
    vals = list(values)
    if not vals:
        raise ValueError("cannot profile an empty set")
    p, i = _prime_power(modulus)
    counts = [0] * modulus
    for v in vals:
        counts[v % modulus] += 1
    nu = sum(1 for c in counts if c)
    return ResidueProfile(
        modulus, p, i, nu, tuple(counts), len(vals), sum(c * c for c in counts)
    )


def model_profile(modulus: int, nu: float) -> ResidueProfile:
    """Synthetic profile carrying only a class-count model value."""
    if nu <= 0:
        raise ValueError(f"class count must be positive, got {nu}")
    p, i = _prime_power(modulus)
    return ResidueProfile(modulus, p, i, float(nu), None, 0)


@dataclass(frozen=True)
class SieveBoundReport:
    """Evaluated sieve inequality; bound is None when the denominator is
    not positive (the inequality then certifies nothing)."""
    log_n: float
    numerator: float
    denominator: float
    bound: float | None
    moduli_used: tuple[int, ...]
    variant: str

    @property
    def unbounded(self) -> bool:
        return self.bound is None


def _check_moduli(profiles: Sequence[ResidueProfile]) -> list[ResidueProfile]:
    profs = sorted(profiles, key=lambda r: r.modulus)
    for a, b in zip(profs, profs[1:]):
        if a.modulus == b.modulus:
            raise ValueError(f"duplicate modulus {a.modulus}")
    return profs


def _check_log_n(log_n: float) -> None:
    if not (math.isfinite(log_n) and log_n > 0):
        raise ValueError(f"log N must be {'finite' if log_n > 0 else 'positive'}, got {log_n}")


def gallagher_bound(profiles: Sequence[ResidueProfile], log_n: float) -> SieveBoundReport:
    """Plain larger-sieve bound from per-modulus class counts."""
    _check_log_n(log_n)
    profs = _check_moduli(profiles)
    num = den = -log_n
    for r in profs:
        lp = math.log(r.prime)
        num += lp
        den += lp / r.nu
    bound = num / den if den > DENOM_TOL else None
    return SieveBoundReport(log_n, num, den, bound, tuple(r.modulus for r in profs), "plain")


def gallagher_bound_weighted(
    profiles: Sequence[ResidueProfile], count_b: int, log_n: float
) -> SieveBoundReport:
    """Weighted refinement over prime moduli: the denominator uses
    sum_p log p * sum_h Z(p,h)^2 / count^2, which dominates the plain
    log p / nu term by Cauchy-Schwarz."""
    _check_log_n(log_n)
    if count_b < 1:
        raise ValueError(f"profiled count must be positive, got {count_b}")
    profs = _check_moduli(profiles)
    num = den = -log_n
    for r in profs:
        if r.exponent != 1:
            raise ValueError(f"weighted variant needs prime moduli, got {r.modulus}")
        if r.sumsq is None:
            raise ValueError(f"weighted variant needs measured counts at {r.modulus}")
        if r.size != count_b or (r.counts is not None and sum(r.counts) != count_b):
            raise ValueError(
                f"profile at {r.modulus} covers {r.size} integers, expected {count_b}"
            )
        lp = math.log(r.prime)
        num += lp
        den += lp * r.sumsq / (count_b * count_b)
    bound = num / den if den > DENOM_TOL else None
    return SieveBoundReport(log_n, num, den, bound, tuple(r.modulus for r in profs), "weighted")


NU_MODELS: dict[str, Callable[[int], float]] = {
    "five_ceil_sqrt": lambda p: 5 * ceil_two_sqrt(p) + 1,
    "two_sqrt": lambda p: 2 * math.sqrt(p),
    "half_p_plus_one": lambda p: (p + 1) / 2,
}


@dataclass(frozen=True)
class CutoffScan:
    """Grid scan of the sieve bound over prime cutoffs y."""
    rows: tuple[tuple[int, SieveBoundReport], ...]
    best_y: int | None
    best: SieveBoundReport | None
    prescribed_y: float


def optimize_cutoff(
    prime_set: PrimeSet,
    nu_model: str | Callable[[int], float],
    log_n: float,
    y_grid: Sequence[int],
    values: Iterable[int] | None = None,
    tau: float = 1.0,
    variant: str = "plain",
) -> CutoffScan:
    """Evaluate the sieve bound at every cutoff in y_grid and report the
    minimal finite one, alongside the prescribed cutoff (400/tau^2)(log N)^2.

    nu_model is `measured` (requires `values`), one of the NU_MODELS names,
    or a callable p -> nu."""
    grid = list(y_grid)
    if not grid or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("y grid must be nonempty and ascending")
    if variant not in ("plain", "weighted"):
        raise ValueError(f"variant must be plain or weighted, got {variant!r}")
    _check_log_n(log_n)

    measured = nu_model == "measured"
    if measured or variant == "weighted":
        if values is None:
            raise ValueError("measured profiles need the underlying set")
        vals = list(values)
        if not vals:
            raise ValueError("cannot profile an empty set")
    if not measured:
        model = NU_MODELS[nu_model] if isinstance(nu_model, str) else nu_model

    # sums[k]: numerator and denominator over the first k primes, summed as gallagher_bound does
    primes = tuple(prime_set.primes_up_to(grid[-1]))
    num = den = -log_n
    sums = [(num, den)]
    for p in primes:
        lp = math.log(p)
        if variant == "weighted":
            counts = Counter([v % p for v in vals]).values()
            den += lp * sum(c * c for c in counts) / (len(vals) * len(vals))
        elif measured:
            den += lp / len({v % p for v in vals})
        else:
            nu = model(p)
            if nu <= 0:
                raise ValueError(f"class count must be positive, got {nu}")
            den += lp / float(nu)
        num += lp
        sums.append((num, den))

    rows = []
    for y in grid:
        cut = bisect_right(primes, y)
        num, den = sums[cut]
        bound = num / den if den > DENOM_TOL else None
        rows.append((y, SieveBoundReport(log_n, num, den, bound, primes[:cut], variant)))
    best_y, best = min(((y, rep) for y, rep in rows if not rep.unbounded),
                       key=lambda row: row[1].bound, default=(None, None))
    return CutoffScan(tuple(rows), best_y, best, (20.0 / tau) ** 2 * log_n * log_n)
