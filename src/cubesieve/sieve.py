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


def _light_profile(vals: list[int], modulus: int) -> ResidueProfile:
    # occupancy statistics without a dense class array; for grid scans
    p, i = _prime_power(modulus)
    counts: dict[int, int] = {}
    for v in vals:
        r = v % modulus
        counts[r] = counts.get(r, 0) + 1
    return ResidueProfile(
        modulus, p, i, len(counts), None, len(vals),
        sum(c * c for c in counts.values()),
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


def gallagher_bound(profiles: Sequence[ResidueProfile], log_n: float) -> SieveBoundReport:
    """Plain larger-sieve bound from per-modulus class counts."""
    if log_n <= 0:
        raise ValueError(f"log N must be positive, got {log_n}")
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
    if log_n <= 0:
        raise ValueError(f"log N must be positive, got {log_n}")
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

    measured = nu_model == "measured"
    if measured or variant == "weighted":
        if values is None:
            raise ValueError("measured profiles need the underlying set")
        vals = list(values)
        if not vals:
            raise ValueError("cannot profile an empty set")
    if not measured:
        model = NU_MODELS[nu_model] if isinstance(nu_model, str) else nu_model

    primes = prime_set.primes_up_to(grid[-1])
    if measured or variant == "weighted":
        profs = [_light_profile(vals, p) for p in primes]
    else:
        profs = [model_profile(p, model(p)) for p in primes]

    rows = []
    best_y = None
    best = None
    for y in grid:
        cut = bisect_right(primes, y)
        if variant == "weighted":
            rep = gallagher_bound_weighted(profs[:cut], len(vals), log_n)
        else:
            rep = gallagher_bound(profs[:cut], log_n)
        rows.append((y, rep))
        if rep.bound is not None and (best is None or rep.bound < best.bound):
            best_y, best = y, rep
    prescribed = (20.0 / tau) ** 2 * log_n * log_n
    return CutoffScan(tuple(rows), best_y, best, prescribed)
