"""Differential tests: the one-pass running-sum cutoff scan in
cubesieve.sieve.optimize_cutoff against the scan it replaced, which is kept
below as a reference implementation (bodies unchanged, docstring dropped).
That scan built a profile for every prime and re-evaluated gallagher_bound
or gallagher_bound_weighted on each prefix. Both must return equal
CutoffScans, every float compared with ==, so the CSV bytes stay the same."""

import math
from bisect import bisect_right
from typing import Callable, Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesieve import sieve
from cubesieve.primes import PrimeSet, parse_prime_set, primes_up_to
from cubesieve.sieve import (
    NU_MODELS,
    CutoffScan,
    ResidueProfile,
    _prime_power,
    gallagher_bound,
    gallagher_bound_weighted,
    model_profile,
)

# ---------------------------------------------------------------------------
# reference implementation (a profile per prime, a bound per prefix)


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


def optimize_cutoff(
    prime_set: PrimeSet,
    nu_model: str | Callable[[int], float],
    log_n: float,
    y_grid: Sequence[int],
    values: Iterable[int] | None = None,
    tau: float = 1.0,
    variant: str = "plain",
) -> CutoffScan:
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


# ---------------------------------------------------------------------------
# strategies

_FORMS = [(1, 1, 1), (1, 0, 1), (1, 1, 2), (1, 0, 5), (1, 1, 6), (2, 1, 3)]
_SMALL_PRIMES = primes_up_to(700)


@st.composite
def prime_sets(draw, depth: int = 0) -> PrimeSet:
    kinds = ["all", "class", "inert", "list"] + (["complement"] if depth == 0 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "all":
        return PrimeSet.all_primes()
    if kind == "class":
        q = draw(st.integers(1, 24))
        a = draw(st.integers(0, q - 1).filter(lambda a: math.gcd(a, q) == 1))
        return PrimeSet.residue_class(a, q)
    if kind == "inert":
        return PrimeSet.inert_of_form(*draw(st.sampled_from(_FORMS)))
    if kind == "list":
        return PrimeSet.explicit(draw(st.lists(st.sampled_from(_SMALL_PRIMES), max_size=30)))
    return PrimeSet.complement(draw(prime_sets(depth=1)))


# an --elements-file may repeat values and hold zero or negative numbers
_values = st.lists(st.integers(-3000, 30000), min_size=1, max_size=60)
_grids = st.lists(st.integers(1, 800), min_size=1, max_size=8, unique=True).map(sorted)
_log_ns = st.floats(0.01, 40.0, allow_nan=False, allow_infinity=False)
_taus = st.floats(0.1, 4.0)
_models = st.sampled_from(sorted(NU_MODELS)) | st.sampled_from([
    lambda p: 1,
    lambda p: p % 7 + 0.5,
    lambda p: (p + 1) // 2,
])


def _both(*args, **kwargs):
    new = sieve.optimize_cutoff(*args, **kwargs)
    old = optimize_cutoff(*args, **kwargs)
    # dataclass equality: field by field, every float with ==
    assert new == old


@settings(max_examples=200, deadline=None)
@given(prime_sets(), _values, _grids, _log_ns, _taus)
def test_scan_measured_plain_matches_reference(ps, vals, grid, log_n, tau):
    _both(ps, "measured", log_n, grid, values=vals, tau=tau)


@settings(max_examples=200, deadline=None)
@given(prime_sets(), _values, _grids, _log_ns, st.just("measured") | _models)
def test_scan_weighted_matches_reference(ps, vals, grid, log_n, nu_model):
    _both(ps, nu_model, log_n, grid, values=vals, variant="weighted")


@settings(max_examples=200, deadline=None)
@given(prime_sets(), _models, _grids, _log_ns, _taus)
def test_scan_model_matches_reference(ps, model, grid, log_n, tau):
    _both(ps, model, log_n, grid, tau=tau)


@pytest.mark.parametrize("spec", ["all", "class:1,4", "inert:1,1,1", "complement:inert:1,0,1"])
def test_scan_matches_reference_at_benchmark_scale(spec):
    squares = [a * a for a in range(1, 317)]
    grid = list(range(500, 20001, 500))
    for variant in ("plain", "weighted"):
        _both(parse_prime_set(spec), "measured", math.log(10**5), grid,
              values=squares, variant=variant)
    _both(parse_prime_set(spec), "five_ceil_sqrt", 11.51, list(range(1000, 100001, 1000)))


def test_scan_errors_match_reference():
    allp = PrimeSet.all_primes()
    cases = [
        (allp, "measured", 5.0, [10], {"values": []}),
        (allp, "measured", 5.0, [10], {}),
        (allp, lambda p: 0 if p == 7 else 1, 5.0, [10], {}),
        (allp, "two_sqrt", 0.0, [10], {}),
        (allp, "two_sqrt", -2.0, [10], {}),
        (allp, "two_sqrt", 5.0, [10, 10], {}),
        (allp, "two_sqrt", 5.0, [10], {"variant": "huge"}),
    ]
    for args in cases:
        *pos, kwargs = args
        with pytest.raises(ValueError) as new:
            sieve.optimize_cutoff(*pos, **kwargs)
        with pytest.raises(ValueError) as old:
            optimize_cutoff(*pos, **kwargs)
        assert str(new.value) == str(old.value)
