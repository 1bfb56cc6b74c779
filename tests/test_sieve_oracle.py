"""Differential tests: the larger-sieve bounds and the one-pass running-sum
cutoff scan in cubesieve.sieve against the code they replaced, which is kept
below as a reference implementation (bodies unchanged but for the prescribed
cutoff, which a CutoffScan no longer carries; docstrings dropped).
The reference builds a profile for every modulus, sums each bound in
its own loop, and re-evaluates the bound on each prefix of the primes in a
scan; it shares no summing code with cubesieve.sieve. Both must return equal
reports and CutoffScans, every float compared with ==, so the CSV bytes stay
the same. The fold counters that start every fold from the whole set, before
the shared chunk split, are kept too: the split counters must give the same
nu(p) and sumsq(p) at every prime. So is sieve-compare's measured scan of
its list of squares: the closed-form class counts must give the same rows."""

import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesieve import harness, sieve
from cubesieve.arithsets import Squareful, enumerate_members, factorize
from cubesieve.primes import PrimeSet, bitset, parse_prime_set, primes_up_to
from cubesieve.sieve import NU_MODELS, CutoffScan, SieveBoundReport
from cubesieve.zq import CounterexampleError

# ---------------------------------------------------------------------------
# reference implementation (a profile per prime, a bound per prefix)

DENOM_TOL = 1e-9


def _prime_power(modulus: int) -> tuple[int, int]:
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    factors = factorize(modulus)
    if len(factors) != 1:
        raise ValueError(f"{modulus} is not a prime power")
    return factors[0]


@dataclass(frozen=True)
class ResidueProfile:
    modulus: int
    prime: int
    exponent: int
    nu: float
    counts: tuple[int, ...] | None
    size: int
    sumsq: int | None = None


def model_profile(modulus: int, nu: float) -> ResidueProfile:
    if nu <= 0:
        raise ValueError(f"class count must be positive, got {nu}")
    p, i = _prime_power(modulus)
    return ResidueProfile(modulus, p, i, float(nu), None, 0)


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


def _check_moduli(profiles: Sequence[ResidueProfile]) -> list[ResidueProfile]:
    profs = sorted(profiles, key=lambda r: r.modulus)
    for a, b in zip(profs, profs[1:]):
        if a.modulus == b.modulus:
            raise ValueError(f"duplicate modulus {a.modulus}")
    return profs


def _check_log_n(log_n: float) -> None:
    if not (math.isfinite(log_n) and log_n > 0):
        raise ValueError(f"log N must be {'finite' if log_n > 0 else 'positive'}, got {log_n}")


def gallagher_bound(profiles: Sequence[ResidueProfile], log_n: float,
                    count: int) -> SieveBoundReport:
    # the bound over the first `count` profiles; the report holds every modulus
    _check_log_n(log_n)
    profs = _check_moduli(profiles)
    num = den = -log_n
    for r in profs[:count]:
        lp = math.log(r.prime)
        num += lp
        den += lp / r.nu
    bound = num / den if den > DENOM_TOL else None
    return SieveBoundReport(num, den, bound, tuple(r.modulus for r in profs), count)


def gallagher_bound_weighted(
    profiles: Sequence[ResidueProfile], count_b: int, log_n: float, count: int
) -> SieveBoundReport:
    _check_log_n(log_n)
    if count_b < 1:
        raise ValueError(f"profiled count must be positive, got {count_b}")
    profs = _check_moduli(profiles)
    num = den = -log_n
    for r in profs[:count]:
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
    return SieveBoundReport(num, den, bound, tuple(r.modulus for r in profs), count)


def optimize_cutoff(
    prime_set: PrimeSet,
    nu_model: str | Callable[[int], float],
    log_n: float,
    y_grid: Sequence[int],
    values: Iterable[int] | None = None,
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
            rep = gallagher_bound_weighted(profs, len(vals), log_n, cut)
        else:
            rep = gallagher_bound(profs, log_n, cut)
        rows.append((y, rep))
        if rep.bound is not None and (best is None or rep.bound < best.bound):
            best_y, best = y, rep
    return CutoffScan(tuple(rows), best_y, best)


def _planes(vals: list[int]) -> tuple[list[int], int] | None:
    lo = min(vals)
    span = max(vals) - lo
    if span > 512 * len(vals):
        return None
    counts = Counter(v - lo for v in vals)
    return [bitset((x for x, c in counts.items() if c >> j & 1), span)
            for j in range(max(counts.values()).bit_length())], span


def _cuts(top: int, p: int):
    while p <= top:
        cut = -(-(top + 1) // (2 * p)) * p
        yield cut
        top = cut - 1


def class_counter(vals: list[int]) -> Callable[[int], int]:
    # every fold starts from the whole bitset
    dense = _planes(vals)
    if dense is None:
        return lambda p: len({v % p for v in vals})
    planes, span = dense
    full = reduce(or_, planes)

    def count(p: int) -> int:
        bits = full
        for cut in _cuts(span, p):
            bits = (bits >> cut) | (bits & ((1 << cut) - 1))
        return bits.bit_count()

    return count


def sumsq_counter(vals: list[int]) -> Callable[[int], int]:
    dense = _planes(vals)
    if dense is None:
        return lambda p: sum(c * c for c in Counter(v % p for v in vals).values())
    initial, span = dense

    def sumsq(p: int) -> int:
        planes = initial
        for cut in _cuts(span, p):
            low = (1 << cut) - 1
            carry = 0
            added = []
            for plane in planes:
                lo, hi = plane & low, plane >> cut
                x = lo ^ hi
                added.append(x ^ carry)
                carry = (lo & hi) | (carry & x)
            planes = added + [carry] if carry else added
        return sum((a & b).bit_count() << (j + k + (j != k))
                   for j, a in enumerate(planes) for k, b in enumerate(planes[:j + 1]))

    return sumsq


def _nu_sumsq(vals: list[int], p: int) -> tuple[int, int]:
    # (nu, sumsq) by the class count's definition and the sparse route's sum
    return len({v % p for v in vals}), sieve._occupancy(vals, p)


# ---------------------------------------------------------------------------
# strategies

_FORMS = [(1, 1, 1), (1, 0, 1), (1, 1, 2), (1, 0, 5), (1, 1, 6), (2, 1, 3)]
_SMALL_PRIMES = primes_up_to(700)


@st.composite
def prime_set_recipes(draw, depth: int = 0, max_depth: int = 1) -> tuple:
    """A PrimeSet constructor call as (name, *args); a complement holds the
    recipe of its inner set. `build_prime_set` makes it with either class."""
    kinds = ["all", "class", "inert", "list"] + (["complement"] if depth < max_depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "all":
        return ("all_primes",)
    if kind == "class":
        q = draw(st.integers(1, 24))
        a = draw(st.integers(0, q - 1).filter(lambda a: math.gcd(a, q) == 1))
        # the constructor reduces a mod q
        return ("residue_class", a + q * draw(st.integers(-2, 2)), q)
    if kind == "inert":
        return ("inert_of_form", *draw(st.sampled_from(_FORMS)))
    if kind == "list":
        return ("explicit", draw(st.lists(st.sampled_from(_SMALL_PRIMES), max_size=30)))
    return ("complement", draw(prime_set_recipes(depth + 1, max_depth)))


def build_prime_set(cls, recipe: tuple):
    name, *args = recipe
    if name == "complement":
        args = [build_prime_set(cls, args[0])]
    return getattr(cls, name)(*args)


def prime_sets() -> st.SearchStrategy:
    return prime_set_recipes().map(lambda recipe: build_prime_set(PrimeSet, recipe))


# an --elements-file may repeat values and hold zero or negative numbers
_values = st.lists(st.integers(-3000, 30000), min_size=1, max_size=60)
_grids = st.lists(st.integers(1, 800), min_size=1, max_size=8, unique=True).map(sorted)
_log_ns = st.floats(0.01, 40.0, allow_nan=False, allow_infinity=False)
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


@st.composite
def _measured_sets(draw) -> list[int]:
    """Values on either side of the fold switch (span <= 512 |A| folds a
    bitset, a wider span takes the set route), shuffled, with repeats."""
    n = draw(st.integers(1, 40))
    lo = draw(st.integers(-10**6, 10**6))
    limit = sieve._FOLD_DENSITY * n
    span = draw(st.integers(0, limit) | st.integers(limit + 1, 4 * limit))
    vals = [lo, lo + span][:n]
    vals += draw(st.lists(st.integers(lo, lo + span), min_size=n - len(vals),
                          max_size=n - len(vals)))
    return draw(st.permutations(vals))


_FOLD_CASES = [
    # a single value; one value repeated; negative values
    ([-7], [3, 10, 800]),
    ([5, 5, 5], [100]),
    ([-40, -3, -3, 0, 17, 17, 60], [2, 50, 800]),
    # spans equal to a prime: the two ends share a class
    ([4, 11], [10]),
    ([-5, 2, 0], [7]),
    ([100, 111, 105], [11, 13]),
    # span below every prime of the grid
    ([1000, 1001, 1003], [3, 5, 50]),
    # dense and sparse at the switch: span = 512 |A| and 512 |A| + 1
    ([0, 1024], [800]),
    ([0, 1025], [800]),
    # multiplicities of up to four and five bit-planes (9 = 0b1001, 17 = 0b10001)
    ([5] * 9, [100]),
    ([0, 0, 3, 3, 3, 700], [2, 7, 800]),
    ([-2] * 15 + [40] * 17 + [41], [3, 50]),
    # a value repeated at both ends of the span
    ([2, 2, 2, 50, 97, 97, 97, 97], [5, 95, 200]),
    # every prime above the span, with repeats
    ([20, 20, 20, 21, 22, 22], [3, 5, 10]),
]


def _both_routes(ps, log_n, grid, vals, variant):
    old = optimize_cutoff(ps, "measured", log_n, grid, values=vals, variant=variant)
    # the density rule, then each route alone on either side of the switch; a
    # folded set also splits at any span, so the primes up to 3 * width start
    # from the chunk sum
    for density, split in ((sieve._FOLD_DENSITY, sieve._SPLIT_SPAN), (sieve._FOLD_DENSITY, 0),
                           (-1, sieve._SPLIT_SPAN), (10**6, sieve._SPLIT_SPAN), (10**6, 0)):
        with mock.patch.object(sieve, "_FOLD_DENSITY", density), \
                mock.patch.object(sieve, "_SPLIT_SPAN", split):
            assert sieve.optimize_cutoff(ps, "measured", log_n, grid, values=vals,
                                         variant=variant) == old


@settings(max_examples=400, deadline=None)
@given(prime_sets(), _values | _measured_sets(), _grids, _log_ns)
def test_scan_measured_plain_matches_reference(ps, vals, grid, log_n):
    _both_routes(ps, log_n, grid, vals, "plain")


@pytest.mark.parametrize("vals, grid", _FOLD_CASES)
def test_class_count_edge_cases(vals, grid):
    for variant in ("plain", "weighted"):
        _both_routes(PrimeSet.all_primes(), 6.0, grid, vals, variant)


def _no_bitset(*args):
    raise AssertionError("a sparse set must not build a bitset")


def test_class_count_route_follows_density(monkeypatch):
    built = []
    monkeypatch.setattr(sieve, "bitset", lambda vals, top: built.append(top) or bitset(vals, top))
    sieve._class_counter([0, 1024])  # span 512 |A|
    assert built == [1024]
    monkeypatch.setattr(sieve, "bitset", _no_bitset)
    assert sieve._class_counter([0, 1025])(7) == 2


def test_sumsq_route_follows_density(monkeypatch):
    built = []
    monkeypatch.setattr(sieve, "bitset", lambda vals, top: built.append(top) or bitset(vals, top))
    sieve._sumsq_counter([0, 1024])  # span 512 |A|: one plane
    assert built == [1024]
    built.clear()
    # multiplicities 3 = 0b11 and 4 = 0b100: three planes
    assert sieve._sumsq_counter([0, 0, 0, 1500, 1500, 1500, 1500])(7) == 9 + 16
    assert built == [1500] * 3
    monkeypatch.setattr(sieve, "bitset", _no_bitset)
    assert sieve._sumsq_counter([0, 1025])(7) == 2
    assert sieve._sumsq_counter([0, 2000, 2000])(7) == 1 + 4


def test_sumsq_fold_at_benchmark_size():
    # the benchmark's measured plain and weighted scans: squareful up to
    # e^13.81, every prime up to 10^4, a dense set of 2,021 values folded
    # 1,229 times by each counter
    vals = enumerate_members(Squareful(), int(round(math.exp(13.81))))
    assert sieve._planes(vals) is not None
    nu, sumsq = sieve._class_counter(vals), sieve._sumsq_counter(vals)
    for p in primes_up_to(10**4):
        assert (nu(p), sumsq(p)) == _nu_sumsq(vals, p)


_PRIMES = primes_up_to(10**4)
_SPLIT_PRIMES = primes_up_to(60000)  # past 3 * width at the spans of _split_sets


def _width(vals: list[int]) -> int:
    return -(-(max(vals) - min(vals) + 1) // 16)


@st.composite
def _split_sets(draw) -> list[int]:
    """Values whose span reaches the split: a minimum that may be negative,
    a span from _SPLIT_SPAN up that mostly leaves a short last chunk, values
    on both sides of chunk edges, and repeats of up to 9 (four bit-planes)."""
    lo = draw(st.integers(-10**6, 10**6))
    span = draw(st.integers(sieve._SPLIT_SPAN, sieve._SPLIT_SPAN + 5000))
    width = -(-(span + 1) // 16)
    edges = [j * width + d for j in range(1, 16) for d in (-1, 0)]
    inner = draw(st.lists(st.sampled_from(edges) | st.integers(0, span), max_size=30))
    offsets = [0, span, *inner]
    counts = draw(st.lists(st.integers(1, 9), min_size=len(offsets), max_size=len(offsets)))
    return draw(st.permutations([lo + x for x, c in zip(offsets, counts) for _ in range(c)]))


@settings(max_examples=150, deadline=None)
@given(_split_sets(), st.lists(st.sampled_from(_PRIMES), max_size=8))
def test_split_counters_match_reference(vals, drawn):
    # two primes on each side of 3 * width, where the chunk sum stops
    r = bisect_right(_SPLIT_PRIMES, 3 * _width(vals))
    primes = sorted({2, 3, *_SPLIT_PRIMES[r - 2:r + 2], *drawn})
    with mock.patch.object(sieve, "_FOLD_DENSITY", 10**6):  # fold however few values
        nu, sumsq = sieve._class_counter(vals), sieve._sumsq_counter(vals)
    old_nu, old_sumsq = class_counter(vals), sumsq_counter(vals)
    for p in primes:
        assert (nu(p), sumsq(p)) == (old_nu(p), old_sumsq(p)) == _nu_sumsq(vals, p)


@pytest.mark.parametrize("counter", [sieve._class_counter, sieve._sumsq_counter])
def test_split_route_at_benchmark_sizes(counter, monkeypatch):
    # the (top, p) each fold starts from
    tops = []
    cuts = sieve._cuts
    monkeypatch.setattr(sieve, "_cuts", lambda top, p: tops.append((top, p)) or cuts(top, p))
    # the measured squareful scans: every prime up to 10^4 starts from the
    # chunk sum, width + p - 1 bits
    vals = enumerate_members(Squareful(), int(round(math.exp(13.81))))
    width = _width(vals)
    assert 4 * _PRIMES[-1] <= width
    count = counter(vals)
    for p in (2, 101, _PRIMES[-1]):
        count(p)
    assert tops == [(width + p - 2, p) for p in (2, 101, _PRIMES[-1])]
    # past w/4 the split holds up to 3w (15601 fails the parity check);
    # a prime above 3w folds the whole set
    span = max(vals) - min(vals)
    field = 0 if counter is sieve._class_counter else 1
    band, above = [15601, 186377], 186379
    assert width // 4 < band[0] and band[-1] <= 3 * width < above
    tops.clear()
    values, summed = _sums_at(count, band + [above], monkeypatch)
    assert tops == [(width + p - 2, p) for p in band] + [(span, above)]
    assert values == [_nu_sumsq(vals, p)[field] for p in band + [above]]
    assert summed == ([band[0]] if field else [])
    # a narrower set, the squares up to 10^4 and 10^5, folds the whole set
    for n in (10**4, 10**5):
        tops.clear()
        squares = [a * a for a in range(1, math.isqrt(n) + 1)]
        count = counter(squares)
        for p in (2, 101, _PRIMES[-1]):
            count(p)
        assert tops == [(squares[-1] - 1, p) for p in (2, 101, _PRIMES[-1])]


def _has_triple(vals: list[int], p: int) -> bool:
    """Whether three values or more share one position of the chunk split
    for p: offset j w + x sits at x + (j w mod p)."""
    width, lo = _width(vals), min(vals)
    spots = Counter(x % width + x // width * width % p for x in (v - lo for v in vals))
    return max(spots.values()) >= 3


def _sums_at(sumsq, primes: list[int], monkeypatch) -> tuple[list[int], list[int]]:
    """sumsq(p) at each prime, and the primes at which the counter called
    _sum (a prime once per call)."""
    calls = []
    add = sieve._sum
    monkeypatch.setattr(sieve, "_sum", lambda columns: calls.append(1) or add(columns))
    values, summed = [], []
    for p in primes:
        before = len(calls)
        values.append(sumsq(p))
        summed += [p] * (len(calls) - before)
    return values, summed


def _check_sumsq(vals: list[int], primes: list[int], monkeypatch) -> list[int]:
    """sumsq(p) at each prime against _occupancy and the reference counter;
    returns the primes at which the counter called _sum."""
    with mock.patch.object(sieve, "_FOLD_DENSITY", 10**6):  # fold however few values
        sumsq = sieve._sumsq_counter(vals)
    values, summed = _sums_at(sumsq, primes, monkeypatch)
    reference = sumsq_counter(vals)
    assert values == [reference(p) for p in primes]
    assert values == [sieve._occupancy(vals, p) for p in primes]
    return summed


def test_parity_split_falls_back_on_a_triple(monkeypatch):
    # three distinct values at one split position for p = 101: the parity
    # planes store 3 as 1, the count check fails, and the prime is redone
    # with the full-adder sum
    span = sieve._SPLIT_SPAN
    width = -(-(span + 1) // 16)
    vals = [0, span] + [j * width + 200 - j * width % 101 for j in (1, 2, 3)]
    assert _has_triple(vals, 101) and not _has_triple(vals, 103)
    assert _check_sumsq(vals, [101, 103], monkeypatch) == [101]


@pytest.mark.parametrize("extra", [0, 1])
def test_parity_split_gate(extra, monkeypatch):
    # the largest distinct set with |A|^3 <= 6 w^2 takes the parity split and
    # sums only where a split position holds three values; one value more
    # sums the chunks at every prime with p <= 3w, once
    span = sieve._SPLIT_SPAN
    width = -(-(span + 1) // 16)
    size = round((6 * width * width) ** (1 / 3))
    size += extra - (size**3 > 6 * width * width)
    vals = [0, span] + random.Random(size).sample(range(1, span), size - 2)
    primes = [2, 3, 101, 1009, 2003, 3001, 4093, 4099, 20011, 49139]
    assert primes[-1] <= 3 * width < 49157
    expect = [p for p in primes if extra or _has_triple(vals, p)]
    assert 0 < len(expect) < len(primes) or extra
    assert _check_sumsq(vals, primes + [49157], monkeypatch) == expect


def test_parity_split_skipped_with_repeats(monkeypatch):
    # a repeated value adds a bit-plane: the chunks are summed by full adders
    span = sieve._SPLIT_SPAN
    vals = [0, 0, span, 7919, 123457]
    assert _check_sumsq(vals, [2, 3, 101, 4093], monkeypatch) == [2, 3, 101, 4093]


def _no_fold(*args):
    raise AssertionError("a prime above the span must not fold")


@pytest.mark.parametrize("vals", [[5, 9, 130], [-4, -4, 0, 60, 60, 60], [3] * 9])
def test_counters_skip_the_fold_above_the_span(vals, monkeypatch):
    # every value is its own class mod a prime above the span
    monkeypatch.setattr(sieve, "_cuts", _no_fold)
    nu, sumsq = sieve._class_counter(vals), sieve._sumsq_counter(vals)
    for p in (137, 139, 7919):
        assert p > max(vals) - min(vals)
        assert (nu(p), sumsq(p)) == _nu_sumsq(vals, p)


def test_parity_split_sums_only_failed_primes_at_benchmark_size(monkeypatch):
    # the measured weighted squareful scan: the distinct 2,021 values pass the
    # gate, and _sum runs exactly at the primes whose split holds a triple
    vals = enumerate_members(Squareful(), int(round(math.exp(13.81))))
    width = _width(vals)
    assert len(vals) ** 3 <= 6 * width * width
    summed = _sums_at(sieve._sumsq_counter(vals), _PRIMES, monkeypatch)[1]
    assert summed == [p for p in _PRIMES if _has_triple(vals, p)]
    assert 0 < len(summed) < len(_PRIMES) // 4


# ---------------------------------------------------------------------------
# the closed-form class counts of the squares against the fold counter, and
# sieve-compare against its measured scan (kept below as it was)

def _mismatches(classes, ms, top) -> list[tuple[int, int]]:
    """The (M, p) with p <= top(M) at which classes(M, p) is not the fold
    count of the squares a^2, 1 <= a <= M."""
    out = []
    for m in ms:
        count = sieve._class_counter([a * a for a in range(1, m + 1)])
        out += [(m, p) for p in primes_up_to(top(m)) if classes(m, p) != count(p)]
    return out


def _small_mismatches(classes) -> list[tuple[int, int]]:
    """_mismatches for every M <= 150 at every prime p <= 2M + 50."""
    return _mismatches(classes, range(1, 151), lambda m: 2 * m + 50)


def test_square_classes_match_the_fold_counter():
    assert _small_mismatches(sieve.square_classes) == []


@pytest.mark.parametrize("m, n", [(100, 10**4), (316, 10**5)])
def test_square_classes_match_the_fold_counter_up_to_the_cutoff(m, n):
    y_star = round(sieve.prescribed_cutoff(1.0, math.log(n)))
    assert _mismatches(sieve.square_classes, [m], lambda m: y_star) == []


def _measured_sieve_compare(cfg: harness.ExperimentConfig):
    """sieve-compare's rows from the measured scan of the list of squares."""
    all_primes = PrimeSet.all_primes()
    y_stars = [max(4, int(round(sieve.prescribed_cutoff(cfg.tau, math.log(n)))))
               for n in cfg.n_grid]
    rows = []
    for n, y_star in zip(cfg.n_grid, y_stars):
        squares = [a * a for a in range(1, math.isqrt(n) + 1)]
        truth = len(squares)
        log_n = math.log(n)
        grid = sorted({max(4, y_star // k) for k in (16, 8, 4, 2)} | {y_star})
        scan = sieve.optimize_cutoff(all_primes, "measured", log_n, grid, values=squares)
        at_star = next(rep for y, rep in scan.rows if y == y_star)
        rows.append([
            n, truth, y_star, at_star.bound,
            scan.best_y,
            scan.best.bound if scan.best else None,
            scan.best.bound / truth if scan.best else None,
        ])
    return harness._SIEVE_HEADER, rows


_COMPARE_GRID = harness.ExperimentConfig((2, 3, 4, 100, 10**4, 10**5))


def test_sieve_compare_matches_the_measured_scan():
    assert harness.run_sieve_compare(_COMPARE_GRID) == _measured_sieve_compare(_COMPARE_GRID)


def _ignores_m(m: int, p: int) -> int:
    return p // 2 + 1


def _one_at_two(m: int, p: int) -> int:
    return (p + 1) // 2 if p <= m else min(m, p // 2)


def test_square_classes_mutants_are_caught(monkeypatch):
    # a mutant that ignores M overcounts past M and raises the bounds
    assert _small_mismatches(_ignores_m) != []
    monkeypatch.setattr(harness, "square_classes", _ignores_m)
    assert harness.run_sieve_compare(_COMPARE_GRID) != _measured_sieve_compare(_COMPARE_GRID)
    # one that counts one class at p = 2 lowers a bound below the truth
    assert _small_mismatches(_one_at_two) != []
    monkeypatch.setattr(harness, "square_classes", _one_at_two)
    with pytest.raises(CounterexampleError, match="at y = 48 is below the 2 squares up to 4$"):
        harness.run_sieve_compare(_COMPARE_GRID)


def test_sieve_compare_builds_no_list_of_squares(monkeypatch):
    calls = []
    scan = sieve.optimize_cutoff
    monkeypatch.setattr(harness, "optimize_cutoff",
                        lambda *args, **kwargs: calls.append((args, kwargs)) or scan(*args, **kwargs))
    header, rows = harness.run_sieve_compare(harness.ExperimentConfig((10**18,)))
    assert len(calls) == 1 and len(calls[0][0]) == 4 and "values" not in calls[0][1]
    assert rows[0][:3] == [10**18, 10**9, round(400 * math.log(10**18) ** 2)]


def test_cli_sparse_elements_file_takes_set_route(tmp_path, capsys, monkeypatch):
    # values near 10**18: a bitset of their span could never be allocated
    vals = [10**18 + 7919 * k * k - 3 * k for k in range(-40, 41)] + [10**18] * 3
    elems = tmp_path / "elements.txt"
    elems.write_text("".join(f"{v}\n" for v in vals))
    argv = ["sieve-bound", "--elements-file", str(elems), "--log-n", "41.45",
            "--y-grid", "50,200,700"]
    monkeypatch.setattr(sieve, "bitset", _no_bitset)
    assert harness.main(argv) == harness.EXIT_OK
    new = capsys.readouterr().out
    monkeypatch.setattr(harness, "optimize_cutoff", optimize_cutoff)
    assert harness.main(argv) == harness.EXIT_OK
    assert new == capsys.readouterr().out
    assert new.count("\n") == 4


@settings(max_examples=200, deadline=None)
@given(prime_sets(), _values | _measured_sets(), _grids, _log_ns)
def test_scan_weighted_matches_reference(ps, vals, grid, log_n):
    _both_routes(ps, log_n, grid, vals, "weighted")


@pytest.mark.parametrize("nu_model", sorted(NU_MODELS) + [lambda p: 2])
def test_scan_weighted_refuses_model_nu(nu_model):
    with pytest.raises(ValueError, match="the weighted variant needs nu_model 'measured'"):
        sieve.optimize_cutoff(PrimeSet.all_primes(), nu_model, 5.0, [10],
                              values=[1, 4, 9], variant="weighted")


@settings(max_examples=200, deadline=None)
@given(prime_sets(), _models, _grids, _log_ns)
def test_scan_model_matches_reference(ps, model, grid, log_n):
    _both(ps, model, log_n, grid)


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
