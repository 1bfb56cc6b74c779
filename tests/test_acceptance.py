"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run `pytest tests/test_acceptance.py -v -s` to see them).
Time caps are asserted with wall-clock measurements."""

import itertools
import math
import random
import time

import pytest

from cubesieve.arithsets import PurePowers, Squareful, enumerate_members
from cubesieve.cube import (
    HilbertCube,
    max_dimension_exact,
    residue_constraint_check,
    verify,
)
from cubesieve.harness import (
    ExperimentConfig,
    random_lift_instance,
    random_shift_instance,
    run_dimension_scan,
    _emit_csv,
)
from cubesieve.primes import PrimeSet, primes_up_to
from cubesieve.sieve import optimize_cutoff
from cubesieve.sunflower import SetFamily, extract_ap, find_sunflower, rep_count_g
from cubesieve.zq import (
    ResidueMultiset,
    ceil_two_sqrt,
    find_lift_zero,
    minimal_cover_k,
    schwarzwald,
    subset_sum_find,
    verify_olson_exhaustive,
)

SQUAREFUL_GRID = (10**2, 10**3, 10**4, 10**5)


@pytest.fixture(scope="module")
def squareful_scan():
    """Exact searches shared by criteria 8 and 9."""
    out = {}
    for n in SQUAREFUL_GRID:
        out[n] = max_dimension_exact(Squareful(), n)
    return out


def test_criterion_01_olson_exhaustive():
    for p in (5, 7, 11, 13):
        t0 = time.monotonic()
        rep = verify_olson_exhaustive(p)
        elapsed = time.monotonic() - t0
        assert rep.counterexamples == ()
        assert elapsed <= 60, f"p={p} took {elapsed:.1f}s"
    print("ACCEPTANCE 01 PASS - exhaustive covering check clean for p in (5,7,11,13)")


def test_criterion_02_minimal_cover():
    t0 = time.monotonic()
    assert tuple(minimal_cover_k(p) for p in (2, 3, 5)) == (2, 3, 4)
    values = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        values[p] = minimal_cover_k(p)
        assert values[p] <= math.isqrt(4 * p) + 1, f"k({p}) = {values[p]}"
    elapsed = time.monotonic() - t0
    assert elapsed <= 300, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 02 PASS - k(p) = {values} within floor(2*sqrt(p))+1, {elapsed:.1f}s")


def test_criterion_03_lift_zero_theorem():
    rng = random.Random(103)
    t0 = time.monotonic()
    found = 0
    for p, m, count in ((71, 2, 34), (73, 2, 33), (79, 3, 33)):
        for _ in range(count):
            b = random_lift_instance(rng, p, m)
            assert b.distinct_mod_p() > 4 * ceil_two_sqrt(p)
            assert any(e % m for e in b.elements)
            w = find_lift_zero(b)  # raises CounterexampleError on a miss
            assert w is not None, f"NotFound at p={p}, m={m}"
            assert w.validate(b.elements)
            s = sum(b.elements[i] for i in w.indices)
            assert s % p == 0 and s % (p * m) != 0
            found += 1
    elapsed = time.monotonic() - t0
    assert found == 100 and elapsed <= 60
    print(f"ACCEPTANCE 03 PASS - 100/100 lift-zero witnesses valid, {elapsed:.1f}s")


def test_criterion_04_shifted_witness_both_strategies():
    # The stated class |B mod 71| >= 5*ceil(2*sqrt(71))+2 = 87 is empty
    # (only 71 classes exist), so the strongest satisfiable instances are
    # used instead: 120 elements covering every class mod 71. The regime
    # where the hypothesis is satisfiable (p >= 107) is exercised in the
    # module tests.
    rng = random.Random(104)
    t0 = time.monotonic()
    for _ in range(100):
        b, a0 = random_shift_instance(rng, 71, 2, size=120)
        assert b.distinct_mod_p() == 71
        wd = schwarzwald(b, a0, "direct")
        wp = schwarzwald(b, a0, "paper")
        for w in (wd, wp):
            assert w is not None and w.validate(b.elements)
            s = sum(b.elements[i] for i in w.indices)
            assert (a0 + s) % 71 == 0 and (a0 + s) % 5041 != 0
    elapsed = time.monotonic() - t0
    assert elapsed <= 120
    print(f"ACCEPTANCE 04 PASS - 100 instances, both strategies valid, {elapsed:.1f}s")


def test_criterion_05_sieve_soundness():
    rng = random.Random(105)
    pool = [p for p in primes_up_to(600) if p > 40]
    done = 0
    while done < 50:
        a = sorted(rng.sample(range(1, 10**4 + 1), rng.randrange(20, 40)))
        moduli = PrimeSet.explicit(rng.sample(pool, rng.randrange(60, len(pool) + 1)))
        log_n = math.log(10**4)
        plain, weighted = (optimize_cutoff(moduli, "measured", log_n, [600], values=a,
                                           variant=variant).rows[0][1]
                           for variant in ("plain", "weighted"))
        if plain.bound is None:
            continue  # only instances with a positive denominator count
        assert len(a) <= plain.bound + 1e-9
        if weighted.bound is not None:
            assert weighted.bound <= plain.bound + 1e-9
            assert len(a) <= weighted.bound + 1e-9
        done += 1
    print("ACCEPTANCE 05 PASS - 50 random instances sound, weighted <= plain")


def test_criterion_06_sieve_sharpness_on_squares():
    t0 = time.monotonic()
    scan = optimize_cutoff(
        PrimeSet.all_primes(), "half_p_plus_one", math.log(10**6), [10**4]
    )
    bound = scan.rows[0][1].bound
    elapsed = time.monotonic() - t0
    assert bound is not None and 10**3 <= bound <= 10**4
    assert elapsed <= 10
    print(f"ACCEPTANCE 06 PASS - squares bound {bound:.0f} in [1e3, 1e4], {elapsed:.1f}s")


def naive_max_dimension(member, limit):
    best = [-1]

    def rec(sums, last):
        depth = len(sums).bit_length() - 1
        if depth > best[0]:
            best[0] = depth
        for a in range(last, limit + 1):
            if all(s + a <= limit and member[s + a] for s in sums):
                rec(sums + [s + a for s in sums], a)

    for a0 in range(1, limit + 1):
        if member[a0]:
            rec([a0], 1)
    return best[0]


def test_criterion_07_cube_ground_truth():
    t0 = time.monotonic()
    sq = Squareful()
    assert max_dimension_exact(sq, 10).best_dimension == 1
    res32 = max_dimension_exact(sq, 32)
    assert res32.best_dimension == 2

    named = HilbertCube(1, (7, 24))
    assert named.sums() == [1, 8, 25, 32]
    assert verify(named, sq, 32) == (True, None)

    member = [False] * 201
    for n in enumerate_members(sq, 200):
        member[n] = True
    for limit in range(1, 201):
        got = max_dimension_exact(sq, limit).best_dimension
        want = naive_max_dimension(member[: limit + 1], limit)
        assert got == want, f"N={limit}: search {got}, naive {want}"
    elapsed = time.monotonic() - t0
    assert elapsed <= 300
    print(f"ACCEPTANCE 07 PASS - exact = naive for all N <= 200, {elapsed:.1f}s")


def test_criterion_08_local_lemma_consistency(squareful_scan):
    allp = PrimeSet.all_primes()
    for n, res in squareful_scan.items():
        assert res.witness is not None
        bad = [r for r in residue_constraint_check(res.witness, allp, 100) if not r.ok]
        assert bad == [], f"N={n}: {bad}"
    print("ACCEPTANCE 08 PASS - 0 residue-constraint violations for p <= 100")


def test_criterion_09_f2_growth(squareful_scan):
    dims = []
    for n in SQUAREFUL_GRID:
        res = squareful_scan[n]
        d = res.best_dimension if res.exact else max(res.best_dimension, 0)
        # an excess here is a reportable finding; the witness goes in the message
        assert d / math.log(n) <= 5, f"N={n}: d={d}, witness {res.witness.describe()}"
        dims.append(d)
        assert verify(res.witness, Squareful(), n) == (True, None)
    assert dims == sorted(dims), f"dimension sequence {dims} not monotone"
    exact_flags = [squareful_scan[n].exact for n in SQUAREFUL_GRID]
    print(f"ACCEPTANCE 09 PASS - d = {dims} over the grid, exact = {exact_flags}")


def test_criterion_10_sunflower_suite():
    rng = random.Random(110)

    # greedy success implies exact success on families with <= 20 sets
    agreements = 0
    for _ in range(300):
        nsets = rng.randrange(3, 21)
        pool = set()
        while len(pool) < nsets:
            pool.add(frozenset(rng.sample(range(12), rng.randrange(1, 4))))
        fam = SetFamily(tuple(sorted(pool, key=sorted)), 3)
        w = find_sunflower(fam, 3, "greedy")
        if w is not None:
            assert w.validate(fam)
            assert find_sunflower(fam, 3, "exact") is not None
            agreements += 1
    assert agreements >= 100

    # representation counts against brute force at the full |A| = 18 size
    for trial in range(12):
        a = rng.sample(range(1, 80), 18)
        h = rng.randrange(2, 6)
        limit = rng.randrange(40, 300)
        g, target = rep_count_g(a, h, limit)
        counts = {}
        for combo in itertools.combinations(sorted(a), h):
            s = sum(combo)
            if s <= limit:
                counts[s] = counts.get(s, 0) + 1
        assert g == max(counts.values(), default=0), f"trial {trial}"
        if counts:
            assert target == min(s for s, c in counts.items() if c == g)

    # extracted progressions live inside the reconstructed subset-sum cube
    checked = 0
    for _ in range(50):
        steps = rng.sample(range(1, 30), 8)
        buckets = {}
        for combo in itertools.combinations(sorted(steps), 2):
            buckets.setdefault(sum(combo), []).append(frozenset(combo))
        for s_val, sets in sorted(buckets.items()):
            if len(sets) < 3:
                continue
            fam = SetFamily(tuple(sets), 2)
            w = find_sunflower(fam, 3, "exact")
            if w is None:
                continue
            step, v = extract_ap(fam, w)
            union = sorted(x for i in w.petal_indices for x in fam.sets[i])
            sums = set(HilbertCube(0, tuple(union)).sums())
            for j in range(v):
                assert j * step in sums
            checked += 1
            break
    assert checked >= 10
    print(f"ACCEPTANCE 10 PASS - {agreements} greedy/exact agreements, "
          f"rep counts exact, {checked} progressions realized")


def test_criterion_11_determinism(tmp_path):
    blobs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        cfg = ExperimentConfig((10, 32, 100, 320), seed=17)
        header, rows = run_dimension_scan(Squareful(), cfg)
        _emit_csv(header, rows, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    print("ACCEPTANCE 11 PASS - byte-identical f2 scan reruns")
