import math
import random
import sys
import tracemalloc

import pytest

from cubesieve import primes
from cubesieve.primes import PrimeSet, primes_up_to
from cubesieve.sieve import (
    NU_MODELS,
    _class_counter,
    _sumsq_counter,
    optimize_cutoff,
    prescribed_cutoff,
)


def _bound(moduli, log_n, values, variant="plain"):
    """The measured bound over exactly the primes `moduli`."""
    scan = optimize_cutoff(PrimeSet.explicit(moduli), "measured", log_n, [max(moduli)],
                           values=values, variant=variant)
    return scan.rows[0][1]


def test_profile_examples():
    for vals, p, nu, sumsq in [
        ([1, 2, 3], 5, 3, 3),
        # squares 1..100 mod 7 fall in classes 0, 1, 2, 4 with counts 1, 3, 3, 3
        ([a * a for a in range(1, 11)], 7, 4, 28),
        ([5, 10, 15], 5, 1, 9),
    ]:
        assert (_class_counter(vals)(p), _sumsq_counter(vals)(p)) == (nu, sumsq)


def test_profile_invariants():
    rng = random.Random(5)
    for _ in range(50):
        vals = [rng.randrange(-500, 1000) for _ in range(rng.randrange(1, 50))]
        p = rng.choice([2, 3, 5, 7, 11])
        counts = [sum(1 for v in vals if v % p == h) for h in range(p)]
        assert _class_counter(vals)(p) == sum(1 for c in counts if c)
        assert _sumsq_counter(vals)(p) == sum(c * c for c in counts)


def test_plain_bound_nu_one_is_one():
    rep = _bound([3, 5], 1.0, [15, 30])
    assert rep.numerator == rep.denominator
    assert rep.bound == 1.0


def test_plain_bound_unbounded_guard():
    rep = _bound([5], 10.0, [1, 2, 3])
    assert rep.denominator <= 0 and rep.bound is None and rep.unbounded


def test_squares_bound_close_to_truth():
    # squares up to 1e6 profiled over primes up to 1e4: the certified count
    # must trap the true count 1000 from above, within a decade
    squares = [a * a for a in range(1, 1001)]
    rep = _bound(primes_up_to(10**4), math.log(10**6), squares)
    assert rep.bound is not None
    assert 10**3 <= rep.bound <= 10**4


def test_weighted_equals_plain_when_equidistributed():
    vals = [1, 8, 15, 22, 2, 9, 16, 23, 3, 10, 17, 24]  # 3 classes x 4 mod 7
    plain = _bound([7], 0.5, vals)
    weighted = _bound([7], 0.5, vals, "weighted")
    assert math.isclose(plain.bound, weighted.bound, rel_tol=1e-12)


def test_weighted_concentrated_bound_one():
    vals = [7, 14, 21, 28]
    plain = _bound([7], 0.5, vals)
    weighted = _bound([7], 0.5, vals, "weighted")
    assert plain.bound == 1.0 and weighted.bound == 1.0


def test_weighted_dominated_by_plain():
    rng = random.Random(6)
    for _ in range(20):
        vals = sorted(rng.sample(range(1, 3000), 100))
        moduli = primes_up_to(50)
        log_n = math.log(3000)
        plain = _bound(moduli, log_n, vals)
        weighted = _bound(moduli, log_n, vals, "weighted")
        if plain.bound is not None and weighted.bound is not None:
            assert weighted.bound <= plain.bound + 1e-9


def test_log_n_must_be_finite_and_positive():
    allp = PrimeSet.all_primes()
    for bad, message in [(math.inf, "finite, got inf"), (math.nan, "positive, got nan"),
                         (-math.inf, "positive, got -inf"), (0.0, "positive, got 0.0")]:
        for nu in ("measured", "two_sqrt"):
            with pytest.raises(ValueError, match=f"log N must be {message}"):
                optimize_cutoff(allp, nu, bad, [10], values=[1, 4, 9])
        with pytest.raises(ValueError, match=f"log N must be {message}"):
            optimize_cutoff(allp, "measured", bad, [10], values=[1, 4, 9], variant="weighted")


def test_soundness_random_instances():
    rng = random.Random(7)
    moduli = [p for p in primes_up_to(600) if p > 40]
    for _ in range(25):
        n = 10**4
        a = sorted(rng.sample(range(1, n + 1), rng.randrange(20, 40)))
        plain = _bound(moduli, math.log(n), a)
        assert plain.bound is not None
        assert len(a) <= plain.bound + 1e-9
        weighted = _bound(moduli, math.log(n), a, "weighted")
        assert weighted.bound is not None
        assert len(a) <= weighted.bound + 1e-9
        assert weighted.bound <= plain.bound + 1e-9


def test_soundness_survives_uninformative_modulus():
    # a modulus where every class is occupied adds log p to both sides and
    # must not push the certified bound below the true count
    rng = random.Random(8)
    moduli = [p for p in primes_up_to(200) if p > 20]
    for _ in range(50):
        n = 500
        a = sorted({1, 2, *rng.sample(range(3, n + 1), rng.randrange(5, 15))})
        base = _bound(moduli, math.log(n), a)
        grown = _bound([2, *moduli], math.log(n), a)  # nu(2) = 2, no information
        assert grown.numerator - base.numerator == pytest.approx(math.log(2))
        for rep in (base, grown):
            if rep.bound is not None:
                assert len(a) <= rep.bound + 1e-9


def test_nu_models():
    assert NU_MODELS["five_ceil_sqrt"](71) == 86
    assert NU_MODELS["two_sqrt"](4) == 4.0
    assert NU_MODELS["half_p_plus_one"](7) == 4.0


def test_optimize_cutoff_nu_one_model():
    scan = optimize_cutoff(PrimeSet.all_primes(), lambda p: 1, 1.0, [10, 20])
    assert scan.best is not None and scan.best.bound == 1.0


def test_optimize_cutoff_empty_prime_range():
    scan = optimize_cutoff(PrimeSet.explicit([]), "two_sqrt", 5.0, [10, 100])
    assert scan.best is None
    assert all(rep.unbounded for _, rep in scan.rows)


def test_optimize_cutoff_measured_squares():
    squares = [a * a for a in range(1, 101)]
    scan = optimize_cutoff(
        PrimeSet.all_primes(), "measured", math.log(10**4), [200, 400, 800],
        values=squares,
    )
    assert scan.best is not None
    assert scan.best.bound >= 100  # soundness at the best cutoff


def test_optimize_cutoff_five_ceil_sqrt_scale():
    # frozen from direct evaluation: at N = 1e6 the best certified count on
    # a grid around the prescribed cutoff is about 1480..1500, a small
    # multiple of log N (107x, not quite within 100x)
    log_n = math.log(10**6)
    center = int(400 * log_n * log_n)
    grid = sorted({center // 8, center // 4, center // 2, center, center * 2})
    scan = optimize_cutoff(PrimeSet.all_primes(), "five_ceil_sqrt", log_n, grid)
    assert math.isclose(prescribed_cutoff(1.0, log_n), center, rel_tol=1e-4)
    assert scan.best is not None
    assert scan.best.bound <= 120 * log_n
    assert 1400 <= scan.best.bound <= 1600


@pytest.mark.parametrize("grid", [[10**6], range(20000, 10**6 + 1, 20000)],
                         ids=["one-row", "50-rows"])
def test_optimize_cutoff_holds_one_prime_list(grid):
    # the scan walks one sequence of the primes up to its cutoff, keeping no
    # per-prime record beside it, and its rows share that sequence: its peak
    # stays below two of those lists however many rows it has
    ref = primes_up_to(10**6)
    size = sys.getsizeof(ref) + sum(map(sys.getsizeof, ref))
    del ref
    tracemalloc.start()
    try:
        optimize_cutoff(PrimeSet.all_primes(), "two_sqrt", 20.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * size, f"peak {peak} bytes, {peak / size:.2f} prime lists"


def test_optimize_cutoff_validation():
    allp = PrimeSet.all_primes()
    with pytest.raises(ValueError):
        optimize_cutoff(allp, "two_sqrt", 1.0, [])
    with pytest.raises(ValueError):
        optimize_cutoff(allp, "two_sqrt", 1.0, [20, 10])
    with pytest.raises(ValueError):
        optimize_cutoff(allp, "measured", 1.0, [10])
    with pytest.raises(ValueError, match="cannot profile an empty set"):
        optimize_cutoff(allp, "measured", 1.0, [10], values=[])
    for tau in (0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"tau must be finite and positive, got {tau}"):
            prescribed_cutoff(tau, 1.0)
    # (20/tau)^2 overflows for the first; the product with (log N)^2 for the second
    for tau, log_n in ((1e-200, 1.0), (2e-153, 30.0)):
        with pytest.raises(ValueError, match="tau too small"):
            prescribed_cutoff(tau, log_n)


def test_optimize_cutoff_refuses_huge_cutoff_before_sieving(monkeypatch):
    def unreachable(y):
        raise AssertionError("sieved past the size guard")

    monkeypatch.setattr(primes, "primes_up_to", unreachable)
    allp = PrimeSet.all_primes()
    for grid in ([10**8 + 1], [10, 10**12]):
        with pytest.raises(ValueError, match=rf"limit N = {grid[-1]} is too large for the prime "
                                             r"sieve table \(max 10\*\*8\)"):
            optimize_cutoff(allp, "two_sqrt", 5.0, grid)
