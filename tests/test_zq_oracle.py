"""Differential tests: the one witness core in cubesieve.zq against the
per-finder code it replaced, which is kept below as a reference
implementation (function bodies unchanged, docstrings dropped). That code
ran the first-reach DP to the end, or up to a single `stop_at` target, and
took the least witness over the reached admissible states. Each finder must
give the same whole result as its reference: the SubsetWitness, None, or the
type and message of the raised error. The core itself, a bitset DP that
keeps only each state's first-reach step, must return what the reference
per-state DP freezes for the same targets, and what its previous witness
recovery (kept below) returns on each of its routes: a few targets walked,
many read down the tree, and steps past the bitset budget."""

import math
import random
from bisect import bisect_left
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesieve import zq
from cubesieve.harness import random_lift_instance, random_shift_instance
from cubesieve.primes import is_prime, iter_set_bits, set_bits
from cubesieve.zq import (
    CounterexampleError,
    Modulus,
    ResidueMultiset,
    StrategyPreconditionError,
    SubsetWitness,
    _check_dp_modulus,
    _rotate,
    ceil_two_sqrt,
)

# ---------------------------------------------------------------------------
# reference implementation (full DP, then the least witness over all states)


def _first_reach_dp(values: Sequence[int], q: int, stop_at: int | None = None):
    reached = [False] * q
    parent: list[tuple[int, int] | None] = [None] * q
    order: list[int] = []
    for i, v in enumerate(values):
        v %= q
        base = len(order)
        if not reached[v]:
            reached[v] = True
            parent[v] = (i, -1)
            order.append(v)
        for k in range(base):
            t = order[k] + v
            if t >= q:
                t -= q
            if not reached[t]:
                reached[t] = True
                parent[t] = (i, order[k])
                order.append(t)
        if len(order) == q or (stop_at is not None and reached[stop_at]):
            break
    return reached, parent, order


def _witness_indices(parent, state: int) -> tuple[int, ...]:
    idx = []
    s = state
    while True:
        i, prev = parent[s]
        idx.append(i)
        if prev == -1:
            break
        s = prev
    return tuple(reversed(idx))


def subset_sum_find(elements: Sequence[int], target: int, p: int) -> SubsetWitness | None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target %= p
    vals = [e % p for e in elements]
    reached, parent, _ = _first_reach_dp(vals, p, stop_at=target)
    if reached[target]:
        idx = _witness_indices(parent, target)
        return SubsetWitness(p, idx, target, ((p, "==", target),))
    distinct = len(set(vals))
    if distinct * distinct > 4 * p:
        raise CounterexampleError(
            f"{distinct} distinct residues mod {p} must cover every target, "
            f"but {target} was not reached"
        )
    return None



def find_lift_zero(b: ResidueMultiset, distinct_mod_p: bool = False) -> SubsetWitness | None:
    mod = b.modulus
    if mod.m == 1:
        raise ValueError("lift-zero needs a composite modulus q = p*m with m > 1")
    p, q, m = mod.p, mod.q, mod.m
    if distinct_mod_p and b.distinct_mod_p() != len(b.elements):
        raise ValueError("elements are not distinct mod p")
    reached, parent, _ = _first_reach_dp(b.elements, q)
    candidates = [
        _witness_indices(parent, s) for s in range(p, q, p) if reached[s]
    ]
    if candidates:
        idx = min(candidates)
        s = sum(b.elements[i] for i in idx) % q
        return SubsetWitness(q, idx, s, ((p, "==", 0), (q, "!=", 0)))
    hypotheses = (
        b.distinct_mod_p() > 4 * ceil_two_sqrt(p)
        and any(e % m != 0 for e in b.elements)
    )
    if hypotheses:
        raise CounterexampleError(
            f"lift-zero hypotheses hold for p={p}, m={m} "
            f"({b.distinct_mod_p()} residues mod p) but no witness was found"
        )
    return None


def schwarzwald(b: ResidueMultiset, a0: int, strategy: str = "direct") -> SubsetWitness | None:
    mod = b.modulus
    if not mod.is_prime_power or mod.m == 1:
        raise ValueError(f"modulus q = p * m must be p^ell with ell > 1 for p = {mod.p}")
    p, q, m = mod.p, mod.q, mod.m
    a0 %= q
    facts = ((p, "==", (-a0) % p), (q, "!=", (-a0) % q))

    if strategy == "direct":
        reached, parent, _ = _first_reach_dp(b.elements, q)
        bad = (-a0) % q
        candidates = [
            _witness_indices(parent, s)
            for s in range((-a0) % p, q, p)
            if s != bad and reached[s]
        ]
        if candidates:
            idx = min(candidates)
            s = sum(b.elements[i] for i in idx) % q
            return SubsetWitness(q, idx, s, facts)
        if b.distinct_mod_p() >= 5 * ceil_two_sqrt(p) + 2:
            raise CounterexampleError(
                f"shifted lift-zero hypotheses hold (|B mod {p}| = "
                f"{b.distinct_mod_p()}) but no witness was found"
            )
        return None

    if strategy != "paper":
        raise ValueError(f"strategy must be 'direct' or 'paper', got {strategy!r}")

    elems = b.elements
    k1 = ceil_two_sqrt(p) + 1
    first_idx: dict[int, int] = {}
    for i, e in enumerate(elems):
        first_idx.setdefault(e % p, i)
    if len(first_idx) < k1:
        raise StrategyPreconditionError(
            f"step A1: need {k1} distinct residues mod {p}, have {len(first_idx)}"
        )
    non_mult = [i for i, e in enumerate(elems) if e % m != 0]
    if not non_mult:
        raise StrategyPreconditionError("step A1: every element is a multiple of m")
    protected = non_mult[-1]  # stays outside A1

    a1_positions: list[int] = []
    for r, i in first_idx.items():
        if len(a1_positions) == k1:
            break
        if i == protected:
            alt = next(
                (j for j, e in enumerate(elems) if j != protected and e % p == r),
                None,
            )
            if alt is None:
                continue  # class would consume the protected element; skip it
            i = alt
        a1_positions.append(i)
    if len(a1_positions) < k1:
        raise StrategyPreconditionError(
            f"step A1: cannot span {k1} residue classes while keeping a "
            f"non-multiple of m outside"
        )

    sub = subset_sum_find([elems[i] for i in a1_positions], -a0, p)
    if sub is None:
        raise CounterexampleError(
            f"covering step: {k1} distinct residues mod {p} failed to reach {(-a0) % p}"
        )
    a2 = sorted(a1_positions[j] for j in sub.indices)
    s2 = sum(elems[i] for i in a2)
    if (a0 + s2) % q != 0:
        return SubsetWitness(q, tuple(a2), s2 % q, facts)

    a1_set = set(a1_positions)
    rest = [i for i in range(len(elems)) if i not in a1_set]
    sub3 = find_lift_zero(ResidueMultiset(mod, tuple(elems[i] for i in rest)))
    if sub3 is None:
        if b.distinct_mod_p() >= 5 * ceil_two_sqrt(p) + 2:
            raise CounterexampleError(
                "repair step: lift-zero subset guaranteed but not found"
            )
        return None
    idx = tuple(sorted(a2 + [rest[j] for j in sub3.indices]))
    s = sum(elems[i] for i in idx) % q
    return SubsetWitness(q, idx, s, facts)


# ---------------------------------------------------------------------------
# comparison


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, CounterexampleError) as exc:
        return type(exc), str(exc)


def _same(new, ref, *args):
    got, want = _outcome(new, *args), _outcome(ref, *args)
    assert got == want
    return got


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def residue_lists(draw, q: int, m: int, max_size: int = 14):
    """Lists in [0, q) that mix arbitrary residues with zeros, multiples of
    m and repeats of a small pool, or are all zero (all multiples of q)."""
    kind = draw(st.sampled_from(("mixed", "mixed", "pool", "multiples", "zeros")))
    if kind == "zeros":
        return [0] * draw(st.integers(0, max_size))
    if kind == "multiples":
        elem = st.integers(0, q // m - 1).map(lambda k: k * m)
    elif kind == "pool":
        elem = st.sampled_from(draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3)))
    else:
        elem = st.one_of(st.integers(0, q - 1), st.just(0),
                         st.integers(0, q // m - 1).map(lambda k: k * m))
    return draw(st.lists(elem, max_size=max_size))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_subset_sum_find_matches_reference(data):
    p = data.draw(st.sampled_from(_SMALL_PRIMES + (17, 31, 1, 4, 9)))
    q = 3 * p
    elements = data.draw(st.one_of(
        residue_lists(q, p),
        st.lists(st.integers(-3 * q, 3 * q), max_size=14),
    ))
    target = data.draw(st.integers(-3 * q, 3 * q))
    _same(zq.subset_sum_find, subset_sum_find, elements, target, p)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_find_lift_zero_matches_reference(data):
    p = data.draw(st.sampled_from(_SMALL_PRIMES))
    m = data.draw(st.integers(1, 12))
    elements = tuple(data.draw(residue_lists(p * m, m)))
    b = ResidueMultiset(Modulus(p, m), elements)
    distinct = data.draw(st.sampled_from((False, False, False, True)))
    _same(zq.find_lift_zero, find_lift_zero, b, distinct)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_schwarzwald_matches_reference(data):
    p = data.draw(st.sampled_from(_SMALL_PRIMES))
    # mostly p^ell with ell in 2..4 (q <= 625); one time in ten a modulus to refuse
    if data.draw(st.integers(0, 9)):
        m = data.draw(st.sampled_from([p ** e for e in range(1, 4) if p ** (e + 1) <= 625]))
    else:
        m = data.draw(st.sampled_from((1, 6, 10, 12)))
    q = p * m
    elements = tuple(data.draw(residue_lists(q, m, max_size=24)))
    a0 = data.draw(st.integers(-3 * q, 3 * q))
    b = ResidueMultiset(Modulus(p, m), elements)
    for strategy in ("direct", "paper", "other"):
        _same(zq.schwarzwald, schwarzwald, b, a0, strategy)


def _least_witness(values, q, targets):
    # the full DP freezes the same witnesses as an early-stopped one
    reached, parent, _ = _first_reach_dp(values, q)
    return min(((_witness_indices(parent, s), s) for s in targets if reached[s]),
               default=None)


@st.composite
def run_lists(draw, q: int):
    """Runs of one residue each: long runs of a small residue or zero reach
    a few states per element (the sparse first-reach table), arbitrary
    residues soon reach q/64 or more at once (the snapshots)."""
    values = []
    for _ in range(draw(st.integers(0, 6))):
        r = draw(st.one_of(st.integers(0, 5), st.integers(0, q - 1), st.integers(-q, 2 * q)))
        values += [r] * draw(st.sampled_from((1, 1, 2, 3, 8, 40)))
    return values


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_least_witness_matches_reference(data):
    q = data.draw(st.one_of(st.integers(1, 70), st.integers(64, 5000)))
    kind = data.draw(st.sampled_from(("runs", "runs", "random", "equal")))
    if kind == "runs":
        values = data.draw(run_lists(q))
    elif kind == "random":
        values = data.draw(st.lists(st.integers(0, q - 1), max_size=24))
    else:
        values = [data.draw(st.integers(0, q - 1))] * data.draw(st.integers(0, 60))
    # one class mod a divisor p of q, less one state of Z_q or none
    p = data.draw(st.sampled_from([d for d in range(1, q + 1) if q % d == 0]))
    residue = data.draw(st.integers(0, p - 1))
    excluded = data.draw(st.one_of(st.just(-1), st.integers(0, q - 1),
                                   st.builds(lambda j: residue + j * p, st.integers(0, q // p - 1))))
    targets = [s for s in range(residue, q, p) if s != excluded]
    assert (zq._least_witness(values, q, p, residue, excluded)
            == _least_witness(values, q, targets))


# ---------------------------------------------------------------------------
# the core's previous witness recovery: a first-reach table for sparse steps
# and bisected snapshots of the reached set for dense ones, then every
# target's chain walked (body unchanged, docstring dropped)


def _least_witness_by_snapshots(
    values: Sequence[int], q: int, p: int, residue: int, excluded: int = -1
) -> tuple[tuple[int, ...], int] | None:
    _check_dp_modulus(q)
    nbytes = (q + 7) // 8
    full = (1 << q) - 1
    tmask, span = 1 << residue, p
    while span < q:
        tmask |= tmask << span
        span *= 2
    tmask &= full if excluded < 0 else full ^ (1 << excluded)
    left = tmask.bit_count()
    first = memoryview(bytearray(b"\xff") * (4 * q)).cast("i")  # int32, all -1
    snaps: list[bytes] = []
    snap_steps: list[int] = []
    reached = 0
    for i, v in enumerate(values):
        if not left:
            break
        v %= q
        new = (_rotate(reached, v, q, full) | 1 << v) & ~reached
        reached |= new
        if new.bit_count() * 64 < q:
            for s in set_bits(new):
                first[s] = i
        else:
            snaps.append(reached.to_bytes(nbytes, "little"))
            snap_steps.append(i)
        left -= (new & tmask).bit_count()

    def witness(s: int) -> tuple[int, ...]:
        idx = []
        last = len(values)
        while True:
            i = first[s]
            if i < 0:  # reached in a dense step: the first snapshot holding s
                byte, bit = s >> 3, 1 << (s & 7)
                i = snap_steps[bisect_left(snaps, True, key=lambda b: b[byte] & bit > 0)]
            if i >= last:  # steps fall along a chain; a faulty table would loop here
                raise RuntimeError(f"first-reach chain of state {s} does not descend")
            last = i
            idx.append(i)
            v = values[i] % q
            if s == v:
                return tuple(reversed(idx))
            s = (s - v) % q

    return min(((witness(s), s) for s in set_bits(reached & tmask)), default=None)


def _same_least_witness(values, q, p, residue, excluded, descends):
    # `descends`: whether the candidates are many, so that the witness is read
    # down the tree rather than walked from each candidate
    with mock.patch.object(zq, "_descend", wraps=zq._descend) as descend:
        got = zq._least_witness(values, q, p, residue, excluded)
    assert got == _least_witness_by_snapshots(values, q, p, residue, excluded)
    assert descend.called == descends
    return got


def test_least_witness_matches_snapshots_single_target():
    rng = random.Random(3)
    for q in (1009, 10007, 100003):
        values = [rng.randrange(q) for _ in range(2 * math.isqrt(q) + 1)]
        assert _same_least_witness(values, q, q, rng.randrange(q), -1, False) is not None


@pytest.mark.parametrize("seed", range(3))
def test_least_witness_matches_snapshots_shifted_grid(seed):
    # q = 71^3 with 5,040 targets: the witness is read down the tree
    b, a0 = random_shift_instance(random.Random(seed), 71, 3, 120)
    q = b.modulus.q
    assert (-a0 % q) % 71 == -a0 % 71
    assert _same_least_witness(b.elements, q, 71, -a0 % 71, -a0 % q, True) is not None


@pytest.mark.parametrize("p", (1000, 250000, 500000))
def test_least_witness_matches_snapshots_many_or_few_targets(p):
    # q = 10^6 with 1,000 targets (read down the tree) or 2 to 4 (walked)
    rng = random.Random(p)
    values = [rng.randrange(10**6) for _ in range(40)]
    for residue in (0, 1, rng.randrange(p)):
        assert _same_least_witness(values, 10**6, p, residue, residue, p == 1000) is not None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_least_witness_matches_snapshots_past_the_bitset_budget(data):
    # [q // 2] + [1] * k reaches j and q/2 + j at step j: two states q/2 bits
    # apart, so the step bitsets pass their budget within 300 steps and the
    # later steps go to the int32 table. Each target class keeps a state in
    # (300, q/2), reached only after that.
    q = data.draw(st.integers(1500, 2500))
    values = [q // 2] + [1] * q + data.draw(st.lists(st.integers(0, q - 1), max_size=3))
    p = data.draw(st.sampled_from([d for d in range(1, q // 4 + 1) if q % d == 0] + [q]))
    residue = data.draw(st.integers(q // 2 - 200, q // 2 - 1) if p == q else st.integers(0, p - 1))
    excluded = data.draw(st.sampled_from((-1, residue) if p < q else (-1,)))
    with mock.patch.object(zq, "iter_set_bits", wraps=iter_set_bits) as decode:
        _same_least_witness(values, q, p, residue, excluded,
                            q // p - (excluded >= 0) > zq._WALK_MAX)
    assert decode.called  # only the table decodes a step


# ---------------------------------------------------------------------------
# seeded grid at the sizes of the benchmark's witness workload

_LIFT_GRID = ((71, 2), (73, 2), (79, 3), (211, 2), (1009, 100))
_SHIFT_GRID = ((71, 2, 120), (211, 2, 250), (317, 2, 400), (71, 3, 120))


@pytest.mark.parametrize("p,m", _LIFT_GRID)
def test_lift_grid_matches_reference(p, m):
    rng = random.Random(p * m)
    for _ in range(3 if p < 1000 else 1):
        b = random_lift_instance(rng, p, m)
        assert isinstance(_same(zq.find_lift_zero, find_lift_zero, b, False), SubsetWitness)


@pytest.mark.parametrize("p,ell,size", _SHIFT_GRID)
def test_shift_grid_matches_reference(p, ell, size):
    rng = random.Random(p * ell)
    for _ in range(3 if p ** ell < 10**5 else 1):
        b, a0 = random_shift_instance(rng, p, ell, size)
        for strategy in ("direct", "paper"):
            assert isinstance(_same(zq.schwarzwald, schwarzwald, b, a0, strategy), SubsetWitness)


@pytest.mark.parametrize("p", (1009, 10007))
def test_olson_grid_matches_reference(p):
    rng = random.Random(p)
    for _ in range(10):
        elements = rng.sample(range(p), ceil_two_sqrt(p))
        target = rng.randrange(-p, p)
        got = _same(zq.subset_sum_find, subset_sum_find, elements, target, p)
        assert isinstance(got, SubsetWitness)
