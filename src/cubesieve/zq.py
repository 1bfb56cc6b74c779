"""Subset-sum machinery over Z_p and Z_q (q = p*m): target-sum witnesses,
lift-zero construction (sum divisible by p but not by q), minimal covering
subset size, sumsets, and exhaustive small-prime verification.

Witnesses index into the input sequence, so repeated residues are handled
without ambiguity. All finders are deterministic and share one reachability
DP over nonempty-subset sums (`_least_witness`), and each returns the least
witness over its admissible target states. The targets are one class mod p
less at most one state of Z_q: the target class itself for Olson (q = p),
0 mod p but not 0 mod q for lift-zero, -a0 mod p but not -a0 mod q for the
shifted finder.

The DP scans the elements left to right. Element i first reaches its
singleton {i}, then each state reached before i plus values[i]. The reached
states are one q-bit int R (the bitset codec of `primes`), so element i
reaches new = (rotate(R, v_i) | 1 << v_i) & ~R at once, and the DP stops
once every target is reached. A state t first reached at step i has exactly
one parent: the empty set when t == v_i (the singleton wins), otherwise
t - v_i, reached before i. So the witnesses, frozen at first reach, are the
root-to-state paths of one tree, and the DP keeps only each step's new
states: one bitset per step that reaches any, trimmed below its lowest bit.
Once those bitsets would pass 4 bytes per state of Z_q (plus 64 KiB),
every later step writes its states into an int32 table instead, so the
steps take at most 8 bytes per state together. Moduli above 10**7 are
refused before anything is allocated.

The first-reach witness of a state is its colex-least subset, so the tree
gives the least witness of the full per-state DP. A few candidate targets
are walked up to the root one by one (`_walk`); more are read down the tree
at once (`_descend`)."""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .primes import bitset, ceil_two_sqrt, is_prime, iter_set_bits, low_bits

_MAX_Q = 10**7  # largest modulus the reachability DP accepts
_WALK_MAX = 4  # candidates whose chains are walked one by one
_STEP_RECORD = 160  # bytes a kept step costs beside its bitset: tuple, list slot, ints


class CounterexampleError(RuntimeError):
    """A witness guaranteed by a covering/lifting theorem was not found.

    Raised only when the relevant hypotheses are satisfied, so an instance
    of this error is reportable evidence of an implementation bug."""


class StrategyPreconditionError(ValueError):
    """A constructive strategy could not complete a selection step."""


@dataclass(frozen=True)
class Modulus:
    """q = p * m with p prime; prime-power moduli have m = p^(ell-1)."""
    p: int
    m: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.m < 1:
            raise ValueError(f"cofactor must be >= 1, got {self.m}")

    @property
    def q(self) -> int:
        return self.p * self.m

    @property
    def is_prime_power(self) -> bool:
        """Whether q = p^k: one log estimate of k (math.log reads a big int
        by its bit length) confirmed by one power, not k divisions."""
        return self.p ** round(math.log(self.q, self.p)) == self.q


@dataclass(frozen=True)
class ResidueMultiset:
    """Elements of Z_q with multiplicity, carrying the reduction map to Z_p."""
    modulus: Modulus
    elements: tuple[int, ...]

    def __post_init__(self):
        q = self.modulus.q
        for e in self.elements:
            if not 0 <= e < q:
                raise ValueError(f"element {e} outside [0, {q})")

    def reductions_mod_p(self) -> tuple[int, ...]:
        p = self.modulus.p
        return tuple(e % p for e in self.elements)

    def distinct_mod_p(self) -> int:
        return len(set(self.reductions_mod_p()))


@dataclass(frozen=True)
class SubsetWitness:
    """A subset of input positions, its sum mod q, and certified facts.

    Each fact is (modulus, op, target) with op `==` or `!=`, asserting
    sum == target (mod modulus) resp. sum != target (mod modulus)."""
    q: int
    indices: tuple[int, ...]
    sum_mod_q: int
    facts: tuple[tuple[int, str, int], ...]

    def validate(self, elements: Sequence[int]) -> bool:
        """Re-check everything from scratch against the original elements."""
        idx = self.indices
        if not idx or any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            return False
        if idx[0] < 0 or idx[-1] >= len(elements):  # ascending: the ends bound the rest
            return False
        s = sum(elements[i] for i in idx)
        if s % self.q != self.sum_mod_q:
            return False
        for mod, op, target in self.facts:
            if op == "==":
                if s % mod != target:
                    return False
            elif op == "!=":
                if s % mod == target:
                    return False
            else:
                return False
        return True


def _rotate(mask: int, v: int, q: int, full: int) -> int:
    """The q-bit `mask` rotated up by v (0 <= v < q): bit s moves to s + v mod q."""
    return ((mask << v) | (mask >> (q - v))) & full


def _check_dp_modulus(q: int) -> None:
    """Refuse a modulus past _MAX_Q; one of 30 digits or more is named by its
    bit count, so that the message stays one short line and no decimal
    conversion or power of ten is computed."""
    if q > _MAX_Q:
        shown = f"q = {q}" if q < 10**30 else f"q of {q.bit_length()} bits"
        raise ValueError(f"modulus {shown} is too large for the reachability DP (max 10**7)")


def check_dp_power(p: int, ell: int) -> None:
    """Refuse q = p^ell past _MAX_Q from p and ell alone, before the power is
    built: a prime p gives p^ell >= 2^24 > _MAX_Q once ell >= 24."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if ell >= _MAX_Q.bit_length():
        raise ValueError(f"modulus q = {p}^{ell} is too large for the reachability DP "
                         "(max 10**7)")


def _least_witness(
    values: Sequence[int], q: int, p: int, residue: int, excluded: int = -1
) -> tuple[tuple[int, ...], int] | None:
    """Least witness over the target states of Z_q, as (indices, state):
    the states = residue (mod p), for p dividing q and 0 <= residue < p,
    other than `excluded` (none when it is -1). Returns None when no target
    is reachable. The DP is the one the module docstring describes.

    The target mask repeats bit `residue` every p bits, doubling the span
    it covers at each shift: O(log(q/p)) big-int operations, where the one
    division (2^q - 1) // (2^p - 1) gives the same mask in O(q p) steps."""
    _check_dp_modulus(q)
    full = (1 << q) - 1
    tmask, span = 1 << residue, p
    while span < q:
        tmask |= tmask << span
        span *= 2
    tmask &= full if excluded < 0 else full ^ (1 << excluded)
    left = tmask.bit_count()
    budget = 4 * q + 2**16
    steps: list[tuple[int, int, int, int | None]] = []  # (i, v_i, lo, bits, or None: tabled)
    first = None  # the step number in `steps` of each tabled state, else -1
    reached = untabled = 0
    for i, v in enumerate(values):
        if not left:
            break
        v %= q
        new = (_rotate(reached, v, q, full) | 1 << v) & ~reached
        if not new:
            continue
        reached |= new
        left -= (new & tmask).bit_count()
        if first is None:
            lo = (new & -new).bit_length() - 1
            bits = new >> lo
            budget -= sys.getsizeof(bits) + _STEP_RECORD
            if budget >= 0:
                steps.append((i, v, lo, bits))
                continue
            first = memoryview(bytearray(b"\xff") * (4 * q)).cast("i")  # int32, all -1
            untabled = reached ^ new
        for s in iter_set_bits(new):
            first[s] = len(steps)
        steps.append((i, v, 0, None))
    cands = reached & tmask
    if not cands:
        return None
    if cands.bit_count() <= _WALK_MAX:
        return min((_walk(steps, first, s, q), s) for s in low_bits(cands))
    return _descend(steps, first, reached ^ untabled if first else 0, cands, q, full)


def _made(steps, k: int, s: int, first) -> bool:
    """Whether state s was first reached at step k of `_least_witness`."""
    _, _, lo, bits = steps[k]
    if bits is None:
        return first[s] == k
    return s >= lo and bits >> (s - lo) & 1 == 1


def _walk(steps, first, s: int, q: int) -> tuple[int, ...]:
    """The witness of state s: its chain of parents, read by one backward
    scan over the steps, since each parent was reached before its child."""
    idx = []
    for k in range(len(steps) - 1, -1, -1):
        if _made(steps, k, s, first):
            i, v = steps[k][:2]
            idx.append(i)
            if s == v:
                return tuple(reversed(idx))
            s = (s - v) % q
    raise RuntimeError(f"first-reach chain of state {s} does not end in a singleton")


def _descend(steps, first, tabled: int, cands: int, q: int, full: int):
    """The least witness over the states in `cands`, read down the tree.

    First `anc` marks each state whose subtree holds a candidate. Tabled
    states come last in step order, so their chains are traced one state at
    a time first, each state once. Then one backward pass over the bitset
    steps: at step k, the marked states first reached there, less the
    singleton v_k (its parent is the empty set), mark their parents
    s - v_k with one rotate.

    Then the witness is read from the root: at a marked state sigma, sigma
    itself wins when it is a candidate (its witness is a prefix of the
    others); otherwise the child sigma + v_k at the earliest step k that
    holds a marked child leads on. Steps only move forward, so reading the
    witness costs one scan over the steps."""
    anc = cands
    if tabled:
        marked = bytearray(q)
        for s in iter_set_bits(cands & tabled):
            while not marked[s]:
                marked[s] = 1
                k = first[s]
                if k < 0 or s == steps[k][1]:
                    break
                s = (s - steps[k][1]) % q
        anc |= bitset(itertools.compress(range(q), marked), q - 1)
    for _, v, lo, bits in reversed(steps):
        if bits is None:
            continue
        h = (anc >> lo) & bits
        if h and v >= lo and h >> (v - lo) & 1:
            h ^= 1 << (v - lo)
        if h:
            anc |= _rotate(h, (lo - v) % q, q, full)
    idx: list[int] = []
    sigma = -1  # the empty set
    for k, (i, v, _, _) in enumerate(steps):
        t = v if sigma < 0 else (sigma + v) % q
        if _made(steps, k, t, first) and anc >> t & 1:
            idx.append(i)
            sigma = t
            if cands >> t & 1:
                break
    return tuple(idx), sigma


def subset_sum_find(elements: Sequence[int], target: int, p: int) -> SubsetWitness | None:
    """Find a nonempty subset of `elements` with sum = target (mod p).

    Returns None when no nonempty subset works. Any input occupying more
    than 2*sqrt(p) distinct residues covers every target (Olson), so an
    empty answer in that regime is an internal error and raises."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target %= p
    vals = [e % p for e in elements]
    found = _least_witness(vals, p, p, target)
    if found:
        return SubsetWitness(p, *found, ((p, "==", target),))
    distinct = len(set(vals))
    if distinct * distinct > 4 * p:
        raise CounterexampleError(
            f"{distinct} distinct residues mod {p} must cover every target, "
            f"but {target} was not reached"
        )
    return None


def minimal_cover_k(p: int) -> int:
    """Least k such that every k-subset of Z_p has nonempty subset sums
    covering all of Z_p.

    Computed exactly: non-covering subsets form a downward-closed family, so
    a depth-first extension over them finds the largest non-covering size M,
    and k = M + 1. Exponential in the worst case; capped at p <= 31."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > 31:
        raise ValueError(f"exhaustive search capped at p <= 31, got {p}")
    full = (1 << p) - 1
    best = 0
    # stack entries: (next element to try, subset size, reachable-sum bitmask)
    stack = [(0, 0, 0)]
    while stack:
        start, size, mask = stack.pop()
        if size > best:
            best = size
        for e in range(start, p):
            nm = mask | _rotate(mask, e, p, full) | (1 << e)
            if nm != full:
                stack.append((e + 1, size + 1, nm))
    return best + 1


def find_lift_zero(b: ResidueMultiset, distinct_mod_p: bool = False) -> SubsetWitness | None:
    """Find A inside the multiset with sum(A) = 0 (mod p) but != 0 (mod q).

    Complete search via the Z_q reachability DP. Whenever the reduction
    mod p occupies more than 4*ceil(2*sqrt(p)) classes and some element is
    not a multiple of m = q/p, a witness must exist; an empty answer there
    raises CounterexampleError. With distinct_mod_p=True the elements are
    required to be pairwise distinct mod p."""
    mod = b.modulus
    if mod.m == 1:
        raise ValueError("lift-zero needs a composite modulus q = p*m with m > 1")
    p, q, m = mod.p, mod.q, mod.m
    if distinct_mod_p and b.distinct_mod_p() != len(b.elements):
        raise ValueError("elements are not distinct mod p")
    found = _least_witness(b.elements, q, p, 0, 0)
    if found:
        return SubsetWitness(q, *found, ((p, "==", 0), (q, "!=", 0)))
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


def step_a1_classes(p: int, elements: Sequence[int]) -> dict[int, int]:
    """The `paper` strategy's step A1 precondition, read from p and the
    elements alone, so it can run before q = p^ell is built: the first index
    of each residue class mod the prime p, refused when fewer than
    ceil(2*sqrt(p)) + 1 classes occur."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    first_idx: dict[int, int] = {}
    for i, e in enumerate(elements):
        first_idx.setdefault(e % p, i)
    k1 = ceil_two_sqrt(p) + 1
    if len(first_idx) < k1:
        raise StrategyPreconditionError(
            f"step A1: need {k1} distinct residues mod {p}, have {len(first_idx)}"
        )
    return first_idx


def schwarzwald(b: ResidueMultiset, a0: int, strategy: str = "direct") -> SubsetWitness | None:
    """Find A inside the multiset with a0 + sum(A) = 0 (mod p) and != 0
    (mod q = p^ell), ell > 1. The empty subset never counts.

    `direct` runs the complete Z_q reachability DP over all admissible
    targets. `paper` follows the constructive two-stage route: select a
    subfamily A1 spanning ceil(2*sqrt(p)) + 1 residue classes while keeping
    some non-multiple of m = p^(ell-1) outside, solve the covering step
    inside A1, and if the resulting sum collides with 0 mod q, repair it
    with a disjoint lift-zero subset from the remainder. The constructive
    route rejects inputs failing a selection step with a diagnostic naming
    the step; the certified facts of either strategy are identical."""
    mod = b.modulus
    if mod.m == 1 or not mod.is_prime_power:  # ell > 1 exactly when m > 1
        # m is not shown: past 4,300 digits it has no decimal string
        raise ValueError(f"modulus q = p * m must be p^ell with ell > 1 for p = {mod.p}")
    p, q, m = mod.p, mod.q, mod.m
    a0 %= q
    facts = ((p, "==", (-a0) % p), (q, "!=", (-a0) % q))

    if strategy == "direct":
        found = _least_witness(b.elements, q, p, (-a0) % p, (-a0) % q)
        if found:
            return SubsetWitness(q, *found, facts)
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
    first_idx = step_a1_classes(p, elems)
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


def sumset_mod_p(a: set[int], b: set[int], p: int) -> set[int]:
    """{x + y mod p}; satisfies |A+B| >= min(p, |A|+|B|-1) (Cauchy-Davenport)."""
    if not a or not b:
        raise ValueError("sumset needs nonempty operands")
    if any(not 0 <= x < p for x in a) or any(not 0 <= x < p for x in b):
        raise ValueError(f"operands must be subsets of Z_{p}")
    return {(x + y) % p for x in a for y in b}


@dataclass(frozen=True)
class OlsonReport:
    """Outcome of exhaustively checking that every large-enough subset of
    Z_p reaches every target through nonempty subset sums."""
    p: int
    subsets_checked: int
    cases_checked: int
    counterexamples: tuple


def verify_olson_exhaustive(p: int) -> OlsonReport:
    """For every B in Z_p with |B| > 2*sqrt(p) and every target a, assert
    subset_sum_find succeeds and its witness re-validates. Capped at p <= 13."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > 13:
        raise ValueError(f"exhaustive verification capped at p <= 13, got {p}")
    min_size = math.isqrt(4 * p) + 1  # least size strictly above 2*sqrt(p)
    counters = []
    subsets = cases = 0
    for size in range(min_size, p + 1):
        for b in itertools.combinations(range(p), size):
            subsets += 1
            for a in range(p):
                cases += 1
                try:
                    w = subset_sum_find(b, a, p)
                except CounterexampleError:
                    w = None
                if w is None or not w.validate(b):
                    counters.append((b, a))
    counters.sort()
    return OlsonReport(p, subsets, cases, tuple(counters))
