"""Experiment orchestration, verification suites, CSV persistence, and the
`cubesieve` command line interface.

Reruns with identical flags and seed produce byte-identical CSV output.
Exit codes: 0 success, 1 usage error, refused input or memory exhausted,
2 counterexample found, 3 node budget exhausted on a run that required
exactness.

Each command is one row of `_COMMANDS`: its handler, help text and flags.
`main` builds the parser of the one command its first argument names, so
a run does not pay for the other twelve. The full parser is built for
top-level `-h` or `--version` and an empty or unknown command. Both name
every command in their usage line, so every usage error, help text and
exit code is the full parser's."""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass

from . import __version__
from .arithsets import (
    RFull,
    Semigroup,
    Squareful,
    enumerate_members,
    is_member,
    parse_set_descriptor,
)
from .cube import (
    DEFAULT_BUDGET,
    HilbertCube,
    _check_budget,
    dense_bits,
    max_dimension_exact,
    max_dimension_greedy,
    max_homogeneous_ap,
    residue_constraint_check,
    verify,
)
from .primes import MAX_TABLE, PrimeSet, ceil_two_sqrt, check_table, parse_prime_set, primes_up_to
from .sieve import NU_MODELS, _check_log_n, optimize_cutoff, prescribed_cutoff, square_classes
from .sunflower import (
    SetFamily,
    find_sunflower,
    homogeneous_ap_via_sunflower,
    rep_count_g,
    sunflower_threshold,
)
from .zq import (
    CounterexampleError,
    Modulus,
    ResidueMultiset,
    SubsetWitness,
    check_dp_power,
    find_lift_zero,
    minimal_cover_k,
    schwarzwald,
    step_a1_classes,
    subset_sum_find,
    sumset_mod_p,
    verify_olson_exhaustive,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3
# a cutoff scan keeps about 240 bytes a row, so 0.3 GB at this many rows
_MAX_GRID_ROWS = 10**6


@dataclass
class ExperimentConfig:
    n_grid: tuple[int, ...]
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    r: int = 2
    primes: str = "all"
    tau: float = 1.0

    def __post_init__(self):
        grid = tuple(self.n_grid)
        if not grid or any(a >= b for a, b in zip(grid, grid[1:])):
            raise ValueError("N grid must be nonempty and strictly ascending")
        object.__setattr__(self, "n_grid", grid)


def _fmt(x) -> str:
    if x is None:
        return "inf"
    if isinstance(x, float):
        return f"{x:.6f}"
    return str(x)


def _write(text: str, path: str | None) -> None:
    """Write a result to the --out file, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _emit_csv(header: list[str], rows: list[list], path: str | None) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(v) for v in row) + "\n"
    _write(text, path)


def _emit_witness(args, w: SubsetWitness | None, elements) -> None:
    """Write a subset-sum certificate once it re-validates against the
    elements it indexes."""
    if w is None:
        return _write("NOTFOUND\n", args.out)
    indices = "+".join(map(str, w.indices))
    if not w.validate(elements):
        raise CounterexampleError(f"{args.command} witness {indices} fails re-validation")
    facts = "|".join(f"{mod}{op}{t}" for mod, op, t in w.facts)
    _emit_csv(["indices", "sum", "facts"], [[indices, w.sum_mod_q, facts]], args.out)


# ---------------------------------------------------------------------------
# dimension scans

_SCAN_HEADER = [
    "N", "dimension", "mode", "witness", "nodes", "exact",
    "log_N", "d_over_log_N", "d_over_sqrt_log_N",
]


def _mode(exact: bool) -> str:
    """The `mode` column: `greedy` unless an exact search completed."""
    return "exact" if exact else "greedy"


def _recheck(cube: HilbertCube, s, limit: int, what: str) -> None:
    """Re-verify a cube certificate against the set before it is written."""
    ok, offender = verify(cube, s, limit)
    if not ok:
        raise CounterexampleError(f"{what} fails at {offender}")


def run_dimension_scan(descriptor, cfg: ExperimentConfig):
    """Maximal cube dimension in a set, one row per grid point: exact search,
    degrading to the better of the truncated search and a seeded greedy
    probe when the budget runs out. The probe runs only where its bitset
    fits (N <= MAX_TABLE); past it the truncated search's row stands. Both
    searches at a grid point read the one list of its members and, on a
    row whose members are dense (`dense_bits`), the one bitset of them,
    built before the exact search; a sparse row's probe builds its own.
    Every witness is re-verified in a post-pass before the row is
    emitted."""
    _check_budget(cfg.budget)  # before the first enumeration, as the exact search checks it
    rows = []
    for n in cfg.n_grid:
        members = enumerate_members(descriptor, n)
        bits = dense_bits(members, n)
        res = max_dimension_exact(descriptor, n, budget=cfg.budget, members=members, bits=bits)
        if not res.exact and n <= MAX_TABLE:
            probe = max_dimension_greedy(descriptor, n, seed=f"{cfg.seed}:{n}",
                                         members=members, bits=bits)
            if probe.best_dimension > res.best_dimension:
                res = probe
        if res.witness is not None:
            _recheck(res.witness, descriptor, n, f"scan witness {res.witness.describe()}")
        d = res.best_dimension
        log_n = math.log(n)
        ratios_defined = d >= 0 and log_n > 0
        rows.append([
            n, d, _mode(res.exact),
            res.witness.describe() if res.witness else "-",
            res.nodes_expanded, int(res.exact),
            log_n,
            d / log_n if ratios_defined else "-",
            d / math.sqrt(log_n) if ratios_defined else "-",
        ])
    return _SCAN_HEADER, rows


# ---------------------------------------------------------------------------
# sieve-vs-truth comparison

_SIEVE_HEADER = [
    "N", "truth", "y_prescribed", "bound_prescribed",
    "y_best", "bound_best", "bound_over_truth",
]


def run_sieve_compare(cfg: ExperimentConfig):
    """Certified sieve bound for the squares up to N versus the true count,
    at the prescribed cutoff y = (20/tau)^2 (log N)^2 and at the best cutoff
    from a small grid around it. The class counts of the squares come in
    closed form (`square_classes`), so no list of them is built. A finite
    bound below the true count is a counterexample."""
    all_primes = PrimeSet.all_primes()
    # the grid ascends, so its first N is the smallest and its last prescribed
    # cutoff the largest sieve; log N must be positive
    if cfg.n_grid[0] < 2:
        raise ValueError(f"sieve-compare needs N >= 2, got {cfg.n_grid[0]}")
    y_stars = [max(4, int(round(prescribed_cutoff(cfg.tau, math.log(n))))) for n in cfg.n_grid]
    check_table(y_stars[-1])
    rows = []
    for n, y_star in zip(cfg.n_grid, y_stars):
        truth = math.isqrt(n)
        log_n = math.log(n)
        grid = sorted({max(4, y_star // k) for k in (16, 8, 4, 2)} | {y_star})
        scan = optimize_cutoff(all_primes, lambda p: square_classes(truth, p), log_n, grid)
        at_star = next(rep for y, rep in scan.rows if y == y_star)
        # the best bound is the least finite one, the prescribed one included
        if scan.best and scan.best.bound < truth:
            raise CounterexampleError(f"sieve-compare bound {scan.best.bound} at y = "
                                      f"{scan.best_y} is below the {truth} squares up to {n}")
        rows.append([
            n, truth, y_star, at_star.bound,
            scan.best_y,
            scan.best.bound if scan.best else None,
            scan.best.bound / truth if scan.best else None,
        ])
    return _SIEVE_HEADER, rows


# each experiment's runner and the config fields (besides the grid) it reads;
# the dimension scans differ only in the set they build
_EXPERIMENTS = {
    "f2": (lambda cfg: run_dimension_scan(Squareful(), cfg), ("budget", "seed")),
    "f1": (lambda cfg: run_dimension_scan(RFull(cfg.r, parse_prime_set(cfg.primes)), cfg),
           ("budget", "seed", "r", "primes")),
    "f4": (lambda cfg: run_dimension_scan(Semigroup(parse_prime_set(cfg.primes)), cfg),
           ("budget", "seed", "primes")),
    "sieve-compare": (run_sieve_compare, ("tau",)),
}


# ---------------------------------------------------------------------------
# verification suite

@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str


def flip_first_index(w: SubsetWitness) -> SubsetWitness:
    """Self-test fault: corrupt a witness by bumping its first index."""
    return SubsetWitness(w.q, (w.indices[0] + 1,) + w.indices[1:], w.sum_mod_q, w.facts)


def random_lift_instance(rng: random.Random, p: int, m: int) -> ResidueMultiset:
    """Random multiset in Z_q meeting the lift-zero hypotheses: more than
    4*ceil(2*sqrt(p)) residues mod p and an element that is no multiple of m."""
    need = 4 * ceil_two_sqrt(p) + 1
    if need > p:
        raise ValueError(f"hypotheses unsatisfiable at p={p}")
    q = p * m
    while True:
        residues = rng.sample(range(p), need)
        elems = tuple(sorted((r + p * rng.randrange(m)) % q for r in residues))
        if any(e % m != 0 for e in elems):
            return ResidueMultiset(Modulus(p, m), elems)


def random_shift_instance(rng: random.Random, p: int, ell: int,
                          size: int = 120) -> tuple[ResidueMultiset, int]:
    """Random instance for the shifted finder at q = p^ell: `size` elements
    covering every residue class mod p, plus an arbitrary shift a0."""
    q = p**ell
    elems = [r + p * rng.randrange(p ** (ell - 1)) for r in range(p)]
    elems += [rng.randrange(q) for _ in range(size - p)]
    rng.shuffle(elems)
    return ResidueMultiset(Modulus(p, p ** (ell - 1)), tuple(elems)), rng.randrange(q)


def _check(name: str, fn) -> CheckOutcome:
    try:
        ok, detail = fn()
    except CounterexampleError as exc:
        ok, detail = False, f"counterexample: {exc}"
    return CheckOutcome(name, ok, detail)


def run_verify_all(witness_fault_hook=None) -> list[CheckOutcome]:
    """Run every module's verification suite at caps small enough for an
    interactive run; the acceptance tests run the full-size versions.

    `witness_fault_hook` corrupts witnesses before re-validation and exists
    so the harness can prove it detects invalid witnesses."""
    rng = random.Random(0)

    def olson_exhaustive():
        counts = {p: len(verify_olson_exhaustive(p).counterexamples) for p in (5, 7, 11)}
        bad = [(p, n) for p, n in counts.items() if n]
        return not bad, f"p in (5,7,11), counterexamples: {bad or 0}"

    def witness_revalidation():
        failures = 0
        cases = 0
        for p in (7, 11, 13):
            univ = list(range(p))
            for _ in range(8):
                b = rng.sample(univ, math.isqrt(4 * p) + 1)
                w = subset_sum_find(b, rng.randrange(p), p)
                if w is None:
                    return False, f"missing witness mod {p}"
                if witness_fault_hook is not None:
                    w = witness_fault_hook(w)
                cases += 1
                if not w.validate(b):
                    failures += 1
        return failures == 0, f"{cases} witnesses re-validated, {failures} invalid"

    def minimal_cover():
        got = tuple(minimal_cover_k(p) for p in (2, 3, 5))
        if got != (2, 3, 4):
            return False, f"k(2,3,5) = {got}, expected (2,3,4)"
        for p in (2, 3, 5, 7, 11, 13):
            if minimal_cover_k(p) > math.isqrt(4 * p) + 1:
                return False, f"k({p}) exceeds floor(2*sqrt(p))+1"
        return True, "k(2,3,5)=(2,3,4); k(p) within the covering bound for p <= 13"

    def lift_zero():
        n = 0
        for p, m in ((71, 2), (79, 3)):
            for _ in range(10):
                b = random_lift_instance(rng, p, m)
                w = find_lift_zero(b)
                if w is None or not w.validate(b.elements):
                    return False, f"invalid lift-zero witness at p={p}, m={m}"
                n += 1
        return True, f"{n} randomized instances, all witnesses valid"

    def shifted_finder():
        for _ in range(6):
            b, a0 = random_shift_instance(rng, 71, 2)
            for strategy in ("direct", "paper"):
                w = schwarzwald(b, a0, strategy)
                if w is None or not w.validate(b.elements):
                    return False, f"{strategy} failed at a0={a0}"
        # crafted input driving the repair branch of the constructive route
        mod = Modulus(7, 7)
        b = ResidueMultiset(mod, (0, 1, 2, 3, 4, 5, 6, 7, 8))
        w = schwarzwald(b, 0, "paper")
        if w is None or not w.validate(b.elements):
            return False, "constructive repair branch failed"
        return True, "both strategies valid on 6 random + 1 crafted instance"

    def cauchy_davenport():
        for p in (3, 5, 7):
            full = range(1, 1 << p)
            for amask in full:
                a = {i for i in range(p) if amask >> i & 1}
                for bmask in full:
                    b = {i for i in range(p) if bmask >> i & 1}
                    if len(sumset_mod_p(a, b, p)) < min(p, len(a) + len(b) - 1):
                        return False, f"violated at p={p}, A={sorted(a)}, B={sorted(b)}"
        return True, "exhaustive over p in (3,5,7)"

    def sieve_soundness():
        # the measured scan of the CLI, at one cutoff over the primes in (40, 600]
        moduli = PrimeSet.explicit(p for p in primes_up_to(600) if p > 40)
        for _ in range(10):
            n = 10**4
            a = sorted(rng.sample(range(1, n + 1), rng.randrange(20, 40)))
            plain, weighted = (
                optimize_cutoff(moduli, "measured", math.log(n), [600], values=a,
                                variant=variant).rows[0][1]
                for variant in ("plain", "weighted"))
            if plain.bound is not None and len(a) > plain.bound + 1e-9:
                return False, f"|A|={len(a)} exceeds certified bound {plain.bound:.3f}"
            if plain.bound is not None and weighted.bound is not None:
                if weighted.bound > plain.bound + 1e-9:
                    return False, "weighted bound exceeds plain bound"
                if len(a) > weighted.bound + 1e-9:
                    return False, "weighted bound unsound"
        return True, "10 randomized instances sound; weighted <= plain throughout"

    def cube_ground_truth():
        r10 = max_dimension_exact(Squareful(), 10)
        r32 = max_dimension_exact(Squareful(), 32)
        if (r10.best_dimension, r32.best_dimension) != (1, 2):
            return False, f"dimensions ({r10.best_dimension}, {r32.best_dimension}), expected (1, 2)"
        for limit, res in ((10, r10), (32, r32)):
            ok, off = verify(res.witness, Squareful(), limit)
            if not ok:
                return False, f"witness {res.witness.describe()} fails at {off}"
        bad = tuple(r for r in residue_constraint_check(r32.witness, PrimeSet.all_primes(), 100)
                    if not r.ok)
        if bad:
            return False, f"residue constraint violated: {bad}"
        return True, "exact dimensions 1 @ N=10 and 2 @ N=32; witnesses verify"

    def sunflower_suite():
        if (sunflower_threshold(1, 3), sunflower_threshold(2, 3), sunflower_threshold(3, 3)) != (3, 5, 36):
            return False, "threshold values drifted"
        found = 0
        for _ in range(20):
            nsets = rng.randrange(6, 16)
            pool = set()
            while len(pool) < nsets:
                pool.add(frozenset(rng.sample(range(10), rng.randrange(1, 4))))
            fam = SetFamily(tuple(sorted(pool, key=sorted)), 3)
            w = find_sunflower(fam, 3, "greedy")
            if w is not None:
                if not w.validate(fam):
                    return False, "greedy witness failed validation"
                if find_sunflower(fam, 3, "exact") is None:
                    return False, "greedy found a sunflower that exact denies"
                found += 1
        # representation counts against brute force
        for _ in range(5):
            a = rng.sample(range(1, 40), 9)
            h = rng.randrange(2, 5)
            g, tgt = rep_count_g(a, h, 120)
            sums = Counter(s for s in map(sum, itertools.combinations(a, h)) if s <= 120)
            brute = max(sums.values(), default=0)
            if g != brute:
                return False, f"rep count {g} != brute force {brute}"
        return True, f"{found}/20 greedy hits validated; rep counts match brute force"

    def ap_extraction():
        res = homogeneous_ap_via_sunflower(range(1, 8), 2, 3)
        if res is None:
            return False, "no equal-sum sunflower found in {1..7} pairs"
        s, w, fam = res
        steps = sorted(x for i in w.petal_indices for x in fam.sets[i])
        sums = set(HilbertCube(0, tuple(steps)).sums())
        missing = [j * s for j in range(len(w.petal_indices)) if j * s not in sums]
        return not missing, f"step {s}; progression realized inside the cube" if not missing \
            else f"progression misses {missing}"

    return [_check("olson-exhaustive", olson_exhaustive),
            _check("witness-revalidation", witness_revalidation),
            _check("minimal-cover", minimal_cover),
            _check("lift-zero", lift_zero),
            _check("shifted-lift-zero", shifted_finder),
            _check("cauchy-davenport", cauchy_davenport),
            _check("sieve-soundness", sieve_soundness),
            _check("cube-ground-truth", cube_ground_truth),
            _check("sunflower", sunflower_suite),
            _check("ap-extraction", ap_extraction)]


# ---------------------------------------------------------------------------
# CLI

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _ints(text: str, where: str) -> list[int]:
    """A comma-separated list of integers; `where` names the flag, config key
    or file line it came from in the error on a bad entry."""
    values = []
    for t in text.split(","):
        if t.strip():
            try:
                values.append(int(t))
            except ValueError:
                raise ValueError(f"{where}: invalid integer {t.strip()[:40]!r} "
                                 f"in the list {text.strip()[:40]!r}") from None
    return values


def _parse_y_grid(text: str) -> list[int]:
    """`a:b:step` inclusive, or a comma-separated list."""
    if ":" in text:
        try:
            a, b, step = (int(t) for t in text.split(":"))
            if step < 1 or b < a:
                raise ValueError
        except ValueError:  # also too few or too many parts, or a non-integer one
            raise ValueError(f"bad grid spec {text!r}") from None
        check_table(a + (b - a) // step * step)  # the last point, before the list
        rows = (b - a) // step + 1
        if rows > _MAX_GRID_ROWS:
            raise ValueError(f"grid spec {text!r} has {rows} points; a scan takes at most "
                             f"10**6 rows (about 0.3 GB)")
        return list(range(a, b + 1, step))
    return _ints(text, "--y-grid")


def cmd_membership(args) -> int:
    s = parse_set_descriptor(args.set)
    _write("true\n" if is_member(s, args.n) else "false\n", None)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    members = enumerate_members(parse_set_descriptor(args.set), args.limit)
    _emit_csv(["n"], [[m] for m in members], args.out)
    return EXIT_OK


def cmd_olson(args) -> int:
    elements = _ints(args.elements, "--elements")
    w = subset_sum_find(elements, args.target, args.p)
    _emit_witness(args, w, elements)
    return EXIT_OK


def cmd_liftzero(args) -> int:
    b = ResidueMultiset(Modulus(args.p, args.m), tuple(_ints(args.elements, "--elements")))
    w = find_lift_zero(b, distinct_mod_p=args.distinct_mod_p)
    _emit_witness(args, w, b.elements)
    return EXIT_OK


def _check_printable_power(p: int, ell: int) -> None:
    """Refuse q = p^ell when its decimal digits pass Python's int-to-str
    limit, since the certificate prints q: the count comes from one
    logarithm, before the power is built."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = math.floor(ell * math.log10(p)) + 1
    if limit and digits > limit:
        raise ValueError(f"modulus q = {p}^{ell} has {digits} digits; a certificate prints "
                         f"at most {limit} (Python's int-to-str limit)")


def cmd_schwarzwald(args) -> int:
    if args.ell < 2:
        raise ValueError(f"modulus must be p^ell with ell > 1, got p={args.p}, ell={args.ell}")
    elements = tuple(_ints(args.elements, "--elements"))
    # each strategy's refusal reads p, ell or the elements, not the power
    if args.strategy == "direct":
        check_dp_power(args.p, args.ell)
    else:
        step_a1_classes(args.p, elements)
        _check_printable_power(args.p, args.ell)
    mod = Modulus(args.p, args.p ** (args.ell - 1))
    b = ResidueMultiset(mod, elements)
    w = schwarzwald(b, args.a0, strategy=args.strategy)
    _emit_witness(args, w, b.elements)
    return EXIT_OK


def _read_elements(path: str) -> list[int]:
    """One integer per nonblank line of an elements file."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    values.append(int(line))
                except ValueError:
                    raise ValueError(f"{path} line {number}: invalid integer "
                                     f"{line.strip()[:40]!r}") from None
    return values


def cmd_sieve_bound(args) -> int:
    # a model nu reads no set, and the weighted variant reads only a set
    if args.nu != "measured":
        if args.variant == "weighted":
            raise ValueError("sieve-bound --variant weighted needs --nu measured")
        if args.set or args.elements_file:
            given = "--set" if args.set else "--elements-file"
            raise ValueError(f"sieve-bound --nu {args.nu} does not read {given}")
    prime_set = parse_prime_set(args.primes)
    grid = _parse_y_grid(args.y_grid)
    check_table(max(grid, default=0))
    values = None
    if args.elements_file:
        values = _read_elements(args.elements_file)
    elif args.nu == "measured":
        if not args.set:
            raise ValueError("measured profiles need --set or --elements-file")
        _check_log_n(args.log_n)
        if args.log_n > math.log(MAX_TABLE):
            raise ValueError(f"log N too large to enumerate up to e^(log N), got {args.log_n}")
        values = enumerate_members(parse_set_descriptor(args.set),
                                   int(round(math.exp(args.log_n))))
    scan = optimize_cutoff(prime_set, args.nu, args.log_n, grid,
                           values=values, variant=args.variant)
    rows = [[y, rep.numerator, rep.denominator, rep.bound] for y, rep in scan.rows]
    _emit_csv(["y", "numerator", "denominator", "bound"], rows, args.out)
    return EXIT_OK


def cmd_cube_verify(args) -> int:
    cube = HilbertCube(args.a0, tuple(_ints(args.steps, "--steps")), args.distinct)
    ok, offender = verify(cube, parse_set_descriptor(args.set), args.limit)
    _write("verified\n" if ok else f"offender:{offender}\n", None)
    return EXIT_OK


def cmd_cube_search(args) -> int:
    s = parse_set_descriptor(args.set)
    _check_budget(args.budget)
    if args.mode == "exact":
        res = max_dimension_exact(s, args.limit, subset_sum_mode=args.subset_sum,
                                  distinct=args.distinct, budget=args.budget)
    else:
        res = max_dimension_greedy(s, args.limit, subset_sum_mode=args.subset_sum,
                                   seed=args.seed, distinct=args.distinct)
    if res.witness is not None:
        _recheck(res.witness, s, args.limit, f"cube-search witness {res.witness.describe()}")
    row = [args.limit, _mode(res.exact), res.best_dimension,
           res.witness.describe() if res.witness else "-",
           res.nodes_expanded, int(res.exact)]
    _emit_csv(["N", "mode", "dimension", "witness", "nodes", "exact"], [row], args.out)
    if args.mode == "exact" and not res.exact:
        print("node budget exhausted; result is a lower bound", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_ap_max(args) -> int:
    s = parse_set_descriptor(args.set)
    length, step = max_homogeneous_ap(s, args.limit)
    if step is not None:
        # step, 2 step, ..., length step are the sums of H(step; step x (length - 1))
        _recheck(HilbertCube(step, (step,) * (length - 1)), s, args.limit,
                 f"ap-max progression of step {step} and length {length}")
    _emit_csv(["N", "length", "step"],
              [[args.limit, length, step if step is not None else "-"]], args.out)
    return EXIT_OK


def cmd_sunflower(args) -> int:
    with open(args.family_file, encoding="utf-8") as fh:
        sets = [_ints(line, f"{args.family_file} line {number}")
                for number, line in enumerate(fh, 1) if line.strip()]
    fam = SetFamily.from_iterables(sets)
    w = find_sunflower(fam, args.petals, mode=args.mode)
    if w is None:
        reason = "absence-proven" if args.mode == "exact" else "greedy-inconclusive"
        _write(f"NOTFOUND,{reason}\n", None)
    else:
        kernel = "+".join(map(str, sorted(w.kernel))) or "-"
        petals = "+".join(map(str, w.petal_indices))
        if not w.validate(fam):
            raise CounterexampleError(f"sunflower witness {petals} fails re-validation")
        _emit_csv(["kernel", "petals"], [[kernel, petals]], None)
    return EXIT_OK


def cmd_repcount(args) -> int:
    g, target = rep_count_g(_ints(args.elements, "--elements"), args.h, args.limit)
    _emit_csv(["g", "target"], [[g, target if target is not None else "-"]], None)
    return EXIT_OK


def _read_config_file(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in map(str.strip, fh):
            if not line or line.startswith("#"):
                continue
            key, sep, value = (t.strip() for t in line.partition("="))
            if not sep:
                raise ValueError(f"bad config line: {line!r}")
            if key not in _CONFIG_CASTS:
                raise ValueError(f"unknown config key {key!r}; known: {', '.join(_CONFIG_CASTS)}")
            out[key] = value
    return out


_CONFIG_CASTS = {
    "grid": str, "budget": int, "seed": int, "out": str,
    "r": int, "primes": str, "tau": float,
}


def cmd_experiment(args) -> int:
    grid_from = "--grid" if args.grid is not None else f"grid= in {args.config}"
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if getattr(args, key) is None:
                try:
                    setattr(args, key, _CONFIG_CASTS[key](value))
                except ValueError:
                    raise ValueError(f"{key}= in {args.config}: invalid value "
                                     f"{value[:40]!r}") from None

    if args.grid is None:
        raise ValueError("experiment needs --grid (or grid= in the config file)")
    # a field that neither a flag nor the config file sets keeps its default
    run, reads = _EXPERIMENTS[args.name]
    given = {k: getattr(args, k) for k in ("budget", "seed", "r", "primes", "tau")}
    given = {k: v for k, v in given.items() if v is not None}
    unread = [f"--{k}" for k in given if k not in reads]
    if unread:
        raise ValueError(f"experiment {args.name} does not read {', '.join(unread)}")
    header, rows = run(ExperimentConfig(tuple(_ints(args.grid, grid_from)), **given))
    _emit_csv(header, rows, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    # each suite reads only its own flag
    if args.suite == "olson":
        if args.inject_fault:
            raise ValueError("verify olson does not read --inject-fault")
        p = args.p if args.p is not None else 7
        rep = verify_olson_exhaustive(p)
        _write(f"p={p} subsets={rep.subsets_checked} cases={rep.cases_checked} "
               f"counterexamples={len(rep.counterexamples)}\n", None)
        return EXIT_OK if not rep.counterexamples else EXIT_COUNTEREXAMPLE
    if args.p is not None:
        raise ValueError("verify all does not read --p")
    hook = flip_first_index if args.inject_fault else None
    checks = run_verify_all(witness_fault_hook=hook)
    _write("".join(f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}\n" for c in checks), None)
    return EXIT_OK if all(c.ok for c in checks) else EXIT_COUNTEREXAMPLE


def _arg(*names, **kwargs):
    """One flag or positional of a command, added when its parser is built."""
    return lambda parser: parser.add_argument(*names, **kwargs)


def _one_of(*flags):
    """Flags of which at most one may be given."""
    def add(parser):
        group = parser.add_mutually_exclusive_group()
        for flag in flags:
            flag(group)
    return add


# name -> (handler, help text, flags), in the order `cubesieve -h` lists them
_COMMANDS = {
    "membership": (cmd_membership, "test set membership of one integer", (
        _arg("--set", required=True),
        _arg("--n", type=int, required=True),
    )),
    "enumerate": (cmd_enumerate, "list members of a set up to a limit", (
        _arg("--set", required=True),
        _arg("--limit", type=int, required=True),
        _arg("--out"),
    )),
    "olson": (cmd_olson, "nonempty subset with a prescribed sum mod p", (
        _arg("--p", type=int, required=True),
        _arg("--elements", required=True),
        _arg("--target", type=int, required=True),
        _arg("--out"),
    )),
    "liftzero": (cmd_liftzero, "subset sum divisible by p but not q = p*m", (
        _arg("--p", type=int, required=True),
        _arg("--m", type=int, required=True),
        _arg("--elements", required=True),
        _arg("--distinct-mod-p", action="store_true"),
        _arg("--out"),
    )),
    "schwarzwald": (cmd_schwarzwald, "subset with a0 + sum = 0 mod p but not mod p^ell", (
        _arg("--p", type=int, required=True),
        _arg("--ell", type=int, required=True),
        _arg("--a0", type=int, required=True),
        _arg("--elements", required=True),
        _arg("--strategy", choices=("direct", "paper"), default="direct"),
        _arg("--out"),
    )),
    "sieve-bound": (cmd_sieve_bound, "evaluate the larger-sieve bound", (
        _one_of(_arg("--set"), _arg("--elements-file")),
        _arg("--primes", default="all"),
        _arg("--y-grid", required=True),
        _arg("--nu", default="measured", choices=("measured", *NU_MODELS)),
        _arg("--log-n", type=float, required=True),
        _arg("--variant", choices=("plain", "weighted"), default="plain"),
        _arg("--out"),
    )),
    "cube-verify": (cmd_cube_verify, "verify a cube against a set", (
        _arg("--a0", type=int, required=True),
        _arg("--steps", required=True),
        _arg("--set", required=True),
        _arg("--limit", type=int, required=True),
        _arg("--distinct", action="store_true"),
    )),
    "cube-search": (cmd_cube_search, "search for the maximal cube dimension", (
        _arg("--set", required=True),
        _arg("--limit", type=int, required=True),
        _arg("--mode", choices=("exact", "greedy"), default="exact"),
        _arg("--budget", type=int, default=DEFAULT_BUDGET),
        _arg("--seed", type=int, default=0),
        _arg("--subset-sum", action="store_true"),
        _arg("--distinct", action="store_true"),
        _arg("--out"),
    )),
    "ap-max": (cmd_ap_max, "longest homogeneous progression in a set", (
        _arg("--set", required=True),
        _arg("--limit", type=int, required=True),
        _arg("--out"),
    )),
    "sunflower": (cmd_sunflower, "find a sunflower in a set family", (
        _arg("--family-file", required=True),
        _arg("--petals", type=int, required=True),
        _arg("--mode", choices=("exact", "greedy"), default="greedy"),
    )),
    "repcount": (cmd_repcount, "maximal equal-sum representation count", (
        _arg("--elements", required=True),
        _arg("--h", type=int, required=True),
        _arg("--limit", type=int, required=True),
    )),
    "experiment": (cmd_experiment, "run a scripted experiment", (
        _arg("name", choices=_EXPERIMENTS),
        _arg("--grid"),
        _arg("--budget", type=int),
        _arg("--seed", type=int),
        _arg("--out"),
        _arg("--r", type=int),
        _arg("--primes"),
        _arg("--tau", type=float),
        _arg("--config"),
    )),
    "verify": (cmd_verify, "run verification suites", (
        _arg("suite", nargs="?", default="all", choices=("all", "olson")),
        _arg("--p", type=int),
        _arg("--inject-fault", action="store_true",
             help="self-test: corrupt witnesses to prove faults are caught"),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `cubesieve` parser with every command, or with only the named one.

    Both list every command in their usage line, so a usage error reads the
    same whichever of them meets it."""
    # no abbreviations: each flag has one spelling, so `--y` is not `--y-grid`
    # and `--vers` is not `--version`
    parser = _Parser(prog="cubesieve", description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"cubesieve {__version__}")
    # not required: `main` reports a missing command after any unknown flag
    sub = parser.add_subparsers(
        dest="command", parser_class=_Parser,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else (command,):
        handler, help_text, flags = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.add_argument("--version", action="version", version=f"cubesieve {__version__}")
        sp.set_defaults(func=handler)
        for add in flags:
            add(sp)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("the following arguments are required: command")
    try:
        return args.func(args)
    except CounterexampleError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
