"""Experiment orchestration, verification suites, CSV persistence, and the
`cubesieve` command line interface.

Reruns with identical flags and seed produce byte-identical CSV output.
Exit codes: 0 success, 1 usage error, 2 counterexample found, 3 node budget
exhausted on a run that required exactness."""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, field

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
    HilbertCube,
    _check_budget,
    max_dimension_exact,
    max_dimension_greedy,
    max_homogeneous_ap,
    residue_constraint_check,
    verify,
)
from .primes import PrimeSet, ceil_two_sqrt, parse_prime_set, primes_up_to
from .sieve import (
    _check_log_n,
    check_cutoff,
    gallagher_bound,
    gallagher_bound_weighted,
    optimize_cutoff,
    prescribed_cutoff,
    profile,
)
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
    find_lift_zero,
    minimal_cover_k,
    schwarzwald,
    subset_sum_find,
    sumset_mod_p,
    verify_olson_exhaustive,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_BUDGET = 3

_MAX_MEASURED_N = 10**8  # largest e^(log N) that a measured sieve-bound enumerates to

@dataclass
class ExperimentConfig:
    n_grid: tuple[int, ...]
    budget: int = 10**8
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


def _emit_witness(w: SubsetWitness | None, path: str | None) -> None:
    if w is None:
        return _write("NOTFOUND\n", path)
    indices = "+".join(map(str, w.indices))
    facts = "|".join(f"{mod}{op}{t}" for mod, op, t in w.facts)
    _emit_csv(["indices", "sum", "facts"], [[indices, w.sum_mod_q, facts]], path)


# ---------------------------------------------------------------------------
# dimension scans

_SCAN_HEADER = [
    "N", "dimension", "mode", "witness", "nodes", "exact",
    "log_N", "d_over_log_N", "d_over_sqrt_log_N",
]


def run_dimension_scan(descriptor, cfg: ExperimentConfig):
    """One row per grid point: exact search, degrading to the better of the
    truncated search and a seeded greedy probe when the budget runs out.
    Every witness is re-verified in a post-pass before the row is emitted."""
    rows = []
    for n in cfg.n_grid:
        res = max_dimension_exact(descriptor, n, budget=cfg.budget)
        if not res.exact:
            probe = max_dimension_greedy(descriptor, n, seed=f"{cfg.seed}:{n}")
            if probe.best_dimension > res.best_dimension:
                res = probe
        if res.witness is not None:
            ok, offender = verify(res.witness, descriptor, n)
            if not ok:
                raise CounterexampleError(
                    f"scan witness {res.witness.describe()} fails at {offender}"
                )
        d = res.best_dimension
        log_n = math.log(n)
        ratios_defined = d >= 0 and log_n > 0
        rows.append([
            n, d, res.mode,
            res.witness.describe() if res.witness else "-",
            res.nodes_expanded, int(res.exact),
            log_n,
            d / log_n if ratios_defined else "-",
            d / math.sqrt(log_n) if ratios_defined else "-",
        ])
    return _SCAN_HEADER, rows


def run_f2_scan(cfg: ExperimentConfig):
    """Maximal cube dimension in the squareful numbers over the N grid."""
    return run_dimension_scan(Squareful(), cfg)


def run_f1_scan(cfg: ExperimentConfig):
    """Maximal cube dimension in the r-full numbers relative to a prime set."""
    return run_dimension_scan(RFull(cfg.r, parse_prime_set(cfg.primes)), cfg)


def run_f4_scan(cfg: ExperimentConfig):
    """Maximal cube dimension in the semigroup generated by a prime set."""
    return run_dimension_scan(Semigroup(parse_prime_set(cfg.primes)), cfg)


# ---------------------------------------------------------------------------
# sieve-vs-truth comparison

_SIEVE_HEADER = [
    "N", "truth", "y_prescribed", "bound_prescribed",
    "y_best", "bound_best", "bound_over_truth",
]


def run_sieve_compare(cfg: ExperimentConfig):
    """Certified sieve bound for the squares up to N versus the true count,
    at the prescribed cutoff y = (20/tau)^2 (log N)^2 and at the best cutoff
    from a small grid around it."""
    all_primes = PrimeSet.all_primes()
    # the grid ascends, so the last prescribed cutoff is the largest sieve
    y_stars = [max(4, int(round(prescribed_cutoff(cfg.tau, math.log(n))))) for n in cfg.n_grid]
    check_cutoff(y_stars[-1])
    rows = []
    for n, y_star in zip(cfg.n_grid, y_stars):
        squares = [a * a for a in range(1, math.isqrt(n) + 1)]
        truth = len(squares)
        log_n = math.log(n)
        grid = sorted({max(4, y_star // k) for k in (16, 8, 4, 2)} | {y_star})
        scan = optimize_cutoff(all_primes, "measured", log_n, grid, values=squares)
        at_star = next(rep for y, rep in scan.rows if y == y_star)
        rows.append([
            n, truth, y_star, at_star.bound,
            scan.best_y,
            scan.best.bound if scan.best else None,
            scan.best.bound / truth if scan.best else None,
        ])
    return _SIEVE_HEADER, rows


# each experiment's runner and the config fields (besides the grid) it reads
_EXPERIMENTS = {
    "f2": (run_f2_scan, ("budget", "seed")),
    "f1": (run_f1_scan, ("budget", "seed", "r", "primes")),
    "f4": (run_f4_scan, ("budget", "seed", "primes")),
    "sieve-compare": (run_sieve_compare, ("tau",)),
}


# ---------------------------------------------------------------------------
# verification suite

@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str


@dataclass
class VerifyAllReport:
    checks: list[CheckOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        return [f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}" for c in self.checks]


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


def _check(report: VerifyAllReport, name: str, fn) -> None:
    try:
        ok, detail = fn()
    except CounterexampleError as exc:
        ok, detail = False, f"counterexample: {exc}"
    report.checks.append(CheckOutcome(name, ok, detail))


def run_verify_all(witness_fault_hook=None) -> VerifyAllReport:
    """Run every module's verification suite at caps small enough for an
    interactive run; the acceptance tests run the full-size versions.

    `witness_fault_hook` corrupts witnesses before re-validation and exists
    so the harness can prove it detects invalid witnesses."""
    rng = random.Random(0)
    rep = VerifyAllReport()

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
        for _ in range(10):
            n = 10**4
            a = sorted(rng.sample(range(1, n + 1), rng.randrange(20, 40)))
            moduli = [p for p in primes_up_to(600) if p > 40]
            profs = [profile(a, p) for p in moduli]
            plain = gallagher_bound(profs, math.log(n))
            if plain.bound is not None and len(a) > plain.bound + 1e-9:
                return False, f"|A|={len(a)} exceeds certified bound {plain.bound:.3f}"
            weighted = gallagher_bound_weighted(profs, math.log(n))
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
        for res in (r10, r32):
            ok, off = verify(res.witness, Squareful(), res.limit)
            if not ok:
                return False, f"witness {res.witness.describe()} fails at {off}"
        check = residue_constraint_check(r32.witness, PrimeSet.all_primes(), 100)
        if check.violations:
            return False, f"residue constraint violated: {check.violations}"
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

    _check(rep, "olson-exhaustive", olson_exhaustive)
    _check(rep, "witness-revalidation", witness_revalidation)
    _check(rep, "minimal-cover", minimal_cover)
    _check(rep, "lift-zero", lift_zero)
    _check(rep, "shifted-lift-zero", shifted_finder)
    _check(rep, "cauchy-davenport", cauchy_davenport)
    _check(rep, "sieve-soundness", sieve_soundness)
    _check(rep, "cube-ground-truth", cube_ground_truth)
    _check(rep, "sunflower", sunflower_suite)
    _check(rep, "ap-extraction", ap_extraction)
    return rep


# ---------------------------------------------------------------------------
# CLI

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _parse_y_grid(text: str) -> list[int]:
    """`a:b:step` inclusive, or a comma-separated list."""
    if ":" in text:
        a, b, step = (int(t) for t in text.split(":"))
        if step < 1 or b < a:
            raise ValueError(f"bad grid spec {text!r}")
        return list(range(a, b + 1, step))
    return _ints(text)


def cmd_membership(args) -> int:
    s = parse_set_descriptor(args.set)
    _write("true\n" if is_member(s, args.n) else "false\n", None)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    members = enumerate_members(parse_set_descriptor(args.set), args.limit)
    _emit_csv(["n"], [[m] for m in members], args.out)
    return EXIT_OK


def cmd_olson(args) -> int:
    w = subset_sum_find(_ints(args.elements), args.target, args.p)
    _emit_witness(w, args.out)
    return EXIT_OK


def cmd_liftzero(args) -> int:
    b = ResidueMultiset(Modulus(args.p, args.m), tuple(_ints(args.elements)))
    w = find_lift_zero(b, distinct_mod_p=args.distinct_mod_p)
    _emit_witness(w, args.out)
    return EXIT_OK


def cmd_schwarzwald(args) -> int:
    if args.ell < 2:
        raise ValueError(f"modulus must be p^ell with ell > 1, got p={args.p}, ell={args.ell}")
    mod = Modulus(args.p, args.p ** (args.ell - 1))
    b = ResidueMultiset(mod, tuple(_ints(args.elements)))
    w = schwarzwald(b, args.a0, strategy=args.strategy)
    _emit_witness(w, args.out)
    return EXIT_OK


def cmd_sieve_bound(args) -> int:
    # a model nu reads no set, and the weighted variant reads only a set
    if args.nu != "measured":
        if args.variant == "weighted":
            raise ValueError("sieve-bound --variant weighted needs --nu measured")
        if args.set or args.elements_file:
            given = "--set" if args.set else "--elements-file"
            raise ValueError(f"sieve-bound --nu {args.nu} does not read {given}")
    prime_set = parse_prime_set(args.primes)
    grid = [args.y] if args.y is not None else _parse_y_grid(args.y_grid)
    check_cutoff(max(grid, default=0))
    values = None
    if args.elements_file:
        with open(args.elements_file, encoding="utf-8") as fh:
            values = [int(line) for line in fh if line.strip()]
    elif args.nu == "measured":
        if not args.set:
            raise ValueError("measured profiles need --set or --elements-file")
        _check_log_n(args.log_n)
        if args.log_n > math.log(_MAX_MEASURED_N):
            raise ValueError(f"log N too large to enumerate up to e^(log N), got {args.log_n}")
        values = enumerate_members(parse_set_descriptor(args.set),
                                   int(round(math.exp(args.log_n))))
    scan = optimize_cutoff(prime_set, args.nu, args.log_n, grid,
                           values=values, variant=args.variant)
    rows = [[y, rep.numerator, rep.denominator, rep.bound] for y, rep in scan.rows]
    _emit_csv(["y", "numerator", "denominator", "bound"], rows, args.out)
    return EXIT_OK


def cmd_cube_verify(args) -> int:
    if args.subset_sum and args.a0 != 0:
        raise ValueError("--subset-sum requires --a0 0")
    cube = HilbertCube(args.a0, tuple(_ints(args.steps)), args.distinct)
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
    row = [res.limit, res.mode, res.best_dimension,
           res.witness.describe() if res.witness else "-",
           res.nodes_expanded, int(res.exact)]
    _emit_csv(["N", "mode", "dimension", "witness", "nodes", "exact"], [row], args.out)
    if args.mode == "exact" and not res.exact:
        print("node budget exhausted; result is a lower bound", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_ap_max(args) -> int:
    length, step = max_homogeneous_ap(parse_set_descriptor(args.set), args.limit)
    _emit_csv(["N", "length", "step"],
              [[args.limit, length, step if step is not None else "-"]], args.out)
    return EXIT_OK


def cmd_sunflower(args) -> int:
    with open(args.family_file, encoding="utf-8") as fh:
        sets = [_ints(line) for line in fh if line.strip()]
    fam = SetFamily.from_iterables(sets)
    w = find_sunflower(fam, args.petals, mode=args.mode)
    if w is None:
        reason = "absence-proven" if args.mode == "exact" else "greedy-inconclusive"
        _write(f"NOTFOUND,{reason}\n", None)
    else:
        kernel = "+".join(map(str, sorted(w.kernel))) or "-"
        petals = "+".join(map(str, w.petal_indices))
        _emit_csv(["kernel", "petals"], [[kernel, petals]], None)
    return EXIT_OK


def cmd_repcount(args) -> int:
    g, target = rep_count_g(_ints(args.elements), args.h, args.limit)
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
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if getattr(args, key) is None:
                setattr(args, key, _CONFIG_CASTS[key](value))

    if args.grid is None:
        raise ValueError("experiment needs --grid (or grid= in the config file)")
    # a field that neither a flag nor the config file sets keeps its default
    run, reads = _EXPERIMENTS[args.name]
    given = {k: getattr(args, k) for k in ("budget", "seed", "r", "primes", "tau")}
    given = {k: v for k, v in given.items() if v is not None}
    unread = [f"--{k}" for k in given if k not in reads]
    if unread:
        raise ValueError(f"experiment {args.name} does not read {', '.join(unread)}")
    header, rows = run(ExperimentConfig(tuple(_ints(args.grid)), **given))
    _emit_csv(header, rows, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "olson":
        rep = verify_olson_exhaustive(args.p if args.p is not None else 7)
        _write(f"p={rep.p} subsets={rep.subsets_checked} cases={rep.cases_checked} "
               f"counterexamples={len(rep.counterexamples)}\n", None)
        return EXIT_OK if not rep.counterexamples else EXIT_COUNTEREXAMPLE
    hook = flip_first_index if args.inject_fault else None
    report = run_verify_all(witness_fault_hook=hook)
    _write("\n".join(report.lines()) + "\n", None)
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def _sub(subparsers, name: str, handler, help_text: str):
    sp = subparsers.add_parser(name, help=help_text)
    sp.add_argument("--version", action="version", version=f"cubesieve {__version__}")
    sp.set_defaults(func=handler)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cubesieve", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cubesieve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = _sub(sub, "membership", cmd_membership, "test set membership of one integer")
    sp.add_argument("--set", required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = _sub(sub, "enumerate", cmd_enumerate, "list members of a set up to a limit")
    sp.add_argument("--set", required=True)
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--out")

    sp = _sub(sub, "olson", cmd_olson, "nonempty subset with a prescribed sum mod p")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--elements", required=True)
    sp.add_argument("--target", type=int, required=True)
    sp.add_argument("--out")

    sp = _sub(sub, "liftzero", cmd_liftzero, "subset sum divisible by p but not q = p*m")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--elements", required=True)
    sp.add_argument("--distinct-mod-p", action="store_true")
    sp.add_argument("--out")

    sp = _sub(sub, "schwarzwald", cmd_schwarzwald,
              "subset with a0 + sum = 0 mod p but not mod p^ell")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--a0", type=int, required=True)
    sp.add_argument("--elements", required=True)
    sp.add_argument("--strategy", choices=("direct", "paper"), default="direct")
    sp.add_argument("--out")

    sp = _sub(sub, "sieve-bound", cmd_sieve_bound, "evaluate the larger-sieve bound")
    measured = sp.add_mutually_exclusive_group()
    measured.add_argument("--set")
    measured.add_argument("--elements-file")
    sp.add_argument("--primes", default="all")
    cutoff = sp.add_mutually_exclusive_group(required=True)
    cutoff.add_argument("--y", type=int)
    cutoff.add_argument("--y-grid")
    sp.add_argument("--nu", default="measured",
                    choices=("measured", "five_ceil_sqrt", "two_sqrt", "half_p_plus_one"))
    sp.add_argument("--log-n", type=float, required=True)
    sp.add_argument("--variant", choices=("plain", "weighted"), default="plain")
    sp.add_argument("--out")

    sp = _sub(sub, "cube-verify", cmd_cube_verify, "verify a cube against a set")
    sp.add_argument("--a0", type=int, required=True)
    sp.add_argument("--steps", required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--subset-sum", action="store_true")
    sp.add_argument("--distinct", action="store_true")

    sp = _sub(sub, "cube-search", cmd_cube_search, "search for the maximal cube dimension")
    sp.add_argument("--set", required=True)
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    sp.add_argument("--budget", type=int, default=10**8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--subset-sum", action="store_true")
    sp.add_argument("--distinct", action="store_true")
    sp.add_argument("--out")

    sp = _sub(sub, "ap-max", cmd_ap_max, "longest homogeneous progression in a set")
    sp.add_argument("--set", required=True)
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--out")

    sp = _sub(sub, "sunflower", cmd_sunflower, "find a sunflower in a set family")
    sp.add_argument("--family-file", required=True)
    sp.add_argument("--petals", type=int, required=True)
    sp.add_argument("--mode", choices=("exact", "greedy"), default="greedy")

    sp = _sub(sub, "repcount", cmd_repcount, "maximal equal-sum representation count")
    sp.add_argument("--elements", required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--limit", type=int, required=True)

    sp = _sub(sub, "experiment", cmd_experiment, "run a scripted experiment")
    sp.add_argument("name", choices=_EXPERIMENTS)
    sp.add_argument("--grid")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.add_argument("--r", type=int)
    sp.add_argument("--primes")
    sp.add_argument("--tau", type=float)
    sp.add_argument("--config")

    sp = _sub(sub, "verify", cmd_verify, "run verification suites")
    sp.add_argument("suite", nargs="?", default="all", choices=("all", "olson"))
    sp.add_argument("--p", type=int)
    sp.add_argument("--inject-fault", action="store_true",
                    help="self-test: corrupt witnesses to prove faults are caught")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CounterexampleError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
