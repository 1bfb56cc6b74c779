"""The four benchmark workloads: seeded inputs, the measured section and the
checks on its outputs.

Every call into cubesieve goes through a module attribute (`harness.main`,
`cube.verify`, `zq.schwarzwald`, ...) so that a traced run sees it. Reference
values are computed here from first principles, not with the code under test:
a prime sieve, residue-class rules for the inert primes of x^2+xy+y^2, and
closed counts of the sets the sieve bounds are taken over."""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable

from cubesieve import arithsets, cube, harness, sunflower, zq

_CUBE = re.compile(r"H\((\d+);([\d+]*)\)")


@dataclass
class Tally:
    """Operations attempted and failed in one pass of the measured section.
    Each scan row, sieve row, sieve-bound run and certificate is one. Checks
    that call traced functions run inside `paused()`, so that a traced run
    counts only the program's work. `SubsetWitness.validate` is left traced:
    nothing but these checks calls it, and its span is the `zq.validate`
    layer."""
    attempted: int = 0
    failed: int = 0
    dim_found_total: int = 0
    notes: list[str] = field(default_factory=list)
    paused: Callable[[], contextlib.AbstractContextManager] = contextlib.nullcontext

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


def _cli(argv: list[str]) -> list[dict[str, str]]:
    """Run one cubesieve command in this process and parse its CSV."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = harness.main(argv)
    if rc != 0:
        raise RuntimeError(f"exit code {rc}")
    header, *rows = (line.split(",") for line in buf.getvalue().splitlines())
    return [dict(zip(header, row)) for row in rows]


def _rows_or_fail(tally: Tally, argv: list[str], expected: int) -> list[dict[str, str]] | None:
    """The command's rows, or None after failing every row it owed."""
    try:
        rows = _cli(argv)
    except Exception as exc:  # the run goes on; the failure is counted
        problem = repr(exc)
    else:
        if len(rows) == expected:
            return rows
        problem = f"{len(rows)} rows, expected {expected}"
    for _ in range(expected):
        tally.check(False, f"{' '.join(argv)}: {problem}")
    return None


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-5) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


class Workload:
    """Seeded inputs, reference values for the checks, and the timed units.
    Each unit is a callable that runs its part of the measured section and
    records every operation in the tally."""

    why: str

    def setup(self, seed: int, size: str):
        raise NotImplementedError

    def reference(self, inputs):
        return None

    def units(self, inputs, reference) -> list[tuple[str, Callable[[Tally], None]]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# dimension scans (f2-exact, dense-scan)

def _cube_ok(tally: Tally, row: dict[str, str], descriptor, n: int) -> bool:
    """Re-check a scan row's witness against the set with `cube.verify`."""
    m = _CUBE.fullmatch(row["witness"])
    if m is None:
        return False
    steps = tuple(int(s) for s in m.group(2).split("+") if s)
    if len(steps) != int(row["dimension"]) or int(row["N"]) != n:
        return False
    with tally.paused():
        ok, _ = cube.verify(cube.HilbertCube(int(m.group(1)), steps), descriptor, n)
    return ok


def _scan(tally: Tally, *, argv: list[str], grid, descriptor, expected=None) -> None:
    rows = _rows_or_fail(tally, argv, len(grid))
    if rows is None:
        return
    for i, (n, row) in enumerate(zip(grid, rows)):
        ok = _cube_ok(tally, row, descriptor, n)
        if expected is not None:
            ok = ok and (int(row["dimension"]), row["witness"]) == expected[i]
        if tally.check(ok, f"{argv[1]} row N={n}: {row}"):
            tally.dim_found_total += int(row["dimension"])


class F2Exact(Workload):
    """`experiment f2` over the squareful numbers, the headline path. The set
    is sparse and the exact search completes, so nearly all time is `cube`
    exact search; `zq` and `sieve` are unused."""

    why = "squareful F2 scan to N=1e4: exact cube search runs to completion and holds nearly all the time"
    # N = 1e5 (one 18-27 s pass here) is too long to time as a unit; see the
    # README on why every unit is short
    sizes = {
        "full": (100, 1000, 10000),
        "tiny": (100, 1000),
    }
    # the nodes column is left unchecked: the search core may redefine it
    expected = (
        (2, "H(1;7+8)"),
        (3, "H(8;28+28+64)"),
        (5, "H(900;900+900+900+900+900)"),
    )

    def setup(self, seed: int, size: str):
        grid = self.sizes[size]
        argv = ["experiment", "f2", "--grid", ",".join(map(str, grid)), "--seed", str(seed)]
        return argv, grid, arithsets.parse_set_descriptor("squareful")

    def units(self, inputs, reference):
        argv, grid, descriptor = inputs
        return [("f2", functools.partial(_scan, argv=argv, grid=grid, descriptor=descriptor,
                                         expected=self.expected))]


class DenseScan(Workload):
    """Budgeted scans over two dense sets where every row exhausts its node
    budget: truncated exact search, the seeded greedy fallback, generic
    smallest-prime-factor enumeration over an inert prime set, and the verify
    post-pass on cubes up to d = 13. A gain on sparse sets that costs dense
    ones shows here. Each grid point is its own command, so its own unit."""

    why = "f1 rfull:2,inert and f4 semigroup:class:1,4 with a 3e5-node budget: budgeted exact, greedy fallback, generic enumeration, verify"
    sizes = {
        "full": ((1000, 10000), 3 * 10**5),
        "tiny": ((1000,), 10**4),
    }
    scans = (
        (["f1", "--r", "2", "--primes", "inert:1,1,1"], "rfull:2,inert:1,1,1"),
        (["f4", "--primes", "class:1,4"], "semigroup:class:1,4"),
    )

    def setup(self, seed: int, size: str):
        grid, budget = self.sizes[size]
        return [
            (f"{head[0]} N={n}",
             ["experiment", *head, "--grid", str(n), "--budget", str(budget), "--seed", str(seed)],
             (n,), arithsets.parse_set_descriptor(spec))
            for head, spec in self.scans for n in grid
        ]

    def units(self, inputs, reference):
        return [(label, functools.partial(_scan, argv=argv, grid=grid, descriptor=descriptor))
                for label, argv, grid, descriptor in inputs]


# ---------------------------------------------------------------------------
# sieve bounds

def _prime_flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return flags


def _inert(p: int) -> bool:
    # x^2+xy+y^2 has discriminant -3, and (-3/p) = -1 exactly when p = 2 mod 3;
    # p = 2 is set aside
    return p % 3 == 2 and p != 2


def _five_ceil_sqrt(p: int) -> int:
    # the five_ceil_sqrt class-count model, 5*ceil(2*sqrt(p)) + 1, using
    # ceil(sqrt(x)) = isqrt(x - 1) + 1
    return 5 * (math.isqrt(4 * p - 1) + 1) + 1


def _squareful_count(limit: int) -> int:
    # every squareful n is a^2 b^3 with b squarefree, in exactly one way
    total = 0
    b = 1
    while b**3 <= limit:
        if all(b % (k * k) for k in range(2, math.isqrt(b) + 1)):
            total += math.isqrt(limit // b**3)
        b += 1
    return total


def _rfull_inert_count(limit: int, flags: bytearray) -> int:
    # n is excluded when an inert prime divides it exactly once
    bad = bytearray(limit + 1)
    for p in range(3, limit + 1):
        if flags[p] and _inert(p):
            for m in range(p, limit + 1, p):
                if m % (p * p):
                    bad[m] = 1
    return limit - sum(bad)


def _grid(spec: str) -> list[int]:
    a, b, step = (int(t) for t in spec.split(":"))
    return list(range(a, b + 1, step))


class SieveBounds(Workload):
    """`sieve-compare` on the squares plus four `sieve-bound` runs covering
    measured, weighted and model profiles, the prime sieve, inert prime sets
    and generic enumeration. `cube` and `zq` are unused."""

    why = "sieve-compare to 1e5 plus measured, weighted, rfull-inert and model sieve-bound scans: profiles, cutoffs, prime sets"
    sizes = {
        "full": {
            "compare": (10000, 100000),
            "squareful": ("100:10000:100", 13.81),
            "rfull": ("100:2000:100", 9.21),
            "model": ("1000:100000:1000", 11.51),
        },
        "tiny": {
            "compare": (100, 1000),
            "squareful": ("10:300:10", 6.91),
            "rfull": ("10:300:10", 6.91),
            "model": ("100:3000:100", 6.91),
        },
    }

    def setup(self, seed: int, size: str):
        cfg = self.sizes[size]
        sq_grid, sq_log = cfg["squareful"]
        rf_grid, rf_log = cfg["rfull"]
        md_grid, md_log = cfg["model"]
        sq = ["sieve-bound", "--set", "squareful", "--primes", "all", "--y-grid", sq_grid,
              "--nu", "measured", "--log-n", str(sq_log), "--variant"]
        return {
            "compare": (["experiment", "sieve-compare", "--grid", ",".join(map(str, cfg["compare"]))],
                        cfg["compare"]),
            # (label, argv, y grid, log N, prime filter, model nu or None, measured set)
            "runs": (
                ("squareful plain", sq + ["plain"], _grid(sq_grid), sq_log, None, None, "squareful"),
                ("squareful weighted", sq + ["weighted"], _grid(sq_grid), sq_log, None, None,
                 "squareful"),
                ("rfull inert", ["sieve-bound", "--set", "rfull:2,inert:1,1,1", "--y-grid", rf_grid,
                                 "--log-n", str(rf_log)], _grid(rf_grid), rf_log, None, None, "rfull"),
                ("inert model", ["sieve-bound", "--primes", "inert:1,1,1", "--nu", "five_ceil_sqrt",
                                 "--y-grid", md_grid, "--log-n", str(md_log)],
                 _grid(md_grid), md_log, _inert, _five_ceil_sqrt, None),
            ),
        }

    def reference(self, inputs):
        """True set sizes and the prime flags the numerators are summed over."""
        runs = inputs["runs"]
        rfull_limit = round(math.exp(runs[2][3]))
        flags = _prime_flags(max(rfull_limit, *(run[2][-1] for run in runs)))
        truth = {
            "squareful": _squareful_count(round(math.exp(runs[0][3]))),
            "rfull": _rfull_inert_count(rfull_limit, flags),
        }
        return flags, truth

    def units(self, inputs, reference):
        flags, truth = reference
        plain_rows: list = []  # the plain run's rows, for the weighted run's check

        def compare(tally: Tally) -> None:
            argv, grid = inputs["compare"]
            rows = _rows_or_fail(tally, argv, len(grid))
            for n, row in zip(grid, rows or ()):
                log_n = math.log(n)
                ok = (
                    int(row["N"]) == n
                    and int(row["truth"]) == math.isqrt(n)
                    and int(row["y_prescribed"]) == max(4, round(400 * log_n * log_n))
                    and "inf" not in (row["bound_prescribed"], row["bound_best"])
                    and float(row["bound_prescribed"]) >= math.isqrt(n)
                    and float(row["bound_best"]) >= math.isqrt(n)
                    and _close(float(row["bound_over_truth"]),
                               float(row["bound_best"]) / math.isqrt(n), 1e-6)
                )
                tally.check(ok, f"sieve-compare row N={n}: {row}")

        def bound_run(tally: Tally, argv, ys, log_n, keep, nu, measured) -> None:
            rows = _rows_or_fail(tally, argv, len(ys))
            if rows is None:
                return
            ok = self._rows_ok(rows, ys, log_n, flags, keep, nu,
                               truth[measured] if measured else None)
            if "weighted" in argv:
                # Cauchy-Schwarz: the weighted bound never exceeds the plain one
                ok = ok and len(plain_rows) == len(rows) and all(
                    w["bound"] == "inf" or p["bound"] == "inf"
                    or float(w["bound"]) <= float(p["bound"]) * (1 + 1e-6)
                    for w, p in zip(rows, plain_rows)
                )
            elif measured == "squareful":
                plain_rows[:] = rows
            tally.check(ok, f"{' '.join(argv)}: rows fail their check")

        return [("sieve-compare", compare)] + [
            (label, functools.partial(bound_run, argv=argv, ys=ys, log_n=log_n, keep=keep,
                                      nu=nu, measured=measured))
            for label, argv, ys, log_n, keep, nu, measured in inputs["runs"]
        ]

    @staticmethod
    def _rows_ok(rows, ys, log_n, flags, keep, nu, truth) -> bool:
        """Numerators (and model denominators) match sums over an independent
        prime sieve; every finite bound is num/den and, on a measured set, at
        least the set's true size."""
        num = den = -log_n
        p = 1
        for y, row in zip(ys, rows):
            while p < y:
                p += 1
                if flags[p] and (keep is None or keep(p)):
                    num += math.log(p)
                    if nu is not None:
                        den += math.log(p) / nu(p)
            r_num, r_den = float(row["numerator"]), float(row["denominator"])
            if int(row["y"]) != y or not _close(r_num, num):
                return False
            if nu is not None and not _close(r_den, den):
                return False
            if row["bound"] == "inf":
                if r_den > 1e-6:
                    return False
                continue
            bound = float(row["bound"])
            if r_den < -1e-6 or abs(bound * r_den - r_num) > 1e-5 * (1 + abs(r_num) + abs(bound)):
                return False
            if truth is not None and bound < truth:
                return False
        return True


# ---------------------------------------------------------------------------
# witnesses

class Witnesses(Workload):
    """One seeded batch of Z_p / Z_q certificates and sunflower searches, each
    re-validated. The DP runs at q from 142 to about 3.6e5 in full, early-stop
    and constructive uses. Counts are balanced so that no instance class holds
    most of the time; `cube` and `sieve` are unused."""

    why = "seeded Z_p/Z_q subset-sum, lift-zero and shifted certificates (q from 142 to 3.6e5) plus sunflower searches, all re-validated"
    # instances per pass: olson (p, count), lift (p, m, count),
    # shift (p, ell, size, count), sunflower families, rep counts, AP scans
    sizes = {
        "full": {
            "olson": ((1009, 300), (10007, 120)),
            "lift": ((71, 2, 150), (73, 2, 150), (79, 3, 150), (1009, 100, 3)),
            "shift": ((71, 2, 120, 60), (211, 2, 250, 8), (317, 2, 400, 3), (71, 3, 120, 1)),
            "families": 600, "repcounts": 12, "aps": 100,
        },
        "tiny": {
            "olson": ((1009, 2), (10007, 1)),
            "lift": ((71, 2, 1), (73, 2, 1), (79, 3, 1)),
            "shift": ((71, 2, 120, 1),),
            "families": 5, "repcounts": 2, "aps": 2,
        },
    }

    def setup(self, seed: int, size: str):
        """(label, checker, instances) per instance class; each class is a unit."""
        cfg = self.sizes[size]
        rng = random.Random(seed)
        classes = []
        for p, count in cfg["olson"]:
            # more than 2*sqrt(p) distinct residues reach every target
            classes.append((f"olson p={p}", self._olson, [
                (rng.sample(range(p), math.isqrt(4 * p) + 1), rng.randrange(p), p)
                for _ in range(count)]))
        for p, m, count in cfg["lift"]:
            classes.append((f"lift-zero p={p} m={m}", self._lift,
                            [harness.random_lift_instance(rng, p, m) for _ in range(count)]))
        for p, ell, n, count in cfg["shift"]:
            classes.append((f"schwarzwald p={p} ell={ell}", self._shift,
                            [harness.random_shift_instance(rng, p, ell, n) for _ in range(count)]))
        families = []
        for _ in range(cfg["families"]):
            pool = set()
            nsets = rng.randrange(3, 21)
            while len(pool) < nsets:
                pool.add(frozenset(rng.sample(range(12), rng.randrange(1, 4))))
            families.append(sunflower.SetFamily(tuple(sorted(pool, key=sorted)), 3))
        classes.append(("sunflower", self._sunflower, families))
        classes.append(("rep count", self._repcount, [
            (rng.sample(range(1, 80), 18), rng.randrange(2, 6), rng.randrange(40, 300))
            for _ in range(cfg["repcounts"])]))
        classes.append(("AP via sunflower", self._ap,
                        [rng.sample(range(1, 30), 8) for _ in range(cfg["aps"])]))
        return classes

    def units(self, inputs, reference):
        return [(label, functools.partial(check, instances=instances))
                for label, check, instances in inputs]

    @staticmethod
    def _olson(tally: Tally, instances) -> None:
        for elems, target, p in instances:
            w = zq.subset_sum_find(elems, target, p)
            tally.check(w is not None and w.facts == ((p, "==", target),) and w.validate(elems),
                        f"olson p={p} target={target}")

    @staticmethod
    def _lift(tally: Tally, instances) -> None:
        for b in instances:
            p, q = b.modulus.p, b.modulus.q
            w = zq.find_lift_zero(b)
            tally.check(w is not None and w.facts == ((p, "==", 0), (q, "!=", 0))
                        and w.validate(b.elements), f"lift-zero p={p} q={q}")

    @staticmethod
    def _shift(tally: Tally, instances) -> None:
        for b, a0 in instances:
            p, q = b.modulus.p, b.modulus.q
            facts = ((p, "==", -a0 % p), (q, "!=", -a0 % q))
            for strategy in ("direct", "paper"):
                w = zq.schwarzwald(b, a0, strategy)
                tally.check(w is not None and w.facts == facts and w.validate(b.elements),
                            f"schwarzwald {strategy} p={p} q={q} a0={a0}")

    @staticmethod
    def _sunflower(tally: Tally, instances) -> None:
        for fam in instances:
            greedy = sunflower.find_sunflower(fam, 3, "greedy")
            if greedy is not None:
                tally.check(greedy.validate(fam), "greedy sunflower")
            exact = sunflower.find_sunflower(fam, 3, "exact")
            if greedy is not None or exact is not None:
                # greedy success implies a sunflower exists, so exact must find one
                tally.check(exact is not None and exact.validate(fam), "exact sunflower")

    @staticmethod
    def _repcount(tally: Tally, instances) -> None:
        for a, h, limit in instances:
            counts: dict[int, int] = {}
            for combo in itertools.combinations(sorted(a), h):
                if sum(combo) <= limit:
                    counts[sum(combo)] = counts.get(sum(combo), 0) + 1
            g = max(counts.values(), default=0)
            want = (g, min((s for s, c in counts.items() if c == g), default=None))
            tally.check(sunflower.rep_count_g(a, h, limit) == want, f"rep count h={h}")

    @classmethod
    def _ap(cls, tally: Tally, instances) -> None:
        for steps in instances:
            tally.check(cls._ap_ok(steps, sunflower.homogeneous_ap_via_sunflower(steps, 2, 3)),
                        f"AP via sunflower {steps}")

    @staticmethod
    def _ap_ok(steps, res) -> bool:
        # distinct pairs with one sum are disjoint, so three petals exist
        # exactly when some sum has at least three pairs
        sums: dict[int, int] = {}
        for x, y in itertools.combinations(steps, 2):
            sums[x + y] = sums.get(x + y, 0) + 1
        if res is None:
            return max(sums.values()) < 3
        s, w, fam = res
        cube_sums = set(cube.HilbertCube(0, tuple(steps)).sums())
        return w.validate(fam) and all(j * s in cube_sums for j in range(len(w.petal_indices)))


WORKLOADS = {
    "f2-exact": F2Exact(),
    "dense-scan": DenseScan(),
    "sieve-bounds": SieveBounds(),
    "witnesses": Witnesses(),
}
