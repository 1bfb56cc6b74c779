"""cubesieve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a checkout. One workload runs in this process, single
threaded, against the package under src/. The measured section (every output
produced and checked) repeats while another pass still fits in --seconds; at
least one pass runs. A pass runs the workload's units (commands or instance
classes) in order and times each, with a fixed reference loop timed before
and after every unit. wall_ref divides each unit's time by the faster of its
two reference loops, which cancels the host's speed, and sums each unit's
lower-quartile ratio; wall_s (in the record) sums each unit's fastest time in
seconds. setup_s starts fresh interpreters up to their first workload call,
spread through the run, divides each by the reference loops timed next to
it, and gives the median in seconds at the reference host's speed. With
--trace 0 the last stdout line carries the end-to-end metrics; with --trace 1 the tracer wraps
cubesieve's public functions, the line carries per-layer metrics (medians
over passes), and the spans are written to perfbench/out/. The line before
it records the run: seed, environment, load average before and after, every
pass, unit and reference time, wall_s, and each timing's minimum, median,
sample count and tail percentile. `--workload all` runs each workload in a
fresh process and prints a table. The exit code is 0 only if every check
passed."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "cubesieve" / "__init__.py").is_file():
    sys.exit(f"perfbench: no cubesieve package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import cubesieve  # noqa: E402

if Path(cubesieve.__file__).resolve().parent != SRC / "cubesieve":
    sys.exit(f"perfbench: imported cubesieve from {cubesieve.__file__}, not {SRC}")

import tracer  # noqa: E402
import workloads  # noqa: E402

# setup probes per run: each is a fresh interpreter up to its first workload call
PROBES = {"full": 15, "tiny": 1}
# setup_s is given in seconds at this reference-loop time, the loop's usual
# fastest time on the reference host (Xeon at 2.1 GHz, Python 3.11)
REF_NOMINAL_S = 0.008


def unit_of(metric: str) -> str:
    if metric.endswith("_ref"):
        return "ref"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_mib"):
        return "MiB"
    return "count"


def timing(values: list[float]) -> dict:
    """Minimum, median, sample count, and the highest percentile with at least
    ten samples beyond it (none below eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        rank = n - 10
        tail = {"pct": round(100 * rank / n, 2), "value": ordered[rank - 1]}
    return {"min": ordered[0], "median": statistics.median(ordered), "n": n, "tail": tail}


def lower_quartile(values: list[float]) -> float:
    """The measured value a quarter of the way up from the fastest. Other
    tenants only ever add time, so the low side of a unit's samples is its
    steadiest part; the minimum alone hangs on one sample."""
    return sorted(values)[(len(values) - 1) // 4]


def git_revision() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    if not (ROOT / ".git").exists():  # git is not run outside a work tree
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work (integer arithmetic, set
    and list operations), timed around each unit and setup probe. It changes
    with nothing but the host's speed, which it cancels from `wall_ref` and
    `setup_s`."""
    t0 = perf_counter()
    seen = set()
    acc = 0
    for i in range(60000):
        v = (i * i + acc) % 10007
        if v in seen:
            acc += 1
        else:
            seen.add(v)
    sorted(seen, reverse=True)
    return perf_counter() - t0


def probe_setup(name: str, seed: int, size: str) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its first workload call
    (interpreter start, `import cubesieve` and seeded input generation), and
    the fastest of the reference loops timed just before and after it."""
    ref = [reference_loop() for _ in range(2)]
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--size", size]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    ref += [reference_loop() for _ in range(2)]
    return elapsed, min(ref)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", out_dir: Path = HERE / "out") -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    wl = workloads.WORKLOADS[name]
    load_before = os.getloadavg()
    inputs = wl.setup(seed, size)
    units = wl.units(inputs, wl.reference(inputs))
    rec = tracer.Tracer() if trace else None
    unit_s: dict[str, list[float]] = {label: [] for label, _ in units}
    unit_ref: dict[str, list[float]] = {label: [] for label, _ in units}
    times, tallies, ref, setup = [], [], [], []
    probes = 0 if trace else PROBES[size]
    start = perf_counter()
    with rec or contextlib.nullcontext():
        while True:
            # setup probes are spread through the run, so that their median
            # does not hang on one moment of the host's speed
            while len(setup) < probes and perf_counter() - start >= len(setup) * seconds / probes:
                setup.append(probe_setup(name, seed, size))
            if rec:
                rec.start_pass(len(times))
            tally = workloads.Tally(paused=rec.paused if rec else contextlib.nullcontext)
            before = reference_loop()
            ref.append(before)
            for label, unit in units:
                t0 = perf_counter()
                unit(tally)
                unit_s[label].append(perf_counter() - t0)
                after = reference_loop()
                ref.append(after)
                # the host's speed shifts by up to 1.5x within seconds, so each
                # unit is divided by the reference loops timed next to it
                unit_ref[label].append(unit_s[label][-1] / min(before, after))
                before = after
            if rec:
                rec.end_pass()
            times.append(sum(s[-1] for s in unit_s.values()))
            tallies.append(tally)
            if perf_counter() - start + statistics.median(times) > seconds:
                break
    setup += [probe_setup(name, seed, size) for _ in range(probes - len(setup))]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "loadavg_before": load_before,
        "passes": len(times), "pass_s": times, "reference_s": ref,
        "unit_s": unit_s, "unit_ref": unit_ref,
        "unit_min_s": {label: min(v) for label, v in unit_s.items()},
        # each unit's fastest run, summed over the measured section: other
        # tenants only ever add time, and a short unit repeated through the
        # run meets a quiet moment
        "wall_s": sum(min(v) for v in unit_s.values()),
        "timings": {"pass_s": timing(times), "reference_s": timing(ref)},
        "failed_frac": sum(t.failed for t in tallies) / sum(t.attempted for t in tallies),
        "dim_found_total": tallies[0].dim_found_total,
    }
    if rec:
        per_pass = []
        for (totals, overhead_s), tally in zip(rec.passes, tallies):
            row = tracer.layer_metrics(totals, overhead_s)
            row["cube.dim_found_total"] = tally.dim_found_total
            per_pass.append(row)
        metrics = tracer.median_metrics(per_pass)
    else:
        # each probe is divided by the reference loops timed next to it, too
        setup_s = [probe / probe_ref * REF_NOMINAL_S for probe, probe_ref in setup]
        record["setup_probe_s"] = [probe for probe, _ in setup]
        record["setup_reference_s"] = [probe_ref for _, probe_ref in setup]
        record["timings"]["setup_s"] = timing(setup_s)
        metrics = {"wall_ref": sum(lower_quartile(v) for v in unit_ref.values()),
                   "setup_s": statistics.median(setup_s),
                   "peak_rss_mib": peak_rss_mib}
    record["loadavg_after"] = os.getloadavg()
    record["git_revision"] = git_revision()
    if rec:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{name}-seed{seed}.json"
        rec.dump(path, record)
        record["trace_file"] = str(path.relative_to(ROOT) if path.is_relative_to(ROOT) else path)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for note in [n for t in tallies for n in t.notes][:20]:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, record


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric by name and unit."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: FAILED (exit code {proc.returncode})")
            status = 1
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}  (seed {args.seed}, {record['passes']} pass(es), "
              f"{result['attempted']} operations)")
        for metric, m in result["metrics"].items():
            t = record["timings"].get("pass_s" if metric == "wall_ref" else metric)
            detail = ""
            if t:
                detail = f"n={t['n']} min={t['min']:.6g} median={t['median']:.6g} " + (
                    f"p{t['tail']['pct']}={t['tail']['value']:.6g}" if t["tail"]
                    else "(no tail percentile below 11 samples)")
            print(f"  {metric:32s} {m['value']:>14.6g} {m['unit']:6s} {detail}")
        if not args.trace:
            print(f"  {'wall_s':32s} {record['wall_s']:>14.6g} s      sum of unit minima")
            print(f"  {'failed_frac':32s} {record['failed_frac']:>14.6g} ratio")
            print(f"  {'dim_found_total':32s} {record['dim_found_total']:>14d} count")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        workloads.WORKLOADS[args.workload].setup(args.seed, args.size)
        print("ready", flush=True)
        return 0
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
