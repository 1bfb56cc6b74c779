import argparse
import contextlib
import dataclasses
import math
import signal
import time
from pathlib import Path

import pytest

from cubesieve import arithsets, cube, harness, primes, sieve
from cubesieve.arithsets import PurePowers, RFull, Squareful
from cubesieve.cube import HilbertCube, verify
from cubesieve.harness import (
    EXIT_BUDGET,
    EXIT_COUNTEREXAMPLE,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    build_parser,
    flip_first_index,
    main,
    run_dimension_scan,
    run_sieve_compare,
    run_verify_all,
    _emit_csv,
)
from cubesieve.primes import PrimeSet
from cubesieve.sieve import NU_MODELS, prescribed_cutoff
from cubesieve.sunflower import SunflowerWitness


GOLDEN = Path(__file__).resolve().parent / "golden"


def _unreachable(*args):
    raise AssertionError("allocated past the size guard")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(())
    with pytest.raises(ValueError):
        ExperimentConfig((100, 10))


def test_f2_scan_rows():
    cfg = ExperimentConfig((3, 10, 32))
    header, rows = run_dimension_scan(Squareful(), cfg)
    assert header[0] == "N"
    by_n = {row[0]: row for row in rows}
    assert by_n[3][1] == 0 and by_n[3][3] == "H(1;)"
    assert by_n[10][1] == 1 and by_n[32][1] == 2
    assert by_n[32][3] == "H(1;7+8)"
    for row in rows:
        d, log_n, ratio = row[1], row[6], row[7]
        assert math.isclose(ratio, d / log_n, rel_tol=1e-9)


def test_scan_enumerates_each_grid_point_once(monkeypatch):
    # every row of this dense scan falls back to greedy, and both searches
    # read the one member list of their grid point
    calls = []

    def spy(s, limit):
        calls.append(limit)
        return arithsets.enumerate_members(s, limit)

    monkeypatch.setattr(harness, "enumerate_members", spy)
    cfg = ExperimentConfig((100, 1000), budget=50)
    _, rows = run_dimension_scan(arithsets.parse_set_descriptor("semigroup:class:1,4"), cfg)
    assert [row[2] for row in rows] == ["greedy", "greedy"]
    assert calls == [100, 1000]


def test_f2_scan_witnesses_reverify():
    cfg = ExperimentConfig((10, 32, 100))
    _, rows = run_dimension_scan(Squareful(), cfg)
    sq = Squareful()
    for row in rows:
        text = row[3]
        a0, _, steps = text[2:-1].partition(";")
        cube = HilbertCube(int(a0), tuple(int(s) for s in steps.split("+")) if steps else ())
        assert verify(cube, sq, row[0]) == (True, None)


def test_csv_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = ExperimentConfig((10, 32, 100), seed=9)
        header, rows = run_dimension_scan(Squareful(), cfg)
        _emit_csv(header, rows, str(out))
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "\r" not in text and text.endswith("\n")


def test_sieve_compare_rows():
    cfg = ExperimentConfig((10**4,))
    header, rows = run_sieve_compare(cfg)
    row = rows[0]
    truth, bound_best = row[1], row[5]
    assert truth == 100
    assert bound_best is None or bound_best >= truth


def test_verify_all_passes():
    checks = run_verify_all()
    assert all(c.ok for c in checks), checks
    assert len(checks) == 10


def test_verify_all_detects_injected_fault():
    checks = run_verify_all(witness_fault_hook=flip_first_index)
    assert not all(c.ok for c in checks)
    bad = [c.name for c in checks if not c.ok]
    assert bad == ["witness-revalidation"]


# --- CLI ---------------------------------------------------------------------

def test_cli_membership(capsys):
    assert run_cli(["membership", "--set", "squareful", "--n", "72"], capsys)[:2] == (0, "true\n")
    assert run_cli(["membership", "--set", "squareful", "--n", "12"], capsys)[:2] == (0, "false\n")
    # beyond float range: no OverflowError traceback
    for n, answer in ((10**400, "true\n"), (10**400 + 1, "false\n")):
        assert run_cli(["membership", "--set", "purepowers", "--n", str(n)], capsys) == (0, answer, "")


@pytest.mark.parametrize("n, answer", [
    (2**61 - 1, "false"),  # a prime
    (2**63 - 25, "false"),  # the largest prime below 2^63
    ((2**31 - 1) ** 2, "true"),  # a prime squared
    ((2**31 - 1) * (2**31 + 11), "false"),  # two large primes
    (2**62, "true"),
])
def test_cli_squareful_membership_near_2_63(n, answer, capsys):
    # trial division stops at f^3 > m, so no answer takes more than about
    # 2 * 10^6 / 3 trial divisors
    assert run_cli(["membership", "--set", "squareful", "--n", str(n)], capsys) == (
        EXIT_OK, f"{answer}\n", "")


@pytest.mark.parametrize("spec, at_prime, at_square", [
    ("rfull:2,all", "false", "true"),
    ("semigroup:all", "true", "true"),
    ("semigroup:class:1,4", "false", "false"),  # 2^61 - 1 = 2^31 - 1 = 3 (mod 4)
    ("rfull:2,inert:1,1,1", "true", "true"),  # both primes are 1 (mod 3): split
])
def test_cli_factored_membership_near_2_63(spec, at_prime, at_square, capsys):
    # factorize stops trial division at f^3 > m and splits the cofactor, so
    # each answer takes well under a second, where trial division up to
    # sqrt(n) ran past 10 s
    for n, answer in ((2**61 - 1, at_prime), ((2**31 - 1) ** 2, at_square)):
        start = time.perf_counter()
        assert run_cli(["membership", "--set", spec, "--n", str(n)], capsys) == (
            EXIT_OK, f"{answer}\n", "")
        assert time.perf_counter() - start < 5


def test_cli_squareful_membership_refuses_2_63(capsys):
    assert run_cli(["membership", "--set", "squareful", "--n", str(2**63)], capsys) == (
        EXIT_USAGE, "", "error: factorize expects 1 <= n < 2**63, got 9223372036854775808\n")


def test_cli_enumerate(capsys, tmp_path):
    argv = ["enumerate", "--set", "purepowers", "--limit", "30"]
    assert run_cli(argv, capsys) == (EXIT_OK, "n\n1\n4\n8\n9\n16\n25\n27\n", "")
    # --out writes the same bytes that stdout carries
    target = tmp_path / "members.csv"
    assert run_cli(argv + ["--out", str(target)], capsys) == (EXIT_OK, "", "")
    assert target.read_bytes() == b"n\n1\n4\n8\n9\n16\n25\n27\n"

    target = tmp_path / "squareful.csv"
    code, _, _ = run_cli(
        ["enumerate", "--set", "squareful", "--limit", "50", "--out", str(target)], capsys
    )
    assert code == EXIT_OK
    lines = target.read_text().splitlines()
    assert lines[0] == "n" and lines[1] == "1" and lines[-1] == "49"


@pytest.mark.parametrize("entry", ["15", "318665857834031151167461"])
def test_cli_enumerate_refuses_a_composite_prime_list(entry, capsys):
    # the second is psi_12, a strong pseudoprime to every base up to 37
    argv = ["enumerate", "--set", f"semigroup:list:{entry}", "--limit", "10"]
    assert run_cli(argv, capsys) == (
        EXIT_USAGE, "", f"error: explicit prime list contains composite {entry}\n")


def test_cli_olson_witness(capsys):
    code, out, _ = run_cli(
        ["olson", "--p", "7", "--elements", "1,2,3", "--target", "6"], capsys
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["indices,sum,facts", "0+1+2,6,7==6"]

    code, out, _ = run_cli(
        ["olson", "--p", "7", "--elements", "1,2,3", "--target", "0"], capsys
    )
    assert code == EXIT_OK and out.strip() == "NOTFOUND"


def test_cli_olson_refuses_huge_modulus(capsys):
    # refused before the DP allocates anything, with one error line
    code, out, err = run_cli(
        ["olson", "--p", "1000000007", "--elements", "1,2", "--target", "5"], capsys
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("error: modulus q = 1000000007 is too large for the "
                   "reachability DP (max 10**7)\n")


def test_cli_liftzero_and_schwarzwald(capsys):
    code, out, _ = run_cli(
        ["liftzero", "--p", "7", "--m", "4", "--elements", "7,14,21"], capsys
    )
    assert code == EXIT_OK
    assert out.splitlines()[1] == "0,7,7==0|28!=0"

    code, out, _ = run_cli(
        ["schwarzwald", "--p", "7", "--ell", "2", "--a0", "0",
         "--elements", "0,1,2,3,4,5,6,7,8", "--strategy", "paper"], capsys
    )
    assert code == EXIT_OK
    assert out.splitlines()[1].endswith("7==0|49!=0")


def test_cli_schwarzwald_precondition_is_usage_error(capsys):
    code, _, err = run_cli(
        ["schwarzwald", "--p", "7", "--ell", "2", "--a0", "0",
         "--elements", "1,2", "--strategy", "paper"], capsys
    )
    assert code == EXIT_USAGE and "A1" in err


@pytest.mark.parametrize("ell", ["1", "0", "-3"])
def test_cli_schwarzwald_refuses_small_ell(ell, capsys):
    # ell < 1 used to reach Modulus with the float cofactor 7 ** (ell - 1)
    code, out, err = run_cli(
        ["schwarzwald", "--p", "7", "--ell", ell, "--a0", "0", "--elements", "1,2,3"], capsys
    )
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: modulus must be p^ell with ell > 1, got p=7, ell={ell}\n"


def test_cli_cube_verify(capsys):
    code, out, _ = run_cli(
        ["cube-verify", "--a0", "1", "--steps", "7,24", "--set", "squareful",
         "--limit", "32"], capsys
    )
    assert (code, out.strip()) == (EXIT_OK, "verified")
    code, out, _ = run_cli(
        ["cube-verify", "--a0", "1", "--steps", "7,24", "--set", "squareful",
         "--limit", "31"], capsys
    )
    assert (code, out.strip()) == (EXIT_OK, "offender:32")


def test_cli_cube_search_and_budget_exit(capsys):
    code, out, _ = run_cli(
        ["cube-search", "--set", "squareful", "--limit", "32", "--mode", "exact"], capsys
    )
    assert code == EXIT_OK
    # 29 nodes where the list-based reference charges 65: the popcount bound
    # and the step cap cut the states that cannot beat the best depth, and a
    # cut state is charged nothing
    assert out.splitlines()[1] == "32,exact,2,H(1;7+8),29,1"

    code, out, err = run_cli(
        ["cube-search", "--set", "squareful", "--limit", "1000", "--mode", "exact",
         "--budget", "10"], capsys
    )
    assert code == EXIT_BUDGET and "budget" in err
    assert ",greedy," in out and out.splitlines()[1].endswith(",0")


def test_cli_cube_search_deep_cube(capsys):
    # every integer is a member: the search goes 999 steps deep, past
    # Python's recursion limit, and prints H(1; 1 x 999)
    code, out, err = run_cli(["cube-search", "--set", "semigroup:all", "--limit", "1000"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1] == f"1000,exact,999,H(1;{'+'.join(['1'] * 999)}),499500,1"


def test_cli_ap_max(capsys):
    code, out, _ = run_cli(["ap-max", "--set", "squareful", "--limit", "8"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[1] == "8,2,4"


def test_cli_sieve_bound(capsys):
    code, out, _ = run_cli(
        ["sieve-bound", "--nu", "half_p_plus_one",
         "--log-n", "6.9", "--y-grid", "50:150:50"], capsys
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "y,numerator,denominator,bound"
    assert len(lines) == 4


def test_cli_sunflower(capsys, tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("1,2\n1,3\n1,4\n")
    code, out, _ = run_cli(
        ["sunflower", "--family-file", str(fam), "--petals", "3", "--mode", "exact"], capsys
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["kernel,petals", "1,0+1+2"]

    fam.write_text("1,2\n1,3\n2,3\n")
    code, out, _ = run_cli(
        ["sunflower", "--family-file", str(fam), "--petals", "3", "--mode", "exact"], capsys
    )
    assert out.strip() == "NOTFOUND,absence-proven"


def test_cli_repcount(capsys):
    code, out, _ = run_cli(
        ["repcount", "--elements", "1,2,3,4", "--h", "2", "--limit", "7"], capsys
    )
    assert code == EXIT_OK and out.splitlines()[1] == "2,5"


def test_cli_experiment_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run_cli(
            ["experiment", "f2", "--grid", "10,32,100", "--seed", "5",
             "--out", str(path)], capsys
        )
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_experiment_config_file(capsys, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("grid=10,32\nseed=3\n# comment\nbudget=100000\n")
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        ["experiment", "f2", "--config", str(config), "--out", str(out)], capsys
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + two grid rows

    # flags win over the config file
    out2 = tmp_path / "scan2.csv"
    code, _, _ = run_cli(
        ["experiment", "f2", "--config", str(config), "--grid", "10",
         "--out", str(out2)], capsys
    )
    assert len(out2.read_text().splitlines()) == 2


def test_cli_experiment_config_rejects_unknown_key(capsys, tmp_path):
    # a misspelt key used to be dropped, so the run went on with the default budget
    config = tmp_path / "exp.cfg"
    config.write_text("grid=10,32\nbudgt=-7\n")
    code, out, err = run_cli(["experiment", "f2", "--config", str(config)], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("error: unknown config key 'budgt'; "
                   "known: grid, budget, seed, out, r, primes, tau\n")


def test_cli_experiment_config_names_a_bad_value(capsys, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("grid=10,32\nbudget=lots\n")
    code, out, err = run_cli(["experiment", "f2", "--config", str(config)], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: budget= in {config}: invalid value 'lots'\n"


# one case for each caller of harness._ints: the argv (a file name in it
# stands for a file of the given text) and where the error says the list was
_BAD_LISTS = [
    (["olson", "--p", "7", "--elements", "1,x", "--target", "3"], "--elements", "1,x"),
    (["liftzero", "--p", "71", "--m", "2", "--elements", "1,x"], "--elements", "1,x"),
    (["schwarzwald", "--p", "7", "--ell", "2", "--a0", "1", "--elements", "1,x"],
     "--elements", "1,x"),
    (["schwarzwald", "--p", "7", "--ell", "2", "--a0", "1", "--elements", "1,x",
      "--strategy", "paper"], "--elements", "1,x"),
    (["repcount", "--elements", "1,x", "--h", "2", "--limit", "7"], "--elements", "1,x"),
    (["sieve-bound", "--primes", "all", "--nu", "two_sqrt", "--y-grid", "10,x", "--log-n", "5"],
     "--y-grid", "10,x"),
    (["cube-verify", "--a0", "1", "--steps", "1,z", "--set", "squareful", "--limit", "32"],
     "--steps", "1,z"),
    (["experiment", "f2", "--grid", "10,y"], "--grid", "10,y"),
    (["experiment", "f2", "--config", "exp.cfg"], "grid= in exp.cfg", "10,y"),
    (["sunflower", "--family-file", "fam.txt", "--petals", "3"], "fam.txt line 3", "4, x"),
]
_FILES = {"exp.cfg": "seed=1\ngrid=10,y\n", "fam.txt": "1,2\n\n4, x\n1,3\n"}


@pytest.mark.parametrize("argv, where, text", _BAD_LISTS)
def test_cli_bad_list_entry_names_its_flag(argv, where, text, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, body in _FILES.items():
        (tmp_path / name).write_text(body)
    bad = next(t.strip() for t in text.split(",") if not t.strip().isdigit())
    assert run_cli(argv, capsys) == (
        EXIT_USAGE, "", f"error: {where}: invalid integer {bad!r} in the list {text!r}\n")


def test_cli_experiment_f1_f4(capsys):
    code, out, _ = run_cli(
        ["experiment", "f1", "--grid", "10,50", "--r", "2", "--primes", "all"], capsys
    )
    assert code == EXIT_OK and out.splitlines()[1].startswith("10,1,")
    code, out, _ = run_cli(
        ["experiment", "f4", "--grid", "50", "--primes", "list:2,3"], capsys
    )
    assert code == EXIT_OK
    assert out.splitlines()[1].split(",")[1].isdigit()


@pytest.mark.parametrize("argv, unread", [
    (["f2", "--grid", "10", "--primes", "bogus:1", "--r", "99"], "--r, --primes"),
    (["sieve-compare", "--grid", "100", "--budget", "5", "--r", "1", "--primes", "bogus"],
     "--budget, --r, --primes"),
    (["f4", "--grid", "10", "--r", "3"], "--r"),
    (["sieve-compare", "--grid", "100", "--seed", "1"], "--seed"),
])
def test_cli_experiment_refuses_unread_flags(argv, unread, capsys):
    # an unread flag would otherwise be dropped without a word, so a
    # mistyped run would look fine
    code, out, err = run_cli(["experiment"] + argv, capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: experiment {argv[0]} does not read {unread}\n"


def test_cli_experiment_refuses_unread_config_key(capsys, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("grid=10,32\ntau=2\n")
    code, out, err = run_cli(["experiment", "f2", "--config", str(config)], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: experiment f2 does not read --tau\n"


_HUGE_STAR = max(4, int(round(prescribed_cutoff(1e-3, math.log(100)))))  # about 8.5e9


@pytest.mark.parametrize("argv, message", [
    (["sieve-bound", "--set", "squareful", "--y-grid", "100000001", "--log-n", "5"],
     "limit N = 100000001 is too large for the prime sieve table (max 10**8)"),
    (["sieve-bound", "--primes", "all", "--nu", "two_sqrt", "--y-grid", "10,10000000000",
      "--log-n", "5"], "limit N = 10000000000 is too large for the prime sieve table (max 10**8)"),
    (["experiment", "sieve-compare", "--grid", "100", "--tau", "1e-3"],
     f"limit N = {_HUGE_STAR} is too large for the prime sieve table (max 10**8)"),
    (["experiment", "sieve-compare", "--grid", "10,100", "--tau", "1e-3"],
     f"limit N = {_HUGE_STAR} is too large for the prime sieve table (max 10**8)"),
    # from its last point, before the 10^10 points of the grid are listed
    (["sieve-bound", "--primes", "all", "--nu", "two_sqrt", "--y-grid", "1:10000000000:1",
      "--log-n", "20"], "limit N = 10000000000 is too large for the prime sieve table (max 10**8)"),
    # a last point the table takes, but 10^8 rows of tens of GB: refused
    # from the point count
    (["sieve-bound", "--primes", "all", "--nu", "two_sqrt", "--y-grid", "1:100000000:1",
      "--log-n", "20"], "grid spec '1:100000000:1' has 100000000 points; "
                        "a scan takes at most 10**6 rows (about 0.3 GB)"),
])
def test_cli_refuses_cutoff_too_large(argv, message, capsys, monkeypatch):
    # refused before any member is enumerated, any prime is sieved or any
    # grid is listed; a y-byte sieve table for y = 8.5e9 would not fit in memory
    monkeypatch.setattr(harness, "enumerate_members", _unreachable)
    monkeypatch.setattr(primes, "primes_up_to", _unreachable)
    monkeypatch.setattr(harness, "range", _unreachable, raising=False)
    assert run_cli(argv, capsys) == (EXIT_USAGE, "", f"error: {message}\n")


def test_y_grid_row_cap_boundary(monkeypatch):
    monkeypatch.setattr(harness, "_MAX_GRID_ROWS", 10)
    assert harness._parse_y_grid("5:50:5") == list(range(5, 51, 5))
    with pytest.raises(ValueError, match="has 11 points"):
        harness._parse_y_grid("5:55:5")


def test_cli_verify_olson(capsys):
    code, out, err = run_cli(["verify", "olson", "--p", "5"], capsys)
    assert code == EXIT_OK and "counterexamples=0" in out
    assert (out, err) == ("p=5 subsets=1 cases=5 counterexamples=0\n", "")


def test_cli_verify_runs_the_suite(capsys):
    code, out, err = run_cli(["verify"], capsys)
    assert (code, err) == (EXIT_OK, "")
    lines = out.split("\n")
    assert lines[-1] == "" and len(lines[:-1]) == 10
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert out == (GOLDEN / "verify_all.txt").read_text(encoding="utf-8")


def test_cli_experiment_has_no_verify_route(capsys):
    # `verify` is the one route to the suite
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "verify-all"])
    assert exc.value.code == EXIT_USAGE
    assert "invalid choice: 'verify-all'" in capsys.readouterr().err


def test_cli_verify_fault_injection(capsys):
    code, out, err = run_cli(["verify", "--inject-fault"], capsys)
    assert (code, err) == (EXIT_COUNTEREXAMPLE, "")
    assert "FAIL witness-revalidation: 24 witnesses re-validated, 24 invalid\n" in out
    assert out == (GOLDEN / "verify_inject_fault.txt").read_text(encoding="utf-8")


def test_cli_verify_reads_the_fold_counter(capsys, monkeypatch):
    # one class at every prime certifies a count of 1, which every set the
    # check draws exceeds: the check must fail if it reads the CLI's counter
    monkeypatch.setattr(sieve, "_class_counter", lambda vals: lambda p: 1)
    code, out, _ = run_cli(["verify"], capsys)
    assert code == EXIT_COUNTEREXAMPLE
    assert "FAIL sieve-soundness" in out


@pytest.mark.parametrize("argv, message", [
    (["verify", "--p", "7"], "verify all does not read --p"),
    (["verify", "all", "--p", "5"], "verify all does not read --p"),
    (["verify", "olson", "--inject-fault"], "verify olson does not read --inject-fault"),
])
def test_cli_verify_refuses_unread_flags(argv, message, capsys, monkeypatch):
    # refused before either suite runs
    monkeypatch.setattr(harness, "run_verify_all", _unreachable)
    monkeypatch.setattr(harness, "verify_olson_exhaustive", _unreachable)
    assert run_cli(argv, capsys) == (EXIT_USAGE, "", f"error: {message}\n")


# every flag and positional of every subcommand, besides --help and --version
_CLI_SURFACE = {
    "membership": ("--set", "--n"),
    "enumerate": ("--set", "--limit", "--out"),
    "olson": ("--p", "--elements", "--target", "--out"),
    "liftzero": ("--p", "--m", "--elements", "--distinct-mod-p", "--out"),
    "schwarzwald": ("--p", "--ell", "--a0", "--elements", "--strategy", "--out"),
    "sieve-bound": ("--set", "--elements-file", "--primes", "--y-grid", "--nu", "--log-n",
                    "--variant", "--out"),
    "cube-verify": ("--a0", "--steps", "--set", "--limit", "--distinct"),
    "cube-search": ("--set", "--limit", "--mode", "--budget", "--seed", "--subset-sum",
                    "--distinct", "--out"),
    "ap-max": ("--set", "--limit", "--out"),
    "sunflower": ("--family-file", "--petals", "--mode"),
    "repcount": ("--elements", "--h", "--limit"),
    "experiment": ("name", "--grid", "--budget", "--seed", "--out", "--r", "--primes", "--tau",
                   "--config"),
    "verify": ("suite", "--p", "--inject-fault"),
}


def _surface(parser) -> dict[str, tuple[str, ...]]:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: tuple(a.option_strings[0] if a.option_strings else a.dest for a in sp._actions
                    if not isinstance(a, (argparse._HelpAction, argparse._VersionAction)))
        for name, sp in sub.choices.items()
    }


def test_cli_surface_is_pinned():
    assert _surface(build_parser()) == _CLI_SURFACE  # 62 values
    # the one-command parser `main` builds for each command
    for name, flags in _CLI_SURFACE.items():
        assert _surface(build_parser(name)) == {name: flags}


_REMOVED_FLAGS = [
    (["sieve-bound", "--set", "squareful", "--y", "100", "--log-n", "5"],
     "cubesieve sieve-bound: error: the following arguments are required: --y-grid"),
    (["sieve-bound", "--set", "squareful", "--y-grid", "100", "--y", "100", "--log-n", "5"],
     "cubesieve: error: unrecognized arguments: --y 100"),
    (["cube-verify", "--a0", "0", "--steps", "1", "--set", "squareful", "--limit", "9",
      "--subset-sum"], "cubesieve: error: unrecognized arguments: --subset-sum"),
    # no flag is taken by an abbreviation of its name
    (["sieve-bound", "--set", "squareful", "--y-gr", "100", "--log-n", "5"],
     "cubesieve sieve-bound: error: the following arguments are required: --y-grid"),
    # nor a top-level flag: `--vers` is not `--version`, and is named before
    # the missing command
    (["--vers"], "cubesieve: error: unrecognized arguments: --vers"),
    (["--vers", "membership", "--set", "squareful", "--n", "72"],
     "cubesieve: error: unrecognized arguments: --vers"),
]


def _argv_id(argv: list[str]) -> str:
    # a test id from the argv text, so that it names the same argv whatever
    # cases are added before it
    return "_".join(argv)


@pytest.mark.parametrize("argv, message", _REMOVED_FLAGS,
                         ids=[_argv_id(argv) for argv, _ in _REMOVED_FLAGS])
def test_cli_removed_flags_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (EXIT_USAGE, "")
    assert captured.err.endswith(f"{message}\n")


def _exit_outcome(parse, argv, capsys):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    *(argv for argv, _ in _REMOVED_FLAGS),
    ["membership", "--set", "squareful"],  # a required flag missing
    ["sieve-bound", "--set", "squareful", "--y-grid", "100", "--log-n", "5", "--nu", "bogus"],
    ["schwarzwald", "--p", "7", "--ell", "2", "--a0", "1", "--elements", "1,2",
     "--strategy", "bogus"],
    ["olson", "--p", "seven", "--elements", "1", "--target", "1"],
    ["frobnicate"],
    ["-h"],
    ["--version"],
    *([name, flag] for name in _CLI_SURFACE for flag in ("-h", "--version")),
], ids=_argv_id)
def test_cli_one_command_parse_matches_full_parser(argv, capsys):
    # stdout, stderr and exit code are those of the parser with every command
    full = _exit_outcome(lambda a: build_parser().parse_args(a), argv, capsys)
    assert _exit_outcome(main, argv, capsys) == full
    assert full[0] == (EXIT_OK if {"-h", "--version"} & set(argv) else EXIT_USAGE)


@pytest.mark.parametrize("argv, built", [
    (["membership", "--set", "squareful", "--n", "72"], ["membership"]),
    (["experiment", "f2", "--grid", "10"], ["experiment"]),
    # a usage error is reported by the one-command parser
    (["membership", "--set", "squareful"], ["membership"]),
    (["frobnicate"], list(_CLI_SURFACE)),
])
def test_cli_main_builds_only_the_invoked_subparser(argv, built, monkeypatch, capsys):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    with contextlib.suppress(SystemExit):
        main(argv)
    assert names == built


def test_budget_default_is_one_constant():
    assert ExperimentConfig((10,)).budget == cube.DEFAULT_BUDGET
    assert build_parser().parse_args(["cube-search", "--set", "squareful", "--limit", "9"]).budget \
        == cube.DEFAULT_BUDGET


def test_cli_usage_errors(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
    # no command at all: the full parser's usage line (wrapped at 80 columns),
    # then the missing command
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage: cubesieve [-h] [--version]\n"
        "                 {" + ",".join(_CLI_SURFACE) + "}\n"
        "                 ...\n"
        "cubesieve: error: the following arguments are required: command\n")
    with pytest.raises(SystemExit) as exc:
        main(["membership", "--set", "squareful"])
    assert exc.value.code == EXIT_USAGE
    code, _, err = run_cli(["enumerate", "--set", "bogus", "--limit", "5"], capsys)
    assert code == EXIT_USAGE and "unrecognized" in err


def test_cli_experiment_without_grid_is_usage_error(capsys):
    code, _, err = run_cli(["experiment", "f2"], capsys)
    assert code == EXIT_USAGE and "grid" in err


def test_cli_sieve_bound_needs_cutoff(capsys):
    # --y-grid is required, so argparse refuses the call
    with pytest.raises(SystemExit) as exc:
        main(["sieve-bound", "--set", "squareful", "--nu", "two_sqrt", "--log-n", "5.0"])
    assert exc.value.code == EXIT_USAGE and "--y-grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--elements-file", "F", "--set", "squareful", "--y-grid", "20"],
     "argument --set: not allowed with argument --elements-file"),
])
def test_cli_sieve_bound_refuses_exclusive_flags(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sieve-bound", "--log-n", "5"] + argv)
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(f"sieve-bound: error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["--set", "squareful", "--nu", "five_ceil_sqrt"],
     "sieve-bound --nu five_ceil_sqrt does not read --set"),
    (["--elements-file", "F", "--nu", "five_ceil_sqrt"],
     "sieve-bound --nu five_ceil_sqrt does not read --elements-file"),
    (["--set", "squareful", "--nu", "five_ceil_sqrt", "--variant", "weighted"],
     "sieve-bound --variant weighted needs --nu measured"),
    (["--nu", "two_sqrt", "--variant", "weighted"],
     "sieve-bound --variant weighted needs --nu measured"),
])
def test_cli_sieve_bound_refuses_unread_flags(argv, message, capsys, monkeypatch):
    # refused before the file is opened or any member is enumerated
    monkeypatch.setattr(harness, "open", _unreachable, raising=False)
    monkeypatch.setattr(harness, "enumerate_members", _unreachable)
    code, out, err = run_cli(["sieve-bound", "--y-grid", "20", "--log-n", "5"] + argv, capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {message}\n"


def test_cli_sieve_bound_elements_file(capsys, tmp_path):
    elems = tmp_path / "elements.txt"
    elems.write_text("\n".join(str(a * a) for a in range(1, 101)) + "\n")
    code, out, _ = run_cli(
        ["sieve-bound", "--elements-file", str(elems), "--log-n", "9.22",
         "--y-grid", "100,500", "--variant", "weighted"], capsys
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "y,numerator,denominator,bound" and len(lines) == 3


def test_cli_sieve_bound_empty_elements_file(capsys, tmp_path):
    elems = tmp_path / "empty.txt"
    elems.write_text("")
    for variant in ("plain", "weighted"):
        code, out, err = run_cli(
            ["sieve-bound", "--elements-file", str(elems), "--y-grid", "100",
             "--log-n", "5", "--variant", variant], capsys
        )
        assert code == EXIT_USAGE and out == ""
        assert err == "error: cannot profile an empty set\n"


@pytest.mark.parametrize("argv, message", [
    (["sieve-bound", "--primes", "class:1,x", "--nu", "two_sqrt", "--y-grid", "10",
      "--log-n", "5"], "prime-set spec 'class:1,x': expected an integer q in class:a,q, got 'x'"),
    (["experiment", "f1", "--grid", "10", "--primes", "inert:1,x,1"],
     "prime-set spec 'inert:1,x,1': expected an integer b in inert:a,b,c, got 'x'"),
    (["cube-search", "--set", "rfull:2,inert:1,x,1", "--limit", "100"],
     "prime-set spec 'inert:1,x,1': expected an integer b in inert:a,b,c, got 'x'"),
    (["sieve-bound", "--primes", "list:2,x", "--nu", "two_sqrt", "--y-grid", "10",
      "--log-n", "5"], "prime-set spec 'list:2,x': expected an integer p2 in list:p1,p2,..., got 'x'"),
    (["sieve-bound", "--primes", "class:1", "--nu", "two_sqrt", "--y-grid", "10",
      "--log-n", "5"], "prime-set spec 'class:1': expected the 2 fields of class:a,q, got 1"),
])
def test_cli_prime_set_spec_errors_name_the_spec(argv, message, capsys):
    assert run_cli(argv, capsys) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("quadform:1,0", "expected the 3 fields of quadform:a,b,c, got 2"),
    ("quadform:1,0,1,2", "expected the 3 fields of quadform:a,b,c, got 4"),
    ("quadform:1,x,1", "expected an integer b in quadform:a,b,c, got 'x'"),
    ("rfull:x,all", "expected an integer r in rfull:r,<primeset>, got 'x'"),
])
def test_cli_set_descriptor_errors_name_the_descriptor(text, message, capsys):
    assert run_cli(["membership", "--set", text, "--n", "5"], capsys) == (
        EXIT_USAGE, "", f"error: set descriptor {text!r}: {message}\n")


def test_cli_help_describes_without_implementation_notes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    out = " ".join(capsys.readouterr().out.split())  # argparse rewraps to the terminal
    assert exc.value.code == EXIT_OK
    assert " ".join(harness.__doc__.split("\n\n")[0].split()) in out
    assert "_COMMANDS" not in out


@pytest.mark.parametrize("text, line, shown", [
    ("1\n4\n\nx\n9\n", 4, "'x'"),
    ("2.5\n", 1, "'2.5'"),
    ("1\n" + "9" * 5000 + "\n", 2, repr("9" * 40)),  # past int's 4300-digit limit
])
def test_cli_sieve_bound_names_a_bad_elements_line(text, line, shown, capsys, tmp_path):
    elems = tmp_path / "elements.txt"
    elems.write_text(text)
    code, out, err = run_cli(["sieve-bound", "--elements-file", str(elems), "--y-grid", "100",
                              "--log-n", "5"], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {elems} line {line}: invalid integer {shown}\n"


def test_cli_version(capsys):
    for argv in (["--version"], ["olson", "--version"], ["experiment", "--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "cubesieve 0.1.0" in out


@pytest.mark.parametrize("name, argv", [
    ("sieve_compare", ["experiment", "sieve-compare", "--grid", "100,1000"]),
    ("sieve_bound_squareful_plain",
     ["sieve-bound", "--set", "squareful", "--primes", "all", "--y-grid", "10:300:10",
      "--nu", "measured", "--log-n", "6.91", "--variant", "plain"]),
    ("sieve_bound_squareful_weighted",
     ["sieve-bound", "--set", "squareful", "--primes", "all", "--y-grid", "10:300:10",
      "--nu", "measured", "--log-n", "6.91", "--variant", "weighted"]),
    ("sieve_bound_rfull_inert",
     ["sieve-bound", "--set", "rfull:2,inert:1,1,1", "--y-grid", "10:300:10", "--log-n", "6.91"]),
    ("sieve_bound_inert_model",
     ["sieve-bound", "--primes", "inert:1,1,1", "--nu", "five_ceil_sqrt",
      "--y-grid", "100:3000:100", "--log-n", "6.91"]),
])
def test_cli_sieve_csv_matches_golden(name, argv, capsys):
    # stdout frozen from the per-prefix scan that the running-sum scan replaced
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_OK and err == ""
    assert out == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv", [
    ("experiment_f2", ["experiment", "f2", "--grid", "10,32,100,1000", "--seed", "17"]),
    ("experiment_f1_inert",
     ["experiment", "f1", "--r", "2", "--primes", "inert:1,1,1", "--grid", "100,1000",
      "--budget", "10000", "--seed", "0"]),
    ("experiment_f4_class",
     ["experiment", "f4", "--primes", "class:1,4", "--grid", "100,1000",
      "--budget", "10000", "--seed", "0"]),
    ("cube_search_rfull4_1e9", ["cube-search", "--set", "rfull:4,all", "--limit", "1000000000"]),
    ("experiment_f1_rfull4_1e9_budget",
     ["experiment", "f1", "--r", "4", "--primes", "all", "--grid", "1000000000",
      "--budget", "1000"]),
    # a row the greedy probe wins, with its witness and its own nodes
    ("experiment_f4_class_greedy",
     ["experiment", "f4", "--primes", "class:1,4", "--grid", "3000000", "--budget", "300000",
      "--seed", "1"]),
])
def test_cli_scan_csv_matches_golden(name, argv, capsys):
    # exact rows, and rows where the budget ran out and the greedy probe won;
    # the pair-list route holds no bitset, so rfull:4,all searches past 10**8,
    # and a scan there keeps its truncated row without the probe
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_OK and err == ""
    assert out == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


_DENSE = ["--grid", "1000,10000", "--budget", "300000", "--seed", "1"]


@pytest.mark.parametrize("name, argvs", [
    ("experiment_f1_inert_dense",
     [["experiment", "f1", "--r", "2", "--primes", "inert:1,1,1", *_DENSE]]),
    ("experiment_f4_class_dense", [["experiment", "f4", "--primes", "class:1,4", *_DENSE]]),
    ("cube_search_greedy_rfull_inert",
     [["cube-search", "--set", "rfull:2,inert:1,1,1", "--limit", "10000", "--mode", "greedy",
       "--seed", seed] for seed in ("0", "1", "2")]),
])
def test_cli_dense_csv_matches_golden(name, argvs, capsys):
    # the benchmark-sized dense rows, where the greedy probe picks among
    # thousands of admissible steps and the witnesses repeat one step
    outs = []
    for argv in argvs:
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_OK and err == ""
        outs.append(out)
    assert "".join(outs) == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


def _spy_builds(monkeypatch) -> list[str]:
    # records each bitset build and each greedy search, in order
    events, real_bitset, real_greedy = [], cube.bitset, harness.max_dimension_greedy
    monkeypatch.setattr(cube, "bitset",
                        lambda vals, top: events.append("bitset") or real_bitset(vals, top))
    monkeypatch.setattr(harness, "max_dimension_greedy",
                        lambda *a, **k: events.append("greedy") or real_greedy(*a, **k))
    return events


@pytest.mark.parametrize("text, budget, events", [
    # dense rows: one bitset for both searches, built before the exact one
    ("semigroup:class:1,4", 10000, ["bitset", "greedy"]),
    ("rfull:2,inert:1,1,1", 10000, ["bitset", "greedy"]),
    ("semigroup:class:1,4", 10**8, ["bitset"]),
    # sparse rows: the exact search runs on pair lists, and only the probe
    # builds a bitset
    ("squareful", 100, ["greedy", "bitset"]),
    ("squareful", 10**8, []),
])
def test_scan_row_builds_its_bitset_once(text, budget, events, monkeypatch):
    spied = _spy_builds(monkeypatch)
    s = arithsets.parse_set_descriptor(text)
    _, rows = run_dimension_scan(s, ExperimentConfig((1000,), budget=budget))
    assert spied == events
    assert rows[0][5] == int("greedy" not in events)  # the exact column


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_cli_cube_search_builds_its_own_bitset(mode, capsys, monkeypatch):
    # outside a scan each search builds the one bitset it reads, the greedy
    # search after it is called
    spied = _spy_builds(monkeypatch)
    argv = ["cube-search", "--set", "rfull:2,inert:1,1,1", "--limit", "1000", "--mode", mode,
            "--budget", "10000"]
    code, out, _ = run_cli(argv, capsys)
    assert code == (EXIT_BUDGET if mode == "exact" else EXIT_OK)
    assert spied == (["bitset"] if mode == "exact" else ["greedy", "bitset"])
    assert out.count("\n") == 2


# the scan goldens' rows before every exact search started from its floor
# (the longest homogeneous progression), with the set each scan searched
_BEFORE_FLOOR = {
    "experiment_f2": ("squareful", """\
10,1,exact,H(1;3),5,1,2.302585,0.434294,0.659010
32,2,exact,H(1;7+8),29,1,3.465736,0.577078,1.074317
100,2,exact,H(1;7+8),117,1,4.605170,0.434294,0.931981
1000,3,exact,H(8;28+28+64),5372,1,6.907755,0.434294,1.141439
"""),
    "experiment_f1_inert": ("rfull:2,inert:1,1,1", """\
100,8,greedy,H(1;6+6+6+6+6+6+6+6),10001,0,4.605170,1.737178,3.727925
1000,6,greedy,H(1;1+1+1+215+360+360),10001,0,6.907755,0.868589,2.282878
"""),
    "experiment_f1_inert_dense": ("rfull:2,inert:1,1,1", """\
1000,13,greedy,H(1;1+60+60+60+60+60+60+60+60+60+60+60+60),300001,0,6.907755,1.881943,4.946237
10000,6,greedy,H(1;1+1+1+215+360+360),300001,0,9.210340,0.651442,1.977031
"""),
    "experiment_f4_class": ("semigroup:class:1,4", """\
100,5,exact,H(5;12+12+12+12+12),227,1,4.605170,1.085736,2.329953
1000,6,greedy,H(1;4+84+84+228+228+228),10001,0,6.907755,0.868589,2.282878
"""),
    "experiment_f4_class_dense": ("semigroup:class:1,4", """\
1000,10,greedy,H(29;44+84+84+84+84+84+84+84+84+84),300001,0,6.907755,1.447648,3.804797
10000,7,greedy,H(1;4+84+84+228+228+228+924),300001,0,9.210340,0.760015,2.306536
"""),
}


@pytest.mark.parametrize("name", sorted(_BEFORE_FLOOR))
def test_scan_goldens_only_gain_from_the_floor(name):
    # no row's dimension drops, every witness verifies, and an exact row
    # keeps every column but nodes
    text, before = _BEFORE_FLOOR[name]
    s = arithsets.parse_set_descriptor(text)
    lines = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[4] == "nodes"
    rows = [line.split(",") for line in lines[1:]]
    old_rows = [line.split(",") for line in before.splitlines()]
    assert [row[0] for row in rows] == [row[0] for row in old_rows]
    for row, old in zip(rows, old_rows):
        assert int(row[1]) >= int(old[1])
        a0, steps = row[3][2:-1].split(";")
        witness = HilbertCube(int(a0), tuple(int(a) for a in steps.split("+") if a))
        assert witness.dimension == int(row[1])
        assert verify(witness, s, int(row[0])) == (True, None)
        if old[5] == "1":
            assert row[:4] + row[5:] == old[:4] + old[5:]


@pytest.mark.parametrize("argv, message", [
    (["--set", "squareful", "--y-grid", "100", "--log-n", "inf"], "log N must be finite, got inf"),
    (["--primes", "all", "--nu", "two_sqrt", "--y-grid", "100", "--log-n", "nan"],
     "log N must be positive, got nan"),
    (["--set", "squareful", "--y-grid", "100", "--log-n", "-1"], "log N must be positive, got -1.0"),
    (["--set", "squareful", "--y-grid", "100", "--log-n", "710"],
     "log N too large to enumerate up to e^(log N), got 710.0"),
    (["--set", "squareful", "--y-grid", "100", "--log-n", "1e6"],
     "log N too large to enumerate up to e^(log N), got 1000000.0"),
    (["--set", "squareful", "--y-grid", "100", "--log-n", "709"],
     "log N too large to enumerate up to e^(log N), got 709.0"),
    # e^18.43 is just above 10**8
    (["--set", "squareful", "--y-grid", "100", "--log-n", "18.43"],
     "log N too large to enumerate up to e^(log N), got 18.43"),
])
def test_cli_sieve_bound_rejects_bad_log_n(argv, message, capsys, monkeypatch):
    # refused before any member is enumerated; e^709 members would be OOM-killed
    monkeypatch.setattr(harness, "enumerate_members", _unreachable)
    code, out, err = run_cli(["sieve-bound"] + argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spec", ["10:1:1", "10:20:0", "1:2", "1:2:3:4", "a:b:c", "1:x:1"])
def test_cli_sieve_bound_bad_grid_spec(spec, capsys):
    # the wrong number of parts or a non-integer part reads as the same spec error
    argv = ["sieve-bound", "--primes", "all", "--nu", "two_sqrt", "--y-grid", spec,
            "--log-n", "5"]
    assert run_cli(argv, capsys) == (EXIT_USAGE, "", f"error: bad grid spec {spec!r}\n")


def test_cli_nu_choices_are_the_models():
    # one list: the measured profile first, then the model names in their order
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    nu = next(a for a in sub.choices["sieve-bound"]._actions if a.dest == "nu")
    assert nu.choices == ("measured", "five_ceil_sqrt", "two_sqrt", "half_p_plus_one")
    assert nu.choices[1:] == tuple(NU_MODELS)


@pytest.mark.parametrize("grid, n", [("0", "0"), ("-3", "-3"), ("1", "1"), ("1,100", "1")])
def test_cli_sieve_compare_refuses_n_below_two(grid, n, capsys, monkeypatch):
    # log N is not positive below N = 2 (a math domain error at N <= 0)
    monkeypatch.setattr(harness, "optimize_cutoff", _unreachable)
    code, out, err = run_cli(["experiment", "sieve-compare", "--grid", grid], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: sieve-compare needs N >= 2, got {n}\n"


def test_cli_sieve_compare_refuses_a_bound_below_the_truth(capsys, monkeypatch, tmp_path):
    # one class at every prime makes the bound (-log N + sum log p) / itself = 1
    monkeypatch.setattr(harness, "square_classes", lambda m, p: 1)
    out_file = tmp_path / "rows.csv"
    for extra in ([], ["--out", str(out_file)]):
        code, out, err = run_cli(["experiment", "sieve-compare", "--grid", "100"] + extra, capsys)
        assert (code, out) == (EXIT_COUNTEREXAMPLE, "")
        assert err == ("counterexample: sieve-compare bound 1.0 at y = 530 is below the "
                       "10 squares up to 100\n")
    assert not out_file.exists()


@pytest.mark.parametrize("tau, shown", [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"),
                                        ("inf", "inf"), ("1e-200", "1e-200")])
def test_cli_sieve_compare_rejects_bad_tau(tau, shown, capsys):
    code, out, err = run_cli(["experiment", "sieve-compare", "--grid", "2", "--tau", tau], capsys)
    assert code == EXIT_USAGE and out == ""
    # 1e-200 is finite and positive, but (20/tau)^2 overflows a float
    problem = ("too small: the cutoff (20/tau)^2 (log N)^2 overflows" if tau == "1e-200"
               else "must be finite and positive")
    assert err == f"error: tau {problem}, got {shown}\n"


@pytest.mark.parametrize("argv", [
    ["cube-search", "--set", "squareful", "--limit", "100", "--budget", "-5"],
    ["cube-search", "--set", "squareful", "--limit", "100", "--mode", "greedy", "--budget", "-5"],
    ["experiment", "f2", "--grid", "10,100", "--budget", "-1"],
])
def test_cli_rejects_negative_budget(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: node budget must be >= 0, got {argv[-1]}\n"


_SCHWARZWALD = ["schwarzwald", "--p", "7", "--ell", "2"]
_ALL_RESIDUES = ["--a0", "0", "--elements", "0,1,2,3,4,5,6,7,8"]


@pytest.mark.parametrize("argv, expected", [
    (["olson", "--p", "7", "--elements", "1,2,3", "--target", "6"],
     "indices,sum,facts\n0+1+2,6,7==6\n"),
    (["olson", "--p", "7", "--elements", "1,2,3", "--target", "0"], "NOTFOUND\n"),
    (["liftzero", "--p", "7", "--m", "4", "--elements", "7,14,21"],
     "indices,sum,facts\n0,7,7==0|28!=0\n"),
    (["liftzero", "--p", "7", "--m", "4", "--elements", "1"], "NOTFOUND\n"),
    (_SCHWARZWALD + _ALL_RESIDUES + ["--strategy", "direct"],
     "indices,sum,facts\n1+2+3+4+5+6,21,7==0|49!=0\n"),
    (_SCHWARZWALD + _ALL_RESIDUES + ["--strategy", "paper"],
     "indices,sum,facts\n0+7,7,7==0|49!=0\n"),
    (_SCHWARZWALD + ["--a0", "3", "--elements", "7"], "NOTFOUND\n"),
])
def test_cli_witness_bytes(argv, expected, capsys, tmp_path):
    # stdout and --out carry the same bytes: one trailing newline, no more
    assert run_cli(argv, capsys) == (EXIT_OK, expected, "")
    target = tmp_path / "witness.csv"
    assert run_cli(argv + ["--out", str(target)], capsys) == (EXIT_OK, "", "")
    assert target.read_bytes() == expected.encode()


@pytest.mark.parametrize("family, mode, expected", [
    ("1,2\n1,3\n1,4\n", "exact", "kernel,petals\n1,0+1+2\n"),
    ("1,2\n1,3\n1,4\n", "greedy", "kernel,petals\n1,0+1+2\n"),
    ("1,2\n1,3\n2,3\n", "exact", "NOTFOUND,absence-proven\n"),
    ("1,2\n1,3\n2,3\n", "greedy", "NOTFOUND,greedy-inconclusive\n"),
])
def test_cli_sunflower_bytes(family, mode, expected, capsys, tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text(family)
    argv = ["sunflower", "--family-file", str(fam), "--petals", "3", "--mode", mode]
    assert run_cli(argv, capsys) == (EXIT_OK, expected, "")


@pytest.mark.parametrize("elements, limit, expected", [
    ("1,2,3,4", "7", "g,target\n2,5\n"),
    ("5,6", "3", "g,target\n0,-\n"),
])
def test_cli_repcount_bytes(elements, limit, expected, capsys):
    argv = ["repcount", "--elements", elements, "--h", "2", "--limit", limit]
    assert run_cli(argv, capsys) == (EXIT_OK, expected, "")


@pytest.mark.parametrize("limit", [10**8 + 1, 10**11])
@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_cli_cube_search_refuses_huge_limit(limit, mode, capsys, monkeypatch):
    # refused by greedy before it enumerates a member or builds the bitset
    # of limit/8 bytes, and by the exact search once squareful's pair count
    # passes the cap, since a base listing without the table does O(|A|)
    # work per candidate
    table = "the cube search bitset"
    if mode == "greedy":
        monkeypatch.setattr(cube, "enumerate_members", _unreachable)
    else:
        table = "the cube search without its pair table"
    monkeypatch.setattr(cube, "bitset", _unreachable)
    argv = ["cube-search", "--set", "squareful", "--limit", str(limit), "--mode", mode]
    assert run_cli(argv, capsys) == (
        EXIT_USAGE, "", f"error: limit N = {limit} is too large for {table} (max 10**8)\n",
    )


def test_cli_scan_past_the_bitset_cap_keeps_its_truncated_row(capsys, monkeypatch):
    # the exact search runs on pair lists past 10**8; once its budget runs
    # out, the row is its floor, since the greedy probe's bitset would not fit
    monkeypatch.setattr(cube, "bitset", _unreachable)
    argv = ["experiment", "f1", "--r", "4", "--primes", "all", "--grid", "1000000000",
            "--budget", "1000"]
    assert run_cli(argv, capsys) == (
        EXIT_OK,
        (GOLDEN / "experiment_f1_rfull4_1e9_budget.csv").read_text(encoding="utf-8"), "",
    )


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--set", "quadform:1,0,1", "--limit", "100000000000"],
     "limit N = 100000000000 is too large for the form's value table (max 10**8)"),
    (["enumerate", "--set", "rfull:2,inert:1,1,1", "--limit", "100000001"],
     "limit N = 100000001 is too large for the r-full sieve table (max 10**8)"),
    (["enumerate", "--set", "semigroup:class:1,4", "--limit", "100000001"],
     "limit N = 100000001 is too large for the prime sieve table (max 10**8)"),
    (["ap-max", "--set", "rfull:2,inert:1,1,1", "--limit", "100000001"],
     "limit N = 100000001 is too large for the r-full sieve table (max 10**8)"),
    # the exact search enumerates before it picks a route, so a dense set's
    # own table guard refuses it
    (["cube-search", "--set", "semigroup:class:1,4", "--limit", "200000000"],
     "limit N = 200000000 is too large for the prime sieve table (max 10**8)"),
    # 2 * 10^9 + 1 values of x, one isqrt each, would take many minutes
    (["membership", "--set", "quadform:1,0,1", "--n", str(10**18 + 7)],
     "limit N = 2000000001 is too large for the form's scan over x (max 10**8)"),
    # about 2 * 10**10 members: the list alone grows until memory runs out
    (["enumerate", "--set", "squareful", "--limit", str(10**20)],
     "limit N = 100000000000000000000 is too large for the squareful enumeration (max 10**12)"),
    (["enumerate", "--set", "purepowers", "--limit", str(10**20)],
     "limit N = 100000000000000000000 is too large for the pure-power enumeration "
     "(max 10**12)"),
    # ap-max builds no table of its own: each set's enumeration guard refuses
    (["ap-max", "--set", "squareful", "--limit", str(10**13)],
     "limit N = 10000000000000 is too large for the squareful enumeration (max 10**12)"),
])
def test_cli_refuses_limit_too_large(argv, message, capsys, monkeypatch):
    # each path builds a limit-byte table or runs a limit-step loop; the step
    # after each guard is made to fail, so nothing is allocated or looped over
    monkeypatch.setattr(arithsets, "bytearray", _unreachable, raising=False)
    monkeypatch.setattr(arithsets, "range", _unreachable, raising=False)
    monkeypatch.setattr(primes, "bytearray", _unreachable, raising=False)
    with _deadline(1.0):
        assert run_cli(argv, capsys) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, first, last", [
    (["enumerate", "--set", "rfull:3,all", "--limit", "100000001"], "1", "100000000"),
    (["ap-max", "--set", "rfull:2,all", "--limit", "10000000000"],
     "10000000000,12,5336100", "10000000000,12,5336100"),
])
def test_cli_rfull_over_all_primes_passes_the_table_cap(argv, first, last, capsys):
    # r-full sets over all primes walk their members, with no table of one
    # byte per integer, so they answer past 10**8
    code, out, err = run_cli(argv, capsys)
    rows = out.splitlines()
    assert (code, err, rows[1], rows[-1]) == (EXIT_OK, "", first, last)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a call still running after `seconds`: a loop past its guard that
    makes no call the test can patch then fails the test, not hangs it."""
    def expire(signum, frame):
        raise AssertionError("ran past the size guard")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("s", [Squareful(), PurePowers(), RFull(3, PrimeSet.all_primes())])
def test_sparse_enumeration_bound_is_inclusive(s, monkeypatch):
    # a limit of 10**12 passes the guard and reaches the loop; one more does not
    monkeypatch.setattr(arithsets, "range", _unreachable, raising=False)
    with pytest.raises(AssertionError, match="past the size guard"):
        s.members_up_to(10**12)
    with pytest.raises(ValueError, match=r"\(max 10\*\*12\)$"):
        s.members_up_to(10**12 + 1)


@pytest.mark.parametrize("command", [
    ["enumerate"], ["ap-max"],
    ["cube-search", "--mode", "exact"], ["cube-search", "--mode", "greedy"],
], ids=["enumerate", "ap-max", "cube-search-exact", "cube-search-greedy"])
def test_product_walk_bound_is_inclusive(command, capsys, monkeypatch):
    # semigroup:list:2,3 has 20 members up to 100 and a 21st, 108: a walk of
    # exactly the cap answers, one more member is refused in one line
    monkeypatch.setattr(arithsets, "_MAX_PRODUCTS", 20)
    argv = [*command, "--set", "semigroup:list:2,3", "--limit"]
    code, out, err = run_cli(argv + ["107"], capsys)
    assert (code, err) == (EXIT_OK, "") and out
    assert run_cli(argv + ["108"], capsys) == (
        EXIT_USAGE, "",
        "error: limit N = 108 is too large for the semigroup:list:2,3 enumeration "
        "(past 20 members)\n",
    )


def test_cli_out_of_memory_is_one_line(capsys, monkeypatch):
    def exhausted(s, limit):
        raise MemoryError

    monkeypatch.setattr(harness, "enumerate_members", exhausted)
    assert run_cli(["enumerate", "--set", "squareful", "--limit", "100"], capsys) == (
        EXIT_USAGE, "", "error: out of memory running enumerate\n")


def test_cli_cube_verify_past_the_sums_cap(capsys):
    # d = 40 answers now; the 2^40 sums with multiplicity were refused before
    argv = ["cube-verify", "--a0", "0", "--steps", ",".join(["1"] * 40),
            "--set", "semigroup:all", "--limit"]
    assert run_cli(argv + ["40"], capsys) == (EXIT_OK, "verified\n", "")
    assert run_cli(argv + ["39"], capsys) == (EXIT_OK, "offender:40\n", "")


def test_cli_cube_verify_refuses_a_huge_walk(capsys):
    argv = ["cube-verify", "--a0", "1", "--steps", ",".join(str(1 << k) for k in range(40)),
            "--set", "squareful", "--limit", str(1 << 41)]
    assert run_cli(argv, capsys) == (
        EXIT_USAGE, "",
        "error: refusing to verify a cube of dimension 40: its sums may exceed 4194304 "
        "(the verify walk cap)\n",
    )


def _corrupt(monkeypatch, name, fault):
    """Replace harness.<name> by the real finder followed by `fault`."""
    real = getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *a, **kw: fault(real(*a, **kw)))


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_cli_cube_search_rechecks_its_witness(mode, capsys, monkeypatch):
    finder = "max_dimension_exact" if mode == "exact" else "max_dimension_greedy"
    _corrupt(monkeypatch, finder,
             lambda res: dataclasses.replace(res, witness=HilbertCube(1, (7, 23))))
    argv = ["cube-search", "--set", "squareful", "--limit", "32", "--mode", mode]
    assert run_cli(argv, capsys) == (
        EXIT_COUNTEREXAMPLE, "", "counterexample: cube-search witness H(1;7+23) fails at 24\n")


def test_cli_ap_max_rechecks_its_progression(capsys, monkeypatch):
    # 900, 1800, ..., 5400 are squareful, 6300 = 900 * 7 is not
    _corrupt(monkeypatch, "max_homogeneous_ap", lambda res: (res[0] + 1, res[1]))
    argv = ["ap-max", "--set", "squareful", "--limit", "100000"]
    assert run_cli(argv, capsys) == (
        EXIT_COUNTEREXAMPLE, "",
        "counterexample: ap-max progression of step 900 and length 7 fails at 6300\n",
    )


@pytest.mark.parametrize("argv, finder, indices", [
    (["olson", "--p", "7", "--elements", "1,2,3", "--target", "6"], "subset_sum_find", "1+1+2"),
    (["liftzero", "--p", "7", "--m", "4", "--elements", "7,14,21"], "find_lift_zero", "1"),
    (_SCHWARZWALD + _ALL_RESIDUES, "schwarzwald", "2+2+3+4+5+6"),
])
def test_cli_witness_commands_revalidate(argv, finder, indices, capsys, monkeypatch):
    # the uncorrupted witnesses are pinned in test_cli_witness_bytes
    _corrupt(monkeypatch, finder, flip_first_index)
    assert run_cli(argv, capsys) == (
        EXIT_COUNTEREXAMPLE, "",
        f"counterexample: {argv[0]} witness {indices} fails re-validation\n",
    )


def test_cli_sunflower_revalidates(capsys, monkeypatch, tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("1,2\n1,3\n1,4\n")
    _corrupt(monkeypatch, "find_sunflower",
             lambda w: SunflowerWitness(frozenset({2}), w.petal_indices))
    argv = ["sunflower", "--family-file", str(fam), "--petals", "3"]
    assert run_cli(argv, capsys) == (
        EXIT_COUNTEREXAMPLE, "", "counterexample: sunflower witness 0+1+2 fails re-validation\n")


def test_cli_schwarzwald_names_a_huge_modulus_by_its_digits(capsys):
    # q = 7^2000 has 1,691 decimal digits; the direct strategy names it by p
    # and ell, refused before the power is built
    argv = ["schwarzwald", "--p", "7", "--ell", "2000", "--a0", "1", "--elements", "1,2,3"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("error: modulus q = 7^2000 is too large for the reachability DP "
                   "(max 10**7)\n")
    assert len(err) < 200


@pytest.mark.parametrize("strategy, message", [
    ("direct", "modulus q = 7^100000 is too large for the reachability DP (max 10**7)"),
    ("paper", "step A1: need 7 distinct residues mod 7, have 3"),
])
def test_cli_schwarzwald_refuses_a_huge_ell_at_once(strategy, message, capsys):
    # the exponent of q = 7^100000 comes from one logarithm and one power,
    # not from 100,000 divisions of a number of up to 84,510 digits each
    argv = ["schwarzwald", "--p", "7", "--ell", "100000", "--a0", "1", "--elements", "1,2,3",
            "--strategy", strategy]
    start = time.perf_counter()
    assert run_cli(argv, capsys) == (EXIT_USAGE, "", f"error: {message}\n")
    assert time.perf_counter() - start < 5


def test_cli_schwarzwald_direct_refuses_before_the_power(capsys):
    # 7^(10^7 - 1) took 19.4 s to build before the DP cap refused it
    argv = ["schwarzwald", "--p", "7", "--ell", "10000000", "--a0", "1", "--elements", "1,2,3"]
    start = time.perf_counter()
    assert run_cli(argv, capsys) == (
        EXIT_USAGE, "",
        "error: modulus q = 7^10000000 is too large for the reachability DP (max 10**7)\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p, err", [
    ("7", "error: step A1: need 7 distinct residues mod 7, have 3\n"),
    ("4", "error: 4 is not prime\n"),
])
def test_cli_schwarzwald_paper_checks_step_a1_before_the_modulus(p, err, capsys, monkeypatch):
    # step A1 reads only the residues mod p, so it refuses before the
    # cofactor p^2999999 and its Modulus are built
    monkeypatch.setattr(harness, "Modulus", _unreachable)
    argv = ["schwarzwald", "--p", p, "--ell", "3000000", "--a0", "1", "--elements", "1,2,3",
            "--strategy", "paper"]
    assert run_cli(argv, capsys) == (EXIT_USAGE, "", err)


_PAPER_A1_PASSES = ["schwarzwald", "--p", "7", "--a0", "5", "--elements", "0,1,2,3,4,5,6,8",
                    "--strategy", "paper"]


@pytest.mark.parametrize("ell, digits", [("5200", 4395), ("1000000000", 845098041)])
def test_cli_schwarzwald_paper_refuses_an_unprintable_modulus(ell, digits, capsys, monkeypatch):
    # step A1 passes, and the certificate would print q = 7^ell: its digits
    # come from p and ell, before the cofactor and its Modulus are built
    monkeypatch.setattr(harness, "Modulus", _unreachable)
    monkeypatch.setattr(harness.sys, "get_int_max_str_digits", lambda: 4300)  # Python's default
    err = (f"error: modulus q = 7^{ell} has {digits} digits; a certificate prints at most 4300 "
           "(Python's int-to-str limit)\n")
    start = time.perf_counter()
    assert run_cli(_PAPER_A1_PASSES + ["--ell", ell], capsys) == (EXIT_USAGE, "", err)
    assert time.perf_counter() - start < 1


def test_cli_schwarzwald_paper_prints_a_long_modulus(capsys):
    q = 7**5000  # 4,226 digits, under the default limit of 4,300
    out = f"indices,sum,facts\n2,2,7==2|{q}!={q - 5}\n"
    assert run_cli(_PAPER_A1_PASSES + ["--ell", "5000"], capsys) == (EXIT_OK, out, "")


@pytest.mark.parametrize("p, ell, err", [
    # 2^24 > 10^7 >= 2^23: every ell >= 24 is refused from p and ell alone
    ("2", "23", ""),
    ("2", "24", "error: modulus q = 2^24 is too large for the reachability DP (max 10**7)\n"),
    # below ell = 24 the DP names q itself, as before
    ("7", "9", "error: modulus q = 40353607 is too large for the reachability DP (max 10**7)\n"),
    ("4", "10000000", "error: 4 is not prime\n"),
])
def test_cli_schwarzwald_direct_cap_from_p_and_ell(p, ell, err, capsys):
    argv = ["schwarzwald", "--p", p, "--ell", ell, "--a0", "1", "--elements", "1,2,3"]
    code, _, got = run_cli(argv, capsys)
    assert (code, got) == (EXIT_USAGE if err else EXIT_OK, err)
