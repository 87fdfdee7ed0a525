"""CLI: exit codes, report schema, format rendering, determinism."""

import argparse
import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bihindex import cli, reduced
from bihindex.cli import (
    CHECK_MATRICES_K_LIMIT,
    COMMANDS,
    SPECTRUM_K_DIGITS,
    DESCARTES_RANGE_LIMIT,
    EXACT_INPUT_DIGITS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    INDEX_K_LIMIT,
    LAMBDA_MAX_LIMIT,
    SCAN_K_LIMIT,
    UsageError,
    build_parser,
    main,
)
from bihindex.legendre import CharpolyMismatchError
from bihindex.torus import interior_sign_scan

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_torus_index_report(capsys):
    code, out = run_cli(capsys, "torus", "index", "--k", "2", "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["schema"] == 2
    assert set(report) >= {"schema", "command", "inputs", "results", "paper_anchor"}
    assert report["results"]["index"] == 13
    assert report["results"]["nullity"] == 5
    assert report["results"]["negative_runs"] == [[1, 1, 1], [2, 1, 1]]
    assert report["results"]["zero_pairs"] == []
    assert "negative_pairs" not in report["results"]


def test_torus_index_runs_expand_to_the_oracle_pairs(capsys):
    code, out = run_cli(capsys, "torus", "index", "--k", "155", "--format", "json")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    runs = results["negative_runs"]
    f, _, neg, zero = interior_sign_scan(155)
    assert [(m, n) for m, n_lo, n_hi in runs for n in range(n_lo, n_hi + 1)] == neg
    assert sum(n_hi - n_lo + 1 for _, n_lo, n_hi in runs) == f == results["f"] == 22176
    assert results["zero_pairs"] == zero == []


def test_legendre_verify_exit_codes(capsys, monkeypatch):
    code, out = run_cli(capsys, "legendre", "verify", "--m", "1", "--n", "1")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["matched"] is True

    def mismatch(m, n):
        raise CharpolyMismatchError(3, 7, 8)

    monkeypatch.setattr(cli, "verify_p5_factorization", mismatch)
    detail = "charpoly coefficient of x^3: expected 7, got 8"
    argv = ["legendre", "verify", "--m", "2", "--n", "3", "--format"]
    code, out = run_cli(capsys, *argv, "json")
    assert code == EXIT_VERIFICATION
    rep = json.loads(out)
    assert rep["inputs"] == {"m": 2, "n": 3}
    assert rep["results"] == {
        "matched": False,
        "detail": detail,
        "csv_header": ["m", "n", "matched", "detail"],
        "csv_rows": [[2, 3, False, detail]],
    }
    # every format prints the mismatch and exits 2, none a usage error
    code, out = run_cli(capsys, *argv, "csv")
    assert code == EXIT_VERIFICATION
    assert list(csv.reader(io.StringIO(out))) == [
        ["m", "n", "matched", "detail"], ["2", "3", "False", detail]]
    code, out = run_cli(capsys, *argv, "md")
    assert code == EXIT_VERIFICATION
    assert f"| 2 | 3 | False | {detail} |" in out.splitlines()


def test_reduced_bessel_exits_two_when_the_proof_fails(capsys, monkeypatch):
    right = reduced.bessel_side_coefficient
    monkeypatch.setattr(reduced, "bessel_side_coefficient", lambda j: right(j) * j)
    code, out = run_cli(capsys, "reduced", "bessel", "--format", "json")
    assert code == EXIT_VERIFICATION
    results = json.loads(out)["results"]
    assert (results["ratio_proved"], results["all_ok"]) == (False, False)


def test_noncompact_counterexample_window(capsys):
    code, out = run_cli(capsys, "noncompact", "counterexample")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert -3.547 <= rep["results"]["value"] <= -3.527
    assert rep["results"]["within_window"] is True
    assert rep["results"]["value_exact"].startswith("2079/262144*pi^9 - ")


def test_usage_errors_exit_one(capsys):
    assert main(["torus", "index"]) == EXIT_USAGE          # missing --k
    assert main(["torus", "index", "--k", "0"]) == EXIT_USAGE
    assert main(["nosuch"]) == EXIT_USAGE
    assert main(["reduced", "sphere", "--n-dim", "2", "--radius", "x"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["torus", "spectrum", "--k", "2", "--lambda-max", "-5"],
        ["noncompact", "stable", "--phase", "0,0,1,0"],
        ["noncompact", "hessian", "--phase", "0,0,1,0"],
        ["torus", "scan", "--k-max", "3", "--workers", "-4"],
        ["torus", "index", "--k", "3", "--workers", "0"],
        ["torus", "scan", "--k-max", "0"],
        ["circle", "index", "--k", "0"],
        ["reduced", "torus", "--k", "0"],
        ["torus", "spectrum", "--k", "0"],
        ["legendre", "verify", "--m", "0", "--n", "1"],
        ["torus", "index", "--k", "x"],
        # a removed flag is rejected, not silently accepted
        ["torus", "scan", "--k-max", "3", "--cache-dir", "D"],
        # too large for a float square root, and far above the cap
        ["torus", "spectrum", "--k", "2", "--lambda-max", str(10**400)],
        # the default level 4*k^2 = 1004004 is above the cap too
        ["torus", "spectrum", "--k", "501"],
        # more workers than CPUs; rejected while parsing, so no process starts
        ["torus", "scan", "--k-max", "3", "--workers", str((os.cpu_count() or 1) + 1)],
        # about 0.057 ms per pair: 10^8 x 50 would run for three days
        ["legendre", "descartes", "--m", str(10**8), "--n", "50"],
        ["legendre", "descartes", "--m", "50", "--n", str(DESCARTES_RANGE_LIMIT + 1)],
        # too large for a float, or for the quadrature to converge
        ["noncompact", "hessian", "--phase", "1e400,0,1,0"],
        ["noncompact", "hessian", "--phase", "1e200,0,1,0"],
        ["noncompact", "hessian", "--phase", "0,1e200,0,0"],
        # about 0.45 ms per unit of k: 10^9 would run for days
        ["circle", "index", "--k", str(10**9), "--check-matrices"],
        ["circle", "index", "--k", str(CHECK_MATRICES_K_LIMIT + 1), "--check-matrices"],
        # --workers belongs to torus scan and torus index only
        ["legendre", "index", "--workers", "1"],
        # exact strings of more than 4300 digits cannot be printed
        ["reduced", "sphere", "--n-dim", "5", "--radius", "1e-2000"],
        ["reduced", "ellipsoid", "--n-dim", "5", "--radius", "1", "--b", "1e-3000"],
        ["noncompact", "stable", "--phase", "1e5000,0,1,0"],
        ["noncompact", "stable", "--phase", "1e-5000,1,1,0"],
        ["reduced", "sphere", "--n-dim", str(10**2500), "--radius", "1"],
        ["reduced", "sphere", "--n-dim", str(10**EXACT_INPUT_DIGITS), "--radius", "1"],
        ["noncompact", "hessian", "--phase", f"1/{10**EXACT_INPUT_DIGITS},1,1,0"],
        # Fraction would build 10^(10^12) before any digit check
        ["reduced", "sphere", "--n-dim", "5", "--radius", "1e-1000000000000"],
        # one above each cap on the torus runs
        ["torus", "index", "--k", str(INDEX_K_LIMIT + 1)],
        ["torus", "scan", "--k-max", str(SCAN_K_LIMIT + 1)],
        ["torus", "spectrum", "--k", "2", "--lambda-max", str(LAMBDA_MAX_LIMIT + 1)],
        # a quintic coefficient of 4300+ digits cannot be printed
        ["legendre", "verify", "--m", str(10**215), "--n", "1"],
        # float(-k^4) would overflow
        ["torus", "spectrum", "--k", str(10**78), "--lambda-max", "0"],
        # one digit above each label bound
        ["legendre", "verify", "--m", "1", "--n", str(10**EXACT_INPUT_DIGITS)],
        ["torus", "spectrum", "--k", str(10**SPECTRUM_K_DIGITS), "--lambda-max", "1"],
        ["circle", "index", "--k", str(10**EXACT_INPUT_DIGITS)],
        ["reduced", "torus", "--k", str(10**EXACT_INPUT_DIGITS)],
        # an index of about 2k with 4300 digits cannot be printed
        ["circle", "index", "--k", "9" * 4300],
        ["reduced", "torus", "--k", "9" * 4300],
        # one below each lower bound that is not 1
        ["legendre", "descartes", "--m", "2"],
        ["legendre", "descartes", "--n", "2"],
        ["reduced", "sphere", "--n-dim", "1", "--radius", "1"],
        # past int()'s 4300-digit limit: the diagnostic names the cap, not the digits
        ["circle", "index", "--k", "9" * 5000],
        ["torus", "index", "--k", "-" + "9" * 5000],
        ["torus", "index", "--k", "-" + "9" * 4300],
        ["torus", "index", "--k", "x" * 5000],
        ["torus", "spectrum", "--k", "2", "--lambda-max", "9" * 5000],
        ["torus", "spectrum", "--k", "2", "--lambda-max", "-1"],
        # the default level 4*k^2 of the largest --k
        ["torus", "spectrum", "--k", str(10**SPECTRUM_K_DIGITS - 1)],
        # every quoted argument is cut to ECHO_BYTES, argparse's messages too,
        # counted in UTF-8 bytes, not characters
        ["reduced", "sphere", "--n-dim", "5", "--radius", "x" * 5000],
        ["reduced", "sphere", "--n-dim", "5", "--radius", "1e" + "9" * 5000],
        ["torus", "index", "--k", "3", "--format", "x" * 3000],
        ["torus", "index", "--k", "3", "x" * 3000],
        ["torus", "index", "--k", "3", *["x"] * 3000],
        ["torus", "index", "--k", "3", *["\u00e9\u00e9\u00e9"] * 300],
        ["torus", "index", "--k", "3", "--format", "\U0001f600" * 3000],
        # inside the digit bound, but the form overflows a float
        ["noncompact", "hessian", "--phase", ",".join(["9" * EXACT_INPUT_DIGITS] * 4)],
        # repr escapes a control character in 4 bytes, so the quoted form is cut,
        # at each of the four sites that quote a rational or a phase
        ["reduced", "sphere", "--n-dim", "5", "--radius", "\x01" * 5000],
        ["noncompact", "stable", "--phase", "\x01" * 5000 + ",1,1,1"],
        ["reduced", "sphere", "--n-dim", "5", "--radius", "1e" + "\x01" * 5000],
        ["noncompact", "stable", "--phase", "\x1c" * 5000 + "0,0,1,0"],
        ["noncompact", "hessian", "--phase",
         "\x1c" * 5000 + ",".join(["9" * EXACT_INPUT_DIGITS] * 4)],
        # an empty value is given, not absent
        ["noncompact", "stable", "--phase", ""],
        ["noncompact", "hessian", "--phase", ""],
        ["torus", "index", "--k", "2", "--output", ""],
    ],
)
def test_boundary_inputs_give_one_line_diagnostics(capsys, argv):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err.encode()) < 200
    assert captured.err.startswith("bihindex: error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["reduced", "sphere", "--n-dim", "5", "--radius", "1e-90"],
        ["reduced", "ellipsoid", "--n-dim", "5", "--radius", "1e-90", "--b", "1"],
    ],
)
def test_tiny_radius_reports(capsys, argv):
    # the threshold c4 = 16 * 10^360 = (2 * 10^90)^4 overflows a float; its
    # fourth root is taken in integers and the tie gives nullity 2
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert (results["index"], results["nullity"]) == (4 * 10**90 - 1, 2)


_BIG = [str(10**EXACT_INPUT_DIGITS - d) for d in (1, 3, 7, 9)]  # the largest allowed, coprime


@pytest.mark.parametrize(
    "argv",
    [
        ["noncompact", "hessian", "--phase", ",".join(f"1/{b}" for b in _BIG)],
        ["noncompact", "stable", "--phase", ",".join(f"{a}/{b}" for a, b in zip(_BIG, _BIG[::-1]))],
        ["reduced", "ellipsoid", "--n-dim", _BIG[0], "--radius", f"1/{_BIG[1]}",
         "--b", f"1/{_BIG[2]}"],
        ["reduced", "sphere", "--n-dim", _BIG[0], "--radius", f"1/{_BIG[1]}"],
        ["legendre", "verify", "--m", _BIG[0], "--n", _BIG[1]],
        ["circle", "index", "--k", _BIG[0]],
        ["reduced", "torus", "--k", _BIG[0]],
        # every float of the report is finite at the largest torus spectrum --k
        ["torus", "spectrum", "--k", str(10**SPECTRUM_K_DIGITS - 1), "--lambda-max", "50"],
    ],
)
def test_largest_exact_inputs_report(capsys, argv):
    # at the digit bounds every exact string of the report can still be printed
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["command"] == " ".join(argv[:2])


def test_reports_are_deterministic(capsys):
    runs = [
        run_cli(capsys, "torus", "index", "--k", "5", "--format", "json")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    runs = [
        run_cli(capsys, "reduced", "bessel", "--format", "csv")[1] for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_csv_and_md_formats(capsys):
    _, out = run_cli(capsys, "torus", "scan", "--k-max", "4", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "k,f,g,index,nullity"
    assert lines[1] == "1,0,0,1,5"
    assert lines[4] == "4,11,0,57,5"
    _, out = run_cli(capsys, "torus", "scan", "--k-max", "3", "--format", "md")
    assert "| k | f | g | index | nullity |" in out
    assert "| 3 | 5 | 0 | 29 | 5 |" in out
    _, out = run_cli(capsys, "torus", "scan", "--k-max", "3", "--format", "json")
    assert json.loads(out)["inputs"] == {"k_max": 3, "workers": 1}


# one golden per command; each runs in a directory holding report.json, the
# torus index --k 2 report, so that torus check reads a stable relative path
GOLDENS = [
    ("torus_index_k2.json", ["torus", "index", "--k", "2", "--format", "json"]),
    ("circle_index_k3.csv", ["circle", "index", "--k", "3", "--format", "csv"]),
    ("legendre_index.md", ["legendre", "index", "--format", "md"]),
    ("noncompact_stable.csv", ["noncompact", "stable", "--format", "csv"]),
    ("reduced_sphere_n5.json",
     ["reduced", "sphere", "--n-dim", "5", "--radius", "1", "--format", "json"]),
    ("legendre_verify_m3_n2.json",
     ["legendre", "verify", "--m", "3", "--n", "2", "--format", "json"]),
    ("circle_index_k45_check.json",
     ["circle", "index", "--k", "45", "--check-matrices", "--format", "json"]),
    ("noncompact_hessian.json", ["noncompact", "hessian", "--format", "json"]),
    ("noncompact_counterexample.json", ["noncompact", "counterexample", "--format", "json"]),
    ("reduced_conformal.json", ["reduced", "conformal", "--format", "json"]),
    ("reduced_bessel.json", ["reduced", "bessel", "--format", "json"]),
    ("torus_spectrum_k2_lam8.json",
     ["torus", "spectrum", "--k", "2", "--lambda-max", "8", "--format", "json"]),
    ("torus_scan_k6.md", ["torus", "scan", "--k-max", "6", "--format", "md"]),
    ("torus_check_k2.json", ["torus", "check", "report.json", "--format", "json"]),
    ("legendre_descartes_m4_n3.json",
     ["legendre", "descartes", "--m", "4", "--n", "3", "--format", "json"]),
    ("reduced_ellipsoid_n5_b2.json",
     ["reduced", "ellipsoid", "--n-dim", "5", "--radius", "1", "--b", "2", "--format", "json"]),
    ("reduced_torus_k3.csv", ["reduced", "torus", "--k", "3", "--format", "csv"]),
]


@pytest.mark.parametrize("name,argv", GOLDENS)
def test_golden_reports_byte_exact(capsys, monkeypatch, tmp_path, name, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["torus", "index", "--k", "2", "--output", "report.json"]) == EXIT_OK
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_every_command_has_a_golden():
    assert {tuple(argv[:2]) for _, argv in GOLDENS} == set(COMMANDS)


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_parser_subcommands_are_the_command_table():
    parsed = {
        (group, command)
        for group, sub in _subcommands(build_parser()).items()
        for command in _subcommands(sub)
    }
    assert parsed == set(COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        ["torus", "index", "--k", str(INDEX_K_LIMIT + 1)],
        ["torus", "scan", "--k-max", str(SCAN_K_LIMIT + 1)],
        ["torus", "spectrum", "--k", str(10**SPECTRUM_K_DIGITS)],
        ["legendre", "verify", "--m", "1", "--n", str(10**EXACT_INPUT_DIGITS)],
        ["legendre", "descartes", "--m", "2"],
        ["legendre", "descartes", "--n", str(DESCARTES_RANGE_LIMIT + 1)],
        ["reduced", "sphere", "--n-dim", "1", "--radius", "1"],
        ["reduced", "ellipsoid", "--n-dim", str(10**EXACT_INPUT_DIGITS), "--radius", "1",
         "--b", "1"],
    ],
)
def test_fixed_caps_are_refused_while_parsing(argv):
    with pytest.raises(UsageError):
        build_parser().parse_args(argv)


def test_circle_index_answers_any_k_without_the_matrix_check(capsys):
    k = CHECK_MATRICES_K_LIMIT + 1
    code, out = run_cli(capsys, "circle", "index", "--k", str(k))
    assert code == EXIT_OK
    assert json.loads(out)["results"]["index"] == 2 * k - 1


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "torus", "index", "--k", "1", "--output", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["results"]["index"] == 1


@pytest.mark.parametrize(
    "target", ["missing/dir/r.json", "."], ids=["missing-parent", "a-directory"]
)
def test_unwritable_output_gives_one_line_diagnostic(tmp_path, capsys, target):
    path = tmp_path / target
    assert main(["torus", "index", "--k", "3", "--output", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bihindex: error: cannot write --output {path}: ")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


def test_phase_flag_parsing(capsys):
    code, out = run_cli(
        capsys, "noncompact", "stable", "--phase", "1,0,-2,0", "--format", "json"
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["results"]["phases"][0]["stability"] == "not-certified"
    assert rep["results"]["phases"][0]["integrand_min"] == "-24"
    assert main(["noncompact", "stable", "--phase", "1,2"]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_import_loads_no_numpy():
    # nor what no command needs at start-up: the process pool, which only
    # torus scan --workers > 1 imports, and dataclasses with its inspect.
    # Compared with a bare interpreter in the same environment, so that
    # modules that the interpreter or its site hooks load do not count
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def modules(setup: str) -> set[str]:
        code = f"import sys; {setup}; print(' '.join(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    loaded = modules("import bihindex.cli; bihindex.cli.build_parser()") - modules("pass")
    assert "bihindex.cli" in loaded
    banned = {"numpy", "dataclasses", "inspect", "multiprocessing", "concurrent.futures.process"}
    assert sorted(m for m in loaded if m in banned or m.partition(".")[0] in banned) == []


def test_src_imports_no_random_numpy_or_scipy():
    # the package runs on the standard library and is deterministic; a static
    # walk also sees imports inside functions, and random, which tempfile
    # loads at start-up anyway.  dataclasses (with inspect, ast and dis) costs
    # about a fifth of a fresh CLI start: records are NamedTuples
    banned = {"random", "numpy", "scipy", "dataclasses"}
    src = Path(cli.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.partition(".")[0] in banned]
    assert len(list(src.glob("*.py"))) > 10
    assert found == []


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    cpus = str(os.cpu_count() or 1)
    assert main(["torus", "scan", "--k-max", "3", "--workers", "0"]) == EXIT_USAGE
    target = tmp_path / "r.json"
    argv = ["torus", "index", "--k", "3", "--workers", cpus, "--format", "csv"]
    assert main(argv + ["--output", str(target)]) == EXIT_OK
    assert target.read_text().startswith("k,f,g,index,nullity\n")
    capsys.readouterr()
    code, out = run_cli(capsys, "torus", "scan", "--k-max", "3")
    assert code == EXIT_OK
    assert json.loads(out)["inputs"] == {"k_max": 3, "workers": 1}


def test_goldens_repeat_byte_exact_in_one_process(capsys, monkeypatch, tmp_path):
    # the second pass runs in reverse order, so no call depends on the one before
    monkeypatch.chdir(tmp_path)
    assert main(["torus", "index", "--k", "2", "--output", "report.json"]) == EXIT_OK
    for name, argv in GOLDENS + GOLDENS[::-1]:
        assert run_cli(capsys, *argv) == (EXIT_OK, (GOLDEN / name).read_text(encoding="utf-8"))


def test_workers_bounds_checked_while_parsing():
    parser = build_parser()
    cpus = os.cpu_count() or 1
    for argv in (["torus", "index", "--k", "3"], ["torus", "scan", "--k-max", "3"]):
        assert parser.parse_args(argv + ["--workers", "1"]).workers == 1
        assert parser.parse_args(argv + ["--workers", str(cpus)]).workers == cpus


def test_spectrum_report(capsys):
    code, out = run_cli(
        capsys, "torus", "spectrum", "--k", "1", "--lambda-max", "2", "--format", "json"
    )
    assert code == EXIT_OK
    rep = json.loads(out)
    zero = [e for e in rep["results"]["entries"] if e["value_float"] == 0.0]
    assert zero[0]["multiplicity"] == 5
