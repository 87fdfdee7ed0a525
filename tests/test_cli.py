"""CLI: exit codes, report schema, format rendering, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bihindex.cli import (
    CHECK_MATRICES_K_LIMIT,
    DESCARTES_RANGE_LIMIT,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
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


def test_legendre_verify_exit_codes(capsys):
    code, out = run_cli(capsys, "legendre", "verify", "--m", "1", "--n", "1")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["matched"] is True


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
        # about 0.13 ms per pair: 10^8 x 50 would run for a week
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
    ],
)
def test_boundary_inputs_give_one_line_diagnostics(capsys, argv):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
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


@pytest.mark.parametrize(
    "name,argv",
    [
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
    ],
)
def test_golden_reports_byte_exact(capsys, name, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


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
    code = (
        "import sys, bihindex.cli; bihindex.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
