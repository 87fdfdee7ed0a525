"""Command-line reports: json / csv / md output, golden-table data.

Grammar (one subcommand per verified statement):

    bihindex torus {index|spectrum|scan|check}
    bihindex circle index
    bihindex legendre {verify|index|descartes}
    bihindex reduced {sphere|ellipsoid|torus|bessel|conformal}
    bihindex noncompact {stable|hessian|counterexample}

Exit codes: 0 success, 1 usage error, 2 verification failure.  Reports are
deterministic: identical invocations produce byte-identical output (floats
are rounded to 12 significant digits before rendering, JSON keys sorted,
scan rows ordered by k).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction
from typing import Any

from . import __version__
from .bumps import PolynomialBump
from .circle import circle_index_nullity, circle_index_nullity_by_matrices
from .legendre import (
    LEDGER_FAMILIES,
    CharpolyMismatchError,
    descartes_lemma_check,
    legendre_index_nullity,
    verify_p5_factorization,
)
from .noncompact import (
    COUNTEREXAMPLE_PHASE,
    COUNTEREXAMPLE_SECTION,
    CubicPhase,
    NotProperError,
    counterexample_value,
    hessian_form,
    i2_pairing,
    integrand_min,
    is_strictly_stable,
)
from .reduced import (
    DegenerateThresholdError,
    ReducedProblem,
    bessel_nullity_check,
    conformal_hessian,
    reduced_index_nullity,
    reduced_index_torus,
)
from .scan import conjecture_scan
from .torus import check_runs, index_nullity, run_totals, spectrum

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

# torus index walks the rows 5m^2 < 7k^2 with about three exact evaluations
# each, O(k): 1.4 s, 6.6 MB of JSON and 88 MB peak at k = 10^5 on one core of
# an x86-64 Xeon, Python 3.11
INDEX_K_LIMIT = 10**5

# torus scan costs about 4e-6 * k s per row k on the same core, so about
# 4 min for all k <= 10^4 in one process
SCAN_K_LIMIT = 10**4

# torus spectrum builds and sorts the about (pi/4) lambda_max labels with
# m^2 + n^2 <= lambda_max: 11 s and 210 MB at 10^5 on the same core
LAMBDA_MAX_LIMIT = 10**5

# legendre descartes takes about 0.13 ms per (m, n) pair (10-12 s at 300 x 300
# on one core of an x86-64 Xeon, Python 3.11); larger ranges are refused
DESCARTES_RANGE_LIMIT = 300

# circle index --check-matrices counts 3k + 1 blocks, about 0.45 ms per unit
# of k (4.5 s at k = 10^4 on one core of an x86-64 Xeon, Python 3.11); a
# larger k is refused with the check, answered without it
CHECK_MATRICES_K_LIMIT = 10**4

# torus check reads at most this many bytes (a k = 10^4 report is about 0.64 MB)
CHECK_FILE_LIMIT = 2**26

# digits of --n-dim, of legendre verify --m and --n, and of each exact
# rational's numerator and denominator.  The longest exact strings a report
# then prints, a noncompact hessian coefficient (3615 digits) and a legendre
# verify quintic coefficient (3005 digits, degree 20 in the labels), stay
# under Python's 4300-digit int to str limit; at 215 digits the quintic
# reaches it
EXACT_INPUT_DIGITS = 150

# digits of torus spectrum --k: a value_float overflows only when the
# eigenvalue does, and mu1 = -k^4 leaves the float range from k ~ 1.16e77
# (float(-k^4) is finite at k = 10^77 - 1 and overflows at 1.2e77)
SPECTRUM_K_DIGITS = 77


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 with one-line diagnostics
        raise UsageError(message)


# -- deterministic rendering -----------------------------------------------------

def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def render_json(report: dict) -> str:
    return json.dumps(_round_floats(report), sort_keys=True, indent=2) + "\n"


def render_csv(report: dict) -> str:
    rows = report["results"].get("csv_rows")
    header = report["results"].get("csv_header")
    if rows is None or header is None:
        raise UsageError(f"no csv rendering for command {report['command']!r}")
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(_round_floats(x)) for x in row) + "\n")
    return buf.getvalue()


def render_md(report: dict) -> str:
    rows = report["results"].get("csv_rows")
    header = report["results"].get("csv_header")
    if rows is None or header is None:
        raise UsageError(f"no md rendering for command {report['command']!r}")
    out = [f"### {report['command']}", ""]
    out.append("| " + " | ".join(header) + " |")
    out.append("|" + "|".join(["---"] * len(header)) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(_round_floats(x)) for x in row) + " |")
    out.append("")
    return "\n".join(out)


RENDERERS = {"json": render_json, "csv": render_csv, "md": render_md}


def make_report(command: str, inputs: dict, results: dict, anchor: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
        "paper_anchor": anchor,
    }


# -- argument plumbing -------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p.add_argument("--output", default=None, help="write the report to this file")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _digits_at_most(digits: int):
    """argparse type: an integer >= 1 with at most this many digits."""

    def parse(text: str) -> int:
        value = _positive_int(text)
        if value >= 10**digits:
            raise argparse.ArgumentTypeError(f"must have at most {digits} digits")
        return value

    return parse


def _worker_count(text: str) -> int:
    value = _positive_int(text)
    cpus = os.cpu_count() or 1
    if value > cpus:
        raise argparse.ArgumentTypeError(f"must be <= {cpus} (the CPU count), got {value}")
    return value


def _parse_rational(text: str, name: str) -> Fraction:
    # Fraction("1e<N>") builds 10^N, so refuse a long exponent before parsing
    _, e, exponent = text.lower().partition("e")
    if e and len(exponent.strip().lstrip("+-").lstrip("0")) > 4:
        raise UsageError(f"{name} {text}: the exponent is too large")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{name} must be an exact rational like 3, 1/2 or 0.25: {exc}")
    if max(abs(value.numerator), value.denominator) >= 10**EXACT_INPUT_DIGITS:
        raise UsageError(f"{name} needs a numerator and denominator of at most "
                         f"{EXACT_INPUT_DIGITS} digits")
    return value


def _parse_phase(text: str) -> CubicPhase:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--phase needs four comma-separated rationals a,b,c,d")
    a, b, c, d = (_parse_rational(t.strip(), "--phase entry") for t in parts)
    try:
        return CubicPhase(a, b, c, d)
    except NotProperError as exc:
        raise UsageError(f"--phase {text}: {exc}")


def build_parser() -> _Parser:
    p = _Parser(prog="bihindex", description=__doc__)
    p.add_argument("--version", action="version", version=f"bihindex {__version__}")
    groups = p.add_subparsers(dest="group", required=True)

    torus = groups.add_parser("torus").add_subparsers(dest="command", required=True)
    t_index = torus.add_parser("index", help="exact index/nullity for one k")
    t_index.add_argument("--k", type=_positive_int, required=True,
                         help=f"winding number, at most {INDEX_K_LIMIT}")
    t_index.add_argument("--workers", type=_worker_count, default=1,
                         help="accepted and unused (torus index runs in one process), so that "
                              "callers such as perfbench's index workload may pass --workers 1")
    _add_common(t_index)
    t_spec = torus.add_parser("spectrum", help="merged spectrum up to a Laplace level")
    t_spec.add_argument("--k", type=_digits_at_most(SPECTRUM_K_DIGITS), required=True,
                        help=f"winding number, at most {SPECTRUM_K_DIGITS} digits")
    t_spec.add_argument("--lambda-max", type=int, default=None,
                        help="Laplace level cap (default 4*k^2, covering all nonpositive "
                             f"branches; at most {LAMBDA_MAX_LIMIT})")
    _add_common(t_spec)
    t_scan = torus.add_parser("scan", help="nullity-conjecture scan for k=1..k-max")
    t_scan.add_argument("--k-max", type=_positive_int, required=True,
                        help=f"last winding number, at most {SCAN_K_LIMIT}")
    t_scan.add_argument("--workers", type=_worker_count, default=1,
                        help="worker processes, at most the CPU count")
    _add_common(t_scan)
    t_check = torus.add_parser("check", help="verify the evidence of a torus index JSON report")
    t_check.add_argument("file", help="a report written by torus index --format json")
    _add_common(t_check)

    circle = groups.add_parser("circle").add_subparsers(dest="command", required=True)
    c_index = circle.add_parser("index")
    c_index.add_argument("--k", type=_positive_int, required=True)
    c_index.add_argument("--check-matrices", action="store_true",
                         help="also recount from the blocks' exact eigenvalue signs "
                              f"(k <= {CHECK_MATRICES_K_LIMIT})")
    _add_common(c_index)

    leg = groups.add_parser("legendre").add_subparsers(dest="command", required=True)
    l_verify = leg.add_parser("verify", help="block symmetry + charpoly == quintic^4")
    for label in ("--m", "--n"):
        l_verify.add_argument(label, type=_digits_at_most(EXACT_INPUT_DIGITS), required=True,
                              help=f"Fourier label, at most {EXACT_INPUT_DIGITS} digits")
    _add_common(l_verify)
    l_index = leg.add_parser("index", help="index 11 / nullity 18 ledger")
    _add_common(l_index)
    l_desc = leg.add_parser("descartes", help="six-sign certificate over a range")
    l_desc.add_argument("--m", type=int, default=50,
                        help=f"range bound for m, 3..{DESCARTES_RANGE_LIMIT}")
    l_desc.add_argument("--n", type=int, default=50,
                        help=f"range bound for n, 3..{DESCARTES_RANGE_LIMIT}")
    _add_common(l_desc)

    red = groups.add_parser("reduced").add_subparsers(dest="command", required=True)
    r_sphere = red.add_parser("sphere")
    r_sphere.add_argument("--n-dim", type=int, required=True)
    r_sphere.add_argument("--radius", type=str, required=True)
    _add_common(r_sphere)
    r_ell = red.add_parser("ellipsoid")
    r_ell.add_argument("--n-dim", type=int, required=True)
    r_ell.add_argument("--radius", type=str, required=True)
    r_ell.add_argument("--b", type=str, required=True)
    _add_common(r_ell)
    r_torus = red.add_parser("torus")
    r_torus.add_argument("--k", type=_positive_int, required=True)
    _add_common(r_torus)
    r_bessel = red.add_parser("bessel")
    _add_common(r_bessel)
    r_conf = red.add_parser("conformal")
    _add_common(r_conf)

    non = groups.add_parser("noncompact").add_subparsers(dest="command", required=True)
    n_stable = non.add_parser("stable")
    n_stable.add_argument("--phase", type=str, default=None,
                          help="cubic coefficients a,b,c,d as exact rationals")
    _add_common(n_stable)
    n_hess = non.add_parser("hessian")
    n_hess.add_argument("--phase", type=str, default=None)
    _add_common(n_hess)
    n_cx = non.add_parser("counterexample")
    _add_common(n_cx)
    return p


# -- command implementations ---------------------------------------------------------

def _cmd_torus_index(args) -> tuple[dict, int]:
    if args.k > INDEX_K_LIMIT:
        raise UsageError(f"--k must be <= {INDEX_K_LIMIT}")
    r = index_nullity(args.k)
    results = {
        "k": r.k,
        "f": r.f,
        "g": r.g,
        "index": r.index,
        "nullity": r.nullity,
        "negative_runs": r.negative_runs,  # rendered as lists, like every tuple
        "zero_pairs": r.zero_pairs,
        "empty_row_witnesses": r.empty_row_witnesses,
        "csv_header": ["k", "f", "g", "index", "nullity"],
        "csv_rows": [[r.k, r.f, r.g, r.index, r.nullity]],
    }
    return make_report("torus index", {"k": args.k}, results, "torus-index-table"), EXIT_OK


def _cmd_torus_spectrum(args) -> tuple[dict, int]:
    lam_max = args.lambda_max if args.lambda_max is not None else 4 * args.k * args.k
    if lam_max < 0:
        raise UsageError("--lambda-max must be >= 0")
    if lam_max > LAMBDA_MAX_LIMIT:
        raise UsageError(
            f"--lambda-max {lam_max} (default 4*k^2 when not given) exceeds the limit "
            f"{LAMBDA_MAX_LIMIT}"
        )
    merged = spectrum(args.k, lam_max)
    rows = [
        [str(e.eigenvalue), float(e.eigenvalue), e.multiplicity, ";".join(e.branches)]
        for e in merged
    ]
    results = {
        "lambda_max": lam_max,
        "entries": [
            {
                "value_exact": str(e.eigenvalue),
                "value_float": float(e.eigenvalue),
                "multiplicity": e.multiplicity,
                "branches": list(e.branches),
            }
            for e in merged
        ],
        "csv_header": ["value_exact", "value_float", "multiplicity", "branches"],
        "csv_rows": rows,
    }
    inputs = {"k": args.k, "lambda_max": lam_max}
    return make_report("torus spectrum", inputs, results, "torus-eigenvalue-catalog"), EXIT_OK


def _cmd_torus_scan(args) -> tuple[dict, int]:
    if args.k_max > SCAN_K_LIMIT:
        raise UsageError(f"--k-max must be <= {SCAN_K_LIMIT}")
    ordered = conjecture_scan(args.k_max, workers=args.workers)
    flagged = [r.k for r in ordered if r.flagged]
    results = {
        "k_max": args.k_max,
        "all_nullity_five": not flagged,
        "flagged_k": flagged,
        "csv_header": ["k", "f", "g", "index", "nullity"],
        "csv_rows": [[r.k, r.f, r.g, r.index, r.nullity] for r in ordered],
    }
    inputs = {"k_max": args.k_max, "workers": args.workers}
    code = EXIT_VERIFICATION if flagged else EXIT_OK
    return make_report("torus scan", inputs, results, "torus-nullity-conjecture"), code


def _read_index_report(path: str) -> dict:
    """The results of a schema-2 torus index report, with their types checked."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(CHECK_FILE_LIMIT + 1)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}")
    if len(data) > CHECK_FILE_LIMIT:
        raise UsageError(f"{path} is larger than {CHECK_FILE_LIMIT} bytes")
    try:
        report = json.loads(data)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise UsageError(f"{path} is not JSON: {exc}")
    if not isinstance(report, dict) or report.get("command") != "torus index":
        raise UsageError(f"{path} is not a torus index report")
    if report.get("schema") != SCHEMA_VERSION:
        raise UsageError(f"{path} is not a schema {SCHEMA_VERSION} report; rerun torus index")
    results = report.get("results")
    if not isinstance(results, dict):
        raise UsageError(f"{path}: results is not an object")
    for name in ("k", "f", "g", "index", "nullity"):
        if type(results.get(name)) is not int:  # bool is not an integer here
            raise UsageError(f"{path}: results.{name} is not an integer")
    if results["k"] < 1:
        raise UsageError(f"{path}: results.k must be >= 1")
    for name, width in (("negative_runs", 3), ("zero_pairs", 2), ("empty_row_witnesses", 2)):
        rows = results.get(name)
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) == width and all(type(x) is int for x in r)
            for r in rows
        ):
            raise UsageError(f"{path}: results.{name} is not a list of {width}-integer lists")
    return results


def _cmd_torus_check(args) -> tuple[dict, int]:
    res = _read_index_report(args.file)
    k, runs, zeros = res["k"], res["negative_runs"], res["zero_pairs"]
    totals = run_totals(k, runs, zeros)
    failures = [
        f"{name} = {res[name]}, but the runs and zero pairs give {want}"
        for name, want in zip(("f", "g", "index", "nullity"), totals)
        if res[name] != want
    ]
    failures += check_runs(k, runs, zeros, res["empty_row_witnesses"])
    results = {
        "k": k,
        "verified": not failures,
        "failures": failures,
        "csv_header": ["k", "runs", "zero_pairs", "witnesses", "failures", "verified"],
        "csv_rows": [[k, len(runs), len(zeros), len(res["empty_row_witnesses"]), len(failures),
                      not failures]],
    }
    code = EXIT_VERIFICATION if failures else EXIT_OK
    return make_report("torus check", {"file": args.file}, results, "torus-index-table"), code


def _cmd_circle_index(args) -> tuple[dict, int]:
    if args.check_matrices and args.k > CHECK_MATRICES_K_LIMIT:
        raise UsageError(f"--check-matrices needs --k <= {CHECK_MATRICES_K_LIMIT}")
    idx, nul = circle_index_nullity(args.k)
    results = {
        "k": args.k,
        "index": idx,
        "nullity": nul,
        "csv_header": ["k", "index", "nullity"],
        "csv_rows": [[args.k, idx, nul]],
    }
    code = EXIT_OK
    if args.check_matrices:
        idx2, nul2 = circle_index_nullity_by_matrices(args.k)
        results["matrix_counts"] = {"index": idx2, "nullity": nul2}
        if (idx2, nul2) != (idx, nul):
            code = EXIT_VERIFICATION
    return make_report("circle index", {"k": args.k}, results, "circle-index-formula"), code


def _cmd_legendre_verify(args) -> tuple[dict, int]:
    try:
        rep = verify_p5_factorization(args.m, args.n)
    except CharpolyMismatchError as exc:
        results = {"matched": False, "detail": str(exc)}
        return (
            make_report("legendre verify", {"m": args.m, "n": args.n}, results,
                        "legendre-charpoly-quintic-power"),
            EXIT_VERIFICATION,
        )
    results = {
        "matched": True,
        "block_order": rep.block_order,
        "quintic_coefficients": list(rep.quintic.coeffs),
        "csv_header": ["m", "n", "block_order", "matched"],
        "csv_rows": [[args.m, args.n, rep.block_order, True]],
    }
    return (
        make_report("legendre verify", {"m": args.m, "n": args.n}, results,
                    "legendre-charpoly-quintic-power"),
        EXIT_OK,
    )


def _cmd_legendre_index(args) -> tuple[dict, int]:
    led = legendre_index_nullity()
    rows = [
        [fam, i, nu]
        for (fam, _), i, nu in zip(LEDGER_FAMILIES, led.index_split, led.nullity_split)
    ]
    rows.append(["total", led.index, led.nullity])
    results = {
        "index": led.index,
        "nullity": led.nullity,
        "index_split": list(led.index_split),
        "nullity_split": list(led.nullity_split),
        "split_matches_cited": led.split_matches_cited,
        "axis_scans": {"m": led.axis_m_scanned_to, "n": led.axis_n_scanned_to},
        "csv_header": ["family", "index", "nullity"],
        "csv_rows": rows,
    }
    code = EXIT_OK if (led.index, led.nullity) == (11, 18) else EXIT_VERIFICATION
    return make_report("legendre index", {}, results, "legendre-index-11-nullity-18"), code


def _cmd_legendre_descartes(args) -> tuple[dict, int]:
    if args.m < 3 or args.n < 3:
        raise UsageError("range bounds must be >= 3")
    if max(args.m, args.n) > DESCARTES_RANGE_LIMIT:
        raise UsageError(f"range bounds must be <= {DESCARTES_RANGE_LIMIT}")
    rep = descartes_lemma_check(args.m, args.n)
    results = {
        "checked": rep.checked,
        "violations": [list(v) for v in rep.violations],
        "sturm_confirmed": rep.sturm_confirmed,
        "csv_header": ["m_max", "n_max", "checked", "violations", "sturm_confirmed"],
        "csv_rows": [[rep.m_max, rep.n_max, rep.checked, len(rep.violations), rep.sturm_confirmed]],
    }
    code = EXIT_OK if not rep.violations and rep.sturm_confirmed else EXIT_VERIFICATION
    return (
        make_report("legendre descartes", {"m_max": args.m, "n_max": args.n}, results,
                    "legendre-descartes-certificate"),
        code,
    )


def _cmd_reduced(args) -> tuple[dict, int]:
    """reduced sphere, and reduced ellipsoid, which adds --b."""
    if not 2 <= args.n_dim < 10**EXACT_INPUT_DIGITS:
        raise UsageError(f"--n-dim must be >= 2, with at most {EXACT_INPUT_DIGITS} digits")
    radius = _parse_rational(args.radius, "--radius")
    b = _parse_rational(args.b, "--b") if args.command == "ellipsoid" else None
    try:
        problem = ReducedProblem(n=args.n_dim, radius=radius, b=b)
        idx, nul = reduced_index_nullity(problem)
    except (DegenerateThresholdError, ValueError) as exc:
        raise UsageError(str(exc))
    inputs = {"n_dim": args.n_dim, "radius": str(radius)}
    results = {"index": idx, "nullity": nul, "threshold_fourth_power": str(problem.quartic_constant())}
    anchor = "reduced-index-floor-formula"
    if b is not None:
        inputs["b"] = str(b)
        results["critical_latitude"] = problem.critical_latitude()
        anchor = "reduced-ellipsoid-floor-formula"
    results["csv_header"] = ["n", *list(inputs)[1:], "index", "nullity"]
    results["csv_rows"] = [[*inputs.values(), idx, nul]]
    return make_report(f"reduced {args.command}", inputs, results, anchor), EXIT_OK


def _cmd_reduced_torus(args) -> tuple[dict, int]:
    idx, nul = reduced_index_torus(args.k)
    results = {
        "index_reduced": idx,
        "nullity_reduced": nul,
        "csv_header": ["k", "index_reduced", "nullity_reduced"],
        "csv_rows": [[args.k, idx, nul]],
    }
    return make_report("reduced torus", {"k": args.k}, results, "reduced-torus-index"), EXIT_OK


def _cmd_reduced_bessel(args) -> tuple[dict, int]:
    rep = bessel_nullity_check()
    names = ["d1_at_0", "d2_at_0", "d3_at_0", "ratio_mean", "ratio_spread", "d4_normalized",
             "d4_target"]
    values = [float(x) for x in (*rep.derivatives_at_zero, rep.ratio_mean, rep.ratio_spread,
                                 rep.fourth_derivative_normalized, rep.fourth_derivative_target)]
    results = {
        "derivatives_at_zero": values[:3],
        "ratio_mean": values[3],
        "ratio_spread": values[4],
        "fourth_derivative_normalized": values[5],
        "fourth_derivative_target": values[6],
        "all_ok": rep.all_ok,
        "csv_header": ["quantity", "value"],
        "csv_rows": [list(row) for row in zip(names, values)],
    }
    code = EXIT_OK if rep.all_ok else EXIT_VERIFICATION
    return make_report("reduced bessel", {}, results, "bessel-nullity-direction"), code


def _cmd_reduced_conformal(args) -> tuple[dict, int]:
    exact = conformal_hessian(PolynomialBump.make(center=0, halfwidth=1, power=6))
    value, positive = float(exact), exact > 0
    results = {
        "test_function": "polynomial bump (1-u^2)^6 on [-1, 1]",
        "hessian": value,
        "hessian_exact": str(exact),
        "positive": positive,
        "csv_header": ["test_function", "hessian", "positive"],
        "csv_rows": [["(1-u^2)^6", value, positive]],
    }
    code = EXIT_OK if positive else EXIT_VERIFICATION
    return make_report("reduced conformal", {}, results, "conformal-diffeo-stability"), code


_CANONICAL_PHASES = ("0,1,0,0", "1,0,1,0", "1,0,-2,0")


def _cmd_noncompact_stable(args) -> tuple[dict, int]:
    texts = [args.phase] if args.phase else list(_CANONICAL_PHASES)
    rows = []
    for text in texts:
        phase = _parse_phase(text)
        verdict = is_strictly_stable(phase)
        wmin = integrand_min(phase)
        rows.append(
            [str(phase.a), str(phase.b), str(phase.c), str(phase.d),
             verdict.value, str(wmin)]
        )
    results = {
        "phases": [
            {"a": r[0], "b": r[1], "c": r[2], "d": r[3],
             "stability": r[4], "integrand_min": r[5]}
            for r in rows
        ],
        "csv_header": ["a", "b", "c", "d", "stability", "integrand_min"],
        "csv_rows": rows,
    }
    inputs = {"phase": args.phase}
    return (
        make_report("noncompact stable", inputs, results, "noncompact-stability-certificate"),
        EXIT_OK,
    )


def _cmd_noncompact_hessian(args) -> tuple[dict, int]:
    phase = _parse_phase(args.phase) if args.phase else COUNTEREXAMPLE_PHASE
    exact = hessian_form(phase, COUNTEREXAMPLE_SECTION)
    pairing = i2_pairing(phase, COUNTEREXAMPLE_SECTION)
    agree = exact == pairing
    try:
        value, pairing_value = float(exact), float(pairing)
    except OverflowError as exc:  # a huge phase: the exact value is fine, its float is not
        raise UsageError(f"--phase {args.phase}: the hessian has no float value ({exc})")
    results = {
        "section": "normal cos^6 bump on a half-period",
        "hessian": value,
        "hessian_exact": str(exact),
        "operator_pairing": pairing_value,
        "integration_by_parts_agrees": agree,
        "csv_header": ["a", "b", "c", "d", "hessian", "operator_pairing"],
        "csv_rows": [[str(phase.a), str(phase.b), str(phase.c), str(phase.d), value,
                      pairing_value]],
    }
    code = EXIT_OK if agree else EXIT_VERIFICATION
    return make_report("noncompact hessian", {"phase": args.phase}, results,
                       "noncompact-hessian-form"), code


def _cmd_noncompact_counterexample(args) -> tuple[dict, int]:
    exact = counterexample_value()
    lo, hi = Fraction(-3547, 1000), Fraction(-3527, 1000)  # around the cited -3.537
    ok = lo <= exact <= hi
    value, window = float(exact), [float(lo), float(hi)]
    results = {
        "value": value,
        "value_exact": str(exact),
        "window": window,
        "within_window": ok,
        "csv_header": ["value", "window_lo", "window_hi", "within_window"],
        "csv_rows": [[value, *window, ok]],
    }
    code = EXIT_OK if ok else EXIT_VERIFICATION
    return make_report("noncompact counterexample", {}, results,
                       "noncompact-counterexample-value"), code


_HANDLERS = {
    ("torus", "index"): _cmd_torus_index,
    ("torus", "spectrum"): _cmd_torus_spectrum,
    ("torus", "scan"): _cmd_torus_scan,
    ("torus", "check"): _cmd_torus_check,
    ("circle", "index"): _cmd_circle_index,
    ("legendre", "verify"): _cmd_legendre_verify,
    ("legendre", "index"): _cmd_legendre_index,
    ("legendre", "descartes"): _cmd_legendre_descartes,
    ("reduced", "sphere"): _cmd_reduced,
    ("reduced", "ellipsoid"): _cmd_reduced,
    ("reduced", "torus"): _cmd_reduced_torus,
    ("reduced", "bessel"): _cmd_reduced_bessel,
    ("reduced", "conformal"): _cmd_reduced_conformal,
    ("noncompact", "stable"): _cmd_noncompact_stable,
    ("noncompact", "hessian"): _cmd_noncompact_hessian,
    ("noncompact", "counterexample"): _cmd_noncompact_counterexample,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = _HANDLERS[(args.group, args.command)]
        report, code = handler(args)
        text = RENDERERS[args.format](report)
    except UsageError as exc:
        print(f"bihindex: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"bihindex: error: cannot write --output {args.output}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
